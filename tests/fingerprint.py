"""Every byte that CI compares, printed by one process:

    PYTHONPATH=<tree>/src python tests/fingerprint.py > <tree>.fp

Every line of a check's text is prefixed by the check's name, so a plain
``diff`` of two trees' outputs names each check that moved and, for
gradients, each tensor. A check that raises prints one ``<name> failed:``
line, and a command that exits with the wrong code prints its text, then
that line; the other checks still run, and the script exits 1. The bytes
depend on the BLAS build and the CPU, so compare outputs from one machine.
"""

import os

# before numpy loads: the bytes hold at a fixed BLAS thread count
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import hashlib
import io
import tempfile
from dataclasses import replace
from functools import partial

from confshare import cli
from confshare.autodiff import backward
from confshare.blocks import ModelConfig
from confshare.checkpoint import save_checkpoint
from confshare.encoder import bind_model
from confshare.presets import preset, preset_names
from confshare.sharing import key_str, repeat_plan
from confshare.training import ToyTaskSpec, batch_loss, generate_toy_batch


def grads(run: str) -> str:
    """The loss and the sha256 of every leaf gradient of one seeded batch."""
    if run == "toy":
        # the toy_train config, seed 11: a packed 4x32 batch through repeat_plan(2, 3)
        config = ModelConfig(d=32, e=7.25, heads=4, kernel_width=11)
        model = bind_model(config, repeat_plan(2, 3), 11)
        spec, seed = ToyTaskSpec(frames=32, batch=4), 11
    else:
        # LRS3, seed 1: one utterance of T=128, or a packed batch of two of T=64;
        # lrs3dense is one T=128 utterance through dense feed-forward weights
        p = preset("LRS3")
        plan = replace(p.plan, lowrank=None) if run == "lrs3dense" else p.plan
        model = bind_model(p.config, plan, 1)
        frames, batch = (64, 2) if run == "lrs3x2" else (128, 1)
        spec, seed = ToyTaskSpec(feature_dim=p.config.input_dim, num_classes=p.config.num_classes,
                                 frames=frames, batch=batch), 1
    loss = batch_loss(model, *generate_toy_batch(spec, seed, 0))
    backward(loss)
    lines = [repr(loss.item())] + [
        f"{key_str(key)} {hashlib.sha256(t.grad.tobytes()).hexdigest()}"
        for key, t in sorted(model.store.items(), key=lambda kv: key_str(kv[0]))]
    return "\n".join(lines) + "\n"


def ckpt_sha() -> str:
    """One sha256 over the full-size checkpoint of every preset, seed 7."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        for name in preset_names():
            p = preset(name)
            save_checkpoint(bind_model(p.config, p.plan, 7), path)
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest() + "\n"


class CheckFailed(Exception):
    """A check that ran to the end with the wrong outcome; its argument is its text."""


def confshare(command: str, expect: int | None = 0, show_exit: bool = True) -> str:
    """The stdout of ``confshare <command>``, run in this process, then its exit code
    if ``show_exit``. Any code but ``expect`` fails the check, unless that is None."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(command.split())
        except SystemExit as exc:  # argparse, on a flag that this tree's CLI lacks
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    text = out.getvalue() + (f"exit {code}\n" if show_exit else "")
    if expect is not None and code != expect:
        raise CheckFailed(f"{text}failed: exit {code}, expected {expect}\n")
    return text


def describe() -> str:
    """Every preset's tsv parameter report, also at -small, each with its exit code."""
    return "".join(confshare(f"describe {target} --format tsv", None)
                   for name in preset_names() for target in (name, f"{name}-small"))


# the train report, which train prints when given no --out
report = partial(confshare, show_exit=False)
CHECKS = {
    **{run: partial(grads, run) for run in ("lrs3", "lrs3x2", "lrs3dense", "toy")},
    "ckpt_sha": ckpt_sha,
    "train_sl0": partial(report, "train --preset SL0-small --seed 1 --steps 5"),
    # the losses after step 1 depend on the optimizer's bytes
    "train_sl2": partial(report, "train --preset SL2-small --seed 7 --steps 20"),
    # a gradcheck exits 1 when a key is over --tol; SL0-small's must pass, and
    # LRS3-small's fails at the default eps (ROADMAP item 8)
    "gradcheck_sl0": partial(confshare, "gradcheck --preset SL0-small --seed 3"),
    "gradcheck_lrs3": partial(confshare, "gradcheck --preset LRS3-small --seed 3 --batch 3", None),
    "describe": describe,
}


def main() -> int:
    failed = False
    for name, check in CHECKS.items():
        try:
            text = check()
        except CheckFailed as exc:  # its text ends in its failed: line
            text, failed = exc.args[0], True
        except Exception as exc:  # report it on one line, and run the other checks
            text, failed = f"failed: {exc!r}\n", True
        for line in text.removesuffix("\n").split("\n"):
            print(name, line)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
