"""Command line interface.

Exit codes are a stable contract: 0 success, 1 validation or assertion
failure, 2 usage error. Numeric flags take the config grammar's numbers
(``configio.parse_int`` and ``parse_float``): ASCII digits only, so
``--seed 1_0`` is the usage error ``argument --seed: invalid integer
'1_0'``, not seed 10.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .accounting import SizeBudget, count_params, fit_dim_to_budget, report_table
from .autodiff import NonFiniteError, check_seed
from .blocks import check_frames
from .checkpoint import save_checkpoint
from .configio import parse_config_file, parse_float, parse_int
from .encoder import bind_model
from .presets import calibrated_config, preset
from .sharing import check_lowrank, key_str, validate_plan
from .training import (OptimizerState, ToyTaskSpec, _check_count, _check_eps_and_tol,
                       generate_toy_batch, gradcheck_model, serialize_report,
                       train_steps)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _flag_type(parse):
    """``parse`` as an argparse type that reports a bad value by the
    parser's own message (``invalid integer '1_0'``), not its name."""
    def convert(value: str):
        try:
            return parse(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_INT = _flag_type(parse_int)
_FLOAT = _flag_type(parse_float)


def _add_source_flags(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="preset name, e.g. SL5 or SL5-small")
    group.add_argument("--config", help="path to a config file")


def _resolve_flags(args):
    if args.preset is not None:
        p = preset(args.preset)
        return p.config, p.plan, p.note
    config, plan = parse_config_file(args.config)
    return config, plan, f"config file {args.config}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confshare",
        description="Conformer size-reduction lab: sharing plans, low-rank "
                    "feed-forward, exact parameter accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="print the parameter report")
    describe.add_argument("target", help="preset name or config file path")
    describe.add_argument("--format", choices=("pretty", "tsv"), default="pretty")

    validate = sub.add_parser("validate", help="check a sharing plan's constraints")
    _add_source_flags(validate)

    gradcheck = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_source_flags(gradcheck)
    gradcheck.add_argument("--seed", type=_INT, default=0)
    gradcheck.add_argument("--eps", type=_FLOAT, default=1e-4)
    gradcheck.add_argument("--tol", type=_FLOAT, default=1e-5)
    gradcheck.add_argument("--samples", type=_INT, default=8)
    gradcheck.add_argument("--frames", type=_INT, default=6)
    gradcheck.add_argument("--batch", type=_INT, default=2)

    train = sub.add_parser("train", help="run the toy training loop")
    _add_source_flags(train)
    train.add_argument("--seed", type=_INT, default=0)
    train.add_argument("--steps", type=_INT, default=200)
    train.add_argument("--out", help="write the train report here")
    train.add_argument("--save-model", help="write a checkpoint here")

    budget = sub.add_parser("budget", help="fit the model dim to a size budget")
    _add_source_flags(budget)
    budget.add_argument("--budget", type=_INT, required=True)
    budget.add_argument("--hard-ceiling", type=_INT, default=6_000_000)
    budget.add_argument("--step-size", type=_INT, default=8)

    return parser


def _cmd_describe(args) -> int:
    if os.path.exists(args.target):
        config, plan = parse_config_file(args.target)
        note = f"config file {args.target}"
    else:
        p = preset(args.target)
        config, plan, note = p.config, p.plan, p.note
    check_lowrank(config, plan)
    cal = calibrated_config()
    report = count_params(config, plan)
    print(f"# {note}")
    print(f"# calibrated assumptions: e={cal.e}, kernel_width={cal.kernel_width}, "
          f"base dim={cal.d}, heads={cal.heads}")
    print(report_table(report, format=args.format), end="")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config, plan, note = _resolve_flags(args)
    violations = validate_plan(plan)
    try:
        check_lowrank(config, plan)
    except ValueError as exc:
        violations.append(str(exc))
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"plan ok: V={plan.v} ({note})")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    config, plan, _ = _resolve_flags(args)
    spec = ToyTaskSpec(feature_dim=config.input_dim, num_classes=config.num_classes,
                       frames=args.frames, batch=args.batch)
    check_frames(spec.frames, config.t_max)
    _check_eps_and_tol(args.eps, args.tol)
    _check_count("samples per tensor", args.samples)
    check_seed(args.seed)
    model = bind_model(config, plan, args.seed)
    batch = generate_toy_batch(spec, args.seed, 0)
    report = gradcheck_model(model, batch, eps=args.eps, tol=args.tol,
                             samples_per_tensor=args.samples)
    for entry in report.entries:
        status = "ok" if entry.max_rel_err < report.tol else "FAIL"
        print(f"{status}  {key_str(entry.key)}  max_rel_err={entry.max_rel_err:.3e}  "
              f"checked={entry.checked}")
    print(f"gradcheck {'passed' if report.passed else 'FAILED'}: "
          f"max_rel_err={report.max_rel_err:.3e} tol={report.tol:.0e}")
    return EXIT_OK if report.passed else EXIT_FAILURE


def _check_output_path(path: str):
    """Reject, before any compute, a path that cannot be opened as a new
    or existing file: its directory must exist and it must not be one."""
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"cannot write {path}: {parent} is not a directory")


def _cmd_train(args) -> int:
    config, plan, _ = _resolve_flags(args)
    for path in (args.out, args.save_model):
        if path:
            _check_output_path(path)
    spec = ToyTaskSpec(feature_dim=config.input_dim, num_classes=config.num_classes)
    check_frames(spec.frames, config.t_max)
    _check_count("steps", args.steps)
    check_seed(args.seed)
    model = bind_model(config, plan, args.seed)
    report = train_steps(model, spec, OptimizerState(), args.steps, args.seed)
    text = serialize_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    print(f"initial loss {report.initial_loss:.6f}, final loss {report.final_loss:.6f}, "
          f"{report.wall_clock:.1f}s", file=sys.stderr)
    if args.save_model:
        save_checkpoint(model, args.save_model)
        print(f"wrote {args.save_model}")
    return EXIT_OK


def _cmd_budget(args) -> int:
    config, plan, _ = _resolve_flags(args)
    budget = SizeBudget(max_params=args.budget, hard_ceiling=args.hard_ceiling)
    d = fit_dim_to_budget(budget, plan, config, step=args.step_size)
    total = count_params(replace(config, d=d), plan).grand_total
    print(f"fitted dim: {d}")
    print(f"params at fitted dim: {total} (budget {budget.max_params})")
    return EXIT_OK


_COMMANDS = {
    "describe": _cmd_describe,
    "validate": _cmd_validate,
    "gradcheck": _cmd_gradcheck,
    "train": _cmd_train,
    "budget": _cmd_budget,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every op checks its result and raises NonFiniteError, reported
        # below; numpy's overflow warnings would only repeat it
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (ValueError, OSError, NonFiniteError, MemoryError) as exc:
        # the interpreter's own MemoryError carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
