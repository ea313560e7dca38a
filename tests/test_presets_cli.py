import os

import numpy as np
import pytest

from confshare.accounting import count_params
from confshare.checkpoint import load_checkpoint, save_checkpoint
from confshare.cli import main
from confshare.configio import (ConfigError, parse_config_text,
                                serialize_config)
from confshare.encoder import bind_model, encoder_forward
from confshare.presets import (all_presets, calibrated_defaults, preset,
                               preset_names)
from confshare.sharing import physical_group_counts, validate_plan
from confshare.autodiff import Rng, Tensor


def run_cli(*args):
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse usage errors
        return exc.code


class TestPresets:
    def test_registry_is_exhaustive(self):
        names = preset_names()
        expected = (["B0", "B1"] + [f"SL{i}" for i in range(7)]
                    + [f"SM{i}" for i in range(5)] + [f"SC{i}" for i in range(11)]
                    + [f"LR{i}" for i in range(4)] + [f"LRS{i}" for i in range(4)])
        assert names == expected
        assert len(names) >= 27

    def test_every_preset_validates(self):
        for p in all_presets():
            assert validate_plan(p.plan) == [], p.name

    def test_sl5(self):
        p = preset("SL5")
        assert p.plan.v == 12
        counts = physical_group_counts(p.plan)
        assert all(counts[(m, s)] == 4 for (m, s) in counts)
        assert p.published_total == 4_840_000

    def test_sm2_uses_published_dim(self):
        p = preset("SM2")
        assert p.config.d == 136
        assert p.plan.i_conv == tuple(range(1, 13))
        assert p.plan.i_attention == (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)

    def test_lrs3(self):
        p = preset("LRS3")
        assert len(set(p.plan.i_ff_start)) == 8
        assert p.plan.v == 40
        assert p.plan.lowrank.k == 50

    def test_sc10_unshares_misc(self):
        p = preset("SC10")
        assert not p.plan.share_misc_small
        assert physical_group_counts(p.plan)[("conv", "misc_small")] == 12

    def test_unknown_name_lists_suggestions(self):
        with pytest.raises(ValueError, match="SL5"):
            preset("SL9")

    def test_small_variants(self):
        p = preset("LR1-small")
        assert p.config.d == 16
        assert p.config.external_params == 0
        assert p.plan.lowrank.k == 4
        assert preset("B0-small").config.d == 16

    def test_dims_divisible_by_heads(self):
        for p in all_presets():
            assert p.config.d % p.config.heads == 0, p.name


class TestConfigGrammar:
    def test_round_trip(self):
        p = preset("SC4")
        text = serialize_config(p.config, p.plan)
        config, plan = parse_config_text(text)
        assert config == p.config
        assert plan == p.plan
        assert serialize_config(config, plan) == text

    def test_round_trip_lowrank_and_misc(self):
        from dataclasses import replace
        p = preset("LRS2")
        plan = replace(p.plan, share_misc_small=False)
        text = serialize_config(p.config, plan)
        config2, plan2 = parse_config_text(text)
        assert plan2 == plan

    def test_comments_and_blank_lines(self):
        p = preset("SL3")
        text = "# header comment\n\n" + serialize_config(p.config, p.plan) + "\n# tail\n"
        config, plan = parse_config_text(text)
        assert plan == p.plan

    @pytest.mark.parametrize("line,message", [
        ("model.d 144", "expected 'section.key = value'"),
        ("d = 144", "missing its section"),
        ("model.unknown = 3", "unknown model key"),
        ("model.d = abc", r"line 13: model\.d: expected an integer, got 'abc'"),
        ("plan.i_conv = 1,x", "comma-separated integers"),
        ("plan.share_misc_small = yes", "true or false"),
        ("train.lr = 1", "unknown section"),
    ])
    def test_parse_errors(self, line, message):
        p = preset("SL3")
        key = line.split("=")[0].split()[0]
        kept = [l for l in serialize_config(p.config, p.plan).splitlines()
                if not l.startswith(f"{key} ")]
        text = "\n".join(kept + [line]) + "\n"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    def test_missing_keys_reported(self):
        with pytest.raises(ConfigError, match="missing model keys"):
            parse_config_text("model.d = 8\nplan.v = 0\n")

    def test_duplicate_key_rejected(self):
        p = preset("SL3")
        text = serialize_config(p.config, p.plan) + "model.d = 8\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(text)


class TestCheckpoints:
    @pytest.mark.parametrize("name", preset_names())
    def test_round_trip_bit_exact(self, name, tmp_path):
        p = preset(f"{name}-small")
        model = bind_model(p.config, p.plan, seed=17)
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == p.config
        assert loaded.plan == p.plan
        assert loaded.store.seed == 17
        assert list(loaded.store.keys()) == list(model.store.keys())
        for key in model.store.keys():
            assert loaded.store[key].data.tobytes() == model.store[key].data.tobytes()
        # saving the loaded model reproduces the file byte for byte
        path2 = tmp_path / f"{name}-again.ckpt"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_loaded_model_forward_matches(self, tmp_path):
        p = preset("SL5-small")
        model = bind_model(p.config, p.plan, seed=23)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = Rng(1).uniform(-1, 1, (4, p.config.input_dim))
        a = encoder_forward(Tensor(x), model)
        b = encoder_forward(Tensor(x), loaded)
        assert np.array_equal(a.data, b.data)

    def test_truncated_payload_rejected(self, tmp_path):
        p = preset("SL0-small")
        model = bind_model(p.config, p.plan, seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ConfigError, match="payload"):
            load_checkpoint(path)


    @staticmethod
    def _rewrite_manifest(path, edit):
        """Apply ``edit`` to the manifest's tensor lines and payload."""
        head, _, tail = path.read_bytes().partition(b"payload_bytes = ")
        payload = tail.partition(b"\n")[2]
        lines, payload = edit(head.decode("utf-8").splitlines(), payload)
        path.write_bytes("\n".join(lines).encode("utf-8") + b"\n"
                         + f"payload_bytes = {len(payload)}\n".encode("utf-8") + payload)

    def test_dropped_tensor_rejected(self, tmp_path):
        p = preset("SL0-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        n_classes = p.config.num_classes
        self._rewrite_manifest(path, lambda lines, payload: (
            [l for l in lines if not l.startswith("tensor = encoder|head.b|")],
            payload[:-8 * n_classes]))
        with pytest.raises(ConfigError, match=r"need encoder\|head\.b\|1"):
            load_checkpoint(path)

    def test_swapped_shape_rejected(self, tmp_path):
        p = preset("SL0-small")
        assert (p.config.d, p.config.num_classes) == (16, 8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        self._rewrite_manifest(path, lambda lines, payload: (
            [l.replace("head.w|1|16x8", "head.w|1|8x16") for l in lines], payload))
        with pytest.raises(ConfigError, match=r"encoder\|head\.w\|1\|8x16, .*16x8"):
            load_checkpoint(path)


class TestCli:
    def test_describe_preset(self, capsys):
        assert run_cli("describe", "SL5", "--format", "tsv") == 0
        out = capsys.readouterr().out
        assert "ff_start\tlinear1" in out

    def test_describe_sl3_sl5_identical_totals(self, capsys):
        assert run_cli("describe", "SL3", "--format", "tsv") == 0
        sl3 = capsys.readouterr().out
        assert run_cli("describe", "SL5", "--format", "tsv") == 0
        sl5 = capsys.readouterr().out

        def totals(text):
            rows = [l.split("\t") for l in text.splitlines() if "\t" in l][1:]
            return sum(int(r[4]) for r in rows if r[0] != "external")

        # same physical size; only group layout lines differ
        assert totals(sl3) == totals(sl5)

    def test_describe_lowrank_rows(self, capsys):
        assert run_cli("describe", "LR1", "--format", "tsv") == 0
        out = capsys.readouterr().out
        cal = calibrated_defaults()
        import math
        n = math.ceil(cal.e * cal.d)
        expected = 50 * (cal.d + n) + n
        row = next(l for l in out.splitlines() if l.startswith("ff_start\tlinear1"))
        assert int(row.split("\t")[3]) == expected

    def test_describe_config_file(self, tmp_path, capsys):
        p = preset("SL2")
        path = tmp_path / "plan.conf"
        path.write_text(serialize_config(p.config, p.plan))
        assert run_cli("describe", str(path)) == 0
        assert "grand_total" in capsys.readouterr().out

    def test_describe_unknown_preset_fails(self, capsys):
        assert run_cli("describe", "SL9") == 1
        assert "valid names" in capsys.readouterr().err

    def test_validate_good_plan(self, capsys):
        assert run_cli("validate", "--preset", "SL5") == 0
        assert "plan ok" in capsys.readouterr().out

    def test_validate_bad_config_exits_one(self, tmp_path, capsys):
        p = preset("SL3")
        text = serialize_config(p.config, p.plan).replace(
            "plan.i_attention = 1,2,3,4", "plan.i_attention = 2,2,3,3")
        path = tmp_path / "bad.conf"
        path.write_text(text)
        assert run_cli("validate", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert "minimum group id must be 1" in err

    def test_preset_and_config_conflict_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "x.conf"
        path.write_text("")
        assert run_cli("validate", "--preset", "SL5", "--config", str(path)) == 2

    def test_missing_source_is_usage_error(self):
        assert run_cli("validate") == 2

    def test_budget_prints_fitted_dim(self, capsys):
        assert run_cli("budget", "--preset", "SM2", "--budget", "5030000") == 0
        out = capsys.readouterr().out
        assert "fitted dim: " in out
        fitted = int(out.split("fitted dim: ")[1].split("\n")[0])
        assert abs(fitted - 136) <= 8

    def test_budget_infeasible_exits_one(self, capsys):
        assert run_cli("budget", "--preset", "SM2", "--budget", "1000") == 1
        assert "error" in capsys.readouterr().err

    def test_gradcheck_small_preset(self, capsys):
        assert run_cli("gradcheck", "--preset", "SL0-small", "--seed", "3",
                       "--samples", "2", "--frames", "4") == 0
        assert "gradcheck passed" in capsys.readouterr().out

    @pytest.mark.parametrize("command,flags,message", [
        ("gradcheck", ("--samples", "0"), "samples per tensor must be positive"),
        ("gradcheck", ("--samples", "-3"), "samples per tensor must be positive"),
        ("gradcheck", ("--eps", "0"), "eps must be positive"),
        ("gradcheck", ("--batch", "0"), "batch must be positive"),
        ("gradcheck", ("--frames", "0"), "frames must be positive"),
        ("train", ("--steps", "0"), "steps must be positive"),
        ("train", ("--steps", "-2"), "steps must be positive"),
    ])
    def test_non_positive_counts_rejected(self, command, flags, message, tmp_path, capsys):
        out = tmp_path / "r.txt"
        extra = ("--out", str(out)) if command == "train" else ()
        assert run_cli(command, "--preset", "SL0-small", *flags, *extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: ") and message in captured.err
        assert not out.exists()

    def test_train_deterministic_reports(self, tmp_path):
        out1 = tmp_path / "a.report"
        out2 = tmp_path / "b.report"
        for out in (out1, out2):
            assert run_cli("train", "--preset", "SL2-small", "--seed", "7",
                           "--steps", "5", "--out", str(out)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_train_saves_checkpoint(self, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli("train", "--preset", "SL0-small", "--seed", "1",
                       "--steps", "2", "--out", str(tmp_path / "r.txt"),
                       "--save-model", str(ckpt)) == 0
        loaded = load_checkpoint(ckpt)
        assert loaded.plan == preset("SL0-small").plan
