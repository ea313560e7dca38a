import ast
import math
import os
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from confshare.accounting import count_params
from confshare.checkpoint import load_checkpoint, save_checkpoint
from confshare.cli import main
from confshare.blocks import ModelConfig
from confshare.configio import (ConfigError, parse_config_text, parse_float, parse_int,
                                serialize_config)
from confshare.encoder import bind_model, encoder_forward
from confshare.lowrank import LowRankSpec
from confshare.presets import calibrated_defaults, preset, preset_names
from confshare.sharing import (ALL_MISC_SMALL, SharingPlan, key_str, physical_group_counts,
                               repeat_plan, validate_plan)
from confshare.autodiff import Rng, Tensor
from conftest import traced_peak
from oracles import all_presets


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
        assert p.plan.unshared == ALL_MISC_SMALL
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
        p = preset("LRS2")
        plan = replace(p.plan, unshared=ALL_MISC_SMALL)
        text = serialize_config(p.config, plan)
        config2, plan2 = parse_config_text(text)
        assert plan2 == plan
        assert "share_misc_small" not in text

    def test_round_trip_every_model_field_set(self):
        config = ModelConfig(d=24, e=3.5, heads=3, kernel_width=5, input_dim=40,
                             num_classes=11, t_max=64, external_params=1234)
        for f in fields(ModelConfig):
            assert getattr(config, f.name) != f.default, f.name
        plan = repeat_plan(2, 1)
        text = serialize_config(config, plan)
        assert text.splitlines()[:8] == [
            "model.d = 24", "model.e = 3.5", "model.heads = 3", "model.kernel_width = 5",
            "model.input_dim = 40", "model.num_classes = 11", "model.t_max = 64",
            "model.external_params = 1234"]
        assert parse_config_text(text) == (config, plan)
        assert serialize_config(*parse_config_text(text)) == text

    def test_round_trip_integer_e(self):
        # a float field given an int in Python is written as the float it parses to
        config = ModelConfig(d=8, e=2, heads=2, kernel_width=3, t_max=16)
        text = serialize_config(config, repeat_plan(1, 1))
        assert "model.e = 2.0\n" in text
        assert parse_config_text(text)[0] == config
        assert serialize_config(*parse_config_text(text)) == text

    @pytest.mark.parametrize("value,name", [("false", "SC10"), ("true", "SL5")])
    def test_older_share_misc_small_key(self, value, name):
        sl5 = preset("SL5")
        text = serialize_config(sl5.config, sl5.plan) + f"plan.share_misc_small = {value}\n"
        assert parse_config_text(text)[1] == preset(name).plan

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
        ("model.e = inf", "expansion must be positive and finite, got inf"),
        ("model.e = nan", "expansion must be positive and finite, got nan"),
        ("plan.i_conv = 1,x", "comma-separated integers"),
        ("plan.share_misc_small = yes", "true or false"),
        ("train.lr = 1", "unknown section"),
        ("model.e2 = 3", "line 14: unknown model key"),
        ("plan.v2 = 1", "line 14: unknown plan key"),
        ("plan.unshared = conv", r"line 14: plan\.unshared: expected module\.sub_component"),
        ("plan.share_misc_small = no", r"line 14: plan\.share_misc_small: expected true or false"),
        ("exp.lr = 1", "line 14: unknown section"),
        ("model.e = inf", r"^line 13: model\.e: feed-forward expansion must be positive"),
        ("model.heads = 5", r"^line 13: model\.heads: heads must divide d: d=144, heads=5"),
        ("model.d = 146", r"^line 2: model\.heads: heads must divide d: d=146, heads=4"),
        ("model.kernel_width = 4", r"^line 13: model\.kernel_width: kernel width must be odd"),
        ("model.t_max = 0", r"^line 13: model\.t_max: t_max must be positive"),
        ("model.input_dim = 0", r"^line 13: model\.input_dim: input_dim must be positive"),
        ("plan.lowrank_k = 0", r"^line 14: plan\.lowrank_k: low-rank k must be >= 1"),
        # int() would take these, so two spellings would parse as one value
        ("model.d = 1_44", r"^line 13: model\.d: expected an integer, got '1_44'$"),
        ("model.d = \uff11\uff14\uff14",
         r"^line 13: model\.d: expected an integer, got '\uff11\uff14\uff14'$"),
        ("plan.v = 1_2", r"^line 13: plan\.v: expected an integer, got '1_2'$"),
        ("plan.lowrank_k = 5_0", r"^line 14: plan\.lowrank_k: expected an integer, got '5_0'$"),
        ("plan.i_conv = 1,1,\u0661", r"^line 13: plan\.i_conv: expected comma-separated "
                                      r"integers, got '1,1,\u0661'$"),
        # float() would take these, so two spellings would parse as one value
        ("model.e = 1_7.25", r"^line 13: model\.e: expected a number, got '1_7\.25'$"),
        ("model.e = \uff117.25", r"^line 13: model\.e: expected a number, got '\uff117\.25'$"),
        ("model.e = \u0667.25", r"^line 13: model\.e: expected a number, got '\u0667\.25'$"),
    ])
    def test_parse_errors(self, line, message):
        p = preset("SL3")
        key = line.split("=")[0].split()[0]
        kept = [l for l in serialize_config(p.config, p.plan).splitlines()
                if not l.startswith(f"{key} ")]
        text = "\n".join(kept + [line]) + "\n"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("value,expected", [("0", 0), ("+7", 7), ("-12", -12),
                                                ("18446744073709551616", 2**64)])
    def test_parse_int_takes_ascii_digits(self, value, expected):
        assert parse_int(value) == expected

    @pytest.mark.parametrize("value", ["", "+", "1_0", " 1", "1 ", "1.0", "0x10", "\u0663",
                                       "\uff11", "1\n"])
    def test_parse_int_rejects_what_is_not_ascii_digits(self, value):
        with pytest.raises(ValueError, match="invalid integer"):
            parse_int(value)

    @pytest.mark.parametrize("value,expected", [
        ("7.25", 7.25), ("+7", 7.0), ("-0.5", -0.5), (".5", 0.5), ("5.", 5.0),
        ("1e-05", 1e-05), ("1E+300", 1e300), ("2.5e3", 2500.0), ("inf", math.inf),
        ("-Infinity", -math.inf)])
    def test_parse_float_takes_ascii_decimals(self, value, expected):
        assert parse_float(value) == expected

    def test_parse_float_takes_nan(self):
        assert math.isnan(parse_float("nan"))

    @pytest.mark.parametrize("value", ["", ".", "+", "e5", "1e", "1e+", "1_0", "1_7.25",
                                       "1.2.3", " 1.5", "1.5 ", "0x1p3", "infin", "\u0131nf",
                                       "\uff117.25", "\u0667.25", "7.\u0662\u0665", "1.5\n"])
    def test_parse_float_rejects_what_is_not_an_ascii_decimal(self, value):
        with pytest.raises(ValueError, match="invalid number"):
            parse_float(value)

    def test_round_trip_empty_plan(self):
        # V = 0: every index vector is empty, written and read as nothing
        config = preset("SL0-small").config
        plan = SharingPlan(v=0, i_ff_start=(), i_attention=(), i_conv=(), i_ff_end=())
        text = serialize_config(config, plan)
        assert "plan.v = 0\nplan.i_ff_start = \n" in text
        assert parse_config_text(text) == (config, plan)
        assert serialize_config(*parse_config_text(text)) == text

    def test_missing_keys_reported(self):
        with pytest.raises(ConfigError, match="missing model keys"):
            parse_config_text("model.d = 8\nplan.v = 0\n")

    def test_duplicate_key_rejected(self):
        p = preset("SL3")
        text = serialize_config(p.config, p.plan) + "model.d = 8\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(text)

    # every character but "\n" and "\r" at which str.splitlines() ends a line
    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_error_names_its_line_in_the_file(self, char, tmp_path):
        p = preset("SL0-small")
        lines = serialize_config(p.config, p.plan).split("\n")
        assert lines[4] == f"model.input_dim = {p.config.input_dim}"
        lines[1] += char
        lines[4] = "model.input_dim = x"
        message = "model.input_dim: expected an integer, got 'x'"
        with pytest.raises(ConfigError, match=f"^line 5: {re.escape(message)}$"):
            parse_config_text("\n".join(lines))
        # below the format and seed lines, line 5 of the config is line 7 of a checkpoint
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"model.e = 7.25\n", f"model.e = 7.25{char}\n".encode(), 1)
                         .replace(b"model.input_dim = 80\n", b"model.input_dim = x\n", 1))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: line 7: {message}')}$"):
            load_checkpoint(path)

    def test_crlf_file_parses_to_the_same_config(self):
        p = preset("LRS2")
        text = serialize_config(p.config, p.plan)
        assert parse_config_text(text.replace("\n", "\r\n")) == (p.config, p.plan)


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

    def test_round_trip_integer_e_bit_exact(self, tmp_path):
        config = ModelConfig(d=8, e=2, heads=2, kernel_width=3, t_max=16)
        path = tmp_path / "int-e.ckpt"
        save_checkpoint(bind_model(config, repeat_plan(1, 1), seed=17), path)
        path2 = tmp_path / "int-e-again.ckpt"
        save_checkpoint(load_checkpoint(path), path2)
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

    def test_payload_longer_than_promised_rejected(self, tmp_path):
        p = preset("SL0-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        path.write_bytes(path.read_bytes() + bytes(8))
        size = count_params(p.config, p.plan).encoder_total * 8
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: payload is "
                                              f"{size + 8} bytes, manifest promises {size}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("promised", ["all", "zero"])
    def test_file_ending_at_payload_count_rejected(self, promised, tmp_path):
        # the file stops right after "payload_bytes = N", with no newline
        p = preset("SL0-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        size = count_params(p.config, p.plan).encoder_total * 8
        count = size if promised == "all" else 0
        head = path.read_bytes().partition(b"payload_bytes = ")[0]
        path.write_bytes(head + f"payload_bytes = {count}".encode())
        lineno = head.count(b"\n") + 1
        message = (f"payload is 0 bytes, manifest promises {size}" if count
                   else f"line {lineno}: expected 'payload_bytes = {size}', "
                        f"found 'payload_bytes = 0'")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    def test_file_shrinking_during_load_rejected(self, tmp_path, monkeypatch):
        # the size check passes on the size the file had; the tensor reads
        # then run out of bytes
        p = preset("SL0-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: payload ends "
                                              f"inside tensor encoder\\|head\\.b\\|1$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, value, tmp_path):
        p = preset("SL0-small")
        model = bind_model(p.config, p.plan, seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-8] + np.array([value], "<f8").tobytes())
        last = key_str(list(model.store.keys())[-1])
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: tensor "
                                              f"{re.escape(last)} holds non-finite values$"):
            load_checkpoint(path)

    @staticmethod
    def _few_mib_model():
        config = ModelConfig(d=128, e=4, heads=4, kernel_width=3, t_max=32)
        model = bind_model(config, repeat_plan(1, 1), seed=3)
        largest = max(t.data.nbytes for t in model.store.tensors.values())
        return model, model.store.total_scalars() * 8, largest

    def test_load_holds_one_copy_of_the_payload(self, tmp_path):
        model, payload, largest = self._few_mib_model()
        assert payload > 3 * 2**20 and largest <= payload // 4
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert traced_peak(lambda: load_checkpoint(path))[1] <= payload + largest

    def test_save_copies_no_tensor(self, tmp_path):
        model, _payload, largest = self._few_mib_model()
        path = tmp_path / "m.ckpt"
        assert traced_peak(lambda: save_checkpoint(model, path))[1] < largest

    def test_short_payload_with_matching_count_rejected(self, tmp_path):
        # payload_bytes agrees with the payload, but the tensor list needs 8 more
        p = preset("SL0-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        self._rewrite_manifest(path, lambda lines, payload: (lines, payload[:-8]))
        size = count_params(p.config, p.plan).encoder_total * 8
        message = (f"{path}: line {self._payload_line(path)}: expected 'payload_bytes = "
                   f"{size}', found 'payload_bytes = {size - 8}'")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    @staticmethod
    def _rewrite_manifest(path, edit):
        """Apply ``edit`` to the manifest's tensor lines and payload."""
        head, _, tail = path.read_bytes().partition(b"payload_bytes = ")
        payload = tail.partition(b"\n")[2]
        lines, payload = edit(head.decode("utf-8").splitlines(), payload)
        path.write_bytes("\n".join(lines).encode("utf-8") + b"\n"
                         + f"payload_bytes = {len(payload)}\n".encode("utf-8") + payload)

    @staticmethod
    def _payload_line(path):
        return path.read_bytes().partition(b"payload_bytes = ")[0].count(b"\n") + 1

    def test_dropped_tensor_rejected(self, tmp_path):
        p = preset("SL0-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        n_classes = p.config.num_classes
        self._rewrite_manifest(path, lambda lines, payload: (
            [l for l in lines if not l.startswith("tensor = encoder|head.b|")],
            payload[:-8 * n_classes]))
        size = count_params(p.config, p.plan).encoder_total * 8
        # the head bias was the last tensor line
        message = (f"{path}: line {self._payload_line(path)}: expected 'tensor = "
                   f"encoder|head.b|1|{n_classes}', found 'payload_bytes = "
                   f"{size - 8 * n_classes}'")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    def test_swapped_shape_rejected(self, tmp_path):
        p = preset("SL0-small")
        assert (p.config.d, p.config.num_classes) == (16, 8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        self._rewrite_manifest(path, lambda lines, payload: (
            [l.replace("head.w|1|16x8", "head.w|1|8x16") for l in lines], payload))
        blob = path.read_bytes()
        lineno = blob[:blob.index(b"head.w|1|8x16")].count(b"\n") + 1
        message = (f"{path}: line {lineno}: expected 'tensor = encoder|head.w|1|16x8', "
                   f"found 'tensor = encoder|head.w|1|8x16'")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new,message", [
        ("tensor = encoder|head.b|1|8\n", "tensor = encoder|head.b|8\n",
         r"expected 'tensor = encoder\|head\.b\|1\|8', found 'tensor = encoder\|head\.b\|8'$"),
        ("seed = 1\n", "seed = x1\n", "seed: expected an integer, got 'x1'"),
        ("seed = 1\n", "seed = 1_0\n", "seed: expected an integer, got '1_0'$"),
        ("seed = 1\n", "seed = \uff11\n", "seed: expected an integer, got '\uff11'$"),
        ("|80x16\n", "|80x1_6\n", r"expected 'tensor = encoder\|frontend\.w\|1\|80x16', "
                                    r"found 'tensor = encoder\|frontend\.w\|1\|80x1_6'$"),
        ("model.d = 16\n", "model.d = 1_6\n", r"model\.d: expected an integer, got '1_6'$"),
        ("payload_bytes = ", "payload_bytes = 0_",
         r"expected 'payload_bytes = (\d+)', found 'payload_bytes = 0_\1'$"),
        ("|80x16\n", "|80xq\n", r"expected 'tensor = encoder\|frontend\.w\|1\|80x16', "
                                  r"found 'tensor = encoder\|frontend\.w\|1\|80xq'$"),
        ("model.d = 16\n", "model.d = x6\n", r"model\.d: expected an integer, got 'x6'"),
        ("payload_bytes = ", "payload_bytes = 12z",
         r"expected 'payload_bytes = (\d+)', found 'payload_bytes = 12z\1'$"),
        ("seed = 1\n", "seed = -1\n", r"seed must be in \[0, 2\*\*64\), got -1$"),
        ("seed = 1\n", f"seed = {2**64 + 1}\n",
         rf"seed must be in \[0, 2\*\*64\), got {2**64 + 1}$"),
    ])
    def test_malformed_manifest_line_rejected(self, old, new, message, tmp_path):
        p = preset("SL0-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        blob = path.read_bytes()
        lineno = blob[:blob.index(old.encode())].count(b"\n") + 1
        path.write_bytes(blob.replace(old.encode(), new.encode(), 1))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: line {lineno}: {message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda blob: blob.replace(b"format = confshare-checkpoint-v1\n", b"", 1),
         "line 1: expected 'format = confshare-checkpoint-v1', found 'seed = 1'"),
        (lambda blob: blob.replace(b"seed = 1\n", b"seed = 01\n", 1),
         "line 2: expected 'seed = 1', found 'seed = 01'"),
        (lambda blob: blob.replace(b"|80x16\n", b"|80x016\n", 1),
         "line {first}: expected 'tensor = encoder|frontend.w|1|80x16', "
         "found 'tensor = encoder|frontend.w|1|80x016'"),
        (lambda blob: blob.replace(b"payload_bytes = ", b"payload_bytes = +", 1),
         "line {last}: expected 'payload_bytes = {size}', found 'payload_bytes = +{size}'"),
        (lambda blob: blob.replace(b"encoder|head.b|1|8\n", b"encoder|head.b|01|8\n", 1),
         "line {head_b}: expected 'tensor = encoder|head.b|1|8', "
         "found 'tensor = encoder|head.b|01|8'"),
        (lambda blob: blob.replace(b"tensor = ", b"tensor =  ", 1),
         "line {first}: expected 'tensor = encoder|frontend.w|1|80x16', "
         "found 'tensor =  encoder|frontend.w|1|80x16'"),
        (lambda blob: blob.replace(b"seed = 1\n", b"", 1).replace(
            b"tensor = ", b"seed = 1\ntensor = ", 1), "manifest is missing the seed"),
    ], ids=["no-format-line", "seed-01", "shape-016", "payload-plus", "group-01",
            "two-spaces", "seed-after-config"])
    def test_manifest_line_a_save_never_writes_rejected(self, edit, message, tmp_path):
        # a save never writes any of these files, though each names the saved values
        p = preset("SL0-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        blob = path.read_bytes()

        def line(text):
            return blob[:blob.index(text)].count(b"\n") + 1

        message = message.format(first=line(b"tensor = "), last=line(b"payload_bytes = "),
                                 head_b=line(b"tensor = encoder|head.b|"),
                                 size=count_params(p.config, p.plan).encoder_total * 8)
        path.write_bytes(edit(blob))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new,message", [
        (b"payload_bytes = ", b"payload_count = ", "not a checkpoint (missing payload_bytes)"),
        (b"seed = 1\n", b"", "manifest is missing the seed"),
        (b"format = confshare-checkpoint-v1\n", b"format = confshare-checkpoint-v0\n",
         "line 1: unsupported format 'confshare-checkpoint-v0'"),
    ], ids=["no-payload-count", "no-seed", "format-v0"])
    def test_manifest_without_its_header_rejected(self, old, new, message, tmp_path):
        p = preset("SL0-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        blob = path.read_bytes()
        assert old in blob
        path.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    def test_non_utf8_manifest_rejected(self, tmp_path):
        p = preset("SL0-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        blob = path.read_bytes()
        lineno = blob[:blob.index(b"seed = 1\n")].count(b"\n") + 1
        path.write_bytes(blob.replace(b"seed = 1\n", b"seed = 1\xff\n", 1))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: line {lineno}: "
                                              f"not UTF-8 text"):
            load_checkpoint(path)

    def test_invalid_plan_rejected(self, tmp_path):
        p = preset("SL0-small")
        assert p.plan.v == 1
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=1), path)
        path.write_bytes(path.read_bytes().replace(b"plan.i_conv = 1\n",
                                                   b"plan.i_conv = 2\n", 1))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: invalid sharing plan:"):
            load_checkpoint(path)

    def test_loads_share_misc_small_checkpoint(self, tmp_path):
        # The manifest line SC10 was saved with before plan.unshared took it.
        p = preset("SC10-small")
        path = tmp_path / "m.ckpt"
        save_checkpoint(bind_model(p.config, p.plan, seed=17), path)
        blob = path.read_bytes()
        line = (b"plan.unshared = attention.misc_small,conv.misc_small,"
                b"ff_end.misc_small,ff_start.misc_small\n")
        assert line in blob
        path.write_bytes(blob.replace(line, b"plan.share_misc_small = false\n", 1))
        assert load_checkpoint(path).plan == p.plan


class TestCli:
    def test_describe_preset(self, capsys):
        assert run_cli("describe", "SL5", "--format", "tsv") == 0
        out = capsys.readouterr().out
        assert "ff_start\tlinear1" in out

    @pytest.mark.parametrize("name", ["SL5", "LRS3"])
    def test_describe_row_order(self, name, capsys):
        assert run_cli("describe", name, "--format", "tsv") == 0
        rows = [line.split("\t")[:2] for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]
        assert rows == [
            ["module", "sub_component"],
            ["ff_start", "linear1"], ["ff_start", "linear2"], ["ff_start", "misc_small"],
            ["attention", "query"], ["attention", "key"], ["attention", "value"],
            ["attention", "post"], ["attention", "pos_query"], ["attention", "misc_small"],
            ["conv", "pre_conv"], ["conv", "depth_conv"], ["conv", "post_conv"],
            ["conv", "misc_small"],
            ["ff_end", "linear1"], ["ff_end", "linear2"], ["ff_end", "misc_small"],
            ["encoder", "frontend"], ["encoder", "rel_table"], ["encoder", "head"],
            ["external", "params"],
        ]

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

    @pytest.mark.parametrize("e", ["inf", "nan"])
    def test_describe_non_finite_e_fails(self, e, tmp_path, capsys):
        p = preset("SL2")
        path = tmp_path / "plan.conf"
        path.write_text(serialize_config(p.config, p.plan).replace(
            f"model.e = {p.config.e!r}", f"model.e = {e}"))
        assert run_cli("describe", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("args", [("describe",), ("validate", "--config")],
                             ids=["describe", "validate"])
    @pytest.mark.parametrize("content,message", [
        pytest.param(b"model.d = 1\xff\n", "line 1: not UTF-8 text (byte 0xff)", id="non-utf8"),
        pytest.param(b"model.d = 8\nmodel.depth = 2\n", "line 2: unknown model key 'depth'",
                     id="unknown-key"),
    ])
    def test_config_file_errors_name_the_file(self, args, content, message, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_bytes(content)
        assert run_cli(*args, str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

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

    @pytest.mark.parametrize("base,old,new,message", [
        ("SL3", "plan.v = 4\n", "plan.v = -1\n",
         "violation: virtual layer count must be non-negative, got -1"),
        ("SL1", "plan.i_conv = 1,1\n", "plan.i_conv = 0,1\n",
         "violation: i_conv: group ids must be positive integers (positions [0])"),
        ("SL3", "plan.i_ff_end = 1,2,3,4\n", "",
         "error: {path}: missing plan keys: i_ff_end"),
    ], ids=["negative-v", "zero-group-id", "no-i_ff_end"])
    def test_validate_rejects_config(self, base, old, new, message, tmp_path, capsys):
        p = preset(base)
        text = serialize_config(p.config, p.plan)
        assert old in text
        path = tmp_path / "bad.conf"
        path.write_text(text.replace(old, new, 1))
        assert run_cli("validate", "--config", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message.format(path=path) in captured.err.splitlines()

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

    def test_budget_of_zero_is_one_error_line(self, capsys):
        assert run_cli("budget", "--preset", "SM2", "--budget", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: budget values must be positive\n"

    @staticmethod
    def _rank_100_config(tmp_path):
        """LR1-small (d=16, n=116) at rank 100, which does not reduce."""
        p = preset("LR1-small")
        path = tmp_path / "rank100.conf"
        path.write_text(serialize_config(p.config, replace(p.plan, lowrank=LowRankSpec(k=100))))
        return path

    RANK_100 = "rank 100 does not reduce a 16x116 matrix: 100*(16+116)=13200 >= 1856"

    def test_validate_rejects_rank_that_does_not_reduce(self, tmp_path, capsys):
        assert run_cli("validate", "--config", str(self._rank_100_config(tmp_path))) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"violation: {self.RANK_100}\n"

    @pytest.mark.parametrize("args", [("describe",), ("train", "--config"),
                                      ("gradcheck", "--config")],
                             ids=["describe", "train", "gradcheck"])
    def test_rank_that_does_not_reduce_is_one_error_line(self, args, tmp_path, capsys):
        assert run_cli(*args, str(self._rank_100_config(tmp_path))) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {self.RANK_100}\n"

    def test_budget_rejects_rank_that_does_not_reduce_at_the_fitted_dim(self, capsys):
        # LR1's rank 50 first reduces at d=64; a budget that fits d=16 is refused
        assert run_cli("budget", "--preset", "LR1", "--budget", "2100000") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: fitted d=16: rank 50 does not reduce a 16x116 matrix: "
                                "50*(16+116)=6600 >= 1856\n")

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
    def test_non_positive_counts_rejected(self, command, flags, message, monkeypatch,
                                          tmp_path, capsys):
        import confshare.cli

        def never(*args):
            raise AssertionError("bound a model for a run that cannot start")

        monkeypatch.setattr(confshare.cli, "bind_model", never)
        out = tmp_path / "r.txt"
        extra = ("--out", str(out)) if command == "train" else ()
        assert run_cli(command, "--preset", "SL0-small", *flags, *extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: ") and message in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
    @pytest.mark.parametrize("command", ["gradcheck", "train"])
    def test_seed_outside_64_bits_rejected_before_binding(self, command, seed, monkeypatch,
                                                          capsys):
        import confshare.cli

        def never(*args):
            raise AssertionError("bound a model under a seed that aliases another")

        monkeypatch.setattr(confshare.cli, "bind_model", never)
        assert run_cli(command, "--preset", "SL0-small", "--seed", seed) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must be in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("command,t_max,flags,frames", [
        ("gradcheck", 256, ("--frames", "300"), 300),
        ("train", 16, ("--steps", "1"), 32),  # the toy task's 32 frames
    ])
    def test_frames_beyond_t_max_rejected_before_binding(self, command, t_max, flags, frames,
                                                         monkeypatch, tmp_path, capsys):
        import confshare.cli

        def never(*args):
            raise AssertionError("bound a model for an input it cannot take")

        monkeypatch.setattr(confshare.cli, "bind_model", never)
        p = preset("SL0-small")
        path = tmp_path / "m.conf"
        path.write_text(serialize_config(replace(p.config, t_max=t_max), p.plan))
        assert run_cli(command, "--config", str(path), *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {frames} frames exceed the model's t_max of {t_max}\n"

    @pytest.mark.parametrize("flag,value,shown", [
        ("eps", "nan", "nan"), ("eps", "inf", "inf"), ("eps", "0", "0.0"),
        ("tol", "nan", "nan"), ("tol", "-1", "-1.0")])
    def test_bad_eps_or_tol_rejected_before_binding(self, flag, value, shown,
                                                    monkeypatch, capsys):
        import confshare.cli

        def never(*args):
            raise AssertionError("bound a model for a check that cannot run")

        monkeypatch.setattr(confshare.cli, "bind_model", never)
        assert run_cli("gradcheck", "--preset", "SL0-small", f"--{flag}", value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be positive and finite, got {shown}\n"

    @pytest.mark.parametrize("value", ["1_0", "\uff11\uff10", "\u0661\u0660"],
                             ids=["underscore", "full-width", "arabic-indic"])
    @pytest.mark.parametrize("command,flag", [
        ("gradcheck", "--seed"), ("gradcheck", "--samples"), ("gradcheck", "--frames"),
        ("gradcheck", "--batch"), ("train", "--seed"), ("train", "--steps"),
        ("budget", "--budget"), ("budget", "--hard-ceiling"), ("budget", "--step-size")])
    def test_integer_flags_take_only_ascii_digits(self, command, flag, value,
                                                   monkeypatch, capsys):
        import confshare.cli

        def never(*args, **kwargs):
            raise AssertionError("ran a command whose flags do not parse")

        for name in ("bind_model", "fit_dim_to_budget"):
            monkeypatch.setattr(confshare.cli, name, never)
        others = ("--budget", "5030000") if flag != "--budget" and command == "budget" else ()
        assert run_cli(command, "--preset", "SL0-small", *others, flag, value) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: invalid integer '{value}'\n" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["1_0e-5", "\uff11e-5", "\u0661e-5"],
                             ids=["underscore", "full-width", "arabic-indic"])
    @pytest.mark.parametrize("flag", ["--eps", "--tol"])
    def test_float_flags_take_only_ascii_decimals(self, flag, value, monkeypatch, capsys):
        import confshare.cli

        def never(*args):
            raise AssertionError("bound a model for flags that do not parse")

        monkeypatch.setattr(confshare.cli, "bind_model", never)
        assert run_cli("gradcheck", "--preset", "SL0-small", flag, value) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: invalid number '{value}'\n" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["1_7.25", "\uff117.25", "\u0667.25"],
                             ids=["underscore", "full-width", "arabic-indic"])
    def test_config_float_takes_only_ascii_decimals(self, value, tmp_path, capsys):
        p = preset("SL2")
        text = serialize_config(p.config, p.plan)
        lineno = text.splitlines().index(f"model.e = {p.config.e!r}") + 1
        path = tmp_path / "plan.conf"
        path.write_text(text.replace(f"model.e = {p.config.e!r}", f"model.e = {value}"),
                        encoding="utf-8")
        assert run_cli("describe", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: line {lineno}: model.e: expected a number, "
                                f"got '{value}'\n")

    @pytest.mark.parametrize("flag", ["--out", "--save-model"])
    @pytest.mark.parametrize("target,reason", [
        ("missing/r.txt", "{tmp}/missing is not a directory"),
        ("file/r.txt", "{tmp}/file is not a directory"),
        (".", "it is a directory"),
    ], ids=["missing-parent", "file-parent", "directory"])
    def test_unwritable_train_output_rejected_before_binding(self, flag, target, reason,
                                                             monkeypatch, tmp_path, capsys):
        import confshare.cli

        def never(*args):
            raise AssertionError("ran compute for a result it cannot write")

        monkeypatch.setattr(confshare.cli, "bind_model", never)
        monkeypatch.setattr(confshare.cli, "train_steps", never)
        (tmp_path / "file").write_text("")
        path = os.path.normpath(tmp_path / target)
        assert run_cli("train", "--preset", "SL0-small", flag, path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: {reason.format(tmp=tmp_path)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_non_finite_evaluation_is_one_error_line(self, capsys):
        # a step of 1e300 passes validation, then overflows a perturbed forward
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("gradcheck", "--preset", "SL0-small", "--eps", "1e300") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matmul produced non-finite values\n"
        assert caught == []

    def test_non_finite_loss_is_one_error_line(self, monkeypatch, capsys):
        import confshare.cli

        def overflowing(config, plan, seed):
            model = bind_model(config, plan, seed)
            model.store[("encoder", "frontend.w", 1)].data[...] = 1e308
            return model

        monkeypatch.setattr(confshare.cli, "bind_model", overflowing)
        assert run_cli("train", "--preset", "SL0-small", "--steps", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite loss at step 0\n"

    @pytest.mark.parametrize("message", [
        # what numpy raises for a --samples or --batch of 10**14
        "Unable to allocate 728. TiB for an array with shape (100000000000000,) and data "
        "type uint64",
        # the interpreter's own carries none, so the line names the type
        "",
    ])
    def test_memory_exhaustion_is_one_error_line(self, message, monkeypatch, capsys):
        import confshare.cli

        def exhausted(config, plan, seed):
            raise MemoryError(message)

        monkeypatch.setattr(confshare.cli, "bind_model", exhausted)
        assert run_cli("gradcheck", "--preset", "SL0-small") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message or 'MemoryError'}\n"

    def test_step_that_rounds_away_is_one_error_line(self, capsys):
        # theta +- 1e-300 == theta for every nonzero weight: no key is reported
        assert run_cli("gradcheck", "--preset", "SL0-small", "--eps", "1e-300") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: finite_diff_grad: a step of 1e-300 rounds away at "
                            r"coordinate \d+: \S+ \+- 1e-300 == \S+\n", captured.err)

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


def test_every_public_function_has_a_caller():
    """``src/`` ships only what the system runs: every public top-level
    function of the package is called from ``src/`` outside its own body,
    or imported by a ``bench/`` script. Test-only helpers live under
    ``tests/``. A call is matched by the called name alone.

    Every defaulted parameter of such a function is also passed, by
    keyword or by position, at some such call, so no setting is one that
    only its default serves. Functions that ``bench/`` imports are exempt
    (it calls them through ``Tracer.call``), and so is ``cli.main``'s
    ``argv``, which the console entry point leaves unset.

    Likewise every ``@dataclass`` field with a default (and ``init`` left
    on) is passed at some ``src/`` construction of its class, where a
    ``**`` splat counts as passing it, or by keyword at some ``replace``
    call. Classes that ``bench/`` imports are exempt."""
    root = Path(__file__).resolve().parents[1]
    defined = []  # (module, function name)
    defaults = []  # (module, function name, parameter, position or None)
    defaulted = []  # (module, class name, defaulted field, position among init fields)
    calls = []  # (callee name, module, enclosing top-level function or None, call)

    def name_of(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    for path in sorted((root / "src" / "confshare").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef) and any(
                    name_of(getattr(d, "func", d)) == "dataclass" for d in stmt.decorator_list):
                init = [item for item in stmt.body if isinstance(item, ast.AnnAssign)
                        and not (isinstance(item.value, ast.Call)
                                 and name_of(item.value.func) == "field"
                                 and any(kw.arg == "init" and getattr(kw.value, "value", True)
                                         is False for kw in item.value.keywords))]
                defaulted += [(path.stem, stmt.name, item.target.id, i)
                              for i, item in enumerate(init) if item.value is not None]
            owner = None
            if isinstance(stmt, ast.FunctionDef):
                owner = stmt.name
                if not stmt.name.startswith("_"):
                    defined.append((path.stem, stmt.name))
                    args = stmt.args
                    positional = args.posonlyargs + args.args
                    first = len(positional) - len(args.defaults)
                    defaults += [(path.stem, stmt.name, arg.arg, i)
                                 for i, arg in enumerate(positional) if i >= first]
                    defaults += [(path.stem, stmt.name, arg.arg, None)
                                 for arg, d in zip(args.kwonlyargs, args.kw_defaults)
                                 if d is not None]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    calls.append((name_of(node.func), path.stem, owner, node))
    bench_imports = set()
    for path in sorted((root / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("confshare"):
                bench_imports.update(alias.name for alias in node.names)

    def callers(module, name):
        return [call for callee, where, owner, call in calls
                if callee == name and (where, owner) != (module, name)]

    def passes(call, parameter, position):
        if any(isinstance(a, ast.Starred) for a in call.args) or \
                any(kw.arg in (None, parameter) for kw in call.keywords):
            return True
        return position is not None and position < len(call.args)

    uncalled = [f"{module}.{name}" for module, name in defined
                if name not in bench_imports and not callers(module, name)]
    assert uncalled == []
    exempt = {("cli", "main", "argv")}
    unpassed = [f"{module}.{name}({parameter})" for module, name, parameter, position in defaults
                if name not in bench_imports and (module, name, parameter) not in exempt
                and not any(passes(call, parameter, position) for call in callers(module, name))]
    assert unpassed == []
    checked = [entry for entry in defaulted if entry[1] not in bench_imports]
    assert checked, "no defaulted dataclass field was checked"
    # a replace call's class is not known from its name, so only a keyword
    # that names the field counts there, and not a ** splat
    unset = [f"{module}.{name}.{attr}" for module, name, attr, position in checked
             if not any(passes(call, attr, position) if callee == name
                        else any(kw.arg == attr for kw in call.keywords)
                        for callee, _, _, call in calls if callee in (name, "replace"))]
    assert unset == []


def test_fingerprint_reports_a_failed_check_on_one_line_and_runs_the_rest(monkeypatch,
                                                                          capsys):
    # importing the script pins the BLAS thread count; keep the caller's value after the test
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    import fingerprint

    def broken():
        raise ValueError("two\nlines")

    monkeypatch.setattr(fingerprint, "CHECKS", {"a": lambda: "1\n\n2\n", "b": broken,
                                                "c": lambda: "3\n"})
    assert fingerprint.main() == 1
    assert capsys.readouterr().out == "a 1\na \na 2\nb failed: ValueError('two\\nlines')\nc 3\n"


def test_fingerprint_fails_an_sl0_gradcheck_that_exits_1_and_keeps_its_text(monkeypatch,
                                                                             capsys):
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    import fingerprint

    def gradcheck(argv):
        print("worst key")
        return 1

    monkeypatch.setattr(fingerprint.cli, "main", gradcheck)
    monkeypatch.setattr(fingerprint, "CHECKS", {name: fingerprint.CHECKS[name]
                                                for name in ("gradcheck_sl0", "gradcheck_lrs3")})
    assert fingerprint.main() == 1
    assert capsys.readouterr().out == (
        "gradcheck_sl0 worst key\ngradcheck_sl0 exit 1\ngradcheck_sl0 failed: exit 1, expected 0\n"
        "gradcheck_lrs3 worst key\ngradcheck_lrs3 exit 1\n")


def test_fingerprint_records_an_argparse_exit_as_an_exit_code(monkeypatch, capsys):
    # a base tree's CLI may lack a flag that a check passes: argparse exits 2
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    import fingerprint

    def unknown_flag(argv):
        raise SystemExit(2)

    monkeypatch.setattr(fingerprint.cli, "main", unknown_flag)
    checks = {"gradcheck_lrs3": fingerprint.CHECKS["gradcheck_lrs3"], "c": lambda: "3\n"}
    monkeypatch.setattr(fingerprint, "CHECKS", checks)
    assert fingerprint.main() == 0
    assert capsys.readouterr().out == "gradcheck_lrs3 exit 2\nc 3\n"
