"""Typed config schema: every config value has its declared type or ends in an exit code.

The field annotations of the config dataclasses are the schema. Bad values
in a run config and bad flag values exit 2; bad values in a checkpoint
header exit 1. Each prints one ``error:`` line and no traceback. The
property tests check that whatever JSON value lands in a config key, the
result is either that error or a config whose every field has exactly its
declared type and that survives a JSON round trip.
"""

import dataclasses
import json
import math
import re
import struct
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavems.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from wavems.cli import RunConfig, UsageError, main, parse_run_config
from wavems.config import Config
from wavems.errors import CheckpointError, ConfigError
from wavems.model import BranchSpec, ModelConfig, build_model
from wavems.training import TrainConfig

from conftest import tiny_model_config

PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(argv) -> int:
    """Exit code of ``wavems argv``, whether main returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, err
    return lines[0]


# --- run config values: exit 2 ------------------------------------------------

BAD_RUN_CONFIGS = {
    "train_batch_size_float": {"train": {"batch_size": 1.5}},
    "train_momentum_string": {"train": {"momentum": "x"}},
    "train_epochs_float": {"train": {"epochs": 1.0, "lr_stages": [[1, 0.01]]}},
    "model_fc_hidden_float": {"model": {"fc_hidden": 4.0}},
    "model_branch_filter_float": {"model": {"branches": [[11.5, 1, 4]]}},
    "eval_hop_string": {"eval": {"hop": "abc"}},
    "eval_hop_float": {"eval": {"hop": 1.5}},
    "eval_hop_zero": {"eval": {"hop": 0}},
    "eval_repeats_string": {"eval": {"repeats": "x"}},
    "eval_repeats_float": {"eval": {"repeats": 1.5}},
    "train_deterministic_string": {"train": {"deterministic": "yes"}},
    "data_resample_string": {"data": {"resample": "no"}},
    "model_sample_rate_float": {"model": {"sample_rate": 2000.5}},
    "train_weight_decay_nan": {"train": {"weight_decay": math.nan}},
    "train_batch_size_bool": {"train": {"batch_size": True}},
    "train_negative_lr_stage_span": {"train": {"epochs": 1,
                                               "lr_stages": [[-5, 0.1], [6, 0.01]]}},
    "train_momentum_negative": {"train": {"momentum": -3}},
    "train_weight_decay_negative": {"train": {"weight_decay": -1}},
}


@pytest.mark.parametrize("doc", BAD_RUN_CONFIGS.values(), ids=BAD_RUN_CONFIGS.keys())
def test_bad_run_config_value_exits_2(tmp_path, capsys, doc):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    # the config is read before the manifest, which therefore need not exist
    rc = _run(["train", "--config", str(config), "--manifest", str(tmp_path / "none.csv"),
               "--fold", "1", "--out", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert "invalid config" in _assert_one_error_line(capsys)
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"train": {"seed": ' + "1" * 5000 + "}}",
], ids=["deeply_nested", "integer_past_digit_limit"])
def test_unparseable_run_config_exits_2(tmp_path, capsys, text):
    config = tmp_path / "run.json"
    config.write_text(text)
    rc = _run(["train", "--config", str(config), "--manifest", str(tmp_path / "none.csv"),
               "--fold", "1", "--out", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert "not valid JSON" in _assert_one_error_line(capsys)


def test_lr_stage_rate_zero_is_accepted():
    assert parse_run_config('{"train": {"epochs": 1, "lr_stages": [[1, 0]]}}') \
        .train.lr_stages == ((1, 0.0),)


def test_float_given_as_integer_is_stored_as_float():
    cfg = parse_run_config('{"train": {"weight_decay": 0, "momentum": 0}}')
    assert type(cfg.train.weight_decay) is float and type(cfg.train.momentum) is float
    text = json.dumps(cfg.train.to_dict())
    assert '"momentum": 0.0' in text and '"weight_decay": 0.0' in text


def test_python_construction_takes_the_same_checks():
    assert tiny_model_config(branches=((7, 1, 4), [11, 2, 4], BranchSpec(15, 3, 4))) \
        == tiny_model_config()
    for bad in (dict(fc_hidden=4.0), dict(window_length=math.inf),
                dict(relu_after_branch_conv=1), dict(level_pool_target=(4,))):
        with pytest.raises(ConfigError):
            ModelConfig(**bad)
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(batch_size=True)


def test_header_key_order_is_field_order():
    assert list(ModelConfig().to_dict()) == [f.name for f in dataclasses.fields(ModelConfig)]
    assert list(TrainConfig().to_dict()) == [f.name for f in dataclasses.fields(TrainConfig)]
    assert ModelConfig().to_dict()["branches"] == [[11, 1, 32], [51, 5, 32], [101, 10, 32]]


# --- flag values: exit 2 --------------------------------------------------------

@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "m.ckpt"
    model = build_model(tiny_model_config(), seed=0)
    tc = TrainConfig(epochs=1, batch_size=8, lr_stages=((1, 0.01),), seed=3)
    save_checkpoint(Checkpoint.from_model(model, tc, 1, [], (3, 1)), path)
    return path


def _flag_cases(tmp: Path, ckpt: Path) -> dict:
    manifest, out = str(tmp / "none.csv"), str(tmp / "out")
    train = ["train", "--manifest", manifest, "--fold", "1", "--out", out]
    synth = ["synth", "--out", out, "--classes", "2", "--seconds", "0.1", "--rate", "4410"]
    return {
        "train_threads_zero": train + ["--threads", "0"],
        "eval_threads_negative": ["eval", "--ckpt", str(ckpt), "--manifest", manifest,
                                  "--fold", "1", "--report", out, "--threads", "-3"],
        "ablate_threads_zero": ["ablate", "--mode", "levels", "--manifest", manifest,
                                "--out", out, "--threads", "0"],
        "checkpoint_every_negative": train + ["--checkpoint-every", "-1"],
        "checkpoint_every_zero": train + ["--checkpoint-every", "0"],
        "synth_folds_zero": synth + ["--clips-per-class", "2", "--folds", "0"],
        "synth_folds_negative": synth + ["--clips-per-class", "2", "--folds", "-2"],
        "synth_clips_per_class_zero": synth + ["--clips-per-class", "0"],
        "ablate_repeats_zero": ["ablate", "--mode", "levels", "--manifest", manifest,
                                "--out", out, "--repeats", "0"],
        "analyze_nfft_zero": ["analyze", "--ckpt", str(ckpt), "--out", out, "--nfft", "0"],
        "analyze_nfft_below_longest_filter": ["analyze", "--ckpt", str(ckpt), "--out", out,
                                              "--nfft", "14"],
        "train_threads_not_a_number": train + ["--threads", "two"],
    }


@pytest.mark.parametrize("case", list(_flag_cases(Path("."), Path("."))))
def test_flag_value_below_one_exits_2(tmp_path, capsys, micro_checkpoint, case):
    argv = _flag_cases(tmp_path, micro_checkpoint)[case]
    assert _run(argv) == 2
    _assert_one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_analyze_nfft_equal_to_longest_filter_runs(tmp_path, micro_checkpoint):
    assert main(["analyze", "--ckpt", str(micro_checkpoint), "--out", str(tmp_path / "a"),
                 "--nfft", "15"]) == 0


# --- checkpoint header values: exit 1 -----------------------------------------

def _replace_in_header(source: Path, dest: Path, old: bytes, new: bytes) -> Path:
    data = source.read_bytes()
    hlen = struct.unpack_from("<Q", data, 8)[0]
    blob = data[16:16 + hlen]
    assert old in blob
    blob = blob.replace(old, new, 1)
    dest.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen:])
    return dest


@pytest.mark.parametrize("old,new", [
    (b'"window_length": 300', b'"window_length": 1e400'),
    (b'"sample_rate": 4410', b'"sample_rate": 2000.5'),
    (b'"deterministic": false', b'"deterministic": "yes"'),
    (b'"momentum": 0.9', b'"momentum": NaN'),
    (b'"epoch": 1', b'"epoch": ' + b"1" * 5000),
    (b'"epoch": 1', b'"epoch": 1.9'),
    (b'"epoch": 1', b'"epoch": true'),
    (b'"rng_words": 2', b'"rng_words": 2.5'),
], ids=["window_length_overflow", "sample_rate_float", "deterministic_string",
        "momentum_nan", "integer_past_digit_limit", "epoch_float", "epoch_bool",
        "rng_words_float"])
def test_bad_header_value_exits_1(tmp_path, capsys, micro_checkpoint, old, new):
    path = _replace_in_header(micro_checkpoint, tmp_path / "bad.ckpt", old, new)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert main(["inspect", "--ckpt", str(path)]) == 1
    assert _assert_one_error_line(capsys).startswith("error:")


def test_header_extents_past_int64_are_checkpoint_error(tmp_path, micro_checkpoint):
    """An fc width of 2**62 in both the config and the table: the byte count is exact."""
    data = micro_checkpoint.read_bytes()
    hlen = struct.unpack_from("<Q", data, 8)[0]
    header = json.loads(data[16:16 + hlen])
    wide = 2 ** 62
    header["model_config"]["fc_hidden"] = wide
    for name, shape in header["params"]:
        if name in ("fc1.weight", "fc1.bias"):
            shape[0] = wide
        elif name == "fc2.weight":
            shape[1] = wide
    blob = json.dumps(header).encode()
    path = tmp_path / "wide.ckpt"
    path.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen:])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


# --- properties -----------------------------------------------------------------

def _assert_typed(value, hint, where="config"):
    """``value`` has exactly the type ``hint`` declares, recursively."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if type(None) in args:
        if value is not None:
            _assert_typed(value, args[0], where)
    elif origin is tuple:
        assert type(value) is tuple, where
        if args[-1:] != (...,):
            assert len(value) == len(args), where
        for i, item in enumerate(value):
            _assert_typed(item, args[0] if args[-1:] == (...,) else args[i], f"{where}[{i}]")
    elif isinstance(hint, type) and issubclass(hint, Config):
        assert type(value) is hint, where
        hints = typing.get_type_hints(hint)
        for f in dataclasses.fields(hint):
            _assert_typed(getattr(value, f.name), hints[f.name], f"{where}.{f.name}")
    else:
        assert type(value) is hint, (where, value)
        if hint is float:
            assert math.isfinite(value), where


def _round_trips(cfg):
    assert type(cfg).from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


RUN_KEYS = RunConfig().to_dict()  # section -> key -> default

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([0, 1, 2, -1, 0.5, 1.0, 4.0, 2 ** 62, 2 ** 64]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=4),
    max_leaves=12)


def _value_for(default):
    """Arbitrary JSON, or the default, or the default with one item replaced."""
    options = [json_values, st.just(default)]
    if isinstance(default, list) and default:
        options.append(st.integers(0, len(default) - 1).flatmap(
            lambda i: json_values.map(lambda v: default[:i] + [v] + default[i + 1:])))
    return st.one_of(options)


run_docs = st.fixed_dictionaries({}, optional={
    section: st.fixed_dictionaries({}, optional={key: _value_for(default)
                                                 for key, default in keys.items()})
    for section, keys in RUN_KEYS.items()})


@given(run_docs)
@PROPERTY
def test_run_config_values_are_typed_or_usage_error(doc):
    try:
        cfg = parse_run_config(json.dumps(doc))
    except UsageError:
        return
    _assert_typed(cfg, RunConfig)
    _round_trips(cfg)


def _header_paths(node, prefix=()):
    """Key paths of every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _header_paths(value, prefix + (key,))


@given(st.data())
@PROPERTY
def test_checkpoint_config_values_are_typed_or_checkpoint_error(micro_checkpoint, tmp_path_factory,
                                                                 data):
    blob = micro_checkpoint.read_bytes()
    hlen = struct.unpack_from("<Q", blob, 8)[0]
    header = json.loads(blob[16:16 + hlen])
    path = data.draw(st.sampled_from(list(_header_paths(header))))
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(json_values)
    new = json.dumps(header).encode()
    case = tmp_path_factory.mktemp("hdr") / "case.ckpt"
    case.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + hlen:])
    try:
        ckpt = load_checkpoint(case)
    except CheckpointError:
        return
    _assert_typed(ckpt.model_config, ModelConfig)
    _assert_typed(ckpt.train_config, TrainConfig)
    _round_trips(ckpt.model_config)
    _round_trips(ckpt.train_config)


# --- documentation ---------------------------------------------------------------

def test_readme_run_config_block_is_the_default():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Run config (JSON)", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert parse_run_config(block) == RunConfig()
