"""Weights-only checkpoint loads (what ``eval``, ``analyze`` and ``inspect``
read), the models restored from them, the mapped arrays and the header
padding that aligns them, and ``save_checkpoint``'s shape checks."""

import dataclasses
import errno
import json
import mmap
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

import wavems.checkpoint as checkpoint_mod
import wavems.cli as cli_mod
from wavems import evaluation
from wavems.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from wavems.cli import main
from wavems.datasets import synth_dataset
from wavems.errors import CheckpointError
from wavems.model import Model, build_model
from wavems.optim import sgd_step
from wavems.training import TrainConfig

from conftest import desk_model_config, tiny_model_config

TRAIN = TrainConfig(epochs=1, batch_size=8, lr_stages=((1, 0.01),), seed=3)


def trained_like(config, seed=0) -> Checkpoint:
    """A checkpoint of a seeded model whose biases and velocities are not zero."""
    model = build_model(config, seed=seed)
    rng = np.random.default_rng(seed)
    for name, p in model.named_parameters():
        if name.endswith(".bias"):
            p.value.data[:] = rng.uniform(-0.05, 0.05, p.value.shape)
        p.velocity[:] = rng.standard_normal(p.value.shape)
    return Checkpoint.from_model(model, TRAIN, 1, [], (3, 1))


@pytest.fixture
def ckpt_path(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(trained_like(tiny_model_config()), path)
    return path


@pytest.fixture
def corpus_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--classes", "3", "--clips-per-class", "4",
                 "--seconds", "0.15", "--seed", "7", "--rate", "4410"]) == 0
    return out


@pytest.fixture(scope="module")
def tiny_corpus():
    return synth_dataset(num_classes=3, clips_per_class=4, clip_seconds=0.15,
                         sample_rate=4410, seed=7)


def eval_outputs(model, corpus, monkeypatch) -> tuple[list[bytes], tuple[str, str, str]]:
    """The logits of every window ``evaluate`` votes over on fold 1 of
    ``corpus``, and its three report files."""
    manifest, clips = corpus
    forward = Model.forward
    logits = []

    def recording_forward(m, wave):
        out = forward(m, wave)
        logits.append(out.data.tobytes())
        return out

    with monkeypatch.context() as patch:
        patch.setattr(Model, "forward", recording_forward)
        report = evaluation.evaluate(model, manifest, 1, clips=clips)
    return logits, (evaluation.eval_report_csv(report), evaluation.confusion_csv(report),
                    evaluation.eval_report_text(report))


def buffer_owner(arr: np.ndarray):
    """The object whose memory ``arr`` views (past every array and
    memoryview in between), or None if ``arr`` owns its data."""
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


def arrays_of(ckpt: Checkpoint) -> dict:
    """The parameters, then the velocities if loaded, keyed (kind, name)."""
    return {**{("parameter", name): a for name, a in ckpt.parameters.items()},
            **{("velocity", name): a for name, a in (ckpt.velocities or {}).items()}}


def header_blob(data: bytes) -> bytes:
    (hlen,) = struct.unpack_from("<Q", data, 8)
    return data[16:16 + hlen]


def both_loads(path) -> list:
    """The outcome of the full and the weights-only load of ``path``: a
    Checkpoint, or the message of the CheckpointError raised."""
    outcomes = []
    for velocities in (True, False):
        try:
            outcomes.append(load_checkpoint(path, velocities=velocities))
        except CheckpointError as exc:
            outcomes.append(str(exc))
    return outcomes


def truncated_in_last_velocity(data: bytes) -> bytes:
    return data[:-8 * 2 - 1]  # two RNG words, then one byte of the last velocity


def bytes_after_rng_words(data: bytes) -> bytes:
    return data + b"\0" * 8


class TestWeightsOnlyLoad:
    def test_reads_everything_but_the_velocities(self, ckpt_path):
        full, weights = both_loads(ckpt_path)
        assert weights.velocities is None
        for attr in ("model_config", "train_config", "epoch", "rng_state", "metrics_history"):
            assert getattr(weights, attr) == getattr(full, attr)
        assert list(weights.parameters) == list(full.parameters)
        for name, arr in full.parameters.items():
            assert weights.parameters[name].tobytes() == arr.tobytes()

    def test_evaluate_is_byte_identical_to_full_restore(self, ckpt_path, tiny_corpus,
                                                        monkeypatch):
        full, weights = (eval_outputs(load_checkpoint(ckpt_path, velocities=velocities)
                                      .restore_model(), tiny_corpus, monkeypatch)
                         for velocities in (True, False))
        assert len(full[0]) > len(tiny_corpus[0].entries) // 4  # several windows per clip
        assert weights == full

    @pytest.mark.parametrize("damage, message", [
        (truncated_in_last_velocity, r"mid-array 'fc2\.bias \(velocity\)'"),
        (bytes_after_rng_words,
         r"^24 bytes follow the arrays, but the header declares 2 RNG words"),
    ], ids=["truncated_in_last_velocity", "bytes_after_rng_words"])
    def test_both_loads_refuse_damaged_file_alike(self, ckpt_path, damage, message):
        ckpt_path.write_bytes(damage(ckpt_path.read_bytes()))
        full, weights = both_loads(ckpt_path)
        assert isinstance(full, str) and re.search(message, full)
        assert weights == full

    @pytest.mark.parametrize("damage", [truncated_in_last_velocity, bytes_after_rng_words],
                             ids=["truncated_in_last_velocity", "bytes_after_rng_words"])
    def test_eval_on_damaged_file_exits_1(self, ckpt_path, corpus_dir, tmp_path, capsys,
                                          damage):
        ckpt_path.write_bytes(damage(ckpt_path.read_bytes()))
        rc = main(["eval", "--ckpt", str(ckpt_path),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "1", "--report", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "r").exists()


class TestWeightsOnlyModel:
    def test_shares_the_parameter_arrays(self, ckpt_path):
        ckpt = load_checkpoint(ckpt_path, velocities=False)
        model = ckpt.restore_model()
        assert model.config == ckpt.model_config and model.precision == "single"
        assert [n for n, _ in model.named_parameters()] == list(ckpt.parameters)
        for name, p in model.named_parameters():
            assert np.shares_memory(p.value.data, ckpt.parameters[name])
            assert p.value.data.dtype == np.float32
            assert p.value.requires_grad
            assert p.decay_exempt == name.endswith(".bias")

    def test_velocities_are_read_only_zeros(self, ckpt_path):
        model = load_checkpoint(ckpt_path, velocities=False).restore_model()
        for _, p in model.named_parameters():
            assert p.velocity.shape == p.value.shape and p.velocity.dtype == np.float32
            assert not p.velocity.flags.writeable
            assert not np.any(p.velocity)
            assert not any(p.velocity.strides)  # one shared zero: nothing allocated

    def test_sgd_step_raises_and_leaves_weights(self, ckpt_path):
        model = load_checkpoint(ckpt_path, velocities=False).restore_model()
        params = [p for _, p in model.named_parameters()]
        before = [p.value.data.copy() for p in params]
        for p in params:
            p.value.grad = np.ones_like(p.value.data)
        with pytest.raises(ValueError, match="read-only"):
            sgd_step(params, lr=0.01, momentum=0.9, weight_decay=5e-4)
        for p, old in zip(params, before):
            assert np.array_equal(p.value.data, old)

    def test_from_model_writes_zero_velocities(self, ckpt_path, tmp_path):
        full = load_checkpoint(ckpt_path)
        model = load_checkpoint(ckpt_path, velocities=False).restore_model()
        again = tmp_path / "again.ckpt"
        save_checkpoint(Checkpoint.from_model(model, full.train_config, full.epoch,
                                              full.metrics_history, full.rng_state), again)
        zeroed = tmp_path / "zeroed.ckpt"
        save_checkpoint(dataclasses.replace(full, velocities={
            name: np.zeros_like(v) for name, v in full.velocities.items()}), zeroed)
        assert again.read_bytes() == zeroed.read_bytes()
        loaded = load_checkpoint(again)
        for name, arr in full.parameters.items():
            assert loaded.parameters[name].tobytes() == arr.tobytes()
            assert not np.any(loaded.velocities[name])

    def test_weights_only_checkpoint_is_not_saved(self, ckpt_path, tmp_path):
        ckpt = load_checkpoint(ckpt_path, velocities=False)
        with pytest.raises(CheckpointError, match="weights-only"):
            save_checkpoint(ckpt, tmp_path / "out.ckpt")
        assert not (tmp_path / "out.ckpt").exists()

    def test_peak_memory_is_one_copy_of_the_parameters(self, tmp_path):
        """The one copy of the weights is the mapped file in the page cache:
        a weights-only load and restore allocate under 1 MiB for over 3 MiB
        of parameters. A full restore copies parameters and velocities."""
        path = tmp_path / "big.ckpt"
        save_checkpoint(trained_like(tiny_model_config(fc_hidden=8192)), path)
        peaks = {}
        for velocities in (True, False):
            tracemalloc.start()
            try:
                ckpt = load_checkpoint(path, velocities=velocities)
                model = ckpt.restore_model()
                peaks[velocities] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            param_bytes = sum(p.value.data.nbytes for _, p in model.named_parameters())
            del ckpt, model
        assert param_bytes > 3 * 2 ** 20
        assert peaks[False] < 2 ** 20
        assert peaks[True] >= 2 * param_bytes  # the guard sees restore's copies

    @pytest.mark.parametrize("command", ["eval", "analyze", "inspect"])
    def test_cli_commands_load_weights_only(self, command, ckpt_path, corpus_dir,
                                            tmp_path, monkeypatch):
        loaded, restored = [], []
        load, restore = cli_mod.load_checkpoint, Checkpoint.restore_model

        def recording_load(*args, **kwargs):
            ckpt = load(*args, **kwargs)
            loaded.append(ckpt.velocities)
            return ckpt

        def recording_restore(ckpt):
            restored.append(ckpt.velocities)
            return restore(ckpt)

        monkeypatch.setattr(cli_mod, "load_checkpoint", recording_load)
        monkeypatch.setattr(Checkpoint, "restore_model", recording_restore)
        args = {"eval": ["--manifest", str(corpus_dir / "manifest.csv"), "--fold", "1",
                         "--report", str(tmp_path / "r")],
                "analyze": ["--out", str(tmp_path / "a")],
                "inspect": []}[command]
        assert main([command, "--ckpt", str(ckpt_path)] + args) == 0
        assert loaded == [None]
        assert restored == ([] if command == "inspect" else [None])


class TestSaveChecksShapes:
    @pytest.mark.parametrize("kind", ["parameters", "velocities"])
    def test_wrong_shape_refused_before_any_write(self, ckpt_path, kind):
        before = ckpt_path.read_bytes()
        ckpt = load_checkpoint(ckpt_path)
        name = list(getattr(ckpt, kind))[-1]
        getattr(ckpt, kind)[name] = getattr(ckpt, kind)[name][:-1]  # one element short
        singular = {"parameters": "parameter", "velocities": "velocity"}[kind]
        with pytest.raises(CheckpointError, match=rf"{singular} '{re.escape(name)}' has shape"):
            save_checkpoint(ckpt, ckpt_path)
        assert ckpt_path.read_bytes() == before
        assert [p.name for p in ckpt_path.parent.iterdir()] == [ckpt_path.name]


def test_weights_only_load_skips_velocity_bytes(ckpt_path, monkeypatch):
    """Past the 16-byte prefix, both loads read the header and the RNG words
    and no array byte: every array is a read-only view of one map of the
    file, so a weights-only load reads no velocity byte either."""
    hlen = len(header_blob(ckpt_path.read_bytes()))
    read_into = checkpoint_mod._read_into
    sizes = []

    def recording_read_into(f, buf):
        sizes.append(memoryview(buf).nbytes)
        return read_into(f, buf)

    monkeypatch.setattr(checkpoint_mod, "_read_into", recording_read_into)
    for velocities in (True, False):
        sizes.clear()
        ckpt = load_checkpoint(ckpt_path, velocities=velocities)
        assert sizes == [hlen, 8 * len(ckpt.rng_state)]
        arrays = list(arrays_of(ckpt).values())
        assert len(arrays) == (2 if velocities else 1) * len(ckpt.parameters)
        assert not any(a.flags.writeable for a in arrays)
        owners = {id(buffer_owner(a)) for a in arrays}
        assert len(owners) == 1 and isinstance(buffer_owner(arrays[0]), mmap.mmap)


def unpadded(data: bytes, misalign: int) -> bytes:
    """``data`` as a writer without the header padding could have written
    it: the bare JSON, then the fewest spaces (0-3) that put the first array
    ``misalign`` bytes past a multiple of 4."""
    padded = header_blob(data)
    blob = padded.rstrip(b" ")
    blob += b" " * ((misalign - 16 - len(blob)) % 4)
    return data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + len(padded):]


class TestMappedArrays:
    @pytest.mark.parametrize("history_len", range(8))
    @pytest.mark.parametrize("make_config", [tiny_model_config, desk_model_config])
    def test_arrays_start_at_a_multiple_of_64(self, tmp_path, make_config, history_len):
        """Headers of sixteen lengths come out padded with spaces to the
        next multiple of 64; each parses to the unpadded JSON's dict."""
        ckpt = trained_like(make_config())
        ckpt.metrics_history = [{"epoch": i, "loss": 1.0 / 3 ** i} for i in range(history_len)]
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        blob = header_blob((tmp_path / "m.ckpt").read_bytes())
        bare = blob.rstrip(b" ")
        assert (16 + len(blob)) % checkpoint_mod.ALIGN == 0
        assert len(blob) - len(bare) < checkpoint_mod.ALIGN
        assert json.dumps(json.loads(bare)).encode() == bare  # the unpadded writer's JSON
        assert json.loads(blob) == json.loads(bare)
        assert json.loads(blob)["metrics_history"] == ckpt.metrics_history

    @pytest.mark.parametrize("misalign", [1, 2, 3])
    def test_unpadded_file_loads_aligned_copies(self, ckpt_path, tmp_path, tiny_corpus,
                                                monkeypatch, misalign):
        old = tmp_path / "old.ckpt"
        old.write_bytes(unpadded(ckpt_path.read_bytes(), misalign))
        assert (16 + len(header_blob(old.read_bytes()))) % 4 == misalign
        for velocities in (True, False):
            new, loaded = (load_checkpoint(path, velocities=velocities)
                           for path in (ckpt_path, old))
            want, got = arrays_of(new), arrays_of(loaded)
            assert list(got) == list(want)
            for key, arr in want.items():
                assert got[key].tobytes() == arr.tobytes()
                assert got[key].flags.aligned and got[key].dtype == np.float32
                assert buffer_owner(got[key]) is None  # a copy, not a view
        assert (eval_outputs(load_checkpoint(old, velocities=False).restore_model(),
                             tiny_corpus, monkeypatch)
                == eval_outputs(load_checkpoint(ckpt_path, velocities=False).restore_model(),
                                tiny_corpus, monkeypatch))

    def test_saving_over_a_mapped_file_leaves_the_model(self, ckpt_path, tiny_corpus,
                                                        monkeypatch):
        """``save_checkpoint`` renames a new file over the old one, so a
        model that maps the old one keeps its weights and its logits."""
        model = load_checkpoint(ckpt_path, velocities=False).restore_model()
        weights = {name: p.value.data.tobytes() for name, p in model.named_parameters()}
        before = eval_outputs(model, tiny_corpus, monkeypatch)
        save_checkpoint(trained_like(tiny_model_config(), seed=1), ckpt_path)
        saved = load_checkpoint(ckpt_path, velocities=False).parameters
        assert all(saved[name].tobytes() != data for name, data in weights.items()
                   if name.endswith(".weight"))
        assert {name: p.value.data.tobytes() for name, p in model.named_parameters()} == weights
        assert eval_outputs(model, tiny_corpus, monkeypatch) == before

    @pytest.mark.parametrize("error", [OSError(errno.ENOMEM, "Cannot allocate memory"),
                                       ValueError("mmap length is greater than file size")],
                             ids=["os_error", "value_error"])
    def test_map_failure_is_checkpoint_error(self, ckpt_path, corpus_dir, tmp_path, capsys,
                                             monkeypatch, error):
        def failing_mmap(*args, **kwargs):
            raise error

        monkeypatch.setattr(checkpoint_mod.mmap, "mmap", failing_mmap)
        full, weights = both_loads(ckpt_path)
        assert full == weights == f"cannot map checkpoint {ckpt_path}: {error}"
        rc = main(["eval", "--ckpt", str(ckpt_path),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "1", "--report", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "r").exists()

    def test_file_shrunk_after_the_size_checks_is_checkpoint_error(self, ckpt_path,
                                                                   monkeypatch):
        """The file is cut while its header is read, after its size was
        taken: mapping the checked size fails, and no array is read."""
        read_into = checkpoint_mod._read_into

        def cutting_read_into(f, buf):
            os.truncate(ckpt_path, 16 + len(buf))  # the header stays whole
            return read_into(f, buf)

        monkeypatch.setattr(checkpoint_mod, "_read_into", cutting_read_into)
        with pytest.raises(CheckpointError, match="^cannot map checkpoint "):
            load_checkpoint(ckpt_path, velocities=False)
