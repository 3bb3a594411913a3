"""LR schedule, epoch loop, optimizer integration, checkpoint round-trips."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import wavems.training as training_mod
from wavems import ops
from wavems.checkpoint import load_checkpoint, save_checkpoint
from wavems.datasets import fold_split, synth_dataset
from wavems.errors import CheckpointError, ConfigError, NonFiniteLossError
from wavems.model import Model, build_model
from wavems.optim import sgd_step
from wavems.tensor import backward, zero_grads
from wavems.training import TrainConfig, lr_at, train, train_epoch

from conftest import desk_model_config, graph_nodes, tiny_model_config


def micro_corpus(seed=21):
    return synth_dataset(num_classes=3, clips_per_class=12, clip_seconds=0.15,
                         sample_rate=4410, seed=seed)


def micro_train_config(epochs=2, **overrides):
    stages = overrides.pop("lr_stages", ((epochs, 1e-2),) if epochs else ())
    defaults = dict(epochs=epochs, batch_size=8, momentum=0.9, weight_decay=5e-4,
                    lr_stages=stages, seed=5)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestLrSchedule:
    CFG = TrainConfig()

    @pytest.mark.parametrize("epoch,lr", [
        (0, 1e-2), (59, 1e-2), (60, 1e-3), (119, 1e-3),
        (120, 1e-4), (139, 1e-4), (140, 1e-5), (159, 1e-5)])
    def test_staged_values(self, epoch, lr):
        assert lr_at(self.CFG, epoch) == lr

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(self.CFG, 160)
        with pytest.raises(ValueError):
            lr_at(self.CFG, -1)

    def test_non_increasing(self):
        lrs = [lr_at(self.CFG, e) for e in range(160)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_spans_must_sum_to_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=100, lr_stages=((60, 1e-2), (60, 1e-3)))

    def test_defaults_follow_protocol(self):
        cfg = TrainConfig()
        assert cfg.epochs == 160 and cfg.batch_size == 64
        assert cfg.momentum == 0.9 and cfg.weight_decay == 5e-4
        assert cfg.lr_stages == ((60, 1e-2), (60, 1e-3), (20, 1e-4), (20, 1e-5))


class TestTrainEpoch:
    def test_one_crop_per_entry(self, monkeypatch):
        manifest, clips = micro_corpus()
        model = build_model(tiny_model_config(), seed=0)
        crops = []
        real_crop = training_mod.random_crop
        monkeypatch.setattr(training_mod, "random_crop",
                            lambda *a, **k: crops.append(1) or real_crop(*a, **k))
        metrics = train_epoch(model, manifest.entries, clips, 0, micro_train_config(1))
        assert len(crops) == len(manifest.entries)
        assert metrics["n_examples"] == len(manifest.entries)

    def test_batch_count_keeps_partial_batch(self, monkeypatch):
        manifest, clips = micro_corpus()
        entries = manifest.entries[:20]  # batch 8 -> 8, 8, 4
        calls = []
        real_step = training_mod.sgd_step
        monkeypatch.setattr(training_mod, "sgd_step",
                            lambda *a, **k: calls.append(1) or real_step(*a, **k))
        model = build_model(tiny_model_config(), seed=0)
        train_epoch(model, entries, clips, 0, micro_train_config(1))
        assert len(calls) == 3

    def test_each_window_swept_alone(self, monkeypatch):
        """Each window is swept right after its forward: every ``backward``
        call sees one window's graph plus its cross-entropy and ``scale``
        nodes. The batch's loss is one cross-entropy over its stacked
        (B, K) logits, which records nothing."""
        manifest, clips = micro_corpus()
        entries = manifest.entries[:20]  # batch 8 -> 8, 8, 4
        model = build_model(tiny_model_config(), seed=0)
        window = graph_nodes(model.forward(np.zeros(model.config.window_length, np.float32)))
        sizes, losses = [], []
        real_backward, real_loss = training_mod.backward, ops.softmax_cross_entropy

        def loss_spy(logits, labels):
            out = real_loss(logits, labels)
            losses.append((logits.shape, out.requires_grad))
            return out

        monkeypatch.setattr(training_mod, "backward",
                            lambda loss: sizes.append(graph_nodes(loss)) or real_backward(loss))
        monkeypatch.setattr(ops, "softmax_cross_entropy", loss_spy)
        train_epoch(model, entries, clips, 0, micro_train_config(1))
        assert sizes == [window + 2] * 20
        swept = [((3,), True)]
        assert losses == (swept * 8 + [((8, 3), False)]) * 2 + swept * 4 + [((4, 3), False)]

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("deterministic", [False, True], ids=["gemm", "reference"])
    def test_gradients_are_one_batch_sweeps(self, monkeypatch, deterministic, n_workers):
        """The gradients each step applies are, byte for byte, those of one
        sweep of the batch-mean loss over the batch's stacked logits
        (``concat``, ``reshape``, one ``softmax_cross_entropy``), at a batch
        size whose 1/B float32 rounds."""
        manifest, clips = micro_corpus()
        entries = manifest.entries[:20]  # batch 6 -> 6, 6, 6, 2
        model = build_model(tiny_model_config(), seed=3)
        params = model.parameters()
        crops, steps = [], []
        real_crop, real_step = training_mod.random_crop, training_mod.sgd_step

        def crop_spy(*a, **k):
            crops.append(real_crop(*a, **k))
            return crops[-1]

        def step_spy(params, **kw):
            got = [p.value.grad for p in params]
            zero_grads(params)
            logits = ops.reshape(ops.concat([model.forward(c.samples) for c in crops], axis=0),
                                 (len(crops), -1))
            backward(ops.softmax_cross_entropy(logits, [c.label for c in crops]))
            steps.append((got, [p.value.grad for p in params]))
            for p, g in zip(params, got):
                p.value.grad = g
            crops.clear()
            real_step(params, **kw)

        monkeypatch.setattr(training_mod, "random_crop", crop_spy)
        monkeypatch.setattr(training_mod, "sgd_step", step_spy)
        with ops.workers(n_workers):
            train_epoch(model, entries, clips, 0,
                        micro_train_config(1, batch_size=6, deterministic=deterministic))
        assert len(steps) == 4
        for got, want in steps:
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.float32
                assert g.tobytes() == w.tobytes()

    def test_step_memory_does_not_grow_with_the_batch(self, desk_corpus):
        """A desk step's peak at batch 64 is within 10% of its peak at
        batch 8: a step holds one window's graph, not the batch's."""
        manifest, clips = desk_corpus
        entries = fold_split(manifest, 1)[0]
        model = build_model(desk_model_config(), seed=0)
        # untraced, a first step builds the pool plans' tables and fills the
        # interpreter's free lists, which tracemalloc counts as held
        train_epoch(model, entries[:64], clips, 0, TrainConfig(
            epochs=1, batch_size=64, lr_stages=((1, 1e-2),)))
        peaks = {}
        for batch in (8, 64):  # an epoch of one batch each
            config = TrainConfig(epochs=1, batch_size=batch, lr_stages=((1, 1e-2),))
            tracemalloc.start()
            try:
                train_epoch(model, entries[:batch], clips, 0, config)
                peaks[batch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.1 * peaks[8], peaks

    def test_deterministic_metrics(self):
        manifest, clips = micro_corpus()
        cfg = micro_train_config(1)

        def run():
            model = build_model(tiny_model_config(), seed=1)
            return train_epoch(model, manifest.entries, clips, 0, cfg)

        assert run() == run()

    def test_zero_lr_leaves_parameters_unchanged(self):
        manifest, clips = micro_corpus()
        cfg = micro_train_config(1, lr_stages=((1, 0.0),), weight_decay=0.0)
        model = build_model(tiny_model_config(), seed=2)
        before = {n: p.value.data.copy() for n, p in model.named_parameters()}
        train_epoch(model, manifest.entries, clips, 0, cfg)
        for n, p in model.named_parameters():
            assert np.array_equal(before[n], p.value.data)

    def test_empty_training_set(self):
        _, clips = micro_corpus()
        model = build_model(tiny_model_config(), seed=0)
        with pytest.raises(ValueError):
            train_epoch(model, [], clips, 0, micro_train_config(1))

    @pytest.mark.parametrize("seed", range(10))
    def test_loss_decreases_after_small_step(self, seed):
        cfg = tiny_model_config()
        model = build_model(cfg, seed=seed)
        rng = np.random.default_rng(500 + seed)
        waves = [rng.uniform(-1, 1, cfg.window_length).astype(np.float32) for _ in range(4)]
        labels = [int(rng.integers(0, cfg.num_classes)) for _ in range(4)]

        def batch_loss():
            losses = [ops.softmax_cross_entropy(model.forward(w), l)
                      for w, l in zip(waves, labels)]
            total = losses[0]
            for extra in losses[1:]:
                total = ops.add(total, extra)
            return ops.scale(total, 1.0 / len(losses))

        params = model.parameters()
        zero_grads(params)
        loss0 = batch_loss()
        backward(loss0)
        sgd_step(params, lr=1e-4, momentum=0.0, weight_decay=0.0)
        assert batch_loss().item() < loss0.item()


class TestTrain:
    def test_zero_epochs_checkpoints_initial_model(self, desk_corpus):
        manifest, clips = desk_corpus
        cfg = tiny_model_config(num_classes=5, sample_rate=4410)
        tc = micro_train_config(0)
        ckpt = train(cfg, tc, manifest, test_fold=1, clips=clips)
        assert ckpt.epoch == 0 and ckpt.metrics_history == []
        init = build_model(cfg, seed=tc.seed)
        for name, p in init.named_parameters():
            assert np.array_equal(ckpt.parameters[name], p.value.data)

    def test_history_row_per_epoch(self):
        manifest, clips = micro_corpus()
        ckpt = train(tiny_model_config(), micro_train_config(2), manifest,
                     test_fold=1, clips=clips)
        assert [m["epoch"] for m in ckpt.metrics_history] == [0, 1]

    def test_entry_order_invariance(self):
        manifest, clips = micro_corpus()
        cfg = tiny_model_config()
        tc = micro_train_config(2, weight_decay=0.0)
        c1 = train(cfg, tc, manifest, test_fold=1, clips=clips)
        shuffled = list(manifest.entries)
        np.random.default_rng(0).shuffle(shuffled)
        manifest2 = type(manifest)(shuffled, manifest.num_classes, manifest.num_folds)
        c2 = train(cfg, tc, manifest2, test_fold=1, clips=clips)
        for name in c1.parameters:
            assert np.array_equal(c1.parameters[name], c2.parameters[name])

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        manifest, clips = micro_corpus()
        cfg = tiny_model_config()
        tc = micro_train_config(2)
        train(cfg, tc, manifest, 1, clips=clips, out_path=tmp_path / "a.ckpt")
        train(cfg, tc, manifest, 1, clips=clips, out_path=tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_checkpoint_every_writes_snapshots(self, tmp_path, monkeypatch):
        manifest, clips = micro_corpus()
        writes = []
        real_save = training_mod.save_checkpoint
        monkeypatch.setattr(training_mod, "save_checkpoint",
                            lambda ck, path: writes.append(ck.epoch) or real_save(ck, path))
        train(tiny_model_config(), micro_train_config(4, lr_stages=((4, 1e-2),)),
              manifest, 1, clips=clips, out_path=tmp_path / "m.ckpt",
              checkpoint_every=2)
        assert writes == [2, 4]  # mid-run snapshot plus the final write

    def test_resume_matches_uninterrupted(self, tmp_path):
        manifest, clips = micro_corpus()
        cfg = tiny_model_config()
        tc = micro_train_config(4, lr_stages=((4, 1e-2),))
        train(cfg, tc, manifest, 1, clips=clips, out_path=tmp_path / "full.ckpt")
        # stop after two epochs, then continue under the 4-epoch protocol
        tc2 = TrainConfig(**{**tc.to_dict(), "epochs": 2, "lr_stages": ((2, 1e-2),)})
        halfway = train(cfg, tc2, manifest, 1, clips=clips)
        train(cfg, tc, manifest, 1, clips=clips, resume_from=halfway,
              out_path=tmp_path / "resumed.ckpt")
        assert (tmp_path / "resumed.ckpt").read_bytes() == \
            (tmp_path / "full.ckpt").read_bytes()


class TestCheckpointFormat:
    def _checkpoint(self):
        manifest, clips = micro_corpus()
        return train(tiny_model_config(), micro_train_config(1), manifest,
                     test_fold=1, clips=clips)

    def test_round_trip_identity(self, tmp_path):
        ckpt = self._checkpoint()
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.epoch == ckpt.epoch
        assert loaded.model_config == ckpt.model_config
        assert loaded.train_config == ckpt.train_config
        assert loaded.rng_state == ckpt.rng_state
        assert loaded.metrics_history == ckpt.metrics_history
        for name in ckpt.parameters:
            assert np.array_equal(loaded.parameters[name], ckpt.parameters[name])
            assert np.array_equal(loaded.velocities[name], ckpt.velocities[name])

    def test_corrupted_magic(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_mid_array_names_it(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        data = path.read_bytes()
        # cut inside the very first parameter array
        import json
        import struct
        (hlen,) = struct.unpack_from("<Q", data, 8)
        first = json.loads(data[16:16 + hlen].decode())["params"][0][0]
        path.write_bytes(data[:16 + hlen + 7])
        with pytest.raises(CheckpointError, match=first.replace(".", r"\.")):
            load_checkpoint(path)

    def test_truncated_in_last_velocity_names_it(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        data = path.read_bytes()
        last = list(ckpt.parameters)[-1]
        path.write_bytes(data[:-8 * len(ckpt.rng_state) - 1])  # one byte short
        with pytest.raises(CheckpointError, match=re.escape(f"'{last} (velocity)'")):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_restore_model_round_trips_parameters(self):
        ckpt = self._checkpoint()
        model = ckpt.restore_model()
        for name, p in model.named_parameters():
            assert np.array_equal(p.value.data, ckpt.parameters[name])
            assert np.array_equal(p.velocity, ckpt.velocities[name])

    def test_tampered_shape_table_rejected(self, tmp_path):
        import json
        import struct
        ckpt = self._checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        data = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", data, 8)
        header = json.loads(data[16:16 + hlen].decode())
        header["params"][0][1][0] += 1  # grow the first parameter's extent
        blob = json.dumps(header).encode()
        path.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen:])
        with pytest.raises(CheckpointError, match="table"):
            load_checkpoint(path)

    def test_unwritable_path_reports_it(self, tmp_path):
        ckpt = self._checkpoint()
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        with pytest.raises(CheckpointError, match="not_a_dir"):
            save_checkpoint(ckpt, blocker / "m.ckpt")

    @pytest.mark.parametrize("fail_at", ["write", "fsync"])
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, fail_at):
        import errno
        import resource
        import signal

        import wavems.checkpoint as checkpoint_mod

        ckpt = self._checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        before = path.read_bytes()
        newer = dataclasses.replace(ckpt, epoch=ckpt.epoch + 1)

        if fail_at == "write":
            # a file size limit of half a checkpoint: the write stops midway
            # with EFBIG, as on a full disk
            soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
            handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (len(before) // 2, hard))
            try:
                with pytest.raises(CheckpointError, match="m.ckpt"):
                    save_checkpoint(newer, path)
            finally:
                resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
                signal.signal(signal.SIGXFSZ, handler)
        else:
            def failing_fsync(fd):
                raise OSError(errno.EIO, "Input/output error")

            monkeypatch.setattr(checkpoint_mod.os, "fsync", failing_fsync)
            with pytest.raises(CheckpointError, match="m.ckpt"):
                save_checkpoint(newer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_written_file_has_new_file_permissions(self, tmp_path):
        import stat

        ckpt = self._checkpoint()
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        assert (stat.S_IMODE((tmp_path / "m.ckpt").stat().st_mode)
                == stat.S_IMODE(plain.stat().st_mode))

    def test_resume_config_mismatch_rejected(self):
        manifest, clips = micro_corpus()
        ckpt = self._checkpoint()
        other = tiny_model_config(fc_hidden=8)
        with pytest.raises(ConfigError):
            train(other, micro_train_config(2), manifest, 1, clips=clips,
                  resume_from=ckpt)


@pytest.fixture(scope="module")
def halfway():
    """The micro corpus and a checkpoint after 2 epochs at lr 1e-2, seed 5."""
    manifest, clips = micro_corpus()
    return manifest, clips, train(tiny_model_config(), micro_train_config(2),
                                  manifest, 1, clips=clips)


class TestResumeRefusal:
    """Resume only what continues bit-exactly; everything else is a ConfigError."""

    @staticmethod
    def _resume(halfway, ckpt=None, **overrides):
        manifest, clips, done = halfway
        tc = micro_train_config(4, **{"lr_stages": ((4, 1e-2),), **overrides})
        return train(tiny_model_config(), tc, manifest, 1, clips=clips,
                     resume_from=ckpt or done)

    def test_extended_schedule_resumes(self, halfway):
        assert self._resume(halfway).epoch == 4

    @pytest.mark.parametrize("key,value", [
        ("seed", 6), ("batch_size", 4), ("momentum", 0.5), ("weight_decay", 0.0),
        ("deterministic", True)])
    def test_changed_step_setting_refused(self, halfway, key, value):
        with pytest.raises(ConfigError, match=key):
            self._resume(halfway, **{key: value})

    def test_changed_lr_on_completed_epoch_refused(self, halfway):
        with pytest.raises(ConfigError, match="epoch 0"):
            self._resume(halfway, lr_stages=((1, 1e-3), (3, 1e-2)))

    def test_changed_lr_after_checkpoint_allowed(self, halfway):
        ckpt = self._resume(halfway, lr_stages=((2, 1e-2), (2, 1e-3)))
        assert [m["lr"] for m in ckpt.metrics_history] == [1e-2, 1e-2, 1e-3, 1e-3]

    def test_checkpoint_past_requested_epochs_refused(self, halfway):
        manifest, clips, done = halfway
        with pytest.raises(ConfigError, match="2 epochs done"):
            train(tiny_model_config(), micro_train_config(1), manifest, 1, clips=clips,
                  resume_from=done)

    @pytest.mark.parametrize("rng_state", [(5, 1), (6, 2), (5, 2, 0), ()])
    def test_tampered_rng_state_refused(self, halfway, tmp_path, rng_state):
        save_checkpoint(dataclasses.replace(halfway[2], rng_state=rng_state),
                        tmp_path / "half.ckpt")
        with pytest.raises(ConfigError, match="RNG state"):
            self._resume(halfway, load_checkpoint(tmp_path / "half.ckpt"))

    def test_weights_only_checkpoint_refused_before_any_forward(self, halfway, tmp_path,
                                                                 monkeypatch):
        """A checkpoint loaded without its velocities cannot continue the run:
        resume refuses it before the first window's forward."""
        save_checkpoint(halfway[2], tmp_path / "half.ckpt")
        forwards = []
        monkeypatch.setattr(Model, "forward", lambda self, wave: forwards.append(wave))
        with pytest.raises(ConfigError, match="loaded weights-only"):
            self._resume(halfway, load_checkpoint(tmp_path / "half.ckpt", velocities=False))
        assert forwards == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan arithmetic on the way
class TestNonFiniteLoss:
    def test_inf_weight_stops_before_update(self):
        manifest, clips = micro_corpus()
        model = build_model(tiny_model_config(), seed=0)
        model.param("fc2.weight").value.data[0, 0] = np.inf
        before = {n: (p.value.data.copy(), p.velocity.copy())
                  for n, p in model.named_parameters()}
        with pytest.raises(NonFiniteLossError, match="epoch 0, batch 0"):
            train_epoch(model, manifest.entries, clips, 0, micro_train_config(1))
        for n, p in model.named_parameters():
            assert np.array_equal(p.value.data, before[n][0])
            assert np.array_equal(p.velocity, before[n][1])

    def test_names_the_failing_batch(self, monkeypatch):
        manifest, clips = micro_corpus()
        model = build_model(tiny_model_config(), seed=0)
        real_step = training_mod.sgd_step

        def step_then_poison(params, **kw):  # the second batch sees an inf weight
            real_step(params, **kw)
            model.param("fc2.weight").value.data[0, 0] = np.inf

        monkeypatch.setattr(training_mod, "sgd_step", step_then_poison)
        with pytest.raises(NonFiniteLossError, match="epoch 3, batch 1"):
            train_epoch(model, manifest.entries, clips, 3, micro_train_config(4))


class TestRestoreModel:
    def test_copies_stored_state_without_sharing(self):
        manifest, clips = micro_corpus()
        ckpt = train(tiny_model_config(), micro_train_config(1), manifest, 1, clips=clips)
        model = ckpt.restore_model()
        assert model.config == ckpt.model_config and model.precision == "single"
        assert [n for n, _ in model.named_parameters()] == list(ckpt.parameters)
        for name, p in model.named_parameters():
            assert np.array_equal(p.value.data, ckpt.parameters[name])
            assert np.array_equal(p.velocity, ckpt.velocities[name])
            assert p.value.data.dtype == p.velocity.dtype == np.float32
            assert not np.shares_memory(p.value.data, ckpt.parameters[name])
            assert not np.shares_memory(p.velocity, ckpt.velocities[name])
            assert p.value.requires_grad
            assert p.decay_exempt == name.endswith(".bias")

    def test_draws_no_random_weights(self, monkeypatch):
        import wavems.model as model_mod
        manifest, clips = micro_corpus()
        ckpt = train(tiny_model_config(), micro_train_config(1), manifest, 1, clips=clips)
        monkeypatch.setattr(model_mod, "_uniform_fan_in", None)  # any draw would fail
        ckpt.restore_model()
