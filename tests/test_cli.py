"""Command-line surface: workflows, exit codes, config validation."""

import json

import numpy as np
import pytest

from wavems import cli
from wavems.audio import make_clip_loader
from wavems.checkpoint import load_checkpoint, save_checkpoint
from wavems.cli import main, parse_run_config, UsageError
from wavems.datasets import load_manifest
from wavems.model import ModelConfig
from wavems.training import TrainConfig

from conftest import tiny_model_config, traced


MICRO_MODEL = {
    "branches": [[7, 1, 4], [11, 2, 4], [15, 3, 4]],
    "frontend_time_bins": 20,
    "conv_channels": [4, 8, 8, 8],
    "level_pool_windows": [[2, 2], [2, 2], [1, 2], [1, 1]],
    "level_pool_target": [2, 2],
    "last_n_levels": 4,
    "fc_hidden": 16,
    "num_classes": 3,
    "window_length": 300,
    "sample_rate": 4410,
}
MICRO_TRAIN = {"epochs": 1, "batch_size": 8, "lr_stages": [[1, 0.01]], "seed": 3}


@pytest.fixture
def corpus_dir(tmp_path):
    out = tmp_path / "data"
    rc = main(["synth", "--out", str(out), "--classes", "3", "--clips-per-class", "4",
               "--seconds", "0.15", "--seed", "7", "--rate", "4410"])
    assert rc == 0
    return out


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": MICRO_MODEL, "train": MICRO_TRAIN}))
    return path


class TestSynth:
    def test_writes_wavs_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = main(["synth", "--out", str(out), "--classes", "5", "--clips-per-class", "4",
                   "--seconds", "0.1", "--seed", "0", "--rate", "4410"])
        assert rc == 0
        wavs = list(out.glob("*.wav"))
        assert len(wavs) == 20
        assert (out / "manifest.csv").exists()
        assert "20 clips" in capsys.readouterr().out

    def test_same_seed_identical_bytes(self, tmp_path):
        for d in ("a", "b"):
            main(["synth", "--out", str(tmp_path / d), "--classes", "2",
                  "--clips-per-class", "2", "--seconds", "0.1", "--seed", "5",
                  "--rate", "4410"])
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_class_cap_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--classes", "17",
                   "--clips-per-class", "1"])
        assert rc == 2
        assert "classes" in capsys.readouterr().err

    def test_nyquist_violation_is_usage_error(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--classes", "10",
                   "--clips-per-class", "1", "--rate", "4410"])
        assert rc == 2


class TestTrain:
    def test_streams_epoch_csv_and_writes_checkpoint(self, corpus_dir, config_file,
                                                     tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        rc = main(["train", "--config", str(config_file),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "1", "--out", str(ckpt)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "epoch,lr,loss,train_acc"
        assert out[1].startswith("0,0.01,")
        assert ckpt.exists()
        loaded = load_checkpoint(ckpt)
        assert loaded.epoch == 1

    def test_unknown_fold_exits_2(self, corpus_dir, config_file, tmp_path, capsys):
        rc = main(["train", "--config", str(config_file),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "9", "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert "fold" in capsys.readouterr().err

    def test_deterministic_reruns_identical(self, corpus_dir, config_file, tmp_path):
        paths = []
        for name in ("a.ckpt", "b.ckpt"):
            p = tmp_path / name
            rc = main(["train", "--config", str(config_file),
                       "--manifest", str(corpus_dir / "manifest.csv"),
                       "--fold", "1", "--out", str(p), "--deterministic"])
            assert rc == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_manifest_exits_1(self, config_file, tmp_path):
        rc = main(["train", "--config", str(config_file),
                   "--manifest", str(tmp_path / "nope.csv"),
                   "--fold", "1", "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1

    def test_bad_config_key_exits_2(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"batchsize": 8}}))
        rc = main(["train", "--config", str(bad),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "1", "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert "train.batchsize" in capsys.readouterr().err


class TestEvalAnalyzeInspect:
    @pytest.fixture
    def trained_ckpt(self, corpus_dir, config_file, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config_file),
                     "--manifest", str(corpus_dir / "manifest.csv"),
                     "--fold", "1", "--out", str(ckpt)]) == 0
        return ckpt

    def test_eval_writes_report(self, trained_ckpt, corpus_dir, tmp_path, capsys):
        report = tmp_path / "report"
        rc = main(["eval", "--ckpt", str(trained_ckpt),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "1", "--report", str(report)])
        assert rc == 0
        assert (report / "eval_report.csv").exists()
        assert (report / "confusion.csv").exists()
        assert (report / "eval_report.txt").exists()
        assert capsys.readouterr().out.startswith("accuracy,")

    def test_eval_bad_checkpoint_exits_1(self, corpus_dir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        rc = main(["eval", "--ckpt", str(bad),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "1", "--report", str(tmp_path / "r")])
        assert rc == 1

    def test_analyze_two_files_per_branch(self, trained_ckpt, tmp_path):
        out = tmp_path / "responses"
        rc = main(["analyze", "--ckpt", str(trained_ckpt), "--out", str(out)])
        assert rc == 0
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 6
        assert files == ["branch1_response.csv", "branch1_response.pgm",
                         "branch2_response.csv", "branch2_response.pgm",
                         "branch3_response.csv", "branch3_response.pgm"]

    def test_analyze_rerun_byte_identical(self, trained_ckpt, tmp_path):
        for d in ("r1", "r2"):
            assert main(["analyze", "--ckpt", str(trained_ckpt),
                         "--out", str(tmp_path / d)]) == 0
        for f in sorted((tmp_path / "r1").iterdir()):
            assert f.read_bytes() == (tmp_path / "r2" / f.name).read_bytes()

    def test_eval_rerun_byte_identical(self, trained_ckpt, corpus_dir, tmp_path):
        for d in ("e1", "e2"):
            assert main(["eval", "--ckpt", str(trained_ckpt),
                         "--manifest", str(corpus_dir / "manifest.csv"),
                         "--fold", "1", "--report", str(tmp_path / d)]) == 0
        for f in sorted((tmp_path / "e1").iterdir()):
            assert f.read_bytes() == (tmp_path / "e2" / f.name).read_bytes()

    def test_inspect_reports_fc_dim(self, tmp_path, capsys):
        # fresh full-scale checkpoint: fc input is 14080 with all four levels stacked
        from wavems.checkpoint import Checkpoint
        from wavems.model import build_model

        model = build_model(ModelConfig(), seed=0)
        ckpt = Checkpoint.from_model(model, TrainConfig(), 0, [], (0, 0))
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(ckpt, path)
        assert main(["inspect", "--ckpt", str(path)]) == 0
        out = capsys.readouterr().out
        assert "14080" in out
        assert "8209490" in out  # parameter count
        assert "branch1.conv.weight" in out


class TestAblateCli:
    def test_levels_mode_emits_four_variants(self, corpus_dir, config_file,
                                             tmp_path, capsys):
        out = tmp_path / "ablation"
        rc = main(["ablate", "--mode", "levels", "--config", str(config_file),
                   "--manifest", str(corpus_dir / "manifest.csv"), "--out", str(out)])
        assert rc == 0
        text = (out / "ablation_levels.csv").read_text()
        summary = [l for l in text.splitlines()[1:] if l.split(",")[7]]
        assert len(summary) == 4

    def test_bad_mode_is_argparse_error(self, corpus_dir, config_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--mode", "nonsense", "--config", str(config_file),
                  "--manifest", str(corpus_dir / "manifest.csv"),
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestRunConfig:
    def test_defaults_reproduce_protocol(self):
        cfg = parse_run_config("{}")
        assert cfg.train == TrainConfig()
        assert cfg.model == ModelConfig()

    def test_unknown_section_rejected(self):
        with pytest.raises(UsageError, match="unknown config section"):
            parse_run_config('{"optimizer": {}}')

    def test_unknown_key_names_path(self):
        with pytest.raises(UsageError, match="train.batchsize"):
            parse_run_config('{"train": {"batchsize": 8}}')

    def test_partial_train_section_merges_defaults(self):
        cfg = parse_run_config('{"train": {"seed": 9}}')
        assert cfg.train.seed == 9
        assert cfg.train.epochs == 160

    def test_model_section_round_trip(self):
        tiny = tiny_model_config()
        cfg = parse_run_config(json.dumps({"model": tiny.to_dict()}))
        assert cfg.model == tiny

    def test_invalid_model_values_rejected(self):
        with pytest.raises(UsageError, match="invalid config"):
            parse_run_config('{"model": {"last_n_levels": 9}}')

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("synth", "train", "eval", "ablate", "analyze", "inspect"):
            assert cmd in out

    @pytest.mark.parametrize("cmd,flags", [
        ("synth", ["--out", "--classes", "--clips-per-class", "--seconds",
                   "--seed", "--rate", "--folds"]),
        ("train", ["--config", "--manifest", "--fold", "--out", "--deterministic",
                   "--checkpoint-every", "--threads"]),
        ("eval", ["--ckpt", "--manifest", "--fold", "--report", "--config", "--threads"]),
        ("ablate", ["--mode", "--config", "--manifest", "--out", "--repeats", "--threads"]),
        ("analyze", ["--ckpt", "--out", "--nfft"]),
        ("inspect", ["--ckpt"]),
    ])
    def test_help_lists_every_flag(self, cmd, flags, capsys):
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out

    def test_threads_help_is_one_text(self, capsys):
        """``train``, ``eval`` and ``ablate`` show one ``--threads`` text."""
        texts = []
        for cmd in ("train", "eval", "ablate"):
            with pytest.raises(SystemExit):
                main([cmd, "--help"])
            out = capsys.readouterr().out
            entry = out[out.index("  --threads THREADS"):].split("\n  -")[0]
            texts.append(" ".join(entry.split()))
        assert "convolution forward" in texts[0] and texts[1] == texts[0] == texts[2]


class TestBadInputExitCodes:
    @staticmethod
    def _checkpoint(tmp_path, **overrides):
        from wavems.checkpoint import Checkpoint
        from wavems.model import build_model

        model = build_model(ModelConfig.from_dict({**MICRO_MODEL, **overrides}), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint.from_model(
            model, TrainConfig.from_dict(MICRO_TRAIN), 0, [], (0, 0)), path)
        return path

    @staticmethod
    def _assert_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("edit,needle", [
        (lambda header: header.pop("model_config"), "model_config"),
        (lambda header: header.update(rng_words=-1), "RNG words"),
    ], ids=["no_model_config", "negative_rng_words"])
    def test_bad_header_exits_1(self, tmp_path, capsys, edit, needle):
        path = self._checkpoint(tmp_path)
        data = path.read_bytes()
        hlen = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16:16 + hlen])
        edit(header)
        blob = json.dumps(header).encode()
        path.write_bytes(data[:8] + len(blob).to_bytes(8, "little") + blob
                         + data[16 + hlen:])
        assert main(["inspect", "--ckpt", str(path)]) == 1
        assert needle in self._assert_error_line(capsys)

    def test_trailing_bytes_exit_1(self, tmp_path, capsys):
        path = self._checkpoint(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        assert main(["inspect", "--ckpt", str(path)]) == 1
        assert "RNG words" in self._assert_error_line(capsys)

    @pytest.mark.parametrize("seconds", ["inf", "nan", "1e-9"])
    def test_synth_unusable_seconds_exit_2(self, tmp_path, capsys, seconds):
        rc = main(["synth", "--out", str(tmp_path / "data"), "--classes", "2",
                   "--clips-per-class", "1", "--seconds", seconds, "--rate", "4410"])
        assert rc == 2
        err = self._assert_error_line(capsys)
        assert "at least one sample" in err and len(err.splitlines()) == 1

    def test_eval_class_count_mismatch_exits_2(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path, num_classes=3)
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--classes", "2",
                     "--clips-per-class", "3", "--seconds", "0.15", "--seed", "7",
                     "--rate", "4410"]) == 0
        capsys.readouterr()
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", str(data / "manifest.csv"),
                   "--fold", "1", "--report", str(tmp_path / "r")])
        assert rc == 2
        err = self._assert_error_line(capsys)
        assert "3 classes" in err and "has 2" in err
        assert not (tmp_path / "r").exists()


class TestRobustnessExitCodes:
    def _edit_header(self, tmp_path, edit_blob):
        path = TestBadInputExitCodes._checkpoint(tmp_path)
        data = path.read_bytes()
        hlen = int.from_bytes(data[8:16], "little")
        blob = edit_blob(data[16:16 + hlen])
        path.write_bytes(data[:8] + len(blob).to_bytes(8, "little") + blob
                         + data[16 + hlen:])
        return path

    @pytest.mark.parametrize("edit_blob", [
        lambda blob: blob.replace(b'"epoch": 0', b'"epoch": 1e400'),
        lambda blob: blob.replace(b'"rng_words": 2', b'"rng_words": -1e400'),
        lambda blob: blob.replace(b'"metrics_history": []',
                                  b'"metrics_history": ' + b"[" * 100000 + b"]" * 100000),
    ], ids=["overflowing_epoch", "overflowing_rng_words", "deeply_nested"])
    def test_hostile_header_exits_1(self, tmp_path, capsys, edit_blob):
        path = self._edit_header(tmp_path, edit_blob)
        assert main(["inspect", "--ckpt", str(path)]) == 1
        TestBadInputExitCodes._assert_error_line(capsys)

    def test_equal_non_int_extents_load(self, tmp_path):
        path = self._edit_header(tmp_path, lambda blob: blob.replace(
            b'[["branch1.conv.weight", [4, 1, 7]]', b'[["branch1.conv.weight", [4.0, true, 7]]'))
        assert load_checkpoint(path).parameters["branch1.conv.weight"].shape == (4, 1, 7)

    @pytest.mark.parametrize("model", [
        {"level_pool_target": [2]},
        {"level_pool_windows": [[0, 2], [2, 2], [2, 2], [2, 2]]},
        {"conv_channels": ["wide", 8, 8, 8]},
    ], ids=["short_target", "zero_window", "non_int_channels"])
    def test_bad_model_config_values_exit_2(self, corpus_dir, tmp_path, capsys, model):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": model}))
        rc = main(["train", "--config", str(bad),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "1", "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert "invalid config" in TestBadInputExitCodes._assert_error_line(capsys)

    def test_zero_sample_rate_wav_exits_1(self, corpus_dir, config_file, tmp_path, capsys):
        manifest = load_manifest((corpus_dir / "manifest.csv").read_bytes())
        wav = corpus_dir / next(e.path for e in manifest.entries if e.fold != 1)  # train reads it
        data = bytearray(wav.read_bytes())
        rate_at = data.index(b"fmt ") + 12  # chunk id, size, format tag, channels
        data[rate_at:rate_at + 4] = bytes(4)
        wav.write_bytes(bytes(data))
        rc = main(["train", "--config", str(config_file),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "1", "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        err = TestBadInputExitCodes._assert_error_line(capsys)
        assert "sample rate 0" in err and len(err.splitlines()) == 1

    def test_unallocatable_layer_exits_1(self, corpus_dir, tmp_path, capsys):
        # fc1's float64 draw needs 796 PiB, past even a 57-bit address space,
        # so the allocation fails at once and commits no memory
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"model": {**MICRO_MODEL, "fc_hidden": 10**15},
                                    "train": MICRO_TRAIN}))
        rc = main(["train", "--config", str(huge),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "1", "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        assert len(TestBadInputExitCodes._assert_error_line(capsys).splitlines()) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_exits_1(self, corpus_dir, config_file, tmp_path, capsys,
                                     monkeypatch):
        import wavems.training as training_mod

        real_build = training_mod.build_model

        def build_with_inf(*args, **kwargs):
            model = real_build(*args, **kwargs)
            model.param("fc2.weight").value.data[0, 0] = np.inf
            return model

        monkeypatch.setattr(training_mod, "build_model", build_with_inf)
        ckpt = tmp_path / "model.ckpt"
        rc = main(["train", "--config", str(config_file),
                   "--manifest", str(corpus_dir / "manifest.csv"),
                   "--fold", "1", "--out", str(ckpt)])
        assert rc == 1
        err = TestBadInputExitCodes._assert_error_line(capsys)
        assert "non-finite loss" in err and "epoch 0, batch 0" in err
        assert not ckpt.exists()


class TestPreloadedClips:
    @pytest.fixture
    def long_corpus(self, tmp_path):
        """48 one-second clips at 8820 Hz, resampled to the micro model's 4410 Hz."""
        out = tmp_path / "long"
        assert main(["synth", "--out", str(out), "--classes", "3", "--clips-per-class", "16",
                     "--seconds", "1.0", "--seed", "3", "--rate", "8820"]) == 0
        return cli._load_manifest_file(str(out / "manifest.csv"))

    def test_clips_are_float32_of_the_float64_load(self, long_corpus):
        """The model reads the same input values: float32 of the float64
        resample and normalize."""
        cfg = parse_run_config(json.dumps({"model": MICRO_MODEL}))
        clips = cli._preload_clips(long_corpus.entries, cfg)
        load = make_clip_loader(4410)
        for e in long_corpus.entries[:4]:
            want = load(e.path)
            assert clips[e.path].samples.dtype == np.float32
            assert clips[e.path].samples.tobytes() == want.samples.astype(np.float32).tobytes()
            assert clips[e.path].sample_rate == want.sample_rate == 4410

    def test_at_most_four_bytes_a_sample(self, long_corpus):
        """Preloading peaks at 4 bytes per stored sample plus a fixed
        allowance for the clip objects and one clip's float64 decode, which
        ends before the next clip's starts. Float64 clips would take twice
        the samples' share, which this allowance does not cover."""
        cfg = parse_run_config(json.dumps({"model": MICRO_MODEL}))
        cli._preload_clips(long_corpus.entries[:1], cfg)  # first-call allocations
        clips, _, peak = traced(lambda: cli._preload_clips(long_corpus.entries, cfg))
        stored = sum(len(c) for c in clips.values())
        assert stored == 48 * 4410
        assert peak <= 4 * stored + (512 << 10), (peak, stored)
