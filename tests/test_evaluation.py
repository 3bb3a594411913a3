"""Probability voting, metrics, cross-validation, and ablation structure."""

import numpy as np
import pytest

from wavems.audio import AudioClip
from wavems.datasets import DatasetManifest, ManifestEntry, synth_dataset
from wavems.errors import ManifestError
from wavems.evaluation import (ablate_levels, ablate_temporal, ablation_csv,
                               ablation_table_text, cross_validate, evaluate,
                               level_variant_configs, predict_clip,
                               temporal_variants)
from wavems.model import full_scale_config
from wavems.training import TrainConfig

from conftest import tiny_model_config


class ScriptedModel:
    """Stub emitting a fixed probability vector per segment, in order."""

    def __init__(self, window_length, distributions):
        self.window_length = window_length
        self._queue = list(distributions)

    def predict_proba(self, samples):
        return np.asarray(self._queue.pop(0), dtype=np.float64)


class LabelReadingModel:
    """Stub that decodes the class planted in the clip payload."""

    def __init__(self, window_length, num_classes, offset=0):
        self.window_length = window_length
        self.num_classes = num_classes
        self.offset = offset

    def predict_proba(self, samples):
        label = int(round(samples[len(samples) // 2] * 10)) - 1
        probs = np.zeros(self.num_classes)
        probs[(label + self.offset) % self.num_classes] = 1.0
        return probs


def labeled_clip_manifest(num_classes=5, per_fold=2, num_folds=5, window=64):
    """Every clip's payload encodes its label; exactly one voting segment each."""
    entries, clips = [], {}
    for label in range(num_classes):
        for fold in range(1, num_folds + 1):
            for i in range(per_fold):
                path = f"f{fold}_c{label}_{i}.wav"
                clips[path] = AudioClip(np.full(window, (label + 1) / 10.0), 8000, path)
                entries.append(ManifestEntry(path, label, fold))
    return DatasetManifest(entries, num_classes, num_folds), clips


class TestPredictClip:
    def test_three_segment_hand_sum(self):
        # window 4, hop 2, length 9 -> segments at 0, 2, 5
        clip = AudioClip(np.zeros(9), 8000)
        model = ScriptedModel(4, [[0.6, 0.4], [0.2, 0.8], [0.3, 0.7]])
        cls, summed = predict_clip(model, clip)
        assert cls == 1
        assert np.allclose(summed, [1.1, 1.9])

    def test_identical_distributions_vote_their_argmax(self):
        clip = AudioClip(np.zeros(9), 8000)
        p = [0.5, 0.2, 0.3]
        model = ScriptedModel(4, [p, p, p])
        cls, _ = predict_clip(model, clip)
        assert cls == 0

    def test_single_segment_equals_plain_argmax(self):
        clip = AudioClip(np.zeros(4), 8000)
        model = ScriptedModel(4, [[0.1, 0.7, 0.2]])
        cls, summed = predict_clip(model, clip)
        assert cls == 1 and np.allclose(summed, [0.1, 0.7, 0.2])

    def test_tie_breaks_to_lowest_index(self):
        clip = AudioClip(np.zeros(9), 8000)
        model = ScriptedModel(4, [[0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
        cls, summed = predict_clip(model, clip)
        assert summed[0] == summed[1]
        assert cls == 0

    def test_argmax_invariant_to_positive_scaling(self):
        clip = AudioClip(np.zeros(9), 8000)
        base = [[0.6, 0.4], [0.2, 0.8], [0.3, 0.7]]
        cls1, _ = predict_clip(ScriptedModel(4, base), clip)
        scaled = [[7 * v for v in row] for row in base]
        cls2, _ = predict_clip(ScriptedModel(4, scaled), clip)
        assert cls1 == cls2

    def test_deterministic_given_model_and_clip(self, rng):
        manifest, clips = labeled_clip_manifest()
        model = LabelReadingModel(64, 5)
        clip = clips[manifest.entries[0].path]
        results = {predict_clip(model, clip)[0] for _ in range(5)}
        assert len(results) == 1


class TestEvaluate:
    def test_perfect_predictor(self):
        manifest, clips = labeled_clip_manifest()
        report = evaluate(LabelReadingModel(64, 5), manifest, 3, clips=clips)
        assert report.accuracy == 1.0
        assert np.array_equal(report.confusion, np.diag([2] * 5))
        assert np.array_equal(report.per_class_accuracy, np.ones(5))

    def test_constant_predictor_on_balanced_fold(self):
        manifest, clips = labeled_clip_manifest()

        class Constant:
            window_length = 64

            def predict_proba(self, samples):
                return np.array([1.0, 0, 0, 0, 0])

        report = evaluate(Constant(), manifest, 2, clips=clips)
        assert report.accuracy == pytest.approx(0.2)

    def test_always_wrong_predictor(self):
        manifest, clips = labeled_clip_manifest()
        report = evaluate(LabelReadingModel(64, 5, offset=1), manifest, 1, clips=clips)
        assert report.accuracy == 0.0

    def test_confusion_total_and_row_sums(self):
        manifest, clips = labeled_clip_manifest(per_fold=3)
        report = evaluate(LabelReadingModel(64, 5, offset=2), manifest, 4, clips=clips)
        assert report.confusion.sum() == report.n_clips == 15
        assert report.confusion.sum(axis=1).tolist() == [3] * 5

    def test_unknown_fold(self):
        manifest, clips = labeled_clip_manifest()
        with pytest.raises(ManifestError):
            evaluate(LabelReadingModel(64, 5), manifest, 9, clips=clips)

    def test_accuracy_matches_manual_recount(self):
        from wavems.training import train

        manifest, clips = synth_dataset(3, 6, 0.15, 4410, seed=2, num_folds=2)
        tc = TrainConfig(epochs=2, batch_size=8, lr_stages=((2, 1e-2),), seed=3)
        model = train(tiny_model_config(), tc, manifest, 1, clips=clips).restore_model()
        report = evaluate(model, manifest, 1, clips=clips)
        manual = 0
        test_entries = [e for e in manifest.entries if e.fold == 1]
        for e in test_entries:
            cls, _ = predict_clip(model, clips[e.path])
            manual += int(cls == e.label)
        assert report.accuracy == manual / len(test_entries)


class TestCrossValidate:
    def canned_runner(self, table):
        def run(model_config, train_config, manifest, fold, repeat):
            return table[(fold, repeat)]
        return run

    def test_five_folds_one_repeat(self):
        manifest, _ = labeled_clip_manifest()
        table = {(f, 0): 0.5 + 0.1 * f for f in range(1, 6)}
        row = cross_validate(tiny_model_config(num_classes=5), TrainConfig(),
                             manifest, repeats=1, fold_runner=self.canned_runner(table))
        assert len(row.accuracies) == 5
        assert row.accuracies == table

    def test_equal_accuracies_zero_stddev(self):
        manifest, _ = labeled_clip_manifest()
        table = {(f, r): 0.7 for f in range(1, 6) for r in range(2)}
        row = cross_validate(tiny_model_config(num_classes=5), TrainConfig(),
                             manifest, repeats=2, fold_runner=self.canned_runner(table))
        assert row.stddev == 0.0 and row.mean == pytest.approx(0.7)

    def test_stddev_recomputable_from_raw_values(self):
        manifest, _ = labeled_clip_manifest()
        rng = np.random.default_rng(0)
        table = {(f, r): float(rng.uniform(0.4, 0.9))
                 for f in range(1, 6) for r in range(3)}
        row = cross_validate(tiny_model_config(num_classes=5), TrainConfig(),
                             manifest, repeats=3, fold_runner=self.canned_runner(table))
        values = np.array(list(row.accuracies.values()))
        assert abs(row.mean - values.mean()) < 1e-12
        assert abs(row.stddev - values.std()) < 1e-12

    def test_bad_repeats(self):
        manifest, _ = labeled_clip_manifest()
        with pytest.raises(ValueError):
            cross_validate(tiny_model_config(num_classes=5), TrainConfig(),
                           manifest, repeats=0)


class TestAblationStructure:
    def stub_runner(self, value=0.5):
        return lambda mc, tc, m, fold, repeat: value

    def test_temporal_variant_filter_columns(self):
        rows = temporal_variants(full_scale_config())
        assert [r[0] for r in rows] == ["low", "middle", "high", "multi"]
        assert [r[2] for r in rows] == [(96, 0, 0), (0, 96, 0), (0, 0, 96), (32, 32, 32)]

    def test_level_variant_fc_dims(self):
        pairs = level_variant_configs(full_scale_config())
        assert [n for n, _ in pairs] == [1, 2, 3, 4]
        assert [cfg.fc_input_dim() for _, cfg in pairs] == [5120, 10240, 12800, 14080]

    def test_ablate_temporal_emits_four_rows(self):
        manifest, _ = labeled_clip_manifest()
        result = ablate_temporal(manifest, full_scale_config(num_classes=5),
                                 TrainConfig(), fold_runner=self.stub_runner())
        assert len(result.rows) == 4
        assert [r.filters for r in result.rows] == [
            (96, 0, 0), (0, 96, 0), (0, 0, 96), (32, 32, 32)]

    def test_ablate_levels_rows_ascending_with_dims(self):
        manifest, _ = labeled_clip_manifest()
        result = ablate_levels(manifest, full_scale_config(num_classes=5),
                               TrainConfig(), fold_runner=self.stub_runner())
        assert [r.last_n for r in result.rows] == [1, 2, 3, 4]
        assert [r.fc_input_dim for r in result.rows] == [5120, 10240, 12800, 14080]

    def test_level_one_row_equals_single_level_model(self):
        manifest, _ = labeled_clip_manifest()
        base = full_scale_config(num_classes=5)

        def runner(mc, tc, m, fold, repeat):
            # the derived config defines the row; echo its head dimension
            return mc.fc_input_dim() / 1e5

        result = ablate_levels(manifest, base, TrainConfig(), fold_runner=runner)
        single_cfg = type(base).from_dict({**base.to_dict(), "last_n_levels": 1})
        single = cross_validate(single_cfg, TrainConfig(), manifest, fold_runner=runner)
        assert result.rows[0].mean == single.mean

    def test_means_lie_within_fold_min_max(self):
        manifest, clips = synth_dataset(3, 4, 0.15, 4410, seed=8, num_folds=2)
        tc = TrainConfig(epochs=1, batch_size=8, lr_stages=((1, 1e-2),), seed=1)
        result = ablate_levels(manifest, tiny_model_config(), tc, clips=clips)
        for row in result.rows:
            values = list(row.accuracies.values())
            assert min(values) <= row.mean <= max(values)

    def test_csv_and_table_render(self):
        manifest, _ = labeled_clip_manifest()
        result = ablate_temporal(manifest, full_scale_config(num_classes=5),
                                 TrainConfig(), fold_runner=self.stub_runner(0.25))
        csv_text = ablation_csv(result)
        assert csv_text.splitlines()[0] == \
            "variant,filters,last_n,fc_input_dim,fold,repeat,accuracy,mean,stddev"
        assert "96/0/0" in csv_text
        table = ablation_table_text(result)
        assert "low" in table and "multi" in table


class TestEvaluateDefaultLoader:
    def test_resamples_to_model_rate(self, tmp_path, monkeypatch):
        """Without clips or a loader, files are decoded at the model's rate."""
        import types

        import wavems.evaluation as evaluation_mod
        from wavems.audio import encode_wav_pcm16

        entries = []
        for label in range(2):
            path = tmp_path / f"c{label}.wav"
            tone = np.sin(np.linspace(0, 40 * np.pi, 4410))  # 0.2 s at 22.05 kHz
            path.write_bytes(encode_wav_pcm16(0.5 * tone, 22050))
            entries.append(ManifestEntry(str(path), label, 1))
        manifest = DatasetManifest(entries, 2, 1)

        class Uniform:
            window_length = 441
            config = types.SimpleNamespace(sample_rate=4410)

            def predict_proba(self, samples):
                return np.full(2, 0.5)

        lengths = []
        real_predict = evaluation_mod.predict_clip
        monkeypatch.setattr(evaluation_mod, "predict_clip",
                            lambda m, clip, **k: lengths.append(len(clip.samples))
                            or real_predict(m, clip, **k))
        report = evaluate(Uniform(), manifest, 1)
        assert report.n_clips == 2
        assert lengths == [882, 882]
