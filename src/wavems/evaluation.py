"""Probability-voting inference, metrics, cross-validation, ablations.

``predict_clip`` accepts anything exposing ``window_length`` and
``predict_proba(samples) -> probabilities``, so stub predictors can stand in
for a trained model in tests. Evaluation of distinct clips is independent;
results are keyed by (fold, repeat) and order-free.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import ops
from .audio import AudioClip, segment_for_voting
from .datasets import DatasetManifest, fold_split
from .model import ModelConfig, single_branch_variant
from .training import TrainConfig, _default_clip_loader, train


@dataclass
class EvalReport:
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray  # (K, K) counts, rows = true class
    n_clips: int


@dataclass
class AblationRow:
    variant: str
    accuracies: dict[tuple[int, int], float]  # (fold, repeat) -> accuracy
    mean: float
    stddev: float
    filters: Optional[tuple[int, ...]] = None  # temporal ablation columns
    last_n: Optional[int] = None               # level ablation metadata
    fc_input_dim: Optional[int] = None


@dataclass
class AblationResult:
    rows: list[AblationRow] = field(default_factory=list)


def predict_clip(model, clip: AudioClip, hop: Optional[int] = None
                 ) -> tuple[int, np.ndarray]:
    """Probability voting: sum per-segment softmax vectors, take the argmax.

    Ties resolve to the lowest class index (numpy argmax convention).
    """
    windows = segment_for_voting(clip, model.window_length, hop=hop)
    summed = None
    for w in windows:
        p = np.asarray(model.predict_proba(w.samples), dtype=np.float64)
        summed = p if summed is None else summed + p
    return int(np.argmax(summed)), summed


def evaluate(model, manifest: DatasetManifest, test_fold: int,
             clips: Optional[dict[str, AudioClip]] = None,
             clip_loader: Optional[Callable[[str], AudioClip]] = None,
             hop: Optional[int] = None) -> EvalReport:
    """Vote over every clip of the held-out fold and tally a confusion matrix.

    Clips come from ``clips``, else from ``clip_loader``, else from disk,
    resampled to the model's rate and peak-normalized as for training.
    """
    _, test_entries = fold_split(manifest, test_fold)
    if not test_entries:
        raise ValueError(f"fold {test_fold} has no entries")

    if clips is None and clip_loader is None:
        clip_loader = _default_clip_loader(model.config.sample_rate)

    k = manifest.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    for entry in test_entries:
        clip = clips[entry.path] if clips is not None else clip_loader(entry.path)
        pred, _ = predict_clip(model, clip, hop=hop)
        confusion[entry.label, pred] += 1

    total = confusion.sum()
    row_sums = confusion.sum(axis=1)
    per_class = np.divide(np.diag(confusion), row_sums,
                          out=np.zeros(k, dtype=np.float64), where=row_sums > 0)
    return EvalReport(accuracy=float(np.trace(confusion)) / float(total),
                      per_class_accuracy=per_class,
                      confusion=confusion, n_clips=int(total))


# --- cross-validation and ablations ---------------------------------------

#: fold_runner(model_config, train_config, manifest, fold, repeat) -> accuracy
FoldRunner = Callable[[ModelConfig, TrainConfig, DatasetManifest, int, int], float]


def _default_fold_runner(clips: Optional[dict[str, AudioClip]] = None) -> FoldRunner:
    def run(model_config: ModelConfig, train_config: TrainConfig,
            manifest: DatasetManifest, fold: int, repeat: int) -> float:
        cfg = replace(train_config, seed=train_config.seed + repeat)
        ckpt = train(model_config, cfg, manifest, fold, clips=clips)
        model = ckpt.restore_model()
        with ops.gemm_kernels(not train_config.deterministic):
            report = evaluate(model, manifest, fold, clips=clips)
        return report.accuracy
    return run


def cross_validate(model_config: ModelConfig, train_config: TrainConfig,
                   manifest: DatasetManifest, repeats: int = 1,
                   variant: str = "model",
                   fold_runner: Optional[FoldRunner] = None,
                   clips: Optional[dict[str, AudioClip]] = None) -> AblationRow:
    """Train and evaluate on every fold, ``repeats`` times with shifted seeds.

    Reports the mean and population standard deviation over all
    fold x repeat accuracies; the raw values stay on the row so any other
    spread estimator can be recomputed.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    runner = fold_runner or _default_fold_runner(clips)
    accuracies: dict[tuple[int, int], float] = {}
    for repeat in range(repeats):
        for fold in range(1, manifest.num_folds + 1):
            accuracies[(fold, repeat)] = runner(model_config, train_config,
                                                manifest, fold, repeat)
    values = np.array(list(accuracies.values()))
    return AblationRow(variant=variant, accuracies=accuracies,
                       mean=float(values.mean()),
                       stddev=float(values.std()))  # population stddev


def temporal_variants(base_config: ModelConfig) -> list[tuple[str, ModelConfig, tuple[int, ...]]]:
    """(name, config, per-branch filter counts) for the temporal ablation rows."""
    n_branches = len(base_config.branches)
    rows = []
    for which, idx in (("low", 0), ("middle", 1), ("high", 2)):
        cfg = single_branch_variant(base_config, which)
        filters = tuple(cfg.branches[0].num_filters if i == idx else 0
                        for i in range(n_branches))
        rows.append((which, cfg, filters))
    rows.append(("multi", base_config,
                 tuple(b.num_filters for b in base_config.branches)))
    return rows


def level_variant_configs(base_config: ModelConfig) -> list[tuple[int, ModelConfig]]:
    """Configs for stacking the last N level maps, N = 1..number of levels."""
    return [(n, replace(base_config, last_n_levels=n))
            for n in range(1, len(base_config.conv_channels) + 1)]


def ablate_temporal(manifest: DatasetManifest, base_config: ModelConfig,
                    train_config: TrainConfig, repeats: int = 1,
                    fold_runner: Optional[FoldRunner] = None,
                    clips: Optional[dict[str, AudioClip]] = None) -> AblationResult:
    """Single- vs multi-resolution comparison over all folds."""
    result = AblationResult()
    for name, cfg, filters in temporal_variants(base_config):
        row = cross_validate(cfg, train_config, manifest, repeats,
                             variant=name, fold_runner=fold_runner, clips=clips)
        row.filters = filters
        result.rows.append(row)
    return result


def ablate_levels(manifest: DatasetManifest, base_config: ModelConfig,
                  train_config: TrainConfig, repeats: int = 1,
                  fold_runner: Optional[FoldRunner] = None,
                  clips: Optional[dict[str, AudioClip]] = None) -> AblationResult:
    """Effect of stacking the last N level maps, N ascending."""
    result = AblationResult()
    for n, cfg in level_variant_configs(base_config):
        row = cross_validate(cfg, train_config, manifest, repeats,
                             variant=f"last{n}", fold_runner=fold_runner, clips=clips)
        row.last_n = n
        row.fc_input_dim = cfg.fc_input_dim()
        result.rows.append(row)
    return result


# --- report rendering -------------------------------------------------------

def eval_report_csv(report: EvalReport) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["metric", "value"])
    w.writerow(["accuracy", f"{report.accuracy:.6f}"])
    w.writerow(["n_clips", report.n_clips])
    w.writerow([])
    w.writerow(["class", "per_class_accuracy"])
    for c, acc in enumerate(report.per_class_accuracy):
        w.writerow([c, f"{acc:.6f}"])
    return out.getvalue()


def confusion_csv(report: EvalReport) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    k = report.confusion.shape[0]
    w.writerow(["true\\pred"] + list(range(k)))
    for c in range(k):
        w.writerow([c] + report.confusion[c].tolist())
    return out.getvalue()


def eval_report_text(report: EvalReport) -> str:
    lines = [f"clips evaluated : {report.n_clips}",
             f"accuracy        : {report.accuracy:.4f}",
             "per-class       : " + "  ".join(
                 f"{c}:{a:.3f}" for c, a in enumerate(report.per_class_accuracy))]
    return "\n".join(lines) + "\n"


def ablation_csv(result: AblationResult) -> str:
    """Long-form CSV: one row per fold x repeat, then summary rows."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["variant", "filters", "last_n", "fc_input_dim",
                "fold", "repeat", "accuracy", "mean", "stddev"])
    for row in result.rows:
        filters = "/".join(str(f) for f in row.filters) if row.filters else ""
        last_n = "" if row.last_n is None else row.last_n
        fc = "" if row.fc_input_dim is None else row.fc_input_dim
        for (fold, repeat), acc in sorted(row.accuracies.items()):
            w.writerow([row.variant, filters, last_n, fc, fold, repeat,
                        f"{acc:.6f}", "", ""])
        w.writerow([row.variant, filters, last_n, fc, "", "",
                    "", f"{row.mean:.6f}", f"{row.stddev:.6f}"])
    return out.getvalue()


def ablation_table_text(result: AblationResult) -> str:
    """Aligned table; shows filter counts or FC dimensions when present."""
    temporal = any(r.filters is not None for r in result.rows)
    if temporal:
        header = f"{'variant':<10}" + "".join(f"{'b' + str(i + 1):>6}" for i in range(
            max(len(r.filters) for r in result.rows if r.filters))) + f"{'mean':>10}{'std':>9}"
        lines = [header]
        for r in result.rows:
            cells = "".join(f"{f:>6}" for f in (r.filters or ()))
            lines.append(f"{r.variant:<10}{cells}{r.mean:>10.4f}{r.stddev:>9.4f}")
    else:
        lines = [f"{'last N':<8}{'fc dim':>8}{'mean':>10}{'std':>9}"]
        for r in result.rows:
            lines.append(f"{r.last_n or 0:<8}{r.fc_input_dim or 0:>8}"
                         f"{r.mean:>10.4f}{r.stddev:>9.4f}")
    return "\n".join(lines) + "\n"
