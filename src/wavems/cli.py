"""Command-line surface: synth, train, eval, ablate, analyze, inspect.

Exit codes: 0 success, 1 runtime failure (I/O, decode, corrupt checkpoint),
2 usage error (bad flags or argument values, including unknown folds and
malformed config files). Progress lines go to stderr; machine-readable CSV
goes to stdout or to files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, evaluation, ops
from .checkpoint import load_checkpoint
from .datasets import (SYNTH_MAX_CLASSES, DatasetManifest, ManifestEntry,
                       fold_split, load_manifest, write_synth_dataset)
from .audio import AudioClip, make_clip_loader
from .config import Config
from .errors import ConfigError
from .model import ModelConfig, param_count
from .training import TrainConfig, train


class UsageError(Exception):
    """Bad argument or config values; maps to exit code 2."""


@dataclass
class DataConfig(Config):
    """Run-config ``data`` section: how clips are decoded."""
    peak_normalize: bool = True
    resample: bool = True


@dataclass
class EvalConfig(Config):
    """Run-config ``eval`` section: ablation repeats and the voting hop (null: default)."""
    repeats: int = 1
    hop: int | None = None

    def validate(self) -> None:
        if self.repeats < 1 or (self.hop is not None and self.hop < 1):
            raise ConfigError(f"need eval.repeats, eval.hop >= 1, got {self.repeats}, {self.hop}")


@dataclass
class AnalysisConfig(Config):
    """Run-config ``analysis`` section; ``wavems analyze`` reads ``--nfft`` instead."""
    nfft: int = 2048

    def validate(self) -> None:
        if self.nfft < 1:
            raise ConfigError(f"analysis.nfft must be >= 1, got {self.nfft}")


@dataclass
class RunConfig(Config):
    """The whole JSON run config; each key of the root object is one section."""
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


def parse_run_config(text: str) -> RunConfig:
    """Parse the JSON run config; unknown keys are rejected with their path."""
    try:
        doc = json.loads(text)
    # JSON syntax and integers past the digit limit are ValueErrors
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    try:
        return RunConfig.from_dict(doc)
    except ConfigError as exc:
        raise UsageError(f"invalid config: {exc}") from exc


def _load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return parse_run_config(text)


def _load_manifest_file(path: str) -> DatasetManifest:
    manifest = load_manifest(Path(path).read_bytes())
    base = Path(path).parent
    entries = [ManifestEntry(str(base / e.path) if not Path(e.path).is_absolute() else e.path,
                             e.label, e.fold)
               for e in manifest.entries]
    return DatasetManifest(entries, manifest.num_classes, manifest.num_folds)


def _check_fold(manifest: DatasetManifest, fold: int) -> None:
    folds = sorted({e.fold for e in manifest.entries})
    if fold not in folds:
        raise UsageError(f"fold {fold} not in manifest (folds: {folds})")


def _check_classes(manifest: DatasetManifest, num_classes: int) -> None:
    if manifest.num_classes != num_classes:
        raise UsageError(f"checkpoint has {num_classes} classes but the manifest "
                         f"has {manifest.num_classes}")


def _clip_loader(cfg: RunConfig, model_rate: int):
    """Clip loader honoring the data-section toggles for a model at
    ``model_rate``. Clips are resampled and normalized in float64, then kept
    in float32: every model the CLI runs is single precision and casts its
    input to float32 anyway, so it reads the same values from half the
    memory, and voting windows stay views of the clip."""
    load = make_clip_loader(model_rate if cfg.data.resample else None, cfg.data.peak_normalize)

    def load_single(path: str) -> AudioClip:
        clip = load(path)
        return replace(clip, samples=clip.samples.astype(np.float32))
    return load_single


def _preload_clips(entries: list[ManifestEntry], cfg: RunConfig) -> dict:
    """Decode each entry's clip once, honoring the data-section toggles."""
    load = _clip_loader(cfg, cfg.model.sample_rate)
    return {e.path: load(e.path) for e in entries}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# --- commands ---------------------------------------------------------------

def cmd_synth(args) -> int:
    if not 1 <= args.classes <= SYNTH_MAX_CLASSES:
        raise UsageError(f"--classes must be in 1..{SYNTH_MAX_CLASSES}, got {args.classes}")
    if args.seconds <= 0:
        raise UsageError("--seconds must be positive")
    try:
        manifest_path = write_synth_dataset(
            args.out, args.classes, args.clips_per_class, args.seconds,
            args.rate, args.seed, num_folds=args.folds)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    n = args.classes * args.clips_per_class
    print(f"wrote {n} clips + {manifest_path}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args.config)
    if args.deterministic:
        cfg = replace(cfg, train=replace(cfg.train, deterministic=True))
    manifest = _load_manifest_file(args.manifest)
    _check_fold(manifest, args.fold)
    cfg = replace(cfg, model=replace(cfg.model, num_classes=manifest.num_classes))

    print("epoch,lr,loss,train_acc")

    def stream(metrics: dict) -> None:
        print(f"{metrics['epoch']},{metrics['lr']:g},{metrics['loss']:.6f},"
              f"{metrics['train_acc']:.6f}", flush=True)

    train_entries, _ = fold_split(manifest, args.fold)  # train never reads the test fold
    ckpt = train(cfg.model, cfg.train, manifest, args.fold,
                 clips=_preload_clips(train_entries, cfg),
                 out_path=args.out, checkpoint_every=args.checkpoint_every,
                 on_epoch=stream)
    _log(f"trained {ckpt.epoch} epochs; checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt, velocities=False)
    manifest = _load_manifest_file(args.manifest)
    _check_fold(manifest, args.fold)
    _check_classes(manifest, ckpt.model_config.num_classes)
    cfg = _load_run_config(args.config)
    # clips must arrive at the rate the model was trained on
    loader = _clip_loader(cfg, ckpt.model_config.sample_rate)
    # kernels follow the checkpoint's training setting
    gemm = not ckpt.train_config.deterministic
    model = ckpt.restore_model()
    del ckpt  # the model holds the checkpoint's weight arrays; nothing else is needed
    with ops.gemm_kernels(gemm):
        report = evaluation.evaluate(model, manifest, args.fold,
                                     clip_loader=loader, hop=cfg.eval.hop)

    out = Path(args.report)
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval_report.csv").write_text(evaluation.eval_report_csv(report))
    (out / "confusion.csv").write_text(evaluation.confusion_csv(report))
    (out / "eval_report.txt").write_text(evaluation.eval_report_text(report))
    print(f"accuracy,{report.accuracy:.6f}")
    _log(f"report written under {out}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_run_config(args.config)
    manifest = _load_manifest_file(args.manifest)
    cfg = replace(cfg, model=replace(cfg.model, num_classes=manifest.num_classes))
    repeats = args.repeats if args.repeats is not None else cfg.eval.repeats

    # decode once; every variant x fold training run shares the same clips
    clips = _preload_clips(manifest.entries, cfg)
    if args.mode == "temporal":
        result = evaluation.ablate_temporal(manifest, cfg.model, cfg.train,
                                            repeats, clips=clips)
        stem = "ablation_temporal"
    else:
        result = evaluation.ablate_levels(manifest, cfg.model, cfg.train,
                                          repeats, clips=clips)
        stem = "ablation_levels"

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_text = evaluation.ablation_csv(result)
    (out / f"{stem}.csv").write_text(csv_text)
    (out / f"{stem}.txt").write_text(evaluation.ablation_table_text(result))
    print(csv_text, end="")
    _log(f"ablation results written under {out}")
    return 0


def cmd_analyze(args) -> int:
    ckpt = load_checkpoint(args.ckpt, velocities=False)
    longest = max(b.filter_len for b in ckpt.model_config.branches)
    if args.nfft < longest:
        raise UsageError(f"--nfft {args.nfft} is below the longest branch filter ({longest})")
    model = ckpt.restore_model()
    paths = analysis.export_all_branches(model, args.out, nfft=args.nfft)
    for p in paths:
        _log(f"wrote {p}")
    return 0


def cmd_inspect(args) -> int:
    ckpt = load_checkpoint(args.ckpt, velocities=False)
    cfg = ckpt.model_config
    print(f"epoch           : {ckpt.epoch}")
    print(f"parameters      : {param_count(cfg)}")
    print(f"window_length   : {cfg.window_length} samples @ {cfg.sample_rate} Hz")
    print(f"branches        : " + "; ".join(
        f"len {b.filter_len} stride {b.stride} x{b.num_filters}" for b in cfg.branches))
    print(f"frontend        : {cfg.frontend_shape()}")
    for i, shape in enumerate(cfg.level_map_shapes(), start=1):
        print(f"level {i} map     : {shape}")
    print(f"last_n_levels   : {cfg.last_n_levels}")
    print(f"fc input dim    : {cfg.fc_input_dim()}")
    print(f"fc hidden       : {cfg.fc_hidden}")
    print(f"classes         : {cfg.num_classes}")
    print("layers:")
    for name, shape in cfg.parameter_shapes():
        print(f"  {name:<24} {shape}")
    return 0


# --- parser -----------------------------------------------------------------

def _positive_int(text: str) -> int:
    """argparse type for counts and sizes: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavems",
        description="Raw-waveform sound classifier: data synthesis, training, "
                    "evaluation, ablations, filter analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    # train, eval and ablate take it; main enters ops.workers with it
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=_positive_int, default=1,
                         help="worker threads that share the blocks of each convolution "
                              "forward, capped at the CPUs this process may use (training's "
                              "gradient products stay serial); the blocks do not depend on "
                              "it, so outputs are those of --threads 1 byte for byte")

    p = sub.add_parser("synth", help="generate the synthetic WAV corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--clips-per-class", type=_positive_int, required=True)
    p.add_argument("--seconds", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=int, default=44100, help="sample rate in Hz")
    p.add_argument("--folds", type=_positive_int, default=5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[threads], help="train on one fold split")
    p.add_argument("--config", help="JSON run config (defaults reproduce the full protocol)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--deterministic", action="store_true",
                   help="use the reference kernels (tap-ordered convolutions, "
                        "linear layers), which make no BLAS call (the default "
                        "GEMM kernels repeat only at a fixed BLAS thread count); "
                        "eval follows the checkpoint's setting")
    p.add_argument("--checkpoint-every", type=_positive_int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[threads],
                       help="probability-voting evaluation of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--report", required=True, help="report output directory")
    p.add_argument("--config", help="JSON run config")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[threads], help="run the temporal or level ablation")
    p.add_argument("--mode", choices=("temporal", "levels"), required=True)
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--repeats", type=_positive_int, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("analyze", help="export learned-filter frequency responses")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--nfft", type=_positive_int, default=2048)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("inspect", help="print checkpoint config and layer shapes")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # at one worker (the default, and every command without --threads) no thread starts
        with ops.workers(getattr(args, "threads", 1)):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # DecodeError, ManifestError, CheckpointError and ConfigError are ValueErrors
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
