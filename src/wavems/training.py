"""Training loop: per-epoch random crops, staged LR, momentum SGD with L2.

Every source of per-epoch randomness (shuffle order, crop starts) is drawn
from a generator derived from (seed, epoch), so a run resumed from a
checkpoint continues bit-identically to an uninterrupted one. Training
entries are canonicalized by path before the seeded shuffle, which makes
the whole run invariant to manifest row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import ops
from .audio import AudioClip, make_clip_loader, random_crop
from .checkpoint import Checkpoint, save_checkpoint
from .config import Config
from .datasets import DatasetManifest, ManifestEntry, fold_split
from .errors import ConfigError, NonFiniteLossError
from .model import Model, ModelConfig, build_model
from .optim import sgd_step
from .tensor import Tensor, backward, zero_grads


@dataclass
class TrainConfig(Config):
    """Optimization protocol; defaults reproduce the full-scale recipe."""
    epochs: int = 160
    batch_size: int = 64
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_stages: tuple[tuple[int, float], ...] = (
        (60, 1e-2), (60, 1e-3), (20, 1e-4), (20, 1e-5))
    seed: int = 0
    deterministic: bool = False  # reference kernels, not GEMM (wavems.ops)

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 <= self.momentum < 1 and self.weight_decay >= 0):
            raise ConfigError(f"need 0 <= momentum < 1 and weight_decay >= 0, got "
                              f"{self.momentum} and {self.weight_decay}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must fit an unsigned 64-bit int, got {self.seed}")
        for span, lr in self.lr_stages:
            if span < 1 or lr < 0:
                raise ConfigError(f"lr stages need a span >= 1 and an lr >= 0, got {[span, lr]}")
        if sum(s for s, _ in self.lr_stages) != self.epochs:
            raise ConfigError(
                f"lr stage spans {[s for s, _ in self.lr_stages]} must sum to epochs={self.epochs}")


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Stagewise-constant learning rate for a 0-based epoch index."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} out of range 0..{config.epochs - 1}")
    cursor = 0
    for span, lr in config.lr_stages:
        cursor += span
        if epoch < cursor:
            return lr
    raise AssertionError("unreachable: stage spans sum to epochs")


def _epoch_rng(seed: int, epoch: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, epoch, purpose]))


def train_epoch(model: Model, entries: list[ManifestEntry],
                clips: dict[str, AudioClip], epoch: int,
                config: TrainConfig) -> dict:
    """One pass: fresh random crop per entry, seeded shuffle, SGD per batch.

    Convolutions and ``linear`` run on the GEMM kernels unless
    ``config.deterministic`` asks for the reference kernels (:mod:`wavems.ops`).

    Each window is swept right after its forward, on its share of the batch
    mean (its cross-entropy times 1/B), and its graph is dropped before the
    next window's forward, so a step holds one window's graph at a time.
    Parameter gradients accumulate in window order: the bits of one sweep
    of the batch-mean loss over all B windows.

    Returns {"epoch", "lr", "loss", "train_acc", "n_examples"}; loss is the
    mean per-crop cross-entropy over the epoch. A NaN or infinite batch loss
    raises NonFiniteLossError before that batch's update: its windows have
    been swept, but parameters and momentum are as they were.
    """
    if not entries:
        raise ValueError("training set is empty")
    lr = lr_at(config, epoch)
    shuffle_rng = _epoch_rng(config.seed, epoch, 0)
    crop_rng = _epoch_rng(config.seed, epoch, 1)

    order = shuffle_rng.permutation(len(entries))
    params = model.parameters()
    window = model.config.window_length

    total_loss = 0.0
    correct = 0
    with ops.gemm_kernels(not config.deterministic):
        for batch_lo in range(0, len(order), config.batch_size):
            chosen = [entries[int(idx)] for idx in order[batch_lo:batch_lo + config.batch_size]]
            share = 1 / len(chosen)
            zero_grads(params)
            rows = []
            for e in chosen:
                logits = model.forward(random_crop(clips[e.path], window, crop_rng, e.label).samples)
                backward(ops.scale(ops.softmax_cross_entropy(logits, e.label), share))
                rows.append(logits.data)
                del logits  # free this window's graph before the next one's forward
            labels = [e.label for e in chosen]
            logits = np.stack(rows)
            correct += int((logits.argmax(axis=1) == labels).sum())
            loss = ops.softmax_cross_entropy(Tensor(logits), labels).item()  # records nothing
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite loss {loss} at epoch {epoch}, batch "
                    f"{batch_lo // config.batch_size} (0-based); parameters are "
                    f"left as they were before this batch")
            sgd_step(params, lr=lr, momentum=config.momentum,
                     weight_decay=config.weight_decay)
            total_loss += loss * len(chosen)

    n = len(entries)
    return {"epoch": epoch, "lr": lr, "loss": total_loss / n,
            "train_acc": correct / n, "n_examples": n}


def _check_resumable(ckpt: Checkpoint, model_config: ModelConfig,
                     config: TrainConfig) -> None:
    """Raise ConfigError unless ``config`` continues ``ckpt``'s run bit-exactly.

    The schedule may be extended, but every completed epoch must have run
    at the learning rate ``config`` gives it, and everything else that
    shapes a step or its random draws must match. A checkpoint loaded
    weights-only has no velocities to continue from.
    """
    if ckpt.velocities is None:
        raise ConfigError("cannot resume: the checkpoint was loaded weights-only "
                          "(load_checkpoint(..., velocities=False))")
    if ckpt.model_config != model_config:
        raise ConfigError("checkpoint model config differs from the requested one")
    done = ckpt.train_config
    for key in ("seed", "batch_size", "momentum", "weight_decay", "deterministic"):
        if getattr(done, key) != getattr(config, key):
            raise ConfigError(f"cannot resume: checkpoint {key}={getattr(done, key)!r}, "
                              f"requested {key}={getattr(config, key)!r}")
    if not 0 <= ckpt.epoch <= min(done.epochs, config.epochs):
        raise ConfigError(f"cannot resume: checkpoint has {ckpt.epoch} epochs done, its "
                          f"schedule {done.epochs} and the requested one {config.epochs}")
    for epoch in range(ckpt.epoch):
        if lr_at(done, epoch) != lr_at(config, epoch):
            raise ConfigError(f"cannot resume: epoch {epoch} ran at lr "
                              f"{lr_at(done, epoch):g}, the requested schedule "
                              f"gives {lr_at(config, epoch):g}")
    if tuple(ckpt.rng_state) != (config.seed, ckpt.epoch):
        raise ConfigError(f"cannot resume: checkpoint RNG state {tuple(ckpt.rng_state)} "
                          f"is not (seed, epoch) = {(config.seed, ckpt.epoch)}")


def train(model_config: ModelConfig, train_config: TrainConfig,
          manifest: DatasetManifest, test_fold: int,
          clips: Optional[dict[str, AudioClip]] = None,
          out_path: Optional[str | Path] = None,
          checkpoint_every: Optional[int] = None,
          resume_from: Optional[Checkpoint] = None,
          on_epoch: Optional[Callable[[dict], None]] = None) -> Checkpoint:
    """Run the full protocol on the train split of ``test_fold``.

    ``clips`` may supply preloaded audio keyed by manifest path; otherwise
    clips are decoded from disk, resampled to the model rate, and
    peak-normalized once up front. Returns the final checkpoint (also
    written to ``out_path`` when given, plus every ``checkpoint_every``
    epochs).
    """
    train_entries, _ = fold_split(manifest, test_fold)
    if not train_entries:
        raise ValueError(f"no training entries outside fold {test_fold}")
    # Canonical order: shuffle permutation then depends only on (seed, epoch).
    train_entries = sorted(train_entries, key=lambda e: e.path)

    if resume_from is not None:
        _check_resumable(resume_from, model_config, train_config)
        model = resume_from.restore_model()
        history = list(resume_from.metrics_history)
        start_epoch = resume_from.epoch
    else:
        model = build_model(model_config, seed=train_config.seed)
        history = []
        start_epoch = 0

    if clips is None:
        loader = make_clip_loader(model_config.sample_rate)
        clips = {e.path: loader(e.path) for e in train_entries}

    def snapshot(epoch: int) -> Checkpoint:
        return Checkpoint.from_model(model, train_config, epoch, history,
                                     rng_state=(train_config.seed, epoch))

    for epoch in range(start_epoch, train_config.epochs):
        metrics = train_epoch(model, train_entries, clips, epoch, train_config)
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics)
        done = epoch + 1
        if out_path and checkpoint_every and done % checkpoint_every == 0 \
                and done < train_config.epochs:
            save_checkpoint(snapshot(done), out_path)

    final = snapshot(train_config.epochs)
    if out_path:
        save_checkpoint(final, out_path)
    return final
