"""Raw-waveform classifier: multi-resolution front-end, multi-level back-end.

The front-end runs the input window through parallel 1-D conv branches with
different filter lengths and strides (high resolution = short filter, small
stride), each followed by a short conv that absorbs small phase shifts, then
pools every branch to a common number of time bins and stacks them along the
frequency axis. The stacked map is treated as a one-channel frequency x time
image by a four-level 3x3 conv stack; the last N level maps are pooled to a
small fixed grid, flattened, concatenated, and classified by two fully
connected layers.

A Model is immutable during forward; parameter mutation happens only in the
optimizer step, which requires exclusive access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .config import Config
from .errors import ConfigError, ShapeError
from .tensor import DTYPES, Parameter, Tensor, no_grad


@dataclass(frozen=True)
class BranchSpec(Config):
    """One front-end branch: 1-D conv geometry and filter count."""
    positional = True

    filter_len: int
    stride: int
    num_filters: int

    def validate(self) -> None:
        if not (self.filter_len >= self.stride >= 1):
            raise ConfigError(f"branch requires filter_len >= stride >= 1, got {self}")
        if self.num_filters < 1:
            raise ConfigError(f"branch needs at least one filter, got {self}")


def _conv1d_out_len(length: int, k: int, stride: int) -> int:
    if length < k:
        raise ConfigError(f"conv input length {length} < filter length {k}")
    return (length - k) // stride + 1


@dataclass
class ModelConfig(Config):
    """Full architecture description; defaults are the full-scale configuration."""
    branches: tuple[BranchSpec, ...] = (
        BranchSpec(11, 1, 32),
        BranchSpec(51, 5, 32),
        BranchSpec(101, 10, 32),
    )
    phase_filter_len: int = 3
    phase_stride: int = 1
    frontend_time_bins: int = 441
    conv_channels: tuple[int, ...] = (64, 128, 256, 256)
    level_pool_windows: tuple[tuple[int, int], ...] = ((2, 2), (2, 2), (2, 2), (2, 2))
    level_pool_target: tuple[int, int] = (4, 5)
    last_n_levels: int = 4
    fc_hidden: int = 512
    num_classes: int = 50
    window_length: int = 66150
    sample_rate: int = 44100
    relu_after_branch_conv: bool = True

    def validate(self) -> None:
        if not self.branches:
            raise ConfigError("at least one branch is required")
        if self.phase_filter_len < 1 or self.phase_stride < 1:
            raise ConfigError("phase conv needs filter_len >= 1 and stride >= 1")
        if not 1 <= self.last_n_levels <= len(self.conv_channels):
            raise ConfigError(
                f"last_n_levels must be in 1..{len(self.conv_channels)}, got {self.last_n_levels}")
        if len(self.level_pool_windows) != len(self.conv_channels):
            raise ConfigError("need one pool window per conv level")
        if min(min(wd) for wd in self.level_pool_windows) < 1 or min(self.level_pool_target) < 1:
            raise ConfigError("pool windows and the level pool target must be positive")
        if self.fc_hidden < 1 or self.num_classes < 2:
            raise ConfigError("fc_hidden >= 1 and num_classes >= 2 required")
        if self.window_length < 1 or self.sample_rate < 1:
            raise ConfigError("window_length and sample_rate must be positive")

        for i, length in enumerate(self.branch_prepool_lengths()):
            if length < self.frontend_time_bins:
                raise ConfigError(
                    f"branch {i}: pre-pool length {length} < frontend_time_bins "
                    f"{self.frontend_time_bins}")
        th, tw = self.level_pool_target
        shapes = self.level_map_shapes()
        for idx in self.selected_levels():
            _, h, w = shapes[idx]
            if h < th or w < tw:
                raise ConfigError(
                    f"level {idx + 1} map {shapes[idx]} smaller than pool target {th}x{tw}")

    # --- shape chain -----------------------------------------------------

    def branch_prepool_lengths(self) -> list[int]:
        """Time extent of each branch after its two convolutions."""
        lengths = []
        for b in self.branches:
            l1 = _conv1d_out_len(self.window_length, b.filter_len, b.stride)
            lengths.append(_conv1d_out_len(l1, self.phase_filter_len, self.phase_stride))
        return lengths

    @property
    def frontend_rows(self) -> int:
        return sum(b.num_filters for b in self.branches)

    def frontend_shape(self) -> tuple[int, int, int]:
        return (1, self.frontend_rows, self.frontend_time_bins)

    def level_map_shapes(self) -> list[tuple[int, int, int]]:
        """(channels, height, width) of every level map, after its pool."""
        h, w = self.frontend_rows, self.frontend_time_bins
        shapes = []
        for ch, (ph, pw) in zip(self.conv_channels, self.level_pool_windows):
            h, w = h // ph, w // pw
            if h < 1 or w < 1:
                raise ConfigError(f"pooling collapses a level map below 1x1 (got {h}x{w})")
            shapes.append((ch, h, w))
        return shapes

    def selected_levels(self) -> list[int]:
        """Indices of the level maps that feed the classifier head, ascending."""
        n = len(self.conv_channels)
        return list(range(n - self.last_n_levels, n))

    def fc_input_dim(self) -> int:
        th, tw = self.level_pool_target
        return sum(self.conv_channels[i] * th * tw for i in self.selected_levels())

    # --- parameter table --------------------------------------------------

    def parameter_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Named parameter shapes in their fixed (serialization) order."""
        table: list[tuple[str, tuple[int, ...]]] = []
        for i, b in enumerate(self.branches, start=1):
            table.append((f"branch{i}.conv.weight", (b.num_filters, 1, b.filter_len)))
            table.append((f"branch{i}.conv.bias", (b.num_filters,)))
            table.append((f"branch{i}.phase.weight",
                          (b.num_filters, b.num_filters, self.phase_filter_len)))
            table.append((f"branch{i}.phase.bias", (b.num_filters,)))
        prev = 1
        for l, ch in enumerate(self.conv_channels, start=1):
            table.append((f"conv{l}.weight", (ch, prev, 3, 3)))
            table.append((f"conv{l}.bias", (ch,)))
            prev = ch
        table.append(("fc1.weight", (self.fc_hidden, self.fc_input_dim())))
        table.append(("fc1.bias", (self.fc_hidden,)))
        table.append(("fc2.weight", (self.num_classes, self.fc_hidden)))
        table.append(("fc2.bias", (self.num_classes,)))
        return table


def full_scale_config(num_classes: int = 50) -> ModelConfig:
    """The full-size architecture (1.5 s windows at 44.1 kHz, 50 classes)."""
    return ModelConfig(num_classes=num_classes)


def single_branch_variant(config: ModelConfig, which: str) -> ModelConfig:
    """Single-temporal-resolution variant: keep one branch, triple its filters.

    ``which`` names the surviving branch by its temporal-resolution label
    (low/middle/high = branch index 0/1/2). The kept branch takes over the
    full filter budget, so the frontend output shape and the entire
    back-end stay unchanged across variants.
    """
    order = {"low": 0, "middle": 1, "high": 2}
    if which not in order:
        raise ValueError(f"which must be one of {sorted(order)}, got {which!r}")
    idx = order[which]
    if idx >= len(config.branches):
        raise ConfigError(f"config has no branch {idx}")
    total = config.frontend_rows
    kept = replace(config.branches[idx], num_filters=total)
    return replace(config, branches=(kept,))


def param_count(config: ModelConfig) -> int:
    """Exact scalar count across all parameters."""
    return sum(int(np.prod(shape)) for _, shape in config.parameter_shapes())


def _uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...],
                    fan_in: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Model:
    """Parameters plus forward passes for one architecture configuration."""

    def __init__(self, config: ModelConfig, params: dict[str, Parameter],
                 precision: str = "single"):
        self.config = config
        self._params = params
        self.precision = precision

    # --- parameter access --------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return [(name, self._params[name]) for name, _ in self.config.parameter_shapes()]

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def param(self, name: str) -> Parameter:
        return self._params[name]

    @property
    def window_length(self) -> int:
        return self.config.window_length

    # --- forward -----------------------------------------------------------

    def _as_input(self, wave) -> Tensor:
        dtype = DTYPES[self.precision]
        if isinstance(wave, Tensor):
            if wave.data.dtype != dtype:
                raise ValueError(f"wave dtype {wave.data.dtype} != model precision {self.precision}")
            t = wave
        else:
            t = Tensor(np.asarray(wave, dtype=dtype))
        if t.shape == (self.config.window_length,):
            t = ops.reshape(t, (1, self.config.window_length))
        if t.shape != (1, self.config.window_length):
            raise ShapeError(
                f"wave must have shape (1, {self.config.window_length}), got {t.shape}")
        return t

    def forward_frontend(self, wave) -> Tensor:
        """Input window -> one-channel (frequency x time) feature image.

        The front end is one :func:`ops.frontend` node, recorded or not:
        each branch computes its branch conv's rows as its phase conv reads
        them, so no branch's unpooled map exists whole in forward or is kept
        for backward, which computes it again; the pooled branch maps are
        stacked once, into the node's output. Training and eval run the same
        front end.
        """
        cfg = self.config
        x = self._as_input(wave)
        branches = [(self.param(f"branch{i}.conv.weight").value,
                     self.param(f"branch{i}.conv.bias").value, b.stride,
                     self.param(f"branch{i}.phase.weight").value,
                     self.param(f"branch{i}.phase.bias").value)
                    for i, b in enumerate(cfg.branches, start=1)]
        return ops.frontend(x, branches, cfg.relu_after_branch_conv, cfg.phase_stride,
                            cfg.frontend_time_bins)

    def forward_backend(self, featmap: Tensor) -> tuple[Tensor, list[Tensor]]:
        """Feature image -> (logits, all level maps).

        Each level is one pooled :func:`ops.conv2d` node; the head's
        features, every selected level map pooled to the target grid,
        flattened and concatenated, are one :func:`ops.level_features`
        node, which keeps the features and one winner per feature.
        """
        cfg = self.config
        if featmap.shape != cfg.frontend_shape():
            raise ShapeError(f"featmap shape {featmap.shape} != {cfg.frontend_shape()}")
        x = featmap
        level_maps: list[Tensor] = []
        for l, window in enumerate(cfg.level_pool_windows, start=1):
            x = ops.conv2d(x, self.param(f"conv{l}.weight").value,
                           self.param(f"conv{l}.bias").value, relu=True, pool=window)
            level_maps.append(x)

        features = ops.level_features([level_maps[idx] for idx in cfg.selected_levels()],
                                      cfg.level_pool_target)
        h = ops.relu(ops.linear(features, self.param("fc1.weight").value,
                                self.param("fc1.bias").value))
        logits = ops.linear(h, self.param("fc2.weight").value,
                            self.param("fc2.bias").value)
        return logits, level_maps

    def forward(self, wave) -> Tensor:
        logits, _ = self.forward_backend(self.forward_frontend(wave))
        return logits

    def predict_proba(self, wave) -> np.ndarray:
        """Softmax class probabilities for one window (no graph recorded)."""
        with no_grad():
            logits = self.forward(wave)
        return ops.softmax_probs(logits.data.astype(np.float64))


def build_model(config: ModelConfig, seed: int, precision: str = "single") -> Model:
    """Construct a model with seeded uniform(+-sqrt(6/fan_in)) weights, zero biases.

    Parameters are drawn in table order, so two configs differing only in
    later layers share identical earlier weights for the same seed.
    """
    if precision not in DTYPES:
        raise ValueError(f"precision must be one of {sorted(DTYPES)}, got {precision!r}")
    dtype = DTYPES[precision]
    rng = np.random.default_rng(seed)
    params: dict[str, Parameter] = {}
    for name, shape in config.parameter_shapes():
        if name.endswith(".bias"):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = _uniform_fan_in(rng, shape, int(np.prod(shape[1:])), dtype)
        params[name] = make_parameter(name, data)
    return Model(config, params, precision)


def make_parameter(name: str, data: np.ndarray,
                   velocity: np.ndarray | None = None) -> Parameter:
    """The parameter called ``name``, holding ``data`` itself and ``velocity``
    (zeros if not given); biases skip weight decay."""
    return Parameter(Tensor(data), decay_exempt=name.endswith(".bias"), velocity=velocity)
