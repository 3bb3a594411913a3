"""Float64 reference forward pass and probability voting, in plain numpy.

Written from the architecture description alone, so the benchmark can check
the program's outputs against an independent computation. Nothing here
calls ``wavems.ops`` or ``Model.forward``; the model config is read only for
its layer geometry.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv1d(x, w, b, stride):
    """Valid 1-D cross-correlation. x (C, L), w (F, C, k), b (F,) -> (F, Lout)."""
    k = w.shape[2]
    taps = sliding_window_view(x, k, axis=1)[:, ::stride]  # (C, Lout, k)
    return np.tensordot(w, taps, axes=([1, 2], [0, 2])) + b[:, None]


def conv2d(x, w, b):
    """3x3 cross-correlation, zero padding 1. x (C, H, W) -> (F, H, W)."""
    xpad = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    taps = sliding_window_view(xpad, (3, 3), axis=(1, 2))  # (C, H, W, 3, 3)
    return np.tensordot(w, taps, axes=([1, 2, 3], [0, 3, 4])) + b[:, None, None]


def relu(x):
    return np.maximum(x, 0.0)


def maxpool2d(x, window):
    """Non-overlapping max pool; a partial last row or column of tiles drops."""
    h, w = window
    c, hin, win = x.shape
    ho, wo = hin // h, win // w
    return x[:, :ho * h, :wo * w].reshape(c, ho, h, wo, w).max(axis=(2, 4))


def adaptive_maxpool(x, target, axis):
    """Max over bins [floor(i*L/target), floor((i+1)*L/target)) of one axis."""
    length = x.shape[axis]
    starts = (np.arange(target) * length) // target
    return np.maximum.reduceat(x, starts, axis=axis)


def forward(config, params, wave):
    """Logits of one window. ``params`` maps parameter names to arrays."""
    p = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}
    x = np.asarray(wave, dtype=np.float64).reshape(1, -1)
    rows = []
    for i, branch in enumerate(config.branches, start=1):
        y = conv1d(x, p[f"branch{i}.conv.weight"], p[f"branch{i}.conv.bias"],
                   branch.stride)
        if config.relu_after_branch_conv:
            y = relu(y)
        y = relu(conv1d(y, p[f"branch{i}.phase.weight"],
                        p[f"branch{i}.phase.bias"], config.phase_stride))
        rows.append(adaptive_maxpool(y, config.frontend_time_bins, axis=1))
    x = np.concatenate(rows, axis=0)[None]

    levels = []
    for l, window in enumerate(config.level_pool_windows, start=1):
        x = maxpool2d(relu(conv2d(x, p[f"conv{l}.weight"], p[f"conv{l}.bias"])),
                      window)
        levels.append(x)
    th, tw = config.level_pool_target
    n = len(levels)
    features = np.concatenate([
        adaptive_maxpool(adaptive_maxpool(m, th, axis=1), tw, axis=2).ravel()
        for m in levels[n - config.last_n_levels:]])
    hidden = relu(p["fc1.weight"] @ features + p["fc1.bias"])
    return p["fc2.weight"] @ hidden + p["fc2.bias"]


def softmax(logits):
    z = np.exp(logits - logits.max())
    return z / z.sum()


def cross_entropy(logits, label):
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[label])


def vote_starts(n_samples, window_length, hop):
    """Window starts for probability voting: every ``hop`` samples, plus one
    window anchored at the end of the clip when the regular ones miss it.
    A clip shorter than a window gives one (padded) window."""
    n = max(n_samples, window_length)
    regular = max((n - window_length) // hop, 1)
    starts = list(range(0, regular * hop, hop))
    if n - window_length > starts[-1]:
        starts.append(n - window_length)
    return starts
