"""Differentiable operations over :class:`~wavems.tensor.Tensor`.

Only the operators the architecture needs. Max selections route gradients to
the first (lowest-index) maximum.

Convolutions have two kernel families. The reference kernels, the default,
accumulate taps in a fixed (channel, tap) order, so their results are
bit-identical to a sequential nested-loop evaluation at the same precision,
on any BLAS and at any thread count. Inside :class:`gemm_kernels` both
convolutions instead build im2col columns and run one matrix multiply per
chunk of output positions. That is many times faster, but the summation
order is BLAS's: results agree with the reference kernels to rounding and
repeat bit for bit only with the same BLAS build and thread count.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError
from .tensor import Tensor, accumulate_grad, make_node

_gemm_enabled = False


class gemm_kernels:
    """Context manager that routes :func:`conv1d` and :func:`conv2d` to
    their GEMM kernels; ``gemm_kernels(False)`` selects the reference
    kernels instead. The previous choice returns on exit.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)

    def __enter__(self):
        global _gemm_enabled
        self._prev = _gemm_enabled
        _gemm_enabled = self.enabled
        return self

    def __exit__(self, *exc):
        global _gemm_enabled
        _gemm_enabled = self._prev
        return False


def _check_dtypes(*tensors: Tensor) -> np.dtype:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ValueError(
                f"mixed-precision graph: {t.data.dtype.name} vs {dt.name}")
    return dt


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Valid (unpadded) 1-D cross-correlation.

    x: (C_in, L), weight: (C_out, C_in, k), bias: (C_out,).
    Output length is floor((L - k) / stride) + 1.
    """
    _check_dtypes(x, weight, bias)
    if not isinstance(stride, (int, np.integer)) or stride <= 0:
        raise ValueError(f"stride must be a positive int, got {stride!r}")
    if x.data.ndim != 2 or weight.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeError(
            f"conv1d expects (C,L), (F,C,k), (F,); got {x.shape}, {weight.shape}, {bias.shape}")
    cin, length = x.shape
    fout, cw, k = weight.shape
    if cw != cin:
        raise ShapeError(f"conv1d channel mismatch: input {cin}, weight {cw}")
    if bias.shape != (fout,):
        raise ShapeError(f"conv1d bias shape {bias.shape} != ({fout},)")
    if length < k:
        raise ShapeError(f"conv1d input length {length} < filter length {k}")

    if _gemm_enabled:
        return _gemm_conv(x, x.data, weight, bias, lambda a, **kw: sliding_window_view(
            a, k, axis=1, **kw)[:, ::stride], lambda gx: gx)

    lout = (length - k) // stride + 1
    span = (lout - 1) * stride + 1
    xd, wd = x.data, weight.data

    out = np.broadcast_to(bias.data[:, None], (fout, lout)).copy()
    for c in range(cin):
        for j in range(k):
            out += wd[:, c, j][:, None] * xd[c, j:j + span:stride][None, :]

    def _bw(g: np.ndarray) -> None:
        if x.requires_grad:
            gx = np.zeros_like(xd)
            for c in range(cin):
                for j in range(k):
                    gx[c, j:j + span:stride] += wd[:, c, j] @ g
            accumulate_grad(x, gx)
        if weight.requires_grad:
            gw = np.empty_like(wd)
            for c in range(cin):
                for j in range(k):
                    gw[:, c, j] = g @ xd[c, j:j + span:stride]
            accumulate_grad(weight, gw)
        if bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=1))

    return make_node(out, (x, weight, bias), _bw)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """3x3 cross-correlation, stride 1, zero padding 1 (same-size output).

    x: (C, H, W), weight: (F, C, 3, 3), bias: (F,). The kernel size is fixed
    by the architecture; anything else is an argument error.
    """
    _check_dtypes(x, weight, bias)
    if x.data.ndim != 3 or weight.data.ndim != 4 or bias.data.ndim != 1:
        raise ShapeError(
            f"conv2d expects (C,H,W), (F,C,3,3), (F,); got {x.shape}, {weight.shape}, {bias.shape}")
    cin, h, w = x.shape
    fout, cw, kh, kw = weight.shape
    if (kh, kw) != (3, 3):
        raise ValueError(f"conv2d kernel must be 3x3, got {kh}x{kw}")
    if cw != cin:
        raise ShapeError(f"conv2d channel mismatch: input {cin}, weight {cw}")
    if bias.shape != (fout,):
        raise ShapeError(f"conv2d bias shape {bias.shape} != ({fout},)")

    xpad = np.zeros((cin, h + 2, w + 2), dtype=x.data.dtype)
    xpad[:, 1:-1, 1:-1] = x.data
    if _gemm_enabled:
        return _gemm_conv(x, xpad, weight, bias, lambda a, **kw: sliding_window_view(
            a, (3, 3), axis=(1, 2), **kw), lambda gpad: gpad[:, 1:-1, 1:-1])
    wd = weight.data

    out = np.broadcast_to(bias.data[:, None, None], (fout, h, w)).copy()
    for c in range(cin):
        for i in range(3):
            for j in range(3):
                out += wd[:, c, i, j][:, None, None] * xpad[c, i:i + h, j:j + w][None]

    def _bw(g: np.ndarray) -> None:
        gflat = g.reshape(fout, -1)
        if x.requires_grad:
            gpad = np.zeros_like(xpad)
            for c in range(cin):
                for i in range(3):
                    for j in range(3):
                        gpad[c, i:i + h, j:j + w] += (wd[:, c, i, j] @ gflat).reshape(h, w)
            accumulate_grad(x, gpad[:, 1:-1, 1:-1])
        if weight.requires_grad:
            gw = np.empty_like(wd)
            for c in range(cin):
                for i in range(3):
                    for j in range(3):
                        gw[:, c, i, j] = gflat @ xpad[c, i:i + h, j:j + w].reshape(-1)
            accumulate_grad(weight, gw)
        if bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=(1, 2)))

    return make_node(out, (x, weight, bias), _bw)


def _gemm_conv(x: Tensor, src: np.ndarray, weight: Tensor, bias: Tensor,
               windows, crop) -> Tensor:
    """GEMM form of a convolution node.

    ``windows(a, writeable=False)`` views ``a`` (``src`` or its gradient) as
    (C, P, *S, *taps): the taps under every output position, with P the axis
    the work is chunked along. ``crop`` maps the gradient of ``src`` to the
    shape of ``x``. Each chunk's (C*taps, n) column buffer is no larger than
    the output, and backward rebuilds the columns rather than keeping them.
    """
    wd = weight.data
    fout, taps = wd.shape[0], wd.shape[2:]
    w2 = wd.reshape(fout, -1)
    win = windows(src)
    out = np.empty((fout,) + win.shape[1:win.ndim - len(taps)], dtype=src.dtype)
    flat = out.reshape(fout, -1)
    rows, per_row = win.shape[1], flat.shape[1] // win.shape[1]
    # rows of P per chunk, so that depth * step * |S| <= fout * P * |S|
    step = max(1, fout * rows // w2.shape[1])
    chunks = [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]

    def columns(lo: int, hi: int) -> np.ndarray:
        part = win[:, lo:hi]
        tap_axes = range(part.ndim - len(taps), part.ndim)
        return np.moveaxis(part, tap_axes, range(1, len(taps) + 1)).reshape(w2.shape[1], -1)

    for lo, hi in chunks:  # straight into the output, no product temporary
        np.matmul(w2, columns(lo, hi), out=flat[:, lo * per_row:hi * per_row])
    out += bias.data.reshape((fout,) + (1,) * (out.ndim - 1))

    def _bw(g: np.ndarray) -> None:
        gw = np.zeros_like(w2) if weight.requires_grad else None
        gsrc = np.zeros_like(src) if x.requires_grad else None
        gwin = None if gsrc is None else windows(gsrc, writeable=True)
        for lo, hi in chunks:
            gc = g[:, lo:hi].reshape(fout, -1)
            if gw is not None:
                gw += gc @ columns(lo, hi).T
            if gwin is not None:
                target = gwin[:, lo:hi]
                gcols = (w2.T @ gc).reshape((-1,) + taps + target.shape[1:-len(taps)])
                # one add per tap: within a tap no two positions share an element
                for tap in np.ndindex(*taps):
                    target[(Ellipsis,) + tap] += gcols[(slice(None),) + tap]
        if gsrc is not None:
            accumulate_grad(x, crop(gsrc))
        if gw is not None:
            accumulate_grad(weight, gw.reshape(wd.shape))
        if bias.requires_grad:
            accumulate_grad(bias, g.reshape(fout, -1).sum(axis=1))

    return make_node(out, (x, weight, bias), _bw)


def maxpool2d(x: Tensor, window: tuple[int, int]) -> Tensor:
    """Non-overlapping max pooling; trailing rows/cols without a full window drop.

    Gradient flows to the first maximum in window raster order on ties.
    """
    h, w = window
    if h <= 0 or w <= 0:
        raise ValueError(f"pool window must be positive, got {window}")
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool2d expects (C,H,W), got {x.shape}")
    c, hin, win = x.shape
    if h > hin or w > win:
        raise ShapeError(f"pool window {window} exceeds input {hin}x{win}")
    hout, wout = hin // h, win // w

    tiles = (x.data[:, :hout * h, :wout * w]
             .reshape(c, hout, h, wout, w)
             .transpose(0, 1, 3, 2, 4)
             .reshape(c, hout, wout, h * w))
    out = tiles.max(axis=3)

    def _bw(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        idx = tiles.argmax(axis=3)  # first occurrence on ties
        gt = np.zeros_like(tiles)
        np.put_along_axis(gt, idx[..., None], g[..., None], axis=3)
        gx = np.zeros_like(x.data)
        gx[:, :hout * h, :wout * w] = (gt.reshape(c, hout, wout, h, w)
                                       .transpose(0, 1, 3, 2, 4)
                                       .reshape(c, hout * h, wout * w))
        accumulate_grad(x, gx)

    return make_node(out, (x,), _bw)


def adaptive_maxpool(x: Tensor, target: int, axis: int) -> Tensor:
    """Max-pool one axis down to exactly ``target`` bins.

    Bin i covers input indices [floor(i*L/target), floor((i+1)*L/target));
    every index lands in exactly one bin and no bin is empty.
    """
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    length = x.shape[axis]
    if length < target:
        raise ShapeError(f"axis extent {length} < pool target {target}")

    bounds = [(i * length) // target for i in range(target + 1)]
    xm = np.moveaxis(x.data, axis, -1)
    out = np.empty(xm.shape[:-1] + (target,), dtype=x.data.dtype)
    for i in range(target):
        out[..., i] = xm[..., bounds[i]:bounds[i + 1]].max(axis=-1)

    def _bw(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gm = np.moveaxis(g, axis, -1)
        gout = np.zeros_like(xm)
        for i in range(target):
            seg = xm[..., bounds[i]:bounds[i + 1]]
            idx = seg.argmax(axis=-1)
            np.put_along_axis(gout[..., bounds[i]:bounds[i + 1]],
                              idx[..., None], gm[..., i:i + 1], axis=-1)
        accumulate_grad(x, np.ascontiguousarray(np.moveaxis(gout, -1, axis)))

    return make_node(np.ascontiguousarray(np.moveaxis(out, -1, axis)), (x,), _bw)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0."""
    out = np.maximum(x.data, 0)

    def _bw(g: np.ndarray) -> None:
        accumulate_grad(x, g * (x.data > 0))

    return make_node(out, (x,), _bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: weight (O, D) @ x (D,) + bias (O,)."""
    _check_dtypes(x, weight, bias)
    if x.data.ndim != 1 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError(
            f"linear expects (D,), (O,D), (O,); got {x.shape}, {weight.shape}, {bias.shape}")
    o, d = weight.shape
    if x.shape != (d,) or bias.shape != (o,):
        raise ShapeError(
            f"linear dimension mismatch: x {x.shape}, weight {weight.shape}, bias {bias.shape}")

    out = weight.data @ x.data + bias.data

    def _bw(g: np.ndarray) -> None:
        if x.requires_grad:
            accumulate_grad(x, g @ weight.data)
        if weight.requires_grad:
            accumulate_grad(weight, np.outer(g, x.data))
        if bias.requires_grad:
            accumulate_grad(bias, g)

    return make_node(out, (x, weight, bias), _bw)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    """Stack tensors along ``axis``; all other extents must agree."""
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    _check_dtypes(*tensors)
    ndim = tensors[0].data.ndim
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        if t.data.ndim != ndim:
            raise ShapeError(f"concat rank mismatch: {t.shape} vs {tensors[0].shape}")
        other = list(t.shape)
        other[axis] = ref[axis]
        if other != ref:
            raise ShapeError(f"concat extent mismatch off axis {axis}: {t.shape} vs {tensors[0].shape}")

    out = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def _bw(g: np.ndarray) -> None:
        gm = np.moveaxis(g, axis, 0)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            accumulate_grad(t, np.ascontiguousarray(
                np.moveaxis(gm[lo:hi], 0, axis)))

    return make_node(out, tensors, _bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def _bw(g: np.ndarray) -> None:
        accumulate_grad(x, g.reshape(x.shape))

    return make_node(out, (x,), _bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (no broadcasting)."""
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def _bw(g: np.ndarray) -> None:
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return make_node(out, (a, b), _bw)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar constant."""
    out = x.data * factor

    def _bw(g: np.ndarray) -> None:
        accumulate_grad(x, g * factor)

    return make_node(out, (x,), _bw)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements as a scalar tensor."""
    out = x.data.sum()

    def _bw(g: np.ndarray) -> None:
        accumulate_grad(x, np.full_like(x.data, g))

    return make_node(out, (x,), _bw)


def softmax_cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Cross-entropy of softmax(logits) against a class index.

    Computed with max-subtraction so large logits cannot overflow.
    Gradient is softmax(logits) - onehot(label).
    """
    if logits.data.ndim != 1:
        raise ShapeError(f"logits must be 1-D, got {logits.shape}")
    k = logits.shape[0]
    if not 0 <= label < k:
        raise ValueError(f"label {label} out of range for {k} classes")

    z = logits.data - logits.data.max()
    ez = np.exp(z)
    denom = ez.sum()
    p = ez / denom
    loss = np.log(denom) - z[label]

    def _bw(g: np.ndarray) -> None:
        gl = p.copy()
        gl[label] -= 1
        accumulate_grad(logits, gl * g)

    return make_node(np.asarray(loss, dtype=logits.data.dtype), (logits,), _bw)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Plain softmax on a numpy vector (inference paths)."""
    z = logits - logits.max()
    ez = np.exp(z)
    return ez / ez.sum()
