"""Differentiable operations over :class:`~wavems.tensor.Tensor`.

Only the operators the architecture needs.

Both max pools output each bin's maximum and route each bin's gradient to
its first maximum (window raster order for :func:`maxpool2d`, lowest index
for :func:`adaptive_maxpool`). A bin holding NaN outputs NaN and passes no
gradient. The input's shape picks one of two kernels, neither of which
keeps a copy of the input:

- an :func:`adaptive_maxpool` over the last axis is a bin reduction
  (:func:`_pool_bins`): one ``np.maximum.reduceat`` forward, and a backward
  that scatters each bin's gradient to its first element equal to the
  bin's output;
- ``maxpool2d`` and an ``adaptive_maxpool`` over any other axis take a
  running maximum over output-shaped strided slices or gathers of the
  input (:func:`_pool`). There, ``reduceat`` would walk the input with a
  stride and was measured slower.

Convolutions view their input, once per call, as a tap-leading window
array (C, *taps, P, *S): element [c, *t, p, *s] is the input element under
tap t of output position (p, *s), read through the input's own strides with
no copy. They have two kernel families. The reference kernels, the default,
accumulate taps in a fixed (channel, tap) order, so their results are
bit-identical to a sequential nested-loop evaluation at the same precision,
on any BLAS and at any thread count. Inside :class:`gemm_kernels` both
convolutions instead copy that view into im2col columns and run one matrix
multiply per chunk of output positions; a chunk's columns hold at most the
larger of the output's size and a fixed budget of elements, so a small
layer is one chunk. That is many times faster, but the summation order is
BLAS's: results agree with the reference kernels to rounding and repeat bit
for bit only with the same BLAS build and thread count. The choice is per
thread.

Both convolutions take ``relu=True`` to apply max(0, .) inside the same
node, with the same results as :func:`relu` on their output. The node keeps
only its output: the ReLU mask is read off the output, and ``conv2d``'s
zero-padded input is built again in backward rather than kept.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, make_node


class _KernelChoice(threading.local):
    gemm = False  # every thread starts on the reference kernels


_kernels = _KernelChoice()


class gemm_kernels:
    """Context manager that routes :func:`conv1d` and :func:`conv2d` to
    their GEMM kernels in the calling thread; ``gemm_kernels(False)``
    selects the reference kernels instead. The previous choice returns on
    exit.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)

    def __enter__(self):
        self._prev = _kernels.gemm
        _kernels.gemm = self.enabled
        return self

    def __exit__(self, *exc):
        _kernels.gemm = self._prev
        return False


def gemm_enabled() -> bool:
    """Whether convolutions in the calling thread use the GEMM kernels."""
    return _kernels.gemm


def _check_dtypes(*tensors: Tensor) -> np.dtype:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ValueError(
                f"mixed-precision graph: {t.data.dtype.name} vs {dt.name}")
    return dt


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
           relu: bool = False) -> Tensor:
    """Valid (unpadded) 1-D cross-correlation, followed by max(0, .) if
    ``relu`` is set.

    x: (C_in, L), weight: (C_out, C_in, k), bias: (C_out,).
    Output length is floor((L - k) / stride) + 1. The node reads ``x``'s
    own data in forward and again in backward, so it keeps no copy of it.
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

    return _conv(x, weight, bias, stride, 0, relu)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """3x3 cross-correlation, stride 1, zero padding 1 (same-size output),
    followed by max(0, .) if ``relu`` is set.

    x: (C, H, W), weight: (F, C, 3, 3), bias: (F,). The kernel size is fixed
    by the architecture; anything else is an argument error. The padded
    input lives only while forward runs and is built again in backward.
    """
    _check_dtypes(x, weight, bias)
    if x.data.ndim != 3 or weight.data.ndim != 4 or bias.data.ndim != 1:
        raise ShapeError(
            f"conv2d expects (C,H,W), (F,C,3,3), (F,); got {x.shape}, {weight.shape}, {bias.shape}")
    cin = x.shape[0]
    fout, cw, kh, kw = weight.shape
    if (kh, kw) != (3, 3):
        raise ValueError(f"conv2d kernel must be 3x3, got {kh}x{kw}")
    if cw != cin:
        raise ShapeError(f"conv2d channel mismatch: input {cin}, weight {cw}")
    if bias.shape != (fout,):
        raise ShapeError(f"conv2d bias shape {bias.shape} != ({fout},)")

    return _conv(x, weight, bias, 1, 1, relu)


#: Elements a GEMM chunk's im2col columns may hold when the output is smaller
#: (4 MiB in float32), so a small layer is one matmul, not many narrow ones.
_COLUMN_BUDGET = 1 << 20


def _padded(a: np.ndarray, pad: int) -> np.ndarray:
    """``a`` with ``pad`` zeros on both sides of every axis but the first;
    ``a`` itself when ``pad`` is 0."""
    if not pad:
        return a
    out = np.zeros((a.shape[0],) + tuple(d + 2 * pad for d in a.shape[1:]), dtype=a.dtype)
    _unpadded(out, pad)[...] = a
    return out


def _unpadded(a: np.ndarray, pad: int) -> np.ndarray:
    """The view of a :func:`_padded` array that holds the original."""
    return a[(slice(None),) + (slice(pad, -pad),) * (a.ndim - 1)] if pad else a


def _windows(a: np.ndarray, taps: tuple[int, ...], stride: int,
             writeable: bool = False) -> np.ndarray:
    """The (C, *taps, P, *S) view of a C-contiguous (C, *spatial) array:
    element [c, *t, p, *s] is a[c, p*stride + t[0], s + t[1:]]. ``stride``
    applies to the first spatial axis (P); the others step by one.

    The view is built on ``a``'s buffer with ``a``'s own strides, which
    numpy checks against the buffer's size; ``as_strided`` makes the same
    view without that check and takes about ten times as long per call.
    """
    c, *dims = a.shape
    channel, *steps = a.strides
    positions = ((dims[0] - taps[0]) // stride + 1,) + tuple(
        d - k + 1 for d, k in zip(dims[1:], taps[1:]))
    view = np.ndarray((c, *taps, *positions), a.dtype, a, 0,
                      (channel, *steps, steps[0] * stride, *steps[1:]))
    view.flags.writeable = writeable
    return view


def _terms(channels: int, taps: tuple[int, ...]):
    """Weight and window indices of each (channel, tap) term, in the
    reference summation order: channels outer, taps in raster order."""
    for c in range(channels):
        for tap in itertools.product(*map(range, taps)):
            yield (slice(None), c) + tap, (c,) + tap


def _conv(x: Tensor, weight: Tensor, bias: Tensor, stride: int, pad: int,
          relu: bool) -> Tensor:
    """One convolution node, in the kernel family selected when it is built,
    with an optional ReLU fused in.

    The source is ``x``'s data with ``pad`` zeros around each spatial axis
    (:func:`_padded`; ``x``'s own array when ``pad`` is 0), read through one
    (C, *taps, P, *S) view (:func:`_windows`) per call: the taps under every
    output position, with P the first output axis and ``stride`` its step.
    The node keeps no source: backward builds it again from ``x`` and
    writes the source's gradient through the same view of a zero array,
    whose unpadded part is ``x``'s gradient.

    The reference family starts each output from its bias and adds one
    (channel, tap) term at a time, in the order of :func:`_terms`; each term
    reads the same elements as a nested-loop evaluation, so results are
    bit-reproducible on any BLAS. The GEMM family (inside
    :class:`gemm_kernels`) multiplies the (F, C*taps) weights by im2col
    columns one chunk of P at a time and adds the bias last; backward
    rebuilds the columns rather than keeping them, and builds its per-tap
    index list only when ``x`` needs a gradient. A chunk's (C*taps, n)
    column buffer holds at most max(output size, ``_COLUMN_BUDGET``)
    elements, and at least one row of P. The chunk rule fixes each matmul's
    operands, so it also fixes the result bits.

    With ``relu`` set, both families clamp the biased output at 0 in place,
    and backward passes the output gradient only where the output is above
    0: the same mask as on the pre-activation, so the subgradient at exactly
    0 is 0 and the results are those of :func:`relu` after the convolution,
    bit for bit. The node then holds the post-activation output alone.
    """
    wd = weight.data
    fout, taps = wd.shape[0], wd.shape[2:]
    win = _windows(_padded(x.data, pad), taps, stride)
    out = np.empty((fout,) + win.shape[1 + len(taps):], dtype=win.dtype)
    col = (fout,) + (1,) * (out.ndim - 1)  # a per-filter value against the output

    if _kernels.gemm:
        w2 = wd.reshape(fout, -1)
        flat = out.reshape(fout, -1)
        rows, per_row = out.shape[1], flat.shape[1] // out.shape[1]
        # rows of P per chunk, so that depth * step * per_row <= max(|out|, budget)
        step = max(1, max(out.size, _COLUMN_BUDGET) // (w2.shape[1] * per_row))
        chunks = [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
        lead = (slice(None),) * (1 + len(taps))  # the (C, *taps) axes of a window view

        def columns(win: np.ndarray, p: slice) -> np.ndarray:
            return win[lead + (p,)].reshape(w2.shape[1], -1)

        for p in chunks:  # straight into the output, no product temporary
            np.matmul(w2, columns(win, p), out=flat[:, p.start * per_row:p.stop * per_row])
        out += bias.data.reshape(col)

        def grads(g: np.ndarray, win: np.ndarray, gw, gwin) -> None:
            gw2 = None if gw is None else gw.reshape(fout, -1)
            if gwin is not None:
                tap_index = [(slice(None),) + tap
                             for tap in itertools.product(*map(range, taps))]
            for p in chunks:
                gc = g[:, p].reshape(fout, -1)
                if gw2 is not None:
                    gw2 += gc @ columns(win, p).T
                if gwin is not None:
                    target = gwin[lead + (p,)]
                    gcols = (w2.T @ gc).reshape(target.shape)
                    # one add per tap: within a tap no two positions share an element
                    for tap in tap_index:
                        target[tap] += gcols[tap]
    else:
        out[...] = bias.data.reshape(col)
        for wi, xi in _terms(win.shape[0], taps):
            out += wd[wi].reshape(col) * win[xi]

        def grads(g: np.ndarray, win: np.ndarray, gw, gwin) -> None:
            gflat = g.reshape(fout, -1)
            for wi, xi in _terms(win.shape[0], taps):
                if gwin is not None:
                    gwin[xi] += (wd[wi] @ gflat).reshape(g.shape[1:])
                if gw is not None:
                    gw[wi] = gflat @ win[xi].reshape(-1)

    if relu:
        np.maximum(out, 0, out=out)

    def _bw(g: np.ndarray):
        if relu:
            g = g * (out > 0)  # exactly where the pre-activation is > 0
        src = _padded(x.data, pad)
        gw = np.zeros(wd.shape, dtype=wd.dtype) if weight.requires_grad else None
        gsrc = np.zeros_like(src) if x.requires_grad else None
        grads(g, _windows(src, taps, stride), gw,
              None if gsrc is None else _windows(gsrc, taps, stride, writeable=True))
        return (None if gsrc is None else _unpadded(gsrc, pad), gw,
                g.reshape(fout, -1).sum(axis=1))

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
    _, hin, win = x.shape
    if h > hin or w > win:
        raise ShapeError(f"pool window {window} exceeds input {hin}x{win}")
    rows, cols = hin // h * h, win // w * w

    return _pool(x, [(slice(None), slice(i, rows, h), slice(j, cols, w))
                     for i in range(h) for j in range(w)])


def adaptive_maxpool(x: Tensor, target: int, axis: int) -> Tensor:
    """Max-pool one axis down to exactly ``target`` bins.

    Bin i covers input indices [floor(i*L/target), floor((i+1)*L/target));
    every index lands in exactly one bin and no bin is empty. Gradient flows
    to the first maximum of a bin on ties.
    """
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    length = x.shape[axis]
    if length < target:
        raise ShapeError(f"axis extent {length} < pool target {target}")

    bounds = np.arange(target + 1) * length // target
    starts, ends = bounds[:-1], bounds[1:]
    if axis % x.data.ndim == x.data.ndim - 1:
        return _pool_bins(x, starts, ends - starts)
    # row j holds the j-th index of every bin; short bins repeat their last
    rows = np.minimum(starts + np.arange((ends - starts).max())[:, None], ends - 1)
    lead = (slice(None),) * (axis % x.data.ndim)
    return _pool(x, [lead + (row,) for row in rows])


def _pool(x: Tensor, taps: list[tuple]) -> Tensor:
    """One max-pool node over taps: the maximum over each bin, gradient to
    its first maximum. Serves ``maxpool2d`` and an ``adaptive_maxpool``
    over any axis but the last.

    ``taps`` is in tie-break order. Each tap indexes ``x`` into an
    output-shaped array whose element i is one element of bin i, so tap j
    reads the j-th element of every bin. A bin may repeat an element in
    later taps, which changes neither its maximum nor its first maximum.

    Forward takes a running maximum over the taps. Backward gives each
    output's gradient to the first tap that equals the output; no input
    copy is kept. A bin holding NaN outputs NaN, matches no tap and passes
    no gradient (training stops on the non-finite loss first).
    """
    out = x.data[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, x.data[tap], out=out)

    def _bw(g: np.ndarray):
        gx = np.zeros_like(x.data)
        free = np.ones(out.shape, dtype=bool)  # bins whose maximum is not yet found
        for tap in taps:
            hit = free & (x.data[tap] == out)
            free ^= hit
            gx[tap] = np.where(hit, g, gx[tap])
        return (gx,)

    return make_node(out, (x,), _bw)


def _pool_bins(x: Tensor, starts: np.ndarray, sizes: np.ndarray) -> Tensor:
    """One max-pool node over contiguous bins of the last axis, which start
    at the ascending indices ``starts`` and hold ``sizes`` elements each,
    together the whole axis; the same outputs and gradients as
    :func:`_pool` with the same bins.

    Forward is one ``np.maximum.reduceat``, which walks each row once, in
    index order. Backward finds every element equal to its bin's output, in
    ascending flat order, and gives each bin's gradient to the first of
    them; no input copy is kept. A bin holding NaN outputs NaN, matches no
    element and passes no gradient, and it writes nothing into other bins.
    """
    out = np.maximum.reduceat(x.data, starts, axis=-1)

    def _bw(g: np.ndarray) -> None:
        length, bins = x.shape[-1], len(starts)
        hits = np.flatnonzero(x.data == np.repeat(out, sizes, axis=-1))
        row, index = np.divmod(hits, length)
        # flat output position of each hit's bin; hits of one bin are adjacent
        bin_at = row * bins + np.repeat(np.arange(bins), sizes)[index]
        first = np.ones(bin_at.shape, dtype=bool)
        np.not_equal(bin_at[1:], bin_at[:-1], out=first[1:])
        gx = np.zeros(x.shape, dtype=x.data.dtype)
        gx.reshape(-1)[hits[first]] = g.reshape(-1)[bin_at[first]]
        return (gx,)

    return make_node(out, (x,), _bw)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0. A ReLU straight
    after a convolution is fused into it instead (``relu=True``)."""
    out = np.maximum(x.data, 0)

    def _bw(g: np.ndarray):
        return (g * (x.data > 0),)

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

    def _bw(g: np.ndarray):
        return (g @ weight.data if x.requires_grad else None,
                np.outer(g, x.data) if weight.requires_grad else None, g)

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
    lead = (slice(None),) * (axis % ndim)  # the axes before ``axis``

    def _bw(g: np.ndarray):
        return [np.ascontiguousarray(g[lead + (slice(lo, hi),)])
                for lo, hi in zip(offsets[:-1], offsets[1:])]

    return make_node(out, tensors, _bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def _bw(g: np.ndarray):
        return (g.reshape(x.shape),)

    return make_node(out, (x,), _bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (no broadcasting)."""
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def _bw(g: np.ndarray):
        return g, g

    return make_node(out, (a, b), _bw)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar constant."""
    out = x.data * factor

    def _bw(g: np.ndarray):
        return (g * factor,)

    return make_node(out, (x,), _bw)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements as a scalar tensor."""
    out = x.data.sum()

    def _bw(g: np.ndarray):
        return (np.full_like(x.data, g),)

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

    def _bw(g: np.ndarray):
        gl = p.copy()
        gl[label] -= 1
        return (gl * g,)

    return make_node(np.asarray(loss, dtype=logits.data.dtype), (logits,), _bw)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Plain softmax on a numpy vector (inference paths)."""
    z = logits - logits.max()
    ez = np.exp(z)
    return ez / ez.sum()
