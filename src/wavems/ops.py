"""Differentiable operations over :class:`~wavems.tensor.Tensor`.

Only the operators the architecture needs.

Both max pools output each bin's maximum and route each bin's gradient to
its first maximum (window raster order for :func:`maxpool2d`, lowest index
for :func:`adaptive_maxpool`). A bin holding NaN outputs NaN and passes no
gradient. When a pool records a graph node, its forward also finds each
bin's first hit and keeps that tap's number, in the smallest unsigned dtype
that holds the tap count (uint8 for 2x2 windows and for bins of up to 255
elements); a NaN bin keeps the tap count as a no-hit sentinel. Backward is
one scatter of the output gradient to those winners (:meth:`_Pool.scatter`)
and never reads the input, so no pool keeps it. Under
:class:`~wavems.tensor.no_grad` no index is made. The input's shape picks
one of two forward kernels:

- an :func:`adaptive_maxpool` over the last axis is a bin reduction
  (:class:`_BinPool`): one ``np.maximum.reduceat``, and one more over
  weights, highest at a bin's first element, for the index;
- ``maxpool2d`` and an ``adaptive_maxpool`` over any other axis take a
  running maximum over output-shaped strided slices or gathers of the
  input (:class:`_Pool`). There, ``reduceat`` would walk the input with a
  stride and was measured slower.

Convolutions view their input, once per call, as a tap-leading window
array (C, *taps, P, *S): element [c, *t, p, *s] is the input element under
tap t of output position (p, *s), read through the input's own strides with
no copy. They have two kernel families. The reference kernels, the
default, run the forward one (channel, tap) term at a time in a fixed
order, so their outputs are bit-identical to a sequential nested-loop
evaluation at the same precision. Inside :class:`gemm_kernels` the forward
instead copies that view into im2col columns and runs one matrix multiply
per chunk of output positions; a chunk's columns hold at most the larger
of the output's size and a fixed budget of elements, so a small layer is
one chunk. Both families share one backward over the same chunks: the
weight-gradient and column-gradient products, then one scatter per tap.
The family picks the product, for convolutions and for :func:`linear`
alike: the GEMM family multiplies with BLAS (``np.matmul``, ``@``), the
reference family with numpy's einsum loops (:func:`_ordered_matmul`). So
no reference kernel, forward or backward, calls BLAS, and its bits depend
on neither the BLAS build, nor the CPU kernel BLAS picks, nor its thread
count. The GEMM family is many times faster and agrees with the reference
family to rounding, but repeats bit for bit only with the same BLAS build
and thread count. The choice is per thread.

Both convolutions take ``relu=True`` to apply max(0, .) inside the same
node, with the same results as :func:`relu` on their output, and ``pool=``
to max-pool the (activated) output inside the node as well: a bin count
for ``conv1d`` (:func:`adaptive_maxpool` over the length) and a window for
``conv2d`` (:func:`maxpool2d`), with the same results as the separate pool
bit for bit. The node keeps only its output, plus a fused pool's first-hit
index: the ReLU mask is read off the output (the pooled maximum is above 0
exactly where its winner is), a fused pool's gradient is scattered back to
a conv-shaped array in backward, and ``conv2d``'s zero-padded input is built
again in backward rather than kept.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, make_node, recording


class _KernelChoice(threading.local):
    gemm = False  # every thread starts on the reference kernels


_kernels = _KernelChoice()


class gemm_kernels:
    """Context manager that routes :func:`conv1d`, :func:`conv2d` and
    :func:`linear` to their GEMM kernels in the calling thread;
    ``gemm_kernels(False)`` selects the reference kernels instead. The
    previous choice returns on exit.
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
    """Whether convolutions and :func:`linear` in the calling thread use the
    GEMM kernels."""
    return _kernels.gemm


def _check_dtypes(*tensors: Tensor) -> np.dtype:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ValueError(
                f"mixed-precision graph: {t.data.dtype.name} vs {dt.name}")
    return dt


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
           relu: bool = False, pool: int | None = None) -> Tensor:
    """Valid (unpadded) 1-D cross-correlation, followed by max(0, .) if
    ``relu`` is set and by ``adaptive_maxpool(., pool, axis=1)`` if ``pool``
    is given.

    x: (C_in, L), weight: (C_out, C_in, k), bias: (C_out,).
    Output length is floor((L - k) / stride) + 1, or ``pool`` when pooled; a
    bad ``pool`` raises what :func:`adaptive_maxpool` would, before any
    convolution work. The node reads ``x``'s own data in forward and again
    in backward, so it keeps no copy of it; a pooled node keeps the pooled
    output and its first-hit index, not the unpooled map.
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

    if pool is not None:
        pool = _adaptive_pool((fout, (length - k) // stride + 1), pool, axis=1)
    return _conv(x, weight, bias, stride, 0, relu, pool)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False,
           pool: tuple[int, int] | None = None) -> Tensor:
    """3x3 cross-correlation, stride 1, zero padding 1 (same-size output),
    followed by max(0, .) if ``relu`` is set and by ``maxpool2d(., pool)``
    if ``pool`` is given.

    x: (C, H, W), weight: (F, C, 3, 3), bias: (F,). The kernel size is fixed
    by the architecture; anything else is an argument error, and so is a bad
    ``pool``, raised as :func:`maxpool2d` would, before any convolution
    work. The padded input lives only while forward runs and is built again
    in backward; a pooled node keeps the pooled output and its first-hit
    index, not the unpooled map.
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

    if pool is not None:
        pool = _window_pool((fout,) + x.shape[1:], pool)
    return _conv(x, weight, bias, 1, 1, relu, pool)


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


def _ordered_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` by numpy's own single-threaded einsum loops, which call no
    BLAS, so the bits do not depend on the BLAS build or its thread count."""
    return np.einsum("ij,jk->ik", a, b)


def _conv(x: Tensor, weight: Tensor, bias: Tensor, stride: int, pad: int,
          relu: bool, pool: _Pool | None) -> Tensor:
    """One convolution node, in the kernel family selected when it is built,
    with an optional ReLU and an optional max pool fused in.

    The source is ``x``'s data with ``pad`` zeros around each spatial axis
    (:func:`_padded`; ``x``'s own array when ``pad`` is 0), read through one
    (C, *taps, P, *S) view (:func:`_windows`) per call: the taps under every
    output position, with P the first output axis and ``stride`` its step.
    The node keeps no source: backward builds it again from ``x`` and
    writes the source's gradient through the same view of a zero array,
    whose unpadded part is ``x``'s gradient.

    Forward differs by family. The reference family starts each output
    from its bias and adds one (channel, tap) term at a time, in the order
    of :func:`_terms`; each term reads the same elements as a nested-loop
    evaluation, so the output is bit-exact against one. The GEMM family
    (inside :class:`gemm_kernels`) multiplies the (F, C*taps) weights by
    im2col columns one chunk of P at a time and adds the bias last. A
    chunk's (C*taps, n) column buffer holds at most max(output size,
    ``_COLUMN_BUDGET``) elements, and at least one row of P.

    Backward is one algorithm for both families, over the same chunks: it
    rebuilds each chunk's columns rather than keeping them, multiplies the
    output gradient by them for the weight gradient and by the weights for
    the column gradient, and adds the latter to the source's gradient one
    tap at a time; the per-tap index list is built only when ``x`` needs a
    gradient. The family picks only the product: ``np.matmul`` for GEMM,
    :func:`_ordered_matmul` (no BLAS) for the reference. The chunk rule
    fixes each product's operands, so it also fixes the result bits.

    With ``relu`` set, both families clamp the biased output at 0 in place,
    and backward passes the output gradient only where the output is above
    0: the same mask as on the pre-activation, so the subgradient at exactly
    0 is 0 and the results are those of :func:`relu` after the convolution,
    bit for bit. The node then holds the post-activation output alone.

    With ``pool`` set, forward pools that output (:meth:`_Pool.forward`)
    and drops it; the node holds the pooled output and, when it records,
    each bin's first-hit index. Backward multiplies the pooled gradient by
    ``pooled > 0``, which is the ReLU mask at every winner, scatters the
    product to the winners of a zero conv-shaped array
    (:meth:`_Pool.scatter`) and runs the convolution's gradient products on
    that. This is the array the separate pool and ReLU give, bit for bit:
    at a winner both multiply the same gradient by the same mask (a masked
    negative gradient gives -0.0 and a NaN stays NaN, where a selection
    would give 0), and everywhere else both leave +0.0.
    """
    wd = weight.data
    fout, taps = wd.shape[0], wd.shape[2:]
    win = _windows(_padded(x.data, pad), taps, stride)
    out = np.empty((fout,) + win.shape[1 + len(taps):], dtype=win.dtype)
    col = (fout,) + (1,) * (out.ndim - 1)  # a per-filter value against the output
    w2 = wd.reshape(fout, -1)
    flat = out.reshape(fout, -1)
    rows, per_row = out.shape[1], flat.shape[1] // out.shape[1]
    # rows of P per chunk, so that depth * step * per_row <= max(|out|, budget)
    step = max(1, max(out.size, _COLUMN_BUDGET) // (w2.shape[1] * per_row))
    chunks = [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    lead = (slice(None),) * (1 + len(taps))  # the (C, *taps) axes of a window view

    def columns(win: np.ndarray, p: slice) -> np.ndarray:
        return win[lead + (p,)].reshape(w2.shape[1], -1)

    if _kernels.gemm:
        matmul = np.matmul
        for p in chunks:  # straight into the output, no product temporary
            np.matmul(w2, columns(win, p), out=flat[:, p.start * per_row:p.stop * per_row])
        out += bias.data.reshape(col)
    else:
        matmul = _ordered_matmul
        out[...] = bias.data.reshape(col)
        for wi, xi in _terms(win.shape[0], taps):
            out += wd[wi].reshape(col) * win[xi]

    if relu:
        np.maximum(out, 0, out=out)
    index = None
    if pool is not None:  # the unpooled map is dropped here
        out, index = pool.forward(out, recording((x, weight, bias)))

    def _bw(g: np.ndarray):
        if relu:
            g = g * (out > 0)  # exactly where the pre-activation is > 0
        if pool is not None:
            g = pool.scatter(g, index)
        src = _padded(x.data, pad)
        win = _windows(src, taps, stride)
        gw = np.zeros_like(w2) if weight.requires_grad else None
        gsrc = np.zeros_like(src) if x.requires_grad else None
        if gsrc is not None:
            gwin = _windows(gsrc, taps, stride, writeable=True)
            tap_index = [(slice(None),) + tap for tap in itertools.product(*map(range, taps))]
        for p in chunks:
            gc = g[:, p].reshape(fout, -1)
            if gw is not None:
                gw += matmul(gc, columns(win, p).T)
            if gsrc is not None:
                target = gwin[lead + (p,)]
                gcols = matmul(w2.T, gc).reshape(target.shape)
                # one add per tap: within a tap no two positions share an element
                for tap in tap_index:
                    target[tap] += gcols[tap]
        return (None if gsrc is None else _unpadded(gsrc, pad),
                None if gw is None else gw.reshape(wd.shape),
                g.reshape(fout, -1).sum(axis=1))

    return make_node(out, (x, weight, bias), _bw)


def maxpool2d(x: Tensor, window: tuple[int, int]) -> Tensor:
    """Non-overlapping max pooling; trailing rows/cols without a full window drop.

    Gradient flows to the first maximum in window raster order on ties.
    """
    return _pool_node(x, _window_pool(x.shape, window))


def adaptive_maxpool(x: Tensor, target: int, axis: int) -> Tensor:
    """Max-pool one axis down to exactly ``target`` bins.

    Bin i covers input indices [floor(i*L/target), floor((i+1)*L/target));
    every index lands in exactly one bin and no bin is empty. Gradient flows
    to the first maximum of a bin on ties.
    """
    return _pool_node(x, _adaptive_pool(x.shape, target, axis))


def _window_pool(shape: tuple[int, ...], window: tuple[int, int]) -> _Pool:
    """The bins of ``maxpool2d(., window)`` over a ``shape`` input, after
    its argument checks."""
    h, w = window
    if h <= 0 or w <= 0:
        raise ValueError(f"pool window must be positive, got {window}")
    if len(shape) != 3:
        raise ShapeError(f"maxpool2d expects (C,H,W), got {shape}")
    channels, hin, win = shape
    if h > hin or w > win:
        raise ShapeError(f"pool window {window} exceeds input {hin}x{win}")
    rows, cols = hin // h * h, win // w * w
    taps = [(i, j) for i in range(h) for j in range(w)]  # raster order
    return _Pool(shape, [np.arange(channels), np.arange(0, rows, h), np.arange(0, cols, w)],
                 np.array([i * win + j for i, j in taps]),
                 [(slice(None), slice(i, rows, h), slice(j, cols, w)) for i, j in taps])


def _adaptive_pool(shape: tuple[int, ...], target: int, axis: int) -> _Pool:
    """The bins of ``adaptive_maxpool(., target, axis)`` over a ``shape``
    input, after its argument checks."""
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    length = shape[axis]
    if length < target:
        raise ShapeError(f"axis extent {length} < pool target {target}")
    axis %= len(shape)

    bounds = np.arange(target + 1) * length // target
    starts, ends = bounds[:-1], bounds[1:]
    firsts = [np.arange(d) for d in shape]
    firsts[axis] = starts
    taps = np.arange(-(-length // target))  # the longest bin's
    offsets = taps * math.prod(shape[axis + 1:])
    if axis == len(shape) - 1:
        return _BinPool(shape, firsts, offsets, ends - starts)
    # row j holds the j-th index of every bin; short bins repeat their last
    rows = np.minimum(starts + taps[:, None], ends - 1)
    lead = (slice(None),) * axis
    return _Pool(shape, firsts, offsets, [lead + (row,) for row in rows])


class _Pool:
    """The bins of one max pool over inputs of shape ``shape``, read through
    ``taps``: serves ``maxpool2d`` and an ``adaptive_maxpool`` over any
    axis but the last.

    ``taps`` is in tie-break order. Each tap indexes an input into an
    output-shaped array whose element i is one element of bin i, so tap j
    reads the j-th element of every bin. A bin may repeat an element in
    later taps, which changes neither its maximum nor its first hit.
    ``firsts[a]`` holds each bin's first coordinate along input axis ``a``,
    and ``offsets[j]`` the flat distance from a bin's first element to its
    j-th; a first hit is never a repeat, so the two place every winner.
    """

    def __init__(self, shape: tuple[int, ...], firsts: list[np.ndarray],
                 offsets: np.ndarray, taps: list[tuple] | None):
        self.shape, self.firsts, self.offsets, self.taps = shape, firsts, offsets, taps
        # tap numbers 0 .. n-1 and the no-hit sentinel n
        self.index_dtype = np.min_scalar_type(len(offsets))

    def forward(self, a: np.ndarray, record: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """Each bin's maximum over ``a``; with ``record`` set, also each
        bin's first-hit tap number, or the tap count where no tap equals the
        maximum (a bin holding NaN). Forward takes a running maximum over
        the taps; the index counts each bin's leading misses, the taps
        before its first hit."""
        out = a[self.taps[0]].copy()
        for tap in self.taps[1:]:
            np.maximum(out, a[tap], out=out)
        if not record:
            return out, None
        missed = a[self.taps[0]] != out  # bins whose first hit is still ahead
        index = missed.astype(self.index_dtype)
        miss = np.empty_like(missed)
        for tap in self.taps[1:]:
            np.not_equal(a[tap], out, out=miss)
            missed &= miss
            index += missed
        return out, index

    def scatter(self, g: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The input gradient of output gradient ``g``: each bin's gradient
        at its first hit (``index``), zero everywhere else; a bin with no
        hit passes nothing. Bins are disjoint, so no two winners share an
        element."""
        gx = np.zeros(self.shape, dtype=g.dtype)
        at, step = 0, 1  # flat position of each bin's first element, last axis first
        for axis in range(len(self.shape) - 1, -1, -1):
            trailing = (1,) * (len(self.shape) - 1 - axis)
            at = at + (self.firsts[axis] * step).reshape(-1, *trailing)
            step *= self.shape[axis]
        at += self.offsets.take(index, mode="clip")  # the sentinel's entry is dropped
        hit = index < len(self.offsets)
        if not hit.all():
            at, g = at[hit], g[hit]
        gx.reshape(-1)[at] = g
        return gx


class _BinPool(_Pool):
    """The bins of an ``adaptive_maxpool`` over the last axis: contiguous,
    starting at ``firsts[-1]``, ascending, with ``sizes`` elements each,
    together the whole axis; the same outputs and index as :class:`_Pool`
    with the same bins.

    Forward is one ``np.maximum.reduceat``, which walks each row once, in
    index order. For the index, every element equal to its bin's output
    weighs the tap count less its tap number and every other element 0; a
    second ``np.maximum.reduceat`` finds each bin's heaviest, which is its
    first hit. A bin holding NaN weighs 0 throughout, which gives the
    sentinel.
    """

    def __init__(self, shape: tuple[int, ...], firsts: list[np.ndarray],
                 offsets: np.ndarray, sizes: np.ndarray):
        super().__init__(shape, firsts, offsets, None)
        self.sizes = sizes

    def forward(self, a: np.ndarray, record: bool) -> tuple[np.ndarray, np.ndarray | None]:
        starts, n = self.firsts[-1], len(self.offsets)
        out = np.maximum.reduceat(a, starts, axis=-1)
        if not record:
            return out, None
        weights = np.repeat(starts + n, self.sizes) - np.arange(a.shape[-1])
        hits = (a == np.repeat(out, self.sizes, axis=-1)) * weights.astype(self.index_dtype)
        return out, n - np.maximum.reduceat(hits, starts, axis=-1)


def _pool_node(x: Tensor, pool: _Pool) -> Tensor:
    """One max-pool node over ``x``: it keeps the output and, when it
    records, the first-hit index, never ``x``."""
    out, index = pool.forward(x.data, recording((x,)))

    def _bw(g: np.ndarray):
        return (pool.scatter(g, index),)

    return make_node(out, (x,), _bw)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0. A ReLU straight
    after a convolution is fused into it instead (``relu=True``)."""
    out = np.maximum(x.data, 0)

    def _bw(g: np.ndarray):
        return (g * (x.data > 0),)

    return make_node(out, (x,), _bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: weight (O, D) @ x (D,) + bias (O,).

    The kernel family selected when the node is built picks the products
    of forward and of the input gradient: BLAS matrix-vector products for
    GEMM, :func:`_ordered_matmul` (no BLAS) for the reference family. The
    weight gradient is ``np.outer`` in both.
    """
    _check_dtypes(x, weight, bias)
    if x.data.ndim != 1 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError(
            f"linear expects (D,), (O,D), (O,); got {x.shape}, {weight.shape}, {bias.shape}")
    o, d = weight.shape
    if x.shape != (d,) or bias.shape != (o,):
        raise ShapeError(
            f"linear dimension mismatch: x {x.shape}, weight {weight.shape}, bias {bias.shape}")

    w, gemm = weight.data, _kernels.gemm
    out = (w @ x.data if gemm else _ordered_matmul(w, x.data[:, None])[:, 0]) + bias.data

    def _bw(g: np.ndarray):
        gx = None
        if x.requires_grad:
            gx = g @ w if gemm else _ordered_matmul(g[None], w)[0]
        return gx, np.outer(g, x.data) if weight.requires_grad else None, g

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


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of softmax over (K,) logits with one int label,
    or over (B, K) logits with a sequence of B, each label in [0, K).

    Rows are max-subtracted, so large logits cannot overflow. Their losses
    are summed in row order, then times 1/B: the bits of per-row nodes
    chained by :func:`add` and :func:`scale`. Gradient: (softmax - onehot) / B.
    """
    if logits.data.ndim not in (1, 2) or not logits.size:
        raise ShapeError(f"logits must be non-empty (K,) or (B, K), got {logits.shape}")
    k, rows = logits.shape[-1], np.asarray(labels)
    if rows.dtype.kind not in "iu" or rows.shape != logits.shape[:-1] \
            or not np.all((0 <= rows) & (rows < k)):
        raise ValueError(f"labels {labels!r}: need ints in [0, {k}), one per row of {logits.shape}")

    z = logits.data.reshape(-1, k)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    p = ez / denom
    picked, share = (np.arange(len(z)), rows.reshape(-1)), 1.0 / len(z)
    loss = np.cumsum(np.log(denom[:, 0]) - z[picked])[-1] * share  # sequential, not pairwise

    def _bw(g: np.ndarray):
        gl = p.copy()
        gl[picked] -= 1
        return ((gl * (g * share)).reshape(logits.shape),)

    return make_node(np.asarray(loss, dtype=logits.data.dtype), (logits,), _bw)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Plain softmax on a numpy vector (inference paths)."""
    z = logits - logits.max()
    ez = np.exp(z)
    return ez / ez.sum()
