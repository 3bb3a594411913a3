"""Differentiable operations over :class:`~wavems.tensor.Tensor`, each one
graph node: only those the architecture needs. Convolution nodes:
:func:`_conv` (the fused ReLU and pool) and :func:`frontend`, on the array
machinery of :mod:`wavems._conv`, whose ``workers``, ``gemm_kernels``,
``gemm_enabled`` and ``usable_cpus`` are re-exported here. Every
convolution's arguments: :func:`_conv_shape`, which gives its output shape.
A pooled convolution's backward starts at :func:`_preactivation_grad`.
Pools: :class:`_Pool`. The head: :func:`level_features`.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import _conv as conv
from ._conv import gemm_enabled, gemm_kernels, usable_cpus, workers  # noqa: F401
from .errors import ShapeError
from .tensor import Tensor, make_node, recording


def _check_dtypes(*tensors: Tensor) -> np.dtype:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ValueError(
                f"mixed-precision graph: {t.data.dtype.name} vs {dt.name}")
    return dt


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
           relu: bool = False, pool: int | None = None) -> Tensor:
    """Valid 1-D cross-correlation, x: (C_in, L), weight: (C_out, C_in, k),
    bias: (C_out,), of length floor((L - k) / stride) + 1, then ReLU if
    ``relu`` and ``adaptive_maxpool(., pool, axis=1)`` if ``pool`` is given
    (:func:`_conv`); a bad ``pool`` raises as that would, before any work.
    """
    shape = _conv_shape(x.shape, x.data.dtype, weight, bias, stride, 0)
    return _conv(x, weight, bias, stride, 0, relu, shape,
                 None if pool is None else _adaptive_pool(shape, pool, 1))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False,
           pool: tuple[int, int] | None = None) -> Tensor:
    """3x3 cross-correlation, stride 1, zero padding 1, x: (C, H, W),
    weight: (F, C, 3, 3), bias: (F,), then ReLU if ``relu`` and
    ``maxpool2d(., pool)`` if ``pool`` is given (:func:`_conv`). Another
    kernel size, or a bad ``pool``, raises before any work.
    """
    shape = _conv_shape(x.shape, x.data.dtype, weight, bias, 1, 1)
    return _conv(x, weight, bias, 1, 1, relu, shape,
                 None if pool is None else _window_pool(shape, pool))


def _conv_shape(shape: tuple[int, ...], dtype: np.dtype, weight: Tensor, bias: Tensor,
                stride: int, pad: int) -> tuple[int, ...]:
    """The argument checks of a convolution over an input of ``shape`` and
    ``dtype`` with ``pad`` zeros around each spatial axis: :func:`conv1d`'s
    at 0, :func:`conv2d`'s at 1. Returns the unpooled output's shape: the
    filter count, then (d + 2 * pad - k) // stride + 1 on the first spatial
    axis and d + 2 * pad - k + 1 on any other, for an extent d and a filter
    extent k."""
    for t in (weight, bias):
        if t.data.dtype != dtype:
            raise ValueError(f"mixed-precision graph: {t.data.dtype.name} vs {dtype.name}")
    if not isinstance(stride, (int, np.integer)) or stride <= 0:
        raise ValueError(f"stride must be a positive int, got {stride!r}")
    name, layout = (("conv1d", "(C,L), (F,C,k)"), ("conv2d", "(C,H,W), (F,C,3,3)"))[pad]
    if len(shape) != 2 + pad or weight.data.ndim != 3 + pad or bias.data.ndim != 1:
        raise ShapeError(f"{name} expects {layout}, (F,); got {shape}, {weight.shape}, {bias.shape}")
    fout, cw, *taps = weight.shape
    if pad and taps != [3, 3]:
        raise ValueError(f"conv2d kernel must be 3x3, got {taps[0]}x{taps[1]}")
    if cw != shape[0]:
        raise ShapeError(f"{name} channel mismatch: input {shape[0]}, weight {cw}")
    if bias.shape != (fout,):
        raise ShapeError(f"{name} bias shape {bias.shape} != ({fout},)")
    if not pad and shape[1] < taps[0]:  # a padded 3x3 filter takes any input
        raise ShapeError(f"conv1d input length {shape[1]} < filter length {taps[0]}")
    first, *rest = [d + 2 * pad - k for d, k in zip(shape[1:], taps)]
    return (fout, first // stride + 1, *[d + 1 for d in rest])


#: A front-end branch's arguments (:func:`frontend`): (weight, bias, stride,
#: phase_weight, phase_bias).
Branch = tuple[Tensor, Tensor, int, Tensor, Tensor]


def frontend(x: Tensor, branches: list[Branch], relu: bool, phase_stride: int,
             pool: int) -> Tensor:
    """The multi-resolution front end as one node: per branch,
    ``conv1d(conv1d(x, weight, bias, stride, relu), phase_weight,
    phase_bias, phase_stride, relu=True, pool=pool)``, stacked along the
    filter axis into a (1, sum of F, pool) image. Its parents are ``x``,
    then each branch's weight, bias, phase weight and phase bias; a bad
    branch raises what its convolutions raise, before any work.

    A branch runs its phase conv's forward, whose blocks compute the branch
    rows they read (:func:`~wavems._conv._branch_rows`), so no branch map is
    ever whole. The node keeps the stack and each branch's first-hit index;
    backward (:func:`_chain_grads`) sums ``x``'s gradient in branch order.
    So the bits are those of the separate convolutions, :func:`concat` and
    :func:`reshape`, by construction, except that GEMM branch rows are
    products of other widths than the branch conv's: OpenBLAS 0.3.31 gave
    them the same bits in every front end tested (``tests/test_workers.py``).
    """
    if not branches:
        raise ValueError("frontend needs at least one branch")
    plans = []  # each branch's map shape, and its phase conv's pool plan
    for w, b, stride, pw, pb in branches:
        shape = _conv_shape(x.shape, x.data.dtype, w, b, stride, 0)
        plans.append((shape, _adaptive_pool(
            _conv_shape(shape, x.data.dtype, pw, pb, phase_stride, 0), pool, 1)))
    parents = (x,) + tuple(t for w, b, _, pw, pb in branches for t in (w, b, pw, pb))
    gemm, record = gemm_enabled(), recording(parents)
    pooled, indexes = [], []
    for (w, b, stride, pw, pb), (_, plan) in zip(branches, plans):
        out, index = conv._conv_forward(
            conv._Kernel(pw.data, pb.data, phase_stride, gemm),
            conv._branch_rows(x.data, conv._Kernel(w.data, b.data, stride, gemm), relu),
            plan.shape, True, plan, record)
        pooled.append(out)
        indexes.append(index)
    out = pooled[0] if len(pooled) == 1 else np.concatenate(pooled)

    def _bw(g: np.ndarray):
        g, grads, gx, lo = g.reshape(out.shape), [], None, 0
        for branch, (shape, plan), index in zip(branches, plans, indexes):
            rows = slice(lo, lo + len(index))
            gxb, *gparams = _chain_grads(_preactivation_grad(g[rows], out[rows], True, plan, index),
                                         x, branch, shape, relu, phase_stride, gemm)
            gx = gxb if gx is None else gx + gxb  # in branch order, as the sweep adds
            grads += gparams
            lo = rows.stop
        return [gx] + grads

    return make_node(out.reshape((1,) + out.shape), parents, _bw)


def _chain_grads(g: np.ndarray, x: Tensor, branch: Branch, shape: tuple[int, int], relu: bool,
                 phase_stride: int, gemm: bool) -> tuple[np.ndarray | None, ...]:
    """One front-end branch's backward from the gradient ``g`` of its phase
    conv's unpooled, pre-activation map, on the branch map, of ``shape``,
    computed again as the branch conv does: the gradients of ``x`` and the
    four parameters."""
    w, b, stride, pw, _ = branch
    # the branch kernel is built again, not kept: a reference one holds a
    # bias-augmented copy of the weights
    xrows = conv._padded_rows(x.data, 0)
    y, _ = conv._conv_forward(conv._Kernel(w.data, b.data, stride, gemm), xrows, shape, relu,
                              None, False)
    gy, gpw, gpb = conv._conv_grads(g, conv._padded_rows(y, 0), y.shape, pw.data, phase_stride,
                                    gemm, True, pw.requires_grad)
    if relu:
        gy *= y > 0  # exactly where the branch pre-activation is > 0
    return conv._conv_grads(gy, xrows, x.shape, w.data, stride, gemm, x.requires_grad,
                            w.requires_grad) + (gpw, gpb)


def _conv(x: Tensor, weight: Tensor, bias: Tensor, stride: int, pad: int, relu: bool,
          shape: tuple[int, ...], pool: _Pool | None) -> Tensor:
    """One convolution node over ``x`` with ``pad`` zeros around each
    spatial axis, to an unpooled map of ``shape`` (:func:`_conv_shape`), in
    the kernel family of the calling thread, which reads ``x`` a block of
    rows at a time, forward and backward, and keeps no copy of it.

    With ``relu``, the output is clamped at 0 in place. With ``pool``, each
    forward block pools its own bins, so the unpooled map is never whole,
    and the node keeps the pooled output and, when it records, the first-hit
    index. Backward starts from the pre-activation gradient
    (:func:`_preactivation_grad`).
    """
    xd, wd, gemm = x.data, weight.data, gemm_enabled()
    out, index = conv._conv_forward(conv._Kernel(wd, bias.data, stride, gemm),
                                    conv._padded_rows(xd, pad), shape, relu, pool,
                                    pool is not None and recording((x, weight, bias)))

    def _bw(g: np.ndarray):
        src = xd.shape[:1] + tuple([d + 2 * pad for d in xd.shape[1:]])
        # the reader is built again, not kept: a recorded node would keep
        # its closure, about 500 B
        gsrc, gw, gb = conv._conv_grads(_preactivation_grad(g, out, relu, pool, index),
                                        conv._padded_rows(xd, pad), src, wd, stride, gemm,
                                        x.requires_grad, weight.requires_grad)
        return None if gsrc is None else conv._unpadded(gsrc, pad), gw, gb

    return make_node(out, (x, weight, bias), _bw)


def _preactivation_grad(g: np.ndarray, out: np.ndarray, relu: bool, pool: _Pool | None,
                        index: np.ndarray | None) -> np.ndarray:
    """The gradient of a convolution node's unpooled, pre-activation map,
    from the gradient ``g`` of its output ``out``: ``g`` times ``out > 0``
    if ``relu``, the pre-activation's mask, then, with ``pool``, scattered
    to the winners (``index``) of a zero map-shaped array
    (:meth:`_Pool.scatter`). That is the array the separate ReLU and pool
    give, bit for bit: at a winner both multiply the same gradient by the
    same mask (a masked negative gradient gives -0.0 and a NaN stays NaN,
    where a selection would give 0), and everywhere else both leave +0.0.
    """
    if relu:
        g = g * (out > 0)  # exactly where the pre-activation is > 0
    return g if pool is None else pool.scatter(g, index)


def maxpool2d(x: Tensor, window: tuple[int, int]) -> Tensor:
    """Non-overlapping max pooling; trailing rows/cols without a full window
    drop. On ties the gradient goes to the first maximum in raster order."""
    return _pool_node(x, _window_pool(x.shape, window))


def adaptive_maxpool(x: Tensor, target: int, axis: int) -> Tensor:
    """Max-pool one axis down to exactly ``target`` bins, bin i covering
    [floor(i*L/target), floor((i+1)*L/target)). On ties the gradient goes to
    a bin's first maximum."""
    return _pool_node(x, _adaptive_pool(x.shape, target, axis))


def level_features(maps: list[Tensor], target: tuple[int, int]) -> Tensor:
    """The head's features as one node: each (C, H, W) map pooled by
    ``adaptive_maxpool(adaptive_maxpool(m, th, axis=1), tw, axis=2)``,
    raising what those raise, flattened, and the maps concatenated in order.
    A recorded node keeps, per feature, one composed winner: the flat
    position in its map of the first-hit row of the lowest column whose
    stage-1 maximum equals the feature, in the narrowest unsigned dtype that
    holds the map's size, which is a NaN feature's sentinel. So backward
    writes the bits of the two pools, :func:`concat` and :func:`reshape`,
    by construction.
    """
    if not maps:
        raise ValueError("level_features needs at least one map")
    _check_dtypes(*maps)
    th, tw = target
    plans = []
    for m in maps:
        if m.data.ndim != 3:
            raise ShapeError(f"level_features expects (C,H,W) maps, got {m.shape}")
        rows = _adaptive_pool(m.shape, th, 1)
        plans.append((rows, _adaptive_pool(rows.out_shape, tw, 2)))
    record = recording(maps)
    features, winners = [], []
    for m, (rows, cols) in zip(maps, plans):
        stage1, first_rows = rows.forward(m.data, record)
        out, first_cols = cols.forward(stage1, record)
        features.append(out.reshape(-1))
        if record:  # each feature's winner in stage 1, then that one's in the map
            at = rows.winners(first_rows).take(cols.winners(first_cols))
            at[first_cols == len(cols.offsets)] = m.size  # a NaN feature's sentinel
            winners.append(at.reshape(-1))
    out = np.concatenate(features)

    def _bw(g: np.ndarray):
        grads, lo = [], 0
        for m, at in zip(maps, winners):
            grads.append(_put(m.shape, at, at < m.size, g[lo:lo + len(at)]))
            lo += len(at)
        return grads

    return make_node(out, maps, _bw)


def _window_pool(shape: tuple[int, ...], window) -> _Pool:
    """The plan of ``maxpool2d(., window)`` over a ``shape`` input
    (:func:`_window_plan`), after its argument checks, which run on every
    call. ``window`` is any pair of ints: a tuple, a list or an array."""
    h, w = window
    if h <= 0 or w <= 0:
        raise ValueError(f"pool window must be positive, got {window}")
    if len(shape) != 3:
        raise ShapeError(f"maxpool2d expects (C,H,W), got {shape}")
    if h > shape[1] or w > shape[2]:
        raise ShapeError(f"pool window {window} exceeds input {shape[1]}x{shape[2]}")
    return _window_plan(tuple(shape), (operator.index(h), operator.index(w)))


def _adaptive_pool(shape: tuple[int, ...], target: int, axis: int) -> _Pool:
    """The plan of ``adaptive_maxpool(., target, axis)`` over a ``shape``
    input (:func:`_adaptive_plan`), after its argument checks, which run on
    every call."""
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    length = shape[axis]
    if length < target:
        raise ShapeError(f"axis extent {length} < pool target {target}")
    return _adaptive_plan(tuple(shape), operator.index(target), axis % len(shape))


#: Plans each of :func:`_window_plan` and :func:`_adaptive_plan` keeps, least
#: recently used first out: a model runs 15 (4 windows and 11 bin pools),
#: so this holds a few models' while a sweep of odd shapes stays bounded.
_PLANS = 64


@functools.lru_cache(maxsize=_PLANS)
def _window_plan(shape: tuple[int, int, int], window: tuple[int, int]) -> _Pool:
    """The plan of a checked ``maxpool2d(., window)`` over a ``shape``
    input, one per (shape, window)."""
    (h, w), (channels, hin, win) = window, shape
    rows, cols = hin // h * h, win // w * w
    taps = [(i, j) for i in range(h) for j in range(w)]  # raster order
    return _Pool(shape, [np.arange(channels), np.arange(0, rows, h), np.arange(0, cols, w)],
                 np.array([i * win + j for i, j in taps]),
                 [(slice(None), slice(i, rows, h), slice(j, cols, w)) for i, j in taps],
                 range(0, rows + 1, h))


@functools.lru_cache(maxsize=_PLANS)
def _adaptive_plan(shape: tuple[int, ...], target: int, axis: int) -> _Pool:
    """The plan of a checked ``adaptive_maxpool(., target, axis)`` over a
    ``shape`` input, ``axis`` non-negative, one per (shape, target, axis)."""
    length = shape[axis]
    bounds = _frozen(np.arange(target + 1) * length // target)
    starts, ends = bounds[:-1], bounds[1:]
    firsts = [np.arange(d) for d in shape]
    firsts[axis] = starts
    taps = np.arange(-(-length // target))  # the longest bin's
    offsets = taps * math.prod(shape[axis + 1:])
    if axis == len(shape) - 1:
        return _BinPool(shape, firsts, offsets, bounds)
    lead = (slice(None),) * axis
    if length % target == 0:  # equal bins: tap j is a view, every bin's j-th element
        reads = [lead + (slice(j, length, len(taps)),) for j in range(len(taps))]
    else:  # row j holds the j-th index of every bin; short bins repeat their last
        rows = _frozen(np.minimum(starts + taps[:, None], ends - 1))
        reads = [lead + (row,) for row in rows]
    return _Pool(shape, firsts, offsets, reads, None)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: so are the views taken of it from now on."""
    a.flags.writeable = False
    return a


class _Pool:
    """The plan of a max pool over inputs of ``shape``: ``maxpool2d``'s, or
    ``adaptive_maxpool``'s over any axis but the last (:class:`_BinPool`).
    Each bin outputs its maximum and routes its gradient to its first hit.
    A recording forward keeps each bin's first-hit tap number, in the
    narrowest unsigned dtype that holds the tap count; a bin holding NaN has
    no hit, gets the tap count and passes no gradient. No pool node keeps
    its input.

    ``taps`` is in tie-break order: tap j reads the j-th element of every
    bin into an output-shaped array, as a strided slice, or a gather where
    adaptive bins differ in length (the last element again in a shorter
    bin). ``firsts[a]`` holds each bin's first coordinate on input axis
    ``a``, ``bases[a]`` its share of the bin's flat position, ``offsets[j]``
    the flat distance to a bin's j-th element. A window pool's ``edges``
    bound its rows of bins on axis 1, so :meth:`fill` pools any run of them
    from those rows alone. One plan per shape and argument is cached and
    shared by nodes and threads, so it holds only what its constructor
    builds, all read-only.
    """

    # no per-instance dict, and no array of a plan may be written
    __slots__ = ("shape", "firsts", "offsets", "taps", "edges", "index_dtype", "bases")

    def __init__(self, shape: tuple[int, ...], firsts: list[np.ndarray],
                 offsets: np.ndarray, taps: list[tuple] | None,
                 edges: range | np.ndarray | None):
        self.shape = shape
        # flat positions, in the narrowest unsigned dtype that holds the
        # input's size
        self.offsets = _frozen(offsets.astype(np.min_scalar_type(math.prod(shape))))
        self.firsts = tuple(map(_frozen, firsts))
        self.bases = tuple(  # each shaped to broadcast along its axis of the output
            _frozen((f * math.prod(shape[a + 1:])).astype(self.offsets.dtype)).reshape(
                (-1,) + (1,) * (len(shape) - 1 - a)) for a, f in enumerate(self.firsts))
        self.taps = None if taps is None else tuple(taps)
        self.edges = _frozen(edges) if isinstance(edges, np.ndarray) else edges
        # tap numbers 0 .. n-1 and the no-hit sentinel n
        self.index_dtype = np.min_scalar_type(len(offsets))

    def winners(self, index: np.ndarray) -> np.ndarray:
        """The flat position in the input of each bin's first hit
        (``index``); a bin with no hit gets its last tap's, no winner."""
        at = self.offsets.take(index, mode="clip")
        at += sum(self.bases[:-1])  # the leading axes' shares, a small array
        at += self.bases[-1]
        return at

    @property
    def out_shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.firsts))

    def forward(self, a: np.ndarray, record: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """Each bin's maximum over ``a``; with ``record`` set, also each
        bin's first-hit tap number, or the tap count where no tap equals the
        maximum (a bin holding NaN)."""
        out = np.empty(self.out_shape, a.dtype)
        index = np.empty(self.out_shape, self.index_dtype) if record else None
        self.fill(a, slice(None), out, index)
        return out, index

    def fill(self, a: np.ndarray, bins: slice, out: np.ndarray, index: np.ndarray | None) -> None:
        """:meth:`forward` of the bin rows ``bins`` into ``out[:, bins]`` and
        ``index[:, bins]`` (unless None), from the input rows of those bins
        alone, ``a``: a running maximum, and a count of leading misses."""
        dest = out[:, bins]
        # the running maximum is faster in a contiguous array than in a run
        # of bin rows of ``out``; that one is filled with a copy
        out = dest if dest.flags.c_contiguous else np.empty(dest.shape, dest.dtype)
        np.copyto(out, a[self.taps[0]])
        for tap in self.taps[1:]:
            np.maximum(out, a[tap], out=out)
        if out is not dest:
            dest[...] = out
        if index is None:
            return
        index = index[:, bins]
        missed = a[self.taps[0]] != out  # bins whose first hit is still ahead
        np.copyto(index, missed)
        miss = np.empty_like(missed)
        for tap in self.taps[1:]:
            np.not_equal(a[tap], out, out=miss)
            missed &= miss
            index += missed

    def scatter(self, g: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The input gradient of output gradient ``g``: each bin's at its
        first hit (``index``), zero elsewhere; bins are disjoint."""
        return _put(self.shape, self.winners(index), index < len(self.offsets), g)


class _BinPool(_Pool):
    """The plan of an ``adaptive_maxpool`` over the last axis, bin i
    covering [edges[i], edges[i + 1]), with :class:`_Pool`'s results: one
    ``np.maximum.reduceat``, and for the index a second over weights that
    are highest at a bin's first hit and 0 off its maximum, so 0 throughout
    a NaN bin, which gives the tap count.
    """

    __slots__ = ("sizes",)

    def __init__(self, shape: tuple[int, ...], firsts: list[np.ndarray],
                 offsets: np.ndarray, edges: np.ndarray):
        super().__init__(shape, firsts, offsets, None, edges)
        self.sizes = _frozen(edges[1:] - edges[:-1])

    def fill(self, a: np.ndarray, bins: slice, out: np.ndarray, index: np.ndarray | None) -> None:
        """:meth:`forward` of the bins ``bins`` into ``out[..., bins]`` and
        ``index[..., bins]`` (unless None), from those bins' elements, ``a``."""
        starts, sizes, n = self.firsts[-1][bins], self.sizes[bins], len(self.offsets)
        first = starts[0]
        starts = starts - first  # within ``a``
        out = out[..., bins]
        np.maximum.reduceat(a, starts, axis=-1, out=out)
        if index is None:
            return
        # each element's weight: the tap count less its tap number
        weights = np.repeat(starts + n, sizes) - np.arange(a.shape[-1])
        hits = (a == np.repeat(out, sizes, axis=-1)) * weights.astype(self.index_dtype)
        np.subtract(n, np.maximum.reduceat(hits, starts, axis=-1), out=index[..., bins])


def _put(shape: tuple[int, ...], at: np.ndarray, hit: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A zero array of ``shape`` holding ``g`` at the distinct flat
    positions ``at``, where ``hit`` is set."""
    gx = np.zeros(shape, dtype=g.dtype)
    if not hit.all():
        at, g = at[hit], g[hit]
    gx.reshape(-1)[at] = g
    return gx


def _pool_node(x: Tensor, pool: _Pool) -> Tensor:
    """One max-pool node over ``x``."""
    out, index = pool.forward(x.data, recording((x,)))

    def _bw(g: np.ndarray):
        return (pool.scatter(g, index),)

    return make_node(out, (x,), _bw)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0."""
    out = np.maximum(x.data, 0)

    def _bw(g: np.ndarray):
        return (g * (x.data > 0),)

    return make_node(out, (x,), _bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: weight (O, D) @ x (D,) + bias (O,), its products in the
    kernel family of the calling thread but the weight gradient's outer
    product."""
    _check_dtypes(x, weight, bias)
    if x.data.ndim != 1 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError(
            f"linear expects (D,), (O,D), (O,); got {x.shape}, {weight.shape}, {bias.shape}")
    o, d = weight.shape
    if x.shape != (d,) or bias.shape != (o,):
        raise ShapeError(
            f"linear dimension mismatch: x {x.shape}, weight {weight.shape}, bias {bias.shape}")

    w, gemm = weight.data, gemm_enabled()
    out = (w @ x.data if gemm else conv._ordered_matmul(w, x.data[:, None])[:, 0]) + bias.data

    def _bw(g: np.ndarray):
        gx = None
        if x.requires_grad:
            gx = g @ w if gemm else conv._ordered_matmul(g[None], w)[0]
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
    or over (B, K) logits with a sequence of B, each label in [0, K). Rows
    are max-subtracted, and their losses summed in row order, then times
    1/B: the bits of per-row nodes, :func:`add` and :func:`scale`.
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
