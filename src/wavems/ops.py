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
:class:`~wavems.tensor.no_grad` no index is made. A pool's plan, its bins
and taps, is built once per input shape and pool argument and cached
(:func:`_window_plan`, :func:`_adaptive_plan`): every node of that shape,
fused or not, shares the one read-only plan, and the tables that only a
recorded use reads are built on its first recorded use. The input's shape
picks one of two forward kernels:

- an :func:`adaptive_maxpool` over the last axis is a bin reduction
  (:class:`_BinPool`): one ``np.maximum.reduceat``, and one more over
  weights, highest at a bin's first element, for the index;
- ``maxpool2d`` and an ``adaptive_maxpool`` over any other axis take a
  running maximum over output-shaped strided slices of the input, or
  gathers where adaptive bins differ in length (:class:`_Pool`). There,
  ``reduceat`` would walk the input with a stride and was measured slower.

Convolutions read their source one block of output positions at a time,
forward and backward. A block asks for the source rows it needs,
``rows(lo, hi)``, and views them as a tap-leading window array (C, *taps,
n, *S) (:func:`_block_windows`): element [c, *t, p, *s] is the source
element under tap t of output position (p, *s), read through the rows' own
strides with no copy. The source is a slice of the input's rows (a view)
for ``conv1d``; a zero-padded copy of those rows alone for ``conv2d``
(:func:`_padded_rows`); and, for a front-end branch's forward
(:func:`frontend`, :func:`conv1d_chain`), recorded or not, the branch
conv's own rows, computed as the phase conv reads them. So no convolution,
forward or backward, makes a padded copy of a whole input, no forward holds
a branch conv's map, and no graph keeps either.

Every product of a node runs on one grid of blocks, set by the node's
shape alone (:func:`_chunks`): runs of whole units (rows of the first
output axis, or a fused pool's rows of bins) whose im2col columns and
product each hold at most :data:`_COLUMN_BUDGET` elements, but at least
one unit. There are two kernel families and one forward: each block copies
its window view into im2col columns, runs one matrix product and its own
epilogue (ReLU and a fused pool). The family picks only the product and
where the bias enters (:class:`_Kernel`). The GEMM family, inside
:class:`gemm_kernels`, multiplies with BLAS (``np.matmul``) and adds the
bias to the product. The reference family, the default, multiplies with
numpy's einsum loops (:func:`_ordered_matmul`) on bias-augmented operands:
a leading bias column on the weights and a leading row of ones on the
columns. Each output then sums its bias, then its (channel, tap) terms in
raster order, one at a time, so it is bit-identical to a sequential
nested-loop evaluation at the same precision. Every convolution backward
is one function in both families (:func:`_conv_grads`): the
weight-gradient and column-gradient products over blocks of rows of the
unpooled map, cut by the same rule, each block reading its source rows
through a reader built as its forward's, then one scatter per tap into the
whole padded source gradient, with the family's product. A front-end
branch computes its branch map again in backward and reads it so too.
:func:`linear` picks its products the same way. So no
reference kernel, forward or backward, calls BLAS, and its bits depend on
neither the BLAS build, nor the CPU kernel BLAS picks, nor its thread
count. The GEMM forward is several times faster and agrees with the
reference family to rounding, but repeats bit for bit only with the same
BLAS build and thread count. The choice is per thread.

Inside :class:`workers`, also set per thread, the calling thread and a
pool of worker threads take a convolution forward's blocks in order from
one queue, one block per worker at a time, in both families. Each block
finishes its own slice: the product, the bias, the ReLU and, for a fused
pool, the pool of its bins into the pooled output, so a pooled node's
unpooled map exists only a block at a time; a computed source's block also
computes its branch rows, in the family fixed when the node was built. No
pool thread builds a graph node or reads per-thread state. The worker
count only picks the thread that runs a block: every product has the
operands it has at one worker, so the bits at any count are those of one
worker by construction, in both families. Backward's gradient products are
serial; a front-end branch's backward computes its branch map by a forward,
whose blocks are shared out like any.

Both convolutions take ``relu=True`` to apply max(0, .) inside the same
node, with the same results as :func:`relu` on their output, and ``pool=``
to max-pool the (activated) output inside the node as well: a bin count
for ``conv1d`` (:func:`adaptive_maxpool` over the length) and a window for
``conv2d`` (:func:`maxpool2d`), with the same results as the separate pool
bit for bit. The node keeps only its output, plus a fused pool's first-hit
index: the ReLU mask is read off the output (the pooled maximum is above 0
exactly where its winner is), a fused pool's gradient is scattered back to
a conv-shaped array in backward, and ``conv2d``'s zero-padded input rows
are built again in backward, a block at a time, rather than kept.

The model's two multi-part layers are one node each, with the bits of the
nodes they stand for by construction: :func:`frontend`, every branch's
:func:`conv1d_chain` stacked into one image, and :func:`level_features`,
the head's two pools per level map, flattened and concatenated. Neither
keeps a second copy of its output or an intermediate map.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from queue import Empty, SimpleQueue

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, make_node, recording


class _KernelChoice(threading.local):
    gemm = False  # every thread starts on the reference kernels
    pool = None  # ... and runs its convolution forwards itself
    workers = 1


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


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class workers:
    """Context manager that shares the forward blocks of every convolution
    built in the calling thread among ``count`` workers: ``n``, capped at
    :func:`usable_cpus`. The calling thread is one of them and a pool of
    ``count - 1`` threads holds the others; at a count of 1 no thread
    starts. On exit the pool's threads end and the previous pool returns.
    """

    def __init__(self, n: int = 1):
        self.count = max(1, min(n, usable_cpus()))

    def __enter__(self):
        self._prev = _kernels.pool, _kernels.workers
        pool = ThreadPoolExecutor(self.count - 1, "wavems-worker") if self.count > 1 else None
        _kernels.pool, _kernels.workers = pool, self.count
        return self

    def __exit__(self, *exc):
        pool = _kernels.pool
        _kernels.pool, _kernels.workers = self._prev
        if pool is not None:
            pool.shutdown()  # waits for the threads to end
        return False


def _run(fn, blocks: list[slice]) -> None:
    """``fn(b)`` for every block; returns when all have returned.

    Inside :class:`workers` of more than one, with more than one block, the
    calling thread and up to ``workers - 1`` pool threads take blocks in
    order from a shared queue, so no block waits for a thread to wake: the
    caller runs whatever the pool has not taken. Before it returns or
    raises, a pool task that has not started is cancelled and every other
    one is waited for, so no pool thread still writes into the output; then
    the first exception, the caller's before the pool's, is raised.
    """
    pool = _kernels.pool
    if pool is None or len(blocks) == 1:
        for b in blocks:
            fn(b)
        return
    queue = SimpleQueue()
    for b in blocks:
        queue.put(b)

    def drain() -> None:
        while True:
            try:
                b = queue.get_nowait()
            except Empty:
                return
            fn(b)

    helpers = [pool.submit(drain) for _ in range(min(_kernels.workers, len(blocks)) - 1)]
    try:
        drain()
    finally:
        for h in helpers:
            h.cancel()
        wait(helpers)
    for h in helpers:
        if not h.cancelled() and h.exception() is not None:
            raise h.exception()


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
    convolution work. The node reads ``x``'s own data in forward, a slice of
    rows per block, and again in backward, so it keeps no copy of it; a
    pooled node keeps the pooled output and its first-hit index, not the
    unpooled map.
    """
    pool = _conv1d_checks(x.shape, x.data.dtype, weight, bias, stride, pool)
    return _conv(x, weight, bias, stride, 0, relu, pool)


def _conv1d_checks(shape: tuple[int, ...], dtype: np.dtype, weight: Tensor, bias: Tensor,
                   stride: int, pool: int | None) -> _Pool | None:
    """:func:`conv1d`'s argument checks, for an input of ``shape`` and
    ``dtype``; the plan of the fused pool, if ``pool`` is given."""
    for t in (weight, bias):
        if t.data.dtype != dtype:
            raise ValueError(f"mixed-precision graph: {t.data.dtype.name} vs {dtype.name}")
    if not isinstance(stride, (int, np.integer)) or stride <= 0:
        raise ValueError(f"stride must be a positive int, got {stride!r}")
    if len(shape) != 2 or weight.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeError(
            f"conv1d expects (C,L), (F,C,k), (F,); got {shape}, {weight.shape}, {bias.shape}")
    cin, length = shape
    fout, cw, k = weight.shape
    if cw != cin:
        raise ShapeError(f"conv1d channel mismatch: input {cin}, weight {cw}")
    if bias.shape != (fout,):
        raise ShapeError(f"conv1d bias shape {bias.shape} != ({fout},)")
    if length < k:
        raise ShapeError(f"conv1d input length {length} < filter length {k}")
    if pool is None:
        return None
    return _adaptive_pool((fout, (length - k) // stride + 1), pool, axis=1)


#: A front-end branch's arguments: (weight, bias, stride, phase_weight,
#: phase_bias), as :func:`conv1d_chain` takes them.
Branch = tuple[Tensor, Tensor, int, Tensor, Tensor]


def conv1d_chain(x: Tensor, weight: Tensor, bias: Tensor, stride: int, relu: bool,
                 phase_weight: Tensor, phase_bias: Tensor, phase_stride: int,
                 pool: int) -> Tensor:
    """A front-end branch, ``conv1d(conv1d(x, weight, bias, stride, relu),
    phase_weight, phase_bias, phase_stride, relu=True, pool=pool)``, as one
    node with five parents, with the same errors and the same bits, recorded
    or not: :func:`frontend` of this one branch, without the leading axis.

    Forward runs one pooled node of the second convolution, on that
    convolution's own grid, whose blocks compute the rows of the first
    one's map that they read (:func:`_branch_rows`), in the kernel family of
    the calling thread, so that map never exists whole: at full scale branch
    1's is 32 x 66140 float32, 8.5 MB. A recorded node keeps the pooled
    output and its first-hit index, as a pooled :func:`conv1d` does, and
    nothing of the branch map. Backward (:func:`_chain_grads`) scatters the
    pooled gradient to the winners, computes the branch map once, as the
    branch conv's node does, on its own grid, runs the phase conv's
    gradient products on it, applies the branch ReLU mask and runs the
    branch conv's gradient products on ``x`` (:func:`_conv_grads`, reading
    the map and ``x`` through row slices, as the two nodes do): the two
    nodes' gradients by construction. The phase products are the phase
    node's too, so the reference forward bits are the two nodes' by
    construction as well. The forward's branch rows are products of other
    widths than the branch node's, so the GEMM forward bits are the two
    nodes' as long as BLAS gives a column the same bits in products of
    different widths, as OpenBLAS 0.3.31 did in every front end tested
    (``tests/test_workers.py``).
    """
    return _chains(x, [(weight, bias, stride, phase_weight, phase_bias)], relu, phase_stride,
                   pool, ())


def frontend(x: Tensor, branches: list[Branch], relu: bool, phase_stride: int,
             pool: int) -> Tensor:
    """The multi-resolution front end: ``conv1d_chain(x, *branch, ...)`` for
    every branch over the one input ``x``, stacked along the filter axis into
    a (1, sum of F, pool) image, as one node whose parents are ``x``, then
    each branch's weight, bias, phase weight and phase bias in turn. Each
    branch raises what :func:`conv1d_chain` raises, before any work.

    The branch outputs are stacked by one ``np.concatenate``; the node keeps
    the stack and each branch's first-hit index, not a second copy of the
    pooled maps. Backward cuts the gradient into each branch's rows, and
    reads the branch's ReLU mask from its rows of the stack; ``x``'s
    gradient is the branches' summed in branch order, as the sweep sums
    the gradients of one node per branch. Output and gradients are those of
    one :func:`conv1d_chain` per branch, stacked by :func:`concat` and
    :func:`reshape`, bit for bit by construction.
    """
    if not branches:
        raise ValueError("frontend needs at least one branch")
    return _chains(x, branches, relu, phase_stride, pool, (1,))


def _chains(x: Tensor, branches: list[Branch], relu: bool, phase_stride: int, pool: int,
            lead: tuple[int, ...]) -> Tensor:
    """One node of :func:`conv1d_chain` per branch over ``x``, the outputs
    stacked along the filter axis and given the leading axes ``lead``."""
    plans = []  # each branch's map shape and pool plan
    for w, b, stride, pw, pb in branches:
        _conv1d_checks(x.shape, x.data.dtype, w, b, stride, None)
        shape = (w.shape[0], (x.shape[1] - w.shape[2]) // stride + 1)
        plans.append((shape, _conv1d_checks(shape, x.data.dtype, pw, pb, phase_stride, pool)))
    parents = (x,) + tuple(t for w, b, _, pw, pb in branches for t in (w, b, pw, pb))
    gemm, record = _kernels.gemm, recording(parents)
    pooled, indexes = [], []
    for (w, b, stride, pw, pb), (shape, plan) in zip(branches, plans):
        out, index = _conv_forward(
            _Kernel(pw.data, pb.data, phase_stride, gemm),
            _branch_rows(x.data, _Kernel(w.data, b.data, stride, gemm), relu), shape, True,
            plan, record)
        pooled.append(out)
        indexes.append(index)
    out = pooled[0] if len(pooled) == 1 else np.concatenate(pooled)

    def _bw(g: np.ndarray):
        g, grads, gx, lo = g.reshape(out.shape), [], None, 0
        for branch, (_, plan), index in zip(branches, plans, indexes):
            rows = slice(lo, lo + len(index))
            gxb, *gparams = _chain_grads(plan.scatter(g[rows] * (out[rows] > 0), index), x,
                                         branch, relu, phase_stride, gemm)
            gx = gxb if gx is None else gx + gxb  # in branch order, as the sweep adds
            grads += gparams
            lo = rows.stop
        return [gx] + grads

    return make_node(out.reshape(lead + out.shape), parents, _bw)


def _chain_grads(g: np.ndarray, x: Tensor, branch: Branch, relu: bool, phase_stride: int,
                 gemm: bool) -> tuple[np.ndarray | None, ...]:
    """One front-end branch's backward, given the gradient ``g`` of its
    phase conv's unpooled, pre-activation map: the gradients of ``x``, the
    weight, the bias, the phase weight and the phase bias (None for ``x``
    or a weight that needs none)."""
    w, b, stride, pw, _ = branch
    # the branch kernel is built again, not kept: a reference one holds a
    # bias-augmented copy of the weights
    xrows = _padded_rows(x.data, 0)
    y, _ = _conv_forward(_Kernel(w.data, b.data, stride, gemm), xrows, x.shape, relu, None,
                         False)
    gy, gpw, gpb = _conv_grads(g, _padded_rows(y, 0), y.shape, pw.data, phase_stride, gemm,
                               True, pw.requires_grad)
    if relu:
        gy *= y > 0  # exactly where the branch pre-activation is > 0
    return _conv_grads(gy, xrows, x.shape, w.data, stride, gemm, x.requires_grad,
                       w.requires_grad) + (gpw, gpb)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False,
           pool: tuple[int, int] | None = None) -> Tensor:
    """3x3 cross-correlation, stride 1, zero padding 1 (same-size output),
    followed by max(0, .) if ``relu`` is set and by ``maxpool2d(., pool)``
    if ``pool`` is given.

    x: (C, H, W), weight: (F, C, 3, 3), bias: (F,). The kernel size is fixed
    by the architecture; anything else is an argument error, and so is a bad
    ``pool``, raised as :func:`maxpool2d` would, before any convolution
    work. Forward and backward pad only the rows each block reads, so no
    padded copy of the whole input is made. A pooled node keeps the pooled
    output and its first-hit index, not the unpooled map.
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


#: Elements one block's im2col columns and its product may each hold (2 MiB
#: in float32). It is the one constant of every convolution grid, forward
#: and backward: a small layer is one block, and a large one never holds
#: its columns whole.
_COLUMN_BUDGET = 1 << 19


def _chunks(edges: range | np.ndarray, row: int) -> list[slice]:
    """A node's grid: its units cut into blocks, in order, each of as many
    whole units as hold at most ``_COLUMN_BUDGET`` elements at ``row``
    elements per row, but at least one unit; unit i covers rows
    [edges[i], edges[i + 1])."""
    n, step = len(edges) - 1, max(1, _COLUMN_BUDGET // row)
    if edges[n] - edges[0] <= step:
        return [slice(0, n)]
    blocks, lo = [], 0
    while lo < n:
        hi = max(lo + 1, bisect.bisect_right(edges, edges[lo] + step) - 1)
        blocks.append(slice(lo, hi))
        lo = hi
    return blocks


def _padded_rows(a: np.ndarray, pad: int):
    """``rows(lo, hi)``: rows [lo, hi) along axis 1 of ``a`` with ``pad``
    zeros on both sides of every axis but the first, built for those rows
    alone; a view of ``a``'s rows when ``pad`` is 0. Every convolution
    reads its source through one, forward and backward."""
    if not pad:
        return lambda lo, hi: a[:, lo:hi]
    c, length = a.shape[:2]
    dims = [d + 2 * pad for d in a.shape[2:]]
    inner = (slice(pad, -pad),) * len(dims)

    def rows(lo: int, hi: int) -> np.ndarray:
        out = np.zeros((c, hi - lo, *dims), a.dtype)
        first, last = max(lo, pad), min(hi, length + pad)  # the rows that hold ``a``'s
        out[(slice(None), slice(first - lo, last - lo)) + inner] = a[:, first - pad:last - pad]
        return out

    return rows


def _unpadded(a: np.ndarray, pad: int) -> np.ndarray:
    """The view of an array padded as :func:`_padded_rows` pads that holds
    the original."""
    return a[(slice(None),) + (slice(pad, -pad),) * (a.ndim - 1)] if pad else a


def _windows(a: np.ndarray, taps: tuple[int, ...], stride: int,
             writeable: bool = False) -> np.ndarray:
    """The (C, *taps, P, *S) view of a (C, *spatial) array: element
    [c, *t, p, *s] is a[c, p*stride + t[0], s + t[1:]]. ``stride`` applies
    to the first spatial axis (P); the others step by one.

    The view reads ``a``'s elements through ``a``'s own strides, with no
    copy. For a C-contiguous ``a`` it is built on ``a``'s buffer, which
    numpy checks against the buffer's size; ``as_strided``, which other
    arrays (a run of rows of a larger array) need, makes the same view
    without that check and takes about four times as long per call.
    """
    c, *dims = a.shape
    channel, *steps = a.strides
    shape = (c, *taps, (dims[0] - taps[0]) // stride + 1,
             *(d - k + 1 for d, k in zip(dims[1:], taps[1:])))
    strides = (channel, *steps, steps[0] * stride, *steps[1:])
    if not a.flags.c_contiguous:
        return np.lib.stride_tricks.as_strided(a, shape, strides, writeable=writeable)
    view = np.ndarray(shape, a.dtype, a, 0, strides)
    view.flags.writeable = writeable
    return view


def _block_windows(rows, p: slice, taps: tuple[int, ...], stride: int) -> np.ndarray:
    """The (C, *taps, n, *S) window view (:func:`_windows`) of the output
    rows ``p``, over the source rows they read, which ``rows(lo, hi)``
    gives: a block's one read of its source, forward and backward."""
    return _windows(rows(p.start * stride, (p.stop - 1) * stride + taps[0]), taps, stride)


def _ordered_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` (into ``out`` if given) by numpy's own single-threaded
    einsum loops, which call no BLAS, so the bits do not depend on the BLAS
    build or its thread count.

    einsum sums each output in term order, one term at a time, only when
    both operands are C-contiguous and the product has at least two
    columns; with one column, or a column-major operand, it runs a dot loop
    with partial sums. The reference convolution forward meets that
    condition (see :class:`_Kernel`), and acceptance criterion 2, bits
    equal to the nested-loop oracles, relies on it. Two reference products
    fall outside it and are left so, because making them sequential would
    move the reference family's bits: :func:`linear`'s (O, D) @ (D, 1)
    forward, and the convolution backward's weight-gradient product
    ``gc @ columns.T``. Their bits depend on numpy's choice of loop, still
    on no BLAS.
    """
    return np.einsum("ij,jk->ik", a, b, out=out)


class _Kernel:
    """One convolution's weights, bias, stride and kernel family, fixed
    when it is built, so that a pool thread may run it: the biased product
    of a run of output rows, from im2col columns of the source rows they
    read.

    The GEMM family multiplies with ``np.matmul`` and adds the bias to the
    product. The reference family runs :func:`_ordered_matmul` on
    bias-augmented operands, a leading bias column on the weights and a
    leading row of ones on C-contiguous columns, so each output sums its
    bias, then its terms in (C, *taps) raster order, as a nested-loop
    evaluation does, bit for bit. A product one column wide is run two
    wide, on a zero column, because neither BLAS (a matrix-vector product)
    nor einsum (a dot loop) sums a lone column as it sums a column of a
    wider product. For a reference filter whose bias is -0.0, each output
    that is exactly 0 with every term -0.0 is set to -0.0, where einsum,
    starting at +0.0, gives +0.0.
    """

    __slots__ = ("w", "bias", "taps", "stride", "depth", "gemm", "signed")

    def __init__(self, wd: np.ndarray, bd: np.ndarray, stride: int, gemm: bool):
        w2 = wd.reshape(len(wd), -1)
        self.bias, self.taps, self.stride, self.gemm = bd, wd.shape[2:], stride, gemm
        self.depth = w2.shape[1]  # (C, *taps) terms per output
        if gemm:
            self.w = w2
        else:  # the bias leads each sum, then the terms in (C, *taps) raster order
            self.w = np.concatenate((bd[:, None], w2), axis=1)
            self.signed = np.flatnonzero((bd == 0) & np.signbit(bd))  # -0.0 biases

    def __call__(self, rows, p: slice, y: np.ndarray | None = None) -> np.ndarray:
        """The (F, n) product of the output rows ``p``, into ``y`` if given,
        where ``rows(lo, hi)`` gives the source rows [lo, hi) of a (C, rows,
        *S) array and n is p's length times S's size. The source rows are
        dropped once copied into columns, and the columns on return."""
        lead, depth = int(not self.gemm), self.depth
        win = _block_windows(rows, p, self.taps, self.stride)
        n = win.size // depth
        if lead or n < 2:
            cols = np.empty((depth + lead, max(n, 2)), win.dtype)
            cols[:lead], cols[lead:, n:] = 1, 0
            cols[lead:, :n].reshape(win.shape, copy=False)[...] = win
        else:
            # A copy, unless the window view is contiguous or has one
            # channel. A one-channel branch conv's is a view of the source
            # rows whose columns overlap (strides of 1 and ``stride``
            # elements), which np.matmul cannot hand to BLAS as it is. It
            # is not copied: the chain's GEMM branch rows match the branch
            # conv node's map only at the widths that phase blocks request
            # (``TestStreamedFrontend``), and a copy moves those bits.
            cols = win.reshape(depth, n)
        del win  # the source rows, unless ``cols`` is a view of them
        if y is None:
            y = np.empty((len(self.w), n), cols.dtype)
        matmul = np.matmul if self.gemm else _ordered_matmul
        if n > 1:
            matmul(self.w, cols, out=y)
        else:  # the zero column is dropped
            y[...] = matmul(self.w, cols)[:, :1]
        if self.gemm:
            y += self.bias[:, None]
            return y
        # einsum starts each sum at +0.0, the nested loops at the bias: where
        # a -0.0 bias and every term are -0.0, the loops keep -0.0
        for f in self.signed:
            zero = np.flatnonzero(y[f] == 0)
            terms = self.w[f, 1:, None] * cols[1:, zero]
            y[f, zero[((terms == 0) & np.signbit(terms)).all(axis=0)]] = -0.0
        return y


def _branch_rows(x: np.ndarray, kernel: _Kernel, relu: bool):
    """``rows(lo, hi)``: rows [lo, hi) of the (F, P) map of the convolution
    of ``x`` by ``kernel``, then max(0, .) if ``relu`` is set, computed from
    the input those rows read alone. It reads no per-thread state."""

    def rows(lo: int, hi: int) -> np.ndarray:
        y = kernel(_padded_rows(x, 0), slice(lo, hi))
        if relu:
            np.maximum(y, 0, out=y)
        return y

    return rows


def _conv_forward(kernel: _Kernel, rows, src: tuple[int, ...], relu: bool,
                  pool: _Pool | None, record: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """A convolution's forward over the (C, L, *S) source ``src`` whose rows
    ``rows(lo, hi)`` gives: the output, pooled if ``pool`` is given, and the
    pool's first-hit index if ``record`` is set (else None).

    Each block of the node's grid multiplies (:class:`_Kernel`) into the
    output (unpooled) or into its own product array (pooled) and runs the
    epilogue: ReLU in place, then the fused pool of its bins into the
    preallocated pooled output and, when recording, its index
    (:meth:`_Pool.fill`). The blocks are shared out by :func:`_run`.
    """
    taps, stride, fout = kernel.taps, kernel.stride, len(kernel.w)
    shape = (fout, (src[1] - taps[0]) // stride + 1)  # the unpooled map's
    if len(src) > 2:
        shape += tuple([d - k + 1 for d, k in zip(src[2:], taps[1:])])
    per_row = math.prod(shape[2:])
    if pool is None:
        out, index, edges = np.empty(shape, kernel.w.dtype), None, range(shape[1] + 1)
    else:
        pooled, edges = pool.out_shape, pool.edges
        out = np.empty(pooled, kernel.w.dtype)
        index = np.empty(pooled, pool.index_dtype) if record else None
    flat = out.reshape(fout, -1)  # where an unpooled node's blocks land

    def block(units: slice) -> None:
        p = slice(int(edges[units.start]), int(edges[units.stop]))
        y = kernel(rows, p, flat[:, p.start * per_row:p.stop * per_row] if pool is None else None)
        y = y.reshape((fout, -1) + shape[2:])  # a view: the last axis splits
        if relu:
            np.maximum(y, 0, out=y)
        if pool is not None:
            pool.fill(y, units, out, index)

    _run(block, _chunks(edges, max(kernel.depth, fout) * per_row))
    return out, index


def _conv(x: Tensor, weight: Tensor, bias: Tensor, stride: int, pad: int,
          relu: bool, pool: _Pool | None) -> Tensor:
    """One convolution node, in the kernel family selected when it is built,
    with an optional ReLU and an optional max pool fused in.

    The source is ``x``'s data with ``pad`` zeros around each spatial axis.
    Forward (:func:`_conv_forward`) reads it one block of output rows at a
    time: a slice of ``x``'s rows (a view) when ``pad`` is 0, else a
    zero-padded copy of those rows alone (:func:`_padded_rows`). So no
    padded copy of the whole input is made, and the unpooled map of a
    pooled node exists only a block at a time. The blocks are the node's
    grid (:func:`_chunks`), set by its shape alone: runs of whole units
    whose (depth, n) columns and (F, n) product each hold at most
    ``_COLUMN_BUDGET`` elements, but at least one unit. A pooled node's
    units are its pool's rows of bins (pairs of rows for a 2x2 window, one
    adaptive bin for ``conv1d``), an unpooled node's are single rows of P,
    the first output axis.

    The family (:class:`_Kernel`) picks only the product and where the bias
    enters. Inside :class:`workers` the blocks are shared out in order, one
    per worker at a time (:func:`_run`), in both families; the worker count
    picks only the thread that runs a block, never its operands.

    The node keeps no source. Backward runs the one convolution backward
    (:func:`_conv_grads`) in the family of forward, through a row reader
    built as forward's, so it too pads only the rows of one block at a
    time; the unpadded part of the source's gradient is ``x``'s.

    With ``relu`` set, both families clamp the biased output at 0 in place,
    and backward passes the output gradient only where the output is above
    0: the same mask as on the pre-activation, so the subgradient at exactly
    0 is 0 and the results are those of :func:`relu` after the convolution,
    bit for bit. The node then holds the post-activation output alone.

    With ``pool`` set, the node holds the pooled output and, when it
    records, each bin's first-hit index, never the unpooled map. Backward
    multiplies the pooled gradient by ``pooled > 0``, which is the ReLU
    mask at every winner, scatters the product to the winners of a zero
    conv-shaped array (:meth:`_Pool.scatter`) and runs the convolution's
    gradient products on that. This is the array the separate pool and
    ReLU give, bit for bit: at a winner both multiply the same gradient by the same mask (a masked
    negative gradient gives -0.0 and a NaN stays NaN, where a selection
    would give 0), and everywhere else both leave +0.0.
    """
    xd, wd, gemm = x.data, weight.data, _kernels.gemm
    rows, src = _padded_rows(xd, pad), xd.shape[:1] + tuple([d + 2 * pad for d in xd.shape[1:]])
    out, index = _conv_forward(_Kernel(wd, bias.data, stride, gemm), rows, src, relu, pool,
                               pool is not None and recording((x, weight, bias)))

    def _bw(g: np.ndarray):
        if relu:
            g = g * (out > 0)  # exactly where the pre-activation is > 0
        if pool is not None:
            g = pool.scatter(g, index)
        # the reader is built again, not kept: a recorded node would keep
        # its closure, about 500 B
        gsrc, gw, gb = _conv_grads(g, _padded_rows(xd, pad), src, wd, stride, gemm,
                                   x.requires_grad, weight.requires_grad)
        return None if gsrc is None else _unpadded(gsrc, pad), gw, gb

    return make_node(out, (x, weight, bias), _bw)


def _conv_grads(g: np.ndarray, rows, src: tuple[int, ...], wd: np.ndarray, stride: int,
                gemm: bool, need_src: bool, need_w: bool) -> tuple[np.ndarray | None, ...]:
    """Every convolution's backward: the gradients of the (padded) (C, L,
    *S) source ``src`` whose rows ``rows(lo, hi)`` gives, as forward's, of
    the weights ``wd`` and of the bias, given the gradient ``g`` of the
    unpooled, pre-activation map; None for the source unless ``need_src``,
    for the weights unless ``need_w``.

    It walks blocks of rows of P cut by the node's grid (:func:`_chunks`),
    as an unpooled forward does. For the weight gradient, each block reads
    the source rows it needs alone (:func:`_block_windows`) and multiplies
    ``g`` by their columns, so no whole source is built or held; nothing of
    the source is read unless ``need_w``. For the source gradient, it
    multiplies the weights by ``g`` and adds the product to one zero
    (padded) source-shaped array one tap at a time, through its (C, *taps,
    P, *S) view (:func:`_windows`); the per-tap index list is built only
    then. ``gemm`` picks only the product: ``np.matmul`` for GEMM,
    :func:`_ordered_matmul` (no BLAS) for the reference. The grid fixes each
    product's operands, so it also fixes the result bits.
    """
    fout, taps = wd.shape[0], wd.shape[2:]
    w2 = wd.reshape(fout, -1)
    matmul = np.matmul if gemm else _ordered_matmul
    lead = (slice(None),) * (1 + len(taps))  # the (C, *taps) axes of a window view
    depth, per_row = w2.shape[1], math.prod(g.shape[2:])
    gw = np.zeros_like(w2) if need_w else None
    gsrc = np.zeros(src, wd.dtype) if need_src else None
    if gsrc is not None:
        gwin = _windows(gsrc, taps, stride, writeable=True)
        tap_index = [(slice(None),) + tap for tap in itertools.product(*map(range, taps))]
    for p in _chunks(range(g.shape[1] + 1), max(depth, fout) * per_row):
        gc = g[:, p].reshape(fout, -1)
        if gw is not None:
            gw += matmul(gc, _block_windows(rows, p, taps, stride).reshape(depth, -1).T)
        if gsrc is not None:
            target = gwin[lead + (p,)]
            gcols = matmul(w2.T, gc).reshape(target.shape)
            # one add per tap: within a tap no two positions share an element
            for tap in tap_index:
                target[tap] += gcols[tap]
    return gsrc, None if gw is None else gw.reshape(wd.shape), g.reshape(fout, -1).sum(axis=1)


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


def level_features(maps: list[Tensor], target: tuple[int, int]) -> Tensor:
    """The multi-level head's feature vector: each (C, H, W) map pooled to
    (C, th, tw) by ``adaptive_maxpool(adaptive_maxpool(m, th, axis=1), tw,
    axis=2)``, flattened, and the maps concatenated in order, as one node
    whose parents are the maps. Each map raises what those pools raise.

    Both pools run on their shared plans, so the output has their bytes. A
    recorded node keeps the output and, per feature, one composed winner:
    the flat position in its map of the lowest column whose stage-1 maximum
    equals the feature, at that column's first-hit row, in the narrowest
    unsigned dtype that holds the map's size, which is the no-hit sentinel
    of a NaN feature. It keeps neither the stage-1 maps nor their indices.
    Backward writes the gradient straight to those positions in zero
    map-shaped arrays: the gradients of the two pools, :func:`concat` and
    :func:`reshape`, bit for bit by construction.
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
        if record:  # each feature's column in stage 1, then that column's row
            c, i, w = np.unravel_index(cols.winners(first_cols), stage1.shape)
            at = np.ravel_multi_index((c, rows.firsts[1][i] + first_rows[c, i, w], w), m.shape,
                                      mode="clip")
            at[first_cols == len(cols.offsets)] = m.size  # a NaN feature's sentinel
            winners.append(at.reshape(-1).astype(np.min_scalar_type(m.size)))
    out = np.concatenate(features)

    def _bw(g: np.ndarray):
        grads, lo = [], 0
        for m, at in zip(maps, winners):
            grads.append(_put(m.shape, at, at < m.size, g[lo:lo + len(at)]))
            lo += len(at)
        return grads

    return make_node(out, maps, _bw)


def _window_pool(shape: tuple[int, ...], window) -> _Pool:
    """The shared plan of ``maxpool2d(., window)`` over a ``shape`` input
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
    """The shared plan of ``adaptive_maxpool(., target, axis)`` over a
    ``shape`` input (:func:`_adaptive_plan`), after its argument checks,
    which run on every call."""
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
    """The bins of a checked ``maxpool2d(., window)`` over a ``shape``
    input: one read-only plan per (shape, window), which every node of that
    shape shares, recorded or not, from any thread."""
    (h, w), (channels, hin, win) = window, shape
    rows, cols = hin // h * h, win // w * w
    taps = [(i, j) for i in range(h) for j in range(w)]  # raster order
    return _Pool(shape, [np.arange(channels), np.arange(0, rows, h), np.arange(0, cols, w)],
                 np.array([i * win + j for i, j in taps]),
                 [(slice(None), slice(i, rows, h), slice(j, cols, w)) for i, j in taps],
                 range(0, rows + 1, h))


@functools.lru_cache(maxsize=_PLANS)
def _adaptive_plan(shape: tuple[int, ...], target: int, axis: int) -> _Pool:
    """The bins of a checked ``adaptive_maxpool(., target, axis)`` over a
    ``shape`` input, ``axis`` non-negative: one read-only plan per (shape,
    target, axis), which every node of that shape shares, recorded or not,
    from any thread."""
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

    A window pool's bins also run along axis 1 in whole rows of bins:
    ``edges`` holds their bounds there, so bin row i covers input rows
    [edges[i], edges[i + 1]), and :meth:`fill` pools any run of them from
    those input rows alone. An adaptive pool over a leading axis has no
    ``edges`` and pools all its bins at once.

    A plan is shared by every node of its shape and by the worker threads
    that fill their blocks, so its arrays are read-only. The tables that
    only a recording node reads (:meth:`bases`, and a bin pool's tap
    weights) are built on first use and kept, so a plan used only under
    :class:`~wavems.tensor.no_grad` never holds them.
    """

    # a plan is cached and shared by every node of its shape: no
    # per-instance dict, and no array of it may be written
    __slots__ = ("shape", "firsts", "offsets", "taps", "edges", "index_dtype", "_bases")

    def __init__(self, shape: tuple[int, ...], firsts: list[np.ndarray],
                 offsets: np.ndarray, taps: list[tuple] | None,
                 edges: range | np.ndarray | None):
        self.shape = shape
        # in the dtype of :meth:`bases`, so that :meth:`winners` stays in it
        self.offsets = _frozen(offsets.astype(np.min_scalar_type(math.prod(shape))))
        self.firsts = tuple(map(_frozen, firsts))
        self.taps = None if taps is None else tuple(taps)
        self.edges = _frozen(edges) if isinstance(edges, np.ndarray) else edges
        # tap numbers 0 .. n-1 and the no-hit sentinel n
        self.index_dtype = np.min_scalar_type(len(offsets))
        self._bases = None

    def bases(self) -> np.ndarray:
        """The flat position in the input of each bin's first element, an
        output-shaped table in the narrowest unsigned dtype that holds the
        input's size. Built on the first call and kept; two threads that
        both build it keep equal tables."""
        if self._bases is None:
            at, step = 0, 1  # last axis first
            for axis in range(len(self.shape) - 1, -1, -1):
                trailing = (1,) * (len(self.shape) - 1 - axis)
                at = at + (self.firsts[axis] * step).reshape(-1, *trailing)
                step *= self.shape[axis]
            self._bases = _frozen(at.astype(self.offsets.dtype))
        return self._bases

    def winners(self, index: np.ndarray) -> np.ndarray:
        """The flat position in the input of each bin's first hit
        (``index``). A bin with no hit gets its first element's position
        plus the last tap's offset: inside the input, but no winner."""
        return self.bases() + self.offsets.take(index, mode="clip")

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
        """:meth:`forward` of the bin rows ``bins`` into ``out[:, bins]`` and,
        unless it is None, ``index[:, bins]``, where ``a`` holds the input
        rows of those bins, from the first one's first row (the whole input
        when ``bins`` covers every bin). A running maximum over the taps;
        the index counts each bin's leading misses, the taps before its
        first hit."""
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
        """The input gradient of output gradient ``g``: each bin's gradient
        at its first hit (``index``), zero everywhere else; a bin with no
        hit passes nothing. Bins are disjoint, so no two winners share an
        element."""
        return _put(self.shape, self.winners(index), index < len(self.offsets), g)


class _BinPool(_Pool):
    """The bins of an ``adaptive_maxpool`` over the last axis: contiguous,
    ascending, bin i covering [edges[i], edges[i + 1]), together the whole
    axis; the same outputs and index as :class:`_Pool` with the same bins.

    Forward is one ``np.maximum.reduceat``, which walks each row once, in
    index order. For the index, every element equal to its bin's output
    weighs the tap count less its tap number and every other element 0; a
    second ``np.maximum.reduceat`` finds each bin's heaviest, which is its
    first hit. A bin holding NaN weighs 0 throughout, which gives the
    sentinel.
    """

    __slots__ = ("sizes", "_weights")

    def __init__(self, shape: tuple[int, ...], firsts: list[np.ndarray],
                 offsets: np.ndarray, edges: np.ndarray):
        super().__init__(shape, firsts, offsets, None, edges)
        self.sizes = _frozen(edges[1:] - edges[:-1])
        self._weights = None

    def weights(self) -> np.ndarray:
        """Each element's tap weight along the last axis: the tap count less
        its tap number, in the index dtype. Built on the first call and kept,
        as :meth:`bases` is."""
        if self._weights is None:
            n = len(self.offsets)
            weights = np.repeat(self.firsts[-1] + n, self.sizes) - np.arange(self.shape[-1])
            self._weights = _frozen(weights.astype(self.index_dtype))
        return self._weights

    def fill(self, a: np.ndarray, bins: slice, out: np.ndarray, index: np.ndarray | None) -> None:
        """:meth:`forward` of the bins ``bins`` into ``out[..., bins]`` and,
        unless it is None, ``index[..., bins]``, where ``a`` holds exactly
        those bins' elements along the last axis."""
        starts, sizes, n = self.firsts[-1][bins], self.sizes[bins], len(self.offsets)
        first = starts[0]
        starts = starts - first  # within ``a``
        out = out[..., bins]
        np.maximum.reduceat(a, starts, axis=-1, out=out)
        if index is None:
            return
        weights = self.weights()[first:first + a.shape[-1]]
        hits = (a == np.repeat(out, sizes, axis=-1)) * weights
        np.subtract(n, np.maximum.reduceat(hits, starts, axis=-1), out=index[..., bins])


def _put(shape: tuple[int, ...], at: np.ndarray, hit: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A zero array of ``shape`` holding each element of ``g`` at the flat
    position ``at`` holds for it, where ``hit`` is set; the positions are
    distinct."""
    gx = np.zeros(shape, dtype=g.dtype)
    if not hit.all():
        at, g = at[hit], g[hit]
    gx.reshape(-1)[at] = g
    return gx


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
