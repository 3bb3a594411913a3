"""The convolution machinery of :mod:`wavems.ops`, on arrays alone: it
builds no graph node and reads no :class:`~wavems.tensor.Tensor`. Kernel
families: :class:`_Kernel`. The grid: :func:`_chunks`. Block sharing:
:func:`_run`. Forward: :func:`_conv_forward`. Backward: :func:`_conv_grads`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from queue import Empty, SimpleQueue
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .ops import _Pool


class _KernelChoice(threading.local):
    gemm = False  # every thread starts on the reference kernels
    pool = None  # ... and runs its convolution forwards itself
    workers = 1


_kernels = _KernelChoice()


class gemm_kernels:
    """Context manager that routes the convolutions and
    :func:`~wavems.ops.linear` of the calling thread to the GEMM kernel
    family (:class:`_Kernel`); ``gemm_kernels(False)`` selects the reference
    family, every thread's default. The previous choice returns on exit.
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
    """Whether the calling thread uses the GEMM kernels."""
    return _kernels.gemm


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class workers:
    """Context manager that shares the forward blocks (:func:`_run`) of the
    calling thread's convolutions among it and a pool of ``count - 1``
    threads, ``count`` being ``n`` capped at :func:`usable_cpus`; at 1 no
    thread starts. On exit the pool's threads end and the previous returns.
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
    """``fn(b)`` for every block of a forward; returns when all have
    returned. Inside :class:`workers`, the caller and the pool's threads
    take the blocks in order from one queue. A block's operands are set by
    the grid and by the kernel fixed when its node was built, and it reads
    no per-thread state, so the worker count picks only the thread that
    runs it: the bits are one worker's by construction. Before it returns
    or raises, unstarted pool tasks are cancelled and the others waited
    for; then the first exception, the caller's first, is raised.
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


#: Elements one block's im2col columns and its product may each hold (2 MiB
#: in float32): the one constant of every grid (:func:`_chunks`).
_COLUMN_BUDGET = 1 << 19


def _chunks(edges: range | np.ndarray, row: int) -> list[slice]:
    """A node's grid: its units (rows of the first output axis, or a fused
    pool's rows of bins; unit i covers rows [edges[i], edges[i + 1])) cut
    into blocks, in order, of as many whole units as hold at most
    ``_COLUMN_BUDGET`` elements at ``row`` per row, but at least one. Every
    product of a node, forward and backward, runs on it, and the node's
    shape alone sets it, so it fixes each product's operands and bits.
    """
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
    zeros around every axis but the first, built for those rows alone (a
    view when ``pad`` is 0), so no convolution pads a whole input."""
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
    """The part of a padded array (:func:`_padded_rows`) that is not pad."""
    return a[(slice(None),) + (slice(pad, -pad),) * (a.ndim - 1)] if pad else a


def _windows(a: np.ndarray, taps: tuple[int, ...], stride: int,
             writeable: bool = False) -> np.ndarray:
    """The (C, *taps, P, *S) view of a (C, *spatial) array, with no copy:
    element [c, *t, p, *s] is a[c, p*stride + t[0], s + t[1:]]. A
    C-contiguous ``a``'s is built on its buffer; ``as_strided``, which
    others need, takes about four times as long per call.
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
    """The window view (:func:`_windows`) of the source rows that the
    output rows ``p`` read, from ``rows(lo, hi)``: a block's one read."""
    return _windows(rows(p.start * stride, (p.stop - 1) * stride + taps[0]), taps, stride)


def _ordered_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` (into ``out``) by numpy's einsum loops, which call no BLAS
    and sum each output in term order, one term at a time, when both
    operands are C-contiguous and the product is at least two columns wide.
    ``linear``'s forward and backward's ``gc @ columns.T`` are not, so their
    bits rest on numpy's choice of loop, still on no BLAS.
    """
    return np.einsum("ij,jk->ik", a, b, out=out)


class _Kernel:
    """One convolution's weights, bias, stride and kernel family, fixed
    when it is built so that a pool thread may run it: the biased product of
    a run of output rows, from im2col columns of the source rows they read.

    The families differ only in the product and where the bias enters, and
    :func:`_conv_grads` and ``linear`` pick their products alike. GEMM
    multiplies with BLAS (``np.matmul``) and adds the bias: several times
    faster, equal to the reference to rounding, and bit for bit repeatable
    only on the same BLAS build and thread count. The reference, every
    thread's default, runs :func:`_ordered_matmul` on a leading bias column
    of the weights and a leading row of ones of the columns, so each output
    sums its bias, then its (C, *taps) terms in raster order: the bits of a
    sequential nested loop at the same precision, on any BLAS. A one-column
    product runs two wide on a zero column, as neither BLAS nor einsum sums
    a lone column as a wide one's; a -0.0 reference bias keeps -0.0 where
    every term is.
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
        """The (F, n) product of the output rows ``p`` (n is p's length
        times S's size), into ``y`` if given, from the source rows that
        ``rows(lo, hi)`` gives of a (C, rows, *S) array."""
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
            # is not copied: the front end's GEMM branch rows match the
            # branch conv node's map only at the widths that phase blocks
            # request (``TestStreamedFrontend``), and a copy moves those bits.
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
    """``rows(lo, hi)``: rows [lo, hi) of the map of ``kernel`` over ``x``,
    then ReLU if ``relu`` is set, computed from the input they read alone."""

    def rows(lo: int, hi: int) -> np.ndarray:
        y = kernel(_padded_rows(x, 0), slice(lo, hi))
        if relu:
            np.maximum(y, 0, out=y)
        return y

    return rows


def _conv_forward(kernel: _Kernel, rows, shape: tuple[int, ...], relu: bool,
                  pool: _Pool | None, record: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """A convolution's forward to its unpooled map of ``shape``, as the
    node's argument check gives it, from the source rows that
    ``rows(lo, hi)`` gives: the output, pooled if ``pool`` is given, and its
    first-hit index if ``record`` is set (else None). Each block of the
    grid, run by :func:`_run`, fills its own part of the output.
    """
    fout, per_row = shape[0], math.prod(shape[2:])
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


def _conv_grads(g: np.ndarray, rows, src: tuple[int, ...], wd: np.ndarray, stride: int,
                gemm: bool, need_src: bool, need_w: bool) -> tuple[np.ndarray | None, ...]:
    """Every convolution's backward, given the gradient ``g`` of the
    unpooled, pre-activation map: the gradients of the (padded) source
    ``src`` whose rows ``rows(lo, hi)`` gives, as forward's (None unless
    ``need_src``), of the weights ``wd`` (None unless ``need_w``) and of the
    bias. It walks the unpooled node's grid in order, in the calling thread,
    with ``gemm``'s family. A block reads the source rows it needs alone,
    only for the weight gradient, and adds its source gradient to one zero
    source-shaped array a tap at a time. The bias gradient sums ``g`` whole.
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
