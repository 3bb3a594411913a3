"""Differentiable operations over :class:`~wavems.tensor.Tensor`.

Only the operators the architecture needs.

Both max pools, :func:`maxpool2d` and :func:`adaptive_maxpool`, build one
node type (:func:`_pool`): a running maximum over output-shaped strided
slices (``maxpool2d``) or gathers (``adaptive_maxpool``) of the input, with
each bin's gradient routed to its first maximum (window raster order for
``maxpool2d``, lowest index for ``adaptive_maxpool``). The node keeps no
copy of its input.

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

    return _conv(x, x.data, weight, bias, lambda a, **kw: sliding_window_view(
        a, k, axis=1, **kw)[:, ::stride], lambda gx: gx)


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
    return _conv(x, xpad, weight, bias, lambda a, **kw: sliding_window_view(
        a, (3, 3), axis=(1, 2), **kw), lambda gpad: gpad[:, 1:-1, 1:-1])


def _terms(channels: int, taps: tuple[int, ...]):
    """Weight and window indices of each (channel, tap) term, in the
    reference summation order: channels outer, taps in raster order."""
    for c in range(channels):
        for tap in np.ndindex(*taps):
            yield (slice(None), c) + tap, (c, Ellipsis) + tap


def _conv(x: Tensor, src: np.ndarray, weight: Tensor, bias: Tensor,
          windows, crop) -> Tensor:
    """One convolution node, in the kernel family selected when it is built.

    ``windows(a, writeable=False)`` views ``a`` (``src`` or its gradient) as
    (C, P, *S, *taps): the taps under every output position, with P the
    first output axis. ``crop`` maps the gradient of ``src`` to the shape
    of ``x``.

    The reference family starts each output from its bias and adds one
    (channel, tap) term at a time, in the order of :func:`_terms`; each term
    reads the same elements as a nested-loop evaluation, so results are
    bit-reproducible on any BLAS. The GEMM family (inside
    :class:`gemm_kernels`) multiplies the (F, C*taps) weights by im2col
    columns one chunk of P at a time, each chunk's column buffer no larger
    than the output, and adds the bias last; backward rebuilds the columns
    rather than keeping them.
    """
    wd = weight.data
    fout, taps = wd.shape[0], wd.shape[2:]
    win = windows(src)
    out = np.empty((fout,) + win.shape[1:win.ndim - len(taps)], dtype=src.dtype)
    col = (fout,) + (1,) * (out.ndim - 1)  # a per-filter value against the output

    if _gemm_enabled:
        w2 = wd.reshape(fout, -1)
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
        out += bias.data.reshape(col)

        def grads(g: np.ndarray, gw, gwin) -> None:
            gw2 = None if gw is None else gw.reshape(fout, -1)
            for lo, hi in chunks:
                gc = g[:, lo:hi].reshape(fout, -1)
                if gw2 is not None:
                    gw2 += gc @ columns(lo, hi).T
                if gwin is not None:
                    target = gwin[:, lo:hi]
                    gcols = (w2.T @ gc).reshape((-1,) + taps + target.shape[1:-len(taps)])
                    # one add per tap: within a tap no two positions share an element
                    for tap in np.ndindex(*taps):
                        target[(Ellipsis,) + tap] += gcols[(slice(None),) + tap]
    else:
        out[...] = bias.data.reshape(col)
        for wi, xi in _terms(win.shape[0], taps):
            out += wd[wi].reshape(col) * win[xi]

        def grads(g: np.ndarray, gw, gwin) -> None:
            gflat = g.reshape(fout, -1)
            for wi, xi in _terms(win.shape[0], taps):
                if gwin is not None:
                    gwin[xi] += (wd[wi] @ gflat).reshape(g.shape[1:])
                if gw is not None:
                    gw[wi] = gflat @ win[xi].reshape(-1)

    def _bw(g: np.ndarray) -> None:
        gw = np.zeros(wd.shape, dtype=wd.dtype) if weight.requires_grad else None
        gsrc = np.zeros_like(src) if x.requires_grad else None
        grads(g, gw, None if gsrc is None else windows(gsrc, writeable=True))
        if gsrc is not None:
            accumulate_grad(x, crop(gsrc))
        if gw is not None:
            accumulate_grad(weight, gw)
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
    # row j holds the j-th index of every bin; short bins repeat their last
    rows = np.minimum(starts + np.arange((ends - starts).max())[:, None], ends - 1)
    lead = (slice(None),) * (axis % x.data.ndim)
    return _pool(x, [lead + (row,) for row in rows])


def _pool(x: Tensor, taps: list[tuple]) -> Tensor:
    """One max-pool node: the maximum over each bin, gradient to its first maximum.

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

    def _bw(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        free = np.ones(out.shape, dtype=bool)  # bins whose maximum is not yet found
        for tap in taps:
            hit = free & (x.data[tap] == out)
            free ^= hit
            gx[tap] = np.where(hit, g, gx[tap])
        accumulate_grad(x, gx)

    return make_node(out, (x,), _bw)


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
