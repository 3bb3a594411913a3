"""Tensor engine: brute-force forward oracles, finite-difference gradients,
error contracts, and the optimizer update rule."""

import math
import re
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from wavems import _conv, ops
from wavems.errors import ShapeError
from wavems.model import Model, build_model
from wavems.optim import sgd_step
from wavems.tensor import (Parameter, Tensor, backward, grad_enabled, make_node, no_grad,
                           zero_grads)

from conftest import desk_model_config, traced
from gradcheck import assert_rel_close, check_op_gradients, fd_gradient, weighted_sum
from oracles import (adaptive_maxpool_oracle, adaptive_pool_bins, conv1d_oracle,
                     conv2d_oracle, maxpool2d_oracle)


def t(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# Reference convolutions against the nested-loop oracles, byte for byte. The
# blocks noted are those of the forward under ``ORACLE_SPLIT_BUDGET`` (rows
# of P per block: budget // (max(C * taps, F) * S), at least one).
ORACLE_CASES = ["random", "one-column-last-chunk", "one-position", "neg-zero-bias",
                "cancelling", "nan"]
ORACLE_SPLIT_BUDGET = {"conv1d": 12, "conv2d": 18}


def oracle_case(conv, case, rng):
    """(x, weight, bias, stride) of one oracle comparison, in float64."""
    if case == "random":  # conv1d: 3 blocks of one column; conv2d: 4 of one row
        shapes = ((2, 9), (3, 2, 4)) if conv == "conv1d" else ((2, 4, 5), (3, 2, 3, 3))
    elif case == "one-column-last-chunk":  # blocks of 4, 1 and 2, 2, 2, 1 columns
        shapes = ((1, 7), (2, 1, 3)) if conv == "conv1d" else ((1, 7, 1), (4, 1, 3, 3))
    elif case == "one-position":  # a single output column, whatever the budget
        shapes = ((3, 5), (2, 3, 5)) if conv == "conv1d" else ((2, 1, 1), (3, 2, 3, 3))
    elif case == "neg-zero-bias":  # zero input: filter 0's terms are all -0.0, filter
        # 1's all +0.0; conv1d: 5 blocks of 2 columns, conv2d: 5 of one row
        shapes = ((2, 12), (2, 2, 3)) if conv == "conv1d" else ((2, 5, 4), (2, 2, 3, 3))
    elif case == "cancelling":  # weights -1: the 1, -1, 0 runs cancel exactly, to
        # +0.0; outputs over zeros alone keep -0.0. conv1d: 3 blocks, conv2d: 6
        shapes = ((1, 12), (1, 1, 3)) if conv == "conv1d" else ((1, 6, 6), (1, 1, 3, 3))
    else:  # "nan": one NaN input, and a -0.0 bias
        shapes = ((2, 10), (2, 2, 3)) if conv == "conv1d" else ((2, 5, 4), (2, 2, 3, 3))
    x, w = rng.standard_normal(shapes[0]), rng.standard_normal(shapes[1])
    b = rng.standard_normal(w.shape[0])
    if case == "neg-zero-bias":
        x[...] = 0.0
        w[0], w[1] = -np.abs(w[0]), np.abs(w[1])
        b[:] = -0.0
    elif case == "cancelling":
        x[...] = 0.0
        x[..., :6] = [1, -1, 0, 1, -1, 0]
        if conv == "conv2d":
            x[:, 2:] = 0.0  # rows 0-1 hold the runs
        w[...], b[:] = -1.0, -0.0
    elif case == "nan":
        x[(1,) * x.ndim] = np.nan
        b[0] = -0.0
    return x, w, b, 2 if case == "random" and conv == "conv1d" else 1


def forward_blocks(monkeypatch):
    """The block count of every convolution forward from now on."""
    counts, real = [], _conv._run
    monkeypatch.setattr(_conv, "_run", lambda fn, blocks: counts.append(len(blocks))
                        or real(fn, blocks))
    return counts


def assert_oracle_bytes(got, want, case):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    zeros = want[want == 0]
    if case == "neg-zero-bias":
        assert np.signbit(want[0]).all() and not np.signbit(want[1]).any()
    elif case == "cancelling":  # both signs of zero occur
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    elif case == "nan":
        assert np.isnan(want).any() and not np.isnan(want).all()


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

class TestConv1d:
    def test_output_length_formula(self):
        x = Tensor(np.zeros((1, 66150)))
        w11 = Tensor(np.zeros((1, 1, 11)))
        w101 = Tensor(np.zeros((1, 1, 101)))
        b = Tensor(np.zeros(1))
        assert ops.conv1d(x, w11, b, stride=1).shape == (1, 66140)
        assert ops.conv1d(x, w101, b, stride=10).shape == (1, 6605)

    def test_delta_kernel_picks_first_sample(self):
        out = ops.conv1d(t([[1, 2, 3]]), t([[[1, 0, 0]]]), t([0]), stride=1)
        assert out.data.tolist() == [[1.0]]

    @pytest.mark.parametrize("split", [False, True], ids=["budget", "no_budget"])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_oracle(self, case, split, rng, monkeypatch):
        if split:
            monkeypatch.setattr(_conv, "_COLUMN_BUDGET", ORACLE_SPLIT_BUDGET["conv1d"])
        blocks = forward_blocks(monkeypatch)
        x, w, b, stride = oracle_case("conv1d", case, rng)
        out = ops.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride)
        assert_oracle_bytes(out.data, conv1d_oracle(x, w, b, stride), case)
        assert (blocks[0] > 1) == (split and case != "one-position")

    def test_shape_and_argument_errors(self):
        x, w, b = t(np.zeros((1, 2))), t(np.zeros((1, 1, 3))), t(np.zeros(1))
        with pytest.raises(ShapeError):
            ops.conv1d(x, w, b, stride=1)  # L < k
        with pytest.raises(ValueError):
            ops.conv1d(t(np.zeros((1, 8))), w, b, stride=0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(1000 + seed)
        cin, fout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        length = int(rng.integers(k, k + 9))
        stride = int(rng.integers(1, 4))
        x = t(rng.standard_normal((cin, length)), requires_grad=True)
        w = t(rng.standard_normal((fout, cin, k)), requires_grad=True)
        b = t(rng.standard_normal(fout), requires_grad=True)
        check_op_gradients(lambda: ops.conv1d(x, w, b, stride=stride),
                           [x, w, b], seed=seed)


class TestFrontendBranch:
    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("phase_stride", [1, 2])
    @pytest.mark.parametrize("relu", [False, True])
    def test_gradients(self, relu, phase_stride, gemm):
        """A front-end branch's one node, against finite differences for
        all five inputs: the window and both convolutions' weights and
        biases. Its backward computes the branch map again."""
        rng = np.random.default_rng(7300 + 2 * relu + phase_stride)
        x = t(rng.standard_normal((2, 40)), requires_grad=True)
        w = t(rng.standard_normal((3, 2, 5)), requires_grad=True)
        b = t(rng.standard_normal(3), requires_grad=True)
        pw = t(rng.standard_normal((4, 3, 3)), requires_grad=True)
        pb = t(rng.standard_normal(4), requires_grad=True)

        def branch():  # ``ops.frontend`` of this branch alone, without the leading axis
            out = ops.frontend(x, [(w, b, 2, pw, pb)], relu, phase_stride, 4)
            return ops.reshape(out, out.shape[1:])

        with ops.gemm_kernels(gemm):
            check_op_gradients(branch, [x, w, b, pw, pb], seed=phase_stride)

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    def test_backward_drops_each_array_when_spent(self, gemm, monkeypatch):
        """A desk window's front-end backward, per branch: the branch map,
        computed again, is alive for the phase weight gradient and gone
        before the phase source gradient is made; the phase pre-activation
        gradient is gone before the branch conv's backward."""
        maps, phase_grads, events = [], [], []
        real_forward, real_grads = _conv._conv_forward, _conv._conv_grads

        def forward(kernel, rows, shape, relu, pool, record):
            out, index = real_forward(kernel, rows, shape, relu, pool, record)
            if pool is None:  # only a branch map is unpooled in a desk window
                maps.append(weakref.ref(out))
            return out, index

        def grads(g, rows, src, wd, *args):
            need_src, need_w = args[2:4]
            if wd.ndim == 3 and wd.shape[1] > 1:  # a phase conv
                events.append(("phase source" if need_src else "phase weight",
                               maps[-1]() is not None))
                phase_grads.append(weakref.ref(g))
            elif wd.ndim == 3:  # a branch conv
                events.append(("branch", phase_grads[-1]() is not None))
            return real_grads(g, rows, src, wd, *args)

        monkeypatch.setattr(_conv, "_conv_forward", forward)
        monkeypatch.setattr(_conv, "_conv_grads", grads)
        model = build_model(desk_model_config(), seed=0)
        window = np.random.default_rng(2).standard_normal(model.config.window_length)
        with ops.gemm_kernels(gemm):
            backward(ops.softmax_cross_entropy(model.forward(window.astype(np.float32)), 0))
        assert len(maps) == 3
        assert events == [("phase weight", True), ("phase source", False), ("branch", False)] * 3


# ---------------------------------------------------------------------------
# convolution arguments
# ---------------------------------------------------------------------------

def ones(*shape, dtype=np.float32):
    return Tensor(np.ones(shape, dtype))


#: Good arguments of ``conv1d``, ``conv2d`` and a one-branch ``frontend``,
#: whose branch conv maps the (1, 30) window to a (4, 13) map, and whose
#: phase conv maps that to (4, 11).
CONV_ARGUMENTS = {
    "conv1d": dict(x=ones(2, 10), w=ones(3, 2, 4), b=ones(3), stride=2, pool=2),
    "conv2d": dict(x=ones(2, 5, 6), w=ones(3, 2, 3, 3), b=ones(3), pool=(2, 2)),
    "frontend": dict(x=ones(1, 30), w=ones(4, 1, 5), b=ones(4), stride=2, pw=ones(4, 4, 3),
                     pb=ones(4), phase_stride=1, pool=5),
}

_PRECISION = "mixed-precision graph: float64 vs float32"
_STRIDE = "stride must be a positive int, got 0"
_RANK1 = "conv1d expects (C,L), (F,C,k), (F,); got "

#: (case, convolution, changed arguments, exception type, message): each bad
#: argument on ``conv1d``, ``conv2d``, and a front-end branch's branch conv
#: and phase conv. ``conv2d`` has no stride, a padded 3x3 filter fits any
#: input, and only the phase conv of a branch is pooled; only ``conv2d``
#: fixes its filter size.
BAD_CONV_ARGUMENTS = [
    ("precision", "conv1d", dict(b=ones(3, dtype=np.float64)), ValueError, _PRECISION),
    ("precision", "conv2d", dict(b=ones(3, dtype=np.float64)), ValueError, _PRECISION),
    ("precision", "branch", dict(b=ones(4, dtype=np.float64)), ValueError, _PRECISION),
    ("precision", "phase", dict(pb=ones(4, dtype=np.float64)), ValueError, _PRECISION),
    ("stride", "conv1d", dict(stride=0), ValueError, _STRIDE),
    ("stride", "branch", dict(stride=0), ValueError, _STRIDE),
    ("stride", "phase", dict(phase_stride=0), ValueError, _STRIDE),
    ("rank", "conv1d", dict(w=ones(3, 2)), ShapeError, _RANK1 + "(2, 10), (3, 2), (3,)"),
    ("rank", "conv2d", dict(w=ones(3, 2, 3)), ShapeError,
     "conv2d expects (C,H,W), (F,C,3,3), (F,); got (2, 5, 6), (3, 2, 3), (3,)"),
    ("rank", "branch", dict(w=ones(4, 1)), ShapeError, _RANK1 + "(1, 30), (4, 1), (4,)"),
    ("rank", "phase", dict(pw=ones(4, 4)), ShapeError, _RANK1 + "(4, 13), (4, 4), (4,)"),
    ("kernel", "conv2d", dict(w=ones(3, 2, 3, 5)), ValueError, "conv2d kernel must be 3x3, got 3x5"),
    ("channels", "conv1d", dict(w=ones(3, 3, 4)), ShapeError,
     "conv1d channel mismatch: input 2, weight 3"),
    ("channels", "conv2d", dict(w=ones(3, 3, 3, 3)), ShapeError,
     "conv2d channel mismatch: input 2, weight 3"),
    ("channels", "branch", dict(w=ones(4, 2, 5)), ShapeError,
     "conv1d channel mismatch: input 1, weight 2"),
    ("channels", "phase", dict(pw=ones(4, 5, 3)), ShapeError,
     "conv1d channel mismatch: input 4, weight 5"),
    ("bias", "conv1d", dict(b=ones(4)), ShapeError, "conv1d bias shape (4,) != (3,)"),
    ("bias", "conv2d", dict(b=ones(4)), ShapeError, "conv2d bias shape (4,) != (3,)"),
    ("bias", "branch", dict(b=ones(5)), ShapeError, "conv1d bias shape (5,) != (4,)"),
    ("bias", "phase", dict(pb=ones(5)), ShapeError, "conv1d bias shape (5,) != (4,)"),
    ("short", "conv1d", dict(w=ones(3, 2, 11)), ShapeError,
     "conv1d input length 10 < filter length 11"),
    ("short", "branch", dict(w=ones(4, 1, 31)), ShapeError,
     "conv1d input length 30 < filter length 31"),
    ("short", "phase", dict(pw=ones(4, 4, 14)), ShapeError,
     "conv1d input length 13 < filter length 14"),
    ("empty", "conv1d", dict(x=ones(2, 0)), ShapeError,
     "conv1d has an empty axis: input (2, 0), weight (3, 2, 4)"),
    ("empty-height", "conv2d", dict(x=ones(2, 0, 6)), ShapeError,
     "conv2d has an empty axis: input (2, 0, 6), weight (3, 2, 3, 3)"),
    ("empty-width", "conv2d", dict(x=ones(2, 5, 0)), ShapeError,
     "conv2d has an empty axis: input (2, 5, 0), weight (3, 2, 3, 3)"),
    ("empty", "branch", dict(x=ones(1, 0)), ShapeError,
     "conv1d has an empty axis: input (1, 0), weight (4, 1, 5)"),
    ("empty-channels", "conv2d", dict(x=ones(0, 5, 6), w=ones(3, 0, 3, 3)), ShapeError,
     "conv2d has an empty axis: input (0, 5, 6), weight (3, 0, 3, 3)"),
    ("empty-filters", "conv1d", dict(w=ones(0, 2, 4), b=ones(0)), ShapeError,
     "conv1d has an empty axis: input (2, 10), weight (0, 2, 4)"),
    ("empty-taps", "phase", dict(pw=ones(4, 4, 0)), ShapeError,
     "conv1d has an empty axis: input (4, 13), weight (4, 4, 0)"),
    ("pool", "conv1d", dict(pool=5), ShapeError, "axis extent 4 < pool target 5"),
    ("pool", "conv2d", dict(pool=(6, 2)), ShapeError, "pool window (6, 2) exceeds input 5x6"),
    ("pool", "phase", dict(pool=12), ShapeError, "axis extent 11 < pool target 12"),
]


@pytest.mark.parametrize("case,conv,changes,error,message", BAD_CONV_ARGUMENTS,
                         ids=[f"{case}-{conv}" for case, conv, *_ in BAD_CONV_ARGUMENTS])
def test_bad_convolution_arguments(case, conv, changes, error, message, monkeypatch):
    """A bad argument raises its exception type and message before any
    convolution runs, on every convolution node that takes it."""
    monkeypatch.setattr(_conv, "_run", lambda fn, blocks: pytest.fail("a convolution ran"))
    a = {**CONV_ARGUMENTS["frontend" if conv in ("branch", "phase") else conv], **changes}
    with pytest.raises(error) as raised:
        if conv == "conv1d":
            ops.conv1d(a["x"], a["w"], a["b"], a["stride"], relu=True, pool=a["pool"])
        elif conv == "conv2d":
            ops.conv2d(a["x"], a["w"], a["b"], relu=True, pool=a["pool"])
        else:
            ops.frontend(a["x"], [(a["w"], a["b"], a["stride"], a["pw"], a["pb"])], True,
                         a["phase_stride"], a["pool"])
    assert type(raised.value) is error and str(raised.value) == message


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

class TestConv2d:
    def test_same_padding_shape(self):
        x = Tensor(np.zeros((1, 96, 441), dtype=np.float32))
        w = Tensor(np.zeros((64, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(64, dtype=np.float32))
        assert ops.conv2d(x, w, b).shape == (64, 96, 441)

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 5, 6))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("split", [False, True], ids=["budget", "no_budget"])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_oracle(self, case, split, rng, monkeypatch):
        if split:
            monkeypatch.setattr(_conv, "_COLUMN_BUDGET", ORACLE_SPLIT_BUDGET["conv2d"])
        blocks = forward_blocks(monkeypatch)
        x, w, b, _ = oracle_case("conv2d", case, rng)
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b))
        assert_oracle_bytes(out.data, conv2d_oracle(x, w, b), case)
        assert (blocks[0] > 1) == (split and case != "one-position")

    def test_rejects_non_3x3_kernel(self):
        with pytest.raises(ValueError):
            ops.conv2d(t(np.zeros((1, 4, 4))), t(np.zeros((1, 1, 5, 5))), t(np.zeros(1)))

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(2000 + seed)
        cin, fout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        h, w_ = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x = t(rng.standard_normal((cin, h, w_)), requires_grad=True)
        w = t(rng.standard_normal((fout, cin, 3, 3)), requires_grad=True)
        b = t(rng.standard_normal(fout), requires_grad=True)
        check_op_gradients(lambda: ops.conv2d(x, w, b), [x, w, b], seed=seed)


# ---------------------------------------------------------------------------
# conv + ReLU fused into one node
# ---------------------------------------------------------------------------

def fused_case(conv, rng, dtype, stride=1, zero_input=False):
    """Arrays (x, weight, bias) and the op of one convolution. With
    ``zero_input`` the input is all zeros, filter 0's weights positive and
    bias +0.0, filter 1's negative and bias -0.0, so every pre-activation
    is +0.0 or -0.0."""
    if conv == "conv1d":
        k = int(rng.integers(1, 2 * stride + 4))
        shapes = ((3, 2 * k + 8 * stride + int(rng.integers(0, 2 * stride))), (2, 3, k))
        op = lambda x, w, b, **kw: ops.conv1d(x, w, b, stride=stride, **kw)
    else:
        shapes = ((3, int(rng.integers(4, 9)), int(rng.integers(1, 8))), (2, 3, 3, 3))
        op = ops.conv2d
    x = rng.standard_normal(shapes[0]).astype(dtype)
    w = rng.standard_normal(shapes[1]).astype(dtype)
    b = rng.standard_normal(2).astype(dtype)
    if zero_input:
        x[...] = 0.0
        w[0], w[1] = np.abs(w[0]), -np.abs(w[1])
        b[:] = [0.0, -0.0]
    else:  # zeros in the first half: filter 1's first outputs are exactly 0
        x[:, :x.shape[1] // 2] = 0.0
        b[1] = 0.0
    return op, [x, w, b]


def fused_and_separate(op, arrays, gemm):
    """Output and the x, weight and bias gradients of sum(r * relu(conv)),
    once from the fused node and once from ``ops.relu`` on its own node."""
    results = []
    for fused in (True, False):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with ops.gemm_kernels(gemm):
            out = op(*inputs, relu=True) if fused else ops.relu(op(*inputs))
            r = np.random.default_rng(out.size).standard_normal(out.shape).astype(out.dtype)
            backward(weighted_sum(out, r))
        results.append([out.data] + [t.grad for t in inputs])
    return results


def assert_bytes_equal(got, want):
    for name, a, b in zip(("out", "x", "weight", "bias"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), f"{name} differs"


CONVS = [("conv1d", 1), ("conv1d", 5), ("conv1d", 10), ("conv2d", 1)]


class TestFusedRelu:
    """``relu=True`` gives the bytes of ``ops.relu`` on the convolution."""

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("conv,stride", CONVS)
    @pytest.mark.parametrize("seed", range(3))
    def test_byte_identical_to_separate_relu(self, seed, conv, stride, dtype, gemm):
        rng = np.random.default_rng(7000 + 10 * seed + stride)
        op, arrays = fused_case(conv, rng, dtype, stride)
        fused, separate = fused_and_separate(op, arrays, gemm)
        assert_bytes_equal(fused, separate)
        assert (fused[0] == 0).any() and (fused[0] > 0).any()

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("conv,stride", CONVS)
    def test_signed_zero_pre_activation_passes_no_gradient(self, conv, stride, dtype, gemm):
        op, arrays = fused_case(conv, np.random.default_rng(stride), dtype, stride,
                                zero_input=True)
        with ops.gemm_kernels(gemm):
            pre = op(*[Tensor(a) for a in arrays]).data
        assert (pre == 0).all()
        if not gemm:  # the reference sum keeps the sign of its zero terms
            assert not np.signbit(pre[0]).any() and np.signbit(pre[1]).all()
        fused, separate = fused_and_separate(op, arrays, gemm)
        assert_bytes_equal(fused, separate)
        for grad in fused[1:]:
            assert not grad.any()

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("seed", range(4))
    def test_conv1d_gradients(self, seed, gemm):
        rng = np.random.default_rng(7100 + seed)
        stride = (1, 5, 10, 2)[seed]
        cin, fout, k = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 7))
        length = k + int(rng.integers(0, 3 * stride + 4))
        x = t(rng.standard_normal((cin, length)), requires_grad=True)
        w = t(rng.standard_normal((fout, cin, k)), requires_grad=True)
        b = t(rng.standard_normal(fout), requires_grad=True)
        with ops.gemm_kernels(gemm):
            check_op_gradients(lambda: ops.conv1d(x, w, b, stride=stride, relu=True),
                               [x, w, b], seed=seed)

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("seed", range(4))
    def test_conv2d_gradients(self, seed, gemm):
        rng = np.random.default_rng(7200 + seed)
        cin, fout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        h, w_ = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x = t(rng.standard_normal((cin, h, w_)), requires_grad=True)
        w = t(rng.standard_normal((fout, cin, 3, 3)), requires_grad=True)
        b = t(rng.standard_normal(fout), requires_grad=True)
        with ops.gemm_kernels(gemm):
            check_op_gradients(lambda: ops.conv2d(x, w, b, relu=True), [x, w, b], seed=seed)

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("conv", ["conv1d", "conv2d"])
    def test_node_keeps_only_its_output(self, conv, relu, gemm):
        """No padded or activated copy outlives forward: the node holds its
        output, which is far smaller than its input here."""
        rng = np.random.default_rng(3)
        if conv == "conv1d":
            x, w = rng.standard_normal((16, 4000)), rng.standard_normal((1, 16, 10))
            op = lambda *a: ops.conv1d(*a, stride=10, relu=relu)
        else:
            x, w = rng.standard_normal((16, 40, 40)), rng.standard_normal((1, 16, 3, 3))
            op = lambda *a: ops.conv2d(*a, relu=relu)
        inputs = [Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                  Tensor(np.zeros(1), requires_grad=True)]
        with ops.gemm_kernels(gemm):
            op(*inputs)  # first-call allocations stay out of the count
            out, held, _ = traced(lambda: op(*inputs))
        assert held < out.data.nbytes + x.nbytes // 8, (held, out.data.nbytes)


# ---------------------------------------------------------------------------
# maxpool2d
# ---------------------------------------------------------------------------

class TestMaxPool2d:
    def test_floor_division_shape(self):
        out = ops.maxpool2d(Tensor(np.zeros((1, 96, 441))), (2, 2))
        assert out.shape == (1, 48, 220)

    def test_simple_window(self):
        out = ops.maxpool2d(t([[[1, 2], [3, 4]]]), (2, 2))
        assert out.data.tolist() == [[[4.0]]]

    def test_matches_oracle_random(self, rng):
        x = rng.standard_normal((3, 8, 9))
        out = ops.maxpool2d(Tensor(x), (2, 3))
        assert np.array_equal(out.data, maxpool2d_oracle(x, (2, 3)))

    def test_window_larger_than_input(self):
        with pytest.raises(ShapeError):
            ops.maxpool2d(t(np.zeros((1, 2, 2))), (3, 1))

    def test_tie_routes_to_first_occurrence(self):
        x = t([[[5.0, 5.0], [5.0, 5.0]]], requires_grad=True)
        out = ops.maxpool2d(x, (2, 2))
        backward(ops.tsum(out))
        assert x.grad.tolist() == [[[1.0, 0.0], [0.0, 0.0]]]

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(3000 + seed)
        c = int(rng.integers(1, 4))
        h, w_ = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        ph = int(rng.integers(1, h + 1))
        pw = int(rng.integers(1, w_ + 1))
        x = t(rng.standard_normal((c, h, w_)), requires_grad=True)
        check_op_gradients(lambda: ops.maxpool2d(x, (ph, pw)), [x], seed=seed)


# ---------------------------------------------------------------------------
# adaptive_maxpool
# ---------------------------------------------------------------------------

class TestAdaptiveMaxPool:
    def test_frontend_bin_sizes(self):
        sizes = {hi - lo for lo, hi in adaptive_pool_bins(66138, 441)}
        assert sizes == {149, 150}
        out = ops.adaptive_maxpool(Tensor(np.zeros((2, 66138))), 441, axis=1)
        assert out.shape == (2, 441)

    def test_identity_when_extent_matches(self, rng):
        x = rng.standard_normal((3, 441))
        out = ops.adaptive_maxpool(Tensor(x), 441, axis=1)
        assert np.array_equal(out.data, x)

    def test_documented_bins_l10_t4(self, rng):
        assert adaptive_pool_bins(10, 4) == [(0, 2), (2, 5), (5, 7), (7, 10)]
        x = rng.standard_normal((10,))
        out = ops.adaptive_maxpool(Tensor(x), 4, axis=0)
        expected = [x[0:2].max(), x[2:5].max(), x[5:7].max(), x[7:10].max()]
        assert out.data.tolist() == expected

    def test_matches_oracle_random(self, rng):
        x = rng.standard_normal((3, 4, 10))
        for axis, target in ((1, 3), (2, 4)):
            out = ops.adaptive_maxpool(Tensor(x), target, axis=axis)
            assert np.array_equal(out.data, adaptive_maxpool_oracle(x, target, axis))

    def test_extent_below_target(self):
        with pytest.raises(ShapeError):
            ops.adaptive_maxpool(t(np.zeros((2, 3))), 4, axis=1)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(4000 + seed)
        c = int(rng.integers(1, 4))
        length = int(rng.integers(2, 11))
        target = int(rng.integers(1, length + 1))
        x = t(rng.standard_normal((c, length)), requires_grad=True)
        check_op_gradients(lambda: ops.adaptive_maxpool(x, target, axis=1),
                           [x], seed=seed)


# ---------------------------------------------------------------------------
# relu / linear / concat / reshape / add / scale
# ---------------------------------------------------------------------------

class TestElementwiseAndAffine:
    def test_relu_values(self):
        assert ops.relu(t([-1, 0, 2])).data.tolist() == [0.0, 0.0, 2.0]

    def test_relu_subgradient_zero_at_zero(self):
        x = t([-1.0, 0.0, 2.0], requires_grad=True)
        backward(ops.tsum(ops.relu(x)))
        assert x.grad.tolist() == [0.0, 0.0, 1.0]

    def test_linear_identity(self, rng):
        x = rng.standard_normal(5)
        out = ops.linear(Tensor(x), Tensor(np.eye(5)), Tensor(np.zeros(5)))
        assert np.array_equal(out.data, x)

    def test_linear_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ops.linear(t(np.zeros(4)), t(np.zeros((3, 5))), t(np.zeros(3)))

    def test_concat_branch_merge_shape(self):
        parts = [Tensor(np.zeros((32, 441))) for _ in range(3)]
        assert ops.concat(parts, axis=0).shape == (96, 441)

    def test_concat_extent_mismatch(self):
        with pytest.raises(ShapeError):
            ops.concat([t(np.zeros((2, 4))), t(np.zeros((2, 5)))], axis=0)

    @pytest.mark.parametrize("seed", range(20))
    def test_relu_gradients(self, seed):
        rng = np.random.default_rng(5000 + seed)
        # keep inputs away from the kink at 0
        x = t(rng.uniform(0.1, 1.0, size=(3, 5)) * rng.choice([-1.0, 1.0], size=(3, 5)),
              requires_grad=True)
        check_op_gradients(lambda: ops.relu(x), [x], seed=seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_linear_gradients(self, seed):
        rng = np.random.default_rng(6000 + seed)
        d, o = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        x = t(rng.standard_normal(d), requires_grad=True)
        w = t(rng.standard_normal((o, d)), requires_grad=True)
        b = t(rng.standard_normal(o), requires_grad=True)
        check_op_gradients(lambda: ops.linear(x, w, b), [x, w, b], seed=seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_concat_gradients(self, seed):
        rng = np.random.default_rng(7000 + seed)
        axis = int(rng.integers(0, 2))
        shapes = []
        common = int(rng.integers(1, 5))
        parts = []
        for _ in range(3):
            ext = int(rng.integers(1, 5))
            shape = (ext, common) if axis == 0 else (common, ext)
            parts.append(t(rng.standard_normal(shape), requires_grad=True))
        check_op_gradients(lambda: ops.concat(parts, axis=axis), parts, seed=seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_reshape_add_scale_gradients(self, seed):
        rng = np.random.default_rng(8000 + seed)
        a = t(rng.standard_normal((2, 6)), requires_grad=True)
        b = t(rng.standard_normal((2, 6)), requires_grad=True)
        check_op_gradients(
            lambda: ops.scale(ops.reshape(ops.add(a, b), (3, 4)), 0.7),
            [a, b], seed=seed)


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = ops.softmax_cross_entropy(t([0.5, 0.5, 0.5, 0.5]), 2)
        assert loss.item() == pytest.approx(math.log(4), abs=1e-12)

    def test_large_logits_stable(self):
        loss = ops.softmax_cross_entropy(t([1000.0, 0.0]), 0)
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ops.softmax_cross_entropy(t([0.0, 1.0]), 2)
        with pytest.raises(ValueError):
            ops.softmax_cross_entropy(t([0.0, 1.0]), -1)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(9000 + seed)
        logits = t(rng.standard_normal(5), requires_grad=True)
        label = int(rng.integers(0, 5))
        loss = ops.softmax_cross_entropy(logits, label)
        backward(loss)
        fd = fd_gradient(
            lambda: ops.softmax_cross_entropy(Tensor(logits.data), label).item(),
            logits.data)
        assert_rel_close(logits.grad, fd, tol=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_sums_to_zero(self, seed):
        rng = np.random.default_rng(9100 + seed)
        logits = t(rng.standard_normal(7) * 10, requires_grad=True)
        backward(ops.softmax_cross_entropy(logits, int(rng.integers(0, 7))))
        assert abs(logits.grad.sum()) < 1e-6


class TestBatchedCrossEntropy:
    """(B, K) logits with one label per row: the batch mean in one node."""

    @staticmethod
    def chained(rows: np.ndarray, labels: list[int]):
        """Loss and logits gradient of per-row nodes, an ``add`` chain and a
        ``scale`` by 1/B, the recipe the batch node replaces."""
        leaves = [Tensor(row, requires_grad=True) for row in rows]
        losses = [ops.softmax_cross_entropy(x, y) for x, y in zip(leaves, labels)]
        total = losses[0]
        for extra in losses[1:]:
            total = ops.add(total, extra)
        loss = ops.scale(total, 1.0 / len(losses))
        backward(loss)
        return loss.data, np.stack([x.grad for x in leaves])

    @pytest.mark.parametrize("classes", [5, 50])
    @pytest.mark.parametrize("batch", [1, 2, 32, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_the_per_row_chain(self, dtype, batch, classes):
        rng = np.random.default_rng(9200 + batch + classes)
        rows = (rng.standard_normal((batch, classes)) * 8).astype(dtype)
        labels = [int(y) for y in rng.integers(0, classes, batch)]
        want_loss, want_grad = self.chained(rows, labels)
        logits = Tensor(rows.copy(), requires_grad=True)
        loss = ops.softmax_cross_entropy(logits, labels)
        backward(loss)
        assert loss.shape == () and loss.dtype == dtype
        assert loss.data.tobytes() == want_loss.tobytes()
        assert logits.grad.dtype == dtype and logits.grad.tobytes() == want_grad.tobytes()

    def test_vector_is_a_batch_of_one(self):
        rng = np.random.default_rng(9300)
        row = rng.standard_normal(7).astype(np.float32)
        one, batch = Tensor(row, requires_grad=True), Tensor(row[None], requires_grad=True)
        a, b = ops.softmax_cross_entropy(one, 3), ops.softmax_cross_entropy(batch, [3])
        backward(a)
        backward(b)
        assert a.data.tobytes() == b.data.tobytes()
        assert one.grad.tobytes() == batch.grad[0].tobytes()

    def test_large_logits_stable(self):
        loss = ops.softmax_cross_entropy(t([[1000.0, 0.0], [0.0, -1000.0]]), [0, 0])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(9400 + seed)
        logits = t(rng.standard_normal((4, 6)), requires_grad=True)
        labels = rng.integers(0, 6, 4)
        check_op_gradients(lambda: ops.softmax_cross_entropy(logits, labels), [logits],
                           seed=seed, tol=1e-6)

    @pytest.mark.parametrize("shape,labels", [
        ((3,), True), ((2, 3), [True, False]), ((2, 3), np.array([1, 0], dtype=bool)),
        ((3,), 1.0), ((2, 3), [1.0, 2.0]), ((3,), "1"), ((3,), None),
        ((3,), [1]), ((2, 3), 1), ((2, 3), [1]), ((2, 3), [0, 1, 2]),
        ((3,), 3), ((3,), -1), ((2, 3), [0, 3]), ((2, 3), [-1, 0])],
        ids=["bool", "bool_rows", "bool_array", "float", "float_rows", "str", "none",
             "list_for_vector", "int_for_rows", "too_few", "too_many",
             "too_high", "negative", "row_too_high", "row_negative"])
    def test_bad_labels(self, shape, labels):
        with pytest.raises(ValueError, match=re.escape(f"labels {labels!r}")):
            ops.softmax_cross_entropy(t(np.zeros(shape)), labels)

    @pytest.mark.parametrize("shape", [(), (2, 3, 4), (0, 3), (3, 0), (0,)])
    def test_bad_logits_shape(self, shape):
        with pytest.raises(ShapeError):
            ops.softmax_cross_entropy(t(np.zeros(shape)), 0)


# ---------------------------------------------------------------------------
# backward machinery
# ---------------------------------------------------------------------------

def whole_table_sweep(loss):
    """``backward`` as it was before leaf adjoints left the sweep at their
    last consumer: every adjoint waits in the table for its node's turn,
    and a leaf's is added to ``grad`` out of place."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    adjoints = {id(loss): np.ones((), dtype=loss.data.dtype)} if loss.requires_grad else {}
    for node in reversed(topo):
        adjoint = adjoints.pop(id(node), None)
        if adjoint is None:
            continue
        if node._backward is None:
            node.grad = adjoint if node.grad is None else node.grad + adjoint
            continue
        for parent, g in zip(node._parents, node._backward(adjoint), strict=True):
            if g is not None and parent.requires_grad:
                cur = adjoints.get(id(parent))
                adjoints[id(parent)] = g if cur is None else cur + g


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        backward(ops.tsum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_relu(self):
        x = t([-1.0, 2.0], requires_grad=True)
        backward(ops.tsum(ops.relu(x)))
        assert x.grad.tolist() == [0.0, 1.0]

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(Tensor(np.zeros(3), requires_grad=True))

    def test_grads_accumulate_across_uses(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        backward(ops.tsum(ops.add(x, x)))
        assert np.allclose(x.grad, 2.0)
        r = rng.standard_normal(4)
        x.grad = None
        backward(weighted_sum(ops.add(x, x), r))  # one closure returns x's gradient twice
        assert np.array_equal(x.grad, 2 * r)

    def test_closure_gradients_land_on_leaves(self):
        a, b = t([1.0, 2.0], requires_grad=True), t([3.0], requires_grad=True)
        backward(make_node(np.array(0.0), (a, b),
                           lambda g: (g * np.array([4.0, 5.0]), g * np.array([6.0]))))
        assert a.grad.tolist() == [4.0, 5.0] and b.grad.tolist() == [6.0]

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_gradient_count_raises(self, count):
        a, b = t([1.0], requires_grad=True), t([2.0], requires_grad=True)
        node = make_node(np.array(0.0), (a, b), lambda g: (g * np.ones(1),) * count)
        with pytest.raises(ValueError):
            backward(node)

    def test_gradient_for_parent_without_grad_is_dropped(self):
        a, const = t([1.0], requires_grad=True), t([2.0])
        backward(make_node(np.array(0.0), (a, const), lambda g: (g * np.ones(1), g * np.ones(1))))
        assert a.grad.tolist() == [1.0] and const.grad is None

    def test_adjoints_are_never_added_in_place(self):
        """``add`` hands one array to both parents; summing into it in place
        would change z's adjoint when x's gets its second term."""
        x, z = t([1.0], requires_grad=True), t([1.0], requires_grad=True)
        backward(ops.tsum(ops.add(ops.add(x, z), x)))
        assert x.grad.tolist() == [2.0] and z.grad.tolist() == [1.0]

    def test_each_leaf_owns_its_grad(self):
        """``add`` hands one array to both parents; each ``grad`` starts as
        a copy, so the second sweep's in-place adds leave the other alone."""
        x, z = t([1.0], requires_grad=True), t([1.0], requires_grad=True)
        for _ in range(2):
            backward(ops.tsum(ops.add(x, z)))
        assert x.grad.tolist() == [2.0] and z.grad.tolist() == [2.0]
        assert not np.shares_memory(x.grad, z.grad)

    def test_grad_set_from_outside_is_added_into(self):
        x = t([1.0, 2.0], requires_grad=True)
        x.grad = mine = np.array([3.0, 4.0])
        backward(ops.tsum(x))
        assert x.grad is mine and mine.tolist() == [4.0, 5.0]

    def test_shared_nodes_match_the_whole_table_sweep(self):
        """x has three consumers and the op node ``a`` two: swept twice, the
        leaves' gradients are the bytes of a sweep that holds every adjoint
        until its node's turn, so x's three terms are summed before they
        join its ``grad``."""
        rng = np.random.default_rng(35)
        xv, wv, r = rng.standard_normal((3, 8))
        grads = []
        for sweep in (backward, whole_table_sweep):
            x, w = t(xv, requires_grad=True), t(wv, requires_grad=True)
            a = ops.add(ops.scale(x, 1.7), w)
            loss = weighted_sum(ops.add(ops.add(ops.add(x, a), ops.relu(a)), x), r)
            sweep(loss)
            sweep(loss)
            grads.append((x.grad.tobytes(), w.grad.tobytes()))
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    def test_desk_windows_match_the_whole_table_sweep(self, gemm):
        """Two recorded desk windows swept into the same gradients, the
        second added into the first's: the bytes of the whole-table sweep."""
        model = build_model(desk_model_config(), seed=0)
        windows = np.random.default_rng(36).standard_normal(
            (2, model.config.window_length)).astype(np.float32)
        grads = []
        for sweep in (backward, whole_table_sweep):
            zero_grads(model.parameters())
            with ops.gemm_kernels(gemm):
                for label, window in enumerate(windows):
                    sweep(ops.scale(ops.softmax_cross_entropy(model.forward(window), label), 0.5))
            grads.append([p.value.grad.tobytes() for p in model.parameters()])
        assert grads[0] == grads[1]

    def test_backend_grads_are_set_before_the_frontend_closure(self, monkeypatch):
        """A leaf's adjoint leaves the sweep at its last consumer: when the
        front end's closure runs, every back-end parameter has its
        ``grad`` and no front-end parameter has one yet."""
        seen = []
        real = Model.forward_frontend

        def forward_frontend(model, wave):
            out = real(model, wave)
            closure = out._backward

            def spy(g):
                seen.append({name for name, p in model.named_parameters()
                             if p.value.grad is not None})
                return closure(g)

            out._backward = spy
            return out

        monkeypatch.setattr(Model, "forward_frontend", forward_frontend)
        model = build_model(desk_model_config(), seed=0)
        window = np.random.default_rng(3).standard_normal(model.config.window_length)
        backward(ops.softmax_cross_entropy(model.forward(window.astype(np.float32)), 0))
        names = [name for name, _ in model.named_parameters()]
        assert seen == [{name for name in names if not name.startswith("branch")}]
        assert all(p.value.grad is not None for p in model.parameters())

    def test_loss_without_graph_is_a_no_op(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        with no_grad():
            loss = ops.tsum(x)
        backward(loss)
        assert loss.grad is None and x.grad is None

    def test_repeated_backward_accumulates(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        loss = ops.tsum(x)
        backward(loss)
        backward(loss)
        assert np.allclose(x.grad, 2.0)

    def test_zero_grads_resets(self, rng):
        p = Parameter(Tensor(rng.standard_normal(4)))
        backward(ops.tsum(p.value))
        assert p.value.grad is not None
        zero_grads([p])
        assert p.value.grad is None

    def test_no_grad_skips_recording(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        with no_grad():
            out = ops.relu(x)
        assert out._backward is None and not out.requires_grad

    @pytest.mark.parametrize("mode,read,default", [
        (no_grad, grad_enabled, True), (ops.gemm_kernels, ops.gemm_enabled, False)],
        ids=["no_grad", "gemm_kernels"])
    def test_mode_is_per_thread(self, mode, read, default):
        """A thread leaving the mode leaves another thread still inside it
        alone, and a new thread starts from the default."""
        entered, left = threading.Event(), threading.Event()
        seen = []

        def inner():  # enters after the main thread, reads after it has left
            seen.append(read())
            with mode():
                entered.set()
                assert left.wait(10)
                seen.append(read())

        with mode():
            worker = threading.Thread(target=inner)
            worker.start()
            assert entered.wait(10)
        left.set()
        worker.join(10)
        assert not worker.is_alive()
        assert seen == [default, not default]
        assert read() == default

    def test_sweep_is_per_thread(self):
        """A whole backward in one thread, run while another thread's backward
        is inside a closure, leaves the paused sweep intact."""
        paused, resume = threading.Event(), threading.Event()
        a, b = t([1.0, 2.0], requires_grad=True), t([3.0], requires_grad=True)
        errors = []

        def wait_then_scale(g):  # a's closure: pause mid-sweep, then return
            paused.set()
            assert resume.wait(10)
            return (2 * g,)

        loss_a = ops.tsum(make_node(2 * a.data, (a,), wait_then_scale))

        def run_a():
            try:
                backward(loss_a)
            except Exception as exc:  # reported below, with its type
                errors.append(exc)

        worker = threading.Thread(target=run_a)
        worker.start()
        assert paused.wait(10)
        other = threading.Thread(target=backward, args=(ops.tsum(ops.scale(b, 3.0)),))
        other.start()
        other.join(10)
        resume.set()
        worker.join(10)
        assert not worker.is_alive() and not other.is_alive()
        assert errors == []
        assert np.array_equal(a.grad, [2.0, 2.0])
        assert np.array_equal(b.grad, [3.0])

    def test_mixed_precision_rejected(self):
        a = Tensor(np.zeros(3, dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float64))
        with pytest.raises(ValueError):
            ops.add(a, b)

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = Tensor(rng.standard_normal((2, 30)) * 1e3, requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 5)) * 1e3, requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        out = ops.relu(ops.conv1d(x, w, b, stride=2))
        backward(ops.tsum(out))
        for arr in (out.data, x.grad, w.grad, b.grad):
            assert np.all(np.isfinite(arr))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class TestSgdStep:
    def _param(self, w):
        return Parameter(Tensor(np.asarray(w, dtype=np.float64)))

    def test_plain_descent(self):
        p = self._param([2.0])
        p.value.grad = np.array([3.0])
        sgd_step([p], lr=1.0, momentum=0.0, weight_decay=0.0)
        assert p.value.data.tolist() == [-1.0]

    def test_two_momentum_steps_hand_unrolled(self):
        p = self._param([0.0])
        for _ in range(2):
            p.value.grad = np.array([1.0])
            sgd_step([p], lr=1.0, momentum=0.9, weight_decay=0.0)
        assert p.value.data[0] == pytest.approx(-2.9, abs=1e-12)

    def test_pure_decay(self):
        p = self._param([1.0])
        p.value.grad = np.array([0.0])
        sgd_step([p], lr=1e-2, momentum=0.0, weight_decay=5e-4)
        assert p.value.data[0] == 1.0 - 1e-2 * 5e-4

    def test_decay_exempt_bias(self):
        p = Parameter(Tensor(np.array([1.0])), decay_exempt=True)
        p.value.grad = np.array([0.0])
        sgd_step([p], lr=1e-2, momentum=0.0, weight_decay=5e-4)
        assert p.value.data[0] == 1.0

    def test_missing_grad_is_state_error(self):
        with pytest.raises(RuntimeError):
            sgd_step([self._param([1.0])], lr=0.1, momentum=0.9, weight_decay=0.0)

    @pytest.mark.parametrize("fault, error", [("no gradient", RuntimeError),
                                              ("read-only velocity", ValueError),
                                              ("read-only weight", ValueError)])
    def test_a_bad_last_parameter_changes_none(self, fault, error):
        """Every parameter is checked before any is stepped."""
        params = [self._param([1.0]), self._param([2.0, 3.0])]
        for p in params:
            p.value.grad = np.array([0.5] * p.value.size)
            p.velocity[...] = 0.25
        last = params[-1]
        if fault == "no gradient":
            last.value.grad = None
        elif fault == "read-only velocity":
            last.velocity = np.broadcast_to(0.25, last.value.shape)
        else:
            last.value.data.flags.writeable = False
        before = [(p.value.data.tobytes(), p.velocity.tobytes()) for p in params]
        with pytest.raises(error, match=fault):
            sgd_step(params, lr=0.1, momentum=0.9, weight_decay=5e-4)
        assert [(p.value.data.tobytes(), p.velocity.tobytes()) for p in params] == before

    @pytest.mark.parametrize("exempt", [False, True])
    def test_bits_are_the_formulas(self, exempt):
        """g + wd*w, mu*v + that, w - lr*v, each as one numpy expression."""
        rng = np.random.default_rng(37)
        w, v, g = rng.standard_normal((3, 64)).astype(np.float32)
        p = Parameter(Tensor(w.copy()), decay_exempt=exempt, velocity=v.copy())
        p.value.grad = g
        sgd_step([p], lr=1e-2, momentum=0.9, weight_decay=5e-4)
        if not exempt:
            g = g + 5e-4 * w
        v = v * 0.9
        v += g
        w = w - 1e-2 * v
        assert p.velocity.tobytes() == v.tobytes() and p.value.data.tobytes() == w.tobytes()

    def test_one_temporary_at_a_time(self):
        """With weight decay, a (1024, 1024) float32 step peaks below 1.1x
        the parameter's bytes: ``wd*w`` plus the gradient, then ``lr*v``,
        in one array."""
        rng = np.random.default_rng(38)
        p = Parameter(Tensor(rng.standard_normal((1024, 1024), dtype=np.float32)))
        p.value.grad = rng.standard_normal((1024, 1024), dtype=np.float32)
        _, _, peak = traced(lambda: sgd_step([p], lr=1e-2, momentum=0.9, weight_decay=5e-4))
        assert peak < 1.1 * p.value.data.nbytes, peak

    def test_momentum_zero_equals_vanilla_gd(self, rng):
        w0 = rng.standard_normal(8)
        grads = [rng.standard_normal(8) for _ in range(5)]
        p = self._param(w0.copy())
        manual = w0.copy()
        for g in grads:
            p.value.grad = g.copy()
            sgd_step([p], lr=0.05, momentum=0.0, weight_decay=0.0)
            manual -= 0.05 * g
            assert np.array_equal(p.value.data, manual)


# ---------------------------------------------------------------------------
# exhaustive small-shape oracle sweep (200 random cases)
# ---------------------------------------------------------------------------

class TestOracleSweep:
    def test_200_random_small_shapes(self):
        rng = np.random.default_rng(20240)
        for case in range(200):
            kind = case % 4
            if kind == 0:
                cin, fout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
                k = int(rng.integers(1, 6))
                length = int(rng.integers(k, 11))
                stride = int(rng.integers(1, 4))
                x = rng.standard_normal((cin, length))
                w = rng.standard_normal((fout, cin, k))
                b = rng.standard_normal(fout)
                got = ops.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
                assert np.array_equal(got, conv1d_oracle(x, w, b, stride))
            elif kind == 1:
                cin, fout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                h, w_ = int(rng.integers(1, 11)), int(rng.integers(1, 11))
                x = rng.standard_normal((cin, h, w_))
                w = rng.standard_normal((fout, cin, 3, 3))
                b = rng.standard_normal(fout)
                got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
                assert np.array_equal(got, conv2d_oracle(x, w, b))
            elif kind == 2:
                c = int(rng.integers(1, 4))
                h, w_ = int(rng.integers(1, 11)), int(rng.integers(1, 11))
                ph, pw = int(rng.integers(1, h + 1)), int(rng.integers(1, w_ + 1))
                x = rng.standard_normal((c, h, w_))
                got = ops.maxpool2d(Tensor(x), (ph, pw)).data
                assert np.array_equal(got, maxpool2d_oracle(x, (ph, pw)))
            else:
                c = int(rng.integers(1, 5))
                length = int(rng.integers(1, 11))
                target = int(rng.integers(1, length + 1))
                axis = int(rng.integers(0, 2))
                shape = (length, c) if axis == 0 else (c, length)
                x = rng.standard_normal(shape)
                got = ops.adaptive_maxpool(Tensor(x), target, axis=axis).data
                assert np.array_equal(got, adaptive_maxpool_oracle(x, target, axis))


class TestDeterminism:
    def test_forward_backward_update_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.standard_normal((2, 40)))
            w = Parameter(Tensor(rng.standard_normal((3, 2, 5))))
            b = Parameter(Tensor(np.zeros(3)))
            out = ops.relu(ops.conv1d(x, w.value, b.value, stride=2))
            loss = ops.tsum(out)
            backward(loss)
            sgd_step([w, b], lr=0.01, momentum=0.9, weight_decay=5e-4)
            return loss.item(), w.value.data.copy(), w.value.grad.copy(), b.value.data.copy()

        l1, w1, g1, b1 = run()
        l2, w2, g2, b2 = run()
        assert l1 == l2
        assert np.array_equal(w1, w2) and np.array_equal(g1, g2) and np.array_equal(b1, b2)


# The ``ops`` names that code outside it reads: ``perfbench/tracer.py``
# rebinds the ops of its ``OPS`` by name, and the commands, training,
# evaluation, the model and the sweep call the rest.
PUBLIC_OPS = {"conv1d", "conv2d", "linear", "relu", "maxpool2d", "adaptive_maxpool", "concat",
              "reshape", "softmax_cross_entropy", "add", "scale", "frontend", "level_features",
              "softmax_probs", "gemm_kernels", "workers"}


def test_public_ops_names():
    """Every name in ``PUBLIC_OPS`` is a public callable of ``ops``, the
    convolution controls are ``wavems._conv``'s own, and ``PUBLIC_OPS``
    holds every ``ops`` name the tracer, the package and the CLI read."""
    tracer = (Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text()
    traced = re.search(r"^OPS = \(([^)]*)\)", tracer, re.M).group(1)
    read = set(re.findall(r'"(\w+)"', traced))
    for source in Path(ops.__file__).parent.glob("*.py"):
        read |= set(re.findall(r"\bops\.(\w+)", source.read_text()))
    assert read == PUBLIC_OPS
    assert all(callable(getattr(ops, name)) for name in PUBLIC_OPS)
    for name in ("workers", "gemm_kernels", "gemm_enabled", "usable_cpus"):
        assert getattr(ops, name) is getattr(_conv, name)
    assert not hasattr(ops, "conv1d_chain")
