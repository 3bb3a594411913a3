"""Convolutions with a fused ReLU and max pool (``pool=``), and the first-hit
index every recording pool node keeps.

A fused node must give the bytes of ``maxpool2d`` / ``adaptive_maxpool`` on
``conv(..., relu=True)``: the output and every input, weight and bias
gradient, in both kernel families and both precisions, and with its
forward cut in blocks on bin edges at any worker count.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from wavems import ops
from wavems.datasets import fold_split
from wavems.errors import ShapeError
from wavems.model import build_model
from wavems.tensor import Tensor, backward, no_grad
from wavems.training import TrainConfig, train_epoch

from conftest import desk_model_config
from gradcheck import check_op_gradients, weighted_sum
from test_gemm import forward_chunks  # noqa: F401

# (conv, x shape, weight shape, stride, pool): bins of 68 and 69 taps, bins
# of 3 and 4, a 2x2 window over even maps, and windows that drop edge rows
# and columns
CASES = {
    "conv1d-ragged-bins": ("conv1d", (2, 4400), (3, 2, 3), 1, 64),
    "conv1d-stride5": ("conv1d", (2, 300), (3, 2, 5), 5, 17),
    "conv1d-stride10": ("conv1d", (1, 520), (2, 1, 11), 10, 15),
    "conv2d-2x2": ("conv2d", (2, 8, 12), (3, 2, 3, 3), None, (2, 2)),
    "conv2d-2x2-dropped-edges": ("conv2d", (2, 7, 9), (3, 2, 3, 3), None, (2, 2)),
    "conv2d-3x2-dropped-edges": ("conv2d", (1, 11, 7), (2, 1, 3, 3), None, (3, 2)),
}
INPUTS = ["random", "integer", "signed-zero", "nan"]


def make_case(case, kind, dtype, seed):
    """(conv op, pool argument, [x, weight, bias]) of one case. Integer
    inputs and weights make ties dense; signed-zero inputs are all zero with
    +0.0 and -0.0 biases, so every pre-activation is a signed zero; NaN
    inputs hold NaN in three elements."""
    conv, xs, ws, stride, pool = CASES[case]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(xs)
    w = rng.standard_normal(ws)
    b = rng.standard_normal(ws[0])
    if kind == "integer":
        x, w, b = (rng.integers(-2, 3, size=a.shape).astype(float) for a in (x, w, b))
    elif kind == "signed-zero":
        x[...] = 0.0
        b[:] = np.where(np.arange(ws[0]) % 2, -0.0, 0.0)
    elif kind == "nan":
        x.reshape(-1)[rng.choice(x.size, 3, replace=False)] = np.nan
    op = (lambda *a, **kw: ops.conv1d(*a, stride=stride, **kw)) if conv == "conv1d" else ops.conv2d
    return op, pool, [a.astype(dtype) for a in (x, w, b)]


def pool_of(pool, y):
    if isinstance(pool, tuple):
        return ops.maxpool2d(y, pool)
    return ops.adaptive_maxpool(y, pool, axis=1)


def fused_and_separate(op, pool, arrays, gemm, relu=True):
    """Output and x, weight and bias gradients of sum(r * pool(relu(conv))),
    once from the fused node and once from the pool on the ReLU'd conv (no
    ReLU with ``relu=False``). The output gradient r holds -0.0 at every
    third bin."""
    results = []
    for fused in (True, False):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with ops.gemm_kernels(gemm):
            if fused:
                out = op(*inputs, relu=relu, pool=pool)
            else:
                out = pool_of(pool, op(*inputs, relu=relu))
            r = np.random.default_rng(out.size).standard_normal(out.shape).astype(out.dtype)
            r.reshape(-1)[::3] = -0.0
            backward(weighted_sum(out, r))
        results.append([out.data] + [t.grad for t in inputs])
    return results


class TestFusedPool:
    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("case", CASES)
    def test_byte_identical_to_separate_pool(self, case, kind, dtype, gemm):
        op, pool, arrays = make_case(case, kind, dtype, seed=len(case) + len(kind))
        fused, separate = fused_and_separate(op, pool, arrays, gemm)
        for name, got, want in zip(("out", "x", "weight", "bias"), fused, separate):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), f"{name} differs"

        out, gx = fused[0], fused[1]
        if kind == "nan":  # some bins are NaN, and they pass no gradient to x
            assert np.isnan(out).any() and not np.isnan(out).all()
        elif kind == "signed-zero":
            assert (out == 0).all() and not gx.any()
        else:
            assert (out > 0).any() and gx.any()

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("kind", ["random", "integer"])
    @pytest.mark.parametrize("case", CASES)
    def test_pool_without_relu(self, case, kind, gemm):
        """Negative maxima, which a ReLU would clamp, pass their gradient."""
        op, pool, arrays = make_case(case, kind, np.float32, seed=len(case))
        arrays[2] -= 10  # bias
        fused, separate = fused_and_separate(op, pool, arrays, gemm, relu=False)
        for got, want in zip(fused, separate):
            assert got.tobytes() == want.tobytes()
        assert (fused[0] < 0).any() and fused[1].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_integer_inputs_tie(self, dtype):
        """The integer cases hold bins with several maxima, where only the
        first may receive the gradient."""
        op, pool, arrays = make_case("conv2d-2x2-dropped-edges", "integer", dtype, seed=0)
        y = op(*[Tensor(a) for a in arrays], relu=True).data
        bins = y[:, :6, :8].reshape(3, 3, 2, 4, 2)
        assert ((bins == bins.max(axis=(2, 4), keepdims=True)).sum(axis=(2, 4)) > 1).any()

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("seed", range(3))
    def test_conv1d_gradients(self, seed, gemm):
        rng = np.random.default_rng(7300 + seed)
        stride = (1, 2, 5)[seed]
        x = Tensor(rng.standard_normal((2, 12 * stride + 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        with ops.gemm_kernels(gemm):
            check_op_gradients(lambda: ops.conv1d(x, w, b, stride=stride, relu=True, pool=5),
                               [x, w, b], seed=seed)

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("seed", range(3))
    def test_conv2d_gradients(self, seed, gemm):
        rng = np.random.default_rng(7400 + seed)
        x = Tensor(rng.standard_normal((2, 5 + seed, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        with ops.gemm_kernels(gemm):
            check_op_gradients(lambda: ops.conv2d(x, w, b, relu=True, pool=(2, 2)),
                               [x, w, b], seed=seed)

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("conv", ["conv1d", "conv2d"])
    def test_node_keeps_pooled_output_and_index(self, conv, gemm):
        """The unpooled map does not outlive forward: the node holds the
        pooled output, one index byte per bin and its Python objects, far
        less than the map."""
        rng = np.random.default_rng(4)
        if conv == "conv1d":  # 4 x 3998 outputs pooled to 4 x 200
            x, w = rng.standard_normal((1, 4000)), rng.standard_normal((4, 1, 3))
            op = lambda *a: ops.conv1d(*a, relu=True, pool=200)
            unpooled = 4 * 3998 * 8
        else:  # 4 x 40 x 40 outputs pooled to 4 x 10 x 10
            x, w = rng.standard_normal((1, 40, 40)), rng.standard_normal((4, 1, 3, 3))
            op = lambda *a: ops.conv2d(*a, relu=True, pool=(4, 4))
            unpooled = 4 * 40 * 40 * 8
        inputs = [Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                  Tensor(np.zeros(4), requires_grad=True)]
        with ops.gemm_kernels(gemm):
            op(*inputs)  # first-call allocations stay out of the count
            tracemalloc.start()
            try:
                out = op(*inputs)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        kept = out.data.nbytes + out.data.size  # float64 output and uint8 index
        assert kept <= held < kept + unpooled // 8, (held, kept)


class TestPoolIndex:
    def test_uint8_for_2x2_windows(self):
        a = np.random.default_rng(0).standard_normal((2, 6, 8))
        _, index = ops._window_pool(a.shape, (2, 2)).forward(a, record=True)
        assert index.dtype == np.uint8 and index.shape == (2, 3, 4)

    def test_uint8_for_150_tap_bins(self):
        """The full-scale front end: 66138 samples in 441 bins of 149 and 150."""
        a = np.random.default_rng(1).standard_normal((2, 66138)).astype(np.float32)
        pool = ops._adaptive_pool(a.shape, 441, axis=1)
        _, index = pool.forward(a, record=True)
        assert len(pool.offsets) == 150
        assert index.dtype == np.uint8 and index.max() == 149

    @pytest.mark.parametrize("axis", [0, 1])
    def test_uint16_for_bins_wider_than_255_taps(self, axis):
        a = np.zeros((256, 3)) if axis == 0 else np.zeros((3, 512))
        a[-1] = 1.0  # along axis 0, the last tap of every bin wins
        pool = ops._adaptive_pool(a.shape, a.shape[axis] // 256, axis=axis)
        _, index = pool.forward(a, record=True)
        assert len(pool.offsets) == 256 and index.dtype == np.uint16
        if axis == 0:
            assert (index == 255).all()

    def test_nan_bin_keeps_the_sentinel(self):
        a = np.array([[[1.0, np.nan, 2.0, 3.0]]])
        pool = ops._window_pool(a.shape, (1, 2))
        out, index = pool.forward(a, record=True)
        assert index.tolist() == [[[2, 1]]]
        assert pool.scatter(np.array([[[5.0, 6.0]]]), index).tolist() == [[[0.0, 0.0, 0.0, 6.0]]]

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("kind", ["window", "bins"])
    def test_forward_allocates_index_only_when_recording(self, kind, record):
        """Without recording, a pool's forward peaks at its output and
        numpy's strided-loop buffer, less than half an index more."""
        a = np.random.default_rng(3).standard_normal((1, 800, 800)).astype(np.float32)
        pool = (ops._window_pool(a.shape, (2, 2)) if kind == "window"
                else ops._adaptive_pool(a.shape, 100, axis=2))
        pool.forward(a, record)
        tracemalloc.start()
        try:
            out, index = pool.forward(a, record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (index is not None) == record
        if record:
            assert index.dtype == np.uint8 and peak >= out.nbytes + index.nbytes
        else:
            assert peak < out.nbytes + out.size // 2, (peak, out.nbytes)

    @pytest.mark.parametrize("op", ["maxpool2d", "adaptive_maxpool", "conv1d", "conv2d"])
    def test_no_grad_computes_no_index(self, op, monkeypatch):
        """Every pool, fused or not and in both kernel families, fills its
        bins once here, with an index only when it records."""
        calls = []
        for cls in (ops._Pool, ops._BinPool):
            def spy(self, a, bins, out, index, fill=vars(cls)["fill"]):
                fill(self, a, bins, out, index)
                calls.append((index is not None, index))
            monkeypatch.setattr(cls, "fill", spy)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 6, 8) if op.endswith("2d") else (2, 30)),
                   requires_grad=True)
        w, b = (Tensor(rng.standard_normal(s), requires_grad=True)
                for s in ((2, 2, 3, 3) if op == "conv2d" else (2, 2, 3), (2,)))
        call = {"maxpool2d": lambda: ops.maxpool2d(x, (2, 2)),
                "adaptive_maxpool": lambda: ops.adaptive_maxpool(x, 4, axis=1),
                "conv1d": lambda: ops.conv1d(x, w, b, relu=True, pool=4),
                "conv2d": lambda: ops.conv2d(x, w, b, relu=True, pool=(2, 2))}[op]
        for gemm in (False, True):
            calls.clear()
            with ops.gemm_kernels(gemm):
                with no_grad():
                    assert not call().requires_grad
                assert calls == [(False, None)]
                assert call().requires_grad
            assert len(calls) == 2 and calls[1][0] and calls[1][1].dtype == np.uint8


class TestPoolArguments:
    """A bad ``pool=`` raises what the standalone pool raises, before any
    convolution work."""

    @pytest.fixture
    def no_conv(self, monkeypatch):
        def fail(*args):
            raise AssertionError("convolution ran")
        monkeypatch.setattr(ops, "_conv", fail)

    @pytest.mark.parametrize("pool,error", [(0, ValueError), (-3, ValueError), (99, ShapeError)])
    def test_conv1d(self, pool, error, no_conv):
        x, w, b = Tensor(np.ones((1, 100))), Tensor(np.ones((2, 1, 3))), Tensor(np.ones(2))
        with pytest.raises(error) as standalone:
            ops.adaptive_maxpool(Tensor(np.ones((2, 98))), pool, axis=1)
        with pytest.raises(error) as fused:
            ops.conv1d(x, w, b, relu=True, pool=pool)
        assert str(fused.value) == str(standalone.value)

    @pytest.mark.parametrize("pool,error", [((0, 2), ValueError), ((2, -1), ValueError),
                                            ((7, 2), ShapeError), ((2, 9), ShapeError)])
    def test_conv2d(self, pool, error, no_conv):
        x, w, b = Tensor(np.ones((1, 6, 8))), Tensor(np.ones((2, 1, 3, 3))), Tensor(np.ones(2))
        with pytest.raises(error) as standalone:
            ops.maxpool2d(Tensor(np.ones((2, 6, 8))), pool)
        with pytest.raises(error) as fused:
            ops.conv2d(x, w, b, relu=True, pool=pool)
        assert str(fused.value) == str(standalone.value)


def plan_of(node):
    """The pool plan that a recorded pool node's backward closure holds."""
    cells = [c.cell_contents for c in node._backward.__closure__]
    return next(c for c in cells if isinstance(c, ops._Pool))


class TestSharedPlans:
    """A pool's plan is built once per input shape and pool argument and
    shared, read-only, by every node of that shape."""

    def test_desk_epoch_builds_each_plan_once(self, desk_corpus, monkeypatch):
        """A desk window runs 15 pools of 15 distinct shapes: three branch
        bin pools, four level windows and eight head bin pools. One epoch
        of 160 windows builds each plan once, not once per window."""
        built = []
        init = ops._Pool.__init__
        monkeypatch.setattr(ops._Pool, "__init__",
                            lambda self, *a: built.append(a[0]) or init(self, *a))
        manifest, clips = desk_corpus
        train, _ = fold_split(manifest, 1)
        ops._window_plan.cache_clear()
        ops._adaptive_plan.cache_clear()
        train_epoch(build_model(desk_model_config(), seed=0), train, clips, 0,
                    TrainConfig(epochs=1, lr_stages=((1, 1e-2),)))
        assert 0 < len(built) <= 15, built

    @pytest.mark.parametrize("op", ["maxpool2d", "adaptive_maxpool", "adaptive_maxpool-lead",
                                    "conv1d", "conv2d"])
    def test_nodes_of_one_shape_share_a_plan(self, op):
        rng = np.random.default_rng(6)
        w2, w1, b = (Tensor(rng.standard_normal(s)) for s in ((2, 2, 3, 3), (2, 2, 3), (2,)))
        call = {"maxpool2d": lambda x: ops.maxpool2d(x, (2, 2)),
                "adaptive_maxpool": lambda x: ops.adaptive_maxpool(x, 4, axis=-1),
                "adaptive_maxpool-lead": lambda x: ops.adaptive_maxpool(x, 3, axis=1),
                "conv1d": lambda x: ops.conv1d(x, w1, b, relu=True, pool=4),
                "conv2d": lambda x: ops.conv2d(x, w2, b, relu=True, pool=(2, 2))}[op]
        shape = (2, 30) if op == "conv1d" else (2, 6, 8)
        first, second = (call(Tensor(rng.standard_normal(shape), requires_grad=True))
                         for _ in range(2))
        assert plan_of(first) is plan_of(second)
        if op == "conv2d":  # a separate pool of the conv's output shares it too
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            assert plan_of(ops.maxpool2d(ops.conv2d(x, w2, b), (2, 2))) is plan_of(first)

    @pytest.mark.parametrize("plan,count", [
        (lambda: ops._window_pool((2, 6, 8), (2, 3)), 4 + 1),  # edges a range, taps slices
        (lambda: ops._adaptive_pool((2, 30), 4, axis=1), 5 + 2),
        (lambda: ops._adaptive_pool((2, 30, 5), 4, axis=1), 4 + 8 + 1),
        (lambda: ops._adaptive_pool((2, 30, 5), 5, axis=1), 4 + 1)],  # taps slices
        ids=["window", "bins", "lead", "lead-equal"])
    def test_plan_arrays_are_read_only(self, plan, count):
        """Every array of a plan refuses writes, and its lists are tuples:
        also the tables a recorded use builds, the bins' flat positions and
        a bin pool's tap weights, each in the narrowest dtype, which the
        taps' offsets share with the positions."""
        plan = plan()
        out, index = plan.forward(np.zeros(plan.shape), record=True)
        plan.scatter(out, index)
        assert isinstance(plan.firsts, tuple) and isinstance(plan.taps, (tuple, type(None)))
        tables = [plan.bases()] + ([plan.weights()] if hasattr(plan, "weights") else [])
        assert tables[0].shape == plan.out_shape
        assert tables[0].dtype == np.min_scalar_type(int(np.prod(plan.shape)))
        assert plan.offsets.dtype == tables[0].dtype == plan.winners(index).dtype
        assert all(t.dtype == plan.index_dtype for t in tables[1:])
        arrays = [*plan.firsts, plan.offsets, getattr(plan, "sizes", None), plan.edges, *tables]
        arrays += [i for tap in plan.taps or () for i in tap]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == count
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("shape,target,axis", [((2, 30, 5), 5, 1), ((12, 3, 4), 4, 0),
                                                   ((2, 30, 5), 4, 1), ((7, 3), 3, 0)])
    def test_equal_adaptive_bins_read_slices(self, shape, target, axis):
        """Over a leading axis, equal bins are read through strided slices,
        which are views, and unequal ones keep their index rows; either way
        tap j reads every bin's j-th element, the last one again in a
        shorter bin."""
        plan = ops._adaptive_pool(shape, target, axis)
        starts, ends = plan.firsts[axis], np.append(plan.firsts[axis][1:], shape[axis])
        a = np.arange(np.prod(shape)).reshape(shape)
        equal = shape[axis] % target == 0
        for j, tap in enumerate(plan.taps):
            assert isinstance(tap[axis], slice if equal else np.ndarray)
            want = np.take(a, np.minimum(starts + j, ends - 1), axis=axis)
            assert np.array_equal(a[tap], want)
            assert np.shares_memory(a[tap], a) == equal

    def test_tables_are_built_once_and_only_when_recording(self, monkeypatch):
        """A no-grad desk forward leaves every plan without tables, so a
        no-grad run's cached plans do not grow; a recorded step builds each
        table once, in the narrowest integer dtype, and later steps reuse
        it."""
        plans = []
        init = ops._Pool.__init__
        monkeypatch.setattr(ops._Pool, "__init__",
                            lambda self, *a: plans.append(self) or init(self, *a))
        ops._window_plan.cache_clear()
        ops._adaptive_plan.cache_clear()
        model = build_model(desk_model_config(), seed=0)
        wave = np.random.default_rng(2).standard_normal(model.window_length).astype(np.float32)
        with no_grad():
            model.forward(wave)
        assert len(plans) == 15
        assert all(p._bases is None and getattr(p, "_weights", None) is None for p in plans)

        def tables():
            return [t for p in plans for t in (p._bases, getattr(p, "_weights", None))
                    if t is not None]

        backward(ops.softmax_cross_entropy(model.forward(wave), 1))
        built = tables()
        assert len(built) > 0 and len(plans) == 15
        for p in plans:
            if p._bases is not None:
                assert p._bases.dtype == np.min_scalar_type(int(np.prod(p.shape)))
            if getattr(p, "_weights", None) is not None:
                assert p._weights.dtype == p.index_dtype
        backward(ops.softmax_cross_entropy(model.forward(wave), 1))
        assert all(a is b for a, b in zip(tables(), built)) and len(tables()) == len(built)

    @pytest.mark.parametrize("conv", [False, True], ids=["maxpool2d", "conv2d"])
    def test_list_and_array_windows(self, conv):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 7, 9))
        w, b = Tensor(rng.standard_normal((2, 2, 3, 3))), Tensor(rng.standard_normal(2))

        def pooled(window):
            xt = Tensor(x, requires_grad=True)
            return ops.conv2d(xt, w, b, relu=True, pool=window) if conv else ops.maxpool2d(xt, window)

        want = pooled((2, 3))
        for window in ([2, 3], np.array([2, 3])):
            got = pooled(window)
            assert got.data.tobytes() == want.data.tobytes()
            assert plan_of(got) is plan_of(want)

    @pytest.mark.parametrize("call,error", [
        (lambda x3, x2: ops.maxpool2d(x3, (0, 2)), ValueError),
        (lambda x3, x2: ops.maxpool2d(x3, [7, 2]), ShapeError),
        (lambda x3, x2: ops.maxpool2d(x3, (2.0, 2)), TypeError),
        (lambda x3, x2: ops.conv2d(x3, Tensor(np.ones((2, 2, 3, 3))), Tensor(np.ones(2)),
                                   pool=np.array([2, 9])), ShapeError),
        (lambda x3, x2: ops.adaptive_maxpool(x2, 0, axis=1), ValueError),
        (lambda x3, x2: ops.adaptive_maxpool(x2, 31, axis=-1), ShapeError),
        (lambda x3, x2: ops.adaptive_maxpool(x2, 4.0, axis=1), TypeError),
        (lambda x3, x2: ops.adaptive_maxpool(x3, 3.0, axis=1), TypeError),
        (lambda x3, x2: ops.adaptive_maxpool(x2, 4, axis=2), IndexError),
        (lambda x3, x2: ops.conv1d(x2, Tensor(np.ones((2, 2, 3))), Tensor(np.ones(2)),
                                   pool=29), ShapeError)],
        ids=["window-zero", "window-list-too-tall", "window-float", "conv2d-array-too-wide",
             "target-zero", "target-too-many", "target-float", "target-float-lead",
             "axis-out-of-range", "conv1d-target-too-many"])
    def test_bad_argument_raises_on_every_call(self, call, error):
        """Checks run on every call, also once the good arguments of the
        same shape have a cached plan: 2 and 2.0 are one cache key."""
        x3, x2 = Tensor(np.ones((2, 6, 8))), Tensor(np.ones((2, 30)))
        ops.maxpool2d(x3, (2, 2)), ops.adaptive_maxpool(x2, 4, axis=1)
        ops.adaptive_maxpool(x3, 3, axis=1)
        messages = []
        for _ in range(2):
            with pytest.raises(error) as raised:
                call(x3, x2)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_cache_is_bounded(self):
        for n in range(1, 2 * ops._PLANS + 2):
            ops._adaptive_pool((1, 2 * ops._PLANS + 1), n, axis=1)
        assert ops._adaptive_plan.cache_info().currsize == ops._PLANS


# Fused layers whose forward runs in several blocks, cut on bin edges:
# (conv, x shape, weight shape, pool, column budget or None for the
# default, forward matmuls)
PIECE_CASES = {
    # 12000 outputs in 4100 bins of 2 and 3 taps, in blocks of whole bins of
    # up to 2730 rows; the last block is short
    "conv1d-unequal-bins": ("conv1d", (32, 12002), (64, 32, 3), 4100, 1 << 18, 5),
    # a 97 x 101 map in 2x2 windows: 48 rows of bins in blocks of 20, 20
    # and 8, its last row and column in no bin
    "conv2d-odd-sides": ("conv2d", (8, 97, 101), (128, 8, 3, 3), (2, 2), None, 3),
}


@pytest.fixture
def indexes(monkeypatch):
    """Every first-hit index a pool fills, once each (blocks fill one
    index in turn)."""
    seen = {}
    for cls in (ops._Pool, ops._BinPool):
        def spy(self, a, bins, out, index, fill=vars(cls)["fill"]):
            fill(self, a, bins, out, index)
            if index is not None:
                seen.setdefault(id(index), index)
        monkeypatch.setattr(cls, "fill", spy)
    return seen


def piece_case(case, kind):
    """(conv op, pool argument, [x, weight, bias]) of a ``PIECE_CASES`` layer.
    NaN inputs hold NaN in five elements of x and in one bias; signed-zero
    inputs mix +0.0 and -0.0 in x and in the biases."""
    conv, xs, ws, pool, *_ = PIECE_CASES[case]
    rng = np.random.default_rng(len(case) + len(kind))
    x = rng.standard_normal(xs).astype(np.float32)
    w = (rng.standard_normal(ws) / np.sqrt(np.prod(ws[1:]))).astype(np.float32)
    b = rng.standard_normal(ws[0]).astype(np.float32)
    if kind == "nan":
        x.reshape(-1)[rng.choice(x.size, 5, replace=False)] = np.nan
        b[1] = np.nan
    elif kind == "signed-zero":
        x[...] = np.where(rng.random(xs) < 0.5, -0.0, 0.0)
        b[...] = np.where(np.arange(ws[0]) % 2, -0.0, 0.0)
    return getattr(ops, conv), pool, [x, w, b]


def pooled_bytes(op, pool, arrays, gemm, workers, record, fused, indexes):
    """Bytes of the pooled output, of each first-hit index and, when the
    graph records, of the x, weight and bias gradients of sum(r * out), from
    the fused node or from a separate conv, ``relu`` and pool."""
    indexes.clear()
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with ops.gemm_kernels(gemm), ops.workers(workers), \
            (contextlib.nullcontext() if record else no_grad()):
        out = (op(*inputs, relu=True, pool=pool) if fused
               else pool_of(pool, ops.relu(op(*inputs))))
        if record:
            r = np.random.default_rng(out.size).standard_normal(out.shape).astype(out.dtype)
            r.reshape(-1)[::3] = -0.0
            backward(weighted_sum(out, r))
    got = [out.data.tobytes()] + [i.tobytes() for i in indexes.values()]
    return got + [t.grad.tobytes() for t in inputs if record]


class TestPooledPieces:
    """A fused pool's forward cuts its blocks on bin edges, and each block
    biases, activates and pools its own bins. At 1, 2 and 3 workers,
    recording or not, in both families, the pooled output, its index and
    all three gradients keep the bytes of a separate conv, ``relu`` and
    pool at one worker, and the GEMM forward runs the same matmuls."""

    @pytest.mark.parametrize("record", [False, True], ids=["no_grad", "recording"])
    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("kind", ["random", "signed-zero", "nan"])
    @pytest.mark.parametrize("case", PIECE_CASES)
    def test_byte_identical_to_separate_pool(self, case, kind, gemm, record, indexes,
                                             forward_chunks, monkeypatch):
        monkeypatch.setattr(ops, "usable_cpus", lambda: 4)
        *_, budget, calls = PIECE_CASES[case]
        if budget is not None:
            monkeypatch.setattr(ops, "_COLUMN_BUDGET", budget)
        op, pool, arrays = piece_case(case, kind)
        want = pooled_bytes(op, pool, arrays, gemm, 1, record, False, indexes)
        assert len(want) == (5 if record else 1)
        for workers in (1, 2, 3):
            forward_chunks.clear()
            assert pooled_bytes(op, pool, arrays, gemm, workers, record, True, indexes) == want
            if gemm and not record:
                assert len(forward_chunks) == calls


# The head's level maps: (C, H, W) with ragged row and column bins under a
# (2, 3) target, the last map exactly one bin per row pair
HEAD_MAPS = [(3, 9, 13), (4, 5, 7), (2, 4, 3)]
HEAD_TARGET = (2, 3)


def head_maps(kind, dtype):
    """Level maps of one ``INPUTS`` kind. Integer maps hold -1, 0 and 1, so
    most bins tie; NaN maps hold NaN in three elements each; signed-zero
    maps mix +0.0 and -0.0 with a few ones."""
    rng = np.random.default_rng(len(kind))
    maps = []
    for shape in HEAD_MAPS:
        m = rng.standard_normal(shape)
        if kind == "integer":
            m = rng.integers(-1, 2, size=shape).astype(float)
        elif kind == "signed-zero":
            m = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
            m[rng.random(shape) < 0.1] = 1.0
        elif kind == "nan":
            m.reshape(-1)[rng.choice(m.size, 3, replace=False)] = np.nan
        maps.append(m.astype(dtype))
    return maps


def head_bits(maps, gemm, workers, fused, record=True):
    """The bytes of the head's features and, when recording, of each map's
    gradient under an output gradient with -0.0 at every third feature: from
    one ``ops.level_features`` node or, unless ``fused``, from the parent
    graph, two ``ops.adaptive_maxpool`` per map, ``ops.concat`` and
    ``ops.reshape``."""
    th, tw = HEAD_TARGET
    inputs = [Tensor(m.copy(), requires_grad=True) for m in maps]
    with ops.gemm_kernels(gemm), ops.workers(workers), \
            (contextlib.nullcontext() if record else no_grad()):
        if fused:
            out = ops.level_features(inputs, HEAD_TARGET)
        else:
            pooled = [ops.adaptive_maxpool(ops.adaptive_maxpool(m, th, axis=1), tw, axis=2)
                      for m in inputs]
            out = ops.reshape(ops.concat(pooled, axis=0), (sum(p.size for p in pooled),))
        if record:
            r = np.random.default_rng(out.size).standard_normal(out.shape).astype(out.dtype)
            r[::3] = -0.0
            backward(weighted_sum(out, r))
    return [out.data.tobytes()] + [m.grad.tobytes() for m in inputs if record]


class TestLevelFeatures:
    """The head is one ``ops.level_features`` node with the bytes of the two
    pools per level map, the stack and the flattening it stands for."""

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", INPUTS)
    def test_byte_identical_to_two_pools(self, kind, dtype, workers, gemm, monkeypatch):
        monkeypatch.setattr(ops, "usable_cpus", lambda: 4)
        maps = head_maps(kind, dtype)
        want = head_bits(maps, gemm, 1, fused=False)
        assert head_bits(maps, gemm, workers, fused=True) == want
        assert head_bits(maps, gemm, workers, fused=True, record=False) == want[:1]
        out = np.frombuffer(want[0], dtype)
        if kind == "nan":  # some features are NaN, and they pass no gradient
            assert np.isnan(out).any() and not np.isnan(out).all()
        if kind == "signed-zero":  # both signs of zero among the features
            assert (out == 0).any() and np.signbit(out[out == 0]).any()

    def test_integer_maps_tie_across_rows_and_columns(self):
        """The integer maps hold row-and-column bins whose maximum is in
        several rows and several columns, where the two pools' order picks
        the winner."""
        th, tw = HEAD_TARGET
        ties = 0
        for m in head_maps("integer", np.float64):
            rows = ops._adaptive_plan(m.shape, th, 1).firsts[1].tolist() + [m.shape[1]]
            cols = ops._adaptive_plan((m.shape[0], th, m.shape[2]), tw, 2).firsts[2].tolist()
            cols.append(m.shape[2])
            for i in range(th):
                for j in range(tw):
                    b = m[:, rows[i]:rows[i + 1], cols[j]:cols[j + 1]]
                    hit = b == b.max(axis=(1, 2), keepdims=True)
                    ties += np.count_nonzero((hit.any(axis=2).sum(axis=1) > 1)
                                             & (hit.any(axis=1).sum(axis=1) > 1))
        assert ties > 0

    def test_node_keeps_features_and_one_winner_each(self):
        """A recorded head keeps its features and one winner per feature, in
        the narrowest dtype that holds its map's size, and no stage-1 map."""
        maps = [Tensor(m, requires_grad=True) for m in head_maps("random", np.float32)]
        out = ops.level_features(maps, HEAD_TARGET)
        held = [c.cell_contents for c in out._backward.__closure__]
        winners = next(c for c in held if isinstance(c, list) and c
                       and isinstance(c[0], np.ndarray))
        assert [w.size for w in winners] == [m.shape[0] * 6 for m in maps]
        assert [w.dtype for w in winners] == [np.uint16, np.uint8, np.uint8]
        assert not [c for c in held if isinstance(c, np.ndarray) and c is not out.data]

    @pytest.mark.parametrize("shapes,error", [
        ([], ValueError), ([(2, 9)], ShapeError), ([(2, 9, 13), (2, 1, 13)], ShapeError),
        ([(2, 9, 13), (2, 9, 2)], ShapeError)],
        ids=["no-map", "2-d", "too-few-rows", "too-few-columns"])
    def test_errors(self, shapes, error):
        with pytest.raises(error):
            ops.level_features([Tensor(np.ones(s)) for s in shapes], HEAD_TARGET)
