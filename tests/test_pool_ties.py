"""Gradient routing of the max pools on ties, against brute-force oracles.

Every case compares the whole input gradient bit for bit. Integer-valued
inputs make ties dense, so most windows and bins hold several maxima and
only the first may receive the gradient.
"""

import numpy as np
import pytest

from wavems import ops
from wavems.tensor import Tensor, backward

from oracles import (adaptive_maxpool_grad_oracle, adaptive_maxpool_oracle,
                     maxpool2d_grad_oracle, maxpool2d_oracle)


def pool_and_grad(op, x, g):
    """op(x) and d(sum(op(x) * g))/dx, through the op's own backward.

    The weighted sum is a linear layer with weight g over the flat output,
    so the output gradient reaching the op is exactly g.
    """
    t = Tensor(x, requires_grad=True)
    out = op(t)
    flat = ops.reshape(out, (out.size,))
    w = Tensor(g.reshape(1, -1).astype(x.dtype))
    backward(ops.reshape(ops.linear(flat, w, Tensor(np.zeros(1, dtype=x.dtype))), ()))
    return out.data, t.grad


def distinct_grad(shape, dtype=np.float64):
    """An output gradient whose entries are all different, so a misrouted
    entry cannot match by accident."""
    return (np.arange(np.prod(shape), dtype=dtype) + 1).reshape(shape)


class TestMaxPool2dTies:
    def test_anti_diagonal_tie_routes_raster_first(self):
        # raster order reaches (0, 1) before (1, 0); column-first would not
        x = np.array([[[1.0, 5.0], [5.0, 1.0]]])
        _, gx = pool_and_grad(lambda t: ops.maxpool2d(t, (2, 2)), x, np.array([[[7.0]]]))
        assert gx.tolist() == [[[0.0, 7.0], [0.0, 0.0]]]
        assert np.array_equal(gx, maxpool2d_grad_oracle(x, (2, 2), np.array([[[7.0]]])))

    def test_all_equal_window_routes_to_its_corner(self):
        x = np.full((1, 4, 6), 3.0)
        g = distinct_grad((1, 2, 2))
        _, gx = pool_and_grad(lambda t: ops.maxpool2d(t, (2, 3)), x, g)
        expected = np.zeros_like(x)
        expected[0, ::2, ::3] = g[0]
        assert np.array_equal(gx, expected)

    def test_dropped_edge_gets_no_gradient(self):
        x = np.full((2, 5, 7), 9.0)  # the last row and column fall outside every window
        _, gx = pool_and_grad(lambda t: ops.maxpool2d(t, (2, 2)), x, distinct_grad((2, 2, 3)))
        assert not gx[:, 4:, :].any() and not gx[:, :, 6:].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(12))
    def test_integer_inputs_match_oracle(self, seed, dtype):
        rng = np.random.default_rng(5000 + seed)
        c, h, w = (int(v) for v in rng.integers(1, 9, size=3))
        ph, pw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
        x = rng.integers(-2, 3, size=(c, h, w)).astype(dtype)
        g = distinct_grad((c, h // ph, w // pw), dtype)
        out, gx = pool_and_grad(lambda t: ops.maxpool2d(t, (ph, pw)), x, g)
        assert np.array_equal(out, maxpool2d_oracle(x, (ph, pw)))
        assert np.array_equal(gx, maxpool2d_grad_oracle(x, (ph, pw), g))


class TestAdaptiveMaxPoolTies:
    def test_ragged_bins_route_to_first_occurrence(self):
        # L=10, T=4: bins [0,2) [2,5) [5,7) [7,10), each holding a repeated maximum
        x = np.array([4.0, 4.0, 1.0, 6.0, 6.0, 2.0, 2.0, 0.0, 3.0, 3.0])
        g = np.array([10.0, 20.0, 30.0, 40.0])
        out, gx = pool_and_grad(lambda t: ops.adaptive_maxpool(t, 4, axis=0), x, g)
        assert out.tolist() == [4.0, 6.0, 2.0, 3.0]
        assert gx.tolist() == [10.0, 0.0, 0.0, 20.0, 0.0, 30.0, 0.0, 0.0, 40.0, 0.0]

    def test_short_bin_maximum_in_its_last_element(self):
        # L=5, T=2: bins [0,2) and [2,5); the short bin's last element is its
        # maximum and is read again by the third tap
        x = np.array([[0.0, 8.0, 1.0, 1.0, 1.0]])
        g = np.array([[5.0, 6.0]])
        _, gx = pool_and_grad(lambda t: ops.adaptive_maxpool(t, 2, axis=1), x, g)
        assert gx.tolist() == [[0.0, 5.0, 6.0, 0.0, 0.0]]

    @pytest.mark.parametrize("axis", [-1, -2, -3])
    def test_negative_axis_matches_positive(self, axis):
        rng = np.random.default_rng(61)
        x = rng.integers(0, 3, size=(5, 7, 9)).astype(np.float64)
        target = 3
        shape = list(x.shape)
        shape[axis] = target
        g = distinct_grad(tuple(shape))
        out_n, gx_n = pool_and_grad(lambda t: ops.adaptive_maxpool(t, target, axis=axis), x, g)
        out_p, gx_p = pool_and_grad(lambda t: ops.adaptive_maxpool(t, target, axis=axis % 3), x, g)
        assert np.array_equal(out_n, out_p) and np.array_equal(gx_n, gx_p)
        assert np.array_equal(gx_n, adaptive_maxpool_grad_oracle(x, target, axis, g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(12))
    def test_integer_inputs_match_oracle(self, seed, dtype):
        rng = np.random.default_rng(6000 + seed)
        shape = [int(v) for v in rng.integers(1, 5, size=3)]
        axis = int(rng.integers(-3, 3))
        shape[axis] = int(rng.integers(1, 30))
        target = int(rng.integers(1, shape[axis] + 1))
        x = rng.integers(-1, 2, size=shape).astype(dtype)
        gshape = list(shape)
        gshape[axis] = target
        g = distinct_grad(tuple(gshape), dtype)
        out, gx = pool_and_grad(lambda t: ops.adaptive_maxpool(t, target, axis=axis), x, g)
        assert np.array_equal(out, adaptive_maxpool_oracle(x, target, axis))
        assert np.array_equal(gx, adaptive_maxpool_grad_oracle(x, target, axis, g))

    def test_frontend_ragged_bins(self):
        # 149- and 150-sample bins, as in the full-scale front end, at a small height
        rng = np.random.default_rng(62)
        x = rng.integers(0, 4, size=(2, 66138)).astype(np.float32)
        g = distinct_grad((2, 441), np.float32)
        out, gx = pool_and_grad(lambda t: ops.adaptive_maxpool(t, 441, axis=1), x, g)
        assert np.array_equal(out, adaptive_maxpool_oracle(x, 441, 1))
        assert np.array_equal(gx, adaptive_maxpool_grad_oracle(x, 441, 1, g))


@pytest.mark.parametrize("op", [lambda t: ops.maxpool2d(t, (1, 2)),
                                lambda t: ops.adaptive_maxpool(t, 2, axis=2)],
                         ids=["maxpool2d", "adaptive_maxpool"])
def test_nan_bin_outputs_nan_and_passes_no_gradient(op):
    x = np.array([[[1.0, np.nan, 3.0, 2.0]]])
    out, gx = pool_and_grad(op, x, np.array([[[5.0, 6.0]]]))
    assert np.isnan(out[0, 0, 0]) and out[0, 0, 1] == 3.0
    assert gx.tolist() == [[[0.0, 0.0, 6.0, 0.0]]]
