"""Backward sweep: gradients land on leaves only, adjoints are complete."""

import numpy as np

from wavems import ops
from wavems.tensor import Tensor, backward


def test_op_outputs_keep_no_grad(rng):
    x = Tensor(rng.standard_normal((2, 12)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    const = Tensor(rng.standard_normal((3, 9)))
    y = ops.conv1d(x, w, b)
    r = ops.relu(y)
    s = ops.add(r, const)
    loss = ops.tsum(s)
    backward(loss)
    for node in (y, r, s, loss):
        assert node.grad is None
    for leaf in (x, w, b):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
    assert const.grad is None  # a leaf that needs no gradient gets none


def test_non_leaf_used_twice_collects_both_adjoints(rng):
    x = Tensor(rng.standard_normal(8), requires_grad=True)
    y = ops.relu(x)
    backward(ops.tsum(ops.add(y, y)))
    assert np.array_equal(x.grad, 2.0 * (x.data > 0))
