"""Finite-difference gradient checking utilities shared by the test modules."""

import numpy as np

from wavems.tensor import Tensor, backward, make_node


def weighted_sum(t: Tensor, r: np.ndarray) -> Tensor:
    """Test-only scalar projection sum(t * r) so output grads are non-uniform.

    Built on the graph extension API; the closure is trivial by inspection,
    keeping the op under test the only nontrivial link in the chain.
    """
    out = np.asarray((t.data * r).sum())

    def _bw(g):
        return (g * r,)

    return make_node(out, (t,), _bw)


def fd_gradient(scalar_fn, array: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar_fn w.r.t. every element of array.

    The array is perturbed in place and restored; scalar_fn must re-run the
    forward pass and return a python float.
    """
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = scalar_fn()
        flat[i] = orig - h
        fm = scalar_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_rel_close(analytic: np.ndarray, numeric: np.ndarray,
                     tol: float = 1e-4) -> None:
    """|a - n| <= tol * max(1, |a|, |n|), elementwise."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    err = np.abs(a - n) / denom
    worst = err.max() if err.size else 0.0
    assert worst < tol, f"gradient mismatch: max relative error {worst:.3e} >= {tol:g}"


def check_op_gradients(build_output, inputs: list[Tensor], seed: int,
                       tol: float = 1e-4, h: float = 1e-6) -> None:
    """FD-check d(weighted_sum(op(...)))/d(input) for every listed input.

    ``build_output`` must rebuild the op output from the current input data
    each call (the inputs are mutated in place during differencing).
    """
    rng = np.random.default_rng(seed)
    out = build_output()
    r = rng.standard_normal(out.shape)
    backward(weighted_sum(out, r))

    def loss():
        return float((build_output().data * r).sum())

    for t in inputs:
        assert t.grad is not None, "input missing gradient after backward"
        assert_rel_close(t.grad, fd_gradient(loss, t.data, h=h), tol=tol)
