"""Dense tensors with reverse-mode differentiation.

Values live in numpy arrays (row-major, C order). Operations in
:mod:`wavems.ops` record their inputs and a backward closure on the output
tensor through :func:`make_node`, the graph extension API: the closure maps
the output's adjoint to one gradient per input and changes nothing itself.
Calling :func:`backward` on a scalar result sums those gradients and fills
``grad`` on every reachable leaf (a tensor no op produced, such as a
parameter or an input) that requires gradients. Op outputs keep ``grad`` at
``None``: their adjoints live only during the sweep. Gradients accumulate
additively, both across multiple uses of a tensor and across repeated
backward calls; reset them explicitly with :func:`zero_grads`.

A computation graph uses one precision throughout (float32 or float64;
mixed graphs are rejected by the ops) and is confined to a single logical
thread from forward through backward. Tensors themselves are plain values
and safe to hand between threads. Whether graphs are recorded
(:class:`no_grad`) is set per thread, and each :func:`backward` call keeps
its adjoints in a local table.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ShapeError

#: Supported precisions. Training defaults to single; gradient checks need double.
DTYPES = {"single": np.float32, "double": np.float64}

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

BackwardFn = Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]


class _GradMode(threading.local):
    enabled = True  # every thread starts out recording


_grad_mode = _GradMode()


def _as_float_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float64)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # which would promote 0-d to 1-d
    return arr


class Tensor:
    """N-dimensional value array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data: np.ndarray = _as_float_array(data, dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[BackwardFn] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class no_grad:
    """Context manager that disables graph recording (inference mode) in the
    calling thread; the previous mode returns on exit."""

    def __enter__(self):
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_mode.enabled = self._prev
        return False


def grad_enabled() -> bool:
    """Whether ops in the calling thread record graph edges."""
    return _grad_mode.enabled


def recording(parents: Iterable[Tensor]) -> bool:
    """Whether an op on ``parents`` records a graph node in the calling
    thread: recording is on and some parent requires gradients."""
    return _grad_mode.enabled and any(p.requires_grad for p in parents)


def make_node(out_data: np.ndarray, parents: Iterable[Tensor],
              backward_fn: BackwardFn) -> Tensor:
    """Wrap an op result, recording the graph edge when gradients are live
    (:func:`recording`). ``backward_fn(g)`` maps d(loss)/d(out) to one
    gradient per parent, in parent order and of that parent's shape, or
    ``None`` for one it skips."""
    out = Tensor(out_data)
    parents = tuple(parents)
    if recording(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Adds d(loss)/d(t) to ``grad`` on every leaf ``t`` that requires
    gradients and is reachable through the recorded graph, on top of any
    gradient already there. What the closures return is summed, never in
    place, into an adjoint table local to this call; each adjoint is dropped
    once its node's closure has consumed it, so op outputs get no ``grad``.
    """
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")

    # Iterative post-order topological sort; graphs can be deep when a batch
    # loss is chained from many per-sample terms.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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

    adjoints: dict[int, np.ndarray] = {}
    if loss.requires_grad:
        adjoints[id(loss)] = np.ones((), dtype=loss.data.dtype)
    # every consumer of a node comes before it, so its adjoint is complete
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


class Parameter:
    """Trainable tensor plus its momentum buffer, zeros unless ``velocity``
    is given (held as it is).

    ``decay_exempt`` marks parameters skipped by weight decay (biases).
    """

    __slots__ = ("value", "velocity", "decay_exempt")

    def __init__(self, data, decay_exempt: bool = False,
                 velocity: Optional[np.ndarray] = None):
        self.value = data if isinstance(data, Tensor) else Tensor(data)
        self.value.requires_grad = True
        self.velocity: np.ndarray = (np.zeros_like(self.value.data)
                                     if velocity is None else velocity)
        self.decay_exempt = bool(decay_exempt)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.value.shape}, decay_exempt={self.decay_exempt})"


def zero_grads(params: Iterable[Parameter]) -> None:
    """Clear accumulated gradients between optimizer steps."""
    for p in params:
        p.value.grad = None
