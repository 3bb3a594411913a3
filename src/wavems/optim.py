"""Momentum SGD with coupled L2 weight decay, one temporary array per
parameter at a time."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import Parameter


def sgd_step(params: Iterable[Parameter], lr: float, momentum: float,
             weight_decay: float) -> None:
    """One update: g += wd*w (unless exempt); v = mu*v + g; w -= lr*v.

    Classic coupled L2: decay joins the gradient before the momentum
    accumulation. Every parameter is checked first: one without a gradient
    raises ``RuntimeError``, a read-only weight or velocity ``ValueError``,
    before any is changed. Each parameter makes one temporary: ``wd*w``,
    to which the gradient is added, then reused for ``lr*v``. Addition and
    multiplication commute, so the bits are those of the formula's order.
    """
    params = list(params)
    for p in params:
        if p.value.grad is None:
            raise RuntimeError(
                f"sgd_step: parameter with shape {p.value.shape} has no gradient")
        for name, a in (("weight", p.value.data), ("velocity", p.velocity)):
            if not a.flags.writeable:
                raise ValueError(
                    f"sgd_step: parameter with shape {p.value.shape} has a read-only {name}")
    for p in params:
        w, t = p.value.data, np.empty_like(p.value.data)
        p.velocity *= momentum
        if weight_decay != 0.0 and not p.decay_exempt:
            np.multiply(w, weight_decay, out=t)
            t += p.value.grad
            p.velocity += t
        else:
            p.velocity += p.value.grad
        np.multiply(p.velocity, lr, out=t)
        w -= t
