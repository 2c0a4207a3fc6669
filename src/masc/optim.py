"""Adam optimizer with decoupled weight decay.

The parameters, their gradients and the two moments share one flat layout
(``detector.FlatParams``), so an update is a handful of in-place vectorized
passes over whole vectors, whatever the number of parameter groups. Two
scratch vectors held by the state take the temporaries; a step allocates
nothing of the parameters' size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import FlatParams
from .errors import DivergenceError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates; the denominator's guard


@dataclass
class AdamState:
    lr: float
    weight_decay: float
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    step_count: int = 0

    @classmethod
    def init(cls, params: FlatParams, lr: float, weight_decay: float = 0.0) -> "AdamState":
        n = params.flat.size
        return cls(
            lr=lr, weight_decay=weight_decay,
            m=np.zeros(n), v=np.zeros(n), scratch=(np.empty(n), np.empty(n)),
        )


def adam_step(state: AdamState, params: FlatParams, grads: FlatParams) -> None:
    """One Adam update of ``params.flat`` in place; ``grads`` is only read.

    Weight decay is decoupled (applied directly to parameters, not folded into
    the gradient), which reduces to plain Adam when weight_decay == 0.
    Non-finite gradients abort with DivergenceError before any state changes.
    """
    g = grads.flat
    if not np.all(np.isfinite(g)):
        raise DivergenceError("diverged: non-finite gradient")
    p, m, v = params.flat, state.m, state.v
    s, decay = state.scratch
    state.step_count += 1
    t = state.step_count
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=s)
    np.square(g, out=s)
    s *= 1.0 - BETA2
    v *= BETA2
    v += s
    np.divide(v, 1.0 - BETA2**t, out=s)  # v_hat
    np.sqrt(s, out=s)
    s += EPS
    np.divide(m, s, out=s)
    s *= state.lr / (1.0 - BETA1**t)
    if state.weight_decay > 0.0:
        np.multiply(p, state.lr * state.weight_decay, out=decay)  # from the old p
        p -= s
        p -= decay
    else:
        p -= s
