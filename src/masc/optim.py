"""Adam optimizer with decoupled weight decay.

The parameters, their gradients and the two moments share one flat layout
(``detector.FlatParams``). An update walks the four vectors in blocks of
``BLOCK`` elements and gives each block a handful of in-place vectorized
passes, whatever the number of parameter groups. Every operation is
elementwise, so the blocks give the whole-vector update bit for bit. Two
block-sized scratch vectors held by the state take the temporaries, and a
block-sized boolean scratch takes the finiteness check's mask, so a step
allocates no array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import FlatParams
from .errors import DivergenceError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates; the denominator's guard
# Elements per block, 512 KiB per float64 vector. The scratch is two blocks
# in place of two parameter-sized vectors. Blocks are no slower than whole
# vectors: at 131,840 parameters (the bench's `train` model) a step took
# 865-869 µs against 969-998 µs, best of 7 x 200 steps with one BLAS thread
# on a 2-core Xeon. 32,768 elements was about as fast there (831-837 µs),
# but at criterion 4's 34,624 parameters it makes two blocks where 65,536
# makes one (201-204 against 194 µs).
BLOCK = 65_536


@dataclass
class AdamState:
    lr: float
    weight_decay: float
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]  # each min(BLOCK, size) elements
    finite: np.ndarray  # min(BLOCK, size) booleans, the finiteness mask
    step_count: int = 0

    @classmethod
    def init(cls, params: FlatParams, lr: float, weight_decay: float = 0.0) -> "AdamState":
        n = params.flat.size
        block = min(n, BLOCK)
        return cls(
            lr=lr, weight_decay=weight_decay,
            m=np.zeros(n), v=np.zeros(n), scratch=(np.empty(block), np.empty(block)),
            finite=np.empty(block, dtype=bool),
        )


def adam_step(state: AdamState, params: FlatParams, grads: FlatParams) -> None:
    """One Adam update of ``params.flat`` in place; ``grads`` is only read.

    Weight decay is decoupled (applied directly to parameters, not folded into
    the gradient), which reduces to plain Adam when weight_decay == 0.
    Non-finite gradients abort with DivergenceError before any state changes:
    the check covers every block of the gradient, into the state's boolean
    scratch, and runs first. Then each block of ``BLOCK`` elements gets the
    same in-place operations in the same order, with the state's two
    block-sized scratch vectors as temporaries.
    """
    g_all = grads.flat
    for lo in range(0, g_all.size, BLOCK):
        g = g_all[lo : lo + BLOCK]
        if not np.isfinite(g, out=state.finite[: g.size]).all():
            raise DivergenceError("diverged: non-finite gradient")
    p_all, m_all, v_all = params.flat, state.m, state.v
    state.step_count += 1
    t = state.step_count
    v_scale = 1.0 - BETA2**t
    step_scale = state.lr / (1.0 - BETA1**t)
    decay_rate = state.lr * state.weight_decay
    for lo in range(0, p_all.size, BLOCK):
        hi = min(lo + BLOCK, p_all.size)
        p, g, m, v = p_all[lo:hi], g_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
        s, decay = state.scratch[0][: hi - lo], state.scratch[1][: hi - lo]
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=s)
        np.square(g, out=s)
        s *= 1.0 - BETA2
        v *= BETA2
        v += s
        np.divide(v, v_scale, out=s)  # v_hat
        np.sqrt(s, out=s)
        s += EPS
        np.divide(m, s, out=s)
        s *= step_scale
        if state.weight_decay > 0.0:
            np.multiply(p, decay_rate, out=decay)  # from the old p
            p -= s
            p -= decay
        else:
            p -= s
