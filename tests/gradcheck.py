"""Finite-difference oracle for checking analytic gradients in tests.

``finite_diff`` takes central differences of a scalar loss, one parameter
entry at a time, and ``max_relative_error`` compares the result with an
analytic gradient such as the one ``detector.trajectory_loss`` returns.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

LossFn = Callable[[dict[str, np.ndarray]], float]


def finite_diff(
    loss_fn: LossFn, params: Mapping[str, np.ndarray], eps: float = 1e-4
) -> dict[str, np.ndarray]:
    """Central-difference gradients, one scalar parameter at a time."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    out: dict[str, np.ndarray] = {}
    for name, arr in work.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(loss_fn(work))
            flat[i] = orig - eps
            f_minus = float(loss_fn(work))
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * eps)
        out[name] = g
    return out


def max_relative_error(
    analytic: Mapping[str, np.ndarray], numeric: Mapping[str, np.ndarray]
) -> float:
    """max_i |a_i - n_i| / (1 + |n_i|) over all parameters."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        err = np.abs(a - n) / (1.0 + np.abs(n))
        worst = max(worst, float(err.max()) if err.size else 0.0)
    return worst
