"""Unsupervised training on normal trajectories, plus threshold calibration.

The training loop walks trajectories in order; for each one it runs the full
forward pass (predictions for t = 1..T, the attention-updated prototype, and
the combined loss) and the detector's hand-written backward pass
(``detector.trajectory_loss``), which writes the gradients into one buffer
laid out like the parameters and reused for every trajectory, then:

1. overwrites the stored prototype, in place, with the attention output of
   the forward pass, and
2. applies one in-place Adam update to the whole parameter buffer, the
   prototype included, using the gradients taken at the pre-update values.

So the prototype is both rewritten by the attention mechanism each trajectory
and nudged by its gradient, in that order. One optimizer step per trajectory;
step labels are never read by this path.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .detector import (
    SEED_MAX,
    BackboneSpec,
    DetectorModel,
    check_score_settings,
    score_corpus,
    score_trajectory,  # noqa: F401 -- bench/tracing.py wraps this name
    trajectory_loss,
)
from .embedding import EmbedderSpec, embed_trajectory
from .errors import ConfigError, DataError, DivergenceError, check_int, check_number
from .optim import AdamState, adam_step
from .trace import Step, Trajectory

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    lr: float = 1e-4
    weight_decay: float = 0.0
    lam: float = 0.2
    seed: int = 0
    d_h: int = 384
    embedder: EmbedderSpec = EmbedderSpec()
    backbone: BackboneSpec | None = None
    with_gt: bool = False
    exclude_labeled_steps: bool = False

    def __post_init__(self):
        check_int(self.epochs, "epochs", 1)
        check_number(self.lr, "lr", 0, strict=True)
        check_number(self.weight_decay, "weight_decay", 0)
        check_number(self.lam, "lambda", 0)
        check_int(self.seed, "seed", 0, SEED_MAX)
        check_int(self.d_h, "d_h", 1)
        for name, kind in (
            ("embedder", EmbedderSpec), ("backbone", (BackboneSpec, type(None))),
            ("with_gt", bool), ("exclude_labeled_steps", bool),
        ):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} cannot be {getattr(self, name)!r}")


# Hyperparameter profiles: (epochs, lr, weight_decay, d_h, lam).
PROFILES = {
    "hc": {"epochs": 10, "lr": 1e-4, "weight_decay": 0.0, "d_h": 384, "lam": 0.2},
    "auto": {"epochs": 5, "lr": 5e-5, "weight_decay": 0.0, "d_h": 384, "lam": 0.3},
}


@dataclass
class EpochStats:
    mean_recon: float
    mean_proto: float
    mean_total: float


@dataclass
class TrainReport:
    """The ``masc train`` report is this record's ``asdict``."""

    epochs: list[EpochStats] = field(default_factory=list)
    wall_time: float = 0.0
    param_digest: str = ""
    n_trajectories: int = 0


@dataclass(frozen=True)
class Calibration:
    """Score threshold derived from a normal-only calibration set; the
    checkpoint header and ``masc calibrate`` write its ``asdict``."""

    delta: float
    quantile: float
    alpha: float
    beta: float
    stats: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # A header's fields must be finite numbers, not bools. So delta is
        # held finite, stricter than the score rule: a calibrated delta is a
        # quantile of finite scores.
        for name in ("delta", "alpha", "beta"):
            check_number(getattr(self, name), f"calibration {name}")
        check_number(self.quantile, "calibration quantile", 0, 1, strict=True)
        check_score_settings(self.alpha, self.beta, self.delta)
        if not isinstance(self.stats, dict) or not all(isinstance(k, str) for k in self.stats):
            raise ConfigError("calibration stats must be an object")
        for key, value in self.stats.items():
            check_number(value, f"calibration stats {key!r}")


def _strip_labels(trajectory: Trajectory, exclude: bool) -> Trajectory:
    if not exclude:
        return trajectory
    kept = tuple(s for s in trajectory.steps if s.label != 1)
    if not kept:
        raise DataError(f"trajectory {trajectory.id}: all steps labeled, none left")
    return replace(
        trajectory, steps=tuple(Step(s.role, s.output, None) for s in kept)
    )


def train(
    cfg: TrainConfig, train_set: list[Trajectory]
) -> tuple[DetectorModel, TrainReport]:
    """Fit the detector on trajectories treated as all-normal.

    Deterministic given (cfg, data): identical runs produce identical
    parameter digests. Raises DivergenceError with epoch/trajectory context
    if the loss goes non-finite.

    With a ``remote_llm`` backbone the service's hidden states carry no
    gradient back to the projections: ``RemoteBackbone.backward`` returns
    zeros, so the Adam moments of f_q and f_h stay zero and they keep their
    initial values (apart from weight decay); only the head f_theta, the
    attention maps and the prototype train.
    """
    if not train_set:
        raise DataError("empty training set")
    start = time.monotonic()
    model = DetectorModel.init(
        embedder=cfg.embedder,
        d_h=cfg.d_h,
        backbone=cfg.backbone,
        seed=cfg.seed,
        with_gt=cfg.with_gt,
    )
    model.lam = cfg.lam
    prepared = [_strip_labels(t, cfg.exclude_labeled_steps) for t in train_set]
    embedded = [
        embed_trajectory(cfg.embedder, trajectory, with_gt=cfg.with_gt)
        for trajectory in prepared
    ]
    adam = AdamState.init(model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    grads = model.params.zeros_like()
    report = TrainReport(n_trajectories=len(prepared))
    for epoch in range(cfg.epochs):
        sums = np.zeros(3)
        for trajectory, (q_vec, step_matrix) in zip(prepared, embedded):
            total, recon, proto, p_new, _ = trajectory_loss(
                model, model.params, q_vec, step_matrix, cfg.lam, grads
            )
            if not np.isfinite(total):
                raise DivergenceError(
                    f"diverged at epoch {epoch + 1}, trajectory {trajectory.id!r}"
                )
            model.params["p"][...] = p_new
            adam_step(adam, model.params, grads)
            sums += (recon, proto, total)
        means = sums / len(prepared)
        report.epochs.append(EpochStats(*means))
        logger.debug(
            "epoch %d: recon %.6f proto %.6f total %.6f", epoch + 1, *means
        )
    report.wall_time = time.monotonic() - start
    report.param_digest = model.param_digest()
    return model, report


def calibrate_threshold(
    model: DetectorModel,
    calibration_set: list[Trajectory],
    quantile: float = 0.99,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> Calibration:
    """Set delta to an empirical quantile of normal-step scores.

    Scores every step of every calibration trajectory through
    ``score_corpus``, in stacked chunks, then takes the linearly
    interpolated quantile (numpy's "linear" method). The scores agree with
    ``score_trajectory``'s to rounding; their last bits can depend on the
    trajectories a chunk stacks together. Weights that
    ``check_score_settings`` refuses (alpha and beta finite, >= 0 and not
    both zero) raise ConfigError before any step is scored; a score they
    overflow raises DivergenceError where it is made. The quantile and the
    p50, p90 and p99 stats come from one ``np.quantile`` call; the mean of
    scores whose sum overflows is the sum of each score over their count.
    """
    check_number(quantile, "quantile", 0, 1, strict=True)
    check_score_settings(alpha, beta, math.inf)
    if not calibration_set:
        raise DataError("empty calibration set")
    scores = [
        v.score
        for verdicts in score_corpus(model, calibration_set, alpha, beta)
        for v in verdicts
    ]
    arr = np.asarray(scores, dtype=np.float64)
    delta, p50, p90, p99 = np.quantile(
        arr, [quantile, 0.5, 0.9, 0.99], method="linear"
    ).tolist()
    with np.errstate(over="ignore"):  # the sum of finite scores can overflow
        mean = float(arr.mean())
    if mean == math.inf:
        mean = float(np.sum(arr / arr.size))
    stats = {
        "min": float(arr.min()),
        "mean": mean,
        "max": float(arr.max()),
        "p50": p50,
        "p90": p90,
        "p99": p99,
        "n_steps": float(arr.size),
    }
    return Calibration(
        delta=delta, quantile=quantile, alpha=alpha, beta=beta, stats=stats
    )
