"""Detection metrics, score-distribution export, and embedding diagnostics.

Everything here computes from arrays, each thing once. ``auc_roc`` takes
its midranks from one ``np.unique`` over the scores. ``score_histogram`` is
called on its own, apart from the ``compute_metrics`` record.
``embedding_distance_diagnostics`` reads the (T, d) step rows that
``embed_trajectory`` returns and gives the raw and the
nearest-neighbor-augmented distances from the same rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .trace import Trajectory


@dataclass(frozen=True)
class ScoredStep:
    """One scored step with its ground-truth label."""

    trajectory_id: str
    t: int
    score: float
    label: int
    flagged: bool | None = None


@dataclass
class HistogramResult:
    bin_edges: np.ndarray  # length bins + 1
    normal_counts: np.ndarray
    error_counts: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["bin_lo", "bin_hi", "normal_count", "error_count"])
        for i in range(len(self.normal_counts)):
            writer.writerow(
                [
                    f"{self.bin_edges[i]:.12g}",
                    f"{self.bin_edges[i + 1]:.12g}",
                    int(self.normal_counts[i]),
                    int(self.error_counts[i]),
                ]
            )
        return buf.getvalue()


@dataclass
class MetricsReport:
    auc_roc: float
    step_accuracy: float
    flag_accuracy: float | None
    n_steps: int
    n_trajectories: int
    n_excluded_trajectories: int


def auc_roc(scored: list[ScoredStep]) -> float:
    """Probability a random error step outscores a random normal step.

    Mann-Whitney formulation via midranks; ties count half, and -0.0 ties
    with 0.0. A non-finite score raises DataError: numpy versions differ in
    whether ``np.unique`` puts NaNs in one group.
    """
    scores = np.array([s.score for s in scored], dtype=np.float64)
    labels = np.array([s.label for s in scored])
    if not np.isfinite(scores).all():
        raise DataError("non-finite score: AUC needs finite scores")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("degenerate labels: need at least one of each class")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # A tie group's 1-based midrank: its last rank less half its extra members.
    midranks = np.cumsum(counts) - 0.5 * (counts - 1)
    rank_sum_pos = float(midranks[group[labels == 1]].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def localization_pairs(
    scored: list[ScoredStep],
) -> tuple[list[tuple[int, int]], int]:
    """(predicted argmax step, annotated step) per single-error trajectory.

    Trajectories with zero or multiple annotated steps are excluded; their
    count is returned alongside. Argmax ties resolve to the earliest step.
    """
    by_id: dict[str, list[ScoredStep]] = {}
    for s in scored:
        by_id.setdefault(s.trajectory_id, []).append(s)
    pairs = []
    excluded = 0
    for steps in by_id.values():
        annotated = [s.t for s in steps if s.label == 1]
        if len(annotated) != 1:
            excluded += 1
            continue
        steps_sorted = sorted(steps, key=lambda s: s.t)
        best = max(steps_sorted, key=lambda s: s.score)  # first max wins
        pairs.append((best.t, annotated[0]))
    return pairs, excluded


def step_accuracy(pairs: list[tuple[int, int]]) -> float:
    """Fraction of trajectories whose argmax step matches the annotation."""
    if not pairs:
        raise DataError("no single-error trajectories to evaluate")
    return sum(1 for predicted, annotated in pairs if predicted == annotated) / len(pairs)


def score_histogram(scored: list[ScoredStep], bins: int = 20) -> HistogramResult:
    """Aligned normal/error histograms over the scores' shared range."""
    if bins < 2:
        raise DataError("bins must be >= 2")
    scores = np.array([s.score for s in scored], dtype=np.float64)
    labels = np.array([s.label for s in scored])
    value_range = (float(scores.min()), float(scores.max()))
    normal_counts, edges = np.histogram(
        scores[labels == 0], bins=bins, range=value_range
    )
    error_counts, _ = np.histogram(scores[labels == 1], bins=bins, range=value_range)
    return HistogramResult(
        bin_edges=edges, normal_counts=normal_counts, error_counts=error_counts
    )


def compute_metrics(scored: list[ScoredStep]) -> MetricsReport:
    """Full metric bundle over scored, labeled steps.

    ``step_accuracy`` is argmax localization against the single annotated
    step; ``flag_accuracy`` (how often the thresholded flag equals the label)
    is reported separately when flags are present, since the two measure
    different things.
    """
    auc = auc_roc(scored)
    pairs, excluded = localization_pairs(scored)
    accuracy = step_accuracy(pairs)
    flagged = [s for s in scored if s.flagged is not None]
    flag_acc = None
    if flagged:
        flag_acc = sum(1 for s in flagged if int(s.flagged) == s.label) / len(flagged)
    return MetricsReport(
        auc_roc=auc,
        step_accuracy=accuracy,
        flag_accuracy=flag_acc,
        n_steps=len(scored),
        n_trajectories=len({s.trajectory_id for s in scored}),
        n_excluded_trajectories=excluded,
    )


@dataclass
class DistanceDiagnostics:
    inter: float
    intra: float
    n_normal: int
    n_error: int


def embedding_distance_diagnostics(
    trajectories: list[Trajectory], step_matrices: list[np.ndarray]
) -> tuple[DistanceDiagnostics, DistanceDiagnostics]:
    """(raw, nn_augmented) inter- and intra-class distances of labeled steps.

    ``step_matrices[i]`` holds trajectory i's (T, d) step rows, as
    ``embed_trajectory`` returns them; labels come from the trajectories, and
    unlabeled steps are left out. ``inter`` is the L2 distance between the
    mean normal and mean error rows; ``intra`` is the mean L2 distance of
    normal rows to the normal mean. The augmented rows join each row with its
    nearest other row (L2, first on ties) in the same trajectory; a
    single-step trajectory pairs the row with itself.
    """
    if len(step_matrices) != len(trajectories):
        raise DataError(
            f"{len(step_matrices)} step matrices for {len(trajectories)} trajectories"
        )
    raw, augmented = [], []
    for trajectory, rows in zip(trajectories, step_matrices):
        if rows.ndim != 2 or len(rows) != len(trajectory):
            raise DataError(
                f"trajectory {trajectory.id!r}: step rows of shape {rows.shape} "
                f"for {len(trajectory)} steps"
            )
        dists = np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)  # a lone row's argmin is itself
        raw.append(rows)
        augmented.append(np.hstack([rows, rows[np.argmin(dists, axis=1)]]))
    labels = np.array([s.label for t in trajectories for s in t.steps])
    normal, error = labels == 0, labels == 1
    if not normal.any() or not error.any():
        raise DataError("diagnostics need labeled steps of both classes")
    return tuple(
        _class_distances(np.vstack(rows), normal, error) for rows in (raw, augmented)
    )


def _class_distances(
    rows: np.ndarray, normal: np.ndarray, error: np.ndarray
) -> DistanceDiagnostics:
    normal_rows = rows[normal]
    normal_mean = normal_rows.mean(axis=0)
    return DistanceDiagnostics(
        inter=float(np.linalg.norm(rows[error].mean(axis=0) - normal_mean)),
        intra=float(np.mean(np.linalg.norm(normal_rows - normal_mean, axis=1))),
        n_normal=int(normal.sum()),
        n_error=int(error.sum()),
    )
