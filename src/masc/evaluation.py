"""Detection metrics, score-distribution export, and embedding diagnostics."""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .embedding import EmbedderSpec, embed_step
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
    histogram: HistogramResult | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """Every field but the histogram, which is written as CSV."""
        report = asdict(replace(self, histogram=None))
        del report["histogram"]
        return report


def auc_roc(scored: list[ScoredStep]) -> float:
    """Probability a random error step outscores a random normal step.

    Mann-Whitney formulation via midranks; ties count half.
    """
    scores = np.array([s.score for s in scored], dtype=np.float64)
    labels = np.array([s.label for s in scored])
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("degenerate labels: need at least one of each class")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum_pos = float(ranks[labels == 1].sum())
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


def compute_metrics(
    scored: list[ScoredStep], bins: int | None = None
) -> MetricsReport:
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
    hist = score_histogram(scored, bins=bins) if bins else None
    return MetricsReport(
        auc_roc=auc,
        step_accuracy=accuracy,
        flag_accuracy=flag_acc,
        n_steps=len(scored),
        n_trajectories=len({s.trajectory_id for s in scored}),
        n_excluded_trajectories=excluded,
        histogram=hist,
    )


@dataclass
class DistanceDiagnostics:
    inter: float
    intra: float
    n_normal: int
    n_error: int


EmbedStepFn = Callable[[str, str], np.ndarray]


def _step_embedder(embedder) -> EmbedStepFn:
    if isinstance(embedder, EmbedderSpec):
        return lambda role, output: embed_step(embedder, role, output)
    return embedder


def embedding_distance_diagnostics(
    trajectories: list[Trajectory],
    embedder: EmbedderSpec | EmbedStepFn,
    augment_nearest_neighbor: bool = False,
) -> DistanceDiagnostics:
    """Inter-class vs intra-class embedding distances for labeled steps.

    ``inter`` is the L2 distance between the mean normal and mean error step
    embeddings; ``intra`` is the mean L2 distance of normal step embeddings
    to the normal mean. With ``augment_nearest_neighbor`` each step embedding
    is concatenated with its nearest neighbor (L2) within the same trajectory
    before computing distances; a single-step trajectory pairs with itself.
    """
    embed = _step_embedder(embedder)
    normal, error = [], []
    for trajectory in trajectories:
        vecs = [embed(s.role, s.output) for s in trajectory.steps]
        if augment_nearest_neighbor:
            vecs = _augment_nn(vecs)
        for vec, step in zip(vecs, trajectory.steps):
            if step.label == 1:
                error.append(vec)
            elif step.label == 0:
                normal.append(vec)
    if not normal or not error:
        raise DataError("diagnostics need labeled steps of both classes")
    normal_arr = np.stack(normal)
    error_arr = np.stack(error)
    normal_mean = normal_arr.mean(axis=0)
    inter = float(np.linalg.norm(error_arr.mean(axis=0) - normal_mean))
    intra = float(np.mean(np.linalg.norm(normal_arr - normal_mean, axis=1)))
    return DistanceDiagnostics(
        inter=inter, intra=intra, n_normal=len(normal), n_error=len(error)
    )


def _augment_nn(vecs: list[np.ndarray]) -> list[np.ndarray]:
    if len(vecs) == 1:
        return [np.concatenate([vecs[0], vecs[0]])]
    arr = np.stack(vecs)
    out = []
    for i, v in enumerate(vecs):
        dists = np.linalg.norm(arr - v, axis=1)
        dists[i] = np.inf
        out.append(np.concatenate([v, vecs[int(np.argmin(dists))]]))
    return out
