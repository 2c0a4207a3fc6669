import numpy as np
import pytest

from masc.evaluation import (
    ScoredStep,
    auc_roc,
    compute_metrics,
    embedding_distance_diagnostics,
    localization_pairs,
    score_histogram,
    step_accuracy,
)
from masc.errors import DataError
from masc.trace import Step, Trajectory


def scored(values, labels, traj="t", flagged=None):
    return [
        ScoredStep(
            trajectory_id=traj,
            t=i + 1,
            score=float(v),
            label=int(l),
            flagged=None if flagged is None else flagged[i],
        )
        for i, (v, l) in enumerate(zip(values, labels))
    ]


def auc_pairwise_oracle(values, labels):
    pos = [v for v, l in zip(values, labels) if l == 1]
    neg = [v for v, l in zip(values, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc(scored([1, 1, 0, 0], [1, 1, 0, 0])) == 1.0

    def test_all_ties(self):
        assert auc_roc(scored([3, 3, 3, 3], [1, 0, 1, 0])) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.RandomState(0)
        for _ in range(20):
            n = int(rng.randint(10, 200))
            values = rng.randn(n).round(1)  # rounding forces ties
            labels = rng.randint(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            got = auc_roc(scored(values, labels))
            assert got == pytest.approx(auc_pairwise_oracle(values, labels), abs=1e-12)

    def test_single_class_is_degenerate(self):
        with pytest.raises(DataError, match="degenerate"):
            auc_roc(scored([1, 2], [1, 1]))

    def test_monotone_transform_invariance(self):
        rng = np.random.RandomState(1)
        values = rng.randn(100)
        labels = rng.randint(0, 2, size=100)
        labels[0], labels[1] = 0, 1
        base = auc_roc(scored(values, labels))
        assert auc_roc(scored(np.exp(values), labels)) == pytest.approx(base, abs=1e-12)
        assert auc_roc(scored(3 * values + 7, labels)) == pytest.approx(base, abs=1e-12)

    def test_negation_complement(self):
        rng = np.random.RandomState(2)
        values = rng.randn(80)
        labels = rng.randint(0, 2, size=80)
        labels[0], labels[1] = 0, 1
        assert auc_roc(scored(-values, labels)) == pytest.approx(
            1.0 - auc_roc(scored(values, labels)), abs=1e-12
        )


class TestStepAccuracy:
    def test_all_correct(self):
        assert step_accuracy([(1, 1)] * 5) == 1.0

    def test_all_off_by_one(self):
        assert step_accuracy([(2, 1), (3, 2), (4, 3)]) == 0.0

    def test_mixed_fraction(self):
        pairs = [(1, 1), (2, 2), (3, 3)] + [(9, 1)] * 5
        assert step_accuracy(pairs) == pytest.approx(3 / 8)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            step_accuracy([])

    def test_localization_excludes_non_single_error(self):
        rows = (
            scored([1, 5, 2], [0, 1, 0], traj="good")
            + scored([1, 2], [0, 0], traj="no-error")
            + scored([1, 2, 3], [1, 1, 0], traj="two-errors")
        )
        pairs, excluded = localization_pairs(rows)
        assert pairs == [(2, 2)]
        assert excluded == 2

    def test_argmax_positive_rescale_invariance(self):
        rows = scored([0.1, 0.9, 0.3], [0, 1, 0], traj="a")
        rescaled = scored([1.0, 9.0, 3.0], [0, 1, 0], traj="a")
        assert localization_pairs(rows)[0] == localization_pairs(rescaled)[0]

    def test_argmax_tie_takes_earliest(self):
        rows = scored([5, 5, 1], [0, 1, 0], traj="a")
        pairs, _ = localization_pairs(rows)
        assert pairs == [(1, 2)]


class TestScoreHistogram:
    def test_counts_sum_to_class_sizes(self):
        rows = scored([0.1, 0.2, 0.3, 0.9, 0.95], [0, 0, 0, 1, 1])
        hist = score_histogram(rows, bins=4)
        assert hist.normal_counts.sum() == 3
        assert hist.error_counts.sum() == 2

    def test_single_value_normals_occupy_one_bin(self):
        rows = scored([0.5, 0.5, 0.5, 2.0], [0, 0, 0, 1])
        hist = score_histogram(rows, bins=5)
        assert (hist.normal_counts > 0).sum() == 1
        assert hist.normal_counts.max() == 3

    def test_bimodal_modes_land_in_expected_bins(self):
        rng = np.random.RandomState(3)
        normal = rng.normal(0.0, 0.05, size=500)
        errors = rng.normal(1.0, 0.05, size=500)
        rows = scored(
            np.concatenate([normal, errors]),
            np.concatenate([np.zeros(500, int), np.ones(500, int)]),
        )
        hist = score_histogram(rows, bins=10)
        assert int(np.argmax(hist.normal_counts)) in (1, 2)
        assert int(np.argmax(hist.error_counts)) in (7, 8)

    def test_bins_precondition(self):
        with pytest.raises(DataError):
            score_histogram(scored([1, 2], [0, 1]), bins=1)

    def test_csv_shape(self):
        rows = scored([0.0, 1.0], [0, 1])
        text = score_histogram(rows, bins=2).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,normal_count,error_count"
        assert len(lines) == 3


class TestComputeMetrics:
    def test_bundle(self):
        rows = (
            scored([0.1, 0.9, 0.2], [0, 1, 0], traj="a", flagged=[False, True, False])
            + scored([0.2, 0.3, 0.8], [0, 0, 1], traj="b", flagged=[False, False, True])
        )
        report = compute_metrics(rows, bins=4)
        assert report.auc_roc == 1.0
        assert report.step_accuracy == 1.0
        assert report.flag_accuracy == 1.0
        assert report.n_steps == 6
        assert report.n_trajectories == 2
        assert report.histogram is not None
        payload = report.to_dict()
        assert payload["auc_roc"] == 1.0


def fixed_embedder(table):
    return lambda role, output: np.asarray(table[(role, output)], dtype=float)


class TestDistanceDiagnostics:
    def three_point_corpus(self):
        # hand-built: normals at (0,0) and (2,0); error at (3,4)
        table = {
            ("r", "n1"): [0.0, 0.0],
            ("r", "n2"): [2.0, 0.0],
            ("r", "e1"): [3.0, 4.0],
        }
        trajectory = Trajectory(
            id="t",
            query="q",
            steps=(Step("r", "n1", 0), Step("r", "n2", 0), Step("r", "e1", 1)),
        )
        return [trajectory], fixed_embedder(table)

    def test_hand_arithmetic(self):
        trajectories, embed = self.three_point_corpus()
        diag = embedding_distance_diagnostics(trajectories, embed)
        # normal mean (1,0); error mean (3,4); inter = sqrt(4+16)
        assert diag.inter == pytest.approx(np.sqrt(20.0), abs=1e-12)
        assert diag.intra == pytest.approx(1.0, abs=1e-12)

    def test_identical_class_means_give_zero_inter(self):
        table = {("r", "n"): [1.0, 1.0], ("r", "e"): [1.0, 1.0]}
        trajectory = Trajectory(
            id="t", query="q", steps=(Step("r", "n", 0), Step("r", "e", 1))
        )
        diag = embedding_distance_diagnostics([trajectory], fixed_embedder(table))
        assert diag.inter == 0.0

    def test_identical_normals_give_zero_intra(self):
        table = {("r", "n"): [1.0, 0.0], ("r", "e"): [0.0, 1.0]}
        trajectory = Trajectory(
            id="t", query="q",
            steps=(Step("r", "n", 0), Step("r", "n", 0), Step("r", "e", 1)),
        )
        diag = embedding_distance_diagnostics([trajectory], fixed_embedder(table))
        assert diag.intra == 0.0

    def test_missing_class_is_error(self):
        table = {("r", "n"): [1.0, 0.0]}
        trajectory = Trajectory(id="t", query="q", steps=(Step("r", "n", 0),))
        with pytest.raises(DataError):
            embedding_distance_diagnostics([trajectory], fixed_embedder(table))

    def test_nn_augmentation_doubles_dimension(self):
        trajectories, embed = self.three_point_corpus()
        plain = embedding_distance_diagnostics(trajectories, embed)
        augmented = embedding_distance_diagnostics(
            trajectories, embed, augment_nearest_neighbor=True
        )
        assert augmented.n_normal == plain.n_normal
        assert augmented.inter != pytest.approx(plain.inter)
