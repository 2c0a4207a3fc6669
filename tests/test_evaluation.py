from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tests.reference import auc_roc_reference


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


# Few distinct values, so most draws hold ties, and -0.0 beside 0.0.
_tied_scores = st.sampled_from([-0.0, 0.0, 0.5, -1.25, 1e-300, 3.0])
_any_scores = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(_tied_scores, _any_scores), st.sampled_from([0, 1])),
        min_size=2, max_size=60,
    ).filter(lambda rows: len({label for _, label in rows}) == 2)
)
def test_auc_roc_equals_the_tie_loop(rows):
    values, labels = zip(*rows)
    assert auc_roc(scored(values, labels)) == auc_roc_reference(values, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_roc_rejects_a_non_finite_score(bad):
    with pytest.raises(DataError, match="non-finite"):
        auc_roc(scored([0.1, bad, 0.3, 0.9], [0, 1, 0, 1]))


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
        report = compute_metrics(rows)
        assert report.auc_roc == 1.0
        assert report.step_accuracy == 1.0
        assert report.flag_accuracy == 1.0
        assert report.n_steps == 6
        assert report.n_trajectories == 2
        hist = score_histogram(rows, bins=4)
        assert (hist.normal_counts.sum(), hist.error_counts.sum()) == (4, 2)
        payload = asdict(report)
        assert payload["auc_roc"] == 1.0


def labeled_trajectory(labels, traj="t"):
    return Trajectory(
        id=traj, query="q",
        steps=tuple(Step("r", f"s{i}", label) for i, label in enumerate(labels)),
    )


class TestDistanceDiagnostics:
    def three_point_corpus(self):
        # hand-built: normals at (0,0) and (2,0); error at (3,4)
        rows = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 4.0]])
        return [labeled_trajectory([0, 0, 1])], [rows]

    def test_hand_arithmetic(self):
        diag, _ = embedding_distance_diagnostics(*self.three_point_corpus())
        # normal mean (1,0); error mean (3,4); inter = sqrt(4+16)
        assert diag.inter == pytest.approx(np.sqrt(20.0), abs=1e-12)
        assert diag.intra == pytest.approx(1.0, abs=1e-12)

    def test_identical_class_means_give_zero_inter(self):
        rows = np.array([[1.0, 1.0], [1.0, 1.0]])
        diag, _ = embedding_distance_diagnostics([labeled_trajectory([0, 1])], [rows])
        assert diag.inter == 0.0

    def test_identical_normals_give_zero_intra(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        diag, _ = embedding_distance_diagnostics(
            [labeled_trajectory([0, 0, 1])], [rows]
        )
        assert diag.intra == 0.0

    def test_missing_class_is_error(self):
        with pytest.raises(DataError):
            embedding_distance_diagnostics(
                [labeled_trajectory([0])], [np.array([[1.0, 0.0]])]
            )

    def test_nn_augmentation_doubles_dimension(self):
        plain, augmented = embedding_distance_diagnostics(*self.three_point_corpus())
        assert augmented.n_normal == plain.n_normal
        assert augmented.inter != pytest.approx(plain.inter)

    def test_nn_augmentation_by_hand(self):
        # nearest rows: 0 -> 1, 1 -> 0, 2 -> 1; the lone-step trajectory
        # pairs its row with itself
        trajectories, matrices = self.three_point_corpus()
        trajectories.append(labeled_trajectory([1], traj="lone"))
        matrices.append(np.array([[5.0, 5.0]]))
        _, augmented = embedding_distance_diagnostics(trajectories, matrices)
        normal = np.array([[0.0, 0.0, 2.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
        error = np.array([[3.0, 4.0, 2.0, 0.0], [5.0, 5.0, 5.0, 5.0]])
        mean = normal.mean(axis=0)
        assert augmented.inter == pytest.approx(
            np.linalg.norm(error.mean(axis=0) - mean), abs=1e-12
        )
        assert augmented.intra == pytest.approx(
            np.linalg.norm(normal - mean, axis=1).mean(), abs=1e-12
        )
        assert (augmented.n_normal, augmented.n_error) == (2, 2)

    def test_unlabeled_steps_are_left_out(self):
        rows = np.array([[0.0, 0.0], [9.0, 9.0], [2.0, 0.0], [3.0, 4.0]])
        diag, _ = embedding_distance_diagnostics(
            [labeled_trajectory([0, None, 0, 1])], [rows]
        )
        assert diag.inter == pytest.approx(np.sqrt(20.0), abs=1e-12)
        assert (diag.n_normal, diag.n_error) == (2, 1)

    @pytest.mark.parametrize("matrices", [
        [np.zeros((2, 2))],
        [np.zeros((3, 2)), np.zeros((3, 2))],
        [np.zeros(6)],
    ], ids=["too few rows", "too many matrices", "one-dimensional"])
    def test_row_count_mismatch_is_error(self, matrices):
        with pytest.raises(DataError):
            embedding_distance_diagnostics([labeled_trajectory([0, 0, 1])], matrices)
