"""Acceptance suite: one test per criterion, fixed seeds, pinned tolerances.

Everything runs in-process with the hashing embedder, the seeded frozen-mixer
backbone, and scripted agents. A summary line per criterion is printed at the
end of the pytest run (see conftest).
"""

import json
import math
import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from masc.checkpoint import load_checkpoint, save_checkpoint
from masc.cli import main
from masc.correction import apply_correction, parse_correction_response
from masc.detector import (
    BackboneSpec,
    DetectorModel,
    misalignment_loss,
    predictions_tensor,
    prototype_attention,
    reconstruction_loss,
    score_trajectory,
    trajectory_loss,
)
from masc.embedding import EmbedderSpec, embed_trajectory
from masc.evaluation import ScoredStep, auc_roc
from masc.experiment import ExperimentConfig, MascSettings, batch_experiment
from masc.fixtures import make_fixture, oracle_corrector, run_fixture
from masc.simulator import FaultSpec, MascHook, Topology
from masc.synthetic import make_anomaly_corpus, make_normal_corpus
from masc.trace import (
    Trajectory,
    is_early_step,
    parse_trajectory,
    save_trajectories,
    serialize_trajectory,
)
from masc.training import TrainConfig, calibrate_threshold, train
from tests import gradcheck as ad
from tests.conftest import CountingPolicy

CRITERIA = {
    "test_criterion_01_gradient_correctness":
        (1, "analytic gradients match central finite differences (rel err <= 1e-4)"),
    "test_criterion_02_loss_identities":
        (2, "loss identities and weighted-total decomposition to 1e-12"),
    "test_criterion_03_attention_invariants":
        (3, "attention weights on the simplex; singleton closed form exact"),
    "test_criterion_04_training_descent":
        (4, "loss descends over 10 epochs in >=95/100 seeds (hc profile)"),
    "test_criterion_05_detection_quality":
        (5, "AUC >= 0.90 on planted anomalies; prototype helps early subset"),
    "test_criterion_06_auc_oracle_equivalence":
        (6, "rank-based AUC equals O(n^2) pairwise oracle to 1e-12"),
    "test_criterion_07_score_distribution_separation":
        (7, "median error score above 99th percentile of normal calibration"),
    "test_criterion_08_correction_protocol":
        (8, "correction protocol conformance and zero-intervention equivalence"),
    "test_criterion_09_end_to_end_recovery":
        (9, "fault drop >= 30 pts; detector+oracle corrector recovers >= 80%"),
    "test_criterion_10_determinism_persistence":
        (10, "identical reruns and checkpoint roundtrip are bit-exact"),
}


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    # Parameters are drawn at unit-ish scale: the central-difference oracle's
    # truncation error scales with the loss's third derivatives, which blow up
    # when prediction norms are near zero (cosine curvature ~ 1/||x||^3).
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = random.Random(seed)
        d_e = rng.randint(2, 4)
        d_h = rng.randint(3, 6)
        T = rng.randint(1, 4)
        lam = (0.0, 0.2, 0.3, 1.0)[seed % 4]
        model = DetectorModel.init(
            EmbedderSpec(kind="hashing", dimension=d_e),
            d_h=d_h,
            backbone=BackboneSpec(hidden_dim=d_h, layers=2, seed=seed),
            seed=seed,
        )
        npr = np.random.RandomState(seed + 10_000)
        params = {k: npr.randn(*v.shape) * 0.6 for k, v in model.params.items()}
        q = npr.randn(d_e)
        steps = npr.randn(T, 2 * d_e)

        def loss_fn(p):
            # The objective from its forward terms, without the backward
            # pass that finite differences do not need.
            x_hats, _ = predictions_tensor(model, p, q, steps)
            p_new = prototype_attention(p, x_hats, model.d)[0]
            return reconstruction_loss(x_hats, steps) + lam * misalignment_loss(x_hats, p_new)[0]

        total, _, _, _, analytic = trajectory_loss(
            model, params, q, steps, lam, model.params.zeros_like()
        )
        assert total == loss_fn(params)
        numeric = ad.finite_diff(loss_fn, params, eps=1e-4)
        worst = max(worst, ad.max_relative_error(analytic, numeric))
    elapsed = time.monotonic() - start
    assert worst <= 1e-4, f"worst relative error {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_loss_identities():
    rng = np.random.RandomState(42)
    # The weighted-total check runs the full loss on a small model, with
    # inputs from a separate stream so the seed-42 draws stay as they were.
    model_rng = np.random.RandomState(43)
    for trial in range(200):
        T = int(rng.randint(1, 6))
        d = int(rng.randint(2, 10))
        x_hats = rng.randn(T, d)
        xs = rng.randn(T, d)
        p = rng.randn(d)
        lam = float(rng.uniform(0.0, 2.0))

        assert reconstruction_loss(xs.copy(), xs) == 0.0
        if np.any(x_hats != xs):
            assert reconstruction_loss(x_hats, xs) > 0.0

        aligned = np.stack([float(rng.uniform(0.1, 3.0)) * p for _ in range(T)])
        assert misalignment_loss(aligned, p)[0] == pytest.approx(0.0, abs=1e-12)
        assert misalignment_loss(x_hats, p)[0] >= 0.0

        d_e = max(1, d // 2)
        model = DetectorModel.init(
            EmbedderSpec(kind="hashing", dimension=d_e), d_h=4,
            backbone=BackboneSpec(hidden_dim=4, layers=1, seed=trial), seed=trial,
        )
        total, recon, proto, _, _ = trajectory_loss(
            model, model.params, model_rng.randn(d_e), model_rng.randn(T, 2 * d_e), lam,
            model.params.zeros_like(),
        )
        assert total == pytest.approx(recon + lam * proto, abs=1e-12)


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_03_attention_invariants():
    rng = np.random.RandomState(7)
    for trial in range(50):
        d = int(rng.randint(2, 9))
        T = int(rng.randint(1, 7))
        x_hats = rng.randn(T, d)
        p, wq, wk = rng.randn(d), rng.randn(d, d), rng.randn(d, d)
        params = {"p": p, "wq": wq, "wk": wk, "wv": np.eye(d)}
        weights = prototype_attention(params, x_hats, d)[1]
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert np.all(weights > 0.0)

    # singleton closed form, exact equality
    model = DetectorModel.init(
        EmbedderSpec(kind="hashing", dimension=3), d_h=4,
        backbone=BackboneSpec(hidden_dim=4, layers=1, seed=0), seed=0,
    )
    for trial in range(20):
        x1 = np.random.RandomState(trial).randn(6)
        assert np.array_equal(
            prototype_attention(model.params, x1[None, :], model.d)[0],
            x1 @ model.params["wv"],
        )


# -- criterion 4 ---------------------------------------------------------------

_C4_TRAJECTORIES: list[Trajectory] = []


def _c4_init(blob: bytes):
    global _C4_TRAJECTORIES
    _C4_TRAJECTORIES = [
        parse_trajectory(line) for line in blob.splitlines() if line.strip()
    ]


def _c4_run(seed: int) -> tuple[float, float]:
    # hc profile: 10 epochs, lr 1e-4, weight decay 0, hidden 384, lambda 0.2.
    # Backbone depth is not part of the profile; one mixer block keeps the
    # 100-seed sweep inside the runtime budget.
    cfg = TrainConfig(
        epochs=10, lr=1e-4, weight_decay=0.0, lam=0.2, seed=seed, d_h=384,
        embedder=EmbedderSpec(kind="hashing", dimension=16),
        backbone=BackboneSpec(hidden_dim=384, layers=1, seed=seed),
    )
    _, report = train(cfg, _C4_TRAJECTORIES)
    return report.epochs[0].mean_total, report.epochs[-1].mean_total


def test_criterion_04_training_descent():
    start = time.monotonic()
    corpus = make_normal_corpus(100, seed=4000, T=6)
    blob = b"".join(serialize_trajectory(t) for t in corpus)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=2, mp_context=context, initializer=_c4_init, initargs=(blob,)
    ) as pool:
        results = list(pool.map(_c4_run, range(100)))
    descended = sum(1 for first, last in results if first > last)
    elapsed = time.monotonic() - start
    assert descended >= 95, f"descended in only {descended}/100 seeds"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


# -- criteria 5 and 7 share one trained pipeline -------------------------------

C5_SEED = 1


@pytest.fixture(scope="module")
def detection_quality_runs():
    embedder = EmbedderSpec(kind="hashing", dimension=32)
    backbone = BackboneSpec(hidden_dim=64, layers=2, seed=C5_SEED)
    train_set = make_normal_corpus(100, seed=C5_SEED + 1000, T=6)
    test_set = make_anomaly_corpus(100, seed=C5_SEED + 2000, T=6, early_fraction=0.5)

    def fit(lam):
        cfg = TrainConfig(
            epochs=5, lr=1e-3, lam=lam, seed=C5_SEED, d_h=64,
            embedder=embedder, backbone=backbone,
        )
        return train(cfg, train_set)[0]

    full = fit(0.2)
    ablated = fit(0.0)  # prototype mechanism removed: lambda = 0, scored beta = 0

    def collect(model, alpha, beta):
        rows = []
        for trajectory in test_set:
            q_vec, step_embs = embed_trajectory(embedder, trajectory)
            verdicts = score_trajectory(model, q_vec, step_embs, alpha, beta)
            planted = trajectory.labeled_steps[0]
            early = is_early_step(planted, len(trajectory))
            for v, s in zip(verdicts, trajectory.steps):
                rows.append(
                    (ScoredStep(trajectory.id, v.t, v.score, s.label), early)
                )
        return rows

    return {
        "full_model": full,
        "embedder": embedder,
        "rows_full": collect(full, 1.0, 1.0),
        "rows_ablated": collect(ablated, 1.0, 0.0),
    }


def test_criterion_05_detection_quality(detection_quality_runs):
    start = time.monotonic()
    rows_full = detection_quality_runs["rows_full"]
    rows_ablated = detection_quality_runs["rows_ablated"]
    auc_all = auc_roc([r for r, _ in rows_full])
    assert auc_all >= 0.90, f"AUC {auc_all:.4f}"
    early_full = auc_roc([r for r, early in rows_full if early])
    early_ablated = auc_roc([r for r, early in rows_ablated if early])
    assert early_full >= early_ablated, (
        f"prototype ablation direction violated: {early_full:.6f} < "
        f"{early_ablated:.6f}"
    )
    assert time.monotonic() - start < 180.0


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_06_auc_oracle_equivalence():
    rng = np.random.RandomState(6)
    for _ in range(50):
        n = int(rng.randint(4, 301))
        scores = rng.randn(n).round(1)  # rounding to force ties
        labels = rng.randint(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        rows = [
            ScoredStep("t", i + 1, float(s), int(l))
            for i, (s, l) in enumerate(zip(scores, labels))
        ]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        oracle = (
            (pos[:, None] > neg[None, :]).sum()
            + 0.5 * (pos[:, None] == neg[None, :]).sum()
        ) / (len(pos) * len(neg))
        assert auc_roc(rows) == pytest.approx(float(oracle), abs=1e-12)


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_07_score_distribution_separation(detection_quality_runs):
    model = detection_quality_runs["full_model"]
    calibration_set = make_normal_corpus(
        50, seed=C5_SEED + 3000, T=6, prefix="calib"
    )
    calibration = calibrate_threshold(model, calibration_set, 0.99, 1.0, 1.0)
    error_scores = [
        r.score for r, _ in detection_quality_runs["rows_full"] if r.label == 1
    ]
    median_error = float(np.median(error_scores))
    assert median_error > calibration.delta, (
        f"median error score {median_error:.4f} <= q99 {calibration.delta:.4f}"
    )


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_08_correction_protocol():
    # forcing rule: "No" pins the original output
    forced = parse_correction_response(
        '{"correction_needed": "No", "final_response": "replacement"}', "original"
    )
    assert forced.final_response == "original"
    # malformed reply falls back without corrupting the trajectory
    fallback = parse_correction_response("*** not json ***", "original")
    assert fallback.final_response == "original"
    assert fallback.protocol_violation

    # gating: the corrector is invoked exactly once per flagged step
    from masc.detector import AnomalyVerdict
    from masc.correction import CorrectionRequest

    policy = CountingPolicy(
        lambda _req, _prompt: '{"correction_needed": "No", "final_response": ""}'
    )
    flags = [True, False, True, False, False, True, True]
    for i, flagged in enumerate(flags):
        verdict = AnomalyVerdict(
            score=2.0 if flagged else 0.1, recon_term=1.0, proto_term=1.0,
            alpha=1.0, beta=1.0, delta=1.0, flagged=flagged, t=i + 1,
        )
        apply_correction(
            policy, verdict,
            CorrectionRequest(role="r", query="q", history=(), flagged_output="o"),
        )
    assert policy.calls == sum(flags)

    # zero-intervention equivalence at delta = +inf, byte-exact
    fixture = make_fixture(3, seed=8)
    topology = Topology("chain", 3)
    fault = FaultSpec(target_agent=1, seed=8)
    plain = run_fixture(fixture, topology, fault=fault)
    embedder = EmbedderSpec(kind="hashing", dimension=16)
    model = DetectorModel.init(
        embedder, d_h=16, backbone=BackboneSpec(hidden_dim=16, layers=2, seed=0),
        seed=0,
    )
    oracle = oracle_corrector([s.output for s in plain.trajectory.steps])
    hook = MascHook(
        model=model, alpha=1.0, beta=1.0, delta=math.inf, policy=CountingPolicy(oracle.reply)
    )
    gated = run_fixture(fixture, topology, fault=fault, masc=hook)
    assert serialize_trajectory(gated.trajectory) == serialize_trajectory(
        plain.trajectory
    )
    assert gated.interventions == 0
    assert hook.policy.calls == 0


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_09_end_to_end_recovery():
    start = time.monotonic()
    config = ExperimentConfig(
        topologies=("chain", "complete", "random"),
        n_fixtures=50,
        seed=0,
        fault=FaultSpec(target_agent=1, step_selector="uniform"),
        masc=MascSettings(epochs=150, lr=3e-3, lam=0.2, d_e=64, d_h=256,
                          quantile=0.99),
    )
    report = batch_experiment(config)
    for kind in config.topologies:
        deltas = report.deltas[kind]
        drop = deltas["fault_drop"]
        assert drop >= 0.30, f"{kind}: fault drop only {drop:.2f}"
        recovered_fraction = deltas["masc_recovery"] / drop
        assert recovered_fraction >= 0.80, (
            f"{kind}: recovered only {recovered_fraction:.1%} of lost accuracy"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_determinism_persistence(tmp_path):
    corpus_path = str(tmp_path / "train.jsonl")
    save_trajectories(corpus_path, make_normal_corpus(15, seed=10, T=4))
    flags = ["--epochs", "4", "--lr", "1e-3", "--hidden", "24", "--dim", "16",
             "--seed", "9"]

    digests, csvs = [], []
    for tag in ("a", "b"):
        ckpt = str(tmp_path / f"{tag}.ckpt")
        report_path = str(tmp_path / f"{tag}.json")
        assert main(["train", "--traces", corpus_path, "--checkpoint", ckpt,
                     "--report", report_path] + flags) == 0
        assert main(["calibrate", "--checkpoint", ckpt, "--traces", corpus_path,
                     "--quantile", "0.99"]) == 0
        csv_path = str(tmp_path / f"{tag}.csv")
        assert main(["score", "--checkpoint", ckpt, "--traces", corpus_path,
                     "--out", csv_path]) == 0
        digests.append(json.loads(open(report_path).read())["checkpoint_digest"])
        csvs.append(open(csv_path, "rb").read())
    assert digests[0] == digests[1]
    assert csvs[0] == csvs[1]

    # checkpoint roundtrip preserves every verdict bit-exactly
    model, calibration = load_checkpoint(str(tmp_path / "a.ckpt"))
    clone_path = str(tmp_path / "clone.ckpt")
    save_checkpoint(model, calibration, clone_path)
    clone, clone_cal = load_checkpoint(clone_path)
    rng = np.random.RandomState(0)
    for _ in range(10):
        q = rng.randn(model.d_e)
        steps = [rng.randn(model.d) for _ in range(4)]
        for t in range(1, 5):
            a = score_trajectory(model, q, steps[:t], 1.0, 1.0, calibration.delta)[-1]
            b = score_trajectory(clone, q, steps[:t], 1.0, 1.0, clone_cal.delta)[-1]
            assert a.score == b.score
            assert a.recon_term == b.recon_term
            assert a.proto_term == b.proto_term
            assert a.flagged == b.flagged
