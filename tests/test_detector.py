import copy
import dataclasses
import gc
import hashlib
import logging
import math
import pickle
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masc import detector
from masc.detector import (
    CHUNK_ROWS,
    PARAM_ORDER,
    AnomalyVerdict,
    BackboneSpec,
    DetectorModel,
    DetectorStream,
    FlatParams,
    FrozenMixer,
    _verdicts,
    misalignment_loss,
    predictions_tensor,
    projected_sequence,
    prototype_attention,
    reconstruction_loss,
    score_corpus,
    score_trajectory,
    trajectory_loss,
)
from masc.embedding import EmbedderSpec, embed_trajectories, embed_trajectory
from masc.errors import ConfigError, DataError, DivergenceError, TransportError
from masc.synthetic import make_normal_corpus, make_normal_trajectory, plant_anomaly
from masc.training import TrainConfig, calibrate_threshold, train
from tests.conftest import MALFORMED_REPLIES, SMALL_EMBEDDER, traced_peak, views_tile
from tests.reference import verdicts_reference

EMB4 = EmbedderSpec(kind="hashing", dimension=4)


def tiny_model(seed=0, d_e=4, d_h=6):
    emb = EmbedderSpec(kind="hashing", dimension=d_e)
    return DetectorModel.init(
        emb, d_h=d_h, backbone=BackboneSpec(hidden_dim=d_h, layers=2, seed=seed),
        seed=seed,
    )


class TestEncodeContext:
    """The f_q/f_h projections that encode the context, and input checks."""

    def test_empty_history(self):
        model = tiny_model()
        seq = projected_sequence(model.params, np.zeros(4), np.zeros((0, 8)))
        assert seq.shape == (1, 6)

    def test_zero_query_returns_bias(self):
        model = tiny_model()
        model.params["fq_b"][...] = np.arange(6.0)
        seq = projected_sequence(model.params, np.zeros(4), np.zeros((0, 8)))
        assert np.array_equal(seq[0], np.arange(6.0))

    def test_matches_composed_linear_ops(self):
        model = tiny_model(seed=5)
        rng = np.random.RandomState(5)
        q, h = rng.randn(4), rng.randn(2, 8)
        seq = projected_sequence(model.params, q, h)
        assert np.allclose(
            seq[0], model.params["fq_w"] @ q + model.params["fq_b"], atol=1e-15
        )
        for got, raw in zip(seq[1:], h):
            expected = model.params["fh_w"] @ raw + model.params["fh_b"]
            assert np.allclose(got, expected, atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["query", "step"])
    def test_a_non_finite_input_is_a_data_error(self, bad, where):
        # Left unchecked, a NaN makes every later score NaN, and NaN > delta
        # is False: detection would switch itself off without a word.
        model = tiny_model()
        q, steps = np.zeros(4), np.ones((3, 8))
        (q if where == "query" else steps[1])[2] = bad
        with pytest.raises(DataError, match="NaN or infinite"):
            score_trajectory(model, q, steps, 1.0, 1.0)
        with pytest.raises(DataError, match="NaN or infinite"):
            score_trajectory(model, q, list(steps), 1.0, 1.0)
        if where == "query":  # a stream checks its query once, when it opens
            with pytest.raises(DataError, match="NaN or infinite"):
                DetectorStream(model, q)

    def test_dimension_mismatch_is_fatal(self):
        model = tiny_model()
        bad_inputs = [
            (np.zeros(5), [np.zeros(8)]),
            (np.zeros(4), [np.zeros(7)]),
            (np.zeros(4), [np.zeros(8), np.zeros(7)]),
            (np.zeros(4), np.zeros((2, 7))),
        ]
        for q, steps in bad_inputs:
            with pytest.raises(ConfigError):
                score_trajectory(model, q, steps, 1.0, 1.0)
            with pytest.raises(ConfigError):
                stream = DetectorStream(model, q)
                for step in steps:
                    stream.score(step, 1.0, 1.0, 1.0)
                    stream.commit(step)


class TestPredictNext:
    def test_empty_history_is_well_defined(self):
        model = tiny_model()
        x_hats, _ = predictions_tensor(model, model.params, np.ones(4), np.zeros((1, 8)))
        assert x_hats.shape == (1, 8)
        assert np.all(np.isfinite(x_hats))

    def test_deterministic_across_fresh_models(self):
        rng = np.random.RandomState(0)
        q, steps = rng.randn(4), rng.randn(4, 8)
        outs = []
        for _ in range(2):
            model = tiny_model(seed=9)
            outs.append(predictions_tensor(model, model.params, q, steps)[0])
        assert np.array_equal(outs[0], outs[1])

    def test_history_order_sensitivity(self):
        model = tiny_model(seed=1)
        rng = np.random.RandomState(1)
        q = rng.randn(4)
        steps = rng.randn(4, 8)
        forward = predictions_tensor(model, model.params, q, steps)[0][-1]
        permuted = predictions_tensor(model, model.params, q, steps[[1, 0, 2, 3]])[0][-1]
        assert not np.array_equal(forward, permuted)


def one_verdict(model, x_hat, x, alpha, beta):
    """The verdict on one step, unthresholded (delta = inf)."""
    p = model.params["p"]
    return _verdicts(
        x_hat[None, :], x[None, :], p, float(np.linalg.norm(p)), alpha, beta, math.inf, 1
    )[0]


class TestUpdatePrototype:
    def test_singleton_closed_form_exact(self):
        model = tiny_model(seed=2)
        x1 = np.random.RandomState(2).randn(8)
        p_new = prototype_attention(model.params, x1[None, :], model.d)[0]
        assert np.array_equal(p_new, x1 @ model.params["wv"])

    def test_identical_rows_ignore_prototype(self):
        model = tiny_model(seed=3)
        row = np.random.RandomState(3).randn(8)
        rows = np.tile(row, (4, 1))
        expected = row @ model.params["wv"]
        p_new = prototype_attention(model.params, rows, model.d)[0]
        assert np.allclose(p_new, expected, atol=1e-12)
        model.params["p"][...] = np.random.RandomState(99).randn(8)
        p_new = prototype_attention(model.params, rows, model.d)[0]
        assert np.allclose(p_new, expected, atol=1e-12)

    def test_matches_attention_oracle(self):
        model = tiny_model(seed=4)
        rows = np.random.RandomState(4).randn(3, 8)
        got = prototype_attention(model.params, rows, model.d)[0]
        prm = model.params
        scores = [float((r @ prm["wk"]) @ (prm["p"] @ prm["wq"])) / math.sqrt(8) for r in rows]
        weights = [math.exp(s - max(scores)) for s in scores]
        oracle = sum(w * (r @ prm["wv"]) for w, r in zip(weights, rows)) / sum(weights)
        assert np.allclose(got, oracle, rtol=1e-12, atol=1e-14)

    def test_empty_rejected(self):
        model = tiny_model()
        with pytest.raises(DataError, match="empty"):
            prototype_attention(model.params, np.zeros((0, 8)), model.d)


class TestLosses:
    def test_recon_zero_iff_exact(self):
        rng = np.random.RandomState(0)
        xs = rng.randn(3, 6)
        assert reconstruction_loss(xs.copy(), xs) == 0.0
        bumped = xs.copy()
        bumped[1][0] += 1e-6
        assert reconstruction_loss(bumped, xs) > 0.0

    def test_recon_all_ones_difference(self):
        d = 7
        got = reconstruction_loss(np.ones((1, d)), np.zeros((1, d)))
        assert got == pytest.approx(d, abs=1e-12)

    def test_recon_matches_scalar_loop_oracle(self):
        rng = np.random.RandomState(1)
        x_hats = rng.randn(2, 5)
        xs = rng.randn(2, 5)
        oracle = 0.0
        for a, b in zip(x_hats, xs):
            for i in range(5):
                oracle += (a[i] - b[i]) ** 2
        oracle /= 2
        assert reconstruction_loss(x_hats, xs) == pytest.approx(oracle, abs=1e-12)

    def test_proto_aligned_is_zero(self):
        p = np.array([1.0, 2.0, 3.0])
        loss = misalignment_loss(np.stack([2 * p, 0.5 * p]), p)[0]
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_proto_antipodal_is_two(self):
        p = np.array([1.0, -1.0, 0.5])
        loss = misalignment_loss(np.stack([-p, -3 * p]), p)[0]
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_proto_orthogonal_is_one(self):
        p = np.array([1.0, 0.0])
        assert misalignment_loss(np.array([[0.0, 5.0]]), p)[0] == pytest.approx(1.0, abs=1e-12)

    def test_proto_zero_norm_prediction_counts_one_and_warns(self, caplog):
        # The training loss counts it as cos 0 silently; the per-step score
        # does the same and logs a warning.
        p = np.array([1.0, 0.0])
        assert misalignment_loss(np.zeros((1, 2)), p)[0] == pytest.approx(1.0)
        model = tiny_model()
        with caplog.at_level(logging.WARNING):
            verdict = one_verdict(model, np.zeros(8), np.ones(8), 1.0, 1.0)
        assert verdict.proto_term == 1.0
        assert any("zero-norm" in r.message for r in caplog.records)

    def test_total_lambda_zero_equals_recon(self):
        model = tiny_model(seed=2)
        rng = np.random.RandomState(2)
        total, recon, _, _, _ = trajectory_loss(
            model, model.params, rng.randn(4), rng.randn(3, 8), 0.0, model.params.zeros_like()
        )
        assert total == recon

    def test_total_is_weighted_sum(self):
        model = tiny_model(seed=3)
        rng = np.random.RandomState(3)
        for lam in (0.2, 0.3, 1.7):
            total, recon, proto, _, _ = trajectory_loss(
                model, model.params, rng.randn(4), rng.randn(3, 8), lam,
                model.params.zeros_like(),
            )
            assert total == pytest.approx(recon + lam * proto, abs=1e-12)


class TestAnomalyScore:
    def test_perfect_prediction_scores_zero(self):
        model = tiny_model()
        p = model.params["p"]
        v = one_verdict(model, p, p, alpha=1.0, beta=1.0)
        assert v.score == pytest.approx(0.0, abs=1e-12)

    def test_pure_recon_analytic(self):
        model = tiny_model()
        x = np.zeros(8)
        x_hat = np.zeros(8)
        x_hat[0] = 2.0
        v = one_verdict(model, x_hat, x, alpha=1.0, beta=0.0)
        assert v.recon_term == pytest.approx(4.0, abs=1e-15)
        assert v.score == pytest.approx(4.0, abs=1e-15)

    def test_matches_direct_formula(self):
        model = tiny_model(seed=8)
        rng = np.random.RandomState(8)
        x_hat, x = rng.randn(8), rng.randn(8)
        p = model.params["p"]
        v = one_verdict(model, x_hat, x, alpha=0.5, beta=0.5)
        cos = (x_hat @ p) / (np.linalg.norm(x_hat) * np.linalg.norm(p))
        oracle = 0.5 * float(np.sum((x_hat - x) ** 2)) + 0.5 * (1.0 - cos)
        assert v.score == pytest.approx(oracle, abs=1e-12)

    def test_score_decomposition_is_exact(self):
        model = tiny_model(seed=9)
        rng = np.random.RandomState(9)
        for _ in range(20):
            a, b = float(rng.uniform(0, 2)), float(rng.uniform(0, 2)) + 1e-3
            v = one_verdict(model, rng.randn(8), rng.randn(8), a, b)
            assert v.score == a * v.recon_term + b * v.proto_term

    def test_monotone_in_alpha_and_beta(self):
        model = tiny_model(seed=10)
        rng = np.random.RandomState(10)
        x_hat, x = rng.randn(8), rng.randn(8)
        base = one_verdict(model, x_hat, x, 1.0, 1.0).score
        assert one_verdict(model, x_hat, x, 2.0, 1.0).score >= base
        assert one_verdict(model, x_hat, x, 1.0, 2.0).score >= base

    def test_proto_term_scale_invariant_recon_not(self):
        model = tiny_model(seed=11)
        rng = np.random.RandomState(11)
        x_hat, x = rng.randn(8), rng.randn(8)
        v1 = one_verdict(model, x_hat, x, 1.0, 1.0)
        v2 = one_verdict(model, 3.0 * x_hat, x, 1.0, 1.0)
        assert v2.proto_term == pytest.approx(v1.proto_term, abs=1e-12)
        assert v2.recon_term != pytest.approx(v1.recon_term)
        model.params["p"][...] = 7.0 * model.params["p"]
        v3 = one_verdict(model, x_hat, x, 1.0, 1.0)
        assert v3.proto_term == pytest.approx(v1.proto_term, abs=1e-12)

    def test_invalid_weights(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            one_verdict(model, np.ones(8), np.ones(8), 0.0, 0.0)
        with pytest.raises(ConfigError):
            one_verdict(model, np.ones(8), np.ones(8), -1.0, 1.0)


def embedded(trajectory, spec=SMALL_EMBEDDER):
    return embed_trajectory(spec, trajectory)


class TestDetect:
    def test_infinite_delta_never_flags(self, small_trained):
        model, _, corpus = small_trained
        q, se = embedded(corpus[0])
        for t in range(1, len(se) + 1):
            assert score_trajectory(model, q, se[:t], 1.0, 1.0, math.inf)[-1].flagged is False

    def test_negative_delta_always_flags(self, small_trained):
        model, _, corpus = small_trained
        q, se = embedded(corpus[0])
        for t in range(1, len(se) + 1):
            v = score_trajectory(model, q, se[:t], 1.0, 1.0, -1.0)[-1]
            assert v.flagged is True
            assert v.score >= 0.0

    def test_first_step_operability(self, small_trained):
        model, _, corpus = small_trained
        q, se = embedded(corpus[0])
        v = score_trajectory(model, q, se[:1], 1.0, 1.0, math.inf)[-1]
        assert np.isfinite(v.score)

    def test_causality_by_truncation(self, small_trained):
        # Step t's verdict reads no later step: rewriting the steps after t
        # leaves it unchanged bit for bit. (A pass over the cut trajectory
        # agrees only to rounding; see test_detect_agrees_with_score_trajectory.)
        model, _, corpus = small_trained
        q, se = embedded(corpus[1])
        rng = np.random.RandomState(1)
        full = score_trajectory(model, q, se, 1.0, 1.0, 0.5)
        for t in range(1, len(se) + 1):
            rewritten = se.copy()
            rewritten[t:] = rng.randn(len(se) - t, model.d)
            verdict = score_trajectory(model, q, rewritten, 1.0, 1.0, 0.5)[t - 1]
            assert full[t - 1].score == verdict.score
            assert full[t - 1].flagged == verdict.flagged

    def test_score_trajectory_equals_per_step_detect(self, small_trained):
        model, _, corpus = small_trained
        q, se = embedded(corpus[2])
        batch = score_trajectory(model, q, se, 1.0, 1.0, 0.9)
        for t, v in enumerate(batch, start=1):
            single = score_trajectory(model, q, se[:t], 1.0, 1.0, 0.9)[-1]
            assert v.score == single.score
            assert v.recon_term == single.recon_term
            assert v.proto_term == single.proto_term

    SETTING = st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 1e308]),
        st.floats(),
    )

    @settings(max_examples=300, deadline=None)
    @given(alpha=SETTING, beta=SETTING, delta=SETTING)
    def test_settings_raise_or_give_finite_scores_and_sound_flags(self, alpha, beta, delta):
        # A NaN or infinite weight, or a NaN delta, would make score > delta
        # false at every step, switching detection off without an error. A
        # weight the rule accepts can still overflow a score; that raises
        # where the score is made.
        model = tiny_model(seed=3)
        rng = np.random.RandomState(3)
        q, steps = rng.randn(4), rng.randn(3, 8)
        valid = (
            math.isfinite(alpha) and math.isfinite(beta)
            and min(alpha, beta) >= 0 and max(alpha, beta) > 0 and not math.isnan(delta)
        )
        stream = DetectorStream(model, q)
        for scorer in (
            lambda a, b, d: score_trajectory(model, q, steps, a, b, d),
            lambda a, b, d: [stream.score(steps[0], a, b, d)],
        ):
            if not valid:
                with pytest.raises(ConfigError):
                    scorer(alpha, beta, delta)
                continue
            # The terms do not depend on the weights: score once at (1, 1).
            terms = [(v.recon_term, v.proto_term) for v in scorer(1.0, 1.0, 0.0)]
            if not all(math.isfinite(alpha * r + beta * p) for r, p in terms):
                with pytest.raises(DivergenceError, match="not finite"):
                    scorer(alpha, beta, delta)
                continue
            for v in scorer(alpha, beta, delta):
                assert math.isfinite(v.score)
                assert v.flagged == (v.score > delta)

    def test_planted_anomaly_flagged_exactly_at_planted_step(self, small_trained):
        model, _, corpus = small_trained
        calibration = calibrate_threshold(model, corpus, 0.99, 1.0, 1.0)
        rng = random.Random(99)
        planted_at = 3
        trajectory = plant_anomaly(
            make_normal_trajectory("probe", rng, T=5, labeled=True), planted_at, rng
        )
        q, se = embedded(trajectory)
        verdicts = score_trajectory(model, q, se, 1.0, 1.0, calibration.delta)
        assert [v.t for v in verdicts if v.flagged] == [planted_at]


class TestFrozenBackbone:
    def test_backbone_params_not_trainable(self):
        assert not any(name.startswith("mixer") for name in PARAM_ORDER)

    def test_backbone_identical_before_and_after_training(self, small_trained):
        model, _, _ = small_trained
        fresh = FrozenMixer(model.backbone, model.d_h)
        for a, b in zip(model.encoder().matrices_t, fresh.matrices_t):
            assert a.tobytes() == b.tobytes()

    def test_seeded_regeneration_is_exact(self):
        spec = BackboneSpec(hidden_dim=12, layers=3, seed=77)
        a, b = FrozenMixer(spec, 12), FrozenMixer(spec, 12)
        for ma, mb in zip(a.matrices_t, b.matrices_t):
            assert np.array_equal(ma, mb)

    def test_models_with_one_spec_share_one_mixer(self):
        spec = BackboneSpec(hidden_dim=10, layers=2, seed=78)
        a = DetectorModel.init(EMB4, d_h=10, backbone=spec, seed=1)
        b = DetectorModel.init(EMB4, d_h=10, backbone=spec, seed=2)
        assert a.encoder() is b.encoder()
        other = DetectorModel.init(EMB4, d_h=10, backbone=dataclasses.replace(spec, seed=79))
        assert other.encoder() is not a.encoder()
        fresh = FrozenMixer(spec, 10)
        for shared, own in zip(a.encoder().matrices_t, fresh.matrices_t):
            assert shared.tobytes() == own.tobytes()

    def test_a_mixer_no_model_holds_is_freed(self):
        spec = BackboneSpec(hidden_dim=10, layers=2, seed=80)
        ref = weakref.ref(DetectorModel.init(EMB4, d_h=10, backbone=spec).encoder())
        gc.collect()
        assert ref() is None


def test_a_model_without_projection_rows_is_a_config_error():
    # d_h 0 would otherwise end in a ZeroDivisionError when the mixer is built.
    # Both values are checked before the first draw: a negative d_h would end
    # in numpy's reshape error, a float d_h in a TypeError and a negative
    # seed in numpy's seed error.
    backbone = BackboneSpec(hidden_dim=8)
    for d_h in (0, -1, 2.5):
        with pytest.raises(ConfigError, match="d_h"):
            DetectorModel.init(EMB4, d_h=d_h, backbone=backbone)
    with pytest.raises(ConfigError, match="seed"):
        DetectorModel.init(EMB4, d_h=8, backbone=backbone, seed=-1)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 24),
    h=st.integers(1, 24),
    layers=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1e-3, 1.0, 37.0]),
    sparse=st.booleans(),
)
def test_one_row_continuation_equals_the_full_pass(n, k, h, layers, seed, scale, sparse):
    # A stream's pass: one committed row at a time, f_h folded into block 1.
    # After each commit every block's output row must equal the full pass's
    # last row over the committed prefix, to rounding (the ratio of the
    # largest difference to the largest entry). Here the mixer's input
    # width k (d_h) differs from its hidden width h. Block 1 reads only the
    # fold rows of a step's nonzero entries: sparse steps keep 0 to 8 of 8.
    model = DetectorModel.init(
        EMB4, d_h=k, backbone=BackboneSpec(hidden_dim=h, layers=layers, seed=seed),
        seed=seed,
    )
    rng = np.random.RandomState(seed)
    q, steps = rng.randn(4), scale * rng.randn(n, 8)
    if sparse:
        for row in steps:
            row[rng.permutation(8)[rng.randint(9):]] = 0.0
    full = model.encoder().run(projected_sequence(model.params, q, steps))
    stream = DetectorStream(model, q)
    for i in range(n + 1):
        if i:
            stream.commit(steps[i - 1])
        for (_, _, _, out), rows in zip(stream._stream._blocks, full, strict=True):
            assert out.shape == (h,)
            error = np.max(np.abs(out - rows[i])) / np.max(np.abs(rows[i]))
            assert error <= 1e-12


@pytest.mark.parametrize("n", [0, 2, 3])
def test_a_prefix_is_continued_by_one_row_only(n):
    stream = DetectorStream(tiny_model(), np.zeros(4))
    with pytest.raises(ConfigError):
        stream.commit(np.ones((n, 8)))
    assert stream.score(np.zeros(8), 1.0, 1.0, 1.0).t == 1  # nothing committed


def remote_spec(endpoint):
    return BackboneSpec(kind="remote_llm", hidden_dim=6, endpoint=endpoint,
                        model_name="llm")


# Recorded with the remote path's per-prefix /encode calls on the stub service;
# the batched pass and the stream gave the same score bits.
REMOTE_DIGEST = "feee188c93c3743735b348190e44242e5608a9751d13751564128db37d16da1c"
REMOTE_SCORES = ["0x1.ddde806c984bep+0", "0x1.42a66ab51b428p+1", "0x1.63b30eafafcc6p+1"]


class TestRemoteBackbone:
    def test_predict_next_via_stub(self, stub_service):
        with stub_service(vector_dim=6) as stub:
            model = DetectorModel.init(EMB4, d_h=6, backbone=remote_spec(stub.endpoint))
            rng = np.random.RandomState(0)
            verdicts = score_trajectory(model, rng.randn(4), rng.randn(2, 8), 1.0, 1.0)
            assert [v.t for v in verdicts] == [1, 2]
            assert all(np.isfinite(v.score) for v in verdicts)
            assert stub.requests[0]["path"].endswith("/encode")

    @pytest.mark.parametrize(
        "raw", [
            *MALFORMED_REPLIES.values(), b'{"vector": "abc"}',
            b'{"vector": [0, 0, NaN, 0, 0, 0]}', b'{"vector": [0, 0, 0, 0, 0, -Infinity]}',
        ],
        ids=[*MALFORMED_REPLIES, "vector not numeric", "NaN", "Infinity"],
    )
    def test_malformed_reply_is_transport_error(self, stub_service, raw):
        with stub_service(raw=raw) as stub:
            model = DetectorModel.init(EMB4, d_h=6, backbone=remote_spec(stub.endpoint))
            rng = np.random.RandomState(0)
            with pytest.raises(TransportError, match="malformed reply"):
                score_trajectory(model, rng.randn(4), rng.randn(2, 8), 1.0, 1.0)
            assert len(stub.requests) == 3

    def test_training_leaves_projections_untouched(self, stub_service):
        # The service's states carry no gradient, so f_q and f_h keep their
        # initial values while the head trains.
        with stub_service(vector_dim=6) as stub:
            cfg = TrainConfig(epochs=1, lr=1e-2, seed=4, d_h=6, embedder=EMB4,
                              backbone=remote_spec(stub.endpoint))
            model, _ = train(cfg, make_normal_corpus(2, seed=4, T=3))
        initial = DetectorModel.init(EMB4, d_h=6, backbone=cfg.backbone, seed=4)
        for name in ("fq_w", "fq_b", "fh_w", "fh_b"):
            assert np.array_equal(model.params[name], initial.params[name]), name
        assert not np.array_equal(model.params["ft_w"], initial.params["ft_w"])

    def test_training_and_scoring_keep_their_bits(self, stub_service):
        # Pins the remote path end to end: two epochs with weight decay, then
        # the batched scores and the stream's scores of the same steps, and
        # the /encode requests all of it makes (one per prefix).
        corpus = make_normal_corpus(3, seed=4, T=3)
        with stub_service(vector_dim=6) as stub:
            cfg = TrainConfig(epochs=2, lr=1e-2, weight_decay=1e-2, seed=4, d_h=6,
                              embedder=EMB4, backbone=remote_spec(stub.endpoint))
            model, _ = train(cfg, corpus)
            q, steps = embed_trajectory(EMB4, corpus[0])
            batch = score_trajectory(model, q, steps, 1.0, 1.0)
            stream = DetectorStream(model, q)
            streamed = []
            for step in steps:
                streamed.append(stream.score(step, 1.0, 1.0, math.inf))
                stream.commit(step)
            requests = len(stub.requests)
            # The corpus path stacks the three trajectories and still sends
            # one /encode per prefix of each; the states are the same, so
            # are the bits.
            stacked = list(score_corpus(model, corpus, 1.0, 1.0))
            stacked_requests = len(stub.requests) - requests
            alone = _scored_alone(model, corpus, 1.0, 1.0)
        assert model.param_digest() == REMOTE_DIGEST
        assert [v.score.hex() for v in batch] == REMOTE_SCORES
        assert [v.score.hex() for v in streamed] == REMOTE_SCORES
        assert requests == 2 * 3 * 3 + 3 + 3
        assert stacked_requests == 3 * 3
        assert [v.score.hex() for v in stacked[0]] == REMOTE_SCORES
        assert _bits(sum(stacked, [])) == _bits(sum(alone, []))

    def test_a_reply_of_the_wrong_dimension_is_a_config_error(self, stub_service):
        with stub_service(vector_dim=5) as stub:
            model = DetectorModel.init(EMB4, d_h=6, backbone=remote_spec(stub.endpoint))
            rng = np.random.RandomState(0)
            q, steps = rng.randn(4), rng.randn(2, 8)
            with pytest.raises(ConfigError, match="expected dimension 6"):
                score_trajectory(model, q, steps, 1.0, 1.0)
            stream = DetectorStream(model, q)
            with pytest.raises(ConfigError, match="expected dimension 6"):
                stream.score(steps[0], 1.0, 1.0, math.inf)

    def test_spec_requires_endpoint(self):
        with pytest.raises(ConfigError):
            BackboneSpec(kind="remote_llm", hidden_dim=6)


class TestFlatParams:
    def test_rebinding_a_parameter_raises(self):
        model = tiny_model()
        with pytest.raises(TypeError):
            model.params["p"] = np.zeros(8)
        with pytest.raises(AttributeError):
            model.params.flat = np.zeros(model.params.flat.size)

    def test_in_place_write_reaches_the_buffer(self):
        model = tiny_model()
        model.params["p"][...] = 7.0
        assert np.all(model.params.flat[-8:] == 7.0)
        model.params.flat[:6] = -1.0
        assert np.all(model.params["fq_w"].ravel()[:6] == -1.0)

    def test_init_and_copy_are_views_into_one_buffer(self):
        model = tiny_model(seed=2)
        assert list(model.params) == list(PARAM_ORDER)
        assert views_tile(model.params)
        twin = copy.deepcopy(model)
        assert views_tile(twin.params)
        assert not np.shares_memory(twin.params.flat, model.params.flat)
        assert twin.param_digest() == model.param_digest()
        twin.params["p"][...] = 0.0
        assert twin.param_digest() != model.param_digest()
        clone = pickle.loads(pickle.dumps(model.params))
        assert views_tile(clone) and np.array_equal(clone.flat, model.params.flat)

    def test_digest_is_sha256_of_per_name_bytes(self, small_trained):
        model, report, _ = small_trained
        joined = b"".join(model.params[name].astype("<f8").tobytes() for name in PARAM_ORDER)
        assert model.param_digest() == hashlib.sha256(joined).hexdigest()
        assert report.param_digest == model.param_digest()

    def test_gradients_fill_the_callers_buffer(self):
        model = tiny_model(seed=6)
        rng = np.random.RandomState(6)
        q, steps = rng.randn(4), rng.randn(3, 8)
        grads = model.params.zeros_like()
        grads.flat[:] = np.nan  # every entry must be written
        out = trajectory_loss(model, model.params, q, steps, 0.2, grads)[4]
        assert out is grads
        fresh = model.params.zeros_like()
        trajectory_loss(model, model.params, q, steps, 0.2, fresh)
        assert np.array_equal(grads.flat, fresh.flat)

    def test_zero_gradients_overwrite_a_used_buffer(self):
        # T = 1 leaves f_h without gradient; a zero prototype leaves the
        # attention maps and p without gradient.
        model = tiny_model(seed=7)
        model.params["wv"][...] = 0.0
        rng = np.random.RandomState(7)
        grads = model.params.zeros_like()
        grads.flat[:] = np.nan
        trajectory_loss(model, model.params, rng.randn(4), rng.randn(1, 8), 0.5, grads)
        for name in ("fh_w", "fh_b", "wk", "wv", "p", "wq"):
            assert np.array_equal(grads[name], np.zeros_like(grads[name])), name
        assert np.all(np.isfinite(grads.flat))


def test_model_dim_invariant():
    model = tiny_model()
    assert model.d == 2 * model.d_e
    assert np.linalg.norm(model.params["p"]) > 0.0


def test_verdict_dataclass_fields():
    v = AnomalyVerdict(score=1.0, recon_term=0.5, proto_term=0.5,
                       alpha=1.0, beta=1.0, delta=2.0, flagged=False, t=1)
    assert v.flagged == (v.score > v.delta)


@settings(max_examples=40, deadline=None)
@given(
    d_e=st.integers(1, 8),
    d_h=st.integers(1, 24),
    layers=st.integers(1, 3),
    T=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_detect_agrees_with_score_trajectory(d_e, d_h, layers, T, seed):
    # A prefix pass and the full pass agree to rounding, not bit for bit:
    # a one-row product takes BLAS's matrix-vector path.
    model = DetectorModel.init(
        EmbedderSpec(kind="hashing", dimension=d_e), d_h=d_h,
        backbone=BackboneSpec(hidden_dim=d_h, layers=layers, seed=seed), seed=seed,
    )
    rng = np.random.RandomState(seed)
    q, steps = rng.randn(d_e), rng.randn(T, 2 * d_e)
    batch = score_trajectory(model, q, steps, 1.0, 1.0)
    for t in range(1, T + 1):
        single = score_trajectory(model, q, steps[:t], 1.0, 1.0, math.inf)[-1]
        assert single.score == pytest.approx(batch[t - 1].score, rel=1e-12, abs=0.0)
        assert single.recon_term == pytest.approx(batch[t - 1].recon_term, rel=1e-12, abs=0.0)
        # 1 - cos lies in [0, 2]; near 0 a relative bound would be meaningless.
        assert single.proto_term == pytest.approx(batch[t - 1].proto_term, rel=0.0, abs=1e-12)


def _scored_alone(model, corpus, alpha, beta, delta=math.inf):
    return [
        score_trajectory(
            model, *embed_trajectory(model.embedder, t, model.with_gt), alpha, beta, delta
        )
        for t in corpus
    ]


def _assert_agree(stacked, alone):
    """``score_corpus``'s verdicts equal the per-trajectory ones to rounding:
    the same steps, weights and threshold, scores to rel 1e-12, and the same
    flags wherever the score is not within rounding of the threshold."""
    assert [len(vs) for vs in stacked] == [len(vs) for vs in alone]
    for a, b in zip(sum(stacked, []), sum(alone, [])):
        assert (a.t, a.alpha, a.beta, a.delta) == (b.t, b.alpha, b.beta, b.delta)
        assert a.score == pytest.approx(b.score, rel=1e-12, abs=0.0)
        assert a.recon_term == pytest.approx(b.recon_term, rel=1e-12, abs=0.0)
        assert a.proto_term == pytest.approx(b.proto_term, rel=0.0, abs=1e-12)
        if abs(b.score - b.delta) > 1e-12 * abs(b.delta):
            assert a.flagged == b.flagged


@pytest.mark.parametrize("d_e, d_h", [(4, 16), (64, 256)])
@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.integers(1, 30), min_size=1, max_size=10),
       seed=st.integers(0, 2**16))
def test_score_corpus_agrees_with_score_trajectory(d_e, d_h, lengths, seed):
    # Stacked rows may sum in another order than a trajectory's own pass,
    # for some lengths and BLAS kernels, so the contract is rounding.
    model = DetectorModel.init(
        EmbedderSpec(kind="hashing", dimension=d_e), d_h=d_h,
        backbone=BackboneSpec(hidden_dim=d_h, layers=2, seed=seed), seed=seed,
    )
    rng = random.Random(seed)
    corpus = [make_normal_trajectory(f"t{i}", rng, T=T) for i, T in enumerate(lengths)]
    scores = sorted(v.score for vs in _scored_alone(model, corpus, 1.0, 0.5) for v in vs)
    delta = scores[len(scores) // 2]  # flags on both sides
    stacked = list(score_corpus(model, corpus, 1.0, 0.5, delta))
    _assert_agree(stacked, _scored_alone(model, corpus, 1.0, 0.5, delta))


def test_score_corpus_stacks_whole_trajectories_up_to_the_cap(monkeypatch):
    model = tiny_model(seed=7, d_h=12)
    lengths = [30, 30, CHUNK_ROWS + 6, 5, CHUNK_ROWS, 1]
    rng = random.Random(7)
    corpus = [make_normal_trajectory(f"t{i}", rng, T=T) for i, T in enumerate(lengths)]
    alone = _scored_alone(model, corpus, 1.0, 1.0)
    runs = []
    run = FrozenMixer.run

    def recording(self, sequence, lengths=None):
        runs.append(list(lengths))
        return run(self, sequence, lengths)

    monkeypatch.setattr(FrozenMixer, "run", recording)
    stacked = list(score_corpus(model, corpus, 1.0, 1.0))
    # A trajectory longer than the cap is a chunk of its own; one of
    # exactly the cap fills one.
    assert runs == [[30, 30], [CHUNK_ROWS + 6], [5], [CHUNK_ROWS], [1]]
    _assert_agree(stacked, alone)
    assert list(score_corpus(model, [], 1.0, 1.0)) == []


@pytest.mark.parametrize("fault, error, match", [
    ("no steps", DataError, "empty trajectory"),
    ("NaN", DataError, "NaN or infinite"),
    ("infinity", DataError, "NaN or infinite"),
    ("short step", ConfigError, "dimension"),
    ("short query", ConfigError, "dimension"),
])
def test_score_corpus_rejects_what_score_trajectory_rejects(monkeypatch, fault, error, match):
    model = tiny_model()
    corpus = make_normal_corpus(3, seed=1, T=4)

    def faulty(spec, trajectories, with_gt=False):
        embedded = embed_trajectories(spec, trajectories, with_gt)
        q_vec, steps = embedded[-1]
        if fault == "no steps":
            steps = steps[:0]
        elif fault in ("NaN", "infinity"):
            steps = steps.copy()
            steps[1, 2] = math.nan if fault == "NaN" else math.inf
        elif fault == "short step":
            steps = steps[:, 1:]
        else:
            q_vec = q_vec[1:]
        embedded[-1] = (q_vec, steps)
        return embedded

    with pytest.raises(error, match=match):
        score_trajectory(model, *faulty(EMB4, corpus)[-1], 1.0, 1.0)
    monkeypatch.setattr(detector, "embed_trajectories", faulty)
    with pytest.raises(error, match=match):
        list(score_corpus(model, corpus, 1.0, 1.0))


def test_score_corpus_sends_one_embed_request_per_chunk(stub_service):
    corpus = make_normal_corpus(30, seed=5, T=5)  # 150 steps: chunks of 60, 60 and 30
    with stub_service(dimension=4) as stub:
        spec = EmbedderSpec(kind="remote", dimension=4, endpoint=stub.endpoint, model_name="m")
        model = DetectorModel.init(spec, d_h=6, backbone=BackboneSpec(hidden_dim=6), seed=2)
        stacked = list(score_corpus(model, corpus, 1.0, 1.0))
        assert [r["path"] for r in stub.requests] == ["/embed"] * 3
        alone = _scored_alone(model, corpus, 1.0, 1.0)
    _assert_agree(stacked, alone)


def test_score_corpus_memory_does_not_grow_with_the_corpus():
    # The bench's `score` shape: d_e 64, d_h 384, T = 12.
    model = DetectorModel.init(EmbedderSpec(dimension=64), d_h=384, seed=1)
    corpus = make_normal_corpus(400, seed=3, T=12)

    def consume(trajectories):
        for _ in score_corpus(model, trajectories, 1.0, 1.0):
            pass

    consume(corpus)  # fills the token memo and builds the backbone
    small = traced_peak(lambda: consume(corpus[:100]))
    large = traced_peak(lambda: consume(corpus))
    # One chunk's working set: at least its stacked block input, CHUNK_ROWS
    # rows of 2 * d_h floats.
    assert large - small < CHUNK_ROWS * 2 * 384 * 8


def _bits(verdicts) -> list[str]:
    """Field reprs: a float's repr round-trips its exact bits and its type."""
    return [repr(dataclasses.astuple(v)) for v in verdicts]


@settings(max_examples=200, deadline=None)
@given(
    T=st.integers(1, 40),
    d=st.integers(1, 48),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1e-3, 1.0, 37.0]),
    zero_row=st.booleans(),
    alpha=st.sampled_from([0.0, 0.5, 1.0, 2]),
    beta=st.sampled_from([0.25, 1.0, 3]),
    delta=st.sampled_from([-1.0, 0.0, 1.5, math.inf]),
)
def test_batched_verdicts_equal_per_step_scoring(
    T, d, seed, scale, zero_row, alpha, beta, delta
):
    rng = np.random.RandomState(seed)
    x_hats = scale * rng.randn(T, d)
    if zero_row:
        x_hats[rng.randint(T)] = 0.0
    steps, p = rng.randn(T, d), rng.randn(d)
    p_norm = float(np.linalg.norm(p))
    expected = verdicts_reference(x_hats, steps, p, alpha, beta, delta)
    assert _bits(_verdicts(x_hats, steps, p, p_norm, alpha, beta, delta, 1)) == _bits(expected)
    assert _bits(_verdicts(x_hats[:1], steps[:1], p, p_norm, alpha, beta, delta, T)) == _bits(
        verdicts_reference(x_hats[:1], steps[:1], p, alpha, beta, delta, T)
    )


@settings(max_examples=40, deadline=None)
@given(
    d_e=st.integers(1, 8),
    d_h=st.integers(1, 24),
    T=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_public_scoring_paths_equal_per_step_scoring(d_e, d_h, T, seed):
    model = DetectorModel.init(
        EmbedderSpec(kind="hashing", dimension=d_e), d_h=d_h,
        backbone=BackboneSpec(hidden_dim=d_h, layers=2, seed=seed), seed=seed,
    )
    rng = np.random.RandomState(seed)
    q, steps = rng.randn(d_e), rng.randn(T, 2 * d_e)
    p = model.params["p"]
    x_hats, _ = predictions_tensor(model, model.params, q, steps)
    expected = verdicts_reference(x_hats, steps, p, 1.0, 0.5, 2.0)
    assert _bits(score_trajectory(model, q, steps, 1.0, 0.5, 2.0)) == _bits(expected)
    p_norm = float(np.linalg.norm(p))
    assert _bits(_verdicts(x_hats[-1:], steps[-1:], p, p_norm, 1.0, 0.5, 2.0, T)) == _bits(
        verdicts_reference(x_hats[-1:], steps[-1:], p, 1.0, 0.5, 2.0, T)
    )
    stream = DetectorStream(model, q)
    for t, step in enumerate(steps, start=1):
        verdict = stream.score(step, 1.0, 0.5, 2.0)
        prediction = stream._x_hat  # the prediction the verdict compared with
        assert _bits([verdict]) == _bits(
            verdicts_reference(prediction[None, :], step[None, :], p, 1.0, 0.5, 2.0, t)
        )
        stream.commit(step)


def test_zero_prototype_counts_cos_zero_and_warns(caplog):
    model = tiny_model(seed=4)
    model.params["p"][...] = 0.0
    rng = np.random.RandomState(4)
    q, steps = rng.randn(4), rng.randn(5, 8)
    x_hats, _ = predictions_tensor(model, model.params, q, steps)
    with caplog.at_level(logging.WARNING):
        verdicts = score_trajectory(model, q, steps, 1.0, 1.0)
    assert [v.proto_term for v in verdicts] == [1.0] * 5
    warnings = [r for r in caplog.records if "zero-norm" in r.message]
    assert len(warnings) == 5
    expected = verdicts_reference(x_hats, steps, model.params["p"], 1.0, 1.0, math.inf)
    assert _bits(verdicts) == _bits(expected)
