import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masc.detector import (
    BackboneSpec,
    DetectorModel,
    DetectorStream,
    _verdicts,
    score_trajectory,
)
from masc.embedding import EmbedderSpec, embed_step, embed_text
from masc.errors import ConfigError
from masc.synthetic import anomaly_text, make_normal_trajectory
from tests.reference import continuation_reference


def make_model(d_e=4, d_h=6, layers=2, seed=0):
    return DetectorModel.init(
        EmbedderSpec(kind="hashing", dimension=d_e), d_h=d_h,
        backbone=BackboneSpec(hidden_dim=d_h, layers=layers, seed=seed), seed=seed,
    )


def streamed(model, q, steps, delta=math.inf):
    """Verdicts of a stream that scores, then commits, each step in turn."""
    stream = DetectorStream(model, q)
    out = []
    for step in steps:
        out.append(stream.score(step, 1.0, 1.0, delta))
        stream.commit(step)
    return out


def fields(verdict):
    return (verdict.score, verdict.recon_term, verdict.proto_term, verdict.flagged,
            verdict.t, verdict.delta)


@settings(max_examples=40, deadline=None)
@given(
    d_e=st.integers(1, 8),
    d_h=st.integers(1, 24),
    layers=st.integers(1, 3),
    T=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_stream_agrees_with_score_trajectory(d_e, d_h, layers, T, seed):
    # The stream's one-row products take BLAS's matrix-vector path, the batch
    # pass a matrix product: equal to rounding, not bit for bit.
    model = make_model(d_e, d_h, layers, seed)
    rng = np.random.RandomState(seed)
    q, steps = rng.randn(d_e), rng.randn(T, 2 * d_e)
    batch = score_trajectory(model, q, steps, 1.0, 1.0, 5.0 * d_e)
    stream = streamed(model, q, steps, 5.0 * d_e)
    assert [v.t for v in stream] == list(range(1, T + 1))
    for single, full in zip(stream, batch):
        assert single.score == pytest.approx(full.score, rel=1e-12, abs=0.0)
        assert single.recon_term == pytest.approx(full.recon_term, rel=1e-12, abs=0.0)
        # 1 - cos lies in [0, 2]; near 0 a relative bound would be meaningless.
        assert single.proto_term == pytest.approx(full.proto_term, rel=0.0, abs=1e-12)
        assert single.flagged == (single.score > 5.0 * d_e)


def test_score_leaves_the_stream_unchanged():
    model = make_model(seed=3)
    rng = np.random.RandomState(3)
    q, steps, other = rng.randn(4), rng.randn(5, 8), rng.randn(8)
    plain = streamed(model, q, steps)
    stream = DetectorStream(model, q)
    for t, step in enumerate(steps):
        stream.score(other, 1.0, 1.0, math.inf)  # a different embedding first
        first = stream.score(step, 1.0, 1.0, math.inf)
        again = stream.score(step, 1.0, 1.0, math.inf)
        assert fields(first) == fields(again) == fields(plain[t])
        stream.commit(step)


def test_committing_a_replacement_matches_a_fresh_stream():
    # A run scores the flagged step, then commits the corrected one: the
    # stream must then equal one that only ever saw the committed steps.
    model = make_model(seed=4)
    rng = np.random.RandomState(4)
    q, committed = rng.randn(4), rng.randn(6, 8)
    flagged = committed.copy()
    flagged[2] += 5.0
    corrected = DetectorStream(model, q)
    verdicts = []
    for step, kept in zip(flagged, committed):
        verdicts.append(corrected.score(step, 1.0, 1.0, 0.5))
        corrected.commit(kept)
    fresh = streamed(model, q, committed, 0.5)
    for t, (a, b) in enumerate(zip(verdicts, fresh), start=1):
        if t != 3:
            assert fields(a) == fields(b), t
    assert verdicts[2].score != fresh[2].score
    probe = rng.randn(8)
    again = DetectorStream(model, q)
    for step in committed:
        again.commit(step)
    assert fields(corrected.score(probe, 1.0, 1.0, 0.5)) == fields(
        again.score(probe, 1.0, 1.0, 0.5)
    )


def test_each_commit_makes_one_product_per_block(monkeypatch):
    # Block 1 reads the folded step: one product with the k rows of the
    # (d, 2 * hidden) fold that a step of k nonzero entries touches, all d
    # of them for a dense step. Each later block makes one product with its
    # stacked halves, whatever the history's length; scoring adds the
    # head's one product.
    model = make_model(d_e=8, d_h=8, layers=3, seed=5)
    rng = np.random.RandomState(5)
    stream = DetectorStream(model, rng.randn(8))
    shapes = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        shapes.append((np.shape(a), np.shape(b)))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    for k in [*range(6), 16] * 5:
        step = np.zeros(16)
        step[rng.choice(16, k, replace=False)] = rng.randn(k)
        stream.commit(step)
        assert shapes == [((k,), (k, 16))] + [((8,), (2, 8, 8))] * 2, k
        shapes.clear()
        stream.score(step, 1.0, 1.0, math.inf)
        assert shapes == [((8,), (8, 16))]
        shapes.clear()


def test_wrong_dimensions_raise_config_error():
    model = make_model()
    with pytest.raises(ConfigError):
        DetectorStream(model, np.zeros(5))
    with pytest.raises(ConfigError):
        DetectorStream(model, np.zeros((1, 4)))
    stream = DetectorStream(model, np.zeros(4))
    for bad in (np.zeros(7), np.zeros(9), np.zeros((1, 8)), [0.0] * 7):
        with pytest.raises(ConfigError):
            stream.score(bad, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            stream.commit(bad)
    assert stream.score(np.zeros(8), 1.0, 1.0, 1.0).t == 1  # nothing committed


def bits(verdict):
    """Every field, floats by their bit pattern."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(verdict)
    )


@settings(max_examples=60, deadline=None)
@given(
    d_e=st.integers(1, 40),
    d_h=st.integers(1, 48),
    T=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    zero=st.sampled_from(["none", "prototype", "prediction"]),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    beta=st.sampled_from([0.25, 1.0, 3.0]),
    delta=st.sampled_from([-1.0, 0.0, 1.5, math.inf]),
)
def test_stream_verdict_equals_verdicts_on_its_row(
    d_e, d_h, T, seed, zero, alpha, beta, delta
):
    model = make_model(d_e, d_h, 2, seed)
    if zero == "prototype":
        model.params["p"][...] = 0.0
    elif zero == "prediction":
        model.params["ft_w"][...] = 0.0
        model.params["ft_b"][...] = 0.0
    p = model.params["p"]
    p_norm = float(np.linalg.norm(p))
    rng = np.random.RandomState(seed)
    stream = DetectorStream(model, rng.randn(d_e))
    for t in range(1, T + 1):
        step = rng.randn(2 * d_e)
        verdict = stream.score(step, alpha, beta, delta)
        x_hat = stream._x_hat.copy()  # the prediction the verdict compared with
        (expected,) = _verdicts(x_hat[None, :], step[None, :], p, p_norm, alpha, beta, delta, t)
        assert bits(verdict) == bits(expected)
        assert verdict.t == t and verdict.flagged == (verdict.score > delta)
        if zero != "none":
            assert verdict.proto_term == 1.0
        stream.commit(step)


def relative_error(actual, expected):
    """max |actual - expected| over max |expected|: a running sum's entries
    can cancel to near zero, where an entrywise bound would mean nothing."""
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 12),
    d_h=st.integers(1, 32),
    layers=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_stream_state_equals_the_continuation_reference(n, d_h, layers, seed):
    # After the query and after each commit, every block's running sum of
    # top-half products equals the one built from the unfolded f_h rows and
    # the full causal context, to rounding.
    model = make_model(4, d_h, layers, seed)
    rng = np.random.RandomState(seed)
    q, steps = rng.randn(4), rng.randn(n, 8)
    reference = continuation_reference(model, q, steps)
    stream = DetectorStream(model, q)
    for count in range(n + 1):
        if count:
            stream.commit(steps[count - 1])
        for (_, total, _, _), sums in zip(stream._stream._blocks, reference, strict=True):
            assert relative_error(total, sums[count]) <= 1e-12
    assert stream.score(rng.randn(8), 1.0, 1.0, math.inf).t == n + 1


def hashing_steps(seed):
    """A T=120 synthetic trajectory embedded as the CLI and the simulator
    embed it (a hashing step has a few nonzero entries of 128), plus an
    anomalous 121st step."""
    spec = EmbedderSpec(kind="hashing", dimension=64)
    rng = random.Random(seed)
    trajectory = make_normal_trajectory("long", rng, T=120)
    steps = np.stack([embed_step(spec, s.role, s.output) for s in trajectory.steps])
    flagged = embed_step(spec, trajectory.steps[59].role, anomaly_text(rng))
    return embed_text(spec, trajectory.query), np.vstack([steps, flagged])


def random_steps(seed):
    # Like embedded steps, each half of a step has unit norm.
    rng = np.random.RandomState(seed)
    q = rng.randn(64)
    halves = rng.randn(121, 2, 64)
    halves /= np.linalg.norm(halves, axis=2, keepdims=True)
    return q, halves.reshape(121, 128)


@pytest.mark.parametrize("d_h, layers, make_steps", [
    (256, 2, random_steps), (384, 1, random_steps), (384, 3, random_steps),
    (256, 2, hashing_steps),
], ids=["256-2", "384-1", "384-3", "256-2-hashing"])
def test_folded_scores_keep_a_margin_at_long_runs(d_h, layers, make_steps):
    # A T=120 run at the in-loop benchmark's shape (d_e 64, d_h 256, two
    # blocks) and wider ones; step 60 is flagged and replaced. The
    # benchmark's gate is rel 1e-12; this is 100 times tighter, so a later
    # fusion that eats the margin fails here first. Hashing steps have a
    # few nonzero entries, random ones none that are zero.
    model = make_model(64, d_h, layers, seed=d_h + layers)
    q, steps = make_steps(layers)
    committed, flagged = steps[:120], steps[120]
    stream = DetectorStream(model, q)
    verdicts = []
    for t, step in enumerate(committed, start=1):
        if t == 60:
            replaced = stream.score(flagged, 1.0, 1.0, math.inf)
        verdicts.append(stream.score(step, 1.0, 1.0, math.inf))
        stream.commit(step)
    full = score_trajectory(model, q, committed, 1.0, 1.0)
    cut = score_trajectory(model, q, np.vstack([committed[:59], flagged]), 1.0, 1.0)
    for single, batch in [*zip(verdicts, full, strict=True), (replaced, cut[-1])]:
        assert single.score == pytest.approx(batch.score, rel=1e-13, abs=0.0)
        assert single.recon_term == pytest.approx(batch.recon_term, rel=1e-13, abs=0.0)


def test_a_later_commit_changes_nothing_handed_out():
    model = make_model(d_e=6, d_h=16, seed=7)
    rng = np.random.RandomState(7)
    q, steps = rng.randn(6), rng.randn(8, 12)
    given_q, given_steps = q.copy(), steps.copy()
    stream = DetectorStream(model, q)
    verdicts, seen = [], []
    for step in steps:
        verdict = stream.score(step, 1.0, 1.0, 0.5)
        verdicts.append(verdict)
        seen.append(bits(verdict))
        stream.commit(step)
    # Verdicts hold plain numbers, not views of the stream's buffers, and
    # the stream never writes into the embeddings it was given.
    for verdict in verdicts:
        assert all(type(value) in (float, bool, int) for value in dataclasses.astuple(verdict))
    assert [bits(v) for v in verdicts] == seen
    assert np.array_equal(steps, given_steps) and np.array_equal(q, given_q)
