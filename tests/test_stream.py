import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masc.detector import (
    BackboneSpec,
    DetectorModel,
    DetectorStream,
    FrozenMixer,
    score_trajectory,
)
from masc.embedding import EmbedderSpec
from masc.errors import ConfigError


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


def test_each_commit_encodes_one_row(monkeypatch):
    rows = []
    run = FrozenMixer.run

    def counting(self, sequence, *args, **kwargs):
        rows.append(sequence.shape[0])
        return run(self, sequence, *args, **kwargs)

    monkeypatch.setattr(FrozenMixer, "run", counting)
    model = make_model(d_h=8, layers=3, seed=5)
    rng = np.random.RandomState(5)
    streamed(model, rng.randn(4), rng.randn(30, 8))
    assert rows == [1] * 31  # the query, then one row per committed step


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
