"""The numerical building blocks: the finite-difference oracle, the
detector's softmax, attention, projections and causal context, its
hand-written backward pass, and Adam."""

import numpy as np
import pytest

from masc.detector import (
    BackboneSpec,
    DetectorModel,
    FlatParams,
    causal_context,
    predictions_tensor,
    projected_sequence,
    prototype_attention,
    softmax,
    trajectory_loss,
)
from masc.embedding import EmbedderSpec
from masc.errors import DataError, DivergenceError
from masc.optim import BLOCK, AdamState, adam_step
from tests import gradcheck as ad
from tests.conftest import traced_peak


def _query_row(w, b, x):
    """f_q applied to x through the production projection."""
    params = {"fq_w": w, "fq_b": b, "fh_w": np.zeros((b.size, 1)), "fh_b": np.zeros(b.size)}
    return projected_sequence(params, x, np.zeros((0, 1)))[0]


def test_linear_identity():
    y = _query_row(np.eye(3), np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(y, [1.0, 2.0, 3.0])


def test_linear_zero_weight_returns_bias():
    y = _query_row(np.zeros((2, 3)), np.array([5.0, -1.0]), np.array([9.0, 9.0, 9.0]))
    assert np.array_equal(y, [5.0, -1.0])


def test_linear_matches_hand_dot_product():
    rng = np.random.RandomState(0)
    w, b, x = rng.randn(3, 3), rng.randn(3), rng.randn(3)
    expected = np.array([w[i] @ x + b[i] for i in range(3)])  # row-by-row oracle
    assert np.allclose(_query_row(w, b, x), expected, rtol=0, atol=1e-15)


def test_softmax_single_element():
    assert softmax(np.array([3.7])).tolist() == [1.0]


def test_softmax_symmetry():
    assert softmax(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]


def test_softmax_large_values_stable():
    s = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(s))
    assert s[0] == pytest.approx(1.0, abs=1e-12)


def test_softmax_simplex_and_shift_invariance():
    rng = np.random.RandomState(1)
    for _ in range(20):
        v = rng.randn(rng.randint(1, 9)) * 10
        s = softmax(v)
        assert np.all(s > 0)
        assert abs(s.sum() - 1.0) <= 1e-12
        shifted = softmax(v + 123.456)
        assert np.allclose(s, shifted, rtol=1e-12, atol=1e-15)


def test_softmax_rejects_empty():
    with pytest.raises(DataError):
        softmax(np.zeros(0))


def _attention_oracle(q, K, V, wq, wk, wv, scale):
    scores = (K @ wk) @ (q @ wq) / scale
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    return weights @ (V @ wv)


def _attention(q, K, wq, wk, wv):
    """Prototype attention with query q over rows K; scale sqrt(d)."""
    params = {"p": q, "wq": wq, "wk": wk, "wv": wv}
    return prototype_attention(params, K, K.shape[1])[0]


def test_attention_single_row_is_value_projection():
    rng = np.random.RandomState(2)
    d = 4
    q, row = rng.randn(d), rng.randn(1, d)
    wq, wk, wv = rng.randn(d, d), rng.randn(d, d), rng.randn(d, d)
    assert np.array_equal(_attention(q, row, wq, wk, wv), row[0] @ wv)


def test_attention_identical_rows_ignore_query():
    rng = np.random.RandomState(3)
    d = 4
    row = rng.randn(d)
    K = np.tile(row, (5, 1))
    wv = rng.randn(d, d)
    for _ in range(3):
        out = _attention(rng.randn(d), K, rng.randn(d, d), rng.randn(d, d), wv)
        assert np.allclose(out, row @ wv, rtol=1e-12, atol=1e-15)


def test_attention_matches_direct_formula():
    rng = np.random.RandomState(4)
    d = 5
    q, K = rng.randn(d), rng.randn(2, d)
    wq, wk, wv = rng.randn(d, d), rng.randn(d, d), rng.randn(d, d)
    oracle = _attention_oracle(q, K, K, wq, wk, wv, np.sqrt(d))
    assert np.allclose(_attention(q, K, wq, wk, wv), oracle, rtol=1e-12, atol=1e-14)


def test_attention_rejects_empty_context():
    with pytest.raises(DataError, match="empty attention context"):
        _attention(np.zeros(3), np.zeros((0, 3)), np.eye(3), np.eye(3), np.eye(3))


def _model(d_e, d_h, layers, seed):
    return DetectorModel.init(
        EmbedderSpec(kind="hashing", dimension=d_e), d_h=d_h,
        backbone=BackboneSpec(hidden_dim=d_h, layers=layers, seed=seed), seed=seed,
    )


def test_grad_squared_norm():
    # With lambda = 0 only the reconstruction term ||x_hat - x||^2 / T
    # remains, whose gradient w.r.t. the head bias is 2/T * sum_t (x_hat_t - x_t).
    model = _model(3, 5, 2, seed=1)
    rng = np.random.RandomState(1)
    q, steps = rng.randn(3), rng.randn(4, 6)
    grads = trajectory_loss(model, model.params, q, steps, 0.0, model.params.zeros_like())[4]
    x_hats, _ = predictions_tensor(model, model.params, q, steps)
    expected = 2.0 / 4 * (x_hats - steps).sum(axis=0)
    assert np.allclose(grads["ft_b"], expected, rtol=1e-12, atol=1e-15)


def test_grad_cosine_at_alignment_is_zero():
    # One step predicted exactly, with W_v = 2 I so that p_new = 2 x_hat is
    # aligned with the prediction: both loss terms sit at their minimum.
    model = _model(2, 4, 1, seed=2)
    model.params["wv"][...] = 2.0 * np.eye(4)
    q = np.random.RandomState(2).randn(2)
    steps = predictions_tensor(model, model.params, q, np.zeros((1, 4)))[0]
    total, recon, proto, _, grads = trajectory_loss(
        model, model.params, q, steps, 1.0, model.params.zeros_like()
    )
    assert recon == 0.0
    assert proto == pytest.approx(0.0, abs=1e-12)
    for name, g in grads.items():
        assert np.allclose(g, 0.0, atol=1e-12), name


def _backward_error(model, q, steps, lam):
    params = {k: v.copy() for k, v in model.params.items()}
    grads = model.params.zeros_like()
    analytic = trajectory_loss(model, params, q, steps, lam, grads)[4]
    # eps = 1e-6: at init the predictions have small norms, where the
    # cosine's curvature makes the truncation error of eps = 1e-4 too large.
    numeric = ad.finite_diff(
        lambda p: trajectory_loss(model, p, q, steps, lam, grads.zeros_like())[0],
        params, eps=1e-6,
    )
    return ad.max_relative_error(analytic, numeric)


def test_grad_matches_finite_diff_on_composites():
    # A single step: no history rows, so f_h gets no gradient at all.
    model = _model(3, 4, 2, seed=5)
    rng = np.random.RandomState(5)
    assert _backward_error(model, rng.randn(3), rng.randn(1, 6), 1.0) <= 1e-6


def test_grad_through_fused_ops():
    # Three mixer blocks and an all-zero step in the history.
    model = _model(2, 4, 3, seed=6)
    rng = np.random.RandomState(6)
    steps = rng.randn(5, 4)
    steps[2] = 0.0
    assert _backward_error(model, rng.randn(2), steps, 0.2) <= 1e-6


def test_finite_diff_quadratic():
    g = ad.finite_diff(lambda p: float(p["x"] ** 2.0), {"x": np.array(3.0)}, eps=1e-4)
    assert abs(float(g["x"]) - 6.0) <= 1e-6


def test_finite_diff_matches_grad_on_quadratic_form():
    rng = np.random.RandomState(7)
    a = rng.randn(4, 4)
    a = a + a.T
    params = {"x": rng.randn(4)}
    numeric = ad.finite_diff(lambda p: float(p["x"] @ a @ p["x"]), params)
    analytic = {"x": 2.0 * a @ params["x"]}
    assert ad.max_relative_error(analytic, numeric) <= 1e-8


def test_finite_diff_noise_floor_on_constant():
    g = ad.finite_diff(lambda p: 1.5 + 0.0 * float(p["x"].sum()), {"x": np.ones(4)})
    assert np.all(np.abs(g["x"]) <= 1e-10)


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        ad.finite_diff(lambda p: float(p["x"] @ p["x"]), {"x": np.ones(2)}, eps=0.0)


def test_cumsum_prefix_exactness():
    rng = np.random.RandomState(8)
    x = rng.randn(7, 3)
    full = causal_context(x)
    for t in range(1, 8):
        assert np.array_equal(full[:t], causal_context(x[:t]))


def _flat(**arrays) -> FlatParams:
    """A FlatParams holding ``arrays``, laid out in keyword order."""
    params = FlatParams({name: np.shape(a) for name, a in arrays.items()})
    for name, a in arrays.items():
        params[name][...] = a
    return params


def test_adam_zero_gradient_keeps_params():
    params = _flat(w=[1.0, -2.0])
    state = AdamState.init(params, lr=0.1)
    adam_step(state, params, params.zeros_like())
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_adam_descends_on_quadratic():
    params = _flat(t=1.0)
    state = AdamState.init(params, lr=0.1)
    adam_step(state, params, _flat(t=2.0))  # grad of t^2 at 1
    assert float(params["t"]) < 1.0


def test_adam_converges_to_quadratic_optimum():
    rng = np.random.RandomState(9)
    target = rng.randn(4)
    params = _flat(t=np.zeros(4))
    grads = params.zeros_like()
    state = AdamState.init(params, lr=0.05)
    for _ in range(200):
        grads["t"][...] = 2.0 * (params["t"] - target)
        adam_step(state, params, grads)
    assert np.linalg.norm(params["t"] - target) < 1e-3


def test_adam_rejects_nan_gradients():
    params = _flat(w=np.ones(2))
    state = AdamState.init(params, lr=0.1)
    with pytest.raises(DivergenceError, match="diverged"):
        adam_step(state, params, _flat(w=[np.nan, 0.0]))
    # The check runs before any state changes.
    assert state.step_count == 0
    assert not state.m.any() and not state.v.any()
    assert np.array_equal(params["w"], np.ones(2))

    # A NaN in the last of three blocks, after one good step: the blocks
    # before it are checked, not updated.
    n = 2 * BLOCK + 5
    params, grads = _flat(w=np.ones(n)), _flat(w=np.full(n, 0.5))
    state = AdamState.init(params, lr=0.1)
    adam_step(state, params, grads)
    before = [params.flat.copy(), state.m.copy(), state.v.copy()]
    grads.flat[-1] = np.nan
    with pytest.raises(DivergenceError, match="diverged"):
        adam_step(state, params, grads)
    assert state.step_count == 1
    for old, new in zip(before, (params.flat, state.m, state.v)):
        assert old.tobytes() == new.tobytes()


def test_adam_weight_decay_is_decoupled():
    plain, decayed = _flat(w=[2.0]), _flat(w=[2.0])
    adam_step(AdamState.init(plain, lr=0.1), plain, _flat(w=[1.0]))
    adam_step(
        AdamState.init(decayed, lr=0.1, weight_decay=0.5), decayed, _flat(w=[1.0])
    )
    assert decayed["w"][0] == pytest.approx(plain["w"][0] - 0.1 * 0.5 * 2.0)


def _reference_adam(state, params, grads, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """The dict-based update the flat one replaced: pack the named arrays
    into fresh vectors, update, return new arrays. ``state`` is
    {"t": step, "m": vector, "v": vector}."""
    g = np.concatenate([grads[name].ravel() for name in params])
    p = np.concatenate([params[name].ravel() for name in params])
    state["t"] += 1
    t, m, v = state["t"], state["m"], state["v"]
    m *= beta1
    m += (1.0 - beta1) * g
    np.square(g, out=g)
    v *= beta2
    v += (1.0 - beta2) * g
    denom = np.sqrt(v / (1.0 - beta2**t))
    denom += eps
    update = m / denom
    update *= lr / (1.0 - beta1**t)
    new = p - update
    if weight_decay > 0.0:
        new -= (lr * weight_decay) * p
    out, offset = {}, 0
    for name, arr in params.items():
        out[name] = new[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return out


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_matches_the_dict_based_update_bit_for_bit(weight_decay):
    # Sizes within one block and around the block edges: one element short
    # of a block, exactly one, one over, and two blocks and a short third.
    for size in (51, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7):
        rng = np.random.RandomState(12)
        shapes = {"w": (7, 5), "b": (5,), "p": (size - 40,)}
        start = {name: rng.randn(*shape) for name, shape in shapes.items()}
        params = _flat(**start)
        grads = params.zeros_like()
        state = AdamState.init(params, lr=3e-3, weight_decay=weight_decay)
        ref = {k: v.copy() for k, v in start.items()}
        ref_state = {"t": 0, "m": np.zeros(size), "v": np.zeros(size)}
        for _ in range(50):
            for name, shape in shapes.items():
                grads[name][...] = rng.randn(*shape) * rng.choice([1e-3, 1.0, 1e3])
            ref = _reference_adam(ref_state, ref, grads, 3e-3, weight_decay)
            adam_step(state, params, grads)
            for name in shapes:
                assert params[name].tobytes() == ref[name].tobytes(), (size, name)
        assert state.m.tobytes() == ref_state["m"].tobytes(), size
        assert state.v.tobytes() == ref_state["v"].tobytes(), size


def test_adam_allocates_less_than_one_buffer_beyond_its_moments():
    n = 4 * BLOCK + 3
    params, grads = _flat(w=np.ones(n)), _flat(w=np.full(n, 0.5))

    def init_and_step():
        adam_step(AdamState.init(params, lr=0.1, weight_decay=0.01), params, grads)

    # m and v, then two block-sized scratch vectors and the finiteness mask.
    assert traced_peak(init_and_step) < 3 * params.flat.nbytes
    # A step itself allocates no array: the finiteness mask is block-sized
    # scratch that the state holds.
    state = AdamState.init(params, lr=0.1, weight_decay=0.01)
    assert traced_peak(lambda: adam_step(state, params, grads)) < BLOCK
