import hashlib
import json
import math
import struct
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masc.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from masc.detector import (
    PARAM_ORDER,
    BackboneSpec,
    DetectorModel,
    score_trajectory,
    trajectory_loss,
)
from masc.embedding import EmbedderSpec, embed_trajectory
from masc.errors import CheckpointError, ConfigError, DataError, DivergenceError
from masc.synthetic import make_normal_corpus
from masc.trace import Step, Trajectory, load_trajectories
from masc.training import PROFILES, Calibration, TrainConfig, calibrate_threshold, train
from tests.conftest import BAD_SCORE_SETTINGS, traced_peak, views_tile

EMB = EmbedderSpec(kind="hashing", dimension=16)
GOLDEN_DIR = Path(__file__).parent / "goldens"


def edit_header(path, edit):
    """Rewrite the checkpoint at ``path`` after ``edit`` changed its header
    in place."""
    blob = Path(path).read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(blob[start : start + header_len])
    edit(header)
    text = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(text)) + text + blob[start + header_len :])


def edit_calibration(path, edit):
    """Rewrite the checkpoint at ``path`` after ``edit`` changed its
    header's calibration object in place."""
    edit_header(path, lambda header: edit(header["calibration"]))


def cfg(**kw):
    base = dict(
        epochs=4, lr=1e-3, lam=0.2, seed=1, d_h=24, embedder=EMB,
        backbone=BackboneSpec(hidden_dim=24, layers=2, seed=1),
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            cfg(epochs=0)

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError):
            cfg(lr=0.0)

    @pytest.mark.parametrize("key", ["lr", "weight_decay", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_rejected(self, key, value):
        with pytest.raises(ConfigError, match="finite"):
            cfg(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("epochs", True), ("epochs", "10"), ("epochs", 2.0), ("seed", -1), ("seed", 2**32),
        ("seed", 1.5), ("weight_decay", -1.0), ("lr", "1e-3"), ("d_h", 0),
        ("with_gt", "yes"), ("exclude_labeled_steps", 1), ("embedder", 8),
        ("backbone", "frozen_mixer"),
    ])
    def test_wrong_typed_or_out_of_range_setting_rejected(self, key, value):
        with pytest.raises(ConfigError):
            cfg(**{key: value})

    def test_hc_profile_matches_published_defaults(self):
        assert PROFILES["hc"] == {
            "epochs": 10, "lr": 1e-4, "weight_decay": 0.0, "d_h": 384, "lam": 0.2,
        }
        assert PROFILES["auto"] == {
            "epochs": 5, "lr": 5e-5, "weight_decay": 0.0, "d_h": 384, "lam": 0.3,
        }
        defaults = TrainConfig()
        assert defaults.epochs == 10
        assert defaults.lr == 1e-4
        assert defaults.weight_decay == 0.0


class TestTrain:
    def test_loss_descends_on_synthetic_corpus(self):
        corpus = make_normal_corpus(20, seed=5, T=5)
        _, report = train(cfg(epochs=10), corpus)
        assert report.epochs[-1].mean_total < report.epochs[0].mean_total

    def test_deterministic_given_seed_and_data(self):
        corpus = make_normal_corpus(10, seed=6, T=4)
        model_a, report_a = train(cfg(), corpus)
        model_b, report_b = train(cfg(), corpus)
        assert report_a.param_digest == report_b.param_digest
        assert model_a.param_digest() == model_b.param_digest()
        for ea, eb in zip(report_a.epochs, report_b.epochs):
            assert ea.mean_total == eb.mean_total

    def test_seed_changes_parameters(self):
        corpus = make_normal_corpus(10, seed=6, T=4)
        a = train(cfg(seed=1, backbone=None), corpus)[0].param_digest()
        b = train(cfg(seed=2, backbone=None), corpus)[0].param_digest()
        assert a != b

    def test_training_never_reads_labels(self):
        corpus = make_normal_corpus(8, seed=7, T=4)
        labeled = [
            replace(
                t,
                steps=tuple(
                    Step(s.role, s.output, label=(1 if i == 0 else 0))
                    for i, s in enumerate(t.steps)
                ),
            )
            for t in corpus
        ]
        assert (
            train(cfg(), corpus)[0].param_digest()
            == train(cfg(), labeled)[0].param_digest()
        )

    def test_exclude_labeled_steps_drops_error_steps(self):
        corpus = make_normal_corpus(6, seed=8, T=4)
        labeled = [
            replace(
                t,
                steps=tuple(
                    Step(s.role, s.output, label=(1 if i == 1 else 0))
                    for i, s in enumerate(t.steps)
                ),
            )
            for t in corpus
        ]
        kept = train(cfg(exclude_labeled_steps=True), labeled)[0].param_digest()
        trimmed = [replace(t, steps=t.steps[:1] + t.steps[2:]) for t in corpus]
        direct = train(cfg(), trimmed)[0].param_digest()
        assert kept == direct

    def test_all_steps_labeled_is_an_error(self):
        t = Trajectory(
            id="x", query="q",
            steps=(Step("r", "o", 1), Step("r", "o2", 1)),
        )
        with pytest.raises(DataError, match="all steps labeled"):
            train(cfg(exclude_labeled_steps=True), [t])

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataError):
            train(cfg(), [])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_context(self):
        corpus = make_normal_corpus(3, seed=9, T=3)
        with pytest.raises(DivergenceError, match="epoch"):
            train(cfg(lr=1e300, epochs=2), corpus)

    def test_short_trajectories_golden_digest(self):
        """SHA-256s of the parameters that ``train`` fits on a corpus whose
        one-step trajectories alternate with three-step ones, and of the
        little-endian float64 scores of every step of that corpus; both are
        committed (``short_trajectory_digest.txt``), so a missing file fails.
        No other golden trains on a one-step trajectory."""
        golden = GOLDEN_DIR / "short_trajectory_digest.txt"
        assert golden.exists(), f"missing {golden}"
        ones = make_normal_corpus(4, seed=31, T=1, prefix="one")
        threes = make_normal_corpus(4, seed=32, T=3, prefix="three")
        corpus = [t for pair in zip(ones, threes) for t in pair]
        model, _ = train(cfg(epochs=3), corpus)
        scores = [
            v.score
            for trajectory in corpus
            for v in score_trajectory(model, *embed_trajectory(EMB, trajectory), 1.0, 1.0)
        ]
        scores_digest = hashlib.sha256(np.array(scores, dtype="<f8").tobytes()).hexdigest()
        assert [model.param_digest(), scores_digest] == golden.read_text().split()

    def test_one_step_trajectory_leaves_f_h_gradients_positive_zero(self):
        model = train(cfg(epochs=1), make_normal_corpus(2, seed=33, T=3))[0]
        q_vec, step_matrix = embed_trajectory(EMB, make_normal_corpus(1, seed=34, T=1)[0])
        grads = model.params.zeros_like()
        grads.flat[:] = np.nan  # every entry must be written
        trajectory_loss(model, model.params, q_vec, step_matrix, 0.2, grads)
        for name in ("fh_w", "fh_b"):
            assert np.all(grads[name] == 0.0) and not np.signbit(grads[name]).any(), name

    def test_report_shape(self):
        corpus = make_normal_corpus(5, seed=10, T=3)
        _, report = train(cfg(epochs=3), corpus)
        assert len(report.epochs) == 3
        assert report.n_trajectories == 5
        assert report.wall_time > 0
        payload = json.loads(json.dumps(asdict(report)))
        assert len(payload["epochs"]) == 3
        assert list(payload["epochs"][0]) == ["mean_recon", "mean_proto", "mean_total"]


class TestCalibration:
    def test_quantile_bounds(self, small_trained):
        model, _, corpus = small_trained
        with pytest.raises(ConfigError):
            calibrate_threshold(model, corpus, quantile=1.0)
        with pytest.raises(ConfigError):
            calibrate_threshold(model, corpus, quantile=0.0)

    @pytest.mark.parametrize("alpha, beta, delta", [
        *BAD_SCORE_SETTINGS,
        # Stricter than the rule: a calibrated delta is a quantile of finite scores.
        pytest.param(1.0, 1.0, math.inf, id="delta inf"),
        pytest.param(1.0, 1.0, -math.inf, id="delta -inf"),
    ])
    def test_bad_settings_rejected(self, alpha, beta, delta):
        with pytest.raises(ConfigError):
            Calibration(delta=delta, quantile=0.99, alpha=alpha, beta=beta)

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 1.0), (1.0, math.inf), (-1.0, 1.0), (0.0, 0.0),
    ], ids=["alpha nan", "beta inf", "alpha negative", "both zero"])
    def test_bad_weights_raise_before_any_step_is_scored(self, small_trained, monkeypatch,
                                                         alpha, beta):
        model, _, corpus = small_trained

        def refuse(*args, **kwargs):
            raise AssertionError("a step was scored")

        monkeypatch.setattr("masc.training.score_corpus", refuse)
        with pytest.raises(ConfigError, match="alpha|beta"):
            calibrate_threshold(model, corpus, 0.99, alpha, beta)

    def test_delta_is_linear_interpolated_quantile(self, small_trained):
        # oracle: sort-based linear interpolation, independent of numpy
        model, _, corpus = small_trained
        calibration = calibrate_threshold(model, corpus[:10], 0.9, 1.0, 1.0)
        scores = []
        for t in corpus[:10]:
            q, se = embed_trajectory(model.embedder, t)
            scores.extend(v.score for v in score_trajectory(model, q, se, 1.0, 1.0))
        s = sorted(scores)
        pos = 0.9 * (len(s) - 1)
        lo, hi = int(math.floor(pos)), int(math.ceil(pos))
        oracle = s[lo] + (pos - lo) * (s[hi] - s[lo])
        assert calibration.delta == pytest.approx(oracle, abs=1e-12)

    def test_identical_scores_give_that_constant(self, small_trained):
        model, _, _ = small_trained
        # all-identical score list: any quantile equals the constant
        arr = np.full(100, 3.25)
        assert float(np.quantile(arr, 0.5, method="linear")) == 3.25
        assert float(np.quantile(arr, 0.99, method="linear")) == 3.25

    def test_stats_summary(self, small_trained):
        model, _, corpus = small_trained
        calibration = calibrate_threshold(model, corpus, 0.99, 1.0, 1.0)
        stats = calibration.stats
        assert stats["min"] <= stats["p50"] <= stats["p90"] <= stats["p99"] <= stats["max"]
        assert calibration.delta == pytest.approx(stats["p99"])


class TestCheckpoint:
    def test_roundtrip_preserves_verdicts(self, small_trained, tmp_path):
        model, _, corpus = small_trained
        calibration = calibrate_threshold(model, corpus, 0.99, 1.0, 1.0)
        path = str(tmp_path / "model.ckpt")
        digest = save_checkpoint(model, calibration, path)
        loaded, cal2 = load_checkpoint(path)
        assert cal2 == calibration
        assert loaded.lam == model.lam == 0.2
        assert loaded.param_digest() == model.param_digest()
        rng = np.random.RandomState(0)
        for _ in range(10):
            q = rng.randn(model.d_e)
            se = [rng.randn(model.d) for _ in range(3)]
            for t in range(1, 4):
                a = score_trajectory(model, q, se[:t], 1.0, 1.0, calibration.delta)[-1]
                b = score_trajectory(loaded, q, se[:t], 1.0, 1.0, cal2.delta)[-1]
                assert a.score == b.score
                assert a.flagged == b.flagged
        assert digest == save_checkpoint(loaded, cal2, str(tmp_path / "again.ckpt"))

    def test_payload_is_the_per_name_bytes(self, small_trained, tmp_path):
        model, _, _ = small_trained
        path = str(tmp_path / "model.ckpt")
        digest = save_checkpoint(model, None, path)
        blob = Path(path).read_bytes()
        joined = b"".join(model.params[name].astype("<f8").tobytes() for name in PARAM_ORDER)
        assert blob.endswith(joined)
        (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
        assert len(blob) == len(MAGIC) + 4 + header_len + len(joined)
        assert digest == model.param_digest()

    def test_loaded_params_are_views_into_one_buffer(self, small_trained, tmp_path):
        model, _, _ = small_trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, None, path)
        loaded, _ = load_checkpoint(path)
        assert list(loaded.params) == list(PARAM_ORDER)
        assert views_tile(loaded.params)
        assert loaded.params.flat.flags.writeable
        loaded.params["p"][...] = 0.0
        assert not loaded.params.flat[-model.d:].any()

    def test_digest_save_and_load_copy_no_whole_buffer(self, tmp_path):
        model = DetectorModel.init(EmbedderSpec(dimension=64), d_h=384)  # a 1.4 MB buffer
        buffer = model.params.flat.nbytes
        path = str(tmp_path / "model.ckpt")
        assert traced_peak(model.param_digest) < buffer
        assert traced_peak(lambda: save_checkpoint(model, None, path)) < buffer
        # The new model's buffer, read into in place, plus the header, the
        # parsed header and the model's small objects.
        assert traced_peak(lambda: load_checkpoint(path)) < 1.3 * buffer

        # A header that declares 8 TB of payload is refused before any
        # buffer is allocated.
        edit_header(path, lambda header: header["param_shapes"].update(p=[2**40]))

        def load_forged():
            with pytest.raises(CheckpointError, match="payload size mismatch"):
                load_checkpoint(path)

        assert traced_peak(load_forged) < 64 * 1024

    def test_permuted_param_order_is_corrupt(self, small_trained, tmp_path):
        model, _, _ = small_trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, None, path)
        blob = Path(path).read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
        start = len(MAGIC) + 4
        header = json.loads(blob[start : start + header_len])
        header["param_order"] = header["param_order"][::-1]
        text = json.dumps(header).encode()
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", len(text)) + text + blob[start + header_len :])
        with pytest.raises(CheckpointError, match="parameter order"):
            load_checkpoint(path)

    def test_truncated_file_is_corrupt(self, small_trained, tmp_path):
        model, _, _ = small_trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, None, path)
        blob = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) - 40])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_flipped_payload_byte_is_corrupt(self, small_trained, tmp_path):
        model, _, _ = small_trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, None, path)
        blob = bytearray(Path(path).read_bytes())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_version_bump_is_explicit_error(self, small_trained, tmp_path):
        model, _, _ = small_trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, None, path)
        blob = Path(path).read_bytes()
        patched = blob.replace(
            f'"format_version": {FORMAT_VERSION}'.encode(),
            f'"format_version": {FORMAT_VERSION + 1}'.encode(),
        )
        # header length unchanged (same digit count not guaranteed; rewrite whole file)
        if len(patched) == len(blob):
            with open(path, "wb") as fh:
                fh.write(patched)
            with pytest.raises(CheckpointError, match="version"):
                load_checkpoint(path)

    def test_malformed_header_is_checkpoint_error(self, small_trained, tmp_path):
        model, _, _ = small_trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, None, path)
        blob = Path(path).read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
        start = len(MAGIC) + 4
        header = json.loads(blob[start : start + header_len])
        payload = blob[start + header_len :]

        def drop(key):
            return {k: v for k, v in header.items() if k != key}

        bad_shapes = dict(header, param_shapes=dict(header["param_shapes"], p=[4096]))
        cases = {
            "no digest": drop("payload_sha256"),
            "no d_e": drop("d_e"),
            "list header": [header],
            "shape mismatch": bad_shapes,
            "d_e 16 -> 8": dict(header, d_e=8),
            "d_h 32 -> 16": dict(header, d_h=16),
            "d 32 -> 16": dict(header, d=16),
            "hidden_dim 32 -> 16": dict(
                header, backbone=dict(header["backbone"], hidden_dim=16)
            ),
            "embedder dimension 16 -> 8": dict(
                header, embedder=dict(header["embedder"], dimension=8)
            ),
            "no lambda": drop("lambda"),
            "lambda as a string": dict(header, **{"lambda": "0.2"}),
            "lambda as a boolean": dict(header, **{"lambda": True}),
            "calibration without delta": dict(
                header, calibration={"quantile": 0.5, "alpha": 1.0, "beta": 1.0}
            ),
            "calibration as a list": dict(header, calibration=[1.0]),
            **{f"calibration {value!r}": dict(header, calibration=value)
               for value in ({}, [], False, 0, "")},
            "with_gt as a string": dict(header, with_gt="no"),
            "seed as a string": dict(header, seed="x"),
            "seed as a boolean": dict(header, seed=True),
            "d_h as a float": dict(header, d_h=float(header["d_h"])),
        }
        for name, bad in cases.items():
            text = json.dumps(bad).encode()
            with open(path, "wb") as fh:
                fh.write(MAGIC + struct.pack("<I", len(text)) + text + payload)
            with pytest.raises(CheckpointError, match="corrupt"):
                load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("delta", "x"), ("alpha", None), ("quantile", True), ("beta", [1.0]),
        ("stats", [0.5]), ("stats", "none"), ("quantile", 5), ("stats", {"p50": "low"}),
    ], ids=["delta string", "alpha null", "quantile boolean", "beta list", "stats list",
            "stats string", "quantile 5", "stats value string"])
    def test_wrong_typed_calibration_is_checkpoint_error(
        self, small_trained, tmp_path, key, value
    ):
        model, _, _ = small_trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, Calibration(0.5, 0.9, 1.0, 2.0, {"p50": 0.1}), path)
        edit_calibration(path, lambda calibration: calibration.update({key: value}))
        with pytest.raises(CheckpointError, match="corrupt checkpoint: calibration"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section, key, value", [
        ("backbone", "layers", 2.0),
        ("backbone", "hidden_dim", float),
        ("backbone", "seed", 1.5),
        ("backbone", "seed", "x"),
        ("backbone", "seed", -1),
        ("backbone", "endpoint", 5),
        ("embedder", "dimension", float),
        ("embedder", "max_inflight", 0),
        ("embedder", "max_attempts", 0),
        ("embedder", "timeout", 0),
        ("embedder", "timeout", "10"),
        ("embedder", "endpoint", ["http://x"]),
        ("embedder", "model_name", 1),
        ("embedder", "cache_path", False),
    ], ids=[
        "layers float", "hidden_dim float", "seed float", "seed string", "seed negative",
        "backbone endpoint number", "dimension float", "max_inflight 0", "max_attempts 0",
        "timeout 0", "timeout string", "embedder endpoint list", "model_name number",
        "cache_path boolean",
    ])
    def test_spec_field_the_type_rejects_is_checkpoint_error(
        self, small_trained, tmp_path, section, key, value
    ):
        """Each edit would otherwise load, and scoring would then fail with
        a traceback or, for ``max_inflight`` 0, wait forever on the first
        remote embed. ``float`` stands for the same value as a float."""
        model, _, _ = small_trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, Calibration(0.5, 0.9, 1.0, 2.0, {"p50": 0.1}), path)

        def edit(header):
            old = header[section][key]
            header[section][key] = value(old) if value is float else value

        edit_header(path, edit)
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            load_checkpoint(path)

    def test_calibration_without_stats_has_empty_stats(self, small_trained, tmp_path):
        model, _, _ = small_trained
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, Calibration(0.5, 0.9, 1.0, 2.0, {"p50": 0.1}), path)
        edit_calibration(path, lambda calibration: calibration.pop("stats"))
        assert load_checkpoint(path)[1] == Calibration(0.5, 0.9, 1.0, 2.0)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def golden_checkpoint(tmp_path_factory):
    """The checkpoint the training golden's flags give on the committed
    fixture, calibrated at the median: its header, its payload, a path to
    write edits to, and the fixture's trajectories."""
    trajectories = load_trajectories(str(GOLDEN_DIR / "train_fixture.jsonl"))
    model, _ = train(TrainConfig(
        epochs=3, lr=1e-3, d_h=16, seed=13, embedder=EmbedderSpec(dimension=8),
        backbone=BackboneSpec(hidden_dim=16, seed=13),
    ), trajectories)
    path = str(tmp_path_factory.mktemp("golden") / "model.ckpt")
    save_checkpoint(model, calibrate_threshold(model, trajectories, 0.5), path)
    blob = Path(path).read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(blob[start : start + header_len])
    return header, blob[start + header_len :], path, trajectories


def header_leaves(node, path=()):
    """The key path of every scalar in a JSON header."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in header_leaves(child, path + (key,))]
    return [path]


# Integers stay small: ``layers`` is not part of the payload's shape, so a
# large value would build that many mixer blocks.
header_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=3),
    max_leaves=5,
) | st.integers(0, 40) | st.floats(0.1, 4.0)  # values the checks may accept


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_any_header_leaf_gives_checkpoint_error_or_a_scoring_model(golden_checkpoint, data):
    header, payload, path, trajectories = golden_checkpoint
    edited = json.loads(json.dumps(header))
    *parents, last = data.draw(st.sampled_from(header_leaves(header)))
    node = edited
    for key in parents:
        node = node[key]
    node[last] = data.draw(header_values)
    text = json.dumps(edited).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(text)) + text + payload)
    try:
        model, calibration = load_checkpoint(path)
    except CheckpointError:
        return
    for trajectory in trajectories[:2]:
        q_vec, steps = embed_trajectory(model.embedder, trajectory, with_gt=model.with_gt)
        verdicts = score_trajectory(
            model, q_vec, steps, calibration.alpha, calibration.beta, calibration.delta
        )
        assert len(verdicts) == len(trajectory)


class TestPrototypeUpdateMechanics:
    def test_prototype_rewritten_each_trajectory(self):
        corpus = make_normal_corpus(3, seed=12, T=3)
        model, _ = train(cfg(epochs=1, lam=0.0), corpus)
        fresh = train(cfg(epochs=1, lam=0.0), corpus[:1])[0]
        # prototypes evolve with the data stream even when lambda = 0
        assert not np.array_equal(model.params["p"], fresh.params["p"])

    def test_calibration_dataclass(self):
        c = Calibration(delta=1.0, quantile=0.99, alpha=1.0, beta=1.0)
        assert c.delta == 1.0
