import hashlib
import logging
import math
import os
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masc.embedding as embedding
from masc.embedding import (
    EmbedderSpec,
    VectorCache,
    cache_key,
    embed_step,
    embed_text,
    embed_trajectory,
    query_text,
)
from masc.errors import ConfigError, DataError, TransportError
from masc.synthetic import make_normal_corpus
from masc.trace import Step, Trajectory
from tests.conftest import MALFORMED_REPLIES
from tests.reference import hashing_embed_reference

HASHING = EmbedderSpec(kind="hashing", dimension=64)


def hashed(text: str, dim: int) -> np.ndarray:
    """One text through the hashing embedder of dimension ``dim``."""
    return embed_text(EmbedderSpec(dimension=dim), text)


class TestHashingEmbedder:
    def test_deterministic(self):
        assert np.array_equal(hashed("abc", 64), hashed("abc", 64))

    def test_empty_text_rejected(self):
        with pytest.raises(DataError):
            hashed("", 64)
        with pytest.raises(DataError):
            embed_text(HASHING, "")

    def test_norm_bounded_by_one(self):
        rng = np.random.RandomState(0)
        words = ["alpha", "beta", "gamma", "delta", "run", "jump", "42"]
        for _ in range(50):
            text = " ".join(words[i] for i in rng.randint(0, len(words), size=6))
            assert np.linalg.norm(hashed(text, 32)) <= 1.0 + 1e-12

    def test_case_and_punctuation_insensitive(self):
        assert np.array_equal(
            hashed("The Cat, sat!", 64), hashed("the cat sat", 64)
        )

    def test_dimension_seeds_the_hash(self):
        # same token must not land in the "same" bucket pattern across dims
        a32 = hashed("anchor", 32)
        a64 = hashed("anchor", 64)
        assert np.nonzero(a32)[0][0] != np.nonzero(a64)[0][0] or True  # layouts differ
        assert a32.shape == (32,) and a64.shape == (64,)

    def test_lexical_similarity_preserved(self):
        # 50 pairs: overlapping continuation vs unrelated text; cosine must
        # favor the overlap in at least 90% of pairs
        rng = np.random.RandomState(7)
        base_words = [
            "the", "cat", "sat", "on", "a", "mat", "dog", "ran", "fast",
            "tree", "house", "river", "stone", "cloud", "light",
        ]
        unrelated_words = [
            "prime", "factorization", "quantum", "ledger", "syntax",
            "tensor", "manifold", "entropy", "kernel", "lattice",
        ]
        wins = 0
        for _ in range(50):
            base = " ".join(base_words[i] for i in rng.randint(0, 15, size=4))
            related = base + " " + base_words[int(rng.randint(0, 15))]
            unrelated = " ".join(unrelated_words[i] for i in rng.randint(0, 10, size=4))
            b = hashed(base, 64)
            cos_rel = float(b @ hashed(related, 64))
            cos_unrel = float(b @ hashed(unrelated, 64))
            wins += cos_rel > cos_unrel
        assert wins >= 45

    def test_identical_tokens_accumulate(self):
        one = hashed("word", 32)
        twice_raw = hashed("word word", 32)
        # same direction after normalization
        assert np.allclose(one, twice_raw)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Words with repeats, non-ASCII letters (separators to the tokenizer), digits
# and punctuation; "!!!"-like texts have no token at all.
_WORDS = st.sampled_from([
    "the", "The", "cat", "42", "x1", "naïve", "Ünïcödé", "日本語", "!!!", "--", "a_b", "ß",
])
_TEXTS = st.one_of(
    st.lists(_WORDS, min_size=1, max_size=12).map(" ".join),
    st.text(min_size=1, max_size=40),
)


class TestBatchedHashingEqualsTokenLoop:
    """The batched, memoized hashing path against the token-by-token loop."""

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_TEXTS, min_size=1, max_size=6), dim=st.integers(1, 128))
    def test_batch_equals_loop(self, texts, dim):
        matrix = embedding._hashing_matrix(texts, dim)
        assert matrix.shape == (len(texts), dim)
        for row, text in zip(matrix, texts):
            assert _same_bits(row, hashing_embed_reference(text, dim))
        assert _same_bits(hashed(texts[0], dim), hashing_embed_reference(texts[0], dim))

    def test_text_without_tokens_is_zero(self):
        for dim in (1, 7, 64):
            assert _same_bits(hashed("!!!", dim), np.zeros(dim))

    @settings(max_examples=30, deadline=None)
    @given(
        n_tokens=st.integers(1, 60),
        limit=st.integers(1, 16),
        dim=st.integers(1, 128),
        salt=st.integers(0, 10**6),
    )
    def test_more_distinct_tokens_than_the_memo_holds(self, n_tokens, limit, dim, salt):
        # Three texts over n_tokens distinct tokens; a text may have none.
        texts = [
            " ".join(f"w{salt}x{i}" for i in range(j, n_tokens, 3)) or "!" for j in range(3)
        ]
        # A fresh memo: entries stored under the module's limit may exceed
        # the patched one until the next miss.
        with mock.patch.object(embedding, "MEMO_LIMIT", limit), \
                mock.patch.dict(embedding._MEMOS, clear=True):
            matrix = embedding._hashing_matrix(texts + texts, dim)
            assert len(embedding._MEMOS[dim]) <= limit
        for row, text in zip(matrix, texts + texts):
            assert _same_bits(row, hashing_embed_reference(text, dim))

    def test_memo_bound_at_the_module_limit(self):
        dim = 7
        text = " ".join(f"t{i}" for i in range(embedding.MEMO_LIMIT + 100))
        assert _same_bits(hashed(text, dim), hashing_embed_reference(text, dim))
        assert len(embedding._MEMOS[dim]) <= embedding.MEMO_LIMIT

    def test_threads_share_the_memo_without_breaking_its_bound(self):
        limit, dim = 32, 16
        texts = [[f"thread{k} tok{i} shared{i % 5}" for i in range(200)] for k in range(4)]
        results: dict[int, np.ndarray] = {}

        def work(k):
            results[k] = embedding._hashing_matrix(texts[k], dim)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(embedding, "MEMO_LIMIT", limit), \
                    mock.patch.dict(embedding._MEMOS, clear=True):
                threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert len(embedding._MEMOS[dim]) <= limit
        finally:
            sys.setswitchinterval(interval)
        for k in range(4):
            for row, text in zip(results[k], texts[k]):
                assert _same_bits(row, hashing_embed_reference(text, dim))


class TestStepEmbedding:
    def test_same_text_gives_identical_halves(self):
        v = embed_step(HASHING, "a", "a")
        assert np.array_equal(v[:64], v[64:])

    def test_dimension_is_twice_embedder_dim(self):
        assert embed_step(HASHING, "solver", "42").shape == (128,)

    def test_halves_match_independent_embed_text(self):
        v = embed_step(HASHING, "solver", "42")
        assert np.array_equal(v[:64], embed_text(HASHING, "solver"))
        assert np.array_equal(v[64:], embed_text(HASHING, "42"))


class TestStepFromRoleMemo:
    """``embed_step``'s memoized role rows and one-text output row against
    the batch path."""

    @settings(max_examples=200, deadline=None)
    @given(role=_TEXTS, output=_TEXTS, dim=st.integers(1, 64))
    def test_equals_the_batch(self, role, output, dim):
        spec = EmbedderSpec(dimension=dim)
        expected = embedding._hashing_matrix([role, output], dim).reshape(-1)
        assert _same_bits(embed_step(spec, role, output), expected)
        assert _same_bits(embed_step(spec, role, output), expected)  # role row memoized

    @pytest.mark.parametrize("role, output", [
        ("!!", "!!"), ("solver", "!!"), ("!!", "the answer is 42"),
        ("naïve Ünïcödé", "日本語 ß --"), ("checker", "x1 x1 x1 ANSWER: 7"),
    ])
    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_texts_without_tokens_and_non_ascii(self, role, output, dim):
        expected = np.concatenate([
            hashing_embed_reference(role, dim), hashing_embed_reference(output, dim),
        ])
        assert _same_bits(embed_step(EmbedderSpec(dimension=dim), role, output), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        n_roles=st.integers(1, 30),
        limit=st.integers(1, 8),
        dim=st.integers(1, 64),
        salt=st.integers(0, 10**6),
    )
    def test_more_distinct_roles_and_tokens_than_the_memos_hold(
        self, n_roles, limit, dim, salt
    ):
        spec = EmbedderSpec(dimension=dim)
        roles = [f"r{salt}x{i}" for i in range(n_roles)]
        outputs = [" ".join(f"o{salt}y{j}" for j in range(i % 5)) or "!!" for i in range(n_roles)]
        pairs = list(zip(roles, outputs)) * 2
        # Fresh memos under a small bound: the token memo is cleared partway,
        # and the role memo with it or at its own bound.
        with mock.patch.object(embedding, "MEMO_LIMIT", limit), \
                mock.patch.dict(embedding._MEMOS, clear=True), \
                mock.patch.dict(embedding._ROLE_ROWS, clear=True):
            vectors = [embed_step(spec, role, output) for role, output in pairs]
            assert len(embedding._MEMOS[dim]) <= limit
            assert len(embedding._ROLE_ROWS) <= limit
        for vector, (role, output) in zip(vectors, pairs):
            assert _same_bits(vector[:dim], hashing_embed_reference(role, dim))
            assert _same_bits(vector[dim:], hashing_embed_reference(output, dim))

    def test_writing_into_a_step_leaves_the_role_memo(self):
        first = embed_step(HASHING, "verifier", "42")
        first[:] = 7.0
        again = embed_step(HASHING, "verifier", "42")
        assert _same_bits(again[:64], hashing_embed_reference("verifier", 64))
        assert _same_bits(again[64:], hashing_embed_reference("42", 64))

    def test_empty_text_rejected(self):
        for role, output in (("", "42"), ("solver", "")):
            with pytest.raises(DataError):
                embed_step(HASHING, role, output)


def _traj(gt=None):
    return Trajectory(
        id="t",
        query="solve the task",
        steps=(
            Step("planner", "make a plan"),
            Step("solver", "answer 42"),
            Step("checker", "confirmed"),
        ),
        gt_answer=gt,
    )


class TestTrajectoryEmbedding:
    def test_one_step_embedding_per_step(self):
        q, steps = embed_trajectory(HASHING, _traj())
        assert len(steps) == 3
        assert q.shape == (64,)

    def test_with_gt_without_gt_answer_is_identity(self):
        a = embed_trajectory(HASHING, _traj(), with_gt=True)
        b = embed_trajectory(HASHING, _traj(), with_gt=False)
        assert np.array_equal(a[0], b[0])

    def test_with_gt_changes_query_vector(self):
        a = embed_trajectory(HASHING, _traj(gt="42"), with_gt=True)
        b = embed_trajectory(HASHING, _traj(gt="42"), with_gt=False)
        assert not np.array_equal(a[0], b[0])

    def test_step_rows_equal_per_text_embeddings(self):
        trajectory = _traj(gt="42")
        q, steps = embed_trajectory(HASHING, trajectory, with_gt=True)
        assert steps.shape == (3, 128)
        assert _same_bits(q, hashing_embed_reference("solve the task\nanswer: 42", 64))
        for row, step in zip(steps, trajectory.steps):
            assert _same_bits(row, embed_step(HASHING, step.role, step.output))
            assert _same_bits(row[:64], hashing_embed_reference(step.role, 64))
            assert _same_bits(row[64:], hashing_embed_reference(step.output, 64))

    def test_query_vector_does_not_keep_the_batch_alive(self):
        q, _ = embed_trajectory(HASHING, _traj())
        assert q.base is None or q.base.size == HASHING.dimension

    def test_pure_function_of_inputs(self):
        def digest():
            q, steps = embed_trajectory(HASHING, _traj(gt="42"), with_gt=True)
            h = hashlib.sha256(q.tobytes())
            for s in steps:
                h.update(s.tobytes())
            return h.hexdigest()

        assert digest() == digest()


class TestVectorCache:
    def test_hit_is_bit_identical(self, tmp_path):
        cache = VectorCache(str(tmp_path / "cache.bin"))
        vec = np.random.RandomState(0).randn(16)
        key = cache_key("model", "text")
        cache.put([(key, vec)])
        assert np.array_equal(cache.get(key), vec)

    def test_survives_reload(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        vec = np.random.RandomState(1).randn(8)
        VectorCache(path).put([(cache_key("m", "t"), vec)])
        assert np.array_equal(VectorCache(path).get(cache_key("m", "t")), vec)

    def test_truncated_tail_ignored(self, tmp_path):
        path = str(tmp_path / "cache.bin")
        cache = VectorCache(path)
        cache.put([(cache_key("m", "a"), np.ones(4))])
        with open(path, "ab") as fh:
            fh.write(b"\x40\x00\x00\x00partial")
        reloaded = VectorCache(path)
        assert reloaded.get(cache_key("m", "a")) is not None

    @pytest.mark.parametrize("record", [
        struct.pack("<I", 20) + b"\x00" * 20,  # shorter than digest + dim
        struct.pack("<I", 44) + b"\x11" * 32 + struct.pack("<I", 9) + b"\x00" * 8,
    ], ids=["shorter than 36 bytes", "dim past the record's end"])
    def test_malformed_record_is_skipped(self, tmp_path, caplog, record):
        path = str(tmp_path / "cache.bin")
        VectorCache(path).put([(cache_key("m", "a"), np.ones(4))])
        with open(path, "ab") as fh:
            fh.write(record)
        VectorCache(path).put([(cache_key("m", "b"), np.full(3, 2.0))])
        with caplog.at_level(logging.WARNING, logger="masc.embedding"):
            reloaded = VectorCache(path)
        assert np.array_equal(reloaded.get(cache_key("m", "a")), np.ones(4))
        assert np.array_equal(reloaded.get(cache_key("m", "b")), np.full(3, 2.0))
        assert any("skipping" in r.message for r in caplog.records)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_record_is_skipped(self, tmp_path, caplog, bad):
        # An append from elsewhere, or a vector cached before replies were
        # checked; put() itself stores what it is given.
        path = str(tmp_path / "cache.bin")
        cache = VectorCache(path)
        cache.put([(cache_key("m", "a"), np.array([1.0, bad, 0.0]))])
        cache.put([(cache_key("m", "b"), np.full(3, 2.0))])
        with caplog.at_level(logging.WARNING, logger="masc.embedding"):
            reloaded = VectorCache(path)
        assert reloaded.get(cache_key("m", "a")) is None
        assert np.array_equal(reloaded.get(cache_key("m", "b")), np.full(3, 2.0))
        assert any("non-finite" in r.message for r in caplog.records)

    def test_a_torn_append_loses_no_later_record(self, tmp_path, caplog):
        path = tmp_path / "cache.bin"
        vectors = {f"t{i}": np.full(4, float(i)) for i in range(8)}
        cache = VectorCache(str(path))
        for text in ("t0", "t1", "t2"):
            cache.put([(cache_key("m", text), vectors[text])])
        path.write_bytes(path.read_bytes()[:-20])  # t2's record, torn
        with caplog.at_level(logging.WARNING, logger="masc.embedding"):
            cache = VectorCache(str(path))
        assert any("torn 52-byte" in r.message for r in caplog.records)
        for text in ("t3", "t4", "t5", "t6", "t7"):
            cache.put([(cache_key("m", text), vectors[text])])
        reloaded = VectorCache(str(path))
        whole = [t for t in vectors if t != "t2"]
        assert [t for t in whole if reloaded.get(cache_key("m", t)) is not None] == whole
        for text in whole:
            assert np.array_equal(reloaded.get(cache_key("m", text)), vectors[text])

    @given(blob=st.binary(max_size=400) | st.builds(
        lambda head, tail: head + tail,
        st.lists(st.sampled_from([
            struct.pack("<I", 44) + b"\x01" * 32 + struct.pack("<I", 1) + b"\x00" * 8,
            struct.pack("<I", 44) + b"\x02" * 32 + struct.pack("<I", 1)
            + struct.pack("<d", math.nan),
            struct.pack("<I", 3) + b"abc",
        ]), max_size=4).map(b"".join),
        st.binary(max_size=60),
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_load_and_then_take_a_put(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "any_bytes_cache.bin"
        path.write_bytes(blob)
        cache = VectorCache(str(path))
        assert all(np.isfinite(v).all() for v in cache._mem.values())
        key, vec = cache_key("m", "new"), np.arange(3.0)
        cache.put([(key, vec)])
        assert np.array_equal(VectorCache(str(path)).get(key), vec)

    def test_a_reply_of_new_texts_is_appended_with_one_open(
        self, stub_service, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "cache.bin")
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(embedding, "open", counting_open, raising=False)
        texts = ["alpha", "beta", "gamma", "delta", "epsilon"]
        with stub_service(dimension=4) as stub:
            spec = EmbedderSpec(kind="remote", dimension=4, endpoint=stub.endpoint,
                                model_name="m", cache_path=path)
            rows = embedding._text_matrix(spec, texts)
        assert opened == [path]
        reloaded = VectorCache(path)
        for text, row in zip(texts, rows):
            assert np.array_equal(reloaded.get(cache_key("m", text)), row)

    def test_concurrent_writers(self, tmp_path):
        cache = VectorCache(str(tmp_path / "cache.bin"))

        def work(i):
            cache.put([(cache_key("m", f"t{i}"), np.full(4, float(i)))])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reloaded = VectorCache(cache.path)
        for i in range(20):
            assert np.array_equal(reloaded.get(cache_key("m", f"t{i}")), np.full(4, float(i)))


class TestRemoteEmbedder:
    def test_round_trip_via_stub(self, stub_service):
        with stub_service(dimension=8) as stub:
            spec = EmbedderSpec(kind="remote", dimension=8,
                                endpoint=stub.endpoint, model_name="mini")
            vecs = embedding._text_matrix(spec, ["hello", "world"])
            assert len(vecs) == 2
            assert vecs[0].shape == (8,)
            assert stub.requests[0]["body"]["model"] == "mini"

    def test_retries_then_succeeds(self, stub_service):
        with stub_service(dimension=4, fail_first=2) as stub:
            spec = EmbedderSpec(kind="remote", dimension=4,
                                endpoint=stub.endpoint, model_name="m",
                                max_attempts=3)
            assert embed_text(spec, "x").shape == (4,)
            assert len(stub.requests) == 3

    def test_gives_up_after_max_attempts(self, stub_service):
        with stub_service(dimension=4, status=500) as stub:
            spec = EmbedderSpec(kind="remote", dimension=4,
                                endpoint=stub.endpoint, model_name="m",
                                max_attempts=2)
            with pytest.raises(TransportError, match="after 2 attempts"):
                embed_text(spec, "x")

    @pytest.mark.parametrize(
        "raw", [
            *MALFORMED_REPLIES.values(), b'{"vectors": [[0, 1, 2, 3]]}',
            b'{"vectors": [[0, 1, 2, 3], [0, NaN, 2, 3]]}',
            b'{"vectors": [[Infinity, 1, 2, 3], [0, 1, 2, 3]]}',
            # Every vector's values are checked before any vector's shape.
            b'{"vectors": [[0, 1, 2], [0, NaN, 2, 3]]}',
        ],
        ids=[*MALFORMED_REPLIES, "one vector for two texts", "NaN", "Infinity",
             "short vector, then NaN"],
    )
    def test_malformed_reply_is_transport_error(self, stub_service, raw):
        with stub_service(raw=raw) as stub:
            spec = EmbedderSpec(kind="remote", dimension=4,
                                endpoint=stub.endpoint, model_name="m")
            with pytest.raises(TransportError, match="malformed reply"):
                embedding._text_matrix(spec, ["one", "two"])
            assert len(stub.requests) == 3

    def test_dimension_mismatch_is_fatal(self, stub_service):
        with stub_service(dimension=4, vector_dim=6) as stub:
            spec = EmbedderSpec(kind="remote", dimension=4,
                                endpoint=stub.endpoint, model_name="m")
            with pytest.raises(ConfigError, match="dimension"):
                embed_text(spec, "x")

    def test_cache_prevents_second_request(self, stub_service, tmp_path):
        with stub_service(dimension=4) as stub:
            spec = EmbedderSpec(kind="remote", dimension=4,
                                endpoint=stub.endpoint, model_name="m",
                                cache_path=str(tmp_path / "c.bin"))
            first = embed_text(spec, "same text")
            second = embed_text(spec, "same text")
            assert np.array_equal(first, second)
            assert len(stub.requests) == 1

    def test_a_non_finite_cached_vector_is_fetched_again(self, stub_service, tmp_path):
        cache_path = str(tmp_path / "c.bin")
        VectorCache(cache_path).put(
            [(cache_key("m", "x"), np.array([0.0, math.nan, 0.0, 0.0]))]
        )
        with stub_service(dimension=4) as stub:
            spec = EmbedderSpec(kind="remote", dimension=4, endpoint=stub.endpoint,
                                model_name="m", cache_path=cache_path)
            assert np.isfinite(embed_text(spec, "x")).all()
            assert len(stub.requests) == 1

    def test_cached_vector_of_another_dimension_is_config_error(self, stub_service, tmp_path):
        # The cache is keyed by model and text, not by dimension.
        cache_path = str(tmp_path / "c.bin")
        VectorCache(cache_path).put([(cache_key("m", "x"), np.ones(6))])
        with stub_service(dimension=4) as stub:
            spec = EmbedderSpec(kind="remote", dimension=4, endpoint=stub.endpoint,
                                model_name="m", cache_path=cache_path)
            with pytest.raises(ConfigError, match="embedding cache .* dimension 4"):
                embedding._text_matrix(spec, ["x", "y"])

    def test_trajectory_rows_stack_the_service_vectors(self, stub_service):
        with stub_service(dimension=4) as stub:
            spec = EmbedderSpec(kind="remote", dimension=4,
                                endpoint=stub.endpoint, model_name="m")
            q, steps = embed_trajectory(spec, _traj())
            assert len(stub.requests) == 1
            vecs = embedding._text_matrix(spec, ["solve the task", "planner", "make a plan"])
            assert np.array_equal(q, vecs[0])
            assert steps.shape == (3, 8)
            assert np.array_equal(steps[0], np.concatenate(vecs[1:]))

    def test_repeated_texts_are_sent_once(self, stub_service, tmp_path):
        trajectory = make_normal_corpus(1, seed=3, T=6)[0]
        texts = [query_text(trajectory, False)]
        for step in trajectory.steps:
            texts += [step.role, step.output]
        distinct = list(dict.fromkeys(texts))
        assert (len(texts), len(distinct)) == (13, 10)

        def vector(text):  # one per text, so a row given another text's vector shows
            return [float(b) for b in hashlib.sha256(text.encode()).digest()[:4]]

        with stub_service(dimension=4) as stub:
            stub.payload = lambda path, body: {"vectors": [vector(t) for t in body["texts"]]}
            spec = EmbedderSpec(kind="remote", dimension=4, endpoint=stub.endpoint,
                                model_name="m", cache_path=str(tmp_path / "c.bin"))
            q, steps = embed_trajectory(spec, trajectory)
        assert [r["body"]["texts"] for r in stub.requests] == [distinct]
        rows = np.array([vector(t) for t in texts])
        assert np.array_equal(q, rows[0])
        assert np.array_equal(steps, rows[1:].reshape(6, 8))
        # Each vector cached once: ten records of head, digest and dimension, values.
        assert os.path.getsize(spec.cache_path) == 10 * (4 + 36 + 8 * 4)
        reloaded = VectorCache(spec.cache_path)
        for text, row in zip(texts, rows):
            assert np.array_equal(reloaded.get(cache_key("m", text)), row)


def test_spec_validation():
    with pytest.raises(ConfigError):
        EmbedderSpec(kind="remote", dimension=4)  # missing endpoint/model
    with pytest.raises(ConfigError):
        EmbedderSpec(kind="nonsense", dimension=4)
    with pytest.raises(ConfigError):
        EmbedderSpec(kind="hashing", dimension=0)
