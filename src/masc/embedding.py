"""Text embedding behind a pluggable contract.

Two embedder kinds are supported:

* ``hashing`` -- a deterministic, dependency-free feature hashing scheme, the
  default of the CLI and of the test and acceptance suites. Tokens are
  lowercased, split on non-alphanumerics, hashed with a 64-bit keyed blake2b
  (keyed by the target dimension), and accumulated as +/-1 into
  ``hash % dim``; the vector is then L2-normalized, so every embedding has
  norm <= 1.
* ``remote`` -- a JSON-over-HTTP client (POST {endpoint}/embed) so any
  embedding service can be adapted. A batch sends each distinct uncached
  text once. Responses are cached on disk keyed by SHA-256 of (model_name,
  text), a reply's new records appended with one open of the file.

Step embeddings are the concatenation [role_embedding ; output_embedding],
role half first, giving vectors of dimension 2 * d_e. There are three entry
points: ``embed_text`` for one text and ``embed_trajectories`` for a batch of
whole trajectories (``embed_trajectory`` for one) go through one batch
function (``_text_matrix``); ``embed_step``, the in-loop turn's, does too for
the remote kind.

A batch of texts embeds as one (n, d_e) matrix. With the hashing kind, each
token's bucket and sign come from a per-dimension memo (token -> ``2 *
bucket + sign bit``), so a token is hashed once however often roles and
templates repeat it. The memo is emptied whenever it reaches ``MEMO_LIMIT``
tokens, which bounds its memory. The whole batch then accumulates in one
``np.bincount`` over those codes, each bucket's entry being its +1 count
minus its -1 count, and is normalized row by row. This equals embedding each
text on its own bit for bit: every entry and every squared norm is a small
integer, exact in any order of summation.

With the hashing kind, ``embed_step`` makes no batch. Its role half is
copied from a memo of finished rows keyed by (dimension, role), bounded by
``MEMO_LIMIT`` and emptied with the token memo; a run has a handful of
roles. Its output half is one text's row (``_hashing_row``): the same token
codes, one ``np.bincount``, the squared norm by one dot product and one
divide, bit for bit the batch's row.

A trajectory's texts are embedded in the order [query, role_1, output_1,
role_2, output_2, ...], so rows 1 .. 2T of its block of the matrix, read two
at a time, are already the [role ; output] step embeddings: the (T, 2 * d_e)
step matrix is a reshape, not a concatenation per step.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
import struct
import threading
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_int, check_number
from .trace import Trajectory
from .transport import float_vectors, new_session, post_json

logger = logging.getLogger(__name__)

_TOKEN = re.compile(r"[0-9a-z]+")  # a token: a maximal lowercase alphanumeric run

# One record: u32 payload length | 32-byte key digest | u32 dim | dim float64 LE.
_RECORD_HEAD = struct.Struct("<I")
_KEY_DIM = struct.Struct("<32sI")


@dataclass(frozen=True)
class EmbedderSpec:
    """Configuration for an embedding backend."""

    kind: str = "hashing"  # "hashing" | "remote"
    dimension: int = 64
    endpoint: str | None = None
    model_name: str | None = None
    cache_path: str | None = None
    max_attempts: int = 3
    timeout: float = 10.0
    max_inflight: int = 4

    def __post_init__(self):
        if self.kind not in ("hashing", "remote"):
            raise ConfigError(f"unknown embedder kind {self.kind!r}")
        check_int(self.dimension, "embedder dimension", 1)
        check_int(self.max_attempts, "embedder max_attempts", 1)
        check_int(self.max_inflight, "embedder max_inflight", 1)
        check_number(self.timeout, "embedder timeout", 0, strict=True)
        if not all(
            isinstance(v, (str, type(None)))
            for v in (self.endpoint, self.model_name, self.cache_path)
        ):
            raise ConfigError(
                "embedder endpoint, model_name and cache_path must be strings or null"
            )
        if self.kind == "remote" and (not self.endpoint or not self.model_name):
            raise ConfigError("remote embedder requires endpoint and model_name")


# Token memo of the hashing kind, one per dimension: token -> 2 * bucket +
# sign bit (1 for -1). Emptied when it reaches MEMO_LIMIT tokens.
MEMO_LIMIT = 1 << 14
_MEMOS: dict[int, dict[str, int]] = {}
# Finished role rows of ``embed_step``, keyed by (dimension, role). Never
# handed out, only copied. Emptied when it reaches MEMO_LIMIT rows and
# whenever a token memo is.
_ROLE_ROWS: dict[tuple[int, str], np.ndarray] = {}
_MEMO_LOCK = threading.Lock()


def _token_code(token: str, dim: int) -> int:
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=dim.to_bytes(8, "little")
    ).digest()
    h = int.from_bytes(digest, "little")
    return 2 * (h % dim) + (h >> 63)


def _token_codes(text: str, dim: int, codes: list[int]) -> None:
    """Append the memoized code of each token of ``text`` to ``codes``."""
    memo = _MEMOS.setdefault(dim, {})
    for token in _TOKEN.findall(text.lower()):
        code = memo.get(token)
        if code is None:
            code = _token_code(token, dim)
            with _MEMO_LOCK:
                if len(memo) >= MEMO_LIMIT:
                    memo.clear()
                    _ROLE_ROWS.clear()
                memo[token] = code
        codes.append(code)


def _signed_counts(codes: np.ndarray, size: int) -> np.ndarray:
    """Per bucket b < ``size``: the tokens adding +1 minus those adding -1,
    from one code 2 * b + sign bit per token, as integers."""
    counts = np.bincount(codes, minlength=2 * size)
    return counts[0::2] - counts[1::2]


def _hashing_matrix(texts: list[str], dim: int) -> np.ndarray:
    """(len(texts), dim) matrix of hashing embeddings, one row per text."""
    codes: list[int] = []
    counts = np.empty(len(texts), dtype=np.intp)  # tokens per text
    for i, text in enumerate(texts):
        before = len(codes)
        _token_codes(text, dim, codes)
        counts[i] = len(codes) - before
    # Text i's codes shift past the 2 * dim slots of the texts before it.
    slots = np.array(codes, dtype=np.intp)
    slots += np.repeat(np.arange(0, 2 * dim * len(texts), 2 * dim, dtype=np.intp), counts)
    signed = _signed_counts(slots, len(texts) * dim).reshape(len(texts), dim)
    # Integer entries: the squared norms are exact.
    norms = np.sqrt(np.einsum("ij,ij->i", signed, signed))
    norms[norms == 0.0] = 1.0
    return signed / norms[:, None]


def _hashing_row(text: str, dim: int, out: np.ndarray) -> None:
    """Write the hashing embedding of one text into ``out``, a (dim,) row.

    Equal to the text's row of ``_hashing_matrix`` bit for bit: the entries
    and the squared norm are the same small integers.
    """
    codes: list[int] = []
    _token_codes(text, dim, codes)
    signed = _signed_counts(np.array(codes, dtype=np.intp), dim)
    squared = int(signed.dot(signed))
    np.divide(signed, math.sqrt(squared) if squared else 1.0, out=out)


class VectorCache:
    """Append-only on-disk cache of embedding vectors.

    File layout is a sequence of length-prefixed records (key digest,
    dimension, raw little-endian float64 values). On load, a record whose
    length disagrees with its dimension, or that holds a NaN or infinite
    value, is skipped with a warning, and loading goes on after it. A torn
    trailing record (an append cut short) is dropped with a warning, and the
    next ``put`` cuts the file back to the end of the last whole record
    before it appends, so later records stay readable. ``put`` stores what
    it is given; the remote embedder gives it only checked replies. Writes
    are serialized by an internal lock.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._mem: dict[bytes, np.ndarray] = {}
        self._torn_at: int | None = None  # where a torn tail starts; cut before appending
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            blob = fh.read()
        pos = 0
        while pos + _RECORD_HEAD.size <= len(blob):
            (length,) = _RECORD_HEAD.unpack_from(blob, pos)
            start = pos + _RECORD_HEAD.size
            if start + length > len(blob):
                break  # a torn tail
            payload = blob[start : start + length]
            pos = start + length
            if length < _KEY_DIM.size:
                logger.warning("%s: skipping a %d-byte cache record at byte %d",
                               self.path, length, start - _RECORD_HEAD.size)
                continue
            digest, dim = _KEY_DIM.unpack_from(payload, 0)
            if _KEY_DIM.size + 8 * dim != length:
                logger.warning("%s: skipping a cache record at byte %d: dimension %d "
                               "does not fit its %d bytes",
                               self.path, start - _RECORD_HEAD.size, dim, length)
                continue
            values = np.frombuffer(payload, dtype="<f8", offset=_KEY_DIM.size, count=dim)
            if not np.isfinite(values).all():
                logger.warning("%s: skipping a cache record at byte %d: "
                               "non-finite value", self.path, start - _RECORD_HEAD.size)
                continue
            self._mem[digest] = values.astype(np.float64)
        if pos < len(blob):
            logger.warning("%s: dropping a torn %d-byte cache record at byte %d",
                           self.path, len(blob) - pos, pos)
            self._torn_at = pos

    def get(self, digest: bytes) -> np.ndarray | None:
        vec = self._mem.get(digest)
        return None if vec is None else vec.copy()

    def put(self, records: Iterable[tuple[bytes, np.ndarray]]):
        """Store each (digest, vector) pair whose digest is not cached yet.

        The new records, one per digest, are appended with one open of the
        file under one hold of the lock; with none, the file is not opened.
        """
        with self._lock:
            blobs = []
            for digest, vector in records:
                if digest in self._mem:
                    continue
                self._mem[digest] = vector.copy()
                payload = _KEY_DIM.pack(digest, vector.size) + vector.astype("<f8").tobytes()
                blobs.append(_RECORD_HEAD.pack(len(payload)) + payload)
            if not blobs:
                return
            with open(self.path, "ab") as fh:
                if self._torn_at is not None:
                    fh.truncate(self._torn_at)
                    self._torn_at = None
                fh.writelines(blobs)


def cache_key(model_name: str, text: str) -> bytes:
    return hashlib.sha256(
        model_name.encode("utf-8") + b"\x00" + text.encode("utf-8")
    ).digest()


class RemoteEmbedder:
    """Client for POST {endpoint}/embed: {"model", "texts": [str]} -> {"vectors"}.

    The reply and every cache hit go through ``transport.float_vectors``:
    a wrong vector count or a NaN or infinite value is a failed attempt,
    and a vector of another dimension than the spec's ends the call with
    ConfigError. Only checked replies are cached.
    """

    def __init__(self, spec: EmbedderSpec):
        self.spec = spec
        self._session = new_session()
        self._sem = threading.Semaphore(spec.max_inflight)
        self.cache = VectorCache(spec.cache_path) if spec.cache_path else None

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        """One vector per text. Each distinct uncached text is sent once, in
        first-seen order, and the positions that repeat it share its vector."""
        spec = self.spec
        out: list[np.ndarray | None] = [None] * len(texts)
        missing: dict[str, list[int]] = {}  # text -> its positions
        for i, text in enumerate(texts):
            if self.cache is not None:
                hit = self.cache.get(cache_key(spec.model_name, text))
                if hit is not None:
                    (out[i],) = float_vectors([hit], 1, spec.dimension, "embedding cache")
                    continue
            missing.setdefault(text, []).append(i)
        if missing:
            body = {"model": spec.model_name, "texts": list(missing)}
            with self._sem:
                vectors = post_json(
                    self._session, spec.endpoint.rstrip("/") + "/embed", body,
                    lambda reply: float_vectors(
                        reply["vectors"], len(missing), spec.dimension, "embedding service"
                    ),
                    spec.max_attempts, spec.timeout,
                )
            if self.cache is not None:
                self.cache.put(
                    (cache_key(spec.model_name, text), vec) for text, vec in zip(missing, vectors)
                )
            for positions, vec in zip(missing.values(), vectors):
                for i in positions:
                    out[i] = vec
        return out


_BACKENDS: dict[EmbedderSpec, RemoteEmbedder] = {}
_BACKENDS_LOCK = threading.Lock()


def _remote_backend(spec: EmbedderSpec) -> RemoteEmbedder:
    with _BACKENDS_LOCK:
        backend = _BACKENDS.get(spec)
        if backend is None:
            backend = RemoteEmbedder(spec)
            _BACKENDS[spec] = backend
        return backend


def _text_matrix(spec: EmbedderSpec, texts: list[str]) -> np.ndarray:
    """(len(texts), d_e) matrix of embeddings; one request for remote backends."""
    for text in texts:
        if not text:
            raise DataError("cannot embed empty text")
    if spec.kind == "hashing":
        return _hashing_matrix(texts, spec.dimension)
    return np.stack(_remote_backend(spec).embed_batch(texts))


def embed_text(spec: EmbedderSpec, text: str) -> np.ndarray:
    """Embed one text into a d_e vector."""
    return _text_matrix(spec, [text])[0]


def embed_step(spec: EmbedderSpec, role: str, output: str) -> np.ndarray:
    """Concatenated [role ; output] embedding of dimension 2 * d_e.

    With the hashing kind, the role half is copied from a memo of finished
    role rows and the output half is the one text's row: a turn hashes only
    the output's tokens not yet memoized, and makes no batch.
    """
    if spec.kind != "hashing":
        return _text_matrix(spec, [role, output]).reshape(-1)
    if not role or not output:
        raise DataError("cannot embed empty text")
    dim = spec.dimension
    out = np.empty(2 * dim)
    role_row = _ROLE_ROWS.get((dim, role))
    if role_row is None:
        role_row = np.empty(dim)
        _hashing_row(role, dim, role_row)
        with _MEMO_LOCK:
            if len(_ROLE_ROWS) >= MEMO_LIMIT:
                _ROLE_ROWS.clear()
            _ROLE_ROWS[(dim, role)] = role_row
    out[:dim] = role_row
    _hashing_row(output, dim, out[dim:])
    return out


def query_text(trajectory: Trajectory, with_gt: bool) -> str:
    """Query conditioning text; appends the ground-truth answer when asked."""
    if with_gt and trajectory.gt_answer:
        return f"{trajectory.query}\nanswer: {trajectory.gt_answer}"
    return trajectory.query


def embed_trajectory(
    spec: EmbedderSpec, trajectory: Trajectory, with_gt: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Embed the query and every step of a trajectory.

    Returns (query vector of d_e, (T, 2*d_e) matrix whose row t is step t's
    embedding, in execution order). Either everything embeds or the error
    propagates; partial results are never returned.
    """
    return embed_trajectories(spec, [trajectory], with_gt)[0]


def embed_trajectories(
    spec: EmbedderSpec, trajectories: list[Trajectory], with_gt: bool = False
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``embed_trajectory`` of each trajectory, from one batch of all their
    texts (one /embed request for the remote kind). A hashing row does not
    depend on the batch, so each pair equals that trajectory's own bit for
    bit."""
    texts = []
    for trajectory in trajectories:
        texts.append(query_text(trajectory, with_gt))
        for step in trajectory.steps:
            texts.append(step.role)
            texts.append(step.output)
    matrix = _text_matrix(spec, texts)
    out, row = [], 0
    for trajectory in trajectories:
        stop = row + 1 + 2 * len(trajectory.steps)
        steps = matrix[row + 1 : stop].reshape(len(trajectory.steps), 2 * spec.dimension)
        # A copy: a view of the query's row would keep the whole batch matrix
        # alive for as long as the caller holds the query vector.
        out.append((matrix[row].copy(), steps))
        row = stop
    return out
