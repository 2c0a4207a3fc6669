"""Text embedding behind a pluggable contract.

Two embedder kinds are supported:

* ``hashing`` -- a deterministic, dependency-free feature hashing scheme used
  by the test and acceptance suites. Tokens are lowercased, split on
  non-alphanumerics, hashed with a 64-bit keyed blake2b (keyed by the target
  dimension), and accumulated as +/-1 into ``hash % dim``; the vector is then
  L2-normalized, so every embedding has norm <= 1.
* ``remote`` -- a JSON-over-HTTP client (POST {endpoint}/embed) so any
  embedding service can be adapted. Responses are cached on disk keyed by
  SHA-256 of (model_name, text).

Step embeddings are the concatenation [role_embedding ; output_embedding],
role half first, giving vectors of dimension 2 * d_e.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .trace import Trajectory
from .transport import new_session, post_json

logger = logging.getLogger(__name__)

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

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
        if self.dimension < 1:
            raise ConfigError("embedder dimension must be positive")
        if self.kind == "remote" and (not self.endpoint or not self.model_name):
            raise ConfigError("remote embedder requires endpoint and model_name")


def hashing_embed(text: str, dim: int) -> np.ndarray:
    """Deterministic feature-hashing embedding, L2-normalized."""
    if not text:
        raise DataError("cannot embed empty text")
    v = np.zeros(dim, dtype=np.float64)
    key = dim.to_bytes(8, "little")
    for token in _TOKEN_SPLIT.split(text.lower()):
        if not token:
            continue
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        v[h % dim] += sign
    norm = float(np.linalg.norm(v))
    if norm > 0.0:
        v /= norm
    return v


class VectorCache:
    """Append-only on-disk cache of embedding vectors.

    File layout is a sequence of length-prefixed records (key digest,
    dimension, raw little-endian float64 values). On load, a record whose
    length disagrees with its dimension is skipped with a warning, and
    loading goes on after it; a truncated trailing record is ignored. Writes
    are serialized by an internal lock.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._mem: dict[bytes, np.ndarray] = {}
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
                break  # truncated tail
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
            self._mem[digest] = values.astype(np.float64)

    def get(self, digest: bytes) -> np.ndarray | None:
        vec = self._mem.get(digest)
        return None if vec is None else vec.copy()

    def put(self, digest: bytes, vector: np.ndarray):
        payload = _KEY_DIM.pack(digest, vector.size) + vector.astype("<f8").tobytes()
        with self._lock:
            if digest in self._mem:
                return
            self._mem[digest] = vector.copy()
            with open(self.path, "ab") as fh:
                fh.write(_RECORD_HEAD.pack(len(payload)) + payload)


def cache_key(model_name: str, text: str) -> bytes:
    return hashlib.sha256(
        model_name.encode("utf-8") + b"\x00" + text.encode("utf-8")
    ).digest()


class RemoteEmbedder:
    """Client for the POST {endpoint}/embed JSON contract."""

    def __init__(self, spec: EmbedderSpec):
        self.spec = spec
        self._session = new_session()
        self._sem = threading.Semaphore(spec.max_inflight)
        self.cache = VectorCache(spec.cache_path) if spec.cache_path else None

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        spec = self.spec
        out: list[np.ndarray | None] = [None] * len(texts)
        missing: list[int] = []
        for i, text in enumerate(texts):
            if self.cache is not None:
                hit = self.cache.get(cache_key(spec.model_name, text))
                if hit is not None:
                    out[i] = hit
                    continue
            missing.append(i)
        if missing:
            vectors = self._post([texts[i] for i in missing])
            for i, vec in zip(missing, vectors):
                if vec.shape != (spec.dimension,):
                    raise ConfigError(
                        f"embedding service returned a vector of shape {vec.shape}, "
                        f"expected dimension {spec.dimension}"
                    )
                if self.cache is not None:
                    self.cache.put(cache_key(spec.model_name, texts[i]), vec)
                out[i] = vec
        return [v for v in out]  # type: ignore[misc]

    def _post(self, texts: list[str]) -> list[np.ndarray]:
        spec = self.spec

        def parse(reply: dict) -> list[np.ndarray]:
            vectors = [np.asarray(v, dtype=np.float64) for v in reply["vectors"]]
            if len(vectors) != len(texts):
                raise ValueError(f"{len(vectors)} vectors for {len(texts)} texts")
            return vectors

        body = {"model": spec.model_name, "texts": texts}
        with self._sem:
            return post_json(
                self._session, spec.endpoint.rstrip("/") + "/embed", body, parse,
                spec.max_attempts, spec.timeout,
            )


_BACKENDS: dict[EmbedderSpec, RemoteEmbedder] = {}
_BACKENDS_LOCK = threading.Lock()


def _remote_backend(spec: EmbedderSpec) -> RemoteEmbedder:
    with _BACKENDS_LOCK:
        backend = _BACKENDS.get(spec)
        if backend is None:
            backend = RemoteEmbedder(spec)
            _BACKENDS[spec] = backend
        return backend


def embed_texts(spec: EmbedderSpec, texts: list[str]) -> list[np.ndarray]:
    """Embed a batch of texts; one request for remote backends."""
    for text in texts:
        if not text:
            raise DataError("cannot embed empty text")
    if spec.kind == "hashing":
        return [hashing_embed(t, spec.dimension) for t in texts]
    return _remote_backend(spec).embed_batch(texts)


def embed_text(spec: EmbedderSpec, text: str) -> np.ndarray:
    """Embed one text into a d_e vector."""
    return embed_texts(spec, [text])[0]


def embed_step(spec: EmbedderSpec, role: str, output: str) -> np.ndarray:
    """Concatenated [role ; output] embedding of dimension 2 * d_e."""
    role_vec, out_vec = embed_texts(spec, [role, output])
    return np.concatenate([role_vec, out_vec])


def query_text(trajectory: Trajectory, with_gt: bool) -> str:
    """Query conditioning text; appends the ground-truth answer when asked."""
    if with_gt and trajectory.gt_answer:
        return f"{trajectory.query}\nanswer: {trajectory.gt_answer}"
    return trajectory.query


def embed_trajectory(
    spec: EmbedderSpec, trajectory: Trajectory, with_gt: bool = False
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Embed the query and every step of a trajectory.

    Returns (query vector of d_e, one step embedding of 2*d_e per step, in
    execution order). Either everything embeds or the error propagates;
    partial results are never returned.
    """
    texts = [query_text(trajectory, with_gt)]
    for step in trajectory.steps:
        texts.append(step.role)
        texts.append(step.output)
    vectors = embed_texts(spec, texts)
    q_vec = vectors[0]
    steps = [
        np.concatenate([vectors[1 + 2 * i], vectors[2 + 2 * i]])
        for i in range(len(trajectory.steps))
    ]
    return q_vec, steps
