"""JSON over HTTP, the one transport behind every remote client.

``post_json`` POSTs a JSON body and hands the reply to a caller-supplied
``parse``. A connection error, a status other than 200, a reply that is not
a JSON object, and a reply that ``parse`` rejects (KeyError, TypeError or
ValueError) each count as one failed attempt; the k-th retry waits 0.05 * k
seconds, and TransportError is raised once every attempt has failed. A
MascError from ``parse`` (ConfigError) is not caught: it ends the call at
once, after one request.

Every reply contract lives here; a client says only what it sends.
``/chat`` replies ``{"content": str}``. A service that returns vectors
(``/embed``, ``/encode``) goes through ``float_vectors``: the reply must
hold the expected number of vectors and every value must be finite, or the
attempt failed and is retried; then every vector must have the expected
dimension, or the call ends at once with ConfigError, since a service of
another dimension gives the same answer on every attempt.

``requests`` is imported inside the functions so that ``import masc`` does
not pay for it.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

import numpy as np

from .errors import ConfigError, TransportError

T = TypeVar("T")


def new_session():
    """A connection-pooling HTTP session for one client."""
    import requests

    return requests.Session()


def post_json(
    session,
    url: str,
    body: dict,
    parse: Callable[[dict], T],
    attempts: int = 3,
    timeout: float = 30.0,
) -> T:
    """POST ``body`` to ``url`` and return ``parse(reply)``.

    A ConfigError from ``parse`` propagates at once, with no retry.
    """
    import requests

    last_error = "no attempts made"
    for attempt in range(attempts):
        if attempt:
            time.sleep(0.05 * attempt)
        try:
            resp = session.post(url, json=body, timeout=timeout)
        except requests.RequestException as exc:
            last_error = str(exc)
            continue
        if resp.status_code != 200:
            last_error = f"HTTP {resp.status_code}"
            continue
        try:
            reply = resp.json()  # undecodable bodies raise a ValueError
            if not isinstance(reply, dict):
                raise TypeError(f"reply is a JSON {type(reply).__name__}, not an object")
            return parse(reply)
        except (KeyError, TypeError, ValueError) as exc:
            last_error = f"malformed reply: {exc!r}"
    raise TransportError(f"POST {url} failed after {attempts} attempts: {last_error}")


def float_vectors(values, count: int, dim: int, source: str) -> list[np.ndarray]:
    """``values`` as ``count`` float64 vectors of shape (dim,).

    ValueError (a failed attempt) on a wrong count or a NaN or infinite
    value, checked over every vector first; then ConfigError naming
    ``source`` on a vector of another shape.
    """
    vectors = [np.asarray(v, dtype=np.float64) for v in values]
    if len(vectors) != count:
        raise ValueError(f"{len(vectors)} vectors, expected {count}")
    # Python's json reads NaN and Infinity; such a vector would make every
    # later score NaN, which no threshold flags.
    if not all(np.isfinite(v).all() for v in vectors):
        raise ValueError("non-finite value in a vector")
    for v in vectors:
        if v.shape != (dim,):
            raise ConfigError(
                f"{source} returned a vector of shape {v.shape}, expected dimension {dim}"
            )
    return vectors


def _chat_content(reply: dict) -> str:
    content = reply["content"]
    if not isinstance(content, str):
        raise TypeError(f"chat content is a {type(content).__name__}, not a string")
    return content


def chat(session, endpoint: str, model_name: str, prompt: str) -> str:
    """Send ``prompt`` as one user message to POST {endpoint}/chat; returns
    the reply's ``content``."""
    body = {"model": model_name, "messages": [{"role": "user", "content": prompt}]}
    return post_json(session, endpoint.rstrip("/") + "/chat", body, _chat_content)
