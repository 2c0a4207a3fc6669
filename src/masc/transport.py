"""JSON over HTTP, the one transport behind every remote client.

``post_json`` POSTs a JSON body and hands the reply to a caller-supplied
``parse``. A connection error, a status other than 200, a reply that is not
a JSON object, and a reply that ``parse`` rejects (KeyError, TypeError or
ValueError) each count as one failed attempt; the k-th retry waits 0.05 * k
seconds, and TransportError is raised once every attempt has failed.

``requests`` is imported inside the functions so that ``import masc`` does
not pay for it.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

from .errors import TransportError

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
    """POST ``body`` to ``url`` and return ``parse(reply)``."""
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
