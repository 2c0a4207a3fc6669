import json
import math
import os
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

# Children spawned by tests inherit this; keeps BLAS single-threaded there.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from masc import BackboneSpec, EmbedderSpec, TrainConfig, train
from masc.correction import ScriptedPolicy
from masc.detector import PARAM_ORDER
from masc.synthetic import make_normal_corpus


# 200 replies that break every contract; each client adds its own cases.
MALFORMED_REPLIES = {"not json": b"not json", "json list": b"[1, 2]", "missing key": b"{}"}


class StubService:
    """Tiny JSON-over-HTTP stub for the embed/encode/chat contracts.

    With ``raw`` set, every request that gets through ``fail_first`` and
    ``status`` is answered 200 with exactly those bytes.
    """

    def __init__(self, dimension=8, fail_first=0, status=200, content="ok",
                 vector_dim=None, raw=None):
        self.dimension = dimension
        self.raw = raw
        self.vector_dim = vector_dim if vector_dim is not None else dimension
        self.fail_first = fail_first
        self.status = status
        self.content = content
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                with stub._lock:
                    stub.requests.append({"path": self.path, "body": body})
                    if stub.fail_first > 0:
                        stub.fail_first -= 1
                        self.send_response(503)
                        self.end_headers()
                        return
                if stub.status != 200:
                    self.send_response(stub.status)
                    self.end_headers()
                    return
                if stub.raw is not None:
                    blob = stub.raw
                else:
                    blob = json.dumps(stub.payload(self.path, body)).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        # A short poll interval: shutdown() waits for the serving loop's next
        # poll, 0.5 s by default, at the end of every stub test.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    def payload(self, path, body):
        """The well-formed reply to one request."""
        if path.endswith("/embed"):
            vectors = [
                [float(len(t) % 7 + i) for i in range(self.vector_dim)]
                for t in body["texts"]
            ]
            return {"vectors": vectors}
        if path.endswith("/encode"):
            seq = np.asarray(body["sequence"], dtype=float)
            vec = np.tanh(seq.mean(axis=0))
            out = np.zeros(self.vector_dim)
            out[: min(len(vec), self.vector_dim)] = vec[: self.vector_dim]
            return {"vector": out.tolist()}
        return {"content": self.content}  # /chat

    def __enter__(self):
        self._thread.start()
        self.endpoint = f"http://127.0.0.1:{self._server.server_port}"
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False


@pytest.fixture
def stub_service():
    return StubService


class CountingPolicy(ScriptedPolicy):
    """A scripted corrector that counts its calls in ``calls``."""

    def __init__(self, script):
        super().__init__(script)
        self.calls = 0

    def reply(self, req, prompt):
        self.calls += 1
        return super().reply(req, prompt)


SMALL_EMBEDDER = EmbedderSpec(kind="hashing", dimension=16)


def json_leaves(node, path=()):
    """The key path of every scalar in a parsed JSON value."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in json_leaves(child, path + (key,))]
    return [path]

# (alpha, beta, delta) triples ``check_score_settings`` refuses: with any of
# them, every score or every comparison with delta would be NaN or infinite.
BAD_SCORE_SETTINGS = [
    pytest.param(math.nan, 1.0, 1.0, id="alpha nan"),
    pytest.param(math.inf, 1.0, 1.0, id="alpha inf"),
    pytest.param(-1.0, 1.0, 1.0, id="alpha negative"),
    pytest.param(1.0, math.nan, 1.0, id="beta nan"),
    pytest.param(1.0, math.inf, 1.0, id="beta inf"),
    pytest.param(0.0, 0.0, 1.0, id="both weights zero"),
    pytest.param(1.0, 1.0, math.nan, id="delta nan"),
]


def views_tile(params) -> bool:
    """Every view lies in ``params.flat``, in PARAM_ORDER, back to back."""
    base = params.flat.__array_interface__["data"][0]
    offset = 0
    for name in PARAM_ORDER:
        view = params[name]
        if view.__array_interface__["data"][0] != base + 8 * offset:
            return False
        offset += view.size
    return offset == params.flat.size


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs
    (numpy reports its array buffers to tracemalloc too)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def small_trained():
    """A quickly trained small detector plus its training corpus."""
    corpus = make_normal_corpus(30, seed=11, T=5)
    cfg = TrainConfig(
        epochs=8,
        lr=1e-3,
        lam=0.2,
        seed=3,
        d_h=32,
        embedder=SMALL_EMBEDDER,
        backbone=BackboneSpec(hidden_dim=32, layers=2, seed=3),
    )
    model, report = train(cfg, corpus)
    return model, report, corpus


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    try:
        from tests.test_acceptance import CRITERIA
    except Exception:
        return
    lines = []
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            name = report.nodeid.split("::")[-1].split("[")[0]
            if name in CRITERIA and getattr(report, "when", "call") == "call":
                number, description = CRITERIA[name]
                lines.append((number, f"{label} criterion {number}: {description}"))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
