"""Per-layer tracing by wrapping the program's functions from outside.

A layer is a name plus the dotted module attributes where the program (or
the benchmark) looks the layer's function up, e.g. ``masc.simulator.detect``
for in-loop detection. Installing a ``Tracer`` replaces each attribute with a
wrapper that records a span (name, start, end, parent span, current
operation id) and restores the originals on exit. Nothing in ``masc`` is
edited, so a refactor that deletes or moves a function only makes its layer
absent: the dotted name no longer resolves, the layer is listed in
``Tracer.absent`` and its metrics read 0.

Self time of a span is its duration minus the durations of its direct
child spans, so the self times of all spans add up to the time covered by
the top-level spans.
"""

from __future__ import annotations

import importlib
import re
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# The hashing embedder's tokenizer: lowercase, split on non-alphanumerics.
_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


@dataclass(frozen=True)
class Layer:
    """One traced layer.

    ``targets`` are the dotted names to wrap. ``span=False`` counts calls
    without recording spans, for functions called far too often to time
    (Tensor construction). ``observe(tracer, args, result)`` adds counters
    taken from a call's arguments or result.
    """

    name: str
    targets: tuple[str, ...]
    span: bool = True
    observe: Callable | None = None


def resolve(dotted: str):
    """(owner, attribute) for a dotted name, or None if it does not exist.

    The longest importable prefix is the module; the remaining parts are
    attribute lookups (a class, then a method).
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


# -- counters taken from arguments and results --------------------------------


def _rows_encoded(tracer, args, result):
    tracer.count("detector.rows_encoded", args[1].shape[0])


def _adam_params(tracer, args, result):
    tracer.gauge("optim.params", sum(p.size for p in args[1].values()))


def _tokens(tracer, args, result):
    tokens = [tok for tok in _TOKEN_SPLIT.split(args[0].lower()) if tok]
    tracer.count("embedding.tokens", len(tokens))
    tracer.distinct("embedding.distinct_tokens", tokens)


def _correction(tracer, args, result):
    tracer.count("correction.replaced", int(bool(getattr(result, "replaced", False))))
    tracer.count("correction.failed", int(bool(getattr(result, "failed", False))))
    parsed = getattr(result, "result", None)
    violation = bool(getattr(parsed, "protocol_violation", False))
    tracer.count("correction.protocol_violations", int(violation))


# Where the program looks each function up. ``masc.<name>`` entries cover the
# benchmark's own calls, which go through the package's public names.
LAYERS = (
    Layer("training.train", ("masc.train",)),
    Layer("training.calibrate_threshold", ("masc.calibrate_threshold",)),
    Layer("optim.adam_step", ("masc.training.adam_step",), observe=_adam_params),
    Layer("autodiff.backward", ("masc.autodiff.Tensor.backward",)),
    Layer("autodiff.tensors", ("masc.autodiff.Tensor.__init__",), span=False),
    Layer("detector.trajectory_loss", ("masc.training.trajectory_loss",)),
    Layer("detector.predictions_tensor", ("masc.detector.predictions_tensor",)),
    Layer("detector.projected_sequence", ("masc.detector.projected_sequence",)),
    Layer("detector.mixer", ("masc.detector.FrozenMixer.run",), observe=_rows_encoded),
    Layer("detector.prototype_attention", ("masc.detector.prototype_attention",)),
    Layer("detector.detect", ("masc.simulator.detect",)),
    Layer(
        "detector.score_trajectory",
        ("masc.score_trajectory", "masc.training.score_trajectory"),
    ),
    Layer(
        "embedding.embed_trajectory",
        ("masc.embed_trajectory", "masc.training.embed_trajectory"),
    ),
    Layer("embedding.embed_step", ("masc.simulator.embed_step",)),
    Layer("embedding.hashing_embed", ("masc.embedding.hashing_embed",), observe=_tokens),
    Layer("trace.load_trajectories", ("masc.load_trajectories",)),
    Layer("trace.parse_trajectory", ("masc.trace.parse_trajectory",)),
    Layer("checkpoint.load_checkpoint", ("masc.load_checkpoint",)),
    Layer("checkpoint.save_checkpoint", ("masc.save_checkpoint",)),
    Layer("simulator.run_trajectory", ("masc.run_trajectory",)),
    Layer("simulator.agent_act", ("workloads.TurnClock.act",)),
    Layer("simulator.inject_fault", ("masc.simulator.inject_fault",)),
    Layer(
        "correction.apply_correction",
        ("masc.simulator.apply_correction",),
        observe=_correction,
    ),
)

# Counters that observers fill; reported as 0 where a workload never adds.
COUNTERS = (
    "optim.params",
    "detector.rows_encoded",
    "embedding.tokens",
    "embedding.distinct_tokens",
    "correction.replaced",
    "correction.failed",
    "correction.protocol_violations",
)


class Tracer:
    """Installs span-recording wrappers for ``layers``; a context manager."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counters: Counter = Counter()
        self.sets: dict[str, set] = {}
        self.absent: list[str] = []
        self.op = None  # id of the trajectory or run being processed
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- counters -------------------------------------------------------------

    def count(self, name: str, n: int = 1):
        self.counters[name] += n

    def gauge(self, name: str, value):
        self.counters[name] = value

    def distinct(self, name: str, items):
        self.sets.setdefault(name, set()).update(items)

    def reset(self):
        """Drop recorded spans and counters; wrappers stay installed."""
        self.spans.clear()
        self.counters.clear()
        self.sets.clear()

    # -- install / restore ----------------------------------------------------

    def __enter__(self):
        for layer in self.layers:
            found = False
            for target in layer.targets:
                site = resolve(target)
                if site is None:
                    continue
                owner, attr = site
                original = getattr(owner, attr)
                own = attr in vars(owner)
                setattr(owner, attr, self._wrap(layer, original))
                self._saved.append((owner, attr, original, own))
                found = True
            if not found:
                self.absent.append(layer.name)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return False

    def _wrap(self, layer: Layer, original):
        name, observe = layer.name, layer.observe
        if not layer.span:

            def counting(*args, **kwargs):
                self.counters[name + ".calls"] += 1
                return original(*args, **kwargs)

            return counting
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- aggregation ----------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int], float]:
        """(self seconds per layer, calls per layer, seconds under top-level spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        covered = 0.0
        for (name, start, end, parent, _), inner in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                covered += end - start
        for key, n in self.counters.items():
            if key.endswith(".calls"):
                calls[key[: -len(".calls")]] = n
        return self_s, calls, covered

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
