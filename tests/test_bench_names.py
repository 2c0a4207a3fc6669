"""The names the benchmark's tracer wraps must exist in the program.

``bench/tracing.py`` wraps functions by dotted name; a name that no longer
resolves makes its layer absent and its metrics read 0 without an error.
This test loads the tracer and the workloads it names without writing
anything under ``bench/`` (no bytecode), and checks every target.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Targets whose functions are gone; retargeting them is a change to the
# benchmark itself (see ROADMAP "Benchmark upkeep").
STALE = {
    "masc.autodiff.Tensor.backward",
    "masc.autodiff.Tensor.__init__",
    "masc.simulator.detect",
    "masc.embedding.hashing_embed",
}


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))  # for ``workloads.TurnClock.act``
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    had_workloads = "workloads" in sys.modules
    try:
        targets = {target for layer in tracing.LAYERS for target in layer.targets}
        missing = {target for target in targets if tracing.resolve(target) is None}
    finally:
        if not had_workloads:
            sys.modules.pop("workloads", None)
    assert missing <= STALE, sorted(missing - STALE)
    assert "masc.detector.FrozenMixer.run" in targets - missing
