"""Self-test of the benchmark: tiny workloads, checks that bite, tracing that survives.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import math
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import masc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "train": workloads.TrainSize(
        n_short=12, n_long=2, t_long=8, epochs=3, lr=1e-2, d_e=16, d_h=32, n_heldout=20
    ),
    "score": workloads.ScoreSize(
        d_e=16, d_h=32, n_train=20, t_train=6, epochs=3, lr=1e-2, n_normal=10,
        t_normal=6, labeled_lengths=(4, 8), n_per_length=6, n_sample=3,
    ),
    "inloop": workloads.InloopSize(d_e=16, d_h=32, n_fixtures=2, rounds=3, epochs=8, lr=1e-2),
}


def tiny(name, tmp_path, seed=3):
    workload = workloads.make(name, TINY[name])
    fingerprint = workload.setup(seed, tmp_path)
    assert workload.setup(seed, tmp_path) == fingerprint, "set-up is not deterministic"
    return workload


@pytest.fixture(scope="module")
def inloop(tmp_path_factory):
    workload = tiny("inloop", tmp_path_factory.mktemp("inloop"))
    return workload, workload.run_round()


@pytest.mark.parametrize("name", ["train", "score", "inloop"])
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = tiny(name, tmp_path)
    rounds = [workload.run_round(), workload.run_round()]
    assert all(r.failed == 0 and r.attempted > 0 and r.steps > 0 for r in rounds)
    assert all(r.latencies for r in rounds)
    assert workload.check(rounds) == []


def test_shuffled_scores_fail_the_auc_floor(tmp_path):
    workload = tiny("score", tmp_path)
    _, _, _, verdicts = workload.run_round().payload
    scores, labels = [], []
    for trajectory, vs in zip(workload.labeled, verdicts):
        for step, v in zip(trajectory.steps, vs):
            scores.append(v.score)
            labels.append(step.label)

    def split(values):
        pos = [s for s, label in zip(values, labels) if label == 1]
        neg = [s for s, label in zip(values, labels) if label == 0]
        return pos, neg

    assert workloads.check_auc(*split(scores)) == []
    random.Random(0).shuffle(scores)
    assert workloads.check_auc(*split(scores)) != []


def test_pairwise_auc_counts_ties_half():
    assert workloads.pairwise_auc([2.0, 1.0], [1.0, 0.0]) == pytest.approx(0.875)


def test_altered_final_answer_fails_the_arithmetic_check(inloop):
    workload, _ = inloop
    _, fixture, _, _, clean = workload.runs[0]
    final = clean.trajectory.steps[-1].output
    assert workloads.check_answer(fixture, final) == []
    value = workloads.fixture_value(fixture)
    altered = final.replace(f"ANSWER: {value}", f"ANSWER: {value + 1}")
    assert altered != final
    assert workloads.check_answer(fixture, altered) != []


def test_perturbed_verdict_fails_the_recomputation_check(inloop):
    workload, result = inloop
    run_ = result.payload[0]
    in_loop = [v.score for v in run_.report.verdicts]
    (full,) = workloads._step_scores(workload.model, [run_.report.trajectory])
    recomputed = [v.score for v in full]
    assert workloads.check_recomputed(in_loop, recomputed, run_.rewritten) == []
    t = next(t for t in range(1, len(in_loop) + 1) if t not in run_.rewritten)
    in_loop[t - 1] *= 1 + 1e-9
    assert workloads.check_recomputed(in_loop, recomputed, run_.rewritten) != []


def test_perturbed_verdict_fails_the_identity_checks(inloop):
    _, result = inloop
    report = result.payload[0].report
    verdicts, delta = report.verdicts, report.verdicts[0].delta
    assert workloads.check_verdicts(verdicts, delta) == []
    v = verdicts[0]
    assert workloads.check_verdicts([replace(v, score=v.score * (1 + 1e-12))], delta)
    assert workloads.check_verdicts([replace(v, flagged=not v.flagged)], delta)
    assert workloads.check_verdicts(list(reversed(verdicts)), delta)


def test_calibration_check_bounds_the_exceedances():
    scores = [float(i) for i in range(100)]
    assert workloads.check_calibration(scores, 98.0, 0.99) == []
    assert workloads.check_calibration(scores, 96.5, 0.99) != []


def test_differing_rounds_fail_the_signature_check():
    a = workloads.Round(1, 0, 1, [0.1], 0.1, "x")
    b = workloads.Round(1, 0, 1, [0.1], 0.1, "y")
    assert workloads.check_signatures([a, a]) == []
    assert workloads.check_signatures([a, b]) != []


def test_tracer_reports_a_missing_name_as_an_absent_layer(inloop):
    workload, untraced = inloop
    ghost = tracing.Layer("ghost.layer", ("masc.detector.no_such_function",))
    gone = tracing.Layer("gone.module", ("masc.no_such_module.f",))
    original = masc.simulator.detect
    with tracing.Tracer(tracing.LAYERS + (ghost, gone)) as tracer:
        assert masc.simulator.detect is not original
        result = workload.run_round()
        sample = run.layer_sample(tracer, result.wall)
    assert masc.simulator.detect is original
    assert tracer.absent == ["ghost.layer", "gone.module"]
    assert sample["ghost.layer.self_ms"] == 0 and sample["ghost.layer.calls"] == 0
    assert sample["detector.detect.calls"] == 3 * TINY["inloop"].rounds * len(workload.runs)
    assert sample["simulator.turns"] == sample["detector.detect.calls"]
    assert result.signature == untraced.signature, "tracing changed the program's output"


def outer():
    return inner() + inner()


def inner():
    return sum(range(1000))


def test_self_times_partition_the_covered_time():
    layers = (
        tracing.Layer("outer", (f"{__name__}.outer",)),
        tracing.Layer("inner", (f"{__name__}.inner",)),
    )
    module = sys.modules[__name__]
    with tracing.Tracer(layers) as tracer:
        module.outer()
        module.outer()
    self_s, calls, covered = tracer.layer_totals()
    assert calls == {"outer": 2, "inner": 4}
    assert math.isclose(self_s["outer"] + self_s["inner"], covered, rel_tol=1e-9)
    assert all(parent == -1 for name, _, _, parent, _ in tracer.spans if name == "outer")


def test_outside_a_checkout_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
