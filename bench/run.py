"""Benchmark for masc: end-to-end runs of train, score and inloop, and a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload {train,score,inloop,all} --seed N \
        --seconds S --trace {0,1}

One workload runs per process. It is set up from ``--seed``, then runs whole
rounds of identical operations until ``--seconds`` have passed, then checks
every output. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A full record (environment, sizes, p99 latencies, check
results) goes to ``bench/results/``. The exit code is 1 if a check failed.

``--workload all`` runs the three workloads one after another, each in a
fresh process, and prints a summary.

``masc`` is imported from this repository's ``src`` directory; nothing needs
to be installed. BLAS is pinned to one thread before numpy is imported.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("train", "score", "inloop")
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Set-up is repeated and its median reported, so one slow repetition (a
# page-cache miss, a neighbour's burst) does not move setup_s.
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "masc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def measure(workload, seconds: float) -> list:
    """Whole rounds, one after another, until ``seconds`` have passed."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round())
        if len(rounds) > 1:
            rounds[-1].payload = None
    return rounds


def end_to_end(workload, rounds, setup_s: float, import_s: float) -> tuple[dict, dict]:
    """(metrics for BENCHMARK.json, extra figures for the record)."""
    latencies = [x for r in rounds for x in r.latencies]
    timed = sum(r.wall for r in rounds)
    metrics = {
        "setup_s": import_s + setup_s,
        "steps_per_s": sum(r.steps for r in rounds) / timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
    }
    extra = {
        "import_s": import_s,
        "timed_s": timed,
        "rounds": len(rounds),
        "round_walls_s": [r.wall for r in rounds],
        "round_steps": [r.steps for r in rounds],
        "latencies_s": latencies,
        "latency_samples": len(latencies),
        f"{workload.op_name}_p50_ms": metrics["op_p50_ms"],
    }
    # A p99 needs ten samples beyond it to be a tail rather than one outlier.
    if len(latencies) >= 1000:
        p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
        extra[f"{workload.op_name}_p99_ms"] = 1000.0 * p99
    return metrics, extra


def layer_sample(tracer, wall: float) -> dict:
    """Per-layer self time, calls and counters of what ``tracer`` recorded."""
    from tracing import COUNTERS

    self_s, calls, covered = tracer.layer_totals()
    sample = {"tracing.uncovered_pct": 100.0 * (wall - covered) / wall}
    for layer in tracer.layers:
        sample[f"{layer.name}.self_ms"] = 1000.0 * self_s.get(layer.name, 0.0)
        sample[f"{layer.name}.calls"] = calls.get(layer.name, 0)
    for name in COUNTERS:
        sample[name] = len(tracer.sets[name]) if name in tracer.sets else tracer.counters[name]
    sample["autodiff.tensors"] = sample.pop("autodiff.tensors.calls")
    sample["simulator.turns"] = sample["simulator.agent_act.calls"]
    return sample


def per_layer(workload, seed: int, workdir: Path, seconds: float):
    """Traced set-up, untraced rounds, then traced rounds.

    Returns (fingerprint, set-up seconds, all rounds, metrics, record). Layer
    metrics are per round of the timed phase; ``setup.``-prefixed ones cover
    the one traced set-up.
    """
    from tracing import Tracer

    with Tracer() as tracer:
        workload.tracer = tracer
        tracer.op = "setup"
        t0 = time.perf_counter()
        fingerprint = workload.setup(seed, workdir)
        setup_s = time.perf_counter() - t0
        metrics = {f"setup.{k}": v for k, v in layer_sample(tracer, setup_s).items()}
    workload.tracer = None
    plain = measure(workload, seconds / 2)
    traced, totals, spans = [], {}, []
    with Tracer() as tracer:
        workload.tracer = tracer
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds / 2:
            tracer.reset()
            traced.append(workload.run_round())
            traced[-1].payload = None
            for key, value in layer_sample(tracer, traced[-1].wall).items():
                totals[key] = totals.get(key, 0.0) + value
        spans = tracer.span_records()
    workload.tracer = None
    metrics.update({key: value / len(traced) for key, value in totals.items()})
    plain_ms = 1000.0 * statistics.median(r.wall for r in plain)
    traced_ms = 1000.0 * statistics.median(r.wall for r in traced)
    metrics["tracing.overhead_ms"] = traced_ms - plain_ms
    metrics["tracing.overhead_pct"] = 100.0 * (traced_ms - plain_ms) / plain_ms
    record = {
        "absent_layers": tracer.absent,
        "untraced_round_ms": plain_ms,
        "traced_round_ms": traced_ms,
        "traced_rounds": len(traced),
        "spans_of_last_round": spans,
    }
    return fingerprint, setup_s, plain + traced, metrics, record


def run_one(args) -> int:
    if not (SRC / "masc" / "__init__.py").is_file():
        print(f"error: no masc package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import masc  # noqa: F401
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    declared = declared_metrics(args.trace)
    workload = workloads.make(args.workload)
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, prints = [], set()
        if args.trace:
            fingerprint, setup_s, rounds, metrics, record = per_layer(
                workload, args.seed, workdir, args.seconds
            )
            setups.append(setup_s)
            prints.add(fingerprint)
        else:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                prints.add(workload.setup(args.seed, workdir))
                setups.append(time.perf_counter() - t0)
            rounds = measure(workload, args.seconds)
            metrics, record = end_to_end(
                workload, rounds, statistics.median(setups), import_s
            )
        failures = workload.check(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(prints) != 1:
        failures.append(f"{len(setups)} set-ups from one seed gave {len(prints)} inputs")

    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }
    spans = record.pop("spans_of_last_round", None)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        size=vars(workload.size), setup_repeats_s=setups, environment=environment(),
        failures=failures, all_metrics=metrics, result=result,
    )
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2, default=list))
    if spans is not None:
        with open(RESULTS / f"spans-{stem}.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    shown = {name: (metrics[name], unit) for name, unit in declared.items()}
    shown.update({k: (v, "ms") for k, v in record.items() if k.endswith("_ms")})
    for name, (value, unit) in shown.items():
        print(f"  {name:<40} {value:>14.4f} {unit}")
    if args.trace:
        print(f"  absent layers: {', '.join(record['absent_layers']) or 'none'}")
    print(f"  ops attempted {result['attempted']}  failed {result['failed']}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process; a summary line per workload."""
    status, summary = 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
