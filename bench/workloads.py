"""The benchmark's workloads: ``train``, ``score`` and ``inloop``.

Each workload is set up from a seed, then runs whole rounds of the same
operations, one at a time (a closed loop from one process). Every round of a
run does identical work on identical inputs, so rounds can be compared with
each other. The workloads call only the package's public names (``masc.train``,
``masc.score_trajectory``, ...) and the ``masc.synthetic`` and
``masc.fixtures`` generators, looked up at call time so that a tracer can wrap
them.

Correctness is checked after the timed phase, against values the benchmark
computes itself or properties the method must have; no check compares with a
stored copy of earlier output. The check functions take plain data so the
self-test can show that each one rejects a corrupted output.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import masc
from masc import fixtures, synthetic
from masc.errors import MascError

ALPHA = 1.0
BETA = 1.0
AUC_FLOOR = 0.9
RECOMPUTE_RTOL = 1e-12
ANSWER = re.compile(r"ANSWER:\s*(-?\d+)")
_IDENT_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"


def derive(seed: int, tag: str) -> int:
    """An independent 32-bit seed for one input stream of a workload."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class Round:
    """What one round did: operations, trajectory steps, per-op latencies.

    ``signature`` digests the round's outputs; rounds on identical inputs
    must agree on it. ``payload`` holds the outputs themselves for the
    checks, and is dropped after the first round so that memory does not
    grow with the number of rounds a run makes.
    """

    attempted: int
    failed: int
    steps: int
    latencies: list[float]
    wall: float
    signature: str = ""
    payload: object = None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()


def check_signatures(rounds) -> list[str]:
    found = {r.signature for r in rounds}
    if len(found) > 1:
        return [f"{len(rounds)} rounds on identical inputs gave {len(found)} different outputs"]
    return []


# -- checks -------------------------------------------------------------------


def pairwise_auc(pos, neg) -> float:
    """P(a positive outscores a negative), ties counting half: the O(P*N) definition."""
    p = np.asarray(pos, dtype=np.float64)[:, None]
    n = np.asarray(neg, dtype=np.float64)[None, :]
    wins = (p > n).sum() + 0.5 * (p == n).sum()
    return float(wins / (p.size * n.size))


def check_auc(pos, neg, floor: float = AUC_FLOOR) -> list[str]:
    auc = pairwise_auc(pos, neg)
    return [] if auc >= floor else [f"AUC {auc:.4f} below the floor {floor}"]


def check_verdicts(verdicts, delta: float) -> list[str]:
    """Score is alpha*recon + beta*proto, the flag is score > delta, t runs 1..T."""
    out = []
    for i, v in enumerate(verdicts, start=1):
        if v.score != v.alpha * v.recon_term + v.beta * v.proto_term:
            out.append(f"t={v.t}: score {v.score!r} is not alpha*recon + beta*proto")
        if v.flagged != (v.score > delta):
            out.append(f"t={v.t}: flagged={v.flagged} but score {v.score!r}, delta {delta!r}")
        if v.t != i:
            out.append(f"verdict {i} carries t={v.t}")
    return out


def check_calibration(scores, delta: float, quantile: float) -> list[str]:
    """A q-quantile threshold leaves at most ceil((1-q) n) + 1 scores above it."""
    n = len(scores)
    above = sum(1 for s in scores if s > delta)
    limit = math.ceil(round((1.0 - quantile) * n, 9)) + 1  # round: 1 - 0.99 != 0.01
    if above > limit:
        return [f"{above} of {n} calibration steps above delta, limit {limit}"]
    return []


def check_recomputed(in_loop, recomputed, skip=()) -> list[str]:
    """In-loop scores match a full causal pass to a relative RECOMPUTE_RTOL."""
    out = []
    for t, (a, b) in enumerate(zip(in_loop, recomputed), start=1):
        if t in skip:
            continue
        if abs(a - b) > RECOMPUTE_RTOL * max(abs(a), abs(b)):
            out.append(f"t={t}: in-loop score {a!r} but full pass {b!r}")
    if len(in_loop) != len(recomputed):
        out.append(f"{len(in_loop)} in-loop verdicts for {len(recomputed)} steps")
    return out


_OPS = {"add": lambda x, y: x + y, "subtract": lambda x, y: x - y,
        "multiply by": lambda x, y: x * y}


def fixture_value(fixture) -> int:
    """The task's answer, from the fixture's operands: (a op1 b) op2 c."""
    return _OPS[fixture.op2](_OPS[fixture.op1](fixture.a, fixture.b), fixture.c)


def check_answer(fixture, final_output: str) -> list[str]:
    found = ANSWER.findall(final_output)
    want = fixture_value(fixture)
    if not found or int(found[-1]) != want:
        return [f"{fixture.fixture_id}: final step {final_output!r}, expected ANSWER: {want}"]
    return []


def _step_scores(model, trajectories, delta=math.inf):
    """Verdict lists for each trajectory, scored in one causal pass each."""
    out = []
    for trajectory in trajectories:
        q_vec, steps = masc.embed_trajectory(model.embedder, trajectory)
        out.append(masc.score_trajectory(model, q_vec, steps, ALPHA, BETA, delta))
    return out


def _labeled_scores(model, trajectories):
    pos, neg = [], []
    for trajectory, verdicts in zip(trajectories, _step_scores(model, trajectories)):
        for step, v in zip(trajectory.steps, verdicts):
            (pos if step.label == 1 else neg).append(v.score)
    return pos, neg


def _with_identifiers(trajectories, seed: int):
    """Append a seeded free-form identifier to every step's output."""
    rng = random.Random(seed)
    out = []
    for trajectory in trajectories:
        steps = []
        for step in trajectory.steps:
            ident = "".join(rng.choice(_IDENT_CHARS) for _ in range(8))
            steps.append(replace(step, output=f"{step.output} ref {ident}"))
        out.append(replace(trajectory, steps=tuple(steps)))
    return out


# -- workloads ----------------------------------------------------------------


def _train_config(size, seed: int):
    """The TrainConfig of a workload's size: its detector shape and schedule."""
    return masc.TrainConfig(
        epochs=size.epochs, lr=size.lr, lam=0.2, seed=seed, d_h=size.d_h,
        embedder=masc.EmbedderSpec(dimension=size.d_e),
        backbone=masc.BackboneSpec(hidden_dim=size.d_h, layers=size.layers, seed=seed),
    )


class Workload:
    """Set up from a seed, run identical rounds, check what they produced."""

    op_name = ""  # what one latency sample times, for the printed summary

    def __init__(self, size):
        self.size = size
        self.tracer = None  # set by a traced run, to label spans

    def _op(self, op_id):
        if self.tracer is not None:
            self.tracer.op = op_id

    def setup(self, seed: int, workdir: Path) -> str:
        """Build inputs (and any model) for ``seed``; returns a fingerprint."""
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class TrainSize:
    n_short: int = 180
    t_short: int = 3
    n_long: int = 20
    t_long: int = 24
    epochs: int = 2
    lr: float = 3e-3
    d_e: int = 64
    d_h: int = 256
    layers: int = 2
    n_heldout: int = 60
    t_heldout: int = 6


class TrainWorkload(Workload):
    """One ``masc.train`` call per round at the criterion-9 detector shape."""

    op_name = "train_call"

    def setup(self, seed, workdir):
        s = self.size
        corpus = synthetic.make_normal_corpus(
            s.n_short, derive(seed, "short"), T=s.t_short, prefix="short"
        ) + synthetic.make_normal_corpus(
            s.n_long, derive(seed, "long"), T=s.t_long, prefix="long"
        )
        random.Random(derive(seed, "order")).shuffle(corpus)
        path = str(workdir / "train.jsonl")
        masc.save_trajectories(path, corpus)
        self.corpus = masc.load_trajectories(path)
        self.heldout = synthetic.make_anomaly_corpus(
            s.n_heldout, derive(seed, "heldout"), T=s.t_heldout
        )
        self.cfg = _train_config(s, seed)
        self.steps = sum(len(t) for t in self.corpus) * s.epochs
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def run_round(self):
        self._op("train")
        start = time.perf_counter()
        try:
            model, report = masc.train(self.cfg, self.corpus)
        except MascError:
            return Round(1, 1, 0, [], time.perf_counter() - start)
        wall = time.perf_counter() - start
        losses = [(e.mean_recon, e.mean_proto, e.mean_total) for e in report.epochs]
        signature = _digest(report.param_digest, losses)
        return Round(1, 0, self.steps, [wall], wall, signature, (model, report))

    def check(self, rounds):
        if rounds[0].payload is None:
            return ["the first train() call failed"]
        model, report = rounds[0].payload
        out = check_signatures(rounds)
        losses = [(e.mean_recon, e.mean_proto, e.mean_total) for e in report.epochs]
        if not np.all(np.isfinite(losses)):
            out.append(f"non-finite epoch loss in {losses}")
        if not report.epochs[-1].mean_total < report.epochs[0].mean_total:
            out.append(
                f"last epoch loss {report.epochs[-1].mean_total!r} not below "
                f"the first {report.epochs[0].mean_total!r}"
            )
        return out + check_auc(*_labeled_scores(model, self.heldout))


@dataclass(frozen=True)
class ScoreSize:
    d_e: int = 64
    d_h: int = 384
    layers: int = 2
    n_train: int = 120
    t_train: int = 12
    epochs: int = 2
    lr: float = 3e-3
    n_normal: int = 100
    t_normal: int = 12
    labeled_lengths: tuple[int, ...] = (6, 12, 24)
    n_per_length: int = 60
    quantile: float = 0.99
    n_sample: int = 10


class ScoreWorkload(Workload):
    """Load a checkpoint and two trace files, calibrate, score every trajectory."""

    op_name = "traj"

    def setup(self, seed, workdir):
        s = self.size
        train_set = _with_identifiers(
            synthetic.make_normal_corpus(s.n_train, derive(seed, "train"), T=s.t_train),
            derive(seed, "train-ids"),
        )
        normal = _with_identifiers(
            synthetic.make_normal_corpus(
                s.n_normal, derive(seed, "normal"), T=s.t_normal, prefix="calib"
            ),
            derive(seed, "normal-ids"),
        )
        labeled = []
        for length in s.labeled_lengths:
            labeled += synthetic.make_anomaly_corpus(
                s.n_per_length, derive(seed, f"labeled-{length}"), T=length,
                prefix=f"labeled-t{length}",
            )
        labeled = _with_identifiers(labeled, derive(seed, "labeled-ids"))
        self.model, _ = masc.train(_train_config(s, seed), train_set)
        self.paths = {
            "checkpoint": str(workdir / "score.ckpt"),
            "normal": str(workdir / "normal.jsonl"),
            "labeled": str(workdir / "labeled.jsonl"),
        }
        masc.save_checkpoint(self.model, None, self.paths["checkpoint"])
        masc.save_trajectories(self.paths["normal"], normal)
        masc.save_trajectories(self.paths["labeled"], labeled)
        self.labeled = labeled
        return self.model.param_digest()

    def run_round(self):
        start = time.perf_counter()
        n_ops = len(self.labeled)
        try:
            self._op("load")
            model, _ = masc.load_checkpoint(self.paths["checkpoint"])
            normal = masc.load_trajectories(self.paths["normal"])
            labeled = masc.load_trajectories(self.paths["labeled"])
            self._op("calibrate")
            cal = masc.calibrate_threshold(
                model, normal, quantile=self.size.quantile, alpha=ALPHA, beta=BETA
            )
        except MascError:
            return Round(n_ops, n_ops, 0, [], time.perf_counter() - start)
        latencies, verdicts, failed = [], [], 0
        steps = sum(len(t) for t in normal)
        for trajectory in labeled:
            self._op(trajectory.id)
            t0 = time.perf_counter()
            try:
                q_vec, embs = masc.embed_trajectory(model.embedder, trajectory)
                out = masc.score_trajectory(model, q_vec, embs, ALPHA, BETA, cal.delta)
            except MascError:
                failed += 1
                continue
            latencies.append(time.perf_counter() - t0)
            verdicts.append(out)
            steps += len(trajectory)
        wall = time.perf_counter() - start
        signature = _digest(cal.delta, [[v.score for v in vs] for vs in verdicts])
        return Round(
            n_ops, failed, steps, latencies, wall, signature, (model, normal, cal, verdicts)
        )

    def check(self, rounds):
        if rounds[0].failed:
            return ["the first round did not score every trajectory"]
        model, normal, cal, verdicts = rounds[0].payload
        out = check_signatures(rounds)
        for trajectory, vs in zip(self.labeled, verdicts):
            if len(vs) != len(trajectory):
                out.append(f"{trajectory.id}: {len(vs)} verdicts for {len(trajectory)} steps")
            out += check_verdicts(vs, cal.delta)
        pos, neg, rows = [], [], []
        for trajectory, vs in zip(self.labeled, verdicts):
            for step, v in zip(trajectory.steps, vs):
                (pos if step.label == 1 else neg).append(v.score)
                rows.append(masc.ScoredStep(trajectory.id, v.t, v.score, step.label))
        out += check_auc(pos, neg)
        own, program = pairwise_auc(pos, neg), masc.auc_roc(rows)
        if abs(own - program) > 1e-12:
            out.append(f"auc_roc {program!r} differs from the pairwise AUC {own!r}")
        calib = [v.score for vs in _step_scores(model, normal) for v in vs]
        out += check_calibration(calib, cal.delta, cal.quantile)
        sample = self.labeled[: self.size.n_sample]
        for trajectory, mine, loaded in zip(sample, _step_scores(self.model, sample), verdicts):
            if [v.score for v in mine] != [v.score for v in loaded]:
                out.append(f"{trajectory.id}: reloaded checkpoint scores differ")
        return out


@dataclass(frozen=True)
class InloopSize:
    d_e: int = 64
    d_h: int = 256
    layers: int = 2
    n_fixtures: int = 4
    rounds: int = 40  # T = 3 * rounds turns per run
    topologies: tuple[str, ...] = ("chain", "complete", "random")
    epochs: int = 10
    lr: float = 3e-3
    quantile: float = 0.99


class TurnClock:
    """Times the program between agent turns of one run.

    A turn's time runs from the return of the agent callable at turn t to
    its call at turn t+1, or to ``finish`` after ``run_trajectory`` returns:
    fault injection, embedding, detection, correction and bookkeeping.
    """

    def __init__(self):
        self.durations: list[float] = []
        self._last: float | None = None

    def agents(self, specs):
        def timed(template):
            return lambda query, visible, t: self.act(template, query, visible, t)

        return [masc.AgentSpec(role=s.role, template=timed(s.template)) for s in specs]

    def act(self, template, query, visible, t):
        now = time.perf_counter()
        if self._last is not None:
            self.durations.append(now - self._last)
        output = template(query, visible, t)
        self._last = time.perf_counter()
        return output

    def finish(self):
        if self._last is not None:
            self.durations.append(time.perf_counter() - self._last)
        self._last = None


class RecordingCorrector:
    """Delegates to the oracle corrector and records which steps it rewrote."""

    def __init__(self, clean_outputs: list[str]):
        self._oracle = fixtures.oracle_corrector(clean_outputs)
        self._clean = clean_outputs
        self.calls = 0
        self.rewritten: set[int] = set()

    def reply(self, req, prompt):
        self.calls += 1
        t = len(req.history) + 1
        if t <= len(self._clean) and self._clean[t - 1] != req.flagged_output:
            self.rewritten.add(t)
        return self._oracle.reply(req, prompt)


@dataclass
class InloopRun:
    report: object
    calls: int
    rewritten: set[int]


class InloopWorkload(Workload):
    """``run_trajectory`` with one injected fault, detection and correction."""

    op_name = "turn"

    def setup(self, seed, workdir):
        s = self.size
        suite = fixtures.make_fixture_suite(s.n_fixtures, seed=derive(seed, "fixtures"))
        self.runs = []  # (run id, fixture, topology, fault, clean report)
        for kind in s.topologies:
            for i, fixture in enumerate(suite):
                topology = masc.Topology(
                    kind, 3, edge_seed=derive(seed, f"edges:{kind}:{i}"), rounds=s.rounds
                )
                run_id = f"{kind}/{fixture.fixture_id}"
                clean = masc.run_trajectory(
                    fixtures.fixture_agents(), topology, fixture.query, trace_id=run_id
                )
                fault = masc.FaultSpec(
                    target_agent=1, step_selector="uniform",
                    seed=derive(seed, f"fault:{kind}:{i}"),
                )
                self.runs.append((run_id, fixture, topology, fault, clean))
        pooled = [clean.trajectory for *_, clean in self.runs]
        self.model, _ = masc.train(_train_config(s, seed), pooled)
        self.calibration = masc.calibrate_threshold(
            self.model, pooled, quantile=s.quantile, alpha=ALPHA, beta=BETA
        )
        return f"{self.model.param_digest()}:{self.calibration.delta!r}"

    def run_round(self):
        start = time.perf_counter()
        latencies, results, failed, steps = [], [], 0, 0
        for run_id, fixture, topology, fault, clean in self.runs:
            self._op(run_id)
            clock = TurnClock()
            corrector = RecordingCorrector([s.output for s in clean.trajectory.steps])
            hook = masc.MascHook(
                model=self.model, alpha=ALPHA, beta=BETA,
                delta=self.calibration.delta, policy=corrector,
            )
            try:
                report = masc.run_trajectory(
                    clock.agents(fixtures.fixture_agents()), topology, fixture.query,
                    fault=fault, masc=hook, trace_id=run_id,
                )
            except MascError:
                failed += 1
                results.append(None)
                continue
            clock.finish()
            failed += int(report.aborted)
            latencies += clock.durations
            steps += len(clock.durations)
            results.append(InloopRun(report, corrector.calls, corrector.rewritten))
        wall = time.perf_counter() - start
        signature = _digest([_run_signature(run) for run in results])
        return Round(len(self.runs), failed, steps, latencies, wall, signature, results)

    def check(self, rounds):
        out = check_signatures(rounds)
        T = 3 * self.size.rounds
        for run_id, fixture, _, _, clean in self.runs:
            out += check_answer(fixture, clean.trajectory.steps[-1].output)
        first = rounds[0].payload
        for (run_id, _, _, _, clean), run in zip(self.runs, first):
            if run is None:
                out.append(f"{run_id}: run_trajectory raised")
                continue
            report = run.report
            if report.aborted or report.trajectory is None or len(report.trajectory) != T:
                out.append(f"{run_id}: did not complete {T} turns")
                continue
            if run.calls != report.flagged:
                out.append(f"{run_id}: {run.calls} corrector calls, {report.flagged} flagged")
            if report.fault_step in run.rewritten and report.trajectory.steps != clean.trajectory.steps:
                out.append(f"{run_id}: fault step rewritten but the run differs from the clean run")
            (recomputed,) = _step_scores(self.model, [report.trajectory])
            out += [
                f"{run_id}: {msg}"
                for msg in check_recomputed(
                    [v.score for v in report.verdicts],
                    [v.score for v in recomputed],
                    skip=run.rewritten,
                )
            ]
        return out


def _run_signature(run):
    if run is None:
        return None
    return (run.report.trajectory, [v.score for v in run.report.verdicts], run.calls)


WORKLOADS = {
    "train": (TrainWorkload, TrainSize()),
    "score": (ScoreWorkload, ScoreSize()),
    "inloop": (InloopWorkload, InloopSize()),
}


def make(name: str, size=None) -> Workload:
    cls, default = WORKLOADS[name]
    return cls(size if size is not None else default)
