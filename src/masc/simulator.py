"""Turn-based multi-agent simulator with fault injection and in-loop detection.

Agents act one per time step following a deterministic schedule derived from
the topology: a chain follows the path order; complete and random graphs
iterate agents in index order, ``rounds`` full passes. Each agent sees the
query plus the messages emitted by itself and its graph neighbors.

A fault corrupts exactly one (agent, step) per run. With detection enabled,
a ``DetectorStream`` scores every produced output against the shared
history before it is committed; flagged outputs go through the correction
agent, and the corrected text is what the stream commits and what lands in
the history that later agents see. A turn's detection cost does not grow
with the length of the history, and neither does its bookkeeping: each
agent's visible (role, output) list is kept as the run goes, one append per
committed turn and watching agent, and handed to the agent as a copy.

Per turn, with detection: ``embed_step`` embeds the output (the role half
memoized), ``DetectorStream.score`` judges it against the committed
history, and ``DetectorStream.commit`` appends the kept step; the
``DetectorStream`` docstring says what a turn costs. Only a flagged step
builds a ``CorrectionRequest``; it carries the full committed history,
steps 1..t-1 as (role, output) pairs, whatever the acting agent could see.

An agent's output must follow the rule a trace ``Step`` applies: a
non-empty string with no lone surrogate. One that breaks it ends the run
like a transport failure: ``RunReport.aborted`` and ``error`` are set, and
the trajectory keeps the steps committed before it.

An agent is a role plus a callable. The simulator judges no run: the caller
that knows the task sets ``RunReport.task_correct``, as the fixture suite's
``run_fixture`` does.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass, field
from typing import Callable

from .correction import (
    CorrectionPolicy,
    CorrectionRequest,
    apply_correction,
    render_transcript,
)
from .detector import AnomalyVerdict, DetectorModel, DetectorStream, check_score_settings
from .embedding import embed_step, embed_text
from .errors import ConfigError, DataError, TraceValidationError, TransportError, check_int
from .trace import Step, Trajectory, _check_text, is_early_step
from .transport import chat, new_session

logger = logging.getLogger(__name__)

# (query, visible history as (role, output) pairs, 1-based step index) -> output
AgentFn = Callable[[str, list[tuple[str, str]], int], str]

_NUMBER = re.compile(r"-?\d+")


@dataclass(frozen=True)
class AgentSpec:
    """One agent: its role and the callable that produces its output."""

    role: str
    template: AgentFn

    def __post_init__(self):
        if not self.role:
            raise ConfigError("agent role must be non-empty")
        if not callable(self.template):
            raise ConfigError(f"agent {self.role!r} needs a callable template")


def remote_chat_agent(role: str, endpoint: str, model_name: str) -> AgentSpec:
    """An agent backed by the POST {endpoint}/chat contract."""
    if not endpoint or not model_name:
        raise ConfigError("remote chat agent requires endpoint and model_name")
    session = new_session()

    def act(query: str, visible: list[tuple[str, str]], t: int) -> str:
        prompt = (
            f"You are {role} in a multi-agent collaboration.\n"
            f"Task: {query}\n"
            f"Visible context:\n{render_transcript(visible)}\n"
            f"Respond with your contribution for step {t}."
        )
        return chat(session, endpoint, model_name, prompt)

    return AgentSpec(role, act)


@dataclass(frozen=True)
class Topology:
    kind: str  # "chain" | "complete" | "random"
    n_agents: int
    edge_seed: int = 0
    rounds: int = 1

    def __post_init__(self):
        if self.kind not in ("chain", "complete", "random"):
            raise ConfigError(f"unknown topology kind {self.kind!r}")
        if self.n_agents < 1 or self.rounds < 1:
            raise ConfigError("topology needs n_agents >= 1 and rounds >= 1")


@dataclass(frozen=True)
class FaultSpec:
    """Exactly one corrupted (agent, step) per run."""

    target_agent: int | str = "random"  # agent index or "random"
    step_selector: int | str = "uniform"  # fixed t | "uniform" | "early"
    corruption: str = "misleading_template"  # | "scramble"
    seed: int = 0

    def __post_init__(self):
        if self.corruption not in ("misleading_template", "scramble"):
            raise ConfigError(f"unknown corruption {self.corruption!r}")
        if self.step_selector not in ("uniform", "early"):
            check_int(self.step_selector, "fault step ('uniform', 'early' or an index)", 1)
        if self.target_agent != "random":
            check_int(self.target_agent, "fault target ('random' or an index)", 0)


@dataclass
class MascHook:
    """Detector plus correction policy threaded through a run. The settings
    must pass ``check_score_settings``; a delta of -inf flags every step."""

    model: DetectorModel
    alpha: float
    beta: float
    delta: float
    policy: CorrectionPolicy

    def __post_init__(self):
        check_score_settings(self.alpha, self.beta, self.delta)


@dataclass
class RunReport:
    trajectory: Trajectory | None
    verdicts: list[AnomalyVerdict] = field(default_factory=list)
    flagged: int = 0
    interventions: int = 0
    corrections_failed: int = 0
    task_correct: bool | None = None  # set by a caller that knows the task
    fault_step: int | None = None
    fault_agent: int | None = None
    aborted: bool = False
    error: str | None = None


def edges(topology: Topology) -> frozenset[frozenset[int]]:
    """Undirected edge set; random graphs redraw (seeded) until connected."""
    n = topology.n_agents
    if topology.kind == "chain":
        return frozenset(frozenset((i, i + 1)) for i in range(n - 1))
    if topology.kind == "complete":
        return frozenset(
            frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
        )
    rng = random.Random(topology.edge_seed)
    while True:
        drawn = frozenset(
            frozenset((i, j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        if _connected(n, drawn):
            return drawn


def _connected(n: int, edge_set: frozenset[frozenset[int]]) -> bool:
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for edge in edge_set:
        a, b = tuple(edge)
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == n


def schedule(topology: Topology) -> list[int]:
    """Deterministic turn order: agent indices, ``rounds`` full passes."""
    base = list(range(topology.n_agents))
    return base * topology.rounds


def inject_fault(step_output: str, corruption: str, seed: int = 0) -> str:
    """Corrupt one output; the result never equals the input.

    ``misleading_template`` rewrites the answer span: every occurrence of the
    last integer in the text is replaced by that value plus one. ``scramble``
    applies a seeded token permutation; an output it cannot change that way
    (one token, or only whitespace) gets `` (scrambled)`` appended, so the
    result is never empty.
    """
    if not step_output:
        raise DataError("cannot corrupt empty output")
    if corruption == "misleading_template":
        matches = list(_NUMBER.finditer(step_output))
        if not matches:
            return "misleadingly, " + step_output
        value = matches[-1].group()
        wrong = str(int(value) + 1)
        out = re.sub(rf"(?<![\d-]){re.escape(value)}(?!\d)", wrong, step_output)
        if out == step_output:  # overlapping signs; fall back to append
            out = step_output + " " + wrong
        return out
    tokens = step_output.split()
    rng = random.Random(seed)
    order = list(range(len(tokens)))
    rng.shuffle(order)
    scrambled = [tokens[i] for i in order]
    if scrambled == tokens:
        scrambled = scrambled[1:] + scrambled[:1]
    out = " ".join(scrambled)
    if out in (step_output, ""):  # no token to move, or only whitespace
        out = step_output + " (scrambled)"
    return out


def resolve_fault(fault: FaultSpec, turn_order: list[int]) -> tuple[int, int]:
    """Pick the one (agent, 1-based step) this fault corrupts.

    A fixed step corrupts whoever acts there; an integer target must be
    that agent.
    """
    rng = random.Random(fault.seed)
    total = len(turn_order)
    if isinstance(fault.step_selector, int):
        t = fault.step_selector
        if not (1 <= t <= total):
            raise ConfigError(f"fault step {t} outside schedule of length {total}")
        agent = turn_order[t - 1]
        if fault.target_agent not in ("random", agent):
            raise ConfigError(
                f"fault step {t} is agent {agent}'s turn, not agent "
                f"{fault.target_agent}'s; target the agent that acts there, or "
                "'random' (--target-agent random)"
            )
        return agent, t
    if fault.target_agent == "random":
        target = turn_order[int(rng.random() * total) % total]
    else:
        target = fault.target_agent
        if target not in turn_order:
            raise ConfigError(f"fault target agent {target} never acts")
    candidates = [t for t, a in enumerate(turn_order, start=1) if a == target]
    if fault.step_selector == "early":
        early = [t for t in candidates if is_early_step(t, total)]
        candidates = early or candidates[:1]
    pick = candidates[int(rng.random() * len(candidates)) % len(candidates)]
    return target, pick


def run_trajectory(
    agents: list[AgentSpec],
    topology: Topology,
    query: str,
    fault: FaultSpec | None = None,
    masc: MascHook | None = None,
    trace_id: str = "run",
) -> RunReport:
    """Execute one full schedule; returns the trajectory and per-step verdicts."""
    if len(agents) != topology.n_agents:
        raise ConfigError("agents list must match topology.n_agents")
    turn_order = schedule(topology)
    adjacent = edges(topology)
    # The agents that see emitter i: i itself and its graph neighbors.
    watchers = [
        sorted({i}.union(*(edge for edge in adjacent if i in edge)))
        for i in range(topology.n_agents)
    ]
    report = RunReport(trajectory=None)
    if fault is not None:
        report.fault_agent, report.fault_step = resolve_fault(fault, turn_order)
    history: list[tuple[str, str]] = []  # (role, output) of every committed step
    seen: list[list[tuple[str, str]]] = [[] for _ in range(topology.n_agents)]
    if masc is not None:
        stream = DetectorStream(masc.model, embed_text(masc.model.embedder, query))

    for t, agent_idx in enumerate(turn_order, start=1):
        spec = agents[agent_idx]
        try:
            # A copy: an agent that keeps or mutates its argument changes
            # nothing the run shows later turns.
            output = spec.template(query, list(seen[agent_idx]), t)
            _check_text(output, f"agent {spec.role!r} output at step {t}")
        except (TransportError, TraceValidationError) as exc:
            report.aborted = True
            report.error = str(exc)
            break
        if fault is not None and t == report.fault_step:
            output = inject_fault(output, fault.corruption, fault.seed)
        if masc is not None:
            step_emb = embed_step(masc.model.embedder, spec.role, output)
            verdict = stream.score(step_emb, masc.alpha, masc.beta, masc.delta)
            report.verdicts.append(verdict)
            if verdict.flagged:
                report.flagged += 1
                req = CorrectionRequest(
                    role=spec.role,
                    query=query,
                    history=tuple(history),
                    flagged_output=output,
                    t=t,
                )
                outcome = apply_correction(masc.policy, verdict, req)
                if outcome.failed:
                    report.corrections_failed += 1
                if outcome.replaced:
                    report.interventions += 1
                    output = outcome.output
                    step_emb = embed_step(masc.model.embedder, spec.role, output)
            stream.commit(step_emb)
        history.append((spec.role, output))
        for watcher in watchers[agent_idx]:
            seen[watcher].append((spec.role, output))

    if history:
        report.trajectory = Trajectory(
            id=trace_id,
            query=query,
            steps=tuple(Step(role=role, output=output) for role, output in history),
        )
    return report
