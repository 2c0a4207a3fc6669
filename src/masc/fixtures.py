"""Arithmetic word-problem fixtures with scripted template agents.

Each fixture is a three-operation integer task solved by a
decomposer -> solver -> checker pipeline:

* the decomposer restates the task as a plan,
* the solver computes the intermediate and final values and claims the
  result,
* the checker repeats the latest visible claim as ``ANSWER: <value>``; when
  no claim is visible (the topology hides the solver) it recomputes from the
  plan or the query.

The checker trusts the solver whenever it can see it, so corrupting the
solver's claim corrupts the final answer wherever the solver is visible
downstream; every fixture's correct behavior is computed by this module, so
runs can be judged mechanically.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

from .correction import ScriptedPolicy
from .simulator import AgentSpec, FaultSpec, MascHook, RunReport, Topology, run_trajectory

QUERY_PATTERN = re.compile(
    r"start with (-?\d+)\. then (add|subtract|multiply by) (-?\d+)\. "
    r"then (add|subtract|multiply by) (-?\d+)\.",
    re.IGNORECASE,
)
_SALT_WORDS = (
    "amber", "basalt", "cobalt", "dune", "ember", "fjord", "garnet", "heath",
    "iris", "jasper", "krill", "lumen", "maple", "nadir", "onyx", "pumice",
)
PLAN_PATTERN = re.compile(
    r"plan: start (-?\d+); then (add|subtract|multiply by) (-?\d+); "
    r"then (add|subtract|multiply by) (-?\d+)"
)
CLAIM_PATTERN = re.compile(r"claim (-?\d+)")

OPS = ("add", "subtract", "multiply by")


def _apply(op: str, left: int, right: int) -> int:
    if op == "add":
        return left + right
    if op == "subtract":
        return left - right
    return left * right


@dataclass(frozen=True)
class ArithmeticFixture:
    fixture_id: str
    a: int
    op1: str
    b: int
    op2: str
    c: int
    salt: str = "amber"

    @property
    def query(self) -> str:
        # The salt tag keeps fixture queries well separated in embedding
        # space; the detector conditions on it like any other content.
        return (
            f"Task {self.salt} {self.fixture_id}: start with {self.a}. "
            f"Then {self.op1} {self.b}. Then {self.op2} {self.c}. "
            f"What is the final value?"
        )

    @property
    def expected(self) -> int:
        return _apply(self.op2, _apply(self.op1, self.a, self.b), self.c)


def make_fixture(index: int, seed: int = 0) -> ArithmeticFixture:
    rng = random.Random(f"{seed}:{index}")
    pick = lambda lo, hi: lo + int(rng.random() * (hi - lo + 1))
    return ArithmeticFixture(
        fixture_id=f"fixture-{index:03d}",
        a=pick(2, 59),
        op1=OPS[int(rng.random() * 3) % 3],
        b=pick(2, 39),
        op2=OPS[int(rng.random() * 3) % 3],
        c=pick(2, 9),
        salt=_SALT_WORDS[int(rng.random() * len(_SALT_WORDS)) % len(_SALT_WORDS)],
    )


def make_fixture_suite(n: int, seed: int = 0) -> list[ArithmeticFixture]:
    return [make_fixture(i, seed) for i in range(n)]


def _parse_task(query: str, visible: list[tuple[str, str]]):
    """Prefer the latest visible plan; fall back to the raw query."""
    for _, output in reversed(visible):
        match = PLAN_PATTERN.search(output)
        if match:
            return match.groups()
    match = QUERY_PATTERN.search(query)
    if match is None:
        raise ValueError(f"unparseable task: {query!r}")
    return match.groups()


def _decomposer(query: str, visible: list[tuple[str, str]], t: int) -> str:
    a, op1, b, op2, c = QUERY_PATTERN.search(query).groups()
    return f"plan: start {a}; then {op1.lower()} {b}; then {op2.lower()} {c}"


def _solver(query: str, visible: list[tuple[str, str]], t: int) -> str:
    a, op1, b, op2, c = _parse_task(query, visible)
    a, b, c = int(a), int(b), int(c)
    mid = _apply(op1.lower(), a, b)
    result = _apply(op2.lower(), mid, c)
    return (
        f"calculation: {a} {op1.lower()} {b} = {mid}; "
        f"then {mid} {op2.lower()} {c} = {result}; claim {result}"
    )


def _checker(query: str, visible: list[tuple[str, str]], t: int) -> str:
    # The latest claim: the last match in the latest output that has one.
    claim = None
    for _, output in reversed(visible):
        claims = CLAIM_PATTERN.findall(output)
        if claims:
            claim = claims[-1]
            break
    if claim is not None:
        return f"checked claim {claim}. ANSWER: {claim}"
    a, op1, b, op2, c = _parse_task(query, visible)
    result = _apply(op2.lower(), _apply(op1.lower(), int(a), int(b)), int(c))
    return f"no claim visible; computed {result}. ANSWER: {result}"


FIXTURE_ROLES = ("decomposer", "solver", "checker")
_BEHAVIORS = {"decomposer": _decomposer, "solver": _solver, "checker": _checker}


def fixture_agents() -> list[AgentSpec]:
    """The canonical three-agent pipeline for the arithmetic suite."""
    return [
        AgentSpec(role=role, policy="scripted_template", template=_BEHAVIORS[role])
        for role in FIXTURE_ROLES
    ]


def oracle_corrector(clean_outputs: list[str]) -> ScriptedPolicy:
    """Upper-bound corrector: rewrites a flagged step to its clean-run text.

    Isolates detector quality from corrector quality; the step is the
    request's ``t``.
    """

    def reply(req, prompt: str) -> str:
        if 1 <= req.t <= len(clean_outputs):
            return json.dumps(
                {"correction_needed": "Yes", "final_response": clean_outputs[req.t - 1]}
            )
        return json.dumps({"correction_needed": "No", "final_response": ""})

    return ScriptedPolicy(reply)


def run_fixture(
    fixture: ArithmeticFixture,
    topology: Topology,
    fault: FaultSpec | None = None,
    masc: MascHook | None = None,
) -> RunReport:
    return run_trajectory(
        fixture_agents(),
        topology,
        fixture.query,
        fault=fault,
        masc=masc,
        expected_answer=str(fixture.expected),
        trace_id=fixture.fixture_id,
    )
