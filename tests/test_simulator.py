import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masc.correction import CorrectionRequest, ScriptedPolicy
from masc.detector import BackboneSpec, DetectorModel, score_trajectory
from masc.embedding import EmbedderSpec, embed_step, embed_trajectory
from masc.errors import ConfigError, DataError
from masc.experiment import (
    ExperimentConfig,
    MascSettings,
    batch_experiment,
    train_suite_detector,
)
from masc.fixtures import (
    _checker,
    extract_answer,
    fixture_agents,
    make_fixture,
    make_fixture_suite,
    oracle_corrector,
    run_fixture,
)
from masc.simulator import (
    AgentSpec,
    FaultSpec,
    MascHook,
    Topology,
    edges,
    inject_fault,
    remote_chat_agent,
    resolve_fault,
    run_trajectory,
    schedule,
)
from masc.trace import serialize_trajectory
from tests.conftest import MALFORMED_REPLIES
from tests.reference import checker_reference


class TestTopology:
    def test_chain_schedule(self):
        assert schedule(Topology("chain", 3)) == [0, 1, 2]

    def test_complete_two_agents_two_rounds(self):
        assert schedule(Topology("complete", 2, rounds=2)) == [0, 1, 0, 1]

    def test_chain_edges_are_path(self):
        assert edges(Topology("chain", 4)) == frozenset(
            {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})}
        )

    def test_complete_edges(self):
        assert len(edges(Topology("complete", 4))) == 6

    def test_random_graph_deterministic_and_connected(self):
        a = edges(Topology("random", 5, edge_seed=3))
        b = edges(Topology("random", 5, edge_seed=3))
        assert a == b
        # connectivity: BFS reaches everyone
        reach = {0}
        frontier = [0]
        adj = {i: set() for i in range(5)}
        for e in a:
            x, y = tuple(e)
            adj[x].add(y)
            adj[y].add(x)
        while frontier:
            node = frontier.pop()
            for n in adj[node]:
                if n not in reach:
                    reach.add(n)
                    frontier.append(n)
        assert reach == set(range(5))

    def test_random_graphs_vary_with_seed(self):
        assert any(
            edges(Topology("random", 5, edge_seed=s))
            != edges(Topology("random", 5, edge_seed=s + 100))
            for s in range(5)
        )

    def test_neighbors(self):
        assert edges(Topology("chain", 3)) == {frozenset({0, 1}), frozenset({1, 2})}

    def test_invalid_kind(self):
        with pytest.raises(ConfigError):
            Topology("ring", 3)


class TestInjectFault:
    def test_misleading_template_increments_answer(self):
        assert inject_fault("the answer is 12", "misleading_template") == "the answer is 13"

    def test_misleading_template_rewrites_all_occurrences(self):
        out = inject_fault("= 36; claim 36", "misleading_template")
        assert out == "= 37; claim 37"

    def test_misleading_without_numbers_still_changes(self):
        text = "no numerals here"
        out = inject_fault(text, "misleading_template")
        assert out != text

    def test_scramble_deterministic(self):
        text = "alpha beta gamma delta epsilon"
        assert inject_fault(text, "scramble", seed=5) == inject_fault(text, "scramble", seed=5)

    def test_corruption_never_returns_original(self):
        texts = ["single", "two words", "a a a a", "the answer is 12"]
        for text in texts:
            for corruption in ("misleading_template", "scramble"):
                assert inject_fault(text, corruption, seed=1) != text

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            inject_fault("", "scramble")


class TestResolveFault:
    def test_fixed_step(self):
        agent, t = resolve_fault(FaultSpec(step_selector=2), [0, 1, 2])
        assert (agent, t) == (1, 2)

    def test_target_agent_uniform(self):
        agent, t = resolve_fault(
            FaultSpec(target_agent=1, step_selector="uniform", seed=4), [0, 1, 2]
        )
        assert agent == 1
        assert t == 2

    def test_early_selector(self):
        order = [0, 1, 2] * 4  # 12 steps; early = first ~20%
        agent, t = resolve_fault(
            FaultSpec(target_agent=0, step_selector="early", seed=0), order
        )
        assert agent == 0
        assert (t - 1) / len(order) < 0.2

    def test_random_agent_is_seed_deterministic(self):
        picks = {
            resolve_fault(FaultSpec(target_agent="random", seed=s), [0, 1, 2])
            for s in range(10)
        }
        assert len(picks) > 1
        assert resolve_fault(
            FaultSpec(target_agent="random", seed=3), [0, 1, 2]
        ) == resolve_fault(FaultSpec(target_agent="random", seed=3), [0, 1, 2])

    def test_fixed_step_must_be_the_target_agents_turn(self):
        assert resolve_fault(FaultSpec(target_agent=1, step_selector=2), [0, 1, 2]) == (1, 2)
        with pytest.raises(ConfigError, match="--target-agent random"):
            resolve_fault(FaultSpec(target_agent=0, step_selector=2), [0, 1, 2])

    @pytest.mark.parametrize("fields", [
        {"step_selector": "late"}, {"step_selector": 0}, {"step_selector": True},
        {"step_selector": 2.0}, {"target_agent": "x"}, {"target_agent": "1"},
        {"target_agent": -1}, {"target_agent": False},
    ], ids=repr)
    def test_fault_spec_rejects_bad_fields(self, fields):
        with pytest.raises(ConfigError):
            FaultSpec(**fields)


class TestAgentSpec:
    @pytest.mark.parametrize("role, template", [
        ("", lambda query, visible, t: "out"), ("solver", None), ("solver", "out"),
    ], ids=["empty role", "no template", "template not callable"])
    def test_rejects_bad_fields(self, role, template):
        with pytest.raises(ConfigError):
            AgentSpec(role=role, template=template)

    @pytest.mark.parametrize("endpoint, model_name", [
        ("", "m"), (None, "m"), ("http://127.0.0.1:1", ""), ("http://127.0.0.1:1", None),
    ])
    def test_remote_chat_agent_needs_endpoint_and_model(self, endpoint, model_name):
        with pytest.raises(ConfigError):
            remote_chat_agent("solver", endpoint, model_name)


FIXTURE = make_fixture(7, seed=1)
CHAIN = Topology("chain", 3)


class TestRunTrajectory:
    def test_clean_run_is_correct(self):
        report = run_fixture(FIXTURE, CHAIN)
        assert report.task_correct is True
        assert len(report.trajectory.steps) == 3
        assert extract_answer(report.trajectory.steps[-1].output) == str(FIXTURE.expected)

    def test_clean_suite_all_correct(self):
        for fixture in make_fixture_suite(20, seed=2):
            assert run_fixture(fixture, CHAIN).task_correct is True

    def test_turn_based_contract(self):
        report = run_fixture(FIXTURE, Topology("complete", 3, rounds=2))
        assert len(report.trajectory.steps) == 6

    def test_determinism_bit_identical(self):
        a = run_fixture(FIXTURE, CHAIN, fault=FaultSpec(step_selector=2, seed=9))
        b = run_fixture(FIXTURE, CHAIN, fault=FaultSpec(step_selector=2, seed=9))
        assert serialize_trajectory(a.trajectory) == serialize_trajectory(b.trajectory)

    def test_fault_on_solver_breaks_answer(self):
        report = run_fixture(FIXTURE, CHAIN, fault=FaultSpec(target_agent=1, seed=0))
        assert report.task_correct is False
        assert report.fault_agent == 1
        assert report.fault_step == 2

    def test_fault_locality_single_step_differs_at_injection(self):
        clean = run_fixture(FIXTURE, CHAIN)
        faulted = run_fixture(FIXTURE, CHAIN, fault=FaultSpec(target_agent=1, seed=0))
        t_fault = faulted.fault_step
        for t, (a, b) in enumerate(
            zip(clean.trajectory.steps, faulted.trajectory.steps), start=1
        ):
            if t < t_fault:
                assert a.output == b.output
            elif t == t_fault:
                assert a.output != b.output

    def test_checker_recomputes_when_solver_hidden(self):
        # star topology centered on agent 0: checker cannot see the solver
        topo = Topology("random", 3, edge_seed=_star_seed())
        report = run_fixture(FIXTURE, topo, fault=FaultSpec(target_agent=1, seed=0))
        assert "no claim visible" in report.trajectory.steps[-1].output
        assert report.task_correct is True  # fault not critical in this graph

    def test_agents_must_match_topology(self):
        with pytest.raises(ConfigError):
            run_trajectory(fixture_agents()[:2], CHAIN, "query")

    def test_remote_agent_failure_aborts_with_partial_report(self):
        agents = fixture_agents()
        broken = remote_chat_agent("solver", "http://127.0.0.1:1", "m")
        report = run_trajectory([agents[0], broken, agents[2]], CHAIN, FIXTURE.query)
        assert report.aborted
        assert report.error
        assert len(report.trajectory.steps) == 1  # decomposer only
        assert report.task_correct is None

    def test_run_fixture_leaves_an_aborted_run_unjudged(self, monkeypatch):
        agents = fixture_agents()
        broken = remote_chat_agent("solver", "http://127.0.0.1:1", "m")
        monkeypatch.setattr(
            "masc.fixtures.fixture_agents", lambda: [agents[0], broken, agents[2]]
        )
        report = run_fixture(FIXTURE, CHAIN)
        assert report.aborted
        assert report.task_correct is None

    def test_remote_agent_output_enters_history(self, stub_service):
        agents = fixture_agents()
        with stub_service(content="x = 7") as stub:
            remote = remote_chat_agent("solver", stub.endpoint, "m")
            report = run_trajectory([agents[0], remote, agents[2]], CHAIN, FIXTURE.query)
        assert not report.aborted
        assert report.trajectory.steps[1].output == "x = 7"
        prompt = stub.requests[0]["body"]["messages"][0]["content"]
        assert "You are solver" in prompt and FIXTURE.query in prompt
        plan = report.trajectory.steps[0].output
        assert f"Visible context:\n[decomposer] {plan}\nRespond" in prompt

    @pytest.mark.parametrize(
        "raw", [*MALFORMED_REPLIES.values(), b'{"content": null}'],
        ids=[*MALFORMED_REPLIES, "content not a string"],
    )
    def test_remote_agent_malformed_reply_aborts(self, stub_service, raw):
        agents = fixture_agents()
        with stub_service(raw=raw) as stub:
            remote = remote_chat_agent("solver", stub.endpoint, "m")
            report = run_trajectory([agents[0], remote, agents[2]], CHAIN, FIXTURE.query)
        assert report.aborted
        assert "malformed reply" in report.error
        assert len(report.trajectory.steps) == 1
        assert report.task_correct is None


def _star_seed():
    # find a seed whose 3-node connected graph is exactly {0-1, 0-2}
    target = frozenset({frozenset({0, 1}), frozenset({0, 2})})
    for seed in range(200):
        if edges(Topology("random", 3, edge_seed=seed)) == target:
            return seed
    raise RuntimeError("no star seed found")


@pytest.fixture(scope="module")
def suite_detector():
    config = ExperimentConfig(
        n_fixtures=12, seed=5,
        masc=MascSettings(epochs=80, lr=3e-3, d_e=48, d_h=160),
    )
    fixtures = make_fixture_suite(12, seed=5)
    clean = [run_fixture(f, CHAIN) for f in fixtures]
    model, calibration = train_suite_detector(config, [r.trajectory for r in clean])
    return fixtures, clean, model, calibration


class TestMascInLoop:
    def test_zero_intervention_equivalence_at_infinite_delta(self, suite_detector):
        fixtures, clean, model, calibration = suite_detector
        fixture, clean_report = fixtures[0], clean[0]
        hook = MascHook(
            model=model, alpha=1.0, beta=1.0, delta=math.inf,
            policy=oracle_corrector([s.output for s in clean_report.trajectory.steps]),
        )
        fault = FaultSpec(target_agent=1, seed=3)
        with_masc = run_fixture(fixture, CHAIN, fault=fault, masc=hook)
        without = run_fixture(fixture, CHAIN, fault=fault)
        assert serialize_trajectory(with_masc.trajectory) == serialize_trajectory(
            without.trajectory
        )
        assert with_masc.interventions == 0
        assert hook.policy.calls == 0

    def test_oracle_correction_restores_answers(self, suite_detector):
        fixtures, clean, model, calibration = suite_detector
        restored = 0
        for fixture, clean_report in zip(fixtures, clean):
            hook = MascHook(
                model=model, alpha=1.0, beta=1.0, delta=calibration.delta,
                policy=oracle_corrector(
                    [s.output for s in clean_report.trajectory.steps]
                ),
            )
            report = run_fixture(
                fixture, CHAIN, fault=FaultSpec(target_agent=1, seed=11), masc=hook
            )
            restored += bool(report.task_correct)
        assert restored >= 0.8 * len(fixtures)

    def test_history_substitution_after_intervention(self, suite_detector):
        fixtures, clean, model, calibration = suite_detector
        fixture, clean_report = fixtures[1], clean[1]
        hook = MascHook(
            model=model, alpha=1.0, beta=1.0, delta=calibration.delta,
            policy=oracle_corrector([s.output for s in clean_report.trajectory.steps]),
        )
        report = run_fixture(
            fixture, CHAIN, fault=FaultSpec(target_agent=1, seed=11), masc=hook
        )
        if report.interventions:
            corrected = report.trajectory.steps[1].output
            assert corrected == clean_report.trajectory.steps[1].output
            final = report.trajectory.steps[-1].output
            assert extract_answer(final) == str(fixture.expected)

    def test_interventions_bounded_by_flags(self, suite_detector):
        fixtures, clean, model, calibration = suite_detector
        hook = MascHook(
            model=model, alpha=1.0, beta=1.0, delta=calibration.delta,
            policy=oracle_corrector([s.output for s in clean[2].trajectory.steps]),
        )
        report = run_fixture(
            fixtures[2], CHAIN, fault=FaultSpec(target_agent=1, seed=2), masc=hook
        )
        assert report.interventions <= report.flagged
        assert hook.policy.calls == report.flagged

    def test_every_request_carries_its_step_index(self, suite_detector):
        fixtures, clean, model, calibration = suite_detector
        seen = []
        policy = ScriptedPolicy(lambda req, prompt: seen.append(req) or "no json")
        hook = MascHook(model=model, alpha=1.0, beta=1.0, delta=-1.0, policy=policy)
        report = run_fixture(fixtures[0], Topology("chain", 3, rounds=2), masc=hook)
        steps = [req.t for req in seen]
        assert steps == [v.t for v in report.verdicts] == [1, 2, 3, 4, 5, 6]
        assert steps == [len(req.history) + 1 for req in seen]

    def test_a_flagged_step_carries_every_earlier_step_in_order(self, suite_detector):
        # Steps 1..t-1 as committed, the correction included; not the acting
        # agent's visible list: in a chain the checker never sees the
        # decomposer's output.
        fixtures, _, model, _ = suite_detector
        topology = Topology("chain", 3, rounds=2)
        clean = run_fixture(fixtures[1], topology)
        oracle = oracle_corrector([s.output for s in clean.trajectory.steps])
        seen = []
        policy = ScriptedPolicy(lambda req, prompt: seen.append(req) or oracle.reply(req, prompt))
        hook = MascHook(model=model, alpha=1.0, beta=1.0, delta=-1.0, policy=policy)
        report = run_fixture(
            fixtures[1], topology, fault=FaultSpec(target_agent=1, seed=1), masc=hook
        )
        committed = tuple((step.role, step.output) for step in report.trajectory.steps)
        assert report.interventions == 1
        assert [req.t for req in seen] == [1, 2, 3, 4, 5, 6]
        for req in seen:
            assert isinstance(req.history, tuple)
            assert req.history == committed[: req.t - 1]

    def test_remote_backbone_encodes_once_per_turn(self, stub_service):
        # Every step is flagged and the oracle rewrites only the faulted one,
        # so the committed trajectory is the clean run's.
        fixture = make_fixture(3, seed=8)
        topology = Topology("chain", 3, rounds=2)
        clean = run_fixture(fixture, topology)
        fault = FaultSpec(target_agent=1, seed=8)
        with stub_service(vector_dim=6) as stub:
            backbone = BackboneSpec(kind="remote_llm", hidden_dim=6,
                                    endpoint=stub.endpoint, model_name="llm")
            model = DetectorModel.init(EmbedderSpec(dimension=4), d_h=6,
                                       backbone=backbone, seed=2)
            hook = MascHook(
                model=model, alpha=1.0, beta=1.0, delta=-1.0,
                policy=oracle_corrector([s.output for s in clean.trajectory.steps]),
            )
            report = run_fixture(fixture, topology, fault=fault, masc=hook)
            T = len(report.trajectory)
            assert T == 6 and report.interventions == 1
            assert len(stub.requests) == T
            assert all(r["path"].endswith("/encode") for r in stub.requests)

            assert report.trajectory.steps == clean.trajectory.steps
            q, committed = embed_trajectory(model.embedder, report.trajectory)
            faulted = list(committed)
            faulted[report.fault_step - 1] = embed_step(
                model.embedder, report.trajectory.steps[report.fault_step - 1].role,
                inject_fault(clean.trajectory.steps[report.fault_step - 1].output,
                             fault.corruption, fault.seed),
            )
            expected = score_trajectory(model, q, committed, 1.0, 1.0)
            # The faulted step was scored on its own text, before the commit.
            expected[report.fault_step - 1] = score_trajectory(
                model, q, faulted[: report.fault_step], 1.0, 1.0, -1.0
            )[-1]
        for got, want in zip(report.verdicts, expected):
            assert got.t == want.t
            assert got.score == pytest.approx(want.score, rel=1e-12, abs=0.0)
            assert got.proto_term == pytest.approx(want.proto_term, rel=0.0, abs=1e-12)


def test_oracle_corrector_reads_the_step_index():
    clean = ["plan", "solve", "check"]
    req = CorrectionRequest(role="checker", query="q", history=(), flagged_output="x", t=3)
    reply = json.loads(oracle_corrector(clean).reply(req, ""))
    assert reply == {"correction_needed": "Yes", "final_response": "check"}


class TestBatchExperiment:
    def test_small_sweep_structure(self):
        config = ExperimentConfig(
            topologies=("chain",),
            n_fixtures=6,
            seed=9,
            masc=MascSettings(epochs=60, lr=3e-3, d_e=48, d_h=128),
        )
        report = batch_experiment(config)
        assert {c.key() for c in report.cells} == {
            "chain/clean/off", "chain/faulted/off", "chain/clean/masc",
            "chain/faulted/masc",
        }
        for cell in report.cells:
            assert cell.n_runs == 6
        clean = report.cell("chain", False, False).accuracy
        faulted = report.cell("chain", True, False).accuracy
        recovered = report.cell("chain", True, True).accuracy
        assert clean >= faulted
        assert recovered >= faulted
        assert "fault_drop" in report.deltas["chain"]
        csv_text = report.to_csv()
        assert csv_text.startswith("topology,condition,masc,accuracy")
        assert len(csv_text.strip().split("\n")) == 5


class Recorder:
    """Agents that store a copy of every ``visible`` list they receive.

    With ``mutate``, each agent also appends to the list it was given, and
    empties every list handed out at earlier turns.
    """

    def __init__(self, mutate=False):
        self.mutate = mutate
        self.calls = []  # (agent index, t, visible as received)
        self._given = []

    def agents(self, n):
        return [
            AgentSpec(role=f"role{i}", template=self._act(i)) for i in range(n)
        ]

    def _act(self, i):
        def act(query, visible, t):
            self.calls.append((i, t, list(visible)))
            if self.mutate:
                for earlier in self._given:
                    earlier.clear()
                visible.append(("intruder", "junk"))
                self._given.append(visible)
            return f"agent {i} at turn {t} says {t * 7}"

        return act


def comprehension_visible(topology, trajectory):
    """Per turn, (agent, t, visible) as the run built it from the whole
    history: the outputs of the agent and its graph neighbors."""
    adjacent = edges(topology)
    visibility = {
        i: {i}.union(*(edge for edge in adjacent if i in edge))
        for i in range(topology.n_agents)
    }
    history = [
        (agent, step.role, step.output)
        for agent, step in zip(schedule(topology), trajectory.steps)
    ]
    return [
        (agent, t, [(role, out) for e, role, out in history[: t - 1] if e in visibility[agent]])
        for t, agent in enumerate(schedule(topology), start=1)
    ]


class TestVisibility:
    @pytest.mark.parametrize("kind", ["chain", "complete", "random"])
    @pytest.mark.parametrize("n_agents", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    @pytest.mark.parametrize("mutate", [False, True])
    def test_visible_lists_match_the_history_comprehension(
        self, kind, n_agents, rounds, mutate
    ):
        topology = Topology(kind, n_agents, edge_seed=10 * n_agents + rounds, rounds=rounds)
        recorder = Recorder(mutate)
        report = run_trajectory(
            recorder.agents(n_agents), topology, "query",
            fault=FaultSpec(seed=n_agents + rounds),
        )
        assert len(report.trajectory.steps) == n_agents * rounds
        assert recorder.calls == comprehension_visible(topology, report.trajectory)

    def test_corrected_outputs_are_what_later_turns_see(self):
        def reply(req, prompt):
            t = len(req.history) + 1
            if t % 2:
                return json.dumps({"correction_needed": "No", "final_response": ""})
            return json.dumps({"correction_needed": "Yes", "final_response": f"fixed {t}"})

        model = DetectorModel.init(
            EmbedderSpec(kind="hashing", dimension=4), d_h=6,
            backbone=BackboneSpec(hidden_dim=6),
        )
        hook = MascHook(
            model=model, alpha=1.0, beta=1.0, delta=-math.inf, policy=ScriptedPolicy(reply)
        )
        topology = Topology("random", 4, edge_seed=3, rounds=2)
        recorder = Recorder(mutate=True)
        report = run_trajectory(
            recorder.agents(4), topology, "query", fault=FaultSpec(seed=1), masc=hook
        )
        outputs = [step.output for step in report.trajectory.steps]
        assert report.interventions == 4
        assert outputs[1::2] == ["fixed 2", "fixed 4", "fixed 6", "fixed 8"]
        assert recorder.calls == comprehension_visible(topology, report.trajectory)

    def test_failed_corrections_keep_every_output(self):
        def reply(req, prompt):
            raise RuntimeError("corrector down")

        model = DetectorModel.init(
            EmbedderSpec(kind="hashing", dimension=4), d_h=6,
            backbone=BackboneSpec(hidden_dim=6),
        )
        hook = MascHook(
            model=model, alpha=1.0, beta=1.0, delta=-math.inf, policy=ScriptedPolicy(reply)
        )
        topology = Topology("complete", 3, rounds=2)
        plain = run_trajectory(Recorder().agents(3), topology, "query")
        report = run_trajectory(Recorder().agents(3), topology, "query", masc=hook)
        T = len(plain.trajectory)
        assert not report.aborted
        assert report.trajectory == plain.trajectory
        assert all(v.flagged for v in report.verdicts) and len(report.verdicts) == T
        assert report.corrections_failed == report.flagged == T
        assert report.interventions == 0


@st.composite
def visible_histories(draw):
    """(role, output) lists whose outputs hold 0-3 claims among filler."""
    filler = st.sampled_from([
        "ok", "claim", "reclaim", "claimed 4", "-", "ANSWER: 9", "then 12",
        "plan: start 3; then add 4; then multiply by 2",
    ])
    visible = []
    for _ in range(draw(st.integers(0, 6))):
        claims = draw(st.lists(st.integers(-99, 99), max_size=3))
        pieces = [f"claim {c}" for c in claims] + draw(st.lists(filler, max_size=4))
        output = " ".join(draw(st.permutations(pieces)))
        visible.append((draw(st.sampled_from(["decomposer", "solver", "checker"])), output))
    return visible


@settings(max_examples=300, deadline=None)
@given(visible=visible_histories(), t=st.integers(1, 9))
def test_checker_matches_the_forward_scan(visible, t):
    assert _checker(FIXTURE.query, visible, t) == checker_reference(FIXTURE.query, visible, t)
