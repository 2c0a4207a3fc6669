"""Sweep runner: topologies x {clean, faulted} x {detection off, on}.

For cells with detection enabled, a detector is trained on the suite's clean
trajectories (pooled across topologies), the threshold is calibrated on the
same normal-only scores, and flagged steps are repaired by the
clean-run-text oracle corrector unless a custom policy is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .detector import BackboneSpec, DetectorModel
from .embedding import EmbedderSpec
from .errors import DataError
from .fixtures import (
    ArithmeticFixture,
    make_fixture_suite,
    oracle_corrector,
    run_fixture,
)
from .simulator import (
    FaultSpec,
    MascHook,
    RunReport,
    Topology,
    run_seed,
)
from .trace import Trajectory, save_trajectories
from .training import Calibration, TrainConfig, calibrate_threshold, train


@dataclass(frozen=True)
class MascSettings:
    alpha: float = 1.0
    beta: float = 1.0
    quantile: float = 0.99
    epochs: int = 150
    lr: float = 3e-3
    lam: float = 0.2
    d_e: int = 64
    d_h: int = 256
    layers: int = 2
    delta_override: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    topologies: tuple[str, ...] = ("chain", "complete", "random")
    n_fixtures: int = 50
    n_agents: int = 3
    rounds: int = 1
    seed: int = 0
    fault: FaultSpec = field(
        default_factory=lambda: FaultSpec(target_agent=1, step_selector="uniform")
    )
    masc: MascSettings = field(default_factory=MascSettings)
    with_masc_cells: bool = True


@dataclass
class CellResult:
    topology: str
    faulted: bool
    masc_on: bool
    accuracy: float
    n_runs: int
    flagged: int
    interventions: int

    def key(self) -> str:
        return (
            f"{self.topology}/{'faulted' if self.faulted else 'clean'}/"
            f"{'masc' if self.masc_on else 'off'}"
        )


@dataclass
class ExperimentReport:
    cells: list[CellResult]
    deltas: dict[str, dict[str, float]]
    config: dict
    runs: dict[str, list[Trajectory]] = field(default_factory=dict, repr=False)

    def cell(self, topology: str, faulted: bool, masc_on: bool) -> CellResult:
        for c in self.cells:
            if (c.topology, c.faulted, c.masc_on) == (topology, faulted, masc_on):
                return c
        raise KeyError((topology, faulted, masc_on))

    def to_dict(self) -> dict:
        return {
            "cells": {
                c.key(): {
                    "accuracy": c.accuracy,
                    "n_runs": c.n_runs,
                    "flagged": c.flagged,
                    "interventions": c.interventions,
                }
                for c in self.cells
            },
            "deltas": self.deltas,
            "config": self.config,
        }

    def to_csv(self) -> str:
        lines = ["topology,condition,masc,accuracy,n_runs,flagged,interventions"]
        for c in self.cells:
            lines.append(
                f"{c.topology},{'faulted' if c.faulted else 'clean'},"
                f"{'on' if c.masc_on else 'off'},{c.accuracy:.6f},{c.n_runs},"
                f"{c.flagged},{c.interventions}"
            )
        return "\n".join(lines) + "\n"


def _topology(config: ExperimentConfig, kind: str, fixture_index: int) -> Topology:
    edge_seed = run_seed(config.seed, f"edges:{kind}:{fixture_index}")
    return Topology(
        kind=kind,
        n_agents=config.n_agents,
        edge_seed=edge_seed,
        rounds=config.rounds,
    )


def _fault_for(config: ExperimentConfig, kind: str, fixture_index: int) -> FaultSpec:
    return FaultSpec(
        target_agent=config.fault.target_agent,
        step_selector=config.fault.step_selector,
        corruption=config.fault.corruption,
        seed=run_seed(config.seed, f"fault:{kind}:{fixture_index}"),
    )


def train_suite_detector(
    config: ExperimentConfig, clean_trajectories: list[Trajectory]
) -> tuple[DetectorModel, Calibration]:
    """Fit a detector on the suite's clean runs and calibrate its threshold."""
    m = config.masc
    embedder = EmbedderSpec(kind="hashing", dimension=m.d_e)
    cfg = TrainConfig(
        epochs=m.epochs,
        lr=m.lr,
        weight_decay=0.0,
        lam=m.lam,
        seed=config.seed,
        d_h=m.d_h,
        embedder=embedder,
        backbone=BackboneSpec(hidden_dim=m.d_h, layers=m.layers, seed=config.seed),
    )
    model, _ = train(cfg, clean_trajectories)
    calibration = calibrate_threshold(
        model, clean_trajectories, quantile=m.quantile, alpha=m.alpha, beta=m.beta
    )
    return model, calibration


def batch_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full sweep and aggregate per-cell accuracy plus deltas."""
    if config.n_fixtures < 1:
        raise DataError("need at least one fixture")
    fixtures = make_fixture_suite(config.n_fixtures, seed=config.seed)

    clean_reports: dict[str, list[RunReport]] = {}
    for kind in config.topologies:
        clean_reports[kind] = _run_cell(config, fixtures, kind, None, None)

    model = calibration = None
    clean_outputs: dict[tuple[str, str], list[str]] = {}
    if config.with_masc_cells:
        pooled = [
            r.trajectory
            for reports in clean_reports.values()
            for r in reports
            if r.trajectory is not None
        ]
        model, calibration = train_suite_detector(config, pooled)
        for kind, reports in clean_reports.items():
            for fixture, r in zip(fixtures, reports):
                clean_outputs[(kind, fixture.fixture_id)] = [
                    s.output for s in r.trajectory.steps
                ]

    def masc_hook(kind: str, fixture: ArithmeticFixture) -> MascHook:
        m = config.masc
        delta = m.delta_override if m.delta_override is not None else calibration.delta
        return MascHook(
            model=model,
            alpha=m.alpha,
            beta=m.beta,
            delta=delta,
            policy=oracle_corrector(clean_outputs[(kind, fixture.fixture_id)]),
        )

    cells: list[CellResult] = []
    cell_runs: dict[str, list[Trajectory]] = {}
    for kind in config.topologies:
        variants = [(False, False), (True, False)]
        if config.with_masc_cells:
            variants += [(False, True), (True, True)]
        for faulted, masc_on in variants:
            if not faulted and not masc_on:
                reports = clean_reports[kind]
            else:
                reports = _run_cell(
                    config,
                    fixtures,
                    kind,
                    fault=config.fault if faulted else None,
                    masc_factory=(lambda f, k=kind: masc_hook(k, f)) if masc_on else None,
                )
            cell = CellResult(
                topology=kind,
                faulted=faulted,
                masc_on=masc_on,
                accuracy=sum(1 for r in reports if r.task_correct) / len(reports),
                n_runs=len(reports),
                flagged=sum(r.flagged for r in reports),
                interventions=sum(r.interventions for r in reports),
            )
            cells.append(cell)
            cell_runs[cell.key()] = [
                r.trajectory for r in reports if r.trajectory is not None
            ]

    report = ExperimentReport(
        cells=cells, deltas={}, config=_config_dict(config), runs=cell_runs
    )
    for kind in config.topologies:
        clean = report.cell(kind, False, False).accuracy
        faulted = report.cell(kind, True, False).accuracy
        deltas = {"clean": clean, "faulted": faulted, "fault_drop": clean - faulted}
        if config.with_masc_cells:
            recovered = report.cell(kind, True, True).accuracy
            deltas["masc_faulted"] = recovered
            deltas["masc_recovery"] = recovered - faulted
        report.deltas[kind] = deltas
    return report


def _run_cell(
    config: ExperimentConfig,
    fixtures: list[ArithmeticFixture],
    kind: str,
    fault: FaultSpec | None,
    masc_factory=None,
) -> list[RunReport]:
    return [
        run_fixture(
            fixture,
            _topology(config, kind, i),
            fault=_fault_for(config, kind, i) if fault is not None else None,
            masc=masc_factory(fixture) if masc_factory is not None else None,
        )
        for i, fixture in enumerate(fixtures)
    ]


def dump_cell_traces(report: ExperimentReport, path: str):
    """Write every retained run trajectory as JSONL, ids prefixed by cell."""
    out = []
    for key, trajectories in sorted(report.runs.items()):
        for trajectory in trajectories:
            out.append(replace(trajectory, id=f"{key}/{trajectory.id}"))
    save_trajectories(path, out)


def _config_dict(config: ExperimentConfig) -> dict:
    return {
        "topologies": list(config.topologies),
        "n_fixtures": config.n_fixtures,
        "n_agents": config.n_agents,
        "rounds": config.rounds,
        "seed": config.seed,
        "fault": {
            "target_agent": config.fault.target_agent,
            "step_selector": config.fault.step_selector,
            "corruption": config.fault.corruption,
        },
        "masc": {
            "alpha": config.masc.alpha,
            "beta": config.masc.beta,
            "quantile": config.masc.quantile,
            "epochs": config.masc.epochs,
            "lr": config.masc.lr,
            "lambda": config.masc.lam,
            "d_e": config.masc.d_e,
            "d_h": config.masc.d_h,
            "layers": config.masc.layers,
        },
        "with_masc_cells": config.with_masc_cells,
    }
