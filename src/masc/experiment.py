"""Sweep runner: topologies x {clean, faulted} x {detection off, on}.

For cells with detection enabled, a detector is trained on the suite's clean
trajectories (pooled across topologies), the threshold is calibrated on the
same normal-only scores, and flagged steps are repaired by the oracle
corrector, which rewrites a flagged step to the clean run's text.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, replace

from .detector import BackboneSpec, DetectorModel, check_score_settings
from .embedding import EmbedderSpec
from .errors import check_int, check_number
from .fixtures import FIXTURE_ROLES, make_fixture_suite, oracle_corrector, run_fixture
from .simulator import FaultSpec, MascHook, Topology, resolve_fault, schedule
from .trace import Trajectory
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

    def __post_init__(self):
        check_number(self.quantile, "quantile", 0, 1, strict=True)
        # Without an override, delta is the calibrated one, checked there.
        delta = math.inf if self.delta_override is None else self.delta_override
        check_score_settings(self.alpha, self.beta, delta)


@dataclass(frozen=True)
class ExperimentConfig:
    topologies: tuple[str, ...] = ("chain", "complete", "random")
    n_fixtures: int = 50
    rounds: int = 1
    seed: int = 0
    fault: FaultSpec = field(
        default_factory=lambda: FaultSpec(target_agent=1, step_selector="uniform")
    )
    masc: MascSettings = field(default_factory=MascSettings)
    with_masc_cells: bool = True

    def __post_init__(self):
        check_int(self.n_fixtures, "n_fixtures", 1)
        # Every topology runs the same turn order, so a fixed-step fault that
        # misses its target fails here, before any run.
        turn_order = schedule(Topology("chain", len(FIXTURE_ROLES), rounds=self.rounds))
        resolve_fault(self.fault, turn_order)
        # Likewise a training setting out of range, which the detector would
        # otherwise meet only after every clean cell has run.
        self.train_config()

    def train_config(self) -> TrainConfig:
        """The detector training the sweep's ``masc`` cells run."""
        m = self.masc
        return TrainConfig(
            epochs=m.epochs,
            lr=m.lr,
            lam=m.lam,
            seed=self.seed,
            d_h=m.d_h,
            embedder=EmbedderSpec(dimension=m.d_e),
            backbone=BackboneSpec(hidden_dim=m.d_h, layers=m.layers, seed=self.seed),
        )


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

    def to_dict(self) -> dict:
        """Each cell under its key, less the three fields the key spells."""
        cells = {c.key(): asdict(c) for c in self.cells}
        for cell in cells.values():
            del cell["topology"], cell["faulted"], cell["masc_on"]
        return {"cells": cells, "deltas": self.deltas, "config": self.config}

    def to_csv(self) -> str:
        lines = ["topology,condition,masc,accuracy,n_runs,flagged,interventions"]
        for c in self.cells:
            lines.append(
                f"{c.topology},{'faulted' if c.faulted else 'clean'},"
                f"{'on' if c.masc_on else 'off'},{c.accuracy:.6f},{c.n_runs},"
                f"{c.flagged},{c.interventions}"
            )
        return "\n".join(lines) + "\n"


def train_suite_detector(
    config: ExperimentConfig, clean_trajectories: list[Trajectory]
) -> tuple[DetectorModel, Calibration]:
    """Fit a detector on the suite's clean runs and calibrate its threshold."""
    m = config.masc
    model, _ = train(config.train_config(), clean_trajectories)
    calibration = calibrate_threshold(
        model, clean_trajectories, quantile=m.quantile, alpha=m.alpha, beta=m.beta
    )
    return model, calibration


def batch_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full sweep and aggregate per-cell accuracy plus deltas."""
    fixtures = make_fixture_suite(config.n_fixtures, seed=config.seed)

    def run_cell(kind: str, faulted: bool, hooks: list[MascHook] | None):
        reports = []
        for i, fixture in enumerate(fixtures):
            # Each run draws its edges and its fault from its own seed stream.
            edge_seed = run_seed(config.seed, f"edges:{kind}:{i}")
            fault = replace(config.fault, seed=run_seed(config.seed, f"fault:{kind}:{i}"))
            reports.append(run_fixture(
                fixture,
                Topology(kind, len(FIXTURE_ROLES), edge_seed, config.rounds),
                fault=fault if faulted else None,
                masc=hooks[i] if hooks else None,
            ))
        return reports

    clean = {kind: run_cell(kind, False, None) for kind in config.topologies}
    variants = [(False, False), (True, False)]
    masc_hooks = {}
    if config.with_masc_cells:
        variants += [(False, True), (True, True)]
        pooled = [r.trajectory for reports in clean.values() for r in reports]
        model, calibration = train_suite_detector(config, pooled)
        m = config.masc
        delta = calibration.delta if m.delta_override is None else m.delta_override
        masc_hooks = {
            kind: [
                MascHook(
                    model=model, alpha=m.alpha, beta=m.beta, delta=delta,
                    policy=oracle_corrector([s.output for s in r.trajectory.steps]),
                )
                for r in reports
            ]
            for kind, reports in clean.items()
        }

    report = ExperimentReport(cells=[], deltas={}, config=_config_dict(config))
    for kind in config.topologies:
        accuracy = {}
        for faulted, masc_on in variants:
            if faulted or masc_on:
                reports = run_cell(kind, faulted, masc_hooks[kind] if masc_on else None)
            else:
                reports = clean[kind]
            cell = CellResult(
                topology=kind,
                faulted=faulted,
                masc_on=masc_on,
                accuracy=sum(1 for r in reports if r.task_correct) / len(reports),
                n_runs=len(reports),
                flagged=sum(r.flagged for r in reports),
                interventions=sum(r.interventions for r in reports),
            )
            report.cells.append(cell)
            report.runs[cell.key()] = [r.trajectory for r in reports]
            accuracy[faulted, masc_on] = cell.accuracy
        deltas = {
            "clean": accuracy[False, False],
            "faulted": accuracy[True, False],
            "fault_drop": accuracy[False, False] - accuracy[True, False],
        }
        if config.with_masc_cells:
            deltas["masc_faulted"] = accuracy[True, True]
            deltas["masc_recovery"] = accuracy[True, True] - accuracy[True, False]
        report.deltas[kind] = deltas
    return report


def run_seed(base_seed: int, run_id: str) -> int:
    """Isolated per-run seed stream."""
    digest = hashlib.sha256(f"{base_seed}:{run_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _config_dict(config: ExperimentConfig) -> dict:
    """The settings the report echoes: each run draws its own fault seed, the
    threshold override appears only when set, and as a string (``"inf"``,
    ``"-inf"``) that ``float()`` reads back when it is infinite, since strict
    JSON has no infinity; ``lam`` is written ``lambda``, and the agent count
    is the fixture pipeline's."""
    echo = asdict(config)
    echo["n_agents"] = len(FIXTURE_ROLES)
    del echo["fault"]["seed"]
    override = echo["masc"].pop("delta_override")
    if override is not None:
        echo["masc"]["delta_override"] = override if math.isfinite(override) else str(override)
    echo["masc"]["lambda"] = echo["masc"].pop("lam")
    return echo
