"""Command-line entry point: ingest, train, calibrate, score, eval, diag, simulate.

Exit codes: 0 success, 2 configuration error, 3 data error or a file that
cannot be read or written, 4 numeric failure. Flag precedence for training
configuration: explicit flags > --config file (JSON, or TOML on Python 3.11
and later) > profile defaults. A setting no flag, file or profile gives takes
its default from the config dataclasses (``TrainConfig``, ``EmbedderSpec``,
``BackboneSpec``, ``ExperimentConfig``, ``MascSettings``, ``FaultSpec``), the
only place a training or sweep default is written. The scoring defaults are
written where they are used: ``_score_rows`` scores with alpha = beta = 1
and delta = inf when neither a flag nor the checkpoint's calibration gives
them, and ``calibrate_threshold`` has its own alpha, beta and quantile.
Those dataclasses also check every value, whether it comes from a flag, a
file or the API; ``_load_config_file`` checks only that a file holds an
object whose keys it knows. Every alpha, beta and delta, given or default,
passes ``detector.check_score_settings`` before a step is scored, and
``masc simulate``'s before any fixture runs. The frozen backbone's
seed follows ``--seed``, as it does in ``DetectorModel.init``. Reports embed
the effective configuration and the tool version, and are strict JSON: no
NaN or Infinity (``experiment._config_dict`` writes an infinite threshold
override as a string).

Each ``cmd_*`` function writes nothing: it returns its outputs as
``(path, data)`` pairs, a path of None meaning stdout. ``main`` hands them
to ``trace.write_files`` in one call, which writes every file to a synced
temporary file, then renames each over its target, and writes stdout last.
So a command that fails writes none of its files, and its stdout comes after
every file. Text, in a file or on stdout, is UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, replace

from . import __version__
from .checkpoint import checkpoint_chunks, load_checkpoint
from .detector import BackboneSpec, score_corpus
from .embedding import EmbedderSpec, embed_trajectory
from .errors import ConfigError, DataError, DivergenceError, MascError, check_int
from .evaluation import (
    ScoredStep,
    compute_metrics,
    embedding_distance_diagnostics,
    score_histogram,
)
from .experiment import ExperimentConfig, batch_experiment
from .trace import (
    error_position_histogram,
    load_trajectories,
    serialize_trajectory,
    write_files,
)
from .training import PROFILES, TrainConfig, calibrate_threshold, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _index_or(*names: str):
    """An argparse type: an integer index, or one of ``names``."""

    def parse(value: str) -> int | str:
        if value in names:
            return value
        try:
            return int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an index or {' or '.join(map(repr, names))}, got {value!r}"
            ) from None

    return parse


def _given(**values) -> dict:
    """The keyword arguments that are not None: the settings a run gives."""
    return {key: value for key, value in values.items() if value is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masc",
        description="Step-level anomaly detection and self-correction for "
        "multi-agent traces.",
    )
    parser.add_argument("--version", action="version", version=f"masc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a JSONL trace file")
    p.add_argument("--traces", required=True, help="input JSONL trace file")
    p.add_argument("--strict", action="store_true", help="reject unknown keys")
    p.add_argument("--out", help="write canonicalized JSONL here")

    p = sub.add_parser("train", help="fit a detector on normal trajectories")
    p.add_argument("--traces", required=True, help="training JSONL trace file")
    p.add_argument("--checkpoint", required=True, help="output checkpoint path")
    p.add_argument("--report", help="write the training report JSON here")
    p.add_argument("--config", help="JSON or TOML file with training settings")
    p.add_argument("--profile", choices=sorted(PROFILES), help="hyperparameter profile")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--lambda", dest="lam", type=float, help="prototype loss weight")
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden", type=int, help="hidden dimension d_h")
    p.add_argument("--layers", type=int, help="frozen backbone depth")
    p.add_argument("--dim", type=int, help="embedding dimension d_e")
    p.add_argument("--with-gt", action="store_true", default=None,
                   help="append gt_answer to the query before embedding")
    p.add_argument("--exclude-labeled-steps", action="store_true", default=None,
                   help="drop steps labeled as errors from training trajectories")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("calibrate", help="set the threshold from normal scores")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--traces", required=True, help="normal-only calibration traces")
    p.add_argument("--quantile", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--out", help="output checkpoint (defaults to in-place)")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("score", help="score every step of every trajectory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--alpha", type=float, help="override calibration alpha")
    p.add_argument("--beta", type=float, help="override calibration beta")
    p.add_argument("--delta", type=float, help="override threshold (inf allowed)")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("eval", help="detection metrics from scores or a checkpoint")
    p.add_argument("--traces", required=True, help="labeled JSONL trace file")
    p.add_argument("--scores", help="score CSV produced by `masc score`")
    p.add_argument("--checkpoint", help="score internally with this checkpoint")
    p.add_argument("--out", help="metrics JSON output path (default stdout)")
    p.add_argument("--hist", help="write score histogram CSV here")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--alpha", type=float,
                   help="override the checkpoint's alpha (with --checkpoint only)")
    p.add_argument("--beta", type=float,
                   help="override the checkpoint's beta (with --checkpoint only)")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("diag", help="embedding distance and error-position diagnostics")
    p.add_argument("--traces", required=True, help="labeled JSONL trace file")
    p.add_argument("--dim", type=int, help="hashing embedder dimension")
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--out", help="JSON output path (default stdout)")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("simulate", help="fault-injection sweep on the fixture suite")
    p.add_argument("--topology", default="all",
                   choices=["chain", "complete", "random", "all"])
    p.add_argument("--fault", default="both", choices=["on", "off", "both"])
    p.add_argument("--masc", default="both", choices=["on", "off", "both"])
    p.add_argument("--fixtures", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--target-agent", type=_index_or("random"),
                   help="fault target: agent index or 'random'")
    p.add_argument("--step-selector", type=_index_or("uniform", "early"),
                   help="'uniform', 'early', or a fixed step index")
    p.add_argument("--corruption", choices=["misleading_template", "scramble"])
    p.add_argument("--delta", type=float, help="override calibrated threshold")
    p.add_argument("--quantile", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--out", help="JSON report path (default stdout)")
    p.add_argument("--csv", help="CSV report path")
    p.add_argument("--dump-traces",
                   help="dump the runs of the cells the report shows as JSONL here")

    return parser


_CONFIG_KEYS = {
    "epochs", "seed", "d_h", "layers", "dim", "lr", "weight_decay", "lam", "lambda",
    "with_gt", "exclude_labeled_steps",
}


def _load_config_file(path: str) -> dict:
    """Settings from a JSON or TOML file; ConfigError unless it holds an
    object whose keys are known. ``TrainConfig``, ``EmbedderSpec`` and
    ``BackboneSpec`` check the values."""
    try:
        if path.endswith(".toml"):
            try:
                import tomllib
            except ImportError:  # new in Python 3.11
                raise ConfigError(
                    f"config file {path}: TOML configs need Python 3.11 or later; "
                    "use JSON"
                ) from None
            with open(path, "rb") as fh:
                settings = tomllib.load(fh)
        else:
            with open(path, "rb") as fh:
                settings = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, TOMLDecodeError, bad UTF-8
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(settings, dict):
        raise ConfigError(f"config file {path} must hold an object at the top level")
    unknown = set(settings) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return settings


def _resolve_train_config(args) -> TrainConfig:
    settings = dict(PROFILES[args.profile]) if args.profile else {}
    if args.config:
        file_settings = _load_config_file(args.config)
        if "lambda" in file_settings:
            if "lam" in file_settings:
                raise ConfigError(f"config file {args.config} gives both 'lam' and 'lambda'")
            file_settings["lam"] = file_settings.pop("lambda")
        settings.update(file_settings)
    settings.update(_given(
        epochs=args.epochs, lr=args.lr, weight_decay=args.weight_decay,
        lam=args.lam, seed=args.seed, d_h=args.hidden, layers=args.layers,
        dim=args.dim, with_gt=args.with_gt,
        exclude_labeled_steps=args.exclude_labeled_steps,
    ))
    # A null in the file is a value to reject, not a setting left out.
    embedder = EmbedderSpec(**{"dimension": settings.pop("dim")} if "dim" in settings else {})
    layers = {"layers": settings.pop("layers")} if "layers" in settings else {}
    cfg = TrainConfig(embedder=embedder, **settings)
    return replace(
        cfg, backbone=BackboneSpec(hidden_dim=cfg.d_h, seed=cfg.seed, **layers)
    )


def _config_echo(cfg: TrainConfig) -> dict:
    return {
        "epochs": cfg.epochs, "lr": cfg.lr, "weight_decay": cfg.weight_decay,
        "lambda": cfg.lam, "seed": cfg.seed, "d_h": cfg.d_h,
        "dim": cfg.embedder.dimension, "layers": cfg.backbone.layers,
        "with_gt": cfg.with_gt, "exclude_labeled_steps": cfg.exclude_labeled_steps,
    }


def cmd_ingest(args) -> list:
    trajectories = load_trajectories(args.traces, strict=args.strict)
    outputs = [(args.out, map(serialize_trajectory, trajectories))] if args.out else []
    report = {
        "version": __version__,
        "trajectories": len(trajectories),
        "steps": sum(len(t) for t in trajectories),
        "labeled_trajectories": sum(1 for t in trajectories if t.labeled_steps),
    }
    return outputs + [(None, json.dumps(report, indent=2) + "\n")]


def cmd_train(args) -> list:
    cfg = _resolve_train_config(args)
    trajectories = load_trajectories(args.traces, strict=args.strict)
    model, report = train(cfg, trajectories)
    digest, chunks = checkpoint_chunks(model, None)
    payload = {
        **asdict(report), "checkpoint_digest": digest,
        "config": _config_echo(cfg), "version": __version__,
    }
    return [(args.checkpoint, chunks), (args.report, json.dumps(payload, indent=2) + "\n")]


def cmd_calibrate(args) -> list:
    model, _ = load_checkpoint(args.checkpoint)
    trajectories = load_trajectories(args.traces, strict=args.strict)
    calibration = calibrate_threshold(
        model, trajectories,
        **_given(quantile=args.quantile, alpha=args.alpha, beta=args.beta),
    )
    out_path = args.out or args.checkpoint
    payload = {"version": __version__, **asdict(calibration), "checkpoint": out_path}
    return [(out_path, checkpoint_chunks(model, calibration)[1]),
            (None, json.dumps(payload, indent=2) + "\n")]


def _score_rows(model, calibration, trajectories, alpha, beta, delta):
    # A value given here, else the checkpoint's calibration, else the default.
    weights = {"alpha": 1.0, "beta": 1.0, "delta": math.inf}
    if calibration:
        weights.update(alpha=calibration.alpha, beta=calibration.beta, delta=calibration.delta)
    weights.update(_given(alpha=alpha, beta=beta, delta=delta))
    for trajectory, verdicts in zip(trajectories, score_corpus(model, trajectories, **weights)):
        for v in verdicts:
            yield trajectory, v


def cmd_score(args) -> list:
    model, calibration = load_checkpoint(args.checkpoint)
    trajectories = load_trajectories(args.traces, strict=args.strict)
    if not trajectories:
        raise DataError("no trajectories in input")
    # Ids are quoted only when they hold a comma, a quote or a line break.
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["trajectory_id", "t", "score", "recon_term", "proto_term", "flagged"])
    for trajectory, v in _score_rows(
        model, calibration, trajectories, args.alpha, args.beta, args.delta
    ):
        writer.writerow([
            trajectory.id, v.t, f"{v.score:.17g}", f"{v.recon_term:.17g}",
            f"{v.proto_term:.17g}", int(v.flagged),
        ])
    return [(args.out, text.getvalue())]


_SCORE_COLUMNS = ("trajectory_id", "t", "score", "flagged")


def _scores_from_csv(path: str) -> list[tuple[str, int, float, bool]]:
    """The (trajectory id, t, score, flagged) rows of a ``masc score`` CSV.

    A missing column, a short row, a non-numeric field, a non-finite score, a
    ``flagged`` other than 0 or 1, a repeated (trajectory id, t) or an
    unreadable file raises DataError naming the file and line.
    """
    rows = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [c for c in _SCORE_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise DataError(f"{path}: missing column(s) {', '.join(missing)}")
            for row in reader:
                try:
                    key = (row["trajectory_id"], int(row["t"]))
                    score, flagged = float(row["score"]), int(row["flagged"])
                except (TypeError, ValueError) as exc:
                    raise DataError(
                        f"{path}:{reader.line_num}: missing or non-numeric field ({exc})"
                    ) from exc
                if flagged not in (0, 1):
                    raise DataError(f"{path}:{reader.line_num}: flagged {flagged} is not 0 or 1")
                if not math.isfinite(score):
                    raise DataError(f"{path}:{reader.line_num}: non-finite score {score}")
                if key in rows:
                    raise DataError(f"{path}:{reader.line_num}: repeated step {key}")
                rows[key] = (*key, score, bool(flagged))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: unreadable CSV ({exc})") from exc
    return list(rows.values())


def cmd_eval(args) -> list:
    if args.scores is None and args.checkpoint is None:
        raise ConfigError("eval needs --scores or --checkpoint")
    if args.scores and (args.alpha, args.beta) != (None, None):
        raise ConfigError("--alpha and --beta act only with --checkpoint, not --scores")
    check_int(args.bins, "bins", 2)
    trajectories = load_trajectories(args.traces, strict=args.strict)
    if args.scores:
        rows = _scores_from_csv(args.scores)
    else:
        model, calibration = load_checkpoint(args.checkpoint)
        rows = [
            (trajectory.id, v.t, v.score, v.flagged)
            for trajectory, v in _score_rows(
                model, calibration, trajectories, args.alpha, args.beta, None
            )
        ]
    labels = {
        (t.id, i): s.label
        for t in trajectories
        for i, s in enumerate(t.steps, start=1)
    }
    scored = []
    for trajectory_id, t, score, flagged in rows:
        label = labels.pop((trajectory_id, t), None)
        if label is None:
            raise DataError(f"step {(trajectory_id, t)} has no label")
        scored.append(ScoredStep(
            trajectory_id=trajectory_id, t=t, score=score, label=label, flagged=flagged,
        ))
    if labels:  # only a --scores CSV can leave steps out
        raise DataError(f"{args.scores}: no score for step {next(iter(labels))}")
    payload = {**asdict(compute_metrics(scored)), "version": __version__}
    outputs = [(args.hist, score_histogram(scored, bins=args.bins).to_csv())] if args.hist else []
    return outputs + [(args.out, json.dumps(payload, indent=2) + "\n")]


def cmd_diag(args) -> list:
    check_int(args.bins, "bins", 1)
    embedder = EmbedderSpec(**_given(dimension=args.dim))
    trajectories = load_trajectories(args.traces, strict=args.strict)
    raw, augmented = embedding_distance_diagnostics(
        trajectories, [embed_trajectory(embedder, t)[1] for t in trajectories]
    )
    histogram = error_position_histogram(trajectories, bins=args.bins)
    payload = {
        "version": __version__,
        "raw": {"inter": raw.inter, "intra": raw.intra},
        "nn_augmented": {"inter": augmented.inter, "intra": augmented.intra},
        "n_normal_steps": raw.n_normal,
        "n_error_steps": raw.n_error,
        "error_position_histogram": histogram,
        "bins": args.bins,
        "embedder_dim": embedder.dimension,
    }
    return [(args.out, json.dumps(payload, indent=2) + "\n")]


def cmd_simulate(args) -> list:
    topologies = None if args.topology == "all" else (args.topology,)
    config = ExperimentConfig(
        **_given(
            topologies=topologies, n_fixtures=args.fixtures, rounds=args.rounds,
            seed=args.seed,
        ),
        with_masc_cells=args.masc in ("on", "both"),
    )
    config = replace(
        config,
        fault=replace(config.fault, **_given(
            target_agent=args.target_agent, step_selector=args.step_selector,
            corruption=args.corruption,
        )),
        masc=replace(config.masc, **_given(
            quantile=args.quantile, epochs=args.epochs, lr=args.lr, lam=args.lam,
            d_e=args.dim, d_h=args.hidden, delta_override=args.delta,
        )),
    )
    report = batch_experiment(config)
    shown = {"on": (True,), "off": (False,), "both": (False, True)}
    report.cells = [
        c for c in report.cells
        if c.faulted in shown[args.fault] and c.masc_on in shown[args.masc]
    ]
    keys = {c.key() for c in report.cells}
    report.runs = {key: runs for key, runs in report.runs.items() if key in keys}
    outputs = [(args.csv, report.to_csv())] if args.csv else []
    if args.dump_traces:  # every retained run, its id prefixed by its cell
        runs = [replace(t, id=f"{key}/{t.id}")
                for key, trajectories in sorted(report.runs.items()) for t in trajectories]
        outputs.append((args.dump_traces, map(serialize_trajectory, runs)))
    payload = {**report.to_dict(), "version": __version__}
    return outputs + [(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")]


_COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "score": cmd_score,
    "eval": cmd_eval,
    "diag": cmd_diag,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        write_files(_COMMANDS[args.command](args))
        return EXIT_OK
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError) as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MascError as exc:  # ConfigError, CheckpointError, TransportError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
