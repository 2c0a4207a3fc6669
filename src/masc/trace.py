"""Canonical data model for multi-agent execution traces.

A trajectory is a task query plus an ordered list of (role, output) steps,
optionally annotated with per-step binary error labels and a ground-truth
answer. Step indices are 1-based throughout the package.

The on-disk format is JSONL, one object per line, UTF-8 with LF endings:

    {"id": str, "query": str, "gt_answer": str|null,
     "steps": [{"role": str, "output": str, "label": 0|1|null}, ...]}

Serialization is canonical: fixed key order, all optional keys present with
null, compact separators, trailing newline. ``parse(serialize(t)) == t`` for
every valid trajectory.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass

from .errors import DataError, TraceParseError, TraceValidationError

logger = logging.getLogger(__name__)

_TRAJECTORY_KEYS = {"id", "query", "gt_answer", "steps"}
_STEP_KEYS = {"role", "output", "label"}


def _valid_label(label) -> bool:
    """None, 0 or 1 as an int: ``true`` and ``1.0`` compare equal to 1 but
    would not re-serialize canonically."""
    return label is None or (type(label) is int and label in (0, 1))


@dataclass(frozen=True)
class Step:
    role: str
    output: str
    label: int | None = None

    def __post_init__(self):
        if not self.role:
            raise TraceValidationError("step role must be non-empty")
        if not self.output:
            raise TraceValidationError("step output must be non-empty")
        if not _valid_label(self.label):
            raise TraceValidationError(f"step label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class Trajectory:
    id: str
    query: str
    steps: tuple[Step, ...]
    gt_answer: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.id:
            raise TraceValidationError("trajectory id must be non-empty")
        if not self.query:
            raise TraceValidationError("trajectory query must be non-empty")
        if not self.steps:
            raise TraceValidationError("empty steps")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def labeled_steps(self) -> list[int]:
        """1-based indices of steps labeled as errors."""
        return [t for t, step in enumerate(self.steps, start=1) if step.label == 1]


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[Trajectory, ...]
    test: tuple[Trajectory, ...]
    seed: int
    ratio: float


def _check_encodable(text: str, field: str, step: int | None = None) -> None:
    """TraceValidationError naming the field (of step ``step``, if given) when
    ``text`` holds a lone surrogate: a ``\\ud800``-style escape parses to one,
    and UTF-8 cannot encode it, so the trace would not re-serialize. An ASCII
    string, the common case, is not encoded."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            where = field if step is None else f"step {step} {field}"
            raise TraceValidationError(f"{where} holds a lone surrogate escape") from None


def _check_keys(obj: dict, allowed: set[str], what: str, strict: bool):
    unknown = set(obj) - allowed
    if unknown:
        if strict:
            raise TraceValidationError(f"unknown {what} keys: {sorted(unknown)}")
        logger.warning("ignoring unknown %s keys: %s", what, sorted(unknown))


def parse_trajectory(line: bytes | str, strict: bool = False) -> Trajectory:
    """Parse one JSONL line into a validated Trajectory.

    Malformed JSON or a byte that is not UTF-8 raises TraceParseError
    carrying the byte offset; schema violations raise TraceValidationError,
    and so does a string field that holds a lone surrogate, so that every
    trajectory this returns re-serializes. Key order in the source does not
    matter. Unknown keys are rejected in
    strict mode, otherwise logged.
    """
    try:
        text = line.decode("utf-8") if isinstance(line, bytes) else line
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"invalid UTF-8: {exc.reason}", exc.start) from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        byte_offset = len(text[: exc.pos].encode("utf-8"))
        raise TraceParseError(f"malformed JSON: {exc.msg}", byte_offset) from exc
    if not isinstance(obj, dict):
        raise TraceValidationError("trace line must be a JSON object")
    _check_keys(obj, _TRAJECTORY_KEYS, "trajectory", strict)
    for required in ("id", "query", "steps"):
        if required not in obj:
            raise TraceValidationError(f"missing required key {required!r}")
    raw_steps = obj["steps"]
    if not isinstance(raw_steps, list):
        raise TraceValidationError("steps must be an array")
    steps = []
    for i, raw in enumerate(raw_steps, start=1):
        if not isinstance(raw, dict):
            raise TraceValidationError(f"step {i} must be an object")
        _check_keys(raw, _STEP_KEYS, "step", strict)
        role = raw.get("role")
        output = raw.get("output")
        if not isinstance(role, str) or not isinstance(output, str):
            raise TraceValidationError(f"step {i} needs string role and output")
        _check_encodable(role, "role", i)
        _check_encodable(output, "output", i)
        label = raw.get("label")
        if not _valid_label(label):
            raise TraceValidationError(f"step {i} label must be 0, 1, or null")
        steps.append(Step(role=role, output=output, label=label))
    gt = obj.get("gt_answer")
    if gt is not None and not isinstance(gt, str):
        raise TraceValidationError("gt_answer must be a string or null")
    if not isinstance(obj["id"], str) or not isinstance(obj["query"], str):
        raise TraceValidationError("id and query must be strings")
    for key, text in (("id", obj["id"]), ("query", obj["query"]), ("gt_answer", gt or "")):
        _check_encodable(text, key)
    return Trajectory(id=obj["id"], query=obj["query"], steps=tuple(steps), gt_answer=gt)


def serialize_trajectory(trajectory: Trajectory) -> bytes:
    """Canonical one-line JSON encoding, deterministic byte-for-byte."""
    payload = {
        "id": trajectory.id,
        "query": trajectory.query,
        "gt_answer": trajectory.gt_answer,
        "steps": [
            {"role": s.role, "output": s.output, "label": s.label}
            for s in trajectory.steps
        ],
    }
    text = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
    return text.encode("utf-8") + b"\n"


def load_trajectories(path: str, strict: bool = False) -> list[Trajectory]:
    """Read a JSONL trace file; blank lines are skipped.

    A bad line raises the parser's error, of the same type, with the message
    prefixed by ``path:lineno``; a TraceParseError keeps its ``byte_offset``,
    counted from the start of that line.
    """
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse_trajectory(line, strict=strict))
            except TraceParseError as exc:
                raise TraceParseError(
                    f"{path}:{lineno}: {exc.reason}", exc.byte_offset
                ) from exc
            except DataError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return out


def save_trajectories(path: str, trajectories: list[Trajectory]):
    with open(path, "wb") as fh:
        for trajectory in trajectories:
            fh.write(serialize_trajectory(trajectory))


def split_dataset(
    trajectories: list[Trajectory], ratio: float, seed: int
) -> DatasetSplit:
    """Deterministic train/test partition.

    The shuffle orders trajectories by SHA-256 of "{seed}:{id}", which is
    stable across platforms and library versions; the first round(ratio * n)
    go to train.
    """
    if len(trajectories) < 2:
        raise DataError("cannot split fewer than 2 trajectories")
    if not (0.0 < ratio < 1.0):
        raise DataError("ratio must be in (0, 1)")
    ids = [t.id for t in trajectories]
    if len(set(ids)) != len(ids):
        raise TraceValidationError("duplicate trajectory ids; split requires unique ids")

    def sort_key(item):
        index, trajectory = item
        digest = hashlib.sha256(f"{seed}:{trajectory.id}".encode("utf-8")).digest()
        return (digest, index)

    shuffled = [t for _, t in sorted(enumerate(trajectories), key=sort_key)]
    n_train = int(round(ratio * len(shuffled)))
    return DatasetSplit(
        train=tuple(shuffled[:n_train]),
        test=tuple(shuffled[n_train:]),
        seed=seed,
        ratio=ratio,
    )


def error_position_histogram(trajectories: list[Trajectory], bins: int) -> list[int]:
    """Histogram of labeled-error positions relative to trajectory length.

    A labeled error at step t of a length-T trajectory lands in bin
    floor((t-1)/T * bins). Trajectories without labels are ignored; if none
    carry labels this is an error.
    """
    if bins < 1:
        raise DataError("bins must be >= 1")
    counts = [0] * bins
    seen_any = False
    for trajectory in trajectories:
        T = len(trajectory)
        for t in trajectory.labeled_steps:
            seen_any = True
            b = min(int((t - 1) / T * bins), bins - 1)
            counts[b] += 1
    if not seen_any:
        raise DataError("no labels in any trajectory")
    return counts


EARLY_FRACTION = 0.2  # the leading share of a run whose steps count as early


def is_early_step(t: int, total: int) -> bool:
    """True when step t falls in the leading ``EARLY_FRACTION`` of a run of
    ``total`` steps, by the histogram's relative position (t-1)/total."""
    return (t - 1) / total < EARLY_FRACTION
