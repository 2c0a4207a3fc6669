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

Each field is checked once, by the type that declares it: ``Step`` and
``Trajectory`` require non-empty strings that UTF-8 can encode (``gt_answer``
may be ``""`` or null) and a label of 0, 1 or null, however they are built.
``parse_trajectory`` checks only the framing: the JSON object, its keys and
that ``steps`` is an array of objects. ``load_trajectories`` adds the one
check that spans lines, that no trajectory id repeats.

``write_files`` is the package's one way to write a file: every file that
``masc`` writes, traces, checkpoints and reports alike, goes through it
whole or not at all. It writes a set of files in two phases, each file to a
synced temporary file and then every temporary file renamed over its
target, so a set is replaced whole or left as it was.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import DataError, TraceParseError, TraceValidationError

logger = logging.getLogger(__name__)

_TRAJECTORY_KEYS = {"id", "query", "gt_answer", "steps"}
_STEP_KEYS = {"role", "output", "label"}
_SURROGATE = re.compile("[\ud800-\udfff]")  # what UTF-8 cannot encode


def _check_text(value, field: str, empty_ok: bool = False) -> None:
    """TraceValidationError naming ``field`` unless ``value`` is a string that
    is non-empty (unless ``empty_ok``) and that UTF-8 can encode: a
    ``\\ud800``-style escape parses to a lone surrogate, which would not
    re-serialize. An ASCII string, the common case, is not encoded."""
    if not isinstance(value, str) or not (value or empty_ok):
        raise TraceValidationError(f"{field} must be a non-empty string")
    if not value.isascii() and _SURROGATE.search(value):
        raise TraceValidationError(f"{field} holds a lone surrogate escape")


@dataclass(frozen=True)
class Step:
    role: str
    output: str
    label: int | None = None

    def __post_init__(self):
        _check_text(self.role, "role")
        _check_text(self.output, "output")
        # true and 1.0 compare equal to 1 but would not re-serialize as 1.
        if not (self.label is None or (type(self.label) is int and self.label in (0, 1))):
            raise TraceValidationError(f"label must be 0, 1 or null, got {self.label!r}")


@dataclass(frozen=True)
class Trajectory:
    id: str
    query: str
    steps: tuple[Step, ...]
    gt_answer: str | None = None

    def __post_init__(self):
        _check_text(self.id, "id")
        _check_text(self.query, "query")
        if self.gt_answer is not None:
            _check_text(self.gt_answer, "gt_answer", empty_ok=True)
        if not isinstance(self.steps, (tuple, list)) or not all(
            type(step) is Step for step in self.steps
        ):
            raise TraceValidationError("steps must be a sequence of Step")
        if not self.steps:
            raise TraceValidationError("empty steps")
        object.__setattr__(self, "steps", tuple(self.steps))

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


def _check_keys(obj: dict, allowed: set[str], what: str, strict: bool):
    unknown = set(obj) - allowed
    if unknown:
        if strict:
            raise TraceValidationError(f"unknown {what} keys: {sorted(unknown)}")
        logger.warning("ignoring unknown %s keys: %s", what, sorted(unknown))


def parse_trajectory(line: bytes | str, strict: bool = False) -> Trajectory:
    """Parse one JSONL line into a validated Trajectory.

    Malformed JSON or a byte that is not UTF-8 raises TraceParseError
    carrying the byte offset. A line that is not an object, lacks a required
    key or whose ``steps`` is not an array of objects raises
    TraceValidationError, and so does any field ``Step`` or ``Trajectory``
    rejects; a step's error is prefixed ``step i``. Key order in the source
    does not matter. Unknown keys are rejected in strict mode, otherwise
    logged.
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
        try:
            steps.append(Step(raw.get("role"), raw.get("output"), raw.get("label")))
        except TraceValidationError as exc:
            raise TraceValidationError(f"step {i} {exc}") from None
    return Trajectory(obj["id"], obj["query"], steps, obj.get("gt_answer"))


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
    counted from the start of that line. A trajectory id that an earlier
    line holds raises TraceValidationError: steps are matched and grouped by
    (trajectory id, t).
    """
    out = []
    first_line: dict[str, int] = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                trajectory = parse_trajectory(line, strict=strict)
            except TraceParseError as exc:
                raise TraceParseError(
                    f"{path}:{lineno}: {exc.reason}", exc.byte_offset
                ) from exc
            except DataError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
            if first_line.setdefault(trajectory.id, lineno) != lineno:
                raise TraceValidationError(
                    f"{path}:{lineno}: trajectory id repeats {trajectory.id!r} "
                    f"of line {first_line[trajectory.id]}"
                )
            out.append(trajectory)
    return out


def write_files(outputs: Iterable[tuple[str | None, str | Iterable]]) -> None:
    """Write each ``(path, data)`` of ``outputs``: every file or none, then
    standard output. ``data`` is a str, written as UTF-8, or an iterable of
    bytes-like chunks; a ``path`` of None or ``""`` means standard output.

    Phase 1 writes each file's data to a temporary file beside the file
    ``path`` names, after symlinks, and flushes and syncs it to disk. A
    target that exists but is not a regular file, such as ``/dev/stdout``
    or a FIFO, cannot be renamed over: it is opened in this phase, so that a
    directory fails before any rename, and written in place after phase 2.
    Phase 2 renames every temporary file over its target, in order. On any
    failure every temporary file left is removed and the error re-raised; an
    error creating a temporary file names ``path``, not the temporary file.
    So only a failing ``os.replace`` in phase 2 can leave part of a set
    replaced; a target written in place is no file that can be kept whole.
    A replaced file gets a new file's mode, not the old one's; a symlink
    keeps pointing at the file it named. Last, in the order given, come the
    targets written in place and standard output: UTF-8 bytes after a
    flush, or text to a stream with no byte buffer.
    """
    staged, after = [], []  # (temporary file, target); (target opened in place or None, chunks)
    try:
        for path, data in outputs:
            chunks = (data.encode("utf-8"),) if isinstance(data, str) else data
            if not path or (os.path.exists(path) and not os.path.isfile(path)):
                after.append((open(path, "wb") if path else None, chunks))
                continue
            target = os.path.realpath(path)
            tmp = f"{target}.{os.urandom(4).hex()}.tmp"
            try:
                fh = open(tmp, "xb")
            except OSError as exc:
                raise type(exc)(exc.errno, exc.strerror, path) from None
            staged.append((tmp, target))
            with fh:
                fh.writelines(chunks)
                fh.flush()
                os.fsync(fh.fileno())
        while staged:
            os.replace(*staged[0])
            del staged[0]
    except BaseException:
        for tmp, _ in staged:
            os.unlink(tmp)
        for fh, _ in after:
            if fh:
                fh.close()
        raise
    for fh, chunks in after:
        if fh:
            with fh:
                fh.writelines(chunks)
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.writelines(chunks)
        else:  # a text-only stream, such as io.StringIO, takes any str
            sys.stdout.write(b"".join(chunks).decode("utf-8"))


def save_trajectories(path: str, trajectories: list[Trajectory]):
    """Write ``trajectories`` to ``path`` as canonical JSONL, through
    ``write_files``."""
    write_files([(path, map(serialize_trajectory, trajectories))])


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
