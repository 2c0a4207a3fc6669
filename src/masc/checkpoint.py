"""Versioned binary checkpoints for trained detectors.

Layout:

    magic "MASCCKPT" | u32 header length | header JSON (UTF-8) | payload

The header records the format version, dimensions, embedder and backbone
specs, seed, the lambda the model was trained with, the optional
calibration (the fields of ``training.Calibration``), the parameter block
order with shapes, and the SHA-256 of the payload. The payload is the
model's parameter buffer (``params.flat``): all parameter arrays as raw
little-endian float64, concatenated in ``PARAM_ORDER``. A header with any other block order is rejected.

Neither direction copies the parameter buffer whole. ``checkpoint_chunks``
hashes ``params.flat`` through the buffer protocol and returns the header
bytes and then the buffer itself as the file's chunks. ``save_checkpoint``
hands them to ``trace.write_files``, whose first phase writes them to a
synced temporary file and whose second renames it over the target, so the
file is written whole or not at all; ``masc train`` and ``masc calibrate``
hand them over together with their reports. ``load_checkpoint`` reads the
magic, the header length and the header, checks the payload size the
header declares against the file's size, then reads the payload with
``readinto`` straight into the new model's buffer, which is the only copy,
and hashes it there.

``load_checkpoint`` checks the framing: the magic, the header length, that
the header is a JSON object, the version, the block order, the payload
size, the payload digest and that ``d`` is the integer ``2 * d_e``. Every
other field is checked by the type it builds (``DetectorModel``, whose
check covers the parameter shapes, ``EmbedderSpec``, ``BackboneSpec`` and
``Calibration``), and a ConfigError from those checks is re-raised as
CheckpointError.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .detector import PARAM_ORDER, BackboneSpec, DetectorModel, FlatParams
from .embedding import EmbedderSpec
from .errors import CheckpointError, ConfigError
from .trace import write_files
from .training import Calibration

MAGIC = b"MASCCKPT"
FORMAT_VERSION = 1
_LEN = struct.Struct("<I")


def checkpoint_chunks(
    model: DetectorModel, calibration: Calibration | None
) -> tuple[str, tuple]:
    """The payload digest and the chunks of a checkpoint file: the framed
    header bytes, then ``params.flat`` itself, with no copy."""
    payload = model.params.flat.astype("<f8", copy=False)  # no copy on little-endian hosts
    digest = hashlib.sha256(payload).hexdigest()
    header = {
        "format_version": FORMAT_VERSION,
        "d_e": model.d_e,
        "d_h": model.d_h,
        "d": model.d,
        "seed": model.seed,
        "with_gt": model.with_gt,
        "lambda": model.lam,
        "embedder": asdict(model.embedder),
        "backbone": asdict(model.backbone),
        "calibration": None if calibration is None else asdict(calibration),
        "param_order": list(PARAM_ORDER),
        "param_shapes": {k: list(model.params[k].shape) for k in PARAM_ORDER},
        "payload_sha256": digest,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return digest, (MAGIC + _LEN.pack(len(blob)) + blob, payload)


def save_checkpoint(
    model: DetectorModel, calibration: Calibration | None, path: str
) -> str:
    """Write model (+ optional calibration) to ``path`` through
    ``trace.write_files``, whole or not at all; returns payload digest."""
    digest, chunks = checkpoint_chunks(model, calibration)
    write_files([(path, chunks)])
    return digest


def load_checkpoint(path: str) -> tuple[DetectorModel, Calibration | None]:
    """Read a checkpoint; verifies magic, version, and payload integrity.

    Any malformed header (missing keys, wrong types or ranges, shapes that
    do not match the payload) raises CheckpointError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + _LEN.size)
        if len(head) < len(MAGIC) + _LEN.size or head[: len(MAGIC)] != MAGIC:
            raise CheckpointError("corrupt checkpoint: bad magic")
        (header_len,) = _LEN.unpack_from(head, len(MAGIC))
        header_end = len(head) + header_len
        blob = fh.read(header_len) if header_end <= size else b""
        if len(blob) != header_len:
            raise CheckpointError("corrupt checkpoint: truncated header")
        try:
            header = json.loads(blob)
        except ValueError as exc:  # undecodable UTF-8 or malformed JSON
            raise CheckpointError("corrupt checkpoint: unreadable header") from exc
        if not isinstance(header, dict):
            raise CheckpointError("corrupt checkpoint: header is not an object")
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version} not supported "
                f"(expected {FORMAT_VERSION})"
            )
        try:
            if header["param_order"] != list(PARAM_ORDER):
                raise CheckpointError("corrupt checkpoint: unexpected parameter order")
            shapes = {name: tuple(header["param_shapes"][name]) for name in PARAM_ORDER}
            n_values = sum(math.prod(shape) for shape in shapes.values())
            # Checked against the file before the buffer is allocated, so a
            # forged header cannot ask for more memory than the file holds;
            # a trailing byte fails here too.
            if 8 * n_values != size - header_end:
                raise CheckpointError("corrupt checkpoint: payload size mismatch")
            payload = np.empty(n_values, dtype="<f8")
            if fh.readinto(payload) != payload.nbytes:
                raise CheckpointError("corrupt checkpoint: payload size mismatch")
            if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
                raise CheckpointError("corrupt checkpoint: payload digest mismatch")
            if type(header["d"]) is not int or header["d"] != 2 * header["d_e"]:
                raise CheckpointError("corrupt checkpoint: d is not 2 * d_e")
            params = FlatParams(shapes, payload.astype(np.float64, copy=False))
            model = DetectorModel(
                d_e=header["d_e"],
                d_h=header["d_h"],
                embedder=EmbedderSpec(**header["embedder"]),
                backbone=BackboneSpec(**header["backbone"]),
                seed=header["seed"],
                with_gt=header["with_gt"],
                params=params,
                lam=header["lambda"],
            )
            # A missing or unknown field is a TypeError; ``stats`` may be absent.
            cal = header.get("calibration")
            calibration = None if cal is None else Calibration(**cal)
        except ConfigError as exc:
            raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupt checkpoint: malformed header ({exc!r})") from exc
    return model, calibration
