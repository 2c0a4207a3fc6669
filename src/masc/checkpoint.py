"""Versioned binary checkpoints for trained detectors.

Layout:

    magic "MASCCKPT" | u32 header length | header JSON (UTF-8) | payload

The header records the format version, dimensions, embedder and backbone
specs, seed, the lambda the model was trained with, the optional
calibration (the fields of ``training.Calibration``), the parameter block
order with shapes, and the SHA-256 of the payload. The payload is the
model's parameter buffer (``params.flat``): all parameter arrays as raw
little-endian float64, concatenated in ``PARAM_ORDER``. A header with any other block order is rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, fields

import numpy as np

from .detector import PARAM_ORDER, BackboneSpec, DetectorModel, FlatParams
from .embedding import EmbedderSpec
from .errors import CheckpointError
from .training import Calibration

MAGIC = b"MASCCKPT"
FORMAT_VERSION = 1
_LEN = struct.Struct("<I")


def save_checkpoint(
    model: DetectorModel, calibration: Calibration | None, path: str
) -> str:
    """Write model (+ optional calibration) to ``path``; returns payload digest."""
    payload = model.params.flat.astype("<f8", copy=False).tobytes()
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
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_LEN.pack(len(blob)))
        fh.write(blob)
        fh.write(payload)
    return digest


def load_checkpoint(path: str) -> tuple[DetectorModel, Calibration | None]:
    """Read a checkpoint; verifies magic, version, and payload integrity.

    Any malformed header (missing keys, wrong types, shapes that do not
    match the payload) raises CheckpointError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + _LEN.size or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("corrupt checkpoint: bad magic")
    (header_len,) = _LEN.unpack_from(blob, len(MAGIC))
    header_start = len(MAGIC) + _LEN.size
    if header_start + header_len > len(blob):
        raise CheckpointError("corrupt checkpoint: truncated header")
    try:
        header = json.loads(blob[header_start : header_start + header_len])
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
    payload = blob[header_start + header_len :]
    try:
        if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
            raise CheckpointError("corrupt checkpoint: payload digest mismatch")
        if header["param_order"] != list(PARAM_ORDER):
            raise CheckpointError("corrupt checkpoint: unexpected parameter order")
        shapes = {name: tuple(header["param_shapes"][name]) for name in PARAM_ORDER}
        if 8 * sum(math.prod(shape) for shape in shapes.values()) != len(payload):
            raise CheckpointError("corrupt checkpoint: payload size mismatch")
        if not (
            all(type(header[key]) is int for key in ("d_e", "d_h", "d", "seed"))
            and type(header["with_gt"]) is bool
        ):
            raise CheckpointError(
                "corrupt checkpoint: d_e, d_h, d and seed must be integers "
                "and with_gt a boolean"
            )
        params = FlatParams(shapes, np.frombuffer(payload, dtype="<f8").astype(np.float64))
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
        if not (model.lam is None or type(model.lam) in (int, float)):
            raise CheckpointError("corrupt checkpoint: lambda is not a number")
        if (
            header["d"] != model.d
            or model.embedder.dimension != model.d_e
            or params.shapes() != model.param_shapes()
        ):
            raise CheckpointError(
                "corrupt checkpoint: header dimensions disagree with param_shapes"
            )
        calibration = None
        if header.get("calibration"):
            c = header["calibration"]
            # A missing required field is a TypeError; ``stats`` may be absent.
            calibration = Calibration(
                **{f.name: c[f.name] for f in fields(Calibration) if f.name in c}
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint: malformed header ({exc!r})") from exc
    return model, calibration

