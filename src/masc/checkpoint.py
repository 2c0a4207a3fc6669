"""Versioned binary checkpoints for trained detectors.

Layout:

    magic "MASCCKPT" | u32 header length | header JSON (UTF-8) | payload

The header records the format version, dimensions, embedder and backbone
specs, seed, the lambda the model was trained with, the optional
calibration (the fields of ``training.Calibration``), the parameter block
order with shapes, and the SHA-256 of the payload. The payload is the
model's parameter buffer (``params.flat``): all parameter arrays as raw
little-endian float64, concatenated in ``PARAM_ORDER``. A header with any other block order is rejected.

Neither direction copies the parameter buffer whole. ``save_checkpoint``
hashes ``params.flat`` through the buffer protocol and hands the header
bytes and then the buffer itself to ``trace.write_file``, which writes the
file whole or not at all. ``load_checkpoint`` reads the file's bytes once,
hashes the payload through a ``memoryview`` of them and decodes it straight
into the new model's buffer, which is the only copy.

``load_checkpoint`` checks the framing: the magic, the header length, that
the header is a JSON object, the version, the payload digest, the block
order, the payload size and that ``d`` is the integer ``2 * d_e``. Every
other field is checked by the type it builds (``DetectorModel``, whose
check covers the parameter shapes, ``EmbedderSpec``, ``BackboneSpec`` and
``Calibration``), and a ConfigError from those checks is re-raised as
CheckpointError.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .detector import PARAM_ORDER, BackboneSpec, DetectorModel, FlatParams
from .embedding import EmbedderSpec
from .errors import CheckpointError, ConfigError
from .trace import write_file
from .training import Calibration

MAGIC = b"MASCCKPT"
FORMAT_VERSION = 1
_LEN = struct.Struct("<I")


def save_checkpoint(
    model: DetectorModel, calibration: Calibration | None, path: str
) -> str:
    """Write model (+ optional calibration) to ``path`` through
    ``trace.write_file``, whole or not at all; returns payload digest."""
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
    write_file(path, (MAGIC + _LEN.pack(len(blob)) + blob, payload))
    return digest


def load_checkpoint(path: str) -> tuple[DetectorModel, Calibration | None]:
    """Read a checkpoint; verifies magic, version, and payload integrity.

    Any malformed header (missing keys, wrong types or ranges, shapes that
    do not match the payload) raises CheckpointError.
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
    payload = memoryview(blob)[header_start + header_len :]
    try:
        if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
            raise CheckpointError("corrupt checkpoint: payload digest mismatch")
        if header["param_order"] != list(PARAM_ORDER):
            raise CheckpointError("corrupt checkpoint: unexpected parameter order")
        shapes = {name: tuple(header["param_shapes"][name]) for name in PARAM_ORDER}
        if 8 * sum(math.prod(shape) for shape in shapes.values()) != len(payload):
            raise CheckpointError("corrupt checkpoint: payload size mismatch")
        if type(header["d"]) is not int or header["d"] != 2 * header["d_e"]:
            raise CheckpointError("corrupt checkpoint: d is not 2 * d_e")
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
        # A missing or unknown field is a TypeError; ``stats`` may be absent.
        calibration = Calibration(**header["calibration"]) if header.get("calibration") else None
    except ConfigError as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint: malformed header ({exc!r})") from exc
    return model, calibration
