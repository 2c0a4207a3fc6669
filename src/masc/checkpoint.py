"""Versioned binary checkpoints for trained detectors.

Layout:

    magic "MASCCKPT" | u32 header length | header JSON (UTF-8) | payload

The header records the format version, dimensions, embedder and backbone
specs, seed, training lambda, optional calibration (alpha, beta, delta,
quantile, stats), the parameter block order with shapes, and the SHA-256 of
the payload. The payload is the concatenation of all parameter arrays as raw
little-endian float64 in the documented fixed order.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np

from .detector import PARAM_ORDER, BackboneSpec, DetectorModel
from .embedding import EmbedderSpec
from .errors import CheckpointError
from .training import Calibration

MAGIC = b"MASCCKPT"
FORMAT_VERSION = 1
_LEN = struct.Struct("<I")


def save_checkpoint(
    model: DetectorModel,
    calibration: Calibration | None,
    path: str,
    lam: float | None = None,
) -> str:
    """Write model (+ optional calibration) to ``path``; returns payload digest."""
    payload = b"".join(
        model.params[name].astype("<f8").tobytes() for name in PARAM_ORDER
    )
    digest = hashlib.sha256(payload).hexdigest()
    header = {
        "format_version": FORMAT_VERSION,
        "d_e": model.d_e,
        "d_h": model.d_h,
        "d": model.d,
        "seed": model.seed,
        "with_gt": model.with_gt,
        "lambda": lam,
        "embedder": asdict(model.embedder),
        "backbone": asdict(model.backbone),
        "calibration": None
        if calibration is None
        else {
            "delta": calibration.delta,
            "quantile": calibration.quantile,
            "alpha": calibration.alpha,
            "beta": calibration.beta,
            "stats": calibration.stats,
        },
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
        params: dict[str, np.ndarray] = {}
        offset = 0
        for name in header["param_order"]:
            shape = tuple(header["param_shapes"][name])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(payload, dtype="<f8", offset=offset, count=count)
            params[name] = arr.reshape(shape).astype(np.float64)
            offset += count * 8
        if offset != len(payload):
            raise CheckpointError("corrupt checkpoint: payload size mismatch")
        if sorted(params) != sorted(PARAM_ORDER):
            raise CheckpointError("corrupt checkpoint: unexpected parameter names")
        model = DetectorModel(
            d_e=header["d_e"],
            d_h=header["d_h"],
            embedder=EmbedderSpec(**header["embedder"]),
            backbone=BackboneSpec(**header["backbone"]),
            seed=header["seed"],
            with_gt=header["with_gt"],
            params=params,
        )
        shapes = model.param_shapes()
        if (
            header["d"] != model.d
            or model.embedder.dimension != model.d_e
            or any(params[name].shape != shapes[name] for name in PARAM_ORDER)
        ):
            raise CheckpointError(
                "corrupt checkpoint: header dimensions disagree with param_shapes"
            )
        calibration = None
        if header.get("calibration"):
            c = header["calibration"]
            calibration = Calibration(
                delta=c["delta"],
                quantile=c["quantile"],
                alpha=c["alpha"],
                beta=c["beta"],
                stats=c.get("stats", {}),
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint: malformed header ({exc!r})") from exc
    return model, calibration

