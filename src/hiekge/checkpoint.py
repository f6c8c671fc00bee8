"""Binary parameter checkpoints with a JSON metadata sidecar.

Layout: 8-byte magic "HIEKGE01", little-endian u32 tensor count, then per
tensor a u32 rank, rank u32 dims, and the row-major float64 payload.
The sidecar (same stem, .json extension) holds the caller's metadata (the
CLI writes the model kind, the vocabulary sizes, the training step, the
seed and both configs) and the tensor name/shape table. Nothing time- or
host-dependent is written, so identical params and metadata give
identical bytes. Loading rebuilds the params class of the sidecar's
model kind (`trainer.MODELS[kind].Params`) from the tensors named like
its fields; a declared tensor that class lacks is an error, so one
model's tensors never load as another's.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .trainer import MODELS

MAGIC = b"HIEKGE01"


class CheckpointError(Exception):
    """Unreadable or inconsistent checkpoint."""


class BadMagicError(CheckpointError):
    """File does not start with the checkpoint magic."""


class TruncatedError(CheckpointError):
    """File ends before the declared tensors do."""


class ShapeMismatchError(CheckpointError):
    """Blob layout disagrees with the metadata (or has trailing bytes)."""


@dataclass
class Checkpoint:
    params: object
    meta: dict


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def save_checkpoint(params, meta, path) -> None:
    """Write the binary blob and its metadata sidecar."""
    path = Path(path)
    tensors = params.field_items()
    meta = dict(meta)
    meta["tensors"] = [{"name": name, "shape": list(t.shape)} for name, t in tensors]
    chunks = [MAGIC, struct.pack("<I", len(tensors))]
    for _, tensor in tensors:
        # np.ascontiguousarray would promote 0-d tensors to 1-d; keep the rank
        tensor = np.array(tensor, dtype="<f8", order="C", copy=None)
        chunks.append(struct.pack("<I", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(tensor.tobytes(order="C"))
    path.write_bytes(b"".join(chunks))
    with open(sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.blob):
            raise TruncatedError(f"checkpoint ends inside {what}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint back into a params object; round trip is bit exact."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:8] != MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint (bad magic)")
    reader = _Reader(blob)
    reader.pos = 8
    count = reader.u32("tensor count")
    arrays = []
    for idx in range(count):
        rank = reader.u32(f"tensor {idx} rank")
        if rank > 8:
            raise ShapeMismatchError(f"{path}: tensor {idx} claims rank {rank}")
        dims = [reader.u32(f"tensor {idx} dims") for _ in range(rank)]
        n = math.prod(dims)  # exact; a 64-bit product can wrap to zero or below
        raw = reader.take(8 * n, f"tensor {idx} data")
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
        arrays.append(arr)
    if reader.pos != len(blob):
        raise ShapeMismatchError(f"{path}: {len(blob) - reader.pos} trailing byte(s)")

    meta_path = sidecar_path(path)
    if not meta_path.exists():
        raise CheckpointError(f"{path}: missing metadata sidecar {meta_path.name}")
    try:
        with open(meta_path, encoding="utf-8") as f:
            meta = json.load(f)
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata sidecar: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata sidecar must hold a JSON object")
    declared = meta.get("tensors")
    if not isinstance(declared, list) or len(declared) != count:
        raise ShapeMismatchError(f"{path}: metadata declares a different tensor count")
    named = {}
    for entry, arr in zip(declared, arrays):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
        ):
            raise CheckpointError(f"{path}: malformed tensor entry {entry!r}")
        if list(arr.shape) != entry["shape"]:
            raise ShapeMismatchError(
                f"{path}: tensor {entry['name']} is {list(arr.shape)}, "
                f"metadata says {entry['shape']}"
            )
        named[entry["name"]] = arr

    kind = meta.get("model_kind")
    # a JSON list or object is unhashable, so only a str is looked up
    if not (isinstance(kind, str) and kind in MODELS):
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    names = [f.name for f in fields(MODELS[kind].Params)]
    missing = [n for n in names if n not in named]
    if missing:
        raise ShapeMismatchError(f"{path}: missing tensors {missing}")
    extra = [n for n in named if n not in names]
    if extra:
        raise ShapeMismatchError(f"{path}: tensors {extra} are not parameters of model kind {kind!r}")
    return Checkpoint(params=MODELS[kind].Params(**named), meta=meta)
