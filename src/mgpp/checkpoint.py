"""Binary checkpoints: JSON manifest + raw float64 tensors + mask bitmaps.

Layout:

    8 bytes   magic "MGPPCKPT"
    8 bytes   manifest length, little-endian uint64
    ...       manifest JSON: {"format_version": 1,
                              "tensors": [{"name", "shape", "prunable"}, ...]}
    per tensor, in manifest order:
        size*8 bytes of little-endian float64 (row-major)
        ceil(size/8) bytes of mask bits (numpy packbits order, 1 = keep)

Everything is deterministic given the store, so identical stores produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .params import ParamStore

MAGIC = b"MGPPCKPT"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(store: ParamStore, path) -> None:
    manifest = {
        "format_version": FORMAT_VERSION,
        "tensors": [{"name": name, "shape": list(p.value.shape),
                     "prunable": bool(p.prunable)}
                    for name, p in store.items()],
    }
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, p in store.items():
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
            fh.write(np.packbits(p.mask.ravel()).tobytes())


def _read_exact(fh, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes. The count comes from the file itself, so
    it is checked against the bytes left before anything is allocated."""
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return fh.read(count)


def _valid_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("prunable"), bool)
            and isinstance(entry.get("shape"), list)
            and all(isinstance(v, int) and v >= 0 for v in entry["shape"]))


def load_checkpoint(path) -> ParamStore:
    with open(path, "rb") as fh:
        if _read_exact(fh, len(MAGIC), "magic") != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
        (blob_len,) = struct.unpack("<Q", _read_exact(fh, 8, "manifest length"))
        try:
            manifest = json.loads(_read_exact(fh, blob_len, "manifest"))
        except json.JSONDecodeError as exc:
            raise CheckpointError("corrupt checkpoint manifest") from exc
        if not isinstance(manifest, dict):
            raise CheckpointError("corrupt checkpoint manifest: not an object")
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint format_version "
                                  f"{version!r}")
        tensors = manifest.get("tensors")
        if not isinstance(tensors, list) or not all(map(_valid_entry, tensors)):
            raise CheckpointError("corrupt checkpoint manifest: 'tensors' must "
                                  "list entries with a str name, a shape of "
                                  "non-negative ints and a bool prunable")
        entries, masks = [], []
        for entry in tensors:
            shape = tuple(entry["shape"])
            size = math.prod(shape)
            raw = _read_exact(fh, size * 8, f"tensor {entry['name']}")
            value = np.frombuffer(raw, dtype="<f8").reshape(shape)
            raw = _read_exact(fh, math.ceil(size / 8), f"mask {entry['name']}")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                 count=size)
            entries.append((entry["name"], value, entry["prunable"]))
            masks.append(bits.reshape(shape))
        if fh.read(1):
            raise CheckpointError("trailing bytes after last tensor")
    store = ParamStore(entries)
    for (_, p), bits in zip(store.items(), masks):
        p.mask[...] = bits
    return store
