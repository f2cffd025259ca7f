"""Binary tensor checkpoint: magic "FTCK", then named float64 entries.

Layout, all little-endian:

    magic   4 bytes  b"FTCK"
    version u32
    count   u32      number of entries
    entry*  count times:
        name_len u16, name UTF-8 bytes
        rank     u8
        dims     rank x u64
        payload  prod(dims) x f64 (row-major)

Writes are deterministic for a given entry order, so save/load/save
round-trips to identical bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CorruptFileError

MAGIC = b"FTCK"
VERSION = 1


def save_tensors(path: str | Path, entries: dict[str, np.ndarray]) -> None:
    """Write `entries` (insertion order preserved) to `path`."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", VERSION, len(entries))
    for name, array in entries.items():
        # asarray, not ascontiguousarray: the latter promotes rank 0 to rank 1,
        # and tobytes() already serializes in C order.
        arr = np.asarray(array, dtype="<f8")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"entry name too long: {name!r}")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<Q", dim)
        out += arr.tobytes()
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, blob: bytes, label: str):
        self.blob = blob
        self.pos = 0
        self.label = label

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CorruptFileError(f"{self.label}: truncated while reading {what}")
        piece = self.blob[self.pos : self.pos + n]
        self.pos += n
        return piece

    def unpack(self, fmt: str, what: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into an ordered name -> float64 array mapping."""
    label = str(path)
    reader = _Reader(Path(path).read_bytes(), label)
    magic = reader.take(4, "magic")
    if magic != MAGIC:
        raise CorruptFileError(f"{label}: bad magic {magic!r}, expected {MAGIC!r}")
    (version, count) = reader.unpack("<II", "header")
    if version != VERSION:
        raise CorruptFileError(f"{label}: unsupported version {version}")
    entries: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = reader.unpack("<H", f"entry {i} name length")
        try:
            name = reader.take(name_len, f"entry {i} name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"{label}: entry {i} name is not UTF-8") from exc
        if name in entries:
            raise CorruptFileError(f"{label}: duplicate entry name {name!r}")
        (rank,) = reader.unpack("<B", f"entry {name!r} rank")
        dims = []
        for _ in range(rank):
            (dim,) = reader.unpack("<Q", f"entry {name!r} dims")
            dims.append(int(dim))
        total = 1
        for dim in dims:
            total *= dim
        payload = reader.take(total * 8, f"entry {name!r} payload")
        try:
            # An empty payload passes the size check whatever its other dims.
            entries[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
        except ValueError as exc:
            raise CorruptFileError(
                f"{label}: entry {name!r} has an impossible shape of rank {rank}: {exc}"
            ) from exc
    if reader.pos != len(reader.blob):
        raise CorruptFileError(
            f"{label}: {len(reader.blob) - reader.pos} trailing bytes after last entry"
        )
    return entries
