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

import math
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import CorruptFileError, write_file

MAGIC = b"FTCK"
VERSION = 1
# A payload is written this many values at a time, so upcasting a float32
# entry holds at most two 256 KiB float64 blocks (the one being written and
# the next), never a float64 copy of the entry.
SAVE_BLOCK = 1 << 15


def save_tensors(path: str | Path, entries: dict[str, np.ndarray]) -> None:
    """Write `entries` (insertion order preserved) to `path`."""

    def chunks() -> Iterator[bytes | memoryview]:
        yield MAGIC + struct.pack("<II", VERSION, len(entries))
        for name, array in entries.items():
            arr = np.asarray(array)
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"entry name too long: {name!r}")
            yield struct.pack("<H", len(encoded)) + encoded
            yield struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape)
            flat = arr.reshape(-1)  # row-major; a view of a C-ordered entry
            for start in range(0, flat.size, SAVE_BLOCK):
                block = flat[start : start + SAVE_BLOCK]
                yield memoryview(np.ascontiguousarray(block, dtype="<f8"))  # no copy of float64

    write_file(path, chunks())


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into an ordered name -> float64 array mapping."""
    label = str(path)
    blob = Path(path).read_bytes()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CorruptFileError(f"{label}: truncated while reading {what}")
        pos += n
        return blob[pos - n : pos]

    magic = take(4, "magic")
    if magic != MAGIC:
        raise CorruptFileError(f"{label}: bad magic {magic!r}, expected {MAGIC!r}")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise CorruptFileError(f"{label}: unsupported version {version}")
    entries: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"entry {i} name length"))
        try:
            name = take(name_len, f"entry {i} name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"{label}: entry {i} name is not UTF-8") from exc
        if name in entries:
            raise CorruptFileError(f"{label}: duplicate entry name {name!r}")
        rank = take(1, f"entry {name!r} rank")[0]
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"entry {name!r} dims"))
        payload = take(math.prod(dims) * 8, f"entry {name!r} payload")
        try:
            # An empty payload passes the size check whatever its other dims.
            entries[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
        except ValueError as exc:
            raise CorruptFileError(
                f"{label}: entry {name!r} has an impossible shape of rank {rank}: {exc}"
            ) from exc
    if pos != len(blob):
        raise CorruptFileError(f"{label}: {len(blob) - pos} trailing bytes after last entry")
    return entries
