"""Binary tensor checkpoint: magic "FTCK", then named float32 or float64 entries.

Layout, all little-endian:

    magic   4 bytes  b"FTCK"
    version u32      2
    count   u32      number of entries
    entry*  count times:
        name_len u16, name UTF-8 bytes
        dtype    u8       0 float32, 1 float64
        rank     u8
        dims     rank x u64
        padding  zero bytes up to a file offset that is a multiple of 8
        payload  prod(dims) values of the dtype (row-major)

Float32 arrays are stored as float32, anything else as float64.  A load
returns writable views of one buffer; any other version is refused.
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
VERSION = 2
DTYPES = (np.dtype("<f4"), np.dtype("<f8"))  # indexed by an entry's dtype code
ALIGN = 8


def save_tensors(path: str | Path, entries: dict[str, np.ndarray]) -> None:
    """Write `entries` (insertion order preserved) to `path`."""

    def chunks() -> Iterator[bytes | memoryview]:
        yield MAGIC + struct.pack("<II", VERSION, len(entries))
        pos = 12
        for name, array in entries.items():
            arr = np.asarray(array)
            code = 0 if arr.dtype == DTYPES[0] else 1
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"entry name too long: {name!r}")
            head = struct.pack("<H", len(encoded)) + encoded
            head += struct.pack(f"<BB{arr.ndim}Q", code, arr.ndim, *arr.shape)
            head += bytes(-(pos + len(head)) % ALIGN)
            payload = np.ascontiguousarray(arr, dtype=DTYPES[code])  # no copy of a C-ordered entry
            pos += len(head) + payload.nbytes
            yield head
            yield memoryview(payload)

    write_file(path, chunks())


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint into an ordered name -> array mapping; each array is
    a writable view of the one buffer the file was read into."""
    label = str(path)
    blob = bytearray(Path(path).stat().st_size)
    with open(path, "rb") as fh:
        del blob[fh.readinto(blob) :]  # a file that shrank meanwhile reads as truncated
    view, pos = memoryview(blob), 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(blob):
            raise CorruptFileError(f"{label}: truncated while reading {what}")
        pos += n
        return view[pos - n : pos]

    magic = bytes(take(4, "magic"))
    if magic != MAGIC:
        raise CorruptFileError(f"{label}: bad magic {magic!r}, expected {MAGIC!r}")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise CorruptFileError(f"{label}: unsupported version {version}: retrain with fectek train")
    entries: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"entry {i} name length"))
        try:
            name = str(take(name_len, f"entry {i} name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"{label}: entry {i} name is not UTF-8") from exc
        if name in entries:
            raise CorruptFileError(f"{label}: duplicate entry name {name!r}")
        code = take(1, f"entry {name!r} dtype")[0]
        if code >= len(DTYPES):
            raise CorruptFileError(f"{label}: entry {name!r} has unknown dtype code {code}")
        rank = take(1, f"entry {name!r} rank")[0]
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"entry {name!r} dims"))
        if any(take(-pos % ALIGN, f"entry {name!r} padding")):
            raise CorruptFileError(f"{label}: entry {name!r} has nonzero padding")
        payload = take(math.prod(dims) * DTYPES[code].itemsize, f"entry {name!r} payload")
        try:
            # An empty payload passes the size check whatever its other dims.
            entries[name] = np.frombuffer(payload, DTYPES[code]).reshape(dims)
        except ValueError as exc:
            raise CorruptFileError(
                f"{label}: entry {name!r} has an impossible shape of rank {rank}: {exc}"
            ) from exc
    if pos != len(blob):
        raise CorruptFileError(f"{label}: {len(blob) - pos} trailing bytes after last entry")
    return entries
