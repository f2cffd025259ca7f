"""The varint codec that the per-round index-list form replaced, kept as a
test oracle.

Each byte round of both functions gathers and scatters through a boolean
mask over all values.  The code is as it stood before the rewrite, so the
new codec must write the same bytes and decode the same values.
"""

from __future__ import annotations

import numpy as np

from fectek.errors import CorruptFileError


def _encode_varints(values: np.ndarray) -> np.ndarray:
    """Unsigned LEB128 bytes (7 payload bits per byte) of non-negative int64s."""
    # Bytes per value: one, plus one per 7-bit boundary reached.
    widths = 1 + np.searchsorted(1 << 7 * np.arange(1, 9), values, side="right")
    starts = np.cumsum(widths) - widths
    out = np.empty(int(widths.sum()), dtype=np.uint8)
    for byte in range(int(widths.max(initial=0))):
        live = widths > byte
        payload = (values[live] >> (7 * byte)) & 0x7F
        out[starts[live] + byte] = payload | ((widths[live] > byte + 1) << 7)
    return out


def _decode_varints(buf: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Decode the first `count` varints of uint8 `buf`: (int64 values, bytes used).

    Fewer than `count` values come back when `buf` ends first.
    """
    ends = np.flatnonzero(buf < 0x80)[:count]
    widths = np.diff(ends, prepend=-1)
    if (widths > 9).any():  # 9 bytes carry 63 bits, all an int64 holds
        raise CorruptFileError("varint longer than 64 bits")
    starts = ends - widths + 1
    values = np.zeros(len(ends), dtype=np.int64)
    for byte in range(int(widths.max(initial=0))):
        live = widths > byte
        values[live] |= (buf[starts[live] + byte] & 0x7F).astype(np.int64) << (7 * byte)
    return values, (int(ends[-1]) + 1 if len(ends) else 0)
