"""Impact-quantized inverted index with exact score-at-a-time search.

`InvertedIndex.build` reads the weight stream once, maps every weight to an
8-bit impact with a single document-side scale (`max weight / 255`) and sorts
the nonzero impacts by term into flat CSR arrays: term t's postings are
`ordinals[offsets[t]:offsets[t + 1]]` and the matching `impacts`, by ascending
ordinal.  Search accumulates integer impact products over the query's posting
lists, so top-k results are exact: identical to brute-force scoring of every
document, with ties broken by ascending ordinal.

On-disk layout (little-endian throughout), magic "FTEK":

    magic 4s | version u32 | vocab_size u64 | doc_count u64 | scale f64
    offsets (vocab_size + 1) x u64      byte offsets into the postings region
    postings region                      per term: (varint gap, u8 impact)*
    docid table                          per doc: varint byte-length + UTF-8

A term's first posting stores its ordinal in place of a gap.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptFileError, DataFormatError

MAGIC = b"FTEK"
VERSION = 1
LEVELS = 256
_HEADER = struct.Struct("<4sIQQd")

WeightStream = Iterable[tuple[str, dict[int, float]]]


# -- varint codec -------------------------------------------------------------


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint (7 payload bits per byte)."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(buf: bytes, pos: int, end: int | None = None) -> tuple[int, int]:
    """Decode a varint at `pos`; returns (value, next position)."""
    limit = len(buf) if end is None else end
    result = 0
    shift = 0
    while True:
        if pos >= limit:
            raise CorruptFileError("varint truncated")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptFileError("varint longer than 64 bits")


# -- quantization --------------------------------------------------------------


def quantization_step(max_weight: float) -> float:
    """Width of one impact level; 1.0 sentinel when every weight is zero."""
    if not 0.0 <= max_weight < math.inf:
        raise ValueError(f"max weight must be finite and non-negative, got {max_weight}")
    return max_weight / (LEVELS - 1) if max_weight > 0.0 else 1.0


def quantize_value(weight: float | np.ndarray, step: float) -> int | np.ndarray:
    """Round half away from zero to an impact in [0, 255], elementwise.

    A scalar weight gives an int, an array of weights an int64 array.
    """
    weight = np.asarray(weight, dtype=np.float64)
    bad = ~(weight >= 0.0)  # NaN too
    if bad.any():
        raise ValueError(f"weights must be non-negative, got {weight[bad][0]}")
    impact = np.minimum(np.floor(weight / step + 0.5), LEVELS - 1).astype(np.int64)
    return impact if impact.ndim else int(impact)


def quantize_weights(weights: dict[int, float], step: float) -> dict[int, int]:
    """Quantize a sparse vector, dropping terms whose impact rounds to zero."""
    values = np.fromiter(weights.values(), np.float64, len(weights))
    impacts = quantize_value(values, step).tolist()
    return {term: impact for term, impact in zip(weights, impacts) if impact > 0}


def dequantize(impact: int, step: float) -> float:
    return impact * step


# -- index ----------------------------------------------------------------------


@dataclass
class SearchHit:
    """One ranked document: exact integer score plus its float image."""

    docid: str
    ordinal: int
    score: int
    value: float


@dataclass(eq=False)
class InvertedIndex:
    """CSR postings (int64 `offsets`, `ordinals`, `impacts`) plus the
    document-side quantization scale."""

    scale: float
    docids: list[str]
    offsets: np.ndarray
    ordinals: np.ndarray
    impacts: np.ndarray

    @property
    def vocab_size(self) -> int:
        return len(self.offsets) - 1

    @property
    def doc_count(self) -> int:
        return len(self.docids)

    @classmethod
    def build(cls, stream: WeightStream, vocab_size: int) -> "InvertedIndex":
        """One pass over the weight stream, then one quantization with the
        global maximum weight and a stable sort of the postings by term."""
        if vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        docids: list[str] = []
        seen: set[str] = set()
        lengths, terms, weights = array("q"), array("q"), array("d")
        for docid, row in stream:
            if docid in seen:
                raise DataFormatError(f"duplicate docid {docid!r} in weight stream")
            seen.add(docid)
            docids.append(docid)
            if row and not (0 <= min(row) and max(row) < vocab_size):
                term = next(t for t in sorted(row) if not 0 <= t < vocab_size)
                raise DataFormatError(
                    f"term id {term} outside vocabulary of size {vocab_size}"
                )
            lengths.append(len(row))
            terms.extend(row.keys())
            weights.extend(row.values())
        term_ids = np.frombuffer(terms, dtype=np.int64)
        values = np.frombuffer(weights, dtype=np.float64)
        bad = np.flatnonzero(~((values >= 0.0) & (values < math.inf)))
        if bad.size:
            raise DataFormatError(
                f"weight {float(values[bad[0]])} for term {int(term_ids[bad[0]])} "
                "is negative or not finite"
            )
        step = quantization_step(float(values.max(initial=0.0)))
        impacts = quantize_value(values, step)
        ordinals = np.repeat(np.arange(len(docids)), lengths)
        kept = np.flatnonzero(impacts > 0)
        kept = kept[np.argsort(term_ids[kept], kind="stable")]
        offsets = np.searchsorted(term_ids[kept], np.arange(vocab_size + 1))
        return cls(step, docids, offsets, ordinals[kept], impacts[kept])

    # -- persistence ----

    def save(self, path: str | Path) -> None:
        first = np.isin(np.arange(len(self.ordinals)), self.offsets)
        gaps = np.where(first, self.ordinals, np.diff(self.ordinals, prepend=0))
        bad = np.flatnonzero(~first & (gaps <= 0))
        if bad.size:
            term = int(np.searchsorted(self.offsets, bad[0], side="right")) - 1
            raise ValueError(f"ordinals not strictly increasing for term {term}")

        # Varint bytes per gap: one, plus one per 7-bit boundary reached.
        widths = 1 + (gaps[:, None] >= 1 << 7 * np.arange(1, 9)).sum(axis=1)
        starts = np.concatenate(([0], np.cumsum(widths + 1)))
        region = np.empty(int(starts[-1]), dtype=np.uint8)
        region[starts[:-1] + widths] = self.impacts
        for byte in range(int(widths.max(initial=0))):
            live = widths > byte
            payload = (gaps[live] >> (7 * byte)) & 0x7F
            region[starts[:-1][live] + byte] = payload | ((widths[live] > byte + 1) << 7)

        out = bytearray()
        out += _HEADER.pack(MAGIC, VERSION, self.vocab_size, self.doc_count, self.scale)
        out += starts[self.offsets].astype("<u8").tobytes()
        out += region.tobytes()
        for docid in self.docids:
            encoded = docid.encode("utf-8")
            write_varint(out, len(encoded))
            out += encoded
        Path(path).write_bytes(bytes(out))

    @classmethod
    def load(cls, path: str | Path) -> "InvertedIndex":
        label = str(path)
        blob = Path(path).read_bytes()
        if len(blob) < _HEADER.size:
            raise CorruptFileError(f"{label}: file shorter than the header")
        magic, version, vocab_size, doc_count, scale = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise CorruptFileError(f"{label}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise CorruptFileError(f"{label}: unsupported version {version}")
        if not math.isfinite(scale) or scale <= 0.0:
            raise CorruptFileError(f"{label}: invalid scale {scale}")
        pos = _HEADER.size
        table_bytes = (vocab_size + 1) * 8
        if pos + table_bytes > len(blob):
            raise CorruptFileError(f"{label}: truncated offset table")
        offsets = np.frombuffer(blob, dtype="<u8", count=vocab_size + 1, offset=pos)
        pos += table_bytes
        if offsets[0] != 0:
            raise CorruptFileError(f"{label}: offset table must start at 0")
        diffs = np.diff(offsets.astype(np.int64))
        if (diffs < 0).any():
            term = int(np.flatnonzero(diffs < 0)[0])
            raise CorruptFileError(f"{label}: non-monotone offset at term {term}")
        region_len = int(offsets[-1])
        if pos + region_len > len(blob):
            available = len(blob) - pos
            cut = int(np.searchsorted(offsets, available, side="right") - 1)
            raise CorruptFileError(
                f"{label}: postings region truncated inside term {cut} "
                f"(offset {int(offsets[cut])})"
            )
        region = blob[pos : pos + region_len]
        pos += region_len

        # An impact byte >= 0x80 looks like a varint continuation byte, so
        # record boundaries can only be found by parsing in order.
        ordinals, impacts = array("q"), array("q")
        posting_offsets = array("q", [0])
        byte_offsets = offsets.tolist()
        for term in range(vocab_size):
            cursor, end = byte_offsets[term], byte_offsets[term + 1]
            previous = -1
            while cursor < end:
                try:
                    gap, cursor = read_varint(region, cursor, end)
                except CorruptFileError as exc:
                    raise CorruptFileError(
                        f"{label}: term {term} postings: {exc}"
                    ) from exc
                if cursor >= end:
                    raise CorruptFileError(
                        f"{label}: term {term} postings missing impact byte"
                    )
                impact = region[cursor]
                cursor += 1
                ordinal = gap if previous < 0 else previous + gap
                if previous >= 0 and gap == 0:
                    raise CorruptFileError(
                        f"{label}: term {term} postings not strictly increasing"
                    )
                if ordinal >= doc_count:
                    raise CorruptFileError(
                        f"{label}: term {term} references ordinal {ordinal} "
                        f"beyond doc count {doc_count}"
                    )
                if impact == 0:
                    raise CorruptFileError(
                        f"{label}: term {term} stores a zero impact"
                    )
                ordinals.append(ordinal)
                impacts.append(impact)
                previous = ordinal
            posting_offsets.append(len(ordinals))

        docids: list[str] = []
        for i in range(doc_count):
            try:
                length, pos = read_varint(blob, pos)
            except CorruptFileError as exc:
                raise CorruptFileError(f"{label}: docid table entry {i}: {exc}") from exc
            if pos + length > len(blob):
                raise CorruptFileError(f"{label}: docid table entry {i} truncated")
            try:
                docids.append(blob[pos : pos + length].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CorruptFileError(
                    f"{label}: docid table entry {i} is not UTF-8"
                ) from exc
            pos += length
        if pos != len(blob):
            raise CorruptFileError(
                f"{label}: {len(blob) - pos} trailing bytes after docid table"
            )
        if len(set(docids)) != len(docids):
            raise CorruptFileError(f"{label}: duplicate docid in table")
        return cls(
            float(scale),
            docids,
            np.frombuffer(posting_offsets, dtype=np.int64),
            np.frombuffer(ordinals, dtype=np.int64),
            np.frombuffer(impacts, dtype=np.int64),
        )


def search(
    index: InvertedIndex, query_weights: dict[int, float], k: int
) -> list[SearchHit]:
    """Exact top-k by integer impact dot product, ties broken by ordinal.

    The query side is quantized with its own scale (max query weight / 255);
    float scores are the integer scores times both scales.
    """
    if k <= 0 or not query_weights:
        return []
    query_step = quantization_step(max(query_weights.values(), default=0.0))
    query_impacts = quantize_weights(query_weights, query_step)

    offsets = index.offsets
    lists = [
        (slice(offsets[term], offsets[term + 1]), query_impact)
        for term, query_impact in query_impacts.items()
        if 0 <= term < index.vocab_size
    ]
    if not lists:
        return []

    ordinals = np.concatenate([index.ordinals[span] for span, _ in lists])
    products = np.concatenate(
        [index.impacts[span] * query_impact for span, query_impact in lists]
    )
    candidates, slots = np.unique(ordinals, return_inverse=True)
    scores = np.zeros(len(candidates), dtype=np.int64)
    np.add.at(scores, slots, products)
    top = np.lexsort((candidates, -scores))[:k]
    return [
        SearchHit(
            docid=index.docids[ordinal],
            ordinal=ordinal,
            score=score,
            value=score * query_step * index.scale,
        )
        for ordinal, score in zip(candidates[top].tolist(), scores[top].tolist())
    ]
