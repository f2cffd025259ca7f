"""Impact-quantized inverted index with exact score-at-a-time search.

Weights are mapped to 8-bit impacts with a single document-side scale
(`max weight / 255`), postings store ordinal gaps as LEB128 varints plus a
one-byte impact, and search accumulates integer impact products over the
query's posting lists, so top-k results are exact: identical to brute-force
scoring of every document, with ties broken by ascending ordinal.

On-disk layout (little-endian throughout), magic "FTEK":

    magic 4s | version u32 | vocab_size u64 | doc_count u64 | scale f64
    offsets (vocab_size + 1) x u64      byte offsets into the postings region
    postings region                      per term: (varint gap, u8 impact)*
    docid table                          per doc: varint byte-length + UTF-8
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable, Iterable
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
    if max_weight < 0.0:
        raise ValueError(f"weights must be non-negative, got max {max_weight}")
    return max_weight / (LEVELS - 1) if max_weight > 0.0 else 1.0


def quantize_value(weight: float, step: float) -> int:
    """Round half away from zero to an impact in [0, 255]."""
    if weight < 0.0:
        raise ValueError(f"weights must be non-negative, got {weight}")
    return min(int(math.floor(weight / step + 0.5)), LEVELS - 1)


def quantize_weights(weights: dict[int, float], step: float) -> dict[int, int]:
    """Quantize a sparse vector, dropping terms whose impact rounds to zero."""
    out: dict[int, int] = {}
    for term, weight in weights.items():
        impact = quantize_value(weight, step)
        if impact > 0:
            out[term] = impact
    return out


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


class InvertedIndex:
    """In-memory postings plus the document-side quantization scale."""

    def __init__(
        self,
        vocab_size: int,
        scale: float,
        docids: list[str],
        postings: dict[int, tuple[np.ndarray, np.ndarray]],
    ):
        self.vocab_size = vocab_size
        self.scale = scale
        self.docids = docids
        self.postings = postings

    @property
    def doc_count(self) -> int:
        return len(self.docids)

    @classmethod
    def build(
        cls, stream_factory: Callable[[], WeightStream], vocab_size: int
    ) -> "InvertedIndex":
        """Two passes over the weight stream: find the global maximum weight,
        then quantize and append postings in document order."""
        if vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        max_weight = 0.0
        for _, weights in stream_factory():
            for term, weight in weights.items():
                if not 0.0 <= weight < math.inf:
                    raise DataFormatError(
                        f"weight {weight} for term {term} is negative or not finite"
                    )
                if weight > max_weight:
                    max_weight = weight
        step = quantization_step(max_weight)

        docids: list[str] = []
        seen: set[str] = set()
        accum: dict[int, tuple[list[int], list[int]]] = {}
        for docid, weights in stream_factory():
            if docid in seen:
                raise DataFormatError(f"duplicate docid {docid!r} in weight stream")
            seen.add(docid)
            ordinal = len(docids)
            docids.append(docid)
            for term in sorted(weights):
                if not 0 <= term < vocab_size:
                    raise DataFormatError(
                        f"term id {term} outside vocabulary of size {vocab_size}"
                    )
                impact = quantize_value(weights[term], step)
                if impact == 0:
                    continue
                ords, imps = accum.setdefault(term, ([], []))
                ords.append(ordinal)
                imps.append(impact)
        postings = {
            term: (
                np.asarray(ords, dtype=np.int64),
                np.asarray(imps, dtype=np.int64),
            )
            for term, (ords, imps) in accum.items()
        }
        return cls(vocab_size, step, docids, postings)

    # -- persistence ----

    def save(self, path: str | Path) -> None:
        region = bytearray()
        offsets = np.zeros(self.vocab_size + 1, dtype="<u8")
        for term in range(self.vocab_size):
            offsets[term] = len(region)
            entry = self.postings.get(term)
            if entry is None:
                continue
            ordinals, impacts = entry
            previous = -1
            for ordinal, impact in zip(ordinals.tolist(), impacts.tolist()):
                # First value is the ordinal itself (gap from -1 minus the
                # implicit +1 would complicate nothing: store ordinal, then
                # strictly positive gaps).
                gap = ordinal - previous if previous >= 0 else ordinal
                if previous >= 0 and gap <= 0:
                    raise ValueError(f"ordinals not strictly increasing for term {term}")
                write_varint(region, gap)
                region.append(impact)
                previous = ordinal
        offsets[self.vocab_size] = len(region)

        out = bytearray()
        out += _HEADER.pack(MAGIC, VERSION, self.vocab_size, self.doc_count, self.scale)
        out += offsets.tobytes()
        out += region
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

        postings: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for term in range(vocab_size):
            start, end = int(offsets[term]), int(offsets[term + 1])
            if start == end:
                continue
            cursor = start
            ordinals: list[int] = []
            impacts: list[int] = []
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
            postings[term] = (
                np.asarray(ordinals, dtype=np.int64),
                np.asarray(impacts, dtype=np.int64),
            )

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
        return cls(int(vocab_size), float(scale), docids, postings)


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

    lists = [
        (index.postings[term], query_impact)
        for term, query_impact in query_impacts.items()
        if term in index.postings
    ]
    if not lists:
        return []

    ordinals = np.concatenate([ords for (ords, _), _ in lists])
    products = np.concatenate(
        [impacts * query_impact for (_, impacts), query_impact in lists]
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
