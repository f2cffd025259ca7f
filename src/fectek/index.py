"""Impact-quantized inverted index with exact score-at-a-time search.

`InvertedIndex.build` reads the weight stream of (docid, term ids, weights)
rows once, extending flat columns with no per-posting Python.  It then checks
every term id and weight in one vectorized pass, maps every weight to an 8-bit
impact with a single document-side scale (`max weight / 255`) and stably
sorts the nonzero impacts by term (a radix sort up to 65,536 ids) into flat
CSR arrays: term t's postings are `ordinals[offsets[t]:offsets[t + 1]]` and
the matching `impacts`, by ascending ordinal.  Search merges the query's
posting lists with one sort of 64-bit (ordinal, impact product) keys and sums
each document's integer products, then sorts only the candidates at or above
the k-th largest score.  Its cost grows with the postings touched, not with
the document count, and the top k is exact: identical to brute-force scoring
of every document, with ties broken by ascending ordinal.

On-disk layout (little-endian throughout), magic "FTEK":

    magic 4s | version u32 | vocab_size u64 | doc_count u64 | scale f64
    counts                               per term: its posting count, a varint
    gaps, then impacts                   per posting: a varint; then a u8 each
    docids                               per doc: UTF-8 bytes, then a newline

`load` rebuilds the CSR offsets as the running sum of the counts.  A term's
first posting stores its ordinal in place of a gap.  A varint ends at its
first byte below 0x80, so `load` finds every end of a region at once, in a
slice no longer than the region can be: 9 bytes a value at most, and never
the bytes that the later regions need (a byte per impact and per docid
newline at least).  A docid is one non-empty word without whitespace, as the
fields of a run file are, so a newline can end it and the table is read with
one decode and one split.  Files of any other version are rejected: rebuild
them with `fectek index`.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptFileError, DataFormatError, write_file

MAGIC = b"FTEK"
VERSION = 4
LEVELS = 256
_HEADER = struct.Struct("<4sIQQd")

# (docid, term ids, weights) rows; each row's two columns have equal length.
WeightStream = Iterable[tuple[str, Collection[int], Collection[float]]]


# -- varint codec -------------------------------------------------------------


def _encode_varints(values: np.ndarray) -> np.ndarray:
    """Unsigned LEB128 bytes (7 payload bits per byte) of non-negative int64s."""
    # Bytes per value: one, plus one per 7-bit boundary reached.
    widths = np.ones(len(values), dtype=np.int64)
    for bound in range(7, 63, 7):
        reached = values >= 1 << bound
        if not reached.any():
            break
        widths += reached
    starts = np.cumsum(widths) - widths
    out = np.empty(int(widths.sum()), dtype=np.uint8)
    out[starts] = values & 0x7F | (widths > 1) << 7
    # Later bytes only for the values that still have one to write.
    live = np.flatnonzero(widths > 1)
    for byte in range(1, int(widths.max(initial=0))):
        more = widths[live] > byte + 1
        out[starts[live] + byte] = values[live] >> 7 * byte & 0x7F | more << 7
        live = live[more]
    return out


def _decode_varints(buf: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Decode the first `count` varints of uint8 `buf`: (int64 values, bytes used).

    Fewer than `count` values come back when `buf` ends first.
    """
    # Most values take one byte: look for their ends in the first 2 * count
    # bytes before scanning all of `buf`.
    ends = np.flatnonzero(buf[: 2 * count] < 0x80)[:count]
    if len(ends) < count:
        ends = np.flatnonzero(buf < 0x80)[:count]
    widths = np.diff(ends, prepend=-1)
    longest = int(widths.max(initial=0))
    if longest > 9:  # 9 bytes carry 63 bits, all an int64 holds
        raise CorruptFileError("varint longer than 64 bits")
    # Horner's rule from each value's last byte back, on the values that
    # have a byte left at that depth.
    values = buf[ends].astype(np.int64)
    for byte in range(1, longest):
        more = np.flatnonzero(widths > byte)
        values[more] = values[more] << 7 | buf[ends[more] - byte] & 0x7F
    return values, (int(ends[-1]) + 1 if len(ends) else 0)


# -- quantization --------------------------------------------------------------


def quantization_step(max_weight: float) -> float:
    """Width of one impact level; 1.0 sentinel when every weight is zero or the
    width underflows to zero (a subnormal maximum weight)."""
    if not 0.0 <= max_weight < math.inf:
        raise ValueError(f"max weight must be finite and non-negative, got {max_weight}")
    return max_weight / (LEVELS - 1) or 1.0


def quantize_value(weight: float | np.ndarray, step: float) -> np.ndarray:
    """Round half away from zero to int64 impacts in [0, 255], elementwise."""
    weight = np.asarray(weight, dtype=np.float64)
    bad = ~(weight >= 0.0)  # NaN too
    if bad.any():
        raise ValueError(f"weights must be non-negative, got {weight[bad][0]}")
    return np.minimum(np.floor(weight / step + 0.5), LEVELS - 1).astype(np.int64)


def quantize_weights(weights: dict[int, float], step: float) -> dict[int, int]:
    """Quantize a sparse vector, dropping terms whose impact rounds to zero."""
    values = np.fromiter(weights.values(), np.float64, len(weights))
    impacts = quantize_value(values, step).tolist()
    return {term: impact for term, impact in zip(weights, impacts) if impact > 0}


# -- index ----------------------------------------------------------------------


def _reject_terms(docid: str, terms: Iterable[int], vocab_size: int) -> None:
    """Raise for the smallest of a row's term ids outside the vocabulary."""
    term = min(t for t in map(int, terms) if not 0 <= t < vocab_size)
    raise DataFormatError(
        f"docid {docid!r}: term id {term} outside vocabulary of size {vocab_size}"
    )


def _list_starts(offsets: np.ndarray) -> np.ndarray:
    """Index of the first posting of each non-empty term list."""
    starts = offsets[:-1]
    return starts[starts < offsets[1:]]


def _first_postings(offsets: np.ndarray) -> np.ndarray:
    """Mask of the postings that open a term's list (an ordinal, not a gap)."""
    first = np.zeros(int(offsets[-1]), dtype=bool)
    first[_list_starts(offsets)] = True
    return first


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
        """One pass over the weight stream that only appends each row to flat
        columns, then vectorized checks, one quantization with the global
        maximum weight and a stable (radix) sort of the postings by term."""
        if vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        docids: list[str] = []
        seen: set[str] = set()
        lengths, terms, weights = array("q"), array("q"), array("d")
        for docid, row_terms, row_weights in stream:
            if docid in seen:
                raise DataFormatError(f"duplicate docid {docid!r} in weight stream")
            seen.add(docid)
            docids.append(docid)
            if len(row_terms) != len(row_weights):
                raise ValueError(f"docid {docid!r}: a row needs as many weights as term ids")
            lengths.append(len(row_terms))
            try:
                terms.extend(row_terms)
            except OverflowError:  # beyond int64, so outside any vocabulary
                _reject_terms(docid, row_terms, vocab_size)
            weights.extend(row_weights)
        joined = " ".join(docids)
        if joined.split() != docids:  # a run file splits its rows on whitespace
            docid = next(d for d in docids if d.split() != [d])
            raise DataFormatError(f"docid {docid!r} is empty or contains whitespace")
        try:  # `save` writes the docids in UTF-8
            joined.encode("utf-8")
        except UnicodeEncodeError as exc:
            docid = docids[joined.count(" ", 0, exc.start)]
            raise DataFormatError(f"docid {docid!r} is not UTF-8 text") from exc
        term_ids = np.frombuffer(terms, dtype=np.int64)
        values = np.frombuffer(weights, dtype=np.float64)
        ends = np.cumsum(lengths)
        bad = np.flatnonzero((term_ids < 0) | (term_ids >= vocab_size))
        if bad.size:
            doc = int(np.searchsorted(ends, bad[0], side="right"))
            row = term_ids[ends[doc] - lengths[doc] : ends[doc]]
            _reject_terms(docids[doc], row, vocab_size)
        bad = np.flatnonzero(~((values >= 0.0) & (values < math.inf)))
        if bad.size:
            doc = int(np.searchsorted(ends, bad[0], side="right"))
            raise DataFormatError(
                f"docid {docids[doc]!r}: weight {float(values[bad[0]])} for term "
                f"{int(term_ids[bad[0]])} is negative or not finite"
            )
        step = quantization_step(float(values.max(initial=0.0)))
        impacts = quantize_value(values, step)
        ordinals = np.repeat(np.arange(len(docids)), lengths)
        kept = np.flatnonzero(impacts > 0)
        # Ids below vocab_size fit its smallest dtype: a radix sort up to 16 bits.
        narrow = term_ids[kept].astype(np.min_scalar_type(vocab_size))
        kept = kept[np.argsort(narrow, kind="stable")]
        kept_terms, ordinals = term_ids[kept], ordinals[kept]
        # Sorted by term, then by ordinal: a repeated posting sits next to its twin.
        twins = np.flatnonzero((np.diff(kept_terms) == 0) & (np.diff(ordinals) == 0))
        if twins.size:
            docid, term = docids[ordinals[twins[0]]], int(kept_terms[twins[0]])
            raise DataFormatError(f"docid {docid!r} names term {term} more than once")
        offsets = np.searchsorted(kept_terms, np.arange(vocab_size + 1))
        return cls(step, docids, offsets, ordinals, impacts[kept])

    # -- persistence ----

    def save(self, path: str | Path) -> None:
        first = _first_postings(self.offsets)
        gaps = np.where(first, self.ordinals, np.diff(self.ordinals, prepend=0))
        bad = np.flatnonzero(~first & (gaps <= 0))
        if bad.size:
            term = int(np.searchsorted(self.offsets, bad[0], side="right")) - 1
            raise ValueError(f"ordinals not strictly increasing for term {term}")
        parts = [
            _HEADER.pack(MAGIC, VERSION, self.vocab_size, self.doc_count, self.scale),
            _encode_varints(np.diff(self.offsets)),
            _encode_varints(gaps),
            self.impacts.astype(np.uint8),
            "".join(f"{docid}\n" for docid in self.docids).encode("utf-8"),
        ]
        write_file(path, parts)

    @classmethod
    def load(cls, path: str | Path) -> "InvertedIndex":
        try:
            return cls._parse(Path(path).read_bytes())
        except CorruptFileError as exc:
            raise CorruptFileError(f"{path}: {exc}") from exc

    @classmethod
    def _parse(cls, blob: bytes) -> "InvertedIndex":
        if len(blob) < _HEADER.size:
            raise CorruptFileError("file shorter than the header")
        magic, version, vocab_size, doc_count, scale = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise CorruptFileError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise CorruptFileError(f"unsupported version {version}: rebuild with fectek index")
        if not math.isfinite(scale) or scale <= 0.0:
            raise CorruptFileError(f"invalid scale {scale}")
        data = np.frombuffer(blob, dtype=np.uint8)
        pos = _HEADER.size
        end = len(blob) - doc_count  # each docid takes its newline at least
        if end < pos:
            raise CorruptFileError(f"doc count {doc_count} runs past the end of the file")
        counts, used = _decode_varints(data[pos : min(pos + 9 * vocab_size, end)], vocab_size)
        if len(counts) < vocab_size:
            raise CorruptFileError("truncated count table")
        pos += used
        # Clipping at the file size keeps the running sum from overflowing.
        offsets = np.append(0, np.cumsum(np.minimum(counts, len(blob))))
        count = int(offsets[-1])
        if 2 * count > end - pos:  # each posting takes a gap byte and an impact byte
            term = int(np.searchsorted(offsets, (end - pos) // 2, side="right")) - 1
            raise CorruptFileError(f"posting counts run past the end of the file at term {term}")

        def term_of(posting: int) -> int:
            return int(np.searchsorted(offsets, posting, side="right")) - 1

        # Gaps that fit their slice leave room for every impact byte.
        gaps, used = _decode_varints(data[pos : min(pos + 9 * count, end - count)], count)
        if len(gaps) < count:
            raise CorruptFileError(f"postings region truncated inside term {term_of(len(gaps))}")
        pos += used
        impacts = data[pos : pos + count].astype(np.int64)
        pos += count
        # A zero may only open a term's list (an ordinal 0, not a gap), so it
        # must sit at an offset.
        zero = np.flatnonzero(gaps == 0)
        bad = zero[offsets[np.searchsorted(offsets, zero)] != zero]
        if bad.size:
            raise CorruptFileError(f"term {term_of(bad[0])} postings not strictly increasing")
        # doc_count is below the file size now, so the clipped sums cannot
        # overflow, and a clipped posting still lands at or past doc_count.
        # Each list's first posting takes back the sum of the list before
        # it, so one running sum restarts at every list.
        ordinals = np.minimum(gaps, doc_count)
        starts = _list_starts(offsets)
        ordinals[starts[1:]] -= np.add.reduceat(ordinals, starts)[:-1]
        np.cumsum(ordinals, out=ordinals)
        bad = np.flatnonzero(ordinals >= doc_count)
        if bad.size:
            gap = int(gaps[bad[0]])
            ordinal = int(ordinals[bad[0]]) - min(gap, doc_count) + gap
            raise CorruptFileError(
                f"term {term_of(bad[0])} references ordinal {ordinal} "
                f"beyond doc count {doc_count}"
            )
        bad = np.flatnonzero(impacts == 0)
        if bad.size:
            raise CorruptFileError(f"term {term_of(bad[0])} stores a zero impact")

        try:
            text = blob[pos:].decode("utf-8")
        except UnicodeDecodeError as exc:
            entry = blob.count(b"\n", pos, pos + exc.start)
            raise CorruptFileError(f"docid table entry {entry} is not UTF-8") from exc
        *docids, last = text.split("\n")
        if last:
            raise CorruptFileError("docid table does not end in a newline")
        if len(docids) != doc_count:
            raise CorruptFileError(f"docid table holds {len(docids)} entries, not {doc_count}")
        if text.split() != docids:
            entry = next(i for i, docid in enumerate(docids) if docid.split() != [docid])
            raise CorruptFileError(f"docid table entry {entry} is empty or contains whitespace")
        if len(set(docids)) != len(docids):
            raise CorruptFileError("duplicate docid in table")
        return cls(float(scale), docids, offsets, ordinals, impacts)


def search(
    index: InvertedIndex, query_weights: dict[int, float], k: int
) -> list[SearchHit]:
    """Exact top-k by integer impact dot product, ties broken by ordinal.

    The query side is quantized with its own scale (max query weight / 255);
    float scores are the integer scores times both scales.  Term ids outside
    the vocabulary match nothing, but their weights still set that scale.
    Work is one sort of the touched postings' (ordinal, product) keys plus
    a sort of the candidates tied with or above the k-th score, so no array
    is sized by the document count.
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

    keys = np.concatenate([index.ordinals[span] for span, _ in lists])
    if not keys.size:
        return []
    # One sort of the keys `ordinal << 16 | product` merges the lists.  A
    # product is at most 255 * 255 < 2**16, so it never carries into the
    # ordinal, and an ordinal is below doc_count, which `load` bounds by the
    # file size: far below 2**47, so no key overflows.  Each candidate's
    # score is then the sum over its run of equal ordinals.
    keys <<= 16
    keys |= np.concatenate([index.impacts[span] * query_impact for span, query_impact in lists])
    keys.sort()
    ordinals = keys >> 16
    starts = np.flatnonzero(np.concatenate(([True], ordinals[1:] != ordinals[:-1])))
    candidates = ordinals[starts]
    scores = np.add.reduceat(keys & 0xFFFF, starts)
    if len(scores) > k:
        # Everything at or above the k-th largest score, ties at it included.
        keep = np.flatnonzero(scores >= np.partition(scores, -k)[-k])
        candidates, scores = candidates[keep], scores[keep]
    # Candidates ascend, so a stable sort breaks score ties by ordinal.
    top = np.argsort(-scores, kind="stable")[:k]
    return [
        SearchHit(
            docid=index.docids[ordinal],
            ordinal=ordinal,
            score=score,
            value=score * query_step * index.scale,
        )
        for ordinal, score in zip(candidates[top].tolist(), scores[top].tolist())
    ]
