"""Reference checks the benchmark holds the program's outputs to.

Nothing here imports fectek.  The quantizer, the brute-force scorer and the
weight-stream reader are written from the documented formats, so a defect in
the program's index cannot hide by being shared with its check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

LEVELS = 256


def quantization_step(max_weight: float) -> float:
    """Width of one 8-bit impact level: max / 255, or 1.0 when all are zero."""
    return max_weight / (LEVELS - 1) if max_weight > 0.0 else 1.0


def quantize(weights: np.ndarray, step: float) -> np.ndarray:
    """Round half away from zero to [0, 255]; zero means the term is dropped."""
    return np.minimum(np.floor(weights / step + 0.5), LEVELS - 1).astype(np.int64)


@dataclass
class Stream:
    """A weight stream as flat arrays, one entry per (document, term) weight."""

    docids: list[str]
    ordinals: np.ndarray
    terms: np.ndarray
    weights: np.ndarray


def read_weights_jsonl(path, vocab_size: int) -> tuple[Stream, int]:
    """Parse `fectek encode` output; returns the stream and its invalid-row count.

    A row is invalid when a weight is not a finite non-negative number or a
    term id falls outside the vocabulary.
    """
    docids: list[str] = []
    ordinals: list[int] = []
    terms: list[int] = []
    weights: list[float] = []
    invalid = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            ordinal = len(docids)
            docids.append(row["docid"])
            pairs = [(int(t), w) for t, w in row["weights"].items()]
            if not all(
                0 <= t < vocab_size and isinstance(w, float) and math.isfinite(w) and w >= 0.0
                for t, w in pairs
            ):
                invalid += 1
                continue
            for term, weight in pairs:
                ordinals.append(ordinal)
                terms.append(term)
                weights.append(weight)
    stream = Stream(
        docids,
        np.asarray(ordinals, dtype=np.int64),
        np.asarray(terms, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
    )
    return stream, invalid


class Oracle:
    """Quantized postings sorted by term, scored by brute force per query."""

    def __init__(self, stream: Stream):
        self.doc_count = len(stream.docids)
        self.step = quantization_step(float(stream.weights.max(initial=0.0)))
        impacts = quantize(stream.weights, self.step)
        nonzero = stream.weights > 0.0
        self.nonzero_weights = int(nonzero.sum())
        self.saturated = int((impacts == LEVELS - 1).sum())
        self.dropped = int((nonzero & (impacts == 0)).sum())
        keep = impacts > 0
        order = np.lexsort((stream.ordinals[keep], stream.terms[keep]))
        self.terms = stream.terms[keep][order]
        self.ordinals = stream.ordinals[keep][order]
        self.impacts = impacts[keep][order]
        self.postings = int(self.impacts.size)

    def _query_impacts(self, query_weights: dict[int, float]) -> dict[int, int]:
        terms = np.fromiter(query_weights, dtype=np.int64, count=len(query_weights))
        values = np.fromiter(query_weights.values(), dtype=np.float64, count=len(query_weights))
        impacts = quantize(values, quantization_step(float(values.max(initial=0.0))))
        return {int(t): int(i) for t, i in zip(terms, impacts) if i > 0}

    def _span(self, term: int) -> slice:
        lo, hi = np.searchsorted(self.terms, [term, term + 1])
        return slice(int(lo), int(hi))

    def top_k(self, query_weights: dict[int, float], k: int) -> list[tuple[int, int]]:
        """Exact (ordinal, integer score) top-k, ties broken by ascending ordinal."""
        if not query_weights:
            return []
        scores = np.zeros(self.doc_count, dtype=np.int64)
        for term, q_impact in self._query_impacts(query_weights).items():
            span = self._span(term)
            scores[self.ordinals[span]] += q_impact * self.impacts[span]
        candidates = np.flatnonzero(scores)
        ranked = candidates[np.lexsort((candidates, -scores[candidates]))][:k]
        return [(int(o), int(scores[o])) for o in ranked]

    def work(self, query_weights: dict[int, float]) -> tuple[int, int]:
        """(postings touched, distinct documents scored) for one query."""
        if not query_weights:
            return 0, 0
        spans = [self._span(t) for t in self._query_impacts(query_weights)]
        touched = sum(s.stop - s.start for s in spans)
        docs = np.unique(np.concatenate([self.ordinals[s] for s in spans] or [[]]))
        return touched, int(docs.size)


def hits_match(hits, expected: list[tuple[int, int]], docids: list[str]) -> bool:
    """True when `SearchHit`s equal the oracle ranking, docids included."""
    return [(h.ordinal, h.score) for h in hits] == expected and all(
        h.docid == docids[h.ordinal] for h in hits
    )


def reciprocal_rank(hits, relevant: str, k: int = 10) -> float:
    for rank, hit in enumerate(hits[:k], start=1):
        if hit.docid == relevant:
            return 1.0 / rank
    return 0.0
