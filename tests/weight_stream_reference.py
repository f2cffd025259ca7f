"""The per-posting weight-stream parse and index build that the flat-column
path replaced, kept as a test oracle.

`iter_weight_stream` checks every key and value of every row and yields
(docid, {term_id: weight}) rows; `build` checks each row's term range as it
reads it and sorts the postings by their int64 term ids.  Both are the code
as it stood before the rewrite, so the new path must give byte-identical
index files and the same error for a file with one fault.
"""

from __future__ import annotations

import json
import math
from array import array
from pathlib import Path

import numpy as np

from fectek.errors import DataFormatError, open_text
from fectek.index import InvertedIndex, quantization_step, quantize_value


def iter_weight_stream(path: str | Path):
    """Yield (docid, {term_id: weight}) rows from an encoded-weights file."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
                raise DataFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if (
                not isinstance(row, dict)
                or not isinstance(row.get("docid"), str)
                or not isinstance(row.get("weights"), dict)
            ):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {{'docid': str, 'weights': {{...}}}}"
                )
            weights: dict[int, float] = {}
            for key, value in row["weights"].items():
                try:
                    term = int(key)
                except ValueError:
                    term = None
                if key != str(term):  # "07", " 7", "+7" and "0_7" would alias term 7
                    raise DataFormatError(
                        f"{path}:{lineno}: term id {key!r} is not a canonical integer"
                    )
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise DataFormatError(
                        f"{path}:{lineno}: weight for term {key} is not a number"
                    )
                try:
                    weights[term] = float(value)
                except OverflowError as exc:
                    raise DataFormatError(
                        f"{path}:{lineno}: weight for term {key} is too large"
                    ) from exc
            yield row["docid"], weights


def build(stream, vocab_size: int) -> InvertedIndex:
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
                f"docid {docid!r}: term id {term} outside vocabulary of size {vocab_size}"
            )
        lengths.append(len(row))
        terms.extend(row.keys())
        weights.extend(row.values())
    term_ids = np.frombuffer(terms, dtype=np.int64)
    values = np.frombuffer(weights, dtype=np.float64)
    bad = np.flatnonzero(~((values >= 0.0) & (values < math.inf)))
    if bad.size:
        doc = int(np.searchsorted(np.cumsum(lengths), bad[0], side="right"))
        raise DataFormatError(
            f"docid {docids[doc]!r}: weight {float(values[bad[0]])} for term "
            f"{int(term_ids[bad[0]])} is negative or not finite"
        )
    step = quantization_step(float(values.max(initial=0.0)))
    impacts = quantize_value(values, step)
    ordinals = np.repeat(np.arange(len(docids)), lengths)
    kept = np.flatnonzero(impacts > 0)
    kept = kept[np.argsort(term_ids[kept], kind="stable")]
    offsets = np.searchsorted(term_ids[kept], np.arange(vocab_size + 1))
    return InvertedIndex(step, docids, offsets, ordinals[kept], impacts[kept])
