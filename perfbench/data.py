"""Seeded inputs the benchmark hands to the program.

Everything is drawn from one `numpy.random.Generator` per workload, so the
same `--seed` gives byte-identical files.  The program only ever sees the
generated files and query texts.
"""

from __future__ import annotations

import json

import numpy as np

from oracle import Stream

RESERVED_IDS = 4  # [PAD] [UNK] [CLS] [SEP] lead every fectek vocabulary
ZIPF_SHIFT = 10.0


def read_tsv(path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t", 1)) for line in fh if line.strip()]


def serve_queries(
    rng: np.random.Generator, qrels_queries: list[tuple[str, str]], words: list[str], count: int
) -> list[tuple[str, str]]:
    """The qrels queries plus distinct 1-4 word texts drawn from the corpus words."""
    seen = {text for _, text in qrels_queries}
    queries = list(qrels_queries)
    while len(queries) < count:
        text = " ".join(rng.choice(words, size=int(rng.integers(1, 5)), replace=False))
        if text not in seen:
            seen.add(text)
            queries.append((f"s{len(queries):05d}", text))
    rng.shuffle(queries)
    return queries


def _zipf_terms(rng: np.random.Generator, vocab_size: int, size: int) -> np.ndarray:
    """Term ids past the reserved ones, rank r drawn with weight 1 / (r + shift)."""
    cdf = np.cumsum(1.0 / (np.arange(1, vocab_size - RESERVED_IDS + 1) + ZIPF_SHIFT))
    cdf /= cdf[-1]
    picks = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(picks, cdf.size - 1) + RESERVED_IDS


def _weights(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.lognormal(mean=-1.0, sigma=0.8, size=size)


def scale_stream(
    rng: np.random.Generator, docs: int, vocab_size: int, min_terms: int, max_terms: int
) -> Stream:
    """Documents of min..max Zipf-drawn distinct terms with log-normal weights."""
    counts = rng.integers(min_terms, max_terms + 1, size=docs)
    ordinals = np.repeat(np.arange(docs, dtype=np.int64), counts)
    keys = np.unique(ordinals * vocab_size + _zipf_terms(rng, vocab_size, ordinals.size))
    return Stream(
        [f"x{i:06d}" for i in range(docs)],
        keys // vocab_size,
        keys % vocab_size,
        _weights(rng, keys.size),
    )


def scale_queries(
    rng: np.random.Generator, count: int, vocab_size: int, terms: int
) -> list[dict[int, float]]:
    """Pre-weighted queries of `terms` distinct Zipf-drawn terms."""
    queries = []
    while len(queries) < count:
        picked = np.unique(_zipf_terms(rng, vocab_size, terms))
        if picked.size == terms:
            queries.append(dict(zip(picked.tolist(), _weights(rng, terms).tolist())))
    return queries


def write_weights_jsonl(path, stream: Stream) -> None:
    """The `fectek encode` output format: one {"docid", "weights"} row per doc."""
    bounds = np.searchsorted(stream.ordinals, np.arange(len(stream.docids) + 1))
    terms = [str(t) for t in stream.terms.tolist()]
    weights = stream.weights.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for i, docid in enumerate(stream.docids):
            lo, hi = bounds[i], bounds[i + 1]
            row = {"docid": docid, "weights": dict(zip(terms[lo:hi], weights[lo:hi]))}
            fh.write(json.dumps(row) + "\n")

