"""Deterministic synthetic retrieval corpus for end-to-end validation.

The generator splits a pseudo-word vocabulary into a shared background pool
and per-target distinctive terms.  Every queried passage owns a couple of
distinctive terms that occur nowhere else, so a model that learns to weight
informative terms above background noise ranks the target first.  Queries
mix the target's distinctive terms with one of its background terms, which
keeps the term-level labels from being all ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
# Every pseudo-word is two consonant-vowel syllables.
MAX_TERMS = (len(_CONSONANTS) * len(_VOWELS)) ** 2


@dataclass(frozen=True)
class SynthConfig:
    passages: int = 1000
    terms: int = 300
    queries: int = 100
    negatives: int = 15
    seed: int = 13

    def __post_init__(self):
        for name, least in (("passages", 1), ("terms", 3), ("queries", 1), ("negatives", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.terms > MAX_TERMS:
            raise ValueError(f"terms must be at most {MAX_TERMS}, got {self.terms}")
        if self.queries > self.passages:
            raise ValueError("cannot query more passages than exist")
        if self.terms < 3 * self.queries // 2:
            raise ValueError("vocabulary too small for distinctive terms")
        if self.negatives >= self.passages:
            raise ValueError("negatives must leave room for the positive")


@dataclass
class SynthData:
    corpus: list[tuple[str, str]]
    queries: list[tuple[str, str]]
    qrels: list[tuple[str, str]]
    triples: list[dict]


def _make_words(rng: np.random.Generator, count: int) -> list[str]:
    syllables = ["".join(p) for p in product(_CONSONANTS, _VOWELS)]
    two = ["".join(p) for p in product(syllables, syllables)]
    picks = rng.permutation(len(two))[:count]
    return [two[i] for i in picks]


def generate(config: SynthConfig = SynthConfig()) -> SynthData:
    rng = np.random.default_rng(config.seed)
    words = _make_words(rng, config.terms)

    n_background = config.terms // 3
    background = words[:n_background]
    distinctive = words[n_background:]
    per_target = min(3, len(distinctive) // config.queries)

    # Zipf-flavored background sampling keeps some terms common, some rare.
    ranks = np.arange(1, n_background + 1, dtype=np.float64)
    probs = 1.0 / (ranks + 5.0)
    probs /= probs.sum()

    def background_tokens(n: int) -> list[str]:
        idx = rng.choice(n_background, size=n, replace=True, p=probs)
        return [background[i] for i in idx]

    corpus: list[tuple[str, str]] = []
    target_terms: list[list[str]] = []
    target_background: list[list[str]] = []
    for i in range(config.passages):
        if i < config.queries:
            own = distinctive[i * per_target : (i + 1) * per_target]
            repeats = []
            for term in own:
                repeats.extend([term] * int(rng.integers(2, 4)))
            bg = background_tokens(int(rng.integers(14, 22)))
            tokens = bg + repeats
            target_terms.append(own)
            target_background.append(bg)
        else:
            tokens = background_tokens(int(rng.integers(18, 28)))
        order = rng.permutation(len(tokens))
        text = " ".join(tokens[j] for j in order)
        corpus.append((f"d{i:04d}", text))

    queries: list[tuple[str, str]] = []
    qrels: list[tuple[str, str]] = []
    triples: list[dict] = []
    others = np.arange(config.passages)
    for i in range(config.queries):
        tokens = list(target_terms[i])
        tokens.append(target_background[i][int(rng.integers(len(target_background[i])))])
        order = rng.permutation(len(tokens))
        text = " ".join(tokens[j] for j in order)
        qid = f"q{i:03d}"
        docid = f"d{i:04d}"
        queries.append((qid, text))
        qrels.append((qid, docid))
        pool = others[others != i]
        negatives = rng.choice(pool, size=config.negatives, replace=False)
        triples.append(
            {
                "query": text,
                "positive": corpus[i][1],
                "negatives": [corpus[int(j)][1] for j in negatives],
            }
        )
    return SynthData(corpus, queries, qrels, triples)


def write_dataset(out_dir: str | Path, config: SynthConfig = SynthConfig()) -> dict[str, Path]:
    """Write corpus.tsv, queries.tsv, qrels.tsv and triples.jsonl."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = generate(config)
    paths = {
        "corpus": out / "corpus.tsv",
        "queries": out / "queries.tsv",
        "qrels": out / "qrels.tsv",
        "triples": out / "triples.jsonl",
    }
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for docid, text in data.corpus:
            fh.write(f"{docid}\t{text}\n")
    with open(paths["queries"], "w", encoding="utf-8") as fh:
        for qid, text in data.queries:
            fh.write(f"{qid}\t{text}\n")
    with open(paths["qrels"], "w", encoding="utf-8") as fh:
        for qid, docid in data.qrels:
            fh.write(f"{qid}\t0\t{docid}\t1\n")
    with open(paths["triples"], "w", encoding="utf-8") as fh:
        for row in data.triples:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return paths
