"""Ranking metrics over TREC-style run and qrels files.

Qrels rows are `qid 0 docid relevance` (whitespace separated); run rows are
`qid Q0 docid rank score tag`.  Metrics depend only on ranks and relevance
membership, so a written-then-reparsed run scores identically to the
in-memory ranking.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from pathlib import Path

from .errors import DataFormatError, open_text

Run = dict[str, list[tuple[str, float]]]
Qrels = dict[str, set[str]]


def load_qrels(path: str | Path) -> Qrels:
    """Relevant docids per query; rows with relevance <= 0 are ignored."""
    qrels: Qrels = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 'qid 0 docid relevance', got {line!r}"
                )
            qid, _, docid, relevance = parts
            try:
                rel = int(relevance)
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: relevance {relevance!r} is not an integer"
                ) from exc
            if rel > 0:
                qrels.setdefault(qid, set()).add(docid)
    if not qrels:
        raise DataFormatError(f"{path}: no positive qrels rows")
    return qrels


def write_run(
    run: Mapping[str, Sequence[tuple[str, float]]], tag: str, path: str | Path
) -> None:
    """Write `qid Q0 docid rank score tag` rows, ranks starting at 1."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, hits in run.items():
            for rank, (docid, score) in enumerate(hits, start=1):
                fh.write(f"{qid} Q0 {docid} {rank} {float(score)!r} {tag}\n")


def load_run(path: str | Path) -> Run:
    """Parse a run file back into ranked (docid, score) lists per query."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 'qid Q0 docid rank score tag', "
                    f"got {line!r}"
                )
            qid, _, docid, rank, score, _ = parts
            try:
                rows.setdefault(qid, []).append((int(rank), docid, float(score)))
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: bad rank or score in {line!r}"
                ) from exc
    run: Run = {}
    for qid, entries in rows.items():
        entries.sort(key=lambda e: e[0])
        ranks = [r for r, _, _ in entries]
        if ranks != list(range(1, len(ranks) + 1)):
            raise DataFormatError(f"{path}: ranks for query {qid!r} are not 1..k")
        run[qid] = [(docid, score) for _, docid, score in entries]
    return run


def mrr_at_k(run: Run, qrels: Qrels, k: int = 10) -> float:
    """Mean reciprocal rank of the first relevant hit within the top k.

    Queries in the qrels but missing from the run contribute 0.
    """
    if not qrels:
        raise DataFormatError("empty qrels")
    if k <= 0:
        raise ValueError("k must be positive")
    total = 0.0
    for qid, relevant in qrels.items():
        for rank, (docid, _) in enumerate(run.get(qid, [])[:k], start=1):
            if docid in relevant:
                total += 1.0 / rank
                break
    return total / len(qrels)


def recall_at_k(run: Run, qrels: Qrels, k: int = 100) -> float:
    """Mean fraction of each query's relevant docids found in the top k."""
    if not qrels:
        raise DataFormatError("empty qrels")
    if k <= 0:
        raise ValueError("k must be positive")
    total = 0.0
    for qid, relevant in qrels.items():
        retrieved = {docid for docid, _ in run.get(qid, [])[:k]}
        total += len(retrieved & relevant) / len(relevant)
    return total / len(qrels)
