"""The search that the sorted-key merge replaced, kept as a test oracle.

It merges the query's posting lists with a stable argsort (timsort) of their
ordinals and gathers the ordinals and the impact products through that
permutation.  The code is as it stood before the rewrite, so the new search
must return equal `SearchHit` lists, float values included.
"""

from __future__ import annotations

import numpy as np

from fectek.index import InvertedIndex, SearchHit, quantization_step, quantize_weights


def search(
    index: InvertedIndex, query_weights: dict[int, float], k: int
) -> list[SearchHit]:
    """Exact top-k by integer impact dot product, ties broken by ordinal.

    The query side is quantized with its own scale (max query weight / 255);
    float scores are the integer scores times both scales.  Term ids outside
    the vocabulary match nothing, but their weights still set that scale.
    Work is a merge sort of the touched postings plus a sort of the
    candidates tied with or above the k-th score, so no array is sized by
    the document count.
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
    if not ordinals.size:
        return []
    products = np.concatenate(
        [index.impacts[span] * query_impact for span, query_impact in lists]
    )
    # Each list ascends, so a stable sort (timsort) merges the runs; each
    # candidate's score is then the sum over its run of equal ordinals.
    order = np.argsort(ordinals, kind="stable")
    ordinals = ordinals[order]
    starts = np.flatnonzero(np.concatenate(([True], ordinals[1:] != ordinals[:-1])))
    candidates = ordinals[starts]
    scores = np.add.reduceat(products[order], starts)
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
