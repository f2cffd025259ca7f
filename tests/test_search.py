"""Search against the stable-argsort merge it replaced (`search_reference`):
equal `SearchHit` lists, float values included, and no Python work that
grows with the postings a query touches."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import search_reference as reference
from fectek.index import InvertedIndex, search

# Documents use terms 0..5 of a 7-id vocabulary: term 6 has no postings and
# ids below 0 or from 7 on lie outside it.  Few weight levels make ties
# common; the largest weight on either side is impact 255.
VOCAB_SIZE = 7
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]) | st.floats(0.0, 4.0)


def build(docs):
    rows = ((f"d{i}", list(doc), list(doc.values())) for i, doc in enumerate(docs))
    return InvertedIndex.build(rows, VOCAB_SIZE)


@given(
    docs=st.lists(
        st.dictionaries(st.integers(0, 5), WEIGHTS, max_size=6), min_size=1, max_size=30
    ),
    query=st.dictionaries(st.integers(-2, 9), WEIGHTS, min_size=1, max_size=6),
    k=st.integers(1, 35),
)
# Impact 255 on both sides, so products of 255 * 255 on adjacent ordinals;
# k = 1 cuts inside their tie.
@example(docs=[{0: 4.0}, {0: 4.0}, {0: 1.0, 1: 4.0}], query={0: 3.0, 1: 3.0}, k=1)
@example(docs=[{0: 4.0, 1: 4.0}, {0: 4.0, 1: 4.0}], query={0: 1.0, 1: 1.0, 6: 1.0}, k=1)
@example(docs=[{}, {}], query={6: 1.0, 8: 2.0, -1: 0.5}, k=3)  # empty and out-of-vocabulary
@settings(max_examples=300, deadline=None)
def test_search_returns_the_reference_hits(docs, query, k):
    index = build(docs)
    hits = len(reference.search(index, query, index.doc_count))
    for top in {k, 1, hits, hits + 1}:
        assert search(index, query, top) == reference.search(index, query, top)


def test_no_python_work_per_posting(python_events):
    """One-term queries over 10,000 documents: term 0 is in every 100th
    document and term 1 in all of them.  Both queries return k hits, so the
    call counts differ only if some call runs per posting touched."""
    docs = 10_000

    def row(i):
        terms = [0, 1] if i % 100 == 0 else [1]
        return f"d{i}", terms, [1.0 + i % 7] * len(terms)

    index = InvertedIndex.build(map(row, range(docs)), 2)
    assert np.diff(index.offsets).tolist() == [100, docs]
    few, many = [python_events(lambda: search(index, {term: 1.0}, 10)) for term in (0, 1)]
    assert abs(many - few) <= 10, (few, many)
