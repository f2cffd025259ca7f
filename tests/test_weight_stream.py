"""The weight-stream parse and index build against the per-posting code they
replaced (`weight_stream_reference`): identical index bytes for valid
streams, the same error for a file with one fault, and no Python work that
grows with the postings of a row."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fectek.cli import _iter_weight_stream
from fectek.errors import DataFormatError
from fectek.index import InvertedIndex

import weight_stream_reference as reference

VOCAB_SIZES = st.sampled_from([1, 7, 300, 30_522, 65_535, 65_536, 70_000])
WEIGHTS = (
    st.floats(0.0, 1e6)
    | st.sampled_from([0.0, 5e-324, 1e-300, 2.5])
    | st.integers(0, 10**6)  # JSON integers, read as floats
)


@st.composite
def streams(draw, min_rows=0):
    """(vocab_size, rows of (docid, {key string: weight}), blank-line flags)."""
    vocab_size = draw(VOCAB_SIZES)
    count = draw(st.integers(min_rows, 8))
    # Docids are one word: the rule that `build` adds and the reference lacks.
    letters = st.characters(codec="utf-8").filter(lambda c: not c.isspace())
    words = st.text(letters, min_size=1, max_size=4)
    docids = draw(st.lists(words, min_size=count, max_size=count, unique=True))
    terms = st.integers(0, vocab_size - 1).map(str)
    rows = [(docid, draw(st.dictionaries(terms, WEIGHTS, max_size=6))) for docid in docids]
    blanks = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return vocab_size, rows, blanks


def write(path, rows, blanks=()):
    lines = []
    for (docid, weights), blank in zip(rows, [*blanks, *[False] * len(rows)]):
        if blank:
            lines.append("  ")
        if not isinstance(weights, str):  # a whole line, written as it is
            weights = json.dumps({"docid": docid, "weights": weights})
        lines.append(weights)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def outcome(build, parse, path, vocab_size):
    """The saved index bytes, or the (type, message) of the error raised."""
    out = path.with_suffix(".ftek")
    try:
        build(parse(path), vocab_size).save(out)
    except Exception as exc:  # the two paths must fail alike, whatever the error
        return type(exc), str(exc)
    return out.read_bytes()


def both(path, vocab_size):
    new = outcome(InvertedIndex.build, _iter_weight_stream, path, vocab_size)
    old = outcome(reference.build, reference.iter_weight_stream, path, vocab_size)
    return new, old


@given(stream=streams())
@settings(max_examples=150, deadline=None)
def test_valid_streams_give_the_reference_bytes(tmp_path_factory, stream):
    vocab_size, rows, blanks = stream
    path = tmp_path_factory.getbasetemp() / "valid.jsonl"
    write(path, rows, blanks)
    new, old = both(path, vocab_size)
    assert isinstance(old, bytes), old
    assert new == old


def fault_cases(vocab_size):
    """(kind, fault) pairs that each break one row of a valid stream."""
    keys = ["07", " 7", "+7", "0_7", "-0", "1.0", "", "x", "9" * 5000]
    values = [True, False, None, "1", [1], {}, 10**400, -1.0, -5e-324, math.nan, math.inf]
    terms = [-1, vocab_size, vocab_size + 5, 2**63, 10**20, -(2**63) - 1]
    lines = ["{", "[1, 2]", '{"docid": 5, "weights": {}}', '{"docid": "a"}', '"x"', "9" * 5000]
    return st.one_of(
        st.tuples(st.just("key"), st.sampled_from(keys)),
        st.tuples(st.just("value"), st.sampled_from(values)),
        st.tuples(st.just("term"), st.sampled_from(terms).map(str)),
        st.tuples(st.just("line"), st.sampled_from(lines)),
        st.tuples(st.just("duplicate-docid"), st.none()),
    )


@given(data=st.data(), stream=streams(min_rows=2))
@settings(max_examples=200, deadline=None)
def test_one_fault_raises_the_reference_error(tmp_path_factory, data, stream):
    vocab_size, rows, blanks = stream
    kind, fault = data.draw(fault_cases(vocab_size))
    at = data.draw(st.integers(1, len(rows) - 1))
    docid, weights = rows[at]
    items = list(weights.items())
    spot = data.draw(st.integers(0, len(items)))
    if kind in ("key", "term"):
        items.insert(spot, (fault, 1.0))
    elif kind == "value":
        items = [item for item in items if item[0] != "0"]
        items.insert(min(spot, len(items)), ("0", fault))
    elif kind == "line":
        items = fault
    else:
        docid = rows[data.draw(st.integers(0, at - 1))][0]
    rows[at] = (docid, items if isinstance(items, str) else dict(items))
    path = tmp_path_factory.getbasetemp() / "fault.jsonl"
    write(path, rows, blanks)
    new, old = both(path, vocab_size)
    assert not isinstance(old, bytes), f"{kind} {fault!r} was accepted"
    assert old[0] is DataFormatError, old
    assert new == old


class TestKeyCache:
    """Each key string is checked on its first sight only; these rows probe
    what a cached key must not let through."""

    def test_alias_of_a_cached_key_is_rejected(self, tmp_path):
        path = tmp_path / "w.jsonl"
        write(path, [("a", {"7": 1.0}), ("b", {"7": 2.0, "07": 1.0})])
        new, old = both(path, 10)
        assert new == old == (DataFormatError, f"{path}:2: term id '07' is not a canonical integer")

    def test_boolean_weight_of_a_cached_key_is_rejected(self, tmp_path):
        path = tmp_path / "w.jsonl"
        write(path, [("a", {"7": 1.0}), ("b", {"7": True})])
        new, old = both(path, 10)
        assert new == old == (DataFormatError, f"{path}:2: weight for term 7 is not a number")

    def test_integer_weight_reads_as_a_float(self, tmp_path):
        ints, floats = tmp_path / "ints.jsonl", tmp_path / "floats.jsonl"
        write(ints, [("a", {"7": 3, "2": 1.5}), ("b", {"7": 1.0})])
        write(floats, [("a", {"7": 3.0, "2": 1.5}), ("b", {"7": 1.0})])
        assert list(_iter_weight_stream(ints))[0] == ("a", [7, 2], [3.0, 1.5])
        new, old = both(ints, 10)
        assert new == old == outcome(InvertedIndex.build, _iter_weight_stream, floats, 10)

    def test_huge_integer_weight_is_too_large(self, tmp_path):
        path = tmp_path / "w.jsonl"
        write(path, [("a", {"7": 1.0}), ("b", {"7": 10**400})])
        new, old = both(path, 10)
        assert new == old == (DataFormatError, f"{path}:2: weight for term 7 is too large")

    def test_key_none_is_not_a_term(self, tmp_path):
        # The per-posting parse took "None" for canonical (str(None)) and
        # crashed in build with a TypeError.
        path = tmp_path / "w.jsonl"
        write(path, [("a", {"None": 1.0})])
        new, old = both(path, 10)
        assert new == (DataFormatError, f"{path}:1: term id 'None' is not a canonical integer")
        assert old[0] is TypeError


def test_build_rejects_rows_with_unequal_columns():
    with pytest.raises(ValueError, match="as many weights as term ids"):
        InvertedIndex.build([("a", [1, 2], [1.0])], 4)


def test_no_python_work_per_posting(tmp_path, python_events):
    """200 rows over the same 50 ids, with 5 or 50 terms a row: every id is
    new once in both files, so the call counts differ only if some call runs
    per posting (the per-posting parse made 3.4x as many on the wider file)."""
    rows = 200
    narrow, wide = tmp_path / "narrow.jsonl", tmp_path / "wide.jsonl"
    narrow_rows = [{str((5 * i + j) % 50): 1 + j / 64 for j in range(5)} for i in range(rows)]
    wide_rows = [{str(j): 1 + j / 64 for j in range(50)} for i in range(rows)]
    write(narrow, [(f"d{i}", row) for i, row in enumerate(narrow_rows)])
    write(wide, [(f"d{i}", row) for i, row in enumerate(wide_rows)])

    def events(path):
        return python_events(lambda: InvertedIndex.build(_iter_weight_stream(path), 50))

    few, many = events(narrow), events(wide)
    assert abs(many - few) <= rows, (few, many)
