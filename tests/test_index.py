"""Quantization, varint codec, index persistence, and exact top-k search."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fectek.errors import CorruptFileError, DataFormatError, FecTekError
from fectek.index import (
    LEVELS,
    MAGIC,
    VERSION,
    InvertedIndex,
    _decode_varints,
    _encode_varints,
    _first_postings,
    quantization_step,
    quantize_value,
    quantize_weights,
    search,
)

HEADER = struct.Struct("<4sIQQd")
# One-word docids: non-empty, with no character that `str.split` splits on.
WORDS = st.text(
    st.characters(codec="utf-8").filter(lambda c: not c.isspace()), min_size=1, max_size=200
)


def postings(index, term):
    """(ordinals, impacts) of one term: its slice of the CSR arrays."""
    span = slice(index.offsets[term], index.offsets[term + 1])
    return index.ordinals[span], index.impacts[span]


def brute_force(index, query_weights, k):
    """Dense reference ranking: same quantization, same tie rule."""
    if k <= 0 or not query_weights:
        return []
    qstep = quantization_step(max(query_weights.values(), default=0.0))
    qimp = quantize_weights(query_weights, qstep)
    scores = np.zeros(index.doc_count, dtype=np.int64)
    for term, qi in qimp.items():
        if 0 <= term < index.vocab_size:
            ordinals, impacts = postings(index, term)
            scores[ordinals] += qi * impacts
    ranked = sorted(
        (ordinal for ordinal in range(index.doc_count) if scores[ordinal] > 0),
        key=lambda o: (-scores[o], o),
    )
    return [
        (index.docids[o], int(scores[o]), int(scores[o]) * qstep * index.scale)
        for o in ranked[:k]
    ]


def rows_brute_force(rows, query_weights):
    """(docid, score) of every matching (docid, terms, weights) row, ranked as
    `search` ranks: each entry of a row scores on its own, no index involved."""
    step = quantization_step(max((w for _, _, ws in rows for w in ws), default=0.0))
    qimp = quantize_weights(query_weights, quantization_step(max(query_weights.values())))
    scored = []
    for ordinal, (docid, terms, weights) in enumerate(rows):
        impacts = quantize_value(np.asarray(weights, dtype=np.float64), step).tolist()
        score = sum(qimp.get(t, 0) * i for t, i in zip(terms, impacts))
        if score > 0:
            scored.append((-score, ordinal, docid))
    return [(docid, -neg) for neg, _, docid in sorted(scored)]


def write_varint(out, value):
    """Append an unsigned LEB128 varint (7 payload bits per byte)."""
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def varint_width(value):
    out = bytearray()
    write_varint(out, value)
    return len(out)


def stored_gaps(index):
    """What each posting stores: its ordinal if first in its term, else its gap."""
    gaps = []
    for term in range(index.vocab_size):
        ordinals = postings(index, term)[0].tolist()
        gaps += [b - a for a, b in zip([0] + ordinals, ordinals)]
    return gaps


def posting_counts(index):
    """Each term's posting count, as the count table stores it."""
    offsets = index.offsets.tolist()
    return [b - a for a, b in zip(offsets, offsets[1:])]


def reference_file(index):
    """The v4 file written one value at a time with `write_varint`."""
    out = bytearray(
        HEADER.pack(MAGIC, VERSION, index.vocab_size, index.doc_count, index.scale)
    )
    for count in posting_counts(index):
        write_varint(out, count)
    for gap in stored_gaps(index):
        write_varint(out, gap)
    out += bytes(index.impacts.tolist())
    for docid in index.docids:
        out += docid.encode("utf-8") + b"\n"
    return bytes(out)


def reference_load(blob):
    """Plain-Python v4 reader that walks the file one byte at a time.

    Returns (scale, offsets, ordinals, impacts, docids) as lists, or raises
    CorruptFileError: an oracle for the vectorized `InvertedIndex.load`.
    """
    pos = 0

    def take(size):
        nonlocal pos
        if pos + size > len(blob):
            raise CorruptFileError("truncated")
        pos += size
        return blob[pos - size : pos]

    def varint():
        value = 0
        for shift in range(0, 63, 7):  # at most 9 bytes
            byte = take(1)[0]
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value
        raise CorruptFileError("varint longer than 64 bits")

    magic, version, vocab_size, doc_count, scale = HEADER.unpack(take(HEADER.size))
    if magic != MAGIC or version != VERSION or not 0.0 < scale < math.inf:
        raise CorruptFileError("bad header")
    offsets = [0]
    for _ in range(vocab_size):
        offsets.append(offsets[-1] + varint())
    gaps = [varint() for _ in range(offsets[-1])]
    impacts = list(take(offsets[-1]))
    ordinals = []
    for term in range(vocab_size):
        for i in range(offsets[term], offsets[term + 1]):
            if i > offsets[term] and gaps[i] == 0:
                raise CorruptFileError("not strictly increasing")
            ordinals.append(gaps[i] + (ordinals[-1] if i > offsets[term] else 0))
            if ordinals[-1] >= doc_count or impacts[i] == 0:
                raise CorruptFileError("bad posting")
    docids = []
    for _ in range(doc_count):
        line = bytearray()
        while (byte := take(1)) != b"\n":
            line += byte
        try:
            docid = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFileError("not UTF-8") from exc
        if not docid or any(c.isspace() for c in docid):
            raise CorruptFileError("empty docid or whitespace in one")
        docids.append(docid)
    if pos != len(blob) or len(set(docids)) != len(docids):
        raise CorruptFileError("trailing bytes or duplicate docid")
    return scale, offsets, ordinals, impacts, docids


def load_outcome(path, blob):
    """What `InvertedIndex.load` makes of `blob`, in `reference_load`'s terms."""
    path.write_bytes(blob)
    try:
        index = InvertedIndex.load(path)
    except FecTekError as exc:
        return type(exc)
    arrays = (index.offsets, index.ordinals, index.impacts)
    return (index.scale, *(a.tolist() for a in arrays), index.docids)


def reference_outcome(blob):
    try:
        return reference_load(blob)
    except CorruptFileError:
        return CorruptFileError


def region_bounds(index):
    """Start of each region of the saved file (header, posting counts, gaps,
    impacts, docids), then the file size."""
    gaps = stored_gaps(index)
    sizes = [
        HEADER.size,
        sum(map(varint_width, posting_counts(index))),
        sum(map(varint_width, gaps)),
        len(gaps),
        sum(len(docid.encode("utf-8")) + 1 for docid in index.docids),
    ]
    return np.cumsum([0, *sizes]).tolist()


TIED_LEVELS = (0.0, 0.5, 1.0, 2.0)


def random_corpus(rng, docs, terms, density=0.3, max_weight=4.0):
    rows = []
    for d in range(docs):
        weights = {}
        for t in range(terms):
            if rng.random() < density:
                weights[t] = float(rng.uniform(0.0, max_weight))
        rows.append((f"doc{d:03d}", weights))
    return rows


def build_from(rows, vocab_size):
    """Build from (docid, {term: weight}) rows."""
    return InvertedIndex.build(((d, w, w.values()) for d, w in rows), vocab_size)


def zipf_terms(rng, vocab_size, size):
    """Distinct term ids, rank r drawn with weight 1 / (r + 2)."""
    p = 1.0 / (np.arange(vocab_size) + 2.0)
    return rng.choice(vocab_size, size=size, replace=False, p=p / p.sum())


def zipf_corpus(rng, docs, vocab_size, levels):
    """Documents of 10..30 Zipf-drawn terms, each weight one of `levels`."""
    rows = []
    for d in range(docs):
        terms = zipf_terms(rng, vocab_size, int(rng.integers(10, 31)))
        rows.append((f"doc{d:04d}", {int(t): float(rng.choice(levels)) for t in terms}))
    return rows


class TestQuantization:
    def test_max_weight_maps_to_top_level(self):
        step = quantization_step(7.5)
        assert quantize_value(7.5, step) == LEVELS - 1

    def test_rounding_is_half_away_from_zero(self):
        assert quantize_value(0.5, 1.0) == 1
        assert quantize_value(0.49999, 1.0) == 0
        assert quantize_value(1.5, 1.0) == 2

    def test_zero_corpus_uses_sentinel_scale(self):
        assert quantization_step(0.0) == 1.0

    def test_underflowing_step_uses_sentinel_scale(self, tmp_path):
        # 5e-324 / 255 is 0.0: such weights round to impact 0 and are dropped,
        # and the saved index keeps a loadable scale.
        assert quantization_step(5e-324) == 1.0
        path = tmp_path / "idx.ftek"
        build_from([("a", {1: 5e-324}), ("b", {2: 0.0})], 4).save(path)
        index = InvertedIndex.load(path)
        assert index.scale == 1.0 and index.ordinals.size == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            quantization_step(-1.0)
        with pytest.raises(ValueError):
            quantize_value(-0.1, 1.0)

    def test_quantize_weights_drops_zero_impacts(self):
        step = quantization_step(10.0)
        out = quantize_weights({1: 10.0, 2: 0.0, 3: step * 0.4}, step)
        assert 1 in out and 2 not in out and 3 not in out

    @given(st.floats(min_value=1e-6, max_value=1e6), st.data())
    @settings(max_examples=120, deadline=None)
    def test_dequantized_error_within_half_step(self, max_weight, data):
        step = quantization_step(max_weight)
        weight = data.draw(st.floats(min_value=0.0, max_value=max_weight))
        impact = quantize_value(weight, step)
        assert 0 <= impact <= LEVELS - 1
        assert abs(impact * step - weight) <= step / 2 + 1e-12


class TestVarint:
    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, values):
        encoded = _encode_varints(np.array(values, dtype=np.int64))
        reference = bytearray()
        for value in values:
            write_varint(reference, value)
        assert encoded.tobytes() == reference
        trailing = np.array([5, 0x80], dtype=np.uint8)  # must stay unread
        decoded, used = _decode_varints(np.append(encoded, trailing), len(values))
        assert decoded.tolist() == values
        assert used == len(encoded)

    def test_single_byte_values(self):
        assert _encode_varints(np.array([0, 1, 127])).tolist() == [0, 1, 127]

    def test_multi_byte_boundary(self):
        assert _encode_varints(np.array([128])).tobytes() == b"\x80\x01"

    def test_truncated_raises(self, tmp_path):
        # The decoder returns what it could finish; `load` names the truncation.
        decoded, used = _decode_varints(np.frombuffer(b"\x05\x80", np.uint8), 2)
        assert decoded.tolist() == [5] and used == 1
        # One term with one posting, whose gap never ends.
        blob = HEADER.pack(MAGIC, VERSION, 1, 1, 1.0) + b"\x01" + b"\x80" * 3
        path = tmp_path / "idx.ftek"
        path.write_bytes(blob)
        with pytest.raises(CorruptFileError, match="truncated inside term 0"):
            InvertedIndex.load(path)

    def test_end_bound_respected(self):
        buf = np.frombuffer(b"\xac\x02\x01\x80", np.uint8)
        decoded, used = _decode_varints(buf, 1)
        assert decoded.tolist() == [300] and used == 2

    def test_overlong_rejected(self):
        widest = b"\xff" * 8 + b"\x7f"  # 9 bytes: 63 bits, the int64 maximum
        decoded, _ = _decode_varints(np.frombuffer(widest, np.uint8), 1)
        assert decoded.tolist() == [2**63 - 1]
        overlong = np.frombuffer(b"\xff" * 9 + b"\x01", np.uint8)
        with pytest.raises(CorruptFileError, match="longer than 64 bits"):
            _decode_varints(overlong, 1)


class TestBuild:
    def test_postings_sorted_by_ordinal_with_impacts(self):
        rows = [
            ("a", {2: 4.0}),
            ("b", {2: 2.0, 3: 1.0}),
            ("c", {3: 4.0}),
        ]
        index = build_from(rows, 8)
        assert index.doc_count == 3
        ords, imps = postings(index, 2)
        assert ords.tolist() == [0, 1]
        assert imps.tolist() == [255, 128]
        assert index.docids == ["a", "b", "c"]

    def test_zero_weights_produce_no_postings(self):
        index = build_from([("a", {2: 0.0}), ("b", {})], 8)
        assert index.offsets.tolist() == [0] * 9
        assert index.ordinals.size == index.impacts.size == 0
        assert index.scale == 1.0
        assert index.doc_count == 2

    @pytest.mark.parametrize("vocab_size", [0, -1])
    def test_vocab_size_must_be_positive(self, vocab_size):
        with pytest.raises(ValueError, match="vocab_size must be positive"):
            build_from([("a", {})], vocab_size)

    def test_duplicate_docid_named(self):
        rows = [("dup", {2: 1.0}), ("dup", {3: 1.0})]
        with pytest.raises(DataFormatError, match="'dup'"):
            build_from(rows, 8)

    @pytest.mark.parametrize(
        "docid",
        ["", "d 1", "a\tb", "x\ny", "\u3000", "e\x1c"],
        ids=["empty", "space", "tab", "newline", "ideographic-space", "file-separator"],
    )
    def test_docid_that_is_not_one_word_rejected(self, docid):
        # A run file splits its rows on whitespace; the index ends each docid
        # with a newline.
        rows = [("ok", {2: 1.0}), (docid, {3: 1.0})]
        with pytest.raises(DataFormatError, match=re.escape(f"docid {docid!r} is empty or")):
            build_from(rows, 8)

    def test_docid_that_utf8_cannot_hold_rejected(self):
        # JSON's "\ud800" escape decodes to a lone surrogate; the index
        # stores its docids in UTF-8.
        rows = [("ok", {2: 1.0}), ("d\ud800", {3: 1.0}), ("z\udcff", {})]
        with pytest.raises(DataFormatError, match=re.escape("docid 'd\\ud800' is not UTF-8")):
            build_from(rows, 8)

    def test_negative_weight_rejected(self):
        with pytest.raises(DataFormatError, match="negative"):
            build_from([("a", {2: -1.0})], 8)

    def test_out_of_vocabulary_term_rejected(self):
        with pytest.raises(DataFormatError, match="term id 9"):
            build_from([("a", {9: 1.0})], 8)

    def test_scale_is_global_max_over_levels(self):
        index = build_from([("a", {2: 5.1}), ("b", {3: 10.2})], 8)
        assert index.scale == pytest.approx(10.2 / 255)


class TestPersistence:
    @given(st.lists(st.integers(0, 4), max_size=12))
    def test_first_postings_are_the_offsets_of_nonempty_terms(self, sizes):
        offsets = np.cumsum([0, *sizes])
        expected = np.isin(np.arange(offsets[-1]), offsets)
        assert np.array_equal(_first_postings(offsets), expected)

    def test_round_trip(self, tmp_path, rng):
        rows = random_corpus(rng, docs=20, terms=12)
        index = build_from(rows, 12)
        path = tmp_path / "idx.ftek"
        index.save(path)
        loaded = InvertedIndex.load(path)
        assert loaded.vocab_size == index.vocab_size
        assert loaded.scale == index.scale
        assert loaded.docids == index.docids
        assert np.array_equal(loaded.offsets, index.offsets)
        assert np.array_equal(loaded.ordinals, index.ordinals)
        assert np.array_equal(loaded.impacts, index.impacts)

    @pytest.mark.parametrize("ordinals", [[1, 1], [1, 0]], ids=["repeated", "decreasing"])
    def test_save_refuses_ordinals_that_do_not_increase(self, tmp_path, ordinals):
        # Term 0 is empty and term 1 holds both postings.
        index = build_from([("a", {1: 1.0}), ("b", {1: 1.0})], 2)
        index.ordinals = np.array(ordinals)
        path = tmp_path / "idx.ftek"
        with pytest.raises(ValueError, match="ordinals not strictly increasing for term 1"):
            index.save(path)
        assert not path.exists()

    def test_save_bytes_deterministic(self, tmp_path, rng):
        rows = random_corpus(rng, docs=10, terms=8)
        index = build_from(rows, 8)
        p1, p2 = tmp_path / "a.ftek", tmp_path / "b.ftek"
        index.save(p1)
        build_from(rows, 8).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_v2_multi_byte_gaps(self, tmp_path):
        # The gap and impact regions that version 2 introduced, after the
        # version 3 count table.  Term 1 holds ordinals 127, 255 and 16639
        # (stored as 127, then gaps 128 and 16384) with impacts 1, 128 and
        # 255; term 2 holds ordinal 0 with impact 2.  Every other document
        # is empty.
        weights = {0: {2: 2.0}, 127: {1: 1.0}, 255: {1: 128.0}, 16639: {1: 255.0}}
        index = build_from([(f"d{o}", weights.get(o, {})) for o in range(16640)], 3)
        path = tmp_path / "idx.ftek"
        index.save(path)
        blob = path.read_bytes()
        assert HEADER.unpack_from(blob) == (MAGIC, VERSION, 3, 16640, 1.0)
        assert blob[HEADER.size : HEADER.size + 3] == bytes([0, 3, 1])  # posting counts
        region_start = HEADER.size + 3
        assert blob[region_start : region_start + 11] == bytes.fromhex(
            "7f" "8001" "808001" "00" "0180ff02"
        )
        # Then the docids, each ended by a newline.
        docids = "".join(f"{docid}\n" for docid in index.docids).encode("utf-8")
        assert blob[region_start + 11 :] == docids
        assert docids.startswith(b"d0\nd1\nd2\n") and docids.endswith(b"\nd16639\n")
        resaved = tmp_path / "again.ftek"
        InvertedIndex.load(path).save(resaved)
        assert resaved.read_bytes() == blob

    @given(
        doc_count=st.integers(1, 3000),
        weights=st.dictionaries(
            st.integers(0, 2999),
            st.dictionaries(
                st.integers(0, 7), st.floats(0.0, 1e3), min_size=1, max_size=4
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_sparse_ordinals(self, tmp_path_factory, doc_count, weights):
        rows = [(f"d{o}", weights.get(o, {})) for o in range(doc_count)]
        index = build_from(rows, 8)
        step = quantization_step(
            max((w for _, ws in rows for w in ws.values()), default=0.0)
        )
        for term in range(8):
            ordinals, impacts = postings(index, term)
            expected = [
                (o, impact)
                for o, (_, ws) in enumerate(rows)
                for t, impact in quantize_weights(ws, step).items()
                if t == term
            ]
            assert list(zip(ordinals.tolist(), impacts.tolist())) == expected

        path = tmp_path_factory.mktemp("sparse") / "idx.ftek"
        index.save(path)
        assert path.read_bytes() == reference_file(index)
        loaded = InvertedIndex.load(path)
        assert np.array_equal(loaded.offsets, index.offsets)
        assert np.array_equal(loaded.ordinals, index.ordinals)
        assert np.array_equal(loaded.impacts, index.impacts)

    @given(
        st.lists(
            st.lists(st.integers(0, 2**62), unique=True, max_size=5), max_size=4
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_save_encodes_any_gap_as_write_varint_does(self, tmp_path_factory, lists):
        # Gaps of up to 62 bits (9-byte varints) need no documents to save.
        ordinals = [sorted(ords) for ords in lists]
        index = InvertedIndex(
            1.0,
            ["a"],
            np.cumsum([0] + [len(ords) for ords in ordinals]),
            np.array([o for ords in ordinals for o in ords], dtype=np.int64),
            np.array([1 + o % 255 for ords in ordinals for o in ords], dtype=np.int64),
        )
        path = tmp_path_factory.mktemp("gaps") / "idx.ftek"
        index.save(path)
        assert path.read_bytes() == reference_file(index)

    @given(
        docs=st.lists(
            st.tuples(
                WORDS,
                st.dictionaries(st.integers(0, 5), st.floats(0.0, 9.0), max_size=6),
            ),
            max_size=300,
            unique_by=lambda doc: doc[0],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_file_size_is_the_format_formula(self, tmp_path_factory, docs):
        # The header, a varint count per term, a varint gap and an impact
        # byte per posting, and each docid with its newline.  A docid under
        # 128 bytes takes as many bytes as in version 3, where a one-byte
        # varint length stood in place of the newline.
        index = build_from(docs, 6)
        path = tmp_path_factory.mktemp("size") / "idx.ftek"
        index.save(path)
        lengths = [len(docid.encode("utf-8")) for docid, _ in docs]
        size = (
            HEADER.size
            + sum(map(varint_width, posting_counts(index)))
            + sum(varint_width(gap) + 1 for gap in stored_gaps(index))
            + sum(n + 1 for n in lengths)
        )
        assert path.stat().st_size == size
        assert region_bounds(index)[-1] == size

    def test_one_posting_over_65536_ids_is_small_and_resaves_identically(self, tmp_path):
        # Version 2 spent 8 bytes an id on offsets: 524 KB for this index.
        index = build_from([("only", {65535: 1.0})], 65536)
        first, second = tmp_path / "a.ftek", tmp_path / "b.ftek"
        index.save(first)
        assert first.stat().st_size < 70_000
        InvertedIndex.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "idx.ftek"
        build_from([("a", {1: 1.0})], 4).save(path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(
            CorruptFileError, match="unsupported version 1: rebuild with fectek index"
        ):
            InvertedIndex.load(path)

    def test_version_2_rejected(self, tmp_path):
        # A version 2 file as that version wrote it: u64 offsets, not counts.
        path = tmp_path / "idx.ftek"
        blob = HEADER.pack(MAGIC, 2, 2, 1, 1.0) + struct.pack("<3Q", 0, 1, 1)
        path.write_bytes(blob + b"\x00" b"\x05" b"\x01" b"a")
        with pytest.raises(
            CorruptFileError, match="unsupported version 2: rebuild with fectek index"
        ):
            InvertedIndex.load(path)

    def test_version_3_rejected(self, tmp_path):
        # A version 3 file as that version wrote it: a varint length before
        # each docid, no newline after it.
        path = tmp_path / "idx.ftek"
        path.write_bytes(HEADER.pack(MAGIC, 3, 2, 1, 1.0) + b"\x00\x01" b"\x00" b"\x05" b"\x01" b"a")
        with pytest.raises(
            CorruptFileError, match="unsupported version 3: rebuild with fectek index"
        ):
            InvertedIndex.load(path)

    def test_search_agrees_after_round_trip(self, tmp_path, rng):
        rows = random_corpus(rng, docs=30, terms=10)
        index = build_from(rows, 10)
        path = tmp_path / "idx.ftek"
        index.save(path)
        loaded = InvertedIndex.load(path)
        query = {1: 2.0, 4: 1.0, 7: 3.0}
        a = [(h.docid, h.score) for h in search(index, query, 10)]
        b = [(h.docid, h.score) for h in search(loaded, query, 10)]
        assert a == b


class TestFaultInjection:
    @pytest.fixture
    def saved(self, tmp_path, rng):
        rows = random_corpus(rng, docs=6, terms=5, density=0.8)
        index = build_from(rows, 5)
        path = tmp_path / "idx.ftek"
        index.save(path)
        return path, bytearray(path.read_bytes())

    def reload(self, tmp_path, blob):
        path = tmp_path / "broken.ftek"
        path.write_bytes(bytes(blob))
        return InvertedIndex.load(path)

    def test_bad_magic(self, tmp_path, saved):
        _, blob = saved
        blob[:4] = b"JUNK"
        with pytest.raises(CorruptFileError, match="bad magic"):
            self.reload(tmp_path, blob)

    def test_bad_version(self, tmp_path, saved):
        _, blob = saved
        blob[4:8] = struct.pack("<I", 9)
        with pytest.raises(CorruptFileError, match="version"):
            self.reload(tmp_path, blob)

    def test_bad_scale(self, tmp_path, saved):
        _, blob = saved
        blob[24:32] = struct.pack("<d", -1.0)
        with pytest.raises(CorruptFileError, match="scale"):
            self.reload(tmp_path, blob)

    def test_counts_past_the_file_name_term(self, tmp_path, saved):
        # Term 2's count grows by 128 (a second varint byte), more postings
        # than the file has bytes.
        path, blob = saved
        counts = np.diff(InvertedIndex.load(path).offsets).tolist()
        assert all(count < 0x80 for count in counts)
        blob[32 + 2] |= 0x80
        blob.insert(32 + 3, 0x01)
        with pytest.raises(CorruptFileError, match="past the end of the file at term 2"):
            self.reload(tmp_path, blob)

    def test_counts_cannot_wrap_the_running_sum(self, tmp_path):
        # Counts 2**63 - 1, 2**63 - 1 and 3 sum to 1 modulo 2**64: an int64
        # running sum would ask for the one posting that follows.
        table = bytearray()
        for count in (2**63 - 1, 2**63 - 1, 3):
            write_varint(table, count)
        blob = HEADER.pack(MAGIC, VERSION, 3, 1, 1.0) + table + b"\x00" b"\x05" b"a\n"
        with pytest.raises(CorruptFileError, match="past the end of the file at term 0"):
            self.reload(tmp_path, blob)

    def test_truncated_postings_names_term(self, tmp_path, saved):
        path, blob = saved
        index = InvertedIndex.load(path)
        region_start = region_bounds(index)[2]
        # Cut inside the first gap of the first term with postings, and leave
        # enough bytes after it for every impact and docid newline.
        blob[region_start] |= 0x80
        blob[region_start + 1 :] = b"\x80" * (len(blob) - region_start - 1)
        term = int(np.flatnonzero(np.diff(index.offsets))[0])
        with pytest.raises(CorruptFileError, match=f"truncated inside term {term}"):
            self.reload(tmp_path, blob)

    def test_truncated_header(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(CorruptFileError, match="header"):
            self.reload(tmp_path, blob[:10])

    def test_doc_count_past_the_file(self, tmp_path, saved):
        # A newline per docid would not fit after the header.
        _, blob = saved
        blob[16:24] = struct.pack("<Q", len(blob) - 31)
        with pytest.raises(CorruptFileError, match="doc count .* past the end of the file"):
            self.reload(tmp_path, blob)

    def test_truncated_count_table(self, tmp_path, saved):
        # Three of the five counts, then a byte for each of the six docids.
        _, blob = saved
        with pytest.raises(CorruptFileError, match="truncated count table"):
            self.reload(tmp_path, blob[: 32 + 3 + 6])

    def test_truncated_docid_table(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(CorruptFileError, match="docid table"):
            self.reload(tmp_path, blob[:-3])

    def test_trailing_bytes(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(CorruptFileError, match="does not end in a newline"):
            self.reload(tmp_path, blob + b"\x00\x00")

    @staticmethod
    def assemble(doc_count, counts, body):
        """A hand-built file: header, posting counts, then every later region."""
        header = HEADER.pack(MAGIC, VERSION, len(counts), doc_count, 1.0)
        return header + bytes(counts) + body

    def test_zero_impact_rejected(self, tmp_path):
        # One term, one posting: ordinal 0 with impact 0.
        blob = self.assemble(1, (1,), b"\x00" b"\x00" b"a\n")
        with pytest.raises(CorruptFileError, match="zero impact"):
            self.reload(tmp_path, blob)

    def test_zero_gap_rejected(self, tmp_path):
        # Two postings on the same ordinal (gap 0 after the first).
        blob = self.assemble(2, (2,), b"\x00\x00" b"\x05\x04" b"a\nb\n")
        with pytest.raises(CorruptFileError, match="strictly increasing"):
            self.reload(tmp_path, blob)

    def test_ordinal_beyond_doc_count_rejected(self, tmp_path):
        # Ordinal 2 with only 1 doc.
        blob = self.assemble(1, (1,), b"\x02" b"\x05" b"a\n")
        with pytest.raises(CorruptFileError, match="ordinal 2 beyond doc count 1"):
            self.reload(tmp_path, blob)

    def test_missing_impact_byte_rejected(self, tmp_path):
        # Two terms with a posting each; the file ends after the first impact,
        # so term 1's posting (and the docid table) cannot fit.
        blob = self.assemble(1, (1, 1), b"\x00\x00" b"\x05")
        with pytest.raises(CorruptFileError, match="past the end of the file at term 1"):
            self.reload(tmp_path, blob)

    def test_duplicate_docid_rejected(self, tmp_path):
        blob = self.assemble(2, (0,), b"a\na\n")
        with pytest.raises(CorruptFileError, match="duplicate docid"):
            self.reload(tmp_path, blob)

    def test_ordinals_cannot_wrap_the_running_sum(self, tmp_path):
        # Gaps 1, 2**63 - 1, 2**63 - 1, 3 would wrap an int64 running sum to
        # ordinals 1, -2**63, -1, 2, all below the doc count of 3.
        widest = b"\xff" * 8 + b"\x7f"
        gaps = b"\x01" + widest + widest + b"\x03"
        blob = self.assemble(3, (4,), gaps + b"\x05" * 4 + b"a\nb\nc\n")
        with pytest.raises(CorruptFileError, match=f"term 0 references ordinal {2**63} "):
            self.reload(tmp_path, blob)

    def test_non_utf8_docid_names_entry(self, tmp_path):
        blob = self.assemble(2, (0,), b"a\n" b"\xff\n")
        with pytest.raises(CorruptFileError, match="entry 1 is not UTF-8"):
            self.reload(tmp_path, blob)

    @pytest.mark.parametrize(
        "table, message",
        [
            (b"a\n\n", "entry 1 is empty or contains whitespace"),
            (b"a\nb c\n", "entry 1 is empty or contains whitespace"),
            (b"a\tb\nc\n", "entry 0 is empty or contains whitespace"),
            (b"a\nb", "does not end in a newline"),
            (b"a\nb\nc\n", "holds 3 entries, not 2"),
            (b"ab\n", "holds 1 entries, not 2"),
            (b"a\n\xc3\n", "entry 1 is not UTF-8"),
        ],
        ids=["empty", "space", "tab", "no-final-newline", "one-too-many", "one-too-few", "utf8"],
    )
    def test_bad_docid_table_named(self, tmp_path, table, message):
        # Two docids and no postings: the table is the rest of the file.
        with pytest.raises(CorruptFileError, match=message):
            self.reload(tmp_path, self.assemble(2, (0,), table))


    @given(
        doc_count=st.integers(1, 300),
        weights=st.dictionaries(
            st.integers(0, 299),
            st.dictionaries(
                st.integers(0, 5), st.floats(0.0, 1e3), min_size=1, max_size=5
            ),
            max_size=30,
        ),
        mutation=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["set", "cut"]),
                st.integers(0, 4),  # the region to hit, as in `region_bounds`
                st.integers(0, 2**20),
                st.one_of(
                    st.sampled_from([0, 1, 0x0A, 0x20, 0x7F, 0x80, 0xFF]), st.integers(0, 255)
                ),
            ),
        ),
    )
    # Two postings of term 1 (ordinals 0 and 1), docids "é0" and "d1"
    # (bytes c3 a9 30 0a 64 31 0a): term 1's count raised to 127, a zero
    # impact, a zero gap, a space for the first docid's newline, and a
    # newline inside the "é".
    @example(doc_count=2, weights={0: {1: 1.0}, 1: {1: 2.0}}, mutation=("set", 1, 1, 0x7F))
    @example(doc_count=2, weights={0: {1: 1.0}, 1: {1: 2.0}}, mutation=("set", 3, 0, 0))
    @example(doc_count=2, weights={0: {1: 1.0}, 1: {1: 2.0}}, mutation=("set", 2, 1, 0))
    @example(doc_count=2, weights={0: {1: 1.0}, 1: {1: 2.0}}, mutation=("set", 4, 3, 0x20))
    @example(doc_count=2, weights={0: {1: 1.0}, 1: {1: 2.0}}, mutation=("set", 4, 1, 0x0A))
    @settings(max_examples=300, deadline=None)
    def test_load_agrees_with_reference_decoder(
        self, tmp_path_factory, doc_count, weights, mutation
    ):
        # Every third docid is two-byte UTF-8, so flips can break the encoding.
        rows = [(f"d{o}" if o % 3 else f"é{o}", weights.get(o, {})) for o in range(doc_count)]
        index = build_from(rows, 6)
        path = tmp_path_factory.mktemp("reference") / "idx.ftek"
        index.save(path)
        blob = bytearray(path.read_bytes())
        if mutation is not None:
            kind, region, where, value = mutation
            start, end = region_bounds(index)[region : region + 2]
            where = start + where % (end - start) if end > start else where % len(blob)
            if kind == "set":
                blob[where] = value
            else:
                del blob[where:]
        expected = reference_outcome(bytes(blob))
        assert load_outcome(path, bytes(blob)) == expected
        if mutation is None or mutation[0] == "cut":
            assert (expected is CorruptFileError) == (mutation is not None)

    def test_exhaustive_corruption_sweep(self, tmp_path):
        # A 30-document index with every byte flipped three ways and every
        # proper prefix: no prefix loads, and each flip is read exactly as the
        # reference decoder reads it (so only package errors escape).
        rng = np.random.default_rng(64)
        rows = [
            (f"doc{d:03d}", {int(t): float(rng.uniform(0.1, 5.0)) for t in terms})
            for d, terms in enumerate(rng.choice(20, size=6, replace=False) for _ in range(30))
        ]
        build_from(rows, 20).save(tmp_path / "idx.ftek")
        blob = (tmp_path / "idx.ftek").read_bytes()
        broken = tmp_path / "broken.ftek"
        for cut in range(len(blob)):
            assert load_outcome(broken, blob[:cut]) is CorruptFileError, cut
        for offset in range(len(blob)):
            for mask in (0xFF, 0x80, 0x01):
                mutated = bytearray(blob)
                mutated[offset] ^= mask
                expected = reference_outcome(bytes(mutated))
                assert load_outcome(broken, bytes(mutated)) == expected, (offset, mask)


class TestSearch:
    def test_empty_inputs(self, rng):
        index = build_from(random_corpus(rng, 5, 4), 4)
        assert search(index, {}, 10) == []
        assert search(index, {1: 1.0}, 0) == []

    def test_unseen_terms_give_no_hits(self, rng):
        index = build_from([("a", {1: 2.0})], 4)
        assert search(index, {3: 5.0}, 10) == []

    def test_hand_ranked_example(self):
        rows = [
            ("low", {1: 1.0}),
            ("high", {1: 4.0}),
            ("mid", {1: 2.0, 2: 1.0}),
        ]
        index = build_from(rows, 4)
        hits = search(index, {1: 1.0}, 3)
        assert [h.docid for h in hits] == ["high", "mid", "low"]

    def test_tie_breaks_by_ordinal(self):
        rows = [("second", {1: 3.0}), ("first", {1: 3.0})]
        index = build_from(rows, 4)
        hits = search(index, {1: 1.0}, 2)
        assert [h.docid for h in hits] == ["second", "first"]
        assert hits[0].ordinal == 0 and hits[1].ordinal == 1

    def test_float_value_is_scaled_integer(self, rng):
        index = build_from(random_corpus(rng, 10, 6), 6)
        query = {0: 1.5, 3: 0.5}
        qstep = quantization_step(1.5)
        for hit in search(index, query, 5):
            assert hit.value == pytest.approx(hit.score * qstep * index.scale)

    def test_k_larger_than_matches(self):
        index = build_from([("a", {1: 1.0}), ("b", {2: 1.0})], 4)
        hits = search(index, {1: 1.0}, 50)
        assert len(hits) == 1

    def test_top_k_is_prefix_of_larger_k(self, rng):
        index = build_from(random_corpus(rng, 40, 8), 8)
        query = {t: float(rng.uniform(0.5, 2.0)) for t in range(8)}
        top5 = [(h.docid, h.score) for h in search(index, query, 5)]
        top20 = [(h.docid, h.score) for h in search(index, query, 20)]
        assert top20[:5] == top5

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_brute_force_on_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        docs = int(rng.integers(5, 60))
        terms = int(rng.integers(3, 15))
        index = build_from(
            random_corpus(rng, docs, terms, density=float(rng.uniform(0.1, 0.7))),
            terms,
        )
        for _ in range(8):
            n_query_terms = int(rng.integers(1, terms + 1))
            picks = rng.choice(terms, size=n_query_terms, replace=False)
            query = {int(t): float(rng.uniform(0.0, 3.0)) for t in picks}
            for k in (1, 3, 10, docs + 5):
                got = [(h.docid, h.score, h.value) for h in search(index, query, k)]
                want = brute_force(index, query, k)
                assert [(d, s) for d, s, _ in got] == [(d, s) for d, s, _ in want]
                for (_, _, gv), (_, _, wv) in zip(got, want):
                    assert gv == pytest.approx(wv, rel=1e-12)

    # Few weight levels make tied scores common.  Documents use terms 0..4,
    # so term 5 has no postings and terms 6..9 lie outside the vocabulary.
    @given(
        docs=st.lists(
            st.dictionaries(
                st.integers(0, 4), st.sampled_from(TIED_LEVELS), max_size=5
            ),
            min_size=1,
            max_size=12,
        ),
        query=st.dictionaries(
            st.integers(0, 9), st.sampled_from(TIED_LEVELS), min_size=1, max_size=5
        ),
    )
    @example(docs=[{1: 2.0, 3: 0.5}], query={1: 1.0, 5: 2.0, 8: 3.0})
    @example(docs=[{0: 1.0}, {0: 1.0}, {0: 1.0, 2: 0.5}], query={0: 0.0, 2: 0.0})
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_with_ties_and_edge_cases(self, docs, query):
        index = build_from([(f"doc{d}", weights) for d, weights in enumerate(docs)], 6)
        hits = len(brute_force(index, query, index.doc_count))
        for k in (1, hits, hits + 3):
            got = [(h.docid, h.score, h.value) for h in search(index, query, k)]
            want = brute_force(index, query, k)
            assert [(d, s) for d, s, _ in got] == [(d, s) for d, s, _ in want]
            for (_, _, gv), (_, _, wv) in zip(got, want):
                assert gv == pytest.approx(wv, rel=1e-12)

    def test_matches_brute_force_at_index_scale(self):
        # Thousands of candidates per query, and so few weight levels that
        # many documents share the k-th score: the top k is cut inside a tie.
        rng = np.random.default_rng(7)
        vocab_size, k = 400, 10
        index = build_from(zipf_corpus(rng, 2000, vocab_size, TIED_LEVELS), vocab_size)
        cut_inside_a_tie = 0
        for _ in range(12):
            query = {
                int(t): float(rng.choice(TIED_LEVELS[1:]))
                for t in zipf_terms(rng, vocab_size, 8)
            }
            ranked = brute_force(index, query, index.doc_count)
            assert len(ranked) > 50 * k
            scores = [score for _, score, _ in ranked]
            cut_inside_a_tie += scores[k - 1] == scores[k]
            for top in (1, k, 100):
                got = [(h.docid, h.score, h.value) for h in search(index, query, top)]
                assert [(d, s) for d, s, _ in got] == [(d, s) for d, s, _ in ranked[:top]]
                for (_, _, gv), (_, _, wv) in zip(got, ranked):
                    assert gv == pytest.approx(wv, rel=1e-12)
        assert cut_inside_a_tie >= 6

    # Rows as a caller may hand them to `build`: a term may repeat, and the
    # weight list may be one shorter or one longer than the term list.
    @given(
        rows=st.lists(
            st.lists(st.integers(0, 5), max_size=4).flatmap(
                lambda terms: st.tuples(
                    st.just(terms),
                    st.lists(
                        st.sampled_from(TIED_LEVELS),
                        min_size=max(0, len(terms) - 1),
                        max_size=len(terms) + 1,
                    ),
                )
            ),
            min_size=1,
            max_size=8,
        )
    )
    @example(rows=[([5, 6], [1.0]), ([7], [2.0, 0.5])])
    @example(rows=[([5, 5], [1.0, 2.0])])
    @example(rows=[([5, 5], [1.0, 0.0])])
    @settings(max_examples=200, deadline=None)
    def test_build_names_a_bad_row_or_matches_brute_force(self, tmp_path_factory, rows):
        rows = [(f"doc{d}", terms, weights) for d, (terms, weights) in enumerate(rows)]
        bad = {
            docid
            for docid, terms, weights in rows
            if len(terms) != len(weights) or len(set(terms)) < len(terms)
        }
        try:
            index = InvertedIndex.build(rows, 8)
        except (ValueError, DataFormatError) as exc:
            named = re.match(r"docid '(doc\d+)'", str(exc))
            assert named and named[1] in bad, exc
            return
        path = tmp_path_factory.mktemp("rows") / "idx.ftek"
        index.save(path)
        loaded = InvertedIndex.load(path)
        for name in ("offsets", "ordinals", "impacts"):
            assert np.array_equal(getattr(loaded, name), getattr(index, name))
        queries = [{t: 1.0} for t in range(8)] + [{t: 1.0 + t for t in range(8)}]
        for query in queries:
            got = [(h.docid, h.score) for h in search(loaded, query, len(rows))]
            assert got == rows_brute_force(rows, query)

    @pytest.mark.parametrize("stray", [-1, 4, 2**70])
    def test_out_of_vocabulary_terms_are_skipped_but_set_the_query_step(self, stray):
        index = build_from([("a", {1: 2.0}), ("b", {1: 1.0, 3: 2.0})], 4)
        assert search(index, {stray: 2.0}, 10) == []
        # The stray weight 2.0 sets the query step 2/255: term 1 at 1.0 is
        # impact 128, not the 255 it has alone.
        hits = search(index, {1: 1.0, stray: 2.0}, 10)
        assert [(h.docid, h.score) for h in hits] == [("a", 255 * 128), ("b", 128 * 128)]
        assert hits[0].value == 255 * 128 * quantization_step(2.0) * index.scale

    def test_integer_scores_are_exact_sums(self):
        rows = [("a", {1: 2.0, 2: 1.0}), ("b", {1: 1.0})]
        index = build_from(rows, 4)
        # scale = 2/255; impacts: a:{1:255, 2:128}, b:{1:128}
        hits = search(index, {1: 1.0, 2: 1.0}, 2)
        # query step = 1/255 -> both query impacts 255.
        assert hits[0].docid == "a"
        assert hits[0].score == 255 * 255 + 255 * 128
        assert hits[1].score == 255 * 128
