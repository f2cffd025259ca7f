"""Quantization, varint codec, index persistence, and exact top-k search."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fectek.errors import CorruptFileError, DataFormatError
from fectek.index import (
    LEVELS,
    MAGIC,
    VERSION,
    InvertedIndex,
    dequantize,
    quantization_step,
    quantize_value,
    quantize_weights,
    read_varint,
    search,
    write_varint,
)

HEADER = struct.Struct("<4sIQQd")


def brute_force(index, query_weights, k):
    """Dense reference ranking: same quantization, same tie rule."""
    if k <= 0 or not query_weights:
        return []
    qstep = quantization_step(max(query_weights.values(), default=0.0))
    qimp = quantize_weights(query_weights, qstep)
    scores = np.zeros(index.doc_count, dtype=np.int64)
    for term, qi in qimp.items():
        entry = index.postings.get(term)
        if entry is None:
            continue
        ordinals, impacts = entry
        scores[ordinals] += qi * impacts
    ranked = sorted(
        (ordinal for ordinal in range(index.doc_count) if scores[ordinal] > 0),
        key=lambda o: (-scores[o], o),
    )
    return [
        (index.docids[o], int(scores[o]), int(scores[o]) * qstep * index.scale)
        for o in ranked[:k]
    ]


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
    return InvertedIndex.build(lambda: iter(rows), vocab_size)


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
        assert abs(dequantize(impact, step) - weight) <= step / 2 + 1e-12


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, value):
        buf = bytearray()
        write_varint(buf, value)
        decoded, pos = read_varint(bytes(buf), 0)
        assert decoded == value
        assert pos == len(buf)

    def test_single_byte_values(self):
        for value in (0, 1, 127):
            buf = bytearray()
            write_varint(buf, value)
            assert len(buf) == 1

    def test_multi_byte_boundary(self):
        buf = bytearray()
        write_varint(buf, 128)
        assert bytes(buf) == b"\x80\x01"

    def test_truncated_raises(self):
        with pytest.raises(CorruptFileError, match="truncated"):
            read_varint(b"\x80", 0)

    def test_end_bound_respected(self):
        buf = bytearray()
        write_varint(buf, 300)
        with pytest.raises(CorruptFileError, match="truncated"):
            read_varint(bytes(buf) + b"\x01", 0, end=1)

    def test_overlong_rejected(self):
        with pytest.raises(CorruptFileError):
            read_varint(b"\xff" * 10 + b"\x01", 0)


class TestBuild:
    def test_postings_sorted_by_ordinal_with_impacts(self):
        rows = [
            ("a", {2: 4.0}),
            ("b", {2: 2.0, 3: 1.0}),
            ("c", {3: 4.0}),
        ]
        index = build_from(rows, 8)
        assert index.doc_count == 3
        ords, imps = index.postings[2]
        assert ords.tolist() == [0, 1]
        assert imps.tolist() == [255, 128]
        assert index.docids == ["a", "b", "c"]

    def test_zero_weights_produce_no_postings(self):
        index = build_from([("a", {2: 0.0}), ("b", {})], 8)
        assert index.postings == {}
        assert index.scale == 1.0
        assert index.doc_count == 2

    def test_duplicate_docid_named(self):
        rows = [("dup", {2: 1.0}), ("dup", {3: 1.0})]
        with pytest.raises(DataFormatError, match="'dup'"):
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
    def test_round_trip(self, tmp_path, rng):
        rows = random_corpus(rng, docs=20, terms=12)
        index = build_from(rows, 12)
        path = tmp_path / "idx.ftek"
        index.save(path)
        loaded = InvertedIndex.load(path)
        assert loaded.vocab_size == index.vocab_size
        assert loaded.scale == index.scale
        assert loaded.docids == index.docids
        assert set(loaded.postings) == set(index.postings)
        for term, (ords, imps) in index.postings.items():
            l_ords, l_imps = loaded.postings[term]
            assert np.array_equal(l_ords, ords), term
            assert np.array_equal(l_imps, imps), term

    def test_save_bytes_deterministic(self, tmp_path, rng):
        rows = random_corpus(rng, docs=10, terms=8)
        index = build_from(rows, 8)
        p1, p2 = tmp_path / "a.ftek", tmp_path / "b.ftek"
        index.save(p1)
        build_from(rows, 8).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

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

    def test_nonzero_first_offset(self, tmp_path, saved):
        _, blob = saved
        blob[32:40] = struct.pack("<Q", 3)
        with pytest.raises(CorruptFileError, match="start at 0"):
            self.reload(tmp_path, blob)

    def test_non_monotone_offsets_name_term(self, tmp_path, saved):
        _, blob = saved
        big = struct.unpack_from("<Q", blob, 32 + 5 * 8)[0]
        blob[32 + 8 : 32 + 16] = struct.pack("<Q", big)
        blob[32 + 16 : 32 + 24] = struct.pack("<Q", 0)
        with pytest.raises(CorruptFileError, match="non-monotone offset at term"):
            self.reload(tmp_path, blob)

    def test_truncated_postings_names_term(self, tmp_path, saved):
        path, blob = saved
        index = InvertedIndex.load(path)
        region_start = 32 + (index.vocab_size + 1) * 8
        with pytest.raises(CorruptFileError, match="truncated inside term"):
            self.reload(tmp_path, blob[: region_start + 1])

    def test_truncated_header(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(CorruptFileError, match="header"):
            self.reload(tmp_path, blob[:10])

    def test_truncated_offset_table(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(CorruptFileError, match="offset table"):
            self.reload(tmp_path, blob[:40])

    def test_truncated_docid_table(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(CorruptFileError, match="docid table"):
            self.reload(tmp_path, blob[:-3])

    def test_trailing_bytes(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(CorruptFileError, match="trailing"):
            self.reload(tmp_path, blob + b"\x00\x00")

    def test_zero_impact_rejected(self, tmp_path):
        # Hand-assembled: one term, one posting with impact 0.
        vocab_size, doc_count = 1, 1
        region = bytes([0x00, 0x00])  # ordinal 0, impact 0
        blob = bytearray()
        blob += HEADER.pack(MAGIC, VERSION, vocab_size, doc_count, 1.0)
        blob += struct.pack("<QQ", 0, len(region))
        blob += region
        blob += bytes([1]) + b"a"
        with pytest.raises(CorruptFileError, match="zero impact"):
            self.reload(tmp_path, blob)

    def test_zero_gap_rejected(self, tmp_path):
        # Two postings on the same ordinal (gap 0 after the first).
        vocab_size, doc_count = 1, 2
        region = bytes([0x00, 0x05, 0x00, 0x04])
        blob = bytearray()
        blob += HEADER.pack(MAGIC, VERSION, vocab_size, doc_count, 1.0)
        blob += struct.pack("<QQ", 0, len(region))
        blob += region
        blob += bytes([1]) + b"a" + bytes([1]) + b"b"
        with pytest.raises(CorruptFileError, match="strictly increasing"):
            self.reload(tmp_path, blob)

    def test_ordinal_beyond_doc_count_rejected(self, tmp_path):
        vocab_size, doc_count = 1, 1
        region = bytes([0x02, 0x05])  # ordinal 2 with only 1 doc
        blob = bytearray()
        blob += HEADER.pack(MAGIC, VERSION, vocab_size, doc_count, 1.0)
        blob += struct.pack("<QQ", 0, len(region))
        blob += region
        blob += bytes([1]) + b"a"
        with pytest.raises(CorruptFileError, match="beyond doc count"):
            self.reload(tmp_path, blob)

    def test_missing_impact_byte_rejected(self, tmp_path):
        vocab_size, doc_count = 1, 1
        region = bytes([0x00])  # ordinal varint, impact missing
        blob = bytearray()
        blob += HEADER.pack(MAGIC, VERSION, vocab_size, doc_count, 1.0)
        blob += struct.pack("<QQ", 0, len(region))
        blob += region
        blob += bytes([1]) + b"a"
        with pytest.raises(CorruptFileError, match="missing impact"):
            self.reload(tmp_path, blob)

    def test_duplicate_docid_rejected(self, tmp_path):
        vocab_size, doc_count = 1, 2
        blob = bytearray()
        blob += HEADER.pack(MAGIC, VERSION, vocab_size, doc_count, 1.0)
        blob += struct.pack("<QQ", 0, 0)
        blob += bytes([1]) + b"a" + bytes([1]) + b"a"
        with pytest.raises(CorruptFileError, match="duplicate docid"):
            self.reload(tmp_path, blob)


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

    def test_integer_scores_are_exact_sums(self):
        rows = [("a", {1: 2.0, 2: 1.0}), ("b", {1: 1.0})]
        index = build_from(rows, 4)
        # scale = 2/255; impacts: a:{1:255, 2:128}, b:{1:128}
        hits = search(index, {1: 1.0, 2: 1.0}, 2)
        # query step = 1/255 -> both query impacts 255.
        assert hits[0].docid == "a"
        assert hits[0].score == 255 * 255 + 255 * 128
        assert hits[1].score == 255 * 128
