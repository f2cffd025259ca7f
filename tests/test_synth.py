"""Synthetic corpus generator: determinism and separability structure."""

import json

import pytest

from fectek.synth import MAX_TERMS, SynthConfig, generate, write_dataset
from fectek.tokenizer import tokenize

SMALL = SynthConfig(passages=50, terms=60, queries=20, negatives=5, seed=13)


class TestConfigValidation:
    def test_more_queries_than_passages_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(passages=10, queries=11, terms=60, negatives=2)

    def test_tiny_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(passages=100, queries=100, terms=30, negatives=5)

    def test_term_bound_is_the_pseudo_word_count(self):
        assert MAX_TERMS == 7225
        assert SynthConfig(terms=MAX_TERMS).terms == MAX_TERMS
        with pytest.raises(ValueError, match="terms"):
            SynthConfig(terms=MAX_TERMS + 1)

    def test_too_many_negatives_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(passages=10, queries=5, terms=60, negatives=10)


class TestGenerate:
    def test_counts(self):
        data = generate(SMALL)
        assert len(data.corpus) == 50
        assert len(data.queries) == 20
        assert len(data.qrels) == 20
        assert len(data.triples) == 20
        assert all(len(t["negatives"]) == 5 for t in data.triples)

    def test_deterministic_for_seed(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.corpus == b.corpus
        assert a.queries == b.queries
        assert a.triples == b.triples

    def test_seed_changes_output(self):
        a = generate(SMALL)
        b = generate(SynthConfig(passages=50, terms=60, queries=20, negatives=5, seed=14))
        assert a.corpus != b.corpus

    def test_qrels_point_at_matching_target(self):
        data = generate(SMALL)
        for i, (qid, docid) in enumerate(data.qrels):
            assert qid == f"q{i:03d}"
            assert docid == f"d{i:04d}"

    def test_distinctive_terms_unique_to_their_target(self):
        data = generate(SMALL)
        corpus_tokens = {docid: set(tokenize(text)) for docid, text in data.corpus}
        background = set()
        for docid, tokens in corpus_tokens.items():
            if int(docid[1:]) >= 20:
                background |= tokens
        for i, (qid, qtext) in enumerate(data.queries):
            target = f"d{i:04d}"
            distinctive = set(tokenize(qtext)) - background
            assert distinctive, qid
            assert distinctive <= corpus_tokens[target]
            for docid, tokens in corpus_tokens.items():
                if docid != target:
                    assert not (distinctive & tokens), (qid, docid)

    def test_query_mixes_in_background_noise(self):
        data = generate(SMALL)
        corpus_tokens = {docid: set(tokenize(text)) for docid, text in data.corpus}
        background = set()
        for docid, tokens in corpus_tokens.items():
            if int(docid[1:]) >= 20:
                background |= tokens
        noisy = sum(
            1 for _, qtext in data.queries if set(tokenize(qtext)) & background
        )
        # Every query carries one background term; almost all of those terms
        # also occur in some non-target passage.
        assert noisy >= len(data.queries) * 3 // 4

    def test_positive_is_target_text(self):
        data = generate(SMALL)
        corpus = dict(data.corpus)
        for i, triple in enumerate(data.triples):
            assert triple["positive"] == corpus[f"d{i:04d}"]
            assert corpus[f"d{i:04d}"] not in triple["negatives"]


class TestWriteDataset:
    def test_files_written_and_parse(self, tmp_path):
        paths = write_dataset(tmp_path, SMALL)
        assert set(paths) == {"corpus", "queries", "qrels", "triples"}
        corpus_lines = paths["corpus"].read_text().splitlines()
        assert len(corpus_lines) == 50
        assert all("\t" in line for line in corpus_lines)
        qrels_lines = paths["qrels"].read_text().splitlines()
        assert qrels_lines[0].split("\t") == ["q000", "0", "d0000", "1"]
        triple = json.loads(paths["triples"].read_text().splitlines()[0])
        assert set(triple) == {"query", "positive", "negatives"}

    def test_rewrite_is_byte_identical(self, tmp_path):
        a = write_dataset(tmp_path / "a", SMALL)
        b = write_dataset(tmp_path / "b", SMALL)
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()
