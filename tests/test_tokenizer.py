"""Tokenizer and vocabulary behavior, including the on-disk format."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fectek import tokenizer
from fectek.errors import DataFormatError
from fectek.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Vocabulary,
    tokenize,
    vocabulary_coverage,
)


class TestTokenize:
    def test_hyphens_split(self):
        assert tokenize("state-of-the-art") == ["state", "of", "the", "art"]

    def test_punctuation_dropped_and_lowercased(self):
        assert tokenize("Apple Pie!") == ["apple", "pie"]

    def test_digits_kept(self):
        assert tokenize("top 10 results") == ["top", "10", "results"]

    def test_underscore_is_a_separator(self):
        assert tokenize("snake_case_name") == ["snake", "case", "name"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("!!! ... ???") == []

    def test_unicode_words_survive(self):
        assert tokenize("café naïve") == ["café", "naïve"]


class TestVocabulary:
    def test_reserved_ids_are_stable(self):
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)
        vocab = Vocabulary.build(["alpha beta"])
        assert vocab.lookup("[PAD]") == PAD_ID
        assert vocab.lookup("[UNK]") == UNK_ID
        assert vocab.lookup("[CLS]") == CLS_ID
        assert vocab.lookup("[SEP]") == SEP_ID

    def test_build_orders_by_count_then_token(self):
        vocab = Vocabulary.build(["b b a a c", "a"])
        # a: 3, b: 2, c: 1; ids start after the 4 reserved entries.
        assert vocab.lookup("a") == 4
        assert vocab.lookup("b") == 5
        assert vocab.lookup("c") == 6

    def test_ties_break_alphabetically(self):
        vocab = Vocabulary.build(["zebra apple zebra apple"])
        assert vocab.lookup("apple") == 4
        assert vocab.lookup("zebra") == 5

    def test_min_freq_filters(self):
        vocab = Vocabulary.build(["a a a b b c"], min_freq=2)
        assert vocab.lookup("a") != UNK_ID
        assert vocab.lookup("b") != UNK_ID
        assert vocab.lookup("c") == UNK_ID

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary.build(["alpha"])
        assert vocab.lookup("missing") == UNK_ID

    @pytest.mark.parametrize(
        "tokens",
        [["[PAD]"], ["Alpha"], ["a b"], [""], ["a_b"]],
        ids=["reserved", "uppercase", "space", "empty", "underscore"],
    )
    def test_reserved_token_in_text_rejected(self, tokens):
        # Direct construction is as strict as loading: each token must be
        # a lowercase alphanumeric run, which no reserved token is.
        with pytest.raises(DataFormatError):
            Vocabulary(tokens, min_freq=1)

    def test_duplicate_token_rejected(self):
        with pytest.raises(DataFormatError):
            Vocabulary(["alpha", "alpha"], min_freq=1)

    @pytest.mark.parametrize(
        "make",
        [lambda: Vocabulary(["alpha"], min_freq=-1), lambda: Vocabulary.build(["a"], -1)],
        ids=["init", "build"],
    )
    def test_negative_min_freq_rejected(self, make):
        # `save` writes the header that `load` reads, which has no sign.
        with pytest.raises(ValueError, match="min_freq cannot be negative, got -1"):
            make()

    def test_len_counts_reserved(self):
        vocab = Vocabulary.build(["a b c"])
        assert len(vocab) == 4 + 3


class TestEncode:
    def test_wraps_with_cls_and_sep(self, tiny_vocab):
        ids = tiny_vocab.encode("quick brown fox", max_len=16)
        assert ids[0] == CLS_ID
        assert ids[-1] == SEP_ID
        assert len(ids) == 5
        assert all(i not in (PAD_ID, UNK_ID) for i in ids[1:-1])

    def test_truncates_to_max_len(self, tiny_vocab):
        ids = tiny_vocab.encode("the quick brown fox jumps over the lazy dog", 6)
        assert len(ids) == 6
        assert ids[0] == CLS_ID and ids[-1] == SEP_ID

    def test_unknown_words_become_unk(self, tiny_vocab):
        ids = tiny_vocab.encode("quick zzzzz", 16)
        assert ids[2] == UNK_ID

    def test_empty_text_is_cls_sep(self, tiny_vocab):
        assert tiny_vocab.encode("", 16) == [CLS_ID, SEP_ID]

    def test_max_len_below_three_rejected(self, tiny_vocab):
        with pytest.raises(ValueError):
            tiny_vocab.encode("quick", 2)


class TestPersistence:
    def test_round_trip(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        tiny_vocab.save(path)
        loaded = Vocabulary.load(path)
        assert len(loaded) == len(tiny_vocab)
        assert loaded.min_freq == tiny_vocab.min_freq
        for token in ("quick", "fox", "sphinx"):
            assert loaded.lookup(token) == tiny_vocab.lookup(token)

    def test_header_records_min_freq(self, tmp_path):
        vocab = Vocabulary.build(["a a b"], min_freq=2)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        first = path.read_text().splitlines()[0]
        assert first == "#fectek-vocab v1 min_freq=2"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("alpha\nbeta\n")
        with pytest.raises(DataFormatError):
            Vocabulary.load(path)

    def test_mangled_header_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#fectek-vocab v2 min_freq=1\nalpha\n")
        with pytest.raises(DataFormatError):
            Vocabulary.load(path)

    @pytest.mark.parametrize(
        "min_freq",
        [
            pytest.param("\u0663", id="arabic-indic-three"),
            pytest.param("9" * 5000, id="past-int-digit-limit"),
        ],
    )
    def test_unparsable_min_freq_rejected(self, tmp_path, min_freq):
        path = tmp_path / "vocab.txt"
        path.write_text(f"#fectek-vocab v1 min_freq={min_freq}\nalpha\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: bad vocabulary header")):
            Vocabulary.load(path)

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#fectek-vocab v1 min_freq=1\nalpha\n\nbeta\n")
        with pytest.raises(DataFormatError):
            Vocabulary.load(path)

    def test_duplicate_line_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#fectek-vocab v1 min_freq=1\nalpha\nalpha\n")
        with pytest.raises(DataFormatError, match=r":3: duplicate token 'alpha'"):
            Vocabulary.load(path)

    def test_reserved_line_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#fectek-vocab v1 min_freq=1\nalpha\n[UNK]\n")
        with pytest.raises(DataFormatError, match=r":3: reserved token '\[UNK\]'"):
            Vocabulary.load(path)

    @pytest.mark.parametrize(
        "line", ["alpha\x0c", "alpha\u2028beta", "al pha", "Alpha", "al_pha", "[pad]"]
    )
    def test_line_that_is_not_a_token_rejected(self, tmp_path, line):
        # Lines end only at a newline, as when iterating the file, so a form
        # feed or U+2028 stays inside its line and the next line is line 3.
        path = tmp_path / "vocab.txt"
        path.write_bytes(f"#fectek-vocab v1 min_freq=1\n{line}\nbeta\n".encode())
        with pytest.raises(DataFormatError, match=":2: .* is not one lowercase alphanumeric token"):
            Vocabulary.load(path)

    @given(text=st.text())
    @example(text="Ünïcode straße 42 über ΣΑΣ x2y")
    @settings(max_examples=200, deadline=None)
    def test_any_tokenizer_output_loads(self, tmp_path_factory, text):
        vocab = Vocabulary.build([text])
        path = tmp_path_factory.getbasetemp() / "any-text-vocab.txt"
        vocab.save(path)
        if not tokenize(text):  # a vocabulary must hold a token to load
            with pytest.raises(DataFormatError, match=": vocabulary holds no token$"):
                Vocabulary.load(path)
            return
        loaded = Vocabulary.load(path)
        assert len(loaded) == len(vocab)
        tokens = tokenize(text)
        assert [loaded.lookup(t) for t in tokens] == [vocab.lookup(t) for t in tokens]

    def test_constructor_error_stands_if_no_line_is_named(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        path.write_text("#fectek-vocab v1 min_freq=1\nAlpha\n", encoding="utf-8")
        monkeypatch.setattr(tokenizer, "_raise_first_bad_line", lambda path, tokens: None)
        with pytest.raises(DataFormatError, match="lowercase alphanumeric runs"):
            Vocabulary.load(path)


class TestCoverage:
    def test_full_coverage_on_training_texts(self):
        texts = ["alpha beta gamma", "beta gamma delta"]
        vocab = Vocabulary.build(texts)
        assert vocabulary_coverage(vocab, texts) == 1.0

    def test_partial_coverage(self):
        vocab = Vocabulary.build(["alpha beta"])
        assert vocabulary_coverage(vocab, ["alpha omega"]) == pytest.approx(0.5)


@given(
    st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_encode_ids_always_in_range(words):
    text = " ".join(words)
    vocab = Vocabulary.build([text])
    ids = vocab.encode(text, max_len=24)
    assert len(ids) <= 24
    assert all(0 <= i < len(vocab) for i in ids)
    round_trip = Vocabulary.build([text])
    assert [round_trip.lookup(w) for w in tokenize(text)] == [
        vocab.lookup(w) for w in tokenize(text)
    ]
