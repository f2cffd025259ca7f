"""`errors.open_text`, the one way the package reads a text file: UTF-8,
a leading byte-order mark skipped, decoding errors named by file and line."""

import codecs

import pytest

from fectek.cli import _iter_weight_stream, _read_tsv_pairs
from fectek.errors import open_text
from fectek.evaluation import load_qrels, load_run
from fectek.tokenizer import Vocabulary
from fectek.trainer import load_triples


def read_vocabulary(path):
    vocab = Vocabulary.load(path)
    return vocab.min_freq, vocab._id_to_token


def read_weights(path):
    return [(docid, terms, list(weights)) for docid, terms, weights in _iter_weight_stream(path)]


# Each text reader, with a valid input and what it reads from it in a form
# that compares by value.
READERS = {
    "corpus": ("d0\tAlpha beta\nd1\tgamma\n", lambda path: _read_tsv_pairs(path, "corpus")),
    "queries": ("q0\talpha\nq1\tgamma beta\n", lambda path: _read_tsv_pairs(path, "queries")),
    "qrels": ("q0 0 d0 1\nq1 0 d1 1\n", load_qrels),
    "run": ("q0 Q0 d0 1 2.5 fectek\nq0 Q0 d1 2 1.0 fectek\n", load_run),
    "vocabulary": ("#fectek-vocab v1 min_freq=1\nalpha\nbeta\n", read_vocabulary),
    "triples": (
        '{"query": "alpha", "positive": "beta", "negatives": ["gamma"]}\n',
        load_triples,
    ),
    "weights": ('{"docid": "d0", "weights": {"4": 1.5, "5": 0.25}}\n', read_weights),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_leading_bom_reads_as_the_plain_file(tmp_path, reader):
    content, read = READERS[reader]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(content.encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + content.encode("utf-8"))
    assert read(marked) == read(plain)


def test_decoding_error_of_a_clean_file_propagates_unchanged(tmp_path):
    path = tmp_path / "clean.txt"
    path.write_bytes(b"plain text\n")
    raised = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
    with pytest.raises(UnicodeDecodeError) as caught:
        with open_text(path) as fh:
            fh.read()
            raise raised
    assert caught.value is raised
