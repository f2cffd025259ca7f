"""Fuzzed text inputs: every file parser returns, or raises a FecTekError that
names the file it read."""

import codecs
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fectek.cli import _iter_weight_stream, _read_tsv_pairs
from fectek.errors import FecTekError
from fectek.evaluation import load_qrels, load_run
from fectek.tokenizer import Vocabulary
from fectek.trainer import load_triples

PARSERS = {
    "tsv": lambda path: _read_tsv_pairs(path, "corpus"),
    "weights": lambda path: list(_iter_weight_stream(path)),
    "triples": load_triples,
    "qrels": load_qrels,
    "run": load_run,
    "vocab": Vocabulary.load,
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
term_keys = (
    st.integers(-2, 40).map(str)
    | st.sampled_from(["07", " 8", "1_0", "+7", "-0", "9" * 5000])
    | st.text(max_size=3)
)
weight_rows = st.fixed_dictionaries(
    {
        "docid": st.text(max_size=4) | json_values,
        "weights": st.dictionaries(
            term_keys, st.floats() | st.integers() | json_values, max_size=4
        )
        | json_values,
    }
)
triple_rows = st.fixed_dictionaries(
    {"query": st.text(max_size=6) | json_values},
    optional={
        "positive": st.text(max_size=6) | json_values,
        "negatives": st.lists(st.text(max_size=4), max_size=3) | json_values,
    },
)
# Rows a little off the shape each parser reads: JSON objects, whitespace- or
# tab-separated fields, vocabulary headers and tokens, and free text.
lines = st.one_of(
    (weight_rows | triple_rows | json_values).map(json.dumps),
    st.builds(
        str.join,
        st.sampled_from([" ", "\t", " Q0 "]),
        st.lists(st.text(max_size=5) | st.integers().map(str), max_size=7),
    ),
    st.sampled_from(["alpha", "beta", "[PAD]", "", "alpha\x0c", "Beta"]),
    st.text(max_size=8),
)
documents = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda bom, header, rows, newline, tail: (
            bom + (header + newline.join(rows)).encode() + tail
        ),
        st.sampled_from([b"", codecs.BOM_UTF8]),
        st.sampled_from(
            [
                "",
                "#fectek-vocab v1 min_freq=1\n",
                "#fectek-vocab v1 min_freq=\u0663\n",
                f"#fectek-vocab v1 min_freq={'9' * 5000}\n",
            ]
        ),
        st.lists(lines, max_size=6),
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.just(b"") | st.binary(max_size=3),
    ),
)


@pytest.mark.parametrize("parser", sorted(PARSERS))
@given(content=documents)
@settings(max_examples=100, deadline=None)
def test_parser_returns_or_names_the_file(tmp_path_factory, parser, content):
    path = tmp_path_factory.getbasetemp() / f"fuzz-{parser}.txt"
    path.write_bytes(content)
    try:
        PARSERS[parser](path)
    except FecTekError as exc:
        assert str(path) in str(exc), str(exc)
