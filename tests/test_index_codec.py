"""The varint codec against the mask-per-round code it replaced
(`index_codec_reference`): the same bytes, the same decoded values and the
same errors, and no Python work that grows with the postings in `save` or
`load`."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import index_codec_reference as reference
from fectek.errors import CorruptFileError
from fectek.index import InvertedIndex, _decode_varints, _encode_varints

EDGES = [0, 127, 128, 2**14, 2**63 - 1]


@st.composite
def varint_values(draw):
    """A value of 1 to 9 bytes: width first, so each width is drawn alike."""
    width = draw(st.integers(1, 9))
    low = 0 if width == 1 else 1 << 7 * (width - 1)
    return draw(st.integers(low, min((1 << 7 * width) - 1, 2**63 - 1)))


VALUES = st.lists(st.sampled_from(EDGES) | varint_values(), max_size=40).map(
    lambda values: np.array(values, dtype=np.int64)
)


def decode_outcome(decode, buf, count):
    """(values, bytes used) as lists, or the message of the error raised."""
    try:
        values, used = decode(buf, count)
    except CorruptFileError as exc:
        return str(exc)
    assert values.dtype == np.int64
    return values.tolist(), used


def assert_decoders_agree(buf, count):
    expected = decode_outcome(reference._decode_varints, buf, count)
    assert decode_outcome(_decode_varints, buf, count) == expected


@given(VALUES)
@example(np.array([], dtype=np.int64))
@example(np.array(EDGES, dtype=np.int64))
@settings(max_examples=300, deadline=None)
def test_encode_writes_the_reference_bytes(values):
    assert _encode_varints(values).tobytes() == reference._encode_varints(values).tobytes()


@given(VALUES, st.data())
@settings(max_examples=300, deadline=None)
def test_decode_whole_cut_and_padded_buffers(values, data):
    encoded = reference._encode_varints(values)
    assert_decoders_agree(encoded, len(values))
    cut = data.draw(st.integers(0, len(encoded)), label="cut")
    assert_decoders_agree(encoded[:cut], len(values))  # fewer ends than values
    trailing = np.frombuffer(data.draw(st.binary(max_size=12), label="trailing"), np.uint8)
    assert_decoders_agree(np.concatenate([encoded, trailing]), len(values))


@given(st.binary(max_size=64), st.integers(0, 70))
@example(b"\xff" * 9 + b"\x01", 1)  # a 10-byte varint: "varint longer than 64 bits"
@example(b"\x05" + b"\x80" * 9 + b"\x00", 2)  # the second one 10 bytes long
@settings(max_examples=300, deadline=None)
def test_decode_any_bytes_as_the_reference_does(blob, count):
    assert_decoders_agree(np.frombuffer(blob, np.uint8), count)


def test_no_python_work_per_posting(tmp_path, python_events):
    """Two indexes over the same 52 terms and 200 documents, with 1,202 or
    10,202 postings.  Every stored gap, ordinal and docid length is one
    byte, except term 50's second gap (199) in both, and term 51, in every
    document, has a two-byte posting count in both, so the codec runs the
    same byte rounds; the call counts differ only if some call runs per
    posting."""
    docs, vocab_size = 200, 52
    sparse = {0: [50], docs - 1: [50]}
    narrow = [[(5 * i + j) % 50 for j in range(5)] + sparse.get(i, []) + [51] for i in range(docs)]
    wide = [list(range(50)) + sparse.get(i, []) + [51] for i in range(docs)]
    counts = []
    for name, rows in (("narrow", narrow), ("wide", wide)):
        stream = ((f"d{i:03d}", terms, [1 + t / 64 for t in terms]) for i, terms in enumerate(rows))
        index = InvertedIndex.build(stream, vocab_size)
        path = tmp_path / f"{name}.ftek"

        def save_load():
            index.save(path)
            InvertedIndex.load(path)

        counts.append((len(index.ordinals), python_events(save_load)))
    (few_postings, few), (many_postings, many) = counts
    assert (few_postings, many_postings) == (1_202, 10_202)
    assert abs(many - few) <= 10, (few, many)
