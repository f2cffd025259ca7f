"""The batched model path against the per-text reference it replaced.

Inference (equal-length chunks, never padded) must reproduce the reference
bit for bit, whatever else shares a chunk.  Training pads each role into one
batch, so its hidden states, weights, losses and gradients agree with the
reference to rounding and do not depend on the batch order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fectek.autograd as ag
import per_text_reference as ref
from conftest import float64_model
from fectek.autograd import Tensor
from fectek.encoder import EncoderConfig
from fectek.errors import ShapeError
from fectek.model import CHUNK_TEXTS, EncodedTriple, batch_loss, new_model
from fectek.tokenizer import CLS_ID, SEP_ID, UNK_ID

VOCAB = 24
CONFIG = EncoderConfig(
    dim=16, layers=2, heads=2, ffn_multiplier=2, max_query_len=10, max_passage_len=14
)


def lift(model):
    """Lift the weight head off its kink so most terms carry weight."""
    bias = model.params["weight_head.bias"]
    bias.data = np.asarray(0.3, dtype=bias.data.dtype)
    return model


def make_model(gate=True, seed=5, build=float64_model):
    return lift(build(VOCAB, CONFIG, use_feature_gate=gate, seed=seed))


def default_width_case(build=float64_model):
    """Default width and long texts with many repeats, as in a corpus."""
    model = lift(build(40, EncoderConfig(), seed=3))
    rng = np.random.default_rng(0)
    id_lists = [
        [CLS_ID, *rng.integers(4, 12, size=rng.integers(0, 120)).tolist(), SEP_ID]
        for _ in range(60)
    ]
    return model, id_lists + id_lists[:20]


# A text as the tokenizer makes it: [CLS], terms (a few repeated, an
# occasional [UNK]), [SEP].
terms = st.one_of(st.integers(4, VOCAB - 1), st.just(UNK_ID))


def texts(max_len):
    return st.lists(terms, min_size=0, max_size=max_len - 2).map(
        lambda body: [CLS_ID, *body, SEP_ID]
    )


triples = st.builds(
    EncodedTriple,
    texts(CONFIG.max_query_len),
    texts(CONFIG.max_passage_len),
    st.lists(texts(CONFIG.max_passage_len), max_size=3),
)


def reference_weights(model, ids):
    _, _, terms_, weights = ref.term_weights(model, ids)
    return ref.as_dict(terms_, weights)


def loss_and_grads(model, loss):
    loss.backward()
    grads = {name: p.grad for name, p in model.params.items()}
    model.zero_grad()
    return loss.item(), grads


def sum_tensors(tensors):
    total = tensors[0]
    for t in tensors[1:]:
        total = ag.add(total, t)
    return total


class TestInference:
    @given(
        st.lists(texts(CONFIG.max_passage_len), min_size=1, max_size=12),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_weights_bit_equal_to_reference_in_any_chunk(self, id_lists, gate, rnd):
        model = make_model(gate)
        with ag.no_grad():
            reference = [reference_weights(model, ids) for ids in id_lists]
            weights = model.weigh(id_lists)
            assert weights == reference
            # Another order and other chunk mates change no bit.
            order = list(range(len(id_lists)))
            rnd.shuffle(order)
            kept = order[: rnd.randint(1, len(order))]
            assert model.weigh([id_lists[i] for i in kept]) == [weights[i] for i in kept]
            # The one-text path is a chunk of one.
            first = model.term_weights(model.encode_ids(id_lists[0])).as_dict()
            assert first == weights[0]

    def test_max_weights_bit_equal_at_default_width(self):
        model, id_lists = default_width_case()
        with ag.no_grad():
            expected = [reference_weights(model, ids) for ids in id_lists]
        assert model.weigh(id_lists) == expected

    def test_max_weights_bit_equal_at_default_width_in_float32(self):
        # The inference commands weigh with float32 parameters, and an encode
        # of part of a corpus must reproduce its rows of the whole encoding.
        model, id_lists = default_width_case(new_model)
        with ag.no_grad():
            expected = [reference_weights(model, ids) for ids in id_lists]
        assert model.weigh(id_lists) == expected
        assert expected != default_width_case()[0].weigh(id_lists)  # not float64

    def test_float32_parameters_keep_every_op_in_float32(self, monkeypatch):
        dtypes = set()
        record = ag._record

        def spy(data, parents, backward, op):
            dtypes.add((op, np.asarray(data).dtype.name))
            return record(data, parents, backward, op)

        monkeypatch.setattr(ag, "_record", spy)
        id_lists = [[CLS_ID, *[4 + i % 9] * (i % 7), SEP_ID] for i in range(20)]
        for gate in (True, False):
            model = make_model(gate, build=new_model)
            model.weigh(id_lists)
            with ag.no_grad():  # a padded batch, as training runs it
                model.term_weights(model.encoder.forward(id_lists))
        assert {dtype for _, dtype in dtypes} == {"float32"}, sorted(dtypes)

    def test_more_equal_length_texts_than_one_chunk(self):
        model = make_model()
        rng = np.random.default_rng(3)
        id_lists = [
            [CLS_ID, *rng.integers(4, VOCAB, size=6).tolist(), SEP_ID]
            for _ in range(2 * CHUNK_TEXTS + 5)
        ]
        with ag.no_grad():
            expected = [reference_weights(model, ids) for ids in id_lists]
        assert model.weigh(id_lists) == expected

    def test_no_forward_pass_pads(self, monkeypatch):
        model = make_model()
        seen = []
        forward = model.encoder.forward

        def spy(batch):
            seen.append(sorted({len(ids) for ids in batch}))
            assert len(batch) <= CHUNK_TEXTS
            return forward(batch)

        monkeypatch.setattr(model.encoder, "forward", spy)
        id_lists = [[CLS_ID, *[4] * (i % 5), SEP_ID] for i in range(40)]
        model.weigh(id_lists)
        assert all(len(lengths) == 1 for lengths in seen)
        assert len(seen) == 5


class TestTraining:
    @given(
        st.lists(triples, min_size=1, max_size=4),
        st.booleans(),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_padded_batch_agrees_with_reference(self, batch, gate, enable_term, rnd):
        model = make_model(gate)
        queries = model.encoder.forward([t.query_ids for t in batch])
        padded = model.term_weights(queries)
        for row, t in enumerate(batch):
            _, hidden, ref_terms, ref_weights = ref.term_weights(model, t.query_ids)
            n = len(t.query_ids)
            np.testing.assert_allclose(
                queries.hidden.data[row, :n], hidden.data, rtol=0, atol=1e-12
            )
            dense = dict(zip(padded.terms.tolist(), padded.weights.data[row]))
            got = [dense[term] for term in ref_terms]
            np.testing.assert_allclose(got, ref_weights.data, rtol=0, atol=1e-12)

        loss, metrics = batch_loss(model, batch, enable_term=enable_term)
        parts = [ref.triple_loss(model, t, enable_term) for t in batch]
        expected = ag.mul(sum_tensors([p[0] for p in parts]), Tensor(1.0 / len(batch)))
        assert metrics["text_loss"] == pytest.approx(
            np.mean([p[1] for p in parts]), rel=0, abs=1e-12
        )
        assert metrics["term_loss"] == pytest.approx(
            np.mean([p[2] for p in parts]), rel=0, abs=1e-12
        )
        value, grads = loss_and_grads(model, loss)
        ref_value, ref_grads = loss_and_grads(model, expected)
        assert value == pytest.approx(ref_value, rel=0, abs=1e-12)
        for name, grad in grads.items():
            want = ref_grads[name]
            if want is None or grad is None:
                assert grad is None or not np.any(grad), name
                assert want is None or not np.any(want), name
                continue
            np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12, err_msg=name)

        # Batch order moves nothing but the rounding of the sums.
        order = list(range(len(batch)))
        rnd.shuffle(order)
        shuffled = model.encoder.forward([batch[i].query_ids for i in order])
        np.testing.assert_array_equal(shuffled.hidden.data, queries.hidden.data[order])
        again, _ = batch_loss(model, [batch[i] for i in order], enable_term=enable_term)
        assert again.item() == pytest.approx(value, rel=0, abs=1e-12)


class TestScatter:
    @given(
        st.integers(1, 3).flatmap(
            lambda rows: st.tuples(
                st.lists(
                    st.lists(st.integers(0, 3), min_size=5, max_size=5),
                    min_size=rows,
                    max_size=rows,
                ),
                st.lists(
                    st.lists(st.integers(-1, 2), min_size=5, max_size=5),
                    min_size=rows,
                    max_size=rows,
                ),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_max_tie_goes_to_lowest_position(self, case):
        # Values from {0..3} make ties common.
        values, columns = (np.asarray(x) for x in case)
        a = Tensor(values.astype(float), requires_grad=True)
        out = ag.scatter(a, columns, 3)
        ref.reduce_sum(out).backward()
        expected = np.zeros((len(values), 3))
        expected_grad = np.zeros(values.shape)
        for b, (row, cols) in enumerate(zip(values, columns)):
            for cell in set(cols.tolist()) - {-1}:
                positions = np.flatnonzero(cols == cell)
                best = positions[np.argmax(row[positions])]  # first maximum
                expected[b, cell] = row[best]
                expected_grad[b, best] = 1.0
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(a.grad, expected_grad)

    def test_rows_stay_apart(self):
        a = Tensor(np.array([[5.0, 1.0], [2.0, 7.0]]))
        out = ag.scatter(a, np.array([[0, 0], [0, 1]]), 2)
        np.testing.assert_array_equal(out.data, [[5.0, 0.0], [2.0, 7.0]])

    @pytest.mark.parametrize(
        "values, columns, width",
        [
            (np.zeros((2, 3)), np.zeros((2, 2), dtype=int), 1),
            (np.zeros(3), np.zeros(3, dtype=int), 1),
            (np.zeros((1, 2)), np.array([[0, 2]]), 2),
        ],
    )
    def test_bad_shapes_and_columns_rejected(self, values, columns, width):
        with pytest.raises(ShapeError):
            ag.scatter(Tensor(values), columns, width)


class TestGatherBackward:
    @given(
        st.lists(st.integers(0, 5), min_size=0, max_size=30),
        st.sampled_from([(), (3,), (2, 4)]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_add_at(self, indices, tail, seed):
        rng = np.random.default_rng(seed)
        table = Tensor(rng.normal(size=(6, *tail)), requires_grad=True)
        idx = np.asarray(indices, dtype=np.intp)
        probe = rng.normal(size=(len(indices), *tail))
        ref.reduce_sum(ag.mul(ag.gather(table, idx), Tensor(probe))).backward()
        expected = np.zeros_like(table.data)
        np.add.at(expected, idx, probe)
        # Segment sums may associate differently from np.add.at's running sum.
        np.testing.assert_allclose(table.grad, expected, rtol=0, atol=1e-14)
        if len(set(indices)) == len(indices):
            np.testing.assert_array_equal(table.grad, expected)
