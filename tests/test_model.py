"""Term weighting, feature gating, guidance labels, losses, persistence."""

import math
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fectek.autograd as ag
import per_text_reference as ref
from conftest import float64_model
from fectek.autograd import Tensor
from fectek.checkpoint import load_tensors, save_tensors
from fectek.encoder import EncoderConfig, dense
from fectek.errors import CorruptFileError, ShapeError
from fectek.model import (
    INIT_STD,
    EncodedTriple,
    TermWeights,
    batch_loss,
    feature_gates,
    indicator_labels,
    init_parameters,
    load_model,
    match_score,
    new_model,
    parameter_shapes,
    save_model,
    scorable_mask,
)
from fectek.tokenizer import CLS_ID, PAD_ID, SEP_ID, UNK_ID


ENCODER_FIELDS = (
    "dim", "layers", "heads", "ffn_multiplier", "max_query_len", "max_passage_len"
)


@pytest.fixture
def tiny_model(tiny_vocab, tiny_config):
    """Float64, for the exact loss values and finite differences below."""
    return float64_model(len(tiny_vocab), tiny_config, seed=5)


def gate_params(dim, rng):
    """The gate entries of a width-`dim` model, drawn next from `rng`."""
    shapes = parameter_shapes(5, EncoderConfig(dim=dim, heads=1))
    gate = {name: s for name, s in shapes.items() if name.startswith("feature_gate.")}
    return init_parameters(gate, rng)


def make_triple(vocab, config, query, positive, negatives):
    return EncodedTriple(
        query_ids=vocab.encode(query, config.max_query_len),
        positive_ids=vocab.encode(positive, config.max_passage_len),
        negative_ids=[vocab.encode(n, config.max_passage_len) for n in negatives],
    )


class TestScorableMask:
    def test_specials_excluded(self):
        ids = np.array([CLS_ID, 7, UNK_ID, 9, SEP_ID, PAD_ID])
        assert scorable_mask(ids).tolist() == [False, True, False, True, False, False]


class TestIndicatorLabels:
    def test_shared_terms_labeled_on_both_sides(self):
        q = [CLS_ID, 10, 11, SEP_ID]
        p = [CLS_ID, 11, 12, 13, SEP_ID]
        q_labels, p_labels = indicator_labels(q, p)
        assert q_labels.labels.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert p_labels.labels.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]

    def test_masks_cover_only_scorable_positions(self):
        q = [CLS_ID, 10, SEP_ID]
        p = [CLS_ID, 10, PAD_ID, SEP_ID]
        q_labels, p_labels = indicator_labels(q, p)
        assert q_labels.mask.tolist() == [False, True, False]
        assert p_labels.mask.tolist() == [False, True, False, False]

    def test_shared_unk_not_treated_as_overlap(self):
        q = [CLS_ID, UNK_ID, 10, SEP_ID]
        p = [CLS_ID, UNK_ID, 11, SEP_ID]
        q_labels, p_labels = indicator_labels(q, p)
        assert q_labels.labels.sum() == 0.0
        assert p_labels.labels.sum() == 0.0

    def test_symmetric_on_shared_vocabulary(self):
        q = [CLS_ID, 5, 6, 7, SEP_ID]
        p = [CLS_ID, 7, 5, 9, SEP_ID]
        q_labels, p_labels = indicator_labels(q, p)
        shared = {5, 7}
        for ids, labels in ((q, q_labels), (p, p_labels)):
            for pos, term in enumerate(ids):
                if labels.mask[pos]:
                    assert labels.labels[pos] == float(term in shared)


def one_text(ids, weights):
    """TermWeights of one text from hand-set position weights."""
    return TermWeights.from_positions(np.array([ids]), weights)


class TestTermWeightVector:
    """`TermWeights.from_positions`: how a text's positions collapse into terms."""

    def test_max_aggregation_keeps_largest_occurrence(self):
        ids = [CLS_ID, 8, 9, 8, SEP_ID]
        weights = Tensor(np.array([[5.0, 1.0, 2.0, 3.0, 5.0]]), requires_grad=True)
        vec = one_text(ids, weights)
        assert vec.as_dict()[8] == 3.0
        assert vec.as_dict()[9] == 2.0

    def test_max_gradient_routes_to_argmax_only(self):
        ids = [CLS_ID, 8, 8, SEP_ID]
        weights = Tensor(np.array([[0.0, 1.0, 4.0, 0.0]]), requires_grad=True)
        vec = one_text(ids, weights)
        ref.reduce_sum(vec.weights).backward()
        assert weights.grad.tolist() == [[0.0, 0.0, 1.0, 0.0]]

    def test_max_tie_picks_first_position(self):
        ids = [CLS_ID, 8, 8, SEP_ID]
        weights = Tensor(np.array([[0.0, 2.0, 2.0, 0.0]]), requires_grad=True)
        vec = one_text(ids, weights)
        ref.reduce_sum(vec.weights).backward()
        assert weights.grad.tolist() == [[0.0, 1.0, 0.0, 0.0]]

    def test_specials_never_become_terms(self):
        ids = [CLS_ID, 8, SEP_ID, PAD_ID]
        vec = one_text(ids, Tensor(np.ones((1, 4))))
        assert vec.terms.tolist() == [8]

    def test_empty_text_yields_empty_vector(self):
        vec = one_text([CLS_ID, SEP_ID], Tensor(np.zeros((1, 2))))
        assert vec.terms.size == 0
        assert vec.as_dict() == {}

    def test_as_dict_drops_exact_zeros(self):
        ids = [CLS_ID, 8, 9, SEP_ID]
        vec = one_text(ids, Tensor(np.array([[0.0, 0.0, 1.5, 0.0]])))
        assert vec.as_dict() == {9: 1.5}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            one_text([CLS_ID, 8, SEP_ID], Tensor(np.zeros((1, 2))))
        with pytest.raises(ShapeError):
            TermWeights.from_positions(np.array([CLS_ID, 8, SEP_ID]), Tensor(np.zeros(3)))

    def test_rows_of_a_batch_and_shared_columns(self):
        ids = np.array([[CLS_ID, 8, 9, SEP_ID], [CLS_ID, 9, 9, SEP_ID]])
        weights = Tensor(np.array([[0.0, 1.0, 2.0, 0.0], [0.0, 3.0, 0.5, 0.0]]))
        vec = TermWeights.from_positions(ids, weights, terms=np.array([5, 8, 9]))
        assert vec.weights.data.tolist() == [[0.0, 1.0, 2.0], [0.0, 0.0, 3.0]]
        assert vec.rows() == [{8: 1.0, 9: 2.0}, {9: 3.0}]


def on_terms(terms, *rows):
    return TermWeights(np.array(terms), Tensor(np.array(rows, dtype=float)))


class TestMatchScore:
    def test_disjoint_terms_score_zero(self):
        a = on_terms([1, 2, 3, 4], [1.0, 2.0, 0.0, 0.0])
        b = on_terms([1, 2, 3, 4], [0.0, 0.0, 1.0, 2.0])
        assert match_score(a, b).data.tolist() == [[0.0]]

    def test_hand_example(self):
        a = on_terms([4, 5, 9, 11], [1.0, 2.0, 3.0, 0.0])
        b = on_terms([4, 5, 9, 11], [0.0, 10.0, 0.5, 7.0], [1.0, 0.0, 0.0, 1.0])
        # 2*10 + 3*0.5, and 1*1 against the second passage.
        assert match_score(a, b).data.tolist() == [[21.5, 1.0]]

    @given(
        st.dictionaries(st.integers(4, 30), st.floats(0, 3), max_size=12),
        st.dictionaries(st.integers(4, 30), st.floats(0, 3), max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_dense_dot_product(self, qmap, pmap):
        # Columns are the union of both texts' terms; the score equals the
        # sparse sum over the shared ones.
        terms = sorted(set(qmap) | set(pmap))
        a = on_terms(terms, [qmap.get(t, 0.0) for t in terms])
        b = on_terms(terms, [pmap.get(t, 0.0) for t in terms])
        sparse = sum(qmap[t] * pmap[t] for t in set(qmap) & set(pmap))
        assert match_score(a, b).data.shape == (1, 1)
        assert match_score(a, b).data[0, 0] == pytest.approx(sparse, abs=1e-12)

    def test_gradient_flows_to_both_sides(self):
        a = on_terms([5, 6], [1.0, 2.0])
        b = on_terms([5, 6], [3.0, 4.0])
        a.weights.requires_grad = b.weights.requires_grad = True
        ref.reduce_sum(match_score(a, b)).backward()
        assert a.weights.grad.tolist() == [[3.0, 4.0]]
        assert b.weights.grad.tolist() == [[1.0, 2.0]]

    def test_different_columns_rejected(self):
        with pytest.raises(ShapeError):
            match_score(on_terms([5, 6], [1.0, 2.0]), on_terms([5, 7], [1.0, 2.0]))


class TestFeatureGate:
    def test_gate_values_strictly_inside_unit_interval(self, rng):
        params = gate_params(16, rng)
        hidden = Tensor(rng.normal(size=(1, 5, 16)))
        mask = np.array([[True] * 4 + [False]])
        g = feature_gates(params, hidden, mask)
        assert np.all(g.data > 0.0) and np.all(g.data < 1.0)

    def test_same_gate_for_every_position(self, tiny_model, tiny_vocab, tiny_config):
        # One gate vector per text, broadcast over its rows before the head.
        model = tiny_model
        batch = model.encoder.forward(
            [tiny_vocab.encode(text, 16) for text in ("quick brown fox", "lazy dog")]
        )
        g = feature_gates(model.params, batch.hidden, batch.real_mask)
        assert g.data.shape == (2, 1, tiny_config.dim)
        raw = dense(model.params, "weight_head", Tensor(batch.hidden.data * g.data))
        expected = TermWeights.from_positions(batch.token_ids, ag.log1p(ag.relu(raw)))
        got = model.term_weights(batch)
        np.testing.assert_array_equal(got.weights.data, expected.weights.data)

    def test_pad_rows_do_not_influence_gate(self, rng):
        params = gate_params(16, rng)
        base = rng.normal(size=(1, 5, 16))
        mask = np.array([[True, True, True, False, False]])
        loud = base.copy()
        loud[0, 3:] = 1e6
        g_quiet = feature_gates(params, Tensor(base), mask)
        g_loud = feature_gates(params, Tensor(loud), mask)
        np.testing.assert_array_equal(g_quiet.data, g_loud.data)

    def test_each_text_gets_its_own_gate(self, rng):
        params = gate_params(16, rng)
        hidden = rng.normal(size=(2, 4, 16))
        mask = np.array([[True] * 4, [True, True, False, False]])
        both = feature_gates(params, Tensor(hidden), mask).data
        for b in range(2):
            alone = feature_gates(params, Tensor(hidden[b : b + 1]), mask[b : b + 1]).data
            np.testing.assert_array_equal(both[b], alone[0])

    def test_saturated_excite_bias_passes_hidden_through(self, rng):
        params = gate_params(16, rng)
        params["feature_gate.excite.bias"].data[:] = 1e3
        hidden = Tensor(rng.normal(size=(1, 4, 16)))
        gated = ag.mul(hidden, feature_gates(params, hidden, np.ones((1, 4), dtype=bool)))
        np.testing.assert_allclose(gated.data, hidden.data, rtol=1e-12)

    def test_bottleneck_width(self, rng):
        for dim, bottleneck in ((16, 1), (64, 4), (15, 1)):
            params = gate_params(dim, rng)
            assert params["feature_gate.squeeze.weight"].data.shape == (dim, bottleneck)
            assert params["feature_gate.excite.weight"].data.shape == (bottleneck, dim)
            hidden = Tensor(rng.normal(size=(2, 3, dim)))
            gates = feature_gates(params, hidden, np.ones((2, 3), dtype=bool))
            assert gates.data.shape == (2, 1, dim)

    def test_all_pad_rejected(self, rng):
        params = gate_params(16, rng)
        mask = np.array([[True, True, True], [False, False, False]])
        with pytest.raises(ShapeError):
            feature_gates(params, Tensor(rng.normal(size=(2, 3, 16))), mask)

    def test_width_mismatch_rejected(self, rng):
        params = gate_params(16, rng)
        with pytest.raises(ShapeError):
            feature_gates(params, Tensor(rng.normal(size=(1, 3, 8))), np.ones((1, 3), dtype=bool))
        with pytest.raises(ShapeError):
            feature_gates(params, Tensor(rng.normal(size=(3, 16))), np.ones((1, 3), dtype=bool))


class TestTermWeights:
    def test_weights_are_nonnegative(self, tiny_model, tiny_vocab):
        seq = tiny_model.encode_ids(tiny_vocab.encode("quick brown fox jumps", 16))
        vec = tiny_model.term_weights(seq)
        assert np.all(vec.weights.data >= 0.0)

    def test_zero_head_gives_zero_weights(self, tiny_model, tiny_vocab):
        tiny_model.params["weight_head.weight"].data[:] = 0.0
        seq = tiny_model.encode_ids(tiny_vocab.encode("quick brown fox", 16))
        vec = tiny_model.term_weights(seq)
        assert np.all(vec.weights.data == 0.0)

    def test_bias_maps_through_log1p_relu(self, tiny_model, tiny_vocab):
        # With a zero weight vector the pre-activation is exactly the bias:
        # e-1 lands on weight ln(1+(e-1)) = 1, a negative bias lands on 0.
        tiny_model.params["weight_head.weight"].data[:] = 0.0
        seq = tiny_model.encode_ids(tiny_vocab.encode("quick brown fox", 16))
        tiny_model.params["weight_head.bias"].data = np.asarray(math.e - 1.0)
        vec = tiny_model.term_weights(seq)
        np.testing.assert_allclose(vec.weights.data, 1.0, rtol=1e-12)
        tiny_model.params["weight_head.bias"].data = np.asarray(-0.5)
        vec = tiny_model.term_weights(seq)
        assert np.all(vec.weights.data == 0.0)

    def test_unit_weights_make_score_count_shared_terms(
        self, tiny_model, tiny_vocab, tiny_config
    ):
        tiny_model.params["weight_head.weight"].data[:] = 0.0
        tiny_model.params["weight_head.bias"].data = np.asarray(math.e - 1.0)
        q_ids = tiny_vocab.encode("quick brown fox", 16)
        p_ids = tiny_vocab.encode("the quick dog jumps over the fox", 24)
        terms = np.unique([t for t in q_ids + p_ids if t not in (CLS_ID, SEP_ID)])
        score = match_score(
            tiny_model.term_weights(tiny_model.encode_ids(q_ids), terms),
            tiny_model.term_weights(tiny_model.encode_ids(p_ids), terms),
        )
        assert score.data[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_gate_disabled_reads_raw_hidden(self, tiny_vocab, tiny_config):
        gated = new_model(len(tiny_vocab), tiny_config, seed=5)
        plain = new_model(
            len(tiny_vocab), tiny_config, use_feature_gate=False, seed=5
        )
        ids = tiny_vocab.encode("pack my box with five dozen jugs", 24)
        w_gated = gated.term_weights(gated.encode_ids(ids))
        w_plain = plain.term_weights(plain.encode_ids(ids))
        # Same seed, same encoder; the gate shrinks every pre-activation, so
        # the two heads disagree somewhere.
        assert w_gated.terms.tolist() == w_plain.terms.tolist()
        assert not np.array_equal(w_gated.weights.data, w_plain.weights.data)


class TestTermProbabilities:
    def test_zero_head_gives_exactly_half(self, tiny_model, tiny_vocab):
        tiny_model.params["prob_head.weight"].data[:] = 0.0
        seq = tiny_model.encode_ids(tiny_vocab.encode("quick brown fox", 16))
        probs = tiny_model.term_probabilities(seq)
        np.testing.assert_array_equal(probs.data, 0.5)

    def test_probabilities_strictly_inside_unit_interval(
        self, tiny_model, tiny_vocab
    ):
        seq = tiny_model.encode_ids(tiny_vocab.encode("sphinx of black quartz", 16))
        probs = tiny_model.term_probabilities(seq)
        assert np.all(probs.data > 0.0) and np.all(probs.data < 1.0)

    def test_prob_head_gradient_matches_fd(self, tiny_model, tiny_vocab):
        ids = tiny_vocab.encode("judge my vow", 16)
        labels_q, labels_p = indicator_labels([ids], [ids])

        def term_loss():
            probs = tiny_model.term_probabilities(tiny_model.encode_ids(ids))
            return ag.add(
                ag.binary_cross_entropy(probs, labels_q.labels, labels_q.mask),
                ag.binary_cross_entropy(probs, labels_p.labels, labels_p.mask),
            )

        def loss_value():
            with ag.no_grad():
                return term_loss().item()

        term_loss().backward()
        grad = tiny_model.params["prob_head.weight"].grad.copy()

        eps = 1e-5
        flat = tiny_model.params["prob_head.weight"].data
        worst = 0.0
        for c in range(flat.size):
            original = flat[c]
            flat[c] = original + eps
            upper = loss_value()
            flat[c] = original - eps
            lower = loss_value()
            flat[c] = original
            numeric = (upper - lower) / (2 * eps)
            worst = max(
                worst, abs(grad[c] - numeric) / max(1.0, abs(grad[c]), abs(numeric))
            )
        assert worst <= 1e-5, f"prob head gradient error {worst:.3e}"


class TestLosses:
    def test_zero_weights_give_uniform_text_loss(
        self, tiny_model, tiny_vocab, tiny_config
    ):
        tiny_model.params["weight_head.weight"].data[:] = 0.0
        triple = make_triple(
            tiny_vocab,
            tiny_config,
            "quick fox",
            "the quick brown fox jumps",
            ["pack my box with jugs", "sphinx of black quartz", "daft zebras jump"],
        )
        _, metrics = batch_loss(tiny_model, [triple], enable_term=False)
        assert metrics["text_loss"] == pytest.approx(math.log(4), abs=1e-9)

    def test_bce_at_half_per_masked_position(self, tiny_model, tiny_vocab, tiny_config):
        tiny_model.params["prob_head.weight"].data[:] = 0.0
        triple = make_triple(tiny_vocab, tiny_config, "quick fox", "lazy dog", [])
        _, metrics = batch_loss(tiny_model, [triple])
        # Both sides contribute ln 2 each at probability one half.
        assert metrics["term_loss"] == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_loss_decreases_as_predictions_approach_labels(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 2, 9).astype(float)
        mask = np.ones(9, dtype=bool)
        losses = []
        for t in np.linspace(0.0, 0.9, 7):
            probs = Tensor(0.5 + t * (labels - 0.5))
            losses.append(
                ag.binary_cross_entropy(probs, labels, mask).item()
            )
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_term_branch_off_matches_text_only(
        self, tiny_model, tiny_vocab, tiny_config
    ):
        triple = make_triple(
            tiny_vocab, tiny_config, "quick fox", "quick brown fox", ["lazy dog"]
        )
        total, metrics = batch_loss(tiny_model, [triple], enable_term=False)
        assert metrics["term_loss"] == 0.0
        assert total.item() == pytest.approx(metrics["text_loss"], abs=1e-12)

    def test_no_negatives_give_zero_text_loss(self, tiny_model, tiny_vocab, tiny_config):
        triple = make_triple(tiny_vocab, tiny_config, "quick fox", "quick brown fox", [])
        other = make_triple(tiny_vocab, tiny_config, "lazy dog", "the lazy dog", ["fox"])
        # A query scores only its own candidates, never the batch's others.
        _, metrics = batch_loss(tiny_model, [triple, other], enable_term=False)
        _, alone = batch_loss(tiny_model, [other], enable_term=False)
        assert metrics["text_loss"] == pytest.approx(alone["text_loss"] / 2, abs=1e-12)

    def test_empty_batch_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="empty batch"):
            batch_loss(tiny_model, [])

    def test_batch_loss_averages_over_triples(
        self, tiny_model, tiny_vocab, tiny_config
    ):
        t1 = make_triple(tiny_vocab, tiny_config, "quick fox", "quick brown fox", ["dog"])
        t2 = make_triple(tiny_vocab, tiny_config, "lazy dog", "the lazy dog", ["fox"])
        total_1, _ = batch_loss(tiny_model, [t1])
        total_2, _ = batch_loss(tiny_model, [t2])
        both, metrics = batch_loss(tiny_model, [t1, t2])
        assert both.item() == pytest.approx(
            (total_1.item() + total_2.item()) / 2, abs=1e-12
        )
        assert set(metrics) == {"total_loss", "text_loss", "term_loss"}

    def test_gradient_reaches_all_groups_through_joint_loss(
        self, tiny_vocab, tiny_config
    ):
        model = new_model(len(tiny_vocab), tiny_config, seed=5)
        # Generic operating point: lift the weight head bias so shared terms
        # carry nonzero weights and the match-score branch has gradient.
        model.params["weight_head.bias"].data = np.asarray(0.2)
        triple = make_triple(
            tiny_vocab,
            tiny_config,
            "quick brown fox",
            "the quick brown fox jumps over the lazy dog",
            ["pack my box with five dozen liquor jugs"],
        )
        total, _ = batch_loss(model, [triple])
        total.backward()
        for name, p in model.params.items():
            assert p.grad is not None and np.any(p.grad != 0.0), name


class TestInitialisation:
    def test_seed_pins_every_parameter_in_documented_order(self, tiny_vocab, tmp_path):
        # Rebuilt from the generator alone: two models of one seed agree with
        # each other even after a reordered draw, this reference does not.
        config = EncoderConfig(
            dim=16, layers=2, heads=2, ffn_multiplier=2, max_query_len=8, max_passage_len=12
        )
        model = new_model(len(tiny_vocab), config, seed=7)
        rng = np.random.default_rng(7)
        d, hidden, bottleneck = 16, 32, 1
        zeros, ones = np.zeros, np.ones

        def draw(*shape):
            return rng.normal(0.0, INIT_STD, size=shape)

        expected = {
            "embeddings.token": draw(len(tiny_vocab), d),
            "embeddings.position": draw(12, d),
            "embeddings.norm.gain": ones(d),
            "embeddings.norm.bias": zeros(d),
        }
        for i in range(2):
            for part in ("query", "key", "value", "output"):
                expected[f"layers.{i}.attn.{part}.weight"] = draw(d, d)
                expected[f"layers.{i}.attn.{part}.bias"] = zeros(d)
            expected[f"layers.{i}.norm1.gain"] = ones(d)
            expected[f"layers.{i}.norm1.bias"] = zeros(d)
            expected[f"layers.{i}.ffn.expand.weight"] = draw(d, hidden)
            expected[f"layers.{i}.ffn.expand.bias"] = zeros(hidden)
            expected[f"layers.{i}.ffn.contract.weight"] = draw(hidden, d)
            expected[f"layers.{i}.ffn.contract.bias"] = zeros(d)
            expected[f"layers.{i}.norm2.gain"] = ones(d)
            expected[f"layers.{i}.norm2.bias"] = zeros(d)
        expected["feature_gate.squeeze.weight"] = draw(d, bottleneck)
        expected["feature_gate.squeeze.bias"] = zeros(bottleneck)
        expected["feature_gate.excite.weight"] = draw(bottleneck, d)
        expected["feature_gate.excite.bias"] = zeros(d)
        expected["weight_head.weight"] = draw(d)
        expected["weight_head.bias"] = zeros(())
        expected["prob_head.weight"] = draw(d)
        expected["prob_head.bias"] = zeros(())

        params = model.params
        assert list(params) == list(expected)
        for name, p in params.items():
            assert p.requires_grad, name
            # The float64 draws, rounded to float32 once.
            assert p.data.dtype == np.float32 and p.data.shape == expected[name].shape, name
            assert p.data.tobytes() == expected[name].astype(np.float32).tobytes(), name
        path = tmp_path / "model.ftck"
        save_model(model, path)
        stored = [name for name in load_tensors(path) if not name.startswith("config.")]
        assert stored == list(params)

    def test_vocabulary_of_reserved_ids_only_rejected(self, tiny_config):
        # Ids 0-3 are reserved, so a model needs at least one more.
        with pytest.raises(ValueError, match="must cover the reserved ids, got 4"):
            new_model(4, tiny_config)


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tiny_vocab, tiny_config, tmp_path):
        model = new_model(len(tiny_vocab), tiny_config, seed=9)
        path = tmp_path / "model.ftck"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab_size == model.vocab_size
        assert loaded.use_feature_gate is True
        assert loaded.config == model.config
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name

    def test_double_save_identical_bytes(self, tiny_vocab, tiny_config, tmp_path):
        model = new_model(len(tiny_vocab), tiny_config, seed=9)
        a = tmp_path / "a.ftck"
        b = tmp_path / "b.ftck"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_config_entries_lead_in_format_order(self, tiny_vocab, tiny_config, tmp_path):
        # Format v2 pins this order; it follows the EncoderConfig field order.
        path = tmp_path / "model.ftck"
        save_model(new_model(len(tiny_vocab), tiny_config, seed=9), path)
        assert list(load_tensors(path))[:9] == [
            "config.vocab_size",
            "config.dim",
            "config.layers",
            "config.heads",
            "config.ffn_multiplier",
            "config.max_query_len",
            "config.max_passage_len",
            "config.use_feature_gate",
            "embeddings.token",
        ]

    @pytest.mark.parametrize(
        "name, value",
        # One value just past each end of each encoder bound, then non-integers,
        # then a head count that does not divide the width.
        [
            ("dim", 0), ("dim", 4097), ("layers", 0), ("layers", 65),
            ("heads", 0), ("heads", 257), ("ffn_multiplier", 0), ("ffn_multiplier", 33),
            ("max_query_len", 2), ("max_query_len", 65_537),
            ("max_passage_len", 2), ("max_passage_len", 65_537),
        ]
        + [(name, value) for name in ENCODER_FIELDS for value in (2.5, math.nan)]
        + [("layers", math.inf), ("heads", 3)],
    )
    def test_bad_stored_encoder_field_rejected(
        self, tiny_vocab, tiny_config, tmp_path, name, value
    ):
        path = tmp_path / "model.ftck"
        save_model(new_model(len(tiny_vocab), tiny_config, seed=9), path)
        entries = load_tensors(path)
        entries[f"config.{name}"] = np.float64(value)
        save_tensors(path, entries)
        with pytest.raises(CorruptFileError, match=name):
            load_model(path)

    def test_gate_flag_round_trips(self, tiny_vocab, tiny_config, tmp_path):
        model = new_model(
            len(tiny_vocab), tiny_config, use_feature_gate=False, seed=9
        )
        path = tmp_path / "model.ftck"
        save_model(model, path)
        assert load_model(path).use_feature_gate is False

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(
        self, tiny_vocab, tiny_config, tmp_path, value
    ):
        model = new_model(len(tiny_vocab), tiny_config, seed=9)
        model.params["embeddings.token"].data[5, 1] = value
        path = tmp_path / "model.ftck"
        save_model(model, path)
        with pytest.raises(CorruptFileError, match="'embeddings.token' is not finite"):
            load_model(path)

    def test_value_past_float32_range_rejected(self, tiny_vocab, tiny_config, tmp_path):
        # A parameter entry must be float32, so it cannot hold a value past
        # float32's range: the largest float32 loads, a float64 entry does not.
        largest = np.finfo(np.float32).max
        model = new_model(len(tiny_vocab), tiny_config, seed=9)
        path = tmp_path / "model.ftck"
        model.params["embeddings.token"].data[5, 1] = largest
        save_model(model, path)
        assert load_model(path).params["embeddings.token"].data[5, 1] == largest
        entries = load_tensors(path)
        entries["embeddings.token"] = entries["embeddings.token"].astype(np.float64)
        entries["embeddings.token"][5, 1] = -np.nextafter(np.float64(largest), np.inf)
        save_tensors(path, entries)
        message = "parameter 'embeddings.token' is float64, not float32"
        with pytest.raises(CorruptFileError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "damage, entry",
        [
            ("fewer-layers-in-config", "layers.1.attn.query.weight"),
            ("extra-tensor", "junk"),
            ("unknown-config", "config.temperature"),
            ("removed-aggregation", "config.aggregation"),  # version 1 stored `max` as 0
        ],
    )
    def test_entry_the_config_does_not_name_rejected(
        self, tiny_vocab, tiny_config, tmp_path, damage, entry
    ):
        path = tmp_path / "model.ftck"
        save_model(new_model(len(tiny_vocab), tiny_config, seed=9), path)
        entries = load_tensors(path)
        if damage == "fewer-layers-in-config":
            assert entries["config.layers"] == 2.0
            entries["config.layers"] = np.float64(1.0)
        elif damage == "extra-tensor":
            entries[entry] = np.zeros(3)
        else:
            entries[entry] = np.float64(1.0)
        save_tensors(path, entries)
        with pytest.raises(CorruptFileError, match=re.escape(f"unexpected checkpoint entry '{entry}'")):
            load_model(path)

    def test_small_file_claiming_a_large_model_allocates_nothing(self, tmp_path):
        # Four layers of width 256 would come to about 25 MiB of weights; the
        # file holds only the config and the two embedding tables, 26 KiB.
        config = EncoderConfig(
            dim=256, layers=4, heads=1, ffn_multiplier=4, max_query_len=4, max_passage_len=8
        )
        scalars = {"vocab_size": 5, **asdict(config), "use_feature_gate": 1}
        entries = {f"config.{name}": np.float64(value) for name, value in scalars.items()}
        entries["embeddings.token"] = np.zeros((5, 256), np.float32)
        entries["embeddings.position"] = np.zeros((8, 256), np.float32)
        path = tmp_path / "model.ftck"
        save_tensors(path, entries)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFileError, match="missing parameter 'embeddings.norm.gain'"):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_save_allocates_no_whole_file_buffer(self, tmp_path):
        """At BERT's vocabulary size a save allocates at most its largest
        entry plus 1 MiB above the parameters: no buffer of the whole file."""
        config = EncoderConfig(dim=64, layers=1, heads=2, ffn_multiplier=2)
        model = new_model(30_522, config, seed=1)
        largest = max(p.data.nbytes for p in model.params.values())
        path = tmp_path / "model.ftck"
        tracemalloc.start()
        try:
            save_model(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > largest
        assert peak <= largest + 2**20, f"peak {peak / 2**20:.1f} MiB"
        # Float32 payloads are written from the arrays themselves.
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_load_peaks_near_the_file_at_bert_vocabulary(self, tmp_path):
        """The file is read once into one buffer, and every parameter is an
        aligned, writable view of it: no entry is copied."""
        config = EncoderConfig(dim=64, layers=1, heads=2, ffn_multiplier=2)
        path = tmp_path / "model.ftck"
        save_model(new_model(30_522, config, seed=1), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            model = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size, f"peak {peak} for a {size}-byte file"
        buffers = set()
        for name, p in model.params.items():
            assert p.data.dtype == np.float32 and p.data.ctypes.data % 8 == 0, name
            assert p.data.flags.writeable and not p.data.flags.owndata, name
            base = p.data
            while isinstance(base, np.ndarray):
                base = base.base
            buffers.add(id(base.obj))  # the memoryview's bytearray
        assert len(buffers) == 1

    def test_load_draws_no_random_numbers(self, tiny_vocab, tiny_config, tmp_path, monkeypatch):
        model = new_model(len(tiny_vocab), tiny_config, seed=9)
        path = tmp_path / "model.ftck"
        save_model(model, path)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_model made a random generator")

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", no_generator)
            loaded = load_model(path)
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes(), name

    def test_truncated_file_rejected(self, tiny_vocab, tiny_config, tmp_path):
        model = new_model(len(tiny_vocab), tiny_config, seed=9)
        path = tmp_path / "model.ftck"
        save_model(model, path)
        clipped = tmp_path / "clipped.ftck"
        clipped.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CorruptFileError):
            load_model(clipped)

    def test_bad_magic_rejected(self, tiny_vocab, tiny_config, tmp_path):
        model = new_model(len(tiny_vocab), tiny_config, seed=9)
        path = tmp_path / "model.ftck"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        bad = tmp_path / "bad.ftck"
        bad.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError, match="magic"):
            load_model(bad)
