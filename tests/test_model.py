"""Term weighting, feature gating, guidance labels, losses, persistence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fectek.autograd as ag
from fectek.autograd import Tensor
from fectek.checkpoint import load_tensors, save_tensors
from fectek.encoder import EncoderConfig
from fectek.errors import CorruptFileError, ShapeError
from fectek.model import (
    EncodedTriple,
    FeatureContextGate,
    FecTekModel,
    TermWeights,
    batch_loss,
    checkpoints_equal,
    indicator_labels,
    load_model,
    match_score,
    save_model,
    scorable_mask,
)
from fectek.tokenizer import CLS_ID, PAD_ID, SEP_ID, UNK_ID


ENCODER_FIELDS = (
    "dim", "layers", "heads", "ffn_multiplier", "max_query_len", "max_passage_len"
)


@pytest.fixture
def tiny_model(tiny_vocab, tiny_config):
    return FecTekModel(len(tiny_vocab), tiny_config, seed=5)


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


def one_text(ids, weights, aggregation):
    """TermWeights of one text from hand-set position weights."""
    return TermWeights.from_positions(np.array([ids]), weights, aggregation)


class TestTermWeightVector:
    """`TermWeights.from_positions`: how a text's positions collapse into terms."""

    def test_max_aggregation_keeps_largest_occurrence(self):
        ids = [CLS_ID, 8, 9, 8, SEP_ID]
        weights = Tensor(np.array([[5.0, 1.0, 2.0, 3.0, 5.0]]), requires_grad=True)
        vec = one_text(ids, weights, "max")
        assert vec.as_dict()[8] == 3.0
        assert vec.as_dict()[9] == 2.0

    def test_max_gradient_routes_to_argmax_only(self):
        ids = [CLS_ID, 8, 8, SEP_ID]
        weights = Tensor(np.array([[0.0, 1.0, 4.0, 0.0]]), requires_grad=True)
        vec = one_text(ids, weights, "max")
        ag.reduce_sum(vec.weights).backward()
        assert weights.grad.tolist() == [[0.0, 0.0, 1.0, 0.0]]

    def test_max_tie_picks_first_position(self):
        ids = [CLS_ID, 8, 8, SEP_ID]
        weights = Tensor(np.array([[0.0, 2.0, 2.0, 0.0]]), requires_grad=True)
        vec = one_text(ids, weights, "max")
        ag.reduce_sum(vec.weights).backward()
        assert weights.grad.tolist() == [[0.0, 1.0, 0.0, 0.0]]

    def test_sum_aggregation_adds_occurrences(self):
        ids = [CLS_ID, 8, 9, 8, SEP_ID]
        weights = Tensor(np.array([[5.0, 1.0, 2.0, 3.0, 5.0]]), requires_grad=True)
        vec = one_text(ids, weights, "sum")
        assert vec.as_dict()[8] == 4.0
        ag.reduce_sum(vec.weights).backward()
        assert weights.grad.tolist() == [[0.0, 1.0, 1.0, 1.0, 0.0]]

    def test_specials_never_become_terms(self):
        ids = [CLS_ID, 8, SEP_ID, PAD_ID]
        vec = one_text(ids, Tensor(np.ones((1, 4))), "max")
        assert vec.terms.tolist() == [8]

    def test_empty_text_yields_empty_vector(self):
        vec = one_text([CLS_ID, SEP_ID], Tensor(np.zeros((1, 2))), "max")
        assert vec.terms.size == 0
        assert vec.as_dict() == {}

    def test_as_dict_drops_exact_zeros(self):
        ids = [CLS_ID, 8, 9, SEP_ID]
        vec = one_text(ids, Tensor(np.array([[0.0, 0.0, 1.5, 0.0]])), "max")
        assert vec.as_dict() == {9: 1.5}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            one_text([CLS_ID, 8, SEP_ID], Tensor(np.zeros((1, 2))), "max")

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError):
            one_text([CLS_ID, SEP_ID], Tensor(np.zeros((1, 2))), "mean")

    def test_rows_of_a_batch_and_shared_columns(self):
        ids = np.array([[CLS_ID, 8, 9, SEP_ID], [CLS_ID, 9, 9, SEP_ID]])
        weights = Tensor(np.array([[0.0, 1.0, 2.0, 0.0], [0.0, 3.0, 0.5, 0.0]]))
        vec = TermWeights.from_positions(ids, weights, "max", terms=np.array([5, 8, 9]))
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
        ag.reduce_sum(match_score(a, b)).backward()
        assert a.weights.grad.tolist() == [[3.0, 4.0]]
        assert b.weights.grad.tolist() == [[1.0, 2.0]]

    def test_different_columns_rejected(self):
        with pytest.raises(ShapeError):
            match_score(on_terms([5, 6], [1.0, 2.0]), on_terms([5, 7], [1.0, 2.0]))


class TestFeatureGate:
    def test_gate_values_strictly_inside_unit_interval(self, rng):
        gate = FeatureContextGate(16, rng)
        hidden = Tensor(rng.normal(size=(1, 5, 16)))
        mask = np.array([[True] * 4 + [False]])
        g = gate.gate_vector(hidden, mask)
        assert np.all(g.data > 0.0) and np.all(g.data < 1.0)

    def test_same_gate_for_every_position(self, rng):
        gate = FeatureContextGate(16, rng)
        hidden = Tensor(rng.normal(size=(2, 6, 16)))
        mask = np.ones((2, 6), dtype=bool)
        g = gate.gate_vector(hidden, mask)
        gated = gate(hidden, mask)
        # One gate vector per text, broadcast over its rows.
        assert g.data.shape == (2, 1, 16)
        np.testing.assert_array_equal(gated.data, hidden.data * g.data)

    def test_pad_rows_do_not_influence_gate(self, rng):
        gate = FeatureContextGate(16, rng)
        base = rng.normal(size=(1, 5, 16))
        mask = np.array([[True, True, True, False, False]])
        loud = base.copy()
        loud[0, 3:] = 1e6
        g_quiet = gate.gate_vector(Tensor(base), mask)
        g_loud = gate.gate_vector(Tensor(loud), mask)
        np.testing.assert_array_equal(g_quiet.data, g_loud.data)

    def test_each_text_gets_its_own_gate(self, rng):
        gate = FeatureContextGate(16, rng)
        hidden = rng.normal(size=(2, 4, 16))
        mask = np.array([[True] * 4, [True, True, False, False]])
        both = gate.gate_vector(Tensor(hidden), mask).data
        for b in range(2):
            alone = gate.gate_vector(Tensor(hidden[b : b + 1]), mask[b : b + 1]).data
            np.testing.assert_array_equal(both[b], alone[0])

    def test_saturated_excite_bias_passes_hidden_through(self, rng):
        gate = FeatureContextGate(16, rng)
        gate.params["feature_gate.excite.bias"].data[:] = 1e3
        hidden = Tensor(rng.normal(size=(1, 4, 16)))
        gated = gate(hidden, np.ones((1, 4), dtype=bool))
        np.testing.assert_allclose(gated.data, hidden.data, rtol=1e-12)

    def test_bottleneck_width(self, rng):
        assert FeatureContextGate(16, rng).bottleneck == 1
        assert FeatureContextGate(64, rng).bottleneck == 4
        assert FeatureContextGate(15, rng).bottleneck == 1

    def test_all_pad_rejected(self, rng):
        gate = FeatureContextGate(16, rng)
        mask = np.array([[True, True, True], [False, False, False]])
        with pytest.raises(ShapeError):
            gate.gate_vector(Tensor(rng.normal(size=(2, 3, 16))), mask)

    def test_width_mismatch_rejected(self, rng):
        gate = FeatureContextGate(16, rng)
        with pytest.raises(ShapeError):
            gate.gate_vector(Tensor(rng.normal(size=(1, 3, 8))), np.ones((1, 3), dtype=bool))


class TestTermWeights:
    def test_weights_are_nonnegative(self, tiny_model, tiny_vocab):
        seq = tiny_model.encode_ids(tiny_vocab.encode("quick brown fox jumps", 16))
        vec = tiny_model.term_weights(seq)
        assert np.all(vec.weights.data >= 0.0)

    def test_zero_head_gives_zero_weights(self, tiny_model, tiny_vocab):
        tiny_model.weight_w.data[:] = 0.0
        seq = tiny_model.encode_ids(tiny_vocab.encode("quick brown fox", 16))
        vec = tiny_model.term_weights(seq)
        assert np.all(vec.weights.data == 0.0)

    def test_bias_maps_through_log1p_relu(self, tiny_model, tiny_vocab):
        # With a zero weight vector the pre-activation is exactly the bias:
        # e-1 lands on weight ln(1+(e-1)) = 1, a negative bias lands on 0.
        tiny_model.weight_w.data[:] = 0.0
        seq = tiny_model.encode_ids(tiny_vocab.encode("quick brown fox", 16))
        tiny_model.weight_b.data = np.asarray(math.e - 1.0)
        vec = tiny_model.term_weights(seq)
        np.testing.assert_allclose(vec.weights.data, 1.0, rtol=1e-12)
        tiny_model.weight_b.data = np.asarray(-0.5)
        vec = tiny_model.term_weights(seq)
        assert np.all(vec.weights.data == 0.0)

    def test_unit_weights_make_score_count_shared_terms(
        self, tiny_model, tiny_vocab, tiny_config
    ):
        tiny_model.weight_w.data[:] = 0.0
        tiny_model.weight_b.data = np.asarray(math.e - 1.0)
        q_ids = tiny_vocab.encode("quick brown fox", 16)
        p_ids = tiny_vocab.encode("the quick dog jumps over the fox", 24)
        terms = np.unique([t for t in q_ids + p_ids if t not in (CLS_ID, SEP_ID)])
        score = match_score(
            tiny_model.term_weights(tiny_model.encode_ids(q_ids), terms),
            tiny_model.term_weights(tiny_model.encode_ids(p_ids), terms),
        )
        assert score.data[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_gate_disabled_reads_raw_hidden(self, tiny_vocab, tiny_config):
        gated = FecTekModel(len(tiny_vocab), tiny_config, seed=5)
        plain = FecTekModel(
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
        tiny_model.prob_w.data[:] = 0.0
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
        grad = tiny_model.prob_w.grad.copy()

        eps = 1e-5
        flat = tiny_model.prob_w.data
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
        tiny_model.weight_w.data[:] = 0.0
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
        tiny_model.prob_w.data[:] = 0.0
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
        model = FecTekModel(len(tiny_vocab), tiny_config, seed=5)
        # Generic operating point: lift the weight head bias so shared terms
        # carry nonzero weights and the match-score branch has gradient.
        model.weight_b.data = np.asarray(0.2)
        triple = make_triple(
            tiny_vocab,
            tiny_config,
            "quick brown fox",
            "the quick brown fox jumps over the lazy dog",
            ["pack my box with five dozen liquor jugs"],
        )
        total, _ = batch_loss(model, [triple])
        total.backward()
        for name, p in model.named_parameters().items():
            assert p.grad is not None and np.any(p.grad != 0.0), name


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tiny_vocab, tiny_config, tmp_path):
        model = FecTekModel(
            len(tiny_vocab), tiny_config, aggregation="sum", seed=9
        )
        path = tmp_path / "model.ftck"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab_size == model.vocab_size
        assert loaded.aggregation == "sum"
        assert loaded.use_feature_gate is True
        assert loaded.config == model.config
        for name, p in model.named_parameters().items():
            assert np.array_equal(loaded.named_parameters()[name].data, p.data), name

    def test_double_save_identical_bytes(self, tiny_vocab, tiny_config, tmp_path):
        model = FecTekModel(len(tiny_vocab), tiny_config, seed=9)
        a = tmp_path / "a.ftck"
        b = tmp_path / "b.ftck"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()
        assert checkpoints_equal(a, b)

    def test_config_entries_lead_in_format_order(self, tiny_vocab, tiny_config, tmp_path):
        # Format v1 pins this order; it follows the EncoderConfig field order.
        path = tmp_path / "model.ftck"
        save_model(FecTekModel(len(tiny_vocab), tiny_config, seed=9), path)
        assert list(load_tensors(path))[:10] == [
            "config.vocab_size",
            "config.dim",
            "config.layers",
            "config.heads",
            "config.ffn_multiplier",
            "config.max_query_len",
            "config.max_passage_len",
            "config.use_feature_gate",
            "config.aggregation",
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
        save_model(FecTekModel(len(tiny_vocab), tiny_config, seed=9), path)
        entries = load_tensors(path)
        entries[f"config.{name}"] = np.float64(value)
        save_tensors(path, entries)
        with pytest.raises(CorruptFileError, match=name):
            load_model(path)

    def test_gate_flag_round_trips(self, tiny_vocab, tiny_config, tmp_path):
        model = FecTekModel(
            len(tiny_vocab), tiny_config, use_feature_gate=False, seed=9
        )
        path = tmp_path / "model.ftck"
        save_model(model, path)
        assert load_model(path).use_feature_gate is False

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(
        self, tiny_vocab, tiny_config, tmp_path, value
    ):
        model = FecTekModel(len(tiny_vocab), tiny_config, seed=9)
        model.named_parameters()["embeddings.token"].data[5, 1] = value
        path = tmp_path / "model.ftck"
        save_model(model, path)
        with pytest.raises(CorruptFileError, match="'embeddings.token' is not finite"):
            load_model(path)

    def test_truncated_file_rejected(self, tiny_vocab, tiny_config, tmp_path):
        model = FecTekModel(len(tiny_vocab), tiny_config, seed=9)
        path = tmp_path / "model.ftck"
        save_model(model, path)
        clipped = tmp_path / "clipped.ftck"
        clipped.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CorruptFileError):
            load_model(clipped)

    def test_bad_magic_rejected(self, tiny_vocab, tiny_config, tmp_path):
        model = FecTekModel(len(tiny_vocab), tiny_config, seed=9)
        path = tmp_path / "model.ftck"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        bad = tmp_path / "bad.ftck"
        bad.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError, match="magic"):
            load_model(bad)
