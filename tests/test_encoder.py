"""Contextual encoder: shapes, masking, determinism, and gradient flow."""

import numpy as np
import pytest

import fectek.autograd as ag
import per_text_reference as ref
from fectek.encoder import ContextEncoder, EncoderConfig
from fectek.errors import ShapeError
from fectek.model import init_parameters, parameter_shapes
from fectek.tokenizer import PAD_ID


def encode_ids(vocab, text, max_len=16):
    return vocab.encode(text, max_len)


def make_encoder(vocab, config, seed=42):
    shapes = parameter_shapes(len(vocab), config)
    encoder = {name: s for name, s in shapes.items() if name.startswith(("embeddings.", "layers."))}
    return ContextEncoder(config, init_parameters(encoder, np.random.default_rng(seed)))


class TestConfig:
    def test_defaults(self):
        config = EncoderConfig()
        assert config.dim == 64
        assert config.layers == 2
        assert config.heads == 2
        assert config.ffn_multiplier == 4
        assert config.max_query_len == 64
        assert config.max_passage_len == 192
        assert config.head_dim == 32

    def test_dim_must_split_across_heads(self):
        with pytest.raises(ValueError):
            EncoderConfig(dim=10, heads=3)

    def test_positive_fields_required(self):
        with pytest.raises(ValueError):
            EncoderConfig(layers=0)


class TestForward:
    def test_hidden_shape_matches_input(self, tiny_vocab, tiny_config):
        enc = make_encoder(tiny_vocab, tiny_config)
        ids = encode_ids(tiny_vocab, "quick brown fox")
        out = enc.forward([ids, ids[:3]])
        assert out.hidden.data.shape == (2, len(ids), tiny_config.dim)
        assert out.token_ids.shape == (2, len(ids))

    def test_same_seed_same_output(self, tiny_vocab, tiny_config):
        ids = [encode_ids(tiny_vocab, "pack my box")]
        a = make_encoder(tiny_vocab, tiny_config, 7).forward(ids)
        b = make_encoder(tiny_vocab, tiny_config, 7).forward(ids)
        assert np.array_equal(a.hidden.data, b.hidden.data)

    def test_different_seed_different_output(self, tiny_vocab, tiny_config):
        ids = [encode_ids(tiny_vocab, "pack my box")]
        a = make_encoder(tiny_vocab, tiny_config, 7).forward(ids)
        b = make_encoder(tiny_vocab, tiny_config, 8).forward(ids)
        assert not np.array_equal(a.hidden.data, b.hidden.data)

    def test_trailing_padding_leaves_real_rows_unchanged(self, tiny_vocab, tiny_config):
        # Pad columns are masked out of attention, so appending pads (or
        # sharing a batch with a longer text) cannot move a real row's state.
        enc = make_encoder(tiny_vocab, tiny_config)
        ids = encode_ids(tiny_vocab, "quick brown fox")
        plain = enc.forward([ids]).hidden.data[0]
        padded = enc.forward([ids + [PAD_ID, PAD_ID]]).hidden.data[0]
        assert padded.shape == (len(ids) + 2, tiny_config.dim)
        np.testing.assert_allclose(padded[: len(ids)], plain, rtol=0, atol=1e-12)
        longer = encode_ids(tiny_vocab, "the quick brown fox jumps over")
        batched = enc.forward([longer, ids]).hidden.data[1]
        np.testing.assert_allclose(batched[: len(ids)], plain, rtol=0, atol=1e-12)

    def test_real_mask_tracks_pads(self, tiny_vocab, tiny_config):
        enc = make_encoder(tiny_vocab, tiny_config)
        ids = encode_ids(tiny_vocab, "fox")
        out = enc.forward([ids + [PAD_ID], ids])
        assert out.real_mask.tolist() == [[True, True, True, False], [True, True, True, False]]
        assert out.token_ids[1].tolist() == ids + [PAD_ID]

    def test_sequence_longer_than_table_rejected(self, tiny_vocab, tiny_config):
        enc = make_encoder(tiny_vocab, tiny_config)
        too_long = np.full(tiny_config.max_passage_len + 1, 4)
        with pytest.raises(ShapeError, match="positional table"):
            enc.forward([[4, 5], too_long])

    def test_empty_sequence_rejected(self, tiny_vocab, tiny_config):
        enc = make_encoder(tiny_vocab, tiny_config)
        with pytest.raises(ShapeError):
            enc.forward([[4, 5], np.array([], dtype=np.int64)])
        with pytest.raises(ShapeError):
            enc.forward([])

    def test_out_of_range_token_rejected(self, tiny_vocab, tiny_config):
        enc = make_encoder(tiny_vocab, tiny_config)
        with pytest.raises(ShapeError, match="outside vocabulary"):
            enc.forward([[2, len(tiny_vocab), 3]])
        with pytest.raises(ShapeError, match="outside vocabulary"):
            enc.forward([[2, -1, 3]])

    def test_position_info_comes_only_from_position_table(
        self, tiny_vocab, tiny_config
    ):
        # With positional embeddings zeroed, self-attention is a set
        # operation: swapping two real tokens permutes the output rows.
        enc = make_encoder(tiny_vocab, tiny_config)
        enc.params["embeddings.position"].data[:] = 0.0
        a = np.array(encode_ids(tiny_vocab, "quick fox"))
        b = a.copy()
        b[1], b[2] = a[2], a[1]
        out_a, out_b = enc.forward([a, b]).hidden.data
        np.testing.assert_allclose(out_a[1], out_b[2], atol=1e-12)
        np.testing.assert_allclose(out_a[2], out_b[1], atol=1e-12)
        np.testing.assert_allclose(out_a[0], out_b[0], atol=1e-12)


class TestGradients:
    def test_sampled_parameter_gradients_match_fd(self, tiny_vocab, tiny_config):
        enc = make_encoder(tiny_vocab, tiny_config, 3)
        batch = [
            encode_ids(tiny_vocab, "sphinx of black quartz"),
            encode_ids(tiny_vocab, "judge my vow"),
        ]
        rng = np.random.default_rng(0)
        probe = rng.uniform(-1, 1, (2, len(batch[0]), tiny_config.dim))
        probe[1, len(batch[1]) :] = 0.0  # pad rows are never read

        def loss_value():
            with ag.no_grad():
                out = enc.forward(batch)
            return float((out.hidden.data * probe).sum())

        out = enc.forward(batch)
        loss = ref.reduce_sum(ag.mul(out.hidden, ag.Tensor(probe)))
        loss.backward()

        eps = 1e-5
        worst = 0.0
        for name, p in enc.params.items():
            flat = p.data.reshape(-1)
            grad = p.grad.reshape(-1)
            for c in rng.permutation(flat.size)[:6]:
                original = flat[c]
                flat[c] = original + eps
                upper = loss_value()
                flat[c] = original - eps
                lower = loss_value()
                flat[c] = original
                numeric = (upper - lower) / (2 * eps)
                err = abs(grad[c] - numeric) / max(1.0, abs(grad[c]), abs(numeric))
                worst = max(worst, err)
        assert worst <= 1e-4, f"worst sampled encoder gradient error {worst:.3e}"

    def test_gradient_reaches_every_parameter(self, tiny_vocab, tiny_config):
        enc = make_encoder(tiny_vocab, tiny_config)
        ids = encode_ids(tiny_vocab, "how vexingly quick daft zebras jump")
        out = enc.forward([ids])
        ref.reduce_sum(ag.mul(out.hidden, out.hidden)).backward()
        for name, p in enc.params.items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0.0), f"no gradient reached {name}"
