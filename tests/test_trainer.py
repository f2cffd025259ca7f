"""Optimizer math, schedule shape, and the end-to-end training loop."""

import json
import math

import numpy as np
import pytest

from fectek.autograd import Tensor
from fectek.encoder import EncoderConfig
from fectek.errors import DataFormatError, TrainingDivergedError
from fectek.model import FecTekModel, checkpoints_equal
from fectek.tokenizer import Vocabulary
from fectek.trainer import (
    AdamW,
    TrainerConfig,
    TrainingTriple,
    clip_global_norm,
    encode_triples,
    linear_warmup_decay,
    load_triples,
    train,
    train_step,
)

TOY_TRIPLES = [
    TrainingTriple("quick fox", "the quick brown fox jumps", ["pack my box", "daft zebras"]),
    TrainingTriple("lazy dog", "over the lazy dog", ["sphinx of quartz", "liquor jugs"]),
    TrainingTriple("black quartz", "sphinx of black quartz judge", ["brown fox"]),
    TrainingTriple("dozen jugs", "five dozen liquor jugs", ["zebras jump", "my vow"]),
]

TOY_TEXTS = [t.query for t in TOY_TRIPLES] + [t.positive for t in TOY_TRIPLES] + [
    n for t in TOY_TRIPLES for n in t.negatives
]


@pytest.fixture
def toy_vocab():
    return Vocabulary.build(TOY_TEXTS)


@pytest.fixture
def toy_model(toy_vocab, tiny_config):
    return FecTekModel(len(toy_vocab), tiny_config, seed=3)


class TestSchedule:
    def test_knots_are_exact(self):
        peak = 2e-3
        assert linear_warmup_decay(0, 100, peak) == 0.0
        assert linear_warmup_decay(10, 100, peak) == peak
        assert linear_warmup_decay(100, 100, peak) == 0.0

    def test_linear_between_knots(self):
        peak = 1.0
        assert linear_warmup_decay(5, 100, peak) == pytest.approx(0.5)
        assert linear_warmup_decay(55, 100, peak) == pytest.approx(0.5)

    def test_zero_warmup_starts_at_peak(self):
        assert linear_warmup_decay(1, 10, 1e-3, warmup_ratio=0.0) == pytest.approx(
            1e-3 * 9 / 10
        )

    def test_clamps_out_of_range_steps(self):
        assert linear_warmup_decay(-5, 100, 1.0) == 0.0
        assert linear_warmup_decay(999, 100, 1.0) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            linear_warmup_decay(1, 0, 1.0)
        with pytest.raises(ValueError):
            linear_warmup_decay(1, 10, 1.0, warmup_ratio=1.0)


class TestAdamW:
    def test_first_step_without_decay(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.ones(2)
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.0)
        opt.step()
        # Bias-corrected m_hat = v_hat = 1 on the first unit-gradient step.
        expected = np.array([1.0, -2.0]) - 0.01 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-14)

    def test_decoupled_decay_applies_even_with_zero_gradient(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.01)
        opt.step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.01 * 2.0], rtol=1e-14)

    def test_zero_gradient_zero_decay_is_identity(self):
        p = Tensor(np.array([1.5]), requires_grad=True)
        p.grad = np.zeros(1)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        assert p.data.tolist() == [1.5]

    def test_missing_gradient_counts_as_zero(self):
        p = Tensor(np.array([1.5]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        assert p.data.tolist() == [1.5]

    def test_constant_gradient_approaches_signed_rate(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.0)
        for _ in range(400):
            p.grad = np.array([-3.0])
            before = p.data.copy()
            opt.step()
        delta = p.data - before
        np.testing.assert_allclose(delta, [0.01], rtol=1e-6)

    def test_step_rate_override(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.ones(1)
        opt = AdamW({"p": p}, lr=0.5, weight_decay=0.0)
        opt.step(lr=0.0)
        assert p.data.tolist() == [1.0]


class TestClip:
    def test_norm_above_threshold_scales_down(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([3.0, 4.0])
        norm = clip_global_norm({"a": a}, 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(a.grad, [0.6, 0.8])

    def test_norm_below_threshold_untouched(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.3, 0.4])
        norm = clip_global_norm({"a": a}, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(a.grad, [0.3, 0.4])

    def test_norm_spans_parameters(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        assert clip_global_norm({"a": a, "b": b}, 10.0) == pytest.approx(5.0)


class TestLoadTriples:
    def test_parses_rows(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        path.write_text(
            '{"query": "q", "positive": "p", "negatives": ["n1", "n2"]}\n'
            '{"query": "r", "positive": "s", "negatives": []}\n'
        )
        triples = load_triples(path)
        assert len(triples) == 2
        assert triples[0].negatives == ["n1", "n2"]

    def test_error_names_line_number(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        path.write_text('{"query": "q", "positive": "p", "negatives": []}\nnot json\n')
        with pytest.raises(DataFormatError, match=r":2: invalid JSON"):
            load_triples(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        path.write_text('{"query": "q", "negatives": []}\n')
        with pytest.raises(DataFormatError, match="positive"):
            load_triples(path)

    def test_wrong_types_rejected(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        path.write_text('{"query": "q", "positive": "p", "negatives": "n"}\n')
        with pytest.raises(DataFormatError):
            load_triples(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        path.write_text("")
        with pytest.raises(DataFormatError, match="no training triples"):
            load_triples(path)


class TestTrainStep:
    def test_loss_drops_over_steps(self, toy_model, toy_vocab, tiny_config):
        encoded = encode_triples(TOY_TRIPLES, toy_vocab, 16, 24, 7)
        opt = AdamW(toy_model.named_parameters(), weight_decay=0.0)
        first = train_step(toy_model, opt, encoded, 1e-3, 1.0, True)
        last = None
        for _ in range(99):
            last = train_step(toy_model, opt, encoded, 1e-3, 1.0, True)
        assert last["total_loss"] < first["total_loss"]

    def test_zero_rate_freezes_model(self, toy_model, toy_vocab):
        encoded = encode_triples(TOY_TRIPLES, toy_vocab, 16, 24, 7)
        opt = AdamW(toy_model.named_parameters())
        a = train_step(toy_model, opt, encoded, 0.0, 1.0, True)
        b = train_step(toy_model, opt, encoded, 0.0, 1.0, True)
        assert a["total_loss"] == b["total_loss"]

    def test_divergence_names_component(self, toy_model, toy_vocab):
        encoded = encode_triples(TOY_TRIPLES, toy_vocab, 16, 24, 7)
        toy_model.prob_w.data[:] = np.nan
        opt = AdamW(toy_model.named_parameters())
        with pytest.raises(TrainingDivergedError, match="term_loss"):
            train_step(toy_model, opt, encoded, 1e-3, 1.0, True)


    def test_non_finite_gradient_norm_stops_before_the_update(
        self, toy_model, toy_vocab, monkeypatch
    ):
        import fectek.trainer as trainer

        encoded = encode_triples(TOY_TRIPLES, toy_vocab, 16, 24, 7)
        loss, metrics = trainer.batch_loss(toy_model, encoded)
        monkeypatch.setattr(trainer, "batch_loss", lambda *a, **k: (loss, metrics))
        toy_model.weight_w.grad = np.full(toy_model.weight_w.data.shape, np.inf)
        before = {n: p.data.copy() for n, p in toy_model.named_parameters().items()}
        opt = AdamW(toy_model.named_parameters())
        with pytest.raises(TrainingDivergedError, match="gradient norm"):
            train_step(toy_model, opt, encoded, 1e-3, 1.0, True)
        assert opt.step_count == 0
        for name, p in toy_model.named_parameters().items():
            assert np.array_equal(p.data, before[name]), name


class TestTrainLoop:
    def run(self, tmp_path, toy_vocab, tiny_config, tag, **overrides):
        model = FecTekModel(len(toy_vocab), tiny_config, seed=3)
        overrides.setdefault("seed", 42)
        config = TrainerConfig(epochs=2, batch_queries=2, **overrides)
        out = tmp_path / tag
        final = train(model, TOY_TRIPLES, toy_vocab, config, out, {"run": tag})
        return out, final

    def test_writes_checkpoints_and_metrics(self, tmp_path, toy_vocab, tiny_config):
        out, final = self.run(tmp_path, toy_vocab, tiny_config, "a")
        assert final == out / "model.ftck"
        assert final.exists()
        assert (out / "model.epoch001.ftck").exists()
        assert (out / "model.epoch002.ftck").exists()
        lines = (out / "metrics.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"config": {"run": "a"}}
        rows = [json.loads(line) for line in lines[1:]]
        # 4 triples, batch 2, 2 epochs -> 4 update steps.
        assert [r["step"] for r in rows] == [1, 2, 3, 4]
        assert {r["epoch"] for r in rows} == {1, 2}
        for row in rows:
            for key in ("total_loss", "text_loss", "term_loss", "grad_norm", "lr"):
                assert key in row

    def test_same_seed_bit_identical(self, tmp_path, toy_vocab, tiny_config):
        _, final_a = self.run(tmp_path, toy_vocab, tiny_config, "a")
        _, final_b = self.run(tmp_path, toy_vocab, tiny_config, "b")
        assert checkpoints_equal(final_a, final_b)

    def test_different_seed_differs(self, tmp_path, toy_vocab, tiny_config):
        _, final_a = self.run(tmp_path, toy_vocab, tiny_config, "a")
        _, final_b = self.run(tmp_path, toy_vocab, tiny_config, "b", seed=7)
        assert not checkpoints_equal(final_a, final_b)

    def test_lr_follows_schedule(self, tmp_path, toy_vocab, tiny_config):
        out, _ = self.run(tmp_path, toy_vocab, tiny_config, "a", warmup_ratio=0.25)
        rows = [
            json.loads(line)
            for line in (out / "metrics.jsonl").read_text().splitlines()[1:]
        ]
        # total=4, warmup=1: peak at step 1, then linear decay to 0 at step 4.
        assert rows[0]["lr"] == pytest.approx(1e-3)
        assert rows[1]["lr"] == pytest.approx(1e-3 * 2 / 3)
        assert rows[3]["lr"] == pytest.approx(0.0)
