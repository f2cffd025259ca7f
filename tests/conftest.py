import gc
import sys

import numpy as np
import pytest

from fectek import gradcheck
from fectek.autograd import Tensor
from fectek.encoder import EncoderConfig
from fectek.model import FecTekModel, init_parameters, parameter_shapes
from fectek.tokenizer import Vocabulary

TINY_TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "how vexingly quick daft zebras jump",
    "sphinx of black quartz judge my vow",
]


def float64_model(vocab_size, config, *, use_feature_gate=True, seed=42) -> FecTekModel:
    """`new_model`'s draws kept in float64, for tests that need float64's
    precision: bit-equality against a reference, finite differences."""
    params = init_parameters(parameter_shapes(vocab_size, config), np.random.default_rng(seed))
    return FecTekModel(config, params, use_feature_gate=use_feature_gate)


@pytest.fixture
def tiny_vocab() -> Vocabulary:
    return Vocabulary.build(TINY_TEXTS)


@pytest.fixture
def tiny_config() -> EncoderConfig:
    return EncoderConfig(
        dim=16,
        layers=2,
        heads=2,
        ffn_multiplier=2,
        max_query_len=16,
        max_passage_len=24,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def corrupt_gradient(monkeypatch):
    """`corrupt_gradient(name)` adds 1.0 to the gradient that gradcheck's
    backward pass leaves in parameter group `name`, as a faulty backward
    would."""

    def corrupt(name: str) -> None:
        setup, backward = gradcheck._toy_setup, Tensor.backward
        params = {}

        def toy_setup():
            model, triples = setup()
            params.update(model.params)
            return model, triples

        def faulty_backward(self):
            backward(self)
            params[name].grad = params[name].grad + 1.0

        monkeypatch.setattr(gradcheck, "_toy_setup", toy_setup)
        monkeypatch.setattr(Tensor, "backward", faulty_backward)

    return corrupt


@pytest.fixture
def python_events():
    """`python_events(action)` counts the Python and C calls `sys.setprofile`
    sees while `action()` runs, with the garbage collector off: its Python
    callbacks (hypothesis has one) would add calls unrelated to the work.
    A first, uncounted run pays the one-time set-up (lazy imports, caches),
    so the count does not depend on which test ran before."""

    def count_events(action) -> int:
        action()
        events = 0

        def count(frame, event, arg):
            nonlocal events
            events += 1

        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(count)
        try:
            action()
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        return events

    return count_events
