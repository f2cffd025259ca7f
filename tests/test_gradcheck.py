"""Self-checks for the finite-difference harness (subsampled for speed)."""

import numpy as np

import fectek.autograd as ag
from fectek import gradcheck
from fectek.gradcheck import GradCheckReport, GroupResult, _toy_setup, run_gradient_check
from fectek.model import batch_loss


def test_subsampled_run_passes_default_seed():
    report = run_gradient_check(max_coords_per_group=3)
    assert report.passed
    assert report.worst <= gradcheck.TOLERANCE


def test_runs_in_float64(monkeypatch):
    # `new_model` makes float32 models; the gradient check builds its own
    # float64 model and must keep every op and every gradient in float64.
    setup, record, accumulate = gradcheck._toy_setup, ag._record, ag._accumulate
    models, dtypes = [], set()

    def toy_setup():
        model, triples = setup()
        models.append(model)
        return model, triples

    def record_spy(data, parents, backward, op):
        dtypes.add(np.asarray(data).dtype)
        return record(data, parents, backward, op)

    def accumulate_spy(t, grad, fresh=False):
        dtypes.add(grad.dtype)
        accumulate(t, grad, fresh)

    monkeypatch.setattr(gradcheck, "_toy_setup", toy_setup)
    monkeypatch.setattr(ag, "_record", record_spy)
    monkeypatch.setattr(ag, "_accumulate", accumulate_spy)
    assert run_gradient_check(max_coords_per_group=1).passed
    (model,) = models
    assert dtypes == {np.dtype(np.float64)}
    assert {p.data.dtype for p in model.params.values()} == {np.dtype(np.float64)}


def test_every_parameter_group_listed_exactly_once():
    report = run_gradient_check(max_coords_per_group=1)
    names = [g.name for g in report.groups]
    assert len(names) == len(set(names))
    assert "embeddings.token" in names
    assert "feature_gate.excite.weight" in names
    assert "weight_head.weight" in names
    assert "prob_head.bias" in names
    assert any(name.startswith("layers.0.attn") for name in names)


def test_every_group_has_live_analytic_gradient():
    # A probe batch where some group's gradient is identically zero would
    # make that group's comparison vacuous (0 == 0).
    model, triples = _toy_setup()
    loss, _ = batch_loss(model, triples)
    loss.backward()
    for name, p in model.params.items():
        assert p.grad is not None and np.any(p.grad != 0.0), name


def test_corrupted_group_fails_and_is_worst(corrupt_gradient):
    corrupt_gradient("prob_head.weight")
    report = run_gradient_check(max_coords_per_group=3)
    assert not report.passed
    worst = max(report.groups, key=lambda g: g.max_error)
    assert worst.name == "prob_head.weight"
    assert worst.max_error > gradcheck.TOLERANCE


def test_report_properties():
    report = GradCheckReport([GroupResult("a", 2e-5, 4), GroupResult("b", 9e-5, 2)])
    assert report.worst == 9e-5
    assert report.passed
    report.groups.append(GroupResult("c", 2e-4, 1))
    assert not report.passed
