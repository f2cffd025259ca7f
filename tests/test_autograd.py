"""Gradient and forward-value checks for the tensor engine.

Every differentiable op is compared against an independent central
finite-difference oracle; structural properties (tape replay, accumulation
through fan-out, broadcasting) get direct constructions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fectek.autograd as ag
from fectek.autograd import Tensor
from fectek.errors import ShapeError


def finite_difference(fn, arrays, which, eps=1e-6):
    """Central-difference gradient of scalar fn w.r.t. arrays[which]."""
    target = arrays[which]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(*arrays)
        flat[i] = original - eps
        lower = fn(*arrays)
        flat[i] = original
        out[i] = (upper - lower) / (2 * eps)
    return grad


def max_relative_error(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def assert_grads_match(build, arrays, tol=1e-5, eps=1e-6):
    """Wrap arrays in tensors, reduce `build`'s output to a scalar with a
    fixed random weighting, and compare every gradient to finite differences."""
    rng = np.random.default_rng(99)
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    probe = None

    def scalarize(out):
        nonlocal probe
        if out.data.ndim == 0:
            return out
        if probe is None:
            probe = rng.uniform(-1.0, 1.0, out.data.shape)
        return ag.reduce_sum(ag.mul(out, Tensor(probe)))

    loss = scalarize(build(*tensors))
    loss.backward()

    def value(*arrs):
        with ag.no_grad():
            out = build(*[Tensor(a) for a in arrs])
            if out.data.ndim == 0:
                return out.item()
            return float((out.data * probe).sum())

    for i, t in enumerate(tensors):
        numeric = finite_difference(value, [a.copy() for a in arrays], i, eps)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        err = max_relative_error(analytic, numeric)
        assert err <= tol, f"operand {i}: max relative error {err:.3e} > {tol}"


class TestForwardValues:
    def test_matmul_identity(self):
        out = ag.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_matmul_hand_case(self):
        out = ag.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_relu_at_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        out = ag.reduce_sum(ag.relu(x))
        assert out.item() == 2.0
        out.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_sigmoid_extremes_stay_finite(self):
        out = ag.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[1] == 0.5

    def test_softmax_rows_sum_to_one(self, rng):
        out = ag.softmax(Tensor(rng.normal(size=(4, 7))))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_layer_norm_constant_row_is_zero(self):
        out = ag.layer_norm(
            Tensor(np.full((3, 5), 2.7)), Tensor(np.ones(5)), Tensor(np.zeros(5))
        )
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_layer_norm_output_mean_zero(self, rng):
        out = ag.layer_norm(
            Tensor(rng.normal(size=(4, 8))), Tensor(np.ones(8)), Tensor(np.zeros(8))
        )
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)

    def test_softmax_nll_uniform_equals_log_n(self):
        for n in (1, 2, 16):
            loss = ag.softmax_nll(Tensor(np.zeros(n)), 0)
            assert loss.item() == pytest.approx(math.log(n), abs=1e-12)

    def test_softmax_nll_singleton_is_zero(self):
        assert ag.softmax_nll(Tensor([3.7]), 0).item() == 0.0

    def test_softmax_nll_empty_raises(self):
        with pytest.raises(ValueError):
            ag.softmax_nll(Tensor(np.zeros(0)), 0)

    def test_bce_at_half_is_log_two(self):
        probs = Tensor(np.full(6, 0.5))
        labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        mask = np.ones(6, dtype=bool)
        loss = ag.binary_cross_entropy(probs, labels, mask)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bce_clamps_saturated_probabilities(self):
        probs = Tensor(np.array([0.0, 1.0]))
        labels = np.array([1.0, 0.0])
        loss = ag.binary_cross_entropy(probs, labels, np.ones(2, dtype=bool))
        assert np.isfinite(loss.item())

    def test_bce_empty_mask_is_zero(self):
        loss = ag.binary_cross_entropy(
            Tensor(np.full(3, 0.5)), np.zeros(3), np.zeros(3, dtype=bool)
        )
        assert loss.item() == 0.0


class TestRowwiseLosses:
    def test_softmax_nll_rows_sum_each_rows_own_candidates(self, rng):
        scores = rng.normal(size=(3, 5))
        mask = np.array(
            [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1], [0, 0, 0, 0, 1]], dtype=bool
        )
        targets = [0, 3, 4]
        rows = ag.softmax_nll(Tensor(scores), targets, mask).item()
        alone = sum(
            ag.softmax_nll(
                Tensor(scores[r, mask[r]]), np.flatnonzero(mask[r]).tolist().index(t)
            ).item()
            for r, t in enumerate(targets)
        )
        assert rows == pytest.approx(alone, abs=1e-12)
        # A row with one candidate adds exactly 0.
        assert ag.softmax_nll(Tensor(scores[2:]), [4], mask[2:]).item() == 0.0

    def test_softmax_nll_masked_target_rejected(self):
        with pytest.raises(ValueError):
            ag.softmax_nll(Tensor(np.zeros((1, 3))), [1], np.array([[True, False, True]]))

    def test_softmax_nll_needs_one_target_per_row(self):
        with pytest.raises(ShapeError):
            ag.softmax_nll(Tensor(np.zeros((2, 3))), [1])

    def test_bce_rows_sum_their_own_means(self, rng):
        probs = rng.uniform(0.1, 0.9, (3, 4))
        labels = rng.integers(0, 2, (3, 4)).astype(float)
        mask = np.array([[1, 1, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]], dtype=bool)
        rows = ag.binary_cross_entropy(Tensor(probs), labels, mask).item()
        alone = sum(
            ag.binary_cross_entropy(Tensor(probs[r]), labels[r], mask[r]).item()
            for r in range(3)
        )
        assert rows == pytest.approx(alone, abs=1e-12)


class TestBackwardStructure:
    def test_replay_frees_interior_nodes_and_leaves_keep_grads(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        hidden = ag.relu(ag.mul(x, 2.0))
        loss = ag.reduce_sum(hidden)
        loss.backward()
        assert x.grad is not None
        for node in (hidden, loss):
            assert node.grad is None and node._parents == () and node._backward is None

    def test_first_gradient_is_a_c_ordered_copy(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        ag.reduce_sum(ag.permute(x, (1, 0))).backward()
        assert x.grad.flags.c_contiguous and x.grad.flags.owndata

    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        ag.reduce_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self, rng):
        x = Tensor(rng.normal(size=5), requires_grad=True)
        ag.reduce_sum(ag.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_fanout_accumulates_once_per_consumer(self):
        # Diamond: y = x*x + x*x; each backward closure must run exactly once,
        # accumulating to 4x.
        x = Tensor([3.0], requires_grad=True)
        a = ag.mul(x, x)
        b = ag.mul(x, x)
        ag.reduce_sum(ag.add(a, b)).backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_tape_visits_each_node_once(self):
        x = Tensor([1.0], requires_grad=True)
        a = ag.mul(x, 2.0)
        b = ag.add(a, a)
        c = ag.add(b, a)
        tape = ag.build_tape(ag.reduce_sum(c))
        ids = [id(n) for n in tape]
        assert len(ids) == len(set(ids))
        # Inputs come before outputs.
        assert ids.index(id(a)) < ids.index(id(b)) < ids.index(id(c))

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_constant_loss_backward_is_noop(self):
        t = Tensor(1.5)
        t.backward()
        assert t.grad is None

    def test_no_grad_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        with ag.no_grad():
            out = ag.reduce_sum(ag.mul(x, x))
        assert not out.requires_grad
        assert out._parents == ()

    def test_broadcast_add_reduces_gradient(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        ag.reduce_sum(ag.add(a, b)).backward()
        np.testing.assert_array_equal(b.grad, np.full(4, 3.0))


class TestGradientOracle:
    """Each differentiable op against central finite differences."""

    def test_add_broadcast(self, rng):
        assert_grads_match(
            ag.add, [rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (4,))]
        )

    def test_mul_broadcast(self, rng):
        assert_grads_match(
            ag.mul, [rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (4,))]
        )

    def test_matmul_2d(self, rng):
        assert_grads_match(
            ag.matmul, [rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (4, 2))], tol=1e-6
        )

    def test_matmul_vector_cases(self, rng):
        assert_grads_match(
            ag.matmul, [rng.uniform(-2, 2, (4,)), rng.uniform(-2, 2, (4, 3))]
        )
        assert_grads_match(
            ag.matmul, [rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (4,))]
        )
        assert_grads_match(
            ag.matmul, [rng.uniform(-2, 2, (4,)), rng.uniform(-2, 2, (4,))]
        )

    def test_matmul_batched(self, rng):
        assert_grads_match(
            ag.matmul, [rng.uniform(-2, 2, (2, 3, 4)), rng.uniform(-2, 2, (2, 4, 3))]
        )

    def test_relu_away_from_kink(self, rng):
        x = rng.uniform(-2, 2, (4, 5))
        x[np.abs(x) < 1e-3] = 0.5
        assert_grads_match(ag.relu, [x])

    def test_sigmoid(self, rng):
        assert_grads_match(ag.sigmoid, [rng.uniform(-2, 2, (4, 5))])

    def test_log1p(self, rng):
        assert_grads_match(ag.log1p, [rng.uniform(-0.9, 2, (4, 5))])

    def test_permute_and_reshape(self, rng):
        assert_grads_match(
            lambda t: ag.reshape(ag.permute(t, (1, 0, 2)), (4, 6)),
            [rng.uniform(-2, 2, (2, 4, 3))],
        )

    def test_transpose_last_two(self, rng):
        assert_grads_match(ag.transpose_last_two, [rng.uniform(-2, 2, (2, 3, 4))])

    def test_gather_with_repeats(self, rng):
        idx = np.array([0, 2, 2, 1])
        assert_grads_match(
            lambda t: ag.gather(t, idx), [rng.uniform(-2, 2, (4, 3))]
        )

    def test_scatter(self, rng):
        columns = np.array([[0, 2, -1, 2], [1, 1, 0, -1]])
        for reduce in ("max", "sum"):
            assert_grads_match(
                lambda a: ag.scatter(a, columns, 3, reduce), [rng.uniform(-2, 2, (2, 4))]
            )

    def test_softmax(self, rng):
        assert_grads_match(ag.softmax, [rng.uniform(-2, 2, (3, 6))])

    def test_layer_norm(self, rng):
        assert_grads_match(
            lambda x, g, b: ag.layer_norm(x, g, b),
            [
                rng.uniform(-2, 2, (4, 8)),
                rng.uniform(0.5, 1.5, (8,)),
                rng.uniform(-0.5, 0.5, (8,)),
            ],
        )

    def test_softmax_nll(self, rng):
        assert_grads_match(
            lambda s: ag.softmax_nll(s, 2), [rng.uniform(-2, 2, (6,))]
        )

    def test_softmax_nll_masked_rows(self, rng):
        mask = np.array([[True, True, False, True], [False, True, True, False]])
        assert_grads_match(
            lambda s: ag.softmax_nll(s, [3, 1], mask), [rng.uniform(-2, 2, (2, 4))]
        )

    def test_binary_cross_entropy(self, rng):
        labels = rng.integers(0, 2, 7).astype(float)
        mask = np.array([True, True, False, True, True, True, False])
        assert_grads_match(
            lambda p: ag.binary_cross_entropy(p, labels, mask),
            [rng.uniform(0.05, 0.95, (7,))],
        )

    def test_binary_cross_entropy_rows(self, rng):
        labels = rng.integers(0, 2, (3, 5)).astype(float)
        mask = rng.random((3, 5)) < 0.6
        mask[2] = False
        assert_grads_match(
            lambda p: ag.binary_cross_entropy(p, labels, mask),
            [rng.uniform(0.05, 0.95, (3, 5))],
        )


class TestProperties:
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_softmax_nll_nonnegative(self, scores):
        loss = ag.softmax_nll(Tensor(np.asarray(scores)), 0)
        assert loss.item() >= -1e-12

    @given(st.integers(min_value=1, max_value=40), st.floats(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_softmax_nll_equal_scores_is_log_n(self, n, value):
        loss = ag.softmax_nll(Tensor(np.full(n, value)), 0)
        assert loss.item() == pytest.approx(math.log(n), abs=1e-9)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_forward_determinism(self, seed):
        def run():
            r = np.random.default_rng(seed)
            x = Tensor(r.normal(size=(3, 4)))
            w = Tensor(r.normal(size=(4, 2)))
            return ag.softmax(ag.matmul(x, w)).data

        first, second = run(), run()
        assert np.array_equal(first, second)
