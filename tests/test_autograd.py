"""Gradient and forward-value checks for the tensor engine.

Every differentiable op is compared against an independent central
finite-difference oracle; structural properties (tape replay, accumulation
through fan-out, broadcasting) get direct constructions.
"""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fectek.autograd as ag
import per_text_reference as ref
from fectek.autograd import Tensor
from fectek.encoder import MASK_BIAS
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
        return ref.reduce_sum(ag.mul(out, Tensor(probe)))

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


def one_row_nll(scores, target: int) -> Tensor:
    """`softmax_nll` of one [1, C] row of candidates, every column kept."""
    row = np.asarray(scores, dtype=np.float64).reshape(1, -1)
    return ag.softmax_nll(Tensor(row), [target], np.ones(row.shape, dtype=bool))


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
        # Batch dimensions must be equal; they do not broadcast.
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
            ag.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
        # 1-d operands are not promoted.
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3,\)"):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_relu_at_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        out = ref.reduce_sum(ag.relu(x))
        assert out.item() == 2.0
        out.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_sigmoid_extremes_stay_finite(self):
        out = ag.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[1] == 0.5

    def test_softmax_rows_sum_to_one(self, rng):
        out = ref.softmax(Tensor(rng.normal(size=(4, 7))))
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
            loss = one_row_nll(np.zeros(n), 0)
            assert loss.item() == pytest.approx(math.log(n), abs=1e-12)

    def test_softmax_nll_singleton_is_zero(self):
        assert one_row_nll([3.7], 0).item() == 0.0

    def test_softmax_nll_empty_raises(self):
        with pytest.raises(ValueError):
            one_row_nll(np.zeros(0), 0)

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
            one_row_nll(scores[r, mask[r]], np.flatnonzero(mask[r]).tolist().index(t)).item()
            for r, t in enumerate(targets)
        )
        assert rows == pytest.approx(alone, abs=1e-12)
        # A row with one candidate adds exactly 0.
        assert ag.softmax_nll(Tensor(scores[2:]), [4], mask[2:]).item() == 0.0

    def test_softmax_nll_masked_target_rejected(self):
        with pytest.raises(ValueError):
            ag.softmax_nll(Tensor(np.zeros((1, 3))), [1], np.array([[True, False, True]]))

    @pytest.mark.parametrize("target", [-1, 3])
    def test_softmax_nll_target_outside_the_row_rejected(self, target):
        with pytest.raises(ValueError, match="outside score vector of length 3"):
            ag.softmax_nll(Tensor(np.zeros((1, 3))), [target], np.ones((1, 3), dtype=bool))

    def test_softmax_nll_needs_one_target_per_row(self):
        with pytest.raises(ShapeError):
            ag.softmax_nll(Tensor(np.zeros((2, 3))), [1], np.ones((2, 3), dtype=bool))

    def test_softmax_nll_needs_2d_scores(self):
        with pytest.raises(ShapeError, match=r"\[Q, C\].*\(3,\)"):
            ag.softmax_nll(Tensor(np.zeros(3)), [0], np.ones(3, dtype=bool))

    def test_bce_shape_mismatch_rejected(self):
        probs = Tensor(np.full((2, 3), 0.5))
        with pytest.raises(ShapeError, match="binary_cross_entropy: shape mismatch"):
            ag.binary_cross_entropy(probs, np.ones((2, 2)), np.ones((2, 3), dtype=bool))
        with pytest.raises(ShapeError, match="binary_cross_entropy: shape mismatch"):
            ag.binary_cross_entropy(probs, np.ones((2, 3)), np.ones(3, dtype=bool))

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


class TestDtypes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_arrays_keep_their_dtype(self, dtype):
        for data in (np.arange(6, dtype=dtype).reshape(2, 3), np.array(1.5, dtype=dtype)):
            assert Tensor(data).data is data

    @pytest.mark.parametrize(
        "value",
        [3, True, 0.25, [1, 2], [[0.5], [1.5]], np.float32(1.5), np.float64(2.0),
         np.int64(4), np.arange(3), np.ones(2, dtype=np.float16)],
        ids=repr,
    )
    def test_everything_else_becomes_float64(self, value):
        data = Tensor(value).data
        assert type(data) is np.ndarray and data.dtype == np.float64
        np.testing.assert_array_equal(data, np.asarray(value, dtype=np.float64))


class TestBackwardStructure:
    def test_replay_frees_interior_nodes_and_leaves_keep_grads(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        hidden = ag.relu(ag.mul(x, Tensor(2.0)))
        loss = ref.reduce_sum(hidden)
        loss.backward()
        assert x.grad is not None
        for node in (hidden, loss):
            assert node.grad is None and node._parents == () and node._backward is None

    def test_first_gradient_is_a_c_ordered_copy(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        ref.reduce_sum(ag.transpose(x)).backward()
        assert x.grad.flags.c_contiguous and x.grad.flags.owndata

    def test_add_operands_each_hold_their_own_gradient(self, rng):
        # The add's incoming gradient is one `linear` hands over uncopied;
        # add passes that same array on to both operands, so each copies it.
        a, b = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2))
        w, bias = Tensor(rng.normal(size=(4, 2))), Tensor(rng.normal(size=2))
        ref.reduce_sum(ag.linear(ag.add(a, b), w, bias)).backward()
        np.testing.assert_array_equal(a.grad, b.grad)
        before = b.grad.copy()
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, before)

    def test_adopted_attention_gradients_are_c_ordered_and_own_their_data(self, rng):
        q, k, v, mask_bias = masked_attention_inputs(rng)
        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        ref.reduce_sum(ag.attention(*leaves, mask_bias, 2, 0.6)).backward()
        for t in leaves:
            assert t.grad.shape == t.data.shape
            assert t.grad.flags.c_contiguous and t.grad.flags.owndata

    def test_gather_hands_over_one_c_ordered_table_gradient(self, rng):
        # At BERT's vocabulary size the backward allocates the table's
        # gradient once, whatever the table's layout, and copies it no more.
        data = np.asfortranarray(rng.normal(size=(30_522, 64)).astype(np.float32))
        table = Tensor(data, requires_grad=True)
        loss = ref.reduce_sum(ag.gather(table, rng.integers(0, 30_522, size=(4, 16))))
        tracemalloc.start()
        try:
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= data.nbytes + 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert table.grad.dtype == np.float32
        assert table.grad.flags.c_contiguous and table.grad.flags.owndata

    def test_scatter_hands_over_its_gradient(self, rng):
        a = Tensor(rng.normal(size=(64, 8192)).astype(np.float32), requires_grad=True)
        loss = ref.reduce_sum(ag.scatter(a, rng.integers(-1, 16, size=a.data.shape), 16))
        tracemalloc.start()
        try:
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The gradient, plus its search's temporaries, but no copy of it.
        assert peak <= 1.5 * a.data.nbytes, f"peak {peak / 2**20:.1f} MiB"
        assert a.grad.dtype == np.float32
        assert a.grad.flags.c_contiguous and a.grad.flags.owndata

    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        ref.reduce_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self, rng):
        x = Tensor(rng.normal(size=5), requires_grad=True)
        ref.reduce_sum(ag.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_fanout_accumulates_once_per_consumer(self):
        # Diamond: y = x*x + x*x; each backward closure must run exactly once,
        # accumulating to 4x.
        x = Tensor([3.0], requires_grad=True)
        a = ag.mul(x, x)
        b = ag.mul(x, x)
        ref.reduce_sum(ag.add(a, b)).backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_tape_visits_each_node_once(self):
        x = Tensor([1.0], requires_grad=True)
        a = ag.mul(x, Tensor(2.0))
        b = ag.add(a, a)
        c = ag.add(b, a)
        tape = ag.build_tape(ref.reduce_sum(c))
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
            out = ref.reduce_sum(ag.mul(x, x))
        assert not out.requires_grad
        assert out._parents == ()

    def test_broadcast_add_reduces_gradient(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        ref.reduce_sum(ag.add(a, b)).backward()
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

    def test_linear_vector_weight(self, rng):
        # The heads' shapes: [B, n, d] states, a [d] weight, a scalar bias.
        for lead in ((5,), (2, 3)):
            assert_grads_match(
                ag.linear,
                [rng.uniform(-2, 2, (*lead, 4)), rng.uniform(-2, 2, (4,)), rng.uniform(-2, 2, ())],
                tol=1e-6,
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

    def test_transpose_and_reshape(self, rng):
        assert_grads_match(
            lambda t: ag.reshape(ag.transpose(t), (2, 6)), [rng.uniform(-2, 2, (3, 4))]
        )

    # permute and transpose_last_two live on in the per-text reference, whose
    # attention splits heads with them; the oracle's own gradients are checked.
    def test_permute_and_reshape(self, rng):
        assert_grads_match(
            lambda t: ag.reshape(ref.permute(t, (1, 0, 2)), (4, 6)),
            [rng.uniform(-2, 2, (2, 4, 3))],
        )

    def test_transpose_last_two(self, rng):
        assert_grads_match(ref.transpose_last_two, [rng.uniform(-2, 2, (2, 3, 4))])

    def test_gather_with_repeats(self, rng):
        idx = np.array([0, 2, 2, 1])
        assert_grads_match(
            lambda t: ag.gather(t, idx), [rng.uniform(-2, 2, (4, 3))]
        )

    def test_scatter(self, rng):
        columns = np.array([[0, 2, -1, 2], [1, 1, 0, -1]])
        assert_grads_match(
            lambda a: ag.scatter(a, columns, 3), [rng.uniform(-2, 2, (2, 4))]
        )

    def test_softmax(self, rng):
        assert_grads_match(ref.softmax, [rng.uniform(-2, 2, (3, 6))])

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
        keep = np.ones((1, 6), dtype=bool)
        assert_grads_match(
            lambda s: ag.softmax_nll(s, [2], keep), [rng.uniform(-2, 2, (1, 6))]
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


def kink_free_linear_inputs(rng, lead):
    """x, weight, bias whose pre-activations all keep |value| >= 0.05."""
    w, b = rng.uniform(-1, 1, (4, 3)), rng.uniform(-0.5, 0.5, (3,))
    while True:
        x = rng.uniform(-2, 2, (*lead, 4))
        if (np.abs(x @ w + b) >= 0.05).all():
            return x, w, b


def masked_attention_inputs(rng, texts=2, n=4, d=6):
    """q, k, v rows of `texts` texts and a bias masking two key columns."""
    q, k, v = (rng.uniform(-1, 1, (texts * n, d)) for _ in range(3))
    mask_bias = np.zeros((texts, n))
    mask_bias[0, 1] = mask_bias[texts - 1, n - 1] = MASK_BIAS
    return q, k, v, mask_bias


def values_and_grads(build, arrays):
    """Output of `build` on leaf tensors, and each leaf's gradient of a fixed
    random weighting of that output."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    probe = np.random.default_rng(5).uniform(-1, 1, out.data.shape)
    ref.reduce_sum(ag.mul(out, Tensor(probe))).backward()
    return out.data, [t.grad for t in tensors]


class TestFusedOps:
    """`linear` and `attention` against finite differences and against the
    chains of single ops they replace."""

    def test_linear_gradients(self, rng):
        for lead in ((5,), (2, 3)):
            x, w, b = kink_free_linear_inputs(rng, lead)
            for relu in (False, True):
                assert_grads_match(
                    lambda x, w, b: ag.linear(x, w, b, relu), [x, w, b], tol=1e-6
                )

    def test_attention_gradients_with_masked_columns(self, rng):
        q, k, v, mask_bias = masked_attention_inputs(rng)
        assert_grads_match(
            lambda q, k, v: ag.attention(q, k, v, mask_bias, 2, 0.6), [q, k, v]
        )

    @pytest.mark.parametrize("relu", [False, True])
    def test_linear_equals_matmul_add_relu(self, rng, relu):
        # A [d, d'] weight with a [d'] bias, and a head's [d] weight with a
        # scalar bias over [B, n, d] states.
        for x_shape, w_shape in (((7, 4), (4, 3)), ((2, 7, 4), (4,))):
            x, w = rng.uniform(-2, 2, x_shape), rng.uniform(-1, 1, w_shape)
            b = rng.uniform(-1, 1, w_shape[1:])
            fused, fused_grads = values_and_grads(lambda *t: ag.linear(*t, relu), [x, w, b])
            chain, chain_grads = values_and_grads(lambda *t: ref.linear(*t, relu), [x, w, b])
            np.testing.assert_array_equal(fused, chain)
            for got, want in zip(fused_grads, chain_grads):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_attention_equals_the_softmax_chain(self, rng):
        q, k, v, mask_bias = masked_attention_inputs(rng, texts=3, n=5, d=8)
        fused, fused_grads = values_and_grads(
            lambda *t: ag.attention(*t, mask_bias, 2, 0.6), [q, k, v]
        )
        chain, chain_grads = values_and_grads(
            lambda *t: ref.attention(*t, mask_bias, 2, 0.6), [q, k, v]
        )
        np.testing.assert_array_equal(fused, chain)
        for got, want in zip(fused_grads, chain_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_float32_attention_gives_masked_columns_exactly_no_weight(self, rng):
        q, k, v, mask_bias = masked_attention_inputs(rng, texts=3, n=5, d=8)
        q, k, v = (a.astype(np.float32) for a in (q, k, v))
        out = ag.attention(Tensor(q), Tensor(k), Tensor(v), mask_bias, 2, 0.6)
        # Whatever a masked key column holds, no row's context changes.
        for text, column in zip(*np.nonzero(mask_bias)):
            row = text * 5 + column
            k[row], v[row] = rng.uniform(-50, 50, (2, 8))
        again = ag.attention(Tensor(q), Tensor(k), Tensor(v), mask_bias, 2, 0.6)
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(again.data, out.data)

    def test_linear_relu_at_zero_is_positive_zero_with_zero_gradient(self):
        x = Tensor([[-1.0, 1.0], [2.0, 1.0]], requires_grad=True)
        w = Tensor([[1.0, 1.0], [1.0, -1.0]], requires_grad=True)
        b = Tensor([0.0, -1.0], requires_grad=True)
        # Pre-activations [[0, -3], [3, 0]]: two exact zeros.
        out = ag.linear(x, w, b, relu=True)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0], [3.0, 0.0]])
        assert not np.signbit(out.data).any()
        ref.reduce_sum(out).backward()
        np.testing.assert_array_equal(b.grad, [1.0, 0.0])
        np.testing.assert_array_equal(w.grad, [[2.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [1.0, 1.0]])

    def test_linear_relu_on_simd_sized_rows_is_bit_equal_to_the_chain(self, rng):
        # [1000, 256] outputs reach numpy's vectorized loops.  Zero weight
        # columns plus a +0.0 or -0.0 bias make those columns' pre-activations
        # exact zeros in every row.
        x, w, b = rng.uniform(-2, 2, (1000, 16)), rng.uniform(-1, 1, (16, 256)), rng.uniform(-1, 1, 256)
        zeros = np.arange(0, 256, 5)
        w[:, zeros] = 0.0
        b[zeros] = np.where(zeros % 2, -0.0, 0.0)
        pre = x @ w
        pre += b
        assert (pre[:, zeros] == 0.0).all() and np.signbit(b[zeros]).any()
        fused, fused_grads = values_and_grads(lambda *t: ag.linear(*t, True), [x, w, b])
        chain, chain_grads = values_and_grads(lambda *t: ref.linear(*t, True), [x, w, b])
        assert fused.tobytes() == chain.tobytes()
        assert not np.signbit(fused).any()
        for got, want in zip(fused_grads, chain_grads):
            assert got.tobytes() == want.tobytes()
        _, dw, db = fused_grads
        assert (dw[:, zeros] == 0.0).all() and (db[zeros] == 0.0).all()

    def test_three_linears_on_one_input_sum_its_gradient_like_the_chain(self, rng):
        # The encoder's q/k/v pattern: the first `dx` is adopted as the
        # input's gradient and the other two are added into it.
        x = rng.normal(size=(6, 4))
        params = [a for _ in range(3) for a in (rng.normal(size=(4, 3)), rng.normal(size=3))]

        def build(op):
            def fn(x, *p):
                q, k, v = (op(x, p[2 * i], p[2 * i + 1]) for i in range(3))
                return ag.add(ag.add(q, k), v)

            return fn

        fused, fused_grads = values_and_grads(build(ag.linear), [x, *params])
        chain, chain_grads = values_and_grads(build(ref.linear), [x, *params])
        assert fused.tobytes() == chain.tobytes()
        for got, want in zip(fused_grads, chain_grads):
            assert got.tobytes() == want.tobytes()

    def test_nan_pre_activation_stays_nan_and_the_block_output_is_unchanged(self, rng):
        # An FFN block, norm(x + contract(relu(expand(x)))), with one NaN in
        # row 1 of x: the fused relu keeps the NaN where the unfused relu
        # writes 0, but the residual add carries x's NaN to the norm either
        # way, so the block's output is the same.
        x = rng.normal(size=(3, 4))
        x[1, 2] = np.nan
        expand = Tensor(rng.normal(size=(4, 8))), Tensor(rng.normal(size=8))
        contract = Tensor(rng.normal(size=(8, 4))), Tensor(rng.normal(size=4))
        gain, shift = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))

        def block(linear):
            hidden = linear(Tensor(x), *expand, True)
            out = ag.layer_norm(ag.add(Tensor(x), linear(hidden, *contract)), gain, shift)
            return hidden.data, out.data

        fused_hidden, fused_out = block(ag.linear)
        chain_hidden, chain_out = block(ref.linear)
        assert np.isnan(fused_hidden[1]).all()
        np.testing.assert_array_equal(chain_hidden[1], 0.0)
        np.testing.assert_array_equal(fused_hidden[[0, 2]], chain_hidden[[0, 2]])
        assert np.isnan(fused_out[1]).all()
        np.testing.assert_array_equal(fused_out, chain_out)

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="linear"):
            ag.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
        with pytest.raises(ShapeError, match="linear"):
            ag.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(3)))
        with pytest.raises(ShapeError, match="linear"):
            ag.linear(Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.ones(1)))
        rows = Tensor(np.ones((4, 6)))
        with pytest.raises(ShapeError, match="attention"):
            ag.attention(rows, rows, rows, np.zeros((2, 3)), 2, 1.0)
        with pytest.raises(ShapeError, match="attention"):
            ag.attention(rows, rows, rows, np.zeros((2, 2)), 4, 1.0)
        with pytest.raises(ShapeError, match=r"attention: mask_bias must be \[B, n\]"):
            ag.attention(rows, rows, rows, np.zeros(4), 2, 1.0)
        with pytest.raises(ShapeError, match=r"layer_norm: gain/bias must be \(6,\)"):
            ag.layer_norm(rows, Tensor(np.ones(6)), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError, match=r"transpose needs a 2-d tensor, got shape \(6,\)"):
            ag.transpose(Tensor(np.ones(6)))


def test_every_recording_op_has_a_caller_in_the_package():
    """The package keeps only the ops the model records: each public op that
    records a node is called as `ag.<name>` somewhere in `fectek`, or from
    such an op."""
    package = Path(ag.__file__).parent
    module = ast.parse((package / "autograd.py").read_text(encoding="utf-8"))
    ops = {f.name: f for f in module.body if isinstance(f, ast.FunctionDef)}

    def called_names(tree) -> set[str]:
        return {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }

    recording = {
        name for name, f in ops.items() if not name.startswith("_") and "_record" in called_names(f)
    }
    used = set()
    for path in package.glob("*.py"):
        used |= {
            node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ag"
        }
    frontier = sorted(used & ops.keys())
    while frontier:
        for callee in (called_names(ops[frontier.pop()]) & ops.keys()) - used:
            used.add(callee)
            frontier.append(callee)
    assert {"linear", "attention", "transpose"} <= recording
    assert sorted(recording - used) == []


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
        loss = one_row_nll(scores, 0)
        assert loss.item() >= -1e-12

    @given(st.integers(min_value=1, max_value=40), st.floats(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_softmax_nll_equal_scores_is_log_n(self, n, value):
        loss = one_row_nll(np.full(n, value), 0)
        assert loss.item() == pytest.approx(math.log(n), abs=1e-9)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_forward_determinism(self, seed):
        def run():
            r = np.random.default_rng(seed)
            x = Tensor(r.normal(size=(3, 4)))
            w = Tensor(r.normal(size=(4, 2)))
            return ref.softmax(ag.matmul(x, w)).data

        first, second = run(), run()
        assert np.array_equal(first, second)
