import inspect
import math
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ude import numerics as nm
from ude.errors import DataError, NumericsError
from ude.nn import EncoderLayer, additive_mask, causal_prefix_mask
from ude.numerics import Adam, Tensor


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nm.matmul(Tensor(np.eye(2)), a)
        assert np.array_equal(out.data, a.data)

    def test_small_product_matches_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        out = nm.matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, np.array([[17.0], [39.0]]))
        assert np.allclose(out.data, naive_matmul(a, b))

    def test_zero_matrix(self, rng):
        z = Tensor(np.zeros((3, 4)))
        b = Tensor(rng.standard_normal((4, 5)))
        assert np.array_equal(nm.matmul(z, b).data, np.zeros((3, 5)))

    def test_random_against_triple_loop(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        assert np.allclose(nm.matmul(Tensor(a), Tensor(b)).data, naive_matmul(a, b), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="inner extents differ"):
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_uniform(self):
        out = nm.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_values_no_overflow(self):
        out = nm.softmax(Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_quarter_three_quarters(self):
        out = nm.softmax(Tensor([0.0, math.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_empty_axis_rejected(self):
        with pytest.raises(DataError, match="empty axis"):
            nm.softmax(Tensor(np.zeros((3, 0))))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = nm.softmax(Tensor(np.array(row)))
        assert abs(out.data.sum() - 1.0) < 1e-12

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, row, shift):
        x = np.array(row)
        a = nm.softmax(Tensor(x)).data
        b = nm.softmax(Tensor(x + shift)).data
        assert np.abs(a - b).max() < 1e-12


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = nm.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.abs(out.data).max() < 1e-6

    def test_two_point_row(self):
        out = nm.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        # mean 2, population std 1 (up to eps)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_zero_gain_collapses_to_bias(self, rng):
        x = Tensor(rng.standard_normal((3, 5)))
        b = rng.standard_normal(5)
        out = nm.layer_norm(x, Tensor(np.zeros(5)), Tensor(b))
        assert np.allclose(out.data, np.broadcast_to(b, (3, 5)))


class TestConv1d:
    def test_width_one_identity(self, rng):
        x = rng.standard_normal((6, 3))
        kernel = np.eye(3)[None, :, :]  # W=1, Cin=3, Cout=3
        out = nm.conv1d_temporal(Tensor(x), Tensor(kernel), stride=1, pad=0)
        assert np.allclose(out.data, x)

    def test_box_kernel_with_padding(self):
        x = np.array([[1.0], [2.0], [3.0]])
        kernel = np.ones((3, 1, 1))
        out = nm.conv1d_temporal(Tensor(x), Tensor(kernel), stride=1, pad=1)
        assert np.allclose(out.data.ravel(), [3.0, 6.0, 5.0])

    def test_sliding_window_oracle(self, rng):
        x = rng.standard_normal((9, 2))
        kernel = rng.standard_normal((3, 2, 4))
        out = nm.conv1d_temporal(Tensor(x), Tensor(kernel), stride=1, pad=1).data
        xp = np.vstack([np.zeros((1, 2)), x, np.zeros((1, 2))])
        for t in range(9):
            ref = sum(xp[t + w] @ kernel[w] for w in range(3))
            assert np.allclose(out[t], ref, atol=1e-12)

    def test_two_stride2_layers_give_quarter_length(self, rng):
        # width-4 kernels with pad 1 are the downsampling stack used by the models
        x = Tensor(rng.standard_normal((64, 2)))
        k = Tensor(rng.standard_normal((4, 2, 2)))
        once = nm.conv1d_temporal(x, k, stride=2, pad=1)
        twice = nm.conv1d_temporal(once, k, stride=2, pad=1)
        assert once.shape[0] == 32
        assert twice.shape[0] == 16

    @given(st.integers(4, 129))
    def test_quarter_length_property_even_t(self, t):
        if t % 2 == 1:
            t += 1
        x = Tensor(np.zeros((t, 1)))
        k = Tensor(np.zeros((4, 1, 1)))
        once = nm.conv1d_temporal(x, k, stride=2, pad=1)
        twice = nm.conv1d_temporal(once, k, stride=2, pad=1)
        assert once.shape[0] == t // 2
        assert twice.shape[0] == t // 4

    def test_too_short_signal_rejected(self):
        with pytest.raises(DataError, match="conv output length"):
            nm.conv1d_temporal(Tensor(np.zeros((1, 1))), Tensor(np.zeros((5, 1, 1))), stride=2)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_each_row_of_a_batch_is_its_own_sequence(self, rng, stride):
        # bit for bit: batched decoding must give what each request gets alone
        x = rng.standard_normal((5, 16, 3))
        kernel = rng.standard_normal((4, 3, 6))
        out = nm.conv1d_temporal(Tensor(x), Tensor(kernel), stride=stride, pad=1).data
        for b in range(5):
            alone = nm.conv1d_temporal(Tensor(x[b]), Tensor(kernel), stride=stride, pad=1)
            np.testing.assert_array_equal(out[b], alone.data)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x ** 2).sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_detached_tensor_gets_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x.detach()
        loss = (Tensor([3.0, 4.0]) * y).sum()
        # graph never touches x
        loss_x = (x * 0.0).sum() + loss
        loss_x.backward()
        assert np.allclose(x.grad, [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(DataError, match="scalar loss"):
            (x * 2.0).backward()

    def test_unreachable_parameter_keeps_zero(self):
        # no backward reached it, so it holds no array: Adam reads None as zero
        x = Tensor([1.0], requires_grad=True)
        other = Tensor([5.0], requires_grad=True)
        (x * 3.0).sum().backward()
        assert other.grad is None

    def test_fanout_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.sum().backward()
        assert np.allclose(x.grad, [7.0])

    def test_a_leaf_reached_by_two_paths_gets_their_sum(self):
        # add's vjp hands both paths the same array
        x = Tensor([2.0, -1.0], requires_grad=True)
        ((x + x) * Tensor([3.0, 5.0])).sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0, 10.0])

    def test_leaves_handed_one_array_keep_independent_gradients(self):
        # x + y gives both leaves the same gradient array, stored uncopied; a
        # second backward must sum into a new array, not write into it
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        ((x + y) * Tensor([5.0, 7.0])).sum().backward()
        y_first = y.grad
        np.testing.assert_array_equal(x.grad, [5.0, 7.0])
        (x * Tensor([10.0, 20.0])).sum().backward()
        np.testing.assert_array_equal(x.grad, [15.0, 27.0])
        np.testing.assert_array_equal(y.grad, [5.0, 7.0])
        np.testing.assert_array_equal(y_first, [5.0, 7.0])
        (y * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [15.0, 27.0])
        np.testing.assert_array_equal(y.grad, [7.0, 9.0])

    def test_a_parameter_holds_no_gradient_before_a_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        assert x.requires_grad and x.grad is None

    def test_grads_accumulate_across_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert np.allclose(x.grad, [5.0])

    def test_backward_frees_the_graph_and_keeps_leaf_gradients(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = x * 3.0
        loss = (h * h).sum()
        loss.backward()
        for node in (h._node, loss._node):
            assert node.grad is None and node.vjp is None and node.parents == ()
        assert h.grad is None and h.requires_grad
        assert x._node.parents == () and x._node.vjp is None
        np.testing.assert_array_equal(x.grad, [18.0, 36.0])

    def test_only_a_tensor_that_requires_grad_takes_a_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        x.grad = np.ones(2)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])
        constant = Tensor([1.0, 2.0])
        assert constant.grad is None and not constant.requires_grad
        with pytest.raises(DataError, match="does not require grad"):
            constant.grad = np.ones(2)


class TestFiniteChecks:
    def test_nan_raises(self):
        with pytest.raises(NumericsError), np.errstate(invalid="ignore"):
            Tensor([-1.0]) ** 0.5

    def test_overflow_raises(self):
        with pytest.raises(NumericsError), np.errstate(over="ignore"):
            Tensor([1e200]) * 1e200

    def test_huge_finite_values_pass_without_a_warning(self):
        # their sum of squares overflows, so the exact scan decides
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Tensor([1e308, 1e308]).shape == (2,)
            assert (Tensor([[1e300, -1e300]]) * 1.0).shape == (1, 2)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericsError):
                Tensor([1e308, bad, 1e308])


class TestAdam:
    def test_zero_grads_fresh_state_no_move(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        opt.zero_grad()
        opt.step()
        assert np.allclose(p.data, [1.0, 2.0])

    def test_single_step_matches_hand_update(self):
        # bias-corrected first step with g=1 gives a step of exactly -lr/(1+eps)
        p = Tensor([0.0], requires_grad=True)
        opt = Adam([("p", p)], lr=1e-4)
        p.grad = np.ones(1)
        opt.step()
        assert abs(p.data[0] + 1e-4) < 1e-10

    def test_lr_zero_is_identity(self, rng):
        p = Tensor(rng.standard_normal(5), requires_grad=True)
        before = p.data.copy()
        opt = Adam([("p", p)], lr=0.0)
        p.grad = rng.standard_normal(5)
        opt.step()
        assert np.array_equal(p.data, before)

    def test_nan_grad_names_parameter(self):
        p = Tensor([0.0], requires_grad=True)
        opt = Adam([("weights", p)], lr=0.1)
        p.grad = np.full(1, np.nan)
        with pytest.raises(NumericsError, match="weights"):
            opt.step()

    def test_zero_grad_drops_every_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        opt = Adam([("a", a), ("b", b)], lr=1e-4)
        (a.sum() * b.sum()).backward()
        assert a.grad is not None and b.grad is not None
        opt.zero_grad()
        assert a.grad is None and b.grad is None

    def test_a_missing_gradient_steps_as_an_explicit_zero(self, rng):
        # after a first step with a real gradient, so the moments are not zero
        first = rng.standard_normal(5)
        start = rng.standard_normal(5)
        runs = []
        for second in (None, np.zeros(5)):
            p = Tensor(start.copy(), requires_grad=True)
            opt = Adam([("p", p)], lr=1e-2)
            p.grad = first.copy()
            opt.step()
            p.grad = second
            opt.step()
            runs.append([p.data.tobytes(), opt.m[0].tobytes(), opt.v[0].tobytes()])
        assert runs[0] == runs[1]


class _Recorder:
    """Stands in for an optimizer and a loss and records each call."""

    def __init__(self, calls):
        self.calls = calls

    def zero_grad(self):
        self.calls.append("zero_grad")

    def backward(self):
        self.calls.append("backward")

    def step(self):
        self.calls.append("step")


class TestFit:
    def test_visits_each_index_once_per_epoch_in_the_given_order(self):
        orders = iter([[3, 0, 2, 1, 4], [4, 1, 0, 3, 2]])
        seen, opt = [], _Recorder([])

        def step(batch):
            seen.append(list(batch))
            return opt, {}

        assert nm.fit(2, 2, lambda: next(orders), opt, step) == [{"epoch": 0}, {"epoch": 1}]
        assert seen == [[3, 0], [2, 1], [4], [4, 1], [0, 3], [2]]

    def test_zeroes_back_propagates_and_steps_once_per_batch(self):
        calls = []
        opt = _Recorder(calls)

        def step(batch):
            calls.append("build")
            return opt, {}

        nm.fit(1, 2, lambda: [0, 1, 2], opt, step)
        assert calls == ["build", "zero_grad", "backward", "step"] * 2

    def test_a_batch_size_past_the_order_makes_one_batch(self):
        seen, opt = [], _Recorder([])

        def step(batch):
            seen.append(list(batch))
            return opt, {"loss": float(sum(batch))}

        assert nm.fit(1, 10, lambda: [2, 0, 1], opt, step) == [{"loss": 3.0, "epoch": 0}]
        assert seen == [[2, 0, 1]]

    def test_draws_the_order_once_and_ends_each_epoch_after_its_last_step(self):
        calls = []
        opt = _Recorder(calls)

        def order():
            calls.append("order")
            return [0, 1, 2]

        def end_epoch():
            calls.append("end")
            return {}

        nm.fit(2, 2, order, opt, lambda batch: (opt, {}), end_epoch)
        one_epoch = ["order", *["zero_grad", "backward", "step"] * 2, "end"]
        assert calls == one_epoch * 2

    def test_parameters_match_a_hand_written_adam_loop(self, rng):
        # fit steps the loss each batch built, with the optimizer it was given
        start, targets = rng.standard_normal(3), rng.standard_normal((5, 3))
        orders = [[3, 0, 4, 1, 2], [2, 4, 0, 1, 3]]

        def loss_of(p, batch):
            diff = p - Tensor(targets[batch])
            return (diff * diff).sum()

        p = Tensor(start.copy(), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        draws = iter(orders)
        nm.fit(2, 2, lambda: next(draws), opt, lambda batch: (loss_of(p, batch), {}))

        q = Tensor(start.copy(), requires_grad=True)
        ref = Adam([("q", q)], lr=0.1)
        for indices in orders:
            for s in range(0, 5, 2):
                ref.zero_grad()
                loss_of(q, indices[s:s + 2]).backward()
                ref.step()
        assert not np.array_equal(p.data, start)
        assert p.data.tobytes() == q.data.tobytes()

    def test_short_final_batch_still_gives_the_per_item_mean(self):
        values = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        opt = _Recorder([])

        def step(batch):
            return opt, {"loss": values[batch].mean(), "twice": 2 * values[batch].mean()}

        history = nm.fit(1, 2, lambda: np.arange(5), opt, step, lambda: {"dead_codes": 3})
        # the per-batch mean would be (1.5 + 6 + 16) / 3
        assert history == [{"loss": 6.2, "twice": 12.4, "epoch": 0, "dead_codes": 3}]
        assert list(history[0]) == ["loss", "twice", "epoch", "dead_codes"]

    def test_empty_order_gives_a_row_without_parts(self):
        history = nm.fit(2, 4, lambda: [], _Recorder([]),
                         lambda batch: pytest.fail("no batch to step"))
        assert history == [{"epoch": 0}, {"epoch": 1}]

    def test_numerics_error_in_step_names_the_epoch(self):
        calls = []
        opt = _Recorder(calls)

        def step(batch):
            if batch[0] >= 10:  # the second epoch's order starts at 10
                raise NumericsError("non-finite values produced by mul")
            return opt, {"loss": 1.0}

        orders = iter([[0, 1, 2], [10, 11, 12]])
        with pytest.raises(NumericsError, match="^non-finite loss at epoch 1: non-finite "
                                                "values produced by mul$") as info:
            nm.fit(2, 2, lambda: next(orders), opt, step)
        assert isinstance(info.value.__cause__, NumericsError)
        # the failing batch steps nothing
        assert calls == ["zero_grad", "backward", "step"] * 2

    def test_zero_epochs_return_nothing_and_leave_parameters_alone(self, rng):
        p = Tensor(rng.standard_normal(3), requires_grad=True)
        before = p.data.copy()
        opt = Adam([("p", p)], lr=0.1)

        def step(batch):
            loss = (p * p).sum()
            return loss, {"loss": loss.item()}

        assert nm.fit(0, 2, lambda: np.arange(4), opt, step) == []
        assert np.array_equal(p.data, before)
        assert len(nm.fit(1, 2, lambda: np.arange(4), opt, step)) == 1
        assert not np.array_equal(p.data, before)


class TestShapeOps:
    def test_concat_and_slices(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        cat = nm.concat([a, b], axis=0)
        assert cat.shape == (6, 3)
        cat[1:3].sum().backward()
        assert np.allclose(a.grad, [[0, 0, 0], [1, 1, 1]])
        assert np.allclose(b.grad[0], [1, 1, 1])
        assert np.allclose(b.grad[1:], 0)

    def test_repeat_rows(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        out = nm.repeat_rows(a, 3)
        assert out.shape == (6, 2)
        assert np.allclose(out.data[:3], [[1, 2]] * 3)
        out.sum().backward()
        assert np.allclose(a.grad, 3.0)

    def test_repeat_rows_repeats_along_time_of_a_batch(self):
        a = np.arange(12.0).reshape(2, 3, 2)
        out = nm.repeat_rows(Tensor(a), 2).data
        assert out.shape == (2, 6, 2)
        np.testing.assert_array_equal(out[1, 2:4], [a[1, 1], a[1, 1]])

    def test_take_per_row(self):
        a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = nm.take_per_row(a, np.array([0, 2, 3]))
        assert np.allclose(out.data, [0.0, 6.0, 11.0])

    def test_reduce_max_routes_gradient_to_first_argmax(self):
        a = Tensor(np.array([[1.0, 5.0, 5.0], [2.0, 0.0, 1.0]]), requires_grad=True)
        out = nm.reduce_max(a, axis=1)
        assert np.allclose(out.data, [5.0, 2.0])
        out.sum().backward()
        assert np.allclose(a.grad, [[0, 1, 0], [1, 0, 0]])

    def test_embedding_keeps_the_id_shape(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = nm.embedding(table, np.array([[3], [0]]))
        assert out.shape == (2, 1, 3)
        np.testing.assert_array_equal(out.data[:, 0], table.data[[3, 0]])

    def test_embedding_scatter(self):
        table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = nm.embedding(table, np.array([1, 1, 3]))
        assert np.allclose(out.data, [[2, 3], [2, 3], [6, 7]])
        out.sum().backward()
        assert np.allclose(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


def _forward_and_grads(build, arrays, w):
    """Output of build(*tensors) and the gradients of sum(output * w)."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    (out * Tensor(w)).sum().backward()
    return out.data, [t.grad for t in tensors]


def _assert_bit_identical(fused, composed, arrays, rng):
    w = rng.standard_normal(fused(*[Tensor(a) for a in arrays]).shape)
    out, grads = _forward_and_grads(fused, arrays, w)
    ref_out, ref_grads = _forward_and_grads(composed, arrays, w)
    assert np.array_equal(out, ref_out)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)


class TestFusedOps:
    """A bias in matmul and a scale and mask in softmax give, bit for bit,
    the values and gradients of the composed ops they replace."""

    @pytest.mark.parametrize("a_shape,b_shape,bias_shape", [
        ((5, 4), (4, 3), (3,)),
        ((2, 5, 4), (4, 3), (3,)),
        ((5, 4), (2, 4, 3), (5, 3)),
        ((2, 1, 5, 4), (3, 4, 6), (1, 5, 6)),
    ])
    def test_matmul_bias_equals_matmul_plus_bias(self, rng, a_shape, b_shape, bias_shape):
        arrays = [rng.standard_normal(s) for s in (a_shape, b_shape, bias_shape)]
        _assert_bit_identical(lambda a, b, c: nm.matmul(a, b, c),
                              lambda a, b, c: nm.matmul(a, b) + c, arrays, rng)

    @pytest.mark.parametrize("mask_shape", [None, (4, 6), (2, 1, 1, 6)])
    def test_attention_softmax_equals_scaled_masked_composition(self, rng, mask_shape):
        q, k = rng.standard_normal((2, 3, 4, 5)), rng.standard_normal((2, 3, 6, 5))
        scale = 1.0 / math.sqrt(5)
        mask = None
        if mask_shape is not None:
            visible = rng.uniform(size=mask_shape) < 0.6
            visible[..., 0] = True
            mask = additive_mask(visible)

        def fused(q, k):
            return nm.softmax(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))),
                              scale=scale, add_mask=mask)

        def composed(q, k):
            scores = nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))) * scale
            if mask is not None:
                scores = scores + Tensor(mask)
            return nm.softmax(scores, axis=-1)

        _assert_bit_identical(fused, composed, [q, k], rng)
        scores = q @ k.swapaxes(-1, -2) * scale + (0.0 if mask is None else mask)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        assert np.array_equal(fused(Tensor(q), Tensor(k)).data, e / e.sum(axis=-1, keepdims=True))

    def test_relu_equals_where(self, rng):
        a = rng.standard_normal((6, 7))
        a[::2, ::3] = 0.0
        assert np.array_equal(nm.relu(a).data, np.where(a > 0, a, 0.0))


def _reference_layer_norm(x, gain, bias, g):
    """layer_norm's output and input gradients, written with np.mean."""
    mu = np.mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xh = xc * inv
    gh = g * gain
    gx = inv * (gh - np.mean(gh, axis=-1, keepdims=True)
                - xh * np.mean(gh * xh, axis=-1, keepdims=True))
    lead = tuple(range(x.ndim - 1))
    return xh * gain + bias, [gx, (g * xh).sum(axis=lead), g.sum(axis=lead)]


def _reference_softmax(x, g, axis, scale, mask):
    y = x * scale
    if mask is not None:
        y += mask
    y -= np.max(y, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= np.sum(y, axis=axis, keepdims=True)
    return y, [y * (g - np.sum(g * y, axis=axis, keepdims=True)) * scale]


def _reference_log_softmax(x, g, axis):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    y = shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return y, [g - np.exp(y) * np.sum(g, axis=axis, keepdims=True)]


def _reference_mean(x, g, axis, keepdims):
    count = x.size if axis is None else np.prod([x.shape[ax] for ax in np.atleast_1d(axis)])
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.mean(x, axis=axis, keepdims=keepdims), [np.broadcast_to(g, x.shape) / count]


def _assert_matches_reference(build, reference, arrays, rng):
    w = rng.standard_normal(np.shape(build(*[Tensor(a) for a in arrays]).data))
    out, grads = _forward_and_grads(build, arrays, w)
    ref_out, ref_grads = reference(*arrays, w)
    assert np.array_equal(out, ref_out)
    assert len(grads) == len(ref_grads)
    for grad, ref in zip(grads, ref_grads):
        assert np.array_equal(grad, ref)


class TestReductionsMatchNumpysWrappers:
    """layer_norm, softmax, log_softmax and mean reduce with ufunc reductions;
    their outputs and input gradients equal, bit for bit, the same formulas
    written with np.mean, np.max and np.sum. Shapes include one decode step
    ([1, 1, D] rows, [1, H, 1, keys] scores) and a training batch."""

    @pytest.mark.parametrize("shape", [(1, 1, 64), (1, 1, 16), (8, 37, 64), (5, 3)])
    def test_layer_norm(self, rng, shape):
        x = rng.standard_normal(shape) * 3.0 + 1.5
        arrays = [x, _positive(rng, shape[-1]), rng.standard_normal(shape[-1])]
        _assert_matches_reference(nm.layer_norm, _reference_layer_norm, arrays, rng)

    @pytest.mark.parametrize("shape, axis, masked", [
        ((1, 4, 1, 97), -1, True), ((1, 4, 1, 97), -1, False), ((8, 4, 37, 37), -1, True),
        ((6, 5), 0, False)])
    def test_softmax(self, rng, shape, axis, masked):
        mask = None
        if masked:
            visible = rng.uniform(size=(1,) * (len(shape) - 1) + shape[-1:]) < 0.7
            visible[..., 0] = True
            mask = additive_mask(visible)
        _assert_matches_reference(
            lambda x: nm.softmax(x, axis=axis, scale=0.25, add_mask=mask),
            lambda x, g: _reference_softmax(x, g, axis, 0.25, mask),
            [rng.standard_normal(shape) * 4.0], rng)

    @pytest.mark.parametrize("shape, axis", [((256, 66), -1), ((1, 10), -1), ((6, 5), 0)])
    def test_log_softmax(self, rng, shape, axis):
        _assert_matches_reference(lambda x: nm.log_softmax(x, axis=axis),
                                  lambda x, g: _reference_log_softmax(x, g, axis),
                                  [rng.standard_normal(shape) * 4.0], rng)

    @pytest.mark.parametrize("axis, keepdims", [
        (None, False), (None, True), (1, False), (-1, True), ((0, 2), False), ((0, 2), True)])
    def test_mean(self, rng, axis, keepdims):
        _assert_matches_reference(lambda x: nm.tmean(x, axis=axis, keepdims=keepdims),
                                  lambda x, g: _reference_mean(x, g, axis, keepdims),
                                  [rng.standard_normal((3, 7, 5)) * 2.0 + 0.3], rng)


def _positive(rng, shape):
    return rng.uniform(0.5, 1.5, shape)


# Every op of the engine: a builder over tensors and its input arrays.
OP_CASES = {
    "add": (lambda a, b: nm.add(a, b), lambda r: [r.standard_normal((3, 4)), r.standard_normal(4)]),
    "sub": (lambda a, b: nm.sub(a, b), lambda r: [r.standard_normal((3, 4)), r.standard_normal(4)]),
    "mul": (lambda a, b: nm.mul(a, b), lambda r: [r.standard_normal((3, 4)), r.standard_normal(4)]),
    "div": (lambda a, b: nm.div(a, b), lambda r: [r.standard_normal((3, 4)), _positive(r, 4)]),
    "neg": (lambda a: nm.neg(a), lambda r: [r.standard_normal((3, 4))]),
    "power": (lambda a: nm.power(a, 1.5), lambda r: [_positive(r, (3, 4))]),
    "relu": (lambda a: nm.relu(a), lambda r: [r.standard_normal((3, 4))]),
    "matmul": (lambda a, b, c: nm.matmul(a, b, c),
               lambda r: [r.standard_normal((2, 3, 4)), r.standard_normal((4, 5)),
                          r.standard_normal(5)]),
    "tsum": (lambda a: nm.tsum(a, axis=1), lambda r: [r.standard_normal((3, 4))]),
    "tmean": (lambda a: nm.tmean(a), lambda r: [r.standard_normal((3, 4))]),
    "reduce_max": (lambda a: nm.reduce_max(a, axis=0), lambda r: [r.standard_normal((3, 4))]),
    "softmax": (lambda a: nm.softmax(a, scale=0.5, add_mask=additive_mask(np.tri(4) > 0)),
                lambda r: [r.standard_normal((2, 4, 4))]),
    "log_softmax": (lambda a: nm.log_softmax(a), lambda r: [r.standard_normal((3, 4))]),
    "layer_norm": (lambda a, g, b: nm.layer_norm(a, g, b),
                   lambda r: [r.standard_normal((3, 4)), _positive(r, 4), r.standard_normal(4)]),
    "conv1d_temporal": (lambda a, k: nm.conv1d_temporal(a, k, stride=2, pad=1),
                        lambda r: [r.standard_normal((2, 8, 3)), r.standard_normal((4, 3, 2))]),
    "embedding": (lambda t: nm.embedding(t, np.array([[0, 2], [2, 1]])),
                  lambda r: [r.standard_normal((3, 4))]),
    "take": (lambda a: nm.take(a, (slice(1, 3), 2)), lambda r: [r.standard_normal((3, 4))]),
    "take_per_row": (lambda a: nm.take_per_row(a, np.array([3, 0, 3])),
                     lambda r: [r.standard_normal((3, 4))]),
    "concat": (lambda a, b: nm.concat([a, b, a], axis=-1),
               lambda r: [r.standard_normal((3, 4)), r.standard_normal((3, 2))]),
    "repeat_rows": (lambda a: nm.repeat_rows(a, 2), lambda r: [r.standard_normal((2, 3, 4))]),
    "reshape": (lambda a: nm.reshape(a, (4, 3)), lambda r: [r.standard_normal((3, 4))]),
    "transpose": (lambda a: nm.transpose(a, (1, 0)), lambda r: [r.standard_normal((3, 4))]),
}


@pytest.fixture
def read_only_output_grads(monkeypatch):
    """Hand every vjp its incoming gradient as a read-only view, so a vjp
    that writes into it raises."""
    from_op = nm._from_op

    def guarded(data, parents, vjp, op):
        def read_only_vjp(g):
            g = g.view()
            g.setflags(write=False)
            return vjp(g)

        return from_op(data, parents, read_only_vjp, op)

    monkeypatch.setattr(nm, "_from_op", guarded)


class TestNoVjpWritesIntoItsGradient:
    """`_accumulate` stores the first gradient uncopied; that is safe only
    while no vjp writes into the gradient it receives."""

    def test_every_op_has_a_case(self):
        ops = {name for name, fn in vars(nm).items()
               if inspect.isfunction(fn) and "_from_op" in fn.__code__.co_names}
        assert ops == set(OP_CASES)

    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_op_backward_with_a_read_only_gradient(self, request, op):
        build, inputs = OP_CASES[op]
        arrays = inputs(np.random.default_rng(3))
        w = np.random.default_rng(4).standard_normal(build(*[Tensor(a) for a in arrays]).shape)
        _, grads = _forward_and_grads(build, arrays, w)
        request.getfixturevalue("read_only_output_grads")
        _, guarded = _forward_and_grads(build, arrays, w)
        for g, ref in zip(guarded, grads):
            assert np.array_equal(g, ref)

    def test_encoder_layer_backward_with_read_only_gradients(self, rng, read_only_output_grads):
        layer = EncoderLayer(8, 2, 16, rng)
        cache = [Tensor(rng.standard_normal((1, 2, 2, 4)), requires_grad=True) for _ in range(2)]
        x = Tensor(rng.standard_normal((1, 3, 8)), requires_grad=True)
        mask = additive_mask(causal_prefix_mask(2, 3))[2:]
        layer(x, mask, list(cache)).sum().backward()
        assert all(np.isfinite(t.grad).all() for t in [x, *cache])


# Four 2 MiB blocks, the size of a 256-frame DMD request's attention
# temporaries, allocated and freed 100 times in a fresh process.
_CHURN = """
import resource, numpy as np, ude.numerics
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    blocks = [np.ones((4, 256, 256)) for _ in range(4)]
    del blocks
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are pinned through glibc's mallopt")
def test_import_pins_malloc_so_freed_blocks_are_reused():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _CHURN], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    # about 200k faults (each block mapped and unmapped again) without the pin
    assert int(out.stdout) < 20_000
