import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ude import numerics as nm
from ude.errors import ContractError, DimensionError, NumericsError, TrainingError
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
        with pytest.raises(DimensionError):
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
        with pytest.raises(DimensionError):
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
        with pytest.raises(DimensionError):
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
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_unreachable_parameter_keeps_zero(self):
        x = Tensor([1.0], requires_grad=True)
        other = Tensor([5.0], requires_grad=True)
        (x * 3.0).sum().backward()
        assert np.allclose(other.grad, [0.0])

    def test_fanout_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.sum().backward()
        assert np.allclose(x.grad, [7.0])

    def test_grads_accumulate_across_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert np.allclose(x.grad, [5.0])

    def test_backward_frees_the_graph_and_keeps_leaf_gradients(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = x * 3.0
        (h * h).sum().backward()
        assert h.grad is None and h._vjp is None and h._parents == ()
        np.testing.assert_array_equal(x.grad, [18.0, 36.0])


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
        p = Tensor([1.0, 2.0], requires_grad=True, name="p")
        opt = Adam([("p", p)], lr=0.1)
        opt.zero_grad()
        opt.step()
        assert np.allclose(p.data, [1.0, 2.0])

    def test_single_step_matches_hand_update(self):
        # bias-corrected first step with g=1 gives a step of exactly -lr/(1+eps)
        p = Tensor([0.0], requires_grad=True, name="p")
        opt = Adam([("p", p)], lr=1e-4)
        p.grad[:] = 1.0
        opt.step()
        assert abs(p.data[0] + 1e-4) < 1e-10

    def test_lr_zero_is_identity(self, rng):
        p = Tensor(rng.standard_normal(5), requires_grad=True, name="p")
        before = p.data.copy()
        opt = Adam([("p", p)], lr=0.0)
        p.grad[:] = rng.standard_normal(5)
        opt.step()
        assert np.array_equal(p.data, before)

    def test_nan_grad_names_parameter(self):
        p = Tensor([0.0], requires_grad=True, name="weights")
        opt = Adam([("weights", p)], lr=0.1)
        p.grad[:] = np.nan
        with pytest.raises(TrainingError, match="weights"):
            opt.step()


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
