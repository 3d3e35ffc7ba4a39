"""Finite-difference checks for every differentiable op (and compositions).

Each op is exercised on 20 random instances; analytic gradients must match
central differences (h=1e-5) to a relative error below 1e-4.
"""

import numpy as np
import pytest
from gradcheck import check_gradients

from ude import numerics as nm
from ude.nn import (EncoderLayer, MultiHeadAttention, TransformerEncoder,
                    additive_mask, causal_prefix_mask)
from ude.numerics import Tensor

N_INSTANCES = 20


def _weighted(rng, shape):
    """Random projection to a scalar so gradients are generic."""
    w = rng.standard_normal(shape)

    def reduce_(t):
        return (t * Tensor(w)).sum()

    return reduce_


def _cases(seed):
    return [np.random.default_rng(seed + i) for i in range(N_INSTANCES)]


@pytest.mark.parametrize("seed", [0])
def test_add_mul_div(seed):
    for rng in _cases(seed):
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (3, 4)) + 1.5  # keep divisor away from zero
        red = _weighted(rng, (3, 4))
        check_gradients(lambda x, y: red((x * y + x) / y), [a, b])


def test_broadcast_add():
    for rng in _cases(1):
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (4,))
        red = _weighted(rng, (3, 4))
        check_gradients(lambda x, y: red(x + y), [a, b])


def test_matmul():
    for rng in _cases(2):
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (4, 2))
        red = _weighted(rng, (3, 2))
        check_gradients(lambda x, y: red(nm.matmul(x, y)), [a, b])


def test_batched_matmul():
    for rng in _cases(3):
        a = rng.uniform(-1, 1, (2, 3, 4))
        b = rng.uniform(-1, 1, (2, 4, 3))
        red = _weighted(rng, (2, 3, 3))
        check_gradients(lambda x, y: red(nm.matmul(x, y)), [a, b])


def test_relu():
    for rng in _cases(4):
        a = rng.uniform(-1, 1, (4, 4))
        a[np.abs(a) < 1e-3] = 0.5  # stay clear of the kink
        red = _weighted(rng, (4, 4))
        check_gradients(lambda x: red(nm.relu(x)), [a])


def test_pow():
    for rng in _cases(5):
        a = rng.uniform(0.2, 1.0, (3, 3))
        red = _weighted(rng, (3, 3))
        check_gradients(lambda x: red(x ** 3), [a])
        check_gradients(lambda x: red(x ** 0.5), [a])


def test_softmax_and_log_softmax():
    for rng in _cases(6):
        a = rng.uniform(-1, 1, (3, 5))
        red = _weighted(rng, (3, 5))
        check_gradients(lambda x: red(nm.softmax(x, axis=-1)), [a])
        check_gradients(lambda x: red(nm.log_softmax(x, axis=-1)), [a])


def test_layer_norm():
    for rng in _cases(7):
        x = rng.uniform(-1, 1, (3, 6))
        gain = rng.uniform(0.5, 1.5, 6)
        bias = rng.uniform(-0.5, 0.5, 6)
        red = _weighted(rng, (3, 6))
        check_gradients(lambda a, g, b: red(nm.layer_norm(a, g, b)), [x, gain, bias])


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv1d(stride, pad):
    for rng in _cases(8):
        x = rng.uniform(-1, 1, (8, 2))
        k = rng.uniform(-1, 1, (3, 2, 3))
        t_out = (8 + 2 * pad - 3) // stride + 1
        red = _weighted(rng, (t_out, 3))
        check_gradients(lambda a, b: red(nm.conv1d_temporal(a, b, stride=stride, pad=pad)), [x, k])


@pytest.mark.parametrize("stride", [1, 2])
def test_conv1d_on_a_batch(stride):
    for rng in _cases(11):
        x = rng.uniform(-1, 1, (3, 8, 2))
        k = rng.uniform(-1, 1, (4, 2, 3))
        t_out = (8 + 2 - 4) // stride + 1
        red = _weighted(rng, (3, t_out, 3))
        check_gradients(lambda a, b: red(nm.conv1d_temporal(a, b, stride=stride, pad=1)), [x, k])


def test_repeat_rows_on_a_batch():
    for rng in _cases(12):
        a = rng.uniform(-1, 1, (2, 4, 3))
        red = _weighted(rng, (2, 8, 3))
        check_gradients(lambda x: red(nm.repeat_rows(x, 2)), [a])


def test_reductions_and_shapes():
    for rng in _cases(9):
        a = rng.uniform(-1, 1, (3, 4))
        red_row = _weighted(rng, (3,))
        check_gradients(lambda x: red_row(x.sum(axis=1)), [a])
        check_gradients(lambda x: red_row(x.mean(axis=1)), [a])
        check_gradients(lambda x: red_row(nm.reduce_max(x, axis=1)), [a])
        red_flat = _weighted(rng, (12,))
        check_gradients(lambda x: red_flat(x.reshape(12)), [a])
        red_t = _weighted(rng, (4, 3))
        check_gradients(lambda x: red_t(x.transpose((1, 0))), [a])


def test_indexing_ops():
    for rng in _cases(10):
        a = rng.uniform(-1, 1, (5, 3))
        red = _weighted(rng, (2, 3))
        check_gradients(lambda x: red(x[1:3]), [a])
        table = rng.uniform(-1, 1, (4, 3))
        ids = rng.integers(0, 4, size=6)
        red_e = _weighted(rng, (6, 3))
        check_gradients(lambda t: red_e(nm.embedding(t, ids)), [table])
        red_b = _weighted(rng, (3, 2, 3))
        check_gradients(lambda t: red_b(nm.embedding(t, ids.reshape(3, 2))), [table])
        red_r = _weighted(rng, (10, 3))
        check_gradients(lambda x: red_r(nm.repeat_rows(x, 2)), [a])
        row_ids = rng.integers(0, 3, size=5)
        red_p = _weighted(rng, (5,))
        check_gradients(lambda x: red_p(nm.take_per_row(x, row_ids)), [a])
        b = rng.uniform(-1, 1, (2, 3))
        red_c = _weighted(rng, (7, 3))
        check_gradients(lambda x, y: red_c(nm.concat([x, y], axis=0)), [a, b])


def test_attention_layer_composition():
    rng = np.random.default_rng(11)
    attn = MultiHeadAttention(8, 2, rng)
    mask = additive_mask(causal_prefix_mask(2, 3))
    x = rng.uniform(-1, 1, (1, 5, 8))
    red = _weighted(rng, (1, 5, 8))

    def build(xin):
        return red(attn(xin, mask))

    check_gradients(build, [x])


def test_attention_with_cache_composition():
    # two new rows attend to three cached rows plus themselves; gradients
    # flow into the new rows and into the cached K and V
    rng = np.random.default_rng(14)
    attn = MultiHeadAttention(8, 2, rng)
    mask = additive_mask(causal_prefix_mask(3, 2))[3:]
    x = rng.uniform(-1, 1, (1, 2, 8))
    k = rng.uniform(-1, 1, (1, 2, 3, 4))
    v = rng.uniform(-1, 1, (1, 2, 3, 4))
    red = _weighted(rng, (1, 2, 8))

    def build(xin, kin, vin):
        return red(attn(xin, mask, [kin, vin]))

    check_gradients(build, [x, k, v])


def test_batched_attention_with_padding_mask():
    # two sequences of 3 and 2 rows in one [2, 3, 8] batch; the padded key of
    # the second is hidden, and its padded query row is left out of the loss
    rng = np.random.default_rng(15)
    attn = MultiHeadAttention(8, 2, rng)
    visible = np.array([[True, True, True], [True, True, False]])
    mask = additive_mask(visible)[:, None, None, :]
    x = rng.uniform(-1, 1, (2, 3, 8))
    w = rng.standard_normal((2, 3, 8)) * visible[:, :, None]

    def build(xin):
        return (attn(xin, mask) * Tensor(w)).sum()

    check_gradients(build, [x])


def test_full_encoder_composition():
    rng = np.random.default_rng(12)
    enc = TransformerEncoder(2, 8, 2, rng)
    x = rng.uniform(-1, 1, (1, 4, 8))
    red = _weighted(rng, (1, 4, 8))
    check_gradients(lambda xin: red(enc(xin)), [x])


def test_parameter_gradients_through_encoder():
    rng = np.random.default_rng(13)
    layer = EncoderLayer(6, 2, 12, rng)
    x = Tensor(rng.uniform(-1, 1, (1, 3, 6)))
    red = _weighted(rng, (1, 3, 6))
    w = layer.attn.wq.w

    loss = red(layer(x))
    loss.backward()
    analytic = w.grad.copy()

    h = 1e-5
    numeric = np.zeros_like(analytic)
    for i in range(w.data.shape[0]):
        for j in range(w.data.shape[1]):
            w.data[i, j] += h
            hi = red(layer(x)).item()
            w.data[i, j] -= 2 * h
            lo = red(layer(x)).item()
            w.data[i, j] += h
            numeric[i, j] = (hi - lo) / (2 * h)
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.abs(analytic - numeric).max() / scale < 1e-4
