"""Incremental attention: rows fed through a K/V cache equal the rows of one
full forward under `causal_prefix_mask`; a batch of padded sequences equals
each sequence alone; an encoder that computes its last layer from a start
row on gives the full forward's rows from there. A recorded graph keeps only
the arrays its vjps read."""

import numpy as np
import pytest

from ude import numerics as nm
from ude.errors import ConfigError
from ude.nn import (Linear, Module, MultiHeadAttention, TransformerEncoder, additive_mask,
                    causal_prefix_mask)
from ude.numerics import Tensor

DIM, HEADS = 8, 2


def _incremental(run, x, cond_len):
    """Feed the condition rows plus the first motion row as one masked
    chunk, then every later row alone; return the stacked outputs."""
    first = cond_len + 1
    outs = [run(x[:, :first], additive_mask(causal_prefix_mask(cond_len, 1))).data]
    for r in range(first, x.shape[1]):
        outs.append(run(x[:, r:r + 1], None).data)
    return np.concatenate(outs, axis=1)


@pytest.mark.parametrize("cond_len", [0, 3])
def test_attention_rows_one_at_a_time_match_full_forward(rng, cond_len):
    attn = MultiHeadAttention(DIM, HEADS, rng)
    x = nm.Tensor(rng.standard_normal((1, cond_len + 5, DIM)))
    full = attn(x, additive_mask(causal_prefix_mask(cond_len, 5))).data
    cache = []
    with nm.no_grad():
        rows = _incremental(lambda part, mask: attn(part, mask, cache), x, cond_len)
    assert np.abs(rows - full).max() < 1e-12
    assert [t.shape for t in cache] == [(1, HEADS, cond_len + 5, DIM // HEADS)] * 2


@pytest.mark.parametrize("cond_len", [0, 3])
def test_encoder_rows_one_at_a_time_match_full_forward(rng, cond_len):
    enc = TransformerEncoder(3, DIM, HEADS, rng)
    x = nm.Tensor(rng.standard_normal((1, cond_len + 6, DIM)))
    full = enc(x, additive_mask(causal_prefix_mask(cond_len, 6))).data
    caches = [[] for _ in enc.layers]
    with nm.no_grad():
        rows = _incremental(lambda part, mask: enc(part, mask, caches), x, cond_len)
    assert np.abs(rows - full).max() < 1e-12


def _masks(batch, cond_len, length):
    """No mask, one [L, L] mask for every sequence, and a [B, 1, L, L] mask
    that also hides the second sequence's last condition row."""
    shared = causal_prefix_mask(cond_len, length - cond_len)
    per_row = np.stack([shared] * batch)
    per_row[1, :, cond_len - 1] = False
    return {"none": None, "shared": additive_mask(shared),
            "per-row": additive_mask(per_row)[:, None]}


@pytest.mark.parametrize("mask", ["none", "shared", "per-row"])
@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_encoder_rows_from_start_equal_the_full_forwards_rows(rng, mask, cached):
    # the last layer's queries, residuals, feed-forward and final norm see
    # fewer rows, so matmul may take another kernel: equal to 1e-12, not bit
    # for bit; its keys and values, and so every cache, stay bit-identical
    enc = TransformerEncoder(2, DIM, HEADS, rng)
    x = nm.Tensor(rng.standard_normal((2, 7, DIM)))
    add_mask = _masks(2, 3, 7)[mask]
    full_caches, caches = ([[] for _ in enc.layers] for _ in range(2)) if cached else (None,) * 2
    full = enc(x, add_mask, full_caches).data
    rows = enc(x, add_mask, caches, start=3).data
    assert rows.shape == (2, 4, DIM)
    assert np.abs(rows - full[:, 3:]).max() < 1e-12
    for got, want in zip(caches or [], full_caches or []):
        assert all(np.array_equal(a.data, b.data) for a, b in zip(got, want))


class _Shifted(Module):
    def __init__(self, rng):
        self.layers = [Linear(2, 3, rng)]
        self.shift = Tensor(np.ones(3))


def test_named_parameters_are_the_named_tensors_that_take_gradients(rng):
    # a tensor without grad is state that a checkpoint saves and no optimizer steps
    model = _Shifted(rng)
    assert [name for name, _ in model.named_tensors()] == ["layers.0.w", "layers.0.b", "shift"]
    assert [name for name, _ in model.named_parameters()] == ["layers.0.w", "layers.0.b"]


def test_attention_dim_must_split_across_the_heads(rng):
    with pytest.raises(ConfigError, match="divide evenly across heads"):
        MultiHeadAttention(6, 4, rng)


def test_filling_empty_caches_leaves_the_forward_unchanged(rng):
    enc = TransformerEncoder(2, DIM, HEADS, rng)
    x = nm.Tensor(rng.standard_normal((1, 4, DIM)))
    mask = additive_mask(causal_prefix_mask(1, 3))
    assert np.array_equal(enc(x, mask).data, enc(x, mask, [[] for _ in enc.layers]).data)


def test_batched_attention_with_key_padding_equals_each_sequence_alone(rng):
    attn = MultiHeadAttention(DIM, HEADS, rng)
    lengths = [5, 2, 4]
    x = rng.standard_normal((3, 5, DIM))  # rows past a length are padding
    visible = np.arange(5)[None, :] < np.array(lengths)[:, None]
    out = attn(nm.Tensor(x), additive_mask(visible)[:, None, None, :]).data
    assert out.shape == (3, 5, DIM)
    for b, n in enumerate(lengths):
        alone = attn(nm.Tensor(x[b:b + 1, :n])).data[0]
        assert np.abs(out[b, :n] - alone).max() < 1e-12


def _arrays_in_graph(root):
    """Every distinct buffer the graph below tensor `root` keeps alive: what
    each node's vjp closure holds. (A leaf's gradient is its own, kept with
    or without a graph.)"""
    buffers, seen, stack = {}, set(), [root._node]

    def keep(arr):
        while arr.base is not None:
            arr = arr.base
        buffers[id(arr)] = arr

    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        for cell in (node.vjp.__closure__ or ()) if node.vjp is not None else ():
            value = cell.cell_contents
            assert not isinstance(value, nm.Tensor), "a vjp holds a whole tensor"
            if isinstance(value, np.ndarray):
                keep(value)
        stack.extend(node.parents)
    return list(buffers.values())


def test_recorded_attention_keeps_one_score_array_per_layer(rng):
    # scores are [B, H, L, L] = [2, 2, 5, 5]: 100 values, a size no other
    # array of this graph has (dh = 4, so q, k and v hold 80). The softmax
    # keeps its output; the raw scores it was fed are read by no vjp.
    layers, batch, length = 2, 2, 5
    enc = TransformerEncoder(layers, DIM, HEADS, rng)
    x = nm.Tensor(rng.standard_normal((batch, length, DIM)), requires_grad=True)
    loss = enc(x, additive_mask(causal_prefix_mask(0, length))).sum()
    score_size = batch * HEADS * length * length
    scores = [a for a in _arrays_in_graph(loss) if a.size == score_size]
    assert len(scores) == layers


def test_recorded_graph_holds_no_residual_sum_and_no_padded_conv_input(rng):
    x = nm.Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
    kernel = nm.Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True)
    h = nm.conv1d_temporal(x, kernel, pad=2)  # pads [2, 5, 3] to [2, 9, 3]
    residual = h + nm.Tensor(rng.standard_normal(h.shape))
    gain, bias = nm.Tensor(np.ones(4), requires_grad=True), nm.Tensor(np.zeros(4))
    weights = nm.Tensor(rng.standard_normal(h.shape))
    loss = (nm.layer_norm(residual, gain, bias) * weights).sum()
    buffers = _arrays_in_graph(loss)
    assert not any(a.shape == (2, 9, 3) for a in buffers)
    assert not any(a is residual.data for a in buffers)
    # the graph still back-propagates through both
    loss.backward()
    assert np.abs(x.grad).max() > 0 and np.abs(kernel.grad).max() > 0
