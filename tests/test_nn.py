"""Incremental attention: rows fed through a K/V cache equal the rows of one
full forward under `causal_prefix_mask`; a batch of padded sequences equals
each sequence alone."""

import numpy as np
import pytest

from ude import numerics as nm
from ude.nn import MultiHeadAttention, TransformerEncoder, additive_mask, causal_prefix_mask

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
