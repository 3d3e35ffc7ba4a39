"""Small neural-net building blocks shared by the model modules.

Layers follow the pre-norm transformer recipe: x + attn(ln(x)) then
x + ff(ln(x)), with a final layer norm on top of the stack. Attention
masks are additive (0 visible, large negative hidden) so that masked
scores underflow to exactly zero weight after softmax.

Every transformer input is a batch [B, L, D] of B sequences; one sequence
is a batch of one. For incremental decoding each attention layer can take a
cache, a list that is empty or holds the [K, V] of earlier rows (each
[B, heads, rows, dh]). The new rows attend to the cached rows plus
themselves, and the extended pair is stored back, so feeding rows one at a
time reproduces the rows of a full forward under a causal mask.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from .numerics import Tensor

MASK_HIDDEN = -1e9


class Module:
    """Base class: collects parameters from attributes, recursively."""

    def named_parameters(self, prefix: str = ""):
        out = []
        for key, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                out.append((prefix + key, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(prefix + key + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{prefix}{key}.{i}."))
        return out


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, zero: bool = False):
        w = np.zeros((d_in, d_out)) if zero else glorot(rng, (d_in, d_out))
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x) -> Tensor:
        return nm.matmul(x, self.w) + self.b


class Embedding(Module):
    def __init__(self, count: int, dim: int, rng: np.random.Generator, scale: float = 0.02):
        self.table = Tensor(rng.normal(0.0, scale, size=(count, dim)), requires_grad=True)

    def __call__(self, ids) -> Tensor:
        return nm.embedding(self.table, ids)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x) -> Tensor:
        return nm.layer_norm(x, self.gain, self.bias, eps=self.eps)


class MultiHeadAttention(Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ValueError("attention dim must divide evenly across heads")
        self.heads = heads
        self.dim = dim
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, x, add_mask: np.ndarray | None = None,
                 cache: list | None = None) -> Tensor:
        """Attention of the rows of x over [cached rows, x].

        x is [B, L, D]; add_mask broadcasts against the scores
        [B, heads, L, cached + L], e.g. [L, cached + L] or [B, 1, 1, cached + L].
        """
        batch, length, _ = x.shape
        h, dh = self.heads, self.dim // self.heads

        def split(t):  # [B, L, D] -> [B, H, L, dh]
            return nm.transpose(t.reshape(batch, length, h, dh), (0, 2, 1, 3))

        q, k, v = split(self.wq(x)), split(self.wk(x)), split(self.wv(x))
        if cache is not None:
            if cache:
                k = nm.concat([cache[0], k], axis=-2)
                v = nm.concat([cache[1], v], axis=-2)
            cache[:] = [k, v]
        scores = nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
        if add_mask is not None:
            scores = scores + Tensor(add_mask)
        attn = nm.softmax(scores, axis=-1)
        out = nm.transpose(nm.matmul(attn, v), (0, 2, 1, 3)).reshape(batch, length, self.dim)
        return self.wo(out)


class EncoderLayer(Module):
    def __init__(self, dim: int, heads: int, ff_hidden: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_hidden, rng)
        self.ff2 = Linear(ff_hidden, dim, rng)

    def __call__(self, x, add_mask=None, cache=None) -> Tensor:
        x = x + self.attn(self.ln1(x), add_mask, cache)
        return x + self.ff2(nm.relu(self.ff1(self.ln2(x))))


class TransformerEncoder(Module):
    """A stack of encoder layers plus a final layer norm."""

    def __init__(self, layers: int, dim: int, heads: int, rng: np.random.Generator):
        self.layers = [EncoderLayer(dim, heads, 4 * dim, rng) for _ in range(layers)]
        self.ln = LayerNorm(dim)

    def __call__(self, x, add_mask=None, caches=None) -> Tensor:
        """caches: None, or one cache list per layer (see MultiHeadAttention)."""
        for layer, cache in zip(self.layers, caches or [None] * len(self.layers)):
            x = layer(x, add_mask, cache)
        return self.ln(x)


def sinusoidal_table(n_positions: int, dim: int) -> np.ndarray:
    """Fixed sin/cos positional encodings, [n_positions, dim]."""
    pos = np.arange(n_positions)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(np.float64)


def causal_prefix_mask(cond_len: int, seq_len: int) -> np.ndarray:
    """Boolean visibility matrix: column c visible to row r iff c < cond_len or c <= r."""
    n = cond_len + seq_len
    r = np.arange(n)[:, None]
    c = np.arange(n)[None, :]
    return (c < cond_len) | (c <= r)


def additive_mask(visible: np.ndarray) -> np.ndarray:
    return np.where(visible, 0.0, MASK_HIDDEN)
