"""Small neural-net building blocks shared by the model modules.

Layers follow the pre-norm transformer recipe: x + attn(ln(x)) then
x + ff(ln(x)), with a final layer norm on top of the stack. A linear layer
is one ``matmul`` with its bias, and a conv layer one ``conv1d_temporal``
(padding 1) plus its bias. Attention masks are additive (0 visible,
large negative hidden) so that masked scores underflow to exactly zero
weight in the one ``softmax`` call that also applies the 1/sqrt(dh) scale.

Every transformer input is a batch [B, L, D] of B sequences; one sequence
is a batch of one. For incremental decoding each attention layer can take a
cache, a list that is empty or holds the [K, V] of earlier rows (each
[B, heads, rows, dh]). The new rows attend to the cached rows plus
themselves, and the extended pair is stored back, so feeding rows one at a
time reproduces the rows of a full forward under a causal mask.

A caller that reads only the rows from some `start` on passes it to the
encoder. Every layer but the last computes every row; the last computes
keys and values (and its cache) for every row, and its queries, attention
output, residual and feed-forward, and the final norm, only for rows
start.. . Those rows equal the full forward's to within 1e-12, not bit for
bit: OpenBLAS picks its matmul kernel by row count, and in backward the
gain and bias gradients sum over fewer rows. With start 0 the ops are those
of the full forward.

Positional encodings are fixed sin/cos tables, not parameters: one shared,
read-only table per (positions, dim), computed the first time a model of
that shape is built.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import numerics as nm
from .errors import ConfigError
from .numerics import Tensor

MASK_HIDDEN = -1e9


class Module:
    """Base class: collects tensors from attributes, recursively."""

    def named_tensors(self, prefix: str = ""):
        """Every `Tensor` attribute, in attribute order: the model's state,
        which a checkpoint stores."""
        out = []
        for key, value in vars(self).items():
            if isinstance(value, Tensor):
                out.append((prefix + key, value))
            elif isinstance(value, Module):
                out.extend(value.named_tensors(prefix + key + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_tensors(f"{prefix}{key}.{i}."))
        return out

    def named_parameters(self):
        """The tensors that require grad: what an optimizer steps."""
        return [(name, t) for name, t in self.named_tensors() if t.requires_grad]


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
        return nm.matmul(x, self.w, self.b)


class Embedding(Module):
    def __init__(self, count: int, dim: int, rng: np.random.Generator, scale: float = 0.02):
        self.table = Tensor(rng.normal(0.0, scale, size=(count, dim)), requires_grad=True)

    def __call__(self, ids) -> Tensor:
        return nm.embedding(self.table, ids)


class Conv1d(Module):
    """Temporal conv over [..., T, c_in] with a He-scaled kernel [width, c_in, c_out]."""

    def __init__(self, width: int, c_in: int, c_out: int, stride: int,
                 rng: np.random.Generator):
        scale = np.sqrt(2.0 / (width * c_in))
        self.kernel = Tensor(rng.normal(0.0, scale, (width, c_in, c_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)
        self.stride = stride

    def __call__(self, x) -> Tensor:
        return nm.conv1d_temporal(x, self.kernel, stride=self.stride, pad=1) + self.bias


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x) -> Tensor:
        return nm.layer_norm(x, self.gain, self.bias)


class MultiHeadAttention(Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ConfigError("attention dim must divide evenly across heads")
        self.heads = heads
        self.dim = dim
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, x, add_mask: np.ndarray | None = None,
                 cache: list | None = None, start: int = 0) -> Tensor:
        """Attention of the rows of x from row `start` on over [cached rows, x].

        x is [B, L, D]; every row gives a key and a value, and only rows
        start.. give a query, so the output is [B, L - start, D]. add_mask
        broadcasts against the scores of all L rows [B, heads, L, cached + L],
        e.g. [L, cached + L] or [B, 1, 1, cached + L].
        """
        batch, length, _ = x.shape
        h, dh = self.heads, self.dim // self.heads

        def split(t):  # [B, rows, D] -> [B, H, rows, dh]
            return nm.transpose(t.reshape(batch, t.shape[1], h, dh), (0, 2, 1, 3))

        if start and add_mask is not None and add_mask.shape[-2] > 1:
            add_mask = add_mask[..., start:, :]
        q = split(self.wq(x[:, start:] if start else x))
        k, v = split(self.wk(x)), split(self.wv(x))
        if cache is not None:
            if cache:
                k = nm.concat([cache[0], k], axis=-2)
                v = nm.concat([cache[1], v], axis=-2)
            cache[:] = [k, v]
        attn = nm.softmax(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))),
                          scale=1.0 / math.sqrt(dh), add_mask=add_mask)
        out = nm.transpose(nm.matmul(attn, v), (0, 2, 1, 3))
        return self.wo(out.reshape(batch, length - start, self.dim))


class EncoderLayer(Module):
    def __init__(self, dim: int, heads: int, ff_hidden: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_hidden, rng)
        self.ff2 = Linear(ff_hidden, dim, rng)

    def __call__(self, x, add_mask=None, cache=None, start: int = 0) -> Tensor:
        """The layer's output rows start.. of x [B, L, D]; every row gives
        attention a key and a value."""
        h = self.ln1(x)
        if start:
            x = x[:, start:]
        x = x + self.attn(h, add_mask, cache, start)
        return x + self.ff2(nm.relu(self.ff1(self.ln2(x))))


class TransformerEncoder(Module):
    """A stack of encoder layers plus a final layer norm."""

    def __init__(self, layers: int, dim: int, heads: int, rng: np.random.Generator):
        self.layers = [EncoderLayer(dim, heads, 4 * dim, rng) for _ in range(layers)]
        self.ln = LayerNorm(dim)

    def __call__(self, x, add_mask=None, caches=None, start: int = 0) -> Tensor:
        """Output rows start.. of x [B, L, D], the first row the caller reads.

        caches: None, or one cache list per layer (see MultiHeadAttention).
        Every layer but the last computes all L rows; the last one computes
        keys and values (and its cache) for all of them, and the rest of its
        work only for rows start..
        """
        caches = caches or [None] * len(self.layers)
        last = len(self.layers) - 1
        for i, (layer, cache) in enumerate(zip(self.layers, caches)):
            x = layer(x, add_mask, cache, start if i == last else 0)
        return self.ln(x)


@functools.cache
def sinusoidal_table(n_positions: int, dim: int) -> np.ndarray:
    """Fixed sin/cos positional encodings, [n_positions, dim].

    The table of one shape is computed once per process and shared by every
    model that asks for it, so it is read-only: a write raises ValueError.
    """
    pos = np.arange(n_positions)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    table.flags.writeable = False
    return table


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy of logits [..., V] against integer targets [...]."""
    targets = np.asarray(targets, dtype=np.int64)
    flat = logits.reshape(-1, logits.shape[-1])
    return -nm.take_per_row(nm.log_softmax(flat, axis=-1), targets.ravel()).mean()


def causal_prefix_mask(cond_len: int, seq_len: int) -> np.ndarray:
    """Boolean visibility matrix: column c visible to row r iff c < cond_len or c <= r."""
    n = cond_len + seq_len
    r = np.arange(n)[:, None]
    c = np.arange(n)[None, :]
    return (c < cond_len) | (c <= r)


def additive_mask(visible: np.ndarray) -> np.ndarray:
    return np.where(visible, 0.0, MASK_HIDDEN)
