"""Dense float64 tensors with reverse-mode autodiff and an Adam optimizer.

Every model in this package is built from the ops here: broadcasting
elementwise arithmetic, (batched) matmul, numerically stable softmax and
log-softmax, layer norm, temporal 1-D convolution, embedding lookup and a
few shape ops. Sequence ops (conv1d, repeat_rows) put time on axis -2, so
one call runs a batch [B, T, C] as it runs one sequence [T, C]. Graphs are
recorded eagerly as tensors are produced: each op computes its output and
everything its gradient needs, then hands ``_from_op`` one closure
``vjp(g)`` that adds the output gradient ``g`` into the op's inputs; the
closure is kept only when a graph is recorded. ``Tensor.backward()`` calls
them in reverse topological order.

Conventions:
  * everything is float64; any op that produces NaN/Inf raises NumericsError,
  * gradients accumulate (sum) across fan-out and across backward calls;
    callers reset them between optimizer steps,
  * conv1d uses the cross-correlation convention (no kernel flip).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError, NumericsError, TrainingError

_grad_enabled = True  # cleared inside `no_grad`


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _check_finite(arr: np.ndarray, what: str) -> None:
    # A sum of squares is finite only if every element is, so one np.vdot
    # (which raises no numpy warning when it overflows) clears almost every
    # array; huge finite values overflow it and fall through to the scan.
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by {what}")


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.name = name
        self._parents: tuple = ()
        self._vjp = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """A graph-free view of this tensor's value."""
        return Tensor(self.data)

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        self must be scalar. Unreachable parameters keep their (zero)
        gradient, so "no path" and "zero gradient" look the same to Adam.

        A graph is backpropagated once: each node drops its gradient, vjp
        and parents as soon as its vjp has run, so the graph is freed as it
        is walked.
        """
        if self.data.size != 1:
            raise ContractError("backward() expects a scalar loss tensor")
        order = _toposort(self)
        _accumulate(self, np.ones_like(self.data))
        while order:
            t = order.pop()
            if t._vjp is not None:
                if t.grad is not None:
                    t._vjp(t.grad)
                t.grad, t._vjp, t._parents = None, None, ()

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def _toposort(root: Tensor) -> list:
    order, state, stack = [], {}, [root]
    while stack:
        t = stack[-1]
        st = state.get(id(t), 0)
        if st == 0:
            state[id(t)] = 1
            for p in t._parents:
                if state.get(id(p), 0) == 0:
                    stack.append(p)
        else:
            stack.pop()
            if st == 1:
                state[id(t)] = 2
                order.append(t)
    return order


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not (t.requires_grad or t._parents):
        return
    t.grad = np.array(g) if t.grad is None else t.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _from_op(data: np.ndarray, parents: tuple, vjp, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.name = None
    out.grad = None
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _from_op(a.data + b.data, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _from_op(a.data - b.data, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _from_op(a.data * b.data, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _from_op(a.data / b.data, (a, b), vjp, "div")


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        _accumulate(a, -g)

    return _from_op(-a.data, (a,), vjp, "neg")


def power(a, p: float) -> Tensor:
    a = _as_tensor(a)
    p = float(p)

    def vjp(g):
        _accumulate(a, g * p * a.data ** (p - 1.0))

    return _from_op(a.data ** p, (a,), vjp, "power")


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def vjp(g):
        _accumulate(a, g * mask)

    return _from_op(np.where(mask, a.data, 0.0), (a,), vjp, "relu")


# -- linear algebra --------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product; leading axes broadcast like numpy's ``@``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")

    def vjp(g):
        _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _from_op(a.data @ b.data, (a, b), vjp, "matmul")


# -- reductions -------------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        _accumulate(a, _expand_reduced(g, a.shape, axis, keepdims).copy())

    return _from_op(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), vjp, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    count = a.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])

    def vjp(g):
        _accumulate(a, _expand_reduced(g, a.shape, axis, keepdims) / count)

    return _from_op(np.mean(a.data, axis=axis, keepdims=keepdims), (a,), vjp, "mean")


def reduce_max(a, axis: int) -> Tensor:
    """Max along one axis; the gradient flows to the first argmax."""
    a = _as_tensor(a)
    idx = np.argmax(a.data, axis=axis)
    out_data = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def vjp(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        _accumulate(a, full)

    return _from_op(out_data, (a,), vjp, "reduce_max")


# -- normalization and softmax ----------------------------------------------------


def softmax(x, axis: int = -1) -> Tensor:
    """Stable softmax along `axis`; rows sum to one."""
    x = _as_tensor(x)
    if x.shape[axis] == 0:
        raise DimensionError("softmax over an empty axis")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def vjp(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _from_op(y, (x,), vjp, "softmax")


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    if x.shape[axis] == 0:
        raise DimensionError("log_softmax over an empty axis")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    y = shifted - lse

    def vjp(g):
        _accumulate(x, g - np.exp(y) * np.sum(g, axis=axis, keepdims=True))

    return _from_op(y, (x,), vjp, "log_softmax")


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.shape[-1] < 1:
        raise DimensionError("layer_norm needs a non-empty last axis")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh = xc * inv
    out_data = xh * gain.data + bias.data

    def vjp(g):
        _accumulate(gain, _unbroadcast(g * xh, gain.shape))
        _accumulate(bias, _unbroadcast(g, bias.shape))
        gh = g * gain.data
        gx = inv * (
            gh
            - np.mean(gh, axis=-1, keepdims=True)
            - xh * np.mean(gh * xh, axis=-1, keepdims=True)
        )
        _accumulate(x, gx)

    return _from_op(out_data, (x, gain, bias), vjp, "layer_norm")


# -- temporal convolution -----------------------------------------------------------


def conv1d_temporal(x, kernel, stride: int = 1, pad: int = 0) -> Tensor:
    """1-D temporal convolution (cross-correlation, no kernel flip).

    x is [..., T, Cin] with time on axis -2 and any leading axes a batch;
    kernel is [W, Cin, Cout]; the output is [..., T', Cout] with
    T' = floor((T + 2*pad - W) / stride) + 1.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim < 2 or kernel.ndim != 3:
        raise DimensionError("conv1d_temporal expects x [..., T, Cin] and kernel [W, Cin, Cout]")
    *lead, t_in, c_in = x.shape
    w, kc_in, c_out = kernel.shape
    if kc_in != c_in:
        raise DimensionError(f"kernel expects {kc_in} input channels, signal has {c_in}")
    if stride not in (1, 2):
        raise ContractError("stride must be 1 or 2")
    t_out = (t_in + 2 * pad - w) // stride + 1
    if t_out < 1:
        raise DimensionError(f"conv output length {t_out} < 1 (T={t_in}, W={w}, pad={pad})")

    xp = np.zeros((*lead, t_in + 2 * pad, c_in))
    xp[..., pad:pad + t_in, :] = x.data
    idx = np.arange(t_out)[:, None] * stride + np.arange(w)[None, :]
    cols = xp[..., idx, :].reshape(*lead, t_out, w * c_in)  # [..., T', W*Cin]
    k2 = kernel.data.reshape(w * c_in, c_out)
    out_data = cols @ k2  # one product per sequence: a batch row is bit-identical alone

    def vjp(g):
        gk = cols.reshape(-1, w * c_in).T @ g.reshape(-1, c_out)
        _accumulate(kernel, gk.reshape(w, c_in, c_out))
        gcols = (g @ k2.T).reshape(*lead, t_out, w, c_in)
        gxp = np.zeros_like(xp)
        for j in range(w):
            gxp[..., j:j + stride * t_out:stride, :] += gcols[..., j, :]
        _accumulate(x, gxp[..., pad:pad + t_in, :])

    return _from_op(out_data, (x, kernel), vjp, "conv1d_temporal")


# -- indexing and shaping --------------------------------------------------------------


def embedding(table, ids) -> Tensor:
    """Row lookup into `table` [N, D] by an integer id array; the output is
    [*ids.shape, D]."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DimensionError("embedding id out of range")

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        _accumulate(table, gt)

    return _from_op(table.data[ids].copy(), (table,), vjp, "embedding")


def take(a, key) -> Tensor:
    """Basic (int/slice) indexing with gradient scatter."""
    a = _as_tensor(a)
    out_data = np.array(a.data[key])

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[key] = ga[key] + g
        _accumulate(a, ga)

    return _from_op(out_data, (a,), vjp, "take")


def take_per_row(a, ids) -> Tensor:
    """out[i] = a[i, ids[i]] for a 2-d tensor (used by cross-entropy)."""
    a = _as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.arange(a.shape[0])

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, ids), g)
        _accumulate(a, ga)

    return _from_op(a.data[rows, ids].copy(), (a,), vjp, "take_per_row")


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(sl)])

    return _from_op(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), vjp, "concat")


def repeat_rows(a, k: int) -> Tensor:
    """Repeat every row (axis -2) k times: nearest-neighbor temporal
    upsampling of [..., T, C] to [..., T*k, C]."""
    a = _as_tensor(a)
    *lead, t, c = a.shape

    def vjp(g):
        _accumulate(a, g.reshape(*lead, t, k, c).sum(axis=-2))

    return _from_op(np.repeat(a.data, k, axis=-2), (a,), vjp, "repeat_rows")


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape

    def vjp(g):
        _accumulate(a, g.reshape(old))

    return _from_op(a.data.reshape(shape), (a,), vjp, "reshape")


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    inv = np.argsort(axes)

    def vjp(g):
        _accumulate(a, g.transpose(inv))

    return _from_op(np.ascontiguousarray(a.data.transpose(axes)), (a,), vjp, "transpose")


# -- optimizer ------------------------------------------------------------------------


class Adam:
    """Adam with bias correction over a list of (name, parameter) pairs.

    lr defaults to 1e-4. A non-finite gradient raises TrainingError naming
    the offending parameter. lr=0 leaves parameters untouched.
    """

    def __init__(self, params, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]

    def zero_grad(self) -> None:
        for _, p in self.params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            else:
                p.grad.fill(0.0)

    def reset_state(self, index, rows=None) -> None:
        """Clear first/second moments (optionally just some rows) of one param."""
        if rows is None:
            self.m[index].fill(0.0)
            self.v[index].fill(0.0)
        else:
            self.m[index][rows] = 0.0
            self.v[index][rows] = 0.0

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for (name, p), m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
