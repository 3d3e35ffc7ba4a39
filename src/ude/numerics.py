"""Dense float64 tensors with reverse-mode autodiff, an Adam optimizer and
the minibatch loop (`fit`) that every trainer runs.

Every model in this package is built from the ops here: broadcasting
elementwise arithmetic, (batched) matmul plus bias, stable softmax of
scaled, masked scores, log-softmax, layer norm, temporal 1-D convolution,
embedding lookup and a few shape ops. Sequence ops (conv1d, repeat_rows) put
time on axis -2, so one call runs a batch [B, T, C] as it runs one sequence
[T, C]. Graphs are recorded eagerly as tensors are produced: each op
computes its output, then hands ``_from_op`` one closure ``vjp(g)`` that
maps the output gradient ``g`` to one gradient per input. When a graph is
recorded, the output gets a ``_Node`` holding the vjp, the nodes of its
inputs (None for an input that needs no gradient) and, during backward, its
gradient; ``Tensor.backward()`` walks the nodes in reverse topological
order.

A graph keeps nodes, not tensors: each vjp closes over only the arrays it
reads (matmul, mul, div and power their operands, softmax and log_softmax
their output, layer_norm its normalized input and inverse deviation, conv1d
its unfolded columns, relu its output) and over shapes, so an op output that
no vjp reads (a residual sum, attention scores, a projection that is
transposed next, conv1d's padded input) is freed as soon as the forward
drops it.

`fit` runs one optimizer: per minibatch it zeroes it, back-propagates the
loss the trainer's `step` builds, and steps it.

Conventions:
  * everything is float64; any op that produces NaN/Inf raises NumericsError,
  * a forward pays for its output and little more: what only a vjp reads
    (an inverse permutation, split offsets, a mask) is computed inside the
    vjp from the shapes and arrays it keeps, and hot
    ops call ufunc reductions (``np.add.reduce``, ``np.maximum.reduce``),
    not numpy's wrapper functions (``np.mean``, ``np.max``, ``np.sum``),
    which reach the same reductions, and give the same bits, at a higher
    cost per call,
  * only backward creates a gradient (a leaf's first contribution, stored
    uncopied; later ones, from fan-out or another backward, are summed into
    new arrays), ``Adam.zero_grad`` drops them, and nothing writes into a
    gradient or into the ``g`` a vjp receives,
  * conv1d uses the cross-correlation convention (no kernel flip).
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from .errors import DataError, NumericsError


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 16 MiB and its trim threshold at 64 MiB.

    A 256-frame DMD request allocates several 2 MiB attention temporaries
    ([1, 4, 256, 256] float64) in every layer. glibc serves a block above
    its mmap threshold with a fresh mapping; the threshold starts at 128 KiB
    and rises only when the process frees a large mapped block, so whether
    these temporaries are reused, or mapped, touched and unmapped again
    each time (about 200k minor page faults and twice the time for one such
    request), depends on what the process happened to free before. Fixed,
    blocks below 16 MiB come from the heap, and up to 64 MiB of freed heap
    is kept for reuse instead of being returned to the kernel. Where libc
    has no `mallopt`, nothing is done.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()

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


class _Node:
    """A tensor's place in a recorded graph: the gradient accumulated into it
    so far, the nodes of the op's inputs (None for one that needs no
    gradient) and the op's vjp. A leaf that requires grad has a node with no
    parents and no vjp, and keeps its gradient across backward calls."""

    __slots__ = ("grad", "parents", "vjp")

    def __init__(self, parents=(), vjp=None):
        self.grad = None
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """A dense float64 array plus, when it takes part in a graph, its node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self._node = _Node() if requires_grad else None

    # -- basic introspection -------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value) -> None:
        if self._node is None:
            raise DataError("a tensor that does not require grad has no gradient")
        self._node.grad = value

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
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """A graph-free view of this tensor's value."""
        return Tensor(self.data)

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        self must be scalar. An unreachable parameter keeps its gradient:
        None if no backward reached it since `zero_grad`; Adam reads it as 0.

        A graph is backpropagated once: each node drops its gradient, vjp
        and parents as soon as its vjp has run, so the graph is freed as it
        is walked.
        """
        if self.data.size != 1:
            raise DataError("backward() expects a scalar loss tensor")
        if self._node is None:
            return
        order = _toposort(self._node)
        _accumulate(self._node, np.ones_like(self.data))
        while order:
            node = order.pop()
            if node.vjp is not None:
                if node.grad is not None:
                    for parent, g in zip(node.parents, node.vjp(node.grad)):
                        _accumulate(parent, g)
                node.grad, node.vjp, node.parents = None, None, ()

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


def _toposort(root: _Node) -> list:
    order, state, stack = [], {}, [root]
    while stack:
        node = stack[-1]
        st = state.get(id(node), 0)
        if st == 0:
            state[id(node)] = 1
            for p in node.parents:
                if p is not None and state.get(id(p), 0) == 0:
                    stack.append(p)
        else:
            stack.pop()
            if st == 1:
                state[id(node)] = 2
                order.append(node)
    return order


def _accumulate(node, g: np.ndarray) -> None:
    if node is not None:
        node.grad = g if node.grad is None else node.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _from_op(data: np.ndarray, parents: tuple, vjp, op: str) -> Tensor:
    """The op's output; it gets a node when a graph is recorded and any input
    takes part in one. `vjp(g)` returns one gradient per parent, in order."""
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = None
    if _grad_enabled:
        nodes = tuple([p._node for p in parents])
        if any(nodes):
            out._node = _Node(nodes, vjp)
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
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _from_op(a.data + b.data, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _from_op(a.data - b.data, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _from_op(ad * bd, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data

    def vjp(g):
        return (_unbroadcast(g / bd, ad.shape),
                _unbroadcast(-g * ad / (bd * bd), bd.shape))

    return _from_op(ad / bd, (a, b), vjp, "div")


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        return (-g,)

    return _from_op(-a.data, (a,), vjp, "neg")


def power(a, p: float) -> Tensor:
    a = _as_tensor(a)
    ad, p = a.data, float(p)

    def vjp(g):
        return (g * p * ad ** (p - 1.0),)

    return _from_op(ad ** p, (a,), vjp, "power")


def relu(a) -> Tensor:
    a = _as_tensor(a)
    y = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (y > 0),)  # y > 0 exactly where the input is

    return _from_op(y, (a,), vjp, "relu")


# -- linear algebra --------------------------------------------------------------


def matmul(a, b, bias=None) -> Tensor:
    """Matrix product plus an optional bias; leading axes broadcast like
    numpy's ``@``, and the bias broadcasts against the product."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise DataError(f"matmul needs >=2-d operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise DataError(f"matmul inner extents differ: {ad.shape} @ {bd.shape}")
    out = ad @ bd
    bias_shape = None
    if bias is not None:
        bias = _as_tensor(bias)
        out += bias.data
        bias_shape = bias.shape

    def vjp(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
        return (ga, gb) if bias_shape is None else (ga, gb, _unbroadcast(g, bias_shape))

    return _from_op(out, (a, b) if bias is None else (a, b, bias), vjp, "matmul")


# -- reductions -------------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape

    def vjp(g):
        return (_expand_reduced(g, shape, axis, keepdims).copy(),)

    return _from_op(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), vjp, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape
    count = a.size if axis is None else math.prod(
        shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,)))

    def vjp(g):
        return (_expand_reduced(g, shape, axis, keepdims) / count,)

    # np.mean's own steps: a pairwise add-reduce, then one true divide
    return _from_op(np.add.reduce(a.data, axis=axis, keepdims=keepdims) / count, (a,), vjp,
                    "mean")


def reduce_max(a, axis: int) -> Tensor:
    """Max along one axis; the gradient flows to the first argmax."""
    a = _as_tensor(a)
    shape = a.shape
    idx = np.argmax(a.data, axis=axis)
    out_data = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def vjp(g):
        full = np.zeros(shape)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        return (full,)

    return _from_op(out_data, (a,), vjp, "reduce_max")


# -- normalization and softmax ----------------------------------------------------


def softmax(x, axis: int = -1, scale: float = 1.0, add_mask=None) -> Tensor:
    """Stable softmax of ``x * scale + add_mask`` along `axis`; rows sum to
    one. The mask is a plain array (no gradient) that broadcasts against x;
    all steps run in place on one buffer, and backward keeps only the output."""
    x = _as_tensor(x)
    if x.shape[axis] == 0:
        raise DataError("softmax over an empty axis")
    y = x.data * scale
    if add_mask is not None:
        y += add_mask
    y -= np.maximum.reduce(y, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=axis, keepdims=True)

    def vjp(g):
        dot = np.add.reduce(g * y, axis=axis, keepdims=True)
        return (y * (g - dot) * scale,)

    return _from_op(y, (x,), vjp, "softmax")


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    if x.shape[axis] == 0:
        raise DataError("log_softmax over an empty axis")
    shifted = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))
    y = shifted - lse

    def vjp(g):
        return (g - np.exp(y) * np.add.reduce(g, axis=axis, keepdims=True),)

    return _from_op(y, (x,), vjp, "log_softmax")


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (variance eps
    1e-5), then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.shape[-1] < 1:
        raise DataError("layer_norm needs a non-empty last axis")
    n = x.shape[-1]
    gd, gain_shape, bias_shape = gain.data, gain.shape, bias.shape
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n  # np.mean's own steps
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-5)
    xh = xc * inv
    out_data = xh * gd + bias.data

    def vjp(g):
        gh = g * gd
        gx = inv * (
            gh
            - np.add.reduce(gh, axis=-1, keepdims=True) / n
            - xh * (np.add.reduce(gh * xh, axis=-1, keepdims=True) / n)
        )
        return gx, _unbroadcast(g * xh, gain_shape), _unbroadcast(g, bias_shape)

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
        raise DataError("conv1d_temporal expects x [..., T, Cin] and kernel [W, Cin, Cout]")
    *lead, t_in, c_in = x.shape
    w, kc_in, c_out = kernel.shape
    if kc_in != c_in:
        raise DataError(f"kernel expects {kc_in} input channels, signal has {c_in}")
    if stride not in (1, 2):
        raise DataError("stride must be 1 or 2")
    t_out = (t_in + 2 * pad - w) // stride + 1
    if t_out < 1:
        raise DataError(f"conv output length {t_out} < 1 (T={t_in}, W={w}, pad={pad})")

    xp = np.zeros((*lead, t_in + 2 * pad, c_in))
    xp[..., pad:pad + t_in, :] = x.data
    idx = np.arange(t_out)[:, None] * stride + np.arange(w)[None, :]
    cols = xp[..., idx, :].reshape(*lead, t_out, w * c_in)  # [..., T', W*Cin]
    xp_shape = xp.shape  # backward reads only the padded input's shape
    k2 = kernel.data.reshape(w * c_in, c_out)
    out_data = cols @ k2  # one product per sequence: a batch row is bit-identical alone

    def vjp(g):
        gk = cols.reshape(-1, w * c_in).T @ g.reshape(-1, c_out)
        gcols = (g @ k2.T).reshape(*lead, t_out, w, c_in)
        gxp = np.zeros(xp_shape)
        for j in range(w):
            gxp[..., j:j + stride * t_out:stride, :] += gcols[..., j, :]
        return gxp[..., pad:pad + t_in, :], gk.reshape(w, c_in, c_out)

    return _from_op(out_data, (x, kernel), vjp, "conv1d_temporal")


# -- indexing and shaping --------------------------------------------------------------


def embedding(table, ids) -> Tensor:
    """Row lookup into `table` [N, D] by an integer id array; the output is
    [*ids.shape, D]."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DataError("embedding id out of range")
    shape = table.shape

    def vjp(g):
        gt = np.zeros(shape)
        np.add.at(gt, ids, g)
        return (gt,)

    return _from_op(table.data[ids].copy(), (table,), vjp, "embedding")


def take(a, key) -> Tensor:
    """Basic (int/slice) indexing with gradient scatter."""
    a = _as_tensor(a)
    shape = a.shape
    out_data = np.array(a.data[key])

    def vjp(g):
        ga = np.zeros(shape)
        ga[key] = ga[key] + g
        return (ga,)

    return _from_op(out_data, (a,), vjp, "take")


def take_per_row(a, ids) -> Tensor:
    """out[i] = a[i, ids[i]] for a 2-d tensor (used by cross-entropy)."""
    a = _as_tensor(a)
    shape = a.shape
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.arange(shape[0])

    def vjp(g):
        ga = np.zeros(shape)
        np.add.at(ga, (rows, ids), g)
        return (ga,)

    return _from_op(a.data[rows, ids].copy(), (a,), vjp, "take_per_row")


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    arrays = [p.data for p in parts]
    sizes = [arr.shape[axis] for arr in arrays]

    def vjp(g):
        sl, hi = [slice(None)] * g.ndim, 0
        grads = []
        for size in sizes:
            sl[axis] = slice(hi, hi + size)
            grads.append(g[tuple(sl)])
            hi += size
        return grads

    return _from_op(np.concatenate(arrays, axis=axis), tuple(parts), vjp, "concat")


def repeat_rows(a, k: int) -> Tensor:
    """Repeat every row (axis -2) k times: nearest-neighbor temporal
    upsampling of [..., T, C] to [..., T*k, C]."""
    a = _as_tensor(a)
    *lead, t, c = a.shape

    def vjp(g):
        return (g.reshape(*lead, t, k, c).sum(axis=-2),)

    return _from_op(np.repeat(a.data, k, axis=-2), (a,), vjp, "repeat_rows")


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape

    def vjp(g):
        return (g.reshape(old),)

    return _from_op(a.data.reshape(shape), (a,), vjp, "reshape")


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        return (g.transpose(np.argsort(axes)),)

    return _from_op(np.ascontiguousarray(a.data.transpose(axes)), (a,), vjp, "transpose")


# -- optimizer ------------------------------------------------------------------------


class Adam:
    """Adam with bias correction over a list of (name, parameter) pairs.

    lr defaults to 1e-4; beta1, beta2 and eps are the usual 0.9, 0.999 and
    1e-8. `zero_grad` drops the gradients and `step` reads None as zero. A
    non-finite gradient raises NumericsError naming the offending
    parameter. lr=0 leaves parameters untouched.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float = 1e-4):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def reset_state(self, index, rows) -> None:
        """Clear the first/second moments of some rows of one param."""
        self.m[index][rows] = 0.0
        self.v[index][rows] = 0.0

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        for (name, p), m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NumericsError(f"non-finite gradient for parameter {name!r}")
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.EPS)


# -- training loop --------------------------------------------------------------------


def fit(epochs: int, batch_size: int, order, opt, step, end_epoch=None) -> list:
    """The minibatch loop of every trainer; returns one history row per epoch.

    Each epoch walks the indices `order()` returns in batches of
    `batch_size`. `step(batch)` builds the batch's loss graph and returns it
    with a dict of scalar loss parts; `opt` is then zeroed, the loss
    back-propagated and `opt` stepped. A row holds each part's per-item mean
    over the epoch's order, then "epoch", then whatever `end_epoch()`
    returns. A NumericsError from `step` is raised again with the epoch in
    its message.
    """
    history = []
    for epoch in range(epochs):
        indices = order()
        sums = {}
        for start in range(0, len(indices), batch_size):
            batch = indices[start:start + batch_size]
            try:
                loss, parts = step(batch)
            except NumericsError as exc:
                raise NumericsError(f"non-finite loss at epoch {epoch}: {exc}") from exc
            opt.zero_grad()
            loss.backward()
            opt.step()
            for key, value in parts.items():
                sums[key] = sums.get(key, 0.0) + value * len(batch)
        means = {key: total / len(indices) for key, total in sums.items()}
        history.append({**means, "epoch": epoch, **(end_epoch() if end_epoch else {})})
    return history
