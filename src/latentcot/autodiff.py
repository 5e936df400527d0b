"""Minimal reverse-mode autodiff on float64 numpy buffers.

Operations on `Tensor` nodes build a graph, each node numbered from one
counter as it is made, so a node's number is above its parents'. `backward`
runs the nodes that hold a gradient latest-made first (the order of a tape,
read backwards) and returns a gradient map; it never mutates nodes, so one
graph can be differentiated several times (the staged trainers rely on this).
A node's third and later gradient contributions are added in place into a
sum `backward` allocated itself, never into an array a vjp returned.
`stop_gradient` inserts a hard barrier: values pass through unchanged,
gradients never cross.

Under `no_grad` nothing is recorded: every op returns its plain array (or
numpy scalar), whatever its operands, and takes no creation number. It runs
the same formula and the same checks, so the value has the bits of the node
it stands for. `node` is the one place that decides this; `stop_gradient`,
which builds its barrier node itself, has its own exit.

Besides the primitives, two fused nodes carry a transformer block:
`attention` (head split, scores, masked softmax, `probs @ v`, head merge)
and `mlp` (`gelu(x @ w1 + b1) @ w2 + b2`). Each runs the numpy ops of the
op chain it stands for, in the same order, so values and gradients keep
their bits, and its vjp keeps only what backward needs.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

EPS_COSINE = 1e-12
EPS_LAYERNORM = 1e-5
_F64 = np.dtype(np.float64)


class ShapeError(ValueError):
    """Raised when operand shapes do not fit an op's contract."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


class NonScalarLoss(ValueError):
    pass


_grad_enabled = True


class no_grad:
    """Skip graph construction inside the block; values are bit-identical."""

    def __enter__(self):
        global _grad_enabled
        self.prev, _grad_enabled = _grad_enabled, False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self.prev


_sequence = itertools.count()


class Tensor:
    """A graph node holding a float64 ndarray value.

    `vjp` maps the output gradient to one gradient per parent (None allowed
    for non-differentiable parents). `barrier` marks a stop-gradient node.
    `seq` is the node's creation number.
    """

    __slots__ = ("data", "parents", "vjp", "barrier", "name", "seq")

    def __init__(self, data, parents=(), vjp=None, barrier=False, name=None):
        self.seq = next(_sequence)
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.parents = tuple(parents)
        self.vjp = vjp
        self.barrier = barrier
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    def item(self) -> float:
        return float(self.data)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def parameter(name: str, data) -> Tensor:
    return Tensor(data, name=name)


def constant(data) -> Tensor:
    """Leaf node that never receives gradient (plain data)."""
    return Tensor(data)


def value(x) -> np.ndarray:
    """The float64 array an operand holds: a node's data, else `x` as an
    array (`x` itself when it already is a float64 ndarray)."""
    if type(x) is np.ndarray and x.dtype is _F64:
        return x
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def node(out: np.ndarray, operands: tuple, vjp) -> Tensor:
    """The node an op returns; operands that are not nodes become constants.
    Under `no_grad` nothing is recorded and the op returns `out` itself."""
    if not _grad_enabled:
        return out
    for x in operands:
        if not isinstance(x, Tensor):
            operands = tuple(as_tensor(x) for x in operands)
            break
    return Tensor(out, operands, vjp)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    x, y = value(a), value(b)
    try:
        out = x + y
    except ValueError:
        raise ShapeError("add", x.shape, y.shape)
    return node(out, (a, b), lambda g: (_unbroadcast(g, x.shape), _unbroadcast(g, y.shape)))


def sub(a, b) -> Tensor:
    x, y = value(a), value(b)
    try:
        out = x - y
    except ValueError:
        raise ShapeError("sub", x.shape, y.shape)
    return node(out, (a, b), lambda g: (_unbroadcast(g, x.shape), _unbroadcast(-g, y.shape)))


def mul(a, b) -> Tensor:
    x, y = value(a), value(b)
    try:
        out = x * y
    except ValueError:
        raise ShapeError("mul", x.shape, y.shape)
    return node(out, (a, b),
                lambda g: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)))


def scale(a, s: float) -> Tensor:
    x, s = value(a), float(s)
    out = x * s
    return node(out, (a,), lambda g: (g * s,))


def matmul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b`; a one-row `a` (2-d or batched) runs beside a zero row, as BLAS's
    gemv path for a lone row rounds differently from gemm."""
    if a.shape[-2] != 1:
        return a @ b
    return (np.concatenate([a, np.zeros_like(a)], axis=-2) @ b)[..., :1, :]


def matmul(a, b) -> Tensor:
    """Matrix product by `matmul_array`'s rule, as is its vjp's `g @ bᵀ`."""
    x, y = value(a), value(b)
    xs, ys = x.shape, y.shape
    if len(xs) < 2 or len(ys) < 2 or xs[-1] != ys[-2] or xs[:-2] != ys[:-2]:
        raise ShapeError("matmul", xs, ys)
    out = matmul_array(x, y)

    def vjp(g):
        return (matmul_array(g, np.swapaxes(y, -1, -2)), np.swapaxes(x, -1, -2) @ g)

    return node(out, (a, b), vjp)


def reshape(a, shape) -> Tensor:
    x = value(a)
    try:
        out = x.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", x.shape, shape)
    return node(out, (a,), lambda g: (g.reshape(x.shape),))


def concat_rows(blocks: Sequence, order=None) -> Tensor:
    """Stack 2-d blocks along axis 0. With `order`, stacked row j goes to
    output row `order[j]` instead; `order` must hold each row index once."""
    xs = [value(b) for b in blocks]
    if any(x.ndim != 2 for x in xs) or len({x.shape[1] for x in xs}) != 1:
        raise ShapeError("concat_rows", *[x.shape for x in xs])
    out = np.concatenate(xs, axis=0)
    if order is not None:
        order = np.asarray(order, dtype=np.int64)
        seen = np.zeros(len(out), dtype=bool)
        seen[order] = True
        if len(order) != len(out) or not seen.all():
            raise ValueError("concat_rows: order does not hold each row index once")
        stacked, out = out, np.empty_like(out)
        out[order] = stacked

    def vjp(g):
        if order is not None:
            g = g[order]
        offsets = np.cumsum([0] + [len(x) for x in xs])
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(xs)))

    return node(out, blocks, vjp)


def gather_rows(table, ids) -> Tensor:
    """Row lookup `table[ids]`; the embedding primitive. Backward scatter-adds."""
    t = value(table)
    idx = np.asarray(ids, dtype=np.int64)
    if t.ndim != 2:
        raise ShapeError("gather_rows", t.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= t.shape[0]):
        raise IndexError(f"gather_rows: id out of range for table with {t.shape[0]} rows")
    out = t[idx]

    def vjp(g):
        acc = np.zeros_like(t)
        np.add.at(acc, idx, g)
        return (acc,)

    return node(out, (table,), vjp)


def get_row(a, i: int) -> Tensor:
    x, i = value(a), int(i)
    out = x[i].copy()

    def vjp(g):
        acc = np.zeros_like(x)
        acc[i] = g
        return (acc,)

    return node(out, (a,), vjp)


def sum_all(a) -> Tensor:
    x = value(a)
    out = x.sum()
    return node(out, (a,), lambda g: (np.full(x.shape, float(g)),))


def mean_all(a) -> Tensor:
    x = value(a)
    out = x.mean()
    return node(out, (a,), lambda g: (np.full(x.shape, float(g) / x.size),))


def exp(a) -> Tensor:
    x = value(a)
    out = np.exp(x)
    return node(out, (a,), lambda g: (g * out,))


def tanh(a) -> Tensor:
    x = value(a)
    out = np.tanh(x)
    return node(out, (a,), lambda g: (g * (1.0 - out * out),))


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh term of the tanh-approximate GELU."""
    return np.tanh(_GELU_C * (x + 0.044715 * ((x * x) * x)))


def _gelu_value(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """gelu(x), from x and its tanh term."""
    return 0.5 * x * (1.0 + t)


def _gelu_slope(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu(x) / dx, from x and its tanh term."""
    dinner = _GELU_C * (1.0 + 0.134145 * (x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner


def gelu(a) -> Tensor:
    x = value(a)
    t = _gelu_tanh(x)
    out = _gelu_value(x, t)
    return node(out, (a,), lambda g: (g * _gelu_slope(x, t),))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes inside [lo, hi] (inclusive), zero outside."""
    x = value(a)
    out = np.clip(x, lo, hi)
    return node(out, (a,), lambda g: (g * ((x >= lo) & (x <= hi)),))


def minimum2(a, b) -> Tensor:
    """Elementwise min of two same-shape tensors; ties route gradient to `a`."""
    x, y = value(a), value(b)
    if x.shape != y.shape:
        raise ShapeError("minimum2", x.shape, y.shape)
    take_a = x <= y
    out = np.where(take_a, x, y)
    return node(out, (a, b), lambda g: (g * take_a, g * ~take_a))


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis, then apply elementwise gain and bias. Means
    are sums divided by the width, which is what `np.mean` computes."""
    xv, gv, bv = value(x), value(gain), value(bias)
    if gv.shape != xv.shape[-1:] or bv.shape != xv.shape[-1:]:
        raise ShapeError("layer_norm", xv.shape, gv.shape, bv.shape)
    d = xv.shape[-1]
    xc = xv - xv.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + EPS_LAYERNORM)
    xhat = xc * inv
    out = xhat * gv + bv

    def vjp(g):
        gy = g * gv
        gx = inv * (gy - gy.sum(axis=-1, keepdims=True) / d
                    - xhat * ((gy * xhat).sum(axis=-1, keepdims=True) / d))
        axes = tuple(range(g.ndim - 1))
        return (gx, (g * xhat).sum(axis=axes), g.sum(axis=axes))

    return node(out, (x, gain, bias), vjp)


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    x = value(a)
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    return node(p, (a,), lambda g: (p * (g - (g * p).sum(axis=-1, keepdims=True)),))


def _pool_rows(x: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Rows `x[at]`, shaped `at.shape + (d,)`; index `len(x)` reads as a
    zero row."""
    return np.concatenate([x, np.zeros((1, x.shape[1]))])[at]


def _scatter_rows(x: np.ndarray, at: np.ndarray, n: int, add: bool = False) -> np.ndarray:
    """(n, d) rows, zero but where `at` sends a row of `x` (`x[j]` to row
    `at[j]`; with `add`, the sum of the rows sent there); rows sent to index
    n are dropped."""
    out = np.zeros((n + 1, x.shape[1]))
    if add:
        np.add.at(out, at, x)
    else:
        out[at] = x
    return out[:n]


def attention(q, k, v, allow: np.ndarray, sum_buffer: np.ndarray, G: int, H: int,
              scale: float, pool: tuple | None = None) -> Tensor:
    """Multi-head attention over G stacked sequences, as one node.

    `q` holds (G*R, d) query rows, R per sequence; `k` and `v` hold (G*T, d)
    or (G, T, d) key and value rows. Each is split into H heads of d/H
    columns, scores `q kᵀ * scale` are softmaxed over the keys that `allow`
    (bool, (G, H, R, T)) admits, and the heads of `probs @ v` are merged
    back into (G*R, d) rows. Disallowed keys get probability exactly 0.0;
    every row must keep at least one allowed key.

    With `pool`, a pair of index maps (rows (G, R), keys (G, T)), `q`, `k`
    and `v` hold one pool of U rows instead, and the G sequences are blocks
    laid out over it: block b's query j is pool row `rows[b, j]` and its key
    t pool row `keys[b, t]`, where index U reads as a zero row (padding).
    The blocks are gathered inside the node, and the result is (U, d): each
    pool row must be the query of exactly one block, and gets that query's
    output. Backward scatter-adds each key's gradient into its pool row, so
    a row that several blocks attend to gets its gradient back once.

    `sum_buffer` (shape (G, H, R, W) with W at least T, zero beyond T) fixes
    how each softmax denominator is summed: over all W columns, the trailing
    ones exact zeros. numpy's pairwise sum groups terms by the row width, so
    a sum over T columns rounds differently for different T; over a fixed W
    a row's probabilities are the same bits whatever number of masked
    columns follow it.

    Products go through `matmul_array`. The vjp keeps only the probabilities
    beside the inputs' own arrays and the maps; with `pool` it gathers the
    blocks again.
    """
    qv, kv, vv = value(q), value(k), value(v)
    scale = float(scale)
    if allow.dtype != bool:
        allow = allow.astype(bool)
    if pool is not None:
        rows, keys = pool
        if qv.ndim != 2 or kv.shape != qv.shape or len(rows) != G or len(keys) != G:
            raise ShapeError("attention", qv.shape, kv.shape, rows.shape, keys.shape)

    def split():
        """q, k and v split into heads: (G, H, R or T, d/H) each."""
        xs = (qv, kv, vv) if pool is None else \
            (_pool_rows(qv, rows), _pool_rows(kv, keys), _pool_rows(vv, keys))
        return [x.reshape(G, -1, H, x.shape[-1] // H).transpose(0, 2, 1, 3) for x in xs]

    try:
        q4, k4, v4 = split()
    except ValueError:
        raise ShapeError("attention", qv.shape, kv.shape, vv.shape)
    R, T, dh = q4.shape[2], k4.shape[2], q4.shape[3]
    if qv.shape[-1] % H or kv.shape != vv.shape or k4.shape[3] != dh or allow.shape != (G, H, R, T):
        raise ShapeError("attention", qv.shape, kv.shape, vv.shape, allow.shape)
    if not allow.any(axis=-1).all():
        raise ValueError("attention: a row has no allowed entries")
    if sum_buffer.shape[:-1] != allow.shape[:-1] or sum_buffer.shape[-1] < T:
        raise ShapeError("attention", allow.shape, sum_buffer.shape)
    scores = matmul_array(q4, k4.swapaxes(-1, -2)) * scale
    neg = np.where(allow, scores, -np.inf)
    z = neg - neg.max(axis=-1, keepdims=True)
    e = np.exp(z, out=sum_buffer[..., :T])
    p = e / sum_buffer.sum(axis=-1, keepdims=True)
    out = matmul_array(p, v4).transpose(0, 2, 1, 3).reshape(G * R, H * dh)
    if pool is not None:
        out = _scatter_rows(out, rows.ravel(), len(qv))

    def vjp(g):
        q4, k4, v4 = split()
        if pool is not None:
            g = _pool_rows(g, rows)
        g = g.reshape(G, R, H, dh).transpose(0, 2, 1, 3)
        gp = matmul_array(g, np.swapaxes(v4, -1, -2))
        gv = np.swapaxes(p, -1, -2) @ g
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        gq = matmul_array(gs, k4)
        gk = np.swapaxes(np.swapaxes(q4, -1, -2) @ gs, -1, -2)
        if pool is None:
            return tuple(gx.transpose(0, 2, 1, 3).reshape(x.shape)
                         for gx, x in ((gq, qv), (gk, kv), (gv, vv)))
        gq, gk, gv = (gx.transpose(0, 2, 1, 3).reshape(-1, H * dh) for gx in (gq, gk, gv))
        return (_scatter_rows(gq, rows.ravel(), len(qv)),
                _scatter_rows(gk, keys.ravel(), len(kv), add=True),
                _scatter_rows(gv, keys.ravel(), len(vv), add=True))

    return node(out, (q, k, v), vjp)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """`gelu(x @ w1 + b1) @ w2 + b2` over (n, d) rows, as one node.

    Products go through `matmul_array`. The vjp keeps only the
    pre-activation and the tanh term beside the inputs' own arrays and
    recomputes the activation from them.
    """
    xv, w1v, b1v, w2v, b2v = value(x), value(w1), value(b1), value(w2), value(b2)
    if (xv.ndim != 2 or w1v.ndim != 2 or w2v.ndim != 2
            or xv.shape[1] != w1v.shape[0] or w2v.shape[0] != w1v.shape[1]
            or b1v.shape != w1v.shape[1:] or b2v.shape != w2v.shape[1:]):
        raise ShapeError("mlp", xv.shape, w1v.shape, b1v.shape, w2v.shape, b2v.shape)
    pre = matmul_array(xv, w1v) + b1v
    t = _gelu_tanh(pre)
    out = matmul_array(_gelu_value(pre, t), w2v) + b2v

    def vjp(g):
        h = _gelu_value(pre, t)
        gh = matmul_array(g, w2v.T)
        gpre = gh * _gelu_slope(pre, t)
        return (matmul_array(gpre, w1v.T), xv.T @ gpre, _unbroadcast(gpre, b1v.shape),
                h.T @ g, _unbroadcast(g, b2v.shape))

    return node(out, (x, w1, b1, w2, b2), vjp)


def cosine_rows(a, b) -> Tensor:
    """Row-wise cosine similarity of two (n, d) matrices -> (n,).

    A row whose norm product falls under EPS_COSINE yields similarity
    dot/EPS_COSINE (0 for a true zero vector) with zero gradient.
    """
    x, y = value(a), value(b)
    if x.shape != y.shape or x.ndim != 2:
        raise ShapeError("cosine_rows", x.shape, y.shape)
    dots = (x * y).sum(axis=-1)
    na = np.sqrt((x * x).sum(axis=-1))
    nb = np.sqrt((y * y).sum(axis=-1))
    prod = na * nb
    ok = prod >= EPS_COSINE
    den = np.where(ok, prod, EPS_COSINE)
    c = dots / den

    def vjp(g):
        gg = (g * ok) / den
        ga = gg[:, None] * (y - (c * np.where(ok, nb / np.maximum(na, EPS_COSINE), 0.0))[:, None] * x)
        gb = gg[:, None] * (x - (c * np.where(ok, na / np.maximum(nb, EPS_COSINE), 0.0))[:, None] * y)
        return (ga, gb)

    return node(c, (a, b), vjp)


def cosine(a, b) -> Tensor:
    """Cosine similarity of two vectors -> scalar."""
    x, y = value(a), value(b)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError("cosine", x.shape, y.shape)
    c = cosine_rows(reshape(a, (1, -1)), reshape(b, (1, -1)))
    return reshape(c, ())


def sq_dist(a, b) -> Tensor:
    """Squared Euclidean distance over the last axis: two vectors give a
    scalar, two (n, d) matrices the n row distances."""
    x, y = value(a), value(b)
    if x.shape != y.shape:
        raise ShapeError("sq_dist", x.shape, y.shape)
    diff = x - y
    out = (diff * diff).sum(axis=-1)

    def vjp(g):
        g = np.expand_dims(g, -1)
        return (g * 2.0 * diff, g * -2.0 * diff)

    return node(out, (a, b), vjp)


def dot(a, b) -> Tensor:
    x, y = value(a), value(b)
    if x.shape != y.shape:
        raise ShapeError("dot", x.shape, y.shape)
    out = (x * y).sum()
    return node(out, (a, b), lambda g: (g * y, g * x))


def masked_mean_nll(logits, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of `targets` under rows of `logits`.

    Only rows where `mask` is true contribute; the mean is over those rows.
    """
    x = value(logits)
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if x.ndim != 2 or targets.shape != (x.shape[0],) or mask.shape != targets.shape:
        raise ShapeError("masked_mean_nll", x.shape, targets.shape, mask.shape)
    if not mask.any():
        raise ValueError("masked_mean_nll: label mask selects no positions")
    z = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    ll = z[np.arange(len(targets)), targets] - lse
    count = int(mask.sum())
    out = -(ll * mask).sum() / count

    def vjp(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(len(targets)), targets] -= 1.0
        p *= (float(g) / count) * mask[:, None]
        return (p,)

    return node(out, (logits,), vjp)


def log_prob_row(logits, index) -> Tensor:
    """Log-softmax over the last axis at one index per row: a logits vector
    and an int give a scalar, (n, V) rows and n indices give (n,)."""
    x = value(logits)
    idx = np.asarray(index, dtype=np.int64)
    if x.ndim not in (1, 2) or idx.shape != x.shape[:-1]:
        raise ShapeError("log_prob_row", x.shape, idx.shape)
    z = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    at = (*np.indices(idx.shape), idx)
    out = z[at] - lse

    def vjp(g):
        g = np.asarray(g)
        p = np.exp(z - lse[..., None])
        p *= -g[..., None]
        p[at] += g
        return (p,)

    return node(out, (logits,), vjp)


def identity(a) -> Tensor:
    """Pass-through node; useful as an explicit use-site marker."""
    return node(value(a), (a,), lambda g: (g,))


def stop_gradient(a) -> Tensor:
    """Value-transparent barrier: backward contributes zero to ancestors."""
    x = value(a)
    if not _grad_enabled:
        return x
    return Tensor(x, (as_tensor(a),), None, barrier=True)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(loss: Tensor, params: dict[str, Tensor] | None = None,
             wrt: Iterable[Tensor] | None = None,
             stop_at: Iterable[Tensor] | None = None):
    """Reverse-mode gradients of a scalar `loss`.

    With `params` (name -> leaf tensor) returns {name: grad}; parameters not
    reached by any gradient path get zeros. Otherwise returns a list of
    gradients aligned with the nodes in `wrt`. Nodes in `stop_at` still
    accumulate gradient but pass none to their parents.

    Nodes run latest-made first, taken from a heap of the nodes that hold a
    gradient: a node is made after its parents, so every consumer of a node
    has run before it. A node's gradient is dropped once its vjp has run,
    unless it is a `wrt` node, so the map never holds every intermediate
    gradient at once. A node's first gradient is the array a vjp returned;
    its second makes a new sum, and its later ones add into that sum in
    place. An array a vjp returned is never written to, as vjps may return
    their own input or views of it.
    """
    if loss.data.shape not in ((), (1,)):
        raise NonScalarLoss(f"backward requires a scalar loss, got shape {loss.data.shape}")
    stop = {t.seq for t in stop_at} if stop_at is not None else set()
    wrt = [] if wrt is None else list(wrt)
    keep = {t.seq for t in wrt}
    grads: dict[int, np.ndarray] = {loss.seq: np.ones_like(loss.data)}
    owned = set()  # nodes whose gradient is a sum this loop allocated
    heap = [(-loss.seq, loss)]
    while heap:
        _, node = heapq.heappop(heap)
        if node.vjp is None or node.seq in stop:
            continue
        g = grads[node.seq] if node.seq in keep else grads.pop(node.seq)
        for p, pg in zip(node.parents, node.vjp(g)):
            if pg is None:
                continue
            acc = grads.get(p.seq)
            if acc is None:
                grads[p.seq] = pg
                heapq.heappush(heap, (-p.seq, p))
            elif p.seq in owned:
                acc += pg
                grads[p.seq] = acc  # a 0-d sum is a numpy scalar, which += rebinds
            else:
                grads[p.seq] = acc + pg
                owned.add(p.seq)

    if params is not None:
        return {name: grads.get(t.seq, np.zeros_like(t.data)) for name, t in params.items()}
    return [grads.get(t.seq, np.zeros_like(t.data)) for t in wrt]


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def finite_difference(f: Callable[[dict[str, np.ndarray]], float],
                      params: dict[str, np.ndarray],
                      eps: float = 1e-5,
                      coords: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Central-difference gradient of a scalar function of named arrays.

    `coords` optionally restricts each parameter to a list of flat indices
    (all coordinates otherwise). Untouched coordinates report gradient 0.
    """
    if not (1e-7 <= eps <= 1e-4):
        raise ValueError(f"finite_difference: eps {eps} outside [1e-7, 1e-4]")
    work = {k: v.astype(np.float64).copy() for k, v in params.items()}
    grads = {k: np.zeros_like(v) for k, v in work.items()}
    for name, arr in work.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        idxs = coords.get(name, np.array([], dtype=np.int64)) if coords is not None \
            else np.arange(flat.size)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            fp = f(work)
            flat[i] = orig - eps
            fm = f(work)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * eps)
    return grads


def max_rel_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray],
                  coords: dict[str, np.ndarray] | None = None) -> float:
    """Worst elementwise |a-n| / max(|a|, |n|, 1e-8) across the compared coords."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        if coords is not None:
            sel = coords.get(name, np.array([], dtype=np.int64))
            a = a.reshape(-1)[sel]
            n = n.reshape(-1)[sel]
        if a.size == 0:
            continue
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst
