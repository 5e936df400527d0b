"""Minimal reverse-mode autodiff on float64 numpy buffers.

Every operation builds a graph of `Tensor` nodes, each numbered from one
counter as it is made, so a node's number is above its parents'. `backward`
runs the nodes that hold a gradient latest-made first (the order of a tape,
read backwards) and returns a gradient map; it never mutates nodes, so one
graph can be differentiated several times (the staged trainers rely on this).
A node's third and later gradient contributions are added in place into a
sum `backward` allocated itself, never into an array a vjp returned.
`stop_gradient` inserts a hard barrier: values pass through unchanged,
gradients never cross.

Besides the primitives, two fused nodes carry a transformer block:
`attention` (head split, scores, masked softmax, `probs @ v`, head merge)
and `mlp` (`gelu(x @ w1 + b1) @ w2 + b2`). Each runs the numpy ops of the
op chain it stands for, in the same order, so values and gradients keep
their bits, and its vjp keeps only what backward needs.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

EPS_COSINE = 1e-12
EPS_LAYERNORM = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes do not fit an op's contract."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


class NonScalarLoss(ValueError):
    pass


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Skip graph construction inside the block; values are bit-identical."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


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
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        if _grad_enabled:
            self.parents = tuple(parents)
            self.vjp = vjp
        else:
            self.parents = ()
            self.vjp = None
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
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape)
    return Tensor(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError("sub", a.shape, b.shape)
    return Tensor(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape)
    return Tensor(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    s = float(s)
    return Tensor(a.data * s, (a,), lambda g: (g * s,))


def matmul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b`; a one-row `a` (2-d or batched) runs beside a zero row, as BLAS's
    gemv path for a lone row rounds differently from gemm."""
    if a.shape[-2] != 1:
        return a @ b
    return (np.concatenate([a, np.zeros_like(a)], axis=-2) @ b)[..., :1, :]


def matmul(a, b) -> Tensor:
    """Matrix product by `matmul_array`'s rule, as is its vjp's `g @ bᵀ`."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = matmul_array(a.data, b.data)

    def vjp(g):
        return (matmul_array(g, np.swapaxes(b.data, -1, -2)), np.swapaxes(a.data, -1, -2) @ g)

    return Tensor(out, (a, b), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", a.shape, shape)
    return Tensor(out, (a,), lambda g: (g.reshape(a.shape),))


def concat_rows(blocks: Sequence[Tensor]) -> Tensor:
    """Stack 2-d blocks along axis 0."""
    blocks = [as_tensor(b) for b in blocks]
    width = {b.shape[1] for b in blocks}
    if any(b.data.ndim != 2 for b in blocks) or len(width) != 1:
        raise ShapeError("concat_rows", *[b.shape for b in blocks])
    sizes = [b.shape[0] for b in blocks]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(blocks)))

    return Tensor(np.concatenate([b.data for b in blocks], axis=0), tuple(blocks), vjp)


def gather_rows(table, ids) -> Tensor:
    """Row lookup `table[ids]`; the embedding primitive. Backward scatter-adds."""
    table = as_tensor(table)
    idx = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError("gather_rows", table.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"gather_rows: id out of range for table with {table.shape[0]} rows")

    def vjp(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx, g)
        return (acc,)

    return Tensor(table.data[idx], (table,), vjp)


def get_row(a, i: int) -> Tensor:
    a = as_tensor(a)
    i = int(i)

    def vjp(g):
        acc = np.zeros_like(a.data)
        acc[i] = g
        return (acc,)

    return Tensor(a.data[i].copy(), (a,), vjp)


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.sum(), (a,), lambda g: (np.full(a.shape, float(g)),))


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return Tensor(a.data.mean(), (a,), lambda g: (np.full(a.shape, float(g) / n),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return Tensor(out, (a,), lambda g: (g * out,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


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
    a = as_tensor(a)
    t = _gelu_tanh(a.data)
    return Tensor(_gelu_value(a.data, t), (a,), lambda g: (g * _gelu_slope(a.data, t),))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes inside [lo, hi] (inclusive), zero outside."""
    a = as_tensor(a)
    inside = (a.data >= lo) & (a.data <= hi)
    return Tensor(np.clip(a.data, lo, hi), (a,), lambda g: (g * inside,))


def minimum2(a, b) -> Tensor:
    """Elementwise min of two same-shape tensors; ties route gradient to `a`."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("minimum2", a.shape, b.shape)
    take_a = a.data <= b.data
    return Tensor(np.where(take_a, a.data, b.data), (a, b), lambda g: (g * take_a, g * ~take_a))


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis, then apply elementwise gain and bias. Means
    are sums divided by the width, which is what `np.mean` computes."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError("layer_norm", x.shape, gain.shape, bias.shape)
    d = x.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + EPS_LAYERNORM)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        gy = g * gain.data
        gx = inv * (gy - gy.sum(axis=-1, keepdims=True) / d
                    - xhat * ((gy * xhat).sum(axis=-1, keepdims=True) / d))
        axes = tuple(range(g.ndim - 1))
        return (gx, (g * xhat).sum(axis=axes), g.sum(axis=axes))

    return Tensor(out, (x, gain, bias), vjp)


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return Tensor(p, (a,), vjp)


def attention(q, k, v, allow: np.ndarray, sum_buffer: np.ndarray, G: int, H: int,
              scale: float) -> Tensor:
    """Multi-head attention over G stacked sequences, as one node.

    `q` holds (G*R, d) query rows, R per sequence; `k` and `v` hold (G*T, d)
    or (G, T, d) key and value rows. Each is split into H heads of d/H
    columns, scores `q kᵀ * scale` are softmaxed over the keys that `allow`
    (bool, (G, H, R, T)) admits, and the heads of `probs @ v` are merged
    back into (G*R, d) rows. Disallowed keys get probability exactly 0.0;
    every row must keep at least one allowed key.

    `sum_buffer` (shape (G, H, R, W) with W at least T, zero beyond T) fixes
    how each softmax denominator is summed: over all W columns, the trailing
    ones exact zeros. numpy's pairwise sum groups terms by the row width, so
    a sum over T columns rounds differently for different T; over a fixed W
    a row's probabilities are the same bits whatever number of masked
    columns follow it.

    Products go through `matmul_array`. The vjp keeps only the probabilities
    beside the inputs' own arrays.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    scale = float(scale)
    allow = np.asarray(allow, dtype=bool)
    try:
        q4, k4, v4 = (x.data.reshape(G, -1, H, x.shape[-1] // H).transpose(0, 2, 1, 3)
                      for x in (q, k, v))
    except ValueError:
        raise ShapeError("attention", q.shape, k.shape, v.shape)
    R, T, dh = q4.shape[2], k4.shape[2], q4.shape[3]
    if q.shape[-1] % H or k.shape != v.shape or k4.shape[3] != dh or allow.shape != (G, H, R, T):
        raise ShapeError("attention", q.shape, k.shape, v.shape, allow.shape)
    if not allow.any(axis=-1).all():
        raise ValueError("attention: a row has no allowed entries")
    if sum_buffer.shape[:-1] != allow.shape[:-1] or sum_buffer.shape[-1] < T:
        raise ShapeError("attention", allow.shape, sum_buffer.shape)
    scores = matmul_array(q4, np.swapaxes(k4, -1, -2)) * scale
    neg = np.where(allow, scores, -np.inf)
    z = neg - neg.max(axis=-1, keepdims=True)
    e = np.exp(z, out=sum_buffer[..., :T])
    p = e / sum_buffer.sum(axis=-1, keepdims=True)
    out = matmul_array(p, v4).transpose(0, 2, 1, 3).reshape(G * R, H * dh)

    def vjp(g):
        g = g.reshape(G, R, H, dh).transpose(0, 2, 1, 3)
        gp = matmul_array(g, np.swapaxes(v4, -1, -2))
        gv = np.swapaxes(p, -1, -2) @ g
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        gq = matmul_array(gs, k4)
        gk = np.swapaxes(np.swapaxes(q4, -1, -2) @ gs, -1, -2)
        return tuple(gx.transpose(0, 2, 1, 3).reshape(x.shape)
                     for gx, x in ((gq, q), (gk, k), (gv, v)))

    return Tensor(out, (q, k, v), vjp)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """`gelu(x @ w1 + b1) @ w2 + b2` over (n, d) rows, as one node.

    Products go through `matmul_array`. The vjp keeps only the
    pre-activation and the tanh term beside the inputs' own arrays and
    recomputes the activation from them.
    """
    x, w1, b1, w2, b2 = (as_tensor(a) for a in (x, w1, b1, w2, b2))
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
            or x.shape[1] != w1.shape[0] or w2.shape[0] != w1.shape[1]
            or b1.shape != w1.shape[1:] or b2.shape != w2.shape[1:]):
        raise ShapeError("mlp", x.shape, w1.shape, b1.shape, w2.shape, b2.shape)
    pre = matmul_array(x.data, w1.data) + b1.data
    t = _gelu_tanh(pre)
    out = matmul_array(_gelu_value(pre, t), w2.data) + b2.data

    def vjp(g):
        h = _gelu_value(pre, t)
        gh = matmul_array(g, w2.data.T)
        gpre = gh * _gelu_slope(pre, t)
        return (matmul_array(gpre, w1.data.T), x.data.T @ gpre, _unbroadcast(gpre, b1.shape),
                h.T @ g, _unbroadcast(g, b2.shape))

    return Tensor(out, (x, w1, b1, w2, b2), vjp)


def cosine_rows(a, b) -> Tensor:
    """Row-wise cosine similarity of two (n, d) matrices -> (n,).

    A row whose norm product falls under EPS_COSINE yields similarity
    dot/EPS_COSINE (0 for a true zero vector) with zero gradient.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape or a.data.ndim != 2:
        raise ShapeError("cosine_rows", a.shape, b.shape)
    dots = (a.data * b.data).sum(axis=-1)
    na = np.sqrt((a.data * a.data).sum(axis=-1))
    nb = np.sqrt((b.data * b.data).sum(axis=-1))
    prod = na * nb
    ok = prod >= EPS_COSINE
    den = np.where(ok, prod, EPS_COSINE)
    c = dots / den

    def vjp(g):
        gg = (g * ok) / den
        ga = gg[:, None] * (b.data - (c * np.where(ok, nb / np.maximum(na, EPS_COSINE), 0.0))[:, None] * a.data)
        gb = gg[:, None] * (a.data - (c * np.where(ok, na / np.maximum(nb, EPS_COSINE), 0.0))[:, None] * b.data)
        return (ga, gb)

    return Tensor(c, (a, b), vjp)


def cosine(a, b) -> Tensor:
    """Cosine similarity of two vectors -> scalar."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape or a.data.ndim != 1:
        raise ShapeError("cosine", a.shape, b.shape)
    c = cosine_rows(reshape(a, (1, -1)), reshape(b, (1, -1)))
    return reshape(c, ())


def sq_dist(a, b) -> Tensor:
    """Squared Euclidean distance over the last axis: two vectors give a
    scalar, two (n, d) matrices the n row distances."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("sq_dist", a.shape, b.shape)
    diff = a.data - b.data

    def vjp(g):
        g = np.expand_dims(g, -1)
        return (g * 2.0 * diff, g * -2.0 * diff)

    return Tensor((diff * diff).sum(axis=-1), (a, b), vjp)


def dot(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("dot", a.shape, b.shape)
    return Tensor((a.data * b.data).sum(), (a, b), lambda g: (g * b.data, g * a.data))


def masked_mean_nll(logits, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of `targets` under rows of `logits`.

    Only rows where `mask` is true contribute; the mean is over those rows.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if logits.data.ndim != 2 or targets.shape != (logits.shape[0],) or mask.shape != targets.shape:
        raise ShapeError("masked_mean_nll", logits.shape, targets.shape, mask.shape)
    if not mask.any():
        raise ValueError("masked_mean_nll: label mask selects no positions")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    ll = z[np.arange(len(targets)), targets] - lse
    count = int(mask.sum())
    out = -(ll * mask).sum() / count

    def vjp(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(len(targets)), targets] -= 1.0
        p *= (float(g) / count) * mask[:, None]
        return (p,)

    return Tensor(out, (logits,), vjp)


def log_prob_row(logits, index) -> Tensor:
    """Log-softmax over the last axis at one index per row: a logits vector
    and an int give a scalar, (n, V) rows and n indices give (n,)."""
    logits = as_tensor(logits)
    idx = np.asarray(index, dtype=np.int64)
    if logits.data.ndim not in (1, 2) or idx.shape != logits.shape[:-1]:
        raise ShapeError("log_prob_row", logits.shape, idx.shape)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    at = (*np.indices(idx.shape), idx)
    out = z[at] - lse

    def vjp(g):
        g = np.asarray(g)
        p = np.exp(z - lse[..., None])
        p *= -g[..., None]
        p[at] += g
        return (p,)

    return Tensor(out, (logits,), vjp)


def identity(a) -> Tensor:
    """Pass-through node; useful as an explicit use-site marker."""
    a = as_tensor(a)
    return Tensor(a.data, (a,), lambda g: (g,))


def stop_gradient(a) -> Tensor:
    """Value-transparent barrier: backward contributes zero to ancestors."""
    a = as_tensor(a)
    return Tensor(a.data, (a,), None, barrier=True)


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
