"""Minimal reverse-mode autodiff on float64 numpy buffers.

Every operation builds a graph of `Tensor` nodes. `backward` walks the graph
once in reverse topological order and returns a gradient map; it never mutates
nodes, so one graph can be differentiated several times (the staged trainers
rely on this). `stop_gradient` inserts a hard barrier: values pass through
unchanged, gradients never cross.
"""

from __future__ import annotations

import contextlib
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


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """A graph node holding a float64 ndarray value.

    `vjp` maps the output gradient to one gradient per parent (None allowed
    for non-differentiable parents). `barrier` marks a stop-gradient node.
    """

    __slots__ = ("data", "parents", "vjp", "barrier", "name")

    def __init__(self, data, parents=(), vjp=None, barrier=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
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

    # operator sugar used throughout the model code
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

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


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = a.data @ b.data

    def vjp(g):
        return (g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g)

    return Tensor(out, (a, b), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", a.shape, shape)
    return Tensor(out, (a,), lambda g: (g.reshape(a.shape),))


def swap_last(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise ShapeError("swap_last", a.shape)
    return Tensor(np.swapaxes(a.data, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


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


def rows(a, idx) -> Tensor:
    return gather_rows(a, idx)


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


def log(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    x2 = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * (x2 * x)))
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 0.134145 * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner),)

    return Tensor(out, (a,), vjp)


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
    """Normalize the last axis, then apply elementwise gain and bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError("layer_norm", x.shape, gain.shape, bias.shape)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + EPS_LAYERNORM)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        d = x.shape[-1]
        gy = g * gain.data
        gx = inv * (gy - gy.mean(axis=-1, keepdims=True) - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
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


def masked_softmax(scores, allow: np.ndarray, sum_buffer: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis restricted to `allow` (bool, same shape).

    Disallowed entries come out exactly 0.0. Every row must keep at least one
    allowed entry.

    `sum_buffer` (shape `scores.shape[:-1] + (W,)` with W at least the score
    width, zero beyond it) fixes how each denominator is summed: over all W
    columns, the trailing ones exact zeros. numpy's pairwise sum groups terms
    by the row width, so a sum over T columns rounds differently for
    different T; over a fixed W a row's probabilities are the same bits
    whatever number of masked columns follow it. Without a buffer W is the
    score width, and the rounding depends on it.
    """
    scores = as_tensor(scores)
    allow = np.asarray(allow, dtype=bool)
    if allow.shape != scores.shape:
        raise ShapeError("masked_softmax", scores.shape, allow.shape)
    if not allow.any(axis=-1).all():
        raise ValueError("masked_softmax: a row has no allowed entries")
    neg = np.where(allow, scores.data, -np.inf)
    z = neg - neg.max(axis=-1, keepdims=True)
    if sum_buffer is None:
        sum_buffer = np.zeros(z.shape)
    if sum_buffer.shape[:-1] != z.shape[:-1] or sum_buffer.shape[-1] < z.shape[-1]:
        raise ShapeError("masked_softmax", scores.shape, sum_buffer.shape)
    e = np.exp(z, out=sum_buffer[..., :z.shape[-1]])
    p = e / sum_buffer.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return Tensor(p, (scores,), vjp)


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

def _topo(root: Tensor, stop: set | None = None) -> list[Tensor]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if not node.barrier and (stop is None or id(node) not in stop):
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
    return order


def backward(loss: Tensor, params: dict[str, Tensor] | None = None,
             wrt: Iterable[Tensor] | None = None,
             stop_at: Iterable[Tensor] | None = None):
    """Reverse-mode gradients of a scalar `loss`.

    With `params` (name -> leaf tensor) returns {name: grad}; parameters not
    reached by any gradient path get zeros. With `wrt` returns a list of
    gradients aligned with the given nodes. Both may be combined. Nodes in
    `stop_at` still accumulate gradient but their ancestors are not visited.
    A node's gradient is dropped once its vjp has run, unless it is a `wrt`
    node, so the map never holds every intermediate gradient at once.
    """
    if loss.data.shape not in ((), (1,)):
        raise NonScalarLoss(f"backward requires a scalar loss, got shape {loss.data.shape}")
    stop = {id(t) for t in stop_at} if stop_at is not None else None
    wrt = list(wrt) if wrt is not None else None
    keep = {id(t) for t in wrt} if wrt is not None else set()
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(_topo(loss, stop)):
        g = grads.get(id(node))
        if g is None or node.barrier or node.vjp is None:
            continue
        if stop is not None and id(node) in stop:
            continue
        if id(node) not in keep:
            del grads[id(node)]
        parent_grads = node.vjp(g)
        for p, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg

    results = []
    if params is not None:
        results.append({name: grads.get(id(t), np.zeros_like(t.data)) for name, t in params.items()})
    if wrt is not None:
        results.append([grads.get(id(t), np.zeros_like(t.data)) for t in wrt])
    if params is not None and wrt is not None:
        return tuple(results)
    return results[0]


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
                  coords: dict[str, np.ndarray] | None = None,
                  floor: float = 1e-8) -> float:
    """Worst elementwise |a-n| / max(|a|, |n|, floor) across the compared coords."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        if coords is not None:
            sel = coords.get(name, np.array([], dtype=np.int64))
            a = a.reshape(-1)[sel]
            n = n.reshape(-1)[sel]
        if a.size == 0:
            continue
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst
