import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcot import autodiff as ad
from latentcot import model


def test_cosine_identity_and_orthogonality():
    v = ad.constant(np.array([3.0, -1.5, 2.0]))
    assert ad.cosine(v, v).item() == pytest.approx(1.0, abs=1e-12)
    a = ad.constant(np.array([1.0, 0.0]))
    b = ad.constant(np.array([0.0, 1.0]))
    assert ad.cosine(a, b).item() == pytest.approx(0.0, abs=1e-12)


def test_softmax_symmetry():
    p = ad.softmax(ad.constant(np.zeros(3)))
    assert np.allclose(p.data, [1 / 3] * 3)


def test_cosine_zero_vector_guard():
    z = ad.parameter("z", np.zeros(4))
    v = ad.parameter("v", np.array([1.0, 2.0, 3.0, 4.0]))
    c = ad.cosine(z, v)
    assert c.item() == 0.0
    grads = ad.backward(c, {"z": z, "v": v})
    assert np.all(grads["z"] == 0.0)
    assert np.all(grads["v"] == 0.0)


def test_stop_gradient_properties():
    x = ad.parameter("x", np.array(2.0))
    y = ad.parameter("y", np.array(5.0))
    out = ad.mul(ad.stop_gradient(x), y)
    assert out.item() == 10.0
    grads = ad.backward(out, {"x": x, "y": y})
    assert grads["x"] == 0.0
    assert grads["y"] == 2.0  # value(x)


def test_stop_gradient_value_transparent():
    rng = np.random.default_rng(0)
    x = ad.constant(rng.normal(size=(4, 4)))
    g = ad.constant(np.ones(4))
    b = ad.constant(np.zeros(4))
    plain = ad.layer_norm(ad.gelu(x), g, b)
    barred = ad.layer_norm(ad.gelu(ad.stop_gradient(x)), g, b)
    assert np.array_equal(plain.data, barred.data)


def test_backward_sum_gives_ones():
    p = ad.parameter("p", np.array([1.0, -2.0, 0.5]))
    grads = ad.backward(ad.sum_all(p), {"p": p})
    assert np.array_equal(grads["p"], np.ones(3))


def test_backward_squared_norm():
    p = ad.parameter("p", np.array([1.0, 2.0]))
    loss = ad.dot(p, p)
    grads = ad.backward(loss, {"p": p})
    assert np.allclose(grads["p"], [2.0, 4.0])


def test_backward_rejects_non_scalar():
    p = ad.parameter("p", np.ones(3))
    with pytest.raises(ad.NonScalarLoss):
        ad.backward(ad.mul(p, p), {"p": p})


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ad.ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 5))))


def test_finite_difference_quadratic():
    grads = ad.finite_difference(lambda p: float(p["x"] ** 2), {"x": np.array(3.0)}, eps=1e-5)
    assert grads["x"] == pytest.approx(6.0, abs=1e-6)


def test_finite_difference_constant():
    grads = ad.finite_difference(lambda p: 7.0, {"x": np.arange(4.0)}, eps=1e-5)
    assert np.all(grads["x"] == 0.0)


def test_finite_difference_rejects_bad_eps():
    with pytest.raises(ValueError):
        ad.finite_difference(lambda p: 0.0, {"x": np.array(1.0)}, eps=1e-2)


def _cosine_align_loss(params):
    a = ad.as_tensor(params["a"]) if not isinstance(params["a"], ad.Tensor) else params["a"]
    b = ad.as_tensor(params["b"]) if not isinstance(params["b"], ad.Tensor) else params["b"]
    return ad.mean_all(ad.sub(1.0, ad.cosine_rows(ad.reshape(a, (2, 4)), ad.reshape(b, (2, 4)))))


def test_cosine_alignment_matches_finite_differences():
    rng = np.random.default_rng(7)
    vals = {"a": rng.normal(size=8), "b": rng.normal(size=8)}
    a = ad.parameter("a", vals["a"])
    b = ad.parameter("b", vals["b"])
    analytic = ad.backward(_cosine_align_loss({"a": a, "b": b}), {"a": a, "b": b})

    def f(p):
        with ad.no_grad():
            return _cosine_align_loss({"a": ad.constant(p["a"]), "b": ad.constant(p["b"])}).item()

    numeric = ad.finite_difference(f, vals, eps=1e-5)
    assert ad.max_rel_error(analytic, numeric) < 1e-4


def _two_layer_net(params, x):
    h = ad.gelu(ad.matmul(x, params["w1"]))
    h = ad.layer_norm(h, params["g1"], params["b1"])
    h = ad.matmul(h, params["w2"])
    p = ad.softmax(h)
    return ad.mean_all(ad.sub(1.0, ad.cosine_rows(p, ad.exp(ad.scale(h, 0.1)))))


def test_composite_net_matches_finite_differences():
    rng = np.random.default_rng(11)
    vals = {
        "w1": rng.normal(size=(5, 6)) * 0.5,
        "g1": rng.normal(size=6) * 0.2 + 1.0,
        "b1": rng.normal(size=6) * 0.1,
        "w2": rng.normal(size=(6, 4)) * 0.5,
    }
    x = ad.constant(rng.normal(size=(3, 5)))
    params = {k: ad.parameter(k, v) for k, v in vals.items()}
    analytic = ad.backward(_two_layer_net(params, x), params)

    def f(p):
        with ad.no_grad():
            consts = {k: ad.constant(v) for k, v in p.items()}
            return _two_layer_net(consts, x).item()

    numeric = ad.finite_difference(f, vals, eps=1e-5)
    assert ad.max_rel_error(analytic, numeric) < 1e-4


def test_fused_ops_match_finite_differences():
    rng = np.random.default_rng(3)
    T, V = 4, 6
    vals = {"logits": rng.normal(size=(T, V))}
    targets = rng.integers(0, V, size=T)
    mask = np.array([True, False, True, True])
    allow = np.broadcast_to(np.tril(np.ones((T, T), dtype=bool)), (1, 2, T, T))

    def build(p):
        logits = p["logits"] if isinstance(p["logits"], ad.Tensor) else ad.constant(p["logits"])
        nll = ad.masked_mean_nll(logits, targets, mask)
        att = ad.attention(logits, logits, logits, allow, np.zeros((1, 2, T, T)), 1, 2, 0.5)
        lp = ad.log_prob_row(ad.get_row(logits, 1), 2)
        return ad.add(ad.add(nll, ad.mean_all(att)), ad.scale(lp, 0.5))

    p = {"logits": ad.parameter("logits", vals["logits"])}
    analytic = ad.backward(build(p), p)

    def f(pv):
        with ad.no_grad():
            return build({"logits": ad.constant(pv["logits"])}).item()

    numeric = ad.finite_difference(f, vals, eps=1e-5)
    assert ad.max_rel_error(analytic, numeric) < 1e-4


def test_clip_subgradient_convention():
    x = ad.parameter("x", np.array([-2.0, 0.5, 3.0]))
    grads = ad.backward(ad.sum_all(ad.clip(x, -1.0, 1.0)), {"x": x})
    assert np.array_equal(grads["x"], [0.0, 1.0, 0.0])


def test_gradient_linearity():
    rng = np.random.default_rng(5)
    p = ad.parameter("p", rng.normal(size=(3, 3)))
    x = ad.constant(rng.normal(size=(3, 3)))
    la = ad.mean_all(ad.gelu(ad.matmul(p, x)))
    lb = ad.sum_all(ad.mul(p, p))
    g_sum = ad.backward(ad.add(la, lb), {"p": p})
    ga = ad.backward(la, {"p": p})
    gb = ad.backward(lb, {"p": p})
    assert np.max(np.abs(g_sum["p"] - (ga["p"] + gb["p"]))) < 1e-12


def test_backward_deterministic():
    def run():
        rng = np.random.default_rng(9)
        p = ad.parameter("p", rng.normal(size=(4, 4)))
        x = ad.constant(rng.normal(size=(4, 4)))
        h = ad.layer_norm(ad.matmul(p, x), ad.constant(np.ones(4)), ad.constant(np.zeros(4)))
        loss = ad.mean_all(ad.mul(h, h))
        return ad.backward(loss, {"p": p})["p"]

    assert np.array_equal(run(), run())


def test_unreachable_param_reports_zeros():
    p = ad.parameter("p", np.ones(2))
    q = ad.parameter("q", np.ones(2))
    grads = ad.backward(ad.sum_all(p), {"p": p, "q": q})
    assert np.array_equal(grads["q"], np.zeros(2))


def test_no_grad_values_bit_identical():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 5))
    with ad.no_grad():
        a = ad.value(ad.gelu(ad.constant(x)))
    b = ad.gelu(ad.constant(x)).data
    assert np.array_equal(a, b)


def test_no_grad_ops_on_arrays_return_arrays_with_the_bits_of_nodes():
    """With grad off, every op returns an ndarray or numpy scalar holding its
    node's bits and takes no creation number, whether its operands are
    float64 arrays or nodes. The table covers every op that records a node,
    `stop_gradient`, and the model's own ops."""
    rng = np.random.default_rng(29)
    x, y = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
    u, v = rng.normal(size=8), rng.normal(size=8)
    w, w1, b1, w2 = (rng.normal(size=s) for s in ((8, 8), (8, 32), (32,), (32, 8)))
    w_out = rng.normal(size=(8, 41))
    allow = np.tri(3, dtype=bool)[None, None].repeat(2, axis=1)
    ops = {  # name: (op, operands)
        "add": (ad.add, (x, y)),
        "sub": (ad.sub, (x, y)),
        "mul": (ad.mul, (x, y)),
        "scale": (lambda a: ad.scale(a, 0.3), (x,)),
        "matmul": (ad.matmul, (x, w)),
        "reshape": (lambda a: ad.reshape(a, (4, 6)), (x,)),
        "concat_rows": (lambda a, c: ad.concat_rows([a, c], [5, 0, 3, 1, 4, 2]), (x, y)),
        "gather_rows": (lambda a: ad.gather_rows(a, [2, 0, 2]), (x,)),
        "get_row": (lambda a: ad.get_row(a, 1), (x,)),
        "sum_all": (ad.sum_all, (x,)),
        "mean_all": (ad.mean_all, (x,)),
        "exp": (ad.exp, (x,)),
        "tanh": (ad.tanh, (x,)),
        "gelu": (ad.gelu, (x,)),
        "clip": (lambda a: ad.clip(a, -0.5, 0.5), (x,)),
        "minimum2": (ad.minimum2, (x, y)),
        "layer_norm": (ad.layer_norm, (x, u, v)),
        "softmax": (ad.softmax, (x,)),
        "attention": (lambda q, k: ad.attention(q, k, k, allow, np.zeros((1, 2, 3, 5)), 1, 2, 0.5),
                      (x, y)),
        "mlp": (ad.mlp, (x, w1, b1, w2, u)),
        "cosine_rows": (ad.cosine_rows, (x, y)),
        "cosine": (ad.cosine, (u, v)),
        "sq_dist": (ad.sq_dist, (x, y)),
        "dot": (ad.dot, (x, y)),
        "masked_mean_nll": (lambda a: ad.masked_mean_nll(a, [1, 2, 3], [True, False, True]), (x,)),
        "log_prob_row": (lambda a: ad.log_prob_row(a, [1, 2, 3]), (x,)),
        "identity": (ad.identity, (x,)),
        "stop_gradient": (ad.stop_gradient, (x,)),
        "model._head": (model._head, (x, w_out)),
        "model._select_rows": (lambda a, c: model._select_rows(a, c, np.array([True, False, True])),
                               (x, y)),
    }
    recording = {name for name, f in vars(ad).items()
                 if inspect.isfunction(f) and "return node(" in inspect.getsource(f)}
    assert recording <= ops.keys(), recording - ops.keys()
    for name, (op, operands) in ops.items():
        graph = op(*map(ad.constant, operands))
        assert isinstance(graph, ad.Tensor), name
        for kind, args in (("arrays", operands), ("nodes", [ad.constant(a) for a in operands])):
            with ad.no_grad():
                before = next(ad._sequence)
                out = op(*args)
                made = next(ad._sequence) - before - 1
            assert isinstance(out, (np.ndarray, np.float64)) and made == 0, (name, kind)
            assert np.array_equal(out, graph.data), (name, kind)


def test_concat_rows_places_rows_and_checks_the_order():
    a, b = ad.parameter("a", np.arange(4.0).reshape(2, 2)), ad.parameter("b", np.ones((1, 2)))
    out = ad.concat_rows([a, b], [2, 0, 1])
    assert np.array_equal(out.data, [[2.0, 3.0], [1.0, 1.0], [0.0, 1.0]])
    grads = ad.backward(ad.sum_all(ad.mul(out, np.array([[1.0], [2.0], [3.0]]))), {"a": a, "b": b})
    assert np.array_equal(grads["a"], [[3.0, 3.0], [1.0, 1.0]])
    assert np.array_equal(grads["b"], [[2.0, 2.0]])
    for order in ([0, 0, 1], [0, 1]):
        with pytest.raises(ValueError, match="each row index once"):
            ad.concat_rows([a, b], order)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(vals):
    p = ad.softmax(ad.constant(np.array(vals)))
    assert p.data.sum() == pytest.approx(1.0, abs=1e-12)
    assert (p.data >= 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_matmul_grads_match_fd(seed):
    rng = np.random.default_rng(seed)
    vals = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(3, 2))}
    a = ad.parameter("a", vals["a"])
    b = ad.parameter("b", vals["b"])
    analytic = ad.backward(ad.sum_all(ad.tanh(ad.matmul(a, b))), {"a": a, "b": b})

    def f(p):
        with ad.no_grad():
            return ad.sum_all(ad.tanh(ad.matmul(ad.constant(p["a"]), ad.constant(p["b"])))).item()

    numeric = ad.finite_difference(f, vals, eps=1e-5)
    assert ad.max_rel_error(analytic, numeric) < 1e-4


@pytest.mark.parametrize("a_shape, b_shape", [((7, 64), (64, 256)), ((7, 16), (16, 16)),
                                              ((2, 4, 7, 16), (2, 4, 9, 16))])
def test_one_row_matmul_matches_its_row_in_a_longer_product(a_shape, b_shape):
    """A one-row left operand gets the bits of the same row inside a longer
    product, in the output and in both vjp products (BLAS alone would take
    the lone row down its gemv path). The shapes are the model's: hidden
    widths, and attention scores against transposed keys (G, H, dh, T)."""
    rng = np.random.default_rng(5)
    a_all, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    if b.ndim == 4:
        b = np.swapaxes(b, -1, -2)
    g_all = rng.normal(size=a_shape[:-1] + b.shape[-1:])

    def run(a_val, g):
        a, bp = ad.parameter("a", a_val), ad.parameter("b", b)
        out = ad.matmul(a, bp)
        grads = ad.backward(ad.sum_all(ad.mul(out, g)), {"a": a, "b": bp})
        return out.data, grads["a"], grads["b"]

    long_out, long_grad_a, _ = run(a_all, g_all)
    for i in range(a_shape[-2]):
        row = np.s_[..., i:i + 1, :]
        out, grad_a, grad_b = run(a_all[row], g_all[row])
        assert np.array_equal(out, long_out[row])
        assert np.array_equal(grad_a, long_grad_a[row])
        # with the other rows' output gradients zero, `aᵀ @ g` is this row's alone
        g_row = np.zeros_like(g_all)
        g_row[row] = g_all[row]
        assert np.array_equal(grad_b, run(a_all, g_row)[2])


def _attention_inputs(rng, G, H, R, T, d, kv_shape):
    """Query, key and value rows, a mask with keys masked at random (key 0
    always allowed), and a sum buffer wider than T."""
    vals = {"q": rng.normal(size=(G * R, d)), "k": rng.normal(size=kv_shape),
            "v": rng.normal(size=kv_shape)}
    allow = rng.random((G, H, R, T)) < 0.6
    allow[..., 0] = True
    return vals, allow, T + 3


@pytest.mark.parametrize("R, kv", [(3, "rows"), (3, "stacked"), (1, "rows")])
def test_attention_matches_finite_differences(R, kv):
    """Two sequences, two heads, masked keys, a sum buffer wider than T, and
    a one-row query; keys and values as (G*T, d) rows or (G, T, d)."""
    rng = np.random.default_rng(17)
    G, H, T, d = 2, 2, 5, 4
    vals, allow, width = _attention_inputs(rng, G, H, R, T, d,
                                           (G * T, d) if kv == "rows" else (G, T, d))
    weights = rng.normal(size=(G * R, d))

    def build(p):
        att = ad.attention(p["q"], p["k"], p["v"], allow, np.zeros((G, H, R, width)), G, H, 0.7)
        return ad.sum_all(ad.mul(att, weights))

    params = {k: ad.parameter(k, v) for k, v in vals.items()}
    analytic = ad.backward(build(params), params)

    def f(p):
        with ad.no_grad():
            return build({k: ad.constant(v) for k, v in p.items()}).item()

    assert ad.max_rel_error(analytic, ad.finite_difference(f, vals, eps=1e-5)) < 1e-4


def test_attention_gives_masked_keys_zero_weight_and_checks_its_rows():
    rng = np.random.default_rng(2)
    vals, allow, width = _attention_inputs(rng, 1, 2, 3, 4, 4, (4, 4))
    buffer = np.zeros((1, 2, 3, width))
    base = ad.attention(vals["q"], vals["k"], vals["v"], allow, buffer, 1, 2, 0.5).data
    hidden = np.where(~allow.any(axis=(0, 1, 2)))[0]
    moved = vals["v"].copy()
    moved[hidden] += 100.0  # keys no row sees
    assert np.array_equal(base, ad.attention(vals["q"], vals["k"], moved, allow, buffer,
                                             1, 2, 0.5).data)
    allow[0, 1, 2] = False
    with pytest.raises(ValueError, match="no allowed entries"):
        ad.attention(vals["q"], vals["k"], vals["v"], allow, buffer, 1, 2, 0.5)
    with pytest.raises(ad.ShapeError, match="attention"):
        ad.attention(vals["q"], vals["k"], vals["v"][:3], allow, buffer, 1, 2, 0.5)


def test_mlp_matches_finite_differences():
    rng = np.random.default_rng(19)
    vals = {"x": rng.normal(size=(3, 4)), "w1": rng.normal(size=(4, 6)) * 0.7,
            "b1": rng.normal(size=6) * 0.3, "w2": rng.normal(size=(6, 4)) * 0.7,
            "b2": rng.normal(size=4) * 0.3}
    weights = rng.normal(size=(3, 4))

    def build(p):
        return ad.sum_all(ad.mul(ad.mlp(p["x"], p["w1"], p["b1"], p["w2"], p["b2"]), weights))

    params = {k: ad.parameter(k, v) for k, v in vals.items()}
    analytic = ad.backward(build(params), params)

    def f(p):
        with ad.no_grad():
            return build({k: ad.constant(v) for k, v in p.items()}).item()

    assert ad.max_rel_error(analytic, ad.finite_difference(f, vals, eps=1e-5)) < 1e-4


def _attention_chain(q, k, v, allow, width, G, H, scale, g):
    """The op chain `ad.attention` replaced, in numpy: split heads, `q kᵀ`,
    scale, masked softmax over a `width`-column buffer, `@ v`, merge heads;
    then each op's vjp in reverse. Returns (output, grad q, grad k, grad v)."""
    def heads(x):
        return x.reshape(G, -1, H, x.shape[-1] // H).transpose(0, 2, 1, 3)

    q4, k4, v4 = heads(q), heads(k), heads(v)
    kt = np.swapaxes(k4, -1, -2)
    scores = ad.matmul_array(q4, kt)
    scaled = scores * scale
    neg = np.where(allow, scaled, -np.inf)
    z = neg - neg.max(axis=-1, keepdims=True)
    buffer = np.zeros(allow.shape[:-1] + (width,))
    e = np.exp(z, out=buffer[..., :z.shape[-1]])
    p = e / buffer.sum(axis=-1, keepdims=True)
    o = ad.matmul_array(p, v4)
    G_, H_, R, dh = o.shape
    out = o.transpose(0, 2, 1, 3).reshape(G_ * R, H_ * dh)
    go = g.reshape(G_, R, H_, dh).transpose(0, 2, 1, 3)
    gp = ad.matmul_array(go, np.swapaxes(v4, -1, -2))
    gv4 = np.swapaxes(p, -1, -2) @ go
    gscaled = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    gscores = gscaled * scale
    gq4 = ad.matmul_array(gscores, np.swapaxes(kt, -1, -2))
    gkt = np.swapaxes(q4, -1, -2) @ gscores
    gk4 = np.swapaxes(gkt, -1, -2)
    return (out, gq4.transpose(0, 2, 1, 3).reshape(q.shape),
            gk4.transpose(0, 2, 1, 3).reshape(k.shape), gv4.transpose(0, 2, 1, 3).reshape(v.shape))


def _mlp_chain(x, w1, b1, w2, b2, g):
    """The op chain `ad.mlp` replaced, in numpy: matmul, bias add, gelu,
    matmul, bias add; then each op's vjp in reverse. Returns (output, grad x,
    grad w1, grad b1, grad w2, grad b2)."""
    c = np.sqrt(2.0 / np.pi)
    pre = ad.matmul_array(x, w1) + b1
    x2 = pre * pre
    t = np.tanh(c * (pre + 0.044715 * (x2 * pre)))
    h = 0.5 * pre * (1.0 + t)
    out = ad.matmul_array(h, w2) + b2
    gb2 = g.sum(axis=(0,))
    gh = ad.matmul_array(g, np.swapaxes(w2, -1, -2))
    gw2 = np.swapaxes(h, -1, -2) @ g
    dinner = c * (1.0 + 0.134145 * x2)
    gpre = gh * (0.5 * (1.0 + t) + 0.5 * pre * (1.0 - t * t) * dinner)
    gb1 = gpre.sum(axis=(0,))
    gx = ad.matmul_array(gpre, np.swapaxes(w1, -1, -2))
    gw1 = np.swapaxes(x, -1, -2) @ gpre
    return out, gx, gw1, gb1, gw2, gb2


@pytest.mark.parametrize("R", [1, 2, 7])
def test_fused_nodes_give_the_bits_of_the_op_chains_they_replace(R):
    """`ad.attention` and `ad.mlp` at the reference widths (d = 64, 4 heads,
    a 160-column sum buffer): output and every vjp output equal the numpy
    transcription of the old op chain under `np.array_equal`. The score
    scale is not a power of two, so a reordered product would show."""
    rng = np.random.default_rng(R)
    G, H, T, d = 2, 4, 9, 64
    vals, allow, _ = _attention_inputs(rng, G, H, R, T, d, (G * T, d))
    g = rng.normal(size=(G * R, d))
    node = ad.attention(vals["q"], vals["k"], vals["v"], allow, np.zeros((G, H, R, 160)),
                        G, H, 0.3)
    want = _attention_chain(vals["q"], vals["k"], vals["v"], allow, 160, G, H, 0.3, g)
    for got, ref in zip((node.data, *node.vjp(g)), want):
        assert np.array_equal(got, ref)

    x = rng.normal(size=(G * R, d))
    w1, b1 = rng.normal(scale=0.3, size=(d, 4 * d)), rng.normal(scale=0.1, size=4 * d)
    w2, b2 = rng.normal(scale=0.3, size=(4 * d, d)), rng.normal(scale=0.1, size=d)
    node = ad.mlp(x, w1, b1, w2, b2)
    for got, ref in zip((node.data, *node.vjp(g)), _mlp_chain(x, w1, b1, w2, b2, g)):
        assert np.array_equal(got, ref)


def test_backward_never_writes_into_an_array_a_vjp_returned():
    """A node that takes three or more gradient contributions sums them in
    a buffer of its own: the arrays the vjps returned, including an input
    gradient passed straight through, keep their values."""
    p = ad.parameter("p", np.array([1.0, -2.0, 0.5]))
    returned = []

    def recorded(node):
        def vjp(g):
            out = node.vjp(g)
            returned.extend((a, a.copy()) for a in out)
            return out
        return ad.Tensor(node.data, node.parents, vjp)

    uses = [recorded(ad.identity(p)), recorded(ad.scale(p, 3.0)), recorded(ad.identity(p)),
            recorded(ad.scale(p, -0.5))]
    total = uses[0]
    for u in uses[1:]:
        total = recorded(ad.add(total, u))
    grads = ad.backward(ad.sum_all(total), {"p": p})
    assert np.array_equal(grads["p"], np.full(3, 1.0 + 3.0 + 1.0 - 0.5))
    assert len(returned) == 10
    for arr, snapshot in returned:
        assert np.array_equal(arr, snapshot)
