import functools
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentcot import autodiff as ad
from latentcot import model, vocab
from latentcot.layouts import build_interleaved, build_student
from latentcot.model import (Checkpoint, CheckpointError,
                             LayoutError, MaskMode, ModelConfig, SegmentRole,
                             SequenceLayout, build_attention_mask,
                             ForwardCache, LatentStep, TextStep, copy_params,
                             decode_group, decode_with_latents, embed_layout,
                             fill_latents, forward, image_segment,
                             init_params, latent_segment, load_checkpoint,
                             param_shapes, sample_token, save_checkpoint,
                             text_segment, zero_params)
from latentcot.tasks import CurationConfig, build_corpus

CFG = ModelConfig(layer_count=2, hidden_dim=16, head_count=2, max_positions=96)


def brute_force_mask(layout, mode):
    """Naive double loop over the role rules; the independent twin of
    build_attention_mask."""
    T = layout.length
    pos_seg = []
    for si, seg in enumerate(layout.segments):
        pos_seg += [si] * len(seg)
    allow = np.zeros((T, T), dtype=bool)
    for q in range(T):
        for k in range(q + 1):
            ok = True
            if mode is MaskMode.AUX_GATED and layout.roles[k] is SegmentRole.AUX_IMAGE:
                same_seg = pos_seg[q] == pos_seg[k]
                in_next_latent = (pos_seg[q] == pos_seg[k] + 1
                                  and layout.roles[q] is SegmentRole.LATENT)
                ok = same_seg or in_next_latent
            allow[q, k] = ok
    return allow


def random_layout(rng, require_aux=False):
    segments = [text_segment(SegmentRole.QUESTION_TEXT,
                             rng.integers(0, vocab.VOCAB_SIZE, size=rng.integers(1, 4)).tolist())]
    n_aux = 0
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(0, 3)
        if kind == 0:
            segments.append(text_segment(SegmentRole.PLAIN_TEXT,
                                         rng.integers(0, vocab.VOCAB_SIZE, size=rng.integers(1, 4)).tolist()))
        elif kind == 1:
            segments.append(image_segment(SegmentRole.AUX_IMAGE,
                                          rng.normal(size=(rng.integers(1, 4), CFG.patch_features))))
            segments.append(latent_segment(int(rng.integers(1, 4))))
            n_aux += 1
        else:
            segments.append(text_segment(SegmentRole.OBSERVATION_TEXT,
                                         rng.integers(0, vocab.VOCAB_SIZE, size=rng.integers(1, 3)).tolist()))
    if require_aux and n_aux == 0:
        segments.append(image_segment(SegmentRole.AUX_IMAGE,
                                      rng.normal(size=(2, CFG.patch_features))))
        segments.append(latent_segment(2))
    segments.append(text_segment(SegmentRole.ANSWER,
                                 rng.integers(0, vocab.VOCAB_SIZE, size=2).tolist()))
    return SequenceLayout(segments)


def test_appending_segments_equals_building_the_layout():
    rng = np.random.default_rng(13)
    for _ in range(20):
        built = random_layout(rng, require_aux=True)
        grown = SequenceLayout(built.segments[:1])
        for seg in built.segments[1:]:
            grown.append(seg)
        for name in ("segments", "roles", "latent_slots", "seg_starts", "length"):
            assert getattr(grown, name) == getattr(built, name), name
        for name in ("token_at", "latent_mask"):
            a, b = getattr(grown, name), getattr(built, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_mask_matches_brute_force_on_100_layouts():
    rng = np.random.default_rng(0)
    for i in range(100):
        layout = random_layout(rng, require_aux=i % 2 == 0)
        for mode in (MaskMode.CAUSAL, MaskMode.AUX_GATED):
            mask = build_attention_mask(layout, mode)
            assert np.array_equal(mask, brute_force_mask(layout, mode)), (i, mode)


def test_mask_spec_example():
    layout = SequenceLayout([
        text_segment(SegmentRole.PLAIN_TEXT, [8, 9]),
        image_segment(SegmentRole.AUX_IMAGE, np.zeros((2, CFG.patch_features))),
        latent_segment(2),
        text_segment(SegmentRole.OBSERVATION_TEXT, [10, 11]),
    ])
    allow = build_attention_mask(layout, MaskMode.AUX_GATED)
    aux_cols = allow[:, 2:4]
    assert aux_cols[2, 0] and aux_cols[3, 1] and aux_cols[3, 0]  # aux-internal causal
    assert aux_cols[4:6].all()  # latent rows see aux
    assert not aux_cols[6:].any()  # observation rows do not
    assert allow[6, :2].all() and allow[6, 4:7].all()  # text, latent, obs keys visible


def test_causal_mask_is_lower_triangular():
    layout = SequenceLayout([text_segment(SegmentRole.PLAIN_TEXT, [1, 2, 3])])
    allow = build_attention_mask(layout, MaskMode.CAUSAL)
    assert np.array_equal(allow, np.tril(np.ones((3, 3), dtype=bool)))


def test_empty_aux_segment_equals_causal():
    layout = SequenceLayout([
        text_segment(SegmentRole.PLAIN_TEXT, [1, 2]),
        image_segment(SegmentRole.AUX_IMAGE, np.zeros((0, CFG.patch_features))),
        text_segment(SegmentRole.PLAIN_TEXT, [3]),
    ])
    gated = build_attention_mask(layout, MaskMode.AUX_GATED)
    causal = build_attention_mask(layout, MaskMode.CAUSAL)
    assert np.array_equal(gated, causal)


def test_aux_without_following_latent_is_an_error():
    layout = SequenceLayout([
        text_segment(SegmentRole.PLAIN_TEXT, [1]),
        image_segment(SegmentRole.AUX_IMAGE, np.zeros((2, CFG.patch_features))),
        text_segment(SegmentRole.PLAIN_TEXT, [2]),
    ])
    with pytest.raises(LayoutError):
        build_attention_mask(layout, MaskMode.AUX_GATED)


def test_embed_layout_lengths():
    rng = np.random.default_rng(1)
    params = init_params(CFG, rng)
    one = SequenceLayout([text_segment(SegmentRole.PLAIN_TEXT, [5])])
    assert embed_layout(one, params, CFG).shape == (1, CFG.hidden_dim)
    seven = SequenceLayout([
        image_segment(SegmentRole.QUESTION_IMAGE, rng.normal(size=(4, CFG.patch_features))),
        text_segment(SegmentRole.PLAIN_TEXT, [1, 2, 3]),
    ])
    assert embed_layout(seven, params, CFG).shape == (7, CFG.hidden_dim)


def test_embed_layout_from_a_start_row_matches_the_full_embedding():
    rng = np.random.default_rng(14)
    params = init_params(CFG, rng)
    layout = SequenceLayout([
        text_segment(SegmentRole.QUESTION_TEXT, [1, 2, 3]),
        image_segment(SegmentRole.QUESTION_IMAGE, rng.normal(size=(4, CFG.patch_features))),
        latent_segment(2, list(rng.normal(size=(2, CFG.hidden_dim)))),
        text_segment(SegmentRole.PLAIN_TEXT, [4, 5]),
    ])
    full = embed_layout(layout, params, CFG)
    for start in range(layout.length):
        assert np.array_equal(embed_layout(layout, params, CFG, start).data, full.data[start:])


def test_latent_slot_takes_vector_plus_position():
    rng = np.random.default_rng(2)
    params = init_params(CFG, rng)
    v = rng.normal(size=CFG.hidden_dim)
    layout = SequenceLayout([text_segment(SegmentRole.PLAIN_TEXT, [1]),
                             latent_segment(1, [v])])
    emb = embed_layout(layout, params, CFG)
    assert np.array_equal(emb.data[1], v + params["pos_emb"].data[1])


def test_unknown_token_id_rejected():
    params = init_params(CFG, np.random.default_rng(0))
    layout = SequenceLayout([text_segment(SegmentRole.PLAIN_TEXT, [vocab.VOCAB_SIZE + 3])])
    with pytest.raises(LayoutError, match="unknown token"):
        embed_layout(layout, params, CFG)


def test_patch_feature_mismatch_rejected():
    params = init_params(CFG, np.random.default_rng(0))
    layout = SequenceLayout([image_segment(SegmentRole.AUX_IMAGE, np.zeros((2, 5)))])
    with pytest.raises(LayoutError, match="patch"):
        embed_layout(layout, params, CFG)


def test_zero_params_give_uniform_softmax():
    params = zero_params(CFG)
    layout = SequenceLayout([text_segment(SegmentRole.PLAIN_TEXT, [1, 2, 3])])
    logits, _ = forward(layout, build_attention_mask(layout, MaskMode.CAUSAL), params, CFG)
    assert np.allclose(logits.data, 0.0)


def test_forward_deterministic():
    rng = np.random.default_rng(3)
    params = init_params(CFG, rng)
    layout = random_layout(np.random.default_rng(4), require_aux=True)
    mask = build_attention_mask(layout, MaskMode.AUX_GATED)
    a_logits, a_stack = forward(layout, mask, params, CFG)
    b_logits, b_stack = forward(layout, mask, params, CFG)
    assert np.array_equal(a_logits.data, b_logits.data)
    for sa, sb in zip(a_stack, b_stack):
        assert np.array_equal(sa.data, sb.data)


def test_mask_length_mismatch_rejected():
    params = init_params(CFG, np.random.default_rng(0))
    layout = SequenceLayout([text_segment(SegmentRole.PLAIN_TEXT, [1, 2, 3])])
    bad = np.tril(np.ones((2, 2), dtype=bool))
    with pytest.raises(LayoutError, match="mask"):
        forward(layout, bad, params, CFG)


def _long_layout(rng, config, length):
    """Text, then latents, then random text, latent and question-image
    segments filling `length` positions; every image has two or more patches."""
    segments, n = [], 0
    while n < length:
        left = length - n
        if len(segments) < 2:
            kind = len(segments)
        else:
            kind = int(rng.integers(0, 3)) if left > 1 else 0
        if kind == 0:
            c = min(left, int(rng.integers(1, 6)))
            segments.append(text_segment(SegmentRole.PLAIN_TEXT,
                                         rng.integers(0, config.vocab_size, size=c).tolist()))
        elif kind == 1:
            c = min(left, int(rng.integers(1, 20)))
            segments.append(latent_segment(c, list(rng.normal(size=(c, config.hidden_dim)))))
        else:
            c = min(left, int(rng.integers(2, 10)))
            segments.append(image_segment(SegmentRole.QUESTION_IMAGE,
                                          rng.normal(size=(c, config.patch_features))))
        n += c
    return SequenceLayout(segments)


def _cut_points(layout):
    """Prefix lengths from 2 on that keep every image whole. A one-row pass
    and a one-patch image projection take OpenBLAS's gemv path, whose bits
    differ from the same row inside a larger matmul, so neither can match."""
    inside = set()
    for si, seg in enumerate(layout.segments):
        if seg.role is SegmentRole.QUESTION_IMAGE:
            a, b = layout.segment_range(si)
            inside.update(range(a + 1, b))
    return [t for t in range(2, layout.length + 1) if t not in inside]


@pytest.mark.parametrize("config", [CFG, ModelConfig()], ids=["small", "reference"])
def test_forward_is_prefix_invariant(config):
    """Rows of a pass over a prefix equal the same rows of a pass over the
    whole layout, bit for bit, at every stack level; the cached decode rests
    on this."""
    rng = np.random.default_rng(11)
    params = init_params(config, rng, scale=0.3)
    with ad.no_grad():
        for trial in range(5):
            T = config.max_positions if trial == 0 else int(rng.integers(8, config.max_positions))
            layout = _long_layout(rng, config, T)
            _, full = forward(layout, build_attention_mask(layout, MaskMode.CAUSAL), params, config)
            assert any(layout.latent_mask)
            cuts = _cut_points(layout)
            for t in rng.choice(cuts, size=min(12, len(cuts)), replace=False):
                prefix = _prefix_layout(layout, int(t))
                _, stack = forward(prefix, build_attention_mask(prefix, MaskMode.CAUSAL),
                                   params, config)
                for level, (a, b) in enumerate(zip(stack, full)):
                    assert np.array_equal(a.data, b.data[:t]), (trial, int(t), level)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_head_rows_keep_their_bits_in_any_window_or_prefix(data):
    """`_head` gives each row of random final states the bits of the same
    row in the product over all rows: for every prefix and for windows of
    rows that start anywhere, decode steps' two-row windows included."""
    config = data.draw(st.sampled_from([CFG, ModelConfig()]), label="config")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16), label="seed"))
    T, d = config.max_positions, config.hidden_dim
    final = rng.normal(size=(T, d))
    w_out = ad.parameter("w_out", rng.normal(scale=data.draw(st.sampled_from([0.02, 0.5, 3.0]),
                                                             label="scale"),
                                             size=(d, config.vocab_size)))
    with ad.no_grad():
        full = ad.value(model._head(ad.constant(final), w_out))
        for t in range(1, T + 1):
            assert np.array_equal(ad.value(model._head(ad.constant(final[:t]), w_out)),
                                  full[:t]), t
        for width in (1, 2, data.draw(st.integers(3, T), label="width")):
            for a in range(T - width + 1):
                rows = ad.value(model._head(ad.constant(final[a:a + width]), w_out))
                assert np.array_equal(rows, full[a:a + width]), (a, width)


def test_head_matches_finite_differences():
    rng = np.random.default_rng(23)
    vals = {"final": rng.normal(size=(3, 5)), "w_out": rng.normal(size=(5, 7))}
    weights = rng.normal(size=(3, 7))

    def build(p):
        return ad.sum_all(ad.mul(model._head(p["final"], p["w_out"]), weights))

    params = {k: ad.parameter(k, v) for k, v in vals.items()}
    analytic = ad.backward(build(params), params)

    def f(p):
        with ad.no_grad():
            return build({k: ad.constant(v) for k, v in p.items()}).item()

    assert ad.max_rel_error(analytic, ad.finite_difference(f, vals, eps=1e-5)) < 1e-4


@pytest.mark.parametrize("R", [1, 2, 9])
def test_head_gives_the_bits_of_the_op_chain_it_replaced(R):
    """`_head`'s logits and vjp equal, under `np.array_equal`, the numpy
    transcription of the old chain: pad `w_out`, product by `ad.matmul`'s
    rule, drop the pad; then the pad-gradient, matmul and slice vjps."""
    rng = np.random.default_rng(R)
    d, V = 64, vocab.VOCAB_SIZE
    final, w_out, g = rng.normal(size=(R, d)), rng.normal(size=(d, V)), rng.normal(size=(R, V))
    wide = np.concatenate([w_out, np.zeros((d, -V % model.HEAD_COLUMNS))], axis=1)
    out = ad.matmul_array(final, wide)
    g_out = np.concatenate([g, np.zeros((R, wide.shape[1] - V))], axis=1)
    want = (out[:, :V], ad.matmul_array(g_out, np.swapaxes(wide, -1, -2)),
            (np.swapaxes(final, -1, -2) @ g_out)[:, :V])
    node = model._head(ad.constant(final), ad.constant(w_out))
    for got, ref in zip((node.data, *node.vjp(g)), want):
        assert np.array_equal(got, ref)


def _op_nodes(root) -> int:
    """Nodes with parents among `root` and its ancestors."""
    seen, todo, ops = {root.seq}, [root], 0
    while todo:
        node = todo.pop()
        ops += bool(node.parents)
        for p in node.parents:
            if p.seq not in seen:
                seen.add(p.seq)
                todo.append(p)
    return ops


def test_a_block_builds_at_most_12_op_nodes():
    """A full forward over a layout with latent slots: one more block adds
    at most 12 op nodes (attention and the feed-forward are one node each)."""
    layout = random_layout(np.random.default_rng(4), require_aux=True)
    assert layout.latent_slots
    mask = build_attention_mask(layout, MaskMode.AUX_GATED)
    counts = []
    for layers in (1, 2):
        config = ModelConfig(layer_count=layers, hidden_dim=16, head_count=2, max_positions=96)
        logits, _ = forward(layout, mask, init_params(config, np.random.default_rng(0)), config)
        counts.append(_op_nodes(logits))
    assert counts[1] - counts[0] <= 12


def test_every_prefix_pass_of_built_layouts_gives_the_full_pass_logits():
    """The last logits row of a pass over each prefix of a built layout
    equals the full pass's row at that position, bit for bit, at the
    reference shape; a decode samples from the first and RL scores the
    second."""
    config = ModelConfig()
    params = init_params(config, np.random.default_rng(31), scale=0.3)
    records, _ = build_corpus(CurationConfig(sample_count=40, seed=77))
    built = [build_student(rec.sample, 8, False).layout for rec in records[:5]]
    built += [build_interleaved(rec.sample, False).layout for rec in records[5:10]]
    with ad.no_grad():
        for i, layout in enumerate(built):
            full, _ = forward(layout, build_attention_mask(layout, MaskMode.CAUSAL),
                              params, config)
            for t in range(1, layout.length + 1):
                prefix = layout.prefix(t)
                logits, _ = forward(prefix, build_attention_mask(prefix, MaskMode.CAUSAL),
                                    params, config)
                assert np.array_equal(logits.data[-1], full.data[t - 1]), (i, t)


def test_cached_forward_matches_full_passes():
    """Growing a ForwardCache a few rows per call, each call gives the logits
    rows of a full pass over its prefix for the rows it runs, and stack rows
    equal to a pass over the whole layout."""
    rng = np.random.default_rng(12)
    params = init_params(CFG, rng, scale=0.3)
    layout = _long_layout(rng, CFG, CFG.max_positions)
    cuts = _cut_points(layout)
    bounds = sorted(set(rng.choice(cuts, size=30, replace=False).tolist()) | {1 + cuts[0]})
    bounds = [t for t in bounds if t >= cuts[0]] + [layout.length]
    cache = ForwardCache(CFG)
    with ad.no_grad():
        _, full = forward(layout, build_attention_mask(layout, MaskMode.CAUSAL), params, CFG)
        for t in sorted(set(bounds)):
            prefix = _prefix_layout(layout, t)
            mask = build_attention_mask(prefix, MaskMode.CAUSAL)
            logits, stack = forward(prefix, mask, params, CFG, cache)
            ref_logits, _ = forward(prefix, mask, params, CFG)
            start = t - stack[0].shape[0]
            assert np.array_equal(logits.data, ref_logits.data[start:]), t
            for a, b in zip(stack, full):
                assert np.array_equal(a.data, b.data[start:t]), t
            assert cache.length == t


def _rel_close(a, b, tol=1e-12):
    """Per parameter, the largest difference is at most `tol` times the
    largest reference entry."""
    for name in b:
        assert np.abs(a[name] - b[name]).max() <= tol * np.abs(b[name]).max(), name


def test_cached_forward_carries_the_graph():
    """A cached pass that builds a graph gives the bits of a no-grad cached
    pass, one-row steps that rerun the row before included, and a loss on
    its logits and stack has the gradients of the same loss on a full graph
    pass."""
    rng = np.random.default_rng(14)
    params = init_params(CFG, rng, scale=0.3)
    layout = _long_layout(rng, CFG, 60)
    cuts = _cut_points(layout)
    picked = set(rng.choice(cuts, size=8, replace=False).tolist())
    bounds = sorted(picked | {t + 1 for t in picked if t + 1 in cuts} | {layout.length})
    assert 1 in np.diff(bounds)
    plain, graph = ForwardCache(CFG), ForwardCache(CFG)
    for t in bounds:
        prefix = _prefix_layout(layout, t)
        mask = build_attention_mask(prefix, MaskMode.CAUSAL)
        with ad.no_grad():
            ref_logits, ref_stack = forward(prefix, mask, params, CFG, plain)
        logits, stack = forward(prefix, mask, params, CFG, graph)
        assert np.array_equal(logits.data, ref_logits.data), t
        for a, b in zip(stack, ref_stack):
            assert np.array_equal(a.data, b.data), t
    start = layout.length - stack[0].shape[0]
    w_logits = rng.normal(size=logits.shape)
    w_stack = [rng.normal(size=level.shape) for level in stack]

    def loss(logits, stack):
        total = ad.dot(ad.constant(w_logits), logits)
        for w, level in zip(w_stack, stack):
            total = ad.add(total, ad.dot(ad.constant(w), level))
        return total

    cached = ad.backward(loss(logits, stack), params)
    full_logits, full_stack = forward(layout, build_attention_mask(layout, MaskMode.CAUSAL),
                                      params, CFG)
    full_logits = ad.gather_rows(full_logits, np.arange(start, layout.length))
    full_stack = [ad.gather_rows(level, np.arange(start, layout.length)) for level in full_stack]
    _rel_close(cached, ad.backward(loss(full_logits, full_stack), params))


def test_cached_forward_rejects_stale_layouts():
    params = init_params(CFG, np.random.default_rng(0))
    layout = SequenceLayout([text_segment(SegmentRole.PLAIN_TEXT, [1, 2, 3])])
    mask = build_attention_mask(layout, MaskMode.CAUSAL)
    cache = ForwardCache(CFG)
    with ad.no_grad():
        forward(layout, mask, params, CFG, cache)
        with pytest.raises(LayoutError, match="cached"):
            forward(layout, mask, params, CFG, cache)


# ---------------------------------------------------------------------------
# no-grad passes on plain arrays
# ---------------------------------------------------------------------------

def _image_latent_layout(rng, config):
    """Text, a question image, latent slots holding arrays and one node, and
    more text: every row kind a pass embeds."""
    vecs = rng.normal(size=(3, config.hidden_dim))
    return SequenceLayout([
        text_segment(SegmentRole.QUESTION_TEXT, [4, 9, 4]),
        image_segment(SegmentRole.QUESTION_IMAGE, rng.normal(size=(3, config.patch_features))),
        text_segment(SegmentRole.PLAIN_TEXT, [vocab.TOKEN_TO_ID[vocab.LATENT_START]]),
        latent_segment(3, [vecs[0], ad.constant(vecs[1]), vecs[2]]),
        text_segment(SegmentRole.PLAIN_TEXT, [vocab.TOKEN_TO_ID[vocab.LATENT_END], 9, 7]),
    ])


def _same_bits(plain, graph):
    assert isinstance(plain, ad.Tensor) and isinstance(graph, ad.Tensor)
    assert np.array_equal(plain.data, graph.data)


def test_no_grad_passes_give_the_bits_of_graph_passes():
    """`forward` (full and cached), `forward_group` and a stacked decode step
    over layouts with images and latents: with grad off they run on plain
    arrays and return the logits and stacks of the same graph passes, bit
    for bit, as nodes."""
    rng = np.random.default_rng(21)
    params = init_params(CFG, rng, scale=0.3)
    layout = _image_latent_layout(rng, CFG)
    mask = build_attention_mask(layout, MaskMode.CAUSAL)
    graph = forward(layout, mask, params, CFG)
    with ad.no_grad():
        plain = forward(layout, mask, params, CFG)
    _same_bits(plain[0], graph[0])
    for a, b in zip(plain[1], graph[1]):
        _same_bits(a, b)

    plain_cache, graph_cache = ForwardCache(CFG), ForwardCache(CFG)
    for t in (5, 6, 8, 9, 10, 11, layout.length):
        prefix = layout.prefix(t)
        logits, stack = forward(prefix, mask[:t, :t], params, CFG, graph_cache)
        with ad.no_grad():
            plain_logits, plain_stack = forward(prefix, mask[:t, :t], params, CFG, plain_cache)
        _same_bits(plain_logits, logits)
        for a, b in zip(plain_stack, stack):
            _same_bits(a, b)
    assert np.array_equal(plain_cache.rows, graph_cache.rows)

    group = [layout, layout.prefix(7), _long_layout(rng, CFG, 20)]
    graph_logits, graph_final, graph_at = model.forward_group(group, params, CFG)
    with ad.no_grad():
        plain_logits, plain_final, plain_at = model.forward_group(group, params, CFG)
    for a, b in zip(plain_at, graph_at):
        assert np.array_equal(a, b)
    _same_bits(plain_logits, graph_logits)
    _same_bits(plain_final, graph_final)


def _stacked_step_inputs(rng, config, params, count):
    """`count` decoded sequences of uneven length with their caches filled up
    to the row before their last, as `decode_group` leaves them."""
    lat_start = vocab.TOKEN_TO_ID[vocab.LATENT_START]
    layouts = []
    for g in range(count):
        layout = _image_latent_layout(rng, config)
        layout.append(text_segment(SegmentRole.PLAIN_TEXT, [3 + g] * (g + 1)))
        layout.append(text_segment(SegmentRole.PLAIN_TEXT, [lat_start]))
        if g % 2:
            layout.append(latent_segment(1, [rng.normal(size=config.hidden_dim)]))
        layouts.append(layout)
    rows = np.zeros((count, 2 * config.layer_count, config.max_positions, config.hidden_dim))
    caches = [ForwardCache(config, rows[g]) for g in range(count)]
    with ad.no_grad():
        for layout, cache in zip(layouts, caches):
            t = layout.length - 1
            forward(layout.prefix(t), build_attention_mask(layout.prefix(t), MaskMode.CAUSAL),
                    params, config, cache)
    return layouts, caches, rows


def test_a_stacked_step_gives_the_bits_of_graph_passes():
    """A stacked decode step on plain arrays gives each sequence the last
    logits row and final state of a graph-mode full pass over it."""
    rng = np.random.default_rng(22)
    params = init_params(CFG, rng, scale=0.3)
    layouts, caches, rows = _stacked_step_inputs(rng, CFG, params, 3)
    outs = model._step([0, 1, 2], layouts, caches, rows, params, CFG)
    for layout, (logits, final) in zip(layouts, outs):
        ref_logits, ref_stack = forward(layout, build_attention_mask(layout, MaskMode.CAUSAL),
                                        params, CFG)
        assert np.array_equal(logits, ref_logits.data[-1])
        assert np.array_equal(final, ref_stack[-1].data[-1])


def _nodes_made(run):
    """How many `Tensor`s `run()` makes (creation numbers it takes)."""
    before = next(ad._sequence)
    run()
    return next(ad._sequence) - before - 1


def test_no_grad_cached_steps_make_only_the_nodes_forward_returns():
    """A lone no-grad cached step makes only the logits and stack nodes
    `forward` hands back, and a stacked step makes none: the blocks, the
    cache and the head run on plain arrays."""
    rng = np.random.default_rng(23)
    params = init_params(CFG, rng, scale=0.3)
    layouts, caches, rows = _stacked_step_inputs(rng, CFG, params, 3)
    assert _nodes_made(lambda: model._step([1], layouts, caches, rows, params, CFG)) \
        <= 1 + CFG.layer_count + 1
    assert _nodes_made(lambda: model._step([0, 2], layouts, caches, rows, params, CFG)) == 0
    layout = layouts[0]
    with ad.no_grad():
        x0 = model.embed_layout(layout, params, CFG)
        T = layout.length
        allow = np.tri(T, dtype=bool)[None, None].repeat(CFG.head_count, axis=1)
        stack = []
        made = _nodes_made(lambda: stack.extend(model._blocks(
            x0, layout.latent_mask, allow, params, CFG, lambda i, kv: kv)))
    assert made == 0
    assert all(type(level) is np.ndarray for level in [x0, *stack])


def _tok_emb_gathers(root, table) -> int:
    """Nodes among `root` and its ancestors that take `table` as a parent."""
    seen, todo, count = {root.seq}, [root], 0
    while todo:
        node = todo.pop()
        count += any(p is table for p in node.parents)
        for p in node.parents:
            if p.seq not in seen:
                seen.add(p.seq)
                todo.append(p)
    return count


def test_a_pass_embeds_its_text_rows_with_one_gather():
    """A graph pass over a layout with several text segments reads `tok_emb`
    through one gather node, and its rows are those of the lone lookups
    placed in position order."""
    rng = np.random.default_rng(24)
    params = init_params(CFG, rng)
    layout = _image_latent_layout(rng, CFG)
    assert sum(seg.role in model.TEXT_ROLES for seg in layout.segments) == 3
    for start in (0, 2, 6, 9):
        emb = embed_layout(layout, params, CFG, start)
        assert _tok_emb_gathers(emb, params["tok_emb"]) == 1
        for pos in range(start, layout.length):
            tok = layout.token_at[pos]
            if tok >= 0:
                want = params["tok_emb"].data[tok] + params["pos_emb"].data[pos]
                assert np.array_equal(emb.data[pos - start], want)
    group_logits, _, _ = model.forward_group([layout, layout.prefix(5)], params, CFG)
    assert _tok_emb_gathers(group_logits, params["tok_emb"]) == 1


def test_tok_emb_gradient_with_ids_repeated_across_segments_matches_fd():
    """Token ids 4, 7 and 9 recur across the text segments of one layout; the
    one gather's scatter-add gives `tok_emb` the gradient central
    differences of a loss on the full pass give."""
    rng = np.random.default_rng(25)
    params = init_params(CFG, rng, scale=0.3)
    layout = _image_latent_layout(rng, CFG)
    mask = build_attention_mask(layout, MaskMode.CAUSAL)
    weights = rng.normal(size=(layout.length, CFG.vocab_size))
    logits, _ = forward(layout, mask, params, CFG)
    analytic = ad.backward(ad.sum_all(ad.mul(logits, weights)), params)

    def value(p):
        live = dict(params, tok_emb=ad.constant(p["tok_emb"]))
        with ad.no_grad():
            out, _ = forward(layout, mask, live, CFG)
        return float((out.data * weights).sum())

    rows = np.array([4, 7, 9, 11])  # 11 appears nowhere: its gradient is 0
    coords = {"tok_emb": (rows[:, None] * CFG.hidden_dim + np.arange(CFG.hidden_dim)).ravel()}
    numeric = ad.finite_difference(value, {"tok_emb": params["tok_emb"].data}, coords=coords)
    assert np.all(analytic["tok_emb"][11] == 0.0)
    assert ad.max_rel_error({"tok_emb": analytic["tok_emb"]}, numeric, coords) < 1e-6


# ---------------------------------------------------------------------------
# the group pass runs each distinct row once
# ---------------------------------------------------------------------------

def _layout_of(items):
    """A layout from (kind, content) items, each run of one kind one
    segment: "q" question and "t" plain text tokens, "i" question-image
    rows, "l" latent vectors."""
    segments = []
    for kind, run in itertools.groupby(items, key=lambda item: item[0]):
        contents = [content for _, content in run]
        if kind == "q":
            segments.append(text_segment(SegmentRole.QUESTION_TEXT, contents))
        elif kind == "t":
            segments.append(text_segment(SegmentRole.PLAIN_TEXT, contents))
        elif kind == "i":
            segments.append(image_segment(SegmentRole.QUESTION_IMAGE, np.array(contents)))
        else:
            segments.append(latent_segment(len(contents), contents))
    return SequenceLayout(segments)


@st.composite
def _prefix_trees(draw, config=CFG):
    """Item lists of 1-6 layouts, each after the first derived from an
    earlier one: a duplicate, a strict prefix, a divergence at a text token,
    at a latent vector under equal tokens or at an image row, or a fresh
    layout that shares no row."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16), label="vectors"))
    V, d = config.vocab_size, config.hidden_dim

    def tail(label):
        kinds = draw(st.lists(st.sampled_from("tl"), max_size=8), label=label)
        return [("t", int(rng.integers(V))) if k == "t" else ("l", rng.normal(size=d))
                for k in kinds]

    question = draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=4), label="question")
    image = [("i", row) for row in rng.normal(size=(draw(st.integers(0, 3), label="patches"),
                                                    config.patch_features))]
    trees = [[("q", tok) for tok in question] + image + tail("root")]
    for _ in range(draw(st.integers(0, 5), label="derived")):
        parent = trees[draw(st.integers(0, len(trees) - 1), label="parent")]
        how = draw(st.sampled_from(["duplicate", "prefix", "text", "latent", "image", "fresh"]))
        t = draw(st.integers(1, len(parent)), label="cut")
        if how == "duplicate":
            trees.append(list(parent))
        elif how == "prefix":
            trees.append(parent[:t])
        elif how in ("text", "image"):
            first = ("i", rng.normal(size=config.patch_features)) if how == "image" else \
                ("t", (parent[t][1] + 1) % V if t < len(parent) and parent[t][0] == "t"
                 else int(rng.integers(V)))
            trees.append(parent[:t] + [first] + tail("after"))
        elif how == "latent":
            at = [i for i, (kind, _) in enumerate(parent) if kind == "l"]
            if at:
                i = at[draw(st.integers(0, len(at) - 1), label="slot")]
                trees.append(parent[:i] + [("l", rng.normal(size=d))] + parent[i + 1:])
        else:
            firsts = {tree[0][1] for tree in trees}
            trees.append([("q", min(set(range(V)) - firsts))] + tail("fresh"))
    return trees


def _lone_rows(layout, params):
    logits, stack = forward(layout, build_attention_mask(layout, MaskMode.CAUSAL), params, CFG)
    return logits, stack[-1]


_TEXT = [("q", 1), ("q", 2), ("q", 3)]


@settings(max_examples=80, deadline=None)
@given(trees=_prefix_trees())
@example(trees=[_TEXT + [("t", 4), ("t", 5), ("t", 6), ("t", 7)],
                _TEXT + [("t", 8), ("t", 9), ("t", 10), ("t", 11)],
                _TEXT + [("t", 8), ("t", 9), ("t", 10), ("t", 12)]])
def test_group_pass_runs_each_distinct_row_once(trees):
    """Over a prefix tree of layouts, `forward_group` runs as many rows
    through the blocks as there are distinct rows (a row is identified by
    the latent flags and embedded bits of its rows up to and including it),
    returns a pool of just those rows, embeds them with one `tok_emb`
    gather, and maps every layout's positions to strictly increasing pool
    rows that hold the logits and final state of a lone `forward`, bit for
    bit, with grad on and off. The example's third layout shares 3 rows
    with the first and 6 with the second, so it must reuse the second's."""
    params = init_params(CFG, np.random.default_rng(31), scale=0.3)
    layouts = [_layout_of(items) for items in trees]
    ran, run_blocks = [], model._blocks

    def blocks(x0, *args):
        ran.append(len(ad.value(x0)))
        return run_blocks(x0, *args)

    with mock.patch.object(model, "_blocks", blocks):
        graph = model.forward_group(layouts, params, CFG)
        with ad.no_grad():
            plain = model.forward_group(layouts, params, CFG)
    distinct = set()
    for g, layout in enumerate(layouts):
        lone = _lone_rows(layout, params)
        for logits, final, at in (graph, plain):
            assert len(at[g]) == layout.length and np.all(np.diff(at[g]) > 0)
            for got, want in zip((logits, final), lone):
                assert np.array_equal(got.data[at[g]], want.data)
        x0 = embed_layout(layout, params, CFG).data
        rows = [(bool(flag), x.tobytes()) for flag, x in zip(layout.latent_mask, x0)]
        distinct.update(tuple(rows[:r + 1]) for r in range(layout.length))
    assert ran == [len(distinct)] * 2
    for logits, final, _ in (graph, plain):
        assert len(logits.data) == len(final.data) == len(distinct)
    assert _tok_emb_gathers(graph[0], params["tok_emb"]) == 1


def test_group_pass_gradient_with_shared_rows_matches_lone_passes_and_fd():
    """A loss over the rows of layouts that share prefixes (a duplicate, a
    strict prefix, a text and a latent divergence, all holding one latent
    node, and a layout holding a twin node of the same value), read from the
    pool through each layout's `at`, has the gradient of the same loss over
    lone passes, to 1e-12 relative, and central differences agree with it:
    the shared node gets the gradient of every layout that reads it, and the
    twin its own."""
    rng = np.random.default_rng(33)
    params = init_params(CFG, rng, scale=0.3)
    node = ad.parameter("latent", rng.normal(size=CFG.hidden_dim))
    base = _image_latent_layout(rng, CFG)
    base.set_latent(3, 1, node)
    lat = base.segments[3].latents
    other = SequenceLayout(base.segments[:3] + [latent_segment(3, [*lat[:2], lat[2] + 1.0])]
                           + base.segments[4:])
    twin = ad.parameter("twin", node.data.copy())
    layouts = [base, SequenceLayout(base.segments), base.prefix(6), other,
               SequenceLayout(base.prefix(9).segments + [text_segment(SegmentRole.PLAIN_TEXT,
                                                                      [2, 5])]),
               SequenceLayout(base.segments[:3] + [latent_segment(3, [lat[0], twin, lat[2]])]
                              + base.segments[4:])]
    T = max(layout.length for layout in layouts)
    weights = [[w[g * T:g * T + layout.length] for g, layout in enumerate(layouts)]
               for w in (rng.normal(size=(len(layouts) * T, n))
                         for n in (CFG.vocab_size, CFG.hidden_dim))]
    nodes = {"latent": node, "twin": twin}
    live = {**params, **nodes}

    def group_loss(ps):
        logits, final, at = model.forward_group(layouts, ps, CFG)
        return functools.reduce(ad.add, [ad.sum_all(ad.mul(ad.gather_rows(out, at[g]), w[g]))
                                         for out, w in zip((logits, final), weights)
                                         for g in range(len(layouts))])

    def lone_loss(ps):
        total = None
        for g, layout in enumerate(layouts):
            for out, w in zip(_lone_rows(layout, ps), weights):
                term = ad.sum_all(ad.mul(out, w[g]))
                total = term if total is None else ad.add(total, term)
        return total

    grads = ad.backward(group_loss(params), live)
    lone = ad.backward(lone_loss(params), live)
    for name in live:
        scale_ = max(np.abs(lone[name]).max(), 1e-300)
        assert np.abs(grads[name] - lone[name]).max() <= 1e-12 * scale_, name
    assert np.abs(grads["latent"]).max() > 0.0 and np.abs(grads["twin"]).max() > 0.0

    def value(p):
        for name, n in nodes.items():
            n.data = p[name]
        with ad.no_grad():
            out = group_loss({k: ad.constant(v) for k, v in p.items() if k not in nodes})
        return float(out)

    names = ["tok_emb", "pos_emb", "patch_proj", "block0.wk", "block1.wv", "block1.w1",
             "lnf_g", "w_out", "latent", "twin"]
    vals = {k: t.data.copy() for k, t in live.items()}
    coords = {k: np.random.default_rng(34).choice(vals[k].size, 6, replace=False) for k in names}
    numeric = ad.finite_difference(value, vals, coords=coords)
    for name, n in nodes.items():
        n.data = vals[name]
    assert ad.max_rel_error(grads, numeric, coords) < 1e-6


def _perturb_token(layout, pos, delta=1):
    segments = []
    for seg in layout.segments:
        if seg.tokens is not None:
            segments.append(text_segment(seg.role, list(seg.tokens)))
        elif seg.feats is not None:
            segments.append(image_segment(seg.role, seg.feats.copy()))
        else:
            segments.append(latent_segment(len(seg.latents), list(seg.latents)))
    out = SequenceLayout(segments)
    running = 0
    for seg in out.segments:
        n = len(seg)
        if running <= pos < running + n and seg.tokens is not None:
            seg.tokens[pos - running] = (seg.tokens[pos - running] + delta) % vocab.VOCAB_SIZE
            return out
        running += n
    raise AssertionError("position is not a text token")


def test_causality_bit_exact():
    rng = np.random.default_rng(5)
    params = init_params(CFG, rng)
    layout = SequenceLayout([
        text_segment(SegmentRole.QUESTION_TEXT, [1, 2, 3, 4]),
        text_segment(SegmentRole.PLAIN_TEXT, [5, 6, 7, 8]),
    ])
    p = 5
    for mode in (MaskMode.CAUSAL,):
        mask = build_attention_mask(layout, mode)
        logits_a, stack_a = forward(layout, mask, params, CFG)
        other = _perturb_token(layout, p)
        logits_b, stack_b = forward(other, mask, params, CFG)
        assert np.array_equal(logits_a.data[:p], logits_b.data[:p])
        for sa, sb in zip(stack_a, stack_b):
            assert np.array_equal(sa.data[:p], sb.data[:p])
        assert not np.array_equal(logits_a.data[p:], logits_b.data[p:])


def test_aux_isolation_bit_exact():
    """With latent inputs teacher-forced, auxiliary-image perturbations leave
    every non-aux, non-latent logit bit-identical under the gated mask."""
    rng = np.random.default_rng(6)
    params = init_params(CFG, rng)
    forced = [rng.normal(size=CFG.hidden_dim) for _ in range(3)]
    lat_start = vocab.TOKEN_TO_ID[vocab.LATENT_START]
    lat_end = vocab.TOKEN_TO_ID[vocab.LATENT_END]

    def make(feats):
        return SequenceLayout([
            text_segment(SegmentRole.QUESTION_TEXT, [1, 2, 3]),
            text_segment(SegmentRole.PLAIN_TEXT, [lat_start]),
            image_segment(SegmentRole.AUX_IMAGE, feats),
            latent_segment(3, list(forced)),
            text_segment(SegmentRole.PLAIN_TEXT, [lat_end]),
            text_segment(SegmentRole.OBSERVATION_TEXT, [10, 11, 12]),
            text_segment(SegmentRole.ANSWER, [13, 1]),
        ])

    feats = rng.normal(size=(4, CFG.patch_features))
    la = make(feats)
    lb = make(feats + rng.normal(size=feats.shape))
    mask = build_attention_mask(la, MaskMode.AUX_GATED)
    logits_a, _ = forward(la, mask, params, CFG)
    logits_b, _ = forward(lb, mask, params, CFG)
    keep = np.ones(la.length, dtype=bool)
    a0, a1 = la.segment_range(2)
    l0, l1 = la.segment_range(3)
    keep[a0:a1] = False
    keep[l0:l1] = False
    assert np.array_equal(logits_a.data[keep], logits_b.data[keep])
    assert not np.array_equal(logits_a.data[l0:l1], logits_b.data[l0:l1])


def test_aux_perturbation_preserves_prefix():
    rng = np.random.default_rng(7)
    params = init_params(CFG, rng)
    lat_start = vocab.TOKEN_TO_ID[vocab.LATENT_START]

    def make(feats):
        return SequenceLayout([
            text_segment(SegmentRole.QUESTION_TEXT, [1, 2]),
            text_segment(SegmentRole.PLAIN_TEXT, [lat_start]),
            image_segment(SegmentRole.AUX_IMAGE, feats),
            latent_segment(2),
        ])

    feats = rng.normal(size=(3, CFG.patch_features))
    la, lb = make(feats), make(np.zeros_like(feats))
    mask = build_attention_mask(la, MaskMode.AUX_GATED)
    _, stack_a = forward(la, mask, params, CFG)
    _, stack_b = forward(lb, mask, params, CFG)
    assert np.array_equal(stack_a[-1].data[:3], stack_b[-1].data[:3])
    lat0 = la.segment_range(3)[0]
    assert not np.array_equal(stack_a[-1].data[lat0:], stack_b[-1].data[lat0:])


def _latent_prone_params():
    """Constant logits pointing at the latent-start token, so greedy decoding
    opens latent runs immediately."""
    params = zero_params(CFG)
    params["lnf_b"].data[:] = 1.0
    params["w_out"].data[0, vocab.TOKEN_TO_ID[vocab.LATENT_START]] = 0.0
    w = np.zeros((CFG.hidden_dim, CFG.vocab_size))
    w[:, vocab.TOKEN_TO_ID[vocab.LATENT_START]] = 0.05
    params["w_out"].data[:] = w
    return params


@pytest.mark.parametrize("k", [0, 3, 8])
def test_decode_contract(k):
    params = _latent_prone_params()
    prompt = SequenceLayout([text_segment(SegmentRole.QUESTION_TEXT, [1, 2, 3])])
    cycles = 2
    max_new = cycles * (k + 2)
    layout, traj = decode_with_latents(prompt, k, params, CFG, temperature=0.0,
                                       max_new=max_new)
    runs = traj.latent_run_lengths()
    if k == 0:
        assert runs == []
        ids = [s.token for s in traj.steps]
        lat_start = vocab.TOKEN_TO_ID[vocab.LATENT_START]
        lat_end = vocab.TOKEN_TO_ID[vocab.LATENT_END]
        pairs = [(a, b) for a, b in zip(ids, ids[1:]) if a == lat_start]
        assert pairs and all(b == lat_end for _, b in pairs)
    else:
        assert runs == [k] * cycles
    for step in traj.steps:
        if getattr(step, "token", None) == vocab.TOKEN_TO_ID[vocab.LATENT_END]:
            assert step.forced


def test_decode_feedback_is_bit_exact():
    """Replaying the decode loop with raw forward passes reproduces the fed
    latent vectors exactly: slot input t+1 equals the layer-L state at t."""
    params = _latent_prone_params()
    prompt = SequenceLayout([text_segment(SegmentRole.QUESTION_TEXT, [1, 2, 3])])
    k = 3
    layout, traj = decode_with_latents(prompt, k, params, CFG, temperature=0.0,
                                       max_new=k + 2)
    from latentcot.model import LatentStep
    latents = [s.vector for s in traj.steps if isinstance(s, LatentStep)]
    assert len(latents) == k
    # rebuild prefixes of the final layout and recompute the fed vector
    lat_positions = [p for _, _, p in layout.latent_slots]
    for idx, pos in enumerate(lat_positions):
        prefix = _prefix_layout(layout, pos)
        mask = build_attention_mask(prefix, MaskMode.CAUSAL)
        with ad.no_grad():
            _, stack = forward(prefix, mask, params, CFG)
        assert np.array_equal(stack[-1].data[-1], latents[idx])


def _prefix_layout(layout, upto):
    segments, total = [], 0
    for seg in layout.segments:
        n = len(seg)
        if total + n <= upto:
            segments.append(seg)
            total += n
            continue
        take = upto - total
        if take > 0:
            if seg.tokens is not None:
                segments.append(text_segment(seg.role, seg.tokens[:take]))
            elif seg.feats is not None:
                segments.append(image_segment(seg.role, seg.feats[:take]))
            else:
                segments.append(latent_segment(take, seg.latents[:take]))
        break
    return SequenceLayout(segments)


def test_decode_deterministic_at_temperature_zero():
    params = _latent_prone_params()
    prompt = SequenceLayout([text_segment(SegmentRole.QUESTION_TEXT, [1, 2])])
    a = decode_with_latents(prompt, 2, params, CFG, temperature=0.0, max_new=12)
    b = decode_with_latents(prompt, 2, params, CFG, temperature=0.0, max_new=12)
    assert [type(s).__name__ for s in a[1].steps] == [type(s).__name__ for s in b[1].steps]
    for sa, sb in zip(a[1].steps, b[1].steps):
        if hasattr(sa, "vector"):
            assert np.array_equal(sa.vector, sb.vector)
        else:
            assert sa.token == sb.token


LONG = ModelConfig(layer_count=2, hidden_dim=16, head_count=2, max_positions=160)


def _talkative_params(latent_bias=0.2):
    """Random weights that never favour EOS and often open latent runs, so
    decodes run to max_new through many runs."""
    params = init_params(LONG, np.random.default_rng(0), scale=0.5)
    params["lnf_b"].data[:] = 0.5
    params["w_out"].data[:, vocab.TOKEN_TO_ID[vocab.EOS]] = -1.0
    params["w_out"].data[:, vocab.TOKEN_TO_ID[vocab.LATENT_START]] += latent_bias
    return params


def _image_prompt():
    feats = np.random.default_rng(9).normal(size=(4, LONG.patch_features))
    return SequenceLayout([text_segment(SegmentRole.QUESTION_TEXT, [1, 2, 3]),
                           image_segment(SegmentRole.QUESTION_IMAGE, feats)])


def _decode_and_replay(prompt, k, params, temperature, max_new, seed=1):
    """Cached decode, then every sampled step replayed from a full forward over
    its prefix, with a twin generator: the token, its log-probability and each
    fed-back vector must match bit for bit. Returns (layout, trajectory)."""
    rng = np.random.default_rng(seed) if temperature else None
    layout, traj = decode_with_latents(prompt, k, params, LONG, temperature=temperature,
                                       rng=rng, max_new=max_new)
    twin = np.random.default_rng(seed) if temperature else None
    _replay(prompt, layout, traj, params, LONG, temperature, twin)
    last = traj.steps[-1]
    ended = isinstance(last, TextStep) and last.token == vocab.TOKEN_TO_ID[vocab.EOS]
    assert traj.truncated != ended
    assert len(traj.steps) <= max_new
    return layout, traj


def _replay(prompt, layout, traj, params, config, temperature, twin):
    """Each sampled step of a decode from `prompt`, replayed from a full
    forward over its prefix with a twin generator: its token, log-probability
    and each fed-back vector must match bit for bit."""
    first = len(prompt.segments)
    assert len(layout.segments) == first + len(traj.steps)
    assert layout.length == prompt.length + len(traj.steps)
    for j, step in enumerate(traj.steps):
        if isinstance(step, TextStep) and step.forced:
            continue
        prefix = SequenceLayout(layout.segments[:first + j])
        with ad.no_grad():
            logits, stack = forward(prefix, build_attention_mask(prefix, MaskMode.CAUSAL),
                                    params, config)
        if isinstance(step, LatentStep):
            assert np.array_equal(stack[-1].data[-1], step.vector), j
        else:
            assert sample_token(logits.data[-1], temperature, twin) == (step.token, step.logp), j


@pytest.mark.parametrize("temperature", [0.0, 0.5])
def test_cached_decode_replays_an_image_prompt_past_8_and_128(temperature):
    """numpy's pairwise sums change grouping at 8 and 128 terms; a decode from
    a prompt with a question image that grows past both still replays."""
    prompt = _image_prompt()
    layout, traj = _decode_and_replay(prompt, 5, _talkative_params(), temperature,
                                      max_new=LONG.max_positions - prompt.length - 1)
    assert prompt.length < 8 and layout.length > 128
    assert len(traj.latent_run_lengths()) >= 2
    if temperature:
        assert any(s.logp != 0.0 for s in traj.steps if isinstance(s, TextStep))


@pytest.mark.parametrize("temperature", [0.0, 0.5])
def test_cached_decode_truncated_inside_a_latent_run_replays(temperature):
    params = _talkative_params(latent_bias=0.4)
    prompt = _image_prompt()
    _, long_traj = decode_with_latents(prompt, 5, params, LONG, temperature=temperature,
                                       rng=np.random.default_rng(1), max_new=80)
    steps = long_traj.steps
    cut = next(i for i in range(40, len(steps) - 1)
               if isinstance(steps[i], LatentStep) and isinstance(steps[i + 1], LatentStep))
    _, traj = _decode_and_replay(prompt, 5, params, temperature, max_new=cut + 1)
    assert traj.truncated and isinstance(traj.steps[-1], LatentStep)
    assert traj.latent_run_lengths()[-1] < 5
    for a, b in zip(traj.steps, steps):
        assert type(a) is type(b)
        if isinstance(a, LatentStep):
            assert np.array_equal(a.vector, b.vector)
        else:
            assert (a.token, a.logp, a.forced) == (b.token, b.logp, b.forced)


@pytest.mark.parametrize("temperature", [0.0, 0.5])
def test_cached_decode_from_a_one_token_prompt_replays(temperature):
    """The prompt pass is a single row, which `ad.matmul_array` runs beside a
    zero row (as in its replay); the first cached step then reruns that row
    beside the new one."""
    prompt = SequenceLayout([text_segment(SegmentRole.QUESTION_TEXT,
                                          [vocab.TOKEN_TO_ID[vocab.BOS]])])
    _, traj = _decode_and_replay(prompt, 3, _talkative_params(), temperature, max_new=40)
    assert traj.latent_run_lengths()


@pytest.mark.parametrize("k", [0, 1, 3, 8])
def test_decode_never_overruns_max_new(k):
    """Greedy decoding here opens a latent run at every text step; a budget
    spent by a run's last latent step (or by its start token) leaves no room
    for the forced end token, so none is appended and the decode is
    truncated."""
    params = _latent_prone_params()
    prompt = SequenceLayout([text_segment(SegmentRole.QUESTION_TEXT, [1, 2, 3])])
    for max_new in range(1, 2 * (k + 2) + 2):
        layout, traj = decode_with_latents(prompt, k, params, CFG, temperature=0.0,
                                           max_new=max_new)
        assert len(traj.steps) <= max_new and traj.truncated
        _replay(prompt, layout, traj, params, CFG, 0.0, None)


def _stopping_params(config, seed, scale, eos_bias, latent_bias):
    """Random weights with shifted EOS and latent-start columns, so sampled
    decodes open latent runs and stop at different steps."""
    params = init_params(config, np.random.default_rng(seed), scale=scale)
    params["lnf_b"].data[:] = 0.5
    params["w_out"].data[:, vocab.TOKEN_TO_ID[vocab.EOS]] += eos_bias
    params["w_out"].data[:, vocab.TOKEN_TO_ID[vocab.LATENT_START]] += latent_bias
    return params


def _poison_freed_memory(config, group):
    """Free NaN-filled blocks the size of a group's cache buffer: a buffer
    that is not zero-filled would then likely start out holding NaN, which
    its padded key and value rows would carry into the attention."""
    for _ in range(2):
        block = np.full((group, 2 * config.layer_count, config.max_positions,
                         config.hidden_dim), np.nan)
        del block


def _check_group(prompt, k, params, config, temperature, seed, group, max_new):
    """decode_group with `group` child generators equals one lone decode per
    child, bit for bit, down to every logits row sampled from (a last-bit
    logits difference seldom reaches a token or its log-probability), and
    each of its rollouts replays against full forward passes. Returns the
    group's trajectories."""
    _poison_freed_memory(config, group)
    rngs = np.random.default_rng(seed).spawn(group)
    lone_rngs = np.random.default_rng(seed).spawn(group)
    replay_rngs = np.random.default_rng(seed).spawn(group)
    seen = {}  # generator id -> the logits rows sampled with it

    def sample(logits, temperature, rng):
        seen.setdefault(id(rng), []).append(logits.copy())
        return sample_token(logits, temperature, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "sample_token", sample)
        decoded = decode_group(prompt, k, params, config, rngs, temperature, max_new)
        lones = [decode_with_latents(prompt, k, params, config, temperature, rng, max_new)
                 for rng in lone_rngs]
    assert len(decoded) == group
    for (layout, traj), (lone_layout, lone), rng, lone_rng, replay_rng in zip(
            decoded, lones, rngs, lone_rngs, replay_rngs):
        assert (traj.truncated, traj.prompt_len) == (lone.truncated, lone.prompt_len)
        assert len(traj.steps) == len(lone.steps) <= max_new
        for a, b in zip(traj.steps, lone.steps):
            assert type(a) is type(b)
            if isinstance(a, LatentStep):
                assert np.array_equal(a.vector, b.vector)
            else:
                assert (a.token, a.logp, a.forced) == (b.token, b.logp, b.forced)
        rows, lone_rows = seen.get(id(rng), []), seen.get(id(lone_rng), [])
        assert len(rows) == len(lone_rows)
        assert all(np.array_equal(a, b) for a, b in zip(rows, lone_rows))
        assert layout.length == lone_layout.length
        _replay(prompt, layout, traj, params, config, temperature, replay_rng)
    return [traj for _, traj in decoded]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_decode_group_matches_lone_decodes(data):
    config = data.draw(st.sampled_from([LONG, ModelConfig()]), label="config")
    question = data.draw(st.lists(st.integers(0, vocab.VOCAB_SIZE - 1), min_size=1,
                                  max_size=5), label="question")
    patches = data.draw(st.integers(0, 4), label="image patches")
    segments = [text_segment(SegmentRole.QUESTION_TEXT, question)]
    if patches:
        feats = np.random.default_rng(patches).normal(size=(patches, config.patch_features))
        segments.append(image_segment(SegmentRole.QUESTION_IMAGE, feats))
    prompt = SequenceLayout(segments)
    k = data.draw(st.sampled_from([0, 1, 2, 3, 5, 8]), label="k")
    temperature = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]), label="temperature")
    params = _stopping_params(config, data.draw(st.integers(0, 3), label="weights"),
                              data.draw(st.sampled_from([0.05, 0.5]), label="scale"),
                              data.draw(st.sampled_from([-1.0, 0.0, 0.02, 0.15]), label="eos"),
                              data.draw(st.sampled_from([0.0, 0.02, 0.2, 0.4]), label="latent"))
    max_new = data.draw(st.integers(1, 48), label="max_new")
    _check_group(prompt, k, params, config, temperature, data.draw(st.integers(0, 2 ** 16)),
                 data.draw(st.integers(1, 5), label="group"), max_new)


def test_group_rollouts_that_stop_apart_match_lone_decodes():
    """Eight sampled rollouts at the reference shape from a question-image
    prompt: some end with EOS, some are cut by the budget, at different
    steps, so sequences drop out of the stacked step one by one."""
    config = ModelConfig()
    feats = np.random.default_rng(9).normal(size=(4, config.patch_features))
    prompt = SequenceLayout([text_segment(SegmentRole.QUESTION_TEXT, [1, 2, 3]),
                             image_segment(SegmentRole.QUESTION_IMAGE, feats)])
    params = _stopping_params(config, 0, 0.05, 0.02, 0.02)
    trajs = _check_group(prompt, 4, params, config, 1.0, 3, 8, max_new=40)
    ended = [not t.truncated for t in trajs]
    assert any(ended) and not all(ended)
    assert len({len(t.steps) for t in trajs}) >= 4
    assert any(t.latent_run_lengths() for t in trajs)


def test_one_token_prompt_with_empty_latent_runs_replays():
    """A one-row prompt runs its first pass beside a zero row
    (`ad.matmul_array`), so its keys and values have the bits of a full
    pass; with k = 0 the forced end token follows the marker at once, so
    the next pass adds two rows and attends to the prompt row's cached keys
    and values. (The second rollout here, and its lone decode, opens such a
    run at its first step.)"""
    prompt = SequenceLayout([text_segment(SegmentRole.QUESTION_TEXT, [0])])
    params = _stopping_params(LONG, 0, 0.05, -1.0, 0.2)
    trajs = _check_group(prompt, 0, params, LONG, 0.5, 3, 2, max_new=4)
    assert any(s.forced for t in trajs for s in t.steps if isinstance(s, TextStep))


@pytest.mark.parametrize("max_new", [7, 13])
def test_group_rollouts_cut_inside_latent_runs_match_lone_decodes(max_new):
    trajs = _check_group(_image_prompt(), 5, _talkative_params(latent_bias=0.4), LONG, 0.5,
                         2, 4, max_new)
    assert any(isinstance(t.steps[-1], LatentStep) for t in trajs)


def test_fill_latents_sources():
    rng = np.random.default_rng(8)
    params = init_params(CFG, rng)
    lat_start = vocab.TOKEN_TO_ID[vocab.LATENT_START]
    layout = SequenceLayout([
        text_segment(SegmentRole.QUESTION_TEXT, [1, 2]),
        text_segment(SegmentRole.PLAIN_TEXT, [lat_start]),
        image_segment(SegmentRole.AUX_IMAGE, rng.normal(size=(2, CFG.patch_features))),
        latent_segment(2),
    ])
    mask = build_attention_mask(layout, MaskMode.AUX_GATED)
    with ad.no_grad():
        produced = fill_latents(layout, mask, params, CFG)
    # slot 0 reads the marker state: recompute directly
    with ad.no_grad():
        _, stack = forward(layout, mask, params, CFG)
    assert np.array_equal(produced[1].data, stack[-1].data[5])  # slot 1 <- slot 0 state
    assert layout.latent_source(3) == 2  # marker sits at position 2

    # A second segment with no marker before it reads the row right before
    # it, not the first segment's marker; the fill equals a full pass.
    layout = SequenceLayout([
        text_segment(SegmentRole.QUESTION_TEXT, [1, 3]),
        text_segment(SegmentRole.PLAIN_TEXT, [lat_start]),
        latent_segment(2),
        text_segment(SegmentRole.PLAIN_TEXT, [4]),
        latent_segment(1),
    ])
    assert [layout.latent_source(2), layout.latent_source(4)] == [2, 5]
    mask = build_attention_mask(layout, MaskMode.CAUSAL)
    with ad.no_grad():
        produced = fill_latents(layout, mask, params, CFG)
        _, stack = forward(layout, mask, params, CFG)
    for vec, src in zip(produced, [2, 3, 5]):
        assert np.array_equal(vec, stack[-1].data[src])


def test_sample_token_rules():
    tok, logp = sample_token(np.array([10.0, 0.0, 0.0]), 0.0, None)
    assert tok == 0 and logp == 0.0
    tok, _ = sample_token(np.array([1.0, 1.0, 1.0]), 0.0, None)
    assert tok == 0  # tie broken by lowest id
    rng = np.random.default_rng(0)
    counts = np.zeros(3)
    for _ in range(3000):
        tok, logp = sample_token(np.zeros(3), 1.0, rng)
        counts[tok] += 1
        assert logp == pytest.approx(np.log(1 / 3), abs=1e-9)
    assert (np.abs(counts / 3000 - 1 / 3) < 0.05).all()


def test_sample_token_half_temperature_sharpens():
    logits = np.array([1.0, 0.0])
    rng = np.random.default_rng(1)
    _, logp = sample_token(logits, 0.5, rng)
    p_expected = np.exp(logits / 0.5) / np.exp(logits / 0.5).sum()
    assert min(abs(np.exp(logp) - p) for p in p_expected) < 1e-12


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    params = init_params(CFG, rng)
    ckpt = Checkpoint(CFG, "warmup", 123, 7, params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.stage == "warmup" and back.step == 123 and back.seed == 7
    assert back.config == CFG
    for name in param_shapes(CFG):
        assert np.array_equal(back.params[name].data, params[name].data)


def test_save_checkpoint_refuses_non_finite_parameters(tmp_path):
    params = init_params(CFG, np.random.default_rng(0))
    params["block0.w2"].data[3, 1] = np.inf
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="model.ckpt: parameter block0.w2 holds non-finite"):
        save_checkpoint(Checkpoint(CFG, "sft", 5, 1, params), path)
    assert not path.exists()


def _saved_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(Checkpoint(CFG, "sft", 5, 1, init_params(CFG, np.random.default_rng(0))), path)
    head, _, blob = path.read_bytes().partition(b"\n---\n")
    return path, head.decode(), blob


@pytest.mark.parametrize("edit, field", [
    (lambda h, b: (h.replace("stage=sft", "stage=stage9"), b), "stage"),
    (lambda h, b: (h.replace("\nseed=1", ""), b), "seed"),
    (lambda h, b: (h + "\nextra=1", b), "extra"),
    (lambda h, b: (h + "\nseed=2", b), "seed"),
    (lambda h, b: (h.replace("step=5", "step=five"), b), "step"),
    (lambda h, b: (h.replace("hidden_dim=16", "hidden_dim=32"), b), "blob"),
    (lambda h, b: (h, b[:-8]), "blob"),
    (lambda h, b: (h, b + b"\0" * 8), "blob"),
])
def test_load_checkpoint_names_the_file_and_the_bad_field(tmp_path, edit, field):
    path, head, blob = _saved_checkpoint(tmp_path)
    head, blob = edit(head, blob)
    path.write_bytes(head.encode() + b"\n---\n" + blob)
    with pytest.raises(CheckpointError, match=f"{path.name}.*'{field}'"):
        load_checkpoint(path)


def test_load_checkpoint_names_a_parameter_holding_nan(tmp_path):
    path, head, blob = _saved_checkpoint(tmp_path)
    shapes = param_shapes(CFG)
    names = list(shapes)
    offset = 8 * sum(int(np.prod(shapes[n])) for n in names[:names.index("block1.w1")])
    blob = blob[:offset + 8 * 5] + np.array([np.nan], dtype="<f8").tobytes() + blob[offset + 8 * 6:]
    path.write_bytes(head.encode() + b"\n---\n" + blob)
    with pytest.raises(CheckpointError, match=f"{path.name}.*'block1.w1'.*non-finite"):
        load_checkpoint(path)
    fixture = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "stage3.ckpt"
    assert load_checkpoint(fixture).stage == "sft"


def test_load_checkpoint_rejects_a_file_without_a_header(tmp_path):
    path = tmp_path / "raw.ckpt"
    path.write_bytes(b"\0" * 64)
    with pytest.raises(CheckpointError, match="raw.ckpt.*'header'"):
        load_checkpoint(path)


def test_vocabulary_has_each_special_exactly_once():
    for tok in (vocab.LATENT_START, vocab.LATENT_END, vocab.OBS_START,
                vocab.OBS_END, vocab.BOS, vocab.EOS, vocab.BOXED, vocab.BOX_CLOSE):
        assert vocab.TOKENS.count(tok) == 1
    assert len(set(vocab.TOKENS)) == vocab.VOCAB_SIZE
    assert ModelConfig().vocab_size == vocab.VOCAB_SIZE


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=10, head_count=4)


@pytest.mark.parametrize("field, value", [
    ("layer_count", 0), ("layer_count", -1), ("hidden_dim", 0), ("head_count", 0),
    ("max_positions", 0),
])
def test_model_config_rejects_sizes_below_one_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
        ModelConfig(**{field: value})


def test_copy_params_is_independent():
    params = init_params(CFG, np.random.default_rng(10))
    clone = copy_params(params)
    clone["tok_emb"].data[0, 0] += 1.0
    assert params["tok_emb"].data[0, 0] != clone["tok_emb"].data[0, 0]
