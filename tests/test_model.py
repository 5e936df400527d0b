import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcot import autodiff as ad
from latentcot import model, vocab
from latentcot.model import (AttentionMaskSpec, Checkpoint, CheckpointError,
                             LayoutError, MaskMode, ModelConfig, SegmentRole,
                             SequenceLayout, build_attention_mask,
                             ForwardCache, LatentStep, TextStep, copy_params,
                             decode_group, decode_with_latents, embed_layout,
                             fill_latents, forward, image_segment,
                             init_params, latent_segment, load_checkpoint,
                             param_shapes, sample_token, save_checkpoint,
                             text_segment, zero_params)

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
            spec = build_attention_mask(layout, mode)
            assert np.array_equal(spec.allow, brute_force_mask(layout, mode)), (i, mode)


def test_mask_spec_example():
    layout = SequenceLayout([
        text_segment(SegmentRole.PLAIN_TEXT, [8, 9]),
        image_segment(SegmentRole.AUX_IMAGE, np.zeros((2, CFG.patch_features))),
        latent_segment(2),
        text_segment(SegmentRole.OBSERVATION_TEXT, [10, 11]),
    ])
    allow = build_attention_mask(layout, MaskMode.AUX_GATED).allow
    aux_cols = allow[:, 2:4]
    assert aux_cols[2, 0] and aux_cols[3, 1] and aux_cols[3, 0]  # aux-internal causal
    assert aux_cols[4:6].all()  # latent rows see aux
    assert not aux_cols[6:].any()  # observation rows do not
    assert allow[6, :2].all() and allow[6, 4:7].all()  # text, latent, obs keys visible


def test_causal_mask_is_lower_triangular():
    layout = SequenceLayout([text_segment(SegmentRole.PLAIN_TEXT, [1, 2, 3])])
    allow = build_attention_mask(layout, MaskMode.CAUSAL).allow
    assert np.array_equal(allow, np.tril(np.ones((3, 3), dtype=bool)))


def test_empty_aux_segment_equals_causal():
    layout = SequenceLayout([
        text_segment(SegmentRole.PLAIN_TEXT, [1, 2]),
        image_segment(SegmentRole.AUX_IMAGE, np.zeros((0, CFG.patch_features))),
        text_segment(SegmentRole.PLAIN_TEXT, [3]),
    ])
    gated = build_attention_mask(layout, MaskMode.AUX_GATED).allow
    causal = build_attention_mask(layout, MaskMode.CAUSAL).allow
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
    bad = AttentionMaskSpec(MaskMode.CAUSAL, np.tril(np.ones((2, 2), dtype=bool)))
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


def test_cached_forward_matches_full_passes():
    """Growing a ForwardCache a few rows per call, each call gives the logits
    of a full pass over its prefix, and stack rows equal to a pass over the
    whole layout."""
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
            assert np.array_equal(logits.data, ref_logits.data), t
            start = t - stack[0].shape[0]
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
    """The prompt pass is a single row (the gemv path, like its replay); the
    first cached step then reruns that row beside the new one."""
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
        block = np.full((group, 2 * config.layer_count + 1, config.max_positions,
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
    """A one-row prompt runs its first pass as a gemv; with k = 0 the forced
    end token follows the marker at once, so the next pass adds two rows.
    It must rerun the prompt row too, or every later row attends to gemv
    keys and values that no full pass has. (The second rollout here, and
    its lone decode, opens such a run at its first step.)"""
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


def test_copy_params_is_independent():
    params = init_params(CFG, np.random.default_rng(10))
    clone = copy_params(params)
    clone["tok_emb"].data[0, 0] += 1.0
    assert params["tok_emb"].data[0, 0] != clone["tok_emb"].data[0, 0]
