import copy
import functools
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentcot import autodiff as ad
from latentcot import model, sft, vocab
from latentcot.layouts import build_interleaved, build_student, build_teacher
from latentcot.model import (MaskMode, ModelConfig, SegmentRole,
                             SequenceLayout, build_attention_mask,
                             bind_use_sites, copy_params, fill_latents,
                             forward, image_segment, init_params,
                             latent_segment, params_allclose, text_segment)
from latentcot.sft import (AdamW, LatentStoreError, LossWeights, StageConfig,
                           TargetLatentStore,
                           TrainingDiverged, align_latent_loss, align_obs_loss,
                           emit_target_latents, latent_only_surrogate,
                           measure_obs_accuracy, ntp_loss,
                           stage2_sample_losses, stage3_sample_losses,
                           train_stage1, train_stage2, train_stage3)
from latentcot.tasks import CurationConfig, build_corpus, make_lookup_sample

CFG = ModelConfig(layer_count=2, hidden_dim=16, head_count=2, max_positions=96)

GRID = [
    ["a", "b", "e", "f"],
    ["c", "d", "g", "h"],
    ["e", "f", "a", "b"],
    ["g", "h", "c", "d"],
]


def lookup_sample():
    return make_lookup_sample(GRID, (0, 0, 1, 1), (0, 1))


def tiny_records(n=24, seed=21):
    cfg = CurationConfig(sample_count=n * 3, seed=seed)
    records, _ = build_corpus(cfg)
    return records[:n]


# ---------------------------------------------------------------------------
# ntp loss
# ---------------------------------------------------------------------------

def _plain_layout(tokens):
    return SequenceLayout([text_segment(SegmentRole.PLAIN_TEXT, tokens)])


def test_ntp_loss_zero_on_one_hot_logits():
    layout = _plain_layout([3, 5, 7, 9])
    mask = np.array([False, True, True, True])
    logits = np.full((4, vocab.VOCAB_SIZE), -1e3)
    for t in range(3):
        logits[t, layout.token_at[t + 1]] = 1e3
    loss = ntp_loss(ad.constant(logits), layout, mask)
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_ntp_loss_uniform_logits_is_log_vocab():
    layout = _plain_layout([1, 2, 3])
    mask = np.array([False, True, True])
    loss = ntp_loss(ad.constant(np.zeros((3, vocab.VOCAB_SIZE))), layout, mask)
    assert loss.item() == pytest.approx(math.log(vocab.VOCAB_SIZE), abs=1e-12)


def test_uniform_sixteen_way_nll_is_log_sixteen():
    targets = np.array([0, 5, 9])
    mask = np.array([True, True, True])
    loss = ad.masked_mean_nll(ad.constant(np.zeros((3, 16))), targets, mask)
    assert loss.item() == pytest.approx(math.log(16.0), abs=1e-12)  # ~2.7726


def test_ntp_loss_ignores_masked_positions():
    rng = np.random.default_rng(0)
    layout = _plain_layout([1, 2, 3, 4])
    mask = np.array([False, True, False, True])
    logits = rng.normal(size=(4, vocab.VOCAB_SIZE))
    base = ntp_loss(ad.constant(logits), layout, mask).item()
    # rows 1 and 3 predict the masked position 2 and the beyond-end token
    perturbed = logits.copy()
    perturbed[1] += rng.normal(size=vocab.VOCAB_SIZE)
    perturbed[3] += rng.normal(size=vocab.VOCAB_SIZE)
    assert ntp_loss(ad.constant(perturbed), layout, mask).item() == base


def test_ntp_loss_rejects_empty_mask():
    layout = _plain_layout([1, 2])
    with pytest.raises(ValueError):
        ntp_loss(ad.constant(np.zeros((2, vocab.VOCAB_SIZE))), layout,
                 np.array([False, False]))


# ---------------------------------------------------------------------------
# alignment losses vs scalar oracles
# ---------------------------------------------------------------------------

def scalar_cosine(u, v):
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    return sum(a * b for a, b in zip(u, v)) / (nu * nv)


def test_align_obs_identical_stacks_zero():
    rng = np.random.default_rng(1)
    stack = [ad.constant(rng.normal(size=(5, 8))) for _ in range(3)]
    loss = align_obs_loss(stack, stack, [1, 3], [1, 3])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_align_obs_negated_teacher_gives_two():
    rng = np.random.default_rng(2)
    stack = [ad.constant(rng.normal(size=(4, 8))) for _ in range(3)]
    neg = [ad.constant(-layer.data) for layer in stack]
    loss = align_obs_loss(neg, stack, [0, 2], [0, 2])
    assert loss.item() == pytest.approx(2.0, abs=1e-12)


def test_align_obs_matches_scalar_brute_force():
    rng = np.random.default_rng(3)
    L, P, d = 2, 3, 8
    teacher = [ad.constant(rng.normal(size=(6, d))) for _ in range(L + 1)]
    student = [ad.constant(rng.normal(size=(6, d))) for _ in range(L + 1)]
    tpos, spos = [0, 2, 4], [1, 3, 5]
    loss = align_obs_loss(teacher, student, tpos, spos)
    expect = 0.0
    for l in range(1, L + 1):
        for tp, sp in zip(tpos, spos):
            expect += 1.0 - scalar_cosine(teacher[l].data[tp], student[l].data[sp])
    expect /= L * P
    assert loss.item() == pytest.approx(expect, abs=1e-12)


def test_align_obs_rejects_mismatched_positions():
    stack = [ad.constant(np.ones((4, 8)))] * 3
    with pytest.raises(ValueError, match="position sets"):
        align_obs_loss(stack, stack, [1, 2], [1])


def test_align_latent_orthogonal_is_one():
    L, K, d = 2, 2, 4
    target = np.zeros((L, K, d))
    target[:, :, 0] = 1.0
    stack_rows = np.zeros((5, d))
    stack_rows[:, 1] = 1.0
    stack = [ad.constant(stack_rows) for _ in range(L + 1)]
    loss = align_latent_loss(target, stack, [2, 3])
    assert loss.item() == pytest.approx(1.0, abs=1e-12)


def test_align_latent_matches_scalar_brute_force():
    rng = np.random.default_rng(4)
    L, K, d = 2, 2, 6
    target = rng.normal(size=(L, K, d))
    stack = [ad.constant(rng.normal(size=(7, d))) for _ in range(L + 1)]
    slots = [3, 4]
    loss = align_latent_loss(target, stack, slots)
    expect = 0.0
    for l in range(L):
        for k, pos in enumerate(slots):
            expect += 1.0 - scalar_cosine(target[l, k], stack[l + 1].data[pos])
    expect /= L * K
    assert loss.item() == pytest.approx(expect, abs=1e-12)


def test_align_latent_rejects_slot_mismatch():
    stack = [ad.constant(np.ones((4, 6)))] * 3
    with pytest.raises(ValueError, match="slots"):
        align_latent_loss(np.ones((2, 3, 6)), stack, [1, 2])


# ---------------------------------------------------------------------------
# latent-only surrogate
# ---------------------------------------------------------------------------

def test_surrogate_zero_grads_for_zero_adjoints():
    rng = np.random.default_rng(5)
    params = init_params(CFG, rng)
    sample = lookup_sample()
    built = build_student(sample, 2, with_aux=True)
    mask = build_attention_mask(built.layout, built.mask_mode)
    produced = fill_latents(built.layout, mask, params, CFG)
    surrogate = latent_only_surrogate([np.zeros(CFG.hidden_dim)] * len(produced), produced)
    assert surrogate.item() == 0.0
    grads = ad.backward(surrogate, params)
    assert all(np.all(g == 0.0) for g in grads.values())


def test_surrogate_grad_zero_for_post_latent_parameters():
    """Parameters that provably influence no latent slot get exactly zero."""
    rng = np.random.default_rng(6)
    params = init_params(CFG, rng)
    sample = lookup_sample()
    _, loss_align, surrogate, _ = stage2_sample_losses(sample, params, params, CFG, 2)
    grads = ad.backward(surrogate, params)
    # the unembedding never feeds any latent vector
    assert np.all(grads["w_out"] == 0.0)
    # the token "answer" occurs only after the last latent slot
    row = vocab.TOKEN_TO_ID["answer"]
    assert np.all(grads["tok_emb"][row] == 0.0)
    # the question tokens do influence the latents
    q_row = vocab.TOKEN_TO_ID["lookup"]
    assert np.any(grads["tok_emb"][q_row] != 0.0)


def test_surrogate_all_zero_when_latents_teacher_forced():
    rng = np.random.default_rng(7)
    params = init_params(CFG, rng)
    sample = lookup_sample()
    built = build_student(sample, 2, with_aux=True)
    mask = build_attention_mask(built.layout, built.mask_mode)
    with ad.no_grad():
        produced_vals = fill_latents(built.layout, mask, params, CFG)
    produced = [ad.constant(ad.value(v)) for v in produced_vals]
    sites = bind_use_sites(built.layout, produced)
    logits, stack = forward(built.layout, mask, params, CFG)
    tb = build_teacher(sample)
    with ad.no_grad():
        _, t_stack = forward(tb.layout, build_attention_mask(tb.layout, MaskMode.CAUSAL),
                             params, CFG)
    loss_align = align_obs_loss([ad.constant(s.data) for s in t_stack], stack,
                                tb.obs_positions, built.obs_positions)
    site_grads = ad.backward(loss_align, wrt=sites)
    assert any(np.any(g != 0) for g in site_grads)
    surrogate = latent_only_surrogate(site_grads, produced)
    grads = ad.backward(surrogate, params)
    assert all(np.all(g == 0.0) for g in grads.values())


def _severed_path_fd(sample, student_params, teacher_params, config, k, coords, eps=1e-5):
    """Finite differences of the observation-alignment loss with every
    non-latent pathway frozen at the base parameters: only the latent
    generation pass sees the perturbed parameters."""
    tb = build_teacher(sample)
    with ad.no_grad():
        _, t_stack = forward(tb.layout, build_attention_mask(tb.layout, MaskMode.CAUSAL),
                             teacher_params, config)
    t_consts = [ad.constant(s.data) for s in t_stack]
    base = {name: ad.constant(t.data.copy()) for name, t in student_params.items()}

    def value(pvals):
        with ad.no_grad():
            live = {name: ad.constant(v) for name, v in pvals.items()}
            built = build_student(sample, k, with_aux=True)
            mask = build_attention_mask(built.layout, built.mask_mode)
            produced = fill_latents(built.layout, mask, live, config)
            frozen = build_student(sample, k, with_aux=True)
            for (si, slot, _), v in zip(frozen.layout.latent_slots, produced):
                frozen.layout.set_latent(si, slot, ad.value(v))
            _, stack = forward(frozen.layout, mask, base, config)
            loss = align_obs_loss(t_consts, stack, tb.obs_positions, frozen.obs_positions)
            return loss.item()

    return ad.finite_difference(value, {n: t.data for n, t in student_params.items()},
                                eps=eps, coords=coords)


def test_surrogate_matches_severed_path_oracle():
    rng = np.random.default_rng(8)
    params = init_params(CFG, rng)
    sample = lookup_sample()
    _, _, surrogate, _ = stage2_sample_losses(sample, params, params, CFG, 2)
    analytic = ad.backward(surrogate, params)
    coords = {}
    fd_rng = np.random.default_rng(9)
    for name in ("block0.wq", "block1.wv", "patch_proj", "tok_emb"):
        size = params[name].data.size
        coords[name] = fd_rng.choice(size, size=6, replace=False)
    numeric = _severed_path_fd(sample, params, params, CFG, 2, coords)
    assert ad.max_rel_error(analytic, numeric, coords) < 1e-4


# ---------------------------------------------------------------------------
# cached latent fill
# ---------------------------------------------------------------------------

def _full_pass_fill(layout, mask, params, config):
    """The fill before the cache: one full forward per slot."""
    produced = []
    for si, slot, pos in layout.latent_slots:
        src = layout.latent_source(si) if slot == 0 else pos - 1
        _, stack = forward(layout, mask, params, config)
        vec = ad.get_row(stack[-1], src)
        layout.set_latent(si, slot, vec)
        produced.append(vec)
    return produced


def _rel_close(a, b, tol=1e-12):
    """Per parameter, the largest difference is at most `tol` times the
    largest reference entry."""
    for name in b:
        assert np.abs(a[name] - b[name]).max() <= tol * np.abs(b[name]).max(), name


_LAT_START = vocab.TOKEN_TO_ID[vocab.LATENT_START]
_TOKENS = st.one_of(st.just(_LAT_START), st.integers(0, vocab.VOCAB_SIZE - 1))


@st.composite
def _fill_layouts(draw):
    """Segments with two or more latent segments, some after an aux image of
    one or more patches, and random text between, or none, so a segment may
    follow another directly. The text often holds the latent-start marker,
    which no source depends on: slot 0 reads the row before its segment or
    aux image, wherever the markers stand. The layout opens with <bos> and
    up to three more tokens, so a latent segment may follow <bos> directly
    (a source at position 0, whose first fill pass is a single row)."""
    segments = [text_segment(SegmentRole.QUESTION_TEXT,
                             [vocab.TOKEN_TO_ID[vocab.BOS]] + draw(st.lists(_TOKENS, max_size=3)))]
    for with_aux in draw(st.lists(st.booleans(), min_size=2, max_size=4)):
        text = draw(st.lists(_TOKENS, max_size=3))
        if text:
            segments.append(text_segment(SegmentRole.PLAIN_TEXT, text))
        if with_aux:
            patches = draw(st.integers(1, 4))
            feats = np.random.default_rng(draw(st.integers(0, 2**16))).normal(
                size=(patches, vocab.PATCH_FEATURES))
            segments.append(image_segment(SegmentRole.AUX_IMAGE, feats))
        segments.append(latent_segment(draw(st.integers(1, 4))))
    segments.append(text_segment(SegmentRole.ANSWER, draw(st.lists(_TOKENS, min_size=1, max_size=2))))
    return segments


@settings(max_examples=40, deadline=None)
@given(_fill_layouts(), st.sampled_from(list(MaskMode)),
       st.sampled_from([CFG, ModelConfig()]), st.integers(0, 2**16))
@example([text_segment(SegmentRole.QUESTION_TEXT, [vocab.TOKEN_TO_ID[vocab.BOS]]),
          latent_segment(2), text_segment(SegmentRole.PLAIN_TEXT, [5]), latent_segment(1),
          text_segment(SegmentRole.ANSWER, [6])], MaskMode.CAUSAL, CFG, 0)
def test_cached_fill_matches_full_pass_fill(segments, mode, config, seed):
    """The cached fill produces the full-pass fill's vectors bit for bit, and
    their parameter gradients up to summation order."""
    rng = np.random.default_rng(seed)
    params = init_params(config, rng, scale=0.3)
    results = []
    for fill in (_full_pass_fill, fill_latents):
        layout = SequenceLayout(copy.deepcopy(segments))
        produced = fill(layout, build_attention_mask(layout, mode), params, config)
        results.append(produced)
    ref, new = results
    assert len(ref) == len(new) > 1
    for a, b in zip(new, ref):
        assert np.array_equal(a.data, b.data)
    adjoints = rng.normal(size=(len(ref), config.hidden_dim))
    grads = [ad.backward(sft.latent_only_surrogate(list(adjoints), produced), params)
             for produced in results]
    _rel_close(grads[1], grads[0])


@functools.cache
def _fill_samples():
    records = tiny_records(n=9)
    assert [r.sample.family for r in records[7:9]] == ["lookup", "count"]
    return records[7].sample, records[8].sample


@pytest.mark.parametrize("with_aux", [True, False], ids=["stage2", "stage3"])
@pytest.mark.parametrize("k", [1, 2, 8, 16])
def test_built_layouts_source_each_segment_at_its_marker(monkeypatch, with_aux, k):
    """The traffic the fill's source rule serves: in `build_student` layouts
    of both families, every latent segment's source holds the latent-start
    token, and the fill runs exactly one `forward` per slot, each over a
    longer prefix."""
    config = ModelConfig(layer_count=1, hidden_dim=16, head_count=2)
    params = init_params(config, np.random.default_rng(k))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].length)
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", counted)
    for sample in _fill_samples():
        built = build_student(sample, k, with_aux)
        layout = built.layout
        latent = [si for si, seg in enumerate(layout.segments) if seg.role is SegmentRole.LATENT]
        assert len(latent) == (1 if sample.family == "lookup" else 2)
        assert all(layout.token_at[layout.latent_source(si)] == _LAT_START for si in latent)
        calls.clear()
        with ad.no_grad():
            fill_latents(layout, build_attention_mask(layout, built.mask_mode), params, config)
        assert len(calls) == len(layout.latent_slots) == k * len(latent)
        assert calls == sorted(set(calls))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([0, 1]), st.sampled_from([CFG, ModelConfig()]),
       st.integers(1, 3), st.integers(0, 2**16))
def test_cached_fill_keeps_stage_losses(which, config, k, seed):
    """Stage 2 and 3 give the same losses and site adjoints, bit for bit,
    with the cached fill as with the full-pass fill; the surrogate's
    parameter gradients differ only by summation order."""
    sample = _fill_samples()[which]
    rng = np.random.default_rng(seed)
    teacher = init_params(config, rng, scale=0.3)
    student = init_params(config, rng, scale=0.3)
    slots = len(build_student(sample, k, with_aux=False).layout.latent_slots)
    store = TargetLatentStore({0: rng.normal(size=(config.layer_count, slots, config.hidden_dim))})

    def run():
        out = []
        for losses in (sft.stage2_sample_losses(sample, teacher, student, config, k),
                       sft.stage3_sample_losses(sample, 0, store, student, config, k)):
            ntp, align, surrogate, adjoints = losses
            out.append((ntp.item(), align.item(), adjoints, ad.backward(surrogate, student)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sft, "fill_latents", _full_pass_fill)
        ref = run()
    for (ntp, align, adjoints, grads), (r_ntp, r_align, r_adj, r_grads) in zip(run(), ref):
        assert (ntp, align) == (r_ntp, r_align)
        assert all(np.array_equal(a, b) for a, b in zip(adjoints, r_adj))
        _rel_close(grads, r_grads)


def test_fill_graph_stays_near_one_forward():
    """The surrogate's graph for a 16-slot count sample holds at most three
    times the values of one full forward over its layout (the full-pass
    fill held about twelve times)."""
    sample = _fill_samples()[1]
    config = ModelConfig()
    params = init_params(config, np.random.default_rng(40))
    built = build_student(sample, 8, with_aux=False)
    assert len(built.layout.latent_slots) == 16
    store = TargetLatentStore({0: np.ones((config.layer_count, 16, config.hidden_dim))})
    _, _, surrogate, _ = sft.stage3_sample_losses(sample, 0, store, params, config, 8)
    logits, _ = forward(built.layout, build_attention_mask(built.layout, built.mask_mode),
                        params, config)

    def values(root):
        """Values held by the nodes above `root`, not crossing barriers."""
        seen, todo = {root.seq: root}, [root]
        while todo:
            node = todo.pop()
            for p in () if node.barrier else node.parents:
                if p.seq not in seen:
                    seen[p.seq] = p
                    todo.append(p)
        return sum(n.data.size for n in seen.values())

    assert values(surrogate) <= 3 * values(logits)


# ---------------------------------------------------------------------------
# loss composition
# ---------------------------------------------------------------------------

def test_total_loss_linearity():
    rng = np.random.default_rng(10)
    params = init_params(CFG, rng)
    sample = lookup_sample()
    loss_ntp, _, surrogate, _ = stage2_sample_losses(sample, params, params, CFG, 2)
    alpha = 2.0
    total = ad.add(loss_ntp, ad.scale(surrogate, alpha))
    g_total = ad.backward(total, params)
    g_ntp = ad.backward(loss_ntp, params)
    g_sur = ad.backward(surrogate, params)
    for name in params:
        assert np.max(np.abs(g_total[name] - (g_ntp[name] + alpha * g_sur[name]))) < 1e-10


def test_stage2_ntp_invariant_to_aux_with_forced_latents():
    rng = np.random.default_rng(11)
    params = init_params(CFG, rng)
    sample = lookup_sample()
    forced = [rng.normal(size=CFG.hidden_dim) for _ in range(2)]

    def ntp_value(aux_shift):
        built = build_student(sample, 2, with_aux=True)
        for seg in built.layout.segments:
            if seg.role is SegmentRole.AUX_IMAGE:
                seg.feats = seg.feats + aux_shift
        for (si, slot, _), v in zip(built.layout.latent_slots, forced):
            built.layout.set_latent(si, slot, v)
        mask = build_attention_mask(built.layout, built.mask_mode)
        with ad.no_grad():
            logits, _ = forward(built.layout, mask, params, CFG)
            return ntp_loss(logits, built.layout, built.label_mask).item()

    assert ntp_value(0.0) == ntp_value(1.5)


# ---------------------------------------------------------------------------
# optimizer and trainers
# ---------------------------------------------------------------------------

def test_stage_config_reference_defaults():
    cfg = StageConfig()
    assert cfg.learning_rate == 1e-5 and sft.WEIGHT_DECAY == 0.01
    assert cfg.k_train == 8
    weights = LossWeights()
    assert weights.alpha == 2.0 and weights.beta_stage3 == 2.0
    with pytest.raises(ValueError):
        LossWeights(alpha=-1.0)


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("field", ["alpha", "beta_stage3"])
def test_loss_weights_reject_negative_and_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        LossWeights(**{field: value})


def test_adamw_decoupled_decay():
    p = ad.parameter("p", np.array([1.0]))
    opt = AdamW({"p": p}, lr=0.1)
    opt.step({"p": np.array([0.0])})
    # zero gradient: only decay moves the parameter
    assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.01 * 1.0)


def test_adamw_steps_in_place_with_the_bits_of_the_formula():
    """Five steps on random gradients give, bit for bit, the out-of-place
    update m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    w -= lr ((m / c1) / (sqrt(v / c2) + eps) + wd w)."""
    rng = np.random.default_rng(40)
    w0 = rng.normal(size=(3, 4))
    p = ad.parameter("p", w0.copy())
    opt = AdamW({"p": p}, lr=0.03)
    w, m, v = w0.copy(), np.zeros_like(w0), np.zeros_like(w0)
    b1, b2 = sft.ADAM_BETA1, sft.ADAM_BETA2
    for t in range(1, 6):
        g = rng.normal(size=w0.shape)
        opt.step({"p": g})
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        update = (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + sft.ADAM_EPS)
        w -= 0.03 * (update + sft.WEIGHT_DECAY * w)
        assert np.array_equal(p.data, w) and np.array_equal(opt.m["p"], m)


def test_stage1_loss_decreases_and_diagnostic_moves():
    records = tiny_records()
    base = init_params(CFG, np.random.default_rng(30))
    stage = StageConfig(learning_rate=3e-3, epochs=3, max_steps=60)
    result = train_stage1(base, records, CFG, stage, seed=1,
                          diag_samples=[r.sample for r in records[:8]])
    first = np.mean([row["loss"] for row in result.log[:8]])
    last = np.mean([row["loss"] for row in result.log[-8:]])
    assert last < first
    assert result.diagnostics[0]["obs_acc_with_aux"] <= 1.0


def test_stage1_deterministic():
    records = tiny_records()
    base = init_params(CFG, np.random.default_rng(31))
    stage = StageConfig(learning_rate=1e-3, epochs=1, max_steps=12)
    a = train_stage1(base, records, CFG, stage, seed=5)
    b = train_stage1(base, records, CFG, stage, seed=5)
    assert params_allclose(a.params, b.params)


@pytest.mark.parametrize("name", ["stage1", "stage2", "stage3"])
def test_divergence_aborts(name):
    records = tiny_records(n=4)
    base = init_params(CFG, np.random.default_rng(32))
    stage = StageConfig(learning_rate=1e-3, epochs=1, max_steps=2, k_train=2)
    # built from clean params, so the store check before step 0 passes
    store = emit_target_latents(base, records, CFG, stage.k_train)
    base["tok_emb"].data[0, 0] = np.nan
    run = {"stage1": lambda: train_stage1(base, records, CFG, stage, seed=0),
           "stage2": lambda: train_stage2(base, records, CFG, stage, LossWeights(), seed=0),
           "stage3": lambda: train_stage3(base, records, store, CFG, stage, LossWeights(),
                                          seed=0)}[name]
    with pytest.raises(TrainingDiverged, match=f"^{name}: loss became non-finite at step 0$"):
        run()


@pytest.mark.parametrize("grad_accum, max_steps", [(2, 1), (2, 3), (4, 3), (2, 4)])
def test_grad_accum_steps_on_a_last_partial_window(grad_accum, max_steps):
    """AdamW steps once per `grad_accum` samples and once more on the mean
    of a last partial window, as a hand-written accumulate-then-step loop."""
    records = tiny_records(n=4)
    base = init_params(CFG, np.random.default_rng(41))
    stage = StageConfig(learning_rate=1e-3, epochs=1, max_steps=max_steps,
                        grad_accum=grad_accum)
    calls = []
    original = AdamW.step

    def counted(opt, grads):
        calls.append(opt.t)
        original(opt, grads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AdamW, "step", counted)
        result = train_stage1(base, records, CFG, stage, seed=5)
    assert len(calls) == math.ceil(max_steps / grad_accum)

    ref = copy_params(base)
    opt = AdamW(ref, stage.learning_rate)
    order = [int(i) for i in np.random.default_rng(5).permutation(len(records))][:max_steps]
    for start in range(0, max_steps, grad_accum):
        window = []
        for idx in order[start:start + grad_accum]:
            built = build_interleaved(records[idx].sample)
            mask = build_attention_mask(built.layout, MaskMode.CAUSAL)
            logits, _ = forward(built.layout, mask, ref, CFG)
            window.append(ad.backward(ntp_loss(logits, built.layout, built.label_mask), ref))
        opt.step({k: sum(g[k] for g in window) / len(window) for k in ref})
    for name in ref:
        assert np.array_equal(result.params[name].data, ref[name].data), name


def test_a_sample_without_a_loss_is_logged_and_takes_no_step():
    """A sample whose loss is None is logged, adds nothing to a `grad_accum`
    window, and leaves a pending last window to step, as a hand-written
    loop over the samples that gave a loss."""
    records = tiny_records(n=5)
    base = init_params(CFG, np.random.default_rng(43))
    stage = StageConfig(learning_rate=1e-3, epochs=1, grad_accum=2)
    params = copy_params(base)
    logged, steps = [], []
    original = AdamW.step

    def sample_loss(rec):
        if len(logged) in (1, 4):  # the second and the last sample
            logged.append(None)
            return None, {"loss": None}
        loss = sft.stage1_sample_loss(rec.sample, params, CFG)
        logged.append(loss.item())
        return loss, {"loss": loss.item()}

    def counted(opt, grads):
        steps.append(len(logged))
        original(opt, grads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AdamW, "step", counted)
        result = sft._train(params, records, stage, 5, "stage1", sample_loss)
    assert result.log == [{"step": i, "loss": v} for i, v in enumerate(logged)]
    assert steps == [3, 5]

    ref = copy_params(base)
    opt = AdamW(ref, stage.learning_rate)
    order = [int(i) for i in np.random.default_rng(5).permutation(len(records))]
    for window in ([order[0], order[2]], [order[3]]):
        grads = [ad.backward(sft.stage1_sample_loss(records[idx].sample, ref, CFG), ref)
                 for idx in window]
        opt.step({k: sum(g[k] for g in grads) / len(grads) for k in ref})
    for name in ref:
        assert np.array_equal(params[name].data, ref[name].data), name


def test_each_step_graph_is_freed_before_the_next_is_built():
    records = tiny_records(n=4)
    params = init_params(CFG, np.random.default_rng(42))
    stage = StageConfig(learning_rate=1e-3, epochs=1, max_steps=3)
    kept = []

    def sample_loss(rec):
        assert all(ref() is None for ref in kept)
        loss = sft.stage1_sample_loss(rec.sample, params, CFG)
        kept.append(weakref.ref(loss.data))
        return loss, {}

    sft._train(params, records, stage, 0, "stage1", sample_loss)
    assert len(kept) == 3


def test_untrained_obs_accuracy_near_chance():
    records = tiny_records(n=12)
    params = init_params(CFG, np.random.default_rng(33))
    with_aux, without_aux = measure_obs_accuracy(params, CFG, [r.sample for r in records])
    assert abs(with_aux - without_aux) < 0.02 + 2.0 / vocab.VOCAB_SIZE


def test_stage2_teacher_frozen_and_store_consistent():
    records = tiny_records(n=6)
    warmup = init_params(CFG, np.random.default_rng(34))
    before = copy_params(warmup)
    stage = StageConfig(learning_rate=1e-3, epochs=1, max_steps=6, k_train=2)
    result = train_stage2(warmup, records, CFG, stage, LossWeights(), seed=2)
    assert params_allclose(warmup, before)
    assert not params_allclose(result.params, warmup)
    # store entries equal a fresh forward pass, bit-exact
    fresh = emit_target_latents(result.params, records[:2], CFG, stage.k_train)
    for rec in records[:2]:
        assert np.array_equal(result.store.get(rec.sample_id), fresh.get(rec.sample_id))


def test_stage2_alpha_zero_matches_pure_ntp_gradients():
    records = tiny_records(n=2)
    params = init_params(CFG, np.random.default_rng(35))
    sample = records[0].sample
    loss_ntp, _, surrogate, _ = stage2_sample_losses(sample, params, params, CFG, 2)
    total = ad.add(loss_ntp, ad.scale(surrogate, 0.0))
    assert total.item() == loss_ntp.item()
    g_total = ad.backward(total, params)
    g_ntp = ad.backward(loss_ntp, params)
    for name in params:
        # summation order inside backward may differ between the two graphs
        assert np.max(np.abs(g_total[name] - g_ntp[name])) < 1e-12


def test_stage3_requires_store_entries():
    records = tiny_records(n=4)
    warmup = init_params(CFG, np.random.default_rng(36))
    store = TargetLatentStore()
    stage = StageConfig(epochs=1, max_steps=2, k_train=2)
    with pytest.raises(KeyError, match="missing sample ids"):
        train_stage3(warmup, records, store, CFG, stage, LossWeights(), seed=0)


def test_stage3_trains_and_reinitializes_from_warmup():
    records = tiny_records(n=5)
    warmup = init_params(CFG, np.random.default_rng(37))
    stage = StageConfig(learning_rate=1e-3, epochs=1, max_steps=5, k_train=2)
    s2 = train_stage2(warmup, records, CFG, stage, LossWeights(), seed=3)
    s3 = train_stage3(warmup, records, s2.store, CFG, stage, LossWeights(), seed=4)
    assert not params_allclose(s3.params, warmup)
    align_values = [row["align_latent"] for row in s3.log]
    assert all(np.isfinite(v) for v in align_values)


def test_store_save_load_round_trip(tmp_path):
    store = TargetLatentStore()
    rng = np.random.default_rng(38)
    store.put(0, rng.normal(size=(2, 3, 8)))
    store.put(7, rng.normal(size=(2, 3, 8)))
    path = tmp_path / "latents.npz"
    store.save(path)
    back = TargetLatentStore.load(path)
    assert set(back.entries) == {0, 7}
    assert np.array_equal(back.get(7), store.get(7))


@pytest.mark.parametrize("key, entry, why", [
    ("3", np.ones((2, 3)), "not \\(layers, slots, hidden\\)"),
    ("3", np.full((2, 3, 8), np.nan), "non-finite"),
    ("3", np.array([[["a"]]]), "non-numeric"),
    ("three", np.ones((2, 3, 8)), "not an integer"),
    ("03", np.ones((2, 3, 8)), "repeated"),
], ids=["not-3d", "nan", "text", "key", "repeated"])
def test_store_load_names_the_file_and_the_bad_sample(tmp_path, key, entry, why):
    path = tmp_path / "latents.npz"
    np.savez(path, **{"3" if key == "03" else "4": np.ones((2, 3, 8)), key: entry})
    with pytest.raises(LatentStoreError, match=why) as err:
        TargetLatentStore.load(path)
    assert str(path) in str(err.value) and repr(key) in str(err.value)


def _write_broken_store(path, kind):
    if kind == "object-array":
        np.savez(path, **{"0": np.array([None, 1.0], dtype=object)})
    elif kind == "npy":
        with open(path, "wb") as f:
            np.save(f, np.ones((2, 3, 8)))
    else:
        np.savez(path, **{"0": np.ones((2, 3, 8))})
        raw = path.read_bytes()
        path.write_bytes({"truncated": raw[:len(raw) // 2], "empty": b"",
                          "not-a-zip": b"not a zip archive\n"}[kind])


@pytest.mark.parametrize("kind, why", [
    ("truncated", "not a readable .npz archive"),
    ("empty", "not a readable .npz archive"),
    ("not-a-zip", "not a readable .npz archive"),
    ("object-array", "sample '0': entry cannot be read"),
    ("npy", "not a .npz archive"),
], ids=["truncated", "empty", "not-a-zip", "object-array", "npy"])
def test_store_load_names_the_file_of_an_unreadable_archive(tmp_path, kind, why):
    path = tmp_path / "latents.npz"
    _write_broken_store(path, kind)
    with pytest.raises(LatentStoreError, match=why) as err:
        TargetLatentStore.load(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("bad_entry", ["shape", "nan"])
def test_stage3_checks_store_entries_before_step_0(bad_entry):
    records = tiny_records(n=3)
    warmup = init_params(CFG, np.random.default_rng(39))
    stage = StageConfig(epochs=1, max_steps=3, k_train=2)
    store = TargetLatentStore()
    for rec in records:
        slots = len(build_student(rec.sample, 2, with_aux=False).layout.latent_slots)
        store.put(rec.sample_id, np.ones((CFG.layer_count, slots, CFG.hidden_dim)))
    victim = records[-1].sample_id
    entry = store.get(victim)
    store.put(victim, entry[:, 1:] if bad_entry == "shape" else entry * np.nan)
    with pytest.raises(LatentStoreError, match=f"sample {victim}:"):
        train_stage3(warmup, records, store, CFG, stage, LossWeights(), seed=0)
