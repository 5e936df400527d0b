"""Acceptance criteria 1-7, one test per criterion, each printing a pass line:

1. loss-level gradients match central finite differences;
2. the latent-only surrogate sends no gradient to parameters off the latent path;
3. attention masks equal a brute-force twin on random layouts;
4. decoding opens fixed-length latent runs, force-closes them, and feeds back
   each layer-L state bit for bit;
5. the latent-aware ratio has its closed forms, equals the text-only
   objective on text-only groups, and alone gives latent steps a gradient;
6. group-normalized advantages and the accuracy-window filter;
7. curated records pass both curation filters, corrupted samples never survive, and
   the corpus is byte-deterministic.

Each test builds its own small model and data; the file runs in seconds. The
paper-level trend claims (warm-up diagnostic gap, accuracy against k, latent
ratios under the two RL objectives) are not tested here.
"""

import time

import numpy as np
import pytest

from latentcot import autodiff as ad
from latentcot import vocab
from latentcot.cli import evaluate
from latentcot.gradcheck import run_gradcheck
from latentcot.layouts import build_prompt, build_student
from latentcot.model import (Checkpoint, LatentStep, MaskMode, ModelConfig,
                             SegmentRole, SequenceLayout, TextStep,
                             build_attention_mask, decode_with_latents,
                             fill_latents, forward, image_segment,
                             init_params, latent_segment, text_segment,
                             zero_params)
from latentcot.rl import (Algo, RlConfig,
                          RolloutGroup, Rollout, compute_advantages,
                          filter_by_accuracy, latent_gradient_norm,
                          policy_objective, rollout_group, train_rl,
                          vlpo_latent_ratio)
from latentcot.sft import (LossWeights, StageConfig, measure_obs_accuracy,
                           stage2_sample_losses, train_stage1, train_stage2,
                           train_stage3)
from latentcot.tasks import (CurationConfig, build_corpus, curate,
                             generate_raw, make_lookup_sample,
                             stage1_filter, stage2_filter, write_dataset)

from test_model import brute_force_mask, random_layout
from test_sft import _severed_path_fd

SMALL = ModelConfig(layer_count=2, hidden_dim=16, head_count=2, max_positions=96)

GRID = [
    ["a", "b", "e", "f"],
    ["c", "d", "g", "h"],
    ["e", "f", "a", "b"],
    ["g", "h", "c", "d"],
]


def _report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS  {detail}")


def tagged_lookup():
    return make_lookup_sample(GRID, (0, 0, 1, 1), (0, 1))


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    results = run_gradcheck(seed=0)
    elapsed = time.monotonic() - started
    names = {r.name for r in results}
    assert {"ntp", "align-obs", "align-latent", "stage2-total", "stage3-total",
            "grpo", "vlpo"} <= names
    for r in results:
        assert r.max_rel_error < 1e-4, (r.name, r.max_rel_error)
    assert elapsed < 120.0
    worst = max(r.max_rel_error for r in results)
    _report(1, f"7 losses vs central differences, worst rel err {worst:.2e}, "
               f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. latent-only backpropagation
# ---------------------------------------------------------------------------

def test_criterion_2_latent_only_backprop():
    params = init_params(SMALL, np.random.default_rng(6))
    sample = tagged_lookup()
    _, _, surrogate, _ = stage2_sample_losses(sample, params, params, SMALL, 2)
    grads = ad.backward(surrogate, params)
    # parameters that provably influence no latent slot: exact zeros
    assert np.all(grads["w_out"] == 0.0)
    post_latent_row = vocab.TOKEN_TO_ID["answer"]
    assert np.all(grads["tok_emb"][post_latent_row] == 0.0)
    # latent-influencing parameters match the severed-path oracle
    coords = {}
    rng = np.random.default_rng(9)
    for name in ("block0.wq", "block1.wv", "patch_proj"):
        coords[name] = rng.choice(params[name].data.size, size=6, replace=False)
    numeric = _severed_path_fd(sample, params, params, SMALL, 2, coords)
    err = ad.max_rel_error(grads, numeric, coords)
    assert err < 1e-4
    _report(2, f"non-latent params exactly 0; severed-path rel err {err:.2e}")


# ---------------------------------------------------------------------------
# 3. attention-flow correctness
# ---------------------------------------------------------------------------

def test_criterion_3_attention_flow():
    rng = np.random.default_rng(0)
    for i in range(100):
        layout = random_layout(rng, require_aux=i % 2 == 0)
        for mode in (MaskMode.CAUSAL, MaskMode.AUX_GATED):
            mask = build_attention_mask(layout, mode)
            assert np.array_equal(mask, brute_force_mask(layout, mode))

    params = init_params(SMALL, np.random.default_rng(1))
    forced = [np.random.default_rng(2).normal(size=SMALL.hidden_dim) for _ in range(3)]
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

    feats = np.random.default_rng(3).normal(size=(4, SMALL.patch_features))
    la = make(feats)
    lb = make(feats + 2.5)
    mask = build_attention_mask(la, MaskMode.AUX_GATED)
    logits_a, _ = forward(la, mask, params, SMALL)
    logits_b, _ = forward(lb, mask, params, SMALL)
    keep = np.ones(la.length, dtype=bool)
    for si in (2, 3):
        s0, s1 = la.segment_range(si)
        keep[s0:s1] = False
    assert np.array_equal(logits_a.data[keep], logits_b.data[keep])
    _report(3, "mask == brute force on 100 layouts; aux perturbation leaves "
               "non-aux, non-latent logits bit-identical")


# ---------------------------------------------------------------------------
# 4. decoding contract
# ---------------------------------------------------------------------------

def test_criterion_4_decoding_contract():
    params = zero_params(SMALL)
    params["lnf_b"].data[:] = 1.0
    w = np.zeros((SMALL.hidden_dim, SMALL.vocab_size))
    w[:, vocab.TOKEN_TO_ID[vocab.LATENT_START]] = 0.05
    params["w_out"].data[:] = w
    prompt = SequenceLayout([text_segment(SegmentRole.QUESTION_TEXT, [1, 2, 3])])
    lat_end = vocab.TOKEN_TO_ID[vocab.LATENT_END]
    for k in (0, 3, 8):
        layout, traj = decode_with_latents(prompt, k, params, SMALL,
                                           temperature=0.0, max_new=2 * (k + 2))
        runs = traj.latent_run_lengths()
        if k == 0:
            assert runs == []
        else:
            assert runs == [k, k]
        # latent-end is always forced, never sampled
        for step in traj.steps:
            if isinstance(step, TextStep) and step.token == lat_end:
                assert step.forced
        # bit-exact feedback: replay each prefix and compare the fed vector
        latents = [s.vector for s in traj.steps if isinstance(s, LatentStep)]
        positions = [p for _, _, p in layout.latent_slots]
        for vec, pos in zip(latents, positions):
            prefix = _prefix(layout, pos)
            with ad.no_grad():
                _, stack = forward(prefix, build_attention_mask(prefix, MaskMode.CAUSAL),
                                   params, SMALL)
            assert np.array_equal(stack[-1].data[-1], vec)
    _report(4, "K in {0,3,8}: exactly K latent steps per run, bit-exact feedback, "
               "forced latent-end")


def _prefix(layout, upto):
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


# ---------------------------------------------------------------------------
# 5. VLPO / GRPO relationship
# ---------------------------------------------------------------------------

def test_criterion_5_vlpo_grpo_relationship():
    # closed-form checks
    h = np.arange(8.0)
    assert vlpo_latent_ratio(h, ad.constant(h), 10.0).item() == 1.0
    delta = np.zeros(8)
    delta[0] = np.sqrt(200.0)
    got = vlpo_latent_ratio(np.zeros(8), ad.constant(delta), 10.0).item()
    assert abs(got - np.exp(-1.0)) < 1e-12

    # text-only batches: identical objectives and gradients
    from test_rl import text_only_group
    params = init_params(SMALL, np.random.default_rng(2))
    config = RlConfig(group_size=2, k_train_rl=2, temperature=0.8,
                      max_response_length=16)
    group = text_only_group()
    loss_g, _ = policy_objective(group, params, config, Algo.GRPO, SMALL)
    loss_v, _ = policy_objective(group, params, config, Algo.VLPO, SMALL)
    assert abs(loss_g.item() - loss_v.item()) < 1e-12
    gg = ad.backward(loss_g, params)
    gv = ad.backward(loss_v, params)
    for name in params:
        assert np.max(np.abs(gg[name] - gv[name])) < 1e-12

    # latent batches: zero latent gradient under GRPO, nonzero under VLPO
    old = init_params(SMALL, np.random.default_rng(3))
    current = init_params(SMALL, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    lat_group = None
    for attempt in range(10):
        g = rollout_group(tagged_lookup(), old,
                          RlConfig(group_size=2, k_train_rl=2, temperature=0.8,
                                   max_response_length=24), SMALL, rng)
        if any(isinstance(s, LatentStep) for r in g.rollouts for s in r.trajectory.steps):
            lat_group = g
            break
    assert lat_group is not None
    lat_group.rollouts[0].reward, lat_group.rollouts[0].correct = 1.1, True
    lat_group.rollouts[1].reward, lat_group.rollouts[1].correct = 0.1, False
    lat_group = compute_advantages(lat_group)
    cfg = RlConfig(group_size=2, k_train_rl=2, temperature=0.8, max_response_length=24)
    _, stats_g = policy_objective(lat_group, current, cfg, Algo.GRPO, SMALL)
    _, stats_v = policy_objective(lat_group, current, cfg, Algo.VLPO, SMALL)
    norm_g = latent_gradient_norm(stats_g["latent_part"], current)
    norm_v = latent_gradient_norm(stats_v["latent_part"], current)
    assert norm_g == 0.0 and norm_v > 0.0
    _report(5, f"text-only agreement < 1e-12; latent grad norm grpo={norm_g} "
               f"vlpo={norm_v:.2e}; ratio closed forms exact")


# ---------------------------------------------------------------------------
# 6. advantages and filtering
# ---------------------------------------------------------------------------

def _group(rewards, correct):
    g = RolloutGroup()
    for r, c in zip(rewards, correct):
        roll = Rollout(layout=None, trajectory=None)
        roll.reward, roll.correct = float(r), bool(c)
        g.rollouts.append(roll)
    return compute_advantages(g)


def test_criterion_6_advantages_and_filtering():
    g = _group([1, 0, 0, 0], [True, False, False, False])
    advs = [r.advantage for r in g.rollouts]
    assert abs(advs[0] - 1.7321) < 1e-4
    assert all(abs(a + 0.5774) < 1e-4 for a in advs[1:])

    zero = _group([0.1] * 8, [False] * 8)
    high = _group([1.1] * 5 + [0.1] * 3, [True] * 5 + [False] * 3)  # 5/8 >= 0.6? no: 0.625
    mid = _group([1.1] * 3 + [0.1] * 5, [True] * 3 + [False] * 5)
    boundary = _group([1.1] * 3 + [0.1] * 2, [True] * 3 + [False] * 2)  # exactly 0.6
    retained = filter_by_accuracy([zero, high, mid, boundary], 0.6)
    assert retained == [mid]
    for g in retained:
        a = np.array([r.advantage for r in g.rollouts])
        assert abs(a.mean()) < 1e-10 and abs(a.std() - 1.0) < 1e-10
    _report(6, "advantage values exact to 1e-4; filtering and normalization hold")


# ---------------------------------------------------------------------------
# 7. curation soundness
# ---------------------------------------------------------------------------

def test_criterion_7_curation_soundness(tmp_path):
    cfg = CurationConfig(sample_count=400, seed=11)
    raw = generate_raw(cfg)
    corrupted_count = sum(s.corrupted for s in raw)
    assert corrupted_count > 0
    records, stats = curate(raw)
    assert stats["curated"] > 0
    for rec in records:
        assert stage1_filter(rec.sample) and stage2_filter(rec.sample)
        assert not rec.sample.corrupted
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(build_corpus(cfg)[0], a)
    write_dataset(build_corpus(cfg)[0], b)
    assert a.read_bytes() == b.read_bytes()
    _report(7, f"{stats['curated']} records all weak-fail/strong-pass; "
               f"{corrupted_count} corrupted all excluded; byte-deterministic")
