import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcot import autodiff as ad
from latentcot import model, rl, sft, vocab
from latentcot.gradcheck import _inject_latent_run
from latentcot.layouts import build_prompt
from latentcot.model import (LatentStep, MaskMode, ModelConfig, SegmentRole,
                             SequenceLayout, TextStep, Trajectory,
                             build_attention_mask, copy_params, decode_group, forward,
                             forward_group, image_segment, init_params, latent_segment,
                             params_allclose, text_segment, zero_params)
from latentcot.rl import (Algo, RlConfig, Rollout, RolloutGroup,
                          compute_advantages, compute_reward,
                          filter_by_accuracy, latent_gradient_norm,
                          policy_objective, rollout_group, score_group,
                          text_ratio, train_rl, vlpo_latent_ratio)
from latentcot.sft import TrainingDiverged
from latentcot.tasks import CurationConfig, build_corpus, make_lookup_sample
from test_model import LONG, _stopping_params

CFG = ModelConfig(layer_count=2, hidden_dim=16, head_count=2, max_positions=96)

GRID = [
    ["a", "b", "e", "f"],
    ["c", "d", "g", "h"],
    ["e", "f", "a", "b"],
    ["g", "h", "c", "d"],
]


def lookup_sample():
    return make_lookup_sample(GRID, (0, 0, 1, 1), (0, 1))


def text_traj(tokens, logps=None, prompt_len=10):
    steps = [TextStep(t, 0.0 if logps is None else logps[i])
             for i, t in enumerate(tokens)]
    return Trajectory(steps, prompt_len=prompt_len)


def boxed_tokens(content):
    return vocab.encode(["answer", "is", vocab.BOXED] + content + [vocab.BOX_CLOSE, vocab.EOS])


# ---------------------------------------------------------------------------
# config and rewards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("group_size", 1), ("clip_eps", np.nan), ("sigma", np.nan), ("temperature", 0.0),
    ("temperature", -0.5), ("temperature", np.nan),
    ("max_response_length", 0), ("accuracy_threshold", np.nan), ("learning_rate", 0.0),
    ("learning_rate", np.nan), ("k_train_rl", -3), ("format_bonus", np.nan),
])
def test_config_rejects_out_of_range_and_nan_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        RlConfig(**{field: value})


def test_config_validation():
    with pytest.raises(ValueError):
        RlConfig(group_size=1)
    with pytest.raises(ValueError):
        RlConfig(clip_eps=0.0)
    with pytest.raises(ValueError):
        RlConfig(sigma=0.0)
    with pytest.raises(ValueError):
        RlConfig(accuracy_threshold=0.0)
    cfg = RlConfig()
    assert cfg.group_size == 8 and cfg.temperature == 0.5
    assert cfg.sigma == 10.0 and cfg.accuracy_threshold == 0.6
    assert cfg.max_response_length == 4096 and cfg.learning_rate == 1e-6
    assert cfg.k_train_rl == 10


def test_reward_correct_boxed():
    gold = vocab.encode(["b"])
    traj = text_traj(boxed_tokens(["b"]))
    assert compute_reward(traj, gold) == (1.1, True)


def test_reward_wrong_boxed():
    gold = vocab.encode(["b"])
    traj = text_traj(boxed_tokens(["c"]))
    assert compute_reward(traj, gold) == (0.1, False)


def test_reward_no_boxed_span():
    gold = vocab.encode(["b"])
    traj = text_traj(vocab.encode(["answer", "is", "b", vocab.EOS]))
    assert compute_reward(traj, gold) == (0.0, False)


def test_reward_judges_last_boxed_span():
    gold = vocab.encode(["3"])
    tokens = vocab.encode([vocab.BOXED, "7", vocab.BOX_CLOSE,
                           vocab.BOXED, "3", vocab.BOX_CLOSE])
    assert compute_reward(text_traj(tokens), gold) == (1.1, True)


def test_latent_steps_not_rewarded():
    gold = vocab.encode(["b"])
    steps = [LatentStep(np.zeros(4))] + text_traj(boxed_tokens(["b"])).steps
    a = compute_reward(Trajectory(steps, prompt_len=5), gold)
    b = compute_reward(text_traj(boxed_tokens(["b"])), gold)
    assert a == b


# ---------------------------------------------------------------------------
# advantages and filtering
# ---------------------------------------------------------------------------

def group_with_rewards(rewards, correct=None):
    group = RolloutGroup()
    for i, r in enumerate(rewards):
        roll = Rollout(layout=None, trajectory=text_traj([0]))
        roll.reward = float(r)
        roll.correct = bool(correct[i]) if correct is not None else r >= 1.0
        group.rollouts.append(roll)
    return group


def test_advantages_one_in_four():
    group = compute_advantages(group_with_rewards([1, 0, 0, 0]))
    advs = [r.advantage for r in group.rollouts]
    assert advs[0] == pytest.approx(1.7321, abs=1e-4)
    for a in advs[1:]:
        assert a == pytest.approx(-0.5774, abs=1e-4)


def test_advantages_pair():
    group = compute_advantages(group_with_rewards([1, 0]))
    assert [r.advantage for r in group.rollouts] == [pytest.approx(1.0), pytest.approx(-1.0)]


def test_equal_rewards_exclude_group():
    group = compute_advantages(group_with_rewards([0.5, 0.5, 0.5]))
    assert group.excluded


def test_retained_advantages_normalized():
    group = compute_advantages(group_with_rewards([1.1, 0.1, 0.1, 1.1, 0.1]))
    advs = np.array([r.advantage for r in group.rollouts])
    assert abs(advs.mean()) < 1e-10
    assert abs(advs.std() - 1.0) < 1e-10


def test_filter_by_accuracy_rules():
    zero = compute_advantages(group_with_rewards([0.1] * 8, correct=[False] * 8))
    high = compute_advantages(group_with_rewards([1.1] * 7 + [0.1],
                                                 correct=[True] * 7 + [False]))
    mid = compute_advantages(group_with_rewards([1.1] * 3 + [0.1] * 5,
                                                correct=[True] * 3 + [False] * 5))
    exact = compute_advantages(group_with_rewards([1.1] * 3 + [0.1] * 2,
                                                  correct=[True] * 3 + [False] * 2))
    retained = filter_by_accuracy([zero, high, mid, exact], 0.6)
    assert retained == [mid]  # 0/8 and 7/8 excluded, 3/5 == 0.6 excluded too


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------

def test_text_ratio_identity_and_gap():
    lp = ad.constant(np.array(-1.25))
    assert text_ratio(lp, -1.25).item() == pytest.approx(1.0, abs=1e-15)
    assert text_ratio(ad.constant(np.array(-0.75)), -1.25).item() == pytest.approx(
        np.exp(0.5), abs=1e-12)


def test_vlpo_ratio_identity():
    h = np.arange(8.0)
    assert vlpo_latent_ratio(h, ad.constant(h), 10.0).item() == 1.0


def test_vlpo_ratio_paper_case():
    h_old = np.zeros(8)
    h_theta = np.zeros(8)
    h_theta[0] = np.sqrt(200.0)
    r = vlpo_latent_ratio(h_old, ad.constant(h_theta), 10.0)
    assert r.item() == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_vlpo_ratio_bounded():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = vlpo_latent_ratio(rng.normal(size=6), ad.constant(rng.normal(size=6)), 2.0)
        assert 0.0 < r.item() <= 1.0


def test_vlpo_ratio_gradient_only_reaches_h_theta():
    h_old = ad.parameter("h_old", np.ones(4))
    h_theta = ad.parameter("h_theta", np.zeros(4))
    r = vlpo_latent_ratio(h_old, h_theta, 1.0)
    grads = ad.backward(r, {"h_old": h_old, "h_theta": h_theta})
    assert np.all(grads["h_old"] == 0.0)
    assert np.any(grads["h_theta"] != 0.0)


def test_vlpo_ratio_dimension_mismatch():
    with pytest.raises(ad.ShapeError):
        vlpo_latent_ratio(np.zeros(4), ad.constant(np.zeros(5)), 1.0)


def test_normalization_constant_cancels():
    """Building the ratio from two log-densities sharing the additive constant
    gives the same closed form for any constant."""
    dist_sq = 72.0
    sigma = 10.0

    def ratio_with_const(c):
        log_num = -dist_sq / (2 * sigma ** 2) - c
        log_den = -0.0 / (2 * sigma ** 2) - c
        return np.exp(log_num - log_den)

    closed = np.exp(-dist_sq / (2 * sigma ** 2))
    assert ratio_with_const(3.7) == pytest.approx(closed, abs=1e-15)
    assert ratio_with_const(7.4) == pytest.approx(closed, abs=1e-15)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def rolled_group(params, sample, config, n=2, current_correct=(True, False)):
    rng = np.random.default_rng(3)
    group = rollout_group(sample, params, config, CFG, rng)
    return group


def test_zero_advantage_gives_zero_objective():
    params = init_params(CFG, np.random.default_rng(1))
    config = RlConfig(group_size=2, k_train_rl=2, temperature=0.7,
                      max_response_length=24)
    group = rolled_group(params, lookup_sample(), config)
    for roll in group.rollouts:
        roll.advantage = 0.0
    loss, stats = policy_objective(group, params, config, Algo.VLPO, CFG)
    assert loss.item() == pytest.approx(0.0, abs=1e-15)


def text_only_group(seed=6):
    """Synthetic group of two text-only trajectories with recorded old logps."""
    from latentcot.model import SegmentRole, SequenceLayout, text_segment
    prompt = build_prompt(lookup_sample())
    group = RolloutGroup()
    rng = np.random.default_rng(seed)
    for reward, toks in ((1.1, boxed_tokens(["b"])), (0.1, boxed_tokens(["c"]))):
        segs = list(prompt.segments) + [text_segment(SegmentRole.PLAIN_TEXT, toks)]
        roll = Rollout(SequenceLayout(segs),
                       Trajectory([TextStep(t, float(rng.normal(-2.0, 0.1))) for t in toks],
                                  prompt_len=prompt.length))
        roll.reward, roll.correct = reward, reward > 1.0
        group.rollouts.append(roll)
    return compute_advantages(group)


def test_text_only_grpo_equals_vlpo():
    params = init_params(CFG, np.random.default_rng(2))
    config = RlConfig(group_size=2, k_train_rl=2, temperature=0.8,
                      max_response_length=16)
    group = text_only_group()
    loss_g, _ = policy_objective(group, params, config, Algo.GRPO, CFG)
    loss_v, stats_v = policy_objective(group, params, config, Algo.VLPO, CFG)
    assert loss_g.item() == loss_v.item()
    g_g = ad.backward(loss_g, params)
    g_v = ad.backward(loss_v, params)
    for name in params:
        assert np.max(np.abs(g_g[name] - g_v[name])) < 1e-12
    assert stats_v["latent_part"] is None


def test_current_equals_old_gives_mean_advantage():
    params = init_params(CFG, np.random.default_rng(7))
    config = RlConfig(group_size=2, k_train_rl=2, temperature=0.6,
                      max_response_length=20)
    rng = np.random.default_rng(8)
    group = rollout_group(lookup_sample(), params, config, CFG, rng)
    group.rollouts[0].reward, group.rollouts[0].correct = 1.1, True
    group.rollouts[1].reward, group.rollouts[1].correct = 0.1, False
    group = compute_advantages(group)
    loss, stats = policy_objective(group, params, config, Algo.VLPO, CFG)
    # ratios are 1 up to teacher-forcing round-off, so the objective collapses
    # to the mean advantage, which is zero by normalization
    assert loss.item() == pytest.approx(0.0, abs=1e-9)
    assert stats["text_ratio_mean"] == pytest.approx(1.0, abs=1e-9)
    has_latents = any(isinstance(s, LatentStep)
                      for r in group.rollouts for s in r.trajectory.steps)
    if has_latents:
        assert stats["latent_ratio_mean"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("algo", [Algo.GRPO, Algo.VLPO])
def test_on_policy_ratios_are_exactly_one(algo):
    """Groups decoded and scored under the same params: decoding and scoring
    give each position the same bits and take a text log-probability by the
    same formula, so every text and latent ratio is exactly 1.0 and the
    latent part of the objective has a gradient of exactly 0.0."""
    mconfig = ModelConfig()
    params = _stopping_params(mconfig, 5, 0.5, 0.0, 0.4)
    config = RlConfig(group_size=4, k_train_rl=3, temperature=0.7, max_response_length=40)
    rng = np.random.default_rng(6)
    text_steps, latent_steps = 0, 0
    for rec in rl_records(4):
        group = rollout_group(rec.sample, params, config, mconfig, rng)
        for i, roll in enumerate(group.rollouts):
            roll.reward, roll.correct = (1.1, True) if i == 0 else (0.1, False)
        compute_advantages(group)
        scored = score_group(params, group, config, mconfig)
        text = text_ratio(scored.new_logp, scored.old_logp).data
        latent = vlpo_latent_ratio(scored.h_old, scored.h_theta, config.sigma).data
        assert (text == 1.0).all() and (latent == 1.0).all()
        text_steps, latent_steps = text_steps + text.size, latent_steps + latent.size
        _, stats = policy_objective(group, params, config, algo, mconfig)
        assert stats["text_ratio_mean"] == 1.0
        assert stats["latent_ratio_mean"] == (1.0 if algo is Algo.VLPO else 0.0)
        assert (stats["latent_part"] is None) == (algo is Algo.GRPO)
        assert latent_gradient_norm(stats["latent_part"], params) == 0.0
    assert text_steps >= 100 and latent_steps >= 20


def test_clipping_kills_gradient_when_ratio_far():
    # Â > 0 and ratio > 1 + eps: the clipped branch is a constant, min picks it
    p = ad.parameter("p", np.array(0.5))
    ratio = ad.exp(p)  # e^0.5 ~ 1.65 > 1.2
    adv = 2.0
    term = ad.minimum2(ad.scale(ratio, adv),
                       ad.scale(ad.clip(ratio, 0.8, 1.2), adv))
    grads = ad.backward(term, {"p": p})
    assert term.item() == pytest.approx(1.2 * adv, abs=1e-12)
    assert grads["p"] == 0.0
    # symmetric case: Â < 0 and ratio < 1 - eps
    q = ad.parameter("q", np.array(-0.5))
    ratio_q = ad.exp(q)  # ~0.61 < 0.8
    term_q = ad.minimum2(ad.scale(ratio_q, -1.0),
                         ad.scale(ad.clip(ratio_q, 0.8, 1.2), -1.0))
    grads_q = ad.backward(term_q, {"q": q})
    assert term_q.item() == pytest.approx(-0.8, abs=1e-12)
    assert grads_q["q"] == 0.0


def test_positive_advantage_pulls_latents_closer():
    rng = np.random.default_rng(9)
    params = init_params(CFG, rng)
    other = init_params(CFG, np.random.default_rng(10))
    config = RlConfig(group_size=2, k_train_rl=3, temperature=0.5,
                      max_response_length=24)
    group = rollout_group(lookup_sample(), other, config, CFG, np.random.default_rng(11))
    # a fixed latent run, so the test never waits on sampling one
    _inject_latent_run(group.rollouts[0], config.k_train_rl, CFG, np.random.default_rng(11))
    roll = group.rollouts[0]
    roll.advantage = 1.0

    def distance(ps):
        scored = score_group(ps, RolloutGroup([roll]), config, CFG)
        return sum(float(ad.sq_dist(ad.constant(s.vector), ad.constant(h.data)).data)
                   for s, h in _latent_pairs(roll, scored)), scored

    def _latent_pairs(roll, scored):
        steps = [s for s in roll.trajectory.steps if isinstance(s, LatentStep)]
        assert len(steps) == len(scored.latent_rollout)
        return [(step, ad.get_row(scored.h_theta, i)) for i, step in enumerate(steps)]

    d_before, scored = distance(params)
    # ascend the unclipped term sum
    ratio = vlpo_latent_ratio(scored.h_old, scored.h_theta, config.sigma)
    term = ad.sum_all(ad.scale(ratio, roll.advantage))
    grads = ad.backward(term, params)
    lr = 1e-2
    for name, tensor in params.items():
        tensor.data += lr * grads[name]
    d_after, _ = distance(params)
    assert d_after < d_before


def test_grpo_latent_gradients_zero_vlpo_nonzero():
    params = init_params(CFG, np.random.default_rng(12))
    current = init_params(CFG, np.random.default_rng(13))
    config = RlConfig(group_size=2, k_train_rl=2, temperature=0.5,
                      max_response_length=24)
    rng = np.random.default_rng(14)
    group = rollout_group(lookup_sample(), params, config, CFG, rng)
    _inject_latent_run(group.rollouts[0], config.k_train_rl, CFG, rng)
    group.rollouts[0].reward, group.rollouts[0].correct = 1.1, True
    group.rollouts[1].reward, group.rollouts[1].correct = 0.1, False
    group = compute_advantages(group)
    _, stats_g = policy_objective(group, current, config, Algo.GRPO, CFG)
    assert stats_g["latent_part"] is None
    assert latent_gradient_norm(stats_g["latent_part"], current) == 0.0
    _, stats_v = policy_objective(group, current, config, Algo.VLPO, CFG)
    assert latent_gradient_norm(stats_v["latent_part"], current) > 0.0


# ---------------------------------------------------------------------------
# rollouts and the training loop
# ---------------------------------------------------------------------------

def _latent_start_params(margin=400.0):
    """Zero weights whose head puts LATENT_START `margin` logits above every
    other token. At 400 and temperature 0.5 every other probability
    underflows to 0.0, so each sampled text step opens a latent run and all
    rollouts of a group are the same; at 2 other tokens are sampled too."""
    params = zero_params(CFG)
    params["lnf_b"].data[:] = 1.0
    w = np.zeros((CFG.hidden_dim, CFG.vocab_size))
    w[:, vocab.TOKEN_TO_ID[vocab.LATENT_START]] = margin / CFG.hidden_dim
    params["w_out"].data[:] = w
    return params


def test_forced_steps_carry_no_ratio_term():
    params = _latent_start_params()
    config = RlConfig(group_size=2, k_train_rl=3, temperature=0.5,
                      max_response_length=10)
    group = rollout_group(lookup_sample(), params, config, CFG, np.random.default_rng(0))
    roll = group.rollouts[0]
    scored = _per_step(score_group(params, group, config, CFG), roll, 0, config)
    kinds = [s.kind for s in scored]
    steps = roll.trajectory.steps
    assert len(kinds) == len(steps)
    for s, step in zip(scored, steps):
        if getattr(step, "forced", False):
            assert s.kind == "forced" and s.ratio is None
        elif isinstance(step, LatentStep):
            assert s.kind == "latent"


def test_rollout_latent_runs_have_config_length():
    params = _latent_start_params()
    config = RlConfig(group_size=2, k_train_rl=4, temperature=0.5,
                      max_response_length=14)
    group = rollout_group(lookup_sample(), params, config, CFG, np.random.default_rng(1))
    for roll in group.rollouts:
        runs = roll.trajectory.latent_run_lengths()
        assert runs and all(r == 4 for r in runs[:-1])


def rl_records(n=3):
    cfg = CurationConfig(sample_count=40, seed=77)
    records, _ = build_corpus(cfg)
    return records[:n]


def test_train_rl_grpo_logs_zero_latent_norms():
    records = rl_records()
    params = init_params(CFG, np.random.default_rng(17))
    config = RlConfig(group_size=2, k_train_rl=2, temperature=0.9,
                      max_response_length=20, learning_rate=1e-4)
    result = train_rl(params, records, config, Algo.GRPO, CFG, seed=3)
    assert len(result.log) == len(records)
    assert all(row["latent_grad_norm"] == 0.0 for row in result.log)


def test_each_step_graph_is_freed_before_the_next_rollout(monkeypatch):
    """Neither the loss nor the latent part of one step's objective is alive
    when the next step scores its group."""
    config = RlConfig(group_size=2, k_train_rl=3, temperature=0.5,
                      max_response_length=10, learning_rate=1e-4)
    kept = []

    def objective(*args):
        assert all(ref() is None for ref in kept)
        loss, stats = policy_objective(*args)
        kept.extend(weakref.ref(t.data) for t in (loss, stats["latent_part"]))
        return loss, stats

    monkeypatch.setattr(rl, "filter_by_accuracy", lambda groups, threshold: groups)
    monkeypatch.setattr(rl, "policy_objective", objective)
    train_rl(_latent_start_params(), rl_records(3), config, Algo.VLPO, CFG, seed=5)
    assert len(kept) == 6


def test_a_non_finite_loss_stops_training(monkeypatch):
    config = RlConfig(group_size=2, k_train_rl=3, temperature=0.5,
                      max_response_length=10, learning_rate=1e-4)

    def objective(*args):
        loss, stats = policy_objective(*args)
        return ad.scale(loss, np.nan), stats

    monkeypatch.setattr(rl, "filter_by_accuracy", lambda groups, threshold: groups)
    monkeypatch.setattr(rl, "policy_objective", objective)
    with pytest.raises(TrainingDiverged, match=r"^rl: loss became non-finite at step \d+$"):
        train_rl(_latent_start_params(), rl_records(3), config, Algo.VLPO, CFG, seed=5)


def _counting_backward(monkeypatch):
    calls = []
    backward = ad.backward

    def counted(*args, **kwargs):
        calls.append(1)
        return backward(*args, **kwargs)

    monkeypatch.setattr(ad, "backward", counted)
    return calls, backward


def _norm(grads):
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def test_on_policy_latent_norm_skips_the_second_backward(monkeypatch):
    """Each VLPO step scores a group with latent runs under the params that
    decoded it: the logged latent gradient norm is 0.0, equals the norm
    that the full backward of the latent part gives, and the step runs
    `ad.backward` once."""
    config = RlConfig(group_size=2, k_train_rl=3, temperature=0.5,
                      max_response_length=10, learning_rate=1e-4)
    calls, backward = _counting_backward(monkeypatch)
    full = []

    def objective(*args):
        loss, stats = policy_objective(*args)
        assert stats["latents"]
        full.append(_norm(backward(stats["latent_part"], args[1])))
        return loss, stats

    monkeypatch.setattr(rl, "filter_by_accuracy", lambda groups, threshold: groups)
    monkeypatch.setattr(rl, "policy_objective", objective)
    result = train_rl(_latent_start_params(), rl_records(3), config, Algo.VLPO, CFG, seed=5)
    assert [row["latent_grad_norm"] for row in result.log] == full == [0.0] * 3
    assert len(calls) == 3


def _off_policy_latent_norm(monkeypatch, params, seed):
    """The logged latent gradient norm of a two-rollout group decoded from
    `params` with generator `seed` and scored under params with `lnf_b`
    moved, advantages +1 and -1, and the number of backwards it ran."""
    current = copy_params(params)
    current["lnf_b"].data += 0.01 * np.random.default_rng(8).normal(size=CFG.hidden_dim)
    config = RlConfig(group_size=2, k_train_rl=3, temperature=0.5, max_response_length=10)
    group = rollout_group(lookup_sample(), params, config, CFG, np.random.default_rng(seed))
    group.rollouts[0].reward, group.rollouts[0].correct = 1.1, True
    group = compute_advantages(group)
    assert [roll.advantage for roll in group.rollouts] == [1.0, -1.0]
    assert all(any(isinstance(s, LatentStep) for s in roll.trajectory.steps)
               for roll in group.rollouts)
    _, stats = policy_objective(group, current, config, Algo.VLPO, CFG)
    calls, _ = _counting_backward(monkeypatch)
    return group, latent_gradient_norm(stats["latent_part"], current, stats["latents"]), calls


def test_off_policy_latent_norm_runs_the_backward(monkeypatch):
    """A group scored under params other than the ones that decoded it
    moves its latent vectors, so the backward runs; its rollouts differ, so
    their latent terms do not cancel and the norm is positive."""
    group, norm, calls = _off_policy_latent_norm(monkeypatch, _latent_start_params(2.0), 11)
    a, b = (roll.layout.token_at.tolist() for roll in group.rollouts)
    assert a != b
    assert norm > 0.0
    assert len(calls) == 1


def test_identical_rollouts_with_opposite_advantages_give_a_zero_latent_norm(monkeypatch):
    """Two identical rollouts with advantages +1 and -1, scored off-policy:
    the backward runs, and their latent terms, which the group pass sums
    over one shared set of rows, cancel exactly."""
    group, norm, calls = _off_policy_latent_norm(monkeypatch, _latent_start_params(), 9)
    a, b = group.rollouts
    assert np.array_equal(a.layout.token_at, b.layout.token_at)
    assert all(np.array_equal(s.vector, t.vector) for s, t in zip(a.trajectory.steps,
                                                                  b.trajectory.steps)
               if isinstance(s, LatentStep))
    assert norm == 0.0
    assert len(calls) == 1


def _forced_and_latent_group():
    """A group whose rollouts hold only forced markers around a latent run,
    with one correct rollout, so it is retained but GRPO has no term."""
    prompt = build_prompt(lookup_sample())
    lat_start = vocab.TOKEN_TO_ID[vocab.LATENT_START]
    lat_end = vocab.TOKEN_TO_ID[vocab.LATENT_END]
    rng = np.random.default_rng(19)
    group = RolloutGroup()
    for reward in (1.1, 0.1):
        vecs = list(rng.normal(size=(2, CFG.hidden_dim)))
        layout = SequenceLayout(list(prompt.segments) + [
            text_segment(SegmentRole.PLAIN_TEXT, [lat_start]), latent_segment(2, vecs),
            text_segment(SegmentRole.PLAIN_TEXT, [lat_end])])
        steps = [TextStep(lat_start, 0.0, forced=True), *map(LatentStep, vecs),
                 TextStep(lat_end, 0.0, forced=True)]
        roll = Rollout(layout, Trajectory(steps, prompt.length))
        roll.reward, roll.correct = reward, reward > 1.0
        group.rollouts.append(roll)
    return compute_advantages(group)


def test_a_retained_group_with_no_contributing_step_takes_no_step(monkeypatch):
    """GRPO over a retained group of forced and latent steps only: the
    objective returns no loss, and train_rl logs the group's row with the
    skipped-group ratios and runs no AdamW step."""
    params = init_params(CFG, np.random.default_rng(22))
    config = RlConfig(group_size=2, k_train_rl=2, learning_rate=1e-2)
    group = _forced_and_latent_group()
    assert filter_by_accuracy([group], config.accuracy_threshold) == [group]
    loss, stats = policy_objective(group, params, config, Algo.GRPO, CFG)
    assert loss is None
    assert stats == {"text_ratio_mean": 0.0, "latent_ratio_mean": 0.0}
    assert policy_objective(group, params, config, Algo.VLPO, CFG)[0] is not None

    steps = []
    monkeypatch.setattr(rl, "rollout_group", lambda *args: _forced_and_latent_group())
    monkeypatch.setattr(sft.AdamW, "step", lambda self, grads: steps.append(grads))
    records = rl_records(2)
    result = train_rl(params, records, config, Algo.GRPO, CFG, seed=3)
    assert steps == []
    assert params_allclose(result.params, params)
    assert sorted(row["sample_id"] for row in result.log) == [rec.sample_id for rec in records]
    assert result.log == [
        {"step": i, "sample_id": row["sample_id"], "mean_reward": group.mean_reward(),
         "accuracy": 0.5, "retained": 1, "text_ratio_mean": 1.0, "latent_ratio_mean": 1.0,
         "latent_grad_norm": 0.0} for i, row in enumerate(result.log)]


def test_train_rl_deterministic():
    records = rl_records(2)
    params = init_params(CFG, np.random.default_rng(18))
    config = RlConfig(group_size=2, k_train_rl=2, temperature=0.9,
                      max_response_length=16, learning_rate=1e-4)
    a = train_rl(params, records, config, Algo.VLPO, CFG, seed=4)
    b = train_rl(params, records, config, Algo.VLPO, CFG, seed=4)
    assert params_allclose(a.params, b.params)
    assert a.log == b.log


# ---------------------------------------------------------------------------
# group scoring
# ---------------------------------------------------------------------------

def _per_step(scored, roll, g, config):
    """Rollout g's entries in a GroupScore, one (kind, ratio) per trajectory
    step: its text entries must be its sampled text steps in order (their
    recorded log-probabilities say so), its latent entries its latent steps;
    forced steps get no entry and no ratio."""
    text = iter(np.flatnonzero(scored.text_rollout == g))
    latent = iter(np.flatnonzero(scored.latent_rollout == g))
    ratios = text_ratio(scored.new_logp, scored.old_logp).data
    lat_ratios = vlpo_latent_ratio(scored.h_old, scored.h_theta, config.sigma).data
    out = []
    for step in roll.trajectory.steps:
        if isinstance(step, LatentStep):
            i = next(latent)
            assert np.array_equal(scored.h_old[i], step.vector)
            out.append(SimpleNamespace(kind="latent", ratio=lat_ratios[i]))
        elif step.forced:
            out.append(SimpleNamespace(kind="forced", ratio=None))
        else:
            i = next(text)
            assert scored.old_logp[i] == step.logp
            out.append(SimpleNamespace(kind="text", ratio=ratios[i]))
    assert next(text, None) is None and next(latent, None) is None
    return out


def _reference_objective(group, current, config, algo, mconfig):
    """The per-step objective `policy_objective` vectorizes: one full forward
    per rollout and a chain of scalar nodes per step (the scorer that
    `score_group` replaced), as an oracle for the stacked pass."""
    eps = config.clip_eps

    def clipped(ratio, adv):
        return ad.minimum2(ad.scale(ratio, adv), ad.scale(ad.clip(ratio, 1 - eps, 1 + eps), adv))

    def total(nodes):
        out = nodes[0]
        for n in nodes[1:]:
            out = ad.add(out, n)
        return out

    traj_objs, latent_terms = [], []
    text_ratios, latent_ratios = [], []
    for roll in group.rollouts:
        mask = build_attention_mask(roll.layout, MaskMode.CAUSAL)
        logits, stack = forward(roll.layout, mask, current, mconfig)
        terms, lat_local = [], []
        for pos, step in enumerate(roll.trajectory.steps, roll.trajectory.prompt_len):
            if isinstance(step, LatentStep):
                if algo is Algo.GRPO:
                    continue
                ratio = vlpo_latent_ratio(step.vector, ad.get_row(stack[-1], pos - 1),
                                          config.sigma)
                latent_ratios.append(ratio.item())
                lat_local.append(clipped(ratio, roll.advantage))
                terms.append(lat_local[-1])
            elif not step.forced:
                row = ad.scale(ad.get_row(logits, pos - 1), 1.0 / config.temperature)
                new_logp = ad.log_prob_row(row, step.token)
                ratio = ad.exp(ad.sub(new_logp, step.logp))
                text_ratios.append(ratio.item())
                terms.append(clipped(ratio, roll.advantage))
        if not terms:
            continue
        inv = 1.0 / len(terms)
        traj_objs.append(ad.scale(total(terms), inv))
        if lat_local:
            latent_terms.append(ad.scale(total(lat_local), inv / len(group.rollouts)))
    loss = ad.scale(total(traj_objs), -1.0 / len(group.rollouts))
    stats = {"text_ratio_mean": float(np.mean(text_ratios)),
             "latent_ratio_mean": float(np.mean(latent_ratios)) if latent_ratios else 0.0}
    latent_part = ad.scale(total(latent_terms), -1.0) if latent_terms else None
    return loss, {**stats, "latent_part": latent_part}


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _grads_close(a, b, rel=1e-12):
    return all(np.abs(a[n] - b[n]).max() <= rel * max(np.abs(a[n]).max(), np.abs(b[n]).max())
               for n in a)


def _mixed_groups(config, old, seeds):
    """Decoded groups from `old` with a latent run forced into rollout 0 and
    the rewards set so each group is retained; the last group also holds a
    rollout with no steps, which counts in its size but adds no term."""
    groups = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        group = rollout_group(lookup_sample(), old, config, CFG, rng)
        _inject_latent_run(group.rollouts[0], config.k_train_rl, CFG, rng)
        for i, roll in enumerate(group.rollouts):
            roll.reward, roll.correct = (1.1, True) if i % 2 == 0 else (0.1, False)
        groups.append(group)
    prompt = build_prompt(lookup_sample())
    empty = Rollout(SequenceLayout(list(prompt.segments)), Trajectory([], prompt.length))
    groups[-1].rollouts.append(empty)
    return [compute_advantages(g) for g in groups]


@pytest.mark.parametrize("algo", [Algo.GRPO, Algo.VLPO])
def test_policy_objective_matches_the_per_step_reference(algo):
    """Loss, stats, and the gradients of the loss and of the latent part
    agree with the per-step objective to 1e-12 relative, in each of two
    groups of uneven rollouts, off-policy (so ratios clip)."""
    old = init_params(CFG, np.random.default_rng(20))
    current = init_params(CFG, np.random.default_rng(21))
    config = RlConfig(group_size=3, k_train_rl=2, temperature=0.7, max_response_length=24)
    for group in _mixed_groups(config, old, (23, 24)):
        loss, stats = policy_objective(group, current, config, algo, CFG)
        ref_loss, ref_stats = _reference_objective(group, current, config, algo, CFG)
        assert _close(loss.item(), ref_loss.item())
        for key in ("text_ratio_mean", "latent_ratio_mean"):
            assert _close(stats[key], ref_stats[key])
        assert stats["latent_ratio_mean"] != 1.0 or algo is Algo.GRPO
        assert _grads_close(ad.backward(loss, current), ad.backward(ref_loss, current))
        if algo is Algo.GRPO:
            assert stats["latent_part"] is None and ref_stats["latent_part"] is None
        else:
            assert _grads_close(ad.backward(stats["latent_part"], current),
                                ad.backward(ref_stats["latent_part"], current))


@pytest.mark.parametrize("algo", [Algo.GRPO, Algo.VLPO])
def test_policy_objective_matches_the_reference_on_shared_rows(algo):
    """Groups that hold a repeated rollout and a prefix of a rollout, so
    the group pass shares their rows: loss, stats and both gradients agree
    with the per-step objective to 1e-12 relative."""
    old = init_params(CFG, np.random.default_rng(20))
    current = init_params(CFG, np.random.default_rng(21))
    config = RlConfig(group_size=3, k_train_rl=2, temperature=0.7, max_response_length=24)
    groups = _mixed_groups(config, old, (25, 26))
    for group in groups:
        roll, P = group.rollouts[0], group.rollouts[0].trajectory.prompt_len
        cut = len(roll.trajectory.steps) - 2
        group.rollouts += [
            Rollout(roll.layout, roll.trajectory),
            Rollout(roll.layout.prefix(P + cut), Trajectory(roll.trajectory.steps[:cut], P))]
        for i, r in enumerate(group.rollouts):
            r.reward = 1.1 if i % 2 == 0 else 0.1
        compute_advantages(group)
    ran, run_blocks = [], model._blocks

    def blocks(x0, *args):
        ran.append(len(ad.value(x0)))
        return run_blocks(x0, *args)

    for group in groups:
        ran.clear()
        with mock.patch.object(model, "_blocks", blocks):
            loss, stats = policy_objective(group, current, config, algo, CFG)
        assert sum(ran) < len(group.rollouts) * max(r.layout.length for r in group.rollouts)
        ref_loss, ref_stats = _reference_objective(group, current, config, algo, CFG)
        assert _close(loss.item(), ref_loss.item())
        for key in ("text_ratio_mean", "latent_ratio_mean"):
            assert _close(stats[key], ref_stats[key])
        assert _grads_close(ad.backward(loss, current), ad.backward(ref_loss, current))
        if algo is Algo.VLPO:
            assert _grads_close(ad.backward(stats["latent_part"], current),
                                ad.backward(ref_stats["latent_part"], current))


def _check_group_rows(layouts, trajs, params, config, temperature):
    """score_group's log-probabilities and regenerated latent rows equal
    those read from a lone full forward over each rollout, bit for bit; so
    do all of forward_group's logits and final rows, read through each
    rollout's `at` (a last-bit logits difference seldom reaches a
    log-probability)."""
    group = RolloutGroup([Rollout(l, t) for l, t in zip(layouts, trajs)])
    rl_config = RlConfig(temperature=temperature)
    scored = score_group(params, group, rl_config, config)
    pool_logits, pool_final, at = forward_group(layouts, params, config)
    logp, h_theta = [], []
    for g, (layout, traj) in enumerate(zip(layouts, trajs)):
        mask = build_attention_mask(layout, MaskMode.CAUSAL)
        logits, stack = forward(layout, mask, params, config)
        assert np.array_equal(pool_logits.data[at[g]], logits.data)
        assert np.array_equal(pool_final.data[at[g]], stack[-1].data)
        for pos, step in enumerate(traj.steps, traj.prompt_len):
            if isinstance(step, LatentStep):
                h_theta.append(stack[-1].data[pos - 1])
            elif not step.forced:
                row = ad.scale(ad.get_row(logits, pos - 1), 1.0 / temperature)
                logp.append(ad.log_prob_row(row, step.token).item())
    assert np.array_equal(scored.new_logp.data, np.array(logp))
    assert np.array_equal(scored.h_theta.data, np.array(h_theta).reshape(-1, config.hidden_dim))
    for g, roll in enumerate(group.rollouts):
        _per_step(scored, roll, g, rl_config)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_score_group_rows_match_lone_forward_passes(data):
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
    temperature = data.draw(st.sampled_from([0.5, 1.0]), label="temperature")
    weights = data.draw(st.integers(0, 3), label="weights")
    params = _stopping_params(config, weights, data.draw(st.sampled_from([0.05, 0.5]),
                                                         label="scale"),
                              data.draw(st.sampled_from([0.0, 0.02, 0.15]), label="eos"),
                              data.draw(st.sampled_from([0.0, 0.05, 0.4]), label="latent"))
    group = data.draw(st.integers(1, 5), label="group")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    decoded = decode_group(prompt, k, params, config, np.random.default_rng(seed).spawn(group),
                           temperature, data.draw(st.integers(1, 48), label="max_new"))
    _check_group_rows(*zip(*decoded), params, config, temperature)


def test_score_group_rows_match_lone_passes_at_reference_shape():
    """Eight rollouts at the reference shape that stop apart (EOS or the
    budget), with latent runs and forced end tokens."""
    config = ModelConfig()
    feats = np.random.default_rng(9).normal(size=(4, config.patch_features))
    prompt = SequenceLayout([text_segment(SegmentRole.QUESTION_TEXT, [1, 2, 3]),
                             image_segment(SegmentRole.QUESTION_IMAGE, feats)])
    params = _stopping_params(config, 0, 0.05, 0.02, 0.02)
    layouts, trajs = zip(*decode_group(prompt, 4, params, config,
                                       np.random.default_rng(3).spawn(8), 1.0, 40))
    assert len({t.truncated for t in trajs}) == 2 and len({len(t.steps) for t in trajs}) >= 4
    assert any(s.forced for t in trajs for s in t.steps if isinstance(s, TextStep))
    _check_group_rows(layouts, trajs, params, config, 1.0)
