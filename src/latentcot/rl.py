"""Group-based policy optimization over text and latent steps.

Rollouts mix discrete text steps (token + rollout log-probability) and
continuous latent steps (the fed-back vector). Each update step rolls out
one prompt's group, and the clipped-ratio objective scores that group
against its own group-normalized outcome advantages. Under the plain group
algorithm only text steps carry ratio terms; the latent-aware variant adds a
Gaussian probability ratio exp(-||h_old - h_theta||^2 / (2 sigma^2)) for
latent steps, with the rollout vector fixed and the current policy's
regenerated vector as the only live side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import vocab
from .layouts import build_prompt
from .model import (LatentStep, ModelConfig, SequenceLayout, TextStep,
                    Trajectory, copy_params, decode_group, forward_group)
from .model import forward  # noqa: F401  (perfbench's tracer test rebinds rl.forward)
from .sft import StageConfig, TrainResult, _train


@dataclass
class RlConfig:
    group_size: int = 8
    clip_eps: float = 0.2
    sigma: float = 10.0
    temperature: float = 0.5
    max_response_length: int = 4096
    accuracy_threshold: float = 0.6
    learning_rate: float = 1e-6
    k_train_rl: int = 10
    format_bonus: float = 0.1

    def __post_init__(self):
        # each rule is written so that NaN breaks it
        for ok, rule in ((self.group_size >= 2, "group_size must be >= 2"),
                         (0.0 < self.clip_eps < 1.0, "clip_eps must lie in (0, 1)"),
                         (self.sigma > 0, "sigma must be > 0"),
                         (self.temperature > 0, "temperature must be > 0"),
                         (self.max_response_length >= 1, "max_response_length must be >= 1"),
                         (0.0 < self.accuracy_threshold <= 1.0, "accuracy_threshold must lie in (0, 1]"),
                         (self.learning_rate > 0, "learning_rate must be > 0"),
                         (self.k_train_rl >= 0, "k_train_rl must be >= 0"),
                         (abs(self.format_bonus) < np.inf, "format_bonus must be finite")):
            if not ok:
                raise ValueError(rule)


@dataclass
class Rollout:
    layout: SequenceLayout
    trajectory: Trajectory
    reward: float = 0.0
    correct: bool = False
    advantage: float = 0.0


@dataclass
class RolloutGroup:
    rollouts: list = field(default_factory=list)
    excluded: bool = False

    @property
    def accuracy(self) -> float:
        return sum(r.correct for r in self.rollouts) / len(self.rollouts)

    def mean_reward(self) -> float:
        return float(np.mean([r.reward for r in self.rollouts]))


# ---------------------------------------------------------------------------
# rollouts and rewards
# ---------------------------------------------------------------------------

def rollout_group(sample, old_params: dict, config: RlConfig,
                  mconfig: ModelConfig, rng: np.random.Generator) -> RolloutGroup:
    """`group_size` rollouts of one prompt under the old policy, decoded in
    lockstep; each samples from its own child generator of `rng`."""
    prompt = build_prompt(sample)
    max_new = min(config.max_response_length,
                  mconfig.max_positions - prompt.length - 1)
    gold = vocab.encode(sample.gold)
    group = RolloutGroup()
    for layout, traj in decode_group(prompt, config.k_train_rl, old_params, mconfig,
                                     rng.spawn(config.group_size), config.temperature,
                                     max_new):
        roll = Rollout(layout, traj)
        roll.reward, roll.correct = compute_reward(traj, gold, config.format_bonus)
        group.rollouts.append(roll)
    return group


def compute_reward(trajectory: Trajectory, gold_ids, format_bonus: float = 0.1):
    """Accuracy (exact match of the extracted boxed answer) plus a small
    format bonus for any well-formed boxed span. Latent usage is never
    rewarded. Returns (reward, correct)."""
    tokens = [s.token for s in trajectory.steps if isinstance(s, TextStep)]
    content = vocab.extract_boxed(tokens)
    if content is None:
        return 0.0, False
    correct = content == list(gold_ids)
    return (1.0 if correct else 0.0) + format_bonus, correct


def compute_advantages(group: RolloutGroup) -> RolloutGroup:
    """Outcome rewards normalized by group mean and population std; a group
    with zero reward spread is excluded from updates."""
    rewards = np.array([r.reward for r in group.rollouts])
    std = rewards.std()
    if std == 0.0:
        group.excluded = True
        for r in group.rollouts:
            r.advantage = 0.0
        return group
    mean = rewards.mean()
    for r in group.rollouts:
        r.advantage = float((r.reward - mean) / std)
    return group


def filter_by_accuracy(groups, threshold: float):
    """Retain groups whose accuracy is strictly between zero and the
    threshold; degenerate zero-spread groups are dropped as well."""
    return [g for g in groups
            if not g.excluded and 0.0 < g.accuracy < threshold]


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------

def text_ratio(new_logp: ad.Tensor, old_logp) -> ad.Tensor:
    """exp(new - old) per text step; `old_logp` is a float or one per step."""
    return ad.exp(ad.sub(new_logp, old_logp))


def vlpo_latent_ratio(h_old, h_theta, sigma: float) -> ad.Tensor:
    """exp(-||h_old - h_theta||^2 / (2 sigma^2)) for a vector or per row of
    (n, d) matrices; gradient reaches h_theta only."""
    h_old = ad.stop_gradient(ad.as_tensor(h_old))
    h_theta = ad.as_tensor(h_theta)
    return ad.exp(ad.scale(ad.sq_dist(h_old, h_theta), -1.0 / (2.0 * sigma * sigma)))


@dataclass
class GroupScore:
    """A group's rollouts teacher-forced through a policy. Sampled text steps
    and latent steps are listed apart, each rollout by rollout in step
    order; forced steps carry no ratio and appear in neither list."""
    new_logp: ad.Tensor  # (n_text,) temperature-scaled, under the policy
    old_logp: np.ndarray  # (n_text,) as sampled
    text_rollout: np.ndarray  # (n_text,) rollout index of each text step
    h_theta: ad.Tensor  # (n_latent, d) regenerated latent vectors
    h_old: np.ndarray  # (n_latent, d) rollout latent vectors
    latent_rollout: np.ndarray  # (n_latent,) rollout index of each latent step


def score_group(params: dict, group: RolloutGroup, config: RlConfig,
                mconfig: ModelConfig) -> GroupScore:
    """Teacher-force a group's rollouts through the current policy.

    One causal pass over the rollouts' full layouts (`forward_group`; latent
    slots hold the rollout vectors) gives every rollout the rows of a lone
    full pass, bit for bit. It runs each row the rollouts share (the prompt,
    and any steps they took alike) once, and sums the gradient that the
    rollouts' terms send to such a row before passing it back. A step at
    position p of rollout g reads pool row `at[g][p - 1]`: the logits of a
    sampled text step, the regenerated vector h_theta of a latent step.
    Each kind is read from the pool through one row gather."""
    logits, final, at = forward_group([roll.layout for roll in group.rollouts], params, mconfig)
    text_at, tokens, old_logp, text_rollout = [], [], [], []
    latent_at, h_old, latent_rollout = [], [], []
    for g, roll in enumerate(group.rollouts):
        for row, step in zip(at[g][roll.trajectory.prompt_len - 1:], roll.trajectory.steps):
            if isinstance(step, LatentStep):
                latent_at.append(row)
                h_old.append(step.vector)
                latent_rollout.append(g)
            elif not step.forced:
                text_at.append(row)
                tokens.append(step.token)
                old_logp.append(step.logp)
                text_rollout.append(g)
    new_logp = ad.log_prob_row(
        ad.scale(ad.gather_rows(logits, text_at), 1.0 / config.temperature), tokens)
    return GroupScore(new_logp, np.array(old_logp), np.array(text_rollout, dtype=np.int64),
                      ad.gather_rows(final, latent_at),
                      np.array(h_old).reshape(len(latent_at), mconfig.hidden_dim),
                      np.array(latent_rollout, dtype=np.int64))


def score_trajectory(params: dict, rollout: Rollout, config: RlConfig,
                     mconfig: ModelConfig) -> GroupScore:
    """`score_group` of a group holding just `rollout` (the name the
    benchmark's tracer wraps)."""
    return score_group(params, RolloutGroup([rollout]), config, mconfig)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

class Algo(enum.Enum):
    GRPO = "grpo"
    VLPO = "vlpo"


def _clipped_term(ratio: ad.Tensor, advantage, eps: float) -> ad.Tensor:
    """min(r A, clip(r, 1 - eps, 1 + eps) A) per step; `advantage` is a float
    or one per step."""
    left = ad.mul(ratio, advantage)
    right = ad.mul(ad.clip(ratio, 1.0 - eps, 1.0 + eps), advantage)
    return ad.minimum2(left, right)


def policy_objective(group: RolloutGroup, current: dict, config: RlConfig, algo: Algo,
                     mconfig: ModelConfig):
    """Negated clipped-surrogate objective over one retained group.

    Per trajectory the step terms are averaged over the steps that contribute
    (text only for the plain algorithm, text plus latent for the latent-aware
    one; forced steps never contribute), then averaged over the group. The
    group is scored by `score_group`, and its terms are summed as one
    weighted vector per step kind: a step of a rollout with n contributing
    steps in a group of G weighs 1 / (n G). Returns (loss, stats), or
    (None, stats) when no step contributes."""
    stats = {"text_ratio_mean": 0.0, "latent_ratio_mean": 0.0}
    scored = score_group(current, group, config, mconfig)
    G = len(group.rollouts)
    advantage = np.array([roll.advantage for roll in group.rollouts])
    with_latents = algo is Algo.VLPO and scored.latent_rollout.size > 0
    counts = np.bincount(scored.text_rollout, minlength=G)
    if with_latents:
        counts = counts + np.bincount(scored.latent_rollout, minlength=G)
    if not counts.any():
        return None, stats
    weight = 1.0 / (np.maximum(counts, 1) * G)

    def weighted(ratio, rollout):
        return ad.dot(_clipped_term(ratio, advantage[rollout], config.clip_eps),
                      weight[rollout])

    ratio = text_ratio(scored.new_logp, scored.old_logp)
    if scored.text_rollout.size:
        stats["text_ratio_mean"] = float(np.mean(ad.value(ratio)))
    objective = weighted(ratio, scored.text_rollout)
    latent_part = latents = None
    if with_latents:
        ratio = vlpo_latent_ratio(scored.h_old, scored.h_theta, config.sigma)
        stats["latent_ratio_mean"] = float(np.mean(ad.value(ratio)))
        latents = (scored.h_old, ad.value(scored.h_theta))
        latent_obj = weighted(ratio, scored.latent_rollout)
        objective = ad.add(objective, latent_obj)
        latent_part = ad.scale(latent_obj, -1.0)
    return ad.scale(objective, -1.0), {**stats, "latent_part": latent_part, "latents": latents}


def latent_gradient_norm(latent_part, params: dict, latents=None) -> float:
    """Norm of the parameter gradient attributable to latent ratio terms.

    `latents` may hold the scored group's (h_old, h_theta) arrays (the
    `latents` entry of `policy_objective`'s stats). When they are equal
    elementwise, as under on-policy scoring, every latent term's gradient
    is a multiple of h_old - h_theta = 0, so the norm is 0.0 and no backward
    runs. The test is on the vectors, not on the squared distance, which
    can underflow to 0 for vectors that differ."""
    if latent_part is None or (latents is not None and np.array_equal(*latents)):
        return 0.0
    grads = ad.backward(latent_part, params)
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def train_rl(sft_params: dict, records, config: RlConfig, algo: Algo,
             mconfig: ModelConfig, seed: int, epochs: int = 1) -> TrainResult:
    """One prompt group per update step, through the loop the SFT stages run
    (`sft._train`). A step's group is rolled out under the live params
    before they are updated, so they are the old policy and no copy is
    needed; the epoch order and the rollouts draw from one generator. A
    group that is not retained, or leaves no contributing step, is logged
    and makes no update."""
    params = copy_params(sft_params)
    rng = np.random.default_rng(seed)

    def sample_loss(rec):
        group = compute_advantages(rollout_group(rec.sample, params, config, mconfig, rng))
        retained = filter_by_accuracy([group], config.accuracy_threshold)
        row = {"sample_id": rec.sample_id, "mean_reward": group.mean_reward(),
               "accuracy": group.accuracy, "retained": len(retained),
               "text_ratio_mean": 1.0, "latent_ratio_mean": 1.0, "latent_grad_norm": 0.0}
        if not retained:
            return None, row
        loss, stats = policy_objective(group, params, config, algo, mconfig)
        if loss is not None:
            row["latent_grad_norm"] = latent_gradient_norm(
                stats["latent_part"], params, stats["latents"])
            row["text_ratio_mean"] = stats["text_ratio_mean"]
            row["latent_ratio_mean"] = stats["latent_ratio_mean"]
        return loss, row

    return _train(params, records, StageConfig(config.learning_rate, epochs), rng, "rl",
                  sample_loss)
