"""Group-based policy optimization over text and latent steps.

Rollouts mix discrete text steps (token + rollout log-probability) and
continuous latent steps (the fed-back vector). The clipped-ratio objective
uses group-normalized outcome advantages. Under the plain group algorithm
only text steps carry ratio terms; the latent-aware variant adds a Gaussian
probability ratio exp(-||h_old - h_theta||^2 / (2 sigma^2)) for latent steps,
with the rollout vector fixed and the current policy's regenerated vector as
the only live side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import vocab
from .layouts import build_prompt
from .model import (LatentStep, MaskMode, ModelConfig, SequenceLayout,
                    TextStep, Trajectory, build_attention_mask, copy_params,
                    decode_group, forward)
from .sft import AdamW, TrainingDiverged


@dataclass
class RlConfig:
    group_size: int = 8
    clip_eps: float = 0.2
    kl_coeff: float = 0.0
    sigma: float = 10.0
    temperature: float = 0.5
    max_response_length: int = 4096
    accuracy_threshold: float = 0.6
    learning_rate: float = 1e-6
    k_train_rl: int = 10
    weight_decay: float = 0.01
    format_bonus: float = 0.1

    def __post_init__(self):
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must lie in (0, 1)")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.accuracy_threshold <= 1.0:
            raise ValueError("accuracy_threshold must lie in (0, 1]")


@dataclass
class Rollout:
    layout: SequenceLayout
    trajectory: Trajectory
    reward: float = 0.0
    correct: bool = False
    advantage: float = 0.0


@dataclass
class RolloutGroup:
    gold: list  # gold answer token ids
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
    group = RolloutGroup(gold=gold)
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

def text_ratio(new_logp: ad.Tensor, old_logp: float) -> ad.Tensor:
    return ad.exp(ad.sub(new_logp, float(old_logp)))


def vlpo_latent_ratio(h_old, h_theta, sigma: float) -> ad.Tensor:
    """exp(-||h_old - h_theta||^2 / (2 sigma^2)); gradient reaches h_theta only."""
    h_old = ad.stop_gradient(ad.as_tensor(h_old))
    h_theta = ad.as_tensor(h_theta)
    return ad.exp(ad.scale(ad.sq_dist(h_old, h_theta), -1.0 / (2.0 * sigma * sigma)))


@dataclass
class ScoredStep:
    kind: str  # "text" | "latent" | "forced"
    ratio: ad.Tensor | None = None
    new_logp: ad.Tensor | None = None
    old_logp: float = 0.0
    ref_logp: float | None = None


def _temp_logp(logits_row: np.ndarray, token: int, temperature: float) -> float:
    z = logits_row / temperature if temperature > 0 else logits_row
    z = z - z.max()
    return float(z[token] - np.log(np.exp(z).sum()))


def score_trajectory(params: dict, rollout: Rollout, config: RlConfig,
                     mconfig: ModelConfig, reference: dict | None = None) -> list:
    """Teacher-force the rollout through the current policy.

    One causal pass over the full layout (latent slots hold the rollout
    vectors) yields per-step new log-probabilities for sampled text steps and
    the regenerated latent vector h_theta for latent steps. Forced steps
    contribute no ratio. With `reference` given, each text step also records
    the frozen reference log-probability for the KL estimator."""
    layout = rollout.layout
    mask = build_attention_mask(layout, MaskMode.CAUSAL)
    logits, stack = forward(layout, mask, params, mconfig)
    ref_logits = None
    if reference is not None:
        with ad.no_grad():
            ref_out, _ = forward(layout, mask, reference, mconfig)
        ref_logits = ref_out.data
    scored = []
    pos = rollout.trajectory.prompt_len
    inv_t = 1.0 / config.temperature if config.temperature > 0 else 1.0
    for step in rollout.trajectory.steps:
        if isinstance(step, LatentStep):
            h_theta = ad.get_row(stack[-1], pos - 1)
            scored.append(ScoredStep("latent",
                                     ratio=vlpo_latent_ratio(step.vector, h_theta,
                                                             config.sigma)))
        elif step.forced:
            scored.append(ScoredStep("forced"))
        else:
            row = ad.scale(ad.get_row(logits, pos - 1), inv_t)
            new_logp = ad.log_prob_row(row, step.token)
            ref_logp = None
            if ref_logits is not None:
                ref_logp = _temp_logp(ref_logits[pos - 1], step.token, config.temperature)
            scored.append(ScoredStep("text", ratio=text_ratio(new_logp, step.logp),
                                     new_logp=new_logp, old_logp=step.logp,
                                     ref_logp=ref_logp))
        pos += 1
    return scored


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

class Algo(enum.Enum):
    GRPO = "grpo"
    VLPO = "vlpo"


def _clipped_term(ratio: ad.Tensor, advantage: float, eps: float) -> ad.Tensor:
    left = ad.scale(ratio, advantage)
    right = ad.scale(ad.clip(ratio, 1.0 - eps, 1.0 + eps), advantage)
    return ad.minimum2(left, right)


def policy_objective(groups, current: dict, reference: dict | None,
                     config: RlConfig, algo: Algo, mconfig: ModelConfig):
    """Negated clipped-surrogate objective over the retained groups.

    Per trajectory the step terms are averaged over the steps that contribute
    (text only for the plain algorithm, text plus latent for the latent-aware
    one; forced steps never contribute), then averaged over the group and
    across groups. Returns (loss, stats) or (None, stats) when nothing is
    retained."""
    stats = {"retained_groups": len(groups), "text_ratio_mean": 0.0,
             "latent_ratio_mean": 0.0, "kl": 0.0}
    if not groups:
        return None, stats
    use_ref = bool(config.kl_coeff) and reference is not None
    group_objs = []
    latent_terms = []
    text_ratios, latent_ratios = [], []
    kl_nodes = []
    for group in groups:
        traj_objs = []
        for roll in group.rollouts:
            scored = score_trajectory(current, roll, config, mconfig,
                                      reference if use_ref else None)
            terms = []
            lat_local = []
            for s in scored:
                if s.kind == "forced":
                    continue
                if s.kind == "latent":
                    if algo is Algo.GRPO:
                        continue
                    lat_local.append(_clipped_term(s.ratio, roll.advantage, config.clip_eps))
                    latent_ratios.append(float(s.ratio.data))
                    terms.append(lat_local[-1])
                else:
                    terms.append(_clipped_term(s.ratio, roll.advantage, config.clip_eps))
                    text_ratios.append(float(s.ratio.data))
                    if use_ref:
                        # k3 estimator of KL(pi_theta || pi_ref), per token
                        delta = ad.sub(float(s.ref_logp), s.new_logp)
                        kl_nodes.append(ad.sub(ad.sub(ad.exp(delta), delta), 1.0))
            if not terms:
                continue
            inv = 1.0 / len(terms)
            traj_objs.append(ad.scale(_sum(terms), inv))
            if lat_local:
                latent_terms.append(ad.scale(_sum(lat_local), inv / len(group.rollouts)))
        if traj_objs:
            group_objs.append(ad.scale(_sum(traj_objs), 1.0 / len(group.rollouts)))
    if not group_objs:
        return None, stats
    objective = ad.scale(_sum(group_objs), 1.0 / len(group_objs))
    loss = ad.scale(objective, -1.0)
    if kl_nodes:
        kl = ad.scale(_sum(kl_nodes), 1.0 / len(kl_nodes))
        stats["kl"] = kl.item()
        loss = ad.add(loss, ad.scale(kl, config.kl_coeff))
    if text_ratios:
        stats["text_ratio_mean"] = float(np.mean(text_ratios))
    if latent_ratios:
        stats["latent_ratio_mean"] = float(np.mean(latent_ratios))
    latent_part = None
    if latent_terms:
        latent_part = ad.scale(_sum(latent_terms), -1.0 / len(group_objs))
    return loss, {**stats, "latent_part": latent_part}


def _sum(nodes):
    total = nodes[0]
    for n in nodes[1:]:
        total = ad.add(total, n)
    return total


def latent_gradient_norm(latent_part, params: dict) -> float:
    """Norm of the parameter gradient attributable to latent ratio terms."""
    if latent_part is None:
        return 0.0
    grads = ad.backward(latent_part, params)
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class RlResult:
    params: dict
    log: list = field(default_factory=list)


def train_rl(sft_params: dict, records, config: RlConfig, algo: Algo,
             mconfig: ModelConfig, seed: int, epochs: int = 1) -> RlResult:
    """One prompt group per update step; rollouts under the pre-update policy."""
    params = copy_params(sft_params)
    reference = copy_params(sft_params)
    opt = AdamW(params, config.learning_rate, config.weight_decay)
    rng = np.random.default_rng(seed)
    result = RlResult(params)
    step = 0
    for _ in range(epochs):
        for idx in rng.permutation(len(records)):
            rec = records[int(idx)]
            # the group is rolled out before opt.step updates params in place,
            # so the live params are the old policy; no copy is needed
            group = compute_advantages(
                rollout_group(rec.sample, params, config, mconfig, rng))
            retained = filter_by_accuracy([group], config.accuracy_threshold)
            row = {"step": step, "sample_id": rec.sample_id,
                   "mean_reward": group.mean_reward(),
                   "accuracy": group.accuracy,
                   "retained": len(retained),
                   "text_ratio_mean": 1.0, "latent_ratio_mean": 1.0,
                   "latent_grad_norm": 0.0}
            if retained:
                loss, stats = policy_objective(retained, params,
                                               reference, config, algo, mconfig)
                if loss is not None:
                    if not np.isfinite(loss.item()):
                        raise TrainingDiverged(f"rl: loss non-finite at step {step}")
                    grads = ad.backward(loss, params)
                    row["latent_grad_norm"] = latent_gradient_norm(
                        stats.get("latent_part"), params)
                    row["text_ratio_mean"] = stats["text_ratio_mean"]
                    row["latent_ratio_mean"] = stats["latent_ratio_mean"]
                    opt.step(grads)
            result.log.append(row)
            step += 1
    return result
