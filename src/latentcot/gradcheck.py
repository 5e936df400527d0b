"""Finite-difference verification of every training loss.

Each check builds the loss on a small two-layer model, takes analytic
gradients with `backward`, and compares against central differences of the
matching value function on a sampled set of parameter coordinates. Losses
that contain stop-gradient barriers (the latent-only surrogates) are checked
against the function they actually differentiate: the adjoints are frozen at
the base parameters before differencing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import vocab
from .model import (LatentStep, ModelConfig, SegmentRole, SequenceLayout,
                    TextStep, init_params, latent_segment, text_segment)
from .rl import Algo, RlConfig, compute_advantages, policy_objective, rollout_group
from .sft import (LossWeights, _latent_stage_loss, _student_pass, _teacher_pass,
                  align_latent_loss, align_obs_loss, emit_target_latents,
                  latent_only_surrogate, ntp_loss, stage1_sample_loss,
                  stage2_sample_losses, stage3_sample_losses)
from .tasks import DatasetRecord, make_lookup_sample

TOLERANCE = 1e-4  # largest relative error a check passes with


@dataclass
class CheckResult:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def _tiny_model(seed: int):
    config = ModelConfig(layer_count=2, hidden_dim=16, head_count=2, max_positions=96)
    params = init_params(config, np.random.default_rng(seed))
    return config, params


def _tiny_sample():
    grid = [
        ["a", "b", "e", "f"],
        ["c", "d", "g", "h"],
        ["e", "f", "a", "b"],
        ["g", "h", "c", "d"],
    ]
    return make_lookup_sample(grid, (1, 1, 2, 2), (2, 1))


def _sample_coords(params: dict, rng: np.random.Generator) -> dict:
    """Spread at most 64 coordinates across all parameter tensors."""
    names = list(params)
    sizes = np.array([params[n].data.size for n in names])
    flat_total = int(sizes.sum())
    picks = rng.choice(flat_total, size=min(64, flat_total), replace=False)
    bounds = np.cumsum(sizes)
    coords: dict = {n: [] for n in names}
    for p in np.sort(picks):
        i = int(np.searchsorted(bounds, p, side="right"))
        offset = p - (bounds[i - 1] if i else 0)
        coords[names[i]].append(int(offset))
    return {n: np.array(v, dtype=np.int64) for n, v in coords.items() if v}


def _fd_check(name, loss_node, build, params, coords) -> CheckResult:
    """Backward through `loss_node` against central differences of
    `build` on the parameter arrays, each evaluated under `no_grad`."""
    def value(pvals):
        with ad.no_grad():
            return build(pvals).item()

    analytic = ad.backward(loss_node, params)
    numeric = ad.finite_difference(value, {n: t.data for n, t in params.items()},
                                   eps=1e-5, coords=coords)
    return CheckResult(name, ad.max_rel_error(analytic, numeric, coords))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_ntp(config, params, sample, coords):
    def build(pdict):
        return stage1_sample_loss(sample, pdict, config)

    return _fd_check("ntp", build(params), build, params, coords)


def check_align_obs(config, params, teacher_params, sample, k, coords):
    tb, t_stack = _teacher_pass(sample, teacher_params, config)

    def build(pdict):
        built, _, _, _, stack = _student_pass(sample, k, True, pdict, config)
        return align_obs_loss(t_stack, stack, tb.obs_positions, built.obs_positions)

    return _fd_check("align-obs", build(params), build, params, coords)


def check_align_latent(config, params, store_entry, sample, k, coords):
    def build(pdict):
        built, _, _, _, stack = _student_pass(sample, k, False, pdict, config)
        slots = [p for _, _, p in built.layout.latent_slots]
        return align_latent_loss(store_entry, stack, slots)

    return _fd_check("align-latent", build(params), build, params, coords)


def check_stage_total(kind, config, params, teacher_params, store, sample, k, weight, coords):
    """Total stage loss; the surrogate's stop-gradient adjoints are frozen at
    the base parameters before differencing, matching what backward
    differentiates."""
    if kind == "stage2":
        losses = stage2_sample_losses(sample, teacher_params, params, config, k)
    else:
        losses = stage3_sample_losses(sample, 0, store, params, config, k)
    total, _ = _latent_stage_loss(losses, weight, "align")
    frozen = [np.asarray(g).copy() for g in losses[3]]

    def build(pdict):
        built, produced, _, logits, _ = _student_pass(sample, k, kind == "stage2",
                                                      pdict, config)
        return ad.add(ntp_loss(logits, built.layout, built.label_mask),
                      ad.scale(latent_only_surrogate(frozen, produced), weight))

    return _fd_check(f"{kind}-total", total, build, params, coords)


def _make_group(sample, old_params, config, rl_config, rng, need_latents):
    group = rollout_group(sample, old_params, rl_config, config, rng)
    has_latents = any(isinstance(s, LatentStep)
                      for r in group.rollouts for s in r.trajectory.steps)
    if need_latents and not has_latents:
        _inject_latent_run(group.rollouts[0], rl_config.k_train_rl, config, rng)
    group.rollouts[0].reward, group.rollouts[0].correct = 1.1, True
    for roll in group.rollouts[1:]:
        roll.reward, roll.correct = 0.1, False
    return compute_advantages(group)


def _inject_latent_run(roll, k, config, rng):
    """Append a deterministic latent run to a rollout (marker, k vectors,
    forced end); the vectors play the role of recorded old-policy latents."""
    lat_start = vocab.TOKEN_TO_ID[vocab.LATENT_START]
    lat_end = vocab.TOKEN_TO_ID[vocab.LATENT_END]
    segments = list(roll.layout.segments)
    segments.append(text_segment(SegmentRole.PLAIN_TEXT, [lat_start]))
    roll.trajectory.steps.append(TextStep(lat_start, -2.0))
    for _ in range(k):
        vec = rng.normal(size=config.hidden_dim) * 0.5
        segments.append(latent_segment(1, [vec]))
        roll.trajectory.steps.append(LatentStep(vec))
    segments.append(text_segment(SegmentRole.PLAIN_TEXT, [lat_end]))
    roll.trajectory.steps.append(TextStep(lat_end, 0.0, forced=True))
    roll.layout = SequenceLayout(segments)


def check_policy(algo, config, params, old_params, sample, coords, seed):
    rl_config = RlConfig(group_size=2, k_train_rl=2, temperature=0.7,
                         max_response_length=20, clip_eps=0.2)
    rng = np.random.default_rng(seed)
    group = _make_group(sample, old_params, config, rl_config, rng,
                        need_latents=algo is Algo.VLPO)

    def build(pdict):
        loss, _ = policy_objective(group, pdict, rl_config, algo, config)
        return loss

    return _fd_check(algo.value, build(params), build, params, coords)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_gradcheck(seed: int = 0) -> list:
    """All loss-level gradient checks on a 2-layer, d=16 model."""
    config, params = _tiny_model(seed)
    _, teacher_params = _tiny_model(seed + 1)
    _, old_params = _tiny_model(seed + 2)
    sample = _tiny_sample()
    k = 2
    rng = np.random.default_rng(seed + 3)
    coords = _sample_coords(params, rng)
    store = emit_target_latents(params, _records_for(sample), config, k)
    weights = LossWeights()
    results = [
        check_ntp(config, params, sample, coords),
        check_align_obs(config, params, teacher_params, sample, k, coords),
        check_align_latent(config, params, store.get(0), sample, k, coords),
        check_stage_total("stage2", config, params, teacher_params, None, sample, k,
                          weights.alpha, coords),
        check_stage_total("stage3", config, params, teacher_params, store, sample, k,
                          weights.beta_stage3, coords),
        check_policy(Algo.GRPO, config, params, old_params, sample, coords, seed + 4),
        check_policy(Algo.VLPO, config, params, old_params, sample, coords, seed + 5),
    ]
    return results


def _records_for(sample):
    return [DatasetRecord(0, sample)]
