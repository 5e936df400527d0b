"""The order `ad.backward` rests on: every node is made after its parents,
so a node's creation number is above each parent's, in the graphs the
trainers build."""

import inspect
import sys

import numpy as np

from latentcot import autodiff as ad
from latentcot import sft
from latentcot.layouts import build_interleaved
from latentcot.model import forward_group, init_params
from latentcot.rl import Algo, RlConfig, compute_advantages, policy_objective, rollout_group
from test_rl import CFG, _latent_start_params, lookup_sample


def assert_tape_ordered(root):
    """Every parent of every node above `root` (barriers crossed too) has a
    lower creation number than its child."""
    seen, todo = {root.seq}, [root]
    while todo:
        node = todo.pop()
        for p in node.parents:
            assert p.seq < node.seq, (p, node)
            if p.seq not in seen:
                seen.add(p.seq)
                todo.append(p)


def test_stage2_sample_loss_is_tape_ordered():
    """The fill through the cache's row chain, the final pass and the
    latent-only surrogate."""
    params = init_params(CFG, np.random.default_rng(50))
    losses = sft.stage2_sample_losses(lookup_sample(), params, params, CFG, 3)
    total, _ = sft._latent_stage_loss(losses, 1.0, "align_obs")
    assert_tape_ordered(total)


def test_vlpo_objective_is_tape_ordered():
    config = RlConfig(group_size=2, k_train_rl=3, temperature=0.5, max_response_length=10)
    group = rollout_group(lookup_sample(), _latent_start_params(), config, CFG,
                          np.random.default_rng(0))
    group.rollouts[0].reward, group.rollouts[0].correct = 1.1, True
    group = compute_advantages(group)
    params = init_params(CFG, np.random.default_rng(51))
    loss, stats = policy_objective(group, params, config, Algo.VLPO, CFG)
    assert stats["latent_part"] is not None
    assert_tape_ordered(loss)


def test_forward_group_pass_is_tape_ordered():
    layouts = [build_interleaved(lookup_sample()).layout,
               build_interleaved(lookup_sample()).layout.prefix(9)]
    logits, _, _ = forward_group(layouts, init_params(CFG, np.random.default_rng(52)), CFG)
    assert_tape_ordered(ad.sum_all(logits))


def test_a_long_chain_runs_without_recursion():
    """100,000 chained adds differentiate with the stack held to a few
    frames above this one, and give the analytic gradient."""
    x = ad.parameter("x", np.array([1.0, -2.0, 0.5]))
    y = x
    for _ in range(100_000):
        y = ad.add(y, x)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)
    try:
        grads = ad.backward(ad.sum_all(y), {"x": x})
    finally:
        sys.setrecursionlimit(limit)
    assert np.array_equal(grads["x"], np.full(3, 100_001.0))
