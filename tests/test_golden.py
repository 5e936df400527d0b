"""The golden run (`tools/golden.py`) is deterministic and covers every
artifact it is meant to: two runs, each in its own interpreter, print the
same digest line for each expected artifact."""

import re
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"

ARTIFACTS = [
    *(f"pipeline/data/{split}.jsonl" for split in ("eval", "rl", "train")),
    *(f"pipeline/checkpoints/{name}" for name in (
        "base.ckpt", "latent_store.npz", "rl_grpo.ckpt", "rl_vlpo.ckpt", "sft.ckpt",
        "stage2.ckpt", "warmup.ckpt")),
    *(f"pipeline/logs/{name}.csv" for name in (
        "rl_grpo", "rl_vlpo", "stage1", "stage1_diag", "stage2", "stage3")),
    "pipeline/reports/metrics.csv",
    *(f"fixture/data/{split}.jsonl" for split in ("eval", "rl", "train")),
    *(f"fixture/checkpoints/{name}.ckpt" for name in ("rl_grpo", "rl_vlpo", "sft")),
    *(f"fixture/logs/{name}.csv" for name in ("rl_grpo", "rl_vlpo")),
    "fixture/reports/metrics.csv",
    "fixture-2-epochs/checkpoints/rl_vlpo.ckpt",
    "fixture-2-epochs/logs/rl_vlpo.csv",
]


def _golden_lines() -> list:
    done = subprocess.run([sys.executable, str(GOLDEN)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()


def test_two_golden_runs_print_the_same_digest_for_every_artifact():
    first, second = _golden_lines(), _golden_lines()
    assert first == second
    assert [line.split("  ", 1)[1] for line in first] == ARTIFACTS
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in first)
