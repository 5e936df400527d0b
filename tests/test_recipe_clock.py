"""The recipe clock (`tools/recipe_clock.py`) runs every command of the
recipe and prints one JSON object with a wall clock per command, the
sweep's accuracies and the machine facts. Run here at its tiny scale,
in its own interpreter."""

import json
import subprocess
import sys
from pathlib import Path

CLOCK = Path(__file__).resolve().parents[1] / "tools" / "recipe_clock.py"

COMMANDS = ["gen-data", "train-sft-stage1", "train-sft-stage2", "train-sft-stage3",
            "train-rl-vlpo", "sweep"]


def test_tiny_recipe_clock_prints_every_key():
    done = subprocess.run([sys.executable, str(CLOCK), "--tiny"], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert list(out) == ["scale", "commands", "total_s", "records", "accuracy", "machine"]
    assert out["scale"] == "tiny"
    assert list(out["commands"]) == COMMANDS
    assert all(s > 0 for s in out["commands"].values())
    assert abs(out["total_s"] - sum(out["commands"].values())) < 1e-6
    assert list(out["records"]) == ["train", "eval", "rl"]
    assert all(n >= 1 for n in out["records"].values())
    assert list(out["accuracy"]) == ["sft.ckpt", "rl_vlpo.ckpt"]
    for by_k in out["accuracy"].values():
        assert list(by_k) == ["0", "2"]
        assert all(0.0 <= a <= 1.0 for a in by_k.values())
    assert {"nproc", "cpus_usable", "python", "numpy", "blas_threads"} <= set(out["machine"])
    assert set(out["machine"]["blas_threads"].values()) == {"1"}
