"""Recipe clock: the README recipe through the CLI at a reduced scale, timed.

    python3 tools/recipe_clock.py > clock.json

Runs in a temporary directory, with one BLAS thread, the README's CLI
walkthrough at one fixed scale: a tenth of its record counts, with its
epochs, learning rates and latent sizes:
  - gen-data of 260 train, 50 eval and 30 RL samples (seed 0);
  - train-sft stages 1, 2 and 3 (k 8; 3, 1 and 3 epochs);
  - train-rl vlpo from the SFT checkpoint (k 8);
  - sweep of sft.ckpt and rl_vlpo.ckpt at the default latent sizes.
The walkthrough's single `eval` is left out: the sweep decodes the same
records at k 8.

Prints one JSON object: the wall clock of each command (`commands`, in run
order), their sum (`total_s`), the records each split holds after curation,
the sweep's accuracy per checkpoint and latent size, and the machine facts.
Command output goes to standard error. `--tiny` runs the same commands on
a tiny model and data set, for the test that checks the object's keys.
"""

import argparse
import contextlib
import csv
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in BLAS_VARS:
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from latentcot.cli import DEFAULT_SWEEP, main  # noqa: E402

CHECKPOINTS = ("sft.ckpt", "rl_vlpo.ckpt")


def recipe(tiny: bool) -> list:
    """(label, argv) of each command, in run order."""
    counts = ("24", "8", "10") if tiny else ("260", "50", "30")
    k = "2" if tiny else "8"
    short = ["--max-steps", "4"] if tiny else []
    model = ["--layers", "2", "--hidden-dim", "16", "--heads", "2"] if tiny else []
    sweep = ["--k-tests", "0,2"] if tiny else []
    return [
        ("gen-data", ["gen-data", "--seed", "0", "--train-count", counts[0],
                      "--eval-count", counts[1], "--rl-count", counts[2]]),
        ("train-sft-stage1", ["train-sft", "--stage", "1", "--learning-rate", "1e-3",
                              *short, *model]),
        ("train-sft-stage2", ["train-sft", "--stage", "2", "--learning-rate", "1e-3",
                              "--k-train", k, *short]),
        ("train-sft-stage3", ["train-sft", "--stage", "3", "--learning-rate", "1e-3",
                              "--k-train", k, "--epochs", "3", *short]),
        ("train-rl-vlpo", ["train-rl", "--algo", "vlpo", "--k-train-rl", k,
                           "--learning-rate", "3e-5"]),
        ("sweep", ["sweep", "--checkpoints", ",".join(CHECKPOINTS), *sweep]),
    ]


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def clock(run_dir: Path, tiny: bool = False) -> dict:
    commands = {}
    for label, argv in recipe(tiny):
        started = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            if main([argv[0], "--run-dir", str(run_dir), *argv[1:]]) != 0:
                raise SystemExit(f"recipe_clock: {' '.join(argv)} failed")
        commands[label] = round(time.perf_counter() - started, 3)
    records = {split: len((run_dir / "data" / f"{split}.jsonl").read_text().splitlines())
               for split in ("train", "eval", "rl")}
    with open(run_dir / "reports" / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    ks = [0, 2] if tiny else DEFAULT_SWEEP
    accuracy = {name: {} for name in CHECKPOINTS}
    for i, row in enumerate(rows):  # the sweep writes checkpoint by checkpoint, k by k
        name, k = CHECKPOINTS[i // len(ks)], ks[i % len(ks)]
        assert int(row["k_test"]) == k, (row, k)
        accuracy[name][str(k)] = float(row["accuracy"])
    return {
        "scale": "tiny" if tiny else "tenth",
        "commands": commands,
        "total_s": round(sum(commands.values()), 3),
        "records": records,
        "accuracy": accuracy,
        "machine": machine_facts(),
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="a tiny model and data set, to check the output's keys")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(clock(Path(tmp), args.tiny)))
