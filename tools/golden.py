"""Golden run: a fixed-seed tiny pipeline through the CLI, one digest per artifact.

    python3 tools/golden.py > golden.txt

Runs in a temporary directory, with one BLAS thread:
  - gen-data;
  - train-sft stages 1, 2 and 3 on a tiny model (stage 2 ends on a partial
    gradient-accumulation window);
  - train-rl vlpo and grpo from that SFT checkpoint;
  - eval of the SFT checkpoint;
  - on the same data, train-rl vlpo and grpo from the committed stage-3
    fixture, where most groups are retained and RL gradients flow, then
    eval of the fixture and of its VLPO checkpoint;
  - in a third run dir with the same data and fixture, train-rl vlpo over
    two epochs, so a second epoch rolls out from updated params.

Prints one `sha256  path` line per `data/*.jsonl` file, checkpoint,
`latent_store.npz` and `logs/*.csv` file of the first two run dirs, and one
for each `reports/metrics.csv` with its wall-clock column dropped; of the
third, one line each for the RL checkpoint and log. Command output goes
to standard error. Digests depend on the BLAS build, so none are committed:
compare the output of two checkouts on one machine. A refactor that claims
to keep numerics leaves every line unchanged.
"""

import contextlib
import csv
import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from latentcot.cli import main  # noqa: E402

FIXTURE = ROOT / "perfbench" / "fixtures" / "stage3.ckpt"
TINY_MODEL = ["--layers", "2", "--hidden-dim", "16", "--heads", "2"]


def run(run_dir: Path, *argv: str):
    with contextlib.redirect_stdout(sys.stderr):
        if main([argv[0], "--run-dir", str(run_dir), *argv[1:]]) != 0:
            raise SystemExit(f"golden: {' '.join(argv)} failed")


def file_digests(files) -> list:
    return [(hashlib.sha256(f.read_bytes()).hexdigest(), f) for f in files]


def digests(run_dir: Path) -> list:
    """(sha256, path) of every artifact of one run dir."""
    out = file_digests([*sorted(run_dir.glob("data/*.jsonl")),
                        *sorted(run_dir.glob("checkpoints/*")),
                        *sorted(run_dir.glob("logs/*.csv"))])
    metrics = run_dir / "reports" / "metrics.csv"
    if metrics.exists():
        with open(metrics, newline="") as f:
            rows = [{k: v for k, v in row.items() if k != "wall_clock_s"}
                    for row in csv.DictReader(f)]
        out.append((hashlib.sha256(repr(rows).encode()).hexdigest(), metrics))
    return out


def golden(work: Path) -> list:
    pipe, fix, two = work / "pipeline", work / "fixture", work / "fixture-2-epochs"
    run(pipe, "gen-data", "--seed", "3", "--train-count", "24", "--eval-count", "8",
        "--rl-count", "10")
    run(pipe, "train-sft", "--stage", "1", "--seed", "1", "--max-steps", "7",
        "--learning-rate", "1e-3", *TINY_MODEL)
    for stage, steps, accum in (("2", "7", "3"), ("3", "5", "2")):
        run(pipe, "train-sft", "--stage", stage, "--seed", "1", "--max-steps", steps,
            "--grad-accum", accum, "--k-train", "2", "--learning-rate", "1e-3")
    for algo in ("vlpo", "grpo"):
        run(pipe, "train-rl", "--algo", algo, "--seed", "2", "--group-size", "4",
            "--k-train-rl", "2")
    run(pipe, "eval", "--checkpoint", "sft.ckpt", "--k-test", "2", "--limit", "8")

    for run_dir in (fix, two):
        shutil.copytree(pipe / "data", run_dir / "data")
        (run_dir / "checkpoints").mkdir()
        shutil.copyfile(FIXTURE, run_dir / "checkpoints" / "sft.ckpt")
    for algo in ("vlpo", "grpo"):
        run(fix, "train-rl", "--algo", algo, "--seed", "4", "--k-train-rl", "8")
    for ckpt in ("sft.ckpt", "rl_vlpo.ckpt"):
        run(fix, "eval", "--checkpoint", ckpt, "--k-test", "4", "--limit", "4")
    run(two, "train-rl", "--algo", "vlpo", "--seed", "4", "--k-train-rl", "8", "--epochs", "2")
    return digests(pipe) + digests(fix) + file_digests(
        [two / "checkpoints" / "rl_vlpo.ckpt", two / "logs" / "rl_vlpo.csv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for digest, path in golden(Path(tmp)):
            print(f"{digest}  {path.relative_to(tmp)}")
