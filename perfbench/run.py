"""Benchmark entry point: one workload in a fresh single-process child.

    python3 perfbench/run.py --workload sft --seed 1 --seconds 30 --trace 0

Workloads: sft, eval-sweep, rl-vlpo (see perfbench/NOTES.md). The child runs
with one BLAS thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1) and imports `latentcot` from this checkout's
`src/`. Its report goes to standard output; the last line is the result
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`). Exits
non-zero, printing no result, when the child fails or runs past its limit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_LIMIT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = ROOT / ".perfbench-work" / f"{args.workload}.result.json"
    result.parent.mkdir(parents=True, exist_ok=True)
    result.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result), "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {CHILD_LIMIT_S} s and was stopped",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return 1
    print(json.dumps(json.loads(result.read_text())["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
