"""Regenerate the stage-3 checkpoint that the decode workloads load.

    python3 perfbench/make_fixture.py           # rebuild and compare with the committed file
    python3 perfbench/make_fixture.py --write   # rebuild and overwrite it

The recipe runs the repository's own trainers through `latentcot.cli.main`
at the reference shape (d=64, L=3, 4 heads, 160 positions) with seed 0 and
one BLAS thread: `gen-data` (300 raw train samples), a 2-epoch warm-up
(514 steps), 60 stage-2 steps and 60 stage-3 steps, all at learning rate
1e-3. It is a regeneration tool, not a per-run gate: the benchmark loads the
committed file, so a later change to training arithmetic does not move the
decode workloads. Run it from the root of a checkout; its work directory is
`.perfbench-work/fixture`.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = HERE / "fixtures" / "stage3.ckpt"
RECIPE = [
    ["gen-data", "--seed", "0", "--train-count", "300", "--eval-count", "60", "--rl-count", "30"],
    ["train-sft", "--stage", "1", "--seed", "0", "--epochs", "2", "--learning-rate", "1e-3"],
    ["train-sft", "--stage", "2", "--seed", "0", "--max-steps", "60", "--learning-rate", "1e-3"],
    ["train-sft", "--stage", "3", "--seed", "0", "--max-steps", "60", "--learning-rate", "1e-3"],
]


def build(work: Path) -> bytes:
    sys.path.insert(0, str(ROOT / "src"))
    from latentcot import cli

    shutil.rmtree(work, ignore_errors=True)
    for argv in RECIPE:
        if cli.main([argv[0], "--run-dir", str(work), *argv[1:]]) != 0:
            raise SystemExit(f"fixture recipe failed at: {' '.join(argv)}")
    return (work / "checkpoints" / "sft.ckpt").read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="overwrite the committed fixture")
    args = parser.parse_args(argv)
    blob = build(ROOT / ".perfbench-work" / "fixture")
    digest = hashlib.sha256(blob).hexdigest()
    if args.write:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_bytes(blob)
        print(f"wrote {FIXTURE.relative_to(ROOT)} ({len(blob)} bytes, sha256 {digest})")
        return 0
    same = FIXTURE.exists() and FIXTURE.read_bytes() == blob
    print(f"rebuilt checkpoint sha256 {digest}: "
          f"{'matches' if same else 'DIFFERS FROM'} {FIXTURE.relative_to(ROOT)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
