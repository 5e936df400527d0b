"""Benchmark pairs: a parent revision against a change, run by run.

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 1-10 --held-out 11 \\
        --claim rl-vlpo:peak_rss_mb --out BENCH_<n>.json

Extracts `--parent` and HEAD with `git archive` into sibling temporary
directories outside the repository, so both sides run from committed files in
alike directories. Then for each seed it runs `perfbench/run.py --trace 0` of
every workload `BENCHMARK.json` lists, for its `run_seconds`, on both sides,
the side that runs first alternating by seed. Each run's result line gives its
end-to-end metrics and failed operations, and its
`.perfbench-work/<workload>.result.json` its digests and machine facts.

Writes one JSON object: per workload and end-to-end metric, each side's
quartiles (q1, median, q3), how many pairs the change is lower in, the ratio
of the medians (change / parent), the distance between the parent's quartiles,
and a no-regression verdict from the metric's `bound`: `worse` when the
change's median exceeds the parent's by more than the bound, `unresolved` when
the parent's quartile distance exceeds the bound times its median and not
every change run is below every parent run; whether the digests agreed in
every pair; the failed operations; each side's machine facts; and every run.
`--claim workload:metric` adds a verdict on a claimed reduction: met when the
change is lower in at least nine of ten pairs, its median lies below the
parent's by more than the parent's quartile distance, it fails no more
operations than the parent and the digests agree in every pair. `--held-out`
seeds are run and reported apart.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
if any(m["better"] != "lower" for m in BENCHMARK["end_to_end"]):
    raise ValueError("BENCHMARK.json: the no-regression verdict reads every end-to-end "
                     "metric as lower-is-better")
SECONDS = BENCHMARK["run_seconds"]
# Facts that describe one run, not the side: the commits are recorded once at
# the top, and an extracted tree has no git checkout to read one from.
RUN_FACTS = ("seed", "git_commit")


def run_side(tree: Path, workload: str, seed: int) -> tuple:
    """One `perfbench/run.py --trace 0` run in `tree`: (run record, the
    side's machine facts)."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    line = json.loads(done.stdout.splitlines()[-1])
    info = json.loads((tree / ".perfbench-work" / f"{workload}.result.json").read_text())["info"]
    run = {**{m: line["metrics"][m]["value"] for m in METRICS}, "correct": line["correct"],
           "failed": line["failed"], "attempted": line["attempted"], "digests": info["digests"]}
    return run, {k: v for k, v in info["facts"].items() if k not in RUN_FACTS}


def quartiles(values) -> list:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def summarize(runs: dict) -> dict:
    """The summary of one workload's runs, `{seed: {"parent": run, "change":
    run}}`, each run holding the metrics, `failed` and `digests`."""
    pairs = list(runs.values())
    summary = {}
    for metric in METRICS:
        parent = [pair["parent"][metric] for pair in pairs]
        change = [pair["change"][metric] for pair in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        bound = BOUNDS[metric]
        summary[metric] = {
            "parent_q1_median_q3": pq, "change_q1_median_q3": cq,
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs), "median_ratio": cq[1] / pq[1],
            "parent_quartile_distance": pq[2] - pq[0], "bound": bound,
            "worse": cq[1] > pq[1] * (1 + bound),
            "unresolved": pq[2] - pq[0] > bound * pq[1] and max(change) >= min(parent)}
    return {"summary": summary,
            "digests_equal_in_every_pair": all(pair["parent"]["digests"] == pair["change"]["digests"]
                                               for pair in pairs),
            "failed_ops": {side: sum(pair[side]["failed"] for pair in pairs)
                           for side in ("parent", "change")},
            "runs": runs}


def verdict(workload: dict, metric: str) -> dict:
    """Whether a claimed reduction of `metric` in one workload's summary is
    met: the change lower in at least nine of ten pairs, its median below the
    parent's by more than the parent's quartile distance, no more failed
    operations than the parent, and equal digests in every pair."""
    summary = workload["summary"][metric]
    pairs, lower = summary["pairs"], summary["change_lower_in_pairs"]
    gap = summary["parent_q1_median_q3"][1] - summary["change_q1_median_q3"][1]
    failed = workload["failed_ops"]
    return {"change_lower_in_pairs": lower, "pairs": pairs,
            "median_ratio": summary["median_ratio"], "median_gap": gap,
            "parent_quartile_distance": summary["parent_quartile_distance"],
            "met": (lower * 10 >= pairs * 9 and gap > summary["parent_quartile_distance"]
                    and failed["change"] <= failed["parent"]
                    and workload["digests_equal_in_every_pair"])}


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (tree / "src" / "latentcot").glob("*.py"))


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_pairs(sides: dict, seeds, facts: dict) -> dict:
    out = {w: {} for w in WORKLOADS}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            runs = {}
            for side in order:
                runs[side], facts[side] = run_side(sides[side], workload, seed)
                print(f"seed {seed} {workload} {side}: "
                      + " ".join(f"{m}={runs[side][m]:.3f}" for m in METRICS), file=sys.stderr)
            out[workload][str(seed)] = {"first": order[0], **runs}
    return {w: summarize(runs) for w, runs in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    parser.add_argument("--held-out", default="", help="seeds reported apart, e.g. 11")
    parser.add_argument("--claim", default="", help="workload:metric claimed to go down")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    revisions = {"parent": args.parent, "change": "HEAD"}
    with tempfile.TemporaryDirectory() as tmp:
        sides, facts = {}, {}
        for side, revision in revisions.items():
            sides[side] = Path(tmp) / side
            sides[side].mkdir()
            archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", str(sides[side])], input=archive, check=True)
        result = {
            "about": "End-to-end benchmark metrics at the parent commit and at this change, "
                     f"from perfbench/run.py --trace 0 with --seconds {SECONDS:g} and one "
                     "BLAS thread, written by tools/bench_pairs.py. 'pairs' holds one run per "
                     "side and seed, the side that runs first alternating by seed; "
                     "'held_out_pairs' holds seeds not used while the change was written.",
            "parent_commit": git("rev-parse", revisions["parent"]),
            "change_commit": git("rev-parse", revisions["change"]),
            "src_lines": {side: src_lines(tree) for side, tree in sides.items()},
            "facts": facts,
            "pairs": run_pairs(sides, seed_range(args.seeds), facts)}
        if args.held_out:
            result["held_out_pairs"] = run_pairs(sides, seed_range(args.held_out), facts)
    if args.claim:
        workload, metric = args.claim.split(":")
        result["claim"] = {"workload": workload, "metric": metric,
                           **verdict(result["pairs"][workload], metric)}
        if args.held_out:
            held = result["held_out_pairs"][workload]["summary"][metric]
            result["claim"]["held_out_ratio"] = held["median_ratio"]
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
