"""The summary arithmetic of `tools/bench_pairs.py`, on synthetic runs; no
benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(peak, wall=1.0, setup=0.3, failed=0, digest="a"):
    return {"setup_s": setup, "wall_s": wall, "peak_rss_mb": peak, "failed": failed,
            "attempted": 10, "digests": {"log_sha256": digest}}


def _runs(parent_peaks, change_peaks, **change):
    return {str(seed): {"parent": _run(p), "change": _run(c, **change)}
            for seed, (p, c) in enumerate(zip(parent_peaks, change_peaks), 1)}


def test_summary_quartiles_pairs_and_ratio():
    parent = [60.0, 62.0, 64.0, 66.0, 68.0]
    change = [50.0, 63.0, 52.0, 54.0, 56.0]
    out = bench_pairs.summarize(_runs(parent, change))
    peak = out["summary"]["peak_rss_mb"]
    assert peak["parent_q1_median_q3"] == [62.0, 64.0, 66.0]
    assert peak["change_q1_median_q3"] == [52.0, 54.0, 56.0]
    assert peak["change_lower_in_pairs"] == 4 and peak["pairs"] == 5
    assert peak["median_ratio"] == pytest.approx(54.0 / 64.0)
    assert peak["parent_quartile_distance"] == 4.0
    assert out["summary"]["wall_s"]["change_lower_in_pairs"] == 0  # ties are not lower
    assert out["digests_equal_in_every_pair"]
    assert out["failed_ops"] == {"parent": 0, "change": 0}


def test_summary_counts_failures_and_digest_mismatches():
    out = bench_pairs.summarize(_runs([1.0, 2.0], [1.0, 2.0], failed=3, digest="b"))
    assert not out["digests_equal_in_every_pair"]
    assert out["failed_ops"] == {"parent": 0, "change": 6}


PARENT = [60.0, 61.0, 62.0, 63.0, 64.0, 65.0, 66.0, 67.0, 68.0, 69.0]


@pytest.mark.parametrize("change, met, side", [
    ([50.0] * 9 + [70.0], True, {}),  # lower in 9 of 10, median far below
    ([50.0] * 8 + [70.0] * 2, False, {}),  # lower in only 8 of 10
    ([p - 1.0 for p in PARENT], False, {}),  # lower in every pair, within the parent's spread
    ([50.0] * 10, False, {"failed": 1}),  # lower, but fails operations the parent does not
    ([50.0] * 10, False, {"digest": "b"}),  # lower, but its outputs differ
])
def test_claim_verdict(change, met, side):
    workload = bench_pairs.summarize(_runs(PARENT, change, **side))
    verdict = bench_pairs.verdict(workload, "peak_rss_mb")
    summary = workload["summary"]["peak_rss_mb"]
    assert verdict["met"] is met
    assert verdict["median_gap"] == summary["parent_q1_median_q3"][1] - \
        summary["change_q1_median_q3"][1]


@pytest.mark.parametrize("parent, change, worse, unresolved", [
    (PARENT, PARENT, False, False),  # within the bound and a narrow parent spread
    (PARENT, [80.0] * 10, True, False),  # median 80 over 64.5 * 1.2
    # the parent's quartile distance, 20, exceeds 0.2 * 60, and no change run is below 40
    ([40.0, 50.0, 60.0, 70.0, 80.0], [45.0, 55.0, 60.0, 65.0, 75.0], False, True),
    ([40.0, 50.0, 60.0, 70.0, 80.0], [30.0] * 5, False, False),  # below every parent run
])
def test_no_regression_verdict(parent, change, worse, unresolved):
    peak = bench_pairs.summarize(_runs(parent, change))["summary"]["peak_rss_mb"]
    assert peak["bound"] == 0.2
    assert peak["worse"] is worse and peak["unresolved"] is unresolved


def test_seed_ranges():
    assert bench_pairs.seed_range("1-10") == list(range(1, 11))
    assert bench_pairs.seed_range("11") == [11]
