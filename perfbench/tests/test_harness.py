"""Self-tests of the benchmark harness: span arithmetic, percentile selection,
metric names, the output checks, and that BENCHMARK.json lists exactly the
workloads and metrics a run reports.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from latentcot import autodiff as ad  # noqa: E402
from latentcot import model, vocab  # noqa: E402
from latentcot.model import LatentStep, TextStep, Trajectory  # noqa: E402
from spans import (LAYER_UNITS, Span, Tracer, count_graph_nodes, layer_metrics,  # noqa: E402
                   self_times)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_subtracts_nested_children():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("a.x", 2.0, 3.0, parent=1),
             Span("b", 5.0, 9.0, parent=0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_eval_percentiles_select_from_every_decode_of_every_round():
    R = workloads.Round
    rounds = [R(0, split_ms=[float(x) for x in range(1, 51)],
                parts={"decode": (1.0, 100)}, outputs=[(0, 0, True)] * 50),
              R(1, split_ms=[float(x) for x in range(51, 101)],
                parts={"decode": (1.0, 100)}, outputs=[(0, 0, False)] * 50)]
    m = workloads.EvalSweep().named_metrics(rounds)
    assert m["eval.sample_ms.p50"] == (50.5, "ms")
    assert m["eval.sample_ms.p90"][0] == pytest.approx(90.1)
    assert m["eval.tokens_per_s"] == (100.0, "1/s")
    assert m["eval.accuracy"] == (0.5, "ratio")


def test_metric_and_workload_names_use_the_allowed_characters():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]), m


def test_benchmark_json_lists_what_a_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    rounds = [workloads.Round(0, wall=2.0, ops=4), workloads.Round(1, wall=3.0, ops=4)]
    e2e = workloads.end_to_end(1.0, rounds, 100.0, best_of=3)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert list(e2e) == list(workloads.END_TO_END_UNITS)
    per_layer = layer_metrics([], setups=1, rounds=1)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    assert list(per_layer) == list(LAYER_UNITS)


def test_end_to_end_takes_each_chunks_fastest_passing_repetition():
    R = workloads.Round
    rounds = [R(0, wall=1.5, ops=10), R(1, wall=2.5, ops=10), R(2, wall=4.0, ops=10),
              R(0, wall=1.0, ops=10), R(1, wall=2.0, ops=10, failed=10), R(2, wall=5.0, ops=10),
              R(3, wall=9.0, ops=10, failed=10)]
    m = workloads.end_to_end(0.5, rounds, 80.0, best_of=3)
    assert m == {"setup_s": 0.5, "wall_s": 7.5, "peak_rss_mb": 80.0}


def test_only_the_first_repetitions_of_a_chunk_compete():
    R = workloads.Round
    rounds = [R(0, wall=3.0, ops=1), R(0, wall=2.0, ops=1, failed=1), R(0, wall=2.5, ops=1),
              R(0, wall=1.0, ops=1)]
    assert workloads.best_rounds(rounds, best_of=3) == [(1, 2.5)]
    assert workloads.best_rounds(rounds, best_of=4) == [(1, 1.0)]
    assert workloads.best_rounds(rounds[1:2], best_of=3) == []


def test_timed_operations_take_their_fastest_repetitions_one_by_one():
    R = workloads.Round
    rounds = [R(0, wall=9.0, ops=2, split_ms=[100.0, 400.0]),
              R(0, wall=9.0, ops=2, split_ms=[300.0, 200.0])]
    assert workloads.best_rounds(rounds, best_of=2) == [(2, 0.3)]
    assert workloads.best_rounds(rounds, best_of=1) == [(2, 0.5)]


def test_stratified_chunks_fix_the_family_counts():
    class Rec:
        def __init__(self, family, i):
            self.sample = type("S", (), {"family": family})()
            self.i = i

    recs = [Rec("lookup" if i % 3 else "count", i) for i in range(30)]
    chunks = workloads.stratified_chunks(recs, 4, {"lookup": 4, "count": 1})
    assert [sum(r.sample.family == "count" for r in c) for c in chunks] == [1, 1, 1, 1]
    assert len({r.i for c in chunks for r in c}) == 20
    assert workloads.stratified_chunks(recs, 11, {"lookup": 1, "count": 1}) is None


def _traj(steps, truncated=False):
    return Trajectory(steps=steps, prompt_len=3, truncated=truncated)


def test_decode_contract_accepts_runs_of_k_closed_by_the_forced_end():
    start, end = vocab.TOKEN_TO_ID[vocab.LATENT_START], vocab.TOKEN_TO_ID[vocab.LATENT_END]
    vec = np.zeros(4)
    good = _traj([TextStep(start, -0.1), LatentStep(vec), LatentStep(vec),
                  TextStep(end, 0.0, forced=True), TextStep(vocab.TOKEN_TO_ID[vocab.EOS], -0.2)])
    assert workloads.decode_contract(good, 2, 10) == []
    cut = _traj([TextStep(start, -0.1), LatentStep(vec)], truncated=True)
    assert workloads.decode_contract(cut, 2, 2) == []


def test_decode_contract_rejects_short_unclosed_and_overlong_runs():
    start, end = vocab.TOKEN_TO_ID[vocab.LATENT_START], vocab.TOKEN_TO_ID[vocab.LATENT_END]
    vec = np.zeros(4)
    short = _traj([TextStep(start, -0.1), LatentStep(vec), TextStep(end, 0.0, forced=True),
                   TextStep(vocab.TOKEN_TO_ID[vocab.EOS], -0.2)])
    assert workloads.decode_contract(short, 2, 10)
    unclosed = _traj([TextStep(start, -0.1), LatentStep(vec), LatentStep(vec),
                      TextStep(vocab.TOKEN_TO_ID[vocab.EOS], -0.2)])
    assert workloads.decode_contract(unclosed, 2, 10)
    assert workloads.decode_contract(_traj([TextStep(5, 0.0)] * 4), 2, 3)


def test_count_graph_nodes_stops_at_barriers_and_stop_sites():
    x = ad.parameter("x", np.ones(3))
    y = ad.mul(x, x)
    z = ad.add(ad.stop_gradient(y), y)
    loss = ad.sum_all(z)
    # loss, z, stop_gradient(y) (not expanded), y, x
    assert count_graph_nodes(loss) == 5
    assert count_graph_nodes(loss, stop_at=[y]) == 4


def test_tracer_rebinds_every_reference_and_restores_them():
    from latentcot import cli, rl, sft

    originals = (model.forward, sft.forward, rl.forward, sft.AdamW.step, cli.main)
    tracer = Tracer()
    config = model.ModelConfig(layer_count=1, hidden_dim=8, head_count=2, max_positions=8)
    params = model.init_params(config, np.random.default_rng(0))
    layout = model.SequenceLayout([model.text_segment(model.SegmentRole.QUESTION_TEXT, [1, 2])])
    with tracer.installed():
        assert sft.forward is model.forward is not originals[0]
        tracer.run_id = "round-0"
        model.decode_with_latents(layout, 1, params, config, max_new=2)
    assert (model.forward, sft.forward, rl.forward, sft.AdamW.step, cli.main) == originals
    names = [s.name for s in tracer.spans]
    assert names.count("model.decode_with_latents") == 1
    assert names.count("model.forward") == 2  # reached through model's own globals
    fwd = [s for s in tracer.spans if s.name == "model.forward"]
    assert [s.attrs["positions"] for s in fwd] == [2, 3]
    assert all(tracer.spans[s.parent].name == "model.decode_with_latents" for s in fwd)
    m = layer_metrics(tracer.spans, setups=1, rounds=1)
    assert m["model.decode.calls"] == 1 and m["model.decode.tokens"] == 2
    assert m["model.decode.positions_per_token"] == 2.5
