"""Span tracing of latentcot's layer boundaries, from outside the package.

`Tracer.installed()` rebinds the layer-boundary functions of every
`latentcot` module (and `AdamW.step` on its class) to wrappers that record a
span per call: name, start, end, parent span and run id. Modules that import
a function by name (`from .model import forward`) hold their own reference,
so every module attribute bound to a wrapped function is rebound, and
`model`'s own globals too, through which `fill_latents` and the decoder reach
`forward`. Leaving the block restores the originals.

Spans stay in memory; `layer_metrics` turns them into the per-layer metrics.
Bookkeeping a wrapper does outside the wrapped call (counting graph nodes,
reading file sizes) runs inside a `trace` span, so it is charged to the
tracer's self time and not to the layer that called the wrapped function.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into the tracer's span list
    run_id: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run_id = ""

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, run_id=self.run_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, before=None, after=None):
        """`before(args, kwargs)` and `after(args, kwargs, result)` return
        attributes for the call's span; both run inside a `trace` span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if before is not None:
                with tracer.span("trace"):
                    attrs.update(before(args, kwargs))
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                with tracer.span("trace"):
                    attrs.update(after(args, kwargs, result))
            tracer.spans[idx].attrs = attrs
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        restore = install(self)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _file_bytes(path) -> int:
    return os.path.getsize(path)


def count_graph_nodes(loss, stop_at=None) -> int:
    """Nodes a backward pass from `loss` visits: ancestors through
    `Tensor.parents`, not expanding stop-gradient barriers or `stop_at` nodes."""
    stop = {id(t) for t in stop_at} if stop_at is not None else set()
    seen, todo = {id(loss)}, [loss]
    while todo:
        node = todo.pop()
        if node.barrier or id(node) in stop:
            continue
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def _backward_nodes(args, kwargs):
    return {"nodes": count_graph_nodes(args[0], kwargs.get("stop_at"))}


def _decode_counts(args, kwargs, result):
    traj = result[1]
    latent = sum(1 for s in traj.steps if hasattr(s, "vector"))
    return {"tokens": len(traj.steps), "latent_steps": latent,
            "latent_runs": len(traj.latent_run_lengths()), "truncated": int(traj.truncated)}


# module -> {function name: (before, after)}; these are the layer boundaries.
# Per-primitive autodiff ops are deliberately not wrapped: a span per array
# op would cost more than the op itself.
TARGETS = {
    "tasks": {
        "build_corpus": (None, lambda a, k, r: {"raw": r[1]["raw"], "curated": r[1]["curated"]}),
        "write_dataset": (None, lambda a, k, r: {"bytes": _file_bytes(a[1])}),
        "read_dataset": (None, None),
    },
    "layouts": {name: (None, None) for name in
                ("build_prompt", "build_interleaved", "build_student", "build_teacher")},
    "model": {
        "forward": (None, lambda a, k, r: {"positions": a[0].length}),
        "build_attention_mask": (None, None),
        "fill_latents": (None, lambda a, k, r: {"slots": len(r)}),
        "decode_with_latents": (None, _decode_counts),
        "save_checkpoint": (None, lambda a, k, r: {"bytes": _file_bytes(a[1])}),
        "load_checkpoint": (None, lambda a, k, r: {"bytes": _file_bytes(a[0])}),
        "copy_params": (None, None),
    },
    "autodiff": {"backward": (_backward_nodes, None)},
    "sft": {name: (None, None) for name in
            ("train_stage1", "train_stage2", "train_stage3", "stage2_sample_losses",
             "stage3_sample_losses", "_student_pass", "emit_target_latents",
             "measure_obs_accuracy")},
    "rl": {
        "train_rl": (None, None),
        "rollout_group": (None, None),
        "score_trajectory": (None, None),
        "latent_gradient_norm": (None, None),
        "filter_by_accuracy": (None, lambda a, k, r: {"groups": len(a[0]), "retained": len(r)}),
    },
    "vocab": {"extract_boxed": (None, None)},
    "cli": {name: (None, None) for name in ("main", "cmd_train_sft", "cmd_train_rl")},
}


def install(tracer: Tracer) -> list:
    """Wrap every target; returns (owner, attribute, original) to restore."""
    import latentcot.autodiff  # noqa: F401  (load every module before rebinding)
    import latentcot.cli  # noqa: F401
    from latentcot.sft import AdamW

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "latentcot" or n.startswith("latentcot."))]
    wrappers = {}
    for short, funcs in TARGETS.items():
        home = sys.modules[f"latentcot.{short}"]
        for fname, (before, after) in funcs.items():
            original = getattr(home, fname)
            wrappers[id(original)] = (original, tracer.wrap(f"{short}.{fname}", original,
                                                            before, after))
    restore = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])
    restore.append((AdamW, "step", AdamW.step))
    AdamW.step = tracer.wrap("sft.AdamW.step", AdamW.step)
    return restore


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list:
    """Each span's duration minus its children's. Spans are strictly nested
    (one thread, opened and closed in stack order), so children never
    overlap."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


# name -> unit, in the order a traced run prints them
LAYER_UNITS = {
    "tasks.build_corpus.s": "s",
    "tasks.build_corpus.raw": "count",
    "tasks.curated_ratio": "ratio",
    "tasks.write_dataset.s": "s",
    "tasks.read_dataset.s": "s",
    "tasks.dataset_bytes": "bytes",
    "layouts.build.calls": "count",
    "layouts.build.s": "s",
    "model.forward.calls": "count",
    "model.forward.positions": "count",
    "model.forward.self_s": "s",
    "model.build_attention_mask.calls": "count",
    "model.build_attention_mask.s": "s",
    "model.fill_latents.calls": "count",
    "model.fill_latents.s": "s",
    "model.fill_latents.forward_calls": "count",
    "model.fill_latents.positions_per_slot": "count",
    "model.decode.calls": "count",
    "model.decode.s": "s",
    "model.decode.tokens": "count",
    "model.decode.latent_steps": "count",
    "model.decode.truncated": "count",
    "model.decode.positions_per_token": "count",
    "model.checkpoint.save_s": "s",
    "model.checkpoint.load_s": "s",
    "model.checkpoint.bytes": "bytes",
    "model.copy_params.calls": "count",
    "model.copy_params.s": "s",
    "autodiff.backward.calls": "count",
    "autodiff.backward.s": "s",
    "autodiff.backward.graph_nodes": "count",
    "autodiff.backward.ns_per_node": "ns",
    "sft.stage1.step_ms.p50": "ms",
    "sft.stage2.step_ms.p50": "ms",
    "sft.stage3.step_ms.p50": "ms",
    "sft.teacher_forward.s": "s",
    "sft.fill.s": "s",
    "sft.final_forward.s": "s",
    "sft.align_backward.s": "s",
    "sft.backward.s": "s",
    "sft.adamw.s": "s",
    "sft.emit_targets.s": "s",
    "sft.obs_diag.s": "s",
    "sft.latent_slots": "count",
    "rl.step_ms.p50": "ms",
    "rl.rollout.s": "s",
    "rl.rollout.truncated_ratio": "ratio",
    "rl.latent_runs_per_rollout": "count",
    "rl.score.s": "s",
    "rl.backward.s": "s",
    "rl.latent_grad_norm.s": "s",
    "rl.copy_params.s": "s",
    "rl.adamw.s": "s",
    "rl.retained_ratio": "ratio",
    "vocab.extract_boxed.calls": "count",
    "vocab.extract_boxed.s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list, setups: int, rounds: int,
                  traced_s: float = 0.0, untraced_s: float = 0.0) -> dict:
    """Per-layer metrics from a traced run.

    Spans whose run id starts with "setup" feed the `tasks.*` metrics, per
    set-up repetition; the other metrics use the spans of the timed rounds,
    per round, except the checkpoint metrics, which are per call over both.
    `traced_s` and `untraced_s` are the wall clocks of the same work with
    and without tracing.
    """
    selfs = self_times(spans)
    setup = [i for i, s in enumerate(spans) if s.run_id.startswith("setup")]
    timed = [i for i, s in enumerate(spans) if not s.run_id.startswith("setup")]

    def ancestors(i):
        return [spans[j].name for j in _chain(spans, i)[1:]]

    def parent_name(i):
        p = spans[i].parent
        return spans[p].name if p is not None else None

    def pick(idx, name, parent=None, under=None, not_under=()):
        return [i for i in idx if spans[i].name == name
                and (parent is None or parent_name(i) in parent)
                and (under is None or any(a in under for a in ancestors(i)))
                and not any(a in not_under for a in ancestors(i))]

    def total(idx) -> float:
        return sum(spans[i].duration for i in idx)

    def attr(idx, key) -> float:
        return sum(spans[i].attrs.get(key, 0) for i in idx)

    per_setup = lambda v: _ratio(v, setups)  # noqa: E731
    per_round = lambda v: _ratio(v, rounds)  # noqa: E731

    def step_ms(owner: str, marker: str, last_ends_owner: bool) -> float:
        """Median interval between successive `marker` spans inside each
        `owner` span. With `last_ends_owner` a step runs from one marker's
        start to the next (the last to the owner's end); otherwise from one
        marker's end to the next."""
        intervals = []
        for o in pick(timed, owner):
            inside = [i for i in pick(timed, marker) if o in _chain(spans, i)]
            marks = sorted(spans[i].start if last_ends_owner else spans[i].end for i in inside)
            if last_ends_owner and marks:
                marks.append(spans[o].end)
            intervals += [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
        return _median_or_zero(intervals)

    m = {}
    corpus = pick(setup, "tasks.build_corpus")
    m["tasks.build_corpus.s"] = per_setup(total(corpus))
    m["tasks.build_corpus.raw"] = per_setup(attr(corpus, "raw"))
    m["tasks.curated_ratio"] = _ratio(attr(corpus, "curated"), attr(corpus, "raw"))
    writes = pick(setup, "tasks.write_dataset")
    m["tasks.write_dataset.s"] = per_setup(total(writes))
    m["tasks.read_dataset.s"] = per_setup(total(pick(setup, "tasks.read_dataset")))
    m["tasks.dataset_bytes"] = per_setup(attr(writes, "bytes"))

    builds = [i for i in timed if spans[i].name.startswith("layouts.build_")
              and not any(a.startswith("layouts.build_") for a in ancestors(i))]
    m["layouts.build.calls"] = per_round(len(builds))
    m["layouts.build.s"] = per_round(total(builds))

    fwd = pick(timed, "model.forward")
    m["model.forward.calls"] = per_round(len(fwd))
    m["model.forward.positions"] = per_round(attr(fwd, "positions"))
    m["model.forward.self_s"] = per_round(sum(selfs[i] for i in fwd))
    masks = pick(timed, "model.build_attention_mask")
    m["model.build_attention_mask.calls"] = per_round(len(masks))
    m["model.build_attention_mask.s"] = per_round(total(masks))

    fill = pick(timed, "model.fill_latents")
    fill_fwd = pick(timed, "model.forward", parent={"model.fill_latents"})
    m["model.fill_latents.calls"] = per_round(len(fill))
    m["model.fill_latents.s"] = per_round(total(fill))
    m["model.fill_latents.forward_calls"] = per_round(len(fill_fwd))
    m["model.fill_latents.positions_per_slot"] = _ratio(attr(fill_fwd, "positions"),
                                                        attr(fill, "slots"))

    dec = pick(timed, "model.decode_with_latents")
    dec_fwd = pick(timed, "model.forward", parent={"model.decode_with_latents"})
    m["model.decode.calls"] = per_round(len(dec))
    m["model.decode.s"] = per_round(total(dec))
    m["model.decode.tokens"] = per_round(attr(dec, "tokens"))
    m["model.decode.latent_steps"] = per_round(attr(dec, "latent_steps"))
    m["model.decode.truncated"] = per_round(attr(dec, "truncated"))
    m["model.decode.positions_per_token"] = _ratio(attr(dec_fwd, "positions"),
                                                   attr(dec, "tokens"))

    everything = range(len(spans))
    saves = pick(everything, "model.save_checkpoint")
    loads = pick(everything, "model.load_checkpoint")
    m["model.checkpoint.save_s"] = _ratio(total(saves), len(saves))
    m["model.checkpoint.load_s"] = _ratio(total(loads), len(loads))
    m["model.checkpoint.bytes"] = _ratio(attr(saves + loads, "bytes"), len(saves + loads))
    copies = pick(timed, "model.copy_params")
    m["model.copy_params.calls"] = per_round(len(copies))
    m["model.copy_params.s"] = per_round(total(copies))

    bwd = pick(timed, "autodiff.backward")
    m["autodiff.backward.calls"] = per_round(len(bwd))
    m["autodiff.backward.s"] = per_round(total(bwd))
    m["autodiff.backward.graph_nodes"] = per_round(attr(bwd, "nodes"))
    m["autodiff.backward.ns_per_node"] = _ratio(total(bwd) * 1e9, attr(bwd, "nodes"))

    stages = {"sft.train_stage1", "sft.train_stage2", "sft.train_stage3"}
    losses = {"sft.stage2_sample_losses", "sft.stage3_sample_losses"}
    for n in (1, 2, 3):
        m[f"sft.stage{n}.step_ms.p50"] = step_ms(f"sft.train_stage{n}", "sft.AdamW.step", False)
    m["sft.teacher_forward.s"] = per_round(total(pick(timed, "model.forward",
                                                      parent={"sft.stage2_sample_losses"})))
    emit = {"sft.emit_target_latents"}
    train_fill = pick(timed, "model.fill_latents", parent={"sft._student_pass"},
                      under=stages, not_under=emit)
    m["sft.fill.s"] = per_round(total(train_fill))
    m["sft.final_forward.s"] = per_round(total(pick(timed, "model.forward",
                                                    parent={"sft._student_pass"},
                                                    under=stages, not_under=emit)))
    m["sft.align_backward.s"] = per_round(total(pick(timed, "autodiff.backward", parent=losses)))
    m["sft.backward.s"] = per_round(total(pick(timed, "autodiff.backward", parent=stages)))
    m["sft.adamw.s"] = per_round(total(pick(timed, "sft.AdamW.step", under=stages)))
    m["sft.emit_targets.s"] = per_round(total(pick(timed, "sft.emit_target_latents")))
    m["sft.obs_diag.s"] = per_round(total(pick(timed, "sft.measure_obs_accuracy")))
    m["sft.latent_slots"] = per_round(attr(train_fill, "slots"))

    rl = {"rl.train_rl"}
    rollouts = pick(timed, "model.decode_with_latents", under={"rl.rollout_group"})
    filters = pick(timed, "rl.filter_by_accuracy")
    m["rl.step_ms.p50"] = step_ms("rl.train_rl", "rl.rollout_group", True)
    m["rl.rollout.s"] = per_round(total(pick(timed, "rl.rollout_group")))
    m["rl.rollout.truncated_ratio"] = _ratio(attr(rollouts, "truncated"), len(rollouts))
    m["rl.latent_runs_per_rollout"] = _ratio(attr(rollouts, "latent_runs"), len(rollouts))
    m["rl.score.s"] = per_round(total(pick(timed, "rl.score_trajectory")))
    m["rl.backward.s"] = per_round(total(pick(timed, "autodiff.backward", parent=rl)))
    m["rl.latent_grad_norm.s"] = per_round(total(pick(timed, "rl.latent_gradient_norm")))
    m["rl.copy_params.s"] = per_round(total(pick(timed, "model.copy_params", parent=rl)))
    m["rl.adamw.s"] = per_round(total(pick(timed, "sft.AdamW.step", under=rl)))
    m["rl.retained_ratio"] = _ratio(attr(filters, "retained"), attr(filters, "groups"))

    boxed = pick(timed, "vocab.extract_boxed")
    m["vocab.extract_boxed.calls"] = per_round(len(boxed))
    m["vocab.extract_boxed.s"] = per_round(total(boxed))
    cli = [i for i in timed if spans[i].name.startswith("cli.")]
    m["cli.overhead_s"] = per_round(sum(selfs[i] for i in cli))

    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_frac"] = _ratio(traced_s - untraced_s, untraced_s)
    if list(m) != list(LAYER_UNITS):
        raise RuntimeError("layer metrics out of step with LAYER_UNITS")
    return m


def _chain(spans, i):
    """Indices of `i` and all its ancestors."""
    out = []
    while i is not None:
        out.append(i)
        i = spans[i].parent
    return out
