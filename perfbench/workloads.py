"""One benchmark workload, run in this process (started by `run.py`).

    python3 perfbench/workloads.py --workload sft --seed 1 --seconds 30 --trace 0 \
        --result .perfbench-work/sft.result.json --spawned-at <monotonic time>

Each workload is a closed loop with one client: the next unit of work starts
when the previous one ends. Set-up (a fresh interpreter importing latentcot,
corpus generation and curation, dataset write and read-back, checkpoint
load) runs several times and its median counts. The timed phase then runs
rounds, each a fixed unit of work on one chunk of the seeded inputs, until
`--seconds` of rounds have run. Output checks run after each round, outside
its wall clock. With `--trace 1` every round runs twice on the same chunk,
untraced then traced, and the result holds the per-layer metrics from the
traced rounds' spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import latentcot  # noqa: E402
from latentcot import autodiff as ad, cli, layouts, model, rl, tasks, vocab  # noqa: E402
from latentcot.sft import TargetLatentStore  # noqa: E402
from spans import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402

IMPORTED = time.monotonic()

FIXTURE = HERE / "fixtures" / "stage3.ckpt"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 9
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit of every end-to-end metric an untraced run reports
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Round:
    """One fixed unit of work on one chunk of inputs."""
    chunk: int
    wall: float = 0.0
    ops: int = 0
    failed: int = 0
    parts: dict = field(default_factory=dict)  # part name -> (wall s, ops)
    split_ms: list = field(default_factory=list)  # separately timed pieces, in order
    outputs: list = field(default_factory=list)


def stratified_chunks(records, chunk_count: int, per_chunk: dict) -> list:
    """`chunk_count` chunks with exactly `per_chunk[family]` records of each
    family, in corpus order; None when the corpus is too small."""
    by_family = {f: [r for r in records if r.sample.family == f] for f in per_chunk}
    if any(len(by_family[f]) < n * chunk_count for f, n in per_chunk.items()):
        return None
    return [[r for f, n in per_chunk.items() for r in by_family[f][i * n:(i + 1) * n]]
            for i in range(chunk_count)]


def seeded_chunks(seed: int, chunk_count: int, per_chunk: dict) -> list:
    """Curated corpus from `seed` with the default family mix, cut into
    chunks of fixed family counts so every chunk costs the same work."""
    count = 2 * chunk_count * sum(per_chunk.values())
    while True:
        records, _ = tasks.build_corpus(tasks.CurationConfig(sample_count=count, seed=seed))
        chunks = stratified_chunks(records, chunk_count, per_chunk)
        if chunks is not None:
            return chunks
        count *= 2


def write_and_read(records, path: Path) -> list:
    tasks.write_dataset(records, path)
    back = tasks.read_dataset(path)
    if [r.to_dict() for r in back] != [r.to_dict() for r in records]:
        raise RuntimeError(f"{path}: dataset does not read back as written")
    return back


def run_dir(work: Path, chunk: int) -> Path:
    return cli.ensure_run_dir(work / f"chunk{chunk:02d}")


def command(argv: list) -> tuple:
    """One `latentcot` command in-process; returns (wall s, return code).
    The command's progress lines are dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        t = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - t, code


def finite_column(rows, key) -> bool:
    return all(math.isfinite(float(r[key])) for r in rows)


def checkpoint_round_trips(path: Path, scratch: Path) -> bool:
    raw = path.read_bytes()
    model.save_checkpoint(model.load_checkpoint(path), scratch)
    return scratch.read_bytes() == raw


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Sft:
    """`train-sft` stages 1 -> 2 -> 3 through `cli.main` on one chunk of ten
    curated samples (8 lookup with 8 latent slots, 2 count with 16), for 3, 1
    and 3 epochs: the README recipe's ratio. Each stage command is timed on
    its own."""

    per_chunk = {"lookup": 8, "count": 2}
    chunk_count = 1
    best_of = 5  # of about 8 repetitions in 35 s
    planned_ops = 70  # training steps per round: 30 + 10 + 30
    stages = (
        ("stage1", ["--stage", "1", "--epochs", "3", "--max-steps", "30"]),
        ("stage2", ["--stage", "2", "--epochs", "1", "--max-steps", "10"]),
        ("stage3", ["--stage", "3", "--epochs", "3", "--max-steps", "30"]),
    )
    # Training order comes from the trainer's own seed, fixed here so it does
    # not follow the workload seed. Its first epoch, shared by stages 2 and 3,
    # visits the two count samples (chunk positions 8 and 9) back to back, so
    # peak memory includes two 16-slot steps in a row.
    train_seed = 4
    # The recipe's stage 1 runs the 48-sample observation diagnostic at step
    # 0, every 250 steps and at the end: 33 passes over 7,800 steps, 0.2
    # diagnostic samples per step. Two passes over 3 samples per 30 steps
    # keep that share.
    diag_samples = 3
    logs = {"stage1": ("loss",), "stage2": ("ntp", "align_obs", "total"),
            "stage3": ("ntp", "align_latent", "total")}

    def setup(self, work: Path, seed: int):
        self.work = work
        self.chunks = seeded_chunks(seed, self.chunk_count, self.per_chunk)
        diag, _ = tasks.build_corpus(tasks.CurationConfig(sample_count=10, seed=seed + 101))
        for i, chunk in enumerate(self.chunks):
            d = run_dir(work, i)
            write_and_read(chunk, d / "data" / "train.jsonl")
            write_and_read(diag[:self.diag_samples], d / "data" / "eval.jsonl")

    def run_round(self, rnd: Round):
        d = self.work / f"chunk{rnd.chunk:02d}"
        started = time.perf_counter()
        for name, flags in self.stages:
            wall, code = command(["train-sft", "--run-dir", str(d), "--seed", str(self.train_seed),
                                  "--learning-rate", "1e-3", *flags])
            if code != 0:
                raise RuntimeError(f"train-sft {name} returned {code}")
            rnd.parts[name] = (wall, 0)
            rnd.split_ms.append(wall * 1e3)
        rnd.wall = time.perf_counter() - started

    def check_round(self, rnd: Round) -> list:
        d = self.work / f"chunk{rnd.chunk:02d}"
        problems = []
        for name, _ in self.stages:
            rows = cli.read_csv(d / "logs" / f"{name}.csv")
            rnd.parts[name] = (rnd.parts[name][0], len(rows))
            rnd.ops += len(rows)
            if not all(finite_column(rows, key) for key in self.logs[name]):
                problems.append(f"{name}: non-finite loss in the log")
        rows = cli.read_csv(d / "logs" / "stage3.csv")
        tail = rows[-max(1, len(rows) // 10):]
        rnd.outputs.append(statistics.fmean(float(r["ntp"]) for r in tail))
        config = model.ModelConfig()
        store = TargetLatentStore.load(d / "checkpoints" / "latent_store.npz")
        chunk = self.chunks[rnd.chunk]
        if sorted(store.entries) != sorted(r.sample_id for r in chunk):
            problems.append("latent store ids differ from the trained samples")
        for rec in chunk:
            images = sum(isinstance(s, tasks.ImageSeg) for s in rec.sample.cot)
            want = (config.layer_count, 8 * images, config.hidden_dim)
            got = store.entries.get(rec.sample_id)
            if got is None or got.shape != want:
                problems.append(f"latent store entry {rec.sample_id}: "
                                f"{None if got is None else got.shape} != {want}")
        for ckpt in ("base", "warmup", "stage2", "sft"):
            if not checkpoint_round_trips(d / "checkpoints" / f"{ckpt}.ckpt", d / "roundtrip.ckpt"):
                problems.append(f"{ckpt}.ckpt does not round-trip bit-exactly")
        return problems

    def digest(self) -> dict:
        blob = (self.work / "chunk00" / "checkpoints" / "sft.ckpt").read_bytes()
        return {"sft_checkpoint_sha256": hashlib.sha256(blob).hexdigest()}

    def named_metrics(self, rounds: list) -> dict:
        m = {}
        for name, _ in self.stages:
            wall = sum(r.parts[name][0] for r in rounds)
            m[f"sft.{name}.samples_per_s"] = (sum(r.parts[name][1] for r in rounds) / wall, "1/s")
        m["sft.stage3.ntp_tail"] = (statistics.fmean(r.outputs[0] for r in rounds), "nats")
        return m


class EvalSweep:
    """Greedy decoding of one chunk of five curated eval samples (4 lookup,
    1 count) at k_test 0, 8 and 16 from the committed stage-3 checkpoint,
    judged the way `cli.evaluate` judges."""

    per_chunk = {"lookup": 4, "count": 1}
    chunk_count = 6
    ks = (0, 8, 16)
    planned_ops = 15  # decodes per round: 5 samples x 3 values of k
    best_of = 6  # of about 9 repetitions of each chunk in 35 s
    replayed = 2  # samples of chunk 0 whose decodes are replayed per k

    def setup(self, work: Path, seed: int):
        self.work = work
        chunks = seeded_chunks(seed + 101, self.chunk_count, self.per_chunk)
        records = write_and_read([r for c in chunks for r in c], work / "eval.jsonl")
        n = sum(self.per_chunk.values())
        self.chunks = [records[i * n:(i + 1) * n] for i in range(self.chunk_count)]
        self.ckpt = model.load_checkpoint(FIXTURE)
        self.first = None

    def run_round(self, rnd: Round):
        ckpt = self.ckpt
        started = time.perf_counter()
        for k in self.ks:
            for rec in self.chunks[rnd.chunk]:
                t = time.perf_counter()
                prompt = layouts.build_prompt(rec.sample)
                max_new = ckpt.config.max_positions - prompt.length - 1
                layout, traj = model.decode_with_latents(prompt, k, ckpt.params, ckpt.config,
                                                         temperature=0.0, max_new=max_new)
                tokens = [s.token for s in traj.steps if isinstance(s, model.TextStep)]
                correct = vocab.extract_boxed(tokens) == vocab.encode(rec.sample.gold)
                rnd.split_ms.append((time.perf_counter() - t) * 1e3)
                rnd.outputs.append((k, rec.sample_id, max_new, layout, traj, correct))
        rnd.wall = time.perf_counter() - started
        rnd.ops = len(rnd.outputs)
        rnd.parts["decode"] = (sum(rnd.split_ms) / 1e3, sum(len(o[4].steps) for o in rnd.outputs))
        if self.first is None:
            self.first = rnd

    def check_round(self, rnd: Round) -> list:
        problems = []
        for k, sid, max_new, _, traj, _ in rnd.outputs:
            problems += [f"sample {sid} k={k}: {p}" for p in decode_contract(traj, k, max_new)]
        if rnd is not self.first:  # keep memory flat however many rounds run
            rnd.outputs = [(k, sid, correct) for k, sid, _, _, _, correct in rnd.outputs]
        return problems

    def final_checks(self) -> list:
        """Decode-vs-prefix-replay on a fixed subset, outside the timed phase."""
        if self.first is None:
            return ["no completed round to replay"]
        problems = []
        ids = {r.sample_id for r in self.chunks[0][:self.replayed]}
        for k, sid, _, layout, traj, _ in self.first.outputs:
            if sid in ids and not replay_matches(layout, traj, self.ckpt):
                problems.append(f"sample {sid} k={k}: prefix replay differs from the decode")
        return problems

    def digest(self) -> dict:
        h = hashlib.sha256()
        for k, sid, _, _, traj, _ in self.first.outputs:
            h.update(f"{k}:{sid}:".encode())
            for s in traj.steps:
                h.update(s.vector.tobytes() if isinstance(s, model.LatentStep)
                         else f"{s.token},{int(s.forced)};".encode())
        return {"eval_stream_sha256": h.hexdigest()}

    def named_metrics(self, rounds: list) -> dict:
        sample_ms = [x for r in rounds for x in r.split_ms]
        decode_s = sum(r.parts["decode"][0] for r in rounds)
        return {
            "eval.tokens_per_s": (sum(r.parts["decode"][1] for r in rounds) / decode_s, "1/s"),
            "eval.sample_ms.p50": (float(np.percentile(sample_ms, 50)), "ms"),
            "eval.sample_ms.p90": (float(np.percentile(sample_ms, 90)), "ms"),
            "eval.accuracy": (sum(o[-1] for r in rounds for o in r.outputs) / len(sample_ms),
                              "ratio"),
        }


def decode_contract(traj, k: int, max_new: int) -> list:
    """Every sampled latent-start opens a run of exactly k latent steps, then
    the forced end token; only a trajectory cut at max_new may end early."""
    problems = []
    steps = traj.steps
    if len(steps) > max_new:
        problems.append(f"{len(steps)} steps exceed max_new {max_new}")
    start, end = vocab.TOKEN_TO_ID[vocab.LATENT_START], vocab.TOKEN_TO_ID[vocab.LATENT_END]
    i = 0
    while i < len(steps):
        s = steps[i]
        if isinstance(s, model.LatentStep):
            problems.append(f"latent step {i} outside a run")
        elif s.token == start and not s.forced:
            run = steps[i + 1:i + 1 + k]
            closed = i + 1 + k < len(steps)
            if not all(isinstance(x, model.LatentStep) for x in run):
                problems.append(f"run at {i} is shorter than {k}")
            elif closed:
                after = steps[i + 1 + k]
                if not (isinstance(after, model.TextStep) and after.token == end and after.forced):
                    problems.append(f"run at {i} is not closed by the forced end token")
            elif not (traj.truncated and len(steps) == max_new):
                problems.append(f"run at {i} ends early without truncation")
            i += k
        elif s.forced and s.token != end:
            problems.append(f"forced step {i} is not the end token")
        i += 1
    return problems


def replay_matches(layout, traj, ckpt) -> bool:
    """Each greedy token and each fed-back latent vector equals what a full
    forward over the decoded prefix gives, bit for bit."""
    segments = layout.segments
    first = len(segments) - len(traj.steps)
    for j, step in enumerate(traj.steps):
        if isinstance(step, model.TextStep) and step.forced:
            continue
        prefix = model.SequenceLayout(segments[:first + j])
        mask = model.build_attention_mask(prefix, model.MaskMode.CAUSAL)
        with ad.no_grad():
            logits, stack = model.forward(prefix, mask, ckpt.params, ckpt.config)
        if isinstance(step, model.LatentStep):
            if not np.array_equal(stack[-1].data[-1], step.vector):
                return False
        elif int(np.argmax(logits.data[-1])) != step.token:
            return False
    return True


class RlVlpo:
    """`train-rl --algo vlpo` (group 8, k_train_rl 8, temperature 0.5)
    through `cli.main`, from the committed stage-3 checkpoint, on a chunk of
    one curated RL prompt: one RL step per command, so each step's time is
    observed and repeated. The ten prompts are 8 lookup and 2 count."""

    prompts = {"lookup": 8, "count": 2}
    chunk_count = 10
    group_size = 8
    planned_ops = 1  # RL steps per round
    best_of = 4  # of about 6 repetitions of each chunk in 35 s
    columns = ("mean_reward", "accuracy", "text_ratio_mean", "latent_ratio_mean",
               "latent_grad_norm")

    def setup(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        chunks = [[r] for r in seeded_chunks(seed + 202, 1, self.prompts)[0]]
        ckpt = model.load_checkpoint(FIXTURE)
        if ckpt.stage != "sft" or ckpt.config != model.ModelConfig():
            raise RuntimeError(f"{FIXTURE}: not a reference-shape stage-3 checkpoint")
        self.rl_config = rl.RlConfig()
        self.first_logs = {}  # chunk -> log bytes of its first round
        for i, chunk in enumerate(chunks):
            d = run_dir(work, i)
            write_and_read(chunk, d / "data" / "rl.jsonl")
            shutil.copyfile(FIXTURE, d / "checkpoints" / "sft.ckpt")

    def run_round(self, rnd: Round):
        d = self.work / f"chunk{rnd.chunk:02d}"
        wall, code = command(["train-rl", "--run-dir", str(d), "--algo", "vlpo",
                              "--seed", str(self.seed), "--k-train-rl", "8",
                              "--group-size", str(self.group_size), "--learning-rate", "3e-5"])
        if code != 0:
            raise RuntimeError(f"train-rl returned {code}")
        rnd.wall = wall

    def check_round(self, rnd: Round) -> list:
        d = self.work / f"chunk{rnd.chunk:02d}"
        rows = cli.read_csv(d / "logs" / "rl_vlpo.csv")
        rnd.ops = len(rows)
        rnd.parts["train-rl"] = (rnd.wall, len(rows))
        self.first_logs.setdefault(rnd.chunk, (d / "logs" / "rl_vlpo.csv").read_bytes())
        problems = []
        for row in rows:
            step = row["step"]
            if not all(math.isfinite(float(row[c])) for c in self.columns):
                problems.append(f"step {step}: non-finite logged value")
            acc = float(row["accuracy"])
            if int(row["retained"]) and not 0 < acc < self.rl_config.accuracy_threshold:
                problems.append(f"step {step}: retained with accuracy {acc}")
        return problems

    def final_checks(self) -> list:
        """Replays each chunk's round once, outside the timed phase, recording
        every reward: each must be 0, bonus or 1 + bonus, and each replay's
        log must equal the chunk's first log byte for byte."""
        if not self.first_logs:
            return ["no completed round to replay"]
        rewards, original = [], rl.compute_reward

        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            rewards.append(out[0])
            return out

        problems = []
        rl.compute_reward = recording
        try:
            for chunk, log in sorted(self.first_logs.items()):
                self.run_round(Round(chunk))
                if (self.work / f"chunk{chunk:02d}" / "logs" / "rl_vlpo.csv").read_bytes() != log:
                    problems.append(f"replaying chunk {chunk} gave a different log")
        finally:
            rl.compute_reward = original
        bonus = self.rl_config.format_bonus
        if len(rewards) != self.group_size * len(self.first_logs):
            problems.append(f"{len(rewards)} rewards recorded for {len(self.first_logs)} groups")
        problems += [f"reward {r} is not 0, {bonus} or {1.0 + bonus}" for r in rewards
                     if r not in (0.0, bonus, 1.0 + bonus)]
        return problems

    def digest(self) -> dict:
        blob = (self.work / "chunk00" / "logs" / "rl_vlpo.csv").read_bytes()
        return {"rl_log_sha256": hashlib.sha256(blob).hexdigest()}

    def named_metrics(self, rounds: list) -> dict:
        wall = sum(r.parts["train-rl"][0] for r in rounds)
        return {"rl.steps_per_s": (sum(r.parts["train-rl"][1] for r in rounds) / wall, "1/s")}


WORKLOADS = {"sft": Sft, "eval-sweep": EvalSweep, "rl-vlpo": RlVlpo}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def best_rounds(rounds: list, best_of: int) -> list:
    """(ops, fastest wall clock) of each chunk's round, over the passing ones
    among its first `best_of` repetitions. Where a round timed its
    operations one by one, its fastest wall clock is the sum of each
    operation's fastest repetition."""
    by_chunk = {}
    for r in rounds:
        by_chunk.setdefault(r.chunk, []).append(r)
    best = []
    for reps in by_chunk.values():
        reps = [r for r in reps[:best_of] if not r.failed]
        if not reps:
            continue
        if reps[0].split_ms:
            wall = sum(min(times) for times in zip(*(r.split_ms for r in reps))) / 1e3
        else:
            wall = min(r.wall for r in reps)
        best.append((reps[0].ops, wall))
    return best


def end_to_end(setup_s: float, rounds: list, peak_rss_mb: float, best_of: int) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": sum(wall for _, wall in best_rounds(rounds, best_of)),
        "peak_rss_mb": peak_rss_mb,
    }


def src_tree_hash() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
        "src_sha256": src_tree_hash(),
        "seed": seed,
    }


def import_seconds() -> float:
    """Wall clock of a fresh interpreter importing numpy and latentcot, the
    part of set-up a new process pays before any work."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import latentcot.cli"], check=True, timeout=60)
    return time.perf_counter() - t


def run_round(workload, chunk: int, tracer: Tracer | None, label: str) -> tuple:
    """Run and check one round; returns (round, problems). Each round
    starts from a collected heap, as a fresh command would, so garbage of
    the previous round is neither collected on its clock nor adds to its peak
    memory."""
    rnd = Round(chunk)
    gc.collect()
    try:
        if tracer is None:
            workload.run_round(rnd)
        else:
            tracer.run_id = label
            with tracer.installed():
                workload.run_round(rnd)
        problems = workload.check_round(rnd)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        problems = [f"round on chunk {chunk} raised"]
        rnd.ops = max(rnd.ops, workload.planned_ops)
    if problems:
        rnd.failed = rnd.ops
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
    return rnd, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one perfbench workload in this process")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    args = parser.parse_args(argv)
    if Path(latentcot.__file__).resolve().parent != ROOT / "src" / "latentcot":
        raise SystemExit(f"latentcot imported from {latentcot.__file__}, not from {ROOT / 'src'}")
    if any(os.environ.get(v) != "1" for v in BLAS_VARS):
        raise SystemExit("BLAS threads are not pinned to 1; start through perfbench/run.py")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None

    setups = []
    for i in range(SETUP_REPEATS):
        setups.append(import_seconds())
        t = time.perf_counter()
        if tracer is None:
            workload.setup(work, args.seed)
        else:
            tracer.run_id = f"setup-{i}"
            with tracer.installed():
                workload.setup(work, args.seed)
        setups[-1] += time.perf_counter() - t
    setup_s = statistics.median(setups)
    first_timed = time.monotonic()

    rounds, traced, problems = [], [], []
    spent = 0.0
    while len(rounds) < workload.chunk_count or spent < args.seconds:
        chunk = len(rounds) % workload.chunk_count
        rnd, bad = run_round(workload, chunk, None, f"round-{len(rounds)}")
        rounds.append(rnd)
        problems += bad
        spent += rnd.wall
        if tracer is not None:
            twin, bad = run_round(workload, chunk, tracer, f"traced-{len(traced)}")
            traced.append(twin)
            problems += bad
            spent += twin.wall
    timed_s = sum(r.wall for r in rounds)
    if hasattr(workload, "final_checks"):
        bad = workload.final_checks()
        problems += bad
        for p in bad:
            print(f"check failed: {p}", file=sys.stderr)
        if bad:
            rounds[0].failed = rounds[0].ops
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_rounds = rounds + traced
    attempted = sum(r.ops for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    good = [r for r in rounds if not r.failed] or rounds
    named = {"setup_s": (setup_s, "s"),
             "wall_s": (statistics.median(r.wall for r in rounds), "s"),
             "peak_rss_mb": (peak_rss_mb, "MB"),
             "failed_ops_frac": (failed / attempted, "ratio")}
    try:
        named.update(workload.named_metrics(good))
    except (KeyError, ZeroDivisionError, ValueError, IndexError) as e:
        problems.append(f"workload metrics unavailable: {e!r}")
    try:
        digests = workload.digest()
    except OSError as e:
        digests = {}
        problems.append(f"digest unavailable: {e}")
    if tracer is None:
        metrics = end_to_end(setup_s, rounds, peak_rss_mb, workload.best_of)
        units = END_TO_END_UNITS
    else:
        metrics = layer_metrics(tracer.spans, setups=SETUP_REPEATS, rounds=len(traced),
                                traced_s=end_to_end(0, traced, 0, workload.best_of)["wall_s"],
                                untraced_s=end_to_end(0, rounds, 0, workload.best_of)["wall_s"])
        units = LAYER_UNITS
        if args.workload == "rl-vlpo":
            # traced twins sample the same rollouts as the untraced rounds
            tokens = sum(s.attrs.get("tokens", 0) for s in tracer.spans
                         if s.name == "model.decode_with_latents")
            named["rl.rollout_tokens_per_s"] = (tokens / timed_s, "1/s")

    line = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    info = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "rounds": len(rounds), "traced_rounds": len(traced), "timed_s": timed_s,
            "round_walls": [r.wall for r in rounds],
            "setup_repeats": setups, "import_s": IMPORTED - args.spawned_at,
            "start_to_timed_s": first_timed - args.spawned_at,
            "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
            "digests": digests, "facts": machine_facts(args.seed),
            "problems": problems}
    report(line, info)
    args.result.write_text(json.dumps({"line": line, "info": info}, indent=1))
    if tracer is not None:
        with open(work / "spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "run_id": s.run_id, **s.attrs}) + "\n")
    return 0


def report(line: dict, info: dict):
    out = io.StringIO()
    print(f"perfbench {info['workload']}  seed={info['facts']['seed']}  trace={info['trace']}  "
          f"rounds={info['rounds']}  ops={line['attempted']}  failed={line['failed']}  "
          f"correct={line['correct']}", file=out)
    print("  workload metrics (untraced rounds):", file=out)
    for name, m in info["named_metrics"].items():
        print(f"    {name:34s} {m['value']:14.6g} {m['unit']}", file=out)
    print("  reported metrics:", file=out)
    for name, m in line["metrics"].items():
        print(f"    {name:34s} {m['value']:14.6g} {m['unit']}", file=out)
    print(f"  digests: {json.dumps(info['digests'])}", file=out)
    print(f"  facts: {json.dumps(info['facts'])}", file=out)
    sys.stdout.write(out.getvalue())
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
