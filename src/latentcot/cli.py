"""Command-line harness: data generation, staged training, RL, evaluation.

Run directory layout:

    <run>/manifest.txt      one section per command: full config + input hashes
    <run>/data/*.jsonl      curated train/eval/rl splits
    <run>/checkpoints/      stage-labeled checkpoints + latent_store.npz
    <run>/logs/*.csv        per-stage training logs
    <run>/reports/          metrics.csv and sweep.svg

`train-sft`/`train-rl` take one `--field-name` flag per `StageConfig`/`RlConfig`
field; a flag overrides the command's default, which overrides the field's.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import vocab
from .gradcheck import TOLERANCE, run_gradcheck
from .layouts import build_prompt
from .model import (Checkpoint, ModelConfig, decode_with_latents, init_params,
                    load_checkpoint, save_checkpoint)
from .rl import Algo, RlConfig, compute_reward, train_rl
from .sft import (StageConfig, TargetLatentStore, train_stage1, train_stage2,
                  train_stage3)
from .tasks import CurationConfig, build_corpus, read_dataset, write_dataset

METRICS_FIELDS = ["run_id", "stage", "k_test", "accuracy", "lookup_accuracy",
                  "count_accuracy", "wall_clock_s"]

DEFAULT_SWEEP = [0, 4, 8, 10, 12, 16]

DIAG_SAMPLES = 48  # eval records the stage-1 observation diagnostic reads

# train-sft's stage-1 model-size flags and the ModelConfig fields they set
MODEL_SIZE_FLAGS = {"--layers": "layer_count", "--hidden-dim": "hidden_dim",
                    "--heads": "head_count", "--max-positions": "max_positions"}


# ---------------------------------------------------------------------------
# run directory and manifest
# ---------------------------------------------------------------------------

def ensure_run_dir(run_dir) -> Path:
    run_dir = Path(run_dir)
    for sub in ("data", "checkpoints", "logs", "reports"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    return run_dir


def file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(run_dir, command: str, config: dict, inputs: dict):
    lines = [f"[{command}]"]
    for k, v in sorted(config.items()):
        lines.append(f"{k}={v}")
    for name, path in sorted(inputs.items()):
        lines.append(f"input.{name}=sha256:{file_hash(path)}")
    with open(Path(run_dir) / "manifest.txt", "a") as f:
        f.write("\n".join(lines) + "\n\n")


def read_manifest(run_dir) -> list:
    sections, current = [], None
    path = Path(run_dir) / "manifest.txt"
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("["):
            current = {"command": line.strip("[]")}
            sections.append(current)
        else:
            key, _, value = line.partition("=")
            current[key] = value
    return sections


_PARSERS = {"int": int, "float": float, "int | None": int}


def add_config_flags(parser, cls):
    """One `--field-name` flag per field of the dataclass `cls`, parsed to the
    field's type and unset (None) by default."""
    for f in dataclasses.fields(cls):
        parser.add_argument("--" + f.name.replace("_", "-"), type=_PARSERS[f.type],
                            help=f"{cls.__name__}.{f.name}")


def build_config(cls, flags: dict, defaults=None):
    """Construct the dataclass `cls` once from, in rising precedence, its
    field defaults, the command's `defaults` and the entries of `flags` (the
    parsed arguments) that name a field and are not None, so its
    __post_init__ checks every value."""
    values = dict(defaults or {})
    values.update((f.name, flags[f.name]) for f in dataclasses.fields(cls)
                  if flags.get(f.name) is not None)
    return cls(**values)


# ---------------------------------------------------------------------------
# csv logs
# ---------------------------------------------------------------------------

def write_csv(path, rows, fields=None):
    if fields is None:
        fields = list(rows[0]) if rows else []
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})


def read_csv(path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(ckpt: Checkpoint, records, k_test: int, run_id: str = "run") -> dict:
    """Greedy decoding at the given latent size; exact match of the last
    boxed answer span against the gold tokens."""
    if not records:
        raise ValueError("evaluate: no records to evaluate")
    started = time.monotonic()
    totals, hits = {}, {}
    for rec in records:
        sample = rec.sample
        prompt = build_prompt(sample)
        max_new = ckpt.config.max_positions - prompt.length - 1
        _, traj = decode_with_latents(prompt, k_test, ckpt.params, ckpt.config,
                                      temperature=0.0, max_new=max_new)
        correct = compute_reward(traj, vocab.encode(sample.gold))[1]
        fam = sample.family
        totals[fam] = totals.get(fam, 0) + 1
        hits[fam] = hits.get(fam, 0) + int(correct)
    total = sum(totals.values())
    row = {
        "run_id": run_id,
        "stage": ckpt.stage,
        "k_test": k_test,
        "accuracy": sum(hits.values()) / total,
        "lookup_accuracy": hits.get("lookup", 0) / totals["lookup"] if totals.get("lookup") else "",
        "count_accuracy": hits.get("count", 0) / totals["count"] if totals.get("count") else "",
        "wall_clock_s": round(time.monotonic() - started, 3),
    }
    assert 0.0 <= row["accuracy"] <= 1.0
    return row


def append_metrics(run_dir, rows):
    path = Path(run_dir) / "reports" / "metrics.csv"
    existing = read_csv(path) if path.exists() else []
    write_csv(path, existing + rows, METRICS_FIELDS)
    return path


# ---------------------------------------------------------------------------
# svg report
# ---------------------------------------------------------------------------

_SERIES_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def emit_report(rows, run_dir, baseline: float | None = None):
    """Accuracy-vs-k line chart of `rows`, which are appended to the metrics
    CSV; the dashed horizontal line marks the warm-up baseline at k_test=0."""
    run_dir = Path(run_dir)
    csv_path = append_metrics(run_dir, rows)
    svg_path = run_dir / "reports" / "sweep.svg"
    svg_path.write_text(render_sweep_svg(rows, baseline))
    return csv_path, svg_path


def render_sweep_svg(rows, baseline: float | None = None) -> str:
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    ks = sorted({int(r["k_test"]) for r in rows}) if rows else []
    kmax = max(ks) if ks else 1

    def x(k):
        return left + (plot_w * (k / kmax if kmax else 0.0))

    def y(acc):
        return top + plot_h * (1.0 - acc)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left - 45}" y="{top + plot_h / 2}" font-size="12" transform="rotate(-90 {left - 45} {top + plot_h / 2})">accuracy</text>',
        f'<text x="{left + plot_w / 2 - 30}" y="{height - 12}" font-size="12">latent size at test time</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<text x="{left - 38}" y="{y(tick) + 4}" font-size="10">{tick:.2f}</text>')
        parts.append(f'<line x1="{left - 4}" y1="{y(tick)}" x2="{left}" y2="{y(tick)}" stroke="black"/>')
    for k in ks:
        parts.append(f'<text x="{x(k) - 4}" y="{top + plot_h + 16}" font-size="10">{k}</text>')
        parts.append(f'<line x1="{x(k)}" y1="{top + plot_h}" x2="{x(k)}" y2="{top + plot_h + 4}" stroke="black"/>')
    if baseline is not None:
        parts.append(
            f'<line x1="{left}" y1="{y(baseline)}" x2="{left + plot_w}" y2="{y(baseline)}" '
            f'stroke="gray" stroke-dasharray="6 4"/>')
        parts.append(f'<text x="{left + plot_w - 120}" y="{y(baseline) - 4}" '
                     f'font-size="10" fill="gray">warm-up at k=0</text>')
    series = {}
    for r in rows:
        series.setdefault(str(r["stage"]), []).append((int(r["k_test"]), float(r["accuracy"])))
    for i, (label, pts) in enumerate(sorted(series.items())):
        pts = sorted(pts)
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        path = " ".join(f"{x(k):.1f},{y(a):.1f}" for k, a in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for k, a in pts:
            parts.append(f'<circle cx="{x(k):.1f}" cy="{y(a):.1f}" r="3" fill="{color}"/>')
        parts.append(f'<text x="{left + 8}" y="{top + 14 + 14 * i}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    # every split's config is checked before any file is written
    splits = [(name, CurationConfig(sample_count=count, seed=seed,
                                    corrupt_fraction=args.corrupt_fraction,
                                    lookup_fraction=args.lookup_fraction))
              for name, count, seed in (("train", args.train_count, args.seed),
                                        ("eval", args.eval_count, args.seed + 101),
                                        ("rl", args.rl_count, args.seed + 202))]
    run_dir = ensure_run_dir(args.run_dir)
    for name, cfg in splits:
        records, stats = build_corpus(cfg)
        write_dataset(records, run_dir / "data" / f"{name}.jsonl")
        print(f"{name}: {stats['curated']} curated of {stats['raw']} raw "
              f"(stage1 dropped {stats['stage1_dropped']}, stage2 dropped {stats['stage2_dropped']})")
    write_manifest(run_dir, "gen-data",
                   {"seed": args.seed, "train_count": args.train_count,
                    "eval_count": args.eval_count, "rl_count": args.rl_count,
                    "corrupt_fraction": args.corrupt_fraction,
                    "lookup_fraction": args.lookup_fraction},
                   {f"{n}.jsonl": run_dir / "data" / f"{n}.jsonl" for n, _ in splits})
    return 0


def cmd_train_sft(args) -> int:
    stage_cfg = build_config(StageConfig, vars(args), {"epochs": 3} if args.stage == 1 else None)
    sizes = [flag for flag, field in MODEL_SIZE_FLAGS.items() if vars(args)[field] is not None]
    if sizes and args.stage != 1:
        raise ValueError(f"{', '.join(sizes)}: stage {args.stage} takes its model size "
                         "from warmup.ckpt")
    manifest = {**vars(stage_cfg), "seed": args.seed}
    run_dir = ensure_run_dir(args.run_dir)
    records = read_dataset(run_dir / "data" / "train.jsonl")
    ck_dir = run_dir / "checkpoints"
    inputs = {"train.jsonl": run_dir / "data" / "train.jsonl"}
    if args.stage == 1:
        mconfig = build_config(ModelConfig, vars(args))
        base = init_params(mconfig, np.random.default_rng(args.seed))
        diag = None
        eval_path = run_dir / "data" / "eval.jsonl"
        if eval_path.exists():
            diag = [r.sample for r in read_dataset(eval_path)[:DIAG_SAMPLES]]
            inputs["eval.jsonl"] = eval_path
        result = train_stage1(base, records, mconfig, stage_cfg, args.seed, diag)
        save_checkpoint(Checkpoint(mconfig, "base", 0, args.seed, base), ck_dir / "base.ckpt")
        save_checkpoint(Checkpoint(mconfig, "warmup", len(result.log), args.seed,
                                   result.params), ck_dir / "warmup.ckpt")
        write_csv(run_dir / "logs" / "stage1.csv", result.log, ["step", "loss"])
        write_csv(run_dir / "logs" / "stage1_diag.csv", result.diagnostics,
                  ["step", "obs_acc_with_aux", "obs_acc_without_aux"])
        if result.diagnostics:
            last = result.diagnostics[-1]
            print(f"warm-up done: obs acc with aux {last['obs_acc_with_aux']:.3f}, "
                  f"without {last['obs_acc_without_aux']:.3f}")
    elif args.stage == 2:
        warmup = load_checkpoint(ck_dir / "warmup.ckpt")
        inputs["warmup.ckpt"] = ck_dir / "warmup.ckpt"
        result = train_stage2(warmup.params, records, warmup.config, stage_cfg, args.seed)
        save_checkpoint(Checkpoint(warmup.config, "stage2", len(result.log), args.seed,
                                   result.params), ck_dir / "stage2.ckpt")
        result.store.save(ck_dir / "latent_store.npz")
        write_csv(run_dir / "logs" / "stage2.csv", result.log,
                  ["step", "ntp", "align_obs", "total"])
        print(f"stage 2 done: {len(result.store.entries)} target latent entries")
    else:
        warmup = load_checkpoint(ck_dir / "warmup.ckpt")
        store = TargetLatentStore.load(ck_dir / "latent_store.npz")
        inputs["warmup.ckpt"] = ck_dir / "warmup.ckpt"
        inputs["latent_store.npz"] = ck_dir / "latent_store.npz"
        result = train_stage3(warmup.params, records, store, warmup.config, stage_cfg, args.seed)
        save_checkpoint(Checkpoint(warmup.config, "sft", len(result.log), args.seed,
                                   result.params), ck_dir / "sft.ckpt")
        write_csv(run_dir / "logs" / "stage3.csv", result.log,
                  ["step", "ntp", "align_latent", "total"])
        print("stage 3 done")
    write_manifest(run_dir, f"train-sft-stage{args.stage}", manifest, inputs)
    return 0


def cmd_train_rl(args) -> int:
    rl_cfg = build_config(RlConfig, vars(args))
    run_dir = ensure_run_dir(args.run_dir)
    records = read_dataset(run_dir / "data" / "rl.jsonl")
    ck_dir = run_dir / "checkpoints"
    sft = load_checkpoint(ck_dir / args.init)
    algo = Algo(args.algo)
    result = train_rl(sft.params, records, rl_cfg, algo, sft.config, args.seed,
                      epochs=args.epochs)
    label = f"rl_{algo.value}"
    save_checkpoint(Checkpoint(sft.config, "rl", len(result.log), args.seed,
                               result.params), ck_dir / f"{label}.ckpt")
    write_csv(run_dir / "logs" / f"{label}.csv", result.log,
              ["step", "sample_id", "mean_reward", "accuracy", "retained",
               "text_ratio_mean", "latent_ratio_mean", "latent_grad_norm"])
    rewards = [row["mean_reward"] for row in result.log]
    print(f"{label}: mean reward {np.mean(rewards):.3f} over {len(rewards)} steps")
    write_manifest(run_dir, f"train-rl-{algo.value}",
                   {**vars(rl_cfg), "seed": args.seed, "epochs": args.epochs, "init": args.init},
                   {"rl.jsonl": run_dir / "data" / "rl.jsonl",
                    args.init: ck_dir / args.init})
    return 0


def _eval_records(args) -> list:
    """The first `--limit` records of the split, or all of them."""
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"limit must be >= 1, got {args.limit}")
    return read_dataset(Path(args.run_dir) / "data" / args.split)[:args.limit]


def cmd_eval(args) -> int:
    records = _eval_records(args)
    run_dir = ensure_run_dir(args.run_dir)
    ckpt = load_checkpoint(Path(run_dir) / "checkpoints" / args.checkpoint)
    row = evaluate(ckpt, records, args.k_test, run_id=Path(args.run_dir).name)
    append_metrics(run_dir, [row])
    print(f"stage={row['stage']} k_test={row['k_test']} accuracy={row['accuracy']:.4f} "
          f"lookup={row['lookup_accuracy']} count={row['count_accuracy']}")
    write_manifest(run_dir, "eval",
                   {"checkpoint": args.checkpoint, "k_test": args.k_test,
                    "split": args.split, "limit": args.limit},
                   {args.checkpoint: Path(run_dir) / "checkpoints" / args.checkpoint,
                    args.split: run_dir / "data" / args.split})
    return 0


def cmd_sweep(args) -> int:
    records = _eval_records(args)
    run_dir = ensure_run_dir(args.run_dir)
    ks = [int(k) for k in args.k_tests.split(",")]
    rows = []
    for name in args.checkpoints.split(","):
        ckpt = load_checkpoint(Path(run_dir) / "checkpoints" / name.strip())
        for k in ks:
            rows.append(evaluate(ckpt, records, k, run_id=Path(args.run_dir).name))
            print(f"{ckpt.stage} k={k}: {rows[-1]['accuracy']:.4f}")
    baseline = None
    base_path = Path(run_dir) / "checkpoints" / args.baseline
    if base_path.exists():
        baseline = evaluate(load_checkpoint(base_path), records, 0,
                            run_id=Path(args.run_dir).name)["accuracy"]
    csv_path, svg_path = emit_report(rows, run_dir, baseline)
    print(f"wrote {csv_path} and {svg_path}")
    write_manifest(run_dir, "sweep",
                   {"checkpoints": args.checkpoints, "k_tests": args.k_tests,
                    "split": args.split, "limit": args.limit, "baseline": args.baseline},
                   {args.split: run_dir / "data" / args.split})
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradcheck(seed=args.seed)
    worst = 0.0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:14s} max_rel_err={r.max_rel_error:.3e}  [{status}]")
        worst = max(worst, r.max_rel_error)
    print(f"worst relative error {worst:.3e} (threshold {TOLERANCE:.0e})")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latentcot",
        description="latent-reasoning training lab: data, staged SFT, RL, eval")
    parser.add_argument("--debug", action="store_true",
                        help="on an error, print its traceback instead of one line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and curate the synthetic corpus")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-count", type=int, default=5000)
    p.add_argument("--eval-count", type=int, default=600)
    p.add_argument("--rl-count", type=int, default=400)
    p.add_argument("--corrupt-fraction", type=float, default=0.10)
    p.add_argument("--lookup-fraction", type=float, default=0.80)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-sft", help="run one SFT stage")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--stage", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--seed", type=int, default=0)
    add_config_flags(p, StageConfig)
    for flag, field in MODEL_SIZE_FLAGS.items():
        p.add_argument(flag, dest=field, type=int, help=f"stage 1 only: ModelConfig.{field}")
    p.set_defaults(func=cmd_train_sft)

    p = sub.add_parser("train-rl", help="policy optimization from the SFT checkpoint")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--algo", choices=("grpo", "vlpo"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", default="sft.ckpt")
    p.add_argument("--epochs", type=int, default=1)
    add_config_flags(p, RlConfig)
    p.set_defaults(func=cmd_train_rl)

    p = sub.add_parser("eval", help="greedy evaluation at a fixed latent size")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--checkpoint", default="sft.ckpt")
    p.add_argument("--k-test", type=int, required=True)
    p.add_argument("--split", default="eval.jsonl")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy vs latent size report")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--checkpoints", default="sft.ckpt")
    p.add_argument("--k-tests", default=",".join(str(k) for k in DEFAULT_SWEEP))
    p.add_argument("--split", default="eval.jsonl")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--baseline", default="warmup.ckpt")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference checks for every loss")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # surface a diagnostic, nonzero exit
        if args.debug:
            traceback.print_exc()
        else:
            print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
