import csv
import re

import numpy as np
import pytest

from latentcot import vocab
from latentcot.cli import (append_metrics, build_config, emit_report, evaluate,
                           load_config_file, main, read_csv, read_manifest,
                           render_sweep_svg, write_csv)
from latentcot.model import (Checkpoint, ModelConfig, init_params, load_checkpoint,
                             save_checkpoint)
from latentcot.sft import StageConfig
from latentcot.tasks import read_dataset

TINY_MODEL = ["--layers", "2", "--hidden-dim", "16", "--heads", "2"]


def gen_tiny(run_dir, seed=0):
    rc = main(["gen-data", "--run-dir", str(run_dir), "--seed", str(seed),
               "--train-count", "60", "--eval-count", "24", "--rl-count", "12"])
    assert rc == 0


def train_tiny(run_dir):
    assert main(["train-sft", "--run-dir", str(run_dir), "--stage", "1",
                 "--max-steps", "8", "--learning-rate", "1e-3", *TINY_MODEL]) == 0
    assert main(["train-sft", "--run-dir", str(run_dir), "--stage", "2",
                 "--max-steps", "4", "--k-train", "2", "--learning-rate", "1e-3"]) == 0
    assert main(["train-sft", "--run-dir", str(run_dir), "--stage", "3",
                 "--max-steps", "4", "--k-train", "2", "--learning-rate", "1e-3"]) == 0


def test_gen_data_writes_splits_deterministically(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    gen_tiny(a, seed=3)
    gen_tiny(b, seed=3)
    for split in ("train", "eval", "rl"):
        fa = (a / "data" / f"{split}.jsonl").read_bytes()
        fb = (b / "data" / f"{split}.jsonl").read_bytes()
        assert fa == fb and len(fa) > 0
    # different splits use disjoint seed streams
    assert (a / "data" / "train.jsonl").read_bytes() != (a / "data" / "eval.jsonl").read_bytes()


def test_full_pipeline_artifacts(tmp_path):
    run = tmp_path / "run"
    gen_tiny(run)
    train_tiny(run)
    ck = run / "checkpoints"
    for name in ("base.ckpt", "warmup.ckpt", "stage2.ckpt", "sft.ckpt", "latent_store.npz"):
        assert (ck / name).exists(), name
    for log in ("stage1.csv", "stage1_diag.csv", "stage2.csv", "stage3.csv"):
        assert (run / "logs" / log).exists(), log
    warm = load_checkpoint(ck / "warmup.ckpt")
    assert warm.stage == "warmup"
    sections = read_manifest(run)
    commands = [s["command"] for s in sections]
    assert commands[:4] == ["gen-data", "train-sft-stage1", "train-sft-stage2",
                            "train-sft-stage3"]
    assert any(k.startswith("input.") for k in sections[1])
    # each latent stage records the alignment weight it trained with
    assert sections[2]["alpha"] == "2.0" and "beta" not in sections[2]
    assert sections[3]["beta"] == "2.0" and "alpha" not in sections[3]
    assert "alpha" not in sections[1] and "beta" not in sections[1]


def test_rl_command_and_latent_norm_log(tmp_path):
    run = tmp_path / "run"
    gen_tiny(run)
    train_tiny(run)
    assert main(["train-rl", "--run-dir", str(run), "--algo", "grpo",
                 "--k-train-rl", "2", "--group-size", "2",
                 "--learning-rate", "1e-4"]) == 0
    rows = read_csv(run / "logs" / "rl_grpo.csv")
    assert rows and all(float(r["latent_grad_norm"]) == 0.0 for r in rows)
    assert (run / "checkpoints" / "rl_grpo.ckpt").exists()


def test_eval_and_metrics_row(tmp_path):
    run = tmp_path / "run"
    gen_tiny(run)
    train_tiny(run)
    assert main(["eval", "--run-dir", str(run), "--checkpoint", "sft.ckpt",
                 "--k-test", "0", "--limit", "6"]) == 0
    rows = read_csv(run / "reports" / "metrics.csv")
    assert len(rows) == 1
    assert rows[0]["stage"] == "sft" and rows[0]["k_test"] == "0"
    assert 0.0 <= float(rows[0]["accuracy"]) <= 1.0


def test_eval_reruns_reproduce_metrics(tmp_path):
    run = tmp_path / "run"
    gen_tiny(run)
    train_tiny(run)
    ckpt = load_checkpoint(run / "checkpoints" / "sft.ckpt")
    records = read_dataset(run / "data" / "eval.jsonl")[:6]
    a = evaluate(ckpt, records, 2)
    b = evaluate(ckpt, records, 2)
    a.pop("wall_clock_s"), b.pop("wall_clock_s")
    assert a == b


def test_evaluate_rejects_an_empty_record_list():
    config = ModelConfig(layer_count=1, hidden_dim=8, head_count=2)
    ckpt = Checkpoint(config, "sft", 0, 0, init_params(config, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="no records"):
        evaluate(ckpt, [], 0)


def test_manifest_rerun_reproduces_metric_rows(tmp_path):
    run = tmp_path / "run"
    gen_tiny(run)
    train_tiny(run)
    assert main(["eval", "--run-dir", str(run), "--checkpoint", "sft.ckpt",
                 "--k-test", "2", "--limit", "5"]) == 0
    first = read_csv(run / "reports" / "metrics.csv")[-1]
    section = [s for s in read_manifest(run) if s["command"] == "eval"][-1]
    assert main(["eval", "--run-dir", str(run),
                 "--checkpoint", section["checkpoint"],
                 "--k-test", section["k_test"],
                 "--split", section["split"],
                 "--limit", section["limit"]]) == 0
    second = read_csv(run / "reports" / "metrics.csv")[-1]
    for key in ("stage", "k_test", "accuracy", "lookup_accuracy", "count_accuracy"):
        assert first[key] == second[key]


def test_sweep_emits_csv_and_svg(tmp_path):
    run = tmp_path / "run"
    gen_tiny(run)
    train_tiny(run)
    assert main(["sweep", "--run-dir", str(run), "--checkpoints", "sft.ckpt",
                 "--k-tests", "0,2", "--limit", "4"]) == 0
    rows = read_csv(run / "reports" / "metrics.csv")
    assert {r["k_test"] for r in rows} == {"0", "2"}
    svg = (run / "reports" / "sweep.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert "stroke-dasharray" in svg  # the warm-up baseline


def test_sweep_keeps_the_rows_eval_appended(tmp_path):
    run = tmp_path / "run"
    gen_tiny(run)
    train_tiny(run)
    assert main(["eval", "--run-dir", str(run), "--checkpoint", "sft.ckpt",
                 "--k-test", "3", "--limit", "2"]) == 0
    assert main(["sweep", "--run-dir", str(run), "--checkpoints", "sft.ckpt",
                 "--k-tests", "0,2", "--limit", "2"]) == 0
    rows = read_csv(run / "reports" / "metrics.csv")
    assert [r["k_test"] for r in rows] == ["3", "0", "2"]


def test_unknown_flag_exits_with_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--run-dir", str(tmp_path), "--bogus-flag", "1"])
    assert exc.value.code == 2


def test_missing_checkpoint_reports_error(tmp_path, capsys):
    run = tmp_path / "run"
    gen_tiny(run)
    rc = main(["eval", "--run-dir", str(run), "--checkpoint", "nope.ckpt",
               "--k-test", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_debug_prints_the_traceback(tmp_path, capsys):
    run = tmp_path / "run"
    gen_tiny(run)
    rc = main(["--debug", "eval", "--run-dir", str(run), "--checkpoint", "nope.ckpt",
               "--k-test", "0"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("Traceback (most recent call last):")
    assert "nope.ckpt" in err.splitlines()[-1] and "error:" not in err


def test_gradcheck_command(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "worst relative error" in out
    assert out.count("[pass]") == 7


def test_config_file_names_the_line_of_a_non_utf8_byte(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"# stage settings\r\nepochs=2\r\nlearning_rate=0.\xff2\r\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 3 is not UTF-8 text$"):
        load_config_file(bad)


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "stage.cfg"
    cfg.write_text("# stage settings\nlearning_rate=0.002\nepochs=2\nmax_steps=4\n")
    parsed = load_config_file(cfg)
    assert parsed == {"learning_rate": "0.002", "epochs": "2", "max_steps": "4"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("learning_rate\n")
    with pytest.raises(ValueError, match="line 1"):
        load_config_file(bad)
    # field defaults < command defaults < file < flags that are not None
    built = build_config(StageConfig, cfg, {"epochs": 3, "k_train": 2},
                         learning_rate=0.5, max_steps=None)
    assert built == StageConfig(learning_rate=0.5, epochs=2, max_steps=4, k_train=2)


SFT_STAGE1 = ["train-sft", "--stage", "1", "--max-steps", "2", *TINY_MODEL]
SFT_STAGE2 = ["train-sft", "--stage", "2", "--max-steps", "1", "--k-train", "2"]
RL_GRPO = ["train-rl", "--algo", "grpo", "--k-train-rl", "2", "--group-size", "2"]


def _run_files(run):
    return {p: p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv, config_text, named", [
    (SFT_STAGE1 + ["--max-steps", "-1"], None, ["max_steps"]),
    (SFT_STAGE1 + ["--epochs", "0"], None, ["epochs"]),
    (SFT_STAGE1 + ["--grad-accum", "0"], None, ["grad_accum"]),
    (RL_GRPO + ["--group-size", "1"], None, ["group_size"]),
    (RL_GRPO, "sigma=0", ["sigma"]),
    (RL_GRPO, "clip_eps=5", ["clip_eps"]),
    (SFT_STAGE1, "learnig_rate=0.1", ["bad.cfg", "learnig_rate"]),
    (SFT_STAGE1, "epochs=two", ["bad.cfg", "epochs"]),
    (RL_GRPO, "group_size=2.5", ["bad.cfg", "group_size"]),
    (RL_GRPO + ["--learning-rate", "-1"], None, ["learning_rate"]),
    (RL_GRPO + ["--k-train-rl", "-3"], None, ["k_train_rl"]),
    (RL_GRPO, "sigma=nan", ["sigma"]),
    (RL_GRPO, "temperature=-0.5", ["temperature"]),
    (SFT_STAGE2 + ["--alpha", "nan"], None, ["alpha"]),
    (["gen-data", "--train-count", "0"], None, ["sample_count"]),
    (["gen-data", "--corrupt-fraction", "3"], None, ["corrupt_fraction"]),
    (SFT_STAGE1 + ["--heads", "0"], None, ["head_count"]),
    (SFT_STAGE1 + ["--hidden-dim", "0"], None, ["hidden_dim"]),
    (SFT_STAGE1 + ["--layers", "0"], None, ["layer_count"]),
    (SFT_STAGE1 + ["--max-positions", "0"], None, ["max_positions"]),
    (RL_GRPO + ["--epochs", "0"], None, ["epochs"]),
    (RL_GRPO + ["--epochs", "-2"], None, ["epochs"]),
    (["eval", "--k-test", "0", "--limit", "0"], None, ["limit"]),
    (["eval", "--k-test", "0", "--limit", "-1"], None, ["limit"]),
    (["sweep", "--k-tests", "0", "--limit", "0"], None, ["limit"]),
    (RL_GRPO, "kl_coeff=0.1", ["bad.cfg", "kl_coeff"]),
    (RL_GRPO, "temperature=0", ["temperature"]),
    (RL_GRPO, "sigma=5\nsigma=6", ["bad.cfg", "sigma"]),
], ids=["max-steps-flag", "epochs-flag", "grad-accum-flag", "group-size-flag",
        "sigma-file", "clip-eps-file", "unknown-key-file", "bad-int-file", "bad-rl-int-file",
        "rl-learning-rate-flag", "k-train-rl-flag", "sigma-nan-file", "temperature-file",
        "alpha-nan-flag", "train-count-flag", "corrupt-fraction-flag", "heads-flag",
        "hidden-dim-flag", "layers-flag", "max-positions-flag", "rl-epochs-zero-flag",
        "rl-epochs-negative-flag", "eval-limit-zero-flag", "eval-limit-negative-flag",
        "sweep-limit-zero-flag", "kl-coeff-file", "temperature-zero-file",
        "repeated-key-file"])
def test_bad_config_values_fail_before_any_checkpoint(tmp_path, capsys, argv,
                                                      config_text, named):
    """A value from a flag or a --config file that its dataclass or command
    rejects, or a file entry that names no field or does not parse, exits 1
    with an error naming the field (and the file), and the run dir is left
    as it was: no checkpoint, data file, report or manifest entry is
    written."""
    run = tmp_path / "run"
    gen_tiny(run)
    config = ModelConfig(layer_count=2, hidden_dim=16, head_count=2)
    params = init_params(config, np.random.default_rng(0))
    for name in ("warmup", "sft"):
        save_checkpoint(Checkpoint(config, name, 0, 0, params),
                        run / "checkpoints" / f"{name}.ckpt")
    if config_text is not None:
        (tmp_path / "bad.cfg").write_text(config_text + "\n")
        argv = argv + ["--config", str(tmp_path / "bad.cfg")]
    before = _run_files(run)
    capsys.readouterr()
    assert main([argv[0], "--run-dir", str(run), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(word in err for word in named), err
    assert _run_files(run) == before


@pytest.mark.parametrize("argv, split, named", [
    (SFT_STAGE1, "train.jsonl", "stage1"),
    (RL_GRPO, "rl.jsonl", "rl"),
], ids=["sft-stage1", "rl"])
def test_an_empty_training_split_fails_before_any_checkpoint(tmp_path, capsys, argv, split,
                                                             named):
    """Training on a split with no records exits 1 naming the stage, and
    writes no checkpoint."""
    run = tmp_path / "run"
    gen_tiny(run)
    config = ModelConfig(layer_count=2, hidden_dim=16, head_count=2)
    save_checkpoint(Checkpoint(config, "sft", 0, 0, init_params(config, np.random.default_rng(0))),
                    run / "checkpoints" / "sft.ckpt")
    (run / "data" / split).write_text("")
    before = _run_files(run)
    capsys.readouterr()
    assert main([argv[0], "--run-dir", str(run), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: no training records"), err
    assert _run_files(run) == before


def test_empty_report(tmp_path):
    run = tmp_path / "run"
    (run / "reports").mkdir(parents=True)
    csv_path, svg_path = emit_report([], run)
    header = csv_path.read_text().strip()
    assert header.split(",")[0] == "run_id"
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" not in svg


def test_metrics_csv_round_trip(tmp_path):
    run = tmp_path / "run"
    (run / "reports").mkdir(parents=True)
    rows = [{"run_id": "r", "stage": "sft", "k_test": 8, "accuracy": 0.5,
             "lookup_accuracy": 0.6, "count_accuracy": 0.1, "wall_clock_s": 1.0}]
    append_metrics(run, rows)
    back = read_csv(run / "reports" / "metrics.csv")
    assert back[0]["accuracy"] == "0.5" and back[0]["k_test"] == "8"


def test_sweep_svg_renders_baseline_and_series():
    rows = [{"stage": "sft", "k_test": k, "accuracy": 0.1 * k} for k in (0, 4, 8)]
    svg = render_sweep_svg(rows, baseline=0.25)
    assert "stroke-dasharray" in svg and svg.count("polyline") == 1


def test_extract_boxed_rules():
    enc = vocab.encode
    assert vocab.extract_boxed(enc([vocab.BOXED, "3", vocab.BOX_CLOSE])) == enc(["3"])
    assert vocab.extract_boxed(enc(["answer", "is"])) is None
    assert vocab.extract_boxed(enc([vocab.BOXED, "3"])) is None  # never closed
    two = enc([vocab.BOXED, "1", vocab.BOX_CLOSE, vocab.BOXED, "2", vocab.BOX_CLOSE])
    assert vocab.extract_boxed(two) == enc(["2"])
