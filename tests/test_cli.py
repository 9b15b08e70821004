"""End-to-end command-line flows and exit-code contracts."""

import contextlib
import csv
import gc
import io
import json
import math
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderft import benchmark, masking, methods, trainer
from spiderft.checkpoint import load_checkpoint, save_checkpoint
from spiderft.cli import MERGE_STRATEGIES, build_parser, main
from spiderft.config import ExperimentConfig, config_to_dict
from spiderft.tensors import NORMALIZATION_SCOPES, FlatTensor, TensorMap
from spiderft.trainer import METHOD_CHOICES, TrainConfig, build_model, set_trainable_tail

from helpers import mapped, readme_block, tmap


@pytest.fixture()
def workspace(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 2, "seeds": [0]}))
    return tmp_path, cfg


def run_cli(argv):
    return main([str(a) for a in argv])


def files_under(root):
    """Every path under root, with a file's bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def pretrained_checkpoint(workspace):
    tmp, cfg = workspace
    out = tmp / "pre.ckpt"
    assert run_cli(["pretrain", "--config", cfg, "--out", out]) == 0
    return out


# ---------------------------------------------------------------------------
# Happy-path pipeline
# ---------------------------------------------------------------------------


def test_full_pipeline(workspace, capsys):
    tmp, cfg = workspace
    pre = tmp / "pre.ckpt"
    ft = tmp / "ft.ckpt"
    logcsv = tmp / "run.csv"
    grads = tmp / "acc.ckpt"
    metrics = tmp / "logs" / "spider.csv"
    metrics.parent.mkdir()

    assert run_cli(["pretrain", "--config", cfg, "--out", pre]) == 0
    out = capsys.readouterr().out
    assert out.count("accuracy src_rot") == 4
    assert "saved 6 tensors" in out

    assert (
        run_cli(
            [
                "finetune", "--config", cfg, "--pretrained", pre, "--method", "spider",
                "--out", ft, "--log", logcsv, "--grad-dump", grads,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "finetuned method=spider seed=0" in out
    assert ft.exists()

    with open(logcsv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "loss", "mask_density", "pid"]
    assert len(rows) == 1 + 2 * 20  # 2 epochs x 320/16 batches
    assert float(rows[1][3]) >= 1.0

    acc = load_checkpoint(grads)
    assert acc.names == ["layer1.weight", "layer1.bias", "layer2.weight", "layer2.bias"]
    assert np.all(acc.flat >= 0.0)

    assert (
        run_cli(["eval", "--model", ft, "--config", cfg, "--out", metrics,
                 "--method-label", "spider"])
        == 0
    )
    out = capsys.readouterr().out
    for key in ("source_avg", "target_accuracy", "h_average", "o_average"):
        assert key in out

    combined = tmp / "combined.csv"
    assert run_cli(["report", "--logs", metrics.parent, "--out", combined]) == 0
    out = capsys.readouterr().out
    assert "method source_avg target_accuracy h_average o_average" in out
    assert "spider" in out
    with open(combined, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "seed", "task", "metric", "value"]
    assert all(row[0] == "spider" for row in rows[1:])


def readme_cli_chain():
    """The commands of the sh block under README.md's "## CLI", in order: a
    line ending in a backslash joins the next, and comments and blank lines
    are left out."""
    block = readme_block("## CLI", "sh").replace("\\\n", " ")
    return [line.strip() for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_the_readme_cli_chain_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_chain()
    assert sum(line.startswith("spiderft ") for line in commands) >= 6
    for line in commands:
        words = shlex.split(line)
        if words[0] == "echo":
            text, redirect, target = words[1:]
            assert redirect == ">", line
            Path(target).write_text(text + "\n")
        elif words[:2] == ["mkdir", "-p"]:
            for directory in words[2:]:
                Path(directory).mkdir(parents=True, exist_ok=True)
        else:
            assert words[0] == "spiderft", line
            code = main(words[1:])
            assert code == 0, (line, capsys.readouterr().err)
            for flag, value in zip(words, words[1:]):
                if flag in ("--out", "--log", "--grad-dump"):
                    assert Path(value).is_file(), (line, value)


def test_finetune_method_and_seed_overrides(workspace, capsys):
    tmp, cfg = workspace
    pre = pretrained_checkpoint(workspace)
    out = tmp / "half.ckpt"
    code = run_cli(
        ["finetune", "--config", cfg, "--pretrained", pre, "--method", "half_ft",
         "--seed", "5", "--out", out]
    )
    assert code == 0
    assert "method=half_ft seed=5" in capsys.readouterr().out


def test_finetune_zero_shot_has_no_gradients_to_dump(workspace):
    tmp, cfg = workspace
    pre = pretrained_checkpoint(workspace)
    no_epochs = tmp / "no_epochs.json"
    no_epochs.write_text(json.dumps({"epochs": 0, "seeds": [0]}))
    # zero_shot, or a method that runs no iteration: the command fails
    # before it writes any file
    for config, method in [(cfg, "zero_shot"), (no_epochs, "spider")]:
        outputs = [tmp / f"{method}.ckpt", tmp / f"{method}.csv", tmp / f"{method}.acc.ckpt"]
        code = run_cli(
            ["finetune", "--config", config, "--pretrained", pre, "--method", method,
             "--out", outputs[0], "--log", outputs[1], "--grad-dump", outputs[2]]
        )
        assert code == 2
        assert not any(path.exists() for path in outputs), method


def test_pretrain_checkpoint_is_reproducible(workspace, tmp_path):
    tmp, cfg = workspace
    a = tmp / "a.ckpt"
    b = tmp / "b.ckpt"
    assert run_cli(["pretrain", "--config", cfg, "--out", a]) == 0
    assert run_cli(["pretrain", "--config", cfg, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# Offline merge
# ---------------------------------------------------------------------------


def test_merge_with_identical_importance_profiles_restores_pretrained(workspace, tmp_path):
    tmp, _ = workspace
    pre = pretrained_checkpoint(workspace)
    ft = tmp / "ft.ckpt"
    grads = tmp / "g.ckpt"
    merged = tmp / "m.ckpt"

    snapshot = load_checkpoint(pre)
    save_checkpoint(mapped(snapshot, lambda d: d + 0.5), ft)
    # accumulated |grad| proportional to |w*|: G == I everywhere, so the
    # strict comparison selects nothing and the merge undoes fine-tuning
    save_checkpoint(mapped(snapshot, np.abs), grads)

    code = run_cli(
        ["merge", "--pretrained", pre, "--finetuned", ft, "--grads", grads,
         "--strategy", "binary", "--out", merged]
    )
    assert code == 0
    assert merged.read_bytes() == pre.read_bytes()


def test_merge_dare_with_zero_delta_restores_pretrained(workspace, tmp_path):
    tmp, _ = workspace
    pre = pretrained_checkpoint(workspace)
    merged = tmp / "m.ckpt"
    code = run_cli(
        ["merge", "--pretrained", pre, "--finetuned", pre, "--strategy", "dare",
         "--drop-p", "0.5", "--seed", "3", "--out", merged]
    )
    assert code == 0
    assert merged.read_bytes() == pre.read_bytes()


def test_merge_rescaled_stays_between_endpoints(workspace, tmp_path):
    tmp, _ = workspace
    pre = pretrained_checkpoint(workspace)
    ft = tmp / "ft.ckpt"
    grads = tmp / "g.ckpt"
    merged = tmp / "m.ckpt"

    snapshot = load_checkpoint(pre)
    rng = np.random.default_rng(1)
    save_checkpoint(mapped(snapshot, lambda d: d + rng.normal(0, 0.2, d.size)), ft)
    save_checkpoint(mapped(snapshot, lambda d: np.abs(rng.normal(0, 1, d.size))), grads)

    code = run_cli(
        ["merge", "--pretrained", pre, "--finetuned", ft, "--grads", grads,
         "--strategy", "rescaled", "--out", merged]
    )
    assert code == 0
    lo_hi = zip(load_checkpoint(pre), load_checkpoint(ft), load_checkpoint(merged))
    for p, f, m in lo_hi:
        assert np.all(m.data >= np.minimum(p.data, f.data) - 1e-6)
        assert np.all(m.data <= np.maximum(p.data, f.data) + 1e-6)


def test_merge_accepts_trainable_only_grad_dump(workspace, tmp_path, capsys):
    # a dump from a frozen-layer run covers a subset of the tensors; the
    # uncovered ones must come back at the pretrained values
    tmp, cfg_path = workspace
    pre = pretrained_checkpoint(workspace)
    ft = tmp / "ft.ckpt"
    grads = tmp / "g.ckpt"
    assert run_cli(
        ["finetune", "--config", cfg_path, "--pretrained", pre, "--method", "full_ft",
         "--out", ft, "--grad-dump", grads]
    ) == 0
    merged = tmp / "m.ckpt"
    assert run_cli(
        ["merge", "--pretrained", pre, "--finetuned", ft, "--grads", grads,
         "--strategy", "rescaled", "--out", merged]
    ) == 0

    covered = set(load_checkpoint(grads).names)
    for p, m in zip(load_checkpoint(pre), load_checkpoint(merged)):
        if p.name not in covered:
            assert np.array_equal(m.data, p.data)
    assert len(covered) < len(load_checkpoint(pre))


def test_merge_rejects_grads_with_unknown_tensor(workspace, tmp_path, capsys):
    tmp, _ = workspace
    pre = pretrained_checkpoint(workspace)
    grads = tmp / "g.ckpt"
    save_checkpoint(tmap(stranger=[1.0, 2.0]), grads)
    capsys.readouterr()
    code = run_cli(
        ["merge", "--pretrained", pre, "--finetuned", pre, "--grads", grads,
         "--strategy", "binary", "--out", tmp / "m.ckpt"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_merge_requires_grads_for_importance_strategies(workspace, tmp_path, capsys):
    tmp, _ = workspace
    pre = pretrained_checkpoint(workspace)
    capsys.readouterr()
    # checked before any checkpoint is read, so a missing one does not hide it
    for pretrained in (pre, tmp / "nope.ckpt"):
        code = run_cli(
            ["merge", "--pretrained", pretrained, "--finetuned", pre, "--strategy", "binary",
             "--out", tmp / "m.ckpt"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--grads" in err


# ---------------------------------------------------------------------------
# Divergence diagnostic
# ---------------------------------------------------------------------------


def test_pid_identical_profiles_print_unity(workspace, tmp_path, capsys):
    tmp, _ = workspace
    pre = pretrained_checkpoint(workspace)
    grads = tmp / "g.ckpt"
    save_checkpoint(mapped(load_checkpoint(pre), np.abs), grads)
    capsys.readouterr()
    assert run_cli(["pid", "--pretrained", pre, "--grads", grads]) == 0
    value = float(capsys.readouterr().out.strip())
    assert abs(value - 1.0) < 1e-9


def test_pid_per_tensor_lists_every_tensor(workspace, tmp_path, capsys):
    tmp, _ = workspace
    pre = pretrained_checkpoint(workspace)
    grads = tmp / "g.ckpt"
    save_checkpoint(mapped(load_checkpoint(pre), np.abs), grads)
    capsys.readouterr()
    assert run_cli(["pid", "--pretrained", pre, "--grads", grads, "--per-tensor"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7  # six tensors plus the global line
    assert lines[-1].startswith("global ")


def test_pid_restricts_to_grad_dump_domain(workspace, tmp_path, capsys):
    tmp, cfg_path = workspace
    pre = pretrained_checkpoint(workspace)
    grads = tmp / "g.ckpt"
    assert run_cli(
        ["finetune", "--config", cfg_path, "--pretrained", pre, "--method", "spider",
         "--out", tmp / "ft.ckpt", "--grad-dump", grads]
    ) == 0
    capsys.readouterr()
    assert run_cli(["pid", "--pretrained", pre, "--grads", grads, "--per-tensor"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    named = [ln.split()[0] for ln in lines[:-1]]
    assert named == load_checkpoint(grads).names  # only covered tensors
    assert float(lines[-1].split()[1]) >= 1.0


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err
    assert main(["pretrain"]) == 1  # missing required options
    assert main(["finetune", "--config", "x"]) == 1
    assert main(["pretrain", "--config", "x", "--out", "y", "--bogus"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["finetune", "--config", "c", "--pretrained", "p", "--out", "o",
                 "--method", "boost"]) == 1
    # a line break in an argument is escaped, so the error line stays one line
    capsys.readouterr()
    assert main(["pretrain", "--config", "x", "--out", "y", "--bo\ngus"]) == 1
    assert capsys.readouterr().err.split("\n")[-2:] == [
        "spiderft: error: unrecognized arguments: --bo\\ngus", ""]


def test_missing_files_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert main(["pretrain", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.ckpt")]) == 2
    assert main(["finetune", "--config", str(cfg),
                 "--pretrained", str(tmp_path / "nope.ckpt"),
                 "--out", str(tmp_path / "o.ckpt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # a negative l2_lambda would push l2_reg's weights away from the snapshot
    for content in [json.dumps({"unknown_key": 1}).encode(), b"{broken", b'{"l2_lambda": -5}',
                    b'{"epochs": 1, "\xff": 2}', b"[" * 100000 + b"]" * 100000]:
        cfg.write_bytes(content)
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("learning_rate", ["1e308", "NaN"])
def test_diverging_or_non_finite_config_exits_2_with_one_line(tmp_path, learning_rate):
    # 1e308 passes validation and diverges in training; NaN is rejected up front
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"learning_rate": {learning_rate}, "seeds": [0], "epochs": 1}}')
    proc = subprocess.run(
        [sys.executable, "-m", "spiderft.cli", "pretrain", "--config", str(cfg),
         "--out", str(tmp_path / "pre.ckpt")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert ("diverged" if learning_rate == "1e308" else "must be finite") in proc.stderr


@pytest.mark.parametrize("argv,flag", [
    (["finetune", "--config", "c.json", "--pretrained", "p.ckpt", "--out", "o", "--seed", "-1"],
     "--seed"),
    (["merge", "--pretrained", "p", "--finetuned", "f", "--strategy", "dare", "--seed", "-2",
      "--out", "o"], "--seed"),
    (["merge", "--pretrained", "p", "--finetuned", "f", "--strategy", "dare", "--drop-p", "1.5",
      "--out", "o"], "--drop-p"),
    (["merge", "--pretrained", "p", "--finetuned", "f", "--strategy", "dare", "--drop-p", "-0.1",
      "--out", "o"], "--drop-p"),
])
def test_out_of_range_seed_or_drop_p_is_a_usage_error(argv, flag):
    # rejected while parsing, before any of the named files is opened
    proc = subprocess.run(
        [sys.executable, "-m", "spiderft.cli", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("usage:") and "Traceback" not in proc.stderr
    assert [ln for ln in lines if "error:" in ln] == [lines[-1]]
    assert f"error: argument {flag}: expected a value in" in lines[-1]


def test_negative_config_seed_exits_2_with_one_line(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"seeds": [-3], "epochs": 1}')
    proc = subprocess.run(
        [sys.executable, "-m", "spiderft.cli", "pretrain", "--config", str(cfg),
         "--out", str(tmp_path / "pre.ckpt")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: seed must be >= 0, got -3\n"


def test_repeated_config_seeds_exit_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"seeds": [1, 0, 1], "epochs": 1}')
    assert run_cli(["pretrain", "--config", cfg, "--out", tmp_path / "pre.ckpt"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seeds must be distinct, repeated: [1]\n"
    assert not (tmp_path / "pre.ckpt").exists()


@pytest.mark.parametrize("command,task", [("pretrain", "suite"), ("eval", "target")])
def test_negative_task_sample_seed_exits_2_with_one_line(tmp_path, command, task):
    obj = config_to_dict(ExperimentConfig(train=TrainConfig(epochs=1)))
    (obj["suite"][0] if task == "suite" else obj["target"])["sample_seed"] = -1
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(obj))
    # rejected when the config is read, before the named checkpoint is opened
    argv = (["pretrain", "--config", cfg, "--out", tmp_path / "pre.ckpt"] if command == "pretrain"
            else ["eval", "--model", tmp_path / "missing.ckpt", "--config", cfg])
    proc = subprocess.run(
        [sys.executable, "-m", "spiderft.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "sample_seed must be >= 0, got -1" in proc.stderr


@pytest.mark.parametrize("edit", [{"means": "1.5"}, {"class_count": 2**62}])
def test_finetune_on_an_inconsistent_suite_task_exits_2_with_one_line(tmp_path, capsys, edit):
    # finetune never generates the suite, so only the task itself can object
    obj = config_to_dict(ExperimentConfig(train=TrainConfig(epochs=1)))
    obj["suite"][0].update(edit)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(obj))
    pre = tmp_path / "pre.ckpt"
    save_checkpoint(build_model([8, 16, 16, 3], seed=0).tensor_map(), pre)
    assert run_cli(["finetune", "--config", cfg, "--pretrained", pre,
                    "--out", tmp_path / "tuned.ckpt"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: src_rot000: means shape ") and err.count("\n") == 1
    assert not (tmp_path / "tuned.ckpt").exists()


@pytest.mark.parametrize("repeat", ["suite", "target"])
def test_repeated_task_ids_exit_2_with_one_line(tmp_path, repeat):
    obj = config_to_dict(ExperimentConfig(train=TrainConfig(epochs=1)))
    (obj["suite"][2] if repeat == "suite" else obj["target"])["task_id"] = obj["suite"][0]["task_id"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(obj))
    # eval would key the source accuracies by id and average over fewer tasks
    proc = subprocess.run(
        [sys.executable, "-m", "spiderft.cli", "eval", "--model", str(tmp_path / "missing.ckpt"),
         "--config", str(cfg)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "repeated" in proc.stderr and obj["suite"][0]["task_id"] in proc.stderr


@pytest.mark.parametrize("command", ["eval", "finetune"])
def test_mismatched_bias_shape_exits_2_with_one_line(workspace, command):
    tmp, cfg = workspace
    bad = tmp / "bias.ckpt"
    save_checkpoint(TensorMap.from_tensors([
        FlatTensor.of("layer0.weight", np.ones((5, 8))),
        FlatTensor.of("layer0.bias", np.zeros(3)),  # should have 5 entries
        FlatTensor.of("layer1.weight", np.ones((3, 5))),
        FlatTensor.of("layer1.bias", np.zeros(3)),
    ]), bad)
    argv = (["eval", "--model", bad, "--config", cfg] if command == "eval" else
            ["finetune", "--pretrained", bad, "--config", cfg, "--out", tmp / "o.ckpt"])
    proc = subprocess.run(
        [sys.executable, "-m", "spiderft.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "layer 0 bias shape (3,)" in proc.stderr


@pytest.mark.parametrize("field", ["class_count", "input_dim"])
def test_eval_of_a_target_the_model_does_not_fit_exits_2_with_one_line(workspace, capsys, field):
    tmp, _ = workspace
    pre = pretrained_checkpoint(workspace)  # an 8-input, 3-class model
    capsys.readouterr()
    obj = config_to_dict(ExperimentConfig(train=TrainConfig(epochs=1)))
    means = np.asarray(obj["target"]["means"])
    if field == "class_count":  # labels 3 and 4, which the head can never predict
        obj["target"].update(class_count=5, means=np.vstack([means, means[:2] + 3.0]).tolist())
    else:
        obj["target"].update(input_dim=9, means=np.hstack([means, np.ones((3, 1))]).tolist())
    cfg = tmp / "mismatch.json"
    cfg.write_text(json.dumps(obj))
    assert run_cli(["eval", "--model", pre, "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{obj['target']['task_id']}: task has input_dim" in err


def assert_bad_output_exits_2_before_any_work(workspace, capsys, command, flag, where):
    tmp, cfg = workspace
    pre = pretrained_checkpoint(workspace)
    (tmp / "logs").mkdir()
    (tmp / "logs" / "metrics.csv").write_text(VALID_CSV)
    (tmp / "adir").mkdir()
    capsys.readouterr()
    argv = {
        "pretrain": ["pretrain", "--config", cfg, "--out", tmp / "o.ckpt"],
        "finetune": ["finetune", "--config", cfg, "--pretrained", pre, "--out", tmp / "o.ckpt",
                     "--log", tmp / "l.csv", "--grad-dump", tmp / "g.ckpt"],
        "merge": ["merge", "--pretrained", pre, "--finetuned", pre, "--strategy", "dare",
                  "--out", tmp / "m.ckpt"],
        "eval": ["eval", "--model", pre, "--config", cfg, "--out", tmp / "m.csv"],
        "report": ["report", "--logs", tmp / "logs", "--out", tmp / "r.csv"],
    }[command]
    at = argv.index(flag) + 1
    if where == "missing":
        argv[at], expected = tmp / "missing" / argv[at].name, f"no directory '{tmp / 'missing'}'"
    elif where == "directory":
        argv[at], expected = tmp / "adir", f"'{tmp / 'adir'}' is a directory"
    elif where == "empty":
        argv[at], expected = "", "empty path"
    else:  # the file another output flag names
        argv[at] = argv[argv.index("--out") + 1]
        expected = f"'{argv[at]}' is also the --out file"
    before = files_under(tmp)
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag}: {expected}\n"
    assert files_under(tmp) == before


@pytest.mark.parametrize("command, flag", [
    ("eval", "--out"), ("finetune", "--out"), ("finetune", "--log"), ("finetune", "--grad-dump"),
], ids=["eval-out", "finetune-out", "finetune-log", "finetune-grad-dump"])
def test_eval_out_into_a_missing_directory_exits_2_before_any_output(
    workspace, capsys, command, flag
):
    assert_bad_output_exits_2_before_any_work(workspace, capsys, command, flag, "missing")


@pytest.mark.parametrize("command, flag, where", [
    ("pretrain", "--out", "missing"), ("merge", "--out", "missing"),
    ("report", "--out", "missing"),
    ("finetune", "--log", "directory"), ("pretrain", "--out", "directory"),
], ids=lambda v: v.lstrip("-"))
def test_an_output_in_a_missing_directory_or_at_a_directory_exits_2_before_any_work(
    workspace, capsys, command, flag, where
):
    assert_bad_output_exits_2_before_any_work(workspace, capsys, command, flag, where)


@pytest.mark.parametrize("command, flag, where", [
    ("pretrain", "--out", "empty"), ("finetune", "--log", "empty"),
    ("finetune", "--log", "same"), ("finetune", "--grad-dump", "same"),
], ids=lambda v: v.lstrip("-"))
def test_an_empty_output_path_or_one_file_for_two_outputs_exits_2_before_any_work(
    workspace, capsys, command, flag, where
):
    assert_bad_output_exits_2_before_any_work(workspace, capsys, command, flag, where)


def test_corrupt_checkpoint_exits_2(workspace, tmp_path):
    tmp, cfg = workspace
    pre = pretrained_checkpoint(workspace)
    raw = bytearray(pre.read_bytes())
    raw[-1] ^= 0xFF
    bad = tmp / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    assert run_cli(["finetune", "--config", cfg, "--pretrained", bad,
                    "--out", tmp / "o.ckpt"]) == 2


def _layers_and(*extra):
    """A valid 8-5-3 model's tensors, then `extra`."""
    return TensorMap.from_tensors([
        FlatTensor.of("layer0.weight", np.ones((5, 8))), FlatTensor.of("layer0.bias", np.zeros(5)),
        FlatTensor.of("layer1.weight", np.ones((3, 5))), FlatTensor.of("layer1.bias", np.zeros(3)),
        *extra,
    ])


@pytest.mark.parametrize("command", ["eval", "finetune"])
@pytest.mark.parametrize("tensors", [
    lambda: tmap(encoder=[1.0, 2.0]),
    lambda: TensorMap.from_tensors([]),
    # parses as layer 1 too, so a name-to-index reading would drop a tensor
    lambda: _layers_and(FlatTensor.of("layer01.weight", np.ones((3, 5)))),
], ids=["foreign", "empty", "aliased"])
def test_foreign_tensor_names_exit_2(workspace, capsys, tensors, command):
    tmp, cfg = workspace
    bad = tmp / "foreign.ckpt"
    save_checkpoint(tensors(), bad)
    argv = (["eval", "--model", bad, "--config", cfg] if command == "eval" else
            ["finetune", "--pretrained", bad, "--config", cfg, "--out", tmp / "o.ckpt"])
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "each once" in err


def test_report_on_empty_directory_exits_2(tmp_path, capsys):
    assert main(["report", "--logs", str(tmp_path), "--out",
                 str(tmp_path / "out.csv")]) == 2
    # a line break in a file name is escaped: one error line
    capsys.readouterr()
    assert main(["report", "--logs", str(tmp_path / "no\nsuch"), "--out",
                 str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: no .csv files under {tmp_path}/no\\nsuch\n"


def test_report_rejects_foreign_csv(tmp_path, capsys):
    (tmp_path / "logs").mkdir()
    header = b"method,seed,task,metric,value\n"
    # a foreign header, a non-numeric or non-finite value, bytes that are not UTF-8, a field
    # over csv's limit, a row of the wrong length
    for content in [b"a,b\n1,2\n", header + b"spider,0,,h_average,abc\n",
                    header + b"spider,0,,h_average,nan\n", header + b"spider,0,,source_avg,inf\n",
                    header + b"spider,0,target,accuracy,-inf\n",
                    header + b"spider,0,,h_average,\xff\n",
                    header + b"spider,0,,h_average," + b"1" * 200_000 + b"\n",
                    header + b"spider,0,t\n"]:
        (tmp_path / "logs" / "x.csv").write_bytes(content)
        assert main(["report", "--logs", str(tmp_path / "logs"),
                     "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "x.csv" in err


def test_report_skips_its_own_output_under_logs(tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "metrics.csv").write_text(VALID_CSV)
    runs = []
    for _ in range(2):
        assert main(["report", "--logs", str(logs), "--out", str(logs / "c.csv")]) == 0
        runs.append(((logs / "c.csv").read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == VALID_CSV.encode()


def test_report_grid_scales_to_many_methods(tmp_path, capsys):
    # one grid row per method, in first-seen order, found by a dict lookup:
    # 50,000 distinct methods take well under a second
    logs = tmp_path / "logs"
    logs.mkdir()
    names = [f"m{i}" for i in range(50_000)]
    rows = "".join(f"{name},0,,h_average,0.5\n" for name in reversed(names))
    (logs / "metrics.csv").write_text("method,seed,task,metric,value\n" + rows)
    start = time.monotonic()
    assert main(["report", "--logs", str(logs), "--out", str(tmp_path / "c.csv")]) == 0
    assert time.monotonic() - start < 5.0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [f"{name} - - 0.5000 -" for name in reversed(names)]


def test_scipy_never_imported_and_sigmoid_loads_only_special_ufuncs(workspace):
    # import, pid, pretrain and eval take no sigmoid; the first sigmoid loads
    # the extension that defines expit, never the scipy package
    tmp, cfg = workspace
    pre = pretrained_checkpoint(workspace)
    grads = tmp / "g.ckpt"
    save_checkpoint(mapped(load_checkpoint(pre), np.abs), grads)
    commands = [
        ["pid", "--pretrained", str(pre), "--grads", str(grads)],
        ["pretrain", "--config", str(cfg), "--out", str(tmp / "again.ckpt")],
        ["eval", "--model", str(pre), "--config", str(cfg)],
    ]
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "import spiderft.cli\n"
        "def scipy_modules():\n"
        "    return sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.'))\n"
        "loaded = [scipy_modules()]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert spiderft.cli.main(argv) == 0, argv\n"
        "    loaded.append(scipy_modules())\n"
        "spiderft.tensors.sigmoid_array(np.zeros(1))\n"
        "loaded.append(scipy_modules())\n"
        "print(json.dumps(loaded))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # no scipy module is imported; _special_ufuncs is loaded by the sigmoid,
    # alone, and only then
    assert json.loads(proc.stdout.splitlines()[-1]) == [[]] * 4 + [["scipy.special._special_ufuncs"]]


def test_each_subcommand_imports_only_what_it_runs(workspace):
    # one fresh process per command, as a user runs them: pid, merge and
    # --help load neither the benchmark nor the config loader, and no
    # command imports the scipy package; the commands that take a sigmoid
    # load the one extension that defines expit, the others no scipy module;
    # --help, report and a usage error load no numpy
    tmp, cfg = workspace
    pre, tuned, grads, logs = (tmp / name for name in ("pre.ckpt", "t.ckpt", "g.ckpt", "logs"))
    logs.mkdir()
    commands = {
        "--help": ["--help"],
        "pretrain": ["pretrain", "--config", cfg, "--out", pre],
        "finetune": ["finetune", "--config", cfg, "--pretrained", pre, "--method", "spider",
                     "--out", tuned, "--grad-dump", grads],
        "merge": ["merge", "--pretrained", pre, "--finetuned", tuned, "--grads", grads,
                  "--strategy", "rescaled", "--out", tmp / "m.ckpt"],
        "eval": ["eval", "--model", tuned, "--config", cfg, "--out", logs / "m.csv"],
        "pid": ["pid", "--pretrained", pre, "--grads", grads],
        "report": ["report", "--logs", logs, "--out", tmp / "r.csv"],
        "usage error": ["merge", "--pretrained", pre, "--finetuned", tuned,
                        "--strategy", "nope", "--out", tmp / "u.ckpt"],
    }
    script = (
        "import json, sys\n"
        "import spiderft.cli\n"
        "try:\n"
        "    code = spiderft.cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "names = sorted(n for n in sys.modules\n"
        "               if n.startswith(('spiderft.', 'scipy')) or n == 'numpy')\n"
        "print(json.dumps([code, names]))\n"
    )
    loaded = {}
    for name, argv in commands.items():  # in pipeline order: each reads the last one's files
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, argv)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded[name] = json.loads(proc.stdout.splitlines()[-1])
        assert code == (1 if name == "usage error" else 0), (name, proc.stderr)
    for name, modules in loaded.items():
        expected = ["scipy.special._special_ufuncs"] if name in ("finetune", "merge") else []
        assert [n for n in modules if n.startswith("scipy")] == expected, (name, modules)
    for name in ("--help", "merge", "pid"):
        assert not {"spiderft.benchmark", "spiderft.config"} & set(loaded[name]), name
    # the parser's names come from spiderft.methods, so pid and --help load
    # neither the trainer nor masking, and merge not the trainer
    for name in ("--help", "pid"):
        assert not {"spiderft.trainer", "spiderft.masking"} & set(loaded[name]), name
    assert "spiderft.trainer" not in loaded["merge"]
    # the parser's and report's names need no numpy: methods owns them all
    for name in ("--help", "report"):
        assert loaded[name] == ["spiderft.cli", "spiderft.errors", "spiderft.methods"], name
    assert "numpy" not in loaded["usage error"]

    def choices(command, flag):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        return next(a.choices for a in sub.choices[command]._actions if flag in a.option_strings)

    # one owner for each name list: the very objects the trainer, masking
    # and benchmark modules use
    assert choices("finetune", "--method") is methods.METHOD_CHOICES is trainer.METHOD_CHOICES
    assert benchmark.METHOD_CHOICES is methods.METHOD_CHOICES
    assert choices("merge", "--strategy") is methods.MERGE_STRATEGIES is MERGE_STRATEGIES
    assert masking.DISCREPANCY_MASKS is methods.DISCREPANCY_MASKS
    assert MERGE_STRATEGIES == masking.DISCREPANCY_MASKS + ("dare",)


def test_help_via_subprocess_exits_0():
    proc = subprocess.run(
        [sys.executable, "-m", "spiderft.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "pretrain" in proc.stdout
    assert "merge" in proc.stdout


def test_the_program_freezes_the_heap_on_every_way_out(workspace):
    # run as `python -m spiderft.cli`: a success, --help and an exit-2
    # failure all end through run(), whose frozen heap the shutdown's
    # collector passes skip; atexit handlers still run and stdout is flushed
    tmp, _ = workspace
    pre = tmp / "pre.ckpt"
    save_checkpoint(tmap(w=[0.5, -2.0], b=[1.0]), pre)
    grads = tmp / "g.ckpt"
    save_checkpoint(tmap(w=[0.25, 1.0]), grads)
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('freeze count', gc.get_freeze_count()))\n"
        "runpy.run_module('spiderft.cli', run_name='__main__')\n"
    )
    cases = {  # argv, exit code, the command's own stdout before the probe's line
        "pid": (["pid", "--pretrained", pre, "--grads", grads], 0, lambda out: float(*out) >= 0),
        "--help": (["--help"], 0, lambda out: out[0].startswith("usage: spiderft")),
        "missing input": (["pid", "--pretrained", tmp / "absent.ckpt", "--grads", grads], 2,
                          lambda out: out == []),
    }
    for name, (argv, code, printed) in cases.items():
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, argv)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, (name, proc.stderr)
        *out, probe = proc.stdout.splitlines()
        assert printed(out), (name, proc.stdout)
        probe = probe.split()
        assert probe[:2] == ["freeze", "count"] and int(probe[2]) > 0, (name, proc.stdout)


def test_main_in_process_freezes_nothing(workspace):
    # tests and the benchmark's traced passes call main in-process: their
    # cyclic garbage must stay collectable
    before = gc.get_freeze_count()
    pretrained_checkpoint(workspace)
    assert main(["--bogus"]) == 1
    assert gc.get_freeze_count() == before


def test_the_installed_script_is_the_programs_entry_point():
    # pyproject's [project.scripts] names run, which `python -m` also calls
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^spiderft = "spiderft\.cli:run"$', pyproject, re.MULTILINE)


# ---------------------------------------------------------------------------
# Any subcommand, with one bad argument or one damaged input
# ---------------------------------------------------------------------------

# each subcommand's valid invocation, as (flag, value) pairs; a value named in
# INPUTS stands for that input's path, "out" for an output path
INVOCATIONS = {
    "pretrain": [("--config", "config"), ("--out", "out")],
    "finetune": [("--config", "config"), ("--pretrained", "checkpoint"), ("--out", "out")],
    "merge": [("--pretrained", "checkpoint"), ("--finetuned", "checkpoint"),
              ("--grads", "grads"), ("--strategy", "rescaled"), ("--out", "out")],
    "eval": [("--model", "checkpoint"), ("--config", "config")],
    "pid": [("--pretrained", "checkpoint"), ("--grads", "grads")],
    "report": [("--logs", "logs"), ("--out", "out")],
}
INPUTS = ("config", "checkpoint", "grads", "logs")


def _accepts(convert, low=-math.inf, high=math.inf):
    """Whether an option that converts its text with `convert` and requires
    low <= value < high takes a given text."""

    def accepts(text):
        try:
            return low <= convert(text) < high
        except ValueError:
            return False

    return accepts


# the options that check their value, by subcommand
CHECKED_OPTIONS = {
    "finetune": {"--method": METHOD_CHOICES.__contains__, "--seed": _accepts(int, 0)},
    "merge": {"--strategy": MERGE_STRATEGIES.__contains__,
              "--scope": NORMALIZATION_SCOPES.__contains__,
              "--drop-p": _accepts(float, 0.0, 1.0), "--seed": _accepts(int, 0)},
    "eval": {"--seed-label": _accepts(int)},
}

# any text a command line can carry: no NUL, and of the surrogates only those
# that stand for bytes that are not UTF-8 (Python's surrogateescape)
argv_text = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
                    | st.sampled_from(["\udc80", "\udcff"]), max_size=8)
# text that never parses as a number or names a method, a scope or a strategy
letters = st.text(alphabet="xyz", max_size=3)
# for a config key, by the type of its valid value: values of the wrong type
WRONG_VALUES = {
    int: st.none() | st.booleans() | st.floats() | letters | st.lists(st.integers(), max_size=2),
    float: st.none() | st.booleans() | letters | st.sampled_from([math.nan, math.inf, -math.inf]),
    str: st.none() | st.booleans() | st.integers() | st.just(""),
    list: st.none() | letters | st.lists(letters, min_size=1, max_size=2),
    dict: st.none() | letters | st.integers(),
}
VALID_CONFIG = config_to_dict(ExperimentConfig(train=TrainConfig(epochs=1)))
VALID_CSV = ("method,seed,task,metric,value\n"
             "spider,0,target,accuracy,0.5\nspider,0,,h_average,0.25\n")


@st.composite
def damaged_configs(draw) -> bytes:
    obj = json.loads(json.dumps(VALID_CONFIG))
    kind = draw(st.sampled_from(["truncate", "not_utf8", "root", "unknown_key", "wrong_value",
                                 "inconsistent_task"]))
    if kind == "truncate":
        text = json.dumps(obj)
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    if kind == "not_utf8":
        return b"\xff" + json.dumps(obj).encode()
    if kind == "root":
        obj = draw(st.none() | st.integers() | letters | st.lists(st.integers(), max_size=2))
    elif kind == "unknown_key":
        obj[draw(argv_text.filter(lambda key: key not in obj))] = draw(st.integers())
    elif kind == "inconsistent_task":  # each value has the right JSON type
        task = draw(st.sampled_from([obj["target"], *obj["suite"]]))
        means = task["means"]
        edit = draw(st.sampled_from(["means_shape", "class_count", "covariance", "equal_means"]))
        if edit == "means_shape":
            task["means"] = draw(st.sampled_from([means[0], means[:-1], [row[:-1] for row in means],
                                                  [row + [0.0] for row in means]]))
        elif edit == "class_count":
            task["class_count"] = draw(st.integers(4, 2**62))
        elif edit == "covariance":
            task["covariance_scale"] = draw(st.sampled_from([0, 0.0, -0.0, -0.35]))
        else:
            i, j = draw(st.lists(st.integers(0, len(means) - 1), min_size=2, max_size=2,
                                 unique=True))
            means[j] = list(means[i])
    else:
        where = draw(st.sampled_from([obj, obj["target"], obj["suite"][0]]))
        key = draw(st.sampled_from(sorted(where)))
        where[key] = draw(WRONG_VALUES[type(where[key])])
    return json.dumps(obj).encode()


def damaged_checkpoints(valid: bytes):
    @st.composite
    def damaged(draw) -> bytes:
        kind = draw(st.sampled_from(["truncate", "flip", "config"]))
        if kind == "truncate":
            return valid[: draw(st.integers(0, len(valid) - 1))]
        if kind == "config":
            return json.dumps(VALID_CONFIG).encode()
        raw = bytearray(valid)
        for at in draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4,
                                unique=True)):
            raw[at] ^= draw(st.integers(1, 255))
        return bytes(raw)

    return damaged()


@st.composite
def damaged_csvs(draw) -> bytes:
    header, *rows = VALID_CSV.splitlines(keepends=True)
    kind = draw(st.sampled_from(["header", "not_utf8", "value", "extra_field"]))
    if kind == "header":  # a strict prefix of the header line, and nothing else
        return header[: draw(st.integers(0, len(header) - 2))].encode()
    if kind == "not_utf8":
        return b"\xff" + VALID_CSV.encode()
    i = draw(st.integers(0, len(rows) - 1))
    fields_ = rows[i].rstrip("\n").split(",")
    if kind == "value":
        fields_[-1] = draw(letters)
    else:
        fields_.append(draw(letters))
    rows[i] = ",".join(fields_) + "\n"
    return (header + "".join(rows)).encode()


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A directory holding a valid file for each of INPUTS, by name, and the
    strategy that damages each one."""
    tmp = tmp_path_factory.mktemp("cli_inputs")
    paths = {"config": tmp / "config.json", "checkpoint": tmp / "pre.ckpt",
             "grads": tmp / "grads.ckpt", "logs": tmp / "logs"}
    paths["config"].write_text(json.dumps(VALID_CONFIG))
    model = build_model([8, 16, 16, 3], seed=0)
    save_checkpoint(model.tensor_map(), paths["checkpoint"])
    set_trainable_tail(model, 2)
    save_checkpoint(mapped(model.tensor_map(trainable_only=True), np.abs), paths["grads"])
    paths["logs"].mkdir()
    (paths["logs"] / "metrics.csv").write_text(VALID_CSV)
    damage = {"config": damaged_configs(), "logs": damaged_csvs(),
              **{role: damaged_checkpoints(paths[role].read_bytes())
                 for role in ("checkpoint", "grads")}}
    return tmp, paths, damage


@st.composite
def bad_invocations(draw):
    """A subcommand and its (flag, value) pairs, with one thing wrong: a bad
    value, a dropped or unknown option, an unknown subcommand, an input
    marked (kind, role) to be damaged or left out, or an output marked
    (kind, "out") to be an existing directory.  A value of None is a flag
    alone."""
    command = draw(st.sampled_from(sorted(INVOCATIONS)))
    pairs = list(INVOCATIONS[command])
    if draw(st.booleans()):  # a file
        kinds = ["damaged_input", "missing_input"] + (
            ["directory_output"] if ("--out", "out") in pairs else [])
    else:  # an argument
        kinds = ["drop_option", "unknown_option", "unknown_command"] + (
            ["bad_value"] if command in CHECKED_OPTIONS else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "bad_value":
        flag, accepts = draw(st.sampled_from(sorted(CHECKED_OPTIONS[command].items())))
        pairs = [p for p in pairs if p[0] != flag] + [(flag, draw(argv_text.filter(
            lambda text: not accepts(text))))]
    elif kind == "drop_option":
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif kind == "unknown_option":
        pairs.append(("--no-such-" + draw(argv_text), None))
    elif kind == "unknown_command":
        command = draw(argv_text.filter(lambda t: t not in INVOCATIONS and not t.startswith("-")))
    elif kind in ("damaged_input", "missing_input"):
        i = draw(st.sampled_from([i for i, (_, value) in enumerate(pairs) if value in INPUTS]))
        pairs[i] = (pairs[i][0], (kind, pairs[i][1]))
    elif kind == "directory_output":
        pairs[pairs.index(("--out", "out"))] = ("--out", (kind, "out"))
    return command, pairs


@settings(max_examples=120, deadline=None)
@given(invocation=bad_invocations(), data=st.data())
def test_any_bad_argument_or_damaged_input_exits_1_or_2_without_a_traceback(
        cli_inputs, invocation, data):
    tmp, paths, damage = cli_inputs
    command, pairs = invocation
    argv = [command]
    for flag, value in pairs:
        if isinstance(value, tuple):  # the file this run damages, leaves out or makes a directory
            kind, role = value
            if kind == "missing_input":
                path = tmp / f"missing{data.draw(argv_text)}"
            elif kind == "directory_output":
                path = tmp / "out_dir"
                path.mkdir(exist_ok=True)
            else:
                path = tmp / f"damaged_{role}"
                raw = data.draw(damage[role])
                if role == "logs":
                    path.mkdir(exist_ok=True)
                    (path / "metrics.csv").write_bytes(raw)
                else:
                    path.write_bytes(raw)
            value = path
        elif value in INPUTS:
            value = paths[value]
        elif value == "out":
            value = tmp / "out"
        argv += [flag] if value is None else [flag, str(value)]

    before = files_under(tmp)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the test with its traceback
    err = err.getvalue()
    lines = err.rstrip("\n").split("\n")  # a terminal breaks lines at "\n" alone
    if code == 1:
        assert lines[0].startswith("usage:"), err
        assert [ln for ln in lines if "error:" in ln] == [lines[-1]], err
    else:
        assert code == 2, (code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert files_under(tmp) == before, argv  # a failed command changes no file
