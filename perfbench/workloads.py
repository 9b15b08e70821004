"""The three benchmark workloads.

Each workload is built from the workload seed, warms up, and then runs
passes in a closed loop (one client; a pass starts when the previous one
has finished).  A pass is a fixed list of operations.  ``run_pass`` times
each operation, a call into spiderft's public functions or one CLI command,
from outside through a ``Clock`` and checks its outputs.  It looks
functions up through their modules at call time, so a pass runs traced
when the tracer is installed and untraced otherwise, with no other
difference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spiderft import benchmark, checkpoint, cli, trainer
from spiderft.trainer import TrainConfig

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
TOL = EXPECTED["tolerance"]
DEFAULT_SEED = EXPECTED["default_seed"]


@dataclass
class PassResult:
    attempted: int
    failed: int = 0
    wall_s: float = 0.0  # sum over the pass's operations, raw
    scaled_s: float = 0.0  # the same, scaled by the machine's speed (see clock.py)
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None

    def add(self, wall: float, scaled: float) -> None:
        self.wall_s += wall
        self.scaled_s += scaled

    def fail(self, problems: list[str], operations: int = 1) -> None:
        if problems:
            self.problems += problems
            self.failed = min(self.attempted, self.failed + operations)


def _digest_map(tm) -> str:
    h = hashlib.sha256()
    for t in tm:
        h.update(t.name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _corrupt(path: Path) -> None:
    """Test-only fault: flip one byte in the middle of a file."""
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


class _Repeatable:
    """Remembers the first digest seen per key and flags any later change."""

    def __init__(self):
        self._first: dict[str, str] = {}

    def check(self, key: str, digest: str) -> str | None:
        first = self._first.setdefault(key, digest)
        if digest != first:
            return f"{key}: output digest changed between passes ({first[:12]} -> {digest[:12]})"
        return None


# ---------------------------------------------------------------------------
# sweep: the paper's 3-method x 10-seed grid on the default tiny model
# ---------------------------------------------------------------------------


class Sweep:
    name = "sweep"
    why = ("the paper's 3-method x 10-seed grid on the 323-parameter model, where "
           "pretraining, evaluation and fixed per-call Python overhead dominate")
    # The grid runs one seed per run_experiment call, so that the clock can
    # measure the machine's speed between seeds; the reports are the same.
    methods = ("zero_shot", "full_ft", "spider")
    calibration = "interpreter"

    def __init__(self, seed: int, workdir: Path, inject: bool):
        if inject:
            raise ValueError("sweep has no fault-injection path; use wide or cli_chain")
        self.seed = seed
        self.grid_seeds = [seed * 10 + k for k in range(10)]
        self.suite = benchmark.default_suite()
        self.target = benchmark.default_target()
        self.repeat = _Repeatable()

    def warm_up(self) -> None:
        benchmark.run_experiment(self.suite, self.target, self.methods,
                                 TrainConfig(epochs=1), self.grid_seeds[:1], pretrain_epochs=1)

    def run_pass(self, tracer, clock) -> PassResult:
        result = PassResult(len(self.methods) * len(self.grid_seeds))
        reports = []
        for seed in self.grid_seeds:
            try:
                cells, wall, scaled = clock.time(
                    benchmark.run_experiment, self.suite, self.target, self.methods,
                    TrainConfig(), [seed])
            except Exception as exc:  # every cell of the seed failed
                result.fail([_failure(exc)], len(self.methods))
                continue
            result.add(wall, scaled)
            reports += cells
        if result.failed:
            return result

        means = {
            m: {k: float(np.mean([getattr(r, k) for r in reports if r.method == m]))
                for k in ("h_avg", "source_avg", "target_accuracy")}
            for m in self.methods
        }
        problems = []
        spider, full = means["spider"], means["full_ft"]
        if not (spider["h_avg"] > full["h_avg"] and spider["source_avg"] > full["source_avg"]):
            problems.append(f"spider does not beat full_ft on h_avg and source_avg: {means}")
        if self.seed == DEFAULT_SEED:
            for m, values in EXPECTED["sweep_means"].items():
                for k, want in values.items():
                    if abs(means[m][k] - want) > TOL:
                        problems.append(f"{m}.{k} = {means[m][k]:.4f}, recorded {want:.4f}")
        digest = hashlib.sha256(repr([
            (r.method, r.seed, sorted(r.per_source_accuracy.items()), r.target_accuracy,
             r.h_avg, r.o_avg) for r in reports
        ]).encode()).hexdigest()
        if (msg := self.repeat.check("grid", digest)) is not None:
            problems.append(msg)
        result.fail(problems, result.attempted)
        result.detail = {"spider_h_avg": spider["h_avg"], "means": means, "digest": digest}
        return result


# ---------------------------------------------------------------------------
# wide: one fine-tuning epoch on an 8-1024-1024-3 model, plus checkpoint I/O
# ---------------------------------------------------------------------------

WIDE = 1024


class Wide:
    name = "wide"
    why = ("spider and full_ft on a ~1.05M-parameter trainable tail, where numpy work "
           "on large arrays dominates and masking cost shows against plain SGD")
    calibration = "arrays"

    def __init__(self, seed: int, workdir: Path, inject: bool):
        self.inject = inject
        self.dir = workdir
        self.base = trainer.build_model([8, WIDE, WIDE, 3], seed)
        trainer.set_trainable_tail(self.base, 2)
        target = benchmark.generate_task(benchmark.default_target())
        self.data = trainer.batches_of(target.train_inputs, target.train_labels, 16)
        self.cfg = {m: TrainConfig(epochs=1, batch_size=16, method=m, seed=seed)
                    for m in ("spider", "full_ft")}
        self.frozen = {t.name: t.data.copy() for t in self.base.tensors()
                       if not self.base.trainable[t.name]}
        self.repeat = _Repeatable()

    def _fresh(self, method: str):
        """Driver, model and pretrained snapshot for one fine-tuning run."""
        model = self.base.copy()
        driver = trainer.finetune_spider if method == "spider" else trainer.finetune_baseline
        return driver, model, model.tensor_map(trainable_only=True).copy()

    def warm_up(self) -> None:
        for method in self.cfg:
            driver, model, pretrained = self._fresh(method)
            driver(model, pretrained, self.data[:1], self.cfg[method])

    def _check_model(self, method, model, pretrained, tracer) -> list[str]:
        problems = []
        if (msg := self.repeat.check(method, _digest_map(model.tensor_map()))) is not None:
            problems.append(msg)
        for t in model.tensors():
            if t.name in self.frozen and not np.array_equal(t.data, self.frozen[t.name]):
                problems.append(f"{method}: frozen tensor {t.name} changed")
        if method == "spider" and tracer is not None:
            mask = tracer.last_mask
            for t, w_pre, m in zip(model.tensor_map(trainable_only=True), pretrained, mask.mask):
                outside = (t.data != w_pre.data) & (m.data == 0.0)
                if outside.any():
                    problems.append(f"spider: {int(outside.sum())} weights of {t.name} "
                                    "changed outside the final mask's support")
        return problems

    def _save_load(self, tuned, grads, model_path, grads_path):
        checkpoint.save_checkpoint(tuned, model_path)
        checkpoint.save_checkpoint(grads, grads_path)
        if self.inject:
            _corrupt(model_path)
        return checkpoint.load_checkpoint(model_path), checkpoint.load_checkpoint(grads_path)

    def _roundtrip(self, tuned, grads, clock) -> tuple[float, float, list[str]]:
        model_path, grads_path = self.dir / "tuned.ckpt", self.dir / "grads.ckpt"
        (loaded, loaded_grads), wall, scaled = clock.time(
            self._save_load, tuned, grads, model_path, grads_path)

        problems = []
        for original, back in ((tuned, loaded), (grads, loaded_grads)):
            for a, b in zip(original, back):
                if a.shape != b.shape or not np.array_equal(
                        a.data.astype(np.float32).astype(np.float64), b.data):
                    problems.append(f"checkpoint: {a.name} did not round-trip")
        resaved = self.dir / "resaved.ckpt"
        checkpoint.save_checkpoint(loaded, resaved)
        if resaved.read_bytes() != model_path.read_bytes():
            problems.append("checkpoint: reloaded model does not re-serialize byte-identically")
        return wall, scaled, problems

    def run_pass(self, tracer, clock) -> PassResult:
        result = PassResult(3)
        tuned = None
        for method in self.cfg:
            try:
                driver, model, pretrained = self._fresh(method)
                (model, log), wall, scaled = clock.time(
                    driver, model, pretrained, self.data, self.cfg[method])
                result.add(wall, scaled)
                result.detail[f"{method}_iter_ms"] = 1000.0 * scaled / len(log.losses)
                problems = self._check_model(method, model, pretrained, tracer)
                if method == "spider":
                    tuned = (model.tensor_map(), log.final_accumulator)
            except Exception as exc:
                problems = [_failure(exc)]
            result.fail(problems)
        try:
            if tuned is None:
                raise RuntimeError("no tuned spider model to checkpoint")
            wall, scaled, problems = self._roundtrip(*tuned, clock)
            result.add(wall, scaled)
            result.detail["ckpt_roundtrip_ms"] = 1000.0 * scaled
        except Exception as exc:
            problems = [_failure(exc)]
        result.fail(problems)
        return result


# ---------------------------------------------------------------------------
# cli_chain: the README command chain, one interpreter per command
# ---------------------------------------------------------------------------

COMMAND_TIMEOUT_S = 60.0


class CliChain:
    name = "cli_chain"
    why = ("the README pretrain-finetune-merge-eval-pid chain as separate processes, the only "
           "workload that pays interpreter start-up and imports and uses config and cli")
    calibration = "process"

    def __init__(self, seed: int, workdir: Path, inject: bool):
        self.seed = seed
        self.inject = inject
        self.dir = workdir
        f = {k: str(workdir / v) for k, v in {
            "config": "config.json", "pre": "pretrained.ckpt", "tuned": "tuned.ckpt",
            "log": "trace.csv", "grads": "grads.ckpt", "merged": "merged.ckpt",
            "metrics": "metrics.csv"}.items()}
        Path(f["config"]).write_text(json.dumps({"seeds": [seed]}))
        self.files = f
        self.outputs = [f[k] for k in ("pre", "tuned", "log", "grads", "merged", "metrics")]
        self.commands = [
            ("pretrain", ["pretrain", "--config", f["config"], "--out", f["pre"]]),
            ("finetune", ["finetune", "--config", f["config"], "--pretrained", f["pre"],
                          "--method", "spider", "--out", f["tuned"], "--log", f["log"],
                          "--grad-dump", f["grads"]]),
            ("merge", ["merge", "--pretrained", f["pre"], "--finetuned", f["tuned"],
                       "--grads", f["grads"], "--strategy", "rescaled", "--out", f["merged"]]),
            ("eval", ["eval", "--model", f["merged"], "--config", f["config"],
                      "--out", f["metrics"], "--method-label", "spider",
                      "--seed-label", str(seed)]),
            ("pid", ["pid", "--pretrained", f["pre"], "--grads", f["grads"], "--per-tensor"]),
        ]
        src = str(HERE.parent / "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.repeat = _Repeatable()
        # run commands through cli.main in this process instead of one process
        # each; traced passes always do, so command time is apart from start-up
        self.in_process = False

    def warm_up(self) -> None:
        pass

    def _subprocess(self, argv) -> tuple[int, str, str, float]:
        out_path, err_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "spiderft.cli", *argv],
                                    stdout=out, stderr=err, env=self.env)
            deadline = time.monotonic() + COMMAND_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                time.sleep(0.001)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out_path.read_text(), err_path.read_text(),
                usage.ru_maxrss / 1024.0)

    def _in_process(self, name, argv, tracer) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue(), 0.0

    def _check_output(self, name: str, stdout: str) -> list[str]:
        if name == "eval":
            values = dict(line.split(" ", 1) for line in stdout.splitlines()
                          if line.count(" ") == 1)
            h, a_s, a_t = (float(values[k]) for k in ("h_average", "source_avg", "target_accuracy"))
            want = 2 * a_s * a_t / (a_s + a_t) if min(a_s, a_t) > 0 else 0.0
            problems = []
            if not (0.0 <= h <= 1.0 and math.isclose(h, want, rel_tol=1e-12, abs_tol=1e-12)):
                problems.append(f"eval: h_average {h} inconsistent with {a_s}, {a_t}")
            if self.seed == DEFAULT_SEED and abs(h - EXPECTED["cli_h_average"]) > TOL:
                problems.append(f"eval: h_average {h:.4f}, recorded {EXPECTED['cli_h_average']:.4f}")
            return problems
        if name == "pid":
            values = [float(line.rsplit(" ", 1)[1]) for line in stdout.splitlines()]
            if len(values) < 2 or min(values) < 1.0:
                return [f"pid: expected per-tensor values >= 1, got {values}"]
        return []

    def run_pass(self, tracer, clock) -> PassResult:
        for path in self.outputs:
            Path(path).unlink(missing_ok=True)
        result = PassResult(len(self.commands), peak_rss_mb=0.0)
        pid_stdout = ""
        for name, argv in self.commands:
            if self.inject and name == "merge" and os.path.exists(self.files["tuned"]):
                _corrupt(Path(self.files["tuned"]))
            try:
                if tracer is None and not self.in_process:
                    (code, stdout, stderr, rss), wall, scaled = clock.time(self._subprocess, argv)
                else:
                    (code, stdout, stderr, rss), wall, scaled = clock.time(
                        self._in_process, name, argv, tracer)
                result.add(wall, scaled)
                result.detail[f"{name}_s"] = scaled
                result.peak_rss_mb = max(result.peak_rss_mb, rss)
                problems = ([f"{name}: exit {code}: {stderr.strip()[-300:]}"] if code
                            else self._check_output(name, stdout))
            except Exception as exc:
                problems = [f"{name}: {_failure(exc)}"]
                stdout = ""
            if name == "pid":
                pid_stdout = stdout
            result.fail(problems)

        h = hashlib.sha256(pid_stdout.encode())
        for path in self.outputs:
            if os.path.exists(path):
                h.update(Path(path).read_bytes())
        if (msg := self.repeat.check("outputs", h.hexdigest())) is not None:
            result.fail([msg])
        result.detail["digest"] = h.hexdigest()
        return result


WORKLOADS = {w.name: w for w in (Sweep, Wide, CliChain)}
