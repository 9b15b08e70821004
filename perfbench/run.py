#!/usr/bin/env python3
"""spiderft benchmark.

    python3 perfbench/run.py --workload {sweep,wide,cli_chain,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
One process, one client, closed loop: each pass starts after the previous
one has finished, until ``--seconds`` have passed (at least one pass).
BLAS is pinned to one thread before numpy is imported, in this process and
in every process it starts, because one thread gave the steadiest times.
Times are scaled by the machine's speed measured around each operation
(see clock.py); the raw wall times are in the result file.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median, over five fresh processes, of the time from process
  start to the first timed operation (interpreter, ``import spiderft``,
  input generation and warm-up);
* ``pass_s``: median time of one pass.  A pass is the 3x10 grid for
  ``sweep``; a spider run, a full_ft run and a checkpoint round trip for
  ``wide``; the five CLI commands for ``cli_chain``;
* ``peak_rss_mb``: ``ru_maxrss`` of this process, or of the largest CLI
  command for ``cli_chain``.

Failed operations are counted in ``failed`` out of ``attempted`` (the error
rate); an operation is a grid cell, a fine-tuning run, a checkpoint round
trip or a CLI command.

``--trace 1`` spends half the time on untraced passes and half on traced
ones, then runs the width sweep (widths.py), and prints the per-layer
metrics.  Span times are per pass (median over traced passes).  For
``cli_chain`` the traced passes call ``cli.main`` in-process, so after one
pass as separate processes the untraced passes do too.  A metric whose
layer the workload never calls is reported as 0 and marked "not exercised"
in the table.

The last line of standard output is one JSON object; a readable table with
sample counts and tail percentiles comes before it, and a result file with
the run's context is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# pinned before numpy is first imported, here and in every process started
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from clock import Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep", "wide", "cli_chain")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
SELF_MS = (
    "masking.weighted_mask", "masking.rescale_mask", "masking.merge",
    "importance.specialization_importance", "trainer.load_values",
    "importance.accumulate_gradient", "importance.pid", "trainer.forward",
    "trainer.backward", "trainer.sgd_step", "tensors.zscore_map",
    "benchmark.pretrain", "benchmark.evaluate", "benchmark.generate_task",
)
CALLS = ("importance.pid", "benchmark.pretrain", "benchmark.generate_task")
CLI_COMMANDS = ("pretrain", "finetune", "merge", "eval", "pid")


def parse_args(argv):
    p = argparse.ArgumentParser(description="spiderft benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # test-only: corrupt a checkpoint before it is loaded (wide, cli_chain)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    # internal: one set-up measurement in a fresh process
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------


def tail(values) -> dict | None:
    """Highest percentile on the ladder with at least ten samples beyond it."""
    n = len(values)
    ps = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0]
    if not ps:
        return None
    return {"p": ps[-1], "value": float(np.percentile(values, ps[-1]))}


def summary(values, unit: str) -> dict:
    values = [float(v) for v in values]
    return {"value": statistics.median(values) if values else 0.0, "unit": unit,
            "samples": len(values), "tail": tail(values)}


# ---------------------------------------------------------------------------
# set-up measurement
# ---------------------------------------------------------------------------


def setup_probe(args, workdir: Path) -> int:
    t0 = perf_counter()
    import spiderft.cli  # noqa: F401  (timed: the import users pay)

    import_s = perf_counter() - t0
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, workdir, False).warm_up()
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def measure_setup(args, workdir: Path) -> tuple[list[float], list[float], list[float]]:
    """Scaled and wall set-up times of fresh processes, and their import times."""
    clock = Clock("process")
    scaled_s, wall_s, imports = [], [], []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]

        def probe():
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                    cwd=probe_dir)
            ready = proc.stdout.readline()
            ready_at = perf_counter()
            proc.communicate(timeout=PROBE_TIMEOUT_S)
            return proc.returncode, ready, ready_at

        with open(probe_dir / "stderr.txt", "w+") as err:
            t0 = perf_counter()
            (code, ready, ready_at), wall, scaled = clock.time(probe)
            if code != 0 or not ready:
                err.seek(0)
                raise RuntimeError(f"set-up probe failed: {err.read()[-2000:]}")
        # the probe is timed up to its ready line, not to its exit
        setup = ready_at - t0
        imports.append(json.loads(ready)["import_s"])
        wall_s.append(setup)
        scaled_s.append(scaled * setup / wall)
    return scaled_s, wall_s, imports


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def closed_loop(workload, seconds: float, tracer=None):
    clock = Clock(workload.calibration)
    results, summaries = [], []
    deadline = perf_counter() + seconds
    while not results or perf_counter() < deadline:
        before = tracer.mark() if tracer else None
        results.append(workload.run_pass(tracer, clock))
        if tracer:
            summaries.append(tracer.summarize(before, tracer.mark()))
    return results, summaries


def context() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "clients": 1,
        "loop": "closed",
        "waiting": "not applicable: single-threaded, nothing waits on a queue",
    }


def per_layer_metrics(summaries, untraced, traced, setup_imports, widths) -> dict:
    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def dur_ms(s, name):
        return 1000.0 * s["dur_s"].get(name, 0.0)

    m = {}
    for name in SELF_MS:
        m[f"{name}.self_ms"] = (med(lambda s: 1000.0 * s["self_s"].get(name, 0.0)), "ms")
    m["trainer.driver.self_ms"] = (med(lambda s: 1000.0 * (
        s["self_s"].get("trainer.finetune_spider", 0.0)
        + s["self_s"].get("trainer.finetune_baseline", 0.0))), "ms")
    for name in CALLS:
        m[f"{name}.calls"] = (med(lambda s: s["calls"].get(name, 0)), "count")
    m["trainer.iterations"] = (med(lambda s: s["counters"]["iterations"]), "count")

    total = {k: sum(s["counters"][k] for s in summaries) for k in summaries[0]["counters"]}
    iters = total["iterations"]
    m["tensors.flat_tensors_per_iter"] = (total["flat_count"] / iters if iters else 0.0, "count")
    m["tensors.bytes_allocated_per_iter"] = (total["flat_bytes"] / iters if iters else 0.0, "B")
    m["masking.mask_density"] = (
        total["mask_kept"] / total["mask_total"] if total["mask_total"] else 0.0, "ratio")
    m["masking.empty_selections"] = (med(lambda s: s["counters"]["empty_selections"]), "count")

    for op, key in (("save", "bytes_saved"), ("load", "bytes_loaded")):
        name = f"checkpoint.{op}"
        m[f"{name}.ms"] = (med(lambda s: dur_ms(s, name)), "ms")
        seconds = sum(s["dur_s"].get(name, 0.0) for s in summaries)
        m[f"{name}.MB_per_s"] = (total[key] / 1e6 / seconds if seconds else 0.0, "MB/s")
    m["config.load_config.ms"] = (med(lambda s: dur_ms(s, "config.load_config")), "ms")
    m["cli.import_s"] = (statistics.median(setup_imports), "s")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = (med(lambda s: dur_ms(s, f"cli.{cmd}") / 1000.0), "s")

    per_iter = {k: [v for s in summaries for v in s["per_iter_s"][k]] for k in ("spider", "full_ft")}
    spider = 1000.0 * statistics.median(per_iter["spider"]) if per_iter["spider"] else 0.0
    full = 1000.0 * statistics.median(per_iter["full_ft"]) if per_iter["full_ft"] else 0.0
    m["trainer.spider_iter_ms"] = (spider, "ms")
    m["trainer.full_ft_iter_ms"] = (full, "ms")
    m["trainer.spider_overhead_ratio"] = (spider / full if spider and full else 0.0, "ratio")

    base = statistics.median(r.scaled_s for r in untraced)
    m["trace.overhead_pct"] = (
        100.0 * (statistics.median(r.scaled_s for r in traced) - base) / base, "%")
    for name, value in widths["fits"].items():
        m[name] = (value, "us" if name.endswith("fixed_us") else "ns/param")
    return m


def workload_metrics(name: str, results, setup_totals) -> dict:
    """The workload's own metrics, with their sample counts."""
    walls = [r.scaled_s for r in results]
    out = {}
    if name == "sweep":
        out["sweep_s"] = summary(walls, "s")
        out["spider_h_avg"] = summary([r.detail["spider_h_avg"] for r in results
                                       if "spider_h_avg" in r.detail], "h")
    elif name == "wide":
        for key in ("spider_iter_ms", "full_ft_iter_ms", "ckpt_roundtrip_ms"):
            out[key] = summary([r.detail[key] for r in results if key in r.detail], "ms")
    else:
        out["cli_chain_s"] = summary(walls, "s")
        for cmd in CLI_COMMANDS:
            out[f"{cmd}_s"] = summary([r.detail[f"{cmd}_s"] for r in results
                                       if f"{cmd}_s" in r.detail], "s")
    out["setup_s"] = summary(setup_totals, "s")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    out["error_rate"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted,
                         "tail": None}
    return out


def print_table(title: str, rows: dict, not_exercised=()) -> None:
    print(f"== {title}")
    print(f"  {'metric':44s} {'value':>14s} {'unit':9s} {'n':>6s}  tail")
    for name, row in rows.items():
        t = row.get("tail")
        tail_txt = f"p{t['p']:g}={t['value']:.6g}" if t else "-"
        note = "  (not exercised)" if name in not_exercised else ""
        n = row.get("samples", "")
        print(f"  {name:44s} {row['value']:14.6g} {row['unit']:9s} {str(n):>6s}  {tail_txt}{note}")


def run_workload(args, workdir: Path) -> int:
    setup_totals, setup_walls, setup_imports = measure_setup(args, workdir)

    from workloads import WORKLOADS

    t0 = perf_counter()
    workload = WORKLOADS[args.workload](args.seed, workdir, args.inject_fault)
    workload.warm_up()
    main_setup_s = perf_counter() - t0

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    if args.trace and args.workload == "cli_chain":
        # one pass as users run it, for its checks and the reference digest;
        # the rest in-process, the baseline for the in-process traced passes
        untraced, _ = closed_loop(workload, 0.0)
        workload.in_process = True
        baseline, _ = closed_loop(workload, untraced_s)
    else:
        untraced, _ = closed_loop(workload, untraced_s)
        baseline = []
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, summaries, widths, span_calls = [], [], None, {}
    if args.trace:
        from tracer import Tracer
        from widths import width_sweep

        tracer = Tracer()
        tracer.install()
        try:
            traced, summaries = closed_loop(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        widths = width_sweep(args.seed)
        arrays = tracer.arrays()
        np.savez(OUT / f"spans-{args.workload}.npz",
                 names=np.asarray(tracer.names), **arrays)
        for name in tracer.names:
            calls = np.concatenate([s["call_s"][name] for s in summaries if name in s["call_s"]]
                                   or [np.empty(0)])
            span_calls[name] = summary(1e6 * calls, "us")
            span_calls[name]["calls_per_pass"] = len(calls) / len(summaries)

    results = untraced + baseline + traced
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]

    if args.trace:
        raw = per_layer_metrics(summaries, baseline or untraced, traced, setup_imports, widths)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        rows = {k: {"value": v, "unit": u, "samples": len(summaries)} for k, (v, u) in raw.items()}
        idle = [k for k, (v, _) in raw.items() if v == 0 and not k.endswith(
            ("overhead_pct", "empty_selections"))]
    else:
        peak = (max(r.peak_rss_mb for r in untraced) if args.workload == "cli_chain"
                else own_rss_mb)
        rows = {
            "setup_s": summary(setup_totals, "s"),
            "pass_s": summary([r.scaled_s for r in untraced], "s"),
            "peak_rss_mb": {"value": peak, "unit": "MB", "samples": 1, "tail": None},
        }
        metrics = {k: {"value": rows[k]["value"], "unit": u} for k, u in END_TO_END.items()}
        idle = []

    wl_rows = workload_metrics(args.workload, untraced, setup_totals)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced) + len(baseline)} untraced and {len(traced)} traced passes, "
          f"{failed}/{attempted} operations failed")
    print_table("workload metrics (untraced passes)", wl_rows)
    print_table("per-layer metrics (per traced pass)" if args.trace else "end-to-end metrics",
                rows, idle)
    for p in problems[:20]:
        print(f"  FAILED: {p}")

    record = {
        "workload": {"name": args.workload, "why": workload.why, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace},
        "context": context(),
        "main_setup_s": main_setup_s,
        "setup_s": {"scaled": setup_totals, "wall": setup_walls, "import": setup_imports},
        "pass_s": {kind: {"scaled": [r.scaled_s for r in rs], "wall": [r.wall_s for r in rs]}
                   for kind, rs in (("untraced", untraced), ("untraced_in_process", baseline),
                                    ("traced", traced))},
        "workload_metrics": wl_rows,
        "metrics": rows,
        "not_exercised": idle,
        "spans": span_calls,
        "width_sweep": widths,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=float))

    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spiderft" / "__init__.py").is_file():
        print(f"error: no spiderft sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args, Path.cwd())

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
