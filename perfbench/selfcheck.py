#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload once at the shortest length, traced and untraced, and
checks that each prints every metric named in BENCHMARK.json with its unit
and no failed operation.  Then it injects a fault (a checkpoint corrupted
before it is loaded) into wide and cli_chain and checks that the failure is
counted: ``failed`` above 0, ``correct`` false and a nonzero exit.  Exits 0
when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{cmd}: no output; stderr: {proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1])


def check_metrics(workload: str, trace: int, errors: list[str]) -> None:
    code, result = run(workload, trace)
    where = f"{workload} trace {trace}"
    if code != 0 or not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: exit {code}, result {json.dumps(result)[:500]}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append(f"{where}: metric names differ: missing {sorted(set(wanted) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{where}: {name} is {entry}, expected a number in {unit}")


def check_fault(workload: str, errors: list[str]) -> None:
    code, result = run(workload, 0, "--inject-fault")
    if code == 0 or result["correct"] or result["failed"] < 1:
        errors.append(f"{workload}: injected fault not counted: exit {code}, "
                      f"result {json.dumps(result)[:300]}")


def main() -> int:
    errors: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace, errors)
    for workload in ("wide", "cli_chain"):
        check_fault(workload, errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
