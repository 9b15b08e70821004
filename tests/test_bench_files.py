"""Every committed BENCH_*.json performance record carries the same fields.

A record is written by a change that claims or checks a performance effect.
It holds the machine it was measured on, the size of the source, the tier-1
suite's wall time and test count, per-workload parent and change statistics
of the benchmark's end-to-end metrics with their pair counts, and the traced
per-stage split of one wide spider and one full_ft iteration.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = ("sweep", "wide", "cli_chain")
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
STATISTICS = ("median", "q1", "q3")
SIDES = ("parent", "change")
METHODS = ("spider", "full_ft")


def number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_carries_every_field(path):
    record = json.loads(path.read_text())

    machine = record["machine"]
    assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1
    assert isinstance(machine["numpy"], str) and isinstance(machine["scipy"], str)
    assert isinstance(record["src_lines"], int) and record["src_lines"] > 0
    assert number(record["tier1"]["wall_s"])
    assert isinstance(record["tier1"]["tests"], int) and record["tier1"]["tests"] > 0

    for name in WORKLOADS:
        workload = record["workloads"][name]
        assert isinstance(workload["pairs"], int) and workload["pairs"] >= 1
        for side in SIDES:
            for metric in END_TO_END:
                stats = workload[side][metric]
                assert all(number(stats[k]) for k in STATISTICS), (name, side, metric)
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, side, metric)

    split = record["stage_split_ms"]
    for method in METHODS:
        for side in SIDES:
            stages = split[method][side]
            assert stages and all(number(ms) and ms >= 0 for ms in stages.values())
