"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

The count test generates each workload's seed-0 ledger and runs its traced
command sequence twice, in separate processes under different hash seeds
(about two minutes on a 2-core machine for all three workloads).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    workload = run.WORKLOADS[name]
    config = json.loads((run.BENCH_DIR / "workloads" / workload.config).read_text())
    deadline = run.Deadline(600.0)
    outcomes: list = []
    ledger, _ = run.setup(config, tmp_path, deadline, outcomes)
    assert all(ok for _, ok, _ in outcomes), outcomes
    digest = run.sha256(ledger / "trace.jsonl")
    counts = []
    for hash_seed in run.HASH_SEEDS[:2]:
        seq = run.run_sequence(workload, ledger, tmp_path / f"traced{hash_seed}",
                               hash_seed, digest, deadline, traced=True)
        assert not seq.problems
        counts.append(run.span_totals(seq)[1])
    assert counts[0]["model.actions"] > 0
    assert counts[0] == counts[1]


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ledger-m", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
