"""Cross-checks of the dposf reports against the independent oracles in
tests/oracles.py, which is imported from the checkout rather than copied, so
the benchmark and the test suite judge results by the same reference.

Each check returns (name, ok, detail). The caller puts the checkout's `src`
and `tests` directories on sys.path first.
"""
from __future__ import annotations

import json
from pathlib import Path

import oracles
from dposforensics.clustering import (
    sample_voting_records,
    top_stakeholders,
)
from dposforensics.metrics import utc_month
from dposforensics.model import load_trace
from dposforensics.motifs import build_vote_events
from dposforensics.replay import replay, replay_with_snapshots
from dposforensics.synth import monthly_sample_times

# Same relative tolerance as the replay-conservation acceptance test.
WEIGHT_RTOL = 1e-9


def candidate_weights(state) -> tuple[str, bool, str]:
    """Incremental candidate weights against a recomputation from accounts."""
    oracle = oracles.recompute_candidate_weights(state)
    worst = 0.0
    for cand, weight in state.candidates.items():
        expect = oracle.get(cand, 0.0)
        scale = max(abs(weight), abs(expect))
        if scale:
            worst = max(worst, abs(weight - expect) / scale)
    return ("oracle.candidate_weights", worst <= WEIGHT_RTOL,
            f"max relative drift {worst:.3g} over {len(state.candidates)} candidates")


def clusters(trace, report: Path, top_stake_pct: float,
             theta: float) -> tuple[str, bool, str]:
    """clusters.json against connected components of the theta-similarity graph."""
    times = monthly_sample_times(trace[0].timestamp, trace[-1].timestamp + 1)
    _, _, snapshots = replay_with_snapshots(trace, times)
    voters = top_stakeholders(snapshots[-1], top_stake_pct)
    records = sample_voting_records(snapshots, voters)
    expected = oracles.component_clusters(voters, records, theta)
    payload = json.loads(report.read_text(encoding="utf-8"))
    found = {frozenset(c["members"]) for c in payload["clusters"]}
    return ("oracle.component_clusters", found == expected,
            f"{len(found)} clusters reported, {len(expected)} from the oracle "
            f"over {len(voters)} voters")


def motifs(trace, state, report: Path, window_days: float) -> tuple[str, bool, str]:
    """motifs.jsonl against exhaustive scans of the candidate-restricted events."""
    window = int(window_days * 86_400)
    candidates = set(state.candidates)
    events = [e for e in build_vote_events(trace)
              if e.src in candidates and e.dst in candidates]
    expected = (oracles.brute_linear(events, window, candidates)
                | oracles.brute_triangular(events, window, candidates)
                | oracles.brute_eight(events, window, candidates))
    found = set()
    for line in report.read_text(encoding="utf-8").splitlines():
        inst = json.loads(line)
        found.add((inst["shape"], tuple(inst["participants"]),
                   utc_month(inst["window_start"])))
    return ("oracle.brute_motifs", found == expected,
            f"{len(found)} instances reported, {len(expected)} from the oracle "
            f"over {len(events)} candidate-restricted events")


def run_all(ledger: Path, reports: Path, command_names: set[str],
            top_stake_pct: float, theta: float, window_days: float) -> list[tuple]:
    trace = load_trace(str(ledger / "trace.jsonl"))
    state, _ = replay(trace)
    checks = [lambda: candidate_weights(state)]
    if command_names & {"cluster", "all"}:
        checks.append(lambda: clusters(trace, reports / "clusters.json",
                                       top_stake_pct, theta))
    if command_names & {"motifs", "all"}:
        checks.append(lambda: motifs(trace, state, reports / "motifs.jsonl",
                                     window_days))
    results = []
    for check in checks:
        try:
            results.append(check())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # A missing or malformed report fails its check, not the run.
            results.append(("oracle check", False, repr(exc)))
    return results
