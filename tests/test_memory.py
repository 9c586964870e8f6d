"""Memory budgets of the two analysis stages that grow with the voters, and
of the generator, which grows with the ledger.

tracemalloc counts numpy's buffers, so each budget is deterministic: the
traced peak of one call, beyond the memory its result holds, against a bound
derived from the sizes of its input. A budget fails when a stage goes back to
arrays that grow in a wider dtype or in one piece.
"""
import tracemalloc

import pytest

from dposforensics import clustering, gangs
from dposforensics.clustering import (
    cluster_voters,
    sample_voting_records,
    similarity_blocks,
    top_stakeholders,
)
from dposforensics.model import MAX_VOTES
from dposforensics.replay import VoteLog, replay_with_snapshots
from dposforensics.synth import GenConfig, PlantSpec, generate_ledger

from conftest import DAY

# A ufunc that casts its inputs works through numpy's buffers of 8192
# elements: two float64 ones at most, here.
UFUNC_BUFFERS = 2 * 8192 * 8
SLACK = 64 * 1024


def peak_beyond_result(make):
    """The traced peak of make(), less the memory its result still holds."""
    make()  # first-use imports and caches
    tracemalloc.start()
    try:
        result = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


CONFIG = GenConfig(
    seed=3, n_accounts=6000, n_candidates=60, n_proxies=20, duration_days=30,
    participation_rate=0.5, plants=[PlantSpec(kind="similar_cluster", size=8)])


@pytest.fixture(scope="module")
def ledger():
    """A generated ledger's vote log, end time and daily snapshots."""
    trace, _, _ = generate_ledger(CONFIG)
    log = VoteLog()
    times = [trace[0].timestamp + day * DAY for day in range(1, 31)]
    state, _, snapshots = replay_with_snapshots(trace, times, [log])
    return log, state.end_time, snapshots


def test_voting_network_within_its_budget(ledger, monkeypatch):
    log, end_time, _ = ledger
    chunk = 256
    monkeypatch.setattr(gangs, "_CHUNK", chunk)
    k, n_sets = len(log.candidates), len(log.vote_sets)
    rows, sources = len(log.src), len(log.sources)
    assert n_sets > 8 * chunk and rows > 5000
    budget = (k * -(-n_sets // 8) + n_sets  # the packed table, and one row of it
              + chunk * (k + 8 * MAX_VOTES)  # one chunk's table and int32 indices
              + 60 * rows  # the rows by source, and one target's positions
              + sources * (k // 8 + 10)  # the sources' bits and candidate ids
              + UFUNC_BUFFERS + SLACK)
    peak = peak_beyond_result(lambda: gangs.voting_network(log, end_time))
    assert peak <= budget, (peak, budget)


def test_cluster_voters_within_its_budget(ledger):
    snapshots = ledger[2]
    voters = top_stakeholders(snapshots[-1], 0.05)
    records = sample_voting_records(snapshots, voters)
    n, times = len(voters), len(snapshots)
    k = len({c for record in records.values() for s in record.sets for c in s})
    # the theta-neighbours listed, each a list item
    pairs = sum(int((row >= 0.9).sum()) - 1
                for _, block in similarity_blocks(sorted(voters), records) for row in block)
    assert times == 30 and n > 100
    budget = (times * n * (k + 2)  # one byte per 0/1 entry, two per set size
              # a row block: two floats and four bytes per pair, and the
              # caller's float of the block before
              + clustering._BLOCK_ROWS * n * 28
              + 200 * n + 8 * pairs  # the neighbour lists
              + UFUNC_BUFFERS + SLACK)
    peak = peak_beyond_result(lambda: cluster_voters(voters, records))
    assert peak <= budget, (peak, budget)


def test_generate_ledger_within_its_budget():
    """generate_ledger holds one copy of the ledger: each raw action is freed
    as its Action is built, so beyond the trace, headers and truth it returns
    it holds little more than the fold that elects each round's producers.
    Holding the raw actions to the end, as a list beside the trace, takes
    about 400 bytes per action."""
    actions = len(generate_ledger(CONFIG)[0])
    assert actions > 10_000
    budget = 120 * actions + SLACK
    peak = peak_beyond_result(lambda: generate_ledger(CONFIG))
    assert peak <= budget, (peak, budget)
