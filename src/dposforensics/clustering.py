"""Similarity-based voter clustering over sampled voting records.

Records are per-voter sequences of proxy-resolved candidate sets, one per
sample time. Pair similarity is the mean per-time Jaccard coefficient with
both-empty times excluded; clusters come from a threshold-graph traversal
seeded at each unvisited voter, emitting only clusters of size >= 2.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .metrics import stake_distribution
from .replay import VotingSnapshot

if TYPE_CHECKING:
    import numpy as np


class ClusteringError(Exception):
    pass


@dataclass(frozen=True)
class VotingRecord:
    voter: str
    sets: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class VoterCluster:
    members: frozenset[str]
    seed: str


def sample_voting_records(snapshots: Sequence[VotingSnapshot],
                          voters: Sequence[str]) -> dict[str, VotingRecord]:
    """Per-voter effective candidate set at each snapshot; absent voters get
    the empty set. Entries with the same votes tuple share one set."""
    names = sorted(set(voters))
    shared: dict[tuple[str, ...], frozenset[str]] = {(): frozenset()}
    records = {}
    for name in names:
        sets = []
        for snap in snapshots:
            entry = snap.per_voter.get(name)
            votes = entry.votes if entry is not None else ()
            if votes not in shared:
                shared[votes] = frozenset(votes)
            sets.append(shared[votes])
        records[name] = VotingRecord(voter=name, sets=tuple(sets))
    return records


def record_similarity(a: VotingRecord, b: VotingRecord) -> float:
    """Mean Jaccard over sample times; both-empty times are excluded from the
    mean, and all-both-empty pairs score 0."""
    if len(a.sets) != len(b.sets):
        raise ClusteringError(
            f"record lengths differ: {len(a.sets)} vs {len(b.sets)}")
    total = 0.0
    counted = 0
    for sa, sb in zip(a.sets, b.sets):
        if not sa and not sb:
            continue
        counted += 1
        union = len(sa | sb)
        if union:
            total += len(sa & sb) / union
    return total / counted if counted else 0.0


def similarity_blocks(names: Sequence[str], records: Mapping[str, VotingRecord],
                      block: int = 64) -> Iterator[tuple[int, np.ndarray]]:
    """record_similarity of every pair of names, as (first row, rows) blocks
    of the names x names matrix.

    One candidate x voter 0/1 matrix per sample time gives each pair's
    intersection by a matrix product and its union from the set sizes. The
    per-time ratios are summed over the times in order and divided by the
    count of times with a nonempty union: the same float operations as
    record_similarity, so each value is bit-equal to it.

    The 0/1 matrices, and so the intersections, take the narrowest unsigned
    dtype that holds the largest set's size: one byte, since a vote names at
    most MAX_VOTES candidates. A row block holds two floats and four such
    narrow integers per pair.
    """
    import numpy as np

    lengths = {len(records[name].sets) for name in names}
    if len(lengths) > 1:
        raise ClusteringError(
            f"record lengths differ: {min(lengths)} vs {max(lengths)}")
    times = max(lengths, default=0)
    columns = {c: j for j, c in enumerate(sorted(
        {c for name in names for s in records[name].sets for c in s}))}
    widest = max((len(s) for name in names for s in records[name].sets), default=0)
    ones_type = np.min_scalar_type(widest)
    union_type = np.min_scalar_type(2 * widest)
    matrices = []
    for t in range(times):
        ones = np.zeros((len(columns), len(names)), ones_type)
        for row, name in enumerate(names):
            ones[[columns[c] for c in records[name].sets[t]], row] = 1
        matrices.append((ones, ones.sum(axis=0, dtype=union_type)))
    n = len(names)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        total = np.zeros((hi - lo, n))
        counted = np.zeros((hi - lo, n), np.min_scalar_type(times))
        inter = np.empty((hi - lo, n), ones_type)
        union = np.empty((hi - lo, n), union_type)
        nonempty = np.empty((hi - lo, n), bool)
        ratio = np.empty((hi - lo, n))
        for ones, sizes in matrices:
            # einsum's own integer loops, not BLAS: BLAS's work buffers
            # would raise the command's peak memory
            np.einsum("ki,kj->ij", ones[:, lo:hi], ones, out=inter)
            np.add(sizes[lo:hi, None], sizes[None, :], out=union)
            union -= inter
            np.greater(union, 0, out=nonempty)
            counted += nonempty
            # an empty union's intersection is empty too: 0 / 1 adds 0.0,
            # which leaves the sum unchanged
            np.maximum(union, 1, out=union)
            total += np.divide(inter, union, out=ratio)
        # an uncounted pair's total is 0.0, and 0.0 / 1 keeps it
        yield lo, np.divide(total, np.maximum(counted, 1, out=counted), out=total)


# Rows per similarity block in cluster_voters: fewer rows hold less memory
# at once, for a few more matrix products.
_BLOCK_ROWS = 16


def cluster_voters(voters: Sequence[str], records: Mapping[str, VotingRecord],
                   theta: float = 0.9) -> list[VoterCluster]:
    """Threshold-graph clustering: each unvisited voter opens a cluster,
    absorbs its theta-neighbors, and the frontier grows with each absorbed
    member's own neighbors. Voters with no activity at any sample time never
    cluster (their pairwise similarity is 0 by convention)."""
    if not 0 < theta <= 1:
        raise ClusteringError(f"theta must be in (0, 1], got {theta}")
    missing = [v for v in voters if v not in records]
    if missing:
        raise ClusteringError(f"no record for voter '{missing[0]}'")
    names = sorted(set(voters))
    neighbors: dict[str, list[str]] = {}
    for lo, rows in similarity_blocks(names, records, _BLOCK_ROWS):
        for i, row in enumerate(rows, lo):
            neighbors[names[i]] = [names[j] for j in (row >= theta).nonzero()[0]
                                   if j != i]
    visited: set[str] = set()
    clusters: list[VoterCluster] = []
    for center in names:
        if center in visited:
            continue
        visited.add(center)
        members = {center}
        frontier = deque(neighbors[center])
        queued = set(frontier)
        while frontier:
            voter = frontier.popleft()
            if voter in visited:
                continue
            visited.add(voter)
            members.add(voter)
            for neighbor in neighbors[voter]:
                if neighbor not in queued:
                    frontier.append(neighbor)
                    queued.add(neighbor)
        if len(members) > 1:
            clusters.append(VoterCluster(members=frozenset(members), seed=center))
    return clusters


# The creator of an account that no newaccount action created.
UNKNOWN_CREATOR = "<genesis>"


@dataclass(frozen=True)
class ConcordanceEntry:
    creators: dict[str, int]
    single_creator: bool


def creator_concordance(clusters: Sequence[VoterCluster],
                        creation: Mapping[str, str]) -> list[ConcordanceEntry]:
    """Per cluster, the creator multiset of its members and whether a single
    creator made them all. Accounts missing from the map get UNKNOWN_CREATOR."""
    entries = []
    for cluster in clusters:
        counter = Counter(creation.get(m, UNKNOWN_CREATOR)
                          for m in sorted(cluster.members))
        entries.append(ConcordanceEntry(
            creators=dict(sorted(counter.items())),
            single_creator=len(counter) == 1,
        ))
    return entries


def top_stakeholders(snapshot: VotingSnapshot, pct: float = 0.05) -> list[str]:
    """Top pct of voters by stake, proxies ranked with delegated stake added."""
    if not 0 < pct <= 1:
        raise ClusteringError(f"pct must be in (0, 1], got {pct}")
    ranked = stake_distribution(snapshot)
    return [name for name, _ in ranked[:math.ceil(pct * len(ranked))]]
