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
from typing import Iterator, Mapping, Sequence

import numpy as np

from .replay import VotingSnapshot


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
                          voters: Sequence[str] | None = None) -> dict[str, VotingRecord]:
    """Per-voter effective candidate set at each snapshot; absent voters get
    the empty set. voters=None takes every account seen in any snapshot.
    Entries with the same votes tuple share one set."""
    if voters is None:
        names = sorted({v for snap in snapshots for v in snap.per_voter})
    else:
        names = sorted(set(voters))
    shared: dict[tuple[str, ...], frozenset[str]] = {(): frozenset()}
    records = {}
    for name in names:
        sets = []
        for snap in snapshots:
            entry = snap.per_voter.get(name)
            votes = entry.votes if entry is not None else ()
            if votes not in shared:
                shared[votes] = entry.effective
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
    record_similarity, so each value is bit-equal to it. Row blocks keep the
    working set at block x names floats.
    """
    lengths = {len(records[name].sets) for name in names}
    if len(lengths) > 1:
        raise ClusteringError(
            f"record lengths differ: {min(lengths)} vs {max(lengths)}")
    columns = {c: j for j, c in enumerate(sorted(
        {c for name in names for s in records[name].sets for c in s}))}
    matrices = []
    for t in range(max(lengths, default=0)):
        ones = np.zeros((len(columns), len(names)), dtype=np.int32)
        for row, name in enumerate(names):
            ones[[columns[c] for c in records[name].sets[t]], row] = 1
        matrices.append((ones, ones.sum(axis=0)))
    for lo in range(0, len(names), block):
        hi = min(lo + block, len(names))
        total = np.zeros((hi - lo, len(names)))
        counted = np.zeros((hi - lo, len(names)), dtype=np.int64)
        for ones, sizes in matrices:
            # einsum's own integer loops, not BLAS: BLAS's work buffers
            # would raise the command's peak memory
            inter = np.einsum("ki,kj->ij", ones[:, lo:hi], ones)
            union = sizes[lo:hi, None] + sizes[None, :] - inter
            nonempty = union > 0
            # adding 0.0 where the union is empty leaves the sum unchanged
            total += np.divide(inter, union, out=np.zeros(inter.shape),
                               where=nonempty)
            counted += nonempty
        yield lo, np.divide(total, counted, out=np.zeros_like(total),
                            where=counted > 0)


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
    for lo, rows in similarity_blocks(names, records):
        for i, row in enumerate(rows, lo):
            neighbors[names[i]] = [names[j] for j in np.flatnonzero(row >= theta)
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


@dataclass(frozen=True)
class ConcordanceEntry:
    creators: dict[str, int]
    single_creator: bool


def creator_concordance(clusters: Sequence[VoterCluster],
                        creation: Mapping[str, str],
                        unknown: str = "<genesis>") -> list[ConcordanceEntry]:
    """Per cluster, the creator multiset of its members and whether a single
    creator made them all. Accounts missing from the map get the sentinel."""
    entries = []
    for cluster in clusters:
        counter = Counter(creation.get(m, unknown) for m in sorted(cluster.members))
        entries.append(ConcordanceEntry(
            creators=dict(sorted(counter.items())),
            single_creator=len(counter) == 1,
        ))
    return entries


def top_stakeholders(snapshot: VotingSnapshot, pct: float = 0.05) -> list[str]:
    """Top pct of voters by stake, proxies ranked with delegated stake added."""
    if not 0 < pct <= 1:
        raise ClusteringError(f"pct must be in (0, 1], got {pct}")
    ranked = []
    for name, voter in snapshot.per_voter.items():
        stake = voter.stake + (voter.proxied_stake if voter.is_proxy else 0)
        ranked.append((name, stake))
    ranked.sort(key=lambda kv: (-kv[1], kv[0]))
    k = math.ceil(pct * len(ranked))
    return [name for name, _ in ranked[:k]]
