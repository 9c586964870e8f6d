"""Mutual-voting gang detection pipeline.

Three steps over the voting network: near-clique anomaly scoring on candidate
egonets against an egonet-density power-law fit, intensity-weighted
reconstruction around the anomalies, and weighted Louvain community
detection with single-edge pruning.
"""
from __future__ import annotations

import math
import random
from collections import defaultdict
from collections.abc import Collection, Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, Optional, Sequence

from .model import Action, ordered_sum
from .replay import VoteLog, replay

if TYPE_CHECKING:
    import numpy as np

# An undirected weighted graph as its adjacency: each node maps each
# neighbour to the edge's weight, stored under both ends; a self-loop is
# stored once, under its node.
Adjacency = dict[Hashable, dict[Hashable, float]]


class GangError(Exception):
    pass


def _column(dtype: str, shape=(0,)):
    """An empty column of the numpy dtype named dtype; numpy is loaded when
    the first one is made, not when the class is defined."""
    def zeros():
        import numpy as np
        return np.zeros(shape, dtype)
    return field(default_factory=zeros)


@dataclass(eq=False)
class VotingGraph:
    """The directed voting network reduced to what the gang stage reads.
    `candidates` are the registered candidates that end an edge, in name
    order, so a candidate's id is its rank among them.

    Edge k of the columns runs from candidates[src[k]] to
    candidates[dst[k]]; these are the edges between candidates, in the order
    they were first placed. received_duration and received_weight are each
    candidate's sums of duration and avg_weight over all its in-edges, the
    voters' included, added in that order. shared[k][l] counts the sources
    other than candidates that vote for both k and l; shared[k][k], those
    that vote for k."""

    candidates: list[str] = field(default_factory=list)
    src: np.ndarray = _column("int64")
    dst: np.ndarray = _column("int64")
    placements: np.ndarray = _column("int64")
    duration: np.ndarray = _column("float64")
    avg_weight: np.ndarray = _column("float64")
    received_duration: np.ndarray = _column("float64")
    received_weight: np.ndarray = _column("float64")
    shared: np.ndarray = _column("int64", (0, 0))


def voting_network(log: VoteLog, end_time: float) -> VotingGraph:
    """The voting graph of a fold's log, with the votes still in force closed
    at end_time.

    A logged row puts an edge from its source to each candidate it backs
    other than itself. The edge opens at a row whose source's previous row
    did not back that candidate, and stays in force until the source's next
    row that does not, or end_time. Openings, and rows of a direct vote,
    count as placements. A segment of constant weight starts at an opening
    or where the weight differs from the source's previous row, and ends at
    the source's row after its last. Each edge adds its segments in time
    order from 0.0, as span and weight * span; its average weight is the
    second sum over the first, or, where no time accrued, the weight of its
    last placement.

    The edges are derived one target at a time, and all but those among
    candidates are reduced to the graph's tables before the next.
    """
    import numpy as np

    names = sorted(log.candidates)  # every backed name is one of them
    k = len(names)
    as_source = np.fromiter(map(log.sources.get, names, repeat(-1)), np.int64, k)
    sourced = np.flatnonzero(as_source >= 0)
    # each source's number in names, or -1
    candidate = np.full(len(log.sources), -1, np.int64)
    candidate[as_source[sourced]] = sourced
    # words[t]: one bit per source, set for the sources other than
    # candidates that vote for t
    words = np.zeros((k, -(-len(log.sources) // 64)), np.uint64)
    received = np.zeros((2, k))
    ends = np.zeros(k, bool)
    among = []
    for t, src, first, placements, duration, avg_weight in _in_edges(
            log, names, as_source, end_time):
        # each candidate's sums add its in-edges in first-placement order;
        # a cumulative sum adds them one by one, as np.bincount does
        order = np.argsort(first)
        received[:, t] = (np.cumsum(duration[order])[-1],
                          np.cumsum(avg_weight[order])[-1])
        of = candidate[src]
        voters = np.zeros(words.shape[1] * 64, bool)
        voters[src[of < 0]] = True
        words[t] = np.packbits(voters).view(np.uint64)
        inner = np.flatnonzero(of >= 0)
        ends[t] = True
        ends[of[inner]] = True
        among.append((first[inner], of[inner], np.full(len(inner), t),
                      placements[inner], duration[inner], avg_weight[inner]))
    if not among:
        return VotingGraph()
    shared = np.array([np.bitwise_count(words & row).sum(1) for row in words],
                      np.int64)  # C
    del words
    first, src, dst, placements, duration, avg_weight = map(np.concatenate, zip(*among))
    order = np.lexsort((dst, first))  # first placed, then by candidate name
    kept = np.flatnonzero(ends)
    ids = np.cumsum(ends) - 1
    return VotingGraph([names[i] for i in kept.tolist()], ids[src[order]],
                       ids[dst[order]], placements[order], duration[order],
                       avg_weight[order], received[0, kept], received[1, kept],
                       shared[np.ix_(kept, kept)])


def _in_edges(log: VoteLog, names: list[str], as_source: np.ndarray,
              end_time: float) -> Iterator[tuple]:
    """For each of names that has in-edges, its number and its in-edges
    in source order: their sources, the log row of their first opening,
    and their placements, durations and average weights, as voting_network()
    defines them."""
    import numpy as np

    n_rows = len(log.src)
    log_src = np.frombuffer(log.src, np.int32)
    time = np.frombuffer(log.time, np.float64)
    weight = np.frombuffer(log.weight, np.float64)
    replaced = np.frombuffer(log.direct, np.int8) != 0

    # Rows by source, then in log order: a source's consecutive rows sit
    # at consecutive positions. next_time is when the source's next row
    # comes, or end_time; changed marks a position whose weight differs
    # from the one before it.
    by_src = np.argsort(log_src, kind="stable").astype(np.int32)
    src_of = log_src[by_src]
    next_time = np.full(n_rows, float(end_time))
    same = np.flatnonzero(src_of[1:] == src_of[:-1])
    next_time[same] = time[by_src[same + 1]]
    del same
    sorted_weight = weight[by_src]
    changed = np.ones(n_rows, bool)
    np.not_equal(sorted_weight[1:], sorted_weight[:-1], out=changed[1:])
    del sorted_weight
    # bit v of backs[t]: whether vote set v backs names[t]; and each
    # position's vote set.
    n_sets = len(log.vote_sets)
    backs = _incidence(log.vote_sets, names)
    vote_set = np.frombuffer(log.votes, np.int32)[by_src]

    for t in range(len(names)):
        # The positions that back the target, but for its own rows: each
        # in-edge's rows together, in log order.
        target = np.unpackbits(backs[t], count=n_sets).view(bool)
        pos = np.flatnonzero(target[vote_set])
        pos = pos[src_of[pos] != as_source[t]]
        if not len(pos):
            continue
        src, row = src_of[pos], by_src[pos]
        opening = _firsts(src)
        heads = np.flatnonzero(opening)
        edge = np.cumsum(opening) - 1
        opening[1:] |= pos[1:] != pos[:-1] + 1
        placed = np.flatnonzero(opening | replaced[row])
        placements = np.bincount(edge[placed], minlength=len(heads))
        last = placed[np.append(edge[placed[1:]] != edge[placed[:-1]], True)]
        avg_weight = weight[row[last]]
        del placed, last
        # Within an edge, a position that opens nothing follows the one
        # before it, so its weight differs from that one's exactly where
        # `changed` is set.
        opening |= changed[pos]
        starts = np.flatnonzero(opening)
        del opening
        span = next_time[pos[np.append(starts[1:], len(pos)) - 1]]
        span -= time[row[starts]]
        seg_edge = edge[starts]
        duration = np.bincount(seg_edge, span, len(heads))
        span *= weight[row[starts]]
        integral = np.bincount(seg_edge, span, len(heads))
        np.divide(integral, duration, out=avg_weight, where=duration > 0)
        yield t, src[heads], row[heads], placements, duration, avg_weight


# Vote sets per chunk of _incidence's table; a multiple of 8, so that each
# chunk packs into whole bytes.
_CHUNK = 4096


def _incidence(vote_sets: Collection[tuple[str, ...]], names: list[str]
               ) -> np.ndarray:
    """The names x vote sets table of whether each vote set backs each name,
    packed along the vote sets (np.packbits). It is filled _CHUNK vote sets
    at a time, with int32 indices, so the arrays that fill it stay small."""
    import numpy as np

    ids = {name: i for i, name in enumerate(names)}
    packed = np.zeros((len(names), -(-len(vote_sets) // 8)), np.uint8)
    rest = iter(vote_sets)
    for lo in range(0, len(vote_sets), _CHUNK):
        chunk = list(islice(rest, _CHUNK))
        width = np.fromiter(map(len, chunk), np.int32, len(chunk))
        table = np.zeros((len(names), len(chunk)), bool)
        table[np.fromiter(map(ids.__getitem__, chain.from_iterable(chunk)),
                          np.int32, width.sum()),
              np.repeat(np.arange(len(chunk), dtype=np.int32), width)] = True
        packed[:, lo // 8:(lo + len(chunk) + 7) // 8] = np.packbits(table, axis=1)
    return packed


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Whether each entry of keys differs from the one before it; the first
    entry does."""
    import numpy as np

    first = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def build_voting_network(trace: Iterable[Action],
                         end_time: Optional[float] = None) -> VotingGraph:
    """Aggregate the trace into a directed voting graph with per-edge
    placement count, in-force duration, and time-averaged weight; end_time
    (default: the last action's timestamp) closes the votes still in force."""
    log = VoteLog()
    state, _ = replay(trace, [log])
    return voting_network(log, state.end_time if end_time is None else end_time)


@dataclass(frozen=True)
class EgonetFeature:
    node: str
    neighbors: int   # N_i
    edges: int       # E_i, ego included


@dataclass(frozen=True)
class EdplFit:
    coefficient: float  # C
    alpha: float

    def expected_edges(self, neighbors: int) -> float:
        return self.coefficient * neighbors ** self.alpha


def egonet_features(graph: VotingGraph) -> list[EgonetFeature]:
    """Neighbor and egonet-edge counts of the candidates, in name order, on
    the undirected simple view.

    Every edge ends at a candidate and none is a self-loop, so a candidate's
    neighbours are the candidates A links it to, either way, and the other
    sources that vote for it. With C = graph.shared, N_k = C[k][k] + |A[k]|,
    and E_k (OddBall's N_k + triangles(k)) adds to N_k the edges of A among
    A[k] and, per l in A[k], C[k][l]: the other sources voting for both ends
    of the spoke k-l.
    """
    import numpy as np

    k, shared = len(graph.candidates), graph.shared
    adjacent = np.zeros((k, k), np.int64)  # A
    adjacent[graph.src, graph.dst] = adjacent[graph.dst, graph.src] = 1
    neighbors = shared.diagonal() + adjacent.sum(1)
    edges = (neighbors + ((adjacent @ adjacent) * adjacent).sum(1) // 2
             + (shared * adjacent).sum(1))
    return [EgonetFeature(name, n, e) for name, n, e
            in zip(graph.candidates, neighbors.tolist(), edges.tolist())]


def fit_edpl(features: Sequence[EgonetFeature]) -> EdplFit:
    """Least-squares log-log fit of egonet edges against neighbor count.

    Nodes with a single neighbor are excluded (E is forced to 1 there) but
    still receive outlierness scores downstream.
    """
    import numpy as np

    points = [(f.neighbors, f.edges) for f in features if f.neighbors >= 2]
    if len(points) < 10:
        raise GangError(
            f"need at least 10 egonets with N >= 2 for the fit, got {len(points)}")
    x = np.log([n for n, _ in points])
    y = np.log([e for _, e in points])
    slope, intercept = np.polyfit(x, y, 1)
    return EdplFit(coefficient=float(math.exp(intercept)), alpha=float(slope))


def outlierness(features: Sequence[EgonetFeature], fit: EdplFit) -> dict[str, float]:
    """Near-clique outlierness: deviation ratio from the fit line times the
    log distance. Zero exactly on the line."""
    scores = {}
    for f in features:
        expected = fit.expected_edges(f.neighbors)
        hi, lo = max(f.edges, expected), min(f.edges, expected)
        ratio = hi / lo if lo > 0 else float("inf")
        scores[f.node] = ratio * math.log(abs(f.edges - expected) + 1.0)
    return scores


def select_anomalies(features: Sequence[EgonetFeature], fit: EdplFit,
                     scores: Mapping[str, float], pct: float = 0.10) -> list[str]:
    """Top-pct scorers (ceiling on the count over all scored nodes) among
    nodes sitting above the fit line."""
    if not 0 < pct <= 1:
        raise GangError(f"pct must be in (0, 1], got {pct}")
    k = math.ceil(pct * len(scores))
    above = [f.node for f in features
             if f.edges > fit.expected_edges(f.neighbors)]
    above.sort(key=lambda n: (-scores[n], n))
    return above[:k]


def reconstruct_weighted_network(graph: VotingGraph,
                                 anomalies: Sequence[str]) -> Adjacency:
    """Undirected network over the anomalies among the candidates and the
    candidates linked to them, either way, weighted by the symmetrized voting
    intensity. Its nodes are in name order, and its edges are added in
    (smaller, larger) name order.

    Intensity i->j averages three shares: i's placements toward j over i's
    placements, and j's duration / average weight received from i over j's
    totals, which count the voters' edges too. A candidate's out-edges all
    end at candidates, so its placements are summed over the graph's edges.
    """
    import numpy as np

    if not anomalies:
        raise GangError("nothing to reconstruct: empty anomaly set")
    names, n = graph.candidates, len(graph.candidates)
    ids = {name: i for i, name in enumerate(names)}
    in_kept = np.zeros(n, bool)
    in_kept[[ids[name] for name in anomalies if name in ids]] = True
    touching = in_kept[graph.src] | in_kept[graph.dst]
    in_kept[graph.src[touching]] = in_kept[graph.dst[touching]] = True
    del touching
    kept = [names[i] for i in np.flatnonzero(in_kept).tolist()]

    # Per edge i->j, each share over its total; each total is summed in edge
    # order.
    placements = graph.placements.astype(np.float64)
    inside = np.flatnonzero(in_kept[graph.src] & in_kept[graph.dst])
    src, dst = graph.src[inside], graph.dst[inside]
    intensity = (
        _share(placements[inside], np.bincount(graph.src, placements, n)[src])
        + _share(graph.duration[inside], graph.received_duration[dst])
        + _share(graph.avg_weight[inside], graph.received_weight[dst])
    ) / 3.0
    pairs, pair = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                            return_inverse=True)
    weights = np.bincount(pair, intensity, len(pairs))

    adjacency: Adjacency = {name: {} for name in kept}
    for key, weight in zip(pairs.tolist(), weights.tolist()):  # ids follow name order
        a, b = divmod(key, n)
        adjacency[names[a]][names[b]] = adjacency[names[b]][names[a]] = weight
    return adjacency


def _share(part: np.ndarray, total: np.ndarray) -> np.ndarray:
    """part / total, and 0.0 where the total is not positive."""
    import numpy as np

    return np.divide(part, total, out=np.zeros(len(part)), where=total > 0)


@dataclass(frozen=True)
class GangReport:
    communities: list[frozenset[str]]
    modularity: float
    pruned: list[str]
    fit: Optional[EdplFit] = None
    scores: dict[str, float] = field(default_factory=dict)
    anomalies: list[str] = field(default_factory=list)


# Weighted Louvain (Blondel et al., J. Stat. Mech. 2008), ported from
# networkx 3.6.1's louvain_partitions for an undirected graph at resolution 1
# and threshold 1e-7. Each float sum runs over the same terms in the same
# order as there, left to right as sum() adds them up to Python 3.11
# (model.ordered_sum), so the partition is bit for bit networkx's there.

def louvain_communities(adjacency: Adjacency, seed: int = 0) -> list[set]:
    """The last level's partition of networkx's
    louvain_communities(G, seed=seed), where G's adjacency is `adjacency`."""
    partition = [{u} for u in adjacency]
    if not any(adjacency.values()):
        return partition
    mod = _modularity(adjacency, partition)  # of the input, not the copy
    # networkx first copies G, adding its edges in G.edges() order. The
    # copy's adjacency order fixes every later sum, and its size is m at
    # every level.
    graph: Adjacency = {u: {} for u in adjacency}
    for u, v, w in _edges(adjacency):
        graph[u][v] = graph[v][u] = w
    m = ordered_sum(_degrees(graph).values()) / 2
    rng = random.Random(seed)  # one generator for every level
    members: dict = {u: {u} for u in adjacency}  # the input nodes of each node
    inner = _one_level(graph, m, rng)
    while True:
        partition = [set().union(*map(members.get, part)) for part in inner]
        new_mod = _modularity(graph, inner)
        if new_mod - mod <= 1e-7:
            return partition
        mod = new_mod
        graph, members = _gen_graph(graph, inner), dict(enumerate(partition))
        inner = _one_level(graph, m, rng)
        if len(inner) == len(graph):  # no node moved
            return partition


def _edges(adjacency: Adjacency, nbunch: Optional[Iterable] = None
           ) -> Iterator[tuple]:
    """Each edge (u, v, weight) once, in the order of networkx's
    G.edges(nbunch): u over nbunch (default: all nodes), v over u's
    neighbours that u has not run over yet."""
    seen = set()
    for u in adjacency if nbunch is None else nbunch:
        for v, w in adjacency[u].items():
            if v not in seen:
                yield u, v, w
        seen.add(u)


def _degrees(adjacency: Adjacency, total=ordered_sum) -> dict:
    """Weighted degrees as networkx's G.degree sums them: in adjacency order,
    then a self-loop's weight once more."""
    return {u: total(chain(nbrs.values(), (nbrs[u],) if u in nbrs else ()))
            for u, nbrs in adjacency.items()}


def _modularity(adjacency: Adjacency, partition: Sequence[set],
                total=ordered_sum) -> float:
    """networkx's nx.community.modularity at resolution 1, with every sum a
    `total`: ordered_sum, in networkx's order, for Louvain's comparisons;
    math.fsum, exact before its one rounding and so free of set order, for
    the report."""
    degree = _degrees(adjacency, total)
    deg_sum = total(degree.values())
    m = deg_sum / 2
    norm = 1 / deg_sum**2

    def contribution(community: set) -> float:
        comm = set(community)  # networkx's copy; the plain sums follow its order
        inside = total(w for _, v, w in _edges(adjacency, comm) if v in comm)
        degrees = total(degree[u] for u in comm)
        return inside / m - degrees * degrees * norm

    return total(map(contribution, partition))


def _one_level(graph: Adjacency, m: float, rng: random.Random) -> list[set]:
    """Local moves over graph's nodes, in one shuffled order, until a sweep
    moves none; the communities, without empty ones. Moves go only into a
    neighbour's community, so a level that moves a node ends with fewer
    communities than nodes."""
    node2com = {u: i for i, u in enumerate(graph)}
    inner = [{u} for u in graph]
    degrees = _degrees(graph)
    stot = list(degrees.values())
    nbrs = {u: {v: w for v, w in graph[u].items() if v != u} for u in graph}
    order = list(graph)
    rng.shuffle(order)
    moves = 1
    while moves > 0:
        moves = 0
        for u in order:
            best_mod = 0
            best_com = node2com[u]
            weights2com = defaultdict(float)
            for v, w in nbrs[u].items():
                weights2com[node2com[v]] += w
            degree = degrees[u]
            stot[best_com] -= degree
            # reading the own community's weight adds it, at 0.0, if absent
            remove_cost = -weights2com[best_com] / m + (
                stot[best_com] * degree) / (2 * m**2)
            for com, w in weights2com.items():
                gain = remove_cost + w / m - (stot[com] * degree) / (2 * m**2)
                if gain > best_mod:
                    best_mod, best_com = gain, com
            stot[best_com] += degree
            if best_com != node2com[u]:
                inner[node2com[u]].remove(u)
                inner[best_com].add(u)
                moves += 1
                node2com[u] = best_com
    return list(filter(len, inner))


def _gen_graph(graph: Adjacency, inner: list[set]) -> Adjacency:
    """The graph of inner's communities, numbered in list order, with each
    pair's edge weights summed in graph's edge order."""
    node2com = {node: i for i, part in enumerate(inner) for node in part}
    new: Adjacency = {i: {} for i in range(len(inner))}
    for u, v, w in _edges(graph):
        a, b = node2com[u], node2com[v]
        new[a][b] = new[b][a] = w + new[a].get(b, 0)
    return new


def detect_gangs(weighted: Adjacency, seed: int = 0) -> GangReport:
    """Weighted Louvain communities, then drop single-edge members and emit
    communities keeping at least two members."""
    if not weighted:
        raise GangError("empty reconstructed network")
    partition = louvain_communities(weighted, seed)
    modularity = _modularity(weighted, partition, math.fsum) \
        if any(weighted.values()) else 0.0
    # a node's degree counts a self-loop twice
    pruned = sorted(n for n, nbrs in weighted.items()
                    if len(nbrs) + (n in nbrs) == 1)
    pruned_set = set(pruned)
    communities = []
    for group in partition:
        remaining = frozenset(group - pruned_set)
        if len(remaining) >= 2:
            communities.append(remaining)
    communities.sort(key=lambda c: sorted(c))
    return GangReport(communities=communities, modularity=float(modularity),
                      pruned=pruned)


def run_pipeline(graph: VotingGraph, outlier_pct: float = 0.10,
                 seed: int = 0) -> GangReport:
    """Full three-step pipeline from a voting network to a gang report."""
    features = egonet_features(graph)
    fit = fit_edpl(features)
    scores = outlierness(features, fit)
    anomalies = select_anomalies(features, fit, scores, pct=outlier_pct)
    if not anomalies:
        return GangReport(communities=[], modularity=0.0, pruned=[], fit=fit,
                          scores=scores, anomalies=[])
    weighted = reconstruct_weighted_network(graph, anomalies)
    report = detect_gangs(weighted, seed=seed)
    return GangReport(communities=report.communities, modularity=report.modularity,
                      pruned=report.pruned, fit=fit, scores=scores,
                      anomalies=anomalies)
