"""Mutual-voting gang detection pipeline.

Three steps over the voting network: near-clique anomaly scoring on candidate
egonets against an egonet-density power-law fit, intensity-weighted
reconstruction around the anomalies, and weighted Louvain community
detection with single-edge pruning.
"""
from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

from .model import Action, ActionKind
from .replay import VotingState, replay

# An undirected weighted graph as its adjacency: each node maps each
# neighbour to the edge's weight, stored under both ends; a self-loop is
# stored once, under its node.
Adjacency = dict[Hashable, dict[Hashable, float]]


class GangError(Exception):
    pass


def _column(dtype):
    return field(default_factory=lambda: np.zeros(0, dtype))


@dataclass(eq=False)
class VotingGraph:
    """Directed voting network as edge columns. Edge k runs from
    nodes[src[k]] to nodes[dst[k]]; edges are in the order they were first
    placed. `nodes` holds exactly the names that end an edge, in name order,
    so a node's id is its rank among the names."""

    nodes: list[str] = field(default_factory=list)
    src: np.ndarray = _column(np.int64)
    dst: np.ndarray = _column(np.int64)
    placements: np.ndarray = _column(np.int64)
    duration: np.ndarray = _column(np.float64)
    weight_integral: np.ndarray = _column(np.float64)
    last_weight: np.ndarray = _column(np.float64)
    candidates: set[str] = field(default_factory=set)


class NetworkBuilder:
    """Replay observer for the voting network. After each action it logs one
    row per source the action may re-point or re-weigh: the source, the time,
    the votes it backs and their weight, and whether the action is a direct
    vote that places them again. finish() derives every edge from the log.
    """

    def __init__(self) -> None:
        self._candidates: set[str] = set()
        self._sources: dict[str, int] = {}
        self._vote_sets: dict[tuple[str, ...], int] = {}
        self._src = array("i")
        self._time = array("d")
        self._votes = array("i")
        self._weight = array("d")
        self._replaced = array("b")

    @staticmethod
    def _affected(action: Action, state: VotingState) -> tuple[list[str], bool]:
        actor = action.actor
        if action.kind in (ActionKind.DELEGATE_BW, ActionKind.UNDELEGATE_BW):
            return [actor], False
        if action.kind is ActionKind.REG_PROXY:
            return [actor] + sorted(state.delegators.get(actor, ())), False
        if action.kind is ActionKind.VOTE_PRODUCER:
            affected = [actor] + sorted(state.delegators.get(actor, ()))
            return affected, not action.payload["proxy"]
        return [], False

    def __call__(self, action: Action, state: VotingState) -> None:
        if action.kind is ActionKind.REG_PRODUCER:
            self._candidates.add(action.actor)
        affected, replaced = self._affected(action, state)
        sources, vote_sets = self._sources, self._vote_sets
        for src in affected:
            votes, weight = state.backing(src)
            self._src.append(sources.setdefault(src, len(sources)))
            self._time.append(action.timestamp)
            self._votes.append(vote_sets.setdefault(votes, len(vote_sets)))
            self._weight.append(weight)
            self._replaced.append(replaced)

    def finish(self, end_time: float) -> VotingGraph:
        """The voting graph, with the votes still in force closed at end_time.

        A logged row puts an edge from its source to each candidate it backs
        other than itself. The edge opens at a row whose source's previous
        row did not back that candidate, and stays in force until the
        source's next row that does not, or end_time. Openings, and rows of a
        direct vote, count as placements. A segment of constant weight starts
        at an opening or where the weight differs from the source's previous
        row, and ends at the source's row after its last. Each edge adds its
        segments in time order from 0.0, as span and weight * span.
        """
        n_rows = len(self._src)
        # Vote sets as CSR rows of target ids: a target is a backed name, and
        # its id is its rank in name order.
        flat = list(chain.from_iterable(self._vote_sets))
        dst_names = sorted(set(flat))
        targets = {name: i for i, name in enumerate(dst_names)}
        n_dst = len(targets)
        width = np.fromiter(map(len, self._vote_sets), np.int64, len(self._vote_sets))
        indptr = np.zeros(len(width) + 1, np.int64)
        np.cumsum(width, out=indptr[1:])
        log_src = np.frombuffer(self._src, np.int32)
        time = np.frombuffer(self._time, np.float64)
        weight = np.frombuffer(self._weight, np.float64)

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

        # One key per (position, backed target other than the source), sorted
        # to (dst, src, row): each edge's rows together and in log order.
        votes = np.frombuffer(self._votes, np.int32)[by_src]
        counts = width[votes]
        indices = np.fromiter(map(targets.__getitem__, flat), np.int64, len(flat))
        del flat, width
        pos = np.repeat(np.arange(n_rows, dtype=np.int32), counts)
        ends = np.cumsum(counts)
        slot = np.repeat(indptr[votes] - ends + counts, counts)
        del votes, ends, counts, indptr
        slot += np.arange(len(slot))
        dst = indices[slot]
        del slot, indices
        as_source = np.fromiter(map(self._sources.get, dst_names, repeat(-1)),
                                np.int64, n_dst)
        keep = as_source[dst] != src_of[pos]
        del as_source
        dst *= n_rows
        dst += pos
        del pos
        key = dst[keep]
        del dst, keep
        if not len(key):
            return VotingGraph(candidates=set(self._candidates))
        key.sort()
        key = key[_firsts(key)]  # a name voted twice
        pos = key % n_rows
        key //= n_rows
        dst = key
        del key
        row = by_src[pos]

        # Edges are listed in the order they were first placed: by the row of
        # their first opening, then by candidate name. edge_id numbers the
        # edge of each key in that order.
        src = src_of[pos]
        new_edge = _firsts(dst)
        new_edge[1:] |= src[1:] != src[:-1]
        heads = np.flatnonzero(new_edge)
        n_edges = len(heads)
        placed_at = row[heads].astype(np.int64)
        placed_at *= n_dst
        placed_at += dst[heads]
        order = np.argsort(placed_at)
        del placed_at
        heads = heads[order]
        e_src, e_dst = src[heads], dst[heads]
        del heads, src, dst
        rank = np.empty(n_edges, np.int64)
        rank[order] = np.arange(n_edges)
        del order
        opening = new_edge.copy()
        opening[1:] |= pos[1:] != pos[:-1] + 1
        edge_id = np.cumsum(new_edge)
        del new_edge
        edge_id -= 1
        edge_id = rank[edge_id]
        del rank

        replaced = np.frombuffer(self._replaced, bool)
        placed = np.flatnonzero(opening | replaced[row])
        placed_edge = edge_id[placed]
        placements = np.bincount(placed_edge, minlength=n_edges)
        last = placed[np.append(placed_edge[1:] != placed_edge[:-1], True)]
        del placed, placed_edge
        last_weight = np.empty(n_edges)
        last_weight[edge_id[last]] = weight[row[last]]
        del last

        # Within an edge, a key that opens nothing is at the position after
        # the key before it, so its weight differs from that key's exactly
        # where `changed` is set at its position.
        opening |= changed[pos]
        starts = np.flatnonzero(opening)
        del opening
        stops = np.append(starts[1:], len(row)) - 1
        span = next_time[pos[stops]]
        del stops, pos
        span -= time[row[starts]]
        seg_edge = edge_id[starts]
        del edge_id
        duration = np.bincount(seg_edge, span, n_edges)
        span *= weight[row[starts]]
        weight_integral = np.bincount(seg_edge, span, n_edges)
        del seg_edge, span, starts, row

        src_names = list(self._sources)
        n_src = len(src_names)
        nodes = sorted(set(map(src_names.__getitem__, _present(e_src, n_src)))
                       | set(map(dst_names.__getitem__, _present(e_dst, n_dst))))
        ids = {name: i for i, name in enumerate(nodes)}
        src_ids = np.fromiter(map(ids.get, src_names, repeat(-1)), np.int64, n_src)
        dst_ids = np.fromiter(map(ids.get, dst_names, repeat(-1)), np.int64, n_dst)
        return VotingGraph(nodes, src_ids[e_src], dst_ids[e_dst], placements,
                           duration, weight_integral, last_weight,
                           set(self._candidates))


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Whether each entry of keys differs from the one before it; the first
    entry does."""
    first = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _present(ids: np.ndarray, n: int) -> list[int]:
    """The distinct values of ids, all in range(n)."""
    seen = np.zeros(n, bool)
    seen[ids] = True
    return np.flatnonzero(seen).tolist()


def build_voting_network(trace: Iterable[Action],
                         end_time: Optional[float] = None) -> VotingGraph:
    """Aggregate the trace into a directed voting graph with per-edge
    placement count, in-force duration, and time-averaged weight; end_time
    (default: the last action's timestamp) closes the votes still in force."""
    builder = NetworkBuilder()
    state, _ = replay(trace, [builder])
    return builder.finish(state.end_time if end_time is None else end_time)


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


def _node_ids(graph: VotingGraph, names: Iterable[str]) -> list[int]:
    """The ids of those of names that are nodes of graph, in the order given."""
    nodes, ids = graph.nodes, []
    for name in names:
        i = bisect_left(nodes, name)
        if i < len(nodes) and nodes[i] == name:
            ids.append(i)
    return ids


def egonet_features(graph: VotingGraph) -> list[EgonetFeature]:
    """Neighbor and egonet-edge counts of the candidate nodes, in name order,
    on the undirected simple view.

    In a graph built from a trace every edge ends at a candidate and none is
    a self-loop; a graph that breaks either raises GangError. A candidate's
    neighbours are then the candidates A links it to, either way, and the
    other sources that vote for it. With C[k][l] the number of those other
    sources voting for both k and l, N_k = C[k][k] + |A[k]|, and E_k (OddBall's
    N_k + triangles(k)) adds to N_k the edges of A among A[k] and, per l in
    A[k], C[k][l]: the other sources voting for both ends of the spoke k-l.
    """
    src, dst, names = graph.src, graph.dst, graph.nodes
    egos = _node_ids(graph, sorted(graph.candidates))
    k = len(egos)
    slot = np.full(len(names), -1, np.int64)  # each node's candidate number
    slot[egos] = np.arange(k)
    to = slot[dst]
    bad = np.flatnonzero((to < 0) | (src == dst))
    if len(bad):
        e = int(bad[0])
        raise GangError(f"voting graph edge {e} ({names[src[e]]} -> {names[dst[e]]}) "
                        + ("is a self-loop" if src[e] == dst[e]
                           else "ends at a non-candidate"))
    # Each source's votes: the candidates' rows give A, the others' give C.
    votes = np.zeros((len(names), k), bool)
    votes[src, to] = True
    del to
    among = votes[egos]
    adjacent = (among | among.T).astype(np.int64)  # A
    votes[egos] = False
    shared = np.empty((k, k), np.int64)  # C
    for ego in range(k):
        shared[ego] = votes[votes[:, ego]].sum(0)
    neighbors = shared.diagonal() + adjacent.sum(1)
    edges = (neighbors + ((adjacent @ adjacent) * adjacent).sum(1) // 2
             + (shared * adjacent).sum(1))
    return [EgonetFeature(names[i], n, e) for i, n, e
            in zip(egos, neighbors.tolist(), edges.tolist())]


def fit_edpl(features: Sequence[EgonetFeature]) -> EdplFit:
    """Least-squares log-log fit of egonet edges against neighbor count.

    Nodes with a single neighbor are excluded (E is forced to 1 there) but
    still receive outlierness scores downstream.
    """
    points = [(f.neighbors, f.edges) for f in features if f.neighbors >= 2]
    if len(points) < 10:
        raise GangError(
            f"need at least 10 egonets with N >= 2 for the fit, got {len(points)}")
    x = np.log([n for n, _ in points])
    y = np.log([e for _, e in points])
    slope, intercept = np.polyfit(x, y, 1)
    return EdplFit(coefficient=float(math.exp(intercept)), alpha=float(slope))


def outlierness(features: Sequence[EgonetFeature], fit: EdplFit,
                log_base: float = math.e) -> dict[str, float]:
    """Near-clique outlierness: deviation ratio from the fit line times the
    log distance. Zero exactly on the line."""
    scores = {}
    for f in features:
        expected = fit.expected_edges(f.neighbors)
        hi, lo = max(f.edges, expected), min(f.edges, expected)
        ratio = hi / lo if lo > 0 else float("inf")
        scores[f.node] = ratio * math.log(abs(f.edges - expected) + 1.0, log_base)
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
    """Undirected network over candidate nodes inside the anomalies' egonets,
    weighted by the symmetrized voting intensity. Its nodes are in name
    order, and its edges are added in (smaller, larger) name order.

    Intensity i->j averages three shares computed on the FULL directed graph:
    i's placement count toward j over i's total placements, and j's received
    duration / average-weight from i over j's totals.
    """
    if not anomalies:
        raise GangError("nothing to reconstruct: empty anomaly set")
    names, n = graph.nodes, len(graph.nodes)
    # The anomalies and their neighbours either way, less the non-candidates;
    # every node ends an edge, so an anomaly's own edges mark it too.
    in_kept = np.zeros(n, bool)
    in_kept[_node_ids(graph, anomalies)] = True
    touching = in_kept[graph.src] | in_kept[graph.dst]
    in_kept[graph.src[touching]] = in_kept[graph.dst[touching]] = True
    del touching
    is_candidate = np.zeros(n, bool)
    is_candidate[_node_ids(graph, graph.candidates)] = True
    in_kept &= is_candidate
    kept = [names[i] for i in np.flatnonzero(in_kept).tolist()]

    # Per edge i->j: i's placements towards j over i's placements, and j's
    # duration / average weight received from i over j's totals. Each total
    # is summed in edge order; a self-loop adds its intensity twice.
    placements = graph.placements.astype(np.float64)
    avg_weight = np.divide(graph.weight_integral, graph.duration,
                           out=graph.last_weight.copy(), where=graph.duration > 0)
    inside = np.flatnonzero(in_kept[graph.src] & in_kept[graph.dst])
    src, dst = graph.src[inside], graph.dst[inside]
    intensity = (
        _share(placements[inside], np.bincount(graph.src, placements, n)[src])
        + _share(graph.duration[inside], np.bincount(graph.dst, graph.duration, n)[dst])
        + _share(avg_weight[inside], np.bincount(graph.dst, avg_weight, n)[dst])
    ) / 3.0
    loops = src == dst
    pairs, pair = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                            return_inverse=True)
    weights = np.bincount(np.concatenate([pair, pair[loops]]),
                          np.concatenate([intensity, intensity[loops]]), len(pairs))

    adjacency: Adjacency = {name: {} for name in kept}
    for key, weight in zip(pairs.tolist(), weights.tolist()):  # ids follow name order
        a, b = divmod(key, n)
        adjacency[names[a]][names[b]] = adjacency[names[b]][names[a]] = weight
    return adjacency


def _share(part: np.ndarray, total: np.ndarray) -> np.ndarray:
    """part / total, and 0.0 where the total is not positive."""
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
# order as there, so the partition is bit for bit networkx's.

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
    m = sum(_degrees(graph).values()) / 2
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


def _degrees(adjacency: Adjacency, total=sum) -> dict:
    """Weighted degrees as networkx's G.degree sums them: in adjacency order,
    then a self-loop's weight once more."""
    return {u: total(chain(nbrs.values(), (nbrs[u],) if u in nbrs else ()))
            for u, nbrs in adjacency.items()}


def _modularity(adjacency: Adjacency, partition: Sequence[set], total=sum) -> float:
    """networkx's nx.community.modularity at resolution 1, with every sum a
    `total`: sum, in networkx's order, for Louvain's comparisons; math.fsum,
    exact before its one rounding and so free of set order, for the report."""
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
