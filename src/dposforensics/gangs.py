"""Mutual-voting gang detection pipeline.

Three steps over the voting network: near-clique anomaly scoring on candidate
egonets against an egonet-density power-law fit, intensity-weighted
reconstruction around the anomalies, and weighted Louvain community
detection with single-edge pruning.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .model import Action, ActionKind
from .replay import VotingState, replay

if TYPE_CHECKING:  # networkx loads only when a weighted network is built
    import networkx as nx


class GangError(Exception):
    pass


@dataclass(slots=True)
class EdgeStats:
    """Aggregate of one directed voting relation src -> dst."""

    placements: int = 0          # distinct vote placements (F)
    duration: float = 0.0        # cumulative seconds the vote was in force (T)
    weight_integral: float = 0.0  # integral of weight over in-force time
    last_weight: float = 0.0     # weight at the most recent (re)placement

    @property
    def avg_weight(self) -> float:
        """Time-averaged in-force weight (P); falls back to the placement
        weight when no time has accrued."""
        if self.duration > 0:
            return self.weight_integral / self.duration
        return self.last_weight


def _column(dtype):
    return field(default_factory=lambda: np.zeros(0, dtype))


@dataclass(eq=False)
class VotingGraph:
    """Directed voting network as edge columns. Edge k runs from
    nodes[src[k]] to nodes[dst[k]]; edges are in the order they were first
    placed, and `nodes` holds exactly the names that end an edge."""

    nodes: list[str] = field(default_factory=list)
    src: np.ndarray = _column(np.int64)
    dst: np.ndarray = _column(np.int64)
    placements: np.ndarray = _column(np.int64)
    duration: np.ndarray = _column(np.float64)
    weight_integral: np.ndarray = _column(np.float64)
    last_weight: np.ndarray = _column(np.float64)
    candidates: set[str] = field(default_factory=set)

    @classmethod
    def from_edges(cls, edges: Mapping[tuple[str, str], EdgeStats],
                   candidates: Iterable[str] = ()) -> "VotingGraph":
        """A graph with the given edges, in mapping order."""
        ids: dict[str, int] = {}
        src = [ids.setdefault(s, len(ids)) for s, _ in edges]
        dst = [ids.setdefault(d, len(ids)) for _, d in edges]
        stats = list(edges.values())
        return cls(
            list(ids), np.array(src, np.int64), np.array(dst, np.int64),
            np.array([s.placements for s in stats], np.int64),
            np.array([s.duration for s in stats], np.float64),
            np.array([s.weight_integral for s in stats], np.float64),
            np.array([s.last_weight for s in stats], np.float64),
            set(candidates))

    @cached_property
    def edges(self) -> "EdgeView":
        return EdgeView(self)


class EdgeView(Mapping):
    """Read-only mapping (src, dst) -> EdgeStats over a graph's edge columns,
    in edge order. Each lookup builds a fresh EdgeStats."""

    def __init__(self, graph: VotingGraph) -> None:
        self._graph = graph
        self._ids: Optional[dict[tuple[str, str], int]] = None

    def __len__(self) -> int:
        return len(self._graph.src)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        name = self._graph.nodes.__getitem__
        return zip(map(name, self._graph.src.tolist()),
                   map(name, self._graph.dst.tolist()))

    def __getitem__(self, key: tuple[str, str]) -> EdgeStats:
        if self._ids is None:
            self._ids = {pair: i for i, pair in enumerate(self)}
        i, g = self._ids[key], self._graph
        return EdgeStats(int(g.placements[i]), float(g.duration[i]),
                         float(g.weight_integral[i]), float(g.last_weight[i]))


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


@dataclass(frozen=True)
class NodeIndex:
    """Integer view of a voting graph: nodes numbered in name order, the two
    ends of every edge in edge-table order, and each node's undirected
    neighbours as sorted, deduplicated CSR rows, where a self-loop makes a
    node its own neighbour."""

    names: list[str]
    ids: dict[str, int]
    src: np.ndarray
    dst: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def of(cls, graph: VotingGraph) -> "NodeIndex":
        order = sorted(range(len(graph.nodes)), key=graph.nodes.__getitem__)
        names = [graph.nodes[i] for i in order]
        ids = {name: i for i, name in enumerate(names)}
        rank = np.empty(len(order), np.int64)
        rank[order] = np.arange(len(order))
        src, dst = rank[graph.src], rank[graph.dst]
        n, m = len(names), len(src)
        # The key u * n + v of each edge in both directions, built in one
        # array and sorted in place; the distinct keys, row by row, are the
        # CSR entries, and row u starts at the first key at or above u * n.
        keys = np.empty(2 * m, np.int64)
        np.multiply(src, n, out=keys[:m])
        keys[:m] += dst
        np.multiply(dst, n, out=keys[m:])
        keys[m:] += src
        keys.sort()
        keys = keys[_firsts(keys)]
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        keys %= max(n, 1)
        return cls(names, ids, src, dst, indptr, keys)

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """The neighbours of every node in `nodes`, concatenated."""
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        return self.indices[shift + np.arange(len(shift))]


def egonet_features(graph: VotingGraph, scope: Optional[Sequence[str]] = None,
                    *, index: Optional[NodeIndex] = None) -> list[EgonetFeature]:
    """Neighbor and egonet-edge counts on the undirected simple view; scope
    defaults to the candidate nodes present in the graph. `index` is the
    graph's NodeIndex when the caller has already built it.

    E_i is the ego's spokes plus the edges among its neighbours (OddBall's
    N_i + triangles(i)); the latter show up twice in the summed overlaps of
    the neighbours' rows with the neighbour set, and a looped neighbour once.
    A self-loop counts once, as in networkx, which also lists a looped ego
    among its own neighbours.
    """
    if index is None:
        index = NodeIndex.of(graph)
    looped = np.zeros(len(index.names), bool)
    looped[index.src[index.src == index.dst]] = True
    if scope is None:
        scope = graph.candidates & index.ids.keys()
    member = np.zeros(len(index.names), bool)
    features = []
    for node in sorted(scope):
        ego = index.ids.get(node)
        if ego is None:
            continue
        nbrs = index.neighbors(ego)
        others = nbrs[nbrs != ego]
        member[others] = True
        overlaps = int(np.count_nonzero(member[index.rows(others)]))
        member[others] = False
        nbr_loops = int(np.count_nonzero(looped[others]))
        features.append(EgonetFeature(
            node=node, neighbors=len(nbrs),
            edges=len(others) + (overlaps + nbr_loops) // 2 + int(looped[ego])))
    return features


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


def reconstruct_weighted_network(graph: VotingGraph, anomalies: Sequence[str],
                                 *, index: Optional[NodeIndex] = None) -> nx.Graph:
    """Undirected network over candidate nodes inside the anomalies' egonets,
    weighted by the symmetrized voting intensity. `index` is the graph's
    NodeIndex when the caller has already built it.

    Intensity i->j averages three shares computed on the FULL directed graph:
    i's placement count toward j over i's total placements, and j's received
    duration / average-weight from i over j's totals.
    """
    import networkx as nx

    if not anomalies:
        raise GangError("nothing to reconstruct: empty anomaly set")
    if index is None:
        index = NodeIndex.of(graph)
    kept: set[str] = set()
    for node in anomalies:
        ego = index.ids.get(node)
        if ego is not None:
            kept.add(node)
            kept.update(index.names[i] for i in index.neighbors(ego).tolist())
    kept &= graph.candidates

    # Per edge i->j: i's placements towards j over i's placements, and j's
    # duration / average weight received from i over j's totals. Each total
    # is summed in edge order; a self-loop adds its intensity twice.
    n = len(index.names)
    in_kept = np.zeros(n, bool)
    in_kept[[index.ids[node] for node in kept]] = True
    placements = graph.placements.astype(np.float64)
    avg_weight = np.divide(graph.weight_integral, graph.duration,
                           out=graph.last_weight.copy(), where=graph.duration > 0)
    inside = np.flatnonzero(in_kept[index.src] & in_kept[index.dst])
    src, dst = index.src[inside], index.dst[inside]
    intensity = (
        _share(placements[inside], np.bincount(index.src, placements, n)[src])
        + _share(graph.duration[inside], np.bincount(index.dst, graph.duration, n)[dst])
        + _share(avg_weight[inside], np.bincount(index.dst, avg_weight, n)[dst])
    ) / 3.0
    loops = src == dst
    pairs, pair = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                            return_inverse=True)
    weights = np.bincount(np.concatenate([pair, pair[loops]]),
                          np.concatenate([intensity, intensity[loops]]), len(pairs))

    h = nx.Graph()
    h.add_nodes_from(sorted(kept))
    for key, weight in zip(pairs.tolist(), weights.tolist()):  # ids follow name order
        a, b = divmod(key, n)
        h.add_edge(index.names[a], index.names[b], weight=weight)
    return h


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


def _modularity(weighted: nx.Graph, partition: Sequence[set[str]]) -> float:
    """Weighted modularity at resolution 1, by networkx's formula, with every
    sum an fsum: exact before its one rounding, so Q does not depend on the
    order in which the communities' sets hand out their (hashed) members."""
    def weight(data: dict) -> float:
        return data.get("weight", 1)

    degree = {}
    for node, nbrs in weighted.adj.items():
        weights = [weight(d) for d in nbrs.values()]
        if node in nbrs:  # a self-loop adds its weight to the degree twice
            weights.append(weight(nbrs[node]))
        degree[node] = math.fsum(weights)
    deg_sum = math.fsum(degree.values())
    m = deg_sum / 2
    norm = 1 / deg_sum ** 2
    terms = []
    for community in partition:
        inside = math.fsum(weight(d) for u in community
                           for v, d in weighted.adj[u].items()
                           if v in community and u <= v)
        degrees = math.fsum(degree[u] for u in community)
        terms.append(inside / m - degrees * degrees * norm)
    return math.fsum(terms)


def detect_gangs(weighted: nx.Graph, seed: int = 0) -> GangReport:
    """Weighted Louvain communities, then drop single-edge members and emit
    communities keeping at least two members."""
    import networkx as nx

    if weighted.number_of_nodes() == 0:
        raise GangError("empty reconstructed network")
    partition = nx.community.louvain_communities(
        weighted, weight="weight", resolution=1.0, seed=seed)
    modularity = _modularity(weighted, partition) \
        if weighted.number_of_edges() else 0.0
    pruned = sorted(n for n in weighted.nodes if weighted.degree(n) == 1)
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
    index = NodeIndex.of(graph)
    features = egonet_features(graph, index=index)
    fit = fit_edpl(features)
    scores = outlierness(features, fit)
    anomalies = select_anomalies(features, fit, scores, pct=outlier_pct)
    if not anomalies:
        return GangReport(communities=[], modularity=0.0, pruned=[], fit=fit,
                          scores=scores, anomalies=[])
    weighted = reconstruct_weighted_network(graph, anomalies, index=index)
    report = detect_gangs(weighted, seed=seed)
    return GangReport(communities=report.communities, modularity=report.modularity,
                      pruned=report.pruned, fit=fit, scores=scores,
                      anomalies=anomalies)
