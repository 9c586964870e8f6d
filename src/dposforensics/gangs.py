"""Mutual-voting gang detection pipeline.

Three steps over the voting network: near-clique anomaly scoring on candidate
egonets against an egonet-density power-law fit, intensity-weighted
reconstruction around the anomalies, and weighted Louvain community
detection with single-edge pruning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

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


@dataclass
class VotingGraph:
    edges: dict[tuple[str, str], EdgeStats] = field(default_factory=dict)
    candidates: set[str] = field(default_factory=set)


@dataclass(slots=True)
class _Source:
    """The votes of one source in force: each open edge's aggregate and the
    start of the segment it is integrating. Every open edge carries the
    source's own weight at its last reconcile; `votes` are what it backed
    then."""

    votes: tuple[str, ...]
    weight: float
    edges: dict[str, EdgeStats] = field(default_factory=dict)
    starts: dict[str, float] = field(default_factory=dict)


def _accrue(stats: EdgeStats, weight: float, span: float) -> None:
    """Add a segment of `span` seconds in force at `weight` to an edge."""
    stats.duration += span
    stats.weight_integral += weight * span


class NetworkBuilder:
    """Replay observer that tracks, per directed pair, the intervals each vote
    was in force and the weight over those intervals, and the registered
    candidates."""

    def __init__(self) -> None:
        self.graph = VotingGraph()
        self.open: dict[str, _Source] = {}

    def _reconcile(self, state: VotingState, src: str, t: float,
                   replaced: bool) -> None:
        """Bring src's open edges in line with its current effective votes.

        replaced=True marks a fresh vote placement: continuing targets count
        as a new placement too. An edge's segment ends when it closes or when
        the source's weight changes.
        """
        votes, weight = state.backing(src)
        source = self.open.get(src)
        if source is None:
            if not votes:
                return
            source = self.open[src] = _Source((), weight)
        edges, starts, old = source.edges, source.starts, source.weight
        opened: list[str] = []
        if votes != source.votes:
            desired = set(votes)
            desired.discard(src)  # a self-vote is no edge
            for dst in edges.keys() - desired:
                _accrue(edges.pop(dst), old, t - starts.pop(dst))
            opened = sorted(desired - edges.keys())
        reweigh = weight != old
        if replaced or reweigh:
            for dst, stats in edges.items():
                if replaced:
                    stats.placements += 1
                    stats.last_weight = weight
                if reweigh:
                    _accrue(stats, old, t - starts[dst])
                    starts[dst] = t
        for dst in opened:  # an edge enters graph.edges at its first placement
            stats = self.graph.edges.get((src, dst))
            if stats is None:
                stats = self.graph.edges[(src, dst)] = EdgeStats()
            edges[dst] = stats
            starts[dst] = t
            stats.placements += 1
            stats.last_weight = weight
        if edges:
            source.votes, source.weight = votes, weight
        else:
            del self.open[src]

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
            self.graph.candidates.add(action.actor)
        affected, replaced = self._affected(action, state)
        for src in affected:
            self._reconcile(state, src, action.timestamp, replaced)

    def finish(self, end_time: float) -> VotingGraph:
        for source in self.open.values():
            for dst, stats in source.edges.items():
                _accrue(stats, source.weight, end_time - source.starts[dst])
        self.open.clear()
        return self.graph


def build_voting_network(trace: Sequence[Action],
                         end_time: Optional[float] = None) -> VotingGraph:
    """Aggregate the trace into a directed voting graph with per-edge
    placement count, in-force duration, and time-averaged weight; end_time
    (default: the last action's timestamp) closes the votes still in force."""
    builder = NetworkBuilder()
    replay(trace, [builder])
    if end_time is None:
        end_time = trace[-1].timestamp if trace else 0.0
    return builder.finish(end_time)


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
        srcs = [s for s, _ in graph.edges]
        dsts = [d for _, d in graph.edges]
        names = sorted(set(srcs).union(dsts))
        ids = {name: i for i, name in enumerate(names)}
        src = np.fromiter(map(ids.__getitem__, srcs), np.int64, len(srcs))
        dst = np.fromiter(map(ids.__getitem__, dsts), np.int64, len(dsts))
        n = len(names)
        keys = np.sort(np.concatenate([src * n + dst, dst * n + src]))
        first = np.ones(len(keys), bool)
        first[1:] = keys[1:] != keys[:-1]
        rows, indices = np.divmod(keys[first], max(n, 1))
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(names, ids, src, dst, indptr, indices)

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

    # Only the kept nodes' totals are read: sum them over the edges touching
    # a kept node, each total in edge-table order as one += per edge.
    n = len(index.names)
    in_kept = np.zeros(n, bool)
    in_kept[[index.ids[node] for node in kept]] = True
    touching = np.flatnonzero(in_kept[index.src] | in_kept[index.dst])
    edge_stats = list(graph.edges.values())
    stats = [edge_stats[i] for i in touching.tolist()]
    placements = np.fromiter(map(attrgetter("placements"), stats), float, len(stats))
    duration = np.fromiter(map(attrgetter("duration"), stats), float, len(stats))
    avg_weight = np.fromiter(map(attrgetter("avg_weight"), stats), float, len(stats))
    src, dst = index.src[touching], index.dst[touching]
    out_f = np.bincount(src, placements, n).tolist()
    in_t = np.bincount(dst, duration, n).tolist()
    in_p = np.bincount(dst, avg_weight, n).tolist()

    def intensity(a: int, b: int) -> float:
        stats = graph.edges.get((index.names[a], index.names[b]))
        if stats is None:
            return 0.0
        f_share = stats.placements / out_f[a] if out_f[a] > 0 else 0.0
        t_share = stats.duration / in_t[b] if in_t[b] > 0 else 0.0
        p_share = stats.avg_weight / in_p[b] if in_p[b] > 0 else 0.0
        return (f_share + t_share + p_share) / 3.0

    h = nx.Graph()
    h.add_nodes_from(sorted(kept))
    inside = in_kept[src] & in_kept[dst]
    lo = np.minimum(src[inside], dst[inside])
    hi = np.maximum(src[inside], dst[inside])
    for pair in np.unique(lo * n + hi).tolist():  # ids follow name order
        a, b = divmod(pair, n)
        h.add_edge(index.names[a], index.names[b],
                   weight=intensity(a, b) + intensity(b, a))
    return h


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
