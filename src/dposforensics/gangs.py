"""Mutual-voting gang detection pipeline.

Three steps over the voting network: near-clique anomaly scoring on candidate
egonets against an egonet-density power-law fit, intensity-weighted
reconstruction around the anomalies, and weighted Louvain community
detection with single-edge pruning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import networkx as nx
import numpy as np

from .model import Action, ActionKind
from .replay import VotingState, replay


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

    def adjacency(self) -> dict[str, set[str]]:
        """Undirected neighbour sets: each directed pair links its two ends,
        and a self-loop puts a node among its own neighbours."""
        adj: dict[str, set[str]] = {}
        for src, dst in self.edges:
            adj.setdefault(src, set()).add(dst)
            adj.setdefault(dst, set()).add(src)
        return adj


@dataclass(slots=True)
class _OpenEdge:
    seg_start: float
    weight: float


class NetworkBuilder:
    """Replay observer that tracks, per directed pair, the intervals each vote
    was in force and the weight over those intervals, and the registered
    candidates."""

    def __init__(self) -> None:
        self.graph = VotingGraph()
        self.open: dict[str, dict[str, _OpenEdge]] = {}

    def _stats(self, src: str, dst: str) -> EdgeStats:
        return self.graph.edges.setdefault((src, dst), EdgeStats())

    def _close(self, src: str, dst: str, t: float) -> None:
        edge = self.open[src].pop(dst)
        stats = self._stats(src, dst)
        stats.duration += t - edge.seg_start
        stats.weight_integral += edge.weight * (t - edge.seg_start)

    def _reconcile(self, state: VotingState, src: str, t: float,
                   replaced: bool) -> None:
        """Bring src's open edges in line with its current effective votes.

        replaced=True marks a fresh vote placement: continuing targets count
        as a new placement too.
        """
        votes, weight = state.backing(src)
        desired = {c for c in votes if c != src}  # a self-vote is no edge
        open_edges = self.open.setdefault(src, {})
        for dst in sorted(set(open_edges) - desired):
            self._close(src, dst, t)
        for dst in sorted(desired):
            edge = open_edges.get(dst)
            stats = self._stats(src, dst)
            if edge is None:
                open_edges[dst] = _OpenEdge(seg_start=t, weight=weight)
                stats.placements += 1
                stats.last_weight = weight
            else:
                if replaced:
                    stats.placements += 1
                    stats.last_weight = weight
                if edge.weight != weight:
                    stats.duration += t - edge.seg_start
                    stats.weight_integral += edge.weight * (t - edge.seg_start)
                    edge.seg_start = t
                    edge.weight = weight

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
        for src in sorted(self.open):
            for dst in sorted(self.open[src]):
                self._close(src, dst, end_time)
        self.open.clear()  # the emptied per-source tables keep their memory
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


def egonet_features(graph: VotingGraph,
                    scope: Optional[Sequence[str]] = None) -> list[EgonetFeature]:
    """Neighbor and egonet-edge counts on the undirected simple view; scope
    defaults to the candidate nodes present in the graph.

    E_i is the ego's spokes plus the edges among its neighbours (OddBall's
    N_i + triangles(i)); the latter show up twice in the summed overlaps of
    the neighbours' adjacency sets. A self-loop counts once, as in networkx,
    which also lists a looped ego among its own neighbours.
    """
    adj = graph.adjacency()
    looped = {node for node, nbrs in adj.items() if node in nbrs}
    if scope is None:
        scope = graph.candidates & adj.keys()
    features = []
    for node in sorted(scope):
        nbrs = adj.get(node)
        if not nbrs:
            continue
        ego_loop = node in looped
        spokes = len(nbrs) - ego_loop
        overlaps = sum(len(adj[u] & nbrs) for u in nbrs if u != node)
        # besides each neighbour-neighbour edge twice, the overlaps hold a
        # looped neighbour once and a looped ego once per spoke
        nbr_loops = len(looped & nbrs) - ego_loop if looped else 0
        among = (overlaps - nbr_loops - ego_loop * spokes) // 2
        features.append(EgonetFeature(
            node=node, neighbors=len(nbrs),
            edges=spokes + among + nbr_loops + ego_loop))
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


def reconstruct_weighted_network(graph: VotingGraph,
                                 anomalies: Sequence[str]) -> nx.Graph:
    """Undirected network over candidate nodes inside the anomalies' egonets,
    weighted by the symmetrized voting intensity.

    Intensity i->j averages three shares computed on the FULL directed graph:
    i's placement count toward j over i's total placements, and j's received
    duration / average-weight from i over j's totals.
    """
    if not anomalies:
        raise GangError("nothing to reconstruct: empty anomaly set")
    adj = graph.adjacency()
    kept: set[str] = set()
    for node in anomalies:
        if node in adj:
            kept.add(node)
            kept |= adj[node]
    kept &= graph.candidates

    out_f: dict[str, float] = {}
    in_t: dict[str, float] = {}
    in_p: dict[str, float] = {}
    for (src, dst), stats in graph.edges.items():
        out_f[src] = out_f.get(src, 0.0) + stats.placements
        in_t[dst] = in_t.get(dst, 0.0) + stats.duration
        in_p[dst] = in_p.get(dst, 0.0) + stats.avg_weight

    def intensity(src: str, dst: str) -> float:
        stats = graph.edges.get((src, dst))
        if stats is None:
            return 0.0
        f_share = stats.placements / out_f[src] if out_f[src] > 0 else 0.0
        t_share = stats.duration / in_t[dst] if in_t[dst] > 0 else 0.0
        p_share = stats.avg_weight / in_p[dst] if in_p[dst] > 0 else 0.0
        return (f_share + t_share + p_share) / 3.0

    h = nx.Graph()
    h.add_nodes_from(sorted(kept))
    pairs = {tuple(sorted((s, d))) for (s, d) in graph.edges
             if s in kept and d in kept}
    for a, b in sorted(pairs):
        h.add_edge(a, b, weight=intensity(a, b) + intensity(b, a))
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
