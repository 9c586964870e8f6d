"""Independent brute-force oracles used to cross-check the optimized paths.

Everything here recomputes results from first principles (exhaustive scans,
direct formula evaluation) without touching the incremental bookkeeping of
the modules under test.
"""
from __future__ import annotations

import calendar
import importlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import combinations

import networkx as nx
import numpy as np

from dposforensics.model import (
    MAX_VOTES,
    NAME_ALPHABET,
    SECONDS_PER_DAY,
    TIME_MAX,
    TIME_MIN,
    VOTE_INDEX_EPOCH,
    Action,
    ActionKind,
    BlockHeader,
    ParseError,
    compute_vote_weight,
)
from dposforensics.clustering import record_similarity
from dposforensics.gangs import EgonetFeature, GangError, VotingGraph
from dposforensics.motifs import DEFAULT_WINDOW, EIGHT, LINEAR, TRIANGULAR, VoteEvent
from dposforensics.replay import replay

from sums import left_to_right_sum

# networkx adds with the builtin sum(), which compensates float rounding from
# Python 3.12 on. The package's Louvain port adds left to right
# (model.ordered_sum), so networkx's degree, size and modularity sums are
# given a left-to-right sum too: its partitions and modularity then stay the
# port's bit-for-bit oracle on every Python.
for _module in ("networkx.classes.graph", "networkx.classes.reportviews",
                "networkx.algorithms.community.quality"):
    importlib.import_module(_module).sum = left_to_right_sum


def recompute_tallies(state) -> dict[str, dict[int, int]]:
    """Re-derive every candidate's integer stake per vote week from account
    records only, leaving out weeks whose stake is 0.

    Each direct voter gives its stake, plus the stakes of the accounts whose
    proxy it is while it is a registered proxy, to each candidate it votes
    for, in the bucket of whole weeks from the index epoch to its last vote.
    """
    received = {c: {} for c in state.tallies}
    for name, acct in state.accounts.items():
        if acct.proxy is not None or not acct.votes:
            continue
        stake = acct.stake
        if acct.is_proxy:
            stake += sum(other.stake for other in state.accounts.values()
                         if other.proxy == name)
        week = (acct.last_vote_time - VOTE_INDEX_EPOCH) // (7 * SECONDS_PER_DAY)
        for cand in acct.votes:
            received[cand][week] = received[cand].get(week, 0) + stake
    return {cand: {week: stake for week, stake in weeks.items() if stake}
            for cand, weeks in received.items()}


def recompute_candidate_weights(state) -> dict[str, float]:
    """Re-derive every candidate's received weight from account records only:
    the fsum over its recompute_tallies weeks of stake * 2^(week/52)."""
    return {cand: math.fsum(compute_vote_weight(stake, week / 52)
                            for week, stake in weeks.items())
            for cand, weeks in recompute_tallies(state).items()}


def component_clusters(voters, records, theta):
    """Size->=2 connected components of the theta-similarity graph."""
    g = nx.Graph()
    g.add_nodes_from(voters)
    for a, b in combinations(sorted(voters), 2):
        if record_similarity(records[a], records[b]) >= theta:
            g.add_edge(a, b)
    return {frozenset(c) for c in nx.connected_components(g) if len(c) >= 2}


def _dedup(shape, raw):
    """Same (participants, month) dedup rule as the detectors."""
    from dposforensics.metrics import utc_month

    keys = set()
    for participants, witnesses in raw:
        start = min(e.timestamp for e in witnesses)
        keys.add((shape, participants, utc_month(start)))
    return keys


def brute_linear(events, window, candidates=None):
    raw = []
    for e1 in events:
        for e2 in events:
            if e1.src == e1.dst or e2.src == e2.dst:
                continue
            if candidates is not None and not (
                    {e1.src, e1.dst, e2.src, e2.dst} <= candidates):
                continue
            if (e1.via_proxy is None and e2.via_proxy is None
                    and e1.src == e2.dst and e1.dst == e2.src
                    and e1.src < e1.dst
                    and abs(e1.timestamp - e2.timestamp) <= window):
                raw.append(((e1.src, e1.dst), (e1, e2)))
    return _dedup(LINEAR, raw)


def brute_triangular(events, window, candidates=None):
    raw = []
    for e1 in events:
        for e2 in events:
            if e1.src == e1.dst or e2.src == e2.dst:
                continue
            if candidates is not None and not (
                    {e1.src, e1.dst, e2.src, e2.dst} <= candidates):
                continue
            if (e1.via_proxy is not None and e2.via_proxy is None
                    and e1.src == e2.dst and e1.dst == e2.src
                    and abs(e1.timestamp - e2.timestamp) <= window):
                raw.append(((e1.src, e1.via_proxy, e1.dst), (e1, e2)))
    return _dedup(TRIANGULAR, raw)


def brute_eight(events, window, candidates=None):
    raw = []
    for e1 in events:
        for e2 in events:
            if e1.src == e1.dst or e2.src == e2.dst:
                continue
            if candidates is not None and not (
                    {e1.src, e1.dst, e2.src, e2.dst} <= candidates):
                continue
            if (e1.via_proxy is not None and e2.via_proxy is not None
                    and e1.src == e2.dst and e1.dst == e2.src
                    and e1.src < e1.dst
                    and abs(e1.timestamp - e2.timestamp) <= window):
                raw.append(((e1.src, e1.via_proxy, e1.dst, e2.via_proxy), (e1, e2)))
    return _dedup(EIGHT, raw)


def verify_instance(instance, window=DEFAULT_WINDOW) -> bool:
    """Independent shape-predicate check over the witness events."""
    w = instance.witnesses
    if len(w) != 2:
        return False
    e1, e2 = w
    if abs(e1.timestamp - e2.timestamp) > window:
        return False
    if not (e1.src == e2.dst and e1.dst == e2.src and e1.src != e1.dst):
        return False
    if instance.shape == LINEAR:
        return e1.via_proxy is None and e2.via_proxy is None
    if instance.shape == TRIANGULAR:
        return e1.via_proxy is not None and e2.via_proxy is None
    if instance.shape == EIGHT:
        return e1.via_proxy is not None and e2.via_proxy is not None
    return False


def motif_key_set(instances):
    from dposforensics.metrics import utc_month

    return {(i.shape, i.participants, utc_month(i.window_start)) for i in instances}


class VoteRecorder:
    """Replay observer that keeps one record per applied direct vote: the
    voter, its candidates, the time, and the voter's delegators (sorted) if
    it is a registered proxy. A direct vote leaves the voter's own delegators
    and proxy flag as they were, so reading them after the action is exact.
    """

    def __init__(self) -> None:
        self.records = []

    def __call__(self, action, state) -> None:
        if action.kind is not ActionKind.VOTE_PRODUCER or action.payload["proxy"]:
            return
        actor = action.actor
        delegators = ()
        if state.accounts[actor].is_proxy:
            delegators = tuple(sorted(state.delegators.get(actor, ())))
        self.records.append(
            (actor, action.payload["producers"], action.timestamp, delegators))

    def events(self, candidates=None) -> list[VoteEvent]:
        """The records flattened in vote order: per chosen candidate, the
        voter's own event, then one per delegator via the voter. With
        `candidates`, only the events between two candidates."""
        events = []
        for actor, producers, timestamp, delegators in self.records:
            own = True
            if candidates is not None:
                own = actor in candidates
                delegators = tuple(d for d in delegators if d in candidates)
                if not (own or delegators):
                    continue
                producers = [c for c in producers if c in candidates]
            for cand in producers:
                if own:
                    events.append(VoteEvent(actor, cand, None, timestamp))
                for delegator in delegators:
                    events.append(VoteEvent(delegator, cand, actor, timestamp))
        return events


def ref_vote_events(trace, candidates=None) -> list[VoteEvent]:
    """The trace's vote events from a VoteRecorder replay, restricted to
    `candidates` if given."""
    recorder = VoteRecorder()
    replay(trace, [recorder])
    return recorder.events(candidates)


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
class VoterGraph:
    """The voting network at the level of its voters: the edges of every
    source, which NetworkBuilder.finish reduces to candidates. Edge k runs from
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


def edge_table(graph) -> dict[tuple[str, str], EdgeStats]:
    """A voting graph's edge columns as {(src, dst): EdgeStats}, in edge order."""
    name = graph.nodes.__getitem__
    columns = (graph.placements, graph.duration, graph.weight_integral,
               graph.last_weight)
    return {(name(s), name(d)): EdgeStats(*stats) for s, d, *stats in zip(
        graph.src.tolist(), graph.dst.tolist(), *(c.tolist() for c in columns))}


def voting_graph(edges, candidates=()) -> VoterGraph:
    """A voting graph with the given {(src, dst): EdgeStats} edges, in mapping
    order, and its nodes in name order."""
    nodes = sorted({name for pair in edges for name in pair})
    ids = {name: i for i, name in enumerate(nodes)}
    stats = list(edges.values())
    return VoterGraph(
        nodes, np.array([ids[s] for s, _ in edges], np.int64),
        np.array([ids[d] for _, d in edges], np.int64),
        np.array([s.placements for s in stats], np.int64),
        np.array([s.duration for s in stats], np.float64),
        np.array([s.weight_integral for s in stats], np.float64),
        np.array([s.last_weight for s in stats], np.float64),
        set(candidates))


def trace_graph(trace, end_time=None, network=None) -> VoterGraph:
    """The voter-level graph of a trace from an oracle network builder
    (default incremental_voting_network), with its registered candidates;
    end_time defaults to the last action's timestamp, as in the package."""
    if end_time is None:
        end_time = trace[-1].timestamp if trace else 0.0
    edges = (network or incremental_voting_network)(trace, end_time)
    return voting_graph(edges, replay(trace)[0].tallies)


def candidate_graph(graph: VoterGraph) -> VotingGraph:
    """The reduction NetworkBuilder.finish makes, in plain Python: the
    candidates that end an edge, the edges between them, each candidate's
    received duration and average weight added with += in edge order, and
    the counts of the other sources voting for each pair of candidates.

    A graph with an edge that ends at a non-candidate or is a self-loop,
    which no trace gives, raises GangError naming the first such edge."""
    edges = edge_table(graph)
    for e, (src, dst) in enumerate(edges):
        if src == dst or dst not in graph.candidates:
            raise GangError(f"voting graph edge {e} ({src} -> {dst}) "
                            + ("is a self-loop" if src == dst
                               else "ends at a non-candidate"))
    names = sorted(graph.candidates.intersection(graph.nodes))
    ids = {name: i for i, name in enumerate(names)}
    k = len(names)
    received_duration, received_weight = [0.0] * k, [0.0] * k
    among = []  # (src, dst, placements, duration, avg_weight) of each
    voted: dict[str, list[int]] = {}  # the other sources' candidates
    for (src, dst), stats in edges.items():
        received_duration[ids[dst]] += stats.duration
        received_weight[ids[dst]] += stats.avg_weight
        if src in ids:
            among.append((ids[src], ids[dst], stats.placements, stats.duration,
                          stats.avg_weight))
        else:
            voted.setdefault(src, []).append(ids[dst])
    shared = np.zeros((k, k), np.int64)
    for targets in voted.values():
        for a in targets:
            for b in targets:
                shared[a, b] += 1
    dtypes = (np.int64, np.int64, np.int64, np.float64, np.float64)
    columns = [np.array([edge[i] for edge in among], dtype)
               for i, dtype in enumerate(dtypes)]
    return VotingGraph(names, *columns, np.array(received_duration),
                       np.array(received_weight), shared)


def undirected_view(graph) -> nx.Graph:
    """A voting graph's edge table as an undirected networkx graph; reciprocal
    pairs collapse to one edge and self-loops stay."""
    g = nx.Graph()
    g.add_edges_from(edge_table(graph))
    return g


def adjacency(g: nx.Graph) -> dict:
    """A networkx graph as the adjacency gang detection reads: each node's
    neighbours and edge weights (1 where an edge has none), in g's own order."""
    return {u: {v: data.get("weight", 1) for v, data in nbrs.items()}
            for u, nbrs in g.adj.items()}


def weighted_edges(adjacency: dict) -> list[tuple]:
    """The (u, v, weight) edges of an adjacency, each once, in the order
    networkx's edges(data="weight") lists the same graph's."""
    g = nx.Graph()
    g.add_nodes_from(adjacency)
    for u, nbrs in adjacency.items():
        for v, weight in nbrs.items():
            g.add_edge(u, v, weight=weight)
    return list(g.edges(data="weight"))


def brute_egonet(g: nx.Graph, node):
    """(N, E) of node's egonet: a self-loop makes a node its own neighbour,
    and each self-loop inside the egonet counts as one edge."""
    nbrs = set(g.neighbors(node))
    members = nbrs | {node}
    edges = sum(1 for a, b in combinations(sorted(members), 2) if g.has_edge(a, b))
    loops = sum(1 for m in members if g.has_edge(m, m))
    return len(nbrs), edges + loops


@dataclass(frozen=True)
class NodeIndex:
    """A voting graph's node ids by name, and each node's undirected
    neighbours as sorted, deduplicated CSR rows of node ids, where a
    self-loop makes a node its own neighbour."""

    ids: dict[str, int]
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def of(cls, graph: VoterGraph) -> "NodeIndex":
        src, dst = graph.src, graph.dst
        n = len(graph.nodes)
        # The distinct keys u * n + v of the edges in both directions, row by
        # row, are the CSR entries; row u starts at the first key >= u * n.
        keys = np.unique(np.concatenate([src * n + dst, dst * n + src]))
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        return cls({name: i for i, name in enumerate(graph.nodes)}, indptr,
                   keys % max(n, 1))

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """The neighbours of every node in `nodes`, concatenated."""
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        return self.indices[shift + np.arange(len(shift))]


def ref_egonet_features(graph: VoterGraph, scope=None) -> list[EgonetFeature]:
    """Neighbor and egonet-edge counts on the undirected simple view of any
    graph, read from its voter-level NodeIndex; scope defaults to the
    candidate nodes present in the graph.

    E_i is the ego's spokes plus the edges among its neighbours (OddBall's
    N_i + triangles(i)); the latter show up twice in the summed overlaps of
    the neighbours' rows with the neighbour set, and a looped neighbour once.
    A self-loop counts once, as in networkx, which also lists a looped ego
    among its own neighbours.
    """
    index = NodeIndex.of(graph)
    looped = np.zeros(len(graph.nodes), bool)
    looped[graph.src[graph.src == graph.dst]] = True
    if scope is None:
        scope = graph.candidates & index.ids.keys()
    member = np.zeros(len(graph.nodes), bool)
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


def ref_kept_nodes(graph: VoterGraph, anomalies) -> list[str]:
    """The candidates the reconstruction keeps, in name order: each anomaly
    that is a node, and its NodeIndex neighbours."""
    index, kept = NodeIndex.of(graph), set()
    for node in anomalies:
        ego = index.ids.get(node)
        if ego is not None:
            kept.add(node)
            kept.update(graph.nodes[i] for i in index.neighbors(ego).tolist())
    return sorted(kept & graph.candidates)


def hill_alpha(values) -> float:
    """MLE tail-exponent estimate; returns the density exponent (tail + 1)."""
    values = sorted(values)
    x_min = values[0]
    n = len(values)
    return 1.0 + n / sum(math.log(v / x_min) for v in values)


def brute_voting_network(trace, end_time) -> dict[tuple[str, str], EdgeStats]:
    """Every (src, dst) voting edge re-derived from the account table.

    After each applied action, every account's backing is read afresh. An
    edge is in force while src backs dst (dst != src); a change of src's
    weight ends a segment and starts another. A placement is counted when an
    edge comes into force, and when a direct vote by src, or by src's proxy,
    places it again. Edges are listed in the order they first come into
    force; within one action the actor's edges come first, then the others
    in (src, dst) order. Each edge adds its segments' spans and weight *
    span with += in time order, the votes in force at end_time closed there.
    """
    edges: dict[tuple[str, str], EdgeStats] = {}
    segments: dict[tuple[str, str], list[tuple[float, float]]] = {}
    in_force: dict[tuple[str, str], tuple[float, float]] = {}  # (start, weight)

    def end_segment(key, t):
        start, weight = in_force[key]
        segments[key].append((t - start, weight))

    def observe(action, state):
        t = action.timestamp
        replacer = (action.actor if action.kind is ActionKind.VOTE_PRODUCER
                    and not action.payload["proxy"] else None)
        backed = {}
        for name in state.accounts:
            votes, weight = state.backing(name)
            for dst in votes:
                if dst != name:
                    backed[(name, dst)] = weight
        for key in [k for k in in_force if k not in backed]:
            end_segment(key, t)
            del in_force[key]
        for key in sorted(backed, key=lambda k: (k[0] != action.actor, k)):
            weight = backed[key]
            if key in in_force:
                if in_force[key][1] != weight:
                    end_segment(key, t)
                    in_force[key] = (t, weight)
                placed = replacer is not None and replacer in (
                    key[0], state.accounts[key[0]].proxy)
            else:
                edges.setdefault(key, EdgeStats())
                segments.setdefault(key, [])
                in_force[key] = (t, weight)
                placed = True
            if placed:
                edges[key].placements += 1
                edges[key].last_weight = weight

    replay(trace, [observe])
    for key in in_force:
        end_segment(key, end_time)
    for key, stats in edges.items():
        for span, weight in segments[key]:
            _accrue(stats, weight, span)
    return edges


# The voting network as the replay observer built it before the edges became
# columns: one EdgeStats per edge, kept current in the fold, each segment
# added with the same += as it closes. The column builder must match it bit
# for bit.

@dataclass(slots=True)
class _Source:
    """The votes of one source in force: each open edge's aggregate and the
    start of the segment it is integrating."""

    votes: tuple[str, ...]
    weight: float
    edges: dict[str, EdgeStats] = field(default_factory=dict)
    starts: dict[str, float] = field(default_factory=dict)


def _accrue(stats: EdgeStats, weight: float, span: float) -> None:
    stats.duration += span
    stats.weight_integral += weight * span


class _IncrementalBuilder:
    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], EdgeStats] = {}
        self.open: dict[str, _Source] = {}

    def _reconcile(self, state, src, t, replaced) -> None:
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
            desired.discard(src)
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
        for dst in opened:
            stats = self.edges.get((src, dst))
            if stats is None:
                stats = self.edges[(src, dst)] = EdgeStats()
            edges[dst] = stats
            starts[dst] = t
            stats.placements += 1
            stats.last_weight = weight
        if edges:
            source.votes, source.weight = votes, weight
        else:
            del self.open[src]

    def __call__(self, action, state) -> None:
        actor = action.actor
        if action.kind in (ActionKind.DELEGATE_BW, ActionKind.UNDELEGATE_BW):
            affected, replaced = [actor], False
        elif action.kind is ActionKind.REG_PROXY:
            affected, replaced = [actor] + sorted(state.delegators.get(actor, ())), False
        elif action.kind is ActionKind.VOTE_PRODUCER:
            affected = [actor] + sorted(state.delegators.get(actor, ()))
            replaced = not action.payload["proxy"]
        else:
            affected, replaced = [], False
        for src in affected:
            self._reconcile(state, src, action.timestamp, replaced)


def incremental_voting_network(trace, end_time) -> dict[tuple[str, str], EdgeStats]:
    """Every edge's EdgeStats, in the order edges were first placed, from the
    per-edge incremental builder; the votes in force at end_time close there."""
    builder = _IncrementalBuilder()
    replay(trace, [builder])
    for source in builder.open.values():
        for dst, stats in source.edges.items():
            _accrue(stats, source.weight, end_time - source.starts[dst])
    return builder.edges


def brute_intensity(graph, src, dst) -> float:
    """Direct Eq-style intensity recomputation from the edge table."""
    edges = edge_table(graph)
    stats = edges.get((src, dst))
    if stats is None:
        return 0.0
    f_total = sum(s.placements for (a, _), s in edges.items() if a == src)
    t_total = left_to_right_sum(s.duration for (_, b), s in edges.items() if b == dst)
    p_total = left_to_right_sum(s.avg_weight for (_, b), s in edges.items() if b == dst)
    f = stats.placements / f_total if f_total else 0.0
    t = stats.duration / t_total if t_total else 0.0
    p = stats.avg_weight / p_total if p_total else 0.0
    return (f + t + p) / 3.0


# The trace and header parsers as they were before names were checked once
# per load: every name is validated where it appears, every message is
# formatted, and the kind goes through the enum.

def ref_validate_name(name, field_name="name"):
    if not isinstance(name, str):
        raise ParseError(f"{field_name} must be a string, got {type(name).__name__}", field_name)
    if not 1 <= len(name) <= 12:
        raise ParseError(f"{field_name} '{name}' length must be in [1, 12]", field_name)
    bad = set(name) - NAME_ALPHABET
    if bad:
        raise ParseError(f"{field_name} '{name}' has invalid characters {sorted(bad)}", field_name)
    if name.endswith("."):
        raise ParseError(f"{field_name} '{name}' must not end with a dot", field_name)
    return name


def _ref_is_number(value, kinds):
    return isinstance(value, kinds) and not isinstance(value, bool)


def _ref_require(condition, message, field_name):
    if not condition:
        raise ParseError(message, field_name)


def _ref_validate_payload(kind, actor, payload):
    if not isinstance(payload, dict):
        raise ParseError("payload must be an object", "payload")
    if kind is ActionKind.NEW_ACCOUNT:
        created = ref_validate_name(payload.get("created"), "payload.created")
        creator = payload.get("creator", actor)
        ref_validate_name(creator, "payload.creator")
        _ref_require(creator == actor, "creator must equal the acting account", "payload.creator")
        return {"created": created, "creator": creator}
    if kind in (ActionKind.DELEGATE_BW, ActionKind.UNDELEGATE_BW):
        amount = payload.get("amount")
        _ref_require(_ref_is_number(amount, int),
                     "amount must be an integer of base units", "payload.amount")
        _ref_require(amount >= 0, "amount must be non-negative", "payload.amount")
        return {"amount": amount}
    if kind is ActionKind.REG_PRODUCER:
        return {}
    if kind is ActionKind.REG_PROXY:
        isproxy = payload.get("isproxy")
        _ref_require(isinstance(isproxy, bool), "isproxy must be a boolean", "payload.isproxy")
        return {"isproxy": isproxy}
    if kind is ActionKind.VOTE_PRODUCER:
        proxy = payload.get("proxy") or ""
        producers = payload.get("producers") or []
        _ref_require(isinstance(producers, list), "producers must be a list", "payload.producers")
        if proxy:
            ref_validate_name(proxy, "payload.proxy")
            _ref_require(not producers,
                         "ambiguous vote: both proxy and producers set", "payload")
            return {"proxy": proxy, "producers": []}
        _ref_require(len(producers) <= MAX_VOTES,
                     f"producers list exceeds {MAX_VOTES}", "payload.producers")
        for p in producers:
            ref_validate_name(p, "payload.producers")
        _ref_require(len(set(producers)) == len(producers),
                     "producers list has duplicates", "payload.producers")
        _ref_require(producers == sorted(producers),
                     "producers list must be sorted ascending", "payload.producers")
        return {"proxy": "", "producers": list(producers)}
    raise ParseError(f"unknown action kind '{kind}'", "kind")


def ref_make_action(kind, actor, timestamp, block, seq, payload=None):
    try:
        kind = ActionKind(kind)
    except ValueError:
        raise ParseError(f"unknown action kind '{kind}'", "kind") from None
    ref_validate_name(actor, "actor")
    if not _ref_is_number(timestamp, (int, float)):
        raise ParseError("timestamp must be numeric", "timestamp")
    _ref_require(TIME_MIN <= timestamp <= TIME_MAX,
                 f"timestamp must fall in the UTC years 1 to 9999, got {timestamp!r}",
                 "timestamp")
    if not _ref_is_number(block, int) or block < 0:
        raise ParseError("block must be a non-negative integer", "block")
    if not _ref_is_number(seq, int):
        raise ParseError("seq must be an integer", "seq")
    payload = _ref_validate_payload(kind, actor, payload or {})
    return Action(kind=kind, actor=actor, timestamp=int(timestamp), block=block,
                  seq=seq, payload=payload)


def ref_parse_action(line):
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "line") from None
    if not isinstance(record, dict):
        raise ParseError("trace line must be a JSON object", "line")
    missing = {"kind", "actor", "timestamp", "block", "seq"} - record.keys()
    if missing:
        raise ParseError(f"missing fields: {sorted(missing)}", ",".join(sorted(missing)))
    return ref_make_action(record["kind"], record["actor"], record["timestamp"],
                           record["block"], record["seq"], record.get("payload"))


def ref_parse_header(line):
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "line") from None
    if not isinstance(record, dict):
        raise ParseError("header line must be a JSON object", "line")
    for key in ("height", "producer", "timestamp"):
        if key not in record:
            raise ParseError(f"missing header field '{key}'", key)
    ref_validate_name(record["producer"], "producer")
    height = _ref_header_number(record, "height", int)
    timestamp = _ref_header_number(record, "timestamp", float)
    if not TIME_MIN <= timestamp <= TIME_MAX:
        raise ParseError(f"header field 'timestamp' must fall in the UTC years "
                         f"1 to 9999, got {record['timestamp']!r}", "timestamp")
    return BlockHeader(height=height, producer=record["producer"],
                       timestamp=timestamp)


def _ref_header_number(record, key, kind):
    value = record[key]
    try:
        if not isinstance(value, bool):
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParseError(f"header field '{key}' must be numeric, got {value!r}", key)


def ref_serialize_action(action):
    """serialize_action as json alone writes it."""
    return json.dumps({
        "kind": action.kind.value,
        "actor": action.actor,
        "timestamp": action.timestamp,
        "block": action.block,
        "seq": action.seq,
        "payload": action.payload,
    }, sort_keys=True, separators=(",", ":"))


def ref_serialize_header(header):
    """serialize_header as json alone writes it."""
    return json.dumps({"height": header.height, "producer": header.producer,
                       "timestamp": header.timestamp},
                      sort_keys=True, separators=(",", ":"))


def ref_encode_json(value, indent=True):
    """model.encode_json at depth 0 as json alone writes it."""
    if indent:
        return json.dumps(value, indent=2, sort_keys=True)
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_state(state) -> dict:
    """The "state" of state.json: the accounts in name order, the
    candidates' weights and the height and time the state is as of."""
    accounts = {
        name: {
            "stake": acct.stake,
            "last_vote_time": acct.last_vote_time,
            "votes": list(acct.votes),
            "proxy": acct.proxy,
            "is_proxy": acct.is_proxy,
            "creator": acct.creator,
        }
        for name, acct in sorted(state.accounts.items())
    }
    return {
        "as_of": list(state.as_of),
        "accounts": accounts,
        "candidates": state.candidates,
    }


def canonical_json(state) -> str:
    """json's compact text of canonical_state(state), which state.json's
    "state_digest" hashes."""
    return ref_encode_json(canonical_state(state), indent=False)


def ref_month_windows(start_ts, end_ts):
    """[lo, hi) clamped overlap of each UTC month with [start_ts, end_ts),
    walked one month at a time from the start of start_ts's month: a month
    ends as many days after it starts as it has days."""
    dt = datetime.fromtimestamp(start_ts, tz=timezone.utc)
    cursor = start_ts - ((dt.day - 1) * 86_400 + dt.hour * 3_600 + dt.minute * 60
                         + dt.second)
    windows = []
    while cursor < end_ts:
        dt = datetime.fromtimestamp(cursor, tz=timezone.utc)
        nxt = cursor + calendar.monthrange(dt.year, dt.month)[1] * 86_400
        windows.append((max(cursor, start_ts), min(nxt, end_ts)))
        cursor = nxt
    return windows


def brute_monthly_production(headers):
    """Blocks per producer per UTC month, one utc_month call per header."""
    from dposforensics.metrics import utc_month

    result = {}
    for header in headers:
        month = result.setdefault(utc_month(header.timestamp), {})
        month[header.producer] = month.get(header.producer, 0) + 1
    return {m: dict(sorted(c.items())) for m, c in sorted(result.items())}


def brute_producer_turnover(headers):
    """(distinct producers per month, cumulative distinct producers per month,
    distinct days per producer), from one utc_month and one utc_day call per
    header."""
    from dposforensics.metrics import utc_day, utc_month

    monthly, days = {}, {}
    for header in headers:
        monthly.setdefault(utc_month(header.timestamp), set()).add(header.producer)
        days.setdefault(header.producer, set()).add(utc_day(header.timestamp))
    seen, cumulative = set(), []
    for month in sorted(monthly):
        seen |= monthly[month]
        cumulative.append((month, len(seen)))
    return ({m: len(s) for m, s in sorted(monthly.items())}, cumulative,
            {p: len(d) for p, d in sorted(days.items())})
