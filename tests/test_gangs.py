import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dposforensics import gangs
from dposforensics.gangs import (
    EgonetFeature,
    GangError,
    VotingGraph,
    _modularity,
    build_voting_network,
    detect_gangs,
    egonet_features,
    fit_edpl,
    louvain_communities,
    outlierness,
    reconstruct_weighted_network,
    run_pipeline,
    select_anomalies,
    voting_network,
)
from dposforensics.model import compute_vote_index, compute_vote_weight
from dposforensics.replay import VoteLog, replay
from dposforensics.synth import GenConfig, PlantSpec, generate_ledger

from conftest import T0, DAY, TraceBuilder, random_trace, run_under_hash_seed, voting_traces
from oracles import (
    EdgeStats,
    NodeIndex,
    adjacency,
    brute_egonet,
    brute_intensity,
    brute_voting_network,
    candidate_graph,
    edge_table,
    incremental_voting_network,
    ref_egonet_features,
    ref_kept_nodes,
    trace_graph,
    undirected_view,
    voting_graph,
    weighted_edges,
)

EOS = 10_000

GRAPH_FIELDS = ("src", "dst", "placements", "duration", "avg_weight",
                "received_duration", "received_weight", "shared")


def assert_same_graph(graph, expected):
    """Field for field and bit for bit, dtypes included."""
    assert graph.candidates == expected.candidates
    for name in GRAPH_FIELDS:
        got, want = getattr(graph, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def assert_matches_both_oracles(trace, end_time):
    """The package's graph is the reference reduction of the incremental and
    of the brute-force network, which agree edge for edge."""
    incremental = trace_graph(trace, end_time)
    brute = trace_graph(trace, end_time, brute_voting_network)
    assert list(edge_table(incremental).items()) == list(edge_table(brute).items())
    graph = build_voting_network(trace, end_time=end_time)
    assert_same_graph(graph, candidate_graph(incremental))
    assert_same_graph(graph, candidate_graph(brute))


def candidate_edges(graph):
    """{(src, dst): (placements, duration, avg_weight)} of the edges between
    candidates."""
    name = graph.candidates.__getitem__
    return {(name(s), name(d)): stats for s, d, *stats in zip(
        graph.src.tolist(), graph.dst.tolist(), graph.placements.tolist(),
        graph.duration.tolist(), graph.avg_weight.tolist())}


def received(graph):
    """{candidate: (received duration, received average weight)}."""
    return dict(zip(graph.candidates, zip(graph.received_duration.tolist(),
                                          graph.received_weight.tolist())))


class TestEdgeStats:
    # The voter in a case that checks placements is a candidate, since only
    # the edges between candidates keep theirs.
    def test_single_standing_vote(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "alice").regproducer("alice").delegate("alice", 10 * EOS)
        b.vote("alice", ["bp.a"], ts=T0 + 100)
        graph = build_voting_network(b.build(), end_time=T0 + 100 + 100 * DAY)
        placements, duration, avg_weight = candidate_edges(graph)[("alice", "bp.a")]
        w = compute_vote_weight(10 * EOS, compute_vote_index(T0 + 100))
        assert placements == 1
        assert duration == pytest.approx(100 * DAY)
        assert avg_weight == pytest.approx(w)
        assert received(graph)["bp.a"] == (duration, avg_weight)

    def test_replacement_counts_again(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "alice").regproducer("alice").delegate("alice", 10 * EOS)
        b.vote("alice", ["bp.a"], ts=T0 + 0)
        b.vote("alice", ["bp.a"], ts=T0 + 10 * DAY)
        graph = build_voting_network(b.build(), end_time=T0 + 15 * DAY)
        placements, duration, _ = candidate_edges(graph)[("alice", "bp.a")]
        assert placements == 2
        assert duration == pytest.approx(15 * DAY)

    def test_switch_closes_old_edge(self):
        b = TraceBuilder()
        b.regproducer("bp.a").regproducer("bp.b")
        b.newaccount("genesis", "alice").delegate("alice", 10 * EOS)
        b.vote("alice", ["bp.a"], ts=T0)
        b.vote("alice", ["bp.b"], ts=T0 + 4 * DAY)
        graph = build_voting_network(b.build(), end_time=T0 + 10 * DAY)
        totals = received(graph)
        assert totals["bp.a"][0] == pytest.approx(4 * DAY)
        assert totals["bp.b"][0] == pytest.approx(6 * DAY)

    def test_time_weighted_average_on_stake_change(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "alice").regproducer("alice").delegate("alice", 10 * EOS)
        b.vote("alice", ["bp.a"], ts=T0)
        b.delegate("alice", 10 * EOS, ts=T0 + 10 * DAY)  # stake doubles
        graph = build_voting_network(b.build(), end_time=T0 + 20 * DAY)
        placements, _, avg_weight = candidate_edges(graph)[("alice", "bp.a")]
        index = compute_vote_index(T0)
        w1 = compute_vote_weight(10 * EOS, index)
        w2 = compute_vote_weight(20 * EOS, index)
        # piecewise integral over the two equal-length segments
        expected = (w1 * 10 * DAY + w2 * 10 * DAY) / (20 * DAY)
        assert avg_weight == pytest.approx(expected, rel=1e-12)
        assert placements == 1

    def test_proxy_delegator_edges(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "proxyone").regproxy("proxyone")
        b.newaccount("genesis", "alice").delegate("alice", 5 * EOS)
        b.vote_proxy("alice", "proxyone", ts=T0 + 100)
        b.vote("proxyone", ["bp.a"], ts=T0 + 200)
        graph = build_voting_network(b.build(), end_time=T0 + 200 + DAY)
        # the delegator gets its own edge, weighted by its own stake at the
        # proxy's vote index; the proxy, with no stake, adds weight 0
        w = compute_vote_weight(5 * EOS, compute_vote_index(T0 + 200))
        assert received(graph)["bp.a"] == (pytest.approx(2 * DAY), pytest.approx(w))
        assert graph.shared.tolist() == [[2]]  # the proxy and its delegator

    def test_self_vote_excluded(self):
        b = TraceBuilder()
        b.newaccount("genesis", "bp.a")
        b.regproducer("bp.a").delegate("bp.a", EOS)
        b.vote("bp.a", ["bp.a"], ts=T0 + 100)
        graph = build_voting_network(b.build())
        assert graph.candidates == [] and graph.shared.shape == (0, 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_actions=st.integers(0, 250),
           extra_days=st.integers(0, 30))
    def test_matches_oracle_on_random_traces(self, seed, n_actions, extra_days):
        trace = random_trace(seed, n_actions=n_actions, n_accounts=20,
                             n_candidates=5, n_proxies=3)
        assert_matches_both_oracles(trace, trace[-1].timestamp + extra_days * DAY)


class TestColumnBuilder:
    @settings(max_examples=200, deadline=None)
    @given(case=voting_traces())
    def test_matches_incremental_builder_bit_for_bit(self, case):
        trace, end_time = case
        assert_matches_both_oracles(trace, end_time)

    def test_matches_incremental_builder_under_hash_seed(self, tmp_path):
        """The property above in a process whose sets of names iterate in
        another order."""
        run_under_hash_seed("1", "import test_gangs; test_gangs.TestColumnBuilder()"
                                 ".test_matches_incremental_builder_bit_for_bit()", tmp_path)

    def test_no_edges(self):
        b = TraceBuilder().newaccount("genesis", "bpa").regproducer("bpa")
        b.delegate("bpa", EOS).vote("bpa", ["bpa"])
        b.newaccount("genesis", "alice").vote("alice", [])
        for trace in ([], b.build()):
            graph = build_voting_network(trace)
            assert_same_graph(graph, candidate_graph(trace_graph(trace)))
            assert len(graph.src) == 0 and graph.candidates == []

    @pytest.mark.parametrize("chunk", [8, 24, 4096])
    def test_chunks_of_vote_sets_give_the_same_graph(self, chunk, monkeypatch):
        """The incidence table is filled in chunks of vote sets: several, the
        last one short, or one."""
        trace = random_trace(3, n_actions=1500, n_accounts=60, n_candidates=12)
        log = VoteLog()
        state, _ = replay(trace, [log])
        assert len(log.vote_sets) % 8 and len(log.vote_sets) > 10 * 24
        monkeypatch.setattr(gangs, "_CHUNK", chunk)
        assert_same_graph(voting_network(log, state.end_time),
                          candidate_graph(trace_graph(trace, state.end_time)))

    def test_default_graph_columns_keep_their_dtypes_and_shapes(self):
        """The columns are named by dtype name; each default graph makes its
        own empty arrays of those dtypes."""
        graph, other = VotingGraph(), VotingGraph()
        assert graph.candidates == []
        for name in GRAPH_FIELDS:
            column = getattr(graph, name)
            assert isinstance(column, np.ndarray), name
            want = np.int64 if name in ("src", "dst", "placements", "shared") else np.float64
            assert column.dtype == want, name
            assert column.shape == ((0, 0) if name == "shared" else (0,)), name
            assert column is not getattr(other, name), name

    def test_from_edges_numbers_nodes_in_name_order(self):
        # neither order lists the names in name order; the sums of these
        # integral values are exact, so the edge order cannot change them
        pairs = [("vt.b", "bp.c"), ("bp.c", "bp.a"), ("vt.a", "bp.a"),
                 ("bp.a", "bp.c"), ("bp.b", "bp.b"), ("bp.b", "bp.a"),
                 ("bp.a", "bp.b")]
        stats = {pair: EdgeStats(placements=i + 1, duration=float(DAY * (i + 2)),
                                 weight_integral=float(DAY * (i + 2) * (i + 3)),
                                 last_weight=float(i))
                 for i, pair in enumerate(pairs)}
        graphs = [voting_graph({pair: stats[pair] for pair in order},
                               {"bp.a", "bp.b", "bp.c"})
                  for order in (pairs, pairs[::-1])]
        for graph in graphs:
            assert graph.nodes == sorted(graph.nodes)
        # the reductions of the graphs without their self-loop, which a trace
        # never has
        reduced = [candidate_graph(voting_graph(
                       {(a, b): stats[(a, b)] for a, b in order if a != b},
                       {"bp.a", "bp.b", "bp.c"}))
                   for order in (pairs, pairs[::-1])]
        for graph in reduced:
            assert graph.candidates == ["bp.a", "bp.b", "bp.c"]
        assert egonet_features(reduced[0]) == egonet_features(reduced[1])
        weighted = [weighted_edges(reconstruct_weighted_network(graph, ["bp.a"]))
                    for graph in reduced]
        assert weighted[0] and weighted[0] == weighted[1]

    def test_graph_holds_no_object_per_edge(self):
        # One GC-tracked object per edge makes every full collection walk the
        # whole network; the columns keep it out of the collector's view.
        rng = random.Random(5)
        b = TraceBuilder()
        candidates = [f"bp{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(30)]
        for name in candidates:
            b.regproducer(name)
        for i in range(2500):
            name = f"vt{chr(97 + i // 676)}{chr(97 + i // 26 % 26)}{chr(97 + i % 26)}"
            b.newaccount("genesis", name).delegate(name, rng.randint(1, 100) * EOS)
            b.vote(name, rng.sample(candidates, rng.randint(4, 8)))
        trace = b.build()
        build_voting_network(trace[:300])  # first-use imports and caches
        gc.collect()
        before = len(gc.get_objects())
        build_voting_network(trace)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert len(incremental_voting_network(trace, trace[-1].timestamp)) >= 10_000
        assert grown < 100

    # The numpy temporaries of finish() and of egonet_features take at most
    # the memory of the six edge columns of the voter-level graph: 48 bytes
    # per edge of the oracle's network.
    def test_finish_transient_memory_at_most_its_graph(self, logged_ledger):
        log, end_time, n_edges = logged_ledger
        graph = _within_its_result(lambda: voting_network(log, end_time), 48 * n_edges)
        assert n_edges >= 20_000 and len(graph.candidates) >= 60

    def test_egonet_transient_memory_at_most_the_graph(self, logged_ledger):
        log, end_time, n_edges = logged_ledger
        graph = voting_network(log, end_time)
        feats = _within_its_result(lambda: egonet_features(graph), 48 * n_edges)
        assert len(feats) >= 60


def assert_logs_no_dead_row(log):
    """Each row outside a direct vote backs someone, or follows a row of its
    source that did: any other row would open and close no edge."""
    nobody = log.vote_sets.get(())
    backed = {}
    for row, (src, votes, mark) in enumerate(zip(log.src, log.votes, log.direct)):
        assert mark or votes != nobody or backed.get(src), row
        backed[src] = votes != nobody


class TestVoteLog:
    def test_logs_no_dead_row(self, logged_ledger):
        log, _, _ = logged_ledger
        assert_logs_no_dead_row(log)
        assert len(log.src) >= 1000

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_actions=st.integers(0, 250))
    def test_logs_no_dead_row_on_random_traces(self, seed, n_actions):
        log = VoteLog()
        replay(random_trace(seed, n_actions=n_actions, n_accounts=20, n_candidates=5,
                            n_proxies=3), [log])
        assert_logs_no_dead_row(log)


@pytest.fixture(scope="module")
def logged_ledger():
    """The VoteLog of a fixed generated ledger, the ledger's end time, and
    the number of edges of its voter-level network."""
    trace, _, _ = generate_ledger(GenConfig(
        seed=3, n_accounts=2000, n_candidates=60, n_proxies=20,
        duration_days=30, participation_rate=0.5,
        plants=[PlantSpec(kind="near_clique", size=6)]))
    log = VoteLog()
    state, _ = replay(trace, [log])
    return (log, state.end_time,
            len(incremental_voting_network(trace, state.end_time)))


def _within_its_result(make, limit):
    """make(), checking under tracemalloc that its peak beyond the memory
    its result holds is no more than limit."""
    tracemalloc.start()
    try:
        result = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= limit, (limit, peak - held)
    return result


def star_clique_graph(n_stars=60, star_size=6, clique_size=8):
    """Synthetic graph, reduced to its candidates, of voter-stars onto single
    candidates plus one mutual-voting clique among candidates."""
    edges, candidates = {}, set()
    stats = lambda: EdgeStats(placements=1, duration=float(DAY),
                              weight_integral=float(DAY), last_weight=1.0)
    for s in range(n_stars):
        center = f"cand{s:03d}"
        candidates.add(center)
        for leaf in range(star_size):
            edges[(f"vt{s:03d}{chr(97 + leaf)}", center)] = stats()
    clique = [f"gang{i:02d}" for i in range(clique_size)]
    candidates.update(clique)
    for a in clique:
        for b in clique:
            if a != b:
                edges[(a, b)] = stats()
    return candidate_graph(voting_graph(edges, candidates)), clique


NODES = [f"n{i}" for i in range(7)]
node_names = st.sampled_from(NODES)


@st.composite
def edge_tables(draw, trace_like=False):
    """Voter-level graphs on a few names: any directed pairs, some mirrored
    into reciprocal pairs, self-loops included, and any candidate set. With
    trace_like, only the pairs a trace can give: no self-loop, and every edge
    ends at a candidate."""
    pairs = draw(st.lists(st.tuples(node_names, node_names, st.booleans()),
                          max_size=30))
    candidates = draw(st.sets(node_names))
    edges = {}
    for a, b, mirrored in pairs:
        for pair in [(a, b), (b, a)][:1 + mirrored]:
            if not trace_like or (pair[0] != pair[1] and pair[1] in candidates):
                edges[pair] = EdgeStats(placements=1)
    return voting_graph(edges, candidates)


class TestEgonets:
    def test_star_center(self):
        graph, _ = star_clique_graph(n_stars=1, clique_size=0)
        feats = {f.node: f for f in egonet_features(graph)}
        assert feats["cand000"].neighbors == 6
        assert feats["cand000"].edges == 6

    def test_clique_member(self):
        graph, clique = star_clique_graph(n_stars=0, clique_size=8)
        feats = {f.node: f for f in egonet_features(graph)}
        assert feats["gang00"].neighbors == 7
        assert feats["gang00"].edges == 8 * 7 // 2

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce_on_random_graph(self, seed):
        # candidates n00..n29, each voted for by a few of the voters n30..n39
        rng = random.Random(seed)
        g = nx.gnp_random_graph(40, 0.12, seed=seed)
        graph = voting_graph(
            {(f"n{max(a, b):02d}", f"n{min(a, b):02d}"): EdgeStats(placements=1)
             for a, b in g.edges if min(a, b) < 30},
            {f"n{i:02d}" for i in range(30)})
        simple = undirected_view(graph)
        feats = egonet_features(candidate_graph(graph))
        assert [f.node for f in feats] == sorted(graph.candidates & set(simple))
        for f in feats:
            assert (f.neighbors, f.edges) == brute_egonet(simple, f.node)

    @settings(max_examples=300, deadline=None)
    @given(graph=edge_tables(), every_node=st.booleans())
    def test_matches_bruteforce_on_random_edge_tables(self, graph, every_node):
        view = undirected_view(graph)
        scope = NODES if every_node else None
        feats = ref_egonet_features(graph, scope)
        assert [f.node for f in feats] == sorted(
            set(scope or graph.candidates) & set(view.nodes))
        for f in feats:
            assert (f.neighbors, f.edges) == brute_egonet(view, f.node)
        # ids follow name order, and a looped node lists itself
        index = NodeIndex.of(graph)
        for i, node in enumerate(graph.nodes):
            assert [graph.nodes[j] for j in index.neighbors(i)] \
                == sorted(view.neighbors(node)), node

    @settings(max_examples=300, deadline=None)
    @given(graph=edge_tables(trace_like=True))
    def test_candidate_tables_match_bruteforce(self, graph):
        assert egonet_features(candidate_graph(graph)) == ref_egonet_features(graph)
        view = undirected_view(graph)
        for f in ref_egonet_features(graph):
            assert (f.neighbors, f.edges) == brute_egonet(view, f.node)

    def test_self_loop_counts_as_networkx_does(self):
        graph = voting_graph(
            {pair: EdgeStats(placements=1)
             for pair in (("a", "a"), ("a", "b"), ("b", "b"), ("b", "c"))}, {"a"})
        (feat,) = ref_egonet_features(graph)
        # the ego is its own neighbour; the egonet {a, b} has a-b and two loops
        assert (feat.neighbors, feat.edges) == (2, 3)

    def test_directed_pair_collapses_to_one_edge(self):
        graph = candidate_graph(voting_graph(
            {("a", "b"): EdgeStats(placements=1), ("b", "a"): EdgeStats(placements=1)},
            {"a", "b"}))
        feats = {f.node: f for f in egonet_features(graph)}
        assert feats["a"].neighbors == 1 and feats["a"].edges == 1

    @pytest.mark.parametrize("pairs, message", [
        ((("alice", "bpa"), ("bpa", "vtb")),
         r"edge 1 \(bpa -> vtb\) ends at a non-candidate"),
        ((("alice", "bpa"), ("bpa", "bpa")), r"edge 1 \(bpa -> bpa\) is a self-loop"),
    ], ids=["non_candidate_end", "self_loop"])
    def test_graph_breaking_a_trace_property_raises(self, pairs, message):
        graph = voting_graph({pair: EdgeStats(placements=1) for pair in pairs}, {"bpa"})
        with pytest.raises(GangError, match=message):
            candidate_graph(graph)

    # Random action soups, where only non-candidates vote; traces where
    # candidates vote too; and small generated ledgers whose planted near
    # clique gives the reconstruction candidate-to-candidate edges.
    @settings(max_examples=150, deadline=None)
    @given(case=st.one_of(
        st.builds(lambda seed, n: (random_trace(seed, n_actions=n, n_accounts=40,
                                                n_candidates=12, n_proxies=4), None),
                  st.integers(0, 2**32 - 1), st.integers(0, 400)),
        voting_traces(),
        st.builds(lambda seed: (generate_ledger(GenConfig(
            seed=seed, n_accounts=100, n_candidates=21, n_proxies=3, duration_days=10,
            participation_rate=0.3, rounds_per_day=1,
            plants=[PlantSpec(kind="near_clique", size=5)]))[0], None),
            st.integers(0, 2**32 - 1))))
    def test_trace_graphs_match_the_oracle(self, case):
        trace, end_time = case
        graph = build_voting_network(trace, end_time=end_time)
        voters = trace_graph(trace, end_time)
        assert_same_graph(graph, candidate_graph(voters))
        feats = egonet_features(graph)
        assert feats == ref_egonet_features(voters)
        try:
            fit = fit_edpl(feats)
        except GangError as exc:
            with pytest.raises(GangError) as raised:
                run_pipeline(graph, seed=0)
            assert str(raised.value) == str(exc)
            return
        report = run_pipeline(graph, seed=0)
        scores = outlierness(feats, fit)
        anomalies = select_anomalies(feats, fit, scores)
        assert (report.fit, report.scores, report.anomalies) == (fit, scores, anomalies)
        if not anomalies:
            return
        kept = ref_kept_nodes(voters, anomalies)
        edges = edge_table(voters)
        expected = {a: {b: brute_intensity(voters, a, b) + brute_intensity(voters, b, a)
                        for b in kept if (a, b) in edges or (b, a) in edges}
                    for a in kept}
        weighted = reconstruct_weighted_network(graph, anomalies)
        assert list(weighted) == kept and weighted == expected
        gangs = detect_gangs(expected, seed=0)
        assert (report.communities, report.modularity, report.pruned) \
            == (gangs.communities, gangs.modularity, gangs.pruned)


class TestFitAndScores:
    def test_exact_powerlaw_recovered(self):
        feats = [EgonetFeature(f"n{n:02d}", n, 1.2 * n ** 1.5)
                 for n in range(2, 40)]
        fit = fit_edpl(feats)
        assert fit.coefficient == pytest.approx(1.2, abs=1e-6)
        assert fit.alpha == pytest.approx(1.5, abs=1e-6)

    def test_too_few_points(self):
        feats = [EgonetFeature(f"n{n}", n, n) for n in range(2, 8)]
        with pytest.raises(GangError, match="at least 10"):
            fit_edpl(feats)

    def test_single_neighbor_nodes_excluded_from_fit(self):
        feats = [EgonetFeature(f"n{n:02d}", n, 2.0 * n) for n in range(2, 20)]
        noisy = feats + [EgonetFeature("pend", 1, 500)]
        fit = fit_edpl(noisy)
        assert fit.alpha == pytest.approx(1.0, abs=1e-6)
        assert fit.coefficient == pytest.approx(2.0, abs=1e-6)

    def test_on_line_scores_zero(self):
        feats = [EgonetFeature(f"n{n:02d}", n, 3.0 * n) for n in range(2, 20)]
        fit = fit_edpl(feats)
        scores = outlierness(feats, fit)
        assert all(abs(s) < 1e-9 for s in scores.values())

    def test_score_formula_example(self):
        feats = [EgonetFeature(f"n{n:02d}", n, float(n)) for n in range(2, 20)]
        fit = fit_edpl(feats)  # identity line
        outlier = EgonetFeature("deviant", 10, 20.0)  # expected 10, observed 20
        score = outlierness([outlier], fit)["deviant"]
        assert score == pytest.approx(2.0 * math.log(11.0), rel=1e-9)

    def test_log_base_is_rank_invariant(self):
        graph, _ = star_clique_graph()
        feats = egonet_features(graph)
        fit = fit_edpl(feats)
        nat = outlierness(feats, fit, log_base=math.e)
        ten = outlierness(feats, fit, log_base=10.0)
        order = lambda scores: sorted(scores, key=lambda n: (-scores[n], n))
        assert order(nat) == order(ten)

    def test_select_top_above_line(self):
        graph, clique = star_clique_graph(n_stars=60, clique_size=8)
        feats = egonet_features(graph)
        fit = fit_edpl(feats)
        scores = outlierness(feats, fit)
        anomalies = select_anomalies(feats, fit, scores, pct=0.15)
        assert set(clique) <= set(anomalies)
        assert len(anomalies) == math.ceil(0.15 * len(scores))

    def test_bad_pct(self):
        with pytest.raises(GangError):
            select_anomalies([], None, {}, pct=0.0)


class TestReconstruction:
    def test_share_normalizations_sum_to_one(self):
        # each candidate's totals are over all its in-edges, voters' included,
        # and its placements over its out-edges, all between candidates, of
        # which the planted near clique gives some
        trace, _, _ = generate_ledger(GenConfig(
            seed=4, n_accounts=160, n_candidates=22, n_proxies=3,
            duration_days=30, participation_rate=0.3, rounds_per_day=1,
            plants=[PlantSpec(kind="near_clique", size=6)]))
        graph = build_voting_network(trace)
        ids = {name: i for i, name in enumerate(graph.candidates)}
        out_f, in_t, in_p = {}, {}, {}
        for (src, dst), stats in edge_table(trace_graph(trace)).items():
            if src in ids:
                out_f.setdefault(src, []).append(stats.placements)
            in_t.setdefault(dst, []).append(stats.duration)
            in_p.setdefault(dst, []).append(stats.avg_weight)
        placed = np.bincount(graph.src, graph.placements, len(ids))
        assert out_f and in_t
        for shares, totals in ((out_f, placed), (in_t, graph.received_duration),
                               (in_p, graph.received_weight)):
            for node, values in shares.items():
                total = totals[ids[node]]
                if total > 0:
                    assert sum(v / total for v in values) == pytest.approx(
                        1.0, abs=1e-9), node

    def test_edge_weight_matches_intensity_oracle(self):
        # the planted near clique makes candidates vote for each other, so
        # the reconstruction has candidate-to-candidate edges to weigh
        trace, _, truth = generate_ledger(GenConfig(
            seed=3, n_accounts=160, n_candidates=22, n_proxies=3,
            duration_days=30, participation_rate=0.3, rounds_per_day=1,
            plants=[PlantSpec(kind="near_clique", size=6)]))
        voters = trace_graph(trace)
        weighted = reconstruct_weighted_network(build_voting_network(trace),
                                                truth["plants"][0]["members"])
        assert len(weighted_edges(weighted)) > 0
        for a, b, weight in weighted_edges(weighted):
            expected = brute_intensity(voters, a, b) + brute_intensity(voters, b, a)
            assert weight == expected, (a, b)

    def test_kept_nodes_limited_to_candidate_egonets(self):
        graph, clique = star_clique_graph(n_stars=10, clique_size=6)
        weighted = reconstruct_weighted_network(graph, [clique[0]])
        # voters are not candidates and never enter the reconstruction
        assert set(weighted) == set(clique)

    @settings(max_examples=200, deadline=None)
    @given(graph=edge_tables(trace_like=True),
           anomalies=st.lists(node_names, min_size=1, max_size=3))
    def test_kept_nodes_match_networkx_egonets(self, graph, anomalies):
        # anomalies are candidates; a name that is not one is passed over
        view = undirected_view(graph)
        expected = set()
        for node in anomalies:
            if node in view and node in graph.candidates:
                expected |= {node, *view.neighbors(node)}
        weighted = reconstruct_weighted_network(candidate_graph(graph), anomalies)
        assert set(weighted) == expected & graph.candidates

    def test_empty_anomalies_error(self):
        graph, _ = star_clique_graph()
        with pytest.raises(GangError, match="empty anomaly set"):
            reconstruct_weighted_network(graph, [])


class TestCommunities:
    def test_triangle_with_pendant(self):
        g = nx.Graph()
        g.add_weighted_edges_from([("a", "b", 1.0), ("b", "c", 1.0),
                                   ("a", "c", 1.0), ("a", "d", 0.1)])
        report = detect_gangs(adjacency(g), seed=0)
        assert report.pruned == ["d"]
        assert frozenset({"a", "b", "c"}) in report.communities
        assert all("d" not in c for c in report.communities)

    def test_two_cliques_split(self):
        g = nx.Graph()
        left = [f"l{i}" for i in range(5)]
        right = [f"r{i}" for i in range(5)]
        for group in (left, right):
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    g.add_edge(a, b, weight=1.0)
        g.add_edge("l0", "r0", weight=0.01)
        report = detect_gangs(adjacency(g), seed=0)
        assert frozenset(left) in report.communities
        assert frozenset(right) in report.communities
        assert report.modularity > 0.3

    @pytest.mark.parametrize("seed", range(8))
    def test_modularity_matches_networkx(self, seed):
        rng = random.Random(seed)
        g = nx.relabel_nodes(nx.gnp_random_graph(40, 0.15, seed=seed),
                             lambda i: f"n{i:02d}")
        if seed % 2:
            g.add_edge("n00", "n00")
        for a, b in g.edges:
            g[a][b]["weight"] = rng.random() * rng.choice([1e-3, 1.0, 1e3])
        report = detect_gangs(adjacency(g), seed=seed)
        partition = nx.community.louvain_communities(
            g, weight="weight", resolution=1.0, seed=seed)
        expected = nx.community.modularity(g, partition, weight="weight")
        assert abs(report.modularity - expected) <= 1e-12

    def test_deterministic_given_seed(self):
        g = nx.gnp_random_graph(60, 0.1, seed=2)
        nx.set_edge_attributes(g, 1.0, "weight")
        r1 = detect_gangs(adjacency(g), seed=5)
        r2 = detect_gangs(adjacency(g), seed=5)
        assert r1.communities == r2.communities
        assert r1.modularity == r2.modularity


@st.composite
def weighted_graphs(draw):
    """A networkx graph built from one drawn edge list in one order. Some
    nodes are added first, in a drawn order, and may stay isolated; the
    edges may be self-loops, tie their weights, or add a pair again, which
    re-weighs it in place. The list may be empty."""
    names = draw(st.permutations([f"n{i:02d}" for i in range(draw(st.integers(1, 12)))]))
    weights = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(1e-3, 1e3)
    edges = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names),
                                    weights), max_size=40))
    g = nx.Graph()
    g.add_nodes_from(names[:draw(st.integers(1, len(names)))])
    for a, b, weight in edges:
        g.add_edge(a, b, weight=weight)
    return g


def random_weighted_graph(seed, rng):
    """A random graph large enough that Louvain aggregates, with weights
    drawn from rng over six orders of magnitude."""
    g = nx.relabel_nodes(nx.gnp_random_graph(60, 0.08, seed=seed), lambda i: f"n{i:02d}")
    for a, b in g.edges:
        g[a][b]["weight"] = rng.random() * rng.choice([1e-3, 1.0, 1e3])
    return g


def louvain_results(seeds) -> list:
    """Per seed, a random weighted graph's Louvain partition, as sorted
    lists, and the repr of its plain modularity."""
    results = []
    for seed in seeds:
        weighted = adjacency(random_weighted_graph(seed, random.Random(seed)))
        partition = louvain_communities(weighted, seed)
        results.append((sorted(map(sorted, partition)),
                        repr(_modularity(weighted, partition))))
    return results


class TestLouvainPort:
    @settings(max_examples=300, deadline=None)
    @given(g=weighted_graphs(), seed=st.integers(0, 9))
    def test_matches_networkx(self, g, seed):
        weighted = adjacency(g)
        expected = nx.community.louvain_communities(
            g, weight="weight", resolution=1.0, seed=seed)
        assert louvain_communities(weighted, seed) == expected
        report = detect_gangs(weighted, seed)
        pruned = sorted(n for n in g if g.degree(n) == 1)
        assert report.pruned == pruned
        kept = [frozenset(c.difference(pruned)) for c in expected]
        assert report.communities == sorted((c for c in kept if len(c) >= 2), key=sorted)
        if g.number_of_edges():
            assert abs(report.modularity
                       - nx.community.modularity(g, expected, weight="weight")) <= 1e-12
        else:
            assert report.modularity == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_networkx_over_several_levels(self, seed):
        # graphs large enough that Louvain aggregates at least once, so the
        # later levels' shuffles and sums are compared too
        rng = random.Random(seed)
        g = random_weighted_graph(seed, rng)
        g.add_edge("n00", "n00", weight=rng.random())
        assert len(list(nx.community.louvain_partitions(g, seed=seed))) >= 2
        assert louvain_communities(adjacency(g), seed) \
            == nx.community.louvain_communities(g, seed=seed)

    def test_sums_add_left_to_right(self, tmp_path):
        """The partitions and their plain modularity keep their bits in a
        process whose builtins.sum is a Neumaier sum from the start, as sum()
        is from Python 3.12 on; these graphs' modularity moves with it."""
        src = str(Path(gangs.__file__).parents[1])
        env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.pathsep.join(
            filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))}
        probe = ("import builtins, sys\n"
                 "from sums import neumaier_sum\n"
                 "if sys.argv[1] == 'neumaier':\n"
                 "    builtins.sum = neumaier_sum\n"
                 "import test_gangs\n"
                 "print(test_gangs.louvain_results(range(1, 5)))\n")
        out = [subprocess.run([sys.executable, "-c", probe, run], env=env, cwd=tmp_path,
                              check=True, capture_output=True, text=True).stdout
               for run in ("plain", "neumaier")]
        assert out[0] and out[0] == out[1]

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_matches_networkx_under_hash_seed(self, hash_seed, tmp_path):
        """The first level's communities are sets of names, whose order
        follows the string hash; the port must match under each hash seed."""
        run_under_hash_seed(
            hash_seed, "import test_gangs; test_gangs.TestLouvainPort().test_matches_networkx()",
            tmp_path)


class TestModularity:
    @settings(max_examples=300, deadline=None)
    @given(g=weighted_graphs().filter(nx.number_of_edges), seed=st.integers(0, 9),
           rng=st.randoms(use_true_random=False))
    def test_both_sums_bit_for_bit(self, g, seed, rng):
        """Louvain's plain sums are networkx's, to the bit; the report's fsum
        does not depend on the order of the communities or of their members."""
        weighted = adjacency(g)
        partition = louvain_communities(weighted, seed)
        assert _modularity(weighted, partition) == \
            nx.community.modularity(g, partition, weight="weight")
        shuffled = [set(rng.sample(sorted(c), len(c)))
                    for c in rng.sample(partition, len(partition))]
        assert detect_gangs(weighted, seed).modularity == \
            _modularity(weighted, shuffled, math.fsum)


class TestPipeline:
    def test_recovers_planted_clique(self):
        graph, clique = star_clique_graph(n_stars=80, star_size=5, clique_size=9)
        feats = egonet_features(graph)
        fit = fit_edpl(feats)
        scores = outlierness(feats, fit)
        anomalies = select_anomalies(feats, fit, scores, pct=0.15)
        weighted = reconstruct_weighted_network(graph, anomalies)
        report = detect_gangs(weighted, seed=0)
        assert any(set(clique) <= c for c in report.communities)

    def test_run_pipeline_on_trace(self):
        trace = random_trace(8, n_actions=2000, n_accounts=80, n_candidates=25)
        report = run_pipeline(build_voting_network(trace), outlier_pct=0.2, seed=0)
        assert report.fit is not None
        for c in report.communities:
            assert len(c) >= 2

    def test_no_above_line_nodes_gives_empty_report(self):
        trace = random_trace(8, n_actions=2000, n_accounts=80, n_candidates=25)
        report = run_pipeline(build_voting_network(trace), outlier_pct=0.2, seed=0)
        if not report.anomalies:
            assert report.communities == [] and report.modularity == 0.0
