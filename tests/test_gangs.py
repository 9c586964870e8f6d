import gc
import math
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dposforensics.gangs import (
    EdgeStats,
    EgonetFeature,
    GangError,
    NetworkBuilder,
    NodeIndex,
    VotingGraph,
    build_voting_network,
    detect_gangs,
    egonet_features,
    fit_edpl,
    outlierness,
    reconstruct_weighted_network,
    run_pipeline,
    select_anomalies,
)
from dposforensics.model import compute_vote_index, compute_vote_weight
from dposforensics.replay import replay
from dposforensics.synth import GenConfig, PlantSpec, generate_ledger

from conftest import T0, DAY, TraceBuilder, random_trace
from oracles import (
    brute_egonet,
    brute_intensity,
    brute_voting_network,
    incremental_voting_network,
    undirected_view,
)

EOS = 10_000


class TestEdgeStats:
    def test_single_standing_vote(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "alice").delegate("alice", 10 * EOS)
        b.vote("alice", ["bp.a"], ts=T0 + 100)
        graph = build_voting_network(b.build(), end_time=T0 + 100 + 100 * DAY)
        stats = graph.edges[("alice", "bp.a")]
        w = compute_vote_weight(10 * EOS, compute_vote_index(T0 + 100))
        assert stats.placements == 1
        assert stats.duration == pytest.approx(100 * DAY)
        assert stats.avg_weight == pytest.approx(w)

    def test_replacement_counts_again(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "alice").delegate("alice", 10 * EOS)
        b.vote("alice", ["bp.a"], ts=T0 + 0)
        b.vote("alice", ["bp.a"], ts=T0 + 10 * DAY)
        graph = build_voting_network(b.build(), end_time=T0 + 15 * DAY)
        stats = graph.edges[("alice", "bp.a")]
        assert stats.placements == 2
        assert stats.duration == pytest.approx(15 * DAY)

    def test_switch_closes_old_edge(self):
        b = TraceBuilder()
        b.regproducer("bp.a").regproducer("bp.b")
        b.newaccount("genesis", "alice").delegate("alice", 10 * EOS)
        b.vote("alice", ["bp.a"], ts=T0)
        b.vote("alice", ["bp.b"], ts=T0 + 4 * DAY)
        graph = build_voting_network(b.build(), end_time=T0 + 10 * DAY)
        assert graph.edges[("alice", "bp.a")].duration == pytest.approx(4 * DAY)
        assert graph.edges[("alice", "bp.b")].duration == pytest.approx(6 * DAY)

    def test_time_weighted_average_on_stake_change(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "alice").delegate("alice", 10 * EOS)
        b.vote("alice", ["bp.a"], ts=T0)
        b.delegate("alice", 10 * EOS, ts=T0 + 10 * DAY)  # stake doubles
        graph = build_voting_network(b.build(), end_time=T0 + 20 * DAY)
        stats = graph.edges[("alice", "bp.a")]
        index = compute_vote_index(T0)
        w1 = compute_vote_weight(10 * EOS, index)
        w2 = compute_vote_weight(20 * EOS, index)
        # piecewise integral over the two equal-length segments
        expected = (w1 * 10 * DAY + w2 * 10 * DAY) / (20 * DAY)
        assert stats.avg_weight == pytest.approx(expected, rel=1e-12)
        assert stats.placements == 1

    def test_proxy_delegator_edges(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "proxyone").regproxy("proxyone")
        b.newaccount("genesis", "alice").delegate("alice", 5 * EOS)
        b.vote_proxy("alice", "proxyone", ts=T0 + 100)
        b.vote("proxyone", ["bp.a"], ts=T0 + 200)
        graph = build_voting_network(b.build(), end_time=T0 + 200 + DAY)
        # the delegator gets its own edge, weighted by its own stake at the
        # proxy's vote index
        stats = graph.edges[("alice", "bp.a")]
        w = compute_vote_weight(5 * EOS, compute_vote_index(T0 + 200))
        assert stats.avg_weight == pytest.approx(w)
        assert ("proxyone", "bp.a") in graph.edges

    def test_self_vote_excluded(self):
        b = TraceBuilder()
        b.newaccount("genesis", "bp.a")
        b.regproducer("bp.a").delegate("bp.a", EOS)
        b.vote("bp.a", ["bp.a"], ts=T0 + 100)
        graph = build_voting_network(b.build())
        assert ("bp.a", "bp.a") not in graph.edges

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_actions=st.integers(0, 250),
           extra_days=st.integers(0, 30))
    def test_matches_oracle_on_random_traces(self, seed, n_actions, extra_days):
        trace = random_trace(seed, n_actions=n_actions, n_accounts=20,
                             n_candidates=5, n_proxies=3)
        end_time = trace[-1].timestamp + extra_days * DAY
        graph = build_voting_network(trace, end_time=end_time)
        expected = brute_voting_network(trace, end_time)
        assert list(graph.edges) == list(expected)
        for key, stats in graph.edges.items():
            want = expected[key]
            assert (stats.placements, stats.last_weight, stats.duration) == (
                want.placements, want.last_weight, want.duration), key
            assert stats.weight_integral == pytest.approx(
                want.weight_integral, rel=1e-12), key


CANDIDATES = ["bpa", "bpb", "bpc", "bpd"]
PROXIES = ["poola", "poolb"]
VOTERS = ["alice", "bob", "carol", "dave"]


@st.composite
def voting_traces(draw):
    """Traces in which candidates vote too (for themselves among others),
    voters move between direct votes, proxies and no votes, proxies
    deregister, stakes change, and actions share timestamps; plus an end time
    at or after the last action."""
    b = TraceBuilder()
    for name in CANDIDATES + PROXIES + VOTERS:
        b.newaccount("genesis", name).delegate(name, draw(st.integers(1, 50)) * EOS)
    for name in CANDIDATES:
        b.regproducer(name)
    for name in PROXIES:
        b.regproxy(name)
    everyone = st.sampled_from(CANDIDATES + PROXIES + VOTERS)
    for _ in range(draw(st.integers(0, 40))):
        ts = b.t + draw(st.sampled_from([0, 0, 1, DAY]))
        kind = draw(st.sampled_from(["vote", "vote", "proxy", "stake", "unstake",
                                     "regproxy"]))
        if kind == "vote":
            b.vote(draw(everyone), draw(st.sets(st.sampled_from(CANDIDATES))), ts=ts)
        elif kind == "proxy":
            b.vote_proxy(draw(st.sampled_from(VOTERS + CANDIDATES)),
                         draw(st.sampled_from(PROXIES)), ts=ts)
        elif kind == "stake":
            b.delegate(draw(everyone), draw(st.integers(1, 20)) * EOS, ts=ts)
        elif kind == "unstake":
            b.undelegate(draw(everyone), draw(st.integers(1, 20)) * EOS, ts=ts)
        else:
            b.regproxy(draw(st.sampled_from(PROXIES)), draw(st.booleans()), ts=ts)
    trace = b.build()
    return trace, trace[-1].timestamp + draw(st.sampled_from([0, 1, 3 * DAY]))


class TestColumnBuilder:
    @settings(max_examples=200, deadline=None)
    @given(case=voting_traces())
    def test_matches_incremental_builder_bit_for_bit(self, case):
        trace, end_time = case
        graph = build_voting_network(trace, end_time=end_time)
        assert [c.dtype for c in (graph.src, graph.dst, graph.placements)] \
            == [np.int64] * 3
        assert [c.dtype for c in (graph.duration, graph.weight_integral,
                                  graph.last_weight)] == [np.float64] * 3
        expected = incremental_voting_network(trace, end_time)
        assert list(graph.edges) == list(expected)
        for key, stats in graph.edges.items():
            want = expected[key]
            assert (stats.placements, stats.duration, stats.weight_integral,
                    stats.last_weight) == (want.placements, want.duration,
                                           want.weight_integral, want.last_weight), key

    def test_no_edges(self):
        b = TraceBuilder().newaccount("genesis", "bpa").regproducer("bpa")
        b.delegate("bpa", EOS).vote("bpa", ["bpa"])
        b.newaccount("genesis", "alice").vote("alice", [])
        for trace in ([], b.build()):
            graph = build_voting_network(trace)
            assert len(graph.edges) == 0 and graph.nodes == []

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
        graph = build_voting_network(trace)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert len(graph.edges) >= 10_000
        assert grown < 100

    # The numpy temporaries of finish() and NodeIndex.of, beyond what each
    # returns, take at most as much memory as what it returns.
    def test_finish_transient_memory_at_most_its_graph(self, logged_ledger):
        builder, end_time = logged_ledger
        graph = _within_its_result(lambda: builder.finish(end_time))
        assert len(graph.src) >= 20_000

    def test_node_index_transient_memory_at_most_the_index(self, logged_ledger):
        builder, end_time = logged_ledger
        graph = builder.finish(end_time)
        _within_its_result(lambda: NodeIndex.of(graph))


@pytest.fixture(scope="module")
def logged_ledger():
    """A NetworkBuilder that has logged a fixed generated ledger, and the
    ledger's end time."""
    trace, _, _ = generate_ledger(GenConfig(
        seed=3, n_accounts=2000, n_candidates=60, n_proxies=20,
        duration_days=30, participation_rate=0.5,
        plants=[PlantSpec(kind="near_clique", size=6)]))
    builder = NetworkBuilder()
    state, _ = replay(trace, [builder])
    return builder, state.end_time


def _within_its_result(make):
    """make(), checking under tracemalloc that its peak beyond the memory
    its result holds is no more than that memory."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= held - before, (held - before, peak - held)
    return result


def star_clique_graph(n_stars=60, star_size=6, clique_size=8):
    """Synthetic graph of voter-stars onto single candidates plus one
    mutual-voting clique among candidates."""
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
    return VotingGraph.from_edges(edges, candidates), clique


NODES = [f"n{i}" for i in range(7)]
node_names = st.sampled_from(NODES)


@st.composite
def edge_tables(draw):
    """Voting graphs on a few names: any directed pairs, some mirrored into
    reciprocal pairs, self-loops included, and any candidate set."""
    pairs = draw(st.lists(st.tuples(node_names, node_names, st.booleans()),
                          max_size=30))
    edges = {}
    for a, b, mirrored in pairs:
        edges[(a, b)] = EdgeStats(placements=1)
        if mirrored:
            edges[(b, a)] = EdgeStats(placements=1)
    return VotingGraph.from_edges(edges, draw(st.sets(node_names)))


class TestEgonets:
    def test_star_center(self):
        graph, _ = star_clique_graph(n_stars=1, clique_size=0)
        feats = {f.node: f for f in egonet_features(graph)}
        assert feats["cand000"].neighbors == 6
        assert feats["cand000"].edges == 6

    def test_clique_member(self):
        graph, clique = star_clique_graph(n_stars=0, clique_size=8)
        feats = {f.node: f for f in egonet_features(graph, scope=clique)}
        assert feats["gang00"].neighbors == 7
        assert feats["gang00"].edges == 8 * 7 // 2

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce_on_random_graph(self, seed):
        rng = random.Random(seed)
        g = nx.gnp_random_graph(40, 0.12, seed=seed)
        graph = VotingGraph.from_edges(
            {(f"n{a:02d}", f"n{b:02d}"): EdgeStats(placements=1) for a, b in g.edges},
            {f"n{i:02d}" for i in range(40)})
        simple = undirected_view(graph)
        for f in egonet_features(graph):
            assert (f.neighbors, f.edges) == brute_egonet(simple, f.node)

    @settings(max_examples=300, deadline=None)
    @given(graph=edge_tables(), every_node=st.booleans())
    def test_matches_bruteforce_on_random_edge_tables(self, graph, every_node):
        view = undirected_view(graph)
        scope = NODES if every_node else None
        feats = egonet_features(graph, scope)
        assert [f.node for f in feats] == sorted(
            set(scope or graph.candidates) & set(view.nodes))
        for f in feats:
            assert (f.neighbors, f.edges) == brute_egonet(view, f.node)

    def test_self_loop_counts_as_networkx_does(self):
        graph = VotingGraph.from_edges(
            {pair: EdgeStats(placements=1)
             for pair in (("a", "a"), ("a", "b"), ("b", "b"), ("b", "c"))}, {"a"})
        (feat,) = egonet_features(graph)
        # the ego is its own neighbour; the egonet {a, b} has a-b and two loops
        assert (feat.neighbors, feat.edges) == (2, 3)

    def test_directed_pair_collapses_to_one_edge(self):
        graph = VotingGraph.from_edges(
            {("a", "b"): EdgeStats(placements=1), ("b", "a"): EdgeStats(placements=1)},
            {"a", "b"})
        feats = {f.node: f for f in egonet_features(graph)}
        assert feats["a"].neighbors == 1 and feats["a"].edges == 1


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
    def trace_graph(self, seed=4):
        trace = random_trace(seed, n_actions=600, n_accounts=30, n_candidates=10)
        return build_voting_network(trace)

    def test_share_normalizations_sum_to_one(self):
        graph = self.trace_graph()
        out_f, in_t, in_p = {}, {}, {}
        for (src, dst), stats in graph.edges.items():
            out_f.setdefault(src, []).append(stats.placements)
            in_t.setdefault(dst, []).append(stats.duration)
            in_p.setdefault(dst, []).append(stats.avg_weight)
        for shares in (out_f, in_t, in_p):
            for node, values in shares.items():
                total = sum(values)
                if total > 0:
                    assert sum(v / total for v in values) == pytest.approx(
                        1.0, abs=1e-9)

    def test_edge_weight_matches_intensity_oracle(self):
        # the planted near clique makes candidates vote for each other, so
        # the reconstruction has candidate-to-candidate edges to weigh
        trace, _, truth = generate_ledger(GenConfig(
            seed=3, n_accounts=160, n_candidates=22, n_proxies=3,
            duration_days=30, participation_rate=0.3, rounds_per_day=1,
            plants=[PlantSpec(kind="near_clique", size=6)]))
        graph = build_voting_network(trace)
        weighted = reconstruct_weighted_network(graph,
                                                truth["plants"][0]["members"])
        assert weighted.number_of_edges() > 0
        for a, b, data in weighted.edges(data=True):
            expected = brute_intensity(graph, a, b) + brute_intensity(graph, b, a)
            assert data["weight"] == expected, (a, b)

    def test_kept_nodes_limited_to_candidate_egonets(self):
        graph, clique = star_clique_graph(n_stars=10, clique_size=6)
        weighted = reconstruct_weighted_network(graph, [clique[0]])
        # voters are not candidates and never enter the reconstruction
        assert set(weighted.nodes) == set(clique)

    @settings(max_examples=200, deadline=None)
    @given(graph=edge_tables(), anomalies=st.lists(node_names, min_size=1, max_size=3))
    def test_kept_nodes_match_networkx_egonets(self, graph, anomalies):
        view = undirected_view(graph)
        expected = set()
        for node in anomalies:
            if node in view:
                expected |= {node, *view.neighbors(node)}
        weighted = reconstruct_weighted_network(graph, anomalies)
        assert set(weighted.nodes) == expected & graph.candidates

    def test_empty_anomalies_error(self):
        graph, _ = star_clique_graph()
        with pytest.raises(GangError, match="empty anomaly set"):
            reconstruct_weighted_network(graph, [])


class TestCommunities:
    def test_triangle_with_pendant(self):
        g = nx.Graph()
        g.add_weighted_edges_from([("a", "b", 1.0), ("b", "c", 1.0),
                                   ("a", "c", 1.0), ("a", "d", 0.1)])
        report = detect_gangs(g, seed=0)
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
        report = detect_gangs(g, seed=0)
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
        report = detect_gangs(g, seed=seed)
        partition = nx.community.louvain_communities(
            g, weight="weight", resolution=1.0, seed=seed)
        expected = nx.community.modularity(g, partition, weight="weight")
        assert abs(report.modularity - expected) <= 1e-12

    def test_deterministic_given_seed(self):
        g = nx.gnp_random_graph(60, 0.1, seed=2)
        nx.set_edge_attributes(g, 1.0, "weight")
        r1 = detect_gangs(g, seed=5)
        r2 = detect_gangs(g, seed=5)
        assert r1.communities == r2.communities
        assert r1.modularity == r2.modularity


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
