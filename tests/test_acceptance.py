"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (run with -s to see them) and
enforces its runtime budget.
"""
import hashlib
import json
import math
import random
import statistics
import time

import numpy as np
import pytest
from click.testing import CliRunner

from dposforensics.clustering import (
    cluster_voters,
    creator_concordance,
    sample_voting_records,
    top_stakeholders,
)
from dposforensics.cli import main as cli_main
from dposforensics.gangs import (
    build_voting_network,
    egonet_features,
    fit_edpl,
    outlierness,
    run_pipeline,
    select_anomalies,
)
from dposforensics.metrics import production_entropy
from dposforensics.model import compute_vote_weight
from dposforensics.motifs import (
    DEFAULT_WINDOW,
    VoteEvent,
    detect_eight,
    detect_linear,
    detect_triangular,
)
from dposforensics.replay import replay, replay_with_snapshots
from dposforensics.scoring import pairwise_score
from dposforensics.synth import (
    BLOCKS_PER_ROUND,
    GenConfig,
    PlantSpec,
    generate_block_schedule,
    generate_ledger,
    monthly_sample_times,
)
from dposforensics.clustering import VotingRecord

from conftest import TEST_11_CONFIG, random_trace
from oracles import (
    EdgeStats,
    brute_eight,
    brute_linear,
    brute_triangular,
    candidate_graph,
    component_clusters,
    edge_table,
    motif_key_set,
    recompute_candidate_weights,
    trace_graph,
    voting_graph,
)

T0 = 1_609_459_200
DAY = 86_400


class _Budget:
    def __init__(self, name: str, limit: float):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        status = "FAIL" if exc_type else (
            "PASS" if self.elapsed < self.limit else "FAIL (over budget)")
        print(f"acceptance {self.name}: {status} ({self.elapsed:.2f}s "
              f"of {self.limit:.0f}s budget)")
        if exc_type is None:
            assert self.elapsed < self.limit, \
                f"{self.name} exceeded {self.limit}s budget"


def test_01_weight_formula():
    with _Budget("01 weight formula", 1.0):
        from mpmath import mp, mpf, power
        mp.dps = 50
        rng = random.Random(1)
        for _ in range(1_000):
            stake = rng.randrange(1, 10**12)
            index = rng.randrange(0, 60 * 52) / 52.0
            w = compute_vote_weight(stake, index)
            # linearity in stake (exact: scaling by 2 is lossless)
            assert compute_vote_weight(2 * stake, index) == 2 * w
            # doubling per whole index step
            w_next = compute_vote_weight(stake, index + 1.0)
            assert abs(w_next - 2 * w) <= 1e-12 * w_next
            oracle = float(mpf(stake) * power(2, mpf(index)))
            assert abs(w - oracle) <= 1e-12 * abs(oracle)


def test_02_replay_conservation():
    with _Budget("02 replay conservation", 30.0):
        for seed in range(100):
            trace = random_trace(seed, n_actions=600, n_accounts=50,
                                 n_candidates=10, n_proxies=5)
            state, _ = replay(trace)
            oracle = recompute_candidate_weights(state)
            for cand, weight in state.candidates.items():
                expect = oracle.get(cand, 0.0)
                if weight == expect == 0.0:
                    continue
                assert abs(weight - expect) <= 1e-9 * max(abs(weight), abs(expect))
            digest = hashlib.sha256(state.canonical_json().encode()).hexdigest()
            redo = hashlib.sha256(
                replay(trace)[0].canonical_json().encode()).hexdigest()
            assert digest == redo


def test_03_entropy():
    with _Budget("03 entropy", 1.0):
        uniform = {f"bp{chr(97 + i)}": 600 for i in range(21)}
        assert abs(production_entropy(uniform) - math.log2(21)) <= 1e-9
        rng = random.Random(2)
        for _ in range(200):
            counts = {f"p{i:02d}": rng.randint(1, 10**6)
                      for i in range(rng.randint(1, 40))}
            # power-of-two count scaling leaves every probability bit-identical
            scaled = {k: v * 8 for k, v in counts.items()}
            assert production_entropy(scaled) == production_entropy(counts)
        assert production_entropy({"solo": 777}) == 0.0


def test_04_cluster_oracle_equivalence():
    with _Budget("04 clustering vs component oracle", 10.0):
        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(20, 200)
            pool = [f"cand{i:02d}" for i in range(10)]
            voters = [f"v{i:03d}" for i in range(n)]
            records = {}
            profiles = [pool[:4], pool[3:7], pool[6:], pool[:2], pool[5:8]]
            for v in voters:
                base = rng.choice(profiles)
                sets = []
                for _ in range(3):
                    s = set(base)
                    if rng.random() < 0.4:
                        s.add(rng.choice(pool))
                    if rng.random() < 0.15:
                        s = set()
                    sets.append(frozenset(s))
                records[v] = VotingRecord(v, tuple(sets))
            for theta in (0.5, 0.9, 1.0):
                detected = {c.members for c in cluster_voters(voters, records, theta)}
                assert detected == component_clusters(voters, records, theta)


def test_05_planted_similar_clusters():
    with _Budget("05 planted similar-cluster recovery", 60.0):
        sizes = [3, 5, 7, 9, 10]
        config = GenConfig(
            seed=41, n_accounts=1040, n_candidates=30, n_proxies=3,
            duration_days=60, participation_rate=1.0, proxy_weight_target=0.0,
            rounds_per_day=1,
            plants=[PlantSpec(kind="similar_cluster", size=s, vote_jitter=0.05,
                              shared_creator=True) for s in sizes])
        trace, _, truth = generate_ledger(config)
        background = sum(1 for name in truth["creators"] if name.startswith("vt"))
        assert background >= 1_000
        t_end = config.start_time + config.duration_days * DAY
        times = monthly_sample_times(config.start_time, t_end)
        _, _, snaps = replay_with_snapshots(trace, times)
        voters = top_stakeholders(snaps[-1], 0.05)
        records = sample_voting_records(snaps, voters)
        clusters = cluster_voters(voters, records, 0.9)
        truth_groups = [p["members"] for p in truth["plants"]]
        score = pairwise_score(truth_groups, [sorted(c.members) for c in clusters])
        assert score.f1 >= 0.9, f"pairwise F1 {score.f1:.3f}"
        creators = truth["creators"]
        entries = creator_concordance(clusters, creators)
        flagged = sum(1 for e in entries if e.single_creator)
        assert flagged >= 0.8 * len(truth_groups)


def test_06_motif_bruteforce():
    with _Budget("06 motif brute-force equivalence", 30.0):
        for seed in (0, 1):
            rng = random.Random(seed)
            accounts = [f"acct{i:03d}" for i in range(150)]
            proxies = [f"pxy{i}" for i in range(5)]
            events = []
            for _ in range(800):
                src, dst = rng.sample(accounts, 2)
                via = rng.choice(proxies) if rng.random() < 0.4 else None
                events.append(VoteEvent(src, dst, via,
                                        T0 + rng.randrange(0, 45 * DAY)))
            assert motif_key_set(detect_linear(events)) == \
                brute_linear(events, DEFAULT_WINDOW)
            assert motif_key_set(detect_triangular(events)) == \
                brute_triangular(events, DEFAULT_WINDOW)
            assert motif_key_set(detect_eight(events)) == \
                brute_eight(events, DEFAULT_WINDOW)
        boundary_in = [VoteEvent("a", "b", None, T0),
                       VoteEvent("b", "a", None, T0 + DEFAULT_WINDOW)]
        boundary_out = [VoteEvent("a", "b", None, T0),
                        VoteEvent("b", "a", None, T0 + DEFAULT_WINDOW + 1)]
        assert len(detect_linear(boundary_in)) == 1
        assert detect_linear(boundary_out) == []


def test_07_egonet_outliers():
    with _Budget("07 star-vs-clique outlierness", 10.0):
        rng = random.Random(3)
        edges, candidates = {}, set()
        stats = lambda: EdgeStats(placements=1, duration=1.0,
                                  weight_integral=1.0, last_weight=1.0)
        for s in range(500):
            center = f"cand{s:03d}"
            candidates.add(center)
            for leaf in range(rng.randint(3, 20)):
                edges[(f"vt{s:03d}{chr(97 + leaf)}", center)] = stats()
        clique = [f"gang{i:02d}" for i in range(12)]
        candidates.update(clique)
        for a in clique:
            for b in clique:
                if a != b:
                    edges[(a, b)] = stats()
        graph = candidate_graph(voting_graph(edges, candidates))
        feats = egonet_features(graph)
        fit = fit_edpl(feats)
        scores = outlierness(feats, fit)
        anomalies = select_anomalies(feats, fit, scores, pct=0.10)
        assert set(clique) <= set(anomalies), "clique not fully in top 10%"
        # Score is zero exactly on the fit line
        from dposforensics.gangs import EgonetFeature
        on_line = [EgonetFeature(f"n{n:02d}", n, 2.0 * n) for n in range(2, 20)]
        line_fit = fit_edpl(on_line)
        assert all(abs(s) < 1e-9
                   for s in outlierness(on_line, line_fit).values())
        # Top set is identical regardless of the log base
        ten = outlierness(feats, fit, log_base=10.0)
        assert set(select_anomalies(feats, fit, ten, pct=0.10)) == set(anomalies)


def test_08_intensity_normalization():
    with _Budget("08 intensity share normalization", 10.0):
        for seed in range(5):
            trace = random_trace(seed + 10, n_actions=800, n_accounts=40,
                                 n_candidates=12)
            # the graph's totals: over each candidate's in-edges, voters'
            # included, and its out-edges, all between candidates
            graph = build_voting_network(trace)
            ids = {name: i for i, name in enumerate(graph.candidates)}
            out_f, in_t, in_p = {}, {}, {}
            for (src, dst), stats in edge_table(trace_graph(trace)).items():
                if src in ids:
                    out_f.setdefault(src, []).append(stats.placements)
                in_t.setdefault(dst, []).append(stats.duration)
                in_p.setdefault(dst, []).append(stats.avg_weight)
            placed = np.bincount(graph.src, graph.placements, len(ids))
            for table, totals in ((out_f, placed), (in_t, graph.received_duration),
                                  (in_p, graph.received_weight)):
                for node, values in table.items():
                    total = totals[ids[node]]
                    if total > 0:
                        assert abs(sum(v / total for v in values) - 1.0) <= 1e-9


def test_09_planted_gang_recovery():
    with _Budget("09 planted near-clique recovery", 60.0):
        config = GenConfig(
            seed=17, n_accounts=700, n_candidates=100, n_proxies=3,
            duration_days=60, participation_rate=0.4, proxy_weight_target=0.1,
            rounds_per_day=1,
            plants=[PlantSpec(kind="near_clique", size=8),
                    PlantSpec(kind="near_clique", size=12)])
        trace, _, truth = generate_ledger(config)
        report = run_pipeline(build_voting_network(trace), outlier_pct=0.10, seed=0)
        truth_groups = [p["members"] for p in truth["plants"]]
        detected = [sorted(c) for c in report.communities]
        score = pairwise_score(truth_groups, detected)
        assert score.f1 >= 0.9, f"pairwise F1 {score.f1:.3f}"
        pendants = {p for plant in truth["plants"] for p in plant["pendants"]}
        in_communities = {m for c in report.communities for m in c}
        assert not (pendants & in_communities), "pendant decoys not pruned"


def test_10_block_schedule():
    with _Budget("10 block schedule", 10.0):
        producers = [f"bp{chr(97 + i)}" for i in range(21)]
        headers = generate_block_schedule([producers], 0.0)
        assert len(headers) == 126
        assert all(0.0 <= h.timestamp < 63.0 for h in headers)
        per = {}
        for h in headers:
            per[h.producer] = per.get(h.producer, 0) + 1
        assert set(per.values()) == {6} and len(per) == 21
        rng = random.Random(6)
        n_rounds = 1_000
        skipped = generate_block_schedule([producers] * n_rounds, 0.0,
                                          skip_rate=0.1, rng=rng)
        per_round = [0] * n_rounds
        for h in skipped:
            per_round[(h.height - 1) // BLOCKS_PER_ROUND] += 1
        mean = statistics.fmean(per_round)
        sigma = math.sqrt(126 * 0.1 * 0.9 / n_rounds)
        assert abs(mean - 113.4) <= 3 * sigma, f"mean {mean:.2f}"


def test_11_end_to_end_determinism(tmp_path):
    with _Budget("11 end-to-end determinism", 60.0):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TEST_11_CONFIG))
        runner = CliRunner()
        gen = tmp_path / "gen"
        result = runner.invoke(cli_main, ["generate", "-c", str(config_path),
                                          "-o", str(gen)])
        assert result.exit_code == 0, result.output
        digests = []
        for run in ("run1", "run2"):
            out = tmp_path / run
            result = runner.invoke(cli_main, [
                "all", str(gen / "trace.jsonl"), str(gen / "headers.jsonl"),
                "-o", str(out), "--top-stake-pct", "0.5"])
            assert result.exit_code == 0, result.output
            digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(out.iterdir())})
        assert digests[0] == digests[1]
