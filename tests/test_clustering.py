import random

import pytest
from hypothesis import given, settings, strategies as st

from dposforensics.clustering import (
    ClusteringError,
    VoterCluster,
    VotingRecord,
    cluster_voters,
    creator_concordance,
    record_similarity,
    sample_voting_records,
    similarity_blocks,
    top_stakeholders,
)
from dposforensics.model import MAX_VOTES
from dposforensics.replay import replay, replay_with_snapshots

from conftest import T0, DAY, TraceBuilder
from oracles import component_clusters

EOS = 10_000


def rec(voter, *sets):
    return VotingRecord(voter, tuple(frozenset(s) for s in sets))


candidate_sets = st.frozensets(st.sampled_from(["c0", "c1", "c2", "c3"]))


@st.composite
def record_tables(draw):
    """Sorted voters and their records over a few candidates. Shared profiles
    give equal records; all-empty records are voters with no activity."""
    n_times = draw(st.integers(0, 4))
    record = st.tuples(*[candidate_sets] * n_times)
    profiles = draw(st.lists(record, min_size=1, max_size=3))
    inactive = (frozenset(),) * n_times
    voters = [f"v{i:02d}" for i in range(draw(st.integers(0, 12)))]
    records = {v: VotingRecord(v, draw(st.one_of(
        st.sampled_from(profiles), record, st.just(inactive)))) for v in voters}
    return voters, records


class TestSimilarity:
    def test_identical_records(self):
        a = rec("a", {"x"}, {"y", "z"})
        b = rec("b", {"x"}, {"y", "z"})
        assert record_similarity(a, b) == 1.0

    def test_disjoint_records(self):
        a = rec("a", {"x"}, {"y"})
        b = rec("b", {"p"}, {"q"})
        assert record_similarity(a, b) == 0.0

    def test_three_of_four_overlap(self):
        a = rec("a", {"a", "b", "c"}, {"a", "b", "c"})
        b = rec("b", {"b", "c", "d"}, {"b", "c", "d"})
        assert record_similarity(a, b) == pytest.approx(0.5)

    def test_both_empty_excluded_from_mean(self):
        a = rec("a", set(), {"x"})
        b = rec("b", set(), {"x"})
        assert record_similarity(a, b) == 1.0

    def test_one_empty_counts_zero(self):
        a = rec("a", {"x"}, {"x"})
        b = rec("b", set(), {"x"})
        assert record_similarity(a, b) == pytest.approx(0.5)

    def test_all_both_empty_is_zero(self):
        assert record_similarity(rec("a", set()), rec("b", set())) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ClusteringError):
            record_similarity(rec("a", {"x"}), rec("b", {"x"}, {"y"}))

    def test_symmetry(self):
        rng = random.Random(5)
        pool = [f"c{i}" for i in range(10)]
        for _ in range(200):
            a = rec("a", *[rng.sample(pool, rng.randint(0, 4)) for _ in range(4)])
            b = rec("b", *[rng.sample(pool, rng.randint(0, 4)) for _ in range(4)])
            assert record_similarity(a, b) == record_similarity(b, a)


class TestClusterVoters:
    def test_three_identical(self):
        records = {v: rec(v, {"x", "y"}, {"x", "y"}) for v in "abc"}
        clusters = cluster_voters(list("abc"), records, 0.9)
        assert len(clusters) == 1
        assert clusters[0].members == frozenset("abc")
        assert clusters[0].seed == "a"

    def test_all_distinct_yields_nothing(self):
        records = {v: rec(v, {v}) for v in "abcdef"}
        assert cluster_voters(list("abcdef"), records, 0.9) == []

    def test_transitive_chain(self):
        # a~b and b~c exceed theta, a~c does not: one cluster via expansion
        sets_a = [{"p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9", "pa"}] * 10
        records = {
            "a": rec("a", *sets_a),
            "b": rec("b", *(sets_a[:9] + [set(list(sets_a[0])[:9]) | {"qb"}])),
            "c": rec("c", *(sets_a[:8] + [set(list(sets_a[0])[:9]) | {"qb"}] * 2)),
        }
        sim_ab = record_similarity(records["a"], records["b"])
        sim_bc = record_similarity(records["b"], records["c"])
        sim_ac = record_similarity(records["a"], records["c"])
        theta = 0.9
        assert sim_ab >= theta and sim_bc >= theta
        clusters = cluster_voters(["a", "b", "c"], records, theta)
        assert clusters[0].members == frozenset("abc")
        assert component_clusters(["a", "b", "c"], records, theta) == {
            c.members for c in clusters}

    def test_theta_out_of_range(self):
        with pytest.raises(ClusteringError):
            cluster_voters(["a"], {"a": rec("a", {"x"})}, 0.0)
        with pytest.raises(ClusteringError):
            cluster_voters(["a"], {"a": rec("a", {"x"})}, 1.5)

    @pytest.mark.parametrize("theta", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_component_oracle(self, seed, theta):
        rng = random.Random(seed * 100 + int(theta * 10))
        pool = [f"cand{i:02d}" for i in range(8)]
        voters = [f"v{i:03d}" for i in range(60)]
        records = {}
        for v in voters:
            # correlated sets: few distinct base profiles plus noise
            base = rng.choice([pool[:4], pool[2:6], pool[4:], pool[:2]])
            sets = []
            for _ in range(4):
                s = set(base)
                if rng.random() < 0.4:
                    s.add(rng.choice(pool))
                if rng.random() < 0.2:
                    s = set()
                sets.append(s)
            records[v] = rec(v, *sets)
        clusters = cluster_voters(voters, records, theta)
        detected = {c.members for c in clusters}
        assert detected == component_clusters(voters, records, theta)

    def test_theta_monotone_never_merges(self):
        rng = random.Random(77)
        pool = [f"c{i}" for i in range(6)]
        voters = [f"v{i}" for i in range(30)]
        records = {v: rec(v, *[rng.sample(pool, rng.randint(1, 4))
                               for _ in range(3)]) for v in voters}
        low = cluster_voters(voters, records, 0.5)
        high = cluster_voters(voters, records, 0.8)
        low_map = {}
        for c in low:
            for m in c.members:
                low_map[m] = c.members
        for c in high:
            anchors = {frozenset(low_map.get(m, frozenset([m]))) for m in c.members}
            # every high-theta cluster stays inside one low-theta component
            assert len(anchors) == 1

    def test_intra_cluster_similarity_invariant(self):
        rng = random.Random(13)
        pool = [f"c{i}" for i in range(5)]
        voters = [f"v{i}" for i in range(40)]
        records = {v: rec(v, *[rng.sample(pool, rng.randint(1, 3))
                               for _ in range(3)]) for v in voters}
        theta = 0.7
        for cluster in cluster_voters(voters, records, theta):
            for m in cluster.members:
                assert any(record_similarity(records[m], records[o]) >= theta
                           for o in cluster.members if o != m)

    def test_record_lengths_differ(self):
        records = {"a": rec("a", {"x"}), "b": rec("b", {"x"}, {"x"})}
        with pytest.raises(ClusteringError, match="lengths differ"):
            cluster_voters(["a", "b"], records, 0.9)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_component_oracle_on_random_records(self, data):
        voters, records = data.draw(record_tables())
        sims = {record_similarity(records[a], records[b])
                for a in voters for b in voters if a < b} - {0.0}
        # thresholds equal to a pair's similarity put that pair exactly at theta
        theta = data.draw(st.sampled_from(sorted(sims) + [0.5, 0.9, 1.0]))
        detected = {c.members for c in cluster_voters(voters, records, theta)}
        assert detected == component_clusters(voters, records, theta)


def assert_blocks_equal_record_similarity(voters, records, block=64):
    rows = {}
    for lo, sims in similarity_blocks(voters, records, block):
        rows.update(enumerate(sims, lo))
    assert sorted(rows) == list(range(len(voters)))
    for i, a in enumerate(voters):
        for j, b in enumerate(voters):
            assert rows[i][j] == record_similarity(records[a], records[b])


class TestSimilarityMatrix:
    @settings(max_examples=200, deadline=None)
    @given(table=record_tables(), block=st.integers(1, 5))
    def test_equals_record_similarity(self, table, block):
        assert_blocks_equal_record_similarity(*table, block)

    def test_full_votes_over_several_blocks(self):
        """Sets of MAX_VOTES candidates, whose intersections fill the one-byte
        dtype furthest, over more rows than a block holds; some voters are
        never active, and some share a record."""
        rng = random.Random(30)
        pool = [f"bp{i:02d}" for i in range(40)]
        profiles = [tuple(frozenset(rng.sample(pool, MAX_VOTES)) for _ in range(5))
                    for _ in range(3)]
        voters = [f"v{i:03d}" for i in range(150)]
        records = {}
        for i, v in enumerate(voters):
            if i % 10 == 0:
                sets = (frozenset(),) * 5
            elif i % 4 == 0:
                sets = rng.choice(profiles)
            else:
                sets = tuple(frozenset(rng.sample(pool, MAX_VOTES)) if rng.random() < 0.8
                             else frozenset() for _ in range(5))
            records[v] = VotingRecord(v, sets)
        assert {len(s) for r in records.values() for s in r.sets} == {0, MAX_VOTES}
        assert_blocks_equal_record_similarity(voters, records)
        assert_blocks_equal_record_similarity(voters, records, block=7)

    def test_sets_past_one_byte_widen_the_dtype(self):
        """A set of more than 255 candidates does not fit one byte, nor a
        union of two sets of 128 or more; the matrices and the unions widen,
        so the intersections and unions stay exact."""
        pool = [f"c{i:03d}" for i in range(400)]
        records = {"a": rec("a", pool[:300], pool[:10]),
                   "b": rec("b", pool[:300], pool[5:15]),
                   "c": rec("c", pool[100:400], ()),
                   "d": rec("d", pool[:256], pool[:1])}
        assert_blocks_equal_record_similarity(sorted(records), records, block=3)
        rows = dict(similarity_blocks(["a", "b"], records))[0]
        assert rows[0][1] == (1.0 + 5 / 15) / 2
        records = {"e": rec("e", pool[:200]), "f": rec("f", pool[100:300])}
        assert_blocks_equal_record_similarity(["e", "f"], records)
        assert dict(similarity_blocks(["e", "f"], records))[0][0][1] == 100 / 300


class TestSampling:
    def test_constant_voter(self):
        b = TraceBuilder()
        b.regproducer("bp.a").newaccount("genesis", "alice")
        b.delegate("alice", EOS)
        b.vote("alice", ["bp.a"], ts=T0 + 100)
        times = [T0 + (i + 1) * DAY for i in range(5)]
        _, _, snaps = replay_with_snapshots(b.build(), times)
        records = sample_voting_records(snaps, ["alice"])
        assert records["alice"].sets == tuple([frozenset({"bp.a"})] * 5)

    def test_late_arrival_has_empty_prefix(self):
        b = TraceBuilder()
        b.regproducer("bp.a").newaccount("genesis", "alice")
        b.delegate("alice", EOS)
        b.vote("alice", ["bp.a"], ts=T0 + int(3.5 * DAY))
        times = [T0 + (i + 1) * DAY for i in range(5)]
        _, _, snaps = replay_with_snapshots(b.build(), times)
        record = sample_voting_records(snaps, ["alice"])["alice"]
        assert record.sets[:3] == tuple([frozenset()] * 3)
        assert record.sets[3] == frozenset({"bp.a"})

    def test_proxy_revote_tracked(self):
        b = TraceBuilder()
        b.regproducer("bp.a").regproducer("bp.b")
        b.newaccount("genesis", "proxyone").regproxy("proxyone")
        b.newaccount("genesis", "alice").delegate("alice", EOS)
        b.vote("proxyone", ["bp.a"], ts=T0 + 100)
        b.vote_proxy("alice", "proxyone", ts=T0 + 200)
        b.vote("proxyone", ["bp.b"], ts=T0 + int(1.5 * DAY))
        times = [T0 + DAY, T0 + 2 * DAY]
        _, _, snaps = replay_with_snapshots(b.build(), times)
        record = sample_voting_records(snaps, ["alice"])["alice"]
        assert record.sets == (frozenset({"bp.a"}), frozenset({"bp.b"}))


class TestConcordance:
    def test_single_creator(self):
        clusters = [VoterCluster(frozenset({"a", "b", "c", "d"}), "a")]
        creation = {m: "maker" for m in "abcd"}
        entry = creator_concordance(clusters, creation)[0]
        assert entry.single_creator
        assert entry.creators == {"maker": 4}

    def test_two_creators(self):
        clusters = [VoterCluster(frozenset({"a", "b"}), "a")]
        entry = creator_concordance(clusters, {"a": "m1", "b": "m2"})[0]
        assert not entry.single_creator

    def test_missing_creator_sentinel(self):
        clusters = [VoterCluster(frozenset({"a", "b"}), "a")]
        entry = creator_concordance(clusters, {})[0]
        assert entry.single_creator  # both map to the sentinel


class TestTopStakeholders:
    def test_proxy_accumulation_in_ranking(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "proxyone").regproxy("proxyone")
        b.vote("proxyone", ["bp.a"])
        b.newaccount("genesis", "rich").delegate("rich", 100 * EOS)
        b.vote("rich", ["bp.a"])
        b.newaccount("genesis", "alice").delegate("alice", 80 * EOS)
        b.vote_proxy("alice", "proxyone")
        b.newaccount("genesis", "bob").delegate("bob", 70 * EOS)
        b.vote_proxy("bob", "proxyone")
        state, _ = replay(b.build())
        snap = state.snapshot(b.t + 10)
        # proxyone pools 150 EOS and outranks rich
        assert top_stakeholders(snap, 0.25) == ["proxyone"]
