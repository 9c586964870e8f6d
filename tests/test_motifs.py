import random

import pytest
from hypothesis import given, settings, strategies as st

from dposforensics.motifs import (
    DEFAULT_WINDOW,
    EIGHT,
    LINEAR,
    TRIANGULAR,
    VoteEvent,
    build_vote_events,
    detect_eight,
    detect_linear,
    detect_triangular,
    motif_series,
    vote_events,
)

from dposforensics.replay import VoteLog, replay

from conftest import T0, DAY, TraceBuilder, random_trace, run_under_hash_seed, voting_traces
from oracles import (
    brute_eight,
    brute_linear,
    brute_triangular,
    motif_key_set,
    ref_vote_events,
    verify_instance,
)

EOS = 10_000


def ev(src, dst, ts, via=None):
    return VoteEvent(src, dst, via, ts)


class TestLinear:
    def test_simple_pair(self):
        events = [ev("a", "b", T0), ev("b", "a", T0 + DAY)]
        found = detect_linear(events)
        assert len(found) == 1
        assert found[0].participants == ("a", "b")
        assert found[0].window_start == T0

    def test_exact_window_boundary_included(self):
        events = [ev("a", "b", T0), ev("b", "a", T0 + DEFAULT_WINDOW)]
        assert len(detect_linear(events)) == 1

    def test_one_second_past_window_excluded(self):
        events = [ev("a", "b", T0), ev("b", "a", T0 + DEFAULT_WINDOW + 1)]
        assert detect_linear(events) == []

    def test_eight_days_excluded(self):
        events = [ev("a", "b", T0), ev("b", "a", T0 + 8 * DAY)]
        assert detect_linear(events) == []

    def test_one_direction_only(self):
        events = [ev("a", "b", T0), ev("a", "b", T0 + 100), ev("c", "a", T0)]
        assert detect_linear(events) == []

    def test_self_vote_ignored(self):
        events = [ev("a", "a", T0), ev("a", "a", T0 + 100)]
        assert detect_linear(events) == []

    def test_dedup_same_month(self):
        events = [ev("a", "b", T0), ev("b", "a", T0 + 100),
                  ev("a", "b", T0 + DAY), ev("b", "a", T0 + DAY + 50)]
        found = detect_linear(events)
        assert len(found) == 1
        assert found[0].window_start == T0  # earliest instance kept

    def test_separate_months_kept(self):
        # T0 is 2021-01-01; a second mutual exchange in February
        feb = T0 + 40 * DAY
        events = [ev("a", "b", T0), ev("b", "a", T0 + 100),
                  ev("a", "b", feb), ev("b", "a", feb + 100)]
        assert len(detect_linear(events)) == 2

    def test_candidate_filter(self):
        b = TraceBuilder()
        for name in ("a", "b"):
            b.newaccount("genesis", name).delegate(name, 10_000).regproducer(name)
        b.vote("a", ["b"], ts=T0).vote("b", ["a"], ts=T0 + 100)
        log = VoteLog()
        replay(b.build(), [log])
        assert detect_linear(vote_events(log, {"a", "b"}))
        assert detect_linear(vote_events(log, {"a"})) == []


class TestTriangular:
    def test_proxy_then_direct(self):
        events = [ev("a", "b", T0, via="pxy"), ev("b", "a", T0 + DAY)]
        found = detect_triangular(events)
        assert len(found) == 1
        assert found[0].participants == ("a", "pxy", "b")

    def test_direct_pair_is_not_triangular(self):
        events = [ev("a", "b", T0), ev("b", "a", T0 + DAY)]
        assert detect_triangular(events) == []

    def test_both_proxied_is_not_triangular(self):
        events = [ev("a", "b", T0, via="p1"), ev("b", "a", T0 + DAY, via="p2")]
        assert detect_triangular(events) == []

    def test_window_excluded(self):
        events = [ev("a", "b", T0, via="pxy"),
                  ev("b", "a", T0 + DEFAULT_WINDOW + 1)]
        assert detect_triangular(events) == []

    def test_order_of_events_irrelevant(self):
        events = [ev("b", "a", T0), ev("a", "b", T0 + DAY, via="pxy")]
        assert len(detect_triangular(events)) == 1


class TestEight:
    def test_two_proxies(self):
        events = [ev("a", "b", T0, via="p1"), ev("b", "a", T0 + DAY, via="p2")]
        found = detect_eight(events)
        assert len(found) == 1
        assert found[0].participants == ("a", "p1", "b", "p2")

    def test_shared_proxy_allowed_by_default(self):
        events = [ev("a", "b", T0, via="pxy"), ev("b", "a", T0 + DAY, via="pxy")]
        assert [inst.participants for inst in detect_eight(events)] == \
            [("a", "pxy", "b", "pxy")]

    def test_canonical_orientation(self):
        events = [ev("zed", "ann", T0, via="p1"), ev("ann", "zed", T0 + DAY, via="p2")]
        found = detect_eight(events)
        assert found[0].participants == ("ann", "p2", "zed", "p1")

    def test_window_excluded(self):
        events = [ev("a", "b", T0, via="p1"),
                  ev("b", "a", T0 + DEFAULT_WINDOW + 1, via="p2")]
        assert detect_eight(events) == []


class TestBuildEvents:
    def test_direct_vote_flattens_per_candidate(self):
        b = TraceBuilder()
        b.regproducer("bp.a").regproducer("bp.b")
        b.newaccount("genesis", "alice").delegate("alice", EOS)
        b.vote("alice", ["bp.a", "bp.b"], ts=T0 + 100)
        events = build_vote_events(b.build())
        assert {(e.src, e.dst, e.via_proxy) for e in events} == {
            ("alice", "bp.a", None), ("alice", "bp.b", None)}

    def test_proxy_vote_expands_to_delegators(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "proxyone").regproxy("proxyone")
        b.newaccount("genesis", "alice").delegate("alice", EOS)
        b.vote_proxy("alice", "proxyone", ts=T0 + 100)
        b.vote("proxyone", ["bp.a"], ts=T0 + 200)
        events = build_vote_events(b.build())
        assert ("alice", "bp.a", "proxyone") in {
            (e.src, e.dst, e.via_proxy) for e in events}

    def test_departed_delegator_not_expanded(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "proxyone").regproxy("proxyone")
        b.newaccount("genesis", "alice").delegate("alice", EOS)
        b.vote_proxy("alice", "proxyone", ts=T0 + 100)
        b.vote("alice", [], ts=T0 + 200)  # withdraw from the proxy
        b.vote("proxyone", ["bp.a"], ts=T0 + 300)
        events = build_vote_events(b.build())
        assert all(e.src != "alice" or e.via_proxy is None for e in events)

    def test_rejected_vote_emits_nothing(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "alice")
        b.vote("alice", ["nobody"], ts=T0 + 100)
        assert build_vote_events(b.build()) == []

    def test_delegation_snapshot_precedes_vote(self):
        # the proxy's vote expands over delegators present before the action
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "proxyone").regproxy("proxyone")
        b.newaccount("genesis", "alice").delegate("alice", EOS)
        b.vote("proxyone", ["bp.a"], ts=T0 + 100)
        b.vote_proxy("alice", "proxyone", ts=T0 + 200)
        events = build_vote_events(b.build())
        assert all(e.src != "alice" for e in events)


ACCOUNTS = [f"acct{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(24)]


class TestVoteRecords:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_actions=st.integers(0, 300),
           candidates=st.sets(st.sampled_from(ACCOUNTS)))
    def test_restricted_flattening_filters_the_full_one(self, seed, n_actions,
                                                        candidates):
        trace = random_trace(seed, n_actions=n_actions, n_accounts=24,
                             n_candidates=6, n_proxies=4)
        log = VoteLog()
        replay(trace, [log])
        flattened = vote_events(log)
        assert vote_events(log, candidates) == [
            e for e in flattened if e.src in candidates and e.dst in candidates]


def by_key(events):
    """(src, dst) -> the events from src to dst, in order: what the
    detectors read of a list of events."""
    keyed = {}
    for e in events:
        keyed.setdefault((e.src, e.dst), []).append(e)
    return keyed


def assert_events_match_reference(trace, candidates):
    """The log's events equal the VoteRecorder reference's per (src, dst)
    key, in order and with integer timestamps, unrestricted, restricted to
    `candidates`, and restricted to the registered candidates."""
    log = VoteLog()
    state, _ = replay(trace, [log])
    for restriction in (None, candidates, set(state.tallies)):
        events = vote_events(log, restriction)
        assert all(type(e.timestamp) is int for e in events)
        assert by_key(events) == by_key(ref_vote_events(trace, restriction))


def proxy_votes_twice_in_one_second():
    b = TraceBuilder().regproducer("bpa").regproducer("bpb")
    b.newaccount("genesis", "pool").regproxy("pool")
    b.newaccount("genesis", "alice").vote_proxy("alice", "pool")
    b.vote("pool", ["bpa"], ts=T0 + DAY).vote("pool", ["bpb"], ts=T0 + DAY)
    return b.build(), [("pool", "bpa", None), ("alice", "bpa", "pool"),
                       ("pool", "bpb", None), ("alice", "bpb", "pool")]


def deregistered_proxy_votes():
    b = TraceBuilder().regproducer("bpa")
    b.newaccount("genesis", "pool").regproxy("pool")
    b.newaccount("genesis", "alice").vote_proxy("alice", "pool")
    b.regproxy("pool", False).vote("pool", ["bpa"])
    return b.build(), [("pool", "bpa", None)]


def registered_proxy_votes_for_no_one():
    b = TraceBuilder().regproducer("bpa")
    b.newaccount("genesis", "pool").regproxy("pool")
    b.newaccount("genesis", "alice").vote_proxy("alice", "pool")
    b.vote("pool", []).vote("pool", ["bpa"])
    return b.build(), [("pool", "bpa", None), ("alice", "bpa", "pool")]


def candidate_delegates():
    b = TraceBuilder().regproducer("bpa").regproducer("bpb")
    b.newaccount("genesis", "pool").regproxy("pool")
    b.vote_proxy("bpb", "pool").newaccount("genesis", "alice").vote_proxy("alice", "pool")
    b.vote("pool", ["bpa", "bpb"])
    return b.build(), [("pool", "bpa", None), ("alice", "bpa", "pool"),
                       ("bpb", "bpa", "pool"), ("pool", "bpb", None),
                       ("alice", "bpb", "pool"), ("bpb", "bpb", "pool")]


class TestVoteEvents:
    @pytest.mark.parametrize("case", [
        proxy_votes_twice_in_one_second, deregistered_proxy_votes,
        registered_proxy_votes_for_no_one, candidate_delegates])
    def test_builder_cases(self, case):
        trace, expected = case()
        assert [(e.src, e.dst, e.via_proxy) for e in build_vote_events(trace)] == expected
        assert_events_match_reference(trace, {"bpa", "bpb", "alice"})

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_actions=st.integers(0, 300),
           candidates=st.sets(st.sampled_from(ACCOUNTS)))
    def test_match_reference_on_random_traces(self, seed, n_actions, candidates):
        assert_events_match_reference(random_trace(
            seed, n_actions=n_actions, n_accounts=24, n_candidates=6, n_proxies=4),
            candidates)

    @settings(max_examples=150, deadline=None)
    @given(case=voting_traces(), candidates=st.sets(st.sampled_from(
        ["bpa", "bpb", "bpc", "poola", "alice", "bob"])))
    def test_match_reference_on_voting_traces(self, case, candidates):
        assert_events_match_reference(case[0], candidates)

    def test_match_reference_under_hash_seed(self, tmp_path):
        """Both properties in a process whose sets of names iterate in
        another order."""
        run_under_hash_seed("1", "import test_motifs; t = test_motifs.TestVoteEvents(); "
                                 "t.test_match_reference_on_random_traces(); "
                                 "t.test_match_reference_on_voting_traces()", tmp_path)


def random_events(seed, n_events=300, n_accounts=20, n_proxies=4, span_days=45):
    rng = random.Random(seed)
    accounts = [f"acct{i:02d}" for i in range(n_accounts)]
    proxies = [f"pxy{i}" for i in range(n_proxies)]
    events = []
    for _ in range(n_events):
        src, dst = rng.sample(accounts, 2)
        via = rng.choice(proxies) if rng.random() < 0.4 else None
        ts = T0 + rng.randrange(0, span_days * DAY)
        events.append(VoteEvent(src, dst, via, ts))
    return events


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_shapes_match_oracle(self, seed):
        events = random_events(seed)
        window = DEFAULT_WINDOW
        assert motif_key_set(detect_linear(events, window)) == \
            brute_linear(events, window)
        assert motif_key_set(detect_triangular(events, window)) == \
            brute_triangular(events, window)
        assert motif_key_set(detect_eight(events, window)) == \
            brute_eight(events, window)

    @pytest.mark.parametrize("seed", [100, 101])
    def test_candidate_restriction_matches_oracle(self, seed):
        events = random_events(seed, n_accounts=12)
        cands = {f"acct{i:02d}" for i in range(6)}
        between = [e for e in events if e.src in cands and e.dst in cands]
        assert motif_key_set(detect_linear(between)) == \
            brute_linear(events, DEFAULT_WINDOW, cands)
        assert motif_key_set(detect_triangular(between)) == \
            brute_triangular(events, DEFAULT_WINDOW, cands)

    def test_shapes_disjoint(self):
        events = random_events(55)
        keys = (motif_key_set(detect_linear(events))
                | motif_key_set(detect_triangular(events))
                | motif_key_set(detect_eight(events)))
        shapes_by_pair = {}
        for shape, participants, month in keys:
            assert shape in (LINEAR, TRIANGULAR, EIGHT)
        # shape labels partition the key set by construction
        assert len(keys) == (len(motif_key_set(detect_linear(events)))
                             + len(motif_key_set(detect_triangular(events)))
                             + len(motif_key_set(detect_eight(events))))

    def test_window_monotone(self):
        events = random_events(7)
        small = motif_key_set(detect_linear(events, 2 * DAY))
        large = motif_key_set(detect_linear(events, 14 * DAY))
        # larger windows can shift the anchor month of a pair but never
        # lose the pair itself
        assert {(k[1]) for k in small} <= {(k[1]) for k in large}

    def test_every_instance_verifies(self):
        events = random_events(3)
        for inst in (detect_linear(events) + detect_triangular(events)
                     + detect_eight(events)):
            assert verify_instance(inst)

    def test_verify_rejects_forged(self):
        inst = detect_linear([ev("a", "b", T0), ev("b", "a", T0 + 100)])[0]
        from dposforensics.motifs import MotifInstance
        forged = MotifInstance(TRIANGULAR, inst.participants, inst.witnesses)
        assert not verify_instance(forged)


class TestSeries:
    def test_counts_by_month(self):
        feb = T0 + 40 * DAY
        events = [ev("a", "b", T0), ev("b", "a", T0 + 100),
                  ev("c", "d", feb, via="p1"), ev("d", "c", feb + 100, via="p2")]
        instances = detect_linear(events) + detect_eight(events)
        series = motif_series(instances)
        assert series[LINEAR] == {(2021, 1): 1}
        assert series[EIGHT] == {(2021, 2): 1}
        assert series[TRIANGULAR] == {}
