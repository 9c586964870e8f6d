import copy

import pytest
from hypothesis import given, settings, strategies as st

from dposforensics.model import compute_vote_index, compute_vote_weight
from dposforensics.replay import ReplayError, replay, replay_with_snapshots

from conftest import T0, DAY, TraceBuilder, random_trace
from oracles import canonical_json, recompute_candidate_weights, recompute_tallies

EOS = 10_000  # base units per token


def weights_close(a, b, rel=1e-9):
    keys = set(a) | set(b)
    for k in keys:
        va, vb = a.get(k, 0.0), b.get(k, 0.0)
        if va == vb == 0:
            continue
        assert abs(va - vb) <= rel * max(abs(va), abs(vb)), (k, va, vb)


def base_trace():
    return (TraceBuilder()
            .newaccount("genesis", "alice").newaccount("genesis", "bob")
            .newaccount("genesis", "carol").newaccount("genesis", "dave")
            .newaccount("genesis", "proxyone")
            .regproducer("bp.a").regproducer("bp.b").regproducer("bp.c")
            .delegate("alice", 100 * EOS).delegate("bob", 50 * EOS)
            .delegate("carol", 10 * EOS).delegate("dave", 20 * EOS)
            .regproxy("proxyone"))


class TestApply:
    def test_equal_weight_to_each_candidate(self):
        b = base_trace()
        b.vote("alice", ["bp.a", "bp.b"], ts=T0 + 100)
        state, rejected = replay(b.build())
        assert not rejected
        w = compute_vote_weight(100 * EOS, compute_vote_index(T0 + 100))
        assert state.candidates["bp.a"] == pytest.approx(w)
        assert state.candidates["bp.b"] == pytest.approx(w)
        assert state.candidates["bp.c"] == 0.0

    def test_revote_conserves(self):
        b = base_trace()
        b.vote("alice", ["bp.a"], ts=T0 + 100)
        state1, _ = replay(b.build())
        before_a = state1.candidates["bp.a"]
        b.vote("alice", ["bp.b"], ts=T0 + 200)
        state2, _ = replay(b.build())
        assert state2.candidates["bp.a"] == 0.0
        # same weekly index bucket, so the moved weight is identical
        assert state2.candidates["bp.b"] == pytest.approx(before_a)

    def test_proxy_pool_includes_late_vote(self):
        b = base_trace()
        b.vote("proxyone", ["bp.a"], ts=T0 + 100)
        b.vote_proxy("carol", "proxyone", ts=T0 + 200)
        b.vote("proxyone", ["bp.a", "bp.b"], ts=T0 + 300)
        state, rejected = replay(b.build())
        assert not rejected
        oracle = recompute_candidate_weights(state)
        weights_close(state.candidates, oracle)
        # bp.a and bp.b both carry the pooled weight including carol
        assert state.candidates["bp.a"] == pytest.approx(state.candidates["bp.b"])
        index = compute_vote_index(T0 + 300)
        assert state.candidates["bp.b"] == pytest.approx(
            compute_vote_weight(10 * EOS, index) + compute_vote_weight(0, index))

    def test_undelegate_below_zero_rejected(self):
        b = base_trace()
        b.undelegate("carol", 999 * EOS)
        state, rejected = replay(b.build())
        assert len(rejected) == 1
        assert "exceeds" in rejected[0].reason
        assert state.accounts["carol"].stake == 10 * EOS

    def test_vote_for_unregistered_candidate_rejected(self):
        b = base_trace()
        b.vote("alice", ["nobody"])
        state, rejected = replay(b.build())
        assert len(rejected) == 1
        assert "unregistered" in rejected[0].reason
        assert state.accounts["alice"].votes == ()

    def test_delegate_to_non_proxy_rejected(self):
        b = base_trace()
        b.vote_proxy("alice", "bob")
        _, rejected = replay(b.build())
        assert len(rejected) == 1
        assert "not a registered proxy" in rejected[0].reason

    def test_stake_change_updates_proxy_pool(self):
        b = base_trace()
        b.vote("proxyone", ["bp.a"], ts=T0 + 100)
        b.vote_proxy("carol", "proxyone", ts=T0 + 200)
        b.delegate("carol", 90 * EOS, ts=T0 + 300)
        state, _ = replay(b.build())
        weights_close(state.candidates, recompute_candidate_weights(state))
        index = compute_vote_index(T0 + 100)
        assert state.candidates["bp.a"] == pytest.approx(
            compute_vote_weight(100 * EOS, index))

    def test_candidate_left_by_every_voter_reads_zero(self):
        b = TraceBuilder().regproducer("bpa").regproducer("bpb")
        voters = [f"voter{chr(97 + i)}" for i in range(25)]
        for i, name in enumerate(voters):
            b.newaccount("genesis", name)
            b.delegate(name, (i * 7_919 % 1_000 + 1) * 1_000 * EOS + i)
            b.vote(name, ["bpa"], ts=T0 + i * 9 * DAY)
        for i, name in enumerate(voters):
            b.delegate(name, (i * 104_729 % 997 + 1) * EOS)
            b.vote(name, ["bpb"], ts=T0 + (300 + i * 5) * DAY)
        state, rejected = replay(b.build())
        assert not rejected
        assert state.candidates["bpa"] == 0.0
        assert state.candidates == recompute_candidate_weights(state)

    def test_proxy_deregistration_suspends_pool(self):
        b = base_trace()
        b.vote("proxyone", ["bp.a"], ts=T0 + 100)
        b.vote_proxy("carol", "proxyone", ts=T0 + 200)
        b.regproxy("proxyone", False, ts=T0 + 300)
        state, _ = replay(b.build())
        assert state.candidates["bp.a"] == 0.0
        assert state.log  # deregistration with delegators is logged
        weights_close(state.candidates, recompute_candidate_weights(state))


class TestReplay:
    def test_empty_trace(self):
        state, rejected = replay([])
        assert state.accounts == {} and not rejected

    def test_unsorted_trace_fatal(self):
        b = base_trace()
        actions = b.build()
        actions.reverse()
        with pytest.raises(ReplayError, match="not sorted"):
            replay(actions)

    def test_rejections_are_noops(self):
        b = base_trace()
        b.vote("alice", ["bp.a"])
        clean = canonical_json(replay(b.build())[0])
        b2 = base_trace()
        b2.vote("alice", ["bp.a"])
        b2.undelegate("bob", 10_000 * EOS)  # rejected
        with_reject = canonical_json(replay(b2.build())[0])
        assert clean == with_reject

    def test_determinism_on_random_trace(self):
        trace = random_trace(99, n_actions=1000)
        s1, r1 = replay(trace)
        s2, r2 = replay(trace)
        assert canonical_json(s1) == canonical_json(s2)
        assert len(r1) == len(r2)

    @pytest.mark.parametrize("seed", range(12))
    def test_conservation_random_traces(self, seed):
        state, _ = replay(random_trace(seed, n_actions=400))
        weights_close(state.candidates, recompute_candidate_weights(state))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_actions=st.integers(0, 400))
    def test_weights_equal_oracle_exactly(self, seed, n_actions):
        state, _ = replay(random_trace(seed, n_actions=n_actions))
        assert state.candidates == recompute_candidate_weights(state)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_actions=st.integers(0, 400))
    def test_tallies_equal_recomputed_ones(self, seed, n_actions):
        """The signed changes the actions add leave each tally equal to the
        stake the accounts give it, and drop the weeks that reach 0."""
        state, _ = replay(random_trace(seed, n_actions=n_actions))
        assert state.tallies == recompute_tallies(state)
        assert all(all(weeks.values()) for weeks in state.tallies.values())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_actions=st.integers(0, 400))
    def test_pooled_stake_is_delegators_stake(self, seed, n_actions):
        state, _ = replay(random_trace(seed, n_actions=n_actions))
        for name, acct in state.accounts.items():
            assert acct.proxied_stake == sum(
                other.stake for other in state.accounts.values()
                if other.proxy == name), name

    def test_idempotent_revote(self):
        b = base_trace()
        b.vote("alice", ["bp.a", "bp.b"], ts=T0 + 100)
        once = replay(b.build())[0].candidates
        b.vote("alice", ["bp.a", "bp.b"], ts=T0 + 100)
        twice = replay(b.build())[0].candidates
        assert once == twice

    def test_proxy_withdrawal_symmetry(self):
        b = base_trace()
        b.vote("alice", ["bp.a"], ts=T0 + 100)
        b.vote("proxyone", ["bp.b"], ts=T0 + 150)
        before = copy.deepcopy(replay(b.build())[0].candidates)
        b.vote_proxy("carol", "proxyone", ts=T0 + 200)
        b.vote("carol", [], ts=T0 + 300)  # withdraw: back to direct empty vote
        after = replay(b.build())[0].candidates
        weights_close(before, after)


class TestSnapshotsAndTop:
    def test_snapshot_direct_voter(self):
        b = base_trace()
        b.vote("alice", ["bp.a", "bp.c"], ts=T0 + 100)
        state, _ = replay(b.build())
        snap = state.snapshot(T0 + 500)
        assert frozenset(snap.per_voter["alice"].votes) == {"bp.a", "bp.c"}

    def test_snapshot_resolves_proxy(self):
        b = base_trace()
        b.vote("proxyone", ["bp.a", "bp.b", "bp.c"], ts=T0 + 100)
        b.vote_proxy("carol", "proxyone", ts=T0 + 200)
        state, _ = replay(b.build())
        snap = state.snapshot(T0 + 500)
        assert frozenset(snap.per_voter["carol"].votes) == {"bp.a", "bp.b", "bp.c"}
        assert snap.per_voter["carol"].via_proxy

    def test_snapshot_shares_the_states_vote_tuples(self):
        # A snapshot holds no copy of any voter's votes: a direct voter's
        # entry is its own tuple, and a delegator's its proxy's.
        b = base_trace()
        b.vote("alice", ["bp.a", "bp.c"], ts=T0 + 100)
        b.vote("proxyone", ["bp.a", "bp.b"], ts=T0 + 150)
        b.vote_proxy("carol", "proxyone", ts=T0 + 200)
        state, _ = replay(b.build())
        snap = state.snapshot(T0 + 500)
        accounts = state.accounts
        assert snap.per_voter["alice"].votes is accounts["alice"].votes
        assert snap.per_voter["proxyone"].votes is accounts["proxyone"].votes
        assert snap.per_voter["carol"].votes is accounts["proxyone"].votes
        assert frozenset(snap.per_voter["carol"].votes) == {"bp.a", "bp.b"}

    def test_proxied_stake_sums(self):
        b = base_trace()
        b.vote("proxyone", ["bp.a"], ts=T0 + 100)
        b.vote_proxy("carol", "proxyone", ts=T0 + 200)
        b.vote_proxy("dave", "proxyone", ts=T0 + 300)
        state, _ = replay(b.build())
        snap = state.snapshot(T0 + 400)
        assert snap.per_voter["proxyone"].proxied_stake == 30 * EOS

    def test_top_producers_order_and_ties(self):
        b = base_trace()
        b.vote("alice", ["bp.b"], ts=T0 + 100)   # 100 EOS
        b.vote("bob", ["bp.a"], ts=T0 + 100)     # 50 EOS
        state, _ = replay(b.build())
        assert state.top_producers(21) == ["bp.b", "bp.a", "bp.c"]
        # tie between zero-weight candidates resolves by name
        assert state.top_producers(3)[-1] == "bp.c"

    def test_top_n_truncates_to_largest(self):
        b = TraceBuilder()
        for i in range(25):
            name = f"bp{chr(97 + i)}"
            b.regproducer(name)
            b.newaccount("genesis", f"v{chr(97 + i)}")
            b.delegate(f"v{chr(97 + i)}", (i + 1) * EOS)
            b.vote(f"v{chr(97 + i)}", [name])
        state, rejected = replay(b.build())
        assert not rejected
        top = state.top_producers(21)
        full = sorted(state.candidates.items(), key=lambda kv: (-kv[1], kv[0]))
        assert top == [name for name, _ in full[:21]]

    def test_snapshot_series_monotone(self):
        trace = random_trace(5, n_actions=300)
        times = [trace[0].timestamp + i * 5 * DAY for i in range(6)]
        _, _, snaps = replay_with_snapshots(trace, times)
        assert len(snaps) == 6
        seen: set = set()
        created_by_time = {}
        for snap in snaps:
            for name in snap.per_voter:
                created_by_time.setdefault(name, snap.taken_at)
        # accounts never disappear from later snapshots once voting
        for a, b in zip(snaps, snaps[1:]):
            assert a.taken_at < b.taken_at


def renewed(before, after):
    """The voters of snapshot `after` whose entry is not the object they
    had in snapshot `before`."""
    return {name for name, entry in after.per_voter.items()
            if entry is not before.per_voter.get(name)}


def assert_fresh_replays_agree(trace, times, snaps):
    """Each snapshot equals, field by field, the snapshot of a state replayed
    from nothing to its time; and an entry equal to the voter's entry in the
    snapshot before is that entry."""
    assert len(snaps) == len(times)
    for t, snap in zip(times, snaps):
        state, _ = replay([a for a in trace if a.timestamp <= t])
        assert snap.per_voter == state.snapshot(t).per_voter
    for before, after in zip(snaps, snaps[1:]):
        for name, entry in after.per_voter.items():
            assert (entry is before.per_voter.get(name)) == \
                (entry == before.per_voter.get(name)), name


class TestSharedEntries:
    def test_unchanged_voters_keep_their_entries(self):
        b = base_trace()
        b.vote("alice", ["bp.a"], ts=T0 + 100).vote("bob", ["bp.c"], ts=T0 + 100)
        b.vote("proxyone", ["bp.a", "bp.b"], ts=T0 + 100)
        b.vote_proxy("carol", "proxyone", ts=T0 + 100)
        b.vote_proxy("dave", "proxyone", ts=T0 + 100)
        b.delegate("alice", EOS, ts=T0 + DAY + 100)  # a stake
        b.vote("proxyone", ["bp.b"], ts=T0 + 2 * DAY + 100)  # a proxy's vote
        b.regproxy("bob", ts=T0 + 3 * DAY + 100)  # an is_proxy flag
        trace = b.build()
        times = [T0 + day * DAY for day in range(1, 6)]
        _, _, snaps = replay_with_snapshots(trace, times)
        assert [renewed(x, y) for x, y in zip(snaps, snaps[1:])] == [
            {"alice"}, {"proxyone", "carol", "dave"}, {"bob"}, set()]
        assert snaps[3].per_voter["bob"].is_proxy
        assert snaps[2].per_voter["carol"].votes == ("bp.b",)
        assert_fresh_replays_agree(trace, times, snaps)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), step=st.sampled_from([DAY, 4 * DAY]))
    def test_snapshots_equal_fresh_replays(self, seed, step):
        trace = random_trace(seed, n_actions=150, n_accounts=16, n_candidates=4,
                             n_proxies=3)
        times = [trace[0].timestamp + i * step for i in range(1, 9)]
        _, _, snaps = replay_with_snapshots(trace, times)
        assert_fresh_replays_agree(trace, times, snaps)
