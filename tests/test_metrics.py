import builtins
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dposforensics.metrics import (
    MetricsError,
    daily_production,
    monthly_production,
    powerlaw_exponent,
    producer_turnover,
    production_entropy,
    proxy_share_series,
    stake_distribution,
    top_share,
    utc_day,
    utc_month,
)
from dposforensics.model import TIME_MAX, TIME_MIN, BlockHeader
from dposforensics.replay import replay, replay_with_snapshots

from conftest import T0, DAY, TraceBuilder, random_trace
from oracles import brute_monthly_production, brute_producer_turnover, hill_alpha
from sums import left_to_right_sum, neumaier_sum

EOS = 10_000


class TestEntropy:
    def test_uniform_21(self):
        counts = {f"bp{chr(97 + i)}": 600 for i in range(21)}
        assert production_entropy(counts) == pytest.approx(math.log2(21), abs=1e-12)

    def test_single_producer(self):
        assert production_entropy({"solo": 12345}) == 0.0

    def test_three_one_split(self):
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert production_entropy({"a": 3, "b": 1}) == pytest.approx(expected)

    def test_empty_month_errors(self):
        with pytest.raises(MetricsError, match="no production data"):
            production_entropy({})

    def test_top_n_renormalizes(self):
        counts = {"a": 4, "b": 4, "c": 1}
        assert production_entropy(counts, n=2) == pytest.approx(1.0)

    def test_bounds_and_scale_invariance(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 30)
            counts = {f"p{i:02d}": rng.randint(1, 1000) for i in range(n)}
            h = production_entropy(counts)
            assert -1e-12 <= h <= math.log2(n) + 1e-12
            scaled = {k: v * 7 for k, v in counts.items()}
            assert production_entropy(scaled) == pytest.approx(h, abs=1e-12)

    def test_permutation_invariance(self):
        counts = {"a": 5, "b": 9, "c": 2}
        renamed = {"x": 9, "y": 2, "z": 5}
        assert production_entropy(counts) == pytest.approx(production_entropy(renamed))


class TestTopShare:
    def test_uniform(self):
        assert top_share([10] * 100, 0.05) == pytest.approx(0.05)

    def test_single_whale(self):
        assert top_share([1000] + [0] * 99, 0.01) == 1.0

    def test_matches_bruteforce_on_powerlaw(self):
        rng = random.Random(42)
        values = sorted((int(1000 * (1 - rng.random()) ** (-1 / 0.5)) for _ in range(10_000)),
                        reverse=True)
        share = top_share(values, 0.05)
        k = math.ceil(0.05 * len(values))
        assert share == pytest.approx(sum(values[:k]) / sum(values))

    def test_monotone_in_p(self):
        rng = random.Random(9)
        values = [rng.randint(1, 10**6) for _ in range(500)]
        shares = [top_share(values, p) for p in (0.01, 0.1, 0.5, 0.9, 1.0)]
        assert shares == sorted(shares)
        assert shares[-1] == 1.0

    def test_empty_errors(self):
        with pytest.raises(MetricsError):
            top_share([], 0.1)


class TestPowerlaw:
    def test_recovers_exact_minus_two(self):
        rng = np.random.default_rng(7)
        # inverse-CDF sampling of density ~ x^-2 on [1, inf)
        samples = 1.0 / (1.0 - rng.random(200_000))
        alpha, r2 = powerlaw_exponent(samples)
        assert alpha == pytest.approx(2.0, abs=0.05)
        assert r2 > 0.98

    def test_constant_values_degenerate(self):
        with pytest.raises(MetricsError):
            powerlaw_exponent([5.0] * 100)

    def test_pareto_against_hill_oracle(self):
        rng = np.random.default_rng(11)
        samples = (1.0 - rng.random(50_000)) ** (-1.0 / 0.8)  # density exponent 1.8
        alpha, _ = powerlaw_exponent(samples)
        assert 1.6 <= alpha <= 2.0
        oracle = hill_alpha(samples.tolist())
        assert alpha == pytest.approx(oracle, abs=0.25)

    def test_too_few_values(self):
        with pytest.raises(MetricsError):
            powerlaw_exponent([1, 2, 3])

    def test_non_positive_rejected(self):
        with pytest.raises(MetricsError):
            powerlaw_exponent([1.0] * 20 + [-1.0])


def proxy_trace():
    b = TraceBuilder()
    for name in ["alice", "bob", "carol", "dave", "proxyone"]:
        b.newaccount("genesis", name)
    b.regproducer("bp.a").regproducer("bp.b")
    b.delegate("alice", 100 * EOS).delegate("bob", 50 * EOS)
    b.delegate("carol", 30 * EOS).delegate("dave", 20 * EOS)
    b.regproxy("proxyone")
    b.vote("proxyone", ["bp.a"], ts=T0 + 100)
    b.vote("alice", ["bp.a", "bp.b"], ts=T0 + 200)
    b.vote_proxy("carol", "proxyone", ts=T0 + 300)
    b.vote_proxy("dave", "proxyone", ts=T0 + 400)
    return b


class TestDistributionsAndShares:
    def test_stake_distribution_sorted(self):
        state, _ = replay(proxy_trace().build())
        snap = state.snapshot(T0 + 500)
        dist = stake_distribution(snap)
        values = [v for _, v in dist]
        assert values == sorted(values, reverse=True)

    def test_proxy_accumulation(self):
        state, _ = replay(proxy_trace().build())
        snap = state.snapshot(T0 + 500)
        own = {name: voter.stake for name, voter in snap.per_voter.items()}
        pooled = dict(stake_distribution(snap))
        assert pooled.keys() == own.keys()
        assert own["proxyone"] == 0
        assert pooled["proxyone"] == 50 * EOS
        assert pooled["carol"] == own["carol"] == 30 * EOS
        diffs = {k for k in own if own[k] != pooled[k]}
        assert diffs == {"proxyone"}

    def test_share_series_no_proxies(self):
        b = TraceBuilder()
        b.regproducer("bp.a").newaccount("genesis", "alice")
        b.delegate("alice", EOS).vote("alice", ["bp.a"])
        _, _, snaps = replay_with_snapshots(b.build(), [b.t + 10])
        series = proxy_share_series(snaps)
        assert all(pt.share == 0.0 for pts in series.values() for pt in pts)

    def test_share_series_all_proxied(self):
        b = TraceBuilder()
        b.regproducer("bp.a")
        b.newaccount("genesis", "proxyone").regproxy("proxyone")
        b.vote("proxyone", ["bp.a"])
        for name in ["alice", "bob"]:
            b.newaccount("genesis", name).delegate(name, EOS)
            b.vote_proxy(name, "proxyone")
        _, _, snaps = replay_with_snapshots(b.build(), [b.t + 10])
        series = proxy_share_series(snaps)
        # proxyone itself votes directly with zero stake, so stake/weight
        # shares are 1 while count share reflects the one direct voter
        assert series["stake"][0].share == 1.0
        assert series["weight"][0].share == 1.0
        assert series["count"][0].share == pytest.approx(2 / 3)

    def test_share_invariant_proxied_le_all(self):
        trace = random_trace(21, n_actions=400)
        times = [trace[0].timestamp + i * 7 * DAY for i in range(5)]
        _, _, snaps = replay_with_snapshots(trace, times)
        for pts in proxy_share_series(snaps).values():
            for pt in pts:
                assert pt.proxied_value <= pt.all_value + 1e-9

    def test_weight_sums_add_left_to_right(self, monkeypatch):
        """The weight sums keep their bits when sum() compensates, as it does
        from Python 3.12 on, on snapshots where the two sums differ."""
        trace = random_trace(21, n_actions=400)
        times = [trace[0].timestamp + i * 7 * DAY for i in range(5)]
        _, _, snaps = replay_with_snapshots(trace, times)
        weights = [[v.weight for v in snap.per_voter.values() if v.votes or v.via_proxy]
                   for snap in snaps]
        assert any(neumaier_sum(w) != left_to_right_sum(w) for w in weights)
        plain = proxy_share_series(snaps)["weight"]
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        compensated = proxy_share_series(snaps)["weight"]
        assert [(p.all_value, p.proxied_value) for p in compensated] == \
            [(p.all_value, p.proxied_value) for p in plain]


def headers_for(months):
    """months: list of (year, month, producer, blocks, day)"""
    headers = []
    height = 1
    from datetime import datetime, timezone
    for year, month, producer, blocks, day in months:
        base = datetime(year, month, day, tzinfo=timezone.utc).timestamp()
        for i in range(blocks):
            headers.append(BlockHeader(height, producer, base + i * 0.5))
            height += 1
    return headers


class TestTurnover:
    def test_single_producer(self):
        headers = headers_for([(2021, 1, "solo", 10, d) for d in range(1, 11)])
        rep = producer_turnover(headers)
        assert rep.monthly_counts == {(2021, 1): 1}
        assert rep.cumulative_counts == [((2021, 1), 1)]
        assert rep.active_days == {"solo": 10}

    def test_full_rotation_two_months(self):
        plan = [(2021, 1, f"bp{chr(97 + i)}", 6, 1 + i % 27) for i in range(21)]
        plan += [(2021, 2, f"xp{chr(97 + i)}", 6, 1 + i % 27) for i in range(21)]
        rep = producer_turnover(headers_for(plan))
        assert rep.monthly_counts == {(2021, 1): 21, (2021, 2): 21}
        assert rep.cumulative_counts[-1][1] == 42

    def test_counts_equal_bruteforce(self):
        rng = random.Random(31)
        plan = [(2021, 1 + rng.randint(0, 2), f"bp{chr(97 + rng.randint(0, 5))}",
                 rng.randint(1, 5), rng.randint(1, 28)) for _ in range(200)]
        headers = headers_for(plan)
        rep = producer_turnover(headers)
        from dposforensics.metrics import utc_month
        by_month = {}
        for h in headers:
            by_month.setdefault(utc_month(h.timestamp), set()).add(h.producer)
        assert rep.monthly_counts == {m: len(s) for m, s in by_month.items()}
        prod = monthly_production(headers)
        for m, counts in prod.items():
            assert sum(counts.values()) == sum(
                1 for h in headers if utc_month(h.timestamp) == m)


# Times anywhere in the UTC years 1 to 9999, negative ones included, and times
# within a microsecond of a day boundary, where rounding to microseconds may
# carry a time into the next day.
near_day_boundary = st.builds(
    lambda day, offset: day * DAY + offset,
    st.integers(int(TIME_MIN) // DAY, int(TIME_MAX) // DAY + 1),
    st.floats(-1e-6, 1e-6) | st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
).filter(lambda t: TIME_MIN <= t <= TIME_MAX)
utc_times = (st.floats(TIME_MIN, TIME_MAX) | st.floats(TIME_MIN, 0.0)
             | near_day_boundary)


class TestDayBuckets:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(times=st.lists(utc_times, max_size=40))
    def test_equal_per_timestamp_conversion(self, times):
        times += [t + d for t in times[:5] for d in (-2.0, 0.25, 3600.0)
                  if TIME_MIN <= t + d <= TIME_MAX]   # more times on the same days
        # One producer per time, so that each count's key names its day.
        daily = daily_production((0, str(i), t) for i, t in enumerate(times))
        assert daily == Counter((utc_day(t), str(i)) for i, t in enumerate(times))
        assert all(day[:2] == utc_month(times[int(i)]) for day, i in daily)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(stamps=st.lists(st.tuples(st.sampled_from(["bpa", "bpb", "bpc", "bpd"]),
                                     near_day_boundary | st.floats(TIME_MIN, TIME_MAX)),
                           min_size=1, max_size=60),
           seed=st.integers(0, 2**32 - 1))
    def test_header_metrics_equal_per_header_reference(self, stamps, seed):
        headers = [BlockHeader(i, producer, ts)
                   for i, (producer, ts) in enumerate(stamps)]
        random.Random(seed).shuffle(headers)
        assert monthly_production(headers) == brute_monthly_production(headers)
        rep = producer_turnover(headers)
        assert (rep.monthly_counts, rep.cumulative_counts, rep.active_days) == \
            brute_producer_turnover(headers)

    def test_generated_headers_equal_per_header_reference(self):
        rng = random.Random(7)
        base = 1_600_000_000 // DAY * DAY
        headers = [BlockHeader(i, f"bp{chr(97 + rng.randrange(21))}",
                               base + rng.randrange(200) * DAY + rng.choice(
                                   [0.0, 0.5, 1.0, DAY - 1.0, DAY - 0.5,
                                    rng.uniform(0, DAY)]))
                   for i in range(5_000)]
        rng.shuffle(headers)
        assert monthly_production(headers) == brute_monthly_production(headers)
        rep = producer_turnover(headers)
        assert (rep.monthly_counts, rep.cumulative_counts, rep.active_days) == \
            brute_producer_turnover(headers)
