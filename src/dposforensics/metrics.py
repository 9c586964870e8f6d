"""Decentralization measures: production entropy, stake distributions,
top-share concentration, proxy share series, and producer turnover.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import SECONDS_PER_DAY, BlockHeader
from .replay import VotingSnapshot


class MetricsError(Exception):
    pass


def utc_month(ts: float) -> tuple[int, int]:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return (dt.year, dt.month)


def utc_day(ts: float) -> tuple[int, int, int]:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return (dt.year, dt.month, dt.day)


def _day_key(ts: float) -> float:
    """A time of ts's UTC day: the day's start, if ts is at least a second
    from either end of it, else ts itself (rounding to microseconds may carry
    a time that near an end into another day)."""
    if 1 <= ts % SECONDS_PER_DAY < SECONDS_PER_DAY - 1:
        return ts // SECONDS_PER_DAY * SECONDS_PER_DAY
    return ts


def utc_days(timestamps: Iterable[float]) -> list[tuple[int, int, int]]:
    """utc_day of each timestamp, converted once per _day_key."""
    days: dict[float, tuple[int, int, int]] = {}
    result = []
    for key in map(_day_key, timestamps):
        if key not in days:
            days[key] = utc_day(key)
        result.append(days[key])
    return result


def daily_production(headers: Iterable[BlockHeader]) -> Counter:
    """Blocks per (UTC day, producer), in one pass over the headers; each
    day is converted once, as in utc_days."""
    by_key = Counter((_day_key(h.timestamp), h.producer) for h in headers)
    days = utc_days([key for key, _ in by_key])  # _day_key(key) is key
    counts: Counter = Counter()
    for ((_, producer), blocks), day in zip(by_key.items(), days):
        counts[day, producer] += blocks
    return counts


def production_entropy(counts: Mapping[str, int], n: int | None = None,
                       renormalize: bool = True) -> float:
    """Shannon entropy (bits) of the per-producer block-count distribution.

    Restricts to the top-n producers by count (ties by name ascending) and,
    by default, renormalizes probabilities over that restriction so the
    result stays comparable to the log2(n) bound. With renormalize=False the
    global probabilities are summed over the top-n only (sensitivity mode).
    n=None uses every producer.
    """
    if not counts:
        raise MetricsError("no production data")
    if n is not None and n < 1:
        raise MetricsError("n must be >= 1")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    selected = ranked if n is None else ranked[:n]
    values = np.array([v for _, v in selected], dtype=float)
    total = values.sum() if renormalize else float(sum(counts.values()))
    if total <= 0:
        raise MetricsError("no production data")
    probs = values / total
    probs = probs[probs > 0]
    return float(-(probs * np.log2(probs)).sum())


def stake_distribution(snapshot: VotingSnapshot,
                       accumulate_proxies: bool = False) -> list[tuple[str, int]]:
    """Voter stakes, descending. With accumulation a proxy's entry adds the
    stakes delegated to it; proxied voters keep their own entries."""
    entries = []
    for name, voter in snapshot.per_voter.items():
        stake = voter.stake
        if accumulate_proxies and voter.is_proxy:
            stake += voter.proxied_stake
        entries.append((name, stake))
    entries.sort(key=lambda kv: (-kv[1], kv[0]))
    return entries


def top_share(distribution: Sequence[tuple[str, int]] | Sequence[int | float],
              p: float) -> float:
    """Share of the total held by the largest ceil(p*N) entries."""
    if not distribution:
        raise MetricsError("empty distribution")
    if not 0 < p <= 1:
        raise MetricsError("p must be in (0, 1]")
    values = [v[1] if isinstance(v, tuple) else v for v in distribution]
    values = sorted(values, reverse=True)
    k = math.ceil(p * len(values))
    total = sum(values)
    if total == 0:
        return 0.0
    return sum(values[:k]) / total


def powerlaw_exponent(values: Iterable[float]) -> tuple[float, float]:
    """Fit density ~ x^-alpha by least squares over a log-binned histogram.

    Bins double in width starting at the minimum value; per-bin density is
    count / width, regressed against the geometric bin center in log-log
    space. Returns (alpha, r_squared).
    """
    vals = np.asarray(list(values), dtype=float)
    if len(vals) < 10:
        raise MetricsError("need at least 10 values for a power-law fit")
    if np.any(vals <= 0):
        raise MetricsError("power-law fit requires positive values")
    lo, hi = vals.min(), vals.max()
    edges = [lo]
    while edges[-1] <= hi:
        edges.append(edges[-1] * 2.0)
    counts, _ = np.histogram(vals, bins=edges)
    widths = np.diff(edges)
    centers = np.sqrt(np.array(edges[:-1]) * np.array(edges[1:]))
    mask = counts > 0
    if mask.sum() < 2:
        raise MetricsError("degenerate input: fewer than 2 occupied bins")
    x = np.log(centers[mask])
    y = np.log(counts[mask] / widths[mask])
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(-slope), r_squared


@dataclass(frozen=True)
class SharePoint:
    timestamp: int
    all_value: float
    proxied_value: float

    @property
    def share(self) -> float:
        return self.proxied_value / self.all_value if self.all_value > 0 else 0.0


def proxy_share_series(snapshots: Sequence[VotingSnapshot]) -> dict[str, list[SharePoint]]:
    """Per snapshot: proxied share of voter count, of staked tokens, and of
    voting weight. A voter counts as proxied when it delegates to a proxy."""
    series: dict[str, list[SharePoint]] = {"count": [], "stake": [], "weight": []}
    for snap in snapshots:
        voters = [v for v in snap.per_voter.values()
                  if v.votes or v.via_proxy]
        n_all = len(voters)
        n_prox = sum(1 for v in voters if v.via_proxy)
        s_all = sum(v.stake for v in voters)
        s_prox = sum(v.stake for v in voters if v.via_proxy)
        w_all = sum(v.weight for v in voters)
        w_prox = sum(v.weight for v in voters if v.via_proxy)
        series["count"].append(SharePoint(snap.taken_at, n_all, n_prox))
        series["stake"].append(SharePoint(snap.taken_at, s_all, s_prox))
        series["weight"].append(SharePoint(snap.taken_at, w_all, w_prox))
    return series


@dataclass(frozen=True)
class TurnoverReport:
    monthly_counts: dict[tuple[int, int], int]
    cumulative_counts: list[tuple[tuple[int, int], int]]
    active_days: dict[str, int]


def producer_turnover(headers: Iterable[BlockHeader]) -> TurnoverReport:
    """Distinct producers per UTC month, cumulative distinct producers, and
    distinct production days per producer."""
    return turnover_of(daily_production(headers))


def turnover_of(daily: Mapping[tuple, int]) -> TurnoverReport:
    """producer_turnover from the daily_production counts."""
    monthly: dict[tuple[int, int], set[str]] = {}
    days: dict[str, set[tuple[int, int, int]]] = {}
    for day, producer in daily:
        monthly.setdefault(day[:2], set()).add(producer)
        days.setdefault(producer, set()).add(day)
    seen: set[str] = set()
    cumulative = []
    for month in sorted(monthly):
        seen |= monthly[month]
        cumulative.append((month, len(seen)))
    return TurnoverReport(
        monthly_counts={m: len(s) for m, s in sorted(monthly.items())},
        cumulative_counts=cumulative,
        active_days={p: len(d) for p, d in sorted(days.items())},
    )


def monthly_production(headers: Iterable[BlockHeader]) -> dict[tuple[int, int], dict[str, int]]:
    """Blocks produced per producer, bucketed by UTC month."""
    return production_by_month(daily_production(headers))


def production_by_month(daily: Mapping[tuple, int]) -> dict[tuple[int, int], dict[str, int]]:
    """monthly_production from the daily_production counts."""
    result: dict[tuple[int, int], dict[str, int]] = {}
    for (day, producer), blocks in daily.items():
        month = result.setdefault(day[:2], {})
        month[producer] = month.get(producer, 0) + blocks
    return {m: dict(sorted(c.items())) for m, c in sorted(result.items())}
