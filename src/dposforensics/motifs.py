"""Mutual-voting motif detection: linear, triangular, and eight-shaped
patterns within a sliding time window, with monthly occurrence series.

Vote events are the flattened voteproducer actions: a direct vote yields one
event per chosen candidate, and a proxy's vote additionally yields one event
per currently delegating account with the proxy recorded on the event. They
are read from the direct-vote rows of the fold's VoteLog, to the events
between candidates when that is all the detectors read; the detectors take
the events as they are given.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence

from .model import Action
from .metrics import utc_month
from .replay import VoteLog, replay

DEFAULT_WINDOW = 7 * 86_400

LINEAR = "linear"
TRIANGULAR = "triangular"
EIGHT = "eight"


@dataclass(frozen=True, slots=True)
class VoteEvent:
    src: str
    dst: str
    via_proxy: Optional[str]
    timestamp: int


@dataclass(frozen=True)
class MotifInstance:
    shape: str
    participants: tuple[str, ...]
    witnesses: tuple[VoteEvent, ...]

    @property
    def window_start(self) -> int:
        return min(e.timestamp for e in self.witnesses)


def vote_events(log: VoteLog, candidates: Optional[set[str]] = None
                ) -> list[VoteEvent]:
    """The direct votes of a fold's log flattened in vote order: per chosen
    candidate, the voter's own event, then one per delegator via the voter,
    in name order. With `candidates`, only the events between two
    candidates."""
    names, vote_sets = list(log.sources), list(log.vote_sets)
    # per direct vote: the voter, its candidates, the time, and the
    # delegators it re-points, those of a registered proxy
    records: list[tuple[str, tuple[str, ...], int, list[str]]] = []
    for row in compress(range(len(log.direct)), log.direct):
        name, votes = names[log.src[row]], vote_sets[log.votes[row]]
        if log.direct[row] == VoteLog.OWN:
            delegators: list[str] = []
            records.append((name, votes, int(log.time[row]), delegators))
        elif votes:
            delegators.append(name)
    events = []
    for actor, producers, timestamp, delegators in records:
        own = True
        if candidates is not None:
            own = actor in candidates
            delegators = [d for d in delegators if d in candidates]
            if not (own or delegators):
                continue
            producers = tuple(c for c in producers if c in candidates)
        for cand in producers:
            if own:
                events.append(VoteEvent(actor, cand, None, timestamp))
            for delegator in delegators:
                events.append(VoteEvent(delegator, cand, actor, timestamp))
    return events


def build_vote_events(trace: Iterable[Action]) -> list[VoteEvent]:
    """Replay the trace and flatten applied voteproducer actions to events."""
    log = VoteLog()
    replay(trace, [log])
    return vote_events(log)


def _index_events(events: Sequence[VoteEvent]):
    """(src, dst) -> [(timestamp, proxy)] for direct and for proxied events."""
    direct: dict[tuple[str, str], list[tuple[int, None]]] = {}
    proxied: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for e in events:
        if e.src == e.dst:
            continue  # self-votes carry no mutual-voting signal
        index = direct if e.via_proxy is None else proxied
        index.setdefault((e.src, e.dst), []).append((e.timestamp, e.via_proxy))
    return direct, proxied


def _pair_join(shape: str, forward: dict, backward: dict, window: int,
               ordered: bool) -> list[MotifInstance]:
    """Join a -> b events of `forward` with b -> a events of `backward` that
    lie within the window; one instance per (participants, UTC month of the
    earlier event), keeping the earliest. Participants are role-ordered
    (a, proxy of a -> b, b, proxy of b -> a), direct legs contributing no
    proxy. `ordered` keeps only a < b, for shapes symmetric in a and b."""
    found: dict[tuple, MotifInstance] = {}
    for (a, b) in sorted(forward):
        if (ordered and a >= b) or (b, a) not in backward:
            continue
        for t1, p1 in forward[(a, b)]:
            for t2, p2 in backward[(b, a)]:
                if abs(t1 - t2) > window:
                    continue
                participants = tuple(x for x in (a, p1, b, p2) if x is not None)
                key = participants + (utc_month(min(t1, t2)),)
                inst = MotifInstance(shape, participants, (
                    VoteEvent(a, b, p1, t1), VoteEvent(b, a, p2, t2)))
                if key not in found or inst.window_start < found[key].window_start:
                    found[key] = inst
    return [found[k] for k in sorted(found)]


def detect_linear(events: Sequence[VoteEvent],
                  window: int = DEFAULT_WINDOW) -> list[MotifInstance]:
    """Pairs voting for each other directly within the window; one instance
    per (pair, UTC month of the earlier event)."""
    direct, _ = _index_events(events)
    return _pair_join(LINEAR, direct, direct, window, ordered=True)


def detect_triangular(events: Sequence[VoteEvent],
                      window: int = DEFAULT_WINDOW) -> list[MotifInstance]:
    """Triples (a, p, b): a votes b through proxy p and b votes a directly,
    both within the window. Participants are role-ordered (a, p, b)."""
    direct, proxied = _index_events(events)
    return _pair_join(TRIANGULAR, proxied, direct, window, ordered=False)


def detect_eight(events: Sequence[VoteEvent],
                 window: int = DEFAULT_WINDOW) -> list[MotifInstance]:
    """Quadruples (a, p1, b, p2): a votes b through p1 and b votes a through
    p2, within the window. The same proxy account may fill both slots.
    Canonical orientation puts min(a, b) first."""
    _, proxied = _index_events(events)
    return _pair_join(EIGHT, proxied, proxied, window, ordered=True)


def motif_series(instances: Sequence[MotifInstance]) -> dict[str, dict[tuple[int, int], int]]:
    """Monthly instance counts per shape, keyed by UTC month of window start."""
    series: dict[str, Counter] = {LINEAR: Counter(), TRIANGULAR: Counter(),
                                  EIGHT: Counter()}
    for inst in instances:
        series[inst.shape][utc_month(inst.window_start)] += 1
    return {shape: dict(sorted(counts.items())) for shape, counts in series.items()}
