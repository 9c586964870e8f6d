"""Deterministic replay of an action trace into a time-evolving voting state.

Every direct voter (a registered proxy pooling its delegators' stake) has its
stake tallied as an exact integer per candidate it votes for and per vote
week; an action adds the signed change it makes to each tally it touches.
Candidate weights are summed from the tallies when read.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .model import (
    Action,
    ActionKind,
    LedgerError,
    compute_vote_index,
    compute_vote_weight,
    vote_week,
)


# ActionKind.X is an enum member lookup, about 100 ns on Python 3.11 against
# under 10 for a global, so the per-action code compares kinds against these.
_DELEGATE_BW, _UNDELEGATE_BW = ActionKind.DELEGATE_BW, ActionKind.UNDELEGATE_BW
_REG_PRODUCER, _REG_PROXY = ActionKind.REG_PRODUCER, ActionKind.REG_PROXY
_VOTE_PRODUCER = ActionKind.VOTE_PRODUCER


class ReplayError(LedgerError):
    """Fatal replay failure (unsorted trace, pre-state violation)."""


@dataclass(slots=True)
class AccountRecord:
    stake: int = 0
    last_vote_time: Optional[int] = None
    votes: tuple[str, ...] = ()
    proxy: Optional[str] = None
    is_proxy: bool = False
    creator: Optional[str] = None
    proxied_stake: int = 0  # summed stake of the accounts whose proxy this is


@dataclass(frozen=True, slots=True)
class VoterEntry:
    """Per-voter slice of a snapshot, proxy indirection already resolved.
    `votes` is a tuple of the state's, shared, not copied: of the candidates
    the voter's stake backs (its proxy's, for a delegator). A snapshot reuses
    the entry of the snapshot before where the two are equal, so `votes` may
    be the tuple the state had at an earlier sample, equal to its own."""

    votes: tuple[str, ...]
    stake: int
    is_proxy: bool
    proxied_stake: int
    weight: float
    via_proxy: bool


@dataclass(frozen=True)
class VotingSnapshot:
    taken_at: int
    per_voter: dict[str, VoterEntry]


@dataclass(frozen=True)
class RejectedAction:
    action: Action
    reason: str


class _Rejection(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class VotingState:
    """Replayed world state; mutate only through apply()/replay()."""

    def __init__(self) -> None:
        self.accounts: dict[str, AccountRecord] = {}
        self.delegators: dict[str, set[str]] = {}
        self.as_of: tuple[int, int] = (0, 0)  # (block_height, timestamp)
        self.log: list[str] = []
        # registered candidate -> vote week -> stake its voting units give it
        self.tallies: dict[str, dict[int, int]] = {}
        self._weights: dict[str, float] = {}
        self._stale: set[str] = set()  # candidates whose weight is out of date
        # the last snapshot's entries, which the next one reuses where equal
        self._entries: dict[str, VoterEntry] = {}
        # Set by the fold: the trace lines it read, rejected ones included,
        # and the last one's timestamp (0.0 for an empty trace).
        self.actions_read = 0
        self.end_time: float = 0.0

    # -- the voting-power rule -----------------------------------------------

    def backing(self, name: str) -> tuple[tuple[str, ...], float]:
        """(votes, weight): the candidates name's stake is counted for, and
        the vote weight of that stake alone. A direct voter backs its own
        votes at the index of its last vote; a delegator backs its registered
        proxy's votes, possibly none, at the index of the proxy's last vote.
        Any other account backs nothing: ((), 0.0)."""
        acct = voter = self.accounts[name]
        if acct.proxy is not None:
            voter = self.accounts[acct.proxy]
            if not voter.is_proxy or voter.last_vote_time is None:
                return (), 0.0
        elif not acct.votes:
            return (), 0.0
        return voter.votes, compute_vote_weight(
            acct.stake, compute_vote_index(voter.last_vote_time))

    def _shift(self, name: Optional[str], delta: int, pooled: bool = False) -> None:
        """Add delta, which may be negative, to the stake name's voting unit,
        if it is one, adds to the tally of its vote week of each candidate it
        votes for; a tally that reaches 0 is dropped. With pooled, delta is a
        change to the stake name pools as a proxy, which counts for the
        tallies only while name is registered."""
        acct = self.accounts.get(name)
        if acct is None:
            return
        if pooled:
            acct.proxied_stake += delta
            if not acct.is_proxy:
                return
        if not delta or acct.proxy is not None or not acct.votes:
            return
        week = vote_week(acct.last_vote_time)
        for cand in acct.votes:
            weeks = self.tallies[cand]
            stake = weeks.get(week, 0) + delta
            if stake:
                weeks[week] = stake
            else:
                del weeks[week]
        self._stale.update(acct.votes)

    @property
    def candidates(self) -> dict[str, float]:
        """Received weight per registered candidate: the fsum over its vote
        weeks of stake * 2^(week/52)."""
        self._settle()
        return self._weights

    def _settle(self) -> None:
        """Sum the weights of the candidates whose tallies changed since the
        last read, in name order; an overflow raises LedgerError."""
        for cand in sorted(self._stale):
            try:
                self._weights[cand] = math.fsum(
                    compute_vote_weight(stake, week / 52)
                    for week, stake in self.tallies[cand].items())
            except OverflowError:
                raise LedgerError(
                    f"vote weight overflow for candidate '{cand}'") from None
        self._stale.clear()

    def _ensure_account(self, name: str) -> AccountRecord:
        # Unknown actors (genesis accounts) are materialized with no creator.
        acct = self.accounts.get(name)
        if acct is None:
            acct = AccountRecord()
            self.accounts[name] = acct
        return acct

    # -- transition rules ----------------------------------------------------

    def apply(self, action: Action) -> "VotingState":
        if action.block < self.as_of[0]:
            raise ReplayError(
                f"action block {action.block} precedes state height {self.as_of[0]}")
        self._HANDLERS[action.kind](self, action)
        self.as_of = (action.block, action.timestamp)
        return self

    def _apply_newaccount(self, action: Action) -> None:
        created = action.payload["created"]
        if created in self.accounts:
            raise _Rejection(f"account '{created}' already exists")
        self._ensure_account(action.actor)
        self.accounts[created] = AccountRecord(creator=action.actor)

    def _apply_delegatebw(self, action: Action) -> None:
        self._restake(action.actor, action.payload["amount"])

    def _apply_undelegatebw(self, action: Action) -> None:
        acct = self._ensure_account(action.actor)
        amount = action.payload["amount"]
        if amount > acct.stake:
            raise _Rejection(
                f"undelegate {amount} exceeds staked {acct.stake} of '{action.actor}'")
        self._restake(action.actor, -amount)

    def _restake(self, name: str, delta: int) -> None:
        acct = self._ensure_account(name)
        acct.stake += delta
        if acct.proxy is None:
            self._shift(name, delta)
        else:
            self._shift(acct.proxy, delta, pooled=True)

    def _apply_regproducer(self, action: Action) -> None:
        self._ensure_account(action.actor)
        self.tallies.setdefault(action.actor, {})
        self._weights.setdefault(action.actor, 0.0)

    def _apply_regproxy(self, action: Action) -> None:
        acct = self._ensure_account(action.actor)
        isproxy = action.payload["isproxy"]
        if isproxy and acct.proxy is not None:
            raise _Rejection("cannot register as proxy while delegating to one")
        if not isproxy and acct.is_proxy and self.delegators.get(action.actor):
            self.log.append(
                f"proxy '{action.actor}' deregistered at {action.timestamp} with "
                f"{len(self.delegators[action.actor])} delegators; pooled "
                "contributions suspended until re-registration")
        if isproxy != acct.is_proxy:
            self._shift(action.actor, acct.proxied_stake * (1 if isproxy else -1))
        acct.is_proxy = isproxy

    def _apply_voteproducer(self, action: Action) -> None:
        acct = self._ensure_account(action.actor)
        proxy = action.payload["proxy"] or None
        producers: tuple[str, ...] = ()
        if proxy is not None:
            if proxy == action.actor:
                raise _Rejection("account cannot delegate to itself")
            if acct.is_proxy:
                raise _Rejection("a registered proxy cannot vote through a proxy")
            target = self.accounts.get(proxy)
            if target is None or not target.is_proxy:
                raise _Rejection(f"'{proxy}' is not a registered proxy")
        else:
            producers = tuple(action.payload["producers"])
            unknown = [p for p in producers if p not in self.tallies]
            if unknown:
                raise _Rejection(f"vote for unregistered candidate '{unknown[0]}'")
        stake = acct.stake + (acct.proxied_stake if acct.is_proxy else 0)
        self._shift(action.actor, -stake)  # from the old votes, if any
        if proxy != acct.proxy:
            if acct.proxy is not None:
                self.delegators[acct.proxy].discard(action.actor)
            self._shift(acct.proxy, -acct.stake, pooled=True)
            if proxy is not None:
                self.delegators.setdefault(proxy, set()).add(action.actor)
            self._shift(proxy, acct.stake, pooled=True)
        acct.proxy = proxy
        acct.votes = producers
        acct.last_vote_time = action.timestamp
        self._shift(action.actor, stake)  # to the new ones

    _HANDLERS = {
        ActionKind.NEW_ACCOUNT: _apply_newaccount,
        ActionKind.DELEGATE_BW: _apply_delegatebw,
        ActionKind.UNDELEGATE_BW: _apply_undelegatebw,
        ActionKind.REG_PRODUCER: _apply_regproducer,
        ActionKind.REG_PROXY: _apply_regproxy,
        ActionKind.VOTE_PRODUCER: _apply_voteproducer,
    }

    # -- queries -------------------------------------------------------------

    def top_producers(self, n: int = 21) -> list[str]:
        """Top-n candidates by received weight, ties broken by ascending name."""
        if n < 1:
            raise ValueError("n must be >= 1")
        ranked = sorted(self.candidates.items(), key=lambda kv: (-kv[1], kv[0]))
        return [name for name, _ in ranked[:n]]

    def snapshot(self, taken_at: int) -> VotingSnapshot:
        """The voters' entries now. An entry equal to the voter's entry in
        the last snapshot taken of this state is that entry; equal entries
        are interchangeable, as no weight is -0.0 or NaN."""
        last, per_voter = self._entries, {}
        for name in sorted(self.accounts):
            acct = self.accounts[name]
            if not (acct.votes or acct.proxy is not None or acct.is_proxy):
                continue
            votes, weight = self.backing(name)
            # in VoterEntry's field order
            fields = (votes, acct.stake, acct.is_proxy, acct.proxied_stake, weight,
                      acct.proxy is not None)
            entry = last.get(name)
            if entry is None or fields != (entry.votes, entry.stake, entry.is_proxy,
                                           entry.proxied_stake, entry.weight,
                                           entry.via_proxy):
                entry = VoterEntry(*fields)
            per_voter[name] = entry
        self._settle()  # a weight overflow fails the fold at this sample
        self._entries = per_voter
        return VotingSnapshot(taken_at=taken_at, per_voter=per_voter)


class VoteLog:
    """Replay observer: the fold's one log of what each source backs. After
    each action it logs one row per source the action may re-point or
    re-weigh: the source, the time, the votes it backs and their weight (as
    VotingState.backing gives them), and its mark in `direct`. The rows of a
    direct vote are the voter's own, marked OWN, then, since a proxy's vote
    re-points its delegators, one per delegator in name order, marked
    DELEGATED; every other row is marked 0.

    A row outside a direct vote, backing no one when its source's last row
    (if any) did too, opens and closes no edge, and is not logged.
    """

    OWN, DELEGATED = 1, 2

    def __init__(self) -> None:
        self.candidates: set[str] = set()  # the registered ones
        self.sources: dict[str, int] = {}  # name -> number, in order of first row
        self.vote_sets: dict[tuple[str, ...], int] = {}
        self.src = array("i")
        self.time = array("d")
        self.votes = array("i")
        self.weight = array("d")
        self.direct = array("b")
        self._backs: dict[str, bool] = {}  # whether a source's last row backs anyone

    def __call__(self, action: Action, state: VotingState) -> None:
        kind, actor = action.kind, action.actor
        mark = rest = 0  # the first source's mark, and the others'
        if kind is _DELEGATE_BW or kind is _UNDELEGATE_BW:
            affected = (actor,)
        elif kind is _REG_PROXY or kind is _VOTE_PRODUCER:
            affected = [actor, *sorted(state.delegators.get(actor, ()))]
            if kind is _VOTE_PRODUCER and not action.payload["proxy"]:
                mark, rest = self.OWN, self.DELEGATED
        else:
            if kind is _REG_PRODUCER:
                self.candidates.add(actor)
            return
        sources, vote_sets, backs = self.sources, self.vote_sets, self._backs
        for src in affected:
            votes, weight = state.backing(src)
            if votes or mark or backs.get(src):
                backs[src] = bool(votes)
                self.src.append(sources.setdefault(src, len(sources)))
                self.time.append(action.timestamp)
                self.votes.append(vote_sets.setdefault(votes, len(vote_sets)))
                self.weight.append(weight)
                self.direct.append(mark)
            mark = rest


Observer = Callable[[Action, VotingState], None]
# times(first, last): the ascending sample times of a trace whose first and
# last actions are stamped first and last (both None for an empty trace).
# With last=inf, the times as far as they go while the last is not known.
SampleTimes = Callable[[Optional[int], Optional[float]], Iterable[float]]


def _fold(actions: Iterable[Action], observers: Sequence[Observer],
          times: Optional[SampleTimes],
          sample: Optional[Callable[[VotingState, float], Any]],
          ) -> tuple[VotingState, list[RejectedAction], Optional[list]]:
    """The one fold of a trace in the package.

    The actions may come one at a time from a file; the fold keeps none of
    them but the rejected ones. Each observer is called as observer(action,
    state) after every applied action; rejected actions are logged instead.
    At each sample time t, sample(state, t) (default VotingState.snapshot)
    sees the state after every action before the first one stamped after t.
    The times come from times(first, inf) as the actions do and are checked
    at the end against times(first, last); the samples are None if a time due
    before the end was not taken, which only timestamps that run back cause.

    Errors come in the order of a check of the whole trace before the fold:
    an unsorted pair before any replay error, and both only once every
    action is read, so that a ParseError from a lazy source comes first.
    """
    state = VotingState()
    rejected: list[RejectedAction] = []
    samples: Optional[list] = []
    taken: list[float] = []  # the time of each sample
    if sample is None:
        sample = VotingState.snapshot
    pending: Iterator[float] = iter(())
    # the next sample time; -inf has the first action start the times
    due = -math.inf if times is not None else math.inf
    first: Optional[int] = None
    latest = -math.inf
    failure: Optional[LedgerError] = None
    in_order = True
    prev: tuple = (-math.inf,)
    count = 0
    for count, action in enumerate(actions, 1):
        key = action.order_key()
        if key < prev and in_order:
            in_order = False
            failure = ReplayError(
                f"trace not sorted: action (block={action.block}, seq={action.seq}) "
                f"after (block={prev[0]}, seq={prev[1]})")
        prev = key
        if failure is not None:
            continue
        stamp = action.timestamp
        if stamp > latest:
            latest = stamp
        try:
            while stamp > due:
                if first is None:
                    first = stamp
                    pending = iter(times(first, math.inf))
                else:
                    samples.append(sample(state, due))
                    taken.append(due)
                due = next(pending, math.inf)
            try:
                state.apply(action)
            except _Rejection as exc:
                rejected.append(RejectedAction(action, exc.reason))
                continue
            for observe in observers:
                observe(action, state)
        except LedgerError as exc:
            failure = exc
    if failure is not None:
        raise failure
    state.actions_read = count
    if count:
        state.end_time = action.timestamp
    if times is not None:
        exact = iter(times(first, action.timestamp if count else None))
        if list(islice(exact, len(taken))) != taken:
            samples = None
        else:
            for due in exact:
                if due < latest:  # due before the last action, not taken
                    samples = None
                    break
                samples.append(sample(state, due))
    state._settle()  # a weight overflow fails the fold, not a later read
    return state, rejected, samples


def replay(trace: Iterable[Action], observers: Sequence[Observer] = (),
           ) -> tuple[VotingState, list[RejectedAction]]:
    """Left-fold a sorted trace; rejected actions are logged, not fatal.
    Observers see each applied action with the state after it."""
    state, rejected, _ = _fold(trace, observers, None, None)
    return state, rejected


def replay_with_snapshots(
    trace: Iterable[Action], sample_times: Iterable[float] | SampleTimes,
    observers: Sequence[Observer] = (),
    sample: Optional[Callable[[VotingState, float], Any]] = None,
) -> tuple[VotingState, list[RejectedAction], Optional[list]]:
    """Replay, emitting a snapshot at each sample time (state as of that
    instant); `sample` replaces VotingState.snapshot as what is taken.
    `sample_times` is a collection of times, or a SampleTimes function of the
    trace's first and last timestamps; only the latter can give None for
    the samples (see _fold)."""
    if not callable(sample_times):
        ordered = sorted(sample_times)
        sample_times = lambda first, last: ordered  # noqa: E731
    return _fold(trace, observers, sample_times, sample)
