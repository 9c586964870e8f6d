"""Deterministic replay of an action trace into a time-evolving voting state.

The state keeps candidate received weights incrementally in sync: every
account (or proxy pool) has an "applied" contribution recorded against the
candidate table, and any action that can change a contribution refreshes it.
A voter voting for k candidates contributes its full weight to each of them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import pairwise
from typing import Any, Callable, Iterable, Optional, Sequence

from .model import (
    Action,
    ActionKind,
    LedgerError,
    compute_vote_index,
    compute_vote_weight,
)


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


@dataclass(frozen=True, slots=True)
class VoterEntry:
    """Per-voter slice of a snapshot, proxy indirection already resolved."""

    effective: frozenset[str]
    stake: int
    is_proxy: bool
    proxied_stake: int
    weight: float
    via_proxy: bool


@dataclass(frozen=True)
class VotingSnapshot:
    taken_at: int
    per_voter: dict[str, VoterEntry]
    per_candidate: dict[str, float]


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
        self.candidates: dict[str, float] = {}
        self.delegators: dict[str, set[str]] = {}
        self.as_of: tuple[int, int] = (0, 0)  # (block_height, timestamp)
        self.log: list[str] = []
        # name -> (weight, votes) currently added into self.candidates
        self._applied: dict[str, tuple[float, tuple[str, ...]]] = {}

    # -- contribution bookkeeping -------------------------------------------

    def unit_weight(self, name: str) -> float:
        """Current contribution weight of a voting unit (direct voter or proxy pool)."""
        acct = self.accounts[name]
        if acct.last_vote_time is None:
            return 0.0
        index = compute_vote_index(acct.last_vote_time)
        weight = compute_vote_weight(acct.stake, index)
        if acct.is_proxy:
            for delegator in self.delegators.get(name, ()):
                weight += compute_vote_weight(self.accounts[delegator].stake, index)
        return weight

    def _refresh(self, name: str) -> None:
        acct = self.accounts.get(name)
        old_weight, old_votes = self._applied.get(name, (0.0, ()))
        for cand in old_votes:
            self.candidates[cand] -= old_weight
        new_votes: tuple[str, ...] = ()
        new_weight = 0.0
        if acct is not None and acct.proxy is None and acct.votes:
            new_votes = acct.votes
            new_weight = self.unit_weight(name)
        for cand in new_votes:
            self.candidates[cand] += new_weight
        if new_votes:
            self._applied[name] = (new_weight, new_votes)
        else:
            self._applied.pop(name, None)

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
        self._dispatch(action)
        self.as_of = (action.block, action.timestamp)
        return self

    def _dispatch(self, action: Action) -> None:
        handler = {
            ActionKind.NEW_ACCOUNT: self._apply_newaccount,
            ActionKind.DELEGATE_BW: self._apply_delegatebw,
            ActionKind.UNDELEGATE_BW: self._apply_undelegatebw,
            ActionKind.REG_PRODUCER: self._apply_regproducer,
            ActionKind.REG_PROXY: self._apply_regproxy,
            ActionKind.VOTE_PRODUCER: self._apply_voteproducer,
        }[action.kind]
        handler(action)

    def _apply_newaccount(self, action: Action) -> None:
        created = action.payload["created"]
        if created in self.accounts:
            raise _Rejection(f"account '{created}' already exists")
        self._ensure_account(action.actor)
        self.accounts[created] = AccountRecord(creator=action.actor)

    def _apply_delegatebw(self, action: Action) -> None:
        acct = self._ensure_account(action.actor)
        acct.stake += action.payload["amount"]
        self._refresh_stake_dependents(action.actor)

    def _apply_undelegatebw(self, action: Action) -> None:
        acct = self._ensure_account(action.actor)
        amount = action.payload["amount"]
        if amount > acct.stake:
            raise _Rejection(
                f"undelegate {amount} exceeds staked {acct.stake} of '{action.actor}'")
        acct.stake -= amount
        self._refresh_stake_dependents(action.actor)

    def _refresh_stake_dependents(self, name: str) -> None:
        acct = self.accounts[name]
        if acct.proxy is not None:
            self._refresh(acct.proxy)
        else:
            self._refresh(name)

    def _apply_regproducer(self, action: Action) -> None:
        self._ensure_account(action.actor)
        self.candidates.setdefault(action.actor, 0.0)

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
        acct.is_proxy = isproxy
        self._refresh(action.actor)

    def _apply_voteproducer(self, action: Action) -> None:
        acct = self._ensure_account(action.actor)
        proxy = action.payload["proxy"]
        if proxy:
            if proxy == action.actor:
                raise _Rejection("account cannot delegate to itself")
            if acct.is_proxy:
                raise _Rejection("a registered proxy cannot vote through a proxy")
            target = self.accounts.get(proxy)
            if target is None or not target.is_proxy:
                raise _Rejection(f"'{proxy}' is not a registered proxy")
            old_proxy = acct.proxy
            if old_proxy is not None:
                self.delegators[old_proxy].discard(action.actor)
            acct.votes = ()
            acct.proxy = proxy
            acct.last_vote_time = action.timestamp
            self.delegators.setdefault(proxy, set()).add(action.actor)
            self._refresh(action.actor)
            if old_proxy is not None and old_proxy != proxy:
                self._refresh(old_proxy)
            self._refresh(proxy)
            return
        producers = tuple(action.payload["producers"])
        unknown = [p for p in producers if p not in self.candidates]
        if unknown:
            raise _Rejection(f"vote for unregistered candidate '{unknown[0]}'")
        old_proxy = acct.proxy
        if old_proxy is not None:
            self.delegators[old_proxy].discard(action.actor)
            acct.proxy = None
        acct.votes = producers
        acct.last_vote_time = action.timestamp
        self._refresh(action.actor)
        if old_proxy is not None:
            self._refresh(old_proxy)

    # -- queries -------------------------------------------------------------

    def top_producers(self, n: int = 21) -> list[str]:
        """Top-n candidates by received weight, ties broken by ascending name."""
        if n < 1:
            raise ValueError("n must be >= 1")
        ranked = sorted(self.candidates.items(), key=lambda kv: (-kv[1], kv[0]))
        return [name for name, _ in ranked[:n]]

    def proxied_stake(self, name: str) -> int:
        return sum(self.accounts[d].stake for d in self.delegators.get(name, ()))

    def snapshot(self, taken_at: int) -> VotingSnapshot:
        per_voter: dict[str, VoterEntry] = {}
        # Voters sharing a votes tuple (every delegator of one proxy) share
        # one frozenset.
        shared: dict[tuple[str, ...], frozenset[str]] = {}
        for name in sorted(self.accounts):
            acct = self.accounts[name]
            if not (acct.votes or acct.proxy is not None or acct.is_proxy):
                continue
            effective: frozenset[str] = frozenset()
            weight = 0.0
            via_proxy = False
            if acct.proxy is not None:
                via_proxy = True
                proxy_acct = self.accounts.get(acct.proxy)
                if proxy_acct is not None and proxy_acct.is_proxy:
                    effective = shared.setdefault(proxy_acct.votes,
                                                  frozenset(proxy_acct.votes))
                    if proxy_acct.last_vote_time is not None:
                        weight = compute_vote_weight(
                            acct.stake, compute_vote_index(proxy_acct.last_vote_time))
            else:
                effective = shared.setdefault(acct.votes, frozenset(acct.votes))
                if acct.votes and acct.last_vote_time is not None:
                    weight = compute_vote_weight(
                        acct.stake, compute_vote_index(acct.last_vote_time))
            per_voter[name] = VoterEntry(
                effective=effective,
                stake=acct.stake,
                is_proxy=acct.is_proxy,
                proxied_stake=self.proxied_stake(name),
                weight=weight,
                via_proxy=via_proxy,
            )
        return VotingSnapshot(
            taken_at=taken_at,
            per_voter=per_voter,
            per_candidate=dict(sorted(self.candidates.items())),
        )

    def canonical_json(self) -> str:
        """Sorted-keys serialization used for determinism digests."""
        accounts = {
            name: {
                "stake": acct.stake,
                "last_vote_time": acct.last_vote_time,
                "votes": list(acct.votes),
                "proxy": acct.proxy,
                "is_proxy": acct.is_proxy,
                "creator": acct.creator,
            }
            for name, acct in sorted(self.accounts.items())
        }
        return json.dumps({
            "as_of": list(self.as_of),
            "accounts": accounts,
            "candidates": {k: round(v, 6) for k, v in sorted(self.candidates.items())},
        }, sort_keys=True, separators=(",", ":"))


Observer = Callable[[Action, VotingState], None]


def _check_sorted(trace: Sequence[Action]) -> None:
    for prev, cur in pairwise(trace):
        if cur.order_key() < prev.order_key():
            raise ReplayError(
                f"trace not sorted: action (block={cur.block}, seq={cur.seq}) "
                f"after (block={prev.block}, seq={prev.seq})")


def _fold(trace: Sequence[Action], observers: Sequence[Observer],
          sample_times: Iterable[float],
          sample: Optional[Callable[[VotingState, float], Any]],
          ) -> tuple[VotingState, list[RejectedAction], list]:
    """The one fold of a trace in the package.

    Each observer is called as observer(action, state) after every applied
    action; rejected actions are logged instead. At each sample time t,
    sample(state, t) (default VotingState.snapshot) sees the state after every
    action stamped at or before t.
    """
    _check_sorted(trace)
    times = sorted(sample_times)
    state = VotingState()
    rejected: list[RejectedAction] = []
    samples: list = []
    if sample is None:
        sample = VotingState.snapshot
    idx = 0
    for action in trace:
        while idx < len(times) and action.timestamp > times[idx]:
            samples.append(sample(state, times[idx]))
            idx += 1
        try:
            state.apply(action)
        except _Rejection as exc:
            rejected.append(RejectedAction(action, exc.reason))
            continue
        for observe in observers:
            observe(action, state)
    while idx < len(times):
        samples.append(sample(state, times[idx]))
        idx += 1
    return state, rejected, samples


def replay(trace: Sequence[Action], observers: Sequence[Observer] = (),
           ) -> tuple[VotingState, list[RejectedAction]]:
    """Left-fold a sorted trace; rejected actions are logged, not fatal.
    Observers see each applied action with the state after it."""
    state, rejected, _ = _fold(trace, observers, (), None)
    return state, rejected


def replay_with_snapshots(
    trace: Sequence[Action], sample_times: Iterable[float],
    observers: Sequence[Observer] = (),
    sample: Optional[Callable[[VotingState, float], Any]] = None,
) -> tuple[VotingState, list[RejectedAction], list]:
    """Replay, emitting a snapshot at each sample time (state as of that
    instant); `sample` replaces VotingState.snapshot as what is taken."""
    return _fold(trace, observers, sample_times, sample)
