"""Seeded synthetic DPoS ledger generator with planted anomalies.

Emits a sorted, fully replayable action trace, a block-header schedule with
21 producers per round (6 blocks each, 0.5 s spacing, 63 s rounds), and a
ground-truth record for every plant so detectors can be validated.

All randomness flows through named substreams of one seed, so adding a plant
does not perturb the background.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from typing import Iterator, Optional, Sequence

from .model import (
    Action,
    ActionKind,
    BlockHeader,
    MAX_VOTES,
    TIME_MAX,
    make_action,
)
from .replay import replay_with_snapshots

SIMILAR_CLUSTER = "similar_cluster"
LINEAR_GANG = "linear_gang"
TRIANGULAR_GANG = "triangular_gang"
EIGHT_GANG = "eight_gang"
NEAR_CLIQUE = "near_clique"

PLANT_KINDS = (SIMILAR_CLUSTER, LINEAR_GANG, TRIANGULAR_GANG, EIGHT_GANG,
               NEAR_CLIQUE)

ROUND_SECONDS = 63.0
BLOCKS_PER_ROUND = 126
PRODUCERS_PER_ROUND = 21
BLOCK_INTERVAL = 0.5

# 2021-01-01T00:00:00Z
DEFAULT_START = 1_609_459_200


class ConfigError(Exception):
    pass


@dataclass
class PlantSpec:
    kind: str
    size: int
    shared_creator: bool = False
    vote_jitter: float = 0.0
    months: Optional[list[int]] = None  # active month indices, None = all

    def validate(self, label: str) -> None:
        if self.kind not in PLANT_KINDS:
            raise ConfigError(f"{label}: unknown plant kind '{self.kind}'")
        if self.size < 2:
            raise ConfigError(f"{label}: size must be >= 2")
        if not 0.0 <= self.vote_jitter <= 0.1:
            raise ConfigError(f"{label}: vote_jitter must be in [0, 0.1]")

    def accounts_needed(self) -> int:
        if self.kind == SIMILAR_CLUSTER:
            return self.size
        if self.kind == LINEAR_GANG:
            return self.size
        if self.kind == TRIANGULAR_GANG:
            return self.size + self.size // 2       # voters + one proxy per pair
        if self.kind == EIGHT_GANG:
            return self.size + 2 * (self.size // 2)  # voters + two proxies per pair
        if self.kind == NEAR_CLIQUE:
            return self.size + 2                     # members + pendant decoys
        raise ConfigError(f"unknown plant kind '{self.kind}'")


@dataclass
class GenConfig:
    seed: int = 0
    n_accounts: int = 400
    n_candidates: int = 30
    n_proxies: int = 5
    stake_powerlaw_alpha: float = 1.8
    duration_days: int = 60
    plants: list[PlantSpec] = field(default_factory=list)
    proxy_weight_target: float = 0.3
    block_skip_rate: float = 0.0
    participation_rate: float = 0.05
    start_time: int = DEFAULT_START
    rounds_per_day: int = 4

    def validate(self) -> None:
        if self.n_accounts <= 0 or self.n_candidates <= 0 or self.n_proxies <= 0:
            raise ConfigError("account, candidate, and proxy counts must be positive")
        if self.n_candidates < PRODUCERS_PER_ROUND:
            raise ConfigError(
                f"need at least {PRODUCERS_PER_ROUND} candidates for block production")
        if self.duration_days < 1:
            raise ConfigError("duration must be at least one day")
        for frac_name in ("proxy_weight_target", "block_skip_rate", "participation_rate"):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{frac_name} must be in [0, 1]")
        if self.block_skip_rate >= 1.0:
            raise ConfigError("block_skip_rate must be below 1")
        if self.stake_powerlaw_alpha <= 1.0:
            raise ConfigError("stake_powerlaw_alpha must exceed 1")
        if self.rounds_per_day < 1:
            raise ConfigError("rounds_per_day must be >= 1")
        needed = 0
        for i, plant in enumerate(self.plants):
            label = f"plants[{i}] ({plant.kind})"
            plant.validate(label)
            needed += plant.accounts_needed()
            if needed > self.n_accounts:
                raise ConfigError(
                    f"{label}: plants exceed the account budget "
                    f"({needed} needed, {self.n_accounts} configured)")

    @classmethod
    def from_dict(cls, data: dict) -> "GenConfig":
        plants = [PlantSpec(**p) for p in data.pop("plants", [])]
        unknown = set(data) - {f.name for f in
                               cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        config = cls(plants=plants, **data)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str) -> "GenConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


def _encode(i: int, width: int = 5) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = []
    for _ in range(width):
        out.append(letters[i % 26])
        i //= 26
    return "".join(reversed(out))


def month_start(ts: float) -> int:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return int(datetime(dt.year, dt.month, 1, tzinfo=timezone.utc).timestamp())


def next_month_start(ts: float) -> int:
    """The start of the UTC month after ts's; after December 9999, the
    first second past TIME_MAX."""
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    if (dt.year, dt.month) == (9999, 12):
        return int(TIME_MAX) + 1
    year, month = (dt.year + 1, 1) if dt.month == 12 else (dt.year, dt.month + 1)
    return int(datetime(year, month, 1, tzinfo=timezone.utc).timestamp())


def month_windows(start_ts: int, end_ts: int) -> list[tuple[int, int]]:
    """[lo, hi) clamped overlap of each UTC month with [start_ts, end_ts)."""
    windows = []
    cursor = month_start(start_ts)
    while cursor < end_ts:
        nxt = next_month_start(cursor)
        windows.append((max(cursor, start_ts), min(nxt, end_ts)))
        cursor = nxt
    return windows


def month_ends(start_ts: int, end_ts: float) -> Iterator[int]:
    """The last instant of each month_windows(start_ts, end_ts) window, one
    at a time; end_ts may be inf."""
    cursor = month_start(start_ts)
    while cursor < end_ts:
        cursor = next_month_start(cursor)
        yield min(cursor, end_ts) - 1


def monthly_sample_times(start_ts: int, end_ts: int) -> list[int]:
    """End-of-month sample instants covering the span."""
    return list(month_ends(start_ts, end_ts))


def _pareto_stake(rng: random.Random, alpha: float, minimum_tokens: float = 1.0) -> int:
    # density ~ x^-alpha over tokens, returned in base units
    u = rng.random()
    tokens = minimum_tokens * (1.0 - u) ** (-1.0 / (alpha - 1.0))
    tokens = min(tokens, 1e9)
    return max(1, int(round(tokens * 10_000)))


class _TraceAssembler:
    def __init__(self, start_time: int):
        self.start_time = start_time
        self.raw: list[tuple[float, int, ActionKind, str, dict]] = []
        self._ordinal = 0

    def add(self, ts: float, kind: ActionKind, actor: str, payload: dict) -> None:
        self.raw.append((ts, self._ordinal, kind, actor, payload))
        self._ordinal += 1

    def build(self) -> list[Action]:
        self.raw.sort(key=lambda r: (r[0], r[1]))
        actions = []
        names: set[str] = set()  # checked once per name, as in a load
        for seq, (ts, _, kind, actor, payload) in enumerate(self.raw):
            block = int((ts - self.start_time) * 2) + 1
            actions.append(make_action(kind, actor, int(ts), block, seq, payload,
                                       names))
        return actions


@dataclass
class _Accounts:
    makers: list[str]
    background: list[str]
    candidates: list[str]
    proxies: list[str]
    plant_accounts: list[list[str]]


def _allocate_names(config: GenConfig) -> _Accounts:
    plant_accounts = []
    used = 0
    for i, plant in enumerate(config.plants):
        need = plant.accounts_needed()
        names = [f"plant{_encode(used + j)}" for j in range(need)]
        plant_accounts.append(names)
        used += need
    n_background = config.n_accounts - used
    makers = [f"maker{_encode(i)}" for i in range(max(1, config.n_accounts // 200))]
    background = [f"vt{_encode(i)}" for i in range(n_background)]
    candidates = [f"bp{_encode(i)}" for i in range(config.n_candidates)]
    proxies = [f"px{_encode(i)}" for i in range(config.n_proxies)]
    return _Accounts(makers, background, candidates, proxies, plant_accounts)


def generate_ledger(config: GenConfig) -> tuple[list[Action], list[BlockHeader], dict]:
    """Deterministically generate (trace, headers, ground truth)."""
    config.validate()
    seed = config.seed
    rng_stakes = random.Random(f"{seed}:stakes")
    rng_votes = random.Random(f"{seed}:votes")
    rng_plants = random.Random(f"{seed}:plants")
    rng_sched = random.Random(f"{seed}:schedule")

    names = _allocate_names(config)
    t0 = config.start_time
    t_end = t0 + config.duration_days * 86_400
    asm = _TraceAssembler(t0)

    cursor = float(t0)

    def tick(step: float = 1.0) -> float:
        nonlocal cursor
        cursor += step
        return cursor

    # account creation
    for maker in names.makers:
        asm.add(tick(), ActionKind.NEW_ACCOUNT, "genesis",
                {"created": maker, "creator": "genesis"})
    creation_order = (names.background + names.candidates + names.proxies)
    creators: dict[str, str] = {}
    for i, name in enumerate(creation_order):
        maker = names.makers[i % len(names.makers)]
        creators[name] = maker
        asm.add(tick(), ActionKind.NEW_ACCOUNT, maker,
                {"created": name, "creator": maker})
    for plant, accounts in zip(config.plants, names.plant_accounts):
        if plant.shared_creator:
            plant_maker = f"gmk{_encode(len(creators))}"
            asm.add(tick(), ActionKind.NEW_ACCOUNT, "genesis",
                    {"created": plant_maker, "creator": "genesis"})
        for j, name in enumerate(accounts):
            maker = plant_maker if plant.shared_creator \
                else names.makers[(len(creators) + j) % len(names.makers)]
            creators[name] = maker
            asm.add(tick(), ActionKind.NEW_ACCOUNT, maker,
                    {"created": name, "creator": maker})

    # stakes
    stakes: dict[str, int] = {}
    for name in names.background + names.candidates + names.proxies:
        stakes[name] = _pareto_stake(rng_stakes, config.stake_powerlaw_alpha)
    max_background = max(stakes.values()) if stakes else 10_000
    for i, accounts in enumerate(names.plant_accounts):
        for j, name in enumerate(accounts):
            # plant members sit above the background so top-stake preselection keeps them
            stakes[name] = max_background * 2 + (i * 97 + j) * 10_000
    for name in sorted(stakes):
        asm.add(tick(), ActionKind.DELEGATE_BW, name, {"amount": stakes[name]})

    # registrations
    plant_candidates: list[str] = []
    plant_proxies: list[str] = []
    plant_roles = _assign_plant_roles(config.plants, names.plant_accounts)
    for roles in plant_roles:
        plant_candidates.extend(roles.get("candidates", []))
        plant_proxies.extend(roles.get("proxies", []))
    for cand in names.candidates + plant_candidates:
        asm.add(tick(), ActionKind.REG_PRODUCER, cand, {})
    for proxy in names.proxies + plant_proxies:
        asm.add(tick(), ActionKind.REG_PROXY, proxy, {"isproxy": True})

    all_candidates = names.candidates + plant_candidates

    # background proxy votes, then delegations at setup
    for proxy in names.proxies:
        k = rng_votes.randint(10, min(MAX_VOTES, len(names.candidates)))
        picks = sorted(rng_votes.sample(names.candidates, k))
        asm.add(tick(), ActionKind.VOTE_PRODUCER, proxy,
                {"proxy": "", "producers": picks})

    # plant delegations (before the proxies' planted votes)
    for roles in plant_roles:
        for delegator, proxy in roles.get("delegations", []):
            asm.add(tick(), ActionKind.VOTE_PRODUCER, delegator,
                    {"proxy": proxy, "producers": []})

    vote_start = int(cursor) + 1
    if vote_start >= t_end:
        raise ConfigError("duration too short for the configured account volume")

    # background voting
    n_participants = int(round(config.participation_rate * len(names.background)))
    participants = sorted(rng_votes.sample(names.background, n_participants)) \
        if n_participants else []
    for voter in participants:
        if rng_votes.random() < config.proxy_weight_target and names.proxies:
            proxy = rng_votes.choice(names.proxies)
            ts = rng_votes.uniform(vote_start, t_end - 1)
            asm.add(ts, ActionKind.VOTE_PRODUCER, voter,
                    {"proxy": proxy, "producers": []})
        else:
            n_revotes = rng_votes.randint(1, 3)
            for _ in range(n_revotes):
                # floor of 5 keeps accidental record collisions between
                # independent background voters negligible
                k = rng_votes.randint(min(5, len(all_candidates)),
                                      min(MAX_VOTES, len(all_candidates)))
                picks = sorted(rng_votes.sample(all_candidates, k))
                ts = rng_votes.uniform(vote_start, t_end - 1)
                asm.add(ts, ActionKind.VOTE_PRODUCER, voter,
                        {"proxy": "", "producers": picks})

    # planted behavior
    windows = month_windows(vote_start, t_end)
    truth_plants = []
    for plant, roles in zip(config.plants, plant_roles):
        truth_plants.append(_emit_plant(plant, roles, windows, names, asm,
                                        rng_plants, creators))

    trace = asm.build()
    headers = _headers_for_trace(trace, config, rng_sched, t_end)
    truth = {
        "config": config.to_dict(),
        "creators": {k: creators[k] for k in sorted(creators)},
        "plants": truth_plants,
    }
    return trace, headers, truth


def _assign_plant_roles(plants: Sequence[PlantSpec],
                        plant_accounts: Sequence[list[str]]) -> list[dict]:
    """Split each plant's accounts into role lists and a delegation plan."""
    roles_list = []
    for plant, accounts in zip(plants, plant_accounts):
        roles: dict = {"members": [], "candidates": [], "proxies": [],
                       "delegations": [], "pendants": []}
        if plant.kind == SIMILAR_CLUSTER:
            roles["members"] = list(accounts)
        elif plant.kind == LINEAR_GANG:
            roles["members"] = list(accounts)
            roles["candidates"] = list(accounts)
        elif plant.kind == TRIANGULAR_GANG:
            n_pairs = plant.size // 2
            voters = accounts[:plant.size]
            proxies = accounts[plant.size:plant.size + n_pairs]
            roles["members"] = voters
            roles["candidates"] = voters
            roles["proxies"] = proxies
            roles["triples"] = []
            for i in range(n_pairs):
                a, b, p = voters[2 * i], voters[2 * i + 1], proxies[i]
                roles["delegations"].append((a, p))
                roles["triples"].append((a, p, b))
        elif plant.kind == EIGHT_GANG:
            n_pairs = plant.size // 2
            voters = accounts[:plant.size]
            proxies = accounts[plant.size:plant.size + 2 * n_pairs]
            roles["members"] = voters
            roles["candidates"] = voters
            roles["proxies"] = proxies
            roles["quads"] = []
            for i in range(n_pairs):
                a, b = voters[2 * i], voters[2 * i + 1]
                pa, pb = proxies[2 * i], proxies[2 * i + 1]
                roles["delegations"] += [(a, pa), (b, pb)]
                lo, lo_p, hi, hi_p = (a, pa, b, pb) if a < b else (b, pb, a, pa)
                roles["quads"].append((lo, lo_p, hi, hi_p))
        elif plant.kind == NEAR_CLIQUE:
            members = accounts[:plant.size]
            pendants = accounts[plant.size:plant.size + 2]
            roles["members"] = members
            roles["pendants"] = pendants
            roles["candidates"] = members + pendants
        roles_list.append(roles)
    return roles_list


def _emit_plant(plant: PlantSpec, roles: dict,
                windows: Sequence[tuple[int, int]], names: _Accounts,
                asm: _TraceAssembler, rng: random.Random,
                creators: dict[str, str]) -> dict:
    active = [i for i in range(len(windows))
              if plant.months is None or i in plant.months]
    if not active:
        active = [0]
    anchors = []
    for i in active:
        lo, hi = windows[i]
        anchors.append(lo + (hi - lo) // 2)

    record: dict = {
        "kind": plant.kind,
        "members": list(roles["members"]),
        "shared_creator": plant.shared_creator,
        "creator": creators.get(roles["members"][0]) if plant.shared_creator else None,
    }

    if plant.kind == SIMILAR_CLUSTER:
        pool = names.candidates
        k = rng.randint(10, min(MAX_VOTES, len(pool)))
        base = sorted(rng.sample(pool, k))
        record["candidate_set"] = base
        for anchor in anchors:
            for member in roles["members"]:
                picks = list(base)
                if plant.vote_jitter and rng.random() < plant.vote_jitter:
                    out = rng.choice(picks)
                    alternatives = [c for c in pool if c not in picks]
                    if alternatives:
                        picks.remove(out)
                        picks.append(rng.choice(alternatives))
                asm.add(anchor + rng.uniform(0, 3600), ActionKind.VOTE_PRODUCER,
                        member, {"proxy": "", "producers": sorted(picks)})
    elif plant.kind == LINEAR_GANG:
        members = roles["members"]
        record["pairs"] = [[a, b] for i, a in enumerate(members)
                           for b in members[i + 1:]]
        anchor = anchors[0]
        for i, member in enumerate(members):
            others = sorted(m for m in members if m != member)
            asm.add(anchor + i * 60 + rng.uniform(0, 30), ActionKind.VOTE_PRODUCER,
                    member, {"proxy": "", "producers": others})
    elif plant.kind == TRIANGULAR_GANG:
        record["triples"] = [list(t) for t in roles["triples"]]
        anchor = anchors[0]
        for i, (a, p, b) in enumerate(roles["triples"]):
            # p is a's proxy: p voting for b realizes the a->b leg via p
            asm.add(anchor + i * 120 + rng.uniform(0, 30), ActionKind.VOTE_PRODUCER,
                    p, {"proxy": "", "producers": [b]})
            asm.add(anchor + i * 120 + 60 + rng.uniform(0, 30),
                    ActionKind.VOTE_PRODUCER, b, {"proxy": "", "producers": [a]})
    elif plant.kind == EIGHT_GANG:
        record["quads"] = [list(q) for q in roles["quads"]]
        anchor = anchors[0]
        for i, (a, pa, b, pb) in enumerate(roles["quads"]):
            asm.add(anchor + i * 120 + rng.uniform(0, 30), ActionKind.VOTE_PRODUCER,
                    pa, {"proxy": "", "producers": [b]})
            asm.add(anchor + i * 120 + 60 + rng.uniform(0, 30),
                    ActionKind.VOTE_PRODUCER, pb, {"proxy": "", "producers": [a]})
    elif plant.kind == NEAR_CLIQUE:
        members = roles["members"]
        pendants = roles["pendants"]
        record["pendants"] = list(pendants)
        anchor = anchors[0]
        for i, member in enumerate(members):
            others = sorted(m for m in members if m != member)
            asm.add(anchor + i * 60 + rng.uniform(0, 30), ActionKind.VOTE_PRODUCER,
                    member, {"proxy": "", "producers": others})
        for i, pendant in enumerate(pendants):
            target = members[i % len(members)]
            asm.add(anchor + 7200 + i * 60, ActionKind.VOTE_PRODUCER,
                    pendant, {"proxy": "", "producers": [target]})
    return record


def generate_block_schedule(rounds: Sequence[Sequence[str]], start_time: float,
                            skip_rate: float = 0.0,
                            rng: Optional[random.Random] = None,
                            round_interval: float = ROUND_SECONDS,
                            start_height: int = 1) -> list[BlockHeader]:
    """Block headers for explicit per-round producer lists.

    Each round schedules 21 producers x 6 blocks at 0.5 s spacing. A skipped
    block consumes its height and slot time but emits no header.
    """
    if not 0.0 <= skip_rate < 1.0:
        raise ConfigError("skip_rate must be in [0, 1)")
    if round_interval < ROUND_SECONDS:
        raise ConfigError("round_interval must cover the 63-second round")
    rng = rng or random.Random(0)
    headers = []
    height = start_height
    for r, producers in enumerate(rounds):
        producers = list(producers)
        if len(producers) != PRODUCERS_PER_ROUND:
            raise ConfigError(
                f"round {r}: need exactly {PRODUCERS_PER_ROUND} producers, "
                f"got {len(producers)}")
        base = start_time + r * round_interval
        for slot in range(BLOCKS_PER_ROUND):
            ts = base + slot * BLOCK_INTERVAL
            producer = producers[slot // 6]
            if rng.random() >= skip_rate:
                headers.append(BlockHeader(height=height, producer=producer,
                                           timestamp=ts))
            height += 1
    return headers


def _headers_for_trace(trace: Sequence[Action], config: GenConfig,
                       rng: random.Random, t_end: int) -> list[BlockHeader]:
    """Sampled rounds across the duration, electing top-21 from the replayed
    state at each round start."""
    interval = 86_400.0 / config.rounds_per_day
    n_rounds = int(config.duration_days * config.rounds_per_day)
    round_times = [config.start_time + r * interval for r in range(n_rounds)]
    _, _, rounds = replay_with_snapshots(
        trace, round_times,
        sample=lambda state, _: state.top_producers(PRODUCERS_PER_ROUND))
    headers = []
    height = 1
    for round_ts, producers in zip(round_times, rounds):
        if len(producers) < PRODUCERS_PER_ROUND:
            continue  # pre-registration warm-up rounds produce nothing
        headers.extend(generate_block_schedule(
            [producers], round_ts, skip_rate=config.block_skip_rate, rng=rng,
            start_height=height))
        height += BLOCKS_PER_ROUND
    return headers
