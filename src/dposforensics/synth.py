"""Seeded synthetic DPoS ledger generator with planted anomalies.

Emits a sorted, fully replayable action trace, a block-header schedule with
21 producers per round (6 blocks each, 0.5 s spacing, 63 s rounds), and a
ground-truth record for every plant so detectors can be validated.

All randomness flows through named substreams of one seed, so adding a plant
does not perturb the background.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import MISSING, asdict, dataclass, field
from typing import Optional, Sequence

from .metrics import month_ends
from .model import (
    Action,
    ActionKind,
    BlockHeader,
    MAX_VOTES,
    TIME_MAX,
    VOTE_INDEX_EPOCH,
    decode_text,
    make_action,
)
from .replay import replay_with_snapshots

SIMILAR_CLUSTER = "similar_cluster"
LINEAR_GANG = "linear_gang"
TRIANGULAR_GANG = "triangular_gang"
EIGHT_GANG = "eight_gang"
NEAR_CLIQUE = "near_clique"

# The truth field of each plant kind that lists its planted accounts: one
# group of names, or one name tuple per planted motif instance.
PLANT_GROUPS = {SIMILAR_CLUSTER: "members", LINEAR_GANG: "pairs",
                TRIANGULAR_GANG: "triples", EIGHT_GANG: "quads",
                NEAR_CLIQUE: "members"}
PLANT_KINDS = tuple(PLANT_GROUPS)
# The accounts of a plant beyond its `size` members: the proxies each pair of
# a pair gang votes through, and a near clique's pendant decoys.
_PROXIES_PER_PAIR = {TRIANGULAR_GANG: 1, EIGHT_GANG: 2}
_PENDANTS = {NEAR_CLIQUE: 2}

ROUND_SECONDS = 63.0
BLOCKS_PER_ROUND = 126
PRODUCERS_PER_ROUND = 21
BLOCK_INTERVAL = 0.5

# 2021-01-01T00:00:00Z
DEFAULT_START = 1_609_459_200


class ConfigError(Exception):
    pass


# The JSON types of the config fields that the generator computes with.
# Counts that size a range are integers; other numbers may be floats; plants
# and months take all that iteration and `in` have always accepted. seed,
# kind and shared_creator are only formatted or tested, so take any value.
_FIELD_TYPES = {
    **dict.fromkeys(("n_accounts", "n_candidates", "n_proxies", "size"),
                    (int, "an integer")),
    **dict.fromkeys(("stake_powerlaw_alpha", "duration_days", "proxy_weight_target",
                     "block_skip_rate", "participation_rate", "start_time",
                     "rounds_per_day", "vote_jitter"), ((int, float), "a number")),
    "plants": ((list, dict, str), "a list"),
    "months": ((list, dict, type(None)), "a list or null"),
}


def _check_fields(data: dict, cls: type, what: str, where: str = "") -> None:
    """Raise a ConfigError, its message prefixed with `where`, if the `what`
    object `data` has a field that dataclass `cls` lacks, lacks one that `cls`
    requires, or has one of a JSON type that _FIELD_TYPES forbids."""
    fields = cls.__dataclass_fields__  # type: ignore[attr-defined]
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{where}unknown {what} fields: {sorted(unknown)}")
    missing = [name for name, f in fields.items() if name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where}missing {what} fields: {missing}")
    for name, value in data.items():
        types, expected = _FIELD_TYPES.get(name, (object, None))
        if not isinstance(value, types):
            raise ConfigError(f"{where}{name} must be {expected}, got {value!r}")


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
        return (self.size + _PROXIES_PER_PAIR.get(self.kind, 0) * (self.size // 2)
                + _PENDANTS.get(self.kind, 0))


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
        for name in ("stake_powerlaw_alpha", "duration_days", "proxy_weight_target",
                     "block_skip_rate", "participation_rate", "start_time",
                     "rounds_per_day"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not VOTE_INDEX_EPOCH <= self.start_time <= TIME_MAX:
            raise ConfigError(f"start_time must be in [{VOTE_INDEX_EPOCH}, "
                              f"{int(TIME_MAX)}], got {self.start_time!r}")
        if self.n_accounts <= 0 or self.n_candidates <= 0 or self.n_proxies <= 0:
            raise ConfigError("account, candidate, and proxy counts must be positive")
        for name in ("n_accounts", "n_candidates", "n_proxies"):
            if getattr(self, name) > _NAMES:
                raise ConfigError(f"{name} must be at most {_NAMES}, the number of "
                                  f"five-letter account names, got {getattr(self, name)}")
        if self.n_candidates < PRODUCERS_PER_ROUND:
            raise ConfigError(
                f"need at least {PRODUCERS_PER_ROUND} candidates for block production")
        if self.duration_days < 1:
            raise ConfigError("duration must be at least one day")
        if self.duration_days * 86_400 > TIME_MAX + 1 - self.start_time:
            raise ConfigError(
                f"start_time {self.start_time!r} plus duration_days "
                f"{self.duration_days!r} runs past the end of the year 9999")
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
        if 86_400 / self.rounds_per_day < ROUND_SECONDS:
            # A round's 126 blocks would outlast it, and the next round's
            # block times would run back over them.
            raise ConfigError(
                f"rounds_per_day must be at most {86_400 / ROUND_SECONDS:.1f}, "
                f"so that each {ROUND_SECONDS:g} s round ends before the next "
                f"begins, got {self.rounds_per_day!r}")
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
        _check_fields(data, cls, "config")
        plants = []
        for i, spec in enumerate(data.pop("plants", [])):
            if not isinstance(spec, dict):
                raise ConfigError(f"plants[{i}] must be an object, got {spec!r}")
            _check_fields(spec, PlantSpec, "plant", f"plants[{i}]: ")
            plants.append(PlantSpec(**spec))
        config = cls(plants=plants, **data)
        config.validate()
        return config

    @classmethod
    def from_bytes(cls, data: bytes) -> "GenConfig":
        """The config in the bytes of a JSON file."""
        try:
            data = json.loads(decode_text(data))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


_NAMES = 26 ** 5  # the distinct names _encode gives, from index 0 on


def _encode(i: int) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = []
    for _ in range(5):
        out.append(letters[i % 26])
        i //= 26
    return "".join(reversed(out))


def month_windows(start_ts: int, end_ts: int) -> list[tuple[int, int]]:
    """[lo, hi) clamped overlap of each UTC month with [start_ts, end_ts)."""
    his = [end + 1 for end in month_ends(start_ts, end_ts)]
    return list(zip([start_ts, *his], his))


def monthly_sample_times(start_ts: int, end_ts: int) -> list[int]:
    """End-of-month sample instants covering the span."""
    return list(month_ends(start_ts, end_ts))


def _pareto_stake(rng: random.Random, alpha: float) -> int:
    # density ~ x^-alpha over tokens, returned in base units
    u = rng.random()
    tokens = (1.0 - u) ** (-1.0 / (alpha - 1.0))
    tokens = min(tokens, 1e9)
    return max(1, int(round(tokens * 10_000)))


class _TraceAssembler:
    def __init__(self, start_time: int):
        self.start_time = start_time
        self.raw: list[tuple[float, int, ActionKind, str, dict]] = []

    def add(self, ts: float, kind: ActionKind, actor: str, payload: dict) -> None:
        self.raw.append((ts, len(self.raw), kind, actor, payload))

    def build(self) -> list[Action]:
        """The actions, in order. `raw` is consumed as they are made, so
        that each raw tuple and its payload are freed once its action is."""
        raw = self.raw
        # By time, then order of addition: no two tie, so the reverse order,
        # popped from the end, is the order.
        raw.sort(reverse=True)
        actions = []
        names: dict[str, str] = {}  # checked once per name, as in a load
        for seq in range(len(raw)):
            ts, _, kind, actor, payload = raw.pop()
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

    def tick() -> float:
        nonlocal cursor
        cursor += 1.0
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
    plant_roles = _assign_plant_roles(config.plants, names.plant_accounts)
    plant_candidates = [c for roles in plant_roles for c in roles["candidates"]]
    plant_proxies = [p for roles in plant_roles for p in roles["proxies"]]
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
        for delegator, proxy in roles["delegations"]:
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
    truth_plants = [_emit_plant(plant, roles, windows, names, asm, rng_plants, creators)
                    for plant, roles in zip(config.plants, plant_roles)]

    trace = asm.build()
    headers = _headers_for_trace(trace, config, rng_sched)
    truth = {
        "config": config.to_dict(),
        "creators": {k: creators[k] for k in sorted(creators)},
        "plants": truth_plants,
    }
    return trace, headers, truth


def _assign_plant_roles(plants: Sequence[PlantSpec],
                        plant_accounts: Sequence[list[str]]) -> list[dict]:
    """Split each plant's accounts into role lists, a delegation plan and the
    groups its truth lists: the first `size` accounts are the members, the
    rest its proxies or pendants."""
    roles_list = []
    for plant, accounts in zip(plants, plant_accounts):
        members, extras = accounts[:plant.size], accounts[plant.size:]
        per_pair = _PROXIES_PER_PAIR.get(plant.kind, 0)
        pendants = extras if plant.kind in _PENDANTS else []
        roles: dict = {
            "members": members, "pendants": pendants,
            "candidates": [] if plant.kind == SIMILAR_CLUSTER else members + pendants,
            "proxies": extras if per_pair else [], "delegations": [], "groups": []}
        if plant.kind == LINEAR_GANG:
            roles["groups"] = [(a, b) for i, a in enumerate(members)
                               for b in members[i + 1:]]
        for i in range(plant.size // 2 if per_pair else 0):
            a, b = members[2 * i], members[2 * i + 1]
            proxies = extras[per_pair * i:per_pair * (i + 1)]
            roles["delegations"] += zip((a, b), proxies)
            if per_pair == 1:  # only a delegates, to its proxy
                roles["groups"].append((a, proxies[0], b))
            else:  # each delegates to its own proxy; _encode makes a < b
                roles["groups"].append((a, proxies[0], b, proxies[1]))
        roles_list.append(roles)
    return roles_list


def _emit_plant(plant: PlantSpec, roles: dict,
                windows: Sequence[tuple[int, int]], names: _Accounts,
                asm: _TraceAssembler, rng: random.Random,
                creators: dict[str, str]) -> dict:
    active = [i for i in range(len(windows))
              if plant.months is None or i in plant.months] or [0]
    anchors = [lo + (hi - lo) // 2 for lo, hi in (windows[i] for i in active)]

    members, pendants = roles["members"], roles["pendants"]
    record: dict = {
        "kind": plant.kind,
        "members": list(members),
        "shared_creator": plant.shared_creator,
        "creator": creators.get(members[0]) if plant.shared_creator else None,
    }
    field = PLANT_GROUPS[plant.kind]
    if field != "members":
        record[field] = [list(group) for group in roles["groups"]]
    if pendants:
        record["pendants"] = list(pendants)

    anchor = anchors[0]
    if plant.kind == SIMILAR_CLUSTER:
        pool = names.candidates
        k = rng.randint(10, min(MAX_VOTES, len(pool)))
        base = sorted(rng.sample(pool, k))
        record["candidate_set"] = base
        for anchor in anchors:
            for member in members:
                picks = list(base)
                if plant.vote_jitter and rng.random() < plant.vote_jitter:
                    out = rng.choice(picks)
                    alternatives = [c for c in pool if c not in picks]
                    if alternatives:
                        picks.remove(out)
                        picks.append(rng.choice(alternatives))
                asm.add(anchor + rng.uniform(0, 3600), ActionKind.VOTE_PRODUCER,
                        member, {"proxy": "", "producers": sorted(picks)})
    elif plant.kind in _PROXIES_PER_PAIR:
        for i, group in enumerate(roles["groups"]):
            # group[1] is group[0]'s proxy: its vote for group[2] realizes the
            # group[0] -> group[2] leg; group[-1] closes the loop back
            asm.add(anchor + i * 120 + rng.uniform(0, 30), ActionKind.VOTE_PRODUCER,
                    group[1], {"proxy": "", "producers": [group[2]]})
            asm.add(anchor + i * 120 + 60 + rng.uniform(0, 30),
                    ActionKind.VOTE_PRODUCER, group[-1],
                    {"proxy": "", "producers": [group[0]]})
    else:  # every member votes for all the others, then the pendants vote
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
                            start_height: int = 1) -> list[BlockHeader]:
    """Block headers for explicit per-round producer lists.

    Each round schedules 21 producers x 6 blocks at 0.5 s spacing. A skipped
    block consumes its height and slot time but emits no header.
    """
    if not 0.0 <= skip_rate < 1.0:
        raise ConfigError("skip_rate must be in [0, 1)")
    draw = (rng or random.Random(0)).random
    headers = []
    append = headers.append
    height = start_height
    for r, producers in enumerate(rounds):
        producers = list(producers)
        if len(producers) != PRODUCERS_PER_ROUND:
            raise ConfigError(
                f"round {r}: need exactly {PRODUCERS_PER_ROUND} producers, "
                f"got {len(producers)}")
        base = start_time + r * ROUND_SECONDS
        for slot in range(BLOCKS_PER_ROUND):
            if draw() >= skip_rate:
                append(BlockHeader(height, producers[slot // 6],
                                   base + slot * BLOCK_INTERVAL))
            height += 1
    return headers


def _headers_for_trace(trace: Sequence[Action], config: GenConfig,
                       rng: random.Random) -> list[BlockHeader]:
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
