"""Core ledger data model: account names, typed actions, and vote-weight arithmetic.

Stake is kept as an integer number of base token units (1 token = 10,000 base
units) so ledger arithmetic stays exact; weights are doubles.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Any, Callable

NAME_ALPHABET = frozenset("abcdefghijklmnopqrstuvwxyz12345.")
MAX_VOTES = 30
BASE_UNITS_PER_TOKEN = 10_000
SECONDS_PER_DAY = 86_400
# Unix timestamp of 2000-01-01T00:00:00Z, the epoch of the vote index.
VOTE_INDEX_EPOCH = 946_684_800
# Action and header times the metrics can turn into UTC dates (whole seconds;
# NaN and infinities fall outside too).
TIME_MIN = datetime(1, 1, 1, tzinfo=timezone.utc).timestamp()
TIME_MAX = datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp()


class LedgerError(Exception):
    """Base error for ledger-model failures."""


class ParseError(LedgerError):
    """A trace line failed validation; `field` names the offending field."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class ActionKind(str, Enum):
    NEW_ACCOUNT = "newaccount"
    DELEGATE_BW = "delegatebw"
    UNDELEGATE_BW = "undelegatebw"
    REG_PRODUCER = "regproducer"
    REG_PROXY = "regproxy"
    VOTE_PRODUCER = "voteproducer"


def validate_name(name: Any, field_name: str = "name") -> str:
    """Validate an account name against the 12-char lowercase alphabet."""
    if not isinstance(name, str):
        raise ParseError(f"{field_name} must be a string, got {type(name).__name__}", field_name)
    if not 1 <= len(name) <= 12:
        raise ParseError(f"{field_name} '{name}' length must be in [1, 12]", field_name)
    bad = set(name) - NAME_ALPHABET
    if bad:
        raise ParseError(f"{field_name} '{name}' has invalid characters {sorted(bad)}", field_name)
    if name.endswith("."):
        raise ParseError(f"{field_name} '{name}' must not end with a dot", field_name)
    return name


@dataclass(frozen=True, slots=True)
class Action:
    """One typed ledger event. Ordered by (block, seq) within a trace."""

    kind: ActionKind
    actor: str
    timestamp: int
    block: int
    seq: int
    payload: dict = field(default_factory=dict)

    def order_key(self) -> tuple[int, int]:
        return (self.block, self.seq)


@dataclass(frozen=True, slots=True)
class BlockHeader:
    height: int
    producer: str
    timestamp: float


def vote_week(t_vote: int, t_init: int = VOTE_INDEX_EPOCH,
              t_day: int = SECONDS_PER_DAY) -> int:
    """Whole weeks from the index epoch to t_vote; the vote index is week / 52."""
    if t_vote < t_init:
        raise LedgerError(f"vote timestamp {t_vote} predates the index epoch {t_init}")
    return math.floor((t_vote - t_init) / (7 * t_day))


def compute_vote_index(t_vote: int, t_init: int = VOTE_INDEX_EPOCH,
                       t_day: int = SECONDS_PER_DAY) -> float:
    """Weekly-bucketed vote age: floor(weeks since epoch) / 52."""
    return vote_week(t_vote, t_init, t_day) / 52.0


def compute_vote_weight(stake: int, index: float) -> float:
    """Vote weight of `stake` base units at the given index.

    10000 * stake_in_tokens * 2^index; with base units this reduces to
    stake * 2^index exactly.
    """
    if index < 0:
        raise LedgerError(f"vote index must be non-negative, got {index}")
    if stake < 0:
        raise LedgerError(f"stake must be non-negative, got {stake}")
    try:
        weight = float(stake) * math.pow(2.0, index)
    except OverflowError:
        raise LedgerError(
            f"vote weight overflow for stake={stake}, index={index}") from None
    if not math.isfinite(weight):
        raise LedgerError(f"vote weight overflow for stake={stake}, index={index}")
    return weight


def _is_number(value: Any, kinds) -> bool:
    """isinstance(value, kinds), except that a bool is no number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _require(condition: bool, message: str, field_name: str) -> None:
    if not condition:
        raise ParseError(message, field_name)


def _validate_payload(kind: ActionKind, actor: str, payload: Any) -> dict:
    if not isinstance(payload, dict):
        raise ParseError("payload must be an object", "payload")
    if kind is ActionKind.NEW_ACCOUNT:
        created = validate_name(payload.get("created"), "payload.created")
        creator = payload.get("creator", actor)
        validate_name(creator, "payload.creator")
        _require(creator == actor, "creator must equal the acting account", "payload.creator")
        return {"created": created, "creator": creator}
    if kind in (ActionKind.DELEGATE_BW, ActionKind.UNDELEGATE_BW):
        amount = payload.get("amount")
        _require(_is_number(amount, int),
                 "amount must be an integer of base units", "payload.amount")
        _require(amount >= 0, "amount must be non-negative", "payload.amount")
        return {"amount": amount}
    if kind is ActionKind.REG_PRODUCER:
        return {}
    if kind is ActionKind.REG_PROXY:
        isproxy = payload.get("isproxy")
        _require(isinstance(isproxy, bool), "isproxy must be a boolean", "payload.isproxy")
        return {"isproxy": isproxy}
    if kind is ActionKind.VOTE_PRODUCER:
        proxy = payload.get("proxy") or ""
        producers = payload.get("producers") or []
        _require(isinstance(producers, list), "producers must be a list", "payload.producers")
        if proxy:
            validate_name(proxy, "payload.proxy")
            _require(not producers,
                     "ambiguous vote: both proxy and producers set", "payload")
            return {"proxy": proxy, "producers": []}
        _require(len(producers) <= MAX_VOTES,
                 f"producers list exceeds {MAX_VOTES}", "payload.producers")
        for p in producers:
            validate_name(p, "payload.producers")
        _require(len(set(producers)) == len(producers),
                 "producers list has duplicates", "payload.producers")
        _require(producers == sorted(producers),
                 "producers list must be sorted ascending", "payload.producers")
        return {"proxy": "", "producers": list(producers)}
    raise ParseError(f"unknown action kind '{kind}'", "kind")


def make_action(kind: ActionKind | str, actor: str, timestamp: int, block: int,
                seq: int, payload: dict | None = None) -> Action:
    """Build a validated Action; raises ParseError on any invariant violation."""
    try:
        kind = ActionKind(kind)
    except ValueError:
        raise ParseError(f"unknown action kind '{kind}'", "kind") from None
    validate_name(actor, "actor")
    if not _is_number(timestamp, (int, float)):
        raise ParseError("timestamp must be numeric", "timestamp")
    _require(TIME_MIN <= timestamp <= TIME_MAX,
             f"timestamp must fall in the UTC years 1 to 9999, got {timestamp!r}", "timestamp")
    if not _is_number(block, int) or block < 0:
        raise ParseError("block must be a non-negative integer", "block")
    if not _is_number(seq, int):
        raise ParseError("seq must be an integer", "seq")
    payload = _validate_payload(kind, actor, payload or {})
    return Action(kind=kind, actor=actor, timestamp=int(timestamp), block=block,
                  seq=seq, payload=payload)


def parse_action(line: str) -> Action:
    """Parse one JSON trace line into a validated Action."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "line") from None
    if not isinstance(record, dict):
        raise ParseError("trace line must be a JSON object", "line")
    missing = {"kind", "actor", "timestamp", "block", "seq"} - record.keys()
    if missing:
        raise ParseError(f"missing fields: {sorted(missing)}", ",".join(sorted(missing)))
    return make_action(record["kind"], record["actor"], record["timestamp"],
                       record["block"], record["seq"], record.get("payload"))


def serialize_action(action: Action) -> str:
    """One JSON line; parse_action(serialize_action(a)) == a."""
    return json.dumps({
        "kind": action.kind.value,
        "actor": action.actor,
        "timestamp": action.timestamp,
        "block": action.block,
        "seq": action.seq,
        "payload": action.payload,
    }, sort_keys=True, separators=(",", ":"))


def parse_header(line: str) -> BlockHeader:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "line") from None
    if not isinstance(record, dict):
        raise ParseError("header line must be a JSON object", "line")
    for key in ("height", "producer", "timestamp"):
        if key not in record:
            raise ParseError(f"missing header field '{key}'", key)
    validate_name(record["producer"], "producer")
    height = _header_number(record, "height", int)
    timestamp = _header_number(record, "timestamp", float)
    if not TIME_MIN <= timestamp <= TIME_MAX:
        raise ParseError(f"header field 'timestamp' must fall in the UTC years "
                         f"1 to 9999, got {record['timestamp']!r}", "timestamp")
    return BlockHeader(height=height, producer=record["producer"],
                       timestamp=timestamp)


def _header_number(record: dict, key: str, kind: type):
    value = record[key]
    try:
        if not isinstance(value, bool):
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParseError(f"header field '{key}' must be numeric, got {value!r}", key)


def serialize_header(header: BlockHeader) -> str:
    return json.dumps({"height": header.height, "producer": header.producer,
                       "timestamp": header.timestamp},
                      sort_keys=True, separators=(",", ":"))


def _load_lines(path: str, parse: Callable[[str], Any]) -> list:
    """parse() of each non-blank line; a ParseError names its line number."""
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                items.append(parse(line))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}", exc.field) from None
    return items


def load_trace(path: str) -> list[Action]:
    return _load_lines(path, parse_action)


def load_headers(path: str) -> list[BlockHeader]:
    return _load_lines(path, parse_header)
