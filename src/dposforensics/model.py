"""Core ledger data model: account names, typed actions, and vote-weight arithmetic.

Stake is kept as an integer number of base token units (1 token = 10,000 base
units) so ledger arithmetic stays exact; weights are doubles.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from sys import intern
from typing import Any, Callable, Iterator

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


def _name(value: Any, field_name: str, names: set[str]) -> str:
    """validate_name(value), skipped for a name already in `names`, the
    names accepted so far in this load; an accepted name is added. A str is
    returned interned, so that every action naming an account shares one."""
    if value.__class__ is not str or value not in names:
        names.add(validate_name(value, field_name))
    return intern(value) if value.__class__ is str else value


_KINDS = {kind.value: kind for kind in ActionKind}


def _validate_payload(kind: ActionKind, actor: str, payload: Any,
                      names: set[str]) -> dict:
    if not isinstance(payload, dict):
        raise ParseError("payload must be an object", "payload")
    if kind is ActionKind.NEW_ACCOUNT:
        created = _name(payload.get("created"), "payload.created", names)
        creator = _name(payload.get("creator", actor), "payload.creator", names)
        if creator != actor:
            raise ParseError("creator must equal the acting account", "payload.creator")
        return {"created": created, "creator": creator}
    if kind is ActionKind.DELEGATE_BW or kind is ActionKind.UNDELEGATE_BW:
        amount = payload.get("amount")
        if not (amount.__class__ is int or _is_number(amount, int)):
            raise ParseError("amount must be an integer of base units", "payload.amount")
        if amount < 0:
            raise ParseError("amount must be non-negative", "payload.amount")
        return {"amount": amount}
    if kind is ActionKind.REG_PRODUCER:
        return {}
    if kind is ActionKind.REG_PROXY:
        isproxy = payload.get("isproxy")
        if not isinstance(isproxy, bool):
            raise ParseError("isproxy must be a boolean", "payload.isproxy")
        return {"isproxy": isproxy}
    if kind is ActionKind.VOTE_PRODUCER:
        proxy = payload.get("proxy") or ""
        producers = payload.get("producers") or []
        if not isinstance(producers, list):
            raise ParseError("producers must be a list", "payload.producers")
        if proxy:
            proxy = _name(proxy, "payload.proxy", names)
            if producers:
                raise ParseError("ambiguous vote: both proxy and producers set", "payload")
            return {"proxy": proxy, "producers": []}
        if len(producers) > MAX_VOTES:
            raise ParseError(f"producers list exceeds {MAX_VOTES}", "payload.producers")
        try:
            known = names.issuperset(producers)
        except TypeError:  # an unhashable item, which validate_name rejects
            known = False
        if not known:
            for p in producers:
                _name(p, "payload.producers", names)
        if len(set(producers)) != len(producers):
            raise ParseError("producers list has duplicates", "payload.producers")
        if producers != sorted(producers):
            raise ParseError("producers list must be sorted ascending", "payload.producers")
        return {"proxy": "", "producers": [
            intern(p) if p.__class__ is str else p for p in producers]}
    raise ParseError(f"unknown action kind '{kind}'", "kind")


def make_action(kind: ActionKind | str, actor: str, timestamp: int, block: int,
                seq: int, payload: dict | None = None,
                names: set[str] | None = None) -> Action:
    """Build a validated Action; raises ParseError on any invariant violation.

    `names` holds the account names accepted earlier in the same load, which
    are not checked again; the names this action adds are put in it.
    """
    try:
        kind = _KINDS[kind]
    except (KeyError, TypeError):
        raise ParseError(f"unknown action kind '{kind}'", "kind") from None
    if names is None:
        names = set()
    actor = _name(actor, "actor", names)
    if not (timestamp.__class__ is int or timestamp.__class__ is float
            or _is_number(timestamp, (int, float))):
        raise ParseError("timestamp must be numeric", "timestamp")
    if not TIME_MIN <= timestamp <= TIME_MAX:
        raise ParseError(f"timestamp must fall in the UTC years 1 to 9999, "
                         f"got {timestamp!r}", "timestamp")
    if not (block.__class__ is int or _is_number(block, int)) or block < 0:
        raise ParseError("block must be a non-negative integer", "block")
    if not (seq.__class__ is int or _is_number(seq, int)):
        raise ParseError("seq must be an integer", "seq")
    payload = _validate_payload(kind, actor, payload or {}, names)
    return Action(kind, actor, int(timestamp), block, seq, payload)


_scan_json = json.JSONDecoder().scan_once


def _json_value(line: str) -> Any:
    """json.loads(line). A line that is exactly one JSON value is scanned
    directly; any other goes through json.loads, for its result or its error."""
    try:
        value, end = _scan_json(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError):
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "line") from None


_ACTION_FIELDS = frozenset({"kind", "actor", "timestamp", "block", "seq"})


def parse_action(line: str, names: set[str] | None = None) -> Action:
    """Parse one JSON trace line into a validated Action; `names` as in
    make_action."""
    record = _json_value(line)
    if not isinstance(record, dict):
        raise ParseError("trace line must be a JSON object", "line")
    if not _ACTION_FIELDS <= record.keys():
        missing = sorted(_ACTION_FIELDS - record.keys())
        raise ParseError(f"missing fields: {missing}", ",".join(missing))
    return make_action(record["kind"], record["actor"], record["timestamp"],
                       record["block"], record["seq"], record.get("payload"), names)


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


_HEADER_FIELDS = frozenset({"height", "producer", "timestamp"})


def parse_header(line: str, names: set[str] | None = None) -> BlockHeader:
    """Parse one JSON header line; `names` as in make_action."""
    record = _json_value(line)
    if not isinstance(record, dict):
        raise ParseError("header line must be a JSON object", "line")
    if not _HEADER_FIELDS <= record.keys():
        key = next(k for k in ("height", "producer", "timestamp") if k not in record)
        raise ParseError(f"missing header field '{key}'", key)
    producer = _name(record["producer"], "producer", set() if names is None else names)
    height = record["height"]
    if height.__class__ is not int:
        height = _header_number(record, "height", int)
    timestamp = record["timestamp"]
    if timestamp.__class__ is not float:
        timestamp = _header_number(record, "timestamp", float)
    if not TIME_MIN <= timestamp <= TIME_MAX:
        raise ParseError(f"header field 'timestamp' must fall in the UTC years "
                         f"1 to 9999, got {record['timestamp']!r}", "timestamp")
    return BlockHeader(height, producer, timestamp)


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


class _Hashing(io.RawIOBase):
    """A raw binary reader that adds every byte it reads from `raw` to the
    hashlib object `sha`."""

    def __init__(self, raw: io.RawIOBase, sha) -> None:
        self.raw = raw
        self.sha = sha

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.raw.readinto(buffer)
        if n:
            self.sha.update(memoryview(buffer)[:n])
        return n


class LineFile:
    """The parsed lines of a file, read anew, one at a time, by each
    iteration; len() counts its non-blank lines.

    An iteration yields parse() of each non-blank line, sharing one set of
    accepted account names; a ParseError names its line number. Once it
    reaches the end, `digest` is the sha256 of the bytes it read, so that a
    pipe, which reads only once, has the digest of what was parsed.
    """

    def __init__(self, path: str, parse: Callable[[str, set[str]], Any]):
        self.path = path
        self.parse = parse
        self.digest: str | None = None

    def __iter__(self) -> Iterator:
        names: set[str] = set()
        sha = hashlib.sha256()
        with open(self.path, "rb", buffering=0) as raw, io.TextIOWrapper(
                io.BufferedReader(_Hashing(raw, sha)), encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    item = self.parse(line, names)
                except ParseError as exc:
                    raise ParseError(f"line {lineno}: {exc}", exc.field) from None
                yield item
        self.digest = sha.hexdigest()

    def __len__(self) -> int:
        with open(self.path, "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())


def load_trace(path: str, lazy: bool = False) -> list[Action] | LineFile:
    """The trace's actions; with lazy, a LineFile that parses them as it is
    iterated, so that no list of them is held."""
    actions = LineFile(path, parse_action)
    return actions if lazy else list(actions)


def load_headers(path: str, lazy: bool = False) -> list[BlockHeader] | LineFile:
    """The file's block headers; lazy as in load_trace."""
    headers = LineFile(path, parse_header)
    return headers if lazy else list(headers)
