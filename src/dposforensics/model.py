"""Core ledger data model: account names, typed actions, and vote-weight arithmetic.

Stake is kept as an integer number of base token units (1 token = 10,000 base
units) so ledger arithmetic stays exact; weights are doubles.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import operator
from datetime import datetime, timezone
from enum import Enum
from functools import reduce
from sys import intern
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import orjson

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


class Action(NamedTuple):
    """One typed ledger event. Ordered by (block, seq) within a trace. A
    named tuple: immutable, and about twice as fast to build as a frozen
    dataclass, which sets each field through object.__setattr__."""

    kind: ActionKind
    actor: str
    timestamp: int
    block: int
    seq: int
    payload: dict

    def order_key(self) -> tuple[int, int]:
        return (self.block, self.seq)


class BlockHeader(NamedTuple):
    """One block's header; a named tuple, as Action is, so that it is the
    tuple header_fields yields."""

    height: int
    producer: str
    timestamp: float


def vote_week(t_vote: int) -> int:
    """Whole weeks from the index epoch to t_vote; the vote index is week / 52."""
    if t_vote < VOTE_INDEX_EPOCH:
        raise LedgerError(f"vote timestamp {t_vote} predates the index epoch "
                          f"{VOTE_INDEX_EPOCH}")
    return math.floor((t_vote - VOTE_INDEX_EPOCH) / (7 * SECONDS_PER_DAY))


def compute_vote_index(t_vote: int) -> float:
    """Weekly-bucketed vote age: floor(weeks since epoch) / 52."""
    return vote_week(t_vote) / 52.0


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


def ordered_sum(values: Iterable[float]) -> float:
    """values added left to right from 0, as sum() adds them up to Python
    3.11. From 3.12 on, sum() compensates float rounding (Neumaier), which
    can move the last bit of a sum that reaches a report."""
    return reduce(operator.add, values, 0)


def _is_number(value: Any, kinds) -> bool:
    """isinstance(value, kinds), except that a bool is no number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _name(value: Any, field_name: str, names: dict[str, str]) -> str:
    """validate_name(value), skipped for a name already in `names`, the
    table of names accepted so far in this load, which maps each to its
    interned str, so that every action naming an account shares one; an
    accepted name is added."""
    try:
        return names[value]
    except (KeyError, TypeError):  # a new name, or an unhashable value
        name = names[name] = intern(validate_name(value, field_name))
        return name


_KINDS = {kind.value: kind for kind in ActionKind}


def _validate_payload(kind: ActionKind, actor: str, payload: Any,
                      names: dict[str, str]) -> dict:
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
            producers = [names[p] for p in producers]
        except (KeyError, TypeError):
            producers = [_name(p, "payload.producers", names) for p in producers]
        if len(set(producers)) != len(producers):
            raise ParseError("producers list has duplicates", "payload.producers")
        if producers != sorted(producers):
            raise ParseError("producers list must be sorted ascending", "payload.producers")
        return {"proxy": "", "producers": producers}
    raise ParseError(f"unknown action kind '{kind}'", "kind")


def make_action(kind: ActionKind | str, actor: str, timestamp: int, block: int,
                seq: int, payload: dict | None = None,
                names: dict[str, str] | None = None) -> Action:
    """Build a validated Action; raises ParseError on any invariant violation.

    `names` is the table of account names accepted earlier in the same load,
    each mapped to its interned str, which are not checked again; the names
    this action adds are put in it.
    """
    try:
        kind = _KINDS[kind]
    except (KeyError, TypeError):
        raise ParseError(f"unknown action kind '{kind}'", "kind") from None
    if names is None:
        names = {}
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


def _json_value(line: str) -> Any:
    """json.loads(line), its errors ParseErrors."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "line") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", "line") from None


# Each line is decoded by orjson, and again by json, whose values and
# messages are the reference, where orjson refuses it (NaN, infinities, 1e400,
# lone surrogates) or the checks reject its record: orjson turns an integer
# beyond 64 bits into a float, which fails every integer check and the time
# range. A header's height, the one number converted with int(), goes back
# to json whenever orjson does not read it as an int.

_ACTION_FIELDS = frozenset({"kind", "actor", "timestamp", "block", "seq"})


def parse_action(line: str, names: dict[str, str] | None = None) -> Action:
    """Parse one JSON trace line into a validated Action; `names` as in
    make_action."""
    try:
        return _action(orjson.loads(line), names)
    except (orjson.JSONDecodeError, ParseError):
        return _action(_json_value(line), names)


def _action(record: Any, names: dict[str, str] | None) -> Action:
    if not isinstance(record, dict):
        raise ParseError("trace line must be a JSON object", "line")
    if not _ACTION_FIELDS <= record.keys():
        missing = sorted(_ACTION_FIELDS - record.keys())
        raise ParseError(f"missing fields: {missing}", ",".join(missing))
    return make_action(record["kind"], record["actor"], record["timestamp"],
                       record["block"], record["seq"], record.get("payload"), names)


# orjson writes JSON several times as fast as json, and the bytes of
# json.dumps(value, sort_keys=True) with separators=(",", ":"), or with
# indent=2 (its OPT_INDENT_2), for a value of str, int, bool, None, float,
# list, tuple and dict, except where it raises (an int beyond 64 bits, a key
# that is not a str, nesting past 254 levels), for a float that is not 0 and
# not in 1e-4 <= |x| < 1e16 (it writes 1e16 for 1e+16, 0.00001 for 1e-05 and
# null for NaN), and for the characters that json escapes and it writes raw:
# all that are not ASCII, and DEL. json writes those values, and those that
# hold any other type.

_PLAIN_TYPES = frozenset({str, int, bool, type(None)})


def _plain(values: Iterable) -> bool:
    """Whether orjson writes each of `values` as json does, but for the
    characters encode_json finds in orjson's bytes."""
    for value in values:
        cls = value.__class__
        if cls in _PLAIN_TYPES:
            continue
        if cls is float:
            if not (value == 0 or 1e-4 <= abs(value) < 1e16):
                return False
        elif cls is list or cls is tuple:
            if not _plain(value):
                return False
        elif cls is dict:
            if not _plain(value.values()):
                return False
        else:
            return False
    return True


_COMPACT = orjson.OPT_SORT_KEYS
_INDENTED = orjson.OPT_SORT_KEYS | orjson.OPT_INDENT_2


def encode_json(value: Any, indent: bool = True, depth: int = 0) -> str:
    """json.dumps(value, sort_keys=True) with indent=2, or else with
    separators=(",", ":"), as it reads `depth` levels deep in an indented
    text: each line after the first is indented 2 * depth spaces more.

    orjson writes the value where its bytes are json's, and json otherwise,
    so errors are json's: a TypeError for a value or key it cannot write, a
    ValueError for a circular reference."""
    try:
        data = orjson.dumps(value, option=_INDENTED if indent else _COMPACT)
    except orjson.JSONEncodeError:
        pass
    else:
        if data.isascii() and b"\x7f" not in data and _plain((value,)):
            text = data.decode()
            return text.replace("\n", "\n" + "  " * depth) if depth else text
    if indent:
        text = json.dumps(value, sort_keys=True, indent=2)
        return text.replace("\n", "\n" + "  " * depth) if depth else text
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _json_line(record: dict) -> str:
    """encode_json(record, indent=False), in the one orjson call that a
    plain line costs."""
    try:
        line = orjson.dumps(record, option=_COMPACT)
    except orjson.JSONEncodeError:
        pass
    else:
        if line.isascii() and b"\x7f" not in line and _plain(record.values()):
            return line.decode()
    return encode_json(record, indent=False)


def serialize_action(action: Action) -> str:
    """One JSON line; parse_action(serialize_action(a)) == a."""
    return _json_line({
        "kind": action.kind.value,
        "actor": action.actor,
        "timestamp": action.timestamp,
        "block": action.block,
        "seq": action.seq,
        "payload": action.payload,
    })


_HEADER_FIELDS = frozenset({"height", "producer", "timestamp"})


def header_fields(line: str, names: dict[str, str]) -> tuple[int, str, float]:
    """The checked (height, producer, timestamp) of a JSON header line;
    `names` as in make_action."""
    try:
        record = orjson.loads(line)
        if record.__class__ is dict and record.get("height").__class__ is int:
            return _header(record, names)
    except (orjson.JSONDecodeError, ParseError):
        pass
    return _header(_json_value(line), names)


def _header(record: Any, names: dict[str, str]) -> tuple[int, str, float]:
    if not isinstance(record, dict):
        raise ParseError("header line must be a JSON object", "line")
    if not _HEADER_FIELDS <= record.keys():
        key = next(k for k in ("height", "producer", "timestamp") if k not in record)
        raise ParseError(f"missing header field '{key}'", key)
    producer = _name(record["producer"], "producer", names)
    height = record["height"]
    if height.__class__ is not int:
        height = _header_number(record, "height", int)
    timestamp = record["timestamp"]
    if timestamp.__class__ is not float:
        timestamp = _header_number(record, "timestamp", float)
    if not TIME_MIN <= timestamp <= TIME_MAX:
        raise ParseError(f"header field 'timestamp' must fall in the UTC years "
                         f"1 to 9999, got {record['timestamp']!r}", "timestamp")
    return height, producer, timestamp


def _header_number(record: dict, key: str, kind: type):
    value = record[key]
    try:
        if not isinstance(value, bool):
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParseError(f"header field '{key}' must be numeric, got {value!r}", key)


def serialize_header(header: BlockHeader) -> str:
    return _json_line({"height": header.height, "producer": header.producer,
                      "timestamp": header.timestamp})


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


def _check_utf8(line: str) -> None:
    """Reject a line read with errors="surrogateescape" that holds a byte
    that is not UTF-8, which that handler decodes to a lone surrogate."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ParseError(f"invalid UTF-8: byte 0x{byte:02x}", "line") from None


def decode_text(data: bytes) -> str:
    """A file's bytes as open(path, encoding="utf-8") reads them: decoded as
    UTF-8, with universal newlines, so that a CRLF reads as one newline."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


class LineFile:
    """The parsed lines of a file, read anew, one at a time, by each
    iteration; len() counts its non-blank lines.

    An iteration yields parse() of each non-blank line, sharing one table of
    accepted account names; a ParseError, or a byte that is not UTF-8, names
    its line number. Once it reaches the end, `digest` is the sha256 of the
    bytes it read, so that a pipe, which reads only once, has the digest of
    what was parsed.
    """

    def __init__(self, path: str, parse: Callable[[str, dict[str, str]], Any]):
        self.path = path
        self.parse = parse
        self.digest: str | None = None

    def __iter__(self) -> Iterator:
        names: dict[str, str] = {}
        sha = hashlib.sha256()
        # Bytes that are not UTF-8 decode to lone surrogates, so that each is
        # found in its own line, not in the 8 KB chunk the wrapper decodes.
        with open(self.path, "rb", buffering=0) as raw, io.TextIOWrapper(
                io.BufferedReader(_Hashing(raw, sha)), encoding="utf-8",
                errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    if not line.isascii():
                        _check_utf8(line)
                    item = self.parse(line, names)
                except ParseError as exc:
                    raise ParseError(f"line {lineno}: {exc}", exc.field) from None
                yield item
        self.digest = sha.hexdigest()

    def __len__(self) -> int:
        with open(self.path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return sum(1 for line in fh if line.strip())


def load_trace(path: str, lazy: bool = False) -> list[Action] | LineFile:
    """The trace's actions; with lazy, a LineFile that parses them as it is
    iterated, so that no list of them is held."""
    actions = LineFile(path, parse_action)
    return actions if lazy else list(actions)


def load_headers(path: str, lazy: bool = False) -> list[tuple] | LineFile:
    """The header_fields of each of the file's block headers; lazy as in
    load_trace."""
    headers = LineFile(path, header_fields)
    return headers if lazy else list(headers)
