import datetime
import enum
import json
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dposforensics.metrics import daily_production, utc_day
from dposforensics.model import (
    Action,
    ActionKind,
    BlockHeader,
    LedgerError,
    ParseError,
    VOTE_INDEX_EPOCH,
    compute_vote_index,
    compute_vote_weight,
    encode_json,
    header_fields,
    load_headers,
    make_action,
    parse_action,
    serialize_action,
    serialize_header,
    validate_name,
)

from conftest import FUZZ_HEADERS, FUZZ_TRACE, T0, one_field_changed

DAY = 86_400
WEEK = 7 * DAY


class TestVoteIndex:
    def test_at_epoch(self):
        assert compute_vote_index(VOTE_INDEX_EPOCH) == 0.0

    def test_exactly_52_weeks(self):
        assert compute_vote_index(VOTE_INDEX_EPOCH + 364 * DAY) == 1.0

    def test_ten_days(self):
        # floor(10/7) = 1 week bucket
        assert compute_vote_index(VOTE_INDEX_EPOCH + 10 * DAY) == pytest.approx(1 / 52)

    def test_before_epoch_rejected(self):
        with pytest.raises(LedgerError):
            compute_vote_index(VOTE_INDEX_EPOCH - 1)

    def test_step_function_constant_within_bucket(self):
        rng = random.Random(7)
        for _ in range(200):
            t = VOTE_INDEX_EPOCH + rng.randrange(0, 10**9)
            bucket_start = VOTE_INDEX_EPOCH + ((t - VOTE_INDEX_EPOCH) // WEEK) * WEEK
            t2 = min(t + 6 * DAY, bucket_start + WEEK - 1)
            assert compute_vote_index(t) == compute_vote_index(
                max(t, min(t2, bucket_start + WEEK - 1)))


class TestVoteWeight:
    def test_index_zero(self):
        assert compute_vote_weight(100 * 10_000, 0.0) == 1_000_000

    def test_index_one_doubles(self):
        assert compute_vote_weight(100 * 10_000, 1.0) == 2_000_000

    def test_fractional_index_against_high_precision(self):
        # independent evaluation: 10000 * 37 * 2^(1/52)
        from mpmath import mp, mpf, power
        mp.dps = 50
        expected = float(mpf(10_000) * 37 * power(2, mpf(1) / 52))
        got = compute_vote_weight(37 * 10_000, 1 / 52)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_weekly_doubling_exact(self):
        rng = random.Random(13)
        for _ in range(300):
            stake = rng.randrange(1, 10**9)
            i = rng.randrange(1, 20)
            assert compute_vote_weight(stake, float(i)) == pytest.approx(
                2 * compute_vote_weight(stake, float(i - 1)), rel=1e-12)

    def test_linear_in_stake(self):
        # doubling the stake doubles the weight exactly (multiplication by 2
        # is lossless in IEEE doubles)
        rng = random.Random(17)
        for _ in range(300):
            stake = rng.randrange(1, 10**9)
            index = rng.randrange(0, 200) / 52
            assert compute_vote_weight(2 * stake, index) == \
                2 * compute_vote_weight(stake, index)

    def test_negative_inputs(self):
        with pytest.raises(LedgerError):
            compute_vote_weight(-1, 0.0)
        with pytest.raises(LedgerError):
            compute_vote_weight(1, -0.5)

    def test_overflow_reported(self):
        with pytest.raises(LedgerError):
            compute_vote_weight(10**18, 5000.0)


class TestNames:
    @pytest.mark.parametrize("name", ["a", "eosnationftw", "a.b.c", "voter12345"])
    def test_valid(self, name):
        assert validate_name(name) == name

    @pytest.mark.parametrize("name", ["", "toolongaccountname", "UPPER", "has6digit",
                                      "trailingdot.", "with space", "zero0"])
    def test_invalid(self, name):
        with pytest.raises(ParseError):
            validate_name(name)


class TestParseAction:
    def test_voteproducer_roundtrip(self):
        line = json.dumps({"kind": "voteproducer", "actor": "alice", "timestamp": 1_600_000_000,
                           "block": 5, "seq": 0,
                           "payload": {"proxy": "", "producers": ["bp.a", "bp.b", "bp.c"]}})
        action = parse_action(line)
        assert action.payload["producers"] == ["bp.a", "bp.b", "bp.c"]

    def test_too_many_producers(self):
        producers = sorted(f"bp{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(31))
        line = json.dumps({"kind": "voteproducer", "actor": "alice", "timestamp": 1,
                           "block": 1, "seq": 0,
                           "payload": {"proxy": "", "producers": producers}})
        with pytest.raises(ParseError, match="exceeds 30"):
            parse_action(line)

    def test_proxy_and_producers_ambiguous(self):
        line = json.dumps({"kind": "voteproducer", "actor": "alice", "timestamp": 1,
                           "block": 1, "seq": 0,
                           "payload": {"proxy": "bob", "producers": ["bp.a"]}})
        with pytest.raises(ParseError, match="ambiguous"):
            parse_action(line)

    def test_unsorted_producers(self):
        line = json.dumps({"kind": "voteproducer", "actor": "alice", "timestamp": 1,
                           "block": 1, "seq": 0,
                           "payload": {"proxy": "", "producers": ["bp.b", "bp.a"]}})
        with pytest.raises(ParseError, match="sorted"):
            parse_action(line)

    def test_unknown_kind(self):
        line = json.dumps({"kind": "transfer", "actor": "alice", "timestamp": 1,
                           "block": 1, "seq": 0, "payload": {}})
        with pytest.raises(ParseError, match="unknown action kind"):
            parse_action(line)

    def test_roundtrip_random_actions(self):
        rng = random.Random(23)
        names = ["alice", "bob", "carol", "bp.a", "bp.b", "proxyone"]
        for _ in range(300):
            kind = rng.choice(["newaccount", "delegatebw", "undelegatebw",
                               "regproducer", "regproxy", "voteproducer"])
            actor = rng.choice(names)
            if kind == "newaccount":
                payload = {"created": rng.choice(names), "creator": actor}
            elif kind in ("delegatebw", "undelegatebw"):
                payload = {"amount": rng.randrange(0, 10**9)}
            elif kind == "regproducer":
                payload = {}
            elif kind == "regproxy":
                payload = {"isproxy": rng.random() < 0.5}
            else:
                if rng.random() < 0.3:
                    payload = {"proxy": rng.choice(names), "producers": []}
                else:
                    payload = {"proxy": "",
                               "producers": sorted(rng.sample(names, rng.randint(0, 3)))}
            action = make_action(kind, actor, rng.randrange(1, 2**31),
                                 rng.randrange(0, 10**6), rng.randrange(0, 10**6),
                                 payload)
            assert parse_action(serialize_action(action)) == action

    def test_action_is_immutable(self):
        action = make_action("delegatebw", "alice", 1, 2, 3, {"amount": 5})
        for name in ("kind", "actor", "timestamp", "block", "seq", "payload"):
            with pytest.raises(AttributeError):
                setattr(action, name, getattr(action, name))
        with pytest.raises(AttributeError):
            action.extra = 1
        assert action.order_key() == (2, 3)
        assert action == Action(kind=ActionKind.DELEGATE_BW, actor="alice", timestamp=1,
                                block=2, seq=3, payload={"amount": 5})


class TestParseHeader:
    @pytest.mark.parametrize("timestamp", ["1e999", "-1e999", "NaN", "1e15",
                                           "-1e12", "253402300800"])
    def test_timestamp_outside_utc_dates_rejected(self, timestamp):
        line = f'{{"height": 1, "producer": "bpa", "timestamp": {timestamp}}}'
        with pytest.raises(ParseError, match="timestamp"):
            header_fields(line, {})

    @pytest.mark.parametrize("timestamp", [-62135596800, 0, 1_600_000_000.5,
                                           253402300799])
    def test_timestamp_inside_utc_dates_kept(self, timestamp):
        line = json.dumps({"height": 1, "producer": "bpa", "timestamp": timestamp})
        assert header_fields(line, {})[2] == timestamp


def test_line_count_reads_bytes_that_are_not_utf8(tmp_path):
    """len() counts the lines of a file that iterating it rejects, as the
    benchmark's tracer does before the command reads the file."""
    path = tmp_path / "headers.jsonl"
    path.write_bytes(b'{"height": 1, "producer": "bpa", "timestamp": 1}\r\n\n'
                     b'{"producer": "bp\xff"}\r')
    headers = load_headers(str(path), lazy=True)
    assert len(headers) == 2
    with pytest.raises(ParseError, match="^line 3: invalid UTF-8: byte 0xff$"):
        list(headers)


def _outcome(parse, line):
    """parse(line), or the ParseError's message and field."""
    try:
        return parse(line)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.field)


def _assert_parsers_agree(lines, parse, reference):
    """Every line parses as the reference parses it. The lines share one
    table of accepted names and go through twice, so a name is met again
    after it was accepted in another field, or after it was rejected."""
    names = {}
    for line in lines + [f" {l}\t" for l in lines]:
        assert _outcome(lambda l: parse(l, names), line) == _outcome(reference, line)
        assert _outcome(parse, line) == _outcome(reference, line)
    assert all(isinstance(n, str) and validate_name(n) == n
               and names[n] is n is sys.intern(n) for n in names)


def _header(line, names=None):
    """header_fields, with a fresh name table by default, as the reference's
    BlockHeader."""
    return BlockHeader(*header_fields(line, {} if names is None else names))


PARSERS_AGREE = settings(max_examples=300, derandomize=True, deadline=None)


class Raw(str):
    """JSON text, written as it is."""


class Obj(list):
    """A JSON object as [key, value] pairs, in which a key may repeat."""


def _obj(value):
    if isinstance(value, dict):
        return Obj([k, _obj(v)] for k, v in value.items())
    return [_obj(v) for v in value] if isinstance(value, list) else value


def _text(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    return json.dumps(value)


def _slots(node):
    """(container, index) of every value inside node, outermost first."""
    for i, item in enumerate(node):
        yield node, i
        inner = item[1] if isinstance(node, Obj) else item
        if isinstance(inner, list):
            yield from _slots(inner)


# JSON texts on which orjson and json part ways, or nearly do: integers at
# and past the 64-bit limits (orjson reads one above 2^64 - 1 or below -2^63
# as a float); NaN, the infinities and 1e400, and lone surrogates, which
# orjson refuses; floats where an integer is read; and a surrogate pair and
# a plain name, on which they agree.
SPLIT_TEXTS = [Raw(t) for t in (
    str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 - 1), str(2**64 - 1),
    str(2**64), str(-2**64), str(10**30), str(T0 * 2**40), "NaN", "Infinity",
    "-Infinity", "1e400", "-1e400", "1.0", "-0.0", "3e0", f"{T0}.0", f"{T0}e0",
    '"\\ud800"', '"bp\\udfff"', '"\\ud800\\udc00"', '"bpa"')]


@st.composite
def split_lines(draw, records):
    """The records as JSON lines, each with up to two values replaced by a
    text of SPLIT_TEXTS or by the float an integer value equals, or with a
    key repeated before or after it with that text as its value."""
    lines = []
    for record in records:
        node = _obj(record)
        for _ in range(draw(st.integers(0, 2))):
            container, i = draw(st.sampled_from(list(_slots(node))))
            keyed = isinstance(container, Obj)
            old = container[i][1] if keyed else container[i]
            floats = [Raw(f"{old}.0")] if old.__class__ is int else []
            new = draw(st.sampled_from(SPLIT_TEXTS + floats))
            if keyed and draw(st.booleans()):
                container.insert(i + draw(st.integers(0, 1)), [container[i][0], new])
            elif keyed:
                container[i][1] = new
            else:
                container[i] = new
        lines.append(_text(node))
    return lines


class TestParsersAgreeWithReference:
    @PARSERS_AGREE
    @given(records=one_field_changed(FUZZ_TRACE))
    def test_trace_lines(self, records):
        _assert_parsers_agree([json.dumps(r) for r in records], parse_action,
                              oracles.ref_parse_action)

    @PARSERS_AGREE
    @given(records=one_field_changed(FUZZ_HEADERS))
    def test_header_lines(self, records):
        _assert_parsers_agree([json.dumps(r) for r in records], _header,
                              oracles.ref_parse_header)

    # Lines on which orjson, which decodes first, and json, the reference's
    # decoder, part ways.

    @PARSERS_AGREE
    @given(lines=split_lines(FUZZ_TRACE))
    def test_trace_lines_where_decoders_differ(self, lines):
        _assert_parsers_agree(lines, parse_action, oracles.ref_parse_action)

    @PARSERS_AGREE
    @given(lines=split_lines(FUZZ_HEADERS))
    def test_header_lines_where_decoders_differ(self, lines):
        _assert_parsers_agree(lines, _header, oracles.ref_parse_header)

    @PARSERS_AGREE
    @given(lines=split_lines(FUZZ_HEADERS))
    def test_header_count_where_decoders_differ(self, lines):
        """The CLI's count of the lines the reference accepts is a Counter
        over the reference's headers, and over all the lines it fails as the
        reference fails on the first line it rejects."""
        outcomes = [_outcome(oracles.ref_parse_header, line) for line in lines]
        accepted = [line for line, o in zip(lines, outcomes) if isinstance(o, BlockHeader)]
        names = {}
        assert daily_production(header_fields(line, names) for line in accepted) == Counter(
            (utc_day(h.timestamp), h.producer) for h in map(oracles.ref_parse_header, accepted))
        rejected = [o for o in outcomes if not isinstance(o, BlockHeader)]
        if rejected:
            with pytest.raises(ParseError) as exc:
                daily_production(header_fields(line, {}) for line in lines)
            assert ("ParseError", str(exc.value), exc.value.field) == rejected[0]


# Values on which orjson, which writes each line first, and json, the
# reference's encoder, part ways or nearly do: integers at and past the
# 64-bit limits; floats at and beyond the ends of 1e-4 <= |x| < 1e16, NaN
# and the infinities; DEL, a control character, a non-ASCII letter, a line
# separator, a lone surrogate, a quote and a backslash; and values json
# cannot write, of which orjson writes some.

class Colour(enum.Enum):
    RED = 1


SPLIT_INTS = [2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 10**30]
SPLIT_FLOATS = [0.0, -0.0, 1e-05, -1e-05, 9.99e-05, 1e-4, 9999999999999998.0,
                1e16, 1.7976931348623157e308, 5e-324, math.nan, math.inf,
                -math.inf, 1_600_000_000.5]
SPLIT_CHARS = ["\x7f", "\x01", "é", "\u2028", "\ud800", '"', "\\", "\n"]

_ints = st.one_of(st.integers(), st.sampled_from(SPLIT_INTS))
_floats = st.one_of(st.floats(), st.sampled_from(SPLIT_FLOATS))
_texts = st.one_of(
    st.text(st.one_of(st.sampled_from(SPLIT_CHARS), st.characters()), max_size=6),
    st.sampled_from(["bpa", "alice.bob"]))
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _texts,
                     st.sampled_from([Colour.RED, datetime.date(2021, 1, 1),
                                      ActionKind.REG_PROXY]))


def _dicts(values):
    return st.one_of(*(st.dictionaries(keys, values, max_size=3)
                       for keys in (_texts, _ints, _floats)))


_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.tuples(inner, inner), _dicts(inner)),
    max_leaves=4)

ENCODERS_AGREE = settings(max_examples=300, derandomize=True, deadline=None)


def _written(serialize, item):
    """serialize(item), or the type of the error it raises."""
    try:
        return serialize(item)
    except (TypeError, ValueError) as exc:
        return type(exc)


class TestSerializersAgreeWithReference:
    @ENCODERS_AGREE
    @given(action=st.builds(Action, st.sampled_from(ActionKind), _values,
                            _values, _values, _values, _dicts(_values)))
    def test_action_lines(self, action):
        assert _written(serialize_action, action) == _written(
            oracles.ref_serialize_action, action)

    @ENCODERS_AGREE
    @given(header=st.builds(BlockHeader, _values, _values, _values))
    def test_header_lines(self, header):
        assert _written(serialize_header, header) == _written(
            oracles.ref_serialize_header, header)


# Payloads nested as reports nest them, mostly in objects keyed by text, so
# that subtrees orjson writes as json does sit beside ones it does not.
_payloads = st.recursive(_values, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(_texts, inner, max_size=4),
    _dicts(inner)), max_leaves=10)


class TestEncoderAgreesWithJson:
    @ENCODERS_AGREE
    @given(payload=_payloads, depth=st.integers(0, 3))
    def test_both_modes(self, payload, depth):
        """encode_json writes json's bytes, or raises json's error type, in
        both modes; `depth` indents every line after the first."""
        expected = _written(oracles.ref_encode_json, payload)
        if isinstance(expected, str):
            expected = expected.replace("\n", "\n" + "  " * depth)
        assert _written(lambda p: encode_json(p, depth=depth), payload) == expected
        assert _written(lambda p: encode_json(p, indent=False), payload) == _written(
            lambda p: oracles.ref_encode_json(p, indent=False), payload)

    @pytest.mark.parametrize("indent", [True, False])
    def test_circular_reference(self, indent):
        loop = [1e16, {"k": 2**64}]
        loop[1]["loop"] = loop
        with pytest.raises(ValueError) as ours:
            encode_json(loop, indent)
        with pytest.raises(ValueError) as theirs:
            oracles.ref_encode_json(loop, indent)
        assert str(ours.value) == str(theirs.value)
