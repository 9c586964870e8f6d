import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import dposforensics
from dposforensics.model import ActionKind, make_action, serialize_action

T0 = 1_609_459_200  # 2021-01-01T00:00:00Z
DAY = 86_400

# The generator config of test_11, whose reports tests/test_report_pins.py
# also pins.
TEST_11_CONFIG = {
    "seed": 23, "n_accounts": 150, "n_candidates": 22, "n_proxies": 3,
    "duration_days": 40, "participation_rate": 0.5,
    "proxy_weight_target": 0.1, "rounds_per_day": 1,
    "plants": [{"kind": "near_clique", "size": 6},
               {"kind": "linear_gang", "size": 4}],
}


class TraceBuilder:
    """Compact trace construction for tests; block/seq auto-increment."""

    def __init__(self, start=T0):
        self.actions = []
        self.t = start

    def _add(self, kind, actor, payload, ts=None):
        if ts is None:
            self.t += 1
            ts = self.t
        else:
            self.t = max(self.t, ts)
        idx = len(self.actions)
        self.actions.append(make_action(kind, actor, ts, idx + 1, idx, payload))
        return self

    def newaccount(self, creator, created, ts=None):
        return self._add(ActionKind.NEW_ACCOUNT, creator,
                         {"created": created, "creator": creator}, ts)

    def delegate(self, actor, amount, ts=None):
        return self._add(ActionKind.DELEGATE_BW, actor, {"amount": amount}, ts)

    def undelegate(self, actor, amount, ts=None):
        return self._add(ActionKind.UNDELEGATE_BW, actor, {"amount": amount}, ts)

    def regproducer(self, actor, ts=None):
        return self._add(ActionKind.REG_PRODUCER, actor, {}, ts)

    def regproxy(self, actor, isproxy=True, ts=None):
        return self._add(ActionKind.REG_PROXY, actor, {"isproxy": isproxy}, ts)

    def vote(self, actor, producers, ts=None):
        return self._add(ActionKind.VOTE_PRODUCER, actor,
                         {"proxy": "", "producers": sorted(producers)}, ts)

    def vote_proxy(self, actor, proxy, ts=None):
        return self._add(ActionKind.VOTE_PRODUCER, actor,
                         {"proxy": proxy, "producers": []}, ts)

    def build(self):
        return list(self.actions)


@pytest.fixture
def tb():
    return TraceBuilder()


def random_trace(seed, n_actions=500, n_accounts=40, n_candidates=8, n_proxies=4):
    """Random action soup: mostly valid operations, some that replay rejects."""
    rng = random.Random(seed)
    b = TraceBuilder()
    accounts = [f"acct{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(n_accounts)]
    candidates = accounts[:n_candidates]
    proxies = accounts[n_candidates:n_candidates + n_proxies]
    for name in accounts:
        b.newaccount("genesis", name)
        b.delegate(name, rng.randint(1, 500) * 10_000)
    for name in candidates:
        b.regproducer(name)
    for name in proxies:
        b.regproxy(name)
    voters = accounts[n_candidates:]
    for _ in range(n_actions):
        roll = rng.random()
        actor = rng.choice(voters)
        step = rng.randint(1, DAY)
        b.t += step
        if roll < 0.30:
            k = rng.randint(0, min(5, len(candidates)))
            b.vote(actor, rng.sample(candidates, k))
        elif roll < 0.45:
            b.vote_proxy(actor, rng.choice(proxies))
        elif roll < 0.60:
            b.delegate(actor, rng.randint(1, 100) * 10_000)
        elif roll < 0.72:
            b.undelegate(actor, rng.randint(1, 2000) * 10_000)  # may be rejected
        elif roll < 0.82:
            proxy = rng.choice(proxies)
            b.regproxy(proxy, rng.random() < 0.8)
        elif roll < 0.92:
            b.vote(rng.choice(proxies), rng.sample(candidates, rng.randint(1, 4)))
        else:
            b.vote(actor, [rng.choice(accounts)])  # may hit a non-candidate
    return b.build()


CANDIDATES = ["bpa", "bpb", "bpc", "bpd"]
PROXIES = ["poola", "poolb"]
VOTERS = ["alice", "bob", "carol", "dave"]


@st.composite
def voting_traces(draw):
    """Traces in which candidates vote too (for themselves among others),
    voters move between direct votes, proxies and no votes, proxies
    deregister, stakes change, and actions share timestamps; plus an end time
    at or after the last action."""
    b = TraceBuilder()
    for name in CANDIDATES + PROXIES + VOTERS:
        b.newaccount("genesis", name).delegate(name, draw(st.integers(1, 50)) * 10_000)
    for name in CANDIDATES:
        b.regproducer(name)
    for name in PROXIES:
        b.regproxy(name)
    everyone = st.sampled_from(CANDIDATES + PROXIES + VOTERS)
    for _ in range(draw(st.integers(0, 40))):
        ts = b.t + draw(st.sampled_from([0, 0, 1, DAY]))
        kind = draw(st.sampled_from(["vote", "vote", "proxy", "stake", "unstake",
                                     "regproxy"]))
        if kind == "vote":
            b.vote(draw(everyone), draw(st.sets(st.sampled_from(CANDIDATES))), ts=ts)
        elif kind == "proxy":
            b.vote_proxy(draw(st.sampled_from(VOTERS + CANDIDATES)),
                         draw(st.sampled_from(PROXIES)), ts=ts)
        elif kind == "stake":
            b.delegate(draw(everyone), draw(st.integers(1, 20)) * 10_000, ts=ts)
        elif kind == "unstake":
            b.undelegate(draw(everyone), draw(st.integers(1, 20)) * 10_000, ts=ts)
        else:
            b.regproxy(draw(st.sampled_from(PROXIES)), draw(st.booleans()), ts=ts)
    trace = b.build()
    return trace, trace[-1].timestamp + draw(st.sampled_from([0, 1, 3 * DAY]))


def run_under_hash_seed(hash_seed, probe, cwd):
    """Run the statements `probe` in a fresh interpreter under
    PYTHONHASHSEED=hash_seed, with the package and the test modules on its
    path; the probe must exit 0."""
    paths = [str(Path(dposforensics.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _fuzz_trace() -> list[dict]:
    """A short valid trace with every action kind, as JSON records."""
    b = TraceBuilder().regproducer("bpa").regproducer("bpb")
    b.newaccount("genesis", "pool").regproxy("pool").vote("pool", ["bpa"])
    b.newaccount("genesis", "alice").delegate("alice", 5 * 10_000)
    b.vote_proxy("alice", "pool").undelegate("alice", 10_000)
    b.vote("alice", ["bpa", "bpb"])
    return [json.loads(serialize_action(a)) for a in b.build()]


FUZZ_TRACE = _fuzz_trace()
FUZZ_HEADERS = [{"height": h, "producer": ("bpa", "bpb")[h % 2],
                 "timestamp": T0 + h * DAY / 2} for h in range(1, 6)]

json_values = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, -1, 10**400, 2**63])
    | st.integers(-2**40, 2**40) | st.floats() | st.text(max_size=14),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=4)


@st.composite
def one_field_changed(draw, value):
    """A deep copy of value with one field replaced by any JSON value, or
    deleted if it is a dict entry. The field is found by descending from the
    top one level at a time, so a top-level field is hit as often as one deep
    inside a long list."""
    value = copy.deepcopy(value)
    parent, key = None, None
    node = value
    while isinstance(node, (dict, list)) and node and (
            parent is None or draw(st.booleans())):
        parent = node
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        node = parent[key]
    if isinstance(parent, dict) and draw(st.integers(0, 4)) == 0:
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return value
