import gc
import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import dposforensics
from dposforensics.cli import _cadence_or_die, _creators, main
from dposforensics.clustering import (cluster_voters, sample_voting_records,
                                      top_stakeholders)
from dposforensics.metrics import daily_production, proxy_share_series
from dposforensics.model import (Action, ActionKind, load_headers, load_trace,
                                 serialize_action)
from dposforensics.replay import VotingState, replay, replay_with_snapshots
from dposforensics.synth import month_windows

from conftest import (DAY, FUZZ_HEADERS, FUZZ_TRACE, T0, TraceBuilder,
                      one_field_changed)


def write_config(path: Path, **overrides) -> Path:
    config = {
        "seed": 5,
        "n_accounts": 140,
        "n_candidates": 22,
        "n_proxies": 3,
        "duration_days": 40,
        "participation_rate": 0.5,
        "proxy_weight_target": 0.1,
        "rounds_per_day": 1,
        "plants": [
            {"kind": "similar_cluster", "size": 4},
            {"kind": "linear_gang", "size": 4},
            {"kind": "near_clique", "size": 5},
        ],
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def ledger_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("ledger")
    config = write_config(base / "config.json")
    result = CliRunner().invoke(main, ["generate", "-c", str(config),
                                       "-o", str(base)])
    assert result.exit_code == 0, result.output
    return base


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGenerate:
    def test_outputs_exist(self, ledger_dir):
        for name in ("trace.jsonl", "headers.jsonl", "truth.json"):
            assert (ledger_dir / name).exists()

    def test_truth_embeds_manifest_digests(self, ledger_dir):
        truth = json.loads((ledger_dir / "truth.json").read_text())
        assert truth["manifest"]["digests"]["trace"] == \
            digest(ledger_dir / "trace.jsonl")

    def test_regeneration_is_byte_identical(self, ledger_dir, tmp_path):
        config = write_config(tmp_path / "config.json")
        result = CliRunner().invoke(main, ["generate", "-c", str(config),
                                           "-o", str(tmp_path)])
        assert result.exit_code == 0
        assert digest(tmp_path / "trace.jsonl") == digest(ledger_dir / "trace.jsonl")
        assert digest(tmp_path / "headers.jsonl") == \
            digest(ledger_dir / "headers.jsonl")

    def test_bad_config_exits_2(self, tmp_path):
        config = write_config(tmp_path / "config.json", n_candidates=5)
        result = CliRunner().invoke(main, ["generate", "-c", str(config),
                                           "-o", str(tmp_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", [b"[" * 100_000, b'{"seed": "\xff"}'],
                             ids=["deep", "not_utf8"])
    def test_unreadable_config_exits_2_without_traceback(self, text, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(text)
        result = CliRunner().invoke(main, ["generate", "-c", str(config),
                                           "-o", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "config is not valid JSON" in result.output

    @pytest.mark.parametrize("overrides, field", [
        ({"plants": 5}, "plants"),
        ({"plants": [{"kind": "linear_gang", "size": 4, "bogus": 1}]}, "bogus"),
        ({"n_accounts": "abc"}, "n_accounts"),
        ({"plants": [{"kind": "linear_gang", "size": "3"}]}, "size"),
        ({"plants": [{"kind": "linear_gang", "size": 4, "months": 4}]}, "months"),
        ({"n_accounts": 1e9}, "n_accounts"),
        # of the right type, but out of range
        ({"start_time": 0}, "start_time"),
        ({"start_time": True}, "start_time"),
        ({"duration_days": math.inf}, "duration_days"),
        ({"start_time": 253402300000}, "start_time"),
        ({"stake_powerlaw_alpha": math.nan}, "stake_powerlaw_alpha"),
        # rounds that overlap the next, and so many that the run never ends
        ({"rounds_per_day": 2000}, "rounds_per_day"),
        ({"rounds_per_day": 1e9}, "rounds_per_day"),
        # in range, but the vote weights overflow a float
        ({"start_time": 253398844800}, "start_time"),
    ], ids=["plants_int", "plant_unknown_key", "n_accounts_str", "size_str",
            "months_int", "n_accounts_float", "start_zero", "start_true",
            "duration_inf", "start_year_9999", "alpha_nan", "rounds_overlap",
            "rounds_endless", "start_weight_overflow"])
    def test_field_of_wrong_type_exits_2_without_traceback(self, overrides, field,
                                                          tmp_path):
        config = write_config(tmp_path / "config.json", **overrides)
        result = CliRunner().invoke(main, ["generate", "-c", str(config),
                                           "-o", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert field in result.output

    def test_weight_overflow_message_independent_of_hash_seed(self, tmp_path):
        """The overflow names the first candidate in name order whose weight
        outgrows a float, under every string hash seed."""
        config = write_config(tmp_path / "config.json", start_time=253398844800)
        src = str(Path(dposforensics.__file__).parents[1])
        stderr = []
        for hash_seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            result = subprocess.run(
                [sys.executable, "-m", "dposforensics.cli", "generate", "-c",
                 str(config), "-o", str(tmp_path / f"hash{hash_seed}")],
                env=env, capture_output=True, text=True)
            assert result.returncode == 2, result.stderr
            stderr.append(result.stderr)
        assert "vote weight overflow" in stderr[0]
        assert stderr[1:] == stderr[:1] * 2

    def test_missing_config_exits_2(self, tmp_path):
        result = CliRunner().invoke(main, ["generate", "-c",
                                           str(tmp_path / "nope.json")])
        assert result.exit_code == 2


class TestReplayCommand:
    def test_state_written(self, ledger_dir, tmp_path):
        result = CliRunner().invoke(main, ["replay",
                                           str(ledger_dir / "trace.jsonl"),
                                           "-o", str(tmp_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "state.json").read_text())
        assert payload["rejected"] == []
        assert len(payload["state_digest"]) == 64

    def test_malformed_trace_exits_3(self, tmp_path):
        bad = tmp_path / "trace.jsonl"
        bad.write_text('{"kind": "voteproducer"}\n')
        result = CliRunner().invoke(main, ["replay", str(bad),
                                           "-o", str(tmp_path)])
        assert result.exit_code == 3
        assert "unreadable trace" in result.output

    def test_env_var_output_dir(self, ledger_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DPOSF_OUT", str(tmp_path / "envout"))
        result = CliRunner().invoke(main, ["replay",
                                           str(ledger_dir / "trace.jsonl")])
        assert result.exit_code == 0
        assert (tmp_path / "envout" / "state.json").exists()


class TestAnalysisCommands:
    def test_metrics_outputs(self, ledger_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "metrics", str(ledger_dir / "trace.jsonl"),
            str(ledger_dir / "headers.jsonl"), "-o", str(tmp_path)])
        assert result.exit_code == 0, result.output
        for name in ("entropy.csv", "turnover.csv", "active_days.csv",
                     "proxy_share.csv", "stake_distribution.csv", "metrics.json"):
            assert (tmp_path / name).exists()
        header = (tmp_path / "entropy.csv").read_text().splitlines()[0]
        assert header == "month,blocks,entropy_n_10,entropy_n_20,entropy_n_all"

    def test_cluster_outputs(self, ledger_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "cluster", str(ledger_dir / "trace.jsonl"), "-o", str(tmp_path),
            "--top-stake-pct", "0.5"])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "clusters.json").read_text())
        assert payload["n_voters"] > 0
        for c in payload["clusters"]:
            assert len(c["members"]) >= 2

    def test_cluster_theta_out_of_range(self, ledger_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "cluster", str(ledger_dir / "trace.jsonl"), "-o", str(tmp_path),
            "--theta", "1.01"])
        assert result.exit_code == 2
        assert "theta out of range" in result.output

    def test_motifs_outputs(self, ledger_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "motifs", str(ledger_dir / "trace.jsonl"), "-o", str(tmp_path)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "motifs.json").read_text())
        # the planted linear gang and near clique guarantee linear instances
        assert summary["counts"]["linear"] > 0
        lines = (tmp_path / "motifs.jsonl").read_text().splitlines()
        assert len(lines) == sum(summary["counts"].values())

    def test_gangs_outputs(self, ledger_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "gangs", str(ledger_dir / "trace.jsonl"), "-o", str(tmp_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "gangs.json").read_text())
        assert "alpha" in payload["fit"]
        assert (tmp_path / "gang_scores.csv").exists()

    def test_gangs_pct_out_of_range(self, ledger_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "gangs", str(ledger_dir / "trace.jsonl"), "-o", str(tmp_path),
            "--outlier-pct", "0"])
        assert result.exit_code == 2


@pytest.fixture(scope="module")
def report_dir(ledger_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    result = CliRunner().invoke(main, [
        "all", str(ledger_dir / "trace.jsonl"),
        str(ledger_dir / "headers.jsonl"), "-o", str(out),
        "--top-stake-pct", "0.5"])
    assert result.exit_code == 0, result.output
    return out


class TestAllAndScore:
    def test_summary_written(self, report_dir):
        summary = json.loads((report_dir / "summary.json").read_text())
        assert set(summary["overlap"]) == {"cluster_motif", "cluster_gang",
                                           "motif_gang", "all_three"}

    def test_all_is_reproducible(self, ledger_dir, report_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "all", str(ledger_dir / "trace.jsonl"),
            str(ledger_dir / "headers.jsonl"), "-o", str(tmp_path),
            "--top-stake-pct", "0.5"])
        assert result.exit_code == 0, result.output
        for path in sorted(report_dir.iterdir()):
            assert digest(tmp_path / path.name) == digest(path), path.name

    def test_score_reports(self, ledger_dir, report_dir):
        result = CliRunner().invoke(main, [
            "score", str(report_dir), str(ledger_dir / "truth.json")])
        assert result.exit_code == 0, result.output
        scores = json.loads((report_dir / "score.json").read_text())["scores"]
        assert {"similar_cluster", "linear_gang", "near_clique"} <= set(scores)
        assert scores["linear_gang"]["recall"] == 1.0
        for s in scores.values():
            assert 0.0 <= s["f1"] <= 1.0

    def test_score_rejects_mismatched_trace(self, ledger_dir, report_dir,
                                            tmp_path):
        config = write_config(tmp_path / "config.json", seed=99)
        result = CliRunner().invoke(main, ["generate", "-c", str(config),
                                           "-o", str(tmp_path)])
        assert result.exit_code == 0
        result = CliRunner().invoke(main, [
            "score", str(report_dir), str(tmp_path / "truth.json")])
        assert result.exit_code == 2
        assert "different trace" in result.output


    def test_all_reports_match_single_commands(self, ledger_dir, report_dir,
                                               tmp_path):
        trace, headers = str(ledger_dir / "trace.jsonl"), str(ledger_dir / "headers.jsonl")
        pct = ["--top-stake-pct", "0.5"]
        for args in (["metrics", trace, headers, *pct], ["cluster", trace, *pct],
                     ["motifs", trace], ["gangs", trace]):
            result = CliRunner().invoke(main, [*args, "-o", str(tmp_path)])
            assert result.exit_code == 0, result.output
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {p.name for p in report_dir.iterdir()} - {"summary.json",
                                                                  "score.json"}
        commands = {"metrics.json": "metrics", "clusters.json": "cluster",
                    "motifs.json": "motifs", "gangs.json": "gangs"}
        for name in sorted(names):
            single, combined = tmp_path / name, report_dir / name
            if single.suffix == ".json":
                single_payload = json.loads(single.read_text())
                combined_payload = json.loads(combined.read_text())
                manifest = single_payload["manifest"]
                all_manifest = combined_payload["manifest"]
                assert manifest["command"] == commands[name]
                assert manifest["params"].items() <= all_manifest["params"].items(), name
                assert manifest["digests"]["trace"] == all_manifest["digests"]["trace"]
                headers = {"headers"} if name == "metrics.json" else set()
                assert set(manifest["inputs"]) == {"trace"} | headers, name
                del single_payload["manifest"], combined_payload["manifest"]
                assert single_payload == combined_payload, name
            else:
                assert single.read_bytes() == combined.read_bytes(), name


@pytest.mark.parametrize("command", ["replay", "metrics", "cluster", "motifs",
                                     "gangs", "all", "generate"])
def test_each_command_folds_the_trace_once(command, ledger_dir, tmp_path,
                                           monkeypatch):
    applied = []
    apply = VotingState.apply

    def counted_apply(self, action):
        applied.append(action)
        return apply(self, action)

    monkeypatch.setattr(VotingState, "apply", counted_apply)
    trace, headers = str(ledger_dir / "trace.jsonl"), str(ledger_dir / "headers.jsonl")
    args = {"metrics": ["metrics", trace, headers],
            "all": ["all", trace, headers, "--top-stake-pct", "0.5"],
            "generate": ["generate", "-c", str(ledger_dir / "config.json")],
            }.get(command, [command, trace])
    result = CliRunner().invoke(main, [*args, "-o", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert len(applied) == len(load_trace(trace))


@pytest.mark.parametrize("command", ["replay", "metrics", "cluster", "motifs",
                                     "gangs", "all"])
def test_no_command_holds_the_trace(command, ledger_dir, tmp_path, monkeypatch):
    """Each command folds its trace as it reads it: when the last action is
    applied, the Action objects alive are a few plus the rejected ones, not
    the whole trace."""
    trace, headers = ledger_dir / "trace.jsonl", str(ledger_dir / "headers.jsonl")
    last = json.loads(trace.read_text().splitlines()[-1])

    def live_actions():
        return sum(isinstance(o, Action) for o in gc.get_objects())

    before = live_actions()
    live = []
    apply = VotingState.apply

    def counted_apply(self, action):
        if (action.block, action.seq) == (last["block"], last["seq"]):
            live.append(live_actions() - before)
        return apply(self, action)

    monkeypatch.setattr(VotingState, "apply", counted_apply)
    args = {"metrics": ["metrics", str(trace), headers],
            "all": ["all", str(trace), headers, "--top-stake-pct", "0.5"],
            }.get(command, [command, str(trace)])
    result = CliRunner().invoke(main, [*args, "-o", str(tmp_path)])
    assert result.exit_code == 0, result.output
    monkeypatch.undo()
    _, rejected = replay(load_trace(str(trace)))
    assert len(live) == 1
    assert live[0] <= 5 + len(rejected), live


def _perfbench(name):
    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench_tracer():
    return _perfbench("tracer")


def test_every_traced_target_exists():
    """The benchmark's tracer wraps these by name; a rename would break its
    traced pass."""
    tracer = _perfbench_tracer()
    targets = [(module, owner, attr) for module, owner, attr, *_ in tracer.SPANNED]
    targets += [("replay", "VotingState", "apply"),
                ("clustering", None, "record_similarity")]
    for module, owner, attr in targets:
        target = importlib.import_module(f"dposforensics.{module}")
        if owner is not None:
            target = getattr(target, owner)
        assert callable(getattr(target, attr, None)), (module, owner, attr)


def test_benchmark_crosschecks_pass(ledger_dir, tmp_path, monkeypatch):
    """The benchmark's cross-checks import the oracles and the package by
    name, and every check passes on the reports of a full run."""
    root = Path(__file__).parents[1]
    for path in ("tests", "src"):
        monkeypatch.syspath_prepend(str(root / path))
    crosscheck = _perfbench("crosscheck")
    result = CliRunner().invoke(main, [
        "all", str(ledger_dir / "trace.jsonl"), str(ledger_dir / "headers.jsonl"),
        "--top-stake-pct", "0.5", "-o", str(tmp_path)])
    assert result.exit_code == 0, result.output
    checks = crosscheck.run_all(ledger_dir, tmp_path, {"all"}, top_stake_pct=0.5,
                                theta=0.9, window_days=7.0)
    assert len(checks) == 3 and all(ok for _, ok, _ in checks), checks


def test_traced_pass_counts_the_lines_read(ledger_dir, tmp_path):
    """The benchmark's tracer counts the actions and headers a command
    reads from the len() of what load_trace and load_headers return."""
    trace, headers = str(ledger_dir / "trace.jsonl"), str(ledger_dir / "headers.jsonl")
    code, run = _perfbench_tracer().run_command(
        ["all", trace, headers, "--top-stake-pct", "0.5", "-o", str(tmp_path)], "t")
    assert code == 0
    assert run.counts["model.actions"] == len(load_trace(trace)) > 0
    assert run.counts["model.headers"] == len(load_headers(headers)) > 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_lazy_sample_times_equal_those_of_the_span(data):
    """Sample times taken as the trace is read, from its first timestamp on,
    are those its first and last timestamps give, and the snapshots equal
    those of the same trace folded as a list at those times."""
    cadence = data.draw(st.sampled_from(["monthly", 1, 3_600, 7 * DAY, "longer"]))
    first = data.draw(st.integers(T0, T0 + 400 * DAY))
    if cadence == "monthly":
        span = data.draw(st.integers(0, 400 * DAY))
    elif cadence == "longer":  # a step longer than the trace
        span = data.draw(st.integers(0, 30 * DAY))
        cadence = span + data.draw(st.integers(1, DAY))
    else:
        span = data.draw(st.integers(0, 150 * cadence))
    last = first + span
    stamps = sorted(data.draw(st.lists(st.integers(first, last), max_size=12)))
    b = TraceBuilder(start=first).regproducer("bpa", ts=first)
    for i, ts in enumerate(stamps + [last]):
        voter = ("va", "vb", "vc")[i % 3]
        if i % 2:
            b.vote(voter, ["bpa"], ts=ts)
        else:
            b.delegate(voter, (i + 1) * 10_000, ts=ts)
    trace = b.build()
    if cadence == "monthly":
        expected = [hi - 1 for _, hi in month_windows(first, last + 1)]
    else:
        expected = list(range(first + cadence - 1, last + 1 + cadence, cadence))
    # A step of s seconds, as days that cut to s: repr(s / DAY) can read
    # back as s - 1 (it does for s = 11).
    days = "monthly" if cadence == "monthly" else repr((cadence + 0.5) / DAY)
    _, _, lazy = replay_with_snapshots(iter(trace), _cadence_or_die(days))
    assert [s.taken_at for s in lazy] == expected
    assert lazy == replay_with_snapshots(trace, expected)[2]


def _run_back_trace() -> list[Action]:
    b = TraceBuilder().regproducer("bpa").regproducer("bpb")
    b.newaccount("genesis", "pool").regproxy("pool").vote("pool", ["bpa"])
    b.newaccount("genesis", "alice").delegate("alice", 5 * 10_000)
    b.vote_proxy("alice", "pool", ts=T0 + 3 * DAY)
    b.vote("pool", ["bpb"], ts=T0 + 40 * DAY)
    b.vote("alice", ["bpa"], ts=T0 + 41 * DAY)
    b.delegate("alice", 10_000, ts=T0 + 10 * DAY)
    return b.build()


@pytest.mark.parametrize("cadence", ["monthly", "1"])
def test_timestamps_that_run_back_sample_at_the_span(cadence, ledger_dir,
                                                     tmp_path):
    """A trace in block order whose last timestamp is not its latest: the
    sample times are those its first and last timestamps give, taken when a
    later stamp passes them, as in a fold over the known times."""
    trace = _run_back_trace()
    first, last = trace[0].timestamp, trace[-1].timestamp
    times = _cadence_or_die(cadence)
    assert replay_with_snapshots(iter(trace), times)[2] is None
    _, _, snapshots = replay_with_snapshots(trace, list(times(first, last)))
    share = proxy_share_series(snapshots)
    expected = [f"{c.timestamp},{c.share:.9f},{s.share:.9f},{w.share:.9f}"
                for c, s, w in zip(share["count"], share["stake"], share["weight"])]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(serialize_action(a) + "\n" for a in trace))
    result = CliRunner().invoke(main, [
        "metrics", str(path), str(ledger_dir / "headers.jsonl"),
        "--snapshot-cadence", cadence, "-o", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "out" / "proxy_share.csv").read_text().splitlines()[1:]
    assert rows == expected
    # taken before the stamp 40 days in, with alice voting through the pool;
    # by the end she votes herself
    assert rows[-1].split(",")[1] == "0.500000000"


def test_timestamps_that_run_back_in_the_last_month(ledger_dir, tmp_path):
    """Timestamps that run back within the trace's only month: no month end
    passes while it is read, and the one cut to the last timestamp falls
    before the latest stamp, so the fold gives no samples. metrics and
    cluster fold again and report the one sample at the last timestamp,
    taken before the stamp 5 days in."""
    b = TraceBuilder().regproducer("bpa", ts=T0 + 1)
    b.delegate("alice", 5 * 10_000, ts=T0 + 2).vote("alice", ["bpa"], ts=T0 + 2 * DAY)
    b.delegate("alice", 3 * 10_000, ts=T0 + 5 * DAY)
    b.vote("bob", ["bpa"], ts=T0 + 3 * DAY)
    trace = b.build()
    assert replay_with_snapshots(iter(trace), _cadence_or_die("monthly"))[2] is None
    _, _, snapshots = replay_with_snapshots(trace, [T0 + 3 * DAY])
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(serialize_action(a) + "\n" for a in trace))
    for args in (["metrics", str(path), str(ledger_dir / "headers.jsonl")],
                 ["cluster", str(path)]):
        result = CliRunner().invoke(main, args + ["-o", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    assert (out / "proxy_share.csv").read_text().splitlines()[1:] == [
        f"{T0 + 3 * DAY},0.000000000,0.000000000,0.000000000"]
    assert (out / "stake_distribution.csv").read_text() == \
        "rank,account,stake\n1,alice,50000\n"
    voters = top_stakeholders(snapshots[-1], 0.05)
    clusters = cluster_voters(voters, sample_voting_records(snapshots, voters), 0.9)
    payload = json.loads((out / "clusters.json").read_text())
    assert payload["n_voters"] == len(voters) == 1
    assert [c["members"] for c in payload["clusters"]] == \
        [sorted(c.members) for c in clusters]


def test_voters_without_stake_have_a_top_share_of_0(ledger_dir, tmp_path):
    """Every voter votes with no stake: the stakes total 0, so the top share
    is 0.0 and no power law is fitted."""
    trace = TraceBuilder().regproducer("bpa").vote("alice", ["bpa"]).vote(
        "bob", ["bpa"]).build()
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(serialize_action(a) + "\n" for a in trace))
    result = CliRunner().invoke(main, [
        "metrics", str(path), str(ledger_dir / "headers.jsonl"),
        "-o", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert summary["top_share"] == 0.0
    assert "error" in summary["stake_powerlaw"]


def test_timestamps_that_run_back_in_a_pipe_exit_3(ledger_dir, tmp_path):
    """Such a trace is folded twice, which a pipe cannot be: the command
    fails rather than write reports without the snapshots."""
    text = "".join(serialize_action(a) + "\n" for a in _run_back_trace())
    read, write = os.pipe()
    os.write(write, text.encode())
    os.close(write)
    try:
        result = CliRunner().invoke(main, [
            "metrics", f"/dev/fd/{read}", str(ledger_dir / "headers.jsonl"),
            "-o", str(tmp_path)])
    finally:
        os.close(read)
    assert result.exit_code == 3, result.output
    assert "not a regular file" in result.output
    assert not list(tmp_path.iterdir())


def test_second_fold_must_read_the_bytes_of_the_first(ledger_dir, tmp_path,
                                                      monkeypatch):
    """Timestamps that run back fold a regular file twice; a file whose bytes
    differ the second time exits 3, even where its actions do not."""
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(serialize_action(a) + "\n" for a in _run_back_trace()))
    folds = []

    def fold(*args, **kwargs):
        if folds:
            path.write_text(path.read_text() + "\n")
        folds.append(args)
        return replay_with_snapshots(*args, **kwargs)

    monkeypatch.setattr("dposforensics.cli.replay_with_snapshots", fold)
    result = CliRunner().invoke(main, [
        "metrics", str(path), str(ledger_dir / "headers.jsonl"),
        "-o", str(tmp_path / "out")])
    assert len(folds) == 2
    assert result.exit_code == 3, result.output
    assert "the trace changed while it was read" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, piped", [("replay", "trace"), ("metrics", "trace"),
                                            ("metrics", "headers")],
                         ids=["replay", "metrics", "metrics-headers"])
def test_piped_trace_has_the_digest_of_its_bytes(command, piped, tmp_path):
    """The manifest digests the bytes the command read, so a trace or a
    header file from a pipe, which cannot be opened again, has the digest of
    the same bytes in a regular file. A piped header file is counted
    in-process, a regular one in a forked child."""
    data = {"trace": _jsonl(FUZZ_TRACE)}
    if command == "metrics":
        data["headers"] = _jsonl(FUZZ_HEADERS)
    paths = {name: tmp_path / f"{name}.jsonl" for name in data}
    for name, text in data.items():
        paths[name].write_bytes(text.encode())
    read, write = os.pipe()
    os.write(write, data[piped].encode())
    os.close(write)
    try:
        piped_run = CliRunner().invoke(main, [
            command, *(f"/dev/fd/{read}" if name == piped else str(path)
                       for name, path in paths.items()),
            "-o", str(tmp_path / "piped")])
    finally:
        os.close(read)
    assert piped_run.exit_code == 0, piped_run.output
    regular = CliRunner().invoke(main, [
        command, *map(str, paths.values()), "-o", str(tmp_path / "regular")])
    assert regular.exit_code == 0, regular.output
    _assert_no_child_left()
    report = "state.json" if command == "replay" else "metrics.json"
    digests = [json.loads((tmp_path / run / report).read_text())
               ["manifest"]["digests"] for run in ("piped", "regular")]
    assert digests[0] == digests[1]
    assert digests[0][piped] == hashlib.sha256(data[piped].encode()).hexdigest()


def _assert_no_child_left():
    """The command reaped every child it forked."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _with_bad_last_line(path: Path, tmp_path: Path) -> tuple[Path, int]:
    """A copy of the file with a line that is not JSON after its last, and
    that line's number."""
    lines = path.read_text().splitlines()
    copy = tmp_path / f"bad_{path.name}"
    copy.write_text("".join(line + "\n" for line in lines) + "not json\n")
    return copy, len(lines) + 1


@pytest.mark.parametrize("command", ["metrics", "all"])
def test_a_trace_fault_wins_over_a_header_fault(command, ledger_dir, tmp_path):
    trace, trace_line = _with_bad_last_line(ledger_dir / "trace.jsonl", tmp_path)
    headers, _ = _with_bad_last_line(ledger_dir / "headers.jsonl", tmp_path)
    result = CliRunner().invoke(main, [command, str(trace), str(headers),
                                       "-o", str(tmp_path / "out")])
    _assert_no_child_left()
    assert result.exit_code == 3, result.output
    assert f"unreadable trace: line {trace_line}:" in result.output
    assert "unreadable headers" not in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["metrics", "all"])
def test_a_header_fault_shows_after_a_good_fold(command, ledger_dir, tmp_path,
                                                monkeypatch):
    headers, line = _with_bad_last_line(ledger_dir / "headers.jsonl", tmp_path)
    trace = str(ledger_dir / "trace.jsonl")
    applied = []
    apply = VotingState.apply

    def counted_apply(self, action):
        applied.append(action)
        return apply(self, action)

    monkeypatch.setattr(VotingState, "apply", counted_apply)
    result = CliRunner().invoke(main, [command, trace, str(headers),
                                       "-o", str(tmp_path / "out")])
    _assert_no_child_left()
    assert len(applied) == len(load_trace(trace))
    assert result.exit_code == 3, result.output
    assert result.output.startswith(f"error: unreadable headers: line {line}:")
    assert result.output.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_child_without_a_result_leaves_the_count_to_the_parent(ledger_dir, tmp_path,
                                                                  monkeypatch):
    """The child counts the headers while the parent folds; a child whose
    count raises, here anything but a ParseError, gives no result, and the
    parent counts the headers itself, to the same reports."""
    parent = os.getpid()
    counted_in_parent = []
    fail_in_child = False

    def count(headers):
        if os.getpid() == parent:
            counted_in_parent.append(headers.path)
        elif fail_in_child:
            raise RuntimeError("no count in the child")
        return daily_production(headers)

    monkeypatch.setattr("dposforensics.cli.daily_production", count)
    args = ["metrics", str(ledger_dir / "trace.jsonl"), str(ledger_dir / "headers.jsonl")]
    outs = [tmp_path / "forked", tmp_path / "in_process"]
    for out in outs:
        result = CliRunner().invoke(main, [*args, "-o", str(out)])
        _assert_no_child_left()
        assert result.exit_code == 0, result.output
        assert result.output == f"metrics written to {out}\n"
        assert len(counted_in_parent) == fail_in_child
        fail_in_child = True
    assert counted_in_parent == [str(ledger_dir / "headers.jsonl")]
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_an_interrupted_fold_kills_the_child(ledger_dir, tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("dposforensics.cli.replay_with_snapshots", interrupted)
    result = CliRunner().invoke(main, [
        "all", str(ledger_dir / "trace.jsonl"), str(ledger_dir / "headers.jsonl"),
        "-o", str(tmp_path / "out")])
    _assert_no_child_left()
    assert result.exit_code == 1, result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the thread count from /proc")
def test_metrics_forks_from_one_thread(ledger_dir, tmp_path):
    """numpy starts a thread on import; OpenBLAS stops it before a fork, so
    the parent has one thread right after its one fork of `dposf metrics`."""
    src = str(Path(dposforensics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import os, sys\n"
             "from dposforensics.cli import main\n"
             "seen = []\n"
             "def threads():\n"
             "    with open('/proc/self/status') as status:\n"
             "        seen.extend(l.split()[1] for l in status if l.startswith('Threads:'))\n"
             "os.register_at_fork(after_in_parent=threads)\n"
             "try:\n"
             "    main(sys.argv[1:])\n"
             "except SystemExit as exc:\n"
             "    assert not exc.code, exc.code\n"
             "print(seen)")
    out = subprocess.run([sys.executable, "-c", probe, "metrics",
                          str(ledger_dir / "trace.jsonl"), str(ledger_dir / "headers.jsonl"),
                          "-o", str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "['1']"


@pytest.mark.parametrize("command", ["generate", "score"])
def test_piped_input_has_the_digest_of_its_bytes(command, ledger_dir, report_dir,
                                                 tmp_path):
    """generate reads its config, and score its truth file, once, so either
    from a pipe has the digest of the same file given as a regular file; the
    trace and headers that generate writes have the digests of their
    bytes."""
    path = (write_config(tmp_path / "config.json") if command == "generate"
            else ledger_dir / "truth.json")
    data = path.read_bytes()

    def run(source: str, out: str) -> dict:
        if command == "generate":
            args, report = ["generate", "-c", source], "truth.json"
        else:
            args, report = ["score", str(report_dir), source], "score.json"
        result = CliRunner().invoke(main, [*args, "-o", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
        return json.loads((tmp_path / out / report).read_text())["manifest"]

    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    try:
        piped = run(f"/dev/fd/{read}", "piped")
    finally:
        os.close(read)
    regular = run(str(path), "regular")
    assert piped["digests"] == regular["digests"]
    name = "config" if command == "generate" else "truth"
    assert piped["digests"][name] == hashlib.sha256(data).hexdigest()
    if command == "generate":
        for name in ("trace", "headers"):
            assert piped["digests"][name] == digest(tmp_path / "piped" / f"{name}.jsonl")


@pytest.mark.parametrize("command", ["generate", "score"])
def test_crlf_json_error_names_the_position_open_reads(command, report_dir, tmp_path):
    """A JSON error in a CRLF file names the position in the text that
    open(path, encoding="utf-8") reads, with each CRLF read as one newline."""
    path = tmp_path / "input.json"
    path.write_bytes(b'{\r\n  "seed": 1,\r\n  oops\r\n}\r\n')
    with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as error:
        json.load(fh)
    args = (["generate", "-c", str(path)] if command == "generate"
            else ["score", str(report_dir), str(path)])
    result = CliRunner().invoke(main, [*args, "-o", str(tmp_path / "out")])
    assert result.exit_code == (2 if command == "generate" else 3), result.output
    assert f"{error.value}\n" in result.output
    assert "(char 17)" in str(error.value)  # (char 19) counting the CRs


@pytest.mark.parametrize("command", ["cluster", "metrics", "all"])
def test_trace_in_december_9999_exits_cleanly(command, tmp_path):
    """The monthly cadence's last month ends at the last second a trace may
    carry; a trace stamped in December 9999 gives reports or exits 3."""
    stamp = 253_402_300_000  # 9999-12-31T22:13:20Z
    trace = tmp_path / "trace.jsonl"
    trace.write_text(_jsonl([{**r, "timestamp": stamp + i}
                             for i, r in enumerate(FUZZ_TRACE)]))
    headers = tmp_path / "headers.jsonl"
    headers.write_text(_jsonl([{**h, "timestamp": stamp + h["height"]}
                               for h in FUZZ_HEADERS]))
    args = [command, str(trace)]
    if command != "cluster":
        args.append(str(headers))
    result = CliRunner().invoke(main, [*args, "-o", str(tmp_path / "out")])
    assert result.exit_code in (0, 3), (result.exit_code, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lines=st.lists(st.tuples(st.sampled_from(["genesis", "alice", "bob"]),
                                st.sampled_from(["alice", "bob", "carol"])),
                      max_size=10))
def test_creators_are_those_of_the_last_newaccount_lines(lines):
    """The fold's creators equal a map over every newaccount line, rejected
    ones included, the last line for an account winning."""
    b = TraceBuilder()
    for creator, created in lines:
        b.newaccount(creator, created)
    trace = b.build()
    state, rejected = replay(trace)
    assert _creators(state, rejected) == {
        a.payload["created"]: a.payload["creator"] for a in trace
        if a.kind is ActionKind.NEW_ACCOUNT}


def _action_line(kind: str, actor: str, timestamp: str, payload: str,
                 block: int = 1) -> str:
    return (f'{{"kind": "{kind}", "actor": "{actor}", "timestamp": {timestamp}, '
            f'"block": {block}, "seq": 0, "payload": {payload}}}')


REGPRODUCER = _action_line("regproducer", "bpa", str(T0), "{}")


def _overflowing_trace(*votes: tuple[int, int]) -> str:
    """Voters for bpa, one per (stake, vote time), whose weights stake *
    2^index overflow the largest double, alone or summed."""
    lines = [_action_line("regproducer", "bpa", str(T0), "{}")]
    for voter, (stake, vote_time) in zip(("alice", "bob"), votes):
        lines += [_action_line("delegatebw", voter, str(T0), f'{{"amount": {stake}}}'),
                  _action_line("voteproducer", voter, str(vote_time),
                               '{"proxy": "", "producers": ["bpa"]}')]
    return "\n".join(lines)


BAD_INPUTS = {
    "trace_timestamp_nan": ("trace.jsonl",
                            _action_line("regproducer", "bpa", "NaN", "{}"), "line 1"),
    "trace_timestamp_range": ("trace.jsonl",
                              _action_line("regproducer", "bpa", "1e999", "{}"),
                              "line 1"),
    "trace_stake_overflow": ("trace.jsonl", _overflowing_trace((10**400, T0)),
                             "vote weight overflow"),
    # A stake a float holds, whose weight at an index of 21 does not.
    "trace_weight_overflow": ("trace.jsonl", _overflowing_trace((10**302, T0)),
                              "vote weight overflow"),
    # Two weights of about 1.1e308, in two vote weeks: their sum overflows.
    "trace_weight_sum_overflow": ("trace.jsonl",
                                  _overflowing_trace((5 * 10**301, T0),
                                                     (5 * 10**301, T0 + 7 * DAY)),
                                  "vote weight overflow for candidate 'bpa'"),
    # A vote in the year 3237: its index passes 1024, and 2^1024 overflows.
    "trace_index_overflow": ("trace.jsonl", _overflowing_trace((1, 40_000_000_000)),
                             "vote weight overflow"),
    "trace_timestamp_bool": ("trace.jsonl",
                             _action_line("regproducer", "bpa", "true", "{}"),
                             "line 1"),
    "trace_block_bool": ("trace.jsonl",
                         _action_line("regproducer", "bpa", str(T0), "{}").replace(
                             '"block": 1', '"block": true'), "line 1"),
    "trace_seq_bool": ("trace.jsonl",
                       _action_line("regproducer", "bpa", str(T0), "{}").replace(
                           '"seq": 0', '"seq": false'), "line 1"),
    "header_height": ("headers.jsonl",
                      '{"height": "x", "producer": "bpa", "timestamp": 1}', "line 1"),
    "header_height_bool": ("headers.jsonl",
                           '{"height": true, "producer": "bpa", "timestamp": 1}',
                           "line 1"),
    "header_timestamp_bool": ("headers.jsonl",
                              '{"height": 1, "producer": "bpa", "timestamp": true}',
                              "line 1"),
    "header_not_object": ("headers.jsonl", "5", "line 1"),
    "header_timestamp": ("headers.jsonl",
                         '{"height": 1, "producer": "bpa", "timestamp": "y"}', "line 1"),
    "header_timestamp_range": ("headers.jsonl",
                               '{"height": 1, "producer": "bpa", "timestamp": 1e999}',
                               "line 1"),
    "truth": ("truth.json", "not json", "truth.json"),
    "truth_plant_kind": ("truth.json", '{"plants": [{"members": []}]}', "truth.json"),
    "truth_plant_members": ("truth.json", '{"plants": [{"kind": "near_clique"}]}',
                            "truth.json"),
    "clusters": ("clusters.json", "{", "clusters.json"),
    "clusters_members": ("clusters.json", '{"clusters": [{"members": "bpa"}]}',
                         "clusters.json"),
    "gangs_communities": ("gangs.json", '{"communities": [1]}', "gangs.json"),
    "motifs_line": ("motifs.jsonl", '{"shape": "linear"}', "motifs.jsonl"),
    # Nesting past json's recursion limit: unclosed, which orjson refuses
    # too, or closed, which orjson reads and the checks then reject.
    "trace_deep": ("trace.jsonl", "[" * 100_000, "line 1"),
    "trace_deep_closed": ("trace.jsonl", "[" * 100_000 + "]" * 100_000, "line 1"),
    "header_deep": ("headers.jsonl", "[" * 100_000, "line 1"),
    "truth_deep": ("truth.json", "[" * 100_000, "truth.json"),
    "clusters_deep": ("clusters.json", "[" * 100_000, "clusters.json"),
    "motifs_line_deep": ("motifs.jsonl", "[" * 100_000, "motifs.jsonl"),
    # A byte that is not UTF-8 is found in its own line, which universal
    # newlines count as before.
    "trace_not_utf8": ("trace.jsonl", (REGPRODUCER + "\r\n" + REGPRODUCER
                                       + '\r{"kind": "\xff"}').encode("latin-1"),
                       "line 3: invalid UTF-8: byte 0xff"),
    "header_not_utf8": ("headers.jsonl",
                        b'{"height": 1, "producer": "bpa", "timestamp": 1}\r'
                        b'{"height": 2, "producer": "bp\xfe", "timestamp": 1}',
                        "line 2: invalid UTF-8: byte 0xfe"),
    "truth_not_utf8": ("truth.json", b'{"plants": "\xff"}', "truth.json"),
}


# Traces with two faults: (lines, what the message must name). A trace is
# read as it is folded, but its faults are reported in the order of a check
# of the whole trace first: a malformed line, then an unsorted pair, then a
# replay failure.
ORDERED_FAULTS = {
    "unsorted_then_bad_line": (
        [_action_line("regproducer", "bpa", str(T0), "{}", block=2), REGPRODUCER,
         "not json"], "line 3"),
    "early_vote_then_unsorted": (
        [REGPRODUCER, _action_line("delegatebw", "alice", str(T0), '{"amount": 5}'),
         _action_line("voteproducer", "alice", "900000000",
                      '{"proxy": "", "producers": ["bpa"]}'),
         _action_line("delegatebw", "alice", str(T0), '{"amount": 5}', block=3),
         _action_line("delegatebw", "alice", str(T0), '{"amount": 5}', block=2)],
        "not sorted"),
    "overflow_then_bad_line": (
        _overflowing_trace((10**400, T0)).split("\n") + ["not json"], "line 4"),
}


@pytest.mark.parametrize("command", ["replay", "cluster", "gangs", "all"])
@pytest.mark.parametrize("case", sorted(ORDERED_FAULTS))
def test_faults_are_reported_in_trace_check_order(case, command, ledger_dir,
                                                  tmp_path):
    lines, named = ORDERED_FAULTS[case]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(line + "\n" for line in lines))
    args = [command, str(trace)]
    if command == "all":
        args.append(str(ledger_dir / "headers.jsonl"))
    result = CliRunner().invoke(main, [*args, "-o", str(tmp_path / "out")])
    assert result.exit_code == 3, result.output
    assert "Traceback" not in result.output
    assert named in result.output


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_3_without_traceback(case, ledger_dir, report_dir,
                                             tmp_path):
    name, text, named = BAD_INPUTS[case]
    data = text if isinstance(text, bytes) else text.encode()
    if name == "trace.jsonl":
        (tmp_path / name).write_bytes(data + b"\n")
        args = ["replay", str(tmp_path / name), "-o", str(tmp_path / "out")]
    elif name == "headers.jsonl":
        (tmp_path / name).write_bytes(data + b"\n")
        args = ["metrics", str(ledger_dir / "trace.jsonl"), str(tmp_path / name),
                "-o", str(tmp_path / "out")]
    else:
        reports = tmp_path / "reports"
        shutil.copytree(report_dir, reports)
        truth = ledger_dir / "truth.json"
        if name == "truth.json":
            truth = tmp_path / name
            truth.write_bytes(data)
        else:
            (reports / name).write_bytes(data)
        args = ["score", str(reports), str(truth)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert named in result.output


# Numeric options that are out of range or not numbers: (arguments after
# the trace, the option the message names).
BAD_OPTIONS = {
    "metrics_entropy_n": (["metrics", "HEADERS", "--entropy-n", "10,foo"], "entropy-n"),
    "metrics_entropy_n_zero": (["metrics", "HEADERS", "--entropy-n", "10,0"], "entropy-n"),
    "metrics_top_stake_pct": (["metrics", "HEADERS", "--top-stake-pct", "5"],
                              "top-stake-pct"),
    "metrics_cadence_nan": (["metrics", "HEADERS", "--snapshot-cadence", "nan"],
                            "snapshot-cadence"),
    "motifs_window_nan": (["motifs", "--window-days", "nan"], "window-days"),
    "motifs_window_inf": (["motifs", "--window-days", "inf"], "window-days"),
    "motifs_window_overflow": (["motifs", "--window-days", "1e305"], "window-days"),
    "cluster_cadence_nan": (["cluster", "--snapshot-cadence", "nan"], "snapshot-cadence"),
    "cluster_cadence_inf": (["cluster", "--snapshot-cadence", "inf"], "snapshot-cadence"),
    "cluster_cadence_tiny": (["cluster", "--snapshot-cadence", "1e-9"],
                             "snapshot-cadence"),
    "cluster_cadence_word": (["cluster", "--snapshot-cadence", "weekly"],
                             "snapshot-cadence"),
    "cluster_top_stake_pct": (["cluster", "--top-stake-pct", "5"], "top-stake-pct"),
    "cluster_top_stake_pct_zero": (["cluster", "--top-stake-pct", "0"], "top-stake-pct"),
    "cluster_theta": (["cluster", "--theta", "nan"], "theta"),
    "gangs_outlier_pct": (["gangs", "--outlier-pct", "2"], "outlier-pct"),
    "all_window": (["all", "HEADERS", "--window-days", "inf"], "window-days"),
    "all_outlier_pct": (["all", "HEADERS", "--outlier-pct", "0"], "outlier-pct"),
    "all_entropy_n": (["all", "HEADERS", "--entropy-n", "x"], "entropy-n"),
    "all_entropy_n_negative": (["all", "HEADERS", "--entropy-n", "-3"], "entropy-n"),
    "all_cadence": (["all", "HEADERS", "--snapshot-cadence", "-1"], "snapshot-cadence"),
    # Two bad options, given in reverse declaration order: the first declared
    # is named, whatever order the command line gives them in.
    "metrics_declaration_order": (["metrics", "HEADERS", "--snapshot-cadence", "nan",
                                   "--entropy-n", "x"], "entropy-n"),
    "all_declaration_order": (["all", "HEADERS", "--entropy-n", "x", "--theta", "2"],
                              "theta"),
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
def test_bad_option_exits_2_before_the_trace_is_read(case, ledger_dir, tmp_path):
    """The trace is unreadable, so only an option checked before it is read
    gives exit 2."""
    args, option = BAD_OPTIONS[case]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("not json\n")
    command, *rest = args
    rest = [str(ledger_dir / "headers.jsonl") if a == "HEADERS" else a for a in rest]
    result = CliRunner().invoke(main, [command, str(trace), *rest,
                                       "-o", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert option in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("blocked", ["file", "under_file", "report_is_dir"])
@pytest.mark.parametrize("command", ["replay", "generate", "score", "all"])
def test_unusable_output_path_exits_2(command, blocked, ledger_dir, report_dir, tmp_path):
    """An output directory that is a file or lies under one, or a report
    path that is a directory, exits 2 naming the path."""
    trace, headers = str(ledger_dir / "trace.jsonl"), str(ledger_dir / "headers.jsonl")
    truth = str(ledger_dir / "truth.json")
    args, last_report = {
        "replay": (["replay", trace], "state.json"),
        "generate": (["generate", "-c", str(ledger_dir / "config.json")], "truth.json"),
        "score": (["score", str(report_dir), truth], "score.json"),
        "all": (["all", trace, headers, "--top-stake-pct", "0.5"], "summary.json"),
    }[command]
    out = tmp_path / "out"
    if blocked == "report_is_dir":
        unusable = out / last_report
        unusable.mkdir(parents=True)
    else:
        out.write_text("")
        out = unusable = out / "sub" if blocked == "under_file" else out
    result = CliRunner().invoke(main, [*args, "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert str(unusable) in result.output


@pytest.mark.parametrize("command", ["all", "cluster"])
def test_empty_trace_writes_no_reports(command, ledger_dir, tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    out = tmp_path / "out"
    args = [command, str(trace)]
    if command == "all":
        args.append(str(ledger_dir / "headers.jsonl"))
    result = CliRunner().invoke(main, [*args, "-o", str(out)])
    assert result.exit_code == 3, result.output
    assert "no snapshots" in result.output
    assert not out.exists()


def _report_under_hash_seeds(command: str, trace: Path, report: str,
                             tmp_path: Path) -> list[bytes]:
    """`dposf COMMAND TRACE` run in a subprocess under PYTHONHASHSEED 0 and 1;
    the bytes of REPORT from each run."""
    src = str(Path(dposforensics.__file__).parents[1])
    reports = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hash{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "dposforensics.cli", command,
                        str(trace), "-o", str(out)],
                       env=env, check=True, capture_output=True)
        reports.append((out / report).read_bytes())
    return reports


@pytest.mark.parametrize("command, report", [("gangs", "gangs.json"),
                                             ("motifs", "motifs.jsonl")])
def test_analysis_report_independent_of_hash_seed(ledger_dir, tmp_path, command, report):
    reports = _report_under_hash_seeds(command, ledger_dir / "trace.jsonl", report,
                                       tmp_path)
    assert reports[0] and reports[0] == reports[1]


def test_state_independent_of_hash_seed(tmp_path):
    """A proxy pools dozens of delegators of mixed stakes; the candidate
    weights in state.json must not depend on the order of any set."""
    b = TraceBuilder().regproducer("bpa").regproducer("bpb")
    b.newaccount("genesis", "pool").regproxy("pool")
    b.vote("pool", ["bpa", "bpb"], ts=T0 + 3 * DAY)
    for i in range(48):
        name = f"d{chr(97 + i // 26)}{chr(97 + i % 26)}"
        b.newaccount("genesis", name)
        b.delegate(name, (i * 7_919 % 1_009 + 1) * 10**9 + i * 37)
        b.vote_proxy(name, "pool")
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(serialize_action(a) + "\n" for a in b.build()))
    reports = _report_under_hash_seeds("replay", trace, "state.json", tmp_path)
    assert reports[0] == reports[1]


def test_all_leaves_no_reports_when_gang_detection_fails(ledger_dir, tmp_path):
    lines = (ledger_dir / "trace.jsonl").read_text().splitlines()[:200]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "all", str(trace), str(ledger_dir / "headers.jsonl"), "-o", str(out),
        "--snapshot-cadence", "1"])
    assert result.exit_code == 3, result.output
    assert "gang detection failed" in result.output
    assert not out.exists()


def _assert_clean_exit(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3), (result.exit_code, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def _jsonl(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "trace.jsonl").write_text(_jsonl(FUZZ_TRACE))
    (path / "headers.jsonl").write_text(_jsonl(FUZZ_HEADERS))
    return path


FUZZ = settings(max_examples=80, derandomize=True, deadline=None)


@FUZZ
@given(records=one_field_changed(FUZZ_TRACE))
def test_fuzzed_trace_line_replays_or_exits_cleanly(records, fuzz_dir):
    trace = fuzz_dir / "fuzzed_trace.jsonl"
    trace.write_text(_jsonl(records))
    _assert_clean_exit(["replay", str(trace), "-o", str(fuzz_dir / "out")])


@FUZZ
@given(records=one_field_changed(FUZZ_HEADERS))
def test_fuzzed_header_line_gives_metrics_or_exits_cleanly(records, fuzz_dir):
    headers = fuzz_dir / "fuzzed_headers.jsonl"
    headers.write_text(_jsonl(records))
    _assert_clean_exit(["metrics", str(fuzz_dir / "trace.jsonl"), str(headers),
                        "-o", str(fuzz_dir / "out")])


@FUZZ
@given(data=st.data())
def test_fuzzed_truth_scores_or_exits_cleanly(data, ledger_dir, report_dir,
                                              fuzz_dir):
    truth = json.loads((ledger_dir / "truth.json").read_text())
    path = fuzz_dir / "truth.json"
    path.write_text(json.dumps(data.draw(one_field_changed(truth))))
    _assert_clean_exit(["score", str(report_dir), str(path),
                        "-o", str(fuzz_dir / "out")])


@pytest.fixture(scope="module")
def fuzz_reports(report_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz_reports") / "reports"
    shutil.copytree(report_dir, path)
    return path


@FUZZ
@given(data=st.data())
def test_fuzzed_report_scores_or_exits_cleanly(data, ledger_dir, fuzz_reports,
                                               fuzz_dir):
    """One field of one report that `score` reads changed or deleted: the
    score runs, or exits 3, or exits 2 because a digest now names another
    trace; never a traceback."""
    name = data.draw(st.sampled_from(["clusters.json", "gangs.json", "motifs.json",
                                      "motifs.jsonl"]))
    path = fuzz_reports / name
    original = path.read_text()
    if name.endswith(".jsonl"):
        records = [json.loads(l) for l in original.splitlines()]
        assert records
        text = _jsonl(data.draw(one_field_changed(records)))
    else:
        text = json.dumps(data.draw(one_field_changed(json.loads(original))))
    path.write_text(text)
    try:
        result = CliRunner().invoke(main, [
            "score", str(fuzz_reports), str(ledger_dir / "truth.json"),
            "-o", str(fuzz_dir / "out")])
    finally:
        path.write_text(original)
    assert result.exit_code in (0, 3) or (
        result.exit_code == 2 and "different trace" in result.output), (
        result.exit_code, result.exception, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_cli_import_loads_every_module_but_networkx(ledger_dir, tmp_path):
    """Start-up loads every package module, which the benchmark's tracer
    wraps, and no run loads networkx: `dposf all` runs Louvain in the
    package."""
    src = str(Path(dposforensics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import dposforensics.cli, pkgutil, sys; "
             "names = [m.name for m in pkgutil.iter_modules(dposforensics.__path__)]; "
             "print(sorted(n for n in names if 'dposforensics.' + n not in sys.modules)); "
             "print('networkx' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert out[:2] == ["[]", "False"]

    run_all = ("import sys\n"
               "from dposforensics.cli import main\n"
               "try:\n"
               "    main(sys.argv[1:])\n"
               "except SystemExit as exc:\n"
               "    assert not exc.code, exc.code\n"
               "print('networkx' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", run_all, "all",
                          str(ledger_dir / "trace.jsonl"), str(ledger_dir / "headers.jsonl"),
                          "-o", str(tmp_path), "--top-stake-pct", "0.5"],
                         env=env, check=True, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "False"
    assert json.loads((tmp_path / "gangs.json").read_text())["communities"]


@pytest.mark.parametrize("command", [None, "replay", "motifs", "generate", "score", "all"])
def test_numpy_loads_only_for_a_command_that_calls_it(command, ledger_dir,
                                                      report_dir, tmp_path):
    """Importing the CLI, and running a command that makes no numpy call,
    leaves numpy unloaded; `all` loads it on its first call."""
    src = str(Path(dposforensics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    trace, headers = ledger_dir / "trace.jsonl", ledger_dir / "headers.jsonl"
    args = {None: [],
            "replay": ["replay", trace],
            "motifs": ["motifs", trace],
            "generate": ["generate", "-c", ledger_dir / "config.json"],
            "score": ["score", report_dir, ledger_dir / "truth.json"],
            "all": ["all", trace, headers, "--top-stake-pct", "0.5"]}[command]
    if command is not None:
        args += ["-o", tmp_path]
    probe = ("import sys\n"
             "from dposforensics.cli import main\n"
             "if sys.argv[1:]:\n"
             "    try:\n"
             "        main(sys.argv[1:])\n"
             "    except SystemExit as exc:\n"
             "        assert not exc.code, exc.code\n"
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, *map(str, args)], env=env,
                         check=True, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == str(command == "all")


def test_reports_keep_their_bytes_under_a_compensated_sum(tmp_path):
    """From Python 3.12 on, sum() compensates float rounding (Neumaier). Each
    float sum that reaches a report adds left to right, so every report byte
    of `all` is the same when builtins.sum is a Neumaier sum. On this ledger
    the Neumaier sum moves a cluster's mean similarity in its last bit, as the
    third run, which gives the CLI's sum the Neumaier one too, shows."""
    src = str(Path(dposforensics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))}
    result = CliRunner().invoke(main, ["generate", "-c", str(write_config(
        tmp_path / "config.json", seed=12)), "-o", str(tmp_path / "ledger")])
    assert result.exit_code == 0, result.output
    probe = ("import builtins, sys\n"
             "from sums import neumaier_sum\n"
             "if sys.argv[1] != 'plain':\n"
             "    builtins.sum = neumaier_sum\n"
             "import dposforensics.cli as cli\n"
             "if sys.argv[1] == 'cli':\n"
             "    cli.ordered_sum = neumaier_sum\n"
             "cli.main(sys.argv[2:])\n")
    reports = {}
    for run in ("plain", "builtin", "cli"):
        subprocess.run([sys.executable, "-c", probe, run, "all",
                        str(tmp_path / "ledger" / "trace.jsonl"),
                        str(tmp_path / "ledger" / "headers.jsonl"),
                        "--top-stake-pct", "0.5", "-o", str(tmp_path / run)],
                       env=env, check=True, capture_output=True)
        reports[run] = {path.name: path.read_bytes()
                        for path in (tmp_path / run).iterdir()}
    assert len(reports["plain"]) == 14
    assert reports["builtin"] == reports["plain"]
    assert [name for name in reports["plain"]
            if reports["cli"][name] != reports["plain"][name]] == ["clusters.json"]
