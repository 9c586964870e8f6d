"""Command-line entry point: generate synthetic ledgers, replay traces, and
run every analysis with standard default parameters baked into the flags.

Exit codes: 0 success, 2 usage/config error, 3 data error. Every JSON report
embeds the manifest (command, input digests, parameters) that produced it.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys
from itertools import count, takewhile
from pathlib import Path

import click

from . import __version__
from .clustering import (
    cluster_voters,
    creator_concordance,
    record_similarity,
    sample_voting_records,
    top_stakeholders,
)
from .gangs import GangError, NetworkBuilder, run_pipeline
from .metrics import (
    MetricsError,
    daily_production,
    powerlaw_exponent,
    production_by_month,
    production_entropy,
    proxy_share_series,
    stake_distribution,
    top_share,
    turnover_of,
)
from .model import (
    ActionKind,
    LedgerError,
    LineFile,
    ParseError,
    load_headers,
    load_trace,
)
from .motifs import (
    detect_eight,
    detect_linear,
    detect_triangular,
    motif_series,
    VoteRecorder,
)
from .replay import SampleTimes, replay, replay_with_snapshots
from .scoring import instance_score, pairwise_score
from .synth import (
    ConfigError,
    GenConfig,
    generate_ledger,
    month_ends,
)

EXIT_USAGE = 2
EXIT_DATA = 3


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command: str, inputs: dict[str, str | LineFile],
              params: dict) -> dict:
    """An input is a path, digested here, or a LineFile the command has read
    to the end, whose digest is that of the bytes it read."""
    files = {k: v for k, v in inputs.items() if isinstance(v, LineFile)}
    return {
        "command": command,
        "inputs": {k: files[k].path if k in files else str(v)
                   for k, v in inputs.items()},
        "digests": {k: files[k].digest if k in files else _digest_file(v)
                    for k, v in inputs.items()},
        "params": params,
        "version": __version__,
    }


def _out_dir(out: str | None) -> Path:
    path = Path(out or os.environ.get("DPOSF_OUT", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _json_text(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) and a newline, written
    chunk by chunk, so that no list of the chunks is held."""
    buf = io.StringIO()
    buf.writelines(json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload))
    buf.write("\n")
    return buf.getvalue()


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_reports(out: str | None, reports: dict[str, str]) -> Path:
    """Write a command's reports (file name -> text) once all are made, so a
    run that fails leaves none of them."""
    out_dir = _out_dir(out)
    for name, text in reports.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return out_dir


def _fold_or_die(trace: LineFile, observers=(), cadence=None):
    """The command's one fold of the trace, a load_trace(path, lazy=True),
    read as it is folded: (state, rejected), plus the snapshots at the
    sample times of a cadence from _cadence_or_die when one is given."""
    try:
        if cadence is None:
            return replay(trace, observers)
        times = _sample_times(cadence)
        state, rejected, snapshots = replay_with_snapshots(trace, times, observers)
        if snapshots is None:
            # The timestamps ran back: fold again for the samples, now that
            # the last time is known. Only a regular file reads the same twice.
            if not os.path.isfile(trace.path):
                _fail(EXIT_DATA, "timestamps run back in a trace that is not "
                                 "a regular file, which cannot be read twice")
            last, digest = state.end_time, trace.digest
            _, _, snapshots = replay_with_snapshots(
                trace, lambda first, _: times(first, last))
            if trace.digest != digest:
                _fail(EXIT_DATA, "the trace changed while it was read")
        return state, rejected, snapshots
    except ParseError as exc:
        _fail(EXIT_DATA, f"unreadable trace: {exc}")
    except LedgerError as exc:  # a ReplayError too
        _fail(EXIT_DATA, f"unreplayable trace: {exc}")


def _need_snapshots(snapshots) -> None:
    """Clustering needs a sample time; checked before any report is written."""
    if not snapshots:
        _fail(EXIT_DATA, "no snapshots; trace too short for the cadence")


def _sample_times(cadence: str | int) -> SampleTimes:
    """The sample times of a cadence from _cadence_or_die, for a trace from
    first to last: the end of each month from first's on, the one of last's
    month cut to last; or every step seconds from first + step - 1 up to
    last + step."""
    def times(first, last):
        if first is None:
            return ()
        if cadence == "monthly":
            return month_ends(first, last + 1)
        return takewhile(lambda t: t < last + 1 + cadence,
                         count(first + cadence - 1, cadence))
    return times


def _daily_production_or_die(headers: LineFile):
    """daily_production of a load_headers(path, lazy=True)."""
    try:
        return daily_production(headers)
    except ParseError as exc:
        _fail(EXIT_DATA, f"unreadable headers: {exc}")


def _creators(state, rejected) -> dict[str, str]:
    """Each created account's creator, from the last newaccount line that
    names it: the applied one, or a later rejected one (a newaccount is
    rejected only for an account that exists)."""
    creators = {name: acct.creator for name, acct in state.accounts.items()
                if acct.creator is not None}
    for r in rejected:
        if r.action.kind is ActionKind.NEW_ACCOUNT:
            creators[r.action.payload["created"]] = r.action.payload["creator"]
    return creators


# The numeric options are checked before the trace is read, each exiting 2
# with a message that names it.

def _cadence_or_die(cadence: str) -> str | int:
    """'monthly', or the step in whole seconds of a cadence given in days."""
    if cadence == "monthly":
        return cadence
    try:
        step = float(cadence) * 86_400
    except ValueError:
        _fail(EXIT_USAGE, f"bad snapshot-cadence '{cadence}' (use 'monthly' or days)")
    if not 1 <= step < math.inf:
        _fail(EXIT_USAGE, f"snapshot-cadence must be a finite number of days, "
                          f"at least one second, got '{cadence}'")
    return int(step)


def _fraction_or_die(value: float, option: str) -> None:
    if not 0 < value <= 1:
        _fail(EXIT_USAGE, f"{option} out of range (0, 1]")


def _window_or_die(window_days: float) -> None:
    if not 0 < window_days * 86_400 < math.inf:
        _fail(EXIT_USAGE, f"window-days must be positive and finite, got {window_days}")


def _entropy_ns_or_die(entropy_n: str) -> list[int | None]:
    """The entropy top-n list: integers, with 'all' for every producer."""
    ns: list[int | None] = []
    for token in entropy_n.split(","):
        token = token.strip()
        try:
            ns.append(None if token == "all" else int(token))
        except ValueError:
            _fail(EXIT_USAGE, f"bad entropy-n '{entropy_n}' (use integers or "
                              f"'all', comma-separated)")
    return ns


@click.group()
@click.version_option(__version__)
def main() -> None:
    """DPoS ledger forensics toolkit."""


@main.command()
@click.option("--config", "-c", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", "out", default=None, help="Output directory")
def generate(config_path: str, out: str | None) -> None:
    """Generate a synthetic ledger with planted anomalies."""
    try:
        config = GenConfig.from_file(config_path)
        trace, headers, truth = generate_ledger(config)
    except ConfigError as exc:
        _fail(EXIT_USAGE, str(exc))
    out_dir = _out_dir(out)
    from .model import serialize_action, serialize_header
    trace_path = out_dir / "trace.jsonl"
    headers_path = out_dir / "headers.jsonl"
    trace_path.write_text("".join(serialize_action(a) + "\n" for a in trace),
                          encoding="utf-8")
    headers_path.write_text("".join(serialize_header(h) + "\n" for h in headers),
                            encoding="utf-8")
    manifest = _manifest("generate", {"config": config_path,
                                      "trace": str(trace_path),
                                      "headers": str(headers_path)},
                         {"seed": config.seed})
    truth["manifest"] = manifest
    (out_dir / "truth.json").write_text(_json_text(truth), encoding="utf-8")
    click.echo(f"wrote {trace_path}, {headers_path}, {out_dir / 'truth.json'}")


@main.command("replay")
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", default=None)
def replay_cmd(trace_path: str, out: str | None) -> None:
    """Replay a trace and write the canonical final state."""
    trace = load_trace(trace_path, lazy=True)
    state, rejected = _fold_or_die(trace)
    canonical = state.canonical_json()
    payload = {
        "manifest": _manifest("replay", {"trace": trace}, {}),
        "state_digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "state": json.loads(canonical),
        "rejected": [{"block": r.action.block, "seq": r.action.seq,
                      "reason": r.reason} for r in rejected],
        "events": state.log,
    }
    _write_reports(out, {"state.json": _json_text(payload)})
    click.echo(f"replayed {state.actions_read} actions, {len(rejected)} rejected")


def _metric_params(entropy_n: str, top_stake_pct: float, cadence: str) -> dict:
    return {"entropy_n": entropy_n, "top_stake_pct": top_stake_pct,
            "snapshot_cadence": cadence}


def _run_metrics(snapshots, daily, reports: dict[str, str], manifest: dict,
                 ns: list[int | None], top_stake_pct: float) -> dict:
    """The metric reports; daily is the headers' daily_production."""
    production = production_by_month(daily)
    rows = []
    for month, counts in production.items():
        row: list = [f"{month[0]:04d}-{month[1]:02d}", sum(counts.values())]
        for n in ns:
            try:
                row.append(f"{production_entropy(counts, n):.9f}")
            except MetricsError:
                row.append("")
        rows.append(row)
    labels = ["all" if n is None else str(n) for n in ns]
    reports["entropy.csv"] = _csv_text(
        ["month", "blocks"] + [f"entropy_n_{l}" for l in labels], rows)

    turnover = turnover_of(daily)
    reports["turnover.csv"] = _csv_text(["month", "distinct", "cumulative"], [
        [f"{m[0]:04d}-{m[1]:02d}", turnover.monthly_counts[m], c]
        for m, c in turnover.cumulative_counts])
    reports["active_days.csv"] = _csv_text(
        ["producer", "days"], [[p, d] for p, d in turnover.active_days.items()])

    share = proxy_share_series(snapshots)
    reports["proxy_share.csv"] = _csv_text(
        ["timestamp", "count_share", "stake_share", "weight_share"],
        [[pt.timestamp, f"{pt.share:.9f}", f"{s.share:.9f}", f"{w.share:.9f}"]
         for pt, s, w in zip(share["count"], share["stake"], share["weight"])])

    summary: dict = {"manifest": manifest}
    if snapshots:
        final = snapshots[-1]
        dist = stake_distribution(final, accumulate_proxies=True)
        reports["stake_distribution.csv"] = _csv_text(
            ["rank", "account", "stake"],
            [[i + 1, name, stake] for i, (name, stake) in enumerate(dist)])
        if dist:
            summary["top_share"] = top_share(dist, top_stake_pct)
            summary["top_share_pct"] = top_stake_pct
        try:
            alpha, r2 = powerlaw_exponent([s for _, s in dist if s > 0])
            summary["stake_powerlaw"] = {"alpha": alpha, "r_squared": r2}
        except MetricsError as exc:
            summary["stake_powerlaw"] = {"error": str(exc)}
    reports["metrics.json"] = _json_text(summary)
    return summary


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("headers_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", default=None)
@click.option("--entropy-n", default="10,20,all", show_default=True)
@click.option("--top-stake-pct", default=0.05, show_default=True)
@click.option("--snapshot-cadence", default="monthly", show_default=True)
def metrics(trace_path, headers_path, out, entropy_n, top_stake_pct,
            snapshot_cadence) -> None:
    """Decentralization metrics: entropy, turnover, distributions, shares."""
    ns = _entropy_ns_or_die(entropy_n)
    _fraction_or_die(top_stake_pct, "top-stake-pct")
    cadence = _cadence_or_die(snapshot_cadence)
    trace = load_trace(trace_path, lazy=True)
    headers = load_headers(headers_path, lazy=True)
    _, _, snapshots = _fold_or_die(trace, cadence=cadence)
    daily = _daily_production_or_die(headers)
    manifest = _manifest("metrics", {"trace": trace, "headers": headers},
                         _metric_params(entropy_n, top_stake_pct, snapshot_cadence))
    reports: dict[str, str] = {}
    _run_metrics(snapshots, daily, reports, manifest, ns, top_stake_pct)
    out_dir = _write_reports(out, reports)
    click.echo(f"metrics written to {out_dir}")


def _run_cluster(creators, snapshots, reports: dict[str, str], manifest: dict,
                 theta: float, top_stake_pct: float) -> dict:
    voters = top_stakeholders(snapshots[-1], top_stake_pct)
    records = sample_voting_records(snapshots, voters)
    clusters = cluster_voters(voters, records, theta)
    concordance = creator_concordance(clusters, creators)
    payload = {"manifest": manifest, "n_voters": len(voters), "clusters": []}
    rows = []
    for i, (cluster, entry) in enumerate(zip(clusters, concordance)):
        members = sorted(cluster.members)
        sims = [record_similarity(records[a], records[b])
                for j, a in enumerate(members) for b in members[j + 1:]]
        mean_sim = sum(sims) / len(sims) if sims else 1.0
        payload["clusters"].append({
            "id": i,
            "seed": cluster.seed,
            "members": members,
            "mean_similarity": mean_sim,
            "creators": entry.creators,
            "single_creator": entry.single_creator,
        })
        rows.append([i, cluster.seed, len(members), f"{mean_sim:.6f}",
                     entry.single_creator, " ".join(members)])
    reports["clusters.json"] = _json_text(payload)
    reports["clusters.csv"] = _csv_text(
        ["id", "seed", "size", "mean_similarity", "single_creator", "members"], rows)
    return payload


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", default=None)
@click.option("--theta", default=0.9, show_default=True)
@click.option("--top-stake-pct", default=0.05, show_default=True)
@click.option("--snapshot-cadence", default="monthly", show_default=True)
def cluster(trace_path, out, theta, top_stake_pct, snapshot_cadence) -> None:
    """Similar-voting clusters among the top stakeholders."""
    _fraction_or_die(theta, "theta")
    _fraction_or_die(top_stake_pct, "top-stake-pct")
    cadence = _cadence_or_die(snapshot_cadence)
    trace = load_trace(trace_path, lazy=True)
    state, rejected, snapshots = _fold_or_die(trace, cadence=cadence)
    _need_snapshots(snapshots)
    manifest = _manifest("cluster", {"trace": trace},
                         {"theta": theta, "top_stake_pct": top_stake_pct,
                          "snapshot_cadence": snapshot_cadence})
    reports: dict[str, str] = {}
    _run_cluster(_creators(state, rejected), snapshots, reports, manifest, theta,
                 top_stake_pct)
    out_dir = _write_reports(out, reports)
    click.echo(f"clusters written to {out_dir}")


def _run_motifs(events, candidates, reports: dict[str, str], manifest: dict,
                window_days: float) -> dict:
    window = int(window_days * 86_400)
    instances = (detect_linear(events, window, candidates)
                 + detect_triangular(events, window, candidates)
                 + detect_eight(events, window, candidates))
    lines = []
    for inst in instances:
        lines.append(json.dumps({
            "shape": inst.shape,
            "participants": list(inst.participants),
            "window_start": inst.window_start,
            "witnesses": [{"src": e.src, "dst": e.dst, "via_proxy": e.via_proxy,
                           "timestamp": e.timestamp} for e in inst.witnesses],
        }, sort_keys=True))
    reports["motifs.jsonl"] = "".join(l + "\n" for l in lines)
    series = motif_series(instances)
    months = sorted({m for counts in series.values() for m in counts})
    reports["motif_series.csv"] = _csv_text(
        ["month", "linear", "triangular", "eight"],
        [[f"{m[0]:04d}-{m[1]:02d}",
          series["linear"].get(m, 0),
          series["triangular"].get(m, 0),
          series["eight"].get(m, 0)] for m in months])
    summary = {"manifest": manifest,
               "counts": {shape: sum(c.values()) for shape, c in series.items()}}
    reports["motifs.json"] = _json_text(summary)
    return {"instances": instances, "summary": summary}


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", default=None)
@click.option("--window-days", default=7.0, show_default=True)
def motifs(trace_path, out, window_days) -> None:
    """Mutual-voting motifs (linear, triangular, eight-shaped)."""
    _window_or_die(window_days)
    votes = VoteRecorder()
    trace = load_trace(trace_path, lazy=True)
    state, _ = _fold_or_die(trace, [votes])
    manifest = _manifest("motifs", {"trace": trace},
                         {"window_days": window_days})
    reports: dict[str, str] = {}
    candidates = set(state.tallies)
    _run_motifs(votes.events(candidates), candidates, reports, manifest,
                window_days)
    out_dir = _write_reports(out, reports)
    click.echo(f"motifs written to {out_dir}")


def _run_gangs(graph, reports: dict[str, str], manifest: dict, outlier_pct: float,
               seed: int) -> dict:
    try:
        report = run_pipeline(graph, outlier_pct=outlier_pct, seed=seed)
    except GangError as exc:
        _fail(EXIT_DATA, f"gang detection failed: {exc}")
    payload = {
        "manifest": manifest,
        "fit": {"coefficient": report.fit.coefficient, "alpha": report.fit.alpha},
        "scores": {k: report.scores[k] for k in sorted(report.scores)},
        "anomalies": report.anomalies,
        "modularity": report.modularity,
        "pruned": report.pruned,
        "communities": [sorted(c) for c in report.communities],
    }
    reports["gangs.json"] = _json_text(payload)
    reports["gang_scores.csv"] = _csv_text(
        ["account", "score"], [[k, f"{v:.9f}"] for k, v in sorted(report.scores.items())])
    return payload


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", default=None)
@click.option("--outlier-pct", default=0.10, show_default=True)
@click.option("--seed", default=0, show_default=True)
def gangs(trace_path, out, outlier_pct, seed) -> None:
    """Mutual-voting gang pipeline (egonet scoring, reconstruction, Louvain)."""
    _fraction_or_die(outlier_pct, "outlier-pct")
    network = NetworkBuilder()
    trace = load_trace(trace_path, lazy=True)
    state, _ = _fold_or_die(trace, [network])
    graph = network.finish(state.end_time)
    manifest = _manifest("gangs", {"trace": trace},
                         {"outlier_pct": outlier_pct, "seed": seed})
    reports: dict[str, str] = {}
    _run_gangs(graph, reports, manifest, outlier_pct, seed)
    out_dir = _write_reports(out, reports)
    click.echo(f"gang report written to {out_dir}")


@main.command("all")
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("headers_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", default=None)
@click.option("--theta", default=0.9, show_default=True)
@click.option("--window-days", default=7.0, show_default=True)
@click.option("--top-stake-pct", default=0.05, show_default=True)
@click.option("--outlier-pct", default=0.10, show_default=True)
@click.option("--entropy-n", default="10,20,all", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--snapshot-cadence", default="monthly", show_default=True)
def all_cmd(trace_path, headers_path, out, theta, window_days, top_stake_pct,
            outlier_pct, entropy_n, seed, snapshot_cadence) -> None:
    """Run every analysis and emit a cross-method overlap summary."""
    _fraction_or_die(theta, "theta")
    _window_or_die(window_days)
    _fraction_or_die(top_stake_pct, "top-stake-pct")
    _fraction_or_die(outlier_pct, "outlier-pct")
    ns = _entropy_ns_or_die(entropy_n)
    cadence = _cadence_or_die(snapshot_cadence)
    votes = VoteRecorder()
    network = NetworkBuilder()
    trace = load_trace(trace_path, lazy=True)
    headers = load_headers(headers_path, lazy=True)
    state, rejected, snapshots = _fold_or_die(trace, [votes, network], cadence)
    _need_snapshots(snapshots)
    daily = _daily_production_or_die(headers)
    params = {"theta": theta, "window_days": window_days,
              "top_stake_pct": top_stake_pct, "outlier_pct": outlier_pct,
              "entropy_n": entropy_n, "seed": seed,
              "snapshot_cadence": snapshot_cadence}
    manifest = _manifest("all", {"trace": trace, "headers": headers},
                         params)
    reports: dict[str, str] = {}  # written once gang detection has succeeded
    _run_metrics(snapshots, daily, reports, manifest, ns, top_stake_pct)
    cluster_payload = _run_cluster(_creators(state, rejected), snapshots, reports,
                                   manifest, theta, top_stake_pct)
    # The fold's products are large: free each once it is used, and build
    # the network, the largest, only after the snapshots are gone.
    del snapshots, rejected
    graph = network.finish(state.end_time)
    del network, state
    motif_result = _run_motifs(votes.events(graph.candidates), graph.candidates,
                               reports, manifest, window_days)
    del votes
    gang_payload = _run_gangs(graph, reports, manifest, outlier_pct, seed)

    cluster_members = {m for c in cluster_payload["clusters"] for m in c["members"]}
    motif_members = {p for inst in motif_result["instances"]
                     for p in inst.participants}
    gang_members = {m for c in gang_payload["communities"] for m in c}
    summary = {
        "manifest": manifest,
        "accounts": {
            "cluster": len(cluster_members),
            "motif": len(motif_members),
            "gang": len(gang_members),
        },
        "overlap": {
            "cluster_motif": len(cluster_members & motif_members),
            "cluster_gang": len(cluster_members & gang_members),
            "motif_gang": len(motif_members & gang_members),
            "all_three": len(cluster_members & motif_members & gang_members),
        },
    }
    reports["summary.json"] = _json_text(summary)
    out_dir = _write_reports(out, reports)
    click.echo(f"full report written to {out_dir}")


# Shapes of the files `score` reads. A dict is an object with those keys (a
# key ending in "?" may be absent), a one-item list is a list of items of
# that shape, and a type is an instance of it.
NAMES = [str]
MANIFEST = {"manifest?": {"digests?": {}}}
TRUTH = {**MANIFEST, "plants?": [{"kind": str}]}
REPORTS = {"clusters.json": {**MANIFEST, "clusters": [{"members": NAMES}]},
           "gangs.json": {**MANIFEST, "communities": [NAMES]},
           "motifs.json": MANIFEST}
MOTIF_LINE = {"shape": str, "participants": NAMES}
# The field of each scored plant kind that lists its planted accounts: one
# group of names, or one name tuple per planted motif instance.
PLANT_GROUPS = {"similar_cluster": "members", "near_clique": "members",
                "linear_gang": "pairs", "triangular_gang": "triples",
                "eight_gang": "quads"}


def _misfit(value, shape, where: str = "") -> str | None:
    """Where and how `value` first departs from `shape`; None if it fits."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return f"{where or 'the file'} is not an object"
        for key, inner in shape.items():
            name = key.rstrip("?")
            if name in value:
                problem = _misfit(value[name], inner,
                                  f"{where}.{name}" if where else name)
                if problem:
                    return problem
            elif name == key:
                return f"{where or 'the file'} has no '{name}'"
        return None
    if isinstance(shape, list):
        if not isinstance(value, list):
            return f"{where} is not a list"
        for i, item in enumerate(value):
            problem = _misfit(item, shape[0], f"{where}[{i}]")
            if problem:
                return problem
        return None
    return None if isinstance(value, shape) else f"{where} is not a {shape.__name__}"


def _fit_or_die(value, shape, path, where: str = ""):
    """`value`, once it fits `shape`; exit 3 naming the file otherwise."""
    problem = _misfit(value, shape, where)
    if problem:
        _fail(EXIT_DATA, f"malformed {path}: {problem}")
    return value


def _read_json_or_die(path, shape) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        _fail(EXIT_DATA, f"unreadable {path}: {exc}")
    return _fit_or_die(payload, shape, path)


def _trace_digest(payload: dict):
    return payload.get("manifest", {}).get("digests", {}).get("trace")


@main.command()
@click.argument("report_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("truth_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", default=None)
def score(report_dir, truth_path, out) -> None:
    """Score detection reports in REPORT_DIR against a truth file."""
    report_dir = Path(report_dir)
    truth = _read_json_or_die(truth_path, TRUTH)
    by_kind: dict[str, list[dict]] = {}
    for i, plant in enumerate(truth.get("plants", [])):
        field = PLANT_GROUPS.get(plant["kind"])
        if field is not None:  # a scored kind
            _fit_or_die(plant, {field: NAMES if field == "members" else [NAMES]},
                        truth_path, f"plants[{i}]")
            by_kind.setdefault(plant["kind"], []).append(plant)
    truth_digest = _trace_digest(truth)

    def load_report(name: str) -> dict | None:
        path = report_dir / name
        if not path.exists():
            return None
        payload = _read_json_or_die(path, REPORTS[name])
        digest = _trace_digest(payload)
        if truth_digest and digest and digest != truth_digest:
            _fail(EXIT_USAGE,
                  f"{name} was produced from a different trace than the truth file")
        return payload

    clusters = load_report("clusters.json")
    gangs_report = load_report("gangs.json")
    motif_lines = []
    motif_path = report_dir / "motifs.jsonl"
    if motif_path.exists():
        load_report("motifs.json")
        try:
            lines = [(n, json.loads(l)) for n, l in enumerate(
                motif_path.read_text(encoding="utf-8").splitlines(), 1) if l]
        except ValueError as exc:
            _fail(EXIT_DATA, f"unreadable {motif_path}: {exc}")
        motif_lines = [_fit_or_die(line, MOTIF_LINE, motif_path, f"line {n}")
                       for n, line in lines]

    results: dict[str, dict] = {}
    if "similar_cluster" in by_kind and clusters is not None:
        truth_groups = [p["members"] for p in by_kind["similar_cluster"]]
        detected = [c["members"] for c in clusters["clusters"]]
        s = pairwise_score(truth_groups, detected)
        results["similar_cluster"] = {"precision": s.precision, "recall": s.recall,
                                      "f1": s.f1}
    if "near_clique" in by_kind and gangs_report is not None:
        truth_groups = [p["members"] for p in by_kind["near_clique"]]
        s = pairwise_score(truth_groups, gangs_report["communities"])
        results["near_clique"] = {"precision": s.precision, "recall": s.recall,
                                  "f1": s.f1}
    motif_shapes = {"linear_gang": "linear", "triangular_gang": "triangular",
                    "eight_gang": "eight"}
    for kind, shape in motif_shapes.items():
        if kind not in by_kind or not motif_lines:
            continue
        truth_instances = [inst for p in by_kind[kind]
                           for inst in p[PLANT_GROUPS[kind]]]
        detected = [m["participants"] for m in motif_lines if m["shape"] == shape]
        s = instance_score(truth_instances, detected)
        results[kind] = {"precision": s.precision, "recall": s.recall, "f1": s.f1}

    payload = {"manifest": _manifest("score", {"truth": truth_path}, {}),
               "scores": results}
    _write_reports(out or str(report_dir), {"score.json": _json_text(payload)})
    for kind, s in sorted(results.items()):
        click.echo(f"{kind}: P={s['precision']:.3f} R={s['recall']:.3f} "
                   f"F1={s['f1']:.3f}")


if __name__ == "__main__":
    main()
