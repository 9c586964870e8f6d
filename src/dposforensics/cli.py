"""Command-line entry point: generate synthetic ledgers, replay traces, and
run every analysis with standard default parameters baked into the flags.

Exit codes: 0 success, 2 usage/config error, 3 data error. Every JSON report
embeds the manifest (command, input digests, parameters) that produced it.
"""
from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import math
import os
import pickle
import signal
import sys
from collections import Counter
from contextlib import nullcontext
from itertools import count, islice, takewhile
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NoReturn

import click

from . import __version__
from .clustering import (
    cluster_voters,
    creator_concordance,
    record_similarity,
    sample_voting_records,
    top_stakeholders,
)
from .gangs import GangError, run_pipeline, voting_network
from .metrics import (
    MetricsError,
    daily_production,
    month_ends,
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
    decode_text,
    encode_json,
    encode_json_both,
    load_headers,
    load_trace,
    ordered_sum,
)
from .motifs import (
    detect_eight,
    detect_linear,
    detect_triangular,
    motif_series,
    vote_events,
)
from .replay import SampleTimes, VoteLog, VotingState, replay, replay_with_snapshots
from .scoring import instance_score, pairwise_score
from .synth import (
    PLANT_GROUPS,
    ConfigError,
    GenConfig,
    generate_ledger,
)

EXIT_USAGE = 2
EXIT_DATA = 3


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest(command: str, inputs: dict[str, LineFile | tuple[str, str]],
              params: dict) -> dict:
    """An input is a LineFile the command has read to the end, or a (path,
    digest) pair. Either digest is that of the bytes the command read, so
    that a pipe, which reads only once, has the digest of what was used."""
    pairs = {k: (v.path, v.digest) if isinstance(v, LineFile) else v
             for k, v in inputs.items()}
    return {
        "command": command,
        "inputs": {k: path for k, (path, _) in pairs.items()},
        "digests": {k: digest for k, (_, digest) in pairs.items()},
        "params": params,
        "version": __version__,
    }


def _json_text(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) and a newline."""
    return encode_json(payload) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class _Staging:
    """A command's reports, each written to a temporary file in the output
    directory and renamed to its name by commit(), once all are written and
    none of the names is a directory, so that a run that fails leaves none of
    them. A fault exits 2 naming the report, or the output directory where it
    cannot be made, such as one that is a file or lies under one. On exit, no
    temporary file is left."""

    def __init__(self, out: str | None) -> None:
        self.dir = Path(out or os.environ.get("DPOSF_OUT", "."))
        self.staged: dict[Path, Path] = {}  # report -> its temporary file
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _fail(EXIT_USAGE, f"cannot write {self.dir}: {exc.strerror}")

    def __enter__(self) -> "_Staging":
        return self

    def write(self, name: str, pieces: Iterable[str | bytes]) -> None:
        """Stage report `name`, the concatenation of `pieces`; text is
        written as UTF-8."""
        path = self.dir / name
        try:
            with self._create(path) as fh:
                for piece in pieces:
                    fh.write(piece if isinstance(piece, bytes) else piece.encode())
        except OSError as exc:
            _fail(EXIT_USAGE, f"cannot write {path}: {exc.strerror}")

    def _create(self, path: Path) -> BinaryIO:
        """A new temporary file for `path`, opened with "xb" so that it
        respects the umask and follows no link. Its name has a random part,
        so that one left by a killed run blocks no later run."""
        while True:
            temp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
            try:
                fh = open(temp, "xb")
            except FileExistsError:
                continue
            self.staged[path] = temp
            return fh

    def commit(self) -> None:
        for path in self.staged:
            if path.is_dir():
                _fail(EXIT_USAGE, f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        for path, temp in list(self.staged.items()):
            try:
                os.replace(temp, path)
            except OSError as exc:
                _fail(EXIT_USAGE, f"cannot write {path}: {exc.strerror}")
            del self.staged[path]

    def __exit__(self, *exc) -> None:
        for temp in self.staged.values():
            temp.unlink(missing_ok=True)


def _write_reports(out: str | None, reports: dict[str, str | bytes]) -> Path:
    """Write a command's reports (file name -> text, or bytes written as they
    are) through a _Staging, and return the output directory."""
    with _Staging(out) as staging:
        for name, text in reports.items():
            staging.write(name, (text,))
        staging.commit()
    return staging.dir


_LINES_PER_CHUNK = 4096


def _digested_lines(lines: Iterator[str], sha) -> Iterator[bytes]:
    """The bytes of `lines`, each ended by a newline, a chunk of lines at a
    time, each chunk added to `sha` as it is yielded: so no whole text of a
    file, nor its bytes, is held."""
    while chunk := list(islice(lines, _LINES_PER_CHUNK)):
        chunk.append("")  # the last line's newline
        data = "\n".join(chunk).encode()
        sha.update(data)
        yield data


def _fold_or_die(trace: LineFile, observers=(), times: SampleTimes | None = None):
    """The command's one fold of the trace, a load_trace(path, lazy=True),
    read as it is folded: (state, rejected, snapshots), the snapshots at the
    sample times from _cadence_or_die, or None without them."""
    try:
        if times is None:
            return (*replay(trace, observers), None)
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


class _HeaderCount:
    """The daily_production of a header file, read beside the fold of the
    trace. Where both inputs are regular files, not one file given twice,
    and os.fork exists, a child forked on entry counts the headers while the
    parent folds; otherwise, or when the child ends without a result, the
    parent counts them in result(). On exit, a child whose result was not
    read is killed and reaped."""

    def __init__(self, headers_path: str, trace_path: str) -> None:
        self.headers = load_headers(headers_path, lazy=True)
        self.pid: int | None = None
        self.apart = (hasattr(os, "fork") and os.path.isfile(trace_path)
                      and os.path.isfile(headers_path)
                      and not os.path.samefile(trace_path, headers_path))

    def __enter__(self) -> "_HeaderCount":
        if self.apart:
            read, write = os.pipe()
            self.pid = os.fork()
            if self.pid == 0:
                os.close(read)
                self._count_and_exit(write)
            os.close(write)
            self.pipe = open(read, "rb")
        return self

    def _count(self) -> tuple[Counter, str] | str:
        """(The counter, the headers' digest), or the text of their
        ParseError."""
        try:
            return daily_production(self.headers), self.headers.digest
        except ParseError as exc:
            return str(exc)

    def _count_and_exit(self, write: int) -> NoReturn:
        """In the child: pickle _count() into the pipe, and exit 0 once it is
        written. The child never returns into the caller, so it flushes none
        of the parent's buffers; any other fault exits 1 without a word."""
        code = 1
        try:
            with open(write, "wb") as pipe:
                pickle.dump(self._count(), pipe)
            code = 0
        finally:
            os._exit(code)

    def _reap(self) -> int:
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return status

    def result(self) -> tuple[Counter, tuple[str, str]]:
        """The counter and the headers' (path, digest); exit 3 naming the
        line of a fault in the headers."""
        found = None
        if self.pid is not None:
            data = self.pipe.read()
            if self._reap() == 0:
                found = pickle.loads(data)
        if found is None:
            found = self._count()
        if isinstance(found, str):
            _fail(EXIT_DATA, f"unreadable headers: {found}")
        daily, digest = found
        return daily, (self.headers.path, digest)

    def __exit__(self, *exc) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()


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

def _cadence_or_die(cadence: str) -> SampleTimes:
    """The sample times of a cadence, 'monthly' or a number of days cut to
    whole seconds, for a trace from first to last: the end of each month from
    first's on, the one of last's month cut to last; or every step seconds
    from first + step - 1 up to last + step."""
    step = None
    if cadence != "monthly":
        try:
            step = float(cadence) * 86_400
        except ValueError:
            _fail(EXIT_USAGE, f"bad snapshot-cadence '{cadence}' (use 'monthly' or days)")
        if not 1 <= step < math.inf:
            _fail(EXIT_USAGE, f"snapshot-cadence must be a finite number of days, "
                              f"at least one second, got '{cadence}'")
        step = int(step)

    def times(first, last):
        if first is None:
            return ()
        if step is None:
            return month_ends(first, last + 1)
        return takewhile(lambda t: t < last + 1 + step, count(first + step - 1, step))
    return times


def _fraction_or_die(value: float, option: str) -> float:
    if not 0 < value <= 1:
        _fail(EXIT_USAGE, f"{option} out of range (0, 1]")
    return value


def _window_or_die(window_days: float) -> float:
    if not 0 < window_days * 86_400 < math.inf:
        _fail(EXIT_USAGE, f"window-days must be positive and finite, got {window_days}")
    return window_days


def _entropy_ns_or_die(entropy_n: str) -> list[int | None]:
    """The entropy top-n list: positive integers, with 'all' for every
    producer."""
    ns: list[int | None] = []
    for token in entropy_n.split(","):
        token = token.strip()
        try:
            n = None if token == "all" else int(token)
        except ValueError:
            n = 0
        if n is not None and n < 1:
            _fail(EXIT_USAGE, f"bad entropy-n '{entropy_n}' (use positive "
                              f"integers or 'all', comma-separated)")
        ns.append(n)
    return ns


# Each analysis option once: its default, and its check, which gives the
# value the analysis uses. Its flag is --name, with dashes for underscores.
_OPTIONS = {
    "theta": (0.9, lambda theta: _fraction_or_die(theta, "theta")),
    "window_days": (7.0, _window_or_die),
    "top_stake_pct": (0.05, lambda pct: _fraction_or_die(pct, "top-stake-pct")),
    "outlier_pct": (0.10, lambda pct: _fraction_or_die(pct, "outlier-pct")),
    "entropy_n": ("10,20,all", _entropy_ns_or_die),
    "seed": (0, lambda seed: seed),
    "snapshot_cadence": ("monthly", _cadence_or_die),
}


def _analysis_options(*names: str):
    """Declare -o and then the named analysis options, in that order."""
    def declare(command):
        for name in reversed(names):
            command = click.option(f"--{name.replace('_', '-')}", show_default=True,
                                   default=_OPTIONS[name][0])(command)
        return click.option("--out", "-o", default=None)(command)
    return declare


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
    data = Path(config_path).read_bytes()
    try:
        config = GenConfig.from_bytes(data)
        trace, headers, truth = generate_ledger(config)
    except ConfigError as exc:
        _fail(EXIT_USAGE, str(exc))
    except LedgerError as exc:  # the vote weights outgrow a float
        _fail(EXIT_USAGE, f"start_time {config.start_time!r} is too late: {exc}")
    from .model import serialize_action, serialize_header
    inputs = {"config": (config_path, _sha256(data))}
    del data
    with _Staging(out) as staging:
        for name, lines in (("trace", map(serialize_action, trace)),
                            ("headers", map(serialize_header, headers))):
            sha = hashlib.sha256()
            staging.write(f"{name}.jsonl", _digested_lines(lines, sha))
            inputs[name] = (str(staging.dir / f"{name}.jsonl"), sha.hexdigest())
        truth["manifest"] = _manifest("generate", inputs, {"seed": config.seed})
        staging.write("truth.json", (_json_text(truth),))
        staging.commit()
    click.echo(f"wrote {inputs['trace'][0]}, {inputs['headers'][0]}, "
               f"{staging.dir / 'truth.json'}")


@main.command("replay")
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", default=None)
def replay_cmd(trace_path: str, out: str | None) -> None:
    """Replay a trace and write the canonical final state."""
    trace = load_trace(trace_path, lazy=True)
    state, rejected, _ = _fold_or_die(trace)
    head = {
        "manifest": _manifest("replay", {"trace": trace}, {}),
        "rejected": [{"block": r.action.block, "seq": r.action.seq,
                      "reason": r.reason} for r in rejected],
        "events": state.log,
    }
    with _Staging(out) as staging:
        staging.write("state.json", _state_json(head, state))
        staging.commit()
    click.echo(f"replayed {state.actions_read} actions, {len(rejected)} rejected")


def _state_json(head: dict, state: VotingState) -> Iterator[str]:
    """The text of state.json, piece by piece: _json_text of head with
    "state", the state as JSON values (its accounts, as_of and candidates),
    and "state_digest", the sha256 of encode_json(state, indent=False).

    Each chunk of accounts is encoded both ways and dropped, so that neither
    text of the state, nor all of its values, is held at once. The keys of
    head sort before "state", and "state_digest" after it, so the digest is
    known when it is written."""
    yield "{"
    for key in sorted(head):
        yield f"\n  {encode_json(key)}: {encode_json(head[key], depth=1)},"
    yield '\n  "state": {\n    "accounts": {'
    digest = hashlib.sha256(b'{"accounts":{')
    close = "\n    }"  # of the accounts' dict, 2 levels deep
    comma = ""
    for chunk in state.account_chunks():
        # A chunk's text within its braces is its part of the accounts' text.
        compact, indented = encode_json_both(chunk, depth=2)
        digest.update(f"{comma}{compact[1:-1]}".encode())
        yield comma + indented[1:-len(close)]
        comma = ","
    yield close if comma else "}"
    rest = {"as_of": list(state.as_of), "candidates": state.candidates}
    for key, value in rest.items():
        yield f',\n    "{key}": {encode_json(value, depth=2)}'
    digest.update(f"}},{encode_json(rest, indent=False)[1:]}".encode())
    yield f'\n  }},\n  "state_digest": "{digest.hexdigest()}"\n}}\n'


_WRITTEN = {"metrics": "metrics", "cluster": "clusters", "motifs": "motifs",
            "gangs": "gang report", "all": "full report"}


def _analyze(command: str, analyses: set[str], options: dict, trace_path: str,
             headers_path: str | None = None) -> None:
    """Run the analyses (metrics, cluster, motifs, gangs) of a command with -o
    and analysis options `options` over one fold of the trace, and write their
    reports, with summary.json for all, once all are made."""
    out = options.pop("out")
    # Checked in declaration order: click's ctx.params follows the command line.
    checked = {p.name: _OPTIONS[p.name][1](options[p.name])
               for p in click.get_current_context().command.params if p.name in options}
    log = VoteLog() if analyses & {"motifs", "gangs"} else None
    inputs = {"trace": load_trace(trace_path, lazy=True)}
    with (_HeaderCount(headers_path, trace_path) if "metrics" in analyses
          else nullcontext()) as header_count:
        state, rejected, snapshots = _fold_or_die(
            inputs["trace"], [] if log is None else [log],
            checked.get("snapshot_cadence"))
        if "cluster" in analyses and not snapshots:
            _fail(EXIT_DATA, "no snapshots; trace too short for the cadence")
        # The fold's products are large: keep only what the analyses read of
        # the state, and free the snapshots before the network, the largest,
        # is built.
        creators = _creators(state, rejected) if "cluster" in analyses else None
        candidates, end_time = set(state.tallies), state.end_time
        del state, rejected
        # Only after a good fold, so that a trace fault wins over a header one.
        if header_count is not None:
            daily, inputs["headers"] = header_count.result()
    manifest = _manifest(command, inputs, options)
    reports: dict[str, str] = {}
    if "metrics" in analyses:
        _run_metrics(snapshots, daily, reports, manifest, checked["entropy_n"],
                     checked["top_stake_pct"])
    if "cluster" in analyses:
        clustered = _run_cluster(creators, snapshots, reports, manifest,
                                 checked["theta"], checked["top_stake_pct"])
    del snapshots, creators
    graph = voting_network(log, end_time) if "gangs" in analyses else None
    if "motifs" in analyses:
        instances = _run_motifs(vote_events(log, candidates), reports, manifest,
                                checked["window_days"])
    del log
    if graph is not None:
        gang_payload = _run_gangs(graph, reports, manifest, checked["outlier_pct"],
                                  checked["seed"])
    if command == "all":
        cluster_members = {m for c in clustered["clusters"] for m in c["members"]}
        motif_members = {p for inst in instances for p in inst.participants}
        gang_members = {m for c in gang_payload["communities"] for m in c}
        reports["summary.json"] = _json_text({
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
        })
    out_dir = _write_reports(out, reports)
    click.echo(f"{_WRITTEN[command]} written to {out_dir}")


def _run_metrics(snapshots, daily, reports: dict[str, str], manifest: dict,
                 ns: list[int | None], top_stake_pct: float) -> None:
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
        dist = stake_distribution(final)
        reports["stake_distribution.csv"] = _csv_text(
            ["rank", "account", "stake"],
            [[i + 1, name, stake] for i, (name, stake) in enumerate(dist)])
        stakes = [s for _, s in dist]
        if stakes:
            summary["top_share"] = top_share(stakes, top_stake_pct)
            summary["top_share_pct"] = top_stake_pct
        try:
            alpha, r2 = powerlaw_exponent([s for s in stakes if s > 0])
            summary["stake_powerlaw"] = {"alpha": alpha, "r_squared": r2}
        except MetricsError as exc:
            summary["stake_powerlaw"] = {"error": str(exc)}
    reports["metrics.json"] = _json_text(summary)


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("headers_path", type=click.Path(exists=True, dir_okay=False))
@_analysis_options("entropy_n", "top_stake_pct", "snapshot_cadence")
def metrics(trace_path, headers_path, **options) -> None:
    """Decentralization metrics: entropy, turnover, distributions, shares."""
    _analyze("metrics", {"metrics"}, options, trace_path, headers_path)


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
        mean_sim = ordered_sum(sims) / len(sims) if sims else 1.0
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
@_analysis_options("theta", "top_stake_pct", "snapshot_cadence")
def cluster(trace_path, **options) -> None:
    """Similar-voting clusters among the top stakeholders."""
    _analyze("cluster", {"cluster"}, options, trace_path)


def _run_motifs(events, reports: dict[str, str], manifest: dict,
                window_days: float) -> list:
    window = int(window_days * 86_400)
    instances = (detect_linear(events, window) + detect_triangular(events, window)
                 + detect_eight(events, window))
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
    return instances


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@_analysis_options("window_days")
def motifs(trace_path, **options) -> None:
    """Mutual-voting motifs (linear, triangular, eight-shaped)."""
    _analyze("motifs", {"motifs"}, options, trace_path)


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
@_analysis_options("outlier_pct", "seed")
def gangs(trace_path, **options) -> None:
    """Mutual-voting gang pipeline (egonet scoring, reconstruction, Louvain)."""
    _analyze("gangs", {"gangs"}, options, trace_path)


@main.command("all")
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("headers_path", type=click.Path(exists=True, dir_okay=False))
@_analysis_options("theta", "window_days", "top_stake_pct", "outlier_pct", "entropy_n",
                   "seed", "snapshot_cadence")
def all_cmd(trace_path, headers_path, **options) -> None:
    """Run every analysis and emit a cross-method overlap summary."""
    _analyze("all", {"metrics", "cluster", "motifs", "gangs"}, options, trace_path,
             headers_path)


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


def _read_json_or_die(path, shape) -> tuple[dict, str]:
    """The payload of a JSON file, checked against shape, and the digest of
    the bytes it was read from: the file is read once, as a pipe can be."""
    data = Path(path).read_bytes()
    try:
        payload = json.loads(decode_text(data))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        _fail(EXIT_DATA, f"unreadable {path}: {exc}")
    return _fit_or_die(payload, shape, path), _sha256(data)


def _trace_digest(payload: dict):
    return payload.get("manifest", {}).get("digests", {}).get("trace")


@main.command()
@click.argument("report_dir", type=click.Path(exists=True, file_okay=False))
@click.argument("truth_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", default=None)
def score(report_dir, truth_path, out) -> None:
    """Score detection reports in REPORT_DIR against a truth file."""
    report_dir = Path(report_dir)
    truth, truth_sha = _read_json_or_die(truth_path, TRUTH)
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
        payload, _ = _read_json_or_die(path, REPORTS[name])
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
        except (ValueError, RecursionError) as exc:
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

    payload = {"manifest": _manifest("score", {"truth": (truth_path, truth_sha)}, {}),
               "scores": results}
    _write_reports(out or str(report_dir), {"score.json": _json_text(payload)})
    for kind, s in sorted(results.items()):
        click.echo(f"{kind}: P={s['precision']:.3f} R={s['recall']:.3f} "
                   f"F1={s['f1']:.3f}")


if __name__ == "__main__":
    main()
