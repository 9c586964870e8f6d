"""Benchmark of the dposf CLI over generated ledgers.

    python3 perfbench/run.py --workload ledger-m --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository: the benchmark runs the
package from the checkout's `src` directory and fails (exit 2, no result) when
there is none.

Each run builds the workload's ledger with `dposf generate` from its config in
perfbench/workloads, with `--seed` added to the config's seed, so seed 0
reproduces the documented ledgers. Then one client runs the workload's dposf
commands as subprocesses, one at a time (a closed loop with one client), and
repeats the whole sequence until `--seconds` have passed and at least twice.
Repeat i runs under PYTHONHASHSEED=HASH_SEEDS[i]: report files whose bytes
differ between repeats are counted as drift.

The host's speed moves by up to 2x over seconds to minutes, so a fixed probe
workload (perfbench/probe.py) runs before and after every timed process.
Each repeat, and the set-up, is scaled by the probe's reference time over
the mean of the probes taken around its processes. The unscaled times are
saved and printed too.

With `--trace 0` the last line of stdout is the end-to-end result. With
`--trace 1` the sequence additionally runs once with every layer wrapped
(perfbench/tracer.py), the reports are cross-checked against tests/oracles.py,
and the last line holds the per-layer metrics. Details, provenance and spans
go to perfbench/results/.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

# Fixed, so the drift count repeats exactly; not constant, so a report that
# depends on string-hash order shows up as drift instead of being pinned away.
HASH_SEEDS = (0, 1, 2, 3, 4, 5)
MIN_REPEATS = 2
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
RUN_BUDGET_S = 170.0
# Median wall time of perfbench/probe.py on the reference host (a 2-core VM,
# Python 3.11); reported times are scaled to it.
PROBE_REF_S = 0.45

TRACE, HEADERS, OUT = "trace.jsonl", "headers.jsonl", "{out}"


@dataclass(frozen=True)
class Workload:
    config: str                              # GenConfig file in perfbench/workloads
    commands: tuple[tuple[str, ...], ...]    # dposf arguments, run in order

    def option(self, name: str, default: float) -> float:
        """The value a command passes for a dposf option, else its default."""
        for command in self.commands:
            if name in command:
                return float(command[command.index(name) + 1])
        return default


# Each workload is dominated by different layers; BENCHMARK.json and
# perfbench/BASELINE.md give the reasons and the measured split.
WORKLOADS = {
    # The full analyst run on the ROADMAP's ledger M: gangs, then the motif
    # vote-event fold, clustering and parsing.
    "ledger-m": Workload("ledger-m.json", (("all", TRACE, HEADERS, "-o", OUT),)),
    # cluster_voters over ~900 voters; gangs and motifs never run, so this is
    # the no-change case for them. Run by hand: BENCHMARK.json leaves it out to
    # keep the full set of benchmark runs inside its time budget.
    "cluster-wide": Workload(
        "cluster-wide.json",
        (("cluster", TRACE, "--top-stake-pct", "0.15", "-o", OUT),)),
    # ~1,000 delegators per proxy and 135k headers: replay refreshes, three
    # trace parses and CLI start-up; no clustering or gangs.
    "proxy-heavy": Workload(
        "proxy-heavy.json",
        (("replay", TRACE, "-o", OUT),
         ("metrics", TRACE, HEADERS, "-o", OUT),
         ("motifs", TRACE, "-o", OUT))),
}

METRICS_REPORTS = ("entropy.csv", "turnover.csv", "active_days.csv",
                   "proxy_share.csv", "stake_distribution.csv", "metrics.json")
CLUSTER_REPORTS = ("clusters.json", "clusters.csv")
MOTIF_REPORTS = ("motifs.jsonl", "motif_series.csv", "motifs.json")
GANG_REPORTS = ("gangs.json", "gang_scores.csv")
REPORTS = {
    "replay": ("state.json",),
    "metrics": METRICS_REPORTS,
    "cluster": CLUSTER_REPORTS,
    "motifs": MOTIF_REPORTS,
    "gangs": GANG_REPORTS,
    "all": METRICS_REPORTS + CLUSTER_REPORTS + MOTIF_REPORTS + GANG_REPORTS
    + ("summary.json",),
}
# Plant kinds `dposf score` can judge from each report.
SCORED_BY = {"clusters.json": ("similar_cluster",),
             "gangs.json": ("near_clique",),
             "motifs.jsonl": ("linear_gang", "triangular_gang", "eight_gang")}

# Per-layer time metric -> traced span names whose self times it sums.
LAYER_TIMES = {
    "model.load_trace_s": ("model.load_trace",),
    "model.load_headers_s": ("model.load_headers",),
    "replay.replay_s": ("replay.replay",),
    "replay.replay_with_snapshots_s": ("replay.replay_with_snapshots",),
    "replay.snapshot_s": ("replay.snapshot",),
    "metrics.monthly_production_s": ("metrics.monthly_production",),
    "metrics.producer_turnover_s": ("metrics.producer_turnover",),
    "metrics.proxy_share_series_s": ("metrics.proxy_share_series",),
    "metrics.stake_distribution_s": ("metrics.stake_distribution",),
    "metrics.powerlaw_exponent_s": ("metrics.powerlaw_exponent",),
    "clustering.top_stakeholders_s": ("clustering.top_stakeholders",),
    "clustering.sample_voting_records_s": ("clustering.sample_voting_records",),
    "clustering.cluster_voters_s": ("clustering.cluster_voters",),
    "motifs.build_vote_events_s": ("motifs.build_vote_events",),
    "motifs.detect_s": ("motifs.detect_linear", "motifs.detect_triangular",
                        "motifs.detect_eight"),
    "gangs.build_voting_network_s": ("gangs.build_voting_network",),
    "gangs.egonet_features_s": ("gangs.egonet_features",),
    "gangs.fit_score_s": ("gangs.fit_edpl", "gangs.outlierness",
                          "gangs.select_anomalies"),
    "gangs.reconstruct_s": ("gangs.reconstruct_weighted_network",),
    "gangs.detect_gangs_s": ("gangs.detect_gangs",),
}
SETUP_LAYER_TIMES = {
    "synth.generate_ledger_s": ("synth.generate_ledger",),
    "synth.generate_block_schedule_s": ("synth.generate_block_schedule",),
}
LAYER_COUNTS = ("model.actions", "model.headers", "replay.apply_calls",
                "replay.rejected", "replay.snapshots", "clustering.similarity_calls",
                "clustering.voters", "clustering.clusters", "motifs.events",
                "motifs.instances", "gangs.edges", "gangs.egonets",
                "gangs.anomalies", "gangs.communities")


class HostProbe:
    """Times perfbench/probe.py, a fixed workload that imports nothing from
    `src`. A change to the package cannot move the probe; a change in the
    host's speed moves it together with the measured commands."""

    def __init__(self, deadline: Deadline) -> None:
        self.deadline = deadline
        self.samples: list[float] = []

    def __call__(self) -> float:
        child = run_child([sys.executable, str(BENCH_DIR / "probe.py")], BENCH_DIR,
                          HASH_SEEDS[0], self.deadline)
        if child.code != 0:
            raise SystemExit(f"host probe failed: {child.stderr.strip()}")
        self.samples.append(child.wall)
        return child.wall


def host_scale(probes: list[float]) -> float:
    """Factor that turns times measured between these probes into times at
    the reference host speed. One probe is noisy, so this takes their mean."""
    return PROBE_REF_S / statistics.mean(probes)


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


@dataclass
class SequenceRun:
    hash_seed: int
    out: Path
    children: list[Child] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.children)

    @property
    def cpu(self) -> float:
        return sum(c.cpu for c in self.children)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_tree(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): sha256(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


def child_env(hash_seed: int) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))


def run_child(argv: list[str], cwd: Path, hash_seed: int,
              deadline: Deadline) -> Child:
    """Run one process to completion; wall time, rusage and exit code."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(hash_seed),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline.left(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")[-2000:]
    return Child(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                 stderr=stderr)


def dposf_argv(args: list[str]) -> list[str]:
    # The same call the installed `dposf` console script makes.
    return [sys.executable, "-c",
            "from dposforensics.cli import main; main(prog_name='dposf')", *args]


def traced_argv(args: list[str], spans_path: Path, run_id: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path),
            run_id, *args]


def check_report(path: Path, trace_digest: str) -> str | None:
    """None when the report exists, parses, and names the generated trace."""
    if not path.is_file():
        return f"{path.name} missing"
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            payload = json.loads(text)
            digest = payload["manifest"]["digests"]["trace"]
            if digest != trace_digest:
                return f"{path.name} manifest names another trace"
        elif path.suffix == ".jsonl":
            for line in text.splitlines():
                json.loads(line)
        elif not next(csv.reader(text.splitlines()), None):
            return f"{path.name} has no header row"
    except (ValueError, KeyError, TypeError, csv.Error) as exc:
        return f"{path.name} unparseable: {exc!r}"
    return None


def run_sequence(workload: Workload, ledger: Path, out: Path, hash_seed: int,
                 trace_digest: str, deadline: Deadline, traced: bool = False,
                 probe: HostProbe | None = None) -> SequenceRun:
    """The workload's commands, one at a time, writing reports to `out`,
    with the probe, if any, run before the first command and after each."""
    seq = SequenceRun(hash_seed=hash_seed, out=out)
    out.mkdir(parents=True)
    rel_out = os.path.relpath(out, ledger)
    if probe:
        seq.probes.append(probe())
    for i, command in enumerate(workload.commands):
        args = [rel_out if a == OUT else a for a in command]
        if traced:
            spans_path = out.parent / f"{out.name}-spans-{i}.json"
            child = run_child(traced_argv(args, spans_path, f"{command[0]}-{i}"),
                              ledger, hash_seed, deadline)
            if spans_path.is_file():
                seq.spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
        else:
            child = run_child(dposf_argv(args), ledger, hash_seed, deadline)
        if probe:
            seq.probes.append(probe())
        seq.children.append(child)
        if child.code != 0:
            seq.problems.append(f"dposf {command[0]} exited {child.code}: "
                                f"{child.stderr.strip()}")
            break
        for name in REPORTS[command[0]]:
            problem = check_report(out / name, trace_digest)
            if problem:
                seq.problems.append(f"dposf {command[0]}: {problem}")
    return seq


def setup(config: dict, work: Path, deadline: Deadline, outcomes: list,
          probe: HostProbe | None = None) -> tuple[Path, list[Child]]:
    """Generate the ledger SETUP_REPEATS times, under different hash seeds,
    and check that every generation writes the same bytes."""
    (work / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    generations, digests = [], []
    if probe:
        probe()
    for i in range(SETUP_REPEATS):
        gen = work / f"gen{i}"
        gen.mkdir()
        child = run_child(dposf_argv(["generate", "-c", "../config.json", "-o", "."]),
                          gen, HASH_SEEDS[i], deadline)
        if probe:
            probe()
        outcomes.append(("dposf generate", child.code == 0, child.stderr.strip()))
        if child.code != 0:
            raise SystemExit(f"dposf generate failed: {child.stderr.strip()}")
        generations.append(child)
        digests.append(digest_tree(gen))
    same = all(d == digests[0] for d in digests)
    outcomes.append(("generate is deterministic", same,
                     f"{SETUP_REPEATS} generations, hash seeds {HASH_SEEDS[:SETUP_REPEATS]}"))
    for i in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"gen{i}")
    return work / "gen0", generations


def score(ledger: Path, reports: Path, work: Path, deadline: Deadline,
          outcomes: list) -> dict[str, float]:
    """F1 per planted kind from `dposf score`, written outside the reports."""
    truth = json.loads((ledger / "truth.json").read_text(encoding="utf-8"))
    planted = {p["kind"] for p in truth["plants"]}
    judged = {kind for report, kinds in SCORED_BY.items()
              if (reports / report).is_file() for kind in kinds}
    expected = planted & judged
    score_dir = work / "score"
    child = run_child(dposf_argv(["score", os.path.relpath(reports, ledger),
                                  "truth.json", "-o",
                                  os.path.relpath(score_dir, ledger)]),
                      ledger, HASH_SEEDS[0], deadline)
    f1: dict[str, float] = {}
    problem = child.stderr.strip() if child.code else ""
    if not problem:
        try:
            scores = json.loads((score_dir / "score.json").read_text())["scores"]
            f1 = {kind: float(scores[kind]["f1"]) for kind in sorted(expected)}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"score.json unreadable: {exc!r}"
    if not problem and not all(0.0 <= v <= 1.0 for v in f1.values()):
        problem = f"f1 out of [0, 1]: {f1}"
    outcomes.append(("dposf score", not problem,
                     problem or f"kinds {sorted(expected)}"))
    return f1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def provenance(ledger: Path) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    versions = {}
    for package in ("numpy", "networkx", "click"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "inputs": {name: sha256(ledger / name)
                   for name in ("trace.jsonl", "headers.jsonl", "truth.json")},
    }


def span_totals(traced: SequenceRun) -> tuple[dict[str, float], dict[str, int]]:
    """Self time per span name and every count, summed over the commands."""
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for run in traced.spans:
        for name, value in tracer.self_times(run["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in run["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return self_s, counts


def layer_metrics(traced: SequenceRun, setup_spans: dict, actions: int,
                  untraced_wall: float, startup: list[float]) -> dict:
    self_s, counts = span_totals(traced)
    setup_self = tracer.self_times(setup_spans["spans"])
    m: dict[str, tuple[float, str]] = {
        "cli.startup_s": (statistics.median(startup), "s"),
        "cli.self_s": (sum(v for k, v in self_s.items() if k.startswith("cli.")), "s"),
    }
    for metric, names in LAYER_TIMES.items():
        m[metric] = (sum(self_s.get(n, 0.0) for n in names), "s")
    for metric, names in SETUP_LAYER_TIMES.items():
        m[metric] = (sum(setup_self.get(n, 0.0) for n in names), "s")
    for name in LAYER_COUNTS:
        m[name] = (counts.get(name, 0), "count")
    calls = counts.get("clustering.similarity_calls", 0)
    m["replay.folds"] = (counts.get("replay.apply_calls", 0) / actions, "ratio")
    m["clustering.similar_pair_ratio"] = (
        counts.get("clustering.similar_pairs", 0) / calls if calls else 0.0, "ratio")
    m["trace.overhead_s"] = (traced.wall - untraced_wall, "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dposforensics" / "cli.py").is_file():
        print(f"error: no dposforensics sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config = json.loads((BENCH_DIR / "workloads" / workload.config).read_text())
    config["seed"] += args.seed
    deadline = Deadline(RUN_BUDGET_S)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        return measure(args, workload, config, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload: Workload, config: dict, work: Path,
            deadline: Deadline) -> int:
    outcomes: list[tuple[str, bool, str]] = []
    probe = HostProbe(deadline)
    ledger, generations = setup(config, work, deadline, outcomes, probe)
    setup_probes = list(probe.samples)
    trace_digest = sha256(ledger / "trace.jsonl")
    with open(ledger / "trace.jsonl", "rb") as fh:
        actions = sum(1 for _ in fh)

    repeats: list[SequenceRun] = []
    started = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - started < args.seconds:
        if repeats and deadline.left() < 2 * max(r.wall for r in repeats) + 30:
            break
        i = len(repeats)
        seq = run_sequence(workload, ledger, work / "reports" / str(i),
                           HASH_SEEDS[i % len(HASH_SEEDS)], trace_digest, deadline,
                           probe=probe)
        repeats.append(seq)
        outcomes.append((f"repeat {i} (PYTHONHASHSEED={seq.hash_seed})",
                         not seq.problems, "; ".join(seq.problems)))
        if seq.problems:
            break
    first = repeats[0].out
    digests = [digest_tree(r.out) for r in repeats]
    names = sorted(set().union(*digests))
    drift = [n for n in names if len({d.get(n) for d in digests}) > 1]
    f1 = score(ledger, first, work, deadline, outcomes)

    setup_scale = host_scale(setup_probes)
    scales = [host_scale(r.probes) for r in repeats]
    walls = [r.wall * s for r, s in zip(repeats, scales)]
    q1, wall, q3 = quartiles(walls)
    raw_wall = statistics.median(r.wall for r in repeats)
    raw_setup = statistics.median(c.wall for c in generations)
    result: dict = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "config": config, "provenance": provenance(ledger),
        "wall_s": {"median": wall, "q1": q1, "q3": q3, "n": len(walls)},
        "probe_reference_s": PROBE_REF_S,
        "repeats": [{"hash_seed": r.hash_seed, "raw_wall_s": r.wall, "raw_cpu_s": r.cpu,
                     "probes_s": r.probes, "scale": s,
                     "commands": [vars(c) for c in r.children], "reports": d}
                    for r, s, d in zip(repeats, scales, digests)],
        "setup": {"generations": [vars(c) for c in generations],
                  "probes_s": setup_probes, "scale": setup_scale},
        "report_drift_files": drift,
        "f1": f1,
    }
    metrics = {
        "wall_s": (wall, "s"),
        "actions_per_s": (actions / wall, "actions/s"),
        "cpu_s": (statistics.median(r.cpu * s for r, s in zip(repeats, scales)), "s"),
        "peak_rss_mb": (max(c.rss_mb for r in repeats for c in r.children), "MB"),
        "setup_s": (raw_setup * setup_scale, "s"),
    }

    result["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if args.trace:
        metrics = trace_layers(workload, ledger, work, trace_digest, actions,
                               raw_wall, first, deadline, outcomes, result)

    failed = sum(1 for _, ok, _ in outcomes if not ok)
    result["outcomes"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in outcomes]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS_DIR.mkdir(exist_ok=True)
    result_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {actions} actions, "
          f"{len(repeats)} repeats (PYTHONHASHSEED {[r.hash_seed for r in repeats]}), "
          f"details in {result_path.relative_to(ROOT)}")
    for name, ok, detail in outcomes:
        if not ok:
            print(f"FAILED {name}: {detail}")
    print(f"wall_s = {wall:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)})")
    print(f"host scale: repeats {[round(s, 4) for s in scales]}, set-up "
          f"{setup_scale:.4f} (probe reference {PROBE_REF_S} s); unscaled "
          f"wall_s = {raw_wall:.4f} s, setup_s = {raw_setup:.4f} s")
    for name, (value, unit) in metrics.items():
        if name != "wall_s":
            print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / len(outcomes):.6g} ratio "
          f"({failed} of {len(outcomes)} operations failed)")
    print(f"report_drift_files = {len(drift)} count {drift}")
    for kind, value in f1.items():
        print(f"f1.{kind} = {value:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def trace_layers(workload: Workload, ledger: Path, work: Path, trace_digest: str,
                 actions: int, untraced_wall: float, untraced_reports: Path,
                 deadline: Deadline, outcomes: list, result: dict) -> dict:
    """One traced pass of setup and sequence, the oracle cross-checks, and
    the per-layer metrics."""
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import crosscheck

    gen = work / "gen-traced"
    gen.mkdir()
    setup_spans_path = work / "setup-spans.json"
    child = run_child(traced_argv(["generate", "-c", "../config.json", "-o", "."],
                                  setup_spans_path, "generate"),
                      gen, HASH_SEEDS[0], deadline)
    same = child.code == 0 and digest_tree(gen) == digest_tree(ledger)
    outcomes.append(("traced generate writes the same ledger", same,
                     child.stderr.strip()))
    setup_spans = {"spans": []}
    if child.code == 0:
        setup_spans = json.loads(setup_spans_path.read_text(encoding="utf-8"))

    startup = [run_child(dposf_argv(["--version"]), work, HASH_SEEDS[i], deadline).wall
               for i in range(STARTUP_REPEATS)]
    traced = run_sequence(workload, ledger, work / "reports" / "traced",
                          HASH_SEEDS[0], trace_digest, deadline, traced=True)
    outcomes.append(("traced sequence", not traced.problems,
                     "; ".join(traced.problems)))
    identical = digest_tree(traced.out) == digest_tree(untraced_reports)
    outcomes.append(("traced reports equal untraced reports", identical, ""))

    outcomes.extend(crosscheck.run_all(
        ledger, untraced_reports, {c[0] for c in workload.commands},
        top_stake_pct=workload.option("--top-stake-pct", 0.05),
        theta=workload.option("--theta", 0.9),
        window_days=workload.option("--window-days", 7.0)))
    result["spans"] = {"setup": setup_spans, "sequence": traced.spans}
    return layer_metrics(traced, setup_spans, actions, untraced_wall, startup)


if __name__ == "__main__":
    sys.exit(main())
