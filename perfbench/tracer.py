"""Per-layer tracing for the dposf benchmark.

The wrappers live here, in the benchmark, and are installed around the public
functions of each dposforensics module for the length of one command; the
package itself is not edited. Spans (name, start, end, parent, run id) stay in
memory and are written out when the command ends. Hot functions that run
hundreds of thousands of times per command are counted, not spanned, so that
tracing does not swamp what it measures.

Run as a script, it executes one dposf command in-process with every layer
wrapped and writes the spans and counts to a JSON file:

    python3 perfbench/tracer.py SPANS.json RUN_ID all trace.jsonl headers.jsonl -o out

The exit code is the command's own.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path


# (module, owner, attribute, span name, {count name: f(result)}). owner None
# means a module-level function; otherwise a class of that module.
SPANNED = [
    ("model", None, "load_trace", "model.load_trace", {"model.actions": len}),
    ("model", None, "load_headers", "model.load_headers", {"model.headers": len}),
    ("replay", None, "replay", "replay.replay",
     {"replay.rejected": lambda r: len(r[1])}),
    ("replay", None, "replay_with_snapshots", "replay.replay_with_snapshots",
     {"replay.rejected": lambda r: len(r[1]), "replay.snapshots": lambda r: len(r[2])}),
    ("replay", "VotingState", "snapshot", "replay.snapshot", {}),
    ("metrics", None, "monthly_production", "metrics.monthly_production", {}),
    ("metrics", None, "producer_turnover", "metrics.producer_turnover", {}),
    ("metrics", None, "proxy_share_series", "metrics.proxy_share_series", {}),
    ("metrics", None, "stake_distribution", "metrics.stake_distribution", {}),
    ("metrics", None, "powerlaw_exponent", "metrics.powerlaw_exponent", {}),
    ("clustering", None, "top_stakeholders", "clustering.top_stakeholders",
     {"clustering.voters": len}),
    ("clustering", None, "sample_voting_records", "clustering.sample_voting_records", {}),
    ("clustering", None, "cluster_voters", "clustering.cluster_voters",
     {"clustering.clusters": len}),
    ("motifs", None, "build_vote_events", "motifs.build_vote_events",
     {"motifs.events": len}),
    ("motifs", None, "detect_linear", "motifs.detect_linear", {"motifs.instances": len}),
    ("motifs", None, "detect_triangular", "motifs.detect_triangular",
     {"motifs.instances": len}),
    ("motifs", None, "detect_eight", "motifs.detect_eight", {"motifs.instances": len}),
    ("gangs", None, "build_voting_network", "gangs.build_voting_network",
     {"gangs.edges": lambda g: len(g.edges)}),
    ("gangs", None, "egonet_features", "gangs.egonet_features", {"gangs.egonets": len}),
    ("gangs", None, "fit_edpl", "gangs.fit_edpl", {}),
    ("gangs", None, "outlierness", "gangs.outlierness", {}),
    ("gangs", None, "select_anomalies", "gangs.select_anomalies",
     {"gangs.anomalies": len}),
    ("gangs", None, "reconstruct_weighted_network", "gangs.reconstruct_weighted_network", {}),
    ("gangs", None, "detect_gangs", "gangs.detect_gangs",
     {"gangs.communities": lambda r: len(r.communities)}),
    ("synth", None, "generate_ledger", "synth.generate_ledger", {}),
    ("synth", None, "generate_block_schedule", "synth.generate_block_schedule", {}),
]

CLUSTER_SPAN = "clustering.cluster_voters"


class Tracer:
    """Spans and counts of one run, kept in memory until it ends."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.theta: float | None = None   # threshold of the running cluster_voters

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def in_span(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name, the summed duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Counter[str] = Counter()
    for (name, start, end, _), children in zip(spans, child_time):
        totals[name] += end - start - children
    return dict(totals)


def _spanned(tracer: Tracer, fn, name: str, counters: dict):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        if name == CLUSTER_SPAN:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.theta = bound.arguments["theta"]
        with tracer.span(name):
            result = fn(*args, **kwargs)
        for count, measure in counters.items():
            tracer.counts[count] += measure(result)
        return result

    return wrapper


def _counted_apply(tracer: Tracer, fn):
    def apply(self, action):
        tracer.counts["replay.apply_calls"] += 1
        return fn(self, action)

    return apply


def _counted_similarity(tracer: Tracer, fn):
    def record_similarity(a, b):
        result = fn(a, b)
        # Only the comparisons the clustering makes; the CLI's mean-similarity
        # pass over finished clusters is report writing.
        if tracer.in_span(CLUSTER_SPAN):
            tracer.counts["clustering.similarity_calls"] += 1
            tracer.counts["clustering.similar_pairs"] += result >= tracer.theta
        return result

    return record_similarity


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced function for the length of the block.

    A function imported by name into other package modules (the CLI imports
    most of them) is replaced there too, so every call site is traced.
    """
    import dposforensics.cli  # noqa: F401  (imports every module of the package)
    from dposforensics import clustering, replay

    modules = [m for n, m in sys.modules.items()
               if n.startswith("dposforensics.") and m is not None]
    patches = []   # (owner, attribute, original)

    def patch(owner, attr, wrapper):
        original = getattr(owner, attr)
        targets = [owner]
        if not inspect.isclass(owner):
            targets = [m for m in modules if getattr(m, attr, None) is original]
        for target in targets:
            patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    for module_name, owner_name, attr, name, counters in SPANNED:
        owner = importlib.import_module(f"dposforensics.{module_name}")
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        patch(owner, attr, _spanned(tracer, getattr(owner, attr), name, counters))
    patch(replay.VotingState, "apply", _counted_apply(tracer, replay.VotingState.apply))
    patch(clustering, "record_similarity",
          _counted_similarity(tracer, clustering.record_similarity))
    try:
        yield tracer
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)


def run_command(args: list[str], run_id: str) -> tuple[int, Tracer]:
    """Run one dposf command in-process under a root span `cli.<command>`."""
    import click
    from dposforensics.cli import main

    tracer = Tracer(run_id)
    code = 0
    with instrument(tracer), contextlib.redirect_stdout(io.StringIO()):
        with tracer.span(f"cli.{args[0]}"):
            try:
                main.main(args, prog_name="dposf", standalone_mode=False)
            except click.ClickException as exc:
                exc.show()
                code = exc.exit_code
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    return code, tracer


if __name__ == "__main__":
    out_path, run_id, *command = sys.argv[1:]
    exit_code, run_tracer = run_command(command, run_id)
    Path(out_path).write_text(json.dumps(run_tracer.to_json()), encoding="utf-8")
    sys.exit(exit_code)
