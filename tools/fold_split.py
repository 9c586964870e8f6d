"""In-process times of the read, the parse and the fold of a generated ledger:

    PYTHONPATH=src python3 tools/fold_split.py CONFIG

It generates CONFIG's ledger with `dposf generate` into a temporary
directory, then prints the best of 5 runs, in seconds, of:

- read: a LineFile over the trace file whose parse returns the line, so
  that the reader's split, decode, strip and hash show apart from the parse;
- parse: load_trace of the trace file, into a list of actions;
- headers: load_headers of the header file, into a list of headers;
- fold: replay over the parsed actions, with no observer;
- fold+log: the same with a VoteLog;
- fold+log+monthly: replay_with_snapshots over the parsed actions, with a
  VoteLog and a snapshot at the end of each month, as `dposf all` folds;
- file fold+log+monthly: the same over load_trace(path, lazy=True), which
  parses each line as the fold reads it, as the commands do.

The package is the one on PYTHONPATH, for the generation too, so that two
checkouts are compared by running this once with each one's src.
"""
import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from dposforensics.metrics import month_ends
from dposforensics.model import LineFile, load_headers, load_trace
from dposforensics.replay import VoteLog, replay, replay_with_snapshots

REPEATS = 5


def monthly(first, last):
    """The sample times of `dposf all`'s default cadence."""
    return () if first is None else month_ends(first, last + 1)


def best(run) -> float:
    """The least wall time of REPEATS calls of run()."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        subprocess.run([sys.executable, "-m", "dposforensics.cli", "generate",
                        "-c", str(args.config), "-o", work],
                       check=True, stdout=subprocess.DEVNULL)
        path = os.path.join(work, "trace.jsonl")
        headers = os.path.join(work, "headers.jsonl")
        actions = load_trace(path)
        print(f"{args.config}: {len(actions)} actions, best of {REPEATS}")
        rows = [
            ("read", lambda: list(LineFile(path, lambda line, names: line))),
            ("parse", lambda: load_trace(path)),
            ("headers", lambda: load_headers(headers)),
            ("fold", lambda: replay(actions)),
            ("fold+log", lambda: replay(actions, [VoteLog()])),
            ("fold+log+monthly",
             lambda: replay_with_snapshots(actions, monthly, [VoteLog()])),
            ("file fold+log+monthly",
             lambda: replay_with_snapshots(load_trace(path, lazy=True), monthly,
                                           [VoteLog()])),
        ]
        for name, run in rows:
            print(f"  {name:22} {best(run):.3f} s")


if __name__ == "__main__":
    main()
