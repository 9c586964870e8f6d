"""Digests of all that dposf writes for one ledger config, to show that two
checkouts write the same bytes:

    python3 tools/report_digests.py SRC CONFIG [--top-stake-pct PCT]

SRC is a checkout's src directory, CONFIG a generator config. Under
PYTHONHASHSEED 0 and 1, each in a fresh directory, it runs generate, all,
score, and replay, metrics, cluster, motifs and gangs, in subprocesses with
relative paths so that manifests match. Per group and hash seed it prints
the sha256 of the group's sorted `sha256sum` lines; the stdout and help
groups digest the commands' stdout and every --help screen. The daily group
digests the reports of metrics and cluster at --snapshot-cadence 1, where
the most snapshots are taken. The faults group
digests the exit code and stderr of metrics and all on a header file whose
last line is bad, alone and with a trace whose last line is bad, each of
which must exit 3, and of replay and all into an output directory where
state.json and clusters.json are directories, each of which must exit 2. It
exits 1 if the two seeds differ.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ["generate", "replay", "metrics", "cluster", "motifs", "gangs", "all", "score"]


def dposf(src: Path, hash_seed: int, cwd: Path, args: list[str],
          code: int = 0) -> subprocess.CompletedProcess:
    """The finished run of `dposf ARGS`; exit with its stderr unless it
    exited `code`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-m", "dposforensics.cli", *args],
                          cwd=cwd, env=env, capture_output=True)
    if proc.returncode != code:
        sys.exit(f"dposf {' '.join(args)}: exit {proc.returncode}\n"
                 f"{proc.stderr.decode()}")
    return proc


def with_bad_last_line(work: Path, name: str) -> str:
    """A copy of ledger/NAME with a line that is not JSON after its last."""
    path = work / "faults" / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes((work / "ledger" / name).read_bytes() + b"not json\n")
    return str(path.relative_to(work))


def digests(src: Path, pct: list[str], hash_seed: int, work: Path) -> dict[str, str]:
    trace, headers = "ledger/trace.jsonl", "ledger/headers.jsonl"
    runs = [["generate", "-c", "config.json", "-o", "ledger"],
            ["all", trace, headers, *pct, "-o", "all"],
            ["score", "all", "ledger/truth.json", "-o", "score"],
            ["replay", trace, "-o", "single"],
            ["metrics", trace, headers, *pct, "-o", "single"],
            ["cluster", trace, *pct, "-o", "single"],
            ["motifs", trace, "-o", "single"],
            ["gangs", trace, "-o", "single"]]
    groups = {"stdout": b"".join(dposf(src, hash_seed, work, args).stdout
                                 for args in runs),
              "help": b"".join(dposf(src, hash_seed, work, [*command, "--help"]).stdout
                               for command in [[]] + [[c] for c in COMMANDS])}
    bad_trace = with_bad_last_line(work, "trace.jsonl")
    bad_headers = with_bad_last_line(work, "headers.jsonl")
    faults = [([command, t, bad_headers, "-o", "faults/out"], 3)
              for t in (trace, bad_trace) for command in ("metrics", "all")]
    for report in ("state.json", "clusters.json"):
        (work / "faults" / "blocked" / report).mkdir(parents=True)
    faults += [(["replay", trace, "-o", "faults/blocked"], 2),
               (["all", trace, headers, *pct, "-o", "faults/blocked"], 2)]
    groups["faults"] = b"".join(
        b"%d\n%s" % (proc.returncode, proc.stderr)
        for proc in (dposf(src, hash_seed, work, args, code) for args, code in faults))
    for command in (["metrics", trace, headers], ["cluster", trace]):
        dposf(src, hash_seed, work, [*command, *pct, "--snapshot-cadence", "1",
                                     "-o", "daily"])
    for group, folder in [("generate", "ledger"), ("all", "all"), ("score", "score"),
                          ("single", "single"), ("daily", "daily")]:
        groups[group] = "".join(sorted(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
            for path in (work / folder).iterdir())).encode()
    return {group: hashlib.sha256(data).hexdigest() for group, data in groups.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("config", type=Path)
    parser.add_argument("--top-stake-pct")
    args = parser.parse_args()
    pct = ["--top-stake-pct", args.top_stake_pct] if args.top_stake_pct else []
    by_seed = []
    for hash_seed in (0, 1):
        with tempfile.TemporaryDirectory() as work:
            shutil.copyfile(args.config, Path(work) / "config.json")
            by_seed.append(digests(args.src.resolve(), pct, hash_seed, Path(work)))
        for group, digest in by_seed[-1].items():
            print(f"{group:8} PYTHONHASHSEED={hash_seed} {digest}")
    sys.exit(by_seed[0] != by_seed[1])


if __name__ == "__main__":
    main()
