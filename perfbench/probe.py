"""Host-speed probe: a fixed workload the benchmark times between commands.

    python3 perfbench/probe.py

Like a dposf command, it starts an interpreter, builds and parses JSON lines
into fresh memory and folds them into a keyed float table. It imports nothing
from the package, so a change to `src` cannot move its time; a change in the
host's speed moves it together with the commands (see HostProbe in run.py).
"""
import json
import random

LINES = 8000


def main() -> int:
    rng = random.Random(1)
    lines = [json.dumps({
        "t": i,
        "voter": f"v{rng.randrange(200_000):06d}",
        "candidates": [f"c{rng.randrange(60):03d}" for _ in range(rng.randrange(1, 30))],
        "amount": rng.random() * 1e6,
    }) for i in range(LINES)]
    totals: dict[tuple[str, str], float] = {}
    for record in map(json.loads, lines):
        for candidate in record["candidates"]:
            key = (record["voter"], candidate)
            totals[key] = totals.get(key, 0.0) + record["amount"]
    return 0 if len(sorted(totals)) > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
