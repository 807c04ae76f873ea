"""Measure every candidate job and record its cost in costs.json.

    python3 bench/calibrate.py

Each candidate runs twice and keeps the lower time, which the host disturbs
less.  The costs only sort candidates into the strata that
`workloads.make_pass` draws from.  Re-record them only together with a change to the candidate
lists, never in a change that claims a speed-up: both sides of a comparison
must draw the same jobs.
"""

from __future__ import annotations

import json
import sys

import run  # puts the benchmark and the program on sys.path
from workloads import CANDIDATES, COSTS_FILE


def main() -> int:
    from metalie import cli

    client = run.Client(cli)
    costs = {}
    for _ in range(2):
        for workload, candidates in CANDIDATES.items():
            for family, jobs in candidates().items():
                for job in jobs:
                    cost = round(client.run(job), 5)
                    costs[job.key] = min(cost, costs.get(job.key, cost))
                print(f"{workload}/{family}: {len(jobs)} jobs", file=sys.stderr)
    for problem in client.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    if client.failures:
        return 1
    with open(COSTS_FILE, "w") as fh:
        json.dump(dict(sorted(costs.items())), fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
