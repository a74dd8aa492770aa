"""Record the expected simulated output of every workload, per seed.

Usage, from the root of a checkout::

    python3 perfbench/record.py                  # the default seed set
    python3 perfbench/record.py 7 4242           # only these seeds

Runs each workload's CLI command line once per seed and stores the digest of
its ``--json`` document (execution metadata excluded), the transaction counts,
the isolation verdict and the exports' span count in ``expected.json``,
merged with what is already recorded.  Recording fixes what "correct" means
for every later run of the benchmark: record only from a commit whose output
is right, and never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
import time

from run import ROOT, RUN_LIMIT_S, run_child
from workloads import (
    DEFAULT_SEED,
    EXPECTED_FILE,
    HELD_OUT_SEED,
    WORK_DIR,
    WORKLOADS,
    summarize,
)

#: The CLI default, the held-out seed, and a range for the seeds a harness
#: is likely to pass.
DEFAULT_SEEDS = [DEFAULT_SEED, HELD_OUT_SEED, *range(0, 50)]


def main(argv) -> int:
    seeds = [int(seed) for seed in argv] or DEFAULT_SEEDS
    recorded = (
        json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {"workloads": {}}
    )
    WORK_DIR.mkdir(exist_ok=True)
    for seed in dict.fromkeys(seeds):
        for workload in WORKLOADS.values():
            child = run_child(
                [sys.executable, "-m", "repro", *workload.cli_args(seed)],
                WORK_DIR / "record.stdout",
                time.monotonic() + RUN_LIMIT_S,
            )
            if child.exit_code != 0:
                print(f"{workload.name} seed {seed}: exit code {child.exit_code}", file=sys.stderr)
                return 1
            summary = summarize(json.loads(child.stdout), ROOT, workload)
            recorded["workloads"].setdefault(workload.name, {})[str(seed)] = summary
            print(f"{workload.name} seed {seed}: {summary['submitted']} tx", file=sys.stderr)
        EXPECTED_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
