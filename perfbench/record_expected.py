"""Record the seed-0 values that later runs of the benchmark must reproduce.

    python3 perfbench/record_expected.py

Runs one pass of every workload at seed 0 and rewrites expected_seed0.json.
Run it only when a change is meant to move these values, and say so.
"""

import json
import sys
from pathlib import Path

import run  # noqa: F401 -- pins BLAS threads as the benchmark does, before numpy loads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clock import Clock  # noqa: E402 -- imports socenv
from workloads import EXPECTED_PATH, SEED0_TOLERANCE, WORKLOADS  # noqa: E402


def main():
    clock = Clock()
    clock.install()
    expected = {}
    for name, cls in WORKLOADS.items():
        workload = cls(0, clock)
        workload.expected = None
        workload.prepare()
        clock.take()
        cases = workload.run_pass()
        clock.take()
        failed = [c for c in cases if c.failures]
        if failed:
            raise SystemExit(f"{name}: seed 0 fails its checks: "
                             f"{[(c.label, c.failures) for c in failed]}")
        expected[name] = {c.label: {k: v for k, v in c.values.items() if k in SEED0_TOLERANCE}
                          for c in cases}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
