"""Cold start of one workload in a fresh interpreter.

    python3 perfbench/cold_start.py <workload> <seed>

Imports socenv from the checkout's src/, builds the workload's problem and
evaluates its model once.  run.py times this script as ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import build_problem  # noqa: E402 -- imports socenv

build_problem(sys.argv[1], int(sys.argv[2]))
