"""End-to-end time split of a pass: solve calls against verify calls.

``Clock.install`` wraps a handful of ``socenv.analysis`` functions, called a
few dozen times per pass, so it stays on in the timed runs.  A call nested in
another timed call (the trajectory cost inside the reference solve) is counted
once, by the outer call.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from socenv import analysis

# transcribe + SQP + decode: what a `socenv solve` user waits for.
SOLVE_CALLS = ("solve_method",)
# The metrics that judge a solution.
VERIFY_CALLS = ("kkt_certificate", "quasi_optimal_reference", "ode_rollout_error",
                "dense_violation_scan", "trajectory_cost")


@dataclass
class Tally:
    solve_s: float = 0.0
    verify_s: float = 0.0
    reports: list = field(default_factory=list)   # (method label, SolveReport)


class Clock:
    def __init__(self):
        self.tally = Tally()
        self._busy = False

    @property
    def reports(self):
        return self.tally.reports

    def install(self):
        for name in SOLVE_CALLS + VERIFY_CALLS:
            setattr(analysis, name, self._timed(getattr(analysis, name), name in SOLVE_CALLS))

    def take(self) -> Tally:
        """Return the tally since the last take and start a new one."""
        tally, self.tally = self.tally, Tally()
        return tally

    def _timed(self, fn, is_solve: bool):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._busy:
                return fn(*args, **kwargs)
            self._busy = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._busy = False
                if is_solve:
                    self.tally.solve_s += dt
                else:
                    self.tally.verify_s += dt
            if is_solve:
                self.tally.reports.append((args[1], result[0]))
            return result
        return timed
