"""The three closed-loop workloads: inputs drawn from a seed, one pass, and the
checks that judge each case a pass produces.

One client runs each workload in one process; a case starts only when the
previous one has finished.  Every call into ``socenv.analysis`` goes through
the module attribute, so the wrappers in ``clock.py`` and ``layers.py`` see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from socenv import analysis, cli, vehicle
from socenv.transcription import SplineSolution

ACADEMIC_METHODS = ("MS-50", "PS-5", "PS-8", "SOCSE-5", "SOCSE-8")
AVP_METHODS = ("SOC-3", "SOC-5", "SOCSE-3", "SOCSE-5", "SOCSE-8")
ROLLOUT_METHOD = "SOCSE-5"

# Tolerances of tests/test_acceptance.py.
KKT_STATIONARITY_TOL = 1e-4
KKT_EQ_RESIDUAL_TOL = 1e-6
ENVELOPE_VIOLATION_TOL = 1e-6
AVP_ROLLOUT_ERR_TOL = 1e-2

# Seed 0 must reproduce the values in expected_seed0.json to these tolerances:
# |got - want| <= rel * |want| + abs.  ode_err of PS and MS sits at round-off
# level, hence the absolute floor.
SEED0_TOLERANCE = {
    "objective": (1e-6, 0.0),
    "cost_dev_pct": (1e-3, 1e-6),
    "ode_err": (1e-3, 1e-9),
    "traj_cost": (1e-6, 0.0),
}
EXPECTED_PATH = Path(__file__).resolve().parent / "expected_seed0.json"


@dataclass
class Case:
    """One judged unit of work: a method of a table or solve sweep, or one rollout."""

    label: str
    values: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def require(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)


def avp_initial_state(seed: int) -> np.ndarray:
    """Seed 0 is the paper's scenario (v_x0 = 1.0 m/s, w0 = 2.99 m)."""
    x0 = np.zeros(vehicle.N_STATES)
    if seed == 0:
        x0[0], x0[4] = 1.0, 2.99
    else:
        rng = np.random.default_rng(seed)
        x0[0] = rng.uniform(0.8, 1.2)
        x0[4] = rng.uniform(2.90, 2.99)
    return x0


def build_problem(workload: str, seed: int):
    """The workload's problem after one model evaluation (the set-up a user pays).

    Returns the problem and the seconds taken by that first evaluation, which
    builds the sympy vehicle model.
    """
    if workload == "academic-table":
        ocp = cli.academic_problem()
    else:
        ocp = vehicle.avp_problem(x0=avp_initial_state(seed))
    t0 = time.perf_counter()
    ocp.dynamics(ocp.x0, np.zeros(ocp.n_u))
    return ocp, time.perf_counter() - t0


def load_expected(workload: str) -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[workload]


def check_seed0(case: Case, expected: dict):
    """Compare the recorded seed-0 values of one case."""
    for key, want in expected.get(case.label, {}).items():
        got = case.values.get(key)
        rel, abs_ = SEED0_TOLERANCE[key]
        ok = got is not None and math.isfinite(got) and abs(got - want) <= rel * abs(want) + abs_
        case.require(ok, f"{key}={got!r} differs from recorded {want!r}")


def check_solve(case: Case, report):
    case.values["objective"] = report.objective
    case.require(report.status == "converged", f"status {report.status}")


def check_certificate(case: Case, cert: dict):
    case.require(cert["stationarity"] <= KKT_STATIONARITY_TOL,
                 f"KKT stationarity {cert['stationarity']:.3e}")
    case.require(cert["eq_residual"] <= KKT_EQ_RESIDUAL_TOL,
                 f"equality residual {cert['eq_residual']:.3e}")


class AcademicTable:
    """``socenv bench --problem academic --format json`` through ``socenv.cli.main``.

    The seed permutes the ``--method`` list; seed 0 keeps the default order.
    """

    name = "academic-table"
    cases_per_pass = len(ACADEMIC_METHODS)
    solve_s_samples = None
    model_build_s = 0.0   # the scalar model has no vehicle model to build

    def __init__(self, seed: int, clock):
        methods = list(ACADEMIC_METHODS)
        if seed:
            methods = [methods[i] for i in np.random.default_rng(seed).permutation(len(methods))]
        self.argv = ["bench", "--problem", "academic", "--format", "json",
                     "--method", ",".join(methods)]
        self.clock = clock
        self.expected = load_expected(self.name) if seed == 0 else None

    def prepare(self):
        ocp, _ = build_problem(self.name, 0)
        analysis.solve_method(ocp, "SOCSE-3")   # lazy imports

    def run_pass(self) -> list:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        rows = json.loads(out.getvalue())["rows"]
        reports = dict(self.clock.reports)
        cases = []
        for row in rows:
            case = Case(row["method"])
            report = reports.get(row["method"])
            case.require(report is not None, "no solve report")
            if report is not None:
                check_solve(case, report)
            # run_benchmark marks a row kkt_reject when the certificate fails
            # the same tolerances as KKT_*_TOL.
            case.require(row["status"] == "converged", f"row status {row['status']}")
            case.values.update(cost_dev_pct=row["cost_dev_pct"], ode_err=row["ode_err"],
                               max_violation=row["max_violation"])
            family = row["method"].split("-")[0]
            if family == "SOCSE":
                case.require(row["max_violation"] <= ENVELOPE_VIOLATION_TOL,
                             f"envelope violation {row['max_violation']:.3e}")
            elif family in ("PS", "SOC"):
                # Node-only collocation leaves the control box between nodes.
                case.require(row["max_violation"] > 0.0, "node-only violation is 0")
            if self.expected is not None:
                check_seed0(case, self.expected)
            cases.append(case)
        if code != 0 or len(cases) != len(ACADEMIC_METHODS):
            cases.append(Case("cli", failures=[f"exit code {code}, {len(cases)} rows"]))
        return cases


class AvpSolve:
    """The default AVP method list, each solved, certified and densely scanned."""

    name = "avp-solve"
    cases_per_pass = len(AVP_METHODS)
    solve_s_samples = None

    def __init__(self, seed: int, clock):
        self.seed = seed
        self.clock = clock
        self.expected = load_expected(self.name) if seed == 0 else None
        self.ocp = None

    def prepare(self):
        self.ocp, self.model_build_s = build_problem(self.name, self.seed)
        analysis.solve_method(vehicle.avp_problem(), "SOC-3")   # lazy imports

    def run_pass(self) -> list:
        cases = []
        for label in AVP_METHODS:
            case = Case(label)
            report, sol, nlp, z = analysis.solve_method(self.ocp, label)
            check_solve(case, report)
            check_certificate(case, analysis.kkt_certificate(
                nlp, z, report.lam_eq, report.mu_lin, report.mu_nl))
            scan = analysis.dense_violation_scan(sol, self.ocp)
            case.values["max_violation"] = scan["max"]
            if label.startswith("SOCSE-"):
                case.require(scan["max"] <= ENVELOPE_VIOLATION_TOL,
                             f"envelope violation {scan['max']:.3e}")
            if self.expected is not None:
                check_seed0(case, self.expected)
            cases.append(case)
        return cases


class AvpRollout:
    """Rollout error, trajectory cost and dense scan of the seed's AVP SOCSE-5 solution.

    The solution is solved in preparation, outside every pass, so the passes
    do model and spline work only.  The median of ``PREP_SOLVES`` preparation
    solves is reported as this workload's ``solve_s``: ``solve_s`` must never
    read 0, and these are the solve calls a user of this workload waits for.
    """

    name = "avp-rollout"
    cases_per_pass = 1
    PREP_SOLVES = 3

    def __init__(self, seed: int, clock):
        self.seed = seed
        self.clock = clock
        self.expected = load_expected(self.name) if seed == 0 else None

    def prepare(self):
        self.ocp, self.model_build_s = build_problem(self.name, self.seed)
        times = []
        for _ in range(self.PREP_SOLVES):
            report, sol, nlp, z = analysis.solve_method(self.ocp, ROLLOUT_METHOD)
            times.append(self.clock.take().solve_s)
        self.solve_s_samples = times
        self.solution = sol
        case = Case(ROLLOUT_METHOD)
        check_solve(case, report)
        check_certificate(case, analysis.kkt_certificate(
            nlp, z, report.lam_eq, report.mu_lin, report.mu_nl))
        case.require(isinstance(sol, SplineSolution), "no spline solution")
        self.prep_case = case

    def run_pass(self) -> list:
        case = Case(ROLLOUT_METHOD, values=dict(self.prep_case.values),
                    failures=list(self.prep_case.failures))
        sol, ocp = self.solution, self.ocp
        err = analysis.ode_rollout_error(sol, ocp)
        cost = analysis.trajectory_cost(ocp, sol.x_at, sol.u_at)
        scan = analysis.dense_violation_scan(sol, ocp)
        case.values.update(ode_err=err, traj_cost=cost, max_violation=scan["max"])
        case.require(err <= AVP_ROLLOUT_ERR_TOL, f"rollout error {err:.3e}")
        case.require(math.isfinite(cost), f"trajectory cost {cost!r}")
        case.require(scan["max"] <= ENVELOPE_VIOLATION_TOL,
                     f"envelope violation {scan['max']:.3e}")
        if self.expected is not None:
            check_seed0(case, self.expected)
        return [case]


WORKLOADS = {w.name: w for w in (AcademicTable, AvpSolve, AvpRollout)}
