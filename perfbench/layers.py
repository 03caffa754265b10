"""Per-layer spans of a traced pass, recorded from outside the package.

``Tracer.install`` replaces socenv's module functions with wrappers, and
``Tracer.instrument_ocp`` / the transcribe hooks wrap the callable fields of
each ``OcpProblem`` and ``NlpProblem``.  Every wrapped call records a span:
name, start, end, parent span and case.  Spans live in flat arrays in memory
and are written out when the run ends; layer metrics are derived from them per
pass.  A span's self time is its duration minus the durations of its children.

Only the traced run installs the tracer: the timed runs measure the end-to-end
metrics without it.
"""

from __future__ import annotations

import array
import functools
import time
from pathlib import Path

import numpy as np

from socenv import analysis, cli, nlp, transcription

NLP_CALLBACKS = ("objective", "gradient", "hessian", "eq_fun", "eq_jac", "ineq_fun", "ineq_jac")
OCP_CALLBACKS = ("dynamics", "stage_cost", "stage_cost_grad", "stage_cost_hess",
                 "terminal_cost", "terminal_cost_grad", "terminal_constraint")
OCP_COST = tuple(f"ocp.{n}" for n in OCP_CALLBACKS if "cost" in n)
OCP_JACOBIAN = ("ocp.jacobian_x", "ocp.jacobian_u")
ROOT_SPAN = "pass"

# name: (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "nlp.qp_calls": ("count", "lower"),
    "nlp.qp_s": ("s", "lower"),
    "nlp.qp_iters": ("count", "lower"),
    "nlp.qp_nonoptimal": ("count", "lower"),
    "nlp.relaxed_qp_steps": ("count", "lower"),
    "nlp.qp_solve_share": ("ratio", "lower"),
    "nlp.sqp_iters": ("count", "lower"),
    "nlp.sqp_self_s": ("s", "lower"),
    "nlp.ls_trials_per_iter": ("ratio", "lower"),
    "nlp.kkt_s": ("s", "lower"),
    "transcription.assemble_s": ("s", "lower"),
    "transcription.objective_calls": ("count", "lower"),
    "transcription.gradient_calls": ("count", "lower"),
    "transcription.hessian_calls": ("count", "lower"),
    "transcription.eq_fun_calls": ("count", "lower"),
    "transcription.eq_jac_calls": ("count", "lower"),
    "transcription.callback_s": ("s", "lower"),
    "transcription.callback_self_s": ("s", "lower"),
    "transcription.decode_s": ("s", "lower"),
    "ocp.dynamics_calls": ("count", "lower"),
    "ocp.dynamics_s": ("s", "lower"),
    "ocp.jacobian_calls": ("count", "lower"),
    "ocp.jacobian_s": ("s", "lower"),
    "ocp.cost_calls": ("count", "lower"),
    "ocp.cost_s": ("s", "lower"),
    "vehicle.model_build_s": ("s", "lower"),
    "polynomial.spline_calls": ("count", "lower"),
    "polynomial.spline_points": ("count", "lower"),
    "polynomial.spline_s": ("s", "lower"),
    "integrators.rk4_steps": ("count", "lower"),
    "integrators.rk4_jac_steps": ("count", "lower"),
    "analysis.reference_s": ("s", "lower"),
    "analysis.reference_iters": ("count", "lower"),
    "analysis.reference_fevals": ("count", "lower"),
    "analysis.rollout_s": ("s", "lower"),
    "analysis.rollout_self_s": ("s", "lower"),
    "analysis.dense_scan_s": ("s", "lower"),
    "analysis.traj_cost_s": ("s", "lower"),
    "envelope.bounds_calls": ("count", "lower"),
    "envelope.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.untraced_pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.outside_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.cases: list = []
        self._case_ids: dict = {}
        self.name = array.array("i")
        self.case = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict = {}
        self._stack = [-1]
        self._case = 0
        self._pass_label = ""

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_case(self, label: str):
        key = f"{self._pass_label}/{label}"
        if key not in self._case_ids:
            self._case_ids[key] = len(self.cases)
            self.cases.append(key)
        self._case = self._case_ids[key]

    def count(self, key: str, amount: float):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` may replace the result."""
        nid = self._name_id(name)
        names, cases, parents, starts, ends = (self.name, self.case, self.parent,
                                               self.start, self.end)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            cases.append(self._case)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            return result if after is None else after(args, result)
        return traced

    def _patch(self, module, attr: str, name: str, after=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), after))

    def install(self):
        """Wrap the layer boundaries of socenv (module attributes, looked up at call time)."""
        self._patch(cli, "main", "cli.main")
        self._patch(cli, "run_benchmark", "cli.run_benchmark")
        self._patch(cli, "academic_problem", "cli.academic_problem",
                    after=lambda args, ocp: self.instrument_ocp(ocp))

        solve_method = self.wrap("analysis.solve_method", analysis.solve_method)

        @functools.wraps(analysis.solve_method)
        def solve_case(ocp, label, *args, **kwargs):
            self.set_case(label)
            return solve_method(ocp, label, *args, **kwargs)
        analysis.solve_method = solve_case

        reference = self.wrap("analysis.quasi_optimal_reference", analysis.quasi_optimal_reference,
                              after=self._count_reference)

        @functools.wraps(analysis.quasi_optimal_reference)
        def reference_case(*args, **kwargs):
            self.set_case("reference")
            return reference(*args, **kwargs)
        analysis.quasi_optimal_reference = reference_case

        self._patch(analysis, "minimize", "analysis.lbfgsb", after=self._count_lbfgsb)
        self._patch(analysis, "solve_sqp", "nlp.solve_sqp", after=self._count_sqp)
        self._patch(nlp, "qp_active_set", "nlp.qp_active_set", after=self._count_qp)
        self._patch(analysis, "kkt_certificate", "nlp.kkt_certificate")
        for attr in ("transcribe", "transcribe_multiple_shooting"):
            self._patch(analysis, attr, f"transcription.{attr}",
                        after=lambda args, problem: self.instrument_nlp(problem))
        self._patch(analysis, "decode", "transcription.decode")
        for attr in ("ode_rollout_error", "dense_violation_scan", "trajectory_cost"):
            self._patch(analysis, attr, f"analysis.{attr}")
        for module in (analysis, transcription):
            self._patch(module, "rk4_step", "integrators.rk4_step")
            self._patch(module, "rk4_step_jacobians", "integrators.rk4_step_jacobians")
        self._patch(analysis, "rk4_step_timed", "integrators.rk4_step_timed")
        self._patch(transcription, "spline_samples", "polynomial.spline_samples",
                    after=self._count_spline_points)
        self._patch(transcription, "spline_bounds", "envelope.spline_bounds")

    def instrument_ocp(self, ocp):
        for attr in OCP_CALLBACKS:
            fn = getattr(ocp, attr)
            if fn is not None:
                setattr(ocp, attr, self.wrap(f"ocp.{attr}", fn))
        if ocp.dynamics_jacobians is not None:
            fx, fu = ocp.dynamics_jacobians
            ocp.dynamics_jacobians = (self.wrap("ocp.jacobian_x", fx),
                                      self.wrap("ocp.jacobian_u", fu))
        return ocp

    def instrument_nlp(self, problem):
        for attr in NLP_CALLBACKS:
            fn = getattr(problem, attr)
            if fn is not None:
                setattr(problem, attr, self.wrap(f"transcription.{attr}", fn))
        return problem

    def _count_qp(self, args, res):
        self.count("nlp.qp_iters", res.iterations)
        self.count("nlp.qp_nonoptimal", res.status != "optimal")
        return res

    def _count_sqp(self, args, out):
        report = out[1]
        self.count("nlp.sqp_iters", report.iterations)
        self.count("nlp.relaxed_qp_steps", report.relaxed_qp_steps)
        return out

    def _count_reference(self, args, ref):
        self.count("analysis.reference_iters", ref.iterations)
        return ref

    def _count_lbfgsb(self, args, res):
        self.count("analysis.reference_fevals", res.nfev)
        return res

    def _count_spline_points(self, args, values):
        self.count("polynomial.spline_points", len(values))
        return values

    # -- passes ----------------------------------------------------------

    def run_pass(self, label: str, body):
        """Run ``body()`` under a root span; returns (its result, span index range)."""
        self._pass_label = label
        self.counters = {}
        self.set_case("-")
        lo = len(self.start)
        result = self.wrap(ROOT_SPAN, body)()
        return result, (lo, len(self.start))

    def span_table(self, lo: int, hi: int) -> dict:
        """Per span name: calls, total and self seconds, over spans [lo, hi)."""
        names = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=hi - lo)
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        self_s = np.bincount(names, weights=dur - child, minlength=n)
        # Callbacks made by the SQP loop itself (not by the certificate).
        sqp = self._name_ids.get("nlp.solve_sqp", -1)
        in_sqp = np.zeros(hi - lo, dtype=bool)
        in_sqp[nested] = names[parents[nested]] == sqp
        calls_in_sqp = np.bincount(names[in_sqp], minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i]), "calls_in_sqp": int(calls_in_sqp[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def write(self, path: Path):
        np.savez_compressed(
            path, names=np.array(self.names), cases=np.array(self.cases),
            name=np.frombuffer(self.name, dtype=np.int32),
            case=np.frombuffer(self.case, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def layer_metrics(table: dict, counters: dict, untraced_pass_s: float,
                  model_build_s: float) -> dict:
    """The per-layer metrics of one traced pass from its span table and counters."""
    def calls(*names):
        return sum(table.get(n, {}).get("calls", 0) for n in names)

    def total(*names):
        return sum(table.get(n, {}).get("total_s", 0.0) for n in names)

    def self_s(*names):
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

    callbacks = [f"transcription.{n}" for n in NLP_CALLBACKS]
    solves = calls("nlp.solve_sqp")
    sqp_obj = table.get("transcription.objective", {}).get("calls_in_sqp", 0)
    sqp_grad = table.get("transcription.gradient", {}).get("calls_in_sqp", 0)
    # Each solve evaluates f and g once at z0; after that, one objective call
    # per line-search trial point and one gradient call per accepted step.
    accepted = sqp_grad - solves
    solve_s = total("analysis.solve_method")
    pass_s = total(ROOT_SPAN)
    m = {
        "nlp.qp_calls": calls("nlp.qp_active_set"),
        "nlp.qp_s": total("nlp.qp_active_set"),
        "nlp.qp_iters": counters.get("nlp.qp_iters", 0),
        "nlp.qp_nonoptimal": counters.get("nlp.qp_nonoptimal", 0),
        "nlp.relaxed_qp_steps": counters.get("nlp.relaxed_qp_steps", 0),
        "nlp.qp_solve_share": total("nlp.qp_active_set") / solve_s if solve_s else 0.0,
        "nlp.sqp_iters": counters.get("nlp.sqp_iters", 0),
        "nlp.sqp_self_s": self_s("nlp.solve_sqp"),
        "nlp.ls_trials_per_iter": (sqp_obj - solves) / accepted if accepted > 0 else 0.0,
        "nlp.kkt_s": total("nlp.kkt_certificate"),
        "transcription.assemble_s": total("transcription.transcribe",
                                          "transcription.transcribe_multiple_shooting"),
        "transcription.callback_s": total(*callbacks),
        "transcription.callback_self_s": self_s(*callbacks),
        "transcription.decode_s": total("transcription.decode"),
        "ocp.dynamics_calls": calls("ocp.dynamics"),
        "ocp.dynamics_s": total("ocp.dynamics"),
        "ocp.jacobian_calls": calls(*OCP_JACOBIAN),
        "ocp.jacobian_s": total(*OCP_JACOBIAN),
        "ocp.cost_calls": calls(*OCP_COST),
        "ocp.cost_s": total(*OCP_COST),
        "vehicle.model_build_s": model_build_s,
        "polynomial.spline_calls": calls("polynomial.spline_samples"),
        "polynomial.spline_points": counters.get("polynomial.spline_points", 0),
        "polynomial.spline_s": total("polynomial.spline_samples"),
        "integrators.rk4_steps": calls("integrators.rk4_step", "integrators.rk4_step_timed"),
        "integrators.rk4_jac_steps": calls("integrators.rk4_step_jacobians"),
        "analysis.reference_s": total("analysis.quasi_optimal_reference"),
        "analysis.reference_iters": counters.get("analysis.reference_iters", 0),
        "analysis.reference_fevals": counters.get("analysis.reference_fevals", 0),
        "analysis.rollout_s": total("analysis.ode_rollout_error"),
        "analysis.rollout_self_s": self_s("analysis.ode_rollout_error"),
        "analysis.dense_scan_s": total("analysis.dense_violation_scan"),
        "analysis.traj_cost_s": total("analysis.trajectory_cost"),
        "envelope.bounds_calls": calls("envelope.spline_bounds"),
        "envelope.s": total("envelope.spline_bounds"),
        "cli.self_s": self_s("cli.main"),
        "trace.pass_s": pass_s,
        "trace.untraced_pass_s": untraced_pass_s,
        "trace.overhead_s": pass_s - untraced_pass_s,
        "trace.outside_s": self_s(ROOT_SPAN),
        "trace.spans": sum(row["calls"] for row in table.values()),
    }
    for n in ("objective", "gradient", "hessian", "eq_fun", "eq_jac"):
        m[f"transcription.{n}_calls"] = calls(f"transcription.{n}")
    return {name: float(m[name]) for name in LAYER_METRICS}
