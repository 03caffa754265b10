"""Batch command-line front end: grid inspection, envelope demos, single
solves, and benchmark runs.

Each subcommand accepts only the options it reads.  Exit codes: 0 success,
1 solver failure, 2 usage/config error.  Every subcommand is deterministic
given (config, seed); wall-clock fields are the only nondeterministic outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .analysis import (dense_violation_scan, parse_method, rows_to_csv, rows_to_json,
                       run_benchmark, solve_method)
from .envelope import envelope_matrix, spline_bounds
from .errors import DomainError
from .nlp import MAX_ITERS
from .ocp import academic_problem
from .polynomial import basis_matrix, lgl_grid, spline_samples
from .transcription import SplineSolution
from .vehicle import avp_problem, avp_problem_from_config

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


def _problem(ns: argparse.Namespace):
    """The selected OCP. The AVP model is generated code, so nothing is left
    to compile before a solve is timed."""
    if ns.problem == "academic":
        if ns.config:
            raise ValueError("--config applies to --problem avp only")
        return academic_problem()
    return avp_problem_from_config(ns.config) if ns.config else avp_problem()


def _write(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_nodes(ns: argparse.Namespace) -> int:
    nodes, weights = lgl_grid(ns.nodes)
    lines = ["tau,weight"]
    lines += [f"{float(t)!r},{float(w)!r}" for t, w in zip(nodes, weights)]
    lines.append(f"sum,{float(np.sum(weights))!r}")
    _write("\n".join(lines) + "\n", ns.out)
    return EXIT_OK


def cmd_envelope_demo(ns: argparse.Namespace) -> int:
    M = ns.degree
    rng = np.random.default_rng(ns.seed)
    L = basis_matrix(M)
    C = envelope_matrix(L)
    taus = np.linspace(-1.0, 1.0, ns.samples)
    lines = ["spline,true_min,true_max,bound_min,bound_max,gap_min,gap_max"]
    for i in range(ns.count):
        alpha = rng.standard_normal(M + 1)
        vals = spline_samples(alpha[:, None], L, taus)[:, 0]
        lo, hi = spline_bounds(alpha[:, None], C)
        lines.append(",".join(repr(v) for v in (
            float(i), float(vals.min()), float(vals.max()),
            float(lo[0]), float(hi[0]),
            float(vals.min() - lo[0]), float(hi[0] - vals.max()))))
    _write("\n".join(lines) + "\n", ns.out)
    return EXIT_OK


def _load_linalg():
    """Import scipy.linalg, which the QP imports on first use, so that the
    first timed solve of a process does not count the import (~0.2 s)."""
    import importlib
    importlib.import_module("scipy.linalg")


def cmd_solve(ns: argparse.Namespace) -> int:
    ocp = _problem(ns)
    _load_linalg()
    rep, sol, nlp, z = solve_method(ocp, ns.method, max_iters=ns.max_iters)
    payload = {"config": vars(ns), "method": ns.method,
               "report": {"status": rep.status, "iterations": rep.iterations,
                          "objective": rep.objective,
                          "max_eq_residual": rep.max_eq_residual,
                          "max_ineq_violation": rep.max_ineq_violation,
                          "wall_time": rep.wall_time}}
    if isinstance(sol, SplineSolution):
        ts, X, U = sol.sample_dense(ns.samples)
        scan = dense_violation_scan(sol, ocp, ns.samples)
        payload.update({
            "alpha_x": sol.alpha_x.tolist(),
            "alpha_u": sol.alpha_u.tolist(),
            "t": ts.tolist(), "x": X.tolist(), "u": U.tolist(),
            "x_bounds": [b.tolist() for b in sol.x_bounds],
            "u_bounds": [b.tolist() for b in sol.u_bounds],
            "max_violation": scan["max"],
        })
    else:
        payload.update({"t": sol.times.tolist(), "x": sol.states.tolist(),
                        "u": sol.controls.tolist()})
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", ns.out)
    return EXIT_OK if rep.status == "converged" else EXIT_SOLVER


def cmd_bench(ns: argparse.Namespace) -> int:
    if ns.method is not None:
        methods = [m.strip() for m in ns.method.split(",") if m.strip()]
        if not methods:
            raise ValueError(f"--method {ns.method!r} names no method")
    elif ns.problem == "academic":
        methods = ["MS-50", "PS-5", "PS-8", "SOCSE-5", "SOCSE-8"]
    else:
        methods = ["SOC-3", "SOC-5", "SOCSE-3", "SOCSE-5", "SOCSE-8"]
    for m in methods:
        parse_method(m)
    ocp = _problem(ns)
    _load_linalg()
    rows = run_benchmark(ocp, methods, max_iters=ns.max_iters,
                         samples=ns.samples, skip_reference=ns.skip_reference)
    if ns.format == "json":
        _write(rows_to_json(rows, vars(ns)) + "\n", ns.out)
    else:
        _write(rows_to_csv(rows), ns.out)
    if any(r.status != "converged" for r in rows):
        return EXIT_SOLVER
    return EXIT_OK


COMMANDS = {"nodes": cmd_nodes, "envelope-demo": cmd_envelope_demo,
            "solve": cmd_solve, "bench": cmd_bench}


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socenv",
        description="Spline collocation with safety envelopes: solve and benchmark OCPs.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    out_help = "output path (default stdout)"
    samples_help = "dense sample count (at least 1000)"
    config_help = "YAML config file (vehicle/problem sections); --problem avp only"

    p = sub.add_parser("nodes", help="print LGL nodes and weights")
    p.add_argument("--nodes", type=_at_least(2), required=True, metavar="N")
    p.add_argument("--out", help=out_help)

    p = sub.add_parser("envelope-demo",
                       help="random splines vs their Bernstein bounds")
    p.add_argument("--degree", type=_at_least(1), required=True, metavar="M")
    p.add_argument("--count", type=_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_at_least(1000), default=1000, help=samples_help)
    p.add_argument("--out", help=out_help)

    p = sub.add_parser("solve", help="solve one problem with one method")
    p.add_argument("--problem", choices=("academic", "avp"), required=True)
    p.add_argument("--method", default="SOCSE-8",
                   help="method label, e.g. SOCSE-8 (default), SOC-5, MS-50")
    p.add_argument("--config", help=config_help)
    p.add_argument("--samples", type=_at_least(1000), default=1000, help=samples_help)
    p.add_argument("--max-iters", type=_at_least(1), default=MAX_ITERS, dest="max_iters")
    p.add_argument("--out", help=out_help)

    p = sub.add_parser("bench", help="run a benchmark sweep")
    p.add_argument("--problem", choices=("academic", "avp"), required=True)
    p.add_argument("--method", help="comma-separated method labels")
    p.add_argument("--config", help=config_help)
    p.add_argument("--samples", type=_at_least(1000), default=1000, help=samples_help)
    p.add_argument("--max-iters", type=_at_least(1), default=MAX_ITERS, dest="max_iters")
    p.add_argument("--out", help=out_help)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--skip-reference", action="store_true",
                   help="skip the fine-grid reference solve (cost_dev_pct, ctrl_dev = NaN)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[ns.subcommand](ns)
    except (ValueError, DomainError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
