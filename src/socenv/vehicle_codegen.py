"""Generator of ``vehicle_model.py``: the fused vehicle model derived in sympy
and printed as plain-float math-module Python.

    python src/socenv/vehicle_codegen.py

rewrites ``src/socenv/vehicle_model.py``. Run it after any change to the
derivation below and commit the result. It runs as a plain script, so it
works even when the package cannot be imported because the generated module
is stale or missing. This is the only module of the package that imports
sympy; the solver imports the generated file, so it never derives or
compiles the model at run time.

The 11 physical parameters of ``VehicleParams`` (mass through v_eps) are
symbols, so one generated file serves every parameter set.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import sympy as sp
from sympy.printing.pycode import PythonCodePrinter

# Not imported from vehicle, which imports the generated module this rewrites.
N_STATES = 10
N_INPUTS = 2

TARGET = Path(__file__).with_name("vehicle_model.py")

# The VehicleParams fields the model depends on, in argument order.
PARAMS = ("mass", "inertia_z", "l_f", "l_r", "c_alpha_f", "c_alpha_r", "a_max",
          "drive_split", "roll_resist", "drag_coeff", "v_eps")

HEADER = '''"""The fused single-track vehicle model, generated by socenv.vehicle_codegen.

Do not edit: change the derivation in ``vehicle_codegen.py`` and regenerate,
from the repository root, with

    python src/socenv/vehicle_codegen.py

Every function takes and returns plain floats; a structural zero comes back as
the int 0. The arguments are the state vx, vy, r, s, w, th, wp, thp, dl, tr,
the input u1 (t_r rate) and u2 (steering rate), the curvature kap, the fusion
weight lam, and last the physical parameters of ``VehicleParams`` named in
``PARAMS``.

* ``f(*x, *u, kap, lam, *params)``: the 10 state derivatives.
* ``jac(*x, *u, kap, lam, dkap, *params)``: df/dx (10x10) then df/du (10x2),
  each row by row, with df/dkap * dkap (dkap = dkappa/ds) added to the
  s-column.
* ``hess(*x, *u, kap, lam, dkap, *mult, *params)``: the upper triangle of the
  Hessian over (x, u) of mult' f, row by row, with kappa'' taken as 0.
"""

from math import {imports}

{params}


'''


def symbolic_model():
    """The fused model as sympy expressions: (arguments, f, [df/dx df/du]).

    The arguments are [*x, *u, kappa, lambda, dkappa/ds, *params]; f does not
    depend on dkappa/ds. The (10, 12) Jacobian has df/dkappa * dkappa/ds added
    to its s-column, because kappa_c depends on s.
    """
    (mass, iz, lf, lr, caf, car, a_max, split, c0, c2, eps) = params = sp.symbols(
        PARAMS, real=True)
    vx, vy, r, s, w, th, wp, thp, dl, tr = sp.symbols(
        "vx vy r s w th wp thp dl tr", real=True)
    u1, u2 = sp.symbols("u1 u2", real=True)   # u = [t_r_dot, delta_dot]
    kap, dkap, lam = sp.symbols("kap dkap lam", real=True)

    x_syms = [vx, vy, r, s, w, th, wp, thp, dl, tr]
    u_syms = [u1, u2]

    vxg = sp.sqrt(vx ** 2 + eps ** 2)
    f_res = c0 * sp.tanh(vx / eps) + c2 * vx * vxg
    fx_tot = tr * mass * a_max
    fxf, fxr = split * fx_tot, (1 - split) * fx_tot
    alpha_f = dl - sp.atan((vy + lf * r) / vxg)
    alpha_r = -sp.atan((vy - lr * r) / vxg)
    fyf, fyr = caf * alpha_f, car * alpha_r

    sdot = (vx * sp.cos(th) - vy * sp.sin(th)) / (1 - kap * w)
    f_dyn = sp.Matrix([
        (fxf * sp.cos(dl) + fxr - fyf * sp.sin(dl) - f_res + mass * r * vy) / mass,
        (fxf * sp.sin(dl) + fyr + fyf * sp.cos(dl) - mass * r * vx) / mass,
        (lf * (fyf * sp.cos(dl) + fxf * sp.sin(dl)) - lr * fyr) / iz,
        sdot,
        vx * sp.sin(th) + vy * sp.cos(th),
        r - kap * sdot,
        vx * sp.sin(thp) + vy * sp.cos(thp),
        r,
        u2,
        u1,
    ])

    length = lf + lr
    ax = (fx_tot - f_res) / mass
    steer_rate_term = ax * sp.tan(dl) + vx * u2 / sp.cos(dl) ** 2
    psidot_k = vx * sp.tan(dl) / length
    f_kin = sp.Matrix([
        ax,
        (lr / length) * steer_rate_term,
        steer_rate_term / length,
        sdot,
        vx * sp.sin(th) + vy * sp.cos(th),
        psidot_k - kap * sdot,
        vx * sp.sin(thp) + vy * sp.cos(thp),
        psidot_k,
        u2,
        u1,
    ])

    f = lam * f_dyn + (1 - lam) * f_kin
    jac_x = f.jacobian(x_syms)
    jac_x[:, 3] += f.diff(kap) * dkap
    args = x_syms + u_syms + [kap, lam, dkap] + list(params)
    return args, f, jac_x.row_join(f.jacobian(u_syms))


def hessian_entries(args, jac) -> list:
    """The upper triangle of the Hessian of mult' f over (x, u), row by row.

    Entry (a, b) is sum_i mult_i D_b J[i, a] over the Jacobian rows, with
    D_s = d/ds + kappa' d/dkappa and kappa'' = 0, and any other D_b the plain
    partial derivative. Returns the multiplier symbols and the entries.
    """
    xu, kap, dkap = args[:N_STATES + N_INPUTS], args[12], args[14]
    mult = sp.symbols(f"m0:{N_STATES}", real=True)

    def total_derivative(expr, b):
        out = expr.diff(xu[b])
        return out + dkap * expr.diff(kap) if b == 3 else out

    entries = []
    for a in range(N_STATES + N_INPUTS):
        for b in range(a, N_STATES + N_INPUTS):
            terms = [mult[i] * total_derivative(jac[i, a], b)
                     for i in range(N_STATES) if jac[i, a] != 0]
            entries.append(sp.Add(*terms))
    return list(mult), entries


def wrapped(line: str, indent: int) -> str:
    """``line`` broken at spaces into lines of at most 79 characters."""
    return "\n".join(textwrap.wrap(line, 79, subsequent_indent=" " * indent))


def function_source(name: str, args: list, exprs: list, printer) -> str:
    """One Python function returning ``exprs`` as a list, common subexpressions shared."""
    common, reduced = sp.cse(exprs, symbols=sp.numbered_symbols("t"))
    lines = [wrapped(f"def {name}({', '.join(map(str, args))}):", len(name) + 5)]
    lines += [f"    {sym} = {printer.doprint(expr)}" for sym, expr in common]
    lines.append("    return [")
    lines += [f"        {printer.doprint(expr)}," for expr in reduced]
    lines.append("    ]")
    return "\n".join(lines) + "\n"


def generate() -> str:
    """The source text of ``vehicle_model.py``."""
    args, f, jac = symbolic_model()
    mult, hess = hessian_entries(args, jac)
    x_u_kap_lam, dkap, params = args[:14], args[14], args[15:]
    # The model is called one point at a time (RK4 stages, collocation nodes):
    # plain floats through the math module cost a third of a numpy evaluation.
    printer = PythonCodePrinter({"fully_qualified_modules": False})
    functions = [
        function_source("f", x_u_kap_lam + params, list(f), printer),
        function_source("jac", x_u_kap_lam + [dkap] + params,
                        list(jac[:, :N_STATES]) + list(jac[:, N_STATES:]), printer),
        function_source("hess", x_u_kap_lam + [dkap] + mult + params, hess, printer),
    ]
    header = HEADER.format(params=wrapped(f"PARAMS = {PARAMS!r}", 10),
                           imports=", ".join(sorted(printer.module_imports["math"])))
    return header + "\n\n".join(functions)


def main():
    TARGET.write_text(generate())
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
