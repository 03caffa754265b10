"""Transcribe a continuous OCP into a finite dense NLP.

Two routes are provided:

* ``transcribe`` -- Legendre-spline collocation on an LGL grid.  In ``socse``
  mode the Bernstein envelope rows bound every state/control channel over the
  whole interval (the safety-envelope scheme); in ``soc`` mode the box
  constraints are imposed only at the collocation nodes (the classic
  node-only scheme; ``pseudospectral`` mode is this with N = M + 1 nodes, the
  Lagrange-equivalent choice).
* ``transcribe_multiple_shooting`` -- RK4 multiple shooting with
  piecewise-constant controls.

The stage-cost integral is evaluated as the full quadrature sum over all N
nodes plus the terminal cost at the right endpoint; the terminal cost is not
scaled by the time map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .envelope import EnvelopeMatrices, envelope_matrix, spline_bounds
from .errors import DofViolationError, LayoutError
from .integrators import fd_dynamics_jacobians, rk4_step, rk4_step_jacobians
from .ocp import OcpProblem
from .polynomial import (
    TimeMap,
    basis_matrix,
    legendre_deriv_values,
    legendre_values,
    lgl_grid,
    spline_samples,
)

MODES = ("socse", "soc", "pseudospectral")


@dataclass(frozen=True)
class CollocationConfig:
    """Spline degree M, collocation node count N and constraint mode.

    ``N=None`` picks the default: N = M for socse/soc, N = M + 1 for
    pseudospectral.
    """

    M: int
    N: Optional[int] = None
    mode: str = "socse"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.M < 1:
            raise ValueError("spline degree must be at least 1")
        if self.N is None:
            object.__setattr__(self, "N", self.M + 1 if self.mode == "pseudospectral" else self.M)
        if self.N < 2:
            raise ValueError("need at least 2 collocation nodes")

    @property
    def node_only(self) -> bool:
        return self.mode in ("soc", "pseudospectral")


@dataclass(frozen=True)
class SplineLayout:
    """Maps the flat decision vector to the (M+1, n_x) and (M+1, n_u) coefficient matrices.

    The state channels come first, then the control channels, each as M+1
    contiguous Legendre coefficients.
    """

    M: int
    n_x: int
    n_u: int

    @property
    def rows(self) -> int:
        return self.M + 1

    @property
    def n_vars(self) -> int:
        return self.rows * (self.n_x + self.n_u)

    def x_slice(self, channel: int) -> slice:
        start = channel * self.rows
        return slice(start, start + self.rows)

    def u_slice(self, channel: int) -> slice:
        start = (self.n_x + channel) * self.rows
        return slice(start, start + self.rows)

    def decode(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n_vars,):
            raise LayoutError(f"expected {self.n_vars} variables, got {z.shape}")
        split = self.rows * self.n_x
        return (z[:split].reshape(self.n_x, self.rows).T.copy(),
                z[split:].reshape(self.n_u, self.rows).T.copy())

    def encode(self, alpha_x, alpha_u) -> np.ndarray:
        alpha_x = np.asarray(alpha_x, dtype=float)
        alpha_u = np.asarray(alpha_u, dtype=float)
        if alpha_x.shape != (self.rows, self.n_x) or alpha_u.shape != (self.rows, self.n_u):
            raise LayoutError("coefficient matrices do not match the layout")
        return np.concatenate([alpha_x.T.ravel(), alpha_u.T.ravel()])


@dataclass(frozen=True)
class MsLayout:
    """Multiple-shooting layout: node states then interval controls."""

    n_x: int
    n_u: int
    K: int

    @property
    def n_vars(self) -> int:
        return (self.K + 1) * self.n_x + self.K * self.n_u

    def states(self, z: np.ndarray) -> np.ndarray:
        return z[: (self.K + 1) * self.n_x].reshape(self.K + 1, self.n_x)

    def controls(self, z: np.ndarray) -> np.ndarray:
        return z[(self.K + 1) * self.n_x:].reshape(self.K, self.n_u)


@dataclass
class NlpProblem:
    """Dense NLP: smooth objective, nonlinear equalities, linear two-sided inequalities."""

    n_vars: int
    objective: Callable[[np.ndarray], float]
    eq_fun: Callable[[np.ndarray], np.ndarray]
    A_ineq: np.ndarray
    ineq_lower: np.ndarray
    ineq_upper: np.ndarray
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    eq_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ineq_fun: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ineq_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    layout: object = None
    n_eq: int = 0


@dataclass
class SplineSolution:
    """Decoded spline trajectory with envelope bounds and dense evaluation."""

    alpha_x: np.ndarray      # (M+1, n_x)
    alpha_u: np.ndarray      # (M+1, n_u)
    time_map: TimeMap
    basis: object
    env: EnvelopeMatrices
    objective: Optional[float] = None
    x_bounds: tuple = field(init=False)
    u_bounds: tuple = field(init=False)

    def __post_init__(self):
        self.x_bounds = spline_bounds(self.alpha_x, self.env)
        self.u_bounds = spline_bounds(self.alpha_u, self.env)

    def _eval(self, alpha, t):
        """Spline values at physical times; t outside [t0, tf] clamps to the ends."""
        t0, tf = self.time_map.t0, self.time_map.tf
        t = np.atleast_1d(np.asarray(t, dtype=float))
        tau = np.clip(2.0 * (t - t0) / (tf - t0) - 1.0, -1.0, 1.0)
        return spline_samples(alpha, self.basis, tau)

    def x_at(self, t) -> np.ndarray:
        """Dense state evaluation in physical time; (len(t), n_x)."""
        return self._eval(self.alpha_x, t)

    def u_at(self, t) -> np.ndarray:
        return self._eval(self.alpha_u, t)

    def sample_dense(self, n: int):
        t = np.linspace(self.time_map.t0, self.time_map.tf, n)
        return t, self.x_at(t), self.u_at(t)


def _check_dof(ocp: OcpProblem, cfg: CollocationConfig):
    free = (ocp.n_u + ocp.n_x) * (cfg.M + 1)
    rows = ocp.n_x * (cfg.N + 1)
    if free < rows:
        raise DofViolationError(free, rows)


def transcribe(ocp: OcpProblem, cfg: CollocationConfig) -> NlpProblem:
    """Collocation NLP; box rows are envelope rows or node rows by ``cfg.mode``."""
    _check_dof(ocp, cfg)
    layout = SplineLayout(M=cfg.M, n_x=ocp.n_x, n_u=ocp.n_u)
    basis = basis_matrix(cfg.M)
    grid = lgl_grid(cfg.N)
    env = envelope_matrix(cfg.M, basis)
    scale = 0.5 * (ocp.tf - ocp.t0)

    phi_nodes = np.stack([legendre_values(basis, t) for t in grid.nodes])       # (N, M+1)
    dphi_nodes = np.stack([legendre_deriv_values(basis, t) for t in grid.nodes])
    phi_start = legendre_values(basis, -1.0)
    phi_end = legendre_values(basis, 1.0)
    w = grid.weights

    n_x, n_u = ocp.n_x, ocp.n_u
    channels = [layout.x_slice(c) for c in range(n_x)] + [layout.u_slice(c) for c in range(n_u)]

    def node_values(ax, au):
        return phi_nodes @ ax, phi_nodes @ au   # (N, n_x), (N, n_u)

    def objective(z):
        ax, au = layout.decode(z)
        X, U = node_values(ax, au)
        stage = np.array([ocp.stage_cost(X[i], U[i]) for i in range(cfg.N)])
        total = scale * float(w @ stage)
        if ocp.terminal_cost is not None:
            total += float(ocp.terminal_cost(phi_end @ ax))
        return total

    gradient = None
    if ocp.stage_cost_grad is not None and (
            ocp.terminal_cost is None or ocp.terminal_cost_grad is not None):
        def gradient(z):
            ax, au = layout.decode(z)
            X, U = node_values(ax, au)
            gx_nodes = np.zeros((cfg.N, n_x))
            gu_nodes = np.zeros((cfg.N, n_u))
            for i in range(cfg.N):
                gx_nodes[i], gu_nodes[i] = ocp.stage_cost_grad(X[i], U[i])
            g = np.zeros(layout.n_vars)
            for c in range(n_x):
                g[layout.x_slice(c)] += scale * (phi_nodes.T @ (w * gx_nodes[:, c]))
            for c in range(n_u):
                g[layout.u_slice(c)] += scale * (phi_nodes.T @ (w * gu_nodes[:, c]))
            if ocp.terminal_cost is not None:
                gphi = ocp.terminal_cost_grad(phi_end @ ax)
                for c in range(n_x):
                    g[layout.x_slice(c)] += gphi[c] * phi_end
            return g

    hessian = None
    if ocp.stage_cost_hess is not None and ocp.terminal_cost is None:
        def hessian(z):
            ax, au = layout.decode(z)
            X, U = node_values(ax, au)
            H = np.zeros((layout.n_vars, layout.n_vars))
            for i in range(cfg.N):
                lxx, lxu, luu = ocp.stage_cost_hess(X[i], U[i])
                Hl = np.block([[lxx, lxu], [lxu.T, luu]])
                op = scale * w[i] * np.outer(phi_nodes[i], phi_nodes[i])
                for a in range(n_x + n_u):
                    for b in range(n_x + n_u):
                        if Hl[a, b] != 0.0:
                            H[channels[a], channels[b]] += Hl[a, b] * op
            return H

    n_eq = n_x * (1 + cfg.N)

    def eq_fun(z):
        ax, au = layout.decode(z)
        X, U = node_values(ax, au)
        dX = dphi_nodes @ ax
        out = np.empty(n_eq)
        out[:n_x] = phi_start @ ax - ocp.x0
        for i in range(cfg.N):
            out[n_x * (i + 1):n_x * (i + 2)] = dX[i] - scale * ocp.dynamics(X[i], U[i])
        return out

    eq_jac = None
    if ocp.dynamics_jacobians is not None:
        fx_fun, fu_fun = ocp.dynamics_jacobians

        def eq_jac(z):
            ax, au = layout.decode(z)
            X, U = node_values(ax, au)
            J = np.zeros((n_eq, layout.n_vars))
            for c in range(n_x):
                J[c, layout.x_slice(c)] = phi_start
            for i in range(cfg.N):
                fx = fx_fun(X[i], U[i])
                fu = fu_fun(X[i], U[i])
                pos = n_x * (i + 1)
                for r in range(n_x):
                    J[pos + r, layout.x_slice(r)] += dphi_nodes[i]
                    for c in range(n_x):
                        J[pos + r, layout.x_slice(c)] -= scale * fx[r, c] * phi_nodes[i]
                    for c in range(n_u):
                        J[pos + r, layout.u_slice(c)] -= scale * fu[r, c] * phi_nodes[i]
            return J

    # Linear inequality rows: envelope per channel (socse) or node values (soc).
    blk = phi_nodes if cfg.node_only else env.C
    k = blk.shape[0]
    A = np.zeros((k * len(channels), layout.n_vars))
    for j, cols in enumerate(channels):
        A[j * k:(j + 1) * k, cols] = blk
    lo = np.repeat(np.concatenate([ocp.x_lower, ocp.u_lower]), k)
    hi = np.repeat(np.concatenate([ocp.x_upper, ocp.u_upper]), k)

    ineq_fun = ineq_jac = None
    if ocp.terminal_constraint is not None:
        def ineq_fun(z):
            ax, _ = layout.decode(z)
            return np.atleast_1d(ocp.terminal_constraint(phi_end @ ax))

    return NlpProblem(
        n_vars=layout.n_vars,
        objective=objective,
        gradient=gradient,
        eq_fun=eq_fun,
        eq_jac=eq_jac,
        A_ineq=A,
        ineq_lower=lo,
        ineq_upper=hi,
        ineq_fun=ineq_fun,
        ineq_jac=ineq_jac,
        hessian=hessian,
        layout=layout,
        n_eq=n_eq,
    )


def transcribe_multiple_shooting(ocp: OcpProblem, steps: int,
                                 substeps: int = 1) -> NlpProblem:
    """RK4 multiple-shooting NLP with piecewise-constant controls."""
    if steps < 1:
        raise ValueError("need at least one shooting interval")
    if substeps < 1:
        raise ValueError("substeps must be positive")
    layout = MsLayout(n_x=ocp.n_x, n_u=ocp.n_u, K=steps)
    n_x, n_u, K = ocp.n_x, ocp.n_u, steps
    dt = (ocp.tf - ocp.t0) / K
    h = dt / substeps

    if ocp.dynamics_jacobians is not None:
        fx_fun, fu_fun = ocp.dynamics_jacobians
    else:
        fx_fun, fu_fun = fd_dynamics_jacobians(ocp.dynamics)

    def step_map(x, u):
        for _ in range(substeps):
            x = rk4_step(ocp.dynamics, x, u, h)
        return x

    def step_map_jac(x, u):
        jx = np.eye(n_x)
        ju = np.zeros((n_x, n_u))
        for _ in range(substeps):
            x, sx, su = rk4_step_jacobians(ocp.dynamics, fx_fun, fu_fun, x, u, h)
            jx = sx @ jx
            ju = sx @ ju + su
        return x, jx, ju

    def objective(z):
        X, U = layout.states(z), layout.controls(z)
        total = sum(ocp.stage_cost(X[k], U[k]) for k in range(K)) * dt
        if ocp.terminal_cost is not None:
            total += float(ocp.terminal_cost(X[K]))
        return float(total)

    gradient = None
    if ocp.stage_cost_grad is not None and (
            ocp.terminal_cost is None or ocp.terminal_cost_grad is not None):
        def gradient(z):
            X, U = layout.states(z), layout.controls(z)
            g = np.zeros(layout.n_vars)
            gx = g[: (K + 1) * n_x].reshape(K + 1, n_x)
            gu = g[(K + 1) * n_x:].reshape(K, n_u)
            for k in range(K):
                lx, lu = ocp.stage_cost_grad(X[k], U[k])
                gx[k] += dt * lx
                gu[k] += dt * lu
            if ocp.terminal_cost is not None:
                gx[K] += ocp.terminal_cost_grad(X[K])
            return g

    hessian = None
    if ocp.stage_cost_hess is not None and ocp.terminal_cost is None:
        def hessian(z):
            X, U = layout.states(z), layout.controls(z)
            H = np.zeros((layout.n_vars, layout.n_vars))
            off = (K + 1) * n_x
            for k in range(K):
                lxx, lxu, luu = ocp.stage_cost_hess(X[k], U[k])
                sx = slice(k * n_x, (k + 1) * n_x)
                su = slice(off + k * n_u, off + (k + 1) * n_u)
                H[sx, sx] += dt * lxx
                H[sx, su] += dt * lxu
                H[su, sx] += dt * lxu.T
                H[su, su] += dt * luu
            return H

    n_eq = n_x * (K + 1)

    def eq_fun(z):
        X, U = layout.states(z), layout.controls(z)
        out = np.empty(n_eq)
        out[:n_x] = X[0] - ocp.x0
        for k in range(K):
            out[(k + 1) * n_x:(k + 2) * n_x] = X[k + 1] - step_map(X[k], U[k])
        return out

    def eq_jac(z):
        X, U = layout.states(z), layout.controls(z)
        J = np.zeros((n_eq, layout.n_vars))
        J[:n_x, :n_x] = np.eye(n_x)
        for k in range(K):
            _, jx, ju = step_map_jac(X[k], U[k])
            r = slice((k + 1) * n_x, (k + 2) * n_x)
            J[r, (k + 1) * n_x:(k + 2) * n_x] = np.eye(n_x)
            J[r, k * n_x:(k + 1) * n_x] = -jx
            J[r, (K + 1) * n_x + k * n_u:(K + 1) * n_x + (k + 1) * n_u] = -ju
        return J

    A = np.eye(layout.n_vars)
    lo = np.concatenate([np.tile(ocp.x_lower, K + 1), np.tile(ocp.u_lower, K)])
    hi = np.concatenate([np.tile(ocp.x_upper, K + 1), np.tile(ocp.u_upper, K)])

    ineq_fun = None
    if ocp.terminal_constraint is not None:
        def ineq_fun(z):
            return np.atleast_1d(ocp.terminal_constraint(layout.states(z)[K]))

    return NlpProblem(
        n_vars=layout.n_vars,
        objective=objective,
        gradient=gradient,
        eq_fun=eq_fun,
        eq_jac=eq_jac,
        A_ineq=A,
        ineq_lower=lo,
        ineq_upper=hi,
        ineq_fun=ineq_fun,
        hessian=hessian,
        layout=layout,
        n_eq=n_eq,
    )


def decode(z: np.ndarray, nlp: NlpProblem, time_map: TimeMap,
           objective: Optional[float] = None) -> SplineSolution:
    """Unpack a collocation NLP solution into an evaluable spline trajectory."""
    layout = nlp.layout
    if not isinstance(layout, SplineLayout):
        raise LayoutError("decode expects a collocation NLP")
    alpha_x, alpha_u = layout.decode(z)
    basis = basis_matrix(layout.M)
    return SplineSolution(
        alpha_x=alpha_x,
        alpha_u=alpha_u,
        time_map=time_map,
        basis=basis,
        env=envelope_matrix(layout.M, basis),
        objective=objective if objective is not None else nlp.objective(z),
    )
