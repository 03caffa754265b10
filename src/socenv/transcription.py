"""Transcribe a continuous OCP into a finite dense NLP.

Two routes are provided:

* ``transcribe`` -- Legendre-spline collocation on an LGL grid.  In ``socse``
  mode the Bernstein envelope rows bound every state/control channel over the
  whole interval (the safety-envelope scheme); in ``soc`` mode the box
  constraints are imposed only at the collocation nodes (the classic
  node-only scheme; ``pseudospectral`` mode is this with N = M + 1 nodes, the
  Lagrange-equivalent choice).
* ``transcribe_multiple_shooting`` -- RK4 multiple shooting with
  piecewise-constant controls, ``MS_SUBSTEPS`` RK4 steps per interval.

The stage-cost integral is evaluated as the full quadrature sum over all N
nodes plus the terminal cost at the right endpoint; the terminal cost is not
scaled by the time map.  Both routes supply the objective gradient, the
equality Jacobian and the Lagrangian Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .envelope import envelope_matrix, spline_bounds
from .errors import DofViolationError, LayoutError
from .integrators import rk4_step, rk4_step_jacobians
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
MS_SUBSTEPS = 2   # RK4 steps per multiple-shooting interval


@dataclass(frozen=True)
class CollocationConfig:
    """Spline degree M and constraint mode; the node count N follows from them."""

    M: int
    mode: str = "socse"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.M < 1:
            raise ValueError("spline degree must be at least 1")
        if self.N < 2:
            raise ValueError("need at least 2 collocation nodes")

    @property
    def N(self) -> int:
        """Collocation nodes: M + 1 for pseudospectral, M otherwise."""
        return self.M + 1 if self.mode == "pseudospectral" else self.M

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
    """Dense NLP: smooth objective, nonlinear equalities, linear two-sided inequalities.

    The gradient, the equality Jacobian and ``hessian(z, lam)`` are required.
    ``hessian`` is the Hessian of the Lagrangian f + lam' c at the equality
    multipliers ``lam``, or only its objective part where the constraint
    curvature is not formed: the solver floors its eigenvalues and uses it at
    every accepted point.

    ``free_control_direction`` is set by collocation on N = M nodes: the
    Legendre coefficients of P(tau) = prod_k (tau - tau_k).  Added to a control
    channel's coefficients, P changes no node value, so no cost term, no
    collocation row and no node row sees it (see ``analysis.canonical_point``).
    """

    n_vars: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    eq_fun: Callable[[np.ndarray], np.ndarray]
    eq_jac: Callable[[np.ndarray], np.ndarray]
    A_ineq: np.ndarray
    ineq_lower: np.ndarray
    ineq_upper: np.ndarray
    ineq_fun: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ineq_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    layout: object = None
    free_control_direction: Optional[np.ndarray] = None


@dataclass
class SplineSolution:
    """Decoded spline trajectory with envelope bounds and dense evaluation.

    The basis ``L`` and the envelope follow from the coefficient count.
    """

    alpha_x: np.ndarray      # (M+1, n_x)
    alpha_u: np.ndarray      # (M+1, n_u)
    time_map: TimeMap
    L: np.ndarray = field(init=False)
    x_bounds: tuple = field(init=False)
    u_bounds: tuple = field(init=False)

    def __post_init__(self):
        self.L = basis_matrix(self.alpha_x.shape[0] - 1)
        C = envelope_matrix(self.L)
        self.x_bounds = spline_bounds(self.alpha_x, C)
        self.u_bounds = spline_bounds(self.alpha_u, C)

    def _eval(self, alpha, t):
        """Spline values at physical times; t outside [t0, tf] clamps to the ends."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        tau = np.clip(self.time_map.to_reference(t), -1.0, 1.0)
        return spline_samples(alpha, self.L, tau)

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
    """Collocation NLP; box rows are envelope rows or node rows by ``cfg.mode``.

    Each collocation row is a node's basis row times the model's derivative,
    so the Jacobian, the Hessian and the box rows are Kronecker products of
    the basis tables with stacked model derivatives, and the OCP callbacks
    are the only per-node work.  The Hessian is the Lagrangian's: node k
    contributes phi_k phi_k' (x) scale * (w_k * l'' - d2(lam_k' f)), where
    lam_k are the multipliers of its collocation rows; a terminal cost adds
    d2(phi) (x) phi_end phi_end' to the state block.
    """
    _check_dof(ocp, cfg)
    layout = SplineLayout(M=cfg.M, n_x=ocp.n_x, n_u=ocp.n_u)
    L = basis_matrix(cfg.M)
    nodes, w = lgl_grid(cfg.N)
    scale = TimeMap(ocp.t0, ocp.tf).scale()

    # LGL grids contain tau = -1 and +1, so rows 0 and N-1 are the endpoint values.
    phi_nodes = np.stack([legendre_values(L, t) for t in nodes])       # (N, M+1)
    dphi_nodes = np.stack([legendre_deriv_values(L, t) for t in nodes])

    n_x, n_c = ocp.n_x, ocp.n_x + ocp.n_u
    n_xz = n_x * layout.rows    # state coefficients lead the decision vector

    def node_values(z):
        ax, au = layout.decode(z)
        return ax, phi_nodes @ ax, phi_nodes @ au   # (M+1, n_x), (N, n_x), (N, n_u)

    def objective(z):
        ax, X, U = node_values(z)
        stage = np.array([ocp.stage_cost(x, u) for x, u in zip(X, U)])
        total = scale * float(w @ stage)
        if ocp.terminal_cost is not None:
            total += float(ocp.terminal_cost(phi_nodes[-1] @ ax))
        return total

    def gradient(z):
        ax, X, U = node_values(z)
        G = np.array([np.concatenate(ocp.stage_cost_grad(x, u)) for x, u in zip(X, U)])
        g = scale * (phi_nodes.T @ (w[:, None] * G)).T.ravel()
        if ocp.terminal_cost is not None:
            gphi = ocp.terminal_cost_grad(phi_nodes[-1] @ ax)
            g[:n_xz] += np.outer(gphi, phi_nodes[-1]).ravel()
        return g

    phi_outer = phi_nodes[:, :, None] * phi_nodes[:, None, :]   # (N, M+1, M+1)

    def hessian(z, lam):
        ax, X, U = node_values(z)
        Hl = np.array([np.block([[lxx, lxu], [lxu.T, luu]])
                       for lxx, lxu, luu in map(ocp.stage_cost_hess, X, U)])
        # The collocation rows are dphi_k' alpha - scale * f(X_k, U_k).
        Hf = np.array([ocp.dynamics_hessian(x, u, m) for x, u, m in
                       zip(X, U, np.asarray(lam)[n_x:].reshape(-1, n_x))])
        H = np.tensordot(scale * (w[:, None, None] * Hl - Hf), phi_outer, axes=(0, 0))
        H = H.transpose(0, 2, 1, 3).reshape(layout.n_vars, layout.n_vars)
        if ocp.terminal_cost is not None:
            H[:n_xz, :n_xz] += np.kron(ocp.terminal_cost_hess(phi_nodes[-1] @ ax), phi_outer[-1])
        return H

    def eq_fun(z):
        ax, X, U = node_values(z)
        F = np.array([ocp.dynamics(x, u) for x, u in zip(X, U)])
        return np.concatenate([phi_nodes[0] @ ax - ocp.x0, (dphi_nodes @ ax - scale * F).ravel()])

    fx_fun, fu_fun = ocp.dynamics_jacobians
    eye = np.eye(n_x, n_c)
    J_start = np.kron(eye, phi_nodes[0])
    dX_dz = eye[None, :, :, None] * dphi_nodes[:, None, None, :]   # (N, n_x, n_c, M+1)

    def eq_jac(z):
        _, X, U = node_values(z)
        F = scale * np.array([np.hstack([fx_fun(x, u), fu_fun(x, u)]) for x, u in zip(X, U)])
        J_nodes = dX_dz - F[..., None] * phi_nodes[:, None, None, :]
        return np.vstack([J_start, J_nodes.reshape(-1, layout.n_vars)])

    # Linear inequality rows: envelope per channel (socse) or node values (soc).
    blk = phi_nodes if cfg.node_only else envelope_matrix(L)
    k = blk.shape[0]
    A = np.kron(np.eye(n_c), blk)
    lo = np.repeat(np.concatenate([ocp.x_lower, ocp.u_lower]), k)
    hi = np.repeat(np.concatenate([ocp.x_upper, ocp.u_upper]), k)

    ineq_fun = ineq_jac = None
    if ocp.terminal_constraint is not None:
        def ineq_fun(z):
            ax, _ = layout.decode(z)
            return np.atleast_1d(ocp.terminal_constraint(phi_nodes[-1] @ ax))

    free = None
    if cfg.N == cfg.M:
        # Imported on first use: numpy.polynomial adds ~5 ms to `import socenv`.
        from numpy.polynomial.legendre import legfromroots
        free = legfromroots(nodes)

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
        free_control_direction=free,
    )


def transcribe_multiple_shooting(ocp: OcpProblem, steps: int) -> NlpProblem:
    """RK4 multiple-shooting NLP with piecewise-constant controls on ``steps`` intervals.

    Each interval's state map is ``MS_SUBSTEPS`` RK4 steps.  The Hessian is
    the objective's only, terminal cost included, and ignores the
    multipliers: the second derivatives of the RK4 map are not formed.
    """
    if steps < 1:
        raise ValueError("need at least one shooting interval")
    layout = MsLayout(n_x=ocp.n_x, n_u=ocp.n_u, K=steps)
    n_x, n_u, K = ocp.n_x, ocp.n_u, steps
    dt = (ocp.tf - ocp.t0) / K
    h = dt / MS_SUBSTEPS

    fx_fun, fu_fun = ocp.dynamics_jacobians

    def step_map(x, u):
        for _ in range(MS_SUBSTEPS):
            x = rk4_step(ocp.dynamics, x, u, h)
        return x

    def step_map_jac(x, u):
        jx = np.eye(n_x)
        ju = np.zeros((n_x, n_u))
        for _ in range(MS_SUBSTEPS):
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

    def hessian(z, lam):
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
        if ocp.terminal_cost is not None:
            H[K * n_x:off, K * n_x:off] += ocp.terminal_cost_hess(X[K])
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
    )


def decode(z: np.ndarray, nlp: NlpProblem, time_map: TimeMap) -> SplineSolution:
    """Unpack a collocation NLP solution into an evaluable spline trajectory."""
    layout = nlp.layout
    if not isinstance(layout, SplineLayout):
        raise LayoutError("decode expects a collocation NLP")
    alpha_x, alpha_u = layout.decode(z)
    return SplineSolution(alpha_x=alpha_x, alpha_u=alpha_u, time_map=time_map)
