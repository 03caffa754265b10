"""Legendre polynomial bases, LGL grids with quadrature weights, and spline evaluation.

Everything here lives on the reference interval [-1, 1].  A trajectory channel
is represented as a Legendre series ``x(tau) = alpha^T @ L @ v(tau)`` where
``L`` stacks the monomial coefficients of the Legendre polynomials row-wise
(row j holds the coefficients of the degree-j polynomial, so columns beyond j
are zero) and ``v(tau) = [1, tau, ..., tau^M]``.  The tables are plain arrays:
``L`` is (M+1, M+1), so functions that take it read the degree from its shape.

Monomial-basis coefficients are exact small rationals stored as floats, which
is well-conditioned for the degrees used here (M <= ~15; operations accept up
to 32 but conditioning degrades beyond that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError

MAX_DEGREE = 32

_TAU_SLACK = 1e-12


@dataclass(frozen=True)
class TimeMap:
    """Affine map between physical time [t0, tf] and the reference interval."""

    t0: float
    tf: float

    def __post_init__(self):
        for name in ("t0", "tf"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.tf > self.t0:
            raise ValueError(f"tf must exceed t0, got [{self.t0}, {self.tf}]")

    def to_reference(self, t):
        return 2.0 * (np.asarray(t) - self.t0) / (self.tf - self.t0) - 1.0

    def scale(self) -> float:
        """d(t)/d(tau): multiplies reference-time integrals and divides derivatives."""
        return 0.5 * (self.tf - self.t0)


def legendre_coeffs(k: int) -> np.ndarray:
    """Monomial coefficients of the degree-k Legendre polynomial, lowest power first.

    Computed by the Bonnet three-term recurrence
    ``(j+1) P_{j+1} = (2j+1) tau P_j - j P_{j-1}``,
    which is numerically benign for the degrees used here.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    if k > MAX_DEGREE:
        raise ValueError(f"degree capped at {MAX_DEGREE}; the monomial "
                         "representation is too ill-conditioned beyond that")
    prev = np.array([1.0])
    if k == 0:
        return prev
    cur = np.array([0.0, 1.0])
    for j in range(1, k):
        nxt = np.zeros(j + 2)
        nxt[1:] = (2 * j + 1) * cur
        nxt[: j] -= j * prev
        nxt /= j + 1
        prev, cur = cur, nxt
    return cur


def basis_matrix(M: int) -> np.ndarray:
    """``L``: ``legendre_coeffs(0..M)`` stacked row-wise, zero-padded to M+1 columns."""
    if M < 0:
        raise ValueError("degree must be non-negative")
    L = np.zeros((M + 1, M + 1))
    for j in range(M + 1):
        c = legendre_coeffs(j)
        L[j, : c.size] = c
    return L


def _legendre_value_derivs(n: int, x: np.ndarray):
    """P_n, P_n' and P_n'' at points x via the value recurrence."""
    p0 = np.ones_like(x)
    d0 = np.zeros_like(x)
    s0 = np.zeros_like(x)
    if n == 0:
        return p0, d0, s0
    p1, d1, s1 = x.copy(), np.ones_like(x), np.zeros_like(x)
    for j in range(2, n + 1):
        a = (2 * j - 1) / j
        b = (j - 1) / j
        p2 = a * x * p1 - b * p0
        d2 = a * (p1 + x * d1) - b * d0
        s2 = a * (2 * d1 + x * s1) - b * s0
        p0, d0, s0 = p1, d1, s1
        p1, d1, s1 = p2, d2, s2
    return p1, d1, s1


def lgl_grid(N: int):
    """Legendre-Gauss-Lobatto ``(nodes, weights)`` for N points, nodes ascending.

    Nodes are the endpoints plus the roots of P'_{N-1}, found by Newton
    iteration from Chebyshev-point initial guesses.  Weights are
    ``2/(N(N-1))`` at the endpoints and ``2/(N(N-1) P_{N-1}(tau)^2)`` inside;
    the squared denominator is required for the weights to sum to 2.
    """
    if N < 2:
        raise ValueError("an LGL grid needs at least the two endpoints")
    if N > MAX_DEGREE + 1:
        raise ValueError(f"node count capped at {MAX_DEGREE + 1}")
    nodes = np.empty(N)
    nodes[0], nodes[-1] = -1.0, 1.0
    if N > 2:
        # Interior roots of P'_{N-1}; Chebyshev guesses, ascending order.
        x = np.cos(np.pi * np.arange(N - 2, 0, -1) / (N - 1))
        converged = False
        for _ in range(100):
            _, d, s = _legendre_value_derivs(N - 1, x)
            step = d / s
            x = x - step
            if np.max(np.abs(d)) <= 1e-14 or np.max(np.abs(step)) < 1e-16:
                converged = True
                break
        _, d, _ = _legendre_value_derivs(N - 1, x)
        if not converged and np.max(np.abs(d)) > 1e-13:
            raise NonConvergenceError(
                f"Newton iteration on dP_{N-1}/dtau left residual {np.max(np.abs(d)):.3e}"
            )
        # Enforce the exact symmetry of the grid.
        x = 0.5 * (x - x[::-1])
        nodes[1:-1] = x
    p, _, _ = _legendre_value_derivs(N - 1, nodes)
    weights = 2.0 / (N * (N - 1) * p ** 2)
    weights[0] = weights[-1] = 2.0 / (N * (N - 1))
    return nodes, weights


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if abs(tau) > 1.0 + _TAU_SLACK:
        raise DomainError(f"tau={tau} outside [-1, 1]")
    return tau


def _monomial_vector(M: int, tau: float) -> np.ndarray:
    return np.power(float(tau), np.arange(M + 1))


def _monomial_deriv_vector(M: int, tau: float) -> np.ndarray:
    v = np.zeros(M + 1)
    k = np.arange(1, M + 1)
    v[1:] = k * np.power(float(tau), k - 1)
    return v


def eval_spline(alpha: np.ndarray, L: np.ndarray, tau: float) -> np.ndarray:
    """Evaluate ``alpha^T L v(tau)`` for an (M+1, d) coefficient matrix."""
    M = L.shape[0] - 1
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float).reshape(M + 1, -1))
    tau = _check_tau(tau)
    return alpha.T @ (L @ _monomial_vector(M, tau))


def spline_samples(alpha: np.ndarray, L: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Vectorized evaluation at many taus; returns (len(taus), d).

    The monomial coefficients ``L^T alpha`` are evaluated by Horner's rule
    elementwise, so each row depends only on its own tau: sampling many points
    at once gives bitwise the values of sampling them one at a time.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.size and np.max(np.abs(taus)) > 1.0 + _TAU_SLACK:
        raise DomainError("sample points outside [-1, 1]")
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float).reshape(L.shape[0], -1))
    C = L.T @ alpha
    out = np.empty((C.shape[1], taus.size))   # channel-major, so each pass is contiguous
    out[:] = C[-1][:, None]
    for c in C[-2::-1]:
        out *= taus
        out += c[:, None]
    return out.T


def legendre_values(L: np.ndarray, tau: float) -> np.ndarray:
    """Vector [P_0(tau), ..., P_M(tau)]."""
    return L @ _monomial_vector(L.shape[0] - 1, _check_tau(tau))


def legendre_deriv_values(L: np.ndarray, tau: float) -> np.ndarray:
    """Vector [P_0'(tau), ..., P_M'(tau)]."""
    return L @ _monomial_deriv_vector(L.shape[0] - 1, _check_tau(tau))
