"""Bernstein-form convex envelope of a Legendre-spline.

A degree-M polynomial written in the Bernstein basis on [0, 1] lies inside
the convex hull of its Bernstein control values.  For a Legendre series on
[-1, 1] the chain

    monomial coeffs on [0,1]:  a = E^T L^T alpha      (tau = 2*tau_* - 1)
    Bernstein control values:  p = B a = C alpha

turns the per-channel range bound into the linear map ``C = B E^T L^T``,
computed once per degree.  ``min(p) <= x(tau) <= max(p)`` for all tau in
[-1, 1]; the bound is exact for affine splines and whenever the extreme
control value sits at an endpoint index.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .polynomial import LegendreBasisMatrix


@dataclass(frozen=True)
class EnvelopeMatrices:
    M: int
    C: np.ndarray


def bernstein_matrix(M: int) -> np.ndarray:
    """Map monomial coefficients on [0, 1] to Bernstein control values.

    Entry (j, k) is C(j,k)/C(M,k), zero for k > j; row 0 and row M recover
    P(0) and P(1) exactly.
    """
    if M < 0:
        raise ValueError("degree must be non-negative")
    B = np.zeros((M + 1, M + 1))
    for j in range(M + 1):
        for k in range(j + 1):
            B[j, k] = comb(j, k) / comb(M, k)
    return B


def binomial_shift_matrix(M: int) -> np.ndarray:
    """Expansion of powers of ``tau = 2*tau_* - 1`` in powers of ``tau_*``.

    Row m holds the coefficients of (2*tau_* - 1)^m, i.e. entry (m, r) is
    C(m,r) (-1)^(m-r) 2^r; entries above the diagonal vanish.
    """
    if M < 0:
        raise ValueError("degree must be non-negative")
    E = np.zeros((M + 1, M + 1))
    for m in range(M + 1):
        for r in range(m + 1):
            E[m, r] = comb(m, r) * (-1.0) ** (m - r) * 2.0 ** r
    return E


def envelope_matrix(M: int, basis: LegendreBasisMatrix) -> EnvelopeMatrices:
    """Compose C = B @ E^T @ L^T for Legendre coefficients on [-1, 1]."""
    if basis.M != M:
        raise ValueError(f"basis degree {basis.M} does not match M={M}")
    C = bernstein_matrix(M) @ binomial_shift_matrix(M).T @ basis.L.T
    return EnvelopeMatrices(M=M, C=C)


def control_values(alpha: np.ndarray, env: EnvelopeMatrices) -> np.ndarray:
    """Bernstein control values C @ alpha, one column per channel."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float).reshape(env.M + 1, -1))
    return env.C @ alpha


def spline_bounds(alpha: np.ndarray, env: EnvelopeMatrices):
    """Per-channel (lower, upper) envelope bounds of the spline over [-1, 1]."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != env.M + 1:
        raise ValueError(
            f"coefficient rows {alpha.shape[0]} do not match degree M={env.M}"
        )
    p = control_values(alpha, env)
    return p.min(axis=0), p.max(axis=0)
