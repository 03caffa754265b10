"""Legendre basis, LGL grid, and quadrature against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from socenv.errors import DomainError
from socenv.polynomial import (MAX_DEGREE, MonomialPoly, TimeMap, basis_matrix,
                               eval_spline, legendre_coeffs,
                               legendre_deriv_values, legendre_values, lgl_grid,
                               spline_samples)


def rodrigues_coeffs(k):
    """Monomial coefficients of P_k via the Rodrigues formula (oracle)."""
    base = nppoly.polypow([-1.0, 0.0, 1.0], k)   # (tau^2 - 1)^k
    for _ in range(k):
        base = nppoly.polyder(base)
    coef = base / (2.0 ** k * float(math.factorial(k)))
    out = np.zeros(k + 1)
    out[: coef.size] = coef
    return out


class TestLegendreCoeffs:
    def test_low_orders(self):
        np.testing.assert_allclose(legendre_coeffs(0).coeffs, [1.0])
        np.testing.assert_allclose(legendre_coeffs(1).coeffs, [0.0, 1.0])
        np.testing.assert_allclose(legendre_coeffs(2).coeffs, [-0.5, 0.0, 1.5])
        np.testing.assert_allclose(legendre_coeffs(3).coeffs, [0.0, -1.5, 0.0, 2.5])

    @pytest.mark.parametrize("k", range(13))
    def test_matches_rodrigues_oracle(self, k):
        np.testing.assert_allclose(legendre_coeffs(k).coeffs, rodrigues_coeffs(k),
                                   rtol=1e-12, atol=1e-12)

    def test_unit_value_at_one(self):
        # Monomial-basis evaluation loses precision at high degree; the bound
        # tracks the conditioning of the representation.
        for k in range(16):
            assert legendre_coeffs(k)(1.0) == pytest.approx(1.0, abs=1e-10)
        for k in range(16, MAX_DEGREE + 1):
            assert legendre_coeffs(k)(1.0) == pytest.approx(1.0, abs=1e-5)

    def test_parity(self):
        p = legendre_coeffs(7)
        assert p(-0.3) == pytest.approx(-p(0.3), abs=1e-14)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            legendre_coeffs(-1)
        with pytest.raises(ValueError):
            legendre_coeffs(MAX_DEGREE + 1)


class TestBasisMatrix:
    @pytest.mark.parametrize("M", [1, 3, 8, 12])
    def test_rows_are_legendre(self, M):
        L = basis_matrix(M).L
        for k in range(M + 1):
            np.testing.assert_allclose(L[k, : k + 1], rodrigues_coeffs(k)[: k + 1],
                                       atol=1e-12)
            np.testing.assert_allclose(L[k, k + 1:], 0.0, atol=0.0)

    @pytest.mark.parametrize("M", [2, 5, 12])
    def test_orthogonality(self, M):
        """int P_i P_j over [-1,1] = 2/(2i+1) delta_ij to 1e-10."""
        L = basis_matrix(M).L
        xs, ws = np.polynomial.legendre.leggauss(2 * M + 2)
        V = np.vander(xs, M + 1, increasing=True)
        P = V @ L.T
        G = P.T @ (ws[:, None] * P)
        expected = np.diag([2.0 / (2 * i + 1) for i in range(M + 1)])
        np.testing.assert_allclose(G, expected, atol=1e-10)


class TestLglGrid:
    def test_three_nodes(self):
        g = lgl_grid(3)
        np.testing.assert_allclose(g.nodes, [-1.0, 0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(g.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-14)

    def test_two_nodes(self):
        g = lgl_grid(2)
        np.testing.assert_allclose(g.nodes, [-1.0, 1.0], atol=0.0)
        np.testing.assert_allclose(g.weights, [1.0, 1.0], atol=0.0)

    def test_five_nodes_interior(self):
        g = lgl_grid(5)
        np.testing.assert_allclose(g.nodes[1], -np.sqrt(3.0 / 7.0), atol=1e-13)
        np.testing.assert_allclose(g.nodes[3], np.sqrt(3.0 / 7.0), atol=1e-13)

    @pytest.mark.parametrize("N", range(2, 16))
    def test_interior_nodes_are_deriv_roots(self, N):
        """Interior LGL nodes are the roots of P'_{N-1} (numpy oracle)."""
        g = lgl_grid(N)
        coef = np.zeros(N)
        coef[N - 1] = 1.0
        roots = np.sort(npleg.legroots(npleg.legder(coef)))
        np.testing.assert_allclose(g.nodes[1:-1], roots, atol=1e-12)

    @pytest.mark.parametrize("N", range(2, 16))
    def test_weights_sum_and_symmetry(self, N):
        g = lgl_grid(N)
        assert np.sum(g.weights) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(g.nodes, -g.nodes[::-1], atol=1e-14)
        np.testing.assert_allclose(g.weights, g.weights[::-1], atol=1e-13)

    def test_endpoint_weight_formula(self):
        for N in range(2, 12):
            g = lgl_grid(N)
            assert g.weights[0] == pytest.approx(2.0 / (N * (N - 1)), abs=1e-13)

    def test_monotone_nodes(self):
        for N in range(2, 14):
            assert np.all(np.diff(lgl_grid(N).nodes) > 0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            lgl_grid(1)


class TestQuadrature:
    @pytest.mark.parametrize("N", range(2, 11))
    def test_exact_for_polynomials(self, N):
        g = lgl_grid(N)
        for deg in range(2 * N - 2):
            vals = g.nodes ** deg
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            assert g.weights @ vals == pytest.approx(exact, abs=1e-11)


class TestSplineEvaluation:
    def test_affine_spline(self):
        basis = basis_matrix(1)
        alpha = np.array([[2.0], [0.5]])   # 2 + 0.5*tau
        assert eval_spline(alpha, basis, -1.0)[0] == pytest.approx(1.5)
        assert eval_spline(alpha, basis, 1.0)[0] == pytest.approx(2.5)

    def test_domain_guard(self):
        basis = basis_matrix(2)
        with pytest.raises(DomainError):
            eval_spline(np.ones((3, 1)), basis, 1.5)
        with pytest.raises(DomainError):
            spline_samples(np.ones((3, 1)), basis, np.array([0.0, -2.0]))

    def test_samples_match_pointwise(self):
        rng = np.random.default_rng(7)
        basis = basis_matrix(6)
        alpha = rng.standard_normal((7, 2))
        taus = np.linspace(-1, 1, 17)
        S = spline_samples(alpha, basis, taus)
        for i, t in enumerate(taus):
            np.testing.assert_allclose(S[i], eval_spline(alpha, basis, t),
                                       atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.integers(0, 2 ** 31 - 1))
    def test_legendre_values_consistent_with_numpy(self, M, seed):
        basis = basis_matrix(M)
        rng = np.random.default_rng(seed)
        tau = float(rng.uniform(-1, 1))
        mine = legendre_values(basis, tau)
        theirs = np.array([npleg.legval(tau, np.eye(M + 1)[k]) for k in range(M + 1)])
        np.testing.assert_allclose(mine, theirs, atol=1e-11)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2 ** 31 - 1))
    def test_deriv_values_match_fd(self, M, seed):
        basis = basis_matrix(M)
        rng = np.random.default_rng(seed)
        tau = float(rng.uniform(-0.9, 0.9))
        h = 1e-6
        fd = (legendre_values(basis, tau + h) - legendre_values(basis, tau - h)) / (2 * h)
        np.testing.assert_allclose(legendre_deriv_values(basis, tau), fd,
                                   atol=1e-6, rtol=1e-6)


class TestMonomialPoly:
    def test_horner(self):
        p = MonomialPoly(coeffs=(1.0, -2.0, 3.0))   # 1 - 2t + 3t^2
        assert p(2.0) == pytest.approx(9.0)


class TestTimeMap:
    def test_round_trip(self):
        tm = TimeMap(1.0, 5.0)
        assert tm.to_reference(1.0) == -1.0
        assert tm.to_reference(5.0) == 1.0
        assert tm.to_reference(3.0) == pytest.approx(0.0)
        assert tm.scale() == pytest.approx(2.0)

    @pytest.mark.parametrize("t0, tf, name", [(0.0, np.inf, "tf"), (-np.inf, 1.0, "t0"),
                                              (np.nan, 1.0, "t0")])
    def test_rejects_non_finite_endpoints(self, t0, tf, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TimeMap(t0, tf)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-10, 10), st.floats(0.1, 20), st.floats(-1, 1))
    def test_inverse_property(self, t0, width, tau):
        tm = TimeMap(t0, t0 + width)
        # to_reference inverts t = t0 + scale * (tau + 1).
        assert tm.to_reference(t0 + tm.scale() * (tau + 1.0)) == pytest.approx(tau, abs=1e-9)
