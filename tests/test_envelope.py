"""Bernstein envelope matrices: frozen examples, containment, exactness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socenv.envelope import (bernstein_matrix, binomial_shift_matrix,
                             control_values, envelope_matrix, spline_bounds)
from socenv.polynomial import basis_matrix, spline_samples


def make_env(M):
    return envelope_matrix(basis_matrix(M))


class TestBernsteinMatrix:
    def test_degree_two_values(self):
        """P(t) = t - t^2 on [0,1] has Bernstein control values (0, 1/2, 0)."""
        B = bernstein_matrix(2)
        a = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(B @ a, [0.0, 0.5, 0.0], atol=1e-14)

    def test_rows_recover_endpoints(self):
        B = bernstein_matrix(4)
        a = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        p0 = a[0]                       # P(0)
        p1 = float(np.sum(a))           # P(1)
        vals = B @ a
        assert vals[0] == pytest.approx(p0, abs=1e-13)
        assert vals[-1] == pytest.approx(p1, abs=1e-13)

    def test_lower_triangular(self):
        B = bernstein_matrix(5)
        assert np.allclose(np.triu(B, 1), 0.0)


class TestBinomialShift:
    def test_degree_two(self):
        E = binomial_shift_matrix(2)
        np.testing.assert_allclose(E, [[1, 0, 0], [-1, 2, 0], [1, -4, 4]], atol=0)

    def test_shift_identity(self):
        """Row m of E gives (2s-1)^m expanded in s (polynomial oracle)."""
        E = binomial_shift_matrix(6)
        s = np.linspace(0, 1, 11)
        for m in range(7):
            direct = (2 * s - 1) ** m
            via = sum(E[m, r] * s ** r for r in range(7))
            np.testing.assert_allclose(via, direct, atol=1e-12)


class TestEnvelopeMatrix:
    def test_constant_spline_maps_to_ones(self):
        C = make_env(4)
        np.testing.assert_allclose(C @ np.eye(5)[0], np.ones(5), atol=1e-13)

    def test_linear_spline_control_values(self):
        C = make_env(4)
        p = C @ np.eye(5)[1]   # x(tau) = tau
        np.testing.assert_allclose(p, [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-13)

    def test_endpoint_rows(self):
        """First/last control values are the spline endpoint values."""
        rng = np.random.default_rng(3)
        for M in range(1, 9):
            C = make_env(M)
            L = basis_matrix(M)
            alpha = rng.standard_normal((M + 1, 1))
            p = control_values(alpha, C)
            ends = spline_samples(alpha, L, np.array([-1.0, 1.0]))
            assert p[0, 0] == pytest.approx(ends[0, 0], abs=1e-10)
            assert p[-1, 0] == pytest.approx(ends[1, 0], abs=1e-10)


class TestContainment:
    @pytest.mark.parametrize("M", range(1, 11))
    def test_random_splines_contained(self, M):
        rng = np.random.default_rng(100 + M)
        L = basis_matrix(M)
        C = make_env(M)
        taus = np.linspace(-1, 1, 2001)
        alpha = rng.standard_normal((M + 1, 200))
        vals = spline_samples(alpha, L, taus)
        lo, hi = spline_bounds(alpha, C)
        assert np.all(vals >= lo - 1e-9)
        assert np.all(vals <= hi + 1e-9)

    def test_degree_one_exact(self):
        rng = np.random.default_rng(11)
        L = basis_matrix(1)
        C = make_env(1)
        alpha = rng.standard_normal((2, 50))
        taus = np.linspace(-1, 1, 501)
        vals = spline_samples(alpha, L, taus)
        lo, hi = spline_bounds(alpha, C)
        np.testing.assert_allclose(lo, vals.min(axis=0), atol=1e-12)
        np.testing.assert_allclose(hi, vals.max(axis=0), atol=1e-12)

    def test_degree_elevation_never_loosens_true_range(self):
        """Zero-padding the Legendre coefficients keeps the same spline; its
        envelope stays a valid (and in practice no-looser-than-true) bound."""
        rng = np.random.default_rng(5)
        alpha = rng.standard_normal(4)
        L3 = basis_matrix(3)
        taus = np.linspace(-1, 1, 1001)
        true_vals = spline_samples(alpha[:, None], L3, taus)[:, 0]
        for M in range(3, 9):
            padded = np.zeros((M + 1, 1))
            padded[:4, 0] = alpha
            lo, hi = spline_bounds(padded, make_env(M))
            assert lo[0] <= true_vals.min() + 1e-10
            assert hi[0] >= true_vals.max() - 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.integers(0, 2 ** 31 - 1))
    def test_containment_property(self, M, seed):
        rng = np.random.default_rng(seed)
        L = basis_matrix(M)
        C = make_env(M)
        alpha = rng.normal(scale=rng.uniform(0.1, 10.0), size=(M + 1, 1))
        taus = np.linspace(-1, 1, 512)
        vals = spline_samples(alpha, L, taus)[:, 0]
        lo, hi = spline_bounds(alpha, C)
        assert vals.min() >= lo[0] - 1e-9 * max(1.0, abs(lo[0]))
        assert vals.max() <= hi[0] + 1e-9 * max(1.0, abs(hi[0]))

    def test_multichannel_bounds_independent(self):
        C = make_env(2)
        alpha = np.array([[0.0, 5.0], [1.0, 0.0], [0.0, 0.0]])
        lo, hi = spline_bounds(alpha, C)
        assert lo[0] == pytest.approx(-1.0)
        assert hi[0] == pytest.approx(1.0)
        assert lo[1] == pytest.approx(5.0)
        assert hi[1] == pytest.approx(5.0)

    def test_shape_guard(self):
        C = make_env(3)
        with pytest.raises(ValueError):
            spline_bounds(np.ones((3, 1)), C)
