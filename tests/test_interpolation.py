"""Interpolation building blocks and the certified pipelines."""

import math

import numpy as np
import pytest

from permlog import (
    ApproxReport,
    BudgetExceeded,
    ComplexMatrix,
    ComplexTensor,
    InfeasibleParameters,
    PhiPolynomial,
    RegionViolation,
    RhoOutOfRange,
    ShapeMismatch,
    SymmetricComplexMatrix,
    ZeroBaseValue,
    approx_log_disc,
    approx_log_strip,
    build_phi,
    choose_degree,
    hafnian_exact,
    permanent_exact,
    tensor_permanent_exact,
    g_derivatives_hafnian,
    g_derivatives_permanent,
    g_derivatives_tensor,
    g_full_expansion_hafnian,
    g_full_expansion_permanent,
    g_full_expansion_tensor,
    log_derivatives,
    taylor_error_bound,
)
from permlog.core import UnivariatePolynomial, poly_compose_truncated
from permlog.interpolation import _compose_phi, g_taylor_coefficients
from permlog.series import compensated_total, series_log_coeffs_direct


def matrix(rows):
    return ComplexMatrix(np.array(rows, dtype=complex))


class TestGDerivativesPermanent:
    def test_two_by_two_closed_form(self):
        # per(J + zB) = (1 + z b00)(1 + z b11) + (1 + z b01)(1 + z b10)
        a = matrix([[2.0, 1.5 + 0.5j], [0.0, 1.0]])
        b = a.array - 1.0
        g = g_derivatives_permanent(a, 2)
        assert g[0] == pytest.approx(2.0)
        assert g[1] == pytest.approx(b.sum())
        assert g[2] == pytest.approx(2.0 * (b[0, 0] * b[1, 1] + b[0, 1] * b[1, 0]))

    def test_all_ones_has_zero_derivatives(self):
        g = g_derivatives_permanent(matrix(np.ones((4, 4))), 3)
        assert g[0] == pytest.approx(24.0)
        assert np.allclose(g[1:], 0.0)

    def test_matches_full_expansion(self):
        rng = np.random.default_rng(3)
        a = ComplexMatrix(1.0 + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))))
        poly = g_full_expansion_permanent(a)
        g = g_derivatives_permanent(a, 4)
        for k in range(5):
            assert g[k] == pytest.approx(poly.coeffs[k] * math.factorial(k), rel=1e-11)

    def test_g_at_one_is_permanent(self):
        rng = np.random.default_rng(8)
        a = ComplexMatrix(1.0 + 0.5 * rng.standard_normal((5, 5)))
        poly = g_full_expansion_permanent(a)
        assert poly(1.0) == pytest.approx(permanent_exact(a), rel=1e-12)

    def test_budget_guard(self):
        a = ComplexMatrix(np.ones((8, 8)))
        with pytest.raises(BudgetExceeded):
            g_derivatives_permanent(a, 8, budget=1000)


class TestGDerivativesHafnian:
    def test_single_pair_closed_form(self):
        # haf(J + zB) for 2n=2 is 1 + z b01
        s = SymmetricComplexMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
        g = g_derivatives_hafnian(s, 1)
        assert g[0] == pytest.approx(1.0)
        assert g[1] == pytest.approx(2.0)

    def test_matches_full_expansion(self):
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = SymmetricComplexMatrix(1.0 + 0.2 * (raw + raw.T))
        poly = g_full_expansion_hafnian(s)
        g = g_derivatives_hafnian(s, 3)
        for k in range(4):
            assert g[k] == pytest.approx(poly.coeffs[k] * math.factorial(k), rel=1e-11)

    def test_degree_zero(self):
        s = SymmetricComplexMatrix(np.full((4, 4), 1.00001))
        g = g_derivatives_hafnian(s, 0)
        assert g.shape == (1,)
        assert g[0] == pytest.approx(3.0)

    def test_g_at_one_is_hafnian(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((6, 6))
        s = SymmetricComplexMatrix(1.0 + 0.2 * (raw + raw.T))
        poly = g_full_expansion_hafnian(s)
        assert poly(1.0) == pytest.approx(hafnian_exact(s), rel=1e-12)


class TestGDerivativesTensor:
    def test_d2_matches_permanent_route(self):
        rng = np.random.default_rng(19)
        arr = 1.0 + 0.4 * rng.standard_normal((3, 3))
        g_mat = g_derivatives_permanent(ComplexMatrix(arr), 3)
        g_ten = g_derivatives_tensor(ComplexTensor(arr), 3)
        assert np.allclose(g_mat, g_ten, rtol=1e-12)

    def test_matches_full_expansion_d3(self):
        rng = np.random.default_rng(21)
        t = ComplexTensor(1.0 + 0.3 * rng.standard_normal((3, 3, 3)))
        poly = g_full_expansion_tensor(t)
        g = g_derivatives_tensor(t, 3)
        for k in range(4):
            assert g[k] == pytest.approx(poly.coeffs[k] * math.factorial(k), rel=1e-10)

    def test_g_at_one_is_tensor_permanent(self):
        rng = np.random.default_rng(22)
        t = ComplexTensor(1.0 + 0.3 * rng.standard_normal((2, 2, 2, 2)))
        poly = g_full_expansion_tensor(t)
        assert poly(1.0) == pytest.approx(tensor_permanent_exact(t), rel=1e-12)


class TestLogDerivatives:
    def test_first_three_orders(self):
        a, b, c = 0.4 + 0.1j, -0.2, 0.05j
        f = log_derivatives([1.0, a, b, c])
        assert f[0] == pytest.approx(a)
        assert f[1] == pytest.approx(b - a * a)
        assert f[2] == pytest.approx(c - 3 * a * b + 2 * a**3)

    def test_matches_series_log_of_polynomial(self):
        # derivatives of ln p from p's derivatives vs p's log-series coefficients
        from permlog.series import series_log_coeffs_direct

        coeffs = np.array([2.0, 0.6, -0.3, 0.1, 0.05])
        m = 8
        g_derivs = np.zeros(m + 1, dtype=complex)
        for k in range(m + 1):
            if k < coeffs.size:
                g_derivs[k] = coeffs[k] * math.factorial(k)
        f = log_derivatives(g_derivs)
        psi = series_log_coeffs_direct(coeffs, m)
        for k in range(1, m + 1):
            assert f[k - 1] == pytest.approx(psi[k - 1] * math.factorial(k), rel=1e-12)

    def test_normalizes_g0(self):
        f1 = log_derivatives([1.0, 0.3, 0.1])
        f2 = log_derivatives([7.0, 2.1, 0.7])
        assert np.allclose(f1, f2, rtol=1e-13)

    def test_zero_base_rejected(self):
        with pytest.raises(ZeroBaseValue):
            log_derivatives([0.0, 1.0])


class TestDegreeSelection:
    def test_error_bound_value(self):
        assert taylor_error_bound(10, 2.0, 5) == pytest.approx(10 / (6 * 32 * 1), rel=1e-14)

    def test_error_bound_decreases_in_m(self):
        vals = [taylor_error_bound(50, 1.5, m) for m in range(1, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_choose_degree_minimal(self):
        assert choose_degree(10, 2.0, 0.0521) == 5
        assert choose_degree(10, 2.0, 0.052) == 6
        for deg_g, beta, eps in [(6, 1.25, 1e-3), (24, 2.0, 1e-6), (120, 1.05, 0.1)]:
            m = choose_degree(deg_g, beta, eps)
            assert taylor_error_bound(deg_g, beta, m) <= eps
            assert m == 0 or taylor_error_bound(deg_g, beta, m - 1) > eps

    def test_choose_degree_settles_ties_with_the_bound(self):
        # at beta = 5 these grid points sit on a float tie between the log
        # comparison and taylor_error_bound itself
        for deg_g, eps in [(2, 1e-3), (3, 1e-2), (4, 1e-1), (20, 1e-2), (75, 1e-3), (125, 1e-2)]:
            m = choose_degree(deg_g, 5.0, eps)
            assert taylor_error_bound(deg_g, 5.0, m) <= eps
            assert m == 0 or taylor_error_bound(deg_g, 5.0, m - 1) > eps

    def test_choose_degree_matches_brute_force_scan(self):
        # the smallest m whose bound certifies, found by walking m up from 0;
        # the grid includes the six tie points above
        def scan(deg_g, beta, eps):
            m = 0
            while taylor_error_bound(deg_g, beta, m) > eps:
                m += 1
            return m

        grid = [(d, b, e) for d in (1, 2, 5, 20, 75, 125, 1000)
                for b in (1.01, 1.1, 1.5, 2.0, 5.0)
                for e in (0.5, 1e-1, 1e-2, 1e-3, 1e-6)]
        grid += [(d, 5.0, e) for d, e in [(2, 1e-3), (3, 1e-2), (4, 1e-1), (20, 1e-2), (75, 1e-3), (125, 1e-2)]]
        for deg_g, beta, eps in grid:
            want = scan(deg_g, beta, eps)
            assert choose_degree(deg_g, beta, eps) == want
            assert choose_degree(deg_g, beta, eps, limit=want) == want
            if want > 0:
                with pytest.raises(BudgetExceeded):
                    choose_degree(deg_g, beta, eps, limit=want - 1)

    def test_choose_degree_large_scan(self):
        # beta near 1 puts the certified degree in the tens of thousands
        m = choose_degree(10**6, 1.001, 1e-3)
        assert taylor_error_bound(10**6, 1.001, m) <= 1e-3
        assert taylor_error_bound(10**6, 1.001, m - 1) > 1e-3

    def test_choose_degree_limit(self):
        with pytest.raises(BudgetExceeded):
            choose_degree(10, 1.0001, 1e-6, limit=100)


class TestPhiPolynomial:
    def test_rho_one_constants(self):
        p = build_phi(1.0)
        assert p.alpha == pytest.approx(1 - math.exp(-1), abs=1e-15)
        assert p.beta == pytest.approx((1 - math.exp(-2)) / p.alpha, abs=1e-15)
        assert p.N == 14
        assert p(0.0) == 0.0
        assert abs(p(1.0) - 1.0) < 1e-12

    def test_endpoint_normalization_across_rho(self):
        for rho in (0.1, 0.25, 0.5, 1.0):
            p = build_phi(rho)
            assert p.N >= 14
            assert p(0.0) == 0.0
            assert abs(p(1.0) - 1.0) < 1e-12

    def test_disc_maps_into_strip(self):
        for rho in (0.25, 1.0):
            p = build_phi(rho)
            z = p.beta * np.exp(1j * np.linspace(0, 2 * np.pi, 400))
            w = p(z)
            assert w.real.min() >= -rho - 1e-9
            assert w.real.max() <= 1 + 2 * rho + 1e-9
            assert np.abs(w.imag).max() <= 2 * rho + 1e-9

    def test_analytic_path_matches_materialized_coefficients(self):
        # rho = 1/6 gives N = 7676, above the direct-evaluation threshold
        p = build_phi(1.0 / 6.0)
        assert p.N > 4000
        coeffs = p.coeff_prefix(p.N + 1)
        rng = np.random.default_rng(2)
        z = p.beta * np.exp(1j * rng.uniform(0, 2 * np.pi, 24)) * rng.uniform(0.2, 1.0, 24)
        want = np.polynomial.polynomial.polyval(z, coeffs)
        got = p(z)
        assert np.abs(got - want).max() < 1e-12

    def test_coeff_prefix_values(self):
        p = build_phi(0.5)
        c = p.coeff_prefix(6)
        assert c[0] == 0.0
        j = np.arange(1, 6)
        assert np.allclose(c[1:], p.alpha**j / (j * p.sigma), rtol=1e-13)

    def test_immutable(self):
        p = build_phi(0.5)
        with pytest.raises(AttributeError):
            p.alpha = 2.0

    def test_evaluation_domain_guard(self):
        p = build_phi(1.0)
        with pytest.raises(ValueError):
            p(1.0 / p.alpha)

    def test_rho_out_of_range(self):
        for rho in (0.0, -0.5, 1.5):
            with pytest.raises(RhoOutOfRange):
                build_phi(rho)

    def test_tiny_rho_not_materializable(self):
        with pytest.raises(BudgetExceeded):
            build_phi(0.001)


class TestDiscPipeline:
    def test_permanent_certified(self):
        rng = np.random.default_rng(40)
        a = ComplexMatrix(1.0 + 0.35 * (rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))) / math.sqrt(2))
        rep = approx_log_disc(a, 0.4, 1e-3)
        assert isinstance(rep, ApproxReport)
        assert rep.pipeline == "disc"
        assert rep.error_bound <= 1e-3
        exact = complex(np.log(permanent_exact(a)))
        assert abs(rep.log_value - exact) <= rep.error_bound

    def test_hafnian_certified(self):
        rng = np.random.default_rng(41)
        raw = rng.uniform(-1, 1, (6, 6))
        s = SymmetricComplexMatrix(1.0 + 0.15 * (raw + raw.T))
        rep = approx_log_disc(s, 0.35, 1e-4)
        exact = complex(np.log(hafnian_exact(s)))
        assert abs(rep.log_value - exact) <= rep.error_bound <= 1e-4

    def test_tensor_certified(self):
        rng = np.random.default_rng(42)
        t = ComplexTensor(1.0 + 0.15 * rng.uniform(-1, 1, (3, 3, 3)))
        rep = approx_log_disc(t, 0.2, 1e-3)
        exact = complex(np.log(tensor_permanent_exact(t)))
        assert abs(rep.log_value - exact) <= rep.error_bound <= 1e-3

    def test_l1_pipeline(self):
        rng = np.random.default_rng(43)
        a = ComplexMatrix(1.0 + 0.01 * rng.uniform(-1, 1, (4, 4)))
        rep = approx_log_disc(a, 0.05, 1e-3, l1=True)
        assert rep.pipeline == "l1"
        exact = complex(np.log(permanent_exact(a)))
        assert abs(rep.log_value - exact) <= rep.error_bound <= 1e-3

    def test_l1_hafnian_unsupported(self):
        s = SymmetricComplexMatrix(np.ones((4, 4)))
        with pytest.raises(ShapeMismatch):
            approx_log_disc(s, 0.05, 1e-3, l1=True)

    def test_region_violation_and_force(self):
        a = np.ones((3, 3), dtype=complex)
        a[0, 0] = 1.9
        with pytest.raises(RegionViolation):
            approx_log_disc(ComplexMatrix(a), 0.4, 1e-2)
        rep = approx_log_disc(ComplexMatrix(a), 0.4, 1e-2, force=True)
        assert rep.error_bound is None
        assert rep.log_value == rep.log_value  # finite, not nan

    def test_degree_override(self):
        a = ComplexMatrix(np.full((3, 3), 0.9 + 0.0j))
        auto = approx_log_disc(a, 0.3, 1e-3)
        rep = approx_log_disc(a, 0.3, 1e-3, degree=auto.degree_used + 5)
        assert rep.degree_used == auto.degree_used + 5
        with pytest.raises(BudgetExceeded):
            approx_log_disc(a, 0.3, 1e-6, degree=1)

    def test_refinement_monotone(self):
        rng = np.random.default_rng(44)
        a = ComplexMatrix(1.0 + 0.3 * rng.uniform(-1, 1, (4, 4)))
        exact = complex(np.log(permanent_exact(a)))
        degrees, gaps = [], []
        for eps in (1e-1, 1e-2, 1e-4, 1e-6):
            rep = approx_log_disc(a, 0.4, eps)
            degrees.append(rep.degree_used)
            gaps.append(abs(rep.log_value - exact))
            assert gaps[-1] <= rep.error_bound <= eps
        assert degrees == sorted(degrees)

    def test_epsilon_validated(self):
        a = ComplexMatrix(np.ones((3, 3)))
        with pytest.raises(InfeasibleParameters):
            approx_log_disc(a, 0.3, 0.0)
        with pytest.raises(InfeasibleParameters):
            approx_log_disc(a, 0.3, 1.5)

    def test_tied_degree_certifies(self):
        # choose_degree(20, 5.0, 1e-2) once returned a degree whose bound
        # exceeded epsilon by one ulp; per(0.95 J) = 0.95^20 20!
        rep = approx_log_disc(ComplexMatrix(np.full((20, 20), 0.95)), 0.1, 1e-2)
        exact = 20 * math.log(0.95) + math.lgamma(21)
        assert abs(rep.log_value - exact) <= rep.error_bound <= 1e-2

    def test_hafnian_degree_zero(self):
        s = SymmetricComplexMatrix(np.full((4, 4), 1.00001))
        rep = approx_log_disc(s, 1e-4, 0.5)
        assert rep.degree_used == 0
        exact = math.log(3.0) + 2.0 * math.log(1.00001)
        assert abs(rep.log_value - exact) <= rep.error_bound <= 0.5

    def test_permanent_beyond_float_factorial(self):
        # n! overflows a float for n > 170; per(u u^T) = n! prod(u)^2
        u = 1.0 + 0.004 * np.sin(np.arange(180.0))
        rep = approx_log_disc(ComplexMatrix(np.outer(u, u)), 0.01, 0.1)
        exact = math.lgamma(181) + 2.0 * float(np.log(u).sum())
        assert abs(rep.log_value - exact) <= rep.error_bound <= 0.1
        assert rep.g0 == complex(math.inf)

    def test_tensor_beyond_float_factorial_power(self):
        # (99!)^2 overflows a float; PER of the all-ones 99^3 tensor is (99!)^2
        rep = approx_log_disc(ComplexTensor(np.ones((99, 99, 99))), 1e-4, 1e-2)
        assert rep.degree_used == 1
        assert abs(rep.log_value - 2.0 * math.lgamma(100)) <= rep.error_bound <= 1e-2
        assert rep.g0 == complex(math.inf)

    def test_real_input_gives_real_log(self):
        rng = np.random.default_rng(45)
        a = ComplexMatrix(1.0 + 0.3 * rng.uniform(-1, 1, (5, 5)))
        rep = approx_log_disc(a, 0.4, 1e-3)
        assert abs(rep.log_value.imag) < 1e-9


class TestStripPipeline:
    def test_permanent_certified(self):
        # n = 12 needs all 13 coefficients, past the n! full expansion
        rng = np.random.default_rng(50)
        for n in (4, 12):
            a = ComplexMatrix(rng.uniform(0.7, 1.0, (n, n)))
            rep = approx_log_strip(a, 0.7, 0.1)
            assert rep.pipeline == "strip"
            assert rep.rho is not None and 0 < rep.rho <= 1
            assert rep.phi_degree >= 14
            exact = complex(np.log(permanent_exact(a)))
            assert abs(rep.log_value - exact) <= rep.error_bound <= 0.1

    def test_hafnian_certified(self):
        rng = np.random.default_rng(51)
        raw = rng.uniform(0.7, 1.0, (6, 6))
        s = SymmetricComplexMatrix(np.minimum(1.0, (raw + raw.T) / 2 + 0.05))
        rep = approx_log_strip(s, 0.7, 0.1)
        exact = complex(np.log(hafnian_exact(s)))
        assert abs(rep.log_value - exact) <= rep.error_bound <= 0.1

    def test_tensor_certified(self):
        rng = np.random.default_rng(52)
        t = ComplexTensor(1.0 - 0.1 * rng.uniform(0, 1, (2, 2, 2)))
        rep = approx_log_strip(t, 0.1, 0.1)
        exact = complex(np.log(tensor_permanent_exact(t)))
        assert abs(rep.log_value - exact) <= rep.error_bound <= 0.1

    def test_all_ones_shortcut(self):
        rep = approx_log_strip(ComplexMatrix(np.ones((4, 4))), 1.0, 1e-6)
        assert rep.rho == 1.0
        assert rep.log_value == pytest.approx(math.log(24.0), abs=1e-6)

    def test_complex_entries_rejected(self):
        a = ComplexMatrix(np.full((3, 3), 0.8 + 0.01j))
        with pytest.raises(RegionViolation):
            approx_log_strip(a, 0.7, 0.1)

    def test_interval_violation_and_force(self):
        a = np.full((3, 3), 0.8)
        a[0, 0] = 0.5
        with pytest.raises(RegionViolation):
            approx_log_strip(ComplexMatrix(a), 0.7, 0.1)
        rep = approx_log_strip(ComplexMatrix(a), 0.7, 0.1, force=True)
        assert rep.error_bound is None

    def test_delta_validated(self):
        a = ComplexMatrix(np.full((3, 3), 0.8))
        with pytest.raises(InfeasibleParameters):
            approx_log_strip(a, 0.0, 0.1)
        with pytest.raises(InfeasibleParameters):
            approx_log_strip(a, 1.5, 0.1)

    def test_agrees_with_disc_route(self):
        rng = np.random.default_rng(53)
        a = ComplexMatrix(rng.uniform(0.75, 1.0, (4, 4)))
        disc = approx_log_disc(a, 0.3, 1e-3)
        strip = approx_log_strip(a, 0.75, 0.05)
        assert abs(disc.log_value - strip.log_value) <= disc.error_bound + strip.error_bound

    def test_degree_override_small(self):
        # degree 0 is ln g(0); degrees 1 and 2 match the exact composition
        a = ComplexMatrix(np.random.default_rng(54).uniform(0.7, 1.0, (4, 4)))
        rep = approx_log_strip(a, 0.7, 0.1, degree=0, force=True)
        assert rep.degree_used == 0 and rep.error_bound is None
        assert rep.log_value == pytest.approx(math.log(24.0), abs=1e-15)
        for m in (1, 2):
            rep = approx_log_strip(a, 0.7, 0.1, degree=m, force=True)
            assert rep.degree_used == m and rep.error_bound is None
            assert rep.log_value.real == pytest.approx(_direct_strip_log(a, rep), abs=1e-14)

    def test_small_degrees_match_direct_route(self):
        # the route these degrees took before: exact truncated composition
        # and the O(m^2) log recurrence. per n=6 at delta 0.7 has N < m
        rng = np.random.default_rng(55)
        raw = rng.uniform(0.7, 1.0, (6, 6))
        cases = [
            (ComplexMatrix(rng.uniform(0.7, 1.0, (6, 6))), 0.7, {}),
            (SymmetricComplexMatrix((raw + raw.T) / 2), 0.7, {}),
            (ComplexTensor(rng.uniform(0.8, 1.0, (3, 3, 3))), 0.2, {}),
            (ComplexMatrix(rng.uniform(0.6, 1.0, (5, 5))), 0.6, {"degree": 4096, "force": True}),
        ]
        reps = []
        for value, param, kw in cases:
            rep = approx_log_strip(value, param, 0.1, **kw)
            assert rep.degree_used <= 4096
            assert rep.log_value.real == pytest.approx(_direct_strip_log(value, rep), abs=1e-13)
            reps.append(rep)
        assert reps[0].phi_degree < reps[0].degree_used

    def test_report_serialization(self):
        rep = approx_log_strip(ComplexMatrix(np.full((3, 3), 0.85)), 0.8, 0.1)
        d = rep.to_dict()
        assert set(d) >= {"log_value", "degree_used", "error_bound", "pipeline",
                          "beta_used", "deg_g", "g0", "elapsed_s", "rho", "phi_degree"}
        assert d["log_value"][1] == pytest.approx(0.0, abs=1e-12)


def _direct_strip_log(value, rep):
    """ln g(0) + sum_{k<=m} psi_k of ln r(phi(z)) through the exact truncated
    composition and the O(m^2) log recurrence."""
    phi = build_phi(rep.rho)
    m = rep.degree_used
    n = value.two_n // 2 if isinstance(value, SymmetricComplexMatrix) else value.n
    chat = g_taylor_coefficients(value, min(m, n))
    inner = UnivariatePolynomial(phi.coeff_prefix(min(m, phi.N) + 1))
    comp = poly_compose_truncated(UnivariatePolynomial(chat.real), inner, m)
    psi = series_log_coeffs_direct(np.ascontiguousarray(comp.coeffs.real), m)
    return math.log(rep.g0.real) + compensated_total(psi)


class TestComposePhi:
    @pytest.mark.parametrize("rho", [1.0, 0.5, 0.3])
    def test_matches_truncated_composition(self, rho):
        # m below, at and above N (the factor 1 - (alpha z)^N only acts when
        # N < m), and r of degree 0..8 with mixed signs
        phi = build_phi(rho)
        rng = np.random.default_rng(int(rho * 10))
        for m in (phi.N - 3, phi.N, phi.N + 5, 2 * phi.N + 3):
            inner = UnivariatePolynomial(phi.coeff_prefix(min(m, phi.N) + 1))
            for deg in range(9):
                rhat = rng.uniform(-1.0, 1.0, deg + 1)
                got = _compose_phi(rhat, phi, m)
                want = np.zeros(m + 1)
                coeffs = poly_compose_truncated(UnivariatePolynomial(rhat), inner, m).coeffs.real
                want[: coeffs.size] = coeffs
                assert got.shape == (m + 1,)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_powers_of_phi(self):
        # r(x) = x^k gives phi^k: zero below z^k, (alpha/sigma)^k at z^k
        phi = build_phi(0.2)
        for k in range(1, 5):
            rhat = np.zeros(k + 1)
            rhat[k] = 1.0
            got = _compose_phi(rhat, phi, 50)
            assert np.all(got[:k] == 0.0)
            assert got[k] == pytest.approx((phi.alpha / phi.sigma) ** k, rel=1e-14)
