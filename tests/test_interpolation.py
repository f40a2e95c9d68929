"""Interpolation building blocks and the certified pipelines."""

import dataclasses
import math

import numpy as np
import pytest

from permlog import (
    ApproxReport,
    BudgetExceeded,
    ComplexMatrix,
    ComplexTensor,
    EtaTooLarge,
    InfeasibleParameters,
    PhiPolynomial,
    RegionKind,
    RegionViolation,
    RhoOutOfRange,
    ShapeMismatch,
    SizeLimitExceeded,
    SymmetricComplexMatrix,
    ZeroBaseValue,
    approx_log_disc,
    approx_log_strip,
    build_phi,
    choose_degree,
    eta_d_strip,
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
import permlog.interpolation
from permlog.core import UnivariatePolynomial, poly_compose_truncated
from permlog.interpolation import _compose_phi, _strip_parameters, g_taylor_coefficients
from permlog.regions import tau_bound
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
        # every degree m <= n: pair sums and expansion share one matching enumerator
        rng = np.random.default_rng(12)
        for two_n in range(2, 13, 2):
            raw = rng.standard_normal((two_n, two_n)) + 1j * rng.standard_normal((two_n, two_n))
            s = SymmetricComplexMatrix(1.0 + 0.2 * (raw + raw.T))
            want = g_full_expansion_hafnian(s).coeffs
            for m in range(two_n // 2 + 1):
                g = g_derivatives_hafnian(s, m)
                for k in range(m + 1):
                    assert g[k] == pytest.approx(want[k] * math.factorial(k), rel=1e-12), (two_n, m, k)

    def test_matches_engine_across_blocks(self):
        # C(40, 4) = 91390 vertex subsets at k = 2: six blocks of 2^14
        rng = np.random.default_rng(14)
        raw = rng.uniform(-1, 1, (40, 40)) + 1j * rng.uniform(-1, 1, (40, 40))
        s = SymmetricComplexMatrix(1.0 + 0.15 * (raw + raw.T))
        g = g_derivatives_hafnian(s, 2)
        want = g_taylor_coefficients(s, 2)
        for k in range(3):
            assert g[k] / (math.factorial(k) * g[0]) == pytest.approx(want[k], rel=1e-12), k

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

    def test_expansion_reaches_2n_14(self):
        # 13!! = 135135 matchings, within the 10! limit
        rng = np.random.default_rng(31)
        raw = rng.standard_normal((14, 14))
        s = SymmetricComplexMatrix(1.0 + 0.05 * (raw + raw.T))
        poly = g_full_expansion_hafnian(s)
        assert poly(1.0) == pytest.approx(hafnian_exact(s), rel=1e-12)


class TestGDerivativesTensor:
    def test_d2_matches_permanent_route(self):
        # a matrix is the d = 2 tensor: the same tuple sums, bit for bit
        rng = np.random.default_rng(19)
        for n in range(1, 7):
            arr = 1.0 + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for m in range(n + 1):
                g_mat = g_derivatives_permanent(ComplexMatrix(arr), m)
                g_ten = g_derivatives_tensor(ComplexTensor(arr), m)
                assert np.array_equal(g_mat, g_ten), (n, m)

    def test_d2_full_expansion_matches_permanent_route(self):
        rng = np.random.default_rng(20)
        for n in range(1, 9):
            arr = 1.0 + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            poly_mat = g_full_expansion_permanent(ComplexMatrix(arr))
            poly_ten = g_full_expansion_tensor(ComplexTensor(arr))
            assert np.array_equal(poly_mat.coeffs, poly_ten.coeffs), n

    def test_expansion_reaches_d3_n6(self):
        # (6!)^2 = 518400 permutation pairs, within the 10! limit
        rng = np.random.default_rng(32)
        t = ComplexTensor(1.0 + 0.05 * rng.standard_normal((6, 6, 6)))
        poly = g_full_expansion_tensor(t)
        assert poly(1.0) == pytest.approx(tensor_permanent_exact(t), rel=1e-12)

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


class TestReferenceLimits:
    @pytest.mark.parametrize(
        "fn,value,m,ops",
        [
            (g_derivatives_permanent, ComplexMatrix(np.ones((5, 5))), 3, sum(k * math.perm(5, k) ** 2 for k in range(4))),
            (g_derivatives_tensor, ComplexTensor(np.ones((3, 3, 3))), 3, sum(k * math.perm(3, k) ** 3 for k in range(4))),
            (g_derivatives_tensor, ComplexTensor(np.ones((3, 3, 3, 3))), 2, sum(k * math.perm(3, k) ** 4 for k in range(3))),
            (
                g_derivatives_hafnian,
                SymmetricComplexMatrix(np.ones((8, 8))),
                3,
                sum(k * math.comb(8, 2 * k) * df for k, df in ((1, 1), (2, 3), (3, 15))),
            ),
        ],
        ids=["per", "PER-d3", "PER-d4", "haf"],
    )
    def test_budget_counts_operations(self, fn, value, m, ops):
        # k multiplications per k-term product, the engine's unit
        assert fn(value, m, budget=ops)[0] == fn(value, 0)[0]
        with pytest.raises(BudgetExceeded, match=f"{ops} operations"):
            fn(value, m, budget=ops - 1)

    @pytest.mark.parametrize(
        "fn,value,terms",
        [
            (g_full_expansion_permanent, ComplexMatrix(np.ones((11, 11))), math.factorial(11)),
            (g_full_expansion_hafnian, SymmetricComplexMatrix(np.ones((18, 18))), 34459425),
            (g_full_expansion_tensor, ComplexTensor(np.ones((7, 7, 7))), math.factorial(7) ** 2),
            (g_full_expansion_tensor, ComplexTensor(np.ones((40, 40, 40))), math.factorial(40) ** 2),
        ],
        ids=["per-n11", "haf-2n18", "PER-d3-n7", "PER-d3-n40"],
    )
    def test_expansions_stop_past_10_factorial_terms(self, fn, value, terms):
        # checked before any enumeration: the 40x40x40 case would never end
        with pytest.raises(SizeLimitExceeded, match=f"{terms} terms exceed the limit 10!"):
            fn(value)

    def test_limit_is_inclusive(self, monkeypatch):
        # at 24 terms in place of 10!: per n = 4 (4! terms) runs, n = 5 stops
        monkeypatch.setattr(permlog.interpolation, "_EXPANSION_TERMS", 24)
        assert g_full_expansion_permanent(ComplexMatrix(np.ones((4, 4)))).coeffs[0] == 24
        assert g_full_expansion_tensor(ComplexTensor(np.ones((4, 4)))).coeffs[0] == 24
        with pytest.raises(SizeLimitExceeded):
            g_full_expansion_permanent(ComplexMatrix(np.ones((5, 5))))
        # 7!! = 105 > 24 >= 5!! = 15
        assert g_full_expansion_hafnian(SymmetricComplexMatrix(np.ones((6, 6)))).coeffs[0] == 15
        with pytest.raises(SizeLimitExceeded):
            g_full_expansion_hafnian(SymmetricComplexMatrix(np.ones((8, 8))))


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

    def test_choose_degree_matches_bisection(self):
        # the bisection over [0, limit] that choose_degree replaced, kept as
        # its reference
        def bisect(deg_g, beta, eps, limit=permlog.interpolation.MAX_DEGREE):
            if taylor_error_bound(deg_g, beta, limit) > eps:
                raise BudgetExceeded("past limit")
            lo, hi = -1, limit
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if taylor_error_bound(deg_g, beta, mid) <= eps:
                    hi = mid
                else:
                    lo = mid
            return hi

        degs = sorted({int(round(x)) for x in np.geomspace(1, 1e9, 19)})
        betas = np.geomspace(1.0001, 10.0, 17).tolist() + [2.0, 5.0]
        epss = np.geomspace(0.5, 1e-12, 15).tolist() + [1e-1, 1e-2, 1e-3]
        for deg_g in degs:
            for beta in betas:
                for eps in epss:
                    assert choose_degree(deg_g, beta, eps) == bisect(deg_g, beta, eps), (deg_g, beta, eps)
        assert choose_degree(20, 5.0, 1e-2) == 4
        want = bisect(10**6, 1.0001, 1e-6)
        assert choose_degree(10**6, 1.0001, 1e-6, limit=want) == want
        with pytest.raises(BudgetExceeded):
            choose_degree(10**6, 1.0001, 1e-6, limit=want - 1)


class TestPhiPolynomial:
    def test_rho_one_constants(self):
        p = build_phi(1.0)
        assert p.alpha == pytest.approx(1 - math.exp(-1), abs=1e-15)
        assert p.beta == pytest.approx((1 - math.exp(-2)) / p.alpha, abs=1e-15)
        assert p.N == 14
        assert p(0.0) == 0.0
        assert abs(p(1.0) - 1.0) < 1e-12

    def test_endpoint_normalization_across_rho(self):
        # at rho 0.0695 (N = 7.4e7) and 0.05 (N = 2.8e10) 1 - alpha is far from
        # exact in floating point, so only a sigma summed like phi(1) gives 1
        for rho in (0.05, 0.0695, 0.1, 0.25, 0.5, 1.0):
            p = build_phi(rho)
            assert p.N >= 14
            assert p(0.0) == 0.0
            assert abs(p(1.0) - 1.0) <= 1e-15

    def test_disc_maps_into_strip(self):
        # at the paper's N and at degrees N' above it: as N' grows phi tends to
        # rho (-ln(1 - alpha z)), whose image of |z| <= beta lies strictly inside
        for rho in (1.0, 0.5, 0.3, 0.25, 0.1):
            big_n = build_phi(rho).N
            for degree in (big_n, 10 * big_n, 1000 * big_n):
                p = PhiPolynomial(rho, degree)
                assert p.N == degree and p(1.0) == 1.0
                w = p(p.beta * np.exp(1j * np.linspace(0, 2 * np.pi, 801)))
                assert w.real.min() >= -rho
                assert w.real.max() <= 1 + 2 * rho
                assert np.abs(w.imag).max() <= 2 * rho
        # a degree below the paper's N leaves N alone
        assert PhiPolynomial(0.5, 3).N == build_phi(0.5).N

    def test_analytic_path_matches_materialized_coefficients(self):
        for rho in (1.0, 0.5, 0.25, 0.2, 1.0 / 6.0):
            p = build_phi(rho)
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
        # beta rounds to 1 below rho ~ 1/37, and alpha too well before 1/699
        with pytest.raises(BudgetExceeded, match="beta rounds to 1"):
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

    @pytest.mark.parametrize("eta", [0.0, -0.1])
    @pytest.mark.parametrize("l1", [False, True])
    def test_nonpositive_eta_rejected(self, eta, l1):
        # the all-ones matrix is inside every region, even at eta = 0
        with pytest.raises(InfeasibleParameters):
            approx_log_disc(ComplexMatrix(np.ones((3, 3))), eta, 0.1, l1=l1)

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

    @pytest.mark.parametrize(
        "make, count",
        [
            (lambda: ComplexMatrix.all_ones(170), math.factorial(170)),
            (lambda: ComplexMatrix.all_ones(180), math.factorial(180)),
            (lambda: ComplexMatrix.all_ones(500), math.factorial(500)),
            (lambda: SymmetricComplexMatrix.all_ones(200), math.factorial(200) // (2**100 * math.factorial(100))),
            (lambda: ComplexTensor.all_ones(3, 99), math.factorial(99) ** 2),
        ],
        ids=["per170", "per180", "per500", "haf200", "tensor99"],
    )
    def test_log_g0_is_log_of_exact_count(self, make, count):
        # a sum of math.log(k) misses ln n! by up to 3.6e-12 at n = 500
        rep = approx_log_disc(make(), 0.1, 0.5, degree=0, force=True)
        assert rep.log_value.real == math.log(count)
        assert rep.log_value.imag == 0.0


@pytest.mark.parametrize(
    "pipeline, work, param, epsilon",
    [
        (approx_log_disc, "series_log_coeffs_direct", 0.4, 1e-3),
        (approx_log_strip, "series_log_prefix_sum", 0.7, 0.1),
    ],
)
def test_out_of_memory_is_budget_exceeded(monkeypatch, pipeline, work, param, epsilon):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(permlog.interpolation, work, exhausted)
    a = ComplexMatrix(np.full((3, 3), 0.9))
    with pytest.raises(BudgetExceeded, match=r"degree \d+ ran out of memory"):
        pipeline(a, param, epsilon)


@pytest.mark.parametrize("pipeline", [approx_log_disc, approx_log_strip])
def test_degree_cap(pipeline):
    # degree 10^10 certifies, but its arrays would not fit in memory
    a = ComplexMatrix(np.full((3, 3), 0.9 + 0.0j))
    with pytest.raises(BudgetExceeded, match="exceeds the supported"):
        pipeline(a, 0.4, 1e-3, degree=10**10)


@pytest.mark.parametrize("pipeline, param", [(approx_log_disc, 0.4), (approx_log_strip, 0.7)])
@pytest.mark.parametrize("degree", [-1, math.nan, math.inf, -math.inf, 2.5, "2"])
def test_bad_degree_is_infeasible(pipeline, param, degree):
    a = ComplexMatrix(np.full((3, 3), 0.9 + 0.0j))
    with pytest.raises(InfeasibleParameters, match="degree must be a nonnegative integer"):
        pipeline(a, param, 0.1, degree=degree)


@pytest.mark.parametrize("pipeline, param", [(approx_log_disc, 0.4), (approx_log_strip, 0.7)])
def test_integral_degree_beyond_float_is_capped(pipeline, param):
    a = ComplexMatrix(np.full((3, 3), 0.9 + 0.0j))
    with pytest.raises(BudgetExceeded, match="exceeds the supported"):
        pipeline(a, param, 0.1, degree=10**400)
    assert pipeline(a, param, 0.1, degree=3.0, force=True).degree_used == 3


@pytest.mark.parametrize(
    "value",
    [ComplexMatrix(np.full((3, 3), 0.9)), ComplexTensor(np.full((2, 2, 2), 0.95))],
    ids=["matrix", "tensor"],
)
@pytest.mark.parametrize("param", [10**400, -(10**400)])
def test_strip_parameter_beyond_float_is_infeasible(value, param):
    with pytest.raises(InfeasibleParameters, match="is not a float"):
        approx_log_strip(value, param, 0.1)


def _strip_parameters_200_steps(s, d):
    """_strip_parameters as it was before it stopped early: 200 bisection
    steps, the last ~150 of them on adjacent floats."""
    lo = s * (1.0 + 1e-14)
    hi = eta_d_strip(d) * (1.0 - 1e-14)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (mid / s - 1.0) < tau_bound(mid, d) / s:
            lo = mid
        else:
            hi = mid
    e = 0.5 * (lo + hi)
    return min(min(e / s - 1.0, tau_bound(e, d) / s) / 2.0, 1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_strip_parameters_stop_early_bit_for_bit(d):
    cap = eta_d_strip(d)
    grid = [1e-9, 1e-3, *np.linspace(0.0, cap, 41)[1:-1], cap - 1e-6]
    grid += [cap - k * 1e-13 for k in (10, 5, 2, 1)]
    for s in grid:
        assert _strip_parameters(s, d) == _strip_parameters_200_steps(s, d), s
    # no room between s and the cap: still refused
    with pytest.raises(InfeasibleParameters):
        _strip_parameters(cap * (1.0 - 1e-15), d)


class TestApproxReport:
    REPORT = dict(
        log_value=1.5 + 0.25j,
        degree_used=7,
        error_bound=1e-3,
        pipeline="strip",
        beta_used=1.25,
        deg_g=40,
        g0=6.0 + 0.0j,
        elapsed_s=0.5,
        rho=0.3,
        phi_degree=10,
        path="strip-roots",
    )

    def test_slots_and_frozen(self):
        rep = ApproxReport(**self.REPORT)
        assert not hasattr(rep, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.degree_used = 8
        # a name that is not a field, and deletion, are refused the same way
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del rep.path
        assert not hasattr(rep, "extra") and rep.path == "strip-roots"

    def test_to_dict(self):
        assert ApproxReport(**self.REPORT).to_dict() == {
            "log_value": [1.5, 0.25],
            "degree_used": 7,
            "error_bound": 1e-3,
            "pipeline": "strip",
            "beta_used": 1.25,
            "deg_g": 40,
            "g0": [6.0, 0.0],
            "elapsed_s": 0.5,
            "rho": 0.3,
            "phi_degree": 10,
            "path": "strip-roots",
        }
        disc = {k: v for k, v in self.REPORT.items() if k not in ("rho", "phi_degree", "path")}
        out = ApproxReport(**{**disc, "error_bound": None}).to_dict()
        assert out["error_bound"] is None
        assert set(out) == {"log_value", "degree_used", "error_bound", "pipeline",
                            "beta_used", "deg_g", "g0", "elapsed_s"}


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
        # matrix kinds: |1 - a| <= 1 - delta, here [0.7, 1.3], broken on both sides
        a = np.full((3, 3), 0.8)
        a[0, 0] = 0.5
        with pytest.raises(RegionViolation, match=r"outside strip-per at index \(1, 1\)") as info:
            approx_log_strip(ComplexMatrix(a), 0.7, 0.1)
        assert info.value.report.kind is RegionKind.STRIP_PER
        assert info.value.report.worst_index == (1, 1)
        assert info.value.report.margin == pytest.approx(-0.2)
        rep = approx_log_strip(ComplexMatrix(a), 0.7, 0.1, force=True)
        assert rep.error_bound is None
        a[0, 0] = 1.25
        assert approx_log_strip(ComplexMatrix(a), 0.7, 0.1).error_bound <= 0.1
        a[2, 1] = 1.35
        with pytest.raises(RegionViolation, match=r"outside strip-per at index \(3, 2\)"):
            approx_log_strip(ComplexMatrix(a), 0.7, 0.1)
        # tensors: |1 - a| <= eta, here broken on the high side
        t = np.full((3, 3, 3), 0.95)
        t[1, 2, 0] = 1.2
        with pytest.raises(RegionViolation, match=r"outside strip-tensor at index \(2, 3, 1\)") as info:
            approx_log_strip(ComplexTensor(t), 0.1, 0.1)
        assert info.value.report.eta == 0.1 and info.value.report.tau == 0.0
        rep = approx_log_strip(ComplexTensor(t), 0.1, 0.1, force=True)
        assert rep.error_bound is None

    def test_entries_above_one_certified(self):
        # the strip domain is |1 - a| <= 1 - delta, so entries reach 2 - delta
        rng = np.random.default_rng(56)
        paths = set()
        for delta, epsilon in ((0.7, 0.1), (0.9, 1e-3), (0.6, 0.1)):
            for size in (2, 4, 6):
                raw = rng.uniform(delta, 2.0 - delta, (size, size))
                for value, exact in (
                    (ComplexMatrix(raw), permanent_exact),
                    (SymmetricComplexMatrix((raw + raw.T) / 2), hafnian_exact),
                ):
                    rep = approx_log_strip(value, delta, epsilon)
                    realized = abs(rep.log_value - complex(np.log(exact(value))))
                    assert realized <= rep.error_bound <= epsilon
                    paths.add(rep.path)
        assert {"strip-roots", "strip-fft (z* outside the loop)"} <= paths

    def test_delta_validated(self):
        a = ComplexMatrix(np.full((3, 3), 0.8))
        with pytest.raises(InfeasibleParameters):
            approx_log_strip(a, 0.0, 0.1)
        with pytest.raises(InfeasibleParameters):
            approx_log_strip(a, 1.5, 0.1)
        t = ComplexTensor(np.full((3, 3, 3), 0.95))
        with pytest.raises(InfeasibleParameters):
            approx_log_strip(t, -0.01, 0.1)
        with pytest.raises(EtaTooLarge):
            approx_log_strip(t, eta_d_strip(3), 0.1)

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
        # and the O(m^2) log recurrence. per n=6 at delta 0.7 has m above the
        # paper's N, so phi is built at degree m
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
            assert rep.phi_degree >= rep.degree_used
            assert rep.log_value.real == pytest.approx(_direct_strip_log(value, rep), abs=1e-13)
            reps.append(rep)
        assert reps[0].phi_degree > build_phi(reps[0].rho).N

    @pytest.mark.parametrize(
        "value, delta, epsilon, builds",
        [
            # m <= N: phi at the paper's N only
            (ComplexMatrix(np.random.default_rng(52).uniform(0.5, 1.0, (6, 6))), 0.5, 0.1, 1),
            # m = 60326 > N = 55989: phi at N, then at N' = m
            (ComplexMatrix(np.full((3, 3), 0.8)), 0.55, 1e-3, 2),
        ],
    )
    def test_phi_built_once_per_degree(self, monkeypatch, value, delta, epsilon, builds):
        made = []

        def counting(rho, degree=0):
            phi = PhiPolynomial(rho, degree)
            made.append((phi.rho, phi.N))
            return phi

        permlog.interpolation.build_phi.cache_clear()
        monkeypatch.setattr(permlog.interpolation, "PhiPolynomial", counting)
        try:
            reps = [approx_log_strip(value, delta, epsilon) for _ in range(20)]
        finally:
            permlog.interpolation.build_phi.cache_clear()
        assert len(made) == len(set(made)) == builds
        assert made[-1] == (reps[0].rho, reps[0].phi_degree)
        first = reps[0].to_dict()
        del first["elapsed_s"]
        for rep in reps[1:]:
            d = rep.to_dict()
            del d["elapsed_s"]
            assert d == first

    @pytest.mark.parametrize("pipeline, param", [(approx_log_disc, 0.3), (approx_log_strip, 0.7)])
    def test_non_finite_sum_is_infeasible(self, monkeypatch, pipeline, param):
        # a forced degree gives up the certificate, not finiteness
        if pipeline is approx_log_disc:
            a = ComplexMatrix(np.array([[5.0, -3.0], [-3.0, 5.0]]))
        else:
            a = ComplexMatrix(np.random.default_rng(53).uniform(0.7, 1.0, (3, 3)))
            monkeypatch.setattr(permlog.interpolation, "_strip_roots_sum", lambda *args: (math.nan, None))
        with pytest.raises(InfeasibleParameters, match="degree 1000 is not finite"):
            pipeline(a, param, 0.1, degree=1000, force=True)

    def test_report_serialization(self):
        rep = approx_log_strip(ComplexMatrix(np.full((3, 3), 0.85)), 0.8, 0.1)
        d = rep.to_dict()
        assert set(d) >= {"log_value", "degree_used", "error_bound", "pipeline",
                          "beta_used", "deg_g", "g0", "elapsed_s", "rho", "phi_degree"}
        assert d["log_value"][1] == pytest.approx(0.0, abs=1e-12)


def _near_ones_instances():
    """Complex per n=5, haf 2n=6 and PER 3x3x3 with |a - 1| <= 0.01, each
    with its full expansion of g and its exact oracle."""
    rng = np.random.default_rng(70)

    def dev(shape):
        return 0.01 * rng.uniform(0, 1, shape) * np.exp(2j * np.pi * rng.uniform(0, 1, shape))

    raw = dev((6, 6))
    return [
        (ComplexMatrix(1 + dev((5, 5))), g_full_expansion_permanent, permanent_exact),
        (SymmetricComplexMatrix(1 + (raw + raw.T) / 2), g_full_expansion_hafnian, hafnian_exact),
        (ComplexTensor(1 + dev((3, 3, 3))), g_full_expansion_tensor, tensor_permanent_exact),
    ]


# low degrees, degrees around 170 where k! leaves the float range, and one
# far beyond n
_ROUTE_DEGREES = (0, 1, 2, 4, 169, 170, 171, 400)


class TestDiscLogRoute:
    def test_matches_derivative_space(self):
        # ln g(0) + sum_k f^(k)(0)/k!, f = ln g, through log_derivatives on
        # g's derivatives from the full expansion. The entries sit within
        # 0.01 of 1, so f^(k)(0) stays finite up to k = 400.
        for value, full, _ in _near_ones_instances():
            coeffs = full(value).coeffs
            n = coeffs.size - 1
            for m in _ROUTE_DEGREES:
                rep = approx_log_disc(value, 0.01, 0.5, degree=m)
                g_derivs = np.zeros(m + 1, dtype=complex)
                for k in range(min(m, n) + 1):
                    g_derivs[k] = coeffs[k] * math.factorial(k)
                want = complex(np.log(coeffs[0]))
                for k, f in enumerate(log_derivatives(g_derivs), start=1):
                    # k! overflows a float past 170; divide one factor at a time
                    for j in range(1, k + 1):
                        f /= j
                    want += f
                assert abs(rep.log_value - want) <= 1e-13, (type(value).__name__, m)

    def test_matches_exact_oracle(self):
        # the certificate bounds truncation only; at m >= 169 it underflows
        # toward 0 and roundoff (~1e-15 here) dominates
        for value, _, exact_fn in _near_ones_instances():
            exact = complex(np.log(exact_fn(value)))
            for m in _ROUTE_DEGREES:
                rep = approx_log_disc(value, 0.01, 0.5, degree=m)
                assert abs(rep.log_value - exact) <= rep.error_bound + 1e-13, (type(value).__name__, m)


def _direct_strip_log(value, rep):
    """ln g(0) + sum_{k<=m} psi_k of ln r(phi(z)) through the exact truncated
    composition and the O(m^2) log recurrence, with phi at the report's degree."""
    phi = PhiPolynomial(rep.rho, rep.phi_degree)
    m = rep.degree_used
    n = value.two_n // 2 if isinstance(value, SymmetricComplexMatrix) else value.n
    chat = g_taylor_coefficients(value, min(m, n))
    inner = UnivariatePolynomial(phi.coeff_prefix(m + 1))
    comp = poly_compose_truncated(UnivariatePolynomial(chat.real), inner, m)
    psi = series_log_coeffs_direct(np.ascontiguousarray(comp.coeffs.real), m)
    return math.log(rep.g0.real) + compensated_total(psi)


class TestComposePhi:
    @pytest.mark.parametrize("rho", [1.0, 0.5, 0.3])
    def test_matches_truncated_composition(self, rho):
        # m below, at and above the paper's N, with phi built at degree
        # max(N, m) as _compose_phi requires, and r of degree 0..8 with mixed signs
        big_n = build_phi(rho).N
        rng = np.random.default_rng(int(rho * 10))
        for m in (big_n - 3, big_n, big_n + 5, 2 * big_n + 3):
            phi = PhiPolynomial(rho, m)
            inner = UnivariatePolynomial(phi.coeff_prefix(m + 1))
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
