"""Zero-free region constants and membership checks."""

import math

import numpy as np
import pytest

from permlog import (
    ComplexMatrix,
    ComplexTensor,
    EtaTooLarge,
    RegionKind,
    RegionSpec,
    ShapeMismatch,
    SymmetricComplexMatrix,
    alpha_constant,
    check_region,
    eta_d_disc,
    eta_d_l1,
    eta_d_strip,
    matching_weight_budget,
    partial_exp_poly,
    polynomial_roots,
    region_eta_max,
    tau_bound,
)


class TestConstants:
    def test_alpha_defining_equation(self):
        a = alpha_constant()
        assert abs(a * math.exp(1 + a) - 1.0) < 1e-13

    def test_alpha_frozen_value(self):
        assert alpha_constant() == pytest.approx(0.278464542761074, abs=1e-12)

    def test_disc_eta_values(self):
        assert eta_d_disc(2)[0] == pytest.approx(0.5, abs=1e-12)
        assert eta_d_disc(3)[0] == pytest.approx(math.sqrt(6) / 9, abs=1e-9)
        assert eta_d_disc(4)[0] == pytest.approx(0.1845, abs=5e-4)

    def test_disc_eta4_maximizer_closed_form(self):
        # the d=4 optimum solves cos(theta) = (1 + sqrt(33))/8; theta is
        # only localizable to ~1e-8 because the objective is flat there
        eta, theta = eta_d_disc(4)
        assert math.cos(theta) == pytest.approx((1 + math.sqrt(33)) / 8, abs=1e-7)
        assert eta == pytest.approx(
            math.sin(theta / 2) * math.cos(3 * theta / 2), abs=1e-12
        )

    def test_strip_eta_values(self):
        assert eta_d_strip(2) == pytest.approx(1.0, abs=1e-12)
        assert eta_d_strip(3) == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
        assert eta_d_strip(4) == pytest.approx(2 - math.sqrt(3), abs=1e-12)

    def test_l1_eta_values(self):
        a = alpha_constant()
        assert eta_d_l1(2) == pytest.approx(a / 4, abs=1e-12)
        assert eta_d_l1(3) == pytest.approx(a**2 * 4 / 27, abs=1e-12)

    def test_matching_weight_budget(self):
        assert matching_weight_budget(2) == pytest.approx(0.25, abs=1e-15)
        assert matching_weight_budget(3) == pytest.approx(4 / 27, abs=1e-15)

    def test_tau_bound_formula(self):
        eta = 0.1
        for d in (2, 3, 4):
            expect = (1 - eta) * math.sin(
                math.pi / (4 * (d - 1)) - math.atan(eta)
            )
            assert tau_bound(eta, d) == pytest.approx(expect, rel=1e-12)

    def test_tau_bound_rejects_wide_eta(self):
        with pytest.raises(EtaTooLarge):
            tau_bound(1.0, 2)
        with pytest.raises(EtaTooLarge):
            tau_bound(0.5, 3)  # atan(0.5) > pi/8

    def test_region_eta_max_table(self):
        assert region_eta_max(RegionKind.DISC_PER) == pytest.approx(0.5)
        assert region_eta_max(RegionKind.DISC_HAF) == pytest.approx(0.5)
        assert region_eta_max(RegionKind.DISC_TENSOR, 3) == pytest.approx(
            math.sqrt(6) / 9
        )
        assert region_eta_max(RegionKind.STRIP_PER) == pytest.approx(1.0)
        assert region_eta_max(RegionKind.L1_PER) == pytest.approx(
            alpha_constant() / 4
        )


class TestPartialExpPoly:
    def test_small_coefficients(self):
        p = partial_exp_poly(2)
        assert np.allclose(p.coeffs, [1.0, 1.0, 0.5])

    def test_n1_root(self):
        roots = polynomial_roots(partial_exp_poly(1))
        assert roots[0] == pytest.approx(-1.0)
        assert abs(roots[0]) > alpha_constant()

    def test_n2_roots(self):
        roots = polynomial_roots(partial_exp_poly(2))
        assert sorted(abs(r) for r in roots) == pytest.approx(
            [math.sqrt(2)] * 2, rel=1e-10
        )
        assert min(abs(r) for r in roots) > 2 * alpha_constant()

    def test_size_guard(self):
        with pytest.raises(Exception):
            partial_exp_poly(171)


class TestRegionSpec:
    def test_strict_eta_bound(self):
        with pytest.raises(EtaTooLarge):
            RegionSpec(kind=RegionKind.DISC_PER, eta=0.5)
        RegionSpec(kind=RegionKind.DISC_PER, eta=0.499999)

    def test_strip_requires_tau(self):
        with pytest.raises(Exception):
            RegionSpec(kind=RegionKind.STRIP_PER, eta=0.5)

    def test_strip_tau_strictly_below_bound(self):
        tb = tau_bound(0.5, 2)
        with pytest.raises(Exception):
            RegionSpec(kind=RegionKind.STRIP_PER, eta=0.5, tau=tb)
        RegionSpec(kind=RegionKind.STRIP_PER, eta=0.5, tau=tb * 0.999)

    def test_non_strip_rejects_tau(self):
        with pytest.raises(Exception):
            RegionSpec(kind=RegionKind.DISC_PER, eta=0.3, tau=0.1)

    def test_matrix_kinds_require_d2(self):
        with pytest.raises(Exception):
            RegionSpec(kind=RegionKind.DISC_PER, eta=0.3, d=3)


class TestCheckRegion:
    def test_disc_inside_and_margin(self):
        m = ComplexMatrix(np.full((3, 3), 0.8))
        rep = check_region(m, RegionSpec(kind=RegionKind.DISC_PER, eta=0.3))
        assert rep.inside
        assert rep.margin == pytest.approx(0.1, abs=1e-12)

    def test_disc_outside_reports_worst_entry(self):
        a = np.ones((3, 3), dtype=complex)
        a[1, 2] = 1.6
        rep = check_region(ComplexMatrix(a), RegionSpec(kind=RegionKind.DISC_PER, eta=0.4))
        assert not rep.inside
        assert rep.worst_index == (2, 3)
        assert rep.worst_value == pytest.approx(1.6)

    def test_boundary_counts_as_inside(self):
        a = np.ones((2, 2))
        a[0, 0] = 0.75  # deviation exactly 0.25 in binary
        rep = check_region(ComplexMatrix(a), RegionSpec(kind=RegionKind.DISC_PER, eta=0.25))
        assert rep.inside
        assert rep.margin == pytest.approx(0.0, abs=1e-15)

    def test_strip_membership(self):
        tb = tau_bound(0.5, 2)
        spec = RegionSpec(kind=RegionKind.STRIP_PER, eta=0.5, tau=tb * 0.999)
        a = np.full((3, 3), 0.6 + 0.001j)
        rep = check_region(ComplexMatrix(a), spec)
        assert rep.inside
        b = np.full((3, 3), 0.6 + 0.2j)
        rep = check_region(ComplexMatrix(b), spec)
        assert not rep.inside

    def test_zero_tau_is_the_real_segment(self):
        # tau = 0: |1 - a| <= eta on the real line, on both sides of 1
        spec = RegionSpec(kind=RegionKind.STRIP_PER, eta=0.25, tau=0.0)
        a = np.array([[0.75, 1.25], [1.0, 0.9]])
        rep = check_region(ComplexMatrix(a), spec)
        assert rep.inside and rep.tau == 0.0
        a[1, 0] = 1.375
        rep = check_region(ComplexMatrix(a), spec)
        assert not rep.inside and rep.worst_index == (2, 1)
        assert rep.margin == -0.125
        rep = check_region(ComplexMatrix(np.full((2, 2), 1.0 + 1e-9j)), spec)
        assert not rep.inside
        # a real input inside reports the real segment's slack, as at tau > 0
        a = ComplexMatrix(np.array([[1.0, 0.8], [1.0, 0.95]]))
        for tau in (0.0, 0.1):
            rep = check_region(a, RegionSpec(kind=RegionKind.STRIP_PER, eta=0.25, tau=tau))
            assert rep.inside and rep.worst_index == (1, 2) and rep.worst_value == 0.8
            assert rep.margin == pytest.approx(0.05)
        with pytest.raises(EtaTooLarge):
            RegionSpec(kind=RegionKind.STRIP_TENSOR, eta=0.1, tau=-1e-9, d=3)

    def test_l1_line_sums(self):
        a = np.ones((4, 4))
        a[0, 0] = 0.0  # one line sum of deviation 1 in row 1 and column 1
        spec = RegionSpec(kind=RegionKind.L1_PER, eta=eta_d_l1(2) * 0.999)
        rep = check_region(ComplexMatrix(a), spec)
        assert not rep.inside
        assert rep.worst_value == pytest.approx(1.0)
        sums = {(axis, i): s for axis, i, s in rep.line_sums}
        assert sums[(1, 1)] == pytest.approx(1.0)
        assert sums[(2, 2)] == pytest.approx(0.0)

    def test_l1_scale_uses_n_power(self):
        # line-sum budget for tensors scales with n^(d-1)
        t = ComplexTensor(np.ones((3, 3, 3)))
        spec = RegionSpec(kind=RegionKind.L1_TENSOR, eta=eta_d_l1(3) * 0.9, d=3)
        rep = check_region(t, spec)
        assert rep.inside
        assert len(rep.line_sums) == 9

    def test_wrong_shape_rejected(self):
        m = ComplexMatrix(np.ones((3, 3)))
        with pytest.raises(ShapeMismatch):
            check_region(m, RegionSpec(kind=RegionKind.DISC_HAF, eta=0.3))

    def test_margin_monotone_along_scaling(self):
        spec = RegionSpec(kind=RegionKind.DISC_PER, eta=0.4)
        margins = []
        for t in np.linspace(0.0, 1.0, 11):
            a = np.ones((3, 3), dtype=complex)
            a[2, 0] = 1.7 * (1 - t) + 1.0 * t
            margins.append(check_region(ComplexMatrix(a), spec).margin)
        assert all(b >= a - 1e-15 for a, b in zip(margins, margins[1:]))

    def test_haf_region_on_symmetric(self):
        s = SymmetricComplexMatrix(np.full((4, 4), 0.9))
        rep = check_region(s, RegionSpec(kind=RegionKind.DISC_HAF, eta=0.2))
        assert rep.inside
