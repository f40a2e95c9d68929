"""The strip roots route: the log sum from the certified roots of g, with
phi built at degree N' >= m, and the root guard it rests on."""

import math

import numpy as np
import pytest

from permlog import (
    ComplexMatrix,
    ComplexTensor,
    SymmetricComplexMatrix,
    approx_log_strip,
    build_phi,
    hafnian_exact,
    permanent_exact,
    tensor_permanent_exact,
)
from permlog.interpolation import (
    _UNIT_ROUNDOFF,
    _certified_roots,
    _compose_phi,
    _gauss_legendre,
    _phi_quadrature,
    _strip_roots_sum,
    _taylor_shift,
    g_taylor_coefficients,
)
from permlog.series import series_log_prefix_sum


def _kind_n(value):
    return value.two_n // 2 if isinstance(value, SymmetricComplexMatrix) else value.n


def _both_routes(value, param):
    """(report, roots-route sum, FFT-route sum) of the same strip op."""
    rep = approx_log_strip(value, param, 0.1)
    phi = build_phi(rep.rho)
    m = rep.degree_used
    chat = g_taylor_coefficients(value, _kind_n(value)).real
    roots_sum, why = _strip_roots_sum(chat, phi, m)
    assert why is None
    fft_sum = series_log_prefix_sum(_compose_phi(chat, phi, m), m)
    return rep, roots_sum, fft_sum


def _symmetric(rng, two_n, low):
    raw = rng.uniform(low, 1.0, (two_n, two_n))
    return SymmetricComplexMatrix((raw + raw.T) / 2.0)


def _full_contour_sum(rhat, phi, m):
    """_strip_roots_sum without the conjugate symmetry: the whole circle
    (64 nodes) and both sides of the cut, at the first radius only."""
    roots, radius = _certified_roots(rhat)
    sigma = phi.sigma
    log_alpha = math.log(phi.alpha)
    w = sigma * roots
    re_w = w.real - sigma * radius
    free = np.abs(w.imag) - sigma * radius > math.pi
    inner = (m + 1) * float(np.max(-np.log1p(-np.exp(-re_w[~free])), initial=0.0))
    r = min(max(1.0, math.e**2 * inner), -(m + 1) * log_alpha / math.e**2)

    def log_sum(v):
        return np.log1p(v[:, None] / w[None, :]).sum(axis=1)

    def weight(s, decay):
        u = s / (m + 1)
        return np.exp((m + 1) * log_alpha - decay * (m / (m + 1))) / (
            -(np.expm1(u) + (1.0 - phi.alpha)) * (m + 1)
        )

    x, wx = _gauss_legendre()
    theta = 0.5 * math.pi * np.concatenate((x + 1.0, x + 3.0))
    theta_w = 0.5 * math.pi * np.concatenate((wx, wx))
    nodes, weights = _phi_quadrature()

    def hankel(r):
        s = r * np.exp(1j * theta)
        v = np.log(-np.expm1(s / (m + 1)))
        loop = -np.sum(theta_w * log_sum(v) * weight(s, s) * s) / (2.0 * math.pi)
        s = r + nodes * ((m + 1) / m)
        v = np.log(np.expm1(s / (m + 1))).astype(np.complex128)
        jump = log_sum(v - 1j * math.pi) - log_sum(v + 1j * math.pi)
        rays = np.sum(weights * jump * weight(s, r)) * ((m + 1) / m) / (2j * math.pi)
        return loop + rays

    at_one = -math.log1p(-phi.alpha) / sigma
    r_at_one = float(np.polynomial.polynomial.polyval(at_one, rhat))
    return math.log(abs(r_at_one)) + float(hankel(r).real)


def _taylor_shift_by_steps(c, x, rows):
    """The Taylor shift one synthetic-division step at a time, the reference
    for _taylor_shift's anti-diagonals: pass k leaves b_k in row k."""
    deg = c.size - 1
    b = np.repeat(np.asarray(c, dtype=np.complex128)[:, None], x.size, axis=1)
    err = np.zeros(b.shape)
    ax = np.abs(x)
    for k in range(min(rows, deg)):
        for j in range(deg - 1, k - 1, -1):
            prod = x * b[j + 1]
            b[j] += prod
            err[j] += ax * err[j + 1] + _UNIT_ROUNDOFF * (np.abs(b[j]) + 3.0 * np.abs(prod))
    return b[:rows], err[:rows]


def _shift_cases(rng, complex_coefficients):
    """(c, x, rows) for deg 1..14, every row count 0..deg + 1 and complex x."""
    for deg in range(1, 15):
        for size in (1, 3, 8):
            c = np.concatenate(([1.0], rng.uniform(-1.0, 1.0, deg)))
            if complex_coefficients:
                c = c + 1j * np.concatenate(([0.0], rng.uniform(-1.0, 1.0, deg)))
            x = rng.normal(size=size) + 1j * rng.normal(size=size)
            for rows in range(deg + 2):
                yield c, x, rows


def _newton_by_shift(c):
    """The polished start points as three Newton steps on the first two rows
    of the running-error Taylor shift give them."""
    c = c[: np.flatnonzero(c)[-1] + 1]
    x = np.roots(c[::-1]).astype(np.complex128)
    for _ in range(3):
        b, _ = _taylor_shift(c, x, 2)
        x = x - b[0] / b[1]
    return x


def _random_real_polys(rng, count):
    for _ in range(count):
        deg = int(rng.integers(2, 9))
        yield np.concatenate(([1.0], rng.uniform(-1.0, 1.0, deg)))


_MATCHES_FFT_CASES = [
    (lambda rng: ComplexMatrix(rng.uniform(0.5, 1.0, (6, 6))), 0.5),
    (lambda rng: ComplexMatrix(rng.uniform(0.5, 1.0, (8, 8))), 0.5),
    (lambda rng: _symmetric(rng, 8, 0.5), 0.5),
    (lambda rng: ComplexTensor(rng.uniform(0.75, 1.0, (3, 3, 3))), 0.25),
]
_MATCHES_FFT_IDS = ["per6", "per8", "haf8", "tensor-e0.25"]


def _far_pair(phi):
    # |Im sigma zeta| > pi: ln(1 - Phi/zeta) has no singularity off the cut
    roots = np.array([-0.5 + 4.0j / phi.sigma, -0.5 - 4.0j / phi.sigma])
    return np.real(np.poly(roots)[::-1] / np.prod(-roots))


class TestTaylorShift:
    def test_real_coefficients_match_steps_bit_for_bit(self):
        # the strip pipeline passes only real coefficients
        for c, x, rows in _shift_cases(np.random.default_rng(91), False):
            b, err = _taylor_shift(c, x, rows)
            want_b, want_err = _taylor_shift_by_steps(c, x, rows)
            assert b.shape == want_b.shape == (rows, x.size)
            assert np.array_equal(b, want_b) and np.array_equal(err, want_err)

    def test_complex_coefficients_agree_within_ulps(self):
        # numpy's complex products may round by shape; the pipeline passes
        # real coefficients only, so here the last bit or two may differ
        for c, x, rows in _shift_cases(np.random.default_rng(92), True):
            b, err = _taylor_shift(c, x, rows)
            want_b, want_err = _taylor_shift_by_steps(c, x, rows)
            assert np.all(np.abs(b - want_b) <= 4.0 * _UNIT_ROUNDOFF * np.abs(want_b))
            assert np.all(np.abs(err - want_err) <= 4.0 * _UNIT_ROUNDOFF * want_err)


class TestConjugateSymmetry:
    def test_roots_of_real_polynomials_come_in_exact_pairs(self):
        rng = np.random.default_rng(86)
        certified = 0
        for c in _random_real_polys(rng, 400):
            got = _certified_roots(c)
            if got is None:
                continue
            certified += 1
            roots, radius = got
            order = np.lexsort((roots.imag, roots.real))
            mirror = np.lexsort((-roots.imag, roots.real))
            assert np.array_equal(roots[order], np.conj(roots[mirror]))
            assert np.array_equal(radius[order], radius[mirror])
        assert certified >= 300

    def test_newton_by_horner_matches_taylor_shift_steps(self):
        rng = np.random.default_rng(87)
        polys = list(_random_real_polys(rng, 200))
        # complex coefficients take the same steps
        want = np.array([1.5 + 0.5j, -2.0 + 1.0j, 3.0j])
        polys.append(np.poly(want)[::-1] / np.prod(-want))
        for c in polys:
            got = _certified_roots(c)
            if got is not None:
                assert np.array_equal(got[0], _newton_by_shift(c))

    @pytest.mark.parametrize(
        "make, param",
        [*_MATCHES_FFT_CASES, (lambda rng: ComplexMatrix(rng.uniform(0.5, 1.0, (12, 12))), 0.5)],
        ids=[*_MATCHES_FFT_IDS, "per12"],
    )
    def test_half_contour_matches_full_contour(self, make, param):
        # the reference takes the complex log on both sides of the cut, so
        # this also checks the rays' Im F from the arguments alone
        value = make(np.random.default_rng(81))
        rep = approx_log_strip(value, param, 0.1)
        phi = build_phi(rep.rho)
        chat = g_taylor_coefficients(value, _kind_n(value)).real
        half, why = _strip_roots_sum(chat, phi, rep.degree_used)
        assert why is None
        assert abs(half - _full_contour_sum(chat, phi, rep.degree_used)) <= 1e-15

    def test_half_contour_matches_full_contour_far_pair(self):
        phi = build_phi(0.3)
        far = _far_pair(phi)
        half, why = _strip_roots_sum(far, phi, 300)
        assert why is None
        assert abs(half - _full_contour_sum(far, phi, 300)) <= 1e-15


class TestStripRootsRoute:
    @pytest.mark.parametrize("make, param", _MATCHES_FFT_CASES, ids=_MATCHES_FFT_IDS)
    def test_matches_fft_route(self, make, param):
        # m is about 6e5 for the matrix kinds and 61101 for the tensor
        rep, roots_sum, fft_sum = _both_routes(make(np.random.default_rng(81)), param)
        assert rep.path == "strip-roots"
        assert rep.degree_used <= rep.phi_degree
        assert abs(roots_sum - fft_sum) <= 1e-11
        assert rep.log_value.real == math.log(rep.g0.real) + roots_sum
        assert rep.log_value.imag == 0.0

    def test_workload_like_instances_take_roots(self):
        rng = np.random.default_rng(82)
        for _ in range(3):
            t = ComplexTensor(rng.uniform(0.8, 1.0, (3, 3, 3)))
            rep, roots_sum, fft_sum = _both_routes(t, 0.2)
            assert rep.degree_used == 1677 and rep.path == "strip-roots"
            assert abs(roots_sum - fft_sum) <= 1e-12
        a = ComplexMatrix(np.array([[0.9, 0.95], [0.85, 1.0]]))
        assert approx_log_strip(a, 0.7, 0.1).path == "strip-roots"

    def test_degree_past_n_takes_fft(self):
        # m = 60326 is past the paper's N = 55989, so phi is built at degree
        # m; the triple root sends the op to the FFT route, which composes
        # that phi
        a = ComplexMatrix(np.full((3, 3), 0.8))
        rep = approx_log_strip(a, 0.55, 1e-3)
        assert rep.path == "strip-fft (root guard)"
        assert rep.to_dict()["path"] == "strip-fft (root guard)"
        assert build_phi(rep.rho).N < rep.degree_used <= rep.phi_degree
        assert abs(rep.log_value - math.log(permanent_exact(a).real)) <= rep.error_bound

    @pytest.mark.parametrize("entry, delta", [(0.8, 0.55), (0.9, 0.7), (0.6, 0.5)])
    def test_constant_matrix_fails_guard(self, entry, delta):
        # g = n! (1 - (1 - entry) x)^n has one n-fold root
        a = ComplexMatrix(np.full((3, 3), entry))
        assert _certified_roots(g_taylor_coefficients(a, 3).real) is None
        rep = approx_log_strip(a, delta, 0.1)
        assert rep.path == "strip-fft (root guard)"
        assert rep.log_value.real == pytest.approx(math.log(permanent_exact(a).real), abs=0.1)

    def test_low_degree_quadrature_sends_to_fft(self):
        # at m = 3..8 the pole at z = 1 sits too close to the branch point
        # for the loop; the quadrature's own estimate refuses those degrees
        rng = np.random.default_rng(84)
        s = _symmetric(rng, 6, 0.7)
        paths = [approx_log_strip(s, 0.7, 0.1, degree=m, force=True).path for m in (3, 5, 8)]
        assert paths == ["strip-fft (quadrature error)"] * 3
        below_n = approx_log_strip(s, 0.7, 0.1, degree=2, force=True)
        assert below_n.path == "strip-fft (quadrature error)"

    def test_degree_below_n_takes_roots(self):
        # r cut at degree m < n has the same psi_1..psi_m, so both routes
        # sum the same series from the truncated coefficients
        a = ComplexMatrix(np.random.default_rng(87).uniform(0.8, 1.0, (16, 16)))
        for m in (11, 12, 15):
            rep = approx_log_strip(a, 0.8, 0.1, degree=m, force=True)
            phi = build_phi(rep.rho)
            assert phi.N >= m
            fft = series_log_prefix_sum(_compose_phi(g_taylor_coefficients(a, m).real, phi, m), m)
            assert rep.log_value.real == pytest.approx(math.log(math.factorial(16)) + fft, abs=1e-12)
            assert rep.path == ("strip-fft (z* outside the loop)" if m == 11 else "strip-roots")

    def test_root_off_the_cluster_is_refused(self):
        phi = build_phi(0.3)

        def rhat(roots):
            return np.real(np.poly(roots)[::-1] / np.prod(-roots))

        # a negative root puts z* far out on the negative axis, outside the loop
        assert _strip_roots_sum(rhat(np.array([-2.0, 8.0])), phi, 300) == (None, "z* outside the loop")
        far = _far_pair(phi)
        total, why = _strip_roots_sum(far, phi, 300)
        assert why is None
        assert total == pytest.approx(series_log_prefix_sum(_compose_phi(far, phi, 300), 300), abs=1e-13)

    def test_paper_regime_takes_roots(self):
        # entries in [delta, 1], the paper's headline regime: every op takes
        # the roots route, whatever m is against the paper's N
        rng = np.random.default_rng(88)
        for i in range(60):
            epsilon = (0.1, 1e-3, 1e-6)[i % 3]
            kind = i // 3 % 3
            if kind == 0:
                delta = rng.uniform(0.45, 0.95)
                value = ComplexMatrix(rng.uniform(delta, 1.0, (int(rng.integers(2, 9)),) * 2))
                param, exact = delta, permanent_exact
            elif kind == 1:
                delta = rng.uniform(0.45, 0.95)
                value, param, exact = _symmetric(rng, 2 * int(rng.integers(1, 5)), delta), delta, hafnian_exact
            else:
                eta = rng.uniform(0.05, 0.25)
                value = ComplexTensor(rng.uniform(1.0 - eta, 1.0, (int(rng.integers(2, 4)),) * 3))
                param, exact = eta, tensor_permanent_exact
            rep = approx_log_strip(value, param, epsilon)
            assert rep.path == "strip-roots", i
            assert rep.degree_used <= rep.phi_degree
            assert abs(rep.log_value - complex(np.log(exact(value)))) <= rep.error_bound <= epsilon

    def test_degree_zero_names_no_route(self):
        a = ComplexMatrix(np.random.default_rng(85).uniform(0.7, 1.0, (3, 3)))
        rep = approx_log_strip(a, 0.7, 0.1, degree=0, force=True)
        assert rep.path == "strip (degree 0)"
        assert rep.log_value == complex(math.log(6.0))

    def test_no_roots(self):
        rep = approx_log_strip(ComplexMatrix(np.ones((3, 3))), 0.7, 0.1)
        assert rep.path == "strip-roots"
        assert rep.log_value == complex(math.log(6.0))


class TestRootGuard:
    def test_simple_roots_certified(self):
        want = np.array([2.0, 3.0, -5.0, 1.5 + 2.0j, 1.5 - 2.0j])
        c = np.real(np.poly(want)[::-1] / np.prod(-want))
        roots, radius = _certified_roots(c)
        assert roots.size == want.size and np.all(radius <= 1e-12)
        for w in want:
            assert np.any(np.abs(roots - w) <= radius)

    def test_multiple_root_fails(self):
        assert _certified_roots(np.array([1.0, -1.0, 0.25])) is None  # (1 - x/2)^2
        close = np.real(np.poly([2.0, 2.0 + 1e-9])[::-1] / (2.0 * (2.0 + 1e-9)))
        assert _certified_roots(close) is None

    def test_trailing_zeros_and_constant(self):
        roots, radius = _certified_roots(np.array([1.0, -0.5, 0.0, 0.0]))
        assert roots.size == 1 and abs(roots[0] - 2.0) <= radius[0]
        roots, radius = _certified_roots(np.array([1.0, 0.0]))
        assert roots.size == 0 and radius.size == 0

    def test_complex_coefficients(self):
        want = np.array([1.5 + 0.5j, -2.0 + 1.0j, 3.0j])
        c = np.poly(want)[::-1] / np.prod(-want)
        roots, radius = _certified_roots(c)
        for w in want:
            assert np.any(np.abs(roots - w) <= radius)
