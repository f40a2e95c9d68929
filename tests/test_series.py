"""Truncated power-series arithmetic used by the strip pipeline."""

import math

import numpy as np
import pytest

from permlog import ZeroBaseValue
from permlog.oracles import KahanSum
from permlog.series import (
    compensated_total,
    good_fft_size,
    series_log_coeffs_direct,
    series_log_prefix_sum,
    series_mul,
    series_reciprocal,
)


class TestGoodFftSize:
    def test_small_values(self):
        assert good_fft_size(1) == 1
        assert good_fft_size(2) == 2
        assert good_fft_size(7) == 8
        assert good_fft_size(17) == 18
        assert good_fft_size(65) == 72

    def test_is_5_smooth_and_minimal(self):
        for n in (100, 1000, 12345, 99999):
            s = good_fft_size(n)
            assert s >= n
            k = s
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            assert k == 1
            # nothing 5-smooth sits strictly between n and s
            for cand in range(n, s):
                j = cand
                for p in (2, 3, 5):
                    while j % p == 0:
                        j //= p
                assert j != 1


class TestSeriesMul:
    def test_matches_convolve_short(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(37)
        b = rng.standard_normal(21)
        got = series_mul(a, b, 57)
        want = np.convolve(a, b)[:57]
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_fft_path_matches_direct(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(1500)
        b = rng.standard_normal(1200)
        got = series_mul(a, b, 2000)  # size product crosses the FFT cutoff
        want = np.convolve(a, b)[:2000]
        scale = np.abs(want).max()
        assert np.abs(got - want).max() < 1e-10 * scale

    def test_truncation(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0])
        assert np.allclose(series_mul(a, b, 2), [4.0, 13.0])


def _root_cluster():
    c = np.array([1.0])
    for rho in (1.1, 1.15, 1.2, 1.25, 1.3):
        c = np.convolve(c, np.array([1.0, -1.0 / rho]))
    return c


class TestSeriesReciprocal:
    def test_geometric_series(self):
        # 1/(1 - z/2) has coefficients 2^-k exactly
        c = np.array([1.0, -0.5])
        r = series_reciprocal(c, 600)
        want = 0.5 ** np.arange(600)
        assert np.array_equal(r[:53], want[:53])
        assert np.allclose(r, want, rtol=1e-14)

    def test_residual_identity(self):
        rng = np.random.default_rng(23)
        c = np.zeros(400)
        c[0] = 1.0
        c[1:] = rng.standard_normal(399) * 0.3 ** np.arange(1, 400)
        r = series_reciprocal(c, 400)
        prod = np.convolve(c, r)[:400]
        want = np.zeros(400)
        want[0] = 1.0
        assert np.abs(prod - want).max() < 1e-12

    @pytest.mark.parametrize(
        "out_len", [1, 2, 255, 256, 257, 373, 513, 1000, 1024, 1025, 1026, 4097]
    )
    def test_matches_direct_recurrence(self, out_len):
        # around the 256-term base case, odd Newton targets and the first
        # stage that shares one transform of r between its two products
        # (out_len 1025: r grows from 513 terms), with c both shorter and
        # longer than out_len. Roots near +-1 keep 1/c from
        # decaying, and the tail stays below min |short| on the unit disk
        # (about 1e-3), so c has no zero there
        rng = np.random.default_rng(out_len)
        short = np.array([1.0])
        for rho in (1.001, -1.001, 3.0):
            short = np.convolve(short, np.array([1.0, -1.0 / rho]))
        tail = 1e-5 * rng.standard_normal(out_len + 7) * 0.9 ** np.arange(out_len + 7)
        long = np.concatenate((short, tail))
        inputs = [short, long]
        if out_len <= 373:
            # roots clustered in [1.1, 1.3]: 1/c grows to 334 at k = 22, then
            # decays, and Newton stages started from fewer terms than the
            # base case lose accuracy by about that growth. One stage (out_len
            # 373) stays inside the bound; by out_len 2000 the error is 3e-12
            # of the largest term
            inputs.append(_root_cluster())
        for c in inputs:
            want = np.zeros(out_len)
            want[0] = 1.0 / c[0]
            for k in range(1, out_len):
                jmax = min(k, c.size - 1)
                want[k] = -np.dot(c[1 : jmax + 1], want[k - jmax : k][::-1]) / c[0]
            got = series_reciprocal(c, out_len)
            assert got.shape == (out_len,)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_crosses_newton_stages(self):
        # out_len far above the 256-term base case exercises doubling; the
        # tail decays below the FFT noise floor so it gets an absolute bound
        c = np.array([2.0, 1.0])
        r = series_reciprocal(c, 3000)
        want = 0.5 * (-0.5) ** np.arange(3000)
        assert np.allclose(r[:60], want[:60], rtol=1e-13)
        assert np.abs(r - want).max() < 1e-13

    def test_zero_constant_rejected(self):
        with pytest.raises(ZeroBaseValue):
            series_reciprocal(np.array([0.0, 1.0]), 4)

    def test_no_terms_asked(self):
        r = series_reciprocal(np.array([2.0, 1.0]), 0)
        assert r.shape == (0,) and r.dtype == np.float64


class TestSeriesLog:
    def test_log_one_minus_z(self):
        psi = series_log_coeffs_direct(np.array([1.0, -1.0]), 12)
        want = -1.0 / np.arange(1, 13)
        assert np.allclose(psi, want, rtol=1e-14)

    def test_normalizes_constant(self):
        psi1 = series_log_coeffs_direct(np.array([1.0, -0.3, 0.1]), 9)
        psi2 = series_log_coeffs_direct(np.array([5.0, -1.5, 0.5]), 9)
        assert np.allclose(psi1, psi2, rtol=1e-13)

    def test_matches_polynomial_log_expansion(self):
        # log(prod (1 - z/rho_j)) summed term by term
        roots = np.array([2.0, -3.0, 5.0, 1.5])
        c = np.array([1.0])
        for rho in roots:
            c = np.convolve(c, np.array([1.0, -1.0 / rho]))
        m = 40
        psi = series_log_coeffs_direct(c, m)
        ks = np.arange(1, m + 1)
        want = -np.sum((1.0 / roots[:, None]) ** ks[None, :], axis=0) / ks
        assert np.allclose(psi, want, rtol=1e-12, atol=1e-15)

    def test_complex_log_one_minus_az(self):
        # log(1 - a z) = -sum_k a^k z^k / k; |a| near 1 keeps psi_400 ~ 1e-8
        a = 0.97 * np.exp(0.7j)
        for c in (np.array([1.0, -a]), np.array([2.0 - 1.0j, (-2.0 + 1.0j) * a])):
            psi = series_log_coeffs_direct(c, 400)
            assert psi.dtype == np.complex128
            ks = np.arange(1, 401)
            want = -(a**ks) / ks
            assert np.abs(psi - want).max() <= 1e-15

    def test_short_input_matches_zero_padded(self):
        # the window j >= k - deg skips only products with a zero c~ entry
        rng = np.random.default_rng(8)
        for dtype in (np.float64, np.complex128):
            for deg in (0, 1, 3, 7):
                c = rng.uniform(-0.3, 0.3, deg + 1).astype(dtype)
                if dtype is np.complex128:
                    c = c + 0.2j * rng.uniform(-1, 1, deg + 1)
                c[0] = 1.0
                for m in (1, deg, deg + 1, 60):
                    padded = np.zeros(m + 1, dtype=dtype)
                    take = min(m + 1, c.size)
                    padded[:take] = c[:take]
                    short = series_log_coeffs_direct(c, m)
                    full = series_log_coeffs_direct(padded, m)
                    assert np.abs(short - full).max(initial=0.0) <= 1e-15

    def test_prefix_sum_direct_vs_fft(self):
        # same polynomial through the O(m^2) recurrence and the FFT route,
        # around the reciprocal base case, both parities of m and the first
        # m whose products with r share one transform (m = 1025), with c
        # shorter and longer than m + 1
        roots = np.array([1.3, 2.0, -1.7, 4.0, -6.0])
        c = np.array([1.0])
        for rho in roots:
            c = np.convolve(c, np.array([1.0, -1.0 / rho]))
        closed = np.log(np.abs(1.0 - 1.0 / roots)).sum()
        signs = np.prod(np.sign(1.0 - 1.0 / roots))
        assert signs > 0
        for m in (1, 2, 255, 256, 257, 511, 512, 513, 1024, 1025, 1026, 5000, 5001):
            fft_val = series_log_prefix_sum(c, m)
            direct = series_log_coeffs_direct(c, m).sum()
            assert fft_val == pytest.approx(direct, abs=1e-12)
            if m >= 255:  # the truncated tail is below 1.3^-255
                assert fft_val == pytest.approx(closed, abs=1e-10)
            # the tail stays below min |c| on the unit disk (about 0.03)
            rng = np.random.default_rng(m)
            tail = 1e-4 * rng.standard_normal(m + 9) * 0.99 ** np.arange(m + 9)
            long = np.concatenate((c, tail))
            direct = series_log_coeffs_direct(long, m).sum()
            assert series_log_prefix_sum(long, m) == pytest.approx(direct, abs=1e-12)
        # 1/c growing before it decays (see test_matches_direct_recurrence)
        cluster = _root_cluster()
        direct = series_log_coeffs_direct(cluster, 373).sum()
        assert series_log_prefix_sum(cluster, 373) == pytest.approx(direct, abs=1e-12)

    def test_prefix_sum_zero_constant_rejected(self):
        with pytest.raises(ZeroBaseValue):
            series_log_prefix_sum(np.array([0.0, 1.0]), 4)


class TestCompensatedTotal:
    def test_matches_fsum(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(200_000) * 10.0 ** rng.integers(-8, 8, 200_000)
        assert compensated_total(v) == pytest.approx(math.fsum(v), rel=1e-12)

    def test_long_alternating_series(self):
        k = np.arange(1, 2_000_001, dtype=np.float64)
        v = (-1.0) ** (k + 1) / k
        assert compensated_total(v) == pytest.approx(math.fsum(v), abs=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        v = rng.standard_normal(300_000)
        assert compensated_total(v) == compensated_total(v)

    def test_empty(self):
        assert compensated_total(np.array([])) == 0.0

    def test_complex_matches_fsum_of_parts(self):
        # three chunks, so the Kahan carry runs on complex chunk sums
        rng = np.random.default_rng(6)
        size = 150_000
        scale = 10.0 ** rng.integers(-8, 8, size)
        v = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale
        total = compensated_total(v)
        assert isinstance(total, complex)
        assert total.real == pytest.approx(math.fsum(v.real), rel=1e-12)
        assert total.imag == pytest.approx(math.fsum(v.imag), rel=1e-12)

    def test_real_input_returns_float(self):
        assert type(compensated_total(np.arange(5.0))) is float


class TestKahanSum:
    # 1 followed by 10^4 terms of 1e-16: a plain running sum stays at 1.0,
    # while the exact total is 1 + 1e-12
    SMALL = np.array([1.0] + [1e-16] * 10_000)

    def test_real_adds_stay_float(self):
        acc = KahanSum()
        for v in self.SMALL.tolist():
            acc.add(v)
        assert type(acc.value) is float
        assert acc.value == pytest.approx(math.fsum(self.SMALL), rel=1e-15)

    def test_complex_scalar_adds(self):
        values = self.SMALL * (1.0 - 2.0j)
        acc = KahanSum()
        for v in values.tolist():
            acc.add(v)
        assert type(acc.value) is complex
        assert acc.value.real == pytest.approx(math.fsum(values.real), rel=1e-15)
        assert acc.value.imag == pytest.approx(math.fsum(values.imag), rel=1e-15)

    def test_elementwise_ndarray_adds(self):
        # one running sum per column, as the coefficient engine adds rows
        rows = self.SMALL[:, None] * np.array([1.0, -3.0, 0.5, 1e3])
        acc = KahanSum()
        for row in rows:
            acc.add(row)
        assert acc.value.dtype == np.float64 and acc.value.shape == (4,)
        for col in range(4):
            assert acc.value[col] == pytest.approx(math.fsum(rows[:, col]), rel=1e-15)
