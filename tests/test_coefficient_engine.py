"""The truncated inclusion-exclusion engine `g_taylor_coefficients`.

It is checked against the tuple-sum route `g_derivatives_*` on complex
and real inputs, against exact rational arithmetic over the definition of
g (a sum over permutations or perfect matchings, independent of both float
routes), for its float64 route on real inputs against complex128, for its
budget guard and for its memory.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import permlog.interpolation
from permlog import (
    BudgetExceeded,
    ComplexMatrix,
    ComplexTensor,
    ShapeMismatch,
    SymmetricComplexMatrix,
    g_derivatives_hafnian,
    g_derivatives_permanent,
    g_derivatives_tensor,
    g_taylor_coefficients,
)
from permlog.series import KahanSum


def _normalized(g_derivs):
    """c_k = g^(k)(0) / (k! g(0)) from a derivative list."""
    return np.array([g_derivs[k] / (math.factorial(k) * g_derivs[0]) for k in range(len(g_derivs))])


def _assert_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def _complex_disc(rng, shape, radius):
    return 1.0 + radius * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))


def _real_disc(rng, shape, radius):
    return 1.0 + radius * rng.uniform(-1, 1, shape)


class TestAgreesWithTupleSums:
    def test_permanent_every_truncation(self):
        rng = np.random.default_rng(101)
        for n in range(1, 7):
            a = ComplexMatrix(_complex_disc(rng, (n, n), 0.4))
            for m in range(n + 1):
                _assert_close(g_taylor_coefficients(a, m), _normalized(g_derivatives_permanent(a, m)))

    def test_hafnian_every_truncation(self):
        rng = np.random.default_rng(102)
        for two_n in (2, 4, 6, 8):
            raw = _complex_disc(rng, (two_n, two_n), 0.3)
            s = SymmetricComplexMatrix((raw + raw.T) / 2.0)
            for m in range(two_n // 2 + 1):
                _assert_close(g_taylor_coefficients(s, m), _normalized(g_derivatives_hafnian(s, m)))

    @pytest.mark.parametrize("d", [3, 4])
    def test_tensor_every_truncation(self, d):
        rng = np.random.default_rng(100 + d)
        for n in range(1, 5):
            t = ComplexTensor(_complex_disc(rng, (n,) * d, 0.3))
            for m in range(n + 1):
                _assert_close(g_taylor_coefficients(t, m), _normalized(g_derivatives_tensor(t, m)))

    def test_d2_tensor_is_the_permanent(self):
        rng = np.random.default_rng(105)
        arr = _complex_disc(rng, (6, 6), 0.4)
        for m in range(7):
            got = g_taylor_coefficients(ComplexTensor(arr), m)
            assert np.array_equal(got, g_taylor_coefficients(ComplexMatrix(arr), m))


class TestBlockBoundaries:
    """With a tiny byte budget every level of the prefix walk splits, down
    to one set per block, and at 1000 bytes the merged batches mix sizes;
    the coefficients must not move, on complex and on real inputs."""

    CASES = [
        ("per", 7, range(6)),
        ("haf", 12, range(4)),
        ("tensor3", 5, range(4)),
        ("tensor4", 4, range(3)),
        ("per-real", 7, range(6)),
        ("haf-real", 12, range(4)),
        ("tensor3-real", 5, range(4)),
    ]

    @staticmethod
    def _value(kind, n, rng):
        kind, _, real = kind.partition("-")
        entries = _real_disc if real else _complex_disc
        if kind == "per":
            return ComplexMatrix(entries(rng, (n, n), 0.4)), g_derivatives_permanent
        if kind == "haf":
            raw = entries(rng, (n, n), 0.3)
            return SymmetricComplexMatrix((raw + raw.T) / 2.0), g_derivatives_hafnian
        d = int(kind[-1])
        return ComplexTensor(entries(rng, (n,) * d, 0.3)), g_derivatives_tensor

    @pytest.mark.parametrize("kind, n, degrees", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("chunk", [1, 40, 1000])
    def test_tiny_blocks_agree(self, monkeypatch, kind, n, degrees, chunk):
        value, tuple_sums = self._value(kind, n, np.random.default_rng(120 + n))
        default = [g_taylor_coefficients(value, m) for m in degrees]
        monkeypatch.setattr(permlog.interpolation, "_ENGINE_CHUNK", chunk)
        for m, want in zip(degrees, default):
            got = g_taylor_coefficients(value, m)
            _assert_close(got, want)
            _assert_close(got, _normalized(tuple_sums(value, m)))


class TestRealRoute:
    """Real inputs run the engine in float64; complex ones in complex128."""

    @staticmethod
    def _values(rng):
        raw = _real_disc(rng, (8, 8), 0.3)
        return [
            ComplexMatrix(_real_disc(rng, (7, 7), 0.4)),
            SymmetricComplexMatrix((raw + raw.T) / 2.0),
            ComplexTensor(_real_disc(rng, (4, 4, 4), 0.3)),
        ]

    def test_real_inputs_return_complex128(self):
        for value in self._values(np.random.default_rng(130)):
            for m in range(1, 4):
                got = g_taylor_coefficients(value, m)
                assert got.dtype == np.complex128
                assert not got.imag.any()

    def test_float64_agrees_with_complex128(self):
        rng = np.random.default_rng(131)
        per, haf, ten = self._values(rng)
        for m in range(1, 4):
            w = permlog.interpolation._ryser_weights(4, m)
            b = ten.array.real - 1.0
            by_dtype = []
            for arr in (b, b.astype(complex)):
                acc = KahanSum()
                permlog.interpolation._tensor_terms(arr[None], np.ones((1, m + 1)), m, w, acc)
                by_dtype.append(acc.value)
            assert by_dtype[0].dtype == np.float64
            _assert_close(by_dtype[0].astype(complex), by_dtype[1])
            b = haf.array.real - 1.0
            real = permlog.interpolation._hafnian_coefficients(b, m)
            assert real.dtype == np.float64
            _assert_close(real.astype(complex), permlog.interpolation._hafnian_coefficients(b.astype(complex), m))

    def test_complex_route_commutes_with_conjugation(self):
        rng = np.random.default_rng(132)
        raw = _complex_disc(rng, (8, 8), 0.3)
        for value in (
            ComplexMatrix(_complex_disc(rng, (7, 7), 0.4)),
            SymmetricComplexMatrix((raw + raw.T) / 2.0),
            ComplexTensor(_complex_disc(rng, (4, 4, 4), 0.3)),
        ):
            conj = type(value)(np.conj(value.array))
            for m in range(1, 4):
                want = np.conj(g_taylor_coefficients(value, m))
                assert np.array_equal(g_taylor_coefficients(conj, m), want)


class TestMemory:
    """tracemalloc peak of one engine call on the shapes of the
    disc-truncated benchmark, at most the peak of complex128 blocks of 2^14
    elements (the engine before it sized blocks by bytes) on an x86-64
    Linux host with numpy 2.4."""

    CASES = [
        ("haf-2n20-m3", 20, 3, 1289),
        ("per-n40-m2", 40, 2, 1084),
        ("per-n180-m1", 180, 1, 1549),
        ("tensor-n6-m3", 6, 3, 746),
    ]

    @pytest.mark.parametrize("kind, n, m, peak_kb", CASES, ids=[c[0] for c in CASES])
    def test_peak_at_most_complex_blocks(self, kind, n, m, peak_kb):
        rng = np.random.default_rng(140)
        if kind.startswith("haf"):
            u = rng.uniform(0.96, 1.04, n)
            value = SymmetricComplexMatrix(np.outer(u, u))
        elif kind.startswith("per"):
            value = ComplexMatrix(rng.uniform(0.9, 1.0, (n, n)))
        else:
            value = ComplexTensor(rng.uniform(0.94, 1.0, (n, n, n)))
        tracemalloc.start()
        try:
            g_taylor_coefficients(value, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= peak_kb * 1024


def _exact_normalized(term_weights, m):
    """c_0..c_m of g(z) = sum_terms prod_{w in term} (1 + z w), exactly:
    each term contributes its elementary symmetric sums."""
    g = [Fraction(0)] * (m + 1)
    for weights in term_weights:
        e = [Fraction(1)] + [Fraction(0)] * m
        for w in weights:
            for k in range(m, 0, -1):
                e[k] += w * e[k - 1]
        g = [x + y for x, y in zip(g, e)]
    return [x / g[0] for x in g]


def _rational_deviations(rng, shape):
    """b = a - 1 with entries in {-3/10, ..., 3/10}, as Fractions and floats."""
    nums = rng.integers(-3, 4, shape)
    exact = np.vectorize(lambda x: Fraction(int(x), 10), otypes=[object])(nums)
    return exact, nums / 10.0


def _perfect_matchings(vertices):
    if not vertices:
        yield []
        return
    first, rest = vertices[0], vertices[1:]
    for i, other in enumerate(rest):
        for tail in _perfect_matchings(rest[:i] + rest[i + 1 :]):
            yield [(first, other)] + tail


class TestAgreesWithExactArithmetic:
    def test_permanent(self):
        rng = np.random.default_rng(111)
        n = 5
        exact, b = _rational_deviations(rng, (n, n))
        terms = [[exact[i, p[i]] for i in range(n)] for p in itertools.permutations(range(n))]
        for m in range(n + 1):
            want = _exact_normalized(terms, m)
            got = g_taylor_coefficients(ComplexMatrix(1.0 + b), m)
            for k in range(m + 1):
                assert got[k] == pytest.approx(float(want[k]), rel=1e-12, abs=1e-15)

    def test_hafnian(self):
        rng = np.random.default_rng(112)
        two_n = 8
        exact, b = _rational_deviations(rng, (two_n, two_n))
        exact = np.triu(exact, 1) + np.triu(exact, 1).T
        b = np.triu(b, 1) + np.triu(b, 1).T
        terms = [[exact[i, j] for i, j in pm] for pm in _perfect_matchings(list(range(two_n)))]
        for m in range(two_n // 2 + 1):
            want = _exact_normalized(terms, m)
            got = g_taylor_coefficients(SymmetricComplexMatrix(1.0 + b), m)
            for k in range(m + 1):
                assert got[k] == pytest.approx(float(want[k]), rel=1e-12, abs=1e-15)

    def test_tensor(self):
        rng = np.random.default_rng(113)
        n = 3
        exact, b = _rational_deviations(rng, (n, n, n))
        perms = list(itertools.permutations(range(n)))
        terms = [[exact[i, p[i], q[i]] for i in range(n)] for p in perms for q in perms]
        for m in range(n + 1):
            want = _exact_normalized(terms, m)
            got = g_taylor_coefficients(ComplexTensor(1.0 + b), m)
            for k in range(m + 1):
                assert got[k] == pytest.approx(float(want[k]), rel=1e-12, abs=1e-15)


class TestContract:
    def test_degree_zero_is_one(self):
        s = SymmetricComplexMatrix(np.full((4, 4), 1.5))
        assert np.array_equal(g_taylor_coefficients(s, 0), np.array([1.0 + 0j]))

    def test_degree_range_and_type(self):
        a = ComplexMatrix(np.ones((3, 3)))
        with pytest.raises(ValueError):
            g_taylor_coefficients(a, 4)
        with pytest.raises(ValueError):
            g_taylor_coefficients(a, -1)
        with pytest.raises(ShapeMismatch):
            g_taylor_coefficients(np.ones((3, 3)), 1)

    @pytest.mark.parametrize(
        "value, m, ops",
        [
            (ComplexMatrix(np.ones((10, 10))), 3, sum(math.comb(10, s) for s in range(4)) * 10 * 3),
            (ComplexTensor(np.ones((5, 5, 5))), 2, sum(math.comb(5, s) for s in range(3)) ** 2 * 5 * 2),
            (SymmetricComplexMatrix(np.ones((8, 8))), 2, sum(math.comb(8, s) * s * s for s in range(5))),
        ],
    )
    def test_budget_counts_engine_operations(self, value, m, ops):
        assert g_taylor_coefficients(value, m, budget=ops)[0] == 1.0
        with pytest.raises(BudgetExceeded):
            g_taylor_coefficients(value, m, budget=ops - 1)

    def test_budget_checked_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("subsets enumerated before the budget check")

        monkeypatch.setattr(permlog.interpolation, "_prefix_walk", no_work)
        for value, m in [
            (ComplexMatrix(np.ones((60, 60))), 10),
            (ComplexTensor(np.ones((20, 20, 20))), 5),
            (SymmetricComplexMatrix(np.ones((40, 40))), 6),
        ]:
            with pytest.raises(BudgetExceeded):
                g_taylor_coefficients(value, m)
