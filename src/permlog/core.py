"""Shared domain types: matrices, tensors, polynomials, weighted hypergraphs.

All types are immutable after construction and all operations are pure.
Entries are numpy complex128 throughout; construction rejects NaN/Inf.
Indices are 0-based internally and 1-based in error messages.
"""

import math

import numpy as np

from .errors import (
    DegreeExceedsN,
    NonzeroInnerConstant,
    ShapeMismatch,
)

__all__ = [
    "ComplexMatrix",
    "SymmetricComplexMatrix",
    "ComplexTensor",
    "UnivariatePolynomial",
    "WeightedHypergraph",
    "poly_truncate",
    "poly_compose_truncated",
    "poly_mul",
    "polynomial_roots",
    "schur_product",
]


def _as_complex_array(entries, where):
    arr = np.asarray(entries, dtype=np.complex128)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError(f"{where}: entries must be finite (no NaN/Inf)")
    arr.flags.writeable = False
    return arr


class ComplexMatrix:
    """Dense n x n complex matrix."""

    __slots__ = ("array",)

    def __init__(self, entries):
        arr = _as_complex_array(entries, "ComplexMatrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ShapeMismatch(f"ComplexMatrix: expected square 2-d array, got shape {arr.shape}")
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexMatrix is immutable")

    @property
    def n(self):
        return self.array.shape[0]

    @classmethod
    def all_ones(cls, n):
        return cls(np.ones((n, n)))

    def __repr__(self):
        return f"ComplexMatrix(n={self.n})"


class SymmetricComplexMatrix:
    """Dense 2n x 2n complex matrix, exactly symmetric; the diagonal is never
    read by the hafnian."""

    __slots__ = ("array",)

    def __init__(self, entries):
        arr = _as_complex_array(entries, "SymmetricComplexMatrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ShapeMismatch(
                f"SymmetricComplexMatrix: expected square 2-d array, got shape {arr.shape}"
            )
        if arr.shape[0] % 2 != 0:
            raise ShapeMismatch(f"SymmetricComplexMatrix: side must be even, got {arr.shape[0]}")
        if not np.array_equal(arr, arr.T):
            i, j = np.argwhere(arr != arr.T)[0]
            raise ShapeMismatch(
                f"SymmetricComplexMatrix: entry ({i + 1},{j + 1}) differs from its transpose"
            )
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricComplexMatrix is immutable")

    @property
    def two_n(self):
        return self.array.shape[0]

    @classmethod
    def all_ones(cls, two_n):
        return cls(np.ones((two_n, two_n)))

    @classmethod
    def from_upper(cls, entries):
        """Build from an arbitrary square array by copying the upper triangle
        onto the lower one (diagonal kept as given)."""
        arr = np.asarray(entries, dtype=np.complex128).copy()
        iu = np.triu_indices(arr.shape[0], k=1)
        arr[(iu[1], iu[0])] = arr[iu]
        return cls(arr)

    def __repr__(self):
        return f"SymmetricComplexMatrix(two_n={self.two_n})"


class ComplexTensor:
    """Dense d-dimensional n x ... x n complex array, d >= 2.

    Entry order is C order over (i_1, ..., i_d), which matches the documented
    lexicographic index order. d=2 carries the same data as ComplexMatrix.
    """

    __slots__ = ("array",)

    def __init__(self, entries, d=None, n=None):
        arr = np.asarray(entries, dtype=np.complex128)
        if d is not None and n is not None and arr.ndim == 1:
            if arr.size != n**d:
                raise ShapeMismatch(
                    f"ComplexTensor: flat length {arr.size} does not equal n^d = {n**d}"
                )
            arr = arr.reshape((n,) * d)
        arr = _as_complex_array(arr, "ComplexTensor")
        if arr.ndim < 2:
            raise ShapeMismatch(f"ComplexTensor: need d >= 2 dimensions, got {arr.ndim}")
        if len(set(arr.shape)) != 1 or arr.shape[0] == 0:
            raise ShapeMismatch(f"ComplexTensor: all sides must be equal, got shape {arr.shape}")
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexTensor is immutable")

    @property
    def d(self):
        return self.array.ndim

    @property
    def n(self):
        return self.array.shape[0]

    @classmethod
    def all_ones(cls, d, n):
        return cls(np.ones((n,) * d))

    @classmethod
    def from_matrix(cls, mat):
        return cls(mat.array)

    def to_matrix(self):
        if self.d != 2:
            raise ShapeMismatch(f"ComplexTensor: to_matrix needs d=2, have d={self.d}")
        return ComplexMatrix(self.array)

    def __repr__(self):
        return f"ComplexTensor(d={self.d}, n={self.n})"


class WeightedHypergraph:
    """d-uniform hypergraph with one complex weight per edge.

    Edges are stored as sorted vertex tuples in lexicographic order;
    multi-edges (same vertex set) are rejected.
    """

    __slots__ = ("d", "vertex_count", "edges")

    def __init__(self, d, vertex_count, edges):
        if d < 2:
            raise ShapeMismatch(f"WeightedHypergraph: d must be >= 2, got {d}")
        if vertex_count < 1:
            raise ShapeMismatch("WeightedHypergraph: vertex_count must be positive")
        normalized = []
        for verts, weight in edges:
            vt = tuple(sorted(int(v) for v in verts))
            if len(vt) != d or len(set(vt)) != d:
                raise ShapeMismatch(
                    f"WeightedHypergraph: edge {vt} must have exactly {d} distinct vertices"
                )
            if vt[0] < 0 or vt[-1] >= vertex_count:
                raise ShapeMismatch(f"WeightedHypergraph: edge {vt} out of vertex range")
            w = complex(weight)
            if not (np.isfinite(w.real) and np.isfinite(w.imag)):
                raise ValueError("WeightedHypergraph: weights must be finite")
            normalized.append((vt, w))
        normalized.sort(key=lambda ew: ew[0])
        for a, b in zip(normalized, normalized[1:]):
            if a[0] == b[0]:
                raise ShapeMismatch(f"WeightedHypergraph: duplicate edge {a[0]}")
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "vertex_count", int(vertex_count))
        object.__setattr__(self, "edges", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("WeightedHypergraph is immutable")

    def __repr__(self):
        return (
            f"WeightedHypergraph(d={self.d}, vertices={self.vertex_count}, "
            f"edges={len(self.edges)})"
        )


def _normalize_coeffs(coeffs):
    arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
    if arr.ndim != 1:
        raise ShapeMismatch("UnivariatePolynomial: coefficients must be one-dimensional")
    # trailing-zero stripping is exact, not epsilon: truncation must stay algebraic
    last = arr.size - 1
    while last > 0 and arr[last] == 0:
        last -= 1
    arr = arr[: last + 1].copy()
    arr.flags.writeable = False
    return arr


class UnivariatePolynomial:
    """Polynomial with complex coefficients, coeffs[k] = coefficient of z^k.

    Trailing zero coefficients are stripped exactly on construction; the zero
    polynomial is a single zero coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = _normalize_coeffs(coeffs)
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("UnivariatePolynomial: coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("UnivariatePolynomial is immutable")

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __call__(self, z):
        acc = np.zeros_like(np.asarray(z, dtype=np.complex128))
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc if acc.ndim else complex(acc)

    def __eq__(self, other):
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self):
        return f"UnivariatePolynomial(degree={self.degree})"


def poly_truncate(p, m):
    """Discard all monomials of degree higher than m."""
    if m < 0:
        raise ValueError("poly_truncate: m must be >= 0")
    return UnivariatePolynomial(p.coeffs[: m + 1])


def poly_mul(p, q):
    """Plain polynomial product."""
    return UnivariatePolynomial(np.convolve(p.coeffs, q.coeffs))


def poly_compose_truncated(outer, inner, m):
    """outer(inner(z)) with all monomials of degree > m discarded.

    Horner-style: no intermediate exceeds degree m, which requires
    inner(0) = 0 so that low-order coefficients are final once produced.
    """
    if m < 0:
        raise ValueError("poly_compose_truncated: m must be >= 0")
    if inner.coeffs[0] != 0:
        raise NonzeroInnerConstant(
            f"poly_compose_truncated: inner(0) = {inner.coeffs[0]} must be exactly 0"
        )
    inner_c = inner.coeffs[: m + 1]
    acc = np.array([outer.coeffs[-1]], dtype=np.complex128)
    for k in range(outer.coeffs.size - 2, -1, -1):
        acc = np.convolve(acc, inner_c)[: m + 1]
        acc[0] += outer.coeffs[k]
    return UnivariatePolynomial(acc)


def polynomial_roots(p):
    """All complex roots, via the companion matrix with balancing.

    Intended as a cross-check oracle at desk scale, not a hot-path tool.
    """
    if p.degree == 0:
        return np.array([], dtype=np.complex128)
    return np.roots(p.coeffs[::-1])


def schur_product(f, g, n):
    """Coefficient-wise product normalized by binomials:
    h_k = f_k * g_k / C(n, k) for k = 0..n."""
    if f.degree > n or g.degree > n:
        raise DegreeExceedsN(
            f"schur_product: degrees ({f.degree}, {g.degree}) must not exceed n={n}"
        )
    fc = np.zeros(n + 1, dtype=np.complex128)
    gc = np.zeros(n + 1, dtype=np.complex128)
    fc[: f.coeffs.size] = f.coeffs
    gc[: g.coeffs.size] = g.coeffs
    out = np.array([fc[k] * gc[k] / math.comb(n, k) for k in range(n + 1)])
    return UnivariatePolynomial(out)
