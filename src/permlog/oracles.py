"""Exact exponential-time evaluation of per, haf, PER, and hypergraph
matching polynomials at desk scale.

These are the ground-truth oracles for every approximation test. All
enumeration orders are fixed and deterministic; summations that mix many
terms use compensated accumulation so results are bit-reproducible.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexMatrix, ComplexTensor, SymmetricComplexMatrix, WeightedHypergraph
from .errors import ShapeMismatch, SizeLimitExceeded
from .series import KahanSum

__all__ = [
    "KahanSum",
    "MatchingPolynomialCoeffs",
    "permanent_exact",
    "permanent_naive",
    "hafnian_exact",
    "tensor_permanent_exact",
    "matching_polynomial",
    "deviation_hypergraph",
]


def permanent_exact(mat):
    """Permanent by Ryser's inclusion-exclusion with Gray-code column sets.

    O(n * 2^n); the summation order is the Gray-code order, fixed for
    bit-reproducibility. Size limit n <= 14.
    """
    if not isinstance(mat, ComplexMatrix):
        raise ShapeMismatch("permanent_exact: expected ComplexMatrix")
    n, limit = mat.n, 14
    if n > limit:
        raise SizeLimitExceeded(f"permanent_exact: n={n} exceeds limit {limit}")
    cols = [mat.array[:, j].tolist() for j in range(n)]
    row_sums = [0j] * n
    acc = KahanSum()
    parity = 0
    for t in range(1, 1 << n):
        j = (t & -t).bit_length() - 1
        gray = t ^ (t >> 1)
        col = cols[j]
        if (gray >> j) & 1:
            for i in range(n):
                row_sums[i] += col[i]
        else:
            for i in range(n):
                row_sums[i] -= col[i]
        parity ^= 1
        term = 1 + 0j
        for v in row_sums:
            term *= v
        acc.add(-term if parity else term)
    value = acc.value
    return value if n % 2 == 0 else -value


def permanent_naive(mat):
    """Permanent by direct permutation-sum enumeration: the d = 2 case of
    tensor_permanent_exact.

    Reference path only (O(n! n)); independent of Ryser's permanent_exact,
    which it is checked against, and kept out of every hot path. n <= 8.
    """
    if not isinstance(mat, ComplexMatrix):
        raise ShapeMismatch("permanent_naive: expected ComplexMatrix")
    n, limit = mat.n, 8
    if n > limit:
        raise SizeLimitExceeded(f"permanent_naive: n={n} exceeds limit {limit}")
    return tensor_permanent_exact(ComplexTensor.from_matrix(mat))


def hafnian_exact(mat):
    """Hafnian via the first-row pairing recursion with bitmask memoization.

    haf A = sum_j a_{1j} haf A_j over partners j of the first remaining
    vertex. Diagonal entries are never read. Size limit 2n <= 16.
    """
    if not isinstance(mat, SymmetricComplexMatrix):
        raise ShapeMismatch("hafnian_exact: expected SymmetricComplexMatrix")
    two_n, limit = mat.two_n, 16
    if two_n > limit:
        raise SizeLimitExceeded(f"hafnian_exact: 2n={two_n} exceeds limit {limit}")
    a = mat.array.tolist()
    memo = {0: 1 + 0j}

    def haf(mask):
        got = memo.get(mask)
        if got is not None:
            return got
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        total = 0j
        ai = a[i]
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            total += ai[j] * haf(rest & ~(1 << j))
        memo[mask] = total
        return total

    return haf((1 << two_n) - 1)


def tensor_permanent_exact(ten):
    """PER by direct enumeration over (d-1)-tuples of permutations.

    The final permutation axis is evaluated vectorized in chunks; outer
    axes are walked in lexicographic order. Requires (n!)^(d-1) <= 10^7.
    """
    if not isinstance(ten, ComplexTensor):
        raise ShapeMismatch("tensor_permanent_exact: expected ComplexTensor")
    d, n = ten.d, ten.n
    n_fact, limit = math.factorial(n), 10**7
    if n_fact ** (d - 1) > limit:
        raise SizeLimitExceeded(
            f"tensor_permanent_exact: (n!)^(d-1) = {n_fact ** (d - 1)} exceeds limit {limit}"
        )
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    idx = np.arange(n)
    acc = KahanSum()
    chunk = 1 << 14
    for mid in itertools.product(perms, repeat=d - 2):
        sel = (idx,) + tuple(np.asarray(p)[idx] for p in mid) + (slice(None),)
        g = ten.array[sel]
        for lo in range(0, n_fact, chunk):
            block = perms[lo : lo + chunk]
            acc.add(np.prod(g[idx[None, :], block], axis=1).sum())
    return acc.value


@dataclass(frozen=True)
class MatchingPolynomialCoeffs:
    """weights[k] = total weight of all k-edge matchings; weights[0] = 1."""

    weights: tuple

    def __post_init__(self):
        if len(self.weights) == 0 or self.weights[0] != 1:
            raise ValueError("MatchingPolynomialCoeffs: weights[0] must be 1")

    def evaluate(self, z):
        acc = 0j
        for w in self.weights[::-1]:
            acc = acc * z + w
        return acc


def matching_polynomial(graph):
    """All W_k for a weighted hypergraph, by depth-first enumeration.

    Edges are taken in lexicographic order; each matching is visited exactly
    once (extend-by-later-edge traversal). Raises when more than 10^7
    matchings would be enumerated.
    """
    if not isinstance(graph, WeightedHypergraph):
        raise ShapeMismatch("matching_polynomial: expected WeightedHypergraph")
    masks = []
    for verts, _ in graph.edges:
        m = 0
        for v in verts:
            m |= 1 << v
        masks.append(m)
    weights = [w for _, w in graph.edges]
    n_edges = len(masks)
    max_k = graph.vertex_count // graph.d
    coeffs = [0j] * (max_k + 1)
    coeffs[0] = 1 + 0j
    count, limit = 0, 10**7

    def rec(start, used, w, k):
        nonlocal count
        for e in range(start, n_edges):
            if masks[e] & used:
                continue
            count += 1
            if count > limit:
                raise SizeLimitExceeded(
                    f"matching_polynomial: more than {limit} matchings"
                )
            nw = w * weights[e]
            coeffs[k + 1] += nw
            rec(e + 1, used | masks[e], nw, k + 1)

    rec(0, 0, 1 + 0j, 0)
    last = len(coeffs) - 1
    while last > 0 and coeffs[last] == 0:
        last -= 1
    return MatchingPolynomialCoeffs(tuple(coeffs[: last + 1]))


def deviation_hypergraph(value):
    """Complete d-partite weighted hypergraph with edge weights a - 1.

    Vertices are grouped axis-major: axis t contributes vertices
    t*n .. t*n + n - 1, and the edge through (i_1, ..., i_d) carries weight
    entry - 1. Matrices are treated as d = 2 tensors.
    """
    if isinstance(value, ComplexMatrix):
        ten = ComplexTensor.from_matrix(value)
    elif isinstance(value, ComplexTensor):
        ten = value
    else:
        raise ShapeMismatch("deviation_hypergraph: expected ComplexMatrix or ComplexTensor")
    d, n = ten.d, ten.n
    max_edges = 10000
    if n**d > max_edges:
        raise SizeLimitExceeded(f"deviation_hypergraph: n^d = {n**d} exceeds {max_edges}")
    edges = []
    for combo in itertools.product(range(n), repeat=d):
        verts = tuple(t * n + i for t, i in enumerate(combo))
        edges.append((verts, complex(ten.array[combo]) - 1))
    return WeightedHypergraph(d=d, vertex_count=d * n, edges=edges)
