"""Certified log-approximation pipelines.

Disc pipelines evaluate the Taylor polynomial of ln g at 1 for
g(z) = per/haf/PER(J + z(A - J)), which is root-free on |z| <= beta when the
input sits inside the matching disc or line-sum region. Strip pipelines
precompose with the disc-to-strip polynomial phi so the same certificate
reaches inputs that are only strip-bounded. Every report carries the degree
used and the certified remainder bound.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexMatrix,
    ComplexTensor,
    SymmetricComplexMatrix,
    UnivariatePolynomial,
)
from .errors import (
    BetaNotGreaterThanOne,
    BudgetExceeded,
    EtaTooLarge,
    InfeasibleParameters,
    RegionViolation,
    RhoOutOfRange,
    ShapeMismatch,
    SizeLimitExceeded,
    ZeroBaseValue,
)
from .oracles import KahanSum
from .regions import (
    RegionKind,
    RegionSpec,
    check_region,
    eta_d_strip,
    region_eta_max,
    tau_bound,
)
# series_mul stays bound here, unused: perfbench/test_refs.py checks that its
# tracer rebinds this name
from .series import series_log_prefix_sum, series_mul  # noqa: F401

__all__ = [
    "ApproxReport",
    "PhiPolynomial",
    "approx_log_disc",
    "approx_log_strip",
    "build_phi",
    "choose_degree",
    "g_derivatives_permanent",
    "g_derivatives_hafnian",
    "g_derivatives_tensor",
    "g_full_expansion_permanent",
    "g_full_expansion_hafnian",
    "g_full_expansion_tensor",
    "g_taylor_coefficients",
    "log_derivatives",
    "taylor_error_bound",
]

DEFAULT_BUDGET = 10**8

# degrees beyond this exceed the memory envelope of the series engine
MAX_STRIP_DEGREE = 1 << 26

# largest m handled in derivative space before switching to coefficients
_DERIVATIVE_SPACE_LIMIT = 170


# ---------------------------------------------------------------------------
# derivative extraction at z = 0 for g(z) = per/haf/PER(J + z(A - J))


def _ordered_tuples(n, k):
    """All ordered k-tuples of distinct indices from range(n), lex order."""
    return np.array(list(itertools.permutations(range(n), k)), dtype=np.intp).reshape(-1, k)


def g_derivatives_permanent(mat, m, budget=DEFAULT_BUDGET):
    """(g(0), g'(0), ..., g^(m)(0)) for g(z) = per(J + z(A - J)).

    g^(k)(0) = (n-k)! * sum over pairs of ordered distinct k-tuples (I, J)
    of prod_r (a[I_r, J_r] - 1). Enumeration is lexicographic; chunked
    partial sums are combined with compensation.
    """
    if not isinstance(mat, ComplexMatrix):
        raise ShapeMismatch("g_derivatives_permanent: expected ComplexMatrix")
    n = mat.n
    if m > n or m < 0:
        raise ValueError(f"g_derivatives_permanent: need 0 <= m <= n, got m={m}")
    if math.perm(n, m) ** 2 > budget:
        raise BudgetExceeded(
            f"g_derivatives_permanent: (n!/(n-m)!)^2 = {math.perm(n, m) ** 2} over budget {budget}"
        )
    b = mat.array - 1.0
    out = np.zeros(m + 1, dtype=np.complex128)
    out[0] = float(math.factorial(n))
    for k in range(1, m + 1):
        tuples = _ordered_tuples(n, k)
        t_count = tuples.shape[0]
        acc = KahanSum()
        chunk = max(1, (1 << 21) // t_count)
        for lo in range(0, t_count, chunk):
            rows = tuples[lo : lo + chunk]
            prod = np.ones((rows.shape[0], t_count), dtype=np.complex128)
            for r in range(k):
                prod *= b[rows[:, r][:, None], tuples[:, r][None, :]]
            acc.add(prod.sum())
        out[k] = float(math.factorial(n - k)) * acc.value
    return out


def _disjoint_pair_collections(two_n, max_k):
    """Weights W_k of k disjoint unordered index pairs, as a generator of
    (k, pair_list) in lexicographic order of the sorted pair lists."""
    pairs = [(i, j) for i in range(two_n) for j in range(i + 1, two_n)]
    masks = [(1 << i) | (1 << j) for i, j in pairs]

    def rec(start, used, chosen):
        for e in range(start, len(pairs)):
            if masks[e] & used:
                continue
            chosen.append(pairs[e])
            yield chosen
            if len(chosen) < max_k:
                yield from rec(e + 1, used | masks[e], chosen)
            chosen.pop()

    if max_k >= 1:
        yield from rec(0, 0, [])


def g_derivatives_hafnian(mat, m, budget=DEFAULT_BUDGET):
    """(g(0), ..., g^(m)(0)) for g(z) = haf(J + z(A - J)), 2n x 2n input.

    g^(k)(0) = k! (2n-2k)! / (2^(n-k) (n-k)!) * sum over collections of k
    disjoint unordered pairs of prod (a_pair - 1). The diagonal never enters.
    """
    if not isinstance(mat, SymmetricComplexMatrix):
        raise ShapeMismatch("g_derivatives_hafnian: expected SymmetricComplexMatrix")
    two_n = mat.two_n
    n = two_n // 2
    if m > n or m < 0:
        raise ValueError(f"g_derivatives_hafnian: need 0 <= m <= n, got m={m}")
    total_collections = sum(
        math.comb(two_n, 2 * k) * _double_factorial(2 * k - 1) for k in range(1, m + 1)
    )
    if total_collections > budget:
        raise BudgetExceeded(
            f"g_derivatives_hafnian: {total_collections} pair collections over budget {budget}"
        )
    b = (mat.array - 1.0).tolist()
    sums = [KahanSum() for _ in range(m + 1)]
    for chosen in _disjoint_pair_collections(two_n, m):
        w = 1 + 0j
        for i, j in chosen:
            w *= b[i][j]
        sums[len(chosen)].add(w)
    out = np.zeros(m + 1, dtype=np.complex128)
    out[0] = float(math.factorial(two_n) // (2**n * math.factorial(n)))
    for k in range(1, m + 1):
        pref = math.factorial(k) * math.factorial(two_n - 2 * k)
        pref //= 2 ** (n - k) * math.factorial(n - k)
        out[k] = float(pref) * sums[k].value
    return out


def _double_factorial(k):
    if k <= 0:
        return 1
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def g_derivatives_tensor(ten, m, budget=DEFAULT_BUDGET):
    """(g(0), ..., g^(m)(0)) for g(z) = PER(J + z(A - J)), d-dimensional input.

    g^(k)(0) = ((n-k)!)^(d-1) * sum over d positionally-coupled ordered
    k-tuples of distinct indices of prod_r (a[t_1[r], ..., t_d[r]] - 1).
    """
    if not isinstance(ten, ComplexTensor):
        raise ShapeMismatch("g_derivatives_tensor: expected ComplexTensor")
    d, n = ten.d, ten.n
    if m > n or m < 0:
        raise ValueError(f"g_derivatives_tensor: need 0 <= m <= n, got m={m}")
    if math.perm(n, m) ** d > budget:
        raise BudgetExceeded(
            f"g_derivatives_tensor: (n!/(n-m)!)^d = {math.perm(n, m) ** d} over budget {budget}"
        )
    b = ten.array - 1.0
    out = np.zeros(m + 1, dtype=np.complex128)
    out[0] = float(math.factorial(n)) ** (d - 1)
    rng_k = None
    for k in range(1, m + 1):
        tuples = _ordered_tuples(n, k)
        rng_k = np.arange(k)
        acc = KahanSum()
        for mids in itertools.product(range(tuples.shape[0]), repeat=d - 1):
            sel = tuple(tuples[i] for i in mids) + (slice(None),)
            sliced = b[sel]
            acc.add(np.prod(sliced[rng_k[None, :], tuples], axis=1).sum())
        out[k] = float(math.factorial(n - k)) ** (d - 1) * acc.value
    return out


def _elementary_symmetric_rows(bvals):
    """Row-wise elementary symmetric sums: for each row b of shape (c, n),
    coefficients of prod_i (1 + z b_i), shape (c, n + 1)."""
    c, n = bvals.shape
    e = np.zeros((c, n + 1), dtype=np.complex128)
    e[:, 0] = 1.0
    for i in range(n):
        e[:, 1 : i + 2] = e[:, 1 : i + 2] + bvals[:, i : i + 1] * e[:, 0 : i + 1]
    return e


def g_full_expansion_permanent(mat, limit=10):
    """All n+1 coefficients of g(z) = per(J + z(A - J)) by enumerating the n!
    permutations and expanding the linear factors. n <= 10."""
    if not isinstance(mat, ComplexMatrix):
        raise ShapeMismatch("g_full_expansion_permanent: expected ComplexMatrix")
    n = mat.n
    if n > limit:
        raise SizeLimitExceeded(f"g_full_expansion_permanent: n={n} exceeds limit {limit}")
    b = mat.array - 1.0
    idx = np.arange(n)
    coeff_sums = [KahanSum() for _ in range(n + 1)]
    chunk = 1 << 14
    perm_iter = itertools.permutations(range(n))
    while True:
        block = list(itertools.islice(perm_iter, chunk))
        if not block:
            break
        perms = np.array(block, dtype=np.intp)
        e = _elementary_symmetric_rows(b[idx[None, :], perms])
        totals = e.sum(axis=0)
        for k in range(n + 1):
            coeff_sums[k].add(totals[k])
    return UnivariatePolynomial([s.value for s in coeff_sums])


def _perfect_matchings(two_n):
    """All perfect matchings of indices 0..two_n-1 as pair lists, first-vertex
    pairing order."""
    out = []

    def rec(mask, chosen):
        if mask == 0:
            out.append(list(chosen))
            return
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            chosen.append((i, j))
            rec(rest & ~(1 << j), chosen)
            chosen.pop()

    rec((1 << two_n) - 1, [])
    return out


def g_full_expansion_hafnian(mat, limit=12):
    """All n+1 coefficients of g(z) = haf(J + z(A - J)) over the (2n-1)!!
    perfect matchings. 2n <= 12."""
    if not isinstance(mat, SymmetricComplexMatrix):
        raise ShapeMismatch("g_full_expansion_hafnian: expected SymmetricComplexMatrix")
    two_n = mat.two_n
    if two_n > limit:
        raise SizeLimitExceeded(f"g_full_expansion_hafnian: 2n={two_n} exceeds limit {limit}")
    b = mat.array - 1.0
    rows = np.array(
        [[b[i, j] for i, j in matching] for matching in _perfect_matchings(two_n)],
        dtype=np.complex128,
    )
    e = _elementary_symmetric_rows(rows)
    totals = e.sum(axis=0)
    return UnivariatePolynomial(totals)


def g_full_expansion_tensor(ten, limit=10**5):
    """All n+1 coefficients of g(z) = PER(J + z(A - J)) over the (n!)^(d-1)
    permutation tuples."""
    if not isinstance(ten, ComplexTensor):
        raise ShapeMismatch("g_full_expansion_tensor: expected ComplexTensor")
    d, n = ten.d, ten.n
    count = math.factorial(n) ** (d - 1)
    if count > limit:
        raise SizeLimitExceeded(
            f"g_full_expansion_tensor: (n!)^(d-1) = {count} exceeds limit {limit}"
        )
    b = ten.array - 1.0
    idx = np.arange(n)
    perms = [np.array(p, dtype=np.intp) for p in itertools.permutations(range(n))]
    coeff_sums = [KahanSum() for _ in range(n + 1)]
    buf = []
    for combo in itertools.product(perms, repeat=d - 1):
        sel = (idx,) + tuple(p for p in combo)
        buf.append(b[sel])
        if len(buf) == 4096:
            totals = _elementary_symmetric_rows(np.array(buf)).sum(axis=0)
            for k in range(n + 1):
                coeff_sums[k].add(totals[k])
            buf = []
    if buf:
        totals = _elementary_symmetric_rows(np.array(buf)).sum(axis=0)
        for k in range(n + 1):
            coeff_sums[k].add(totals[k])
    return UnivariatePolynomial([s.value for s in coeff_sums])


# ---------------------------------------------------------------------------
# truncated inclusion-exclusion: c_k = g_k / g_0 for k <= m in n^O(m) work

# complex elements per working array; subsets are streamed in chunks of this
# size so memory does not grow with the number of subsets
_ENGINE_CHUNK = 1 << 18


def _subset_chunks(n, s, rows):
    """The s-subsets of range(n) in lexicographic order, as (<= rows, s)
    index arrays."""
    combos = itertools.combinations(range(n), s)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, rows)), dtype=np.intp
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, s)


def _ryser_weights(n, m):
    """w[s, k] = (-1)^(k-s) C(n-s, k-s) / (n)_k = (-1)^(k-s) / ((k-s)! (n)_s)
    for 1 <= s <= k <= m, zero elsewhere: the weight of a column set of size s
    in W_k / (n)_k."""
    w = np.zeros((m + 1, m + 1))
    inv_fall = 1.0
    for s in range(1, m + 1):
        inv_fall /= n - s + 1
        term = inv_fall
        w[s, s] = term
        for k in range(s + 1, m + 1):
            term /= -(k - s)
            w[s, k] = term
    return w


def _ryser_last_axis(mats, m, w):
    """For each matrix M of the (C, n, n) batch,
    sum_{1 <= |T| <= m} w[|T|] * e_{0..m}(r_1(T), ..., r_n(T)), with
    r_i(T) = sum_{j in T} M[i, j]; shape (C, m + 1)."""
    c, n, _ = mats.shape
    out = np.zeros((c, m + 1), dtype=np.complex128)
    rows = max(1, _ENGINE_CHUNK // (c * n))
    for s in range(1, m + 1):
        for cols in _subset_chunks(n, s, rows):
            r = mats[:, :, cols[:, 0]]
            for a in range(1, s):
                r = r + mats[:, :, cols[:, a]]
            r = np.moveaxis(r, 1, 0).reshape(n, -1)
            e = np.zeros((r.shape[1], m + 1), dtype=np.complex128)
            e[:, 0] = 1.0
            for i in range(n):
                e[:, 1:] += r[i][:, None] * e[:, :-1]
            out += e.reshape(c, -1, m + 1).sum(axis=1) * w[s]
    return out


def _tensor_terms(b, m, w, weight, acc):
    """Add to acc the inclusion-exclusion terms of every tuple of column sets
    on the middle axes 1..ndim-2 of b, each contracted away and weighted by
    weight * prod_j w[|T_j|]; the last axis goes through _ryser_last_axis."""
    n = b.shape[0]
    if b.ndim == 2:
        acc.add(_ryser_last_axis(b[None], m, w)[0] * weight)
        return
    if b.ndim == 3:
        rows = max(1, _ENGINE_CHUNK // (4 * n * n))
        for s in range(1, m + 1):
            for cols in _subset_chunks(n, s, rows):
                mats = b[:, cols[:, 0], :]
                for a in range(1, s):
                    mats = mats + b[:, cols[:, a], :]
                terms = _ryser_last_axis(mats.transpose(1, 0, 2), m, w)
                acc.add(terms.sum(axis=0) * (w[s] * weight))
        return
    for s in range(1, m + 1):
        for cols in itertools.combinations(range(n), s):
            _tensor_terms(b[:, list(cols)].sum(axis=1), m, w, w[s] * weight, acc)


def _hafnian_weights(two_n, m):
    """w[s, k] = (-1)^s C(2n-s, 2k-s) (2n-2k-1)!! / (k! (2n-1)!!)
    = (-1)^s 2^k (n)_k / (k! (2k-s)! (2n)_s) for 2 <= s <= 2k, 1 <= k <= m."""
    n = two_n // 2
    inv_fact = [1.0]
    inv_fall = [1.0]
    for j in range(1, 2 * m + 1):
        inv_fact.append(inv_fact[-1] / j)
        inv_fall.append(inv_fall[-1] / (two_n - j + 1))
    w = np.zeros((2 * m + 1, m + 1))
    lead = 1.0
    for k in range(1, m + 1):
        lead *= 2.0 * (n - k + 1) / k
        for s in range(2, 2 * k + 1):
            w[s, k] = (-1.0) ** s * lead * inv_fact[2 * k - s] * inv_fall[s]
    return w


def _hafnian_coefficients(b, m):
    """(0, c_1, ..., c_m) of haf(J + zB): c_k = sum_S w[|S|, k] e(S)^k over
    vertex sets 2 <= |S| <= 2m, e(S) = sum_{i<j in S} b_ij."""
    two_n = b.shape[0]
    w = _hafnian_weights(two_n, m)
    acc = KahanSum()
    for s in range(2, 2 * m + 1):
        for verts in _subset_chunks(two_n, s, _ENGINE_CHUNK // m):
            e = np.zeros(verts.shape[0], dtype=np.complex128)
            for a in range(s):
                for c in range(a + 1, s):
                    e += b[verts[:, a], verts[:, c]]
            powers = np.cumprod(np.repeat(e[:, None], m, axis=1), axis=1)
            acc.add(powers.sum(axis=0) * w[s, 1:])
    return np.concatenate(([0j], acc.value))


def _engine_operations(value, m):
    """Operation count of g_taylor_coefficients, checked against the budget."""
    if isinstance(value, SymmetricComplexMatrix):
        return sum(math.comb(value.two_n, s) * s * s for s in range(2 * m + 1))
    n = value.n
    d = value.d if isinstance(value, ComplexTensor) else 2
    return sum(math.comb(n, s) for s in range(m + 1)) ** (d - 1) * n * m


def g_taylor_coefficients(value, m, budget=DEFAULT_BUDGET):
    """Normalized Taylor coefficients (c_0, ..., c_m), c_k = g_k / g_0, of
    g(z) = per/haf/PER(J + z(A - J)) for 0 <= m <= n, by truncated
    inclusion-exclusion (Ryser) in n^O(m) work. With b = a - 1:

    - per: W_k = sum_{|T|<=k} (-1)^(k-|T|) C(n-|T|, k-|T|) e_k(r(T)), with
      row sums r_i(T) = sum_{j in T} b_ij; c_k = W_k / (n)_k.
    - PER: the same on each axis 2..d, axes 2..d-1 contracted over their
      column sets; c_k = W_k / ((n)_k)^(d-1).
    - haf: W_k = (1/k!) sum_{|S|<=2k} (-1)^|S| C(2n-|S|, 2k-|S|) e(S)^k,
      e(S) = sum_{i<j in S} b_ij; c_k = W_k (2n-2k-1)!! / (2n-1)!!.

    W_k is the k-matching weight of the deviation hypergraph. `budget` caps
    the operation count, checked before any work: C(n, <=m) n m (per),
    C(n, <=m)^(d-1) n m (PER), sum_{s<=2m} C(2n, s) s^2 (haf).
    """
    if isinstance(value, SymmetricComplexMatrix):
        n = value.two_n // 2
    elif isinstance(value, (ComplexMatrix, ComplexTensor)):
        n = value.n
    else:
        raise ShapeMismatch(
            "g_taylor_coefficients: expected ComplexMatrix, SymmetricComplexMatrix, or ComplexTensor"
        )
    if m > n or m < 0:
        raise ValueError(f"g_taylor_coefficients: need 0 <= m <= n, got m={m}")
    ops = _engine_operations(value, m)
    if ops > budget:
        raise BudgetExceeded(f"g_taylor_coefficients: {ops} operations over budget {budget}")
    if m == 0:
        return np.ones(1, dtype=np.complex128)
    b = value.array - 1.0
    if isinstance(value, SymmetricComplexMatrix):
        out = _hafnian_coefficients(b, m)
    else:
        acc = KahanSum()
        _tensor_terms(b, m, _ryser_weights(n, m), 1.0, acc)
        out = acc.value
    out[0] = 1.0
    return out


# ---------------------------------------------------------------------------
# log conversion and the truncation certificate


def log_derivatives(g_derivs):
    """(f^(1)(0), ..., f^(m)(0)) for f = ln g, from (g(0), ..., g^(m)(0)).

    Forward triangular solve of
    g^(k)(0) = sum_{j=0}^{k-1} C(k-1, j) g^(j)(0) f^(k-j)(0).
    f(0) = ln g(0) is not included; the caller owns the branch choice.
    """
    g = np.asarray(g_derivs, dtype=np.complex128)
    if g.ndim != 1 or g.size == 0:
        raise ShapeMismatch("log_derivatives: need a nonempty 1-d sequence")
    if g[0] == 0:
        raise ZeroBaseValue("log_derivatives: g(0) = 0")
    m = g.size - 1
    ghat = g / g[0]
    f = np.zeros(m + 1, dtype=np.complex128)
    for k in range(1, m + 1):
        s = ghat[k]
        for j in range(1, k):
            s -= math.comb(k - 1, j) * ghat[j] * f[k - j]
        f[k] = s
    return f[1:]


def taylor_error_bound(deg_g, beta, m):
    """deg_g / ((m+1) beta^m (beta-1)): remainder bound at 1 for the degree-m
    Taylor polynomial of ln g when g is root-free on |z| <= beta."""
    if m < 0:
        raise ValueError(f"taylor_error_bound: m must be >= 0, got {m}")
    if not beta > 1.0:
        raise BetaNotGreaterThanOne(f"taylor_error_bound: beta={beta} must exceed 1")
    if deg_g < 0:
        raise ValueError(f"taylor_error_bound: deg_g must be >= 0, got {deg_g}")
    if deg_g == 0:
        return 0.0
    log_bound = (
        math.log(deg_g) - math.log(m + 1.0) - m * math.log(beta) - math.log(beta - 1.0)
    )
    if log_bound > 700.0:
        return math.inf
    return math.exp(log_bound)


def choose_degree(deg_g, beta, epsilon, limit=10**9):
    """Smallest m with taylor_error_bound(deg_g, beta, m) <= epsilon.

    The bound is monotone decreasing in m, so this bisects [0, limit] on
    taylor_error_bound itself, which also decides exact ties.
    """
    if not epsilon > 0:
        raise ValueError(f"choose_degree: epsilon must be > 0, got {epsilon}")
    if not beta > 1.0:
        raise BetaNotGreaterThanOne(f"choose_degree: beta={beta} must exceed 1")
    if deg_g == 0:
        return 0
    if taylor_error_bound(deg_g, beta, limit) > epsilon:
        raise BudgetExceeded(f"choose_degree: certified degree exceeds {limit}")
    # the bound exceeds epsilon at lo (or lo = -1) and holds at hi
    lo, hi = -1, limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if taylor_error_bound(deg_g, beta, mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# the disc-to-strip polynomial


_PHI_PANEL_EDGES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0)
_PHI_NODES_PER_PANEL = 32
_PHI_DIRECT_EVAL_LIMIT = 4000
_PHI_MATERIALIZE_LIMIT = 10**7


def _phi_quadrature():
    x, w = np.polynomial.legendre.leggauss(_PHI_NODES_PER_PANEL)
    nodes = []
    weights = []
    for a, b in zip(_PHI_PANEL_EDGES[:-1], _PHI_PANEL_EDGES[1:]):
        half = 0.5 * (b - a)
        nodes.append(half * (x + 1.0) + a)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


class PhiPolynomial:
    """phi(z) = (1/sigma) sum_{j=1}^N (alpha z)^j / j with the constants
    derived from rho:

        alpha = 1 - e^(-1/rho)
        beta  = (1 - e^(-1-1/rho)) / alpha
        N     = floor((1 + 1/rho) e^(1 + 1/rho))
        sigma = sum_{j=1}^N alpha^j / j

    phi(0) = 0, phi(1) = 1, and the disc |z| <= beta maps into the strip
    -rho <= Re <= 1 + 2 rho, |Im| <= 2 rho. For very large N, sigma equals
    1/rho up to a relative tail below 1e-20 and coefficient prefixes are
    generated on demand instead of materializing the full polynomial.
    """

    __slots__ = ("rho", "alpha", "beta", "N", "sigma", "_poly")

    def __init__(self, rho):
        if not (isinstance(rho, (int, float)) and 0.0 < rho <= 1.0):
            raise RhoOutOfRange(f"PhiPolynomial: rho={rho} must lie in (0, 1]")
        rho = float(rho)
        exponent = 1.0 + 1.0 / rho
        if exponent > 700.0:
            raise BudgetExceeded(
                f"PhiPolynomial: N(rho) = exp({exponent:.1f})-scale is not materializable"
            )
        alpha = -math.expm1(-1.0 / rho)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", -math.expm1(-exponent) / alpha)
        big_n = int(math.floor(exponent * math.exp(exponent)))
        object.__setattr__(self, "N", big_n)
        if big_n <= 10**6:
            j = np.arange(1, big_n + 1, dtype=np.float64)
            terms = np.exp(j * math.log(alpha)) / j
            sigma = float(np.sum(terms[::-1]))
        else:
            # tail beyond N is < alpha^(N+1)/((N+1)(1-alpha)), relatively ~1e-21
            sigma = 1.0 / rho
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_poly", None)

    def __setattr__(self, name, value):
        raise AttributeError("PhiPolynomial is immutable")

    def coeff_prefix(self, count):
        """First `count` coefficients (index j = coefficient of z^j) as
        float64; zero-padded past degree N."""
        count = int(count)
        out = np.zeros(count, dtype=np.float64)
        top = min(count - 1, self.N)
        if top >= 1:
            j = np.arange(1, top + 1, dtype=np.float64)
            out[1 : top + 1] = np.exp(j * math.log(self.alpha) - np.log(j)) / self.sigma
        return out

    @property
    def poly(self):
        if self.N > _PHI_MATERIALIZE_LIMIT:
            raise SizeLimitExceeded(
                f"PhiPolynomial: degree N={self.N} too large to materialize"
            )
        if self._poly is None:
            object.__setattr__(
                self, "_poly", UnivariatePolynomial(self.coeff_prefix(self.N + 1))
            )
        return self._poly

    def __call__(self, z):
        """Evaluate phi at complex points, vectorized.

        Valid wherever |alpha z| < 1, which covers the whole disc |z| <= beta.
        Direct Horner for moderate N; otherwise the analytic form
        phi = (-Ln(1 - y) - T_N(y))/sigma with the tail integral
        T_N(y) = y^(N+1)/(N+1) * int_0^inf e^(-t) / (1 - y e^(-t/(N+1))) dt.
        """
        scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
        zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        y = self.alpha * zz
        if np.max(np.abs(y)) >= 1.0:
            raise ValueError("PhiPolynomial: evaluation needs |alpha z| < 1")
        if self.N <= _PHI_DIRECT_EVAL_LIMIT:
            coeffs = self.coeff_prefix(self.N + 1)
            acc = np.zeros_like(zz)
            for c in coeffs[::-1]:
                acc = acc * zz + c
            out = acc
        else:
            nodes, weights = _phi_quadrature()
            np1 = self.N + 1.0
            decay = np.exp(-nodes / np1)
            denom = 1.0 - y[:, None] * decay[None, :]
            integral = (np.exp(-nodes)[None, :] * weights[None, :] / denom).sum(axis=1)
            nonzero = y != 0
            ypow = np.zeros_like(y)
            ypow[nonzero] = np.exp(np1 * np.log(y[nonzero]))
            tail = ypow * integral / np1
            out = (-np.log1p(-y) - tail) / self.sigma
        return complex(out[0]) if scalar else out

    def __repr__(self):
        return f"PhiPolynomial(rho={self.rho}, N={self.N})"


def build_phi(rho):
    """PhiPolynomial for the given rho in (0, 1]."""
    return PhiPolynomial(rho)


# ---------------------------------------------------------------------------
# pipelines


@dataclass(frozen=True)
class ApproxReport:
    """Certified approximation of ln per/haf/PER.

    error_bound is deg_g / ((m+1) beta^m (beta-1)) at the recorded deg_g and
    beta_used, and never exceeds the requested epsilon; it is None only when
    the region check was forcibly skipped. rho and phi_degree are None for
    disc pipelines.
    """

    log_value: complex
    degree_used: int
    error_bound: float
    pipeline: str
    beta_used: float
    deg_g: int
    g0: complex
    elapsed_s: float
    rho: float = None
    phi_degree: int = None

    def to_dict(self):
        out = {
            "log_value": [self.log_value.real, self.log_value.imag],
            "degree_used": int(self.degree_used),
            "error_bound": None if self.error_bound is None else float(self.error_bound),
            "pipeline": self.pipeline,
            "beta_used": float(self.beta_used),
            "deg_g": int(self.deg_g),
            "g0": [self.g0.real, self.g0.imag],
            "elapsed_s": float(self.elapsed_s),
        }
        if self.rho is not None:
            out["rho"] = float(self.rho)
        if self.phi_degree is not None:
            out["phi_degree"] = int(self.phi_degree)
        return out


def _complex_or_inf(count):
    """An exact integer count as a complex number; inf once it overflows."""
    try:
        return complex(count)
    except OverflowError:
        return complex(math.inf)


@dataclass(frozen=True)
class _KindInfo:
    shape: str
    d: int
    n: int
    log_g0: float
    g0: complex
    tuple_fn: object
    full_fn: object


def _classify(value):
    if isinstance(value, ComplexMatrix):
        n = value.n
        return _KindInfo(
            shape="per",
            d=2,
            n=n,
            log_g0=sum(math.log(k) for k in range(2, n + 1)),
            g0=_complex_or_inf(math.factorial(n)),
            tuple_fn=g_derivatives_permanent,
            full_fn=g_full_expansion_permanent,
        )
    if isinstance(value, SymmetricComplexMatrix):
        two_n = value.two_n
        n = two_n // 2
        log_g0 = (
            sum(math.log(k) for k in range(2, two_n + 1))
            - n * math.log(2.0)
            - sum(math.log(k) for k in range(2, n + 1))
        )
        return _KindInfo(
            shape="haf",
            d=2,
            n=n,
            log_g0=log_g0,
            g0=_complex_or_inf(math.factorial(two_n) // (2**n * math.factorial(n))),
            tuple_fn=g_derivatives_hafnian,
            full_fn=g_full_expansion_hafnian,
        )
    if isinstance(value, ComplexTensor):
        d, n = value.d, value.n
        return _KindInfo(
            shape="tensor",
            d=d,
            n=n,
            log_g0=(d - 1) * sum(math.log(k) for k in range(2, n + 1)),
            g0=_complex_or_inf(math.factorial(n) ** (d - 1)),
            tuple_fn=g_derivatives_tensor,
            full_fn=g_full_expansion_tensor,
        )
    raise ShapeMismatch("expected ComplexMatrix, SymmetricComplexMatrix, or ComplexTensor")


def _taylor_prefix_coeffs(value, info, mm, budget):
    """Normalized Taylor coefficients c_k = g^(k)(0)/(k! g(0)) for k <= mm:
    the inclusion-exclusion engine below full degree (mm < n), otherwise the
    tuple-sum path with automatic full-expansion fallback."""
    if mm < info.n:
        return g_taylor_coefficients(value, mm, budget)
    try:
        derivs = info.tuple_fn(value, mm, budget)
    except BudgetExceeded:
        try:
            poly = info.full_fn(value)
        except SizeLimitExceeded as exc:
            raise BudgetExceeded(
                f"tuple-sum budget exceeded and full expansion unavailable: {exc}"
            ) from exc
        coeffs = np.zeros(mm + 1, dtype=np.complex128)
        take = min(mm + 1, poly.coeffs.size)
        coeffs[:take] = poly.coeffs[:take]
        return coeffs / coeffs[0]
    out = np.empty(mm + 1, dtype=np.complex128)
    inv_fact = 1.0
    for k in range(mm + 1):
        if k > 0:
            inv_fact /= k
        out[k] = derivs[k] * inv_fact
    return out / out[0]


def _log_coeff_prefix_windowed(chat, m):
    """psi_1..psi_m of log of the polynomial with normalized coefficients
    chat (chat[0] = 1, short array). O(m * deg) via the window recurrence
    k psi_k = k chat_k - sum_{j=k-deg}^{k-1} j psi_j chat_{k-j}."""
    deg = chat.size - 1
    psi = np.zeros(m + 1, dtype=np.complex128)
    jidx = np.arange(m + 1, dtype=np.float64)
    for k in range(1, m + 1):
        s = k * chat[k] if k <= deg else 0.0
        j0 = max(1, k - deg)
        if j0 <= k - 1:
            s = s - np.dot(jidx[j0:k] * psi[j0:k], chat[k - j0 : 0 : -1][: k - j0])
        psi[k] = s / k
    return psi[1:]


def _sum_log_terms_derivative_space(g_derivs_padded, log_g0):
    """T_m(1) from derivative lists: ln g(0) + sum f^(k)(0)/k!."""
    f_derivs = log_derivatives(g_derivs_padded)
    acc = KahanSum()
    inv_fact = 1.0
    for k in range(1, g_derivs_padded.size):
        inv_fact /= k
        acc.add(f_derivs[k - 1] * inv_fact)
    return log_g0 + acc.value


def _sum_log_terms_coefficient_space(chat, m, log_g0):
    """T_m(1) from normalized short coefficients, windowed recurrence."""
    psi = _log_coeff_prefix_windowed(chat, m)
    acc = KahanSum()
    for k in range(psi.size):
        acc.add(psi[k])
    return log_g0 + acc.value


def approx_log_disc(value, eta, epsilon, l1=False, budget=DEFAULT_BUDGET, degree=None, force=False):
    """Certified approximation of ln per/haf/PER for inputs inside a disc
    (entrywise |1-a| <= eta) or line-sum (l1=True) region.

    beta = (region maximum)/eta; m = choose_degree(n, beta, epsilon) unless
    `degree` overrides it. Raises RegionViolation when the input is outside
    (unless force=True, which blanks the certificate).
    """
    t0 = time.perf_counter()
    info = _classify(value)
    if not (0.0 < epsilon < 1.0):
        raise InfeasibleParameters(f"approx_log_disc: need 0 < epsilon < 1, got {epsilon}")
    if l1:
        if info.shape == "per":
            kind = RegionKind.L1_PER
        elif info.shape == "tensor":
            kind = RegionKind.L1_TENSOR
        else:
            raise ShapeMismatch("approx_log_disc: no line-sum region for hafnian inputs")
    else:
        kind = {
            "per": RegionKind.DISC_PER,
            "haf": RegionKind.DISC_HAF,
            "tensor": RegionKind.DISC_TENSOR,
        }[info.shape]
    spec = RegionSpec(kind=kind, eta=eta, d=info.d if info.shape == "tensor" else 2)
    membership = check_region(value, spec)
    if not membership.inside and not force:
        raise RegionViolation(
            f"approx_log_disc: input outside {kind.value} at index "
            f"{membership.worst_index} (margin {membership.margin:.6g})",
            report=membership,
        )
    beta = region_eta_max(kind, info.d) / eta
    m = int(degree) if degree is not None else choose_degree(info.n, beta, epsilon)
    bound = taylor_error_bound(info.n, beta, m)
    if bound > epsilon and not force:
        raise BudgetExceeded(
            f"approx_log_disc: degree {m} certifies only {bound:.3g} > epsilon {epsilon}"
        )
    mm = min(m, info.n)
    chat = _taylor_prefix_coeffs(value, info, mm, budget)
    if m <= _DERIVATIVE_SPACE_LIMIT:
        g_derivs = np.zeros(m + 1, dtype=np.complex128)
        fact = 1.0
        for k in range(mm + 1):
            if k > 0:
                fact *= k
            g_derivs[k] = chat[k] * fact
        total = _sum_log_terms_derivative_space(g_derivs, info.log_g0)
    else:
        total = _sum_log_terms_coefficient_space(chat, m, info.log_g0)
    return ApproxReport(
        log_value=complex(total),
        degree_used=m,
        error_bound=None if force else bound,
        pipeline="l1" if l1 else "disc",
        beta_used=beta,
        deg_g=info.n,
        g0=info.g0,
        elapsed_s=time.perf_counter() - t0,
    )


def _strip_parameters(s, d):
    """Balance the strip widening xi against the imaginary half-width zeta.

    xi(e) = e/s - 1 grows and zeta(e) = tau_bound(e, d)/s shrinks on
    s < e < eta_max, so their crossing maximizes rho = min(xi, zeta)/2,
    the widest usable parameter for the disc-to-strip map.
    """
    cap = eta_d_strip(d)
    lo = s * (1.0 + 1e-14)
    hi = cap * (1.0 - 1e-14)
    if not lo < hi:
        raise InfeasibleParameters(f"_strip_parameters: no room between s={s} and cap={cap}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (mid / s - 1.0) < tau_bound(mid, d) / s:
            lo = mid
        else:
            hi = mid
    e = 0.5 * (lo + hi)
    xi = e / s - 1.0
    zeta = tau_bound(e, d) / s
    rho = min(xi, zeta) / 2.0
    return e, xi, zeta, min(rho, 1.0)


# block length of the final alpha^j pass, which is an outer product of
# alpha^(B q) and alpha^r so that only ~m/B + B exponentials are taken
_ALPHA_BLOCK = 1024


def _compose_phi(rhat, phi, m):
    """Coefficients 0..m of r(phi(z)), r(x) = sum_k rhat_k x^k real, in
    O(deg r * m) work and no FFT.

    phi' = (alpha/sigma)(1 - (alpha z)^N)/(1 - alpha z), so phi^k = k L[phi^(k-1)]
    with L f = (alpha/sigma) int_0^z (1 - (alpha t)^N) f(t)/(1 - alpha t) dt,
    and Horner reads r(phi) = rhat_0 + L[rhat_1 + 2 L[rhat_2 + 3 L[rhat_3 + ...]]].
    On the scaled coefficients v_j = f_j alpha^(-j), the factor
    1 - (alpha z)^N is v_j - v_(j-N) (needed only when N < m) and L is a
    prefix sum times 1/((j+1) sigma). v grows only polynomially in j; one
    last pass multiplies alpha^j back.
    """
    deg = rhat.size - 1
    block = _ALPHA_BLOCK
    rows = m // block + 1
    # v slides one slot down per Horner step, so every step works in place
    buf = np.zeros(max(rows * block, m + 1 + deg), dtype=np.float64)
    buf[deg] = rhat[deg]
    if deg:
        inv = np.arange(1, m + 1, dtype=np.float64)
        inv *= phi.sigma
        np.reciprocal(inv, out=inv)
        big_n = phi.N
        for k in range(deg, 0, -1):
            # v = buf[k : k + m + 1] becomes buf[k - 1 : k + m]
            cs = buf[k : k + m]
            np.cumsum(cs, out=cs)
            if big_n < m:
                cs[big_n:] -= cs[:-big_n].copy()
            cs *= inv
            if k > 1:
                cs *= k
            buf[k - 1] = rhat[k - 1]
        del inv
    log_alpha = math.log(phi.alpha)
    grid = buf[: rows * block].reshape(rows, block)
    grid *= np.exp(np.arange(rows, dtype=np.float64) * (block * log_alpha))[:, None]
    grid *= np.exp(np.arange(block, dtype=np.float64) * log_alpha)
    return buf[: m + 1]


def _require_real(arr, where):
    if np.any(arr.imag != 0):
        idx = np.unravel_index(int(np.argmax(arr.imag != 0)), arr.shape)
        raise RegionViolation(
            f"{where}: entries must be real; index {tuple(int(i) + 1 for i in idx)} is not"
        )


def approx_log_strip(value, delta_or_eta, epsilon, budget=DEFAULT_BUDGET, degree=None, force=False):
    """Certified approximation of ln per/haf/PER for real inputs bounded only
    in a strip sense: matrix kinds with entries in [delta, 1] (delta_or_eta =
    delta), tensors with |1 - a| <= eta (delta_or_eta = eta).

    Builds phi for the balanced rho, takes the normalized coefficients r of
    g up to min(m, n) from the engine, composes r(phi(z)) to the certified
    degree m through phi's own differential equation (_compose_phi), and
    sums the first m log-series coefficients with the FFT series engine.
    Degree 0 returns ln g(0).
    """
    t0 = time.perf_counter()
    info = _classify(value)
    if not (0.0 < epsilon < 1.0):
        raise InfeasibleParameters(f"approx_log_strip: need 0 < epsilon < 1, got {epsilon}")
    arr = value.array
    _require_real(arr, "approx_log_strip")
    re = arr.real
    if info.shape == "tensor":
        eta = float(delta_or_eta)
        cap = eta_d_strip(info.d)
        if not (0.0 <= eta):
            raise InfeasibleParameters(f"approx_log_strip: eta must be >= 0, got {eta}")
        if not eta < cap:
            raise EtaTooLarge(f"approx_log_strip: eta={eta} must be below {cap} for d={info.d}")
        dev = np.abs(1.0 - re)
        if float(dev.max()) > eta and not force:
            idx = np.unravel_index(int(np.argmax(dev)), re.shape)
            raise RegionViolation(
                f"approx_log_strip: |1 - a| = {float(dev[idx]):.6g} > eta at index "
                f"{tuple(int(i) + 1 for i in idx)}"
            )
        s = eta
    else:
        delta = float(delta_or_eta)
        if not (0.0 < delta <= 1.0):
            raise InfeasibleParameters(
                f"approx_log_strip: delta must lie in (0, 1], got {delta}"
            )
        low, high = float(re.min()), float(re.max())
        if (low < delta or high > 1.0) and not force:
            bad = re < delta if low < delta else re > 1.0
            idx = np.unravel_index(int(np.argmax(bad)), re.shape)
            raise RegionViolation(
                f"approx_log_strip: entry {float(re[idx]):.6g} at index "
                f"{tuple(int(i) + 1 for i in idx)} outside [{delta}, 1]"
            )
        s = 1.0 - delta
    if s == 0.0:
        rho = 1.0
    else:
        _, _, _, rho = _strip_parameters(s, info.d)
    phi = build_phi(rho)
    deg_g = phi.N * info.n
    m = int(degree) if degree is not None else choose_degree(deg_g, phi.beta, epsilon)
    bound = taylor_error_bound(deg_g, phi.beta, m)
    if bound > epsilon and not force:
        raise BudgetExceeded(
            f"approx_log_strip: degree {m} certifies only {bound:.3g} > epsilon {epsilon}"
        )
    if m > MAX_STRIP_DEGREE:
        raise BudgetExceeded(
            f"approx_log_strip: certified degree {m} exceeds the supported {MAX_STRIP_DEGREE}"
        )
    if m == 0:
        total = info.log_g0
    else:
        chat = g_taylor_coefficients(value, min(m, info.n), budget)
        g_c = _compose_phi(chat.real, phi, m)
        total = info.log_g0 + series_log_prefix_sum(g_c, m)
        del g_c
    return ApproxReport(
        log_value=complex(total),
        degree_used=m,
        error_bound=None if force else bound,
        pipeline="strip",
        beta_used=phi.beta,
        deg_g=deg_g,
        g0=info.g0,
        elapsed_s=time.perf_counter() - t0,
        rho=rho,
        phi_degree=phi.N,
    )
