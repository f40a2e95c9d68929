"""Certified log-approximation pipelines.

Disc pipelines evaluate the Taylor polynomial of ln g at 1 for
g(z) = per/haf/PER(J + z(A - J)), which is root-free on |z| <= beta when the
input sits inside the matching disc or line-sum region. Strip pipelines
precompose with the disc-to-strip polynomial phi so the same certificate
reaches inputs that are only strip-bounded. Every report carries the degree
used and the certified remainder bound.
"""

import functools
import itertools
import math
import time
from dataclasses import FrozenInstanceError, dataclass

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
    InfeasibleParameters,
    RegionViolation,
    RhoOutOfRange,
    ShapeMismatch,
    SizeLimitExceeded,
    ZeroBaseValue,
)
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
from .series import (  # noqa: F401
    KahanSum,
    compensated_total,
    series_log_coeffs_direct,
    series_log_prefix_sum,
    series_mul,
)

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

# degrees beyond this exceed the memory envelope of the series engine and
# of the disc pipeline's log recurrence, whose arrays have m + 1 entries
MAX_DEGREE = 1 << 26


# ---------------------------------------------------------------------------
# derivative extraction at z = 0 for g(z) = per/haf/PER(J + z(A - J)); a
# matrix is the d = 2 tensor, in these reference routes as in the engine

# full expansions stop at 10! terms: per n <= 10, haf 2n <= 16 (15!! terms),
# PER (n!)^(d-1) <= 10!
_EXPANSION_TERMS = math.factorial(10)


def _tuple_sums(b, m, where, budget):
    """(g(0), ..., g^(m)(0)) of PER(J + zB) for the d-axis array b = A - 1.

    g^(k)(0) = ((n-k)!)^(d-1) * sum over d ordered k-tuples t_1, ..., t_d of
    distinct indices of prod_r b[t_1[r], ..., t_d[r]]. A Python loop runs
    over the middle axes' tuples (none at d = 2); the first and last axes
    are summed in row chunks of at most 2^21 products, with one KahanSum
    across chunks. `budget` caps the k multiplications per k-term product,
    sum_k k ((n)_k)^d, checked before any work.
    """
    d, n = b.ndim, b.shape[0]
    if m > n or m < 0:
        raise ValueError(f"{where}: need 0 <= m <= n, got m={m}")
    ops = sum(k * math.perm(n, k) ** d for k in range(1, m + 1))
    if ops > budget:
        raise BudgetExceeded(f"{where}: {ops} operations over budget {budget}")
    # middle axes first: indexing them by the r-th entries of their tuples
    # leaves the (first, last) matrix of factor r
    slabs = np.moveaxis(b, 0, -2)
    out = np.zeros(m + 1, dtype=np.complex128)
    out[0] = float(math.factorial(n)) ** (d - 1)
    for k in range(1, m + 1):
        # the ordered k-tuples of distinct indices, lex order
        tuples = np.array(list(itertools.permutations(range(n), k)), dtype=np.intp)
        t_count = tuples.shape[0]
        chunk = max(1, (1 << 21) // t_count)
        acc = KahanSum()
        for mids in itertools.product(tuples, repeat=d - 2):
            factors = [slabs[tuple(t[r] for t in mids)] for r in range(k)]
            for lo in range(0, t_count, chunk):
                rows = tuples[lo : lo + chunk]
                prod = np.ones((rows.shape[0], t_count), dtype=np.complex128)
                for r in range(k):
                    prod *= factors[r][rows[:, r][:, None], tuples[:, r][None, :]]
                acc.add(prod.sum())
        out[k] = float(math.factorial(n - k)) ** (d - 1) * acc.value
    return out


def g_derivatives_permanent(mat, m, budget=DEFAULT_BUDGET):
    """(g(0), g'(0), ..., g^(m)(0)) for g(z) = per(J + z(A - J)): the d = 2
    tuple sums, g^(k)(0) = (n-k)! * sum over pairs of ordered distinct
    k-tuples (I, J) of prod_r (a[I_r, J_r] - 1). `budget` caps the
    operations, sum_k k ((n)_k)^2."""
    if not isinstance(mat, ComplexMatrix):
        raise ShapeMismatch("g_derivatives_permanent: expected ComplexMatrix")
    return _tuple_sums(mat.array - 1.0, m, "g_derivatives_permanent", budget)


def g_derivatives_hafnian(mat, m, budget=DEFAULT_BUDGET):
    """(g(0), ..., g^(m)(0)) for g(z) = haf(J + z(A - J)), 2n x 2n input.

    g^(k)(0) = k! (2n-2k)! / (2^(n-k) (n-k)!) * sum over collections of k
    disjoint unordered pairs of prod (a_pair - 1). The diagonal never enters.
    Each collection is one of the (2k-1)!! perfect matchings of 2k slots,
    from `_perfect_matchings` in blocks of 2^14, placed on a 2k-subset of
    the vertices; the subsets stream in blocks of at most 2^14 subsets and
    2^21 products, with one KahanSum per k. `budget` caps the operations, k
    multiplications per collection of k pairs: sum_k k C(2n, 2k) (2k-1)!!.
    """
    if not isinstance(mat, SymmetricComplexMatrix):
        raise ShapeMismatch("g_derivatives_hafnian: expected SymmetricComplexMatrix")
    two_n = mat.two_n
    n = two_n // 2
    if m > n or m < 0:
        raise ValueError(f"g_derivatives_hafnian: need 0 <= m <= n, got m={m}")
    ops = sum(k * math.comb(two_n, 2 * k) * _double_factorial(2 * k - 1) for k in range(1, m + 1))
    if ops > budget:
        raise BudgetExceeded(f"g_derivatives_hafnian: {ops} operations over budget {budget}")
    b = mat.array - 1.0
    out = np.zeros(m + 1, dtype=np.complex128)
    out[0] = float(math.factorial(two_n) // (2**n * math.factorial(n)))
    for k in range(1, m + 1):
        acc = KahanSum()
        for matchings in _chunks(_perfect_matchings(2 * k), 1 << 14):
            # pair r of each matching as its slots' index in a flat 2k x 2k block
            flat = np.array(matchings, dtype=np.intp) @ np.array([2 * k, 1])
            chunk = min(1 << 14, (1 << 21) // len(matchings))
            for block in _chunks(itertools.combinations(range(two_n), 2 * k), chunk):
                verts = np.array(block, dtype=np.intp)
                sub = b[verts[:, :, None], verts[:, None, :]].reshape(len(block), -1)
                prod = sub[:, flat[:, 0]]
                for r in range(1, k):
                    prod *= sub[:, flat[:, r]]
                acc.add(prod.sum())
        pref = math.factorial(k) * math.factorial(two_n - 2 * k)
        pref //= 2 ** (n - k) * math.factorial(n - k)
        out[k] = float(pref) * acc.value
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
    """(g(0), ..., g^(m)(0)) for g(z) = PER(J + z(A - J)), d-dimensional
    input: g^(k)(0) = ((n-k)!)^(d-1) * sum over d positionally-coupled
    ordered k-tuples of distinct indices of prod_r (a[t_1[r], ..., t_d[r]] - 1).
    `budget` caps the operations, sum_k k ((n)_k)^d."""
    if not isinstance(ten, ComplexTensor):
        raise ShapeMismatch("g_derivatives_tensor: expected ComplexTensor")
    return _tuple_sums(ten.array - 1.0, m, "g_derivatives_tensor", budget)


def _elementary_symmetric_rows(bvals):
    """Row-wise elementary symmetric sums: for each row b of shape (c, n),
    coefficients of prod_i (1 + z b_i), shape (c, n + 1)."""
    c, n = bvals.shape
    e = np.zeros((c, n + 1), dtype=np.complex128)
    e[:, 0] = 1.0
    for i in range(n):
        e[:, 1 : i + 2] = e[:, 1 : i + 2] + bvals[:, i : i + 1] * e[:, 0 : i + 1]
    return e


def _chunks(iterable, size):
    """Consecutive lists of `size` items of an iterable; the last may be
    shorter."""
    it = iter(iterable)
    while block := list(itertools.islice(it, size)):
        yield block


def _expansion_polynomial(where, terms, row_blocks):
    """The polynomial sum over rows b of prod_i (1 + z b_i), from (c, n)
    row blocks holding `terms` rows in all, with the coefficient vectors
    summed by one KahanSum. Raises SizeLimitExceeded past 10! terms."""
    if terms > _EXPANSION_TERMS:
        raise SizeLimitExceeded(f"{where}: {terms} terms exceed the limit 10! = {_EXPANSION_TERMS}")
    acc = KahanSum()
    for rows in row_blocks:
        acc.add(_elementary_symmetric_rows(rows).sum(axis=0))
    return UnivariatePolynomial(acc.value)


def _permutation_expansion(b, where):
    """All n+1 coefficients of PER(J + zB) for the d-axis array b = A - 1,
    over the (n!)^(d-1) tuples of permutations of axes 2..d, the last axis
    varying fastest, in blocks of 2^14 tuples."""
    d, n = b.ndim, b.shape[0]

    # a generator, so nothing is built before the size limit is checked
    def row_blocks():
        idx = np.arange(n)
        # product() stores its inputs, so it takes only axes 2..d-1 (none at
        # d = 2); the last axis's n! permutations stream after each head
        heads = itertools.product(*(itertools.permutations(range(n)) for _ in range(d - 2)))
        flat = itertools.chain.from_iterable(
            map(sum(head, ()).__add__, itertools.permutations(range(n))) for head in heads
        )
        for block in _chunks(flat, 1 << 14):
            perms = np.array(block, dtype=np.intp).reshape(len(block), d - 1, n)
            yield b[(idx,) + tuple(perms.transpose(1, 0, 2))]

    return _expansion_polynomial(where, math.factorial(n) ** (d - 1), row_blocks())


def g_full_expansion_permanent(mat):
    """All n+1 coefficients of g(z) = per(J + z(A - J)) by enumerating the n!
    permutations and expanding the linear factors: the d = 2 expansion,
    n <= 10."""
    if not isinstance(mat, ComplexMatrix):
        raise ShapeMismatch("g_full_expansion_permanent: expected ComplexMatrix")
    return _permutation_expansion(mat.array - 1.0, "g_full_expansion_permanent")


def _perfect_matchings(two_n):
    """The perfect matchings of indices 0..two_n-1 as tuples of pairs (i, j),
    i < j, one at a time, first-vertex pairing order: the one matching
    enumerator of both hafnian routes, over 2k slots in the pair sums and
    over all 2n vertices in the full expansion."""

    def rec(mask, chosen):
        if mask == 0:
            yield tuple(chosen)
            return
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            chosen.append((i, j))
            yield from rec(rest & ~(1 << j), chosen)
            chosen.pop()

    return rec((1 << two_n) - 1, [])


def g_full_expansion_hafnian(mat):
    """All n+1 coefficients of g(z) = haf(J + z(A - J)) over the (2n-1)!!
    perfect matchings, in blocks of 2^14 matchings. 2n <= 16."""
    if not isinstance(mat, SymmetricComplexMatrix):
        raise ShapeMismatch("g_full_expansion_hafnian: expected SymmetricComplexMatrix")
    b = mat.array - 1.0
    return _expansion_polynomial(
        "g_full_expansion_hafnian",
        _double_factorial(mat.two_n - 1),
        (
            b[tuple(np.array(block, dtype=np.intp).transpose(2, 0, 1))]
            for block in _chunks(_perfect_matchings(mat.two_n), 1 << 14)
        ),
    )


def g_full_expansion_tensor(ten):
    """All n+1 coefficients of g(z) = PER(J + z(A - J)) over the (n!)^(d-1)
    permutation tuples, (n!)^(d-1) <= 10!."""
    if not isinstance(ten, ComplexTensor):
        raise ShapeMismatch("g_full_expansion_tensor: expected ComplexTensor")
    return _permutation_expansion(ten.array - 1.0, "g_full_expansion_tensor")


# ---------------------------------------------------------------------------
# truncated inclusion-exclusion: c_k = g_k / g_0 for k <= m in n^O(m) work

# bytes per block of the prefix walk, each set's state and the temporaries
# that form it counted, and bytes of states per merged batch: memory stays
# at a few blocks whatever the number of subsets, and real inputs, run in
# float64, fit about twice the sets of complex ones in a block
_ENGINE_CHUNK = 1 << 19


def _prefix_walk(n, top, root, extend, set_bytes):
    """Depth-first walk over the subsets of range(n) of sizes 1..top, in
    blocks of one size s, each as many sets as fit _ENGINE_CHUNK bytes at
    set_bytes[s] (a set's state and extend's temporaries) plus 24 per set
    (the walk's parents, v and one transient).

    An s-set is its (s-1)-prefix plus one index v above the prefix's
    largest, so its state is extend(states, parents, v, s): the states of a
    parent block (root for the empty set) gathered by `parents`, extended by
    v. Children are ordered by v, then parent, so a block is sorted by
    largest index. Yields (s, states) blocks, each before its children.
    """
    rows = [max(1, _ENGINE_CHUNK // (size + 24)) for size in set_bytes]
    vertices = np.arange(n)

    def grow(s, states, last):
        # `last` is sorted, so the children taking v extend its first count[v]
        # sets: children ends[v-1] <= j < ends[v] extend set j - starts[v]
        count = last.searchsorted(vertices)
        ends = count.cumsum()
        starts = ends - count
        for lo in range(0, ends[-1], rows[s + 1]):
            size = np.maximum(np.minimum(ends, lo + rows[s + 1]) - np.maximum(starts, lo), 0)
            v = vertices.repeat(size)
            parents = np.arange(lo, lo + v.size) - starts.repeat(size)
            child = extend(states, parents, v, s + 1)
            yield s + 1, child
            if s + 1 < top:
                yield from grow(s + 1, child, v)

    yield from grow(0, root, np.array([-1]))


def _merged(blocks, weights, w):
    """The (s, states) blocks of a walk, states of shape (sets, C, ...),
    merged into (states, weights) batches of about _ENGINE_CHUNK bytes:
    states of shape (sets * C, ...), and w[s] * weights[c] for each row."""

    def merge(batch):
        sizes = np.repeat([s for s, _ in batch], [len(st) for _, st in batch])
        states = np.concatenate([st for _, st in batch])
        rows = w[sizes][:, None, :] * weights
        return states.reshape((-1,) + states.shape[2:]), rows.reshape(-1, w.shape[1])

    batch, size = [], 0
    for block in blocks:
        batch.append(block)
        size += block[1].nbytes
        if size >= _ENGINE_CHUNK:
            yield merge(batch)
            batch, size = [], 0
    if batch:
        yield merge(batch)


def _elementary_symmetric(r, m):
    """e_0..e_m of each column of r (n, N): the coefficients of
    prod_i (1 + z r[i]) up to z^m, shape (m + 1, N)."""
    e = np.zeros((m + 1, r.shape[1]), dtype=r.dtype)
    e[0] = 1.0
    if m == 1:
        # the pass would add each row to e_1 alone
        e[1] = r.sum(axis=0)
        return e
    for i, ri in enumerate(r):
        top = min(i + 1, m)
        e[1 : top + 1] += ri * e[:top]
    return e


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


def _tensor_terms(b, weights, m, w, acc):
    """Add to acc the inclusion-exclusion terms of a batch b of C tensors,
    shape (C, n, ..., n), weighted by weights (C, m + 1).

    One prefix walk over the column sets T of each tensor's second axis
    contracts it to the slabs B(T + {v}) = B(T) + b[:, :, v]. For matrices
    the slab is the row-sum vector r(T), and every set adds
    w[|T|] * e_{0..m}(r(T)) through one elementary-symmetric pass per
    merged batch; higher tensors recurse on their slabs, weighted by
    w[|T|] per axis.
    """
    n = b.shape[1]
    slabs = b.transpose((2, 0, 1) + tuple(range(3, b.ndim)))

    def extend(states, parents, v, s):
        child = states.take(parents, axis=0)
        child += slabs[v]
        return child

    root = np.zeros((1,) + slabs.shape[1:], dtype=b.dtype)
    # a set's slab, and the slab of b gathered to extend it
    blocks = _prefix_walk(n, m, root, extend, [2 * slabs[0].nbytes] * (m + 1))
    for states, rows in _merged(blocks, weights, w):
        if b.ndim > 3:
            _tensor_terms(states, rows, m, w, acc)
        else:
            acc.add((_elementary_symmetric(states.T, m) * rows.T).sum(axis=1))


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
    vertex sets 2 <= |S| <= 2m, e(S) = sum_{i<j in S} b_ij.

    One prefix walk carries e(S) and R_S = sum_{u in S} b[u, :]:
    e(S + {v}) = e(S) + R_S[v] and R_{S + {v}} = R_S + b[v]. The deepest
    sets need no R, and their parents' R is read only at the deepest sets'
    entries, so it stays unformed: (R of the grandparents, grandparent, u)
    with R_{S + {u}}[v] = R_S[v] + b[u, v].
    """
    two_n = b.shape[0]
    top = 2 * m
    w = _hafnian_weights(two_n, m)
    flat_b = b.ravel()

    def extend(states, parents, v, s):
        e, r = states
        child_e = e[parents]
        if isinstance(r, tuple):
            r, grand, u = r
            child_e += flat_b[u[parents] * two_n + v]
            parents = grand[parents]
        child_e += r.ravel()[parents * two_n + v]
        if s == top:
            return child_e, None
        if s == top - 1:
            return child_e, (r, parents, v)
        child_r = r.take(parents, axis=0)
        child_r += b.take(v, axis=0)
        return child_e, child_r

    root = (np.zeros(1, dtype=b.dtype), np.zeros((1, two_n), dtype=b.dtype))
    acc = KahanSum()
    sums = np.zeros(m + 1, dtype=b.dtype)
    # bytes per set: e, R, b's row added to R, e's increment and its index;
    # the two deepest levels carry e alone, with one increment, and with two
    # and the powers of e
    set_bytes = [(2 * two_n + 2) * b.itemsize + 8] * (top - 1) + [2 * b.itemsize + 8, 4 * b.itemsize + 24]
    for s, (e, _) in _prefix_walk(two_n, top, root, extend, set_bytes):
        if s < 2:
            continue
        power = e
        for k in range(1, m + 1):
            sums[k] = power.sum()
            power = power * e
        acc.add(sums * w[s])
    return acc.value


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

    The sets come from one depth-first prefix walk (_prefix_walk): each
    s-set is its (s-1)-prefix plus one larger index v, so r(T + {v}) =
    r(T) + b[:, v] and e(S + {v}) = e(S) + R_S[v] cost one vector add per
    set, not s. All sizes of a block share one elementary-symmetric pass,
    and blocks of _ENGINE_CHUNK bytes, states and temporaries together,
    bound the memory. Real inputs run in float64 and complex ones in
    complex128; the result is complex128 either way.

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
    # real inputs run in float64: the same arithmetic on half the bytes
    b = value.array
    b = (b if b.imag.any() else b.real) - 1.0
    if isinstance(value, SymmetricComplexMatrix):
        out = _hafnian_coefficients(b, m)
    else:
        acc = KahanSum()
        _tensor_terms(b[None], np.ones((1, m + 1)), m, _ryser_weights(n, m), acc)
        out = acc.value
    out = out.astype(np.complex128)
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


def choose_degree(deg_g, beta, epsilon, limit=MAX_DEGREE):
    """Smallest m with taylor_error_bound(deg_g, beta, m) <= epsilon.

    In t = ln(m + 1) the bound is epsilon where a e^t + t = c, a = ln beta,
    c = ln(deg_g / ((beta - 1) epsilon)) + a: convex and increasing, so
    Newton from above falls monotonically onto the root. m then steps on
    taylor_error_bound itself, which decides exact ties.
    """
    if not epsilon > 0:
        raise ValueError(f"choose_degree: epsilon must be > 0, got {epsilon}")
    if not beta > 1.0:
        raise BetaNotGreaterThanOne(f"choose_degree: beta={beta} must exceed 1")
    if deg_g == 0:
        return 0
    if taylor_error_bound(deg_g, beta, limit) > epsilon:
        raise BudgetExceeded(f"choose_degree: certified degree exceeds {limit}")
    a = math.log(beta)
    c = math.log(deg_g) - math.log(beta - 1.0) - math.log(epsilon) + a
    m = 0
    if c > a:
        # at the root each term of a e^t + t alone is at most c
        t, step = min(c, math.log(c / a)), math.inf
        while step > 1e-12 * max(1.0, t):
            grow = a * math.exp(t)
            step = (grow + t - c) / (grow + 1.0)
            t -= step
        m = min(math.ceil(math.exp(t)) - 1, limit)
    while taylor_error_bound(deg_g, beta, m) > epsilon:
        m += 1
    while m > 0 and taylor_error_bound(deg_g, beta, m - 1) <= epsilon:
        m -= 1
    return m


# ---------------------------------------------------------------------------
# the disc-to-strip polynomial


_PHI_PANEL_EDGES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0)
_PHI_NODES_PER_PANEL = 32


# cached: leggauss costs far more than one evaluation of phi, and disc-only
# callers never pay it
@functools.cache
def _gauss_legendre():
    """The Gauss-Legendre rule on [-1, 1] that every panel uses, read-only."""
    x, w = np.polynomial.legendre.leggauss(_PHI_NODES_PER_PANEL)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _phi_quadrature():
    """Gauss-Legendre nodes t on the panels and their weights times e^(-t),
    read-only since every caller shares them."""
    x, w = _gauss_legendre()
    nodes = []
    weights = []
    for a, b in zip(_PHI_PANEL_EDGES[:-1], _PHI_PANEL_EDGES[1:]):
        half = 0.5 * (b - a)
        nodes.append(half * (x + 1.0) + a)
        weights.append(half * w)
    nodes = np.concatenate(nodes)
    weights = np.exp(-nodes) * np.concatenate(weights)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _phi_tail(y, big_n):
    """T_N(y) = sum_{j>N} y^j / j for a complex array y with |y| < 1, as
    y^(N+1)/(N+1) * int_0^inf e^(-t) / (1 - y e^(-t/(N+1))) dt by
    Gauss-Legendre panels on [0, 60]."""
    nodes, weights = _phi_quadrature()
    np1 = big_n + 1.0
    denom = 1.0 - y[:, None] * np.exp(-nodes / np1)
    integral = (weights / denom).sum(axis=1)
    nonzero = y != 0
    ypow = np.zeros_like(y)
    ypow[nonzero] = np.exp(np1 * np.log(y[nonzero]))
    return ypow * integral / np1


class PhiPolynomial:
    """phi(z) = (1/sigma) sum_{j=1}^N (alpha z)^j / j with the constants
    derived from rho:

        alpha = 1 - e^(-1/rho)
        beta  = (1 - e^(-1-1/rho)) / alpha
        N     = max(floor((1 + 1/rho) e^(1 + 1/rho)), degree)
        sigma = sum_{j=1}^N alpha^j / j

    phi(0) = 0, phi(1) = 1, and the disc |z| <= beta maps into the strip
    -rho <= Re <= 1 + 2 rho, |Im| <= 2 rho. Both sigma and phi(z) are the
    truncated log series L(y) - T_N(y), L(y) = -Ln(1 - y), at y = alpha and
    y = alpha z, with the tail T_N from _phi_tail, so phi(1) is 1 exactly.
    Coefficients are generated on demand by coeff_prefix; the full
    polynomial is never materialized.

    The paper's lemma gives the strip at its N. A degree above it keeps the
    strip: as N grows, sigma = 1/rho - T_N(alpha) tends to L(alpha) = 1/rho
    and phi to rho L(alpha z), which maps |z| <= beta into
    -rho ln 2 <= Re <= 1 + rho, |Im| <= rho pi/2, strictly inside; the
    tail bound |T_N(y)| <= |y|^(N+1)/((N+1)(1 - |y|)) only shrinks with N.
    On |z| = beta, for rho in [0.03, 1] and N up to 10^6 times the paper's,
    phi stays within -0.70 rho <= Re <= 1 + 1.10 rho, |Im| <= 1.58 rho.
    """

    __slots__ = ("rho", "alpha", "beta", "N", "sigma")

    def __init__(self, rho, degree=0):
        if not (isinstance(rho, (int, float)) and 0.0 < rho <= 1.0):
            raise RhoOutOfRange(f"PhiPolynomial: rho={rho} must lie in (0, 1]")
        rho = float(rho)
        exponent = 1.0 + 1.0 / rho
        alpha = -math.expm1(-1.0 / rho)
        beta = -math.expm1(-exponent) / alpha
        # beta = 1 + O(e^(-1/rho)) rounds to 1 once e^(-1/rho) nears the
        # double epsilon (rho below about 1/36), and alpha soon after; no
        # degree then certifies the map
        if not beta > 1.0:
            raise BudgetExceeded(f"PhiPolynomial: beta rounds to 1 at rho={rho}; no degree certifies it")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        big_n = max(int(math.floor(exponent * math.exp(exponent))), int(degree))
        object.__setattr__(self, "N", big_n)
        # complex like every y in __call__, so that phi(1) divides sigma by itself
        y = np.array([alpha], dtype=np.complex128)
        object.__setattr__(self, "sigma", float((-np.log1p(-y) - _phi_tail(y, big_n))[0].real))

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

    def __call__(self, z):
        """Evaluate phi = (-Ln(1 - y) - T_N(y))/sigma at complex points
        z, y = alpha z, vectorized. Valid wherever |alpha z| < 1, which
        covers the whole disc |z| <= beta.
        """
        scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
        zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        y = self.alpha * zz
        if np.max(np.abs(y)) >= 1.0:
            raise ValueError("PhiPolynomial: evaluation needs |alpha z| < 1")
        out = (-np.log1p(-y) - _phi_tail(y, self.N)) / self.sigma
        return complex(out[0]) if scalar else out

    def __repr__(self):
        return f"PhiPolynomial(rho={self.rho}, N={self.N})"


# cached: phi depends only on (rho, degree) and is immutable, and a strip op
# at a given delta builds the same one every time
@functools.lru_cache(maxsize=64)
def build_phi(rho, degree=0):
    """PhiPolynomial for the given rho in (0, 1], of degree at least
    `degree` (see PhiPolynomial); one shared instance per (rho, degree)."""
    return PhiPolynomial(rho, degree)


# ---------------------------------------------------------------------------
# pipelines


@dataclass(frozen=True, slots=True)
class ApproxReport:
    """Certified approximation of ln per/haf/PER.

    error_bound is deg_g / ((m+1) beta^m (beta-1)) at the recorded deg_g and
    beta_used, and never exceeds the requested epsilon; it is None only when
    the region check was forcibly skipped. rho and phi_degree are None for
    disc pipelines. phi_degree is phi's degree N' = max(N, m), at least the
    paper's N (which phi-table prints). path names the route that summed the
    log series: "disc", "strip-roots", or "strip-fft (<reason>)" with the
    reason the roots route was not taken: "root guard", "z* outside the
    loop" or "quadrature error". A strip op at degree 0 sums no series and
    returns ln g(0); its path is "strip (degree 0)".
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
    path: str = None

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
        if self.path is not None:
            out["path"] = self.path
        return out


def _refuse_change(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to or delete {name!r}: ApproxReport is frozen")


# slots=True rebuilds the class, and on CPython 3.11 the __setattr__ and
# __delattr__ generated for the frozen class still name the class it replaced,
# so a name that is not a field raised TypeError from super()
ApproxReport.__setattr__ = ApproxReport.__delattr__ = _refuse_change


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


# cached: the factorials grow with n, and every op of one shape asks again
@functools.lru_cache(maxsize=64)
def _g0_facts(shape, d, n):
    """(ln g(0), g(0)) for g(0) = per/haf/PER(J), the exact count n!,
    (2n)!/(2^n n!) or (n!)^(d-1); both come from that one integer
    (math.log takes integers past the float range)."""
    if shape == "per":
        count = math.factorial(n)
    elif shape == "haf":
        count = math.factorial(2 * n) // (2**n * math.factorial(n))
    else:
        count = math.factorial(n) ** (d - 1)
    return math.log(count), _complex_or_inf(count)


def _classify(value):
    """The kind facts of an input, with g(0) from _g0_facts."""
    # coefficient functions are read from the module globals on every call,
    # so rebinding a module attribute reroutes the pipelines
    if isinstance(value, ComplexMatrix):
        shape, d, n = "per", 2, value.n
        tuple_fn, full_fn = g_derivatives_permanent, g_full_expansion_permanent
    elif isinstance(value, SymmetricComplexMatrix):
        shape, d, n = "haf", 2, value.two_n // 2
        tuple_fn, full_fn = g_derivatives_hafnian, g_full_expansion_hafnian
    elif isinstance(value, ComplexTensor):
        shape, d, n = "tensor", value.d, value.n
        tuple_fn, full_fn = g_derivatives_tensor, g_full_expansion_tensor
    else:
        raise ShapeMismatch("expected ComplexMatrix, SymmetricComplexMatrix, or ComplexTensor")
    return _KindInfo(shape, d, n, *_g0_facts(shape, d, n), tuple_fn, full_fn)


def _taylor_prefix_coeffs(value, info, mm):
    """Normalized Taylor coefficients c_k = g^(k)(0)/(k! g(0)) for k <= mm:
    the inclusion-exclusion engine below full degree (mm < n), otherwise the
    tuple sums while their operation count fits DEFAULT_BUDGET, then the
    full expansion up to 10! terms; past both, BudgetExceeded."""
    if mm < info.n:
        return g_taylor_coefficients(value, mm)
    try:
        derivs = info.tuple_fn(value, mm)
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


def _require_finite(where, total, m):
    """Refuse a log sum that overflowed: a forced degree gives up the
    certificate, not finiteness."""
    if not np.isfinite(total):
        raise InfeasibleParameters(f"{where}: the log sum at degree {m} is not finite")


def _certified_degree(where, deg_g, beta, epsilon, degree, force):
    """(m, bound): the degree `degree`, or the least one certifying epsilon,
    and its truncation bound. Raises InfeasibleParameters when `degree` is
    not a nonnegative integral number, and BudgetExceeded when m exceeds
    MAX_DEGREE or its bound exceeds epsilon (unless force)."""
    if degree is None:
        m = choose_degree(deg_g, beta, epsilon)
    else:
        try:
            m = int(degree)
        except (TypeError, ValueError, OverflowError):
            m = None
        if m is None or m != degree or m < 0:
            raise InfeasibleParameters(
                f"{where}: degree must be a nonnegative integer, got {degree!r}"
            )
    if m > MAX_DEGREE:
        raise BudgetExceeded(f"{where}: degree {m} exceeds the supported {MAX_DEGREE}")
    bound = taylor_error_bound(deg_g, beta, m)
    if bound > epsilon and not force:
        raise BudgetExceeded(f"{where}: degree {m} certifies only {bound:.3g} > epsilon {epsilon}")
    return m, bound


def _check_domain(where, value, info, family, eta, tau=None, force=False):
    """The RegionKind of `family` ("disc", "l1" or "strip") for the input's
    kind. Its RegionSpec validates eta and tau; unless force, check_region
    must then place the input inside, or RegionViolation carries the
    MembershipReport."""
    try:
        kind = RegionKind(f"{family}-{info.shape}")
    except ValueError:
        raise ShapeMismatch(f"{where}: no {family} region for {info.shape} inputs") from None
    spec = RegionSpec(kind=kind, eta=eta, tau=tau, d=info.d)
    if not force:
        membership = check_region(value, spec)
        if not membership.inside:
            raise RegionViolation(
                f"{where}: input outside {kind.value} at index "
                f"{membership.worst_index} (margin {membership.margin:.6g})",
                report=membership,
            )
    return kind


def approx_log_disc(value, eta, epsilon, l1=False, degree=None, force=False):
    """Certified approximation of ln per/haf/PER for inputs inside a disc
    (entrywise |1-a| <= eta) or line-sum (l1=True) region.

    beta = (region maximum)/eta; m = choose_degree(n, beta, epsilon) unless
    `degree` overrides it. The normalized coefficients c_0..c_min(m,n) of g
    go through the log-series recurrence series_log_coeffs_direct, and its
    m terms are summed with compensation. Raises RegionViolation when the
    input is outside (unless force=True, which blanks the certificate), and
    BudgetExceeded when m exceeds MAX_DEGREE.
    """
    t0 = time.perf_counter()
    info = _classify(value)
    if not (0.0 < epsilon < 1.0):
        raise InfeasibleParameters(f"approx_log_disc: need 0 < epsilon < 1, got {epsilon}")
    if not eta > 0.0:
        raise InfeasibleParameters(f"approx_log_disc: need eta > 0, got {eta}")
    kind = _check_domain("approx_log_disc", value, info, "l1" if l1 else "disc", eta, force=force)
    beta = region_eta_max(kind, info.d) / eta
    m, bound = _certified_degree("approx_log_disc", info.n, beta, epsilon, degree, force)
    try:
        chat = _taylor_prefix_coeffs(value, info, min(m, info.n))
        # far outside the region (only with force) the terms overflow; the
        # check below turns that into an error, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            total = info.log_g0 + compensated_total(series_log_coeffs_direct(chat, m))
    except MemoryError as exc:
        raise BudgetExceeded(f"approx_log_disc: degree {m} ran out of memory") from exc
    _require_finite("approx_log_disc", total, m)
    return ApproxReport(
        log_value=complex(total),
        degree_used=m,
        error_bound=None if force else bound,
        pipeline="l1" if l1 else "disc",
        beta_used=beta,
        deg_g=info.n,
        g0=info.g0,
        elapsed_s=time.perf_counter() - t0,
        path="disc",
    )


# cached: the value depends only on (s, d), and the bisection costs 54 tau_bound calls
@functools.lru_cache(maxsize=64)
def _strip_parameters(s, d):
    """Balance the strip widening xi against the imaginary half-width zeta.

    xi(e) = e/s - 1 grows and zeta(e) = tau_bound(e, d)/s shrinks on
    s < e < eta_max, so their crossing maximizes rho = min(xi, zeta)/2,
    the widest usable parameter for the disc-to-strip map. Returns that
    rho, capped at 1.

    Why it certifies every real input with |1 - a| <= s: phi maps the disc
    |z| <= beta into -rho <= Re w <= 1 + 2 rho, |Im w| <= 2 rho, and
    g(phi(z)) takes each entry a to 1 + w (a - 1). With a real, that entry
    has |1 - Re| = |Re w| |a - 1| <= (1 + 2 rho) s <= (1 + xi) s = e and
    |Im| = |Im w| |a - 1| <= 2 rho s <= zeta s = tau_bound(e, d), so it lies
    in the zero-free strip at e, and g(phi(z)) has no root on the disc.
    Nothing in this uses a <= 1: matrix kinds (s = 1 - delta) take entries
    in [delta, 2 - delta], tensors (s = eta) in [1 - eta, 1 + eta].
    """
    cap = eta_d_strip(d)
    lo = s * (1.0 + 1e-14)
    hi = cap * (1.0 - 1e-14)
    if not lo < hi:
        raise InfeasibleParameters(f"_strip_parameters: no room between s={s} and cap={cap}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # adjacent floats: every further step would leave 0.5 * (lo + hi) at mid
        if not lo < mid < hi:
            break
        if (mid / s - 1.0) < tau_bound(mid, d) / s:
            lo = mid
        else:
            hi = mid
    e = 0.5 * (lo + hi)
    xi = e / s - 1.0
    zeta = tau_bound(e, d) / s
    return min(min(xi, zeta) / 2.0, 1.0)


def _compose_phi(rhat, phi, m):
    """Coefficients 0..m of r(phi(z)), r(x) = sum_k rhat_k x^k real, in
    O(deg r * m) work and no FFT, for phi of degree N >= m.

    Up to z^(m-1), phi' = (alpha/sigma)/(1 - alpha z), so phi^k = k L[phi^(k-1)]
    with L f = (alpha/sigma) int_0^z f(t)/(1 - alpha t) dt, and Horner reads
    r(phi) = rhat_0 + L[rhat_1 + 2 L[rhat_2 + 3 L[rhat_3 + ...]]]. On the
    scaled coefficients v_j = f_j alpha^(-j), L is a prefix sum times
    1/((j+1) sigma). v grows only polynomially in j; one last pass
    multiplies alpha^j back.
    """
    deg = rhat.size - 1
    # v slides one slot down per Horner step, so every step works in place
    buf = np.zeros(m + 1 + deg, dtype=np.float64)
    buf[deg] = rhat[deg]
    # j = 0..m: divisors j + 1 in the Horner steps, then exponents of alpha^j
    idx = np.arange(m + 1, dtype=np.float64)
    for k in range(deg, 0, -1):
        # v = buf[k : k + m + 1] becomes buf[k - 1 : k + m]
        cs = buf[k : k + m]
        np.cumsum(cs, out=cs)
        cs /= idx[1:]
        cs *= k / phi.sigma
        buf[k - 1] = rhat[k - 1]
    idx *= math.log(phi.alpha)
    np.exp(idx, out=idx)
    buf[: m + 1] *= idx
    return buf[: m + 1]


# Smale's alpha_0: a point with alpha(f, x) below it lies within 2 beta(f, x)
# of a root (Blum, Cucker, Shub and Smale, Complexity and Real Computation, ch. 8)
_SMALE_ALPHA0 = (13.0 - 3.0 * math.sqrt(17.0)) / 4.0
_UNIT_ROUNDOFF = 2.0**-53


def _taylor_shift(c, x, rows):
    """Taylor coefficients b_k = f^(k)(x)/k!, k < rows, of the polynomial with
    ascending coefficients c at every point of x, as a (rows, x.size) array,
    with first-order running error bounds on them (Higham, Accuracy and
    Stability of Numerical Algorithms, 5.1).

    In-place synthetic division: step (k, j), k < rows and k <= j < deg,
    adds x b_{j+1} to b_j, and row k holds b_k once its steps are done. It
    reads the steps (k, j + 1) and (k - 1, j), whose k + (deg - 1 - j) is one
    smaller, so each such anti-diagonal is one slice update whose right-hand
    side still holds the previous anti-diagonal: deg numpy steps, each entry
    with the arithmetic of the per-step loop."""
    deg = c.size - 1
    b = np.repeat(np.asarray(c, dtype=np.complex128)[:, None], x.size, axis=1)
    err = np.zeros(b.shape)
    ax = np.abs(x)
    # numpy rounds a lone complex product differently when one operand is
    # broadcast; as a row, x takes the per-step loop's rounding at every size
    x_row = x[None, :]
    passes = min(rows, deg)
    for t in range(deg):
        lo = deg - 1 - t
        hi = lo + min(passes, t + 1)
        prod = x_row * b[lo + 1 : hi + 1]
        b[lo:hi] += prod
        # a complex product errs by at most sqrt(8) u, a sum by u
        err[lo:hi] += ax * err[lo + 1 : hi + 1] + _UNIT_ROUNDOFF * (np.abs(b[lo:hi]) + 3.0 * np.abs(prod))
    return b[:rows], err[:rows]


def _certified_roots(c):
    """The roots of the polynomial with ascending coefficients c, c[0] = 1,
    with radii such that each disc holds exactly one root; None when a root
    cannot be certified.

    The eigenvalues of the companion matrix that np.roots would build give
    the start points (its trimming of zeros has nothing to do: c[0] = 1 and
    the top coefficient is nonzero), and three Newton steps polish them
    against c, each evaluating f and f' by one Horner loop (the operations
    of _taylor_shift's first two passes, without their error terms). Each
    root then passes Smale's alpha-test, alpha = beta gamma < alpha_0 with
    beta = |f/f'| and gamma = max_k |f^(k)/(k! f')|^(1/(k-1)), evaluated
    with the running error bounds of one full _taylor_shift so that the
    test holds for the float polynomial; the root lies within 2 beta. The
    discs must be disjoint, so that they hold all the roots, each once. A
    multiple root fails the test. For real c the roots come in conjugate
    pairs bit for bit, as complex arithmetic commutes with conjugation.
    """
    c = c[: np.flatnonzero(c)[-1] + 1]
    deg = c.size - 1
    if deg == 0:
        return np.zeros(0, dtype=np.complex128), np.zeros(0)
    # real c keeps a real companion matrix, whose eigenvalues pair exactly
    companion = np.diag(np.ones(deg - 1, dtype=np.result_type(c, 1.0)), -1)
    companion[0] = -c[-2::-1] / c[deg]
    x = np.linalg.eigvals(companion).astype(np.complex128)
    c = c.astype(np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            f = df = c[deg]
            for j in range(deg - 1, 0, -1):
                f = c[j] + x * f
                df = f + x * df
            x = x - (c[0] + x * f) / df
    if not np.all(np.isfinite(x)):
        return None
    b, err = _taylor_shift(c, x, deg + 1)
    slope = np.abs(b[1]) - err[1]
    if np.any(slope <= 0.0):
        return None
    beta = (np.abs(b[0]) + err[0]) / slope
    power = 1.0 / np.arange(1.0, deg)[:, None]
    gamma = np.max(((np.abs(b[2:]) + err[2:]) / slope) ** power, axis=0, initial=0.0)
    if not np.all(beta * gamma < _SMALE_ALPHA0):
        return None
    radius = 2.0 * beta
    gap = np.abs(x[:, None] - x[None, :]) - radius[:, None] - radius[None, :]
    np.fill_diagonal(gap, np.inf)
    if np.any(gap <= 0.0):
        return None
    return x, radius


def _strip_roots_sum(rhat, phi, m):
    """sum_{k=1..m} psi_k of ln r(phi(z)) for the real polynomial r with
    normalized coefficients rhat, through its roots, for phi's N >= m >= deg r;
    None with the reason ("root guard", "z* outside the loop", "quadrature
    error") when this route cannot give it to roundoff.

    With N >= m, phi agrees with Phi(z) = -ln(1 - alpha z)/sigma to z^m, so
    the sum is [z^m] F(z)/(1 - z) for F = ln r(Phi) = sum_i ln(1 - Phi/zeta_i).
    Its Cauchy integral, pushed past z = 1 (residue F(1)), wraps the cut
    [1/alpha, inf) of Phi and the points z*_i = (1 - e^(-sigma zeta_i))/alpha
    where F is singular:

        S_m = F(1) + (1/2 pi i) int_H F(z) z^(-m-1) / (1 - z) dz.

    F(1) is real here, ln |r(Phi(1))| by Horner: the roots are certified
    only to their radii, which would cost it digits. In s = (m+1) ln(alpha z)
    the Hankel contour H runs in along the lower side of the cut, once
    clockwise round |s| = r and out along the upper side, where
    ln(1 - alpha z) = ln(alpha x - 1) -/+ i pi. Every root's z*, and every
    point where its principal log would jump, lies within
    |s| <= (m+1) ln(1/(1 - e^(-Re sigma zeta))) unless |Im sigma zeta| > pi,
    when there is none; the circle keeps e^2 clear of those points inside
    and of the pole at z = 1, s = (m+1) ln alpha, outside, so that every
    log on H stays on its principal branch. (Splitting off each z* as a
    closed form does not work here: z* lies within e^(-Re sigma zeta) of the
    branch point, where the rest of the log still jumps by 2 pi i.)

    r is real, so its certified roots are closed under conjugation and F
    commutes with it: the lower half of H is the mirror image of the upper
    half, and the integral is real. So the circle takes 32 Gauss-Legendre
    nodes on the upper half, summed as 2 Re, and the rays s = r + t (m+1)/m,
    whose weight falls as e^(-t), the panels of _phi_quadrature on the upper
    side only, where the jump across the cut is -2i Im F: there each factor
    gives only its argument, arctan2(Im q, 1 + Re q) with q = v/w, while the
    circle takes the complex log of each. H is evaluated at radius r and
    again at r/e, both in one batch; the two real values must agree within
    Horner's a priori bound on F(1),
    2n u sum_k |rhat_k| Phi(1)^k / |r(Phi(1))| (Higham, 5.1).
    """
    certified = _certified_roots(rhat)
    if certified is None:
        return None, "root guard"
    roots, radius = certified
    if roots.size == 0:
        return 0.0, None
    sigma = phi.sigma
    log_alpha = math.log(phi.alpha)
    # sigma zeta, moved by the certified radius towards the cut
    w = sigma * roots
    re_w = w.real - sigma * radius
    free = np.abs(w.imag) - sigma * radius > math.pi
    if np.any(re_w[~free] <= 0.0):
        return None, "z* outside the loop"
    inner = (m + 1) * float(np.max(-np.log1p(-np.exp(-re_w[~free])), initial=0.0))
    pole = -(m + 1) * log_alpha
    margin = math.e**2
    # r >= 1 where the pole allows it: the rays' first panel is one unit
    # long, and the branch point s = 0 then sits at least that far back
    r = min(max(1.0, margin * inner), pole / margin)
    if not margin * inner < r:
        return None, "z* outside the loop"

    def weight(s, decay):
        # z^(-m) / ((1 - z)(m + 1)) with z = e^(s/(m+1))/alpha, e^(-t) left out
        # on the rays; alpha - e^u is -(expm1(u) + 1 - alpha), 1 - alpha exact
        u = s / (m + 1)
        return np.exp((m + 1) * log_alpha - decay * (m / (m + 1))) / (
            -(np.expm1(u) + (1.0 - phi.alpha)) * (m + 1)
        )

    # one row per radius: the upper half circle, then the upper side of the cut
    x, wx = _gauss_legendre()
    theta = 0.5 * math.pi * (x + 1.0)
    nodes, weights = _phi_quadrature()
    radii = np.array([[r], [r / math.e]])
    s_loop = radii * np.exp(1j * theta)
    s_ray = radii + nodes * ((m + 1) / m)
    # F at points where ln(1 - alpha z) = v, since 1 - Phi/zeta = 1 + v/w;
    # the rays need only Im F, the sum of the arguments of 1 + v/w
    v = np.log(-np.expm1(s_loop / (m + 1)))
    f = np.log1p(v[:, :, None] / w).sum(axis=2)
    q = (np.log(np.expm1(s_ray / (m + 1))) + 1j * math.pi)[:, :, None] / w
    im_f = np.arctan2(q.imag, 1.0 + q.real).sum(axis=2)
    loop = -np.sum(wx * (f * weight(s_loop, s_loop) * s_loop).real, axis=1)
    rays = -np.sum(weights * im_f * weight(s_ray, radii), axis=1) * ((m + 1) / m)
    # 1/(2 pi) times the angle weights (pi/2) wx counted twice (2 Re) is 1/2;
    # the jump -2i Im F over 2 pi i is -Im F / pi
    h = 0.5 * loop + rays / math.pi

    at_one = -math.log1p(-phi.alpha) / sigma
    r_at_one = float(np.polynomial.polynomial.polyval(at_one, rhat))
    bound = 2 * roots.size * _UNIT_ROUNDOFF * float(
        np.polynomial.polynomial.polyval(at_one, np.abs(rhat))
    ) / abs(r_at_one)
    if not abs(h[0] - h[1]) <= bound:
        return None, "quadrature error"
    return math.log(abs(r_at_one)) + float(h[0]), None


def _require_real(arr, where):
    if np.any(arr.imag != 0):
        idx = np.unravel_index(int(np.argmax(arr.imag != 0)), arr.shape)
        raise RegionViolation(
            f"{where}: entries must be real; index {tuple(int(i) + 1 for i in idx)} is not"
        )


def approx_log_strip(value, delta_or_eta, epsilon, degree=None, force=False):
    """Certified approximation of ln per/haf/PER for real inputs bounded only
    in a strip sense: every entry has |1 - a| <= s, with s = 1 - delta for
    matrix kinds (delta_or_eta = delta, entries in [delta, 2 - delta]) and
    s = eta for tensors (delta_or_eta = eta). That is check_region's real
    segment, RegionSpec(STRIP_*, eta=s, tau=0); _strip_parameters says why
    it certifies.

    Builds phi for the balanced rho (build_phi shares one per rho and
    degree) and takes the normalized coefficients r of g up to min(m, n)
    from the engine. The answer is ln g(0) plus the sum of the first m
    log-series coefficients psi_k of ln r(phi(z)); psi_k reads only
    r_0..r_k, so r cut at degree m < n gives the same sum. One of two
    routes, which differ only in how that sum is computed, gives it:

    - strip-roots, when the roots of r pass the guard of _certified_roots:
      O(n) closed forms and one contour quadrature (_strip_roots_sum), with
      no array of length m.
    - strip-fft otherwise: r(phi(z)) composed to degree m through phi's own
      differential equation (_compose_phi) and summed by the FFT series
      engine, in O(m log m) time and O(m) memory.

    Both need phi's degree N' >= m, with m certified for deg_g = N' n: while
    m > N', N' takes m and m is certified again. m grows only by
    ln(N'/N)/ln beta, so this settles in a few steps.

    The report's path names the route, and for strip-fft the reason. Degree
    0 returns ln g(0) with path "strip (degree 0)".
    """
    t0 = time.perf_counter()
    info = _classify(value)
    if not (0.0 < epsilon < 1.0):
        raise InfeasibleParameters(f"approx_log_strip: need 0 < epsilon < 1, got {epsilon}")
    _require_real(value.array, "approx_log_strip")
    try:
        s = float(delta_or_eta)
    except (TypeError, ValueError, OverflowError) as exc:
        name = "eta" if info.shape == "tensor" else "delta"
        raise InfeasibleParameters(f"approx_log_strip: {name} is not a float: {exc}") from exc
    if info.shape == "tensor":
        if not s >= 0.0:
            raise InfeasibleParameters(f"approx_log_strip: eta must be >= 0, got {s}")
    elif 0.0 < s <= 1.0:
        # delta gives the segment's half-width 1 - delta
        s = 1.0 - s
    else:
        raise InfeasibleParameters(f"approx_log_strip: delta must lie in (0, 1], got {s}")
    _check_domain("approx_log_strip", value, info, "strip", s, tau=0.0, force=force)
    if s == 0.0:
        rho = 1.0
    else:
        rho = _strip_parameters(s, info.d)
    phi = build_phi(rho)
    big_n = phi.N
    while True:
        m, bound = _certified_degree("approx_log_strip", big_n * info.n, phi.beta, epsilon, degree, force)
        if m <= big_n:
            break
        big_n = m
    if big_n > phi.N:
        phi = build_phi(rho, big_n)
    deg_g = phi.N * info.n
    total = info.log_g0
    path = "strip (degree 0)"
    try:
        if m > 0:
            chat = g_taylor_coefficients(value, min(m, info.n)).real
            part, why = _strip_roots_sum(chat, phi, m)
            if part is None:
                g_c = _compose_phi(chat, phi, m)
                part = series_log_prefix_sum(g_c, m)
                del g_c
            total += part
            path = "strip-roots" if why is None else f"strip-fft ({why})"
    except MemoryError as exc:
        raise BudgetExceeded(f"approx_log_strip: degree {m} ran out of memory") from exc
    _require_finite("approx_log_strip", total, m)
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
        path=path,
    )
