"""Truncated power-series arithmetic sized for degrees up to ~10^8.

Arrays hold ascending coefficients (index k = coefficient of z^k). The FFT
routines serve the strip pipeline and take float64 input; the log-series
recurrence and the compensated sum also take complex input, for the disc
pipeline. Products use the real FFT above a small-size threshold; a
series multiplied by several others goes through _multiplier, which
shares one transform of it among those products. The reciprocal runs
Newton doubling on a schedule planned down from its target length; each
stage's wrap-tolerant product and its update share one multiplier of r.
The log-series sum divides c'/c by Karp-Markstein: a reciprocal to half
the length, whose multiplier serves both halves, then products of length
~m, so the largest transforms are ~m long instead of ~2m. Memory is the
binding constraint at the top sizes, so intermediates are freed eagerly.
series_log_coeffs_direct, the O(m * deg c) recurrence, converts the disc
pipeline's short coefficient lists and is the reference the FFT route is
tested against. KahanSum is the package's one compensated accumulator:
the coefficient engine, the reference routes and the exact oracles add
into it, and compensated_total folds its chunk sums through it.
"""

import numpy as np

from .errors import ZeroBaseValue

__all__ = [
    "good_fft_size",
    "series_mul",
    "series_reciprocal",
    "series_log_coeffs_direct",
    "series_log_prefix_sum",
    "compensated_total",
]

_DIRECT_MUL_CUTOFF = 1 << 18


def good_fft_size(n):
    """Smallest 5-smooth integer >= n (pocketfft handles radix 2/3/5 well)."""
    if n <= 1:
        return 1
    best = 1 << int(n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            k = p35
            while k < n:
                k *= 2
            if k < best:
                best = k
            p35 *= 3
        p5 *= 5
    return best


def series_mul(a, b, out_len):
    """First out_len coefficients of the product of two coefficient arrays."""
    a = a[:out_len]
    b = b[:out_len]
    if a.size * b.size <= _DIRECT_MUL_CUTOFF:
        return np.convolve(a, b)[:out_len]
    need = a.size + b.size - 1
    size = good_fft_size(need)
    return _transformed_mul(np.fft.rfft(a, size), b, size)[: min(need, out_len)].copy()


def _transformed_mul(fa, b, size):
    """Cyclic convolution of length `size` of b with the array whose rfft at
    `size` is fa; b is zero-padded to size."""
    fb = np.fft.rfft(b, size)
    fb *= fa
    out = np.fft.irfft(fb, size)
    del fb
    return out


def _multiplier(r, size):
    """b, count -> first count terms of r*b, for products of at most `size`
    terms. A short r multiplies directly through series_mul; a long one
    shares one rfft of r at `size` among all its products."""
    if r.size * r.size <= _DIRECT_MUL_CUTOFF:
        return lambda b, count: series_mul(r, b, count)
    fr = np.fft.rfft(r, size)
    return lambda b, count: _transformed_mul(fr, b, size)[:count]


def series_reciprocal(c, out_len):
    """First out_len coefficients of 1/c, requiring c[0] != 0; an empty
    array for out_len 0.

    Newton doubling r -> r(2 - cr) on a schedule planned from the top:
    out_len, ceil(out_len/2), ... down to the <= 256-term direct base case,
    so each stage doubles exactly into its target. A stage growing r from
    ell to nxt terms needs c*r only on [ell, nxt), and a cyclic convolution
    of length >= nxt wraps only terms that land below ell. The update
    r*err has nxt - 1 terms and does not wrap at that length either, so
    both products go through one _multiplier of r: direct for a short r,
    one shared transform of r for a long one.
    """
    if c.size == 0 or c[0] == 0:
        raise ZeroBaseValue("series_reciprocal: constant term must be nonzero")
    c = c[:out_len]
    if c.size < out_len:
        # zero-padded, so that every stage's c*r has nxt terms
        c = np.concatenate((c, np.zeros(out_len - c.size)))
    targets = []
    base = out_len
    while base > 256:
        targets.append(base)
        base = (base + 1) // 2
    # the direct recurrence keeps each term's error relative to that term;
    # Newton from fewer terms does not where 1/c grows before it decays
    r = np.empty(base, dtype=np.float64)
    r[:1] = 1.0 / c[:1]  # no term when out_len is 0
    for k in range(1, base):
        jmax = min(k, c.size - 1)
        s = np.dot(c[1 : jmax + 1], r[k - jmax : k][::-1]) if jmax >= 1 else 0.0
        r[k] = -s / c[0]
    for nxt in reversed(targets):
        ell = r.size
        times_r = _multiplier(r, good_fft_size(nxt))
        err = times_r(c[:nxt], nxt)[ell:]
        upd = times_r(err, nxt - ell)
        del times_r, err
        grown = np.empty(nxt, dtype=np.float64)
        grown[:ell] = r
        np.negative(upd, out=grown[ell:])
        del upd
        r = grown
    return r


def series_log_coeffs_direct(c, m):
    """Coefficients psi_1..psi_m of log(c / c[0]) by the triangular recurrence
    k*psi_k = k*c~_k - sum_{j=k-deg..k-1} j*psi_j*c~_{k-j}, with
    deg = min(c.size, m + 1) - 1 since c~_i vanishes past deg. O(m*deg) in
    the dtype of c, real or complex. The disc pipeline's log conversion and
    the reference for series_log_prefix_sum."""
    if c.size == 0 or c[0] == 0:
        raise ZeroBaseValue("series_log_coeffs_direct: constant term must be nonzero")
    dtype = np.result_type(c, np.float64)
    deg = min(c.size, m + 1) - 1
    ct = np.zeros(m + 1, dtype=dtype)
    ct[: deg + 1] = c[: deg + 1] / c[0]
    psi = np.zeros(m + 1, dtype=dtype)
    jidx = np.arange(m + 1, dtype=np.float64)
    for k in range(1, m + 1):
        j0 = max(1, k - deg)
        s = k * ct[k] - np.dot(jidx[j0:k] * psi[j0:k], ct[k - j0 : 0 : -1])
        psi[k] = s / k
    return psi[1:]


class KahanSum:
    """Compensated accumulator (Kahan). Takes float, complex or ndarray
    values, the last elementwise; the total starts at 0.0, so it stays a
    float while only floats are added."""

    __slots__ = ("total", "carry")

    def __init__(self):
        self.total = 0.0
        self.carry = 0.0

    def add(self, value):
        y = value - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t

    @property
    def value(self):
        return self.total


def compensated_total(values):
    """Ascending-order compensated sum of a 1-d real or complex array; a
    float for real input, a complex for complex input.

    Fixed chunking plus a KahanSum across chunks: deterministic for a given
    array, accurate enough for 1e8 terms.
    """
    scalar = complex if np.iscomplexobj(values) else float
    acc = KahanSum()
    chunk = 1 << 16
    for lo in range(0, values.size, chunk):
        acc.add(scalar(np.sum(values[lo : lo + chunk])))
    return acc.value


def series_log_prefix_sum(c, m):
    """sum_{k=1..m} psi_k for psi = log(c/c[0]), as psi_k = h_{k-1}/k with
    h = c~'/c~ mod z^m and c~ = c/c[0] zero-padded to m+1 terms.

    Karp-Markstein division: with k = ceil(m/2) and r = 1/c~ mod z^k, the
    low half of h is q0 = c~' r mod z^k and the high half is
    r (c~'[k:m] - (c~ q0)[k:m]) mod z^(m-k). The middle product (c~ q0)[k:m]
    is alias-free in a cyclic convolution of length >= m, so the reciprocal
    runs to k terms only and the largest transform is ~m long. Both
    products with r fit that length, so they share one transform of r.
    """
    if c.size == 0 or c[0] == 0:
        raise ZeroBaseValue("series_log_prefix_sum: constant term must be nonzero")
    ct = np.zeros(m + 1, dtype=np.float64)
    take = min(m + 1, c.size)
    np.divide(c[:take], c[0], out=ct[:take])
    k = (m + 1) // 2
    size = good_fft_size(m)
    times_r = _multiplier(series_reciprocal(ct, k), size)
    q0 = times_r(ct[1 : k + 1] * np.arange(1, k + 1, dtype=np.float64), k)
    h = np.empty(m, dtype=np.float64)
    h[:k] = q0
    del q0
    if m > k:
        tail = ct[k + 1 :] * np.arange(k + 1, m + 1, dtype=np.float64)
        # the middle product, with c~ released before the second transform
        spec = np.fft.rfft(ct[:m], size)
        del ct
        spec *= np.fft.rfft(h[:k], size)
        tail -= np.fft.irfft(spec, size)[k:m]
        del spec
        h[k:] = times_r(tail, m - k)
        del tail
    del times_r
    h /= np.arange(1, m + 1, dtype=np.float64)
    return compensated_total(h)
