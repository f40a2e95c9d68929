"""Truncated real power-series arithmetic sized for degrees up to ~10^8.

Everything here operates on plain float64 numpy arrays of ascending
coefficients (index k = coefficient of z^k) and is internal plumbing for the
strip pipeline. Products use the real FFT above a small-size threshold. The
reciprocal runs Newton doubling on a schedule planned down from its target
length, with one wrap-tolerant cyclic product per stage. The log-series sum
divides c'/c by Karp-Markstein: a reciprocal to half the length, then
products of length ~m, so the largest transforms are ~m long instead of
~2m. Memory is the binding constraint at the top sizes, so intermediates
are freed eagerly.
"""

import math

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
    limit = min(need, out_len)
    size = good_fft_size(need)
    fa = np.fft.rfft(a, size)
    fb = np.fft.rfft(b, size)
    fa *= fb
    del fb
    out = np.fft.irfft(fa, size)
    del fa
    return out[:limit].copy()


def _cyclic_mul(a, b, size):
    """Cyclic convolution of length `size`; inputs are zero-padded to size."""
    fa = np.fft.rfft(a, size)
    fb = np.fft.rfft(b, size)
    fa *= fb
    del fb
    out = np.fft.irfft(fa, size)
    del fa
    return out


def series_reciprocal(c, out_len):
    """First out_len coefficients of 1/c, requiring c[0] != 0.

    Newton doubling r -> r(2 - cr) on a schedule planned from the top:
    out_len, ceil(out_len/2), ... down to the <= 256-term direct base case,
    so each stage doubles exactly into its target. A stage growing r from
    ell to nxt terms needs c*r only on [ell, nxt), and a cyclic convolution
    of length >= nxt wraps only terms that land below ell, so each stage
    costs one cyclic product at ~nxt plus one linear product of length
    nxt - ell for the update.
    """
    if c.size == 0 or c[0] == 0:
        raise ZeroBaseValue("series_reciprocal: constant term must be nonzero")
    c = c[:out_len]
    targets = []
    base = out_len
    while base > 256:
        targets.append(base)
        base = (base + 1) // 2
    r = np.empty(base, dtype=np.float64)
    r[0] = 1.0 / c[0]
    for k in range(1, base):
        jmax = min(k, c.size - 1)
        s = np.dot(c[1 : jmax + 1], r[k - jmax : k][::-1]) if jmax >= 1 else 0.0
        r[k] = -s / c[0]
    for nxt in reversed(targets):
        ell = r.size
        cyc = _cyclic_mul(c[:nxt], r, good_fft_size(nxt))
        err = cyc[ell:nxt]
        del cyc
        upd = series_mul(r, err, nxt - ell)
        del err
        grown = np.empty(nxt, dtype=np.float64)
        grown[:ell] = r
        grown[ell:] = -upd
        del upd
        r = grown
    return r


def series_log_coeffs_direct(c, m):
    """Coefficients psi_1..psi_m of log(c / c[0]) by the triangular recurrence
    k*psi_k = k*c~_k - sum_{j=1..k-1} j*psi_j*c~_{k-j}. O(m^2); reference
    path and small-m workhorse."""
    if c.size == 0 or c[0] == 0:
        raise ZeroBaseValue("series_log_coeffs_direct: constant term must be nonzero")
    ct = np.zeros(m + 1, dtype=np.float64)
    take = min(m + 1, c.size)
    ct[:take] = c[:take] / c[0]
    psi = np.zeros(m + 1, dtype=np.float64)
    jidx = np.arange(m + 1, dtype=np.float64)
    for k in range(1, m + 1):
        s = k * ct[k]
        if k > 1:
            s -= np.dot(jidx[1:k] * psi[1:k], ct[k - 1 : 0 : -1])
        psi[k] = s / k
    return psi[1:]


def compensated_total(values):
    """Ascending-order compensated sum of a 1-d float array.

    Fixed chunking plus Kahan carry across chunks: deterministic for a given
    array, accurate enough for 1e8 terms.
    """
    total = 0.0
    carry = 0.0
    chunk = 1 << 16
    for lo in range(0, values.size, chunk):
        v = float(np.sum(values[lo : lo + chunk]))
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def series_log_prefix_sum(c, m):
    """sum_{k=1..m} psi_k for psi = log(c/c[0]), as psi_k = h_{k-1}/k with
    h = c~'/c~ mod z^m and c~ = c/c[0] zero-padded to m+1 terms.

    Karp-Markstein division: with k = ceil(m/2) and r = 1/c~ mod z^k, the
    low half of h is q0 = c~' r mod z^k and the high half is
    r (c~'[k:m] - (c~ q0)[k:m]) mod z^(m-k). The middle product (c~ q0)[k:m]
    is alias-free in a cyclic convolution of length >= m, so the reciprocal
    runs to k terms only and the largest transform is ~m long.
    """
    if c.size == 0 or c[0] == 0:
        raise ZeroBaseValue("series_log_prefix_sum: constant term must be nonzero")
    ct = np.zeros(m + 1, dtype=np.float64)
    take = min(m + 1, c.size)
    ct[:take] = c[:take] / c[0]
    k = (m + 1) // 2
    r = series_reciprocal(ct, k)
    h = np.empty(m, dtype=np.float64)
    h[:k] = series_mul(ct[1 : k + 1] * np.arange(1, k + 1, dtype=np.float64), r, k)
    if m > k:
        tail = ct[k + 1 :] * np.arange(k + 1, m + 1, dtype=np.float64)
        tail -= _cyclic_mul(ct[:m], h[:k], good_fft_size(m))[k:m]
        del ct
        h[k:] = series_mul(r, tail, m - k)
        del tail
    del r
    h /= np.arange(1, m + 1, dtype=np.float64)
    return compensated_total(h)
