"""Zero-free region constants, membership checks, and the polynomial tools
that certify root-free radii (Schur products, partial exponential sums).

Every bound here is a closed-form or numerically pinned constant; membership
comparisons are closed (<=), so boundary points count as inside.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ComplexMatrix,
    ComplexTensor,
    SymmetricComplexMatrix,
    UnivariatePolynomial,
    schur_product,
)
from .errors import EtaTooLarge, ShapeMismatch, SizeLimitExceeded

__all__ = [
    "RegionKind",
    "RegionSpec",
    "MembershipReport",
    "alpha_constant",
    "tau_bound",
    "eta_d_disc",
    "eta_d_strip",
    "eta_d_l1",
    "matching_weight_budget",
    "partial_exp_poly",
    "check_region",
    "schur_product",
]


@lru_cache(maxsize=1)
def alpha_constant():
    """The real solution of alpha * e^(1 + alpha) = 1, by bisection.

    Residual below 1e-14; the bracket [0.2, 0.3] straddles the root.
    """
    lo, hi = 0.2, 0.3
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(1.0 + mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tau_bound(eta, d=2):
    """Admissible imaginary half-width (1 - eta) * sin(pi/(4(d-1)) - arctan eta).

    Positive only while arctan(eta) < pi/(4(d-1)); beyond that the strip
    collapses and EtaTooLarge is raised.
    """
    if d < 2:
        raise ShapeMismatch(f"tau_bound: d must be >= 2, got {d}")
    if eta < 0:
        raise EtaTooLarge(f"tau_bound: eta must be >= 0, got {eta}")
    angle = math.pi / (4 * (d - 1)) - math.atan(eta)
    if angle <= 0 or eta >= 1:
        raise EtaTooLarge(f"tau_bound: eta={eta} leaves no positive width at d={d}")
    return (1.0 - eta) * math.sin(angle)


@lru_cache(maxsize=32)
def eta_d_disc(d):
    """Largest disc radius sin(theta/2)*cos((d-1)theta/2) over
    0 < theta < 2pi/(3(d-1)), with the maximizing theta.

    Golden-section search to 1e-12 on the unimodal objective. Returns
    (eta, theta).
    """
    if d < 2:
        raise ShapeMismatch(f"eta_d_disc: d must be >= 2, got {d}")
    lo, hi = 0.0, 2.0 * math.pi / (3.0 * (d - 1))

    def h(theta):
        return math.sin(theta / 2.0) * math.cos((d - 1) * theta / 2.0)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    e = a + inv_phi * (b - a)
    hc, he = h(c), h(e)
    while b - a > 1e-12:
        if hc > he:
            b, e, he = e, c, hc
            c = b - inv_phi * (b - a)
            hc = h(c)
        else:
            a, c, hc = c, e, he
            e = a + inv_phi * (b - a)
            he = h(e)
    theta = 0.5 * (a + b)
    return h(theta), theta


def eta_d_strip(d):
    """Largest strip half-width tan(pi/(4(d-1)))."""
    if d < 2:
        raise ShapeMismatch(f"eta_d_strip: d must be >= 2, got {d}")
    if d == 2:
        return 1.0
    return math.tan(math.pi / (4 * (d - 1)))


def eta_d_l1(d):
    """Largest per-line budget fraction alpha^(d-1) * (d-1)^(d-1) / d^d."""
    if d < 2:
        raise ShapeMismatch(f"eta_d_l1: d must be >= 2, got {d}")
    return alpha_constant() ** (d - 1) * (d - 1) ** (d - 1) / d**d


def matching_weight_budget(d):
    """Per-vertex absolute-weight budget (d-1)^(d-1) / d^d under which the
    matching polynomial stays root-free in the closed unit disc."""
    if d < 2:
        raise ShapeMismatch(f"matching_weight_budget: d must be >= 2, got {d}")
    return (d - 1) ** (d - 1) / d**d


def partial_exp_poly(n):
    """Truncated exponential series sum_{k=0..n} z^k / k!.

    Limited to n <= 170 so the coefficients stay in double range.
    """
    if n < 1:
        raise ShapeMismatch(f"partial_exp_poly: n must be >= 1, got {n}")
    if n > 170:
        raise SizeLimitExceeded(f"partial_exp_poly: n={n} exceeds 170")
    coeffs = np.empty(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    for k in range(1, n + 1):
        coeffs[k] = coeffs[k - 1] / k
    return UnivariatePolynomial(coeffs)


class RegionKind(enum.Enum):
    DISC_PER = "disc-per"
    DISC_HAF = "disc-haf"
    DISC_TENSOR = "disc-tensor"
    STRIP_PER = "strip-per"
    STRIP_HAF = "strip-haf"
    STRIP_TENSOR = "strip-tensor"
    L1_PER = "l1-per"
    L1_TENSOR = "l1-tensor"

    def __init__(self, value):
        # plain attributes: every RegionSpec and check_region reads them
        self.family, self.shape = value.split("-")


def region_eta_max(kind, d=2):
    """Strict upper limit on eta for each region kind."""
    if kind in (RegionKind.DISC_PER, RegionKind.DISC_HAF):
        return 0.5
    if kind is RegionKind.DISC_TENSOR:
        return eta_d_disc(d)[0]
    if kind in (RegionKind.STRIP_PER, RegionKind.STRIP_HAF):
        return 1.0
    if kind is RegionKind.STRIP_TENSOR:
        return eta_d_strip(d)
    if kind is RegionKind.L1_PER:
        return alpha_constant() / 4.0
    if kind is RegionKind.L1_TENSOR:
        return eta_d_l1(d)
    raise ShapeMismatch(f"region_eta_max: unknown kind {kind}")


@dataclass(frozen=True)
class RegionSpec:
    """Parameters identifying one zero-free hypothesis.

    eta must be strictly below the kind maximum; strip kinds additionally
    carry tau, 0 <= tau < tau_bound(eta, d). tau = 0 is the real segment
    |1 - a| <= eta, the domain of the strip pipeline.
    """

    kind: RegionKind
    eta: float
    tau: float = None
    d: int = 2

    def __post_init__(self):
        if self.d < 2:
            raise ShapeMismatch(f"RegionSpec: d must be >= 2, got {self.d}")
        if self.kind.shape in ("per", "haf") and self.d != 2:
            raise ShapeMismatch(f"RegionSpec: kind {self.kind.value} requires d=2")
        if not (0.0 <= self.eta):
            raise EtaTooLarge(f"RegionSpec: eta must be >= 0, got {self.eta}")
        cap = region_eta_max(self.kind, self.d)
        if not self.eta < cap:
            raise EtaTooLarge(
                f"RegionSpec: eta={self.eta} must be strictly below {cap} for {self.kind.value}"
            )
        if self.kind.family == "strip":
            if self.tau is None:
                raise ShapeMismatch(f"RegionSpec: {self.kind.value} requires tau")
            cap_tau = tau_bound(self.eta, self.d)
            if not (0.0 <= self.tau < cap_tau):
                raise EtaTooLarge(
                    f"RegionSpec: tau={self.tau} must lie in [0, {cap_tau}) at eta={self.eta}"
                )
        elif self.tau is not None:
            raise ShapeMismatch(f"RegionSpec: tau is only meaningful for strip kinds")


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a region check.

    margin is the minimum slack over all constraints (negative when outside);
    worst_index is 1-based. For L1 kinds, line_sums carries the per-axis
    deviation sums as ((axis, index, sum), ...), axis/index 1-based.
    """

    inside: bool
    margin: float
    worst_index: tuple
    worst_value: complex
    kind: RegionKind
    eta: float
    tau: float = None
    line_sums: tuple = None

    def to_dict(self):
        out = {
            "inside": bool(self.inside),
            "margin": float(self.margin),
            "worst_index": [int(i) for i in self.worst_index],
            "worst_value": [self.worst_value.real, self.worst_value.imag],
            "kind": self.kind.value,
            "eta": float(self.eta),
        }
        if self.tau is not None:
            out["tau"] = float(self.tau)
        if self.line_sums is not None:
            out["line_sums"] = [[int(a), int(i), float(s)] for a, i, s in self.line_sums]
        return out


def _region_array(value, spec):
    if spec.kind.shape == "per":
        if not isinstance(value, ComplexMatrix):
            raise ShapeMismatch(f"check_region: {spec.kind.value} needs a ComplexMatrix")
        return value.array
    if spec.kind.shape == "haf":
        if not isinstance(value, SymmetricComplexMatrix):
            raise ShapeMismatch(f"check_region: {spec.kind.value} needs a SymmetricComplexMatrix")
        return value.array
    if not isinstance(value, ComplexTensor):
        raise ShapeMismatch(f"check_region: {spec.kind.value} needs a ComplexTensor")
    if value.d != spec.d:
        raise ShapeMismatch(f"check_region: tensor d={value.d} does not match spec d={spec.d}")
    return value.array


def check_region(value, spec):
    """Decide closed membership of a matrix/tensor in the region `spec`.

    Margins are exact constraint slacks: (eta - max |1-a|) for disc kinds,
    min(eta - max |1-Re a|, tau - max |Im a|) for strips (the first alone
    for a real input at tau = 0), and
    (eta * n^(d-1) - max line sum) for L1 kinds.
    """
    arr = _region_array(value, spec)
    if spec.kind.family == "disc":
        dev = np.abs(1.0 - arr)
        flat = int(np.argmax(dev))
        idx = np.unravel_index(flat, arr.shape)
        margin = spec.eta - float(dev[idx])
        return MembershipReport(
            inside=margin >= 0.0,
            margin=margin,
            worst_index=tuple(int(i) + 1 for i in idx),
            worst_value=complex(arr[idx]),
            kind=spec.kind,
            eta=spec.eta,
        )
    if spec.kind.family == "strip":
        dev_re = np.abs(1.0 - arr.real).ravel()
        dev_im = np.abs(arr.imag).ravel()
        worst_re = int(dev_re.argmax())
        worst_im = int(dev_im.argmax())
        slack_re = spec.eta - float(dev_re[worst_re])
        slack_im = spec.tau - float(dev_im[worst_im])
        if slack_re <= slack_im or slack_im == spec.tau == 0.0:
            idx = np.unravel_index(worst_re, arr.shape)
            margin = slack_re
        else:
            idx = np.unravel_index(worst_im, arr.shape)
            margin = slack_im
        return MembershipReport(
            inside=margin >= 0.0,
            margin=margin,
            worst_index=tuple(int(i) + 1 for i in idx),
            worst_value=complex(arr[idx]),
            kind=spec.kind,
            eta=spec.eta,
            tau=spec.tau,
        )
    # L1 kinds: per-line sums of |1 - a| against eta * n^(d-1)
    dev = np.abs(1.0 - arr)
    d = arr.ndim
    n = arr.shape[0]
    bound = spec.eta * n ** (d - 1)
    line_sums = []
    worst = (-math.inf, None, None)
    for axis in range(d):
        other = tuple(t for t in range(d) if t != axis)
        sums = dev.sum(axis=other)
        for i in range(n):
            s = float(sums[i])
            line_sums.append((axis + 1, i + 1, s))
            if s > worst[0]:
                worst = (s, axis + 1, i + 1)
    margin = bound - worst[0]
    return MembershipReport(
        inside=margin >= 0.0,
        margin=margin,
        worst_index=(worst[1], worst[2]),
        worst_value=complex(worst[0]),
        kind=spec.kind,
        eta=spec.eta,
        line_sums=tuple(line_sums),
    )
