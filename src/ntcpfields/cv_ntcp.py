"""Classical critical-volume NTCP for independent identical FSUs.

With n FSUs, each killed independently with probability p, the killed
count S_n is Binomial(n, p) and NTCP = P(S_n >= L).  This module provides
the exact binomial tail (the oracle), a normal approximation with a
certified Berry-Esseen error bound, the Weiss refined approximation with
its own certified bound, threshold and kill-fraction calculus, and damage
volume.

The serial model is threshold L = 1; tumor control is L = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DegenerateError, DomainError, ShapeError

#: Berry-Esseen constant for the binomial normal approximation.
BERRY_ESSEEN_C = 0.7975

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NORMAL = NormalDist()


# ---------------------------------------------------------------------------
# Standard normal cdf / quantile
# ---------------------------------------------------------------------------

def normal_cdf(x: float) -> float:
    """Standard normal c.d.f. via erfc; absolute error well below 1e-12."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(gamma: float) -> float:
    """Inverse of normal_cdf on (0, 1), Newton-polished against normal_cdf."""
    if not (0.0 < gamma < 1.0):
        raise DomainError(f"quantile argument must be in (0, 1), got {gamma!r}")
    z = _NORMAL.inv_cdf(gamma)
    # one Newton step tightens the round trip to ~1e-15 in the bulk
    pdf = math.exp(-0.5 * z * z) / _SQRT_2PI
    if pdf > 1e-300:
        z -= (normal_cdf(z) - gamma) / pdf
    return z


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrganSpec:
    """FSU count, volumes and functional reserve (count L or fraction kappa)."""

    n: int
    volume: float
    reserve: Union[int, float]
    fsu_volumes: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if not (self.volume > 0):
            raise DomainError("volume must be > 0")
        if self.fsu_volumes is None:
            object.__setattr__(
                self, "fsu_volumes", tuple([self.volume / self.n] * self.n)
            )
        vols = self.fsu_volumes
        if len(vols) != self.n:
            raise ShapeError("fsu_volumes must have length n")
        if any(v <= 0 for v in vols):
            raise DomainError("all FSU volumes must be > 0")
        if abs(sum(vols) - self.volume) > 1e-9 * self.volume:
            raise DomainError("FSU volumes must sum to the total volume")
        if isinstance(self.reserve, int):
            if not (0 <= self.reserve <= self.n + 1):
                raise DomainError("integer reserve L must lie in [0, n+1]")
        else:
            if not (0.0 < self.reserve < 1.0):
                raise DomainError("fractional reserve kappa must lie in (0, 1)")


@dataclass(frozen=True)
class ApproxResult:
    """A probability plus a guaranteed absolute error bound (None = uncertified)."""

    value: float
    error_bound: Optional[float]
    method: str

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise DomainError("value must be a probability")
        if self.error_bound is not None and self.error_bound < 0:
            raise DomainError("error_bound must be >= 0")


@dataclass(frozen=True)
class FractionCurveFeatures:
    """Landmarks of kappa(p) = p + c sqrt(p(1-p)) for fixed c >= 0."""

    c: float
    p1: float          # kappa(p1) = 1
    p_star: float      # argmax of kappa
    kappa_star: float  # max of kappa


# ---------------------------------------------------------------------------
# Exact binomial tail
# ---------------------------------------------------------------------------

def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Full pmf of Binomial(n, p) via a log-space term-ratio recursion.

    Ratios pmf(k+1)/pmf(k) = (n-k)/(k+1) * p/q are accumulated in log space
    relative to the mode, then normalized; stable up to n ~ 1e6.
    """
    if p == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    k = np.arange(n, dtype=np.float64)
    log_ratio = np.log(n - k) - np.log(k + 1) + math.log(p) - math.log1p(-p)
    log_pmf = np.concatenate(([0.0], np.cumsum(log_ratio)))
    log_pmf -= log_pmf.max()
    pmf = np.exp(log_pmf)
    pmf /= pmf.sum()
    return pmf


def ntcp_exact_all_thresholds(n: int, p: float) -> np.ndarray:
    """P(S_n >= L) for every L = 0..n+1, as one array of length n+2."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise DomainError("p must be in [0, 1]")
    pmf = _binomial_pmf(n, p)
    tail = np.concatenate((np.cumsum(pmf[::-1])[::-1], [0.0]))
    tail[0] = 1.0  # whole sample space; shields L=0 from summation dust
    return np.clip(tail, 0.0, 1.0)


def ntcp_exact(n: int, p: float, threshold: int) -> float:
    """Exact binomial upper tail P(S_n >= threshold)."""
    if not (0 <= threshold <= n + 1):
        raise DomainError(f"threshold must lie in [0, {n + 1}], got {threshold}")
    return float(ntcp_exact_all_thresholds(n, p)[threshold])


# ---------------------------------------------------------------------------
# Certified approximations
# ---------------------------------------------------------------------------

def _sigma(n: int, p: float) -> float:
    if not (0.0 < p < 1.0):
        raise DegenerateError("p in {0, 1} gives a degenerate distribution")
    return math.sqrt(n * p * (1.0 - p))


def ntcp_normal(n: int, p: float, x: float) -> ApproxResult:
    """Normal approximation 1 - Phi(z) with the Berry-Esseen certificate."""
    sigma = _sigma(n, p)
    z = (x - n * p) / sigma
    return ApproxResult(
        value=normal_cdf(-z),
        error_bound=BERRY_ESSEEN_C / sigma,
        method="Normal",
    )


def threshold_for_confidence(n: int, p: float, gamma: float) -> float:
    """Real threshold x_gamma = np + sqrt(npq) z_gamma with Phi(z_gamma) = gamma."""
    sigma = _sigma(n, p)
    return n * p + sigma * normal_quantile(gamma)


def ntcp_normal_integer_threshold(
    n: int, p: float, gamma: float
) -> Tuple[int, ApproxResult]:
    """Integer threshold L_gamma = floor(x_gamma) and the widened certificate.

    Flooring the real threshold costs at most the continuity modulus of Phi,
    so the bound grows by 1/sqrt(2 pi npq).
    """
    sigma = _sigma(n, p)
    x_gamma = threshold_for_confidence(n, p, gamma)
    threshold = math.floor(x_gamma)
    result = ApproxResult(
        value=1.0 - gamma,
        error_bound=(BERRY_ESSEEN_C + 1.0 / _SQRT_2PI) / sigma,
        method="NormalIntegerThreshold",
    )
    return threshold, result


def ntcp_weiss(n: int, p: float, k: int, m: int) -> ApproxResult:
    """Weiss refined approximation of P(k <= S_n <= m).

    value = Phi(t2) - Phi(t1) + (q-p)/(6 sqrt(2 pi) sigma) [(1-t^2)e^{-t^2/2}]
    evaluated from t1 to t2, with the half-integer continuity correction.
    The certificate (0.12 + 0.18|p-q|)/sigma^2 + exp(-3 sigma/2) holds for
    sigma >= 5; below that the bound is reported as unavailable.
    """
    if k > m:
        raise DomainError(f"need k <= m, got k={k}, m={m}")
    sigma = _sigma(n, p)
    q = 1.0 - p
    t1 = (k - 0.5 - n * p) / sigma
    t2 = (m + 0.5 - n * p) / sigma

    def g(t: float) -> float:
        return (1.0 - t * t) * math.exp(-0.5 * t * t)

    value = normal_cdf(t2) - normal_cdf(t1)
    value += (q - p) / (6.0 * _SQRT_2PI * sigma) * (g(t2) - g(t1))
    value = min(1.0, max(0.0, value))
    if sigma >= 5.0:
        bound = (0.12 + 0.18 * abs(p - q)) / sigma**2 + math.exp(-1.5 * sigma)
    else:
        bound = None
    return ApproxResult(value=value, error_bound=bound, method="Weiss")


def ntcp_weiss_tail(n: int, p: float, threshold: int) -> ApproxResult:
    """Weiss approximation of the upper tail P(S_n >= threshold)."""
    if threshold <= 0:
        return ApproxResult(value=1.0, error_bound=0.0, method="Weiss")
    if threshold > n:
        return ApproxResult(value=0.0, error_bound=0.0, method="Weiss")
    return ntcp_weiss(n, p, threshold, n)


# ---------------------------------------------------------------------------
# Kill-fraction calculus
# ---------------------------------------------------------------------------

def kill_fraction(p: float, c: float) -> float:
    """kappa(p) = p + c sqrt(p(1-p)); the fraction threshold at confidence c."""
    if not (0.0 <= p <= 1.0):
        raise DomainError("p must be in [0, 1]")
    if c < 0:
        raise DomainError("c must be >= 0")
    return p + c * math.sqrt(p * (1.0 - p))


def fraction_curve_features(c: float) -> FractionCurveFeatures:
    """Closed-form landmarks of the concave curve kappa(p)."""
    if c < 0:
        raise DomainError("c must be >= 0")
    root = math.sqrt(1.0 + c * c)
    return FractionCurveFeatures(
        c=c,
        p1=1.0 / (1.0 + c * c),
        p_star=0.5 * (1.0 + 1.0 / root),
        kappa_star=0.5 * (1.0 + root),
    )


def invert_fraction(kappa: float, c: float) -> float:
    """The unique p in (0, kappa] with kill_fraction(p, c) = kappa.

    The quadratic obtained by squaring kappa - p = c sqrt(p(1-p)) has two
    roots; only the smaller one satisfies kappa - p >= 0, so the negative
    branch is taken.  The round-trip test pins this choice.  The smaller
    root is computed as kappa^2 / ((1 + c^2) p_+) from the larger root p_+,
    which avoids the cancellation of the direct formula when kappa << c.
    """
    if not (0.0 < kappa < 1.0):
        raise DomainError("kappa must be in (0, 1)")
    if c < 0:
        raise DomainError("c must be >= 0")
    disc = kappa - kappa * kappa + 0.25 * c * c
    return kappa * (kappa / (kappa + 0.5 * c * c + c * math.sqrt(disc)))


def dose_for_fraction(model, cells, kappa: float, n: int, gamma: float,
                      tolerance: float = 1e-10) -> float:
    """Dose at which the killed-FSU fraction threshold kappa is met.

    Resolves kappa to the kill probability p_bar = invert_fraction(kappa, c)
    with c = z_gamma / sqrt(n), then inverts the dose-response map.
    Requires gamma >= 1/2 so that c >= 0.
    """
    from .dose_response import dose_for_kill_probability

    if n < 1:
        raise DomainError("n must be >= 1")
    if gamma < 0.5:
        raise DomainError("gamma must be >= 1/2 (c = z_gamma/sqrt(n) >= 0)")
    c = normal_quantile(gamma) / math.sqrt(n) if gamma > 0.5 else 0.0
    p_bar = invert_fraction(kappa, c)
    return dose_for_kill_probability(model, cells, p_bar, tolerance)


def damage_volume(organ: OrganSpec, states: Sequence[int]) -> float:
    """Total volume of killed FSUs: sum of V_i over sites with state 1."""
    if len(states) != organ.n:
        raise ShapeError(f"expected {organ.n} states, got {len(states)}")
    return float(sum(v for v, s in zip(organ.fsu_volumes, states) if s))
