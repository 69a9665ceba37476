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

import itertools
import math
import sys
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (CapacityError, DegenerateError, DomainError, ShapeError, integer,
                     probability, real)

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
    z = _NORMAL.inv_cdf(real(gamma, "quantile argument", gt=0, lt=1))
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
    """FSU count, volumes and functional reserve (count L or fraction kappa).
    ``fsu_volumes`` None means n equal volumes of volume / n."""

    n: int
    volume: float
    reserve: Union[int, float]
    fsu_volumes: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        integer(self.n, "n", ge=1, le=MAX_EXACT_N)
        real(self.volume, "volume", gt=0)
        if self.fsu_volumes is not None:
            if len(self.fsu_volumes) != self.n:
                raise ShapeError("fsu_volumes must have length n")
            for v in self.fsu_volumes:
                real(v, "each FSU volume", gt=0)
            if abs(sum(self.fsu_volumes) - self.volume) > 1e-9 * self.volume:
                raise DomainError("FSU volumes must sum to the total volume")
        if isinstance(self.reserve, (int, np.integer)):
            integer(self.reserve, "reserve L", ge=0, le=self.n + 1)
        else:
            real(self.reserve, "fractional reserve kappa", gt=0, lt=1)


@dataclass(frozen=True)
class ApproxResult:
    """A probability plus a guaranteed absolute error bound (None = uncertified)."""

    value: float
    error_bound: Optional[float]
    method: str

    def __post_init__(self):
        probability(self.value, "value")
        if self.error_bound is not None:
            real(self.error_bound, "error_bound", ge=0)


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

#: Largest FSU count for the exact tail.  It holds one float64 array of n
#: entries, the (n + 2,) output (filled up to past the window top), and the
#: logs of one chunk of counts at a time, so the cap keeps that near
#: 8 bytes x 10^8 = 0.8 GB.
MAX_EXACT_N = 10**8

# exp(x) is exactly 0.0 in float64 for every x below about -745.13; the
# window keeps a further 1.0 of margin against rounding in x - top.
_EXP_UNDERFLOW = 746.0 + 1.0

# counts per step of the log-pmf prefix sum: the sum stops at the first
# chunk that ends below the window, so the work above it is never done
_CHUNK = 1 << 16


def _log_term_ratios(n: int, p: float, start: int, stop: int, out: np.ndarray) -> None:
    """log(pmf(k+1)/pmf(k)) = log(n-k) - log(k+1) + log(p) - log(q) into
    out, for start <= k < stop.

    log(k+1) is taken in one scratch array of stop - start entries and
    log(n-k) in out itself, so the logs never take more than a chunk.
    """
    logs = np.arange(start + 1, stop + 1, dtype=np.float64)
    np.subtract(n + 1, logs, out=out)  # n - k, exact below 2^53
    np.log(out, out=out)
    np.log(logs, out=logs)
    _finish_ratios(out, logs, p)


def _finish_ratios(out: np.ndarray, logs: np.ndarray, p: float) -> None:
    """The term ratios' arithmetic after the logs, in place: out holds
    log(n - k) and logs log(k + 1), which may broadcast along out."""
    out -= logs
    out += math.log(p)
    out -= math.log1p(-p)


def _pmf_window(n: int, p: float) -> Tuple[np.ndarray, int, int]:
    """Binomial(n, p) pmf in out[:n + 1] of an (n + 2,) array out, and [lo, hi).

    Every entry outside [lo, hi), out[n + 1] included, is exactly 0.0, so
    callers may restrict their passes to the window.
    """
    out = np.zeros(n + 2)
    if p == 0.0 or p == 1.0:
        lo = 0 if p == 0.0 else n
        out[lo] = 1.0
        return out, lo, lo + 1
    # The term ratios are non-increasing in k (log(n-k) falls, log(k+1)
    # rises, and rounding keeps that order), so their prefix sum log_pmf
    # rises up to its first maximum and falls after it.  The ratios go
    # straight into out[k + 1] a chunk at a time, and each chunk's prefix
    # sum carries on in place from the entry before it.  Once a chunk ends
    # below the running maximum less the underflow margin, every later
    # entry lies below the floor too and would exp to 0.0: those stay the
    # zeros np.zeros gave them.  The mode is the first argmax of the computed
    # head, taken from the chunk that holds it: a chunk's first argmax
    # replaces the running one only when strictly above it, which a chunk's
    # first entry, the last of the chunk before, never is.
    top, mode, stop = 0.0, 0, 0  # out[0] = log pmf(0) - log pmf(0) = 0.0
    while True:
        start, stop = stop, min(stop + _CHUNK, n)
        _log_term_ratios(n, p, start, stop, out[start + 1:stop + 1])
        head = out[start:stop + 1]
        np.add.accumulate(head, out=head)  # cumsum, less call overhead
        peak = int(head.argmax())
        if head[peak] > top:
            top, mode = head[peak], start + peak
        if stop == n or head[-1] < top - _EXP_UNDERFLOW:
            break
    # Each half of the computed head is monotone, so one search on each
    # finds where it crosses the floor.  Every entry below the floor has
    # exp(x - top) == 0.0 exactly, so the window [lo, hi) is a superset of
    # the nonzero pmf entries.
    log_pmf = out[:stop + 1]
    floor = top - _EXP_UNDERFLOW
    lo = int(log_pmf[:mode + 1].searchsorted(floor))
    hi = stop + 1 - int(log_pmf[mode:][::-1].searchsorted(floor))
    window = out[lo:hi]
    window -= top
    np.exp(window, out=window)
    out[:lo].fill(0.0)
    out[hi:stop + 1].fill(0.0)
    # the full-length sum keeps numpy's pairwise summation order
    window /= out[:n + 1].sum()
    return out, lo, hi


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Full pmf of Binomial(n, p) via a log-space term-ratio recursion.

    Ratios pmf(k+1)/pmf(k) = (n-k)/(k+1) * p/q are accumulated in log space
    up to past the window top, shifted by their maximum and exponentiated
    only on the window where exp does not underflow to 0.0; every other
    entry is exactly 0.0.  The accumulation costs one float64 array of n
    entries, the output, plus the logs of one chunk of counts, hence the
    MAX_EXACT_N cap of the exact tail.
    """
    return _pmf_window(n, p)[0][:n + 1]


def _hankel(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The view h[i, j] = v[i + j] of a contiguous float64 vector v of at
    least rows + cols - 1 entries, shape (rows, cols); a plain strided
    ndarray, which costs far less to build than numpy's stride-tricks
    helpers."""
    return np.ndarray((rows, cols), buffer=v, strides=(v.itemsize, v.itemsize))


def _binomial_rows(ks: Sequence[int], p: float) -> np.ndarray:
    """Binomial(k, p) pmfs for the counts k of ``ks``, as the rows of one
    (len(ks), max(ks) + 1) array: row i holds the bytes of
    ``_binomial_pmf(ks[i], p)`` and then 0.0.

    Each row takes _binomial_pmf's steps: the term ratios of
    ``_finish_ratios`` on the same logs, one prefix sum along the row, exp
    of the row less its maximum, and division by the pairwise sum of its
    own k + 1 entries.  Past k a row holds the ratio -inf, so its prefix
    sum is -inf and exp gives exactly 0.0; an entry that _pmf_window leaves
    at 0.0 outside its window lies more than _EXP_UNDERFLOW below the
    maximum, where exp gives 0.0 too.  A sum over a row's padding would
    change the summation order, so each row is summed on its own.
    """
    top = max(ks)
    if p == 0.0 or p == 1.0:
        rows = np.zeros((len(ks), top + 1))
        rows[np.arange(len(ks)), 0 if p == 0.0 else ks] = 1.0
        return rows
    # up = 0.0, log(1), ..., log(top): log(j) for column j.  Row k of the
    # windows of down = 0.0, log(top), ..., log(1), -inf x top that start at
    # top - k holds log(k + 1 - j) in columns j = 1..k and -inf past k, and in
    # column 0 a finite value, which is set to 0.0 = log pmf(0) below.
    up = np.zeros(top + 1)
    np.log(np.arange(1, top + 1, dtype=np.float64), out=up[1:])
    down = np.full(2 * top + 1, -np.inf)
    down[0] = 0.0
    down[1:top + 1] = up[:0:-1]
    rows = _hankel(down, top + 1, top + 1)[[top - k for k in ks]]
    _finish_ratios(rows, up, p)
    rows[:, 0] = 0.0
    np.add.accumulate(rows, axis=1, out=rows)
    rows -= rows.max(axis=1, keepdims=True)
    np.exp(rows, out=rows)
    rows /= np.array([row[:k + 1].sum() for row, k in zip(rows, ks)])[:, None]
    return rows


def ntcp_exact_all_thresholds(n: int, p: float) -> np.ndarray:
    """P(S_n >= L) for every L = 0..n+1, as one array of length n+2.

    Raises CapacityError, before allocating, for n above MAX_EXACT_N: the
    tail needs about 8 bytes x n of memory at its peak.
    """
    integer(n, "n", ge=1)
    probability(p, "p")
    if n > MAX_EXACT_N:
        raise CapacityError(
            f"exact tail of {n} FSUs exceeds the cap of {MAX_EXACT_N} "
            f"(about 8 bytes per FSU)"
        )
    tail, lo, hi = _pmf_window(n, p)
    # reversed cumsum of the pmf, in place: above the window it sums only
    # zeros (0.0) and below it adds only zeros to the value at lo
    window = tail[lo:hi][::-1]
    window.cumsum(out=window)
    # clip is elementwise: the clipped tail[lo] copied below the window
    # gives the bits of clipping all of tail[:hi] (from hi up, all 0.0)
    window.clip(0.0, 1.0, out=window)
    tail[:lo].fill(tail[lo])
    tail[0] = 1.0  # whole sample space; shields L=0 from summation dust
    return tail


def ntcp_exact(n: int, p: float, threshold: int) -> float:
    """Exact binomial upper tail P(S_n >= threshold)."""
    integer(threshold, "threshold", ge=0, le=integer(n, "n", ge=1) + 1)
    return float(ntcp_exact_all_thresholds(n, p)[threshold])


# ---------------------------------------------------------------------------
# Certified approximations
# ---------------------------------------------------------------------------

def _sigma(n: int, p: float) -> float:
    integer(n, "n", ge=1)
    if not (0.0 < probability(p, "p") < 1.0):
        raise DegenerateError("p in {0, 1} gives a degenerate distribution")
    return math.sqrt(n * p * (1.0 - p))


def ntcp_normal(n: int, p: float, x: float) -> ApproxResult:
    """Normal approximation 1 - Phi(z) with the Berry-Esseen certificate."""
    sigma = _sigma(n, p)
    z = (real(x, "x") - n * p) / sigma
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
    if integer(k, "k") > integer(m, "m"):
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
    integer(n, "n", ge=1)
    probability(p, "p")
    if integer(threshold, "threshold") <= 0:
        return ApproxResult(value=1.0, error_bound=0.0, method="Weiss")
    if threshold > n:
        return ApproxResult(value=0.0, error_bound=0.0, method="Weiss")
    return ntcp_weiss(n, p, threshold, n)


# ---------------------------------------------------------------------------
# Kill-fraction calculus
# ---------------------------------------------------------------------------

def kill_fraction(p: float, c: float) -> float:
    """kappa(p) = p + c sqrt(p(1-p)); the fraction threshold at confidence c."""
    probability(p, "p")
    real(c, "c", ge=0)
    return p + c * math.sqrt(p * (1.0 - p))


def fraction_curve_features(c: float) -> FractionCurveFeatures:
    """Closed-form landmarks of the concave curve kappa(p)."""
    root = math.hypot(1.0, real(c, "c", ge=0))  # sqrt(1 + c^2) without forming c^2
    return FractionCurveFeatures(
        c=c,
        p1=(1.0 / root) ** 2,
        p_star=0.5 * (1.0 + 1.0 / root),
        kappa_star=0.5 * (1.0 + root),
    )


def _fraction_c(n: int, gamma: float) -> float:
    """The kill-fraction confidence c = z_gamma / sqrt(n), and 0 at gamma <= 1/2."""
    return normal_quantile(gamma) / math.sqrt(n) if gamma > 0.5 else 0.0


def invert_fraction(kappa: float, c: float) -> float:
    """The unique p in (0, kappa] with kill_fraction(p, c) = kappa.

    The quadratic obtained by squaring kappa - p = c sqrt(p(1-p)) has two
    roots; only the smaller one satisfies kappa - p >= 0, so the negative
    branch is taken.  The round-trip test pins this choice.  The smaller
    root is computed as kappa^2 / ((1 + c^2) p_+) from the larger root p_+,
    which avoids the cancellation of the direct formula when kappa << c,
    and its square root as a hypot, so c^2 is never formed.  For c > 0 a p
    below the normal float range (about kappa^2 / c^2 < 2.2e-308) has lost
    its precision and raises DomainError; at c = 0, p is kappa exactly.
    """
    real(kappa, "kappa", gt=0, lt=1)
    half = 0.5 * real(c, "c", ge=0)
    root = math.hypot(math.sqrt(kappa - kappa * kappa), half)
    p = kappa * (kappa / (kappa + c * (half + root)))
    if c > 0.0 and p < sys.float_info.min:
        raise DomainError(f"p for kappa = {kappa!r} at c = {c!r} underflows")
    return p


def dose_for_fraction(model, cells, kappa: float, n: int, gamma: float,
                      tolerance: float = 1e-10) -> float:
    """Dose at which the killed-FSU fraction threshold kappa is met.

    Resolves kappa to the kill probability p_bar = invert_fraction(kappa, c)
    with c = z_gamma / sqrt(n), then inverts the dose-response map.
    Requires gamma >= 1/2 so that c >= 0.
    """
    from .dose_response import dose_for_kill_probability

    integer(n, "n", ge=1)
    real(gamma, "gamma", ge=0.5, lt=1)  # so that c = z_gamma/sqrt(n) >= 0
    p_bar = invert_fraction(kappa, _fraction_c(n, gamma))
    return dose_for_kill_probability(model, cells, p_bar, tolerance)


def damage_volume(organ: OrganSpec, states: Sequence[int]) -> float:
    """Total volume of killed FSUs: sum of V_i over sites with state 1.

    A state other than 0 (survived) or 1 (killed) raises DomainError.
    """
    if len(states) != organ.n:
        raise ShapeError(f"expected {organ.n} states, got {len(states)}")
    volumes = organ.fsu_volumes
    if volumes is None:
        volumes = itertools.repeat(organ.volume / organ.n)
    total = 0.0
    for v, s in zip(volumes, states):
        if s == 1:
            total += v
        elif s != 0:  # nan, too, is neither
            raise DomainError(f"each FSU state must be 0 or 1, got {s!r}")
    return total
