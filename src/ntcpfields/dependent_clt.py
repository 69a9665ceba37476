"""Partial sums, the block-average variance estimator, and self-normalized
statistics for dependent lattice fields.

The variance estimator averages size-weighted squared deviations of local
block means from the global mean:

    C_hat(U) = |U|^-1 sum_{j in U} |Q_j| (S(Q_j)/|Q_j| - S(U)/|U|)^2

with Q_j = U intersect K_j(b), K_j(b) the sup-norm ball of radius b at j.
Boundary sites use the truncated Q_j exactly as written: no wraparound.
A float field's window sums S(Q_j) are differences of float64 prefix
sums.  A binary field, held as bool, takes exact integer sums instead: the
sampler's doubling rule over the field padded with b zeros, the same bits.
So does a single sample of a binary model whose values are all 0 or 1,
whatever their dtype; any other integer values are taken as float64.
With a bandwidth schedule b_n -> infinity, b_n = o(n), C_hat is consistent
for sigma^2 and can replace it in the CLT normalizer (random
normalization).  One formula, (S(U) - |U| mean) / sqrt(v |U|), v = sigma^2
or C_hat, and its half-width z sqrt(v/|U|) serve the statistic, the interval,
the NTCP estimate, the campaign and CLI ``estimate`` (one C_hat per sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cv_ntcp import normal_cdf, normal_quantile
from .errors import DegenerateError, DomainError, ShapeError, integer, real
from .lattice_fields import (
    MAX_CELLS,
    FieldModel,
    FieldSample,
    LatticeCube,
    _count_dtype,
    _seeds_per_block,
    _valid_window_sum,
    _value_dtype,
    derive_seeds,
    model_sigma2,
    sample_fields_batch,
)


def default_bandwidth(n: int) -> int:
    """ceil(n^(1/3)) clamped to [1, max(1, n-1)]: the default schedule."""
    return EstimatorConfig().bandwidth_for(integer(n, "n", ge=1))


@dataclass(frozen=True)
class EstimatorConfig:
    """Bandwidth for C_hat: an explicit value, or the schedule ceil(n^eta)."""

    bandwidth: Optional[int] = None
    eta: float = 1.0 / 3.0

    def __post_init__(self):
        if self.bandwidth is not None:
            integer(self.bandwidth, "bandwidth", ge=1)
        real(self.eta, "eta", gt=0, lt=1)  # so that b_n = o(n)

    def bandwidth_for(self, n: int) -> int:
        if self.bandwidth is not None:
            return self.bandwidth
        b = math.ceil(n**self.eta - 1e-9)
        return min(max(1, b), max(1, n - 1))


@dataclass(frozen=True)
class NormalizedStatistic:
    """A centered sum divided by its (true or estimated) normalizer."""

    value: float
    normalization: str  # "true_sigma" | "estimated"
    total: float        # S(U)
    mean: float         # mean used for centering
    variance: float     # sigma^2 or C_hat
    cube_size: int


@dataclass(frozen=True)
class GapPoint:
    """One point of the variance-gap decay curve."""

    n: int
    gap: float
    mc_variance: float  # Var_MC(S(U_n)) / |U_n|
    sigma2: float
    envelope: str       # decay regime label for the gap, e.g. "n^-1"


# ---------------------------------------------------------------------------
# Partial sums
# ---------------------------------------------------------------------------

def partial_sum(sample: FieldSample, region=None) -> float:
    """Sum of field values over a region of the cube (default: full cube).

    ``region`` may be a boolean mask of the cube's shape or an iterable of
    lattice points (integer tuples in [-n, n]^d); a point that is not a
    sequence, such as an entry of an integer mask, raises ShapeError.  A
    sample holding nan or inf, or a sum beyond the float64 range, raises
    DomainError.
    """
    values = _finite_values(sample)
    if region is None:
        with np.errstate(over="ignore"):
            return _finite_result(float(values.sum()), "sum")
    if isinstance(region, np.ndarray) and region.dtype == bool:
        if region.shape != sample.cube.shape:
            raise ShapeError(
                f"mask shape {region.shape} != cube shape {sample.cube.shape}"
            )
        with np.errstate(over="ignore"):
            return _finite_result(float(values[region].sum()), "sum")
    n = sample.cube.n
    total = 0.0
    for point in region:
        if not np.iterable(point):
            raise ShapeError(f"region point {point!r} is not a tuple of coordinates "
                             f"(a mask must be a bool array)")
        idx = tuple(integer(c, "point coordinate") + n for c in point)
        if len(idx) != sample.cube.d or any(
            not (0 <= i <= 2 * n) for i in idx
        ):
            raise ShapeError(f"point {tuple(point)} lies outside the cube")
        total += float(values[idx])
    return _finite_result(total, "sum")


# ---------------------------------------------------------------------------
# Block-average variance estimator
# ---------------------------------------------------------------------------

def _truncated_window_sum(a: np.ndarray, b: int, axis: int) -> np.ndarray:
    """Sums over windows [i-b, i+b] clipped to the array, along one axis."""
    a = np.moveaxis(a, axis, -1)
    cs = np.cumsum(a, axis=-1)
    size = a.shape[-1]
    out = np.empty_like(cs)
    # sum[i] = cs[min(i+b, size-1)] - cs[i-b-1], the second term where i-b-1 >= 0
    out[..., : max(size - b, 0)] = cs[..., b:]
    out[..., max(size - b, 0):] = cs[..., -1:]
    out[..., b + 1:] -= cs[..., : max(size - b - 1, 0)]
    return np.moveaxis(out, -1, axis)


def _exact_window_sums(values: np.ndarray, d: int, b: int) -> np.ndarray:
    """The clipped window sums of a bool field, exact integers: each spatial
    axis is padded with b zeros on both sides and summed over windows of
    2b + 1 by the sampler's doubling rule, in the smallest count dtype that
    holds a window of the field.  b must not exceed the side."""
    batch, side = values.shape[:-d], values.shape[-1]
    sums = np.zeros(batch + (side + 2 * b,) * d, dtype=np.uint8)
    sums[(...,) + (slice(b, b + side),) * d] = values
    dtype = _count_dtype(min(2 * b + 1, side) ** d)
    for axis in range(values.ndim - d, values.ndim):
        sums = _valid_window_sum(sums, 2 * b + 1, axis, dtype)
    return sums


def _window_counts(side: int, b: int, d: int) -> np.ndarray:
    """|Q_j| over the cube: outer product of per-axis clipped widths."""
    i = np.arange(side)
    width = np.minimum(i + b, side - 1) - np.maximum(i - b, 0) + 1
    counts = width.astype(np.float64)
    for _ in range(d - 1):
        counts = counts[..., None] * width
    return counts


def _variance_estimator_batch(values: np.ndarray, d: int, b: int, sums=None) -> np.ndarray:
    """C_hat for values of shape (batch..., side, ..., side); returns (batch...).
    ``sums``, when given, are the values' sums S(U) as float64, of shape (batch...)."""
    spatial = tuple(range(values.ndim - d, values.ndim))
    side = values.shape[-1]
    b = min(b, side)  # any b >= side - 1 clips every window to the whole axis
    size = float(side**d)
    if values.dtype == bool:
        # every float cumsum entry and difference of a 0/1 field is an exact
        # integer below 2^53, so the exact integer sums carry the same bits
        block_sums = _exact_window_sums(values, d, b)
        dev = np.empty(values.shape)  # C order, so the final .sum pairs as the float path's
    else:
        block_sums = values
        for axis in spatial:
            block_sums = _truncated_window_sum(block_sums, b, axis)
        dev = block_sums  # a fresh array: the deviations overwrite it in place
    counts = _window_counts(side, b, d)
    if sums is None:
        sums = values.sum(axis=spatial)
    global_mean = np.reshape(sums, np.shape(sums) + (1,) * d) / size
    np.divide(block_sums, counts, out=dev)
    dev -= global_mean
    # a single sample's weights overwrite its counts, which it no longer needs
    weighted = np.multiply(counts, dev, out=counts if counts.shape == dev.shape else None)
    weighted *= dev
    return weighted.sum(axis=spatial) / size


def _finite_values(sample: FieldSample) -> np.ndarray:
    """The sample's values, once checked to hold no nan or inf."""
    if not np.isfinite(sample.values).all():
        raise DomainError("sample holds non-finite values (nan or inf): no sum or C_hat")
    return sample.values


def _finite_result(value, what: str):
    """A sum, C_hat or standardized sum, scalar or array, checked to be finite."""
    if not np.all(np.isfinite(value)):
        raise DomainError(f"the {what} of this sample overflows float64")
    return value


def variance_estimator(sample: FieldSample, config: EstimatorConfig) -> float:
    """C_hat(U) with bandwidth taken from the config for this cube.  A sample
    holding nan or inf, or one whose C_hat overflows float64 (values near
    1e154 and above), raises DomainError."""
    b = config.bandwidth_for(sample.cube.n)
    values = _finite_values(sample)
    if _value_dtype(sample.model) is bool and np.array_equal(bits := values != 0, values):
        values = bits  # 0/1 values of a binary model: exact integer window sums
    elif values.dtype.kind in "iu":
        values = values.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
        c_hat = float(_variance_estimator_batch(values, sample.cube.d, b))
    return _finite_result(c_hat, "C_hat")


# ---------------------------------------------------------------------------
# Self-normalized statistics
# ---------------------------------------------------------------------------

def _positive(variance, use: str):
    """The variance, a scalar or replicate array, checked to be > 0 everywhere."""
    if not np.all(variance > 0.0):
        raise DegenerateError(f"normalizer is not positive: degenerate {use}")
    return variance


def _standardized(total, size, mean, variance):
    """(total - size mean) / sqrt(variance size), elementwise; a result
    beyond the float64 range raises DomainError."""
    mean, variance = real(mean, "mean"), _positive(variance, "normalization")
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_result((total - size * mean) / np.sqrt(variance * size), "standardized sum")


def _half_width(level, variance, size):
    """z_{(1+level)/2} sqrt(variance/size), elementwise: the CI half-width."""
    z = normal_quantile(0.5 * (1.0 + real(level, "level", gt=0, lt=1)))
    return z * np.sqrt(_positive(variance, "interval") / size)


def self_normalized_statistic(
    sample: FieldSample,
    mean: float,
    config: Optional[EstimatorConfig] = None,
    mode: str = "estimated",
    sigma2: Optional[float] = None,
) -> NormalizedStatistic:
    """(S(U) - |U| mean) / sqrt(normalizer |U|).

    ``mode="true_sigma"`` normalizes by a supplied sigma^2; ``"estimated"``
    by C_hat.  A zero normalizer (constant fields) raises DegenerateError.
    """
    total = partial_sum(sample)
    if mode == "true_sigma":
        variance = float(real(sigma2, "sigma2"))
    elif mode == "estimated":
        variance = variance_estimator(sample, config or EstimatorConfig())
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return NormalizedStatistic(
        value=float(_standardized(total, sample.cube.size, mean, variance)),
        normalization=mode,
        total=total,
        mean=mean,
        variance=variance,
        cube_size=sample.cube.size,
    )


def confidence_interval(
    sample: FieldSample, level: float, config: Optional[EstimatorConfig] = None
) -> Tuple[float, float]:
    """Approximate CI for E X_0: sample mean +- z_{(1+level)/2} sqrt(C_hat/|U|)."""
    c_hat = variance_estimator(sample, config or EstimatorConfig())
    half = _half_width(level, c_hat, sample.cube.size)
    center = partial_sum(sample) / sample.cube.size
    return float(center - half), float(center + half)


def ntcp_estimate(
    sample: FieldSample,
    x: float,
    mean: float,
    config: Optional[EstimatorConfig] = None,
) -> float:
    """Randomly normalized NTCP estimate 1 - Phi((x - |U| mean)/sqrt(C_hat |U|)).

    This is itself a random quantity (a statistical estimate), not a
    certified probability.
    """
    c_hat = variance_estimator(sample, config or EstimatorConfig())
    return normal_cdf(-_standardized(real(x, "x"), sample.cube.size, mean, c_hat))


# ---------------------------------------------------------------------------
# The replicate stream and the variance-gap decay
# ---------------------------------------------------------------------------

def _replicate_batches(model: FieldModel, cube: LatticeCube, replicates: int,
                       master_seed: int):
    """Replicates 0..replicates-1 of one cube, one sampler block at a time;
    replicate r is sampled with seed derive_seeds(master_seed, n, r).

    Yields (start, values, row_sums): the block's first replicate index, its
    values of shape (block,) + cube.shape and each replicate's sum S(U).  A
    block holds ``_seeds_per_block`` replicates, so a consumer that reduces
    each block as it arrives works on it while it is still in cache.  The
    values are one buffer per cube in the field's own dtype (bool for the
    threshold and iid fields), refilled by every block, so a consumer is
    done with a block before it asks for the next.  The cube's seeds are
    derived in one call, 8 bytes per replicate.  Both calls go through this
    module's names, which perfbench/spans.py wraps.
    """
    seeds = derive_seeds(master_seed, cube.n, np.arange(replicates))
    step = _seeds_per_block(model, cube)
    block = np.empty((min(step, replicates),) + cube.shape, dtype=_value_dtype(model))
    for start in range(0, replicates, step):
        chunk = seeds[start:start + step]
        values = sample_fields_batch(model, cube, chunk, block[:len(chunk)])
        # exact integers for a 0/1 field, so the same bits as a float64 sum
        yield start, values, values.reshape(len(values), -1).sum(axis=1, dtype=np.float64)


def variance_gap(
    model: FieldModel,
    d: int,
    n_schedule: Sequence[int],
    replicates: int,
    master_seed: int = 0,
) -> List[GapPoint]:
    """| Var_MC(S(U_n))/|U_n| - sigma^2 | along a schedule of cube sizes.

    For the m-dependent window models the true gap decays like 1/n, the
    lambda > d+1 regime of the decay envelope; the label records that.
    """
    integer(replicates, "replicates", ge=2, le=MAX_CELLS)
    integer(master_seed, "master_seed")
    cubes = [LatticeCube(d=d, n=n) for n in n_schedule]
    sigma2 = model_sigma2(model, d)
    if sigma2.degenerate:
        raise DegenerateError("sigma^2 is degenerate (zero)")
    points = []
    for cube in cubes:
        sums = np.empty(replicates)  # S(U) per replicate, summed in one pass
        for start, _, row_sums in _replicate_batches(model, cube, replicates, master_seed):
            sums[start:start + len(row_sums)] = row_sums
        acc = float(sums.sum())
        acc_sq = float((sums * sums).sum())
        var_s = (acc_sq - acc * acc / replicates) / (replicates - 1)
        mc_variance = var_s / cube.size
        points.append(
            GapPoint(
                n=cube.n,
                gap=abs(mc_variance - sigma2.value),
                mc_variance=mc_variance,
                sigma2=sigma2.value,
                envelope="n^-1",
            )
        )
    return points
