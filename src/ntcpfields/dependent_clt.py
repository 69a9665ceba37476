"""Partial sums, the block-average variance estimator, and self-normalized
statistics for dependent lattice fields.

The variance estimator averages size-weighted squared deviations of local
block means from the global mean:

    C_hat(U) = |U|^-1 sum_{j in U} |Q_j| (S(Q_j)/|Q_j| - S(U)/|U|)^2

with Q_j = U intersect K_j(b), K_j(b) the sup-norm ball of radius b at j.
Boundary sites use the truncated Q_j exactly as written: no wraparound.
One engine, a loop over slabs of first-axis rows, runs for one block, a
single sample being a block of one.  Its only fork is the window sums
S(Q_j): a float field's are in-place differences of float64 prefix sums,
the first axis's carried from slab to slab; a binary field, held as bool,
takes exact integer sums instead, the sampler's box-sum rule over the
field padded with b zeros, the same bits.  So does a single sample of a
binary model whose values are all 0 or 1, whatever their dtype; any other
integer values are taken as float64.  The weights are the only array of
the values' size, summed once, whole, in the order that fixes the bits.
The slab loop runs in the sampler's buffer-size scope (``_unbuffered_rows``)
for a slab's cells, so that numpy does not copy the counts and global means
its passes broadcast through its ufunc buffer; the sums outside the loop run
under the caller's buffer size.
With a bandwidth schedule b_n -> infinity, b_n = o(n), C_hat is consistent
for sigma^2 and can replace it in the CLT normalizer (random
normalization).  One formula, (S(U) - |U| mean) / sqrt(v |U|), v = sigma^2
or C_hat, and its half-width z sqrt(v/|U|) serve the statistic, the interval,
the NTCP estimate, the campaign and CLI ``estimate`` (one C_hat per sample).
"""

from __future__ import annotations

import functools
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
    _SamplerWorkspace,
    _Scratch,
    _count_dtype,
    _slab_rows,
    _unbuffered_rows,
    _valid_box_sums,
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
    values, total = _checked(sample)
    if region is None:
        return _finite_result(total, "sum")
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

def _carried_window_sums(values: np.ndarray, axis: int, b: int, top: int, rows: int,
                         cs: np.ndarray, out: np.ndarray) -> None:
    """Writes into ``out`` the float window sums [i-b, i+b] along ``axis``,
    clipped to it, at indices top..top + rows, for every axis of a float
    slab: differences of the axis's cumsum at lo..hi, which ``cs`` holds, so
    ``out`` may be ``values``.  Those the slab before computed are at its
    front, and the rest continue from them, so each lane is summed in
    sequence, as by one np.cumsum; the next slab's go there."""
    values, cs, out = values.swapaxes(0, axis), cs.swapaxes(0, axis), out.swapaxes(0, axis)
    side = len(values)
    lo, hi = max(top - b - 1, 0), min(top + rows + b, side)
    done = min(top + b, side) if top else 0
    cs[done - lo:hi - lo] = values[done:hi]
    if top and done < hi:
        cs[done - lo] += cs[done - lo - 1]
    np.cumsum(cs[done - lo:hi - lo], axis=0, out=cs[done - lo:hi - lo])
    # sum[i] = cs[min(i+b, side-1)] - cs[i-b-1], the second term where i-b-1 >= 0
    near = min(max(side - b, top), top + rows)
    out[:near - top] = cs[top + b - lo:near + b - lo]
    out[near - top:] = cs[side - 1 - lo:side - lo]
    far = min(max(b + 1, top), top + rows)
    out[far - top:] -= cs[far - b - 1 - lo:top + rows - b - 1 - lo]
    if top + rows < side:
        after = max(top + rows - b - 1, 0)
        cs[:hi - after] = cs[after - lo:hi - lo]


def _exact_window_sums(values: np.ndarray, d: int, b: int, top: int, rows: int,
                       padded: np.ndarray) -> np.ndarray:
    """The clipped window sums of a block of bool fields at the first-axis
    rows top..top + rows, exact integers: each spatial axis is padded with b
    zeros on both sides, and the boxes of width 2b + 1 are summed by the
    sampler's window rule, ``_valid_box_sums``, in the smallest count dtype
    that holds a window of the field.  ``padded``, the padded cubes as uint8
    with zero margins, takes the fields' rows within b of them; b must not
    exceed the side."""
    side = values.shape[-1]
    lo, hi = max(top - b, 0), min(top + rows + b, side)
    padded[(slice(None), slice(lo + b, hi + b)) + (slice(b, b + side),) * (d - 1)] = (
        values.view(np.uint8)[:, lo:hi])
    dtype = _count_dtype(min(2 * b + 1, side) ** d)
    return _valid_box_sums(padded[:, top:top + rows + 2 * b], 2 * b + 1, dtype)


class _ChatWorkspace:
    """C_hat's per-cube constants for one d, side and b (at most the side):
    the slab rows and the clipped window widths, the first axis's as a column
    and the outer product of the others', so a slab's counts |Q_j| are one
    multiply, exact in any order.  What every block refills, a single sample
    being a block of one, is allocated for the first block and replaced only
    by a larger one: the window sums' start (the padded bool cubes, zero
    margins, or float cumsum rows), and the weights and a slab of products
    (from ``scratch``, or a ``_Scratch`` of its own), which holds a float
    slab's other axes' cumsum until its final multiply."""

    def __init__(self, d: int, side: int, b: int, scratch: _Scratch = None):
        b = min(b, side)
        self.key = d, side, b
        self.rows = _slab_rows(side, b, d)
        i = np.arange(side)
        width = (np.minimum(i + b, side - 1) - np.maximum(i - b, 0) + 1).astype(np.float64)
        self.column = width.reshape((side,) + (1,) * (d - 1))
        self.inner = functools.reduce(np.multiply.outer, [width] * (d - 1), np.ones(()))
        self.counts = np.empty((self.rows,) + self.inner.shape)
        self.counts_top = None  # the first row of the slab whose counts it holds
        self.fronts = {True: ((side + 2 * b,) * d, np.uint8),
                       False: ((min(self.rows + 2 * b + 1, side),) + self.inner.shape, np.float64)}
        self.front = np.empty(0, np.uint8)
        self.scratch = _Scratch() if scratch is None else scratch

    def arrays(self, values: np.ndarray):
        """(front, weights, products) for a block of samples, its first axis."""
        batch, slab = len(values), len(values) * self.counts.size
        shape, dtype = self.fronts[values.dtype == bool]
        if self.front.dtype != dtype or self.front.shape[1:] != shape or len(self.front) < batch:
            self.front = np.zeros((batch,) + shape, dtype)
        products, weights = self.scratch.take(slab, values.size)
        return (self.front[:batch], weights[:values.size].view(np.float64).reshape(values.shape),
                products[:slab].view(np.float64).reshape((batch,) + self.counts.shape))


def _variance_estimator_batch(values: np.ndarray, d: int, b: int, sums=None,
                              work: _ChatWorkspace = None) -> np.ndarray:
    """C_hat for values of shape (batch, side, ..., side): (batch,), or for
    one sample, (side, ..., side), a batch of one, a scalar.  ``sums``, when
    given, are the values' sums S(U) as float64.  The weights are written a
    slab at a time, and the final .sum over the C-ordered weights fixes the
    bits.  ``work``, a ``_ChatWorkspace`` of this d, side and b, lets a
    stream of blocks allocate once; without it the call builds its own."""
    if values.ndim == d:
        return _variance_estimator_batch(values[None], d, b, sums, work)[0]
    side = values.shape[-1]
    b = min(b, side)  # any b >= side - 1 clips every window to the whole axis
    if work is None:
        work = _ChatWorkspace(d, side, b)
    elif work.key != (d, side, b):
        raise ShapeError(f"the C_hat workspace holds (d, side, b) = {work.key}, "
                         f"not {(d, side, b)}")
    spatial = tuple(range(1, d + 1))
    size = float(side**d)
    sums = values.sum(axis=spatial) if sums is None else sums
    global_mean = np.reshape(sums, (-1,) + (1,) * d) / size
    front, weights, products = work.arrays(values)
    # the slab loop's elementwise passes only, whose counts and means
    # broadcast along a slab's cells; the reductions that fix the bits (the
    # sums above and the weights' sum) run outside the scope
    with _unbuffered_rows(work.counts.size):
        for top in range(0, side, work.rows):
            rows = min(work.rows, side - top)
            dev = weights[:, top:top + rows]
            if values.dtype == bool:
                # every float cumsum entry and difference of a 0/1 field is an exact
                # integer below 2^53, so the exact integer sums carry the same bits
                block_sums = _exact_window_sums(values, d, b, top, rows, front)
            else:
                _carried_window_sums(values, 1, b, top, rows, front, dev)
                for axis in spatial[1:]:
                    _carried_window_sums(dev, axis, b, 0, side, products[:, :rows], dev)
                block_sums = dev
            if work.counts_top != top:
                np.multiply(work.column[top:top + rows], work.inner, out=work.counts[:rows])
                work.counts_top = top
            counts = work.counts[:rows]
            np.divide(block_sums, counts, out=dev)
            dev -= global_mean
            dev *= np.multiply(counts, dev, out=products[:, :rows])  # (c * dev) * dev
    return weights.sum(axis=spatial) / size


def _finite_result(value, what: str):
    """A sum, C_hat or standardized sum, scalar or array, checked to be finite."""
    if not np.all(np.isfinite(value)):
        raise DomainError(f"the {what} of this sample overflows float64")
    return value


def _checked(sample: FieldSample):
    """(values, S(U)), checked once for nan and inf, S(U) not for overflow:
    a binary model's values that are all 0 or 1, finite without a further
    pass, as bool for C_hat's exact integer sums, other integers as float64.
    The values are all 0 or 1 when every nonzero one equals 1, which two
    counts decide (nan is nonzero and not 1; -0.0 is 0)."""
    values = sample.values
    if (_value_dtype(sample.model) is bool
            and np.count_nonzero(bits := values != 0) == np.count_nonzero(values == 1)):
        values = bits
    elif not np.isfinite(values).all():
        raise DomainError("sample holds non-finite values (nan or inf): no sum or C_hat")
    elif values.dtype.kind in "iu":
        values = values.astype(np.float64)
    with np.errstate(over="ignore"):
        return values, float(values.sum())


def variance_estimator(sample: FieldSample, config: EstimatorConfig, checked=None) -> float:
    """C_hat(U) with bandwidth taken from the config for this cube.  A sample
    holding nan or inf, or one whose C_hat overflows float64 (values near
    1e154 and above), raises DomainError.  ``checked`` is _checked(sample)."""
    b = config.bandwidth_for(sample.cube.n)
    values, total = _checked(sample) if checked is None else checked
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
        c_hat = float(_variance_estimator_batch(values, sample.cube.d, b, total))
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
    checked = _checked(sample)
    total = _finite_result(checked[1], "sum")
    if mode == "true_sigma":
        variance = float(real(sigma2, "sigma2"))
    elif mode == "estimated":
        variance = variance_estimator(sample, config or EstimatorConfig(), checked)
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
    checked = _checked(sample)
    c_hat = variance_estimator(sample, config or EstimatorConfig(), checked)
    half = _half_width(level, c_hat, sample.cube.size)
    center = _finite_result(checked[1], "sum") / sample.cube.size
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
                       master_seed: int, scratch: _Scratch = None):
    """Replicates 0..replicates-1 of one cube, one sampler block at a time;
    replicate r is sampled with seed derive_seeds(master_seed, n, r).

    Yields (start, values, row_sums): the block's first replicate index, its
    values of shape (block,) + cube.shape and each replicate's sum S(U) as
    float64, summed in integers (``_count_dtype`` of the cube) for a bool
    block, whose sums are exact.  A block holds ``_seeds_per_block``
    replicates, so a consumer that reduces each block as it arrives works
    on it while it is still in cache.  The values are one buffer per cube
    in the field's own dtype (bool for the threshold and iid fields), and
    the sampler's hashes and noise are the two arrays of ``scratch`` (a
    ``_Scratch`` of its own unless given), lent to one ``_SamplerWorkspace``
    per cube, all refilled by every block, so a consumer is done with a
    block before it asks for the next; it may use the scratch in between.
    The cube's seeds are derived in one call, 8 bytes per replicate.  Both
    calls go through this module's names, which perfbench/spans.py wraps;
    the workspace is the sampler call's last argument.
    """
    seeds = derive_seeds(master_seed, cube.n, np.arange(replicates))
    work = _SamplerWorkspace(model, cube, scratch)
    block = np.empty((min(work.step, replicates),) + cube.shape, dtype=_value_dtype(model))
    # a 0/1 field's sums are exact integers, so integer sums carry the float64 bits
    dtype = _count_dtype(cube.size) if block.dtype == bool else np.float64
    for start in range(0, replicates, work.step):
        chunk = seeds[start:start + work.step]
        values = sample_fields_batch(model, cube, chunk, block[:len(chunk)], work)
        yield start, values, values.reshape(len(values), -1).sum(axis=1, dtype=dtype).astype(
            np.float64, copy=False)


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
