"""Strictly stationary random fields of FSU states on integer cubes of Z^d.

Two generative families are provided, both translation-invariant
functionals of iid site noise and therefore strictly stationary by
construction:

* ``IidBernoulli(p)``: independent 0/1 states.
* ``MovingWindowThreshold(m, theta, k_min)``: X_j = 1 iff the Bernoulli
  noise summed over the sup-norm window of radius m around j reaches
  k_min.  Sites farther apart than 2m (disjoint windows) are independent,
  so the field is m-dependent in the window-radius sense.
* ``MovingWindowLevels(m, theta, levels)``: as above but the output is the
  window mean quantized to a uniform grid of ``levels`` values in [0, 1],
  modelling intermediate (non-binary) FSU states.

Noise is drawn from a counter-based generator keyed by (seed, site
coordinates): the value at a lattice site is a pure hash of the seed and
the coordinates, so samples are reproducible, embarrassingly parallel,
and consistent under cube enlargement without storing noise arrays.  A
site's noise is 1 when u < theta for the uniform u = (h >> 11) * 2^-53 of
its 64-bit hash h, evaluated exactly in integers as
(h >> 11) < ceil(theta * 2^53).  Seeds are taken modulo 2^64, in a batch as
for a single sample, which is a batch of one.  A batch is computed in
blocks of seeds whose noise grids hold about 2^16 cells, so the working set
stays in cache and peak memory is about the output array.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .cv_ntcp import _binomial_pmf
from .errors import CapacityError, ConfigError, DomainError, ParameterError, ShapeError

#: Refuse to allocate enlarged noise grids beyond this many cells.
MAX_CELLS = 1 << 26

#: Noise cells hashed at once when sampling a batch: a block of seeds whose
#: hash, noise and window-sum arrays stay in cache.
_BLOCK_CELLS = 1 << 16

#: Treat |sigma^2| below this as the degenerate sigma = 0 case.
SIGMA2_EPSILON = 1e-12


# ---------------------------------------------------------------------------
# Counter-based site-addressed RNG (splitmix64-style finalizer)
# ---------------------------------------------------------------------------

_U64 = np.uint64
_MIX_C1 = _U64(0xBF58476D1CE4E5B9)
_MIX_C2 = _U64(0x94D049BB133111EB)
_TAG_NOISE = _U64(0x243F6A8885A308D3)
_TAG_REPLICATE = _U64(0x13198A2E03707344)
_AXIS_KEYS = (
    _U64(0x9E3779B97F4A7C15),
    _U64(0xC2B2AE3D27D4EB4F),
    _U64(0x165667B19E3779F9),
    _U64(0xD6E8FEB86659FD93),
)


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise and in place on a uint64 array."""
    h ^= h >> _U64(30)
    h *= _MIX_C1
    h ^= h >> _U64(27)
    h *= _MIX_C2
    h ^= h >> _U64(31)
    return h


def _site_hash(seeds: np.ndarray, coord_axes: Sequence[np.ndarray]) -> np.ndarray:
    """uint64 hashes on the grid spanned by ``coord_axes``, for a 1-d batch
    of seeds; the result has shape ``seeds.shape + grid_shape``.

    Each value depends only on (seed, site coordinates), which is what makes
    nested cubes agree and lets a batch be computed in any blocking.
    """
    d = len(coord_axes)
    h = _mix64(seeds ^ _TAG_NOISE).reshape(seeds.shape + (1,) * d)
    for k, axis in enumerate(coord_axes):
        c = np.asarray(axis, dtype=np.int64).astype(np.uint64)
        shape = (1,) * (1 + k) + (len(axis),) + (1,) * (d - k - 1)
        h = _mix64(h ^ (c.reshape(shape) * _AXIS_KEYS[k]))
    return h


def _site_noise(
    seeds: np.ndarray, coord_axes: Sequence[np.ndarray], theta: float
) -> np.ndarray:
    """Boolean Bernoulli(theta) noise on the grid, u < theta for the uniform
    u = (h >> 11) * 2^-53 of each site hash h.

    The comparison runs on integers: theta * 2^53 is exact for theta in
    [0, 1] and h >> 11 is an integer below 2^53, so u < theta exactly when
    h >> 11 < ceil(theta * 2^53).
    """
    h = _site_hash(seeds, coord_axes)
    h >>= _U64(11)
    return h < _U64(math.ceil(theta * 2**53))


def derive_seed(master_seed: int, group: int, index: int) -> int:
    """Deterministic child seed from a master seed, a group and an index."""
    return int(derive_seeds(master_seed, group, [index])[0])


def derive_seeds(master_seed: int, group: int, indices) -> np.ndarray:
    """Deterministic child seeds from a master seed, a group and an array of
    indices."""
    indices = np.asarray(indices, dtype=np.int64)
    h = _mix64(
        np.full(indices.shape, master_seed & (2**64 - 1), dtype=np.uint64)
        ^ _TAG_REPLICATE
    )
    c0 = np.full(indices.shape, group, dtype=np.int64).astype(np.uint64)
    h = _mix64(h ^ (c0 * _AXIS_KEYS[0]))
    h = _mix64(h ^ (indices.astype(np.uint64) * _AXIS_KEYS[1]))
    return h


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeCube:
    """The integer cube [-n, n]^d."""

    d: int
    n: int

    def __post_init__(self):
        if not (1 <= self.d <= 3):
            raise DomainError("dimension d must be 1, 2 or 3")
        if self.n < 0:
            raise DomainError("half-width n must be >= 0")

    @property
    def side(self) -> int:
        return 2 * self.n + 1

    @property
    def size(self) -> int:
        return self.side**self.d

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.side,) * self.d


@dataclass(frozen=True)
class IidBernoulli:
    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ParameterError("p must be in [0, 1]")

    @property
    def window_radius(self) -> int:
        return 0


@dataclass(frozen=True)
class MovingWindowThreshold:
    window_radius: int
    theta: float
    k_min: int

    def __post_init__(self):
        if self.window_radius < 0:
            raise ParameterError("window_radius must be >= 0")
        if not (0.0 <= self.theta <= 1.0):
            raise ParameterError("theta must be in [0, 1]")
        if self.k_min < 0:
            raise ParameterError("k_min must be >= 0")


@dataclass(frozen=True)
class MovingWindowLevels:
    window_radius: int
    theta: float
    levels: int = 5

    def __post_init__(self):
        if self.window_radius < 0:
            raise ParameterError("window_radius must be >= 0")
        if not (0.0 <= self.theta <= 1.0):
            raise ParameterError("theta must be in [0, 1]")
        if self.levels < 2:
            raise ParameterError("levels must be >= 2")


FieldModel = Union[IidBernoulli, MovingWindowThreshold, MovingWindowLevels]


@dataclass(frozen=True)
class FieldSample:
    """A realized field over a cube, with model and seed provenance."""

    cube: LatticeCube
    values: np.ndarray
    model: FieldModel
    seed: int

    def __post_init__(self):
        if self.values.shape != self.cube.shape:
            raise ShapeError(
                f"values shape {self.values.shape} != cube shape {self.cube.shape}"
            )


@dataclass(frozen=True)
class Sigma2Result:
    """sigma^2 = sum of lagged covariances, with an explicit degeneracy flag."""

    value: float
    degenerate: bool


# ---------------------------------------------------------------------------
# Dose linkage
# ---------------------------------------------------------------------------

def bernoulli_from_dose(dr_model, cells, dose: float) -> IidBernoulli:
    """Independent-FSU field whose kill probability comes from dose response."""
    from .dose_response import fsu_kill_probability

    return IidBernoulli(p=fsu_kill_probability(dr_model, cells, dose))


def threshold_model_from_dose(
    dr_model, cells, dose: float, window_radius: int, k_min: int
) -> MovingWindowThreshold:
    """Moving-window field whose noise level comes from dose response."""
    from .dose_response import fsu_kill_probability

    return MovingWindowThreshold(
        window_radius=window_radius,
        theta=fsu_kill_probability(dr_model, cells, dose),
        k_min=k_min,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _valid_window_sum(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Sliding integer sums of width w along one axis ('valid' mode), via
    cumsum; int32 holds every partial sum of a grid of at most MAX_CELLS."""
    a = np.moveaxis(a, axis, -1)
    cs = np.cumsum(a, axis=-1, dtype=np.int32)
    out = cs[..., w - 1:].copy()
    out[..., 1:] -= cs[..., : cs.shape[-1] - w]
    return np.moveaxis(out, -1, axis)


def _rule_on_counts(model: FieldModel, counts: np.ndarray, d: int) -> np.ndarray:
    """Map window noise counts to field values."""
    if isinstance(model, MovingWindowThreshold):
        return (counts >= model.k_min).astype(np.float64)
    if isinstance(model, MovingWindowLevels):
        w_size = (2 * model.window_radius + 1) ** d
        steps = model.levels - 1
        return np.round(counts / w_size * steps) / steps
    raise ParameterError(f"not a window model: {model!r}")


def sample_fields_batch(
    model: FieldModel, cube: LatticeCube, seeds: Sequence[int]
) -> np.ndarray:
    """Values for many seeds at once, shape (len(seeds),) + cube.shape.

    Seeds are integers taken modulo 2^64, and row r is bit-identical to
    ``sample_field(model, cube, seeds[r]).values``.  The batch is computed
    in blocks of seeds whose noise grids hold about _BLOCK_CELLS cells.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        seeds = seeds.astype(np.uint64, copy=False)  # wraps modulo 2^64
    else:
        seeds = np.array([operator.index(s) & (2**64 - 1) for s in seeds], dtype=np.uint64)
    if seeds.ndim != 1:
        raise ShapeError(f"seeds must be one-dimensional, got shape {seeds.shape}")
    m = model.window_radius
    theta = model.p if isinstance(model, IidBernoulli) else model.theta
    enlarged = (2 * cube.n + 1 + 2 * m) ** cube.d
    if seeds.size * enlarged > MAX_CELLS:
        raise CapacityError(
            f"{seeds.size} x {enlarged} noise cells exceed the cap of {MAX_CELLS}"
        )
    axes = [np.arange(-cube.n - m, cube.n + m + 1)] * cube.d
    out = np.empty(seeds.shape + cube.shape)
    step = max(1, _BLOCK_CELLS // enlarged)
    for start in range(0, seeds.size, step):
        block = _site_noise(seeds[start:start + step], axes, theta)
        if not isinstance(model, IidBernoulli):
            for k in range(cube.d):
                block = _valid_window_sum(block, 2 * m + 1, 1 + k)
            block = _rule_on_counts(model, block, cube.d)
        out[start:start + step] = block
    return out


def sample_field(model: FieldModel, cube: LatticeCube, seed: int) -> FieldSample:
    """Draw one field realization; deterministic given (model, cube, seed)."""
    values = sample_fields_batch(model, cube, [seed])[0]
    return FieldSample(cube=cube, values=values, model=model, seed=int(seed))


# ---------------------------------------------------------------------------
# Exact moments by enumeration
# ---------------------------------------------------------------------------

def model_mean(model: FieldModel, d: int = 1) -> float:
    """E X_0 by exhaustive enumeration over one window's noise states.

    The window rules are symmetric in the window noise, so configurations
    are grouped by their noise count (binomial weights); the value is exact.
    """
    if not (1 <= d <= 3):
        raise DomainError("dimension d must be 1, 2 or 3")
    if isinstance(model, IidBernoulli):
        return model.p
    w_size = (2 * model.window_radius + 1) ** d
    pmf = _binomial_pmf(w_size, model.theta)
    vals = _rule_on_counts(model, np.arange(w_size + 1), d)
    return float(pmf @ vals)


def covariance_at_lag(model: FieldModel, lag: Sequence[int]) -> float:
    """cov(X_0, X_j) for lattice lag j, exact by joint-window enumeration.

    The two windows split into shared and private noise sites; grouping
    configurations by the three independent noise counts makes the
    enumeration exact for every supported window size.  Disjoint windows
    (any |lag_k| > 2m) give exactly zero.
    """
    lag = tuple(int(v) for v in lag)
    d = len(lag)
    if not (1 <= d <= 3):
        raise DomainError("lag must have 1 to 3 components")
    if isinstance(model, IidBernoulli):
        if all(v == 0 for v in lag):
            return model.p * (1.0 - model.p)
        return 0.0
    m = model.window_radius
    w = 2 * m + 1
    shared = 1
    for v in lag:
        shared *= max(0, w - abs(v))
    w_size = w**d
    if shared == 0:
        return 0.0
    only = w_size - shared
    pmf_shared = _binomial_pmf(shared, model.theta)
    pmf_only = _binomial_pmf(only, model.theta)
    counts = np.arange(shared + 1)[:, None] + np.arange(only + 1)[None, :]
    vals = _rule_on_counts(model, counts, d)
    # g(a) = E[f(a + private count)]; X_0 and X_j are independent given the
    # shared count a, so cov = Var_a(g(a)), summed centered to avoid the
    # cancellation of E[g^2] - mu^2 when the covariance is far below mu^2
    g = vals @ pmf_only
    centered = g - pmf_shared @ g
    return float(pmf_shared @ (centered * centered))


def model_sigma2(model: FieldModel, d: int = 1) -> Sigma2Result:
    """sigma^2 = sum of cov(X_0, X_j) over all lags; finite by m-dependence.

    cov(X_0, X_j) depends on j only through the shared-window count
    prod_k (w - |j_k|), so the nonnegative lags are grouped by that count,
    each standing for 2^(nonzero components) signed lags, and one
    covariance is computed per group.
    """
    if not (1 <= d <= 3):
        raise DomainError("dimension d must be 1, 2 or 3")
    w = 2 * model.window_radius + 1
    groups = {}  # shared-window count -> [covariance, number of signed lags]
    for lag in itertools.product(range(w), repeat=d):
        shared = math.prod(w - j for j in lag)
        if shared not in groups:
            groups[shared] = [covariance_at_lag(model, lag), 0]
        groups[shared][1] += 2 ** sum(1 for j in lag if j)
    total = 0.0
    for cov, count in groups.values():
        total += count * cov
    return Sigma2Result(value=total, degenerate=abs(total) < SIGMA2_EPSILON)


# ---------------------------------------------------------------------------
# Serialization: JSON header line + one %.17g value per line (round trips
# doubles exactly)
# ---------------------------------------------------------------------------

def model_to_dict(model: FieldModel) -> dict:
    if isinstance(model, IidBernoulli):
        return {"type": "iid_bernoulli", "p": model.p}
    if isinstance(model, MovingWindowThreshold):
        return {
            "type": "moving_window_threshold",
            "window_radius": model.window_radius,
            "theta": model.theta,
            "k_min": model.k_min,
        }
    if isinstance(model, MovingWindowLevels):
        return {
            "type": "moving_window_levels",
            "window_radius": model.window_radius,
            "theta": model.theta,
            "levels": model.levels,
        }
    raise ParameterError(f"unknown model {model!r}")


def _number(value, name: str, integer: bool = False):
    """``value`` unchanged if it is a number (an integer when ``integer``);
    any other type in a config or header field raises ConfigError."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    return value


def model_from_dict(data: dict) -> FieldModel:
    if not isinstance(data, dict):
        raise ConfigError(f"model must be an object, got {data!r}")
    kind = data.get("type")
    if kind == "iid_bernoulli":
        return IidBernoulli(p=_number(data["p"], "p"))
    if kind == "moving_window_threshold":
        return MovingWindowThreshold(
            window_radius=_number(data["window_radius"], "window_radius", integer=True),
            theta=_number(data["theta"], "theta"),
            k_min=_number(data["k_min"], "k_min", integer=True),
        )
    if kind == "moving_window_levels":
        return MovingWindowLevels(
            window_radius=_number(data["window_radius"], "window_radius", integer=True),
            theta=_number(data["theta"], "theta"),
            levels=_number(data.get("levels", 5), "levels", integer=True),
        )
    raise ParameterError(f"unknown field model type {kind!r}")


def save_sample(sample: FieldSample, path) -> None:
    header = {
        "d": sample.cube.d,
        "n": sample.cube.n,
        "seed": sample.seed,
        "model": model_to_dict(sample.model),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for v in sample.values.ravel():
            fh.write("%.17g\n" % v)


def load_sample(path) -> FieldSample:
    with open(path) as fh:
        header = json.loads(fh.readline())
        values = np.array([float(line) for line in fh if line.strip()])
    cube = LatticeCube(
        d=_number(header["d"], "d", integer=True), n=_number(header["n"], "n", integer=True)
    )
    if values.size != cube.size:
        raise ShapeError(
            f"sample file holds {values.size} values, cube needs {cube.size}"
        )
    return FieldSample(
        cube=cube,
        values=values.reshape(cube.shape),
        model=model_from_dict(header["model"]),
        seed=header["seed"],
    )
