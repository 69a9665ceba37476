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
its 64-bit hash h, evaluated exactly in integers on the raw hash as
h < ceil(theta * 2^53) * 2^11 (every site is 1 at theta = 1, where that
bound is 2^64).  Window counts are exact integer sums in the smallest of
uint8, uint16 and int32 that holds the window size plus one, summed by
doubling along each axis.  Seeds are taken modulo 2^64, in a batch as for
a single sample, which is a batch of one.  A batch is computed in blocks of
seeds whose noise grids hold about 2^16 cells, so the working set stays in
cache, and each block's rule writes straight into the output.  Replicate
streams request one such block at a time, so a campaign holds one block
plus its per-replicate arrays.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .cv_ntcp import _binomial_pmf
from .errors import (CapacityError, ConfigError, ParameterError, ShapeError, integer, naming,
                     probability, read_field)

#: Refuse to allocate enlarged noise grids beyond this many cells.
MAX_CELLS = 1 << 26

#: Noise cells hashed at once when sampling a batch: a block of seeds whose
#: hash, noise and window-sum arrays stay in cache.  Replicate streams use
#: the same blocks (``_seeds_per_block``), so C_hat reads them from cache too.
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


def _axis_keys(coord_axes: Sequence[np.ndarray]) -> list:
    """The per-axis hash inputs c * _AXIS_KEYS[k] for the coordinates c of
    axis k, shaped to broadcast along axis 1 + k of a (seeds,) + grid array."""
    d = len(coord_axes)
    keys = []
    for k, axis in enumerate(coord_axes):
        c = np.asarray(axis, dtype=np.int64).astype(np.uint64)
        shape = (1,) * (1 + k) + (len(axis),) + (1,) * (d - k - 1)
        keys.append(c.reshape(shape) * _AXIS_KEYS[k])
    return keys


def _keyed_hash(seeds: np.ndarray, keys: Sequence[np.ndarray]) -> np.ndarray:
    """uint64 hashes for a 1-d batch of seeds on the grid whose
    ``_axis_keys`` are ``keys``; the result has shape seeds.shape + grid."""
    h = _mix64(seeds ^ _TAG_NOISE).reshape(seeds.shape + (1,) * len(keys))
    for key in keys:
        h = _mix64(h ^ key)
    return h


def _site_hash(seeds: np.ndarray, coord_axes: Sequence[np.ndarray]) -> np.ndarray:
    """uint64 hashes on the grid spanned by ``coord_axes``, for a 1-d batch
    of seeds; the result has shape ``seeds.shape + grid_shape``.

    Each value depends only on (seed, site coordinates), which is what makes
    nested cubes agree and lets a batch be computed in any blocking.
    """
    return _keyed_hash(seeds, _axis_keys(coord_axes))


def _noise_from_hash(h: np.ndarray, theta: float) -> np.ndarray:
    """Boolean Bernoulli(theta) noise from site hashes h: u < theta for the
    uniform u = (h >> 11) * 2^-53.

    The comparison runs on integers: theta * 2^53 is exact for theta in
    [0, 1] and h >> 11 is an integer below 2^53, so u < theta exactly when
    h >> 11 < T = ceil(theta * 2^53), that is when h < T * 2^11.  Only
    T = 2^53 (theta = 1) overflows uint64 there, and then every site is 1.
    """
    bound = math.ceil(theta * 2**53) << 11
    if bound >= 2**64:
        return np.ones(h.shape, dtype=bool)
    return h < _U64(bound)


def _site_noise(
    seeds: np.ndarray, coord_axes: Sequence[np.ndarray], theta: float
) -> np.ndarray:
    """Boolean Bernoulli(theta) noise on the grid spanned by ``coord_axes``."""
    return _noise_from_hash(_site_hash(seeds, coord_axes), theta)


def derive_seeds(master_seed: int, group: int, indices) -> np.ndarray:
    """Deterministic child seeds from a master seed, a group and an array of
    indices."""
    indices = np.asarray(indices, dtype=np.int64)
    h = _mix64(
        np.full(indices.shape, int(master_seed) & (2**64 - 1), dtype=np.uint64)
        ^ _TAG_REPLICATE
    )
    c0 = np.full(indices.shape, int(group) & (2**64 - 1), dtype=np.uint64)
    h = _mix64(h ^ (c0 * _AXIS_KEYS[0]))
    h = _mix64(h ^ (indices.astype(np.uint64) * _AXIS_KEYS[1]))
    return h


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _check_d(d: int) -> int:
    """``d`` if it is a supported lattice dimension: 1, 2 or 3."""
    return integer(d, "dimension d", ge=1, le=3)


@dataclass(frozen=True)
class LatticeCube:
    """The integer cube [-n, n]^d."""

    d: int
    n: int

    def __post_init__(self):
        _check_d(self.d)
        integer(self.n, "half-width n", ge=0)

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
        probability(self.p, "p", error=ParameterError)

    @property
    def window_radius(self) -> int:
        return 0


@dataclass(frozen=True)
class MovingWindowThreshold:
    window_radius: int
    theta: float
    k_min: int

    def __post_init__(self):
        integer(self.window_radius, "window_radius", ge=0, error=ParameterError)
        probability(self.theta, "theta", error=ParameterError)
        integer(self.k_min, "k_min", ge=0, error=ParameterError)


@dataclass(frozen=True)
class MovingWindowLevels:
    window_radius: int
    theta: float
    levels: int = 5

    def __post_init__(self):
        integer(self.window_radius, "window_radius", ge=0, error=ParameterError)
        probability(self.theta, "theta", error=ParameterError)
        integer(self.levels, "levels", ge=2, error=ParameterError)


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

def _count_dtype(w_size: int) -> type:
    """The smallest of uint8, uint16 and int32 that holds w_size + 1: every
    window count, and the threshold ``_rule_on_counts`` compares them with."""
    for dtype in (np.uint8, np.uint16):
        if w_size < np.iinfo(dtype).max:
            return dtype
    return np.int32  # w_size is at most MAX_CELLS


def _valid_window_sum(a: np.ndarray, w: int, axis: int, dtype: type) -> np.ndarray:
    """Sliding integer sums of width w along one axis ('valid' mode), in
    ``dtype``, by doubling.

    Sums of width 2, 4, 8, ... are each two shifted slices of the one
    before, about log2(w) adds; the narrower widths of the set bits of w
    are then added in place into the widest.  Integer sums are exact, so
    the counts do not depend on the order of the adds.
    """
    def part(x, start, length):
        return x[(slice(None),) * axis + (slice(start, start + length),)]

    n = a.shape[axis]
    powers = [a]  # powers[j]: the sums of width 2^j at every start that fits
    while 2 ** len(powers) <= w:
        span = 2 ** (len(powers) - 1)
        size = n - 2 * span + 1
        widest = powers[-1]
        powers.append(np.add(part(widest, 0, size), part(widest, span, size), dtype=dtype))
    out = part(powers[-1], 0, n - w + 1)
    offset = 2 ** (len(powers) - 1)
    for j in reversed(range(len(powers) - 1)):
        if w >> j & 1:
            out += part(powers[j], offset, n - w + 1)
            offset += 2**j
    return out


def _rule_on_counts(
    model: FieldModel, counts: np.ndarray, d: int, out: np.ndarray = None
) -> np.ndarray:
    """Map window noise counts to field values, written into the float64
    array ``out`` of the counts' shape when given."""
    if out is None:
        out = np.empty(counts.shape)
    w_size = (2 * model.window_radius + 1) ** d
    if isinstance(model, MovingWindowThreshold):
        # counts never exceed w_size, so a larger k_min acts as w_size + 1;
        # the count dtype holds that, so the comparison never depends on
        # how numpy casts a Python int outside the dtype's range
        return np.greater_equal(counts, min(model.k_min, w_size + 1), out=out)
    if isinstance(model, MovingWindowLevels):
        steps = model.levels - 1
        np.divide(counts, w_size, out=out)
        out *= steps
        np.round(out, out=out)
        out /= steps
        return out
    raise ParameterError(f"not a window model: {model!r}")


def _seeds_per_block(model: FieldModel, cube: LatticeCube) -> int:
    """Seeds sampled together: as many as fit their enlarged noise grids,
    (side + 2m)^d cells each, into _BLOCK_CELLS, and at least one."""
    return max(1, _BLOCK_CELLS // (cube.side + 2 * model.window_radius) ** cube.d)


def sample_fields_batch(
    model: FieldModel, cube: LatticeCube, seeds: Sequence[int]
) -> np.ndarray:
    """Values for many seeds at once, shape (len(seeds),) + cube.shape.

    Seeds are integers taken modulo 2^64, and row r is bit-identical to
    ``sample_field(model, cube, seeds[r]).values``.  The batch is computed
    in blocks of ``_seeds_per_block`` seeds.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        seeds = seeds.astype(np.uint64, copy=False)  # wraps modulo 2^64
    else:
        seeds = np.array([operator.index(s) & (2**64 - 1) for s in seeds], dtype=np.uint64)
    if seeds.ndim != 1:
        raise ShapeError(f"seeds must be one-dimensional, got shape {seeds.shape}")
    m = model.window_radius
    theta = model.p if isinstance(model, IidBernoulli) else model.theta
    enlarged = (cube.side + 2 * m) ** cube.d
    if seeds.size * enlarged > MAX_CELLS:
        raise CapacityError(
            f"{seeds.size} x {enlarged} noise cells exceed the cap of {MAX_CELLS}"
        )
    keys = _axis_keys([np.arange(-cube.n - m, cube.n + m + 1)] * cube.d)
    out = np.empty(seeds.shape + cube.shape)
    step = _seeds_per_block(model, cube)
    dtype = _count_dtype((2 * m + 1) ** cube.d)
    for start in range(0, seeds.size, step):
        noise = _noise_from_hash(_keyed_hash(seeds[start:start + step], keys), theta)
        if isinstance(model, IidBernoulli):
            out[start:start + step] = noise
        else:
            counts = noise.view(np.uint8)
            for k in range(cube.d):
                counts = _valid_window_sum(counts, 2 * m + 1, 1 + k, dtype)
            _rule_on_counts(model, counts, cube.d, out=out[start:start + step])
    return out


def sample_field(model: FieldModel, cube: LatticeCube, seed: int) -> FieldSample:
    """Draw one field realization; deterministic given (model, cube, seed)."""
    values = sample_fields_batch(model, cube, [seed])[0]
    return FieldSample(cube=cube, values=values, model=model, seed=int(seed))


# ---------------------------------------------------------------------------
# Exact moments by enumeration
# ---------------------------------------------------------------------------

def _shared_count_means(model: FieldModel, shared: int, only: int, d: int):
    """The pmf of the shared noise count a and g(a) = E[f(a + private count)]
    for ``only`` private sites, from a (shared + 1) x (only + 1) count table
    that must fit MAX_CELLS (else CapacityError, before allocating)."""
    if (shared + 1) * (only + 1) > MAX_CELLS:
        raise CapacityError(
            f"a {shared + 1} x {only + 1} table of window counts exceeds the cap of {MAX_CELLS}"
        )
    pmf_shared = _binomial_pmf(shared, model.theta)
    pmf_only = _binomial_pmf(only, model.theta)
    counts = np.arange(shared + 1)[:, None] + np.arange(only + 1)[None, :]
    return pmf_shared, _rule_on_counts(model, counts, d) @ pmf_only


def model_mean(model: FieldModel, d: int = 1) -> float:
    """E X_0 by exhaustive enumeration over one window's noise states.

    The window rules are symmetric in the window noise, so configurations
    are grouped by their noise count (binomial weights); the value is exact.
    """
    _check_d(d)
    if isinstance(model, IidBernoulli):
        return model.p
    pmf, g = _shared_count_means(model, (2 * model.window_radius + 1) ** d, 0, d)
    return float(pmf @ g)


def covariance_at_lag(model: FieldModel, lag: Sequence[int]) -> float:
    """cov(X_0, X_j) for lattice lag j, exact by joint-window enumeration.

    The two windows split into shared and private noise sites; grouping
    configurations by the three independent noise counts makes the
    enumeration exact for every supported window size.  Disjoint windows
    (any |lag_k| > 2m) give exactly zero; a count table above MAX_CELLS
    raises CapacityError before it is allocated.
    """
    lag = tuple(integer(v, "lag component") for v in lag)
    d = _check_d(len(lag))
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
    pmf_shared, g = _shared_count_means(model, shared, w_size - shared, d)
    # X_0 and X_j are independent given the shared count a, so
    # cov = Var_a(g(a)), summed centered to avoid the cancellation of
    # E[g^2] - mu^2 when the covariance is far below mu^2
    centered = g - pmf_shared @ g
    return float(pmf_shared @ (centered * centered))


def model_sigma2(model: FieldModel, d: int = 1) -> Sigma2Result:
    """sigma^2 = sum of cov(X_0, X_j) over all lags; finite by m-dependence.

    cov(X_0, X_j) depends on j only through the shared-window count
    prod_k (w - |j_k|), so the nonnegative lags are grouped by that count,
    each standing for 2^(nonzero components) signed lags, and one
    covariance is computed per group.
    """
    w = 2 * model.window_radius + 1
    groups = {}  # shared-window count -> [covariance, number of signed lags]
    for lag in itertools.product(range(w), repeat=_check_d(d)):
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
# doubles exactly); each distinct value is formatted once and the body is
# written in _BLOCK_CELLS-line blocks; the loader reads the body in blocks of
# 8 * _BLOCK_CELLS characters and parses each distinct line once per block
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


def model_from_dict(data: dict) -> FieldModel:
    """The model of a config or sample header: a missing or wrongly typed
    field raises ConfigError, an unknown type ParameterError."""
    def get(key, kind, default=None):
        return read_field(data, key, kind, "model", default)

    kind = get("type", str)
    if kind == "iid_bernoulli":
        return IidBernoulli(get("p", float))
    if kind == "moving_window_threshold":
        return MovingWindowThreshold(
            get("window_radius", int), get("theta", float), get("k_min", int))
    if kind == "moving_window_levels":
        return MovingWindowLevels(
            get("window_radius", int), get("theta", float), get("levels", int, 5))
    raise ParameterError(f"unknown field model type {kind!r}")


def save_sample(sample: FieldSample, path) -> None:
    """Write ``sample`` to ``path``, its values as float64 in row-major
    order.  Distinct values are keyed by bit pattern, so -0.0 stays ``-0``."""
    header = {
        "d": sample.cube.d,
        "n": sample.cube.n,
        "seed": sample.seed,
        "model": model_to_dict(sample.model),
    }
    values = np.asarray(sample.values, dtype=np.float64).ravel()
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    lines = np.array(["%.17g\n" % v for v in bits.view(np.float64).tolist()], dtype=object)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for start in range(0, values.size, _BLOCK_CELLS):
            fh.write("".join(lines[inverse[start:start + _BLOCK_CELLS]]))


def _parse_lines(lines) -> np.ndarray:
    """float() of each non-blank line, in order.

    Where lines repeat, each distinct line is parsed once.  Whether they do
    is judged on an evenly strided sample of at most 1024 lines, because
    hashing every line costs about as much as parsing it when all are
    distinct.  A blank or malformed line sends the block through the
    per-line parse, which skips blank lines and raises ValueError at the
    first bad one."""
    sample = lines[:: len(lines) // 1024 + 1]
    try:
        if 2 * len(set(sample)) > len(sample):  # mostly distinct: a table would not pay
            return np.fromiter(map(float, lines), np.float64, count=len(lines))
        distinct = set(lines)
        table = dict(zip(distinct, map(float, distinct)))
        return np.fromiter(map(table.__getitem__, lines), np.float64, count=len(lines))
    except ValueError:
        return np.fromiter(map(float, filter(str.strip, lines)), np.float64)


def _read_values(fh) -> np.ndarray:
    """The values of the lines left in text file ``fh``, read and parsed a
    block of text at a time; a line cut by a block end joins the next."""
    blocks = []
    tail = ""
    while text := fh.read(_BLOCK_CELLS * 8):
        lines = (tail + text).split("\n")
        tail = lines.pop()
        blocks.append(_parse_lines(lines))
    blocks.append(_parse_lines([tail]))
    return np.concatenate(blocks)


def load_sample(path) -> FieldSample:
    """The sample saved at ``path``; blank lines are skipped and each
    distinct value line is parsed once per block.  A file that does not
    decode, a header that is not a JSON object with the fields d, n, seed
    and model, a value line that is not one number and a wrong value count
    raise ConfigError; every error in the header names the file."""
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:  # an undecodable byte, or not JSON
            raise ConfigError(f"malformed sample file {path}: {exc}") from None
        with naming(f"sample file {path}"):
            d, n = read_field(header, "d", int, "header"), read_field(header, "n", int, "header")
            cube = LatticeCube(d, n)
            model = model_from_dict(read_field(header, "model", dict, "header"))
            seed = read_field(header, "seed", int, "header")
        try:
            values = _read_values(fh)
        except ValueError as exc:  # a bad value line or an undecodable byte
            raise ConfigError(f"malformed sample file {path}: {exc}") from None
    if values.size != cube.size:
        raise ConfigError(
            f"sample file {path} holds {values.size} values, cube needs {cube.size}"
        )
    return FieldSample(cube=cube, values=values.reshape(cube.shape), model=model, seed=seed)
