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
its 64-bit hash h, compared exactly in integers on the raw hash.  The hash
is splitmix64's finalizer chained over the seed and one coordinate axis at
a time; its first step, h ^ (h >> 30), is linear over xor, so the per-axis
keys are stored premixed and each site stage premixes only the stage
before it, 1/side of the grid: a stage makes seven passes over its grid
(the broadcast xor with the keys, then multiply, shift, xor, multiply,
shift, xor) and the noise compare an eighth.  Window
counts are exact integer sums in the smallest of uint8, uint16 and int32
that holds the window size plus one, summed by doubling along each axis
(``_valid_box_sums``, the one box-sum rule, which C_hat's exact window
sums use too) on the flat array, so each add is one contiguous pass however
short the rows; the iid field is sampled as the radius-0 window.  At
numpy's default buffer size, a pass that broadcasts an operand along rows
shorter than about 2730 cells, as the stage xor does, copies it through the
ufunc buffer at about three times the cost of a flat pass, so a call whose
grid rows are that short and at least about 170 cells runs under the buffer
size ``_UFUNC_BUFSIZE`` (``_unbuffered_rows``), in a scope that restores the
caller's.  Seeds are taken modulo 2^64, in a batch as for a single sample,
which is a batch of one.
Replicate seeds come from the same keyed hash under a replicate tag, at
the sites (n, r) of the master seed.  A batch is computed in blocks of
seeds whose noise grids hold about 2^16 cells, so the working set stays in
cache, and each block's rule writes straight into the output in the
field's own dtype (bool for the threshold and iid fields), or into a
float64 output in one cast from the bool rule, written into the hash's
buffer, which the noise leaves free.  One large
cube whose grid alone overflows a block is computed in slabs of first-axis
rows instead, each hashed with its 2m-row halo: a site's noise depends only
on the seed and its coordinates, so the slabs give the same bits; a block's
seeds take their stage of the hash once, its slabs only their sites'.
Every call works from a ``_SamplerWorkspace``: the cube's grid keys, block
and slab sizes and count dtype, and a ``_Scratch`` whose two uint64 arrays
are all the sampler's block-sized buffers.  ``_site_hash`` takes its stages
in them in turn, each the other's shift scratch in ``_premix`` and
``_mix_premixed``, and leaves its result in the second; the bool noise is
written into the first, which the hash leaves free.  A call builds its own
workspace; replicate streams build one per cube, derive the cube's seeds
once and refill its buffers and one block of values in the field's own
dtype with every block, so after the first block they allocate nothing
block-sized.  A campaign's ``_Scratch`` also holds C_hat's weights and
products, so a campaign holds one block's buffers plus 8 bytes of seed,
S(U) and C_hat per replicate.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
import stat
from dataclasses import MISSING, dataclass, fields
from typing import Sequence, Tuple, Union

import numpy as np

from .cv_ntcp import _binomial_rows, _hankel
from .errors import (CapacityError, ConfigError, DomainError, ParameterError, ShapeError, integer,
                     naming, probability, read_field)

#: Refuse to allocate enlarged noise grids beyond this many cells.
MAX_CELLS = 1 << 26

#: Noise cells hashed at once when sampling a batch: a block of seeds, or a
#: slab of one large cube, whose hash, noise and window-sum arrays stay in
#: cache.  Replicate streams use the same blocks (``_seeds_per_block``), so
#: C_hat reads them from cache too.
_BLOCK_CELLS = 1 << 16

#: numpy's ufunc buffer size (elements) for the passes of the sampler's
#: block loop and C_hat's slab loop that broadcast an operand along short
#: rows (``_unbuffered_rows``).  numpy 2.4's ufunc iterator copies an operand
#: broadcast along the loop's inner dimension through its buffer whenever
#: that dimension is shorter than about a third of the buffer (at the
#: default 8192, an inner dimension of 2700 is slow and 2900 fast).  The
#: stage xor of 2^16 uint64 cells took 66, 62 and 70 us on the stream's
#: 127x515, 40x1603 and 162x403 blocks at 8192 against 18, 17 and 20 us at
#: 512, and 16 us as a flat xor (2-core Xeon, numpy 2.4.6); 256 and 1024
#: gave the same.  Rows shorter than about 170 stay buffered at 512: 1872x35
#: took 82 us at either size.
_UFUNC_BUFSIZE = 512

#: Treat |sigma^2| below this as the degenerate sigma = 0 case.
SIGMA2_EPSILON = 1e-12


def _unbuffered_rows(row: int):
    """A scope for passes that broadcast an operand along rows of ``row``
    elements: numpy copies such an operand through its ufunc buffer when the
    row is shorter than about a third of the buffer size, so where numpy's
    default buffer size, 8192, would copy it and ``_UFUNC_BUFSIZE`` would
    not, the body runs under ``_UFUNC_BUFSIZE``, in an ``np.errstate()``
    that restores the caller's on exit (``_SmallBuffer``).  Elsewhere it
    runs as it is, and numpy's error state is not touched: in the
    benchmark's process, one ``np.getbufsize()`` per sampler call made the
    op of the 1-d criterion-7 campaign, most of whose blocks have 6403-cell
    rows, 137-142 ms against 116-122 ms, for no gain on rows that long.
    The scope is a block's or a slab loop's, never a generator's across a
    yield."""
    return _SmallBuffer() if _UFUNC_BUFSIZE <= 3 * row < 8192 else contextlib.nullcontext()


class _SmallBuffer(np.errstate):
    """``np.errstate()`` that also sets numpy's buffer size to
    ``_UFUNC_BUFSIZE``, which its exit restores with the error state."""

    def __enter__(self):
        super().__enter__()
        np.setbufsize(_UFUNC_BUFSIZE)


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
)


def _premix(h: np.ndarray, scratch: np.ndarray = None) -> np.ndarray:
    """splitmix64's first step, h ^ (h >> 30), elementwise and in place on a
    uint64 array; the shifted values go into ``scratch``, a uint64 array of
    h's shape, allocated when not given.  A right shift distributes over
    xor, so the step does too: _premix(a ^ b) == _premix(a) ^ _premix(b)."""
    h ^= np.right_shift(h, _U64(30), out=scratch)
    return h


def _mix_premixed(h: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The rest of the splitmix64 finalizer after ``_premix``, in place on h:
    multiply, shift, xor, multiply, shift, xor, the shifts into
    ``scratch``."""
    h *= _MIX_C1
    h ^= np.right_shift(h, _U64(27), out=scratch)
    h *= _MIX_C2
    h ^= np.right_shift(h, _U64(31), out=scratch)
    return h


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise and in place on a uint64 array,
    ``_premix`` then ``_mix_premixed``, the shifts into one scratch array
    of h's shape."""
    scratch = np.empty_like(h)
    return _mix_premixed(_premix(h, scratch), scratch)


def _axis_keys(coord_axes: Sequence[np.ndarray]) -> list:
    """The per-axis hash inputs c * _AXIS_KEYS[k] for the coordinates c of
    axis k, taken modulo 2^64 and stored premixed (``_premix``), shaped to
    broadcast along axis 1 + k of a (seeds,) + grid array."""
    d = len(coord_axes)
    keys = []
    for k, axis in enumerate(coord_axes):
        c = np.asarray(axis).astype(np.uint64)
        c = c.reshape((1,) * (1 + k) + (len(c),) + (1,) * (d - k - 1))
        keys.append(_premix(c * _AXIS_KEYS[k], c))  # c, a copy, takes the shifts
    return keys


def _keyed_hash(seeds: np.ndarray, keys: Sequence[np.ndarray], tag: np.uint64) -> np.ndarray:
    """uint64 hashes under ``tag`` (_TAG_NOISE or _TAG_REPLICATE) of a 1-d
    batch of seeds on the grid whose ``_axis_keys`` are ``keys``, of shape
    seeds.shape + grid.  Each value depends only on (tag, seed, coordinates),
    so nested cubes agree and a batch can be computed in any blocking."""
    return _site_hash(_mix64(seeds ^ tag), keys)


def _site_hash(h: np.ndarray, keys: Sequence[np.ndarray], buffers=None) -> np.ndarray:
    """The sites' stages of ``_keyed_hash``, from the seed stage h (the 1-d
    ``_mix64(seeds ^ tag)``, left unchanged) over the grid whose premixed
    ``_axis_keys`` are ``keys``.  Stage k is _mix64(before ^ c_k * A_k) of
    the stage before, which ``_premix``'s linearity computes as
    _mix_premixed(_premix(before) ^ key): the premix runs on the stage
    before, 1/side of the grid, and the grid takes seven passes, the
    broadcast xor and the six steps of ``_mix_premixed``.  The xor is a
    flat pass's speed only where numpy does not buffer its broadcast
    operands: under the sampler's ``_UFUNC_BUFSIZE``, on rows of about 170
    cells and more (at numpy's default buffer size, 2730).  The stages
    alternate between ``buffers``, two flat uint64 arrays of at least
    h.size * grid cells (allocated when not given): each stage is written
    into one, and the other, which holds the stage before (the seed stage
    is copied there), is its shift scratch.  The last stage is written into
    ``buffers[1]``, and the result is a view of it; ``buffers[0]`` holds
    only a spent stage, so the caller may overwrite it."""
    cells, shape = h.size, h.shape + (1,) * len(keys)
    if buffers is None:
        size = cells * math.prod(key.size for key in keys)
        buffers = _Scratch().take(size, size)
    if len(keys) % 2:
        buffers = buffers[::-1]  # so that the last stage, k = len(keys) - 1, is in buffers[1]
    flat = buffers[1][:cells]
    flat[:] = h
    for k, key in enumerate(keys):
        stage, before = buffers[k % 2], buffers[1 - k % 2]
        prev = _premix(flat, stage[:cells]).reshape(shape)  # flat is before[:cells]
        cells *= key.size
        shape = shape[:1 + k] + (key.size,) + shape[2 + k:]
        flat = stage[:cells]
        np.bitwise_xor(prev, key, out=flat.reshape(shape))
        _mix_premixed(flat, before[:cells])
    return flat.reshape(shape)


def _noise_from_hash(h: np.ndarray, theta: float, out: np.ndarray = None) -> np.ndarray:
    """Boolean Bernoulli(theta) noise from site hashes h: u < theta for the
    uniform u = (h >> 11) * 2^-53, written into the bool array ``out`` of
    h's shape when given.

    The comparison runs on integers: theta * 2^53 is exact for theta in
    [0, 1] and h >> 11 is an integer below 2^53, so u < theta exactly when
    h >> 11 < T = ceil(theta * 2^53), that is when h < T * 2^11.  Only
    T = 2^53 (theta = 1) overflows uint64 there, and then every site is 1.
    """
    if out is None:
        out = np.empty(h.shape, dtype=bool)
    bound = math.ceil(theta * 2**53) << 11
    if bound >= 2**64:
        out.fill(True)
        return out
    return np.less(h, _U64(bound), out=out)


def derive_seeds(master_seed: int, group: int, indices) -> np.ndarray:
    """Deterministic child seeds from a master seed, a group and an array of
    indices: the keyed hash of the master seed at the sites (group, index)
    under _TAG_REPLICATE, of the shape of ``indices``.  All three are
    integers taken modulo 2^64, the indices an integer array: a float or
    bool index, or one at or above 2^64, raises DomainError."""
    indices = np.asarray(indices)
    if indices.size and indices.dtype.kind not in "iu":
        raise DomainError(f"indices must be integers in [-2^63, 2^64), got {indices.dtype} "
                          f"array {indices.ravel()[:3].tolist()}")
    master = np.array([integer(master_seed, "master seed") & (2**64 - 1)], dtype=np.uint64)
    keys = _axis_keys([[integer(group, "group") & (2**64 - 1)], indices.ravel()])
    return _keyed_hash(master, keys, _TAG_REPLICATE).reshape(indices.shape)


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

    def __post_init__(self):  # stored as Python ints, so that side and size never wrap
        object.__setattr__(self, "d", _check_d(self.d))
        object.__setattr__(self, "n", integer(self.n, "half-width n", ge=0))

    @property
    def side(self) -> int:
        return 2 * self.n + 1

    @property
    def size(self) -> int:
        return self.side**self.d

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.side,) * self.d


def _keep_parameter(model, name: str, ge: int) -> None:
    """Check the integer parameter ``name`` of a frozen model and keep the
    Python int that ``integer`` returns, so that sizes computed from it never
    wrap in int64."""
    object.__setattr__(model, name, integer(getattr(model, name), name, ge=ge, error=ParameterError))


def _keep_probability(model, name: str) -> None:
    """Check the probability ``name`` of a frozen model and keep it as a
    Python float, so that the sampler's theta * 2^53 is exact whatever
    numpy type it was given in (a float16 one overflows)."""
    object.__setattr__(model, name, float(probability(getattr(model, name), name,
                                                      error=ParameterError)))


@dataclass(frozen=True)
class IidBernoulli:
    p: float
    window_radius = 0  # sampled as the radius-0 threshold window at theta = p
    k_min = 1

    def __post_init__(self):
        _keep_probability(self, "p")

    @property
    def theta(self) -> float:
        return self.p


@dataclass(frozen=True)
class MovingWindowThreshold:
    window_radius: int
    theta: float
    k_min: int

    def __post_init__(self):
        _keep_parameter(self, "window_radius", ge=0)
        _keep_probability(self, "theta")
        _keep_parameter(self, "k_min", ge=0)


@dataclass(frozen=True)
class MovingWindowLevels:
    window_radius: int
    theta: float
    levels: int = 5

    def __post_init__(self):
        _keep_parameter(self, "window_radius", ge=0)
        _keep_probability(self, "theta")
        _keep_parameter(self, "levels", ge=2)


FieldModel = Union[IidBernoulli, MovingWindowThreshold, MovingWindowLevels]

#: The serialized ``type`` of each model; its dataclass fields, in order,
#: are the other keys of its dict form.
_MODEL_TYPES = {
    "iid_bernoulli": IidBernoulli,
    "moving_window_threshold": MovingWindowThreshold,
    "moving_window_levels": MovingWindowLevels,
}
_KINDS = {"int": int, "float": float}  # field annotations, strings under postponed evaluation


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
    for dtype, top in ((np.uint8, 0xFF), (np.uint16, 0xFFFF)):
        if w_size < top:
            return dtype
    return np.int32  # w_size is at most MAX_CELLS


def _valid_box_sums(a: np.ndarray, w: int, dtype: type) -> np.ndarray:
    """Sliding integer sums over boxes of width w along every axis after the
    first, which indexes a batch ('valid' mode), in ``dtype``: the window
    rule of the sampler's noise counts and of C_hat's binary window sums.

    One axis at a time, sums of width 2, 4, 8, ... are each two shifted
    slices of the one before, about log2(w) adds; the narrower widths of the
    set bits of w are then added in place into the widest.  The adds run on
    the flat C-ordered array (a copy when ``a`` is not C-contiguous), an
    axis's shift being its flat stride, so each is one contiguous pass
    however short the rows: entry i of a sum starts its box at flat index
    i, and the sums whose box crosses a row end are computed but never
    read.  Each pass stops where its shifted operand ends, and the last
    box that fits ends there too, so every entry read is computed.  The
    valid boxes are returned as a strided view of the last sums (``a``
    itself when w is 1).  Every entry sums as many cells as a box, so none
    wraps where a box would not, and integer sums are exact, so the counts
    do not depend on the order of the adds.
    """
    if w == 1:
        return a
    flat = a.reshape(-1)
    end = flat.size  # the entries of ``flat`` that are computed
    for axis in range(1, a.ndim):
        shift = math.prod(a.shape[axis + 1:])
        powers = [flat]  # powers[j]: the sums of width 2^j, of end - (2^j - 1) shift entries
        while 2 ** len(powers) <= w:
            span = 2 ** (len(powers) - 1) * shift
            count = end - 2 * span + shift
            powers.append(np.empty(flat.size, dtype))
            np.add(powers[-2][:count], powers[-2][span:span + count], out=powers[-1][:count],
                   dtype=dtype)
        flat, end = powers[-1], end - (w - 1) * shift
        offset = 2 ** (len(powers) - 1) * shift
        for j in reversed(range(len(powers) - 1)):
            if w >> j & 1:
                flat[:end] += powers[j][offset:offset + end]
                offset += 2**j * shift
    return flat.reshape(a.shape)[(slice(None),) + tuple(slice(n - w + 1) for n in a.shape[1:])]


def _value_dtype(model: FieldModel) -> type:
    """The field's own dtype: bool for the threshold and iid fields, whose
    rule is a comparison, float64 for the levels field."""
    return np.float64 if isinstance(model, MovingWindowLevels) else bool


def _rule_on_counts(
    model: FieldModel, counts: np.ndarray, d: int, out: np.ndarray = None
) -> np.ndarray:
    """Map window noise counts to field values, written into the array
    ``out`` of the counts' shape when given: float64, or bool for a
    threshold rule."""
    if out is None:
        out = np.empty(counts.shape)
    w_size = (2 * model.window_radius + 1) ** d
    if isinstance(model, MovingWindowLevels):
        steps = model.levels - 1
        np.divide(counts, w_size, out=out)
        out *= steps
        np.rint(out, out=out)  # what np.round does at 0 decimals
        out /= steps
        return out
    # a threshold window, iid being the radius-0 one; counts never exceed w_size,
    # so a larger k_min acts as w_size + 1, which the count dtype holds: the
    # comparison never depends on how numpy casts an out-of-range Python int
    return np.greater_equal(counts, min(model.k_min, w_size + 1), out=out)


def _seeds_per_block(model: FieldModel, cube: LatticeCube) -> int:
    """Seeds sampled together: as many as fit their enlarged noise grids,
    (side + 2m)^d cells each, into _BLOCK_CELLS, and at least one."""
    return max(1, _BLOCK_CELLS // (cube.side + 2 * model.window_radius) ** cube.d)


def _slab_rows(side: int, halo: int, d: int) -> int:
    """First-axis rows per slab of a d-dimensional cube whose rows are
    computed from a grid padded by ``halo`` on every side: as many as fit,
    with their 2 * halo extra rows, into _BLOCK_CELLS, but at least one and
    at least 2 * halo, so that no more than half the rows computed are
    halo; every row when the whole grid fits."""
    return min(side, max(1, 2 * halo, _BLOCK_CELLS // (side + 2 * halo) ** (d - 1) - 2 * halo))


class _Scratch:
    """Two flat uint64 arrays, replaced only by larger ones.  The workspaces
    that run one after another on a block, the sampler's (the stages of the
    site hash, then its noise in the array the hash leaves free) and then
    C_hat's (weights and products), can take their largest arrays from one
    ``_Scratch``, so that every stage of a block works in the same memory,
    still in cache, and none holds its own."""

    def __init__(self):
        self.pair = (np.empty(0, np.uint64),) * 2

    def take(self, first: int, second: int):
        """The two arrays, of at least ``first`` and ``second`` cells (for C_hat,
        a block's products and weights, a single sample being a block of one)."""
        if self.pair[0].size < first or self.pair[1].size < second:
            self.pair = tuple(a if a.size >= n else np.empty(n, np.uint64)
                              for a, n in zip(self.pair, (first, second)))
        return self.pair


class _SamplerWorkspace:
    """What ``sample_fields_batch`` needs for one model and cube: the
    per-cube constants (grid keys, seeds per block, slab rows and count
    dtype), computed once, and ``scratch`` (a ``_Scratch`` of its own unless
    given), whose two arrays every block refills: the site hashes in the
    second and the bool noise in the first, the hash's shift scratch until
    the noise is written, then a threshold rule's bool in the second when
    it is cast into a float64 output.  They are allocated for the first
    block, the largest of a stream, and replaced only by a larger one."""

    def __init__(self, model: FieldModel, cube: LatticeCube, scratch: _Scratch = None):
        m = model.window_radius
        self.model, self.cube = model, cube
        self.keys = _axis_keys([np.arange(-cube.n - m, cube.n + m + 1)] * cube.d)
        self.step = _seeds_per_block(model, cube)
        self.rows = _slab_rows(cube.side, m, cube.d)
        self.slab_cells = (self.rows + 2 * m) * (cube.side + 2 * m) ** (cube.d - 1)
        self.dtype = _count_dtype((2 * m + 1) ** cube.d)
        self.scratch = _Scratch() if scratch is None else scratch


def sample_fields_batch(
    model: FieldModel, cube: LatticeCube, seeds: Sequence[int], out: np.ndarray = None,
    work: _SamplerWorkspace = None,
) -> np.ndarray:
    """Values for many seeds at once, shape (len(seeds),) + cube.shape.

    Seeds are integers taken modulo 2^64, and row r is bit-identical to
    ``sample_field(model, cube, seeds[r]).values``.  The batch is computed
    in blocks of ``_seeds_per_block`` seeds, and a seed whose enlarged grid
    overflows ``_BLOCK_CELLS`` in slabs of first-axis rows that, with their
    2m-row halo, fit it (at least one row); each block's seeds take their
    stage of the hash once, and its slabs the stages of their sites.  Given
    ``out``, a float64 array of that shape or one in the field's own dtype
    (``_value_dtype``), the rows are written into it and it is returned;
    any other raises ShapeError.  ``work``, a ``_SamplerWorkspace`` of this
    model and cube, lends its constants and buffers, so that a stream of
    blocks allocates them once; without it the call builds its own.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        seeds = seeds.astype(np.uint64, copy=False)  # wraps modulo 2^64
    else:
        seeds = np.array([operator.index(s) & (2**64 - 1) for s in seeds], dtype=np.uint64)
    if seeds.ndim != 1:
        raise ShapeError(f"seeds must be one-dimensional, got shape {seeds.shape}")
    m = model.window_radius
    enlarged = (cube.side + 2 * m) ** cube.d
    if seeds.size * enlarged > MAX_CELLS:
        raise CapacityError(
            f"{seeds.size} x {enlarged} noise cells exceed the cap of {MAX_CELLS}"
        )
    shape = seeds.shape + cube.shape
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape
              and out.dtype in (np.float64, _value_dtype(model))):
        raise ShapeError(
            f"out must be a float64 or {np.dtype(_value_dtype(model))} array of shape {shape}"
        )
    if work is None:
        work = _SamplerWorkspace(model, cube)
    elif (work.model, work.cube) != (model, cube):
        raise ShapeError("the sampler workspace belongs to another model or cube")
    step, rows = work.step, work.rows
    # a float64 ``out`` of a threshold field takes the rule's bool in one cast
    cast = out.dtype != _value_dtype(model)
    with _unbuffered_rows(cube.side + 2 * m):  # the stage xor's rows
        for start in range(0, seeds.size, step):
            block = _mix64(seeds[start:start + step] ^ _TAG_NOISE)  # the seeds' stage
            cells = block.size * work.slab_cells
            hashes = work.scratch.take(cells, cells)
            for top in range(0, cube.side, rows):
                slab = [work.keys[0][:, top:top + rows + 2 * m], *work.keys[1:]]
                h = _site_hash(block, slab, hashes)  # in hashes[1], leaving hashes[0] free
                noise = hashes[0].view(bool)[:h.size].reshape(h.shape)
                _noise_from_hash(h, model.theta, noise)
                counts = _valid_box_sums(noise.view(np.uint8), 2 * m + 1, work.dtype)
                values = out[start:start + step, top:top + rows]
                if cast:  # the bool rule into hashes[1], free once the noise is drawn
                    rule = hashes[1].view(bool)[:counts.size].reshape(counts.shape)
                    values[...] = _rule_on_counts(model, counts, cube.d, out=rule)
                else:
                    _rule_on_counts(model, counts, cube.d, out=values)
    return out


def sample_field(model: FieldModel, cube: LatticeCube, seed: int) -> FieldSample:
    """Draw one field realization; deterministic given (model, cube, seed)."""
    values = sample_fields_batch(model, cube, [seed])[0]
    return FieldSample(cube=cube, values=values, model=model, seed=int(seed))


# ---------------------------------------------------------------------------
# Exact moments by enumeration.  The window rules are symmetric in the window
# noise, so two windows that share s of their W noise sites are summarized by
# the shared count a ~ Binomial(s, theta) and g(a) = E[f(a + b)], b ~
# Binomial(W - s, theta) the private count: E X = E g(a), and X_0, X_j are
# independent given a, so cov = Var g(a).  One engine,
# ``_shared_count_moments``, is the only code that knows a model's moments,
# the iid field's included: it computes both for a batch of shared counts (a
# group each); ``model_sigma2`` passes every lag group, ``covariance_at_lag``
# and ``model_mean`` a batch of one.  It checks every group's count table
# against MAX_CELLS before it allocates anything, evaluates the rule once on
# the counts 0..W, and cuts each group's table f(a + b) from one Hankel view of
# that vector.  The Binomial pmf rows are computed a fixed-size chunk of
# groups at a time (``_binomial_rows``, each row the bytes of
# ``_binomial_pmf``), and each group keeps its own matrix-vector product,
# centring and two dots, so the batch gives the bits of one group at a time.
# ---------------------------------------------------------------------------

def _check_tables(shared: Sequence[int], w_size: int) -> None:
    """Raise CapacityError if the count table of a group, (s + 1) x
    (w_size - s + 1) for s shared noise sites, exceeds MAX_CELLS."""
    for s in shared:
        if (s + 1) * (w_size - s + 1) > MAX_CELLS:
            raise CapacityError(
                f"a {s + 1} x {w_size - s + 1} table of window counts exceeds the cap of {MAX_CELLS}"
            )


def _shared_count_moments(model: FieldModel, d: int, shared: Sequence[int]) -> list:
    """(E g(a), Var g(a)) as Python floats for each shared-window count s of
    ``shared``, with a ~ Binomial(s, theta) and g(a) = E[f(a + b)], b ~
    Binomial(W - s, theta); a count table above MAX_CELLS raises
    CapacityError before anything is allocated.  The iid field is one
    Bernoulli(p) site, so its groups are (p, p(1 - p)), p the model's float.

    The groups run in chunks of a fixed number of pairs {t, W - t}, t =
    min(s, W - s) ascending: a pair's two Binomial rows hold at most
    W + W // 2 + 2 entries, since t <= W / 2, and a chunk takes as many pairs
    as fit that into _BLOCK_CELLS // 2 entries (at least one), so the rows
    held at once do not grow with the number of groups.
    """
    w_size = (2 * model.window_radius + 1) ** d
    _check_tables(shared, w_size)
    if isinstance(model, IidBernoulli):
        p = model.p
        return [(p, p * (1.0 - p))] * len(shared)
    rule = _rule_on_counts(model, np.arange(w_size + 1), d)  # f(c), c = 0..W
    moments = dict.fromkeys(shared)  # shared count -> (mean, covariance)
    pairs = sorted({min(s, w_size - s) for s in moments})
    step = max(1, _BLOCK_CELLS // 2 // (w_size + w_size // 2 + 2))
    for first in range(0, len(pairs), step):
        small = pairs[first:first + step]
        large = [w_size - t for t in small]
        pmfs = dict(zip(small, _binomial_rows(small, model.theta)))
        pmfs.update(zip(large, _binomial_rows(large, model.theta)))
        for s in moments.keys() & pmfs.keys():
            pmf_shared = pmfs[s][:s + 1]
            # the table f(a + b), a temporary, so one table is held at a time
            g = _hankel(rule, s + 1, w_size - s + 1).copy() @ pmfs[w_size - s][:w_size - s + 1]
            mean = pmf_shared @ g
            # summed centered, to avoid the cancellation of E[g^2] - mu^2
            # when the covariance is far below mu^2
            centered = g - mean
            moments[s] = (float(mean), float(pmf_shared @ (centered * centered)))
    return [moments[s] for s in shared]


def model_mean(model: FieldModel, d: int = 1) -> float:
    """E X_0 by exhaustive enumeration over one window's noise states.

    The window rules are symmetric in the window noise, so configurations
    are grouped by their noise count (binomial weights); the value is exact.
    It is the moments engine's batch of one group, all W sites shared, so
    the iid field gives float(p).
    """
    _check_d(d)
    return _shared_count_moments(model, d, [(2 * model.window_radius + 1) ** d])[0][0]


def covariance_at_lag(model: FieldModel, lag: Sequence[int]) -> float:
    """cov(X_0, X_j) for lattice lag j, exact by joint-window enumeration.

    The two windows split into shared and private noise sites; grouping
    configurations by the three independent noise counts makes the
    enumeration exact for every supported window size.  Disjoint windows
    (any |lag_k| > 2m) give exactly zero; a count table above MAX_CELLS
    raises CapacityError before it is allocated.  It is the moments
    engine's batch of one group, and gives the bits of that group in
    ``model_sigma2``.
    """
    lag = tuple(integer(v, "lag component") for v in lag)
    d = _check_d(len(lag))
    w = 2 * model.window_radius + 1
    shared = 1
    for v in lag:
        shared *= max(0, w - abs(v))
    if shared == 0:
        return 0.0
    return _shared_count_moments(model, d, [shared])[0][1]


def _lag_groups(w: int, d: int) -> Tuple[list, list]:
    """The lags j in {0..w-1}^d grouped by their shared-window count
    prod_k (w - j_k): each group's count, and the number of signed lags it
    stands for (2 per nonzero component, summed), in the order of each
    count's first lag in ``itertools.product(range(w), repeat=d)``.

    The groups are grown one axis at a time from the groups of the axes
    before, in their order: a lag whose earlier axes give a count seen
    before has all its extensions seen before too, so this keeps the order
    of first lags.  It takes a step per group of the earlier axes and offset
    j of the new axis (100 for the 125 lags of d = 3, m = 2), with no sort.
    """
    groups = {1: 1}  # no axes: the one empty lag, all w^0 = 1 sites shared
    for _ in range(d):
        grown = {}
        for shared, count in groups.items():
            for j in range(w):
                key = shared * (w - j)
                grown[key] = grown.get(key, 0) + (2 * count if j else count)
        groups = grown
    return list(groups), list(groups.values())


def model_sigma2(model: FieldModel, d: int = 1) -> Sigma2Result:
    """sigma^2 = sum of cov(X_0, X_j) over all lags; finite by m-dependence.

    cov(X_0, X_j) depends on j only through the shared-window count
    prod_k (w - |j_k|), so the nonnegative lags are grouped by that count
    (``_lag_groups``), each standing for 2^(nonzero components) signed lags.
    One batch of the moments engine gives every group's covariance, each
    the bits of ``covariance_at_lag`` at the group's first lag, and they are
    summed in group order into a Python float (the iid field, w = 1, is one
    group: p(1 - p)).  Every group's count table is checked against
    MAX_CELLS before anything is allocated: first the group of lag
    (m, 0, ..., 0), whose table fits only when there are at most about 2^14
    lags to group, then all groups.
    """
    m = model.window_radius
    w = 2 * m + 1
    d = _check_d(d)
    _check_tables([(m + 1) * w ** (d - 1)], w**d)
    shared, counts = _lag_groups(w, d)
    total = 0.0
    for (_, cov), count in zip(_shared_count_moments(model, d, shared), counts):
        total += count * cov
    return Sigma2Result(value=total, degenerate=abs(total) < SIGMA2_EPSILON)


# ---------------------------------------------------------------------------
# Serialization: JSON header line + one %.17g value per line (round trips
# doubles exactly).  Sample values repeat (a threshold field holds two), so
# both directions key the body once, a block at a time, and work on a table
# of the block's distinct keys, found without a sort of the block: the probe,
# the sorted distinct keys of an evenly strided sample of at most _PROBED, then
# each key's position in it (_positions: counted without a branch per key in
# a small table, else searchsorted), checked, and the table completed by the
# keys it missed (_index).  Both directions hold one block of temporaries at
# a time.  The saver probes the whole sample once; it keys a
# _BLOCK_CELLS-cell block by its float64 bits, indexes it in the probe's
# table, or by np.unique when the probe found the sample mostly distinct,
# formats each distinct value of the block once and gathers the block's
# lines from a table of one fixed-width element per line, or joins them from
# an object array when the lines differ in width.  The loader reads
# 3 * _BLOCK_CELLS characters at a time; an ASCII block's lines are keyed by
# their bytes, padded with "\n" (_parse_table), and probed, each distinct
# line is parsed once, blank lines are dropped, and the values are gathered
# straight into the cube's one float64 array.  A non-ASCII or mostly distinct
# block is parsed line by line, and a block with a bad line by the filtered
# per-line parse, which skips blank lines and names the first bad one.
# ---------------------------------------------------------------------------

def _plain(value):
    """A numpy scalar, which the validators accept, as its Python value
    (``.item()``), so that JSON writes it as it writes the Python one; any
    other value as it is."""
    return value.item() if isinstance(value, np.generic) else value


def model_to_dict(model: FieldModel) -> dict:
    for kind, cls in _MODEL_TYPES.items():
        if isinstance(model, cls):
            return {"type": kind, **{f.name: _plain(getattr(model, f.name)) for f in fields(cls)}}
    raise ParameterError(f"unknown model {model!r}")


def model_from_dict(data: dict) -> FieldModel:
    """The model of a config or sample header: a missing or wrongly typed
    field raises ConfigError, an unknown type ParameterError."""
    kind = read_field(data, "type", str, "model")
    cls = _MODEL_TYPES.get(kind)
    if cls is None:
        raise ParameterError(f"unknown field model type {kind!r}")
    return cls(*(read_field(data, f.name, _KINDS[f.type], "model",
                            None if f.default is MISSING else f.default)
                 for f in fields(cls)))


#: The most keys that ``_probe`` samples.
_PROBED = 1024


def _sample_step(count: int) -> int:
    """The stride of an evenly strided sample of at most _PROBED of ``count`` keys."""
    return count // _PROBED + 1


def _probe(sample: np.ndarray):
    """The distinct keys of a strided sample, sorted; None when more than
    half the sample is distinct, so that a table of distinct keys would not
    pay."""
    table = np.unique(sample, return_counts=True)[0]  # np.unique(sample) imports numpy.ma
    return None if 2 * table.size > sample.size else table


#: The most table entries that ``_positions`` counts rather than searches.
#: ns/key over 2^16 keys on a 2-core Xeon (numpy 2.4.6), searchsorted
#: against counting.  Keys drawn evenly from the table, uint64 (uint16 in
#: brackets): 2 entries 9.9 (12.0) against 1.1 (0.4), 5 entries 17.4 (21.8)
#: against 2.8 (1.3), 16 entries 35.0 (38.5) against 9.7 (4.2), 64 entries
#: 52.7 (51.0) against 37.4 (12.7), 128 entries 63.0 (60.8) against 79.1
#: (20.9).  The float64 bits of 3-d levels samples: 4 entries 8.3 against
#: 2.8, 25 entries 18.8 against 12.4, 48 entries 25.1 against 22.6, 80
#: entries 29.0 against 36.1.
_COUNTED_ENTRIES = 64


def _positions(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(table, keys)`` for a sorted table of the keys' dtype:
    the number of entries below each key.  A table of at most
    ``_COUNTED_ENTRIES`` is counted, one compare-and-add pass per entry into
    uint8 positions, with no branch per key: a binary search mispredicts
    at nearly every step on keys that repeat at random.  The positions are
    returned as intp, as numpy gathers by intp indices 3-6x faster."""
    if table.size > _COUNTED_ENTRIES:
        return np.searchsorted(table, keys)
    positions = np.zeros(keys.shape, np.uint8)
    above = np.empty(keys.shape, bool)
    for entry in table:
        positions += np.greater(keys, entry, out=above)
    return positions.astype(np.intp)


def _index(keys: np.ndarray, table: np.ndarray):
    """(table, inverse) with table[inverse] == keys, each key in the table
    once: the ``_positions`` of the keys in the sorted ``table``, verified,
    and the keys it lacks added after it in order."""
    inverse = _positions(table, keys)
    missed = table.take(inverse, mode="clip") != keys
    if missed.any():
        extra, where = np.unique(keys[missed], return_inverse=True)
        inverse[missed] = table.size + where
        table = np.concatenate([table, extra])
    return table, inverse


def _line_width(newline: np.ndarray) -> int:
    """The width of every line of a text whose "\n" bytes ``newline`` marks,
    lines that each end in their only "\n", when they all have one; else 0."""
    count = np.count_nonzero(newline)
    width = newline.size // count
    return width if width * count == newline.size and newline[width - 1::width].all() else 0


_UINTS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _bits(values: np.ndarray) -> np.ndarray:
    """The float64 bit patterns of ``values`` as uint64 keys."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _lines(table: np.ndarray):
    """(lines, width): the ``"%.17g"`` line of each float64 bit pattern in
    ``table``, as one fixed-width element per line when all lines share a
    width, else as an object array of the line strings (width 0)."""
    lines = ["%.17g\n" % v for v in table.view(np.float64).tolist()]
    raw = "".join(lines).encode()
    width = _line_width(np.frombuffer(raw, np.uint8) == ord("\n"))
    return (np.frombuffer(raw, _UINTS.get(width, f"V{width}")) if width
            else np.array(lines, object)), width


def save_sample(sample: FieldSample, path) -> None:
    """Write ``sample`` to ``path``, its values as float64 in row-major
    order, one ``"%.17g"`` line each.  Distinct values are keyed by bit
    pattern, so -0.0 stays ``-0``, and formatted once a block.  Each block
    of cells is indexed in the probe's sorted table, completed by the values
    the block adds (``_index``), or by ``np.unique`` when the probe found
    the sample mostly distinct, and its lines are gathered from ``_lines``
    of the block's table.  The header line is built before the file is
    opened, so a header that cannot be written leaves the file alone."""
    header = {
        "d": _plain(sample.cube.d),
        "n": _plain(sample.cube.n),
        "seed": _plain(sample.seed),
        "model": model_to_dict(sample.model),
    }
    line = json.dumps(header, sort_keys=True).encode() + b"\n"
    values = np.asarray(sample.values).reshape(-1)
    probe = _probe(_bits(values[:: _sample_step(values.size)]))
    with open(path, "wb") as fh:
        fh.write(line)
        for start in range(0, values.size, _BLOCK_CELLS):
            keys = _bits(values[start:start + _BLOCK_CELLS])
            table, inverse = (np.unique(keys, return_inverse=True) if probe is None
                              else _index(keys, probe))
            lines, width = _lines(table)
            body = lines[inverse]
            fh.write(body if width else "".join(body).encode())


#: The first k bytes of a little-endian uint64 word, for k = 0..8.
_FIRST_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_NEWLINES = np.uint64(int.from_bytes(b"\n" * 8, "little"))


def _padded_lines(raw: bytes, starts: np.ndarray, lengths: np.ndarray, words: int) -> np.ndarray:
    """The lines raw[start:start + length] padded with "\n" to ``words``
    little-endian uint64 words each, shape (lines, words).  No line holds a
    "\n", so equal rows are equal lines.  ``raw`` must hold 8 * ``words``
    bytes past its last line."""
    offsets = 8 * np.arange(words)
    # row L: the bytes of a line of length L within each of its words
    keep = _FIRST_BYTES[np.clip(np.arange(8 * words + 1)[:, None] - offsets, 0, 8)]
    windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(raw, np.uint8), 8 * words)
    rows = windows[starts].view("<u8")
    rows ^= _NEWLINES
    rows &= keep.take(lengths, axis=0)
    rows ^= _NEWLINES  # the kept bytes back, "\n" past the line end
    return rows


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One uint64 key per row of words: the word itself for one word, else
    a hash of the words, so equal rows have equal keys."""
    keys = rows[:, 0].astype(np.uint64)
    for column in rows[:, 1:].T:
        _mix64(keys)
        keys ^= column
    return keys


def _parse_table(text: str, cut: int):
    """(values, inverse) for the lines of the ASCII text[:cut], whole lines:
    float() of each distinct line, parsed once, and each line's index into
    them, blank and whitespace-only lines dropped; None when the lines look
    mostly distinct, their padded rows would take more than 8 bytes per
    character of text, or a line is not a number.

    Lines are keyed by their bytes: the lines themselves when they share a
    width of 1, 2, 4 or 8 bytes, else a hash of the "\n"-padded rows of
    ``_padded_lines``, checked against the rows.  Finding the lines of a
    mixed-width block costs a few percent of parsing them one by one, so a
    block whose first 64 lines are all distinct goes to that parse at once."""
    head = text[:2048].split("\n", 64)[:-1]
    if len(set(head)) == len(head):
        return None
    raw = text.encode("ascii")
    newline = np.frombuffer(raw, np.uint8, count=cut) == ord("\n")
    width = _line_width(newline)
    if width in _UINTS:
        rows = keys = np.frombuffer(raw, _UINTS[width], count=cut // width)
    else:
        ends = np.flatnonzero(newline)
        starts = np.concatenate([[0], ends[:-1] + 1])
        lengths = ends - starts
        words = max(1, -(-int(lengths.max()) // 8))
        if words * ends.size > cut:
            return None
        rows = _padded_lines(raw[:cut] + b"\n" * (8 * words), starts, lengths, words)
        keys = _row_keys(rows)
    table = _probe(keys[:: _sample_step(keys.size)])
    if table is None:
        return None
    table, inverse = _index(keys, table)
    lines = table  # a fixed-width line is its own key
    if rows.ndim > 1:
        one = np.empty(table.size, np.intp)
        one[inverse] = np.arange(inverse.size)  # a line of each key
        lines = rows[one]
        if rows.shape[1] > 1 and not np.array_equal(lines[inverse], rows):
            return None  # two distinct lines hashed to one key
    lines = lines.tobytes()
    size = len(lines) // table.size
    lines = [lines[i:i + size].partition(b"\n")[0].decode() for i in range(0, len(lines), size)]
    blank = np.array([not line.strip() for line in lines])  # as filter(str.strip, ...) drops
    try:  # parsed as str, as the per-line parse does
        values = np.array([0.0 if skip else float(line) for line, skip in zip(lines, blank)])
    except ValueError:  # a bad line, which the per-line parse names
        return None
    if blank.any():
        inverse = inverse[~blank[inverse]]
    return values, inverse


def _parse_lines(lines) -> np.ndarray:
    """float() of each non-blank line, in order.  A blank or malformed line
    sends the block through the filtered per-line parse, which skips blank
    lines and raises ValueError at the first bad one."""
    try:
        return np.fromiter(map(float, lines), np.float64, count=len(lines))
    except ValueError:
        return np.fromiter(map(float, filter(str.strip, lines)), np.float64)


def _store(out: np.ndarray, count: int, size: int, values: np.ndarray, inverse=None):
    """(out, count + k) once the block of k values ``values[inverse]``
    (``values`` itself when inverse is None) is written into ``out`` at
    ``count``.  ``out`` is doubled, up to ``size`` cells, when the block
    overflows it; a block past the first ``size`` values is only counted."""
    k = values.size if inverse is None else inverse.size
    if count + k <= size:
        if count + k > out.size:
            grown = np.empty(max(count + k, min(size, 2 * out.size)))
            grown[:count] = out[:count]
            out = grown
        if inverse is None:
            out[count:count + k] = values
        else:
            np.take(values, inverse, out=out[count:count + k])
    return out, count + k


def _read_values(fh, out: np.ndarray, size: int):
    """(values, count): the lines left in text file ``fh`` parsed into
    ``out`` (grown by ``_store`` if needed), and how many there are, up to
    ``size`` stored and the rest counted.  The text is read and parsed a
    block at a time; a line cut by a block end joins the next.  An ASCII
    block goes through ``_parse_table``; a non-ASCII block, or one it
    leaves, is parsed line by line."""
    count = 0
    tail = ""
    # a value line takes at least two characters, so a block holds at most
    # 1.5 * _BLOCK_CELLS lines, whose positions, masks and text take about 40
    # bytes a line; 2 * _BLOCK_CELLS characters loaded a sample of 48
    # distinct 20-character lines 12-17% slower, from the fixed work per block
    while text := fh.read(_BLOCK_CELLS * 3):
        text = tail + text
        cut = text.rfind("\n") + 1
        tail = text[cut:]
        parsed = _parse_table(text, cut) if text.isascii() else None
        if parsed is None:
            # split in this loop, so that the list lives until the next block's
            # split: freeing it sooner read all-distinct samples ~2% slower
            lines = text.split("\n")
            lines.pop()  # the tail
            parsed = _parse_lines(lines), None
        out, count = _store(out, count, size, *parsed)
    return _store(out, count, size, _parse_lines([tail]))


def _capacity(fh, size: int) -> int:
    """Cells to allocate for the ``size`` values of an open sample file: all
    of them when it is a regular file with the bytes to hold them, since a
    value line takes a character and a newline (the last one may end the
    file instead), else none, and the values read grow the array."""
    status = os.fstat(fh.fileno())
    return size if stat.S_ISREG(status.st_mode) and status.st_size >= 2 * size - 1 else 0


def load_sample(path) -> FieldSample:
    """The sample saved at ``path``; blank lines are skipped, and in a block
    whose lines repeat each distinct line is parsed once.  The values are
    written a block at a time into one float64 array of the header's cube,
    allocated once the file is seen to have the bytes for it.  A file that
    does not decode, a header that is not a JSON object with the fields d,
    n, seed and model, a value line that is not one number and a wrong value
    count raise ConfigError; every error in the header names the file."""
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
            values, count = _read_values(fh, np.empty(_capacity(fh, cube.size)), cube.size)
        except ValueError as exc:  # a bad value line or an undecodable byte
            raise ConfigError(f"malformed sample file {path}: {exc}") from None
    if count != cube.size:
        raise ConfigError(f"sample file {path} holds {count} values, cube needs {cube.size}")
    return FieldSample(cube=cube, values=values.reshape(cube.shape), model=model, seed=seed)
