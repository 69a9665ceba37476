"""Property tests: a replicate batch equals the corresponding single samples
(field values and C_hat alike, for any integer seeds), a 0/1 field held
as bool gives the bits it gives as float64 (sampled and through C_hat,
and a binary sample's float 0/1 values through variance_estimator),
the sampler's window counts equal site-by-site sums of the noise,
enlarging the cube with the same seed keeps the interior values, samples
round-trip through their file format bit for bit, C_hat ignores a
constant shift and scales by a^2, model_sigma2 equals its per-lag
covariance sum, invert_fraction inverts kill_fraction, and the normal and
Weiss certificates bound the error of the exact tail."""

import decimal
import itertools
import math
import os
import sys
import tempfile
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ntcpfields import dependent_clt, lattice_fields
from ntcpfields.cv_ntcp import (
    invert_fraction,
    kill_fraction,
    ntcp_normal,
    ntcp_weiss_tail,
)
from ntcpfields.dependent_clt import (
    EstimatorConfig,
    _variance_estimator_batch,
    variance_estimator,
)
from ntcpfields.errors import DomainError
from ntcpfields.lattice_fields import (
    FieldSample,
    IidBernoulli,
    LatticeCube,
    MovingWindowLevels,
    MovingWindowThreshold,
    covariance_at_lag,
    load_sample,
    model_sigma2,
    sample_field,
    sample_fields_batch,
    save_sample,
)

# few, fixed examples: these run in Tier-1
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

unit = st.floats(min_value=0.0, max_value=1.0)
unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
radius = st.integers(min_value=0, max_value=2)
models = st.one_of(
    st.builds(IidBernoulli, p=unit),
    st.builds(MovingWindowThreshold, window_radius=radius, theta=unit,
              k_min=st.integers(min_value=0, max_value=30)),
    st.builds(MovingWindowLevels, window_radius=radius, theta=unit,
              levels=st.integers(min_value=2, max_value=9)),
)
binary_models = models.filter(lambda model: not isinstance(model, MovingWindowLevels))
dims = st.integers(min_value=1, max_value=3)
half_widths = st.integers(min_value=0, max_value=5)
# any integer: seeds are taken modulo 2^64, in a batch as for one sample
seed = st.integers(min_value=-2**64, max_value=2**65)
bandwidths = st.integers(min_value=1, max_value=12)


@PROPERTY
@given(model=models, d=dims, n=half_widths,
       seeds=st.lists(seed, min_size=1, max_size=40))
@example(model=MovingWindowThreshold(1, 0.5, 2), d=1, n=3, seeds=[-1])
@example(model=MovingWindowThreshold(1, 0.5, 2), d=2, n=2, seeds=[2**64 + 5, 5])
@example(model=IidBernoulli(0.5), d=1, n=4, seeds=np.array([-1, 2**62], dtype=np.int64))
def test_batch_equals_single(model, d, n, seeds):
    cube = LatticeCube(d=d, n=n)
    batch = sample_fields_batch(model, cube, seeds)
    for row, s in zip(batch, seeds):
        assert np.array_equal(row, sample_field(model, cube, s).values)


@st.composite
def wide_window_models(draw):
    """(model, d): windows of radius 0..8, theta with both ends, and k_min
    up to 300 past the window size."""
    d = draw(dims)
    m = draw(st.integers(min_value=0, max_value=8))
    theta = draw(st.one_of(st.sampled_from([0.0, 1.0]), unit))
    if draw(st.booleans()):
        k_min = draw(st.integers(min_value=0, max_value=(2 * m + 1) ** d + 300))
        return MovingWindowThreshold(m, theta, k_min), d
    return MovingWindowLevels(m, theta, draw(st.integers(min_value=2, max_value=9))), d


@PROPERTY
@given(model_d=wide_window_models(), n=st.integers(min_value=0, max_value=3),
       seeds=st.lists(seed, min_size=1, max_size=3))
@example(model_d=(MovingWindowThreshold(1, 0.9, 256), 3), n=2, seeds=[7])  # uint8 256 is 0
@example(model_d=(MovingWindowThreshold(1, 0.9, 300), 3), n=2, seeds=[7])  # uint8 300 is 44
@example(model_d=(MovingWindowThreshold(8, 0.5, 145), 2), n=3, seeds=[1, 2])  # uint16 counts
@example(model_d=(MovingWindowLevels(5, 0.4, 7), 3), n=1, seeds=[3])
@example(model_d=(MovingWindowThreshold(20, 0.5, 34461), 3), n=0, seeds=[5])  # int32 counts
def test_sampler_matches_brute_force_windows(model_d, n, seeds):
    """Each window count summed site by site from the noise, then the rule."""
    model, d = model_d
    cube = LatticeCube(d=d, n=n)
    w = 2 * model.window_radius + 1
    axes = [np.arange(-n - model.window_radius, n + model.window_radius + 1)] * d
    keys = np.array([s % 2**64 for s in seeds], dtype=np.uint64)
    hashes = lattice_fields._keyed_hash(keys, lattice_fields._axis_keys(axes),
                                        lattice_fields._TAG_NOISE)
    noise = lattice_fields._noise_from_hash(hashes, model.theta).astype(np.int64)
    counts = np.empty((len(seeds),) + cube.shape, dtype=np.int64)
    for site in itertools.product(range(cube.side), repeat=d):
        window = noise[(slice(None),) + tuple(slice(j, j + w) for j in site)]
        counts[(slice(None),) + site] = window.reshape(len(seeds), -1).sum(axis=1)
    expected = lattice_fields._rule_on_counts(model, counts, d)
    assert sample_fields_batch(model, cube, seeds).tobytes() == expected.tobytes()


@st.composite
def box_sum_cases(draw):
    """(padded, top, length, w, dtype): 0/1 uint8 cells of shape (batch,) +
    d sides, batch 1..3 and sides 1..7, of which the box sums take the
    first-axis rows top..top + length, every row or, as C_hat's slab slice
    padded[:, top:top + rows + 2 * b], a window of them; a box width w from
    1 up to the shortest side summed; and a count dtype that holds w^d."""
    d = draw(dims)
    sides = draw(st.lists(st.integers(min_value=1, max_value=7), min_size=d, max_size=d))
    length = draw(st.integers(min_value=1, max_value=sides[0]))
    top = draw(st.integers(min_value=0, max_value=sides[0] - length))
    w = draw(st.integers(min_value=1, max_value=min([length] + sides[1:])))
    dtype = draw(st.sampled_from([t for t in (np.uint8, np.uint16, np.int32)
                                  if np.iinfo(t).max >= w**d]))
    shape = (draw(st.integers(min_value=1, max_value=3)),) + tuple(sides)
    bits = draw(st.lists(st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(bits, np.uint8).reshape(shape), top, length, w, dtype


def random_bits(*shape):
    return np.random.default_rng(sum(shape)).integers(0, 2, shape, np.uint8)


@PROPERTY
@given(case=box_sum_cases())
@example(case=(random_bits(2, 7, 7), 0, 7, 7, np.uint8))  # w = 4 + 2 + 1, the whole side
@example(case=(random_bits(1, 7, 7, 7), 0, 7, 7, np.int32))  # 343 per box
@example(case=(np.ones((1, 1, 1, 1), np.uint8), 0, 1, 1, np.uint8))  # sides of 1
@example(case=(np.ones((3, 7, 5, 5), np.uint8), 2, 5, 5, np.uint16))  # a slab, 125 per box
@example(case=(random_bits(2, 3, 7, 7, 7)[:, 0], 1, 5, 3, np.uint8))  # a strided input
def test_box_sums_match_brute_force(case):
    """The flat doubling sums of every box that fits, summed cell by cell;
    the input is left as it was."""
    padded, top, length, w, dtype = case
    before = padded.copy()
    a = padded[:, top:top + length]
    sums = lattice_fields._valid_box_sums(a, w, dtype)
    assert sums.shape == a.shape[:1] + tuple(n - w + 1 for n in a.shape[1:])
    assert w == 1 or sums.dtype == dtype
    for start in itertools.product(*map(range, sums.shape)):
        box = a[start[:1] + tuple(slice(j, j + w) for j in start[1:])]
        assert sums[start] == box.sum(dtype=np.int64), start
    assert np.array_equal(padded, before)


@PROPERTY
@given(model=models, d=dims, n=half_widths,
       seeds=st.lists(seed, min_size=1, max_size=8), b=bandwidths)
def test_chat_batch_equals_single(model, d, n, seeds, b):
    cube = LatticeCube(d=d, n=n)
    rows = _variance_estimator_batch(sample_fields_batch(model, cube, seeds), d, b)
    config = EstimatorConfig(bandwidth=b)
    assert rows.tolist() == [
        variance_estimator(sample_field(model, cube, s), config) for s in seeds
    ]


@PROPERTY
@given(d=dims, side=st.integers(min_value=1, max_value=9), b=bandwidths,
       batch=st.integers(min_value=1, max_value=3), p=unit, s=seed)
@example(d=1, side=1, b=1, batch=1, p=0.5, s=0)
@example(d=3, side=9, b=12, batch=2, p=0.5, s=1)  # b >= side: every window is the axis
@example(d=3, side=9, b=4, batch=1, p=0.9, s=2)  # 729-site windows: uint16 counts
@example(d=2, side=9, b=3, batch=3, p=0.3, s=3)
def test_chat_on_bool_equals_float(d, side, b, batch, p, s):
    """A 0/1 field as bool takes the exact integer window sums, bit for bit
    the float64 result."""
    bits = np.random.default_rng(s % 2**64).random((batch,) + (side,) * d) < p
    exact = _variance_estimator_batch(bits, d, b)
    assert exact.tobytes() == _variance_estimator_batch(bits.astype(np.float64), d, b).tobytes()


@PROPERTY
@given(model=binary_models, d=dims, n=st.integers(min_value=0, max_value=4), b=bandwidths,
       p=unit, s=seed, half=st.booleans())
@example(model=IidBernoulli(0.5), d=1, n=0, b=1, p=0.5, s=0, half=False)
@example(model=IidBernoulli(0.5), d=3, n=4, b=12, p=0.5, s=1, half=False)
@example(model=MovingWindowThreshold(1, 0.9, 14), d=3, n=4, b=4, p=0.9, s=2, half=False)
@example(model=MovingWindowThreshold(1, 0.5, 14), d=3, n=4, b=4, p=0.5, s=3, half=True)
def test_binary_sample_chat_equals_float_batch(model, d, n, b, p, s, half):
    """A binary model's float 0/1 values take the exact integer window sums
    in variance_estimator, bit for bit the float64 batch; one value of 0.5
    sends the sample down the float path."""
    cube = LatticeCube(d=d, n=n)
    values = (np.random.default_rng(s % 2**64).random(cube.shape) < p).astype(np.float64)
    if half:
        values.flat[s % values.size] = 0.5
    sample = FieldSample(cube, values, model, 0)
    with mock.patch.object(dependent_clt, "_exact_window_sums",
                           wraps=dependent_clt._exact_window_sums) as exact:
        chat = variance_estimator(sample, EstimatorConfig(bandwidth=b))
    assert exact.called != half
    assert chat.hex() == float(_variance_estimator_batch(values, d, b)).hex()


@PROPERTY
@given(model=binary_models, d=dims, n=half_widths,
       seeds=st.lists(seed, min_size=1, max_size=8))
def test_sampler_into_bool_equals_float(model, d, n, seeds):
    cube = LatticeCube(d=d, n=n)
    out = np.empty((len(seeds),) + cube.shape, dtype=bool)
    assert sample_fields_batch(model, cube, seeds, out) is out
    assert np.array_equal(out, sample_fields_batch(model, cube, seeds).astype(bool))


@PROPERTY
@given(model=models, d=dims, n=half_widths,
       grow=st.integers(min_value=1, max_value=4), s=seed)
def test_nested_cube_interior_agrees(model, d, n, grow, s):
    small = sample_field(model, LatticeCube(d=d, n=n), s).values
    big = sample_field(model, LatticeCube(d=d, n=n + grow), s).values
    interior = (slice(grow, grow + 2 * n + 1),) * d
    assert np.array_equal(big[interior], small)


@PROPERTY
@given(model=models, d=dims, n=half_widths, s=seed, b=bandwidths,
       c=st.floats(min_value=-1e3, max_value=1e3))
def test_chat_ignores_constant_shift(model, d, n, s, b, c):
    values = sample_field(model, LatticeCube(d=d, n=n), s).values
    shifted = _variance_estimator_batch(values + c, d, b)
    # the window sums round relative to their magnitude, about |U| (1 + |c|);
    # over 3000 random examples the error stayed below 0.16 eps |U| (1 + |c|)
    tolerance = 4 * np.finfo(np.float64).eps * values.size * (1.0 + abs(c))
    assert abs(shifted - _variance_estimator_batch(values, d, b)) <= tolerance


@PROPERTY
@given(model=models, d=dims, n=half_widths, s=seed, b=bandwidths,
       k=st.integers(min_value=-30, max_value=30))
def test_chat_scales_by_power_of_four(model, d, n, s, b, k):
    # scaling by 2^k is exact, so C_hat(2^k X) = 4^k C_hat(X) bit for bit
    values = sample_field(model, LatticeCube(d=d, n=n), s).values
    scaled = _variance_estimator_batch(values * 2.0**k, d, b)
    assert scaled == 4.0**k * _variance_estimator_batch(values, d, b)


@st.composite
def window_models(draw):
    d = draw(dims)
    m = draw(radius)
    theta = draw(unit)
    if draw(st.booleans()):
        k_min = draw(st.integers(min_value=0, max_value=(2 * m + 1) ** d + 1))
        return MovingWindowThreshold(window_radius=m, theta=theta, k_min=k_min), d
    return MovingWindowLevels(window_radius=m, theta=theta,
                              levels=draw(st.integers(min_value=2, max_value=9))), d


@PROPERTY
@given(model_d=window_models())
def test_sigma2_equals_per_lag_sum(model_d):
    model, d = model_d
    m = model.window_radius
    terms = [covariance_at_lag(model, lag)
             for lag in itertools.product(range(-2 * m, 2 * m + 1), repeat=d)]
    # both sides sum the same covariances in a different order
    tolerance = 1e-12 * sum(abs(t) for t in terms)
    assert abs(model_sigma2(model, d).value - sum(terms)) <= tolerance


@PROPERTY
@given(model=models, d=dims, n=half_widths, s=seed)
def test_save_load_round_trip(model, d, n, s):
    sample = sample_field(model, LatticeCube(d=d, n=n), s)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sample.dat")
        save_sample(sample, path)
        loaded = load_sample(path)
    assert (loaded.cube, loaded.model, loaded.seed) == (sample.cube, sample.model, s)
    assert loaded.values.dtype == sample.values.dtype
    assert loaded.values.tobytes() == sample.values.tobytes()


@PROPERTY
@given(kappa=unit_open, c=st.floats(min_value=0.0, max_value=100.0))
@example(kappa=1e-6, c=1.0)
@example(kappa=1e-10, c=1.0)
@example(kappa=0.9, c=1e153)  # p near 8e-307, still a normal float
@example(kappa=0.5, c=1e160)  # c * c overflows; p near 2.5e-321
@example(kappa=0.5, c=1e200)
def test_invert_fraction_round_trip(kappa, c):
    try:
        p = invert_fraction(kappa, c)
    except DomainError:
        # only where the exact root lies below the normal float range
        assert exact_smaller_root(kappa, c) < sys.float_info.min
        return
    assert 0.0 < p <= kappa
    assert abs(kill_fraction(p, c) - kappa) <= 1e-15


def exact_smaller_root(kappa, c):
    """kappa^2 / (kappa + c^2/2 + c sqrt(kappa(1 - kappa) + c^2/4)) in
    60-digit decimal arithmetic, whose exponent range holds any root."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        k, c = decimal.Decimal(kappa), decimal.Decimal(c)
        return k * k / (k + c * c / 2 + c * (k * (1 - k) + c * c / 4).sqrt())


@PROPERTY
@given(n=st.integers(min_value=1, max_value=2000), p=unit_open)
def test_normal_certificate_bounds_exact_tail(n, p):
    exact = stats.binom.sf(np.arange(-1, n + 1), n, p)  # P(S_n >= L), L = 0..n+1
    for threshold, tail in enumerate(exact):
        res = ntcp_normal(n, p, threshold)
        assert abs(res.value - tail) <= res.error_bound


@PROPERTY
@given(p=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
       extra=st.integers(min_value=0, max_value=3000))
def test_weiss_certificate_bounds_exact_tail(p, extra):
    n = math.ceil(25.0 / (p * (1.0 - p))) + extra  # sigma >= 5, n at most ~28k
    assume(math.sqrt(n * p * (1.0 - p)) >= 5.0)
    exact = stats.binom.sf(np.arange(-1, n + 1), n, p)
    for threshold, tail in enumerate(exact):
        res = ntcp_weiss_tail(n, p, threshold)
        assert abs(res.value - tail) <= res.error_bound
