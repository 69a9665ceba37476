import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy import special

from ntcpfields import dependent_clt, lattice_fields
from ntcpfields.dependent_clt import (
    EstimatorConfig,
    _ChatWorkspace,
    _carried_window_sums,
    _checked,
    _replicate_batches,
    _variance_estimator_batch,
    confidence_interval,
    default_bandwidth,
    ntcp_estimate,
    partial_sum,
    self_normalized_statistic,
    variance_estimator,
    variance_gap,
)
from ntcpfields.errors import DegenerateError, DomainError, ShapeError
from ntcpfields.experiment import ExperimentConfig, report_to_csv, run_clt_experiment
from ntcpfields.lattice_fields import (
    FieldSample,
    IidBernoulli,
    LatticeCube,
    MovingWindowLevels,
    MovingWindowThreshold,
    covariance_at_lag,
    load_sample,
    sample_field,
    sample_fields_batch,
    save_sample,
)

MAJORITY = MovingWindowThreshold(window_radius=1, theta=0.5, k_min=2)
LEVELS4 = MovingWindowLevels(window_radius=1, theta=0.4, levels=4)


# float.hex of C_hat from variance_estimator on sample_field(model, cube,
# 123), and of the two _variance_estimator_batch rows over the seeds
# derive_seeds(7, n, [0, 1]), on cubes of half-width CHAT_PIN_N[d], so that
# no rewrite of C_hat moves a bit.  "majority" is the majority rule of the
# d-dimensional window: MAJORITY at d = 1 (its k_min = 2 is almost surely
# reached by a 27-site window, so it would pin only zeros in 3-d)
CHAT_PIN_N = {1: 40, 2: 12, 3: 5}
CHAT_PINS = {
    (1, "majority", 1): ("0x1.d5583b363158ep-2", "0x1.fcb8b36669ed4p-2", "0x1.cbac821c11b6ap-2"),
    (1, "majority", 3): ("0x1.1324994879841p-1", "0x1.10b76d5934ce8p-1", "0x1.6aab5067cb7a8p-1"),
    (1, "levels7", 1): ("0x1.784860a733239p-3", "0x1.dd6dfe3484d1cp-3", "0x1.4152d5038a1f9p-3"),
    (1, "levels7", 3): ("0x1.073baabf2378bp-2", "0x1.14b04e2df8ff4p-2", "0x1.e40c560d4d00ep-3"),
    (1, "iid", 1): ("0x1.ee7c6bb060988p-3", "0x1.0ca0079190b67p-2", "0x1.9b2be941ee988p-3"),
    (1, "iid", 3): ("0x1.e8e51cd7458a6p-3", "0x1.fc00294ecf8ebp-3", "0x1.a0bc21528412ep-3"),
    (2, "majority", 1): ("0x1.8de1385eb9c95p-1", "0x1.b6cb6a6f12ccbp-1", "0x1.f606f08442d6cp-1"),
    (2, "majority", 3): ("0x1.b9c09af3e0083p-1", "0x1.52440c4ec5b9bp+0", "0x1.060348ef05d86p+1"),
    (2, "levels7", 1): ("0x1.07c72a7abef4dp-3", "0x1.d9d208c83a293p-4", "0x1.eb77ce723066ap-4"),
    (2, "levels7", 3): ("0x1.769a5fd1b6f56p-3", "0x1.3d1038367f495p-3", "0x1.57a119d9d511dp-3"),
    (2, "iid", 1): ("0x1.c479a5a089f76p-3", "0x1.880d1e2a7d0d9p-3", "0x1.cebafe382ffc0p-3"),
    (2, "iid", 3): ("0x1.bd0b1cc15b720p-3", "0x1.a9da58cb27112p-3", "0x1.b2914a4d7c518p-3"),
    (3, "majority", 1): ("0x1.3615f9e3f4553p+0", "0x1.9370d74408011p+0", "0x1.731fdd694bf35p+0"),
    (3, "majority", 3): ("0x1.6f939b2ccdd45p+0", "0x1.1df38a422de00p+1", "0x1.3a9f2eba3f888p+1"),
    (3, "levels7", 1): ("0x1.0a29fb0496178p-4", "0x1.27aa825f355b6p-4", "0x1.b38641e4f906cp-5"),
    (3, "levels7", 3): ("0x1.d58b221862b8ap-4", "0x1.29b63a53e68cdp-4", "0x1.c6a27833e4dd8p-5"),
    (3, "iid", 1): ("0x1.d989005ac4f01p-3", "0x1.c86b05bf6c1bap-3", "0x1.91ef57fa3c407p-3"),
    (3, "iid", 3): ("0x1.bedafed663f01p-3", "0x1.d750aa59ff9a1p-4", "0x1.535a2d13782bbp-3"),
}


# float.hex of C_hat at the default bandwidth (4) on the 3-d n = 35
# threshold sample at seed 201, the one large cube of CLI simulate and
# estimate; pinned from the float cumsum path its 0/1 values no longer take
LARGE_CHAT = "0x1.96fbb2b1c2f55p+1"
# the same for the LEVELS4 sample of that cube and seed, taken from the
# whole-array float path that the slab loop replaced
LARGE_LEVELS_CHAT = "0x1.2b1ebc2ef2a7ep-3"


def chat_pin_model(name, d):
    if name == "majority":
        return MovingWindowThreshold(window_radius=1, theta=0.5, k_min=(3**d + 1) // 2)
    if name == "levels7":
        return MovingWindowLevels(window_radius=1, theta=0.37, levels=7)
    return IidBernoulli(p=0.3)



def make_sample(values, d=None):
    values = np.asarray(values, dtype=np.float64)
    d = d if d is not None else values.ndim
    n = (values.shape[0] - 1) // 2
    return FieldSample(
        cube=LatticeCube(d=d, n=n), values=values, model=IidBernoulli(p=0.5), seed=0
    )


def chat_brute_force(values, b):
    """Direct double loop over block centers; independent of the cumsum path."""
    shape = values.shape
    size = values.size
    global_mean = values.sum() / size
    total = 0.0
    for j in np.ndindex(*shape):
        slices = tuple(
            slice(max(0, c - b), min(s, c + b + 1)) for c, s in zip(j, shape)
        )
        block = values[slices]
        total += block.size * (block.sum() / block.size - global_mean) ** 2
    return total / size


def clipped_window_sum_brute_force(values, b, axis):
    """Sum over [i-b, i+b] clipped to the array, index by index."""
    moved = np.moveaxis(values, axis, -1)
    out = np.empty_like(moved)
    size = moved.shape[-1]
    for i in range(size):
        out[..., i] = moved[..., max(0, i - b):min(size, i + b + 1)].sum(axis=-1)
    return np.moveaxis(out, -1, axis)


class TestPartialSum:
    def test_zero_field(self):
        assert partial_sum(make_sample(np.zeros((7, 7)))) == 0.0

    def test_full_cube_of_ones(self):
        assert partial_sum(make_sample(np.ones((7, 7)))) == 49.0

    def test_additivity_over_disjoint_masks(self):
        sample = sample_field(MAJORITY, LatticeCube(d=2, n=4), 3)
        mask_a = np.zeros(sample.cube.shape, dtype=bool)
        mask_b = np.zeros(sample.cube.shape, dtype=bool)
        mask_a[:4] = True
        mask_b[4:] = True
        assert partial_sum(sample, mask_a) + partial_sum(sample, mask_b) == \
            pytest.approx(partial_sum(sample))

    def test_point_region(self):
        sample = make_sample(np.arange(25, dtype=float).reshape(5, 5))
        assert partial_sum(sample, [(-2, -2), (2, 2)]) == 0.0 + 24.0

    def test_point_outside_cube(self):
        sample = make_sample(np.zeros((5, 5)))
        with pytest.raises(ShapeError):
            partial_sum(sample, [(3, 0)])

    @pytest.mark.parametrize("region", [np.array([0, 1, 0, 1, 1]), [0], [np.int64(2)]],
                             ids=["integer_mask", "bare_int", "bare_numpy_int"])
    def test_point_that_is_not_a_tuple(self, region):
        with pytest.raises(ShapeError, match="not a tuple of coordinates"):
            partial_sum(make_sample(np.zeros(5)), region)


class TestBandwidth:
    @pytest.mark.parametrize("n,expected", [(1, 1), (8, 2), (27, 3), (1000, 10), (2, 1)])
    def test_default_bandwidth(self, n, expected):
        assert default_bandwidth(n) == expected

    def test_schedule_exponent(self):
        config = EstimatorConfig(eta=0.5)
        assert config.bandwidth_for(100) == 10
        assert config.bandwidth_for(101) == 11

    def test_explicit_bandwidth_wins(self):
        assert EstimatorConfig(bandwidth=7).bandwidth_for(1000) == 7

    def test_invalid_config(self):
        with pytest.raises(DomainError):
            EstimatorConfig(bandwidth=0)
        with pytest.raises(DomainError):
            EstimatorConfig(eta=1.0)


class TestVarianceEstimator:
    def test_workspace_shares_the_sampler_scratch(self):
        # two blocks, the second smaller; C_hat's deviations and weights
        # overwrite the sampler's hashes, and the next block's hashes them
        cube, b = LatticeCube(d=2, n=6), 2
        scratch = lattice_fields._Scratch()
        work = _ChatWorkspace(2, cube.side, b, scratch)
        for _, values, sums in _replicate_batches(MAJORITY, cube, 300, 1, scratch):
            rows = _variance_estimator_batch(values, 2, b, sums, work)
            assert rows.tobytes() == _variance_estimator_batch(values, 2, b).tobytes()
        with pytest.raises(ShapeError):
            _variance_estimator_batch(values, 2, b + 1, sums, work)

    def test_constant_field_gives_zero(self):
        sample = make_sample(np.full((9, 9), 0.7))
        assert variance_estimator(sample, EstimatorConfig(bandwidth=2)) == \
            pytest.approx(0.0, abs=1e-15)

    def test_full_window_bandwidth_gives_zero(self):
        sample = sample_field(MAJORITY, LatticeCube(d=1, n=5), 1)
        assert variance_estimator(sample, EstimatorConfig(bandwidth=10)) == \
            pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d,n,b", [(1, 8, 2), (2, 4, 1), (2, 5, 2), (3, 2, 1)])
    def test_matches_brute_force(self, d, n, b, seed):
        sample = sample_field(MAJORITY, LatticeCube(d=d, n=n), seed)
        fast = variance_estimator(sample, EstimatorConfig(bandwidth=b))
        assert fast == pytest.approx(chat_brute_force(sample.values, b), abs=1e-12)

    def test_shift_invariance(self):
        sample = sample_field(MAJORITY, LatticeCube(d=2, n=6), 5)
        shifted = make_sample(sample.values + 3.25)
        config = EstimatorConfig(bandwidth=2)
        assert variance_estimator(shifted, config) == \
            pytest.approx(variance_estimator(sample, config), abs=1e-12)

    def test_scale_equivariance(self):
        sample = sample_field(MAJORITY, LatticeCube(d=2, n=6), 5)
        scaled = make_sample(2.5 * sample.values)
        config = EstimatorConfig(bandwidth=2)
        assert variance_estimator(scaled, config) == \
            pytest.approx(2.5**2 * variance_estimator(sample, config), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        values = np.zeros((5, 5))
        values[2, 3] = bad
        with pytest.raises(DomainError, match="non-finite"):
            variance_estimator(make_sample(values), EstimatorConfig(bandwidth=1))

    def test_nonnegative(self):
        for seed in range(20):
            sample = sample_field(IidBernoulli(p=0.2), LatticeCube(d=1, n=30), seed)
            assert variance_estimator(sample, EstimatorConfig()) >= 0.0

    @pytest.mark.parametrize(
        "side,b",
        [(1, 1), (1, 3), (2, 1), (2, 2), (2, 4), (5, 1), (5, 2), (5, 4), (5, 5),
         (5, 7), (9, 1), (9, 3), (9, 8), (9, 9), (9, 11)],
    )
    @pytest.mark.parametrize("in_place", [False, True], ids=["fresh_out", "in_place"])
    def test_carried_window_sums_vs_brute_force(self, side, b, in_place):
        # one slab covering the axis, as a float slab's other axes take it;
        # covers b = side - 1 and b >= side; side 1 is the n = 0 cube, where
        # every b clips to the single site.  Small integers keep every sum
        # exact, so the comparison is exact.
        values = np.random.default_rng(side).integers(-9, 10, size=(3, side, side))
        values = values.astype(np.float64)
        for axis in (1, 2):
            given = values.copy()
            out = given if in_place else np.empty(values.shape)
            _carried_window_sums(given, axis, b, 0, side, np.empty(values.shape), out)
            assert np.array_equal(out, clipped_window_sum_brute_force(values, b, axis))

    @pytest.mark.parametrize("d,n,b", [(1, 40, 3), (1, 200, 6), (2, 9, 2), (3, 4, 2), (3, 0, 1)])
    def test_batch_rows_equal_single_estimates(self, d, n, b):
        model = MovingWindowLevels(window_radius=1, theta=0.4, levels=5)
        cube = LatticeCube(d=d, n=n)
        seeds = list(range(12))
        rows = _variance_estimator_batch(sample_fields_batch(model, cube, seeds), d, b)
        config = EstimatorConfig(bandwidth=b)
        singles = [variance_estimator(sample_field(model, cube, s), config) for s in seeds]
        assert rows.tolist() == singles

    @pytest.mark.parametrize("d, name, b", sorted(CHAT_PINS))
    def test_chat_bits_pinned(self, d, name, b):
        model, cube = chat_pin_model(name, d), LatticeCube(d=d, n=CHAT_PIN_N[d])
        single = variance_estimator(sample_field(model, cube, 123), EstimatorConfig(bandwidth=b))
        seeds = lattice_fields.derive_seeds(7, cube.n, np.arange(2))
        rows = _variance_estimator_batch(sample_fields_batch(model, cube, seeds), d, b)
        assert (single.hex(), *map(float.hex, rows)) == CHAT_PINS[(d, name, b)]

    def test_large_binary_chat_pinned(self, tmp_path):
        sample = sample_field(MovingWindowThreshold(window_radius=1, theta=0.5, k_min=14),
                              LatticeCube(d=3, n=35), 201)
        path = tmp_path / "sample.dat"
        save_sample(sample, path)
        # the same values under a levels model take the float path
        as_levels = FieldSample(sample.cube, sample.values, LEVELS4, sample.seed)
        chats = [variance_estimator(s, EstimatorConfig()).hex()
                 for s in (sample, load_sample(path), as_levels)]
        assert chats == [LARGE_CHAT] * 3

    def test_large_binary_chat_temporaries_stay_slab_sized(self):
        # the window sums, counts and weights of the 71^3 threshold sample
        # go a slab of rows at a time into one float64 array of weights
        sample = sample_field(MovingWindowThreshold(window_radius=1, theta=0.5, k_min=14),
                              LatticeCube(d=3, n=35), 201)
        tracemalloc.start()
        try:
            chat = variance_estimator(sample, EstimatorConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sample.values.nbytes + 48 * lattice_fields._BLOCK_CELLS
        assert chat.hex() == LARGE_CHAT

    def test_large_levels_chat_temporaries_stay_slab_sized(self):
        # float values take the first axis's cumsum a slab at a time, carried
        # from the slab before, into the same single array of weights
        sample = sample_field(LEVELS4, LatticeCube(d=3, n=35), 201)
        tracemalloc.start()
        try:
            chat = variance_estimator(sample, EstimatorConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sample.values.nbytes + 48 * lattice_fields._BLOCK_CELLS
        assert chat.hex() == LARGE_LEVELS_CHAT

    def test_large_levels_chat_other_axes_run_in_place(self):
        # the second and third axes' window sums overwrite the slab's
        # deviations, their cumsum in the slab of products, so no axis
        # allocates a slab-sized array of its own
        sample = sample_field(LEVELS4, LatticeCube(d=3, n=35), 201)
        tracemalloc.start()
        try:
            chat = variance_estimator(sample, EstimatorConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sample.values.nbytes + 32 * lattice_fields._BLOCK_CELLS
        assert chat.hex() == LARGE_LEVELS_CHAT

    @pytest.mark.parametrize("block_cells", [1, 64, 1000])
    @pytest.mark.parametrize("d, n, b", [(1, 40, 3), (2, 12, 1), (2, 12, 3), (3, 5, 2), (3, 5, 7)])
    def test_float_chat_slabs_give_the_same_bits(self, monkeypatch, block_cells, d, n, b):
        cube, config = LatticeCube(d=d, n=n), EstimatorConfig(bandwidth=b)
        sample = sample_field(chat_pin_model("levels7", d), cube, 123)
        seeds = lattice_fields.derive_seeds(7, n, np.arange(3))
        values = sample_fields_batch(sample.model, cube, seeds)
        whole = variance_estimator(sample, config), _variance_estimator_batch(values, d, b)
        monkeypatch.setattr(lattice_fields, "_BLOCK_CELLS", block_cells)
        assert variance_estimator(sample, config).hex() == whole[0].hex()
        assert _variance_estimator_batch(values, d, b).tobytes() == whole[1].tobytes()

    @pytest.mark.parametrize("block_cells", [1, 64, 1000])
    @pytest.mark.parametrize("d, n, b", [(1, 40, 3), (2, 12, 1), (2, 12, 3), (3, 5, 2), (3, 5, 7)])
    def test_binary_chat_slabs_give_the_same_bits(self, monkeypatch, block_cells, d, n, b):
        cube, config = LatticeCube(d=d, n=n), EstimatorConfig(bandwidth=b)
        sample = sample_field(chat_pin_model("majority", d), cube, 123)
        whole = variance_estimator(sample, config)
        monkeypatch.setattr(lattice_fields, "_BLOCK_CELLS", block_cells)
        assert variance_estimator(sample, config).hex() == whole.hex()

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
    @pytest.mark.parametrize("model", [MAJORITY, IidBernoulli(p=0.3), LEVELS4],
                             ids=["majority", "iid", "levels"])
    @pytest.mark.parametrize("high", [2, 4], ids=["zero_one", "zero_to_three"])
    def test_integer_values_give_float64_bits(self, model, dtype, high):
        values = np.random.default_rng(high).integers(0, high, size=(9, 9, 9))
        cube, config = LatticeCube(d=3, n=4), EstimatorConfig(bandwidth=2)
        ints = FieldSample(cube, values.astype(dtype), model, 0)
        floats = FieldSample(cube, values.astype(np.float64), model, 0)
        assert variance_estimator(ints, config).hex() == variance_estimator(floats, config).hex()
        assert confidence_interval(ints, 0.9, config) == confidence_interval(floats, 0.9, config)
        assert ntcp_estimate(ints, 400.0, 0.5, config) == ntcp_estimate(floats, 400.0, 0.5, config)
        assert (self_normalized_statistic(ints, 0.5, config)
                == self_normalized_statistic(floats, 0.5, config))

    def test_iid_mean_near_pq(self):
        values = sample_fields_batch(IidBernoulli(p=0.3), LatticeCube(d=1, n=200), range(100))
        from ntcpfields.dependent_clt import _variance_estimator_batch

        chats = _variance_estimator_batch(values, 1, default_bandwidth(200))
        assert abs(chats.mean() - 0.21) < 0.02


class TestSelfNormalizedStatistic:
    def test_true_sigma_value(self):
        sample = make_sample(np.array([1.0, 0.0, 1.0, 1.0, 0.0]))
        stat = self_normalized_statistic(sample, 0.5, mode="true_sigma", sigma2=0.25)
        assert stat.value == pytest.approx((3 - 2.5) / math.sqrt(0.25 * 5))
        assert stat.normalization == "true_sigma"

    def test_degenerate_estimated(self):
        sample = make_sample(np.ones(9))
        with pytest.raises(DegenerateError):
            self_normalized_statistic(sample, 0.5, EstimatorConfig(bandwidth=2))

    def test_antisymmetry(self):
        sample = sample_field(MAJORITY, LatticeCube(d=1, n=50), 11)
        mean = 0.5
        flipped = make_sample(2 * mean - sample.values)
        config = EstimatorConfig(bandwidth=3)
        a = self_normalized_statistic(sample, mean, config)
        b = self_normalized_statistic(flipped, mean, config)
        assert b.value == pytest.approx(-a.value, abs=1e-12)
        assert b.variance == pytest.approx(a.variance, abs=1e-12)

    def test_unknown_mode(self):
        sample = make_sample(np.zeros(5))
        with pytest.raises(DomainError):
            self_normalized_statistic(sample, 0.0, mode="bogus")


class TestConfidenceInterval:
    def test_contains_sample_mean(self):
        sample = sample_field(MAJORITY, LatticeCube(d=1, n=100), 4)
        lo, hi = confidence_interval(sample, 0.95)
        mean = partial_sum(sample) / sample.cube.size
        assert lo < mean < hi

    def test_half_width_formula(self):
        sample = sample_field(MAJORITY, LatticeCube(d=1, n=100), 4)
        config = EstimatorConfig(bandwidth=4)
        lo, hi = confidence_interval(sample, 0.95, config)
        c_hat = variance_estimator(sample, config)
        half = special.ndtri(0.975) * math.sqrt(c_hat / sample.cube.size)
        assert hi - lo == pytest.approx(2 * half, abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            confidence_interval(make_sample(np.ones(9)), 0.95, EstimatorConfig(bandwidth=2))

    def test_level_domain(self):
        sample = sample_field(MAJORITY, LatticeCube(d=1, n=10), 0)
        with pytest.raises(DomainError):
            confidence_interval(sample, 1.0)


class TestNtcpEstimate:
    def test_centered_threshold_is_half(self):
        sample = sample_field(MAJORITY, LatticeCube(d=1, n=50), 8)
        mean = 0.5
        assert ntcp_estimate(sample, sample.cube.size * mean, mean) == pytest.approx(0.5)

    def test_decreasing_in_x(self):
        sample = sample_field(MAJORITY, LatticeCube(d=1, n=50), 8)
        xs = [20.0, 40.0, 60.0, 80.0]
        est = [ntcp_estimate(sample, x, 0.5) for x in xs]
        assert all(a > b for a, b in zip(est, est[1:]))

    def test_iid_reduction_matches_classic(self):
        from ntcpfields.cv_ntcp import ntcp_normal

        model = IidBernoulli(p=0.3)
        cube = LatticeCube(d=1, n=400)
        x = cube.size * 0.3 + 10
        classic = ntcp_normal(cube.size, 0.3, x).value
        ests = [
            ntcp_estimate(sample_field(model, cube, seed), x, 0.3)
            for seed in range(30)
        ]
        assert np.mean(ests) == pytest.approx(classic, abs=0.05)


class TestVarianceGap:
    def test_iid_gap_small(self):
        pts = variance_gap(IidBernoulli(p=0.3), 1, [32], 4000, master_seed=1)
        se = 0.21 * math.sqrt(2 / 4000)
        assert pts[0].gap <= 4 * se

    def test_single_site_gap(self):
        # n=0: Var(S)/1 = cov(X0, X0); gap -> sum over other lags
        pts = variance_gap(MAJORITY, 1, [0], 100000, master_seed=2)
        expected = sum(
            covariance_at_lag(MAJORITY, (j,)) for j in range(-2, 3) if j != 0
        )
        assert pts[0].gap == pytest.approx(expected, abs=0.01)

    def test_degenerate_model_flagged(self):
        frozen = MovingWindowThreshold(window_radius=1, theta=0.0, k_min=1)
        with pytest.raises(DegenerateError):
            variance_gap(frozen, 1, [8], 100)

    def test_envelope_label(self):
        pts = variance_gap(MAJORITY, 1, [8, 16], 100, master_seed=3)
        assert all(p.envelope == "n^-1" for p in pts)


class TestBlockIndependence:
    """Campaign reports and variance-gap points do not depend on how the
    replicates are blocked: the pinned bytes hold for blocks of 64 noise
    cells up to 2^24."""

    REPORT_SHA256 = {
        1: "5021b0c1ec27abd614b4866976707b6ba62ce1a1d747f9f17f380b1356ae6d3f",
        2: "57fd03df401ed22e5675ea15c6ff7eb4f033d26070aeb49f580edcf15d67efc8",
    }
    GAPS = ["0x1.1d0f5e4c6b810p-7", "0x1.bb0b578ad6060p-7", "0x1.4d2533c512680p-10"]

    @pytest.mark.parametrize("block_cells", [64, 1 << 16, 1 << 24])
    @pytest.mark.parametrize("d, n_schedule", [(1, (8, 16, 64)), (2, (3, 5, 9))])
    def test_report_bytes(self, monkeypatch, block_cells, d, n_schedule):
        monkeypatch.setattr(lattice_fields, "_BLOCK_CELLS", block_cells)
        config = ExperimentConfig(model=LEVELS4, d=d, n_schedule=n_schedule,
                                  replicates=300, master_seed=7)
        csv = report_to_csv(run_clt_experiment(config))
        assert hashlib.sha256(csv.encode()).hexdigest() == self.REPORT_SHA256[d]

    @pytest.mark.parametrize("block_cells", [64, 1 << 16, 1 << 24])
    def test_variance_gap_bits(self, monkeypatch, block_cells):
        monkeypatch.setattr(lattice_fields, "_BLOCK_CELLS", block_cells)
        pts = variance_gap(LEVELS4, 1, (20, 40, 300), 3000, master_seed=11)
        assert [p.gap.hex() for p in pts] == self.GAPS

    # binary fields: the d-dimensional majority rule of CHAT_PINS and the
    # iid field, whose blocks stream and whose C_hat sums windows as bool
    BINARY_REPORT_SHA256 = {
        ("majority", 1): "7b651d492a61b4c2797f9c56e5c4994c86efa978f2bfc15273568c9b1f3c8c95",
        ("majority", 2): "c68faf0ac787853d72b22473b77cab6d07c4398d00370157d86003062d41892b",
        ("majority", 3): "e3c6421097e2b1ff6e268f8a9a534efa674811013fadff97f26e0765d99073e6",
        ("iid", 1): "e39447ca47b07596ef5a749292c6de76b3ba4f9c30a467ac4e70553007dfb9a6",
    }
    BINARY_SCHEDULES = {1: (16, 32, 64), 2: (3, 5, 9), 3: (2, 3, 5)}
    MAJORITY_GAPS = ["0x1.833a4ba1d86e0p-6", "0x1.5bf31501ab120p-6", "0x1.7d95537b18c00p-10"]

    @pytest.mark.parametrize("block_cells", [64, 1 << 16, 1 << 24])
    @pytest.mark.parametrize("name, d", sorted(BINARY_REPORT_SHA256))
    def test_binary_report_bytes(self, monkeypatch, block_cells, name, d):
        monkeypatch.setattr(lattice_fields, "_BLOCK_CELLS", block_cells)
        config = ExperimentConfig(model=chat_pin_model(name, d), d=d,
                                  n_schedule=self.BINARY_SCHEDULES[d],
                                  replicates=300, master_seed=7)
        csv = report_to_csv(run_clt_experiment(config))
        assert hashlib.sha256(csv.encode()).hexdigest() == self.BINARY_REPORT_SHA256[(name, d)]

    @pytest.mark.parametrize("block_cells", [64, 1 << 16, 1 << 24])
    def test_binary_variance_gap_bits(self, monkeypatch, block_cells):
        monkeypatch.setattr(lattice_fields, "_BLOCK_CELLS", block_cells)
        pts = variance_gap(MAJORITY, 1, (20, 40, 300), 3000, master_seed=11)
        assert [p.gap.hex() for p in pts] == self.MAJORITY_GAPS

    @pytest.mark.parametrize("block_cells", [64, 1000, 1 << 16])
    @pytest.mark.parametrize("model, d, n", [
        (LEVELS4, 1, 30), (MAJORITY, 2, 4), (IidBernoulli(p=0.3), 3, 2), (MAJORITY, 3, 12),
    ])
    def test_blocks_stay_within_the_sampler_block(self, monkeypatch, block_cells, model, d, n):
        monkeypatch.setattr(lattice_fields, "_BLOCK_CELLS", block_cells)
        cube = LatticeCube(d=d, n=n)
        limit = lattice_fields._seeds_per_block(model, cube)
        assert limit == max(1, block_cells // (cube.side + 2 * model.window_radius) ** d)
        starts = []
        for start, values, sums in _replicate_batches(model, cube, 50, 5):
            assert 1 <= len(sums) <= limit
            assert values.shape == (len(sums),) + cube.shape
            starts.append((start, len(sums)))
        assert starts[0][0] == 0
        assert all(a + k == b for (a, k), (b, _) in zip(starts, starts[1:]))
        assert sum(k for _, k in starts) == 50

    def test_seeds_derived_once_per_cube(self, monkeypatch):
        from ntcpfields import dependent_clt

        cube = LatticeCube(d=1, n=30)
        replicates = 3 * lattice_fields._seeds_per_block(MAJORITY, cube) + 5
        derived, blocks = [], []

        def derive(*args):
            derived.append(args)
            return lattice_fields.derive_seeds(*args)

        def sample(model, cube, seeds, out, work):
            blocks.append(np.array(seeds))
            return lattice_fields.sample_fields_batch(model, cube, seeds, out, work)

        monkeypatch.setattr(dependent_clt, "derive_seeds", derive)
        monkeypatch.setattr(dependent_clt, "sample_fields_batch", sample)
        for _ in _replicate_batches(MAJORITY, cube, replicates, 9):
            pass
        assert len(derived) == 1 and len(blocks) == 4
        expected = lattice_fields.derive_seeds(9, cube.n, np.arange(replicates))
        assert np.array_equal(np.concatenate(blocks), expected)

    @pytest.mark.parametrize("d, n", [(1, 126), (1, 127), (2, 128)])
    def test_integer_row_sums_never_wrap(self, d, n):
        # all-ones cubes at the edges of the row-sum dtypes: 253 cells sum in
        # uint8, 255 in uint16 and 66049 in int32
        cube = LatticeCube(d=d, n=n)
        for _, values, sums in _replicate_batches(IidBernoulli(1.0), cube, 3, 5):
            assert sums.dtype == np.float64 and sums.tolist() == [cube.size] * len(sums)
            floats = values.reshape(len(values), -1).sum(axis=1, dtype=np.float64)
            assert sums.tobytes() == floats.tobytes()


class TestCallerBufferSize:
    """The sampler and C_hat run the passes that broadcast along short rows
    under a ufunc buffer size of their own, in a scope that restores the
    caller's: their bits do not depend on the caller's buffer size, which
    every call keeps, an error raised for a wrong ``out`` included."""

    @staticmethod
    def outputs(bufsize):
        outputs = []
        with np.errstate(), mock.patch.object(np, "setbufsize", wraps=np.setbufsize) as setbufsize:
            np.setbufsize(bufsize)
            for (d, name, b), pins in sorted(CHAT_PINS.items()):
                model, cube = chat_pin_model(name, d), LatticeCube(d=d, n=CHAT_PIN_N[d])
                seeds = lattice_fields.derive_seeds(7, cube.n, [0, 1])
                values = sample_fields_batch(model, cube, seeds)
                assert np.getbufsize() == bufsize
                rows = _variance_estimator_batch(values, d, b)
                assert np.getbufsize() == bufsize
                config = EstimatorConfig(bandwidth=b)
                single = variance_estimator(sample_field(model, cube, 123), config)
                assert (single.hex(), *map(float.hex, rows)) == pins
                outputs.append(values.tobytes())
            # n = 128: the sampler's rows of 259 cells take its scope
            for model in (MAJORITY, LEVELS4):
                points = variance_gap(model, 1, (4, 8, 128), 200, master_seed=3)
                outputs += [p.gap.hex() for p in points]
                assert np.getbufsize() == bufsize
            with pytest.raises(ShapeError):
                sample_fields_batch(MAJORITY, LatticeCube(d=1, n=2), [1], np.empty((2, 5)))
            assert np.getbufsize() == bufsize
        return outputs, mock.call(lattice_fields._UFUNC_BUFSIZE) in setbufsize.call_args_list

    @pytest.mark.parametrize("bufsize", [16, 8192, 65536])
    def test_bits_do_not_depend_on_the_callers_buffer_size(self, bufsize):
        default = np.getbufsize()
        outputs, scoped = self.outputs(bufsize)
        assert outputs == self.outputs(8192)[0]
        assert scoped
        assert np.getbufsize() == default


class TestStreamAllocations:
    """After its first block, a replicate stream refills the buffers it made
    for that block: no block takes a block-sized array, such as the uint64
    site hashes (8 bytes per noise cell), from the allocator again."""

    CUBE = LatticeCube(d=1, n=200)
    REPLICATES = 1000  # 7 blocks of up to 162 replicates

    def block_bytes(self):
        step = lattice_fields._seeds_per_block(MAJORITY, self.CUBE)
        return 8 * step * (self.CUBE.side + 2 * MAJORITY.window_radius)

    @staticmethod
    def peaks_between(calls):
        """The traced peak above the memory held at each call's start."""
        peaks = []
        tracemalloc.start()
        try:
            for call in calls:
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        return peaks

    def test_variance_gap_stream(self):
        blocks = _replicate_batches(MAJORITY, self.CUBE, self.REPLICATES, 3)
        peaks = self.peaks_between([lambda: next(blocks)] * 7)
        assert next(blocks, None) is None
        assert max(peaks[1:]) < self.block_bytes()

    def test_campaign_stream_with_chat(self, monkeypatch):
        from ntcpfields import experiment

        marks, peaks = [], []
        original = experiment._variance_estimator_batch

        def chat(*args):  # a block ends with its C_hat
            result = original(*args)
            held, peak = tracemalloc.get_traced_memory()
            if marks:
                peaks.append(peak - marks[-1])
            marks.append(held)
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(experiment, "_variance_estimator_batch", chat)
        config = ExperimentConfig(model=MAJORITY, d=1, n_schedule=(self.CUBE.n,),
                                  replicates=self.REPLICATES, master_seed=3)
        tracemalloc.start()
        try:
            list(experiment._stream(config))
        finally:
            tracemalloc.stop()
        assert len(marks) == 7
        assert max(peaks) < self.block_bytes()


class TestBinaryValueCheck:
    """A binary model's values go to C_hat as bool exactly when every one is
    0 or 1 (-0.0 is 0); any other finite value takes the float path, and a
    nan is refused with the same error text."""

    CUBE = LatticeCube(d=3, n=3)

    def sample(self, odd, model=MAJORITY):
        values = sample_field(MAJORITY, self.CUBE, 17).values.copy()
        values[1, 2, 3] = odd
        return FieldSample(self.CUBE, values, model, 17)

    @pytest.mark.parametrize("odd,binary", [(0.0, True), (-0.0, True), (1.0, True),
                                            (0.5, False), (2.0, False)])
    def test_zero_one_values_become_bool(self, odd, binary):
        sample, config = self.sample(odd), EstimatorConfig(bandwidth=2)
        values, total = _checked(sample)
        assert (values.dtype == bool) is binary
        assert total == float(sample.values.sum())
        as_float = self.sample(odd, LEVELS4)  # a float model: never the bool path
        assert _checked(as_float)[0].dtype == np.float64
        assert variance_estimator(sample, config).hex() == \
            variance_estimator(as_float, config).hex()

    def test_negative_zero_gives_the_bits_of_zero(self):
        config = EstimatorConfig(bandwidth=1)
        assert variance_estimator(self.sample(-0.0), config).hex() == \
            variance_estimator(self.sample(0.0), config).hex()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_binary_sample_rejected(self, bad):
        message = "^sample holds non-finite values \\(nan or inf\\): no sum or C_hat$"
        with pytest.raises(DomainError, match=message):
            variance_estimator(self.sample(bad), EstimatorConfig(bandwidth=1))
        with pytest.raises(DomainError, match=message):
            partial_sum(self.sample(bad))

    @pytest.mark.parametrize("call", [
        lambda s, c: partial_sum(s),
        lambda s, c: variance_estimator(s, c),
        lambda s, c: confidence_interval(s, 0.9, c),
        lambda s, c: self_normalized_statistic(s, 0.5, c),
        lambda s, c: ntcp_estimate(s, 30.0, 0.5, c),
    ], ids=["partial_sum", "variance_estimator", "confidence_interval",
            "self_normalized_statistic", "ntcp_estimate"])
    def test_public_estimators_check_a_sample_once(self, monkeypatch, call):
        calls = []

        def counted(sample):
            calls.append(sample)
            return _checked(sample)

        monkeypatch.setattr(dependent_clt, "_checked", counted)
        call(self.sample(0.5), EstimatorConfig(bandwidth=1))
        assert len(calls) == 1

    def test_errors_keep_their_order(self):
        # a sum beyond float64: the statistic names the sum before the mode,
        # the interval names C_hat before the level
        huge = FieldSample(self.CUBE, np.full(self.CUBE.shape, 1e308), LEVELS4, 0)
        with pytest.raises(DomainError, match="the sum of this sample"):
            self_normalized_statistic(huge, 0.0, mode="bogus")
        with pytest.raises(DomainError, match="the C_hat of this sample"):
            confidence_interval(huge, 1.0)
