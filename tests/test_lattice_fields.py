import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ntcpfields import lattice_fields
from ntcpfields.errors import CapacityError, DomainError, ParameterError, ShapeError
from ntcpfields.lattice_fields import (
    FieldSample,
    IidBernoulli,
    LatticeCube,
    MovingWindowLevels,
    MovingWindowThreshold,
    covariance_at_lag,
    derive_seed,
    derive_seeds,
    load_sample,
    model_from_dict,
    model_mean,
    model_sigma2,
    model_to_dict,
    sample_field,
    sample_fields_batch,
    save_sample,
)

MAJORITY = MovingWindowThreshold(window_radius=1, theta=0.5, k_min=2)

# sha256 of the float64 bytes of sample_fields_batch over the derived seeds
# derive_seeds(7, n, range(replicates)) and of sample_field at seed
# 123456789: the sample bytes that stored samples and reports rest on, so
# no change of blocking or noise arithmetic may move them; (d, n,
# replicates) spans several seed blocks at every d
GOLDEN_CUBES = {1: (40, 2000), 2: (12, 200), 3: (5, 64)}
GOLDEN_DIGESTS = {
    ("iid", 1): ("4926f41adfc9b4634f2a71fed0ee6592b22d760afb8ca9d63a641b08a65def8b", "4411d70277a82f1703f054396254f392a219f15abe50cae04b903de564723cad"),
    ("threshold", 1): ("9dcc112980aa5c30e2b2b773596102a43d779dfbbbc0c84049d01fc9b90832cb", "d19cf9de461267522d041a581bf3dd85631bda7d0e150766dcfbb15e1b7416df"),
    ("levels", 1): ("266963c8c75acc01001339eb39759ee188673fc3e6d0cd9641b3f7124c454e77", "a02c3b626703160c49812b2c1fc26d1e08f0fd11a76a1c6f62b1115fdc364483"),
    ("iid", 2): ("5b5d470e4146b122d5aa7d55e8d1f72dda48fa6a479500a09d8dc5208000849c", "23156cad34271e70679811c2ca2d605ebf17006e86830d983090274df3e7d173"),
    ("threshold", 2): ("935d12e4d387cf00ba7cc077400aacc65746f855e73c32e50af9c2084d11a81f", "cbbf3a204c238585208b93d63034b385d7f69cd812eafdbcddcca6ec8ead8324"),
    ("levels", 2): ("a3f6a104c43918d6664cc5f99063d1b794c682b9f2be0207ea7dc1bd2e01d4fd", "e8f8e833cc53ae8db7dc5b2b3d82a5716a0c158b5cbd16400da1a2e77d463532"),
    ("iid", 3): ("34a11f4ef7eb5d706f4b01e352d57a047f2dc4aa787a5cd32cbfa8905c71e97e", "2816cbc008e345333b8246e25b9cf21f4bda15f5ebfe95754a2842d69c480ec0"),
    ("threshold", 3): ("f11e0f90bc977b19ba932d3e6a1350a572b859a3a3599f03607f9dc87480214d", "576e914a96587d0dd1c8c5e0791063978e7e7753dd111e9d710c295691f9f7dc"),
    ("levels", 3): ("9c4d2d33f243094af8651c09b2af01229d78f05858e2ad62c8683ab744af9497", "d6eba82295c2c536a9406e27bb23caafe0ecd30e3583b9c7a15e270d7b075636"),
}


def golden_model(name, d):
    if name == "iid":
        return IidBernoulli(p=0.3)
    if name == "threshold":
        return MovingWindowThreshold(window_radius=1, theta=0.5, k_min=(3**d + 1) // 2)
    return MovingWindowLevels(window_radius=1, theta=0.37, levels=5)


def brute_force_moments(model, d, lag):
    """Independent oracle: sum over every noise configuration of the union
    of the two windows, bit by bit."""
    m = model.window_radius
    offsets = list(itertools.product(range(-m, m + 1), repeat=d))
    w0 = [tuple(o) for o in offsets]
    w1 = [tuple(l + o for l, o in zip(lag, off)) for off in offsets]
    sites = sorted(set(w0) | set(w1))
    idx = {s: i for i, s in enumerate(sites)}
    w_size = len(offsets)

    def value(bits, window):
        count = sum(bits[idx[s]] for s in window)
        if isinstance(model, MovingWindowThreshold):
            return 1.0 if count >= model.k_min else 0.0
        return round(count / w_size * (model.levels - 1)) / (model.levels - 1)

    e0 = e1 = e01 = 0.0
    for bits in itertools.product((0, 1), repeat=len(sites)):
        weight = model.theta ** sum(bits) * (1 - model.theta) ** (len(sites) - sum(bits))
        x0, x1 = value(bits, w0), value(bits, w1)
        e0 += weight * x0
        e1 += weight * x1
        e01 += weight * x0 * x1
    return e0, e1, e01


def exact_threshold_sigma2(model, d):
    """Independent oracle in exact rational arithmetic: cov(X_0, X_j)
    summed lag by lag over all (4m+1)^d lags, with math.comb weights on the
    shared and private noise counts of the two windows."""
    w = 2 * model.window_radius + 1
    w_size = w**d
    theta = Fraction(model.theta)

    @functools.lru_cache(maxsize=None)
    def pmf(n):
        return [math.comb(n, k) * theta**k * (1 - theta) ** (n - k) for k in range(n + 1)]

    def tail(n, k):  # P(Binomial(n, theta) >= k)
        return sum(pmf(n)[max(k, 0):], Fraction(0))

    mu = tail(w_size, model.k_min)
    total = Fraction(0)
    for lag in itertools.product(range(1 - w, w), repeat=d):
        shared = math.prod(w - abs(j) for j in lag)
        only = w_size - shared
        for a, weight in enumerate(pmf(shared)):
            g = tail(only, model.k_min - a)
            total += weight * g * g
        total -= mu * mu
    return total


class TestCube:
    def test_size(self):
        assert LatticeCube(d=2, n=3).size == 49
        assert LatticeCube(d=3, n=1).shape == (3, 3, 3)

    def test_bad_dimension(self):
        with pytest.raises(Exception):
            LatticeCube(d=4, n=2)


class TestSampling:
    def test_determinism(self):
        cube = LatticeCube(d=2, n=8)
        a = sample_field(MAJORITY, cube, 123)
        b = sample_field(MAJORITY, cube, 123)
        assert np.array_equal(a.values, b.values)
        c = sample_field(MAJORITY, cube, 124)
        assert not np.array_equal(a.values, c.values)

    def test_seed_extension_preserves_interior(self):
        small = sample_field(MAJORITY, LatticeCube(d=2, n=8), 9)
        big = sample_field(MAJORITY, LatticeCube(d=2, n=16), 9)
        assert np.array_equal(big.values[8:25, 8:25], small.values)

    def test_batch_matches_singles(self):
        cube = LatticeCube(d=1, n=20)
        seeds = [5, 6, 7]
        batch = sample_fields_batch(MAJORITY, cube, seeds)
        for row, seed in zip(batch, seeds):
            assert np.array_equal(row, sample_field(MAJORITY, cube, seed).values)

    def test_iid_pooled_mean(self):
        model = IidBernoulli(p=0.3)
        cube = LatticeCube(d=2, n=64)
        values = sample_fields_batch(model, cube, list(range(100)))
        total = values.size
        se = math.sqrt(0.3 * 0.7 / total)
        assert abs(values.mean() - 0.3) <= 4 * se

    def test_disjoint_windows_uncorrelated(self):
        # lag 3 > 2m for m=1: exactly independent by construction
        cube = LatticeCube(d=1, n=3)
        values = sample_fields_batch(MAJORITY, cube, list(range(10000)))
        x, y = values[:, 0], values[:, 6]
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) <= 4 / math.sqrt(10000)

    def test_levels_in_unit_interval(self):
        model = MovingWindowLevels(window_radius=1, theta=0.4, levels=5)
        sample = sample_field(model, LatticeCube(d=2, n=10), 77)
        assert sample.values.min() >= 0.0 and sample.values.max() <= 1.0
        assert set(np.unique(np.round(sample.values * 4)).tolist()) <= {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("name,d", sorted(GOLDEN_DIGESTS))
    def test_golden_digests(self, name, d):
        model = golden_model(name, d)
        n, replicates = GOLDEN_CUBES[d]
        cube = LatticeCube(d=d, n=n)
        batch = sample_fields_batch(model, cube, derive_seeds(7, n, np.arange(replicates)))
        single = sample_field(model, cube, 123456789).values
        assert (
            hashlib.sha256(batch.tobytes()).hexdigest(),
            hashlib.sha256(single.tobytes()).hexdigest(),
        ) == GOLDEN_DIGESTS[(name, d)]

    @pytest.mark.parametrize("d,n", [(1, 30), (2, 9), (3, 4)])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_batch_matches_singles_across_blocks(self, d, n, extra):
        model = MovingWindowLevels(window_radius=2, theta=0.45, levels=4)
        cube = LatticeCube(d=d, n=n)
        block = lattice_fields._BLOCK_CELLS // (cube.side + 4) ** d
        seeds = [int(s) for s in derive_seeds(11, n, np.arange(block + extra))]
        batch = sample_fields_batch(model, cube, seeds)
        assert batch.shape == (len(seeds),) + cube.shape
        for row, seed in zip(batch, seeds):
            assert np.array_equal(row, sample_field(model, cube, seed).values)

    def test_noise_rule_matches_float_rule(self):
        seeds = derive_seeds(3, 0, np.arange(8))
        axes = [np.arange(-40, 41)] * 2
        k = lattice_fields._site_hash(seeds, axes) >> np.uint64(11)
        u = k * 2.0**-53  # the float rule the integer rule replaces: u < theta
        thetas = [0.0, 1.0, 2.0**-53, 5e-324]
        for site in (0, 17, 4000, k.size - 1):
            exact = float(k.flat[site]) * 2.0**-53
            thetas += [np.nextafter(exact, 0.0), exact, np.nextafter(exact, 1.0)]
        for theta in thetas:
            noise = lattice_fields._site_noise(seeds, axes, theta)
            assert noise.dtype == bool
            assert np.array_equal(noise, u < theta), theta

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            sample_field(IidBernoulli(p=0.5), LatticeCube(d=3, n=300), 1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
    def test_non_integer_seed_rejected(self, seed):
        cube = LatticeCube(d=1, n=2)
        with pytest.raises(TypeError):
            sample_fields_batch(MAJORITY, cube, [seed])
        with pytest.raises(TypeError):
            sample_field(MAJORITY, cube, seed)

    @pytest.mark.parametrize("model", [IidBernoulli(p=0.5), MAJORITY])
    @pytest.mark.parametrize("seeds", [np.array([[1, 2], [3, 4]]), np.array(5)],
                             ids=["2d", "0d"])
    def test_seed_array_must_be_one_dimensional(self, model, seeds):
        with pytest.raises(ShapeError):
            sample_fields_batch(model, LatticeCube(d=1, n=2), seeds)

    def test_derive_seeds_matches_scalar(self):
        batch = derive_seeds(42, 7, np.arange(5))
        for r in range(5):
            assert int(batch[r]) == derive_seed(42, 7, r)

    def test_derived_seeds_pinned(self):
        # the seed contract: these values key every stored sample and report
        assert [derive_seed(42, 7, r) for r in range(3)] == [
            2967919971110318135, 8147493018865561009, 10752337263636993473]
        assert derive_seed(2**64 + 5, -3, -1) == 18122371284059940793


class TestMoments:
    def test_iid_mean_and_cov(self):
        model = IidBernoulli(p=0.3)
        assert model_mean(model, 2) == 0.3
        assert covariance_at_lag(model, (0, 0)) == pytest.approx(0.21)
        assert covariance_at_lag(model, (1, 0)) == 0.0

    def test_majority_mean(self):
        # P(Binomial(3, 1/2) >= 2) = 1/2
        assert model_mean(MAJORITY, 1) == pytest.approx(0.5)

    def test_majority_covariances_vs_brute_force(self):
        for lag in [(0,), (1,), (2,), (3,)]:
            e0, e1, e01 = brute_force_moments(MAJORITY, 1, lag)
            expected = e01 - e0 * e1
            assert covariance_at_lag(MAJORITY, lag) == pytest.approx(expected, abs=1e-12)

    def test_levels_covariance_vs_brute_force(self):
        model = MovingWindowLevels(window_radius=1, theta=0.3, levels=4)
        for lag in [(0,), (1,), (2,)]:
            e0, e1, e01 = brute_force_moments(model, 1, lag)
            assert covariance_at_lag(model, lag) == pytest.approx(e01 - e0 * e1, abs=1e-12)

    def test_2d_covariance_vs_brute_force(self):
        model = MovingWindowThreshold(window_radius=1, theta=0.4, k_min=5)
        for lag in [(0, 0), (1, 0), (2, 1)]:
            e0, e1, e01 = brute_force_moments(model, 2, lag)
            assert covariance_at_lag(model, lag) == pytest.approx(e01 - e0 * e1, abs=1e-12)

    def test_m_dependence_zero_beyond_two_m(self):
        for lag in [(3,), (-3,), (17,)]:
            assert covariance_at_lag(MAJORITY, lag) == 0.0
        assert covariance_at_lag(MAJORITY, (2,)) != 0.0

    def test_sigma2_iid(self):
        res = model_sigma2(IidBernoulli(p=0.3), 2)
        assert res.value == pytest.approx(0.21)
        assert not res.degenerate

    def test_sigma2_majority(self):
        # lag sums from enumeration: 0.25 + 2*0.125 + 2*0.0625
        res = model_sigma2(MAJORITY, 1)
        assert res.value == pytest.approx(0.625, abs=1e-12)

    def test_sigma2_matches_long_run_variance(self):
        cube = LatticeCube(d=1, n=128)
        values = sample_fields_batch(MAJORITY, cube, list(range(4000)))
        sums = values.sum(axis=1)
        mc = sums.var(ddof=1) / cube.size
        se = mc * math.sqrt(2 / 4000)
        assert abs(mc - 0.625) <= 4 * se + 2 * 0.25 / cube.side

    def test_constant_field_degenerate(self):
        frozen = MovingWindowThreshold(window_radius=1, theta=0.0, k_min=1)
        res = model_sigma2(frozen, 1)
        assert res.value == pytest.approx(0.0, abs=1e-15)
        assert res.degenerate

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("kind", ["threshold", "levels"])
    def test_sigma2_equals_per_lag_sum(self, d, m, kind):
        w_size = (2 * m + 1) ** d
        if kind == "threshold":
            model = MovingWindowThreshold(window_radius=m, theta=0.4, k_min=int(0.4 * w_size))
        else:
            model = MovingWindowLevels(window_radius=m, theta=0.4, levels=5)
        reference = 0.0
        for lag in itertools.product(range(-2 * m, 2 * m + 1), repeat=d):
            reference += covariance_at_lag(model, lag)
        assert model_sigma2(model, d).value == pytest.approx(reference, rel=1e-12, abs=0)

    def test_wide_window_mean_closed_form(self):
        # levels = |window| + 1 makes X_0 exactly the window noise mean, so
        # E X_0 = theta and sigma^2 = Var(one noise site) = theta (1 - theta)
        model = MovingWindowLevels(window_radius=5, theta=0.45, levels=11**3 + 1)
        assert model_mean(model, 3) == pytest.approx(0.45, rel=1e-9)
        res = model_sigma2(model, 3)
        assert res.value == pytest.approx(0.45 * 0.55, rel=1e-9)
        assert not res.degenerate

    @pytest.mark.parametrize(
        "m,theta,k_min,d",
        [(2, 0.6, 3, 2), (10, 0.7, 3, 1), (1, 0.8, 3, 3), (1, 0.4, 5, 3)],
    )
    def test_sigma2_vs_exact_rational(self, m, theta, k_min, d):
        # near-degenerate fields (mean close to 1) keep full relative accuracy
        model = MovingWindowThreshold(window_radius=m, theta=theta, k_min=k_min)
        exact = exact_threshold_sigma2(model, d)
        assert model_sigma2(model, d).value == pytest.approx(float(exact), rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [-1, 0, 4])
    def test_moments_reject_unsupported_dimension(self, d):
        for model in (MAJORITY, IidBernoulli(p=0.3)):
            with pytest.raises(DomainError):
                model_sigma2(model, d)
            with pytest.raises(DomainError):
                model_mean(model, d)


class TestSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            IidBernoulli(p=0.3),
            MAJORITY,
            MovingWindowLevels(window_radius=1, theta=0.37, levels=5),
        ],
    )
    def test_round_trip_bit_exact(self, model, tmp_path):
        sample = sample_field(model, LatticeCube(d=2, n=5), 31)
        path = tmp_path / "sample.dat"
        save_sample(sample, path)
        loaded = load_sample(path)
        assert loaded.cube == sample.cube
        assert loaded.model == sample.model
        assert loaded.seed == sample.seed
        assert np.array_equal(loaded.values, sample.values)

    def test_model_dict_round_trip(self):
        for model in [IidBernoulli(p=0.5), MAJORITY]:
            assert model_from_dict(model_to_dict(model)) == model

    def test_unknown_model_type(self):
        with pytest.raises(ParameterError):
            model_from_dict({"type": "nope"})

    def test_truncated_file(self, tmp_path):
        sample = sample_field(IidBernoulli(p=0.5), LatticeCube(d=1, n=3), 1)
        path = tmp_path / "sample.dat"
        save_sample(sample, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ShapeError):
            load_sample(path)


def test_field_sample_shape_checked():
    with pytest.raises(ShapeError):
        FieldSample(
            cube=LatticeCube(d=1, n=2),
            values=np.zeros(4),
            model=IidBernoulli(p=0.5),
            seed=0,
        )
