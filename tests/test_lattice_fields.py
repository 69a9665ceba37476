import ast
import functools
import hashlib
import itertools
import json
import math
import os
import pathlib
import tempfile
import threading
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ntcpfields import lattice_fields
from ntcpfields.cv_ntcp import _binomial_pmf
from ntcpfields.errors import (
    CapacityError,
    ConfigError,
    DomainError,
    ParameterError,
    ShapeError,
)
from ntcpfields.lattice_fields import (
    FieldSample,
    IidBernoulli,
    LatticeCube,
    MovingWindowLevels,
    MovingWindowThreshold,
    covariance_at_lag,
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
    # edges of the noise bound and the count arithmetic (EDGE_MODELS)
    ("threshold_theta1", 1): ("99c373ad38fe7e7dee5d46871a6c058e6e5320ae8fb6a5d34a7a8512aae95744", "a8387df1c623c82f1aa917558fb8a41aecf92f5dd3292e99d87d670ed926614c"),
    ("levels_theta1", 2): ("c3e01e68121142491cbc4b700cd81e2866e39b17f9ad6e4c27f1ee366681ff9d", "43a497429e484200cb06db04490aeda43965ae118434b3160b359ac56bcbcf54"),
    ("threshold_kmin256", 3): ("d6c4fd92b761a901ce00a5c193f299e8a45ee33cc354a5c37c725b150465edc0", "e7b20af1b8baf65af5baf387fcd78b3316f29e9c3767973bb17902d3718193e2"),
    ("threshold_kmin_over", 2): ("d29751f2649b32ff572b5e0a9f541ea660a50f94ff0beedfb0b692b924cc8025", "7ca5bd879f393d9dd05b14f38add9c0fc6b67928f7f2d261b2e47a32ee8219e3"),
    ("threshold_m0", 1): ("8a053eaae24d4503fcb481d85ca0a8c2a644f0c27045531d3000d1e1bb17df30", "9214b668cf6151c866a0a80d535594c35f65f74a952620814dbc3d18b9ac6538"),
    ("levels_m0", 2): ("eeec307361ac93106c87f5dd5ea294382e9f3df2986233eeba9c6b78cbfdebe1", "7b12734ee3ebe2106d03094214a208785bce7c5f208aabc73af2f853f5cc2937"),
    ("threshold_m0", 3): ("2eab15fc454435317334a4c969c40e2e016a23a8b0eac8e47c788784ed82020e", "247c254520b49289901df4ed5d407b22a2fb4ff1576510fd5c621bdb58750b1d"),
    ("levels_m8", 2): ("11363f5a16a50b52d0201ecf013e2e6fb575e43971ef072f8ded062420eab36b", "8a28c747c9859c72e45c0d19cf4c94521c7ec4ddeaea1d07e740b727a76c4411"),
    ("threshold_m3", 3): ("4eed9a14a4a33eb5d7b3d234c70ed5a2c481a53c84c971f1a7ae512ea3e2b35f", "f630d4f5ac02c1cf26f78a42ad92477ff6cea95831c091f3f2e09be5ebe2fc21"),
}

# theta = 1 (the integer noise bound is 2^53), k_min above the window size
# (256 would wrap to 0 in uint8 counts), m = 0 windows, and windows of 289
# and 343 sites, whose counts need uint16
EDGE_MODELS = {
    "threshold_theta1": MovingWindowThreshold(window_radius=1, theta=1.0, k_min=3),
    "levels_theta1": MovingWindowLevels(window_radius=2, theta=1.0, levels=4),
    "threshold_kmin256": MovingWindowThreshold(window_radius=1, theta=0.9, k_min=256),
    "threshold_kmin_over": MovingWindowThreshold(window_radius=1, theta=0.9, k_min=10),
    "threshold_m0": MovingWindowThreshold(window_radius=0, theta=0.4, k_min=1),
    "levels_m0": MovingWindowLevels(window_radius=0, theta=0.4, levels=3),
    "levels_m8": MovingWindowLevels(window_radius=8, theta=0.37, levels=7),
    "threshold_m3": MovingWindowThreshold(window_radius=3, theta=0.5, k_min=172),
}


# sha256 of the float64 bytes of sample_field at seed 201 on cubes whose
# enlarged noise grid overflows one block of 2^16 cells, so one seed is
# sampled in slabs of first-axis rows: pinned from the sampler that hashed
# the whole grid at once, and checked at blocks from one cell (slabs of
# one row) to 2^26 (the whole cube in one slab)
SLAB_CASES = {
    "threshold_d3": (MovingWindowThreshold(window_radius=1, theta=0.5, k_min=14),
                     LatticeCube(d=3, n=35)),
    "levels_d3": (MovingWindowLevels(window_radius=1, theta=0.37, levels=7),
                  LatticeCube(d=3, n=35)),
    "threshold_d2": (MovingWindowThreshold(window_radius=3, theta=0.5, k_min=25),
                     LatticeCube(d=2, n=150)),
    "levels_d2": (MovingWindowLevels(window_radius=3, theta=0.37, levels=7),
                  LatticeCube(d=2, n=150)),
}
SLAB_DIGESTS = {
    "threshold_d3": "590aa1a51a365656aa6669b5f25bcebf22129cffa89d10cfe73b3e0d475e8cde",
    "levels_d3": "8ee03835e2c16bba6f2390cb43e7d275afb869eee0e4c2cc0be95fe4d7d678a1",
    "threshold_d2": "0352fea17b3ccca3fde10e8ecd0fcd5663a51d461460a7d41d516522c97e34ea",
    "levels_d2": "400295437772c4b467a9db96851346cadf8d02368776918079669c27c8f1c757",
}

# sha256 of save_sample's file bytes, pinned from the per-cell writer
# ("%.17g\n" % v for each cell) that the blocked writer replaced
SAVED_DIGESTS = {
    ("threshold_d3", MovingWindowThreshold(window_radius=1, theta=0.5, k_min=14), 3, 35, 201):
        "6de0565aa49cb4db2f6969260a4b5deb4671c02acd3bf828e297a685ed00fe89",
    ("levels_d2", MovingWindowLevels(window_radius=1, theta=0.37, levels=5), 2, 20, 31):
        "49964aa9b6bc90b614180f835b6d3738cb8811b2db923b87da7e541ddc4f519b",
    ("iid_d1", IidBernoulli(p=0.3), 1, 500, 7):
        "a39fd9c68df3802e22da7124f8b21fcd59a4089c104a7bacf80897e12ec898ef",
}

# every edge of "%.17g" (signed zero, subnormal, huge, inexact, nan, inf)
# and 10k distinct values, in a cube of 2 * 5004 + 1 cells
SPECIAL_VALUES = np.concatenate([
    [0.0, -0.0, 5e-324, 1e308, 0.1, np.nan, np.inf, -np.inf, -1e-300],
    np.random.default_rng(5).normal(size=10_000),
])


# the 71^3 threshold sample of CLI simulate and estimate, 2.9 MB of float64
LARGE_SAMPLE = functools.partial(sample_field, MovingWindowThreshold(1, 0.5, 14),
                                 LatticeCube(d=3, n=35), 201)


def every_nth_distinct(step):
    """A 255^2 sample in which every step-th cell holds its own value, the
    rest 0."""
    values = np.zeros(255 * 255)
    values[::step] = np.random.default_rng(5).random(values[::step].size)
    return FieldSample(LatticeCube(d=2, n=127), values.reshape(255, 255), IidBernoulli(0.5), 3)


def per_cell_bytes(sample):
    """The file the per-cell writer makes: the reference for save_sample."""
    header = {"d": sample.cube.d, "n": sample.cube.n, "seed": sample.seed,
              "model": model_to_dict(sample.model)}
    lines = [json.dumps(header, sort_keys=True) + "\n"]
    lines += ["%.17g\n" % v for v in sample.values.ravel()]
    return "".join(lines).encode()


def reference_load_values(path):
    """The per-line parser the blocked loader replaced: float() over every
    non-blank line after the header.  The reference for load_sample."""
    with open(path) as fh:
        fh.readline()
        return np.fromiter(map(float, filter(str.strip, fh)), np.float64)


# value-line kinds for the loader oracle: repeated and distinct values,
# underscores and nan as float() reads them, padded, blank and
# whitespace-only lines, lines float() rejects, and every line end
LOADER_LINES = ["0", "1", "0.33333333333333331", "-0", "nan", "1_0", "  1 ", "\t0.5\t",
                "", "   ", "\t", "\x0c", "1 0", "one"]
LOADER_ENDS = ["\n", "\r\n", "\r"]


def assert_same_bits(loaded, values):
    """Loaded values carry the float64 bits of the saved ones; a nan is
    written as "nan", so only its nan-ness is kept, not its payload."""
    expected = np.asarray(values, dtype=np.float64).ravel()
    assert loaded.dtype == np.float64
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(loaded.ravel()), nan)
    assert loaded.ravel()[~nan].tobytes() == expected[~nan].tobytes()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), dtype=st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64]),
       size=st.one_of(st.integers(1, 40), st.sampled_from([lattice_fields._COUNTED_ENTRIES,
                                                           lattice_fields._COUNTED_ENTRIES + 1])))
def test_positions_equal_searchsorted(data, dtype, size):
    top = int(np.iinfo(dtype).max)
    entries = sorted(data.draw(st.lists(st.integers(0, top), min_size=size, max_size=size,
                                        unique=True)))
    # keys below, between, equal to and above the entries, the dtype's ends,
    # and some anywhere
    near = [v + step for v in entries for step in (-1, 0, 1) if 0 <= v + step <= top]
    keys = near + [0, top] + data.draw(st.lists(st.integers(0, top), max_size=40))
    table, keys = np.array(entries, dtype), np.array(data.draw(st.permutations(keys)), dtype)
    positions = lattice_fields._positions(table, keys)
    assert positions.dtype == np.intp
    assert np.array_equal(positions, np.searchsorted(table, keys))


def golden_model(name, d):
    if name in EDGE_MODELS:
        return EDGE_MODELS[name]
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

    @pytest.mark.parametrize("block_cells", [1, 64, 1 << 16, 1 << 26])
    @pytest.mark.parametrize("name", sorted(SLAB_DIGESTS))
    def test_slab_digests(self, name, block_cells):
        model, cube = SLAB_CASES[name]
        with mock.patch.object(lattice_fields, "_BLOCK_CELLS", block_cells):
            values = sample_field(model, cube, 201).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == SLAB_DIGESTS[name]

    @pytest.mark.parametrize("block_cells", [1, 64, 1000])
    @pytest.mark.parametrize("d,n", [(1, 40), (2, 9), (3, 4)])
    def test_batch_in_slabs_matches_whole_cubes(self, d, n, block_cells):
        model = MovingWindowLevels(window_radius=2, theta=0.45, levels=4)
        cube = LatticeCube(d=d, n=n)
        seeds = derive_seeds(11, n, np.arange(3))
        whole = sample_fields_batch(model, cube, seeds)
        with mock.patch.object(lattice_fields, "_BLOCK_CELLS", block_cells):
            assert np.array_equal(sample_fields_batch(model, cube, seeds), whole)

    def test_single_cube_temporaries_stay_slab_sized(self):
        # a slab of 2^16 noise cells takes about 1.6 MB of hashes and counts
        # in flight; the whole 73^3 grid would take 3.1 MB for its hashes alone
        model, cube = SLAB_CASES["threshold_d3"]
        out = np.empty((1,) + cube.shape)
        tracemalloc.start()
        try:
            sample_fields_batch(model, cube, [201], out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * lattice_fields._BLOCK_CELLS

    def test_noise_shares_the_hash_buffers(self):
        # the bool noise is written into the hash buffer that _site_hash
        # leaves free, so a cold call holds two uint64 slabs of hashes, the
        # window counts and the keys: about 18.5 x _BLOCK_CELLS on this cube;
        # a bool noise slab of its own would add about one _BLOCK_CELLS
        model, cube = SLAB_CASES["threshold_d3"]
        out = np.empty((1,) + cube.shape)
        sample_fields_batch(model, cube, [201], out)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            sample_fields_batch(model, cube, [201], out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 19 * lattice_fields._BLOCK_CELLS

    def test_noise_rule_matches_float_rule(self):
        seeds = derive_seeds(3, 0, np.arange(8))
        hashes = lattice_fields._keyed_hash(seeds, lattice_fields._axis_keys(
            [np.arange(-40, 41)] * 2), lattice_fields._TAG_NOISE)
        k = hashes >> np.uint64(11)
        u = k * 2.0**-53  # the float rule the integer rule replaces: u < theta
        thetas = [0.0, 1.0, 2.0**-53, 5e-324]
        for site in (0, 17, 4000, k.size - 1):
            exact = float(k.flat[site]) * 2.0**-53
            thetas += [np.nextafter(exact, 0.0), exact, np.nextafter(exact, 1.0)]
        for theta in thetas:
            noise = lattice_fields._noise_from_hash(hashes, theta)
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

    @pytest.mark.parametrize("model, out", [
        (MovingWindowLevels(1, 0.4, 5), np.empty((2, 5), dtype=bool)),  # a levels field is not 0/1
        (MAJORITY, np.empty((2, 5), dtype=np.float32)),
        (MAJORITY, np.empty((2, 5), dtype=np.uint8)),
        (MAJORITY, np.empty((3, 5), dtype=bool)),
        (MAJORITY, np.empty((2, 5))[:, None]),
        (IidBernoulli(p=0.5), [[0.0] * 5] * 2),
    ], ids=["levels_bool", "float32", "uint8", "rows", "ndim", "list"])
    def test_out_of_wrong_shape_or_dtype_rejected(self, model, out):
        with pytest.raises(ShapeError):
            sample_fields_batch(model, LatticeCube(d=1, n=2), [1, 2], out)

    @pytest.mark.parametrize("model", [MAJORITY, MovingWindowLevels(1, 0.4, 5)])
    def test_out_is_filled_and_returned(self, model):
        cube = LatticeCube(d=2, n=3)
        expected = sample_fields_batch(model, cube, [4, 5])
        for dtype in {np.float64, lattice_fields._value_dtype(model)}:
            out = np.empty((2,) + cube.shape, dtype=dtype)
            assert sample_fields_batch(model, cube, [4, 5], out) is out
            assert np.array_equal(out, expected)

    @pytest.mark.parametrize("narrow", [np.float16, np.float32])
    @pytest.mark.parametrize("kind", ["threshold", "iid", "levels"])
    def test_narrow_float_theta_samples_as_its_python_float(self, kind, narrow):
        # theta * 2^53 overflows float16, so every model keeps float(theta)
        model = {"threshold": lambda t: MovingWindowThreshold(1, t, 2), "iid": IidBernoulli,
                 "levels": lambda t: MovingWindowLevels(1, t, 3)}[kind]
        theta, cube = narrow(0.3), LatticeCube(d=2, n=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in a cast on the way
            values = sample_field(model(theta), cube, 5).values
        assert type(model(theta).theta) is float
        assert values.tobytes() == sample_field(model(float(theta)), cube, 5).values.tobytes()

    def test_workspace_grows_and_belongs_to_one_cube(self):
        model, cube = MovingWindowLevels(1, 0.4, 5), LatticeCube(d=2, n=6)
        work = lattice_fields._SamplerWorkspace(model, cube)
        for seeds in ([4], [4, 5, 6], [7]):  # a larger block grows the buffers
            assert np.array_equal(sample_fields_batch(model, cube, seeds, None, work),
                                  sample_fields_batch(model, cube, seeds))
        with pytest.raises(ShapeError):
            sample_fields_batch(model, LatticeCube(d=2, n=5), [4], None, work)

    def test_derive_seeds_matches_scalar(self):
        batch = derive_seeds(42, 7, np.arange(5))
        for r in range(5):
            assert int(batch[r]) == int(derive_seeds(42, 7, [r])[0])
        # a 0-d index gives a 0-d seed, with no overflow warning on the way
        assert derive_seeds(3, 0, 7) == 2166129563473858780 == derive_seeds(3, 0, [7])[0]
        # a group at or above 2^63 is taken modulo 2^64, as a seed is
        assert derive_seeds(0, 2**63, [0, 1]).tolist() == [
            3018623931144797763, 13353105414922722561]

    def test_derived_seeds_pinned(self):
        # the seed contract: these values key every stored sample and report
        assert derive_seeds(42, 7, range(3)).tolist() == [
            2967919971110318135, 8147493018865561009, 10752337263636993473]
        assert int(derive_seeds(2**64 + 5, -3, [-1])[0]) == 18122371284059940793


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

    def test_enumeration_cap_raises_before_allocating(self):
        # lag (1, 0, 0) of a radius-50 window in 3-d shares 1020100 noise
        # sites and keeps 10201 private: a 1020101 x 10202 table, 77.5 GiB
        wide = MovingWindowThreshold(window_radius=50, theta=0.5, k_min=2)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                covariance_at_lag(wide, (1, 0, 0))
            with pytest.raises(CapacityError):
                model_mean(MovingWindowThreshold(10**4, 0.5, 2), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(CapacityError):  # lag (50, 0, 0): a 520252 x 510051 table
            model_sigma2(wide, 3)

    @pytest.mark.parametrize("call", [
        lambda k: sample_field(MAJORITY, LatticeCube(3, k(2095015987364570925)), 1),
        lambda k: model_mean(MovingWindowThreshold(k(2**21), 0.5, 2), 3),
        lambda k: model_sigma2(MovingWindowThreshold(k(3037000499), 0.5, 2), 2),
        lambda k: covariance_at_lag(MovingWindowThreshold(k(3037000499), 0.5, 2), (1, 0)),
    ], ids=["sample_field", "model_mean", "model_sigma2", "covariance_at_lag"])
    def test_numpy_integer_sizes_do_not_wrap(self, call):
        # sizes computed in int64 from np.int64 parameters wrap: an enlarged
        # grid of 5 cells that passes the cap, a wrapped table, or an
        # overflow warning; each call must raise what its Python int raises
        messages = []
        for kind in (int, np.int64):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CapacityError) as info:
                    call(kind)
            messages.append(str(info.value))
        assert messages[1] == messages[0]


def one_group_moments(model, d, shared):
    """(E g(a), Var g(a)) for one lag group of s = ``shared`` shared sites,
    the reference for the batched engine: two _binomial_pmf calls and an
    integer count table a + b under the rule."""
    w_size = (2 * model.window_radius + 1) ** d
    pmf_shared = _binomial_pmf(shared, model.theta)
    pmf_only = _binomial_pmf(w_size - shared, model.theta)
    counts = np.arange(shared + 1)[:, None] + np.arange(w_size - shared + 1)[None, :]
    g = lattice_fields._rule_on_counts(model, counts, d) @ pmf_only
    centered = g - pmf_shared @ g
    return float(pmf_shared @ g), float(pmf_shared @ (centered * centered))


def per_lag_sigma2(model, d):
    """sigma^2 by a loop over every lag: groups keyed by shared count in
    itertools.product order, one ``one_group_moments`` covariance per group,
    summed in group order; and each group's first lag and covariance."""
    w = 2 * model.window_radius + 1
    groups = {}  # shared count -> [first lag, covariance, signed lags]
    for lag in itertools.product(range(w), repeat=d):
        shared = math.prod(w - j for j in lag)
        if shared not in groups:
            cov = (model.p * (1.0 - model.p) if isinstance(model, IidBernoulli)
                   else one_group_moments(model, d, shared)[1])
            groups[shared] = [lag, cov, 0]
        groups[shared][2] += 2 ** sum(1 for j in lag if j)
    total = 0.0
    for _, cov, count in groups.values():
        total += count * cov
    return total, [(lag, cov) for lag, cov, _ in groups.values()]


BIT_THETAS = [0.0, 1e-300, 1e-9, 0.25, 0.5, 0.999, 1.0 - 2.0**-53, 1.0]


def bit_models():
    """Threshold and levels fields for d = 1..3 and m = 0..3 (at most 343
    window sites), and the iid field in each d."""
    for d in (1, 2, 3):
        yield pytest.param("iid", d, 0, id=f"iid-d{d}")
        for m in range(4):
            for kind in ("threshold", "levels"):
                yield pytest.param(kind, d, m, id=f"{kind}-d{d}-m{m}")


def bit_model(kind, d, m, theta):
    if kind == "iid":
        return IidBernoulli(p=theta)
    if kind == "threshold":  # a majority of the window
        return MovingWindowThreshold(m, theta, ((2 * m + 1) ** d + 1) // 2)
    return MovingWindowLevels(m, theta, 5)


class TestMomentBits:
    """The batched moments engine gives the bytes of one group at a time."""

    @pytest.fixture
    def rows_seen(self, monkeypatch):
        seen = []

        def recording(ks, p, _original=lattice_fields._binomial_rows):
            rows = _original(ks, p)
            seen.append((list(ks), p, rows))
            return rows

        monkeypatch.setattr(lattice_fields, "_binomial_rows", recording)
        return seen

    @staticmethod
    def assert_rows_are_pmfs(rows_seen):
        for ks, p, rows in rows_seen:
            assert rows.shape == (len(ks), max(ks) + 1)
            for k, row in zip(ks, rows):
                assert row[:k + 1].tobytes() == _binomial_pmf(k, p).tobytes(), (k, p)
                assert not row[k + 1:].any(), (k, p)

    @pytest.mark.parametrize("theta", BIT_THETAS)
    @pytest.mark.parametrize("kind, d, m", bit_models())
    def test_sigma2_mean_and_covariances_match_per_group_formula(self, kind, d, m, theta,
                                                                 rows_seen):
        model = bit_model(kind, d, m, theta)
        expected, groups = per_lag_sigma2(model, d)
        assert model_sigma2(model, d).value.hex() == expected.hex()
        for lag, cov in groups:
            assert covariance_at_lag(model, lag).hex() == cov.hex(), lag
        if kind != "iid":
            mean = one_group_moments(model, d, (2 * m + 1) ** d)[0]
            assert model_mean(model, d).hex() == mean.hex()
        self.assert_rows_are_pmfs(rows_seen)

    @pytest.mark.parametrize("d, m, kind", [(2, 10, "threshold"), (1, 200, "levels")])
    def test_chunked_groups_match_per_group_formula(self, d, m, kind, rows_seen):
        # 164 and 201 groups: their rows take several chunks
        model = bit_model(kind, d, m, 0.4335)
        assert model_sigma2(model, d).value.hex() == per_lag_sigma2(model, d)[0].hex()
        assert len(rows_seen) > 2
        self.assert_rows_are_pmfs(rows_seen)

    @pytest.mark.parametrize("p", [1, np.float32(0.3), np.float16(0.3)],
                             ids=["int", "float32", "float16"])
    def test_iid_moments_are_python_floats(self, p):
        model, q = IidBernoulli(p), float(p)
        for value, expected in [(model_mean(model, 2), q),
                                (covariance_at_lag(model, (0, 0)), q * (1.0 - q)),
                                (covariance_at_lag(model, (1, 0)), 0.0),
                                (model_sigma2(model, 2).value, q * (1.0 - q))]:
            assert type(value) is float and value.hex() == expected.hex()

    @pytest.mark.parametrize("theta", BIT_THETAS)
    @pytest.mark.parametrize("kind, d, m", bit_models())
    def test_one_pair_per_chunk_gives_the_same_bits(self, kind, d, m, theta, rows_seen):
        model = bit_model(kind, d, m, theta)
        shared = lattice_fields._lag_groups(2 * m + 1, d)[0]

        def moments():
            groups = lattice_fields._shared_count_moments(model, d, shared)
            return [model_sigma2(model, d).value, model_mean(model, d),
                    *itertools.chain.from_iterable(groups)]

        default = moments()
        rows_seen.clear()
        with mock.patch.object(lattice_fields, "_BLOCK_CELLS", 1):  # one pair a chunk
            chunked = moments()
        assert all(len(ks) == 1 for ks, _, _ in rows_seen)
        assert [v.hex() for v in chunked] == [v.hex() for v in default]

    @pytest.mark.parametrize("d, m, k_min, bound", [(3, 2, 63, 102_616), (2, 10, 200, 813_184)])
    def test_peak_memory_within_per_group_tables(self, d, m, k_min, bound):
        # the bounds are the tracemalloc peaks of an enumeration one group
        # at a time, which held an int64 count table and its rule values
        model = MovingWindowThreshold(m, 0.5, k_min)
        model_sigma2(model, d)
        tracemalloc.start()
        try:
            model_sigma2(model, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


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

    def test_numpy_scalars_write_the_python_bytes(self, tmp_path):
        # the validators accept numpy integers, so the header writes them as
        # the Python integers they equal
        values = sample_field(MAJORITY, LatticeCube(d=2, n=3), 5).values
        python = FieldSample(LatticeCube(2, 3), values, MAJORITY, 5)
        numpy = FieldSample(LatticeCube(np.int64(2), np.int64(3)), values,
                            MovingWindowThreshold(np.int64(1), np.float64(0.5), np.int64(2)),
                            np.int64(5))
        save_sample(python, tmp_path / "python.dat")
        save_sample(numpy, tmp_path / "numpy.dat")
        assert (tmp_path / "numpy.dat").read_bytes() == (tmp_path / "python.dat").read_bytes()
        assert model_to_dict(numpy.model) == model_to_dict(MAJORITY)

    def test_float32_theta_writes_the_same_bytes(self):
        # the model keeps float(theta), which JSON writes as it wrote the float32
        for model, text in [
            (MovingWindowThreshold(1, np.float32(0.3), 2),
             '{"type": "moving_window_threshold", "window_radius": 1, '
             '"theta": 0.30000001192092896, "k_min": 2}'),
            (IidBernoulli(np.float32(0.3)), '{"type": "iid_bernoulli", "p": 0.30000001192092896}'),
        ]:
            assert json.dumps(model_to_dict(model)) == text

    def test_unknown_model_type(self):
        with pytest.raises(ParameterError):
            model_from_dict({"type": "nope"})

    def test_unknown_model_has_no_dict(self):
        with pytest.raises(ParameterError, match="unknown model"):
            model_to_dict(object())

    def test_truncated_file(self, tmp_path):
        sample = sample_field(IidBernoulli(p=0.5), LatticeCube(d=1, n=3), 1)
        path = tmp_path / "sample.dat"
        save_sample(sample, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ConfigError):
            load_sample(path)

    def test_extra_value_line(self, tmp_path):
        path = tmp_path / "sample.dat"
        save_sample(sample_field(IidBernoulli(p=0.5), LatticeCube(d=1, n=3), 1), path)
        path.write_text(path.read_text() + "1\n")
        with pytest.raises(ConfigError, match="holds 8 values, cube needs 7"):
            load_sample(path)

    @pytest.mark.parametrize("case", sorted(SAVED_DIGESTS), ids=lambda c: c[0])
    def test_saved_bytes_golden(self, case, tmp_path):
        model, d, n, seed = case[1:]
        sample = sample_field(model, LatticeCube(d=d, n=n), seed)
        path = tmp_path / "sample.dat"
        save_sample(sample, path)
        data = path.read_bytes()
        assert data == per_cell_bytes(sample)
        assert hashlib.sha256(data).hexdigest() == SAVED_DIGESTS[case]

    @pytest.mark.parametrize("values", [
        SPECIAL_VALUES,
        np.arange(-3, 4),
        np.array([True, False, False, True, True]),
        np.array([0.1, -0.0, 1e30, np.nan, 0.1], dtype=np.float32),
    ], ids=["specials_and_normals", "int", "bool", "float32"])
    def test_saved_bytes_match_per_cell_format(self, values, tmp_path):
        sample = FieldSample(LatticeCube(d=1, n=values.size // 2), values, IidBernoulli(0.5), 3)
        path = tmp_path / "sample.dat"
        save_sample(sample, path)
        assert path.read_bytes() == per_cell_bytes(sample)
        assert_same_bits(load_sample(path).values, values)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(values=hnp.arrays(np.float64, st.integers(0, 40).map(lambda n: 2 * n + 1)))
    @example(values=np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324]))
    def test_saved_bytes_property(self, values):
        sample = FieldSample(LatticeCube(d=1, n=values.size // 2), values, IidBernoulli(0.5), 0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sample.dat")
            save_sample(sample, path)
            with open(path, "rb") as fh:
                assert fh.read() == per_cell_bytes(sample)
            assert_same_bits(load_sample(path).values, values)

    def _write(self, path, body, n=1):
        header = {"d": 1, "n": n, "seed": 5, "model": model_to_dict(IidBernoulli(0.5))}
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        return path

    @pytest.mark.parametrize("body", [
        b"1\n\n0.5\n   \n\t\n-0\n\n",
        b"1\r\n0.5\r\n-0\r\n",
        b"1\n0.5\n-0",
        b"  1 \n0.5\t\n-0\n",
    ], ids=["blank_lines", "crlf", "no_final_newline", "padded"])
    def test_loader_accepts(self, body, tmp_path):
        loaded = load_sample(self._write(tmp_path / "s.dat", body))
        assert_same_bits(loaded.values, np.array([1.0, 0.5, -0.0]))
        assert loaded.seed == 5

    @pytest.mark.parametrize("line", ["1 0", "one"])
    def test_loader_rejects_value_line(self, line, tmp_path):
        path = self._write(tmp_path / "s.dat", f"1\n{line}\n0\n".encode())
        with pytest.raises(ConfigError, match="malformed sample file") as info:
            load_sample(path)
        assert line in str(info.value)

    def test_loader_counts_without_preallocating(self, tmp_path):
        # the header's cube holds (2 * 10^8 + 1)^3, about 8e24 cells
        path = tmp_path / "s.dat"
        header = {"d": 3, "n": 100_000_000, "seed": 5, "model": model_to_dict(IidBernoulli(0.5))}
        path.write_text(json.dumps(header) + "\n1\n0\n1\n")
        with pytest.raises(ConfigError, match="holds 3 values, cube needs "):
            load_sample(path)

    @pytest.mark.parametrize("model, rare", [
        (MovingWindowLevels(window_radius=1, theta=0.37, levels=5), 0.1),
        (MovingWindowThreshold(window_radius=1, theta=0.5, k_min=5), 2.0),
    ], ids=["mixed_widths", "fixed_width"])
    @pytest.mark.parametrize("block_cells", [1, 2, 3, 64, 1 << 16])
    def test_saved_bytes_do_not_depend_on_blocks(self, model, rare, block_cells, tmp_path):
        # the last cell of a 51^2 cube is in every blocking's last block, and
        # off the probe's stride of 3, so its value first shows up there
        sample = sample_field(model, LatticeCube(d=2, n=25), 31)
        sample.values.ravel()[-1] = rare
        assert (sample.cube.size - 1) % lattice_fields._sample_step(sample.cube.size)
        path = tmp_path / "sample.dat"
        with mock.patch.object(lattice_fields, "_BLOCK_CELLS", block_cells):
            save_sample(sample, path)
        assert path.read_bytes() == per_cell_bytes(sample)

    @pytest.mark.parametrize("block_cells", [64, 1000, 1 << 16])
    def test_saved_bytes_when_the_probe_undercounts(self, block_cells, tmp_path):
        # every 4th of 81^2 cells holds its own value: the strided probe sees
        # few enough of them to index blocks in its table, and each block
        # completes that table by the many values it adds
        values = np.zeros(81 * 81)
        values[::4] = np.random.default_rng(5).random(values[::4].size)
        sample = FieldSample(LatticeCube(d=2, n=40), values.reshape(81, 81), IidBernoulli(0.5), 3)
        step = lattice_fields._sample_step(values.size)
        assert lattice_fields._probe(values[::step].view(np.uint64)) is not None
        path = tmp_path / "sample.dat"
        with mock.patch.object(lattice_fields, "_BLOCK_CELLS", block_cells):
            save_sample(sample, path)
        assert path.read_bytes() == per_cell_bytes(sample)

    @staticmethod
    def _traced_peak(call, *args):
        tracemalloc.start()
        try:
            result = call(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("make, block_cells, per_cell", [
        (LARGE_SAMPLE, 1 << 16, 48),
        (functools.partial(every_nth_distinct, 1), 4096, 512),
        (functools.partial(every_nth_distinct, 4), 4096, 512),
    ], ids=["threshold", "distinct", "probe_undercounts"])
    def test_saver_temporaries_stay_block_sized(self, make, block_cells, per_cell, tmp_path):
        # each block is indexed, formatted and written on its own, whether the
        # probe finds the sample's values few (threshold), mostly distinct
        # (distinct) or few enough to index blocks in its table although
        # most blocks add many (probe_undercounts); the untraced first save
        # takes the modules numpy imports on first use
        sample, path = make(), tmp_path / "sample.dat"
        with mock.patch.object(lattice_fields, "_BLOCK_CELLS", block_cells):
            save_sample(sample, path)
            _, peak = self._traced_peak(save_sample, sample, path)
        assert peak < per_cell * block_cells
        assert path.read_bytes() == per_cell_bytes(sample)

    def test_loader_fills_one_array_of_the_cube(self, tmp_path):
        # each block of lines is parsed straight into the cube's float64 array
        sample = LARGE_SAMPLE()
        path = tmp_path / "sample.dat"
        save_sample(sample, path)
        loaded, peak = self._traced_peak(load_sample, path)
        assert peak < sample.values.nbytes + 48 * lattice_fields._BLOCK_CELLS
        assert_same_bits(loaded.values, sample.values)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_loader_reads_a_pipe(self, tmp_path):
        # a pipe has no size to allocate the cube by, so the array grows
        sample = sample_field(MAJORITY, LatticeCube(d=2, n=30), 4)
        saved = tmp_path / "sample.dat"
        save_sample(sample, saved)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(saved.read_bytes()),
                                  daemon=True)  # a writer left blocked cannot hold up the run
        writer.start()
        try:
            with mock.patch.object(lattice_fields, "_BLOCK_CELLS", 64):
                loaded = load_sample(pipe)
        finally:
            writer.join(timeout=60)
        assert_same_bits(loaded.values, sample.values)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        lines=st.lists(st.tuples(st.sampled_from(LOADER_LINES), st.sampled_from(LOADER_ENDS)),
                       max_size=30),
        final_newline=st.booleans(),
        block_cells=st.sampled_from([1, 2, 3, lattice_fields._BLOCK_CELLS]),
    )
    @example(lines=[("0", "\r\n")] * 12 + [("1", "\r\n")] * 12, final_newline=True, block_cells=1)
    @example(lines=[("1", "\n"), ("one", "\n"), ("1 0", "\n")] * 4, final_newline=True,
             block_cells=2)
    @example(lines=[("0", "\n"), ("-0", "\r\n"), ("nan", "\r")] * 1001, final_newline=False,
             block_cells=lattice_fields._BLOCK_CELLS)  # one block, sampled with a stride
    def test_loader_matches_reference(self, lines, final_newline, block_cells):
        # small blocks cut lines, \r\n pairs and the carried partial line
        body = "".join(line + end for line, end in lines)
        if lines and not final_newline:
            body = body[: -len(lines[-1][1])]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(lattice_fields, "_BLOCK_CELLS", block_cells):
            path = self._write(pathlib.Path(tmp) / "s.dat", body.encode())
            try:
                expected = reference_load_values(path)
            except ValueError as exc:
                bad = ast.literal_eval(str(exc).split(": ", 1)[1]).removesuffix("\n")
                with pytest.raises(ConfigError, match="malformed sample file") as info:
                    load_sample(path)
                assert str(info.value).endswith(repr(bad))
                return
            # an odd count fills the cube of n = count // 2, an even one cannot
            self._write(path, body.encode(), n=expected.size // 2)
            if expected.size % 2:
                assert_same_bits(load_sample(path).values, expected)
            else:
                with pytest.raises(ConfigError, match=f"holds {expected.size} values"):
                    load_sample(path)

    @pytest.mark.parametrize("model, cube, rare", [
        (MovingWindowThreshold(window_radius=1, theta=0.5, k_min=14), LatticeCube(3, 10), 7),
        (MovingWindowLevels(window_radius=1, theta=0.37, levels=7), LatticeCube(3, 8), None),
    ], ids=["threshold_one_rare_cell", "levels7"])
    def test_repeated_values_round_trip(self, model, cube, rare, tmp_path):
        # the strided probes see every 10th or 5th cell: a value in cell 7
        # alone is missed by both, and levels(7) lines span three 8-byte words
        sample = sample_field(model, cube, 201)
        if rare is not None:
            sample.values.ravel()[rare] = 0.5
        path = tmp_path / "sample.dat"
        save_sample(sample, path)
        assert path.read_bytes() == per_cell_bytes(sample)
        loaded = load_sample(path).values
        assert_same_bits(loaded, reference_load_values(path))
        assert_same_bits(loaded, sample.values)

    @pytest.mark.parametrize("body", [
        "\u0661\n" * 3001,  # non-ASCII: float() reads it as 1.0
        "0\n \n1\n\x0c\n0.5\n" * 1001,  # blank and form-feed lines among values
        "10\n1000\n" * 1000 + "10\n1000\n100\n",  # widths whose mean is 4 bytes
        "1\n" * 2000 + "10\n",  # a length that is not a multiple of the line width
        "0.33333333333333331\n-0\n" * 1500 + "  0.33333333333333331\n",
    ], ids=["non_ascii", "blank_and_form_feed", "two_widths", "odd_length", "wide_lines"])
    @pytest.mark.parametrize("block_cells", [64, lattice_fields._BLOCK_CELLS])
    def test_loader_byte_table_edges(self, body, block_cells, tmp_path):
        with mock.patch.object(lattice_fields, "_BLOCK_CELLS", block_cells):
            path = self._write(tmp_path / "s.dat", body.encode())
            expected = reference_load_values(path)
            self._write(path, body.encode(), n=expected.size // 2)
            assert_same_bits(load_sample(path).values, expected)

    def test_loader_falls_back_when_line_keys_collide(self, tmp_path):
        # levels(4) lines take up to 20 bytes, three 8-byte words, so they are
        # keyed by a hash of their words; with one key for every line the
        # rows fail the check, and the block goes to the per-line parse
        sample = sample_field(MovingWindowLevels(window_radius=1, theta=0.4, levels=4),
                              LatticeCube(d=2, n=20), 7)
        path = tmp_path / "sample.dat"
        save_sample(sample, path)
        assert max(map(len, path.read_bytes().split(b"\n")[1:])) == 19
        calls = []
        for keys in (lattice_fields._row_keys, lambda rows: np.zeros(len(rows), np.uint64)):
            with mock.patch.object(lattice_fields, "_row_keys", keys), \
                    mock.patch.object(lattice_fields, "_parse_lines",
                                      wraps=lattice_fields._parse_lines) as per_line:
                loaded = load_sample(path).values
            calls.append(per_line.call_count)
            assert_same_bits(loaded, sample.values)
        assert calls == [1, 2]  # the final tail; then the block as well

    @pytest.mark.parametrize("blank", ["", " ", "\t", "\x0c", "\x1c", "  \x0b "])
    @pytest.mark.parametrize("block_cells", [64, lattice_fields._BLOCK_CELLS])
    def test_blank_lines_stay_on_the_byte_table(self, blank, block_cells, tmp_path):
        # one whitespace-only line per 1000 values of a threshold sample: the
        # table drops what filter(str.strip, ...) drops, so no block of it
        # falls back to the per-line parse, which sees only the final tail
        sample = sample_field(MovingWindowThreshold(window_radius=1, theta=0.5, k_min=14),
                              LatticeCube(3, 20), 201)
        path = tmp_path / "sample.dat"
        save_sample(sample, path)
        header, *lines = path.read_text().split("\n")
        for i in range(len(lines) - 1000, 0, -1000):
            lines.insert(i, blank)
        path.write_text("\n".join([header] + lines))
        with mock.patch.object(lattice_fields, "_parse_lines",
                               wraps=lattice_fields._parse_lines) as per_line, \
                mock.patch.object(lattice_fields, "_BLOCK_CELLS", block_cells):
            loaded = load_sample(path).values
        assert [len(call.args[0]) for call in per_line.call_args_list] == [1]
        assert_same_bits(loaded, reference_load_values(path))
        assert_same_bits(loaded, sample.values)

    @pytest.mark.parametrize("header", [
        "[1, 2]", "3", '"d"',
        '{"d": 1, "n": 1, "seed": "abc", "model": {"type": "iid_bernoulli", "p": 0.5}}',
        '{"d": 1, "n": 1, "seed": 1.5, "model": {"type": "iid_bernoulli", "p": 0.5}}',
    ], ids=["list", "number", "string", "seed_string", "seed_float"])
    def test_loader_rejects_header(self, header, tmp_path):
        path = tmp_path / "s.dat"
        path.write_text(header + "\n1\n0\n1\n")
        with pytest.raises(ConfigError):
            load_sample(path)


def test_field_sample_shape_checked():
    with pytest.raises(ShapeError):
        FieldSample(
            cube=LatticeCube(d=1, n=2),
            values=np.zeros(4),
            model=IidBernoulli(p=0.5),
            seed=0,
        )
