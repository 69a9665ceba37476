"""The site hash against an independent oracle: splitmix64 in Python
integers, with its constants written out here, chained over the seed and
one coordinate at a time.  Keyed hashes, replicate seeds and the sampler's
noise are checked at a few sites in d = 1, 2 and 3, with negative
coordinates and seeds at or above 2^63, so a change to the axis keys and
the hash together cannot keep the other tests green by agreeing with
itself.  A property checks the fold that lets the keys be stored
premixed: splitmix64's first step is linear over xor."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntcpfields import lattice_fields
from ntcpfields.lattice_fields import (
    IidBernoulli,
    LatticeCube,
    MovingWindowThreshold,
    derive_seeds,
    sample_fields_batch,
)

MASK = 2**64 - 1
TAG_NOISE = 0x243F6A8885A308D3
TAG_REPLICATE = 0x13198A2E03707344
AXIS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)


def splitmix64(x):
    """The splitmix64 finalizer (Steele, Lea and Flood 2014) on one integer."""
    x &= MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def oracle(seed, tag, site):
    """The keyed hash of ``seed`` under ``tag`` at the coordinates ``site``."""
    h = splitmix64((seed & MASK) ^ tag)
    for k, c in enumerate(site):
        h = splitmix64(h ^ (((c & MASK) * AXIS[k]) & MASK))
    return h


def noise(seed, site, theta):
    """A site's Bernoulli(theta) noise: u < theta for u = (h >> 11) 2^-53."""
    return (oracle(seed, TAG_NOISE, site) >> 11) * 2.0**-53 < theta


SEEDS = [0, 1, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1, -1, -(2**63)]
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("tag", [TAG_NOISE, TAG_REPLICATE], ids=["noise", "replicate"])
def test_keyed_hash_matches_oracle(d, tag):
    axes = [np.arange(-6, 4), np.arange(-3, 2), np.arange(-2, 3)][:d]
    seeds = np.array([s & MASK for s in SEEDS], dtype=np.uint64)
    hashes = lattice_fields._keyed_hash(seeds, lattice_fields._axis_keys(axes),
                                        np.uint64(tag))
    assert hashes.shape == (len(SEEDS),) + tuple(len(a) for a in axes)
    corners = list(itertools.product(*[(0, len(a) - 1) for a in axes]))
    for row, seed in enumerate(SEEDS):
        for index in corners + [tuple(len(a) // 2 for a in axes)]:
            site = [int(a[i]) for a, i in zip(axes, index)]
            assert int(hashes[(row,) + index]) == oracle(seed, tag, site), (seed, site)


@pytest.mark.parametrize("master", [0, 7, 2**63, 2**64 - 1, -5])
@pytest.mark.parametrize("group", [0, 3200, -1, 2**63 + 1])
def test_derive_seeds_matches_oracle(master, group):
    indices = np.array([[0, 1, 1999], [-1, -(2**63), 2**62]], dtype=np.int64)
    seeds = derive_seeds(master, group, indices)
    assert seeds.dtype == np.uint64 and seeds.shape == indices.shape
    for index, seed in zip(indices.ravel().tolist(), seeds.ravel().tolist()):
        assert seed == oracle(master, TAG_REPLICATE, [group, index])
    above = derive_seeds(master, group, np.array([2**63, 2**64 - 1], dtype=np.uint64))
    assert above.tolist() == [oracle(master, TAG_REPLICATE, [group, i])
                              for i in (2**63, 2**64 - 1)]


@pytest.mark.parametrize("d,n", [(1, 7), (2, 3), (3, 2)])
def test_iid_sample_is_the_oracle_noise(d, n):
    # the iid field is the radius-0 window: a site's value is its own noise
    model, cube = IidBernoulli(p=0.37), LatticeCube(d=d, n=n)
    values = sample_fields_batch(model, cube, SEEDS)
    for row, seed in enumerate(SEEDS):
        for index in itertools.product(range(cube.side), repeat=d):
            site = [i - n for i in index]
            assert values[(row,) + index] == noise(seed, site, model.theta), (seed, site)


@pytest.mark.parametrize("d,n", [(1, 4), (2, 2), (3, 1)])
def test_window_sample_is_the_oracle_count(d, n):
    # a window count reads the noise of the halo too, at coordinates past -n and n
    model, cube = MovingWindowThreshold(window_radius=1, theta=0.5, k_min=2), LatticeCube(d, n)
    values = sample_fields_batch(model, cube, SEEDS)
    for row, seed in enumerate(SEEDS):
        for index in [(0,) * d, (cube.side - 1,) * d, (n,) * d]:
            centre = [i - n for i in index]
            count = sum(noise(seed, [c + o for c, o in zip(centre, offset)], model.theta)
                        for offset in itertools.product((-1, 0, 1), repeat=d))
            assert values[(row,) + index] == (count >= model.k_min), (seed, centre)


uint64_arrays = st.lists(st.integers(min_value=0, max_value=MASK), min_size=1, max_size=16)


@PROPERTY
@given(pairs=st.lists(st.tuples(st.integers(0, MASK), st.integers(0, MASK)),
                      min_size=1, max_size=16))
def test_premix_folds_over_xor(pairs):
    a, b = (np.array(column, dtype=np.uint64) for column in zip(*pairs))
    folded = lattice_fields._premix(a.copy()) ^ lattice_fields._premix(b.copy())
    assert np.array_equal(lattice_fields._premix(a ^ b), folded)


@PROPERTY
@given(values=uint64_arrays)
def test_split_finalizer_is_splitmix64(values):
    h = np.array(values, dtype=np.uint64)
    scratch = np.empty_like(h)
    split = lattice_fields._mix_premixed(lattice_fields._premix(h.copy(), scratch), scratch)
    expected = [splitmix64(v) for v in values]
    assert split.tolist() == expected
    assert lattice_fields._mix64(h.copy()).tolist() == expected
