"""Property tests for the sampler's identities: a replicate batch equals the
corresponding single samples (field values and C_hat alike), and enlarging
the cube with the same seed keeps the interior values."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ntcpfields.dependent_clt import (
    EstimatorConfig,
    _variance_estimator_batch,
    variance_estimator,
)
from ntcpfields.lattice_fields import (
    IidBernoulli,
    LatticeCube,
    MovingWindowLevels,
    MovingWindowThreshold,
    sample_field,
    sample_fields_batch,
)

# few, fixed examples: these run in Tier-1
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

unit = st.floats(min_value=0.0, max_value=1.0)
radius = st.integers(min_value=0, max_value=2)
models = st.one_of(
    st.builds(IidBernoulli, p=unit),
    st.builds(MovingWindowThreshold, window_radius=radius, theta=unit,
              k_min=st.integers(min_value=0, max_value=30)),
    st.builds(MovingWindowLevels, window_radius=radius, theta=unit,
              levels=st.integers(min_value=2, max_value=9)),
)
dims = st.integers(min_value=1, max_value=3)
half_widths = st.integers(min_value=0, max_value=5)
seed = st.integers(min_value=0, max_value=2**64 - 1)


@PROPERTY
@given(model=models, d=dims, n=half_widths,
       seeds=st.lists(seed, min_size=1, max_size=40))
def test_batch_equals_single(model, d, n, seeds):
    cube = LatticeCube(d=d, n=n)
    batch = sample_fields_batch(model, cube, seeds)
    for row, s in zip(batch, seeds):
        assert np.array_equal(row, sample_field(model, cube, s).values)


@PROPERTY
@given(model=models, d=dims, n=half_widths,
       seeds=st.lists(seed, min_size=1, max_size=8),
       b=st.integers(min_value=1, max_value=12))
def test_chat_batch_equals_single(model, d, n, seeds, b):
    cube = LatticeCube(d=d, n=n)
    rows = _variance_estimator_batch(sample_fields_batch(model, cube, seeds), d, b)
    config = EstimatorConfig(bandwidth=b)
    assert rows.tolist() == [
        variance_estimator(sample_field(model, cube, s), config) for s in seeds
    ]


@PROPERTY
@given(model=models, d=dims, n=half_widths,
       grow=st.integers(min_value=1, max_value=4), s=seed)
def test_nested_cube_interior_agrees(model, d, n, grow, s):
    small = sample_field(model, LatticeCube(d=d, n=n), s).values
    big = sample_field(model, LatticeCube(d=d, n=n + grow), s).values
    interior = (slice(grow, grow + 2 * n + 1),) * d
    assert np.array_equal(big[interior], small)
