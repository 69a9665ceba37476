"""The error contract of the public API and of the CLI.

Every public callable imported in ``ntcpfields/__init__.py`` returns a
value, finite where its docstring promises one, or raises an ``errors.*``
exception, whatever scalars and sequences it is given; every subcommand
exits 0, 1 or 2 without a traceback.  ``RuntimeWarning`` is an error in
this suite, so a silent overflow or an invalid operation fails too.

Objects (models, cubes, samples, configs) come from their own fuzzed
constructors or are drawn valid.  Scalars and sequences get valid values
and nan, +-inf, -0.0, 10**30, a float where an integer belongs, True, a
string, None, and empty or ragged sequences.  Two arguments take numbers
only, because Python types them: ``normal_cdf``'s x, the per-value kernel
of ``ks_distance``, which checks nothing; and a sample seed, which raises
TypeError like ``operator.index`` (pinned in test_lattice_fields).
Sizes stay small: cubes up to 7^3 cells, a dozen replicates, FSU counts
up to 60 (10**30 only where a cap refuses it before allocating).
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ntcpfields
from ntcpfields import cli, errors
from ntcpfields import (
    ApproxResult, CellPopulation, EstimatorConfig, ExperimentConfig, ExperimentReport,
    FieldSample, FractionCurveFeatures, Hybrid, IidBernoulli, LatticeCube, LinearQuadratic,
    MovingWindowLevels, MovingWindowThreshold, MultiTarget, NormalizedStatistic, OrganSpec,
    SingleHit, confidence_interval, covariance_at_lag, coverage_study, damage_volume,
    default_bandwidth, dose_for_fraction, dose_for_kill_probability, estimator_consistency,
    fit_rate, fraction_curve_features, fsu_kill_probability, invert_fraction, kill_fraction,
    ks_distance, load_sample, model_mean, model_sigma2, normal_cdf, normal_quantile, ntcp_estimate,
    ntcp_exact, ntcp_normal, ntcp_normal_integer_threshold, ntcp_weiss, partial_sum,
    run_clt_experiment, sample_field, save_sample, self_normalized_statistic, surviving_fraction,
    threshold_for_confidence, variance_estimator, variance_gap, write_report,
)
from ntcpfields.cv_ntcp import ntcp_weiss_tail
from ntcpfields.experiment import config_from_dict
from ntcpfields.lattice_fields import derive_seeds, model_from_dict

ERRORS = tuple(v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, Exception))
SWEEP = settings(max_examples=250, deadline=None, derandomize=True, database=None)
nan, inf = math.nan, math.inf

# ---------------------------------------------------------------------------
# Strategies by parameter kind
# ---------------------------------------------------------------------------

BAD = [nan, inf, -inf, -0.0, 10**30, 2.5, 2.0, True, "x", None]


def ints(lo=-2, hi=6):
    return st.one_of(st.integers(lo, hi), st.sampled_from(BAD))


def reals(lo=-3.0, hi=3.0):
    return st.one_of(st.floats(lo, hi), st.sampled_from(BAD))


def seqs(elements):
    """Lists of ``elements``, empty ones, ragged lists of lists, a string."""
    return st.one_of(st.lists(elements, max_size=4),
                     st.lists(st.lists(elements, max_size=2), min_size=1, max_size=3),
                     st.just("ab"))


unit = st.floats(0.0, 1.0)
positive = st.floats(1e-3, 5.0)
field_models = st.one_of(
    st.builds(IidBernoulli, unit),
    st.builds(MovingWindowThreshold, st.integers(0, 2), unit, st.integers(0, 30)),
    st.builds(MovingWindowLevels, st.integers(0, 2), unit, st.integers(2, 9)),
)
cubes = st.builds(LatticeCube, st.integers(1, 3), st.integers(0, 3))
dose_models = st.one_of(
    st.builds(SingleHit, positive),
    st.builds(MultiTarget, positive, st.integers(1, 4)),
    st.builds(Hybrid, positive, unit, st.integers(1, 4)),
    st.builds(LinearQuadratic, positive, unit),
)
cell_populations = st.builds(CellPopulation, st.integers(1, 5))
estimators = st.builds(EstimatorConfig, st.one_of(st.none(), st.integers(1, 10**30)),
                       st.floats(0.05, 0.95))
organs = st.builds(OrganSpec, st.integers(1, 5), positive, st.integers(0, 1))
configs = st.builds(
    ExperimentConfig,
    model=field_models, d=st.integers(1, 3),
    n_schedule=st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True).map(sorted),
    replicates=st.integers(2, 12), master_seed=st.integers(-2**70, 2**70),
    estimator=estimators, mean_source=st.one_of(st.just("model"), st.floats(-1.0, 1.0)),
    levels=st.lists(st.floats(0.01, 0.99), max_size=2),
)


@st.composite
def samples(draw):
    """A drawn field, or any values of the cube's shape: nan, inf, +-1e30."""
    cube, model = draw(cubes), draw(field_models)
    if draw(st.booleans()):
        return sample_field(model, cube, draw(st.integers(0, 99)))
    values = draw(hnp.arrays(np.float64, cube.shape, elements=st.one_of(
        st.floats(-1e30, 1e30), st.sampled_from([nan, inf, -inf, -0.0]))))
    return FieldSample(cube, values, model, 0)


@st.composite
def regions(draw, sample):
    shape = draw(st.sampled_from([sample.cube.shape, (2,) * sample.cube.d, (1,)]))
    points = st.tuples(*[ints(-4, 4)] * draw(st.integers(1, 3)))
    return draw(st.one_of(st.none(), hnp.arrays(bool, shape), seqs(points)))


def args(*positional, **keywords):
    """The strategy of (args, kwargs) drawn from per-argument strategies."""
    return st.tuples(st.tuples(*positional), st.fixed_dictionaries(keywords))


# ---------------------------------------------------------------------------
# File-backed calls and config dicts
# ---------------------------------------------------------------------------

def _in_tmp(fn, name):
    """``fn(obj, path)`` as ``wrapped(obj)`` with path a fresh temporary file."""
    def wrapped(obj):
        with tempfile.TemporaryDirectory() as tmp:
            return fn(obj, os.path.join(tmp, name))
    wrapped.__name__ = fn.__name__
    return wrapped


def _on_text(fn):
    """``fn(path)`` as ``wrapped(text)`` with path a temporary file holding text."""
    def wrapped(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "file")
            with open(path, "w") as fh:
                fh.write(text)
            return fn(path)
    wrapped.__name__ = fn.__name__
    return wrapped


load_text = _on_text(load_sample)


MODEL = {"type": "moving_window_threshold", "window_radius": 1, "theta": 0.5, "k_min": 2}
HEADER = {"d": 1, "n": 1, "seed": 1, "model": MODEL}
CONFIG = {"model": MODEL, "d": 1, "n_schedule": [2, 3], "replicates": 10, "master_seed": 6}
DROP = object()
JSON_BAD = [1e30, 10**30, 2.5, 2.0, True, "x", None, [], {}, -1, 0]


def _edit(data, path, value):
    """A deep copy of ``data`` with the key at ``path`` set to ``value``
    (or removed for DROP); missing parents are added as empty objects."""
    data = json.loads(json.dumps(data))
    *parents, key = path
    target = data
    for parent in parents:
        target = target.setdefault(parent, {})
    if value is DROP:
        target.pop(key, None)
    else:
        target[key] = value
    return data


def edited(data, paths, extra=()):
    """``data`` with one key removed or set to a wrong or out-of-domain value."""
    values = st.sampled_from([DROP] + JSON_BAD + list(extra))
    return st.builds(_edit, st.just(data), st.sampled_from(paths), values)


MODEL_PATHS = [("type",), ("window_radius",), ("theta",), ("k_min",), ("p",), ("levels",)]
HEADER_PATHS = [("d",), ("n",), ("seed",), ("model",)] + [("model",) + p for p in MODEL_PATHS]
CONFIG_PATHS = ([(k,) for k in ("model", "d", "n_schedule", "replicates", "master_seed",
                                "bandwidth", "mean_source", "levels")]
                + [("model",) + p for p in MODEL_PATHS]
                + [("bandwidth", "b"), ("bandwidth", "eta"), ("mean_source", "hypothesized")])
CONFIG_EXTRA = [nan, inf, {"b": 10**30}, {"eta": nan}, {"hypothesized": nan}, [nan], [0.5, 1],
                "model", "iid_bernoulli", "moving_window_levels"]
sample_texts = st.one_of(
    st.builds(lambda h, body: json.dumps(h) + "\n" + body,
              edited(HEADER, HEADER_PATHS, [nan, inf, "iid_bernoulli"]),
              st.sampled_from(["1\n0\n1\n", "1\n1\n", "nan\ninf\n-inf\n", "x\n"])),
    st.sampled_from(["", "not json\n1\n", "[1]\n", "{}\n1\n"]),
)

# ---------------------------------------------------------------------------
# The calls: every public callable, with its parameters by kind
# ---------------------------------------------------------------------------

CALLS = {
    # cv_ntcp
    ApproxResult: args(reals(), st.one_of(st.none(), reals()), st.just("m")),
    FractionCurveFeatures: args(reals(), reals(), reals(), reals()),
    OrganSpec: args(ints(), reals(), st.one_of(ints(), reals()),
                    st.one_of(st.none(), seqs(reals(0.0, 3.0)))),
    damage_volume: args(organs, seqs(ints(0, 1))),
    dose_for_fraction: args(dose_models, cell_populations, reals(), ints(-2, 60), reals(0.0, 1.0),
                            st.one_of(st.just(1e-10), reals())),
    fraction_curve_features: args(reals()),
    invert_fraction: args(reals(), reals()),
    kill_fraction: args(reals(), reals()),
    normal_cdf: args(st.one_of(st.floats(), st.sampled_from([10**30, True, -0.0]))),
    normal_quantile: args(reals()),
    ntcp_exact: args(ints(-2, 60), reals(), ints(-2, 60)),
    ntcp_normal: args(ints(-2, 60), reals(), reals(-60.0, 60.0)),
    ntcp_normal_integer_threshold: args(ints(-2, 60), reals(), reals()),
    ntcp_weiss: args(ints(-2, 60), reals(), ints(-2, 60), ints(-2, 60)),
    ntcp_weiss_tail: args(ints(-2, 60), reals(), ints(-2, 60)),
    threshold_for_confidence: args(ints(-2, 60), reals(), reals()),
    # dependent_clt
    EstimatorConfig: args(st.one_of(st.none(), ints()), reals()),
    NormalizedStatistic: args(reals(), st.just("estimated"), reals(), reals(), reals(), ints()),
    confidence_interval: args(samples(), reals(), st.one_of(st.none(), estimators)),
    default_bandwidth: args(ints()),
    ntcp_estimate: args(samples(), reals(-400.0, 400.0), reals(), st.one_of(st.none(), estimators)),
    partial_sum: samples().flatmap(lambda s: args(st.just(s), regions(s))),
    self_normalized_statistic: args(samples(), reals(), st.one_of(st.none(), estimators),
                                    st.sampled_from(["estimated", "true_sigma", "nope"]),
                                    st.one_of(st.none(), reals())),
    variance_estimator: args(samples(), estimators),
    variance_gap: args(field_models, ints(), seqs(ints()), ints(), ints()),
    # dose_response
    CellPopulation: args(ints()),
    Hybrid: args(reals(), reals(), ints()),
    LinearQuadratic: args(reals(), reals()),
    MultiTarget: args(reals(), ints()),
    SingleHit: args(reals()),
    dose_for_kill_probability: args(dose_models, cell_populations, reals(),
                                    st.one_of(st.just(1e-10), reals())),
    fsu_kill_probability: args(dose_models, cell_populations, reals()),
    surviving_fraction: args(dose_models, reals()),
    # experiment
    ExperimentConfig: args(field_models, ints(), seqs(ints()), ints(), ints(), estimators,
                           st.one_of(st.just("model"), st.just("nope"), reals()),
                           seqs(reals(0.0, 1.0))),
    ExperimentReport: args(configs, st.just(())),
    coverage_study: args(configs),
    estimator_consistency: args(configs),
    fit_rate: args(seqs(st.one_of(st.tuples(ints(0, 8), reals(0.0, 1.0)),
                                  st.lists(reals(), max_size=3).map(tuple))), ints()),
    ks_distance: args(seqs(reals(-5.0, 5.0))),
    run_clt_experiment: args(configs),
    _in_tmp(write_report, "r.csv"): args(st.builds(ExperimentReport, configs, st.just(()))),
    config_from_dict: args(edited(CONFIG, CONFIG_PATHS, CONFIG_EXTRA)),
    # lattice_fields
    FieldSample: args(cubes, hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=3)),
                      field_models, ints()),
    IidBernoulli: args(reals()),
    LatticeCube: args(ints(), ints()),
    MovingWindowLevels: args(ints(), reals(), ints()),
    MovingWindowThreshold: args(ints(), reals(), ints()),
    covariance_at_lag: args(field_models, seqs(ints(-6, 6))),
    load_text: args(sample_texts),
    model_from_dict: args(edited(MODEL, MODEL_PATHS, [nan, "iid_bernoulli"])),
    model_mean: args(field_models, ints()),
    model_sigma2: args(field_models, ints()),
    sample_field: args(field_models, cubes, st.integers(-2**70, 2**70)),
    _in_tmp(save_sample, "s.dat"): args(samples()),
}

# records and the per-value kernel: they hand back what they were given
ECHOES = {"FractionCurveFeatures", "NormalizedStatistic", "ExperimentReport", "FieldSample",
          "normal_cdf", "load_sample"}


def _numbers(value):
    """Every float in a result, through dataclasses, sequences and arrays."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _numbers(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, np.ndarray) and value.dtype.kind == "f":
        yield from value.ravel().tolist()
    elif isinstance(value, (float, np.floating)):
        yield float(value)


# ---------------------------------------------------------------------------
# Inputs that ended in an untyped error, a later TypeError or a silent nan
# ---------------------------------------------------------------------------

MAJORITY = MovingWindowThreshold(1, 0.5, 2)
SAMPLE = sample_field(MAJORITY, LatticeCube(1, 5), 1)
SAMPLE_5 = sample_field(MAJORITY, LatticeCube(1, 2), 1)
INF_SAMPLE = FieldSample(LatticeCube(1, 2), np.array([inf, -inf, 0.0, 1.0, 0.0]), MAJORITY, 1)
HUGE_SAMPLE = FieldSample(LatticeCube(1, 1), np.array([1e200, -1e200, 1e200]), MAJORITY, 1)
MAX_SAMPLE = FieldSample(LatticeCube(1, 1), np.full(3, 1.7e308), MAJORITY, 1)
BIG_SAMPLE = FieldSample(LatticeCube(1, 2), np.full(5, 1e300), MAJORITY, 1)
TINY_SAMPLE = FieldSample(LatticeCube(1, 2), np.array([0.0, 1e-160, 0.0, 0.0, 0.0]), MAJORITY, 1)


def _config(**changes):
    return {"model": MAJORITY, "d": 1, "n_schedule": (2,), "replicates": 10, "master_seed": 1,
            **changes}


DEFECTS = [
    pytest.param(config_from_dict, (_edit(CONFIG, ("n_schedule",), DROP),), {},
                 id="config_without_n_schedule"),
    pytest.param(config_from_dict, (_edit(CONFIG, ("replicates",), DROP),), {},
                 id="config_without_replicates"),
    pytest.param(config_from_dict, (_edit(CONFIG, ("mean_source",), {}),), {},
                 id="config_without_hypothesized"),
    pytest.param(model_from_dict, ({"type": "iid_bernoulli"},), {}, id="model_without_p"),
    pytest.param(load_text, (json.dumps(_edit(HEADER, ("seed",), DROP)) + "\n1\n0\n1\n",), {},
                 id="header_without_seed"),
    pytest.param(load_text, ("not json\n1\n0\n1\n",), {}, id="header_not_json"),
    pytest.param(MultiTarget, (1.0, nan), {}, id="multi_target_m_nan"),
    pytest.param(MultiTarget, (1.0, inf), {}, id="multi_target_m_inf"),
    pytest.param(CellPopulation, (inf,), {}, id="cells_inf"),
    pytest.param(default_bandwidth, (nan,), {}, id="default_bandwidth_nan"),
    pytest.param(LatticeCube, (1, 1.5), {}, id="cube_n_fractional"),
    pytest.param(LatticeCube, (2.5, 1), {}, id="cube_d_fractional"),
    pytest.param(LatticeCube, (1, nan), {}, id="cube_n_nan"),
    pytest.param(MovingWindowThreshold, (1.5, 0.5, 2), {}, id="window_radius_fractional"),
    pytest.param(MovingWindowThreshold, (1, 0.5, nan), {}, id="k_min_nan"),
    pytest.param(MovingWindowLevels, (1, 0.5), {"levels": 2.5}, id="levels_fractional"),
    pytest.param(EstimatorConfig, (), {"bandwidth": 1.5}, id="bandwidth_fractional"),
    pytest.param(ExperimentConfig, (), _config(d=1.5), id="experiment_d_fractional"),
    pytest.param(ExperimentConfig, (), _config(replicates=2.5),
                 id="experiment_replicates_fractional"),
    pytest.param(ntcp_estimate, (SAMPLE, nan, 0.5), {}, id="ntcp_estimate_x_nan"),
    pytest.param(self_normalized_statistic, (SAMPLE, nan), {}, id="statistic_mean_nan"),
    pytest.param(ks_distance, ([nan, 0.0],), {}, id="ks_nan"),
    pytest.param(fit_rate, ([(1, nan), (2, 0.1)],), {}, id="fit_rate_ks_nan"),
    pytest.param(ntcp_weiss, (100, 0.3, nan, 50), {}, id="weiss_k_nan"),
    pytest.param(ntcp_weiss_tail, (100, 0.3, nan), {}, id="weiss_tail_threshold_nan"),
    pytest.param(dose_for_fraction, (SingleHit(1.0), CellPopulation(1), 0.5, 10, nan), {},
                 id="dose_for_fraction_gamma_nan"),
    pytest.param(SingleHit, (inf,), {}, id="single_hit_alpha_inf"),
    pytest.param(covariance_at_lag, (MAJORITY, (0.5,)), {}, id="lag_fractional"),
    pytest.param(partial_sum, (SAMPLE, [(1.5,)]), {}, id="point_fractional"),
    pytest.param(partial_sum, (SAMPLE_5, np.array([0, 1, 0, 1, 1])), {}, id="region_integer_mask"),
    pytest.param(partial_sum, (SAMPLE, [0]), {}, id="region_bare_int"),
    pytest.param(ExperimentConfig, (), _config(mean_source=nan),
                 id="experiment_mean_source_nan"),
    pytest.param(OrganSpec, (3, inf, 1), {}, id="organ_volume_inf"),
    pytest.param(OrganSpec, (3, 1.0, True), {}, id="organ_reserve_true"),
    pytest.param(ntcp_normal, (10, 0.5, nan), {}, id="normal_x_nan"),
    pytest.param(self_normalized_statistic, (SAMPLE, 0.5), {"mode": "true_sigma", "sigma2": nan},
                 id="statistic_sigma2_nan"),
    pytest.param(self_normalized_statistic, (INF_SAMPLE, 0.5),
                 {"mode": "true_sigma", "sigma2": 1.0}, id="statistic_true_sigma_infs"),
    pytest.param(model_sigma2, (MovingWindowThreshold(50, 0.5, 2), 3), {},
                 id="sigma2_table_above_cap"),
    pytest.param(damage_volume, (OrganSpec(2, 1.0, 1), [2, nan]), {}, id="damage_states_2_nan"),
    pytest.param(variance_estimator, (HUGE_SAMPLE, EstimatorConfig()), {}, id="chat_overflows"),
    pytest.param(partial_sum, (MAX_SAMPLE,), {}, id="sum_overflows"),
    pytest.param(partial_sum, (MAX_SAMPLE, [(0,), (1,)]), {}, id="point_sum_overflows"),
    pytest.param(self_normalized_statistic, (BIG_SAMPLE, 0.0),
                 {"mode": "true_sigma", "sigma2": 1e-300}, id="statistic_overflows"),
    pytest.param(ntcp_estimate, (TINY_SAMPLE, 1e300, 0.0), {}, id="ntcp_estimate_overflows"),
    pytest.param(derive_seeds, (1.5, 0, [1]), {}, id="derive_seeds_master_fractional"),
    pytest.param(derive_seeds, (1, 0.5, [1]), {}, id="derive_seeds_group_fractional"),
    pytest.param(derive_seeds, (1, 0, [1.5]), {}, id="derive_seeds_index_fractional"),
    pytest.param(derive_seeds, (1, 0, [True]), {}, id="derive_seeds_index_bool"),
    pytest.param(derive_seeds, (1, 0, [2**64]), {}, id="derive_seeds_index_2_64"),
]


@pytest.mark.parametrize("fn, args, kwargs", DEFECTS)
def test_defect_raises_typed_error(fn, args, kwargs):
    with pytest.raises(ERRORS):
        fn(*args, **kwargs)


def test_messages_name_the_problem():
    with pytest.raises(errors.DomainError, match="x must be a finite real, got nan"):
        ntcp_normal(10, 0.5, nan)
    with pytest.raises(errors.DomainError, match="sigma2 must be a finite real, got nan"):
        self_normalized_statistic(SAMPLE, 0.5, mode="true_sigma", sigma2=nan)
    with pytest.raises(errors.ConfigError, match="config has no value for 'replicates'"):
        config_from_dict(_edit(CONFIG, ("replicates",), DROP))


def test_sweep_covers_every_public_callable():
    public = {name for name, value in vars(ntcpfields).items()
              if callable(value) and not name.startswith("_")}
    assert public <= {fn.__name__ for fn in CALLS}


def _with_defect_examples(test):
    for param in DEFECTS:
        fn, positional, keywords = param.values
        test = example(call=(fn, (positional, keywords)))(test)
    return test


@SWEEP
@given(call=st.one_of([st.tuples(st.just(fn), s) for fn, s in CALLS.items()]))
@_with_defect_examples
def test_api_returns_a_value_or_a_typed_error(call):
    fn, (args, kwargs) = call
    try:
        result = fn(*args, **kwargs)
    except ERRORS:
        return
    if fn.__name__ not in ECHOES:
        assert all(math.isfinite(v) for v in _numbers(result)), (fn.__name__, result)


# ---------------------------------------------------------------------------
# The CLI: every subcommand exits 0, 1 or 2 and prints no traceback
# ---------------------------------------------------------------------------

def run_cli(argv, files=()):
    """``cli.main(argv)`` with ``{tmp}`` in argv a temporary directory that
    holds ``files`` (name, bytes); returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files:
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(content)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([token.replace("{tmp}", tmp) for token in argv])
    return code, out.getvalue(), err.getvalue()


def tokens(*valid):
    """A flag value: one of ``valid`` or a bad or extreme token."""
    return st.sampled_from(list(valid) + ["nan", "inf", "-inf", "-0.0", "2.5", "1e30",
                                          str(10**30), "x"])


def command(name, required, optional):
    """argv of subcommand ``name``: every required flag, any of the optional ones."""
    present = [values.map(lambda v, f=flag: [f, v]) for flag, values in required.items()]
    maybe = [st.one_of(st.just([]), values.map(lambda v, f=flag: [f, v]))
             for flag, values in optional.items()]
    fmt = st.one_of(st.just([]), st.sampled_from(["text", "csv", "json"]).map(
        lambda v: ["--format", v]))
    return st.tuples(*present, *maybe, fmt).map(lambda parts: [name] + sum(parts, []))


HEADER_TEXT = json.dumps(HEADER)
SAMPLE_FILES = st.one_of(
    st.just(HEADER_TEXT + "\n1\n0\n1\n"),
    st.just(HEADER_TEXT + "\n1\n1\n1\n"),
    sample_texts,
).map(lambda text: [("s.dat", text.encode())])
CONFIG_FILES = st.one_of(
    st.just(json.dumps(CONFIG)),
    edited(CONFIG, CONFIG_PATHS, CONFIG_EXTRA).map(json.dumps),
    st.sampled_from(["not json", "[1]", "", "{\"d\": 1"]),
).map(str.encode).flatmap(lambda content: st.sampled_from([content, content + b"\xff"])).map(
    lambda content: [("c.json", content)])
OUT = st.sampled_from(["{tmp}/out", "{tmp}/missing/out"])
PROB = tokens("0", "0.3", "0.5", "1")
cli_cases = st.one_of(
    st.tuples(command("ntcp", {"--n": tokens("1", "10", "60", "0"), "--p": PROB,
                               "--L": tokens("0", "5", "61", "-1")},
                      {"--method": st.sampled_from(["exact", "normal", "weiss", "all"])}),
              st.just([])),
    st.tuples(command("threshold", {"--n": tokens("1", "10", "60"), "--p": PROB,
                                    "--gamma": tokens("0.5", "0.9", "0.1")},
                      {"--kappa": tokens("0.2", "0.5", "1")}), st.just([])),
    st.tuples(command("dose", {"--model": st.sampled_from(["single_hit", "multi_target",
                                                           "hybrid", "lq"]),
                               "--alpha": tokens("0.5", "1", "0")},
                      {"--beta": tokens("0", "0.1"), "--m": tokens("1", "3"),
                       "--n0": tokens("1", "4"), "--target-p": tokens("0.5", "0.99", "1"),
                       "--kappa": tokens("0.3", "0.9"), "--n": tokens("10", "60"),
                       "--gamma": tokens("0.5", "0.9", "0.2"),
                       "--tolerance": tokens("1e-10", "0", "1e-300")}), st.just([])),
    st.tuples(command("simulate", {"--field": st.sampled_from(["iid", "window_threshold",
                                                               "window_levels"]),
                                   "--d": tokens("1", "2", "3", "4"),
                                   "--n": tokens("0", "3", "20", "-1"),
                                   "--seed": tokens("0", "-5", str(2**70)), "--out": OUT},
                      {"--p": PROB, "--theta": PROB, "--window-radius": tokens("0", "3", "-1"),
                       "--k-min": tokens("0", "2", "400"), "--levels": tokens("2", "5", "1")}),
              st.just([])),
    st.tuples(command("estimate", {"--sample": st.sampled_from(["{tmp}/s.dat",
                                                                "{tmp}/missing.dat"])},
                      {"--bandwidth": tokens("1", "2", "3", "0"), "--eta": tokens("0.3", "1"),
                       "--level": tokens("0.95", "1", "0"), "--mean": tokens("0.5", "1"),
                       "--x": tokens("2", "-1")}), SAMPLE_FILES),
    st.tuples(command("experiment", {"--config": st.just("{tmp}/c.json"), "--out": OUT}, {}),
              CONFIG_FILES),
)
BIG = str(10**30)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=cli_cases)
@example(case=(["estimate", "--sample", "{tmp}/s.dat", "--bandwidth", BIG],
               [("s.dat", (HEADER_TEXT + "\n1\n0\n1\n").encode())]))
@example(case=(["experiment", "--config", "{tmp}/c.json", "--out", "{tmp}/r.csv"],
               [("c.json", json.dumps({**CONFIG, "bandwidth": {"b": 10**30}}).encode())]))
def test_cli_exits_0_1_or_2(case):
    argv, files = case
    code, _, err = run_cli(argv, files)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_huge_bandwidth_prints_what_the_side_prints():
    # every b >= side - 1 clips each window to the whole axis, so C_hat is
    # the same (here 0: the whole cube is every window)
    files = [("s.dat", (json.dumps({**HEADER, "d": 2, "n": 2}) + "\n"
                        + "".join(f"{v}\n" for v in [1, 0, 0, 1, 1] * 5)).encode())]
    argv = ["estimate", "--sample", "{tmp}/s.dat"]
    huge = run_cli(argv + ["--bandwidth", BIG], files)
    assert huge == (0, "sum 15\nmean 0.6\nchat 0\n", "")
    assert huge == run_cli(argv + ["--bandwidth", "5"], files)


@pytest.mark.parametrize("path", CONFIG_PATHS[:5] + [("model", "type"), ("model", "theta")],
                         ids="/".join)
def test_config_without_a_required_key_exits_two(path):
    files = [("c.json", json.dumps(_edit(CONFIG, path, DROP)).encode())]
    code, out, err = run_cli(["experiment", "--config", "{tmp}/c.json", "--out", "{tmp}/r"],
                             files)
    assert (code, out) == (2, "") and repr(path[-1]) in err and "c.json" in err


HEADER_KEYS = [("d",), ("n",), ("seed",), ("model",),
               *(("model", key) for key in ("type", "window_radius", "theta", "k_min"))]


@pytest.mark.parametrize("path", HEADER_KEYS + [None],
                         ids=["no_" + "_".join(path) for path in HEADER_KEYS] + ["not_json"])
def test_header_without_a_required_key_exits_two(path):
    header = "not json" if path is None else json.dumps(_edit(HEADER, path, DROP))
    code, out, err = run_cli(["estimate", "--sample", "{tmp}/s.dat"],
                             [("s.dat", (header + "\n1\n0\n1\n").encode())])
    assert (code, out) == (2, "") and "s.dat" in err
    if path is not None:
        assert repr(path[-1]) in err


@pytest.mark.parametrize("model, code", [
    pytest.param({**MODEL, "theta": 2.0}, 1, id="theta_out_of_range"),
    pytest.param({**MODEL, "type": "nope"}, 1, id="unknown_type"),
    pytest.param({**MODEL, "k_min": "x"}, 2, id="k_min_a_string"),
])
def test_bad_model_names_the_file(model, code):
    config = json.dumps({**CONFIG, "model": model}).encode()
    header = (json.dumps({**HEADER, "model": model}) + "\n1\n0\n1\n").encode()
    for argv, name, content in [
        (["experiment", "--config", "{tmp}/c.json", "--out", "{tmp}/r"], "c.json", config),
        (["estimate", "--sample", "{tmp}/s.dat"], "s.dat", header),
    ]:
        status, out, err = run_cli(argv, [(name, content)])
        assert (status, out) == (code, "") and name in err


def test_overflowing_sample_exits_one():
    # finite values whose squared deviations pass 1.8e308: C_hat would be inf
    sample = json.dumps(HEADER) + "\n1e200\n-1e200\n1e200\n"
    code, out, err = run_cli(["estimate", "--sample", "{tmp}/s.dat", "--level", "0.95"],
                             [("s.dat", sample.encode())])
    assert (code, out) == (1, "") and "overflows" in err


def test_wide_window_config_exits_one():
    # sigma^2 comes first in a campaign: its lag-(1, 0, 0) table would take 77.5 GiB
    config = {**CONFIG, "d": 3, "model": {**MODEL, "window_radius": 50}}
    code, out, err = run_cli(["experiment", "--config", "{tmp}/c.json", "--out", "{tmp}/r"],
                             [("c.json", json.dumps(config).encode())])
    assert (code, out) == (1, "") and "exceeds the cap" in err
