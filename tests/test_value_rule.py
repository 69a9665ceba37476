"""One value rule: every validator returns a Python int or float, every
frozen input type keeps it and every function computes with it.

So a numpy scalar gives the bits and the Python types of the equal Python
value, a config reruns from its meta echo, and an integer that would enter
float arithmetic beyond the float range raises a typed error instead of a
bare OverflowError.
"""

import contextlib
import dataclasses
import io
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntcpfields import (
    ApproxResult, CellPopulation, EstimatorConfig, ExperimentConfig, FieldSample, Hybrid,
    IidBernoulli, LatticeCube, LinearQuadratic, MovingWindowLevels, MovingWindowThreshold,
    MultiTarget, OrganSpec, SingleHit, cli, confidence_interval, dose_for_fraction,
    dose_for_kill_probability, errors, fraction_curve_features, fsu_kill_probability,
    invert_fraction, kill_fraction, load_sample, model_sigma2, normal_quantile, ntcp_exact,
    ntcp_normal, ntcp_normal_integer_threshold, ntcp_weiss, run_clt_experiment, sample_field,
    save_sample, threshold_for_confidence, write_report,
)
from ntcpfields.cv_ntcp import ntcp_weiss_tail
from ntcpfields.experiment import load_config

ERRORS = tuple(v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, Exception))
MAJORITY = MovingWindowThreshold(1, 0.5, 2)
H = 10**400  # beyond the float range
TOP = int(sys.float_info.max)  # the largest integer that converts to float


def _same(got, expected):
    """Equal bits and equal Python types, through tuples and dataclasses."""
    assert type(got) is type(expected), (got, expected)
    if dataclasses.is_dataclass(expected):
        for f in dataclasses.fields(expected):
            _same(getattr(got, f.name), getattr(expected, f.name))
    elif isinstance(expected, tuple):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            _same(g, e)
    elif isinstance(expected, float):
        assert got.hex() == expected.hex()
    elif isinstance(expected, np.ndarray):
        assert got.tobytes() == expected.tobytes()
    else:
        assert got == expected


# ---------------------------------------------------------------------------
# The three cases that took a second, numpy arithmetic path
# ---------------------------------------------------------------------------

def test_float32_target_meets_its_tolerance():
    model, cells = SingleHit(0.3), CellPopulation(1)
    dose = dose_for_kill_probability(model, cells, np.float32(0.5))
    assert abs(fsu_kill_probability(model, cells, dose) - 0.5) <= 1e-10
    _same(dose, dose_for_kill_probability(model, cells, 0.5))


def test_float32_quantile_is_a_python_float():
    gamma = np.float32(0.95)
    _same(normal_quantile(gamma), normal_quantile(float(gamma)))


def test_config_reruns_from_its_meta_echo(tmp_path):
    config = ExperimentConfig(MAJORITY, 1, (27, 64, 243), 300, 5,
                              EstimatorConfig(eta=np.float32(1 / 3)),
                              levels=(np.float32(0.9),))
    write_report(run_clt_experiment(config), tmp_path / "first.csv")
    rerun = load_config(tmp_path / "first.csv.meta.json")
    write_report(run_clt_experiment(rerun), tmp_path / "rerun.csv")
    for suffix in (".csv", ".csv.meta.json"):
        assert ((tmp_path / f"first{suffix}").read_bytes()
                == (tmp_path / f"rerun{suffix}").read_bytes())
    assert rerun == config


# ---------------------------------------------------------------------------
# A numpy scalar in, the bits and types of the equal Python value out
# ---------------------------------------------------------------------------

SAMPLE = sample_field(MAJORITY, LatticeCube(1, 40), 3)
unit = st.floats(0.001, 0.999)
ints = st.integers(1, 10**6)

# each function with the strategy of its Python arguments; the models and
# cells are built inside, so their parameters are numpy scalars too
FUNCTIONS = {
    "normal_quantile": (normal_quantile, st.tuples(unit)),
    "ntcp_normal": (ntcp_normal, st.tuples(ints, unit, st.floats(-10.0, 1e6))),
    "ntcp_weiss": (ntcp_weiss, st.tuples(ints, unit, st.integers(0, 10**6),
                                         st.integers(0, 10**6))),
    "ntcp_exact": (ntcp_exact, st.tuples(st.integers(1, 300), unit, st.integers(0, 301))),
    "threshold_for_confidence": (threshold_for_confidence, st.tuples(ints, unit, unit)),
    "ntcp_normal_integer_threshold": (ntcp_normal_integer_threshold,
                                      st.tuples(ints, unit, unit)),
    "kill_fraction": (kill_fraction, st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 10.0))),
    "invert_fraction": (invert_fraction, st.tuples(unit, st.floats(0.0, 10.0))),
    "fraction_curve_features": (fraction_curve_features, st.tuples(st.floats(0.0, 10.0))),
    "fsu_kill_probability": (
        lambda alpha, m, n0, dose: fsu_kill_probability(MultiTarget(alpha, m),
                                                        CellPopulation(n0), dose),
        st.tuples(st.floats(0.01, 3.0), st.integers(1, 5), st.integers(1, 5),
                  st.floats(0.0, 20.0))),
    "dose_for_kill_probability": (
        lambda alpha, beta, m, n0, target: dose_for_kill_probability(
            Hybrid(alpha, beta, m), CellPopulation(n0), target),
        st.tuples(st.floats(0.01, 3.0), st.floats(0.0, 1.0), st.integers(1, 4),
                  st.integers(1, 4), unit)),
    "dose_for_fraction": (
        lambda alpha, beta, kappa, n, gamma: dose_for_fraction(
            LinearQuadratic(alpha, beta), CellPopulation(1), kappa, n, gamma),
        st.tuples(st.floats(0.01, 3.0), st.floats(0.0, 1.0), unit, ints,
                  st.floats(0.5, 0.999))),
    "confidence_interval": (
        lambda level, eta: confidence_interval(SAMPLE, level, EstimatorConfig(eta=eta)),
        st.tuples(unit, st.floats(0.05, 0.95))),
    "model_sigma2": (
        lambda radius, theta, k_min, d: model_sigma2(MovingWindowThreshold(radius, theta, k_min),
                                                     d),
        st.tuples(st.integers(0, 2), unit, st.integers(0, 6), st.integers(1, 2))),
}


def _as(kind, value):
    """``value`` as a numpy scalar: a float as ``kind`` when it is a float
    type, an int, or an integral float when ``kind`` is np.int64, as np.int64."""
    if isinstance(value, int):
        return np.int64(value)
    if kind is np.int64:
        return np.int64(value) if value.is_integer() else value
    with np.errstate(over="ignore"):  # a float16 above 65504 is inf
        return kind(value)


def _call(fn, args):
    try:
        return fn(*args)
    except ERRORS as exc:
        return type(exc)


@pytest.mark.parametrize("kind", [np.float16, np.float32, np.int64])
@pytest.mark.parametrize("name", FUNCTIONS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_numpy_scalars_give_the_python_bits(name, kind, data):
    fn, strategy = FUNCTIONS[name]
    numpy_args = [_as(kind, a) for a in data.draw(strategy)]
    # the Python value equal to each numpy scalar: a float16 0.3 is 0.300048828125
    expected = _call(fn, [a.item() if isinstance(a, np.generic) else a for a in numpy_args])
    got = _call(fn, numpy_args)
    if isinstance(expected, type):
        assert got is expected
    else:
        _same(got, expected)


@pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64])
def test_bandwidth_for_takes_numpy_scalars(kind):
    eta = kind(1 / 3)
    numpy, python = EstimatorConfig(eta=eta), EstimatorConfig(eta=eta.item())
    assert numpy == python
    for n in range(1, 5001):
        _same(numpy.bandwidth_for(np.int64(n)), python.bandwidth_for(n))


# ---------------------------------------------------------------------------
# Every frozen input type keeps Python scalars
# ---------------------------------------------------------------------------

F32, I64 = np.float32, np.int64
KEPT = [
    (SingleHit, (F32(0.3),)),
    (MultiTarget, (F32(0.3), I64(2))),
    (Hybrid, (F32(0.3), F32(0.1), I64(2))),
    (LinearQuadratic, (F32(0.3), np.float16(0.1))),
    (CellPopulation, (I64(3),)),
    (OrganSpec, (I64(2), F32(1.0), I64(1), np.array([0.25, 0.75]))),
    (OrganSpec, (I64(2), F32(1.0), F32(0.5))),
    (ApproxResult, (F32(0.25), np.float16(0.5), "Normal")),
    (LatticeCube, (I64(2), np.uint8(3))),
    (IidBernoulli, (np.float16(0.3),)),
    (MovingWindowThreshold, (I64(1), F32(0.3), np.int8(2))),
    (MovingWindowLevels, (I64(1), F32(0.3), np.uint16(4))),
    (FieldSample, (LatticeCube(1, 1), np.zeros(3), MAJORITY, np.uint64(2**63 + 5))),
    (EstimatorConfig, (I64(3), F32(0.25))),
    (ExperimentConfig, (MAJORITY, I64(1), np.array([2, 3]), I64(10), np.uint64(7),
                        EstimatorConfig(), F32(0.5), [F32(0.9), np.float16(0.5)])),
]


def _scalars(value):
    """Every number a kept field holds, through tuples."""
    if isinstance(value, tuple):
        for item in value:
            yield from _scalars(item)
    elif isinstance(value, (int, float, np.generic)):
        yield value


@pytest.mark.parametrize("cls, args", KEPT, ids=[cls.__name__ for cls, _ in KEPT])
def test_input_types_keep_python_scalars(cls, args):
    obj = cls(*args)
    for f in dataclasses.fields(obj):
        for value in _scalars(getattr(obj, f.name)):
            assert type(value) in (int, float), (f.name, value)
    plain = cls(*(a.item() if isinstance(a, np.generic) else a for a in args))
    _same(obj, plain)


# ---------------------------------------------------------------------------
# Integers beyond the float range: a typed error, never an OverflowError
# ---------------------------------------------------------------------------

HUGE_CALLS = {
    "real": lambda: errors.real(H, "x"),
    "probability": lambda: errors.probability(-H, "p"),
    "multi_target_m": lambda: MultiTarget(0.3, H),
    "hybrid_m": lambda: Hybrid(0.3, 0.1, H),
    "cells_n0": lambda: CellPopulation(H),
    "levels": lambda: MovingWindowLevels(1, 0.5, H),
    "normal_n": lambda: ntcp_normal(H, 0.5, 3),
    "normal_x": lambda: ntcp_normal(10, 0.5, H),
    "weiss_n": lambda: ntcp_weiss(H, 0.5, 1, 3),
    "weiss_k": lambda: ntcp_weiss(10, 0.5, -H, 3),
    "weiss_m": lambda: ntcp_weiss(10, 0.5, 1, H),
    "weiss_tail_n": lambda: ntcp_weiss_tail(H, 0.5, 3),
    "threshold_n": lambda: threshold_for_confidence(H, 0.5, 0.9),
    "integer_threshold_n": lambda: ntcp_normal_integer_threshold(H, 0.5, 0.9),
    "dose_for_fraction_n": lambda: dose_for_fraction(SingleHit(0.3), CellPopulation(1), 0.5,
                                                     H, 0.9),
    "eta": lambda: EstimatorConfig(eta=H),
    "bandwidth_for_n": lambda: EstimatorConfig().bandwidth_for(H),
    "mean_source": lambda: ExperimentConfig(MAJORITY, 1, (2,), 10, 1, mean_source=H),
}


@pytest.mark.parametrize("call", HUGE_CALLS.values(), ids=HUGE_CALLS)
def test_huge_integer_raises_a_domain_error(call):
    with pytest.raises(errors.DomainError):
        call()


def test_largest_float_integer_is_still_accepted():
    assert MultiTarget(0.3, TOP).m == TOP
    assert CellPopulation(TOP).n0 == TOP
    assert MovingWindowLevels(1, 0.5, TOP).levels == TOP
    assert ntcp_normal(TOP, 0.5, 3).value == 1.0
    # the Weiss correction is 0.0 at |t| whose square overflows, not a nan clamped to 0.0
    assert ntcp_weiss(10, 0.5, -TOP, TOP).value == 1.0
    assert ntcp_weiss(10, 0.5, 0, 10**160).value == ntcp_weiss(10, 0.5, 0, 10**6).value
    assert fsu_kill_probability(MultiTarget(0.3, TOP), CellPopulation(TOP), 1.0) == 0.0


def _run(argv):
    """``cli.main(argv)`` as (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# a valid command line of each subcommand; {tmp} is a directory holding s.dat
BASES = [
    ["ntcp", "--n", "10", "--p", "0.5", "--L", "3"],
    ["threshold", "--n", "10", "--p", "0.5", "--gamma", "0.9", "--kappa", "0.5"],
    ["dose", "--model", "hybrid", "--alpha", "0.3", "--beta", "0.1", "--m", "2",
     "--target-p", "0.5"],
    ["dose", "--model", "multi_target", "--alpha", "0.3", "--m", "2", "--kappa", "0.5",
     "--n", "10", "--gamma", "0.9"],
    ["simulate", "--field", "window_levels", "--theta", "0.5", "--d", "1", "--n", "3",
     "--seed", "1", "--out", "{tmp}/out.dat"],
    ["simulate", "--field", "window_threshold", "--theta", "0.5", "--k-min", "2", "--d", "1",
     "--n", "3", "--seed", "1", "--out", "{tmp}/out.dat"],
    ["estimate", "--sample", "{tmp}/s.dat", "--level", "0.95"],
]


def _integer_flags(command):
    """The flags of subcommand ``command`` whose values argparse reads as int."""
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return [a.option_strings[0] for a in sub.choices[command]._actions if a.type is int]


HUGE_ARGVS = [
    pytest.param(base, flag, id=f"{base[0]}{i}{flag}")
    for i, base in enumerate(BASES) for flag in _integer_flags(base[0])
]


def test_every_integer_flag_is_given_a_huge_value():
    assert {flag for _, flag in (p.values for p in HUGE_ARGVS)} == {
        "--n", "--L", "--m", "--n0", "--window-radius", "--k-min", "--levels", "--d", "--seed",
        "--bandwidth"}


@pytest.mark.parametrize("base, flag", HUGE_ARGVS)
def test_huge_integer_flag_exits_without_a_traceback(tmp_path, base, flag):
    save_sample(sample_field(MAJORITY, LatticeCube(1, 3), 1), tmp_path / "s.dat")
    argv = [token.replace("{tmp}", str(tmp_path)) for token in base]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(H)
    else:
        argv += [flag, str(H)]
    code, _, err = _run(argv)
    assert code in (0, 1, 2) and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "ntcp --n H --p 0.5 --L 3 --method normal",
    "ntcp --n H --p 0.5 --L 3 --method weiss",
    "ntcp --n 10 --p 0.5 --L H --method normal",
    "threshold --n H --p 0.5 --gamma 0.9",
    "dose --model multi_target --alpha 0.3 --m H --target-p 0.5",
    "dose --model lq --alpha 0.3 --beta 0.1 --n0 H --target-p 0.5",
    "dose --model lq --alpha 0.3 --beta 0.1 --kappa 0.5 --n H --gamma 0.9",
    "simulate --field window_levels --theta 0.5 --levels H --d 1 --n 3 --seed 1 --out F",
])
def test_huge_integer_in_float_arithmetic_exits_one(tmp_path, argv):
    argv = [str(H) if t == "H" else str(tmp_path / t) if t == "F" else t for t in argv.split()]
    code, out, err = _run(argv)
    assert (code, out) == (1, "") and err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "F").exists()


# ---------------------------------------------------------------------------
# A sample's seed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", ["x", True, 1.5, None])
def test_sample_seed_must_be_an_integer(seed):
    with pytest.raises(errors.DomainError, match="seed must be an integer"):
        FieldSample(LatticeCube(1, 1), np.zeros(3), MAJORITY, seed)


@pytest.mark.parametrize("seed", [np.uint64(2**63 + 5), -1], ids=["uint64", "minus_one"])
def test_integer_seed_saves_and_loads(tmp_path, seed):
    values = np.array([1.0, 0.0, 1.0])
    sample = FieldSample(LatticeCube(1, 1), values, MAJORITY, seed)
    assert type(sample.seed) is int and sample.seed == int(seed)
    save_sample(sample, tmp_path / "s.dat")
    loaded = load_sample(tmp_path / "s.dat")
    assert loaded.seed == int(seed) and loaded.model == MAJORITY
    assert loaded.values.tobytes() == values.tobytes()


def test_sample_field_refuses_a_fractional_seed_with_a_type_error():
    with pytest.raises(TypeError):
        sample_field(MAJORITY, LatticeCube(1, 1), 1.5)
