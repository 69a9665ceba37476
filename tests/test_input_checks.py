"""Inputs that are not what a function takes raise a typed error that names
them: a model, cube, sample, values array or config of the wrong type, and
an integer argument beyond the float range, quoted shortened."""

import contextlib
import io
import math

import numpy as np
import pytest

from ntcpfields import (
    EstimatorConfig, ExperimentConfig, FieldSample, IidBernoulli, LatticeCube, SingleHit, cli,
    confidence_interval, covariance_at_lag, errors, model_mean, model_sigma2, ntcp_estimate,
    partial_sum, sample_field, save_sample, self_normalized_statistic, variance_estimator,
    variance_gap,
)
from ntcpfields.cv_ntcp import damage_volume, ntcp_weiss_tail
from ntcpfields.dose_response import fsu_kill_probability
from ntcpfields.experiment import run_clt_experiment, write_report
from ntcpfields.lattice_fields import sample_fields_batch

ERRORS = tuple(v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, Exception))
H = 10**400  # beyond the float range
CUBE = LatticeCube(1, 2)
SAMPLE = sample_field(IidBernoulli(0.5), CUBE, 1)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Structured inputs: each entry point checks the type of a model, cube,
# sample, values array or config before it reads an attribute of it
# ---------------------------------------------------------------------------

ENTRY_POINTS = {
    "model_sigma2": lambda bad, tmp: model_sigma2(bad, 1),
    "model_mean": lambda bad, tmp: model_mean(bad, 1),
    "covariance_at_lag": lambda bad, tmp: covariance_at_lag(bad, (1,)),
    "sample_field.model": lambda bad, tmp: sample_field(bad, CUBE, 1),
    "sample_field.cube": lambda bad, tmp: sample_field(IidBernoulli(0.5), bad, 1),
    "sample_fields_batch": lambda bad, tmp: sample_fields_batch(bad, CUBE, [1, 2]),
    "variance_gap": lambda bad, tmp: variance_gap(bad, 1, [2], 10),
    "variance_estimator.config": lambda bad, tmp: variance_estimator(SAMPLE, bad),
    "variance_estimator.sample": lambda bad, tmp: variance_estimator(bad, EstimatorConfig()),
    "partial_sum": lambda bad, tmp: partial_sum(bad),
    "save_sample": lambda bad, tmp: save_sample(bad, tmp / "sample.dat"),
    "confidence_interval": lambda bad, tmp: confidence_interval(bad, 0.9),
    "ntcp_estimate": lambda bad, tmp: ntcp_estimate(bad, 3.0, 0.5),
    "self_normalized_statistic": lambda bad, tmp: self_normalized_statistic(bad, 0.5),
    "FieldSample.cube": lambda bad, tmp: FieldSample(bad, np.zeros(3), IidBernoulli(0.5), 1),
    "FieldSample.values": lambda bad, tmp: FieldSample(CUBE, bad, IidBernoulli(0.5), 1),
    "FieldSample.model": lambda bad, tmp: FieldSample(CUBE, np.zeros(5), bad, 1),
    "ExperimentConfig.model": lambda bad, tmp: ExperimentConfig(bad, 1, (2,), 10, 1),
    "ExperimentConfig.estimator": lambda bad, tmp: ExperimentConfig(
        IidBernoulli(0.5), 1, (2,), 10, 1, estimator=bad),
    "fsu_kill_probability": lambda bad, tmp: fsu_kill_probability(SingleHit(1.0), bad, 1.0),
    "damage_volume": lambda bad, tmp: damage_volume(bad, [0]),
    "write_report": lambda bad, tmp: write_report(bad, tmp / "report.csv"),
    "run_clt_experiment": lambda bad, tmp: run_clt_experiment(bad),
}


@pytest.mark.parametrize("bad", [None, "x", SingleHit(1.0)], ids=["None", "str", "SingleHit"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_wrongly_typed_input_raises_a_typed_error(tmp_path, call, bad):
    with pytest.raises(ERRORS) as info:
        call(bad, tmp_path)
    assert repr(bad) in str(info.value)
    assert not any(tmp_path.iterdir())  # save_sample writes no file


def test_a_list_of_values_is_not_a_sample():
    with pytest.raises(errors.DomainError, match=r"^values must be an instance of ndarray, got "
                                                 r"\[0, 1, 0\]$"):
        FieldSample(LatticeCube(1, 1), [0, 1, 0], IidBernoulli(0.5), 1)


def test_a_cell_population_is_checked_as_the_dose_model_beside_it():
    with pytest.raises(errors.ParameterError, match="^cells must be an instance of "
                                                    r"CellPopulation, got None$"):
        fsu_kill_probability(SingleHit(1.0), None, 0.0)


def test_a_dose_model_is_not_a_field_model():
    with pytest.raises(errors.ParameterError, match="^model must be an instance of IidBernoulli "
                                                    "or MovingWindowThreshold or "
                                                    r"MovingWindowLevels, got SingleHit\(alpha=0.3\)$"):
        model_sigma2(SingleHit(0.3), 1)


# ---------------------------------------------------------------------------
# Huge integers: the argument the caller gave is named, its value shortened
# ---------------------------------------------------------------------------

def test_weiss_tail_names_its_n():
    with pytest.raises(errors.DomainError, match="^n must be an integer >= 1 and <= "):
        ntcp_weiss_tail(H, 0.5, 3)
    code, out, err = _cli("ntcp", "--n", str(H), "--p", "0.5", "--L", "3", "--method", "weiss")
    assert (code, out) == (1, "")
    assert err.startswith("error: n must")


@pytest.mark.parametrize("method", ["normal", "weiss"])
def test_huge_value_is_quoted_shortened(method):
    code, out, err = _cli("ntcp", "--n", str(H), "--p", "0.5", "--L", "3", "--method", method)
    assert (code, out) == (1, "")
    assert len(err) < 200 and err.startswith("error: n must")
    assert err.endswith(", got 100000000000000000...0000000000000000000\n")


@pytest.mark.parametrize("value, quoted", [
    (math.nan, "nan"), ("x", "'x'"), (1.5, "1.5"), (np.float32(0.5), "np.float32(0.5)"),
    (np.float64(-1.7976931348623157e308), "np.float64(-1.7976931348623157e+308)"),
    (-(10**38), str(-(10**38))),  # 40 characters
])
def test_short_values_are_quoted_whole(value, quoted):
    with pytest.raises(errors.DomainError) as info:
        errors.real(value, "v", gt=0, lt=0)  # refuses every value
    assert str(info.value) == f"v must be a finite real > 0 and < 0, got {quoted}"
