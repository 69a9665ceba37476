"""The benchmark's span tracer (perfbench/spans.py) replaces module
attributes of ntcpfields by name.  These tests keep those names in place
and keep the replicate stream calling through them, so that an import that
looks unused (such as ``experiment.derive_seeds``) cannot be dropped
without a failing test."""

import importlib
import importlib.util
import pathlib

import pytest

from ntcpfields import dependent_clt
from ntcpfields.experiment import ExperimentConfig, run_clt_experiment
from ntcpfields.lattice_fields import MovingWindowThreshold

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_span_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"ntcpfields.{module}"), attr))


def test_campaign_streams_through_dependent_clt_names(monkeypatch):
    calls = []
    for name in ("derive_seeds", "sample_fields_batch"):
        original = getattr(dependent_clt, name)

        def wrapper(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(dependent_clt, name, wrapper)
    config = ExperimentConfig(
        model=MovingWindowThreshold(1, 0.5, 2), d=1, n_schedule=(20, 40),
        replicates=20, master_seed=3,
    )
    run_clt_experiment(config)
    assert calls == ["derive_seeds", "sample_fields_batch"] * 2
