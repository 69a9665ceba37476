"""Smoke test of the benchmark's own code at tiny sizes.

Not part of Tier-1 (pytest collects only tests/ by default).  Run it with

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from run import WORKLOAD_NAMES, Loop  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# Printed on the human-readable lines beside the gated metrics.
REPORTED = {"setup_s", "setup_s_raw", "ops_per_s", "op_s_p50", "op_s_tail", "op_s_min",
            "op_s_p50_norm", "op_s_tail_norm", "host_speed", "peak_rss_mb", "failed_ops_frac"}
WORK_RATES = {
    "clt_campaign": {"replicates_per_s", "cells_per_s"},
    "variance_gap": {"replicates_per_s", "cells_per_s"},
    "dose_planning": set(),
    "sample_roundtrip": {"cells_per_s"},
}


def _bench(*argv, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_and_digests_repeat(workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                      "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names = {m["name"] for m in SPEC[key]}
        assert set(result["metrics"]) == names
        printed = {line.split()[1] for line in lines if line.startswith("metric ")}
        assert names <= printed
        if trace == 0:
            assert REPORTED | WORK_RATES[workload] <= printed
        digests.append(next(line.split()[1] for line in lines if line.startswith("digest ")))
    # tracing must not change a single output byte
    assert digests[0] == digests[1]


def _tiny(workload_cls, tmp_path):
    workload = workload_cls(3, str(tmp_path), tiny=True)
    inp = workload.inputs()[0]
    out = workload.op(inp)
    workload.check(inp, out)
    return workload, inp, out


def _rewrite(path, edit):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def test_tampered_report_fails(tmp_path):
    workload, inp, out = _tiny(workloads.CltCampaign, tmp_path)
    header, first, *rest = open(inp.report_path).read().splitlines()
    fields = first.split(",")
    fields[header.split(",").index("sigma2")] = "0.5"
    _rewrite(inp.report_path, lambda _: "\n".join([header, ",".join(fields), *rest]) + "\n")
    with pytest.raises(workloads.CheckError):
        workload.check(inp, out)


def test_tampered_gap_point_fails(tmp_path):
    workload, inp, out = _tiny(workloads.VarianceGap, tmp_path)
    out[0] = dataclasses.replace(out[0], gap=out[0].gap * (1 + 1e-12) + 1e-15)
    with pytest.raises(workloads.CheckError):
        workload.check(inp, out)


def test_tampered_dose_row_fails(tmp_path):
    workload, inp, out = _tiny(workloads.DosePlanning, tmp_path)
    value = out.normal.value
    wrong = dataclasses.replace(out.normal, value=value + 0.5 if value < 0.5 else value - 0.5)
    with pytest.raises(workloads.CheckError):
        workload.check(inp, dataclasses.replace(out, normal=wrong))


def test_tampered_sample_file_fails(tmp_path):
    workload, inp, out = _tiny(workloads.SampleRoundtrip, tmp_path)

    def flip_first_value(text):
        header, first, rest = text.split("\n", 2)
        return "\n".join([header, "1" if first == "0" else "0", rest])

    _rewrite(inp.path, flip_first_value)
    with pytest.raises(workloads.CheckError):
        workload.check(inp, out)


def test_a_raising_op_is_counted_not_fatal(tmp_path):
    workload = workloads.VarianceGap(3, str(tmp_path), tiny=True)

    def capacity_error(inp):
        raise RuntimeError("cell cap exceeded")  # as CapacityError, uncaught by cli.main

    workload.op = capacity_error
    loop = Loop(workload, workload.inputs())
    latencies, _, _ = loop.run_phase(0.0)
    assert latencies == [] and loop.attempted == loop.failed == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "dose_planning", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
