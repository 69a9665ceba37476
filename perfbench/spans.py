"""Layer spans recorded from outside the package.

A traced run replaces the module attributes through which one ntcpfields
module calls into another (and through which the benchmark calls the
package) with thin wrappers.  While an op is being recorded, each wrapper
appends one span: its name, layer, start, end, parent span and a work
count taken from the call's arguments or result.  Spans stay in memory
and are written as JSONL when the run ends.  An untraced run never
creates a ``Tracer``, so nothing is installed.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

LAYERS = (
    "lattice_fields.seeds",
    "lattice_fields.sample",
    "lattice_fields.moments",
    "lattice_fields.sample_io",
    "dependent_clt.chat",
    "dependent_clt.gap_loop",
    "experiment.campaign_loop",
    "experiment.ks",
    "experiment.report_io",
    "cv_ntcp.exact_tail",
    "cv_ntcp.approx",
    "dose_response.kill_probability",
    "cli",
)

# Bytes of the noise arrays the sampler builds per noise cell: the uint64
# site hash and the float64 Bernoulli noise.
_NOISE_BYTES_PER_CELL = 16


def _noise_cells(model, cube, batch: int) -> int:
    """Noise cells including the 2m halo of the window models."""
    return batch * (cube.side + 2 * model.window_radius) ** cube.d


def _batch_cells(args, kwargs, result) -> int:
    model, cube, seeds = args[:3]
    return _noise_cells(model, cube, len(seeds))


def _single_cells(args, kwargs, result) -> int:
    return _noise_cells(args[0], args[1], 1)


def _saved_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[1])


def _loaded_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _report_bytes(args, kwargs, result) -> int:
    path = str(args[1])
    return os.path.getsize(path) + os.path.getsize(path + ".meta.json")


# (module, attribute, layer, work count).  ``normal_cdf`` as bound inside
# ``experiment`` is left alone: ks_distance calls it once per value in a
# Python loop, and a span per scalar call would cost more than the call,
# so that time is counted as ks time.
TARGETS = (
    ("experiment", "derive_seeds", "lattice_fields.seeds", None),
    ("dependent_clt", "derive_seeds", "lattice_fields.seeds", None),
    ("experiment", "sample_fields_batch", "lattice_fields.sample", _batch_cells),
    ("dependent_clt", "sample_fields_batch", "lattice_fields.sample", _batch_cells),
    ("lattice_fields", "sample_field", "lattice_fields.sample", _single_cells),
    ("experiment", "model_sigma2", "lattice_fields.moments", None),
    ("experiment", "model_mean", "lattice_fields.moments", None),
    ("dependent_clt", "model_sigma2", "lattice_fields.moments", None),
    ("lattice_fields", "model_sigma2", "lattice_fields.moments", None),
    ("lattice_fields", "model_mean", "lattice_fields.moments", None),
    ("lattice_fields", "covariance_at_lag", "lattice_fields.moments", None),
    ("lattice_fields", "save_sample", "lattice_fields.sample_io", _saved_bytes),
    ("lattice_fields", "load_sample", "lattice_fields.sample_io", _loaded_bytes),
    ("experiment", "_variance_estimator_batch", "dependent_clt.chat",
     lambda args, kwargs, result: args[0].size),
    ("dependent_clt", "variance_estimator", "dependent_clt.chat",
     lambda args, kwargs, result: args[0].values.size),
    ("dependent_clt", "variance_gap", "dependent_clt.gap_loop", None),
    ("experiment", "run_clt_experiment", "experiment.campaign_loop", None),
    ("experiment", "ks_distance", "experiment.ks",
     lambda args, kwargs, result: len(args[0])),
    ("experiment", "write_report", "experiment.report_io", _report_bytes),
    ("cv_ntcp", "ntcp_exact_all_thresholds", "cv_ntcp.exact_tail",
     lambda args, kwargs, result: args[0] + 1),
    ("cv_ntcp", "ntcp_normal", "cv_ntcp.approx", None),
    ("cv_ntcp", "ntcp_weiss_tail", "cv_ntcp.approx", None),
    ("cv_ntcp", "normal_cdf", "cv_ntcp.approx", None),
    ("dependent_clt", "normal_cdf", "cv_ntcp.approx", None),
    ("dose_response", "fsu_kill_probability", "dose_response.kill_probability", None),
    ("cli", "main", "cli", None),
)

# Span fields, kept as lists so that recording stays cheap.
NAME, LAYER, START, END, PARENT, OP, WORK, ERROR = range(8)


class Tracer:
    """Installs the wrappers, records spans while an op runs, restores."""

    def __init__(self, modules):
        self.spans = []
        self.ops = []  # (start, end) of every recorded op
        self._modules = modules
        self._stack = []
        self._saved = []
        self._op = None  # index of the op being recorded; None = pass through

    def install(self) -> None:
        for module_name, attr, layer, work in TARGETS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", layer, original, work))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def record(self, op_index: int, fn, *args):
        """Run ``fn(*args)`` as op ``op_index`` with spans recorded."""
        self._op = op_index
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.ops.append((start, perf_counter()))
            self._op = None

    def _wrap(self, name, layer, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self._op, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            return result

        return wrapper

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write_jsonl(self, path) -> None:
        origin = self.ops[0][0] if self.ops else 0.0
        with open(path, "w") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index,
                    "name": s[NAME],
                    "layer": s[LAYER],
                    "start_s": s[START] - origin,
                    "end_s": s[END] - origin,
                    "parent": s[PARENT],
                    "op": s[OP],
                    "work": s[WORK],
                    "error": s[ERROR],
                }) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans, as name -> (value, unit)."""
    spans = tracer.spans
    own = tracer.self_times()
    out = {}
    for layer in LAYERS:
        members = [i for i, s in enumerate(spans) if s[LAYER] == layer]
        # A call enters the layer from outside it; nested same-layer spans
        # (model_sigma2 -> covariance_at_lag) are parts of one call.
        entries = [i for i in members
                   if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][LAYER] != layer]
        out[f"{layer}.calls"] = (len(entries), "count")
        out[f"{layer}.self_s"] = (sum(own[i] for i in members), "s")
        out[f"{layer}.errors"] = (sum(spans[i][ERROR] for i in entries), "count")

    def work(layer, name=None):
        return sum(s[WORK] for s in spans
                   if s[LAYER] == layer and (name is None or s[NAME] == name))

    def duration(name):
        return sum(s[END] - s[START] for s in spans if s[NAME] == name)

    def rate(numerator, denominator, scale):
        return numerator * scale / denominator if denominator else 0.0

    cells = work("lattice_fields.sample")
    out["lattice_fields.sample.cells"] = (cells, "cells")
    out["lattice_fields.sample.ns_per_cell"] = (
        rate(out["lattice_fields.sample.self_s"][0], cells, 1e9), "ns/cell")
    out["lattice_fields.sample.bytes_computed"] = (cells * _NOISE_BYTES_PER_CELL, "bytes")

    cov_evals = sum(1 for s in spans if s[NAME] == "lattice_fields.covariance_at_lag")
    out["lattice_fields.moments.cov_evals"] = (cov_evals, "count")
    out["lattice_fields.moments.us_per_cov_eval"] = (
        rate(duration("lattice_fields.covariance_at_lag"), cov_evals, 1e6), "us/eval")

    save_s = duration("lattice_fields.save_sample")
    load_s = duration("lattice_fields.load_sample")
    io_bytes = work("lattice_fields.sample_io")
    out["lattice_fields.sample_io.save_s"] = (save_s, "s")
    out["lattice_fields.sample_io.load_s"] = (load_s, "s")
    out["lattice_fields.sample_io.bytes"] = (io_bytes, "bytes")
    out["lattice_fields.sample_io.mb_per_s"] = (
        rate(io_bytes, save_s + load_s, 1e-6), "MB/s")

    chat_cells = work("dependent_clt.chat")
    out["dependent_clt.chat.cells"] = (chat_cells, "cells")
    out["dependent_clt.chat.ns_per_cell"] = (
        rate(out["dependent_clt.chat.self_s"][0], chat_cells, 1e9), "ns/cell")

    ks_values = work("experiment.ks")
    out["experiment.ks.values"] = (ks_values, "values")
    out["experiment.ks.ns_per_value"] = (
        rate(out["experiment.ks.self_s"][0], ks_values, 1e9), "ns/value")

    out["experiment.report_io.bytes"] = (work("experiment.report_io"), "bytes")

    terms = work("cv_ntcp.exact_tail")
    out["cv_ntcp.exact_tail.terms"] = (terms, "terms")
    out["cv_ntcp.exact_tail.ns_per_term"] = (
        rate(out["cv_ntcp.exact_tail.self_s"][0], terms, 1e9), "ns/term")

    op_time = sum(end - start for start, end in tracer.ops)
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    out["bench.uncovered_frac"] = (rate(op_time - covered, op_time, 1.0), "ratio")
    return out
