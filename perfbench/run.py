#!/usr/bin/env python3
"""ntcpfields benchmark: one workload (or all of them) timed from outside the package.

    python3 perfbench/run.py --workload clt_campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/``.  A run is a closed loop of ops from one process: one untimed
warm-up op, then ops until ``--seconds`` have passed and every input has
run at least once.  Every op's outputs are checked.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median of
several fresh processes timed from start to ready.  Times are also reported
scaled to a reference host speed (see ``kernel_s``).  ``--trace 1`` runs
half the time untraced and half with layer spans recorded (see
spans.py), and prints the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object.  Results, provenance
and spans are also written under ``.perfbench/`` in the checkout.  The
exit status is 0 only if every op succeeded and passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy

# Closed loop from one process with no extra threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
SOURCE = os.path.join(ROOT, "src")
SETUP_PROBES = 9
WORKLOAD_NAMES = ("clt_campaign", "variance_gap", "dose_planning", "sample_roundtrip")

# The speed of a shared host drifts: a plain Python loop runs from 1.0x to
# 2.0x slower, in spells of a second up to a whole run.  So every op is
# bracketed by a fixed reference kernel that calls no ntcpfields code, and
# its latency is also reported scaled to the host speed the kernel measured
# around it.  KERNEL_REFERENCE_S is the kernel's time on a quiet host (a
# 2-core Intel Xeon VM); it only sets the scale of the scaled numbers.
KERNEL_REFERENCE_S = 0.0024
_KERNEL_DATA = numpy.arange(1 << 18, dtype=numpy.uint64)


def kernel_s() -> float:
    """Best of three timings of the reference kernel.

    A short interpreter loop, then numpy hashing and cumsum over 2 MiB, the
    kind of array work that takes most of the ops' time."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(10_000):
            total += i
        h = _KERNEL_DATA * numpy.uint64(0x9E3779B97F4A7C15)
        h ^= h >> numpy.uint64(31)
        numpy.cumsum(h.astype(numpy.float64))
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` scaled to the reference host speed around the measurement."""
    return seconds * KERNEL_REFERENCE_S * 2.0 / (kernel_before + kernel_after)


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: every op runs in milliseconds")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (timed by the parent run)")
    return parser.parse_args(argv)


def _import_package():
    """Import ntcpfields from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SOURCE, "ntcpfields", "__init__.py")):
        raise SystemExit(f"error: no ntcpfields package under {SOURCE}")
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)
    import ntcpfields

    if not os.path.abspath(ntcpfields.__file__).startswith(SOURCE + os.sep):
        raise SystemExit(f"error: imported ntcpfields from {ntcpfields.__file__}")
    return ntcpfields


def _set_up(args):
    """Build the workload's inputs from the seed (after _import_package)."""
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR, args.tiny)
    return workload, workload.inputs()


def _probe_setup(args):
    """Seconds from process start to ready, for SETUP_PROBES fresh processes.

    Returns the raw times and the times scaled to the reference host speed,
    with the kernel timed before and after each probe."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        argv.append("--tiny")
    samples, normalized = [], []
    kernel = kernel_s()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
        before, kernel = kernel, kernel_s()
        samples.append(ready)
        normalized.append(scaled(ready, before, kernel))
    return samples, normalized


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs ops in order over the inputs, checks each, keeps the latencies."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.digests = {}  # input index -> sha256 of its checked output
        self.latencies = []  # of every successful timed op, in order
        self.normalized = []  # the same latencies scaled to the reference host speed
        self._kernel_before = None  # kernel time measured after the previous op
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_op(self, record=None):
        """One op; returns (latency, normalized latency, wall time).

        The latencies are None if the op failed."""
        index = self.next_op % len(self.inputs)
        inp = self.inputs[index]
        self.attempted += 1
        op = self.workload.op
        before = self._kernel_before or kernel_s()
        self._kernel_before = None
        start = perf_counter()
        try:
            out = op(inp) if record is None else record(self.next_op, op, inp)
            latency = perf_counter() - start
            self._kernel_before = kernel_s()
            normalized = scaled(latency, before, self._kernel_before)
            digest = hashlib.sha256(self.workload.digest(inp, out)).hexdigest()
            if index not in self.digests:
                self.workload.check(inp, out)
                self.digests[index] = digest
            elif digest != self.digests[index]:
                raise AssertionError(f"output of input {index} changed between ops")
        except Exception:  # an op's failure is counted, never fatal to the run
            self.failed += 1
            self.failures.append(traceback.format_exc())
            latency = normalized = None
        finally:
            self.next_op += 1
        return latency, normalized, perf_counter() - start

    def run_phase(self, seconds, record=None):
        """Ops until ``seconds`` pass and every input has run once.

        Returns the latencies and normalized latencies of the successful ops
        and the timed wall time of all ops."""
        latencies, normalized, timed = [], [], 0.0
        first = self.next_op
        deadline = perf_counter() + seconds
        while self.next_op - first < len(self.inputs) or perf_counter() < deadline:
            latency, latency_normalized, wall = self.run_op(record)
            timed += latency if latency is not None else wall
            if latency is not None:
                latencies.append(latency)
                normalized.append(latency_normalized)
        self.latencies += latencies
        self.normalized += normalized
        return latencies, normalized, timed

    def run_digest(self) -> str:
        joined = "".join(self.digests[i] for i in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()


def tail(latencies):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile at or above the median has ten
    beyond it; the maximum is reported instead, labelled p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _throughput_metrics(workload, loop, latencies, timed):
    """ops_per_s, replicates_per_s and cells_per_s as name -> (value, unit, count)."""
    ok = len(latencies)
    per_s = ok / timed if timed else 0.0
    out = {"ops_per_s": (per_s, "ops/s", ok)}
    # all inputs of a workload that counts replicates or cells have one size
    replicates, cells = workload.replicates(loop.inputs[0]), workload.cells(loop.inputs[0])
    if replicates:
        out["replicates_per_s"] = (per_s * replicates, "replicates/s", ok)
    if cells:
        out["cells_per_s"] = (per_s * cells, "cells/s", ok)
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git(*argv):
    try:
        proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = (_read(os.path.join(base, index, "level")) or "").strip()
        kind = (_read(os.path.join(base, index, "type")) or "").strip()
        size = (_read(os.path.join(base, index, "size")) or "").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return model, caches


def provenance(args) -> dict:
    import ntcpfields

    in_git = os.path.exists(os.path.join(ROOT, ".git"))
    model, caches = _cpu()
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_git else None,
        "ntcpfields_version": ntcpfields.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "bench_seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _untraced(args, workload, loop, setup):
    latencies, normalized, timed = loop.run_phase(args.seconds)
    metrics = {
        "setup_s": (statistics.median(setup[1]), "s", SETUP_PROBES),
        "setup_s_raw": (statistics.median(setup[0]), "s", SETUP_PROBES),
    }
    metrics.update(_throughput_metrics(workload, loop, latencies, timed))
    n = len(latencies)
    if latencies:
        value, percentile = tail(latencies)
        metrics["op_s_p50"] = (statistics.median(latencies), "s", n)
        metrics["op_s_tail"] = (value, "s", n, f"p{percentile:.1f}")
        metrics["op_s_min"] = (min(latencies), "s", n)
        value, percentile = tail(normalized)
        metrics["op_s_p50_norm"] = (statistics.median(normalized), "s", n)
        metrics["op_s_tail_norm"] = (value, "s", n, f"p{percentile:.1f}")
        metrics["host_speed"] = (statistics.median(normalized) / statistics.median(latencies),
                                 "ratio", n)
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MiB", 1)
    metrics["failed_ops_frac"] = (loop.failed / loop.attempted, "ratio", loop.attempted)
    return metrics


def _traced(args, workload, loop):
    import ntcpfields
    from spans import Tracer, layer_metrics

    half = args.seconds / 2.0
    plain, plain_normalized, plain_timed = loop.run_phase(half)
    modules = {name: getattr(ntcpfields, name) for name in
               ("cli", "cv_ntcp", "dependent_clt", "dose_response", "experiment",
                "lattice_fields")}
    tracer = Tracer(modules)
    tracer.install()
    try:
        _, traced_normalized, _ = loop.run_phase(half, record=tracer.record)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(os.path.join(WORKDIR, f"trace_{args.workload}_seed{args.seed}.jsonl"))
    metrics = {name: (value, unit, len(tracer.ops))
               for name, (value, unit) in layer_metrics(tracer).items()}
    overhead = (statistics.median(traced_normalized) / statistics.median(plain_normalized) - 1.0
                if plain_normalized and traced_normalized else 0.0)
    metrics["bench.trace_overhead_frac"] = (overhead, "ratio", len(traced_normalized))
    untraced = _throughput_metrics(workload, loop, plain, plain_timed)
    for name, unit in (("replicates_per_s", "replicates/s"), ("cells_per_s", "cells/s")):
        metrics[f"bench.{name}"] = untraced.get(name, (0.0, unit, 0))
    metrics["bench.failed_ops_frac"] = (loop.failed / loop.attempted, "ratio", loop.attempted)
    return metrics


def _benchmark_names(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


def run_one(args) -> int:
    setup = None if args.trace else _probe_setup(args)
    workload, inputs = _set_up(args)
    loop = Loop(workload, inputs)
    loop.run_op()  # warm-up: untimed, checked
    metrics = _traced(args, workload, loop) if args.trace else _untraced(
        args, workload, loop, setup)
    correct = loop.failed == 0
    digest = loop.run_digest()
    info = provenance(args)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"digest {digest} inputs {len(loop.digests)}/{len(inputs)}")
    for name, (value, unit, count, *label) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} n={count}" + (f" {label[0]}" if label else ""))
    for failure in loop.failures:
        print(failure, file=sys.stderr)
    print(f"ops attempted {loop.attempted} failed {loop.failed} correct {correct}")

    with open(os.path.join(
            WORKDIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"), "w") as fh:
        json.dump({
            "provenance": info,
            "digest": digest,
            "input_digests": loop.digests,
            "latencies_s": loop.latencies,
            "normalized_latencies_s": loop.normalized,
            "correct": correct,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {name: {"value": v[0], "unit": v[1], "samples": v[2]}
                        for name, v in metrics.items()},
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")

    names = _benchmark_names("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names if name in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; exits non-zero if any fails."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.makedirs(WORKDIR, exist_ok=True)
    _import_package()
    if args.setup_probe:
        _set_up(args)
        print("ready", flush=True)
        return 0
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
