"""The four benchmark workloads.

Each workload builds its inputs from the bench seed, runs one op through
``ntcpfields`` entry points only, and checks the op's outputs.  Functions
are reached through their module attributes (``cv_ntcp.ntcp_normal``, not
an imported name) so that a traced run sees the calls.

An op's outputs are reduced to a digest.  The full check runs on the
first output of each input; a later op on the same input must reproduce
that digest byte for byte, which is the bit-identity contract.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

from ntcpfields import cli, cv_ntcp, dependent_clt, dose_response, lattice_fields


class CheckError(Exception):
    """An op's output failed a correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _run_cli(argv) -> str:
    """``cli.main(argv)`` in process; returns its stdout, raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckError(f"ntcpfields {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _key_values(text: str) -> dict:
    return dict(line.split(" ", 1) for line in text.splitlines() if line)


def _hex(values) -> bytes:
    return ",".join(float(v).hex() for v in values).encode()


MAJORITY = lattice_fields.MovingWindowThreshold(window_radius=1, theta=0.5, k_min=2)


class Workload:
    """One op kind: ``inputs`` from the seed, ``op``, ``digest`` and ``check``."""

    name = ""

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.tiny = tiny

    def inputs(self) -> list:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def digest(self, inp, out) -> bytes:
        """The bytes that must not change between runs of one commit and seed."""
        raise NotImplementedError

    def check(self, inp, out) -> None:
        """Raise CheckError unless ``out`` is a correct output for ``inp``."""
        raise NotImplementedError

    def replicates(self, inp) -> int:
        """Field replicates one op completes, summed over the n schedule."""
        return 0

    def cells(self, inp) -> int:
        """Cube cells times replicates one op completes."""
        return 0


# ---------------------------------------------------------------------------
# clt_campaign: `ntcpfields experiment` on the criterion-7 config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignInput:
    config_path: str
    report_path: str
    n_schedule: tuple
    replicates: int
    levels: tuple


class CltCampaign(Workload):
    """The paper's CLT study run as users run it.

    The sampler and C_hat share its time, and its working set grows from
    0.8M cells (well inside L3) to 12.8M cells (about L3 size).
    """

    name = "clt_campaign"

    def inputs(self):
        n_schedule, replicates = ((20, 40), 50) if self.tiny else ((200, 800, 3200), 2000)
        config = {
            "model": lattice_fields.model_to_dict(MAJORITY),
            "d": 1,
            "n_schedule": list(n_schedule),
            "replicates": replicates,
            "master_seed": self.rng.getrandbits(32),
            "levels": [0.95],
        }
        config_path = os.path.join(self.workdir, "clt_config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        report_path = os.path.join(self.workdir, "clt_report.csv")
        return [CampaignInput(config_path, report_path, n_schedule, replicates, (0.95,))]

    def op(self, inp):
        return _run_cli(["experiment", "--config", inp.config_path, "--out", inp.report_path])

    def digest(self, inp, out):
        with open(inp.report_path, "rb") as fh:
            return out.encode() + fh.read()

    def check(self, inp, out):
        expected_rows = len(inp.n_schedule) * 2 * len(inp.levels)
        _require(_key_values(out).get("rows") == str(expected_rows),
                 f"cli reported {out!r}, expected {expected_rows} rows")
        with open(inp.report_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == expected_rows, f"{len(rows)} report rows, expected {expected_rows}")
        sigma2 = "%.9g" % lattice_fields.model_sigma2(MAJORITY, 1).value
        for row in rows:
            _require(int(row["n"]) in inp.n_schedule, f"unexpected n {row['n']}")
            _require(0.0 <= float(row["ks"]) <= 1.0, f"ks {row['ks']} outside [0, 1]")
            _require(row["sigma2"] == sigma2, f"sigma2 {row['sigma2']} != model {sigma2}")
            if row["coverage"]:
                _require(0.0 <= float(row["coverage"]) <= 1.0,
                         f"coverage {row['coverage']} outside [0, 1]")

    def replicates(self, inp):
        return inp.replicates * len(inp.n_schedule)

    def cells(self, inp):
        return inp.replicates * sum(2 * n + 1 for n in inp.n_schedule)


# ---------------------------------------------------------------------------
# variance_gap: dependent_clt.variance_gap on criterion 9's schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapInput:
    n_schedule: tuple
    replicates: int
    master_seed: int


class VarianceGap(Workload):
    """The streaming replicate loop behind Tier-1's slowest test.

    Nearly all of its time is the sampler and C_hat is never called, so it
    bypasses the estimator; its chunks hold many tiny cubes.
    """

    name = "variance_gap"

    # 16k replicates: at n=256 one chunk holds ~8.2M noise cells, and the
    # sampler's uint64 hash, float64 noise and window-sum arrays (66 MB
    # each) together exceed a 105 MiB L3.
    REPLICATES = 16_000

    def inputs(self):
        if self.tiny:
            return [GapInput((4, 8), 100, self.rng.getrandbits(32))]
        return [GapInput((16, 32, 64, 128, 256), self.REPLICATES, self.rng.getrandbits(32))]

    def op(self, inp):
        return dependent_clt.variance_gap(
            MAJORITY, 1, inp.n_schedule, inp.replicates, master_seed=inp.master_seed
        )

    def digest(self, inp, out):
        return b";".join(
            b"%d:%s:%s" % (p.n, _hex((p.gap, p.mc_variance, p.sigma2)), p.envelope.encode())
            for p in out
        )

    def check(self, inp, out):
        _require(tuple(p.n for p in out) == inp.n_schedule,
                 f"gap points at n={[p.n for p in out]}, expected {inp.n_schedule}")
        sigma2 = lattice_fields.model_sigma2(MAJORITY, 1).value
        for p in out:
            _require(p.sigma2 == sigma2, f"sigma2 {p.sigma2!r} != model {sigma2!r}")
            _require(math.isfinite(p.mc_variance) and p.mc_variance > 0.0,
                     f"MC variance {p.mc_variance!r} at n={p.n}")
            _require(p.gap == abs(p.mc_variance - p.sigma2),
                     f"gap {p.gap!r} != |{p.mc_variance!r} - {p.sigma2!r}|")
            _require(p.envelope == "n^-1", f"envelope {p.envelope!r}")

    def replicates(self, inp):
        return inp.replicates * len(inp.n_schedule)

    def cells(self, inp):
        return inp.replicates * sum(2 * n + 1 for n in inp.n_schedule)


# ---------------------------------------------------------------------------
# dose_planning: dose -> exact moments -> dependent and independent NTCP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoseInput:
    dose: float
    z: float  # functional reserve, in standard deviations above the mean


@dataclass(frozen=True)
class DoseRow:
    theta: float
    mean: float
    sigma2: float
    threshold: int
    ntcp_dependent: float
    ntcp_exact: float
    normal: cv_ntcp.ApproxResult
    weiss: cv_ntcp.ApproxResult


class DosePlanning(Workload):
    """The paper's dose to NTCP calculus.

    Exact moments and the exact binomial tail do the work; it never samples,
    so it bypasses the sampler and C_hat.
    """

    name = "dose_planning"

    RESPONSE = dose_response.LinearQuadratic(alpha=0.3, beta=0.03)
    CELLS = dose_response.CellPopulation(n0=1)
    # Doses in [1.6, 2.3] Gy put the noise level theta in about [0.42, 0.58],
    # where the k_min = 63 of 125 majority field is far from degenerate.
    DOSE_RANGE = (1.6, 2.3)
    GRID = 8

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        # d, window radius, k_min (a majority of the window) and the FSU count
        self.d, self.radius, self.k_min, self.fsus = (
            (2, 1, 5, 10**4) if tiny else (3, 2, 63, 10**6))

    def inputs(self):
        return [DoseInput(round(self.rng.uniform(*self.DOSE_RANGE), 3),
                          round(self.rng.uniform(-2.0, 2.0), 3))
                for _ in range(self.GRID)]

    def op(self, inp):
        field = lattice_fields.threshold_model_from_dose(
            self.RESPONSE, self.CELLS, inp.dose, self.radius, self.k_min)
        mean = lattice_fields.model_mean(field, self.d)
        sigma2 = lattice_fields.model_sigma2(field, self.d).value
        n = self.fsus
        threshold = math.floor(n * mean + inp.z * math.sqrt(n * mean * (1.0 - mean)))
        ntcp_dependent = 1.0 - cv_ntcp.normal_cdf((threshold - n * mean) / math.sqrt(n * sigma2))
        tail = cv_ntcp.ntcp_exact_all_thresholds(n, mean)
        return DoseRow(
            theta=field.theta,
            mean=mean,
            sigma2=sigma2,
            threshold=threshold,
            ntcp_dependent=ntcp_dependent,
            ntcp_exact=float(tail[threshold]),
            normal=cv_ntcp.ntcp_normal(n, mean, threshold),
            weiss=cv_ntcp.ntcp_weiss_tail(n, mean, threshold),
        )

    def digest(self, inp, out):
        bound = out.weiss.error_bound
        return b"%d:%s:%s" % (out.threshold, _hex((
            out.theta, out.mean, out.sigma2, out.ntcp_dependent, out.ntcp_exact,
            out.normal.value, out.normal.error_bound, out.weiss.value,
            -1.0 if bound is None else bound)), str(bound is None).encode())

    def check(self, inp, out):
        _require(out.sigma2 >= lattice_fields.SIGMA2_EPSILON,
                 f"sigma^2 = {out.sigma2!r} is degenerate at dose {inp.dose}")
        for name in ("mean", "ntcp_dependent", "ntcp_exact"):
            value = getattr(out, name)
            _require(0.0 <= value <= 1.0, f"{name} = {value!r} is not a probability")
        error = abs(out.normal.value - out.ntcp_exact)
        _require(error <= out.normal.error_bound,
                 f"|normal - exact| = {error:.3g} exceeds Berry-Esseen {out.normal.error_bound:.3g}")
        sigma = math.sqrt(self.fsus * out.mean * (1.0 - out.mean))
        if sigma >= 5.0:
            bound = out.weiss.error_bound
            _require(bound is not None, f"no Weiss bound at sigma = {sigma:.3g}")
            error = abs(out.weiss.value - out.ntcp_exact)
            _require(error <= bound, f"|Weiss - exact| = {error:.3g} exceeds its bound {bound:.3g}")


# ---------------------------------------------------------------------------
# sample_roundtrip: `ntcpfields simulate` then `ntcpfields estimate`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundtripInput:
    model: lattice_fields.MovingWindowThreshold
    cube: lattice_fields.LatticeCube
    seed: int
    x: float
    mean: float
    path: str


class SampleRoundtrip(Workload):
    """The only path through sample I/O: save, then load.

    It also covers single-seed 3-d sampling and 3-d C_hat.
    """

    name = "sample_roundtrip"

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self._reference = {}

    def inputs(self):
        model = lattice_fields.MovingWindowThreshold(window_radius=1, theta=0.5, k_min=14)
        cube = lattice_fields.LatticeCube(d=3, n=5 if self.tiny else 35)
        mean = lattice_fields.model_mean(model, cube.d)
        x = round(cube.size * mean) + self.rng.randint(-300, 300)
        path = os.path.join(self.workdir, "roundtrip_sample.txt")
        return [RoundtripInput(model, cube, self.rng.getrandbits(63), float(x), mean, path)]

    def op(self, inp):
        m = inp.model
        _run_cli(["simulate", "--field", "window_threshold", "--theta", repr(m.theta),
                  "--window-radius", str(m.window_radius), "--k-min", str(m.k_min),
                  "--d", str(inp.cube.d), "--n", str(inp.cube.n), "--seed", str(inp.seed),
                  "--out", inp.path])
        return _run_cli(["estimate", "--sample", inp.path, "--level", "0.95",
                         "--x", repr(inp.x), "--mean", repr(inp.mean)])

    def digest(self, inp, out):
        with open(inp.path, "rb") as fh:
            return fh.read() + out.encode()

    def _expected(self, inp):
        """In-process reference sample and C_hat, computed once per input."""
        if inp not in self._reference:
            sample = lattice_fields.sample_field(inp.model, inp.cube, inp.seed)
            chat = dependent_clt.variance_estimator(sample, dependent_clt.EstimatorConfig())
            self._reference[inp] = (sample, chat)
        return self._reference[inp]

    def check(self, inp, out):
        sample, chat = self._expected(inp)
        loaded = lattice_fields.load_sample(inp.path)
        _require(loaded.values.dtype == sample.values.dtype
                 and loaded.values.tobytes() == sample.values.tobytes(),
                 "loaded values differ from sample_field")
        _require(loaded.seed == inp.seed and loaded.model == inp.model,
                 "sample header does not echo the seed and model")
        printed = _key_values(out)
        _require(printed.get("chat") == "%.9g" % chat,
                 f"estimate printed chat {printed.get('chat')}, in-process {chat:.9g}")
        _require(printed.get("sum") == "%.9g" % sample.values.sum(),
                 f"estimate printed sum {printed.get('sum')}")
        _require("ntcp_estimate" in printed and "ci_0.95_lo" in printed,
                 f"estimate output lacks the NTCP estimate or interval: {out!r}")

    def cells(self, inp):
        return inp.cube.size


WORKLOADS = {w.name: w for w in (CltCampaign, VarianceGap, DosePlanning, SampleRoundtrip)}
