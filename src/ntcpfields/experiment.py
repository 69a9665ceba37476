"""Seeded Monte Carlo campaigns: empirical CLT verification, estimator
consistency, confidence-interval coverage, and convergence-rate fitting.

Every campaign is a pure function of (config, master_seed): cube half-width
n streams its replicates from ``dependent_clt._replicate_batches``, in which
replicate r uses the seed ``derive_seeds(master_seed, n, r)``, so reports
are reproducible byte for byte and replicates can be computed in parallel or
in any blocking without changing the result.  S(U) and C_hat are computed on
each sampler block as it arrives, C_hat from one
``dependent_clt._ChatWorkspace`` per n (window widths, slab counts, padded
input or cumsum rows, weights and products) that every block refills, as it
refills the sampler's.  The sampler's hashes and C_hat's weights and
products are the same two arrays, one ``_Scratch`` for the campaign, so a
block's stages work in memory that stays in cache.  A campaign holds one
block's buffers plus one n's S(U) and C_hat arrays at a time, and each
front-end derives from them only what it returns.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cv_ntcp import normal_cdf
from .dependent_clt import (EstimatorConfig, _ChatWorkspace, _half_width, _replicate_batches,
                            _standardized, _variance_estimator_batch)
from .errors import (ConfigError, DegenerateError, DomainError, ShapeError, each, instance, integer,
                     keep, naming, read_field, real)
# derive_seeds and sample_fields_batch stay imported: perfbench/spans.py wraps them here
from .lattice_fields import (
    MAX_CELLS,
    FieldModel,
    LatticeCube,
    _Scratch,
    _check_d,
    _field_model,
    derive_seeds,
    model_from_dict,
    model_mean,
    model_sigma2,
    model_to_dict,
    sample_fields_batch,
)

# ---------------------------------------------------------------------------
# Config / report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    model: FieldModel
    d: int
    n_schedule: Tuple[int, ...]
    replicates: int
    master_seed: int
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    mean_source: Union[str, float] = "model"  # "model" or a hypothesized value
    levels: Tuple[float, ...] = (0.95,)

    def __post_init__(self):
        keep(self, "model", _field_model)
        keep(self, "d", _check_d, "dimension d")
        schedule = keep(self, "n_schedule", each(integer), "every n in n_schedule", ge=1)
        if not schedule or list(schedule) != sorted(set(schedule)):
            raise DomainError("n_schedule must be nonempty and strictly increasing")
        keep(self, "replicates", integer, ge=2, le=MAX_CELLS)
        keep(self, "master_seed", integer)
        keep(self, "levels", each(real), "each level", gt=0, lt=1)
        keep(self, "estimator", instance, kind=EstimatorConfig)
        if self.mean_source != "model":
            keep(self, "mean_source", real, "mean_source, unless 'model',")

    def mean_value(self) -> float:
        if self.mean_source == "model":
            return model_mean(self.model, self.d)
        return self.mean_source

    def to_dict(self) -> dict:
        estimator, mean = self.estimator, self.mean_source
        return {
            "model": model_to_dict(self.model),
            "d": self.d,
            "n_schedule": list(self.n_schedule),
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "bandwidth": ({"eta": estimator.eta} if estimator.bandwidth is None
                          else {"b": estimator.bandwidth}),
            "mean_source": mean if mean == "model" else {"hypothesized": mean},
            "levels": list(self.levels),
        }


def config_from_dict(data: dict) -> ExperimentConfig:
    """Config from its JSON form: a missing or wrongly typed field raises
    ConfigError, a well-typed value outside its domain DomainError."""
    bandwidth = read_field(data, "bandwidth", dict, "config", default={})
    if "b" in bandwidth:
        estimator = EstimatorConfig(bandwidth=read_field(bandwidth, "b", int, "bandwidth"))
    elif "eta" in bandwidth:
        estimator = EstimatorConfig(eta=read_field(bandwidth, "eta", float, "bandwidth"))
    else:
        estimator = EstimatorConfig()
    mean_source = read_field(data, "mean_source", (str, dict), "config", default="model")
    if isinstance(mean_source, dict):
        mean_source = read_field(mean_source, "hypothesized", float, "mean_source")
    return ExperimentConfig(
        model=model_from_dict(read_field(data, "model", dict, "config")),
        d=read_field(data, "d", int, "config"),
        n_schedule=read_field(data, "n_schedule", [int], "config"),
        replicates=read_field(data, "replicates", int, "config"),
        master_seed=read_field(data, "master_seed", int, "config"),
        estimator=estimator,
        mean_source=mean_source,
        levels=read_field(data, "levels", [float], "config", default=[0.95]),
    )


def load_config(path) -> ExperimentConfig:
    """The config in the JSON file at ``path``; a file that is not JSON text
    raises ConfigError, and every error in its fields names the file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # an undecodable byte, or not JSON
            raise ConfigError(f"config {path} is not JSON: {exc}") from None
    with naming(f"config {path}"):
        return config_from_dict(data)


@dataclass(frozen=True)
class ReportRow:
    n: int
    cube_size: int
    mode: str
    ks: float
    chat_mean: float
    chat_sd: float
    sigma2: float
    level: Optional[float]
    coverage: Optional[float]


#: Fixed column order of the report CSV.
REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: Tuple[ReportRow, ...]


@dataclass(frozen=True)
class ConsistencySummary:
    n: int
    chat_mean: float
    chat_sd: float
    chat_mad: float  # median |C_hat - sigma^2|
    sigma2: float


@dataclass(frozen=True)
class RateFit:
    exponent: float
    clipped: bool  # True if nonpositive ks values were clamped


# ---------------------------------------------------------------------------
# KS distance and rate fitting
# ---------------------------------------------------------------------------

def ks_distance(values: Sequence[float]) -> float:
    """sup_x |F_empirical(x) - Phi(x)|, evaluated exactly at the jumps, for
    a nonempty 1-d sequence of finite values."""
    try:
        arr = np.sort(np.asarray(values, dtype=np.float64))
    except (TypeError, ValueError):  # ragged or not numbers, or a scalar
        arr = None
    if arr is None or arr.ndim != 1 or arr.size == 0:
        raise ShapeError("ks_distance needs a nonempty 1-d sequence of numbers")
    if not np.isfinite(arr).all():
        raise DomainError("ks_distance needs finite values (no nan or inf)")
    cdf = np.array([normal_cdf(v) for v in arr.tolist()])  # Python floats: same bits, faster
    k = np.arange(1, arr.size + 1, dtype=np.float64)
    d_plus = np.max(k / arr.size - cdf)
    d_minus = np.max(cdf - (k - 1.0) / arr.size)
    return float(max(d_plus, d_minus, 0.0))


def fit_rate(points: Sequence[Tuple[int, float]], d: int = 1) -> RateFit:
    """Negated least-squares slope of log(ks) against log(|U_n|), over
    (n, ks) pairs at two or more cube sizes.

    Nonpositive ks values are clamped to machine epsilon and flagged.
    """
    d = _check_d(d)
    clipped = False
    xs, ys = [], []
    for point in points:
        if len(point) != 2:
            raise ShapeError(f"each point must be a pair (n, ks), got {point!r}")
        n, ks = integer(point[0], "n", ge=0), real(point[1], "ks")
        if ks <= 0.0:
            ks = sys.float_info.epsilon
            clipped = True
        xs.append(math.log((2 * n + 1) ** d))
        ys.append(math.log(ks))
    if len(set(xs)) < 2:
        raise DomainError("need points at 2 or more cube sizes to fit a rate")
    slope = np.polyfit(xs, ys, 1)[0]
    return RateFit(exponent=float(-slope), clipped=clipped)


# ---------------------------------------------------------------------------
# Campaign core
# ---------------------------------------------------------------------------

def _campaign(config: ExperimentConfig) -> Tuple[float, float, Iterator]:
    """sigma^2, the centering mean and a lazy stream of (n, |U|, S(U), C_hat)
    over the schedule, one n at a time.

    A degenerate sigma^2 raises DegenerateError before any sampling, as
    does, at its n, a replicate with C_hat = 0.  The stream refills the same
    two per-replicate arrays for every n, so a consumer derives what it
    needs from one n before it asks for the next.
    """
    config = instance(config, "config", ExperimentConfig)
    sigma2 = model_sigma2(config.model, config.d)
    if sigma2.degenerate:
        raise DegenerateError(
            f"sigma^2 = {sigma2.value:g} is degenerate; campaign aborted"
        )
    return sigma2.value, config.mean_value(), _stream(config)


def _stream(config: ExperimentConfig):
    sums = np.empty(config.replicates)
    chats = np.empty(config.replicates)
    scratch = _Scratch()  # every block's site hashes, then its C_hat weights and products
    for n in config.n_schedule:
        cube = LatticeCube(d=config.d, n=n)
        b = config.estimator.bandwidth_for(n)
        work = _ChatWorkspace(config.d, cube.side, b, scratch)
        for start, values, row_sums in _replicate_batches(
            config.model, cube, config.replicates, config.master_seed, scratch
        ):
            stop = start + len(row_sums)
            sums[start:stop] = row_sums
            chats[start:stop] = _variance_estimator_batch(values, config.d, b, row_sums, work)
        zero = int(np.sum(chats <= 0.0))
        if zero:
            raise DegenerateError(f"C_hat = 0 in {zero} replicates at n={n}; campaign aborted")
        yield n, cube.size, sums, chats


def _hit_rate(sums, size, mean, level, chats) -> float:
    """Share of replicates whose level interval S(U)/|U| +- half-width holds mean."""
    return float(np.mean(np.abs(sums / size - mean) <= _half_width(level, chats, size)))


def run_clt_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Full campaign: per (n, mode, level) KS distances, C_hat summaries and
    coverage, deterministic given the config."""
    sigma2, mean, stream = _campaign(config)
    scored = config.mean_source == "model"
    rows: List[ReportRow] = []
    for n, size, sums, chats in stream:
        chat_mean = float(np.mean(chats))
        chat_sd = float(np.std(chats, ddof=1))
        for mode, variance in (("true_sigma", sigma2), ("estimated", chats)):
            ks = ks_distance(_standardized(sums, size, mean, variance))
            for level in config.levels or (None,):
                coverage = (_hit_rate(sums, size, mean, level, chats)
                            if scored and mode == "estimated" and level else None)
                rows.append(ReportRow(n=n, cube_size=size, mode=mode, ks=ks,
                                      chat_mean=chat_mean, chat_sd=chat_sd, sigma2=sigma2,
                                      level=level, coverage=coverage))
    return ExperimentReport(config=config, rows=tuple(rows))


def estimator_consistency(config: ExperimentConfig) -> List[ConsistencySummary]:
    """Per-n distribution summary of C_hat around sigma^2."""
    sigma2, _, stream = _campaign(config)
    return [
        ConsistencySummary(
            n=n,
            chat_mean=float(np.mean(chats)),
            chat_sd=float(np.std(chats, ddof=1)),
            chat_mad=float(np.median(np.abs(chats - sigma2))),
            sigma2=sigma2,
        )
        for n, _, _, chats in stream
    ]


def coverage_study(config: ExperimentConfig) -> List[Tuple[int, float, float]]:
    """(n, level, empirical coverage) over the schedule.

    Requires mean_source = "model": coverage is scored against the true
    model mean.
    """
    if instance(config, "config", ExperimentConfig).mean_source != "model":
        raise DomainError("coverage_study requires mean_source = 'model'")
    _, mean, stream = _campaign(config)
    return [(n, level, _hit_rate(sums, size, mean, level, chats))
            for n, size, sums, chats in stream for level in config.levels]


# ---------------------------------------------------------------------------
# Report persistence
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def report_to_csv(report: ExperimentReport) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for row in instance(report, "report", ExperimentReport).rows:
        lines.append(
            ",".join(
                _fmt(getattr(row, col)) for col in REPORT_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, csv_path) -> None:
    """Write the report CSV plus a JSON metadata sidecar echoing the config.
    Both texts are built before either file is opened."""
    text = report_to_csv(report)
    meta = json.dumps(report.config.to_dict(), indent=2, sort_keys=True) + "\n"
    with open(csv_path, "w", newline="") as fh:
        fh.write(text)
    with open(str(csv_path) + ".meta.json", "w") as fh:
        fh.write(meta)
