"""Seeded Monte Carlo campaigns: empirical CLT verification, estimator
consistency, confidence-interval coverage, and convergence-rate fitting.

Every campaign is a pure function of (config, master_seed): cube half-width
n streams its replicates from ``dependent_clt._replicate_batches``, in which
replicate r uses the seed ``derive_seeds(master_seed, n, r)``, so reports
are reproducible byte for byte and replicates can be computed in parallel or
in any chunking without changing the result.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cv_ntcp import normal_cdf
from .dependent_clt import (EstimatorConfig, _half_width, _replicate_batches, _standardized,
                            _variance_estimator_batch)
from .errors import ConfigError, DegenerateError, DomainError, ShapeError
# derive_seeds and sample_fields_batch stay imported: perfbench/spans.py wraps them here
from .lattice_fields import (
    FieldModel,
    LatticeCube,
    _number,
    derive_seeds,
    model_from_dict,
    model_mean,
    model_sigma2,
    model_to_dict,
    sample_fields_batch,
)

#: Fixed column order of the report CSV.
REPORT_COLUMNS = (
    "n",
    "cube_size",
    "mode",
    "ks",
    "chat_mean",
    "chat_sd",
    "sigma2",
    "level",
    "coverage",
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
        object.__setattr__(self, "n_schedule", tuple(self.n_schedule))
        object.__setattr__(self, "levels", tuple(self.levels))
        if not (1 <= self.d <= 3):
            raise DomainError("dimension d must be 1, 2 or 3")
        if not self.n_schedule:
            raise DomainError("n_schedule must not be empty")
        if list(self.n_schedule) != sorted(set(self.n_schedule)):
            raise DomainError("n_schedule must be strictly increasing")
        if self.n_schedule[0] < 1:
            raise DomainError("every n in n_schedule must be >= 1")
        if self.replicates < 2:
            raise DomainError("replicates must be >= 2")
        for lv in self.levels:
            if not (0.0 < lv < 1.0):
                raise DomainError("levels must lie in (0, 1)")

    def mean_value(self) -> float:
        if self.mean_source == "model":
            return model_mean(self.model, self.d)
        return float(self.mean_source)

    def to_dict(self) -> dict:
        bandwidth: dict = (
            {"b": self.estimator.bandwidth}
            if self.estimator.bandwidth is not None
            else {"eta": self.estimator.eta}
        )
        mean: Union[str, dict] = (
            "model"
            if self.mean_source == "model"
            else {"hypothesized": float(self.mean_source)}
        )
        return {
            "model": model_to_dict(self.model),
            "d": self.d,
            "n_schedule": list(self.n_schedule),
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "bandwidth": bandwidth,
            "mean_source": mean,
            "levels": list(self.levels),
        }


def _numbers(value, name: str, integer: bool = False) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return [_number(v, name, integer) for v in value]


def config_from_dict(data: dict) -> ExperimentConfig:
    """Config from its JSON form: a wrongly typed field raises ConfigError, a
    well-typed value outside its domain DomainError."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be an object, got {data!r}")
    bandwidth = data.get("bandwidth", {})
    if not isinstance(bandwidth, dict):
        raise ConfigError(f"bandwidth must be an object, got {bandwidth!r}")
    if "b" in bandwidth:
        estimator = EstimatorConfig(bandwidth=int(_number(bandwidth["b"], "b", integer=True)))
    elif "eta" in bandwidth:
        estimator = EstimatorConfig(eta=float(_number(bandwidth["eta"], "eta")))
    else:
        estimator = EstimatorConfig()
    mean_source = data.get("mean_source", "model")
    if isinstance(mean_source, dict):
        mean_source = float(_number(mean_source["hypothesized"], "hypothesized"))
    elif not isinstance(mean_source, str):
        raise ConfigError(f"mean_source must be a string or an object, got {mean_source!r}")
    elif mean_source != "model":
        raise DomainError("mean_source must be 'model' or {'hypothesized': value}")
    n_schedule = _numbers(data["n_schedule"], "n_schedule", integer=True)
    return ExperimentConfig(
        model=model_from_dict(data["model"]),
        d=int(_number(data["d"], "d", integer=True)),
        n_schedule=tuple(int(v) for v in n_schedule),
        replicates=int(_number(data["replicates"], "replicates", integer=True)),
        master_seed=int(_number(data["master_seed"], "master_seed", integer=True)),
        estimator=estimator,
        mean_source=mean_source,
        levels=tuple(float(v) for v in _numbers(data.get("levels", [0.95]), "levels")),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


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
    """sup_x |F_empirical(x) - Phi(x)|, evaluated exactly at the jumps."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ShapeError("ks_distance needs a nonempty sample")
    cdf = np.array([normal_cdf(v) for v in arr])
    k = np.arange(1, arr.size + 1, dtype=np.float64)
    d_plus = np.max(k / arr.size - cdf)
    d_minus = np.max(cdf - (k - 1.0) / arr.size)
    return float(max(d_plus, d_minus, 0.0))


def fit_rate(points: Sequence[Tuple[int, float]], d: int = 1) -> RateFit:
    """Negated least-squares slope of log(ks) against log(|U_n|).

    Nonpositive ks values are clamped to machine epsilon and flagged.
    """
    if len(points) < 2:
        raise DomainError("need at least 2 points to fit a rate")
    clipped = False
    xs, ys = [], []
    for n, ks in points:
        size = (2 * n + 1) ** d
        if ks <= 0.0:
            ks = sys.float_info.epsilon
            clipped = True
        xs.append(math.log(size))
        ys.append(math.log(ks))
    slope = np.polyfit(xs, ys, 1)[0]
    return RateFit(exponent=float(-slope), clipped=clipped)


# ---------------------------------------------------------------------------
# Campaign core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PerN:
    n: int
    cube_size: int
    ks_true: float
    ks_estimated: float
    chat: np.ndarray      # per-replicate C_hat values
    coverage: Dict[float, Optional[float]]


def _run_campaign(config: ExperimentConfig) -> Tuple[List[_PerN], float]:
    sigma2 = model_sigma2(config.model, config.d)
    if sigma2.degenerate:
        raise DegenerateError(
            f"sigma^2 = {sigma2.value:g} is degenerate; campaign aborted"
        )
    mean = config.mean_value()
    results = []
    for n in config.n_schedule:
        cube = LatticeCube(d=config.d, n=n)
        b = config.estimator.bandwidth_for(n)
        sums = np.empty(config.replicates)
        chats = np.empty(config.replicates)
        for start, values, row_sums in _replicate_batches(
            config.model, cube, config.replicates, config.master_seed
        ):
            stop = start + len(row_sums)
            sums[start:stop] = row_sums
            chats[start:stop] = _variance_estimator_batch(values, config.d, b)
        zero = int(np.sum(chats <= 0.0))
        if zero:
            raise DegenerateError(f"C_hat = 0 in {zero} replicates at n={n}; campaign aborted")
        size = cube.size
        coverage: Dict[float, Optional[float]] = dict.fromkeys(config.levels)
        if config.mean_source == "model":
            for level in config.levels:
                hits = np.abs(sums / size - mean) <= _half_width(level, chats, size)
                coverage[level] = float(np.mean(hits))
        results.append(
            _PerN(
                n=n,
                cube_size=size,
                ks_true=ks_distance(_standardized(sums, size, mean, sigma2.value)),
                ks_estimated=ks_distance(_standardized(sums, size, mean, chats)),
                chat=chats,
                coverage=coverage,
            )
        )
    return results, sigma2.value


def run_clt_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Full campaign: per (n, mode, level) KS distances, C_hat summaries and
    coverage, deterministic given the config."""
    per_n, sigma2 = _run_campaign(config)
    rows: List[ReportRow] = []
    levels: Tuple[Optional[float], ...] = config.levels or (None,)
    for res in per_n:
        chat_mean = float(np.mean(res.chat))
        chat_sd = float(np.std(res.chat, ddof=1))
        for mode, ks in (("true_sigma", res.ks_true), ("estimated", res.ks_estimated)):
            for level in levels:
                cov = res.coverage.get(level) if (mode == "estimated" and level) else None
                rows.append(
                    ReportRow(
                        n=res.n,
                        cube_size=res.cube_size,
                        mode=mode,
                        ks=ks,
                        chat_mean=chat_mean,
                        chat_sd=chat_sd,
                        sigma2=sigma2,
                        level=level,
                        coverage=cov,
                    )
                )
    return ExperimentReport(config=config, rows=tuple(rows))


def estimator_consistency(config: ExperimentConfig) -> List[ConsistencySummary]:
    """Per-n distribution summary of C_hat around sigma^2."""
    per_n, sigma2 = _run_campaign(config)
    return [
        ConsistencySummary(
            n=res.n,
            chat_mean=float(np.mean(res.chat)),
            chat_sd=float(np.std(res.chat, ddof=1)),
            chat_mad=float(np.median(np.abs(res.chat - sigma2))),
            sigma2=sigma2,
        )
        for res in per_n
    ]


def coverage_study(config: ExperimentConfig) -> List[Tuple[int, float, float]]:
    """(n, level, empirical coverage) over the schedule.

    Requires mean_source = "model": coverage is scored against the true
    model mean.
    """
    if config.mean_source != "model":
        raise DomainError("coverage_study requires mean_source = 'model'")
    per_n, _ = _run_campaign(config)
    out = []
    for res in per_n:
        for level in config.levels:
            out.append((res.n, level, res.coverage[level]))
    return out


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
    for row in report.rows:
        lines.append(
            ",".join(
                _fmt(getattr(row, col)) for col in REPORT_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, csv_path) -> None:
    """Write the report CSV plus a JSON metadata sidecar echoing the config."""
    with open(csv_path, "w", newline="") as fh:
        fh.write(report_to_csv(report))
    with open(str(csv_path) + ".meta.json", "w") as fh:
        json.dump(report.config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
