"""Surviving-fraction curves and the induced FSU kill probability.

Four classical parametric families are provided:

* ``SingleHit``:        SF(D) = exp(-alpha D)
* ``MultiTarget``:      SF(D) = 1 - (1 - exp(-alpha D))^m
* ``Hybrid``:           SF(D) = exp(-alpha D) (1 - (1 - exp(-beta D))^m)
* ``LinearQuadratic``:  SF(D) = exp(-(alpha D + beta D^2))

An FSU of ``n0`` independently evolving cells dies only when every cell
dies, so its kill probability is ``(1 - SF(D))^{n0}``.

``beta = 0`` and ``m = 1`` are accepted as degenerate-but-valid parameters;
they reduce the richer variants to ``SingleHit`` exactly, which is what the
consistency tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import ParameterError, UnattainableTargetError, integer, real

# Bisection bracket cap: dose doubling stops here.  p(D) -> 1 monotonically
# for all variants, so any target < 1 brackets long before this.
_MAX_DOSE = 2.0**60


@dataclass(frozen=True)
class SingleHit:
    alpha: float

    def __post_init__(self):
        real(self.alpha, "alpha", gt=0, error=ParameterError)


@dataclass(frozen=True)
class MultiTarget:
    alpha: float
    m: int

    def __post_init__(self):
        real(self.alpha, "alpha", gt=0, error=ParameterError)
        integer(self.m, "m", ge=1, error=ParameterError)


@dataclass(frozen=True)
class Hybrid:
    alpha: float
    beta: float
    m: int

    def __post_init__(self):
        real(self.alpha, "alpha", gt=0, error=ParameterError)
        real(self.beta, "beta", ge=0, error=ParameterError)
        integer(self.m, "m", ge=1, error=ParameterError)


@dataclass(frozen=True)
class LinearQuadratic:
    alpha: float
    beta: float

    def __post_init__(self):
        real(self.alpha, "alpha", gt=0, error=ParameterError)
        real(self.beta, "beta", ge=0, error=ParameterError)


DoseResponseModel = Union[SingleHit, MultiTarget, Hybrid, LinearQuadratic]


@dataclass(frozen=True)
class CellPopulation:
    """Number of cells per FSU."""

    n0: int

    def __post_init__(self):
        integer(self.n0, "n0", ge=1, error=ParameterError)


def _pow_one_minus_exp(rate_dose: float, exponent: float) -> float:
    """(1 - exp(-rate_dose))^exponent without cancellation, for rate_dose >= 0."""
    if rate_dose == 0:
        return 0.0
    t = -math.expm1(-rate_dose)  # 1 - e^{-rd}, accurate for small rd
    return math.exp(exponent * math.log(t))


def killed_fraction_of_cells(model: DoseResponseModel, dose: float) -> float:
    """1 - SF(D), computed directly to avoid cancellation at small doses."""
    real(dose, "dose", ge=0)
    if isinstance(model, SingleHit):
        return -math.expm1(-model.alpha * dose)
    if isinstance(model, MultiTarget):
        return _pow_one_minus_exp(model.alpha * dose, model.m)
    if isinstance(model, Hybrid):
        # 1 - e^{-aD}(1 - s^m) = (1 - e^{-aD}) + e^{-aD} s^m, both terms >= 0
        s_m = _pow_one_minus_exp(model.beta * dose, model.m)
        return -math.expm1(-model.alpha * dose) + math.exp(-model.alpha * dose) * s_m
    if isinstance(model, LinearQuadratic):
        return -math.expm1(-(model.alpha * dose + model.beta * dose * dose))
    raise ParameterError(f"unknown model {model!r}")


def surviving_fraction(model: DoseResponseModel, dose: float) -> float:
    """Probability that a single cell survives dose D; SF(0) = 1."""
    return 1.0 - killed_fraction_of_cells(model, dose)


def fsu_kill_probability(model: DoseResponseModel, cells: CellPopulation, dose: float) -> float:
    """(1 - SF(D))^{n0}: the FSU dies only if none of its n0 cells survives."""
    killed = killed_fraction_of_cells(model, dose)
    if killed == 0.0:
        return 0.0
    return math.exp(cells.n0 * math.log(killed))


def dose_for_kill_probability(
    model: DoseResponseModel,
    cells: CellPopulation,
    target_p: float,
    tolerance: float = 1e-10,
) -> float:
    """Invert the strictly increasing map D -> p(D) by bracketing bisection.

    Returns a dose whose kill probability is within ``tolerance`` of
    ``target_p``.  Raises UnattainableTargetError if no bracket is found
    below the dose cap (relevant only for targets pushed against 1 in
    floating point), or if no dose of the bisection's 200 steps comes
    within the tolerance (one below the spacing of doubles near the target).
    """
    real(target_p, "target_p", gt=0, lt=1)
    real(tolerance, "tolerance", gt=0)
    hi = 1.0
    while fsu_kill_probability(model, cells, hi) < target_p:
        hi *= 2.0
        if hi > _MAX_DOSE:
            raise UnattainableTargetError(
                f"kill probability {target_p} not reached below dose cap {_MAX_DOSE:g}"
            )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p_mid = fsu_kill_probability(model, cells, mid)
        if abs(p_mid - target_p) <= tolerance:
            return mid
        if p_mid < target_p:
            lo = mid
        else:
            hi = mid
    raise UnattainableTargetError(
        f"kill probability {target_p} not reached within tolerance {tolerance:g} "
        f"in 200 bisection steps"
    )
