import math

import pytest

from ntcpfields.dose_response import (
    CellPopulation,
    Hybrid,
    LinearQuadratic,
    MultiTarget,
    SingleHit,
    dose_for_kill_probability,
    fsu_kill_probability,
    killed_fraction_of_cells,
    surviving_fraction,
)
from ntcpfields.errors import DomainError, ParameterError, UnattainableTargetError
from ntcpfields.lattice_fields import MovingWindowThreshold, threshold_model_from_dose

LN2 = math.log(2.0)


class TestSurvivingFraction:
    def test_single_hit_at_zero(self):
        assert surviving_fraction(SingleHit(alpha=1.0), 0.0) == 1.0

    def test_single_hit_ln2(self):
        assert surviving_fraction(SingleHit(alpha=1.0), LN2) == pytest.approx(0.5)

    def test_multi_target_ln2(self):
        assert surviving_fraction(MultiTarget(alpha=1.0, m=2), LN2) == pytest.approx(0.75)

    def test_hybrid_collapses_to_double_rate(self):
        # m=1: SF = e^{-aD} e^{-bD}
        sf = surviving_fraction(Hybrid(alpha=1.0, beta=1.0, m=1), LN2)
        assert sf == pytest.approx(0.25)

    def test_lq_ln2(self):
        sf = surviving_fraction(LinearQuadratic(alpha=1.0, beta=1.0), 2.0)
        assert sf == pytest.approx(math.exp(-6.0))

    @pytest.mark.parametrize(
        "model",
        [
            SingleHit(alpha=0.7),
            MultiTarget(alpha=0.7, m=3),
            Hybrid(alpha=0.4, beta=0.9, m=2),
            LinearQuadratic(alpha=0.3, beta=0.05),
        ],
    )
    def test_sf_starts_at_one_and_decreases(self, model):
        doses = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        sfs = [surviving_fraction(model, d) for d in doses]
        assert sfs[0] == 1.0
        assert all(a > b for a, b in zip(sfs, sfs[1:]))
        assert all(0.0 < s <= 1.0 for s in sfs)

    def test_negative_dose_rejected(self):
        with pytest.raises(DomainError):
            surviving_fraction(SingleHit(alpha=1.0), -0.1)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: SingleHit(alpha=0.0),
            lambda: SingleHit(alpha=-1.0),
            lambda: MultiTarget(alpha=1.0, m=0),
            lambda: Hybrid(alpha=1.0, beta=-0.5, m=2),
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(ParameterError):
            bad()


class TestVariantConsistency:
    def test_multi_target_m1_equals_single_hit(self):
        for d in [0.0, 0.3, 1.0, 4.0]:
            assert surviving_fraction(MultiTarget(alpha=0.8, m=1), d) == \
                surviving_fraction(SingleHit(alpha=0.8), d)

    def test_lq_beta_zero_equals_single_hit(self):
        for d in [0.0, 0.3, 1.0, 4.0]:
            lq = surviving_fraction(LinearQuadratic(alpha=0.8, beta=0.0), d)
            sh = surviving_fraction(SingleHit(alpha=0.8), d)
            assert lq == pytest.approx(sh, abs=1e-12)


class TestKillProbability:
    def test_single_hit_three_cells(self):
        p = fsu_kill_probability(SingleHit(alpha=1.0), CellPopulation(n0=3), LN2)
        assert p == pytest.approx(0.125)

    def test_zero_dose_never_kills(self):
        for model in [SingleHit(alpha=2.0), LinearQuadratic(alpha=1.0, beta=1.0)]:
            assert fsu_kill_probability(model, CellPopulation(n0=5), 0.0) == 0.0

    def test_multi_target_exponent_combines(self):
        # (1 - e^{-aD})^{m n0} exactly
        p = fsu_kill_probability(MultiTarget(alpha=1.0, m=2), CellPopulation(n0=2), LN2)
        assert p == pytest.approx(0.0625)

    def test_monotone_in_dose(self):
        model = Hybrid(alpha=0.5, beta=0.2, m=3)
        cells = CellPopulation(n0=4)
        doses = [0.1, 0.5, 1.0, 2.0, 5.0]
        ps = [fsu_kill_probability(model, cells, d) for d in doses]
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_large_exponent_no_underflow_blowup(self):
        # log1p/expm1 path keeps tiny probabilities finite and positive
        p = fsu_kill_probability(SingleHit(alpha=1.0), CellPopulation(n0=10**6), 1e-3)
        assert 0.0 <= p < 1e-300 or p == 0.0

    def test_threshold_model_from_dose(self):
        # the window field whose noise level is the FSU kill probability
        model, cells = Hybrid(alpha=0.5, beta=0.2, m=3), CellPopulation(n0=4)
        field = threshold_model_from_dose(model, cells, 1.5, 2, 7)
        assert field == MovingWindowThreshold(2, fsu_kill_probability(model, cells, 1.5), 7)


class TestDoseInversion:
    def test_single_cell_half(self):
        d = dose_for_kill_probability(
            SingleHit(alpha=1.0), CellPopulation(n0=1), 0.5, 1e-12
        )
        assert d == pytest.approx(LN2, abs=1e-9)

    @pytest.mark.parametrize("target", [0.05, 0.2, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize(
        "model,n0",
        [
            (SingleHit(alpha=0.6), 3),
            (MultiTarget(alpha=1.2, m=2), 2),
            (LinearQuadratic(alpha=0.3, beta=0.1), 4),
        ],
    )
    def test_round_trip(self, model, n0, target):
        cells = CellPopulation(n0=n0)
        d = dose_for_kill_probability(model, cells, target, 1e-10)
        assert fsu_kill_probability(model, cells, d) == pytest.approx(target, abs=1e-10)

    def test_tolerance_below_the_doubles_raises(self):
        # the bisection's doses miss p = 0.2 by 5.6e-17 at best
        with pytest.raises(UnattainableTargetError, match="tolerance 1e-300"):
            dose_for_kill_probability(LinearQuadratic(alpha=0.3, beta=0.05),
                                      CellPopulation(n0=3), 0.2, tolerance=1e-300)

    def test_target_beyond_the_dose_cap_raises(self):
        with pytest.raises(UnattainableTargetError, match="dose cap"):
            dose_for_kill_probability(SingleHit(alpha=1e-300), CellPopulation(n0=1), 0.5)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.2, 1.5])
    def test_target_outside_open_interval(self, target):
        with pytest.raises(DomainError):
            dose_for_kill_probability(SingleHit(alpha=1.0), CellPopulation(n0=1), target)


def test_unknown_model_rejected():
    with pytest.raises(ParameterError, match="unknown model"):
        killed_fraction_of_cells(object(), 1.0)


def test_cell_population_validation():
    with pytest.raises(ParameterError):
        CellPopulation(n0=0)
