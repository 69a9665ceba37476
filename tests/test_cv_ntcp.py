import math

import numpy as np
import pytest
from scipy import special, stats

from ntcpfields.cv_ntcp import (
    OrganSpec,
    damage_volume,
    dose_for_fraction,
    fraction_curve_features,
    invert_fraction,
    kill_fraction,
    normal_cdf,
    normal_quantile,
    ntcp_exact,
    ntcp_exact_all_thresholds,
    ntcp_normal,
    ntcp_normal_integer_threshold,
    ntcp_weiss,
    ntcp_weiss_tail,
    threshold_for_confidence,
)
from ntcpfields.dose_response import CellPopulation, SingleHit, fsu_kill_probability
from ntcpfields.errors import DegenerateError, DomainError, ShapeError


class TestNormalCdfQuantile:
    def test_cdf_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_cdf_against_scipy(self):
        xs = np.linspace(-8, 8, 201)
        for x in xs:
            assert normal_cdf(x) == pytest.approx(special.ndtr(x), abs=1e-12)

    def test_quantile_975(self):
        assert normal_quantile(0.975) == pytest.approx(special.ndtri(0.975), abs=1e-10)

    def test_round_trip(self):
        # beyond |x| ~ 5 the cdf is within ~1e-7 of 0 or 1 and the round
        # trip necessarily loses resolution, so stay in the bulk
        for x in np.linspace(-5, 5, 101):
            assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-9)

    @pytest.mark.parametrize("g", [0.0, 1.0, -0.1, 1.1])
    def test_quantile_domain(self, g):
        with pytest.raises(DomainError):
            normal_quantile(g)


class TestNtcpExact:
    def test_known_tail(self):
        # sum_{k>=5} C(10,k) = 638 over 2^10
        assert ntcp_exact(10, 0.5, 5) == pytest.approx(0.623046875, abs=1e-15)

    def test_trivial_thresholds(self):
        assert ntcp_exact(7, 0.3, 0) == 1.0
        assert ntcp_exact(7, 0.3, 8) == 0.0

    @pytest.mark.parametrize("n", [5, 37, 200, 1000])
    @pytest.mark.parametrize("p", [0.02, 0.3, 0.5, 0.77, 0.98])
    def test_against_scipy_binom_sf(self, n, p):
        tails = ntcp_exact_all_thresholds(n, p)
        for L in range(0, n + 2):
            assert tails[L] == pytest.approx(stats.binom.sf(L - 1, n, p), abs=1e-12)

    def test_monotone_in_threshold_and_p(self):
        tails = ntcp_exact_all_thresholds(50, 0.4)
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        for L in [5, 20, 35]:
            values = [ntcp_exact(50, p, L) for p in (0.2, 0.4, 0.6, 0.8)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_stable_at_large_n(self):
        assert ntcp_exact(10**6, 0.5, 500000) == pytest.approx(
            stats.binom.sf(499999, 10**6, 0.5), abs=1e-9
        )

    @pytest.mark.parametrize("n, p, threshold", [
        pytest.param(10, 0.5, 12, id="L_above_n_plus_1"),
        pytest.param(5, 2.0, 0, id="L0_p_above_1"),
        pytest.param(0, 0.5, 0, id="L0_n_0"),
        pytest.param(5, math.nan, 0, id="L0_p_nan"),
    ])
    def test_threshold_range(self, n, p, threshold):
        with pytest.raises(DomainError):
            ntcp_exact(n, p, threshold)


class TestNtcpNormal:
    def test_midpoint(self):
        res = ntcp_normal(100, 0.5, 50)
        assert res.value == 0.5
        assert res.error_bound == pytest.approx(0.1595)

    def test_far_left_threshold(self):
        assert ntcp_normal(100, 0.5, -1e9).value == pytest.approx(1.0)

    def test_certificate_on_grid(self):
        for n in (20, 100):
            for p in (0.2, 0.5, 0.8):
                exact = ntcp_exact_all_thresholds(n, p)
                for L in range(0, n + 2):
                    res = ntcp_normal(n, p, L)
                    assert abs(res.value - exact[L]) <= res.error_bound

    def test_degenerate_p(self):
        with pytest.raises(DegenerateError):
            ntcp_normal(10, 0.0, 3)


class TestIntegerThreshold:
    def test_symmetric_case(self):
        L, res = ntcp_normal_integer_threshold(100, 0.5, 0.5)
        assert L == 50
        assert res.value == 0.5
        assert res.error_bound == pytest.approx((0.7975 + 1 / math.sqrt(2 * math.pi)) / 5)

    def test_certificate(self):
        for n, p, gamma in [(100, 0.5, 0.9), (200, 0.3, 0.8), (400, 0.7, 0.95)]:
            L, res = ntcp_normal_integer_threshold(n, p, gamma)
            assert abs(ntcp_exact(n, p, L) - (1 - gamma)) <= res.error_bound

    def test_integer_x_gamma_is_fixed_point(self):
        # gamma = 1/2 makes x_gamma = np, already an integer here
        L, _ = ntcp_normal_integer_threshold(100, 0.3, 0.5)
        assert L == 30


class TestThresholdForConfidence:
    def test_median_threshold(self):
        assert threshold_for_confidence(100, 0.3, 0.5) == pytest.approx(30.0)

    def test_upper_threshold(self):
        x = threshold_for_confidence(100, 0.2, 0.975)
        assert x == pytest.approx(20 + 4 * special.ndtri(0.975), abs=1e-6)

    def test_round_trip_with_normal(self):
        x = threshold_for_confidence(80, 0.4, 0.9)
        assert ntcp_normal(80, 0.4, x).value == pytest.approx(0.1, abs=1e-12)


class TestWeiss:
    def test_symmetric_correction_vanishes(self):
        res = ntcp_weiss(100, 0.5, 45, 55)
        sigma = 5.0
        t1, t2 = (45 - 0.5 - 50) / sigma, (55 + 0.5 - 50) / sigma
        assert res.value == pytest.approx(normal_cdf(t2) - normal_cdf(t1), abs=1e-15)

    def test_bound_at_sigma_five(self):
        res = ntcp_weiss(100, 0.5, 40, 60)
        assert res.error_bound == pytest.approx(0.12 / 25 + math.exp(-7.5), abs=1e-9)

    def test_bound_unavailable_below_sigma_five(self):
        assert ntcp_weiss(20, 0.5, 5, 15).error_bound is None

    def test_certificate_on_grid(self):
        for n, p in [(100, 0.5), (200, 0.3), (500, 0.7)]:
            exact = ntcp_exact_all_thresholds(n, p)
            for L in range(1, n + 1, 7):
                res = ntcp_weiss_tail(n, p, L)
                assert abs(res.value - exact[L]) <= res.error_bound

    def test_k_above_m_rejected(self):
        with pytest.raises(DomainError):
            ntcp_weiss(100, 0.5, 10, 5)


class TestKillFraction:
    def test_c_zero_identity(self):
        for p in np.linspace(0, 1, 11):
            assert kill_fraction(p, 0.0) == p

    def test_reaches_one_at_p1(self):
        for c in (0.25, 0.5, 1.0, 2.0):
            assert kill_fraction(1 / (1 + c * c), c) == pytest.approx(1.0, abs=1e-12)

    def test_simple_value(self):
        assert kill_fraction(0.5, 1.0) == pytest.approx(1.0)

    def test_concavity(self):
        grid = np.linspace(0.01, 0.99, 99)
        for c in (0.3, 1.0, 2.0):
            k = np.array([kill_fraction(p, c) for p in grid])
            second = k[2:] - 2 * k[1:-1] + k[:-2]
            assert np.all(second <= 1e-12)

    def test_excess_bound(self):
        # sup_p (kappa(p) - p) <= z_gamma / (2 sqrt(n))
        grid = np.linspace(0, 1, 2001)
        for gamma in (0.5, 0.9, 0.975):
            for n in (10, 100, 1000):
                c = normal_quantile(gamma) / math.sqrt(n) if gamma > 0.5 else 0.0
                excess = max(kill_fraction(p, c) - p for p in grid)
                assert excess <= normal_quantile(gamma) / (2 * math.sqrt(n)) + 1e-12 \
                    if gamma > 0.5 else excess == 0.0


class TestFractionCurveFeatures:
    def test_degenerate_c(self):
        f = fraction_curve_features(0.0)
        assert (f.p1, f.p_star, f.kappa_star) == (1.0, 1.0, 1.0)

    def test_unit_c(self):
        f = fraction_curve_features(1.0)
        assert f.p1 == pytest.approx(0.5)
        assert f.p_star == pytest.approx(0.8535534, abs=1e-7)
        assert f.kappa_star == pytest.approx(1.2071068, abs=1e-7)

    def test_grid_argmax_matches_closed_form(self):
        grid = np.linspace(0.0, 1.0, 100001)
        for c in (0.5, 1.0, 1.7):
            k = grid + c * np.sqrt(grid * (1 - grid))
            f = fraction_curve_features(c)
            assert grid[np.argmax(k)] == pytest.approx(f.p_star, abs=1e-5)
            assert np.max(k) == pytest.approx(f.kappa_star, abs=1e-8)


class TestInvertFraction:
    def test_c_zero(self):
        assert invert_fraction(0.4, 0.0) == pytest.approx(0.4)

    def test_round_trip(self):
        for kappa in np.arange(0.05, 0.96, 0.05):
            for c in np.arange(0.0, 2.01, 0.1):
                p = invert_fraction(kappa, c)
                assert kill_fraction(p, c) == pytest.approx(kappa, abs=1e-12)
                assert p <= kappa + 1e-15

    def test_known_value(self):
        p = invert_fraction(0.5, 1.0)
        assert p == pytest.approx(0.1464466, abs=1e-7)

    def test_positive_branch_is_extraneous(self):
        # regression for the sign choice: the other quadratic root fails
        # the forward substitution for every c > 0
        for kappa in (0.1, 0.5, 0.9):
            for c in (0.25, 1.0, 2.0):
                disc = kappa - kappa * kappa + 0.25 * c * c
                p_pos = (kappa + 0.5 * c * c + c * math.sqrt(disc)) / (1 + c * c)
                if p_pos <= 1.0:
                    assert abs(kill_fraction(p_pos, c) - kappa) > 1e-6

    @pytest.mark.parametrize("kappa", [0.0, 1.0, -0.3, 2.0])
    def test_domain(self, kappa):
        with pytest.raises(DomainError):
            invert_fraction(kappa, 1.0)


class TestDoseForFraction:
    def test_median_confidence_single_cell(self):
        d = dose_for_fraction(
            SingleHit(alpha=1.0), CellPopulation(n0=1), 0.5, n=100, gamma=0.5
        )
        assert d == pytest.approx(math.log(2.0), abs=1e-8)

    def test_forward_chain(self):
        model, cells = SingleHit(alpha=0.8), CellPopulation(n0=2)
        for kappa in (0.2, 0.5, 0.8):
            for n, gamma in [(100, 0.9), (400, 0.975)]:
                d = dose_for_fraction(model, cells, kappa, n=n, gamma=gamma)
                c = normal_quantile(gamma) / math.sqrt(n)
                p = fsu_kill_probability(model, cells, d)
                assert kill_fraction(p, c) == pytest.approx(kappa, abs=1e-7)


class TestDamageVolume:
    def test_extremes(self):
        organ = OrganSpec(n=10, volume=1.0, reserve=3)
        assert damage_volume(organ, [1] * 10) == pytest.approx(1.0)
        assert damage_volume(organ, [0] * 10) == 0.0

    def test_equal_volumes_fraction(self):
        organ = OrganSpec(n=10, volume=1.0, reserve=3)
        states = [1, 1, 1] + [0] * 7
        assert damage_volume(organ, states) == pytest.approx(0.3)

    def test_length_mismatch(self):
        organ = OrganSpec(n=10, volume=1.0, reserve=3)
        with pytest.raises(ShapeError):
            damage_volume(organ, [1] * 9)

    def test_volumes_must_sum(self):
        with pytest.raises(DomainError):
            OrganSpec(n=2, volume=1.0, reserve=1, fsu_volumes=(0.7, 0.7))
