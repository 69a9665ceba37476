import hashlib
import math
import platform
import sys
import tracemalloc

import numpy as np
from numpy._core import _multiarray_umath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats
from test_properties import PROPERTY

from ntcpfields import cv_ntcp

from ntcpfields.cv_ntcp import (
    OrganSpec,
    _binomial_pmf,
    _log_term_ratios,
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
from ntcpfields.errors import CapacityError, DegenerateError, DomainError, ShapeError


def reference_pmf(n, p):
    """The full-array binomial pmf: exp and normalize all n + 1 entries."""
    if p in (0.0, 1.0):
        out = np.zeros(n + 1)
        out[0 if p == 0.0 else n] = 1.0
        return out
    logs = np.log(np.arange(1, n + 1, dtype=np.float64))
    ratios = logs[::-1] - logs + math.log(p) - math.log1p(-p)
    log_pmf = np.concatenate(([0.0], np.cumsum(ratios)))
    log_pmf -= log_pmf.max()
    pmf = np.exp(log_pmf)
    pmf /= pmf.sum()
    return pmf


def log_exp_target():
    """The numpy dispatch target of float64 log and exp on this host: X86_V4
    with AVX-512, else X86_V3 on x86-64 (its loop gives the bytes of the
    X86_V2 baseline too); on another machine, its name.  Setting
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" runs the X86_V3
    loop on an AVX-512 host."""
    machine = platform.machine()
    if machine.lower() not in ("x86_64", "amd64"):
        return machine
    return "X86_V4" if _multiarray_umath.__cpu_features__.get("X86_V4") else "X86_V3"


def reference_tail(n, p):
    """The full-array tail: a reversed cumsum over all of reference_pmf."""
    tail = np.concatenate((np.cumsum(reference_pmf(n, p)[::-1])[::-1], [0.0]))
    tail[0] = 1.0
    return np.clip(tail, 0.0, 1.0)


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

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**6])
    @pytest.mark.parametrize("p", [1e-9, 0.3, 0.5, 0.98])
    def test_log_ratios_from_chunk_local_logs(self, n, p):
        # log(n - k) and log(k + 1), taken in chunk-local arrays one chunk at
        # a time, give the same bits as taking them over all n counts at once
        k = np.arange(n, dtype=np.float64)
        separate = np.log(n - k) - np.log(k + 1) + math.log(p) - math.log1p(-p)
        ratios = np.full(n, np.nan)
        for start in range(0, n, cv_ntcp._CHUNK):
            stop = min(start + cv_ntcp._CHUNK, n)
            _log_term_ratios(n, p, start, stop, ratios[start:stop])
        assert np.array_equal(ratios, separate)

    @pytest.mark.parametrize("n, p, threshold", [
        pytest.param(10, 0.5, 12, id="L_above_n_plus_1"),
        pytest.param(5, 2.0, 0, id="L0_p_above_1"),
        pytest.param(0, 0.5, 0, id="L0_n_0"),
        pytest.param(5, math.nan, 0, id="L0_p_nan"),
    ])
    def test_threshold_range(self, n, p, threshold):
        with pytest.raises(DomainError):
            ntcp_exact(n, p, threshold)


class TestExactTailBits:
    """The windowed pmf and tail give the bytes of the full-array formula."""

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 12345, 10**6])
    @pytest.mark.parametrize("p", [0.0, 1e-300, 1e-9, 0.3, 0.4335, 0.5, 0.98,
                                   1.0 - 2.0**-53, 1.0])
    def test_grid_matches_full_array_formula(self, n, p):
        assert _binomial_pmf(n, p).tobytes() == reference_pmf(n, p).tobytes()
        assert ntcp_exact_all_thresholds(n, p).tobytes() == reference_tail(n, p).tobytes()

    @PROPERTY
    @given(n=st.integers(min_value=1, max_value=2 * 10**5),
           p=st.floats(min_value=0.0, max_value=1.0))
    def test_property_matches_full_array_formula(self, n, p):
        assert _binomial_pmf(n, p).tobytes() == reference_pmf(n, p).tobytes()
        assert ntcp_exact_all_thresholds(n, p).tobytes() == reference_tail(n, p).tobytes()

    C = cv_ntcp._CHUNK

    @pytest.mark.parametrize("n", [C - 1, C, C + 1, 2 * C + 1, 3 * C + 7])
    @pytest.mark.parametrize("p", [1e-300, 1e-9, 1e-3, 0.5, 0.999, 1.0 - 2.0**-53])
    def test_chunk_edges_match_full_array_formula(self, n, p):
        assert _binomial_pmf(n, p).tobytes() == reference_pmf(n, p).tobytes()
        assert ntcp_exact_all_thresholds(n, p).tobytes() == reference_tail(n, p).tobytes()

    @pytest.mark.parametrize("n", [2 * C + 1, 3 * C + 7])
    @pytest.mark.parametrize("z", [-38.4, -38.0, -37.6, -1.0, 0.0, 1.0])
    def test_window_across_a_chunk_edge(self, n, z):
        # the mode sits z standard deviations from count C, the first
        # chunk's end, so the window spans that end; near z = -38 the end
        # falls in the window's last ~50 log units (exp still above 0.0),
        # and the prefix sum must carry on into the next chunk
        sigma = math.sqrt(self.C * (1.0 - self.C / n))
        p = (self.C + z * sigma) / n
        assert _binomial_pmf(n, p).tobytes() == reference_pmf(n, p).tobytes()
        assert ntcp_exact_all_thresholds(n, p).tobytes() == reference_tail(n, p).tobytes()

    @PROPERTY
    @given(n=st.integers(min_value=1, max_value=4 * C + 3),
           p=st.one_of(st.floats(min_value=0.0, max_value=1e-3),
                       st.floats(min_value=0.999, max_value=1.0)))
    def test_property_near_0_and_1_across_chunks(self, n, p):
        assert _binomial_pmf(n, p).tobytes() == reference_pmf(n, p).tobytes()
        assert ntcp_exact_all_thresholds(n, p).tobytes() == reference_tail(n, p).tobytes()

    # above 1/2 the walk passes the middle and reuses its log differences
    # there (D(n - 1 - k) = -D(k)); at 8 * C + 3 the stored counts begin
    # inside a chunk, so they straddle chunk edges
    @pytest.mark.parametrize("n", [8 * C + 3, 10**6])
    @pytest.mark.parametrize("p", [0.5, 0.5 + 1e-9, 0.55, 0.6, 0.75, 0.9, 0.999])
    def test_mirrored_log_differences_match_full_array_formula(self, n, p):
        assert _binomial_pmf(n, p).tobytes() == reference_pmf(n, p).tobytes()
        assert ntcp_exact_all_thresholds(n, p).tobytes() == reference_tail(n, p).tobytes()

    # at each of these the walk stops a chunk short of counts whose log
    # differences it stored from below the middle
    @pytest.mark.parametrize("n, p", [(8 * C + 3, 0.5981), (8 * C + 3, 0.7255),
                                      (8 * C + 3, 0.998), (10**6, 0.5045),
                                      (10**6, 0.9064), (10**6, 0.9773)])
    def test_zero_outside_the_window(self, n, p):
        out, lo, hi = cv_ntcp._pmf_window(n, p)
        assert out.shape == (n + 2,) and 0 <= lo < hi <= n + 1
        assert not out[:lo].any() and not out[hi:].any()
        assert out[lo:hi].sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.42, 0.4335, 0.5, 0.58, 0.9, 0.98])
    def test_peak_memory_is_one_array_of_n(self, p):
        # the output plus the logs of one chunk: an n-length log table
        # would take the peak to two arrays
        n = 10**6
        ntcp_exact_all_thresholds(n, p)
        tracemalloc.start()
        try:
            ntcp_exact_all_thresholds(n, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 8 * (n + 2)

    # sha256 of the full-array formula's bytes at n = 10^6 on numpy 2.4 for
    # x86-64, for each loop that numpy dispatches float64 log and exp to:
    # the AVX-512 one (X86_V4) and the one of hosts without AVX-512 (X86_V3;
    # the X86_V2 baseline gives the same bytes).  The ids keep the X86_V4
    # digest.
    @pytest.mark.parametrize("p, digests", [
        pytest.param(0.42, {
            "X86_V4": "78753f00af51cf5981efb050662ae0647d997bdc7e7abec3f8a0ade017798dc1",
            "X86_V3": "ebae2d804a56b7234497666d75007bdbc22a99b3da7f193ec7f96cc429285fd9",
        }, id="0.42-78753f00af51cf5981efb050662ae0647d997bdc7e7abec3f8a0ade017798dc1"),
        pytest.param(0.4335, {
            "X86_V4": "b0b33e5a46a714999f9970afe9fdcd1a0db017bd2c6c8a1bddf3901f82958866",
            "X86_V3": "235db8ea6e9ca598523e8bd77f3958b1099939975b37689a0c7d26a7c52a0e0f",
        }, id="0.4335-b0b33e5a46a714999f9970afe9fdcd1a0db017bd2c6c8a1bddf3901f82958866"),
        pytest.param(0.58, {
            "X86_V4": "e64adbf9107404131c44eb237561740b281b91d6fcd0c8702d733cec1666daeb",
            "X86_V3": "35dead82f910bc928ec262ba0425a107ab44b48a59514b66df381ee3b4841ecc",
        }, id="0.58-e64adbf9107404131c44eb237561740b281b91d6fcd0c8702d733cec1666daeb"),
        pytest.param(0.9, {
            "X86_V4": "1865656b405890cba0364d54550bb6af573d251bccfd812ddd84224e7834895e",
            "X86_V3": "c7873dcc10ad8efcd088fec8d139c3b8fced2dab092a8bc0e0f734a80c43cdbd",
        }, id="0.9-1865656b405890cba0364d54550bb6af573d251bccfd812ddd84224e7834895e"),
    ])
    def test_pinned_digest_at_a_million(self, p, digests):
        target = log_exp_target()
        if target not in digests:
            pytest.skip(f"no digest pinned for float64 log and exp on {target}")
        tail = ntcp_exact_all_thresholds(10**6, p)
        assert hashlib.sha256(tail.tobytes()).hexdigest() == digests[target]


class TestExactTailCapacity:
    def test_cap_raises_before_allocating(self, monkeypatch):
        def no_pmf(n, p):
            raise AssertionError("the pmf was built above the cap")

        monkeypatch.setattr(cv_ntcp, "_pmf_window", no_pmf)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                ntcp_exact_all_thresholds(2**40, 0.5)
            with pytest.raises(CapacityError):
                ntcp_exact(2**40, 0.5, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFsuModelDomain:
    """One (n, p) check guards every independent-FSU function."""

    FUNCTIONS = [
        pytest.param(lambda n, p: ntcp_exact(n, p, 0), id="exact"),
        pytest.param(lambda n, p: ntcp_exact_all_thresholds(n, p), id="all_thresholds"),
        pytest.param(lambda n, p: ntcp_normal(n, p, 0), id="normal"),
        pytest.param(lambda n, p: threshold_for_confidence(n, p, 0.9), id="threshold"),
        pytest.param(lambda n, p: ntcp_normal_integer_threshold(n, p, 0.9),
                     id="integer_threshold"),
        pytest.param(lambda n, p: ntcp_weiss(n, p, 0, 1), id="weiss"),
        pytest.param(lambda n, p: ntcp_weiss_tail(n, p, 0), id="weiss_tail_L0"),
        pytest.param(lambda n, p: ntcp_weiss_tail(n, p, 10**9), id="weiss_tail_L_above_n"),
    ]

    @pytest.mark.parametrize("fn", FUNCTIONS)
    @pytest.mark.parametrize("n, p", [
        pytest.param(0, 0.5, id="n_0"),
        pytest.param(-4, 0.5, id="n_negative"),
        pytest.param(10.5, 0.3, id="n_fractional"),
        pytest.param(10.0, 0.3, id="n_float"),
        pytest.param(True, 0.3, id="n_bool"),
        pytest.param(5, 2.0, id="p_above_1"),
        pytest.param(5, -0.1, id="p_negative"),
        pytest.param(5, math.nan, id="p_nan"),
    ])
    def test_rejected(self, fn, n, p):
        with pytest.raises(DomainError) as info:
            fn(n, p)
        assert not isinstance(info.value, DegenerateError)

    def test_numpy_integer_n_accepted(self):
        assert ntcp_exact(np.int64(10), 0.5, 5) == ntcp_exact(10, 0.5, 5)

    @pytest.mark.parametrize("threshold", [2.5, 3.0, None])
    def test_non_integer_threshold_rejected(self, threshold):
        with pytest.raises(DomainError):
            ntcp_exact(10, 0.5, threshold)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_p_still_degenerate(self, p):
        with pytest.raises(DegenerateError):
            ntcp_normal(10, p, 3)


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


class TestConfidenceMultiplierDomain:
    FUNCTIONS = [
        pytest.param(lambda c: kill_fraction(0.5, c), id="kill_fraction"),
        pytest.param(fraction_curve_features, id="features"),
        pytest.param(lambda c: invert_fraction(0.5, c), id="invert_fraction"),
    ]

    @pytest.mark.parametrize("fn", FUNCTIONS)
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejected(self, fn, c):
        with pytest.raises(DomainError):
            fn(c)

    @pytest.mark.parametrize("fn", FUNCTIONS)
    def test_negative_zero_equals_zero(self, fn):
        assert fn(-0.0) == fn(0.0)


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

    @pytest.mark.parametrize("c", [1e160, 1e200, sys.float_info.max])
    def test_huge_c_stays_finite(self, c):
        # c * c overflows to inf above c ~ 1.3e154
        f = fraction_curve_features(c)
        assert f.kappa_star == 0.5 * (1.0 + c)
        assert f.p_star == 0.5
        assert 0.0 <= f.p1 < 1e-300


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

    def test_root_near_the_normal_range_is_positive(self):
        # p ~ kappa^2 / c^2: still a normal float at c = 1e153
        p = invert_fraction(0.5, 1e153)
        assert p == pytest.approx(2.5e-307, rel=1e-12)
        assert kill_fraction(p, 1e153) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize(
        "kappa,c", [(0.5, 1.2e154), (0.5, 1e160), (0.99, 1e200), (1e-200, 1.0)])
    def test_underflowing_root_rejected(self, kappa, c):
        # roots below the normal float range; 0.0 would leave (0, kappa]
        with pytest.raises(DomainError, match="underflows"):
            invert_fraction(kappa, c)


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

    @pytest.mark.parametrize("n", [10.5, 10.0, 0, True])
    def test_fsu_count_must_be_a_positive_integer(self, n):
        with pytest.raises(DomainError, match="n must be an integer"):
            dose_for_fraction(SingleHit(alpha=1.0), CellPopulation(n0=1), 0.5, n=n, gamma=0.9)


class TestDamageVolume:
    def test_extremes(self):
        organ = OrganSpec(n=10, volume=1.0, reserve=3)
        assert damage_volume(organ, [1] * 10) == pytest.approx(1.0)
        assert damage_volume(organ, [0] * 10) == 0.0

    def test_equal_volumes_fraction(self):
        organ = OrganSpec(n=10, volume=1.0, reserve=3)
        states = [1, 1, 1] + [0] * 7
        assert damage_volume(organ, states) == pytest.approx(0.3)

    @pytest.mark.parametrize("state", [2, -1, 0.5, math.nan])
    def test_state_must_be_0_or_1(self, state):
        organ = OrganSpec(n=2, volume=1.0, reserve=1)
        with pytest.raises(DomainError, match="state must be 0 or 1"):
            damage_volume(organ, [1, state])

    def test_length_mismatch(self):
        organ = OrganSpec(n=10, volume=1.0, reserve=3)
        with pytest.raises(ShapeError):
            damage_volume(organ, [1] * 9)

    def test_volumes_must_sum(self):
        with pytest.raises(DomainError):
            OrganSpec(n=2, volume=1.0, reserve=1, fsu_volumes=(0.7, 0.7))

    def test_volumes_must_number_n(self):
        with pytest.raises(ShapeError, match="length n"):
            OrganSpec(n=3, volume=1.0, reserve=1, fsu_volumes=(0.5, 0.5))

    def test_fractional_reserve(self):
        assert OrganSpec(n=10, volume=1.0, reserve=0.3).reserve == 0.3
        with pytest.raises(DomainError, match="fractional reserve kappa"):
            OrganSpec(n=10, volume=1.0, reserve=1.5)

    def test_equal_volumes_are_added_as_given_ones(self):
        # volume / n is added once per killed FSU, the same floats in the
        # same order as a tuple of n copies of it
        organ = OrganSpec(n=7, volume=0.3, reserve=3)
        states = [1, 0, 1, 1, 0, 1, 1]
        given = OrganSpec(n=7, volume=0.3, reserve=3, fsu_volumes=(0.3 / 7,) * 7)
        assert damage_volume(organ, states) == damage_volume(given, states)
        assert damage_volume(organ, states) == sum([0.3 / 7] * 5)

    def test_equal_volumes_are_not_stored(self):
        # 10^8 copies of volume / n would take 800 MB
        tracemalloc.start()
        try:
            organ = OrganSpec(n=cv_ntcp.MAX_EXACT_N, volume=1.0, reserve=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert organ.fsu_volumes is None

    @pytest.mark.parametrize("n", [2.5, 2.0, 0, -3, True])
    def test_fsu_count_must_be_a_positive_integer(self, n):
        # [v] * 2.5 would end in a bare TypeError
        with pytest.raises(DomainError, match="n must be an integer"):
            OrganSpec(n=n, volume=1.0, reserve=1)
