import json

import numpy as np
import pytest
from scipy import special

from ntcpfields import experiment
from ntcpfields.errors import ConfigError, DegenerateError, DomainError, ShapeError
from ntcpfields.experiment import (
    REPORT_COLUMNS,
    ExperimentConfig,
    config_from_dict,
    coverage_study,
    estimator_consistency,
    fit_rate,
    ks_distance,
    load_config,
    report_to_csv,
    run_clt_experiment,
    write_report,
)
from ntcpfields.dependent_clt import (
    EstimatorConfig,
    confidence_interval,
    self_normalized_statistic,
)
from ntcpfields.lattice_fields import (
    LatticeCube,
    MovingWindowLevels,
    MovingWindowThreshold,
    derive_seeds,
    model_mean,
    model_sigma2,
    sample_field,
)

MAJORITY = MovingWindowThreshold(window_radius=1, theta=0.5, k_min=2)


class TestKsDistance:
    def test_single_point_at_zero(self):
        assert ks_distance([0.0]) == pytest.approx(0.5)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        ks = ks_distance(values)
        assert 0.0 <= ks <= 1.0

    def test_large_normal_sample_small_distance(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=100000)
        # DKW: P(KS > eps) <= 2 exp(-2 N eps^2); eps = 0.01 is comfortable
        assert ks_distance(values) <= 0.01

    def test_degenerate_far_sample(self):
        assert ks_distance([10.0, 11.0]) == pytest.approx(special.ndtr(10.0), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ks_distance([])

    def test_order_invariant(self):
        values = [0.3, -1.2, 0.8, 2.0, -0.4]
        assert ks_distance(values) == ks_distance(sorted(values))


class TestFitRate:
    def test_exact_power_law(self):
        points = [(n, (2 * n + 1) ** -0.5) for n in (10, 100, 1000)]
        fit = fit_rate(points, d=1)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert not fit.clipped

    def test_dimension_scales_exponent(self):
        points = [(n, float((2 * n + 1) ** 2) ** -0.25) for n in (10, 30, 100)]
        fit = fit_rate(points, d=2)
        assert fit.exponent == pytest.approx(0.25, abs=1e-9)

    def test_constant_sequence(self):
        fit = fit_rate([(10, 0.05), (100, 0.05)], d=1)
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_clipped_flag(self):
        fit = fit_rate([(10, 0.05), (100, 0.0)], d=1)
        assert fit.clipped

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            fit_rate([(10, 0.05)])


def small_config(**overrides):
    kwargs = dict(
        model=MAJORITY,
        d=1,
        n_schedule=(20, 40),
        replicates=200,
        master_seed=6,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestRunCltExperiment:
    def test_deterministic_reruns(self):
        a = run_clt_experiment(small_config())
        b = run_clt_experiment(small_config())
        assert a.rows == b.rows

    def test_row_grid_shape(self):
        report = run_clt_experiment(small_config(levels=(0.9, 0.95)))
        # rows = n_schedule x {true_sigma, estimated} x levels
        assert len(report.rows) == 2 * 2 * 2
        modes = {row.mode for row in report.rows}
        assert modes == {"true_sigma", "estimated"}

    def test_coverage_only_on_estimated_rows(self):
        report = run_clt_experiment(small_config())
        for row in report.rows:
            if row.mode == "true_sigma":
                assert row.coverage is None
            else:
                assert 0.0 <= row.coverage <= 1.0

    def test_sigma2_column_is_exact_value(self):
        report = run_clt_experiment(small_config())
        assert all(row.ks < 0.3 for row in report.rows)
        assert all(row.sigma2 == pytest.approx(0.625, abs=1e-12) for row in report.rows)

    def test_hypothesized_mean_disables_coverage(self):
        report = run_clt_experiment(small_config(mean_source=0.5))
        assert all(row.coverage is None for row in report.rows)

    def test_degenerate_model_aborts(self):
        frozen = MovingWindowThreshold(window_radius=1, theta=0.0, k_min=1)
        with pytest.raises(DegenerateError):
            run_clt_experiment(small_config(model=frozen))

    def test_schedule_must_increase(self):
        with pytest.raises(DomainError):
            small_config(n_schedule=(40, 20))

    @pytest.mark.parametrize(
        "overrides",
        [dict(d=0), dict(d=4), dict(n_schedule=()), dict(n_schedule=(0, 20))],
        ids=["d0", "d4", "empty_schedule", "n0"],
    )
    def test_invalid_config_rejected(self, overrides):
        # rejected when the config is built, before sigma^2 or any sampling
        with pytest.raises(DomainError):
            small_config(**overrides)

    @pytest.mark.parametrize("model, d, n_schedule", [
        (MAJORITY, 1, (20, 40)),
        (MovingWindowThreshold(window_radius=1, theta=0.5, k_min=5), 2, (3, 6)),
        (MovingWindowLevels(window_radius=1, theta=0.5, levels=5), 3, (2, 3)),
    ], ids=["d1", "d2", "d3"])
    def test_campaign_matches_single_sample_api(self, model, d, n_schedule):
        # the campaign's batch statistics and coverage equal, bit for bit,
        # the single-sample functions applied to the same replicates
        config = small_config(model=model, d=d, n_schedule=n_schedule,
                              replicates=40, levels=(0.5, 0.95))
        mean, sigma2 = model_mean(model, d), model_sigma2(model, d).value
        rows = run_clt_experiment(config).rows
        for n in n_schedule:
            cube = LatticeCube(d=d, n=n)
            samples = [sample_field(model, cube, s)
                       for s in derive_seeds(config.master_seed, n, range(40))]
            ks = {
                "true_sigma": ks_distance([self_normalized_statistic(
                    x, mean, mode="true_sigma", sigma2=sigma2).value for x in samples]),
                "estimated": ks_distance([self_normalized_statistic(
                    x, mean, config.estimator).value for x in samples]),
            }
            for row in (row for row in rows if row.n == n):
                assert row.ks == ks[row.mode]
                if row.mode == "estimated":
                    intervals = [confidence_interval(x, row.level, config.estimator)
                                 for x in samples]
                    assert row.coverage == np.mean([lo <= mean <= hi for lo, hi in intervals])


class TestConsistencyAndCoverage:
    def test_consistency_summary_fields(self):
        summaries = estimator_consistency(small_config())
        assert [s.n for s in summaries] == [20, 40]
        for s in summaries:
            assert s.sigma2 == pytest.approx(0.625, abs=1e-12)
            assert s.chat_sd > 0
            assert abs(s.chat_mean - s.sigma2) < 0.25

    def test_coverage_study_output(self):
        rows = coverage_study(small_config(n_schedule=(100,), levels=(0.5, 0.95)))
        cov = dict(((n, lv), c) for n, lv, c in rows)
        assert set(cov) == {(100, 0.5), (100, 0.95)}
        assert abs(cov[(100, 0.5)] - 0.5) < 0.15
        assert cov[(100, 0.95)] > cov[(100, 0.5)]

    def test_only_what_is_returned_is_derived(self, monkeypatch):
        # neither front-end returns a KS distance, so neither computes one
        expected = estimator_consistency(small_config()), coverage_study(small_config())

        def no_ks(values):
            raise AssertionError("ks_distance called")

        monkeypatch.setattr(experiment, "ks_distance", no_ks)
        assert (estimator_consistency(small_config()), coverage_study(small_config())) == expected

    def test_stream_refills_one_pair_of_arrays(self):
        # no n's S(U) or C_hat array outlives the next n
        _, _, stream = experiment._campaign(small_config(n_schedule=(20, 30, 40)))
        pairs = [(sums, chats) for _, _, sums, chats in stream]
        assert all(sums is pairs[0][0] and chats is pairs[0][1] for sums, chats in pairs)

    def test_coverage_requires_model_mean(self):
        with pytest.raises(DomainError):
            coverage_study(small_config(mean_source=0.5))


class TestConfigIO:
    def test_dict_round_trip(self):
        config = small_config(
            estimator=EstimatorConfig(bandwidth=3),
            mean_source=0.5,
            levels=(0.9, 0.95),
        )
        assert config_from_dict(config.to_dict()) == config

    def test_eta_round_trip(self):
        config = small_config(estimator=EstimatorConfig(eta=0.25))
        assert config_from_dict(config.to_dict()) == config

    def test_load_config_file(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert load_config(path) == config

    @pytest.mark.parametrize(
        "key,value",
        [("d", "three"), ("d", 2.0), ("n_schedule", 10), ("n_schedule", [10, "20"]),
         ("replicates", True), ("levels", 0.95), ("model", None), ("mean_source", 0.5)],
    )
    def test_wrongly_typed_field(self, key, value):
        data = small_config().to_dict()
        data[key] = value
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_numpy_numbers_accepted(self):
        data = small_config().to_dict()
        data["d"] = np.int64(data["d"])
        data["levels"] = [np.float64(v) for v in data["levels"]]
        assert config_from_dict(data) == small_config()

    def test_bad_mean_source(self):
        data = small_config().to_dict()
        data["mean_source"] = "sample"
        with pytest.raises(DomainError):
            config_from_dict(data)


class TestReportPersistence:
    def test_csv_header_and_digits(self):
        report = run_clt_experiment(small_config())
        csv = report_to_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 1 + len(report.rows)
        # every float is printed with at most 9 significant digits
        for line in lines[1:]:
            for token in line.split(","):
                if "." in token:
                    digits = token.replace("-", "").replace(".", "").lstrip("0")
                    assert len(digits.split("e")[0]) <= 9

    def test_write_report_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(run_clt_experiment(small_config()), first)
        write_report(run_clt_experiment(small_config()), second)
        assert first.read_bytes() == second.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert config_from_dict(meta) == small_config()

    def test_none_serialized_as_empty_field(self):
        report = run_clt_experiment(small_config())
        for line in report_to_csv(report).strip().split("\n")[1:]:
            cells = line.split(",")
            if cells[REPORT_COLUMNS.index("mode")] == "true_sigma":
                assert cells[REPORT_COLUMNS.index("coverage")] == ""
