import json

import pytest

from ntcpfields import dependent_clt
from ntcpfields.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_pairs(out):
    pairs = {}
    for line in out.strip().split("\n"):
        key, value = line.split(" ", 1)
        pairs[key] = value
    return pairs


class TestNtcpCommand:
    def test_exact_value(self, capsys):
        code, out, _ = run(
            capsys, "ntcp", "--n", "10", "--p", "0.5", "--L", "5", "--method", "exact"
        )
        assert code == 0
        assert parse_pairs(out)["exact_value"] == "0.623046875"

    def test_all_methods(self, capsys):
        code, out, _ = run(capsys, "ntcp", "--n", "100", "--p", "0.5", "--L", "60")
        assert code == 0
        pairs = parse_pairs(out)
        assert set(pairs) == {
            "exact_value", "exact_error_bound",
            "normal_value", "normal_error_bound",
            "weiss_value", "weiss_error_bound",
        }
        exact = float(pairs["exact_value"])
        assert abs(float(pairs["normal_value"]) - exact) <= float(pairs["normal_error_bound"])
        assert abs(float(pairs["weiss_value"]) - exact) <= float(pairs["weiss_error_bound"])

    def test_weiss_bound_unavailable(self, capsys):
        code, out, _ = run(
            capsys, "ntcp", "--n", "10", "--p", "0.5", "--L", "5", "--method", "weiss"
        )
        assert code == 0
        assert parse_pairs(out)["weiss_error_bound"] == "unavailable"

    @pytest.mark.parametrize("n, p, threshold", [
        pytest.param("10", "1.5", "5", id="p_above_1"),
        pytest.param("5", "2.0", "0", id="L0_p_above_1"),
    ])
    def test_domain_error_exit_one(self, capsys, n, p, threshold):
        code, _, err = run(
            capsys, "ntcp", "--n", n, "--p", p, "--L", threshold, "--method", "exact"
        )
        assert code == 1
        assert "error" in err

    def test_bad_flag_exit_two(self, capsys):
        code, _, _ = run(capsys, "ntcp", "--n", "10", "--p", "0.5", "--L", "5",
                         "--method", "bogus")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "ntcp", "--n", "10", "--p", "0.5", "--L", "5",
            "--method", "exact", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "key,value"
        assert "exact_value,0.623046875" in lines

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "ntcp", "--n", "10", "--p", "0.5", "--L", "5",
            "--method", "exact", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["exact_value"] == pytest.approx(0.623046875)


class TestThresholdCommand:
    def test_median_threshold(self, capsys):
        code, out, _ = run(capsys, "threshold", "--n", "100", "--p", "0.5",
                           "--gamma", "0.5")
        assert code == 0
        pairs = parse_pairs(out)
        assert float(pairs["x_gamma"]) == pytest.approx(50.0, abs=1e-9)
        assert pairs["L_gamma"] == "50"
        assert float(pairs["c"]) == pytest.approx(0.0, abs=1e-12)

    def test_kappa_inversion_included(self, capsys):
        code, out, _ = run(capsys, "threshold", "--n", "100", "--p", "0.5",
                           "--gamma", "0.9", "--kappa", "0.5")
        assert code == 0
        pairs = parse_pairs(out)
        assert float(pairs["p_bar"]) < 0.5
        assert float(pairs["kappa_star"]) > 1.0


class TestDoseCommand:
    def test_single_hit_half(self, capsys):
        code, out, _ = run(
            capsys, "dose", "--model", "single_hit", "--alpha", "1.0",
            "--n0", "1", "--target-p", "0.5",
        )
        assert code == 0
        assert float(parse_pairs(out)["dose"]) == pytest.approx(0.6931472, abs=1e-6)

    def test_missing_variant_parameter(self, capsys):
        code, _, err = run(
            capsys, "dose", "--model", "lq", "--alpha", "1.0", "--target-p", "0.5"
        )
        assert code == 1
        assert "beta" in err

    def test_kappa_route_requires_n_and_gamma(self, capsys):
        code, _, _ = run(
            capsys, "dose", "--model", "single_hit", "--alpha", "1.0",
            "--kappa", "0.5",
        )
        assert code == 1


class TestSimulateEstimate:
    def test_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "sample.dat")
        code, out, _ = run(
            capsys, "simulate", "--field", "window_threshold", "--theta", "0.5",
            "--k-min", "2", "--d", "1", "--n", "50", "--seed", "7", "--out", path,
        )
        assert code == 0
        total = float(parse_pairs(out)["sum"])

        code, out, _ = run(
            capsys, "estimate", "--sample", path, "--level", "0.95",
            "--x", "50", "--mean", "0.5",
        )
        assert code == 0
        pairs = parse_pairs(out)
        assert float(pairs["sum"]) == total
        assert float(pairs["ci_0.95_lo"]) < float(pairs["mean"]) < float(pairs["ci_0.95_hi"])
        assert 0.0 <= float(pairs["ntcp_estimate"]) <= 1.0

    def test_estimate_idempotent(self, capsys, tmp_path):
        path = str(tmp_path / "sample.dat")
        run(capsys, "simulate", "--field", "iid", "--p", "0.3",
            "--d", "2", "--n", "10", "--seed", "3", "--out", path)
        _, first, _ = run(capsys, "estimate", "--sample", path)
        _, second, _ = run(capsys, "estimate", "--sample", path)
        assert first == second

    def test_capacity_error_exit_one(self, capsys, tmp_path):
        out_path = tmp_path / "x"
        code, _, err = run(capsys, "simulate", "--field", "iid", "--p", "0.5",
                           "--d", "3", "--n", "300", "--seed", "1",
                           "--out", str(out_path))
        assert code == 1
        assert err.startswith("error") and "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("key,value", [("d", "2"), ("theta", "0.5")])
    def test_wrongly_typed_header_exit_two(self, capsys, tmp_path, key, value):
        path = tmp_path / "s.dat"
        code, _, _ = run(capsys, "simulate", "--field", "window_threshold", "--theta", "0.5",
                         "--k-min", "2", "--d", "2", "--n", "2", "--seed", "1",
                         "--out", str(path))
        assert code == 0
        header, body = path.read_text().split("\n", 1)
        header = json.loads(header)
        target = header["model"] if key == "theta" else header
        target[key] = value
        path.write_text(json.dumps(header) + "\n" + body)
        code, _, err = run(capsys, "estimate", "--sample", str(path))
        assert code == 2
        assert "error" in err and "Traceback" not in err

    def test_missing_sample_exit_two(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.dat")
        code, _, err = run(capsys, "estimate", "--sample", missing)
        assert code == 2
        assert "nope.dat" in err

    @pytest.mark.parametrize("flags,code,message", [
        ((), 0, None),
        (("--level", "0.95"), 1, "degenerate interval"),
        (("--x", "3", "--mean", "1"), 1, "degenerate"),
        (("--level", "1.0"), 1, "level"),
        (("--x", "3"), 1, "--mean"),
    ], ids=["plain", "interval", "ntcp", "level_1", "x_without_mean"])
    def test_constant_sample_exit_codes(self, capsys, tmp_path, flags, code, message):
        path = str(tmp_path / "ones.dat")
        run(capsys, "simulate", "--field", "iid", "--p", "1.0",
            "--d", "2", "--n", "3", "--seed", "1", "--out", path)
        got, out, err = run(capsys, "estimate", "--sample", path, *flags)
        assert got == code
        assert "Traceback" not in err
        if message is None:
            assert parse_pairs(out)["chat"] == "0" and err == ""
        else:
            assert out == "" and err.startswith("error") and message in err

    def test_estimate_computes_chat_once(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "sample.dat")
        run(capsys, "simulate", "--field", "window_threshold", "--theta", "0.5",
            "--k-min", "5", "--d", "2", "--n", "6", "--seed", "5", "--out", path)
        calls = []
        original = dependent_clt.variance_estimator

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dependent_clt, "variance_estimator", counting)
        code, out, _ = run(capsys, "estimate", "--sample", path, "--level", "0.5",
                           "--level", "0.95", "--x", "80", "--mean", "0.5")
        assert code == 0
        assert len(calls) == 1
        pairs = parse_pairs(out)
        assert {"ci_0.5_lo", "ci_0.95_hi", "ntcp_estimate"} <= set(pairs)


def experiment_config(**fields):
    config = {
        "model": {"type": "moving_window_threshold",
                  "window_radius": 1, "theta": 0.5, "k_min": 2},
        "d": 1,
        "n_schedule": [10, 20],
        "replicates": 50,
        "master_seed": 6,
    }
    config.update(fields)
    return config


class TestExperimentCommand:
    def test_runs_config_file(self, capsys, tmp_path):
        config = {
            "model": {"type": "moving_window_threshold",
                      "window_radius": 1, "theta": 0.5, "k_min": 2},
            "d": 1,
            "n_schedule": [10, 20],
            "replicates": 50,
            "master_seed": 6,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_path = str(tmp_path / "report.csv")
        code, out, _ = run(capsys, "experiment", "--config", str(config_path),
                           "--out", out_path)
        assert code == 0
        pairs = parse_pairs(out)
        assert pairs["report"] == out_path
        header = open(out_path).readline().strip()
        assert header.startswith("n,cube_size,mode,ks")

    def test_missing_config_exit_two(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.json")
        code, _, err = run(capsys, "experiment", "--config", missing,
                           "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "absent.json" in err

    def test_malformed_config_exit_two(self, capsys, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text("{not json")
        code, _, _ = run(capsys, "experiment", "--config", str(config_path),
                         "--out", str(tmp_path / "r.csv"))
        assert code == 2

    @pytest.mark.parametrize(
        "fields,code",
        [
            # wrongly typed fields are config errors: exit 2
            ({"n_schedule": 10}, 2),
            ({"d": "three"}, 2),
            ({"d": 1.5}, 2),
            ({"replicates": "50"}, 2),
            ({"master_seed": None}, 2),
            ({"levels": "0.95"}, 2),
            ({"levels": [True]}, 2),
            ({"bandwidth": 3}, 2),
            ({"bandwidth": {"b": "2"}}, 2),
            ({"mean_source": {"hypothesized": "half"}}, 2),
            ({"model": "majority"}, 2),
            ({"model": {"type": "moving_window_threshold",
                        "window_radius": 1, "theta": "0.5", "k_min": 2}}, 2),
            # well-typed values outside their domain: exit 1
            ({"d": 4}, 1),
            ({"n_schedule": [0, 10]}, 1),
        ],
        ids=lambda case: (
            "-".join(f"{k}={v!r}" for k, v in case.items())
            if isinstance(case, dict) else f"exit{case}"
        ),
    )
    def test_config_error_exit_code(self, capsys, tmp_path, fields, code):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(experiment_config(**fields)))
        out_path = tmp_path / "r.csv"
        got, _, err = run(capsys, "experiment", "--config", str(config_path),
                          "--out", str(out_path))
        assert got == code
        assert "error" in err and "Traceback" not in err
        assert not out_path.exists()


def test_no_subcommand_exit_two(capsys):
    assert main([]) == 2
