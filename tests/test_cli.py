import json
import os
import pathlib
import subprocess
import sys

import pytest

import ntcpfields
from ntcpfields import cv_ntcp, dependent_clt, lattice_fields
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

    @pytest.mark.parametrize("argv", [
        pytest.param(("ntcp", "--n", "0", "--p", "0.5", "--L", "3", "--method", "normal"),
                     id="normal_n_0"),
        pytest.param(("threshold", "--n", "0", "--p", "0.5", "--gamma", "0.9"),
                     id="threshold_n_0"),
        pytest.param(("ntcp", "--n", "-4", "--p", "0.5", "--L", "3"), id="all_n_negative"),
        pytest.param(("ntcp", "--n", "-4", "--p", "0.5", "--L", "3", "--method", "normal"),
                     id="normal_n_negative"),
        pytest.param(("threshold", "--n", "-4", "--p", "0.5", "--gamma", "0.9"),
                     id="threshold_n_negative"),
        pytest.param(("ntcp", "--n", "5", "--p", "2.0", "--L", "0", "--method", "weiss"),
                     id="weiss_L0_p_above_1"),
        pytest.param(("ntcp", "--n", "5", "--p", "2.0", "--L", "0", "--method", "normal"),
                     id="normal_p_above_1"),
        # 2^40 FSUs: the cap refuses the exact tail before it allocates
        pytest.param(("ntcp", "--n", str(2**40), "--p", "0.5", "--L", "3", "--method", "exact"),
                     id="exact_n_above_cap"),
    ])
    def test_fsu_domain_and_capacity_exit_one(self, capsys, monkeypatch, argv):
        def no_pmf(n, p):
            raise AssertionError("a pmf was built for rejected input")

        monkeypatch.setattr(cv_ntcp, "_pmf_window", no_pmf)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and err.startswith("error") and "Traceback" not in err

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

    def test_unattainable_tolerance_exits_1(self, capsys):
        code, out, err = run(
            capsys, "dose", "--model", "lq", "--alpha", "0.3", "--beta", "0.05",
            "--n0", "3", "--target-p", "0.2", "--tolerance", "1e-300",
        )
        assert (code, out) == (1, "")
        assert "tolerance 1e-300" in err

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

    def test_levels_field_round_trip(self, capsys, tmp_path):
        # a levels field, the one non-binary sample the CLI writes: the file
        # holds save_sample's bytes, and estimate prints the in-process values
        model = lattice_fields.MovingWindowLevels(window_radius=1, theta=0.4, levels=4)
        sample = lattice_fields.sample_field(model, lattice_fields.LatticeCube(d=2, n=6), 11)
        path, expected = tmp_path / "sample.dat", tmp_path / "expected.dat"
        lattice_fields.save_sample(sample, expected)
        code, _, _ = run(capsys, "simulate", "--field", "window_levels", "--theta", "0.4",
                         "--levels", "4", "--d", "2", "--n", "6", "--seed", "11",
                         "--out", str(path))
        assert code == 0
        assert path.read_bytes() == expected.read_bytes()
        mean = lattice_fields.model_mean(model, 2)
        code, out, _ = run(capsys, "estimate", "--sample", str(path), "--level", "0.9",
                           "--x", "60", "--mean", repr(mean))
        assert code == 0
        pairs, config = parse_pairs(out), dependent_clt.EstimatorConfig()
        assert pairs["sum"] == "%.9g" % dependent_clt.partial_sum(sample)
        assert pairs["chat"] == "%.9g" % dependent_clt.variance_estimator(sample, config)
        lo, hi = dependent_clt.confidence_interval(sample, 0.9, config)
        assert (pairs["ci_0.9_lo"], pairs["ci_0.9_hi"]) == ("%.9g" % lo, "%.9g" % hi)
        assert pairs["ntcp_estimate"] == "%.9g" % dependent_clt.ntcp_estimate(
            sample, 60, mean, config)

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

    @pytest.mark.parametrize("line", ["1 0", "one"], ids=["two_values", "non_numeric"])
    def test_malformed_value_line_exit_two(self, capsys, tmp_path, line):
        path = tmp_path / "s.dat"
        run(capsys, "simulate", "--field", "iid", "--p", "0.5",
            "--d", "1", "--n", "2", "--seed", "1", "--out", str(path))
        header, _, body = path.read_text().partition("\n")
        lines = body.splitlines()
        lines[2] = line
        path.write_text(header + "\n" + "\n".join(lines) + "\n")
        code, out, err = run(capsys, "estimate", "--sample", str(path))
        assert code == 2
        assert out == "" and err.startswith("error") and "Traceback" not in err
        assert "malformed sample file" in err and line in err

    @pytest.mark.parametrize("keep", [3, 7], ids=["too_few", "too_many"])
    def test_wrong_value_count_exit_two(self, capsys, tmp_path, keep):
        path = tmp_path / "s.dat"
        run(capsys, "simulate", "--field", "iid", "--p", "0.5",
            "--d", "1", "--n", "2", "--seed", "1", "--out", str(path))
        header, _, body = path.read_text().partition("\n")
        lines = (body.splitlines() * 2)[:keep]
        path.write_text(header + "\n" + "\n".join(lines) + "\n")
        code, out, err = run(capsys, "estimate", "--sample", str(path))
        assert code == 2
        assert out == "" and err.startswith("error") and "Traceback" not in err
        assert f"holds {keep} values, cube needs 5" in err

    @pytest.mark.parametrize("header", [
        "[1, 2]",
        '{"d": 1, "n": 2, "seed": "abc", "model": {"type": "iid_bernoulli", "p": 0.5}}',
        '{"d": 1, "n": 2, "seed": 1.5, "model": {"type": "iid_bernoulli", "p": 0.5}}',
    ], ids=["not_object", "seed_string", "seed_float"])
    def test_malformed_header_exit_two(self, capsys, tmp_path, header):
        path = tmp_path / "s.dat"
        path.write_text(header + "\n" + "1\n" * 5)
        code, out, err = run(capsys, "estimate", "--sample", str(path))
        assert code == 2
        assert out == "" and err.startswith("error") and "Traceback" not in err

    @pytest.mark.parametrize("where", ["header", "line_2", "past_64k"])
    def test_undecodable_byte_exit_two(self, capsys, tmp_path, where):
        header = b'{"d": 1, "n": 2, "seed": 1, "model": {"type": "iid_bernoulli", "p": 0.5}}'
        lines = [header, b"1", b"0", b"1", b"0", b"1"]
        if where == "header":
            lines[0] = header[:-1] + b', "x": "\xff"}'
        elif where == "line_2":
            lines[2] = b"\xff"
        else:
            lines += [b"1"] * 40_000 + [b"\xff"]
        path = tmp_path / "s.dat"
        path.write_bytes(b"\n".join(lines) + b"\n")
        code, out, err = run(capsys, "estimate", "--sample", str(path))
        assert code == 2
        assert out == "" and err.startswith("error") and "Traceback" not in err
        assert "malformed sample file" in err and "decode" in err

    @pytest.mark.parametrize("body", ["nan", "inf", "-inf\ninf"], ids=["nan", "inf", "both_infs"])
    def test_non_finite_sample_exit_one(self, capsys, tmp_path, body):
        # the loader keeps nan and inf, so they round trip; C_hat rejects them
        path = tmp_path / "s.dat"
        header = '{"d": 1, "n": 2, "seed": 1, "model": {"type": "iid_bernoulli", "p": 0.5}}'
        values = (body.split("\n") + ["1", "0", "1", "0", "1"])[:5]
        path.write_text(header + "\n" + "\n".join(values) + "\n")
        code, out, err = run(capsys, "estimate", "--sample", str(path), "--level", "0.95",
                             "--x", "2", "--mean", "0.5")
        assert code == 1
        assert out == "" and err.startswith("error") and "Traceback" not in err
        assert "sample holds non-finite values" in err and "Warning" not in err

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


class TestFreshProcess:
    """The CLI as users run it: ``python -m ntcpfields.cli`` in a new process."""

    @staticmethod
    def python(*args):
        source = os.path.dirname(os.path.dirname(ntcpfields.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, env=env, timeout=120)

    @classmethod
    def cli(cls, *argv):
        return cls.python("-m", "ntcpfields.cli", *argv)

    def test_simulate_then_estimate(self, capsys, tmp_path):
        path = str(tmp_path / "sample.dat")
        simulate = ("simulate", "--field", "window_threshold", "--theta", "0.5",
                    "--k-min", "14", "--d", "3", "--n", "5", "--seed", "201", "--out", path)
        estimate = ("estimate", "--sample", path, "--level", "0.95",
                    "--x", "650", "--mean", "0.5")
        fresh = [self.cli(*simulate)]
        saved = pathlib.Path(path).read_bytes()
        fresh.append(self.cli(*estimate))
        assert [(p.returncode, p.stderr) for p in fresh] == [(0, "")] * 2
        in_process = [run(capsys, *simulate), run(capsys, *estimate)]
        assert [p.stdout for p in fresh] == [out for _, out, _ in in_process]
        assert pathlib.Path(path).read_bytes() == saved

    def test_simulate_then_estimate_leave_numpy_ma_unimported(self, tmp_path):
        # np.unique(keys) with no second output imports numpy.ma (numpy 2.4),
        # about 10 ms and 1 MB that sample I/O and C_hat never use
        path = str(tmp_path / "sample.dat")
        simulate = ["simulate", "--field", "window_threshold", "--theta", "0.5",
                    "--k-min", "14", "--d", "3", "--n", "5", "--seed", "201", "--out", path]
        estimate = ["estimate", "--sample", path, "--level", "0.95"]
        done = self.python("-c", "import sys; from ntcpfields.cli import main; "
                           f"codes = [main({simulate!r}), main({estimate!r})]; "
                           "print(codes, 'numpy.ma' in sys.modules)")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == "[0, 0] False"

    def test_bad_flag_then_good_call_in_one_process(self, capsys, tmp_path):
        # one parser serves every call of a process: a parse that fails, and
        # one that appends --level values, leave nothing to the next call
        path = str(tmp_path / "sample.dat")
        simulate = ("simulate", "--field", "iid", "--p", "0.3", "--d", "2", "--n", "4",
                    "--seed", "3", "--out", path)
        ntcp = ("ntcp", "--n", "100", "--p", "0.3", "--L", "40")
        assert run(capsys, *simulate)[0] == 0
        assert run(capsys, "ntcp", "--n", "100", "--bogus")[0] == 2
        assert run(capsys, "estimate", "--sample", path, "--level", "0.9")[0] == 0
        in_process = [run(capsys, *ntcp), run(capsys, "estimate", "--sample", path)]
        fresh = [self.cli(*ntcp), self.cli("estimate", "--sample", path)]
        assert [(p.returncode, p.stdout, p.stderr) for p in fresh] == in_process
        assert "ci_" not in in_process[1][1]

    @pytest.mark.parametrize("command", [None, "ntcp", "threshold", "dose", "simulate",
                                         "estimate", "experiment"])
    def test_help_twice_in_one_process(self, capsys, command):
        argv = [command, "--help"] if command else ["--help"]
        helps = [run(capsys, *argv) for _ in range(2)]
        assert helps[0] == helps[1]
        assert helps[0][0] == 0 and helps[0][1].startswith("usage: ntcpfields")

    def test_missing_sample_exit_two(self, tmp_path):
        done = self.cli("estimate", "--sample", str(tmp_path / "nope.dat"))
        assert done.returncode == 2
        assert done.stdout == "" and "nope.dat" in done.stderr

    @pytest.mark.skipif(sys.platform != "linux", reason="reads children's minor faults on Linux")
    def test_campaign_blocks_fault_in_no_new_arrays(self, tmp_path):
        """Each extra sampler block of a campaign adds fewer minor page faults
        than half of one block-sized array: a block of _BLOCK_CELLS noise
        cells takes 8 bytes a cell for its uint64 hashes or float64 C_hat
        deviations, 128 pages of 4 KiB, so a stream that freed and faulted
        in even one such array per block would fail; buffers refilled in
        place fault only while the first block touches them."""
        import resource

        def faults(blocks):
            config = tmp_path / f"blocks{blocks}.json"
            # 40 replicates a block at n = 800: 2^16 // (1601 + 2) seeds
            config.write_text(json.dumps(experiment_config(n_schedule=[800],
                                                           replicates=40 * blocks)))
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            done = self.cli("experiment", "--config", str(config),
                            "--out", str(tmp_path / "report.csv"))
            assert (done.returncode, done.stderr) == (0, "")
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

        block_pages = 8 * lattice_fields._BLOCK_CELLS // resource.getpagesize()
        few, many = faults(5), faults(50)
        assert (many - few) / 45 < block_pages / 2

    @pytest.mark.skipif(sys.platform != "linux", reason="reads children's minor faults on Linux")
    def test_levels_campaign_blocks_fault_in_no_new_arrays(self, tmp_path):
        """As for the threshold field: a float block's carried cumsum, counts
        and weights are refilled in place, so an extra block of a levels
        campaign faults in less than half of a block-sized array."""
        import resource

        levels = {"type": "moving_window_levels", "window_radius": 1, "theta": 0.4, "levels": 4}

        def faults(blocks):
            config = tmp_path / f"blocks{blocks}.json"
            config.write_text(json.dumps(experiment_config(model=levels, n_schedule=[800],
                                                           replicates=40 * blocks)))
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            done = self.cli("experiment", "--config", str(config),
                            "--out", str(tmp_path / "report.csv"))
            assert (done.returncode, done.stderr) == (0, "")
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

        block_pages = 8 * lattice_fields._BLOCK_CELLS // resource.getpagesize()
        few, many = faults(5), faults(50)
        assert (many - few) / 45 < block_pages / 2


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
        with open(out_path) as fh:
            header = fh.readline().strip()
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
