import argparse
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from biasedcube import cli


SCHEMA_PATH = None


def load_schema():
    import importlib.resources as res
    with res.files("biasedcube").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_exit_zero_and_schema(self, capsys):
        code, out, _ = run(["verify"], capsys)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, load_schema())
        assert report["body"]["failed"] == []
        assert report["body"]["total"] >= 50

    def test_zero_tolerance_fails(self, capsys):
        code, out, _ = run(["verify", "--tol", "0"], capsys)
        assert code == 1
        assert json.loads(out)["body"]["failed"]

    def test_body_reproducible(self, capsys):
        _, out1, _ = run(["verify", "--seed", "5"], capsys)
        _, out2, _ = run(["verify", "--seed", "5"], capsys)
        assert json.loads(out1)["body"] == json.loads(out2)["body"]

    def test_csv_format(self, capsys):
        code, out, _ = run(["verify", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("name,passed,value")
        assert len(lines) > 50


class TestCurve:
    def test_dictator_curve(self, capsys):
        code, out, _ = run(["curve", "--function", "dictator", "--n", "5",
                            "--grid", "0.1:0.9:5"], capsys)
        assert code == 0
        body = json.loads(out)["body"]["curve"]
        assert abs(body["p_c"] - 0.5) < 1e-6
        assert abs(body["mu"][0] - 0.1) < 1e-12
        assert body["monotone"]

    def test_monotone_flag_above_n16(self, capsys):
        code, out, _ = run(["curve", "--function", "maj", "--n", "17",
                            "--grid", "0.4:0.6:3"], capsys)
        assert code == 0
        assert json.loads(out)["body"]["curve"]["monotone"] is True

    def test_grid_outside_unit_interval_exit_2(self, capsys):
        code, out, err = run(["curve", "--function", "maj", "--n", "5",
                              "--grid", "0.1:1.5:3"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "--grid" in err

    def test_grid_without_steps_exit_2(self, capsys):
        for grid in ("0.1:0.9:0", "0.1:0.9", "0.1:0.9:3:4", "a:0.9:3"):
            code, out, err = run(["curve", "--function", "maj", "--n", "5",
                                  "--grid", grid], capsys)
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1 and "--grid" in err

    def test_unknown_function_exit_2(self, capsys):
        code, _, err = run(["curve", "--function", "nope"], capsys)
        assert code == 2 and "unknown function" in err

    def test_max_n_guard(self, capsys):
        code, _, err = run(["curve", "--function", "maj", "--n", "9",
                            "--max-n", "5"], capsys)
        assert code == 2 and "exceeds" in err

    def test_max_n_checked_before_named_table(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._NAMED_FUNCTIONS, "maj",
                            lambda n: pytest.fail("maj table built before the --max-n check"))
        code, out, err = run(["curve", "--function", "maj", "--n", "24", "--max-n", "5"],
                             capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "exceeds --max-n" in err

    def test_truncated_binary_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "fn.bin"
        path.write_bytes(b"BQF1" + b"\x00" * 6)
        code, out, err = run(["curve", "--function", f"file:{path}"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: truncated") and err.count("\n") == 1

    def test_file_input(self, tmp_path, capsys):
        from biasedcube.cube import DenseFunction
        f = DenseFunction.from_predicate(4, lambda x: x != 0)
        path = tmp_path / "fn.bin"
        path.write_bytes(f.to_bytes())
        code, out, _ = run(["curve", "--function", f"file:{path}", "--grid",
                            "0.2:0.8:3"], capsys)
        assert code == 0
        mu = json.loads(out)["body"]["curve"]["mu"]
        assert abs(mu[0] - (1 - 0.8 ** 4)) < 1e-12

    def test_file_config_records_its_dimension(self, tmp_path, capsys):
        from biasedcube.cube import DenseFunction
        path = tmp_path / "f4.bin"
        path.write_bytes(DenseFunction.from_predicate(4, lambda x: x != 0).to_bytes())
        code, out, _ = run(["curve", "--function", f"file:{path}"], capsys)
        assert code == 0 and json.loads(out)["body"]["config"]["n"] == 4

    def test_flat_curve_p_c_null(self, tmp_path, capsys):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"n": 4, "values": [0.5] * 16}))
        code, out, _ = run(["curve", "--function", f"file:{path}"], capsys)
        assert code == 0
        assert json.loads(out)["body"]["curve"]["p_c"] is None

    def test_named_tables_match_predicates(self):
        from biasedcube.cube import DenseFunction
        preds = {"or": lambda n: lambda x: x != 0,
                 "and": lambda n: lambda x: x == (1 << n) - 1,
                 "maj": lambda n: lambda x: bin(x).count("1") > n // 2}
        for name, pred in preds.items():
            for n in range(1, 11):
                f = cli._NAMED_FUNCTIONS[name](n)
                g = DenseFunction.from_predicate(n, pred(n))
                assert f.boolean and f.values.dtype == g.values.dtype
                assert np.array_equal(f.values, g.values), (name, n)


class TestLambda:
    def test_grid_values(self, capsys):
        code, out, _ = run(["lambda", "--rho", "0,0.5", "--mu", "0.5",
                            "--nu", "0.5"], capsys)
        assert code == 0
        vals = {e["rho"]: e["value"] for e in json.loads(out)["body"]["lambda"]}
        assert abs(vals[0.0] - 0.25) < 1e-12
        import math
        assert abs(vals[0.5] - (0.25 + math.asin(0.5) / (2 * math.pi))) < 1e-9

    def test_csv(self, capsys):
        code, out, _ = run(["lambda", "--rho", "0.3", "--mu", "0.5",
                            "--nu", "0.5", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "rho,mu,nu,lambda"


class TestCount:
    def test_exact_rational_output(self, capsys):
        code, out, _ = run(["count", "--n", "4", "--sizes", "1,1",
                            "--families", "singleton:1,singleton:2",
                            "--samples", "2000"], capsys)
        assert code == 0
        body = json.loads(out)["body"]
        assert body["probability_exact"] == "1/12"
        assert abs(body["mc"]["probability"] - 1 / 12) < 5 * body["mc"]["stderr"] + 1e-3

    def test_star_count(self, capsys):
        code, out, _ = run(["count", "--n", "8", "--sizes", "2,2",
                            "--families", "star,full", "--samples", "1000"],
                           capsys)
        assert code == 0
        body = json.loads(out)["body"]
        num, den = body["probability_exact"].split("/")
        assert int(num) > 0 and int(den) > 0

    def test_max_n_guard(self, capsys):
        code, out, err = run(["count", "--n", "9", "--max-n", "5", "--sizes",
                              "1,1", "--families", "full,full"], capsys)
        assert code == 2 and out == "" and "exceeds --max-n" in err

    def test_csv_refused(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        code, out, err = run(["count", "--n", "4", "--sizes", "1,1",
                              "--families", "singleton:1,singleton:2",
                              "--samples", "100", "--format", "csv",
                              "--out", str(path)], capsys)
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_samples_exit_2(self, capsys):
        code, out, err = run(["count", "--n", "4", "--sizes", "1,1",
                              "--families", "full,full", "--samples", "0"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "--samples" in err

    def test_negative_samples_exit_2(self, capsys):
        code, out, err = run(["count", "--n", "4", "--sizes", "1,1",
                              "--families", "full,full", "--samples", "-5"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "--samples" in err

    def test_bad_family_exit_2(self, capsys):
        code, _, err = run(["count", "--n", "4", "--sizes", "1",
                            "--families", "bogus"], capsys)
        assert code == 2 and "unknown family" in err

    def test_family_count_must_match_parts_exit_2(self, capsys):
        for specs in ("star", "star,star,full"):
            code, out, err = run(["count", "--n", "9", "--sizes", "3,3",
                                  "--families", specs], capsys)
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    def test_parts_larger_than_ground_set_exit_2(self, capsys):
        code, out, err = run(["count", "--n", "4", "--sizes", "3,3",
                              "--families", "full,full"], capsys)
        assert code == 2 and out == "" and "not enough vertices" in err

    def test_family_file_on_other_ground_set_exit_2(self, tmp_path, capsys):
        from biasedcube.families import SetFamily
        path = tmp_path / "star8.txt"
        path.write_text(SetFamily.star(8, 3).to_text())
        code, out, err = run(["count", "--n", "9", "--sizes", "3,3", "--families",
                              f"file:{path},file:{path}"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestRemoval:
    def test_star_pipeline(self, capsys):
        code, out, _ = run(["removal", "--family", "star", "--hypergraph", "i21",
                            "--n", "9", "--k", "3", "--s", "1",
                            "--samples", "2000"], capsys)
        assert code == 0
        body = json.loads(out)["body"]["pipeline"]
        assert body["almost_free"]["exact"] == "1/9"
        assert body["junta"]["J"] == [1]

    def test_report_schema(self, capsys):
        _, out, _ = run(["removal", "--family", "star", "--hypergraph", "m2",
                         "--n", "9", "--k", "3", "--samples", "1000"], capsys)
        jsonschema.validate(json.loads(out), load_schema())

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run(["removal", "--family", "star", "--hypergraph", "m2",
                            "--n", "9", "--k", "3", "--samples", "1000",
                            "--out", str(path)], capsys)
        assert code == 0 and out == ""
        jsonschema.validate(json.loads(path.read_text()), load_schema())

    def test_negative_samples_exit_2(self, capsys):
        code, out, err = run(["removal", "--family", "star", "--hypergraph", "i21",
                              "--n", "7", "--k", "3", "--samples", "-3"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "--samples" in err

    def test_max_n_guard(self, capsys):
        code, out, err = run(["removal", "--family", "star", "--hypergraph",
                              "i21", "--n", "9", "--k", "3", "--max-n", "5"],
                             capsys)
        assert code == 2 and out == "" and "exceeds --max-n" in err

    def test_family_file_must_match_n_and_k(self, tmp_path, capsys):
        from biasedcube.families import SetFamily
        path = tmp_path / "f.txt"
        argv = ["removal", "--family", f"file:{path}", "--hypergraph", "i21",
                "--n", "10", "--k", "3", "--s", "1", "--samples", "1000"]
        for F, message in ((SetFamily.star(9, 3), "has n=9, expected 10"),
                           (SetFamily.star(10, 2), "has k=2, expected 3")):
            path.write_text(F.to_text())
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1 and message in err
        path.write_text(SetFamily.star(10, 3).to_text())
        code, out, _ = run(argv, capsys)
        _, named, _ = run([a if a != f"file:{path}" else "star" for a in argv], capsys)
        assert code == 0
        assert json.loads(out)["body"]["pipeline"] == json.loads(named)["body"]["pipeline"]

    def test_csv_refused(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        code, out, err = run(["removal", "--family", "star", "--hypergraph",
                              "m2", "--n", "9", "--k", "3", "--samples", "1000",
                              "--format", "csv", "--out", str(path)], capsys)
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith("error:") and err.count("\n") == 1


class TestMalformed:
    """Malformed input exits 2 with one error line and writes no report."""

    def assert_refused(self, argv, capsys, message):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and message in err

    def test_empty_hypergraph_file(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("\n")
        self.assert_refused(["removal", "--family", "star", "--hypergraph", f"file:{path}",
                             "--n", "6", "--k", "2"], capsys, "empty hypergraph")

    def test_empty_family_file(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text("")
        self.assert_refused(["count", "--n", "6", "--sizes", "2", "--families",
                             f"file:{path}"], capsys, "empty family")

    def test_function_json_without_values(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text('{"n": 3}')
        self.assert_refused(["curve", "--function", f"file:{path}"], capsys, "lacks values")

    def test_family_json_without_members(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"n": 6, "k": 2}')
        self.assert_refused(["count", "--n", "6", "--sizes", "2", "--families",
                             f"file:{path}"], capsys, "lacks members")

    def test_function_json_with_wrong_types(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        for fields, message in (('"n": "3"', "field n is not int"),
                                ('"n": 3, "flags": "1"', "field flags is not int")):
            path.write_text('{%s, "values": [0, 0, 0, 0, 0, 0, 0, 1]}' % fields)
            self.assert_refused(["curve", "--function", f"file:{path}"], capsys, message)

    def test_function_json_with_non_finite_values(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        for entry, message in (("NaN", "NaN or infinite"), ("Infinity", "NaN or infinite"),
                               ("-Infinity", "NaN or infinite"), ("1e400", "NaN or infinite"),
                               ("1" + "0" * 400, "past the float range")):
            path.write_text('{"n": 2, "values": [0, 0, 0, %s]}' % entry)
            self.assert_refused(["curve", "--function", f"file:{path}"], capsys, message)

    def test_function_blob_with_non_finite_values(self, tmp_path, capsys):
        from biasedcube.cube import DenseFunction
        path = tmp_path / "fn.bin"
        blob = DenseFunction(2, [0.0, 0.0, 0.0, 1.0]).to_bytes()
        for value in (float("nan"), float("inf"), float("-inf")):
            path.write_bytes(blob[:-8] + struct.pack("<d", value))
            self.assert_refused(["curve", "--function", f"file:{path}"], capsys,
                                "NaN or infinite")

    def test_family_json_with_string_members(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"n": 6, "k": 2, "members": [["a"]]}')
        self.assert_refused(["count", "--n", "6", "--sizes", "2,2", "--families",
                             f"file:{path},full"], capsys, "field members is not [[int]]")

    def test_singleton_spec_with_second_colon(self, capsys):
        self.assert_refused(["removal", "--family", "singleton:1,2:7", "--hypergraph", "m2",
                             "--n", "6", "--k", "2"], capsys, "unknown family spec")

    def test_negative_s(self, capsys):
        self.assert_refused(["removal", "--family", "star", "--hypergraph", "i21",
                             "--n", "9", "--k", "3", "--s", "-1"], capsys, "non-negative")

    def test_star_of_empty_sets(self, capsys):
        self.assert_refused(["removal", "--family", "star", "--hypergraph", "i21",
                             "--n", "9", "--k", "0"], capsys, "a star needs k >= 1")

    def test_tolerance_must_be_finite_and_non_negative(self, capsys):
        for tol in ("-1", "nan", "inf"):
            self.assert_refused(["verify", "--tol", tol], capsys,
                                f"--tol must be a finite number >= 0, got {float(tol)}")

    def test_empty_lambda_lists(self, capsys):
        for option in ("--rho", "--mu", "--nu"):
            argv = ["lambda", "--rho", "0.5", "--mu", "0.5", "--nu", "0.5"]
            argv[argv.index(option) + 1] = ","
            self.assert_refused(argv, capsys, f"{option} ','")


class TestParser:
    COMMON = {"--seed", "--tol", "--out", "--format", "--max-n", "--samples"}
    # command: (a valid argv, its option strings past -h, its report's config keys)
    SURFACE = {
        "verify": (["verify"], {"--seed", "--tol", "--out", "--format"}, {"seed", "tolerance"}),
        "curve": (["curve", "--function", "maj"],
                  {"--out", "--format", "--max-n", "--function", "--n", "--grid"},
                  {"max_n", "function", "n", "grid"}),
        "lambda": (["lambda", "--rho", "0.5", "--mu", "0.5", "--nu", "0.5"],
                   {"--tol", "--out", "--format", "--rho", "--mu", "--nu"},
                   {"tolerance", "rho", "mu", "nu"}),
        "count": (["count", "--n", "4", "--sizes", "1,1", "--families", "full,full",
                   "--samples", "100"],
                  {"--seed", "--out", "--max-n", "--samples", "--n", "--sizes", "--families"},
                  {"seed", "max_n", "samples", "n", "sizes", "families"}),
        "removal": (["removal", "--family", "star", "--hypergraph", "m2", "--n", "9",
                     "--k", "3", "--samples", "1000"],
                    {"--seed", "--out", "--max-n", "--samples", "--family", "--hypergraph",
                     "--n", "--k", "--s"},
                    {"seed", "max_n", "samples", "family", "hypergraph", "n", "k", "s"}),
    }

    def assert_usage_error(self, argv, capsys, message):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and message in err

    def test_missing_subcommand(self, capsys):
        self.assert_usage_error([], capsys, "required")

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_options_and_config_keys(self, command, capsys):
        argv, options, keys = self.SURFACE[command]
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert got - {"-h", "--help"} == options
        code, out, _ = run(argv, capsys)
        report = json.loads(out)
        assert code == 0 and set(report["body"]["config"]) == keys
        jsonschema.validate(report, load_schema())

    def test_usage_errors_take_one_line(self, capsys):
        self.assert_usage_error(["curve", "--function", "maj", "--bogus", "1"], capsys,
                                "unrecognized arguments: --bogus 1")
        self.assert_usage_error(["curve", "--n", "5"], capsys, "required: --function")
        self.assert_usage_error(["curve", "--function", "maj", "--n", "x"], capsys,
                                "invalid int value: 'x'")
        removed = [(argv, option) for argv, options, _ in self.SURFACE.values()
                   for option in sorted(self.COMMON - options)]
        assert len(removed) == 12
        for argv, option in removed:
            self.assert_usage_error(argv + [option, "1"], capsys,
                                    f"unrecognized arguments: {option} 1")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve", "--help"])
        assert exc.value.code == 0 and "--max-n" in capsys.readouterr().out

    def test_header_fields(self, capsys):
        _, out, _ = run(["lambda", "--rho", "0", "--mu", "0.5", "--nu", "0.5"],
                        capsys)
        header = json.loads(out)["header"]
        assert header["command"] == "lambda"
        assert header["version"]
        assert "T" in header["timestamp"]


class TestModuleEntryPoint:
    """`python -m biasedcube.cli` in a fresh process, as the console script
    and the batch benchmark run it, not cli.main in-process."""

    def run_module(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        return subprocess.run([sys.executable, "-m", "biasedcube.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_report_and_refusal(self):
        proc = self.run_module("lambda", "--rho", "0.5", "--mu", "0.5", "--nu", "0.5")
        assert proc.returncode == 0 and proc.stderr == ""
        jsonschema.validate(json.loads(proc.stdout), load_schema())
        proc = self.run_module("lambda", "--rho", ",", "--mu", "0.5", "--nu", "0.5")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: --rho") and proc.stderr.count("\n") == 1
