"""CLI tests: commands, exit codes, deterministic serialization."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freeclt import (cli, clt_density_flow, convergence_report, errors,
                     functionals, lp_distance, make_measure, report_row)
from freeclt.cli import _jsonable, main

from conftest import ASYM_SPEC, BERNOULLI_SPEC, FOUR_GAP_SPEC, SEMICIRCLE_SPEC
from conftest import ARCSINE_SPEC, MIXTURE_SPEC
from conftest import _constant_table_spec, three_atom_spec
from conftest import kesten_density


INLINE_BERN = json.dumps(BERNOULLI_SPEC)


class TestDensityCommand:
    def test_csv_contents_match_oracle(self, tmp_path):
        out = tmp_path / "density.csv"
        code = main(["density", "--measure", INLINE_BERN, "--n", "6",
                     "--grid=-2.2:2.2:441", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 442
        data = np.loadtxt(lines[1:], delimiter=",")
        assert np.max(np.abs(data[:, 1]
                             - kesten_density(data[:, 0], 6))) < 1e-8

    def test_csv_bit_stable(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["density", "--measure", INLINE_BERN, "--n", "4",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_reports_atoms(self, tmp_path, capsys):
        out = tmp_path / "asym2.csv"
        assert main(["density", "--measure", json.dumps(ASYM_SPEC),
                     "--n", "2", "--out", str(out)]) == 0
        noted = capsys.readouterr().out
        assert "atom" in noted
        assert "x=1" in noted.replace(" ", "")

    def test_subordination_method(self, tmp_path):
        flow_out = tmp_path / "f.csv"
        sub_out = tmp_path / "s.csv"
        assert main(["density", "--measure", INLINE_BERN, "--n", "4",
                     "--method", "flow", "--out", str(flow_out)]) == 0
        assert main(["density", "--measure", INLINE_BERN, "--n", "4",
                     "--method", "subordination", "--out",
                     str(sub_out)]) == 0
        a = np.loadtxt(flow_out.read_text().splitlines()[1:], delimiter=",")
        b = np.loadtxt(sub_out.read_text().splitlines()[1:], delimiter=",")
        assert np.max(np.abs(a[:, 1] - b[:, 1])) < 5e-4


class TestFunctionalsCommand:
    def test_divergent_row_serializes_as_inf_string(self, tmp_path):
        out = tmp_path / "fun.json"
        code = main(["functionals", "--measure", INLINE_BERN,
                     "--n", "2,4", "--p", "1,2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        rows = payload["rows"]
        assert rows[0]["n"] == 2
        assert rows[0]["phi"] == "inf"
        assert rows[0]["lp"]["2.0"] == "inf"
        assert isinstance(rows[0]["lp"]["1.0"], float)
        assert "lp_divergent" in rows[0]["flags"]
        assert rows[1]["phi"] == pytest.approx(1.125, abs=1e-8)

    def test_require_finite_exits_3(self, tmp_path):
        out = tmp_path / "fun.json"
        code = main(["functionals", "--measure", INLINE_BERN,
                     "--n", "2,4", "--require-finite", "--out", str(out)])
        assert code == 3

    def test_atom_row_fails_require_finite(self, tmp_path, capsys):
        # the asymmetric coin keeps an atom at n = 2 only
        out = tmp_path / "fun.json"
        spec = json.dumps(ASYM_SPEC)
        assert main(["functionals", "--measure", spec, "--n", "2,4",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert (rows[0]["chi"], rows[0]["phi"]) == ("-inf", "inf")
        assert math.isfinite(rows[1]["chi"])
        capsys.readouterr()
        assert main(["functionals", "--measure", spec, "--n", "2,4",
                     "--require-finite", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "the power keeps an atom at n=2" in err
        assert "Fisher information" not in err
        assert main(["functionals", "--measure", spec, "--n", "4,16",
                     "--require-finite", "--out", str(out)]) == 0

    def test_surviving_inner_atom_exits_2(self, tmp_path, capsys):
        # the power at n = 2 keeps an atom inside its ac interval; the flow
        # route's tables miss the density next to it, and its mass gate
        # turns that into a solver error instead of a report row
        spec = json.dumps(_constant_table_spec([(0.0, 0.6)], 0.2))
        out = tmp_path / "fun.json"
        assert main(["functionals", "--measure", spec, "--n", "2",
                     "--out", str(out)]) == 2
        assert "has mass 0.9949" in capsys.readouterr().err
        assert not out.exists()

    def test_atomless_divergent_row_names_fisher_information(
            self, tmp_path, capsys):
        # the fair coin at n = 2 is the arcsine law: no atom, but its
        # inverse-square-root edges make the Fisher information diverge
        out = tmp_path / "fun.json"
        assert main(["functionals", "--measure", INLINE_BERN, "--n", "2",
                     "--require-finite", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Fisher information diverges at n=2" in err
        assert "atom" not in err

    def test_finite_rows_pass_require_finite(self, tmp_path):
        out = tmp_path / "fun.json"
        code = main(["functionals", "--measure", INLINE_BERN,
                     "--n", "4,8", "--p", "1", "--require-finite",
                     "--out", str(out)])
        assert code == 0


class TestSweepCommand:
    def test_writes_report_and_per_power_csv(self, tmp_path):
        out = tmp_path / "report.json"
        prefix = tmp_path / "dens"
        code = main(["sweep", "--measure", INLINE_BERN, "--n", "4,8",
                     "--p", "1", "--out", str(out),
                     "--csv-prefix", str(prefix)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert [r["n"] for r in payload["rows"]] == [4, 8]
        for n in (4, 8):
            csv_path = tmp_path / f"dens_n{n}.csv"
            assert csv_path.exists()
            assert csv_path.read_text().splitlines()[0] == "x,density"
        sup = [r["sup_dist"] for r in payload["rows"]]
        assert sup[0] > sup[1]


class TestReportRows:
    """`sweep` and `convergence_report` share one row builder."""

    def test_chi_not_monotone_flagged_against_running_maximum(
            self, tmp_path, monkeypatch):
        chis = {2: 1.0, 4: 0.5, 8: 0.7, 16: 1.1}

        def fake_row(mu, n, p_list, dens=None):
            return {"n": n, "chi": chis[n], "flags": []}

        monkeypatch.setattr(functionals, "_report_row", fake_row)
        expected = [[], ["chi_not_monotone"], ["chi_not_monotone"], []]
        rep = convergence_report(make_measure(BERNOULLI_SPEC), list(chis))
        assert [r["flags"] for r in rep.to_dict()["rows"]] == expected
        out = tmp_path / "report.json"
        assert main(["sweep", "--measure", INLINE_BERN, "--n", "2,4,8,16",
                     "--grid=-2:2:5", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["flags"] for r in rows] == expected

    def test_sweep_rows_equal_convergence_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["sweep", "--measure", json.dumps(ASYM_SPEC),
                     "--n", "16,2,4", "--grid=-2:2:5", "--out",
                     str(out)]) == 0
        report = convergence_report(make_measure(ASYM_SPEC), (2, 4, 16))
        assert json.loads(out.read_text())["rows"] == \
            _jsonable(report.to_dict())["rows"]

    @pytest.mark.parametrize(
        "spec", [BERNOULLI_SPEC, ASYM_SPEC, MIXTURE_SPEC]
        + [three_atom_spec(s) for s in range(1, 8)],
        ids=["coin", "asym", "mixture"] + [f"three{s}" for s in range(1, 8)])
    def test_lp_equal_in_every_place(self, tmp_path, spec):
        # a report takes the L^p distances of all its rows and exponents in
        # one call; each value is bit for bit that of its own call
        ns, ps = [2, 3, 4, 16, 64], [0.6, 1.0, 1.1, 2.0]
        mu = make_measure(spec)
        out = tmp_path / "report.json"
        assert main(["sweep", "--measure", json.dumps(spec),
                     "--n", "2,3,4,16,64", "--p", "0.6,1,1.1,2",
                     "--grid=-2:2:5", "--out", str(out)]) == 0
        swept = json.loads(out.read_text())["rows"]
        report = convergence_report(mu, ns, ps).to_dict()["rows"]
        for n, from_sweep, from_report in zip(ns, swept, report):
            dens = clt_density_flow(mu, n)
            want = {str(p): lp_distance(dens, p) for p in ps}
            assert report_row(mu, n, ps, dens=dens)["lp"] == want
            assert from_report["lp"] == want
            assert from_sweep["lp"] == _jsonable(want)

    def test_divergent_and_finite_exponents_in_one_call(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["sweep", "--measure", json.dumps(ARCSINE_SPEC),
                     "--n", "1,4,16", "--p", "0.6,2", "--grid=-2:2:5",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows[0]["lp"]["2.0"] == "inf"
        assert "lp_divergent" in rows[0]["flags"]
        mu = make_measure(ARCSINE_SPEC)
        for row in rows:
            dens = clt_density_flow(mu, row["n"])
            for p in (0.6, 2.0):
                if (row["n"], p) != (1, 2.0):
                    assert row["lp"][str(p)] == lp_distance(dens, p)

    def test_power_one_allowed_in_sweep_only(self, tmp_path):
        spec = json.dumps(SEMICIRCLE_SPEC)
        assert main(["sweep", "--measure", spec, "--n", "1,4", "--p", "1",
                     "--grid=-2:2:5", "--out",
                     str(tmp_path / "sweep.json")]) == 0
        assert main(["functionals", "--measure", spec, "--n", "1,4",
                     "--out", str(tmp_path / "fun.json")]) == 1

    def test_infinite_lp_exponent_exits_1(self, tmp_path, capsys):
        # L^inf is the sup distance; no value is written for it
        out = tmp_path / "fun.json"
        assert main(["functionals", "--measure", INLINE_BERN, "--n", "4",
                     "--p", "inf,600", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_small_lp_exponent_fails_before_any_csv(self, tmp_path):
        code = main(["sweep", "--measure", INLINE_BERN, "--n", "4,8",
                     "--p", "0.4", "--out", str(tmp_path / "report.json")])
        assert code == 1
        assert list(tmp_path.iterdir()) == []


class TestCompareCommand:
    def test_reports_route_gap(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = main(["compare", "--measure", INLINE_BERN, "--n", "4",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "n=4" in printed
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["sup_diff"] < 5e-4

    def test_four_atom_seed_at_power_three(self, capsys):
        # three intervals, with table nodes 1.4e-7 inside the edges of the
        # middle one
        code = main(["compare", "--measure", json.dumps(FOUR_GAP_SPEC),
                     "--n", "3"])
        assert code == 0, capsys.readouterr().out


class TestVerifyCommand:
    def test_all_properties_pass(self, capsys):
        code = main(["verify", "--measure", INLINE_BERN, "--n", "4,8"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "[FAIL]" not in printed
        assert "[PASS]" in printed
        assert "all properties passed" in printed

    def test_support_of_three_intervals_passes(self, capsys):
        code = main(["verify", "--measure", json.dumps(FOUR_GAP_SPEC),
                     "--n", "2,4"])
        assert code == 0, capsys.readouterr().out


class TestExitCodes:
    def test_missing_file_is_invalid_config(self, tmp_path):
        assert main(["density", "--measure", str(tmp_path / "no.json"),
                     "--n", "4", "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_inline_json_is_invalid_config(self, tmp_path):
        assert main(["density", "--measure", "{broken",
                     "--n", "4", "--out", str(tmp_path / "x.csv")]) == 1

    def test_degenerate_measure_is_invalid_config(self, tmp_path):
        spec = json.dumps({"atoms": [{"x": 0.0, "w": 1.0}]})
        assert main(["density", "--measure", spec, "--n", "4",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_malformed_spec_is_invalid_config(self):
        # a family param that is not a number: a typed error, no traceback
        spec = json.dumps({"density": {"family": "uniform",
                                       "params": {"a": "x", "b": 1}}})
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from freeclt.cli import main; sys.exit(main())",
             "compare", "--measure", spec, "--n", "4"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr

    def test_bad_power_is_invalid_config(self, tmp_path):
        assert main(["functionals", "--measure", INLINE_BERN, "--n", "0,4",
                     "--out", str(tmp_path / "x.json")]) == 1

    def test_bad_usage_is_invalid_config(self, capsys):
        assert main(["density", "--measure", INLINE_BERN]) == 1
        assert main(["unknown-command"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("cls", [
        c for _, c in inspect.getmembers(errors, inspect.isclass)
        if issubclass(c, errors.FreecltError)],
        ids=lambda c: c.__name__)
    def test_every_library_error_maps_to_its_exit_code(self, cls, capsys,
                                                       monkeypatch):
        def failing(mu, n):
            raise cls(f"{cls.__name__} at n={n}")

        monkeypatch.setattr(cli, "cross_check", failing)
        code = main(["compare", "--measure", INLINE_BERN, "--n", "4"])
        expected = {errors.InvalidSpecError: 1,
                    errors.InvalidArgumentError: 1,
                    errors.DegenerateMeasureError: 1,
                    errors.DivergenceError: 3}.get(cls, 2)
        assert code == expected
        assert capsys.readouterr().err == f"error: {cls.__name__} at n=4\n"

    @pytest.mark.parametrize("argv,message", [
        (["--n", "4,x"], "--n must be a comma-separated integer list, "
                         "got '4,x'"),
        (["--n", ",", "--p", "1"], "--n must not be empty"),
        (["--n", "4", "--p", "1,y"], "--p must be a comma-separated number "
                                     "list, got '1,y'"),
        (["--n", "4", "--p", " "], "--p must not be empty")],
        ids=["int", "empty-int", "number", "empty-number"])
    def test_list_parse_errors(self, tmp_path, capsys, argv, message):
        code = main(["functionals", "--measure", INLINE_BERN, *argv,
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
