"""Command-line interface: artifacts, reproducibility, and error handling."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from datetime import date
from pathlib import Path

import pytest

from cblab import cli, fd, hedge, lattice, sensitivities, var
from cblab.cli import build_parser, main
from cblab.reports import Report, config_hash, write_rows
from cblab.termsheet import load_terms, reference_market, reference_terms_path


def run(args):
    return main([str(a) for a in args])


class TestPrice:
    def test_writes_csv_with_header_and_identity(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["price", "--spot", 100, "--date", "2004-01-02",
                    "--steps", 200, "--out", out]) == 0
        text = (out / "price.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# cblab ")
        assert lines[1].startswith("# config_hash ")
        assert lines[2].startswith("# config ")
        header = lines[3].split(",")
        row = lines[4].split(",")
        v = float(row[header.index("V_dirty")])
        e = float(row[header.index("E")])
        b = float(row[header.index("B")])
        # written with 10 significant digits
        assert v == pytest.approx(e + b, rel=1e-8)
        # dirty equals clean on a coupon date
        assert float(row[header.index("V_clean")]) == pytest.approx(v, rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["price", "--spot", 95.5, "--steps", 150, "--out", out]) == 0
        assert (a / "price.csv").read_bytes() == (b / "price.csv").read_bytes()

    def test_header_records_the_instrument_not_its_path(self, tmp_path):
        sheet = json.loads(reference_terms_path().read_text())
        repriced = dict(sheet, call=dict(sheet["call"], price=115.0))
        texts = {}
        for name, data in (("a", sheet), ("b", sheet), ("c", repriced)):
            path = tmp_path / name / "terms.json"
            path.parent.mkdir()
            path.write_text(json.dumps(data, indent=2) + "\n")
            assert run(["price", "--terms", path, "--steps", 50, "--out", tmp_path / name]) == 0
            texts[name] = (tmp_path / name / "price.csv").read_text()
        # the same sheet from two directories: identical files, no path recorded
        assert texts["a"] == texts["b"]
        assert str(tmp_path) not in texts["a"]
        # an edited sheet is a different configuration
        assert texts["a"].splitlines()[1] != texts["c"].splitlines()[1]

    def test_report_format(self, tmp_path):
        out = tmp_path / "o"
        assert run(["price", "--steps", 100, "--out", out, "--format", "report"]) == 0
        assert (out / "price.txt").exists()
        with pytest.raises(ValueError, match="unknown output format 'xml'"):
            write_rows(Report(config={}, columns=["S"], rows=[(1.0,)], summary=[]),
                       out / "price.xml", "xml")
        assert not (out / "price.xml").exists()

    def test_golden_reference_price(self, tmp_path):
        """Frozen values for the packaged instrument at the two-year mark."""
        out = tmp_path / "o"
        assert run(["price", "--spot", 100, "--date", "2004-01-02",
                    "--steps", 500, "--out", out]) == 0
        lines = (out / "price.csv").read_text().splitlines()
        header, row = lines[3].split(","), lines[4].split(",")
        got = {k: v for k, v in zip(header, row)}
        assert float(got["V_dirty"]) == pytest.approx(106.4046231891, rel=1e-9)
        assert float(got["E"]) == pytest.approx(11.8332633616, rel=1e-9)
        assert float(got["B"]) == pytest.approx(94.5713598275, rel=1e-9)
        binds = (got["conversion_binds"], got["call_binds"], got["put_binds"])
        assert binds == ("61754", "152", "0")

    def test_missing_terms_file_fails_cleanly(self, tmp_path, capsys):
        rc = run(["price", "--terms", tmp_path / "nope.json", "--out", tmp_path])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestGridValidation:
    @pytest.mark.parametrize("grid", [
        ["--s-step", 0],
        ["--s-step", -1],
        ["--s-min", 120, "--s-max", 100],
        ["--s-step", "nan"],
        ["--s-step", 1e-300],  # 1.5e+302 points
        ["--s-min", 0, "--s-max", 1e308, "--s-step", 1e-10],  # inf points
    ])
    def test_bad_spot_grid_exits_2(self, tmp_path, capsys, grid):
        rc = run(["greeks", "--date", "2004-01-02", "--steps", 20, "--out", tmp_path] + grid)
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "greeks.csv").exists()

    def test_oversized_spot_grid_names_step_and_count(self, tmp_path, capsys):
        rc = run(["greeks", "--date", "2004-01-02", "--s-step", 1e-300, "--out", tmp_path])
        assert rc == 2
        assert "--s-step 1e-300 gives 1.5e+302 spot points" in capsys.readouterr().err

    def test_spot_grid_stops_at_s_max(self, tmp_path):
        assert run(["greeks", "--date", "2004-01-02", "--s-min", 100, "--s-max", 100.8,
                    "--s-step", 0.5, "--steps", 20, "--out", tmp_path]) == 0
        lines = (tmp_path / "greeks.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in lines[4:]] == ["100", "100.5"]

    @pytest.mark.parametrize("command", [
        ["price"],
        ["compare", "--date", "2004-01-02", "--s-min", 100, "--s-max", 101, "--s-step", 1],
    ], ids=["price", "compare"])
    @pytest.mark.parametrize("vol", ["nan", "inf", "1e-300"])
    def test_bad_vol_exits_2(self, tmp_path, capsys, command, vol):
        rc = run(command + ["--vol", vol, "--steps", 20, "--out", tmp_path / "o"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("vol", ["1e-300", "1e-170", "1e200"])
    def test_no_fd_step_bound_exits_2(self, tmp_path, capsys, vol):
        # sigma^2 * S_max^2 underflows to 0 with no risky rate to bound the FD time
        # step, or overflows, so no step is stable
        rc = run(["compare", "--date", "2004-01-02", "--rate", 0, "--spread", 0, "--vol", vol,
                  "--s-min", 100, "--s-max", 101, "--s-step", 1, "--steps", 20,
                  "--out", tmp_path / "o"])
        assert rc == 2
        assert "no positive, finite stable time step" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        ["price", "--rate", "1e5"],
        ["price", "--vol", "1e308"],
        ["price", "--spread", "1e5", "--steps", 10],
        ["price", "--spread=-1e5", "--steps", 10],
        ["greeks", "--date", "2002-01-02", "--rate", "1e5", "--s-min", 100, "--s-max", 100],
        ["hedge-stress", "--vol", "1e308", "--s-min", 100, "--s-max", 100],
    ], ids=["rate", "vol", "spread", "negative-spread", "greeks", "hedge-stress"])
    def test_overflowing_market_exits_2(self, tmp_path, capsys, command):
        """A growth, discount or coupon factor past the float range is refused
        by the tree's setup, naming the market inputs."""
        rc = run(command + ["--out", tmp_path / "o"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "overflow the" in err
        assert all(name in err for name in ("rate ", "credit spread ", "volatility ")), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("t_points", [0, -3])
    def test_bad_time_grid_exits_2(self, tmp_path, capsys, t_points):
        rc = run(["surface", "--t-points", t_points, "--s-min", 100, "--s-max", 100,
                  "--steps", 20, "--out", tmp_path])
        assert rc == 2
        assert "--t-points" in capsys.readouterr().err
        assert not (tmp_path / "surface.csv").exists()

    def test_oversized_time_grid_exits_2(self, tmp_path, capsys, monkeypatch):
        """--t-points times the spot points may reach MAX_SPOT_POINTS and not
        pass it; the refusal comes before the date grid exists."""
        monkeypatch.setattr(cli, "MAX_SPOT_POINTS", 4)
        grid = ["--s-min", 100, "--s-max", 101, "--s-step", 1, "--steps", 20]
        assert run(["surface", "--t-points", 2, "--out", tmp_path / "ok"] + grid) == 0
        capsys.readouterr()
        assert run(["surface", "--t-points", 3, "--out", tmp_path / "big"] + grid) == 2
        assert "--t-points must be from 1 to 2 on 2 spot points, got 3" in capsys.readouterr().err
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("grid", [
        ["--fd-nodes", 1],
        ["--fd-s-max", 0],
        ["--fd-s-max", "nan"],
        ["--fd-s-max", "inf"],
        ["--fd-nodes", 100_000_000],  # 2.7e15 time layers
    ])
    def test_bad_fd_grid_exits_2(self, tmp_path, capsys, grid):
        rc = run(["compare", "--date", "2004-01-02", "--s-min", 100, "--s-max", 101,
                  "--s-step", 1, "--steps", 20, "--out", tmp_path] + grid)
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()

    def test_fd_spot_nodes_capped_before_any_solve(self, tmp_path, capsys, monkeypatch):
        """At --vol 1e-8 a 10^8-node grid needs only 5 stable layers; the node
        cap refuses it before the march allocates its n_s vectors."""
        def no_fd_work(*args, **kwargs):
            pytest.fail("FD march started past the spot-node cap")

        monkeypatch.setattr(fd, "solve_tf_fd", no_fd_work)
        rc = run(["compare", "--date", "2004-01-02", "--vol", "1e-8", "--s-min", 100,
                  "--s-max", 101, "--s-step", 1, "--steps", 20, "--fd-nodes", 100_000_000,
                  "--out", tmp_path])
        assert rc == 2
        assert "100,000,000 spot nodes exceed the limit of 100,000" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()

    @pytest.mark.parametrize("command", [
        ["price"],
        ["greeks", "--date", "2004-01-02", "--s-min", 100, "--s-max", 100],
        ["var", "--scenarios", 20],
    ], ids=["price", "greeks", "var"])
    def test_tree_steps_capped_before_any_tree(self, tmp_path, capsys, monkeypatch, command):
        def no_tree(*args, **kwargs):
            pytest.fail("tree built past the step cap")

        monkeypatch.setattr(lattice, "_Rollback", no_tree)
        rc = run(command + ["--steps", 10_001, "--out", tmp_path / "o"])
        assert rc == 2
        assert "10,001 tree steps exceed the limit of 10,000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_fd_grid_refused_before_lattice_work(self, tmp_path, capsys, monkeypatch):
        def no_lattice_work(*args, **kwargs):
            pytest.fail("lattice profile priced before the FD grid was checked")

        monkeypatch.setattr(lattice, "rollback_batch", no_lattice_work)
        rc = run(["compare", "--date", "2004-01-02", "--s-min", 100, "--s-max", 101,
                  "--s-step", 1, "--steps", 20, "--fd-nodes", 1, "--out", tmp_path])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, names", [
        pytest.param(path, value, names, id=f"{'.'.join(path)}={value}")
        for path, value, names in [
            (("coupon_frequency",), 0, "coupon frequency"),
            (("coupon_frequency",), -2, "coupon frequency"),
            (("coupon_frequency",), 2.5, "coupon_frequency"),
            (("coupon_frequency",), "4", "coupon_frequency"),
            (("coupon_frequency",), True, "coupon_frequency"),
            (("nominal",), float("nan"), "nominal"),
            (("nominal",), float("inf"), "nominal"),
            (("nominal",), 0.0, "nominal"),
            (("nominal",), True, "nominal"),
            (("coupon_rate",), float("nan"), "coupon rate"),
            (("coupon_rate",), float("inf"), "coupon rate"),
            (("coupon_rate",), -0.01, "coupon rate"),
            (("coupon_rate",), False, "coupon rate"),
            (("conversion", "ratio"), float("nan"), "conversion ratio"),
            (("conversion", "ratio"), float("inf"), "conversion ratio"),
            (("conversion", "ratio"), True, "conversion ratio"),
            (("call", "price"), float("inf"), "call price"),
            (("call", "price"), "110", "call price"),
            (("put", "price"), float("inf"), "put price"),
        ]
    ])
    def test_bad_term_sheet_number_exits_2(self, tmp_path, capsys, path, value, names):
        sheet = json.loads(reference_terms_path().read_text())
        *outer, key = path
        # a right the sheet lacks (the put) takes the call's window
        (sheet.setdefault(outer[0], dict(sheet["call"])) if outer else sheet)[key] = value
        terms_path = tmp_path / "terms.json"
        terms_path.write_text(json.dumps(sheet))  # NaN and Infinity as JSON literals
        rc = run(["price", "--terms", terms_path, "--steps", 20, "--out", tmp_path / "o"])
        assert rc == 2
        # the message names the field, not a symptom such as a date out of range
        assert names in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_term_sheet_int_past_the_float_range_exits_2(self, tmp_path, capsys):
        sheet = json.loads(reference_terms_path().read_text())
        sheet["nominal"] = 10**400  # a JSON integer that float() cannot convert
        terms_path = tmp_path / "terms.json"
        terms_path.write_text(json.dumps(sheet))
        rc = run(["price", "--terms", terms_path, "--steps", 20, "--out", tmp_path / "o"])
        assert rc == 2
        assert "nominal must be a finite real number > 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("size", ["nan", "inf", "0", "-5"])
    def test_bad_contract_size_exits_2(self, tmp_path, capsys, size):
        rc = run(["hedge-stress", "--s-min", 100, "--s-max", 100, "--contract-size", size,
                  "--steps", 20, "--out", tmp_path / "o"])
        assert rc == 2
        assert "contract size" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_hedge_spot_exits_2(self, tmp_path, capsys):
        rc = run(["hedge-stress", "--s-min", -1, "--s-max", 1, "--s-step", 1,
                  "--steps", 20, "--out", tmp_path / "o"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestDefaultDate:
    @pytest.mark.parametrize("command, names", [
        (["price"], ["price.csv"]),
        (["hedge-stress", "--s-min", 99, "--s-max", 101], ["hedge_stress.csv"]),
        (["var", "--scenarios", 20], ["var_report.txt", "var_cb_hist.csv", "var_stock_hist.csv"]),
    ], ids=["price", "hedge-stress", "var"])
    def test_unset_date_is_the_issue_date(self, tmp_path, command, names):
        """Leaving --date unset writes the bytes, config hash included, of
        passing the sheet's issue date."""
        unset, issue = tmp_path / "unset", tmp_path / "issue"
        assert run(command + ["--steps", 20, "--out", unset]) == 0
        assert run(command + ["--steps", 20, "--date", "2002-01-02", "--out", issue]) == 0
        for name in names:
            assert (unset / name).read_bytes() == (issue / name).read_bytes()


class TestGreeksAndSurface:
    def test_greeks_profile_columns(self, tmp_path):
        out = tmp_path / "o"
        assert run(["greeks", "--date", "2004-01-02", "--s-min", 95, "--s-max", 105,
                    "--s-step", 5, "--steps", 120, "--out", out]) == 0
        lines = (out / "greeks.csv").read_text().splitlines()
        assert lines[3] == "t_years,t_date,S,V_dirty,V_clean,E,B,delta,delta_pct,gamma"
        assert len(lines) == 4 + 3  # three spots

    def test_surface_time_grid(self, tmp_path):
        out = tmp_path / "o"
        assert run(["surface", "--s-min", 90, "--s-max", 110, "--s-step", 10,
                    "--t-points", 4, "--steps", 60, "--out", out]) == 0
        lines = (out / "surface.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines[4:]]
        assert len(rows) == 4 * 3
        t_years = sorted({r[0] for r in rows}, key=float)
        assert t_years[0] == "0"
        assert all(float(t) < 1826 / 365 for t in t_years)


class TestHedgeStress:
    def test_columns_and_scaling(self, tmp_path):
        out = tmp_path / "o"
        assert run(["hedge-stress", "--s-min", 90, "--s-max", 92, "--s-step", 1,
                    "--steps", 120, "--out", out]) == 0
        lines = (out / "hedge_stress.csv").read_text().splitlines()
        assert lines[3] == "S,increment,increment_scaled,increment_relative"
        row = lines[4].split(",")
        assert float(row[2]) == pytest.approx(float(row[1]) * 10_000.0, rel=1e-10)

    @pytest.mark.parametrize("shock", ["0", "nan", "inf", "-inf"])
    def test_bad_shock_exits_2(self, tmp_path, capsys, shock):
        rc = run(["hedge-stress", "--s-min", 100, "--s-max", 100, f"--shock={shock}",
                  "--steps", 20, "--out", tmp_path / "o"])
        assert rc == 2
        assert "shock" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("shock, names", [
        ("1e308", ["spot 1e+308", "20-step tree"]),
        ("-150", ["shock -150.0", "spot 100.0"]),
    ], ids=["overflowing-tree", "spot-below-zero"])
    def test_shocked_spot_out_of_domain_exits_2(self, tmp_path, capsys, shock, names):
        rc = run(["hedge-stress", "--s-min", 100, "--s-max", 100, f"--shock={shock}",
                  "--steps", 20, "--out", tmp_path / "o"])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert not (tmp_path / "o").exists()

    def test_scaled_increment_overflow_exits_2(self, tmp_path, capsys):
        """The tree and the increment are finite, but increment * contract
        size / nominal is not: refused, naming the contract size."""
        rc = run(["hedge-stress", "--s-min", 100, "--s-max", 100, "--shock=5e306",
                  "--steps", 20, "--out", tmp_path / "o"])
        assert rc == 2
        assert "--contract-size" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_at_most_two_grid_rollbacks(self, tmp_path, monkeypatch):
        """Positions and increments come from the same engine work: the base
        and the shocked grid, each rolled back once."""
        seen = []
        engine = lattice.rollback_batch

        def counting(terms, mkt, t0, spots, *args, **kwargs):
            seen.append(len(spots))
            return engine(terms, mkt, t0, spots, *args, **kwargs)

        for module in (lattice, sensitivities, hedge, var):
            monkeypatch.setattr(module, "rollback_batch", counting)
        assert run(["hedge-stress", "--s-min", 90, "--s-max", 92, "--s-step", 1,
                    "--steps", 120, "--out", tmp_path]) == 0
        assert 0 < sum(seen) <= 2 * 3


class TestVar:
    def test_artifacts_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["var", "--date", "2004-01-02", "--scenarios", 40, "--steps", 120,
                "--seed", 7]
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        for name in ("var_report.txt", "var_cb_hist.csv", "var_stock_hist.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        report = (out1 / "var_report.txt").read_text()
        assert "var_pct:" in report and "seed: 7" in report

    def test_seed_changes_results(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            assert run(["var", "--date", "2004-01-02", "--scenarios", 40,
                        "--steps", 120, "--seed", seed, "--out", out]) == 0
            outs.append((out / "var_report.txt").read_text())
        assert outs[0] != outs[1]

    def test_holding_period_past_maturity_exits_2(self, tmp_path, capsys):
        # 3,000,000 days would also run past the last date the calendar holds
        for days in (5000, 3_000_000):
            rc = run(["var", "--holding-days", days, "--scenarios", 10, "--steps", 20,
                      "--out", tmp_path / "o"])
            assert rc == 2
            assert "holding" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_scenarios_over_the_cap_exit_2(self, tmp_path, capsys):
        rc = run(["var", "--scenarios", var.MAX_SCENARIOS + 1, "--out", tmp_path / "o"])
        assert rc == 2
        assert "10,000,001 scenarios exceed the limit" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option, value, names", [
        ("--drift", "nan", "drift"),
        ("--drift", "inf", "drift"),
        ("--scen-vol", "nan", "scenario volatility"),
        ("--scen-vol", "inf", "scenario volatility"),
        ("--spot", "nan", "spot must"),
        ("--spot", "inf", "spot must"),
    ])
    def test_non_finite_scenario_input_exits_2(self, tmp_path, capsys, option, value, names):
        rc = run(["var", option, value, "--scenarios", 10, "--steps", 20,
                  "--out", tmp_path / "o"])
        assert rc == 2
        assert names in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_exits_2(self, tmp_path, capsys, seed):
        """The Philox key is one 64-bit word: a seed outside it is refused, not wrapped."""
        rc = run(["var", "--seed", seed, "--scenarios", 10, "--steps", 20, "--out", tmp_path / "o"])
        assert rc == 2
        assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("option, value, names", [
        ("--scen-vol", "1e200", "scenario drift 0.05 and volatility 1e+200"),
        ("--drift", "1e300", "scenario drift 1e+300 and volatility 0.3"),
        ("--drift", "-1e300", "scenario drift -1e+300 and volatility 0.3"),
    ])
    def test_overflowing_scenario_input_exits_2(self, tmp_path, capsys, monkeypatch,
                                                option, value, names):
        """Finite scenario inputs that take a horizon stock price out of
        (0, inf) are refused by name before any repricing, without a warning."""
        def no_repricing(*args, **kwargs):
            pytest.fail("scenarios repriced before they were checked")

        monkeypatch.setattr(var, "rollback_batch", no_repricing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["var", f"{option}={value}", "--scenarios", 10, "--steps", 10,
                      "--out", tmp_path / "o"])
        assert rc == 2
        assert names in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCompare:
    def test_summary_metrics(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["compare", "--date", "2004-01-02", "--s-min", 105, "--s-max", 112,
                    "--s-step", 0.1, "--steps", 500, "--fd-nodes", 201, "--out", out]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        summary = {l.split()[1]: l.split()[2] for l in lines if l.startswith("# ") and
                   len(l.split()) == 3 and not l.startswith("# config")}
        assert int(summary["lattice_monotonicity_violations"]) >= 1
        assert int(summary["fd_monotonicity_violations"]) == 0
        assert float(summary["max_abs_diff"]) < 1.5

    def test_straight_bond_engines_agree(self, tmp_path):
        terms_path = tmp_path / "straight.json"
        terms_path.write_text(json.dumps({
            "nominal": 100.0, "coupon_rate": 0.0, "coupon_frequency": 2,
            "issue_date": "2002-01-02", "maturity_date": "2007-01-02",
            "conversion": {"ratio": 0.0, "start": "2002-01-02", "end": "2007-01-02"},
            "day_count": "ACT_365",
        }))
        out = tmp_path / "o"
        assert run(["compare", "--terms", terms_path, "--date", "2004-01-02",
                    "--s-min", 80, "--s-max", 120, "--s-step", 10,
                    "--steps", 400, "--out", out]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        for row in rows:
            # identical model, different discretizations: the FD side carries
            # its forward-Euler error, about 5e-7 relative on this grid
            assert abs(float(row[3])) / float(row[2]) < 1e-6


# run in a fresh interpreter: price, compare and var through cli.main, then one simulation
COLD_START = """
import json, sys
import cblab
from cblab import cli, var
out = sys.argv[1]
assert cli.main(["price", "--steps", "3", "--out", out]) == 0
assert cli.main(["compare", "--date", "2002-01-02", "--s-min", "95", "--s-max", "105",
                 "--s-step", "5", "--steps", "3", "--fd-nodes", "5", "--out", out]) == 0
assert cli.main(["var", "--scenarios", "4", "--steps", "3", "--out", out]) == 0
spec = var.VaRSpec(eval_date=cblab.reference_terms().issue, spot=100.0, n_scenarios=64, seed=7)
s = var.simulate_stock(spec)
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"scipy": scipy, "s": s.tobytes().hex()}))
"""


class TestColdStart:
    def test_no_command_loads_scipy(self, tmp_path):
        """Importing cblab, running price, compare and var, and a simulation
        load no scipy module, and the simulation gives the same bits."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path / "o")], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout.splitlines()[-1])
        assert child["scipy"] == []
        spec = var.VaRSpec(eval_date=date(2002, 1, 2), spot=100.0, n_scenarios=64, seed=7)
        assert bytes.fromhex(child["s"]) == var.simulate_stock(spec).tobytes()


class TestConfig:
    """Every parsed option except --out reaches the header's config hash."""

    BASE = {
        "price": [],
        "surface": [],
        "greeks": ["--date", "2004-01-02"],
        "hedge-stress": [],
        "var": [],
        "compare": ["--date", "2004-01-02"],
    }

    @staticmethod
    def _hash(argv):
        args = build_parser().parse_args(argv)
        return config_hash(cli._config(args, load_terms(args.terms)))

    @staticmethod
    def _changed(action, value, tmp_path) -> str:
        """A command-line value for `action` that differs from the parsed `value`."""
        if action.dest == "terms":
            sheet = json.loads(reference_terms_path().read_text())
            path = tmp_path / "terms.json"
            path.write_text(json.dumps(dict(sheet, call=dict(sheet["call"], price=115.0))))
            return str(path)
        if action.dest == "out":
            return str(tmp_path / "elsewhere")
        if action.choices:
            return next(c for c in action.choices if c != value)
        if action.dest == "date":
            return "2003-07-02" if value is None else "2004-07-02"
        return str(value + 1)

    def test_defaults_are_the_librarys(self):
        """The market flags default to `reference_market()` and the `var` flags
        to `VaRSpec`'s field defaults, so a bare command prices the reference case."""
        mkt = reference_market()
        for command in ("price", "var"):
            args = build_parser().parse_args([command])
            assert (args.rate, args.spread, args.vol) == (mkt.rate, mkt.credit_spread, mkt.sigma)
        args = build_parser().parse_args(["var"])
        flags = {"n_scenarios": "scenarios", "scen_sigma": "scen_vol"}  # the rest share names
        for f in dataclasses.fields(var.VaRSpec):
            if f.default is not dataclasses.MISSING:
                value = getattr(args, flags.get(f.name, f.name))
                assert value == f.default and type(value) is type(f.default), f.name

    @pytest.mark.parametrize("command, explicit", [
        ("price", ["--rate", "0.05", "--spread", "0.02", "--vol", "0.30"]),
        ("var", ["--rate", "0.05", "--spread", "0.02", "--vol", "0.30", "--holding-days", "1",
                 "--confidence", "0.99", "--scenarios", "10000", "--drift", "0.05",
                 "--scen-vol", "0.30", "--seed", "0", "--steps", "500"]),
    ])
    def test_explicit_defaults_keep_the_hash(self, command, explicit):
        assert self._hash([command] + explicit) == self._hash([command])

    @pytest.mark.parametrize("command", list(BASE))
    def test_every_option_but_out_changes_the_hash(self, tmp_path, command):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        base = [command] + self.BASE[command]
        parsed = build_parser().parse_args(base)
        options = [a for a in sub.choices[command]._actions
                   if a.option_strings and a.dest != "help"]
        assert {a.dest for a in options} == set(vars(parsed)) - {"command", "func"}
        for action in options:
            value = self._changed(action, getattr(parsed, action.dest), tmp_path)
            changed = self._hash(base + [action.option_strings[-1], value])
            if action.dest == "out":
                assert changed == self._hash(base)
            else:
                assert changed != self._hash(base), action.option_strings[-1]
