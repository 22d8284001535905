"""End-to-end command line coverage, driven in-process through main().

Exit codes are part of the contract, so each failure class gets pinned to
its number.  File outputs (surface JSON, report JSON, trace CSV, order
table CSV) are parsed back rather than pattern-matched.
"""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hkverify.cli import build_parser, main
from hkverify.hypersurface import RadialGraph, build_geometry, load_surface, save_surface


def dented_curve(tmp_path, amp):
    """Curves the generator would refuse; written straight to disk."""
    theta = np.arange(128) * (2 * np.pi / 128)
    g = RadialGraph(1, 1.0 + amp * np.cos(2 * theta))
    path = tmp_path / f"dent{amp}.json"
    save_surface(g, path)
    return str(path)


class TestGen:
    def test_sphere_round_trip(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["gen", "--shape", "sphere", "--radius", "1.0",
                   "--grid", "32x64", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert f"wrote {out}" in captured
        assert "kappa range" in captured and "umbilicity spread" in captured
        g = load_surface(out)
        assert g.n == 2 and g.rho.shape == (32, 64)
        assert g.meta["shape"] == "sphere"

    def test_circle_gen(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["gen", "--n", "1", "--grid", "128", "--out", str(out)])
        assert rc == 0
        assert load_surface(out).n == 1

    def test_rejected_shape_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = main(["gen", "--shape", "perturbed", "--amp", "0.2", "--mode", "2",
                   "--n", "1", "--grid", "128", "--out", str(out)])
        assert rc == 2
        assert "generation error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--shape", "sphere", "--radius", "0"],
        ["--shape", "sphere", "--radius", "-1"],
        ["--shape", "perturbed", "--radius", "0"],
        ["--shape", "perturbed", "--radius", "-1", "--n", "1", "--mode", "2", "--grid", "64"],
        ["--shape", "perturbed", "--amp", "0.3", "--mode", "2,0"],  # H <= 2
    ])
    def test_refused_generation_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        grid = [] if "--grid" in argv else ["--grid", "32x64"]
        assert main(["gen", *argv, *grid, "--out", str(out)]) == 2
        assert "generation error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--shape", "perturbed", "--amp", "0.05", "--mode", "2,0", "--grid", "32x64"],
        ["--shape", "sphere", "--offset", "0.3", "--n", "1", "--grid", "128"],
    ])
    def test_printout_matches_full_geometry(self, tmp_path, capsys, argv):
        out = tmp_path / "s.json"
        assert main(["gen", *argv, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()[1:]
        geom = build_geometry(load_surface(out))
        k, H = geom.kappa, geom.mean_curvature
        assert printed == [
            f"kappa range: [{np.min(k):.9g}, {np.max(k):.9g}]",
            f"min H - n: {np.min(H) - geom.n:.9g}",
            f"umbilicity spread: {np.max(k) - np.min(k):.9g}",
        ]

    def test_bad_offset_exits_2(self, tmp_path):
        rc = main(["gen", "--offset", "1.5", "--radius", "1.0",
                   "--grid", "32x64", "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_far_offset_sphere(self, tmp_path):
        # origin 0.6 from the surface of a radius-6 circle
        rc = main(["gen", "--shape", "sphere", "--radius", "6", "--offset", "5.4",
                   "--n", "1", "--grid", "256", "--out", str(tmp_path / "x.json")])
        assert rc == 0

    def test_bad_grid_exits_64(self, tmp_path):
        rc = main(["gen", "--grid", "notagrid", "--out", str(tmp_path / "x.json")])
        assert rc == 64
        rc = main(["gen", "--n", "1", "--grid", "32x64",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 64

    def test_bad_mode_exits_64(self, tmp_path):
        rc = main(["gen", "--shape", "perturbed", "--mode", "2", "--n", "2",
                   "--grid", "32x64", "--out", str(tmp_path / "x.json")])
        assert rc == 64


class TestVerify:
    @pytest.fixture()
    def circle(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["gen", "--n", "1", "--grid", "256", "--out", str(out)]) == 0
        return str(out)

    def test_pass_lines(self, circle, capsys):
        rc = main(["verify", "--surface", circle])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)
        assert any("gauss-bonnet" in l for l in lines)
        assert any("minkowski-shifted[eps=0.5,k=1]" in l for l in lines)

    def test_report_written_and_stable(self, circle, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--surface", circle, "--report", str(a)]) == 0
        assert main(["verify", "--surface", circle, "--report", str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da["provenance"].pop("timestamp")
        db["provenance"].pop("timestamp")
        assert da == db

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["verify", "--surface", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_file_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["verify", "--surface", str(bad)]) == 1
        bad.write_text(json.dumps({"n": 7, "grid": {}, "rho": []}))
        assert main(["verify", "--surface", str(bad)]) == 1

    def test_precondition_exits_3(self, tmp_path, capsys):
        rc = main(["verify", "--surface", dented_curve(tmp_path, 0.15)])
        assert rc == 3
        assert "precondition failed" in capsys.readouterr().err

    def test_impossible_tolerance_exits_6(self, circle, capsys):
        rc = main(["verify", "--surface", circle, "--tol", "1e-16"])
        assert rc == 6
        assert "FAILED" in capsys.readouterr().err

    def test_unknown_check_exits_64(self, circle):
        assert main(["verify", "--surface", circle, "--checks", "bogus"]) == 64

    @pytest.mark.parametrize("argv", [
        ["--eps", ""],
        ["--k", ""],
        ["--eps", "nan"],
        ["--checks", "hk-shifted", "--eps", "inf"],
    ])
    def test_vacuous_request_exits_64(self, circle, capsys, argv):
        # refused before any check runs: no PASS/FAIL line, one error line
        assert main(["verify", "--surface", circle] + argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_alexandrov_on_a_curve_exits_3(self, circle, capsys):
        assert main(["verify", "--surface", circle, "--checks", "alexandrov"]) == 3
        assert "alexandrov applies to surfaces only" in capsys.readouterr().err

    def test_explicit_checks_and_orders(self, circle, capsys):
        rc = main(["verify", "--surface", circle, "--checks",
                   "minkowski-shifted", "--eps", "0,1", "--k", "1"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("PASS")]
        assert len(lines) == 2


class TestFlow:
    def test_circle_flow_with_outputs(self, tmp_path, capsys):
        surf = tmp_path / "c.json"
        assert main(["gen", "--n", "1", "--grid", "128", "--out", str(surf)]) == 0
        trace = tmp_path / "trace.csv"
        summary = tmp_path / "summary.json"
        rc = main(["flow", "--surface", str(surf), "--trace", str(trace),
                   "--summary", str(summary)])
        assert rc == 0
        header = trace.read_text().splitlines()[0]
        assert header == "t,Q,H_min,H_max,area,levelset_residual,n_active"
        s = json.loads(summary.read_text())
        assert s["pass"] is True and s["round_surface"] is True
        out = capsys.readouterr().out
        assert "q_monotone_ok: True" in out

    def test_flow_assumption_exits_4(self, tmp_path, capsys):
        rc = main(["flow", "--surface", dented_curve(tmp_path, 0.15)])
        assert rc == 4
        assert "flow assumption failed" in capsys.readouterr().err

    def test_missing_surface_exits_1(self, tmp_path):
        assert main(["flow", "--surface", str(tmp_path / "no.json")]) == 1

    @pytest.mark.parametrize("flag", ["--cut-samples", "--exclusion", "--samples", "--safety"])
    def test_scan_flags_are_unknown(self, tmp_path, flag):
        # the collision scan and the sampling have fixed parameters: their
        # old flags are usage errors, not the missing file's exit 1
        assert main(["flow", "--surface", str(tmp_path / "no.json"), flag, "3"]) == 64


class TestConvergence:
    def test_ellipse_orders(self, tmp_path, capsys):
        table = tmp_path / "orders.csv"
        rc = main(["convergence", "--shape", "perturbed", "--amp", "0.1",
                   "--mode", "2", "--n", "1", "--levels", "64,128,256",
                   "--checks", "minkowski-classical,minkowski-shifted,gauss-bonnet",
                   "--out", str(table)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gauss-bonnet: fitted order" in out
        lines = table.read_text().splitlines()
        assert lines[0] == "check,n_phi,h,rel_residual,pairwise_order,fitted_order"
        got = {}
        for line in lines[1:]:
            # check names may carry commas (eps/k tags); peel fields off the right
            name, n_phi, h, resid, pair, fit = line.rsplit(",", 5)
            got.setdefault(name, []).append((int(n_phi), float(resid), float(fit)))
        assert set(got) >= {"gauss-bonnet", "minkowski-classical",
                            "minkowski-shifted[eps=1,k=1]"}
        assert all(len(v) == 3 for v in got.values())
        # smooth curve, 4th-order stencils
        assert got["gauss-bonnet"][0][2] >= 1.7
        # the classical identity plateaus at rounding level instead
        assert got["minkowski-classical"][-1][1] <= 1e-13

    def test_nonconvergent_series_exits_5(self, capsys):
        rc = main(["convergence", "--shape", "perturbed", "--amp", "0.05",
                   "--mode", "2,0", "--n", "2", "--levels", "16,24,32",
                   "--checks", "umbilic-spread"])
        assert rc == 5
        err = capsys.readouterr().err
        assert "anomaly" in err and "residual grew" in err

    def test_too_few_levels_exits_64(self, capsys):
        rc = main(["convergence", "--n", "1", "--levels", "64,128",
                   "--checks", "minkowski-classical"])
        assert rc == 64
        assert "3 refinement levels" in capsys.readouterr().err

    def test_unsorted_levels_exit_64(self):
        assert main(["convergence", "--n", "1", "--levels", "128,64,256",
                     "--checks", "minkowski-classical"]) == 64

    def test_series_rows_in_request_order(self, tmp_path):
        table = tmp_path / "orders.csv"
        main(["convergence", "--shape", "perturbed", "--amp", "0.1", "--mode", "2",
              "--n", "1", "--levels", "32,64,128", "--out", str(table),
              "--checks", "minkowski-classical,umbilic-spread,gauss-bonnet"])
        rows = [line.rsplit(",", 5)[:2] for line in table.read_text().splitlines()[1:]]
        assert rows == [[name, level]
                        for name in ("minkowski-classical", "umbilic-spread", "gauss-bonnet")
                        for level in ("32", "64", "128")]

    def test_unknown_series_exits_64(self, tmp_path, capsys):
        table = tmp_path / "orders.csv"
        assert main(["convergence", "--n", "1", "--levels", "32,64,128",
                     "--checks", "hk-brendle", "--out", str(table)]) == 64
        assert "'hk-brendle' has no convergence series" in capsys.readouterr().err
        assert not table.exists()


class TestUsage:
    def test_help_exits_0(self):
        assert main(["--help"]) == 0
        assert main(["gen", "--help"]) == 0

    def test_no_command_exits_64(self):
        assert main([]) == 64

    def test_unknown_flag_exits_64(self):
        assert main(["gen", "--nope", "--out", "x.json"]) == 64

    def test_readme_flags_are_accepted(self):
        # a flag the parser dropped must not linger in the documentation
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        accepted = {flag for sub in subparsers.choices.values()
                    for flag in sub._option_string_actions}
        assert {"--surface", "--checks", "--trace", "--summary"} <= named
        assert named <= accepted, sorted(named - accepted)
