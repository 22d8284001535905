"""End-to-end command line coverage, driven in-process through main().

Exit codes are part of the contract, so each failure class gets pinned to
its number.  File outputs (surface JSON, report JSON, trace CSV, order
table CSV) are parsed back rather than pattern-matched.
"""

import argparse
import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hkverify import cli, errors, hypersurface
from hkverify.cli import build_parser, main
from hkverify.hypersurface import (
    RadialGraph,
    build_geometry,
    gen_perturbed_sphere,
    gen_sphere,
    load_surface,
    save_surface,
)
from hkverify.identities import run_verification


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
        ["--shape", "sphere", "--radius", "nan"],
        ["--shape", "sphere", "--radius", "inf"],
    ])
    def test_refused_generation_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        grid = [] if "--grid" in argv else ["--grid", "32x64"]
        assert main(["gen", *argv, *grid, "--out", str(out)]) == 2
        assert "generation error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, cause", [
        (["--amp", "0.01", "--mode", "255,100", "--grid", "256x512"],
         "mode (255, 100) has a non-finite harmonic on a 256x512 grid"),
        (["--amp", "0.01", "--mode", "86,85", "--grid", "128x256"],
         "mode (86, 85) has a non-finite harmonic on a 128x256 grid"),
        (["--amp", "nan", "--grid", "32x64"], "amplitude must be finite, got nan"),
        (["--amp=-inf", "--n", "1", "--mode", "2", "--grid", "64"],
         "amplitude must be finite, got -inf"),
        (["--radius", "nan", "--grid", "32x64"], "radius must be positive and finite"),
    ])
    def test_non_finite_perturbation_exits_2(self, tmp_path, capsys, argv, cause):
        # these used to reach RadialGraph's non-finite rho check and exit 64
        out = tmp_path / "x.json"
        assert main(["gen", "--shape", "perturbed", *argv, "--out", str(out)]) == 2
        assert cause in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--n", "1", "--mode", "32", "--grid", "32"],      # would sample an exact circle
        ["--n", "1", "--mode", "16", "--grid", "32"],
        ["--mode", "20,16", "--grid", "32x32"],            # m >= n_theta / 2
        ["--mode", "16,0", "--grid", "16x64"],             # l >= n_phi
    ])
    def test_unresolved_mode_exits_2(self, tmp_path, capsys, argv):
        # a mode the grid cannot represent is refused, not aliased onto
        # another surface whose meta still names the requested mode
        out = tmp_path / "x.json"
        assert main(["gen", "--shape", "perturbed", "--amp", "0.001", *argv,
                     "--out", str(out)]) == 2
        assert "is not resolved" in capsys.readouterr().err
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

    @pytest.mark.parametrize("argv, surface", [
        (["--shape", "perturbed", "--amp", "0.05", "--mode", "2,0", "--grid", "32x64"],
         lambda: gen_perturbed_sphere(1.0, 0.05, (2, 0), grid=(32, 64))),
        (["--shape", "perturbed", "--amp", "0.02", "--mode", "3", "--n", "1",
          "--grid", "256"],
         lambda: gen_perturbed_sphere(1.0, 0.02, 3, n=1, grid=(256,))),
        (["--shape", "sphere", "--offset", "0.3", "--grid", "32x64"],
         lambda: gen_sphere(1.0, center_offset=0.3, grid=(32, 64))),
    ])
    def test_printout_describes_the_written_file(self, tmp_path, capsys, argv, surface):
        # gen prints the geometry it generated with, never another surface's:
        # the file holds the library generator's surface byte for byte, and
        # each printed value is that file's geometry at the printed precision
        out, want = tmp_path / "s.json", tmp_path / "want.json"
        assert main(["gen", *argv, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        save_surface(surface(), want)
        assert out.read_bytes() == want.read_bytes()
        lo, hi = re.search(r"^kappa range: \[(\S+), (\S+)\]$", printed, re.M).groups()
        gap = re.search(r"^min H - n: (\S+)$", printed, re.M).group(1)
        spread = re.search(r"^umbilicity spread: (\S+)$", printed, re.M).group(1)
        geom = build_geometry(load_surface(out))
        k, H = geom.kappa, geom.mean_curvature
        assert (lo, hi, gap, spread) == (
            f"{np.min(k):.9g}", f"{np.max(k):.9g}", f"{np.min(H) - geom.n:.9g}",
            f"{np.max(k) - np.min(k):.9g}")

    @pytest.mark.parametrize("argv", [
        ["--shape", "sphere", "--radius", "800"],
        ["--shape", "perturbed", "--radius", "800"],
        ["--shape", "sphere", "--radius", "800", "--n", "1", "--grid", "64"],
    ])
    def test_overflowing_radius_exits_3(self, tmp_path, capsys, argv):
        # sinh(rho) overflows: the geometry is refused, not printed as NaN
        out = tmp_path / "x.json"
        grid = [] if "--grid" in argv else ["--grid", "16x32"]
        assert main(["gen", *argv, *grid, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "precondition failed" in err and "not finite (node 0)" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("argv, cause", [
        (["--n", "1", "--grid", "32x64"], "n = 1 needs a single point count, e.g. 256"),
        (["--grid", "32"], "n = 2 needs a PHIxTHETA grid, e.g. 128x256"),
        (["--grid", "notagrid"], "cannot parse 'notagrid' as integers separated by 'x'"),
        (["--grid", "16.5x32"], "cannot parse '16.5x32'"),
        (["--shape", "perturbed", "--mode", "2", "--grid", "32x64"],
         "n = 2 needs a pair l,m as its mode, got [2]"),
        (["--shape", "perturbed", "--n", "1", "--mode", "2,0", "--grid", "64"],
         "n = 1 needs a single wavenumber as its mode, got [2, 0]"),
        (["--shape", "perturbed", "--mode", "2.0,0", "--grid", "32x64"],
         "cannot parse '2.0,0' as integers separated by ','"),
    ])
    def test_malformed_grid_or_mode_names_what_n_needs(self, tmp_path, capsys, argv, cause):
        # the library's rule, not a copy of it in the CLI, refuses these: exit 64
        out = tmp_path / "x.json"
        assert main(["gen", *argv, "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and cause in err
        assert not out.exists()

    def test_convergence_refuses_a_malformed_mode(self, capsys):
        assert main(["convergence", "--shape", "perturbed", "--n", "1", "--mode", "2,0",
                     "--levels", "16,32,64"]) == 64
        assert "n = 1 needs a single wavenumber as its mode" in capsys.readouterr().err

    def test_grid_separator_is_case_insensitive(self, tmp_path):
        upper, lower = tmp_path / "upper.json", tmp_path / "lower.json"
        assert main(["gen", "--grid", "16X32", "--out", str(upper)]) == 0
        assert main(["gen", "--grid", "16x32", "--out", str(lower)]) == 0
        assert upper.read_bytes() == lower.read_bytes()


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

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["verify", "--surface", str(bad)]) == 1
        # an unsupported dimension with an otherwise valid base64 rho
        rho = base64.b64encode(np.ones(8).tobytes()).decode()
        bad.write_text(json.dumps({"n": 7, "grid": {"n_theta": 8}, "rho": rho}))
        assert main(["verify", "--surface", str(bad)]) == 1
        assert "unsupported dimension n = 7" in capsys.readouterr().err
        # a size that is not a JSON integer is refused, not truncated to 8
        rho = base64.b64encode(np.ones(64).tobytes()).decode()
        bad.write_text(json.dumps({"n": 2, "grid": {"n_phi": 8.9, "n_theta": 8}, "rho": rho}))
        for command in ("verify", "flow"):
            assert main([command, "--surface", str(bad)]) == 1
        assert capsys.readouterr().err.count("n_phi must be an integer, got 8.9") == 2

    @pytest.mark.parametrize("rho, named", [
        (base64.b64encode(bytes(1024)).decode()[:-4] + "!!!=", "rho is not base64"),
        (base64.b64encode(bytes(1016)).decode(), "rho holds 1016 bytes"),
        (base64.b64encode(bytes(1032)).decode(), "rho holds 1032 bytes"),
        (base64.b64encode(bytes(1021)).decode(), "rho holds 1021 bytes"),
        ([1.0] * 128, "old text format"),
    ])
    def test_refused_rho_exits_1(self, tmp_path, capsys, rho, named):
        # non-base64 characters, one value short or long, a byte count that
        # is not a multiple of 8, and the old list of decimals
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 1, "grid": {"n_theta": 128}, "rho": rho}))
        assert main(["verify", "--surface", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "cannot read surface" in err and named in err

    @pytest.mark.parametrize("argv, n, grid, mode, checks", [
        (["--grid", "32x64"], 2, (32, 64), (2, 0),
         ["minkowski-classical", "minkowski-shifted", "hk-brendle", "hk-shifted",
          "alexandrov"]),
        (["--n", "1", "--grid", "128", "--mode", "2"], 1, (128,), 2, None),
    ])
    def test_report_through_the_file_is_lossless(self, tmp_path, argv, n, grid,
                                                 mode, checks):
        # gen -> file -> verify reports exactly what the in-memory surface
        # does, config_hash included
        surf, report = tmp_path / "s.json", tmp_path / "r.json"
        assert main(["gen", "--shape", "perturbed", "--amp", "0.05", *argv,
                     "--out", str(surf)]) == 0
        extra = ["--checks", ",".join(checks)] if checks else []
        assert main(["verify", "--surface", str(surf), "--report", str(report),
                     *extra]) == 0
        graph = gen_perturbed_sphere(1.0, 0.05, mode, n=n, grid=grid)
        want = json.loads(json.dumps(run_verification(graph, checks=checks).to_dict()))
        got = json.loads(report.read_text())
        want["provenance"].pop("timestamp")
        got["provenance"].pop("timestamp")
        assert got == want

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
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--tol", "-1"],
        ["--k", "0"],
        ["--k", "3"],
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

    @pytest.mark.parametrize("eps", ["1e308", "8.8e306"])
    def test_overflowing_shift_exits_3(self, tmp_path, capsys, eps):
        # a finite shift so large that an integrand (1e308) or a partial sum
        # of one (8.8e306, at k = 2) leaves the float range is refused by the
        # verdict rule rather than judged
        surf = tmp_path / "s.json"
        save_surface(gen_sphere(1.0, grid=(16, 32)), surf)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["verify", "--surface", str(surf), "--checks", "minkowski-shifted",
                       "--eps", eps, "--k", "2"])
        assert rc == 3
        assert "is not finite" in capsys.readouterr().err

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
        # strict JSON: nothing collides, so cut_estimate is null, not Infinity
        s = json.loads(summary.read_text(), parse_constant=pytest.fail)
        assert s["pass"] is True and s["round_surface"] is True
        assert s["cut_estimate"] is None and s["cut_pair"] is None
        # the summary names what ran, with no timestamp
        assert set(s["provenance"]) == {"config_hash", "hkverify_version", "numpy_version",
                                        "scipy_version"}
        assert re.fullmatch("[0-9a-f]{64}", s["provenance"]["config_hash"])
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

    def test_low_fitted_order_exits_5(self, monkeypatch, capsys):
        # residuals that shrink, but slower than h^1.7: no level grows, so
        # the only anomaly is the order gate's, and the table is still written
        series = {16: (0.1, {"minkowski-classical": 1e-3}),
                  24: (0.07, {"minkowski-classical": 8e-4}),
                  32: (0.05, {"minkowski-classical": 7e-4})}
        monkeypatch.setattr(cli, "_convergence_residuals",
                            lambda args, names, checks, eps, n_phi: series[n_phi])
        rc = main(["convergence", "--levels", "16,24,32", "--checks", "minkowski-classical"])
        captured = capsys.readouterr()
        assert rc == 5
        assert captured.out == "minkowski-classical: fitted order 0.516\n"
        assert captured.err == "anomaly: minkowski-classical fitted order 0.516 < 1.7\n"

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

    @pytest.mark.parametrize("checks, cause", [
        ("minkowski-classical,hk-brendle", "'hk-brendle' has no convergence series"),
        ("umbilic-spread,", "'' has no convergence series"),
        ("minkowski-classical,minkowski-classical", "is requested twice"),
        ("umbilic-spread,gauss-bonnet,umbilic-spread", "is requested twice"),
    ])
    def test_series_refused_before_any_level(self, monkeypatch, capsys, checks, cause):
        # an unknown or repeated series name is a usage error found before
        # the first level is generated, not after
        def never(*_):
            raise AssertionError("a level was generated")

        monkeypatch.setattr(cli, "_generate", never)
        assert main(["convergence", "--n", "1", "--levels", "32,64,128",
                     "--checks", checks]) == 64
        assert cause in capsys.readouterr().err


    @pytest.mark.parametrize("argv, code, cause", [
        (["--n", "2", "--checks", "gauss-bonnet"], 3, "gauss-bonnet applies to curves only"),
        (["--n", "1", "--checks", "minkowski-shifted", "--eps", ""], 64,
         "would add no result"),
        (["--n", "1", "--checks", "umbilic-spread,minkowski-shifted", "--eps", "1,nan"], 64,
         "eps must be finite"),
    ])
    def test_request_refused_before_any_level(self, monkeypatch, capsys, argv, code, cause):
        # what run_verification would refuse at every level is refused
        # before the first one is generated
        def never(*_):
            raise AssertionError("a level was generated")

        monkeypatch.setattr(cli, "_generate", never)
        assert main(["convergence", *argv, "--levels", "16,32,64"]) == code
        assert cause in capsys.readouterr().err


class TestNegativeValues:
    """A negative value in any float spelling reaches the library's rule
    instead of being read as an unknown flag (exit 64)."""

    @pytest.mark.parametrize("argv, amp", [
        (["--amp", "-1e-3"], -1e-3),
        (["--amp", "-0.001"], -1e-3),
        (["--amp=-1e-3"], -1e-3),
        (["--amp", "-1E-3"], -1e-3),
        (["--amp", "-.001"], -1e-3),
    ])
    def test_negative_amplitude_generates(self, tmp_path, argv, amp):
        out, want = tmp_path / "s.json", tmp_path / "want.json"
        assert main(["gen", "--shape", "perturbed", *argv, "--grid", "16x32",
                     "--out", str(out)]) == 0
        save_surface(gen_perturbed_sphere(1.0, amp, (2, 0), grid=(16, 32)), want)
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("argv, cause", [
        (["--shape", "perturbed", "--amp", "-inf"], "amplitude must be finite, got -inf"),
        (["--shape", "perturbed", "--amp", "-Infinity"], "amplitude must be finite, got -inf"),
        (["--shape", "perturbed", "--radius", "-inf"], "radius must be positive and finite"),
        (["--shape", "sphere", "--radius", "-inf"], "radius must be positive and finite"),
        (["--shape", "sphere", "--radius", "-1e0"], "radius must be positive and finite"),
        (["--shape", "sphere", "--offset", "-1e-1"], "0 <= offset < radius"),
    ])
    def test_refused_negative_values_exit_2(self, tmp_path, capsys, argv, cause):
        out = tmp_path / "x.json"
        assert main(["gen", *argv, "--grid", "16x32", "--out", str(out)]) == 2
        assert cause in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture()
    def sphere(self, tmp_path):
        surf = tmp_path / "s.json"
        save_surface(gen_sphere(1.0, grid=(16, 32)), surf)
        return str(surf)

    def test_verify_negative_shift(self, sphere, capsys):
        assert main(["verify", "--surface", sphere, "--checks", "minkowski-shifted",
                     "--eps", "-0.5,1", "--k", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == [
            "minkowski-shifted[eps=-0.5,k=1]", "minkowski-shifted[eps=1,k=1]"]

    @pytest.mark.parametrize("tol", ["-1e-3", "-0.001", "-inf"])
    def test_verify_negative_tolerance_exits_64(self, sphere, capsys, tol):
        assert main(["verify", "--surface", sphere, "--tol", tol]) == 64
        assert "tol must be 'auto' or a finite number >= 0" in capsys.readouterr().err

    def test_convergence_negative_shift(self, tmp_path):
        table = tmp_path / "orders.csv"
        assert main(["convergence", "--n", "1", "--levels", "32,64,128",
                     "--checks", "minkowski-shifted", "--eps", "-0.5,1",
                     "--out", str(table)]) == 0
        names = [line.rsplit(",", 5)[0] for line in table.read_text().splitlines()[1:]]
        assert names == ["minkowski-shifted[eps=-0.5,k=1]"] * 3 + ["minkowski-shifted[eps=1,k=1]"] * 3

    def test_flags_stay_flags(self):
        # the pattern takes numbers only: -h is still help
        assert main(["gen", "-h"]) == 0
        assert main(["gen", "--out", "x.json", "-x"]) == 64


class TestBuildCount:
    """Each CLI command builds each surface's geometry once.

    Every build runs the cores, which look `_fundamental_forms` up in the
    module when called, so counting its calls counts builds whatever the
    caller imported."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        forms = hypersurface._fundamental_forms

        def counted(graph):
            calls.append(graph.rho.shape)
            return forms(graph)

        monkeypatch.setattr(hypersurface, "_fundamental_forms", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["--shape", "perturbed", "--amp", "0.05", "--mode", "2,0", "--grid", "32x64"],
        ["--shape", "perturbed", "--amp", "0.05", "--mode", "2", "--n", "1", "--grid", "128"],
        ["--shape", "sphere", "--offset", "0.3", "--grid", "32x64"],
    ])
    def test_gen_builds_once(self, tmp_path, builds, argv):
        assert main(["gen", *argv, "--out", str(tmp_path / "s.json")]) == 0
        assert len(builds) == 1

    def test_verify_builds_once(self, tmp_path, builds):
        surf = tmp_path / "s.json"
        save_surface(gen_sphere(1.0, center_offset=0.3, grid=(16, 32)), surf)
        assert main(["verify", "--surface", str(surf), "--checks",
                     "minkowski-classical,minkowski-shifted,hk-brendle,hk-shifted,"
                     "alexandrov"]) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("argv", [
        ["--shape", "perturbed", "--amp", "0.05", "--mode", "2,0",
         "--checks", "minkowski-classical,umbilic-spread,minkowski-shifted"],
        ["--shape", "perturbed", "--amp", "0.05", "--mode", "2", "--n", "1",
         "--checks", "gauss-bonnet,minkowski-classical,minkowski-shifted"],
    ])
    def test_convergence_builds_once_per_level(self, builds, argv):
        main(["convergence", *argv, "--levels", "16,32,64"])
        assert len(builds) == 3 and len(set(builds)) == 3


class TestUsage:
    def test_help_exits_0(self):
        assert main(["--help"]) == 0
        assert main(["gen", "--help"]) == 0

    def test_no_command_exits_64(self):
        assert main([]) == 64

    def test_usage_error_text(self, monkeypatch, capsys):
        # argparse's own usage and message on stderr, nothing on stdout; the
        # width is fixed because argparse wraps the usage to the terminal
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["flow", "--trace", "t.csv"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("usage: hkverify flow [-h] --surface SURFACE [--trace TRACE]\n"
                       "                     [--summary SUMMARY]\n"
                       "hkverify flow: error: the following arguments are required: "
                       "--surface\n")

    def test_unknown_flag_exits_64(self, tmp_path):
        assert main(["gen", "--nope", "--out", "x.json"]) == 64
        # the Alexandrov chain's order is fixed at k = 2, not a flag
        assert main(["verify", "--surface", str(tmp_path / "s.json"),
                     "--alexandrov-k", "2"]) == 64

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


def _exit_table(text):
    """{code: meaning} from the lines `<code> <meaning>` or `| <code> | <meaning> |`."""
    rows = re.findall(r"^[ |]*(\d+)\s*\|?\s+(\S.*?)[ |]*$", text, flags=re.M)
    return {int(code): meaning for code, meaning in rows}


def test_exit_code_tables_agree():
    # README's table, the module docstring (which --help prints) and the
    # EXIT_* constants state one contract, code for code
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Exit codes are a stable contract:\n", 1)[1].split("\n## ", 1)[0]
    documented = _exit_table(section)
    docstring = cli.__doc__.split("Exit codes are a stable contract:\n", 1)[1]
    assert _exit_table(docstring) == documented
    constants = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert sorted(constants.values()) == sorted(documented)
    # each constant's name and its documented meaning say the same thing
    said = {"EXIT_OK": "passed", "EXIT_IO": "input/output", "EXIT_GENERATION": "generation",
            "EXIT_PRECONDITION": "precondition", "EXIT_FLOW": "flow",
            "EXIT_CONVERGENCE": "convergence", "EXIT_CHECK_FAILED": "check ran and failed",
            "EXIT_USAGE": "usage"}
    assert set(said) == set(constants)
    for name, value in constants.items():
        assert said[name] in documented[value], (name, documented[value])


def _package_errors(cls=errors.HkError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _package_errors(sub)


@pytest.mark.parametrize("error", sorted(set(_package_errors()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_package_error_has_an_exit_code(monkeypatch, capsys, error):
    # a package failure that main() does not map would end in a traceback
    def failing(args):
        raise error("raised on purpose")

    monkeypatch.setattr(cli, "cmd_gen", failing)
    documented = _exit_table(cli.__doc__.split("Exit codes are a stable contract:\n", 1)[1])
    rc = main(["gen", "--out", "unused.json"])
    assert rc in documented and rc not in (cli.EXIT_OK, cli.EXIT_USAGE)
    assert "raised on purpose" in capsys.readouterr().err
