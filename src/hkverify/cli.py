"""Command line front end: shape generation, verification, flow, convergence.

Exit codes are a stable contract:

    0   all requested checks passed
    1   input/output failure (missing or malformed files)
    2   shape generation failure
    3   verification precondition failed (H bound, cone membership)
    4   flow assumption failed (window collapse, H dropping to n)
    5   convergence anomaly (growing residuals or fitted order < 1.7)
    6   a requested check ran and failed
    64  command line usage error
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import identities
from ._util import atomic_write_text
from .errors import (
    DegenerateSurfaceError,
    FlowAssumptionError,
    FocalTimeError,
    GenerationError,
    PreconditionError,
    RejectedShapeError,
)
from .hypersurface import (
    build_geometry,
    gen_perturbed_sphere,
    gen_sphere,
    load_surface,
    save_surface,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_GENERATION = 2
EXIT_PRECONDITION = 3
EXIT_FLOW = 4
EXIT_CONVERGENCE = 5
EXIT_CHECK_FAILED = 6
EXIT_USAGE = 64

ORDER_GATE = 1.7
# The rounding level of a convergence residual: a series may grow to it or
# end on it at a low fitted order without an anomaly.
ROUNDING_PLATEAU = 1e-13
_EPS_DEFAULT = ",".join(f"{e:g}" for e in identities.DEFAULT_EPS_SWEEP)


class _Parser(argparse.ArgumentParser):
    """argparse with every negative number taken as a value.  Its usage
    errors exit 2, which means generation failure here; `main` maps them
    to 64."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse internal: an argument that starts with "-" is read as a
        # value only when this pattern matches it.  Python 3.11's pattern
        # (-1, -.5) leaves `--amp -1e-3`, `--radius -inf` and `--eps -0.5,1`
        # to fail as unknown flags; no option here is spelt like a number
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _parse_floats(text: str):
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_ints(text: str, sep: str):
    """The integers of `text` split on `sep`; their count and range are the library's rule."""
    try:
        return [int(p) for p in text.lower().split(sep) if p.strip()]
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as integers separated by {sep!r}") from None


def _shape_arguments(sub):
    sub.add_argument("--shape", choices=("sphere", "perturbed"), default="sphere")
    sub.add_argument("--radius", type=float, default=1.0)
    sub.add_argument("--offset", type=float, default=0.0,
                     help="distance of the sphere's center from the origin, "
                          "for shape=sphere")
    sub.add_argument("--amp", type=float, default=0.05,
                     help="perturbation amplitude for shape=perturbed")
    sub.add_argument("--mode", default="2,0",
                     help="perturbation mode: l,m for n=2, wavenumber for n=1")
    sub.add_argument("--n", type=int, choices=(1, 2), default=2)


def _generate(args, grid):
    """The requested surface's centred geometry, built once: a perturbed
    surface's takes the fields its generator validated H on."""
    if args.shape == "sphere":
        graph = gen_sphere(args.radius, center_offset=args.offset, n=args.n, grid=grid)
    else:
        graph = gen_perturbed_sphere(args.radius, args.amp, _parse_ints(args.mode, ","),
                                     n=args.n, grid=grid)
    return build_geometry(graph)


def _load(path):
    try:
        return load_surface(path)
    except FileNotFoundError:
        raise IOError(f"surface file not found: {path}")
    except ValueError as exc:  # json.JSONDecodeError included
        raise IOError(f"cannot read surface {path}: {exc}")


def cmd_gen(args) -> int:
    geom = _generate(args, _parse_ints(args.grid, "x"))
    save_surface(geom.graph, args.out)
    kappa = geom.kappa
    H = geom.mean_curvature
    print(f"wrote {args.out}")
    print(f"kappa range: [{np.min(kappa):.9g}, {np.max(kappa):.9g}]")
    print(f"min H - n: {np.min(H) - geom.n:.9g}")
    print(f"umbilicity spread: {geom.umbilicity_spread:.9g}")
    return EXIT_OK


def _print_results(results) -> None:
    width = max(len(r.name) for r in results)
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag}  {r.name:<{width}}  lhs={r.lhs: .10e}  rhs={r.rhs: .10e}  "
              f"rel={r.rel_residual: .3e}  tol={r.tolerance:.3e}")


def cmd_verify(args) -> int:
    graph = _load(args.surface)
    checks = None if args.checks == "auto" else [c.strip() for c in args.checks.split(",")]
    tol = "auto" if args.tol == "auto" else float(args.tol)
    k_list = None if args.k == "auto" else _parse_ints(args.k, ",")
    report = identities.run_verification(graph, checks=checks, eps_sweep=_parse_floats(args.eps),
                                         k_list=k_list, tol=tol)
    _print_results(report.results)
    if args.report:
        report.save(args.report)
        print(f"wrote {args.report}")
    if not report.all_passed():
        failed = [r.name for r in report.results if not r.passed]
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_flow(args) -> int:
    # the flow is the only command that needs scipy.spatial's KD-trees
    from . import normalflow

    graph = _load(args.surface)
    trace = normalflow.verify_flow(graph)
    if args.trace:
        trace.to_csv(args.trace)
        print(f"wrote {args.trace}")
    summary = trace.summary()
    for key, value in summary.items():
        print(f"{key}: {value}")
    if args.summary:
        # strict JSON: a non-finite value (cut_estimate = inf when nothing
        # collides) is written as null
        strict = {key: None if isinstance(value, float) and not math.isfinite(value)
                  else value for key, value in summary.items()}
        atomic_write_text(args.summary, json.dumps(strict, indent=2, allow_nan=False) + "\n")
    if not trace.passed():
        print("FAILED: flow monotonicity or level-set check", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_SERIES = ("minkowski-classical", "minkowski-shifted", "gauss-bonnet", "umbilic-spread")


def _convergence_residuals(args, names, checks, eps_sweep, n_phi: int):
    """Relative residuals of the requested series at one refinement level,
    in request order, from one geometry and at most one report of `checks`."""
    grid = (n_phi, 2 * n_phi) if args.n == 2 else (n_phi,)
    geom = _generate(args, grid)
    results = identities.run_verification(geom.graph, checks, eps_sweep,
                                          geom=geom).results if checks else []
    out = {}
    for name in names:
        if name == "umbilic-spread":
            out[name] = geom.umbilicity_spread / float(np.max(np.abs(geom.kappa)))
        else:
            # a minkowski-shifted row is named minkowski-shifted[eps=...,k=...]
            out.update((r.name, abs(r.rel_residual)) for r in results
                       if identities._table_key(r.name) == name)
    return geom.resolution, out


def cmd_convergence(args) -> int:
    levels = _parse_ints(args.levels, ",")
    if len(levels) < 3:
        raise ValueError("convergence needs at least 3 refinement levels")
    if sorted(levels) != levels or len(set(levels)) != len(levels):
        raise ValueError("levels must be strictly increasing")
    # the series and their report's request are refused before any level
    names = [c.strip() for c in args.checks.split(",")]
    for name in names:
        if name not in _SERIES:
            raise ValueError(f"check {name!r} has no convergence series")
    identities._once(names)
    eps_sweep = _parse_floats(args.eps)
    checks = [name for name in names if name != "umbilic-spread"]
    if checks:
        identities._check_request(args.n, checks, eps_sweep, None, "auto")

    hs = []
    series: dict[str, list[float]] = {}
    for n_phi in levels:
        h, residuals = _convergence_residuals(args, names, checks, eps_sweep, n_phi)
        hs.append(h)
        for name, value in residuals.items():
            series.setdefault(name, []).append(value)

    log_h = np.log(np.asarray(hs))
    anomalies = []
    fitted: dict[str, float] = {}
    lines = ["check,n_phi,h,rel_residual,pairwise_order,fitted_order"]
    for name, values in series.items():
        vals = np.asarray(values)
        floored = np.maximum(vals, 1e-15)
        slope, _ = np.polyfit(log_h, np.log(floored), 1)
        fitted[name] = float(slope)
        pairwise = [float("nan")]
        for i in range(1, len(vals)):
            pairwise.append(float(np.log(floored[i - 1] / floored[i])
                                  / np.log(hs[i - 1] / hs[i])))
            # a plateau at rounding level is convergence, not an anomaly
            if vals[i] >= vals[i - 1] and vals[i] > ROUNDING_PLATEAU:
                anomalies.append(f"{name}: residual grew from level {levels[i-1]} "
                                 f"to {levels[i]}")
        for n_phi, h, resid, pair in zip(levels, hs, vals, pairwise):
            pair_s = "" if np.isnan(pair) else repr(pair)
            lines.append(f"{name},{n_phi},{h!r},{float(resid)!r},{pair_s},{fitted[name]!r}")
    if args.out:
        atomic_write_text(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")

    for name in sorted(series):
        print(f"{name}: fitted order {fitted[name]:.3f}")
    # the umbilicity spread is a shape descriptor with no order to gate, but
    # like any series it is an anomaly when it grows: non-round shapes exit 5
    anomalies += [f"{n} fitted order {fitted[n]:.3f} < {ORDER_GATE}" for n in series
                  if n != "umbilic-spread" and fitted[n] < ORDER_GATE
                  and series[n][-1] > ROUNDING_PLATEAU]
    for msg in anomalies:
        print(f"anomaly: {msg}", file=sys.stderr)
    return EXIT_CONVERGENCE if anomalies else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="hkverify", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a surface JSON file")
    _shape_arguments(gen)
    gen.add_argument("--grid", default="128x256", help="PHIxTHETA for n=2, count for n=1")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="run identity and inequality checks")
    verify.add_argument("--surface", required=True)
    verify.add_argument("--checks", default="auto",
                        help="comma list: minkowski-classical, minkowski-shifted, "
                             "hk-brendle, hk-shifted, alexandrov, gauss-bonnet")
    verify.add_argument("--eps", default=_EPS_DEFAULT, help="shift sweep for minkowski-shifted")
    verify.add_argument("--k", default="auto", help="order list for minkowski-shifted")
    verify.add_argument("--tol", default="auto", help="absolute tolerance, or auto")
    verify.add_argument("--report", default=None, help="write report JSON here")
    verify.set_defaults(func=cmd_verify)

    flow = sub.add_parser("flow", help="run the normal flow monotonicity checks")
    flow.add_argument("--surface", required=True)
    flow.add_argument("--trace", default=None, help="write trace CSV here")
    flow.add_argument("--summary", default=None, help="write summary JSON here")
    flow.set_defaults(func=cmd_flow)

    conv = sub.add_parser("convergence", help="residual convergence order study")
    _shape_arguments(conv)
    conv.add_argument("--levels", required=True,
                      help="comma list of colatitude resolutions, e.g. 64,128,256")
    conv.add_argument("--checks", default="minkowski-classical,minkowski-shifted",
                      help="comma list: minkowski-classical, minkowski-shifted, "
                           "gauss-bonnet, umbilic-spread (no order gate, but it "
                           "grows on a non-round shape, which exits 5)")
    conv.add_argument("--eps", default=_EPS_DEFAULT)
    conv.add_argument("--out", default=None, help="write order table CSV here")
    conv.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage error
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GenerationError, RejectedShapeError) as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except (PreconditionError, DegenerateSurfaceError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (FlowAssumptionError, FocalTimeError) as exc:
        print(f"flow assumption failed: {exc}", file=sys.stderr)
        return EXIT_FLOW
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
