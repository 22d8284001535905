"""Integral identity and inequality checks on discrete hypersurfaces.

Every check returns a CheckResult carrying both sides, the residual, and
the tolerance it was judged against; every check reaches its verdict
through one rule, `_judge` (see CheckResult).  "auto" tolerances come
from the shipped calibration table as tol = C * h^2 relative to the
integral scale, where h is the colatitude (n = 2) or azimuth (n = 1) step.

The verified statements, for a closed hypersurface with principal
curvatures kappa_i, shifted curvatures kappa_i - 1, potential V and
support function V_nu, all taken about the geometry's base point
`geom.base` (a check reads nothing but the geometry):

* For every real eps and 1 <= k <= n,
      int (V - eps V_nu) E_{k-1}(kappa - eps) = int V_nu E_k(kappa - eps).
  E_m(kappa - eps) is a polynomial in eps over the E_j(kappa - 1), so the
  whole eps/k sweep is assembled from 2(n+1) moments (`_moments`).
* int V_nu = (n + 1) * int_enclosed V  (the k = 1, eps = 0 case, with the
  volume side integrated radially).  About the graph's center the
  discrete identity is exact to rounding; about any other base point it
  holds to O(h^2).
* If H > n eps:  int (V - eps V_nu) / (H - n eps) >= (n+1)/n * int_enclosed V,
  computed by one kernel (`_hk`) at two shifts: eps = 0 is Brendle's
  inequality int V / H >= ... for H > 0 (`hk_brendle`), eps = 1 the
  shifted inequality int (V - V_nu) / (H - n) >= ... for H > n
  (`hk_shifted`), with equality exactly on geodesic spheres.
* Chained diagnostics at order k = 2 on surfaces, when the shifted
  curvatures lie in the order-2 Garding cone: a ratio comparison against
  int V_nu, the pointwise Newton-MacLaurin slack integral, and an
  umbilicity spread report.
* For curves (n = 1): int kappa ds - enclosed area = 2 pi.
"""

from __future__ import annotations

import datetime as _dt
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import scipy

from . import __version__, hypgeo
from ._util import _as_int, _as_real, atomic_write_text, exact_sum, fsum
from .errors import PreconditionError
from .hypersurface import (
    H_MARGIN,
    RadialGraph,
    SurfaceGeometry,
    _rho_bytes,
    area_integral,
    build_geometry,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "tolerance_table",
    "resolve_tolerance",
    "minkowski_shifted",
    "minkowski_classical",
    "hk_brendle",
    "hk_shifted",
    "alexandrov_diagnostic",
    "gauss_bonnet",
    "run_verification",
    "DEFAULT_EPS_SWEEP",
]

DEFAULT_EPS_SWEEP = (0.0, 0.5, 1.0)


@dataclass
class CheckResult:
    """Outcome of one check: an identity, an inequality, or a report.

    residual is lhs - rhs.  Identities pass when |residual| <= tolerance,
    inequalities when residual >= -tolerance, reports always pass.
    """

    name: str
    lhs: float
    rhs: float
    residual: float
    rel_residual: float
    tolerance: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "rel_residual": self.rel_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "metadata": self.metadata,
        }

    def __repr__(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.3e})"


@functools.cache
def tolerance_table() -> dict:
    """Calibration table for auto tolerances, shipped with the package."""
    with resources.files("hkverify.data").joinpath("tolerances.json").open() as fh:
        return json.load(fh)


def _tolerance(tol):
    """tol if "auto", else the float of a real (`_as_real`) that is finite and
    >= 0; anything else is ValueError.  A str is compared with "auto" and
    nothing else is (an array would compare element by element)."""
    if isinstance(tol, str) and tol == "auto":
        return tol
    try:
        value = _as_real(tol, "tol")
    except ValueError:
        value = math.nan  # refused below, with this rule's message
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"tol must be 'auto' or a finite number >= 0, got {tol!r}")
    return value


def resolve_tolerance(check: str, geom: SurfaceGeometry, scale: float, tol) -> float:
    """Absolute tolerance for a check: an explicit number, or "auto" for C * h^2 * scale."""
    tol = _tolerance(tol)
    if tol != "auto":
        return tol
    table = tolerance_table()
    coeff = table["checks"].get(check)
    if coeff is None:
        raise KeyError(f"no calibrated tolerance for check {check!r}")
    h = geom.resolution
    return scale * max(coeff * h * h, table["floor_rel"])


def _table_key(name: str) -> str:
    """The tolerance table entry of a row, which is also its series: the
    row's name up to any bracketed parameters."""
    return name.partition("[")[0]


def _judge(kind: str, name: str, geom: SurfaceGeometry, lhs: float, rhs: float,
           tol, meta: dict, scale: float | None = None) -> CheckResult:
    """The verdict rule every check shares.

    The residual lhs - rhs (PreconditionError if an overflow at a huge shift
    leaves it not finite) is made relative to max(|lhs|, |rhs|, 1e-300), the
    tolerance scale unless `scale` is given, which is floored at 1e-300
    too; `_table_key(name)` names the tolerance table entry.  `kind` is
    "identity", "inequality" or "report", and heads the metadata, then
    `within_tol` (|residual| <= tolerance) for an inequality, then n and
    grid, then the check's `meta`.
    """
    residual = lhs - rhs
    if not math.isfinite(residual):
        raise PreconditionError(f"residual of lhs {lhs:.6g} and rhs {rhs:.6g} is not finite",
                                check=name)
    size = max(abs(lhs), abs(rhs), 1e-300)
    tol_abs = resolve_tolerance(_table_key(name), geom,
                                size if scale is None else max(scale, 1e-300), tol)
    within = abs(residual) <= tol_abs
    head = {"kind": kind, "within_tol": bool(within)} if kind == "inequality" else {"kind": kind}
    passed = {"identity": within, "inequality": residual >= -tol_abs, "report": True}[kind]
    return CheckResult(name, lhs, rhs, residual, residual / size, tol_abs, passed,
                       {**head, "n": geom.n, "grid": list(geom.grid), **meta})


def _moments(geom: SurfaceGeometry) -> tuple:
    """(M, N): M_j = int V E_j(kappa - 1) and N_j = int V_nu E_j(kappa - 1), j = 0..n.

    The geometry's E_j (`SurfaceGeometry.shifted_e`) and 2(n+1) exact sums,
    one of them its kept N_0 = int V_nu, fix every minkowski-shifted row
    (`_shifted_row`); E_0 = 1 needs no kernel call.  The moments are of the
    shifted curvatures kappa - 1 rather than of kappa, so at the paper's
    shift eps = 1 no two moments cancel: about kappa, the eps = 1, k = 2
    row of a radius-2 sphere lost 1.3e-13 of its scale that way.
    """
    M, N = [area_integral(geom, geom.V)], [geom.support_integral]
    for e_j in geom.shifted_e:
        M.append(area_integral(geom, geom.V * e_j))
        N.append(area_integral(geom, geom.V_nu * e_j))
    return M, N


def _shifted_row(geom: SurfaceGeometry, moments: tuple, eps: float, k: int,
                 tol) -> CheckResult:
    """The minkowski-shifted row at (eps, k), assembled from `_moments`.

    With d = 1 - eps, E_m(kappa - eps) = sum_j C(m, j) d^(m-j) E_j(kappa - 1), so

        lhs = sum_{j<k}  C(k-1, j) d^(k-1-j) (M_j - eps N_j),
        rhs = sum_{j<=k} C(k, j)   d^(k-j) N_j,

    each side rounded once by `fsum` over its terms.  The powers of d are
    repeated products, which overflow to inf where `**` would raise; a side
    past the float range comes out inf or NaN, and the verdict rule refuses
    the row.
    """
    M, N = moments
    power = [1.0]
    for _ in range(k):
        power.append(power[-1] * (1.0 - eps))
    lhs = fsum([term for j in range(k) for term in (
        math.comb(k - 1, j) * power[k - 1 - j] * M[j],
        -eps * math.comb(k - 1, j) * power[k - 1 - j] * N[j])])
    rhs = fsum([math.comb(k, j) * power[k - j] * N[j] for j in range(k + 1)])
    return _judge("identity", f"minkowski-shifted[eps={eps:g},k={k}]", geom, lhs, rhs, tol,
                  {"eps": eps, "k": k})


def _as_list(value, name: str) -> list:
    """The entries of a list-like `value`, as a list; a str, a scalar or None
    is ValueError naming `name` (a string would be read char by char)."""
    if isinstance(value, (str, bytes)) or not np.iterable(value):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return list(value)


_DIMENSION = {"alexandrov": (2, "surfaces"), "gauss-bonnet": (1, "curves")}


def _check_dimension(check: str, n: int) -> None:
    """PreconditionError if `check` applies at one dimension only and n is not it."""
    if check in _DIMENSION and n != _DIMENSION[check][0]:
        raise PreconditionError(f"{check} applies to {_DIMENSION[check][1]} only", check=check)


def _once(items) -> None:
    """ValueError if an entry of `items` (checks, eps :g names, orders or series) repeats."""
    if len(set(items)) != len(items):
        raise ValueError(f"an entry of {list(items)} is requested twice")


def _shifts_and_orders(n: int, eps_sweep, k_list, shifted: bool) -> tuple:
    """(eps_sweep, k_list) as lists of finite floats and of ints in 1..n
    (k_list None is 1..n), neither repeating (`_once`; an eps counts by its
    :g name, as its row does) nor, if `shifted`, empty; ValueError otherwise."""
    entries = _as_list(eps_sweep, "eps_sweep")
    k_list = list(range(1, n + 1)) if k_list is None else [
        _as_int(k, f"order k in 1..{n}") for k in _as_list(k_list, "k_list")]
    if not all(1 <= k <= n for k in k_list):
        raise ValueError(f"order k must lie in 1..{n}, got {k_list}")
    if shifted and not (entries and k_list):
        raise ValueError("check 'minkowski-shifted' would add no result: its eps or k list "
                         "is empty")
    try:
        eps_sweep = [_as_real(e, "eps") for e in entries]
    except ValueError:
        eps_sweep = None
    if eps_sweep is None or not all(map(math.isfinite, eps_sweep)):
        raise ValueError(f"eps must be finite numbers, got {entries}")
    _once([f"{e:g}" for e in eps_sweep])
    _once(k_list)
    return eps_sweep, k_list


def minkowski_shifted(geom: SurfaceGeometry, eps_sweep=DEFAULT_EPS_SWEEP, k_list=None,
                      tol="auto") -> list[CheckResult]:
    """The shifted Minkowski identities: one row per order k (default 1..n)
    and shift eps, k-major, all from one set of moments, once the lists and
    tol pass `_shifts_and_orders` and `_tolerance`.  Each row, its eps a
    float, agrees with the integrals of its shifted integrands within 1e-13
    of max(|lhs|, |rhs|) on the calibrated family.
    """
    eps_sweep, k_list = _shifts_and_orders(geom.n, eps_sweep, k_list, shifted=True)
    _tolerance(tol)
    moments = _moments(geom)
    return [_shifted_row(geom, moments, eps, k, tol) for k in k_list for eps in eps_sweep]


def minkowski_classical(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Support-function integral against (n+1) times the weighted volume."""
    _tolerance(tol)
    lhs = geom.support_integral
    rhs = (geom.n + 1) * geom.weighted_volume
    return _judge("identity", "minkowski-classical", geom, lhs, rhs, tol, {})


def _hk(geom: SurfaceGeometry, eps: float, numerator, name: str, refusal: str, tol) -> CheckResult:
    """int numerator/(H - n eps) >= (n+1)/n int V, needs H > n eps, where
    the numerator is the geometry's kept V - eps V_nu (V or support_gap).

    A node with H <= n eps + H_MARGIN is refused with the message
    "mean curvature <H> <refusal>".
    """
    _tolerance(tol)
    H = geom.mean_curvature
    worst = int(np.argmin(H))
    if H[worst] <= geom.n * eps + H_MARGIN:
        raise PreconditionError(f"mean curvature {H[worst]:.6g} {refusal}",
                                check=name, node=worst)
    lhs = area_integral(geom, numerator / (H - geom.n * eps))
    rhs = (geom.n + 1) / geom.n * geom.weighted_volume
    return _judge("inequality", name, geom, lhs, rhs, tol, {"H_min": float(H[worst])})


def hk_brendle(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Heintze-Karcher inequality int V/H >= (n+1)/n int V, needs H > 0."""
    return _hk(geom, 0.0, geom.V, "hk-brendle", "is not positive", tol)


def hk_shifted(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Shifted inequality int (V - V_nu)/(H - n) >= (n+1)/n int V, needs H > n."""
    return _hk(geom, 1.0, geom.support_gap, "hk-shifted", f"is not above n = {geom.n}", tol)


def alexandrov_diagnostic(geom: SurfaceGeometry, tol="auto") -> list[CheckResult]:
    """Three chained diagnostics behind umbilicity rigidity at order k = 2.

    (a) the curvature-ratio integral against int V_nu: an identity when
        E_2 of the shifted curvatures is constant across the surface
        (spheres), an inequality otherwise;
    (b) the Newton-MacLaurin slack integral, non-negative in the cone;
    (c) an umbilicity spread report (max - min of all principal
        curvatures), informational.
    """
    _check_dimension("alexandrov", geom.n)
    _tolerance(tol)
    e1, e2 = geom.shifted_e
    for i, sig in ((1, 2 * e1), (2, e2)):
        worst = int(np.argmin(sig))
        if sig[worst] <= 0.0:
            raise PreconditionError(f"shifted curvatures leave the order-2 cone, sigma_{i} = "
                                    f"{sig[worst]:.6g}", check="alexandrov", node=worst)

    e2_mean = exact_sum(e2) / e2.size
    e2_spread = float(np.max(e2) - np.min(e2))
    e2_constant = e2_spread <= resolve_tolerance("ek-constancy", geom,
                                                 max(abs(e2_mean), 1e-300), "auto")

    lhs_ratio = area_integral(geom, geom.support_gap * e1 / e2)
    rhs_ratio = geom.support_integral
    ratio = _judge("identity" if e2_constant else "inequality", "alexandrov-ratio[k=2]",
                   geom, lhs_ratio, rhs_ratio, tol,
                   {"k": 2, "ek_constant": e2_constant, "ek_spread": e2_spread,
                    "ek_mean": e2_mean})

    lhs_slack = area_integral(geom, geom.support_gap * (e1 / e2 - 1.0 / e1))
    slack = _judge("inequality", "alexandrov-nm-slack[k=2]", geom, lhs_slack, 0.0, tol,
                   {"k": 2}, scale=max(abs(lhs_slack), abs(lhs_ratio), abs(rhs_ratio)))

    spread = geom.umbilicity_spread
    umb = _judge("report", "alexandrov-umbilic[k=2]", geom, spread, 0.0, tol, {"k": 2},
                 scale=float(np.max(np.abs(geom.kappa))))
    umb.metadata["umbilic_within_tol"] = bool(spread <= umb.tolerance)
    return [ratio, slack, umb]


def gauss_bonnet(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Curve check: total geodesic curvature minus enclosed area is 2 pi."""
    _check_dimension("gauss-bonnet", geom.n)
    _tolerance(tol)
    lhs = area_integral(geom, geom.kappa[:, 0]) - geom.enclosed_volume
    rhs = 2.0 * np.pi
    return _judge("identity", "gauss-bonnet", geom, lhs, rhs, tol, {}, scale=rhs)


@dataclass
class VerificationReport:
    """A batch of check results for one surface, JSON-serializable."""

    surface: dict
    provenance: dict
    results: list

    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "surface": self.surface,
            "provenance": self.provenance,
            "checks": [r.to_dict() for r in self.results],
        }

    def save(self, path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")


def _config_hash(config: dict, rho: np.ndarray) -> str:
    """sha256 of the canonical JSON config, then of rho as float64 bytes.

    The profile's shape is in the config; its values are hashed as the
    same little-endian bytes a surface file stores.
    """
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode())
    digest.update(_rho_bytes(rho))
    return digest.hexdigest()


def _surface_record(graph: RadialGraph) -> dict:
    """The surface a report or flow summary names, and hashes with its config."""
    return {"n": graph.n, "grid": list(graph.rho.shape), "meta": graph.meta}


def _software() -> dict:
    """The versions a report or flow summary names in its provenance."""
    return {"hkverify_version": __version__, "numpy_version": np.__version__,
            "scipy_version": scipy.__version__}


def _check_request(n: int, checks, eps_sweep, k_list, tol) -> tuple:
    """(checks, eps_sweep, k_list, tol) as read, defaults filled in, of a request
    that passes every rule needing only n: no checks or an unknown one is ValueError,
    then `_check_dimension`, `_once`, `_shifts_and_orders` and `_tolerance`."""
    default = ["minkowski-classical", "minkowski-shifted", "hk-brendle", "hk-shifted"]
    if checks is None:
        checks = default + (["gauss-bonnet"] if n == 1 else [])
    checks = _as_list(checks, "checks")
    if len(checks) == 0:
        raise ValueError("no checks requested")
    for check in checks:
        if check not in default and check not in _DIMENSION:
            raise ValueError(f"unknown check {check!r}")
        _check_dimension(check, n)
    _once(checks)
    eps_sweep, k_list = _shifts_and_orders(n, eps_sweep, k_list, "minkowski-shifted" in checks)
    return checks, eps_sweep, k_list, _tolerance(tol)


def run_verification(graph: RadialGraph, checks=None, eps_sweep=DEFAULT_EPS_SWEEP,
                     k_list=None, tol="auto",
                     geom: SurfaceGeometry | None = None) -> VerificationReport:
    """Run a named set of checks on a surface and collect a report.

    checks defaults to the identities and inequalities that apply at the
    surface's dimension; the Alexandrov diagnostics (k = 2) run only when
    asked for, as their constancy verdict describes the shape.  The request
    is refused by `_check_request` before any geometry is built; then each
    check runs through its public function, and the report is made whole
    from their rows.  `geom` defaults to the centered geometry of `graph`;
    one built from another graph (another dimension or other rho bits) is
    refused with ValueError, and an off-centre one's base is hashed.
    """
    checks, eps_sweep, k_list, tol = _check_request(graph.n, checks, eps_sweep, k_list, tol)
    if geom is None:
        geom = build_geometry(graph)
    elif geom.graph is not graph and (
            geom.n != graph.n or not np.array_equal(geom.graph.rho, graph.rho)):
        raise ValueError("the geometry was not built from this graph")

    surface = _surface_record(graph)
    config = {
        "checks": list(checks),
        "eps_sweep": eps_sweep,
        "k_list": k_list,
        # the chain's order is fixed at 2; the key stays so every config_hash is unchanged
        "alexandrov_k": [2] if graph.n == 2 else [],
        "tol": tol,
        "surface": surface,
    }
    if not np.array_equal(geom.base, hypgeo.origin(graph.n)):
        config["base"] = geom.base.tolist()
    provenance = {
        "config_hash": _config_hash(config, graph.rho),
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "tolerance_table_version": tolerance_table()["version"],
        **_software(),
    }
    single = {"minkowski-classical": minkowski_classical, "hk-brendle": hk_brendle,
              "hk-shifted": hk_shifted, "gauss-bonnet": gauss_bonnet}
    results = []
    for check in checks:
        if check in single:
            results.append(single[check](geom, tol))
        elif check == "minkowski-shifted":
            results += minkowski_shifted(geom, eps_sweep, k_list, tol)
        else:
            results += alexandrov_diagnostic(geom, tol)
    return VerificationReport(surface, provenance, results)
