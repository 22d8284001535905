"""Integral identity and inequality checks on discrete hypersurfaces.

Every check returns a CheckResult carrying both sides, the residual, and
the tolerance it was judged against.  "auto" tolerances come from the
shipped calibration table as tol = C * h^2 relative to the integral scale,
where h is the colatitude (n = 2) or azimuth (n = 1) step.

The verified statements, for a closed hypersurface with principal
curvatures kappa_i, shifted curvatures kappa_i - 1, potential V and
support function V_nu, all taken about the geometry's base point
`geom.base` (a check reads nothing but the geometry):

* For every real eps and 1 <= k <= n,
      int (V - eps V_nu) E_{k-1}(kappa - eps) = int V_nu E_k(kappa - eps).
* int V_nu = (n + 1) * int_enclosed V  (the k = 1, eps = 0 case, with the
  volume side integrated radially).  About the graph's center the
  discrete identity is exact to rounding; about any other base point it
  holds to O(h^2).
* If H > 0:  int V / H >= (n+1)/n * int_enclosed V.
* If H > n:  int (V - V_nu) / (H - n) >= (n+1)/n * int_enclosed V, with
  equality exactly on geodesic spheres.
* Chained diagnostics for 2 <= k <= n when the shifted curvatures lie in
  the order-k Garding cone: a ratio comparison against int V_nu, the
  pointwise Newton-MacLaurin slack integral, and an umbilicity spread
  report.
* For curves (n = 1): int kappa ds - enclosed area = 2 pi.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import scipy

from . import __version__, symfun
from ._util import atomic_write_text, exact_sum
from .errors import PreconditionError
from .hypersurface import H_MARGIN, RadialGraph, SurfaceGeometry, area_integral, geometry_for

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


def _scaled(lhs: float, rhs: float):
    scale = max(abs(lhs), abs(rhs), 1e-300)
    residual = lhs - rhs
    return residual, residual / scale, scale


def _identity(name, lhs, rhs, tol_abs, metadata) -> CheckResult:
    residual, rel, _ = _scaled(lhs, rhs)
    metadata = {"kind": "identity", **metadata}
    return CheckResult(name, lhs, rhs, residual, rel, tol_abs, abs(residual) <= tol_abs, metadata)


def _inequality(name, lhs, rhs, tol_abs, metadata) -> CheckResult:
    residual, rel, _ = _scaled(lhs, rhs)
    metadata = {"kind": "inequality", "equality": bool(abs(residual) <= tol_abs), **metadata}
    return CheckResult(name, lhs, rhs, residual, rel, tol_abs, residual >= -tol_abs, metadata)


def _report(name, lhs, rhs, tol_abs, metadata) -> CheckResult:
    residual, rel, _ = _scaled(lhs, rhs)
    metadata = {"kind": "report", **metadata}
    return CheckResult(name, lhs, rhs, residual, rel, tol_abs, True, metadata)


_TABLE = None


def tolerance_table() -> dict:
    """Calibration table for auto tolerances, shipped with the package."""
    global _TABLE
    if _TABLE is None:
        with resources.files("hkverify.data").joinpath("tolerances.json").open() as fh:
            _TABLE = json.load(fh)
    return _TABLE


def resolve_tolerance(check: str, geom: SurfaceGeometry, scale: float, tol) -> float:
    """Absolute tolerance for a check: explicit number, or C * h^2 * scale."""
    if tol is not None and tol != "auto":
        return float(tol)
    table = tolerance_table()
    coeff = table["checks"].get(check)
    if coeff is None:
        raise KeyError(f"no calibrated tolerance for check {check!r}")
    h = geom.resolution
    return scale * max(coeff * h * h, table["floor_rel"])


def _grid_meta(geom: SurfaceGeometry) -> dict:
    return {"n": geom.n, "grid": list(geom.grid)}


def minkowski_shifted(geom: SurfaceGeometry, eps: float = 1.0, k: int = 1,
                      tol="auto") -> CheckResult:
    """Shifted Minkowski identity at shift eps and order k."""
    if not 1 <= k <= geom.n:
        raise PreconditionError(f"order k must satisfy 1 <= k <= {geom.n}, got {k}",
                                check="minkowski-shifted")
    shifted = geom.kappa - eps
    lhs = area_integral(geom, (geom.V - eps * geom.V_nu) * symfun.e_m_values(shifted, k - 1))
    rhs = area_integral(geom, geom.V_nu * symfun.e_m_values(shifted, k))
    name = f"minkowski-shifted[eps={eps:g},k={k}]"
    scale = max(abs(lhs), abs(rhs), 1e-300)
    tol_abs = resolve_tolerance("minkowski-shifted", geom, scale, tol)
    return _identity(name, lhs, rhs, tol_abs, {**_grid_meta(geom), "eps": eps, "k": k})


def minkowski_classical(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Support-function integral against (n+1) times the weighted volume."""
    lhs = area_integral(geom, geom.V_nu)
    rhs = (geom.n + 1) * geom.weighted_volume
    scale = max(abs(lhs), abs(rhs), 1e-300)
    tol_abs = resolve_tolerance("minkowski-classical", geom, scale, tol)
    return _identity("minkowski-classical", lhs, rhs, tol_abs, _grid_meta(geom))


def hk_brendle(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Heintze-Karcher inequality int V/H >= (n+1)/n int V, needs H > 0."""
    H = geom.mean_curvature
    worst = int(np.argmin(H))
    if H[worst] <= H_MARGIN:
        raise PreconditionError(
            f"mean curvature {H[worst]:.6g} is not positive", check="hk-brendle", node=worst
        )
    lhs = area_integral(geom, geom.V / H)
    rhs = (geom.n + 1) / geom.n * geom.weighted_volume
    scale = max(abs(lhs), abs(rhs), 1e-300)
    tol_abs = resolve_tolerance("hk-brendle", geom, scale, tol)
    meta = {**_grid_meta(geom), "H_min": float(H[worst])}
    return _inequality("hk-brendle", lhs, rhs, tol_abs, meta)


def hk_shifted(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Shifted inequality int (V - V_nu)/(H - n) >= (n+1)/n int V, needs H > n."""
    H = geom.mean_curvature
    worst = int(np.argmin(H))
    if H[worst] <= geom.n + H_MARGIN:
        raise PreconditionError(
            f"mean curvature {H[worst]:.6g} is not above n = {geom.n}",
            check="hk-shifted", node=worst,
        )
    lhs = area_integral(geom, (geom.V - geom.V_nu) / (H - geom.n))
    rhs = (geom.n + 1) / geom.n * geom.weighted_volume
    scale = max(abs(lhs), abs(rhs), 1e-300)
    tol_abs = resolve_tolerance("hk-shifted", geom, scale, tol)
    meta = {**_grid_meta(geom), "H_min": float(H[worst])}
    return _inequality("hk-shifted", lhs, rhs, tol_abs, meta)


def alexandrov_diagnostic(geom: SurfaceGeometry, k: int = 2,
                          tol="auto") -> list[CheckResult]:
    """Three chained diagnostics behind higher-order umbilicity rigidity.

    (a) the curvature-ratio integral against int V_nu: an identity when
        E_k of the shifted curvatures is constant across the surface
        (spheres), an inequality otherwise;
    (b) the Newton-MacLaurin slack integral, non-negative in the cone;
    (c) an umbilicity spread report (max - min of all principal
        curvatures), informational.
    """
    if not 2 <= k <= geom.n:
        raise PreconditionError(
            f"order k must satisfy 2 <= k <= {geom.n}, got {k}", check="alexandrov"
        )
    shifted = geom.kappa_shifted
    for i in range(1, k + 1):
        sig = symfun.e_m_values(shifted, i) * math.comb(geom.n, i)
        worst = int(np.argmin(sig))
        if sig[worst] <= 0.0:
            raise PreconditionError(
                f"shifted curvatures leave the order-{k} cone, sigma_{i} = {sig[worst]:.6g}",
                check="alexandrov", node=worst,
            )

    ek = symfun.e_m_values(shifted, k)
    ekm1 = symfun.e_m_values(shifted, k - 1)
    e1 = symfun.e_m_values(shifted, 1)
    ek_mean = exact_sum(ek) / ek.size
    ek_spread = float(np.max(ek) - np.min(ek))
    h = geom.resolution
    const_tol = tolerance_table()["checks"]["ek-constancy"] * h * h * max(abs(ek_mean), 1e-300)
    ek_constant = ek_spread <= const_tol

    weight = geom.V - geom.V_nu
    lhs_ratio = area_integral(geom, weight * ekm1 / ek)
    rhs_ratio = area_integral(geom, geom.V_nu)
    scale = max(abs(lhs_ratio), abs(rhs_ratio), 1e-300)
    tol_abs = resolve_tolerance("alexandrov-ratio", geom, scale, tol)
    meta = {**_grid_meta(geom), "k": k, "ek_constant": ek_constant,
            "ek_spread": ek_spread, "ek_mean": ek_mean}
    name = f"alexandrov-ratio[k={k}]"
    if ek_constant:
        ratio = _identity(name, lhs_ratio, rhs_ratio, tol_abs, meta)
    else:
        ratio = _inequality(name, lhs_ratio, rhs_ratio, tol_abs, meta)

    lhs_slack = area_integral(geom, weight * (ekm1 / ek - 1.0 / e1))
    tol_slack = resolve_tolerance("alexandrov-nm-slack", geom,
                                  max(abs(lhs_slack), scale), tol)
    slack = _inequality(f"alexandrov-nm-slack[k={k}]", lhs_slack, 0.0, tol_slack,
                        {**_grid_meta(geom), "k": k})

    spread = float(np.max(geom.kappa) - np.min(geom.kappa))
    tol_spread = resolve_tolerance("alexandrov-umbilic", geom,
                                   max(float(np.max(np.abs(geom.kappa))), 1e-300), tol)
    umb = _report(f"alexandrov-umbilic[k={k}]", spread, 0.0, tol_spread,
                  {**_grid_meta(geom), "k": k,
                   "umbilic_within_tol": bool(spread <= tol_spread)})
    return [ratio, slack, umb]


def gauss_bonnet(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Curve check: total geodesic curvature minus enclosed area is 2 pi."""
    if geom.n != 1:
        raise PreconditionError("gauss-bonnet applies to curves only", check="gauss-bonnet")
    lhs = area_integral(geom, geom.kappa[:, 0]) - geom.enclosed_volume
    rhs = 2.0 * np.pi
    tol_abs = resolve_tolerance("gauss-bonnet", geom, rhs, tol)
    return _identity("gauss-bonnet", lhs, rhs, tol_abs, _grid_meta(geom))


@dataclass
class VerificationReport:
    """A batch of check results for one surface, JSON-serializable."""

    surface: dict
    provenance: dict
    results: list = field(default_factory=list)

    def add(self, result: CheckResult) -> None:
        if any(r.name == result.name for r in self.results):
            raise ValueError(f"duplicate check name {result.name!r}")
        self.results.append(result)

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

    The profile's shape is in the config; its values are hashed as raw
    little-endian bytes because a JSON dump of them cost about a third
    of a verification.
    """
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode())
    digest.update(np.ascontiguousarray(rho, dtype="<f8").tobytes())
    return digest.hexdigest()


def run_verification(graph: RadialGraph, checks=None, eps_sweep=DEFAULT_EPS_SWEEP,
                     k_list=None, alexandrov_k=None, tol="auto",
                     geom: SurfaceGeometry | None = None) -> VerificationReport:
    """Run a named set of checks on a surface and collect a report.

    checks defaults to the identities and inequalities that apply at the
    surface's dimension.  The Alexandrov diagnostics only run when asked
    for (their constancy verdict describes the shape rather than checking
    an identity).  `geom` defaults to the centered geometry of `graph`;
    one built from another graph is refused with ValueError.
    """
    geom = geometry_for(graph, geom)
    if checks is None:
        checks = ["minkowski-classical", "minkowski-shifted", "hk-brendle", "hk-shifted"]
        if graph.n == 1:
            checks = checks + ["gauss-bonnet"]
    if k_list is None:
        k_list = list(range(1, graph.n + 1))
    if alexandrov_k is None:
        alexandrov_k = [2] if graph.n >= 2 else []

    surface = {"n": graph.n, "grid": list(graph.rho.shape), "meta": dict(graph.meta)}
    config = {
        "checks": list(checks),
        "eps_sweep": [float(e) for e in eps_sweep],
        "k_list": [int(k) for k in k_list],
        "alexandrov_k": [int(k) for k in alexandrov_k],
        "tol": tol if isinstance(tol, str) else float(tol),
        "surface": surface,
    }
    report = VerificationReport(
        surface=surface,
        provenance={
            "config_hash": _config_hash(config, graph.rho),
            "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "tolerance_table_version": tolerance_table()["version"],
            "hkverify_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
        },
    )
    single = {"minkowski-classical": minkowski_classical, "hk-brendle": hk_brendle,
              "hk-shifted": hk_shifted, "gauss-bonnet": gauss_bonnet}
    for check in checks:
        if check in single:
            report.add(single[check](geom, tol))
        elif check == "minkowski-shifted":
            for k in k_list:
                for eps in eps_sweep:
                    report.add(minkowski_shifted(geom, eps, k, tol))
        elif check == "alexandrov":
            for k in alexandrov_k:
                for result in alexandrov_diagnostic(geom, k, tol):
                    report.add(result)
        else:
            raise ValueError(f"unknown check {check!r}")
    return report
