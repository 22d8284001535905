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
* int V_nu = (n + 1) * int_enclosed V  (the k = 1, eps = 0 case, with the
  volume side integrated radially).  About the graph's center the
  discrete identity is exact to rounding; about any other base point it
  holds to O(h^2).
* If H > n eps:  int (V - eps V_nu) / (H - n eps) >= (n+1)/n * int_enclosed V,
  computed by one kernel (`_hk`) at two shifts: eps = 0 is Brendle's
  inequality int V / H >= ... for H > 0 (`hk_brendle`), eps = 1 the
  shifted inequality int (V - V_nu) / (H - n) >= ... for H > n
  (`hk_shifted`), with equality exactly on geodesic spheres.
* Chained diagnostics for 2 <= k <= n when the shifted curvatures lie in
  the order-k Garding cone: a ratio comparison against int V_nu, the
  pointwise Newton-MacLaurin slack integral, and an umbilicity spread
  report.
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


@functools.cache
def tolerance_table() -> dict:
    """Calibration table for auto tolerances, shipped with the package."""
    with resources.files("hkverify.data").joinpath("tolerances.json").open() as fh:
        return json.load(fh)


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


def _judge(kind: str, name: str, key: str, geom: SurfaceGeometry, lhs: float, rhs: float,
           tol, meta: dict, scale: float | None = None) -> CheckResult:
    """The verdict rule every check shares.

    The residual lhs - rhs is made relative to max(|lhs|, |rhs|, 1e-300),
    which is also the tolerance scale unless `scale` is given; `key`
    names the tolerance table entry.  `kind` is "identity", "inequality"
    or "report", and heads the metadata, then `within_tol` (|residual| <=
    tolerance) for an inequality, then n and grid, then the check's `meta`.
    """
    residual = lhs - rhs
    size = max(abs(lhs), abs(rhs), 1e-300)
    tol_abs = resolve_tolerance(key, geom, size if scale is None else scale, tol)
    within = abs(residual) <= tol_abs
    head = {"kind": kind, "within_tol": bool(within)} if kind == "inequality" else {"kind": kind}
    passed = {"identity": within, "inequality": residual >= -tol_abs, "report": True}[kind]
    return CheckResult(name, lhs, rhs, residual, residual / size, tol_abs, passed,
                       {**head, "n": geom.n, "grid": list(geom.grid), **meta})


def minkowski_shifted(geom: SurfaceGeometry, eps: float = 1.0, k: int = 1,
                      tol="auto") -> CheckResult:
    """Shifted Minkowski identity at shift eps and order k."""
    if not 1 <= k <= geom.n:
        raise PreconditionError(f"order k must satisfy 1 <= k <= {geom.n}, got {k}",
                                check="minkowski-shifted")
    shifted = geom.kappa - eps
    lhs = area_integral(geom, (geom.V - eps * geom.V_nu) * symfun.e_m_values(shifted, k - 1))
    rhs = area_integral(geom, geom.V_nu * symfun.e_m_values(shifted, k))
    return _judge("identity", f"minkowski-shifted[eps={eps:g},k={k}]", "minkowski-shifted",
                  geom, lhs, rhs, tol, {"eps": eps, "k": k})


def minkowski_classical(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Support-function integral against (n+1) times the weighted volume."""
    lhs = area_integral(geom, geom.V_nu)
    rhs = (geom.n + 1) * geom.weighted_volume
    return _judge("identity", "minkowski-classical", "minkowski-classical",
                  geom, lhs, rhs, tol, {})


def _hk(geom: SurfaceGeometry, eps: float, name: str, refusal: str, tol) -> CheckResult:
    """int (V - eps V_nu)/(H - n eps) >= (n+1)/n int V, needs H > n eps.

    A node with H <= n eps + H_MARGIN is refused with the message
    "mean curvature <H> <refusal>".
    """
    H = geom.mean_curvature
    worst = int(np.argmin(H))
    if H[worst] <= geom.n * eps + H_MARGIN:
        raise PreconditionError(f"mean curvature {H[worst]:.6g} {refusal}",
                                check=name, node=worst)
    lhs = area_integral(geom, (geom.V - eps * geom.V_nu) / (H - geom.n * eps))
    rhs = (geom.n + 1) / geom.n * geom.weighted_volume
    return _judge("inequality", name, name, geom, lhs, rhs, tol, {"H_min": float(H[worst])})


def hk_brendle(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Heintze-Karcher inequality int V/H >= (n+1)/n int V, needs H > 0."""
    return _hk(geom, 0.0, "hk-brendle", "is not positive", tol)


def hk_shifted(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Shifted inequality int (V - V_nu)/(H - n) >= (n+1)/n int V, needs H > n."""
    return _hk(geom, 1.0, "hk-shifted", f"is not above n = {geom.n}", tol)


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
    e = [symfun.e_m_values(shifted, i) for i in range(1, k + 1)]
    for i, ei in enumerate(e, start=1):
        sig = ei * math.comb(geom.n, i)
        worst = int(np.argmin(sig))
        if sig[worst] <= 0.0:
            raise PreconditionError(
                f"shifted curvatures leave the order-{k} cone, sigma_{i} = {sig[worst]:.6g}",
                check="alexandrov", node=worst,
            )

    e1, ekm1, ek = e[0], e[k - 2], e[k - 1]
    ek_mean = exact_sum(ek) / ek.size
    ek_spread = float(np.max(ek) - np.min(ek))
    h = geom.resolution
    const_tol = tolerance_table()["checks"]["ek-constancy"] * h * h * max(abs(ek_mean), 1e-300)
    ek_constant = ek_spread <= const_tol

    weight = geom.V - geom.V_nu
    lhs_ratio = area_integral(geom, weight * ekm1 / ek)
    rhs_ratio = area_integral(geom, geom.V_nu)
    ratio = _judge("identity" if ek_constant else "inequality", f"alexandrov-ratio[k={k}]",
                   "alexandrov-ratio", geom, lhs_ratio, rhs_ratio, tol,
                   {"k": k, "ek_constant": ek_constant, "ek_spread": ek_spread,
                    "ek_mean": ek_mean})

    lhs_slack = area_integral(geom, weight * (ekm1 / ek - 1.0 / e1))
    slack = _judge("inequality", f"alexandrov-nm-slack[k={k}]", "alexandrov-nm-slack",
                   geom, lhs_slack, 0.0, tol, {"k": k},
                   scale=max(abs(lhs_slack), max(abs(lhs_ratio), abs(rhs_ratio), 1e-300)))

    spread = float(np.max(geom.kappa) - np.min(geom.kappa))
    umb = _judge("report", f"alexandrov-umbilic[k={k}]", "alexandrov-umbilic", geom,
                 spread, 0.0, tol, {"k": k},
                 scale=max(float(np.max(np.abs(geom.kappa))), 1e-300))
    umb.metadata["umbilic_within_tol"] = bool(spread <= umb.tolerance)
    return [ratio, slack, umb]


def gauss_bonnet(geom: SurfaceGeometry, tol="auto") -> CheckResult:
    """Curve check: total geodesic curvature minus enclosed area is 2 pi."""
    if geom.n != 1:
        raise PreconditionError("gauss-bonnet applies to curves only", check="gauss-bonnet")
    lhs = area_integral(geom, geom.kappa[:, 0]) - geom.enclosed_volume
    rhs = 2.0 * np.pi
    return _judge("identity", "gauss-bonnet", "gauss-bonnet", geom, lhs, rhs, tol, {},
                  scale=rhs)


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
    an identity), and only on surfaces (PreconditionError on a curve).
    No checks, an unknown check, a requested check that would add no
    result, or a non-finite eps is refused with ValueError before any
    check runs.  `geom` defaults to the centered geometry of `graph`; one
    built from another graph is refused with ValueError.
    """
    if checks is None:
        checks = ["minkowski-classical", "minkowski-shifted", "hk-brendle", "hk-shifted"]
        if graph.n == 1:
            checks = checks + ["gauss-bonnet"]
    if k_list is None:
        k_list = list(range(1, graph.n + 1))
    if alexandrov_k is None:
        alexandrov_k = [2] if graph.n >= 2 else []
    single = {"minkowski-classical": minkowski_classical, "hk-brendle": hk_brendle,
              "hk-shifted": hk_shifted, "gauss-bonnet": gauss_bonnet}
    adds = {**dict.fromkeys(single, 1), "minkowski-shifted": len(k_list) * len(eps_sweep),
            "alexandrov": len(alexandrov_k)}
    if len(checks) == 0:
        raise ValueError("no checks requested")
    for check in checks:
        if check not in adds:
            raise ValueError(f"unknown check {check!r}")
        if check == "alexandrov" and graph.n == 1:
            raise PreconditionError("alexandrov applies to surfaces only", check="alexandrov")
        if adds[check] == 0:
            raise ValueError(f"check {check!r} would add no result: its eps or k list is empty")
    if not all(math.isfinite(e) for e in eps_sweep):
        raise ValueError(f"eps must be finite, got {list(eps_sweep)}")
    geom = geometry_for(graph, geom)

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
    for check in checks:
        if check in single:
            report.add(single[check](geom, tol))
        elif check == "minkowski-shifted":
            for k in k_list:
                for eps in eps_sweep:
                    report.add(minkowski_shifted(geom, eps, k, tol))
        else:
            for k in alexandrov_k:
                for result in alexandrov_diagnostic(geom, k, tol):
                    report.add(result)
    return report
