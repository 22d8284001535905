"""Checks of every workload output against closed forms and properties of
the method, computed here rather than taken from the package.

Nothing in this module is timed.  The only package call is
`build_geometry` for a flow surface: the flow consumes that geometry, so
the flow checks start from the same particles the flow started from.

What is checked, and why each bound holds:

* Verifications: every check passes; on n = 2 the discrete
  `minkowski-classical` identity is exact (rel <= 1e-13), because the
  support-function integral and the radial volume integral share one
  quadrature; its right-hand side agrees with a weighted volume integrated
  here; on spheres it also agrees with cosh(d) 4 pi sinh^3 R to the
  midpoint rule's h^2 error, and both `hk-*` checks are equalities
  (rel <= 1e-3); on perturbed shapes both `hk-*` deficits are positive and
  agree across levels to 5%, and every minkowski-shifted series converges
  at a fitted order >= 1.7; on the curve Gauss-Bonnet holds to 1e-4.
* Flows: the monotonicity, area and H > n flags are set and hold on the
  returned arrays; focal_min matches focal times computed here; t = 0 of
  the flow functional is the `hk-shifted` left-hand side; spheres reach
  their focal time R with Q ~ 0 and an exact level-set identity; a
  truncated window is confirmed by a brute-force O(N^2) pair scan.
* Flow operations that fail: the normal exponential map, cut at each
  particle's cut-locus time, covers the enclosed region once, so the
  co-area volume equals the enclosed weighted volume W and Q(0) equals
  the `hk-shifted` residual, both to O(h^2 + dt^2).  A flow that misses
  either is counted as a failed operation, not as an oracle failure:
  `verify_flow` runs every window to its focal time unless the collision
  scan cuts them all at one time, so a curve whose normals cross sweeps
  more than W and a truncated lobe sweeps less.
* The CLI session: every call exits 0 and the written report passes.
"""

from __future__ import annotations

import math

import numpy as np

from hkverify import errors, hypersurface, normalflow
from workloads import OFFSET_BASE_D, OFFSET_BASE_RADIUS

EQUALITY_REL = 1e-3          # sphere equality cases
EXACT_REL = 1e-13            # discrete minkowski-classical identity
VOLUME_REL = 1e-12           # two quadratures of one weighted-volume sum
GAUSS_BONNET_ABS = 1e-4
ORDER_GATE = 1.7
# a residual series already at rounding level (the curve's, from 1024
# points on) has no order to fit
ROUNDING_FLOOR = 1e-10
DEFICIT_SPREAD = 0.05        # hk-* deficit change across levels
FOCAL_ABS = 1e-12
COAREA_C = 1.0               # co-area volume vs W: COAREA_C * (h^2 + dt^2)
EXCLUSION = normalflow.FlowConfig().exclusion
CUT_SAMPLES = normalflow.FlowConfig().cut_samples
PAIR_CHUNK = 64


class Checks:
    """Collects failures and, per check, the worst value/limit ratio."""

    def __init__(self):
        self.failures: list[str] = []
        self.worst: dict[str, float] = {}

    def le(self, name: str, value: float, limit: float, where: str = "") -> bool:
        ratio = value / limit if limit > 0 else (0.0 if value <= 0 else math.inf)
        if not ratio <= self.worst.get(name, -math.inf):
            self.worst[name] = ratio
        ok = bool(value <= limit)
        if not ok:
            self.failures.append(f"{name}{' ' + where if where else ''}: {value:.6g} > {limit:.6g}")
        return ok

    def true(self, name: str, cond: bool, where: str = "") -> bool:
        if not cond:
            self.failures.append(f"{name}{' ' + where if where else ''}")
        return bool(cond)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def sphere_weighted_volume(n: int, radius: float, offset: float) -> float:
    """int over a geodesic ball of cosh(distance to a point at `offset` from its centre).

    The integrand is -<x, base>, linear in x, and the ball's integral of x
    points at its centre c, so it is cosh(offset) times the centred value
    omega_n sinh^{n+1}(R) / (n+1).
    """
    omega = 4.0 * math.pi if n == 2 else 2.0 * math.pi
    return math.cosh(offset) * omega * math.sinh(radius) ** (n + 1) / (n + 1)


def weighted_volume(graph) -> float:
    """int_enclosed cosh r: exact radial integral, midpoint/trapezoid in angle."""
    rho = np.asarray(graph.rho, dtype=float)
    n = graph.n
    radial = np.sinh(rho) ** (n + 1) / (n + 1)
    if n == 1:
        return math.fsum((radial * (2.0 * math.pi / rho.size)).tolist())
    P, T = rho.shape
    h_phi, h_theta = math.pi / P, 2.0 * math.pi / T
    weight = np.sin((np.arange(P) + 0.5) * h_phi) * h_phi * h_theta
    return math.fsum((radial * weight[:, None]).ravel().tolist())


def _result(report, name):
    return next(r for r in report.results if r.name == name)


def expected_names(shape) -> set:
    names = {"minkowski-classical", "hk-brendle", "hk-shifted"}
    names |= {f"minkowski-shifted[eps={eps:g},k={k}]"
              for eps in (0.0, 0.5, 1.0) for k in range(1, shape.n + 1)}
    if shape.n == 1:
        names.add("gauss-bonnet")
    elif shape.alexandrov:
        names |= {"alexandrov-ratio[k=2]", "alexandrov-nm-slack[k=2]", "alexandrov-umbilic[k=2]"}
    return names


def check_verification(chk: Checks, v) -> None:
    where = f"[{v.shape.key} @ {v.level}]"
    rep = v.report
    names = {r.name for r in rep.results}
    if not chk.true("report has every applicable check", names == expected_names(v.shape), where):
        return
    chk.true("every check passes", rep.all_passed(), where)
    mk = _result(rep, "minkowski-classical")
    W = weighted_volume(v.graph)
    chk.le("minkowski-classical rhs vs own weighted volume", rel(mk.rhs, (v.shape.n + 1) * W),
           VOLUME_REL, where)
    if v.shape.n == 2:
        chk.le("minkowski-classical exact rel", abs(mk.rel_residual), EXACT_REL, where)
    if v.shape.is_sphere:
        h = v.graph.resolution
        closed = (v.shape.n + 1) * sphere_weighted_volume(v.shape.n, v.shape.radius,
                                                          v.shape.offset)
        chk.le("sphere minkowski-classical rhs vs cosh(d) 4pi sinh^3 R", rel(mk.rhs, closed),
               h * h, where)
        for name in ("hk-brendle", "hk-shifted"):
            chk.le(f"sphere {name} equality rel", abs(_result(rep, name).rel_residual),
                   EQUALITY_REL, where)
    if v.shape.n == 1:
        chk.le("gauss-bonnet vs 2 pi", abs(_result(rep, "gauss-bonnet").lhs - 2.0 * math.pi),
               GAUSS_BONNET_ABS, where)


def check_ladder_shape(chk: Checks, shape, verified: list, orders: dict) -> None:
    if shape.is_sphere:
        return
    where = f"[{shape.key}]"
    finest = max(verified, key=lambda v: v.level)
    for name in ("hk-brendle", "hk-shifted"):
        deficits = [_result(v.report, name).rel_residual for v in verified]
        chk.true(f"{name} deficit strictly positive", min(deficits) > 0.0, where)
        ref = _result(finest.report, name).rel_residual
        chk.le(f"{name} deficit spread across levels",
               max(abs(d - ref) for d in deficits) / abs(ref), DEFICIT_SPREAD, where)
    chk.true("every minkowski-shifted series is fitted", len(orders) == 3 * shape.n, where)
    for name, order in orders.items():
        worst = max(abs(_result(v.report, name).rel_residual) for v in verified)
        if worst > ROUNDING_FLOOR:
            chk.le("minkowski-shifted fitted order gate", ORDER_GATE, order, f"{where} {name}")


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski products of every row of a with every row of b."""
    return a[:, 1:] @ b[:, 1:].T - np.outer(a[:, 0], b[:, 0])


def _far_hits(y, nu, spacing, kappa_min, t):
    """Brute-force scan at flow time t: the far pairs below both thresholds.

    Returns (number of hits, smallest d / min(thr) over far pairs).
    """
    pos = math.cosh(t) * y - math.sinh(t) * nu
    thr = spacing * np.maximum(math.cosh(t) - kappa_min * math.sinh(t), 0.0)
    hits, best = 0, math.inf
    for lo in range(0, pos.shape[0], PAIR_CHUNK):
        rows = slice(lo, lo + PAIR_CHUNK)
        d = np.arccosh(np.maximum(-_inner(pos[rows], pos), 1.0))
        d0 = np.arccosh(np.maximum(-_inner(y[rows], y), 1.0))
        far = d0 >= EXCLUSION * np.maximum(spacing[rows, None], spacing[None, :])
        limit = np.minimum(thr[rows, None], thr[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(far & (limit > 0.0), d / limit, math.inf)
        hits += int(np.count_nonzero(ratio < 1.0))
        best = min(best, float(np.min(ratio)))
    return hits, best


def brute_force_cut(geom, cut: float, focal_min: float) -> dict:
    """Confirm a truncated window by scanning all pairs at the cut and just before."""
    spacing = geom.area_weight ** (1.0 / geom.n)
    grid = np.linspace(0.0, focal_min, CUT_SAMPLES, endpoint=False)
    step = np.nonzero(grid == cut)[0]
    if step.size != 1 or step[0] == 0:
        return {"on_grid": False}
    prev = float(grid[step[0] - 1])
    kappa_min = geom.kappa[:, 0]
    hits_cut, ratio_cut = _far_hits(geom.position, geom.normal, spacing, kappa_min, cut)
    hits_prev, ratio_prev = _far_hits(geom.position, geom.normal, spacing, kappa_min, prev)
    return {"on_grid": True, "prev": prev, "hits_cut": hits_cut, "ratio_cut": ratio_cut,
            "hits_prev": hits_prev, "ratio_prev": ratio_prev}


def focal_times(geom) -> np.ndarray:
    """Per-particle focal time min_i artanh(1 / kappa_i) over kappa_i > 1."""
    kappa = geom.kappa
    with np.errstate(divide="ignore"):
        focal = np.where(kappa > 1.0, np.arctanh(1.0 / np.maximum(kappa, 1.0)), math.inf)
    return np.min(focal, axis=1)


def check_flow(chk: Checks, f, hk_shifted, truncated: bool, collision_cache: dict) -> None:
    where = f"[flow {f.shape.key} @ {f.level}]"
    tr = f.trace
    n = f.graph.n
    geom = hypersurface.build_geometry(f.graph)

    chk.true("flow passed", tr.passed(), where)
    for flag in ("q_monotone_ok", "area_decreasing_ok", "h_above_n_ok", "levelset_ok"):
        chk.true(f"flow flag {flag}", getattr(tr, flag), where)
    chk.le("Q increase beyond slack", float(np.max(np.diff(tr.Q))), tr.q_slack, where)
    chk.true("area strictly decreasing", bool(np.all(np.diff(tr.area) < 0.0)), where)
    chk.true("H_min above n", bool(np.all(tr.H_min > n)), where)

    chk.le("focal_min vs own focal times", abs(tr.focal_min - float(np.min(focal_times(geom)))),
           FOCAL_ABS, where)
    chk.true("window truncated as the workload expects", tr.window_truncated == truncated,
             where)

    chk.le("hk_lhs0 vs hk-shifted lhs", rel(tr.hk_lhs0, hk_shifted.lhs), VOLUME_REL, where)

    if f.shape.is_sphere and f.shape.offset == 0.0:
        R = f.shape.radius
        chk.le("sphere focal_min = R", abs(tr.focal_min - R), FOCAL_ABS, where)
        chk.true("sphere cut = inf", math.isinf(tr.cut_estimate), where)
        chk.le("sphere |Q|", float(np.max(np.abs(tr.Q))),
               EQUALITY_REL * 2.0 * math.pi * math.sinh(R) ** 3, where)
        chk.le("sphere level-set rel", float(np.max(np.abs(tr.levelset_rel))), EQUALITY_REL,
               where)

    if tr.window_truncated:
        chk.true("truncated cut precedes the focal time", tr.cut_estimate < tr.focal_min, where)
        key = (f.graph.rho.tobytes(), tr.cut_estimate, tr.focal_min)
        if key not in collision_cache:
            collision_cache[key] = brute_force_cut(geom, tr.cut_estimate, tr.focal_min)
        bf = collision_cache[key]
        if chk.true("cut lies on the scan grid", bf["on_grid"], where):
            chk.true("brute force: a far pair collides at the cut", bf["hits_cut"] > 0, where)
            chk.le("brute force: closest far pair at the cut, d / threshold",
                   bf["ratio_cut"], 1.0, where)
            chk.true("brute force: no far pair collides one scan step earlier",
                     bf["hits_prev"] == 0, where)
            chk.le("brute force: threshold / closest far pair one step earlier",
                   1.0 / bf["ratio_prev"], 1.0, where)


def flow_fills_enclosed_volume(f, hk_shifted) -> bool:
    """The flow's co-area volume is the enclosed weighted volume W, and so
    Q(0) is the `hk-shifted` residual, to COAREA_C (h^2 + dt^2)."""
    tr = f.trace
    tol = COAREA_C * (f.graph.resolution ** 2 + tr.dt ** 2)
    W = weighted_volume(f.graph)
    return (rel(tr.coarea_volume, W) <= tol
            and abs(float(tr.Q[0]) - hk_shifted.residual) <= tol * abs(hk_shifted.lhs))


def check_cli(chk: Checks, codes: list, report: dict | None) -> None:
    chk.true("every CLI call exits 0", codes == [0, 0, 0], f"{codes}")
    chk.true("CLI report written and passing",
             report is not None and all(c["pass"] for c in report["checks"]))


def offset_base_holds(outcome) -> bool:
    """The offset-base sphere passes if the package refuses it, or if every
    identity holds about the base point and both hk-* are equalities."""
    if isinstance(outcome, errors.PreconditionError):
        return True
    closed = 3.0 * sphere_weighted_volume(2, OFFSET_BASE_RADIUS, OFFSET_BASE_D)
    mk = _result(outcome, "minkowski-classical")
    return (outcome.all_passed()
            and rel(mk.rhs, closed) <= EQUALITY_REL
            and all(abs(_result(outcome, name).rel_residual) <= EQUALITY_REL
                    for name in ("hk-brendle", "hk-shifted")))


def check_round(chk: Checks, workload, rnd, collision_cache: dict) -> int:
    """Check one round's outputs; returns the number of failed operations."""
    for p in rnd.passes:
        for v in p.verified + p.extra:
            check_verification(chk, v)
        for shape in workload.ladder:
            check_ladder_shape(chk, shape, [v for v in p.verified if v.shape is shape],
                               p.orders[shape.key])
        check_cli(chk, p.cli_codes, p.cli_report)
    reports = {(v.shape, v.level): v.report for v in rnd.passes[0].verified}
    expect = {(shape, level): truncated for shape, level, truncated in workload.flows}
    failed = 0
    for f in rnd.flows:
        hk_shifted = _result(reports[f.shape, f.level], "hk-shifted")
        check_flow(chk, f, hk_shifted, expect[f.shape, f.level], collision_cache)
        failed += not flow_fills_enclosed_volume(f, hk_shifted)
    if rnd.offset_base is not None:
        failed += not offset_base_holds(rnd.offset_base)
    return failed
