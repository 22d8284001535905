"""Lagrangian unit normal flow with closed-form particle evolution.

Each surface node becomes a particle flying inward along its normal
geodesic.  Curvatures, potentials and the area Jacobian all solve their
evolution equations in closed form:

    kappa(t) = (kappa cosh t - sinh t) / (cosh t - kappa sinh t)
    V(t)     = V0 cosh t - Vnu0 sinh t
    Vnu(t)   = Vnu0 cosh t - V0 sinh t
    J(t)     = prod_i (cosh t - kappa_i sinh t)

so the only numerical errors are the initial geometry and the quadrature
in flow time.  A particle stays active until the first of its focal time
(a Jacobian factor vanishes) and a global collision estimate.  The
estimate scans a fixed grid of CUT_SAMPLES times below the smallest focal
time for a pair that collides, never counting pairs closer than EXCLUSION
spacings at t = 0; estimate_cut_time returns the cut and the pair behind
it, and verify_flow derives every particle's window from them.  The scan
takes candidate pairs from KD-trees on Poincare ball coordinates and
runs its steps on a thread pool with one worker per available CPU, with
the serial scan's result whatever the worker count (estimate_cut_time
says how).  The per-time sums below stay in the calling thread.  The
flow functional

    Q(t) = e^{(n+1)t} [ sum_active (V-Vnu)/(H-n) J w0
                        - (n+1)/n * int_t^{t_max} sum_active V J w0 dtau ]

is sampled inside a safety-reduced window and checked for monotone
decrease, along with the level-set identity

    sum_active Vnu J w0 = (n+1) * int_t^{t_max} sum_active V J w0 dtau

and monotone decrease of the active area.  The per-particle windows run
to the full cut/focal estimate while the fixed sampling (SAMPLES, SAFETY)
stops at SAFETY times the shortest window; shrinking the windows would
truncate the volume integral and break the exact sphere cases.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.spatial import cKDTree

from . import hypgeo
from ._util import atomic_write_text
from .errors import FlowAssumptionError, FocalTimeError
from .hypersurface import H_MARGIN, RadialGraph, SurfaceGeometry, geometry_for

__all__ = [
    "CUT_SAMPLES",
    "DENOM_TOL",
    "EXCLUSION",
    "SAFETY",
    "SAMPLES",
    "FlowConfig",
    "FlowParticles",
    "FlowTrace",
    "evolve_curvature",
    "evolve_potentials",
    "area_jacobian",
    "focal_time",
    "focal_times",
    "estimate_cut_time",
    "verify_flow",
]

DENOM_TOL = 1e-12
# Threshold ratio spanned by one candidate bucket of the collision scan.
BUCKET_RATIO = 2.0
# The collision scan's fixed parameters: its time steps before the
# smallest focal time, and its same-sheet exclusion radius in spacings.
CUT_SAMPLES = 96
EXCLUSION = 3.0
# Tolerance coefficients of verify_flow, calibrated at its fixed sampling
# SAMPLES, SAFETY: the Q slack and the level-set tolerance are C_GRID h^2 +
# C_TIME dt^2, and a surface is round when its spread is within ROUND_C h^2.
SAMPLES = 400
SAFETY = 0.9
Q_C_GRID = 1.0
Q_C_TIME = 50.0
LEVELSET_C_GRID = 0.5
LEVELSET_C_TIME = 400.0
ROUND_C = 4.0


def evolve_curvature(kappa, t):
    """Principal curvature after flowing for time t.

    Solves kappa' = kappa^2 - 1 from the initial value; broadcasts over
    arrays of curvatures and times.
    """
    kappa = np.asarray(kappa, dtype=float)
    t = np.asarray(t, dtype=float)
    ch, sh = np.cosh(t), np.sinh(t)
    denom = ch - kappa * sh
    if np.any(denom <= DENOM_TOL):
        raise FocalTimeError("curvature evolution hit a focal time")
    out = (kappa * ch - sh) / denom
    return out if out.ndim else float(out)


def evolve_potentials(V0, Vnu0, t):
    """Potential and support function after time t (a Lorentz boost).

    The combination V^2 - Vnu^2 is preserved exactly.
    """
    V0 = np.asarray(V0, dtype=float)
    Vnu0 = np.asarray(Vnu0, dtype=float)
    t = np.asarray(t, dtype=float)
    ch, sh = np.cosh(t), np.sinh(t)
    V = V0 * ch - Vnu0 * sh
    Vnu = Vnu0 * ch - V0 * sh
    if V.ndim:
        return V, Vnu
    return float(V), float(Vnu)


def area_jacobian(kappa0, t):
    """Area element ratio J(t) = prod_i (cosh t - kappa_i sinh t).

    kappa0 holds the initial principal curvatures along the last axis.
    Strictly positive before the focal time; past it the flow map is no
    longer defined, so that is an error rather than a sign flip.
    """
    kappa0 = np.asarray(kappa0, dtype=float)
    t = np.asarray(t, dtype=float)
    factors = np.cosh(t)[..., None] - kappa0 * np.sinh(t)[..., None]
    if np.any(factors <= DENOM_TOL):
        raise FocalTimeError("area Jacobian evaluated at or past a focal time")
    out = hypgeo._row_fold(np.multiply, factors)
    return out if out.ndim else float(out)


def focal_time(kappa0) -> float:
    """First time a Jacobian factor vanishes: min artanh(1/kappa_i).

    Only curvatures above 1 focus; if there are none the time is +inf.
    """
    return float(focal_times(np.reshape(kappa0, (1, -1)))[0])


def focal_times(kappa0) -> np.ndarray:
    """Per-row focal times for an (N, n) array of curvature tuples."""
    kappa0 = np.asarray(kappa0, dtype=float)
    # kappa <= 1 never focuses; the clamp keeps 1 / kappa finite there
    with np.errstate(divide="ignore"):
        t = np.where(kappa0 > 1.0, np.arctanh(1.0 / np.maximum(kappa0, 1.0)), math.inf)
    return np.min(t, axis=-1, initial=math.inf)


@dataclass
class FlowParticles:
    """Structure-of-arrays state for the particle system at t = 0.

    from_geometry stores the geometry's own arrays, not copies: nothing in
    the flow writes into them.  Windows and the cut pair are not state
    here; estimate_cut_time returns them.
    """

    n: int
    y: np.ndarray          # (N, n+2) initial positions
    nu0: np.ndarray        # (N, n+2) outward unit normals
    kappa0: np.ndarray     # (N, n) principal curvatures, ascending
    V0: np.ndarray         # (N,)
    Vnu0: np.ndarray       # (N,)
    w0: np.ndarray         # (N,) area weights, sum = initial area
    spacing0: np.ndarray = field(init=False)    # (N,) local grid spacing w0^(1/n)
    inward0: np.ndarray = field(init=False)     # (N, n+2) inward unit normals -nu0
    t_focal: np.ndarray = field(init=False)     # (N,)

    def __post_init__(self):
        self.spacing0 = self.w0 ** (1.0 / self.n)
        self.inward0 = -self.nu0
        self.t_focal = focal_times(self.kappa0)

    @classmethod
    def from_geometry(cls, geom: SurfaceGeometry) -> "FlowParticles":
        return cls(
            n=geom.n,
            y=geom.position,
            nu0=geom.normal,
            kappa0=geom.kappa,
            V0=geom.V,
            Vnu0=geom.V_nu,
            w0=geom.area_weight,
        )

    def count(self) -> int:
        return self.y.shape[0]

    def positions_at(self, t: float) -> np.ndarray:
        """Evolved positions X(y, t) along the inward normal geodesics."""
        return hypgeo.geodesic(self.y, self.inward0, float(t))


def _candidate_pairs(ball: np.ndarray, thr: np.ndarray):
    """Index pairs (i, j) that may satisfy d_hyp < min(thr_i, thr_j).

    The bucketed query of estimate_cut_time; particles with a zero
    threshold cannot collide and are left out.
    """
    live = np.flatnonzero(thr > 0.0)
    level = np.floor(np.log(np.max(thr) / thr[live]) / math.log(BUCKET_RATIO))
    order = np.argsort(level, kind="stable")
    starts = np.flatnonzero(np.diff(level[order])) + 1
    buckets = []
    for idx in np.split(live[order], starts):
        tree = cKDTree(ball[idx], balanced_tree=False, compact_nodes=False)
        buckets.append((idx, tree, float(np.max(thr[idx]))))
    firsts, seconds = [], []
    for a, (idx_a, tree_a, top_a) in enumerate(buckets):
        pairs = tree_a.query_pairs(top_a / 2.0, output_type="ndarray")
        firsts.append(idx_a[pairs[:, 0]])
        seconds.append(idx_a[pairs[:, 1]])
        for idx_b, tree_b, top_b in buckets[a + 1:]:
            cross = tree_a.sparse_distance_matrix(
                tree_b, min(top_a, top_b) / 2.0, output_type="ndarray")
            firsts.append(idx_a[cross["i"]])
            seconds.append(idx_b[cross["j"]])
    return np.concatenate(firsts), np.concatenate(seconds)


def estimate_cut_time(particles: FlowParticles, t_grid) -> tuple[float, dict | None]:
    """Scan a time grid for the first collision between far-apart particles.

    A particle's collision threshold at time tau is its initial spacing
    advected by the largest principal stretch, spacing0 * max_i(cosh tau -
    kappa_i sinh tau); a pair collides when its geodesic distance drops
    below the smaller of the two thresholds.  Pairs closer than EXCLUSION
    spacings at t = 0 are same-sheet neighbors and never count.

    Candidate pairs come from KD-trees on Poincare ball coordinates, one
    per bucket of particles whose thresholds lie within a factor
    BUCKET_RATIO of each other.  Each bucket pair is queried at half the
    smaller of its two largest thresholds.  Since d_euc <= d_hyp / 2 in
    the ball, the candidates are a superset of the colliding pairs, and
    the exact hit test on geodesic distances decides.  A single query at
    the largest threshold would find the same collisions, but late in the
    flow, when thresholds spread over several octaves, it returns far more
    candidates than can collide.  The trees are sliding-midpoint builds
    (Maneewongvatana and Mount, "It's okay to be skinny, if your friends
    are fat", 1999), unbalanced and uncompacted, cheaper to build and to
    query than balanced ones.  The candidate set does not depend on the
    tree's shape, only the order of the pairs does, and nothing below
    depends on that order.  The candidates' distances come from column
    gathers (hypgeo._pair_dist), equal to hypgeo.dist bit for bit without
    building (P, n+2) row gathers of all P candidates.  The hits' initial
    distances go through hypgeo.dist itself, the call on which
    perfbench's tracer counts the scan's pairs.

    The grid times are independent steps, and their tree builds, queries
    and array kernels run without the GIL, so they go to a thread pool
    with one worker per available CPU.  At most one step per worker is in
    flight.  Results are taken in time order: the first step with a far
    hit wins and the steps still pending are cancelled, and an error in an
    earlier step propagates unchanged.  Steps after the winning one may
    already have run; their results, errors included, are discarded.  So
    the outcome is the serial scan's, bit for bit, for any worker count.

    Returns (cut, cut_pair) and writes nothing into the particles.  cut is
    the first grid time with a collision, +inf if none occurs before the
    smallest focal time; a particle's window is min(cut, own focal time).
    cut_pair is the colliding far pair with the smallest ratio of distance
    to threshold (i < j, d_init, d_hit and threshold), or None when there
    is no collision.
    """
    if particles.count() < 2:
        raise ValueError("need at least two particles to estimate a cut time")
    cut = math.inf
    cut_pair = None
    focal_min = float(np.min(particles.t_focal))
    taus = [float(tau) for tau in np.sort(np.asarray(t_grid, dtype=float))
            if not (tau >= focal_min or tau < 0.0)]
    workers = _scan_workers()
    pool = ThreadPoolExecutor(workers)
    try:
        steps = [pool.submit(_scan_step, particles, tau) for tau in taus[:workers]]
        for k, tau in enumerate(taus):
            hit = steps[k].result()
            if hit is not None:
                cut, cut_pair = tau, hit
                break
            if k + workers < len(taus):
                steps.append(pool.submit(_scan_step, particles, taus[k + workers]))
    finally:
        # waits for the running steps; the queued ones never start
        pool.shutdown(cancel_futures=True)
    return cut, cut_pair


def _scan_workers() -> int:
    """Worker threads of the collision scan: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _scan_step(particles: FlowParticles, tau: float) -> dict | None:
    """One collision-scan time: the deepest far hit at tau, or None."""
    thr = particles.spacing0 * np.maximum(
        np.cosh(tau) - particles.kappa0[:, 0] * np.sinh(tau), 0.0
    )
    if float(np.max(thr)) <= 0.0:
        return None
    pos = particles.positions_at(tau)
    i, j = _candidate_pairs(hypgeo.hyper_to_ball(pos), thr)
    if i.shape[0] == 0:
        return None
    d = hypgeo._pair_dist(pos, i, j)
    limit = np.minimum(thr[i], thr[j])
    hit = d < limit
    if not np.any(hit):
        return None
    ih, jh = i[hit], j[hit]
    d_init = hypgeo.dist(particles.y[ih], particles.y[jh])
    far = d_init >= EXCLUSION * np.maximum(
        particles.spacing0[ih], particles.spacing0[jh]
    )
    if not np.any(far):
        return None
    return _deepest_pair(np.minimum(ih, jh)[far], np.maximum(ih, jh)[far],
                         d_init[far], d[hit][far], limit[hit][far])


def _deepest_pair(i, j, d_init, d_hit, limit) -> dict:
    """The hit with the smallest d_hit / limit, ties to the lowest (i, j)."""
    order = np.lexsort((j, i))
    k = order[int(np.argmin((d_hit / limit)[order]))]
    return {"i": int(i[k]), "j": int(j[k]), "d_init": float(d_init[k]),
            "d_hit": float(d_hit[k]), "threshold": float(limit[k])}


def _active_sums(particles: FlowParticles, active_until: np.ndarray, tau: float):
    """Weighted sums over the particles whose window ends after tau.

    Returns (S_vol, S_nu, area, term1, n_active, H_min, H_max) where
    term1 is the shifted mean-curvature integral, the t-slice of the flow
    functional's boundary term.  While every particle is active the
    initial arrays are read in place, with no masked copies.
    """
    mask = tau < active_until
    n_active = int(np.count_nonzero(mask))
    if n_active == 0:
        return 0.0, 0.0, 0.0, 0.0, 0, math.nan, math.nan
    kap, V0, Vnu0, w0 = particles.kappa0, particles.V0, particles.Vnu0, particles.w0
    if n_active < particles.count():
        kap, V0, Vnu0, w0 = kap[mask], V0[mask], Vnu0[mask], w0[mask]
    H = hypgeo._row_fold(np.add, evolve_curvature(kap, tau))
    low = int(np.argmin(H))
    if H[low] <= particles.n + H_MARGIN:
        raise FlowAssumptionError(
            f"mean curvature {H[low]:.6g} fell to n = {particles.n} at t = {tau:.6g}"
        )
    J = area_jacobian(kap, tau)
    V, Vnu = evolve_potentials(V0, Vnu0, tau)
    w = w0 * J
    S_vol = float(np.sum(V * w))
    S_nu = float(np.sum(Vnu * w))
    area = float(np.sum(w))
    term1 = float(np.sum((V - Vnu) / (H - particles.n) * w))
    return S_vol, S_nu, area, term1, n_active, float(H[low]), float(np.max(H))


@dataclass(frozen=True)
class FlowConfig:
    """Read-only aliases of SAMPLES, SAFETY, CUT_SAMPLES and EXCLUSION.

    Nothing to set: FlowConfig() takes no arguments.  It exists only
    because perfbench/oracle.py reads FlowConfig().exclusion, .cut_samples.
    """

    samples: ClassVar[int] = SAMPLES
    safety: ClassVar[float] = SAFETY
    cut_samples: ClassVar[int] = CUT_SAMPLES
    exclusion: ClassVar[float] = EXCLUSION


@dataclass
class FlowTrace:
    """Sampled flow series plus the verdicts of the monotonicity checks."""

    times: np.ndarray
    Q: np.ndarray
    H_min: np.ndarray
    H_max: np.ndarray
    area: np.ndarray
    levelset_residual: np.ndarray
    levelset_rel: np.ndarray
    n_active: np.ndarray
    t_safe: float
    t_max: float
    dt: float
    cut_estimate: float
    focal_min: float
    q_slack: float
    levelset_tol_rel: float
    hk_lhs0: float
    coarea_volume: float
    q_monotone_ok: bool
    area_decreasing_ok: bool
    h_above_n_ok: bool
    levelset_ok: bool
    round_surface: bool
    window_truncated: bool
    cut_pair: dict | None   # colliding pair behind cut_estimate, None when cut = inf

    def passed(self) -> bool:
        return (self.q_monotone_ok and self.area_decreasing_ok
                and self.h_above_n_ok and self.levelset_ok)

    def to_csv(self, path) -> None:
        lines = ["t,Q,H_min,H_max,area,levelset_residual,n_active"]
        for k in range(len(self.times)):
            lines.append(",".join([
                repr(float(self.times[k])),
                repr(float(self.Q[k])),
                repr(float(self.H_min[k])),
                repr(float(self.H_max[k])),
                repr(float(self.area[k])),
                repr(float(self.levelset_residual[k])),
                str(int(self.n_active[k])),
            ]))
        atomic_write_text(path, "\n".join(lines) + "\n")

    def summary(self) -> dict:
        return {
            "t_safe": self.t_safe,
            "t_max": self.t_max,
            "dt": self.dt,
            "cut_estimate": self.cut_estimate,
            "focal_min": self.focal_min,
            "samples": int(len(self.times)),
            "Q0": float(self.Q[0]),
            "Q_final": float(self.Q[-1]),
            "q_slack": self.q_slack,
            "levelset_tol_rel": self.levelset_tol_rel,
            "max_levelset_rel": float(np.max(np.abs(self.levelset_rel))),
            "q_monotone_ok": self.q_monotone_ok,
            "area_decreasing_ok": self.area_decreasing_ok,
            "h_above_n_ok": self.h_above_n_ok,
            "levelset_ok": self.levelset_ok,
            "round_surface": self.round_surface,
            "window_truncated": self.window_truncated,
            "cut_pair": self.cut_pair,
            "pass": self.passed(),
        }


def verify_flow(graph: RadialGraph, *, geom: SurfaceGeometry | None = None) -> FlowTrace:
    """Run the particle flow on a surface and check its monotone laws.

    Q(t) must not increase between samples (up to a slack budget of
    C h^2 + C' dt^2 relative to the t = 0 boundary term), the active area
    must shrink, H must stay above n, and the level-set identity must
    hold to a relative tolerance of the same form.  Sampling covers
    [0, t_safe = SAFETY * shortest window] in steps of at most t_safe /
    SAMPLES, as calibrated; the tail integrals always run to the longest
    window so the enclosed volume is not silently truncated.

    The level-set residual is asserted only when the initial surface is
    round (umbilicity spread within ROUND_C * h^2).  Off a round surface
    the windows end at different times per particle, so the discrete
    residual carries an O(1) staggering term; it is still recorded in
    the trace for inspection but does not fail the run.

    `geom` defaults to the centered geometry of `graph`; one built from
    another graph is refused with ValueError.
    """
    geom = geometry_for(graph, geom)
    particles = FlowParticles.from_geometry(geom)
    H0 = geom.mean_curvature
    low = int(np.argmin(H0))
    if H0[low] <= particles.n + H_MARGIN:
        raise FlowAssumptionError(
            f"initial mean curvature {H0[low]:.6g} is not above n = {particles.n}"
        )

    focal_min = float(np.min(particles.t_focal))
    scan = np.linspace(0.0, focal_min, CUT_SAMPLES, endpoint=False)
    cut, cut_pair = estimate_cut_time(particles, scan)
    active_until = np.minimum(particles.t_focal, cut)

    window_min = float(np.min(active_until))
    t_max = float(np.max(active_until))
    t_safe = SAFETY * window_min
    if not 0.0 < t_safe <= t_max:
        raise FlowAssumptionError("empty flow window, nothing to verify")

    # dt = t_max / segments <= t_safe / SAMPLES
    segments = math.ceil(SAMPLES * t_max / t_safe)
    taus = np.linspace(0.0, t_max, segments + 1)
    dt = t_max / segments

    S_vol = np.empty(segments + 1)
    S_nu = np.empty(segments + 1)
    area = np.empty(segments + 1)
    term1 = np.empty(segments + 1)
    n_active = np.empty(segments + 1, dtype=int)
    H_min = np.empty(segments + 1)
    H_max = np.empty(segments + 1)
    for k, tau in enumerate(taus):
        S_vol[k], S_nu[k], area[k], term1[k], n_active[k], H_min[k], H_max[k] = \
            _active_sums(particles, active_until, tau)

    # tail[k] = integral of S_vol from taus[k] to t_max, composite trapezoid
    seg = 0.5 * dt * (S_vol[1:] + S_vol[:-1])
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    keep = taus <= t_safe * (1.0 + 1e-12)
    times = taus[keep]
    n = particles.n
    Q = np.exp((n + 1) * times) * (term1[keep] - (n + 1) / n * tail[keep])
    levelset = S_nu[keep] - (n + 1) * tail[keep]
    levelset_rel = levelset / np.maximum(np.abs(S_nu[keep]), 1e-300)

    h = geom.resolution
    scale = max(term1[0], 1e-300)
    q_slack = (Q_C_GRID * h * h + Q_C_TIME * dt * dt) * scale
    ls_tol = LEVELSET_C_GRID * h * h + LEVELSET_C_TIME * dt * dt

    q_monotone_ok = bool(np.all(np.diff(Q) <= q_slack))
    area_decreasing_ok = bool(np.all(np.diff(area[keep]) < 0.0))
    h_above_n_ok = bool(np.all(H_min[keep] > n + H_MARGIN))

    spread = float(np.max(particles.kappa0) - np.min(particles.kappa0))
    round_surface = spread <= ROUND_C * h * h * float(
        np.max(np.abs(particles.kappa0)))
    if round_surface:
        levelset_ok = bool(np.all(np.abs(levelset_rel) <= ls_tol))
    else:
        levelset_ok = True

    return FlowTrace(
        times=times,
        Q=Q,
        H_min=H_min[keep],
        H_max=H_max[keep],
        area=area[keep],
        levelset_residual=levelset,
        levelset_rel=levelset_rel,
        n_active=n_active[keep],
        t_safe=t_safe,
        t_max=t_max,
        dt=dt,
        cut_estimate=cut,
        focal_min=focal_min,
        q_slack=q_slack,
        levelset_tol_rel=ls_tol,
        hk_lhs0=float(term1[0]),
        coarea_volume=float(tail[0]),
        q_monotone_ok=q_monotone_ok,
        area_decreasing_ok=area_decreasing_ok,
        h_above_n_ok=h_above_n_ok,
        levelset_ok=levelset_ok,
        round_surface=round_surface,
        window_truncated=bool(cut < focal_min),
        cut_pair=cut_pair,
    )
