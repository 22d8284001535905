"""Lagrangian unit normal flow with closed-form particle evolution.

verify_flow builds the geometry of the graph it is given.  Each surface
node becomes a particle flying inward along its normal geodesic (the
outward normal's, walked at -t).  Curvatures, potentials and the area
Jacobian all solve their evolution equations in closed form:

    kappa(t) = (kappa cosh t - sinh t) / (cosh t - kappa sinh t)
    V(t)     = V0 cosh t - Vnu0 sinh t
    Vnu(t)   = Vnu0 cosh t - V0 sinh t
    J(t)     = prod_i (cosh t - kappa_i sinh t)

and H(t) = sum_i kappa_i(t).  Their one home is `_evolve`, which forms the
stretch factors cosh t - kappa_i sinh t once per sample.  So the only
numerical errors are the initial geometry and the quadrature in flow
time.  A particle stays active until the first of its focal time (a
Jacobian factor vanishes) and a global collision estimate.  The estimate
scans a fixed grid of CUT_SAMPLES times below the smallest focal
time for a pair that collides, never counting pairs closer than EXCLUSION
spacings at t = 0; estimate_cut_time returns the cut and the pair behind
it, and verify_flow derives every particle's window from them.  The scan
takes candidate pairs from KD-trees on Poincare ball coordinates.  Its
first step runs in the calling thread and lists the far pairs within a
skin of their reach, in a frame of the ball coordinates centred at their
mean and scaled by their RMS spread.  The later steps are independent,
take that list as a value and run on a thread pool with one worker per
available CPU, with the serial scan's result whatever the worker count.
A later step fits its frame to the first one by a linear map A; when A's
smallest singular value, the fit's residuals and the particles' reaches
prove that no unlisted pair can come within reach, the list answers the
step and its KD-tree query is skipped.  That proof is exact, up to a
relative rounding margin, so either path gives the same hits
(estimate_cut_time says how).  A round sphere's steps all take the list.
The per-time sums below stay in the calling thread.  The flow functional

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
from .hypersurface import H_MARGIN, RadialGraph, SurfaceGeometry, build_geometry
from .identities import _config_hash, _software, _surface_record

__all__ = [
    "CUT_SAMPLES",
    "DENOM_TOL",
    "EXCLUSION",
    "SAFETY",
    "SAMPLES",
    "FlowConfig",
    "FlowParticles",
    "FlowTrace",
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
# The scan's far-pair list: the first grid time lists the far pairs within
# (1 + SKIN) times their reach, a later step is answered from the list when
# its measured drift provably stays inside that skin, with a relative
# margin CERT_MARGIN for rounding, and the exclusion rule filters the
# listed pairs FAR_CHUNK at a time.
SKIN = 0.5
CERT_MARGIN = 1e-9
FAR_CHUNK = 1 << 16
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


def _evolve(kappa0, V0, Vnu0, t):
    """(H, J, V, V_nu) at time t of (N, n) curvature rows and (N,) potentials.

    The stretch factors are the curvature law's denominators and J's factors;
    one at or below DENOM_TOL means t is at or past a focal time, where the
    flow map is undefined: FocalTimeError, not a sign flip."""
    ch, sh = np.cosh(t), np.sinh(t)
    factor = ch - kappa0 * sh
    if np.any(factor <= DENOM_TOL):
        raise FocalTimeError("curvature evolution hit a focal time")
    H = hypgeo._row_fold(np.add, (kappa0 * ch - sh) / factor)
    J = hypgeo._row_fold(np.multiply, factor)
    return H, J, V0 * ch - Vnu0 * sh, Vnu0 * ch - V0 * sh


def focal_times(kappa0) -> np.ndarray:
    """Per-row focal times for an (N, n) array of curvature tuples: the
    first time a Jacobian factor vanishes, min_i artanh(1/kappa_i).

    Only curvatures above 1 focus; a row with none gets +inf.
    """
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
    nu0: np.ndarray        # (N, n+2) outward unit normals; the flow runs along -nu0
    kappa0: np.ndarray     # (N, n) principal curvatures, ascending
    V0: np.ndarray         # (N,)
    Vnu0: np.ndarray       # (N,)
    w0: np.ndarray         # (N,) area weights, sum = initial area
    spacing0: np.ndarray = field(init=False)    # (N,) local grid spacing w0^(1/n)
    t_focal: np.ndarray = field(init=False)     # (N,)

    def __post_init__(self):
        self.spacing0 = self.w0 ** (1.0 / self.n)
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
        """Positions X(y, t) on the inward geodesics: the outward ones at -t."""
        return hypgeo.geodesic(self.y, self.nu0, -float(t))


def _octaves(thr):
    """The particles with a positive threshold in buckets of thresholds
    within a factor BUCKET_RATIO of each other, counted down from the
    largest: (members, heads), bucket b being members[heads[b]:heads[b + 1]].
    """
    live = np.flatnonzero(thr > 0.0)
    level = np.floor(np.log(np.max(thr) / thr[live]) / math.log(BUCKET_RATIO))
    order = np.argsort(level, kind="stable")
    return live[order], np.flatnonzero(np.diff(level[order], prepend=-1.0))


def _bucket_pairs(points, members, heads, radius):
    """Yield the index pairs (i, j) of `points` within radius[a, b] of
    each other, one bucket pair a <= b at a time, from one KD-tree per
    bucket."""
    buckets = [(idx, cKDTree(points[idx], balanced_tree=False, compact_nodes=False))
               for idx in np.split(members, heads[1:])]
    for a, (idx_a, tree_a) in enumerate(buckets):
        pairs = tree_a.query_pairs(radius[a, a], output_type="ndarray")
        yield idx_a[pairs[:, 0]], idx_a[pairs[:, 1]]
        for b in range(a + 1, len(buckets)):
            idx_b, tree_b = buckets[b]
            cross = tree_a.sparse_distance_matrix(tree_b, radius[a, b], output_type="ndarray")
            yield idx_a[cross["i"]], idx_b[cross["j"]]


def _candidate_pairs(ball, thr):
    """Index pairs (i, j) that may satisfy d_hyp < min(thr_i, thr_j).

    The bucketed query of estimate_cut_time, each bucket pair at half the
    smaller of the two buckets' largest thresholds; particles with a zero
    threshold cannot collide and are left out.
    """
    members, heads = _octaves(thr)
    top = np.maximum.reduceat(thr[members], heads)
    pairs = list(_bucket_pairs(ball, members, heads, np.minimum.outer(top, top) / 2.0))
    return np.concatenate([i for i, _ in pairs]), np.concatenate([j for _, j in pairs])


def _frame(pos, thr):
    """A step's frame coordinates z = (x - c) / s and reaches need = thr / (2 s).

    x are the Poincare ball coordinates of the positions, c their mean and
    s their RMS distance from c.  As d_euc <= d_hyp / 2 in the ball, a pair
    that hits has |z_i - z_j| < min(need_i, need_j).  None when s is not a
    positive finite number.
    """
    z = hypgeo.hyper_to_ball(pos)
    z -= np.mean(z, axis=0)
    s = math.sqrt(float(np.mean(hypgeo._row_fold(np.add, z * z))))
    if not 0.0 < s < math.inf:
        return None
    z /= s
    return z, thr / (2.0 * s)


def _far(particles: FlowParticles, i, j, d_init) -> np.ndarray:
    """Which pairs (i, j) with initial distances d_init are far: at least
    EXCLUSION spacings apart at t = 0."""
    return d_init >= EXCLUSION * np.maximum(particles.spacing0[i], particles.spacing0[j])


class _FarList:
    """The far pairs of the scan's first time, listed with a skin.

    The anchor's particles go into the octave buckets of their reaches
    need0 in its frame z0 (see _frame).  For each bucket pair (a, b) the
    list holds every far pair within reach[a, b] = (1 + SKIN) min(top_a,
    top_b) of each other in z0, top being a bucket's largest need0, so
    every far hit at the anchor is on it.  The exclusion rule runs on
    FAR_CHUNK pairs at a time.
    """

    def __init__(self, particles: FlowParticles, z0, need0):
        self.z0 = z0
        self.members, self.heads = _octaves(need0)
        top = np.maximum.reduceat(need0[self.members], self.heads)
        self.reach = (1.0 + SKIN) * np.minimum.outer(top, top)
        # the normal equations of every later fit z ~ z0 A
        self.gram_pinv = np.linalg.pinv(z0.T @ z0)
        firsts, seconds = [self.members[:0]], [self.members[:0]]
        for i, j in _bucket_pairs(z0, self.members, self.heads, self.reach):
            for lo in range(0, i.shape[0], FAR_CHUNK):
                ic, jc = i[lo:lo + FAR_CHUNK], j[lo:lo + FAR_CHUNK]
                far = _far(particles, ic, jc, hypgeo._pair_dist(particles.y, ic, jc))
                firsts.append(ic[far])
                seconds.append(jc[far])
        self.i, self.j = np.concatenate(firsts), np.concatenate(seconds)

    def covers(self, z, need) -> bool:
        """Whether every far pair that can hit in frame z with reaches need
        is on the list.

        Fits z ~ z0 A by least squares and takes the residuals r_i = |z_i -
        z0_i A| and A's smallest singular value sigma.  An unlisted pair of
        buckets a, b has |z0_i - z0_j| >= reach[a, b], so |z_i - z_j| >=
        sigma reach[a, b] - r_i - r_j.  The step is covered when that bound
        exceeds min(nmax_a, nmax_b) for every bucket pair, nmax and rmax
        being the buckets' largest need and r, with a relative CERT_MARGIN
        for rounding: then no unlisted pair comes within its reach.
        """
        A = self.gram_pinv @ (self.z0.T @ z)
        sigma = np.linalg.svd(A, compute_uv=False)[-1]
        res = z - self.z0 @ A
        r = np.sqrt(hypgeo._row_fold(np.add, res * res))
        nmax = np.maximum.reduceat(need[self.members], self.heads)
        rmax = np.maximum.reduceat(r[self.members], self.heads)
        bound = np.minimum.outer(nmax, nmax) + rmax[:, None] + rmax
        return bool(np.all(bound * (1.0 + CERT_MARGIN) < sigma * self.reach))


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

    Most steps skip that query: a Verlet list (Verlet, Phys. Rev. 159, 98,
    1967) of far pairs, built once, answers every step that provably has
    no far hit off it.  A step's frame coordinates are z = (x - c) / s,
    with x the ball coordinates, c their mean and s their RMS distance
    from c; a hit then has |z_i - z_j| < min(need_i, need_j), need =
    thr / (2 s).  The first grid time, the anchor, buckets its particles
    by need and lists every far pair within (1 + SKIN) times its bucket
    pair's smaller top need, and answers itself from that list.  A later
    step fits z ~ z0 A to the anchor's frame z0 by least squares.  With
    sigma the smallest singular value of A and r_i = |z_i - z0_i A|, an
    unlisted pair is at least sigma R - r_i - r_j apart, R being the
    radius its bucket pair was listed at.  When, for every bucket pair,
    that bound exceeds the smaller of the two buckets' largest reaches,
    checked with a relative margin CERT_MARGIN, no unlisted pair can come
    within its reach, so none can hit: the list holds every far hit, and
    the step tests the list with the same kernels.  Otherwise the step
    runs the query.  Either path finds the same far
    hits, so the outcome never depends on which one ran.  A round sphere
    shrinks without changing shape and is answered from the list at every
    step; a degenerate frame (two particles) has sigma = 0 and never is.

    The anchor runs in the calling thread and builds the list; a hit
    there returns before any worker starts.  The later grid times are
    independent steps that take the list as a value, and their tree
    builds, queries and array kernels run without the GIL, so they go to
    a thread pool with one worker per available CPU.  At most one step
    per worker is in flight, and each grid time calls positions_at once.
    Once the calling thread has taken a step that the list could not
    answer, the steps submitted after it go straight to the query.
    Results are taken in time order: the first step with a far hit wins,
    and an error in an earlier step propagates unchanged.  Steps after
    the winning one may already have run; their results, errors
    included, are discarded.  So the outcome is the serial scan's, bit
    for bit, for any worker count.

    Returns (cut, cut_pair) and writes nothing into the particles.  cut is
    the first grid time with a collision, +inf if none occurs before the
    smallest focal time; a particle's window is min(cut, own focal time).
    cut_pair is the colliding far pair with the smallest ratio of distance
    to threshold (i < j, d_init, d_hit and threshold), or None when there
    is no collision.  A t_grid that is not one-dimensional, or that holds a
    NaN time, is refused with ValueError.
    """
    if particles.count() < 2:
        raise ValueError("need at least two particles to estimate a cut time")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"t_grid must be one-dimensional, not of shape {grid.shape}")
    nan = np.flatnonzero(np.isnan(grid))
    if nan.size:
        raise ValueError(f"t_grid[{int(nan[0])}] is NaN, not a time")
    focal_min = float(np.min(particles.t_focal))
    taus = [float(tau) for tau in np.sort(grid)
            if not (tau >= focal_min or tau < 0.0)]
    if not taus:
        return math.inf, None
    hit, far = _first_step(particles, taus[0])
    if hit is not None:
        return taus[0], hit
    later = taus[1:]
    workers = _scan_workers()
    with ThreadPoolExecutor(workers) as pool:
        steps = [pool.submit(_scan_step, particles, tau, far) for tau in later[:workers]]
        for k, tau in enumerate(later):
            hit, listed = steps[k].result()
            if hit is not None:
                return tau, hit
            if listed is None:
                # the drift left the skin: later steps go straight to the query
                far = None
            if k + workers < len(later):
                steps.append(pool.submit(_scan_step, particles, later[k + workers], far))
    return math.inf, None


def _scan_workers() -> int:
    """Worker threads of the collision scan: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _thresholds(particles: FlowParticles, tau: float) -> np.ndarray:
    """The particles' collision thresholds at tau."""
    return particles.spacing0 * np.maximum(
        np.cosh(tau) - particles.kappa0[:, 0] * np.sinh(tau), 0.0
    )


def _first_step(particles: FlowParticles, tau: float):
    """The scan's first time: (its deepest far hit or None, its far list).

    The list answers the step itself.  Without a list, when a threshold is
    zero or the frame is degenerate, the step runs the query and returns
    None for the list.
    """
    thr = _thresholds(particles, tau)
    if float(np.max(thr)) <= 0.0:
        return None, None
    pos = particles.positions_at(tau)
    frame = _frame(pos, thr) if np.all(thr > 0.0) else None
    far = None if frame is None else _FarList(particles, *frame)
    return _deepest_far_hit(particles, pos, thr, far), far


def _scan_step(particles: FlowParticles, tau: float, far):
    """A later scan time: (its deepest far hit or None, `far` when it
    answered the step, None when the query ran).

    `far` is the first time's _FarList, or None to skip it.
    """
    thr = _thresholds(particles, tau)
    if float(np.max(thr)) <= 0.0:
        return None, None
    pos = particles.positions_at(tau)
    frame = None if far is None else _frame(pos, thr)
    if frame is None or not far.covers(*frame):
        far = None
    return _deepest_far_hit(particles, pos, thr, far), far


def _deepest_far_hit(particles: FlowParticles, pos, thr, far) -> dict | None:
    """The deepest far hit at positions pos among the pairs of the _FarList
    far, or of the bucketed query when far is None; None when there is none."""
    if far is None:
        i, j = _candidate_pairs(hypgeo.hyper_to_ball(pos), thr)
    else:
        i, j = far.i, far.j
    if i.shape[0] == 0:
        return None
    d = hypgeo._pair_dist(pos, i, j)
    limit = np.minimum(thr[i], thr[j])
    hit = d < limit
    if not np.any(hit):
        return None
    ih, jh = i[hit], j[hit]
    d_init = hypgeo.dist(particles.y[ih], particles.y[jh])
    keep = _far(particles, ih, jh, d_init)
    if not np.any(keep):
        return None
    return _deepest_pair(np.minimum(ih, jh)[keep], np.maximum(ih, jh)[keep],
                         d_init[keep], d[hit][keep], limit[hit][keep])


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
    H, J, V, Vnu = _evolve(kap, V0, Vnu0, tau)
    low = int(np.argmin(H))
    if H[low] <= particles.n + H_MARGIN:
        raise FlowAssumptionError(
            f"mean curvature {H[low]:.6g} fell to n = {particles.n} at t = {tau:.6g}"
        )
    w = w0 * J
    S_vol = float(np.sum(V * w))
    S_nu = float(np.sum(Vnu * w))
    area = float(np.sum(w))
    term1 = float(np.sum((V - Vnu) / (H - particles.n) * w))
    return S_vol, S_nu, area, term1, n_active, float(H[low]), float(np.max(H))


@dataclass(frozen=True)
class FlowConfig:
    """Read-only aliases of CUT_SAMPLES and EXCLUSION.

    Nothing to set: FlowConfig() takes no arguments.  It exists only
    because perfbench/oracle.py reads FlowConfig().exclusion, .cut_samples.
    """

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
    provenance: dict        # config_hash and software versions, as a report's

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
            "provenance": self.provenance,
        }


def verify_flow(graph: RadialGraph) -> FlowTrace:
    """Run the particle flow on a surface and check its monotone laws.

    Q(t) must not increase between samples (up to a slack budget of
    C h^2 + C' dt^2 relative to the t = 0 boundary term), the active area
    must shrink, H must stay above n, and the level-set identity must
    hold to a relative tolerance of the same form.  Sampling covers
    [0, t_safe = SAFETY * shortest window] in steps of at most t_safe /
    SAMPLES, as calibrated; the tail integrals always run to the longest
    window so the enclosed volume is not silently truncated.  The sums at
    every time step fill one array, and the trace keeps one prefix slice
    of it: the steps up to t_safe, which are the ones judged.

    The level-set residual is asserted only when the initial surface is
    round (umbilicity spread within ROUND_C * h^2).  Off a round surface
    the windows end at different times per particle, so the discrete
    residual carries an O(1) staggering term; it is still recorded in
    the trace for inspection but does not fail the run.

    The flow builds the centered geometry of `graph` itself, so it always
    runs on the surface it is given.  Its provenance hashes the flow's fixed
    constants and the surface record, then rho's bytes (`_config_hash`, as a
    report does), and names the software; it holds no timestamp, so a
    summary is deterministic.
    """
    geom = build_geometry(graph)
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

    # one row per series of `_active_sums`, one column per time in taus
    samples = np.array([_active_sums(particles, active_until, tau) for tau in taus]).T.copy()

    # tail[k] = integral of S_vol (row 0) from taus[k] to t_max, composite trapezoid
    seg = 0.5 * dt * (samples[0, 1:] + samples[0, :-1])
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    # taus increase, so the judged times, those up to t_safe, are a prefix
    keep = int(np.count_nonzero(taus <= t_safe * (1.0 + 1e-12)))
    times, tail = taus[:keep], tail[:keep]
    _, S_nu, area, term1, n_active, H_min, H_max = samples[:, :keep]
    n = particles.n
    Q = np.exp((n + 1) * times) * (term1 - (n + 1) / n * tail)
    levelset = S_nu - (n + 1) * tail
    levelset_rel = levelset / np.maximum(np.abs(S_nu), 1e-300)

    h = geom.resolution
    scale = max(term1[0], 1e-300)
    q_slack = (Q_C_GRID * h * h + Q_C_TIME * dt * dt) * scale
    ls_tol = LEVELSET_C_GRID * h * h + LEVELSET_C_TIME * dt * dt

    q_monotone_ok = bool(np.all(np.diff(Q) <= q_slack))
    area_decreasing_ok = bool(np.all(np.diff(area) < 0.0))
    h_above_n_ok = bool(np.all(H_min > n + H_MARGIN))

    round_surface = geom.umbilicity_spread <= ROUND_C * h * h * float(
        np.max(np.abs(particles.kappa0)))
    if round_surface:
        levelset_ok = bool(np.all(np.abs(levelset_rel) <= ls_tol))
    else:
        levelset_ok = True

    return FlowTrace(
        times=times,
        Q=Q,
        H_min=H_min,
        H_max=H_max,
        area=area,
        levelset_residual=levelset,
        levelset_rel=levelset_rel,
        n_active=n_active.astype(int),
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
        provenance={"config_hash": _config_hash(
            {"samples": SAMPLES, "safety": SAFETY, "cut_samples": CUT_SAMPLES,
             "exclusion": EXCLUSION, "surface": _surface_record(graph)}, graph.rho),
            **_software()},
    )
