"""Particle flow: closed-form evolution laws, windows, and the functional.

The evolution formulas are exact solutions of the flow ODEs, so the
oracle here is direct numerical integration (RK4 at a step small enough
to be far below the comparison tolerance).  Spheres reduce every series
to closed forms in R - t, which pins the Jacobian, the potentials and
the functional Q simultaneously.
"""

import copy
import csv
import dataclasses
import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hkverify import hypgeo, normalflow
from hkverify.errors import FlowAssumptionError, FocalTimeError
from hkverify.hypersurface import (
    H_MARGIN,
    RadialGraph,
    build_geometry,
    gen_perturbed_sphere,
    gen_sphere,
    weighted_volume,
)
from hkverify.normalflow import (
    FlowConfig,
    FlowParticles,
    _active_sums,
    area_jacobian,
    estimate_cut_time,
    evolve_curvature,
    evolve_potentials,
    focal_time,
    focal_times,
    verify_flow,
)

import hypgeo_oracle as oracle


def rk4_curvature(k0, T, steps):
    """Integrate kappa' = kappa^2 - 1 directly."""
    k, h = float(k0), T / steps
    for _ in range(steps):
        f = lambda x: x * x - 1.0
        a = f(k)
        b = f(k + 0.5 * h * a)
        c = f(k + 0.5 * h * b)
        d = f(k + h * c)
        k += (h / 6.0) * (a + 2 * b + 2 * c + d)
    return k


class TestCurvatureEvolution:
    def test_sphere_closed_form(self):
        R = 1.0
        k0 = math.cosh(R) / math.sinh(R)
        for t in (0.0, 0.2, 0.5, 0.9):
            want = math.cosh(R - t) / math.sinh(R - t)
            assert evolve_curvature(k0, t) == pytest.approx(want, rel=1e-12)

    def test_horosphere_fixed_point(self):
        assert evolve_curvature(1.0, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_against_rk4(self, rng):
        for _ in range(25):
            k0 = float(rng.uniform(-2.0, 3.0))
            tf = focal_time([k0])
            T = min(0.9 * tf, 1.5)
            got = evolve_curvature(k0, T)
            want = rk4_curvature(k0, T, max(int(T / 1e-3), 10))
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_focal_crossing_is_an_error(self):
        with pytest.raises(FocalTimeError):
            evolve_curvature(2.0, 0.6)  # focal at artanh(1/2) ~ 0.549
        with pytest.raises(FocalTimeError):
            area_jacobian([2.0, 0.3], 0.6)

    def test_broadcasts(self):
        k = np.array([[0.5, 2.0], [0.0, 1.2]])
        out = evolve_curvature(k, 0.3)
        assert out.shape == k.shape
        assert out[0, 0] == pytest.approx(evolve_curvature(0.5, 0.3))


class TestPotentialEvolution:
    def test_sphere_closed_form(self):
        R = 2.0
        for t in (0.0, 0.4, 1.1):
            V, Vnu = evolve_potentials(math.cosh(R), math.sinh(R), t)
            assert V == pytest.approx(math.cosh(R - t), rel=1e-12)
            assert Vnu == pytest.approx(math.sinh(R - t), rel=1e-12)

    def test_boost_invariant(self, rng):
        for _ in range(50):
            V0 = float(rng.uniform(1.0, 10.0))
            Vnu0 = float(rng.uniform(-0.99, 0.99)) * math.sqrt(V0 * V0 - 1.0)
            t = float(rng.uniform(-3.0, 3.0))
            V, Vnu = evolve_potentials(V0, Vnu0, t)
            assert V * V - Vnu * Vnu == pytest.approx(
                V0 * V0 - Vnu0 * Vnu0, rel=1e-10)

    def test_matches_transported_geometry(self, surface):
        # the closed forms must agree with actually moving the points and
        # normals along their geodesics
        R, t = 1.0, 0.4
        _, geom = surface("sphere", radius=R, offset=0.3, grid=(32, 64))
        particles = FlowParticles.from_geometry(geom)
        pos = particles.positions_at(t)
        V_want = hypgeo.potential(pos, hypgeo.origin(2))
        nu_t = math.cosh(t) * particles.nu0 - math.sinh(t) * particles.y
        Vnu_want = hypgeo.potential(nu_t, hypgeo.origin(2))
        V, Vnu = evolve_potentials(particles.V0, particles.Vnu0, t)
        assert np.max(np.abs(V - V_want)) <= 1e-10 * np.max(V_want)
        assert np.max(np.abs(Vnu - Vnu_want)) <= 1e-10 * np.max(np.abs(Vnu_want))
        # evolved normals stay unit and orthogonal to the moving point
        assert np.max(np.abs(hypgeo.minkowski_inner(nu_t, nu_t) - 1.0)) <= 1e-10
        assert np.max(np.abs(hypgeo.minkowski_inner(nu_t, pos))) <= 1e-10


class TestJacobian:
    def test_identity_at_zero(self):
        assert area_jacobian([1.7, 0.4], 0.0) == 1.0

    def test_sphere_closed_form(self):
        R = 1.0
        k0 = [math.cosh(R) / math.sinh(R)] * 2
        for t in (0.1, 0.5, 0.9):
            want = (math.sinh(R - t) / math.sinh(R)) ** 2
            assert area_jacobian(k0, t) == pytest.approx(want, rel=1e-12)

    def test_log_derivative_is_minus_h(self, rng):
        # d/dt log J = -H along the flow, at t = 0 and mid-window
        d = 1e-5
        for _ in range(20):
            k = rng.uniform(-1.5, 2.5, size=2)
            tf = focal_time(k)
            for t in (0.0, min(0.4 * tf, 0.5)):
                lo = math.log(area_jacobian(k, t - d))
                hi = math.log(area_jacobian(k, t + d))
                H = float(np.sum(evolve_curvature(k, t))) if t else float(np.sum(k))
                assert (hi - lo) / (2 * d) == pytest.approx(-H, abs=1e-6 * (1 + abs(H)))

    def test_mean_curvature_rate(self, rng):
        # dH/dt at t = 0 equals |A|^2 - n
        d = 1e-5
        for _ in range(20):
            k = rng.uniform(-1.5, 2.5, size=2)
            Hp = float(np.sum(evolve_curvature(k, d)))
            Hm = float(np.sum(evolve_curvature(k, -d)))
            want = float(np.sum(k * k)) - 2.0
            assert (Hp - Hm) / (2 * d) == pytest.approx(want, abs=1e-6 * (1 + abs(want)))


# Curvatures with signed zeros and subnormals drawn often; below 1.25 no
# Jacobian factor reaches zero before t = artanh(0.8) ~ 1.1.
KAPPAS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-3.0, 1.25))
LEADING = st.sampled_from([(), (1,), (5,), (2, 3)])


def masked_active_sums(p, active_until, tau):
    """_active_sums as a mask-first reference with numpy's own reductions."""
    mask = tau < active_until
    if not np.any(mask):
        return 0.0, 0.0, 0.0, 0.0, 0, math.nan, math.nan
    kap = p.kappa0[mask]
    ch, sh = np.cosh(tau), np.sinh(tau)
    H = np.sum((kap * ch - sh) / (ch - kap * sh), axis=-1)
    w = p.w0[mask] * np.prod(ch - kap * sh, axis=-1)
    V = p.V0[mask] * ch - p.Vnu0[mask] * sh
    Vnu = p.Vnu0[mask] * ch - p.V0[mask] * sh
    return (float(np.sum(V * w)), float(np.sum(Vnu * w)), float(np.sum(w)),
            float(np.sum((V - Vnu) / (H - p.n) * w)), int(np.count_nonzero(mask)),
            float(np.min(H)), float(np.max(H)))


class TestRowKernels:
    """Short-row products and sums equal np.prod and np.sum bit for bit."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_area_jacobian_matches_np_prod(self, data):
        kappa0 = data.draw(hnp.arrays(
            float, data.draw(LEADING) + (data.draw(st.integers(1, 3)),), elements=KAPPAS))
        t = data.draw(st.floats(0.0, 1.0))
        want = np.prod(np.cosh(t) - kappa0 * np.sinh(t), axis=-1)
        assert oracle.same_bits(area_jacobian(kappa0, t), want)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_mean_curvature_matches_np_sum(self, surface, data):
        for n, grid in ((1, (8,)), (2, (8, 16))):
            geom = copy.copy(surface("sphere", radius=1.0, n=n, grid=grid)[1])
            geom.kappa = data.draw(hnp.arrays(
                float, (geom.node_count(), n), elements=st.one_of(
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e300, 1e300))))
            assert oracle.same_bits(geom.mean_curvature, np.sum(geom.kappa, axis=-1))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_active_sums_match_masked_reference(self, data):
        n = data.draw(st.sampled_from([1, 2]))
        N = data.draw(st.integers(2, 12))
        kappa0 = np.sort(data.draw(hnp.arrays(float, (N, n), elements=KAPPAS)), axis=-1)
        V0 = data.draw(hnp.arrays(float, N, elements=st.floats(1.0, 10.0)))
        Vnu0 = V0 * data.draw(hnp.arrays(float, N, elements=st.floats(-0.9, 0.9)))
        w0 = data.draw(hnp.arrays(float, N, elements=st.floats(1e-6, 1.0)))
        p = FlowParticles(n=n, y=np.zeros((N, n + 2)), nu0=np.zeros((N, n + 2)),
                          kappa0=kappa0, V0=V0, Vnu0=Vnu0, w0=w0)
        active_until = np.minimum(p.t_focal, data.draw(hnp.arrays(
            float, N, elements=st.floats(0.2, 1.0))))
        # every particle active, then some of them
        for tau in (data.draw(st.floats(0.0, 0.19)), data.draw(st.floats(0.2, 1.0))):
            active = tau < active_until
            if np.any(active) and np.min(evolve_curvature(kappa0[active], tau).sum(-1)) <= n + H_MARGIN:
                with pytest.raises(FlowAssumptionError):
                    _active_sums(p, active_until, tau)
            else:
                assert oracle.same_bits(_active_sums(p, active_until, tau),
                                        masked_active_sums(p, active_until, tau))


class TestFocalTimes:
    def test_frozen_value(self):
        assert focal_time([2.0]) == pytest.approx(0.5493061443340549, abs=1e-15)

    def test_sphere_focuses_at_its_radius(self):
        for R in (0.5, 1.0, 2.0):
            k = math.cosh(R) / math.sinh(R)
            assert focal_time([k, k]) == pytest.approx(R, abs=1e-12)

    def test_nonfocusing(self):
        assert focal_time([1.0, 0.3, -5.0]) == math.inf
        assert focal_time([]) == math.inf

    def test_vectorized_rows(self):
        k = np.array([[2.0, 4.0], [0.5, 1.0], [3.0, -1.0]])
        t = focal_times(k)
        assert t[0] == pytest.approx(math.atanh(0.25))
        assert t[1] == math.inf
        assert t[2] == pytest.approx(math.atanh(1.0 / 3.0))

    def test_subnormal_curvatures_never_focus(self):
        # 1 / 5e-324 overflows; warnings are errors in the test run
        t = focal_times(np.array([[5e-324, 2.0], [-5e-324, 2.0], [5e-324, -5e-324]]))
        assert list(t) == [focal_time([2.0]), focal_time([2.0]), math.inf]


class TestParticles:
    def test_from_geometry(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        p = FlowParticles.from_geometry(geom)
        assert p.count() == geom.node_count()
        assert np.sum(p.w0) == pytest.approx(geom.area(), rel=1e-14)
        assert np.max(np.abs(p.positions_at(0.0) - p.y)) <= 1e-12
        assert np.max(np.abs(p.t_focal - 1.0)) <= 1e-12  # sphere R = 1
        # the particles share the geometry's arrays instead of copying them
        assert p.y is geom.position and p.nu0 is geom.normal and p.kappa0 is geom.kappa
        assert p.V0 is geom.V and p.Vnu0 is geom.V_nu and p.w0 is geom.area_weight

    def test_spacing_scale(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        p = FlowParticles.from_geometry(geom)
        assert np.all(p.spacing0 == np.sqrt(p.w0))


def antipodal_pair(R=1.0, s0=0.05):
    o = hypgeo.origin(1)
    u = np.array([0.0, 1.0, 0.0])
    y = np.stack([hypgeo.geodesic(o, u, R), hypgeo.geodesic(o, -u, R)])
    nu = np.stack([oracle.geodesic_velocity(o, u, R),
                   oracle.geodesic_velocity(o, -u, R)])
    return FlowParticles(
        n=1, y=y, nu0=nu, kappa0=np.zeros((2, 1)),
        V0=np.full(2, math.cosh(R)), Vnu0=np.full(2, math.sinh(R)),
        w0=np.broadcast_to(np.asarray(s0, dtype=float), (2,)).copy(),
    )


def brute_force_cut(particles, t_grid, exclusion=normalflow.EXCLUSION, chunk=512):
    """O(N^2) reference for the collision rule in estimate_cut_time's docstring.

    Every pair i < j is screened by its Minkowski product from one Gram
    matrix per row chunk, kept when within 1e-12 of cosh(min(thr_i, thr_j))
    (far wider than the rounding of either product); hypgeo.dist then
    decides exactly, as the scan does.  Returns (cut, pair): pair is the
    far hit at the cut with the smallest d_hit / threshold, ties to the
    lowest (i, j), as the dict estimate_cut_time returns, or None.
    """
    N = particles.count()
    focal_min = float(np.min(particles.t_focal))
    kappa_min = particles.kappa0[:, 0]
    sign = np.ones(particles.n + 2)
    sign[0] = -1.0
    for tau in np.sort(np.asarray(t_grid, dtype=float)):
        if tau >= focal_min or tau < 0.0:
            continue
        thr = particles.spacing0 * np.maximum(
            np.cosh(tau) - kappa_min * np.sinh(tau), 0.0)
        bound = np.cosh(thr) + 1e-12
        pos = particles.positions_at(tau)
        hits = []
        for lo in range(0, N, chunk):
            hi = min(lo + chunk, N)
            c = -(pos[lo:hi] * sign) @ pos[lo:].T
            r, s = np.nonzero(c < bound[lo:hi, None])
            i, j = r + lo, s + lo
            keep = (i < j) & (c[r, s] < bound[j])
            i, j = i[keep], j[keep]
            d_hit = hypgeo.dist(pos[i], pos[j])
            limit = np.minimum(thr[i], thr[j])
            hit = d_hit < limit
            i, j, d_hit, limit = i[hit], j[hit], d_hit[hit], limit[hit]
            d_init = hypgeo.dist(particles.y[i], particles.y[j])
            far = d_init >= exclusion * np.maximum(
                particles.spacing0[i], particles.spacing0[j])
            hits += zip((d_hit / limit)[far].tolist(), i[far].tolist(), j[far].tolist(),
                        d_init[far].tolist(), d_hit[far].tolist(), limit[far].tolist())
        if hits:
            _, i, j, d_init, d_hit, limit = min(hits)
            return float(tau), {"i": i, "j": j, "d_init": d_init, "d_hit": d_hit,
                                "threshold": limit}
    return math.inf, None


class TestCutTime:
    def test_sphere_never_collides(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        p = FlowParticles.from_geometry(geom)
        cut, pair = estimate_cut_time(p, np.linspace(0.0, 1.0, 64, endpoint=False))
        assert cut == math.inf and pair is None

    def test_head_on_pair(self):
        # two flat particles at distance 2R close at speed 2; they collide
        # when the gap falls below the advected spacing s0 cosh(t), at the
        # root of 2(R - t) = s0 cosh(t)
        p = antipodal_pair()
        grid = np.linspace(0.0, 1.2, 2401)
        cut, pair = estimate_cut_time(p, grid)
        t_star = 0.962498
        assert cut >= t_star - 1e-9
        assert cut <= t_star + 2 * (grid[1] - grid[0])
        assert np.all(p.t_focal == math.inf)  # flat particles never focus
        assert (pair["i"], pair["j"]) == (0, 1)
        assert pair["d_init"] == pytest.approx(2.0, rel=1e-12)
        assert pair["d_hit"] < pair["threshold"]
        assert pair["threshold"] == pytest.approx(0.05 * math.cosh(cut), rel=1e-12)

    def test_exclusion_suppresses_known_neighbors(self):
        # spacing 1: the pair starts 2 spacings apart, inside the exclusion
        # radius, so its collision never counts
        grid = np.linspace(0.0, 1.2, 601)
        assert math.isfinite(brute_force_cut(antipodal_pair(s0=1.0), grid, exclusion=0.0)[0])
        cut, pair = estimate_cut_time(antipodal_pair(s0=1.0), grid)
        assert cut == math.inf
        assert pair is None

    @pytest.mark.parametrize("case", ["sphere", "lobe", "pair"])
    def test_matches_brute_force(self, case):
        # the bucketed candidate query must find exactly the collisions of
        # an all-pairs scan: the same cut float, the same windows
        if case == "pair":
            # spacings 0.05 and 0.0005 put the two particles six threshold
            # buckets apart, so the hit comes from a cross-bucket query
            make = lambda: antipodal_pair(s0=[0.05, 0.0005])
            grid = np.linspace(0.0, 1.2, 2401)
        else:
            if case == "sphere":
                g = gen_sphere(1.0, grid=(32, 64))
            else:
                g = gen_perturbed_sphere(1.0, 0.2, (2, 0), grid=(48, 96))
            geom = build_geometry(g)
            make = lambda: FlowParticles.from_geometry(geom)
            grid = np.linspace(0.0, float(np.min(make().t_focal)), 96, endpoint=False)
        cut, cut_pair = estimate_cut_time(make(), grid)
        want, pair = brute_force_cut(make(), grid)
        assert cut == want
        # the same deepest far pair, so the scan found the same far-hit set
        assert cut_pair == pair
        if case == "sphere":
            assert cut == math.inf and pair is None
        elif case == "lobe":
            assert cut == pytest.approx(0.7488, abs=1e-4)
        else:
            assert math.isfinite(cut) and cut_pair["threshold"] < 0.001

    def test_needs_two_particles(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        p = FlowParticles.from_geometry(geom)
        p.y, p.nu0, p.kappa0 = p.y[:1], p.nu0[:1], p.kappa0[:1]
        p.V0, p.Vnu0, p.w0 = p.V0[:1], p.Vnu0[:1], p.w0[:1]
        p.spacing0, p.t_focal = p.spacing0[:1], p.t_focal[:1]
        with pytest.raises(ValueError):
            estimate_cut_time(p, [0.1])


@functools.cache
def lobe_scan_case():
    """A small wide lobe whose scan hits at step 86 of 96, and its reference."""
    geom = build_geometry(gen_perturbed_sphere(1.0, 0.2, (2, 0), grid=(24, 48)))
    make = lambda: FlowParticles.from_geometry(geom)
    grid = np.linspace(0.0, float(np.min(make().t_focal)), 96, endpoint=False)
    return make, grid, brute_force_cut(make(), grid)


# head-on pair grids, with the collision at t* = 0.962498 (test_head_on_pair)
PAIR_GRIDS = {
    "first-step": np.array([0.97, 1.0, 1.1]),
    "last-step": np.linspace(0.0, 0.97, 98),
    "no-hit": np.linspace(0.0, 0.95, 96),
}


class TestScanPool:
    """The scan's steps run on a thread pool with the serial outcome."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """Times of the scan steps that ran, counted under a lock."""
        lock = threading.Lock()
        taus = []
        positions_at = FlowParticles.positions_at

        def counted(particles, t):
            with lock:
                taus.append(float(t))
            return positions_at(particles, t)

        monkeypatch.setattr(FlowParticles, "positions_at", counted)
        return taus

    @pytest.mark.parametrize("workers", [1, 2, 4, 8, None])
    def test_worker_count_changes_nothing(self, monkeypatch, workers):
        if workers is not None:
            monkeypatch.setattr(normalflow, "_scan_workers", lambda: workers)
        make, grid, (want, pair) = lobe_scan_case()
        p = make()
        # more workers than cores, switching threads as often as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cut, cut_pair = estimate_cut_time(p, grid)
        finally:
            sys.setswitchinterval(interval)
        assert cut == want == grid[86]
        assert cut_pair == pair

    @pytest.mark.parametrize("workers", [1, 2, 4, None])
    @pytest.mark.parametrize("case", sorted(PAIR_GRIDS))
    def test_first_last_and_no_hit(self, monkeypatch, steps, case, workers):
        if workers is not None:
            monkeypatch.setattr(normalflow, "_scan_workers", lambda: workers)
        workers = normalflow._scan_workers()
        grid = PAIR_GRIDS[case]
        want, pair = brute_force_cut(antipodal_pair(), grid)
        steps.clear()
        cut, cut_pair = estimate_cut_time(antipodal_pair(), grid)
        assert cut == want and cut_pair == pair
        if case == "no-hit":
            assert cut == math.inf and sorted(steps) == list(grid)
        else:
            k = int(np.flatnonzero(grid == cut)[0])
            assert k == {"first-step": 0, "last-step": len(grid) - 1}[case]
            # every step up to the hit ran, and at most one more per worker
            assert set(grid[:k + 1]) <= set(steps)
            assert len(steps) <= k + workers

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_later_steps_stop_after_a_hit(self, monkeypatch, steps, workers):
        monkeypatch.setattr(normalflow, "_scan_workers", lambda: workers)
        grid = np.linspace(0.0, 1.2, 2401)
        cut, _ = estimate_cut_time(antipodal_pair(), grid)
        k = int(np.flatnonzero(grid == cut)[0])
        assert k + 1 <= len(steps) <= k + workers < len(grid)

    def test_worker_error_propagates(self):
        # a lower-sheet particle makes every step's geodesic refuse
        p = antipodal_pair()
        p.y[1], p.nu0[1] = -p.y[1], -p.nu0[1]
        p.__post_init__()
        with pytest.raises(ValueError, match="lower sheet"):
            estimate_cut_time(p, np.linspace(0.0, 1.2, 64))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_error_before_the_hit_wins_after_it_is_dropped(self, monkeypatch, workers):
        monkeypatch.setattr(normalflow, "_scan_workers", lambda: workers)
        positions_at = FlowParticles.positions_at
        raised = {}

        def failing_from(t_fail):
            def positions(particles, t):
                if t >= t_fail:
                    raised[t] = ValueError(f"step at {t}")
                    raise raised[t]
                return positions_at(particles, t)
            return positions

        grid = np.linspace(0.0, 1.2, 241)
        want, _ = estimate_cut_time(antipodal_pair(), grid)
        # a step that fails before the first hit: its error, the same object
        monkeypatch.setattr(FlowParticles, "positions_at", failing_from(0.5))
        with pytest.raises(ValueError) as exc:
            estimate_cut_time(antipodal_pair(), grid)
        assert exc.value is raised[0.5]
        # steps after the first hit may fail: the serial scan never ran them
        monkeypatch.setattr(FlowParticles, "positions_at", failing_from(want + 1e-9))
        assert estimate_cut_time(antipodal_pair(), grid)[0] == want


class TestQFunctional:
    def test_sphere_is_stationary(self, surface):
        # closed forms cancel exactly; only the trapezoid tail error is left
        R = 1.0
        g, geom = surface("sphere", radius=R, grid=(32, 64))
        trace = verify_flow(g, geom=geom)
        scale = 2 * math.pi * math.sinh(R) ** 3
        assert trace.times[0] == 0.0 and trace.times[-1] >= 0.6
        assert np.max(np.abs(trace.Q)) <= 1e-4 * scale

    def test_h_guard_during_flow(self):
        p = antipodal_pair()
        p.kappa0 = np.full((2, 1), 0.5)  # H = 0.5 < n = 1 immediately
        with pytest.raises(FlowAssumptionError) as exc:
            _active_sums(p, p.t_focal, 0.0)
        assert "mean curvature" in str(exc.value)


def array_bits(geom):
    """Every array of a geometry and of its graph, as (dtype, shape, bytes)."""
    out = {"rho": geom.graph.rho.tobytes()}
    for name, value in vars(geom).items():
        for k, a in enumerate(value if isinstance(value, tuple) else (value,)):
            if isinstance(a, np.ndarray):
                out[name, k] = (a.dtype.str, a.shape, a.tobytes())
    return out


class TestFlowConfig:
    def test_scan_parameters_are_fixed(self):
        # a read-only view of the module constants with nothing to set
        assert dataclasses.fields(FlowConfig) == ()
        config = FlowConfig()
        assert (config.samples, config.safety, config.cut_samples, config.exclusion) == (
            normalflow.SAMPLES, normalflow.SAFETY, normalflow.CUT_SAMPLES,
            normalflow.EXCLUSION) == (400, 0.9, 96, 3.0)
        for name in ("samples", "safety", "cut_samples", "exclusion"):
            with pytest.raises(TypeError):
                FlowConfig(**{name: 1})
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, name, 1)
        with pytest.raises(TypeError):
            verify_flow(gen_sphere(1.0, n=1, grid=(16,)), config)


class TestVerifyFlow:
    def test_leaves_the_geometry_unchanged(self):
        # the particles share the geometry's arrays instead of copying them
        g = gen_perturbed_sphere(1.0, 0.2, (2, 0), grid=(24, 48))
        geom = build_geometry(g)
        assert geom.position.shape == geom.normal.shape     # built before the snapshot
        before = array_bits(geom)
        assert {"position", "normal", "kappa", "V", "V_nu", "area_weight"} <= {
            key[0] for key in before}
        trace = verify_flow(g, geom=geom)
        assert trace.window_truncated       # the scan's hit path ran as well
        assert array_bits(geom) == before

    @pytest.mark.parametrize("kw", [{"n": 1, "grid": 128}, {"grid": (32, 64)}],
                             ids=["circle", "sphere"])
    def test_sampling_is_the_calibrated_one(self, surface, kw):
        # the tolerances' dt^2 terms hold at the sampling they were fitted at
        g, geom = surface("sphere", radius=1.0, **kw)
        trace = verify_flow(g, geom=geom)
        h, dt = geom.resolution, trace.dt
        assert trace.t_safe == normalflow.SAFETY * trace.focal_min
        assert dt <= trace.t_safe / normalflow.SAMPLES
        assert len(trace.times) >= normalflow.SAMPLES + 1
        assert trace.q_slack == (normalflow.Q_C_GRID * h * h
                                 + normalflow.Q_C_TIME * dt * dt) * trace.hk_lhs0
        assert trace.levelset_tol_rel == (normalflow.LEVELSET_C_GRID * h * h
                                          + normalflow.LEVELSET_C_TIME * dt * dt)

    def test_sphere_trace(self, surface):
        R = 1.0
        g, geom = surface("sphere", radius=R, grid=(64, 128))
        trace = verify_flow(g, geom=geom)
        assert trace.passed()
        assert trace.round_surface is True
        assert trace.window_truncated is False
        assert trace.cut_estimate == math.inf
        assert trace.cut_pair is None
        assert trace.focal_min == pytest.approx(R, abs=1e-12)
        assert trace.t_safe == pytest.approx(0.9 * R, abs=1e-12)
        assert np.all(np.abs(trace.levelset_rel) <= trace.levelset_tol_rel)
        assert np.all(trace.n_active == geom.node_count())
        assert np.all(np.diff(trace.area) < 0.0)
        # boundary term and coarea volume against their closed forms
        assert trace.hk_lhs0 == pytest.approx(2 * math.pi * math.sinh(R) ** 3,
                                              rel=1e-3)
        assert trace.coarea_volume == pytest.approx(weighted_volume(g), rel=1e-3)
        assert abs(trace.Q[0]) <= trace.q_slack

    def test_perturbed_trace(self, surface):
        g, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                          grid=(48, 96))
        trace = verify_flow(g, geom=geom)
        assert trace.passed()
        assert trace.round_surface is False
        assert trace.Q[0] > 0.0
        assert trace.Q[-1] < trace.Q[0]
        assert np.all(np.diff(trace.Q) <= trace.q_slack)

    def test_truncated_window(self, surface):
        # deep prolate shape: the window is cut by a pair on one equatorial
        # ring, (row 24, col 0) and (row 24, col 4), about 3.98 spacings
        # apart and so just past the exclusion radius
        g, geom = surface("perturbed", radius=1.0, amp=0.2, mode=(2, 0),
                          grid=(48, 96))
        trace = verify_flow(g, geom=geom)
        assert trace.window_truncated is True
        assert trace.cut_estimate < trace.focal_min
        pair = trace.cut_pair
        assert 0 <= pair["i"] < pair["j"] < geom.node_count()
        assert pair["d_hit"] < pair["threshold"]
        spacing = np.sqrt(geom.area_weight[[pair["i"], pair["j"]]])
        assert pair["d_init"] >= normalflow.EXCLUSION * np.max(spacing)
        (ri, ci), (rj, cj) = divmod(pair["i"], 96), divmod(pair["j"], 96)
        assert ri == rj and ri in (23, 24) and (cj - ci) % 96 in (4, 92)
        assert trace.passed()

    def test_circle_and_ellipse(self, surface):
        g, geom = surface("sphere", radius=1.0, n=1, grid=256)
        trace = verify_flow(g, geom=geom)
        assert trace.passed() and trace.round_surface
        ge, geome = surface("perturbed", radius=1.0, amp=0.1, mode=2, n=1,
                            grid=256)
        te = verify_flow(ge, geom=geome)
        assert te.passed() and not te.round_surface
        assert te.Q[0] > 0.0

    def test_foreign_geometry_refused(self, surface):
        g, geom = surface("sphere", radius=1.0, grid=(32, 64))
        with pytest.raises(ValueError, match="not built from this graph"):
            verify_flow(RadialGraph(2, np.full((32, 64), 1.1)), geom=geom)

    def test_rejects_flat_start(self):
        theta = np.arange(128) * (2 * np.pi / 128)
        g = RadialGraph(1, 1.0 + 0.15 * np.cos(2 * theta))
        with pytest.raises(FlowAssumptionError):
            verify_flow(g)

    def test_csv_and_summary(self, surface, tmp_path):
        g, geom = surface("sphere", radius=1.0, n=1, grid=128)
        trace = verify_flow(g, geom=geom)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "Q", "H_min", "H_max", "area",
                           "levelset_residual", "n_active"]
        assert len(rows) == 1 + len(trace.times)
        assert float(rows[1][0]) == 0.0
        assert int(rows[1][6]) == 128
        s = trace.summary()
        for key in ("t_safe", "t_max", "dt", "cut_estimate", "focal_min",
                    "samples", "Q0", "Q_final", "q_slack", "levelset_tol_rel",
                    "max_levelset_rel", "q_monotone_ok", "area_decreasing_ok",
                    "h_above_n_ok", "levelset_ok", "round_surface",
                    "window_truncated", "cut_pair", "pass"):
            assert key in s
        assert s["pass"] is True
