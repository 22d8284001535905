"""Particle flow: closed-form evolution laws, windows, and the functional.

The evolution formulas are exact solutions of the flow ODEs, so the
oracle here is direct numerical integration (RK4 at a step small enough
to be far below the comparison tolerance).  Spheres reduce every series
to closed forms in R - t, which pins the Jacobian, the potentials and
the functional Q simultaneously.
"""

import csv
import math

import numpy as np
import pytest

from hkverify import hypgeo
from hkverify.errors import FlowAssumptionError, FocalTimeError
from hkverify.hypersurface import (
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


class TestParticles:
    def test_from_geometry(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        p = FlowParticles.from_geometry(geom)
        assert p.count() == geom.node_count()
        assert np.sum(p.w0) == pytest.approx(geom.area(), rel=1e-14)
        assert np.max(np.abs(p.positions_at(0.0) - p.y)) <= 1e-12
        assert np.all(p.active_until == p.t_focal)
        assert np.max(np.abs(p.t_focal - 1.0)) <= 1e-12  # sphere R = 1

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


def brute_force_cut(particles, t_grid, exclusion=3.0, chunk=512):
    """O(N^2) reference for the collision rule in estimate_cut_time's docstring.

    Every pair i < j is screened by its Minkowski product from one Gram
    matrix per row chunk, kept when within 1e-12 of cosh(min(thr_i, thr_j))
    (far wider than the rounding of either product); hypgeo.dist then
    decides exactly, as the scan does.
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
        for lo in range(0, N, chunk):
            hi = min(lo + chunk, N)
            c = -(pos[lo:hi] * sign) @ pos[lo:].T
            r, s = np.nonzero(c < bound[lo:hi, None])
            i, j = r + lo, s + lo
            keep = (i < j) & (c[r, s] < bound[j])
            i, j = i[keep], j[keep]
            hit = hypgeo.dist(pos[i], pos[j]) < np.minimum(thr[i], thr[j])
            i, j = i[hit], j[hit]
            far = hypgeo.dist(particles.y[i], particles.y[j]) >= exclusion * np.maximum(
                particles.spacing0[i], particles.spacing0[j])
            if np.any(far):
                return float(tau)
    return math.inf


class TestCutTime:
    def test_sphere_never_collides(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        p = FlowParticles.from_geometry(geom)
        cut = estimate_cut_time(p, np.linspace(0.0, 1.0, 64, endpoint=False))
        assert cut == math.inf
        assert np.max(np.abs(p.active_until - 1.0)) <= 1e-12

    def test_head_on_pair(self):
        # two flat particles at distance 2R close at speed 2; they collide
        # when the gap falls below the advected spacing s0 cosh(t), at the
        # root of 2(R - t) = s0 cosh(t)
        p = antipodal_pair()
        grid = np.linspace(0.0, 1.2, 2401)
        cut = estimate_cut_time(p, grid)
        t_star = 0.962498
        assert cut >= t_star - 1e-9
        assert cut <= t_star + 2 * (grid[1] - grid[0])
        assert np.all(p.active_until == cut)  # flat particles never focus
        pair = p.cut_pair
        assert (pair["i"], pair["j"]) == (0, 1)
        assert pair["d_init"] == pytest.approx(2.0, rel=1e-12)
        assert pair["d_hit"] < pair["threshold"]
        assert pair["threshold"] == pytest.approx(0.05 * math.cosh(cut), rel=1e-12)

    def test_exclusion_suppresses_known_neighbors(self):
        p = antipodal_pair()
        cut = estimate_cut_time(p, np.linspace(0.0, 1.2, 601), exclusion=100.0)
        assert cut == math.inf
        assert p.cut_pair is None

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
        p, ref = make(), make()
        cut = estimate_cut_time(p, grid)
        want = brute_force_cut(ref, grid)
        assert cut == want
        assert np.array_equal(p.active_until, np.minimum(ref.t_focal, want))
        if case == "sphere":
            assert cut == math.inf
        elif case == "lobe":
            assert cut == pytest.approx(0.7488, abs=1e-4)
        else:
            assert math.isfinite(cut) and p.cut_pair["threshold"] < 0.001

    def test_needs_two_particles(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        p = FlowParticles.from_geometry(geom)
        p.y, p.nu0, p.kappa0 = p.y[:1], p.nu0[:1], p.kappa0[:1]
        p.V0, p.Vnu0, p.w0 = p.V0[:1], p.Vnu0[:1], p.w0[:1]
        p.spacing0, p.t_focal = p.spacing0[:1], p.t_focal[:1]
        p.active_until = p.active_until[:1]
        with pytest.raises(ValueError):
            estimate_cut_time(p, [0.1])


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
            _active_sums(p, 0.0)
        assert "mean curvature" in str(exc.value)


class TestVerifyFlow:
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
        assert pair["d_init"] >= FlowConfig().exclusion * np.max(spacing)
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
