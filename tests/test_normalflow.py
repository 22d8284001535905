"""Particle flow: closed-form evolution laws, windows, and the functional.

The evolution formulas are exact solutions of the flow ODEs, so the
oracle here is direct numerical integration (RK4 at a step small enough
to be far below the comparison tolerance).  Spheres reduce every series
to closed forms in R - t, which pins the Jacobian, the potentials and
the functional Q simultaneously.
"""

import csv
import dataclasses
import functools
import math
import sys
import threading

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import hkverify
from hkverify import hypersurface, hypgeo, identities, normalflow
from hkverify._util import exact_sum
from hkverify.errors import FlowAssumptionError, FocalTimeError
from hkverify.hypersurface import (
    H_MARGIN,
    RadialGraph,
    build_geometry,
    gen_perturbed_sphere,
    gen_sphere,
)
from hkverify.normalflow import (
    FlowConfig,
    FlowParticles,
    _active_sums,
    _evolve,
    estimate_cut_time,
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


def evolve(kappa, t, V0=1.0, Vnu0=0.0):
    """_evolve on one particle with curvatures `kappa`: (H, J, V, Vnu) as
    floats; for a single curvature H is kappa(t)."""
    H, J, V, Vnu = _evolve(np.array([kappa], dtype=float), np.array([V0]),
                           np.array([Vnu0]), t)
    return float(H[0]), float(J[0]), float(V[0]), float(Vnu[0])


class TestCurvatureEvolution:
    def test_sphere_closed_form(self):
        R = 1.0
        k0 = math.cosh(R) / math.sinh(R)
        for t in (0.0, 0.2, 0.5, 0.9):
            want = math.cosh(R - t) / math.sinh(R - t)
            assert evolve([k0], t)[0] == pytest.approx(want, rel=1e-12)

    def test_horosphere_fixed_point(self):
        assert evolve([1.0], 0.7)[0] == pytest.approx(1.0, abs=1e-12)

    def test_against_rk4(self, rng):
        for _ in range(25):
            k0 = float(rng.uniform(-2.0, 3.0))
            tf = focal_times([[k0]])[0]
            T = min(0.9 * tf, 1.5)
            got = evolve([k0], T)[0]
            want = rk4_curvature(k0, T, max(int(T / 1e-3), 10))
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_focal_crossing_is_an_error(self):
        # focal at artanh(1/2) ~ 0.549, for one curvature and in a row
        for kappa in ([2.0], [2.0, 0.3], [0.3, 2.0]):
            with pytest.raises(FocalTimeError, match="^curvature evolution hit a focal time$"):
                evolve(kappa, 0.6)

    def test_broadcasts(self):
        k = np.array([[0.5, 2.0], [0.0, 1.2]])
        H, J, V, Vnu = _evolve(k, np.ones(2), np.zeros(2), 0.3)
        assert H.shape == J.shape == V.shape == Vnu.shape == (2,)
        assert H[1] == pytest.approx(evolve([0.0], 0.3)[0] + evolve([1.2], 0.3)[0])


class TestPotentialEvolution:
    def test_sphere_closed_form(self):
        R = 2.0
        for t in (0.0, 0.4, 1.1):
            _, _, V, Vnu = evolve([1.0 / math.tanh(R)] * 2, t, math.cosh(R), math.sinh(R))
            assert V == pytest.approx(math.cosh(R - t), rel=1e-12)
            assert Vnu == pytest.approx(math.sinh(R - t), rel=1e-12)

    def test_boost_invariant(self, rng):
        for _ in range(50):
            V0 = float(rng.uniform(1.0, 10.0))
            Vnu0 = float(rng.uniform(-0.99, 0.99)) * math.sqrt(V0 * V0 - 1.0)
            t = float(rng.uniform(-3.0, 3.0))
            # a geodesic (kappa = 0) never focuses, whatever the sign of t
            _, _, V, Vnu = evolve([0.0], t, V0, Vnu0)
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
        _, _, V, Vnu = _evolve(particles.kappa0, particles.V0, particles.Vnu0, t)
        assert np.max(np.abs(V - V_want)) <= 1e-10 * np.max(V_want)
        assert np.max(np.abs(Vnu - Vnu_want)) <= 1e-10 * np.max(np.abs(Vnu_want))
        # evolved normals stay unit and orthogonal to the moving point
        assert np.max(np.abs(hypgeo.minkowski_inner(nu_t, nu_t) - 1.0)) <= 1e-10
        assert np.max(np.abs(hypgeo.minkowski_inner(nu_t, pos))) <= 1e-10


class TestJacobian:
    def test_identity_at_zero(self):
        assert evolve([1.7, 0.4], 0.0)[1] == 1.0

    def test_sphere_closed_form(self):
        R = 1.0
        k0 = [math.cosh(R) / math.sinh(R)] * 2
        for t in (0.1, 0.5, 0.9):
            want = (math.sinh(R - t) / math.sinh(R)) ** 2
            assert evolve(k0, t)[1] == pytest.approx(want, rel=1e-12)

    def test_log_derivative_is_minus_h(self, rng):
        # d/dt log J = -H along the flow, at t = 0 and mid-window
        d = 1e-5
        for _ in range(20):
            k = rng.uniform(-1.5, 2.5, size=2)
            tf = focal_times([k])[0]
            for t in (0.0, min(0.4 * tf, 0.5)):
                lo = math.log(evolve(k, t - d)[1])
                hi = math.log(evolve(k, t + d)[1])
                H = evolve(k, t)[0] if t else float(np.sum(k))
                assert (hi - lo) / (2 * d) == pytest.approx(-H, abs=1e-6 * (1 + abs(H)))

    def test_mean_curvature_rate(self, rng):
        # dH/dt at t = 0 equals |A|^2 - n
        d = 1e-5
        for _ in range(20):
            k = rng.uniform(-1.5, 2.5, size=2)
            Hp = evolve(k, d)[0]
            Hm = evolve(k, -d)[0]
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
        ch, sh = np.cosh(t), np.sinh(t)
        H, J, _, _ = _evolve(kappa0, 1.0, 0.0, t)
        assert oracle.same_bits(J, np.prod(ch - kappa0 * sh, axis=-1))
        assert oracle.same_bits(H, np.sum((kappa0 * ch - sh) / (ch - kappa0 * sh), axis=-1))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_mean_curvature_matches_np_sum(self, data):
        for n, grid in ((1, (8,)), (2, (8, 16))):
            kappa = data.draw(hnp.arrays(float, (math.prod(grid), n), elements=st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e300, 1e300))))
            # build_geometry folds H from the core's kappa: the drawn
            # curvatures stand in for a sphere's
            name = f"_core_n{n}"
            core = getattr(hypersurface, name)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hypersurface, name, lambda graph: {**core(graph), "kappa": kappa})
                geom = build_geometry(gen_sphere(1.0, n=n, grid=grid))
            assert geom.kappa is kappa
            assert oracle.same_bits(geom.mean_curvature, np.sum(kappa, axis=-1))

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
            if np.any(active) and np.min(_evolve(kappa0[active], V0[active], Vnu0[active],
                                                 tau)[0]) <= n + H_MARGIN:
                with pytest.raises(FlowAssumptionError):
                    _active_sums(p, active_until, tau)
            else:
                assert oracle.same_bits(_active_sums(p, active_until, tau),
                                        masked_active_sums(p, active_until, tau))


class TestFocalTimes:
    def test_frozen_value(self):
        assert focal_times([[2.0]])[0] == pytest.approx(0.5493061443340549, abs=1e-15)

    def test_sphere_focuses_at_its_radius(self):
        for R in (0.5, 1.0, 2.0):
            k = math.cosh(R) / math.sinh(R)
            assert focal_times([[k, k]])[0] == pytest.approx(R, abs=1e-12)

    def test_nonfocusing(self):
        assert focal_times([[1.0, 0.3, -5.0]])[0] == math.inf
        assert focal_times(np.empty((1, 0)))[0] == math.inf

    def test_vectorized_rows(self):
        k = np.array([[2.0, 4.0], [0.5, 1.0], [3.0, -1.0]])
        t = focal_times(k)
        assert t[0] == pytest.approx(math.atanh(0.25))
        assert t[1] == math.inf
        assert t[2] == pytest.approx(math.atanh(1.0 / 3.0))

    def test_subnormal_curvatures_never_focus(self):
        # 1 / 5e-324 overflows; warnings are errors in the test run
        t = focal_times(np.array([[5e-324, 2.0], [-5e-324, 2.0], [5e-324, -5e-324]]))
        two = focal_times([[2.0]])[0]
        assert list(t) == [two, two, math.inf]


class TestFrozenFlow:
    def test_frozen_value_on_the_hit_path(self):
        # the 24x48 (2,0) amp 0.2 lobe's scan cuts its window: the scan, the
        # windows, the per-time sums and the assembly, pinned bit for bit
        trace = verify_flow(gen_perturbed_sphere(1.0, 0.2, (2, 0), grid=(24, 48)))
        assert trace.cut_estimate == 0.7489787760910761
        assert trace.cut_pair == {"i": 528, "j": 532, "d_init": 0.5251224720850772,
                                  "d_hit": 0.07833720218833443,
                                  "threshold": 0.08187249541080913}
        assert (trace.Q[0], trace.Q[-1]) == (3.4594821767097024, 1.0519792048883727)
        assert trace.coarea_volume == 7.144979145875593
        assert (trace.t_max, trace.dt) == (0.7489787760910761, 0.0016830983732383732)

    def test_frozen_value_on_a_curve(self):
        # the 1024-point mode-2 amp 0.1 curve never cuts: the plain curve
        # assembly and the judged prefix of the samples, pinned bit for bit
        trace = verify_flow(gen_perturbed_sphere(1.0, 0.1, 2, n=1, grid=1024))
        assert len(trace.times) == 401
        assert trace.n_active.dtype == np.dtype(int)
        assert (trace.Q[0], trace.Q[-1]) == (14.036951791501673, 11.743510242940124)
        assert trace.coarea_volume == 4.732877216391711
        assert (trace.t_max, trace.dt) == (2.4039097885445337, 0.0018591723035920602)


class TestParticles:
    def test_from_geometry(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        p = FlowParticles.from_geometry(geom)
        assert p.count() == geom.area_weight.size
        assert np.sum(p.w0) == pytest.approx(exact_sum(geom.area_weight), rel=1e-14)
        assert np.max(np.abs(p.positions_at(0.0) - p.y)) <= 1e-12
        assert np.max(np.abs(p.t_focal - 1.0)) <= 1e-12  # sphere R = 1
        # the particles share the geometry's arrays instead of copying them
        assert p.y is geom.position and p.nu0 is geom.normal and p.kappa0 is geom.kappa
        assert p.V0 is geom.V and p.Vnu0 is geom.V_nu and p.w0 is geom.area_weight

    def test_spacing_scale(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        p = FlowParticles.from_geometry(geom)
        assert np.all(p.spacing0 == np.sqrt(p.w0))

    def test_positions_walk_the_outward_normal_back(self, surface):
        # one normal array: the outward geodesic at -t is the inward one at t
        _, geom = surface("perturbed", radius=1.0, amp=0.2, mode=(2, 0), grid=(24, 48))
        p = FlowParticles.from_geometry(geom)
        assert not hasattr(p, "inward0")
        for t in (0.0, 1e-3, 0.3, 0.75):
            inward = hypgeo.geodesic(p.y, -p.nu0, t)
            assert oracle.same_bits(p.positions_at(t), inward), t


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


def count_queries(monkeypatch):
    """Ball coordinates of the scan's bucketed queries, recorded under a lock."""
    lock = threading.Lock()
    balls = []
    candidate_pairs = normalflow._candidate_pairs

    def counted(ball, thr):
        with lock:
            balls.append(ball)
        return candidate_pairs(ball, thr)

    monkeypatch.setattr(normalflow, "_candidate_pairs", counted)
    return balls


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

    @pytest.mark.parametrize("case", ["sphere", "lobe", "near-round", "pair"])
    def test_matches_brute_force(self, monkeypatch, case):
        # the bucketed candidate query and the far list must find exactly
        # the collisions of an all-pairs scan: the same cut float, the same
        # windows
        queries = count_queries(monkeypatch)
        if case == "pair":
            # spacings 0.05 and 0.0005 put the two particles six threshold
            # buckets apart, so the hit comes from a cross-bucket query
            make = lambda: antipodal_pair(s0=[0.05, 0.0005])
            grid = np.linspace(0.0, 1.2, 2401)
        else:
            if case == "sphere":
                g = gen_sphere(1.0, grid=(32, 64))
            elif case == "lobe":
                g = gen_perturbed_sphere(1.0, 0.2, (2, 0), grid=(48, 96))
            else:
                # a lobe whose far list answers its early steps, not its late ones
                g = gen_perturbed_sphere(1.0, 0.05, (2, 0), grid=(48, 96))
            geom = build_geometry(g)
            make = lambda: FlowParticles.from_geometry(geom)
            grid = np.linspace(0.0, float(np.min(make().t_focal)), 96, endpoint=False)
        cut, cut_pair = estimate_cut_time(make(), grid)
        steps = int(np.count_nonzero(grid <= cut))
        want, pair = brute_force_cut(make(), grid)
        assert cut == want
        # the same deepest far pair, so the scan found the same far-hit set
        assert cut_pair == pair
        if case == "sphere":
            assert cut == math.inf and pair is None
            assert len(queries) == 0
        elif case == "lobe":
            assert cut == pytest.approx(0.7488, abs=1e-4)
        elif case == "near-round":
            assert cut == math.inf and pair is None
            assert 0 < len(queries) < steps - 1
        else:
            assert math.isfinite(cut) and cut_pair["threshold"] < 0.001

    def test_nan_grid_time_is_refused(self):
        # NaN passes the grid filter's comparisons; it must not reach the
        # geodesics, whose refusal would blame the particles
        with pytest.raises(ValueError, match="t_grid"):
            estimate_cut_time(antipodal_pair(), [0.1, math.nan])

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


@functools.cache
def sphere_far_list():
    """The 32x64 sphere's particles and the far list of its first scan time."""
    p = FlowParticles.from_geometry(build_geometry(gen_sphere(1.0, grid=(32, 64))))
    thr = normalflow._thresholds(p, 0.0)
    z0, need0 = normalflow._frame(p.positions_at(0.0), thr)
    return p, normalflow._FarList(p, z0, need0), z0, need0


class TestFarList:
    """The first scan time's far list answers every step it provably covers."""

    def test_holds_every_far_pair_within_reach(self):
        # against all pairs of the 24x48 wide lobe's anchor frame
        geom = build_geometry(gen_perturbed_sphere(1.0, 0.2, (2, 0), grid=(24, 48)))
        p = FlowParticles.from_geometry(geom)
        z0, need0 = normalflow._frame(p.positions_at(0.0), normalflow._thresholds(p, 0.0))
        far = normalflow._FarList(p, z0, need0)
        bucket = np.empty(p.count(), dtype=int)
        bucket[far.members] = np.repeat(np.arange(far.heads.size),
                                        np.diff(far.heads, append=p.count()))
        i, j = np.triu_indices(p.count(), 1)
        gap = np.sqrt(np.sum((z0[i] - z0[j]) ** 2, axis=1))
        d_init = hypgeo.dist(p.y[i], p.y[j])
        want = normalflow._far(p, i, j, d_init) & (gap <= far.reach[bucket[i], bucket[j]])
        listed = set(zip(np.minimum(far.i, far.j).tolist(), np.maximum(far.i, far.j).tolist()))
        assert len(listed) == far.i.size > 0
        assert listed == set(zip(i[want].tolist(), j[want].tolist()))

    def test_the_anchor_and_its_rigid_motions_are_covered(self):
        _, far, z0, need0 = sphere_far_list()
        assert far.covers(z0, need0)
        # reaches grown to just inside the skin
        assert far.covers(z0, need0 * (1.0 + normalflow.SKIN) * (1.0 - 1e-6))
        # the fitted frame follows a rotation
        c, s = math.cos(0.7), math.sin(0.7)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert far.covers(z0 @ turn, need0)

    def test_reaches_within_the_rounding_margin_are_not_covered(self):
        _, far, z0, need0 = sphere_far_list()
        assert not far.covers(z0, need0 * (1.0 + normalflow.SKIN) * (1.0 - 1e-12))

    def test_a_shrunk_frame_is_not_covered(self):
        # sigma_min(A) = 1/2 halves every unlisted pair's gap
        _, far, z0, need0 = sphere_far_list()
        assert not far.covers(0.5 * z0, need0)

    def test_a_moved_particle_is_not_covered(self):
        # one particle on top of its antipode, a far pair that is not listed:
        # the fit barely changes, the residual does
        p, far, z0, need0 = sphere_far_list()
        j = int(np.argmax(np.sum((z0 - z0[0]) ** 2, axis=1)))
        assert (0, j) not in set(zip(far.i.tolist(), far.j.tolist()))
        assert (j, 0) not in set(zip(far.i.tolist(), far.j.tolist()))
        z = z0.copy()
        z[0] = z0[j]
        assert not far.covers(z, need0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_first_step_hit_comes_from_the_list(self, monkeypatch, workers):
        monkeypatch.setattr(normalflow, "_scan_workers", lambda: workers)
        queries = count_queries(monkeypatch)
        grid = PAIR_GRIDS["first-step"]
        cut, cut_pair = estimate_cut_time(antipodal_pair(), grid)
        assert (cut, cut_pair) == brute_force_cut(antipodal_pair(), grid)
        assert cut == grid[0]
        # a second worker may have queried the next step, never the first
        first = hypgeo.hyper_to_ball(antipodal_pair().positions_at(grid[0]))
        assert not any(oracle.same_bits(ball, first) for ball in queries)
        assert len(queries) <= workers - 1

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", ["last-step", "no-hit"])
    def test_two_particles_certify_no_step(self, monkeypatch, case, workers):
        # their frame is a line: sigma_min(A) = 0, so every step after the
        # anchor runs the query
        monkeypatch.setattr(normalflow, "_scan_workers", lambda: workers)
        queries = count_queries(monkeypatch)
        grid = PAIR_GRIDS[case]
        cut, cut_pair = estimate_cut_time(antipodal_pair(), grid)
        assert (cut, cut_pair) == brute_force_cut(antipodal_pair(), grid)
        assert len(queries) == len(grid) - 1


class TestQFunctional:
    def test_sphere_is_stationary(self, surface):
        # closed forms cancel exactly; only the trapezoid tail error is left
        R = 1.0
        g, _ = surface("sphere", radius=R, grid=(32, 64))
        trace = verify_flow(g)
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
        # a read-only view of the two scan constants, with nothing to set
        assert dataclasses.fields(FlowConfig) == ()
        config = FlowConfig()
        assert (config.cut_samples, config.exclusion) == (
            normalflow.CUT_SAMPLES, normalflow.EXCLUSION) == (96, 3.0)
        assert not hasattr(config, "samples") and not hasattr(config, "safety")
        for name in ("cut_samples", "exclusion"):
            with pytest.raises(TypeError):
                FlowConfig(**{name: 1})
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, name, 1)
        with pytest.raises(TypeError):
            verify_flow(gen_sphere(1.0, n=1, grid=(16,)), config)


class TestVerifyFlow:
    def test_leaves_the_geometry_unchanged(self, monkeypatch):
        # the particles share the geometry's arrays instead of copying them
        built = []

        def build(graph):
            geom = build_geometry(graph)
            # the lazy arrays the flow reads, built and kept before the snapshot
            assert geom.position.shape == geom.normal.shape
            assert geom.mean_curvature.shape == geom.V.shape
            built.append((geom, array_bits(geom)))
            return geom

        monkeypatch.setattr(normalflow, "build_geometry", build)
        trace = verify_flow(gen_perturbed_sphere(1.0, 0.2, (2, 0), grid=(24, 48)))
        assert trace.window_truncated       # the scan's hit path ran as well
        ((geom, before),) = built           # the flow built its geometry once
        assert {"position", "normal", "kappa", "V", "V_nu", "area_weight",
                "mean_curvature"} <= {key[0] for key in before}
        assert array_bits(geom) == before

    def test_takes_the_graph_alone(self):
        # no geometry can be handed in, so none can belong to another surface
        g = gen_sphere(1.0, n=1, grid=(16,))
        with pytest.raises(TypeError):
            verify_flow(g, geom=build_geometry(g))

    @pytest.mark.parametrize("kw", [{"n": 1, "grid": 128}, {"grid": (32, 64)}],
                             ids=["circle", "sphere"])
    def test_sampling_is_the_calibrated_one(self, surface, kw):
        # the tolerances' dt^2 terms hold at the sampling they were fitted at
        g, geom = surface("sphere", radius=1.0, **kw)
        trace = verify_flow(g)
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
        trace = verify_flow(g)
        assert trace.passed()
        assert trace.round_surface is True
        assert trace.window_truncated is False
        assert trace.cut_estimate == math.inf
        assert trace.cut_pair is None
        assert trace.focal_min == pytest.approx(R, abs=1e-12)
        assert trace.t_safe == pytest.approx(0.9 * R, abs=1e-12)
        assert np.all(np.abs(trace.levelset_rel) <= trace.levelset_tol_rel)
        assert np.all(trace.n_active == geom.area_weight.size)
        assert np.all(np.diff(trace.area) < 0.0)
        # boundary term and coarea volume against their closed forms
        assert trace.hk_lhs0 == pytest.approx(2 * math.pi * math.sinh(R) ** 3,
                                              rel=1e-3)
        assert trace.coarea_volume == pytest.approx(geom.weighted_volume, rel=1e-3)
        assert abs(trace.Q[0]) <= trace.q_slack

    def test_perturbed_trace(self, surface):
        g, _ = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                       grid=(48, 96))
        trace = verify_flow(g)
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
        trace = verify_flow(g)
        assert trace.window_truncated is True
        assert trace.cut_estimate < trace.focal_min
        pair = trace.cut_pair
        assert 0 <= pair["i"] < pair["j"] < geom.area_weight.size
        assert pair["d_hit"] < pair["threshold"]
        spacing = np.sqrt(geom.area_weight[[pair["i"], pair["j"]]])
        assert pair["d_init"] >= normalflow.EXCLUSION * np.max(spacing)
        (ri, ci), (rj, cj) = divmod(pair["i"], 96), divmod(pair["j"], 96)
        assert ri == rj and ri in (23, 24) and (cj - ci) % 96 in (4, 92)
        assert trace.passed()

    def test_circle_and_ellipse(self, surface):
        g, _ = surface("sphere", radius=1.0, n=1, grid=256)
        trace = verify_flow(g)
        assert trace.passed() and trace.round_surface
        ge, _ = surface("perturbed", radius=1.0, amp=0.1, mode=2, n=1, grid=256)
        te = verify_flow(ge)
        assert te.passed() and not te.round_surface
        assert te.Q[0] > 0.0

    def test_rejects_flat_start(self):
        theta = np.arange(128) * (2 * np.pi / 128)
        g = RadialGraph(1, 1.0 + 0.15 * np.cos(2 * theta))
        with pytest.raises(FlowAssumptionError):
            verify_flow(g)

    def test_csv_and_summary(self, surface, tmp_path):
        g, _ = surface("sphere", radius=1.0, n=1, grid=128)
        trace = verify_flow(g)
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
                    "window_truncated", "cut_pair", "pass", "provenance"):
            assert key in s
        assert s["pass"] is True


class TestFlowProvenance:
    # a flow summary names what ran, as a report does, with no timestamp

    def test_names_the_constants_the_surface_and_the_software(self):
        g = gen_sphere(1.0, n=1, grid=64)
        provenance = verify_flow(g).summary()["provenance"]
        config = {"samples": normalflow.SAMPLES, "safety": normalflow.SAFETY,
                  "cut_samples": normalflow.CUT_SAMPLES, "exclusion": normalflow.EXCLUSION,
                  "surface": {"n": 1, "grid": [64], "meta": g.meta}}
        assert provenance == {"config_hash": identities._config_hash(config, g.rho),
                              "hkverify_version": hkverify.__version__,
                              "numpy_version": np.__version__,
                              "scipy_version": scipy.__version__}

    def test_one_graph_one_hash(self):
        g = gen_perturbed_sphere(1.0, 0.1, 2, n=1, grid=64)
        copy = RadialGraph(1, g.rho.copy(), g.meta)
        first, again, other = (verify_flow(x).summary()["provenance"] for x in (g, g, copy))
        assert first == again == other

    def test_one_ulp_of_rho_changes_the_hash(self):
        g = gen_sphere(1.0, n=1, grid=64)
        rho = g.rho.copy()
        rho[5] = np.nextafter(rho[5], math.inf)
        bumped = RadialGraph(1, rho, g.meta)
        assert (verify_flow(bumped).summary()["provenance"]["config_hash"]
                != verify_flow(g).summary()["provenance"]["config_hash"])
