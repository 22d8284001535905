"""Acceptance gate: one test per promised behavior, at its stated tolerance.

Each test name carries its criterion number, so a verbose run gives one
pass/fail line per criterion.  Grids, radii and tolerances here are the
published contract of the package; loosening any of them is a breaking
change, not a test fix.
"""

import math
import time

import numpy as np
import pytest

from hkverify import hypgeo, symfun
from hkverify.hypersurface import (
    build_geometry,
    gen_perturbed_sphere,
    gen_sphere,
)
from hkverify.identities import (
    alexandrov_diagnostic,
    gauss_bonnet,
    hk_brendle,
    hk_shifted,
    minkowski_classical,
    minkowski_shifted,
)
from hkverify.normalflow import (
    FlowParticles,
    _evolve,
    focal_times,
    verify_flow,
)

SPHERES = [(0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 0.3), (1.0, 0.3), (2.0, 0.3)]


def test_criterion_01_shifted_equality_on_spheres(surface):
    # equality case of the shifted inequality: six spheres, 1e-3 relative
    for R, off in SPHERES:
        t0 = time.monotonic()
        g, geom = surface("sphere", radius=R, offset=off, grid=(128, 256))
        r = hk_shifted(geom)
        elapsed = time.monotonic() - t0
        rel = abs(r.residual) / abs(r.rhs)
        assert rel <= 1e-3, (R, off, rel)
        assert elapsed <= 10.0, (R, off, elapsed)
    print("criterion-01 shifted equality on spheres: PASS")


def test_criterion_02_unshifted_equality_on_spheres(surface):
    for R, off in SPHERES:
        g, geom = surface("sphere", radius=R, offset=off, grid=(128, 256))
        r = hk_brendle(geom)
        rel = abs(r.residual) / abs(r.rhs)
        assert rel <= 1e-3, (R, off, rel)
    print("criterion-02 unshifted equality on spheres: PASS")


def test_criterion_03_strict_deficit_sign_stable(surface):
    deficits = []
    for P in (64, 128, 256):
        g, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                          grid=(P, 2 * P))
        r = hk_shifted(geom)
        assert r.residual > 0.0, (P, r.residual)
        deficits.append(r.residual)
    spread = max(deficits) - min(deficits)
    assert spread <= 0.05 * max(deficits), deficits
    print(f"criterion-03 strict deficit stable (values {deficits}): PASS")


def test_criterion_04_minkowski_residual_convergence(surface):
    levels = (32, 64, 128)
    hs, series = [], {}
    for P in levels:
        g, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                          grid=(P, 2 * P))
        hs.append(geom.resolution)
        for r in minkowski_shifted(geom, (0.0, 0.5, 1.0), (1, 2)):
            series.setdefault(r.name, []).append(abs(r.rel_residual))
        rc = minkowski_classical(geom)
        series.setdefault(rc.name, []).append(abs(rc.rel_residual))
    log_h = np.log(hs)
    for name, vals in series.items():
        if vals[-1] <= 1e-13:
            # exact-by-construction identity: plateau at rounding level is
            # stronger than any convergence order
            continue
        order = float(np.polyfit(log_h, np.log(vals), 1)[0])
        assert order >= 1.7, (name, vals, order)
        assert vals[-1] <= 1e-4, (name, vals[-1])
    print("criterion-04 residual convergence order >= 1.7, finest <= 1e-4: PASS")


def test_criterion_05_flow_monotonicity(surface):
    g, _ = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                   grid=(64, 128))
    trace = verify_flow(g)
    assert trace.q_monotone_ok
    assert len(trace.times) >= 400
    assert trace.Q[0] > 0.0
    for R in (0.5, 1.0, 2.0):
        gs, _ = surface("sphere", radius=R, grid=(64, 128))
        ts = verify_flow(gs)
        scale = 2 * math.pi * math.sinh(R) ** 3
        assert np.max(np.abs(ts.Q)) <= 1e-3 * scale, R
    print("criterion-05 flow functional monotone, ~0 on spheres: PASS")


def test_criterion_06_levelset_identity(surface):
    for R in (0.5, 1.0, 2.0):
        g, _ = surface("sphere", radius=R, grid=(64, 128))
        trace = verify_flow(g)
        assert trace.round_surface
        assert np.max(np.abs(trace.levelset_rel)) <= 1e-3, R
    g, _ = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                   grid=(64, 128))
    trace = verify_flow(g)
    worst = float(np.max(np.abs(trace.levelset_rel)))
    assert np.all(np.isfinite(trace.levelset_rel))
    print(f"criterion-06 level-set residual <= 1e-3 on spheres "
          f"(non-sphere reported: {worst:.3g}): PASS")


def test_criterion_07_closed_forms_vs_oracles(surface, rng):
    # curvature law against direct RK4 integration of kappa' = kappa^2 - 1
    def rk4(k0, T, steps):
        k, h = float(k0), T / steps
        f = lambda x: x * x - 1.0
        for _ in range(steps):
            a = f(k)
            b = f(k + 0.5 * h * a)
            c = f(k + 0.5 * h * b)
            d = f(k + h * c)
            k += (h / 6.0) * (a + 2 * b + 2 * c + d)
        return k

    for _ in range(25):
        k0 = float(rng.uniform(-2.0, 3.0))
        T = min(0.9 * focal_times([[k0]])[0], 1.5)
        want = rk4(k0, T, max(int(T / 1e-3), 10))
        got = _evolve(np.array([[k0]]), np.ones(1), np.zeros(1), T)[0][0]
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    # potential law against moving the actual points and normals
    _, geom = surface("sphere", radius=1.0, offset=0.3, grid=(32, 64))
    p = FlowParticles.from_geometry(geom)
    for t in (0.2, 0.45):
        _, _, V, Vnu = _evolve(p.kappa0, p.V0, p.Vnu0, t)
        pos = p.positions_at(t)
        nu_t = math.cosh(t) * p.nu0 - math.sinh(t) * p.y
        assert np.max(np.abs(V - hypgeo.potential(pos, hypgeo.origin(2)))) <= 1e-10 * np.max(V)
        assert np.max(np.abs(Vnu - hypgeo.potential(nu_t, hypgeo.origin(2)))) <= 1e-10 * np.max(np.abs(Vnu))

    for R in np.linspace(0.3, 3.0, 10):
        k = math.cosh(R) / math.sinh(R)
        assert abs(focal_times([[k]])[0] - R) <= 1e-12
    print("criterion-07 evolution laws match ODE/geodesic oracles: PASS")


def test_criterion_08_symmetric_function_suite(rng):
    # contraction identities on 10^3 random eigenvalue tuples, n = 2..5, with
    # D_i = dE_m/dlam_i = sigma_{m-1}(lam without i) / C(n, m), taken from
    # the kernel on the n deleted tuples (whose E_{m-1} carries C(n-1, m-1))
    e = symfun.e_m_values
    for n in range(2, 6):
        lam = rng.normal(0.0, 2.0, size=(250, n))
        deleted = np.stack([np.delete(lam, i, axis=-1) for i in range(n)], axis=-2)
        for m in range(1, n + 1):
            d = m / n * e(deleted, m - 1)
            em = e(lam, m)
            tr_da = np.sum(lam * d, axis=-1)
            assert np.all(np.abs(tr_da - m * em) <= 1e-12 * (1.0 + np.abs(m * em)))
            em1 = e(lam, m - 1)
            tr_d = np.sum(d, axis=-1)
            assert np.all(np.abs(tr_d - m * em1) <= 1e-12 * (1.0 + np.abs(m * em1)))
            t1 = n * e(lam, 1) * em
            t2 = (n - m) * e(lam, m + 1)
            tr_da2 = np.sum(lam * lam * d, axis=-1)
            assert np.all(np.abs(tr_da2 - (t1 - t2)) <= 1e-12 * (1.0 + np.abs(t1) + np.abs(t2)))

    # Newton-MacLaurin deficit E_1 E_{m-1} - E_m on 10^4 positive tuples
    # (inside every Garding cone), at every order 2 <= m <= n; equality at c*ones
    for n in range(2, 6):
        lam = rng.uniform(0.05, 3.0, size=(2500, n))
        for m in range(2, n + 1):
            deficit = e(lam, 1) * e(lam, m - 1) - e(lam, m)
            scale = np.maximum(1.0, np.max(lam, axis=-1) ** (2 * m - 1))
            assert np.all(deficit >= -1e-12 * scale)
    for c in (0.3, 1.0, 2.5):
        for n, m in ((3, 2), (5, 4)):
            ones = np.full(n, c)
            d = float(e(ones, 1) * e(ones, m - 1) - e(ones, m))
            assert abs(d) <= 1e-12 * max(1.0, c ** (2 * m - 1))
    print("criterion-08 symmetric-function identities and cone bounds: PASS")


def test_criterion_09_curve_case(surface):
    g, geom = surface("sphere", radius=1.0, n=1, grid=256)
    for fn in (hk_brendle, hk_shifted):
        r = fn(geom)
        assert abs(r.residual) / abs(r.rhs) <= 1e-4, r
    ge, geome = surface("perturbed", radius=1.0, amp=0.1, mode=2, n=1, grid=256)
    for fn in (hk_brendle, hk_shifted):
        r = fn(geome)
        assert r.residual > 0.0, r
    gb = gauss_bonnet(geome)
    assert abs(gb.residual) <= 1e-4, gb
    assert abs(gauss_bonnet(geom).residual) <= 1e-4
    print("criterion-09 circle equality, ellipse deficit, total curvature: PASS")


def test_criterion_10_alexandrov_diagnostic(surface):
    for R in (0.5, 1.0, 2.0):
        g, geom = surface("sphere", radius=R, grid=(64, 128))
        ratio, slack, umb = alexandrov_diagnostic(geom)
        assert ratio.metadata["ek_constant"] is True, R
        assert ratio.passed and slack.passed, R
        assert umb.metadata["umbilic_within_tol"] is True, R
        want = (math.cosh(R) / math.sinh(R) - 1.0) ** 2
        e2 = symfun.e_m_values(geom.kappa_shifted, 2)
        assert np.max(np.abs(e2 - want)) <= 1e-6 * want, R
    print("criterion-10 shifted curvature constancy chain on spheres: PASS")
