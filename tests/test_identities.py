"""Integral identity and inequality checks.

Centered spheres make every integrand constant, so identities reduce to
closed forms that must hold to rounding.  The classical support-function
identity is stronger still: about the graph's center it holds exactly for
any positive radial profile, smooth or not, because the integrand's
quadrature weight cancels the normal tilt factor pointwise.  About any
other base point that cancellation is lost and it holds to O(h^2).
Perturbed shapes exercise the strict inequality sides and the
precondition guards.
"""

import json
import math

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hkverify
from hkverify.errors import PreconditionError, RejectedShapeError
from hkverify.hypersurface import RadialGraph, build_geometry, gen_perturbed_sphere, gen_sphere
from hkverify.identities import (
    alexandrov_diagnostic,
    gauss_bonnet,
    hk_brendle,
    hk_shifted,
    minkowski_classical,
    minkowski_shifted,
    resolve_tolerance,
    run_verification,
    tolerance_table,
)
from hkverify import symfun


def _result(report, name):
    return next(r for r in report.results if r.name == name)


def _base_at(d, axis):
    """Point of H^3 at distance d from the origin along a spatial axis."""
    base = np.zeros(4)
    base[0] = math.cosh(d)
    base[axis] = math.sinh(d)
    return base


class TestSphereClosedForms:
    # constant integrands: both sides collapse to closed forms times the
    # same quadrature area, so agreement is machine-level

    def test_all_default_checks_machine_exact(self, surface):
        g, geom = surface("sphere", radius=1.0, grid=(64, 128))
        rep = run_verification(g, geom=geom)
        assert rep.all_passed()
        for r in rep.results:
            assert abs(r.rel_residual) <= 1e-13, r

    def test_circle_defaults_machine_exact(self, surface):
        g, geom = surface("sphere", radius=1.0, n=1, grid=256)
        rep = run_verification(g, geom=geom)
        assert rep.all_passed()
        names = [r.name for r in rep.results]
        assert "gauss-bonnet" in names
        for r in rep.results:
            assert abs(r.rel_residual) <= 1e-13, r

    def test_shifted_lhs_closed_form(self, surface):
        R = 1.0
        g, geom = surface("sphere", radius=R, grid=(64, 128))
        r = minkowski_shifted(geom, eps=1.0, k=1)
        want = math.exp(-R) * geom.area()
        assert r.lhs == pytest.approx(want, rel=1e-13)
        assert r.rhs == pytest.approx(want, rel=1e-13)

    def test_classical_lhs_closed_form(self, surface):
        R = 1.0
        g, geom = surface("sphere", radius=R, grid=(64, 128))
        r = minkowski_classical(geom)
        assert r.lhs == pytest.approx(math.sinh(R) * geom.area(), rel=1e-13)

    def test_unshifted_k1_ties_to_classical(self, surface):
        # eps = 0, k = 1 integrates V; times tanh R it must reproduce the
        # support integral on a centered sphere
        R = 1.0
        g, geom = surface("sphere", radius=R, grid=(64, 128))
        r0 = minkowski_shifted(geom, eps=0.0, k=1)
        rc = minkowski_classical(geom)
        assert r0.lhs * math.tanh(R) == pytest.approx(rc.lhs, rel=1e-13)

    def test_shifted_e2_closed_form(self, surface):
        R = 1.0
        _, geom = surface("sphere", radius=R, grid=(64, 128))
        want = (math.cosh(R) / math.sinh(R) - 1.0) ** 2
        e2 = symfun.e_m_values(geom.kappa_shifted, 2)
        assert np.max(np.abs(e2 - want)) <= 1e-13 * want

    def test_arbitrary_eps_exact_on_sphere(self, surface):
        _, geom = surface("sphere", radius=1.5, grid=(32, 64))
        for eps in (-0.7, 0.0, 0.3, 1.0, 2.9):
            for k in (1, 2):
                r = minkowski_shifted(geom, eps=eps, k=k)
                assert abs(r.rel_residual) <= 1e-13, r


class TestClassicalExactness:
    def test_white_noise_profiles(self, rng):
        # quadrature weight times support function is derivative-free, so
        # the identity survives arbitrary rough profiles at rounding level
        for _ in range(20):
            for n, shape in ((1, (32,)), (2, (16, 32))):
                rho = 0.5 + 2.0 * rng.random(shape)
                g = RadialGraph(n, rho)
                r = minkowski_classical(build_geometry(g))
                assert abs(r.rel_residual) <= 1e-14
                assert r.passed


class TestInequalities:
    def test_brendle_strict_deficit(self, surface):
        g, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                          grid=(128, 256))
        r = hk_brendle(geom)
        assert r.passed
        assert r.residual > 10.0 * r.tolerance
        assert r.metadata["within_tol"] is False
        assert r.metadata["H_min"] > 0.0

    def test_shifted_strict_deficit(self, surface):
        g, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                          grid=(128, 256))
        r = hk_shifted(geom)
        assert r.passed
        assert r.residual > 10.0 * r.tolerance

    def test_equality_flag_on_sphere(self, surface):
        g, geom = surface("sphere", radius=1.0, grid=(64, 128))
        assert hk_brendle(geom).metadata["within_tol"] is True
        assert hk_shifted(geom).metadata["within_tol"] is True

    def test_ellipse_deficits(self, surface):
        g, geom = surface("perturbed", radius=1.0, amp=0.1, mode=2, n=1,
                          grid=256)
        for fn in (hk_brendle, hk_shifted):
            r = fn(geom)
            assert r.passed and r.residual > 0.0


class TestPreconditions:
    # validated generators refuse these shapes, so the precondition paths
    # are reached through raw profiles

    def test_shifted_needs_h_above_n(self):
        theta = np.arange(128) * (2 * np.pi / 128)
        g = RadialGraph(1, 1.0 + 0.15 * np.cos(2 * theta))
        geom = build_geometry(g)
        with pytest.raises(PreconditionError) as exc:
            hk_shifted(geom)
        assert exc.value.check == "hk-shifted"
        H = geom.mean_curvature
        worst = int(np.argmin(H))
        assert exc.value.node == worst
        assert str(exc.value) == (f"hk-shifted: mean curvature {H[worst]:.6g} "
                                  f"is not above n = 1 (node {worst})")
        # brendle's weaker H > 0 precondition still holds here
        assert hk_brendle(geom).passed

    def test_brendle_needs_h_positive(self):
        theta = np.arange(128) * (2 * np.pi / 128)
        g = RadialGraph(1, 1.0 + 0.3 * np.cos(2 * theta))
        geom = build_geometry(g)
        with pytest.raises(PreconditionError) as exc:
            hk_brendle(geom)
        assert exc.value.check == "hk-brendle"
        H = geom.mean_curvature
        worst = int(np.argmin(H))
        assert exc.value.node == worst
        assert str(exc.value) == (f"hk-brendle: mean curvature {H[worst]:.6g} "
                                  f"is not positive (node {worst})")

    def test_alexandrov_needs_cone(self, surface):
        g, geom = surface("perturbed", radius=1.0, amp=0.08, mode=(4, 0),
                          grid=(48, 96))
        with pytest.raises(PreconditionError) as exc:
            alexandrov_diagnostic(geom)
        assert exc.value.check == "alexandrov"
        assert "cone" in str(exc.value)
        assert exc.value.node is not None

    def test_order_ranges(self, surface):
        g2, geom2 = surface("sphere", radius=1.0, grid=(32, 64))
        g1, geom1 = surface("sphere", radius=1.0, n=1, grid=64)
        with pytest.raises(PreconditionError):
            minkowski_shifted(geom2, k=3)
        with pytest.raises(PreconditionError):
            minkowski_shifted(geom2, k=0)
        with pytest.raises(PreconditionError):
            alexandrov_diagnostic(geom1)
        with pytest.raises(PreconditionError) as exc:
            gauss_bonnet(geom2)
        assert exc.value.check == "gauss-bonnet"


class TestAlexandrov:
    def test_sphere_chain(self, surface):
        g, geom = surface("sphere", radius=1.0, grid=(64, 128))
        ratio, slack, umb = alexandrov_diagnostic(geom)
        assert ratio.metadata["ek_constant"] is True
        assert ratio.metadata["kind"] == "identity"
        assert abs(ratio.rel_residual) <= 1e-13
        assert slack.passed and abs(slack.lhs) <= slack.tolerance
        assert umb.metadata["umbilic_within_tol"] is True
        assert all(r.passed for r in (ratio, slack, umb))

    def test_perturbed_chain(self, surface):
        g, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                          grid=(64, 128))
        ratio, slack, umb = alexandrov_diagnostic(geom)
        assert ratio.metadata["ek_constant"] is False
        assert ratio.metadata["kind"] == "inequality"
        assert ratio.passed
        # strictly non-umbilic: the mean-ratio slack is strictly positive
        assert slack.lhs > 0.0
        assert umb.lhs > umb.tolerance
        assert umb.metadata["umbilic_within_tol"] is False
        assert umb.passed  # reports never fail

    def test_roll_invariant(self):
        # rolling the azimuth permutes the nodes; every sum in the chain,
        # ek_mean included, must not depend on the node order
        g = gen_perturbed_sphere(1.0, 0.01, (3, 2), grid=(48, 96))
        want = [r.to_dict() for r in alexandrov_diagnostic(build_geometry(g))]
        got = [r.to_dict() for r in alexandrov_diagnostic(build_geometry(g.rotated(1)))]
        assert got == want


class TestGaussBonnet:
    def test_circle_exact(self, surface):
        g, geom = surface("sphere", radius=1.0, n=1, grid=128)
        r = gauss_bonnet(geom)
        assert r.rhs == pytest.approx(2 * math.pi)
        assert abs(r.rel_residual) <= 1e-14

    def test_ellipse(self, surface):
        g, geom = surface("perturbed", radius=1.0, amp=0.1, mode=2, n=1,
                          grid=256)
        r = gauss_bonnet(geom)
        assert r.passed


class TestTolerances:
    def test_explicit_tolerance_wins(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        assert resolve_tolerance("hk-brendle", geom, 100.0, 1e-5) == 1e-5
        assert resolve_tolerance("hk-brendle", geom, 100.0, 2) == 2.0

    def test_auto_formula(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        table = tolerance_table()
        h = geom.resolution
        want = 7.0 * max(table["checks"]["hk-shifted"] * h * h, table["floor_rel"])
        assert resolve_tolerance("hk-shifted", geom, 7.0, "auto") == want

    def test_unknown_check_rejected(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        with pytest.raises(KeyError):
            resolve_tolerance("no-such-check", geom, 1.0, "auto")

    def test_floor_guards_exact_cases(self, surface):
        _, geom = surface("sphere", radius=1.0, grid=(32, 64))
        assert resolve_tolerance("hk-brendle", geom, 1.0, None) > 0.0


class TestReportMachinery:
    def test_result_names_unique_and_ordered(self, surface):
        g, geom = surface("sphere", radius=1.0, grid=(32, 64))
        rep = run_verification(g, geom=geom)
        names = [r.name for r in rep.results]
        assert len(names) == len(set(names))
        assert names[0] == "minkowski-classical"
        assert "minkowski-shifted[eps=0,k=1]" in names
        assert "minkowski-shifted[eps=0.5,k=2]" in names

    def test_metadata_key_order(self, surface):
        # to_dict() serialises metadata in insertion order, so the order is
        # part of the report format
        head = ["n", "grid"]
        ek = ["k", "ek_constant", "ek_spread", "ek_mean"]
        want = {
            "minkowski-classical": ["kind"] + head,
            "minkowski-shifted[eps=0.5,k=2]": ["kind"] + head + ["eps", "k"],
            "hk-brendle": ["kind", "within_tol"] + head + ["H_min"],
            "hk-shifted": ["kind", "within_tol"] + head + ["H_min"],
            "alexandrov-nm-slack[k=2]": ["kind", "within_tol"] + head + ["k"],
            "alexandrov-umbilic[k=2]": ["kind"] + head + ["k", "umbilic_within_tol"],
        }
        checks = ["minkowski-classical", "minkowski-shifted", "hk-brendle", "hk-shifted",
                  "alexandrov"]
        g, geom = surface("sphere", radius=1.0, grid=(32, 64))
        sphere = {r.name: r for r in run_verification(g, checks, geom=geom).results}
        g, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0), grid=(32, 64))
        lobe = {r.name: r for r in run_verification(g, checks, geom=geom).results}
        for name, keys in want.items():
            assert list(sphere[name].metadata) == keys, name
            assert list(lobe[name].metadata) == keys, name
        assert sphere["alexandrov-ratio[k=2]"].metadata["kind"] == "identity"
        assert list(sphere["alexandrov-ratio[k=2]"].metadata) == ["kind"] + head + ek
        assert lobe["alexandrov-ratio[k=2]"].metadata["kind"] == "inequality"
        assert list(lobe["alexandrov-ratio[k=2]"].metadata) == ["kind", "within_tol"] + head + ek

    def test_duplicate_check_name_rejected(self, surface):
        g, geom = surface("sphere", radius=1.0, grid=(32, 64))
        rep = run_verification(g, geom=geom, checks=["hk-brendle"])
        with pytest.raises(ValueError):
            rep.add(rep.results[0])

    def test_unknown_check_rejected(self, surface):
        g, _ = surface("sphere", radius=1.0, grid=(32, 64))
        with pytest.raises(ValueError):
            run_verification(g, checks=["bogus"])

    @pytest.mark.parametrize("kwargs, named", [
        ({"checks": []}, "no checks"),
        ({"checks": ["minkowski-shifted"], "eps_sweep": ()}, "minkowski-shifted"),
        ({"checks": ["minkowski-shifted"], "k_list": []}, "minkowski-shifted"),
        ({"eps_sweep": ()}, "minkowski-shifted"),
        ({"checks": ["hk-shifted", "alexandrov"], "alexandrov_k": []}, "alexandrov"),
        ({"eps_sweep": (0.0, math.nan)}, "finite"),
        ({"checks": ["hk-shifted"], "eps_sweep": (math.inf,)}, "finite"),
    ])
    def test_vacuous_request_refused(self, surface, kwargs, named):
        # a report is never empty, and no check judges a NaN shift
        g, geom = surface("sphere", radius=1.0, grid=(32, 64))
        with pytest.raises(ValueError, match=named):
            run_verification(g, geom=geom, **kwargs)

    @pytest.mark.parametrize("alexandrov_k", [None, [], [2]])
    def test_alexandrov_on_a_curve_refused(self, surface, alexandrov_k):
        g, geom = surface("sphere", radius=1.0, n=1, grid=64)
        with pytest.raises(PreconditionError, match="alexandrov applies to surfaces only"):
            run_verification(g, checks=["alexandrov"], alexandrov_k=alexandrov_k, geom=geom)

    def test_config_hash_tracks_config(self, surface):
        g, geom = surface("sphere", radius=1.0, grid=(32, 64))
        a = run_verification(g, geom=geom)
        b = run_verification(g, geom=geom)
        c = run_verification(g, geom=geom, tol=1e-3)
        assert a.provenance["config_hash"] == b.provenance["config_hash"]
        assert a.provenance["config_hash"] != c.provenance["config_hash"]
        # one ulp anywhere in the profile changes the hash
        rho = g.rho.copy()
        rho[7, 11] = np.nextafter(rho[7, 11], 2.0)
        d = run_verification(RadialGraph(2, rho, meta=dict(g.meta)))
        assert a.provenance["config_hash"] != d.provenance["config_hash"]

    def test_provenance_names_the_software(self, surface):
        g, geom = surface("sphere", radius=1.0, grid=(32, 64))
        prov = run_verification(g, geom=geom).provenance
        assert prov["hkverify_version"] == hkverify.__version__
        assert prov["numpy_version"] == np.__version__
        assert prov["scipy_version"] == scipy.__version__

    def test_report_round_trips_as_json(self, surface, tmp_path):
        g, geom = surface("sphere", radius=1.0, n=1, grid=64)
        rep = run_verification(g, geom=geom)
        path = tmp_path / "report.json"
        rep.save(path)
        data = json.loads(path.read_text())
        assert data["surface"]["n"] == 1
        assert all("pass" in c for c in data["checks"])


class TestCalibratedFamily:
    # one run_verification sweep per canonical shape; auto tolerances must
    # hold across the whole family

    @pytest.mark.parametrize("kind,kw", [
        ("sphere", dict(radius=0.5, grid=(64, 128))),
        ("sphere", dict(radius=2.0, grid=(64, 128))),
        ("sphere", dict(radius=1.0, offset=0.3, grid=(64, 128))),
        ("perturbed", dict(radius=1.0, amp=0.05, mode=(2, 0), grid=(64, 128))),
        ("perturbed", dict(radius=1.0, amp=0.01, mode=(3, 2), grid=(64, 128))),
        ("sphere", dict(radius=1.0, n=1, grid=256)),
        ("perturbed", dict(radius=1.0, amp=0.1, mode=2, n=1, grid=256)),
    ], ids=["R.5", "R2", "offset", "lobe", "tesseral", "circle", "ellipse"])
    def test_family_passes(self, surface, kind, kw):
        g, geom = surface(kind, **kw)
        rep = run_verification(g, geom=geom)
        assert rep.all_passed(), [repr(r) for r in rep.results if not r.passed]


class TestBasePoint:
    # every check reads the geometry alone, so its volume is taken about
    # the same base point as V and V_nu

    @pytest.mark.parametrize("P", [64, 128])
    def test_centered_sphere_about_offset_base(self, surface, P):
        d = 0.3
        g, _ = surface("sphere", radius=1.0, grid=(P, 2 * P))
        geom = build_geometry(g, base=_base_at(d, axis=3))
        rep = run_verification(g, geom=geom)
        assert rep.all_passed(), [repr(r) for r in rep.results if not r.passed]
        # int V_nu = 3 int V, with int V = cosh(d) 4 pi sinh^3(1) / 3
        closed = 3.0 * math.cosh(d) * 4.0 * math.pi * math.sinh(1.0) ** 3 / 3.0
        h = geom.resolution
        assert abs(_result(rep, "minkowski-classical").rhs - closed) <= h * h * closed
        for name in ("hk-brendle", "hk-shifted"):
            assert abs(_result(rep, name).rel_residual) <= 1e-3, name

    def test_offset_sphere_about_its_center(self, surface):
        # V is constant on the sphere again, but the graph is off-center,
        # so the volume's tilt term carries the whole offset
        d = 0.3
        g, _ = surface("sphere", radius=1.0, offset=d, grid=(64, 128))
        geom = build_geometry(g, base=_base_at(d, axis=3))
        rep = run_verification(g, geom=geom)
        assert rep.all_passed(), [repr(r) for r in rep.results if not r.passed]
        closed = 4.0 * math.pi * math.sinh(1.0) ** 3
        h = geom.resolution
        assert abs(_result(rep, "minkowski-classical").rhs - closed) <= h * h * closed
        for name in ("hk-brendle", "hk-shifted"):
            assert abs(_result(rep, name).rel_residual) <= 1e-3, name

    @pytest.mark.parametrize("P", [64, 128])
    def test_lobe_about_offset_base(self, surface, P):
        g, _ = surface("perturbed", radius=1.0, amp=0.01, mode=(3, 1), grid=(P, 2 * P))
        geom = build_geometry(g, base=_base_at(0.3, axis=1))
        for fn in (hk_brendle, hk_shifted):
            r = fn(geom)
            assert r.passed and r.residual > 0.0, r
        r = minkowski_classical(geom)
        coeff = tolerance_table()["checks"]["minkowski-classical"]
        h = geom.resolution
        scale = max(abs(r.lhs), abs(r.rhs))
        assert abs(r.residual) <= coeff / 5.0 * h * h * scale, r

    def test_foreign_geometry_refused(self, surface):
        g, geom = surface("sphere", radius=1.0, grid=(32, 64))
        rho = g.rho.copy()
        rho[3, 5] = np.nextafter(rho[3, 5], 2.0)
        for other in (RadialGraph(2, rho), RadialGraph(2, np.full((32, 32), 1.0)),
                      RadialGraph(1, np.full(64, 1.0))):
            with pytest.raises(ValueError, match="not built from this graph"):
                run_verification(other, geom=geom)
        # an equal copy of the graph is the same surface
        assert run_verification(RadialGraph(2, g.rho.copy()), geom=geom).all_passed()


@st.composite
def _centered_profiles(draw):
    n = draw(st.sampled_from([1, 2]))
    radius = draw(st.floats(0.3, 2.0))
    amp = draw(st.floats(0.0, 0.05))
    if n == 2:
        ell = draw(st.integers(0, 3))
        mode = (ell, draw(st.integers(0, ell)))
        P = draw(st.sampled_from([16, 24, 32]))
        grid = (P, 2 * P)
    else:
        mode = draw(st.integers(0, 4))
        grid = draw(st.sampled_from([(32,), (64,), (128,)]))
    try:
        graph = gen_perturbed_sphere(radius, amp, mode, n=n, grid=grid)
    except RejectedShapeError:
        assume(False)
    return graph, draw(st.integers(1, graph.n_theta - 1))


@st.composite
def _non_round_profiles(draw):
    # the non-round regime where perfbench's oracle asserts positive hk-*
    # deficits: single harmonics with l >= 2 at 64x128, modes >= 2 on curves
    if draw(st.sampled_from([1, 2])) == 2:
        ell = draw(st.integers(2, 4))
        mode, amp, grid = (ell, draw(st.integers(0, ell))), draw(st.floats(0.01, 0.05)), (64, 128)
    else:
        mode, amp = draw(st.integers(2, 4)), draw(st.floats(0.02, 0.1))
        grid = (draw(st.sampled_from([256, 512, 1024])),)
    try:
        return gen_perturbed_sphere(1.0, amp, mode, n=len(grid), grid=grid)
    except RejectedShapeError:
        assume(False)


class TestProperties:
    @given(_centered_profiles())
    @settings(max_examples=50, deadline=None)
    def test_classical_exact_and_roll_invariant(self, case):
        graph, steps = case
        rep = run_verification(graph)
        r = _result(rep, "minkowski-classical")
        assert abs(r.rel_residual) <= 1e-13, r
        # rolling the azimuth permutes the nodes and compensated sums are
        # exactly rounded, so every check agrees bit for bit
        rolled = run_verification(graph.rotated(steps))
        assert [c.to_dict() for c in rolled.results] == [c.to_dict() for c in rep.results]

    @given(_centered_profiles())
    @settings(max_examples=50, deadline=None)
    def test_hk_shifted_holds_on_admissible_shapes(self, case):
        graph, _ = case
        r = hk_shifted(build_geometry(graph))
        assert r.passed, r

    @given(_non_round_profiles())
    @settings(max_examples=100, deadline=None)
    def test_hk_shifted_deficit_positive_off_the_sphere(self, graph):
        # a 500-example run found the smallest relative deficit, 6.2e-4, at
        # the (2,0) amp 0.01 lobe, under that shape's tolerance but above 0
        r = hk_shifted(build_geometry(graph))
        assert r.residual > 0.0, r


def _boosted(p, d, axis):
    """Image of p under the boost that moves the origin a distance d along axis."""
    q = p.copy()
    q[0] = math.cosh(d) * p[0] + math.sinh(d) * p[axis]
    q[axis] = math.sinh(d) * p[0] + math.cosh(d) * p[axis]
    return q


@st.composite
def _spheres_and_bases(draw):
    # a geodesic sphere, centred d < 0.9 R from the origin, with the
    # potential taken about its graph centre (base None) or about a point
    # at distance b < R from its own centre; n = 2 grids fine enough for
    # the oracle's equality bound up to R = 2 (worst |rel| ~ 9e-4 there)
    n = draw(st.sampled_from([1, 2]))
    radius = draw(st.floats(0.3, 2.0))
    d = radius * draw(st.floats(0.0, 0.9, exclude_max=True))
    graph = gen_sphere(radius, d, n=n, grid=(256,) if n == 1 else (128, 256))
    if draw(st.booleans()):
        return graph, None
    e = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1)))
    assume(np.linalg.norm(e) > 0.1)
    b = radius * draw(st.floats(0.0, 0.99))
    at_centre = np.concatenate([[math.cosh(b)], math.sinh(b) * e / np.linalg.norm(e)])
    return graph, _boosted(at_centre, d, axis=3 if n == 2 else 1)


class TestSphereEquality:
    # geodesic spheres are the equality case of both Heintze-Karcher
    # inequalities about any base point inside, and the classical
    # identity holds; both V routes (centre and off-centre) are drawn

    @given(_spheres_and_bases())
    @settings(max_examples=40, deadline=None)
    def test_equality_about_any_inner_base(self, case):
        graph, base = case
        geom = build_geometry(graph, base=base)
        assert minkowski_classical(geom).passed
        for fn in (hk_brendle, hk_shifted):
            r = fn(geom)
            assert abs(r.rel_residual) <= 1e-3, r
