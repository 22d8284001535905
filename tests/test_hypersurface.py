"""Discrete surface geometry: exact sphere cases, convergence, consistency.

Centered spheres are special: rho is constant, every finite difference of
it vanishes identically, and the quadrature weight is the only discrete
object left.  All pointwise geometry is then exact to rounding, which the
tests assert at near machine precision.  Off-center and perturbed shapes
carry real discretization error with measured orders.
"""

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hkverify import hypgeo
from hkverify.errors import (
    DegenerateSurfaceError,
    GenerationError,
    RejectedShapeError,
)
from hkverify.hypersurface import (
    H_MARGIN,
    RadialGraph,
    _harmonic,
    _periodic_d1,
    _periodic_d2,
    area_integral,
    build_geometry,
    enclosed_volume,
    gen_perturbed_sphere,
    gen_sphere,
    load_surface,
    save_surface,
    weighted_volume,
)
from hkverify.identities import _config_hash

import hypgeo_oracle as oracle


class TestRadialGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGraph(3, np.ones((8, 8)))
        with pytest.raises(ValueError):
            RadialGraph(2, np.ones(16))
        with pytest.raises(ValueError):
            RadialGraph(1, np.zeros(16))
        with pytest.raises(ValueError):
            RadialGraph(1, np.full(16, np.nan))
        with pytest.raises(ValueError):
            RadialGraph(2, np.ones((4, 8)))
        with pytest.raises(ValueError):
            # pole continuation shifts theta by pi, needs even n_theta
            RadialGraph(2, np.ones((8, 9)))

    def test_grid_metadata(self):
        g = RadialGraph(2, np.ones((16, 32)))
        assert g.n_phi == 16 and g.n_theta == 32
        assert g.h_phi == pytest.approx(np.pi / 16)
        assert g.h_theta == pytest.approx(np.pi / 16)
        assert g.resolution == g.h_phi
        phi, theta = g.angles()
        assert phi[0] == pytest.approx(g.h_phi / 2)  # staggered, no pole node
        assert theta[0] == 0.0
        g1 = RadialGraph(1, np.ones(16))
        assert g1.resolution == g1.h_theta
        with pytest.raises(AttributeError):
            g1.n_phi

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        rho = 1.0 + 0.1 * rng.random((8, 16))
        g = RadialGraph(2, rho, {"shape": "random", "tag": 3})
        path = tmp_path / "surf.json"
        save_surface(g, path)
        back = load_surface(path)
        assert back.n == 2
        assert np.array_equal(back.rho, rho)  # bit-exact through the base64 bytes
        assert back.rho.flags.writeable and back.rho.dtype == np.float64
        assert back.meta == {"shape": "random", "tag": 3}

    # the smallest subnormal, the largest finite float, 17-digit values
    EXTREMES = [5e-324, float(np.finfo(float).max), 0.30000000000000004,
                1.2345678901234567, 2.2250738585072014e-308]

    @given(st.sampled_from([(1, (8,)), (1, (10,)), (2, (8, 8)), (2, (9, 12))]),
           st.lists(st.floats(min_value=5e-324, allow_infinity=False),
                    min_size=108, max_size=108))
    @example((1, (10,)), EXTREMES * 22)
    @example((2, (9, 12)), EXTREMES[::-1] * 22)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_is_bit_exact(self, tmp_path, grid, values):
        # any finite positive rho reads back byte for byte, and the loaded
        # graph hashes to the saved graph's config_hash
        n, shape = grid
        rho = np.array(values[:math.prod(shape)]).reshape(shape)
        g = RadialGraph(n, rho, {"shape": "random"})
        path = tmp_path / "surf.json"
        save_surface(g, path)
        back = load_surface(path)
        assert back.rho.shape == shape
        assert back.rho.tobytes() == rho.tobytes()
        config = {"n": n, "grid": list(shape)}
        assert _config_hash(config, back.rho) == _config_hash(config, g.rho)

    def test_surface_file_holds_no_decimal_floats(self, tmp_path):
        # a 64x128 file is base64 of 8 bytes a value, plus a small header;
        # decimal text would need about twice that
        path = tmp_path / "surf.json"
        save_surface(gen_perturbed_sphere(1.0, 0.05, (2, 0), grid=(64, 128)), path)
        count = 64 * 128
        assert path.stat().st_size <= math.ceil(8 * count / 3) * 4 + 1024

    @staticmethod
    def _record(n, grid, values, **extra):
        rho = base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()
        return {"n": n, "grid": grid, "rho": rho, **extra}

    def test_malformed_records(self, tmp_path):
        path = tmp_path / "bad.json"
        # each record is well formed but for the one fault the case names,
        # so the refusal seen is that fault's and not the base64 rho's
        cases = (
            ({"n": 2, "grid": {"n_phi": 8, "n_theta": 16}}, "'rho'"),
            (self._record(5, {"n_theta": 8}, [1.0] * 8), "dimension"),
            (self._record(1, {"n_theta": 16}, [1.0] * 8), "rho holds 64 bytes"),
            # a missing grid size, a grid or meta that is not an object
            (self._record(2, {}, [1.0] * 64), "'n_phi'"),
            (self._record(1, [8], [1.0] * 8), "grid"),
            (self._record(1, {"n_theta": 8}, [1.0] * 8, meta=["shape"]), "meta"),
        )
        for record, named in cases:
            path.write_text(json.dumps(record))
            with pytest.raises(ValueError, match=named):
                load_surface(path)
        # and records without a fault load
        for record, shape in ((self._record(1, {"n_theta": 8}, [1.0] * 8), (8,)),
                              (self._record(2, {"n_phi": 8, "n_theta": 8}, [1.0] * 64),
                               (8, 8))):
            path.write_text(json.dumps(record))
            assert load_surface(path).rho.shape == shape

    @pytest.mark.parametrize("rho, named", [
        (base64.b64encode(bytes(64)).decode()[:-4] + "!!!=", "rho is not base64"),
        ("AAAA AAAA", "rho is not base64"),
        (base64.b64encode(bytes(56)).decode(), "rho holds 56 bytes"),
        (base64.b64encode(bytes(72)).decode(), "rho holds 72 bytes"),
        (base64.b64encode(bytes(61)).decode(), "rho holds 61 bytes"),
        ([1.0] * 8, "rho is in the old text format"),
        (8.0, "rho must be a base64 string"),
    ])
    def test_refused_rho(self, tmp_path, rho, named):
        # non-base64 characters, one value short or long, a byte count that
        # is not a multiple of 8, the old list of decimals
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "grid": {"n_theta": 8}, "rho": rho}))
        with pytest.raises(ValueError, match=named):
            load_surface(path)


class TestGenerators:
    def test_centered_sphere_is_constant(self):
        g = gen_sphere(1.5, grid=(16, 32))
        assert np.all(g.rho == 1.5)
        g1 = gen_sphere(1.5, n=1, grid=64)
        assert np.all(g1.rho == 1.5)

    def test_offset_sphere_law_of_cosines(self):
        for n, grid in ((1, 64), (2, (32, 64))):
            for R in (0.1, 1.0, 6.0):
                for ratio in (0.01, 0.9, 0.999):
                    d = ratio * R
                    g = gen_sphere(R, d, n=n, grid=grid)
                    ang = g.angles()
                    cosg = np.cos(ang[0])[:, None] if n == 2 else np.cos(ang)
                    resid = (np.cosh(g.rho) * math.cosh(d)
                             - np.sinh(g.rho) * math.sinh(d) * cosg - math.cosh(R))
                    # evaluating the residual itself rounds at eps cosh(rho) cosh(d)
                    bound = 1e-14 * np.cosh(g.rho) * math.cosh(d)
                    assert np.all(np.abs(resid) <= bound), (n, R, ratio)

    def test_gen_sphere_rejects(self):
        with pytest.raises(GenerationError):
            gen_sphere(-1.0)
        with pytest.raises(GenerationError):
            gen_sphere(0.5, 0.5, grid=(16, 32))  # origin on the surface
        with pytest.raises(GenerationError):
            gen_sphere(0.5, 0.7, grid=(16, 32))

    def test_perturbed_amp_zero_matches_sphere(self):
        a = gen_perturbed_sphere(1.0, 0.0, (2, 0), grid=(16, 32))
        b = gen_sphere(1.0, grid=(16, 32))
        assert np.array_equal(a.rho, b.rho)

    def test_perturbed_rejects_bad_modes(self):
        with pytest.raises(GenerationError):
            gen_perturbed_sphere(1.0, 0.01, (2, 3), grid=(16, 32))  # m > l
        with pytest.raises(GenerationError):
            gen_perturbed_sphere(1.0, 0.01, (-1, 0), grid=(16, 32))
        with pytest.raises(GenerationError):
            gen_perturbed_sphere(-2.0, 0.01, (2, 0), grid=(16, 32))

    def test_perturbed_rejects_h_violation(self):
        # a deep mode-2 dent flattens the curve below the horosphere bound
        with pytest.raises(RejectedShapeError) as exc:
            gen_perturbed_sphere(1.0, 0.2, 2, n=1, grid=128)
        assert "mean curvature" in str(exc.value)
        assert exc.value.node is not None

    def test_perturbed_rejects_nonpositive_rho(self):
        # unnormalized P_4^4 peaks above 100, so a small amp already drives
        # rho negative; the error names the violating node
        with pytest.raises(RejectedShapeError) as exc:
            gen_perturbed_sphere(1.0, 0.05, (4, 4), grid=(24, 48))
        assert "rho" in str(exc.value)
        with pytest.raises(RejectedShapeError):
            gen_perturbed_sphere(1.0, 1.5, 2, n=1, grid=64)

    def test_mode_is_the_stated_harmonic(self):
        from scipy.special import lpmv
        g = gen_perturbed_sphere(1.0, 0.01, (3, 2), grid=(16, 32))
        phi, theta = g.angles()
        want = 1.0 + 0.01 * lpmv(2, 3, np.cos(phi))[:, None] * np.cos(2 * theta)
        assert np.max(np.abs(g.rho - want)) <= 1e-15


class TestSphereGeometry:
    def test_centered_sphere_pointwise_exact(self, surface):
        for n, grid in ((2, (32, 64)), (1, (64,))):
            R = 1.0
            _, geom = surface("sphere", radius=R, n=n,
                              grid=grid if n == 2 else grid[0])
            coth = math.cosh(R) / math.sinh(R)
            assert np.max(np.abs(geom.kappa - coth)) <= 1e-13
            assert np.max(np.abs(geom.V - math.cosh(R))) <= 1e-13
            assert np.max(np.abs(geom.V_nu - math.sinh(R))) <= 1e-13
            assert np.max(np.abs(geom.kappa_shifted - (coth - 1.0))) <= 1e-13

    def test_offset_sphere_umbilic_fourth_order(self, surface):
        # pointwise curvature error from the 4th-order stencils; the
        # contract only needs order >= 1.9, measured ~4
        R, d = 1.0, 0.3
        coth = math.cosh(R) / math.sinh(R)
        errs = []
        for P in (32, 64):
            _, geom = surface("sphere", radius=R, offset=d, grid=(P, 2 * P))
            errs.append(float(np.max(np.abs(geom.kappa - coth))))
        assert errs[1] <= 1e-4
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order >= 1.9

    def test_offset_circle_umbilic(self, surface):
        R, d = 1.0, 0.25
        coth = math.cosh(R) / math.sinh(R)
        _, geom = surface("sphere", radius=R, offset=d, n=1, grid=256)
        assert np.max(np.abs(geom.kappa - coth)) <= 1e-8

    def test_support_below_potential(self, surface):
        for kind, kw in (
            ("sphere", dict(radius=1.0, offset=0.3, grid=(32, 64))),
            ("perturbed", dict(radius=1.0, amp=0.05, mode=(2, 0), grid=(32, 64))),
            ("perturbed", dict(radius=1.0, amp=0.1, mode=2, n=1, grid=128)),
        ):
            _, geom = surface(kind, **kw)
            assert np.all(geom.V - geom.V_nu > 0.0)

    def test_normals_are_unit_tangents(self, surface):
        _, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                          grid=(32, 64))
        nn = hypgeo.minkowski_inner(geom.normal, geom.normal)
        np_ = hypgeo.minkowski_inner(geom.normal, geom.position)
        assert np.max(np.abs(nn - 1.0)) <= 1e-11
        assert np.max(np.abs(np_)) <= 1e-11


class TestCurvatureCore:
    """One builder serves the generator, `gen`, the checks and the flow."""

    def test_centre_route_matches_potential(self, surface):
        for kind, kw in (
            ("sphere", dict(radius=1.0, offset=0.3, grid=(32, 64))),
            ("perturbed", dict(radius=1.0, amp=0.05, mode=(2, 0), grid=(32, 64))),
            ("perturbed", dict(radius=1.0, amp=0.1, mode=2, n=1, grid=128)),
        ):
            graph, _ = surface(kind, **kw)
            geom = build_geometry(graph)
            # about the centre nothing builds the embedding ...
            assert "position" not in vars(geom) and "normal" not in vars(geom)
            # ... and V = cosh(rho), V_nu = sinh(rho) / v are the potentials
            # of the embedding about the origin, bit for bit
            o = hypgeo.origin(graph.n)
            assert np.array_equal(geom.V, hypgeo.potential(geom.position, o))
            assert np.array_equal(geom.V_nu, hypgeo.potential(geom.normal, o))
            # the off-centre route, given the origin, agrees bit for bit
            via = build_geometry(graph, base=o)
            for name in ("V", "V_nu", "kappa", "area_weight", "position", "normal"):
                assert np.array_equal(getattr(via, name), getattr(geom, name)), name

    @pytest.mark.parametrize("n, grid, modes", [
        (1, (96,), (1, 2, 3, 5)),
        (2, (16, 32), ((2, 0), (3, 1), (3, 2), (4, 0))),
    ])
    def test_generator_refusal_parity(self, n, grid, modes):
        # the generator accepts exactly the shapes whose full geometry has
        # H > n + H_MARGIN, and a refusal names argmin H
        outcomes = set()
        for mode in modes:
            for amp in np.linspace(-0.5, 0.5, 21):
                rho = 1.0 + amp * _harmonic(n, mode, grid)
                if np.any(rho <= 0.0):
                    continue
                H = build_geometry(RadialGraph(n, rho)).mean_curvature
                accepted = H.min() > n + H_MARGIN
                outcomes.add(accepted)
                if accepted:
                    g = gen_perturbed_sphere(1.0, amp, mode, n=n, grid=grid)
                    assert np.array_equal(g.rho, rho)
                else:
                    with pytest.raises(RejectedShapeError) as exc:
                        gen_perturbed_sphere(1.0, amp, mode, n=n, grid=grid)
                    assert exc.value.node == int(np.argmin(H))
        assert outcomes == {True, False}

    def test_support_refusal_parity(self):
        # far out cosh(rho) - sinh(rho) / v rounds to zero: the centre route
        # refuses exactly where the potentials about the origin do, at the
        # same node with the same message
        refused = 0
        for n, grid, mode in ((1, (64,), 3), (2, (16, 32), (3, 1))):
            for R in (18.0, 19.0, 25.0):
                g = RadialGraph(n, R + 0.01 * _harmonic(n, mode, grid))
                outcomes = []
                for base in (None, hypgeo.origin(n)):
                    try:
                        build_geometry(g, base=base)
                        outcomes.append(None)
                    except DegenerateSurfaceError as exc:
                        outcomes.append((exc.node, str(exc)))
                assert outcomes[0] == outcomes[1], (n, R)
                refused += outcomes[0] is not None
        assert 0 < refused < 6

class TestQuadrature:
    def test_circle_integrals_exact(self):
        # trapezoid rule on a constant integrand is exact
        R = 1.0
        g = gen_sphere(R, n=1, grid=256)
        geom = build_geometry(g)
        assert geom.area() == pytest.approx(2 * np.pi * math.sinh(R), rel=1e-14)
        assert weighted_volume(g) == pytest.approx(np.pi * math.sinh(R) ** 2, rel=1e-14)
        assert enclosed_volume(g) == pytest.approx(
            2 * np.pi * (math.cosh(R) - 1.0), rel=1e-14)

    def test_sphere_integrals_second_order(self, surface):
        R = 1.0
        area_want = 4 * np.pi * math.sinh(R) ** 2
        wvol_want = (4 * np.pi / 3) * math.sinh(R) ** 3
        area_err, wvol_err = [], []
        for P in (16, 32, 64):
            g, geom = surface("sphere", radius=R, grid=(P, 2 * P))
            area_err.append(abs(geom.area() - area_want) / area_want)
            wvol_err.append(abs(weighted_volume(g) - wvol_want) / wvol_want)
        for errs in (area_err, wvol_err):
            orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0)
                      for i in range(2)]
            assert min(orders) >= 1.9
            assert errs[-1] <= 5e-4

    def test_area_integral_linearity(self, surface):
        g, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                          grid=(16, 32))
        rng = np.random.default_rng(11)
        f = rng.random(geom.node_count())
        h = rng.random(geom.node_count())
        lin = area_integral(geom, 2.0 * f + 3.0 * h)
        parts = 2.0 * area_integral(geom, f) + 3.0 * area_integral(geom, h)
        assert lin == pytest.approx(parts, rel=1e-14)
        with pytest.raises(ValueError):
            area_integral(geom, f[:-1])

    def test_weighted_volume_off_center_closed_form(self):
        # about an offset sphere's own center, int V over the ball is the
        # centered closed form omega_n sinh^{n+1}(R) / (n+1): the trapezoid
        # rule is spectral on the circle, the midpoint rule second order
        R, d = 1.0, 0.3
        for n, grid, omega, tol in ((1, (256,), 2 * np.pi, 1e-13),
                                    (2, (64, 128), 4 * np.pi, (np.pi / 64) ** 2)):
            g = gen_sphere(R, d, n=n, grid=grid)
            center = np.zeros(n + 2)
            center[0], center[-1 if n == 2 else 1] = math.cosh(d), math.sinh(d)
            want = omega * math.sinh(R) ** (n + 1) / (n + 1)
            got = weighted_volume(g, base=center)
            assert abs(got - want) <= tol * want, (n, got, want)
            assert build_geometry(g, base=center).weighted_volume == got

    def test_weighted_volume_origin_base_bit_identical(self):
        # about the origin the tilt term vanishes exactly, leaving the
        # centered radial integral sinh(rho)^3 / 3 bit for bit
        g = gen_perturbed_sphere(1.0, 0.01, (3, 1), grid=(16, 32))
        phi, _ = g.angles()
        w = np.sin(phi)[:, None] * g.h_phi * g.h_theta
        want = math.fsum((np.sinh(g.rho) ** 3 / 3 * w).ravel().tolist())
        assert weighted_volume(g) == want
        assert weighted_volume(g, base=hypgeo.origin(2)) == want
        assert build_geometry(g).weighted_volume == want
        with pytest.raises(ValueError):
            weighted_volume(g, base=np.array([1.0, 0.5, 0.0, 0.0]))


class TestSymmetries:
    def test_azimuthal_rotation_invariance(self, surface):
        # rolling the grid permutes nodes under an isometry fixing the
        # origin; every integral agrees to summation accuracy
        g, geom = surface("perturbed", radius=1.0, amp=0.01, mode=(3, 2),
                          grid=(16, 32))
        rolled = g.rotated(5)
        geom_r = build_geometry(rolled)
        for f, fr in ((geom.V, geom_r.V), (geom.V_nu, geom_r.V_nu)):
            a = area_integral(geom, f)
            b = area_integral(geom_r, fr)
            assert a == pytest.approx(b, rel=1e-12)
        assert geom.area() == pytest.approx(geom_r.area(), rel=1e-12)

    def test_reflection_symmetry(self, surface):
        # (2,0) mode is symmetric under phi -> pi - phi, which maps
        # staggered row i to row P-1-i exactly
        _, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                          grid=(16, 32))
        P, T = geom.grid
        kap = geom.kappa.reshape(P, T, 2)
        assert np.max(np.abs(kap - kap[::-1])) <= 1e-12
        V = geom.V.reshape(P, T)
        assert np.max(np.abs(V - V[::-1])) <= 1e-13


class TestDegeneracy:
    def test_support_collapse_names_node(self):
        # V - V_nu equals exp(-r) analytically, so it only fails by
        # rounding: park the base ~18 units away along the theta = 0 node
        # direction and the antipodal node's cosh - sinh cancels to zero
        g = gen_sphere(1.0, n=1, grid=64)
        far = oracle.ball_to_hyper(np.array([1.0 - 1e-8, 0.0]))
        with pytest.raises(DegenerateSurfaceError) as exc:
            build_geometry(g, base=far)
        assert exc.value.node == 32

    @pytest.mark.parametrize("n, grid, node", [(1, (64,), 37), (2, (16, 32), 5 * 32 + 7)])
    def test_overflow_names_node(self, n, grid, node):
        # sinh(800) overflows, so the curvatures at that one node come out
        # NaN; a NaN fails no `<= 0` test, so the refusal must ask for
        # finite values.  The overflow warnings (errors under this suite's
        # filterwarnings) are silenced inside build_geometry, so the
        # refusal is what reaches the caller
        rho = np.ones(grid)
        rho.flat[node] = 800.0
        with pytest.raises(DegenerateSurfaceError, match="not finite") as exc:
            build_geometry(RadialGraph(n, rho))
        assert exc.value.node == node

    @pytest.mark.parametrize("n, grid", [(1, 64), (2, (16, 32))])
    def test_overflowing_generator_is_refused(self, n, grid):
        # the H > n test of gen_perturbed_sphere passes on NaN, so the
        # refusal comes from the geometry it builds
        with pytest.raises(DegenerateSurfaceError, match="not finite"):
            gen_perturbed_sphere(800.0, 0.05, 2 if n == 1 else (2, 0), n=n, grid=grid)
        with pytest.raises(DegenerateSurfaceError, match="not finite"):
            build_geometry(gen_sphere(800.0, n=n, grid=grid))

    def test_base_point_must_be_valid(self):
        g = gen_sphere(1.0, grid=(16, 32))
        with pytest.raises(ValueError):
            build_geometry(g, base=np.array([0.2, 0.0, 0.0, 0.0]))


def covariant_hessian_n1(geom, h):
    """Test oracle: V'' - Gamma V' on the curve, Gamma = g'/(2g)."""
    V = geom.V
    (gm,) = geom.metric
    dV = _periodic_d1(V, h, 0)
    ddV = _periodic_d2(V, h, 0)
    dg = _periodic_d1(gm, h, 0)
    return ddV - (dg / (2.0 * gm)) * dV


class TestPotentialConsistency:
    # the tangential gradient and surface Hessian of V have closed forms;
    # finite differences of the assembled fields must reproduce them

    def test_gradient_n1(self):
        g = gen_perturbed_sphere(1.0, 0.1, 2, n=1, grid=256)
        base = oracle.ball_to_hyper(np.array([0.2, 0.1]))
        geom = build_geometry(g, base=base)
        h = g.h_theta
        dV = _periodic_d1(geom.V, h, 0)
        dpos = _periodic_d1(geom.position, h, 0)
        rhs = hypgeo.minkowski_inner(oracle.radial_field(geom.position, base), dpos)
        assert np.max(np.abs(dV - rhs)) <= 1e-5 * np.max(np.abs(rhs))

    def test_gradient_n2(self):
        P = 32
        g = gen_perturbed_sphere(1.0, 0.01, (3, 2), grid=(P, 2 * P))
        base = oracle.ball_to_hyper(np.array([0.1, 0.05, 0.15]))
        geom = build_geometry(g, base=base)
        V = geom.V.reshape(P, 2 * P)
        pos = geom.position.reshape(P, 2 * P, 4)
        dV = _periodic_d1(V, g.h_theta, 1)
        dpos = _periodic_d1(pos, g.h_theta, 1)
        rhs = hypgeo.minkowski_inner(oracle.radial_field(pos, base), dpos)
        assert np.max(np.abs(dV - rhs)) <= 2e-3 * np.max(np.abs(rhs))

    def test_hessian_identity_n1(self):
        # covariant Hessian of V equals V g - V_nu h on a curve
        errs = []
        for T in (128, 256):
            g = gen_perturbed_sphere(1.0, 0.1, 2, n=1, grid=T)
            base = oracle.ball_to_hyper(np.array([0.2, 0.1]))
            geom = build_geometry(g, base=base)
            hess = covariant_hessian_n1(geom, g.h_theta)
            (gm,), (hm,) = geom.metric, geom.second_form
            target = geom.V * gm - geom.V_nu * hm
            errs.append(np.max(np.abs(hess - target)) / np.max(np.abs(target)))
        assert errs[1] <= 1e-5
        assert errs[1] <= 0.35 * errs[0]

    def test_hessian_identity_n2_interior(self):
        errs = [self._hessian_residual_n2(P) for P in (32, 64)]
        assert errs[1] <= 0.01
        assert errs[1] <= 0.35 * errs[0]

    @staticmethod
    def _hessian_residual_n2(P):
        T = 2 * P
        g = gen_perturbed_sphere(1.0, 0.01, (3, 2), grid=(P, T))
        base = oracle.ball_to_hyper(np.array([0.1, 0.05, 0.15]))
        geom = build_geometry(g, base=base)
        hp, ht = g.h_phi, g.h_theta

        V = geom.V.reshape(P, T)
        Vnu = geom.V_nu.reshape(P, T)
        comp = {}
        for k, nm in enumerate(("pp", "pt", "tt")):
            comp["g" + nm] = geom.metric[k]
            comp["h" + nm] = geom.second_form[k]

        def d_phi(f):
            out = np.full_like(f, np.nan)
            out[1:-1] = (f[2:] - f[:-2]) / (2.0 * hp)
            return out

        def d_theta(f):
            return _periodic_d1(f, ht, 1)

        dV = {"p": d_phi(V), "t": d_theta(V)}
        ddV = {
            ("p", "p"): np.full_like(V, np.nan),
            ("p", "t"): d_theta(d_phi(V)),
            ("t", "t"): d_theta(d_theta(V)),
        }
        ddV[("p", "p")][1:-1] = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / hp ** 2

        dg = {}
        for nm in ("pp", "pt", "tt"):
            dg[("p", nm)] = d_phi(comp["g" + nm])
            dg[("t", nm)] = d_theta(comp["g" + nm])
        det = comp["gpp"] * comp["gtt"] - comp["gpt"] ** 2
        gi = {"pp": comp["gtt"] / det, "pt": -comp["gpt"] / det,
              "tt": comp["gpp"] / det}

        def christoffel(k, i, j):
            total = 0.0
            for l in ("p", "t"):
                half = 0.5 * (dg[(i, "".join(sorted(j + l)))]
                              + dg[(j, "".join(sorted(i + l)))]
                              - dg[(l, "".join(sorted(i + j)))])
                total = total + gi["".join(sorted(k + l))] * half
            return total

        worst = 0.0
        sl = slice(3, P - 3)
        scale = np.max(np.abs(V * comp["gpp"]))
        for (i, j), nm in ((("p", "p"), "pp"), (("p", "t"), "pt"),
                           (("t", "t"), "tt")):
            hess = (ddV[(i, j)] - christoffel("p", i, j) * dV["p"]
                    - christoffel("t", i, j) * dV["t"])
            target = V * comp["g" + nm] - Vnu * comp["h" + nm]
            worst = max(worst, float(np.max(np.abs((hess - target)[sl]))))
        return worst / scale
