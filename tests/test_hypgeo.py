"""Hyperboloid kernel tests: distances, geodesics, potentials, ball charts."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hkverify import hypgeo

import hypgeo_oracle as oracle


def random_point(rng, n=2, rmax=6.0):
    """Uniform direction, radius up to rmax, via the ball chart."""
    w = rng.normal(size=n + 1)
    w /= np.linalg.norm(w)
    r = rng.uniform(0.0, rmax)
    return oracle.ball_to_hyper(np.tanh(r / 2.0) * w)


def random_unit_tangent(rng, p):
    return oracle.unit_tangent(p, rng.normal(size=p.shape[-1]))


class TestPointsAndDistance:
    def test_origin(self):
        o = hypgeo.origin(2)
        assert o.shape == (4,)
        assert hypgeo.minkowski_inner(o, o) == -1.0
        hypgeo.validate_point(o)

    def test_dist_frozen(self, rng):
        o = hypgeo.origin(2)
        assert hypgeo.dist(o, o) == 0.0
        # ball radius tanh(1/2) sits at hyperbolic distance 1
        x = oracle.ball_to_hyper(np.array([math.tanh(0.5), 0.0, 0.0]))
        assert hypgeo.dist(o, x) == pytest.approx(1.0, abs=1e-13)

    def test_dist_symmetry(self, rng):
        for _ in range(50):
            p, q = random_point(rng), random_point(rng)
            assert hypgeo.dist(p, q) == hypgeo.dist(q, p)

    def test_dist_rejects_non_points(self):
        o = hypgeo.origin(2)
        with pytest.raises(ValueError):
            hypgeo.dist(o, 0.5 * o)

    def test_validate_rejects_off_sheet(self):
        with pytest.raises(ValueError):
            hypgeo.validate_point(np.array([0.5, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            hypgeo.sheet_normalize(np.array([-2.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            hypgeo.sheet_normalize(np.array([1.0, 3.0, 0.0, 0.0]))

    @pytest.mark.parametrize("point", [[math.nan, 0.0, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0],
                                       [math.inf, math.inf, 0.0, 0.0]], ids=repr)
    def test_validate_rejects_non_finite(self, point):
        # in a stack the first row that is not finite is named
        stack = np.array([hypgeo.origin(2), point, [math.nan] * 4])
        for p in (np.array(point), stack):
            with pytest.raises(ValueError, match=re.escape(
                    f"point {point} has a coordinate that is not finite")):
                hypgeo.validate_point(p)

    def test_nan_is_refused(self):
        # each refusal is a test NaN fails, so no kernel returns NaN for it
        o, u = hypgeo.origin(2), np.array([0.0, 1.0, 0.0, 0.0])
        nan = np.array([math.nan, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="not time-like"):
            hypgeo.sheet_normalize(nan)
        with pytest.raises(ValueError, match="inner product below 1"):
            hypgeo.dist(o, nan)
        with pytest.raises(ValueError, match="not time-like"):
            hypgeo.geodesic(o, u, math.nan)

    def test_sheet_normalize_scales_back(self, rng):
        p = random_point(rng)
        q = hypgeo.sheet_normalize(3.7 * p)
        assert np.max(np.abs(q - p)) <= 1e-14 * max(1.0, p[0])


class TestPotential:
    def test_frozen(self, rng):
        o = hypgeo.origin(2)
        assert hypgeo.potential(o, o) == 1.0
        u = random_unit_tangent(rng, o)
        p = hypgeo.geodesic(o, u, 1.0)
        assert hypgeo.potential(p, o) == pytest.approx(math.cosh(1.0), rel=1e-13)

    def test_hyperbolic_identity(self, rng):
        # V^2 - lambda^2 = 1 with lambda = sinh(dist)
        o = hypgeo.origin(2)
        for _ in range(50):
            p = random_point(rng)
            V = hypgeo.potential(p, o)
            lam = oracle.radial_sinh(p, o)
            assert V * V - lam * lam == pytest.approx(1.0, rel=1e-10)


class TestGeodesic:
    def test_initial_conditions(self, rng):
        p = random_point(rng, rmax=2.0)
        u = random_unit_tangent(rng, p)
        assert np.max(np.abs(hypgeo.geodesic(p, u, 0.0) - p)) <= 1e-13

    def test_unit_speed(self, rng):
        o = hypgeo.origin(2)
        for _ in range(50):
            p = random_point(rng, rmax=3.0)
            u = random_unit_tangent(rng, p)
            t = rng.uniform(-5.0, 5.0)
            q = hypgeo.geodesic(p, u, t)
            assert hypgeo.dist(p, q) == pytest.approx(abs(t), abs=1e-10)

    def test_constraint_drift(self, rng):
        # |<p,p> + 1| stays below 1e-9 (scaled) out to |t| = 10
        p = random_point(rng, rmax=2.0)
        u = random_unit_tangent(rng, p)
        t = np.linspace(-10.0, 10.0, 41)
        q = hypgeo.geodesic(p[None, :], u[None, :], t[:, None])
        resid = np.abs(hypgeo.minkowski_inner(q, q) + 1.0)
        assert np.all(resid <= 1e-9 * np.maximum(1.0, q[..., 0] ** 2))

    def test_two_step_consistency(self, rng):
        for _ in range(25):
            p = random_point(rng, rmax=2.0)
            u = random_unit_tangent(rng, p)
            s, t = rng.uniform(-2.0, 2.0, size=2)
            q = hypgeo.geodesic(p, u, s)
            v = oracle.geodesic_velocity(p, u, s)
            one_leg = hypgeo.geodesic(p, u, s + t)
            two_leg = hypgeo.geodesic(q, v, t)
            assert np.max(np.abs(one_leg - two_leg)) <= 1e-10 * max(1.0, one_leg[0])

    def test_velocity_is_parallel_transport(self, rng):
        # unit, tangent at the evolved point, and reduces to u at t = 0
        p = random_point(rng, rmax=2.0)
        u = random_unit_tangent(rng, p)
        for t in (0.0, 0.7, -1.3, 4.0):
            q = hypgeo.geodesic(p, u, t)
            v = oracle.geodesic_velocity(p, u, t)
            assert hypgeo.minkowski_inner(v, v) == pytest.approx(1.0, abs=1e-9)
            assert hypgeo.minkowski_inner(v, q) == pytest.approx(0.0, abs=1e-9)

    def test_potential_transport_law(self, rng):
        # V(gamma(t)) = V(p) cosh t + <lambda d_r, u> sinh t for unit u
        o = hypgeo.origin(2)
        for _ in range(50):
            p = random_point(rng, rmax=3.0)
            u = random_unit_tangent(rng, p)
            t = rng.uniform(-3.0, 3.0)
            V0 = hypgeo.potential(p, o)
            drift = hypgeo.minkowski_inner(oracle.radial_field(p, o), u)
            want = V0 * math.cosh(t) + drift * math.sinh(t)
            got = hypgeo.potential(hypgeo.geodesic(p, u, t), o)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


class TestRadialField:
    def test_norm_is_sinh_r(self, rng):
        o = hypgeo.origin(2)
        for _ in range(50):
            p = random_point(rng)
            w = oracle.radial_field(p, o)
            norm = math.sqrt(max(hypgeo.minkowski_inner(w, w), 0.0))
            assert norm == pytest.approx(math.sinh(hypgeo.dist(p, o)), rel=1e-10)

    def test_projection_on_radial_direction(self, rng):
        o = hypgeo.origin(2)
        p = random_point(rng, rmax=3.0)
        w = oracle.radial_field(p, o)
        radial = oracle.unit_tangent(p, w)
        assert hypgeo.minkowski_inner(w, radial) == pytest.approx(
            math.sinh(hypgeo.dist(p, o)), rel=1e-10)

    def test_degenerate_at_base(self):
        o = hypgeo.origin(2)
        assert np.all(oracle.radial_field(o, o) == 0.0)

    def test_conformal_killing_finite_differences(self, rng):
        # <D_X (lambda d_r), X> = cosh(r) |X|^2 along any unit tangent X;
        # ambient covariant derivative = tangential projection of d/ds
        o = hypgeo.origin(2)
        eps = 1e-5
        for _ in range(12):
            p = random_point(rng, rmax=2.5)
            x = random_unit_tangent(rng, p)
            wp = oracle.radial_field(hypgeo.geodesic(p, x, eps), o)
            wm = oracle.radial_field(hypgeo.geodesic(p, x, -eps), o)
            deriv = oracle.tangent_project(p, (wp - wm) / (2.0 * eps))
            got = hypgeo.minkowski_inner(deriv, x)
            want = math.cosh(hypgeo.dist(p, o))
            assert got == pytest.approx(want, abs=1e-6 * max(1.0, want))


# Row entries: signed zeros and subnormals drawn often, unit-sized values
# whose sums round in order-dependent ways, and magnitudes small enough
# that no product or sum overflows.
ROW_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(-10.0, 10.0),
    st.floats(-1e150, 1e150),
)
LEADING = st.sampled_from([(), (1,), (5,), (2, 3)])


class TestRowKernels:
    """The short-row folds equal numpy's reductions bit for bit."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fold_matches_reductions(self, data):
        shape = data.draw(LEADING) + (data.draw(st.integers(1, 4)),)
        a = data.draw(hnp.arrays(float, shape, elements=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e75, 1e75))))
        assert oracle.same_bits(hypgeo._row_fold(np.add, a), np.sum(a, axis=-1))
        assert oracle.same_bits(hypgeo._row_fold(np.multiply, a), np.prod(a, axis=-1))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_minkowski_inner_matches_np_sum(self, data):
        shape = data.draw(LEADING) + (data.draw(st.sampled_from([3, 4])),)
        u = data.draw(hnp.arrays(float, shape, elements=ROW_FLOATS))
        v = data.draw(hnp.arrays(float, shape, elements=ROW_FLOATS))
        want = -u[..., 0] * v[..., 0] + np.sum(u[..., 1:] * v[..., 1:], axis=-1)
        assert oracle.same_bits(hypgeo.minkowski_inner(u, v), want)


def _outcome(f):
    """f()'s value, or the message of the ValueError it raises."""
    try:
        return f()
    except ValueError as exc:
        return str(exc)


def _geodesic_points(data, n, N):
    """N points on geodesics from a common base point, some on the lower sheet."""
    angles = st.floats(0.0, 2.0 * math.pi)
    dirs = []
    for _ in range(N + 1):
        a, b = data.draw(angles), data.draw(angles)
        dirs.append([0.0, math.cos(a), math.sin(a)] if n == 1 else
                    [0.0, math.sin(b) * math.cos(a), math.sin(b) * math.sin(a), math.cos(b)])
    dirs = np.array(dirs)
    base = hypgeo.geodesic(hypgeo.origin(n), dirs[0], data.draw(st.floats(0.0, 3.0)))
    ts = data.draw(hnp.arrays(float, N, elements=st.floats(0.0, 6.0)))
    p = hypgeo.geodesic(base, oracle.unit_tangent(base, dirs[1:]), ts)
    # an upper point against a lower one has <p, q> >= 1: the refusal
    lower = data.draw(hnp.arrays(bool, N, elements=st.booleans() | st.just(False)))
    p[lower] *= -1.0
    return p


class TestPairDist:
    """The scan's column-gather distance kernel is hypgeo.dist bit for bit."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_dist(self, data):
        n = data.draw(st.sampled_from([1, 2]))
        N = data.draw(st.integers(1, 6))
        p = _geodesic_points(data, n, N)
        P = data.draw(st.integers(0, 12))
        index = hnp.arrays(np.intp, P, elements=st.integers(0, N - 1))
        i, j = data.draw(index), data.draw(index)
        got = _outcome(lambda: hypgeo._pair_dist(p, i, j))
        want = _outcome(lambda: hypgeo.dist(p[i], p[j]))
        if isinstance(want, str):
            assert got == want
        else:
            assert oracle.same_bits(got, want)

    def test_empty_repeated_and_refused(self):
        o = hypgeo.origin(2)
        p = np.stack([o, hypgeo.geodesic(o, np.array([0.0, 0.6, 0.0, 0.8]), 1.5), -o])
        empty = np.array([], dtype=np.intp)
        assert hypgeo._pair_dist(p, empty, empty).shape == (0,)
        i, j = np.array([0, 1, 1, 0]), np.array([0, 1, 0, 1])
        assert oracle.same_bits(hypgeo._pair_dist(p, i, j), hypgeo.dist(p[i], p[j]))
        assert hypgeo._pair_dist(p, i, j)[2] == pytest.approx(1.5, abs=1e-12)
        with pytest.raises(ValueError, match="inner product below 1"):
            hypgeo._pair_dist(p, np.array([0, 1]), np.array([1, 2]))

    def test_nan_row_refused(self):
        o = hypgeo.origin(2)
        p = np.stack([o, [math.nan, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="inner product below 1"):
            hypgeo._pair_dist(p, np.array([0, 0]), np.array([0, 1]))


class TestBallChart:
    def test_origin_maps_to_apex(self):
        x = np.zeros(3)
        assert np.array_equal(oracle.ball_to_hyper(x), hypgeo.origin(2))
        assert np.all(hypgeo.hyper_to_ball(hypgeo.origin(2)) == 0.0)

    @given(st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, coords):
        x = np.asarray(coords)
        if np.sum(x * x) >= 0.995:
            return
        p = oracle.ball_to_hyper(x)
        hypgeo.validate_point(p)
        assert np.max(np.abs(hypgeo.hyper_to_ball(p) - x)) <= 1e-12

    def test_round_trip_large_radius(self, rng):
        for _ in range(50):
            p = random_point(rng, rmax=6.0)
            q = oracle.ball_to_hyper(hypgeo.hyper_to_ball(p))
            assert np.max(np.abs(q - p)) <= 1e-12 * max(1.0, p[0])

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            oracle.ball_to_hyper(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            oracle.conformal_factor(np.array([0.8, 0.8]))

    def test_conformal_factor_frozen(self, rng):
        # f = cosh(r) + 1, so at r = 1 it is cosh(1) + 1
        o = hypgeo.origin(2)
        u = random_unit_tangent(rng, o)
        p = hypgeo.geodesic(o, u, 1.0)
        got = oracle.conformal_factor(hypgeo.hyper_to_ball(p))
        assert got == pytest.approx(math.cosh(1.0) + 1.0, rel=1e-12)

    def test_conformal_factor_matches_potential(self, rng):
        o = hypgeo.origin(2)
        for _ in range(50):
            p = random_point(rng)
            f = oracle.conformal_factor(hypgeo.hyper_to_ball(p))
            assert f == pytest.approx(hypgeo.potential(p, o) + 1.0, rel=1e-12)


class TestTangent:
    def test_projection_is_tangent(self, rng):
        p = random_point(rng)
        w = rng.normal(size=4)
        v = oracle.tangent_project(p, w)
        assert hypgeo.minkowski_inner(v, p) == pytest.approx(0.0, abs=1e-12 * p[0] ** 2)

    def test_unit_tangent_norm(self, rng):
        p = random_point(rng)
        u = oracle.unit_tangent(p, rng.normal(size=4))
        assert hypgeo.minkowski_inner(u, u) == pytest.approx(1.0, rel=1e-12)

    def test_unit_tangent_rejects_time_like(self, rng):
        p = random_point(rng)
        with pytest.raises(ValueError):
            oracle.unit_tangent(p, p.copy())
