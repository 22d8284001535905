"""Hyperboloid formulas that only tests use, as independent references.

The conformal field sinh(r) d_r, the warping factor sinh(r), geodesic
velocities, tangent projections, unit tangents, the ball chart's map
to the hyperboloid (ball_to_hyper) and its conformal factor are not
needed by the package; the tests use them to build points and to check
what it computes.  `same_bits` is the comparison of the tests that hold
a kernel to numpy's own reductions bit for bit.
"""

import numpy as np

from hkverify.hypgeo import minkowski_inner, potential


def radial_sinh(p, base) -> np.ndarray | float:
    """sinh of the distance to the base point (the warping factor)."""
    v = potential(p, base)
    return np.sqrt(np.maximum(np.asarray(v) ** 2 - 1.0, 0.0))


def geodesic_velocity(p, u, t) -> np.ndarray:
    """Velocity of the geodesic at time t, the parallel transport of u."""
    t = np.asarray(t, dtype=float)
    return np.sinh(t)[..., None] * np.asarray(p, float) + np.cosh(t)[..., None] * np.asarray(u, float)


def radial_field(p, base) -> np.ndarray:
    """Conformal vector field sinh(r) d_r at p, relative to the base point.

    On the hyperboloid this is the tangential projection of -base, which
    collapses to V(p) p - base.  At p = base it degenerates to the zero
    vector; callers that need a direction must test for that.
    """
    p = np.asarray(p, dtype=float)
    base = np.asarray(base, dtype=float)
    return np.asarray(potential(p, base))[..., None] * p - base


def tangent_project(p, w) -> np.ndarray:
    """Project an ambient vector onto the tangent space at p."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    return w + np.asarray(minkowski_inner(w, p))[..., None] * p


def unit_tangent(p, w) -> np.ndarray:
    """Tangential part of w at p, normalized to unit Minkowski length."""
    v = tangent_project(p, w)
    norm2 = minkowski_inner(v, v)
    if np.any(np.asarray(norm2) <= 0.0):
        raise ValueError("projected vector has no space-like part")
    return v / np.sqrt(norm2)[..., None]


def ball_to_hyper(x) -> np.ndarray:
    """Poincare ball point |x| < 1 to hyperboloid coordinates."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 >= 1.0):
        raise ValueError("ball point must satisfy |x| < 1")
    denom = 1.0 - r2
    p0 = (1.0 + r2) / denom
    ps = 2.0 * x / denom[..., None]
    return np.concatenate([p0[..., None], ps], axis=-1)


def conformal_factor(x) -> np.ndarray | float:
    """Ball-model conformal factor f = 2 / (1 - |x|^2) = cosh(r) + 1."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 >= 1.0):
        raise ValueError("ball point must satisfy |x| < 1")
    return 2.0 / (1.0 - r2)


def same_bits(got, want) -> bool:
    """Equal shapes and equal float64 bytes, so -0.0 differs from 0.0."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()
