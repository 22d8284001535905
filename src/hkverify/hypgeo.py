"""Hyperboloid-model kernels for hyperbolic space H^{n+1}.

Points are rows of length n+2 on the upper sheet of the unit hyperboloid
in Minkowski space: <p, p> = -1 with the time-like coordinate first and
p[0] >= 1.  All functions broadcast over leading axes, so a single point
and a stack of points go through the same code.

Geodesics, distances and the static potential V = cosh(dist to base)
are closed-form linear algebra on the hyperboloid.  The Poincare ball model exists here only as an input/output
coordinate chart.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SHEET_TOL",
    "minkowski_inner",
    "origin",
    "sheet_normalize",
    "validate_point",
    "dist",
    "potential",
    "geodesic",
    "ball_to_hyper",
    "hyper_to_ball",
]

# Constraint |<p,p> + 1| allowed after normalization, at unit scale.  The
# raw quadratic form loses precision like p0^2 * eps far from the origin,
# so validation scales the bound with max(1, p0^2).
SHEET_TOL = 1e-10


def minkowski_inner(u, v) -> np.ndarray | float:
    """Minkowski inner product -u0*v0 + u.v over the last axis."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return -u[..., 0] * v[..., 0] + np.sum(u[..., 1:] * v[..., 1:], axis=-1)


def origin(n: int) -> np.ndarray:
    """Base point (1, 0, ..., 0) of H^{n+1}, an array of length n+2."""
    o = np.zeros(n + 2)
    o[0] = 1.0
    return o


def sheet_normalize(p) -> np.ndarray:
    """Rescale time-like vectors back onto the upper hyperboloid sheet."""
    p = np.asarray(p, dtype=float)
    q = minkowski_inner(p, p)
    if np.any(q >= 0.0):
        raise ValueError("vector is not time-like, cannot lie on the hyperboloid")
    if np.any(p[..., 0] <= 0.0):
        raise ValueError("vector is on the lower sheet")
    return p / np.sqrt(-q)[..., None]


def validate_point(p, tol: float = SHEET_TOL) -> None:
    """Check the hyperboloid constraints, scaling tol by the point size."""
    p = np.asarray(p, dtype=float)
    resid = np.abs(minkowski_inner(p, p) + 1.0)
    scale = np.maximum(1.0, p[..., 0] ** 2)
    if np.any(resid > tol * scale):
        raise ValueError("point violates the hyperboloid constraint")
    if np.any(p[..., 0] < 1.0 - tol):
        raise ValueError("point is off the upper sheet")


def dist(p, q) -> np.ndarray | float:
    """Geodesic distance arccosh(-<p, q>)."""
    c = -minkowski_inner(p, q)
    if np.any(c < 1.0 - 1e-12):
        raise ValueError("inner product below 1, inputs are not hyperboloid points")
    return np.arccosh(np.maximum(c, 1.0))


def potential(p, base) -> np.ndarray | float:
    """Static potential V = cosh(dist(p, base)) = -<p, base>."""
    return -minkowski_inner(p, base)


def geodesic(p, u, t) -> np.ndarray:
    """Unit-speed geodesic cosh(t) p + sinh(t) u, renormalized.

    `u` must be a unit tangent vector at p (Minkowski-orthogonal to p).
    """
    t = np.asarray(t, dtype=float)
    out = np.cosh(t)[..., None] * np.asarray(p, float) + np.sinh(t)[..., None] * np.asarray(u, float)
    return sheet_normalize(out)


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


def hyper_to_ball(p) -> np.ndarray:
    """Hyperboloid point to Poincare ball coordinates x = p_space / (1 + p0)."""
    p = np.asarray(p, dtype=float)
    return p[..., 1:] / (1.0 + p[..., 0])[..., None]
