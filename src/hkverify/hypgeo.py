"""Hyperboloid-model kernels for hyperbolic space H^{n+1}.

Points are rows of length n+2 on the upper sheet of the unit hyperboloid
in Minkowski space: <p, p> = -1 with the time-like coordinate first and
p[0] >= 1.  All functions broadcast over leading axes, so a single point
and a stack of points go through the same code.

Geodesics, distances and the static potential V = cosh(dist to base)
are closed-form linear algebra on the hyperboloid.  The Poincare ball
model appears only as an output chart, hyper_to_ball, whose coordinates
the flow's collision scan puts in its KD-trees.
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
    "hyper_to_ball",
]

# Constraint |<p,p> + 1| allowed after normalization, at unit scale.  The
# raw quadratic form loses precision like p0^2 * eps far from the origin,
# so validation scales the bound with max(1, p0^2).
SHEET_TOL = 1e-10


def _row_fold(ufunc, a):
    """Fold `ufunc` over the short last axis of `a`, left to right.

    Starts from the ufunc's identity: ((0.0 + a0) + a1) + a2 for np.add,
    ((1.0 * a0) * a1) for np.multiply.  Over fewer than 8 terms that is
    the order np.sum and np.prod use, so the result equals theirs bit for
    bit, sign of zero included, at a fraction of a reduction's cost on
    rows of 2-3 terms.
    """
    out = np.float64(ufunc.identity)
    for k in range(a.shape[-1]):
        out = ufunc(out, a[..., k])
    return out


def minkowski_inner(u, v) -> np.ndarray | float:
    """Minkowski inner product -u0*v0 + u.v over the last axis.

    The spatial part u.v is summed left to right, as np.sum adds a short
    row, by column arithmetic rather than a reduction.  The products are
    formed on whole rows, which is cheaper than on the strided spatial
    slice; u.v - u0*v0 is the same float as -u0*v0 + u.v.
    """
    uv = np.asarray(u, dtype=float) * np.asarray(v, dtype=float)
    return _row_fold(np.add, uv[..., 1:]) - uv[..., 0]


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


def validate_point(p) -> None:
    """Check the hyperboloid constraints to SHEET_TOL, scaled by the point size."""
    p = np.asarray(p, dtype=float)
    resid = np.abs(minkowski_inner(p, p) + 1.0)
    scale = np.maximum(1.0, p[..., 0] ** 2)
    if np.any(resid > SHEET_TOL * scale):
        raise ValueError("point violates the hyperboloid constraint")
    if np.any(p[..., 0] < 1.0 - SHEET_TOL):
        raise ValueError("point is off the upper sheet")


_DIST_REFUSAL = "inner product below 1, inputs are not hyperboloid points"


def dist(p, q) -> np.ndarray | float:
    """Geodesic distance arccosh(-<p, q>)."""
    c = -minkowski_inner(p, q)
    if np.any(c < 1.0 - 1e-12):
        raise ValueError(_DIST_REFUSAL)
    return np.arccosh(np.maximum(c, 1.0))


def _pair_dist(p, i, j) -> np.ndarray:
    """dist(p[i], p[j]) for index arrays i, j, by column gathers.

    Gathers one coordinate column at a time from a contiguous copy of
    p.T and folds ((0.0 + x1 y1) + x2 y2) + ... - x0 y0 in place, the
    operations minkowski_inner does in the same order, so the result
    equals dist(p[i], p[j]) bit for bit, refusal included.  It never
    builds the (P, n+2) row gathers or their product, so its memory is a
    few P-length columns.
    """
    cols = np.ascontiguousarray(np.asarray(p, dtype=float).T)
    s = np.zeros(np.shape(i))
    for k in range(1, cols.shape[0]):
        x = cols[k][i]
        x *= cols[k][j]
        s += x
    x = cols[0][i]
    x *= cols[0][j]
    s -= x
    np.negative(s, out=s)
    if np.any(s < 1.0 - 1e-12):
        raise ValueError(_DIST_REFUSAL)
    np.maximum(s, 1.0, out=s)
    return np.arccosh(s, out=s)


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


def hyper_to_ball(p) -> np.ndarray:
    """Hyperboloid point to Poincare ball coordinates x = p_space / (1 + p0)."""
    p = np.asarray(p, dtype=float)
    return p[..., 1:] / (1.0 + p[..., 0])[..., None]
