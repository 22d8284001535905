"""Discrete star-shaped hypersurfaces in H^{n+1} (n = 1, 2) as radial graphs.

Grid conventions
----------------
n = 1: uniform angles theta_j = 2 pi j / n_theta, rho stored as (n_theta,).

n = 2: staggered colatitudes phi_i = (i + 1/2) pi / n_phi (no node sits on
a pole) crossed with uniform azimuths theta_j = 2 pi j / n_theta; rho is
stored row-major as (n_phi, n_theta).  Fields continue smoothly across a
pole via (phi -> -phi, theta -> theta + pi), which is why n_theta must be
even.

Derivatives use 4th-order central stencils (periodic in the azimuth, ghost
rows from the pole rule in the colatitude).  Quadrature is the midpoint
rule with sin(phi) weight in the colatitude times the trapezoid rule in
the azimuth, so integrals of smooth surface data converge at second order
overall while the pointwise geometry is more accurate than that.

The induced geometry of the graph r = rho(angles) over the warped metric
dr^2 + sinh(r)^2 dS^2 is assembled from the standard closed forms

    g_ij = rho_i rho_j + sinh(rho)^2 s_ij
    h_ij = (-D_i D_j rho + 2 coth(rho) rho_i rho_j
            + sinh(rho) cosh(rho) s_ij) / v,
    v    = sqrt(1 + |grad rho|^2_s / sinh(rho)^2),

where s is the round metric of the parameter sphere and D its connection.
The outward normal gives geodesic spheres the positive curvature coth(R).
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import lpmv

from . import hypgeo
from ._util import atomic_write_text, exact_sum
from .errors import DegenerateSurfaceError, GenerationError, RejectedShapeError

__all__ = [
    "H_MARGIN",
    "RadialGraph",
    "SurfaceGeometry",
    "build_geometry",
    "geometry_for",
    "area_integral",
    "weighted_volume",
    "enclosed_volume",
    "gen_sphere",
    "gen_perturbed_sphere",
    "save_surface",
    "load_surface",
]

MIN_GRID = 8
# margin by which H must exceed its bound (0 or n) before a check or
# flow that divides by H or H - n accepts a surface
H_MARGIN = 1e-8


def _angle_grid(n: int, grid):
    """Node angles: theta on a (T,) grid for n = 1, (phi, theta) on (P, T)."""
    if n == 1:
        (T,) = grid
        return np.arange(T) * (2.0 * np.pi / T)
    P, T = grid
    return (np.arange(P) + 0.5) * (np.pi / P), np.arange(T) * (2.0 * np.pi / T)


@dataclass
class RadialGraph:
    """Radial distance samples of a closed star-shaped hypersurface."""

    n: int
    rho: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.n not in (1, 2):
            raise ValueError(f"hypersurface dimension must be 1 or 2, got {self.n}")
        if self.rho.ndim != self.n:
            raise ValueError(f"rho must be a {self.n}-D array for n = {self.n}")
        if not np.all(np.isfinite(self.rho)):
            raise ValueError("rho contains non-finite entries")
        if np.any(self.rho <= 0.0):
            raise ValueError("rho must be strictly positive")
        if any(s < MIN_GRID for s in self.rho.shape):
            raise ValueError(f"grid sizes must be at least {MIN_GRID}")
        if self.n == 2 and self.rho.shape[1] % 2 != 0:
            raise ValueError("n_theta must be even (pole continuation shifts by pi)")

    @property
    def n_theta(self) -> int:
        return self.rho.shape[-1]

    @property
    def n_phi(self) -> int:
        if self.n != 2:
            raise AttributeError("n_phi is only defined for n = 2")
        return self.rho.shape[0]

    @property
    def h_theta(self) -> float:
        return 2.0 * np.pi / self.n_theta

    @property
    def h_phi(self) -> float:
        return np.pi / self.n_phi

    @property
    def resolution(self) -> float:
        """Angular step that governs quadrature error, h in the tol = C h^2 rule."""
        return self.h_phi if self.n == 2 else self.h_theta

    def angles(self):
        """Colatitude/azimuth node coordinates (phi, theta) or just theta."""
        return _angle_grid(self.n, self.rho.shape)

    def rotated(self, steps: int) -> "RadialGraph":
        """Same surface with the azimuth grid rolled by an integer step."""
        return RadialGraph(self.n, np.roll(self.rho, steps, axis=-1), dict(self.meta))

    def to_dict(self) -> dict:
        grid = {"n_theta": self.n_theta}
        if self.n == 2:
            grid = {"n_phi": self.n_phi, "n_theta": self.n_theta}
        return {
            "n": self.n,
            "grid": grid,
            "rho": base64.b64encode(_rho_bytes(self.rho)).decode("ascii"),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RadialGraph":
        """A graph from its to_dict() record; any malformed record is a ValueError."""
        try:
            n, grid, meta = int(data["n"]), data["grid"], data.get("meta", {})
            if n not in (1, 2):
                raise ValueError(f"unsupported dimension n = {n}")
            if not (isinstance(grid, dict) and isinstance(meta, dict)):
                raise ValueError("grid and meta must be JSON objects")
            shape = tuple(int(grid[key]) for key in ("n_phi", "n_theta")[2 - n:])
            flat = _rho_from_text(data["rho"], math.prod(shape))
        except KeyError as exc:
            raise ValueError(f"malformed surface record: missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed surface record: {exc}") from exc
        return cls(n, flat.reshape(shape), dict(meta))


def _rho_bytes(rho) -> bytes:
    """rho as row-major little-endian float64 bytes: what a surface file
    stores (base64) and what a report's config_hash hashes."""
    return np.ascontiguousarray(rho, dtype="<f8").tobytes()


def _rho_from_text(text, count: int) -> np.ndarray:
    """The `count` values of a record's base64 rho, as a writable array."""
    if isinstance(text, list):
        raise ValueError("rho is in the old text format (a list of decimals); "
                         "regenerate the surface with `hkverify gen`")
    if not isinstance(text, str):
        raise ValueError("rho must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error included
        raise ValueError(f"rho is not base64: {exc}") from exc
    if len(raw) != 8 * count:
        raise ValueError(f"rho holds {len(raw)} bytes, the declared grid "
                         f"needs {8 * count}")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def save_surface(graph: RadialGraph, path) -> None:
    atomic_write_text(path, json.dumps(graph.to_dict()) + "\n")


def load_surface(path) -> RadialGraph:
    with open(path) as handle:
        return RadialGraph.from_dict(json.load(handle))


# 4th-order central stencils.  np.roll(f, k) picks up f[j - k], so positive
# shifts look backward along the axis.

def _periodic_d1(f, h, axis):
    return (
        -np.roll(f, -2, axis) + 8.0 * np.roll(f, -1, axis)
        - 8.0 * np.roll(f, 1, axis) + np.roll(f, 2, axis)
    ) / (12.0 * h)


def _periodic_d2(f, h, axis):
    return (
        -np.roll(f, -2, axis) + 16.0 * np.roll(f, -1, axis) - 30.0 * f
        + 16.0 * np.roll(f, 1, axis) - np.roll(f, 2, axis)
    ) / (12.0 * h * h)


def _pole_extend(f: np.ndarray) -> np.ndarray:
    """Add two ghost rows per pole using (phi -> -phi, theta -> theta + pi)."""
    flip = np.roll(f, f.shape[1] // 2, axis=1)
    return np.vstack([flip[1::-1], f, flip[:-3:-1]])


def _colat_d1(ext, h):
    return (-ext[4:] + 8.0 * ext[3:-1] - 8.0 * ext[1:-3] + ext[:-4]) / (12.0 * h)


def _colat_d2(ext, h):
    return (
        -ext[4:] + 16.0 * ext[3:-1] - 30.0 * ext[2:-2]
        + 16.0 * ext[1:-3] - ext[:-4]
    ) / (12.0 * h * h)


@dataclass
class SurfaceGeometry:
    """Pointwise discrete geometry of a radial graph.

    Grid-shaped fields: sinh(rho), cosh(rho), the normal's stretch v, the
    angular derivatives of rho (`grad`: (rho_theta,) for n = 1, (rho_phi,
    rho_theta) for n = 2) and the components of the induced metric and
    second fundamental form ((g,) and (h,) for n = 1; the pp, pt, tt
    components for n = 2).

    Flattened row-major: kappa, the principal curvatures sorted ascending
    per node, and area_weight, which already contains the full quadrature
    weight, so surface integrals are plain weighted sums.  V and V_nu are
    taken about `base` (the graph's centre when None is passed).

    Lazy, built on first read: the (N, n+2) hyperboloid `position` and
    outward unit `normal` of each node, and the volumes.  About the centre
    no check reads them, since there V = cosh(rho) and V_nu = sinh(rho) / v.
    """

    graph: RadialGraph
    sinh_rho: np.ndarray
    cosh_rho: np.ndarray
    v: np.ndarray
    grad: tuple
    metric: tuple
    second_form: tuple
    kappa: np.ndarray
    area_weight: np.ndarray
    base: np.ndarray | None = None
    V: np.ndarray = field(init=False)
    V_nu: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.base is None:
            # -<position, o> and -<normal, o> about the origin o, bit for bit
            self.base = hypgeo.origin(self.n)
            self.V = self.cosh_rho.ravel()
            self.V_nu = (self.sinh_rho / self.v).ravel()
        else:
            self.V = hypgeo.potential(self.position, self.base)
            self.V_nu = hypgeo.potential(self.normal, self.base)

    @cached_property
    def position(self) -> np.ndarray:
        """Hyperboloid point (cosh rho, sinh rho w) of each node."""
        lam, lamp = self.sinh_rho[..., None], self.cosh_rho[..., None]
        position = np.concatenate([lamp, lam * _directions(self.graph)], axis=-1)
        return position.reshape(-1, self.n + 2)

    @cached_property
    def normal(self) -> np.ndarray:
        """Outward unit normal of each node, tangent to the hyperboloid."""
        lam, lamp, v = self.sinh_rho, self.cosh_rho, self.v
        if self.n == 1:
            theta = self.graph.angles()
            w_t = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
            slope = (self.grad[0] / lam)[:, None] * w_t
        else:
            phi, theta = self.graph.angles()
            sp = np.sin(phi)[:, None]
            cp = np.cos(phi)[:, None]
            w_phi = np.stack(
                [cp * np.cos(theta)[None, :], cp * np.sin(theta)[None, :],
                 np.broadcast_to(-sp, lam.shape)],
                axis=-1,
            )
            w_theta = np.stack(
                [-sp * np.sin(theta)[None, :], sp * np.cos(theta)[None, :],
                 np.zeros(lam.shape)],
                axis=-1,
            )
            rho_p, rho_t = self.grad
            tangential = rho_p[..., None] * w_phi + (rho_t / sp**2)[..., None] * w_theta
            slope = tangential / lam[..., None]
        nu_space = (lamp[..., None] * _directions(self.graph) - slope) / v[..., None]
        normal = np.concatenate([(lam / v)[..., None], nu_space], axis=-1)
        return normal.reshape(-1, self.n + 2)

    @property
    def kappa_shifted(self) -> np.ndarray:
        """kappa - 1, the hyperbolic-convexity eigenvalues."""
        return self.kappa - 1.0

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def grid(self) -> tuple:
        return self.graph.rho.shape

    @property
    def resolution(self) -> float:
        return self.graph.resolution

    @property
    def mean_curvature(self) -> np.ndarray:
        return hypgeo._row_fold(np.add, self.kappa)

    @cached_property
    def weighted_volume(self) -> float:
        """Integral of V over the enclosed region, about `base`."""
        return weighted_volume(self.graph, self.base)

    @cached_property
    def enclosed_volume(self) -> float:
        """Unweighted volume of the enclosed region."""
        return enclosed_volume(self.graph)

    def node_count(self) -> int:
        return self.area_weight.size

    def area(self) -> float:
        return exact_sum(self.area_weight)


def area_integral(geom: SurfaceGeometry, values) -> float:
    """Surface integral of a per-node field by compensated summation; NaN past the float range."""
    values = np.asarray(values, dtype=float)
    if values.shape != geom.area_weight.shape:
        raise ValueError("integrand shape does not match the node count")
    try:
        return exact_sum(values * geom.area_weight)
    except OverflowError:
        return math.nan


def _sigma_weights(graph: RadialGraph) -> np.ndarray:
    """Quadrature weights for the parameter sphere (no surface factors)."""
    if graph.n == 1:
        return np.full(graph.n_theta, graph.h_theta)
    phi, _ = graph.angles()
    w = np.sin(phi)[:, None] * graph.h_phi * graph.h_theta
    return np.broadcast_to(w, graph.rho.shape).copy()


def _directions(graph: RadialGraph) -> np.ndarray:
    """Unit vector on the parameter sphere of each node, shape (*grid, n+1)."""
    if graph.n == 1:
        theta = graph.angles()
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    phi, theta = graph.angles()
    sp = np.sin(phi)[:, None]
    cp = np.cos(phi)[:, None]
    return np.stack(
        [sp * np.cos(theta)[None, :], sp * np.sin(theta)[None, :],
         np.broadcast_to(cp, graph.rho.shape)],
        axis=-1,
    )


def weighted_volume(graph: RadialGraph, base=None) -> float:
    """Integral of the potential V = -<x, base> over the enclosed region.

    The integrand is linear in x = (cosh r, sinh r w), so per direction w
    the radial integral is exact:

        b_0 sinh(rho)^{n+1} / (n+1) - (b_space . w) int_0^rho sinh(r)^{n+1} dr,

    where the last integral is (cosh rho - 1)^2 (cosh rho + 2) / 3 for
    n = 2 and (sinh rho cosh rho - rho) / 2 for n = 1.  Only the angular
    quadrature is discrete.  `base` defaults to the graph's center, the
    coordinate origin, where the second term vanishes.
    """
    if base is None:
        base = hypgeo.origin(graph.n)
    else:
        base = np.asarray(base, dtype=float)
        hypgeo.validate_point(base)
    rho = graph.rho
    if graph.n == 2:
        c = np.cosh(rho)
        tilt = (c - 1.0) ** 2 * (c + 2.0) / 3.0
    else:
        tilt = (np.sinh(rho) * np.cosh(rho) - rho) / 2.0
    radial = (base[0] * np.sinh(rho) ** (graph.n + 1) / (graph.n + 1)
              - (_directions(graph) @ base[1:]) * tilt)
    return exact_sum(radial * _sigma_weights(graph))


def enclosed_volume(graph: RadialGraph) -> float:
    """Unweighted volume of the enclosed region (exact radial integral)."""
    if graph.n == 1:
        radial = np.cosh(graph.rho) - 1.0
    else:
        radial = (np.sinh(graph.rho) * np.cosh(graph.rho) - graph.rho) / 2.0
    return exact_sum(radial * _sigma_weights(graph))


def geometry_for(graph: RadialGraph, geom: SurfaceGeometry | None = None) -> SurfaceGeometry:
    """The geometry of `graph`: `geom` itself, or a centered one if None.

    Raises ValueError when `geom` was built from another graph (a
    different dimension or different rho bits).
    """
    if geom is None:
        return build_geometry(graph)
    if geom.graph is not graph and (
            geom.n != graph.n or not np.array_equal(geom.graph.rho, graph.rho)):
        raise ValueError("the geometry was not built from this graph")
    return geom


def build_geometry(graph: RadialGraph, base=None) -> SurfaceGeometry:
    """Assemble the discrete first and second fundamental forms.

    `base` is the base point of the static potential (defaults to the
    graph's own center); V and the support function V_nu are computed
    against it, so off-center potentials vary over the surface.  Refuses
    a metric that is not positive definite, non-finite curvatures or
    V - V_nu (sinh(rho)^2 overflows past rho ~ 355), and a support function
    that reaches the potential, V - V_nu <= 0, naming the first such node.
    Overflow and invalid-value warnings are silenced while the arrays are
    built, because those refusals catch every value they would warn about.
    """
    if base is not None:
        base = np.asarray(base, dtype=float)
        hypgeo.validate_point(base)
    with np.errstate(over="ignore", invalid="ignore"):
        geom = _core_n2(graph, base) if graph.n == 2 else _core_n1(graph, base)
        gap = geom.V - geom.V_nu
    finite = np.isfinite(gap)
    for kappa_i in geom.kappa.T:  # column by column: all(axis=-1) is ~10x slower
        finite &= np.isfinite(kappa_i)
    bad = np.nonzero(~finite)[0]
    if bad.size:
        raise DegenerateSurfaceError(
            "curvatures or V - V_nu are not finite", node=int(bad[0])
        )
    bad = np.nonzero(gap <= 0.0)[0]
    if bad.size:
        raise DegenerateSurfaceError(
            "support function reached the potential, V - V_nu <= 0", node=int(bad[0])
        )
    return geom


def _core_n1(graph: RadialGraph, base) -> SurfaceGeometry:
    rho = graph.rho
    h = graph.h_theta
    lam = np.sinh(rho)
    lamp = np.cosh(rho)

    d1 = _periodic_d1(rho, h, 0)
    d2 = _periodic_d2(rho, h, 0)

    g = d1 * d1 + lam * lam
    bad = np.nonzero(g <= 0.0)[0]
    if bad.size:
        raise DegenerateSurfaceError("induced metric is not positive", node=int(bad[0]))
    v = np.sqrt(1.0 + (d1 / lam) ** 2)
    hform = (-d2 + 2.0 * (lamp / lam) * d1 * d1 + lam * lamp) / v
    kappa = (hform / g)[:, None]
    weight = np.sqrt(g) * h
    return SurfaceGeometry(graph, lam, lamp, v, (d1,), (g,), (hform,), kappa, weight, base)


def _core_n2(graph: RadialGraph, base) -> SurfaceGeometry:
    rho = graph.rho
    T = rho.shape[1]
    hp, ht = graph.h_phi, graph.h_theta
    phi, _ = graph.angles()
    sp = np.sin(phi)[:, None]
    cp = np.cos(phi)[:, None]

    rho_t = _periodic_d1(rho, ht, 1)
    rho_tt = _periodic_d2(rho, ht, 1)
    ext = _pole_extend(rho)
    rho_p = _colat_d1(ext, hp)
    rho_pp = _colat_d2(ext, hp)
    rho_pt = _colat_d1(_pole_extend(rho_t), hp)

    lam = np.sinh(rho)
    lamp = np.cosh(rho)

    # Covariant Hessian of rho on the round parameter sphere.
    hess_pp = rho_pp
    hess_pt = rho_pt - (cp / sp) * rho_t
    hess_tt = rho_tt + sp * cp * rho_p

    grad2 = rho_p**2 + (rho_t / sp) ** 2
    v = np.sqrt(1.0 + grad2 / lam**2)

    g_pp = rho_p**2 + lam**2
    g_pt = rho_p * rho_t
    g_tt = rho_t**2 + (lam * sp) ** 2
    detg = g_pp * g_tt - g_pt**2
    bad = np.nonzero((detg <= 0.0) | (g_pp <= 0.0))
    if bad[0].size:
        node = int(bad[0][0] * T + bad[1][0])
        raise DegenerateSurfaceError("induced metric is not positive definite", node=node)

    two_cot = 2.0 * lamp / lam
    h_pp = (-hess_pp + two_cot * rho_p * rho_p + lam * lamp) / v
    h_pt = (-hess_pt + two_cot * rho_p * rho_t) / v
    h_tt = (-hess_tt + two_cot * rho_t * rho_t + lam * lamp * sp**2) / v

    gi_pp = g_tt / detg
    gi_pt = -g_pt / detg
    gi_tt = g_pp / detg
    w_pp = gi_pp * h_pp + gi_pt * h_pt
    w_pt = gi_pp * h_pt + gi_pt * h_tt
    w_tp = gi_pt * h_pp + gi_tt * h_pt
    w_tt = gi_pt * h_pt + gi_tt * h_tt

    # (tr^2 - 4 det) cancels catastrophically near umbilic points; the
    # difference form stays exact there
    tr = w_pp + w_tt
    disc = np.sqrt(np.maximum((w_pp - w_tt) ** 2 + 4.0 * w_pt * w_tp, 0.0))
    k_lo = 0.5 * (tr - disc)
    k_hi = 0.5 * (tr + disc)
    kappa = np.stack([k_lo.ravel(), k_hi.ravel()], axis=-1)
    weight = (lam**2 * v * sp * hp * ht).ravel()
    return SurfaceGeometry(graph, lam, lamp, v, (rho_p, rho_t), (g_pp, g_pt, g_tt),
                           (h_pp, h_pt, h_tt), kappa, weight, base)


def gen_sphere(radius: float, center_offset: float = 0.0, n: int = 2,
               grid=(128, 256)) -> RadialGraph:
    """Geodesic sphere of the given radius, optionally off-center.

    The sphere center sits at distance `center_offset` from the coordinate
    origin along the polar axis (n = 2) or the first axis (n = 1); the
    origin must stay strictly inside, so center_offset < radius.  Radial
    distances solve the hyperbolic law of cosines

        cosh(radius) = cosh(rho) cosh(d) - sinh(rho) sinh(d) cos(gamma)

    exactly: the right side is s cosh(rho - alpha) with
    s = sqrt(1 + sinh(d)^2 sin(gamma)^2) and sinh(alpha) = sinh(d) cos(gamma) / s,
    so rho = alpha + arccosh(cosh(radius) / s), the root with rho > 0.  This
    form of s avoids the cancellation in cosh(d)^2 - sinh(d)^2 cos(gamma)^2
    at gamma = 0.
    """
    if radius <= 0.0:
        raise GenerationError(f"radius must be positive, got {radius}")
    if not 0.0 <= center_offset < radius:
        raise GenerationError(
            f"center offset must satisfy 0 <= offset < radius, got {center_offset}"
        )
    grid = tuple(int(g) for g in (grid if np.iterable(grid) else (grid,)))
    if center_offset == 0.0:
        rho = np.full(grid, float(radius))
        return RadialGraph(n, rho, {"shape": "sphere", "radius": radius, "offset": 0.0})

    d = float(center_offset)
    angles = _angle_grid(n, grid)
    gamma = angles[0][:, None] if n == 2 else angles
    shd = np.sinh(d)
    s = np.hypot(1.0, shd * np.sin(gamma))
    alpha = np.arcsinh(shd * np.cos(gamma) / s)
    rho = alpha + np.arccosh(np.cosh(radius) / s)
    return RadialGraph(
        n, np.broadcast_to(rho, grid).copy(),
        {"shape": "sphere", "radius": float(radius), "offset": d},
    )


def _harmonic(n: int, mode, grid) -> np.ndarray:
    if n == 2:
        try:
            ell, m = (int(v) for v in mode)
        except (TypeError, ValueError) as exc:
            raise GenerationError(f"n = 2 mode must be a pair (l, m): {exc}") from exc
        if ell < 0 or not 0 <= m <= ell:
            raise GenerationError(f"mode order out of range: ({ell}, {m})")
        phi, theta = _angle_grid(n, grid)
        return lpmv(m, ell, np.cos(phi))[:, None] * np.cos(m * theta)[None, :]
    k = int(mode[0]) if np.iterable(mode) else int(mode)
    if k < 0:
        raise GenerationError(f"mode order out of range: {k}")
    return np.cos(k * _angle_grid(n, grid))


def gen_perturbed_sphere(radius: float, amp: float, mode, n: int = 2,
                         grid=(128, 256)) -> RadialGraph:
    """Sphere of the given radius with a single harmonic perturbation.

    n = 2 takes mode = (l, m) and perturbs by amp * P_l^m(cos phi) cos(m
    theta); n = 1 takes an integer Fourier mode k.  The result is validated
    post-hoc: rho must stay positive and the mean curvature must stay above
    n everywhere, otherwise the shape is rejected with the violating node.
    H comes from build_geometry(graph), so a shape it would refuse is
    refused here the same way; positions and normals are never built.
    """
    if radius <= 0.0:
        raise GenerationError(f"radius must be positive, got {radius}")
    grid = tuple(int(g) for g in (grid if np.iterable(grid) else (grid,)))
    rho = radius + amp * _harmonic(n, mode, grid)
    flat = rho.ravel()
    bad = np.nonzero(flat <= 0.0)[0]
    if bad.size:
        raise RejectedShapeError(
            f"perturbation drives rho to {flat[bad[0]]:.3g}", node=int(bad[0])
        )
    graph = RadialGraph(
        n, rho,
        {"shape": "perturbed", "radius": float(radius), "amp": float(amp),
         "mode": list(mode) if np.iterable(mode) else [int(mode)]},
    )
    H = build_geometry(graph).mean_curvature
    worst = int(np.argmin(H))
    if H[worst] <= n + H_MARGIN:
        raise RejectedShapeError(
            f"mean curvature {H[worst]:.6g} is not above {n}", node=worst
        )
    return graph
