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
import copy
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hypgeo, symfun
from ._util import _as_int, _as_real, atomic_write_text, exact_sum
from .errors import DegenerateSurfaceError, GenerationError, RejectedShapeError

__all__ = [
    "H_MARGIN",
    "RadialGraph",
    "SurfaceGeometry",
    "build_geometry",
    "area_integral",
    "gen_sphere",
    "gen_perturbed_sphere",
    "save_surface",
    "load_surface",
]

MIN_GRID = 8
# a surface record's grid sizes, of which n = 1 keeps the last
_GRID_KEYS = ("n_phi", "n_theta")
# margin by which H must exceed its bound (0 or n) before a check or
# flow that divides by H or H - n accepts a surface
H_MARGIN = 1e-8


def _dimension(n) -> int:
    """n as a Python int, which must be 1 or 2 (ValueError otherwise)."""
    n = _as_int(n, "n")
    if n not in (1, 2):
        raise ValueError(f"unsupported dimension n = {n}")
    return n


def _angle_grid(n: int, grid):
    """Node angles: theta on a (T,) grid for n = 1, (phi, theta) on (P, T)."""
    if n == 1:
        (T,) = grid
        return np.arange(T) * (2.0 * np.pi / T)
    P, T = grid
    return (np.arange(P) + 0.5) * (np.pi / P), np.arange(T) * (2.0 * np.pi / T)


@dataclass(frozen=True, init=False, eq=False)
class RadialGraph:
    """Radial distance samples of a closed star-shaped hypersurface.

    A graph is a value: it never changes, and a different surface is a new
    graph.  `n`, `rho` and `meta` cannot be rebound, and `rho` is a read-only
    float64 copy of the input, taken once whatever the input is.
    `meta` is kept as a deep copy and each read returns a fresh one, so no
    caller, copy or reader of a graph can change its description.  A graph
    compares and hashes by identity; compare surfaces by n, rho bits and meta.
    """

    n: int
    rho: np.ndarray
    _meta: dict
    # the base-independent fields a generator validated rho on, for the first build
    _carried: dict | None = field(default=None, repr=False)

    def __init__(self, n: int, rho, meta: dict | None = None):
        object.__setattr__(self, "n", _dimension(n))
        object.__setattr__(self, "_meta", copy.deepcopy(dict(meta or {})))
        object.__setattr__(self, "rho", np.array(rho, dtype=float))
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
        self.rho.flags.writeable = False

    def __reduce__(self):
        return RadialGraph, (self.n, self.rho, self._meta)

    @property
    def meta(self) -> dict:
        """The surface's description, a fresh deep copy on every read."""
        return copy.deepcopy(self._meta)

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
        """Same surface with the azimuth grid rolled by an integer step.

        Geometry fields this graph carries for its first build (see
        `gen_perturbed_sphere`) move to the rolled graph, rolled with it;
        this graph lets them go.  The roll is exact: the stencils are
        periodic in the azimuth and the pole ghost rows roll with the grid.
        """
        steps = _as_int(steps, "step")
        fields = self._take_fields()
        out = RadialGraph(self.n, np.roll(self.rho, steps, -1), self._meta)
        if fields is not None:
            out._hand_off(_rolled_fields(fields, self.rho.shape, steps))
        return out

    def _hand_off(self, fields: dict) -> None:
        """Carry `fields` to the first build of this graph."""
        object.__setattr__(self, "_carried", fields)

    def _take_fields(self) -> dict | None:
        """The carried fields, once, or None."""
        fields = self._carried
        object.__setattr__(self, "_carried", None)
        return fields

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "grid": dict(zip(_GRID_KEYS[2 - self.n:], self.rho.shape)),
            "rho": base64.b64encode(_rho_bytes(self.rho)).decode("ascii"),
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RadialGraph":
        """A graph from its to_dict() record; any malformed record is a ValueError."""
        try:
            n, grid, meta = _dimension(data["n"]), data["grid"], data.get("meta", {})
            if not (isinstance(grid, dict) and isinstance(meta, dict)):
                raise ValueError("grid and meta must be JSON objects")
            shape = tuple(_as_int(grid[key], key) for key in _GRID_KEYS[2 - n:])
            flat = _rho_from_text(data["rho"], math.prod(shape))
        except KeyError as exc:
            raise ValueError(f"malformed surface record: missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed surface record: {exc}") from exc
        return cls(n, flat.reshape(shape), meta)


# the SurfaceGeometry fields that depend on the graph alone, not on the base
# point, which a generator hands to the first build of its surface; a core
# assembles all but H, which build_geometry folds from kappa
_CARRIED_FIELDS = ("sinh_rho", "cosh_rho", "v", "grad", "kappa", "area_weight", "mean_curvature")


def _rolled_fields(fields: dict, grid: tuple, steps: int) -> dict:
    """`fields` with every array rolled `steps` nodes in azimuth, replaced
    one at a time in the dict, which is returned: each old array is freed
    once its rolled copy exists, not after all of them.  Each array, grid-shaped
    or flattened from the grid, rolls as its grid + (-1,) view."""
    def roll(array):
        return np.roll(array.reshape(grid + (-1,)), steps, len(grid) - 1).reshape(array.shape)

    for name, value in fields.items():
        fields[name] = tuple(map(roll, value)) if name == "grad" else roll(value)
    return fields


def _rho_bytes(rho) -> bytes:
    """rho as row-major little-endian float64 bytes: what a surface file
    stores (base64) and what a report's config_hash hashes."""
    return np.ascontiguousarray(rho, dtype="<f8").tobytes()


def _rho_from_text(text, count: int) -> np.ndarray:
    """The `count` values of a record's base64 rho, read-only over its bytes."""
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
    return np.frombuffer(raw, dtype="<f8")


def save_surface(graph: RadialGraph, path) -> None:
    atomic_write_text(path, json.dumps(graph.to_dict()) + "\n")


def load_surface(path) -> RadialGraph:
    with open(path) as handle:
        return RadialGraph.from_dict(json.load(handle))


# 4th-order central stencils: the weights of f[j+2], f[j+1], f[j], f[j-1],
# f[j-2], over 12 h^power.  Both tables start with -f[j+2].
_D1 = ((-1.0, 8.0, 0.0, -8.0, 1.0), 1)
_D2 = ((-1.0, 16.0, -30.0, 16.0, -1.0), 2)


def _stencil(ext, taps, h, axis=0):
    """The `taps` derivative along `axis` of `ext`, which has two ghost entries
    at each end of it (`_wrap`, `_pole_extend`): ext[j + 2] is node j.  Summed
    in the written order; |c| f goes through one scratch buffer unless |c| = 1."""
    weights, power = taps

    def at(k):  # f[j + 2 - k] at every node j
        return ext[(slice(None),) * axis + (slice(4 - k, ext.shape[axis] - k),)]
    out = np.negative(at(0))
    tmp = None
    for k, c in enumerate(weights[1:], 1):
        if c == 0.0:
            continue
        term = at(k)
        if abs(c) != 1.0:
            term = tmp = np.multiply(term, abs(c), out=tmp)
        if c > 0.0:
            out += term
        else:
            out -= term
    out /= 12.0 * h if power == 1 else 12.0 * h * h
    return out


def _wrap(f: np.ndarray, axis: int) -> np.ndarray:
    """f with two periodic ghost entries at each end of `axis`."""
    return np.concatenate([f.take([-2, -1], axis), f, f.take([0, 1], axis)], axis)


def _pole_extend(f: np.ndarray) -> np.ndarray:
    """Add two ghost rows per pole using (phi -> -phi, theta -> theta + pi)."""
    ghosts = np.roll(f[[1, 0, -1, -2]], f.shape[1] // 2, axis=1)
    return np.vstack([ghosts[:2], f, ghosts[2:]])


@dataclass(frozen=True, eq=False)
class SurfaceGeometry:
    """Pointwise discrete geometry of a radial graph.

    Grid-shaped fields: sinh(rho), cosh(rho), the normal's stretch v and
    the angular derivatives of rho (`grad`: (rho_theta,) for n = 1,
    (rho_phi, rho_theta) for n = 2).  The induced metric and second
    fundamental form are not kept: the cores turn them into kappa and
    area_weight (`_fundamental_forms` assembles them).

    Flattened row-major: kappa, the principal curvatures sorted ascending
    per node, their sum H (`mean_curvature`), and area_weight, which already
    contains the full quadrature weight, so surface integrals are plain
    weighted sums.  V, V_nu and `support_gap` = V - V_nu are taken about
    `base` (the graph's centre when None is passed).

    Lazy, built on first read: the (N, n+2) hyperboloid `position` and
    outward unit `normal` of each node, and the volumes.  About the centre
    no check reads position or normal, since there V = cosh(rho) and
    V_nu = sinh(rho) / v.  Also lazy, and kept so that every check reads one
    value: the E_1..E_n of the shifted curvatures kappa - 1 and the support
    integral int V_nu.

    A geometry is a value, like its graph: no field can be rebound and
    every array it keeps is read-only, so no write can leave it judging
    another surface than it was built from, or leave a kept value stale.
    A geometry compares and hashes by identity.
    """

    graph: RadialGraph
    sinh_rho: np.ndarray
    cosh_rho: np.ndarray
    v: np.ndarray
    grad: tuple
    kappa: np.ndarray
    area_weight: np.ndarray
    mean_curvature: np.ndarray
    base: np.ndarray | None = None
    V: np.ndarray = field(init=False)
    V_nu: np.ndarray = field(init=False)
    support_gap: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.base is None:
            # -<position, o> and -<normal, o> about the origin o, bit for bit
            object.__setattr__(self, "base", hypgeo.origin(self.n))
            V, V_nu = self.cosh_rho.ravel(), (self.sinh_rho / self.v).ravel()
        else:
            V = hypgeo.potential(self.position, self.base)
            V_nu = hypgeo.potential(self.normal, self.base)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "V_nu", V_nu)
        object.__setattr__(self, "support_gap", V - V_nu)
        for value in vars(self).values():
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    _read_only(array)

    @cached_property
    def position(self) -> np.ndarray:
        """Hyperboloid point (cosh rho, sinh rho w) of each node."""
        lam, lamp = self.sinh_rho[..., None], self.cosh_rho[..., None]
        position = np.concatenate([lamp, lam * _directions(self.graph)], axis=-1)
        return _read_only(position.reshape(-1, self.n + 2))

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
        return _read_only(normal.reshape(-1, self.n + 2))

    @property
    def kappa_shifted(self) -> np.ndarray:
        """kappa - 1, the hyperbolic-convexity eigenvalues, a fresh array."""
        return self.kappa - 1.0

    @cached_property
    def shifted_e(self) -> tuple:
        """(E_1, ..., E_n) of the shifted curvatures kappa - 1 at each node."""
        shifted = self.kappa_shifted
        return tuple(_read_only(symfun.e_m_values(shifted, j)) for j in range(1, self.n + 1))

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
    def umbilicity_spread(self) -> float:
        """max kappa - min kappa over every node and direction; 0 on a sphere."""
        return float(np.max(self.kappa) - np.min(self.kappa))

    @cached_property
    def support_integral(self) -> float:
        """Surface integral of the support function V_nu, about `base`."""
        return area_integral(self, self.V_nu)

    @cached_property
    def weighted_volume(self) -> float:
        """Integral of V over the enclosed region, about `base`."""
        return _weighted_volume(self.graph, self.sinh_rho, self.cosh_rho, self.base)

    @cached_property
    def enclosed_volume(self) -> float:
        """Unweighted volume of the enclosed region (exact radial integral)."""
        radial = _sinh_power_integral(self.n, self.graph.rho, self.sinh_rho, self.cosh_rho)
        radial *= _sigma_weights(self.graph)
        return exact_sum(radial)


def _read_only(array: np.ndarray) -> np.ndarray:
    """`array`, marked read-only."""
    array.flags.writeable = False
    return array


def area_integral(geom: SurfaceGeometry, values) -> float:
    """Surface integral of a per-node field by compensated summation; NaN past the float range."""
    values = np.asarray(values, dtype=float)
    if values.shape != geom.area_weight.shape:
        raise ValueError("integrand shape does not match the node count")
    return exact_sum(values * geom.area_weight)


def _sigma_weights(graph: RadialGraph) -> np.ndarray:
    """Quadrature weights for the parameter sphere (no surface factors);
    for n = 2 one (P, 1) column that broadcasts over the azimuth."""
    if graph.n == 1:
        return np.full(graph.n_theta, graph.h_theta)
    phi, _ = graph.angles()
    return np.sin(phi)[:, None] * graph.h_phi * graph.h_theta


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


def _sinh_power_integral(m: int, rho, lam, lamp) -> np.ndarray:
    """int_0^rho sinh(r)^m dr for m = 1, 2, 3, from lam = sinh(rho) and
    lamp = cosh(rho), as a fresh array: the radial factor of the enclosed
    volume (m = n) and of the weighted volume's tilt (m = n + 1)."""
    if m == 1:
        return lamp - 1.0
    if m == 2:
        return (lam * lamp - rho) / 2.0
    return (lamp - 1.0) ** 2 * (lamp + 2.0) / 3.0


def _weighted_volume(graph: RadialGraph, lam, lamp, base) -> float:
    """Integral of the potential V = -<x, base> over the enclosed region,
    from lam = sinh(rho) and lamp = cosh(rho), which a geometry already
    holds; `base` is a validated point.

    The integrand is linear in x = (cosh r, sinh r w), so per direction w
    the radial integral is exact:

        b_0 sinh(rho)^{n+1} / (n+1) - (b_space . w) int_0^rho sinh(r)^{n+1} dr,

    with the last integral from `_sinh_power_integral`.  Only the angular
    quadrature is discrete.  About the graph's center, the coordinate
    origin, the second term vanishes.
    """
    n = graph.n
    tilt = _sinh_power_integral(n + 1, graph.rho, lam, lamp)
    radial = base[0] * lam ** (n + 1) / (n + 1)
    # about the origin b_space . w is a signed zero at every node: skip the
    # directions, but keep the NaN of 0 * tilt where tilt overflows
    along = _directions(graph) @ base[1:] if base[1:].any() else 0.0
    radial -= along * tilt
    radial *= _sigma_weights(graph)
    return exact_sum(radial)


def build_geometry(graph: RadialGraph, base=None) -> SurfaceGeometry:
    """Assemble the discrete first and second fundamental forms.

    `base` is the base point of the static potential (defaults to the
    graph's own center), taken as a copy; V and the support function V_nu
    are computed against it, so off-center potentials vary over the
    surface.  Refuses a base not of shape (n + 2,) before any array is
    built, a metric that is not positive definite, non-finite curvatures or
    V - V_nu (sinh(rho)^2 overflows past rho ~ 355), and a support function
    that reaches the potential, V - V_nu <= 0, naming the first such node.
    Overflow and invalid-value warnings are silenced while the arrays are
    built, because those refusals catch every value they would warn about.

    The seven base-independent fields (`_CARRIED_FIELDS`) come from a core,
    `_core_n1` or `_core_n2`, with H folded from its kappa here, or are
    carried: a graph from `gen_perturbed_sphere` (or rolled from one by
    `rotated`) carries the fields its generator validated H on, and a graph
    never changes, so they fit its rho.  The first build takes them in
    place of running a core, and a second build runs one.  Either way this
    is the one place a SurfaceGeometry is made, so V, V_nu, V - V_nu and
    every refusal above are computed the same way on both routes.
    """
    if base is not None:
        base = np.array(base, dtype=float)
        if base.shape != (graph.n + 2,):
            raise ValueError(f"base must be one point of shape ({graph.n + 2},), got {base.shape}")
        hypgeo.validate_point(base)
    fields = graph._take_fields()
    with np.errstate(over="ignore", invalid="ignore"):
        if fields is None:
            fields = _core_n2(graph) if graph.n == 2 else _core_n1(graph)
            fields["mean_curvature"] = hypgeo._row_fold(np.add, fields["kappa"])
        geom = SurfaceGeometry(graph, **fields, base=base)
    finite = np.isfinite(geom.support_gap)
    for kappa_i in geom.kappa.T:  # column by column: all(axis=-1) is ~10x slower
        finite &= np.isfinite(kappa_i)
    bad = np.nonzero(~finite)[0]
    if bad.size:
        raise DegenerateSurfaceError(
            "curvatures or V - V_nu are not finite", node=int(bad[0])
        )
    bad = np.nonzero(geom.support_gap <= 0.0)[0]
    if bad.size:
        raise DegenerateSurfaceError(
            "support function reached the potential, V - V_nu <= 0", node=int(bad[0])
        )
    return geom


def _fundamental_forms(graph: RadialGraph):
    """(sinh rho, cosh rho, v, grad, metric, second_form) of a graph.

    metric and second_form are (g,) and (h,) for n = 1 and the pp, pt, tt
    components for n = 2, all grid-shaped; the cores turn them into kappa
    and area_weight.  Every array is a fresh buffer, summed in the order of
    the closed forms in the module docstring: plain expressions for a
    curve, in-place arithmetic on a few reused buffers for a surface,
    whose grids are large enough for the allocations to cost time.
    """
    rho = graph.rho
    lam = np.sinh(rho)
    lamp = np.cosh(rho)
    if graph.n == 1:
        h = graph.h_theta
        wrap = _wrap(rho, 0)
        d1 = _stencil(wrap, _D1, h)
        g = d1 * d1 + lam * lam
        slope = d1 / lam
        v = np.sqrt(slope * slope + 1.0)
        hform = (-_stencil(wrap, _D2, h) + 2.0 * (lamp / lam) * d1 * d1 + lam * lamp) / v
        return lam, lamp, v, (d1,), (g,), (hform,)

    hp, ht = graph.h_phi, graph.h_theta
    phi, _ = graph.angles()
    sp = np.sin(phi)[:, None]
    cp = np.cos(phi)[:, None]
    wrap = _wrap(rho, 1)
    rho_t = _stencil(wrap, _D1, ht, 1)
    ext = _pole_extend(rho)
    rho_p = _stencil(ext, _D1, hp)
    # the covariant Hessian of rho on the round sphere, built in h_pp,
    # h_pt, h_tt: rho_pp, rho_pt - (cp / sp) rho_t, rho_tt + sp cp rho_p
    h_pp = _stencil(ext, _D2, hp)
    del ext
    h_pt = _stencil(_pole_extend(rho_t), _D1, hp)
    tmp = np.multiply(cp / sp, rho_t)
    h_pt -= tmp
    h_tt = _stencil(wrap, _D2, ht, 1)
    del wrap
    np.multiply(sp * cp, rho_p, out=tmp)
    h_tt += tmp

    # g = (rho_p^2 + lam^2, rho_p rho_t, rho_t^2 + (lam sp)^2) and
    # v = sqrt(1 + (rho_p^2 + (rho_t / sp)^2) / lam^2)
    g_pp = np.multiply(rho_p, rho_p)
    g_pt = np.multiply(rho_p, rho_t)
    g_tt = np.multiply(rho_t, rho_t)
    v = np.divide(rho_t, sp)
    v *= v
    v += g_pp
    lam2 = np.multiply(lam, lam)
    v /= lam2
    v += 1.0
    np.sqrt(v, out=v)
    g_pp += lam2
    np.multiply(lam, sp, out=lam2)
    lam2 *= lam2
    g_tt += lam2
    del lam2

    # h_ij = (-hess_ij + 2 coth(rho) rho_i rho_j + lam lamp s_ij) / v
    two_cot = np.multiply(lamp, 2.0)
    two_cot /= lam
    cot_p = np.multiply(two_cot, rho_p)
    np.negative(h_pp, out=h_pp)
    np.multiply(cot_p, rho_p, out=tmp)
    h_pp += tmp
    lam_lamp = np.multiply(lam, lamp)
    h_pp += lam_lamp
    h_pp /= v
    np.negative(h_pt, out=h_pt)
    np.multiply(cot_p, rho_t, out=tmp)
    h_pt += tmp
    h_pt /= v
    del cot_p
    np.negative(h_tt, out=h_tt)
    two_cot *= rho_t
    two_cot *= rho_t
    h_tt += two_cot
    lam_lamp *= sp**2
    h_tt += lam_lamp
    h_tt /= v
    return lam, lamp, v, (rho_p, rho_t), (g_pp, g_pt, g_tt), (h_pp, h_pt, h_tt)


def _core_n1(graph: RadialGraph) -> dict:
    """The `_CARRIED_FIELDS` of a curve but H, by name; DegenerateSurfaceError at
    the first node whose metric g is not positive."""
    lam, lamp, v, grad, (g,), (hform,) = _fundamental_forms(graph)
    bad = np.nonzero(g <= 0.0)[0]
    if bad.size:
        raise DegenerateSurfaceError("induced metric is not positive", node=int(bad[0]))
    return dict(zip(_CARRIED_FIELDS, (lam, lamp, v, grad, (hform / g)[:, None],
                                      np.sqrt(g) * graph.h_theta)))


def _core_n2(graph: RadialGraph) -> dict:
    """The `_CARRIED_FIELDS` of a surface but H, by name; DegenerateSurfaceError at
    the first node whose metric is not positive definite.  The forms'
    buffers are reused in place, each product written over an entry that
    is no longer needed."""
    lam, lamp, v, grad, (g_pp, g_pt, g_tt), (h_pp, h_pt, h_tt) = _fundamental_forms(graph)
    detg = np.multiply(g_pp, g_tt)
    tmp = np.multiply(g_pt, g_pt)
    detg -= tmp
    bad = np.nonzero((detg <= 0.0) | (g_pp <= 0.0))
    if bad[0].size:
        node = int(bad[0][0] * graph.n_theta + bad[1][0])
        raise DegenerateSurfaceError("induced metric is not positive definite", node=node)

    # the inverse metric, in place of the metric
    gi_pp, gi_pt, gi_tt = g_tt, g_pt, g_pp
    gi_pp /= detg
    np.negative(gi_pt, out=gi_pt)
    gi_pt /= detg
    gi_tt /= detg

    # the shape operator W = g^-1 h, each entry in a buffer it frees
    w_pp = np.multiply(gi_pp, h_pp, out=detg)
    np.multiply(gi_pt, h_pt, out=tmp)          # shared by w_pp and w_tt
    w_pp += tmp
    w_pt = np.multiply(gi_pp, h_pt, out=gi_pp)
    scratch = np.multiply(gi_pt, h_tt)
    w_pt += scratch
    w_tp = np.multiply(gi_pt, h_pp, out=h_pp)
    np.multiply(gi_tt, h_pt, out=scratch)
    w_tp += scratch
    w_tt = np.multiply(gi_tt, h_tt, out=h_tt)
    w_tt += tmp

    # (tr^2 - 4 det) cancels catastrophically near umbilic points; the
    # difference form stays exact there
    disc = np.subtract(w_pp, w_tt, out=tmp)
    disc *= disc
    w_pt *= 4.0
    w_pt *= w_tp
    disc += w_pt
    np.maximum(disc, 0.0, out=disc)
    np.sqrt(disc, out=disc)
    tr = w_pp
    tr += w_tt
    kappa = np.empty(graph.rho.shape + (2,))
    np.subtract(tr, disc, out=scratch)
    np.multiply(scratch, 0.5, out=kappa[..., 0])
    np.add(tr, disc, out=scratch)
    np.multiply(scratch, 0.5, out=kappa[..., 1])

    phi, _ = graph.angles()
    weight = np.multiply(lam, lam, out=scratch)    # lam^2 v sin(phi) h_phi h_theta
    weight *= v
    weight *= np.sin(phi)[:, None]
    weight *= graph.h_phi
    weight *= graph.h_theta
    return dict(zip(_CARRIED_FIELDS, (lam, lamp, v, grad, kappa.reshape(-1, 2),
                                      weight.ravel())))


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
    radius = _radius(radius)
    d = _as_real(center_offset, "center offset")
    if not 0.0 <= d < radius:
        raise GenerationError(
            f"center offset must satisfy 0 <= offset < radius, got {d}"
        )
    grid = _n_ints(n, grid, "grid size")
    meta = {"shape": "sphere", "radius": radius}
    if d == 0.0:
        return RadialGraph(n, np.full(grid, radius), {**meta, "offset": 0.0})

    angles = _angle_grid(n, grid)
    gamma = angles[0][:, None] if n == 2 else angles
    shd = np.sinh(d)
    s = np.hypot(1.0, shd * np.sin(gamma))
    alpha = np.arcsinh(shd * np.cos(gamma) / s)
    rho = alpha + np.arccosh(np.cosh(radius) / s)
    return RadialGraph(n, np.broadcast_to(rho, grid), {**meta, "offset": d})


def _radius(radius) -> float:
    """A generator's radius by `_as_real`; GenerationError unless positive and finite."""
    radius = _as_real(radius, "radius")
    if not 0.0 < radius < math.inf:
        raise GenerationError(f"radius must be positive and finite, got {radius}")
    return radius


_NEEDS = {"grid size": ("a single point count, e.g. 256", "a PHIxTHETA grid, e.g. 128x256"),
          "mode entry": ("a single wavenumber as its mode", "a pair l,m as its mode")}


def _n_ints(n, value, name: str) -> tuple:
    """A generator's grid or mode (`name` says which) as exactly n Python ints,
    a bare value counting as one; else ValueError saying what n needs."""
    n = _dimension(n)
    parts = tuple(value) if np.iterable(value) else (value,)
    if len(parts) != n:
        raise ValueError(f"n = {n} needs {_NEEDS[name][n - 1]}, got {value!r}")
    return tuple(_as_int(part, name) for part in parts)


def _harmonic(n: int, mode, grid) -> np.ndarray:
    """The harmonic a mode names, sampled on the grid.

    A mode of other than n integers is ValueError.  One the grid cannot
    represent is refused rather than aliased onto a lower one: the azimuth's
    T nodes carry wavenumbers below T/2 (k for n = 1, m for n = 2), and a
    meridian, which holds 2P nodes of an n = 2 grid once continued over the
    poles, carries degrees l below P.
    """
    mode = _n_ints(n, mode, "mode entry")
    if n == 2:
        ell, m = mode
        if ell < 0 or not 0 <= m <= ell:
            raise GenerationError(f"mode order out of range: ({ell}, {m})")
        P, T = grid
        if m >= T // 2 or ell >= P:
            raise GenerationError(f"mode ({ell}, {m}) is not resolved by a {P}x{T} grid: "
                                  f"it needs m < n_theta/2 = {T // 2} and l < n_phi = {P}")
        # imported here, its only use: scipy.special costs ~0.3 s to load
        from scipy.special import lpmv

        phi, theta = _angle_grid(n, grid)
        return lpmv(m, ell, np.cos(phi))[:, None] * np.cos(m * theta)[None, :]
    (k,) = mode
    if k < 0:
        raise GenerationError(f"mode order out of range: {k}")
    (T,) = grid
    if k >= T // 2:
        raise GenerationError(f"mode {k} is not resolved by {T} points: "
                              f"it needs k < n_theta/2 = {T // 2}")
    return np.cos(k * _angle_grid(n, grid))


def gen_perturbed_sphere(radius: float, amp: float, mode, n: int = 2,
                         grid=(128, 256)) -> RadialGraph:
    """Sphere of the given radius with a single harmonic perturbation.

    n = 2 takes mode = (l, m) and perturbs by amp * P_l^m(cos phi) cos(m
    theta); n = 1 takes an integer Fourier mode k, or (k,).  A grid or mode
    of other than n integers is ValueError.  A radius, amplitude or sampled
    harmonic that is not finite is refused with GenerationError.
    The result is validated post-hoc: rho must stay positive and the mean
    curvature must stay above n everywhere, otherwise the shape is rejected
    with the violating node.
    H comes from build_geometry(graph), so a shape it would refuse is
    refused here the same way; positions and normals are never built.
    The graph carries that geometry's base-independent fields, H among them
    (`_CARRIED_FIELDS`), to its first build_geometry, also through `rotated`.
    """
    radius = _radius(radius)
    amp = _as_real(amp, "amplitude")
    if not math.isfinite(amp):
        raise GenerationError(f"amplitude must be finite, got {amp}")
    grid = _n_ints(n, grid, "grid size")
    mode = _n_ints(n, mode, "mode entry")
    harmonic = _harmonic(n, mode, grid)
    if not np.all(np.isfinite(harmonic)):
        # unnormalised P_l^m leaves the float range at high orders: it is
        # inf at (86, 85) on 128 colatitudes and NaN at (255, 100) on 256
        raise GenerationError(f"mode {mode} has a non-finite harmonic on a "
                              f"{'x'.join(map(str, grid))} grid")
    rho = radius + amp * harmonic
    flat = rho.ravel()
    bad = np.nonzero(flat <= 0.0)[0]
    if bad.size:
        raise RejectedShapeError(
            f"perturbation drives rho to {flat[bad[0]]:.3g}", node=int(bad[0])
        )
    meta = {"shape": "perturbed", "radius": radius, "amp": amp, "mode": list(mode)}
    graph = RadialGraph(n, rho, meta)
    geom = build_geometry(graph)
    H = geom.mean_curvature
    worst = int(np.argmin(H))
    if H[worst] <= n + H_MARGIN:
        raise RejectedShapeError(
            f"mean curvature {H[worst]:.6g} is not above {n}", node=worst
        )
    graph._hand_off({name: getattr(geom, name) for name in _CARRIED_FIELDS})
    return graph
