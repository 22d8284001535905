"""Discrete surface geometry: exact sphere cases, convergence, consistency.

Centered spheres are special: rho is constant, every finite difference of
it vanishes identically, and the quadrature weight is the only discrete
object left.  All pointwise geometry is then exact to rounding, which the
tests assert at near machine precision.  Off-center and perturbed shapes
carry real discretization error with measured orders.
"""

import base64
import copy
import json
import math
import pickle
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hkverify import hypersurface, hypgeo, symfun
from hkverify._util import exact_sum
from hkverify.errors import (
    DegenerateSurfaceError,
    GenerationError,
    HkError,
    RejectedShapeError,
)
from hkverify.hypersurface import (
    _D1,
    _D2,
    H_MARGIN,
    RadialGraph,
    _fundamental_forms,
    _harmonic,
    _stencil,
    _weighted_volume,
    _wrap,
    area_integral,
    build_geometry,
    gen_perturbed_sphere,
    gen_sphere,
    load_surface,
    save_surface,
)
from hkverify.identities import _config_hash, minkowski_shifted, run_verification
from hkverify.normalflow import verify_flow

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
        assert not back.rho.flags.writeable and back.rho.dtype == np.float64
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
            # a size that is not a JSON integer is refused, not truncated
            (self._record(2.5, {"n_phi": 8, "n_theta": 8}, [1.0] * 64),
             "n must be an integer, got 2.5"),
            (self._record("2", {"n_phi": 8, "n_theta": 8}, [1.0] * 64),
             "n must be an integer, got '2'"),
            (self._record(2.0, {"n_phi": 8, "n_theta": 8}, [1.0] * 64),
             "n must be an integer, got 2.0"),
            (self._record(True, {"n_theta": 8}, [1.0] * 8), "n must be an integer, got True"),
            (self._record(2, {"n_phi": 8.9, "n_theta": 8}, [1.0] * 64),
             "n_phi must be an integer, got 8.9"),
            (self._record(1, {"n_theta": 8.0}, [1.0] * 8), "n_theta must be an integer, got 8.0"),
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

    @pytest.mark.parametrize("radius, amp, mode, grid, match", [
        (1.0, math.nan, (2, 0), (16, 32), "amplitude must be finite, got nan"),
        (1.0, math.inf, (2, 0), (16, 32), "amplitude must be finite, got inf"),
        (1.0, -math.inf, 2, (64,), "amplitude must be finite, got -inf"),
        # resolved modes whose unnormalised P_l^m leaves the float range
        (1.0, 0.01, (86, 85), (128, 256), r"mode \(86, 85\) has a non-finite harmonic"),
        (1.0, 0.01, (255, 100), (256, 512), r"mode \(255, 100\) has a non-finite harmonic"),
        (1.0, 0.0, (255, 100), (256, 512), "non-finite harmonic"),
        (math.nan, 0.01, (2, 0), (16, 32), "radius must be positive and finite"),
        (math.inf, 0.01, (2, 0), (16, 32), "radius must be positive and finite"),
    ])
    def test_perturbed_rejects_non_finite_input(self, radius, amp, mode, grid, match):
        # a GenerationError, not RadialGraph's ValueError: exit 2, not 64
        with pytest.raises(GenerationError, match=match):
            gen_perturbed_sphere(radius, amp, mode, n=len(grid), grid=grid)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_gen_sphere_rejects_non_finite_radius(self, radius):
        with pytest.raises(GenerationError, match="radius must be positive and finite"):
            gen_sphere(radius, grid=(16, 32))

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

    @pytest.mark.parametrize("n, mode, grid", [
        (1, 32, 32), (1, 16, 32),
        (2, (20, 16), (32, 32)), (2, (16, 0), (16, 64)), (2, (40, 33), (40, 64)),
    ])
    def test_unresolved_modes_refused(self, n, mode, grid):
        # k, m >= n_theta / 2 or l >= n_phi would alias onto a lower mode
        with pytest.raises(GenerationError, match="not resolved"):
            gen_perturbed_sphere(1.0, 0.001, mode, n=n, grid=grid)

    def test_highest_resolved_modes_sample(self):
        assert _harmonic(1, 15, (32,)).shape == (32,)
        assert _harmonic(2, (15, 15), (16, 32)).shape == (16, 32)
        assert _harmonic(2, (31, 0), (32, 64)).shape == (32, 64)

    def test_mode_is_the_stated_harmonic(self):
        from scipy.special import lpmv
        g = gen_perturbed_sphere(1.0, 0.01, (3, 2), grid=(16, 32))
        phi, theta = g.angles()
        want = 1.0 + 0.01 * lpmv(2, 3, np.cos(phi))[:, None] * np.cos(2 * theta)
        assert np.max(np.abs(g.rho - want)) <= 1e-15


# How an integer v is spelt at an integer input, and whether the integer
# rule takes it: an int or a numpy integer is taken as exactly v, and every
# other spelling is refused with ValueError.
SPELLINGS = {
    "int": (lambda v: v, True),
    "np.int64": (np.int64, True),
    "integral float": (float, False),
    "fractional float": (lambda v: v + 0.5, False),
    "np.float32": (np.float32, False),
    "str": (str, False),
    "True": (lambda v: True, False),
}


# non-axisymmetric shapes, so that a roll moves every value
_CARRIERS = {1: (0.05, 2, (256,)), 2: (0.05, (2, 1), (32, 64))}


def _carrier(n):
    amp, mode, grid = _CARRIERS[n]
    return gen_perturbed_sphere(1.0, amp, mode, n=n, grid=grid)


def _counted_cores(monkeypatch):
    """A list that grows by one entry per `_core_n1`/`_core_n2` run."""
    cores = []
    for name in ("_core_n1", "_core_n2"):
        core = getattr(hypersurface, name)
        monkeypatch.setattr(hypersurface, name,
                            lambda *args, core=core: cores.append(1) or core(*args))
    return cores


def _flow_arrays(trace):
    return {name: value for name, value in vars(trace).items() if isinstance(value, np.ndarray)}


class TestHandOff:
    """A generated graph carries its generator's fields to its first build."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("steps", [0, 5, -17, "T+3"])
    def test_bit_for_bit_a_fresh_build(self, n, steps):
        # the fields rolled through `rotated` are what the cores assemble
        # from the rolled rho: the stencils are periodic in the azimuth
        steps = _carrier(n).n_theta + 3 if steps == "T+3" else steps
        graph = _carrier(n).rotated(steps)
        plain = RadialGraph(n, graph.rho.copy(), dict(graph.meta))
        handed, fresh = build_geometry(graph), build_geometry(plain)
        for name in ("sinh_rho", "cosh_rho", "v", "kappa", "area_weight", "mean_curvature",
                     "V", "V_nu", "support_gap", "position", "normal", "base"):
            a, b = getattr(handed, name), getattr(fresh, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert len(handed.grad) == len(fresh.grad) == n
        assert all(a.tobytes() == b.tobytes() for a, b in zip(handed.grad, fresh.grad))

        def report(g):
            return [r.to_dict() for r in run_verification(g).results]
        assert report(_carrier(n).rotated(steps)) == report(plain)
        if n == 2:
            # the flow takes the rolled fields for its start geometry
            handed, fresh = (_flow_arrays(verify_flow(g))
                             for g in (_carrier(n).rotated(steps), plain))
            assert handed.keys() == fresh.keys() and handed
            for name, value in handed.items():
                assert value.tobytes() == fresh[name].tobytes(), name

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_shot(self, monkeypatch, n):
        cores = _counted_cores(monkeypatch)
        graph = _carrier(n)
        assert len(cores) == 1                       # the generator's own build
        rolled = graph.rotated(7)
        # the source lets the fields go, so no two graphs share them
        assert graph._carried is None
        with pytest.raises(ValueError, match="read-only"):
            rolled.rho[0] = 1.0
        run_verification(rolled)
        assert len(cores) == 1
        # a verified graph carries nothing: a round that keeps its graphs
        # holds no fields
        assert rolled._carried is None
        build_geometry(rolled)
        assert len(cores) == 2
        build_geometry(graph)
        assert len(cores) == 3

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("steps", [None, 5], ids=["generated", "rolled"])
    def test_mean_curvature_is_folded_once(self, monkeypatch, n, steps):
        # the generator's H is the one the first build keeps: no second fold
        folds = []
        fold = hypgeo._row_fold
        monkeypatch.setattr(hypgeo, "_row_fold",
                            lambda *args: folds.append(1) or fold(*args))
        graph = _carrier(n) if steps is None else _carrier(n).rotated(steps)
        assert len(folds) == 1
        carried = graph._carried["mean_curvature"]
        geom = build_geometry(graph)
        assert geom.mean_curvature is carried and len(folds) == 1
        run_verification(graph, geom=geom)
        assert len(folds) == 1
        fresh = build_geometry(RadialGraph(n, graph.rho.copy())).mean_curvature
        assert len(folds) == 2
        assert oracle.same_bits(carried, fresh)

    def test_fields_are_base_independent(self):
        # about another base only V and V_nu change, as on a fresh build
        base = np.array([math.cosh(0.2), 0.0, math.sinh(0.2), 0.0])
        graph = _carrier(2).rotated(3)
        handed = build_geometry(graph, base=base)
        fresh = build_geometry(RadialGraph(2, graph.rho.copy()), base=base)
        for name in ("kappa", "area_weight", "V", "V_nu"):
            assert getattr(handed, name).tobytes() == getattr(fresh, name).tobytes(), name

    def test_rebinding_rho_is_refused(self):
        # the fields always meet the rho they were validated on: a graph
        # that carries them cannot be given another
        graph = _carrier(1)
        with pytest.raises(FrozenInstanceError):
            graph.rho = np.full(graph.rho.shape, 2.0)
        fresh = build_geometry(RadialGraph(1, graph.rho.copy()))
        assert build_geometry(graph).kappa.tobytes() == fresh.kappa.tobytes()


def _saved_and_loaded(tmp_path):
    path = tmp_path / "surf.json"
    save_surface(gen_sphere(1.0, 0.3, grid=(8, 16)), path)
    return load_surface(path)


# every way a graph is made, each taking a scratch directory
GRAPH_MAKERS = {
    "owned float64": lambda tmp: RadialGraph(2, np.full((8, 16), 1.5)),
    "list": lambda tmp: RadialGraph(1, [1.0 + 0.01 * j for j in range(16)]),
    "float32": lambda tmp: RadialGraph(2, np.ones((8, 16), dtype=np.float32)),
    "strided view": lambda tmp: RadialGraph(2, np.ones((8, 32))[:, ::2]),
    "centred sphere": lambda tmp: gen_sphere(1.0, grid=(8, 16)),
    "offset sphere n=2": lambda tmp: gen_sphere(1.0, 0.3, grid=(8, 16)),
    "offset sphere n=1": lambda tmp: gen_sphere(1.0, 0.3, n=1, grid=16),
    "perturbed sphere": lambda tmp: _carrier(2),
    "rotated": lambda tmp: _carrier(1).rotated(5),
    "loaded": _saved_and_loaded,
}

DUPLICATES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda graph: pickle.loads(pickle.dumps(graph)),
}


def _assert_frozen(graph):
    assert graph.rho.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        graph.rho[(0,) * graph.n] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        graph.rho[...] = 2.0
    for name, value in (("rho", np.full(graph.rho.shape, 2.0)), ("n", graph.n), ("meta", {})):
        with pytest.raises(FrozenInstanceError):
            setattr(graph, name, value)


class TestGraphIsAValue:
    """A graph never changes: a different surface is a new graph."""

    @pytest.mark.parametrize("make", GRAPH_MAKERS.values(), ids=GRAPH_MAKERS.keys())
    def test_frozen_on_every_path(self, tmp_path, make):
        _assert_frozen(make(tmp_path))

    @pytest.mark.parametrize("view", [
        lambda base: base[:, ::2],
        lambda base: base.reshape(16, 16),
        lambda base: np.broadcast_to(base[0, :16], (8, 16)),
    ], ids=["strided", "reshaped", "broadcast"])
    def test_a_view_is_copied(self, view):
        base = np.ones((8, 32))
        graph = RadialGraph(2, view(base))
        base[...] = 3.0
        assert np.all(graph.rho == 1.0) and graph.rho.flags.owndata

    def test_compares_and_hashes_by_identity(self):
        # a graph holds an array, so `==` compares identity rather than
        # raising on the array's truth value; equal surfaces are told by
        # their rho bits and meta
        a, b = gen_sphere(1.0, grid=(8, 16)), gen_sphere(1.0, grid=(8, 16))
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2 and hash(a) == hash(a)
        assert a.rho.tobytes() == b.rho.tobytes() and a.meta == b.meta

    def test_an_owned_array_is_copied(self):
        # one construction path: even an owned float64 rho is copied, so
        # neither it nor a view taken before construction reaches the graph
        rho = np.full((8, 16), 1.5)
        view = rho[:]
        graph = RadialGraph(2, rho)
        view[0, 0] = -1.0
        assert not np.shares_memory(graph.rho, rho) and rho.flags.writeable
        assert np.all(graph.rho == 1.5)
        assert np.all(build_geometry(graph).mean_curvature > 0.0)

    @pytest.mark.parametrize("duplicate", DUPLICATES.values(), ids=DUPLICATES.keys())
    def test_copies_are_new_graphs(self, monkeypatch, duplicate):
        # a copy goes through the constructor: frozen, the same bits, and
        # no carried fields, so its first build runs a core
        graph = _carrier(2)
        cores = _counted_cores(monkeypatch)
        twin = duplicate(graph)
        assert type(twin) is RadialGraph and twin._carried is None
        assert twin.n == graph.n and twin.meta == graph.meta
        assert twin.rho.tobytes() == graph.rho.tobytes()
        _assert_frozen(twin)
        build_geometry(twin)
        assert len(cores) == 1
        build_geometry(graph)                 # the source keeps its fields
        assert len(cores) == 1

    def test_a_geometry_stays_with_its_graph(self):
        # an edit in place would have paired the R = 2 sphere's surface
        # record and config_hash with the R = 1 sphere's geometry
        g = gen_sphere(1.0, grid=(16, 32))
        geom = build_geometry(g)
        with pytest.raises(ValueError, match="read-only"):
            g.rho[...] = 2.0
        kept = run_verification(g, geom=geom).to_dict()
        fresh = run_verification(gen_sphere(1.0, grid=(16, 32))).to_dict()
        for report in (kept, fresh):
            del report["provenance"]["timestamp"]
        assert kept == fresh

    def test_a_non_positive_rho_cannot_be_written(self):
        # such a rho would have been built without the rho > 0 refusal
        g = gen_sphere(1.0, grid=(16, 32))
        with pytest.raises(ValueError, match="read-only"):
            g.rho[0, 0] = -1.0
        assert np.all(g.rho == 1.0)

    def test_a_copy_cannot_rewrite_the_description(self):
        # a shallow copy shared the meta dict, so this edit gave the next
        # report of `g` radius 2.0 and another config_hash for the same rho
        g = gen_sphere(1.0, grid=(16, 32))
        want = _report_text(g)
        t = copy.copy(g)
        t.meta["radius"] = 2.0
        assert g.meta["radius"] == t.meta["radius"] == 1.0
        assert _report_text(g) == want

    @pytest.mark.parametrize("edit", [
        lambda g, given: given.update(radius=2.0),
        lambda g, given: given["mode"].append(9),
        lambda g, given: g.meta.update(radius=2.0),
        lambda g, given: g.meta["mode"].append(9),
        lambda g, given: copy.copy(g).meta["mode"].append(9),
        lambda g, given: g.rotated(0).meta["mode"].append(9),
    ], ids=["caller's dict", "caller's list", "reader's dict", "reader's list",
            "copy's list", "rolled graph's list"])
    def test_the_description_is_a_value(self, edit):
        # nothing reaches a constructed graph's meta, its nested lists included
        given = {"shape": "perturbed", "radius": 1.0, "amp": 0.0, "mode": [2, 0]}
        g = RadialGraph(2, np.full((16, 32), 1.0), given)
        meta, report, record = copy.deepcopy(given), _report_text(g), json.dumps(g.to_dict())
        edit(g, given)
        assert g.meta == meta and type(g.meta["mode"]) is list
        assert _report_text(g) == report and json.dumps(g.to_dict()) == record


# one geometry per route: centred, about another base, from carried fields, a curve
GEOMETRY_MAKERS = {
    "centred sphere": lambda: build_geometry(gen_sphere(1.0, grid=(16, 32))),
    "off-centre base": lambda: build_geometry(
        gen_sphere(1.0, grid=(16, 32)), base=[math.cosh(0.2), 0.0, 0.0, math.sinh(0.2)]),
    "carried fields": lambda: build_geometry(_carrier(2).rotated(3)),
    "curve": lambda: build_geometry(_carrier(1)),
}


def _kept_arrays(geom):
    """Every array the geometry keeps, its lazy values read first, by name."""
    for name in ("position", "normal", "shifted_e"):
        getattr(geom, name)
    return {(name, k): a for name, value in vars(geom).items()
            for k, a in enumerate(value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)}


class TestGeometryIsAValue:
    """A geometry never changes: every array it keeps is read-only."""

    @pytest.mark.parametrize("make", GEOMETRY_MAKERS.values(), ids=GEOMETRY_MAKERS.keys())
    def test_every_kept_array_is_read_only(self, make):
        arrays = _kept_arrays(make())
        assert {"sinh_rho", "cosh_rho", "v", "grad", "kappa", "area_weight", "mean_curvature",
                "base", "V", "V_nu", "support_gap", "position", "normal", "shifted_e"} == {
            name for name, _ in arrays}
        for key, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
            assert not array.flags.writeable, key

    def test_the_potential_cannot_be_zeroed(self):
        # V is a view of cosh(rho): zeroing it judged a surface with
        # V - V_nu <= 0, without the build's refusal
        g = gen_sphere(1.0, grid=(16, 32))
        geom = build_geometry(g)
        with pytest.raises(ValueError, match="read-only"):
            geom.V[:] = 0.0
        assert run_verification(g, geom=geom).all_passed()

    @pytest.mark.parametrize("name", ["V", "V_nu", "kappa", "area_weight", "base", "graph"])
    def test_no_field_can_be_rebound(self, name):
        # a rebound V_nu met the kept int V_nu in one report: minkowski-classical
        # judged the built surface and minkowski-shifted the rebound one
        geom = build_geometry(gen_sphere(1.0, grid=(16, 32)))
        with pytest.raises(FrozenInstanceError):
            setattr(geom, name, None)

    def test_kept_values_are_the_computed_ones(self):
        geom = build_geometry(_carrier(2))
        assert geom.mean_curvature is geom.mean_curvature
        assert oracle.same_bits(geom.mean_curvature, geom.kappa[:, 0] + geom.kappa[:, 1])
        assert oracle.same_bits(geom.support_gap, geom.V - geom.V_nu)
        assert len(geom.shifted_e) == 2
        for j, e_j in enumerate(geom.shifted_e, 1):
            assert oracle.same_bits(e_j, symfun.e_m_values(geom.kappa - 1.0, j))
        assert geom.support_integral == area_integral(geom, geom.V_nu)

    def test_the_base_is_copied(self):
        # a base the caller keeps writing to no longer moves the geometry's
        base = np.array([math.cosh(0.2), 0.0, 0.0, math.sinh(0.2)])
        geom = build_geometry(gen_sphere(1.0, grid=(16, 32)), base=base)
        want = geom.base.tobytes()
        base[...] = hypgeo.origin(2)
        assert geom.base.tobytes() == want and base.flags.writeable


def _report_text(graph) -> str:
    """The graph's report as JSON, without its timestamp."""
    report = run_verification(graph).to_dict()
    del report["provenance"]["timestamp"]
    return json.dumps(report)


def _loaded(n, grid, count):
    """The graph RadialGraph.from_dict makes of a record with these (maybe
    malformed) n and grid sizes and `count` values of rho."""
    rho = base64.b64encode(np.ones(count, dtype="<f8").tobytes()).decode()
    return RadialGraph.from_dict({"n": n, "grid": grid, "rho": rho})


def _shifted_k(x, v):
    (row,) = minkowski_shifted(build_geometry(gen_sphere(1.0, grid=(8, 16))), (0.5,), [x])
    assert row.name == f"minkowski-shifted[eps=0.5,k={v}]"
    return row.metadata["k"]


def _rolled(x, v):
    g = RadialGraph(2, 1.0 + np.arange(128.0).reshape(8, 16) / 256)
    assert np.array_equal(g.rotated(x).rho, np.roll(g.rho, v, axis=-1))
    return v


# each integer input: the valid values to spell, and what the library
# stored when it took the spelling x of v
INTEGER_INPUTS = {
    "RadialGraph n": ([1, 2], lambda x, v: RadialGraph(x, np.ones((8,) * v)).n),
    "loader n": ([1, 2], lambda x, v: _loaded(x, {"n_phi": 8, "n_theta": 8}
                                              if v == 2 else {"n_theta": 8}, 8 ** v).n),
    "loader n_phi": ([8, 9, 12],
                     lambda x, v: _loaded(2, {"n_phi": x, "n_theta": 8}, 8 * v).n_phi),
    "loader n_theta": ([8, 10], lambda x, v: _loaded(1, {"n_theta": x}, v).n_theta),
    "generator n": ([1, 2], lambda x, v: gen_sphere(1.0, n=x, grid=(16, 32)[:v]).n),
    "generator n_phi": ([8, 11], lambda x, v: gen_sphere(1.0, 0.3, grid=(x, 16)).n_phi),
    "generator n_theta": ([8, 16], lambda x, v: gen_sphere(1.0, grid=(8, x)).n_theta),
    "generator bare size": ([8, 13], lambda x, v: gen_sphere(1.0, n=1, grid=x).n_theta),
    "mode l": ([2, 3], lambda x, v: gen_perturbed_sphere(
        1.0, 1e-3, (x, 1), grid=(16, 32)).meta["mode"][0]),
    "mode m": ([0, 2], lambda x, v: gen_perturbed_sphere(
        1.0, 1e-3, (2, x), grid=(16, 32)).meta["mode"][1]),
    "mode k": ([0, 3], lambda x, v: gen_perturbed_sphere(
        1.0, 1e-3, x, n=1, grid=32).meta["mode"][0]),
    "mode (k,)": ([1, 2], lambda x, v: gen_perturbed_sphere(
        1.0, 1e-3, [x], n=1, grid=(32,)).meta["mode"][0]),
    "rotated step": ([-17, 0, 5], _rolled),
    "k_list": ([1, 2], _shifted_k),
}


@st.composite
def _spelt_inputs(draw):
    name = draw(st.sampled_from(sorted(INTEGER_INPUTS)))
    values, stored = INTEGER_INPUTS[name]
    spelling = draw(st.sampled_from(sorted(SPELLINGS)))
    return name, stored, draw(st.sampled_from(values)), spelling


class TestIntegerRule:
    @given(_spelt_inputs())
    @settings(max_examples=200, deadline=None)
    def test_taken_exactly_or_refused(self, case):
        # every integer input follows one rule: the exact int, or ValueError
        name, stored, v, spelling = case
        spell, taken = SPELLINGS[spelling]
        if not taken:
            with pytest.raises(ValueError):
                stored(spell(v), v)
            return
        got = stored(spell(v), v)
        assert got == v and type(got) is int, (name, spelling, got)

    @pytest.mark.parametrize("make, match", [
        pytest.param(lambda: gen_sphere(1.0, grid=(16.9, 32.2)),
                     "grid size must be an integer, got 16.9", id="float grid"),
        pytest.param(lambda: gen_perturbed_sphere(1.0, 0.05, (2.7, 0), grid=(16, 32)),
                     "mode entry must be an integer, got 2.7", id="float mode"),
        pytest.param(lambda: gen_perturbed_sphere(1.0, 0.05, (2, 5), n=1, grid=64),
                     r"n = 1 needs a single wavenumber as its mode, got \(2, 5\)",
                     id="pair mode at n=1"),
        pytest.param(lambda: gen_perturbed_sphere(1.0, 0.05, 2, grid=(16, 32)),
                     "n = 2 needs a pair l,m as its mode, got 2", id="bare mode at n=2"),
        # n = True once built a curve whose file the loader refuses
        pytest.param(lambda: gen_sphere(1.0, n=True, grid=(16,)),
                     "n must be an integer, got True", id="bool n"),
        pytest.param(lambda: gen_perturbed_sphere(1.0, 0.1, 2, n=True, grid=(64,)),
                     "n must be an integer, got True", id="bool n, perturbed"),
        pytest.param(lambda: gen_sphere(1.0, 0.3, n=1, grid=(16, 32)),
                     r"n = 1 needs a single point count, e.g. 256, got \(16, 32\)",
                     id="pair grid at n=1"),
        pytest.param(lambda: gen_sphere(1.0, grid=32), "n = 2 needs a PHIxTHETA grid",
                     id="bare grid at n=2"),
        pytest.param(lambda: gen_sphere(1.0, n=3, grid=(8, 8, 8)),
                     "unsupported dimension n = 3", id="n=3"),
    ])
    def test_malformed_generator_input_refused(self, make, match):
        # once truncated, unpacked by accident or saved misnamed; now refused
        with pytest.raises(ValueError, match=match):
            make()


def _record(graph):
    return graph.rho.tobytes(), json.dumps(graph.meta)


def _report(x):
    report = run_verification(gen_sphere(1.0, 0.3, grid=(16, 32)), eps_sweep=[x]).to_dict()
    del report["provenance"]["timestamp"]
    return json.dumps(report)


# each real input: values to spell, the name its refusal gives, and what
# the library made of the spelling x (a surface's rho bits and meta, or rows)
REAL_INPUTS = {
    "sphere radius": ([0.5, 1.0, 2.0, -1.0], "radius",
                      lambda x: _record(gen_sphere(x, grid=(16, 32)))),
    "sphere offset": ([0.0, 0.3, 1.0], "center offset",
                      lambda x: _record(gen_sphere(1.5, x, grid=(16, 32)))),
    "lobe radius": ([1.0, 2.0], "radius",
                    lambda x: _record(gen_perturbed_sphere(x, 0.05, (2, 0), grid=(16, 32)))),
    "lobe amplitude": ([0.0, 0.05, -0.1, 1.0], "amplitude",
                       lambda x: _record(gen_perturbed_sphere(1.0, x, (2, 0), grid=(16, 32)))),
    "report eps": ([0.0, 0.5, 1.0, 2.0], "eps", _report),
    "sweep eps": ([0.0, 0.5, 1.0, 2.0], "eps", lambda x: json.dumps([r.to_dict() for r in (
        minkowski_shifted(build_geometry(gen_sphere(1.0, 0.3, grid=(16, 32))), [x]))])),
}
REAL_SPELLINGS = {
    "float": (float, True),
    "int": (int, True),
    "np.float32": (np.float32, True),
    "np.int64": (np.int64, True),
    "str": (str, False),
    "None": (lambda v: None, False),
    "complex": (complex, False),
    "True": (lambda v: True, False),
    "int past the float range": (lambda v: 10 ** 400, False),
}


def _outcome(make, x):
    try:
        return make(x)
    except HkError as exc:      # a radius or shape the generator refuses
        return type(exc), str(exc)


class TestRealRule:
    @given(st.sampled_from(sorted(REAL_INPUTS)), st.sampled_from(sorted(REAL_SPELLINGS)),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_taken_exactly_or_refused(self, name, spelling, data):
        # every real input follows one rule: float(x) exactly, or ValueError
        # naming the input
        values, named, make = REAL_INPUTS[name]
        spell, taken = REAL_SPELLINGS[spelling]
        x = spell(data.draw(st.sampled_from(values)))
        if not taken:
            with pytest.raises(ValueError, match=named):
                make(x)
            return
        assert _outcome(make, x) == _outcome(make, float(x)), (name, spelling, x)


# the generators' outputs at Python and numpy scalar inputs; each keyword
# set is passed to (gen_sphere, gen_perturbed_sphere) as its name says
ROUND_TRIP_CASES = {
    "sphere n=2": (gen_sphere, dict(radius=1.0, n=2, grid=(16, 32))),
    "sphere n=2 numpy": (gen_sphere, dict(radius=np.float32(1.1), n=np.int64(2),
                                          grid=(np.int64(16), np.int32(32)))),
    "sphere n=1 int radius": (gen_sphere, dict(radius=2, n=1, grid=32)),
    "sphere n=1 numpy": (gen_sphere, dict(radius=np.float64(1.5), n=np.int64(1),
                                          grid=np.int64(32))),
    "offset n=2 numpy": (gen_sphere, dict(radius=np.float32(1.0), center_offset=np.float32(0.3),
                                          n=np.int64(2), grid=(np.int64(16), 32))),
    "offset n=1": (gen_sphere, dict(radius=1.0, center_offset=0.3, n=1, grid=(32,))),
    "lobe n=2": (gen_perturbed_sphere, dict(radius=1.0, amp=0.05, mode=(2, 0), n=2,
                                            grid=(16, 32))),
    "lobe n=2 numpy": (gen_perturbed_sphere, dict(
        radius=np.float32(1.0), amp=np.float32(0.01), mode=(np.int64(3), np.int8(1)),
        n=np.int64(2), grid=[np.int16(16), np.int64(32)])),
    "curve n=1": (gen_perturbed_sphere, dict(radius=1.0, amp=0.1, mode=2, n=1, grid=64)),
    "curve n=1 numpy": (gen_perturbed_sphere, dict(
        radius=np.float32(1.0), amp=0.1, mode=np.array([2])[0], n=np.int64(1),
        grid=(np.int64(64),))),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CASES))
def test_generated_surfaces_round_trip(tmp_path, name):
    # what a generator returns is what its file loads back as: the same
    # rho bits, n and meta, whatever scalar types built it
    generate, kwargs = ROUND_TRIP_CASES[name]
    graph = generate(**kwargs)
    path = tmp_path / "s.json"
    save_surface(graph, path)
    back = load_surface(path)
    assert back.n == graph.n and type(back.n) is type(graph.n) is int
    assert back.rho.tobytes() == graph.rho.tobytes()
    assert back.meta == graph.meta
    assert json.loads(json.dumps(graph.meta)) == graph.meta


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

    def test_geometry_keeps_only_what_checks_read(self):
        # the forms are consumed in place by the builder, never stored
        for graph in (gen_sphere(1.0, grid=(16, 32)), gen_sphere(1.0, n=1, grid=(64,))):
            geom = build_geometry(graph)
            assert not hasattr(geom, "metric") and not hasattr(geom, "second_form")

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
        assert exact_sum(geom.area_weight) == pytest.approx(2 * np.pi * math.sinh(R), rel=1e-14)
        assert geom.weighted_volume == pytest.approx(np.pi * math.sinh(R) ** 2, rel=1e-14)
        assert geom.enclosed_volume == pytest.approx(
            2 * np.pi * (math.cosh(R) - 1.0), rel=1e-14)

    def test_sphere_integrals_second_order(self, surface):
        R = 1.0
        area_want = 4 * np.pi * math.sinh(R) ** 2
        wvol_want = (4 * np.pi / 3) * math.sinh(R) ** 3
        area_err, wvol_err = [], []
        for P in (16, 32, 64):
            g, geom = surface("sphere", radius=R, grid=(P, 2 * P))
            area_err.append(abs(exact_sum(geom.area_weight) - area_want) / area_want)
            wvol_err.append(abs(geom.weighted_volume - wvol_want) / wvol_want)
        for errs in (area_err, wvol_err):
            orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0)
                      for i in range(2)]
            assert min(orders) >= 1.9
            assert errs[-1] <= 5e-4

    def test_area_integral_linearity(self, surface):
        g, geom = surface("perturbed", radius=1.0, amp=0.05, mode=(2, 0),
                          grid=(16, 32))
        rng = np.random.default_rng(11)
        f = rng.random(geom.area_weight.size)
        h = rng.random(geom.area_weight.size)
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
            got = build_geometry(g, base=center).weighted_volume
            assert abs(got - want) <= tol * want, (n, got, want)

    def test_weighted_volume_origin_base_bit_identical(self):
        # about the origin the tilt term vanishes exactly, leaving the
        # centered radial integral sinh(rho)^3 / 3 bit for bit
        g = gen_perturbed_sphere(1.0, 0.01, (3, 1), grid=(16, 32))
        phi, _ = g.angles()
        w = np.sin(phi)[:, None] * g.h_phi * g.h_theta
        want = math.fsum((np.sinh(g.rho) ** 3 / 3 * w).ravel().tolist())
        assert build_geometry(g).weighted_volume == want
        assert build_geometry(g, base=hypgeo.origin(2)).weighted_volume == want
        with pytest.raises(ValueError):
            build_geometry(g, base=np.array([1.0, 0.5, 0.0, 0.0]))

    def test_geometry_volumes_are_the_graph_volumes(self):
        # the geometry hands its own sinh/cosh(rho) to the radial sums, the
        # same bits as sinh/cosh of the graph's rho
        base = np.array([math.cosh(0.2), 0.0, math.sinh(0.2)])
        for n, grid, mode, b in ((1, (64,), 3, base), (2, (16, 32), (3, 1), None)):
            g = gen_perturbed_sphere(1.0, 0.01, mode, n=n, grid=grid)
            geom = build_geometry(g, base=b)
            lam, lamp = np.sinh(g.rho), np.cosh(g.rho)
            assert geom.weighted_volume == _weighted_volume(g, lam, lamp, geom.base)
            if n == 1:
                radial = (lamp - 1.0) * g.h_theta
            else:
                phi, _ = g.angles()
                radial = (lam * lamp - g.rho) / 2.0 * (np.sin(phi)[:, None] * g.h_phi * g.h_theta)
            assert geom.enclosed_volume == math.fsum(radial.ravel().tolist())


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
        assert exact_sum(geom.area_weight) == pytest.approx(exact_sum(geom_r.area_weight),
                                                            rel=1e-12)

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

    @pytest.mark.parametrize("n, grid, base", [
        # a stack of points, one per node, each on the sheet
        (2, (8, 16), np.tile(hypgeo.origin(2), (128, 1))),
        # a point of H^3 for a curve, of H^2 for a surface
        (1, (16,), hypgeo.origin(2)),
        (2, (8, 16), hypgeo.origin(1)),
    ], ids=["stack", "n1-length-4", "n2-length-3"])
    def test_base_is_one_point(self, monkeypatch, n, grid, base):
        # refused by its shape before any array is built, so a generated
        # graph keeps the fields its first build takes
        g = gen_sphere(1.0, n=n, grid=grid) if n == 2 else gen_perturbed_sphere(
            1.0, 0.05, 2, n=1, grid=grid)
        carried = g._carried
        cores = _counted_cores(monkeypatch)
        want = f"base must be one point of shape ({n + 2},), got {base.shape}"
        with pytest.raises(ValueError, match=re.escape(want)):
            build_geometry(g, base=base)
        assert cores == [] and g._carried is carried

    @pytest.mark.parametrize("base", [[math.nan, 0.0, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0],
                                      [math.inf, math.inf, 0.0, 0.0]], ids=repr)
    def test_base_must_be_finite(self, monkeypatch, base):
        # the sheet tests compare false on NaN and inf; the point is named,
        # refused before any array is built, not blamed on the surface
        g = gen_perturbed_sphere(1.0, 0.05, (2, 0), grid=(8, 16))
        carried = g._carried
        cores = _counted_cores(monkeypatch)
        want = f"point {base} has a coordinate that is not finite"
        with pytest.raises(ValueError, match=re.escape(want)):
            build_geometry(g, base=np.array(base))
        assert cores == [] and g._carried is carried


def rolled_stencil(f, taps, h, axis):
    """The written 5-point formulas on periodic f; f[j + s] is np.roll(f, -s)."""
    def at(s):
        return np.roll(f, -s, axis)
    if taps is _D1:
        return (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) / (12.0 * h)
    return (-at(2) + 16.0 * at(1) - 30.0 * at(0) + 16.0 * at(-1) - at(-2)) / (12.0 * h * h)


class TestStencil:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_written_formulas_bit_for_bit(self, data):
        f = data.draw(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, min_side=2,
                                                        max_side=7), elements=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e6, 1e6))))
        axis = data.draw(st.integers(0, f.ndim - 1))
        h = data.draw(st.floats(1e-3, 1.0))
        for taps in (_D1, _D2):
            assert oracle.same_bits(_stencil(_wrap(f, axis), taps, h, axis),
                                    rolled_stencil(f, taps, h, axis))


def covariant_hessian_n1(geom, h):
    """Test oracle: V'' - Gamma V' on the curve, Gamma = g'/(2g)."""
    V = geom.V
    (gm,) = _fundamental_forms(geom.graph)[-2]
    dV = _stencil(_wrap(V, 0), _D1, h, 0)
    ddV = _stencil(_wrap(V, 0), _D2, h, 0)
    dg = _stencil(_wrap(gm, 0), _D1, h, 0)
    return ddV - (dg / (2.0 * gm)) * dV


class TestPotentialConsistency:
    # the tangential gradient and surface Hessian of V have closed forms;
    # finite differences of the assembled fields must reproduce them

    def test_gradient_n1(self):
        g = gen_perturbed_sphere(1.0, 0.1, 2, n=1, grid=256)
        base = oracle.ball_to_hyper(np.array([0.2, 0.1]))
        geom = build_geometry(g, base=base)
        h = g.h_theta
        dV = _stencil(_wrap(geom.V, 0), _D1, h, 0)
        dpos = _stencil(_wrap(geom.position, 0), _D1, h, 0)
        rhs = hypgeo.minkowski_inner(oracle.radial_field(geom.position, base), dpos)
        assert np.max(np.abs(dV - rhs)) <= 1e-5 * np.max(np.abs(rhs))

    def test_gradient_n2(self):
        P = 32
        g = gen_perturbed_sphere(1.0, 0.01, (3, 2), grid=(P, 2 * P))
        base = oracle.ball_to_hyper(np.array([0.1, 0.05, 0.15]))
        geom = build_geometry(g, base=base)
        V = geom.V.reshape(P, 2 * P)
        pos = geom.position.reshape(P, 2 * P, 4)
        dV = _stencil(_wrap(V, 1), _D1, g.h_theta, 1)
        dpos = _stencil(_wrap(pos, 1), _D1, g.h_theta, 1)
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
            (gm,), (hm,) = _fundamental_forms(g)[-2:]
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
        metric, second_form = _fundamental_forms(g)[-2:]
        comp = {}
        for k, nm in enumerate(("pp", "pt", "tt")):
            comp["g" + nm] = metric[k]
            comp["h" + nm] = second_form[k]

        def d_phi(f):
            out = np.full_like(f, np.nan)
            out[1:-1] = (f[2:] - f[:-2]) / (2.0 * hp)
            return out

        def d_theta(f):
            return _stencil(_wrap(f, 1), _D1, ht, 1)

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
