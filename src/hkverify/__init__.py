"""Numerical verification of curvature integral identities and the
shifted Heintze-Karcher inequality on closed hypersurfaces of hyperbolic
space, for n = 1 and n = 2 dimensional surfaces given as radial graphs.

The flow names (`FlowParticles`, `FlowTrace`, `verify_flow`) load
`hkverify.normalflow`, and with it `scipy.spatial`, on first use, so the
generators and checks start without it."""

import importlib

__version__ = "0.1.0"

from .hypersurface import (
    RadialGraph,
    SurfaceGeometry,
    build_geometry,
    gen_perturbed_sphere,
    gen_sphere,
    load_surface,
    save_surface,
)
from .identities import CheckResult, VerificationReport, run_verification

__all__ = [
    "__version__",
    "RadialGraph",
    "SurfaceGeometry",
    "build_geometry",
    "gen_sphere",
    "gen_perturbed_sphere",
    "load_surface",
    "save_surface",
    "CheckResult",
    "VerificationReport",
    "run_verification",
    "FlowParticles",
    "FlowTrace",
    "verify_flow",
]

_FLOW_NAMES = ("FlowParticles", "FlowTrace", "verify_flow")


def __getattr__(name):
    # Each lookup delegates instead of binding the name here, so a name
    # rebound in hkverify.normalflow is the one seen through the package.
    if name == "normalflow" or name in _FLOW_NAMES:
        normalflow = importlib.import_module(f"{__name__}.normalflow")
        return normalflow if name == "normalflow" else getattr(normalflow, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "normalflow", *_FLOW_NAMES})
