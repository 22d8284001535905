"""Numerical verification of curvature integral identities and the
shifted Heintze-Karcher inequality on closed hypersurfaces of hyperbolic
space, for n = 1 and n = 2 dimensional surfaces given as radial graphs."""

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
from .normalflow import FlowParticles, FlowTrace, verify_flow

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
