"""Exception types shared across the package.

`cli.main` maps every subclass of HkError onto one code of its documented
exit-code table, so a new subclass needs a code there too.  Keep the
hierarchy flat and the constructor signatures boring.
"""

from __future__ import annotations


class HkError(Exception):
    """Base class for all package-specific failures.  A refusal that names
    a node passes `node`: kept as `.node`, appended as " (node N)"."""

    def __init__(self, message: str, node: int | None = None):
        self.node = node
        super().__init__(message if node is None else f"{message} (node {node})")


class DegenerateSurfaceError(HkError):
    """The discrete surface failed a pointwise well-posedness check."""


class GenerationError(HkError):
    """A surface generator was asked for something it cannot produce."""


class RejectedShapeError(HkError):
    """A generated shape failed post-hoc validation."""


class PreconditionError(HkError):
    """A verification check's mathematical precondition does not hold."""

    def __init__(self, message: str, check: str | None = None, node: int | None = None):
        self.check = check
        super().__init__(message if check is None else f"{check}: {message}", node)


class FocalTimeError(HkError):
    """An evolution quantity was requested at or beyond a focal time."""


class FlowAssumptionError(HkError):
    """A structural assumption of the normal flow broke down numerically."""
