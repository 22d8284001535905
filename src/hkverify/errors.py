"""Exception types shared across the package.

`cli.main` maps every subclass of HkError onto one code of its documented
exit-code table, so a new subclass needs a code there too.  Keep the
hierarchy flat and the constructor signatures boring.
"""

from __future__ import annotations


class HkError(Exception):
    """Base class for all package-specific failures."""


class DegenerateSurfaceError(HkError):
    """The discrete surface failed a pointwise well-posedness check."""

    def __init__(self, message: str, node: int | None = None):
        self.node = node
        if node is not None:
            message = f"{message} (node {node})"
        super().__init__(message)


class GenerationError(HkError):
    """A surface generator was asked for something it cannot produce."""


class RejectedShapeError(HkError):
    """A generated shape failed post-hoc validation."""

    def __init__(self, message: str, node: int | None = None):
        self.node = node
        if node is not None:
            message = f"{message} (node {node})"
        super().__init__(message)


class PreconditionError(HkError):
    """A verification check's mathematical precondition does not hold."""

    def __init__(self, message: str, check: str | None = None, node: int | None = None):
        self.check = check
        self.node = node
        detail = message
        if check is not None:
            detail = f"{check}: {detail}"
        if node is not None:
            detail = f"{detail} (node {node})"
        super().__init__(detail)


class FocalTimeError(HkError):
    """An evolution quantity was requested at or beyond a focal time."""


class FlowAssumptionError(HkError):
    """A structural assumption of the normal flow broke down numerically."""
