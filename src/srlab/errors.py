"""Exception hierarchy shared across the package.

Validation errors mean the input data (model, surface, scene) is inconsistent;
numerical errors mean a pointwise computation could not be completed. The CLI
maps the former to exit code 3 and the latter to exit code 4.
"""

from __future__ import annotations


class SrLabError(Exception):
    """Base class for all package errors."""


class ValidationError(SrLabError):
    """Input data violates a documented precondition."""


class NumericalError(SrLabError):
    """A pointwise numerical computation failed."""


class ParseError(ValidationError):
    """Expression text is malformed; carries the source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(NumericalError):
    """Domain error or non-finite value while evaluating an expression."""

    def __init__(self, message: str, position: int | None = None):
        self.message = message
        if position is not None:
            message = f"{message} (expression position {position})"
        super().__init__(message)
        self.position = position


class DegenerateFrameError(ValidationError):
    """Horizontal frame vectors are linearly dependent at a point."""


class NonContactError(ValidationError):
    """The distribution fails the contact nondegeneracy condition."""


class ModelConsistencyError(ValidationError):
    """A bracket is not expressible in the frame within tolerance."""


class ImmersionError(ValidationError):
    """Surface parametrization drops rank at a point."""


class CharacteristicPointError(NumericalError):
    """The tangent plane coincides with the distribution at a point."""


class TransversalityError(NumericalError):
    """A curve is tangent to the horizontal direction f2 at a point."""


class SamplingError(NumericalError):
    """Random sampling found no interior point of a region within its budget."""


class SceneError(ValidationError):
    """Scene file is malformed or fails cross-validation."""

    def __init__(self, message: str, path: str | None = None):
        if path:
            message = f"{message} (scene field {path})"
        super().__init__(message)
        self.path = path


class UnknownModelError(SceneError):
    """Requested builtin model or scene name does not exist."""
