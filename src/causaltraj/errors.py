"""Exception types shared across the package."""

from __future__ import annotations


class CausalTrajError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(CausalTrajError):
    """Operands have incompatible shapes; message names both shapes."""


class ConfigError(CausalTrajError):
    """Invalid configuration value, unknown key, or unknown variant."""


class ParameterizationError(CausalTrajError):
    """Distribution parameters violate a structural requirement."""


class TrajectoryFormatError(CausalTrajError):
    """Malformed trajectory or checkpoint container.

    ``offset`` is the byte position at which parsing failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class GraphReleasedError(CausalTrajError):
    """backward() reached a recorded graph that an earlier backward() released."""


class GradCheckError(CausalTrajError):
    """Finite-difference check could not be evaluated."""


class DataError(CausalTrajError):
    """Dataset contents violate a precondition."""
