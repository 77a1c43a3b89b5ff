"""Exception hierarchy shared across the package."""

import numpy as np


class WarpdensError(Exception):
    """Base class for all package-specific errors."""


class InvalidWarpError(WarpdensError):
    """A warping function violates monotonicity or endpoint pinning."""


class InvalidSrsfError(WarpdensError):
    """A square-root slope function is degenerate (e.g. zero norm)."""


class DomainError(WarpdensError):
    """An argument lies outside the mathematical domain of an operation."""


class ConstraintError(WarpdensError):
    """A height-ratio vector violates its feasibility constraints."""


class ShapeError(WarpdensError):
    """A density's critical structure does not match the requested shape."""


class DegenerateSampleError(WarpdensError):
    """The sample is too small or has zero spread."""


class OptimizationError(WarpdensError):
    """No restart's density has the requested mode count, at one J or at every J."""


def real_array(values, error: type[WarpdensError], name: str) -> np.ndarray:
    """``values`` as a float array; ``error`` if they are not all real numbers."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind != "c":
            return arr.astype(float, copy=False)
    except (TypeError, ValueError):
        pass
    raise error(f"{name} must be real numbers")
