"""Exception hierarchy, and the input gate that every public entry point runs."""

import math
import numbers

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
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} must be real numbers")


def integer(value, error: type[WarpdensError], name: str, least: int):
    """``value``, an integer other than a bool, at least ``least``; else ``error``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")
    return value


def _real(value) -> float:
    """``value`` as a float; NaN unless a real number other than a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return math.inf


def number(value, error: type[WarpdensError], name: str,
           above: float = -math.inf, most: float = math.inf) -> float:
    """``value`` as a float; ``error`` unless finite and above < value <= most."""
    v = _real(value)
    if math.isfinite(v) and above < v <= most:
        return v
    bounds = "" if math.isinf(above) and math.isinf(most) else f" in ({above}, {most}]"
    raise error(f"{name} must be a finite real number{bounds}, got {value!r}")


def interval(ends, error: type[WarpdensError]) -> tuple[float, float]:
    """``ends`` as floats (A, B); ``error`` unless it is a tuple, list or 1-D
    array of two real numbers A < B whose width B - A is finite."""
    ends = ends.tolist() if isinstance(ends, np.ndarray) else ends
    if isinstance(ends, (tuple, list)) and len(ends) == 2:
        a, b = map(_real, ends)
        if a < b and math.isfinite(b - a):
            return a, b
    raise error(f"support must be two finite values A < B with a finite B - A: {ends!r}")


def sample(values, error: type[WarpdensError], name: str, least: int) -> np.ndarray:
    """``values`` as a 1-D, finite float array of at least ``least`` values."""
    x = real_array(values, error, name)
    if x.ndim != 1:
        raise error(f"{name} must be a 1-D array, got shape {x.shape}")
    if x.size < least:
        raise error(f"need at least {least} {name}, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise error(f"{name} must be finite")
    return x


def spread(x: np.ndarray, error: type[WarpdensError], name: str) -> float:
    """The sample sd of ``x``; ``error`` unless it is positive and finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(x, ddof=1))
    if not 0.0 < sd < math.inf:
        raise error(f"{name} need a positive spread whose sd does not overflow: {sd}")
    return sd
