"""Geometry of time warps via square-root slope functions.

A warp of [0,1] is represented by its values on a uniform grid.  Its
square-root slope function q = sqrt(d gamma/dt) lies on the nonnegative
orthant of the unit sphere in L2[0,1]; the tangent space of that sphere
at the constant function 1 is the zero-mean subspace, which we span with
a finite Fourier family.  The composite maps (warp -> coefficients and
coefficients -> warp) let a finite real vector parameterize a warp.  The
likelihood kernel shares ``warp_integral``, the one rule for gamma from q,
so ``coeffs_to_warp`` returns the warp that a fit evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidSrsfError, InvalidWarpError

DEFAULT_GRID_SIZE = 1024

_THETA_FLOOR = 1e-9
_STRICT_EPS = 1e-12


def unit_grid(n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Uniform grid of n points on [0,1]."""
    if n < 2:
        raise DomainError(f"grid needs at least 2 points, got {n}")
    return np.linspace(0.0, 1.0, n)


def inner(f: np.ndarray, g: np.ndarray, t: np.ndarray) -> float:
    """L2 inner product by the trapezoidal rule."""
    return float(np.trapezoid(f * g, t))


def l2norm(f: np.ndarray, t: np.ndarray) -> float:
    return float(np.sqrt(max(np.trapezoid(f * f, t), 0.0)))


@dataclass(frozen=True)
class WarpingGrid:
    """An orientation-preserving diffeomorphism of [0,1] on a uniform grid."""

    t: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.shape != np.shape(self.t):
            raise InvalidWarpError("grid/value length mismatch")
        if not np.all(np.isfinite(g)):
            raise InvalidWarpError("warp values must be finite")
        if abs(g[0]) > 1e-8 or abs(g[-1] - 1.0) > 1e-8:
            raise InvalidWarpError("warp endpoints must be 0 and 1")
        if np.any(np.diff(g) <= 0):
            raise InvalidWarpError("warp must be strictly increasing")
        g = g.copy()
        g[0], g[-1] = 0.0, 1.0
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class SrsfGrid:
    """A unit-norm function on the grid (a point of the L2 sphere).

    Values may be negative for points produced by the exponential map
    outside the nonnegative orthant; squaring in the inverse map makes
    the resulting warp valid regardless.
    """

    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.q)):
            raise InvalidSrsfError("srsf values must be finite")
        nrm = l2norm(np.asarray(self.q, float), self.t)
        if abs(nrm - 1.0) > 1e-4:
            raise InvalidSrsfError(f"not unit norm: ||q|| = {nrm:.6g}")


@dataclass(frozen=True)
class TangentVector:
    """Zero-mean grid function: tangent to the sphere at the constant 1."""

    t: np.ndarray
    v: np.ndarray

    @property
    def norm(self) -> float:
        return l2norm(self.v, self.t)


@dataclass(frozen=True)
class CoefficientVector:
    """Finite basis coordinates of a tangent vector."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.atleast_1d(np.asarray(self.c, float)))

    @property
    def j(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class BasisSet:
    """Orthonormal, zero-mean basis functions sampled on the grid."""

    t: np.ndarray
    b: np.ndarray  # shape (J, n)

    @property
    def j(self) -> int:
        return self.b.shape[0]


def min_grid_size(j: int) -> int:
    """Fewest points on which the trapezoid rule keeps j Fourier functions
    orthonormal: frequencies up to K = ceil(j/2) need n >= 2K + 2."""
    return 2 * ((j + 1) // 2) + 2


def fourier_basis(j: int, n: int = DEFAULT_GRID_SIZE) -> BasisSet:
    """First j elements of the orthonormal Fourier family without the constant.

    Ordered sin/cos interleaved: sqrt(2)sin(2 pi t), sqrt(2)cos(2 pi t),
    sqrt(2)sin(4 pi t), ...  Fewer than ``min_grid_size(j)`` points alias them.
    Each call builds fresh arrays, so a caller may write to the ones it gets.
    """
    if j < 1:
        raise DomainError(f"basis dimension must be >= 1, got {j}")
    if n < min_grid_size(j):
        raise DomainError(f"{n} grid points alias {j} Fourier functions")
    t = unit_grid(n)
    rows = np.empty((j, n))
    for i in range(j):
        k = i // 2 + 1
        if i % 2 == 0:
            rows[i] = np.sqrt(2.0) * np.sin(2.0 * np.pi * k * t)
        else:
            rows[i] = np.sqrt(2.0) * np.cos(2.0 * np.pi * k * t)
    return BasisSet(t, rows)


def _deriv4(f: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid."""
    d = np.empty_like(f)
    d[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12.0 * h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12.0 * h)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12.0 * h)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12.0 * h)
    return d


def warp_integral(qsq: np.ndarray) -> tuple[np.ndarray, float]:
    """(gamma, total): the cumulative trapezoid of q^2 over its total, in a
    fresh array that starts at 0, and the total, in units of h / 2."""
    gamma = np.zeros(qsq.size)
    np.add(qsq[1:], qsq[:-1], out=gamma[1:])
    np.add.accumulate(gamma[1:], out=gamma[1:])
    total = float(gamma[-1])
    gamma /= total
    return gamma, total


def srsf(w: WarpingGrid) -> SrsfGrid:
    """Square-root slope function q = sqrt(d gamma/dt).

    The slope uses fourth-order differences, so that the round trip with
    srsf_inverse stays inside 1e-6: its error is then mostly the trapezoid's
    in ``warp_integral`` (4.5e-7 on 4096 points; second order gives 1.3e-6).
    """
    slope = _deriv4(w.gamma, w.t[1] - w.t[0])
    slope = np.maximum(slope, _STRICT_EPS)
    q = np.sqrt(slope)
    q /= l2norm(q, w.t)
    return SrsfGrid(w.t, q)


def srsf_inverse(q: SrsfGrid) -> WarpingGrid:
    """Recover the warp gamma(t) = integral_0^t q(s)^2 ds, renormalized."""
    if not np.allclose(np.diff(q.t), q.t[1] - q.t[0], rtol=1e-6, atol=0.0):
        raise InvalidSrsfError("srsf_inverse needs a uniform grid")
    qq = np.asarray(q.q, float)
    gamma = warp_integral(qq * qq)[0]
    # guard flat numerical segments so the result is strictly increasing
    gamma = (gamma + _STRICT_EPS * q.t) / (1.0 + _STRICT_EPS)
    return WarpingGrid(q.t, gamma)


def inv_exp_map(q: SrsfGrid) -> TangentVector:
    """Retraction of a sphere point to the tangent space at 1.

    v = (theta / sin theta) (q - cos(theta) 1), theta = arccos<1, q>.
    theta -> 0 is a removable singularity handled by the limit v = 0.
    """
    cos_theta = np.clip(inner(np.ones_like(q.q), q.q, q.t), -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < _THETA_FLOOR:
        return TangentVector(q.t, np.zeros_like(q.q))
    v = (theta / np.sin(theta)) * (q.q - cos_theta)
    return TangentVector(q.t, v)


def exp_map(v: TangentVector) -> SrsfGrid:
    """Sphere exponential at 1: cos(||v||) 1 + (sin(||v||)/||v||) v."""
    nrm = v.norm
    if nrm < _THETA_FLOOR:
        return SrsfGrid(v.t, np.ones_like(v.v))
    q = np.cos(nrm) + (np.sin(nrm) / nrm) * v.v
    return SrsfGrid(v.t, q)


def coeffs_to_warp(c: CoefficientVector, basis: BasisSet) -> WarpingGrid:
    """Map finite basis coefficients to a warp (tangent vector -> sphere -> warp)."""
    if c.j != basis.j:
        raise DomainError("coefficient/basis dimension mismatch")
    if not np.all(np.isfinite(c.c)):
        raise DomainError("coefficients must be finite")
    return srsf_inverse(exp_map(TangentVector(basis.t, c.c @ basis.b)))


def warp_to_coeffs(w: WarpingGrid, basis: BasisSet) -> CoefficientVector:
    """Project a warp onto the finite basis: c_j = <invexp(srsf(w)), B_j>."""
    tv = inv_exp_map(srsf(w))
    c = np.trapezoid(basis.b * tv.v, basis.t, axis=1)
    return CoefficientVector(c)


def compose(outer: WarpingGrid, inner_warp: WarpingGrid) -> WarpingGrid:
    """Composition outer(inner(t)) by monotone linear interpolation."""
    gamma = np.interp(inner_warp.gamma, outer.t, outer.gamma)
    gamma = (gamma + _STRICT_EPS * outer.t) / (1.0 + _STRICT_EPS)
    return WarpingGrid(outer.t, gamma)
