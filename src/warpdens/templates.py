"""Shape templates and the normalizing group action.

A "shape" is an ordered sequence of increasing / decreasing / flat pieces
(M modes expand to (inc, dec) repeated M times).  A template is the
piecewise-linear function on [0,1] with equal-width pieces, first mode
pinned at height 1, boundary antimodes at the floor omega, and every other
critical height given by the height-ratio vector (``ShapeSpec`` states
which levels those are).  Warping a template by any diffeomorphism and
renormalizing preserves both the mode count and the height-ratio vector,
which is what makes the shape constraint exact.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .errors import ConstraintError, ShapeError, real_array
from .geometry import DEFAULT_GRID_SIZE, WarpingGrid, unit_grid

Piece = Literal["inc", "dec", "flat"]

#: Relative tolerance for critical-point detection on grid densities; the
#: search's visible antimode gap (``_Objective.rel_gap``) is derived from it.
MODE_TOL = 1e-6


@dataclass(frozen=True)
class _Level:
    knots: tuple[int, ...]
    role: str  # "high" | "low"
    boundary: bool


@dataclass(frozen=True)
class ShapeSpec:
    """An ordered sequence of monotone pieces, optionally with free boundaries.

    The height-ratio vector sets every critical level except the first
    mode, which is pinned at 1, and the boundary antimodes, which sit at
    the template floor omega.  With ``free_boundaries`` the boundary
    antimodes are set by it too; boundary modes always are.

    The constructor works out the level layout once: ``levels`` (knots
    joined by flat pieces, each a local maximum "high" or minimum "low"),
    ``n_modes``, ``free_levels`` (the levels the height-ratio vector sets,
    left to right) and ``knot_levels`` (each knot's level).
    """

    pieces: tuple[Piece, ...]
    free_boundaries: bool = False
    levels: tuple[_Level, ...] = field(init=False, repr=False, compare=False)
    n_modes: int = field(init=False, repr=False, compare=False)
    free_levels: list[int] = field(init=False, repr=False, compare=False)
    knot_levels: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.free_boundaries, bool):
            raise ShapeError(
                f"free_boundaries must be a bool, got {self.free_boundaries!r}"
            )
        if isinstance(self.pieces, str):
            raise ShapeError("pieces must be a tuple such as ('inc', 'dec'), not a str")
        try:
            ps = tuple(self.pieces)
        except TypeError:
            raise ShapeError(f"pieces must be a sequence, got {self.pieces!r}") from None
        if not ps:
            raise ShapeError("shape needs at least one piece")
        for p in ps:
            if p not in ("inc", "dec", "flat"):
                raise ShapeError(f"unknown piece kind {p!r}")
        name = ",".join(ps)
        for a, b in zip(ps, ps[1:]):
            if a == b:
                raise ShapeError(f"adjacent {a!r} pieces are not a legal shape")
        if "inc" not in ps and "dec" not in ps:
            raise ShapeError(f"shape {name} has no inc or dec piece, hence no mode")
        groups: list[list[int]] = [[0]]
        for i, p in enumerate(ps):
            if p == "flat":
                groups[-1].append(i + 1)
            else:
                groups.append([i + 1])
        levels = []
        for g in groups:
            # no two flat pieces touch, so the pieces around a level are monotone
            d_in = ps[g[0] - 1] if g[0] > 0 else None
            d_out = ps[g[-1]] if g[-1] < len(ps) else None
            if d_in == d_out:  # a flat run inside a monotone run
                raise ShapeError(f"shape {name} has a shoulder ({d_in},flat,{d_in})")
            role = "high" if d_in == "inc" or d_out == "dec" else "low"
            levels.append(_Level(tuple(g), role, g[0] == 0 or g[-1] == len(ps)))
        first = [lv.role for lv in levels].index("high")  # pinned at 1
        free = [
            i
            for i, lv in enumerate(levels)
            if i != first
            and (lv.role == "high" or not lv.boundary or self.free_boundaries)
        ]
        object.__setattr__(self, "pieces", ps)
        object.__setattr__(self, "levels", tuple(levels))
        object.__setattr__(self, "n_modes", sum(lv.role == "high" for lv in levels))
        object.__setattr__(self, "free_levels", free)
        knot_levels = [i for i, lv in enumerate(levels) for _ in lv.knots]
        object.__setattr__(self, "knot_levels", knot_levels)

    @classmethod
    def modes(cls, m: int) -> "ShapeSpec":
        if not isinstance(m, numbers.Integral) or isinstance(m, bool):
            raise ShapeError(f"mode count must be an integer, got {m!r}")
        if m < 1:
            raise ShapeError(f"mode count must be positive, got {m}")
        return cls(("inc", "dec") * m)

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)

    @property
    def knots(self) -> np.ndarray:
        """Equal-width critical locations j / n_pieces."""
        return np.linspace(0.0, 1.0, self.n_pieces + 1)


def level_heights(shape: ShapeSpec, lam: np.ndarray, omega: float) -> np.ndarray:
    """Expand a height-ratio vector into one height per critical level.

    The first mode is 1, ``shape.free_levels`` take lam in order and
    the remaining levels (boundary antimodes) sit at omega.
    """
    lam = np.atleast_1d(real_array(lam, ConstraintError, "height ratios"))
    free = shape.free_levels
    if lam.size != len(free):
        raise ConstraintError(
            f"height-ratio vector has length {lam.size}, expected {len(free)}"
        )
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise ConstraintError("height ratios must be finite and strictly positive")
    # every mode but the first is free, and so is every antimode but the
    # pinned boundary ones
    heights = np.array([1.0 if lv.role == "high" else omega for lv in shape.levels])
    heights[free] = lam
    return heights


@dataclass(frozen=True)
class TemplateFunction:
    """Piecewise-linear template with prescribed critical structure."""

    t: np.ndarray
    g: np.ndarray
    knots: np.ndarray
    knot_heights: np.ndarray


def build_template(
    shape: ShapeSpec,
    lam: np.ndarray | Sequence[float],
    omega: float,
    n: int = DEFAULT_GRID_SIZE,
) -> TemplateFunction:
    """Construct the template with equal-width pieces and the given heights.

    Raises ConstraintError when the heights are not consistent with the
    piece directions (the feasibility set of the height-ratio vector).
    """
    knot_heights = level_heights(shape, lam, omega)[shape.knot_levels]
    for i, p in enumerate(shape.pieces):
        lo, hi = knot_heights[i], knot_heights[i + 1]
        if p == "inc" and not hi > lo:
            raise ConstraintError(f"piece {i} must increase ({lo:.4g} -> {hi:.4g})")
        if p == "dec" and not hi < lo:
            raise ConstraintError(f"piece {i} must decrease ({lo:.4g} -> {hi:.4g})")
    t = unit_grid(n)
    g = np.interp(t, shape.knots, knot_heights)
    return TemplateFunction(t, g, shape.knots, knot_heights)


@dataclass(frozen=True)
class GridDensity:
    """A probability density on [0,1] sampled on a uniform grid."""

    t: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, float)
        if not np.all(np.isfinite(p) & (p >= -1e-12)):
            raise ShapeError("density values must be finite and nonnegative")
        total = np.trapezoid(p, self.t)
        if not abs(total - 1.0) <= 1e-6:
            raise ShapeError(f"density integrates to {total:.6g}, not 1")

    @classmethod
    def from_values(cls, t: np.ndarray, values: np.ndarray) -> "GridDensity":
        """Normalize raw nonnegative values into a density."""
        values = np.maximum(np.asarray(values, float), 0.0)
        return cls(t, values / np.trapezoid(values, t))


def template_density(tmpl: TemplateFunction) -> GridDensity:
    return GridDensity.from_values(tmpl.t, tmpl.g)


def group_action(p: GridDensity | TemplateFunction, w: WarpingGrid) -> GridDensity:
    """The normalizing action (p, gamma) = p o gamma / integral(p o gamma)."""
    xp, fp = (p.knots, p.knot_heights) if isinstance(p, TemplateFunction) else (p.t, p.p)
    return GridDensity.from_values(p.t, np.interp(w.gamma, xp, fp))


def _steep_steps(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the steps of vals that are not flat, and whether each rises.

    A step no larger than MODE_TOL * max|vals| in size is flat.
    """
    d = np.diff(vals)
    steep = np.flatnonzero(np.abs(d) > MODE_TOL * float(np.max(np.abs(vals))))
    return steep, d[steep] > 0


def critical_points(p: GridDensity):
    """Interior extrema: one (index, kind) per turn of the slope sign.

    kind is "max" where a rise turns into a fall and "min" where a fall
    turns into a rise; the plateau of flat steps between the two gives one
    extremum at its best grid point, so every index lies in [1, n - 2].
    Extrema at the ends of the grid are not located.
    """
    vals = np.asarray(p.p, float)
    steep, up = _steep_steps(vals)
    out = []
    for k in np.flatnonzero(up[:-1] != up[1:]):
        lo, hi = steep[k] + 1, steep[k + 1] + 1
        pick, kind = (np.argmax, "max") if up[k] else (np.argmin, "min")
        out.append((int(lo + pick(vals[lo:hi])), kind))
    return out


def _refined_height(vals: np.ndarray, i: int) -> float:
    """Quadratic-vertex estimate of an interior extremum's height at index i."""
    a, b, c = vals[i - 1], vals[i], vals[i + 1]
    curv = a - 2.0 * b + c
    if curv == 0.0:
        return float(b)
    offset = 0.5 * (a - c) / curv
    if abs(offset) > 1.0:
        return float(b)
    return float(b - 0.25 * (a - c) * offset)


def count_modes(p: GridDensity) -> int:
    """Number of local maxima, counting each plateau once: the rise-to-fall
    turns of the slope sign, plus one if the first steep step falls and one
    if the last one rises (modes at the ends).  No steep step, no mode.
    """
    _, up = _steep_steps(np.asarray(p.p, float))
    if up.size == 0:
        return 0
    return int(np.count_nonzero(up[:-1] & ~up[1:])) + int(not up[0]) + int(up[-1])


def height_ratios_of(p: GridDensity, refine: bool = False) -> np.ndarray:
    """Heights of interior critical points relative to the first mode.

    Ordered left to right, skipping the first mode itself (which defines
    the reference height).  With ``refine`` each extremum height comes
    from a quadratic vertex fit, which is far more accurate for smooth
    densities whose extrema fall between grid points.
    """
    interior = critical_points(p)
    first_max = next((k for k, (_, kind) in enumerate(interior) if kind == "max"), None)
    if first_max is None:
        raise ShapeError("density has no interior mode")
    height = (lambda i: _refined_height(p.p, i)) if refine else (lambda i: float(p.p[i]))
    ref = height(interior[first_max][0])
    return np.array(
        [height(i) / ref for k, (i, _) in enumerate(interior) if k != first_max]
    )


def oracle_reconstruct_warp(
    p0: GridDensity, shape: ShapeSpec
) -> tuple[WarpingGrid, np.ndarray]:
    """Constructively recover the warp carrying the shape's template to p0.

    On each interval between consecutive critical points of p0 the
    template piece is linear, hence invertible in closed form; the warp
    is gamma(x) = piece_inverse(p0(x) / first_mode_height).  Applying the
    group action of the omega = 0 template with the recovered heights
    reproduces p0 up to grid interpolation.  The shape needs strictly
    monotone pieces and boundary antimodes pinned at the floor, so that
    the height-ratio vector holds the interior critical heights only.
    """
    if any(pc == "flat" for pc in shape.pieces):
        raise ShapeError("constructive reconstruction needs strictly monotone pieces")
    if shape.free_boundaries:
        raise ShapeError("constructive reconstruction assumes pinned boundaries")
    levels = shape.levels
    if levels[0].role == "high" or levels[-1].role == "high":
        raise ShapeError(
            "constructive reconstruction needs a shape that rises from its left "
            "end and falls to its right end (no boundary mode)"
        )
    vals = np.asarray(p0.p, float)
    n = vals.size
    interior = critical_points(p0)
    expected = [lv.role for lv in levels][1:-1]
    got = ["high" if k == "max" else "low" for _, k in interior]
    if got != expected:
        raise ShapeError(
            f"critical structure mismatch: found {got}, shape needs {expected}"
        )
    idx = [0] + [i for i, _ in interior] + [n - 1]
    # the shape rises from its left end, so the first turn is the first mode
    h1 = vals[interior[0][0]]
    lam = height_ratios_of(p0)

    tmpl = build_template(shape, lam, omega=0.0, n=n)
    knots, kh = tmpl.knots, tmpl.knot_heights
    g_tilde = vals / h1
    gamma = np.empty(n)
    for seg in range(len(idx) - 1):
        a_lo, a_hi = knots[seg], knots[seg + 1]
        h_lo, h_hi = kh[seg], kh[seg + 1]
        sl = slice(idx[seg], idx[seg + 1] + 1)
        y = np.clip(g_tilde[sl], min(h_lo, h_hi), max(h_lo, h_hi))
        gamma[sl] = a_lo + (y - h_lo) / (h_hi - h_lo) * (a_hi - a_lo)
    gamma = np.maximum.accumulate(gamma)
    gamma = (gamma + 1e-12 * p0.t) / (1.0 + 1e-12)
    gamma[0], gamma[-1] = 0.0, 1.0
    return WarpingGrid(p0.t, gamma), lam
