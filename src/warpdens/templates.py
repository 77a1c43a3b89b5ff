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

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import ConstraintError, ShapeError
from .geometry import DEFAULT_GRID_SIZE, WarpingGrid, unit_grid

Piece = Literal["inc", "dec", "flat"]

#: Relative tolerance for critical-point detection on grid densities; the
#: search's visible antimode gap (``_Objective.rel_gap``) is derived from it.
MODE_TOL = 1e-6


@dataclass(frozen=True)
class ShapeSpec:
    """An ordered sequence of monotone pieces, optionally with free boundaries.

    The height-ratio vector sets every critical level except the first
    mode, which is pinned at 1, and the boundary antimodes, which sit at
    the template floor omega.  With ``free_boundaries`` the boundary
    antimodes are set by it too; boundary modes always are.
    """

    pieces: tuple[Piece, ...]
    free_boundaries: bool = False

    def __post_init__(self):
        ps = tuple(self.pieces)
        if not ps:
            raise ShapeError("shape needs at least one piece")
        for p in ps:
            if p not in ("inc", "dec", "flat"):
                raise ShapeError(f"unknown piece kind {p!r}")
        for a, b in zip(ps, ps[1:]):
            if a == b:
                raise ShapeError(f"adjacent {a!r} pieces are not a legal shape")
        object.__setattr__(self, "pieces", ps)

    @classmethod
    def modes(cls, m: int) -> "ShapeSpec":
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

    def levels(self) -> list["_Level"]:
        """Merge knots joined by flat pieces into critical levels.

        Each level is classified as a local maximum ("high") or local
        minimum ("low") from the directions of the surrounding pieces.
        """
        groups: list[list[int]] = [[0]]
        for i, p in enumerate(self.pieces):
            if p == "flat":
                groups[-1].append(i + 1)
            else:
                groups.append([i + 1])
        out = []
        for g in groups:
            d_in = self.pieces[g[0] - 1] if g[0] > 0 else None
            d_out = self.pieces[g[-1]] if g[-1] < self.n_pieces else None
            d_in = None if d_in == "flat" else d_in
            d_out = None if d_out == "flat" else d_out
            if (d_in in (None, "inc")) and (d_out in (None, "dec")):
                role = "high"
            elif (d_in in (None, "dec")) and (d_out in (None, "inc")):
                role = "low"
            else:
                # monotone run through the level (only possible at all-flat ends)
                raise ShapeError("shape has an ill-defined critical level")
            out.append(_Level(tuple(g), role, g[0] == 0 or g[-1] == self.n_pieces))
        return out

    @property
    def n_modes(self) -> int:
        return sum(1 for lv in self.levels() if lv.role == "high")

    def first_mode(self) -> int:
        """Index of the first local maximum: its height is pinned at 1."""
        return next(i for i, lv in enumerate(self.levels()) if lv.role == "high")

    def free_levels(self) -> list[int]:
        """Indices of the levels the height-ratio vector sets, left to right."""
        first = self.first_mode()
        return [
            i
            for i, lv in enumerate(self.levels())
            if i != first
            and (lv.role == "high" or not lv.boundary or self.free_boundaries)
        ]

    def knot_levels(self) -> list[int]:
        """Index of each knot's critical level, left to right."""
        return [i for i, lv in enumerate(self.levels()) for _ in lv.knots]

    def n_lambda(self) -> int:
        """Length of the height-ratio vector for this shape."""
        return len(self.free_levels())


@dataclass(frozen=True)
class _Level:
    knots: tuple[int, ...]
    role: str  # "high" | "low"
    boundary: bool


def level_heights(shape: ShapeSpec, lam: np.ndarray, omega: float) -> np.ndarray:
    """Expand a height-ratio vector into one height per critical level.

    The first mode is 1, ``shape.free_levels()`` take lam in order and
    the remaining levels (boundary antimodes) sit at omega.
    """
    lam = np.atleast_1d(np.asarray(lam, float))
    free = shape.free_levels()
    if lam.size != len(free):
        raise ConstraintError(
            f"height-ratio vector has length {lam.size}, expected {len(free)}"
        )
    if np.any(lam <= 0):
        raise ConstraintError("height ratios must be strictly positive")
    heights = np.full(len(shape.levels()), float(omega))
    heights[shape.first_mode()] = 1.0
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
    omega: float = 1e-3,
    n: int = DEFAULT_GRID_SIZE,
) -> TemplateFunction:
    """Construct the template with equal-width pieces and the given heights.

    Raises ConstraintError when the heights are not consistent with the
    piece directions (the feasibility set of the height-ratio vector).
    """
    knot_heights = level_heights(shape, lam, omega)[shape.knot_levels()]
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
        if np.any(p < -1e-12):
            raise ShapeError("density values must be nonnegative")
        total = np.trapezoid(p, self.t)
        if abs(total - 1.0) > 1e-6:
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
    if isinstance(p, TemplateFunction):
        values = np.interp(w.gamma, p.knots, p.knot_heights)
        t = p.t
    else:
        values = np.interp(w.gamma, p.t, p.p)
        t = p.t
    return GridDensity.from_values(t, values)


def _critical_runs(p: np.ndarray):
    """Plateau-merged runs of strict slope sign: list of (sign, start, end).

    Differences below MODE_TOL * max|p| count as flat and merge into the
    neighboring runs.
    """
    tol = MODE_TOL * float(np.max(np.abs(p)))
    d = np.diff(p)
    sign = np.where(d > tol, 1, np.where(d < -tol, -1, 0))
    runs = []
    for i, s in enumerate(sign):
        if s == 0:
            continue
        if runs and runs[-1][0] == s:
            runs[-1][2] = i + 1
        else:
            runs.append([s, i, i + 1])
    return runs


def critical_points(p: GridDensity):
    """Interior and boundary extrema after plateau merging.

    Returns a list of (index, kind) with kind in {"max", "min"}; a flat
    plateau contributes a single extremum at its best grid point.
    """
    vals = np.asarray(p.p, float)
    runs = _critical_runs(vals)
    out = []
    if not runs:
        return out
    # boundary extremum when the density starts by falling / ends by rising
    if runs[0][0] == -1:
        out.append((int(np.argmax(vals[: runs[0][1] + 1])), "max"))
    elif runs[0][1] > 0:
        out.append((int(np.argmin(vals[: runs[0][1] + 1])), "min"))
    for (s1, _, e1), (s2, b2, _) in zip(runs, runs[1:]):
        segment = vals[e1 : b2 + 1]
        if s1 == 1 and s2 == -1:
            out.append((e1 + int(np.argmax(segment)), "max"))
        elif s1 == -1 and s2 == 1:
            out.append((e1 + int(np.argmin(segment)), "min"))
    n = vals.size
    if runs[-1][0] == 1:
        tail = vals[runs[-1][2] :]
        base = runs[-1][2]
        out.append((base + int(np.argmax(tail)) if tail.size else n - 1, "max"))
    elif runs[-1][2] < n - 1:
        tail = vals[runs[-1][2] :]
        out.append((runs[-1][2] + int(np.argmin(tail)), "min"))
    return out


def _refined_height(vals: np.ndarray, i: int) -> float:
    """Quadratic-vertex estimate of an extremum's height at grid index i."""
    if not 0 < i < vals.size - 1:
        return float(vals[i])
    a, b, c = vals[i - 1], vals[i], vals[i + 1]
    curv = a - 2.0 * b + c
    if curv == 0.0:
        return float(b)
    offset = 0.5 * (a - c) / curv
    if abs(offset) > 1.0:
        return float(b)
    return float(b - 0.25 * (a - c) * offset)


def count_modes(p: GridDensity) -> int:
    """Number of local maxima, counting each plateau once."""
    return sum(1 for _, kind in critical_points(p) if kind == "max")


def height_ratios_of(p: GridDensity, refine: bool = False) -> np.ndarray:
    """Heights of interior critical points relative to the first mode.

    Ordered left to right, skipping the first mode itself (which defines
    the reference height).  With ``refine`` each extremum height comes
    from a quadratic vertex fit, which is far more accurate for smooth
    densities whose extrema fall between grid points.
    """
    n = p.p.size
    interior = [(i, kind) for i, kind in critical_points(p) if 0 < i < n - 1]
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
    levels = shape.levels()
    if levels[0].role == "high" or levels[-1].role == "high":
        raise ShapeError(
            "constructive reconstruction needs a shape that rises from its left "
            "end and falls to its right end (no boundary mode)"
        )
    vals = np.asarray(p0.p, float)
    n = vals.size
    interior = [(i, k) for i, k in critical_points(p0) if 0 < i < n - 1]
    expected = [lv.role for lv in levels][1:-1]
    got = ["high" if k == "max" else "low" for _, k in interior]
    if got != expected:
        raise ShapeError(
            f"critical structure mismatch: found {got}, shape needs {expected}"
        )
    idx = [0] + [i for i, _ in interior] + [n - 1]
    first_max = next(k for k, (_, kind) in enumerate(interior) if kind == "max")
    h1 = vals[interior[first_max][0]]
    lam = np.array(
        [vals[i] / h1 for k, (i, _) in enumerate(interior) if k != first_max]
    )

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
