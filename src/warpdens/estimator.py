"""Joint maximum-likelihood estimation of the warp coefficients and heights.

The density estimate is the warped, renormalized template
g(gamma_c(t)) / integral g(gamma_c(t)) dt, maximized jointly over the
coefficient vector c and the height-ratio vector.  Optimization is
multi-start BFGS (``bfgs.minimize``, full memory, weak-Wolfe line search,
L-BFGS-B's stopping rules) on an unconstrained reparameterization, driven by
the analytic gradient of the likelihood; the basis dimension J is swept and
the best AIC wins.  Each result's c is reported at the copy of its warp in
the ball ||c|| <= pi/2 (``_fold``).
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DegenerateSampleError, DomainError
from .errors import OptimizationError, integer, interval, real_array, sample, spread
from .geometry import (
    DEFAULT_GRID_SIZE,
    _THETA_FLOOR,
    CoefficientVector,
    coeffs_to_srsf,
    coeffs_to_warp,  # noqa: F401  unused; the traced benchmark wraps this name
    fourier_basis,
    min_grid_size,
    warp_integral,
)
from .bfgs import minimize
from .templates import (
    MAX_PIECES,
    MODE_TOL,
    GridDensity,
    ShapeSpec,
    build_template,
    count_modes,
    level_heights,
)

_AIC_TIE = 1e-9
_U_CLIP = 30.0  # height parameters are clipped here (sigmoid(-30) ~ 1e-13)
_VISIBLE = 4.0  # antimode depth in multiples of the least rise count_modes sees
J_STEP = 2  # the J sweep adds one sin/cos pair at a time
MAXITER = 400  # BFGS iterations per start
OMEGA = 1e-3  # template floor: the height of the boundary antimodes


@dataclass(frozen=True)
class FitConfig:
    """Settings for a density fit: J runs ``J_STEP``, 2 ``J_STEP``, ..., j_max,
    each start runs at most ``MAXITER`` iterations, and the template floor
    ``OMEGA`` and the ``DEFAULT_GRID_SIZE``-point grid are fixed."""

    shape: ShapeSpec
    j_max: int = 10
    restarts: int = 16
    seed: int = 0
    support: tuple[float, float] | None = None  # two floats; None => from the data

    def __post_init__(self):
        _basis_size(self.j_max, "j_max")
        integer(self.restarts, ConstraintError, "restarts", 1)
        integer(self.seed, ConstraintError, "seed", 0)
        if not isinstance(self.shape, ShapeSpec):
            raise ConstraintError(f"shape must be a ShapeSpec, got {self.shape!r}")
        if self.shape.n_pieces > MAX_PIECES:
            raise ConstraintError(
                f"a shape of {self.shape.n_pieces} pieces has pieces narrower than"
                f" one step of the {DEFAULT_GRID_SIZE}-point grid; at most"
                f" {MAX_PIECES} fit"
            )
        if self.support is not None:
            object.__setattr__(self, "support", interval(self.support, ConstraintError))

    def j_values(self) -> list[int]:
        return list(range(J_STEP, self.j_max + 1, J_STEP))


def _basis_size(j, name: str) -> int:
    """``j``, a basis size a fit searches at: an integer of at least
    ``J_STEP`` whose Fourier basis the grid resolves; else ConstraintError."""
    integer(j, ConstraintError, name, J_STEP)
    if min_grid_size(j) > DEFAULT_GRID_SIZE:
        raise ConstraintError(f"need {J_STEP} <= {name} <= {DEFAULT_GRID_SIZE - 2}")
    return j


@dataclass(frozen=True)
class DensityEstimate:
    """A fitted density on its estimated support."""

    t: np.ndarray  # unit-interval grid
    p: np.ndarray  # density values in unit coordinates
    c_hat: CoefficientVector
    lambda_hat: np.ndarray
    j: int
    loglik: float
    aic: float
    support: tuple[float, float]
    n_eff: float | None = None  # n_eff, bandwidth and x0 are set by fit_conditional
    bandwidth: float | None = None
    x0: float | None = None

    def pdf(self, x) -> np.ndarray:
        """Evaluate the density in data units (zero outside the support)."""
        a, b = self.support
        x = real_array(x, DomainError, "points")
        z = (x - a) / (b - a)
        return np.interp(z, self.t, self.p, left=0.0, right=0.0) / (b - a)

    def unit_density(self) -> GridDensity:
        return GridDensity(self.t, self.p)


def estimate_support(x: np.ndarray) -> tuple[float, float]:
    """Data-driven effective support: min/max widened by sd/sqrt(n)."""
    x = sample(x, DegenerateSampleError, "samples", 2)
    pad = spread(x, DegenerateSampleError, "samples") / math.sqrt(x.size)
    return float(np.min(x) - pad), float(np.max(x) + pad)


def rescale_to_unit(x: np.ndarray, a: float, b: float) -> np.ndarray:
    a, b = interval((a, b), DomainError)
    x = sample(x, DomainError, "observations", 0)
    if np.any(x < a) or np.any(x > b):
        raise DomainError("observations outside the support")
    return (x - a) / (b - a)


class _Objective:
    """The binned likelihood kernel, and its gradient in search coordinates.

    ``forward`` maps (c, knot heights) to the log-likelihood
    W . log(val) - n log(norm) and the normalized grid density: v = c B,
    the sphere exponential map at angle ||v|| = ||c|| (``coeffs_to_srsf``),
    gamma as the cumulative trapezoid integral of q^2 (``warp_integral``), the template
    val on the grid and its trapezoid integral norm.  W holds the sample
    weights, linearly binned onto the grid once (Fan & Marron, 1994), so
    log p is interpolated linearly between grid points and a sample in a
    trough narrower than a grid step scores above its exact value.  Every
    likelihood and density this module reports or checks comes from
    ``forward``, so the reported likelihood is the function the search
    maximized.

    ``value_and_grad`` adds the reverse pass in theta = (c, u), for any J =
    len(c) up to ``j_max``: the Fourier basis is nested, so J's basis is the
    first J rows of ``j_max``'s, and one objective serves a fit.  Every c
    gives a warp, so c is unconstrained; ``_fold`` picks one copy of each
    warp.  The heights follow ``ShapeSpec``'s
    layout: the first mode is 1, the free levels come from u, and the
    other levels (boundary antimodes) sit at ``OMEGA``.  Each free mode is
    exp(span * tanh(u / span)), within 1 / (2 rel_gap) of the first mode
    and of the others; every mode is free or the first one.  Each free
    antimode is sigmoid(u) * (cap - gap): cap is the lower neighboring
    mode, and gap is rel_gap times the tallest mode, _VISIBLE times the
    least rise over one piece that ``count_modes`` resolves.  The mode
    bound keeps every cap at or above 2 gap and, up to 2,046 pieces (more
    than ``FitConfig`` accepts), every mode gap above the boundary
    antimodes at ``OMEGA``: each u gives a visible template.

    One evaluation is a few dozen numpy calls on grid-sized arrays, bound
    by the cost of each call: the height map and the chain from per-piece
    sums to the knot heights run on Python floats.
    """

    def __init__(
        self,
        z: np.ndarray,
        shape: ShapeSpec,
        j_max: int,
        weights: np.ndarray | None,
    ):
        n_grid = DEFAULT_GRID_SIZE
        basis = fourier_basis(j_max, n_grid)
        self.t, self.b = basis.t, basis.b
        self.trap = np.full(n_grid, 1.0 / (n_grid - 1))  # trapezoid weights
        self.trap[[0, -1]] *= 0.5
        self.n_pieces = shape.n_pieces
        self.rel_gap = _VISIBLE * MODE_TOL * (n_grid - 1) / shape.n_pieces
        levels = shape.levels
        self.knot_levels = shape.knot_levels
        self.free = shape.free_levels  # the level of each height parameter
        # free levels start at OMEGA, below the first mode, so ``heights``
        # finds the tallest mode before it sets the antimodes
        self.base_heights = level_heights(
            shape, [OMEGA] * len(self.free), OMEGA
        ).tolist()
        self.modes = [  # (parameter, level)
            (k, i) for k, i in enumerate(self.free) if levels[i].role == "high"
        ]
        # free modes lie within exp(+-span) of 1 (span > 0 as rel_gap < 0.5); span
        # halves with two or more, so they stay within 1 / (2 rel_gap) of each other
        # and, up to 2,046 pieces, rel_gap above OMEGA; a lone one needs its own cap
        self.span = math.log(0.5 / self.rel_gap) / min(2, max(1, len(self.modes)))
        if len(self.modes) < 2:
            self.span = min(self.span, -math.log(OMEGA + self.rel_gap))
        last = len(levels) - 1
        self.antimodes = [  # (parameter, level, left and right neighbor levels)
            (k, i, i - 1 if i > 0 else 1, i + 1 if i < last else last - 1)
            for k, i in enumerate(self.free)
            if levels[i].role == "low"
        ]

        # linear binning: each sample's weight goes to its two grid neighbors
        z = np.asarray(z, float)
        zi = np.clip(z * (n_grid - 1), 0.0, n_grid - 1 - 1e-12)
        lo = zi.astype(np.intp)
        frac = zi - lo
        wt = np.ones(z.size) if weights is None else z.size * np.asarray(weights)
        self.grid_wt = np.bincount(lo, wt * (1.0 - frac), n_grid)
        self.grid_wt += np.bincount(lo + 1, wt * frac, n_grid)
        self.wt_sum = float(wt.sum())

    def heights(self, u: np.ndarray):
        """Level heights (an ndarray) from the height parameters u.

        Also returns dh/du per parameter and, per antimode, (level, capping
        level, dh/dcap, tallest level, dh/dtallest) for the reverse pass.
        """
        u = u.tolist()
        inside = [-_U_CLIP < uk < _U_CLIP for uk in u]
        u = [x if ok else min(max(x, -_U_CLIP), _U_CLIP) for x, ok in zip(u, inside)]
        heights = self.base_heights.copy()
        dh_du = [0.0] * len(u)
        for k, i in self.modes:
            th = math.tanh(u[k] / self.span)
            heights[i] = math.exp(self.span * th)
            dh_du[k] = heights[i] * (1.0 - th * th) * inside[k]
        top = heights.index(max(heights))  # antimodes are not set yet
        links = []
        for k, i, left, right in self.antimodes:
            cap = left if heights[left] <= heights[right] else right
            sig = 1.0 / (1.0 + math.exp(-u[k]))
            heights[i] = sig * (heights[cap] - self.rel_gap * heights[top])
            links.append((i, cap, sig, top, -sig * self.rel_gap))
            dh_du[k] = heights[i] * (1.0 - sig) * inside[k]
        return np.array(heights), dh_du, links

    def forward(self, c: np.ndarray, kh):
        """(loglik, normalized grid density) at (c, knot heights)."""
        ll, tape = self._tape(c, kh)
        return ll, tape[-2] / tape[-1]

    def _tape(self, c: np.ndarray, kh):
        """(loglik, what the reverse pass reuses); kh is a list or an array."""
        pieces = self.n_pieces
        q, nrm, sinc, v = coeffs_to_srsf(c, self.b)
        gamma, total = warp_integral(q * q)

        # piecewise-linear template on the grid, positive with the knot
        # heights: kh[k] + frac * slope[k] on piece k, with frac =
        # pieces * gamma - k; gamma <= 1, and the extra piece reads kh[pieces]
        slope = [kh[i + 1] - kh[i] for i in range(pieces)]
        lines = np.array(slope + slope[-1:] + list(kh))
        frac = gamma * pieces
        k = frac.astype(np.intp)
        frac -= k
        sk = lines[: pieces + 1][k]
        val = frac * sk
        val += lines[pieces + 1 :][k]
        norm = float(self.trap @ val)  # heights, hence val and norm, are > 0
        ll = float(self.grid_wt @ np.log(val)) - self.wt_sum * math.log(norm)
        return ll, (v, nrm, sinc, q, total, gamma, frac, k, sk, val, norm)

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """(-loglik, -d loglik / d theta), finite as every height is positive."""
        j, pieces = theta.size - len(self.free), self.n_pieces
        c = theta[:j]
        heights, dh_du, links = self.heights(theta[j:])
        heights = heights.tolist()
        kh = [heights[i] for i in self.knot_levels]
        ll, (v, nrm, sinc, q, total, gamma, frac, k, sk, val, norm) = self._tape(c, kh)

        # reverse: per-piece sums of the template's adjoint give the knot
        # heights (d/dkh[k] = 1 - frac, d/dkh[k+1] = frac on piece k)
        wbar = self.grid_wt / val
        wbar -= self.trap * (self.wt_sum / norm)
        w_sum = np.bincount(k, wbar, pieces + 1).tolist()
        wf_sum = np.bincount(k, wbar * frac, pieces + 1).tolist()
        kh_bar = [w - wf for w, wf in zip(w_sum, wf_sum)]
        for i in range(pieces):
            kh_bar[i + 1] += wf_sum[i]
        h_bar = [0.0] * len(heights)
        for kn, li in enumerate(self.knot_levels):
            h_bar[li] += kh_bar[kn]
        for i, cap, dh_dcap, top, dh_dtop in links:
            h_bar[cap] += h_bar[i] * dh_dcap
            h_bar[top] += h_bar[i] * dh_dtop
        u_grad = [-h_bar[i] * d for i, d in zip(self.free, dh_du)]

        # then gamma back through the warp; gamma_bar = d loglik / d s, and
        # s = pieces * gamma, gamma = cum / total fold into ``scale``
        gamma_bar = wbar * sk
        # d/dqsq[i] = sum of cum_bar over the cumulative sums that hold
        # segment i-1 or segment i; cum[-1] also divides every gamma
        seg = np.zeros(gamma.size + 1)
        np.add.accumulate(gamma_bar[:0:-1], out=seg[-2:0:-1])
        seg[1:-1] -= float(gamma_bar @ gamma)
        qq_bar = q * (seg[1:] + seg[:-1])
        scale = -2.0 * pieces / total  # q_bar = scale * qq_bar, for -loglik
        c_grad = self.b[:j] @ ((scale * sinc) * qq_bar)
        if nrm >= _THETA_FLOOR:
            nrm_bar = scale * (
                -math.sin(nrm) * float(qq_bar.sum())
                + (math.cos(nrm) - sinc) / nrm * float(qq_bar @ v)
            )
            c_grad += c * (nrm_bar / nrm)
        return -ll, np.concatenate((c_grad, u_grad))


def _kernel(
    z: np.ndarray,
    c: np.ndarray,
    lam: np.ndarray,
    cfg: FitConfig,
    weights: np.ndarray | None,
) -> tuple[float, GridDensity]:
    """(loglik, grid density) of the likelihood kernel at (c, lambda).

    ``build_template`` rejects an infeasible lambda with ConstraintError.
    """
    kh = build_template(cfg.shape, lam, omega=OMEGA, n=DEFAULT_GRID_SIZE).knot_heights
    obj = _Objective(z, cfg.shape, c.size, weights)
    ll, p = obj.forward(c, kh)
    return ll, GridDensity(obj.t, p)


def _weighted_sample(x, weights, least: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The sample and weights that ``fit`` and ``log_likelihood`` take."""
    x = sample(x, DegenerateSampleError, "samples", least)
    if weights is not None:
        weights = sample(weights, DomainError, "weights", 0)
        if weights.size != x.size or np.any(weights < 0):
            raise DomainError("weights must be non-negative, one weight per sample")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise DomainError(f"weights must sum to 1, got {float(weights.sum())}")
    return x, weights


def _unit_sample(z, weights, least: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The unit-interval sample and weights that ``fit_fixed_j`` and
    ``log_likelihood`` take."""
    z, weights = _weighted_sample(z, weights, least)
    if np.any((z < 0.0) | (z > 1.0)):
        raise DomainError("unit-interval samples must lie in [0, 1]")
    return z, weights


def log_likelihood(
    z: np.ndarray,
    c: CoefficientVector,
    lam: np.ndarray,
    cfg: FitConfig,
    weights: np.ndarray | None = None,
) -> float:
    """Binned log-likelihood of unit-interval samples under the warped template.

    This is the function the fit maximizes (see ``_Objective``): log p is
    interpolated linearly between the ``DEFAULT_GRID_SIZE`` grid points (linear
    binning, Fan & Marron 1994), so a sample in a trough narrower than a
    grid step scores too high.  With ``weights`` (summing to 1) the weighted
    form n * sum(w_i log p_i) is used.  Samples must lie in [0, 1].
    """
    z, weights = _unit_sample(z, weights, 0)
    if not isinstance(c, CoefficientVector):
        raise DomainError(f"c must be a CoefficientVector, got {type(c).__name__}")
    return _kernel(z, c.checked(), lam, cfg, weights)[0]


def _fold(c: np.ndarray) -> np.ndarray:
    """The copy of c's warp in the ball ||c|| <= pi/2, where each warp has one.

    gamma depends on q^2 only, and with r = ||c|| both c (r + pi) / r and
    -c (pi - r) / r negate q; ||v|| = ||c|| as the basis is orthonormal.
    """
    r = math.sqrt(float(c @ c))
    if r <= math.pi / 2.0:
        return c
    m = math.fmod(r, math.pi)
    return c * ((m if m <= math.pi / 2.0 else m - math.pi) / r)


def _random_start(obj: _Objective, j: int, rng: np.random.Generator) -> np.ndarray:
    theta = np.zeros(j + len(obj.free))
    direction = rng.standard_normal(j)
    direction /= max(np.linalg.norm(direction), 1e-12)
    radius = (math.pi / 2.0) * rng.uniform() ** (1.0 / j)
    theta[:j] = radius * direction
    # log-uniform(0.1, 1), one draw per height parameter, left to right
    fracs = [math.exp(rng.uniform(math.log(0.1), 0.0)) for _ in obj.free]
    for k, _ in obj.modes:
        theta[j + k] = math.log(0.5 + fracs[k])
    for k, *_ in obj.antimodes:
        s = min(fracs[k], 1.0 - 1e-9)
        theta[j + k] = math.log(s / (1.0 - s))
    return theta


def _shares() -> int:
    """How many processes run a fit's searches: one per CPU in this
    process's affinity mask.  One, with no fork, where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, or while another Python thread
    runs: that thread may hold a lock that the child would wait on forever.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _run_starts(fun, starts: list[np.ndarray]) -> np.ndarray:
    """Row i holds the fun of the search of ``fun`` from ``starts[i]``,
    then its end point, zero-padded to the longest start.

    The rows live in one float64 table and the claims in one byte per
    row, both in anonymous mappings made before the fork, so the caller
    and S - 1 forked children share them, S = min(len(starts),
    ``_shares()``).  Every process runs one loop: claim the first
    unclaimed row and run its search, until none is left, so the rows are
    claimed in list order and no process waits while another has searches
    to run.  Two processes that claim one row at once both run it and write
    the same bytes.  A search writes its end point, then its fun, so a row
    whose fun is still NaN did not finish: once every child is reaped, the
    caller runs those rows itself.  A search is the same computation in
    any process, so the rows depend neither on S, nor on which process ran
    which search, nor on a child that raised or was killed, and an error
    that a search raises everywhere reaches the caller from its own run.
    If the caller raises, the children are killed before they are reaped,
    so the error does not wait for their searches.
    """
    n, shares = len(starts), min(len(starts), _shares())
    width = 1 + max(start.size for start in starts)
    table = np.frombuffer(mmap.mmap(-1, 8 * n * width)).reshape(n, width)
    table[:, 0] = np.nan
    claims = mmap.mmap(-1, n)

    def search(r):
        res = minimize(fun, starts[r], options={"maxiter": MAXITER})
        table[r, 1 : 1 + res.x.size] = res.x
        table[r, 0] = res.fun

    def work():
        while (r := claims.find(b"\0", 0)) >= 0:
            claims[r] = 1
            search(r)

    children = []
    try:
        for _ in range(shares - 1):
            pid = os.fork()
            if pid == 0:  # the child: run searches until none is left, then exit
                try:
                    work()
                finally:
                    os._exit(0)
            children.append(pid)
        work()
    except BaseException:
        import signal  # only on this path, so that importing warpdens does not load it

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in children:
            os.waitpid(pid, 0)
    for r in np.flatnonzero(np.isnan(table[:, 0])):
        search(r)
    return table.copy()


def _search(
    z: np.ndarray,
    js: list[int],
    cfg: FitConfig,
    weights: np.ndarray | None,
) -> tuple[_Objective, list[np.ndarray]]:
    """The objective, and per J of the ascending ``js`` its starts' rows
    (fun, end point) in start order.

    Start 0 is deterministic (identity warp, midpoint-feasible heights);
    start r >= 1 draws from the stream seeded by (``cfg.seed``, r).  Every
    J's starts go to one ``_run_starts`` queue in sweep order: J
    ascending, and start r in order within each J.
    """
    obj = _Objective(z, cfg.shape, js[-1], weights)
    starts = [
        _random_start(obj, j, np.random.default_rng([cfg.seed, r]))
        if r else np.zeros(j + len(obj.free))
        for j in js
        for r in range(cfg.restarts + 1)
    ]
    blocks = np.split(_run_starts(obj.value_and_grad, starts), len(js))
    return obj, [rows[:, : 1 + j + len(obj.free)] for j, rows in zip(js, blocks)]


def _select(
    obj: _Objective, j: int, rows: np.ndarray, n_modes: int
) -> tuple[CoefficientVector, np.ndarray, float, GridDensity]:
    """The best of one J's searches whose grid density has ``n_modes`` modes.

    ``count_modes`` checks the rows once each, best objective first (ties
    to the earliest start), and the first with the requested modes is
    returned with c folded into ||c|| <= pi/2 (``_fold``), and with the
    log-likelihood and grid density at that c.
    """
    for theta in rows[np.argsort(rows[:, 0], kind="stable"), 1:]:
        c = _fold(theta[:j])
        heights = obj.heights(theta[j:])[0]
        ll, p = obj.forward(c, heights[obj.knot_levels])
        dens = GridDensity(obj.t, p)
        if count_modes(dens) == n_modes:
            return CoefficientVector(c), heights[obj.free], ll, dens
    raise OptimizationError(f"J={j}: no restart's grid density has {n_modes} modes")


def fit_fixed_j(
    z: np.ndarray,
    j: int,
    cfg: FitConfig,
    weights: np.ndarray | None = None,
) -> tuple[CoefficientVector, np.ndarray, float, GridDensity]:
    """Best local optimum with the requested shape across BFGS runs at one
    J: the one-J case of ``fit``'s sweep.

    Each run is ``bfgs.minimize``, for at most ``MAXITER`` iterations, on
    the analytic likelihood gradient, from one of the ``restarts + 1``
    starts that ``_search`` makes; every height the search reaches is
    positive, so every run ends at a finite value.  The runs share the
    CPUs in this process's affinity mask (``_run_starts``), and the result
    depends neither on how many there are nor on a child that fails.
    ``_select`` picks the winner.  ``z`` holds at least 10 samples in
    [0, 1], with optional weights as ``fit`` takes them, and J is an
    integer that ``FitConfig`` would accept as ``j_max``.
    """
    z, weights = _unit_sample(z, weights, 10)
    j = _basis_size(j, "j")
    obj, [rows] = _search(z, [j], cfg, weights)
    return _select(obj, j, rows, cfg.shape.n_modes)


def fit(
    x: np.ndarray,
    cfg: FitConfig,
    weights: np.ndarray | None = None,
) -> DensityEstimate:
    """Full fit: support, rescaling, J sweep, AIC selection.

    Every J's searches run in one ``_run_starts`` queue, J ascending, so a
    fit forks once; each J's winner is then picked as ``fit_fixed_j``
    picks it, and the AIC loop reads the J blocks in the same order.
    ``weights``, if given, hold one finite, non-negative weight per sample
    and sum to 1.  A J at which no restart's grid density has the
    requested mode count drops out of the AIC comparison.
    """
    x, weights = _weighted_sample(x, weights, 10)
    a, b = cfg.support if cfg.support is not None else estimate_support(x)
    z = rescale_to_unit(x, a, b)

    best = None
    obj, blocks = _search(z, cfg.j_values(), cfg, weights)
    for j, rows in zip(cfg.j_values(), blocks):
        try:
            c, lam, ll, dens = _select(obj, j, rows, cfg.shape.n_modes)
        except OptimizationError:
            continue  # no candidate with the requested shape at this J
        k = j + lam.size
        aic = 2.0 * k - 2.0 * ll
        if best is None or aic < best[0] - _AIC_TIE:
            best = (aic, j, c, lam, ll, dens)
    if best is None:
        raise OptimizationError(f"no J in {cfg.j_values()} gave a fit")
    aic, j, c, lam, ll, dens = best
    return DensityEstimate(
        t=dens.t,
        p=dens.p,
        c_hat=c,
        lambda_hat=lam,
        j=j,
        loglik=ll,
        aic=aic,
        support=(a, b),
    )
