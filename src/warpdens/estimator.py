"""Joint maximum-likelihood estimation of the warp coefficients and heights.

The density estimate is the warped, renormalized template
g(gamma_c(t)) / integral g(gamma_c(t)) dt, maximized jointly over the
coefficient vector c (restricted to the ball of radius 2*pi) and the
height-ratio vector.  Optimization is multi-start L-BFGS-B on an
unconstrained reparameterization, driven by the analytic gradient of the
likelihood; the basis dimension J is swept and the best AIC wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import (
    ConstraintError,
    DegenerateSampleError,
    DomainError,
    OptimizationError,
)
from .geometry import (
    COEFF_RADIUS,
    DEFAULT_GRID_SIZE,
    _THETA_FLOOR,
    CoefficientVector,
    coeffs_to_warp,  # noqa: F401  unused; the traced benchmark wraps this name
    fourier_basis,
)
from .templates import (
    MODE_TOL,
    GridDensity,
    ShapeSpec,
    _reference_level,
    build_template,
    count_modes,
)

_AIC_TIE = 1e-9
_U_CLIP = 30.0  # height parameters saturate here (exp(30) ~ 1e13)
_VISIBLE = 4.0  # antimode depth in multiples of the least rise count_modes sees
_PROJECTED_RADIUS = COEFF_RADIUS - 1e-6


@dataclass(frozen=True)
class FitConfig:
    """Settings for a density fit."""

    shape: ShapeSpec
    j_min: int = 2
    j_max: int = 10
    j_step: int = 2
    omega: float = 1e-3
    restarts: int = 16
    n_grid: int = DEFAULT_GRID_SIZE
    seed: int = 0
    support: tuple[float, float] | None = None  # None => estimate from data
    maxiter: int = 400

    def __post_init__(self):
        if self.j_min < 1 or self.j_min > self.j_max:
            raise ConstraintError("need 1 <= j_min <= j_max")
        if self.j_step < 1:
            raise ConstraintError("j_step must be >= 1")
        if self.restarts < 1:
            raise ConstraintError("restarts must be >= 1")
        if self.maxiter < 1:
            raise ConstraintError("maxiter must be >= 1")
        if self.n_grid < 5:
            raise ConstraintError("n_grid must be >= 5")
        if not 0.0 < self.omega < 1.0:
            raise ConstraintError("omega must satisfy 0 < omega < 1")

    def j_values(self) -> list[int]:
        return list(range(self.j_min, self.j_max + 1, self.j_step))


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
    n_eff: float | None = None
    bandwidth: float | None = None
    x0: float | None = None

    def pdf(self, x) -> np.ndarray:
        """Evaluate the density in data units (zero outside the support)."""
        a, b = self.support
        x = np.asarray(x, float)
        z = (x - a) / (b - a)
        out = np.interp(z, self.t, self.p, left=0.0, right=0.0) / (b - a)
        out = np.where((z < 0) | (z > 1), 0.0, out)
        return out

    def unit_density(self) -> GridDensity:
        return GridDensity(self.t, self.p)


def estimate_support(x: np.ndarray) -> tuple[float, float]:
    """Data-driven effective support: min/max widened by sd/sqrt(n)."""
    x = np.asarray(x, float)
    n = x.size
    if n < 2:
        raise DegenerateSampleError("need at least 2 observations")
    sd = float(np.std(x, ddof=1))
    if sd <= 0:
        raise DegenerateSampleError("sample has zero spread")
    pad = sd / math.sqrt(n)
    return float(np.min(x) - pad), float(np.max(x) + pad)


def rescale_to_unit(x: np.ndarray, a: float, b: float) -> np.ndarray:
    if not a < b:
        raise DomainError("support must satisfy A < B")
    x = np.asarray(x, float)
    if np.any(x < a) or np.any(x > b):
        raise DomainError("observations outside the support")
    return (x - a) / (b - a)


class _Objective:
    """The likelihood kernel, and its gradient in search coordinates.

    ``forward`` maps a feasible (c, knot heights) to the log-likelihood
    and the normalized grid density: v = c B, the sphere exponential map,
    gamma as the cumulative trapezoid integral of q^2, the template at the
    samples and on the grid, and the trapezoid normalizer.  Every
    likelihood and density this module reports or checks comes from it,
    so the reported likelihood is the function L-BFGS-B maximized.

    ``value_and_grad`` adds the reverse pass in theta = (c, u).  The
    coefficient vector c is pulled back onto the feasible ball by radial
    projection when it leaves it.  Mode heights enter as exp(u) (the
    first mode stays pinned at 1).  Each antimode is sigmoid(u) * (cap -
    gap), where cap is the lower of its neighboring mode heights and gap
    is _VISIBLE times the smallest rise over one piece that
    ``count_modes`` resolves on the grid, relative to the tallest mode (at
    most cap / 2).  Every search point thus satisfies the height-ratio
    inequalities, and a saturated antimode stays visible on the grid.
    """

    def __init__(
        self,
        z: np.ndarray,
        shape: ShapeSpec,
        omega: float,
        j: int,
        n_grid: int,
        weights: np.ndarray | None,
    ):
        self.j = j
        self.h = 1.0 / (n_grid - 1)
        basis = fourier_basis(j, n_grid)
        self.t, self.b = basis.t, basis.b
        self.trap = np.full(n_grid, self.h)  # trapezoid quadrature weights
        self.trap[[0, -1]] *= 0.5
        self.n_pieces = shape.n_pieces
        self.rel_gap = _VISIBLE * MODE_TOL * (n_grid - 1) / shape.n_pieces
        levels = shape.levels()
        self.level_of_knot = np.empty(shape.n_pieces + 1, dtype=int)
        for li, lv in enumerate(levels):
            for kn in lv.knots:
                self.level_of_knot[kn] = li
        direction = np.array(
            [1 if p == "inc" else -1 if p == "dec" else 0 for p in shape.pieces]
        )
        self.nonflat = direction != 0
        self.direction = direction[self.nonflat]

        ref = _reference_level(levels)
        self.base_heights = np.full(len(levels), omega)
        self.base_heights[ref] = 1.0
        self.slots = [  # (level_index, role) for free levels, left to right
            (i, lv.role)
            for i, lv in enumerate(levels)
            if i != ref and (shape.free_boundaries or not lv.boundary)
        ]
        self.slot_levels = np.array([i for i, _ in self.slots], dtype=int)
        self.modes = [
            (k, i) for k, (i, role) in enumerate(self.slots) if role == "high"
        ]
        self.antimodes = [
            (k, i, [n for n in (i - 1, i + 1) if 0 <= n < len(levels)])
            for k, (i, role) in enumerate(self.slots)
            if role == "low"
        ]
        self.n_params = j + len(self.slots)

        # fixed sample positions in grid coordinates
        z = np.asarray(z, float)
        zi = np.clip(z * (n_grid - 1), 0.0, n_grid - 1 - 1e-12)
        self.z_lo = zi.astype(int)
        self.z_frac = zi - self.z_lo
        self.wt = np.ones(z.size) if weights is None else z.size * np.asarray(weights)
        self.wt_sum = float(self.wt.sum())

    def heights(self, u: np.ndarray):
        """Level heights from the height parameters u.

        Also returns dh/du per slot and, per antimode, (level, capping
        level, dh/dcap, tallest level, dh/dtallest) for the reverse pass.
        """
        u = np.clip(u, -_U_CLIP, _U_CLIP)
        inside = np.abs(u) < _U_CLIP
        heights = self.base_heights.copy()
        dh_du = np.zeros(u.size)
        for k, i in self.modes:
            heights[i] = math.exp(u[k])
            dh_du[k] = heights[i] * inside[k]
        top = int(np.argmax(heights))  # antimodes are not set yet
        links = []
        for k, i, neighbors in self.antimodes:
            cap = min(neighbors, key=heights.__getitem__)
            sig = 1.0 / (1.0 + math.exp(-u[k]))
            gap = self.rel_gap * heights[top]
            if gap < 0.5 * heights[cap]:
                heights[i] = sig * (heights[cap] - gap)
                links.append((i, cap, sig, top, -sig * self.rel_gap))
            else:
                heights[i] = 0.5 * sig * heights[cap]
                links.append((i, cap, 0.5 * sig, top, 0.0))
            dh_du[k] = heights[i] * (1.0 - sig) * inside[k]
        return heights, dh_du, links

    def project(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """Radial projection of c onto the feasible ball, and the length of c."""
        c_len = float(np.linalg.norm(c))
        if c_len > COEFF_RADIUS:
            return c * (_PROJECTED_RADIUS / c_len), c_len
        return c, c_len

    def _template(self, kh: np.ndarray, x: np.ndarray):
        """Piecewise-linear template (equal-width knots) at x: the piece
        index, the position within it, d(template)/dx and the value."""
        s = np.clip(x * self.n_pieces, 0.0, self.n_pieces - 1e-12)
        k = s.astype(int)
        r = s - k
        rise = kh[k + 1] - kh[k]
        return k, r, self.n_pieces * rise, kh[k] + r * rise

    def forward(self, c: np.ndarray, kh: np.ndarray):
        """(loglik, normalized grid density, tape) at a feasible (c, knot
        heights); the tape holds what the reverse pass reuses."""
        v = c @ self.b
        nrm = math.sqrt(max(float(self.trap @ (v * v)), 0.0))
        curved = nrm >= _THETA_FLOOR
        sinc = math.sin(nrm) / nrm if curved else 1.0
        q = (math.cos(nrm) if curved else 1.0) + sinc * v
        qsq = q * q
        cum = np.empty_like(q)
        cum[0] = 0.0
        np.cumsum((qsq[1:] + qsq[:-1]) * (0.5 * self.h), out=cum[1:])
        total = cum[-1]
        gamma = cum / total
        lo, f = self.z_lo, self.z_frac
        gamma_z = gamma[lo] * (1.0 - f) + gamma[lo + 1] * f
        kz, rz, dz, gz = self._template(kh, gamma_z)
        kg, rg, dg, warped = self._template(kh, gamma)
        norm = float(self.trap @ warped)  # heights, hence gz and norm, are > 0
        ll = float(self.wt @ np.log(gz)) - self.wt_sum * math.log(norm)
        tape = (v, nrm, sinc, q, total, gamma, kz, rz, dz, gz, kg, rg, dg, norm)
        return ll, warped / norm, tape

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """(-loglik, -d loglik / d theta); (inf, 0) off the feasible set."""
        j = self.j
        c, c_len = self.project(theta[:j])
        heights, dh_du, links = self.heights(theta[j:])
        kh = heights[self.level_of_knot]
        if np.any(np.diff(kh)[self.nonflat] * self.direction <= 0):
            return math.inf, np.zeros_like(theta)
        ll, _, tape = self.forward(c, kh)
        v, nrm, sinc, q, total, gamma, kz, rz, dz, gz, kg, rg, dg, norm = tape

        # reverse: template heights, then gamma back through the warp
        gz_bar = self.wt / gz
        warped_bar = (-self.wt_sum / norm) * self.trap
        m = kh.size
        kh_bar = (
            np.bincount(kz, gz_bar * (1.0 - rz), m)
            + np.bincount(kz + 1, gz_bar * rz, m)
            + np.bincount(kg, warped_bar * (1.0 - rg), m)
            + np.bincount(kg + 1, warped_bar * rg, m)
        )
        h_bar = np.bincount(self.level_of_knot, kh_bar, heights.size)
        for i, cap, dh_dcap, top, dh_dtop in links:
            h_bar[cap] += h_bar[i] * dh_dcap
            h_bar[top] += h_bar[i] * dh_dtop
        u_bar = h_bar[self.slot_levels] * dh_du

        gz_pos_bar = gz_bar * dz
        n = gamma.size
        lo, f = self.z_lo, self.z_frac
        gamma_bar = (
            warped_bar * dg
            + np.bincount(lo, gz_pos_bar * (1.0 - f), n)
            + np.bincount(lo + 1, gz_pos_bar * f, n)
        )
        cum_bar = gamma_bar / total
        cum_bar[-1] -= float(gamma_bar @ gamma) / total
        seg_bar = np.cumsum(cum_bar[:0:-1])[::-1] * (0.5 * self.h)
        qsq_bar = np.zeros(n)
        qsq_bar[:-1] = seg_bar
        qsq_bar[1:] += seg_bar
        q_bar = 2.0 * q * qsq_bar
        v_bar = sinc * q_bar
        if nrm >= _THETA_FLOOR:
            nrm_bar = -math.sin(nrm) * float(q_bar.sum()) + (
                (math.cos(nrm) - sinc) / nrm
            ) * float(q_bar @ v)
            v_bar += (nrm_bar / nrm) * self.trap * v
        c_bar = self.b @ v_bar
        if c_len > COEFF_RADIUS:
            unit = theta[:j] / c_len
            c_bar = (_PROJECTED_RADIUS / c_len) * (c_bar - unit * float(unit @ c_bar))
        return -ll, -np.concatenate((c_bar, u_bar))


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
    kh = build_template(cfg.shape, lam, omega=cfg.omega, n=cfg.n_grid).knot_heights
    obj = _Objective(z, cfg.shape, cfg.omega, c.size, cfg.n_grid, weights)
    ll, p, _ = obj.forward(c, kh)
    return ll, GridDensity(obj.t.copy(), p)  # obj.t is the cached basis grid


def log_likelihood(
    z: np.ndarray,
    c: CoefficientVector,
    lam: np.ndarray,
    cfg: FitConfig,
    weights: np.ndarray | None = None,
) -> float:
    """Log-likelihood of unit-interval samples under the warped template.

    This is the function the fit maximizes, with gamma integrated by the
    cumulative trapezoid rule.  With ``weights`` (summing to 1) the
    weighted form n * sum(w_i log p_i) is used, which reduces to the plain
    sum for uniform weights.
    """
    cc = np.asarray(c.c, float)
    if np.linalg.norm(cc) > COEFF_RADIUS + 1e-9:
        raise ConstraintError("coefficient vector outside the feasible ball")
    return _kernel(np.asarray(z, float), cc, lam, cfg, weights)[0]


def _random_start(obj: _Objective, rng: np.random.Generator) -> np.ndarray:
    theta = np.zeros(obj.n_params)
    direction = rng.standard_normal(obj.j)
    direction /= max(np.linalg.norm(direction), 1e-12)
    radius = (math.pi / 2.0) * rng.uniform() ** (1.0 / obj.j)
    theta[: obj.j] = radius * direction
    for k, (_, role) in enumerate(obj.slots):
        frac = math.exp(rng.uniform(math.log(0.1), 0.0))  # log-uniform(0.1, 1)
        if role == "high":
            theta[obj.j + k] = math.log(0.5 + frac)
        else:
            s = min(frac, 1.0 - 1e-9)
            theta[obj.j + k] = math.log(s / (1.0 - s))
    return theta


def fit_fixed_j(
    z: np.ndarray,
    j: int,
    cfg: FitConfig,
    seed: int,
    weights: np.ndarray | None = None,
) -> tuple[CoefficientVector, np.ndarray, float]:
    """Best local optimum across multi-start L-BFGS-B runs.

    Each run follows the analytic likelihood gradient.  Start 0 is
    deterministic (identity warp, midpoint-feasible heights); the remaining
    starts draw from seeded per-restart streams.  Ties in the objective
    resolve to the earliest restart.
    """
    z = np.asarray(z, float)
    obj = _Objective(z, cfg.shape, cfg.omega, j, cfg.n_grid, weights)

    starts = [np.zeros(obj.n_params)]
    for r in range(1, cfg.restarts + 1):
        rng = np.random.default_rng([seed, r])
        starts.append(_random_start(obj, rng))

    best = None
    for r, theta0 in enumerate(starts):
        res = minimize(
            obj.value_and_grad,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": cfg.maxiter},
        )
        if not math.isfinite(res.fun):
            continue
        if best is None or res.fun < best[0]:
            best = (float(res.fun), res.x, r)
    if best is None:
        raise OptimizationError(f"all {len(starts)} starts failed at J={j}")

    theta = best[1]
    c = obj.project(theta[:j])[0]
    heights = obj.heights(theta[j:])[0]
    lam, kh = heights[obj.slot_levels], heights[obj.level_of_knot]
    # shape guarantee: shrink the warp until the grid density shows the
    # requested critical structure
    n_modes = cfg.shape.n_modes
    scale = 1.0
    while True:
        ll, p = obj.forward(c * scale, kh)[:2]
        if count_modes(GridDensity(obj.t, p)) == n_modes:
            return CoefficientVector(c * scale), lam, ll
        if scale == 0.0:
            raise OptimizationError(
                f"J={j}: the unwarped template at lambda={lam} does not show "
                f"{n_modes} modes on the grid"
            )
        scale *= 0.7
        if scale < 1e-8:
            scale = 0.0


def fit(
    x: np.ndarray,
    cfg: FitConfig,
    weights: np.ndarray | None = None,
) -> DensityEstimate:
    """Full fit: support, rescaling, J sweep, AIC selection.

    A J at which ``fit_fixed_j`` finds no candidate with the requested
    shape drops out of the AIC comparison.
    """
    x = np.asarray(x, float)
    if x.size < 10:
        raise DegenerateSampleError(f"need at least 10 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DegenerateSampleError("samples must be finite (no NaN or inf)")
    support = cfg.support if cfg.support is not None else estimate_support(x)
    z = rescale_to_unit(x, *support)

    best = None
    for j in cfg.j_values():
        try:
            c, lam, ll = fit_fixed_j(z, j, cfg, seed=cfg.seed, weights=weights)
        except OptimizationError:
            continue  # no candidate with the requested shape at this J
        k = j + lam.size
        aic = 2.0 * k - 2.0 * ll
        if best is None or aic < best[0] - _AIC_TIE:
            best = (aic, j, c, lam, ll)
    if best is None:
        raise OptimizationError(f"no J in {cfg.j_values()} gave a fit")
    aic, j, c, lam, ll = best
    dens = _kernel(z, c.c, lam, cfg, weights)[1]
    n_eff = None
    if weights is not None:
        n_eff = float(1.0 / np.sum(weights**2))
    return DensityEstimate(
        t=dens.t,
        p=dens.p,
        c_hat=c,
        lambda_hat=lam,
        j=j,
        loglik=ll,
        aic=aic,
        support=tuple(float(s) for s in support),
        n_eff=n_eff,
    )
