"""Conditional density estimation by locally weighted maximum likelihood.

The fit at a covariate location reuses the unconditional machinery with
Gaussian kernel weights over the nearest fraction of covariates and a
two-step adaptive bandwidth (pilot normal-reference bandwidth stretched
by the inverse square root of the pilot KDE at the location).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstraintError, DegenerateSampleError, DomainError, real_array
from . import estimator
from .estimator import DensityEstimate, FitConfig

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ConditionalFitConfig:
    base: FitConfig
    x0: float
    neighbor_fraction: float = 0.5

    def __post_init__(self):
        if not isinstance(self.base, FitConfig):
            raise ConstraintError(f"base must be a FitConfig, got {self.base!r}")
        for name in ("x0", "neighbor_fraction"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise DomainError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.neighbor_fraction <= 1.0:
            raise DomainError("neighbor_fraction must be in (0, 1]")
        if not math.isfinite(self.x0):
            raise DomainError("x0 must be finite")


def pilot_bandwidth(x: np.ndarray) -> float:
    """Normal-reference bandwidth 1.06 sd(x) n^(-1/5)."""
    x = real_array(x, DegenerateSampleError, "covariates")
    n = x.size
    if n < 10:
        raise DegenerateSampleError("need at least 10 covariates")
    sd = float(np.std(x, ddof=1))
    if sd <= 0:
        raise DegenerateSampleError("covariates have zero spread")
    return 1.06 * sd * n ** (-0.2)


def _gaussian_kde_at(x: np.ndarray, x0: float, h: float) -> float:
    u = (x0 - x) / h
    return float(np.mean(np.exp(-0.5 * u * u) / _SQRT_2PI) / h)


def adaptive_bandwidth(x: np.ndarray, x0: float, h: float) -> float:
    """Location bandwidth h / sqrt(pilot KDE at x0)."""
    k = _gaussian_kde_at(real_array(x, DomainError, "covariates"), x0, h)
    if k < 1e-12:
        raise DomainError(f"location {x0} lies outside the covariate support")
    return h / math.sqrt(k)


def compute_weights(x: np.ndarray, x0: float, h_x0: float, frac: float) -> np.ndarray:
    """Normalized Gaussian kernel weights on the nearest ceil(frac*n) points.

    All other observations get exactly zero weight.  Distance ties break
    by covariate index.
    """
    if not 0.0 < frac <= 1.0:
        raise DomainError(f"frac must be in (0, 1], got {frac!r}")
    if not (math.isfinite(h_x0) and h_x0 > 0.0):
        raise DomainError(f"bandwidth h_x0 must be finite and positive, got {h_x0!r}")
    x = real_array(x, DomainError, "covariates")
    n = x.size
    m = math.ceil(frac * n)
    dist = np.abs(x - x0)
    keep = np.argsort(dist, kind="stable")[:m]
    w = np.zeros(n)
    u = dist[keep] / h_x0
    kern = np.exp(-0.5 * u * u) / _SQRT_2PI
    kern = np.maximum(kern, 1e-300)  # retained points keep strictly positive weight
    w[keep] = kern / kern.sum()
    return w


def fit_conditional(
    x: np.ndarray, y: np.ndarray, cfg: ConditionalFitConfig
) -> DensityEstimate:
    """Weighted-likelihood density fit for the responses near cfg.x0."""
    x = real_array(x, DegenerateSampleError, "covariates")
    y = real_array(y, DegenerateSampleError, "responses")
    if x.ndim != 1 or y.ndim != 1:
        raise DegenerateSampleError(f"need 1-D x and y, got {x.shape} and {y.shape}")
    if x.size != y.size:
        raise DegenerateSampleError("covariates and responses differ in length")
    if x.size < 20:
        raise DegenerateSampleError(f"need at least 20 pairs, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DegenerateSampleError("covariates and responses must be finite")

    h_x0 = adaptive_bandwidth(x, cfg.x0, pilot_bandwidth(x))
    w_all = compute_weights(x, cfg.x0, h_x0, cfg.neighbor_fraction)
    keep = np.flatnonzero(w_all > 0)
    y_kept = y[keep]
    w = w_all[keep]
    w = w / w.sum()

    # exactly uniform weights carry no information: use the plain
    # likelihood so the result is identical to the unconditional fit
    weights = None if np.all(w == w[0]) else w

    result = estimator.fit(y_kept, cfg.base, weights=weights)
    n_eff = float(1.0 / np.sum(w**2))
    return replace(result, n_eff=n_eff, bandwidth=float(h_x0), x0=float(cfg.x0))
