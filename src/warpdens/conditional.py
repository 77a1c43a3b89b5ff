"""Conditional density estimation by locally weighted maximum likelihood.

The fit at a covariate location reuses the unconditional machinery with
Gaussian kernel weights over the nearest fraction of covariates and a
two-step adaptive bandwidth (pilot normal-reference bandwidth stretched
by the inverse square root of the pilot KDE at the location).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstraintError, DegenerateSampleError, DomainError
from .errors import number, sample, spread
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
        number(self.x0, DomainError, "x0")
        number(self.neighbor_fraction, DomainError, "neighbor_fraction", 0.0, 1.0)


def pilot_bandwidth(x: np.ndarray) -> float:
    """Normal-reference bandwidth 1.06 sd(x) n^(-1/5)."""
    x = sample(x, DegenerateSampleError, "covariates", 10)
    return 1.06 * spread(x, DegenerateSampleError, "covariates") * x.size ** (-0.2)


def adaptive_bandwidth(x: np.ndarray, x0: float, h: float) -> float:
    """Location bandwidth h / sqrt(pilot KDE at x0)."""
    x = sample(x, DomainError, "covariates", 1)
    x0, h = number(x0, DomainError, "x0"), number(h, DomainError, "bandwidth h", 0.0)
    with np.errstate(over="ignore"):  # a u beyond the float range has kernel 0
        u = (x0 - x) / h
        k = float(np.mean(np.exp(-0.5 * u * u) / _SQRT_2PI) / h)
    if k < 1e-12:
        raise DomainError(f"location {x0} lies outside the covariate support")
    return h / math.sqrt(k)


def compute_weights(x: np.ndarray, x0: float, h_x0: float, frac: float) -> np.ndarray:
    """Normalized Gaussian kernel weights on the nearest ceil(frac*n) points.

    All other observations get exactly zero weight.  Distance ties break
    by covariate index.
    """
    x = sample(x, DomainError, "covariates", 1)
    x0, frac = number(x0, DomainError, "x0"), number(frac, DomainError, "frac", 0.0, 1.0)
    h_x0 = number(h_x0, DomainError, "bandwidth h_x0", 0.0)
    m = math.ceil(frac * x.size)
    with np.errstate(over="ignore"):  # a distance beyond the float range: kernel 0
        dist = np.abs(x - x0)
        keep = np.argsort(dist, kind="stable")[:m]
        u = dist[keep] / h_x0
        kern = np.exp(-0.5 * u * u) / _SQRT_2PI
    w = np.zeros(x.size)
    kern = np.maximum(kern, 1e-300)  # retained points keep strictly positive weight
    w[keep] = kern / kern.sum()
    return w


def fit_conditional(
    x: np.ndarray, y: np.ndarray, cfg: ConditionalFitConfig
) -> DensityEstimate:
    """Weighted-likelihood density fit for the responses near cfg.x0."""
    x = sample(x, DegenerateSampleError, "covariates", 20)
    y = sample(y, DegenerateSampleError, "responses", 20)
    if x.size != y.size:
        raise DegenerateSampleError("covariates and responses differ in length")

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
