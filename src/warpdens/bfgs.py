"""BFGS for the fit's unbounded search.

``minimize`` keeps the full BFGS inverse-Hessian approximation H as one
dense n x n matrix and updates it in place after each step by the rank-two
formula H+ = (I - rho s y')H(I - rho y s') + rho s s', rho = 1 / s'y
(Nocedal & Wright 2006, eq. 6.17), with H0 = I scaled by s'y / y'y of the
first pair (their eq. 6.20).  A direction is one matrix-vector product.

Full memory pays here because the search is small: J + |lambda| is at
most about 16 parameters (about 30 once the J sweep grows with n), and one
objective call costs tens of microseconds, so an iteration's bookkeeping
has to cost less than a call, and that cost is the number of numpy calls.
A limited memory (L-BFGS) is built for thousands of parameters: it drops
old pairs that a 16 x 16 matrix keeps for free and has to rebuild H or
its product from the stored pairs at every step.  The stopping rules are
those of L-BFGS-B with its default settings (Byrd, Lu, Nocedal & Zhu 1995).

The line search brackets a step that meets the weak Wolfe conditions,
as Lewis & Overton (2013, "Nonsmooth optimization via quasi-Newton
methods", Math. Programming 141) do for BFGS on nonsmooth functions.  The
likelihood is built from a piecewise-linear template, so searches end at
its kinks, where the strong Wolfe bound |g'd| <= c2 |g0'd| often cannot be
met; the weak condition g'd >= c2 g0'd can, and it still gives s'y > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FTOL = 2.220446049250313e-09  # relative reduction of f (factr 1e7 * eps)
GTOL = 1e-5  # largest gradient entry
_EPS = 2.220446049250313e-16
# line search: sufficient decrease c1, curvature c2, calls per search
_LS_C1, _LS_C2, _LS_MAXFEV = 1e-3, 0.9, 20


@dataclass(frozen=True)
class Result:
    """End point of a search: ``x``, ``fun`` = f(x), objective calls
    ``nfev``, iterations ``nit`` and why the search stopped."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    message: str


def minimize(fun, x0, options: dict) -> Result:
    """Minimize ``fun(x) -> (f, gradient)`` from ``x0``.

    ``options`` holds ``maxiter``, the iteration limit, in the call shape
    of ``scipy.optimize.minimize``.  The search stops when an iteration
    reduces f by at most ``FTOL * max(|f_old|, |f|, 1)``, when no gradient
    entry exceeds ``GTOL`` in size, after ``maxiter`` iterations, or when a
    line search fails before any pair has updated H; after a failure with
    an updated H, H is reset to I and the search goes on from steepest
    descent.  A pair with s'y <= eps * y'y leaves H as it is.
    A non-finite f counts as outside the objective's domain: a line search
    steps back from it, and a non-finite start is returned as it is, with
    ``fun = inf``.  Every end point but that one has a finite f no larger
    than f(x0).
    """
    maxiter = options["maxiter"]
    x = np.array(x0, float)
    f, g = fun(x)
    f, nfev, nit = float(f), 1, 0
    if not math.isfinite(f):
        return Result(x, math.inf, nfev, nit, "non-finite value at the start")
    if max(map(abs, g.tolist())) <= GTOL:
        return Result(x, f, nfev, nit, "gradient below gtol")

    n = x.size
    h = np.eye(n)
    updated = False  # has a pair updated H since the last (re)start?
    while True:
        d = -(h @ g)
        stp = 1.0 if updated else 1.0 / math.sqrt(float(d @ d))
        gd = float(g @ d)
        found, evals = _line_search(fun, x, f, gd, d, stp) if gd < 0.0 else (None, 0)
        nfev += evals
        if found is None:
            if not updated:
                return Result(x, f, nfev, nit, "line search failed")
            updated = False  # restart from steepest descent
            h = np.eye(n)
            continue
        nit += 1
        x_new, f_new, g_new = found
        s, y = x_new - x, g_new - g
        f_old, x, f, g = f, x_new, f_new, g_new
        if nit >= maxiter:
            return Result(x, f, nfev, nit, "maxiter reached")
        if max(map(abs, g.tolist())) <= GTOL:
            return Result(x, f, nfev, nit, "gradient below gtol")
        if f_old - f <= FTOL * max(abs(f_old), abs(f), 1.0):
            return Result(x, f, nfev, nit, "relative reduction of f below ftol")

        s_y, y_y = float(s @ y), float(y @ y)
        if s_y <= _EPS * y_y:
            continue  # no positive curvature along s: keep H
        if not updated:
            h *= s_y / y_y
            updated = True
        _update(h, s, y, s_y)


def _update(h, s, y, s_y) -> None:
    """Apply the BFGS update for the pair (s, y), s'y = ``s_y`` > 0, to H
    in place.

    Multiplied out, H+ = H + s a' + a s' with
    a = rho * ((rho * y'Hy + 1) / 2 * s - Hy).  The two rank-one terms are
    added as one matrix m + m', which is symmetric bit for bit, so a
    symmetric H stays exactly symmetric.
    """
    rho = 1.0 / s_y
    hy = h @ y
    a = s * (0.5 * rho * (rho * float(y @ hy) + 1.0))
    a -= hy * rho
    m = np.outer(s, a)
    h += m + m.T


def _line_search(fun, x, f0, gd0, d, t):
    """Weak-Wolfe bracketing search along d from step ``t`` (Lewis &
    Overton 2013).

    Returns ((x, f, gradient) at the first step with f <= f0 + c1 t g0'd
    and g'd >= c2 g0'd, or None after ``_LS_MAXFEV`` calls without one, and
    the number of calls).  A step with a non-finite value or slope, or with
    too little decrease, bounds the step from above; one where f still
    falls steeply bounds it from below.  The next step doubles while there
    is no upper bound and bisects the bracket otherwise, except after the
    first finite step with too little decrease: that one moves to the
    minimizer of the quadratic through f0, g0'd and f(t), kept within
    [0.1 t, 0.5 t].
    """
    lo, hi, interpolate = 0.0, math.inf, True
    for nfev in range(1, _LS_MAXFEV + 1):
        xt = x + t * d
        f, g = fun(xt)
        f = float(f)
        gd = float(g @ d)
        finite = math.isfinite(f) and math.isfinite(gd)
        if not finite or f > f0 + _LS_C1 * t * gd0:
            hi = t  # outside the domain or too little decrease: step back
            if interpolate and finite:  # then f - f0 - gd0 t > 0
                interpolate = False
                t = min(max(-gd0 * t * t / (2.0 * (f - f0 - gd0 * t)), 0.1 * t), 0.5 * t)
            else:
                t = 0.5 * (lo + hi)
        elif gd < _LS_C2 * gd0:
            lo = t  # still steeply downhill: step on
            t = 2.0 * t if hi == math.inf else 0.5 * (lo + hi)
        else:
            return (xt, f, g), nfev
    return None, _LS_MAXFEV
