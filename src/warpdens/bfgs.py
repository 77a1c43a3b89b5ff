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
its product from the stored pairs at every step.  The stopping rules and
the line search are those of L-BFGS-B with its default settings (Byrd,
Lu, Nocedal & Zhu 1995).

The line search is the Moré–Thuente search of MINPACK-2's ``dcsrch`` and
``dcstep`` (Moré & Thuente 1994), written after the MINPACK-2 Fortran and
scipy's port of it, ``scipy/optimize/_dcsrch.py`` (BSD 3-Clause; Copyright
(c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy Developers; MINPACK-2 by
B. M. Averick, R. G. Carter and J. J. Moré, Argonne National Laboratory and
the University of Minnesota, 1993).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FTOL = 2.220446049250313e-09  # relative reduction of f (factr 1e7 * eps)
GTOL = 1e-5  # largest gradient entry
_EPS = 2.220446049250313e-16
# line search: sufficient decrease, curvature, relative bracket width, steps
_LS_FTOL, _LS_GTOL, _LS_XTOL, _LS_MAXFEV = 1e-3, 0.9, 0.1, 20
_STPMAX = 1e10


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


def _line_search(fun, x, f0, gd0, d, stp):
    """Moré–Thuente search for a step along d that satisfies the strong
    Wolfe conditions, starting at ``stp``.

    Returns ((x, f, gradient) at the accepted step, or None after
    ``_LS_MAXFEV`` calls without one, and the number of calls).  A step
    with a non-finite value is halved towards the best step so far, and no
    later step goes past the halved one.
    """
    gtest = _LS_FTOL * gd0
    brackt, stage1 = False, True
    width, width1 = _STPMAX, 2.0 * _STPMAX
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = gd0
    stmin, stmax, stpmax = 0.0, 5.0 * stp, _STPMAX
    for nfev in range(1, _LS_MAXFEV + 1):
        xt = x + stp * d
        f, g_full = fun(xt)
        f = float(f)
        g = float(g_full @ d)
        if not (math.isfinite(f) and math.isfinite(g)):
            stp = stx + 0.5 * (stp - stx)
            stpmax = min(stpmax, max(stp, stx))
            continue
        ftest = f0 + stp * gtest
        if stage1 and f <= ftest and g >= 0.0:
            stage1 = False
        if (
            (f <= ftest and abs(g) <= -_LS_GTOL * gd0)  # strong Wolfe: converged
            or (brackt and (stp <= stmin or stp >= stmax))  # rounding errors
            or (brackt and stmax - stmin <= _LS_XTOL * stmax)
            or (stp == stpmax and f <= ftest and g <= gtest)
        ):
            return (xt, f, g_full), nfev

        if stage1 and fx >= f > ftest:
            # the modified function psi(a) = f(a) - a * gtest picks the step
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest,
                gy - gtest, stp, f - stp * gtest, g - gtest, brackt, stmin, stmax,
            )
            fx, fy = fxm + stx * gtest, fym + sty * gtest
            gx, gy = gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
            )
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)  # bisect
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), stpmax)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _LS_XTOL * stmax):
            stp = stx  # no further progress possible: the best step so far
    return None, _LS_MAXFEV


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One safeguarded step of the search (MINPACK-2 ``dcstep``).

    (stx, fx, dx) is the best step with its value and slope, (sty, fy, dy)
    the other end of the interval, (stp, fp, dp) the trial.  Returns the
    updated interval, the next trial step and whether a minimizer is
    bracketed.
    """
    sgnd = dp * math.copysign(1.0, dx)
    if fp > fx:  # higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) < abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:  # lower value, slopes of opposite sign: bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # lower value, same sign, slope shrinks
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:  # lower value, same sign, slope does not shrink
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _cubic_gamma(theta, dy, dp)
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _cubic_gamma(theta, d1, d2):
    """The square-root term of the cubic that interpolates two values and
    slopes d1, d2 (taken as 0 where rounding makes it negative)."""
    s = max(abs(theta), abs(d1), abs(d2))
    return s * math.sqrt(max(0.0, (theta / s) ** 2 - (d1 / s) * (d2 / s)))
