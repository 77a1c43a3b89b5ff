"""Tests for the in-repo BFGS, `warpdens.bfgs`.

The file keeps the name it had while the optimizer was L-BFGS, so the test
ids stay the same across the change of method.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import rosen, rosen_der

from warpdens import bfgs
from warpdens.bfgs import _LS_C1, _LS_C2, GTOL, _update, minimize


def rosenbrock(x):
    return rosen(x), rosen_der(x)


@pytest.mark.parametrize("seed", range(4))
def test_convex_quadratic_reaches_its_minimizer(seed):
    # f* = 0 at x*; the search stops on its gradient rule, which bounds the
    # distance to x* by sqrt(n) GTOL / (smallest eigenvalue)
    rng = np.random.default_rng(seed)
    n = 6
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = q @ np.diag(np.linspace(1.0, 10.0, n)) @ q.T
    x_star = rng.standard_normal(n)
    res = minimize(lambda x: (0.5 * (x - x_star) @ a @ (x - x_star), a @ (x - x_star)),
                   np.zeros(n), options={"maxiter": 200})
    assert 0.0 <= res.fun <= 1e-8
    assert np.abs(res.x - x_star).max() <= math.sqrt(n) * GTOL
    assert "gtol" in res.message
    assert res.nit < 30 and res.nfev >= res.nit + 1


@pytest.mark.parametrize(
    "x0", [[-1.2, 1.0], [2.0, 2.0, 2.0, 2.0], [-1.0, 0.5, 1.5, -0.5, 0.3]]
)
def test_rosenbrock_reaches_scipys_minimizer(x0):
    # the stopping rules of L-BFGS-B, but full-memory directions and a
    # weak-Wolfe line search: the iterates differ, and the two searches stop
    # a few 1e-6 apart near the same minimizer, in a valley where f is flat
    # to 1e-11
    x0 = np.array(x0)
    ours = minimize(rosenbrock, x0, options={"maxiter": 1000})
    ref = scipy_minimize(rosenbrock, x0, jac=True, method="L-BFGS-B",
                         options={"maxiter": 1000})
    assert abs(ours.fun - ref.fun) <= 1e-6
    np.testing.assert_allclose(ours.x, ref.x, rtol=0.0, atol=1e-5)
    assert "ftol" in ours.message or "gtol" in ours.message


def test_maxiter_binds_exactly():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), options={"maxiter": 7})
    assert res.nit == 7
    assert "maxiter" in res.message
    assert res.fun < rosenbrock(np.array([-1.2, 1.0]))[0]


def test_infinite_past_a_boundary_never_ends_infinite():
    # minimum of (x - 3)^2 beyond the domain x < 1: the search has to stay
    # inside and may only approach the boundary
    def fun(x):
        if x[0] >= 1.0:
            return math.inf, np.zeros(1)
        return (x[0] - 3.0) ** 2, np.array([2.0 * (x[0] - 3.0)])

    for x0 in (0.0, 0.9, -5.0):
        res = minimize(fun, np.array([x0]), options={"maxiter": 100})
        assert math.isfinite(res.fun)
        assert res.x[0] < 1.0
        assert res.fun <= fun(np.array([x0]))[0]
        assert res.fun == fun(res.x)[0]


def test_non_finite_start_returns_inf_without_raising():
    calls = []

    def fun(x):
        calls.append(x)
        return math.inf, np.zeros_like(x)

    res = minimize(fun, np.ones(3), options={"maxiter": 10})
    assert res.fun == math.inf
    assert (res.nfev, res.nit) == (1, 0) and len(calls) == 1
    np.testing.assert_array_equal(res.x, np.ones(3))


def test_zero_gradient_start_stops_at_once():
    res = minimize(lambda x: (float(x @ x), 2.0 * x), np.zeros(2),
                   options={"maxiter": 10})
    assert (res.nit, res.nfev, res.fun) == (0, 1, 0.0)


def test_runs_are_bit_identical():
    x0 = np.array([-1.0, 0.5, 1.5, -0.5, 0.3, 2.0, -2.0, 0.1, 0.7, -0.9, 1.1, 0.0])
    a = minimize(rosenbrock, x0, options={"maxiter": 500})
    b = minimize(rosenbrock, x0.copy(), options={"maxiter": 500})
    assert a.x.tobytes() == b.x.tobytes()
    assert (a.fun, a.nfev, a.nit, a.message) == (b.fun, b.nfev, b.nit, b.message)
    assert a.nit > 10  # long enough for H to carry many updates


def test_x0_is_not_modified():
    x0 = np.array([-1.2, 1.0])
    minimize(rosenbrock, x0, options={"maxiter": 50})
    np.testing.assert_array_equal(x0, [-1.2, 1.0])


def test_update_keeps_secant_symmetry_and_positive_definiteness():
    # chains of updates from the identity, as in a search, over random
    # pairs with s'y > 0 drawn from a random positive definite curvature
    rng = np.random.default_rng(12)
    pairs = 0
    for _ in range(40):
        n = int(rng.integers(2, 17))
        q = rng.standard_normal((n, n))
        curvature = q @ q.T / n + 0.1 * np.eye(n)
        h = np.eye(n)
        for _ in range(10):
            s = rng.standard_normal(n)
            y = curvature @ s + 0.1 * rng.standard_normal(n)
            s_y = float(s @ y)
            if s_y <= 0.0:
                continue
            _update(h, s, y, s_y)
            pairs += 1
            assert np.abs(h @ y - s).max() <= 1e-12 * np.abs(s).max()
            assert h.tobytes() == h.T.tobytes()
            assert np.linalg.eigvalsh(h)[0] > 0.0
    assert pairs >= 300


def kinked(w, a):
    """sum w_i |x_i - a_i| + |x|^2 / 2, whose minimizer sits on the kinks
    x_i = a_i wherever |a_i| <= w_i, as the likelihood's optima sit on the
    kinks of its piecewise-linear template."""
    def fun(x):
        return float(w @ np.abs(x - a) + 0.5 * x @ x), w * np.sign(x - a) + x

    x_star = np.where(np.abs(a) <= w, a, np.sign(a) * w)
    return fun, fun(x_star)[0]


@pytest.mark.parametrize("seed", range(6))
def test_line_search_on_a_kinked_objective(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = 8
    fun, f_star = kinked(rng.uniform(0.5, 2.0, n), rng.uniform(-2.0, 2.0, n))
    searches = []

    def recorded_search(fun, x, f0, gd0, d, t):
        # the search runs from 0 on f(x + .), which takes the same trial
        # points x + t d, so that each trial's step t can be read back
        trials = []
        k = int(np.argmax(np.abs(d)))

        def shifted(z):
            f, g = fun(x + z)
            trials.append((z[k] / d[k], f, g))
            return f, g

        found, evals = line_search(shifted, np.zeros_like(x), f0, gd0, d, t)
        searches.append((f0, gd0, d, t, trials, found))
        return (None if found is None else (x + found[0], *found[1:])), evals

    line_search = bfgs._line_search
    monkeypatch.setattr(bfgs, "_line_search", recorded_search)
    x0 = 3.0 * rng.standard_normal(n)
    res = minimize(fun, x0, options={"maxiter": 200})

    interpolated = 0
    for f0, gd0, d, t0, trials, found in searches:
        assert trials[0][0] == pytest.approx(t0, rel=1e-15)
        if found is not None:
            t, f, g = trials[-1]
            assert f <= f0 + _LS_C1 * t * gd0 * (1.0 - 1e-15)  # sufficient decrease
            assert float(g @ d) >= _LS_C2 * gd0  # weak curvature
        failures = [i for i, (t, f, _) in enumerate(trials) if f > f0 + _LS_C1 * t * gd0]
        for i in failures:
            # the quadratic through f0, slope gd0 and f at t opens upwards
            t, f, _ = trials[i]
            denominator = 2.0 * (f - f0 - gd0 * t)
            assert denominator > 0.0
            if i == failures[0] and i + 1 < len(trials):
                # its minimizer, kept within [0.1 t, 0.5 t], is the next trial
                t_q = min(max(-gd0 * t * t / denominator, 0.1 * t), 0.5 * t)
                assert trials[i + 1][0] == pytest.approx(t_q, rel=1e-12)
                interpolated += 1
    assert interpolated > 0
    assert math.isfinite(res.fun) and res.fun <= fun(x0)[0]
    assert "ftol" in res.message or "gtol" in res.message
    assert res.fun - f_star <= 1e-3
