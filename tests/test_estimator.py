"""Tests for support estimation, likelihood, and the sieve MLE."""

import itertools
import math
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdens import (
    BENCHMARKS,
    CoefficientVector,
    ConditionalFitConfig,
    ConstraintError,
    DegenerateSampleError,
    DomainError,
    FitConfig,
    GridDensity,
    OptimizationError,
    ShapeError,
    ShapeSpec,
    adaptive_bandwidth,
    build_template,
    coeffs_to_warp,
    compute_weights,
    count_modes,
    estimate_support,
    fit,
    fit_conditional,
    fit_fixed_j,
    fourier_basis,
    group_action,
    log_likelihood,
    pilot_bandwidth,
    rescale_to_unit,
    template_density,
    unit_grid,
)
from warpdens import estimator
from warpdens.bench import error_norms, normal_mixture
from warpdens.estimator import _U_CLIP, _fold, _kernel, _Objective, _random_start


def binned_loglik(z, log_p):
    """Sum of (1 - f) log p(t_lo) + f log p(t_lo + 1): log p on a uniform
    grid, interpolated linearly at each sample z in [0, 1)."""
    zi = np.asarray(z) * (log_p.size - 1)
    lo = zi.astype(int)
    f = zi - lo
    return float(np.sum((1.0 - f) * log_p[lo] + f * log_p[lo + 1]))


def record_searches(monkeypatch):
    """Record (fun, start index, end point) of every search the fit runs,
    from the rows ``_run_starts`` hands back from every share."""
    real_run_starts, runs = estimator._run_starts, []

    def recording_run_starts(*args, **kwargs):
        rows = real_run_starts(*args, **kwargs)
        runs.extend((row[0], r, row[1:].copy()) for r, row in enumerate(rows))
        return rows

    monkeypatch.setattr(estimator, "_run_starts", recording_run_starts)
    return runs


class TestSupport:
    def test_two_point_example(self):
        # x=(0,1): sd = sqrt(0.5), n=2 -> A = -0.5, B = 1.5
        a, b = estimate_support(np.array([0.0, 1.0]))
        assert abs(a - (-0.5)) < 1e-12
        assert abs(b - 1.5) < 1e-12

    def test_support_brackets_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 3.0, 500)
        a, b = estimate_support(x)
        assert a < x.min() and b > x.max()

    def test_pad_shrinks_with_n(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 10)
        y = rng.uniform(0, 1, 10000)
        _, b_small = estimate_support(x)
        _, b_big = estimate_support(y)
        assert (b_big - y.max()) < (b_small - x.max())

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            estimate_support(np.full(20, 3.0))


class TestRescale:
    def test_endpoints_and_midpoint(self):
        z = rescale_to_unit(np.array([-1.0, 0.5, 2.0]), -1.0, 2.0)
        assert np.allclose(z, [0.0, 0.5, 1.0])

    def test_out_of_range_rejected(self):
        from warpdens import DomainError

        with pytest.raises(DomainError):
            rescale_to_unit(np.array([0.0, 5.0]), 0.0, 1.0)


class TestLogLikelihood:
    def test_triangle_closed_form(self):
        # c=0, M=1: density is the normalized triangle; compare to the
        # binned log-likelihood of that density, built without the kernel
        shape = ShapeSpec.modes(1)
        z = np.linspace(0.05, 0.95, 19)
        tmpl = build_template(shape, np.empty(0), omega=1e-3, n=1024)
        p = template_density(tmpl)
        expect = binned_loglik(z, np.log(p.p))
        cfg = FitConfig(shape=shape)
        got = log_likelihood(z, CoefficientVector(np.zeros(4)), np.empty(0), cfg)
        assert abs(got - expect) < 1e-6

    def test_coefficients_beyond_2pi_score_as_their_fold(self):
        # every finite c gives a warp, and a c beyond 2 pi gives the warp of
        # its fold into the ball of radius pi/2
        cfg = FitConfig(shape=ShapeSpec.modes(2))
        rng = np.random.default_rng(21)
        z = rng.beta(2.0, 2.0, 200)
        lam = np.array([0.4, 0.8])
        direction = rng.standard_normal(4)
        c = (2.0 * math.pi + 0.5) * direction / np.linalg.norm(direction)
        folded = _fold(c)
        assert abs(np.linalg.norm(folded) - 0.5) <= 1e-12
        ll = log_likelihood(z, CoefficientVector(c), lam, cfg)
        ll_fold = log_likelihood(z, CoefficientVector(folded), lam, cfg)
        assert abs(ll - ll_fold) <= 1e-12 * abs(ll)

    def test_oracle_beats_identity_on_warped_template(self):
        # data from a warped template: likelihood at the oracle warp should
        # beat the unwarped template with the same lambda
        shape = ShapeSpec.modes(2)
        lam = np.array([0.4, 0.8])
        rng = np.random.default_rng(5)
        c0 = np.array([0.5, -0.3, 0.2, 0.0])
        n_grid = 4097
        warp = coeffs_to_warp(CoefficientVector(c0), fourier_basis(4, n_grid))
        p = group_action(build_template(shape, lam, 1e-3, n_grid), warp)
        # inverse-CDF sampling from the warped template density
        cdf = np.concatenate(
            ([0.0], np.cumsum(0.5 * (p.p[1:] + p.p[:-1]) * np.diff(p.t)))
        )
        cdf /= cdf[-1]
        z = np.interp(rng.uniform(0, 1, 10000), cdf, p.t)
        cfg = FitConfig(shape=shape)
        ll_oracle = log_likelihood(z, CoefficientVector(c0), lam, cfg)
        ll_id = log_likelihood(z, CoefficientVector(np.zeros(4)), lam, cfg)
        assert ll_oracle > ll_id

    def test_template_positive_next_to_steep_knot(self):
        # an antimode of 4.7e-14 next to a mode of 488: the template values
        # on the grid around the samples must not cancel to zero
        shape = ShapeSpec.modes(2)
        lam = np.array([4.7e-14, 488.0])
        z = np.array([0.3, 0.5, 0.7])
        cfg = FitConfig(shape=shape)
        got = log_likelihood(z, CoefficientVector(np.zeros(2)), lam, cfg)
        tmpl = build_template(shape, lam, omega=1e-3, n=1024)
        expect = binned_loglik(z, np.log(tmpl.g))
        expect -= z.size * math.log(np.trapezoid(tmpl.g, tmpl.t))
        assert math.isfinite(got)
        assert abs(got - expect) <= 1e-9 * abs(expect)

    @pytest.mark.parametrize(
        "z, weights, c, error",
        [
            ([-0.5, 0.3, 1.5], None, [0.0, 0.0], DomainError),
            ([np.nan, 0.3, 0.7], None, [0.0, 0.0], DegenerateSampleError),
            ([0.2, 0.3, 0.7], [-1.0, 1.0, 1.0], [0.0, 0.0], DomainError),
            ([[0.2, 0.3], [0.5, 0.7]], None, [0.0, 0.0], DegenerateSampleError),
            ([0.2, 0.3, 0.7], None, [np.nan, 0.0], DomainError),
            ([0.2, 0.3, 0.7], None, [np.inf, 0.0], DomainError),
        ],
        ids=[
            "outside-unit-interval",
            "nan",
            "negative-weight",
            "2-d",
            "nan-coefficient",
            "inf-coefficient",
        ],
    )
    def test_invalid_input_rejected(self, z, weights, c, error):
        cfg = FitConfig(shape=ShapeSpec.modes(1))
        c = CoefficientVector(np.array(c))
        with pytest.raises(error):
            log_likelihood(np.array(z), c, np.empty(0), cfg, weights)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_height_ratio_rejected(self, bad):
        cfg = FitConfig(shape=ShapeSpec.modes(2))
        c = CoefficientVector(np.zeros(2))
        with pytest.raises(ConstraintError, match="finite"):
            log_likelihood(np.array([0.2, 0.5]), c, np.array([0.5, bad]), cfg)

    def test_bare_array_coefficients_rejected(self):
        cfg = FitConfig(shape=ShapeSpec.modes(1))
        with pytest.raises(DomainError, match="CoefficientVector"):
            log_likelihood(np.array([0.2, 0.5]), np.zeros(2), np.empty(0), cfg)

    def test_non_vector_coefficients_rejected(self):
        cfg = FitConfig(shape=ShapeSpec.modes(1))
        c = CoefficientVector(np.zeros((2, 2)))
        with pytest.raises(DomainError):
            log_likelihood(np.array([0.2, 0.5]), c, np.empty(0), cfg)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "change",
        [
            {"j_max": 1},  # below the first J of the sweep
            {"j_max": 1023},  # aliased on the 1024-point grid
            {"restarts": 0},
            {"seed": -1},
            {"support": (-math.inf, 5.0)},
            {"support": (-5.0, math.inf)},
            {"support": (math.nan, 5.0)},
            {"support": (5.0, -5.0)},
            {"support": (5.0, 5.0)},
            {"support": (-5.0, 0.0, 5.0)},
            {"j_max": 4.0},
            {"restarts": 1.5},
            {"seed": 0.5},
            {"support": (0, "1")},
            {"support": 5},
            {"support": [0.0, 1.0, 2.0]},
            {"support": np.array(0.5)},
            {"restarts": True},
            {"seed": False},
        ],
    )
    def test_rejected(self, change):
        with pytest.raises(ConstraintError):
            FitConfig(shape=ShapeSpec.modes(1), **change)

    def test_coarsest_grid_for_the_basis_accepted(self):
        # the 1024-point grid is the coarsest that resolves 1022 functions
        cfg = FitConfig(shape=ShapeSpec.modes(1), j_max=1022)
        assert cfg.j_values()[-1] == 1022

    @pytest.mark.parametrize(
        "support", [[-1, 1], np.array([-1.0, 1.0]), (np.float32(-1), 1.5)],
        ids=["list", "array", "numpy-scalar"],
    )
    def test_support_of_two_reals_accepted(self, support):
        assert FitConfig(shape=ShapeSpec.modes(1), support=support).support is support

    def test_numpy_integers_accepted(self):
        cfg = FitConfig(
            shape=ShapeSpec.modes(1),
            j_max=np.int64(4),
            restarts=np.int64(2),
            seed=np.int64(3),
        )
        assert cfg.j_values() == [2, 4]


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: FitConfig(shape=("inc", "dec")), ConstraintError),
        (lambda: ShapeSpec.modes(2.5), ShapeError),
        (lambda: ShapeSpec.modes("2"), ShapeError),
        (lambda: ShapeSpec.modes(True), ShapeError),
        (lambda: ShapeSpec(None), ShapeError),
        (lambda: ShapeSpec(("inc", "dec"), free_boundaries="no"), ShapeError),
        (lambda: ShapeSpec(("inc", "dec"), free_boundaries=1), ShapeError),
        (lambda: ShapeSpec("inc,dec"), ShapeError),
    ],
    ids=["tuple-shape", "float-modes", "str-modes", "bool-modes", "none-pieces",
         "str-free-boundaries", "int-free-boundaries", "str-pieces"],
)
def test_malformed_shape_input_raises_typed_error(make, error):
    with pytest.raises(error):
        make()


def test_string_pieces_name_the_tuple_form():
    with pytest.raises(ShapeError, match=r"tuple such as \('inc', 'dec'\)"):
        ShapeSpec("inc,dec")


_XS = np.linspace(-1.0, 1.0, 20)
_CFG1 = FitConfig(shape=ShapeSpec.modes(1), j_max=2, restarts=1)
_CFG2 = FitConfig(shape=ShapeSpec.modes(2), j_max=2, restarts=1)
_C2 = CoefficientVector(np.zeros(2))
_CCFG = ConditionalFitConfig(base=_CFG1, x0=0.0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: fit(np.array(["a"] * 20), _CFG1), DegenerateSampleError),
        (lambda: fit(_XS + 0.5j, _CFG1), DegenerateSampleError),
        (lambda: fit(_XS, _CFG1, weights=["a"] * 20), DomainError),
        (lambda: fit(_XS, _CFG1, weights=np.full(20, 0.05 + 0j)), DomainError),
        (lambda: fit_conditional(_XS, ["a"] * 20, _CCFG), DegenerateSampleError),
        (lambda: fit_conditional(_XS + 1j, _XS, _CCFG), DegenerateSampleError),
        (lambda: log_likelihood(["a"], _C2, [], _CFG1), DegenerateSampleError),
        (lambda: log_likelihood([0.2, 0.5], _C2, ["a", "b"], _CFG2), ConstraintError),
        (lambda: log_likelihood([0.2, 0.5], _C2, [0.5, 0.5j], _CFG2), ConstraintError),
        (lambda: estimate_support(["a", "b"]), DegenerateSampleError),
        (lambda: pilot_bandwidth(["a"] * 20), DegenerateSampleError),
        (lambda: adaptive_bandwidth(["a"] * 20, 0.0, 1.0), DomainError),
        (lambda: compute_weights(_XS + 1j, 0.0, 1.0, 0.5), DomainError),
        (lambda: rescale_to_unit(["a"], 0.0, 1.0), DomainError),
        (lambda: fit(_XS, _CFG1).pdf(["a"]), DomainError),
    ],
    ids=["str-sample", "complex-sample", "str-weights", "complex-weights",
         "str-responses", "complex-covariates", "str-unit-samples",
         "str-heights", "complex-heights", "str-support", "str-pilot-bandwidth",
         "str-adaptive-bandwidth", "complex-kernel-weights", "str-rescale", "str-pdf"],
)
def test_non_real_input_raises_typed_error(call, error):
    # a string or a complex value is refused, not cast or let through as a
    # raw ValueError; the imaginary part is never dropped in silence
    with pytest.raises(error, match="must be real numbers"):
        call()


def _piece_sequences(longest):
    """Every sequence of 1 to ``longest`` pieces with no two equal pieces adjacent."""
    seqs = [()]
    for _ in range(longest):
        seqs = [s + (p,) for s in seqs for p in ("inc", "dec", "flat") if s[-1:] != (p,)]
        yield from seqs


def test_every_short_shape_is_rejected_or_fits_with_its_mode_count():
    # 186 (pieces, free_boundaries) pairs: the constructor refuses shoulders
    # and all-flat shapes, and every shape it accepts fits on one sample
    # with exactly its mode count
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(-2.0, 0.6, 100), rng.normal(1.5, 0.8, 100)])
    outcomes = {"shoulder": 0, "no inc or dec": 0, "fit": 0}
    for pieces in _piece_sequences(5):
        for free in (False, True):
            try:
                shape = ShapeSpec(pieces, free_boundaries=free)
            except ShapeError as exc:
                kind = next(k for k in outcomes if k in str(exc))
                outcomes[kind] += 1
                continue
            est = fit(x, FitConfig(shape=shape, j_max=2, restarts=1))
            assert count_modes(est.unit_density()) == shape.n_modes, pieces
            assert abs(np.trapezoid(est.p, est.t) - 1.0) <= 1e-6, pieces
            outcomes["fit"] += 1
    assert outcomes == {"shoulder": 64, "no inc or dec": 2, "fit": 120}


GRADIENT_SHAPES = [
    ShapeSpec.modes(1),
    ShapeSpec.modes(2),
    ShapeSpec.modes(3),
    ShapeSpec(("dec",), free_boundaries=True),
    ShapeSpec(("inc", "flat", "dec")),
    ShapeSpec(("inc", "flat", "dec"), free_boundaries=True),
    # a free boundary mode next to the first mode, or after it
    ShapeSpec(("dec", "inc")),
    ShapeSpec(("inc", "dec", "inc")),
]

# the levels the height-ratio vector sets, and each knot's level
LAYOUTS = {
    ShapeSpec.modes(1): ([], [0, 1, 2]),
    ShapeSpec.modes(2): ([2, 3], [0, 1, 2, 3, 4]),
    ShapeSpec.modes(3): ([2, 3, 4, 5], list(range(7))),
    ShapeSpec(("dec",), free_boundaries=True): ([1], [0, 1]),
    ShapeSpec(("inc", "flat", "dec")): ([], [0, 1, 1, 2]),
    ShapeSpec(("inc", "flat", "dec"), free_boundaries=True): ([0, 2], [0, 1, 1, 2]),
    ShapeSpec(("dec", "inc")): ([1, 2], [0, 1, 2]),
    ShapeSpec(("inc", "dec", "inc")): ([2, 3], [0, 1, 2, 3]),
    ShapeSpec.modes(4): ([2, 3, 4, 5, 6, 7], list(range(9))),
}


@pytest.mark.parametrize(
    "shape",
    GRADIENT_SHAPES + [ShapeSpec.modes(4)],
    ids=lambda s: ",".join(s.pieces) + (" free" if s.free_boundaries else ""),
)
def test_height_layout(shape):
    free, knots = LAYOUTS[shape]
    assert shape.free_levels == free
    assert shape.knot_levels == knots


class TestObjective:
    def test_height_map_keeps_modes_visible(self):
        # every accepted shape of 1 to 9 pieces (nine is the most a shape with
        # a single free mode can have) and a few long ones: at each corner of
        # the height parameters (free modes at +-1e6, antimodes at -_U_CLIP, 0
        # or _U_CLIP) and at random points, every non-flat piece moves its way
        # by at least rel_gap times the tallest level, so the unwarped template
        # shows every mode and antimode, boundary ones included, and no mode
        # is more than 1 / (2 rel_gap) times another; at the random points,
        # some of them on the corners, the objective is finite and count_modes
        # sees the shape's modes on the unwarped template
        rng = np.random.default_rng(0)
        flats = ("inc", "flat", "dec", "flat", "inc", "dec", "flat", "inc", "dec")
        shapes = [ShapeSpec.modes(50), ShapeSpec(flats)]
        shapes.append(ShapeSpec(flats + ("flat",), free_boundaries=True))
        for pieces in _piece_sequences(9):
            for free in (False, True):
                try:
                    shapes.append(ShapeSpec(pieces, free_boundaries=free))
                except ShapeError:
                    pass
        assert len(shapes) == 3 + 916
        failed = []
        for shape in shapes:
            obj = _Objective(np.array([0.25, 0.5]), shape, 2, None)
            n_free = len(obj.free)
            mode_ks = [k for k, _ in obj.modes]
            signs = (
                itertools.product((-1e6, 1e6), repeat=len(mode_ks))
                if len(mode_ks) <= 6
                else rng.choice((-1e6, 1e6), (64, len(mode_ks)))
            )
            corners = []
            for sign in signs:
                for a in (-_U_CLIP, 0.0, _U_CLIP):
                    u = np.full(n_free, a)
                    u[mode_ks] = sign
                    corners.append(u)
            randoms = (
                rng.uniform(-40.0, 40.0, n_free),
                rng.choice((-1e6, -_U_CLIP, 0.0, _U_CLIP, 1e6), n_free),
            )
            modes = [i for i, lv in enumerate(shape.levels) if lv.role == "high"]
            moves = [(k, 1.0 if p == "inc" else -1.0)
                     for k, p in enumerate(shape.pieces) if p != "flat"]

            def visible(u):
                heights = obj.heights(u)[0]
                kh = heights[shape.knot_levels]
                gap = obj.rel_gap * heights.max() * (1.0 - 1e-9)
                ratio = heights[modes].max() / heights[modes].min()
                return (
                    all((kh[k + 1] - kh[k]) * d >= gap for k, d in moves)
                    and ratio <= (0.5 / obj.rel_gap) * (1.0 + 1e-12)
                )

            def finite_and_counted(u):
                kh = obj.heights(u)[0][shape.knot_levels]
                dens = GridDensity(obj.t, obj.forward(np.zeros(2), kh)[1])
                return (
                    math.isfinite(obj.value_and_grad(np.append([0.3, -0.2], u))[0])
                    and count_modes(dens) == shape.n_modes
                )

            if not (
                all(visible(u) for u in corners)
                and all(visible(u) and finite_and_counted(u) for u in randoms)
            ):
                failed.append((shape.pieces, shape.free_boundaries))
        assert failed == []

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from(GRADIENT_SHAPES),
        j=st.integers(2, 10),
        weighted=st.booleans(),
        outside=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradient_matches_central_differences(
        self, shape, j, weighted, outside, seed
    ):
        rng = np.random.default_rng(seed)
        n = 200
        # the endpoints put a sample at gamma = 0 and one at the last knot
        z = np.append(rng.beta(2.0, 2.0, n), [0.0, 1.0])
        w = rng.uniform(0.0, 1.0, z.size) if weighted else None
        if w is not None:
            w /= w.sum()
        obj = _Objective(z, shape, j, w)
        theta = np.empty(obj.n_params)
        direction = rng.standard_normal(j)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(1.1, 2.0) if outside else rng.uniform(0.0, 0.9)
        theta[:j] = radius * 2.0 * math.pi * direction
        theta[j:] = rng.uniform(-6.0, 6.0, obj.n_params - j)

        f, g = obj.value_and_grad(theta)
        f2, g2 = obj.value_and_grad(theta.copy())
        assert f == f2 and np.array_equal(g, g2)  # bit-for-bit repeatable
        assert math.isfinite(f)

        step = 1e-6
        tol = 1e-4 * max(1.0, float(np.max(np.abs(g))))
        for k in range(theta.size):
            e = np.zeros_like(theta)
            e[k] = step
            f1, f2 = (obj.value_and_grad(theta + m * e)[0] for m in (1, 2))
            b1, b2 = (obj.value_and_grad(theta - m * e)[0] for m in (1, 2))
            # second-order one-sided differences, so that strong curvature
            # (near ||c|| = pi/2 and its copies) is not taken for a knot
            fwd = (4.0 * f1 - 3.0 * f - f2) / (2.0 * step)
            back = (3.0 * f - 4.0 * b1 + b2) / (2.0 * step)
            if abs(fwd - back) <= tol:
                assert abs(0.5 * (fwd + back) - g[k]) <= tol, k
            else:
                # the step moved a sample or grid point across a knot of the
                # piecewise-linear template: the gradient is one of the sides
                assert min(abs(fwd - g[k]), abs(back - g[k])) <= tol, k

    def test_results_survive_later_calls(self):
        # the search keeps the previous gradient, and callers keep the
        # density, so a later evaluation must not change either
        z = np.random.default_rng(13).beta(2.0, 2.0, 300)
        obj = _Objective(z, ShapeSpec.modes(2), 4, None)
        theta_a, theta_b = (
            _random_start(obj, np.random.default_rng([13, r])) for r in (1, 2)
        )
        f_a, g_a = obj.value_and_grad(theta_a)
        g_kept = g_a.copy()
        f_b, g_b = obj.value_and_grad(theta_b)
        assert math.isfinite(f_a) and math.isfinite(f_b)
        assert not np.array_equal(g_a, g_b)
        assert np.array_equal(g_a, g_kept)

        def density(theta):
            kh = obj.heights(theta[4:])[0][obj.knot_levels]
            return obj.forward(theta[:4], kh)[1]

        p_a = density(theta_a)
        p_kept = p_a.copy()
        p_b = density(theta_b)
        obj.value_and_grad(theta_b)
        assert not np.array_equal(p_a, p_b)
        assert np.array_equal(p_a, p_kept)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("u_mode", [-3.0, 0.0, 3.0, 6.0])
    def test_saturated_antimodes_keep_mode_count(self, m, u_mode):
        # sigmoid(50) rounds to 1; the antimode must still sit below its cap
        shape = ShapeSpec.modes(m)
        obj = _Objective(np.array([0.5]), shape, 2, None)
        theta = np.zeros(obj.n_params)
        theta[2:] = u_mode
        for k, *_ in obj.antimodes:
            theta[2 + k] = 50.0
        lam = obj.heights(theta[2:])[0][obj.free]
        cfg = FitConfig(shape=shape)
        dens = _kernel(np.array([0.5]), theta[:2], lam, cfg, None)[1]
        assert count_modes(dens) == m

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from(GRADIENT_SHAPES),
        j=st.integers(2, 10),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reported_likelihood_is_the_optimized_one(self, shape, j, weighted, seed):
        rng = np.random.default_rng(seed)
        n = 200
        z = np.append(rng.beta(2.0, 2.0, n), [0.0, 1.0])
        w = rng.uniform(0.0, 1.0, z.size) if weighted else None
        if w is not None:
            w /= w.sum()
        obj = _Objective(z, shape, j, w)
        theta = np.empty(obj.n_params)
        direction = rng.standard_normal(j)
        direction /= np.linalg.norm(direction)
        theta[:j] = rng.uniform(0.0, 0.999) * 2.0 * math.pi * direction
        theta[j:] = rng.uniform(-6.0, 6.0, obj.n_params - j)
        c = theta[:j]
        heights = obj.heights(theta[j:])[0]
        lam = heights[obj.free]

        f = obj.value_and_grad(theta)[0]
        assert math.isfinite(f)
        cfg = FitConfig(shape=shape)
        ll = log_likelihood(z, CoefficientVector(c), lam, cfg, w)
        assert abs(ll + f) <= 1e-9 * abs(ll)

        p = obj.forward(c, heights[obj.knot_levels])[1]
        assert abs(np.trapezoid(p, obj.t) - 1.0) <= 1e-6
        warp = coeffs_to_warp(CoefficientVector(c), fourier_basis(j, 1024))
        ref = group_action(build_template(shape, lam, 1e-3, 1024), warp).p
        assert np.max(np.abs(p - ref)) <= 1e-10 * np.max(ref)

    def test_kernel_holds_no_per_sample_array(self):
        # the samples are binned once, so the kernel's arrays, and the cost
        # of an evaluation, do not depend on the sample size
        rng = np.random.default_rng(17)
        shapes = []
        for n in (1000, 20000):
            z = rng.beta(2.0, 2.0, n)
            obj = _Objective(z, ShapeSpec.modes(2), 8, None)
            arrays = {
                k: a.shape for k, a in vars(obj).items() if isinstance(a, np.ndarray)
            }
            assert not any(n in shape for shape in arrays.values())
            shapes.append(arrays)
        assert shapes[0] == shapes[1]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(1, 3),
        j=st.sampled_from([2, 6, 10]),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_binning_error_per_observation(self, m, j, weighted, seed):
        # the kernel bins the samples onto the grid; score the same theta
        # exactly, with gamma and then the template at each sample
        rng = np.random.default_rng(seed)
        z = np.append(rng.beta(2.0, 2.0, 500), [0.0, 1.0])
        w = rng.uniform(0.0, 1.0, z.size) if weighted else np.ones(z.size)
        w /= w.sum()
        obj = _Objective(z, ShapeSpec.modes(m), j, w if weighted else None)
        wt = z.size * w  # the likelihood weights
        direction = rng.standard_normal(j)
        direction /= np.linalg.norm(direction)
        c = rng.uniform(0.0, 0.999) * 2.0 * math.pi * direction
        nrm = float(np.linalg.norm(c))
        q = math.cos(nrm) + math.sin(nrm) / nrm * (c @ fourier_basis(j, 1024).b)
        cum = np.concatenate(([0.0], np.cumsum(q[1:] ** 2 + q[:-1] ** 2)))
        gamma = cum / cum[-1]
        knots = np.linspace(0.0, 1.0, obj.n_pieces + 1)

        def exact(u):
            kh = obj.heights(u)[0][obj.knot_levels]
            norm = np.trapezoid(np.interp(gamma, knots, kh), obj.t)
            g = np.interp(np.interp(z, obj.t, gamma), knots, kh)
            return float(wt @ np.log(g)) - wt.sum() * math.log(norm)

        n_u = obj.n_params - j
        random_start = _random_start(obj, rng)[j:]
        for u, bound in [
            (random_start, 1e-3),
            (rng.uniform(-_U_CLIP, _U_CLIP, n_u), 0.05),  # antimodes to ~1e-13
        ]:
            binned = -obj.value_and_grad(np.concatenate((c, u)))[0]
            assert abs(exact(u) - binned) / z.size <= bound


class TestFold:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        j=st.sampled_from([2, 6, 10]),
        r=st.floats(0.0, 4.0 * math.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fold_keeps_the_warp(self, j, r, seed):
        direction = np.random.default_rng(seed).standard_normal(j)
        c = r * direction / np.linalg.norm(direction)
        folded = _fold(c)
        assert np.linalg.norm(folded) <= math.pi / 2.0 + 1e-12
        basis = fourier_basis(j, 1024)
        gamma = coeffs_to_warp(CoefficientVector(c), basis).gamma
        gamma_fold = coeffs_to_warp(CoefficientVector(folded), basis).gamma
        assert np.max(np.abs(gamma - gamma_fold)) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("j", [2, 6, 10])
    def test_multiple_of_pi_folds_to_zero(self, j, k):
        # q = cos(k pi) = +-1 at ||c|| = k pi: the identity warp
        direction = np.random.default_rng([j, k]).standard_normal(j)
        c = k * math.pi * direction / np.linalg.norm(direction)
        assert np.linalg.norm(_fold(c)) <= 1e-14
        basis = fourier_basis(j, 1024)
        gamma = coeffs_to_warp(CoefficientVector(c), basis).gamma
        assert np.max(np.abs(gamma - basis.t)) <= 1e-14


class TestFitFixedJ:
    def test_deterministic(self):
        rng = np.random.default_rng(2)
        z = np.sort(rng.beta(2, 4, 300))
        cfg = FitConfig(shape=ShapeSpec.modes(1), restarts=4, seed=11)
        a = fit_fixed_j(z, 4, cfg)
        b = fit_fixed_j(z, 4, cfg)
        assert np.array_equal(a[0].c, b[0].c)
        assert np.array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_beats_zero_start(self):
        rng = np.random.default_rng(3)
        z = np.sort(rng.beta(2, 4, 300))
        shape = ShapeSpec.modes(1)
        cfg = FitConfig(shape=shape, restarts=4, seed=1)
        _, _, ll, _ = fit_fixed_j(z, 4, cfg)
        ll0 = log_likelihood(z, CoefficientVector(np.zeros(4)), np.empty(0), cfg)
        assert ll >= ll0

    def test_every_j_keeps_requested_modes(self):
        # bimodal benchmark data on which an antimode used to reach its cap
        spec = BENCHMARKS["bimodal"]
        rng = np.random.default_rng([1, 0, 0])
        seed = int(rng.integers(2**31))
        x = spec.true_density.sample(1000, rng)
        cfg = FitConfig(
            shape=spec.shape, restarts=spec.restarts, j_max=spec.j_max, seed=seed
        )
        z = rescale_to_unit(x, *estimate_support(x))
        for j in cfg.j_values():
            c, lam, ll, dens = fit_fixed_j(z, j, cfg)
            ll_kernel, dens_kernel = _kernel(z, c.c, lam, cfg, None)
            assert count_modes(dens) == 2, f"J={j}, lambda={lam}"
            assert math.isfinite(ll) and ll == ll_kernel
            assert np.array_equal(dens.t, dens_kernel.t)
            assert np.array_equal(dens.p, dens_kernel.p)

    def test_wrong_shape_at_zero_warp_raises(self, monkeypatch):
        # every restart's density is checked once, and none passes
        calls = []
        monkeypatch.setattr(estimator, "count_modes", lambda p: calls.append(p) or 0)
        z = np.sort(np.random.default_rng(4).beta(2, 4, 200))
        cfg = FitConfig(shape=ShapeSpec.modes(1), restarts=1)
        with pytest.raises(OptimizationError):
            fit_fixed_j(z, 2, cfg)
        assert len(calls) == cfg.restarts + 1

    def test_falls_back_to_next_ranked_restart(self, monkeypatch):
        # the best restart's density is rejected; the second-ranked restart
        # is returned as the search left it, not shrunk towards c = 0
        real_count = estimator.count_modes
        calls, runs = [], record_searches(monkeypatch)

        def reject_first(p):
            calls.append(p)
            return 0 if len(calls) == 1 else real_count(p)

        monkeypatch.setattr(estimator, "count_modes", reject_first)
        rng = np.random.default_rng(12)
        z = np.concatenate([rng.beta(3, 9, 150), rng.beta(9, 3, 150)])
        cfg = FitConfig(shape=ShapeSpec.modes(2), restarts=3)
        c, lam, ll, _ = fit_fixed_j(z, 4, cfg)

        assert len(calls) == 2
        ranked = sorted(run for run in runs if math.isfinite(run[0]))
        fun, _, theta = ranked[1]
        assert np.array_equal(c.c, _fold(theta[:4]))
        assert ll == -fun
        assert ll == _kernel(z, c.c, lam, cfg, None)[0]

    def test_winner_is_reported_at_its_fold(self, monkeypatch):
        # the best search ends outside ||c|| <= pi/2: the fit reports the
        # fold of its c, with the likelihood at the folded c
        runs = record_searches(monkeypatch)
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(-1.0, 0.5, 100), rng.normal(1.5, 0.6, 100)])
        z = rescale_to_unit(x, *estimate_support(x))
        cfg = FitConfig(shape=ShapeSpec.modes(2), restarts=4, seed=0)
        c, lam, ll, _ = fit_fixed_j(z, 6, cfg)

        fun, _, theta = min(run for run in runs if math.isfinite(run[0]))
        assert np.linalg.norm(theta[:6]) > math.pi / 2.0
        assert np.array_equal(c.c, _fold(theta[:6]))
        assert np.linalg.norm(c.c) <= math.pi / 2.0
        assert ll == log_likelihood(z, c, lam, cfg)
        assert abs(ll + fun) <= 1e-12 * abs(fun)

    def test_self_consistency_on_template_data(self):
        # sample from the M=1 template itself; J=2 fit recovers it closely
        shape = ShapeSpec.modes(1)
        tmpl = build_template(shape, np.empty(0), omega=1e-3, n=4097)
        p = template_density(tmpl)
        cdf = np.concatenate(
            ([0.0], np.cumsum(0.5 * (p.p[1:] + p.p[:-1]) * np.diff(p.t)))
        )
        cdf /= cdf[-1]
        errors = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = np.interp(rng.uniform(0, 1, 5000), cdf, p.t)
            c_hat, lam_hat, _, _ = fit_fixed_j(
                z, 2, FitConfig(shape=shape, restarts=6, seed=seed)
            )
            warp = coeffs_to_warp(c_hat, fourier_basis(2, 4097))
            p_hat = group_action(build_template(shape, lam_hat, 1e-3, 4097), warp)
            l2 = math.sqrt(np.trapezoid((p_hat.p - p.p) ** 2, p.t))
            errors.append(l2)
        assert np.median(errors) <= 0.05


def _bimodal_sample(seed=0, n=200):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(-1.0, 0.5, n // 2), rng.normal(1.5, 0.6, n // 2)])


def _estimate_bytes(est):
    """Everything a fit reports, as bytes: equal bytes mean identical estimates."""
    return [np.asarray(v).tobytes() for v in (
        est.p, est.c_hat.c, est.lambda_hat, est.loglik, est.aic, est.j)]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShares:
    """A J's starts run in forked children, one share per CPU."""

    CFG = FitConfig(shape=ShapeSpec.modes(2), j_max=4, restarts=4, seed=3)

    def fits(self):
        x = _bimodal_sample()
        rng = np.random.default_rng(5)
        xc = rng.uniform(0.0, 1.0, 200)
        yc = rng.normal(np.where(xc < 0.5, -1.0, 1.5), 0.5)
        ccfg = ConditionalFitConfig(base=self.CFG, x0=0.5, neighbor_fraction=0.8)
        return fit(x, self.CFG), fit_conditional(xc, yc, ccfg)

    def one_share_fit(self, monkeypatch):
        monkeypatch.setattr(estimator, "_shares", lambda: 1)
        return self.fit_bytes(monkeypatch)

    def fit_bytes(self, monkeypatch):
        """Bytes of the estimate, and of every search's row at every J."""
        runs = record_searches(monkeypatch)
        est = fit(_bimodal_sample(), self.CFG)
        return _estimate_bytes(est), [np.hstack([fun, x]).tobytes() for fun, _, x in runs]

    def fail_in(self, monkeypatch, where, fail):
        """Two shares, and ``fail()`` runs before every search in the
        caller, in the child, or in both."""
        monkeypatch.setattr(estimator, "_shares", lambda: 2)
        caller, real_minimize = os.getpid(), estimator.minimize

        def failing_minimize(*args, **kwargs):
            if where == "everywhere" or (os.getpid() == caller) == (where == "caller"):
                fail()
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(estimator, "minimize", failing_minimize)

    @pytest.mark.parametrize("shares", [None, 3], ids=["machine", "three"])
    def test_estimates_do_not_depend_on_the_share_count(self, monkeypatch, shares):
        if shares is not None:
            monkeypatch.setattr(estimator, "_shares", lambda: shares)
        many = self.fits()
        assert_no_child_left()
        monkeypatch.setattr(estimator, "_shares", lambda: 1)
        one = self.fits()
        for a, b in zip(many, one):
            assert _estimate_bytes(a) == _estimate_bytes(b)

    def test_runs_come_back_in_start_order(self, monkeypatch):
        # row r is start r's search, as the caller alone would run it, with
        # one process per start: more processes than most hosts have cores
        monkeypatch.setattr(estimator, "_shares", lambda: self.CFG.restarts + 1)
        x = _bimodal_sample()
        obj = _Objective(rescale_to_unit(x, *estimate_support(x)), self.CFG.shape, 2, None)
        rng = np.random.default_rng(0)
        starts = [_random_start(obj, rng) for _ in range(self.CFG.restarts + 1)]
        rows = estimator._run_starts(obj, starts)
        assert_no_child_left()
        for row, start in zip(rows, starts):
            res = estimator.minimize(
                obj.value_and_grad, start, options={"maxiter": estimator.MAXITER}
            )
            assert row[0] == res.fun and np.array_equal(row[1:], res.x)

    @pytest.mark.parametrize("where", ["caller", "everywhere"])
    def test_error_in_a_share_reaches_the_caller(self, monkeypatch, where):
        def fail():
            raise DomainError(f"raised {where}")

        self.fail_in(monkeypatch, where, fail)
        with pytest.raises(DomainError, match=f"raised {where}"):
            fit(_bimodal_sample(), self.CFG)
        assert_no_child_left()

    @pytest.mark.parametrize("error", ["DomainError", "unpicklable"])
    def test_error_only_in_a_child_leaves_the_estimate(self, monkeypatch, error):
        # the caller runs the child's rows itself; an exception of a local
        # class does not pickle, and nothing needs it to
        class Local(Exception):
            pass

        expected = self.one_share_fit(monkeypatch)

        def fail():
            raise DomainError("raised in the child") if error == "DomainError" else Local()

        self.fail_in(monkeypatch, "child", fail)
        assert self.fit_bytes(monkeypatch) == expected
        assert_no_child_left()

    def test_child_killed_mid_share_leaves_the_estimate(self, monkeypatch):
        # the child finishes its share's first search, then dies while it
        # writes the second one's row; the caller runs that row again
        expected = self.one_share_fit(monkeypatch)
        monkeypatch.setattr(estimator, "_shares", lambda: 2)
        caller, real_minimize, searches = os.getpid(), estimator.minimize, []

        class DiesOnReadingItsEndPoint:
            def __init__(self, fun):
                self.fun = fun

            @property
            def x(self):
                os.kill(os.getpid(), signal.SIGKILL)

        def minimize_then_die(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            if os.getpid() != caller:
                searches.append(res)
                if len(searches) == 2:
                    return DiesOnReadingItsEndPoint(res.fun)
            return res

        monkeypatch.setattr(estimator, "minimize", minimize_then_die)
        assert self.fit_bytes(monkeypatch) == expected
        assert_no_child_left()

    def test_fit_in_a_second_thread_runs_one_share(self, monkeypatch):
        expected = fit(_bimodal_sample(), self.CFG)
        got = []

        def no_fork():
            raise AssertionError("forked while another thread runs")

        monkeypatch.setattr(os, "fork", no_fork)
        worker = threading.Thread(
            target=lambda: got.append(fit(_bimodal_sample(), self.CFG))
        )
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive() and len(got) == 1
        assert _estimate_bytes(got[0]) == _estimate_bytes(expected)


class TestFit:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_public_geometry_rebuilds_the_estimate(self, m):
        # coeffs_to_warp integrates q^2 by the kernel's rule, so the warp
        # and template of (c_hat, lambda_hat) give back est.p up to rounding
        rng = np.random.default_rng(m)
        x = np.concatenate([rng.normal(2.5 * k, 0.6, 150) for k in range(m)])
        shape = ShapeSpec.modes(m)
        est = fit(x, FitConfig(shape=shape, restarts=4, j_max=6))
        warp = coeffs_to_warp(est.c_hat, fourier_basis(est.j, 1024))
        tmpl = build_template(shape, est.lambda_hat, estimator.OMEGA, 1024)
        ref = group_action(tmpl, warp).p
        assert np.max(np.abs(est.p - ref)) <= 1e-10 * np.max(est.p)

    def test_writes_to_returned_arrays_leave_later_fits_alone(self):
        # a fit depends on its data and settings alone: arrays a caller got
        # from fourier_basis or coeffs_to_warp are the caller's to change
        rng = np.random.default_rng(21)
        x = np.concatenate([rng.normal(-1.0, 0.5, 100), rng.normal(1.5, 0.6, 100)])
        cfg = FitConfig(shape=ShapeSpec.modes(2), j_max=4, restarts=2)
        first = fit(x, cfg)
        fourier_basis(4, 1024).b[:] = 0.0
        warp = coeffs_to_warp(CoefficientVector(np.zeros(4)), fourier_basis(4, 1024))
        warp.t[:] = np.linspace(0.0, 2.0, 1024)
        again = fit(x, cfg)
        assert np.array_equal(again.p, first.p)
        assert np.array_equal(again.t, first.t)
        assert np.array_equal(again.c_hat.c, first.c_hat.c)
        assert again.loglik == first.loglik and again.j == first.j

    def test_mode_count_enforced_on_uniform_data(self):
        # uniform data, M=1 constraint: estimate must still be unimodal
        z = np.linspace(0.01, 0.99, 200)
        est = fit(z, FitConfig(shape=ShapeSpec.modes(1), restarts=4, seed=3))
        assert count_modes(est.unit_density()) == 1

    def test_constraint_feasibility(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, 300)
        cfg = FitConfig(shape=ShapeSpec.modes(1), restarts=4, seed=0)
        est = fit(x, cfg)
        assert np.linalg.norm(est.c_hat.c) <= math.pi / 2.0 + 1e-12
        z = rescale_to_unit(x, *est.support)
        assert log_likelihood(z, est.c_hat, est.lambda_hat, cfg) == est.loglik

    def test_density_normalized_in_data_units(self):
        rng = np.random.default_rng(7)
        x = rng.normal(1.0, 2.0, 400)
        est = fit(x, FitConfig(shape=ShapeSpec.modes(1), restarts=4, seed=0))
        a, b = est.support
        grid = np.linspace(a, b, 2001)
        assert abs(np.trapezoid(est.pdf(grid), grid) - 1.0) < 1e-6

    def test_aic_prefers_smaller_j_on_tie(self):
        rng = np.random.default_rng(8)
        z = np.sort(rng.beta(2, 2, 150))
        cfg = FitConfig(shape=ShapeSpec.modes(1), restarts=2, seed=4)
        est = fit(z, cfg)
        assert est.j in cfg.j_values()

    def test_j_without_candidate_drops_out(self, monkeypatch):
        real = estimator.fit_fixed_j

        def fail_at_2(z, j, cfg, weights=None):
            if j == 2:
                raise OptimizationError("no candidate")
            return real(z, j, cfg, weights)

        monkeypatch.setattr(estimator, "fit_fixed_j", fail_at_2)
        z = np.sort(np.random.default_rng(8).beta(2, 2, 150))
        cfg = FitConfig(shape=ShapeSpec.modes(1), restarts=1, j_max=4)
        assert fit(z, cfg).j == 4
        with pytest.raises(OptimizationError):
            fit(z, FitConfig(shape=ShapeSpec.modes(1), restarts=1, j_max=2))

    def test_small_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            fit(np.array([0.1, 0.2, 0.3]), FitConfig(shape=ShapeSpec.modes(1)))

    @pytest.mark.parametrize("shape", [(20, 2), (1, 20)])
    def test_non_1d_sample_rejected(self, shape):
        x = np.random.default_rng(15).random(shape)
        with pytest.raises(DegenerateSampleError, match="1-D"):
            fit(x, FitConfig(shape=ShapeSpec.modes(1), restarts=1))

    @pytest.mark.parametrize(
        "weights, match",
        [
            (np.full((50, 1), 0.02), "1-D"),
            (np.full(49, 1.0 / 49.0), "one weight per sample"),
            (np.where(np.arange(50) == 3, np.nan, 0.02), "finite"),
            (np.where(np.arange(50) == 3, np.inf, 0.02), "finite"),
            (np.array([-0.02, 0.06] + [0.02] * 48), "non-negative"),
            (np.zeros(50), "sum to 1"),
            (np.full(50, 0.04), "sum to 1"),
        ],
        ids=["2-d", "length", "nan", "inf", "negative", "all-zero", "sum-2"],
    )
    def test_invalid_weights_rejected(self, weights, match):
        x = np.random.default_rng(14).normal(0, 1, 50)
        with pytest.raises(DomainError, match=match):
            fit(x, FitConfig(shape=ShapeSpec.modes(1), restarts=1), weights=weights)

    @pytest.mark.parametrize(
        "bad, support",
        [(np.nan, None), (np.nan, (-5.0, 5.0)), (np.inf, None)],
        ids=["nan", "nan-with-support", "inf"],
    )
    def test_non_finite_sample_rejected(self, bad, support):
        x = np.random.default_rng(11).normal(0, 1, 50)
        x[3] = bad
        cfg = FitConfig(shape=ShapeSpec.modes(1), support=support)
        with pytest.raises(DegenerateSampleError, match="finite"):
            fit(x, cfg)

    @pytest.mark.parametrize("pieces", [("dec", "inc"), ("inc", "dec", "inc")])
    def test_boundary_mode_is_free(self, pieces):
        # the right boundary mode is a free height: its antimode stays
        # positive and below both neighboring modes
        x = np.random.default_rng(0).beta(0.6, 2.5, 400)
        est = fit(x, FitConfig(shape=ShapeSpec(pieces), restarts=4, j_max=4))
        assert math.isfinite(est.loglik)
        antimode, boundary_mode = est.lambda_hat
        assert 0.0 < antimode < min(1.0, boundary_mode)
        assert count_modes(est.unit_density()) == 2

    def test_u_shaped_data_fit_with_free_right_mode(self):
        # symmetric U-shaped data: the right mode must be able to match the
        # left one rather than sit at the floor omega
        x = np.random.default_rng(1).beta(0.6, 0.6, 1000)
        cfg = FitConfig(
            shape=ShapeSpec(("dec", "inc")), support=(0.0, 1.0), restarts=4, seed=1
        )
        est = fit(x, cfg)
        assert est.p[-1] / est.p[0] > 0.5
        assert count_modes(est.unit_density()) == 2

    def test_bimodal_recovery(self):
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.normal(-1, 1.0, 150), rng.normal(1, 0.55, 300)])
        est = fit(x, FitConfig(shape=ShapeSpec.modes(2), restarts=8, seed=1))
        p = est.unit_density()
        assert count_modes(p) == 2

    def test_deep_gap_is_not_filled(self):
        # binning interpolates log p linearly between grid points, which
        # overstates the likelihood of a sample in a sharp trough; the fit
        # must still find the truth's gap (density ~1e-8 at 0), not fill it
        truth = normal_mixture((0.5, -3.0, 0.25), (0.5, 3.0, 0.25))
        l2 = []
        for rep in range(4):  # seeded as bench replicates 0-3 at seed 0
            rng = np.random.default_rng([0, rep])
            cfg = FitConfig(
                shape=ShapeSpec.modes(2), restarts=8, seed=int(rng.integers(2**31))
            )
            est = fit(truth.sample(1000, rng), cfg)
            l2.append(error_norms(est, truth)[1])
            assert est.pdf(np.linspace(-2.0, 2.0, 401)).min() <= 1e-4, rep
        assert np.median(l2) <= 0.09


def test_grid_density_validation():
    t = unit_grid(101)
    one_nan = np.ones(101)
    one_nan[50] = np.nan
    for p in (
        np.full(101, 2.0),  # integrates to 2
        np.full(101, np.nan),
        one_nan,
        np.full(101, np.inf),
    ):
        with pytest.raises(ShapeError):
            GridDensity(t, p)
