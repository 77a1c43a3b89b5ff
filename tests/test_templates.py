"""Tests for templates, the group action, and the constructive oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from warpdens import (
    CoefficientVector,
    ConstraintError,
    GridDensity,
    ShapeError,
    ShapeSpec,
    build_template,
    coeffs_to_warp,
    count_modes,
    fourier_basis,
    group_action,
    height_ratios_of,
    oracle_reconstruct_warp,
    template_density,
    unit_grid,
)
from warpdens.templates import MODE_TOL, critical_points

N = 4097  # 2M*k+1 keeps the template knots on grid points for M in {1, 2}


def bimodal_beta_mix(t):
    """Smooth Figure-2-style bimodal density on [0, 1]."""
    return 0.6 * stats.beta.pdf(t, 5, 12) + 0.4 * stats.beta.pdf(t, 12, 5)


def density(vals):
    vals = np.asarray(vals, float)
    return GridDensity.from_values(unit_grid(vals.size), vals)


def reference_scan(vals):
    """Interior extrema and mode count from one plain-Python walk of the grid.

    Steps no larger than MODE_TOL * max|vals| are flat; each turn of the
    sign of the other steps is an extremum at the best point of the
    plateau between them, and a first step that falls or a last one that
    rises is a mode at that end.
    """
    vals = [float(v) for v in vals]
    tol = MODE_TOL * max(abs(v) for v in vals)
    points, rising, start, ends = [], None, 0, 0
    for i in range(len(vals) - 1):
        d = vals[i + 1] - vals[i]
        if abs(d) <= tol:
            continue
        if rising is None:
            ends += d < 0
        elif rising != (d > 0):
            plateau = range(start, i + 1)
            if rising:
                points.append((max(plateau, key=vals.__getitem__), "max"))
            else:
                points.append((min(plateau, key=vals.__getitem__), "min"))
        rising, start = d > 0, i + 1
    ends += rising is True
    return points, ends + sum(kind == "max" for _, kind in points)


class TestShapeSpec:
    def test_modes_constructor(self):
        s = ShapeSpec.modes(2)
        assert s.pieces == ("inc", "dec", "inc", "dec")
        assert s.n_modes == 2
        assert len(s.free_levels) == 2

    def test_unimodal_has_no_free_lambda(self):
        assert ShapeSpec.modes(1).free_levels == []

    def test_knots_equal_width(self):
        s = ShapeSpec.modes(3)
        assert np.allclose(s.knots, np.linspace(0, 1, 7))

    def test_flat_sequence_levels(self):
        s = ShapeSpec(("inc", "flat", "dec"))
        lv = s.levels
        roles = [l.role for l in lv]
        assert roles == ["low", "high", "low"]
        assert s.n_modes == 1

    def test_invalid_piece_rejected(self):
        with pytest.raises(ShapeError):
            ShapeSpec(("inc", "up"))


class TestBuildTemplate:
    def test_m1_triangle(self):
        # [PAPER]: first mode height 1, boundary floor omega
        tmpl = build_template(
            ShapeSpec.modes(1), np.empty(0), omega=0.001, n=N
        )
        assert np.allclose(tmpl.knot_heights, [0.001, 1.0, 0.001])
        mid = (N - 1) // 2
        assert tmpl.g[0] == 0.001 and abs(tmpl.g[mid] - 1.0) < 1e-12

    def test_m2_heights(self):
        # [TRIVIAL]: heights at knots (0,.25,.5,.75,1) are (w,1,.3,.8,w)
        tmpl = build_template(
            ShapeSpec.modes(2), np.array([0.3, 0.8]), omega=1e-3, n=N
        )
        assert np.allclose(tmpl.knot_heights, [1e-3, 1.0, 0.3, 0.8, 1e-3])

    def test_flat_plateau_at_one(self):
        tmpl = build_template(
            ShapeSpec(("inc", "flat", "dec")), np.empty(0), omega=1e-3, n=N
        )
        t = tmpl.t
        inside = (t > 1 / 3 + 1e-9) & (t < 2 / 3 - 1e-9)
        assert np.allclose(tmpl.g[inside], 1.0)

    def test_lambda_violating_shape_rejected(self):
        # antimode above the neighboring peaks
        with pytest.raises(ConstraintError):
            build_template(ShapeSpec.modes(2), np.array([1.5, 0.8]), omega=1e-3, n=N)
        for lam in ([0.5, np.inf], [0.5, np.nan], [np.nan, 0.8]):
            with pytest.raises(ConstraintError, match="finite"):
                build_template(ShapeSpec.modes(2), np.array(lam), omega=1e-3, n=N)

    def test_template_density_normalizes(self):
        p = template_density(
            build_template(ShapeSpec.modes(2), np.array([0.4, 0.9]), omega=1e-3, n=N)
        )
        assert abs(np.trapezoid(p.p, p.t) - 1.0) < 1e-9


class TestCountModes:
    def test_triangle(self):
        p = template_density(build_template(ShapeSpec.modes(1), np.empty(0), 1e-3, N))
        assert count_modes(p) == 1

    def test_three_modes(self):
        p = template_density(
            build_template(ShapeSpec.modes(3), np.array([0.2, 0.9, 0.3, 0.7]), 1e-3, N)
        )
        assert count_modes(p) == 3

    def test_flat_plateau_counts_once(self):
        p = template_density(
            build_template(ShapeSpec(("inc", "flat", "dec")), np.empty(0), 1e-3, N)
        )
        assert count_modes(p) == 1

    def test_smooth_bimodal(self):
        t = unit_grid(N)
        p = GridDensity.from_values(t, bimodal_beta_mix(t))
        assert count_modes(p) == 2

    @pytest.mark.parametrize(
        "pieces, modes, points",
        [
            (("dec", "inc", "dec"), 2, ["min", "max"]),
            (("inc", "dec", "inc"), 2, ["max", "min"]),
            (("dec",), 1, []),
        ],
        ids=["dec,inc,dec", "inc,dec,inc", "dec"],
    )
    def test_boundary_modes_count_but_are_not_located(self, pieces, modes, points):
        # a density that falls from its left end or rises to its right end
        # has a mode there; critical_points lists interior turns only
        shape = ShapeSpec(pieces)
        lam = [0.3, 0.8][: len(shape.free_levels)]
        p = template_density(build_template(shape, lam, omega=0.01, n=257))
        assert count_modes(p) == modes
        cps = critical_points(p)
        assert [kind for _, kind in cps] == points
        assert all(0 < i < 256 for i, _ in cps)

    def test_all_flat_has_no_mode(self):
        p = density(np.ones(64))
        assert count_modes(p) == 0
        assert critical_points(p) == []

    @pytest.mark.parametrize("margin, modes", [(-1e-10, 1), (1e-10, 17)])
    def test_plateau_wiggles_below_tolerance_are_flat(self, margin, modes):
        # a rise, a plateau whose steps alternate +-w, a fall; w is 1e-10
        # below or above the tolerance relative to the top of the plateau
        w = MODE_TOL + margin
        top = 1.0 + w
        rise, fall = np.linspace(0.0, 1.0, 20), np.linspace(1.0, 0.0, 20)
        vals = np.concatenate([rise, np.tile([1.0, top], 17), fall])
        p = density(vals)
        assert count_modes(p) == modes
        if margin < 0:
            cps = critical_points(p)
            assert len(cps) == 1 and cps[0][1] == "max"
            assert p.p[cps[0][0]] == np.max(p.p)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        steps=st.lists(
            st.sampled_from([-1.0, -0.25, -1e-9, 0.0, 0.0, 1e-9, 0.25, 1.0]),
            min_size=1,
            max_size=40,
        ),
        floor=st.sampled_from([0.0, 0.5]),
    )
    def test_matches_plain_python_scan(self, steps, floor):
        vals = np.concatenate([[0.0], np.cumsum(steps)])
        vals = vals - vals.min() + floor
        if not vals.any():
            vals += 1.0
        p = density(vals)
        points, modes = reference_scan(p.p)
        assert critical_points(p) == points
        assert count_modes(p) == modes


class TestHeightRatios:
    def test_template_round_trip(self):
        lam = np.array([0.3, 0.8])
        p = template_density(build_template(ShapeSpec.modes(2), lam, 1e-3, N))
        assert np.allclose(height_ratios_of(p), lam, atol=1e-9)

    def test_symmetric_bimodal_half_valley(self):
        # equal peaks, valley at half height => lambda = (0.5, 1.0)
        lam = np.array([0.5, 1.0])
        p = template_density(build_template(ShapeSpec.modes(2), lam, 1e-3, N))
        assert np.allclose(height_ratios_of(p), lam, atol=1e-9)


class TestGroupAction:
    def setup_method(self):
        self.t = unit_grid(N)
        self.rng = np.random.default_rng(23)
        self.basis = fourier_basis(6, N)

    def random_warp(self):
        return coeffs_to_warp(
            CoefficientVector(self.rng.normal(0.0, 0.25, 6)), self.basis
        )

    def test_identity_action(self):
        p = GridDensity.from_values(self.t, bimodal_beta_mix(self.t))
        from warpdens import WarpingGrid

        out = group_action(p, WarpingGrid(self.t, self.t))
        assert np.max(np.abs(out.p - p.p)) < 1e-8

    def test_output_normalized(self):
        p = GridDensity.from_values(self.t, bimodal_beta_mix(self.t))
        out = group_action(p, self.random_warp())
        assert abs(np.trapezoid(out.p, out.t) - 1.0) < 1e-8

    def test_mode_count_preserved(self):
        p = GridDensity.from_values(self.t, bimodal_beta_mix(self.t))
        for _ in range(10):
            out = group_action(p, self.random_warp())
            assert count_modes(out) == 2

    def test_height_ratios_preserved(self):
        # Theorem 1: lambda is invariant under the action
        p = GridDensity.from_values(self.t, bimodal_beta_mix(self.t))
        lam0 = height_ratios_of(p, refine=True)
        for _ in range(10):
            out = group_action(p, self.random_warp())
            lam = height_ratios_of(out, refine=True)
            assert np.max(np.abs(lam - lam0) / lam0) < 1e-4

    def test_compatibility(self):
        # (p, g1 o g2) = ((p, g1), g2)
        from warpdens import compose

        p = GridDensity.from_values(self.t, bimodal_beta_mix(self.t))
        g1, g2 = self.random_warp(), self.random_warp()
        lhs = group_action(group_action(p, g1), g2)
        rhs = group_action(p, compose(g1, g2))
        assert np.max(np.abs(lhs.p - rhs.p)) < 1e-4


class TestOracle:
    def test_template_input_gives_identity(self):
        shape = ShapeSpec.modes(2)
        lam = np.array([0.35, 0.7])
        p = template_density(build_template(shape, lam, omega=0.0, n=N))
        warp, lam_hat = oracle_reconstruct_warp(p, shape)
        assert np.max(np.abs(warp.gamma - warp.t)) < 1e-6
        assert np.allclose(lam_hat, lam, atol=1e-9)

    def test_beta22_reconstruction(self):
        t = unit_grid(N)
        p = GridDensity.from_values(t, stats.beta.pdf(t, 2, 2))
        shape = ShapeSpec.modes(1)
        warp, lam = oracle_reconstruct_warp(p, shape)
        recon = group_action(build_template(shape, lam, omega=0.0, n=N), warp)
        assert np.max(np.abs(recon.p - p.p)) <= 1e-3

    def test_bimodal_reconstruction(self):
        t = unit_grid(N)
        p = GridDensity.from_values(t, bimodal_beta_mix(t))
        shape = ShapeSpec.modes(2)
        warp, lam = oracle_reconstruct_warp(p, shape)
        recon = group_action(build_template(shape, lam, omega=0.0, n=N), warp)
        assert np.max(np.abs(recon.p - p.p)) <= 1e-3

    @pytest.mark.parametrize("mirror", [False, True], ids=["zero-tail", "zero-head"])
    def test_triangle_with_flat_zero_end(self, mirror):
        # a triangle on [0, 0.8] with zeros on (0.8, 1]: the flat end is no
        # antimode, so the density is plain unimodal
        t = unit_grid(1025)
        vals = np.interp(t, [0.0, 0.4, 0.8, 1.0], [0.0, 1.0, 0.0, 0.0])
        p = density(vals[::-1] if mirror else vals)
        shape = ShapeSpec.modes(1)
        assert count_modes(p) == 1
        assert height_ratios_of(p).size == 0
        warp, lam = oracle_reconstruct_warp(p, shape)
        recon = group_action(build_template(shape, lam, omega=0.0, n=t.size), warp)
        assert np.max(np.abs(recon.p - p.p)) <= 1e-9

    def test_mode_mismatch_rejected(self):
        t = unit_grid(N)
        p = GridDensity.from_values(t, bimodal_beta_mix(t))
        with pytest.raises(ShapeError):
            oracle_reconstruct_warp(p, ShapeSpec.modes(1))

    @pytest.mark.parametrize(
        "pieces", [("dec",), ("dec", "inc"), ("inc", "dec", "inc")], ids=",".join
    )
    def test_boundary_mode_rejected(self, pieces):
        # the oracle recovers interior critical heights only, so a template
        # of the very shape is refused with a ShapeError
        shape = ShapeSpec(pieces)
        lam = [0.3, 0.8][: len(shape.free_levels)]
        p = template_density(build_template(shape, lam, omega=0.01, n=N))
        with pytest.raises(ShapeError, match="boundary mode"):
            oracle_reconstruct_warp(p, shape)
