"""Tests for templates, the group action, and the constructive oracle."""

import numpy as np
import pytest
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

N = 4097  # 2M*k+1 keeps the template knots on grid points for M in {1, 2}


def bimodal_beta_mix(t):
    """Smooth Figure-2-style bimodal density on [0, 1]."""
    return 0.6 * stats.beta.pdf(t, 5, 12) + 0.4 * stats.beta.pdf(t, 12, 5)


class TestShapeSpec:
    def test_modes_constructor(self):
        s = ShapeSpec.modes(2)
        assert s.pieces == ("inc", "dec", "inc", "dec")
        assert s.n_modes == 2
        assert s.n_lambda() == 2

    def test_unimodal_has_no_free_lambda(self):
        assert ShapeSpec.modes(1).n_lambda() == 0

    def test_knots_equal_width(self):
        s = ShapeSpec.modes(3)
        assert np.allclose(s.knots, np.linspace(0, 1, 7))

    def test_flat_sequence_levels(self):
        s = ShapeSpec(("inc", "flat", "dec"))
        lv = s.levels()
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
        lam = [0.3, 0.8][: shape.n_lambda()]
        p = template_density(build_template(shape, lam, omega=0.01, n=N))
        with pytest.raises(ShapeError, match="boundary mode"):
            oracle_reconstruct_warp(p, shape)
