"""Tests for the sphere/warp geometry layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from warpdens import (
    BasisSet,
    CoefficientVector,
    DomainError,
    InvalidSrsfError,
    InvalidWarpError,
    SrsfGrid,
    TangentVector,
    WarpingGrid,
    coeffs_to_warp,
    compose,
    exp_map,
    fourier_basis,
    inv_exp_map,
    srsf,
    srsf_inverse,
    unit_grid,
    warp_to_coeffs,
)
from warpdens.estimator import _fold

N = 4096
T = unit_grid(N)


def random_warp(rng, j=8, scale=0.25):
    """A valid random warp synthesized from a small coefficient vector."""
    c = rng.normal(0.0, scale, j)
    return coeffs_to_warp(CoefficientVector(c), fourier_basis(j, N))


class TestWarpingGrid:
    def test_identity_is_valid(self):
        w = WarpingGrid(T, T)
        assert w.gamma[0] == 0.0 and w.gamma[-1] == 1.0

    def test_non_monotone_rejected(self):
        g = T.copy()
        g[100], g[101] = g[101], g[100]
        with pytest.raises(InvalidWarpError):
            WarpingGrid(T, g)

    def test_bad_endpoint_rejected(self):
        with pytest.raises(InvalidWarpError):
            WarpingGrid(T, 0.5 * T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        g = T.copy()
        g[5] = bad
        with pytest.raises(InvalidWarpError, match="finite"):
            WarpingGrid(T, g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_srsf_rejected(self, bad):
        q = np.ones(N)
        q[5] = bad
        with pytest.raises(InvalidSrsfError, match="finite"):
            SrsfGrid(T, q)


class TestSrsf:
    def test_identity_warp(self):
        # gamma(t) = t  =>  q = 1  [spec TRIVIAL]
        q = srsf(WarpingGrid(T, T))
        assert np.max(np.abs(q.q - 1.0)) < 1e-10

    def test_quadratic_warp(self):
        # gamma(t) = t^2  =>  q = sqrt(2t)  [spec DERIVED]
        q = srsf(WarpingGrid(T, T**2))
        expect = np.sqrt(2.0 * T)
        assert np.max(np.abs(q.q - expect)) < 1e-4

    def test_exponential_warp_closed_form(self):
        # gamma = (e^{kt}-1)/(e^k-1), k=1: q = sqrt(k e^{kt}/(e^k-1))
        k = 1.0
        gamma = (np.exp(k * T) - 1.0) / (np.exp(k) - 1.0)
        q = srsf(WarpingGrid(T, gamma))
        expect = np.sqrt(k * np.exp(k * T) / (np.exp(k) - 1.0))
        assert np.max(np.abs(q.q - expect)) < 1e-6

    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = srsf(random_warp(rng))
            nrm = np.sqrt(np.trapezoid(q.q**2, T))
            assert abs(nrm - 1.0) < 1e-6


class TestSrsfInverse:
    def test_constant_srsf(self):
        # q = 1  =>  gamma(t) = t
        g = srsf_inverse(SrsfGrid(T, np.ones(N)))
        assert np.max(np.abs(g.gamma - T)) < 1e-10

    def test_sqrt_srsf(self):
        # q = sqrt(2t)  =>  gamma(t) = t^2
        q = np.sqrt(2.0 * T)
        q = q / np.sqrt(np.trapezoid(q**2, T))
        g = srsf_inverse(SrsfGrid(T, q))
        assert np.max(np.abs(g.gamma - T**2)) < 1e-6

    def test_non_uniform_grid_rejected(self):
        # the trapezoid rule of warp_integral weights every step equally
        with pytest.raises(InvalidSrsfError, match="uniform"):
            srsf_inverse(SrsfGrid(T**2, np.ones(N)))

    def test_endpoints_pinned(self):
        rng = np.random.default_rng(4)
        g = srsf_inverse(srsf(random_warp(rng)))
        assert g.gamma[0] == 0.0 and g.gamma[-1] == 1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidSrsfError):
            SrsfGrid(T, np.zeros(N))


class TestRoundTrips:
    def test_srsf_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = random_warp(rng)
            back = srsf_inverse(srsf(w))
            assert np.max(np.abs(back.gamma - w.gamma)) <= 1e-6

    def test_exp_inv_exp_round_trip(self):
        rng = np.random.default_rng(8)
        basis = fourier_basis(8, N)
        for _ in range(20):
            c = rng.normal(0.0, 0.2, 8)
            v = TangentVector(T, c @ basis.b)
            if v.norm >= math.pi / 2:
                continue
            q = exp_map(v)
            if np.min(q.q) < 0:
                continue
            back = inv_exp_map(q)
            assert np.max(np.abs(back.v - v.v)) <= 1e-6

    def test_coefficient_round_trip(self):
        # H(G(c)) = c for small-norm c  [spec: <= 1e-4]
        rng = np.random.default_rng(9)
        basis = fourier_basis(8, N)
        for _ in range(10):
            c = rng.normal(0.0, 0.1, 8)
            w = coeffs_to_warp(CoefficientVector(c), basis)
            c_back = warp_to_coeffs(w, basis)
            assert np.max(np.abs(c_back.c - c)) <= 1e-4


class TestExpMap:
    def test_zero_vector(self):
        q = exp_map(TangentVector(T, np.zeros(N)))
        assert np.max(np.abs(q.q - 1.0)) < 1e-12

    def test_unit_norm_on_sphere(self):
        rng = np.random.default_rng(11)
        basis = fourier_basis(6, N)
        for _ in range(100):
            c = rng.normal(0.0, 0.5, 6)
            v = c @ basis.b
            nrm = np.sqrt(np.trapezoid(v**2, T))
            if nrm == 0 or nrm > 2 * math.pi:
                continue
            q = exp_map(TangentVector(T, v))
            assert abs(np.sqrt(np.trapezoid(q.q**2, T)) - 1.0) < 1e-8


class TestInvExpMap:
    def test_constant_one(self):
        v = inv_exp_map(SrsfGrid(T, np.ones(N)))
        assert np.max(np.abs(v.v)) < 1e-12

    def test_arc_length_matches_analytic(self):
        # q = sqrt(2t): theta = arccos(int sqrt(2t) dt) = arccos(2 sqrt(2) / 3)
        q = np.sqrt(2.0 * T)
        q = q / np.sqrt(np.trapezoid(q**2, T))
        v = inv_exp_map(SrsfGrid(T, q))
        theta = math.acos(2.0 * math.sqrt(2.0) / 3.0)
        assert abs(v.norm - theta) < 1e-4

    def test_tangent_is_zero_mean(self):
        rng = np.random.default_rng(13)
        q = srsf(random_warp(rng))
        v = inv_exp_map(q)
        assert abs(np.trapezoid(v.v, T)) < 1e-8


class TestFourierBasis:
    def test_first_element(self):
        b = fourier_basis(1, N)
        expect = math.sqrt(2.0) * np.sin(2.0 * math.pi * T)
        assert np.max(np.abs(b.b[0] - expect)) < 1e-12

    def test_gram_identity(self):
        b = fourier_basis(8, N).b
        gram = np.empty((8, 8))
        for i in range(8):
            for k in range(8):
                gram[i, k] = np.trapezoid(b[i] * b[k], T)
        assert np.max(np.abs(gram - np.eye(8))) < 1e-6

    def test_zero_mean(self):
        b = fourier_basis(8, N).b
        for row in b:
            assert abs(np.trapezoid(row, T)) < 1e-10

    def test_bad_j(self):
        with pytest.raises(DomainError):
            fourier_basis(0, N)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        j=st.integers(1, 12),
        n=st.one_of(st.integers(5, 64), st.sampled_from([1024, 4097])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_orthonormal_exactly_on_accepted_grids(self, j, n, seed):
        # the trapezoid rule integrates frequencies up to K = ceil(j/2)
        # exactly when n >= 2K + 2; coarser grids alias the family
        if n < 2 * math.ceil(j / 2) + 2:
            with pytest.raises(DomainError, match="alias"):
                fourier_basis(j, n)
            return
        b = fourier_basis(j, n)
        t = unit_grid(n)
        gram = np.trapezoid(b.b[:, None, :] * b.b[None, :, :], t, axis=2)
        assert np.max(np.abs(gram - np.eye(j))) < 1e-12
        c = np.random.default_rng(seed).normal(0.0, 1.0, j)
        v_norm = math.sqrt(np.trapezoid((c @ b.b) ** 2, t))
        assert abs(v_norm - np.linalg.norm(c)) <= 1e-12 * np.linalg.norm(c)


class TestCoeffsToWarp:
    def test_zero_coeffs_identity(self):
        w = coeffs_to_warp(CoefficientVector(np.zeros(4)), fourier_basis(4, N))
        assert np.max(np.abs(w.gamma - T)) < 1e-10

    def test_single_coefficient_valid_warp(self):
        c = np.zeros(4)
        c[0] = 0.5
        w = coeffs_to_warp(CoefficientVector(c), fourier_basis(4, N))
        assert w.gamma[0] == 0.0 and w.gamma[-1] == 1.0
        assert np.all(np.diff(w.gamma) > 0)

    def test_norm_beyond_2pi_gives_the_warp_of_its_fold(self):
        # gamma depends on q^2 only: ||c|| = 2 pi + 0.5 is the warp at 0.5
        c = np.zeros(2)
        c[0] = 2.0 * math.pi + 0.5
        basis = fourier_basis(2, N)
        w = coeffs_to_warp(CoefficientVector(c), basis)
        w_fold = coeffs_to_warp(CoefficientVector(_fold(c)), basis)
        assert np.max(np.abs(w.gamma - w_fold.gamma)) <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            coeffs_to_warp(CoefficientVector([bad, 0.0]), fourier_basis(2, N))


class TestWarpToCoeffs:
    def test_identity_gives_zero(self):
        c = warp_to_coeffs(WarpingGrid(T, T), fourier_basis(6, N))
        assert np.max(np.abs(c.c)) < 1e-10

    def test_truncation_error_decreases_with_j(self):
        rng = np.random.default_rng(17)
        c0 = rng.normal(0.0, 0.15, 8)
        w = coeffs_to_warp(CoefficientVector(c0), fourier_basis(8, N))
        errors = []
        for j in (2, 4, 6, 8):
            c = warp_to_coeffs(w, fourier_basis(j, N))
            back = coeffs_to_warp(c, fourier_basis(j, N))
            errors.append(np.max(np.abs(back.gamma - w.gamma)))
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


def test_compose_identity():
    rng = np.random.default_rng(19)
    w = random_warp(rng)
    ident = WarpingGrid(T, T)
    out = compose(w, ident)
    assert np.max(np.abs(out.gamma - w.gamma)) < 1e-8


@pytest.mark.parametrize("n", [5, 1024, 4097])
def test_srsf_inverse_matches_scipy_cumulative_trapezoid(n):
    t = unit_grid(n)
    q = np.sqrt(np.random.default_rng(n).uniform(0.1, 3.0, n))
    q /= np.sqrt(np.trapezoid(q * q, t))
    want = cumulative_trapezoid(q * q, t, initial=0.0)
    want /= want[-1]
    got = srsf_inverse(SrsfGrid(t, q)).gamma
    assert np.max(np.abs(got - want)) <= 1e-12
