"""Tests for the spectral field layer: transforms, operators, evaluation, IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svns import fields as F

TWO_PI = 2.0 * np.pi


def random_field(grid, seed, kmax=None):
    """Seeded random real field, optionally band-limited to |k_i| <= kmax."""
    rng = np.random.default_rng(seed)
    f = F.transform(grid, rng.standard_normal((grid.n, grid.n)))
    if kmax is not None:
        keep = (np.abs(grid.k1) <= kmax) & (np.abs(grid.k2) <= kmax)
        f = F.SpectralField(grid, f.coeffs * keep)
    return f


class TestTorusGrid:
    def test_rejects_odd_or_tiny_sizes(self):
        """Grid size must be even and at least 4."""
        with pytest.raises(ValueError, match="even"):
            F.TorusGrid(7)
        with pytest.raises(ValueError, match="even"):
            F.TorusGrid(2)

    def test_wavenumber_layout(self):
        """Wavenumbers are integers in [-n/2, n/2) in FFT order."""
        g = F.TorusGrid(8)
        assert list(g.k) == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_dealias_mask_keeps_two_thirds(self):
        """2/3 rule on n = 32 keeps |k_i| <= 10 and zeroes |k_i| >= 11."""
        g = F.TorusGrid(32)
        keep = np.abs(g.k) < g.n / 3.0
        assert np.max(np.abs(g.k[keep])) == 10
        assert g.dealias_mask[list(g.k).index(10), 0]
        assert not g.dealias_mask[list(g.k).index(11), 0]

    def test_grid_equality_is_resolution(self):
        assert F.TorusGrid(16) == F.TorusGrid(16)
        assert F.TorusGrid(16) != F.TorusGrid(32)


class TestTransforms:
    def test_single_mode_coefficients(self):
        """sin(x1) transforms to u_hat(1,0) = -i/2 and u_hat(-1,0) = +i/2."""
        g = F.TorusGrid(32)
        f = F.transform(g, np.sin(g.x1))
        i1 = list(g.k).index(1)
        im1 = list(g.k).index(-1)
        assert abs(f.coeffs[i1, 0] - (-0.5j)) < 1e-14
        assert abs(f.coeffs[im1, 0] - (+0.5j)) < 1e-14
        # every other mode vanishes
        other = f.coeffs.copy()
        other[i1, 0] = other[im1, 0] = 0.0
        assert np.max(np.abs(other)) < 1e-14

    def test_round_trip(self):
        """transform then inverse_transform reproduces grid values to 1e-12."""
        g = F.TorusGrid(32)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((g.n, g.n))
        back = F.inverse_transform(F.transform(g, u))
        assert np.max(np.abs(back - u)) < 1e-12

    def test_mean_mode_is_spatial_mean(self):
        g = F.TorusGrid(16)
        u = 2.5 + np.sin(g.x1) * np.cos(g.x2)
        f = F.transform(g, u)
        assert abs(F.mean_value(f) - 2.5) < 1e-13

    def test_conjugate_symmetry_of_real_fields(self):
        """Real input gives u_hat(-k) = conj(u_hat(k)) to roundoff."""
        f = random_field(F.TorusGrid(32), seed=11)
        assert F.conjugate_defect(f.coeffs) < 1e-12

    def test_enforce_conjugate_symmetry_projects(self):
        """Symmetrization leaves symmetric arrays alone and fixes broken ones."""
        g = F.TorusGrid(16)
        f = random_field(g, seed=4)
        sym = F.enforce_conjugate_symmetry(f.coeffs)
        assert np.max(np.abs(sym - f.coeffs)) < 1e-13
        broken = f.coeffs.copy()
        broken[3, 5] += 0.3j
        fixed = F.enforce_conjugate_symmetry(broken)
        assert F.conjugate_defect(fixed) < 1e-13

    def test_parseval_identity(self):
        """Grid quadrature of u^2 equals (2 pi)^2 sum |u_hat|^2 for random fields."""
        g = F.TorusGrid(32)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            u = rng.standard_normal((g.n, g.n))
            f = F.transform(g, u)
            quad = np.mean(u**2) * TWO_PI**2
            assert abs(F.parseval_integral(f.coeffs) - quad) < 1e-10 * max(1.0, quad)


class TestOperators:
    def test_gradient_of_plane_wave(self):
        """grad cos(x1 + 2 x2) = (-sin, -2 sin)(x1 + 2 x2)."""
        g = F.TorusGrid(32)
        f = F.transform(g, np.cos(g.x1 + 2 * g.x2))
        grad = F.gradient(f).values()
        s = np.sin(g.x1 + 2 * g.x2)
        assert np.max(np.abs(grad[0] + s)) < 1e-12
        assert np.max(np.abs(grad[1] + 2 * s)) < 1e-12

    def test_laplacian_eigenvalue(self):
        """Delta e_k = -|k|^2 e_k for k = (3, -1)."""
        g = F.TorusGrid(32)
        f = F.transform(g, np.cos(3 * g.x1 - g.x2))
        lap = F.laplacian(f).values()
        assert np.max(np.abs(lap + 10 * np.cos(3 * g.x1 - g.x2))) < 1e-11

    def test_divergence_of_gradient_is_laplacian(self):
        g = F.TorusGrid(32)
        f = random_field(g, seed=9, kmax=8)
        d = F.divergence(F.gradient(f))
        assert np.max(np.abs(d.coeffs - F.laplacian(f).coeffs)) < 1e-12

    def test_jacobian_matrix_entries(self):
        """Entry [i, j] of the velocity Jacobian is d v_i / d x_j."""
        g = F.TorusGrid(32)
        vals = np.stack([np.sin(g.x1) * np.cos(g.x2), np.cos(g.x1) * np.sin(g.x2)])
        v = F.vector_transform(g, vals)
        jac = F.jacobian_matrix(v)
        j01 = F._ifft(jac[0, 1])
        assert np.max(np.abs(j01 + np.sin(g.x1) * np.sin(g.x2))) < 1e-12
        j10 = F._ifft(jac[1, 0])
        assert np.max(np.abs(j10 + np.sin(g.x1) * np.sin(g.x2))) < 1e-12

    def test_leray_hand_example(self):
        """At k = (1,1), v_hat = (1,0) projects to (1/2, -1/2)."""
        g = F.TorusGrid(16)
        i1 = list(g.k).index(1)
        c = np.zeros((2, g.n, g.n), dtype=complex)
        c[0, i1, i1] = 1.0
        c[0, list(g.k).index(-1), list(g.k).index(-1)] = 1.0  # keep it a real field
        p = F.leray_project(F.SpectralVectorField(g, c))
        assert abs(p.coeffs[0, i1, i1] - 0.5) < 1e-14
        assert abs(p.coeffs[1, i1, i1] + 0.5) < 1e-14

    def test_leray_is_idempotent_and_kills_divergence(self):
        """P^2 = P and div(P v) = 0 for random vector fields."""
        g = F.TorusGrid(32)
        rng = np.random.default_rng(21)
        v = F.vector_transform(g, rng.standard_normal((2, g.n, g.n)))
        pv = F.leray_project(v)
        ppv = F.leray_project(pv)
        assert np.max(np.abs(ppv.coeffs - pv.coeffs)) < 1e-12
        assert F.linf_norm(F.divergence(pv)) < 1e-11

    def test_leray_preserves_divergence_free(self):
        """P leaves gradients' complement alone: P(curl stream) = curl stream."""
        g = F.TorusGrid(32)
        psi = random_field(g, seed=2, kmax=9)
        gp = F.gradient(psi).coeffs
        v = F.SpectralVectorField(g, np.stack([gp[1], -gp[0]]))  # perp gradient
        pv = F.leray_project(v)
        assert np.max(np.abs(pv.coeffs - v.coeffs)) < 1e-12

    def test_leray_preserves_mean_mode(self):
        g = F.TorusGrid(16)
        c = np.zeros((2, g.n, g.n), dtype=complex)
        c[0, 0, 0] = 0.7
        c[1, 0, 0] = -0.2
        pv = F.leray_project(F.SpectralVectorField(g, c))
        assert np.allclose(F.momentum(pv), TWO_PI**2 * np.array([0.7, -0.2]))

    def test_poisson_single_mode(self):
        """-Delta phi = cos x1 gives phi = cos x1 with zero mean."""
        g = F.TorusGrid(32)
        phi = F.poisson_solve(F.transform(g, np.cos(g.x1)))
        assert np.max(np.abs(phi.values() - np.cos(g.x1))) < 1e-13
        assert abs(F.mean_value(phi)) < 1e-14

    def test_poisson_inverts_laplacian(self):
        """poisson_solve(-Delta u) returns u minus its mean."""
        g = F.TorusGrid(32)
        u = random_field(g, seed=6, kmax=10)
        u.coeffs[0, 0] = 0.0
        rhs = F.SpectralField(g, -F.laplacian(u).coeffs)
        back = F.poisson_solve(rhs)
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12

    def test_poisson_rejects_nonzero_mean(self):
        g = F.TorusGrid(16)
        with pytest.raises(ValueError, match="nonzero mean"):
            F.poisson_solve(F.transform(g, 1.0 + np.cos(g.x1)))

    def test_dealias_zeroes_high_modes_only(self):
        g = F.TorusGrid(32)
        f = random_field(g, seed=14)
        d = F.dealias(f)
        assert np.max(np.abs(d.coeffs[~g.dealias_mask])) == 0.0
        assert np.max(np.abs((d.coeffs - f.coeffs)[g.dealias_mask])) == 0.0

    def test_multiply_matches_grid_product(self):
        """Product of low-band fields is exact when no mode exceeds the mask."""
        g = F.TorusGrid(32)
        a = random_field(g, seed=1, kmax=4)
        b = random_field(g, seed=2, kmax=4)
        prod = F.multiply(a, b)
        direct = F.transform(g, a.values() * b.values())
        assert np.max(np.abs(prod.coeffs - direct.coeffs)) < 1e-12


@st.composite
def _real_coeffs(draw, ncomp=2, dealiased=False):
    """(grid, c): conjugate-symmetric coefficients of a random real field,
    shape (ncomp, n, n), optionally restricted to the dealiasing band."""
    grid = F.TorusGrid(draw(st.sampled_from([4, 6, 8, 16, 32])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (ncomp, grid.n, grid.n)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= draw(st.floats(1e-3, 1e3))
    if dealiased:
        c *= grid.dealias_mask
    return grid, F.enforce_conjugate_symmetry(c)


def _reference_advection_pressure(grid, c):
    """(v . grad) v and its pressure on the full layout, product by product."""
    w = F._ifft(c)
    adv = np.empty_like(c)
    for i in range(2):
        gi1 = F._ifft(1j * grid.k1 * c[i])
        gi2 = F._ifft(1j * grid.k2 * c[i])
        adv[i] = F._fft(w[0] * gi1 + w[1] * gi2)
    adv = adv * grid.dealias_mask
    ksq = grid.k_squared.copy()
    ksq[0, 0] = 1.0
    p = 1j * (grid.k1 * adv[0] + grid.k2 * adv[1]) / ksq
    p[0, 0] = 0.0
    return adv, p


class TestHalfLayoutKernel:
    @settings(max_examples=40, deadline=None)
    @given(_real_coeffs(ncomp=3))
    def test_half_full_round_trip_is_exact(self, case):
        grid, c = case
        half = F._to_half(grid, c)
        assert half.shape == (3, grid.n, grid.n // 2 + 1)
        assert np.array_equal(F._to_full(grid, half), c)
        assert np.array_equal(F._to_half(grid, F._to_full(grid, half)), half)

    @settings(max_examples=40, deadline=None)
    @given(_real_coeffs())
    def test_leray_is_idempotent_and_divergence_free_on_both_layouts(self, case):
        grid, c = case
        scale = np.abs(c).max()
        full = F._leray(grid, c)
        half = F._leray(grid, F._to_half(grid, c))
        assert np.max(np.abs(half - F._to_half(grid, full))) <= 1e-15 * scale
        for m, p in ((grid, full), (grid.half, half)):
            assert np.max(np.abs(F._leray(grid, p) - p)) <= 1e-14 * scale
            assert np.max(np.abs(m.k1 * p[0] + m.k2 * p[1])) <= 1e-13 * scale
            assert np.array_equal(p[:, 0, 0], c[:, 0, 0])  # mean mode passes through

    @settings(max_examples=40, deadline=None)
    @given(_real_coeffs(dealiased=True))
    def test_advection_and_pressure_match_full_layout_reference(self, case):
        grid, c = case
        ref_adv, ref_p = _reference_advection_pressure(grid, c)
        adv = F._advection_half(grid, F._to_half(grid, c))
        for got, ref in ((F._to_full(grid, adv), ref_adv),
                         (F._to_full(grid, F._pressure(grid, adv)), ref_p),
                         (F._pressure(grid, ref_adv), ref_p)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.abs(ref).max(), 1e-300)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([8, 16, 32]), st.integers(0, 2**32 - 1),
           st.floats(0.1, 1.0), st.floats(0.0, 0.2))
    def test_ns_solve_nodes_are_conjugate_symmetric(self, n, seed, amplitude, nu):
        from svns import solver as S

        grid = F.TorusGrid(n)
        v0 = S.random_divergence_free(grid, seed=seed, kmax=n // 3 - 1,
                                      amplitude=amplitude)
        traj = S.ns_solve(v0, S.NSConfig(nu=nu, dt=2e-3, t_final=0.04))
        for arrays in (traj.velocity_coeffs, traj.pressure_coeffs, traj.rhs_coeffs):
            assert max(F.conjugate_defect(c) for c in arrays) <= 1e-15


def _band_limited(grid, seed, ncomp=2):
    """Conjugate-symmetric full-layout coefficients of a random real field on
    the dealiasing band, shape (ncomp, n, n)."""
    rng = np.random.default_rng(seed)
    shape = (ncomp, grid.n, grid.n)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * grid.dealias_mask
    return F.enforce_conjugate_symmetry(c)


# matmul transforms up to n = 44, pocketfft from 46 on
BAND_SIZES = [4, 6, 8, 30, 32, 44, 46, 64]


def reference_half_to_full(grid, ch, out=None):
    """The full layout of half-layout coefficients, as one scatter per
    layout (kept as the reference for the shared scatter)."""
    n = grid.n
    h = n // 2 + 1
    if out is None:
        out = np.empty(ch.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :h] = ch
    neg = slice(h - 2, 0, -1)
    np.conj(ch[..., :1, neg], out=out[..., :1, h:])
    np.conj(ch[..., :0:-1, neg], out=out[..., 1:, h:])
    return out


def reference_band_to_full(grid, cb, out=None):
    """The full layout of band-layout coefficients, zero off the band, as
    one scatter per layout (kept as the reference for the shared scatter)."""
    n, big_k = grid.n, grid.band.K
    if out is None:
        out = np.empty(cb.shape[:-2] + (n, n), dtype=np.complex128)
    out[...] = 0.0
    mirror = np.conj(cb[..., np.r_[0, 2 * big_k:0:-1], big_k:0:-1])
    for full, band in ((slice(0, big_k + 1), slice(0, big_k + 1)),
                       (slice(n - big_k, n), slice(big_k + 1, None))):
        out[..., full, : big_k + 1] = cb[..., band, :]
        out[..., full, n - big_k:] = mirror[..., band, :]
    return out


class TestBandLayoutKernel:
    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_band_shape_and_layout(self, n):
        grid = F.TorusGrid(n)
        big_k = (n - 1) // 3
        assert grid.band.K == big_k and 3 * big_k < n <= 3 * (big_k + 1)
        assert grid.band.k1.shape == (2 * big_k + 1, big_k + 1)
        assert grid.band.k1[0, 0] == 0 and grid.band.k1[-1, 0] == -1
        assert np.array_equal(grid.band.k1, grid.k1[grid.band.rows, : big_k + 1])
        assert grid.band.matmul == (n <= 44)
        for c, m in ((np.zeros((2, n, n)), grid), (np.zeros((2, n, n // 2 + 1)), grid.half),
                     (np.zeros((2, 2 * big_k + 1, big_k + 1)), grid.band)):
            assert F._layout(grid, c) is m

    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_transforms_match_pocketfft(self, n):
        """The matmul transforms between band and grid agree with irfft2 and
        rfft2 (including the d1 and d2 rows) to 1e-14 relative."""
        grid = F.TorusGrid(n)
        c = _band_limited(grid, seed=n)
        half = F._to_half(grid, c)
        got = F._band_values(grid, F._to_band(grid, c))
        for g, mult in zip(got, (1.0, grid.half.ik1, grid.half.ik2)):
            ref = np.fft.irfft2(mult * half, s=(n, n), norm="forward")
            assert np.max(np.abs(g - ref)) <= 1e-14 * np.abs(ref).max()
        vals = np.random.default_rng(n + 1).standard_normal((3, n, n))
        ref = F._to_band(grid, np.fft.rfft2(vals, norm="forward"))
        assert np.max(np.abs(F._band_transform(grid, vals) - ref)) <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [46, 64, 128])
    def test_pocketfft_band_passes_match_the_full_transforms(self, n):
        """Above n = 44 the transforms run irfft2's and rfft2's passes on the
        K+1 band columns alone: bit for bit the irfft2 of the zero-padded
        half layout and the band of rfft2, as they were computed before."""
        grid = F.TorusGrid(n)
        b = grid.band
        cb = F._to_band(grid, _band_limited(grid, seed=n, ncomp=2))
        half = np.zeros((2, n, n // 2 + 1), dtype=np.complex128)
        half[..., b.rows, : b.K + 1] = cb
        for got, mult in zip(F._band_values(grid, cb), (1.0, grid.half.ik1, grid.half.ik2)):
            ref = np.fft.irfft2(mult * half, s=(n, n), norm="forward")
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        vals = np.random.default_rng(n + 1).standard_normal((3, n, n))
        ref = F._to_band(grid, np.fft.rfft2(vals, norm="forward"))
        got = F._band_transform(grid, vals)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_band_full_round_trip_is_exact(self, n):
        grid = F.TorusGrid(n)
        c = _band_limited(grid, seed=n, ncomp=3)
        band = F._to_band(grid, c)
        assert np.array_equal(F._to_full(grid, band), c)
        out = np.full(c.shape, np.nan, dtype=complex)
        assert F._to_full(grid, band, out=out) is out
        assert np.array_equal(out, c)
        assert np.array_equal(F._to_band(grid, F._to_half(grid, c)), band)

    @pytest.mark.parametrize("n", BAND_SIZES)
    @pytest.mark.parametrize("layout", ["half", "band"])
    def test_to_full_matches_the_per_layout_scatters(self, n, layout):
        """One scatter serves both layouts, bit for bit the per-layout ones,
        on any input (conjugate-symmetric or not), with and without out=."""
        grid = F.TorusGrid(n)
        m = getattr(grid, layout)
        ref = reference_half_to_full if layout == "half" else reference_band_to_full
        rng = np.random.default_rng(n)
        shape = (3, 2, len(m.rows), m.width)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = ref(grid, c).tobytes()
        assert F._to_full(grid, c).tobytes() == want
        out = np.full((4, 2, n, n), np.nan, dtype=complex)
        view = out[1:]
        assert F._to_full(grid, c, out=view) is view
        assert view.tobytes() == want
        assert np.isnan(out[0]).all()

    @pytest.mark.parametrize("n", [32, 46, 64])
    def test_vorticity_advection_is_the_curl_of_the_advection(self, n):
        """(v . grad) omega in five transforms equals the curl of the band
        (v . grad) v for a divergence-free v with a mean flow, on the matmul
        (n = 32) and pocketfft (46, 64) branches, batched over replicas."""
        grid = F.TorusGrid(n)
        b = grid.band
        c = np.stack([F._leray(grid, _band_limited(grid, seed=n + r)) for r in range(3)])
        c[:, :, 0, 0] = [[0.3, -0.2], [0.0, 0.5], [-1.0, 0.1]]
        cb = F._to_band(grid, c)
        om = b.ik1 * cb[:, 1] - b.ik2 * cb[:, 0]
        adv, w = F._vorticity_advection_band(grid, cb, om)
        ref = F._advection_band(grid, cb)[0]
        ref = b.ik1 * ref[:, 1] - b.ik2 * ref[:, 0]
        assert np.max(np.abs(adv - ref)) <= 1e-13 * np.abs(adv).max()
        ref_w = F._band_values(grid, cb)[0]
        assert np.max(np.abs(w - ref_w)) <= 1e-15 * np.abs(ref_w).max()

    @settings(max_examples=40, deadline=None)
    @given(_real_coeffs(dealiased=True))
    def test_advection_matches_full_layout_reference(self, case):
        grid, c = case
        ref_adv, ref_p = _reference_advection_pressure(grid, c)
        adv, w = F._advection_band(grid, F._to_band(grid, c))
        ref_w = F._ifft(c)
        assert np.max(np.abs(w - ref_w)) <= 1e-13 * np.abs(ref_w).max()
        for got, ref in ((F._to_full(grid, adv), ref_adv),
                         (F._to_full(grid, F._pressure(grid, adv)), ref_p)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.abs(ref).max(), 1e-300)
        full = F._leray(grid, c)
        band = F._leray(grid, F._to_band(grid, c))
        assert np.max(np.abs(band - F._to_band(grid, full))) <= 1e-15 * np.abs(c).max()


class TestEvaluateAt:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        """A NaN or inf would make the trim threshold non-finite and drop
        every mode, evaluating the stack as zero."""
        g = F.TorusGrid(16)
        c = np.zeros((2, g.n, g.n), dtype=complex)
        c[0, 1, 0] = 1.0
        c[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            F.PointEvaluator(g, c)

    def test_matches_analytic_off_grid(self):
        """Direct summation is exact for band-limited fields at random points."""
        g = F.TorusGrid(32)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.0, TWO_PI, size=(200, 2))
        u = lambda p: np.sin(p[..., 0]) + 0.3 * np.cos(2 * p[..., 0] + 3 * p[..., 1])
        f = F.transform(g, u(g.points))
        assert np.max(np.abs(F.evaluate_at(f, pts) - u(pts))) < 1e-12

    def test_periodic_in_each_argument(self):
        """Evaluation is 2 pi periodic, so unwrapped positions are fine."""
        g = F.TorusGrid(32)
        f = random_field(g, seed=5, kmax=10)
        rng = np.random.default_rng(12)
        pts = rng.uniform(-20.0, 20.0, size=(50, 2))
        shifted = pts + TWO_PI * rng.integers(-3, 4, size=pts.shape)
        a = F.evaluate_at(f, pts)
        b = F.evaluate_at(f, shifted)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_agrees_with_grid_values_on_grid(self):
        g = F.TorusGrid(16)
        f = random_field(g, seed=7)
        vals = F.evaluate_at(f, g.points)
        assert np.max(np.abs(vals - f.values())) < 1e-10

    def test_vector_field_evaluation_shape(self):
        g = F.TorusGrid(16)
        rng = np.random.default_rng(3)
        v = F.vector_transform(g, rng.standard_normal((2, g.n, g.n)))
        pts = rng.uniform(0, TWO_PI, size=(4, 5, 2))
        out = F.evaluate_at(v, pts)
        assert out.shape == (4, 5, 2)

    def test_support_trimming_is_exact(self):
        """Trimmed evaluation equals the full summation for sparse fields."""
        g = F.TorusGrid(32)
        c = np.zeros((g.n, g.n), dtype=complex)
        i1, im1 = list(g.k).index(1), list(g.k).index(-1)
        c[i1, i1] = 0.5 - 0.25j
        c[im1, im1] = 0.5 + 0.25j
        f = F.SpectralField(g, c)
        ev = F.PointEvaluator(g, c[None])
        assert ev.sub.shape == (1, 2, 2)
        pts = np.array([[0.3, 1.2], [4.0, 5.5]])
        expect = np.cos(pts[:, 0] + pts[:, 1]) + 0.5 * np.sin(pts[:, 0] + pts[:, 1])
        assert np.max(np.abs(ev(pts)[0] - expect)) < 1e-14


@st.composite
def _banded_stacks(draw, large):
    """(grid, stack, points): a random complex stack, not conjugate-symmetric,
    on arbitrary row and column subsets (the -n/2 index included at will),
    and a point count that is rarely a multiple of the point block."""
    n = 16 if large else draw(st.sampled_from([8, 16]))
    if large:  # all but a few rows and columns: the row-matmul path
        drop = st.sets(st.integers(0, n - 1), max_size=3)
        rows = sorted(set(range(n)) - draw(drop))
        cols = sorted(set(range(n)) - draw(drop))
    else:  # a handful of modes: the outer-product path
        pick = st.sets(st.integers(0, n - 1), min_size=1, max_size=3)
        rows, cols = sorted(draw(pick)), sorted(draw(pick))
    if draw(st.booleans()):
        rows = sorted(set(rows) | {n // 2})
    if draw(st.booleans()):
        cols = sorted(set(cols) | {n // 2})
    nfields = draw(st.integers(1, 4))
    npts = draw(st.integers(1, 2 * F.PhaseTable.POINT_BLOCK + 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((nfields, n, n), dtype=complex)
    shape = (nfields, len(rows), len(cols))
    stack[np.ix_(range(nfields), rows, cols)] = (rng.standard_normal(shape)
                                                 + 1j * rng.standard_normal(shape))
    points = rng.uniform(-10.0, 10.0, size=(npts, 2))
    return F.TorusGrid(n), stack, points


class TestHalfPlaneContraction:
    @staticmethod
    def _direct(grid, stack, points):
        """Re sum_k c_k e^{ik.x} over every grid mode, one exp per term."""
        phase = np.exp(1j * (points[:, 0, None, None] * grid.k1
                             + points[:, 1, None, None] * grid.k2))
        return np.einsum("fab,pab->fp", stack, phase).real

    def _check(self, grid, stack, points, outer):
        ev = F.PointEvaluator(grid, stack)
        assert ev.outer == outer
        got = F.PhaseTable(points).evaluate(ev)
        ref = self._direct(grid, stack, points)
        assert got.shape == ref.shape
        # relative to the size of the summed terms, sum_k |c_k|, so that a
        # sum that cancels to near zero at some point does not inflate it
        scale = np.abs(stack).sum(axis=(1, 2)).max()
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(_banded_stacks(large=False))
    def test_small_blocks_match_direct_sum(self, case):
        self._check(*case, outer=True)

    @settings(max_examples=40, deadline=None)
    @given(_banded_stacks(large=True))
    def test_large_blocks_match_direct_sum(self, case):
        self._check(*case, outer=False)

    def test_nyquist_row_needs_its_mirror(self):
        """A -n/2 row folds onto the +n/2 row, which the grid does not hold."""
        g = F.TorusGrid(16)
        c = np.zeros((1, 16, 16), dtype=complex)
        c[0, 8, 3] = 1.0 - 2.0j   # k = (-8, 3)
        c[0, 8, 13] = 0.5j        # k = (-8, -3): folds onto (8, 3)
        ev = F.PointEvaluator(g, c)
        assert ev.rows == (-8, 8) and ev.cols == (3,)
        pts = np.array([[0.3, 1.1], [2.5, -4.0], [7.0, 0.2]])
        expect = ((1.0 - 2.0j) * np.exp(1j * (-8 * pts[:, 0] + 3 * pts[:, 1]))
                  + 0.5j * np.exp(1j * (-8 * pts[:, 0] - 3 * pts[:, 1]))).real
        assert np.max(np.abs(ev(pts)[0] - expect)) < 1e-13


class TestSnapshotIO:
    def test_round_trip_bit_exact_scalar(self, tmp_path):
        """Save/load reproduces scalar coefficients bit for bit."""
        g = F.TorusGrid(16)
        f = random_field(g, seed=19)
        path = tmp_path / "field.txt"
        F.save_field_snapshot(f, path)
        back = F.load_field_snapshot(path)
        assert isinstance(back, F.SpectralField)
        assert back.grid == g
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_round_trip_bit_exact_vector(self, tmp_path):
        g = F.TorusGrid(16)
        rng = np.random.default_rng(2)
        v = F.vector_transform(g, rng.standard_normal((2, g.n, g.n)))
        path = tmp_path / "vec.txt"
        F.save_field_snapshot(v, path)
        back = F.load_field_snapshot(path)
        assert isinstance(back, F.SpectralVectorField)
        assert np.array_equal(back.coeffs, v.coeffs)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("0 0 0 1.0 0.0\n")
        with pytest.raises(ValueError, match="header"):
            F.load_field_snapshot(path)

    @staticmethod
    def _edited(tmp_path, ncomp, edit):
        """A 16^2 snapshot whose body rows, as token lists, pass through edit."""
        g = F.TorusGrid(16)
        f = random_field(g, seed=4)
        field = f if ncomp == 1 else F.SpectralVectorField(g, np.stack([f.coeffs] * 2))
        path = tmp_path / "snap.txt"
        F.save_field_snapshot(field, path)
        lines = path.read_text().splitlines()
        rows = edit([line.split() for line in lines[4:]])
        path.write_text("\n".join(lines[:4] + [" ".join(r) for r in rows]) + "\n")
        return path

    @pytest.mark.parametrize("k", ["8", "9", "-9", "16", "0.5"])
    def test_off_grid_wavenumber_rejected(self, tmp_path, k):
        """k = 8 would alias k = -8 under a bare mod-16 mapping."""
        path = self._edited(tmp_path, 1, lambda rows: [[k] + rows[0][1:]] + rows[1:])
        with pytest.raises(ValueError, match="snap.txt.*index outside"):
            F.load_field_snapshot(path)

    @pytest.mark.parametrize("ncomp, c", [(1, "1"), (2, "2"), (2, "-1")])
    def test_component_out_of_range_rejected(self, tmp_path, ncomp, c):
        path = self._edited(tmp_path, ncomp,
                            lambda rows: rows[:-1] + [rows[-1][:2] + [c] + rows[-1][3:]])
        with pytest.raises(ValueError, match="snap.txt.*index outside"):
            F.load_field_snapshot(path)

    def test_missing_or_repeated_rows_rejected(self, tmp_path):
        path = self._edited(tmp_path, 2, lambda rows: rows[:-3])
        with pytest.raises(ValueError, match="snap.txt.* 509 rows"):
            F.load_field_snapshot(path)
        path = self._edited(tmp_path, 2, lambda rows: rows[:-1] + rows[:1])
        with pytest.raises(ValueError, match="snap.txt.*repeats"):
            F.load_field_snapshot(path)

    def test_malformed_row_names_the_file(self, tmp_path):
        path = self._edited(tmp_path, 1, lambda rows: rows[:-1] + [["7", "7", "0", "1.0", "x"]])
        with pytest.raises(ValueError, match="snap.txt.*malformed"):
            F.load_field_snapshot(path)


class TestNorms:
    def test_l2_norm_of_sine(self):
        """||sin x1||_L2 = sqrt(2) pi on the box."""
        g = F.TorusGrid(32)
        f = F.transform(g, np.sin(g.x1))
        assert abs(F.l2_norm(f) - np.sqrt(2.0) * np.pi) < 1e-12

    def test_kinetic_energy_additive_over_modes(self):
        g = F.TorusGrid(32)
        vals = np.stack([np.sin(g.x1), np.cos(g.x2)])
        v = F.vector_transform(g, vals)
        # each component contributes (1/2) * (2 pi)^2 / 2
        assert abs(F.kinetic_energy(v) - TWO_PI**2 / 2.0) < 1e-12

    def test_momentum_reads_mean_mode(self):
        g = F.TorusGrid(16)
        vals = np.stack([0.3 + np.sin(g.x2), -0.1 + 0 * g.x1])
        v = F.vector_transform(g, vals)
        mom = F.momentum(v)
        assert np.max(np.abs(mom - TWO_PI**2 * np.array([0.3, -0.1]))) < 1e-12


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
