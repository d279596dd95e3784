"""Conserved-quantity diagnostics: operator identities, residuals, probes.

Oracles
-------
* Single mode: for f = e^{2 nu t} sin x1 and v = 0, the operator
  (d/dt + nu Lap) gives (2 nu - nu) f = nu f, checked coefficientwise.
* Velocity component: substituting the evolution equation for v1 turns
  d_t v1 + (v . grad) v1 + nu Lap v1 into 2 nu Lap v1 - d1 p, both sides
  assembled from the same stored tendency and pressure.
* Translation residual: int (v . grad) v1 dx vanishes because the integrand
  is a divergence, and int Lap v1 dx because it is a pure gradient's
  divergence; d/dt int v1 dx vanishes because the projected tendency has no
  mean mode. Forcing with mean c e1 makes the residual exactly c (2 pi)^2.
* The translation charge along the noisy flow is a martingale; its branching
  difference quotient carries only the weak O(dt^2) scheme bias, so the
  acceptance band is 3 stderr + dt^2 (the collapsed Monte Carlo error sits
  near 1e-9 while the bias sits near 1e-8; both are far under dt^2 = 1e-6).
"""

import warnings

import numpy as np
import pytest

from svns.action import SineSquaredEnvelope
from svns.fields import SpectralField, SpectralVectorField, TorusGrid
from svns.flows import BrownianDriver
from svns.noether import (
    ConstantEnvelope,
    SymmetryPair,
    invariance_check,
    martingale_probe,
    material_operator,
    momentum_series,
    noether_residual,
    translation_pair,
)
from svns.solver import (
    NSConfig,
    SampledDrift,
    SteadyDrift,
    ns_rhs,
    ns_solve,
    random_divergence_free,
)

NU = 0.05
DT = 1e-3


def mode_index(grid, k):
    return list(grid.k).index(k)


def single_mode_scalar(grid, axis, amp=1.0):
    """Coefficients of amp * sin(x_axis)."""
    c = np.zeros((grid.n, grid.n), dtype=complex)
    i1, im1 = mode_index(grid, 1), mode_index(grid, -1)
    if axis == 0:
        c[i1, 0] = -0.5j * amp
        c[im1, 0] = 0.5j * amp
    else:
        c[0, i1] = -0.5j * amp
        c[0, im1] = 0.5j * amp
    return c


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(32)


@pytest.fixture(scope="module")
def traj(grid):
    v0 = random_divergence_free(grid, seed=7, kmax=3, amplitude=0.6)
    return ns_solve(v0, NSConfig(nu=NU, dt=DT, t_final=0.1))


class TestMaterialOperator:
    def test_constant_field_maps_to_zero(self, grid):
        c = np.zeros((grid.n, grid.n), dtype=complex)
        c[0, 0] = 3.7
        v = random_divergence_free(grid, seed=1, kmax=2, amplitude=0.4)
        out = material_operator(SpectralField(grid, c), v, NU)
        assert np.max(np.abs(out.coeffs)) <= 1e-14

    def test_single_mode_heat_balance(self, grid):
        t = 0.3
        amp = np.exp(2 * NU * t)
        fc = single_mode_scalar(grid, 0, amp)
        zero_v = SpectralVectorField(grid, np.zeros((2, grid.n, grid.n), dtype=complex))
        out = material_operator(SpectralField(grid, fc), zero_v, NU,
                                SpectralField(grid, 2 * NU * fc))
        assert np.max(np.abs(out.coeffs - NU * fc)) <= 1e-14

    def test_velocity_component_identity(self, grid):
        v = random_divergence_free(grid, seed=3, kmax=3, amplitude=0.5)
        rhs, p = ns_rhs(v, NU)
        out = material_operator(SpectralField(grid, v.coeffs[0]), v, NU,
                                SpectralField(grid, rhs.coeffs[0]))
        target = -2 * NU * grid.k_squared * v.coeffs[0] - 1j * grid.k1 * p.coeffs
        assert np.max(np.abs(out.coeffs - target)) <= 1e-14

    def test_forward_vs_backward_laplacian_decomposition(self, grid):
        fc = single_mode_scalar(grid, 0) + single_mode_scalar(grid, 1, 0.5)
        fdt = 0.25 * fc
        v = random_divergence_free(grid, seed=9, kmax=3, amplitude=0.5)
        f = SpectralField(grid, fc)
        forward = material_operator(f, v, NU, SpectralField(grid, fdt))
        backward = material_operator(f, v, -NU, SpectralField(grid, fdt))
        delta = forward.coeffs - backward.coeffs
        assert np.max(np.abs(delta - (-2 * NU * grid.k_squared * fc))) <= 1e-13

    def test_grid_mismatch_rejected(self, grid):
        other = TorusGrid(16)
        f = SpectralField(other, np.zeros((16, 16), dtype=complex))
        v = random_divergence_free(grid, seed=1, kmax=2, amplitude=0.1)
        with pytest.raises(ValueError, match="different grids"):
            material_operator(f, v, NU)


class TestNoetherResidual:
    def test_translation_residual_vanishes_along_solution(self, grid, traj):
        rep = noether_residual(translation_pair(grid, 0), traj)
        assert np.max(np.abs(rep.residual)) <= 1e-10
        assert np.max(np.abs(rep.charge)) <= 1e-10
        rep_y = noether_residual(translation_pair(grid, 1), traj)
        assert np.max(np.abs(rep_y.residual)) <= 1e-10

    def test_both_terms_vanish_separately(self, grid, traj):
        # d/dt int v1 dx and int ((v.grad)v1 + nu Lap v1) dx are each zero
        for i in (0, len(traj.times) // 2, len(traj.times) - 1):
            tendency_mean = (2 * np.pi) ** 2 * traj.rhs_coeffs[i][0, 0, 0].real
            v = traj.velocity(i)
            steady = material_operator(SpectralField(grid, v.coeffs[0]), v, NU)
            spatial_mean = (2 * np.pi) ** 2 * steady.coeffs[0, 0].real
            assert abs(tendency_mean) <= 1e-10
            assert abs(spatial_mean) <= 1e-10

    def test_residual_is_linear_in_the_pair(self, grid, traj):
        env = SineSquaredEnvelope(traj.t_final)
        w1 = random_divergence_free(grid, seed=21, kmax=2, amplitude=0.2).coeffs
        w2 = random_divergence_free(grid, seed=22, kmax=2, amplitude=0.2).coeffs
        psi = single_mode_scalar(grid, 0, 0.5)
        pa = SymmetryPair(grid, eta_coeffs=w1, g_coeffs=psi, envelope=env)
        pb = SymmetryPair(grid, eta_coeffs=w2, envelope=env)
        pab = SymmetryPair(grid, eta_coeffs=w1 + w2, g_coeffs=psi, envelope=env)
        ra = noether_residual(pa, traj).residual
        rb = noether_residual(pb, traj).residual
        rab = noether_residual(pab, traj).residual
        assert np.max(np.abs(rab - ra - rb)) <= 1e-12

    def test_zero_pair_gives_zero(self, grid, traj):
        rep = noether_residual(SymmetryPair(grid), traj)
        assert np.all(rep.residual == 0.0)
        assert np.all(rep.charge == 0.0)

    def test_forced_dynamics_shift_the_residual_by_the_mean_force(self, grid):
        c = 2e-3
        fcoef = np.zeros((2, grid.n, grid.n), dtype=complex)
        fcoef[0, 0, 0] = c
        trajf = ns_solve(random_divergence_free(grid, seed=7, kmax=3, amplitude=0.6),
                         NSConfig(nu=NU, dt=DT, t_final=0.05),
                         forcing=SpectralVectorField(grid, fcoef))
        rep = noether_residual(translation_pair(grid, 0), trajf)
        expected = c * (2 * np.pi) ** 2
        assert np.min(np.abs(rep.residual)) >= 1e-3
        assert np.max(np.abs(rep.residual - expected)) <= 1e-9
        # the charge integrates the residual: Q(T) - Q(0) = c (2pi)^2 T
        gain = rep.charge[-1] - rep.charge[0]
        assert abs(gain - expected * 0.05) <= 1e-9

    def test_pair_on_another_grid_rejected(self, grid, traj):
        """A pair built on n = 16 against an n = 32 trajectory is an error,
        not a charge read off the wrong modes (nor a broadcast failure)."""
        def eta(g):
            c = np.zeros((2, g.n, g.n), dtype=complex)
            i = {int(k): j for j, k in enumerate(g.k)}
            c[0, i[-2], i[1]] = c[0, i[2], i[-1]] = 0.5       # cos((-2, 1) . x) e1
            c[1, i[-1], i[2]], c[1, i[1], i[-2]] = -0.5j, 0.5j  # sin((-1, 2) . x) e2
            return c

        assert np.max(np.abs(noether_residual(SymmetryPair(grid, eta(grid)), traj).charge)) > 1e-6
        coarse = TorusGrid(16)
        for pair in (SymmetryPair(coarse, eta(coarse)),
                     SymmetryPair(coarse, g_coeffs=single_mode_scalar(coarse, 0))):
            with pytest.raises(ValueError, match="n = 16 grid, the trajectory on n = 32"):
                noether_residual(pair, traj)

    def test_mean_velocity_charge_is_conserved(self, grid):
        base = random_divergence_free(grid, seed=5, kmax=2, amplitude=0.3).coeffs.copy()
        base[0, 0, 0] += 0.125
        trajm = ns_solve(SpectralVectorField(grid, base),
                         NSConfig(nu=NU, dt=DT, t_final=0.05))
        rep = noether_residual(translation_pair(grid, 0), trajm)
        expected = 0.125 * (2 * np.pi) ** 2
        assert np.max(np.abs(rep.charge - expected)) <= 1e-10
        assert np.max(np.abs(rep.residual)) <= 1e-10


class TestMomentumSeries:
    def test_zero_mean_solution_stays_zero_mean(self, traj):
        mom = momentum_series(traj)
        assert mom.shape == (len(traj.times), 2)
        assert np.max(np.abs(mom)) <= 1e-12

    def test_nonzero_mean_is_constant(self, grid):
        base = random_divergence_free(grid, seed=5, kmax=2, amplitude=0.3).coeffs.copy()
        base[0, 0, 0] += 0.125
        base[1, 0, 0] -= 0.0625
        trajm = ns_solve(SpectralVectorField(grid, base),
                         NSConfig(nu=NU, dt=DT, t_final=0.05))
        mom = momentum_series(trajm)
        drift_rate = np.max(np.abs(mom - mom[0])) / 0.05
        assert drift_rate <= 1e-12
        assert abs(mom[0, 0] - 0.125 * (2 * np.pi) ** 2) <= 1e-12
        assert abs(mom[0, 1] + 0.0625 * (2 * np.pi) ** 2) <= 1e-12


class TestInvarianceCheck:
    def test_translation_defect_is_exactly_zero(self, grid, traj):
        drift = SampledDrift(traj)
        rep = invariance_check(translation_pair(grid, 0), drift, nu=NU, dt=DT,
                               t_final=0.1, driver=BrownianDriver(seed=42, replicas=8))
        # constant eta has identically zero material derivative, so both sides
        # vanish pathwise, well inside the 3 stderr + 1e-4 band
        assert np.max(rep.defect) <= 1e-15
        assert np.max(rep.defect) <= np.max(3 * rep.stderr + 1e-4)
        assert rep.warning is None

    def test_non_symmetry_is_detected(self, grid, traj):
        env = SineSquaredEnvelope(0.1)
        eta = np.zeros((2, grid.n, grid.n), dtype=complex)
        i1, im1 = mode_index(grid, 1), mode_index(grid, -1)
        eta[0, 0, i1] = -0.5j     # (sin x2, 0)
        eta[0, 0, im1] = 0.5j
        pair = SymmetryPair(grid, eta_coeffs=eta, envelope=env)
        rep = invariance_check(pair, SampledDrift(traj), nu=NU, dt=DT, t_final=0.1,
                               driver=BrownianDriver(seed=42, replicas=8))
        sig = np.max(rep.defect / np.maximum(rep.stderr, 1e-300))
        assert sig > 5.0
        assert np.max(rep.defect) > 1e-3

    def test_single_replica_has_zero_stderr(self, grid, traj):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = invariance_check(translation_pair(grid, 0), SampledDrift(traj), nu=NU,
                                   dt=DT, t_final=0.1, stride=4,
                                   driver=BrownianDriver(seed=42, replicas=1))
        assert np.array_equal(rep.stderr, np.zeros(len(rep.times)))

    def test_non_measure_preserving_flow_warns(self, grid):
        comp = np.zeros((2, grid.n, grid.n), dtype=complex)
        i1, im1 = mode_index(grid, 1), mode_index(grid, -1)
        comp[0, i1, 0] = -0.5j    # (sin x1, 0): compressible
        comp[0, im1, 0] = 0.5j
        drift = SteadyDrift(SpectralVectorField(grid, comp))
        rep = invariance_check(translation_pair(grid, 0), drift, nu=NU, dt=DT,
                               t_final=0.1, driver=BrownianDriver(seed=4, replicas=4))
        assert rep.warning is not None
        assert "measure" in rep.warning


class TestMartingaleProbe:
    def test_translation_charge_has_no_drift(self, grid, traj):
        drift = SampledDrift(traj)
        pts = martingale_probe(translation_pair(grid, 0), drift, nu=NU, dt=DT,
                               driver=BrownianDriver(seed=42, replicas=8),
                               sample_times=(0.04, 0.08), branches=12)
        for pp in pts:
            assert abs(pp.drift) <= 3 * pp.drift_stderr + DT * DT
            # the charge itself stays near the conserved value 0
            assert np.max(np.abs(pp.series)) <= 1e-6

    def test_zero_drift_flow_gives_identically_zero_series(self, grid):
        zero = SteadyDrift(SpectralVectorField(grid, np.zeros((2, grid.n, grid.n),
                                                              dtype=complex)))
        pts = martingale_probe(translation_pair(grid, 0), zero, nu=NU, dt=DT,
                               driver=BrownianDriver(seed=1, replicas=4),
                               sample_times=(0.02,), branches=4)
        assert np.all(pts[0].series == 0.0)
        assert pts[0].drift == 0.0

    def test_non_symmetry_drifts_significantly(self, grid, traj):
        env = SineSquaredEnvelope(0.1)
        eta = np.zeros((2, grid.n, grid.n), dtype=complex)
        i1, im1 = mode_index(grid, 1), mode_index(grid, -1)
        eta[0, 0, i1] = -0.5j
        eta[0, 0, im1] = 0.5j
        pair = SymmetryPair(grid, eta_coeffs=eta, envelope=env)
        pts = martingale_probe(pair, SampledDrift(traj), nu=NU, dt=DT,
                               driver=BrownianDriver(seed=42, replicas=8),
                               sample_times=(0.05,), branches=12)
        assert abs(pts[0].drift) > 5 * pts[0].drift_stderr + DT * DT

    def test_sample_time_validation(self, grid, traj):
        drift = SampledDrift(traj)
        drv = BrownianDriver(seed=1, replicas=4)
        with pytest.raises(ValueError, match="at least one"):
            martingale_probe(translation_pair(grid, 0), drift, nu=NU, dt=DT,
                             driver=drv, sample_times=())
        with pytest.raises(ValueError, match="increasing"):
            martingale_probe(translation_pair(grid, 0), drift, nu=NU, dt=DT,
                             driver=drv, sample_times=(0.04, 0.02))
        with pytest.raises(ValueError, match="step multiple"):
            martingale_probe(translation_pair(grid, 0), drift, nu=NU, dt=DT,
                             driver=drv, sample_times=(0.0205,))


class TestSymmetryPair:
    def test_shape_validation(self, grid):
        with pytest.raises(ValueError, match=r"\(2, n, n\)"):
            SymmetryPair(grid, eta_coeffs=np.zeros((grid.n, grid.n), dtype=complex))
        with pytest.raises(ValueError, match=r"\(n, n\)"):
            SymmetryPair(grid, g_coeffs=np.zeros((2, grid.n, grid.n), dtype=complex))

    def test_translation_axis_validation(self, grid):
        with pytest.raises(ValueError, match="axis"):
            translation_pair(grid, 2)

    def test_constant_envelope(self):
        env = ConstantEnvelope()
        assert env.value(0.3) == 1.0
        assert env.derivative(0.3) == 0.0

    def test_translation_charge_equals_momentum(self, grid, traj):
        # Q(t) for the translation pair is exactly the momentum component
        rep = noether_residual(translation_pair(grid, 1), traj)
        mom = momentum_series(traj)
        assert np.max(np.abs(rep.charge - mom[:, 1])) <= 1e-13
