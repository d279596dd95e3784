"""Tests for the spectral Navier-Stokes solver and drift-path sampling."""

import math

import numpy as np
import pytest

from svns import fields as F
from svns import solver as S

TWO_PI = 2.0 * np.pi


def tg_trajectory(nu=0.1, dt=1e-3, t_final=0.5, n=32):
    grid = F.TorusGrid(n)
    return S.ns_solve(S.taylor_green(grid), S.NSConfig(nu=nu, dt=dt, t_final=t_final))


class TestNSConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="nonnegative"):
            S.NSConfig(nu=-0.1, dt=1e-3, t_final=1.0)
        with pytest.raises(ValueError, match="positive"):
            S.NSConfig(nu=0.1, dt=-1e-3, t_final=1.0)
        with pytest.raises(ValueError, match="integer multiple"):
            S.NSConfig(nu=0.1, dt=3e-3, t_final=1.0)

    def test_step_count(self):
        assert S.NSConfig(nu=0.1, dt=1e-3, t_final=0.5).steps == 500


class TestNSRhs:
    def test_taylor_green_tendency_is_linear_decay(self):
        """TG advection is a pure gradient, so the projected tendency is -2 nu v."""
        grid = F.TorusGrid(32)
        nu = 0.1
        v = S.taylor_green(grid)
        rhs, _ = S.ns_rhs(v, nu)
        assert np.max(np.abs(rhs.coeffs + 2 * nu * v.coeffs)) < 1e-13

    def test_taylor_green_pressure_recovery(self):
        """Recovered pressure equals (cos 2x1 + cos 2x2)/4 for unit-amplitude TG."""
        grid = F.TorusGrid(32)
        _, p = S.ns_rhs(S.taylor_green(grid), 0.1)
        expect = S.taylor_green_pressure(grid)
        assert np.max(np.abs(p.coeffs - expect.coeffs)) < 1e-13

    def test_rhs_is_divergence_free(self):
        grid = F.TorusGrid(32)
        v = S.random_divergence_free(grid, seed=5)
        rhs, _ = S.ns_rhs(v, 0.05)
        assert F.linf_norm(F.divergence(rhs)) < 1e-11

    def test_pressure_poisson_identity(self):
        """-Delta p = div((v . grad) v) holds for the recovered pressure."""
        grid = F.TorusGrid(32)
        v = S.random_divergence_free(grid, seed=8)
        _, p = S.ns_rhs(v, 0.05)
        adv = F._to_full(grid, F._advection_half(grid, F._to_half(grid, v.coeffs)))
        div_adv = 1j * grid.k1 * adv[0] + 1j * grid.k2 * adv[1]
        assert np.max(np.abs(grid.k_squared * p.coeffs - div_adv)) < 1e-12


class TestNSStep:
    def test_single_mode_heat_decay(self):
        """With zero nonlinearity the step is the exact factor exp(-nu |k|^2 dt)."""
        grid = F.TorusGrid(32)
        nu, dt = 0.1, 1e-3
        v = S.taylor_green(grid)  # |k|^2 = 2 modes, zero projected advection
        v1 = S.ns_step(v, nu, dt)
        assert np.max(np.abs(v1.coeffs - v.coeffs * math.exp(-2 * nu * dt))) < 1e-12

    def test_observed_order_four(self):
        """Richardson on a random divergence-free field shows order 4 +- 0.3."""
        grid = F.TorusGrid(32)
        v0 = S.random_divergence_free(grid, seed=42, kmax=5, amplitude=1.0)
        nu, T = 0.05, 0.08

        def final(dt):
            traj = S.ns_solve(v0, S.NSConfig(nu=nu, dt=dt, t_final=T))
            return traj.velocity_coeffs[-1]

        ref = final(5e-4)
        errs = [np.sqrt(F.parseval_integral(final(dt) - ref))
                for dt in (8e-3, 4e-3, 2e-3)]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for s in slopes:
            assert abs(s - 4.0) < 0.3, f"observed order {slopes}"


class TestNSSolve:
    def test_taylor_green_closed_form(self):
        """Desk-scale solve tracks the decaying vortex to 1e-8 in sup norm."""
        grid = F.TorusGrid(32)
        traj = S.ns_solve(S.taylor_green(grid), S.NSConfig(nu=0.1, dt=1e-3, t_final=1.0))
        expect = S.taylor_green(grid, t=1.0, nu=0.1)
        err = np.max(np.abs(F._ifft(traj.velocity_coeffs[-1] - expect.coeffs)))
        assert err < 1e-8

    def test_residual_at_stored_nodes(self):
        """The strong-form residual with stored tendencies stays below 1e-10."""
        traj = tg_trajectory(t_final=0.2)
        assert S.ns_residual(traj) < 1e-10

    def test_energy_balance_per_step(self):
        """Energy change per step equals the dissipation integral to 1e-10."""
        traj = tg_trajectory(t_final=0.2)
        assert S.energy_balance_defects(traj).max() < 1e-10

    def test_momentum_is_constant(self):
        """The k = 0 velocity mode never moves (no external force)."""
        traj = tg_trajectory(t_final=0.2)
        mom = traj.velocity_coeffs[:, :, 0, 0].real * TWO_PI**2
        assert np.max(np.abs(mom - mom[0])) < 1e-12 * len(traj.times) * traj.dt + 1e-13

    def test_random_field_residual_and_energy(self):
        """Structural identities hold away from the closed-form solution too.

        The balance check uses trapezoid dissipation inside the step, an
        O(dt^3)-per-step band; measured 8.7e-9 at dt = 1e-3 for this field
        (drops 8x when dt halves).
        """
        grid = F.TorusGrid(32)
        v0 = S.random_divergence_free(grid, seed=3, kmax=6, amplitude=0.8)
        traj = S.ns_solve(v0, S.NSConfig(nu=0.05, dt=1e-3, t_final=0.1))
        assert S.ns_residual(traj) < 1e-10
        assert S.energy_balance_defects(traj).max() < 3e-8

    def test_galilean_boost_preserves_mode_moduli(self):
        """Adding a constant velocity only re-phases the spectrum."""
        grid = F.TorusGrid(32)
        v0 = S.taylor_green(grid)
        boost = np.array([0.3, -0.2])
        cb = v0.coeffs.copy()
        cb[0, 0, 0] += boost[0]
        cb[1, 0, 0] += boost[1]
        cfg = S.NSConfig(nu=0.1, dt=1e-3, t_final=0.2)
        plain = S.ns_solve(v0, cfg)
        boosted = S.ns_solve(F.SpectralVectorField(grid, cb), cfg)
        moduli_plain = np.abs(plain.velocity_coeffs[-1])
        moduli_boosted = np.abs(boosted.velocity_coeffs[-1])
        moduli_boosted[:, 0, 0] = moduli_plain[:, 0, 0]  # mean mode differs by design
        assert np.max(np.abs(moduli_boosted - moduli_plain)) < 1e-10

    def test_cfl_abort(self):
        """A step too large for the grid raises CFLError with diagnostics."""
        grid = F.TorusGrid(32)
        with pytest.raises(S.CFLError, match="CFL"):
            S.ns_solve(S.taylor_green(grid), S.NSConfig(nu=0.1, dt=0.2, t_final=0.4))

    def test_rejects_divergent_initial_data(self):
        grid = F.TorusGrid(32)
        vals = np.stack([np.sin(grid.x1), np.zeros_like(grid.x1)])
        with pytest.raises(ValueError, match="divergence-free"):
            S.ns_solve(F.vector_transform(grid, vals),
                       S.NSConfig(nu=0.1, dt=1e-3, t_final=0.01))

    def test_conjugate_symmetry_maintained(self):
        traj = tg_trajectory(t_final=0.1)
        assert F.conjugate_defect(traj.velocity_coeffs[-1]) < 1e-12

    def test_dealias_band_respected(self):
        """No stored node carries modes outside the 2/3 band."""
        grid = F.TorusGrid(32)
        v0 = S.random_divergence_free(grid, seed=17, kmax=9, amplitude=0.8)
        traj = S.ns_solve(v0, S.NSConfig(nu=0.05, dt=1e-3, t_final=0.05))
        outside = traj.velocity_coeffs[:, :, ~grid.dealias_mask]
        assert np.max(np.abs(outside)) < 1e-13


class TestSampledDrift:
    def test_nodes_are_exact(self):
        traj = tg_trajectory(t_final=0.1)
        d = S.SampledDrift(traj)
        assert np.array_equal(d.coeffs_at(0.05), traj.velocity_coeffs[traj.node_index(0.05)])
        assert np.array_equal(d.velocity_dt_coeffs_at(0.05),
                              traj.rhs_coeffs[traj.node_index(0.05)])

    def test_hermite_between_nodes(self):
        """Cubic Hermite tracks a fine reference solve to ~dt^4."""
        grid = F.TorusGrid(32)
        v0 = S.random_divergence_free(grid, seed=42, kmax=5, amplitude=1.0)
        coarse = S.ns_solve(v0, S.NSConfig(nu=0.05, dt=2e-3, t_final=0.1))
        fine = S.ns_solve(v0, S.NSConfig(nu=0.05, dt=1e-4, t_final=0.1))
        d = S.SampledDrift(coarse)
        for t in (0.051, 0.0705, 0.0993):
            i = fine.node_index(round(t / 1e-4) * 1e-4)
            err = np.max(np.abs(d.coeffs_at(t) - fine.velocity_coeffs[i]))
            assert err < 1e-11, f"Hermite error {err:.3e} at t = {t}"

    def test_point_sampling_matches_analytic(self):
        """velocity() and velocity_and_gradient() agree with the closed form."""
        traj = tg_trajectory(nu=0.1, dt=1e-3, t_final=0.1)
        d = S.SampledDrift(traj)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, TWO_PI, size=(40, 2))
        t = 0.08
        decay = math.exp(-2 * 0.1 * t)
        v = d.velocity(t, pts)
        expect = decay * np.stack([
            np.sin(pts[:, 0]) * np.cos(pts[:, 1]),
            -np.cos(pts[:, 0]) * np.sin(pts[:, 1]),
        ], axis=-1)
        assert np.max(np.abs(v - expect)) < 1e-8
        v2, h = d.velocity_and_gradient(t, pts)
        assert np.max(np.abs(v2 - v)) < 1e-13
        h00 = decay * np.cos(pts[:, 0]) * np.cos(pts[:, 1])
        h01 = -decay * np.sin(pts[:, 0]) * np.sin(pts[:, 1])
        assert np.max(np.abs(h[:, 0, 0] - h00)) < 1e-8
        assert np.max(np.abs(h[:, 0, 1] - h01)) < 1e-8
        # divergence-free: trace vanishes pointwise
        assert np.max(np.abs(h[:, 0, 0] + h[:, 1, 1])) < 1e-10

    def test_out_of_range_rejected(self):
        d = S.SampledDrift(tg_trajectory(t_final=0.1))
        with pytest.raises(ValueError, match="outside"):
            d.coeffs_at(0.2)


class TestSyntheticDrifts:
    def test_steady_drift(self):
        grid = F.TorusGrid(16)
        v = S.random_divergence_free(grid, seed=1)
        d = S.SteadyDrift(v)
        assert np.array_equal(d.coeffs_at(0.0), d.coeffs_at(5.0))
        assert np.max(np.abs(d.velocity_dt_coeffs_at(1.0))) == 0.0

    def test_shifted_drift_adds_offset(self):
        traj = tg_trajectory(t_final=0.05)
        bump = S.random_divergence_free(traj.grid, seed=9, amplitude=0.1)
        d = S.ShiftedDrift(S.SampledDrift(traj), bump)
        expect = traj.velocity_coeffs[0] + bump.coeffs
        assert np.max(np.abs(d.coeffs_at(0.0) - expect)) < 1e-14
        assert np.array_equal(d.velocity_dt_coeffs_at(0.0), traj.rhs_coeffs[0])

    def test_forced_drift_tilts_tendency(self):
        """v + t F has time derivative d_t v + F."""
        traj = tg_trajectory(t_final=0.05)
        force = S.random_divergence_free(traj.grid, seed=2, amplitude=0.3)
        d = S.ForcedDrift(S.SampledDrift(traj), force)
        expect = traj.rhs_coeffs[0] + force.coeffs
        assert np.max(np.abs(d.velocity_dt_coeffs_at(0.0) - expect)) < 1e-14
        i = traj.node_index(0.05)
        expect_v = traj.velocity_coeffs[i] + 0.05 * force.coeffs
        assert np.max(np.abs(d.coeffs_at(0.05) - expect_v)) < 1e-14


class TestTrajectoryCheckpoint:
    def test_round_trip(self, tmp_path):
        """Saved nodes reload bit-exact, including times, nu, and tendencies."""
        traj = tg_trajectory(nu=0.1, dt=0.01, t_final=0.05)
        S.save_trajectory(traj, tmp_path / "ckpt", stride=2)
        back = S.load_trajectory(tmp_path / "ckpt")
        assert back.nu == traj.nu
        kept = [0, 2, 4, 5]
        assert np.array_equal(back.times, traj.times[kept])
        assert np.array_equal(back.velocity_coeffs, traj.velocity_coeffs[kept])
        assert np.array_equal(back.pressure_coeffs, traj.pressure_coeffs[kept])
        assert np.array_equal(back.rhs_coeffs, traj.rhs_coeffs[kept])

    def test_missing_index_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises((ValueError, FileNotFoundError)):
            S.load_trajectory(tmp_path / "empty")

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected_before_writing(self, tmp_path, stride):
        traj = tg_trajectory(nu=0.1, dt=0.01, t_final=0.03, n=8)
        with pytest.raises(ValueError, match="stride"):
            S.save_trajectory(traj, tmp_path / "ckpt", stride=stride)
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("slots", [["0", "1", "1"], ["0", "1", "3"], []])
    def test_bad_index_slots_rejected(self, tmp_path, slots):
        traj = tg_trajectory(nu=0.1, dt=0.01, t_final=0.02, n=8)
        S.save_trajectory(traj, tmp_path / "ckpt")
        index = tmp_path / "ckpt" / "index.txt"
        head = index.read_text().splitlines()[:5]
        index.write_text("\n".join(head + [f"{s} 0.01" for s in slots]) + "\n")
        with pytest.raises(ValueError, match="index.txt"):
            S.load_trajectory(tmp_path / "ckpt")

    @pytest.mark.parametrize("kind, wrong", [
        ("velocity", lambda g: F.SpectralField(g, np.zeros((g.n, g.n), dtype=complex))),
        ("pressure", lambda g: F.SpectralVectorField(g, np.zeros((2, g.n, g.n), dtype=complex))),
        ("tendency", lambda g: F.SpectralVectorField(
            F.TorusGrid(2 * g.n), np.zeros((2, 2 * g.n, 2 * g.n), dtype=complex))),
    ])
    def test_snapshot_of_the_wrong_shape_is_named(self, tmp_path, kind, wrong):
        """A snapshot that is not a field of its kind at the index's n is
        rejected with its file name, not deep inside the stacking."""
        traj = tg_trajectory(nu=0.1, dt=0.01, t_final=0.02, n=8)
        S.save_trajectory(traj, tmp_path / "ckpt")
        F.save_field_snapshot(wrong(traj.grid), tmp_path / "ckpt" / f"{kind}_00001.txt")
        with pytest.raises(ValueError, match=f"{kind}_00001.txt"):
            S.load_trajectory(tmp_path / "ckpt")


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
