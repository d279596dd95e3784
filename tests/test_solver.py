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

    @pytest.mark.parametrize("key", ["nu", "dt", "t_final"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, key, value):
        with pytest.raises(ValueError):
            S.NSConfig(**{**dict(nu=0.1, dt=1e-3, t_final=1.0), key: value})

    @pytest.mark.parametrize("limit", [0.0, -0.5, math.nan])
    def test_rejects_a_cfl_limit_that_is_not_positive(self, limit):
        with pytest.raises(ValueError, match="cfl_limit"):
            S.NSConfig(nu=0.1, dt=1e-3, t_final=1.0, cfl_limit=limit)


class TestNonFinite:
    """A NaN in the data raises or shows in the result; it never reads as 0."""

    def test_solve_trips_the_cfl_guard(self):
        grid = F.TorusGrid(16)
        c = S.taylor_green(grid).coeffs.copy()
        c[0, 1, 1] = np.nan
        with pytest.raises(S.CFLError, match="CFL"):
            S.ns_solve(F.SpectralVectorField(grid, c), S.NSConfig(nu=0.1, dt=1e-2, t_final=0.02))

    def test_residual_keeps_a_nan(self, monkeypatch):
        """Also from a late block of nodes on two workers, whose maximum
        comes after those of finite blocks."""
        traj = tg_trajectory(nu=0.1, dt=1e-2, t_final=0.05, n=16)
        traj.velocity_coeffs[3, 0, 1, 1] = np.nan
        assert np.isnan(S.ns_residual(traj))
        monkeypatch.setattr(F, "_WORKERS", 2)
        traj = tg_trajectory(nu=0.1, dt=1e-2, t_final=1.0, n=16)
        assert len(traj.times) > 2 * S._NODE_CHUNK
        traj.velocity_coeffs[-2, 0, 1, 1] = np.nan
        assert np.isnan(S.ns_residual(traj))


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

    def test_step_beyond_the_cfl_budget_raises(self):
        """A step is a one-step solve, so it takes the solve's CFL guard:
        max|v| = 1 on 32^2 and dt = 0.16 give CFL 0.81 > 0.5."""
        with pytest.raises(S.CFLError, match="CFL number 0.815 exceeds limit 0.5"):
            S.ns_step(S.taylor_green(F.TorusGrid(32)), 0.1, 0.16)

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


def reference_half_solve(v0, config, forcing=None):
    """The half-layout IF-RK4 march with pocketfft transforms that ns_solve
    ran before the band layout: (velocity, pressure, tendency) per node."""
    g = v0.grid

    def stage(ch):
        out = -F._leray(g, F._advection_half(g, ch))
        return out if fh is None else out + fh

    ch = F._to_half(g, F.enforce_conjugate_symmetry(v0.coeffs * g.dealias_mask))
    fh = None if forcing is None else F._to_half(
        g, F.enforce_conjugate_symmetry(forcing.coeffs * g.dealias_mask))
    e_half = np.exp(-config.nu * g.half.k_squared * (config.dt / 2.0))
    e_full = e_half * e_half
    dt = config.dt
    out = ([], [], [])
    for i in range(config.steps + 1):
        adv = F._advection_half(g, ch)
        k1 = -F._leray(g, adv) + (0.0 if fh is None else fh)
        for store, node in zip(out, (ch, F._pressure(g, adv),
                                     k1 - config.nu * g.half.k_squared * ch)):
            store.append(F._to_full(g, node))
        if i < config.steps:
            k2 = stage(e_half * (ch + (dt / 2.0) * k1))
            k3 = stage(e_half * ch + (dt / 2.0) * k2)
            k4 = stage(e_full * ch + dt * e_half * k3)
            ch = e_full * ch + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return tuple(np.array(a) for a in out)


class TestBandMarch:
    """ns_solve marches on the band layout with matmul transforms."""

    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("n, steps", [(32, 200), (64, 40)])
    def test_matches_the_half_layout_march(self, n, steps, forced):
        grid = F.TorusGrid(n)
        v0 = S.random_divergence_free(grid, seed=11, kmax=9, amplitude=0.8)
        forcing = S.random_divergence_free(grid, seed=12, kmax=4, amplitude=0.5) if forced else None
        cfg = S.NSConfig(nu=0.05, dt=1e-3, t_final=steps * 1e-3)
        traj = S.ns_solve(v0, cfg, forcing=forcing)
        ref = reference_half_solve(v0, cfg, forcing)
        for got, want in zip((traj.velocity_coeffs, traj.pressure_coeffs, traj.rhs_coeffs), ref):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", [8, 30, 32])
    def test_stored_nodes_are_symmetric_and_on_the_band(self, n):
        grid = F.TorusGrid(n)
        v0 = S.random_divergence_free(grid, seed=n, kmax=n // 3, amplitude=0.8)
        forcing = S.random_divergence_free(grid, seed=n + 1, kmax=2, amplitude=0.3)
        # 40 nodes: one full block of 32 nodes and a partial one
        traj = S.ns_solve(v0, S.NSConfig(nu=0.05, dt=1e-3, t_final=0.039), forcing=forcing)
        for arrays in (traj.velocity_coeffs, traj.pressure_coeffs, traj.rhs_coeffs):
            assert F.conjugate_defect(arrays) == 0.0
            assert np.all(arrays[..., ~grid.dealias_mask] == 0.0)

    @pytest.mark.parametrize("call", ["ns_step", "ns_rhs"])
    def test_modes_beyond_the_band_rejected(self, call):
        """The band cannot hold them, so the step refuses instead of dropping
        them; like ns_solve, it refuses a divergent velocity or forcing too."""
        grid = F.TorusGrid(32)
        tg = S.taylor_green(grid)
        c = tg.coeffs.copy()
        k1 = grid.n // 2 - 1
        c[1, k1, 0] = c[1, -k1, 0] = 0.25  # v2 = 0.5 cos(15 x1), divergence-free
        divergent = np.zeros_like(c)
        divergent[0, 1, 0] = divergent[0, -1, 0] = 0.25  # 0.5 cos(x1) e1
        cases = [(c, None, "velocity carries modes beyond the dealiasing band"),
                 (tg.coeffs + divergent, None, "velocity is not divergence-free")]
        if call == "ns_step":
            cases.append((tg.coeffs, divergent, "forcing is not divergence-free"))
        for velocity, forcing, match in cases:
            v = F.SpectralVectorField(grid, velocity)
            with pytest.raises(ValueError, match=match):
                S.ns_step(v, 0.1, 1e-3, forcing) if call == "ns_step" else S.ns_rhs(v, 0.1)

    def test_forcing_beyond_the_band_rejected_by_ns_step(self):
        grid = F.TorusGrid(32)
        f = np.zeros((2, grid.n, grid.n), dtype=complex)
        f[1, 15, 0] = f[1, -15, 0] = 0.25
        with pytest.raises(ValueError, match="forcing carries modes beyond"):
            S.ns_step(S.taylor_green(grid), 0.1, 1e-3, forcing=f)

    def test_forcing_beyond_the_band_rejected_by_ns_solve(self):
        grid = F.TorusGrid(32)
        f = np.zeros((2, grid.n, grid.n), dtype=complex)
        f[1, 15, 0] = f[1, -15, 0] = 0.25
        with pytest.raises(ValueError, match="forcing carries modes beyond"):
            S.ns_solve(S.taylor_green(grid), S.NSConfig(nu=0.1, dt=1e-3, t_final=1e-3),
                       forcing=F.SpectralVectorField(grid, f))

    def test_step_is_a_one_step_solve(self):
        """Byte for byte, on a symmetric velocity, on one with a
        conjugate-antisymmetric part (divergence-free and on the band, so
        the solve takes it and symmetrizes it), and with a forcing."""
        grid = F.TorusGrid(32)
        v0 = S.random_divergence_free(grid, seed=4, kmax=8, amplitude=0.8)
        odd = 0.1j * S.random_divergence_free(grid, seed=5, kmax=8).coeffs
        assert F.conjugate_defect(v0.coeffs + odd) > 1e-3
        f = S.random_divergence_free(grid, seed=6, kmax=4, amplitude=0.5)
        cfg = S.NSConfig(nu=0.05, dt=1e-3, t_final=1e-3)
        for v, forcing in ((v0, None), (F.SpectralVectorField(grid, v0.coeffs + odd), None),
                           (v0, f)):
            traj = S.ns_solve(v, cfg, forcing=forcing)
            step = S.ns_step(v, 0.05, 1e-3, None if forcing is None else forcing.coeffs)
            assert step.coeffs.tobytes() == traj.velocity_coeffs[1].tobytes()
            if forcing is None:
                rhs, p = S.ns_rhs(v, 0.05)
                assert rhs.coeffs.tobytes() == traj.rhs_coeffs[0].tobytes()
                assert p.coeffs.tobytes() == traj.pressure_coeffs[0].tobytes()

    @pytest.mark.parametrize("n", [32, 128])
    def test_trajectory_does_not_depend_on_the_thread_count(self, n, fresh_python):
        """The march runs through BLAS: pinned to 1 and to 4 threads in fresh
        processes, a solve gives the same bytes. At n = 128 a matmul march
        would be split between threads and differ in the last bits."""
        script = ("import hashlib\n"
                  "from svns import fields as F, solver as S\n"
                  f"g = F.TorusGrid({n})\n"
                  "v0 = S.random_divergence_free(g, seed=7, kmax=10, amplitude=0.9)\n"
                  "t = S.ns_solve(v0, S.NSConfig(nu=0.02, dt=1e-3, t_final=0.02))\n"
                  "h = hashlib.blake2b()\n"
                  "for a in (t.velocity_coeffs, t.pressure_coeffs, t.rhs_coeffs):\n"
                  "    h.update(a.tobytes())\n"
                  "print(h.hexdigest())\n")
        digests = [fresh_python(script, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                                MKL_NUM_THREADS=threads).strip() for threads in ("1", "4")]
        assert len(digests[0]) == 128 and digests[0] == digests[1]


class TestDiagnostics:
    def test_diagnostics_do_not_depend_on_the_worker_or_thread_count(self, fresh_python):
        """ns_residual and noether_residual run blocks of nodes on the worker
        pool: pinned to 1 and to 4 BLAS threads in fresh processes, each with
        1, 2 and 4 workers, they and energy_balance_defects give the same
        bytes on a 1001-node Taylor-Green solve. A mean flow makes the
        translation charge nonzero."""
        script = ("import hashlib\n"
                  "import numpy as np\n"
                  "from svns import fields as F, noether as N, solver as S\n"
                  "g = F.TorusGrid(32)\n"
                  "c = S.taylor_green(g, 0.0, 0.1, 0.8).coeffs.copy()\n"
                  "c[:, 0, 0] = [0.3, -0.2]\n"
                  "t = S.ns_solve(F.SpectralVectorField(g, c),\n"
                  "               S.NSConfig(nu=0.1, dt=1e-3, t_final=1.0))\n"
                  "pair = N.translation_pair(g, 0)\n"
                  "for workers in (1, 2, 4):\n"
                  "    F._WORKERS = workers\n"
                  "    report = N.noether_residual(pair, t)\n"
                  "    h = hashlib.blake2b(np.float64(S.ns_residual(t)).tobytes())\n"
                  "    for a in (S.energy_balance_defects(t), report.residual, report.charge):\n"
                  "        h.update(a.tobytes())\n"
                  "    print(h.hexdigest())\n")
        digests = []
        for threads in ("1", "4"):
            digests += fresh_python(script, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                                    MKL_NUM_THREADS=threads).split()
        assert len(digests) == 6 and len(digests[0]) == 128 and len(set(digests)) == 1


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

    def test_hermite_weights_are_the_per_method_formulas(self):
        """Both samplers share one bracket-and-weights helper, bit for bit the
        interpolant and its time derivative written out term by term: at a
        node time, mid-interval and in the last interval."""
        traj = S.ns_solve(S.random_divergence_free(F.TorusGrid(16), seed=3, kmax=3),
                          S.NSConfig(nu=0.05, dt=2e-3, t_final=0.02))
        d = S.SampledDrift(traj)
        v, r, dt = traj.velocity_coeffs, traj.rhs_coeffs, traj.dt
        for t, i in ((0.01, 5), (0.007, 3), (0.0193, 9)):
            got_v, got_dt = d.coeffs_at(t), d.velocity_dt_coeffs_at(t)
            if t == 0.01:
                want_v, want_dt = v[i], r[i]
            else:
                s = (t - traj.times[i]) / dt
                h00, h10 = 2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s
                h01, h11 = -2 * s**3 + 3 * s**2, s**3 - s**2
                want_v = h00 * v[i] + h01 * v[i + 1] + dt * (h10 * r[i] + h11 * r[i + 1])
                d00, d10 = (6 * s**2 - 6 * s) / dt, 3 * s**2 - 4 * s + 1
                d01, d11 = (-6 * s**2 + 6 * s) / dt, 3 * s**2 - 2 * s
                want_dt = d00 * v[i] + d01 * v[i + 1] + d10 * r[i] + d11 * r[i + 1]
            assert got_v.tobytes() == want_v.tobytes(), t
            assert got_dt.tobytes() == want_dt.tobytes(), t

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
