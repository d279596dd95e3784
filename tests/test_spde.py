"""Transport-noise velocity dynamics: exact oracles, strong orders, mean decay.

Oracles, all derivable by hand:

* Shear data u = (sin x2, 0) satisfies (u.grad)u = 0 identically (the only
  nonzero component depends only on x2), so it is a steady Euler solution
  and the nonlinear term vanishes for every rigid shift of it.  A single
  step therefore reduces to the per-mode noise action with phase
  theta = sqrt(2 nu) k . dW: the Heun step multiplies each coefficient by
  1 + i theta - theta^2 / 2 (predictor feeds the corrector one factor of
  i theta), and the Euler-Maruyama step of the Ito form multiplies by
  1 + i theta - nu |k|^2 dt.

* Steady Euler data is transported rigidly by the spatially uniform noise:
  v(t, x) = u(x + sqrt(2 nu) W_t), i.e. coefficients pick up the phase
  e^{i sqrt(2 nu) k . W_t} and their moduli never change.  Averaging the
  phase over replicas (W_t ~ N(0, t I)) gives E v_hat_k = u_hat_k
  e^{-nu |k|^2 t}: heat decay of the ensemble mean with no viscous term
  anywhere in the dynamics.

* Strong orders against the shifted-field oracle.  The Heun scheme's
  per-mode multiplier matches the exact phase factor e^{i theta} through
  O(theta^2), giving strong order 1 (measured 0.963 on the two-mode
  cellular field, 0.994 on shear).  The Euler-Maruyama multiplier
  1 + i theta - nu k^2 dt misses the -theta^2/2 curvature of the exact
  phase; the miss has mean -nu k^2 dt (that is exactly the explicit
  viscous term) but a fluctuating part of size O(dt) per step, and summing
  T/dt independent fluctuations leaves an O(sqrt(T dt)) pathwise error:
  strong order 1/2, halving ratio sqrt(2) ~ 1.41 per dt halving (measured
  ratios 1.391 and 1.372, fitted order 0.466).  The two schemes still
  agree in distribution; only pathwise accuracy differs.

* With nu = 0 the noise vanishes and both schemes reduce to deterministic
  integrators of steady data, so the error against the (unshifted) oracle
  is pure roundoff.

* Pressure is diagnostic: -Lap p = div((v.grad)v).  For the cellular field
  (sin x1 cos x2, -cos x1 sin x2) this recovers (cos 2x1 + cos 2x2)/4.

* The pathwise action of a flow run driven by the scaled Brownian motion
  sqrt(2 nu) W contains two stochastic-integral terms: the drift paired
  against the martingale increments, and sqrt(2 nu) times the drift paired
  against the raw Brownian increments.  For such runs they are the same
  sum computed twice, so their difference is floating-point reassociation
  only, and what remains is the kinetic-plus-constraint integrand per
  replica - whose mean must agree with the averaged action functional.
"""

import numpy as np
import pytest

from svns import spde
from svns.action import (
    StaticPressure,
    TrajectoryPressure,
    action_evaluate,
    prepare_action_run,
)
from svns.fields import (
    TWO_PI,
    SpectralField,
    SpectralVectorField,
    TorusGrid,
    _fft,
    _ifft,
    conjugate_defect,
    dealias,
    evaluate_at,
    leray_project,
    vector_transform,
)
from svns.flows import BrownianDriver, make_flow_ensemble
from svns.solver import (
    CFLError,
    NSConfig,
    SampledDrift,
    SteadyDrift,
    ns_solve,
    random_divergence_free,
    taylor_green,
    taylor_green_pressure,
)
from svns.spde import (
    SPDEConfig,
    SPDEState,
    diagnostic_pressure,
    ensemble_mode_means,
    make_spde_state,
    run_semimartingale_flow,
    shift_oracle,
    spde_solve,
    spde_step_ito,
    spde_step_stratonovich,
    strong_error,
    tilde_action_evaluate,
)

NU = 0.05


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(32)


@pytest.fixture(scope="module")
def tg(grid):
    return taylor_green(grid)


@pytest.fixture(scope="module")
def shear(grid):
    # u = (sin x2, 0): single-mode steady Euler data with |k|^2 = 1
    c = np.zeros((2, grid.n, grid.n), dtype=complex)
    i1 = list(grid.k).index(1)
    im1 = list(grid.k).index(-1)
    c[0, 0, i1] = -0.5j
    c[0, 0, im1] = 0.5j
    return SpectralVectorField(grid, c)


def heun_config(grid, **kw):
    base = dict(grid=grid, nu=NU, dt=1e-3, t_final=0.256, replicas=64,
                scheme="stratonovich-heun")
    base.update(kw)
    return SPDEConfig(**base)


# ---------------------------------------------------------------------------
# configuration and state validation
# ---------------------------------------------------------------------------

class TestConfigAndState:
    def test_rejects_negative_viscosity(self, grid):
        with pytest.raises(ValueError, match="nonnegative"):
            heun_config(grid, nu=-0.1)

    def test_rejects_nonpositive_steps(self, grid):
        with pytest.raises(ValueError, match="positive"):
            heun_config(grid, dt=0.0)
        with pytest.raises(ValueError, match="positive"):
            heun_config(grid, t_final=-1.0)

    def test_rejects_unaligned_horizon(self, grid):
        with pytest.raises(ValueError, match="integer multiple"):
            heun_config(grid, dt=4e-3, t_final=0.25)

    def test_rejects_bad_replica_count(self, grid):
        with pytest.raises(ValueError, match="replica"):
            heun_config(grid, replicas=0)
        with pytest.raises(ValueError, match="replica"):
            make_spde_state(taylor_green(grid), 0)

    def test_rejects_unknown_scheme(self, grid):
        with pytest.raises(ValueError, match="unknown scheme"):
            heun_config(grid, scheme="milstein")

    def test_step_count(self, grid):
        assert heun_config(grid, dt=1e-3, t_final=0.25).steps == 250

    def test_initial_state_bookkeeping(self, grid, tg):
        st = make_spde_state(tg, 3)
        assert st.coeffs.shape == (3, 2, grid.n, grid.n)
        assert st.t == 0.0 and st.step_index == 0
        assert st.replicas == 3
        assert np.array_equal(st.brownian, np.zeros((3, 2)))
        f = st.field(1)
        assert isinstance(f, SpectralVectorField)
        assert np.array_equal(f.coeffs, st.coeffs[1])
        assert np.abs(st.coeffs - tg.coeffs).max() <= 1e-15

    def test_initial_state_projects_and_dealiases(self, grid):
        # gradient field sin(x1) e1 plus a mode beyond the dealias cutoff:
        # the projection must kill the first, the mask the second
        vals = np.stack([np.sin(grid.x1) + np.cos(14 * grid.x1),
                         np.zeros_like(grid.x1)])
        st = make_spde_state(vector_transform(grid, vals), 2)
        div = grid.k1 * st.coeffs[:, 0] + grid.k2 * st.coeffs[:, 1]
        assert np.abs(div).max() <= 1e-14
        assert np.abs(st.coeffs[:, :, ~grid.dealias_mask]).max() == 0.0

    def test_grid_mismatch_rejected(self, grid, tg):
        cfg = heun_config(TorusGrid(16), replicas=2)
        with pytest.raises(ValueError, match="different grid"):
            spde_step_ito(make_spde_state(tg, 2), cfg,
                          BrownianDriver(seed=1, replicas=2))

    def test_replica_mismatches_rejected(self, grid, tg):
        st = make_spde_state(tg, 2)
        with pytest.raises(ValueError, match="state and config"):
            spde_step_ito(st, heun_config(grid, replicas=3),
                          BrownianDriver(seed=1, replicas=2))
        with pytest.raises(ValueError, match="driver and state"):
            spde_step_ito(st, heun_config(grid, replicas=2),
                          BrownianDriver(seed=1, replicas=4))


# ---------------------------------------------------------------------------
# single steps against hand-assembled updates
# ---------------------------------------------------------------------------

class TestSingleSteps:
    def test_constant_field_is_a_fixed_point(self, grid):
        # a spatially constant field has zero advection, zero dissipation,
        # and zero transport phase (k = 0), so both schemes leave it alone
        vals = np.stack([0.3 * np.ones_like(grid.x1),
                         -0.2 * np.ones_like(grid.x1)])
        st = make_spde_state(vector_transform(grid, vals), 4)
        cfg = heun_config(grid, replicas=4, dt=1e-3, t_final=1e-3)
        drv = BrownianDriver(seed=17, replicas=4)
        for step in (spde_step_stratonovich, spde_step_ito):
            out = step(st, SPDEConfig(grid=grid, nu=NU, dt=1e-3, t_final=1e-3,
                                      replicas=4, scheme=cfg.scheme), drv)
            assert np.array_equal(out.coeffs, st.coeffs)

    def test_ito_step_without_noise_is_euler_advection(self, grid):
        # nu = 0 silences both the noise and the viscous term, leaving one
        # forward-Euler step of projected, dealiased advection
        v0 = random_divergence_free(grid, seed=5, kmax=4, amplitude=0.5)
        dt = 1e-3
        cfg = SPDEConfig(grid=grid, nu=0.0, dt=dt, t_final=dt, replicas=2,
                         scheme="ito")
        out = spde_step_ito(make_spde_state(v0, 2), cfg,
                            BrownianDriver(seed=23, replicas=2))
        w = _ifft(v0.coeffs)
        g1 = _ifft(1j * grid.k1 * v0.coeffs)
        g2 = _ifft(1j * grid.k2 * v0.coeffs)
        adv = vector_transform(grid, np.stack(
            [w[0].real * g1[0].real + w[1].real * g2[0].real,
             w[0].real * g1[1].real + w[1].real * g2[1].real]))
        expected = v0.coeffs - dt * leray_project(dealias(adv)).coeffs
        expected = np.where(grid.dealias_mask, expected, 0.0)
        for r in range(2):
            assert np.abs(out.coeffs[r] - expected).max() <= 1e-13

    def test_shear_heun_step_is_the_phase_multiplier(self, grid, shear):
        dt = 1e-3
        cfg = SPDEConfig(grid=grid, nu=NU, dt=dt, t_final=dt, replicas=3)
        drv = BrownianDriver(seed=31, replicas=3)
        dw = drv.increments(0, dt)
        out = spde_step_stratonovich(make_spde_state(shear, 3), cfg, drv)
        theta = np.sqrt(2.0 * NU) * (dw[:, 0, None, None] * grid.k1
                                     + dw[:, 1, None, None] * grid.k2)
        mult = 1.0 + 1j * theta - 0.5 * theta**2
        expected = mult[:, None] * shear.coeffs
        assert np.abs(out.coeffs - expected).max() <= 1e-13

    def test_shear_ito_step_is_the_phase_multiplier(self, grid, shear):
        dt = 1e-3
        cfg = SPDEConfig(grid=grid, nu=NU, dt=dt, t_final=dt, replicas=3,
                         scheme="ito")
        drv = BrownianDriver(seed=31, replicas=3)
        dw = drv.increments(0, dt)
        out = spde_step_ito(make_spde_state(shear, 3), cfg, drv)
        theta = np.sqrt(2.0 * NU) * (dw[:, 0, None, None] * grid.k1
                                     + dw[:, 1, None, None] * grid.k2)
        mult = 1.0 + 1j * theta - NU * grid.k_squared * dt
        expected = np.where(grid.dealias_mask,
                            mult[:, None] * shear.coeffs, 0.0)
        assert np.abs(out.coeffs - expected).max() <= 1e-13

    def test_steps_advance_the_bookkeeping(self, grid, tg):
        dt = 2e-3
        cfg = SPDEConfig(grid=grid, nu=NU, dt=dt, t_final=4e-3, replicas=2,
                         scheme="ito")
        drv = BrownianDriver(seed=37, replicas=2)
        st = spde_step_ito(make_spde_state(tg, 2), cfg, drv)
        st = spde_step_ito(st, cfg, drv)
        assert st.step_index == 2
        assert st.t == pytest.approx(2 * dt, abs=1e-14)
        assert np.array_equal(st.brownian,
                              drv.increments(0, dt) + drv.increments(1, dt))

    def test_cfl_guard_trips_on_tight_budget(self, grid, tg):
        cfg = SPDEConfig(grid=grid, nu=NU, dt=1e-3, t_final=1e-3, replicas=2,
                         cfl_limit=1e-4)
        with pytest.raises(CFLError, match="CFL budget"):
            spde_step_stratonovich(make_spde_state(tg, 2), cfg,
                                   BrownianDriver(seed=3, replicas=2))

    def test_single_steps_compose_like_the_solver(self, grid, tg):
        dt = 2e-3
        cfg = SPDEConfig(grid=grid, nu=NU, dt=dt, t_final=4e-3, replicas=2,
                         scheme="ito")
        drv = BrownianDriver(seed=41, replicas=2)
        by_steps = spde_step_ito(spde_step_ito(make_spde_state(tg, 2), cfg, drv),
                                 cfg, drv)
        by_solve = spde_solve(tg, cfg, drv)
        assert np.array_equal(by_steps.coeffs, by_solve.coeffs)
        assert np.array_equal(by_steps.brownian, by_solve.brownian)


# ---------------------------------------------------------------------------
# the vorticity march against the velocity form, and its replica blocks
# ---------------------------------------------------------------------------

def velocity_form_step(grid, coeffs, dw, nu, dt, stratonovich):
    """One step of the velocity equation per replica, assembled from the
    public projection and dealiasing: every product projected, every
    update projected and dealiased."""

    def drift(c):
        w = _ifft(c)
        g1 = _ifft(1j * grid.k1 * c)
        g2 = _ifft(1j * grid.k2 * c)
        adv = vector_transform(grid, w[0] * g1 + w[1] * g2)
        return -leray_project(dealias(adv)).coeffs

    out = np.empty_like(coeffs)
    for r, (c, d) in enumerate(zip(coeffs, dw)):
        theta = np.sqrt(2.0 * nu) * (d[0] * grid.k1 + d[1] * grid.k2)
        a0 = drift(c)
        if stratonovich:
            pred = c + dt * a0 + 1j * theta * c
            new = (c + 0.5 * dt * (a0 + drift(pred))
                   + 0.5 * (1j * theta * c + 1j * theta * pred))
        else:
            new = c + dt * (a0 - nu * grid.k_squared * c) + 1j * theta * c
        out[r] = dealias(leray_project(SpectralVectorField(grid, new))).coeffs
    return out


class TestVorticityMarch:
    @pytest.mark.parametrize("step", [spde_step_ito, spde_step_stratonovich])
    def test_step_matches_the_velocity_form(self, grid, step):
        v0 = random_divergence_free(grid, seed=11, kmax=6, amplitude=0.8)
        dt = 2e-3
        scheme = "ito" if step is spde_step_ito else "stratonovich-heun"
        cfg = SPDEConfig(grid=grid, nu=NU, dt=dt, t_final=dt, replicas=3,
                         scheme=scheme)
        drv = BrownianDriver(seed=13, replicas=3)
        st = make_spde_state(v0, 3)
        out = step(st, cfg, drv)
        ref = velocity_form_step(grid, st.coeffs, drv.increments(0, dt), NU, dt,
                                 stratonovich=step is spde_step_stratonovich)
        assert np.abs(out.coeffs - ref).max() <= 1e-13
        for c in out.coeffs:
            assert conjugate_defect(c) <= 1e-15

    def test_mean_mode_is_carried(self, grid):
        v0 = random_divergence_free(grid, seed=12, kmax=4, amplitude=0.5)
        c = v0.coeffs.copy()
        c[:, 0, 0] = [0.3, -0.1]
        cfg = SPDEConfig(grid=grid, nu=NU, dt=1e-3, t_final=4e-3, replicas=2)
        st = spde_solve(SpectralVectorField(grid, c), cfg,
                        BrownianDriver(seed=14, replicas=2))
        assert np.array_equal(st.coeffs[:, :, 0, 0], np.tile(c[:, 0, 0], (2, 1)))

    @pytest.mark.parametrize("scheme", ["ito", "stratonovich-heun"])
    def test_blocks_compose_like_single_steps(self, grid, tg, scheme, monkeypatch):
        replicas = 2 * spde._block_replicas(grid) + 3
        dt = 2e-3
        cfg = SPDEConfig(grid=grid, nu=NU, dt=dt, t_final=3 * dt,
                         replicas=replicas, scheme=scheme)
        drv = BrownianDriver(seed=43, replicas=replicas)
        step = spde_step_ito if scheme == "ito" else spde_step_stratonovich
        by_steps = make_spde_state(tg, replicas)
        for _ in range(3):
            by_steps = step(by_steps, cfg, drv)
        by_solve = spde_solve(tg, cfg, drv)
        assert np.array_equal(by_steps.coeffs, by_solve.coeffs)
        assert np.array_equal(by_steps.brownian, by_solve.brownian)
        # one replica per block marches every replica to the same bits
        monkeypatch.setattr(spde, "_BLOCK_BYTES", 1)
        assert spde._block_replicas(grid) == 1
        assert np.array_equal(spde_solve(tg, cfg, drv).coeffs, by_solve.coeffs)


# ---------------------------------------------------------------------------
# the shifted-field oracle
# ---------------------------------------------------------------------------

class TestShiftOracle:
    def test_zero_shift_returns_the_data(self, tg):
        out = shift_oracle(tg, np.zeros(2), NU)
        assert np.array_equal(out, tg.coeffs)

    def test_zero_viscosity_freezes_the_data(self, tg):
        out = shift_oracle(tg, np.array([0.7, -1.3]), 0.0)
        assert np.array_equal(out, tg.coeffs)

    def test_rejects_non_steady_data(self, grid):
        v = random_divergence_free(grid, seed=9, kmax=4, amplitude=0.5)
        with pytest.raises(ValueError, match="steady Euler"):
            shift_oracle(v, np.zeros(2), NU)

    def test_rejects_bad_shift_shape(self, tg):
        with pytest.raises(ValueError, match="trailing axis"):
            shift_oracle(tg, np.zeros(3), NU)

    def test_moduli_never_change(self, tg):
        w = np.random.default_rng(1).standard_normal((5, 2))
        out = shift_oracle(tg, w, NU)
        assert out.shape == (5, 2, 32, 32)
        assert np.abs(np.abs(out) - np.abs(tg.coeffs)).max() <= 1e-14

    def test_matches_pointwise_shift(self, grid, tg):
        w = np.array([0.4, -0.9])
        out = shift_oracle(tg, w, NU)
        shift = np.sqrt(2.0 * NU) * w
        pts = np.stack([grid.x1 + shift[0], grid.x2 + shift[1]], axis=-1)
        expected = evaluate_at(tg, pts)
        values = _ifft(out).real
        assert np.abs(values[0] - expected[..., 0]).max() <= 1e-11
        assert np.abs(values[1] - expected[..., 1]).max() <= 1e-11


# ---------------------------------------------------------------------------
# strong convergence against the oracle
# ---------------------------------------------------------------------------

LADDER = [4e-3, 2e-3, 1e-3]


@pytest.fixture(scope="module")
def heun_report(grid, tg):
    return strong_error(heun_config(grid), tg, LADDER,
                        BrownianDriver(seed=100, replicas=64))


@pytest.fixture(scope="module")
def ito_report(grid, tg):
    return strong_error(heun_config(grid, scheme="ito"), tg, LADDER,
                        BrownianDriver(seed=100, replicas=64))


class TestStrongConvergence:
    def test_heun_order_is_at_least_linear(self, heun_report):
        assert heun_report.scheme == "stratonovich-heun"
        assert [row.dt for row in heun_report.rows] == LADDER
        assert 0.9 <= heun_report.order <= 1.3
        assert heun_report.order == pytest.approx(0.9626, abs=0.02)

    def test_heun_errors_frozen(self, heun_report):
        frozen = [4.038983e-04, 1.997023e-04, 1.063535e-04]
        for row, ref in zip(heun_report.rows, frozen):
            assert row.mean_error == pytest.approx(ref, rel=1e-3)
            assert 0.0 < row.stderr < row.mean_error

    def test_ito_order_is_one_half(self, ito_report):
        # Euler-Maruyama on multiplicative transport noise converges at
        # order 1/2: the per-step phase-curvature miss has the viscous term
        # as its mean but an O(dt) fluctuation, and T/dt of those add in
        # quadrature to O(sqrt(dt)); halving dt shrinks the error by about
        # sqrt(2), not 2
        assert 0.35 <= ito_report.order <= 0.65
        assert ito_report.order == pytest.approx(0.4662, abs=0.02)
        e = [row.mean_error for row in ito_report.rows]
        assert 1.2 <= e[0] / e[1] <= 1.6
        assert 1.2 <= e[1] / e[2] <= 1.6

    def test_ito_errors_frozen(self, ito_report):
        frozen = [1.717685e-02, 1.234658e-02, 9.000207e-03]
        for row, ref in zip(ito_report.rows, frozen):
            assert row.mean_error == pytest.approx(ref, rel=1e-3)

    def test_heun_is_pathwise_sharper_than_ito(self, heun_report, ito_report):
        for hrow, irow in zip(heun_report.rows, ito_report.rows):
            assert hrow.mean_error * 10 < irow.mean_error

    def test_shear_heun_order(self, grid, shear):
        rep = strong_error(heun_config(grid), shear, LADDER,
                           BrownianDriver(seed=101, replicas=64))
        assert rep.order == pytest.approx(0.9936, abs=0.02)

    def test_zero_viscosity_is_exact(self, grid, tg):
        cfg = SPDEConfig(grid=grid, nu=0.0, dt=1e-3, t_final=0.04, replicas=4,
                         scheme="stratonovich-heun")
        rep = strong_error(cfg, tg, [4e-3, 1e-3],
                           BrownianDriver(seed=102, replicas=4))
        assert all(row.mean_error <= 1e-10 for row in rep.rows)
        assert rep.order is None

    def test_spectrum_drift_halves_linearly(self, grid, tg):
        # the oracle keeps every modulus constant, so the modulus drift of
        # the integrated field is pure discretization error and must shrink
        # about linearly in dt for the Heun scheme
        def drift(dt):
            cfg = heun_config(grid, dt=dt, replicas=8)
            st = spde_solve(tg, cfg, BrownianDriver(seed=103, replicas=8))
            return float(np.max(np.abs(np.abs(st.coeffs) - np.abs(tg.coeffs))))

        d_coarse, d_fine = drift(2e-3), drift(1e-3)
        assert d_coarse == pytest.approx(3.005e-06, rel=5e-3)
        assert d_fine == pytest.approx(1.300e-06, rel=5e-3)
        assert 1.5 <= d_coarse / d_fine <= 3.5

    def test_scheme_switch_changes_paths_only_slightly(self, grid, tg):
        # same increments, different scheme: the pathwise gap is dominated
        # by the Euler-Maruyama order-1/2 error and stays a fraction of a
        # percent of the field norm (which is pi sqrt(2) ~ 4.44)
        def gap(dt):
            sol = {}
            for scheme in ("ito", "stratonovich-heun"):
                cfg = SPDEConfig(grid=grid, nu=NU, dt=dt, t_final=0.128,
                                 replicas=8, scheme=scheme)
                sol[scheme] = spde_solve(tg, cfg,
                                         BrownianDriver(seed=104, replicas=8))
            d = sol["ito"].coeffs - sol["stratonovich-heun"].coeffs
            return float(np.mean(np.sqrt(
                TWO_PI**2 * np.sum(np.abs(d) ** 2, axis=(1, 2, 3)))))

        g_coarse, g_fine = gap(2e-3), gap(1e-3)
        assert g_coarse == pytest.approx(9.020e-03, rel=1e-2)
        assert g_fine == pytest.approx(8.290e-03, rel=1e-2)
        assert g_fine < 0.02 and g_coarse < 0.02

    def test_ladder_validation(self, grid, tg):
        drv = BrownianDriver(seed=1, replicas=64)
        cfg = heun_config(grid)
        with pytest.raises(ValueError, match="at least two"):
            strong_error(cfg, tg, [1e-3], drv)
        with pytest.raises(ValueError, match="strictly decreasing"):
            strong_error(cfg, tg, [1e-3, 1e-3], drv)
        with pytest.raises(ValueError, match="integer multiple of the finest"):
            strong_error(cfg, tg, [5e-3, 2e-3], drv)
        with pytest.raises(ValueError, match="not an integer multiple"):
            strong_error(heun_config(grid, t_final=0.25), tg, [4e-3, 2e-3], drv)

    def test_mismatches_rejected(self, grid, tg):
        with pytest.raises(ValueError, match="different grid"):
            strong_error(heun_config(TorusGrid(16)), tg, LADDER,
                         BrownianDriver(seed=1, replicas=64))
        with pytest.raises(ValueError, match="replica count"):
            strong_error(heun_config(grid), tg, LADDER,
                         BrownianDriver(seed=1, replicas=8))


# ---------------------------------------------------------------------------
# the two formulations agree in distribution
# ---------------------------------------------------------------------------

class TestStatisticalEquivalence:
    def test_mode_means_agree_across_schemes(self, grid, tg):
        # independent ensembles, one per scheme; the ensemble means of
        # low-mode coefficients must agree within Monte Carlo resolution,
        # and the viscous decay of the mean must emerge from both
        modes = [(0, 1, 1), (0, 0, 1)]
        idx = {k: i for i, k in enumerate(grid.k)}
        stats = {}
        for scheme, seed in (("ito", 200), ("stratonovich-heun", 201)):
            cfg = SPDEConfig(grid=grid, nu=NU, dt=1e-3, t_final=0.25,
                             replicas=1000, scheme=scheme)
            st = spde_solve(tg, cfg, BrownianDriver(seed=seed, replicas=1000))
            per_mode = {}
            for comp, k1, k2 in modes:
                vals = st.coeffs[:, comp, idx[k1], idx[k2]]
                per_mode[(comp, k1, k2)] = (
                    complex(vals.mean()),
                    float(vals.real.std(ddof=1) / np.sqrt(1000)),
                    float(vals.imag.std(ddof=1) / np.sqrt(1000)),
                )
            stats[scheme] = per_mode
        for mode in modes:
            mi, sri, sii = stats["ito"][mode]
            mh, srh, sih = stats["stratonovich-heun"][mode]
            assert abs(mi.real - mh.real) <= 3.0 * np.hypot(sri, srh)
            assert abs(mi.imag - mh.imag) <= 3.0 * np.hypot(sii, sih)
        # the active cellular mode carries |k|^2 = 2 heat decay in the mean
        pred = taylor_green(grid).coeffs[0, idx[1], idx[1]] * np.exp(-NU * 2 * 0.25)
        mi, sri, sii = stats["ito"][(0, 1, 1)]
        assert abs(mi.real - pred.real) <= 4.0 * sri
        assert abs(mi.imag - pred.imag) <= 4.0 * sii


# ---------------------------------------------------------------------------
# ensemble-mean heat decay
# ---------------------------------------------------------------------------

class TestMeanDecay:
    def test_shear_mode_decays_at_unit_rate(self, grid, shear):
        cfg = SPDEConfig(grid=grid, nu=NU, dt=5e-3, t_final=0.25,
                         replicas=2000, scheme="ito")
        (stat,) = ensemble_mode_means(shear, cfg, seed=300, modes=[(0, 0, 1)],
                                      chunk_size=1000)
        assert stat.replicas == 2000
        i1 = list(grid.k).index(1)
        pred = shear.coeffs[0, 0, i1] * np.exp(-NU * 1 * 0.25)
        assert abs(stat.mean.real - pred.real) <= 4.0 * stat.stderr_re
        assert abs(stat.mean.imag - pred.imag) <= 4.0 * stat.stderr_im

    def test_cellular_mode_decays_at_double_rate(self, grid, tg):
        cfg = SPDEConfig(grid=grid, nu=NU, dt=5e-3, t_final=0.25,
                         replicas=2000, scheme="ito")
        (stat,) = ensemble_mode_means(tg, cfg, seed=301, modes=[(0, 1, 1)],
                                      chunk_size=1000)
        i1 = list(grid.k).index(1)
        pred = tg.coeffs[0, i1, i1] * np.exp(-NU * 2 * 0.25)
        assert abs(stat.mean.real - pred.real) <= 4.0 * stat.stderr_re
        assert abs(stat.mean.imag - pred.imag) <= 4.0 * stat.stderr_im

    def test_rejects_unrepresentable_modes(self, grid, shear):
        cfg = SPDEConfig(grid=grid, nu=NU, dt=5e-3, t_final=5e-3, replicas=4,
                         scheme="ito")
        with pytest.raises(ValueError, match="not representable"):
            ensemble_mode_means(shear, cfg, seed=1, modes=[(2, 0, 1)])
        with pytest.raises(ValueError, match="not representable"):
            ensemble_mode_means(shear, cfg, seed=1, modes=[(0, 20, 0)])

    def test_single_replica_rejected(self, grid, shear):
        cfg = SPDEConfig(grid=grid, nu=NU, dt=5e-3, t_final=5e-3, replicas=1,
                         scheme="ito")
        with pytest.raises(ValueError, match="at least 2 replicas"):
            ensemble_mode_means(shear, cfg, seed=1, modes=[(0, 0, 1)])

    def test_chunked_estimate_is_deterministic(self, grid, shear):
        cfg = SPDEConfig(grid=grid, nu=NU, dt=5e-3, t_final=0.05, replicas=30,
                         scheme="ito")
        a = ensemble_mode_means(shear, cfg, seed=7, modes=[(0, 0, 1)],
                                chunk_size=10)
        b = ensemble_mode_means(shear, cfg, seed=7, modes=[(0, 0, 1)],
                                chunk_size=10)
        assert a[0].mean == b[0].mean
        assert a[0].stderr_re == b[0].stderr_re
        assert a[0].stderr_im == b[0].stderr_im

    def test_estimate_does_not_depend_on_chunking(self, grid):
        v0 = taylor_green(grid, amplitude=0.8)
        cfg = SPDEConfig(grid=grid, nu=NU, dt=5e-3, t_final=0.01, replicas=40,
                         scheme="ito")
        stats = [ensemble_mode_means(v0, cfg, seed=9, modes=[(0, 1, 1)],
                                     chunk_size=chunk)[0]
                 for chunk in (40, 20, 7)]
        for other in stats[1:]:
            assert other.mean == stats[0].mean
            assert other.stderr_re == stats[0].stderr_re
            assert other.stderr_im == stats[0].stderr_im

    def test_chunks_draw_only_their_own_rows(self, grid, monkeypatch):
        """Each chunk draws the normals of its own replicas and no more."""
        drawn = []
        normals = BrownianDriver.unit_normals

        def counting(self, *args, **kwargs):
            out = normals(self, *args, **kwargs)
            drawn.append(out.shape[0])
            return out

        monkeypatch.setattr(BrownianDriver, "unit_normals", counting)
        cfg = SPDEConfig(grid=grid, nu=NU, dt=5e-3, t_final=0.01, replicas=40,
                         scheme="ito")
        ensemble_mode_means(taylor_green(grid, amplitude=0.8), cfg, seed=9,
                            modes=[(0, 1, 1)], chunk_size=7)
        assert sum(drawn) == 40 * cfg.steps

    def test_rejects_nonpositive_chunks(self, grid, shear):
        cfg = SPDEConfig(grid=grid, nu=NU, dt=5e-3, t_final=5e-3, replicas=4,
                         scheme="ito")
        with pytest.raises(ValueError, match="chunk_size"):
            ensemble_mode_means(shear, cfg, seed=1, modes=[(0, 0, 1)], chunk_size=0)


# ---------------------------------------------------------------------------
# diagnostic pressure
# ---------------------------------------------------------------------------

class TestDiagnosticPressure:
    def test_recovers_cellular_pressure(self, grid, tg):
        st = make_spde_state(tg, 2)
        p = diagnostic_pressure(st)
        assert p.shape == (2, grid.n, grid.n)
        ref = taylor_green_pressure(grid).coeffs
        assert np.abs(p - ref).max() <= 1e-12
        assert p[:, 0, 0] == pytest.approx(0.0, abs=0.0)


# ---------------------------------------------------------------------------
# the pathwise action and its cancelling stochastic integrals
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ns_pieces(grid):
    v0 = random_divergence_free(grid, seed=7, kmax=3, amplitude=0.6)
    traj = ns_solve(v0, NSConfig(nu=NU, dt=1e-3, t_final=0.1))
    return SampledDrift(traj), TrajectoryPressure(traj)


@pytest.fixture(scope="module")
def tilde_run(ns_pieces):
    drift, pressure = ns_pieces
    return run_semimartingale_flow(drift, pressure, nu=NU, dt=1e-3,
                                   t_final=0.1,
                                   driver=BrownianDriver(seed=400, replicas=8))


class TestTildeAction:
    def test_stochastic_integrals_cancel(self, tilde_run):
        tv = tilde_action_evaluate(tilde_run)
        assert tv.cancellation_defect <= 1e-13

    def test_sums_are_the_action_pass_bit_for_bit(self, grid, ns_pieces):
        drift, pressure = ns_pieces
        kw = dict(nu=NU, dt=1e-3, t_final=0.1, stride=2)
        tilde = run_semimartingale_flow(drift, pressure, **kw,
                                        driver=BrownianDriver(seed=5, replicas=4))
        arun = prepare_action_run(drift, pressure, **kw,
                                  driver=BrownianDriver(seed=5, replicas=4))
        assert np.array_equal(tilde.kinetic, arun.kinetic0)
        assert np.array_equal(tilde.constraint, arun.constraint0)

    def test_matches_the_averaged_action(self, ns_pieces, tilde_run):
        drift, pressure = ns_pieces
        tv = tilde_action_evaluate(tilde_run)
        arun = prepare_action_run(drift, pressure, nu=NU, dt=1e-3, t_final=0.1,
                                  driver=BrownianDriver(seed=401, replicas=8))
        s = action_evaluate(arun)
        band = 3.0 * np.hypot(tv.stderr, s.stderr1) + 1e-9
        assert abs(tv.mean - s.total) <= band

    def test_value_bookkeeping(self, tilde_run):
        tv = tilde_action_evaluate(tilde_run)
        assert tv.values.shape == (8,)
        assert tv.mean == pytest.approx(float(tv.values.mean()), abs=0.0)
        assert tv.stderr > 0.0

    def test_zero_drift_zero_pressure_vanishes(self, grid):
        zero_v = SpectralVectorField(grid, np.zeros((2, grid.n, grid.n),
                                                    dtype=complex))
        zero_p = StaticPressure(SpectralField(grid, np.zeros((grid.n, grid.n),
                                                             dtype=complex)))
        run = run_semimartingale_flow(SteadyDrift(zero_v), zero_p, nu=NU,
                                      dt=1e-3, t_final=0.01,
                                      driver=BrownianDriver(seed=2, replicas=4),
                                      stride=8)
        tv = tilde_action_evaluate(run)
        assert np.array_equal(tv.values, np.zeros(4))
        assert tv.cancellation_defect == 0.0

    def test_requires_jacobian_tracking(self, grid, ns_pieces):
        drift, pressure = ns_pieces
        ens = make_flow_ensemble(grid, 4, stride=8, jacobians=False)
        with pytest.raises(ValueError, match="Jacobian"):
            run_semimartingale_flow(drift, pressure, nu=NU, dt=1e-3,
                                    t_final=0.1, ensemble=ens,
                                    driver=BrownianDriver(seed=2, replicas=4))

    def test_rejects_unaligned_horizon(self, ns_pieces):
        drift, pressure = ns_pieces
        with pytest.raises(ValueError, match="integer multiple"):
            run_semimartingale_flow(drift, pressure, nu=NU, dt=3e-3,
                                    t_final=0.1,
                                    driver=BrownianDriver(seed=2, replicas=4))

    def test_rejects_pressure_on_wrong_grid(self, ns_pieces):
        drift, _ = ns_pieces
        other = StaticPressure(SpectralField(TorusGrid(16),
                                             np.zeros((16, 16), dtype=complex)))
        with pytest.raises(ValueError, match="different grid"):
            run_semimartingale_flow(drift, other, nu=NU, dt=1e-3, t_final=0.1,
                                    driver=BrownianDriver(seed=2, replicas=4))

    def test_trapezoid_quadrature_is_close(self, ns_pieces, tilde_run):
        drift, pressure = ns_pieces
        run = run_semimartingale_flow(drift, pressure, nu=NU, dt=1e-3,
                                      t_final=0.1,
                                      driver=BrownianDriver(seed=400,
                                                            replicas=8),
                                      quadrature="trapezoid")
        tv = tilde_action_evaluate(run)
        ref = tilde_action_evaluate(tilde_run)
        assert tv.mean == pytest.approx(ref.mean, abs=1e-3)


# ---------------------------------------------------------------------------
# solver bookkeeping after a full integration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ito_end_state(grid, tg):
    cfg = SPDEConfig(grid=grid, nu=NU, dt=2e-3, t_final=0.05, replicas=4,
                     scheme="ito")
    return spde_solve(tg, cfg, BrownianDriver(seed=500, replicas=4)), cfg


class TestBookkeeping:
    def test_remains_divergence_free(self, grid, ito_end_state):
        st, _ = ito_end_state
        div = grid.k1 * st.coeffs[:, 0] + grid.k2 * st.coeffs[:, 1]
        assert np.abs(div).max() <= 1e-13

    def test_keeps_conjugate_symmetry(self, ito_end_state):
        st, _ = ito_end_state
        mirrored = np.conj(np.roll(np.flip(st.coeffs, axis=(-2, -1)), (1, 1),
                                   axis=(-2, -1)))
        assert np.abs(st.coeffs - mirrored).max() <= 1e-13

    def test_brownian_totals_match_the_driver(self, ito_end_state):
        st, cfg = ito_end_state
        drv = BrownianDriver(seed=500, replicas=4)
        total = sum(drv.increments(i, cfg.dt) for i in range(cfg.steps))
        assert np.array_equal(st.brownian, total)

    def test_clock_and_counter(self, ito_end_state):
        st, cfg = ito_end_state
        assert st.step_index == cfg.steps == 25
        assert st.t == pytest.approx(0.05, abs=1e-12)

    def test_integration_is_deterministic(self, grid, tg, ito_end_state):
        st, cfg = ito_end_state
        again = spde_solve(tg, cfg, BrownianDriver(seed=500, replicas=4))
        assert np.array_equal(st.coeffs, again.coeffs)
        assert np.array_equal(st.brownian, again.brownian)
