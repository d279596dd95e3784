"""Stochastic flow tests against closed-form oracles.

Hand-derived references used below:
- shear v = (A x2, 0): straight-line characteristics x1(t) = x1(0) + A x2(0) t,
  Jacobian I + t A e1 e2^T, det = 1; the Heun step reproduces all of it exactly
  (to roundoff) because the drift is linear with nilpotent gradient.
- compressible drift v = (sin x1, 0), nu = 0: separable ODE with solution
  tan(x1(t)/2) = e^t tan(x1(0)/2), Jacobian entry
  J11 = sin(x1(t))/sin(x1(0)) away from the fixed points and e^{+-t} at
  x1(0) = 0, pi; det J = J11, matching exp(integral of div v along the path).
- zero drift: displacement is sqrt(2 nu) W_t, variance 2 nu t per component,
  identical for every initial point of a replica (spatially uniform noise).
"""

import numpy as np
import pytest

from svns.fields import (
    PhaseTable,
    SpectralVectorField,
    TorusGrid,
    transform,
    vector_transform,
)
from svns.flows import (
    BranchEstimate,
    BrownianDriver,
    ConstantObservable,
    DriftVelocityObservable,
    FlowObserver,
    IdentityObservable,
    det_jacobian,
    flow_step,
    generalized_derivative,
    inverse_jacobian_divergence_check,
    jacobian_step,
    load_ensemble,
    make_flow_ensemble,
    measure_preservation_defects,
    run_flow,
    save_ensemble,
    simpson_weights,
    trapezoid_weights,
)
from svns.solver import NSConfig, SampledDrift, SteadyDrift, ns_solve, taylor_green

GRID = TorusGrid(32)


def zero_drift(grid=GRID):
    return SteadyDrift(SpectralVectorField(grid, np.zeros((2, grid.n, grid.n), dtype=complex)))


def uniform_drift(c1, c2, grid=GRID):
    c = np.zeros((2, grid.n, grid.n), dtype=complex)
    c[0, 0, 0] = c1
    c[1, 0, 0] = c2
    return SteadyDrift(SpectralVectorField(grid, c))


def shear_drift(amplitude, grid=GRID):
    """v = (A sin x2, 0) is periodic; for exactness tests we instead use the
    linear shear via a custom drift object."""

    class _Shear:
        def __init__(self):
            self.grid = grid

        def velocity(self, t, points):
            out = np.zeros_like(points)
            out[..., 0] = amplitude * points[..., 1]
            return out

        def velocity_and_gradient(self, t, points):
            v = self.velocity(t, points)
            h = np.zeros(points.shape[:-1] + (2, 2))
            h[..., 0, 1] = amplitude
            return v, h

    return _Shear()


def compressible_drift(grid=GRID):
    vals = np.stack([np.sin(grid.x1), np.zeros_like(grid.x1)])
    return SteadyDrift(vector_transform(grid, vals))


def tg_drift(nu=0.02, dt=2e-3, t_final=0.25, grid=GRID):
    traj = ns_solve(taylor_green(grid), NSConfig(nu=nu, dt=dt, t_final=t_final))
    return SampledDrift(traj)


class TestBrownianDriver:
    def test_reproducible_and_stateless(self):
        a = BrownianDriver(seed=5, replicas=8)
        b = BrownianDriver(seed=5, replicas=8)
        np.testing.assert_array_equal(a.increments(3, 0.01), b.increments(3, 0.01))
        np.testing.assert_array_equal(a.branch_increments(3, 2, 0.01),
                                      b.branch_increments(3, 2, 0.01))

    def test_order_independence(self):
        a = BrownianDriver(seed=5, replicas=8)
        b = BrownianDriver(seed=5, replicas=8)
        first = a.increments(0, 0.01)
        later = a.increments(7, 0.01)
        np.testing.assert_array_equal(b.increments(7, 0.01), later)
        np.testing.assert_array_equal(b.increments(0, 0.01), first)

    def test_streams_and_keys_distinct(self):
        d = BrownianDriver(seed=5, replicas=8)
        main = d.increments(0, 0.01)
        assert not np.array_equal(main, d.increments(1, 0.01))
        assert not np.array_equal(main, d.branch_increments(0, 0, 0.01))
        assert not np.array_equal(d.branch_increments(0, 0, 0.01),
                                  d.branch_increments(0, 1, 0.01))
        assert not np.array_equal(main, BrownianDriver(seed=6, replicas=8).increments(0, 0.01))

    def test_moment_statistics(self):
        d = BrownianDriver(seed=42, replicas=50)
        dt = 0.02
        draws = np.stack([d.increments(i, dt) for i in range(400)])
        flat = draws.ravel()
        n = flat.size
        assert np.all(np.isfinite(flat))
        assert abs(flat.mean()) <= 5 * np.sqrt(dt / n)
        assert abs(flat.var() / dt - 1.0) <= 5 * np.sqrt(2.0 / n)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            BrownianDriver(seed=0, replicas=0)
        with pytest.raises(ValueError):
            BrownianDriver(seed=-1, replicas=4)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_replica_range_is_the_full_draw_sliced(self, dim):
        """Chunks of 7 of 40 replicas start at offsets that are not multiples
        of Philox's 4-value block; each range is its rows of the full draw."""
        d = BrownianDriver(seed=2**63 + 5, replicas=40, dim=dim)
        for step in (0, 9):
            full = d.increments(step, 0.01)
            for start in range(0, 40, 7):
                count = min(7, 40 - start)
                np.testing.assert_array_equal(d.increments(step, 0.01, start, count),
                                              full[start:start + count])
        np.testing.assert_array_equal(d.unit_normals(2, 3, 1, start=33),
                                      d.unit_normals(2, 3, 1)[33:])
        assert d.increments(0, 0.01, 40, 0).shape == (0, dim)

    @pytest.mark.parametrize("start, count", [(-1, 2), (39, 2), (0, 41), (3, -1)])
    def test_replica_range_outside_the_driver_rejected(self, start, count):
        with pytest.raises(ValueError, match="outside"):
            BrownianDriver(seed=1, replicas=40).increments(0, 0.01, start, count)


class TestFlowStep:
    def test_zero_drift_zero_noise_is_identity(self):
        ens = make_flow_ensemble(GRID, replicas=3, stride=8)
        out = flow_step(ens, zero_drift(), 0.0, 1e-2, BrownianDriver(seed=1, replicas=3))
        np.testing.assert_array_equal(out.positions, ens.positions)
        np.testing.assert_array_equal(out.jacobians, ens.jacobians)
        assert out.step_index == 1 and out.t == 1e-2

    def test_pure_brownian_statistics(self):
        nu, dt, steps = 0.3, 5e-3, 50
        r = 10_000
        pts = np.array([[1.0, 2.0], [3.0, 0.5]])
        ens = make_flow_ensemble(GRID, replicas=r, initial_points=pts, jacobians=False)
        drv = BrownianDriver(seed=123, replicas=r)
        ens = run_flow(ens, zero_drift(), nu, dt, steps, drv)
        disp = ens.positions - ens.initial_points[None]
        # same replica noise shifts every initial point identically
        np.testing.assert_allclose(disp[:, 0], disp[:, 1], atol=1e-12)
        var = disp[:, 0].var(axis=0, ddof=1)
        expected = 2 * nu * dt * steps
        assert np.all(np.abs(var / expected - 1.0) <= 5 * np.sqrt(2.0 / r))
        assert np.all(np.abs(disp[:, 0].mean(axis=0)) <= 5 * np.sqrt(expected / r))
        corr = np.corrcoef(disp[:, 0, 0], disp[:, 0, 1])[0, 1]
        assert abs(corr) <= 5 / np.sqrt(r)

    def test_shear_flow_exact(self):
        amp = 0.7
        pts = np.array([[0.5, 1.5], [2.0, 4.0], [5.0, 0.25]])
        ens = make_flow_ensemble(GRID, replicas=2, initial_points=pts)
        drv = BrownianDriver(seed=9, replicas=2)
        t_final, dt = 0.4, 1e-2
        ens = run_flow(ens, shear_drift(amp), 0.0, dt, 40, drv)
        exact = pts.copy()
        exact[:, 0] += amp * t_final * pts[:, 1]
        np.testing.assert_allclose(ens.positions, np.broadcast_to(exact, (2, 3, 2)),
                                   rtol=0, atol=1e-12)
        jac_exact = np.array([[1.0, amp * t_final], [0.0, 1.0]])
        np.testing.assert_allclose(ens.jacobians, np.broadcast_to(jac_exact, (2, 3, 2, 2)),
                                   rtol=0, atol=1e-12)

    def test_shear_with_noise_keeps_unit_determinant(self):
        ens = make_flow_ensemble(GRID, replicas=4, stride=8)
        drv = BrownianDriver(seed=10, replicas=4)
        ens = run_flow(ens, shear_drift(1.3), 0.1, 5e-3, 60, drv)
        np.testing.assert_allclose(det_jacobian(ens), 1.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ens.jacobians[..., 0, 1], 1.3 * 0.3, rtol=0, atol=1e-12)

    def test_replica_count_mismatch(self):
        ens = make_flow_ensemble(GRID, replicas=3, stride=8)
        with pytest.raises(ValueError):
            flow_step(ens, zero_drift(), 0.0, 1e-2, BrownianDriver(seed=1, replicas=4))

    @pytest.mark.parametrize("stride", [0, -1, -8])
    def test_stride_below_one_rejected(self, stride):
        """No ZeroDivisionError, and no silently reversed lattice."""
        with pytest.raises(ValueError, match="stride"):
            make_flow_ensemble(GRID, replicas=1, stride=stride)


class TestCompressibleFlow:
    """One-dimensional compressible drift with closed-form flow and Jacobian."""

    def run(self, t_final=0.5, dt=1e-3):
        x10 = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 1.0, 4.0])
        pts = np.stack([x10, np.full_like(x10, 2.0)], axis=-1)
        ens = make_flow_ensemble(GRID, replicas=1, initial_points=pts)
        drv = BrownianDriver(seed=7, replicas=1)
        ens = run_flow(ens, compressible_drift(), 0.0, dt, int(round(t_final / dt)), drv)
        return x10, ens

    def exact_position(self, x0, t):
        out = 2 * np.arctan(np.exp(t) * np.tan(x0 / 2))
        return np.where(out < 0, out + 2 * np.pi, out)

    def test_positions_match_closed_form(self):
        t = 0.5
        x10, ens = self.run(t)
        exact = self.exact_position(x10, t)
        exact[0], exact[2] = 0.0, np.pi  # fixed points of sin
        np.testing.assert_allclose(ens.positions[0, :, 0], exact, rtol=0, atol=5e-7)
        np.testing.assert_allclose(ens.positions[0, :, 1], 2.0, rtol=0, atol=1e-12)

    def test_jacobian_matches_closed_form(self):
        t = 0.5
        x10, ens = self.run(t)
        exact_x = self.exact_position(x10, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            j_exact = np.sin(exact_x) / np.sin(x10)
        j_exact[0], j_exact[2] = np.exp(t), np.exp(-t)  # linearized rates at 0, pi
        np.testing.assert_allclose(ens.jacobians[0, :, 0, 0], j_exact, rtol=0, atol=2e-6)
        np.testing.assert_allclose(ens.jacobians[0, :, 1, 1], 1.0, rtol=0, atol=1e-12)
        assert np.max(np.abs(ens.jacobians[0, :, 0, 1])) <= 1e-12
        assert np.max(np.abs(ens.jacobians[0, :, 1, 0])) <= 1e-12
        # det = J11 here, and it strays far from 1: volume is not preserved
        np.testing.assert_allclose(det_jacobian(ens)[0], j_exact, rtol=0, atol=2e-6)
        assert np.max(np.abs(det_jacobian(ens) - 1.0)) > 0.5


class TestRunFlow:
    def test_matches_manual_stepping_bitwise(self):
        drift = tg_drift()
        ens0 = make_flow_ensemble(GRID, replicas=3, stride=8)
        drv = BrownianDriver(seed=21, replicas=3)
        out = run_flow(ens0, drift, 0.02, 2e-3, 20, drv)
        ens = ens0
        for _ in range(20):
            ens = flow_step(ens, drift, 0.02, 2e-3, drv)
        np.testing.assert_array_equal(out.positions, ens.positions)
        np.testing.assert_array_equal(out.jacobians, ens.jacobians)
        assert out.step_index == ens.step_index == 20

    def test_segmented_run_matches_single_run(self):
        drift = tg_drift()
        drv = BrownianDriver(seed=22, replicas=2)
        one = run_flow(make_flow_ensemble(GRID, replicas=2, stride=8),
                       drift, 0.02, 2e-3, 30, drv)
        two = make_flow_ensemble(GRID, replicas=2, stride=8)
        for chunk in (10, 15, 5):
            two = run_flow(two, drift, 0.02, 2e-3, chunk, drv)
        np.testing.assert_array_equal(one.positions, two.positions)
        np.testing.assert_array_equal(one.jacobians, two.jacobians)

    def test_observer_sees_every_node_with_weights(self):
        records = []

        class Probe(FlowObserver):
            def accumulate(self, node, t, ens, v, h, weight):
                records.append((node, t, weight, v.shape, h.shape))

        drift = tg_drift()
        drv = BrownianDriver(seed=23, replicas=2)
        w = simpson_weights(4, 2e-3)
        run_flow(make_flow_ensemble(GRID, replicas=2, stride=8), drift, 0.02, 2e-3, 4,
                 drv, observers=(Probe(),), weights=w)
        assert [r[0] for r in records] == [0, 1, 2, 3, 4]
        np.testing.assert_allclose([r[1] for r in records], 2e-3 * np.arange(5), atol=1e-15)
        np.testing.assert_array_equal([r[2] for r in records], w)
        assert records[0][3] == (2, 16, 2) and records[0][4] == (2, 16, 2, 2)

    def test_one_phase_table_per_node_and_predictor(self, monkeypatch):
        """The drift and the observers share the node's table; the predictor
        stage builds one more, and no table stays attached after the node."""
        built = []
        init = PhaseTable.__init__

        def counting_init(table, points):
            built.append(np.array(points))
            init(table, points)

        monkeypatch.setattr(PhaseTable, "__init__", counting_init)
        drift = compressible_drift()
        tables = []

        class Probe(FlowObserver):
            def accumulate(self, node, t, ens, v, h, weight):
                table = self.node_table(ens)
                tables.append(table)
                # the shared table evaluates the drift the observer was given
                np.testing.assert_allclose(drift.velocity(t, table), v, rtol=0, atol=1e-14)

        steps = 4
        probe = Probe()
        ens0 = make_flow_ensemble(GRID, replicas=2, stride=8)
        run_flow(ens0, drift, 0.02, 2e-3, steps, BrownianDriver(seed=24, replicas=2),
                 observers=(probe,))
        assert len(built) == (steps + 1) + steps
        assert len({id(t) for t in tables}) == steps + 1
        assert probe.table is None
        np.testing.assert_array_equal(built[0], ens0.positions)

    def test_duck_typed_drift_runs_with_observers(self):
        records = []

        class Probe(FlowObserver):
            def accumulate(self, node, t, ens, v, h, weight):
                records.append(self.node_table(ens).npts)

        amp, pts = 0.7, np.array([[0.5, 1.5], [2.0, 4.0], [5.0, 0.25]])
        ens = make_flow_ensemble(GRID, replicas=2, initial_points=pts)
        ens = run_flow(ens, shear_drift(amp), 0.0, 1e-2, 40,
                       BrownianDriver(seed=9, replicas=2), observers=(Probe(),))
        assert records == [6] * 41
        exact = pts.copy()
        exact[:, 0] += amp * 0.4 * pts[:, 1]
        np.testing.assert_allclose(ens.positions, np.broadcast_to(exact, (2, 3, 2)),
                                   rtol=0, atol=1e-12)

    def test_quadrature_weights(self):
        np.testing.assert_allclose(simpson_weights(4, 0.3),
                                   np.array([1, 4, 2, 4, 1]) * 0.1, atol=1e-15)
        np.testing.assert_allclose(trapezoid_weights(3, 0.1),
                                   np.array([0.05, 0.1, 0.1, 0.05]), atol=1e-15)
        with pytest.raises(ValueError):
            simpson_weights(5, 0.1)
        with pytest.raises(ValueError):
            run_flow(make_flow_ensemble(GRID, replicas=1, stride=8), zero_drift(), 0.0,
                     1e-2, 4, BrownianDriver(seed=1, replicas=1), weights=np.ones(3))

    def test_quadrature_integrates_smooth_functions(self):
        # composite Simpson on sin^2(pi t / T): exact integral T/2
        steps, t_final = 50, 0.5
        dt = t_final / steps
        w = simpson_weights(steps, dt)
        nodes = np.arange(steps + 1) * dt
        val = np.sum(w * np.sin(np.pi * nodes / t_final) ** 2)
        assert abs(val - t_final / 2) <= 1e-9


class TestJacobianDiagnostics:
    def setup_method(self):
        self.nu = 0.02
        self.drift = tg_drift(nu=self.nu)
        self.ens = make_flow_ensemble(GRID, replicas=4, stride=2)
        drv = BrownianDriver(seed=31, replicas=4)
        self.ens = run_flow(self.ens, self.drift, self.nu, 2e-3, 125, drv)

    def test_volume_preserved_for_ns_drift(self):
        assert np.max(np.abs(det_jacobian(self.ens) - 1.0)) <= 1e-5

    def test_inverse_jacobian_divergence_small(self):
        assert inverse_jacobian_divergence_check(self.ens) <= 1e-6

    def test_measure_preservation(self):
        f = transform(GRID, np.cos(GRID.x1) + 0.3 * np.sin(GRID.x2))
        assert np.max(measure_preservation_defects(self.ens, f)) <= 1e-6

    def test_compressible_flow_breaks_all_three(self):
        ens = make_flow_ensemble(GRID, replicas=2, stride=2)
        drv = BrownianDriver(seed=3, replicas=2)
        ens = run_flow(ens, compressible_drift(), 0.0, 2e-3, 125, drv)
        assert np.max(np.abs(det_jacobian(ens) - 1.0)) > 1e-2
        assert inverse_jacobian_divergence_check(ens) > 1e-2
        f = transform(GRID, np.cos(GRID.x1) + 0.3 * np.sin(GRID.x2))
        assert np.max(measure_preservation_defects(ens, f)) > 1e-2

    def test_diagnostics_require_jacobians(self):
        ens = make_flow_ensemble(GRID, replicas=2, stride=8, jacobians=False)
        with pytest.raises(ValueError):
            det_jacobian(ens)
        with pytest.raises(ValueError):
            inverse_jacobian_divergence_check(ens)


class TestJacobianStep:
    def test_exact_derivative_of_position_map(self):
        """Finite-difference the discrete position map in the initial point:
        the tracked Jacobian must match to the finite-difference tolerance."""
        drift = tg_drift()
        nu, dt, steps = 0.02, 2e-3, 50
        base = np.array([[1.3, 2.1]])
        delta = 1e-6
        probes = np.array([
            base[0],
            base[0] + [delta, 0.0], base[0] - [delta, 0.0],
            base[0] + [0.0, delta], base[0] - [0.0, delta],
        ])
        ens = make_flow_ensemble(GRID, replicas=2, initial_points=probes)
        drv = BrownianDriver(seed=55, replicas=2)
        ens = run_flow(ens, drift, nu, dt, steps, drv)
        for r in range(2):
            fd = np.empty((2, 2))
            fd[:, 0] = (ens.positions[r, 1] - ens.positions[r, 2]) / (2 * delta)
            fd[:, 1] = (ens.positions[r, 3] - ens.positions[r, 4]) / (2 * delta)
            np.testing.assert_allclose(ens.jacobians[r, 0], fd, rtol=0, atol=1e-7)

    def test_update_formula(self):
        rng = np.random.default_rng(0)
        j = rng.normal(size=(3, 2, 2))
        h1 = rng.normal(size=(3, 2, 2))
        h2 = rng.normal(size=(3, 2, 2))
        dt = 0.01
        out = jacobian_step(j, h1, h2, dt)
        expect = j + dt / 2 * (h1 @ j + h2 @ (j + dt * (h1 @ j)))
        np.testing.assert_allclose(out, expect, atol=1e-15)


class TestGeneralizedDerivative:
    def test_constant_observable_is_exactly_zero(self):
        drift = tg_drift()
        ens = make_flow_ensemble(GRID, replicas=8, stride=16)
        drv = BrownianDriver(seed=40, replicas=8)
        ens = run_flow(ens, drift, 0.02, 2e-3, 25, drv)
        est = generalized_derivative(ConstantObservable(1.7), ens, drift, 0.02, 2e-3,
                                     drv, branches=4)
        np.testing.assert_array_equal(est.mean, 0.0)
        np.testing.assert_array_equal(est.stderr, 0.0)

    def test_deterministic_flow_recovers_drift(self):
        drift = compressible_drift()
        pts = np.array([[1.0, 2.0], [2.5, 0.5]])
        ens = make_flow_ensemble(GRID, replicas=1, initial_points=pts, jacobians=False)
        drv = BrownianDriver(seed=41, replicas=1)
        ens = run_flow(ens, drift, 0.0, 1e-3, 100, drv)
        est = generalized_derivative(IdentityObservable(), ens, drift, 0.0, 1e-3, drv,
                                     eps_steps=8, branches=4)
        # no noise: every branch agrees and the quotient is v + O(eps)
        np.testing.assert_array_equal(est.stderr, 0.0)
        target = drift.velocity(ens.t, ens.positions)
        assert np.max(np.abs(est.mean - target)) <= 2 * est.eps

    def _aggregate(self, est, target):
        """Replica-mean difference and its standard error, per (point, comp)."""
        diff = est.mean - target
        r = diff.shape[0]
        return diff.mean(axis=0), diff.std(axis=0, ddof=1) / np.sqrt(r)

    def test_identity_observable_estimates_drift(self):
        nu, dt = 0.02, 1e-3
        drift = tg_drift(nu=nu, dt=dt, t_final=0.3)
        r = 400
        ens = make_flow_ensemble(GRID, replicas=r, stride=16, jacobians=False)
        drv = BrownianDriver(seed=42, replicas=r)
        ens = run_flow(ens, drift, nu, dt, 250, drv)
        est = generalized_derivative(IdentityObservable(), ens, drift, nu, dt, drv,
                                     eps_steps=8, branches=32)
        target = drift.velocity(ens.t, ens.positions)
        mean_diff, se = self._aggregate(est, target)
        assert np.all(np.abs(mean_diff) <= 3 * se + est.eps)

    def test_drift_observable_estimates_material_derivative(self):
        """D_t v should match (d_t + v . grad + nu Lap) v along particles."""
        from svns.fields import PointEvaluator

        nu, dt = 0.02, 1e-3
        drift = tg_drift(nu=nu, dt=dt, t_final=0.3)
        r = 400
        ens = make_flow_ensemble(GRID, replicas=r, stride=16, jacobians=False)
        drv = BrownianDriver(seed=43, replicas=r)
        ens = run_flow(ens, drift, nu, dt, 250, drv)
        est = generalized_derivative(DriftVelocityObservable(drift), ens, drift, nu,
                                     dt, drv, eps_steps=8, branches=32)
        t = ens.t
        stack = np.concatenate([drift.velocity_dt_coeffs_at(t),
                                -GRID.k_squared * drift.coeffs_at(t)])
        vals = PointEvaluator(GRID, stack)(ens.positions)
        v_pts, h_pts = drift.velocity_and_gradient(t, ens.positions)
        target = (np.moveaxis(vals[:2], 0, -1)
                  + np.einsum("...ij,...j->...i", h_pts, v_pts)
                  + nu * np.moveaxis(vals[2:], 0, -1))
        mean_diff, se = self._aggregate(est, target)
        assert np.all(np.abs(mean_diff) <= 3 * se + est.eps)

    def test_branch_scaling_slope(self):
        """With a uniform drift the conditional expectation is exact, so the
        estimator error is pure Monte Carlo noise and must halve when the
        branch count quadruples."""
        nu, dt = 0.05, 1e-3
        drift = uniform_drift(0.3, -0.2)
        r = 256
        ens = make_flow_ensemble(GRID, replicas=r, stride=16, jacobians=False)
        drv = BrownianDriver(seed=901, replicas=r)
        ens = run_flow(ens, drift, nu, dt, 50, drv)
        est = generalized_derivative(IdentityObservable(), ens, drift, nu, dt, drv,
                                     eps_steps=8, branches=64)
        truth = np.array([0.3, -0.2])
        ms = np.array([4, 8, 16, 32, 64])
        errs = [np.sqrt(np.mean((est.samples[:m].mean(axis=0) - truth) ** 2))
                for m in ms]
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert abs(slope + 0.5) <= 0.15

    def test_reproducible_and_sample_control(self):
        drift = tg_drift()
        ens = make_flow_ensemble(GRID, replicas=4, stride=16)
        drv = BrownianDriver(seed=44, replicas=4)
        ens = run_flow(ens, drift, 0.02, 2e-3, 10, drv)
        a = generalized_derivative(IdentityObservable(), ens, drift, 0.02, 2e-3, drv,
                                   branches=6)
        b = generalized_derivative(IdentityObservable(), ens, drift, 0.02, 2e-3, drv,
                                   branches=6, keep_samples=False)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.stderr, b.stderr)
        assert a.samples is not None and a.samples.shape[0] == 6
        assert b.samples is None

    def test_invalid_arguments(self):
        drift = tg_drift()
        ens = make_flow_ensemble(GRID, replicas=2, stride=16)
        drv = BrownianDriver(seed=1, replicas=2)
        with pytest.raises(ValueError):
            generalized_derivative(IdentityObservable(), ens, drift, 0.02, 2e-3, drv,
                                   branches=1)
        with pytest.raises(ValueError):
            generalized_derivative(IdentityObservable(), ens, drift, 0.02, 2e-3, drv,
                                   eps_steps=0)


class TestEnsembleCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        drift = tg_drift()
        ens = make_flow_ensemble(GRID, replicas=3, stride=8)
        drv = BrownianDriver(seed=50, replicas=3)
        ens = run_flow(ens, drift, 0.02, 2e-3, 17, drv)
        path = tmp_path / "ensemble.txt"
        save_ensemble(ens, path, seed=50)
        back, seed = load_ensemble(path)
        assert seed == 50
        assert back.grid.n == 32 and back.step_index == 17
        assert back.t == ens.t
        np.testing.assert_array_equal(back.initial_points, ens.initial_points)
        np.testing.assert_array_equal(back.positions, ens.positions)
        np.testing.assert_array_equal(back.jacobians, ens.jacobians)

    def test_round_trip_without_jacobians(self, tmp_path):
        ens = make_flow_ensemble(GRID, replicas=2, stride=16, jacobians=False)
        drv = BrownianDriver(seed=51, replicas=2)
        ens = run_flow(ens, zero_drift(), 0.1, 1e-2, 5, drv)
        path = tmp_path / "ensemble.txt"
        save_ensemble(ens, path, seed=51)
        back, seed = load_ensemble(path)
        assert back.jacobians is None
        np.testing.assert_array_equal(back.positions, ens.positions)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# n = 32\n# t = 0\n")
        with pytest.raises(ValueError):
            load_ensemble(path)

    def _saved(self, tmp_path, **kw):
        ens = make_flow_ensemble(GRID, replicas=2, stride=8, **kw)
        path = tmp_path / "ensemble.txt"
        save_ensemble(ens, path, seed=3)
        return path, path.read_text().splitlines()

    def test_truncated_file_rejected(self, tmp_path):
        """A file cut short must not load with zeros in the missing slots."""
        path, lines = self._saved(tmp_path)
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(ValueError, match="ensemble.txt.* 27 rows"):
            load_ensemble(path)

    @pytest.mark.parametrize("column, value", [(0, "16"), (1, "2"), (1, "-1"), (0, "0.5")])
    def test_index_out_of_range_rejected(self, tmp_path, column, value):
        path, lines = self._saved(tmp_path, jacobians=False)
        row = lines[-1].split()
        row[column] = value
        path.write_text("\n".join(lines[:-1] + [" ".join(row)]) + "\n")
        with pytest.raises(ValueError, match="ensemble.txt.*index outside"):
            load_ensemble(path)

    def test_repeated_row_rejected(self, tmp_path):
        path, lines = self._saved(tmp_path)
        path.write_text("\n".join(lines[:-1] + lines[-2:-1]) + "\n")
        with pytest.raises(ValueError, match="ensemble.txt.*repeats"):
            load_ensemble(path)

    def test_missing_label_row_rejected(self, tmp_path):
        path, lines = self._saved(tmp_path)
        assert lines[24].startswith("L 15 ")
        path.write_text("\n".join(lines[:24] + lines[25:]) + "\n")
        with pytest.raises(ValueError, match="ensemble.txt.* 15 rows"):
            load_ensemble(path)
