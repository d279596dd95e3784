"""Tests for the stochastic action functional and its first variation.

Oracles used here, each checkable by hand:

* Zero drift with zero pressure gives S = 0 exactly: the kinetic integrand
  |v(g_t)|^2 and the constraint integrand both vanish identically.

* A constant drift c has S1 = (1/2)|c|^2 T (2 pi)^2: the integrand is the
  constant |c|^2 at every point of every path, and the flow Jacobian stays
  the identity, so S2 = 0 with zero variance.

* The decaying vortex (sin x1 cos x2, -cos x1 sin x2) e^{-2 nu t} solves the
  viscous equations with kinetic energy E(t) = 2 pi^2 e^{-4 nu t}, so
  S1 = int_0^T E dt = pi^2 (1 - e^{-4 nu T}) / (2 nu) / 2 ... explicitly
  S1 = pi^2 (1 - e^{-4 nu T}) / (4 nu).  Measure preservation makes the
  per-replica lattice average of |v(g_t)|^2 equal the space integral to
  near roundoff at stride 1, so the tolerance can sit far below the Monte
  Carlo scale one would naively expect.

* An action run stores per-replica polynomials in eps, so S(eps = 0) must
  reproduce the base action bitwise, a multiplier-only direction must leave
  S1 bitwise unchanged and shift S2 exactly linearly, and the raw replica
  difference S(+eps) - S(-eps) must have variance scaling like eps^2 under
  common random numbers.

* First variation: at a solution of the viscous equations with its own
  pressure gauge, both the direct Gateaux ladder and the momentum-residual
  pairing must vanish; off solutions the ladder must equal minus the
  pairing E int int (d_t v + (v.grad)v - nu Lap v + grad p) . h dx dt,
  a scheme-independent identity checked at a 3-sigma + O(dt^2) band.

* Frozen steady drift: freezing the vortex field in time and taking h
  along the field itself leaves only the diffusion term in the pairing,
  int a dt * nu (2 pi)^2 sum |k|^2 |v_hat|^2 (the advection term pairs to
  zero against v and d_t v = 0), which is computable in closed form.

* Multiplier probes: E int int phi(g_t)(det grad g_t - 1) vanishes for
  divergence-free drifts; for the gradient drift v = grad cos x1 the volume
  change correlates with cos(x1 position) and the probe must be negative
  at many sigma while the sin(x1) probe stays at noise level by symmetry.

* The observer forms its per-node sums as contractions over the point
  axis. The per-term arithmetic they replaced is kept here as the
  reference: every coefficient must agree with it within 1e-12 of the sum
  of the magnitudes of its terms (the sums are only reordered), and the
  tr H and det H maxima bit for bit (a = sin^2 >= 0 scales them exactly).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svns.action import (
    PerturbationField,
    SineSquaredEnvelope,
    StaticPressure,
    TrajectoryPressure,
    ZeroPressure,
    _ActionObserver,
    action_evaluate,
    default_multiplier_basis,
    default_perturbation_basis,
    euler_lagrange_residual,
    gateaux_derivative,
    multiplier_probe,
    perturbed_action,
    prepare_action_run,
    trig_scalar_mode,
    trig_vector_mode,
)
from svns.fields import (
    PhaseTable,
    PointEvaluator,
    SpectralField,
    SpectralVectorField,
    TorusGrid,
    enforce_conjugate_symmetry,
    parseval_integral,
)
from svns.flows import (
    BrownianDriver,
    FlowEnsemble,
    _lattice_quadrature,
    _material_rows,
    det_jacobian,
    make_flow_ensemble,
    simpson_weights,
)
from svns.solver import (
    NSConfig,
    SampledDrift,
    ShiftedDrift,
    SteadyDrift,
    ns_solve,
    random_divergence_free,
    taylor_green,
)

NU = 0.05
DT = 1e-3
T_SHORT = 0.1


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(32)


@pytest.fixture(scope="module")
def ns_traj(grid):
    v0 = random_divergence_free(grid, seed=7, kmax=3, amplitude=0.6)
    return ns_solve(v0, NSConfig(nu=NU, dt=DT, t_final=T_SHORT))


@pytest.fixture(scope="module")
def perts(grid):
    env = SineSquaredEnvelope(T_SHORT)
    w_a = PerturbationField(grid, w_coeffs=trig_vector_mode(grid, (1, 0), "sin", 1),
                            envelope=env, label="w_a")
    w_b = PerturbationField(grid, w_coeffs=trig_vector_mode(grid, (0, 1), "cos", 0),
                            envelope=env, label="w_b")
    return {
        "w_a": w_a,
        "w_b": w_b,
        "phi": PerturbationField(grid, phi_coeffs=trig_scalar_mode(grid, (1, 0), "cos"),
                                 envelope=env, label="phi"),
        "mixed": PerturbationField(grid, w_coeffs=trig_vector_mode(grid, (0, 1), "cos", 0),
                                   phi_coeffs=trig_scalar_mode(grid, (0, 1), "sin"),
                                   envelope=env, label="mixed"),
        "zero": PerturbationField(grid, w_coeffs=np.zeros((2, grid.n, grid.n)),
                                  envelope=env, label="zero"),
        "combo": w_a.plus(w_b, label="combo"),
        # compressible direction: grad h has nonzero trace, so it exercises
        # the volume-change guard and the pressure coupling
        "compress": PerturbationField(grid, w_coeffs=trig_vector_mode(grid, (1, 0), "sin", 0),
                                      envelope=env, label="compress"),
    }


@pytest.fixture(scope="module")
def ns_run(ns_traj, perts):
    drift = SampledDrift(ns_traj)
    driver = BrownianDriver(seed=99, replicas=8)
    return prepare_action_run(drift, TrajectoryPressure(ns_traj), nu=NU, dt=DT,
                              t_final=T_SHORT, driver=driver,
                              perturbations=list(perts.values()))


@pytest.fixture(scope="module")
def tg_run(grid):
    traj = ns_solve(taylor_green(grid), NSConfig(nu=NU, dt=DT, t_final=0.25))
    driver = BrownianDriver(seed=41, replicas=4)
    return prepare_action_run(SampledDrift(traj), TrajectoryPressure(traj),
                              nu=NU, dt=DT, t_final=0.25, driver=driver)


class TestActionValues:
    def test_zero_drift_zero_action(self, grid):
        c = np.zeros((2, grid.n, grid.n), dtype=complex)
        drift = SteadyDrift(SpectralVectorField(grid, c))
        driver = BrownianDriver(seed=5, replicas=2)
        run = prepare_action_run(drift, ZeroPressure(grid), nu=NU, dt=0.05,
                                 t_final=T_SHORT, driver=driver)
        s = action_evaluate(run)
        assert s.s1 == 0.0
        assert s.s2 == 0.0
        assert s.stderr1 == 0.0
        assert s.stderr2 == 0.0
        assert s.total == 0.0

    def test_constant_drift_kinetic_term(self, grid):
        c = np.zeros((2, grid.n, grid.n), dtype=complex)
        c[0, 0, 0] = 0.3
        c[1, 0, 0] = -0.2
        drift = SteadyDrift(SpectralVectorField(grid, c))
        driver = BrownianDriver(seed=6, replicas=4)
        run = prepare_action_run(drift, ZeroPressure(grid), nu=NU, dt=2.5e-3,
                                 t_final=T_SHORT, driver=driver)
        s = action_evaluate(run)
        exact = 0.5 * (0.3**2 + 0.2**2) * T_SHORT * (2 * np.pi) ** 2
        assert abs(s.s1 - exact) <= 1e-12 * exact
        # a spatially constant drift has zero gradient, so the Jacobians
        # stay exactly I and the constraint term is identically zero
        assert s.s2 == 0.0
        assert s.stderr1 <= 1e-15
        assert run.det_defect_max == 0.0

    def test_decaying_vortex_closed_form(self, tg_run):
        s = action_evaluate(tg_run)
        exact = np.pi**2 * (1.0 - np.exp(-4 * NU * 0.25)) / (4 * NU)
        assert abs(s.s1 - exact) <= 1e-8
        assert abs(s.s2) <= 1e-8

    def test_replica_mean_matches_space_time_energy(self, ns_traj, ns_run):
        weights = simpson_weights(len(ns_traj.times) - 1, DT)
        expected = 0.5 * sum(
            w * parseval_integral(ns_traj.velocity_coeffs[i])
            for i, w in enumerate(weights))
        s = action_evaluate(ns_run)
        assert abs(s.s1 - expected) <= 1e-6

    def test_run_bookkeeping(self, ns_run, perts):
        npert = len(perts)
        r = ns_run.replicas
        assert r == 8
        assert ns_run.kinetic0.shape == (r,)
        assert ns_run.constraint0.shape == (r,)
        assert ns_run.kinetic1.shape == (npert, r)
        assert ns_run.kinetic2.shape == (npert, r)
        assert ns_run.constraint_poly.shape == (npert, 4, r)
        assert ns_run.htr_max.shape == (npert,)
        assert np.all(ns_run.htr_max >= 0.0)
        assert ns_run.pert_index(perts["phi"]) == 2
        assert ns_run.pert_index(2) == 2
        s = action_evaluate(ns_run)
        assert s.total == s.s1 + s.s2
        assert s.replicas == r

    def test_det_defect_small_for_divergence_free_drift(self, ns_run):
        assert ns_run.det_defect_max <= 1e-4


class TestPerturbedAction:
    def test_epsilon_zero_matches_base(self, ns_run, perts):
        base = action_evaluate(ns_run)
        for pert in perts.values():
            s = perturbed_action(ns_run, pert, 0.0)
            assert s.s1 == base.s1
            assert s.s2 == base.s2
            assert s.stderr1 == base.stderr1
            assert s.stderr2 == base.stderr2

    def test_multiplier_direction_shifts_constraint_linearly(self, ns_run, perts):
        i = ns_run.pert_index(perts["phi"])
        assert np.all(ns_run.kinetic1[i] == 0.0)
        assert np.all(ns_run.kinetic2[i] == 0.0)
        # with h = 0 the map g^eps equals g, so only the phi term moves and
        # it is exactly linear in eps
        assert np.all(ns_run.constraint_poly[i, 1:] == 0.0)
        base = action_evaluate(ns_run)
        eps = 0.37
        s = perturbed_action(ns_run, perts["phi"], eps)
        assert s.s1 == base.s1
        shift = eps * float(ns_run.constraint_poly[i, 0].mean())
        assert np.isclose(s.s2 - base.s2, shift, rtol=1e-12, atol=1e-15)

    def test_singularity_guard(self, ns_run, perts):
        with pytest.raises(ValueError, match="singular"):
            perturbed_action(ns_run, perts["compress"], 1e3)

    def test_crn_difference_variance_scales_with_epsilon(self, ns_run, perts):
        i = ns_run.pert_index(perts["w_a"])

        def raw_diff(eps):
            plus = np.add(*ns_run.replica_action(i, eps))
            minus = np.add(*ns_run.replica_action(i, -eps))
            return plus - minus

        v1 = raw_diff(1e-2).var(ddof=1)
        v2 = raw_diff(2e-2).var(ddof=1)
        assert 2.0 <= v2 / v1 <= 8.0


class TestGateauxDerivative:
    def test_zero_direction_gives_zero(self, ns_run, perts):
        est = gateaux_derivative(ns_run, perts["zero"], [2e-2, 1e-2])
        assert est.extrapolated == 0.0
        assert est.stderr == 0.0
        assert all(v == 0.0 for _, v, _ in est.rungs)

    def test_multiplier_direction_order_is_exact(self, ns_run, perts):
        est = gateaux_derivative(ns_run, perts["phi"], [2e-2, 1e-2])
        # S2 is exactly linear in eps for a multiplier-only direction, so
        # the rungs agree to roundoff and no convergence order is reported
        assert est.order_estimate is None

    def test_linearity_in_the_direction(self, ns_run, perts):
        ladder = [2e-2, 1e-2]
        ga = gateaux_derivative(ns_run, perts["w_a"], ladder).extrapolated
        gb = gateaux_derivative(ns_run, perts["w_b"], ladder).extrapolated
        gc = gateaux_derivative(ns_run, perts["combo"], ladder).extrapolated
        assert abs(gc - (ga + gb)) <= 1e-9

    def test_criticality_at_solution(self, ns_run, perts):
        for name in ("w_a", "w_b", "phi", "mixed", "combo", "compress"):
            est = gateaux_derivative(ns_run, perts[name], [2e-2, 1e-2])
            band = 3.0 * est.stderr + DT**2
            assert abs(est.extrapolated) <= band, (name, est.extrapolated, band)
            if est.order_estimate is not None:
                assert abs(est.order_estimate - 2.0) <= 0.5

    def test_ladder_validation(self, ns_run, perts):
        with pytest.raises(ValueError, match="at least two"):
            gateaux_derivative(ns_run, perts["w_a"], [1e-2])
        with pytest.raises(ValueError, match="strictly decreasing"):
            gateaux_derivative(ns_run, perts["w_a"], [1e-2, 2e-2])
        with pytest.raises(ValueError, match="positive"):
            gateaux_derivative(ns_run, perts["w_a"], [1e-2, -1e-3])


class TestTwoRoutes:
    def test_gateaux_equals_negative_residual_pairing(self, grid, ns_traj, perts):
        base = SampledDrift(ns_traj)
        bump = random_divergence_free(grid, seed=11, kmax=2, amplitude=0.1)
        drift = ShiftedDrift(base, bump)
        pressure = TrajectoryPressure(ns_traj)
        driver = BrownianDriver(seed=555, replicas=8)
        run = prepare_action_run(drift, pressure, nu=NU, dt=DT, t_final=T_SHORT,
                                 driver=driver,
                                 perturbations=[perts["w_a"], perts["w_b"]])
        for name in ("w_a", "w_b"):
            est = gateaux_derivative(run, perts[name], [2e-2, 1e-2])
            el = euler_lagrange_residual(
                drift, pressure, perts[name], nu=NU, dt=DT, t_final=T_SHORT,
                driver=BrownianDriver(seed=555, replicas=8))
            comb = np.hypot(est.stderr, el.stderr)
            assert abs(est.extrapolated + el.pairing) <= 3.0 * comb + DT**2
            # the test has power: both routes see a signal far above noise
            assert abs(el.pairing) >= 5.0 * max(el.stderr, 1e-300)
            assert el.residual_norm > 0.01

    def test_pairing_vanishes_at_solution(self, ns_traj, perts):
        el = euler_lagrange_residual(
            SampledDrift(ns_traj), TrajectoryPressure(ns_traj), perts["w_a"],
            nu=NU, dt=DT, t_final=T_SHORT, driver=BrownianDriver(seed=12, replicas=4))
        assert abs(el.pairing) <= 1e-15
        assert el.residual_norm <= 1e-12

    def test_frozen_steady_drift_matches_analytic_pairing(self, grid):
        # freeze the vortex: d_t v = 0 leaves residual (v.grad)v + nu k^2 v
        # (zero pressure); pairing against h = a(t) v picks out the diffusion
        # part only, int a dt * nu (2 pi)^2 sum |k|^2 |v_hat|^2
        v = taylor_green(grid)
        pert = PerturbationField(grid, w_coeffs=v.coeffs,
                                 envelope=SineSquaredEnvelope(T_SHORT),
                                 label="along-drift")
        el = euler_lagrange_residual(
            SteadyDrift(v), ZeroPressure(grid), pert, nu=NU, dt=DT,
            t_final=T_SHORT, driver=BrownianDriver(seed=13, replicas=4))
        analytic = (T_SHORT / 2.0) * NU * parseval_integral(
            np.sqrt(v.grid.k_squared) * v.coeffs)
        assert analytic > 0.09  # sanity: the oracle itself is order 0.1
        assert abs(el.pairing - analytic) <= 1e-5 * analytic
        assert abs(el.pairing) >= 5.0 * max(el.stderr, 1e-300)
        # sup of |(v.grad)v + nu k^2 v| componentwise: the advection peak 1/2
        # and the diffusion contribution nu sqrt(2) align at x1 = pi/4
        assert abs(el.residual_norm - (0.5 + NU * np.sqrt(2))) <= 1e-9

    def test_zero_drift_pairing_is_zero(self, grid, perts):
        c = np.zeros((2, grid.n, grid.n), dtype=complex)
        el = euler_lagrange_residual(
            SteadyDrift(SpectralVectorField(grid, c)), ZeroPressure(grid),
            perts["w_a"], nu=NU, dt=0.05, t_final=T_SHORT,
            driver=BrownianDriver(seed=14, replicas=2))
        assert el.pairing == 0.0
        assert el.residual_norm == 0.0


class TestMultiplierProbes:
    def test_divergence_free_probes_vanish(self, ns_traj):
        probes = multiplier_probe(SampledDrift(ns_traj), nu=NU, dt=DT,
                                  t_final=T_SHORT,
                                  driver=BrownianDriver(seed=21, replicas=8))
        assert len(probes) == 5
        for p in probes:
            assert abs(p.value) <= max(3.0 * p.stderr, 1e-4), (p.label, p.value)

    def test_gradient_drift_probe_detects_compression(self, grid):
        # v = grad cos x1 = -sin(x1) e1 compresses fluid toward the minima of
        # cos x1, so int cos(x1 at g_t) (det - 1) trends negative
        c = np.zeros((2, grid.n, grid.n), dtype=complex)
        i1 = list(grid.k).index(1)
        im1 = list(grid.k).index(-1)
        c[0, i1, 0] = 0.5j
        c[0, im1, 0] = -0.5j
        drift = SteadyDrift(SpectralVectorField(grid, c))
        env = SineSquaredEnvelope(T_SHORT)
        phis = [
            PerturbationField(grid, phi_coeffs=trig_scalar_mode(grid, (1, 0), "cos"),
                              envelope=env, label="aligned"),
            PerturbationField(grid, phi_coeffs=trig_scalar_mode(grid, (1, 0), "sin"),
                              envelope=env, label="orthogonal"),
        ]
        aligned, orthogonal = multiplier_probe(
            drift, nu=NU, dt=DT, t_final=T_SHORT,
            driver=BrownianDriver(seed=22, replicas=8), phis=phis)
        assert aligned.value < 0.0
        assert abs(aligned.value) >= 5.0 * max(aligned.stderr, 1e-300)
        assert abs(aligned.value) > 1e-3
        # by the x1 -> -x1 symmetry of the drift the sin probe carries no
        # signal; allow its own noise band plus a small deterministic floor
        assert abs(orthogonal.value) <= 3.0 * orthogonal.stderr + 1e-4


class TestQuadratureAndDeterminism:
    def test_trapezoid_agrees_with_simpson(self, ns_traj, ns_run):
        run_t = prepare_action_run(SampledDrift(ns_traj), TrajectoryPressure(ns_traj),
                                   nu=NU, dt=DT, t_final=T_SHORT,
                                   driver=BrownianDriver(seed=99, replicas=4),
                                   quadrature="trapezoid")
        s_t = action_evaluate(run_t)
        s_s = action_evaluate(ns_run)
        assert abs(s_t.s1 - s_s.s1) <= 1e-3
        assert abs(s_t.s2 - s_s.s2) <= 1e-3

    def test_unknown_quadrature_rejected(self, ns_traj):
        with pytest.raises(ValueError, match="unknown quadrature"):
            prepare_action_run(SampledDrift(ns_traj), TrajectoryPressure(ns_traj),
                               nu=NU, dt=DT, t_final=T_SHORT,
                               driver=BrownianDriver(seed=1, replicas=2),
                               quadrature="midpoint")

    def test_rerun_is_bitwise_identical(self, ns_traj, perts):
        def one_pass():
            return prepare_action_run(
                SampledDrift(ns_traj), TrajectoryPressure(ns_traj), nu=NU, dt=DT,
                t_final=0.05, driver=BrownianDriver(seed=77, replicas=4),
                perturbations=[perts_short(ns_traj.grid)])

        ra, rb = one_pass(), one_pass()
        assert np.array_equal(ra.kinetic0, rb.kinetic0)
        assert np.array_equal(ra.constraint0, rb.constraint0)
        assert np.array_equal(ra.kinetic1, rb.kinetic1)
        assert np.array_equal(ra.kinetic2, rb.kinetic2)
        assert np.array_equal(ra.constraint_poly, rb.constraint_poly)
        assert np.array_equal(ra.final_ensemble.positions, rb.final_ensemble.positions)


def perts_short(grid):
    return PerturbationField(grid, w_coeffs=trig_vector_mode(grid, (1, 0), "sin", 1),
                             envelope=SineSquaredEnvelope(0.05), label="short")


# ---------------------------------------------------------------------------
# the observer's point-axis contractions against the per-term arithmetic
# ---------------------------------------------------------------------------

def reference_accumulate(obs, t, ens, v, weight, absolute=False):
    """One node of the action observer as it was computed before its sums
    became point-axis contractions: one (directions, replicas, points)
    array per term, each reduced by the lattice quadrature, with the
    envelope folded into h. The rows come from the observer's own union
    evaluator (vector rows j-major, then the phi rows).

    With absolute=True every input is replaced by its magnitude and the one
    difference, in det H, by a sum, so every coefficient becomes the sum of
    the magnitudes of its terms: the scale of its roundoff.
    """
    f = np.abs if absolute else (lambda x: x)
    g = obs.grid
    npert, r = len(obs.perts), ens.replicas
    wi, fi = obs._w_ids, obs._phi_ids
    out = dict(k0=np.zeros(r), b0=np.zeros(r), k1=np.zeros((npert, r)),
               k2=np.zeros((npert, r)), c=np.zeros((npert, 4, r)),
               htr=np.zeros(npert), hdet=np.zeros(npert))
    table = PhaseTable(ens.positions)
    pc = obs.pressure.coeffs_at(t)
    prows = [pc]
    if wi.size:
        prows += [1j * g.k1 * pc, 1j * g.k2 * pc,
                  -g.k1 * g.k1 * pc, -g.k1 * g.k2 * pc, -g.k2 * g.k2 * pc]
    pstack = f(table.evaluate(PointEvaluator(g, np.stack(prows))))
    p_pts = pstack[0]
    det = det_jacobian(ens)
    dm1 = f(det - 1.0)
    det = f(det)
    v = f(v)
    vx, vy = v[..., 0], v[..., 1]
    out["k0"] += weight * _lattice_quadrature(vx ** 2 + vy ** 2)
    out["b0"] += weight * _lattice_quadrature(p_pts * dm1)
    if obs._union_eval is None:
        return out
    allp = f(table.evaluate(obs._union_eval))
    nw = wi.size
    aval = np.array([p.envelope.value(t) for p in obs.perts])
    dval = f(np.array([p.envelope.derivative(t) for p in obs.perts]))
    g1 = np.zeros((npert,) + p_pts.shape)
    if nw:
        _, p1, p2, p11, p12, p22 = pstack
        W = allp[:8 * nw].reshape((8, nw) + p_pts.shape)
        a = aval[wi][:, None, None]
        lh1, lh2 = _material_rows(W, v, obs.nu, a, dval[wi][:, None, None])
        out["k1"][wi] += weight * _lattice_quadrature(vx * lh1 + vy * lh2)
        out["k2"][wi] += weight * _lattice_quadrature(lh1 ** 2 + lh2 ** 2)
        trh = a * (W[1] + W[6])
        if absolute:
            deth = a * a * (W[1] * W[6] + W[2] * W[5])
        else:
            deth = a * a * (W[1] * W[6] - W[2] * W[5])
        out["htr"][wi] = np.abs(trh).max(axis=(1, 2))
        out["hdet"][wi] = np.abs(deth).max(axis=(1, 2))
        h1 = a * W[0]
        h2 = a * W[4]
        g1[wi] = p1 * h1 + p2 * h2
        g2 = 0.5 * (p11 * h1 * h1 + 2.0 * p12 * h1 * h2 + p22 * h2 * h2)
    if fi.size:
        g1[fi] += aval[fi][:, None, None] * allp[8 * nw:]
    out["c"][:, 0] += weight * _lattice_quadrature(g1 * dm1)
    if nw:
        ddtr = det * trh
        dddet = det * deth
        out["c"][wi, 0] += weight * _lattice_quadrature(p_pts * ddtr)
        out["c"][wi, 1] += weight * _lattice_quadrature(
            g2 * dm1 + g1[wi] * ddtr + p_pts * dddet)
        out["c"][wi, 2] += weight * _lattice_quadrature(g2 * ddtr + g1[wi] * dddet)
        out["c"][wi, 3] += weight * _lattice_quadrature(g2 * dddet)
    return out


SMALL = TorusGrid(8)
SMALL_T = 0.02
_small_traj = []


def small_pressure(kind, rng):
    if kind == "trajectory":
        if not _small_traj:
            v0 = random_divergence_free(SMALL, seed=3, kmax=2, amplitude=0.8)
            _small_traj.append(ns_solve(v0, NSConfig(nu=NU, dt=SMALL_T / 4, t_final=SMALL_T)))
        return TrajectoryPressure(_small_traj[0])
    if kind == "static":
        return StaticPressure(SpectralField(SMALL, band_limited(rng, ())))
    return ZeroPressure(SMALL)


def band_limited(rng, lead):
    """Random real-field coefficients on the modes |k1|, |k2| <= 2."""
    k = SMALL.k
    keep = (np.abs(k)[:, None] <= 2) & (np.abs(k)[None, :] <= 2)
    shape = lead + (SMALL.n, SMALL.n)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * keep
    return enforce_conjugate_symmetry(c)


class TestObserverContractions:
    """The fused per-node sums agree with the per-term arithmetic."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kinds=st.lists(st.sampled_from(["vector", "phi", "mixed"]), max_size=4),
           pressure=st.sampled_from(["trajectory", "static", "zero"]),
           node=st.integers(0, 4), replicas=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_sums_match_the_per_term_arithmetic(self, kinds, pressure, node, replicas, seed):
        rng = np.random.default_rng(seed)
        env = SineSquaredEnvelope(SMALL_T)
        perts = tuple(PerturbationField(
            SMALL, w_coeffs=band_limited(rng, (2,)) if kind != "phi" else None,
            phi_coeffs=band_limited(rng, ()) if kind != "vector" else None,
            envelope=env, label=kind) for kind in kinds)
        npts = 10
        ens = FlowEnsemble(
            SMALL, np.zeros((npts, 2)), rng.uniform(-1.0, 7.0, (replicas, npts, 2)),
            np.eye(2) + 0.3 * rng.standard_normal((replicas, npts, 2, 2)), 0.0, 0)
        v = rng.standard_normal((replicas, npts, 2))
        t = node * SMALL_T / 4  # the stored nodes; a and a' both vary
        weight = float(rng.uniform(0.1, 2.0))
        obs = _ActionObserver(SMALL, small_pressure(pressure, rng), perts, replicas, NU)
        obs.accumulate(0, t, ens, v, None, weight)
        ref = reference_accumulate(obs, t, ens, v, weight)
        scale = reference_accumulate(obs, t, ens, v, weight, absolute=True)
        assert np.array_equal(obs.k0, ref["k0"])
        assert np.array_equal(obs.b0, ref["b0"])
        for name, got in (("k1", obs.k1), ("k2", obs.k2), ("c", obs.c)):
            assert got.shape == ref[name].shape
            assert np.all(np.abs(got - ref[name]) <= 1e-12 * scale[name]), name
        assert np.array_equal(obs.htr_max, ref["htr"])
        assert np.array_equal(obs.hdet_max, ref["hdet"])
        phi_only = [i for i, kind in enumerate(kinds) if kind == "phi"]
        assert np.all(obs.k1[phi_only] == 0.0)
        assert np.all(obs.c[phi_only, 1:] == 0.0)

    def test_replica_blocks_do_not_change_a_bit(self, ns_traj, perts, monkeypatch):
        def one_pass():
            return prepare_action_run(
                SampledDrift(ns_traj), TrajectoryPressure(ns_traj), nu=NU, dt=DT,
                t_final=T_SHORT, driver=BrownianDriver(seed=12, replicas=5),
                perturbations=list(perts.values()), stride=4)

        base = one_pass()
        # 64 points per replica: blocks of 1, 2 and all 5 replicas
        for block in (64, 128, 8192):
            monkeypatch.setattr(_ActionObserver, "_BLOCK_POINTS", block)
            run = one_pass()
            for name in ("kinetic1", "kinetic2", "constraint_poly", "htr_max", "hdet_max"):
                assert np.array_equal(getattr(run, name), getattr(base, name)), (block, name)


class TestValidation:
    def test_envelope_required_and_must_vanish(self, grid):
        with pytest.raises(ValueError, match="envelope is required"):
            PerturbationField(grid, w_coeffs=np.zeros((2, grid.n, grid.n)))

        class FlatEnvelope:
            t_final = 1.0

            def value(self, t):
                return 1.0

            def derivative(self, t):
                return 0.0

        with pytest.raises(ValueError, match="vanish at both"):
            PerturbationField(grid, w_coeffs=np.zeros((2, grid.n, grid.n)),
                              envelope=FlatEnvelope())

    def test_envelope_horizon_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            SineSquaredEnvelope(-1.0)

    def test_envelope_derivative_consistent(self):
        env = SineSquaredEnvelope(0.7)
        h = 1e-6
        for t in (0.13, 0.31, 0.55):
            fd = (env.value(t + h) - env.value(t - h)) / (2 * h)
            assert abs(env.derivative(t) - fd) <= 1e-6

    def test_shape_validation(self, grid):
        env = SineSquaredEnvelope(1.0)
        with pytest.raises(ValueError, match=r"\(2, n, n\)"):
            PerturbationField(grid, w_coeffs=np.zeros((grid.n, grid.n)), envelope=env)
        with pytest.raises(ValueError, match=r"\(n, n\)"):
            PerturbationField(grid, phi_coeffs=np.zeros((2, grid.n, grid.n)),
                              envelope=env)

    def test_horizon_mismatch_rejected(self, ns_traj, grid):
        pert = PerturbationField(grid, w_coeffs=trig_vector_mode(grid, (1, 0), "sin", 1),
                                 envelope=SineSquaredEnvelope(0.2), label="long")
        with pytest.raises(ValueError, match="horizon"):
            prepare_action_run(SampledDrift(ns_traj), TrajectoryPressure(ns_traj),
                               nu=NU, dt=DT, t_final=T_SHORT,
                               driver=BrownianDriver(seed=1, replicas=2),
                               perturbations=[pert])

    def test_pressure_grid_mismatch_rejected(self, ns_traj):
        with pytest.raises(ValueError, match="different grid"):
            prepare_action_run(SampledDrift(ns_traj), ZeroPressure(TorusGrid(16)),
                               nu=NU, dt=DT, t_final=T_SHORT,
                               driver=BrownianDriver(seed=1, replicas=2))

    def test_jacobian_tracking_required(self, ns_traj, grid):
        ens = make_flow_ensemble(grid, 2, jacobians=False)
        with pytest.raises(ValueError, match="Jacobian"):
            prepare_action_run(SampledDrift(ns_traj), TrajectoryPressure(ns_traj),
                               nu=NU, dt=DT, t_final=T_SHORT,
                               driver=BrownianDriver(seed=1, replicas=2),
                               ensemble=ens)

    def test_horizon_must_be_step_multiple(self, ns_traj):
        with pytest.raises(ValueError, match="integer multiple"):
            prepare_action_run(SampledDrift(ns_traj), TrajectoryPressure(ns_traj),
                               nu=NU, dt=3e-3, t_final=T_SHORT,
                               driver=BrownianDriver(seed=1, replicas=2))

    def test_unregistered_perturbation_rejected(self, ns_run, grid):
        stranger = PerturbationField(grid, w_coeffs=trig_vector_mode(grid, (1, 0), "sin", 1),
                                     envelope=SineSquaredEnvelope(T_SHORT))
        with pytest.raises(ValueError, match="not registered"):
            ns_run.pert_index(stranger)

    def test_out_of_range_index_rejected(self, ns_run, perts):
        for bad in (-1, len(perts), np.int64(len(perts) + 3)):
            with pytest.raises(ValueError, match="outside"):
                ns_run.pert_index(bad)

    def test_combining_different_horizons_rejected(self, grid):
        a = PerturbationField(grid, w_coeffs=np.zeros((2, grid.n, grid.n)),
                              envelope=SineSquaredEnvelope(0.1))
        b = PerturbationField(grid, w_coeffs=np.zeros((2, grid.n, grid.n)),
                              envelope=SineSquaredEnvelope(0.2))
        with pytest.raises(ValueError, match="different horizons"):
            a.plus(b)

    def test_default_bases_sizes(self, grid):
        assert len(default_perturbation_basis(grid, 1.0)) == 15
        assert len(default_multiplier_basis(grid, 1.0)) == 5

    def test_static_pressure_wraps_field(self, grid):
        from svns.fields import SpectralField

        c = trig_scalar_mode(grid, (1, 0), "cos")
        p = StaticPressure(SpectralField(grid, c))
        assert np.array_equal(p.coeffs_at(0.0), c)
        assert np.array_equal(p.coeffs_at(0.37), c)
