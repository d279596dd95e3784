"""The benchmark's own checks: each reference agrees with svns on correct
output, and each check rejects a deliberately wrong output.

Small grids and a handful of steps keep the whole file to a few seconds.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import tracer as tracing
import workloads
from svns import fields, flows, noether, solver, spde

DT = 1e-3


@pytest.fixture(scope="module")
def tg_traj():
    grid = fields.TorusGrid(16)
    return solver.ns_solve(solver.taylor_green(grid, 0.0, 0.1, 0.7),
                           solver.NSConfig(nu=0.1, dt=DT, t_final=6 * DT))


def _bump(a, index=(0,)):
    """One entry of a moved by one unit in the last place."""
    b = np.array(a, copy=True)
    flat = b.reshape(-1)
    i = np.ravel_multi_index(index + (0,) * (b.ndim - len(index)), b.shape) if b.ndim else 0
    if np.iscomplexobj(flat):
        flat[i] = complex(np.nextafter(flat[i].real, np.inf), flat[i].imag)
    else:
        flat[i] = np.nextafter(flat[i], np.inf)
    return b


# -- references agree with the program --------------------------------------

def test_transforms_match_the_program():
    grid = fields.TorusGrid(16)
    v = solver.random_divergence_free(grid, seed=3, kmax=4)
    np.testing.assert_allclose(oracles.grid_values(v.coeffs), v.values(), atol=1e-13)
    np.testing.assert_allclose(oracles.grid_coeffs(v.values()), v.coeffs, atol=1e-15)
    pts = np.random.default_rng(0).uniform(0, 7, size=(20, 2))
    np.testing.assert_allclose(oracles.direct_sum(v.coeffs, pts).T,
                               fields.evaluate_at(v, pts), atol=1e-13)


def test_shift_oracle_matches_the_program():
    grid = fields.TorusGrid(16)
    u = solver.taylor_green(grid, 0.0, 0.0, 0.8)
    w = np.random.default_rng(1).standard_normal((3, 2))
    np.testing.assert_allclose(oracles.shifted_coeffs(u.coeffs, w, 0.05),
                               spde.shift_oracle(u, w, 0.05), atol=1e-15)


# -- ns-verify ---------------------------------------------------------------

def test_taylor_green_check(tg_traj):
    tr = tg_traj
    assert oracles.check_taylor_green(tr.times, tr.velocity_coeffs, 0.1, 0.7) == []
    bad = tr.velocity_coeffs.copy()
    bad[3, 0, 1, 1] += 1e-8
    assert oracles.check_taylor_green(tr.times, bad, 0.1, 0.7)
    assert oracles.check_taylor_green(tr.times, tr.velocity_coeffs, 0.1, 0.7 * (1 + 1e-7))


def test_residual_and_energy_checks(tg_traj):
    tr = tg_traj
    v, p, r = tr.velocity_coeffs, tr.pressure_coeffs, tr.rhs_coeffs
    res = solver.ns_residual(tr)
    energy = solver.energy_balance_defects(tr)
    assert oracles.check_residual(0.1, v, p, r, res) == []
    assert oracles.check_energy(tr.times, 0.1, v, energy) == []
    bad_r = r.copy()
    bad_r[2, 1, 1, 0] += 1e-9
    assert oracles.check_residual(0.1, v, p, bad_r, res)
    assert oracles.check_residual(0.1, v, p, r, 2e-10)
    bad_v = v.copy()
    bad_v[4, 0, 1, 1] *= 1 + 1e-8
    assert oracles.check_energy(tr.times, 0.1, bad_v, energy)
    assert oracles.check_energy(tr.times, 0.1, v, energy + 2e-10)


def test_translation_charge_check(tg_traj):
    tr = tg_traj
    rep = noether.noether_residual(noether.translation_pair(tr.grid, 0), tr)
    v = tr.velocity_coeffs
    assert oracles.check_translation_charges(v, rep.charge, rep.residual) == []
    drifting = v.copy()
    drifting[:, 1, 0, 0] = 1e-9 * np.arange(len(v))   # y-momentum grows
    assert oracles.check_translation_charges(drifting, rep.charge, rep.residual)
    assert oracles.check_translation_charges(v, rep.charge + 1e-9, rep.residual)
    assert oracles.check_translation_charges(v, rep.charge, rep.residual + 2e-10)


def test_trajectory_reload_check(tg_traj):
    tr = tg_traj
    idx = oracles.checkpoint_slots(len(tr.times), 4)
    assert idx == [0, 4, 6]

    def loaded(**change):
        fields_ = dict(times=tr.times[idx], velocity_coeffs=tr.velocity_coeffs[idx],
                       pressure_coeffs=tr.pressure_coeffs[idx],
                       rhs_coeffs=tr.rhs_coeffs[idx], nu=tr.nu)
        fields_.update(change)
        return SimpleNamespace(**fields_)

    args = (tr.times, tr.velocity_coeffs, tr.pressure_coeffs, tr.rhs_coeffs, tr.nu, 4)
    assert oracles.check_trajectory_reload(*args, loaded()) == []
    assert oracles.check_trajectory_reload(
        *args, loaded(velocity_coeffs=_bump(tr.velocity_coeffs[idx], (1, 0, 1, 1))))
    assert oracles.check_trajectory_reload(
        *args, loaded(rhs_coeffs=_bump(tr.rhs_coeffs[idx], (2,))))
    assert oracles.check_trajectory_reload(*args, loaded(times=_bump(tr.times[idx], (2,))))


def test_resampled_node_check(tg_traj):
    node = tg_traj.velocity_coeffs[-1]
    assert oracles.check_resampled_node(node.copy(), node) == []
    assert oracles.check_resampled_node(node + 1e-11, node)


def test_strided_checkpoint_fault_shows(tg_traj, tmp_path):
    """The fault kept in ns-verify: a stride that does not divide the step
    count leaves a short last interval that resampling misses."""
    solver.save_trajectory(tg_traj, tmp_path, stride=5)
    loaded = solver.load_trajectory(tmp_path)
    got = solver.SampledDrift(loaded).coeffs_at(float(loaded.times[-1]))
    assert oracles.check_resampled_node(got, loaded.velocity_coeffs[-1])


# -- criticality -------------------------------------------------------------

def test_gateaux_check():
    rng = np.random.default_rng(2)
    k1 = 1e-9 * rng.standard_normal(16)
    c1 = 1e-9 * rng.standard_normal(16)
    own = k1 + c1
    est = SimpleNamespace(label="h", extrapolated=float(own.mean()),
                          stderr=float(own.std(ddof=1) / 4.0))
    assert oracles.check_gateaux(k1, c1, est, DT) == []
    assert oracles.check_gateaux(k1, c1, SimpleNamespace(
        label="h", extrapolated=est.extrapolated + 1e-9, stderr=est.stderr), DT)
    off = k1 + 1e-5
    est_off = SimpleNamespace(label="h", extrapolated=float((off + c1).mean()),
                              stderr=est.stderr)
    assert oracles.check_gateaux(off, c1, est_off, DT)


def test_det_and_point_eval_checks():
    jac = np.broadcast_to(np.eye(2), (2, 5, 2, 2)).copy()
    assert oracles.check_det(1e-6, jac) == []
    assert oracles.check_det(2e-4, jac)
    jac[1, 3, 0, 0] += 2e-4
    assert oracles.check_det(1e-6, jac)

    grid = fields.TorusGrid(16)
    v = solver.random_divergence_free(grid, seed=5, kmax=4)
    pts = np.random.default_rng(3).uniform(-1, 8, size=(30, 2))
    vals, grads = solver.SteadyDrift(v).velocity_and_gradient(0.0, pts)
    assert oracles.check_point_eval(v.coeffs, pts, vals, grads) == []
    assert oracles.check_point_eval(v.coeffs, pts, vals * (1 + 1e-10), grads)
    bad = grads.copy()
    bad[7, 0, 1] += 1e-10
    assert oracles.check_point_eval(v.coeffs, pts, vals, bad)


def test_tilde_check():
    w = np.random.default_rng(4).standard_normal(8)
    mart = np.sqrt(2 * 0.05) * w
    kin = np.linspace(1.0, 2.0, 8)
    assert oracles.check_tilde(mart, w, 0.05, kin, kin.copy()) == []
    assert oracles.check_tilde(mart + 1e-12, w, 0.05, kin, kin)
    assert oracles.check_tilde(mart, w, 0.05, kin, kin + 1e-9)


def test_ensemble_reload_check():
    grid = fields.TorusGrid(8)
    ens = flows.make_flow_ensemble(grid, 2)
    seed = 2**64 - 1
    copy = flows.FlowEnsemble(grid, ens.initial_points.copy(), ens.positions.copy(),
                              ens.jacobians.copy(), ens.t, ens.step_index)
    assert oracles.check_ensemble_reload(ens, seed, copy, seed) == []
    assert oracles.check_ensemble_reload(ens, seed, copy, float(seed))
    copy.positions = _bump(copy.positions, (1, 5))
    assert oracles.check_ensemble_reload(ens, seed, copy, seed)


def test_ensemble_seed_fault_shows_for_every_workload_seed(tmp_path):
    """The fault kept in criticality: the driver seed it checkpoints cannot
    survive a float round trip, whatever the workload seed."""
    for seed in (0, 1, 7, 2**40 + 3):
        s = workloads.derived_seed(seed, "criticality/driver") | (1 << 63) | 1
        assert int(float(s)) != s
    grid = fields.TorusGrid(8)
    path = tmp_path / "ens.txt"
    flows.save_ensemble(flows.make_flow_ensemble(grid, 1, stride=2), path, seed=2**64 - 1)
    assert flows.load_ensemble(path)[1] != 2**64 - 1


# -- noether -----------------------------------------------------------------

def test_invariance_and_drift_checks():
    defect = np.array([0.0, 1e-7, 2e-7])
    stderr = np.array([0.0, 1e-7, 1e-7])
    assert oracles.check_invariance(defect, stderr, DT) == []
    assert oracles.check_invariance(defect + [0, 0, 2e-6], stderr, DT)
    assert oracles.check_invariance(defect, stderr, DT, warning="not measure-preserving")
    assert oracles.check_charge_drift(0.1, 1e-7, 1e-7, DT) == []
    assert oracles.check_charge_drift(0.1, 5e-6, 1e-6, DT)


def test_charge_series_check():
    grid = fields.TorusGrid(16)
    v = solver.random_divergence_free(grid, seed=6, kmax=4)
    pos = np.random.default_rng(5).uniform(0, 7, size=(3, 10, 2))
    vals = fields.evaluate_at(v, pos)
    series = oracles.TWO_PI**2 * vals[..., 0].mean(axis=-1)
    eta = np.array([1.0, 0.0])
    assert oracles.check_charge_series(series, v.coeffs, pos, eta) == []
    assert oracles.check_charge_series(series + 1e-9, v.coeffs, pos, eta)
    y_series = oracles.TWO_PI**2 * vals[..., 1].mean(axis=-1)
    assert oracles.check_charge_series(y_series, v.coeffs, pos, eta)


# -- spde --------------------------------------------------------------------

def test_strong_errors_check():
    rng = np.random.default_rng(6)
    own = [4e-4 * (1 + 0.1 * rng.standard_normal(8)), 1e-4 * (1 + 0.1 * rng.standard_normal(8))]

    def rows(scale=(1.0, 1.0)):
        return [SimpleNamespace(dt=d, mean_error=float(e.mean()) * s,
                                stderr=float(e.std(ddof=1) / np.sqrt(8)))
                for d, e, s in zip((4e-3, 1e-3), own, scale)]

    assert oracles.check_strong_errors(rows(), own) == []
    assert oracles.check_strong_errors(rows((1.0, 1 + 1e-8)), own)
    assert oracles.check_strong_errors(rows(), own[:1])
    flat = [own[0], own[0]]
    assert oracles.check_strong_errors(
        [SimpleNamespace(dt=d, mean_error=float(own[0].mean()),
                         stderr=float(own[0].std(ddof=1) / np.sqrt(8))) for d in (4e-3, 1e-3)],
        flat)


def test_mode_means_check():
    exact = [0.2j, -0.1 + 0.0j]
    stats = [SimpleNamespace(mode=(0, 1, 1), mean=0.2j + 1e-5, stderr_re=1e-5, stderr_im=1e-5),
             SimpleNamespace(mode=(1, 1, 1), mean=-0.1 + 0j, stderr_re=1e-5, stderr_im=1e-5)]
    assert oracles.check_mode_means(stats, exact) == []
    stats[1].mean = -0.1 + 5e-5j
    assert oracles.check_mode_means(stats, exact)


# -- tracer ------------------------------------------------------------------

def test_tracer_counts_and_restores():
    original = fields.PhaseTable.evaluate
    tr = tracing.Tracer()
    grid = fields.TorusGrid(8)
    v = solver.random_divergence_free(grid, seed=1, kmax=2)
    pts = np.zeros((3, 2))
    tr.install()
    try:
        solver.SteadyDrift(v).velocity(0.0, pts)
    finally:
        tr.uninstall()
    assert fields.PhaseTable.evaluate is original
    m = tr.layer_metrics()
    assert m["solver.drift_eval.calls"] == 1
    assert m["fields.point_eval.calls"] == 1
    assert m["fields.phase_table.builds"] == 1 and m["fields.phase_table.reuse"] == 1.0
    ev = fields.PointEvaluator(grid, v.coeffs)
    assert m["fields.point_eval.madds"] == 2 * len(ev.kr) * len(ev.kc) * 3
    assert set(m) == set(tracing.LAYER_METRICS)
    assert tr.missing == []


def test_self_time_subtracts_direct_children():
    tr = tracing.Tracer()
    tr.spans = [("flows.run_flow", 0.0, 10.0, -1, True),
                ("solver.drift_eval", 1.0, 4.0, 0, True),
                ("fields.point_eval", 1.5, 3.5, 1, True),
                ("solver.drift_eval", 5.0, 6.0, 0, True)]
    m = tr.layer_metrics()
    assert m["flows.run_flow.self_s"] == pytest.approx(6.0)
    assert m["solver.drift_eval.s"] == pytest.approx(4.0)
    assert m["fields.point_eval.s"] == pytest.approx(2.0)


def test_benchmark_file_lists_what_the_runs_report():
    import json
    from pathlib import Path

    import run

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (k, u, b) for k, (u, b, *_) in tracing.LAYER_METRICS.items()]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
