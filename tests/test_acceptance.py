"""Acceptance gate: the seven product-level guarantees, one test each.

Run with ``pytest -v tests/test_acceptance.py``; the verbose listing gives
one PASS/FAIL line per guarantee.  Each test also prints the measured
numbers next to their tolerances, visible with ``-s`` or ``-rA``.

The guarantees, at desk scale (32^2 grid, horizons <= 1, <= 10^4 replicas):

1.  Solver fidelity - the decaying-vortex benchmark tracks its closed form
    to 1e-8 in sup norm over a unit horizon, with momentum residual and
    per-step energy balance at 1e-10.
2.  Volume preservation as criticality - stochastic flows driven by an
    incompressible drift keep det(grad g) = 1 to 1e-4; pressure-direction
    probes of the action are statistically zero, and acquire a decisive
    signal once the drift has a gradient (compressible) part.
3.  Branching derivative estimator - the conditional-quotient estimate of
    the forward material derivative matches transport + diffusion applied
    to the velocity, and its sampling error decays like one over the
    square root of the branch count.
4.  Criticality of the action - along the solved velocity with its
    recovered pressure every directional derivative of the action
    extrapolates to zero within noise; a shifted drift produces a
    derivative matching the residual-pairing route and far from zero.
5.  Conserved charges - translation residuals and momentum drift vanish at
    solver precision; the charge over stochastic flows has no drift within
    noise; broken symmetries and forced dynamics are loudly detected.
6.  Transport-noise integrators - pathwise strong order >= 0.9 against the
    exact advected oracle; ensemble means decay with the heat factor for
    both tested wavenumbers at 10^4 replicas; the two stochastic-integral
    terms of the pathwise action cancel to 1e-13.
7.  Determinism - reports are byte-identical across reruns and thread
    counts.

Statistical bands follow the house rule: 3 (or the stated multiple)
standard errors plus a dt^2 allowance for the weak bias of the pathwise
integrators where a Monte Carlo mean is compared against an exact value.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svns.action import (
    PerturbationField,
    SineSquaredEnvelope,
    TrajectoryPressure,
    default_perturbation_basis,
    euler_lagrange_residual,
    gateaux_derivative,
    multiplier_probe,
    prepare_action_run,
    trig_vector_mode,
)
from svns.fields import (
    PointEvaluator,
    SpectralVectorField,
    TorusGrid,
    linf_norm,
)
from svns.flows import (
    BrownianDriver,
    DriftVelocityObservable,
    generalized_derivative,
    make_flow_ensemble,
    run_flow,
)
from svns.noether import (
    SymmetryPair,
    martingale_probe,
    momentum_series,
    noether_residual,
    translation_pair,
)
from svns.solver import (
    NSConfig,
    SampledDrift,
    ShiftedDrift,
    energy_balance_defects,
    ns_residual,
    ns_solve,
    random_divergence_free,
    taylor_green,
)
from svns.spde import (
    SPDEConfig,
    ensemble_mode_means,
    run_semimartingale_flow,
    strong_error,
    tilde_action_evaluate,
)

NU = 0.05
DT = 1e-3


def report(name, *pairs):
    parts = ", ".join(f"{label}={value:.3e} (tol {tol:.3e})"
                      for label, value, tol in pairs)
    print(f"PASS {name}: {parts}")


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(32)


@pytest.fixture(scope="module")
def ns_half(grid):
    """Random divergence-free data solved over half a unit of time."""
    v0 = random_divergence_free(grid, seed=7, kmax=3, amplitude=0.6)
    return ns_solve(v0, NSConfig(nu=NU, dt=DT, t_final=0.5))


@pytest.fixture(scope="module")
def ns_short(grid):
    v0 = random_divergence_free(grid, seed=7, kmax=3, amplitude=0.6)
    return ns_solve(v0, NSConfig(nu=NU, dt=DT, t_final=0.1))


@pytest.fixture(scope="module")
def action_run(grid, ns_half):
    drift = SampledDrift(ns_half)
    basis = default_perturbation_basis(grid, 0.5)
    return prepare_action_run(
        drift, TrajectoryPressure(ns_half), nu=NU, dt=DT, t_final=0.5,
        driver=BrownianDriver(seed=0, replicas=16),
        perturbations=basis, stride=1), basis


def test_solver_fidelity(grid):
    nu = 0.1
    traj = ns_solve(taylor_green(grid, 0.0, nu), NSConfig(nu=nu, dt=DT, t_final=1.0))
    worst = max(
        linf_norm(SpectralVectorField(
            grid, traj.velocity_coeffs[i] - taylor_green(grid, float(t), nu).coeffs))
        for i, t in enumerate(traj.times))
    residual = ns_residual(traj)
    energy = float(np.max(np.abs(energy_balance_defects(traj))))
    assert worst <= 1e-8
    assert residual <= 1e-10
    assert energy <= 1e-10
    report("solver fidelity", ("linf", worst, 1e-8),
           ("residual", residual, 1e-10), ("energy", energy, 1e-10))


def test_volume_preservation_is_critical(grid, ns_half, action_run):
    run, _ = action_run
    assert run.det_defect_max <= 1e-4

    drift = SampledDrift(ns_half)
    probes = multiplier_probe(drift, nu=NU, dt=DT, t_final=0.5,
                              driver=BrownianDriver(seed=23, replicas=16))
    for p in probes:
        assert abs(p.value) <= max(3.0 * p.stderr, 1e-4), (p.label, p.value)

    # the same drift plus a gradient part compresses fluid and at least one
    # pressure-direction probe must light up
    c = np.zeros((2, grid.n, grid.n), dtype=complex)
    i1, im1 = list(grid.k).index(1), list(grid.k).index(-1)
    c[0, i1, 0] = 0.5j
    c[0, im1, 0] = -0.5j
    compressing = ShiftedDrift(drift, SpectralVectorField(grid, c))
    bad = multiplier_probe(compressing, nu=NU, dt=DT, t_final=0.1,
                           driver=BrownianDriver(seed=24, replicas=16))
    signal = max(abs(p.value) / max(p.stderr, 1e-300) for p in bad)
    assert signal > 5.0
    report("volume preservation", ("det defect", run.det_defect_max, 1e-4),
           ("worst probe", max(abs(p.value) for p in probes), 1e-4),
           ("gradient signal (se)", signal, 5.0))


def test_branching_derivative_estimator(grid):
    nu, dt, r = 0.02, 1e-3, 10_000
    # solve past the last checkpoint so the branches can step beyond it
    traj = ns_solve(taylor_green(grid, 0.0, nu),
                    NSConfig(nu=nu, dt=dt, t_final=0.25 + 8 * dt))
    drift = SampledDrift(traj)
    ens = make_flow_ensemble(grid, replicas=r, stride=16, jacobians=False)
    drv = BrownianDriver(seed=5001, replicas=r)
    worst = 0.0
    for _ in range(5):
        ens = run_flow(ens, drift, nu, dt, 50, drv)
        est = generalized_derivative(DriftVelocityObservable(drift), ens,
                                     drift, nu, dt, drv, eps_steps=8,
                                     branches=32)
        t = ens.t
        stack = np.concatenate([drift.velocity_dt_coeffs_at(t),
                                -grid.k_squared * drift.coeffs_at(t)])
        vals = PointEvaluator(grid, stack)(ens.positions)
        v_pts, h_pts = drift.velocity_and_gradient(t, ens.positions)
        target = (np.moveaxis(vals[:2], 0, -1)
                  + np.einsum("...ij,...j->...i", h_pts, v_pts)
                  + nu * np.moveaxis(vals[2:], 0, -1))
        diff = est.mean - target
        mean_diff = diff.mean(axis=0)
        se = diff.std(axis=0, ddof=1) / np.sqrt(r)
        assert np.all(np.abs(mean_diff) <= 3.0 * se + est.eps), ens.t
        worst = max(worst, float(np.max(np.abs(mean_diff) - 3.0 * se)))
    # sampling error decays like 1/sqrt(branches)
    ms = np.array([4, 8, 16, 32])
    errs = [float(np.sqrt(np.mean((est.samples[:m].mean(axis=0) - target) ** 2)))
            for m in ms]
    slope = float(np.polyfit(np.log(ms), np.log(errs), 1)[0])
    assert abs(slope + 0.5) <= 0.15
    report("branching derivative", ("worst excess over 3se", worst, est.eps),
           ("slope + 0.5", abs(slope + 0.5), 0.15))


def test_action_criticality(grid, ns_short, action_run):
    run, basis = action_run
    assert len(basis) >= 12
    worst = 0.0
    for pert in basis:
        est = gateaux_derivative(run, pert, [1e-2, 5e-3])
        band = 3.0 * est.stderr + DT * DT
        assert abs(est.extrapolated) <= band, (pert.label, est.extrapolated)
        worst = max(worst, abs(est.extrapolated) / band)

    # the shifted (non-solution) drift: the directional derivative agrees
    # with the residual-pairing route and is decisively nonzero
    bump = random_divergence_free(grid, seed=11, kmax=2, amplitude=0.1)
    drift = ShiftedDrift(SampledDrift(ns_short), bump)
    pressure = TrajectoryPressure(ns_short)
    env = SineSquaredEnvelope(0.1)
    perts = [PerturbationField(grid, w_coeffs=trig_vector_mode(grid, (1, 0), "sin", 1),
                               envelope=env, label="h-a"),
             PerturbationField(grid, w_coeffs=trig_vector_mode(grid, (0, 1), "cos", 0),
                               envelope=env, label="h-b")]
    shifted = prepare_action_run(drift, pressure, nu=NU, dt=DT, t_final=0.1,
                                 driver=BrownianDriver(seed=555, replicas=8),
                                 perturbations=perts)
    strong = 0.0
    for pert in perts:
        est = gateaux_derivative(shifted, pert, [2e-2, 1e-2])
        el = euler_lagrange_residual(drift, pressure, pert, nu=NU, dt=DT,
                                     t_final=0.1,
                                     driver=BrownianDriver(seed=555, replicas=8))
        comb = float(np.hypot(est.stderr, el.stderr))
        assert abs(est.extrapolated + el.pairing) <= 3.0 * comb + DT * DT
        strong = max(strong, abs(est.extrapolated) / max(est.stderr, 1e-300))
    assert strong >= 5.0
    report("action criticality", ("worst band fraction", worst, 1.0),
           ("off-solution signal (se)", strong, 5.0))


def test_conserved_charges(grid, ns_short):
    for axis in (0, 1):
        rep = noether_residual(translation_pair(grid, axis), ns_short)
        assert np.max(np.abs(rep.residual)) <= 1e-10
    res_worst = float(np.max(np.abs(rep.residual)))

    mom = momentum_series(ns_short)
    times = np.asarray(ns_short.times)
    rate = float(np.max(np.abs(mom[1:] - mom[0]) / times[1:, None]))
    assert rate <= 1e-12

    drift = SampledDrift(ns_short)
    pts = martingale_probe(translation_pair(grid, 0), drift, nu=NU, dt=DT,
                           driver=BrownianDriver(seed=42, replicas=8),
                           sample_times=(0.04, 0.08), branches=12)
    for pp in pts:
        assert abs(pp.drift) <= 3.0 * pp.drift_stderr + DT * DT

    # negatives: a shear profile is not a symmetry generator ...
    eta = np.zeros((2, grid.n, grid.n), dtype=complex)
    i1, im1 = list(grid.k).index(1), list(grid.k).index(-1)
    eta[0, 0, i1] = -0.5j
    eta[0, 0, im1] = 0.5j
    pair = SymmetryPair(grid, eta_coeffs=eta, envelope=SineSquaredEnvelope(0.1))
    broken = martingale_probe(pair, drift, nu=NU, dt=DT,
                              driver=BrownianDriver(seed=42, replicas=8),
                              sample_times=(0.05,), branches=12)
    assert abs(broken[0].drift) > 5.0 * broken[0].drift_stderr

    # ... and external forcing breaks the translation balance loudly
    fcoef = np.zeros((2, grid.n, grid.n), dtype=complex)
    fcoef[0, 0, 0] = 2e-3
    forced_traj = ns_solve(
        random_divergence_free(grid, seed=7, kmax=3, amplitude=0.6),
        NSConfig(nu=NU, dt=DT, t_final=0.05),
        forcing=SpectralVectorField(grid, fcoef))
    forced = noether_residual(translation_pair(grid, 0), forced_traj)
    assert float(np.min(np.abs(forced.residual))) >= 1e-3
    report("conserved charges", ("residual", res_worst, 1e-10),
           ("momentum rate", rate, 1e-12),
           ("broken signal (se)",
            abs(broken[0].drift) / broken[0].drift_stderr, 5.0),
           ("forced residual", float(np.min(np.abs(forced.residual))), 1e-3))


def test_transport_noise_integrators(grid, ns_short):
    # pathwise strong convergence against the exact advected solution
    cfg = SPDEConfig(grid=grid, nu=NU, dt=1e-3, t_final=0.256, replicas=64,
                     scheme="stratonovich-heun")
    rep = strong_error(cfg, taylor_green(grid), [4e-3, 2e-3, 1e-3],
                       BrownianDriver(seed=100, replicas=64))
    assert rep.order is not None and rep.order >= 0.9

    # ensemble-mean heat decay at both tested wavenumber magnitudes
    i1, im1 = list(grid.k).index(1), list(grid.k).index(-1)
    c = np.zeros((2, grid.n, grid.n), dtype=complex)
    c[0, 0, i1] = -0.5j
    c[0, 0, im1] = 0.5j
    shear = SpectralVectorField(grid, c)
    tg = taylor_green(grid)
    mean_cfg = SPDEConfig(grid=grid, nu=NU, dt=5e-3, t_final=0.25,
                          replicas=10_000, scheme="ito")
    worst_se = 0.0
    for v0, seed, mode, ksq in ((shear, 600, (0, 0, 1), 1),
                                (tg, 601, (0, 1, 1), 2)):
        (stat,) = ensemble_mode_means(v0, mean_cfg, seed=seed, modes=[mode],
                                      chunk_size=2000)
        pred = v0.coeffs[mode[0], list(grid.k).index(mode[1]),
                         list(grid.k).index(mode[2])] * np.exp(-NU * ksq * 0.25)
        assert abs(stat.mean.real - pred.real) <= 4.0 * stat.stderr_re
        assert abs(stat.mean.imag - pred.imag) <= 4.0 * stat.stderr_im
        worst_se = max(worst_se,
                       abs(stat.mean.real - pred.real) / stat.stderr_re,
                       abs(stat.mean.imag - pred.imag) / stat.stderr_im)

    # the two stochastic-integral terms of the pathwise action cancel
    run = run_semimartingale_flow(
        SampledDrift(ns_short), TrajectoryPressure(ns_short), nu=NU, dt=DT,
        t_final=0.1, driver=BrownianDriver(seed=400, replicas=8))
    tv = tilde_action_evaluate(run)
    assert tv.cancellation_defect <= 1e-13
    report("transport noise", ("strong order", rep.order, 0.9),
           ("decay deviation (se)", worst_se, 4.0),
           ("cancellation", tv.cancellation_defect, 1e-13))


def test_deterministic_reports(tmp_path):
    from svns.cli import main

    out = tmp_path / "rep"
    args = ["--experiment", "criticality", "--replicas", "2",
            "--set", "t_final=0.02", "--perturbation-modes", "0,11",
            "--epsilon-ladder", "1e-2,5e-3", "--seed", "3",
            "--out", str(out)]
    code = main(args)
    assert code in (0, 1)
    csv_a = (out / "criticality.csv").read_bytes()
    doc_a = json.loads((out / "criticality.json").read_text())

    # rerun into the same location in-process, then in subprocesses pinned
    # to 1 and 4 threads, capturing the report bytes between runs
    runs, docs = [], []
    assert main(args) == code
    runs.append((out / "criticality.csv").read_bytes())
    docs.append(json.loads((out / "criticality.json").read_text()))
    root = Path(__file__).resolve().parents[1]
    for threads in ("1", "4"):
        env = dict(os.environ)
        env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "svns.cli", *args],
            env=env, cwd=str(root),
            capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        runs.append((out / "criticality.csv").read_bytes())
        docs.append(json.loads((out / "criticality.json").read_text()))
    for csv_other in runs:
        assert csv_other == csv_a
    doc_a.pop("meta")
    for doc in docs:
        doc.pop("meta")
        assert doc == doc_a
    report("determinism", ("distinct report bodies", 0.0, 0.0))
