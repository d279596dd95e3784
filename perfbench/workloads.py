"""The four benchmark workloads, built from a seed and run through the public
svns API.

Each workload mirrors one CLI experiment at the 32^2 grid of the acceptance
gates, scaled so that one pass of its operations takes a few seconds. A pass
is a fixed list of operations; the benchmark times each one, and checks the
outputs of the first pass against the references in `oracles`. Later passes
must reproduce the first pass's outputs bit for bit.

Program functions are called through their modules (`solver.ns_solve`, not a
name imported from it) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import replace

import numpy as np

import oracles
from svns import action, fields, flows, noether, solver, spde

GRID_N = 32


def derived_seed(seed: int, tag: str) -> int:
    """A 64-bit value that depends only on (seed, tag)."""
    words = [seed % 2**32, seed // 2**32 % 2**32] + list(tag.encode())
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


def digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.digest()


class Workload:
    """Inputs built from a seed, plus the operations of one pass.

    `operations()` lists (name, metric, fn): fn takes the results of the
    earlier operations of the pass and returns this one's. Operations that
    share a metric are summed into it per pass; a metric of None counts
    toward `wall_s` only. `known_faults` names operations that fail today
    because of a program fault, with the reason.
    """

    name = ""
    metrics: tuple[str, ...] = ()
    known_faults: dict[str, str] = {}

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.grid = fields.TorusGrid(GRID_N)

    def operations(self) -> list:
        raise NotImplementedError

    def before_pass(self) -> None:
        """Untimed preparation at the start of every pass."""

    def check(self, results: dict) -> dict[str, list[str]]:
        """Problems per operation, from references made apart from svns."""
        raise NotImplementedError

    def fingerprint(self, results: dict) -> dict[str, bytes]:
        """Digest of every operation's output, to compare passes."""
        raise NotImplementedError


class NSVerify(Workload):
    name = "ns-verify"
    metrics = ("ns_solve_s", "ns_diagnostics_s", "checkpoint_write_s", "checkpoint_read_s")
    known_faults = {
        "resample_last_node":
            "save_trajectory appends the last node when the stride does not divide "
            "the step count; SampledDrift assumes uniform spacing and misses it",
    }
    NU, DT, T_FINAL = 0.1, 1e-3, 1.0
    STRIDE = 45  # does not divide the 1000 steps

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = np.random.default_rng(derived_seed(seed, "ns-verify/amplitude"))
        self.amplitude = 0.5 + 0.5 * float(rng.random())
        self.v0 = solver.taylor_green(self.grid, 0.0, self.NU, self.amplitude)
        self.config = solver.NSConfig(nu=self.NU, dt=self.DT, t_final=self.T_FINAL)
        self.pair = noether.translation_pair(self.grid, 0)
        self.directory = os.path.join(scratch, "trajectory")

    def before_pass(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def operations(self):
        def resample(r):
            loaded = r["checkpoint_read"]
            return solver.SampledDrift(loaded).coeffs_at(float(loaded.times[-1]))

        return [
            ("solve", "ns_solve_s", lambda r: solver.ns_solve(self.v0, self.config)),
            ("residual", "ns_diagnostics_s", lambda r: solver.ns_residual(r["solve"])),
            ("energy", "ns_diagnostics_s",
             lambda r: solver.energy_balance_defects(r["solve"])),
            ("noether_residual", "ns_diagnostics_s",
             lambda r: noether.noether_residual(self.pair, r["solve"])),
            ("checkpoint_write", "checkpoint_write_s",
             lambda r: solver.save_trajectory(r["solve"], self.directory, stride=self.STRIDE)),
            ("checkpoint_read", "checkpoint_read_s",
             lambda r: solver.load_trajectory(self.directory)),
            ("resample_last_node", None, resample),
        ]

    def check(self, r):
        tr = r["solve"]
        out = {
            "solve": oracles.check_taylor_green(tr.times, tr.velocity_coeffs, self.NU,
                                                self.amplitude),
            "residual": oracles.check_residual(self.NU, tr.velocity_coeffs,
                                               tr.pressure_coeffs, tr.rhs_coeffs,
                                               r["residual"]),
            "energy": oracles.check_energy(tr.times, self.NU, tr.velocity_coeffs, r["energy"]),
            "noether_residual": oracles.check_translation_charges(
                tr.velocity_coeffs, r["noether_residual"].charge,
                r["noether_residual"].residual),
            "checkpoint_write": [],
            "checkpoint_read": oracles.check_trajectory_reload(
                tr.times, tr.velocity_coeffs, tr.pressure_coeffs, tr.rhs_coeffs, tr.nu,
                self.STRIDE, r["checkpoint_read"]),
            "resample_last_node": oracles.check_resampled_node(
                r["resample_last_node"], r["checkpoint_read"].velocity_coeffs[-1]),
        }
        return out

    def fingerprint(self, r):
        tr = r["solve"]
        loaded = r["checkpoint_read"]
        return {
            "solve": digest(tr.times, tr.velocity_coeffs, tr.pressure_coeffs, tr.rhs_coeffs),
            "residual": digest(r["residual"]),
            "energy": digest(r["energy"]),
            "noether_residual": digest(r["noether_residual"].residual,
                                       r["noether_residual"].charge),
            "checkpoint_write": b"",
            "checkpoint_read": digest(loaded.times, loaded.velocity_coeffs,
                                      loaded.pressure_coeffs, loaded.rhs_coeffs),
            "resample_last_node": digest(r["resample_last_node"]),
        }


class Criticality(Workload):
    name = "criticality"
    metrics = ("ns_solve_s", "action_pass_s", "gateaux_s", "tilde_pass_s",
               "checkpoint_write_s", "checkpoint_read_s")
    known_faults = {
        "checkpoint_read":
            "load_ensemble parses the header through float, so a 64-bit seed above "
            "2^53 comes back rounded",
    }
    NU, DT, T_FINAL, REPLICAS = 0.05, 1e-3, 0.02, 16
    LADDER = (1e-2, 5e-3)
    SAMPLE = 64  # final positions checked against direct sums

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.v0 = solver.random_divergence_free(
            self.grid, seed=derived_seed(seed, "criticality/ic"), kmax=3, amplitude=0.6)
        # a full 64-bit seed: odd and above 2^63, so float64 cannot hold it
        self.driver_seed = derived_seed(seed, "criticality/driver") | (1 << 63) | 1
        self.config = solver.NSConfig(nu=self.NU, dt=self.DT, t_final=self.T_FINAL)
        self.basis = action.default_perturbation_basis(self.grid, self.T_FINAL)
        rng = np.random.default_rng(derived_seed(seed, "criticality/sample"))
        self.sample = rng.choice(self.REPLICAS * GRID_N * GRID_N, size=self.SAMPLE,
                                 replace=False)
        self.path = os.path.join(scratch, "ensemble.txt")

    def _driver(self):
        return flows.BrownianDriver(seed=self.driver_seed, replicas=self.REPLICAS)

    def operations(self):
        def action_pass(r):
            tr = r["solve"]
            return action.prepare_action_run(
                solver.SampledDrift(tr), action.TrajectoryPressure(tr), nu=self.NU,
                dt=self.DT, t_final=self.T_FINAL, driver=self._driver(),
                perturbations=self.basis, stride=1)

        def tilde_pass(r):
            tr = r["solve"]
            return spde.run_semimartingale_flow(
                solver.SampledDrift(tr), action.TrajectoryPressure(tr), nu=self.NU,
                dt=self.DT, t_final=self.T_FINAL, driver=self._driver())

        ops = [("solve", "ns_solve_s", lambda r: solver.ns_solve(self.v0, self.config)),
               ("action_pass", "action_pass_s", action_pass)]
        for pert in self.basis:
            ops.append((f"gateaux[{pert.label}]", "gateaux_s",
                        lambda r, p=pert: action.gateaux_derivative(
                            r["action_pass"], p, self.LADDER)))
        ops += [
            ("tilde_pass", "tilde_pass_s", tilde_pass),
            ("checkpoint_write", "checkpoint_write_s",
             lambda r: flows.save_ensemble(r["action_pass"].final_ensemble, self.path,
                                           seed=self.driver_seed)),
            ("checkpoint_read", "checkpoint_read_s", lambda r: flows.load_ensemble(self.path)),
        ]
        return ops

    def check(self, r):
        tr = r["solve"]
        run = r["action_pass"]
        ens = run.final_ensemble
        points = ens.positions.reshape(-1, 2)[self.sample]
        v, grad = solver.SampledDrift(tr).velocity_and_gradient(ens.t, points)
        out = {
            "solve": _residual_problems(tr),
            "action_pass": (oracles.check_det(run.det_defect_max, ens.jacobians)
                            + oracles.check_point_eval(tr.velocity_coeffs[-1], points,
                                                       v, grad)),
        }
        for i, pert in enumerate(self.basis):
            out[f"gateaux[{pert.label}]"] = oracles.check_gateaux(
                run.kinetic1[i], run.constraint_poly[i, 0], r[f"gateaux[{pert.label}]"],
                self.DT)
        tilde = r["tilde_pass"]
        out["tilde_pass"] = oracles.check_tilde(tilde.mart_pairing, tilde.wiener_pairing,
                                                self.NU, tilde.kinetic, run.kinetic0)
        out["checkpoint_write"] = []
        loaded, loaded_seed = r["checkpoint_read"]
        out["checkpoint_read"] = oracles.check_ensemble_reload(ens, self.driver_seed,
                                                               loaded, loaded_seed)
        return out

    def fingerprint(self, r):
        tr = r["solve"]
        run = r["action_pass"]
        tilde = r["tilde_pass"]
        loaded, loaded_seed = r["checkpoint_read"]
        out = {
            "solve": digest(tr.velocity_coeffs, tr.pressure_coeffs, tr.rhs_coeffs),
            "action_pass": digest(run.kinetic0, run.constraint0, run.kinetic1, run.kinetic2,
                                  run.constraint_poly, run.final_ensemble.positions,
                                  run.final_ensemble.jacobians),
            "tilde_pass": digest(tilde.kinetic, tilde.constraint, tilde.mart_pairing,
                                 tilde.wiener_pairing),
            "checkpoint_write": b"",
            "checkpoint_read": digest(loaded.positions, loaded.jacobians,
                                      np.array([loaded_seed % 2**64], dtype=np.uint64)),
        }
        for pert in self.basis:
            est = r[f"gateaux[{pert.label}]"]
            out[f"gateaux[{pert.label}]"] = digest(np.array(
                [est.extrapolated, est.stderr] + [x for rung in est.rungs for x in rung]))
        return out


class Noether(Workload):
    name = "noether"
    metrics = ("ns_solve_s", "invariance_s", "probe_s")
    NU, DT, T_FINAL, REPLICAS, STRIDE = 0.05, 1e-3, 0.02, 8, 2
    BRANCHES, EPS_STEPS = 16, 4
    SAMPLE_TIMES = (0.01, 0.02)

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.v0 = solver.random_divergence_free(
            self.grid, seed=derived_seed(seed, "noether/ic"), kmax=3, amplitude=0.6)
        # the probe branches EPS_STEPS past its last sample time
        self.config = solver.NSConfig(nu=self.NU, dt=self.DT,
                                      t_final=self.T_FINAL + self.EPS_STEPS * self.DT)
        self.pair = noether.translation_pair(self.grid, 0)
        self.eta = np.array([1.0, 0.0])
        self.invariance_seed = derived_seed(seed, "noether/invariance")
        self.probe_seed = derived_seed(seed, "noether/probe")

    def operations(self):
        def invariance(r):
            return noether.invariance_check(
                self.pair, solver.SampledDrift(r["solve"]), nu=self.NU, dt=self.DT,
                t_final=self.T_FINAL,
                driver=flows.BrownianDriver(seed=self.invariance_seed, replicas=self.REPLICAS),
                stride=self.STRIDE)

        def probe(r):
            return noether.martingale_probe(
                self.pair, solver.SampledDrift(r["solve"]), nu=self.NU, dt=self.DT,
                driver=flows.BrownianDriver(seed=self.probe_seed, replicas=self.REPLICAS),
                sample_times=self.SAMPLE_TIMES, stride=self.STRIDE,
                eps_steps=self.EPS_STEPS, branches=self.BRANCHES)

        return [("solve", "ns_solve_s", lambda r: solver.ns_solve(self.v0, self.config)),
                ("invariance", "invariance_s", invariance),
                ("probe", "probe_s", probe)]

    def check(self, r):
        tr = r["solve"]
        inv = r["invariance"]
        points = r["probe"]
        problems = []
        if [round(p.t / self.DT) for p in points] != [round(t / self.DT)
                                                     for t in self.SAMPLE_TIMES]:
            problems.append("probe sample times differ from the requested ones")
        # the particle positions at each sample time, replayed on the same
        # driver keys, feed the direct-sum quadrature of the charge
        drift = solver.SampledDrift(tr)
        driver = flows.BrownianDriver(seed=self.probe_seed, replicas=self.REPLICAS)
        ens = flows.make_flow_ensemble(self.grid, self.REPLICAS, stride=self.STRIDE,
                                       jacobians=False)
        for point, t in zip(points, self.SAMPLE_TIMES):
            steps = int(round((t - ens.t) / self.DT))
            ens = flows.run_flow(ens, drift, self.NU, self.DT, steps, driver)
            node = int(round(t / self.DT))
            problems += oracles.check_charge_drift(point.t, point.drift, point.drift_stderr,
                                                   self.DT)
            problems += oracles.check_charge_series(point.series, tr.velocity_coeffs[node],
                                                    ens.positions, self.eta)
        return {
            "solve": _residual_problems(tr),
            "invariance": oracles.check_invariance(inv.defect, inv.stderr, self.DT,
                                                   inv.warning),
            "probe": problems,
        }

    def fingerprint(self, r):
        tr = r["solve"]
        inv = r["invariance"]
        return {
            "solve": digest(tr.velocity_coeffs, tr.pressure_coeffs, tr.rhs_coeffs),
            "invariance": digest(inv.defect, inv.stderr),
            "probe": digest(*[np.concatenate([p.series, p.estimate.mean.ravel(),
                                              p.estimate.stderr.ravel()])
                              for p in r["probe"]]),
        }


class SPDE(Workload):
    name = "spde"
    metrics = ("strong_error_s", "mode_means_s")
    NU = 0.05
    STRONG_T, STRONG_LADDER, STRONG_REPLICAS = 0.128, (4e-3, 2e-3, 1e-3), 8
    MEANS_DT, MEANS_T, MEANS_REPLICAS, MEANS_CHUNK = 5e-3, 0.04, 1000, 500
    MODES = ((0, 1, 1), (1, 1, 1))

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = np.random.default_rng(derived_seed(seed, "spde/amplitude"))
        self.amplitude = 0.5 + 0.5 * float(rng.random())
        self.u = solver.taylor_green(self.grid, 0.0, 0.0, self.amplitude)
        self.strong_config = spde.SPDEConfig(
            grid=self.grid, nu=self.NU, dt=min(self.STRONG_LADDER), t_final=self.STRONG_T,
            replicas=self.STRONG_REPLICAS, scheme="stratonovich-heun")
        self.strong_seed = derived_seed(seed, "spde/strong")
        self.means_config = spde.SPDEConfig(
            grid=self.grid, nu=self.NU, dt=self.MEANS_DT, t_final=self.MEANS_T,
            replicas=self.MEANS_REPLICAS, scheme="ito")
        self.means_seed = derived_seed(seed, "spde/means")

    def _strong_driver(self):
        return flows.BrownianDriver(seed=self.strong_seed, replicas=self.STRONG_REPLICAS)

    def operations(self):
        return [
            ("strong_error", "strong_error_s",
             lambda r: spde.strong_error(self.strong_config, self.u, self.STRONG_LADDER,
                                         self._strong_driver())),
            ("mode_means", "mode_means_s",
             lambda r: spde.ensemble_mode_means(self.u, self.means_config,
                                                seed=self.means_seed, modes=self.MODES,
                                                chunk_size=self.MEANS_CHUNK)),
        ]

    def check(self, r):
        n = self.grid.n
        u_own = oracles.grid_coeffs(oracles.taylor_green_values(n, 0.0, 0.0, self.amplitude))
        # every rung replayed through spde_solve on the driver's own fine
        # increments (a coarse increment is the sum of its fine ones), against
        # the exact shifted field built from the same increments
        cfg = self.strong_config
        fine = min(self.STRONG_LADDER)
        driver = self._strong_driver()
        steps = int(round(cfg.t_final / fine))
        increments = np.stack([driver.increments(i, fine) for i in range(steps)])
        exact = oracles.shifted_coeffs(u_own, increments.sum(axis=0), self.NU)
        own_errors = []
        for d in self.STRONG_LADDER:
            factor = int(round(d / fine))
            coarse = increments.reshape(steps // factor, factor, self.STRONG_REPLICAS,
                                        2).sum(axis=1)
            final = spde.spde_solve(self.u, replace(cfg, dt=d), _Replay(coarse)).coeffs
            own_errors.append(oracles.l2_errors(final, exact))
        k = oracles.wavenumbers(n)
        index = {int(v): i for i, v in enumerate(k)}
        means = [u_own[c, index[k1], index[k2]]
                 * np.exp(-self.NU * (k1 * k1 + k2 * k2) * self.MEANS_T)
                 for c, k1, k2 in self.MODES]
        return {
            "strong_error": oracles.check_strong_errors(r["strong_error"].rows, own_errors),
            "mode_means": oracles.check_mode_means(r["mode_means"], means),
        }

    def fingerprint(self, r):
        rep = r["strong_error"]
        stats = r["mode_means"]
        return {
            "strong_error": digest(np.array([[row.dt, row.mean_error, row.stderr]
                                             for row in rep.rows])),
            "mode_means": digest(np.array([[s.mean.real, s.mean.imag, s.stderr_re,
                                            s.stderr_im] for s in stats])),
        }


class _Replay:
    """Stands in for a BrownianDriver: returns given increments step by step."""

    def __init__(self, increments: np.ndarray):
        self._increments = increments
        self.replicas = increments.shape[1]

    def increments(self, step: int, dt: float) -> np.ndarray:
        return self._increments[step]


def _residual_problems(traj) -> list[str]:
    own = oracles.momentum_residual(traj.nu, traj.velocity_coeffs, traj.pressure_coeffs,
                                    traj.rhs_coeffs)
    return [] if own <= 1e-10 else [f"momentum residual (own) {own:.3e} > 1e-10"]


WORKLOADS = {w.name: w for w in (NSVerify, Criticality, Noether, SPDE)}
