"""Batch experiment runner: flat-file configuration, CSV series, JSON verdicts.

Four experiments are exposed: `ns-verify` (deterministic solver fidelity
against the analytic cellular-decay solution), `criticality` (Gateaux
derivative of the constrained action along the default variation basis),
`noether` (conservation-law residual, charge series, invariance defect, and
the pathwise charge-drift probe for a chosen symmetry), and `spde-converge`
(strong error of the transport-noise integrators against the exact
shifted-field solution).

Configuration is a flat key = value text file (diff-able, no nesting);
`--set key=value` overrides entries and dedicated flags override both.
Unknown keys are rejected. Every tolerance lives in the config with the
defaults documented in `describe_config`. Reports are written twice: a CSV
series for plotting and a JSON document for gating, with the effective
configuration echoed into both. All numeric report content is a pure
function of (config, seed); wall-clock time is quarantined in the JSON
`meta` section so that reruns are byte-identical outside it.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .action import (
    TrajectoryPressure,
    default_perturbation_basis,
    gateaux_derivative,
    prepare_action_run,
    trig_vector_mode,
)
from .fields import SpectralVectorField, TorusGrid, linf_norm, load_field_snapshot
from .flows import BrownianDriver, _check_branching, make_flow_ensemble
from .noether import (
    SymmetryPair,
    _sample_steps,
    invariance_check,
    martingale_probe,
    momentum_series,
    noether_residual,
    translation_pair,
)
from .solver import (
    NSConfig,
    SampledDrift,
    _check_ladder,
    _horizon_steps,
    energy_balance_defects,
    ns_residual,
    ns_solve,
    random_divergence_free,
    taylor_green,
)
from .solver import save_trajectory as write_trajectory
from .spde import SPDEConfig, strong_error

__all__ = ["main", "run_experiment", "load_config", "describe_config"]

EXPERIMENTS = ("ns-verify", "criticality", "noether", "spde-converge")


class ConfigError(ValueError):
    """A configuration problem the caller must fix (exit code 2)."""


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(part) for part in s.split(",") if part.strip())


# every key each experiment accepts, with its default; the type of the
# default fixes how a key's text is parsed (_parser)
_DEFAULTS = {
    "ns-verify": {
        "n": 32, "seed": 0, "nu": 0.1, "dt": 1e-3, "t_final": 1.0,
        "amplitude": 1.0, "save_trajectory": "",
        "tol_decay": 1e-8, "tol_residual": 1e-10, "tol_energy": 1e-10,
    },
    "criticality": {
        "n": 32, "seed": 0, "nu": 0.05, "dt": 1e-3, "t_final": 0.5,
        "replicas": 16, "stride": 1,
        "ic_seed": 7, "ic_kmax": 3, "ic_amplitude": 0.6,
        "perturbation_modes": "all", "epsilon_ladder": (1e-2, 5e-3),
        "band_sigma": 3.0, "band_dt2": 1.0, "det_tol": 1e-4,
    },
    "noether": {
        "n": 32, "seed": 0, "nu": 0.05, "dt": 1e-3, "t_final": 0.2,
        "replicas": 8, "stride": 1,
        "ic_seed": 7, "ic_kmax": 3, "ic_amplitude": 0.6,
        "symmetry": "translation-x", "symmetry_file": "", "force": False,
        "probe_times": (0.1, 0.2), "branches": 16, "eps_steps": 8,
        "tol_residual": 1e-10, "tol_drift": 1e-12,
        "band_sigma": 3.0, "band_dt2": 1.0,
    },
    "spde-converge": {
        "n": 32, "seed": 0, "nu": 0.05, "dt": 1e-3, "t_final": 0.256,
        "replicas": 64, "scheme": "stratonovich-heun",
        "dt_ladder": (4e-3, 2e-3, 1e-3), "initial_data": "taylor-green",
        "order_min": 0.9,
    },
}
for _d in _DEFAULTS.values():
    _d.update(out=".", report="", json_report="")


def _parser(default):
    """The parser of a key's text: bool is tested before int, its base class."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_floats
    return type(default)


def describe_config(experiment: str) -> str:
    """The documented defaults for one experiment, one `key = value` per line."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose one of {', '.join(EXPERIMENTS)}")
    lines = [f"experiment = {experiment}"]
    for key in sorted(_DEFAULTS[experiment]):
        val = _DEFAULTS[experiment][key]
        if isinstance(val, tuple):
            val = ",".join(repr(v) for v in val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines)


def _parse_kv_lines(lines, origin: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for ln, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{origin}:{ln}: expected key = value, got {line!r}")
        key, value = body.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def load_config(path=None, sets=(), flags=None) -> dict:
    """Merge defaults, a config file, --set pairs, and dedicated flags.

    Returns the effective typed configuration for the resolved experiment;
    every key is validated against that experiment's schema.
    """
    raw: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        raw.update(_parse_kv_lines(p.read_text().splitlines(), str(p)))
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    flags = dict(flags or {})
    from_text = raw.pop("experiment", None)  # consumed even where the flag wins
    experiment = flags.pop("experiment", None) or from_text
    if experiment is None:
        raise ConfigError("no experiment selected: pass --experiment or put "
                          "`experiment = <name>` in the config file")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose one of {', '.join(EXPERIMENTS)}")
    defaults = _DEFAULTS[experiment]
    cfg = dict(defaults, experiment=experiment)
    # file and --set values first, then flags; every value but --force's is text
    given = [(key, value, f"unknown key {key!r} for experiment {experiment}")
             for key, value in raw.items()]
    given += [(key, value, f"flag --{key.replace('_', '-')} does not apply to "
                           f"experiment {experiment}")
              for key, value in flags.items() if value is not None]
    for key, value, unknown in given:
        if key not in defaults:
            raise ConfigError(unknown)
        try:
            cfg[key] = _parser(defaults[key])(value) if isinstance(value, str) else value
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    """Check the configuration by the rules of the modules that will run it,
    so that a bad value is a ConfigError before any work starts."""
    exp = cfg["experiment"]
    try:
        grid = TorusGrid(cfg["n"])
        BrownianDriver(cfg["seed"], cfg.get("replicas", 1))
        _horizon_steps(cfg["nu"], cfg["dt"], cfg["t_final"])
        for key in ("epsilon_ladder", "dt_ladder"):
            if key in cfg:
                _check_ladder(cfg[key], key)
        if "stride" in cfg:
            make_flow_ensemble(grid, 1, cfg["stride"], jacobians=False)
        if exp == "noether":
            _check_branching(cfg["eps_steps"], cfg["branches"])
            _sample_steps(cfg["probe_times"], cfg["dt"])
            if cfg["probe_times"][-1] > cfg["t_final"]:
                raise ValueError(f"probe time {cfg['probe_times'][-1]} is past "
                                 f"t_final = {cfg['t_final']}")
        if exp == "spde-converge":
            SPDEConfig(grid, cfg["nu"], min(cfg["dt_ladder"]), cfg["t_final"],
                       cfg["replicas"], cfg["scheme"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if exp == "criticality":
        _chosen_perturbations(cfg, default_perturbation_basis(grid, cfg["t_final"]))
    if exp == "noether":
        if cfg["symmetry"] not in ("translation-x", "translation-y", "custom"):
            raise ConfigError(f"unknown symmetry {cfg['symmetry']!r}")
        if cfg["symmetry"] == "custom" and not Path(cfg["symmetry_file"]).is_file():
            raise ConfigError(f"symmetry = custom needs symmetry_file naming a file, "
                              f"got {cfg['symmetry_file']!r}")
    if exp == "spde-converge" and cfg["initial_data"] not in ("taylor-green", "shear"):
        raise ConfigError(f"unknown initial data {cfg['initial_data']!r}")


# ---------------------------------------------------------------------------
# check rows and reports
# ---------------------------------------------------------------------------

@dataclass
class CheckRow:
    """One verdict line: a measured value against its tolerance."""

    name: str
    value: float
    stderr: float
    tolerance: float
    passed: bool
    diagnostic: bool = False  # reported but excluded from the exit code


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _json_number(x: float) -> float | None:
    """JSON has no NaN or infinity: an undefined measurement is written as null."""
    return x if np.isfinite(x) else None


def _config_echo(cfg: dict) -> dict:
    echo = {}
    for key in sorted(cfg):
        val = cfg[key]
        echo[key] = list(val) if isinstance(val, tuple) else val
    return echo


def _write_reports(cfg: dict, rows: list[CheckRow], header: list[str],
                   series: list[tuple], wall: float) -> tuple[Path, Path]:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    csv_path = Path(cfg["report"]) if cfg["report"] else out / f"{cfg['experiment']}.csv"
    json_path = (Path(cfg["json_report"]) if cfg["json_report"]
                 else out / f"{cfg['experiment']}.json")
    lines = [f"# {key} = {_fmt(val)}" for key, val in _config_echo(cfg).items()]
    lines.append(",".join(header))
    for row in series:
        lines.append(",".join(_fmt(x) for x in row))
    csv_path.write_text("\n".join(lines) + "\n")
    doc = {
        "experiment": cfg["experiment"],
        "seed": cfg["seed"],
        "config": _config_echo(cfg),
        "checks": [
            {
                "name": r.name,
                "value": _json_number(r.value),
                "stderr": _json_number(r.stderr),
                "tolerance": _json_number(r.tolerance),
                "passed": r.passed,
                "diagnostic": r.diagnostic,
            }
            for r in rows
        ],
        "passed": all(r.passed for r in rows if not r.diagnostic),
        "meta": {"wall_clock_s": wall},
    }
    json_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return csv_path, json_path


# ---------------------------------------------------------------------------
# the four experiments
# ---------------------------------------------------------------------------

def _run_ns_verify(cfg: dict):
    grid = TorusGrid(cfg["n"])
    nu, dt, amp = cfg["nu"], cfg["dt"], cfg["amplitude"]
    traj = ns_solve(taylor_green(grid, 0.0, nu, amp),
                    NSConfig(nu=nu, dt=dt, t_final=cfg["t_final"]))
    energy = energy_balance_defects(traj)
    series = []
    worst = 0.0
    for i, t in enumerate(traj.times):
        exact = taylor_green(grid, float(t), nu, amp)
        err = linf_norm(SpectralVectorField(
            grid, traj.velocity_coeffs[i] - exact.coeffs))
        gap = float(energy[i - 1]) if i > 0 else 0.0
        series.append((float(t), err, gap))
        worst = float(np.maximum(worst, err))  # keeps a NaN
    residual = ns_residual(traj)
    rows = [
        CheckRow("analytic-decay-linf", worst, 0.0, cfg["tol_decay"],
                 worst <= cfg["tol_decay"]),
        CheckRow("momentum-residual", residual, 0.0, cfg["tol_residual"],
                 residual <= cfg["tol_residual"]),
        CheckRow("energy-balance", float(np.max(energy)), 0.0, cfg["tol_energy"],
                 float(np.max(energy)) <= cfg["tol_energy"]),
    ]
    if cfg["save_trajectory"]:
        write_trajectory(traj, cfg["save_trajectory"])
    return rows, ["t", "linf_error", "energy_defect"], series


def _random_ns_pieces(cfg: dict, extra_steps: int = 0):
    grid = TorusGrid(cfg["n"])
    v0 = random_divergence_free(grid, seed=cfg["ic_seed"], kmax=cfg["ic_kmax"],
                                amplitude=cfg["ic_amplitude"])
    traj = ns_solve(v0, NSConfig(nu=cfg["nu"], dt=cfg["dt"],
                                 t_final=cfg["t_final"] + extra_steps * cfg["dt"]))
    return grid, traj


def _chosen_perturbations(cfg: dict, basis: list) -> list:
    """The default-basis entries perturbation_modes selects: all, or indices."""
    spec = cfg["perturbation_modes"].strip()
    if spec.lower() == "all":
        return list(basis)
    try:
        indices = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad perturbation_modes: {exc}") from exc
    if not indices:
        raise ConfigError("perturbation_modes selected nothing")
    for i in indices:
        if not 0 <= i < len(basis):
            raise ConfigError(f"perturbation index {i} outside the default "
                              f"basis (0..{len(basis) - 1})")
    return [basis[i] for i in indices]


def _run_criticality(cfg: dict):
    grid, traj = _random_ns_pieces(cfg)
    chosen = _chosen_perturbations(cfg, default_perturbation_basis(grid, cfg["t_final"]))
    run = prepare_action_run(
        SampledDrift(traj), TrajectoryPressure(traj), nu=cfg["nu"],
        dt=cfg["dt"], t_final=cfg["t_final"],
        driver=BrownianDriver(seed=cfg["seed"], replicas=cfg["replicas"]),
        perturbations=chosen, stride=cfg["stride"])
    band_dt2 = cfg["band_dt2"] * cfg["dt"] ** 2
    rows = [CheckRow("volume-preservation", run.det_defect_max, 0.0,
                     cfg["det_tol"], run.det_defect_max <= cfg["det_tol"])]
    series = []
    for pert in chosen:
        est = gateaux_derivative(run, pert, cfg["epsilon_ladder"])
        band = cfg["band_sigma"] * est.stderr + band_dt2
        ok = abs(est.extrapolated) <= band
        rows.append(CheckRow(f"criticality[{est.label}]", est.extrapolated,
                             est.stderr, band, ok))
        verdict = "pass" if ok else "fail"
        for eps, value, stderr in est.rungs:
            series.append((est.label, eps, value, stderr, est.extrapolated,
                           verdict))
    return rows, ["pert_id", "epsilon", "delta_s", "stderr",
                  "extrapolated_delta_s", "verdict"], series


def _load_symmetry(cfg: dict, grid: TorusGrid) -> SymmetryPair:
    name = cfg["symmetry"]
    if name == "translation-x":
        return translation_pair(grid, 0)
    if name == "translation-y":
        return translation_pair(grid, 1)
    loaded = load_field_snapshot(cfg["symmetry_file"])
    if loaded.grid != grid:
        raise ConfigError("custom symmetry lives on a different grid than "
                          f"n = {grid.n}")
    if loaded.coeffs.ndim == 3:
        return SymmetryPair(grid, eta_coeffs=loaded.coeffs, label="custom")
    return SymmetryPair(grid, g_coeffs=loaded.coeffs, label="custom")


def _run_noether(cfg: dict):
    pair = _load_symmetry(cfg, TorusGrid(cfg["n"]))  # before the solve
    # the drift probe branches eps_steps beyond its last sample time, so the
    # stored trajectory carries that margin; reports cover [0, t_final]
    _, traj = _random_ns_pieces(cfg, extra_steps=cfg["eps_steps"])
    nodes = _horizon_steps(cfg["nu"], cfg["dt"], cfg["t_final"]) + 1
    drift = SampledDrift(traj)
    deterministic = noether_residual(pair, traj)
    inv = invariance_check(pair, drift, nu=cfg["nu"], dt=cfg["dt"],
                           t_final=cfg["t_final"],
                           driver=BrownianDriver(seed=cfg["seed"],
                                                 replicas=cfg["replicas"]),
                           stride=cfg["stride"])
    diagnostic = cfg["force"]
    band_dt2 = cfg["band_dt2"] * cfg["dt"] ** 2
    worst_r = float(np.max(np.abs(deterministic.residual[:nodes])))
    rows = [CheckRow("symmetry-residual", worst_r, 0.0, cfg["tol_residual"],
                     worst_r <= cfg["tol_residual"], diagnostic)]
    if pair.label.startswith("translation"):
        mom = momentum_series(traj)[:nodes]
        rates = np.abs(mom[1:] - mom[0]) / traj.times[1:nodes, None]
        rate = float(np.max(rates))
        rows.append(CheckRow("momentum-drift-rate", rate, 0.0,
                             cfg["tol_drift"], rate <= cfg["tol_drift"],
                             diagnostic))
    if inv.warning and not cfg["force"]:
        raise ConfigError(f"invariance check refused: {inv.warning}; "
                          "rerun with force = true for diagnostics")
    margins = inv.defect - (cfg["band_sigma"] * inv.stderr + band_dt2)
    idx = int(np.argmax(margins))
    band = float(cfg["band_sigma"] * inv.stderr[idx] + band_dt2)
    rows.append(CheckRow("invariance-defect", float(inv.defect[idx]),
                         float(inv.stderr[idx]), band,
                         float(inv.defect[idx]) <= band, diagnostic))
    probe = martingale_probe(
        pair, drift, nu=cfg["nu"], dt=cfg["dt"],
        driver=BrownianDriver(seed=(cfg["seed"] + 1) % 2**64,
                              replicas=cfg["replicas"]),
        sample_times=cfg["probe_times"], stride=cfg["stride"],
        eps_steps=cfg["eps_steps"], branches=cfg["branches"])
    for point in probe:
        band = cfg["band_sigma"] * point.drift_stderr + band_dt2
        rows.append(CheckRow(f"charge-drift[t={point.t:g}]", point.drift,
                             point.drift_stderr, band,
                             abs(point.drift) <= band, diagnostic))
    series = [
        (float(traj.times[i]), float(deterministic.residual[i]),
         float(deterministic.charge[i]), float(inv.defect[i]),
         float(inv.stderr[i]))
        for i in range(nodes)
    ]
    return rows, ["t", "residual", "charge", "defect", "stderr"], series


def _run_spde_converge(cfg: dict):
    grid = TorusGrid(cfg["n"])
    data = (taylor_green(grid) if cfg["initial_data"] == "taylor-green"
            else SpectralVectorField(grid, trig_vector_mode(grid, (0, 1), "sin", 0)))
    ladder = cfg["dt_ladder"]
    spde_cfg = SPDEConfig(grid=grid, nu=cfg["nu"], dt=min(ladder),
                          t_final=cfg["t_final"], replicas=cfg["replicas"],
                          scheme=cfg["scheme"])
    report = strong_error(spde_cfg, data, ladder,
                          BrownianDriver(seed=cfg["seed"],
                                         replicas=cfg["replicas"]))
    order = float("nan") if report.order is None else report.order
    rows = [CheckRow("strong-order", order, 0.0, cfg["order_min"],
                     report.order is not None and order >= cfg["order_min"])]
    errors = [row.mean_error for row in report.rows]
    shrink = min(a / b for a, b in zip(errors, errors[1:]))
    rows.append(CheckRow("error-monotone", shrink, 0.0, 1.0, shrink > 1.0))
    series = [(row.dt, row.mean_error, row.stderr, order) for row in report.rows]
    return rows, ["dt", "mean_error", "stderr", "fitted_order"], series


_RUNNERS = {
    "ns-verify": _run_ns_verify,
    "criticality": _run_criticality,
    "noether": _run_noether,
    "spde-converge": _run_spde_converge,
}


def run_experiment(cfg: dict):
    """Execute one experiment; returns (rows, csv header, csv series)."""
    try:
        return _RUNNERS[cfg["experiment"]](cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        # parameter combinations the modules reject are configuration errors
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    par = argparse.ArgumentParser(
        prog="svns",
        description="Run one verification experiment and write CSV/JSON reports.")

    def refuse(message):  # main reports a usage error like a bad value
        raise ConfigError(message)

    par.error = refuse
    par.add_argument("--experiment",
                     help=f"which experiment to run: {', '.join(EXPERIMENTS)} "
                          "(or set it in the config file)")
    par.add_argument("--config", help="flat key = value configuration file")
    par.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one configuration key (repeatable)")
    par.add_argument("--seed", help="driver seed (64-bit)")
    par.add_argument("--out", help="report directory (default: current)")
    par.add_argument("--report", help="CSV report path (overrides out)")
    par.add_argument("--replicas", help="Monte Carlo replica count")
    par.add_argument("--dt", help="time step")
    par.add_argument("--save-trajectory", dest="save_trajectory",
                     help="ns-verify: directory for the solved trajectory")
    par.add_argument("--perturbation-modes", dest="perturbation_modes",
                     help="criticality: comma indices into the default basis, "
                          "or 'all'")
    par.add_argument("--epsilon-ladder", dest="epsilon_ladder",
                     help="criticality: comma-separated decreasing eps values")
    par.add_argument("--symmetry", help="noether: symmetry to test: translation-x, "
                                        "translation-y or custom")
    par.add_argument("--symmetry-file", dest="symmetry_file",
                     help="noether: field snapshot for --symmetry custom")
    par.add_argument("--force", action="store_const", const=True,
                     help="noether: report diagnostics even when the "
                          "invariance precheck fails; checks become advisory")
    par.add_argument("--branches",
                     help="noether: branches per replica for the drift probe")
    par.add_argument("--eps-steps", dest="eps_steps",
                     help="noether: branch horizon in steps")
    par.add_argument("--scheme", help="spde-converge: integrator formulation: ito or "
                                      "stratonovich-heun")
    par.add_argument("--dt-ladder", dest="dt_ladder",
                     help="spde-converge: comma-separated decreasing steps")
    par.add_argument("--describe", action="store_true",
                     help="print the effective defaults for --experiment and exit")
    return par


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.describe:
            if not args.experiment:
                raise ConfigError("--describe needs --experiment")
            print(describe_config(args.experiment))
            return 0
        flags = {key: value for key, value in vars(args).items()
                 if key not in ("config", "set", "describe")}
        cfg = load_config(args.config, args.set, flags)
        start = time.perf_counter()
        rows, header, series = run_experiment(cfg)
        wall = time.perf_counter() - start
        csv_path, json_path = _write_reports(cfg, rows, header, series, wall)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        if row.diagnostic:
            status = "INFO"
        elif not row.passed:
            failed += 1
        print(f"[{status}] {row.name}: value={row.value:.6g} "
              f"stderr={row.stderr:.3g} tolerance={row.tolerance:.6g}")
    print(f"report: {csv_path} and {json_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
