"""The experiment runner: configuration handling, reports, exit codes.

Exit-code contract: 0 when every gating check passes, 1 when any check
fails, 2 for configuration or usage problems.  Reports come in pairs - a
CSV series for plotting and a JSON document for gating - both echoing the
effective configuration; the JSON quarantines wall-clock time in a `meta`
section so report bodies are byte-identical across reruns with the same
configuration and seed.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svns.cli import (
    _DEFAULTS,
    ConfigError,
    _build_parser,
    describe_config,
    load_config,
    main,
)
from svns.fields import (
    SpectralField,
    SpectralVectorField,
    TorusGrid,
    save_field_snapshot,
)
from svns.solver import load_trajectory


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def read_reports(out_dir, experiment):
    csv_text = (out_dir / f"{experiment}.csv").read_text()
    doc = json.loads((out_dir / f"{experiment}.json").read_text())
    return csv_text, doc


def csv_data_rows(csv_text):
    lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

# the `--describe` text of every experiment, byte for byte as the config
# table printed it before its keys and parsers moved into one table
DESCRIBED = {
    "ns-verify": [
        "experiment = ns-verify", "amplitude = 1.0", "dt = 0.001", "json_report = ",
        "n = 32", "nu = 0.1", "out = .", "report = ", "save_trajectory = ", "seed = 0",
        "t_final = 1.0", "tol_decay = 1e-08", "tol_energy = 1e-10", "tol_residual = 1e-10",
    ],
    "criticality": [
        "experiment = criticality", "band_dt2 = 1.0", "band_sigma = 3.0", "det_tol = 0.0001",
        "dt = 0.001", "epsilon_ladder = 0.01,0.005", "ic_amplitude = 0.6", "ic_kmax = 3",
        "ic_seed = 7", "json_report = ", "n = 32", "nu = 0.05", "out = .",
        "perturbation_modes = all", "replicas = 16", "report = ", "seed = 0", "stride = 1",
        "t_final = 0.5",
    ],
    "noether": [
        "experiment = noether", "band_dt2 = 1.0", "band_sigma = 3.0", "branches = 16",
        "dt = 0.001", "eps_steps = 8", "force = False", "ic_amplitude = 0.6", "ic_kmax = 3",
        "ic_seed = 7", "json_report = ", "n = 32", "nu = 0.05", "out = .",
        "probe_times = 0.1,0.2", "replicas = 8", "report = ", "seed = 0", "stride = 1",
        "symmetry = translation-x", "symmetry_file = ", "t_final = 0.2",
        "tol_drift = 1e-12", "tol_residual = 1e-10",
    ],
    "spde-converge": [
        "experiment = spde-converge", "dt = 0.001", "dt_ladder = 0.004,0.002,0.001",
        "initial_data = taylor-green", "json_report = ", "n = 32", "nu = 0.05",
        "order_min = 0.9", "out = .", "replicas = 64", "report = ",
        "scheme = stratonovich-heun", "seed = 0", "t_final = 0.256",
    ],
}


class TestConfig:
    @pytest.mark.parametrize("experiment, line, expected", [
        ("ns-verify", "tol_decay = 1e-08", {"tol_decay": 1e-8, "save_trajectory": ""}),
        ("criticality", "epsilon_ladder = 0.01,0.005", {"epsilon_ladder": (1e-2, 5e-3)}),
        ("noether", "force = False", {"force": False, "probe_times": (0.1, 0.2)}),
        ("spde-converge", "order_min = 0.9",
         {"dt_ladder": (4e-3, 2e-3, 1e-3), "order_min": 0.9}),
    ], ids=["ns-verify", "criticality", "noether", "spde-converge"])
    def test_defaults_roundtrip_through_a_file(self, tmp_path, experiment, line, expected):
        text = describe_config(experiment)
        assert line in text
        path = tmp_path / "exp.cfg"
        path.write_text(text + "\n# trailing comment\n")
        cfg = load_config(path)
        assert cfg["experiment"] == experiment
        for key, value in expected.items():
            assert cfg[key] == value
        defaults = load_config(None, flags={"experiment": experiment})
        assert {k: (v, type(v)) for k, v in cfg.items()} == {
            k: (v, type(v)) for k, v in defaults.items()}

    @pytest.mark.parametrize("experiment", sorted(DESCRIBED))
    def test_describe_text_is_pinned(self, experiment):
        assert describe_config(experiment) == "\n".join(DESCRIBED[experiment])

    def test_experiment_flag_beats_the_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("experiment = noether\n")
        cfg = load_config(path, flags={"experiment": "ns-verify"})
        assert cfg == load_config(None, flags={"experiment": "ns-verify"})

    def test_experiment_flag_beats_a_set(self):
        cfg = load_config(None, sets=["experiment=spde-converge"],
                          flags={"experiment": "criticality"})
        assert cfg == load_config(None, flags={"experiment": "criticality"})

    @pytest.mark.parametrize("experiment, key", [("criticality", "epsilon_ladder"),
                                                 ("spde-converge", "dt_ladder")])
    def test_rising_ladder_rejected_before_any_work(self, experiment, key):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            load_config(None, sets=[f"{key}=1e-3,2e-3"], flags={"experiment": experiment})

    def test_describe_rejects_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            describe_config("frobnicate")

    def test_precedence_flags_over_sets_over_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("experiment = ns-verify\ndt = 2e-3\nnu = 0.2\n")
        cfg = load_config(path, sets=["dt=4e-3"], flags={"dt": 5e-3})
        assert cfg["dt"] == 5e-3
        assert cfg["nu"] == 0.2  # file survives where nothing overrides

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("experiment = ns-verify\nwarp_factor = 9\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_flag_for_wrong_experiment_rejected(self):
        with pytest.raises(ConfigError, match="does not apply"):
            load_config(None, flags={"experiment": "ns-verify",
                                     "scheme": "ito"})

    def test_malformed_lines_and_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("experiment = ns-verify\nno equals sign here\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(path)
        path.write_text("experiment = ns-verify\nn = thirty-two\n")
        with pytest.raises(ConfigError, match="bad value for n"):
            load_config(path)

    def test_validation_catches_bad_numbers(self):
        with pytest.raises(ConfigError, match="at least one replica"):
            load_config(None, sets=["replicas=0"],
                        flags={"experiment": "criticality"})
        with pytest.raises(ConfigError, match="positive"):
            load_config(None, sets=["dt=-1e-3"],
                        flags={"experiment": "ns-verify"})
        with pytest.raises(ConfigError, match="even integer"):
            load_config(None, sets=["n=31"], flags={"experiment": "ns-verify"})
        with pytest.raises(ConfigError, match="64 bits"):
            load_config(None, sets=["seed=-1"],
                        flags={"experiment": "ns-verify"})
        with pytest.raises(ConfigError, match="unknown scheme"):
            load_config(None, sets=["scheme=milstein"],
                        flags={"experiment": "spde-converge"})
        with pytest.raises(ConfigError, match="symmetry_file"):
            load_config(None, sets=["symmetry=custom"],
                        flags={"experiment": "noether"})
        with pytest.raises(ConfigError, match="at least two"):
            load_config(None, sets=["epsilon_ladder=1e-2"],
                        flags={"experiment": "criticality"})

    @pytest.mark.parametrize("experiment", sorted(DESCRIBED))
    @pytest.mark.parametrize("item", ["t_final=inf", "nu=nan"])
    def test_non_finite_numbers_rejected(self, experiment, item):
        with pytest.raises(ConfigError):
            load_config(None, sets=[item], flags={"experiment": experiment})

    @pytest.mark.parametrize("times, match", [
        ("0.2,0.1", "increasing"),
        ("0.1005,0.2", "step multiple"),
        ("0.1,0.3", "past t_final"),
    ], ids=["decreasing", "off-step", "past-t_final"])
    def test_bad_probe_times_rejected(self, times, match):
        with pytest.raises(ConfigError, match=match):
            load_config(None, sets=[f"probe_times={times}"], flags={"experiment": "noether"})

    def test_usage_exit_codes(self, tmp_path, capsys):
        assert run_cli("--set", "oops") == 2  # not key=value
        assert run_cli("--config", tmp_path / "missing.cfg",
                       "--experiment", "ns-verify") == 2
        assert run_cli("--experiment", "criticality", "--replicas", "0") == 2
        assert main([]) == 2  # no experiment anywhere
        err = capsys.readouterr().err
        assert "error:" in err

    # each is rejected by load_config, so no experiment starts
    BAD_INPUTS = {
        "flag-not-a-number": ("--experiment", "criticality", "--epsilon-ladder", "abc"),
        "flag-ladder-entry": ("--experiment", "spde-converge", "--dt-ladder", "0.004,x"),
        "ns-t_final-inf": ("--experiment", "ns-verify", "--set", "t_final=inf"),
        "spde-t_final-inf": ("--experiment", "spde-converge", "--set", "t_final=inf"),
        "nu-nan": ("--experiment", "ns-verify", "--set", "nu=nan", "--set", "t_final=0.01"),
        "probe-off-step": ("--experiment", "noether", "--set", "probe_times=0.1005,0.2"),
        "probe-past-t_final": ("--experiment", "noether", "--set", "probe_times=0.1,0.3"),
        "probe-decreasing": ("--experiment", "noether", "--set", "probe_times=0.2,0.1"),
        "rising-ladder": ("--experiment", "criticality", "--epsilon-ladder", "5e-3,1e-2"),
        "noether-one-branch": ("--experiment", "noether", "--branches", "1"),
        "noether-zero-eps-steps": ("--experiment", "noether", "--eps-steps", "0"),
        "perturbation-index-out-of-range": ("--experiment", "criticality",
                                            "--perturbation-modes", "99"),
        "perturbation-modes-empty": ("--experiment", "criticality",
                                     "--perturbation-modes", ","),
        "criticality-stride-zero": ("--experiment", "criticality", "--set", "stride=0"),
        "criticality-stride-not-dividing": ("--experiment", "criticality", "--set", "stride=3"),
        "noether-stride-zero": ("--experiment", "noether", "--set", "stride=0"),
        "noether-stride-not-dividing": ("--experiment", "noether", "--set", "stride=5"),
        "noether-missing-symmetry-file": ("--experiment", "noether", "--symmetry", "custom",
                                          "--symmetry-file", "no-such-snapshot.txt"),
        # flag values parse like config keys, with one error line and exit 2
        "flag-replicas-not-an-int": ("--experiment", "criticality", "--replicas", "abc"),
        "flag-dt-not-a-number": ("--experiment", "ns-verify", "--dt", "x"),
        "flag-unknown-symmetry": ("--experiment", "noether", "--symmetry", "foo"),
        "flag-unknown-scheme": ("--experiment", "spde-converge", "--scheme", "bogus"),
        "flag-unknown-experiment": ("--experiment", "bogus"),
        # argparse's own usage errors too
        "flag-negative-dt": ("--experiment", "ns-verify", "--dt", "-1e-3"),
        "flag-unknown": ("--experiment", "ns-verify", "--bogus"),
        "flag-without-value": ("--experiment", "ns-verify", "--dt"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_2_before_any_work(self, case, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("an experiment started on a rejected configuration")

        monkeypatch.setattr("svns.cli.ns_solve", refuse)
        monkeypatch.setattr("svns.cli.strong_error", refuse)
        assert run_cli(*self.BAD_INPUTS[case], "--out", tmp_path) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_config_flags_have_one_parse_path(self):
        """argparse leaves every config flag as text: its value is parsed by
        the config table's _parser alone, so a bad one is a ConfigError."""
        keys = {"experiment"}.union(*(set(d) for d in _DEFAULTS.values()))
        actions = [a for a in _build_parser()._actions if a.dest in keys]
        assert {a.dest for a in actions} >= {"experiment", "seed", "replicas", "dt"}
        assert [a.dest for a in actions if a.type is not None or a.choices is not None] == []

    def test_bad_input_prints_no_traceback(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "svns.cli", "--experiment", "ns-verify",
                               "--set", "t_final=inf"],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_module_is_runnable(self):
        # the child finds svns in the checkout's src/ whether or not it is installed
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "svns.cli"],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "no experiment selected" in proc.stderr

    def test_imports_leave_scipy_unloaded(self):
        """The runtime needs numpy alone; scipy would add its import to every
        cold start."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, svns.cli, svns.spde, svns.noether; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
    def test_import_keeps_large_temporaries_on_the_heap(self):
        """After `import svns`, blocks of a few MiB freed together are reused
        rather than unmapped, so repeating the same work faults in no pages."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import resource, numpy as np, svns\n"
                "faults = []\n"
                "for _ in range(4):\n"
                "    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "    a, b, c = np.ones(1 << 20), np.ones(1 << 20), np.ones(3 << 18)\n"
                "    del a, b, c\n"
                "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n"
                "print(*faults)")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        first, *repeats = map(int, proc.stdout.split())
        assert max(repeats) < first // 10


# ---------------------------------------------------------------------------
# the four experiments end to end
# ---------------------------------------------------------------------------

class TestNsVerify:
    def test_passes_and_reports(self, tmp_path, capsys):
        code = run_cli("--experiment", "ns-verify", "--out", tmp_path,
                       "--set", "t_final=0.05")
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        csv_text, doc = read_reports(tmp_path, "ns-verify")
        header, rows = csv_data_rows(csv_text)
        assert header == ["t", "linf_error", "energy_defect"]
        assert len(rows) == 51  # 50 steps plus the initial node
        assert "# t_final = 0.05" in csv_text
        assert doc["passed"] is True
        assert doc["config"]["t_final"] == 0.05
        assert [c["name"] for c in doc["checks"]] == [
            "analytic-decay-linf", "momentum-residual", "energy-balance"]
        assert all(c["value"] <= c["tolerance"] for c in doc["checks"])

    def test_tolerances_come_from_the_config(self, tmp_path):
        code = run_cli("--experiment", "ns-verify", "--out", tmp_path,
                       "--set", "t_final=0.05", "--set", "tol_decay=1e-20")
        assert code == 1
        _, doc = read_reports(tmp_path, "ns-verify")
        assert doc["passed"] is False
        decay = next(c for c in doc["checks"] if c["name"] == "analytic-decay-linf")
        assert decay["tolerance"] == 1e-20 and not decay["passed"]

    def test_saves_a_loadable_trajectory(self, tmp_path):
        target = tmp_path / "traj"
        code = run_cli("--experiment", "ns-verify", "--out", tmp_path,
                       "--set", "t_final=0.02", "--save-trajectory", target)
        assert code == 0
        traj = load_trajectory(target)
        assert len(traj.times) == 21
        assert traj.nu == 0.1


class TestCriticality:
    def test_small_run_passes(self, tmp_path):
        code = run_cli("--experiment", "criticality", "--out", tmp_path,
                       "--replicas", "4", "--set", "t_final=0.05",
                       "--perturbation-modes", "0,12",
                       "--epsilon-ladder", "1e-2,5e-3")
        assert code == 0
        csv_text, doc = read_reports(tmp_path, "criticality")
        header, rows = csv_data_rows(csv_text)
        assert header == ["pert_id", "epsilon", "delta_s", "stderr",
                          "extrapolated_delta_s", "verdict"]
        assert len(rows) == 4  # two directions, two ladder rungs each
        assert {row[-1] for row in rows} == {"pass"}
        names = [c["name"] for c in doc["checks"]]
        assert names[0] == "volume-preservation"
        assert len(names) == 3 and all(c["passed"] for c in doc["checks"])

    def test_bad_mode_selection(self, tmp_path):
        assert run_cli("--experiment", "criticality", "--out", tmp_path,
                       "--perturbation-modes", "99") == 2
        assert run_cli("--experiment", "criticality", "--out", tmp_path,
                       "--perturbation-modes", ",") == 2


class TestNoether:
    def test_translation_passes(self, tmp_path):
        code = run_cli("--experiment", "noether", "--out", tmp_path,
                       "--replicas", "4", "--symmetry", "translation-y",
                       "--set", "t_final=0.05", "--set", "probe_times=0.05")
        assert code == 0
        csv_text, doc = read_reports(tmp_path, "noether")
        header, rows = csv_data_rows(csv_text)
        assert header == ["t", "residual", "charge", "defect", "stderr"]
        assert len(rows) == 51
        names = [c["name"] for c in doc["checks"]]
        assert names == ["symmetry-residual", "momentum-drift-rate",
                         "invariance-defect", "charge-drift[t=0.05]"]
        assert doc["passed"] is True

    def test_stride_below_one_is_a_config_error(self, tmp_path, capsys):
        for stride in ("0", "-2"):
            code = run_cli("--experiment", "noether", "--out", tmp_path, "--replicas", "2",
                           "--set", "t_final=0.01", "--set", "probe_times=0.01",
                           "--set", f"stride={stride}")
            assert code == 2
            assert "stride" in capsys.readouterr().err

    def test_single_replica_report_is_valid_json(self, tmp_path):
        run_cli("--experiment", "noether", "--out", tmp_path,
                "--replicas", "1", "--symmetry", "translation-y",
                "--set", "t_final=0.05", "--set", "probe_times=0.05")
        text = (tmp_path / "noether.json").read_text()

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(text, parse_constant=reject)
        inv = next(c for c in doc["checks"] if c["name"] == "invariance-defect")
        assert inv["stderr"] == 0.0
        assert np.isfinite(inv["tolerance"])

    def test_broken_symmetry_fails_loudly(self, tmp_path):
        # a shear profile is not a symmetry generator of the dynamics: the
        # residual check must fail by orders of magnitude
        grid = TorusGrid(32)
        c = np.zeros((2, 32, 32), dtype=complex)
        i1, im1 = list(grid.k).index(1), list(grid.k).index(-1)
        c[0, 0, i1] = -0.5j
        c[0, 0, im1] = 0.5j
        snap = tmp_path / "eta.npz"
        save_field_snapshot(SpectralVectorField(grid, c), snap)
        args = ("--experiment", "noether", "--out", tmp_path,
                "--replicas", "4", "--symmetry", "custom",
                "--symmetry-file", snap,
                "--set", "t_final=0.05", "--set", "probe_times=0.05")
        assert run_cli(*args) == 1
        _, doc = read_reports(tmp_path, "noether")
        names = [c_["name"] for c_ in doc["checks"]]
        assert "momentum-drift-rate" not in names  # not a translation
        residual = next(c_ for c_ in doc["checks"]
                        if c_["name"] == "symmetry-residual")
        assert residual["value"] > 1e6 * residual["tolerance"]
        # --force demotes every check to a diagnostic and unblocks the exit
        assert run_cli(*args, "--force") == 0
        _, doc = read_reports(tmp_path, "noether")
        assert all(c_["diagnostic"] for c_ in doc["checks"])

    def test_scalar_snapshot_becomes_a_compensator(self, tmp_path):
        grid = TorusGrid(32)
        p = np.zeros((32, 32), dtype=complex)
        snap = tmp_path / "psi.npz"
        save_field_snapshot(SpectralField(grid, p), snap)
        # a zero compensator with no shift direction is trivially conserved
        code = run_cli("--experiment", "noether", "--out", tmp_path,
                       "--replicas", "4", "--symmetry", "custom",
                       "--symmetry-file", snap,
                       "--set", "t_final=0.05", "--set", "probe_times=0.05")
        assert code == 0
        _, doc = read_reports(tmp_path, "noether")
        assert "momentum-drift-rate" not in [c["name"] for c in doc["checks"]]

    def test_custom_snapshot_on_wrong_grid(self, tmp_path, capsys, monkeypatch):
        """The snapshot's grid is checked before the trajectory is solved."""
        def refuse(*args, **kwargs):
            pytest.fail("solved a trajectory for a symmetry on the wrong grid")

        monkeypatch.setattr("svns.cli.ns_solve", refuse)
        grid = TorusGrid(16)
        snap = tmp_path / "eta16.npz"
        save_field_snapshot(
            SpectralVectorField(grid, np.zeros((2, 16, 16), dtype=complex)),
            snap)
        assert run_cli("--experiment", "noether", "--out", tmp_path,
                       "--symmetry", "custom", "--symmetry-file", snap,
                       "--set", "t_final=0.05",
                       "--set", "probe_times=0.05") == 2
        assert capsys.readouterr().err.startswith("error: custom symmetry lives on")


class TestSpdeConverge:
    def test_heun_meets_the_order_gate(self, tmp_path):
        code = run_cli("--experiment", "spde-converge", "--out", tmp_path,
                       "--replicas", "8")
        assert code == 0
        csv_text, doc = read_reports(tmp_path, "spde-converge")
        header, rows = csv_data_rows(csv_text)
        assert header == ["dt", "mean_error", "stderr", "fitted_order"]
        assert [float(r[0]) for r in rows] == [4e-3, 2e-3, 1e-3]
        errors = [float(r[1]) for r in rows]
        assert errors[0] > errors[1] > errors[2]
        order = next(c for c in doc["checks"] if c["name"] == "strong-order")
        assert order["value"] >= 0.9 and order["passed"]

    def test_ito_fails_the_heun_gate_until_retuned(self, tmp_path):
        # order-1/2 pathwise convergence cannot meet the order-1 gate; with
        # the documented override the same run passes
        args = ("--experiment", "spde-converge", "--out", tmp_path,
                "--replicas", "8", "--scheme", "ito")
        assert run_cli(*args) == 1
        _, doc = read_reports(tmp_path, "spde-converge")
        order = next(c for c in doc["checks"] if c["name"] == "strong-order")
        assert 0.35 <= order["value"] <= 0.75 and not order["passed"]
        assert run_cli(*args, "--set", "order_min=0.35") == 0

    def test_shear_initial_data(self, tmp_path):
        code = run_cli("--experiment", "spde-converge", "--out", tmp_path,
                       "--replicas", "8", "--set", "initial_data=shear")
        assert code == 0

    def test_undefined_order_is_written_as_null(self, tmp_path):
        # with nu = 0 the errors are roundoff and no order can be fitted;
        # the JSON report must still parse with NaN rejected
        run_cli("--experiment", "spde-converge", "--out", tmp_path,
                "--replicas", "2", "--set", "nu=0")

        def reject(token):
            raise ValueError(f"invalid JSON constant {token}")

        text = (tmp_path / "spde-converge.json").read_text()
        doc = json.loads(text, parse_constant=reject)
        order = next(c for c in doc["checks"] if c["name"] == "strong-order")
        assert order["value"] is None and not order["passed"]

    def test_bad_ladder(self, tmp_path):
        assert run_cli("--experiment", "spde-converge", "--out", tmp_path,
                       "--dt-ladder", "1e-3") == 2
        # an unrealizable horizon/ladder combination is a config error
        assert run_cli("--experiment", "spde-converge", "--out", tmp_path,
                       "--replicas", "8", "--set", "t_final=0.25") == 2


# ---------------------------------------------------------------------------
# report determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    ARGS = ("--experiment", "criticality", "--replicas", "2",
            "--set", "t_final=0.02", "--perturbation-modes", "0",
            "--epsilon-ladder", "1e-2,5e-3", "--seed", "11")

    def run_once(self, out):
        assert run_cli(*self.ARGS, "--out", out) in (0, 1)
        csv_text = (out / "criticality.csv").read_text()
        doc = json.loads((out / "criticality.json").read_text())
        return csv_text, doc

    def test_reports_are_reproducible(self, tmp_path):
        out = tmp_path / "rep"
        csv_a, doc_a = self.run_once(out)
        csv_b, doc_b = self.run_once(out)
        assert csv_a == csv_b  # byte-identical, wall clock excluded
        meta_a = doc_a.pop("meta")
        meta_b = doc_b.pop("meta")
        assert doc_a == doc_b
        assert set(meta_a) == set(meta_b) == {"wall_clock_s"}

    def test_seed_changes_the_numeric_body(self, tmp_path):
        out = tmp_path / "rep"
        csv_a, _ = self.run_once(out)
        assert run_cli(*self.ARGS[:-1], "13", "--out", out) in (0, 1)
        csv_c = (out / "criticality.csv").read_text()
        assert csv_a != csv_c

    def test_report_paths_can_be_overridden(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        json_path = tmp_path / "verdicts.json"
        code = run_cli("--experiment", "ns-verify", "--out", tmp_path,
                       "--set", "t_final=0.02", "--report", csv_path,
                       "--set", f"json_report={json_path}")
        assert code == 0
        assert csv_path.is_file() and json_path.is_file()
        assert not (tmp_path / "ns-verify.csv").exists()
