"""Spans and work counters recorded at the public calls of each svns module.

The tracer wraps functions and methods from outside the program: it replaces
module and class attributes with timing wrappers while a traced operation
runs, and puts the originals back afterwards, so an untraced pass runs the
program unchanged. Every wrapped call records a span (name, start, end,
parent); a layer's self time is its spans' time minus the time their direct
children cover. Counters record the work done at the same calls.

Targets that a later version of the program renames or removes are skipped
and listed in `Tracer.missing`, so their metrics read 0 instead of failing.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import time
from collections import Counter

import numpy as np

# per-layer metric -> (unit, better, source, key), in the order of the report.
# Sources: "calls" counts the spans named key; "s" is the time of the
# outermost spans named key; "self_s" is their time minus that of their
# direct children; "count" is the counter key; "reuse" is distinct point
# sets over the spans named key.
LAYER_METRICS = {
    "fields.point_eval.calls": ("count", "lower", "calls", "fields.point_eval"),
    "fields.point_eval.s": ("s", "lower", "s", "fields.point_eval"),
    "fields.point_eval.madds": ("count", "lower", "count", "madds"),
    "fields.phase_table.builds": ("count", "lower", "calls", "fields.phase_table"),
    "fields.phase_table.reuse": ("ratio", "higher", "reuse", "fields.phase_table"),
    "fields.evaluator.builds": ("count", "lower", "calls", "fields.evaluator"),
    "fields.evaluator.s": ("s", "lower", "s", "fields.evaluator"),
    "fft.calls": ("count", "lower", "calls", "fft"),
    "fft.s": ("s", "lower", "s", "fft"),
    "fft.points": ("count", "lower", "count", "fft_points"),
    "fields.snapshot.write_s": ("s", "lower", "s", "fields.snapshot.write"),
    "fields.snapshot.read_s": ("s", "lower", "s", "fields.snapshot.read"),
    "fields.snapshot.bytes": ("B", "lower", "count", "snapshot_bytes"),
    "solver.ns_step.calls": ("count", "lower", "calls", "solver.ns_step"),
    "solver.ns_step.self_s": ("s", "lower", "self_s", "solver.ns_step"),
    "solver.drift_eval.calls": ("count", "lower", "calls", "solver.drift_eval"),
    "solver.drift_eval.s": ("s", "lower", "s", "solver.drift_eval"),
    "solver.drift_coeffs.s": ("s", "lower", "s", "solver.drift_coeffs"),
    "solver.diagnostics.s": ("s", "lower", "s", "solver.diagnostics"),
    "solver.checkpoint.write_s": ("s", "lower", "s", "solver.checkpoint.write"),
    "solver.checkpoint.read_s": ("s", "lower", "s", "solver.checkpoint.read"),
    "solver.checkpoint.bytes": ("B", "lower", "count", "trajectory_bytes"),
    "flows.run_flow.self_s": ("s", "lower", "self_s", "flows.run_flow"),
    "flows.nodes": ("count", "lower", "count", "nodes"),
    "flows.particle_steps": ("count", "lower", "count", "particle_steps"),
    "flows.jacobian_step.calls": ("count", "lower", "calls", "flows.jacobian_step"),
    "flows.jacobian_step.s": ("s", "lower", "s", "flows.jacobian_step"),
    "flows.driver.calls": ("count", "lower", "calls", "flows.driver"),
    "flows.driver.s": ("s", "lower", "s", "flows.driver"),
    "flows.driver.normals": ("count", "lower", "count", "normals"),
    "flows.branch.self_s": ("s", "lower", "self_s", "flows.branch"),
    "flows.branch.steps": ("count", "lower", "count", "branch_steps"),
    "flows.checkpoint.write_s": ("s", "lower", "s", "flows.checkpoint.write"),
    "flows.checkpoint.read_s": ("s", "lower", "s", "flows.checkpoint.read"),
    "flows.checkpoint.bytes": ("B", "lower", "count", "ensemble_bytes"),
    "action.prepare.self_s": ("s", "lower", "self_s", "action.prepare"),
    "action.gateaux.s": ("s", "lower", "s", "action.gateaux"),
    "noether.residual.s": ("s", "lower", "s", "noether.residual"),
    "noether.invariance.self_s": ("s", "lower", "self_s", "noether.invariance"),
    "noether.probe.self_s": ("s", "lower", "self_s", "noether.probe"),
    "spde.strong_error.self_s": ("s", "lower", "self_s", "spde.strong_error"),
    "spde.mode_means.self_s": ("s", "lower", "self_s", "spde.mode_means"),
    "spde.solve.calls": ("count", "lower", "calls", "spde.solve"),
    "spde.solve.self_s": ("s", "lower", "self_s", "spde.solve"),
    "spde.replica_steps": ("count", "lower", "count", "replica_steps"),
    "spde.tilde.self_s": ("s", "lower", "self_s", "spde.tilde"),
}


class Tracer:
    """Records spans and counters while installed; see module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []      # (name, start, end, parent, outermost)
        self.counters: Counter = Counter()
        self.point_sets: set[bytes] = set()
        self.missing: list[str] = []
        self._open: list[int] = []
        self._open_names: Counter = Counter()
        self._patches: list[tuple] = []   # (owner, attribute, original, wrapper)
        self._targets = None

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, count, args, kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        outermost = self._open_names[name] == 0
        self.spans.append(None)
        self._open.append(idx)
        self._open_names[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self._open_names[name] -= 1
            self.spans[idx] = (name, start, end, parent, outermost)
        if count is not None:
            count(self, args, kwargs, result)
        return result

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, count, args, kwargs)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Swap every target for its traced wrapper (idempotent)."""
        if self._patches:
            return
        if self._targets is None:
            self._targets = _targets(self)
        originals: dict[int, object] = {}
        for owner, attr, name, count in self._targets:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, fn, count)
            originals[id(fn)] = wrapper
            self._patches.append((owner, attr, fn, wrapper))
            setattr(owner, attr, wrapper)
        # names bound by `from module import fn` inside svns point at the
        # original objects; rebind those too
        import svns

        for mod in _svns_modules(svns):
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patches.append((mod, attr, value, wrapper))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.point_sets.clear()

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of everything recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, parent, outermost) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if outermost:
                inclusive[name] += end - start
        sources = {"calls": calls, "s": inclusive, "self_s": self_s,
                   "count": self.counters}
        values = {}
        for metric, (_, _, source, key) in LAYER_METRICS.items():
            if source == "reuse":
                value = len(self.point_sets) / calls[key] if calls[key] else 0.0
            else:
                value = sources[source][key]
            values[metric] = float(value)
        return values

    def span_table(self) -> dict:
        """Spans as columns, for writing out at the end of a run."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], s, e, p] for n, s, e, p, _ in self.spans],
        }


def _svns_modules(pkg):
    import sys

    prefix = pkg.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == pkg.__name__ or name.startswith(prefix))]


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# -- counters: each gets (tracer, args, kwargs, result) ---------------------

def _count_phase_table(tr, args, kwargs, result):
    pts = np.ascontiguousarray(args[1] if len(args) > 1 else kwargs["points"],
                               dtype=np.float64)
    tr.point_sets.add(hashlib.blake2b(pts.tobytes(), digest_size=16).digest())


def _count_point_eval(tr, args, kwargs, result):
    table, ev = args[0], (args[1] if len(args) > 1 else kwargs["ev"])
    tr.counters["madds"] += ev.nfields * len(ev.kr) * len(ev.kc) * table.npts


def _count_fft(kind):
    def count(tr, args, kwargs, result):
        if kind == "irfft2":
            shape = np.shape(result)
        else:
            shape = np.shape(args[0] if args else kwargs["x"])
        if len(shape) < 2:
            return
        batch = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
        tr.counters["fft_points"] += batch * shape[-2] * shape[-1]
    return count


def _count_file_bytes(counter):
    def count(tr, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tr.counters[counter] += os.path.getsize(path)
    return count


def _count_directory_bytes(tr, args, kwargs, result):
    directory = args[1] if len(args) > 1 else kwargs["directory"]
    tr.counters["trajectory_bytes"] += sum(
        e.stat().st_size for e in os.scandir(directory) if e.is_file())


def _count_run_flow(fn):
    def count(tr, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        ens, steps = a["ens"], int(a["steps"])
        tr.counters["nodes"] += steps + 1
        tr.counters["particle_steps"] += ens.replicas * ens.npoints * steps
    return count


def _count_normals(tr, args, kwargs, result):
    tr.counters["normals"] += int(np.size(result))


def _count_branch(fn):
    def count(tr, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        ens = a["ens"]
        tr.counters["branch_steps"] += (int(a["branches"]) * int(a["eps_steps"])
                                        * ens.replicas * ens.npoints)
    return count


def _count_spde_solve(fn):
    def count(tr, args, kwargs, result):
        cfg = _bound(fn, args, kwargs)["config"]
        tr.counters["replica_steps"] += cfg.replicas * cfg.steps
    return count


def _count_strong_error(fn):
    def count(tr, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        cfg = a["config"]
        steps = sum(int(round(cfg.t_final / float(d))) for d in a["dt_ladder"])
        tr.counters["replica_steps"] += cfg.replicas * steps
    return count


def _targets(tr: Tracer):
    """(owner, attribute, span name, counter) for every traced call."""
    import numpy.fft as npfft
    import scipy.fft as spfft

    from svns import action, fields, flows, noether, solver, spde

    out = []

    def add(owner, attr, name, count=None, make=None):
        present = (attr in owner.__dict__ if isinstance(owner, type)
                   else hasattr(owner, attr))
        if not present:
            tr.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        out.append((owner, attr, name, make(fn) if make else count))

    def cls(module, name):
        c = getattr(module, name, None)
        if c is None:
            tr.missing.append(f"{module.__name__}.{name}")
        return c

    def add_method(module, cname, attr, name, count=None, make=None):
        c = cls(module, cname)
        if c is not None:
            add(c, attr, name, count, make)

    # fields
    add_method(fields, "PhaseTable", "__init__", "fields.phase_table", _count_phase_table)
    add_method(fields, "PhaseTable", "evaluate", "fields.point_eval", _count_point_eval)
    add_method(fields, "PointEvaluator", "__init__", "fields.evaluator")
    add(fields, "save_field_snapshot", "fields.snapshot.write",
        _count_file_bytes("snapshot_bytes"))
    add(fields, "load_field_snapshot", "fields.snapshot.read")
    for mod in (npfft, spfft):
        for kind in ("fft2", "ifft2", "rfft2", "irfft2"):
            add(mod, kind, "fft", _count_fft(kind))
    # solver
    add(solver, "ns_solve", "solver.ns_solve")
    add(solver, "ns_step", "solver.ns_step")
    add_method(solver, "DriftField", "velocity", "solver.drift_eval")
    add_method(solver, "DriftField", "velocity_and_gradient", "solver.drift_eval")
    base = cls(solver, "DriftField")
    if base is not None:
        todo, subclasses = [base], []
        while todo:
            for sub in todo.pop().__subclasses__():
                subclasses.append(sub)
                todo.append(sub)
        for sub in subclasses:
            for attr in ("coeffs_at", "velocity_dt_coeffs_at"):
                if attr in sub.__dict__:
                    add(sub, attr, "solver.drift_coeffs")
    add(solver, "ns_residual", "solver.diagnostics")
    add(solver, "energy_balance_defects", "solver.diagnostics")
    add(solver, "save_trajectory", "solver.checkpoint.write", _count_directory_bytes)
    add(solver, "load_trajectory", "solver.checkpoint.read")
    # flows
    add(flows, "run_flow", "flows.run_flow", make=_count_run_flow)
    add(flows, "jacobian_step", "flows.jacobian_step")
    add_method(flows, "BrownianDriver", "unit_normals", "flows.driver", _count_normals)
    add(flows, "generalized_derivative", "flows.branch", make=_count_branch)
    add(flows, "save_ensemble", "flows.checkpoint.write", _count_file_bytes("ensemble_bytes"))
    add(flows, "load_ensemble", "flows.checkpoint.read")
    # action: the observer's per-node arithmetic belongs to the action layer
    add(action, "prepare_action_run", "action.prepare")
    add_method(action, "_ActionObserver", "accumulate", "action.prepare")
    add(action, "gateaux_derivative", "action.gateaux")
    # noether
    add(noether, "noether_residual", "noether.residual")
    add(noether, "invariance_check", "noether.invariance")
    add_method(noether, "_InvarianceObserver", "accumulate", "noether.invariance")
    add(noether, "martingale_probe", "noether.probe")
    add_method(noether, "_ChargeObservable", "values", "noether.probe")
    # spde
    add(spde, "strong_error", "spde.strong_error", make=_count_strong_error)
    add(spde, "ensemble_mode_means", "spde.mode_means")
    add(spde, "spde_solve", "spde.solve", make=_count_spde_solve)
    add(spde, "run_semimartingale_flow", "spde.tilde")
    add_method(spde, "_TildeObserver", "accumulate", "spde.tilde")
    return out
