#!/usr/bin/env python3
"""Benchmark of the svns library: four experiment workloads through its public
API, timed end to end, plus a traced run that splits the time by module.

Run from the root of a checkout (nothing to build; svns is imported from
./src):

    python3 perfbench/run.py --workload criticality --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

One run builds its inputs from --seed, repeats whole passes of the workload's
operations for --seconds, checks the outputs, and prints human-readable lines
followed by one JSON object on the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 passes
alternate untraced and traced, the metrics are the per-layer ones, and the
tracing overhead is printed. --all runs every workload, untraced then traced,
each in its own process. See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ns-verify", "criticality", "noether", "spde")
SETUP_PROBES = 3

# the load is one process using at most as many threads as the machine has
# cores, BLAS pool included; main() pins the pools before numpy is imported
THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

# end-to-end metric -> unit; every workload reports these three
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _import_program():
    """Import svns from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import svns

    if Path(svns.__file__).resolve().parent != (src / "svns").resolve():
        raise SystemExit(f"error: svns imported from {svns.__file__}, not from {src}")


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import svns and build one workload's inputs (fresh process)."""
    start = time.perf_counter()
    _import_program()
    import workloads

    workloads.WORKLOADS[workload](seed, str(OUT))
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes, so module imports are never cached."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def run_pass(wl, tracer=None):
    """Every operation once, in order; returns (results, seconds, errors)."""
    wl.before_pass()
    gc.collect()  # garbage left by the previous pass is not this pass's cost
    results, seconds, errors = {}, {}, {}
    for name, _, fn in wl.operations():
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            results[name] = fn(results)
        except Exception as exc:  # a raising operation counts as failed
            errors[name] = f"{type(exc).__name__}: {exc}"
        finally:
            seconds[name] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
    return results, seconds, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    setup_s = measure_setup(name, seed)
    _import_program()
    import tracer as tracing
    import workloads

    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](seed, str(scratch))
        ops = [(op, metric) for op, metric, _ in wl.operations()]
        tr = tracing.Tracer() if trace else None

        reference = None          # fingerprints of the first pass
        verdicts = {}             # op -> problems, from the first pass's checks
        attempted = failed = 0
        known: dict[str, str] = {}         # op -> first problem, known faults
        unexpected: dict[str, str] = {}    # op -> first problem, anything else
        op_metrics = {m: [] for m in wl.metrics}
        walls = {False: [], True: []}
        layers: dict[str, list[float]] = {m: [] for m in tracing.LAYER_METRICS}
        passes = 0
        start = time.perf_counter()
        # whole passes only; a traced run needs an untraced and a traced one
        while passes < 1 + trace or time.perf_counter() - start < seconds:
            traced = trace and passes % 2 == 1
            if traced:
                tr.reset()
            results, secs, errors = run_pass(wl, tr if traced else None)
            passes += 1
            if traced:
                for key, value in tr.layer_metrics().items():
                    layers[key].append(value)
            walls[traced].append(sum(secs.values()))
            if not traced:
                for metric in wl.metrics:
                    op_metrics[metric].append(
                        sum(secs[op] for op, m in ops if m == metric))
            if errors:
                problems = {op: [why] for op, why in errors.items()}
            elif reference is None:
                reference = wl.fingerprint(results)
                verdicts = wl.check(results)
                problems = verdicts
            else:
                prints = wl.fingerprint(results)
                problems = {}
                for op, _ in ops:
                    if prints[op] != reference[op]:
                        problems[op] = ["output differs from the first pass"]
                    else:
                        problems[op] = verdicts[op]
            for op, _ in ops:
                attempted += 1
                if problems.get(op):
                    failed += 1
                    seen = known if op in wl.known_faults else unexpected
                    seen.setdefault(op, "; ".join(problems[op]))
            del results  # one pass's outputs alive at a time, for peak_rss_mib
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            OUT.mkdir(exist_ok=True)
            (OUT / f"spans-{name}.json").write_text(json.dumps(tr.span_table()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = walls[False]
    print(f"workload {name}: seed {seed}, {passes} passes in "
          f"{time.perf_counter() - start:.1f} s, {THREADS} threads, trace {int(trace)}")
    for metric, values in op_metrics.items():
        if values:
            print(f"  {metric:<22} {statistics.median(values):12.6f} s   "
                  f"(median of {len(values)}, min {min(values):.6f}, max {max(values):.6f})")
    metrics = {
        "wall_s": statistics.median(untraced),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
    }
    for metric, value in metrics.items():
        print(f"  {metric:<22} {value:12.6f} {END_TO_END[metric]}")
    print(f"  untraced pass walls (s): {' '.join(f'{w:.4f}' for w in untraced)}")
    print(f"  operations attempted {attempted}, failed {failed}")
    for op, why in sorted(known.items()):
        print(f"  failed (known fault) {op}: {why} -- {wl.known_faults[op]}")
    for op, why in sorted(unexpected.items()):
        print(f"  FAILED {op}: {why}")
    if trace:
        traced_wall = statistics.median(walls[True])
        print(f"  tracing overhead {traced_wall - metrics['wall_s']:+.6f} s per pass "
              f"(traced wall {traced_wall:.6f} s, untraced {metrics['wall_s']:.6f} s)")
        if tr.missing:
            print(f"  trace targets not found: {', '.join(tr.missing)}")
        report = {}
        for key, (unit, *_) in tracing.LAYER_METRICS.items():
            value = statistics.median(layers[key])
            report[key] = {"value": value, "unit": unit}
            print(f"  {key:<28} {value:16.6f} {unit}")
    else:
        report = {m: {"value": v, "unit": END_TO_END[m]} for m, v in metrics.items()}
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    summary = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=str(ROOT))
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            summary.append((name, trace, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("summary (end-to-end metrics untraced; attempted/failed per run)")
    for name, trace, doc in summary:
        if trace:
            continue
        cells = ", ".join(f"{k} {v['value']:.4f} {v['unit']}" for k, v in doc["metrics"].items())
        print(f"  {name:<12} correct {doc['correct']}, attempted {doc['attempted']}, "
              f"failed {doc['failed']}: {cells}")
    return 0 if all(doc["correct"] for _, _, doc in summary) else 1


def main(argv=None) -> int:
    par = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    par.add_argument("--workload", choices=WORKLOAD_NAMES)
    par.add_argument("--all", action="store_true", help="run every workload")
    par.add_argument("--seed", type=int, default=1)
    par.add_argument("--seconds", type=float, default=25.0)
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    par.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = par.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    if not (ROOT / "src" / "svns" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'svns'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        par.error("--seed must be nonnegative")
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        par.error("choose --workload or --all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
