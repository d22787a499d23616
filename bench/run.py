"""Benchmark of repelflow: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload cloud_relax --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy.  The run is a closed loop: one
process and one caller, passes of checked operations back to back, with
no threads beyond numpy's own BLAS pool.

With ``--trace 0`` the result carries the end-to-end metrics: ``wall_s``
(median seconds per pass, set-up excluded), ``setup_s`` (median fresh
import of repelflow plus median input generation, each taken three
times) and ``peak_rss_mb``.  With ``--trace 1`` untraced and traced passes
alternate and the result carries the per-layer metrics derived from the
traced passes' spans, plus the tracing overhead ratio; the spans are
written to ``.bench-out/`` when the run ends.  The last line of standard
output is the JSON result; the lines before it are for people.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from tracer import SpanStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
SETUP_REPEATS = 3

# metric name -> unit, in BENCHMARK.json's order; NOTES.md says which
# end-to-end metric each per-layer metric moves
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import repelflow; "
                "print(time.perf_counter() - t)")


def import_repelflow():
    """Import the checkout's own package; return the seconds it took."""
    if not (SRC / "repelflow" / "__init__.py").is_file():
        sys.exit(f"error: no repelflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repelflow
    elapsed = time.perf_counter() - t0
    if Path(repelflow.__file__).resolve().parent != SRC / "repelflow":
        sys.exit(f"error: imported repelflow from {repelflow.__file__}")
    return elapsed


def fresh_import_seconds():
    """Import time of repelflow in a new interpreter (cold module cache)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout)


def layer_metrics(spans, work, passes):
    """Per-pass layer metrics from the spans of ``passes`` traced passes."""
    st = SpanStats(spans)

    def calls(name):
        return st.calls.get(name, 0) / passes

    def secs(name):
        return st.seconds.get(name, 0.0) / passes

    def own(name):
        return st.self_seconds.get(name, 0.0) / passes

    pair_evals = work.get("pair_evals", 0) / passes
    rhs_in_steps = st.count_inside("lagrangian.rhs", "lagrangian.step")
    m = {}
    for name in ("particles.velocity_field", "particles.discrete_energy",
                 "attraction.spherical_mean_convolve", "attraction.shell_mean",
                 "attraction.effective_attraction_potential", "potentials.eval",
                 "lagrangian.reconstruct_density", "diagnostics.shell_energy",
                 "diagnostics.l1_to_steady", "density.l1_distance",
                 "density.newtonian_radial_potential",
                 "steady.build_steady_state", "cli.run"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    for name in ("particles.sample_radial", "attraction.attraction_energy",
                 "lagrangian.evolve", "diagnostics.collect_series",
                 "diagnostics.fit_rate", "density.radial_energy",
                 "steady.verify_steady"):
        m[f"{name}.s"] = secs(name)
    for name in ("particles.advance", "attraction.spherical_mean_convolve",
                 "diagnostics.collect_series", "cli.run"):
        m[f"{name}.self_s"] = own(name)
    m["particles.pair_evals"] = pair_evals
    m["particles.pair_ns"] = (m["particles.velocity_field.s"] * 1e9 / pair_evals
                              if pair_evals else 0.0)
    m["particles.run_particles.steps"] = st.count_inside(
        "particles.advance", "particles.run_particles") / passes
    m["attraction.kernel_evals"] = work.get("kernel_evals", 0) / passes
    m["attraction.iterations"] = work.get("attraction_iterations", 0) / passes
    m["lagrangian.step.calls"] = calls("lagrangian.step")
    m["lagrangian.rhs.calls"] = rhs_in_steps / passes
    m["lagrangian.accept_ratio"] = (work.get("rk_stages_accepted", 0) / rhs_in_steps
                                    if rhs_in_steps else 0.0)
    return m


def measure(workload, inputs, seed, seconds, trace, workroot):
    """Run passes until the next one would overrun ``seconds``.

    At least one untraced pass always runs, and with ``trace`` at least one
    traced pass; traced passes alternate with untraced ones and re-run the
    set-up under the tracer, so set-up functions get spans too.
    """
    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    outcomes, stats = [], []
    start = time.perf_counter()
    while True:
        if walls[False] and (walls[True] or not trace):
            estimate = statistics.median(walls[False] + walls[True])
            if time.perf_counter() - start + estimate > seconds:
                break
        traced = trace and len(walls[True]) < len(walls[False])
        passdir = workroot / f"pass{len(walls[False]) + len(walls[True])}"
        passdir.mkdir(parents=True)
        if traced:
            tracer.install()
            try:
                pass_inputs = workload.setup(seed)
                t0 = time.perf_counter()
                done, extra = workload.run(pass_inputs, passdir)
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        else:
            t0 = time.perf_counter()
            done, extra = workload.run(inputs, passdir)
            wall = time.perf_counter() - t0
        shutil.rmtree(passdir)
        walls[traced].append(wall)
        outcomes += done
        stats.append((traced, extra))
    return walls, outcomes, stats, tracer


def report(workload, seed, seconds, trace, import_s):
    """Set up, measure, check and print; returns the result record.

    ``import_s`` is the import time of repelflow in this process, the
    first of the set-up's import samples.
    """
    import workloads
    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        gen_times.append(time.perf_counter() - t0)
    import_times = [import_s] + [fresh_import_seconds()
                                 for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(import_times) + statistics.median(gen_times)

    workroot = OUT / f"work-{workload.name}-{os.getpid()}"
    try:
        walls, outcomes, stats, tracer = measure(
            workload, inputs, seed, seconds, trace, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    failed = sum(not o.ok for o in outcomes)
    wall_s = statistics.median(walls[False])
    print(json.dumps({"workload": workload.name, "seed": seed,
                      "seconds": seconds, "trace": int(trace),
                      "environment": workloads.environment(),
                      "passes": {"untraced": walls[False], "traced": walls[True]}}))
    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.name}: {o.detail}")
    print(f"fail_ratio = {failed / len(outcomes):.6g} ({failed}/{len(outcomes)})")
    errs = [e["cloud_energy_rel_err"] for _, e in stats if "cloud_energy_rel_err" in e]
    if errs:
        print(f"cloud_energy_rel_err = {max(errs):.10g}")

    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{workload.name}-seed{seed}.json")
        traced = [e for was_traced, e in stats if was_traced]
        metrics = layer_metrics(tracer.spans, tracer.work, len(traced))
        metrics["cli.artifact_bytes"] = statistics.median(
            e.get("artifact_bytes", 0) for e in traced)
        metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / wall_s
        units = LAYER_UNITS
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_mib}
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_repelflow()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: "
                     f"{', '.join(workloads.WORKLOADS)}")
    # solver warnings (e.g. the unproven-eps notice) are expected here;
    # the output checks decide pass or fail
    warnings.simplefilter("ignore")
    report(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
           bool(args.trace), import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
