"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload run-warm --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and prints
the per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out FILE``
also writes the full report (provenance, sample counts, digest) as JSON.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

#: The seed a run uses unless told otherwise.
DEFAULT_SEED = 1
#: Held out: a claiming change must also hold on this seed (never tune on it).
HELD_OUT_SEED = 7919

#: End-to-end metrics: name -> unit.  Must match BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_uops_per_s": "uops/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Passes a run makes at least, whatever ``--seconds`` says (a traced run
#: makes this many of each kind).
MIN_PASSES = 5


def simulation_mode() -> str:
    from repro.pipeline.fastsim import kernel_mode

    return {"c": "kernel-c", "python": "kernel-python", "off": "legacy"}[kernel_mode()]


def provenance(mode: str) -> dict:
    return {
        "cpus": os.cpu_count(),
        "load_1m": round(os.getloadavg()[0], 2),
        "python": platform.python_version(),
        "simulation_mode": mode,
    }


def percentile(values: list[float], q: int) -> float:
    """The *q*-th percentile, interpolated inside the sample range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_passes(workload, seconds: float, min_passes: int, tracer=None):
    """Run passes until the next one would take the measuring phase past
    *seconds* of wall time (and at least *min_passes*).

    The phase includes the untimed work between passes
    (``Workload.after_pass``): a workload that checks results there makes
    fewer passes in the same stretch of wall time.

    Returns ``(record, traced)`` pairs.  With a *tracer*, passes alternate
    untraced and traced, starting untraced.
    """
    records = []
    start = time.perf_counter()
    while True:
        index = len(records)
        traced = tracer is not None and index % 2 == 1
        record = (traced_pass(workload, index, tracer) if traced
                  else workload.run_pass(index, None))
        records.append((record, traced))
        workload.after_pass()
        elapsed = time.perf_counter() - start
        if (len(records) >= min_passes
                and elapsed + elapsed / len(records) > seconds):
            return records


def traced_pass(workload, index: int, tracer):
    """One pass with the layer wrappers and the program's profiling on."""
    from perfbench import layers
    from repro.util import profiling

    before = layers.program_counters()
    layers.install(tracer)
    profiling.enable(reset=False)
    tracer.request = index
    try:
        with tracer.span(layers.ROOT):
            record = workload.run_pass(index, tracer)
    finally:
        profiling.disable()
        tracer.unwrap_all()
    for key, value in layers.counter_delta(before, layers.program_counters()).items():
        tracer.count(f"program.{key}", value)
    return record


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts on demand
    for the pool executor's shared-memory segments (a child of this one)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def cli_costs(env, repeats: int = 3) -> dict:
    """Median interpreter start and ``import repro.cli`` cost (fresh processes)."""
    interp = [env.run(env.python("-c", "pass"), f"interp-{i}").wall
              for i in range(repeats)]
    imports = [env.run(env.python("-c", "import repro.cli"), f"import-{i}").wall
               for i in range(repeats)]
    return {"interp_s": statistics.median(interp),
            "import_s": statistics.median(imports) - statistics.median(interp)}


def end_to_end(records, setups, peak_kb, failed, attempted) -> tuple[dict, dict]:
    walls = [r.wall for r in records]
    latencies = [x for r in records for x in r.latencies]
    rates = [r.uops / r.wall for r in records]
    p90 = percentile(latencies, 90)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "sim_uops_per_s": statistics.median(rates),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": p90,
        "success_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    samples = {
        "setup_s": f"n={len(setups)} set-ups",
        "wall_s": f"n={len(walls)} passes",
        "sim_uops_per_s": f"n={len(rates)} passes",
        "latency_p50_s": f"n={len(latencies)} requests",
        "latency_p90_s": (f"n={len(latencies)} requests, "
                          f"{sum(x > p90 for x in latencies)} beyond"),
        "success_ratio": f"failed_ratio={failed / attempted:.6g} "
                         f"({failed}/{attempted} jobs)",
        "peak_rss_mb": "largest process of the run",
    }
    return values, samples


def print_rows(title: str, values: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<30} {value:>14.6g} {units[name]:<7}{note}")


def run(args) -> int:
    from perfbench import gate, layers
    from perfbench.tracing import Tracer, layer_rows
    from perfbench.workloads import FULL, TINY, WORKLOADS, Env

    size = TINY if args.size == "tiny" else FULL
    run_dir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    env = Env(ROOT, run_dir)
    workload = WORKLOADS[args.workload](env, args.seed, size)
    tracer = Tracer() if args.trace else None
    min_passes = 1 if size is TINY else MIN_PASSES
    try:
        setups = []
        for i in range(size.setup_repeats):
            if i:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        prov = provenance(simulation_mode())
        if tracer is None:
            records = timed_passes(workload, args.seconds, min_passes)
        else:
            records = timed_passes(workload, args.seconds,
                                   2 * ((min_passes + 1) // 2), tracer)
        peak_kb = workload.peak_rss_kb()
        service, rerouted = workload.after_run()
        store_bytes = workload.store_bytes()
        workload.teardown()
        cli = cli_costs(env) if tracer is not None else None
        failed, problems = workload.gate()
        failed += sum(r.errors for r, _ in records)
    finally:
        workload.teardown()
        stop_resource_tracker()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    attempted = max(1, sum(r.jobs for r, _ in records))
    digest = gate.digest(workload.first_pass)
    print(f"perfbench {args.workload}: seed={args.seed} "
          f"(held-out seed {HELD_OUT_SEED}) seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"request: {workload.request}; results_digest={digest} (first pass)")
    for problem in problems:
        print(f"FAILED: {problem}")

    if tracer is None:
        values, notes = end_to_end([r for r, _ in records], setups, peak_kb,
                                   failed, attempted)
        units = END_TO_END
        print_rows("end-to-end (untraced):", values, units, notes)
    else:
        traced = [r for r, t in records if t]
        untraced = [r for r, t in records if not t]
        from repro.util import profiling

        profile = {name: row["seconds"]
                   for name, row in profiling.snapshot().items()}
        for phase, seconds in workload.child_profile.items():
            profile[phase] = profile.get(phase, 0.0) + seconds
        values = layers.layer_metrics(
            tracer.spans, tracer.counters, profile, passes=len(traced),
            untraced_wall=statistics.fmean(r.wall for r in untraced),
            cli=cli, store_bytes=store_bytes, service=service,
            rerouted=rerouted)
        units = layers.PER_LAYER
        print_rows(f"per-layer (traced, per pass over {len(traced)} traced "
                   f"and {len(untraced)} untraced passes):", values, units, {})
        rows, unattributed, wall = layer_rows(tracer.spans, layers.ROOT)
        n = len(traced)
        print("self time per pass (s), rows + unattributed_s = traced wall:")
        for name, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<30} {seconds / n:>10.4f}")
        print(f"  {'unattributed_s':<30} {unattributed / n:>10.4f}")
        print(f"  {'sum':<30} {(sum(rows.values()) + unattributed) / n:>10.4f}"
              f"  traced wall {wall / n:.4f}")
        print(f"tracing overhead: {values['tracing_overhead_s']:+.4f} s per pass "
              "(traced wall - untraced wall)")
        for metric, span_name, phase in layers.PROFILE_CHECKS:
            print(f"profile check: {span_name} wrapper - '{phase}' phase = "
                  f"{values[metric]:+.4f} s per pass")
        print("note: work inside pool workers (sweep-cold) and shards "
              "(serve-mixed) shows only as the enclosing executors.run_s / "
              "client.submit_s plus the program's own counters.")

    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "size": args.size, "provenance": prov,
            "request": workload.request, "results_digest": digest,
            "attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal passes, for the benchmark's tests")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the full report as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds through the finally blocks that stop the shards.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
