"""The per-layer instrumentation: which program names are wrapped, and
how a traced run's spans and counters become the per-layer metrics.

Nothing here imports the program at module import time, so the traced CLI
bootstrap can time ``import repro.cli`` before this module touches it.
"""

from __future__ import annotations

from perfbench.tracing import Span, call_counts, inclusive_totals, layer_rows

#: The root span of one timed pass; its self time is ``unattributed_s``.
ROOT = "pass"

#: Per-layer metrics in print order: name -> unit.  Times and counts are
#: per traced pass (mean over the traced passes), ratios are over all
#: traced passes, ``store.bytes`` is the store's size at the end, and the
#: ``service.*`` and ``cluster.rerouted_jobs`` counters cover the whole
#: run (read from the shards' ``metrics`` op and the router after it).
PER_LAYER = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "trace.columns_s": "s",
    "trace.columns_calls": "count",
    "catalog.build_trace_s": "s",
    "catalog.generations": "count",
    "catalog.store_loads": "count",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hit_ratio": "ratio",
    "store.bytes": "bytes",
    "precompute.trace_plane_s": "s",
    "precompute.trace_plane_calls": "count",
    "precompute.vtage_plane_s": "s",
    "precompute.vtage_plane_calls": "count",
    "ckernel.try_run_s": "s",
    "fastsim.try_run_s": "s",
    "fastsim.fast_share": "ratio",
    "fastsim.fallbacks": "count",
    "core.simulate_s": "s",
    "core.reference_self_s": "s",
    "job.execute_s": "s",
    "job.count": "count",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hit_ratio": "ratio",
    "executors.run_s": "s",
    "cluster.route_s": "s",
    "client.submit_s": "s",
    "cluster.rerouted_jobs": "count",
    "service.cache_hit_ratio": "ratio",
    "service.executed": "count",
    "service.coalesced": "count",
    "service.rejected": "count",
    "service.requeued": "count",
    "service.timeouts": "count",
    "service.errors": "count",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "tracing_overhead_s": "s",
    "check.build_trace_diff_s": "s",
    "check.columns_diff_s": "s",
    "check.kernel_c_diff_s": "s",
}

#: Wrapper-total vs program-phase pairs for the ``--profile`` cross-check.
PROFILE_CHECKS = (
    ("check.build_trace_diff_s", "catalog.build_trace", "trace-build"),
    ("check.columns_diff_s", "trace.columns", "trace-columnize"),
    ("check.kernel_c_diff_s", "ckernel.try_run", "kernel-c"),
)


def install(tracer) -> None:
    """Wrap each layer's public functions where their callers look them up.

    ``execute_job`` is wrapped on the executors module and
    ``trace_plane``/``vtage_plane`` on the fastsim module, because those
    modules imported the names; ``build_trace``, ``fastsim.try_run`` and
    ``ckernel.try_run`` are looked up on their own modules at call time.
    """
    from repro.engine import api, cache, client, cluster, executors
    from repro.isa import trace
    from repro.pipeline import ckernel, core, fastsim
    from repro.workloads import catalog, store

    def hits(prefix: str):
        return lambda result: tracer.count(
            f"{prefix}.hit" if result is not None else f"{prefix}.miss")

    wrap = tracer.wrap
    wrap(trace.Trace, "columns", "trace.columns")
    wrap(catalog, "build_trace", "catalog.build_trace")
    wrap(store.TraceStore, "get", "store.get", hits("store"))
    wrap(store.TraceStore, "get_aux", "store.get_aux", hits("store"))
    wrap(store.TraceStore, "put", "store.put")
    wrap(store.TraceStore, "put_aux", "store.put_aux")
    wrap(fastsim, "trace_plane", "precompute.trace_plane")
    wrap(fastsim, "vtage_plane", "precompute.vtage_plane")
    wrap(ckernel, "try_run", "ckernel.try_run")
    wrap(fastsim, "try_run", "fastsim.try_run", hits("fastsim"))
    wrap(core.CoreModel, "run", "core.simulate")
    wrap(executors, "execute_job", "job.execute")
    wrap(cache.ResultCache, "get", "cache.get", hits("cache"))
    wrap(cache.ResultCache, "put", "cache.put")
    wrap(executors.SerialExecutor, "run", "executors.run")
    wrap(executors.PoolExecutor, "run", "executors.run")
    wrap(api.Engine, "run_jobs", "engine.run_jobs")
    wrap(cluster.ShardRouter, "run_jobs", "cluster.run_jobs")
    wrap(cluster.ShardRouter, "route", "cluster.route")
    wrap(client.ServiceClient, "submit", "client.submit")


def program_counters() -> dict[str, int]:
    """The program's own process-local counters that the metrics use."""
    from repro.pipeline.fastsim import fallback_stats
    from repro.workloads.catalog import trace_cache_stats

    stats = trace_cache_stats()
    return {
        "generations": stats["generations"],
        "store_loads": stats["store_loads"],
        "fallbacks": sum(fallback_stats().values()),
    }


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counters: dict, profile: dict, *,
                  passes: int, untraced_wall: float, cli: dict,
                  store_bytes: int, service: dict,
                  rerouted: int) -> dict[str, float]:
    """Turn one traced run's records into the :data:`PER_LAYER` values.

    *spans*, *counters* (wrapper outcomes, plus the program's own counter
    deltas under ``program.*``) and *profile* (``profiling.snapshot()``
    seconds per phase) cover the traced passes only; *untraced_wall* is
    the mean untraced pass wall.
    """
    program = {key[len("program."):]: value for key, value in counters.items()
               if key.startswith("program.")}
    total = inclusive_totals(spans)
    calls = call_counts(spans)
    rows, unattributed, wall = layer_rows(spans, ROOT)
    per = 1.0 / passes

    def t(name: str) -> float:
        return total.get(name, 0.0) * per

    traced_wall = wall * per
    store_lookups = counters.get("store.hit", 0) + counters.get("store.miss", 0)
    cache_lookups = counters.get("cache.hit", 0) + counters.get("cache.miss", 0)
    values = {
        "cli.interp_s": cli["interp_s"],
        "cli.import_s": cli["import_s"],
        "trace.columns_s": t("trace.columns"),
        "trace.columns_calls": calls.get("trace.columns", 0) * per,
        "catalog.build_trace_s": t("catalog.build_trace"),
        "catalog.generations": program.get("generations", 0) * per,
        "catalog.store_loads": program.get("store_loads", 0) * per,
        "store.get_s": t("store.get") + t("store.get_aux"),
        "store.put_s": t("store.put") + t("store.put_aux"),
        "store.hit_ratio": _ratio(counters.get("store.hit", 0), store_lookups),
        "store.bytes": store_bytes,
        "precompute.trace_plane_s": t("precompute.trace_plane"),
        "precompute.trace_plane_calls":
            calls.get("precompute.trace_plane", 0) * per,
        "precompute.vtage_plane_s": t("precompute.vtage_plane"),
        "precompute.vtage_plane_calls":
            calls.get("precompute.vtage_plane", 0) * per,
        "ckernel.try_run_s": t("ckernel.try_run"),
        "fastsim.try_run_s": t("fastsim.try_run"),
        "fastsim.fast_share": _ratio(counters.get("fastsim.hit", 0),
                                     calls.get("core.simulate", 0)),
        "fastsim.fallbacks": program.get("fallbacks", 0) * per,
        "core.simulate_s": t("core.simulate"),
        "core.reference_self_s": rows.get("core.simulate", 0.0) * per,
        "job.execute_s": t("job.execute"),
        "job.count": calls.get("job.execute", 0) * per,
        "cache.get_s": t("cache.get"),
        "cache.put_s": t("cache.put"),
        "cache.hit_ratio": _ratio(counters.get("cache.hit", 0), cache_lookups),
        "executors.run_s": t("executors.run"),
        "cluster.route_s": t("cluster.route"),
        "client.submit_s": t("client.submit"),
        "cluster.rerouted_jobs": rerouted,
        "service.cache_hit_ratio": service.get("cache_hit_ratio", 0.0),
        "service.executed": service.get("executed", 0),
        "service.coalesced": service.get("coalesced", 0),
        "service.rejected": service.get("rejected", 0),
        "service.requeued": service.get("requeued", 0),
        "service.timeouts": service.get("timeouts", 0),
        "service.errors": service.get("errors", 0),
        "unattributed_s": unattributed * per,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "tracing_overhead_s": traced_wall - untraced_wall,
    }
    for metric, span_name, phase in PROFILE_CHECKS:
        values[metric] = t(span_name) - profile.get(phase, 0.0) * per
    return values

