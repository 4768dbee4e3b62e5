"""The correctness gate behind ``failed`` and ``success_ratio``.

Every timed result is compared bit for bit (``SimResult.to_dict()``) with
the same job run in this process by a fresh serial engine, and a seeded
sample of the jobs is run again on the sequential reference model
(``REPRO_FAST_SIM=0``).  The gate stores no expected values: the program
at hand is its own reference, so a fidelity fix changes the digest, not
the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from contextlib import contextmanager

#: How many distinct jobs per run are re-run on the reference model.
REFERENCE_SAMPLE = 2


def digest(items: list[str]) -> str:
    """Hash of the sorted canonical result texts (order-independent)."""
    h = hashlib.sha256()
    for item in sorted(items):
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def canonical(result_dict: dict) -> str:
    return json.dumps(result_dict, sort_keys=True, separators=(",", ":"))


@contextmanager
def reference_model():
    """Force the sequential reference model for the ``with`` body."""
    from repro.pipeline.fastsim import FAST_SIM_ENV

    saved = os.environ.get(FAST_SIM_ENV)
    os.environ[FAST_SIM_ENV] = "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ[FAST_SIM_ENV]
        else:
            os.environ[FAST_SIM_ENV] = saved


def serial_results(jobs: list, done: dict | None = None) -> dict:
    """Serial-engine result dicts, keyed by content key, for the distinct
    *jobs* that *done* does not hold yet."""
    from repro.engine.api import Engine
    from repro.engine.cache import ResultCache
    from repro.engine.executors import SerialExecutor

    unique = {}
    for job in jobs:
        key = job.content_key()
        if not done or key not in done:
            unique.setdefault(key, job)
    keys = sorted(unique)
    engine = Engine(SerialExecutor(), ResultCache(None))
    return dict(zip(keys, (r.to_dict() for r in
                           engine.run_jobs([unique[k] for k in keys]))))


def reference_results(jobs: list, seed: int,
                      serial: dict | None = None) -> tuple[dict, dict]:
    """Serial-engine results for the distinct *jobs* (reusing *serial*),
    plus a seeded sample of them re-run on the reference model; both keyed
    by content key."""
    from repro.engine.job import execute_job

    serial = {**(serial or {}), **serial_results(jobs, serial)}
    unique = {job.content_key(): job for job in jobs}
    keys = sorted(unique)
    sample = random.Random(seed).sample(keys, min(REFERENCE_SAMPLE, len(keys)))
    with reference_model():
        legacy = {key: execute_job(unique[key]).to_dict() for key in sample}
    return serial, legacy


def check_results(observed: list[tuple], seed: int,
                  serial: dict | None = None) -> tuple[int, list[str]]:
    """Gate ``(job, result_dict)`` pairs; returns (failed jobs, problems).

    A job fails when its result differs from the serial engine's or, for
    the sampled jobs, from the reference model's.  *serial* holds serial
    results computed earlier (between passes).
    """
    serial, legacy = reference_results([job for job, _ in observed], seed,
                                       serial)
    failed = 0
    problems: list[str] = []
    for job, result in observed:
        key = job.content_key()
        bad = [name for name, ref in (("serial engine", serial),
                                      ("reference model", legacy))
               if key in ref and ref[key] != result]
        if bad:
            failed += 1
            if len(problems) < 5:
                problems.append(f"{job.label()}: differs from the "
                                f"{' and the '.join(bad)}")
    return failed, problems
