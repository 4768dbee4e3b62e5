"""Unit tests of the benchmark's own machinery (no simulation runs)."""

from __future__ import annotations

import itertools
import json
import re
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import gate, layers, run, workloads  # noqa: E402
from perfbench.tracing import Span, Tracer, layer_rows, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- declared metric names ---------------------------------------------------


def test_printed_metric_names_are_declared_with_their_units():
    spec = _declared()
    end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end == run.END_TO_END
    assert per == layers.PER_LAYER
    for name in [*end, *per]:
        assert NAME.match(name) and len(name) <= 64, name


def test_declared_workloads_are_the_runnable_ones():
    names = [w["name"] for w in _declared()["workloads"]]
    assert names == list(workloads.WORKLOADS)


# -- generators --------------------------------------------------------------


def test_run_warm_plan_is_deterministic_and_extends():
    size = workloads.FULL
    plan = workloads.run_warm_plan(1, size, 4)
    assert plan == workloads.run_warm_plan(1, size, 4)
    assert workloads.run_warm_plan(1, size, 2) == plan[:2]
    assert plan != workloads.run_warm_plan(2, size, 4)
    assert len({w for w, _ in plan[0]}) == size.run_warm_workloads
    assert all({w for w, _ in p} == {w for w, _ in plan[0]} for p in plan)
    assert {p for pairs in plan for _, p in pairs} <= set(workloads.RUN_WARM_PREDICTORS)


def test_sweep_generators_are_deterministic():
    size = workloads.FULL
    assert workloads.sweep_cold_plan(3, size) == workloads.sweep_cold_plan(3, size)
    assert workloads.sweep_cold_plan(3, size) != workloads.sweep_cold_plan(4, size)


def test_serve_mixed_plan_is_deterministic_and_about_half_repeats():
    size = workloads.FULL

    def first(seed, n):
        return list(itertools.islice(
            workloads.serve_mixed_plan(seed, size)["batches"], n))

    batches = first(5, 60)
    assert batches == first(5, 60)
    assert first(6, 60) != batches
    seen, repeats, total = set(), 0, 0
    for batch in batches:
        assert len(batch) == size.serve_batch
        assert len(set(batch)) == len(batch)
        for job in batch:
            repeats += job in seen
            total += 1
            seen.add(job)
    assert 0.35 < repeats / total < 0.65


# -- span arithmetic ---------------------------------------------------------


def _tree() -> list[Span]:
    return [
        Span(0, "pass", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 2.0, 3.0, 1, 0),
        Span(3, "c", 5.0, 9.0, 0, 0),
    ]


def test_self_time_is_duration_minus_children():
    own = self_times(_tree())
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_rows_and_unattributed_sum_to_the_wall():
    rows, unattributed, wall = layer_rows(_tree(), "pass")
    assert rows == pytest.approx({"a": 2.0, "b": 1.0, "c": 4.0})
    assert unattributed == pytest.approx(3.0)
    assert sum(rows.values()) + unattributed == pytest.approx(wall) == 10.0


def test_overlapping_siblings_split_the_overlap():
    spans = [Span(0, "pass", 0.0, 10.0, None, 0),
             Span(1, "x", 1.0, 5.0, 0, 0),
             Span(2, "y", 3.0, 7.0, 0, 0)]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 3.0, 2: 3.0})
    rows, unattributed, wall = layer_rows(spans, "pass")
    assert sum(rows.values()) + unattributed == pytest.approx(wall)


# -- tracer ------------------------------------------------------------------


class _Thing:
    def work(self, n):
        return self.inner(n) if n else None

    def inner(self, n):
        return n + 1


def test_wrappers_record_nesting_and_unwrap():
    tracer = Tracer()
    original = _Thing.__dict__["work"]
    tracer.wrap(_Thing, "work", "thing.work", lambda r: tracer.count(
        "hit" if r is not None else "miss"))
    tracer.wrap(_Thing, "inner", "thing.inner")
    with tracer.span("pass"):
        assert _Thing().work(1) == 2
        assert _Thing().work(0) is None
    tracer.unwrap_all()
    assert _Thing.__dict__["work"] is original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    root = by_name["pass"][0]
    assert len(by_name["thing.work"]) == 2
    assert all(s.parent == root.id for s in by_name["thing.work"])
    assert by_name["thing.inner"][0].parent == by_name["thing.work"][0].id
    assert dict(tracer.counters) == {"hit": 1, "miss": 1}


def test_same_name_nesting_is_recorded_once():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("outer"):
            pass
    assert [s.name for s in tracer.spans] == ["outer"]


def test_thread_spans_hang_under_the_main_threads_open_span():
    tracer = Tracer()

    def submit():
        with tracer.span("submit"):
            pass

    with tracer.span("request"):
        worker = threading.Thread(target=submit)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    spans = {s.name: s for s in tracer.spans}
    assert spans["submit"].parent == spans["request"].id


# -- gate helpers ------------------------------------------------------------


def test_digest_ignores_order():
    assert gate.digest(["b", "a"]) == gate.digest(["a", "b"])
    assert gate.digest(["a"]) != gate.digest(["b"])


def test_percentile_stays_inside_the_sample():
    assert run.percentile([1.0], 90) == 1.0
    assert 1.0 <= run.percentile([1.0, 2.0, 3.0], 90) <= 3.0
