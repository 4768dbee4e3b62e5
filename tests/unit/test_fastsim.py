"""The compiled kernel is a drop-in replacement for the reference model.

Two implementations of the same scheduler exist: the sequential
``CoreModel._run`` (the reference, and the only fallback) and the compiled
kernel (``pipeline/ckernel.py``).  Selection is environment-driven
(``REPRO_FAST_SIM``), so these tests run the *same* configuration under
both modes and require dataclass-equal results — the tier-1 complement to
the full golden grid, which CI also replays per mode.  Fallback rules
(unsupported predictor families, pre-warmed state, traces the kernel
cannot represent, no C toolchain) are pinned here too: every decline must
produce the reference answer, record one structured reason, and raise
under ``REPRO_FAST_SIM=require`` — never a wrong fast answer.
"""

import pytest

from repro.experiments.runner import make_predictor
from repro.pipeline import ckernel, fastsim
from repro.pipeline.config import CoreConfig, RecoveryMode
from repro.pipeline.core import CoreModel, simulate
from repro.workloads.builder import TraceBuilder
from repro.workloads.catalog import build_trace

_N = 4000
_WARMUP = 1000

#: (workload, predictor name, recovery) triples covering every family the
#: kernel inlines — LVP, stride, 2Δ-stride, VTAGE, oracle, no-VP — and
#: both recovery mechanisms.
_CONFIGS = (
    ("gcc", "vtage", "squash"),
    ("gcc", "vtage", "reissue"),
    ("wupwise", "2dstride", "squash"),
    ("gzip", "stride", "reissue"),
    ("crafty", "lvp", "squash"),
    ("milc", "oracle", "squash"),
    ("h264ref", "none", "squash"),
)

_MODES = ("legacy", "kernel")


def _set_mode(monkeypatch, mode: str) -> None:
    if mode == "legacy":
        monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    else:
        monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)


def _run(workload: str, predictor_name: str, recovery: str):
    trace = build_trace(workload, _N + _WARMUP)
    predictor = make_predictor(predictor_name, recovery=recovery)
    config = CoreConfig(recovery=RecoveryMode(recovery))
    return simulate(trace, predictor, config=config, warmup=_WARMUP,
                    workload=workload)


@pytest.mark.parametrize("workload,predictor_name,recovery", _CONFIGS)
def test_modes_bit_identical(monkeypatch, workload, predictor_name, recovery):
    """legacy / kernel produce dataclass-equal results."""
    results = {}
    for mode in _MODES:
        _set_mode(monkeypatch, mode)
        results[mode] = _run(workload, predictor_name, recovery)
    assert results["kernel"] == results["legacy"]


def test_unsupported_predictor_falls_back(monkeypatch):
    """Hybrids are outside the inlined families: try_run declines."""
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    trace = build_trace("gcc", 2000)
    model = CoreModel(predictor=make_predictor("vtage-2dstride"))
    assert fastsim._classify(model.predictor) is None
    assert fastsim.try_run(model, trace, 0, "gcc") is None


def test_prewarmed_branch_unit_falls_back(monkeypatch):
    """The plane assumes a fresh branch unit; warmed state declines."""
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    trace = build_trace("gcc", 2000)
    model = CoreModel(predictor=None)
    model.branch_unit.process_scalar(8, 0x400, True, 0x440)
    assert fastsim.try_run(model, trace, 0, "gcc") is None


# -- kernel declines: reference result, one reason, loud under require -------


def _far_address_trace():
    """Loads above the kernel's 2**62 address limit (ingested traces
    synthesise such addresses)."""
    builder = TraceBuilder("far-addresses", seed=3)
    for i in range(1500):
        builder.alu(f"op{i % 31}", f"v{i % 5}", [f"v{(i + 1) % 5}"], i)
        if i % 4 == 0:
            builder.load(f"ld{i % 13}", f"v{i % 5}",
                         (1 << 63) + 64 * (i % 97), i * 7)
    return builder.trace


def _prewarm_memory(model) -> None:
    for i in range(64):
        model.memory.load(0x400, 0x10000 + 64 * i, i)


#: (id, trace factory, model preparation, expected fallback reason)
_DECLINES = (
    ("no-toolchain", lambda: build_trace("gcc", 2000), None,
     "kernel-unavailable"),
    ("prewarmed-memory", lambda: build_trace("gcc", 2000), _prewarm_memory,
     "kernel-ineligible:memory"),
    ("address-range", _far_address_trace, None,
     "kernel-ineligible:address-range"),
)


@pytest.mark.parametrize("make_trace,prepare,reason",
                         [case[1:] for case in _DECLINES],
                         ids=[case[0] for case in _DECLINES])
def test_kernel_decline_runs_reference_model(monkeypatch, make_trace,
                                             prepare, reason):
    if reason == "kernel-unavailable":
        monkeypatch.setattr(ckernel, "_load", lambda: None)
    elif not ckernel.kernel_available():
        pytest.skip("no C toolchain: every run declines as unavailable")
    trace = make_trace()

    def run():
        model = CoreModel(predictor=make_predictor("vtage"))
        if prepare is not None:
            prepare(model)
        return model.run(trace, warmup=200, workload="decline")

    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    reference = run()
    monkeypatch.delenv(fastsim.FAST_SIM_ENV)
    fastsim.reset_fallback_stats()
    try:
        assert run() == reference
        assert fastsim.fallback_stats() == {reason: 1}
        monkeypatch.setenv(fastsim.FAST_SIM_ENV, "require")
        with pytest.raises(fastsim.FastPathRequired) as excinfo:
            run()
        assert excinfo.value.reason == reason
    finally:
        fastsim.reset_fallback_stats()


def test_kernel_mode_reports_selected_path(monkeypatch):
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    assert fastsim.kernel_mode() == "off"
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    expected = "c" if ckernel.kernel_available() else "off"
    assert fastsim.kernel_mode() == expected
    monkeypatch.setattr(ckernel, "_load", lambda: None)
    assert fastsim.kernel_mode() == "off"


def test_compiled_kernel_actually_runs(monkeypatch):
    """When a C toolchain exists, the kernel must not decline a supported
    config (that would silently run the much slower reference model)."""
    if not ckernel.kernel_available():
        pytest.skip("no C toolchain: compiled kernel unavailable")
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    trace = build_trace("gcc", 3000)
    model = CoreModel(predictor=make_predictor("vtage"))
    assert ckernel.ineligible(model, trace, ckernel.P_VTAGE) is None
    from repro.pipeline.precompute import trace_plane, vtage_plane

    plane = trace_plane(trace)
    vplane = vtage_plane(trace, model.predictor)
    result = ckernel.try_run(model, trace, 500, "gcc", ckernel.P_VTAGE,
                             plane, vplane)
    assert result is not None
    assert result.cycles > 0
