"""Fast-path dispatch: the compiled kernel or the sequential model.

Two cycle loops exist.  :meth:`repro.pipeline.core.CoreModel._run` is the
reference and the only fallback; the compiled kernel
(:mod:`repro.pipeline.ckernel`) is the only fast path.  The kernel
consumes the per-trace :class:`~repro.pipeline.precompute.TracePlane`
(branch redirect codes, folded history, scrambled predictor keys) instead
of running the branch unit per µop, and inlines the supported value
predictors over flat copies of their tables.

:func:`try_run` decides, in order and before any plane is built:

* the static half, :func:`fallback_reason` — predictor family and
  branch-unit state;
* the kernel's cheap checks, :func:`ckernel.ineligible` — library loaded,
  fresh memory and store sets, address range, register and sequence
  bounds, confidence policy.

Every decline (including a late error return from the C call) records
exactly one structured reason with :func:`record_fallback` and returns
``None``; the caller then runs the sequential model.  Supported results
are bit-identical to ``_run`` (pinned by the golden grid run in both modes
and the equivalence tests).

Environment knobs:

* ``REPRO_FAST_SIM=0`` — disable the kernel entirely (sequential loop).
* ``REPRO_FAST_SIM=require`` — raise :class:`FastPathRequired` instead of
  silently falling back (perf runs that must not quietly degrade).
"""

from __future__ import annotations

import os

from repro.core.vtage import VTAGEPredictor
from repro.pipeline import ckernel
from repro.pipeline.ckernel import P_LVP, P_NONE, P_ORACLE, P_STRIDE, P_VTAGE
from repro.pipeline.precompute import (
    apply_branch_state,
    default_branch_state,
    trace_plane,
    vtage_plane,
)
from repro.pipeline.result import SimResult
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.stride import StridePredictor, TwoDeltaStridePredictor
from repro.util import profiling

#: Master switch for the compiled kernel (``0`` = sequential model).
FAST_SIM_ENV = "REPRO_FAST_SIM"


def fast_sim_mode() -> str:
    """The requested fast-path policy: ``"off"`` (``REPRO_FAST_SIM=0``),
    ``"require"`` (fall-backs raise :class:`FastPathRequired` instead of
    silently degrading) or ``"on"`` (fall back quietly, the default)."""
    raw = os.environ.get(FAST_SIM_ENV, "").strip().lower()
    if raw == "0":
        return "off"
    if raw == "require":
        return "require"
    return "on"


def fast_sim_enabled() -> bool:
    return fast_sim_mode() != "off"


class FastPathRequired(RuntimeError):
    """Raised under ``REPRO_FAST_SIM=require`` when a run would silently
    fall back to the sequential model.  The message carries the structured
    fallback reason (the same string :func:`fallback_stats` counts)."""

    def __init__(self, reason: str):
        super().__init__(
            f"REPRO_FAST_SIM=require but the fast path fell back: {reason}")
        self.reason = reason


# Per-process structured fallback counters: reason -> count.  Every run
# that bypasses the kernel records exactly one reason here; the CLI's
# ``--profile`` output surfaces them so a silently-degraded run is visible
# in the same place its timing is.  Pool-backend workers keep their own
# counters (same per-process scope as the profiling registry).
_FALLBACKS: dict[str, int] = {}
_LAST_FALLBACK: str | None = None


def record_fallback(reason: str) -> None:
    """Count one sequential-model fallback under a structured *reason*."""
    global _LAST_FALLBACK
    _FALLBACKS[reason] = _FALLBACKS.get(reason, 0) + 1
    _LAST_FALLBACK = reason


def fallback_stats() -> dict[str, int]:
    """Reason -> count of fast-path fallbacks in this process."""
    return dict(_FALLBACKS)


def last_fallback() -> str | None:
    """The most recent fallback reason, or ``None``."""
    return _LAST_FALLBACK


def reset_fallback_stats() -> None:
    global _LAST_FALLBACK
    _FALLBACKS.clear()
    _LAST_FALLBACK = None


def fallback_reason(model) -> str | None:
    """Why *model* would bypass the kernel, or ``None`` when eligible.

    This is the static half of the dispatch decision (predictor family,
    branch-unit state).  :func:`try_run` adds the kernel's trace and state
    checks; ``CoreModel.run`` reports ``REPRO_FAST_SIM=0`` and a
    stage-trace hook itself.
    """
    if _classify(model.predictor) is None:
        return f"unsupported-predictor:{type(model.predictor).__name__}"
    if not default_branch_state(model):
        return "non-default-branch-state"
    return None


def kernel_mode() -> str:
    """Which loop eligible configs take in this process: ``"c"`` (the
    compiled kernel) or ``"off"`` (the sequential model, because of
    ``REPRO_FAST_SIM=0`` or no usable C toolchain).  Shown by
    ``--profile`` so a timing report names the path it measured."""
    if fast_sim_enabled() and ckernel.kernel_available():
        return "c"
    return "off"


def _classify(predictor) -> int | None:
    """Supported predictor family of *predictor*, or None (fall back).

    Exact-type checks on purpose: subclasses (e.g. PerPathStridePredictor
    under TwoDeltaStridePredictor) may override the indexing the plane
    precomputed.
    """
    if predictor is None:
        return P_NONE
    kind = type(predictor)
    if kind is OraclePredictor:
        return P_ORACLE
    if kind is LastValuePredictor:
        return P_LVP
    if kind is StridePredictor or kind is TwoDeltaStridePredictor:
        return P_STRIDE
    if kind is VTAGEPredictor:
        return P_VTAGE
    return None


def try_run(model, trace, warmup: int, workload: str | None) -> SimResult | None:
    """Run *trace* through the compiled kernel, or record why not and
    return ``None`` so the caller runs the sequential model.

    The caller (``CoreModel.run``) owns the gc pause and profiling phase.
    """
    ptype = _classify(model.predictor)
    reason = fallback_reason(model) or ckernel.ineligible(model, trace, ptype)
    if reason is not None:
        record_fallback(reason)
        return None
    plane = trace_plane(trace)
    vplane = vtage_plane(trace, model.predictor) if ptype == P_VTAGE else None
    with profiling.phase("kernel-c"):
        result = ckernel.try_run(
            model, trace, warmup, workload, ptype, plane, vplane
        )
    if result is None:
        record_fallback("kernel-error")
        return None
    apply_branch_state(model, plane)
    return result
