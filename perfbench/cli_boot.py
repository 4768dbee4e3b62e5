"""Traced stand-in for ``python -m repro.cli``.

Run as ``python perfbench/cli_boot.py SPANS_JSON <repro.cli argv...>``.  It
times ``import repro.cli``, installs the layer wrappers, turns on the
program's own phase profiling, calls ``repro.cli.main(argv)`` and writes
the recorded spans, counters and profiling snapshot to ``SPANS_JSON``.
The parent benchmark grafts those spans under the invocation's span.
"""

from __future__ import annotations

import json
import os
import sys


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    # The benchmark package sits next to this file's directory.
    sys.path.insert(1, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench import layers
    from perfbench.tracing import Tracer

    tracer = Tracer()
    with tracer.span("cli.import"):
        import repro.cli
    from repro.util import profiling

    before = layers.program_counters()
    layers.install(tracer)
    profiling.enable()
    try:
        with tracer.span("cli.main"):
            code = repro.cli.main(argv)
    finally:
        profiling.disable()
        tracer.unwrap_all()
    spans = [[s.name, s.start, s.end, s.id, s.parent] for s in tracer.spans]
    delta = layers.counter_delta(before, layers.program_counters())
    for key, value in delta.items():
        tracer.count(f"program.{key}", value)
    payload = {
        "spans": spans,
        "counters": dict(tracer.counters),
        "profile": {name: row["seconds"]
                    for name, row in profiling.snapshot().items()},
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
