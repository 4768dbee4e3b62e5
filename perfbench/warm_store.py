"""Warm a trace store: build each trace and its precompute plane once.

Run as a child process during benchmark set-up, with ``REPRO_TRACE_DIR``
naming the store::

    python perfbench/warm_store.py --workloads gcc,mcf --uops 48000 [--seed N]

Every trace is built through the catalog (which persists it to the store)
and its trace plane through the precompute layer (which persists it as an
aux payload), so a later process loads both instead of rebuilding them.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--uops", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    from repro.pipeline.precompute import trace_plane
    from repro.workloads.catalog import build_trace, clear_trace_cache

    for name in args.workloads.split(","):
        trace_plane(build_trace(name, args.uops, seed=args.seed))
        clear_trace_cache()
    return 0


if __name__ == "__main__":
    sys.exit(main())
