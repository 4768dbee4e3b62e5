"""Compare ``perfbench/run.py --out`` reports of two commits.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Prints, per metric, each side's median and quartiles and the new median
as a share of the base median.  Refuses (exit 2) to compare reports whose
workload, seed, trace flag, size or simulation mode differ: a kernel-c run
and a legacy run measure different loops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

#: Report fields that must agree across every compared report.
SAME = ("workload", "seed", "trace", "size")


def _identity(report: dict) -> tuple:
    return tuple(report[key] for key in SAME) + (
        report["provenance"]["simulation_mode"],)


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [json.load(open(path)) for path in args.base]
    new = [json.load(open(path)) for path in args.new]
    identities = {_identity(r) for r in base + new}
    if len(identities) != 1:
        fields = ", ".join(SAME + ("simulation_mode",))
        print(f"refusing to compare: reports differ in ({fields}): "
              f"{sorted(identities)}", file=sys.stderr)
        return 2
    digests = {r["results_digest"] for r in base + new}
    if len(digests) != 1:
        print(f"note: results_digest differs: {sorted(digests)}")
    print(f"{'metric':<30} {'base q1/median/q3':>32} {'unit':>6} "
          f"{'new q1/median/q3':>32} {'new/base':>9}")
    for name, meta in base[0]["metrics"].items():
        b = _summary([r["metrics"][name]["value"] for r in base])
        n = _summary([r["metrics"][name]["value"] for r in new])
        share = f"{n[1] / b[1]:.3f}" if b[1] else "-"
        print(f"{name:<30} {b[0]:>10.4g} {b[1]:>10.4g} {b[2]:>10.4g} "
              f"{meta['unit']:>6} {n[0]:>10.4g} {n[1]:>10.4g} {n[2]:>10.4g} "
              f"{share:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
