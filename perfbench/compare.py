"""Compare benchmark results of two commits, metric by metric.

    python3 perfbench/compare.py PARENT.json... -- CHANGE.json...

Each file holds one result line as ``run.py`` prints it (or a run record
from ``perfbench/out/``).  Files pair up in the order given, so pass the
same seeds in the same order on both sides.  For each metric this prints
both sides' median and quartiles, the parent's spread (IQR / median), the
change in the median, and how many pairs the change won.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:  # captured stdout: the result is the last line
        data = json.loads(text.strip().splitlines()[-1])
    return data.get("result", data)


def _better() -> dict:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent = [_load(p) for p in argv[:cut]]
    change = [_load(p) for p in argv[cut + 1 :]]
    if not parent or len(parent) != len(change):
        print("need the same number (> 0) of files on both sides", file=sys.stderr)
        return 2
    declared = _better()
    for side, results in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{side}: {failed}/{attempted} operations failed, "
              f"correct={all(r['correct'] for r in results)}")
    print(f"{'metric':30s} {'parent p50':>12s} {'change p50':>12s} {'delta':>8s} "
          f"{'parent iqr':>10s} {'wins':>6s} {'bound':>6s}")
    for name in parent[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        lower = declared.get(name, {}).get("better", "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        pq1, pmed, pq3 = _quartiles(a)
        _, cmed, _ = _quartiles(b)
        delta = (cmed - pmed) / pmed if pmed else float("nan")
        iqr = (pq3 - pq1) / pmed if pmed else float("nan")
        bound = declared.get(name, {}).get("bound")
        print(f"{name:30s} {pmed:12.5g} {cmed:12.5g} {delta:+8.1%} {iqr:10.1%} "
              f"{wins:3d}/{len(a):<2d} {'' if bound is None else format(bound, '.2f'):>6s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
