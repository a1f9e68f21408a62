#!/usr/bin/env python3
"""Compare fresh BENCH_*.json runs against committed baselines.

Usage: perf_compare.py BASELINE.json CURRENT.json [BASELINE.json CURRENT.json ...]

Takes one or more baseline/current pairs and prints a single merged
delta table covering every metric each pair shares.  When more than one
pair is given, metric names are prefixed with the bench name so rows
from different benches stay distinguishable.  Rate metrics (unit ends in
"/s", e.g. the simulator's sim_cycles/s and the net layer's req/s)
improve upward; time metrics (ns, ms) improve downward.

Deltas are informational: CI runners have wildly variable machines, so
they flag *suspicious* regressions for a human to re-measure locally
(see docs/EXPERIMENTS.md), they do not gate merges.  A MISSING or
unreadable file is a hard error (exit 1), though — a bench that crashed
before writing its JSON, or a baseline someone forgot to commit, must
not silently pass as "no shared metrics".

Comparing numbers produced by different execution engines is apples to
oranges (the threaded engine is faster than the interpreter by design),
so a pair whose "engine" fields disagree is also a hard error.  Reports predating the
field count as "interp".
"""

import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"perf_compare: cannot read {path}: {err}")
    return (doc.get("bench", path), doc.get("engine", "interp"),
            {m["name"]: m for m in doc.get("metrics", [])})


def main():
    argv = sys.argv[1:]
    if not argv or len(argv) % 2 != 0:
        print(__doc__)
        return 0 if not argv else 1
    pairs = [(argv[i], argv[i + 1]) for i in range(0, len(argv), 2)]

    # Collect rows across all pairs first so one table, one width.
    rows = []  # (display name, baseline value, current value, unit)
    for base_path, cur_path in pairs:
        bench, base_engine, base = load(base_path)
        _, cur_engine, cur = load(cur_path)
        if base_engine != cur_engine:
            sys.exit(f"perf_compare: engine mismatch for {bench}: "
                     f"{base_path} was measured on '{base_engine}' but "
                     f"{cur_path} on '{cur_engine}' — rerun the bench with "
                     f"--engine={base_engine} (or refresh the baseline).")
        shared = [n for n in base if n in cur]
        if not shared:
            print(f"no shared metrics between {base_path} and {cur_path}")
            continue
        for name in shared:
            display = f"{bench}.{name}" if len(pairs) > 1 else name
            rows.append((display, base[name]["value"], cur[name]["value"],
                         base[name].get("unit", "")))
    if not rows:
        print("no shared metrics in any baseline/current pair")
        return 0

    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'baseline':>14}  {'current':>14}  delta")
    worst = None
    for name, b, c, unit in rows:
        if b == 0 or c == 0:
            continue
        higher_is_better = unit.endswith("/s")
        ratio = c / b if higher_is_better else b / c
        sign = "+" if ratio >= 1 else ""
        pct = (ratio - 1) * 100
        print(f"{name:<{width}}  {b:>14.4g}  {c:>14.4g}  "
              f"{sign}{pct:.1f}% {'faster' if pct >= 0 else 'slower'}")
        if worst is None or ratio < worst[1]:
            worst = (name, ratio)
    if worst and worst[1] < 0.8:
        print(f"\nNOTE: {worst[0]} is {(1 - worst[1]) * 100:.0f}% slower than "
              "the committed baseline. CI timing is noisy — re-measure "
              "locally before concluding anything (docs/EXPERIMENTS.md).")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
