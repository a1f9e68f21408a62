#!/usr/bin/env python3
"""Gate the automatic mapper's quality and solve-time budgets.

Usage: check_mapper_gate.py CURRENT.json [BASELINE.json]
           [--budget-exact=2500] [--budget-anneal=700] [--slack=2.0]

CURRENT.json is a fresh BENCH_mapper.json.  Three acceptance criteria,
all measured in the SAME run so they are independent of how fast the
host happens to be:

  * quality vs the paper: worst_mapped_vs_manual <= 1.0 — on every
    Table-4 budget the exact mapper re-derives or beats the paper's
    hand mapping.  This is the headline claim, not a trend.
  * solver agreement: worst_anneal_vs_exact <= 1.05 — wherever the
    exact proof completes, annealing lands within 5%.
  * solve time: {exact,anneal}_solve_ms_total divided by the run's own
    calibration_ms (a fixed count of cost-model evaluations) must stay
    under its budget.  The ratio cancels machine speed: a slow CI box
    scales numerator and denominator alike.

When a committed BASELINE.json is given, the current solve ratios must
also stay within `slack` x the baseline's ratios, pinning the gate to
the repo's committed reference point.  A miss exits 1: these are
acceptance criteria, not trends to eyeball (perf_compare.py handles
those).
"""

import json
import sys

QUALITY = [
    ("worst_mapped_vs_manual", 1.0 + 1e-9),
    ("worst_anneal_vs_exact", 1.05),
]
SOLVE = [("exact_solve_ms_total", "budget-exact"),
         ("anneal_solve_ms_total", "budget-anneal")]
CALIBRATION = "calibration_ms"


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_mapper_gate: cannot read {path}: {err}")
    return {m["name"]: m["value"] for m in doc.get("metrics", [])}


def metric(metrics, name, path):
    if name not in metrics or metrics[name] <= 0:
        sys.exit(f"check_mapper_gate: {path} has no usable '{name}' "
                 "(did the bench crash before writing it?)")
    return metrics[name]


def main():
    budgets = {"budget-exact": 2500.0, "budget-anneal": 700.0}
    slack = 2.0
    paths = []
    for arg in sys.argv[1:]:
        if arg.startswith("--budget-exact="):
            budgets["budget-exact"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--budget-anneal="):
            budgets["budget-anneal"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--slack="):
            slack = float(arg.split("=", 1)[1])
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            paths.append(arg)
    if not paths or len(paths) > 2:
        print(__doc__)
        return 1

    cur = load(paths[0])
    base = load(paths[1]) if len(paths) == 2 else None
    ok = True

    for name, bar in QUALITY:
        # worst_* may legitimately be 0.0 when no case contributed (e.g. no
        # completed proof), so read it directly rather than via metric().
        if name not in cur:
            sys.exit(f"check_mapper_gate: {paths[0]} has no '{name}'")
        value = cur[name]
        verdict = "ok" if value <= bar else "FAIL"
        print(f"  {name}: {value:.4f} (<= {bar:.4g})  [{verdict}]")
        ok &= value <= bar

    cal = metric(cur, CALIBRATION, paths[0])
    base_cal = metric(base, CALIBRATION, paths[1]) if base else None
    for name, budget_key in SOLVE:
        ratio = metric(cur, name, paths[0]) / cal
        budget = budgets[budget_key]
        verdict = "ok" if ratio <= budget else "FAIL"
        print(f"  {name}/{CALIBRATION}: {ratio:.1f} (<= {budget:.1f})  "
              f"[{verdict}]")
        ok &= ratio <= budget
        if base is not None:
            base_ratio = metric(base, name, paths[1]) / base_cal
            bar = slack * base_ratio
            verdict = "ok" if ratio <= bar else "FAIL"
            print(f"    vs committed baseline: {base_ratio:.1f} x "
                  f"{slack:.1f} = {bar:.1f}  [{verdict}]")
            ok &= ratio <= bar

    if not ok:
        print("\nmapper gate FAILED: the mapper no longer clears its "
              "quality or solve-time acceptance criteria; re-measure "
              "locally before suspecting the machine (docs/EXPERIMENTS.md).")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
