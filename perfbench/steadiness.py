#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, compared.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --seconds 20 [--workloads census match]

Each set makes ``--runs`` runs of ``perfbench/run.py --trace 0`` per
workload, with seeds 1..runs in the first set and runs+1..2*runs in the
second; runs of the two sets alternate, so drift of the host hits both.
For every pair of end-to-end metric and workload it prints both sets'
median and quartiles, their spreads (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), the spread of
both sets pooled, and a verdict against the metric's bound from
``BENCHMARK.json``:

* ``agree``: both spreads and the change between the medians are within
  the bound;
* ``unresolved``: a spread exceeds the bound, so the sets cannot show
  that the metric is unchanged;
* ``differ``: spreads are within the bound but the medians are not.

Job-class metrics (``motifs_s`` and the like) have no bound of their own
in ``BENCHMARK.json``; they are judged against the bound of ``mix_s``.
The raw wall times (``mix_wall_s``, ``setup_wall_s``) and the host-speed
factor (``host_speed``) are printed the same way for each set, marked
``diagnostic``: they show whether the two sets ran at the same host speed
and whether the unscaled figures agree too, and do not set the exit code.
The report is also written to ``perfbench/results/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, JOB_METRICS, RESULTS_DIR, ROOT

# Raw wall times and the host-speed factor: reported per set beside the
# scaled times, so that a verdict can be checked against the unscaled
# figures, but judged by no bound.
DIAGNOSTICS = ("mix_wall_s", "setup_wall_s", "host_speed")


def run_once(workload, seed, seconds):
    """One run; returns its end-to-end metrics (name -> value)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong outputs\n{proc.stderr}")
    record = json.loads((RESULTS_DIR / f"{workload}-s{seed}-t0.json").read_text())
    return {name: m["value"] for name, m in record["end_to_end"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def verdict(a, b, bound):
    change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    if max(a["spread"], b["spread"]) > bound:
        return change, "unresolved"
    return change, "agree" if abs(change) <= bound else "differ"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    RESULTS_DIR.mkdir(exist_ok=True)

    report = {}
    for workload in args.workloads:
        sets = ([], [])
        for i in range(args.runs):
            for which in (0, 1) if i % 2 == 0 else (1, 0):
                seed = 1 + i + which * args.runs
                sets[which].append(run_once(workload, seed, args.seconds))
                print(f"{workload} set {which + 1} seed {seed}: "
                      f"mix_s {sets[which][-1]['mix_s']:.4f}", file=sys.stderr)
        rows = {}
        for name in sets[0][0]:
            if name not in bounds and name not in JOB_METRICS + DIAGNOSTICS:
                continue  # error_rate
            bound = bounds.get(name, bounds["mix_s"])
            a = summary([r[name] for r in sets[0]])
            b = summary([r[name] for r in sets[1]])
            pooled = summary([r[name] for r in sets[0] + sets[1]])
            change, verdict_ = verdict(a, b, bound)
            if name in DIAGNOSTICS:
                verdict_ = f"diagnostic ({verdict_} at {bound})"
            rows[name] = {"set1": a, "set2": b, "pooled": pooled, "change": change,
                          "bound": bound, "verdict": verdict_}
            print(f"{workload:8s} {name:14s} set1 {a['median']:.4f} "
                  f"[{a['q1']:.4f}, {a['q3']:.4f}] spread {a['spread']:.3f}  "
                  f"set2 {b['median']:.4f} [{b['q1']:.4f}, {b['q3']:.4f}] "
                  f"spread {b['spread']:.3f}  pooled spread {pooled['spread']:.3f}  "
                  f"change {change:+.3f}  "
                  f"bound {bound}  {verdict_}")
        report[workload] = rows
    (RESULTS_DIR / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    bad = [(w, n) for w, rows in report.items() for n, r in rows.items()
           if r["verdict"] != "agree" and n not in DIAGNOSTICS]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
