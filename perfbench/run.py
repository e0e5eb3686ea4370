#!/usr/bin/env python3
"""End-to-end benchmark of the Fractal reproduction, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

A run builds the workload's graphs and runs its job list through the
public API (``repro.apps``, ``FractalContext``, ``ClusterConfig``,
``MultiprocessConfig``) from this one process in a closed loop: each job
starts when the previous one ends, each on a fresh ``FractalContext``.
One such pass is a round.  A discarded warm-up round comes first, then
rounds repeat until ``--seconds`` have passed.  Every job's output is
checked against ``expected.json``.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics.  With ``--trace 1`` the run measures
untraced rounds for half the time and traced rounds for the other half,
and reports the per-layer metrics plus the tracing overhead; the spans go
to a Chrome trace-event file under ``perfbench/results/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
HASH_SEED = "0"  # fixed so hash-dependent orders, and so memory use, repeat
MIN_ROUNDS = 3
# A round repeats its set-up until about this much reference time is
# spent in it (at most SETUP_MAX_REPEATS times) and keeps the median, so
# that a set-up of a few milliseconds is timed often enough to be steady.
SETUP_TARGET_S = 0.1
SETUP_MAX_REPEATS = 10

# Job-class metrics, reported beside the end-to-end metrics named in
# BENCHMARK.json (which must exist on every workload).
JOB_METRICS = ("motifs_s", "fsm_s", "keyword_s", "cliques_s", "query_count_s",
               "query_list_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _untraced(name, layer=None):
    return contextlib.nullcontext()


class Calibration:
    """A fixed pure-Python loop that measures the host's current speed.

    The CPU speed of a shared host drifts by tens of percent over seconds
    to minutes, in any Python code alike.  Each job's wall time is scaled
    by ``REFERENCE_S / t``, where ``t`` is the mean time this loop took
    just before and just after the job, giving seconds at a fixed
    reference speed.  The loop calls nothing in the library and runs with
    the garbage collector off, so no collection triggered by the library's
    garbage, and no walk of the library's heap, falls inside it.  Its own
    data is built once, here, and fits in the CPU caches; the median of
    three timings drops the first, cache-cold pass after a job.  Runs
    keep the raw wall times and the speed factor beside the scaled times,
    so a claim can show that the scaling did not decide it.
    """

    REFERENCE_S = 0.002  # the loop's time at the reference speed

    def __init__(self):
        rng = random.Random(12345)
        self.n = 300
        self.adj = [set() for _ in range(self.n)]
        for _ in range(3000):
            u, v = rng.randrange(self.n), rng.randrange(self.n)
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
        self.sorted_adj = [sorted(a) for a in self.adj]

    def _loop(self) -> float:
        started = time.perf_counter()
        histogram = {}
        for u in range(self.n):
            au = self.adj[u]
            for v in self.sorted_adj[u]:
                if v > u:
                    c = len(au & self.adj[v])
                    histogram[c] = histogram.get(c, 0) + 1
        return time.perf_counter() - started

    def measure(self) -> float:
        """Median of three timings of the loop, in seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return statistics.median([self._loop() for _ in range(3)])
        finally:
            if enabled:
                gc.enable()

    def scale(self, before: float, after: float) -> float:
        return self.REFERENCE_S / ((before + after) / 2)


class Round:
    """One round's timings.  ``*_s`` are at the reference speed, ``*_wall``
    as measured; ``speed`` is the round's median scale factor."""

    __slots__ = ("setup_s", "setup_wall", "job_s", "job_wall", "scales",
                 "failures", "spans", "reports")

    def __init__(self):
        self.setup_s = self.setup_wall = 0.0
        self.job_s = {}
        self.job_wall = {}
        self.scales = []
        self.failures = []
        self.spans = []
        self.reports = []

    @property
    def mix_s(self) -> float:
        return sum(self.job_s.values())

    @property
    def mix_wall(self) -> float:
        return sum(self.job_wall.values())

    @property
    def speed(self) -> float:
        return statistics.median(self.scales)


def run_round(index, jobs, expected, seed, calibration, tracer=None,
              setup_repeats=1) -> Round:
    """Build this round's graphs ``setup_repeats`` times (the same graphs
    each time; set-up times are the median), then run and check every job.
    In a traced round only the last build is traced."""
    from workloads import build_graphs, datasets_of, round_rng

    span = tracer.span if tracer is not None else _untraced
    first_span = len(tracer.spans) if tracer is not None else 0
    first_report = len(tracer.reports) if tracer is not None else 0
    result = Round()
    gc.collect()
    after = calibration.measure()
    if tracer is not None:
        tracer.job = f"r{index}/setup"
    walls, scaled = [], []
    for repeat in range(setup_repeats):
        graphs = None  # free the previous build first, as a fresh round would
        before = after
        started = time.perf_counter()
        graphs = build_graphs(datasets_of(jobs), round_rng(seed, index),
                              span if repeat == setup_repeats - 1 else _untraced)
        walls.append(time.perf_counter() - started)
        after = calibration.measure()
        result.scales.append(calibration.scale(before, after))
        scaled.append(walls[-1] * result.scales[-1])
    result.setup_wall = statistics.median(walls)
    result.setup_s = statistics.median(scaled)
    for job in jobs:
        if tracer is not None:
            tracer.job = f"r{index}/{job.name}"
        before = after
        started = time.perf_counter()
        try:
            with span(f"job.{job.name}", "app"):
                output = job.run(graphs[job.dataset].graph)
        except Exception:
            output = None
            result.failures.append((job.name, traceback.format_exc()))
        wall = time.perf_counter() - started
        after = calibration.measure()
        result.scales.append(calibration.scale(before, after))
        result.job_wall[job.name] = wall
        result.job_s[job.name] = wall * result.scales[-1]
        if output is None:
            continue
        try:
            got = job.normal(output, graphs)
        except Exception:
            result.failures.append((job.name, traceback.format_exc()))
            continue
        if got != expected.get(job.name):
            result.failures.append(
                (job.name, f"expected {expected.get(job.name)!r}, got {got!r}")
            )
    if tracer is not None:
        result.spans = tracer.spans[first_span:]
        result.reports = [r for _, r in tracer.reports[first_report:]]
    return result


def run_rounds(first_index, seconds, jobs, expected, seed, calibration,
               setup_repeats, tracer=None):
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(run_round(first_index + len(rounds), jobs, expected, seed,
                                calibration, tracer, setup_repeats))
    return rounds


def setup_repeats_for(warmup: Round) -> int:
    """Set-ups per round: enough to spend SETUP_TARGET_S reference seconds."""
    return max(1, min(SETUP_MAX_REPEATS, math.ceil(SETUP_TARGET_S / warmup.setup_s)))


def job_class_metrics(jobs, rounds):
    """Median over rounds of each job class's summed time."""
    out = {}
    for metric in JOB_METRICS:
        names = [job.name for job in jobs if job.metric == metric]
        if names:
            out[metric] = statistics.median(sum(r.job_s[n] for n in names) for r in rounds)
    return out


def scale_times(metrics, speed):
    """Per-layer wall times scaled to the reference speed, like ``mix_s``."""
    scaled = {k for k in metrics if k.endswith("_s") and k != "cluster.simulated_s"}
    scaled.add("cluster.us_per_event")
    return {k: v * speed if k in scaled else v for k, v in metrics.items()}


def peak_rss_mb() -> float:
    """Larger of this process's and its largest child's peak RSS (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def where_time_went(traced_rounds):
    """Per-layer self time per round and share of the traced mix.

    Self times are scaled to the reference speed like ``mix_s``; shares
    are of the traced rounds' wall time.
    """
    from tracing import self_time_by_layer

    n = len(traced_rounds)
    mix_wall = sum(r.mix_wall for r in traced_rounds)
    wall = {}
    scaled = {}
    for r in traced_rounds:
        setup = [s for s in r.spans if s.name in SETUP_SPANS]
        jobs = [s for s in r.spans if s.name not in SETUP_SPANS]
        layers = self_time_by_layer(jobs)
        layers["set-up (outside mix_s)"] = sum(s.seconds for s in setup)
        for layer, seconds in layers.items():
            wall[layer] = wall.get(layer, 0.0) + seconds
            scaled[layer] = scaled.get(layer, 0.0) + seconds * r.speed
    setup_row = "set-up (outside mix_s)"
    return [
        {"layer": layer, "self_s": scaled[layer] / n,
         "share": None if layer == setup_row else wall[layer] / mix_wall,
         "source": LAYER_SOURCES[layer]}
        for layer in sorted(wall, key=lambda k: (k == setup_row, -wall[k]))
    ]


SETUP_SPANS = ("graph.generate", "graph.relabel", "graph.csr", "graph.index")
LAYER_SOURCES = {
    "app": "job.* spans minus children: repro.apps code, FractalContext",
    "driver": "Fractoid.execute minus children: execute_plan, finalize hand-off",
    "steps": "core.steps.plan_steps",
    "enumerator": "SequentialBackend.run_step minus children",
    "cluster": "SimulatorBackend.run_step minus children",
    "mp": "MultiprocessBackend.run_step minus children; SharedGraphBuffers()",
    "pattern": "minimum_dfs_code, plan_matching_order, symmetry_plan, "
               "plan_step_decomposition, count_embeddings",
    "aggregation": "merge_storages_streaming, AggregationStorage.finalize",
    "graph": "graph.views.reduce_graph",
    "set-up (outside mix_s)": "graph.generate + graph.relabel + graph.csr + graph.index",
}


def print_table(title, rows, columns):
    print(f"\n{title}")
    widths = [max(len(c), *(len(str(r[i])) for r in rows)) for i, c in enumerate(columns)]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def main() -> int:
    args = parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                  + sys.argv[1:], env)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src"), str(ROOT)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH_DIR / "expected.json").read_text())[args.workload]
    jobs = WORKLOADS[args.workload]()

    calibration = Calibration()
    warmup = run_round(0, jobs, expected, args.seed, calibration)
    repeats = setup_repeats_for(warmup)
    if args.trace:
        from tracing import Tracer, layer_metrics, median_of

        timed = run_rounds(1, args.seconds / 2, jobs, expected, args.seed,
                           calibration, repeats)
        with Tracer() as tracer:
            traced = run_rounds(1 + len(timed), args.seconds / 2, jobs, expected,
                                args.seed, calibration, repeats, tracer)
    else:
        timed = run_rounds(1, args.seconds, jobs, expected, args.seed, calibration,
                           repeats)
        traced = []
    rss = peak_rss_mb()

    every = [warmup] + timed + traced
    attempted = sum(len(r.job_s) for r in every)
    failed_jobs = [f for r in every for f in r.failures]
    for name, detail in failed_jobs:
        print(f"perfbench: job {name} failed: {detail}", file=sys.stderr)

    end_to_end = {
        "mix_s": (statistics.median(r.mix_s for r in timed), "s"),
        "setup_s": (statistics.median(r.setup_s for r in timed), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "error_rate": (len(failed_jobs) / attempted, "fraction"),
        "mix_wall_s": (statistics.median(r.mix_wall for r in timed), "s"),
        "setup_wall_s": (statistics.median(r.setup_wall for r in timed), "s"),
        "host_speed": (statistics.median(r.speed for r in timed), "ratio"),
    }
    for metric, value in job_class_metrics(jobs, timed).items():
        end_to_end[metric] = (value, "s")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(timed),
        "setup_repeats": repeats,
        "traced_rounds": len(traced),
        "python": platform.python_version(),
        "attempted": attempted,
        "failed": len(failed_jobs),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(timed)} "
          f"(+1 warm-up, {len(traced)} traced)  set-ups/round {repeats}  "
          f"host_cpus {os.cpu_count()}  python {record['python']}")
    print_table("end-to-end (median over rounds)",
                [(k, f"{v:.4f}", u, len(timed)) for k, (v, u) in end_to_end.items()],
                ("metric", "value", "unit", "n"))

    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    if args.trace:
        per_layer = median_of([
            scale_times(layer_metrics(r.spans, r.reports, r.mix_wall), r.speed)
            for r in traced
        ])
        traced_mix = statistics.median(r.mix_s for r in traced)
        per_layer["trace.overhead_s"] = traced_mix - end_to_end["mix_s"][0]
        where = where_time_went(traced)
        record["per_layer"] = {k: {"value": v, "unit": units.get(k, "")}
                               for k, v in per_layer.items()}
        record["where_time_went"] = where
        print_table(
            f"where the time went (traced mix_s {traced_mix:.4f} s, untraced "
            f"{end_to_end['mix_s'][0]:.4f} s, {len(traced)} traced rounds)",
            [(w["layer"], f"{w['self_s']:.4f}",
              "n/a" if w["share"] is None else f"{100 * w['share']:.1f}%", w["source"])
             for w in where],
            ("layer", "self s/round", "share of mix_s", "source"))
        print_table("per-layer (median over traced rounds)",
                    [(k, f"{v:.6g}", units.get(k, "")) for k, v in per_layer.items()],
                    ("metric", "value", "unit"))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()
                   if k in units}
    else:
        spec = _benchmark_spec()["end_to_end"]
        metrics = {m["name"]: {"value": end_to_end[m["name"]][0], "unit": m["unit"]}
                   for m in spec}

    _write_record(args, record, tracer if args.trace else None)
    print(json.dumps({
        "correct": not failed_jobs,
        "attempted": attempted,
        "failed": len(failed_jobs),
        "metrics": metrics,
    }))
    return 0


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _write_record(args, record, tracer) -> None:
    from benchmarks.bench_schema import make_header

    # Keep git's repository search inside this checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    record.update(make_header(
        "perfbench",
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "pythonhashseed": HASH_SEED},
        f"{args.workload}: mix_s {record['end_to_end']['mix_s']['value']:.4f} s",
    ))
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS_DIR / f"{stem}.trace.json")


def stop_children() -> None:
    """Stop and reap every process this run started.

    The multiprocess backend joins its workers after each step, but
    ``multiprocessing.shared_memory`` also starts a resource-tracker
    process that otherwise outlives this one (it exits only when it sees
    this process's end, and is then nobody's child to reap).  Run the
    finalizers that unlink the shared segments first, so the tracker has
    nothing left to clean up, then stop it and wait for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None
    while True:  # anything else forked here and not yet reaped
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
