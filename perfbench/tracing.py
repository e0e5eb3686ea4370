"""Spans around the library's public layer functions, for the traced run.

The traced run wraps, from outside the library, the public function of
each layer (module) that a job passes through; the timed runs wrap
nothing.  Each span records its name, layer, start, end, parent span and
job id, is kept in memory, and is written out as Chrome trace-event JSON
when the run ends.  A layer's self time is its spans' time minus the
time of their child spans.

Spans are recorded only in the process and thread that installed the
tracer: code running in the multiprocess backend's forked workers is out
of reach, so the multiprocess layer is measured from the
``StepReport.backend_info`` the workers send back.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, List

import repro.core.fractoid as fractoid_mod
import repro.core.context as context_mod
import repro.core.enumerator as enumerator_mod
import repro.graph.shm as shm_mod
import repro.graph.views as views_mod
import repro.pattern.decompose as decompose_mod
import repro.pattern.dfscode as dfscode_mod
import repro.runtime.backend as backend_mod
import repro.runtime.cluster as cluster_mod
import repro.runtime.driver as driver_mod
import repro.runtime.mp_backend as mp_mod
from repro.core.aggregation import AggregationStorage

# (owner, attribute, span name, layer).  Owners are the modules whose
# global the caller looks up, so a wrapped name is seen by every caller.
WRAPPED = (
    (fractoid_mod.Fractoid, "execute", "driver.execute", "driver"),
    (driver_mod, "plan_steps", "steps.plan", "steps"),
    (backend_mod.SequentialBackend, "run_step", "backend.sequential", "enumerator"),
    (backend_mod.SimulatorBackend, "run_step", "backend.simulator", "cluster"),
    (mp_mod.MultiprocessBackend, "run_step", "backend.multiprocess", "mp"),
    (dfscode_mod, "minimum_dfs_code", "pattern.canon", "pattern"),
    (enumerator_mod, "plan_matching_order", "pattern.order", "pattern"),
    (enumerator_mod, "symmetry_plan", "pattern.symmetry", "pattern"),
    (decompose_mod, "plan_step_decomposition", "pattern.decompose_plan", "pattern"),
    (decompose_mod, "count_embeddings", "pattern.decompose_count", "pattern"),
    (cluster_mod, "merge_storages_streaming", "aggregation.merge", "aggregation"),
    (mp_mod, "merge_storages_streaming", "aggregation.merge", "aggregation"),
    (AggregationStorage, "finalize", "aggregation.finalize", "aggregation"),
    (views_mod, "reduce_graph", "graph.reduce", "graph"),
    (context_mod, "reduce_graph", "graph.reduce", "graph"),
    (shm_mod.SharedGraphBuffers, "__init__", "mp.shm_create", "mp"),
)

RUN_STEP_SPANS = ("backend.sequential", "backend.simulator", "backend.multiprocess")


class Span:
    """One timed call: name, layer, start/end, parent span and job id."""

    __slots__ = ("name", "layer", "start", "end", "parent", "job", "child_s")

    def __init__(self, name, layer, start, parent, job):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: List[Span] = []
        self.reports: List[tuple] = []  # (job id, ExecutionReport)
        self.job = None
        self._stack: List[Span] = []
        self._undo: List[tuple] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._origin = time.perf_counter()

    def _here(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    @contextmanager
    def span(self, name: str, layer: str = None):
        if not self._here():
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, layer or name.split(".")[0], time.perf_counter(), parent, self.job)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += record.seconds
            self.spans.append(record)

    def _wrap(self, owner, attr, name, layer):
        original = owner.__dict__[attr]
        tracer = self
        keep_report = name == "driver.execute"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, layer) as record:
                result = original(*args, **kwargs)
            if keep_report and record is not None:
                tracer.reports.append((tracer.job, result))
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def __enter__(self):
        for owner, attr, name, layer in WRAPPED:
            self._wrap(owner, attr, name, layer)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def chrome_trace(self) -> Dict[str, object]:
        """The recorded spans as Chrome trace-event JSON (``ph: "X"``)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": round((s.start - self._origin) * 1e6, 3),
                "dur": round(s.seconds * 1e6, 3),
                "pid": self._pid,
                "tid": 1,
                "args": {
                    "job": s.job,
                    "span": i,
                    "parent": index.get(id(s.parent)) if s.parent else None,
                },
            }
            for i, s in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


# ----------------------------------------------------------------------
# Per-layer metrics of one traced round
# ----------------------------------------------------------------------
# Metrics counters summed over a round's execution reports.
COUNTERS = (
    "pattern_canonicalizations", "symmetry_cache_hits", "decomp_terms",
    "decomp_fallbacks", "extension_tests", "subgraphs_enumerated",
    "results_emitted", "filter_passed", "filter_calls",
    "intersect_comparisons", "back_edge_probes",
    "orbit_multiplied_embeddings", "aggregate_updates",
    "agg_entries_shipped", "agg_combine_entries_out",
    "agg_combine_entries_in", "scheduler_events", "victim_scan_steps",
    "steals_internal", "steals_external", "steal_messages",
    "cores_parked", "workers_lost", "chunks_reexecuted",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span], reports: List, job_seconds: float) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    ``spans`` (set-up and jobs) and ``reports`` are the round's;
    ``job_seconds`` is the round's summed job wall time.
    """
    total: Dict[str, float] = {}
    self_by_name: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + s.self_seconds
        calls[s.name] = calls.get(s.name, 0) + 1

    def t(name):
        return total.get(name, 0.0)

    run_step_s = sum(t(name) for name in RUN_STEP_SPANS)

    m = {name: 0 for name in COUNTERS}
    peak_bytes = peak_entries = 0
    candidate_units = 0.0
    simulated_s = 0.0
    steps = 0
    mp = {"wall": 0.0, "busy": 0.0, "slots": 0.0, "max": 0.0, "mean": 0.0,
          "dispatch": 0.0, "chunks": 0, "in_driver": 0}
    for report in reports:
        metrics = report.metrics
        for name in COUNTERS:
            m[name] += getattr(metrics, name)
        peak_bytes = max(peak_bytes, metrics.peak_enumerator_bytes)
        peak_entries = max(peak_entries, metrics.peak_aggregation_entries)
        candidate_units += report.pattern_kernel_summary()["candidate_units"]
        steps += len(report.steps)
        if any(step.cluster is not None for step in report.steps):
            simulated_s += report.total_seconds
        for step in report.steps:
            info = step.backend_info
            if not info or info.get("backend") != "multiprocess":
                continue
            walls = info.get("worker_wall_seconds")
            if walls:
                mp["wall"] += info["wall_seconds"]
                mp["busy"] += sum(walls)
                mp["slots"] += info["num_procs"] * info["wall_seconds"]
                mp["max"] += max(walls)
                mp["mean"] += sum(walls) / len(walls)
                mp["dispatch"] += info["wall_seconds"] - max(walls)
                mp["chunks"] += info["chunks"]
            else:
                mp["wall"] += info.get("wall_seconds", 0.0)
                mp["in_driver"] += 1

    cluster_s = t("backend.simulator")
    events = m["scheduler_events"]
    return {
        "graph.generate_s": t("graph.generate"),
        "graph.relabel_s": t("graph.relabel"),
        "graph.csr_s": t("graph.csr"),
        "graph.index_s": t("graph.index"),
        "graph.reduce_s": t("graph.reduce"),
        "steps.plan_s": t("steps.plan"),
        "steps.count": steps,
        "pattern.canon_s": t("pattern.canon"),
        "pattern.canon_calls": calls.get("pattern.canon", 0),
        "pattern.canonicalizations": m["pattern_canonicalizations"],
        "pattern.order_s": t("pattern.order"),
        "pattern.symmetry_s": t("pattern.symmetry"),
        "pattern.symmetry_cache_hits": m["symmetry_cache_hits"],
        "pattern.decompose_plan_s": t("pattern.decompose_plan"),
        "pattern.decompose_count_s": t("pattern.decompose_count"),
        "pattern.decomp_terms": m["decomp_terms"],
        "pattern.decomp_fallbacks": m["decomp_fallbacks"],
        "enumerator.self_s": self_by_name.get("backend.sequential", 0.0),
        "enumerator.extension_tests": m["extension_tests"],
        "enumerator.subgraphs_enumerated": m["subgraphs_enumerated"],
        "enumerator.results_emitted": m["results_emitted"],
        "enumerator.emit_ratio": _ratio(m["results_emitted"], m["subgraphs_enumerated"]),
        "enumerator.filter_pass_ratio": _ratio(m["filter_passed"], m["filter_calls"]),
        "enumerator.candidate_units": candidate_units,
        "enumerator.intersect_comparisons": m["intersect_comparisons"],
        "enumerator.back_edge_probes": m["back_edge_probes"],
        "enumerator.orbit_multiplied": m["orbit_multiplied_embeddings"],
        "enumerator.peak_bytes": peak_bytes,
        "aggregation.merge_s": t("aggregation.merge"),
        "aggregation.finalize_s": t("aggregation.finalize"),
        "aggregation.updates": m["aggregate_updates"],
        "aggregation.peak_entries": peak_entries,
        "aggregation.entries_shipped": m["agg_entries_shipped"],
        "aggregation.combine_ratio": _ratio(
            m["agg_combine_entries_out"], m["agg_combine_entries_in"]
        ),
        "backend.step_s": run_step_s,
        "backend.driver_s": job_seconds - run_step_s,
        "cluster.step_s": cluster_s,
        "cluster.events": events,
        "cluster.us_per_event": _ratio(cluster_s * 1e6, events),
        "cluster.victim_scan_steps": m["victim_scan_steps"],
        "cluster.steals": m["steals_internal"] + m["steals_external"],
        "cluster.steal_messages": m["steal_messages"],
        "cluster.parks": m["cores_parked"],
        "cluster.simulated_s": simulated_s,
        "mp.step_wall_s": mp["wall"],
        "mp.worker_busy_s": mp["busy"],
        "mp.busy_frac": _ratio(mp["busy"], mp["slots"]),
        "mp.imbalance": _ratio(mp["max"], mp["mean"]),
        "mp.dispatch_s": mp["dispatch"],
        "mp.chunks": mp["chunks"],
        "mp.in_driver_steps": mp["in_driver"],
        "mp.retries": m["workers_lost"] + m["chunks_reexecuted"],
        "mp.shm_create_s": t("mp.shm_create"),
    }


def self_time_by_layer(spans: List[Span]) -> Dict[str, float]:
    """Summed self time of every layer's spans."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.self_seconds
    return out


def median_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over rounds."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
