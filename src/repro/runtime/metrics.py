"""Execution metrics.

The paper's evaluation is expressed in a handful of measurable quantities:

* **extension cost (EC)** — "the number of tests performed to determine the
  set of candidate subgraph extensions" (§4.3); the dominant work of any
  GPM task and the currency of our simulated-time cost model;
* subgraphs enumerated, filter evaluations, aggregation updates;
* work-stealing activity (internal/external steals, steal messages);
* aggregation-shuffle traffic — entries/words shipped driver-ward after
  the worker-level combine, combine input/output entry counts (their
  ratio is the map-side combine ratio), metered combine/ship units and
  bounded-combiner spills.  Kept strictly separate from steal counters
  so communication-overhead tables can attribute each;
* memory footprints (enumerator state, aggregation storage);
* fault handling — injected/detected failures, detection latency,
  re-enumerated (recovered) work, wasted work units and wasted EC,
  steal retries and message-fault counts.  These stay zero in
  failure-free runs; under a fault plan they quantify the cost of the
  paper's from-scratch recovery story while results stay identical;
* scheduler efficiency — event-loop pops, idle-core parking (park
  events, wake notifications, parked simulated time), victim-scan work
  of the stealable registry, and the extensions moved per steal under
  chunked steal policies.  These meter the *scheduler*, not the mined
  workload: results and legacy counters are identical whichever steal
  policy runs.
  Under ``steal_policy="adaptive"`` four more counters track the
  controller (all zero under fixed policies): steal-degree AIMD
  adjustments (``steal_degree_adjustments``), victims chosen over a
  nearer round-robin candidate because their channel was cheaper
  (``victim_cost_skips``), and controller-sized steals plus the
  extensions they moved (``adaptive_steals`` /
  ``adaptive_chunk_extensions`` — their ratio is the mean adaptive
  chunk size);
* partitioned graph access — adjacency fetches split into local (the
  pushed word's partition owner is the executing worker) and remote
  (owned elsewhere: a real deployment would ship the adjacency list
  across workers).  Both stay zero unless a partition strategy is
  configured, so unpartitioned runs are byte-identical to prior
  releases; under a partition they are the quantity that separates
  hash from vertex-cut placement;
* pattern-matching candidate kernels — back-edge ``edge_between``
  probes of the legacy pattern strategy, sorted-set intersection
  comparisons and galloping/binary-search steps of the indexed kernel,
  and labeled-adjacency slice lookups.  ``extension_tests`` stays the
  per-candidate test count under either kernel; these counters expose
  *how* the candidates were produced so the cost model can price the
  cheaper indexed work;
* pattern-decomposition counting — core embeddings visited by the
  decomposed kernel (``decomp_core_embeddings``), fringe-block count
  evaluations (``decomp_blocks`` — the "sub-pattern count units" of the
  inclusion–exclusion combine), inclusion–exclusion terms evaluated
  (``decomp_terms``) and steps where a decomposition was requested but
  the planner/chooser fell back to enumeration (``decomp_fallbacks``).
  All zero unless ``pattern_kernel="decomposed"`` runs, so enumeration
  cost arithmetic is bit-identical to prior releases;
* multiprocess supervision — real worker processes lost to crashes,
  hangs or stragglers (``workers_lost``) and respawned replacements,
  chunk leases re-executed after a worker death or lost result message,
  and chunks quarantined to the driver's sequential path after
  repeatedly killing their workers.  All zero on fault-free runs and on
  every other backend;
* symmetry breaking — restriction-set plans served from the per-pattern
  cache (``symmetry_cache_hits``) and embeddings credited by
  orbit-multiplicity counting instead of being walked individually
  (``orbit_multiplied_embeddings``).  The latter is the work the
  GraphZero-style kernel *skips*: ``subgraphs_enumerated`` now counts
  only walked tree nodes on counting-only steps, while
  ``results_emitted`` still reports the exact embedding count.

A single :class:`Metrics` instance accompanies every execution; engines and
extension strategies increment its counters inline.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Metrics"]

# High-water marks: merged by max, shipped absolute by :meth:`Metrics.delta`.
_PEAK_COUNTERS = ("peak_enumerator_bytes", "peak_aggregation_entries")
# Counters in cost units; they start as 0.0 so reports print them as floats.
_FLOAT_COUNTERS = (
    "steal_work_units",
    "agg_ship_units",
    "agg_combine_units",
    "detection_latency_units",
    "wasted_work_units",
    "parked_units",
)


class Metrics:
    """Mutable counter bundle threaded through an execution."""

    __slots__ = (
        "extension_tests",
        "extensions_generated",
        "subgraphs_enumerated",
        "results_emitted",
        "filter_calls",
        "filter_passed",
        "aggregate_updates",
        "adjacency_scans",
        "pattern_canonicalizations",
        "steals_internal",
        "steals_external",
        "steal_messages",
        "steal_work_units",
        "agg_entries_shipped",
        "agg_words_shipped",
        "agg_messages",
        "agg_ship_units",
        "agg_combine_entries_in",
        "agg_combine_entries_out",
        "agg_combine_units",
        "agg_spilled_entries",
        "peak_enumerator_bytes",
        "peak_aggregation_entries",
        "failures_injected",
        "failures_detected",
        "detection_latency_units",
        "reenumerated_frames",
        "reenumerated_extensions",
        "wasted_work_units",
        "wasted_extension_tests",
        "steal_retries",
        "steal_messages_dropped",
        "steal_messages_duplicated",
        "steal_messages_delayed",
        "scheduler_events",
        "cores_parked",
        "wake_events",
        "parked_units",
        "victim_scan_steps",
        "steal_chunk_extensions",
        "steal_degree_adjustments",
        "victim_cost_skips",
        "adaptive_steals",
        "adaptive_chunk_extensions",
        "back_edge_probes",
        "intersect_comparisons",
        "gallop_steps",
        "index_slices",
        "remote_adjacency_fetches",
        "local_adjacency_fetches",
        "workers_lost",
        "workers_respawned",
        "chunks_reexecuted",
        "chunks_quarantined",
        "decomp_core_embeddings",
        "decomp_blocks",
        "decomp_terms",
        "decomp_fallbacks",
        "symmetry_cache_hits",
        "orbit_multiplied_embeddings",
    )

    def __init__(self):
        for name, zero in _ZEROS:
            setattr(self, name, zero)

    def merge(self, other: "Metrics") -> None:
        """Accumulate counters from another instance (peaks take max)."""
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in _PEAK_COUNTERS:
            setattr(self, name, max(getattr(self, name), getattr(other, name)))

    def snapshot(self) -> Dict[str, float]:
        """Counters as a plain dict (for reports and tests)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """Snapshot of the work done since ``before`` (an earlier snapshot).

        Summed counters ship as differences; peaks ship absolute, since
        :meth:`merge` takes their max.  This is the per-chunk wire format
        of the multiprocess backend.
        """
        return {
            name: value if name in _PEAK_COUNTERS else value - before.get(name, 0)
            for name, value in self.snapshot().items()
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, float]) -> "Metrics":
        """Rebuild an instance from a :meth:`snapshot` dict.

        Unknown keys are rejected (they indicate a version skew between
        the process that produced the snapshot and this one); missing
        keys keep their zero default, so snapshots from older releases
        still load.  This is the wire format worker processes use to
        ship their counters back to the driver.
        """
        metrics = cls()
        for name, value in data.items():
            if name not in cls.__slots__:
                raise ValueError(f"unknown metrics counter {name!r}")
            setattr(metrics, name, value)
        return metrics

    def __repr__(self) -> str:
        return (
            f"Metrics(EC={self.extension_tests}, "
            f"subgraphs={self.subgraphs_enumerated}, "
            f"steals={self.steals_internal}+{self.steals_external})"
        )


_ZEROS = tuple(
    (name, 0.0 if name in _FLOAT_COUNTERS else 0) for name in Metrics.__slots__
)
_SUMMED = tuple(name for name in Metrics.__slots__ if name not in _PEAK_COUNTERS)
