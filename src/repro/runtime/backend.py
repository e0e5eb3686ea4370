"""Execution backend seam: one interface, simulated or real parallelism.

Every engine the driver can run a fractal step on sits behind
:class:`ExecutionBackend`:

* :class:`SequentialBackend` — the paper's Algorithm 1 on one core
  (``engine="sequential"``), byte-identical to the pre-seam driver path;
* :class:`SimulatorBackend` — the deterministic event-driven cluster
  (:class:`~repro.runtime.cluster.ClusterConfig`), unchanged semantics:
  same metrics, same per-core clocks, same results;
* ``MultiprocessBackend`` (:mod:`repro.runtime.mp_backend`) — real OS
  worker processes over shared-memory CSR buffers, selected with a
  :class:`~repro.runtime.mp_backend.MultiprocessConfig`.

The driver resolves the engine spec once per execution
(:func:`resolve_backend`), runs every step through the backend, and
calls :meth:`ExecutionBackend.close` when done — the hook multiprocess
uses to unlink its shared-memory segment.  A backend returns one
:class:`StepOutcome` per step: the filled aggregation storages, the
step's metrics, its priced work, and an optional ``backend_info`` dict
surfaced in :class:`~repro.runtime.driver.StepReport` for reporting
(real wall time, partition quality, shared-segment size).

**One step planner.**  Whether a step counts instead of enumerating is
decided here, once, for every backend.  Each backend builds a probe
strategy and calls :func:`plan_step` with the reason its configuration
requires enumeration (fault injection, partitioned storage) or
``None``; the returned :class:`StepPlan` is ``"decomposed"``
(core–fringe inclusion–exclusion), ``"orbit"`` (orbit-multiplicity bulk
counting) or ``"enumerate"``, and carries the ``kernel_info`` decision
records and the ``decomp_fallbacks`` booking.  :func:`run_counting`
executes a counting plan over round-robin root chunks and quarantines a
:class:`~repro.pattern.decompose.DecompositionError` to the plan's
fallback.  The backends differ only in how they price the chunks: the
sequential and multiprocess backends pass one chunk and price the
total; the simulator passes one chunk per core and prices the busiest.
"""

from __future__ import annotations

import multiprocessing
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.aggregation import AggregationStorage
from ..core.computation import Computation
from ..core.primitives import Expand, Primitive
from ..core.subgraph import SubgraphResult
from ..graph.graph import Graph
from ..pattern import decompose
from ..pattern.pattern import PatternInterner
from .cluster import ClusterConfig, ClusterEngine, ClusterStepResult
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .engine import run_step_sequential
from .metrics import Metrics

__all__ = [
    "ExecutionBackend",
    "SequentialBackend",
    "SimulatorBackend",
    "StepOutcome",
    "StepPlan",
    "plan_step",
    "resolve_backend",
    "run_counting",
    "run_in_process",
]

#: ``backend_info`` flag naming each counting plan kind.
COUNTED_FLAGS = {"decomposed": "decomposed", "orbit": "orbit_counted"}

#: Why a step over partitioned storage must enumerate.
PARTITIONED_REASON = (
    "partitioned storage configured (fetch metering needs per-word pushes)"
)


@dataclass
class StepPlan:
    """How one fractal step runs: counted or enumerated.

    ``kind`` is ``"decomposed"``, ``"orbit"`` or ``"enumerate"``.
    ``kernel_info`` is the probe strategy's kernel description with the
    ``"decomposition"`` and ``"orbit_count"`` decision records filled
    in; ``booked`` holds the ``decomp_fallbacks`` (and, after a
    quarantine, wasted-work) counters the backend merges into the
    step's metrics.
    """

    kind: str
    kernel_info: Optional[Dict[str, object]]
    booked: Metrics = field(default_factory=Metrics)
    decomposition: Optional[decompose.DecompositionPlan] = None
    # ``(kernel_info["orbit_count"] record, level-0 root label)``, or
    # ``None`` when the orbit path was not considered.
    orbit: Optional[Tuple[Dict[str, object], int]] = None

    def record(self, key: str, info: Dict[str, object]) -> None:
        if self.kernel_info is not None:
            self.kernel_info[key] = info

    def fall_back(self) -> None:
        """Drop to the orbit count if the step qualifies, else enumerate."""
        self.kind = "enumerate"
        if self.orbit is not None:
            info, _ = self.orbit
            self.record("orbit_count", info)
            if info["executed"]:
                self.kind = "orbit"

    def root_label(self) -> int:
        if self.kind == "decomposed":
            return self.decomposition.core_labels[0]
        return self.orbit[1]


def _plan_orbit(strategy, primitives, collect, root_words):
    """The orbit-count decision, or ``None`` without the capability.

    Strategies without it (vertex/edge-induced, legacy kernel, or the
    global switch off) are never considered.  Eligible steps are pure
    full-pattern expansions collected as a bare count — exactly the
    shape where the per-embedding sink is a no-op and only the total
    matters, so enumerating one representative per orbit tail and
    multiplying is observably identical.
    """
    supports = getattr(strategy, "supports_orbit_count", None)
    if supports is None or not supports():
        return None
    if collect != "count":
        reason = "step is not a pure count"
    elif root_words is not None:
        reason = "step has explicit roots"
    elif len(primitives) != strategy.pattern.n_vertices or not all(
        isinstance(p, Expand) for p in primitives
    ):
        reason = "step is not a pure full-pattern expansion"
    else:
        tail, arrangements = strategy.orbit_tail()
        root_label = strategy.pattern.vertex_labels[strategy.order[0]]
        info = {"executed": True, "tail": tail, "arrangements": arrangements}
        return info, root_label
    return {"executed": False, "reason": reason}, None


def plan_step(
    probe,
    graph: Graph,
    primitives: Sequence[Primitive],
    collect: Optional[str],
    root_words: Optional[List[int]],
    cost_model: CostModel,
    enumeration_reason: Optional[str] = None,
) -> StepPlan:
    """Decide how a step runs: decomposed count, orbit count or enumeration.

    ``probe`` is a strategy configured exactly like the ones the backend
    runs.  ``enumeration_reason`` is the backend's own reason the step
    must enumerate (fault injection, partitioned storage) or ``None``;
    when set, neither counting path is planned and a requested
    decomposition records that reason.  The decomposition gate and
    chooser (:func:`~repro.pattern.decompose.plan_step_decomposition`)
    run first; a step they turn down books one ``decomp_fallbacks`` and
    falls back to the orbit count if it qualifies.
    """
    plan = StepPlan("enumerate", probe.kernel_info())
    if enumeration_reason is None:
        plan.orbit = _plan_orbit(probe, primitives, collect, root_words)
    if probe.wants_decomposed_count():
        if enumeration_reason is None:
            decomposition, info = decompose.plan_step_decomposition(
                probe.pattern, graph, primitives, collect, root_words, cost_model
            )
        else:
            decomposition = None
            info = decompose.fallback_info(enumeration_reason)
        plan.record("decomposition", info)
        if decomposition is not None:
            plan.kind = "decomposed"
            plan.decomposition = decomposition
            return plan
        plan.booked.decomp_fallbacks += 1
    plan.fall_back()
    return plan


def _count_chunks(
    plan: StepPlan,
    graph: Graph,
    n_chunks: int,
    cost_model: CostModel,
    strategy_for: Callable[[Metrics], object],
) -> Tuple[Metrics, List[float]]:
    # The root listing is metered once, with the counters the level-0
    # candidate call of the sequential kernel would book, so merged
    # totals do not depend on the chunk count.
    metrics = Metrics()
    metrics.index_slices += 1
    roots = graph.vertices_with_label(plan.root_label())
    metrics.extension_tests += len(roots)
    if plan.kind == "orbit":
        metrics.extensions_generated += len(roots)
    raw = 0
    chunk_units: List[float] = []
    for i in range(n_chunks):
        chunk = roots[i::n_chunks]
        if not chunk:
            continue
        chunk_metrics = Metrics()
        if plan.kind == "decomposed":
            raw += decompose.count_embeddings(
                plan.decomposition,
                graph,
                chunk_metrics,
                roots=chunk,
                crossover=cost_model.gallop_crossover,
            )
        else:
            raw += strategy_for(chunk_metrics).count_matches(roots=chunk)
        chunk_units.append(cost_model.step_units(chunk_metrics))
        metrics.merge(chunk_metrics)
    if plan.kind == "decomposed":
        # Per-chunk raw totals need not be divisible by the plan's
        # multiplicity; divide only after the merge.
        try:
            raw = decompose.instance_count(plan.decomposition, raw)
        except decompose.DecompositionError as exc:
            exc.wasted_extension_tests = metrics.extension_tests
            exc.wasted_units = cost_model.step_units(metrics)
            raise
    metrics.results_emitted = raw
    return metrics, chunk_units


def run_counting(
    plan: StepPlan,
    graph: Graph,
    n_chunks: int,
    cost_model: CostModel,
    strategy_for: Callable[[Metrics], object],
    reraise: bool = False,
) -> Optional[Tuple[Metrics, List[float]]]:
    """Execute a counting plan over ``n_chunks`` round-robin root chunks.

    Returns the merged metrics (``results_emitted`` holds the exact
    count) and each non-empty chunk's priced units, or ``None`` when the
    plan enumerates.  No sink runs (a counting sink is a no-op by
    contract) and no aggregation storages exist.  ``strategy_for``
    builds a configured strategy metering into the given bundle; the
    orbit count runs one per chunk.

    If the decomposed multiplicity arithmetic trips
    (:class:`~repro.pattern.decompose.DecompositionError`), the step is
    quarantined: the walked work is booked as wasted on
    ``plan.booked``, the decision record names the error, and the plan
    falls back to the orbit count or to enumeration — which needs no
    multiplicity arithmetic at all.  ``reraise`` raises instead.
    """
    if plan.kind == "decomposed":
        try:
            return _count_chunks(plan, graph, n_chunks, cost_model, strategy_for)
        except decompose.DecompositionError as exc:
            if reraise:
                raise
            warnings.warn(str(exc), RuntimeWarning, stacklevel=3)
            plan.record(
                "decomposition", decompose.fallback_info(f"quarantined: {exc}")
            )
            plan.booked.wasted_extension_tests += exc.wasted_extension_tests
            plan.booked.wasted_work_units += exc.wasted_units
            plan.booked.decomp_fallbacks += 1
            plan.fall_back()
    if plan.kind == "orbit":
        return _count_chunks(plan, graph, n_chunks, cost_model, strategy_for)
    return None


def run_in_process(
    strategy,
    metrics: Metrics,
    plan: StepPlan,
    counted: Optional[Tuple[Metrics, List[float]]],
    graph: Graph,
    interner: PatternInterner,
    primitives: Sequence[Primitive],
    aggregation_views,
    cached_uids,
    sink,
    root_words,
    cost_model: CostModel,
) -> "StepOutcome":
    """Finish a step on the calling process and price the total.

    ``metrics`` is the bundle ``strategy`` meters into, with the plan's
    booking already merged.  A counted step merges its counted metrics;
    otherwise the step enumerates depth-first with the driver-provided
    sink.  Shared by the sequential backend and the multiprocess
    backend's in-driver steps.
    """
    storages: Dict[int, AggregationStorage] = {}
    if counted is not None:
        metrics.merge(counted[0])
    else:
        computation = Computation(graph, metrics, interner, aggregation_views)
        storages = run_step_sequential(
            strategy,
            primitives,
            computation,
            cached_uids,
            sink=sink,
            root_words=root_words,
        )
    units = cost_model.step_units(metrics)
    return StepOutcome(
        storages=storages,
        metrics=metrics,
        work_units=units,
        simulated_seconds=cost_model.seconds(units),
        kernel_info=plan.kernel_info,
    )


@dataclass
class StepOutcome:
    """What one backend run of one fractal step produced."""

    storages: Dict[int, AggregationStorage]
    metrics: Metrics
    work_units: float
    simulated_seconds: float
    cluster: Optional[ClusterStepResult] = None
    kernel_info: Optional[Dict[str, object]] = None
    # Backend-specific observability (backend name, real wall time,
    # partition summary, shared-memory footprint, ...).
    backend_info: Optional[Dict[str, object]] = None
    # Frozen results of the final step, for backends whose sinks run in
    # another process (the driver's sink closure cannot).  ``None`` means
    # the backend invoked the driver-provided sink directly.
    subgraphs: Optional[List[SubgraphResult]] = None


class ExecutionBackend:
    """Interface every step executor implements."""

    name: str = "abstract"

    def run_step(
        self,
        graph: Graph,
        strategy_factory: Callable,
        interner: PatternInterner,
        primitives: Sequence[Primitive],
        aggregation_views: Dict[int, object],
        cached_uids,
        sink: Optional[Callable] = None,
        root_words: Optional[List[int]] = None,
        collect: Optional[str] = None,
    ) -> StepOutcome:
        """Execute one fractal step.

        ``sink``/``collect`` describe the final step's output mode:
        ``collect`` is ``"subgraphs"``, ``"count"`` or ``None`` exactly as
        the driver received it (``None`` on non-final steps).  In-process
        backends call ``sink`` with each live result; cross-process
        backends honor ``collect`` and return frozen results through
        :attr:`StepOutcome.subgraphs` instead.
        """
        raise NotImplementedError

    def setup_seconds(self) -> float:
        """Simulated framework setup overhead (added once per execution)."""
        return 0.0

    def close(self) -> None:
        """Release backend resources (processes, shared memory)."""


class SequentialBackend(ExecutionBackend):
    """Algorithm 1 on one core — the relocated driver sequential path."""

    name = "sequential"

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL):
        self.cost_model = cost_model

    def run_step(
        self,
        graph,
        strategy_factory,
        interner,
        primitives,
        aggregation_views,
        cached_uids,
        sink=None,
        root_words=None,
        collect=None,
    ) -> StepOutcome:
        cost = self.cost_model

        def new_strategy(metrics: Metrics):
            strategy = strategy_factory(graph, metrics, interner)
            strategy.configure_kernel(gallop_crossover=cost.gallop_crossover)
            return strategy

        metrics = Metrics()
        strategy = new_strategy(metrics)
        plan = plan_step(strategy, graph, primitives, collect, root_words, cost)
        counted = run_counting(plan, graph, 1, cost, new_strategy)
        metrics.merge(plan.booked)
        outcome = run_in_process(
            strategy,
            metrics,
            plan,
            counted,
            graph,
            interner,
            primitives,
            aggregation_views,
            cached_uids,
            sink,
            root_words,
            cost,
        )
        outcome.backend_info = {"backend": self.name}
        if plan.kind != "enumerate":
            outcome.backend_info[COUNTED_FLAGS[plan.kind]] = True
        return outcome


class SimulatorBackend(ExecutionBackend):
    """The deterministic simulated cluster behind the backend seam."""

    name = "simulator"

    def __init__(self, config: ClusterConfig):
        self.config = config
        self._engine = ClusterEngine(config)

    def run_step(
        self,
        graph,
        strategy_factory,
        interner,
        primitives,
        aggregation_views,
        cached_uids,
        sink=None,
        root_words=None,
        collect=None,
    ) -> StepOutcome:
        config = self.config
        cost = config.cost_model

        def new_strategy(metrics: Metrics):
            strategy = strategy_factory(graph, metrics, interner)
            strategy.configure_kernel(
                config.pattern_kernel, config.order_policy, cost.gallop_crossover
            )
            return strategy

        if config.fault_plan is not None or config.fail_at:
            reason = "fault injection configured (recovery needs enumerators)"
        elif config.partition is not None:
            reason = PARTITIONED_REASON
        else:
            reason = None
        plan = plan_step(
            new_strategy(Metrics()),
            graph,
            primitives,
            collect,
            root_words,
            cost,
            reason,
        )
        # Counting plans split their roots round-robin across the
        # configured cores — the same unit the engine distributes — and
        # the simulated makespan is the busiest core.
        counted = run_counting(
            plan, graph, config.total_cores, cost, new_strategy
        )
        info: Dict[str, object] = {
            "backend": self.name,
            "workers": config.workers,
            "cores_per_worker": config.cores_per_worker,
        }
        if counted is not None:
            metrics, chunk_units = counted
            metrics.merge(plan.booked)
            makespan_units = max(chunk_units, default=0.0)
            info[COUNTED_FLAGS[plan.kind]] = True
            return StepOutcome(
                storages={},
                metrics=metrics,
                work_units=makespan_units,
                simulated_seconds=cost.seconds(makespan_units),
                kernel_info=plan.kernel_info,
                backend_info=info,
            )
        result = self._engine.run_step(
            graph,
            strategy_factory,
            interner,
            primitives,
            aggregation_views,
            cached_uids,
            sink=sink,
            root_words=root_words,
        )
        result.metrics.merge(plan.booked)
        if result.partition_info is not None:
            info["partition"] = result.partition_info
        return StepOutcome(
            storages=result.storages,
            metrics=result.metrics,
            work_units=result.makespan_units,
            simulated_seconds=result.makespan_seconds,
            cluster=result,
            kernel_info=plan.kernel_info,
            backend_info=info,
        )

    def setup_seconds(self) -> float:
        if self.config.include_setup_overhead:
            return self.config.cost_model.setup_overhead_s
        return 0.0


def resolve_backend(
    engine: Union[str, ClusterConfig, object],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ExecutionBackend:
    """Build the backend an engine spec names.

    ``"sequential"`` -> :class:`SequentialBackend`; a
    :class:`ClusterConfig` -> :class:`SimulatorBackend`; a
    :class:`~repro.runtime.mp_backend.MultiprocessConfig` ->
    ``MultiprocessBackend``.  Anything else raises ``ValueError``.

    On platforms without the ``fork`` start method a
    ``MultiprocessConfig`` cannot run real workers; with
    ``degrade="auto"`` (the default) the step degrades to
    :class:`SequentialBackend` under a ``RuntimeWarning`` naming the
    platform, with ``degrade="never"`` the same message raises.
    """
    from .mp_backend import (
        MultiprocessBackend,
        MultiprocessConfig,
        fork_unavailable_message,
    )

    if isinstance(engine, ClusterConfig):
        return SimulatorBackend(engine)
    if isinstance(engine, MultiprocessConfig):
        if "fork" not in multiprocessing.get_all_start_methods():
            message = fork_unavailable_message()
            if engine.degrade == "never":
                raise RuntimeError(message)
            warnings.warn(
                "degrading to sequential execution: " + message,
                RuntimeWarning,
                stacklevel=2,
            )
            return SequentialBackend(engine.cost_model)
        return MultiprocessBackend(engine)
    if engine == "sequential":
        return SequentialBackend(cost_model)
    raise ValueError(f"unknown engine {engine!r}")
