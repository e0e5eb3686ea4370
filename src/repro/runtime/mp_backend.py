"""Real-parallel execution backend: supervised workers over shared memory.

Everything before this module *simulates* Fractal's cluster; this
backend actually uses the hardware.  One fractal step runs as
``num_procs`` OS processes, each executing the same sequential DFS
executor (:func:`~repro.runtime.engine.run_step_sequential`) over a
slice of the level-0 extension words — the exact decomposition the
paper's system initialization performs (§4.2: level-0 subgraphs are
partitioned across workers, everything deeper stays where it started).

**Shared graph, one materialization.**  The driver packs the graph's
int64 columns into a single ``multiprocessing.shared_memory`` segment
(:class:`~repro.graph.shm.SharedGraphBuffers`) once per backend; every
worker attaches the same segment and reads the CSR through zero-copy
memoryview slices.  Worker count does not multiply graph memory.

**Fork only.**  Fractal applications are built from closures (motif
aggregation lambdas, filter functions); closures do not pickle, so a
``spawn``/``forkserver`` child could never receive the step's
primitives.  Under ``fork`` the child inherits them — along with the
aggregation views, the chunk lists and the shared-segment handle —
without serialization.  Platforms without ``fork`` degrade to the
sequential backend with a warning (see
:func:`~repro.runtime.backend.resolve_backend`), or raise when
``degrade="never"``.

**Supervised chunk leases.**  The root words are split into chunks and
the driver runs a supervision loop instead of a blocking join: each
worker holds at most one chunk *lease* at a time, announced progress
flows back on the result queue (heartbeats, lease starts, per-chunk
results), and a chunk is only *retired* when its results arrive.  Every
decision of that loop lives in the pure
:class:`~repro.runtime.leases.LeaseTable`; this module is the process
shell that forks, kills, sleeps and reads the queue on its behalf.  The
table distinguishes three ways a worker stops cooperating:

* **crash** — the process died (OOM kill, segfault, unhandled error);
* **hang** — a lease outlived ``worker_timeout`` and heartbeats went
  silent (the process is frozen);
* **straggler** — a lease outlived ``worker_timeout`` while heartbeats
  kept flowing (the process is alive but stuck or its result message
  was lost).

A lost worker is SIGKILLed and reaped; its unacknowledged lease is
re-enqueued and the slot is respawned (fresh fork, bounded by
``max_worker_retries`` per slot, with exponential backoff between
respawns).  A chunk that repeatedly kills its workers is *quarantined*
after ``max_chunk_retries`` revocations and re-executed in-driver on
the sequential path — the graceful-degradation rung for poison work.
If every slot exhausts its respawn budget the whole remainder of the
step degrades to in-driver sequential execution with a warning
(``degrade="auto"``) or raises (``degrade="never"``).  Because a chunk
is retired exactly once — results ship as per-chunk deltas and
duplicates from twice-executed chunks are dropped by the acknowledgment
set — aggregate results under any survivable fault schedule are
byte-identical to a fault-free run.

**Real fault injection.**  A :class:`~repro.runtime.faults.FaultPlan`'s
``mp_*`` sections drive actual process misbehaviour for chaos testing:
self-``SIGKILL`` after N chunks, injected sleeps and ``SIGSTOP``
freezes, dropped result messages and poison chunks.  Faults apply to
generation-0 workers only (respawned replacements run clean), so every
survivable schedule terminates.

**Work distribution.**  Without a partition, chunks are round-robin
slices of the root words and any idle worker receives the next pending
chunk — cheap dynamic balancing at lease granularity.  With a
partition strategy from :mod:`repro.graph.partition`, each chunk is
owned by its partition's worker slot and is only leased elsewhere after
the owner slot is abandoned, so fault-free partitioned runs keep the
exact static placement (and local/remote fetch metering) of the
unsupervised backend.

**Result shipping.**  Workers and the driver's in-driver rung run chunks
through one :class:`_ChunkRunner`, which yields one payload per chunk:
the chunk's aggregation ``entries()`` pairs plus a *delta* metrics
snapshot covering exactly that chunk's work.  The driver rebuilds
per-chunk storages and k-way merges them in chunk-index order —
deterministic regardless of which worker ran which chunk, and immune to
double-counting when a chunk is executed twice.

**Known limit.**  A worker SIGKILLed in the middle of a result-queue
``put`` can leave the queue's cross-process lock held; survivors then
stall, trip their lease timeouts and the step walks down the
degradation ladder to the in-driver path.  Results stay correct; only
wall-clock suffers.  (Injected kills fire at chunk boundaries, outside
``put``, so chaos schedules do not hit this by construction.)
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_lib
import signal
import sys
import threading
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.aggregation import merge_storages_streaming
from ..core.computation import Computation
from ..core.enumerator import _check_kernel, _check_policy
from ..core.primitives import Expand, Primitive
from ..core.subgraph import SubgraphResult
from ..graph.graph import Graph
from ..graph.partition import PARTITION_STRATEGIES, partition_graph
from ..graph.shm import SharedGraphBuffers
from ..pattern.pattern import PatternInterner
from .backend import (
    COUNTED_FLAGS,
    PARTITIONED_REASON,
    ExecutionBackend,
    StepOutcome,
    plan_step,
    run_counting,
    run_in_process,
)
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .engine import new_storages, run_step_sequential
from .faults import FaultPlan
from .leases import LeaseTable
from .metrics import Metrics

__all__ = ["MultiprocessConfig", "MultiprocessBackend"]

# Chunks per worker slot and step: enough leases to balance load
# dynamically, few enough that per-chunk payloads stay cheap.
CHUNKS_PER_PROC = 8
# Worker heartbeat period in seconds, clamped to a quarter of the
# worker timeout so a live worker always beats before its lease is due.
HEARTBEAT_INTERVAL = 0.25
_RECOVERY_COUNTERS = (
    "workers_lost",
    "workers_respawned",
    "chunks_reexecuted",
    "chunks_quarantined",
)


@dataclass(frozen=True)
class MultiprocessConfig:
    """Shape of a real-parallel execution.

    ``partition=None`` (default) distributes chunk leases dynamically;
    a strategy name from ``PARTITION_STRATEGIES`` pins each chunk to its
    owner's worker slot and turns on local/remote adjacency-fetch
    metering.  ``pattern_kernel``/``order_policy`` are forwarded to each
    worker's strategy exactly as ``ClusterConfig`` forwards them to
    simulated cores.

    Fault-tolerance knobs: ``worker_timeout`` bounds how long a chunk
    lease may stay unacknowledged before its worker is declared lost;
    ``max_worker_retries`` bounds respawns per worker slot;
    ``max_chunk_retries`` bounds re-leases per chunk before it is
    quarantined to the driver's sequential path; ``degrade`` selects
    whether unavailable fork/shared-memory or total worker loss falls
    back to sequential execution with a warning (``"auto"``) or raises
    (``"never"``).  ``fault_plan`` injects *real* process faults from
    its ``mp_*`` sections (chaos testing); simulated-clock sections are
    ignored here.
    """

    num_procs: int = 2
    partition: Optional[str] = None
    cost_model: CostModel = DEFAULT_COST_MODEL
    pattern_kernel: str = "legacy"
    order_policy: Optional[str] = None
    worker_timeout: float = 30.0
    max_worker_retries: int = 2
    max_chunk_retries: int = 2
    degrade: str = "auto"
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {self.num_procs!r}")
        if self.partition is not None and self.partition not in PARTITION_STRATEGIES:
            raise ValueError(
                f"partition must be None or one of {PARTITION_STRATEGIES}, "
                f"got {self.partition!r}"
            )
        _check_kernel(self.pattern_kernel)
        if self.order_policy is not None:
            _check_policy(self.order_policy)
        if not self.worker_timeout > 0:
            raise ValueError(
                f"worker_timeout must be positive, got {self.worker_timeout!r}"
            )
        if self.max_worker_retries < 0:
            raise ValueError("max_worker_retries must be >= 0")
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        if self.degrade not in ("auto", "never"):
            raise ValueError(
                f"degrade must be 'auto' or 'never', got {self.degrade!r}"
            )
        if self.fault_plan is not None:
            self.fault_plan.validate_mp(self.num_procs)


class _ChunkRunner:
    """Runs one step's chunks on one strategy, one payload per chunk.

    Forked workers and the driver's quarantine/degradation rung both run
    chunks here, so assembly cannot tell driver-run chunks from
    worker-run ones.
    """

    def __init__(self, strategy, computation, primitives, cached_uids, collect):
        self.strategy = strategy
        self.computation = computation
        self.primitives = primitives
        self.cached_uids = cached_uids
        self.collect = collect
        self._baseline: Dict[str, float] = {}

    def run(self, words: List[int]) -> dict:
        frozen: Optional[List[SubgraphResult]] = None
        if self.collect == "subgraphs":
            frozen = []

            def sink(subgraph):
                frozen.append(subgraph.freeze())
        elif self.collect == "count":
            def sink(subgraph):
                pass  # counted via metrics.results_emitted
        else:
            sink = None
        storages = run_step_sequential(
            self.strategy,
            self.primitives,
            self.computation,
            self.cached_uids,
            sink=sink,
            root_words=words,
        )
        return {
            "entries": {
                uid: list(storage.entries()) for uid, storage in storages.items()
            },
            "metrics": self.delta(),
            "subgraphs": frozen,
        }

    def delta(self) -> Dict[str, float]:
        """Counters since the previous call (one chunk, or the exit residual)."""
        metrics = self.computation.metrics
        delta = metrics.delta(self._baseline)
        self._baseline = metrics.snapshot()
        return delta


class MultiprocessBackend(ExecutionBackend):
    """Run fractal steps on supervised worker processes over shared memory."""

    name = "multiprocess"

    def __init__(self, config: MultiprocessConfig):
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(fork_unavailable_message())
        self.config = config
        self._ctx = multiprocessing.get_context("fork")
        # One shared segment per graph, reused across the steps of an
        # execution (and across executions on the same graph object).
        self._shared: Optional[SharedGraphBuffers] = None
        self._shared_graph_id: Optional[int] = None

    # ------------------------------------------------------------------
    def _shared_for(self, graph: Graph) -> SharedGraphBuffers:
        if self._shared is None or self._shared_graph_id != id(graph):
            self.close()
            self._shared = SharedGraphBuffers(graph)
            self._shared_graph_id = id(graph)
        return self._shared

    def close(self) -> None:
        shared, self._shared = self._shared, None
        self._shared_graph_id = None
        if shared is not None:
            shared.unlink()

    # ------------------------------------------------------------------
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
        started = time.perf_counter()

        def new_strategy(metrics: Metrics, run_graph=graph, run_interner=interner):
            strategy = strategy_factory(run_graph, metrics, run_interner)
            strategy.configure_kernel(
                config.pattern_kernel, config.order_policy, cost.gallop_crossover
            )
            return strategy

        def new_runner(run_graph, slot: Optional[int] = None) -> _ChunkRunner:
            # A fresh interner per runner, as each worker process has.
            # Fetch metering needs a partition owner; the driver is none.
            metrics = Metrics()
            run_interner = PatternInterner()
            strategy = new_strategy(metrics, run_graph, run_interner)
            if slot is not None and word_owner is not None:
                _wrap_push_with_fetch_meter(strategy, word_owner, slot, metrics)
            computation = Computation(
                run_graph, metrics, run_interner, aggregation_views
            )
            return _ChunkRunner(
                strategy, computation, primitives, cached_uids, collect
            )

        # Root probing is setup (as in the simulator's _distribute_roots):
        # metered separately, merged into the step totals at the end, so
        # counter totals match the sequential engine's exactly.
        setup_metrics = Metrics()
        parent_strategy = new_strategy(setup_metrics)
        if config.fault_plan is not None:
            reason = (
                "mp fault plan configured (fault injection needs "
                "worker enumeration)"
            )
        elif config.partition is not None:
            reason = PARTITIONED_REASON
        else:
            reason = None
        plan = plan_step(
            parent_strategy, graph, primitives, collect, root_words, cost, reason
        )
        # Counting plans run in the driver, not in workers: the collapsed
        # walks are far below the fork/shared-memory setup cost the
        # worker fleet would have to amortize.  A tripped decomposition
        # is quarantined under degrade="auto"; degrade="never" asks for
        # hard failures instead.
        counted = run_counting(
            plan,
            graph,
            1,
            cost,
            new_strategy,
            reraise=config.degrade == "never",
        )
        setup_metrics.merge(plan.booked)

        def in_driver(flag: str, words) -> StepOutcome:
            # Same process: the driver-provided sink runs here exactly
            # as on the sequential backend.
            outcome = run_in_process(
                parent_strategy,
                setup_metrics,
                plan,
                counted,
                graph,
                interner,
                primitives,
                aggregation_views,
                cached_uids,
                sink,
                words,
                cost,
            )
            outcome.backend_info = {
                "backend": self.name,
                "num_procs": config.num_procs,
                flag: True,
                "wall_seconds": time.perf_counter() - started,
            }
            return outcome

        if counted is not None:
            return in_driver(COUNTED_FLAGS[plan.kind] + "_in_driver", None)

        if not any(isinstance(p, Expand) for p in primitives):
            # Degenerate step without extension: one evaluation of the
            # pipeline over the empty subgraph — nothing to parallelize.
            return in_driver("inline", root_words)
        if root_words is None:
            words = list(
                parent_strategy.extensions(parent_strategy.make_subgraph())
            )
        else:
            words = list(root_words)
        if not words:
            return in_driver("inline", words)

        n_procs = config.num_procs
        partition_info: Optional[Dict[str, object]] = None
        word_owner: Optional[Callable[[int], int]] = None
        if config.partition is not None:
            graph_partition = partition_graph(graph, config.partition, n_procs)
            word_owner = graph_partition.word_owner(graph, parent_strategy.mode)
            partition_info = graph_partition.summary(graph)
            # Owner-pinned chunks: each worker enumerates from the roots
            # it owns (remote fetches happen only when the DFS wanders
            # across the cut); leases move off the owner slot only when
            # that slot is abandoned after repeated deaths.
            assignments: List[List[int]] = [[] for _ in range(n_procs)]
            for word in words:
                assignments[word_owner(word)].append(word)
            chunk_lists: List[List[int]] = []
            chunk_owner: List[Optional[int]] = []
            for slot, owned in enumerate(assignments):
                k = min(len(owned), CHUNKS_PER_PROC)
                for i in range(k):
                    chunk_lists.append(owned[i::k])
                    chunk_owner.append(slot)
        else:
            n = min(len(words), n_procs * CHUNKS_PER_PROC)
            chunk_lists = [words[i::n] for i in range(n)]
            chunk_owner = [None] * n

        try:
            shared = self._shared_for(graph)
        except OSError as exc:
            message = (
                f"shared-memory segment creation failed ({exc}); "
                "the multiprocess backend cannot share the graph"
            )
            if config.degrade == "never":
                raise RuntimeError(message)
            warnings.warn(
                "degrading to sequential execution: " + message,
                RuntimeWarning,
                stacklevel=2,
            )
            outcome = in_driver("inline", words)
            outcome.backend_info["degraded_to"] = "sequential"
            return outcome

        table = LeaseTable(
            n_procs,
            chunk_owner,
            config.worker_timeout,
            config.max_worker_retries,
            config.max_chunk_retries,
        )
        degraded = self._supervise(table, shared, chunk_lists, new_runner)
        driver_chunks = table.driver_chunks()
        if degraded:
            message = (
                "all multiprocess worker slots exhausted their respawn "
                f"budget ({config.max_worker_retries} per slot); "
                f"re-executing {len(driver_chunks)} chunks "
                "in-driver on the sequential path"
                + (
                    f"\nlast worker error:\n{table.last_error}"
                    if table.last_error
                    else ""
                )
            )
            if config.degrade == "never":
                raise RuntimeError(message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
        if driver_chunks:
            runner = new_runner(graph)
            for cidx in driver_chunks:
                table.ack(cidx, runner.run(chunk_lists[cidx]))

        return self._assemble(
            primitives,
            cached_uids,
            table,
            setup_metrics,
            degraded,
            plan.kernel_info,
            partition_info,
            shared,
            collect,
            cost,
            started,
        )

    # ------------------------------------------------------------------
    def _supervise(
        self,
        table: LeaseTable,
        shared: SharedGraphBuffers,
        chunk_lists: List[List[int]],
        new_runner,
    ) -> bool:
        """Carry out ``table``'s decisions on real processes.

        Returns True when every slot was abandoned with chunks left — the
        step must degrade to in-driver execution.
        """
        config = self.config
        result_queue = self._ctx.Queue()
        beat_interval = max(
            0.02, min(HEARTBEAT_INTERVAL, config.worker_timeout / 4.0)
        )
        # (slot, generation) -> (process, its private task queue)
        workers: Dict[Tuple[int, int], Tuple[object, object]] = {}

        def spawn(slot: int, gen: int) -> None:
            # A fresh task queue per incarnation: a replacement never
            # inherits a queue whose lock a killed predecessor held.
            task_queue = self._ctx.SimpleQueue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    (slot, gen),
                    task_queue,
                    result_queue,
                    shared,
                    new_runner,
                    chunk_lists,
                    config.fault_plan,
                    beat_interval,
                ),
                daemon=True,
            )
            proc.start()
            workers[(slot, gen)] = (proc, task_queue)
            table.spawned(slot, gen, time.monotonic())

        def lose(slot: int, reason: str) -> None:
            gen = table.live[slot]
            backoff = table.lose(slot, reason)
            _kill_process(workers[(slot, gen)][0])
            if backoff is not None:
                time.sleep(backoff)
                spawn(slot, gen + 1)

        def dispatch() -> None:
            for slot, cidx in table.dispatch(time.monotonic()):
                workers[(slot, table.live[slot])][1].put(cidx)

        poll = max(0.01, min(0.1, config.worker_timeout / 20.0))
        try:
            for slot in range(config.num_procs):
                spawn(slot, 0)
            dispatch()
            while table.unresolved and table.live:
                try:
                    message = result_queue.get(timeout=poll)
                except queue_lib.Empty:
                    message = None
                now = time.monotonic()
                if message is not None:
                    crashed = table.receive(message, now)
                    if crashed is not None:
                        lose(crashed, "crash")
                for slot, gen in list(table.live.items()):
                    alive = workers[(slot, gen)][0].is_alive()
                    reason = table.classify(slot, alive, now)
                    if reason is not None:
                        lose(slot, reason)
                dispatch()
            # With chunks unresolved the loop only ends when no live slot
            # is left: the last rung of the degradation ladder.
            degraded = bool(table.unresolved)
        finally:
            self._shutdown(table, workers, result_queue)
        return degraded

    def _shutdown(self, table: LeaseTable, workers, result_queue) -> None:
        """Clean shutdown: signal, drain with a deadline, terminate-and-reap.

        Never blocks indefinitely — a wedged worker is terminated and,
        failing that, SIGKILLed, so Ctrl-C and test teardown cannot
        deadlock on ``join``.  Results drained here still ack chunks.
        """
        waiting = list(table.live.items())
        for key in waiting:
            try:
                workers[key][1].put(None)
            except Exception:
                pass
        deadline = time.monotonic() + max(1.0, min(self.config.worker_timeout, 5.0))
        while waiting and time.monotonic() < deadline:
            try:
                table.receive(result_queue.get(timeout=0.05), time.monotonic())
            except queue_lib.Empty:
                waiting = [key for key in waiting if workers[key][0].is_alive()]
            waiting = [key for key in waiting if key not in table.walls]
        for proc, _ in workers.values():
            proc.join(timeout=0.2)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=0.5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)

    # ------------------------------------------------------------------
    def _assemble(
        self,
        primitives: Sequence[Primitive],
        cached_uids,
        table: LeaseTable,
        setup_metrics: Metrics,
        degraded: bool,
        kernel_info,
        partition_info,
        shared: SharedGraphBuffers,
        collect: Optional[str],
        cost: CostModel,
        started: float,
    ) -> StepOutcome:
        """Driver-side merge of chunk payloads, in chunk-index order."""
        acked = table.acked
        n_chunks = len(table.chunk_owner)
        if len(acked) != n_chunks:
            missing = sorted(set(range(n_chunks)) - set(acked))
            raise RuntimeError(
                f"multiprocess supervision lost chunks {missing}; this is a "
                "bug — every chunk must be acked or quarantined"
            )
        order = sorted(acked)
        per_chunk: List[Dict[int, object]] = []
        for cidx in order:
            rebuilt = new_storages(primitives, cached_uids)
            for uid, pairs in acked[cidx]["entries"].items():
                rebuilt[uid].merge_pairs(pairs)
            per_chunk.append(rebuilt)
        uids = list(per_chunk[0]) if per_chunk else []
        merged = {
            uid: merge_storages_streaming([c[uid] for c in per_chunk])
            for uid in uids
        }
        total_metrics = Metrics()
        total_metrics.merge(setup_metrics)
        for cidx in order:
            total_metrics.merge(
                Metrics.from_snapshot(acked[cidx]["metrics"])
            )
        for snapshot in table.residuals:
            total_metrics.merge(Metrics.from_snapshot(snapshot))
        total_metrics.merge(table.recovery)
        subgraphs: Optional[List[SubgraphResult]] = None
        if collect == "subgraphs":
            subgraphs = []
            for cidx in order:
                subgraphs.extend(acked[cidx]["subgraphs"] or [])
        units = cost.step_units(total_metrics)
        wall = time.perf_counter() - started
        info: Dict[str, object] = {
            "backend": self.name,
            "num_procs": self.config.num_procs,
            "start_method": "fork",
            "wall_seconds": wall,
            "worker_wall_seconds": [
                table.walls[key] for key in sorted(table.walls)
            ],
            "chunks": n_chunks,
            "shared_graph_bytes": shared.nbytes,
            **{name: getattr(table.recovery, name) for name in _RECOVERY_COUNTERS},
            "worker_deaths": dict(table.deaths),
        }
        if degraded:
            info["degraded_to"] = "sequential"
        if partition_info is not None:
            info["partition"] = partition_info
        return StepOutcome(
            storages=merged,
            metrics=total_metrics,
            work_units=units,
            simulated_seconds=cost.seconds(units),
            kernel_info=kernel_info,
            backend_info=info,
            subgraphs=subgraphs,
        )


def _worker_main(
    key: Tuple[int, int],
    task_queue,
    result_queue,
    shared: SharedGraphBuffers,
    new_runner,
    chunk_lists: List[List[int]],
    plan: Optional[FaultPlan],
    beat_interval: float,
) -> None:
    """Body of worker incarnation ``key = (slot, generation)``.

    Runs leased chunks until the ``None`` sentinel, reporting on
    ``result_queue`` in the message format :meth:`LeaseTable.receive`
    reads.
    """
    worker_started = time.perf_counter()
    slot, gen = key
    stop_beats = threading.Event()

    def beat() -> None:
        while not stop_beats.wait(beat_interval):
            try:
                result_queue.put(("hb", key))
            except Exception:
                return

    heartbeats = threading.Thread(target=beat, daemon=True)
    heartbeats.start()

    def signal_self(signum: int) -> None:
        # Stop heartbeats first so the signal cannot land inside a
        # heartbeat put() holding the queue's cross-process lock.
        stop_beats.set()
        heartbeats.join(timeout=1.0)
        os.kill(os.getpid(), signum)

    # Injected faults hit generation 0 only, except poison chunks, which
    # kill whichever incarnation leases them.
    plan = plan if plan is not None else FaultPlan()
    poison = {p.chunk_index for p in plan.mp_poison_chunks}
    first = gen == 0
    kills = [k for k in plan.mp_worker_kills if first and k.worker_id == slot]
    stalls = [s for s in plan.mp_worker_stalls if first and s.worker_id == slot]
    drops = {
        d.chunk_number
        for d in plan.mp_drop_results
        if first and d.worker_id == slot
    }
    try:
        runner = new_runner(shared.attach(), slot)
        chunks_done = 0
        while True:
            cidx = task_queue.get()
            if cidx is None:
                report = {
                    "metrics": runner.delta(),
                    "wall": time.perf_counter() - worker_started,
                }
                result_queue.put(("done", key, report))
                return
            if cidx in poison or any(chunks_done >= k.after_chunks for k in kills):
                signal_self(signal.SIGKILL)
            for stall in stalls:
                if stall.after_chunks == chunks_done:
                    if stall.freeze:
                        signal_self(signal.SIGSTOP)
                    else:
                        time.sleep(stall.seconds)
            result_queue.put(("lease", key, cidx))
            payload = runner.run(chunk_lists[cidx])
            if chunks_done not in drops:
                result_queue.put(("chunk", key, cidx, payload))
            chunks_done += 1
    except Exception:
        try:
            result_queue.put(("error", key, traceback.format_exc()))
        except Exception:
            pass
    finally:
        stop_beats.set()


def fork_unavailable_message() -> str:
    """Actionable error for platforms without the ``fork`` start method."""
    methods = multiprocessing.get_all_start_methods()
    return (
        "the multiprocess backend requires the 'fork' start method "
        "(fractal primitives are closures and do not pickle), but this "
        f"platform ({sys.platform!r}) only provides {methods!r}; "
        "use --backend simulator (engine=ClusterConfig(...)) for "
        "deterministic parallelism, or --backend sequential"
    )


def _kill_process(proc) -> None:
    """SIGKILL one worker and reap it; works on SIGSTOPped processes too."""
    try:
        if proc.is_alive():
            proc.kill()
    except Exception:
        pass
    proc.join(timeout=2.0)


def _wrap_push_with_fetch_meter(
    strategy,
    word_owner: Callable[[int], int],
    worker_id: int,
    metrics: Metrics,
) -> None:
    """Count local/remote adjacency fetches on every word push.

    Pushing a word reads its adjacency list to extend the subgraph; when
    the word's partition owner is another worker, a distributed
    deployment would fetch that list across the interconnect.  The
    wrapper shadows the bound ``push`` with an instance attribute — the
    strategy's behavior is unchanged, only the counters move (and with
    them the cost model's ``remote_fetch_units`` pricing).
    """
    original_push = strategy.push

    def metered_push(subgraph, word):
        if word_owner(word) == worker_id:
            metrics.local_adjacency_fetches += 1
        else:
            metrics.remote_adjacency_fetches += 1
        return original_push(subgraph, word)

    strategy.push = metered_push
