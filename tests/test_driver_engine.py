"""Tests for the execution driver and sequential engine internals."""

import pytest

from repro import ClusterConfig, FractalContext
from repro.core import Computation, Expand, Filter, VertexInducedStrategy
from repro.graph import erdos_renyi_graph
from repro.pattern import PatternInterner
from repro.runtime import Metrics
from repro.runtime.driver import execute_plan
from repro.runtime.engine import run_step_sequential


@pytest.fixture
def graph():
    return erdos_renyi_graph(20, 50, seed=4)


class TestRunStepSequential:
    def test_root_words_restriction(self, graph):
        metrics = Metrics()
        interner = PatternInterner()
        strategy = VertexInducedStrategy(graph, metrics, interner)
        computation = Computation(graph, metrics, interner)
        emitted = []
        run_step_sequential(
            strategy,
            [Expand()],
            computation,
            cached_uids=set(),
            sink=lambda s: emitted.append(tuple(s.vertices)),
            root_words=[0, 1, 2],
        )
        assert sorted(emitted) == [(0,), (1,), (2,)]

    def test_empty_root_words(self, graph):
        metrics = Metrics()
        interner = PatternInterner()
        strategy = VertexInducedStrategy(graph, metrics, interner)
        computation = Computation(graph, metrics, interner)
        run_step_sequential(
            strategy, [Expand()], computation, set(), sink=None, root_words=[]
        )
        assert metrics.subgraphs_enumerated == 0

    def test_filter_short_circuits(self, graph):
        metrics = Metrics()
        interner = PatternInterner()
        strategy = VertexInducedStrategy(graph, metrics, interner)
        computation = Computation(graph, metrics, interner)
        emitted = []
        run_step_sequential(
            strategy,
            [Expand(), Filter(lambda s, c: False), Expand()],
            computation,
            set(),
            sink=lambda s: emitted.append(1),
        )
        assert not emitted
        assert metrics.filter_calls == graph.n_vertices
        assert metrics.filter_passed == 0


class TestExecutePlan:
    def test_unknown_engine_rejected(self, graph):
        with pytest.raises(ValueError):
            execute_plan(
                graph,
                VertexInducedStrategy,
                PatternInterner(),
                [Expand()],
                aggregation_cache={},
                engine="mystery",
            )

    def test_collect_none_keeps_no_subgraphs(self, graph):
        report = execute_plan(
            graph,
            VertexInducedStrategy,
            PatternInterner(),
            [Expand()],
            aggregation_cache={},
            collect=None,
        )
        assert report.subgraphs is None
        assert report.result_count == 0

    def test_collect_count(self, graph):
        report = execute_plan(
            graph,
            VertexInducedStrategy,
            PatternInterner(),
            [Expand()],
            aggregation_cache={},
            collect="count",
        )
        assert report.subgraphs is None
        assert report.result_count == graph.n_vertices

    def test_collect_subgraphs(self, graph):
        report = execute_plan(
            graph,
            VertexInducedStrategy,
            PatternInterner(),
            [Expand()],
            aggregation_cache={},
            collect="subgraphs",
        )
        assert len(report.subgraphs) == graph.n_vertices
        assert report.result_count == graph.n_vertices

    def test_wall_time_recorded(self, graph):
        report = execute_plan(
            graph,
            VertexInducedStrategy,
            PatternInterner(),
            [Expand(), Expand()],
            aggregation_cache={},
            collect="count",
        )
        # Tolerance, not an exact bound: coarse perf_counter resolution can
        # legally report ~0 for a fast run, so only reject negative times
        # and absurd jitter (a unit-scale run must not take a minute).
        assert report.wall_seconds == pytest.approx(0.0, abs=60.0)
        assert report.wall_seconds >= 0.0
        assert report.simulated_seconds > 0

    def test_setup_overhead_only_for_cluster(self, graph):
        sequential = execute_plan(
            graph,
            VertexInducedStrategy,
            PatternInterner(),
            [Expand()],
            aggregation_cache={},
            collect="count",
        )
        assert sequential.setup_seconds == 0.0
        cluster = execute_plan(
            graph,
            VertexInducedStrategy,
            PatternInterner(),
            [Expand()],
            aggregation_cache={},
            engine=ClusterConfig(workers=1, cores_per_worker=2),
            collect="count",
        )
        assert cluster.setup_seconds > 0


class TestStepReports:
    def test_description_strings(self, graph):
        fc = FractalContext()
        report = (
            fc.from_graph(graph)
            .vfractoid()
            .expand(1)
            .filter(lambda s, c: True)
            .execute(collect="count")
        )
        assert report.steps[0].description == "EF"

    def test_cluster_step_carries_core_data(self, graph):
        config = ClusterConfig(workers=1, cores_per_worker=2)
        report = (
            FractalContext(engine=config)
            .from_graph(graph)
            .vfractoid()
            .expand(2)
            .execute(collect="count")
        )
        step = report.steps[0]
        assert step.cluster is not None
        assert len(step.cluster.cores) == 2
        assert step.cluster.makespan_units > 0


class TestMetricsArithmetic:
    def test_cost_unit_counters_start_as_floats(self):
        snapshot = Metrics().snapshot()
        floats = {name for name, value in snapshot.items() if type(value) is float}
        assert floats == {
            "steal_work_units",
            "agg_ship_units",
            "agg_combine_units",
            "detection_latency_units",
            "wasted_work_units",
            "parked_units",
        }
        assert all(value == 0 for value in snapshot.values())

    def test_merge_sums_counters_and_maxes_peaks(self):
        total, part = Metrics(), Metrics()
        total.extension_tests, part.extension_tests = 3, 4
        total.peak_enumerator_bytes, part.peak_enumerator_bytes = 10, 7
        part.parked_units = 1.5
        total.merge(part)
        assert total.extension_tests == 7
        assert total.peak_enumerator_bytes == 10
        assert total.parked_units == 1.5

    def test_delta_ships_differences_and_absolute_peaks(self):
        metrics = Metrics()
        metrics.extension_tests = 5
        metrics.peak_aggregation_entries = 9
        before = metrics.snapshot()
        metrics.extension_tests = 8
        delta = metrics.delta(before)
        assert delta["extension_tests"] == 3
        assert delta["peak_aggregation_entries"] == 9
        assert metrics.delta({}) == metrics.snapshot()
