"""Unit tests of the multiprocess supervision state machine.

:class:`~repro.runtime.leases.LeaseTable` takes the clock and process
liveness as arguments, so every scenario here replays a schedule on a
fake clock: no fork, no signals, no sleeping.  The real-process chaos
tests in ``test_mp_fault_tolerance.py`` check the shell around it.
"""

import ast
from pathlib import Path

import pytest

from repro.runtime import leases
from repro.runtime.leases import LeaseTable

TIMEOUT = 10.0


def _table(owners, n_slots=2, worker_retries=2, chunk_retries=2):
    table = LeaseTable(n_slots, owners, TIMEOUT, worker_retries, chunk_retries)
    for slot in range(n_slots):
        table.spawned(slot, 0, now=0.0)
    return table


def _result(table, key, cidx, payload="p", now=1.0):
    return table.receive(("chunk", key, cidx, payload), now)


def test_imports_no_process_or_clock_module():
    tree = ast.parse(Path(leases.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"__future__", "collections", "typing", "metrics"}


class TestClassification:
    @pytest.mark.parametrize(
        "now,last_beat,expected",
        [
            (TIMEOUT, None, None),  # lease exactly at the deadline
            (TIMEOUT + 0.5, None, "hang"),  # silent since spawn
            (TIMEOUT + 0.5, TIMEOUT / 2.0 + 0.75, "straggler"),
            (TIMEOUT + 0.5, TIMEOUT / 2.0 + 0.5, "straggler"),  # silent == half
            (TIMEOUT + 0.5, TIMEOUT / 2.0 + 0.25, "hang"),  # silent > half
        ],
    )
    def test_deadline_and_heartbeat_sides(self, now, last_beat, expected):
        table = _table([None])
        assert table.dispatch(0.0) == [(0, 0)]
        if last_beat is not None:
            table.receive(("hb", (0, 0)), last_beat)
        assert table.classify(0, True, now) == expected

    def test_dead_process_is_a_crash_with_or_without_lease(self):
        table = _table([None])
        assert table.classify(1, False, 0.0) == "crash"
        table.dispatch(0.0)
        assert table.classify(0, False, 0.0) == "crash"

    def test_idle_worker_never_expires(self):
        table = _table([])
        assert table.classify(0, True, 1e9) is None

    def test_lost_incarnation_messages_do_not_refresh(self):
        table = _table([None, None])
        table.dispatch(0.0)
        assert table.lose(0, "hang") is not None
        table.spawned(0, 1, now=1.0)
        table.dispatch(1.0)
        # A heartbeat from the killed generation 0 is not a sign of life
        # for generation 1.
        table.receive(("hb", (0, 0)), 9.0)
        assert table.classify(0, True, 11.5) == "hang"


class TestRespawnAndAbandon:
    def test_backoff_doubles_with_deaths(self):
        table = _table([None] * 8, n_slots=1, worker_retries=5)
        backoffs = []
        for gen in range(5):
            backoffs.append(table.lose(0, "crash"))
            table.spawned(0, gen + 1, now=0.0)
        assert backoffs == pytest.approx([0.02, 0.04, 0.08, 0.16, 0.32])
        assert table.recovery.workers_respawned == 5

    def test_budget_exhaustion_abandons_slot_and_orphans_its_chunks(self):
        owners = [0, 0, 0, 1, 1]
        table = _table(owners, worker_retries=1, chunk_retries=5)
        assert table.dispatch(0.0) == [(0, 0), (1, 3)]
        assert table.lose(0, "crash") is not None  # respawned
        table.spawned(0, 1, now=0.5)
        assert table.dispatch(0.5) == [(0, 0)]  # revoked chunk goes first
        assert table.lose(0, "crash") is None  # budget spent
        assert table.abandoned == {0}
        assert 0 not in table.live
        assert list(table.owned[0]) == []
        assert list(table.orphans) == [0, 1, 2]
        # The survivor finishes its own chunks before adopting orphans.
        _result(table, (1, 0), 3)
        assert table.dispatch(2.0) == [(1, 4)]
        _result(table, (1, 0), 4)
        assert table.dispatch(3.0) == [(1, 0)]
        assert table.recovery.workers_lost == 2
        assert table.recovery.workers_respawned == 1
        # Chunk 0 was leased again twice after revocations.
        assert table.recovery.chunks_reexecuted == 2

    def test_revoked_chunk_of_abandoned_owner_becomes_orphan(self):
        table = _table([0, 1], worker_retries=0)
        table.dispatch(0.0)
        assert table.lose(0, "straggler") is None
        assert list(table.orphans) == [0]
        assert table.deaths == {"crash": 0, "hang": 0, "straggler": 1}

    def test_no_live_slot_degrades_with_remaining_chunks(self):
        table = _table([None] * 4, n_slots=1, worker_retries=0)
        assert table.dispatch(0.0) == [(0, 0)]
        _result(table, (0, 0), 0)
        table.dispatch(1.0)
        assert table.lose(0, "crash") is None
        # The supervision loop runs while chunks are unresolved and a
        # slot is live; here it must stop and degrade.
        assert not table.live and table.unresolved == {1, 2, 3}
        assert table.driver_chunks() == [1, 2, 3]
        # Only chunk 1 had been revoked; 2 and 3 run for the first time.
        assert table.recovery.chunks_reexecuted == 1
        assert table.recovery.chunks_quarantined == 0


class TestQuarantine:
    def test_quarantined_after_max_chunk_retries(self):
        table = _table([None, None], n_slots=1, worker_retries=5, chunk_retries=1)
        for gen in range(2):
            assert table.dispatch(float(gen)) == [(0, 0)]
            table.lose(0, "crash")
            table.spawned(0, gen + 1, now=float(gen))
        assert table.quarantined == {0}
        assert table.unresolved == {1}
        assert table.dispatch(3.0) == [(0, 1)]  # poison never leased again
        _result(table, (0, 2), 1)
        assert not table.unresolved
        assert table.driver_chunks() == [0]
        assert table.recovery.chunks_quarantined == 1
        assert table.recovery.chunks_reexecuted == 1

    def test_error_message_reports_the_crashed_live_slot(self):
        table = _table([None])
        assert table.receive(("error", (0, 0), "tb"), 1.0) == 0
        assert table.receive(("error", (0, 7), "old"), 1.0) is None
        assert table.last_error == "old"


class TestExactlyOnce:
    def test_duplicate_result_acked_once(self):
        table = _table([None, None])
        table.dispatch(0.0)
        _result(table, (0, 0), 0, payload="first")
        _result(table, (0, 0), 0, payload="second")
        _result(table, (1, 0), 0, payload="third")
        assert table.acked == {0: "first"}
        assert table.unresolved == {1}

    def test_late_result_after_straggler_quarantine_resolves_once(self):
        # Revoke a straggler's lease with its chunk-retry budget spent,
        # then deliver the result that was already on the queue.
        table = _table([None, None], worker_retries=2, chunk_retries=0)
        assert table.dispatch(0.0) == [(0, 0), (1, 1)]
        table.receive(("hb", (1, 0)), 9.0)
        table.receive(("hb", (0, 0)), 9.0)
        assert table.classify(0, True, 10.5) == "straggler"
        table.lose(0, "straggler")
        assert table.quarantined == {0}
        _result(table, (0, 0), 0, now=10.6)
        # Chunk 1 is still leased to slot 1: the step is not finished.
        assert table.unresolved == {1}
        _result(table, (1, 0), 1, now=11.0)
        assert not table.unresolved
        assert table.driver_chunks() == []
        assert table.recovery.chunks_quarantined == 0

    def test_late_result_after_straggler_requeue_is_not_reexecuted(self):
        table = _table([None, None], worker_retries=2, chunk_retries=1)
        assert table.dispatch(0.0) == [(0, 0), (1, 1)]
        table.receive(("hb", (0, 0)), 9.0)
        assert table.classify(0, True, 10.5) == "straggler"
        table.lose(0, "straggler")
        table.spawned(0, 1, now=10.5)
        _result(table, (0, 0), 0, now=10.6)
        assert table.dispatch(10.6) == []  # requeued copy is skipped
        assert table.recovery.chunks_reexecuted == 0
        assert table.unresolved == {1}

    def test_revoking_an_acked_chunk_is_a_no_op(self):
        table = _table([None, None, None], worker_retries=2, chunk_retries=5)
        assert table.dispatch(0.0) == [(0, 0), (1, 1)]
        table.lose(0, "straggler")  # chunk 0 requeued at the front
        _result(table, (1, 0), 1)
        table.spawned(0, 1, now=1.0)
        # Idle slots are served in spawn order: slot 1, then respawned 0.
        assert table.dispatch(1.0) == [(1, 0), (0, 2)]
        # The first holder's late result acks chunk 0 while slot 1 still
        # runs it; losing slot 1's lease must not requeue chunk 0.
        _result(table, (0, 0), 0, now=2.0)
        table.lose(1, "crash")
        assert table.retries == {0: 1}
        assert 0 not in table.orphans
        assert table.unresolved == {2}
