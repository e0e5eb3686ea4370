"""The chunk lease table: every supervision decision of a multiprocess step.

:class:`~repro.runtime.mp_backend.MultiprocessBackend` splits a step's
root words into chunks and leases them to forked worker processes.  This
module holds the state machine behind that loop and nothing else: it
forks, kills, sleeps and reads no clock.  Time enters as the ``now``
argument, process liveness as the ``alive`` argument, so the whole
protocol runs in unit tests on a fake clock.

Worker incarnations are keyed ``(slot, generation)``; a slot's
generation grows with every respawn.  The transitions:

* :meth:`LeaseTable.dispatch` leases the next chunk to every idle live
  slot — first from the slot's own queue, then from the ownerless
  *orphan* queue.  Unpartitioned chunks are all ownerless; a partitioned
  chunk is owned by its partition's slot until that slot is abandoned.
* :meth:`LeaseTable.receive` applies one worker message.  A chunk result
  *acks* the chunk, first delivery wins; duplicates are dropped, so a
  chunk executed twice is counted once.
* :meth:`LeaseTable.classify` names a lost incarnation: **crash** (the
  process died), **hang** (its lease outlived ``worker_timeout`` and its
  messages went silent for half that) or **straggler** (lease overdue,
  messages still flowing).
* :meth:`LeaseTable.lose` revokes the lost incarnation's lease and
  decides between a respawn (with exponential backoff, at most
  ``max_worker_retries`` per slot) and abandoning the slot, whose owned
  chunks then become orphans.  A revoked chunk goes back to the front of
  its queue, or into quarantine once revoked more than
  ``max_chunk_retries`` times; revoking an acked chunk does nothing.
* :meth:`LeaseTable.driver_chunks` lists what the driver must run itself
  once the loop ends: quarantined chunks, plus everything unacked when no
  live slot is left.

Recovery is booked once, in :attr:`LeaseTable.recovery` — a
:class:`~repro.runtime.metrics.Metrics` whose ``workers_lost``,
``workers_respawned``, ``chunks_reexecuted`` and ``chunks_quarantined``
counters the backend merges into the step's totals.  A chunk counts as
re-executed when it is leased or run in-driver again after a revocation,
so a late result that arrives after its lease was revoked saves the
re-execution and books none.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from .metrics import Metrics

__all__ = ["LeaseTable"]


class LeaseTable:
    """Pure supervision state of one multiprocess step.

    ``chunk_owner[c]`` is the worker slot that owns chunk ``c``, or
    ``None`` for an ownerless chunk any slot may lease.
    """

    def __init__(
        self,
        n_slots: int,
        chunk_owner: Sequence[Optional[int]],
        worker_timeout: float,
        max_worker_retries: int,
        max_chunk_retries: int,
    ):
        self.chunk_owner = list(chunk_owner)
        self.worker_timeout = worker_timeout
        self.max_chunk_retries = max_chunk_retries
        self.owned: List[Deque[int]] = [deque() for _ in range(n_slots)]
        self.orphans: Deque[int] = deque()
        for cidx, owner in enumerate(self.chunk_owner):
            (self.orphans if owner is None else self.owned[owner]).append(cidx)
        # slot -> generation of its running incarnation, in spawn order
        # (dispatch serves idle slots in this order).
        self.live: Dict[int, int] = {}
        self.leases: Dict[int, Tuple[int, float]] = {}  # slot -> (chunk, since)
        self.last_msg: Dict[int, float] = {}
        self.respawns_left = [max_worker_retries] * n_slots
        self.abandoned: Set[int] = set()
        self.acked: Dict[int, dict] = {}
        self.unresolved: Set[int] = set(range(len(self.chunk_owner)))
        self.retries: Dict[int, int] = {}
        self.quarantined: Set[int] = set()
        self.deaths = {"crash": 0, "hang": 0, "straggler": 0}
        self.recovery = Metrics()
        # Reports of incarnations that exited cleanly: wall time per
        # (slot, generation), and metrics counted outside any chunk.
        self.walls: Dict[Tuple[int, int], float] = {}
        self.residuals: List[Dict[str, float]] = []
        self.last_error: Optional[str] = None

    # ------------------------------------------------------------------
    def spawned(self, slot: int, gen: int, now: float) -> None:
        """Incarnation ``(slot, gen)`` started at ``now``."""
        self.live[slot] = gen
        self.last_msg[slot] = now

    def dispatch(self, now: float) -> List[Tuple[int, int]]:
        """Lease a chunk to every idle live slot; returns ``(slot, chunk)``."""
        leased = []
        for slot in self.live:
            if slot in self.leases:
                continue
            cidx = self._next_chunk(slot)
            if cidx is None:
                continue
            if self.retries.get(cidx):
                self.recovery.chunks_reexecuted += 1
            self.leases[slot] = (cidx, now)
            leased.append((slot, cidx))
        return leased

    def _next_chunk(self, slot: int) -> Optional[int]:
        for queue in (self.owned[slot], self.orphans):
            while queue:
                cidx = queue.popleft()
                if cidx not in self.acked:
                    return cidx
        return None

    def receive(self, message: tuple, now: float) -> Optional[int]:
        """Apply one worker message; returns a live slot that reported an error.

        Messages are ``("hb", key)``, ``("lease", key, chunk)``,
        ``("chunk", key, chunk, payload)``, ``("done", key, report)`` and
        ``("error", key, traceback)`` with ``key = (slot, generation)``.
        Messages from lost incarnations still ack chunks and file reports.
        """
        kind, key = message[0], message[1]
        slot = key[0]
        current = self.live.get(slot) == key[1]
        if current:
            self.last_msg[slot] = now
        if kind == "chunk":
            cidx = message[2]
            self.ack(cidx, message[3])
            if current and self.leases.get(slot, (None,))[0] == cidx:
                del self.leases[slot]
        elif kind == "done":
            self.walls[key] = message[2]["wall"]
            self.residuals.append(message[2]["metrics"])
            if current:
                del self.live[slot]
        elif kind == "error":
            self.last_error = message[2]
            if current:
                return slot
        return None

    def ack(self, cidx: int, payload: dict) -> None:
        """Retire ``cidx`` with its first delivered result."""
        if cidx not in self.acked:
            self.acked[cidx] = payload
            self.unresolved.discard(cidx)

    def classify(self, slot: int, alive: bool, now: float) -> Optional[str]:
        """Why live ``slot`` is lost ("crash", "hang", "straggler"), or None."""
        if not alive:
            return "crash"
        lease = self.leases.get(slot)
        if lease is None or now - lease[1] <= self.worker_timeout:
            return None
        silent = now - self.last_msg[slot] > self.worker_timeout / 2.0
        return "hang" if silent else "straggler"

    def lose(self, slot: int, reason: str) -> Optional[float]:
        """Book the loss of live ``slot``'s incarnation.

        Returns the backoff in seconds before its replacement (generation
        + 1) is spawned, or ``None`` when the slot's respawn budget is
        spent and the slot is abandoned.
        """
        self.deaths[reason] += 1
        self.recovery.workers_lost += 1
        del self.live[slot]
        lease = self.leases.pop(slot, None)
        if lease is not None:
            self._revoke(lease[0])
        if self.respawns_left[slot] > 0:
            self.respawns_left[slot] -= 1
            self.recovery.workers_respawned += 1
            # A repeatedly dying slot must not fork-bomb the host.
            return min(0.4, 0.02 * (2 ** min(sum(self.deaths.values()) - 1, 4)))
        self.abandoned.add(slot)
        self.orphans.extend(self.owned[slot])
        self.owned[slot].clear()
        return None

    def _revoke(self, cidx: int) -> None:
        if cidx in self.acked:
            return
        self.retries[cidx] = self.retries.get(cidx, 0) + 1
        if self.retries[cidx] > self.max_chunk_retries:
            self.quarantined.add(cidx)
            self.unresolved.discard(cidx)
            return
        owner = self.chunk_owner[cidx]
        if owner is None or owner in self.abandoned:
            self.orphans.appendleft(cidx)
        else:
            self.owned[owner].appendleft(cidx)

    def driver_chunks(self) -> List[int]:
        """Unacked chunks, for the driver to run; books their recovery."""
        todo = sorted(set(range(len(self.chunk_owner))) - set(self.acked))
        for cidx in todo:
            if cidx in self.quarantined:
                self.recovery.chunks_quarantined += 1
            elif self.retries.get(cidx):
                self.recovery.chunks_reexecuted += 1
        return todo
