"""Synchronous fully-connected message-passing simulator with round accounting.

The model: n nodes, every pair joined by a link, computation proceeds in
phases.  In a phase every node reads the mailbox delivered at the last
phase boundary, updates its private state, and emits messages.  A message
payload is one tagged word: ``(tag, i1, i2, value)``.  A word is O(log n)
bits: a field may pack two counts that are each at most n as
``x * (n + 1) + y``, which is how smm's stats and count words carry four
counts each.

Round cost per phase is the routing charge ceil(max(max_send, max_recv) /
(n - 1)), and at least one round whenever any message crosses a link.
This models the standard routing result where any pattern in which every
node sends and receives at most n-1 words is deliverable in O(1) rounds;
the charge is the number of such batches, each counted as one round.

Handlers must derive everything, including message destinations, from
the node id, the node's private state, the delivered mailbox, and data
previously broadcast to all nodes.  The engine hands a handler only
those objects, so violations take deliberate effort; destinations
outside [0, n) raise SimulationError.

Mailbox delivery order is canonical: sender id ascending, then emission
order.  Messages to self are delivered free of charge and excluded from
the load counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .sparse import DimensionError

Handler = Callable[[int, dict, list], list]


class SimulationError(RuntimeError):
    """A protocol step violated the communication model."""


@dataclass
class PhaseRecord:
    label: str
    rounds: int
    max_send: int
    max_recv: int
    total_msgs: int


class RoundLedger:
    """Per-phase communication loads and the rounds charged for them."""

    def __init__(self):
        self.records: list[PhaseRecord] = []

    def charge_for_loads(
        self, label: str, n: int, max_send: int, max_recv: int, total_msgs: int
    ) -> int:
        if total_msgs == 0:
            rounds = 0
        else:
            rounds = max(1, math.ceil(max(max_send, max_recv) / (n - 1)))
        self.records.append(PhaseRecord(label, rounds, max_send, max_recv, total_msgs))
        return rounds

    def mark(self) -> int:
        """Index of the next record; use with ``since`` to slice one run."""
        return len(self.records)

    def since(self, mark: int) -> list[PhaseRecord]:
        return self.records[mark:]

    def to_csv(self) -> str:
        lines = ["phase,rounds,max_send,max_recv,total_msgs"]
        for r in self.records:
            lines.append(f"{r.label},{r.rounds},{r.max_send},{r.max_recv},{r.total_msgs}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.to_csv())


class CliqueEngine:
    """Holds per-node state dicts and mailboxes; executes phases."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.states: list[dict] = [{} for _ in range(n)]
        self.inboxes: list[list] = [[] for _ in range(n)]
        self.ledger = RoundLedger()

    def run_phase(self, label: str, handler: Handler) -> int:
        """Run one phase; returns rounds charged.

        ``handler(v, state, inbox)`` returns a sequence (it is read twice)
        of messages ``(dst, tag, i1, i2, value)``.  The inbox passed in is
        consumed: whatever the handler does not copy into its state is gone
        at the next phase boundary.
        """
        n = self.n
        new_inboxes: list[list] = [[] for _ in range(n)]
        deliver = [box.append for box in new_inboxes]
        sends = [0] * n
        selfs = [0] * n
        emitted = 0
        for v in range(n):
            out = handler(v, self.states[v], self.inboxes[v])
            if not out:
                continue
            dsts = [msg[0] for msg in out]
            # One range check per batch; indexing alone would accept -1.
            lo, hi = min(dsts), max(dsts)
            if lo < 0 or hi >= n:
                raise SimulationError(
                    f"phase {label!r}: node {v} addressed nonexistent node "
                    f"{lo if lo < 0 else hi}"
                )
            for dst, tag, i1, i2, val in out:
                deliver[dst]((v, tag, i1, i2, val))
            emitted += len(dsts)
            selfs[v] = dsts.count(v)
            sends[v] = len(dsts) - selfs[v]
        recvs = [len(box) - own for box, own in zip(new_inboxes, selfs)]
        if sum(len(box) for box in new_inboxes) != emitted:
            raise SimulationError(f"phase {label!r}: message conservation violated")
        self.inboxes = new_inboxes
        return self.ledger.charge_for_loads(label, n, max(sends), max(recvs), sum(sends))

    def run_ingest_emit(self, label: str, ingest, emit) -> int:
        """One phase in two steps: ``ingest(v, state, inbox)`` keeps what
        the node needs of its mailbox, then ``emit(v, state)`` returns its
        messages.  ``ingest`` may be None, which drops the mailbox."""
        def handler(v, state, inbox):
            if ingest is not None:
                ingest(v, state, inbox)
            return emit(v, state)

        return self.run_phase(label, handler)

    def run_broadcast(self, label: str, word_fn, ingest=None) -> list:
        """Each node sends ``word_fn(v, state)`` (or None) to every other node.

        ``ingest`` runs first, as in ``run_ingest_emit``.  Returns the
        vector of words, None for a silent node: it is common knowledge
        once the phase is delivered.
        """
        n = self.n
        words: list = [None] * n

        def emit(v, state):
            word = words[v] = word_fn(v, state)
            if word is None:
                return []
            return [(u,) + tuple(word) for u in range(n) if u != v]

        self.run_ingest_emit(label, ingest, emit)
        return words

    def derive_per_group(self, groups: dict, derive) -> dict:
        """``{key: derive(key, inbox)}``, read from the first member of each group.

        Every member of ``groups[key]`` derives the value in its own next
        handler; the protocol code computes it once and shares it.  Sound
        only if all members of a group hold the same words that ``derive``
        reads, so each member would compute the same value.
        """
        return {key: derive(key, self.inboxes[members[0]])
                for key, members in groups.items()}

    def drain_inboxes(self) -> list[list]:
        boxes, self.inboxes = self.inboxes, [[] for _ in range(self.n)]
        return boxes


def engine_for(n: int, engine: CliqueEngine | None) -> CliqueEngine:
    """A fresh n-node engine, or ``engine`` once it is checked to have n nodes.

    Every protocol entry point gets its engine here, so a wrong size
    raises before any phase is charged.
    """
    if engine is None:
        return CliqueEngine(n)
    if engine.n != n:
        raise DimensionError(f"engine has {engine.n} nodes, the input needs {n}")
    return engine
