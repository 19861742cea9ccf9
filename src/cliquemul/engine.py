"""Synchronous fully-connected message-passing simulator with round accounting.

The model: n nodes, every pair joined by a link, computation proceeds in
phases.  In a phase every node reads the mailbox delivered at the last
phase boundary, updates its private state, and emits messages.  A message
payload is one tagged word: ``(tag, i1, i2, value)``.  A word is O(log n)
bits: a field may pack two counts that are each at most n as
``x * (n + 1) + y``, which is how smm's stats and count words carry four
counts each, or hold a few bit masks of O(1) bits, as request words do.

Round cost per phase is the routing charge ceil(max(max_send, max_recv) /
(n - 1)), and at least one round whenever any message crosses a link.
This models the standard routing result where any pattern in which every
node sends and receives at most n-1 words is deliverable in O(1) rounds;
the charge is the number of such batches, each counted as one round.

Handlers must derive everything, including message destinations, from
the node id, the node's private state, the delivered mailbox, and data
previously broadcast to all nodes.  The engine hands a handler only
those objects, so violations take deliberate effort.

Messages travel as columns.  A handler returns one batch ``(dst, tag,
i1, i2, val)``: parallel columns (numpy arrays or sequences), message k
being ``(dst[k], tag[k], i1[k], i2[k], val[k])``, or None for no
message.  Any column but ``dst`` may be a single value, which every
message of the batch carries.  The four header columns hold int64s; a
header value outside int64 or a destination outside [0, n) raises
SimulationError naming the phase and the node.

The value column keeps every value's exact Python type, as ``.tolist()``
gives it back: its dtype is int64 when every value is an ``int`` inside
int64, bool when every value is a ``bool``, and object otherwise.  The
rule holds for each handler's batch and for each phase's delivery as a
whole, so batches whose dtypes differ are joined as object, never
promoted by numpy (int64 with bool would give int64).

The engine concatenates the phase's batches in sender order, takes the
loads from ``bincount`` of sources and destinations with messages to
self excluded (they are delivered free of charge), and orders the
delivery by one stable argsort on ``dst``.  Mailbox order is thus
canonical: sender id ascending, then emission order.  Node v's inbox is
an ``Inbox``, the slice of the sorted columns addressed to v, with a
``src`` column in place of ``dst``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sparse import DimensionError

Batch = tuple  # (dst, tag, i1, i2, val) columns
Handler = Callable[[int, dict, "Inbox"], Optional[Batch]]

_HEADER = ("dst", "tag", "i1", "i2")


class SimulationError(RuntimeError):
    """A protocol step violated the communication model."""


def value_column(values) -> np.ndarray:
    """``values`` as a value column: int64 if every value is an ``int``
    inside int64, bool if every value is a ``bool``, object otherwise."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64 or values.dtype == np.bool_:
            return values
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {bool}:
        return np.array(values, dtype=np.bool_)
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def concat_values(columns) -> np.ndarray:
    """Value columns joined end to end; differing dtypes join as object.

    An empty column holds no value, so its dtype does not count."""
    columns = [c for c in columns if len(c)] or columns[:1]
    if len({c.dtype for c in columns}) > 1:
        columns = [c.astype(object) for c in columns]
    return np.concatenate(columns)


class Inbox:
    """The messages delivered to one node, as parallel columns in mailbox order."""

    __slots__ = ("src", "tag", "i1", "i2", "val")

    def __init__(self, src, tag, i1, i2, val):
        self.src, self.tag, self.i1, self.i2, self.val = src, tag, i1, i2, val

    def __len__(self) -> int:
        return len(self.src)

    def messages(self) -> list[tuple]:
        """``(src, tag, i1, i2, val)`` tuples of Python values."""
        return list(zip(self.src.tolist(), self.tag.tolist(), self.i1.tolist(),
                        self.i2.tolist(), self.val.tolist()))


class Delivery(Inbox):
    """Every message of one phase, sorted by destination; ``self[v]`` is
    node v's inbox, rows ``bounds[v]:bounds[v + 1]`` of the columns."""

    __slots__ = ("dst", "bounds")

    def __init__(self, dst, src, tag, i1, i2, val, bounds: list[int]):
        super().__init__(src, tag, i1, i2, val)
        self.dst, self.bounds = dst, bounds

    @classmethod
    def empty(cls, n: int) -> "Delivery":
        none = np.zeros(0, dtype=np.int64)
        return cls(none, none, none, none, none, none, [0] * (n + 1))

    def __getitem__(self, v: int) -> Inbox:
        lo, hi = self.bounds[v], self.bounds[v + 1]
        if lo == hi:
            return _NO_MAIL
        return Inbox(self.src[lo:hi], self.tag[lo:hi], self.i1[lo:hi],
                     self.i2[lo:hi], self.val[lo:hi])


_NO_MAIL = Inbox(*[np.zeros(0, dtype=np.int64)] * 5)


def _header_column(column, k: int, label: str, v: int, name: str) -> np.ndarray:
    if isinstance(column, np.ndarray) and column.dtype == np.int64 and column.shape == (k,):
        return column
    if isinstance(column, int):
        try:
            return np.full(k, column, dtype=np.int64)
        except OverflowError:
            column = np.zeros(0, dtype=object)
    else:
        column = np.asarray(column)
        if column.ndim == 0:
            column = np.full(k, column)
    # uint64 and object columns hold ints past int64; floats are no header.
    if column.dtype.kind not in "bi":
        raise SimulationError(f"phase {label!r}: node {v} sent a {name} field outside int64")
    if column.shape != (k,):
        raise SimulationError(f"phase {label!r}: node {v} sent columns of unequal length")
    return column.astype(np.int64, copy=False)


def _batch_columns(batch: Batch, label: str, v: int) -> list | None:
    """A handler's batch checked and normalized: int64 headers, one value
    column; None for an empty batch."""
    k = len(batch[0])
    if k == 0:
        return None
    columns = [_header_column(col, k, label, v, name)
               for col, name in zip(batch[:4], _HEADER)]
    val = batch[4]
    if isinstance(val, (list, tuple, np.ndarray)):
        val = value_column(val)
    else:
        val = value_column([val]).repeat(k)
    if len(val) != k:
        raise SimulationError(f"phase {label!r}: node {v} sent columns of unequal length")
    columns.append(val)
    return columns


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
    """Holds per-node state dicts and the last delivery; executes phases."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.states: list[dict] = [{} for _ in range(n)]
        self.inboxes = Delivery.empty(n)
        self.ledger = RoundLedger()
        # Stable-sort keys this narrow take numpy's radix sort.
        self._key_dtype = np.min_scalar_type(n - 1)

    def run_phase(self, label: str, handler: Handler) -> int:
        """Run one phase; returns rounds charged.

        ``handler(v, state, inbox)`` returns node v's batch ``(dst, tag,
        i1, i2, val)`` or None (see the module docstring).  The inbox
        passed in is consumed: whatever the handler does not copy into its
        state is gone at the next phase boundary.
        """
        n = self.n
        mail = self.inboxes
        senders, batches = [], []
        for v in range(n):
            out = handler(v, self.states[v], mail[v])
            if out is not None:
                columns = _batch_columns(out, label, v)
                if columns is not None:
                    senders.append(v)
                    batches.append(columns)
        del mail
        self.inboxes = Delivery.empty(n)
        if not batches:
            return self.ledger.charge_for_loads(label, n, 0, 0, 0)
        lengths = [len(columns[0]) for columns in batches]
        emitted = sum(lengths)
        src = np.repeat(np.array(senders, dtype=np.int64), lengths)
        dst, tag, i1, i2 = (np.concatenate([b[f] for b in batches]) for f in range(4))
        val = concat_values([b[4] for b in batches])
        del batches
        if dst.min() < 0 or dst.max() >= n:
            v = int(src[((dst < 0) | (dst >= n)).argmax()])
            own = dst[src == v]
            lo, hi = int(own.min()), int(own.max())
            raise SimulationError(
                f"phase {label!r}: node {v} addressed nonexistent node "
                f"{lo if lo < 0 else hi}"
            )
        sent = np.zeros(n, dtype=np.int64)
        sent[senders] = lengths
        received = np.bincount(dst, minlength=n)
        if int(received.sum()) != emitted:
            raise SimulationError(f"phase {label!r}: message conservation violated")
        kept = np.bincount(dst[dst == src], minlength=n)     # free: sent to self
        sends, recvs = sent - kept, received - kept
        order = np.argsort(dst.astype(self._key_dtype), kind="stable")
        # Column by column, so only one unsorted column outlives its copy.
        dst = dst[order]
        src = src[order]
        tag = tag[order]
        i1 = i1[order]
        i2 = i2[order]
        val = val[order]
        bounds = [0] + np.cumsum(received).tolist()
        self.inboxes = Delivery(dst, src, tag, i1, i2, val, bounds)
        return self.ledger.charge_for_loads(
            label, n, int(sends.max()), int(recvs.max()), int(sends.sum()))

    def run_ingest_emit(self, label: str, ingest, emit) -> int:
        """One phase in two steps: ``ingest(v, state, inbox)`` keeps what
        the node needs of its mailbox, then ``emit(v, state)`` returns its
        batch.  ``ingest`` may be None, which drops the mailbox."""
        def handler(v, state, inbox):
            if ingest is not None:
                ingest(v, state, inbox)
            return emit(v, state)

        return self.run_phase(label, handler)

    def run_broadcast(self, label: str, word_fn, ingest=None) -> list:
        """Each node sends ``word_fn(v, state)`` (or None) to every other node.

        A word is ``(tag, i1, i2, val)``; its n - 1 copies are one batch
        with a single value per column.  ``ingest`` runs first, as in
        ``run_ingest_emit``.  Returns the vector of words, None for a
        silent node: it is common knowledge once the phase is delivered.
        """
        n = self.n
        words: list = [None] * n
        nodes = np.arange(n)

        def emit(v, state):
            word = words[v] = word_fn(v, state)
            if word is None:
                return None
            return (np.delete(nodes, v), *word)

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

    def drain_inboxes(self) -> Delivery:
        """The last phase's delivery, which the driver reads where each
        node would act on its own inbox; the mailboxes are left empty."""
        mail, self.inboxes = self.inboxes, Delivery.empty(self.n)
        return mail


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
