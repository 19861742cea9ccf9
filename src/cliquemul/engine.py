"""Synchronous fully-connected message-passing simulator with round accounting.

The model: n nodes, every pair joined by a link, computation proceeds in
phases.  In a phase every node reads the mailbox delivered at the last
phase boundary, updates its private state, and emits messages.  A message
payload is one tagged word: ``(tag, i1, i2, value)``.  A word is O(log n)
bits: a field may pack two counts that are each at most n as
``x * (n + 1) + y``, which is how smm's stats and count words and
triangle listing's degree words carry four counts each, or hold a few
bit masks of O(1) bits, as request words do.

Round cost per phase is the routing charge ceil(max(max_send, max_recv) /
(n - 1)), and at least one round whenever any message crosses a link.
This models the standard routing result where any pattern in which every
node sends and receives at most n-1 words is deliverable in O(1) rounds;
the charge is the number of such batches, each counted as one round.

Every phase step, of ``run_phase`` and of ``run_broadcast`` alike, is
one handler ``handler(v, state, inbox)``: it reads node v's mailbox,
computes locally, and returns what v sends.  A step that sends without
reading takes the inbox and ignores it.  Handlers must derive
everything, including message destinations, from the node id, the
node's private state, the delivered mailbox, and data previously
broadcast to all nodes.  The engine hands a handler only those objects,
so violations take deliberate effort.

Messages travel as columns.  A handler returns one batch ``(dst, tag,
i1, i2, val)``: parallel columns, message k being ``(dst[k], tag[k],
i1[k], i2[k], val[k])``, or None for no message.  ``dst`` is a numpy
array, list or tuple; any other column may also be one value that every
message of the batch carries (for a header, one Python int).  Header
columns hold signed integers or bools of any width.  The engine joins
each header field once per phase and checks the joined column: when
every batch sends one value, by one ``np.repeat`` of the values;
otherwise each single value is repeated over its own batch and one
``np.concatenate`` joins every column.  An unsigned array, values that
do not all fit int64 (numpy then joins them as unsigned, float or
object), a column whose length is not its batch's, or a destination
outside [0, n) raises SimulationError naming the phase and the first
node at fault; only then are the batches walked one by one.

The value column keeps every value's exact Python type by the rule of
``sparse.value_column``: int64 when every value is an ``int`` inside
int64, bool when every value is a ``bool``, and object otherwise.  The
rule holds for each handler's batch and for each phase's delivery as a
whole, so batches whose dtypes differ are joined as object, never
promoted by numpy (int64 with bool would give int64).

A delivery is five columns in the narrowest layout that keeps every
value: ``src`` in ``node_dtype(n)`` (int16 up to 2**15 nodes, int32
beyond), ``tag`` int16 when every tag of the phase fits and int64
otherwise, ``i1`` and ``i2`` always int64, since handlers compute with
them, and ``val`` by the rule above: 28 bytes per int64-valued message.
No destination column is kept: node v's inbox is rows ``bounds[v]:bounds[v
+ 1]``, an ``Inbox``.

The engine joins ``dst`` first, takes the loads from ``bincount`` of
sources and destinations with messages to self excluded (they are
delivered free of charge), and orders the delivery by one stable argsort
on ``dst``.  Mailbox order is thus canonical: sender id ascending, then
emission order.  Each other field is then joined, dropped from the
batches and put in that order in turn, so at most one unsorted column is
alive at a time.

A broadcast phase (``run_broadcast``) takes no batches: every node's
handler returns its one word for every other node, and the vector of
words is the delivery, common knowledge once the phase ends, so the
engine lays out no mailbox and leaves every inbox empty.  It checks
each word's header fields as it would a batch's and charges the loads
of the n - 1 copies sent as ordinary batches: n - 1 sent and n - 1
received at every node, n(n - 1) messages in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sparse import DimensionError, concat_values, value_column

Batch = tuple  # (dst, tag, i1, i2, val) columns
Handler = Callable[[int, dict, "Inbox"], Optional[Batch]]

_FIELDS = ("dst", "tag", "i1", "i2", "val")
_COLUMN = (list, tuple, np.ndarray)     # anything else is one value for the batch
_INT16 = np.iinfo(np.int16)


class SimulationError(RuntimeError):
    """A protocol step violated the communication model."""


def node_dtype(n: int) -> np.dtype:
    """The signed dtype of node ids on an n-node clique: int16 up to 2**15
    nodes, int32 beyond."""
    return np.dtype(np.int16 if n <= 2**15 else np.int32)


class Inbox:
    """The messages delivered to one node, as parallel columns in mailbox order."""

    __slots__ = ("src", "tag", "i1", "i2", "val")

    def __init__(self, src, tag, i1, i2, val):
        self.src, self.tag, self.i1, self.i2, self.val = src, tag, i1, i2, val

    def __len__(self) -> int:
        return len(self.src)


class Delivery(Inbox):
    """Every message of one phase, sorted by destination; ``self[v]`` is
    node v's inbox, rows ``bounds[v]:bounds[v + 1]`` of the columns."""

    __slots__ = ("bounds", "_none")

    def __init__(self, src, tag, i1, i2, val, bounds: list[int]):
        super().__init__(src, tag, i1, i2, val)
        self.bounds = bounds
        self._none = Inbox(src[:0], tag[:0], i1[:0], i2[:0], val[:0])

    @classmethod
    def empty(cls, n: int) -> "Delivery":
        none = np.zeros(0, dtype=np.int64)
        return cls(np.zeros(0, dtype=node_dtype(n)), np.zeros(0, dtype=np.int16),
                   none, none, none, [0] * (n + 1))

    def __getitem__(self, v: int) -> Inbox:
        lo, hi = self.bounds[v], self.bounds[v + 1]
        if lo == hi:
            return self._none
        return Inbox(self.src[lo:hi], self.tag[lo:hi], self.i1[lo:hi],
                     self.i2[lo:hi], self.val[lo:hi])


def _join_header(columns: list, lengths: list[int]) -> np.ndarray | None:
    """One header field of every batch, joined in sender order; None when
    a column's length is not its batch's or the joined values do not all
    fit int64.

    ``lengths`` holds each batch's message count.  When every batch sends
    one value, one repeat lays the field out; otherwise each single value
    is repeated over its own batch and one concatenate joins every column.
    An unsigned array fails even where numpy would join it with signed
    ones exactly, so a node's batch is valid or not whatever the other
    nodes send.
    """
    if not any(isinstance(c, _COLUMN) for c in columns):
        joined = np.array(columns).repeat(lengths)
    else:
        arrays = [c if isinstance(c, _COLUMN) else np.array(c).repeat(k)
                  for c, k in zip(columns, lengths)]
        if list(map(len, arrays)) != lengths or any(
                isinstance(a, np.ndarray) and a.dtype.kind == "u" for a in columns):
            return None
        joined = np.concatenate(arrays)
    # uint64, float and object joins hold values that int64 may not.
    return joined if joined.dtype.kind in "bi" else None


def _join_values(columns: list, lengths: list[int]) -> np.ndarray | None:
    """Every batch's value column joined in sender order by the value
    rule; None when a column's length is not its batch's."""
    if not any(isinstance(c, _COLUMN) for c in columns):
        return value_column(columns).repeat(lengths)
    columns = [value_column(c) if isinstance(c, _COLUMN) else value_column([c]).repeat(k)
               for c, k in zip(columns, lengths)]
    if list(map(len, columns)) != lengths:
        return None
    return concat_values(columns)


def _batch_fault(label: str, senders: list[int], fields: list,
                 lengths: list[int]) -> SimulationError:
    """The error naming the first sender whose batch is at fault in a field
    still held; a field already joined and checked is None."""
    for b, v in enumerate(senders):
        for name, columns in zip(_FIELDS, fields):
            if columns is None:
                continue
            column = columns[b]
            if name != "val" and np.asarray(column).dtype.kind not in "bi":
                return SimulationError(
                    f"phase {label!r}: node {v} sent a {name} field outside int64")
            if isinstance(column, _COLUMN) and len(column) != lengths[b]:
                return SimulationError(
                    f"phase {label!r}: node {v} sent columns of unequal length")
    return SimulationError(f"phase {label!r}: malformed batch columns")


def _tag_column(tag: np.ndarray) -> np.ndarray:
    """A joined tag column as int16 when every tag fits, else int64."""
    if tag.dtype.itemsize > 2 and (tag.min() < _INT16.min or tag.max() > _INT16.max):
        return tag.astype(np.int64, copy=False)
    return tag.astype(np.int16, copy=False)


@dataclass
class PhaseRecord:
    label: str
    rounds: int
    max_send: int
    max_recv: int
    total_msgs: int
    # The node that sent (received) max_send (max_recv) messages, the
    # lowest id on ties, so 0 when nothing crosses a link.
    peak_send_node: int = 0
    peak_recv_node: int = 0


class RoundLedger:
    """Per-phase communication loads and the rounds charged for them."""

    def __init__(self):
        self.records: list[PhaseRecord] = []

    def charge_for_loads(
        self, label: str, n: int, max_send: int, max_recv: int, total_msgs: int,
        peak_send_node: int = 0, peak_recv_node: int = 0,
    ) -> int:
        if total_msgs == 0:
            rounds = 0
        else:
            rounds = max(1, math.ceil(max(max_send, max_recv) / (n - 1)))
        self.records.append(PhaseRecord(label, rounds, max_send, max_recv, total_msgs,
                                        peak_send_node, peak_recv_node))
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


class CliqueEngine:
    """Holds per-node state dicts and the last delivery; executes phases."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.states: list[dict] = [{} for _ in range(n)]
        # Read-only, so one empty delivery serves every phase.
        self._no_mail = self.inboxes = Delivery.empty(n)
        self.ledger = RoundLedger()
        self._node_dtype = node_dtype(n)
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
            if out is not None and len(out[0]):
                senders.append(v)
                batches.append(out)
        del mail
        self.inboxes = self._no_mail
        if not batches:
            return self.ledger.charge_for_loads(label, n, 0, 0, 0)
        lengths = [len(batch[0]) for batch in batches]
        # Per field, every batch's column; a field is dropped once joined.
        fields = [list(columns) for columns in zip(*batches)]
        batches.clear()
        dst = _join_header(fields[0], lengths)
        if dst is None:
            raise _batch_fault(label, senders, fields, lengths)
        fields[0] = None
        src = np.array(senders, dtype=self._node_dtype).repeat(lengths)
        if dst.min() < 0 or dst.max() >= n:
            v = int(src[((dst < 0) | (dst >= n)).argmax()])
            own = dst[src == v]
            lo, hi = int(own.min()), int(own.max())
            raise SimulationError(
                f"phase {label!r}: node {v} addressed nonexistent node "
                f"{lo if lo < 0 else hi}"
            )
        dst = dst.astype(self._key_dtype, copy=False)
        sent = np.zeros(n, dtype=np.int64)
        sent[senders] = lengths
        received = np.bincount(dst, minlength=n)
        kept = np.bincount(dst[dst == src], minlength=n)     # free: sent to self
        sends, recvs = sent - kept, received - kept
        order = np.argsort(dst, kind="stable")
        del dst
        columns = [src[order], None, None, None, None]
        del src
        # Column by column, the widest batch column first, so only one
        # unsorted column is alive at a time; i1 and i2 widen once the
        # order is gone.
        for f in (4, 1, 2, 3):
            joined = (_join_values if f == 4 else _join_header)(fields[f], lengths)
            if joined is None:
                raise _batch_fault(label, senders, fields, lengths)
            fields[f] = None
            columns[f] = (_tag_column(joined) if f == 1 else joined)[order]
            del joined
        del order
        for f in (2, 3):
            columns[f] = columns[f].astype(np.int64, copy=False)
        bounds = [0] + np.cumsum(received).tolist()
        self.inboxes = Delivery(*columns, bounds)
        return self.ledger.charge_for_loads(
            label, n, int(sends.max()), int(recvs.max()), int(sends.sum()),
            int(sends.argmax()), int(recvs.argmax()))

    def run_broadcast(self, label: str, handler) -> list:
        """Each node sends ``handler(v, state, inbox)`` to every other node.

        The handler reads the last phase's mailbox as in ``run_phase``
        and returns a word ``(tag, i1, i2, val)``, charged as n - 1
        messages sent and n - 1 received at every node (see the module
        docstring).  Returns the vector of words: it is the phase's
        delivery, and the inboxes are left empty.  A handler that returns
        None raises SimulationError naming the first such node.
        """
        n, mail = self.n, self.inboxes
        words = [handler(v, self.states[v], mail[v]) for v in range(n)]
        del mail
        self.inboxes = self._no_mail
        if None in words:
            raise SimulationError(
                f"phase {label!r}: node {words.index(None)} sent no broadcast word")
        ones = [1] * n
        head = [[word[f] for word in words] for f in range(3)]
        if any(_join_header(field, ones) is None for field in head):
            raise _batch_fault(label, range(n), [None, *head], ones)
        self.ledger.charge_for_loads(label, n, n - 1, n - 1, n * (n - 1))
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
        mail, self.inboxes = self.inboxes, self._no_mail
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
