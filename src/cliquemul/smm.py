"""Sparse semiring matrix multiplication on the clique simulator.

Pipeline: split-pair selection from nonzero counts, sparsity-balancing
row/column permutations, then the balanced multiplication protocol.
``smm()`` runs seven communication phases:

* distribute: both operands are scattered into columns, so node v holds
  row v and column v of S and of T;
* stats: one broadcast word per node carries its four nonzero counts
  (S row, T column, S column, T row).  Every node derives the split and
  the permutations sigma and tau from them.  Column v of S' = sigma(S)
  and row v of T' = T tau are then local relabels, so balancing sends
  nothing;
* sbmm.subseq: columns of S' and rows of T' cut into bounded fragments
  ("subsequences"), one per node when there are at most n of a side,
  else two paired by size, a small one with a large one, so no node
  holds more than one fragment plus a 1/(n+1) share of the side;
* sbmm.counts: fragment owners tell every node how many entries fall in
  its row/column band, in one word, giving page weights.  A word's lhs
  field depends only on the receiver's row band and its rhs field only
  on its column band, so the line weights are derived once per band and
  side, and each group's pages are striped from their sum;
* sbmm.request/sbmm.respond: each node sends every owner it needs one
  word, a bit per fragment (so one round), and pulls exactly the
  band-restricted fragments of its pages that have entries in its band;
* sbmm.reduce: locally computed page products are summed into result
  rows, each partial sent straight to the owner of its unpermuted row.
  A node runs its semiring's array kernel when its values lie inside the
  kernel's exactness envelope (see ``semiring.py``) and the scalar fold
  otherwise; both send the same messages.  Inside the envelope, a node
  whose kernel has an exact block product (counting and boolean) and
  whose dense blocks are small against its pair count multiplies its
  (rows x pages) and (pages x columns) blocks in one float64 product;
  the others multiply entry pairs page by page.  Node r then sums its
  row's partials, all rows at once with the kernel when its
  ``sums_exact`` holds on the delivered partials, else with the scalar
  fold in mailbox order.

Triangle listing's LearnPaths runs the fragment dealing and routing
below (``deal_fragments``, ``bucket_fragments``, ``fragment_requests``,
``fragment_responder``) on the adjacency matrix.  There a node's column
and row are its in- and out-arcs, which it holds from the start, so no
redistribution precedes the dealing.

All coordination data flows through broadcasts, so every node derives
identical partitions, subsequence tables, and page assignments from the
same words; the protocol code computes each such structure once and
shares it (``run_broadcast``'s word vector,
``CliqueEngine.derive_per_group``), which is memoization of replicated
local computation, not extra communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain
from typing import NamedTuple
import numpy as np

from .engine import (CliqueEngine, PhaseRecord, SimulationError, concat_values,
                     engine_for, value_column)
from .partition import avg_partition, balanced_assignment, balanced_assignments
from .semiring import Semiring
from .sparse import DimensionError, SparseMatrix

# message tags
(_S_COL, _T_COL, _NZ, _SUB_S, _SUB_T, _CNT,
 _REQ, _ENT_S, _ENT_T, _RED) = range(10)


# -- split-pair selection ---------------------------------------------------

@dataclass(frozen=True)
class SplitPair:
    a: int
    b: int


def split_cost(nzS: int, nzT: int, n: int, a: int, b: int) -> Fraction:
    """Exact value of the round-cost surrogate (nzS/a + nzT/b)/(n*g) + n/(ab).

    g = n // (ab) is the smallest group's size, which the response load
    of its pages is spread over; when ab divides n this is
    nzS*b/n^2 + nzT*a/n^2 + n/(ab).
    """
    g = n // (a * b)
    return Fraction(nzS * b + nzT * a + n * n * g, a * b * n * g)


def choose_split(nzS: int, nzT: int, n: int) -> SplitPair:
    """Argmin of split_cost over every (a, b) with ab <= n, ties to the
    lexicographically smallest: the nodes form an a-by-b grid of groups,
    each of at least one node.

    For fixed a and fixed g = n // (ab) the cost falls strictly as b
    grows, so only the largest such b is scored.  Costs are compared as
    cross-multiplied integers of ``split_cost``'s fraction, and only a
    strictly lower cost replaces the best, so ties keep the first pair.
    """
    if n < 1:
        raise ValueError("n must be positive")
    best = None
    for a in range(1, n + 1):
        m = n // a
        b = 1
        while b <= m:
            g = m // b
            b = m // g                  # the largest b with n // (ab) == g
            num, den = nzS * b + nzT * a + n * n * g, a * b * n * g
            if best is None or num * best[1] < best[0] * den:
                best = (num, den, a, b)
            b += 1
    return SplitPair(best[2], best[3])


# -- bands and the node grid ------------------------------------------------

def _bands(line_nz: list[int], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight-balanced bands of lines: line -> permuted position, and
    permuted position -> band.

    Band i holds the i-th group of the balanced assignment of the line
    counts (bound x=n), in original line order, so it has floor(n/k) or
    ceil(n/k) lines, the short bands first.
    """
    groups = balanced_assignment(line_nz, k, len(line_nz))
    perm = np.empty(len(line_nz), dtype=np.int64)
    perm[np.concatenate(groups)] = np.arange(len(line_nz))
    return perm, np.repeat(np.arange(k), [len(g) for g in groups])


def grid_cells(n: int, a: int, b: int) -> np.ndarray:
    """Node -> its (i, j, k) row: group (i, j) of the a-by-b grid, place k in it.

    The groups are consecutive runs of nodes in row-major order, the
    first (-n) mod ab of floor(n/(ab)) nodes and the rest of
    ceil(n/(ab)).
    """
    cells = a * b
    sizes = np.full(cells, -(-n // cells), dtype=np.int64)
    sizes[:(-n) % cells] -= 1
    group = np.repeat(np.arange(cells), sizes)
    k = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return np.column_stack((group // b, group % b, k))


# -- subsequences -----------------------------------------------------------

@dataclass
class SubseqSide:
    """Global table of one matrix side's column (or row) fragments.

    Every node derives this identical table from the broadcast nonzero
    counts; ids are dense in enumeration order (line ascending, fragment
    position ascending).  Trailing fragments of a line may be empty: the
    agreed count is ``partition.avg_partition``'s ceil(line_nz / avg),
    not the occupied count.  ``size`` is each fragment's entry count,
    common knowledge like the rest of the table.
    """

    block: int                    # largest fragment, the slicing stride
    size: list[int]               # fragment id -> entries
    origin: list[int]             # fragment id -> line
    owner: list[int]              # fragment id -> owning node
    owned: list[list[int]]        # node -> fragment ids it owns
    by_line: list[list[int]]      # line -> fragment ids, ascending
    bit: list[int]                # fragment id -> its bit in the owner's request mask

    def slice_bounds(self, q: int) -> tuple[int, int]:
        p = q - self.by_line[self.origin[q]][0]
        return p * self.block, (p + 1) * self.block

    @cached_property
    def arrays(self) -> dict[str, np.ndarray]:
        """The per-fragment lists as int64 arrays, plus each line's first
        fragment id (``first``) and fragment count (``count``)."""
        cols = {name: np.array(getattr(self, name), dtype=np.int64)
                for name in ("size", "origin", "owner", "bit")}
        cols["count"] = np.array([len(ids) for ids in self.by_line], dtype=np.int64)
        cols["first"] = np.cumsum(cols["count"]) - cols["count"]
        return cols

    def fragments_of(self, lines) -> np.ndarray:
        """Ids of every fragment of ``lines``, line by line, ascending."""
        lines = np.asarray(lines, dtype=np.int64)
        count = self.arrays["count"][lines]
        ends = np.cumsum(count)
        return np.repeat(self.arrays["first"][lines] - (ends - count), count) + np.arange(
            ends[-1] if len(ends) else 0)


def build_subsequences(nz_per_line: list[int], n: int) -> SubseqSide:
    """Cut each line by ``avg_partition`` and deal the fragments to owners.

    With at most n fragments each gets its own node (at full density
    every line is one fragment and stays on its node).  With more (at
    most 2n), the ids sorted by (size, id) are padded at the front to 2n
    with empty placeholders, and node j owns the j-th smallest and the
    j-th largest.  The n smallest are each at most total // (n + 1)
    entries, as the n + 1 fragments from the n-th smallest up are no
    smaller and sum to at most the total, and none exceeds ``block``;
    so a node holds at most ``block + total // (n + 1)`` entries.
    """
    sizes = avg_partition(nz_per_line)
    # Chunking fills every fragment of a line but its last nonempty one, so
    # the largest fragment is the stride (floor(avg) + 1 once any line is
    # cut in two).
    size = [c for line in sizes for c in line]
    block = max(size, default=0)
    origin: list[int] = []
    by_line: list[list[int]] = []
    for line, frags in enumerate(sizes):
        by_line.append(list(range(len(origin), len(origin) + len(frags))))
        origin.extend([line] * len(frags))
    total_frags = len(origin)
    assert total_frags <= 2 * n
    owner = list(range(total_frags))
    if total_frags > n:
        order = [None] * (2 * n - total_frags) + sorted(
            range(total_frags), key=lambda q: (size[q], q))
        for j in range(n):
            for q in (order[j], order[2 * n - 1 - j]):
                if q is not None:
                    owner[q] = j
    owned: list[list[int]] = [[] for _ in range(n)]
    bit = [0] * total_frags
    for q, u in enumerate(owner):
        bit[q] = 1 << len(owned[u])
        owned[u].append(q)
    return SubseqSide(block, size, origin, owner, owned, by_line, bit)


@dataclass
class SubseqOwnership:
    s: SubseqSide
    t: SubseqSide


# -- fragment dealing, counts, requests and responses -----------------------

def deal_fragments(engine: CliqueEngine, s_nz: list[int], t_nz: list[int],
                   prefix: str, lines) -> SubseqOwnership:
    """Fragment tables from common-knowledge counts, and the fragments shipped.

    ``lines(v, state)`` returns node v's lhs column and rhs row, each a
    ``(pos, val)`` pair of columns sorted by position; v sends each
    fragment to its owner and reads no mailbox.  The returned tables are
    common knowledge.
    """
    n = engine.n
    sides = (build_subsequences(s_nz, n), build_subsequences(t_nz, n))

    def emit_fragments(v, state, inbox):
        frags, positions, values = [], [], []
        for side, (pos, val) in zip(sides, lines(v, state)):
            # Entry k of the line lies in its (k // block)-th fragment.
            frags.append(side.arrays["first"][v] + np.arange(len(pos)) // max(side.block, 1))
            positions.append(pos)
            values.append(val)
        q = np.concatenate(frags)
        tags = np.repeat((_SUB_S, _SUB_T), [len(f) for f in frags])
        dst = np.concatenate([side.arrays["owner"][f] for side, f in zip(sides, frags)])
        return dst, tags, q, np.concatenate(positions), concat_values(values)

    engine.run_phase(prefix + "subseq", emit_fragments)
    return SubseqOwnership(*sides)


# Fragment routing, shared with triangle listing's LearnPaths: owners file
# entries by band, nodes send each owner one word of fragment bits, owners
# answer per requester band.

class Buckets(NamedTuple):
    """A fragment owner's entries filed by band.

    A bucket holds one owned fragment's entries in one band: lhs fragment
    k (in owned order) in band i is bucket ``k * bands[0] + i``, and the
    rhs buckets follow the lhs ones in the same way.  Entries are sorted
    by bucket, arrival order kept within one; bucket x is rows
    ``bounds[x]:bounds[x + 1]`` of ``pos`` and ``val``.
    """

    pos: np.ndarray
    val: np.ndarray
    bounds: np.ndarray
    bands: tuple[int, int]        # lhs and rhs band counts

    def counts(self, s_owned: int) -> tuple[np.ndarray, np.ndarray]:
        """Per side, entries of each owned fragment (row) in each band (column)."""
        counts = np.diff(self.bounds)
        split = s_owned * self.bands[0]
        return (counts[:split].reshape(s_owned, self.bands[0]),
                counts[split:].reshape(-1, self.bands[1]))


def bucket_fragments(ownership: SubseqOwnership, band_s: list[int],
                     band_t: list[int]):
    """Ingest step, in the phase after dealing, filing entries by band.

    ``band_s[pos]`` is the band of an lhs entry at row pos and
    ``band_t[pos]`` that of an rhs entry at column pos.  Leaves
    ``state["buckets"]``, the node's ``Buckets``.
    """
    band_s, band_t = np.asarray(band_s), np.asarray(band_t)
    s_count, t_count = int(band_s.max()) + 1, int(band_t.max()) + 1

    def ingest(v, state, inbox):
        s_owned, t_owned = ownership.s.owned[v], ownership.t.owned[v]
        q, pos = inbox.i1, inbox.i2
        key = np.where(inbox.tag == _SUB_S,
                       np.searchsorted(s_owned, q) * s_count + band_s[pos],
                       len(s_owned) * s_count + np.searchsorted(t_owned, q) * t_count
                       + band_t[pos])
        order = np.argsort(key, kind="stable")
        size = len(s_owned) * s_count + len(t_owned) * t_count
        bounds = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=size), out=bounds[1:])
        state["buckets"] = Buckets(pos[order], inbox.val[order], bounds, (s_count, t_count))

    return ingest


def fragment_requests(ownership: SubseqOwnership, asks):
    """Emit step of a request phase, with every node's words built at once.

    Node v sends one word ``(owner, _REQ, lhs_mask, rhs_mask, 0)`` per
    owner it asks, owners ascending.  ``asks[k]`` is a ``(lines, wanted)``
    pair: ``lines[v]`` holds node v's lines of set k, whose fragments set
    bits at shift 2k of the masks, so one word carries every set (triangle
    listing's two halves); within a set, fragment q is bit
    ``SubseqSide.bit[q]``, as its owner holds at most two per side.  An
    empty fragment (``SubseqSide.size``, common knowledge) is never asked
    for, so an owner of only empty fragments hears nothing.  ``wanted``
    holds, per side, a table of flags indexed by (node, fragment id),
    nonzero when the count words reported entries of that fragment in
    the node's band; an unflagged fragment is not asked for either.  None
    asks for every nonempty fragment of the lines.  The masks of all
    nodes are filled by one ``bitwise_or.at`` per side and set.
    """
    n = len(ownership.s.owned)
    masks = np.zeros((2, n, n), dtype=np.int64)     # side, requester, owner
    for shift, (lines, wanted) in zip(range(0, 2 * len(asks), 2), asks):
        line = np.fromiter(chain.from_iterable(lines), dtype=np.int64)
        asker = np.repeat(np.arange(n), [len(own) for own in lines])
        for k, side in enumerate((ownership.s, ownership.t)):
            size, owner, bit, count = (side.arrays[name]
                                       for name in ("size", "owner", "bit", "count"))
            q = side.fragments_of(line)
            who = np.repeat(asker, count[line])
            keep = size[q] > 0
            if wanted is not None:
                keep &= wanted[k][who, q]
            q, who = q[keep], who[keep]
            np.bitwise_or.at(masks[k], (who, owner[q]), bit[q] << shift)

    def emit(v, state):
        dst = np.flatnonzero(masks[0, v] | masks[1, v])
        return dst, _REQ, masks[0, v, dst], masks[1, v, dst], 0

    return emit


def fragment_responder(ownership: SubseqOwnership, lhs_band, rhs_band):
    """Handler answering the request words in a node's mailbox from its buckets.

    ``lhs_band[src]`` and ``rhs_band[src]`` are the requester's bands, -1
    for a node that may not request.  Bit k of a mask names
    the node's k-th owned fragment of that side, whose line ell is its
    ``SubseqSide.origin``: an lhs fragment of column ell gets ``(_ENT_S,
    pos, ell, val)`` for every entry in the lhs band, an rhs fragment of
    row ell ``(_ENT_T, ell, pos, val)`` for those in the rhs band.  Each
    requester's answer is one run, lhs fragments first.  A bit naming no
    owned fragment, or a request from a node without a band, raises
    SimulationError.
    """
    bands = np.stack((np.asarray(lhs_band), np.asarray(rhs_band)))   # side, node
    # Slot 2 * side + k stands for the node's k-th owned fragment of a side.
    slot_side, slot_bit = np.array([0, 0, 1, 1]), np.array([1, 2, 1, 2])

    def respond(v, state, inbox):
        if not len(inbox):
            return None
        pos, val, bounds, counts = state["buckets"]
        owned = (ownership.s.owned[v], ownership.t.owned[v])
        src = inbox.src
        masks = np.stack((inbox.i1, inbox.i2), axis=1)
        unowned = (masks >> [len(ids) for ids in owned]).any(axis=1)
        if unowned.any():
            raise SimulationError(f"node {v} was asked by node {src[unowned.argmax()]} "
                                  "for a fragment it does not own")
        # Row-major: requests in mailbox order, then lhs before rhs slots.
        req, slot = np.nonzero(masks[:, slot_side] & slot_bit)
        side = slot_side[slot]
        band = bands[side, src[req]]
        if (band < 0).any():
            raise SimulationError(f"node {v} was asked by node {src[req[band.argmin()]]}, "
                                  "which has no band")
        # Per slot, its fragment's bucket in band 0 and its line.
        first, line = np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
        base = 0
        for sd, (table, ids) in enumerate(zip((ownership.s, ownership.t), owned)):
            for k, q in enumerate(ids):
                first[2 * sd + k] = base + k * counts[sd]
                line[2 * sd + k] = table.origin[q]
            base += len(ids) * counts[sd]
        bucket = first[slot] + band
        lo = bounds[bucket]
        length = bounds[bucket + 1] - lo
        entry = np.repeat(lo - (np.cumsum(length) - length), length) + np.arange(length.sum())
        is_s = np.repeat(side == 0, length)
        ell = np.repeat(line[slot], length)
        p = pos[entry]
        return (np.repeat(src[req], length), np.where(is_s, _ENT_S, _ENT_T),
                np.where(is_s, p, ell), np.where(is_s, ell, p), val[entry])

    return respond


def _count_fields(counts: np.ndarray, n: int) -> np.ndarray:
    """Per band, the owned fragments' entry counts packed into one field.

    A fragment holds at most n entries, so each count fits base n + 1.
    """
    padded = np.zeros((2, counts.shape[1]), dtype=np.int64)
    padded[:len(counts)] = counts
    return padded[0] * (n + 1) + padded[1]


def _owned_slots(side: SubseqSide) -> np.ndarray:
    """Node -> its first and second owned fragment ids, -1 where none."""
    slots = np.full((len(side.owned), 2), -1, dtype=np.int64)
    for u, ids in enumerate(side.owned):
        slots[u, :len(ids)] = ids
    return slots


def _fragment_counts(inbox, side: SubseqSide, slots: np.ndarray, k: int,
                     n: int) -> np.ndarray:
    """Decode field k (0 lhs, 1 rhs) of the count words into an array
    indexed by fragment id of the fragment's entries in the receiver's band.

    The field packs the counts of the sender's (at most two) owned
    fragments of that side, in id order, as ``first * (n + 1) + second``;
    a fragment without a word has no entry in the band.
    """
    words = inbox.tag == _CNT
    field = (inbox.i1, inbox.i2)[k][words]
    # The extra last slot takes the second count of one-fragment owners.
    cnt = np.zeros(len(side.origin) + 1, dtype=np.int64)
    for slot, value in zip(slots[inbox.src[words]].T, divmod(field, n + 1)):
        cnt[slot] = value
    return cnt[:-1]


def compute_receiving(engine: CliqueEngine, ownership: SubseqOwnership,
                      band_s: np.ndarray, band_t: np.ndarray, cells: np.ndarray
                      ) -> tuple[list[list[int]], tuple[np.ndarray, np.ndarray]]:
    """Band-count exchange and per-group page assignment.

    Each fragment owner sends every node one word holding how many
    entries of its fragments fall in that node's row band (lhs) and
    column band (rhs); all-zero words stay unsent.  Every node of a group
    then derives the same weight-balanced striping of the n pages
    (rank-1 slices) over the group's nodes.  ``band_s[p]`` and
    ``band_t[p]`` are the bands of permuted row and column p, and
    ``cells`` is ``grid_cells``'s node table.  Returns each node's pages
    and, per side, the flags ``fragment_requests`` reads as a table
    indexed by (node, fragment id).
    """
    n = engine.n
    ingest = bucket_fragments(ownership, band_s, band_t)

    def emit_counts(v, state):
        s_counts, t_counts = state["buckets"].counts(len(ownership.s.owned[v]))
        s_field = _count_fields(s_counts, n)[cells[:, 0]]
        t_field = _count_fields(t_counts, n)[cells[:, 1]]
        dst = np.flatnonzero(s_field | t_field)
        return dst, _CNT, s_field[dst], t_field[dst], 0

    engine.run_ingest_emit("sbmm.counts", ingest, emit_counts)

    # A word's lhs field depends on the receiver's row band alone and its
    # rhs field on its column band (``emit_counts``), and a missing word
    # reads as 0, so every member of a band derives the same line weights
    # from that field: one derivation per band and side.
    weights, flags = [], []
    for k, side in enumerate((ownership.s, ownership.t)):
        slots = _owned_slots(side)

        def line_counts(band, inbox):
            counts = _fragment_counts(inbox, side, slots, k, n)
            line_weights = np.zeros(n, dtype=np.int64)
            np.add.at(line_weights, side.arrays["origin"], counts)
            # Own counts travel as free self-messages and are already in
            # the inbox, so the weights are complete.  The requests need
            # only which fragments hold entries in the band.
            return line_weights.tobytes(), (counts > 0).tobytes()

        bands: dict[int, list[int]] = {}
        for u, band in enumerate(cells[:, k].tolist()):
            bands.setdefault(band, []).append(u)
        derived = engine.derive_per_group(bands, line_counts)
        weights.append(np.stack([np.frombuffer(derived[b][0], dtype=np.int64)
                                 for b in range(len(bands))]))
        flags.append(np.stack([np.frombuffer(derived[b][1], dtype=np.bool_)
                               for b in range(len(bands))]))

    # Group (i, j) weighs page ell by both bands' entries on it; the groups
    # of one size are striped together.
    groups: dict[tuple[int, int], list[int]] = {}
    for u, (i, j) in enumerate(cells[:, :2].tolist()):
        groups.setdefault((i, j), []).append(u)
    pages: list = [None] * n
    for size in {len(members) for members in groups.values()}:
        keys = [key for key, members in groups.items() if len(members) == size]
        i, j = np.array(keys).T
        for key, assignment in zip(keys, balanced_assignments(
                weights[0][i] + weights[1][j], size, 2 * n)):
            for u, my_pages in zip(groups[key], assignment):
                pages[u] = my_pages
    return pages, (flags[0][cells[:, 0]], flags[1][cells[:, 1]])


# A node multiplies dense blocks when their volume (rows x pages x
# columns) is at most this many times its (lhs, rhs) pair count.  Timing
# both paths of ``_kernel_partials`` on random blocks (8 to 64 rows and
# columns, 16 to 256 pages, densities 0.02 to 0.5; one core of a 2 vCPU
# x86 VM), the block product won at every volume/pairs ratio below 400
# and lost on large blocks above it; smm-uniform's n=512 nodes sit at 61-67.
_BLOCK_PER_PAIR = 256


def _reduce_phase(engine: CliqueEngine, semiring: Semiring, pages: list,
                  row_dst: np.ndarray, col_out: np.ndarray) -> None:
    """Local page products; the partial for cell (r, c) goes to node
    row_dst[r] as result column col_out[c].  ``pages[v]`` is node v's
    page list.

    A node whose values lie in its semiring kernel's exactness envelope
    (at most one product per page per cell, so ``terms`` is its page
    count) multiplies and sums with the kernel; any other node, and every
    node of a semiring without a kernel, folds with the scalar ``add`` and
    ``mul``.  Both emit the same messages in (r, c) order.
    """
    kernel = semiring.kernel

    def reduce(v, state, inbox):
        del state["buckets"]    # its last reader was respond
        if not len(inbox):
            return None
        is_s, is_t = inbox.tag == _ENT_S, inbox.tag == _ENT_T
        # (row, page, value) of the lhs entries, (page, column, value) of the rhs.
        lhs = inbox.i1[is_s], inbox.i2[is_s], inbox.val[is_s]
        rhs = inbox.i1[is_t], inbox.i2[is_t], inbox.val[is_t]
        if kernel is not None and kernel.exact(lhs[2], rhs[2], len(pages[v])):
            return _kernel_partials(semiring, engine.n, lhs, rhs, row_dst, col_out)
        return _scalar_partials(semiring, pages[v], inbox, row_dst, col_out)

    engine.run_phase("sbmm.reduce", reduce)


def _scalar_partials(semiring: Semiring, pages: list[int], inbox,
                     row_dst: np.ndarray, col_out: np.ndarray) -> tuple:
    add, mul, omitted = semiring.add, semiring.mul, semiring.omitted
    s_frags: dict[int, list] = {}
    t_frags: dict[int, list] = {}
    for _, tag, i1, i2, val in inbox.messages():
        if tag == _ENT_S:
            s_frags.setdefault(i2, []).append((i1, val))
        elif tag == _ENT_T:
            t_frags.setdefault(i1, []).append((i2, val))
    acc: dict[tuple[int, int], object] = {}
    for ell in pages:
        for r, sval in s_frags.get(ell, ()):
            for c, tval in t_frags.get(ell, ()):
                p = mul(sval, tval)
                key = (r, c)
                prev = acc.get(key)
                acc[key] = p if prev is None else add(prev, p)
    cells = [(r, c, val) for (r, c), val in sorted(acc.items()) if val != omitted]
    if not cells:
        return None
    rows, cols, vals = zip(*cells)
    return row_dst[list(rows)], _RED, col_out[list(cols)], 0, list(vals)


def _kernel_partials(semiring: Semiring, n: int, lhs: tuple, rhs: tuple,
                     row_dst: np.ndarray, col_out: np.ndarray) -> tuple | None:
    """``_scalar_partials`` in array form.  A node holds entries of its own
    pages only, as it asked for no others.

    When the kernel has a block product that is exact on the node's
    values and the dense blocks are small against the pair count
    (``_BLOCK_PER_PAIR``), the node multiplies (rows x pages) by (pages x
    columns), over the row and column ranges it holds and the pages it
    holds entries of; otherwise every (lhs, rhs) entry pair of a page is
    multiplied and the products are summed per cell.  Either way the
    nonzero cells go out in (r, c) order with the same values.
    """
    kernel = semiring.kernel
    (s_row, s_page, s_val), (t_page, t_col, t_val) = lhs, rhs
    s_count, t_count = np.bincount(s_page, minlength=n), np.bincount(t_page, minlength=n)
    reps = t_count[s_page]
    pairs = int(reps.sum())
    if pairs == 0:
        return None
    # Page -> 1 + its column in the block, over the pages with entries.
    held = np.cumsum((s_count | t_count) > 0)
    depth = int(held[-1])
    r_lo, c_lo = int(s_row.min()), int(t_col.min())
    height, width = int(s_row.max()) - r_lo + 1, int(t_col.max()) - c_lo + 1
    if (kernel.block_exact is not None
            and height * depth * width <= _BLOCK_PER_PAIR * pairs
            and kernel.block_exact(s_val, t_val, depth)):
        s_block = np.zeros((height, depth))
        s_block[s_row - r_lo, held[s_page] - 1] = s_val
        t_block = np.zeros((depth, width))
        t_block[held[t_page] - 1, t_col - c_lo] = t_val
        block = (s_block @ t_block).astype(kernel.dtype)
        r, c = np.nonzero(block)
        return row_dst[r + r_lo], _RED, col_out[c + c_lo], 0, block[r, c]
    # Lhs entry k pairs with each rhs entry of its page: rhs entries sorted
    # by page, the pair's rhs index is the page's first one plus an offset.
    # Kernel sums are exact in any order, so no sort here needs to be stable.
    t_order = np.argsort(t_page)
    t_first = np.cumsum(t_count) - t_count
    li = np.repeat(np.arange(len(s_page)), reps)
    offset = np.arange(pairs) - np.repeat(np.cumsum(reps) - reps, reps)
    ri = t_order[np.repeat(t_first[s_page], reps) + offset]
    cell = s_row[li] * n + t_col[ri]
    order = np.argsort(cell)
    li, ri, cell = li[order], ri[order], cell[order]
    starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
    sums = kernel.add.reduceat(kernel.mul(s_val[li].astype(kernel.dtype),
                                          t_val[ri].astype(kernel.dtype)), starts)
    cell = cell[starts]
    kept = sums != semiring.omitted
    cell, sums = cell[kept], sums[kept]
    return row_dst[cell // n], _RED, col_out[cell % n], 0, sums


def _balanced_core(engine: CliqueEngine, semiring: Semiring, ownership: SubseqOwnership,
                   bands: tuple[np.ndarray, np.ndarray], cells: np.ndarray,
                   row_dst: np.ndarray, col_out: np.ndarray):
    """Counts through reduce on dealt fragments; returns the gathered product.

    ``bands`` holds the band of each permuted row and column, and
    ``cells`` is ``grid_cells``'s node table."""
    n = engine.n
    pages, wanted = compute_receiving(engine, ownership, *bands, cells)
    # A node asks for a line's fragments only from owners whose count word
    # reported entries in its band.  The request masks are gone before the
    # responses are built.
    engine.run_ingest_emit("sbmm.request", None,
                           fragment_requests(ownership, [(pages, wanted)]))
    del wanted
    engine.run_phase("sbmm.respond",
                     fragment_responder(ownership, cells[:, 0], cells[:, 1]))
    _reduce_phase(engine, semiring, pages, row_dst, col_out)
    return SparseMatrix(n, semiring, _gather_rows(semiring, engine.drain_inboxes(), n))


def _gather_rows(semiring: Semiring, mail, n: int) -> list[list]:
    """Result rows from the reduce delivery: node r sums its partials per column.

    With the semiring's kernel exact on the partials every row is summed
    at once; otherwise each row folds with the scalar ``add`` in mailbox
    order.  Omitted sums are dropped.
    """
    kernel = semiring.kernel
    if kernel is None or not kernel.sums_exact(mail.val):
        return [_fold_partials(semiring, mail[r]) for r in range(n)]
    red = mail.tag == _RED
    cell = mail.dst[red] * n + mail.i1[red]
    if not len(cell):
        return [[] for _ in range(n)]
    order = np.argsort(cell)        # exact sums: any order within a cell
    cell = cell[order]
    starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
    sums = kernel.add.reduceat(mail.val[red][order], starts)
    cell = cell[starts]
    kept = sums != semiring.omitted
    cell, sums = cell[kept], sums[kept]
    bounds = np.searchsorted(cell, np.arange(n + 1) * n).tolist()
    cols, vals = (cell % n).tolist(), sums.tolist()
    return [list(zip(cols[lo:hi], vals[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def _fold_partials(semiring: Semiring, inbox) -> list[tuple]:
    add, omitted = semiring.add, semiring.omitted
    row: dict[int, object] = {}
    for _, tag, c, _i2, val in inbox.messages():
        if tag != _RED:
            continue
        prev = row.get(c)
        row[c] = val if prev is None else add(prev, val)
    return sorted((c, val) for c, val in row.items() if val != omitted)


# -- public entry points ----------------------------------------------------

@dataclass
class SmmResult:
    product: SparseMatrix
    split: SplitPair
    sigma: list[int]              # lhs row r -> permuted row sigma[r]
    tau: list[int]                # rhs column c -> permuted column tau[c]
    records: list[PhaseRecord] = field(default_factory=list)

    def rounds(self) -> int:
        return sum(r.rounds for r in self.records)


def smm(S: SparseMatrix, T: SparseMatrix, engine: CliqueEngine | None = None) -> SmmResult:
    """Product S*T via the full pipeline; result rows gathered from nodes.

    With an engine supplied, phases append to its ledger (used by the
    shortest-path driver, which runs many multiplications in sequence).
    """
    if S.n != T.n:
        raise DimensionError(f"operand sizes differ: {S.n} vs {T.n}")
    if S.semiring.name != T.semiring.name:
        raise DimensionError(
            f"operand semirings differ: {S.semiring.name} vs {T.semiring.name}")
    n = S.n
    sr = S.semiring
    engine = engine_for(n, engine)
    mark = engine.ledger.mark()

    for v in range(n):
        st = engine.states[v]
        st["S_row"] = S.rows[v]
        st["T_row"] = T.rows[v]

    # Both operands are scattered into columns: node v then holds row v
    # and column v of S and of T.
    def emit_cols(v, state):
        s_row, t_row = state["S_row"], state["T_row"]
        tags = np.repeat((_S_COL, _T_COL), (len(s_row), len(t_row)))
        return ([c for c, _ in s_row] + [c for c, _ in t_row], tags, v, 0,
                [x for _, x in s_row] + [x for _, x in t_row])

    engine.run_ingest_emit("distribute", None, emit_cols)

    def ingest_cols(v, state, inbox):
        is_s = inbox.tag == _S_COL
        state["S_col"] = (inbox.src[is_s], inbox.val[is_s])
        state["nz_t_col"] = int(np.count_nonzero(inbox.tag == _T_COL))

    # One word carries all four counts; the last field packs two of them
    # (see the word format in engine.py).
    base = n + 1
    words = engine.run_broadcast(
        "stats",
        lambda v, state: (_NZ, len(state.pop("S_row")), state.pop("nz_t_col"),
                          len(state["S_col"][0]) * base + len(state["T_row"])),
        ingest_cols,
    )
    row_nz = [w[1] for w in words]
    col_nz = [w[2] for w in words]
    s_col_nz, t_row_nz = zip(*(divmod(w[3], base) for w in words))
    split = choose_split(sum(row_nz), sum(col_nz), n)
    (sigma_of, band_s), (tau_of, band_t) = _bands(row_nz, split.a), _bands(col_nz, split.b)

    # Permuting keeps column v of S' = sigma(S) and row v of T' = T tau
    # on node v: both are local relabels.
    def relabel(v, state):
        rows, s_vals = state.pop("S_col")
        t_row = state.pop("T_row")
        s_pos = sigma_of[rows]
        t_pos = tau_of[np.array([c for c, _ in t_row], dtype=np.int64)]
        s_order, t_order = np.argsort(s_pos), np.argsort(t_pos)
        return ((s_pos[s_order], s_vals[s_order]),
                (t_pos[t_order], value_column([x for _, x in t_row])[t_order]))

    ownership = deal_fragments(engine, list(s_col_nz), list(t_row_nz), "sbmm.", relabel)
    # Partials go straight to the owner of the unpermuted result row, as
    # the unpermuted result column.
    row_dst, col_out = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    row_dst[sigma_of] = np.arange(n)
    col_out[tau_of] = np.arange(n)
    product = _balanced_core(engine, sr, ownership, (band_s, band_t),
                             grid_cells(n, split.a, split.b), row_dst, col_out)
    return SmmResult(product, split, sigma_of.tolist(), tau_of.tolist(),
                     engine.ledger.since(mark))

