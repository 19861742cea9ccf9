"""Sparse semiring matrix multiplication on the clique simulator.

Pipeline: split-pair selection from nonzero counts, sparsity-balancing
row/column permutations, then the balanced multiplication protocol.
``smm()`` runs seven communication phases, or the last five on the
symmetric entry (below):

* distribute: node v reads its own input rows, row v of S and of T, and
  scatters both into columns, so it then holds row v and column v of each;
* stats: one broadcast word per node carries its four nonzero counts
  (S row, T column, S column, T row).  Every node derives the split and
  the permutations sigma and tau from them.  Column v of S' = sigma(S)
  and row v of T' = T tau are then local relabels, so balancing sends
  nothing;
* symmetric entry (``row_counts``): when S and T are symmetric and their
  row counts are common knowledge, as for powers of an undirected
  graph's adjacency matrix, row v is column v and the four counts are
  two, so both phases above move nothing a node cannot derive and are
  skipped;
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
  A node runs its semiring's numpy kernel when its values lie inside the
  kernel's exactness envelope (see ``semiring.py``) and the semiring's
  fold kernel, its scalar ``add``/``mul`` on object columns, otherwise.
  Inside the envelope, a node whose kernel has an exact block product
  (counting and boolean) and whose dense blocks are small against its
  pair count multiplies its (rows x pages) and (pages x columns) blocks
  in one float64 product; the others multiply entry pairs, and
  ``_cell_sums`` sums them per cell, the fold kernel a cell's products
  in page order.  Node r then sums its row's partials, all rows at once,
  by ``_cell_sums`` again: with the numpy kernel when its ``sums_exact``
  holds on the delivered partials, else with the fold kernel in mailbox
  order.

Triangle listing's LearnPaths runs the fragment dealing and routing
below (``deal_fragments``, ``bucket_fragments``, ``fragment_requests``,
``fragment_responder``) on the adjacency matrix.  There a node's column
and row are its in-arcs from and out-arcs to higher ids, which it holds
from the start, so no redistribution precedes the dealing, and the
fragments travel in the phase that carries the N-set counts.

All coordination data flows through broadcasts, so every node derives
identical partitions, subsequence tables, and page assignments from the
same words.  A broadcast's delivery is its word vector
(``run_broadcast``'s return value), which every node holds; the
protocol code computes each structure derived from it once and shares
it (``CliqueEngine.derive_per_group`` for mailboxes a group holds
alike), which is memoization of replicated local computation, not extra
communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple
import numpy as np

from .engine import CliqueEngine, PhaseRecord, SimulationError, engine_for, node_dtype
from .partition import avg_partition, balanced_labels
from .semiring import ArrayKernel, Semiring
from .sparse import DimensionError, SparseMatrix, concat_values, value_column

# message tags
(_S_COL, _T_COL, _NZ, _SUB_S, _SUB_T, _CNT,
 _REQ, _ENT_S, _ENT_T, _RED) = range(10)


# -- split-pair selection ---------------------------------------------------

@dataclass(frozen=True)
class SplitPair:
    a: int
    b: int


def _split_terms(nzS: int, nzT: int, n: int, a: int, b: int) -> tuple[int, int]:
    """Numerator and denominator of the round-cost surrogate
    (nzS/a + nzT/b)/(n*g) + n/(ab) of split (a, b).

    g = n // (ab) is the smallest group's size, which the response load
    of its pages is spread over; when ab divides n this is
    nzS*b/n^2 + nzT*a/n^2 + n/(ab).
    """
    g = n // (a * b)
    return nzS * b + nzT * a + n * n * g, a * b * n * g


def choose_split(nzS: int, nzT: int, n: int) -> SplitPair:
    """Argmin of the round-cost surrogate over every (a, b) with ab <= n,
    ties to the lexicographically smallest: the nodes form an a-by-b grid
    of groups, each of at least one node.

    For fixed a and fixed g = n // (ab) the cost falls strictly as b
    grows, so only the largest such b is scored.  Costs are compared as
    cross-multiplied integers of ``_split_terms``' fraction, and only a
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
            num, den = _split_terms(nzS, nzT, n, a, b)
            if best is None or num * best[1] < best[0] * den:
                best = (num, den, a, b)
            b += 1
    return SplitPair(best[2], best[3])


# -- bands and the node grid ------------------------------------------------

def _bands(line_nz: list[int], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight-balanced bands of lines: line -> permuted position, and
    permuted position -> band.

    Band i holds the lines ``balanced_labels`` puts in group i (bound
    x=n), in original line order, so it has floor(n/k) or ceil(n/k)
    lines, the short bands first.
    """
    labels = balanced_labels(np.array([line_nz], dtype=np.int64), k, len(line_nz))[0]
    # Lines in permuted order: band by band, each in original order.
    order = np.argsort(labels, kind="stable")
    return np.argsort(order), labels[order]


def ranges(starts, lengths) -> np.ndarray:
    """The runs ``arange(s, s + k)`` of each start s and length k, end to end."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


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
    return np.column_stack((group // b, group % b, ranges(0, sizes)))


def stripe(sizes: np.ndarray, weights_of, n: int) -> np.ndarray:
    """``holder[c, ell]``, in ``node_dtype``: the node of group c, the
    run of ``sizes[c]`` nodes after the groups before it, holding line ell.

    The groups ``cs`` of one size g > 1 are striped together by
    ``balanced_labels`` of their line weights ``weights_of(cs)``, one row
    per group, each at most 2n.  A one-node group holds every line, so
    its weights are never asked for.
    """
    start = np.cumsum(sizes) - sizes
    holder = np.broadcast_to(start[:, None], (len(sizes), n)).astype(node_dtype(n))
    for g in set(sizes[sizes > 1].tolist()):
        cs = np.flatnonzero(sizes == g)
        holder[cs] += balanced_labels(weights_of(cs), g, 2 * n)
    return holder


# -- subsequences -----------------------------------------------------------

@dataclass
class SubseqSide:
    """Global table of one matrix side's column (or row) fragments.

    Every node derives this identical table from the broadcast nonzero
    counts; ids are dense in enumeration order (line ascending, fragment
    position ascending).  Trailing fragments of a line may be empty: the
    agreed count is ``partition.avg_partition``'s ceil(line_nz / avg),
    not the occupied count.  ``size`` is each fragment's entry count,
    common knowledge like the rest of the table.  A node owns at most two
    fragments of a side, in slots 0 and 1 by ascending id, so slot 1 is
    filled only when slot 0 is.
    """

    block: int                    # largest fragment, the slicing stride
    size: np.ndarray              # fragment id -> entries
    origin: np.ndarray            # fragment id -> line
    owner: np.ndarray             # fragment id -> owning node
    slot: np.ndarray              # fragment id -> its slot (0 or 1) at its owner
    held: np.ndarray              # (node, slot) -> fragment id, -1 where empty
    first: np.ndarray             # line -> its first fragment id


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
    size, count = avg_partition(nz_per_line)
    # Chunking fills every fragment of a line but its last nonempty one, so
    # the largest fragment is the stride (floor(avg) + 1 once any line is
    # cut in two).
    block = int(size.max(initial=0))
    total_frags = len(size)
    assert total_frags <= 2 * n
    owner = np.arange(total_frags)
    if total_frags > n:
        # -1 placeholders pad the ids sorted by (size, id) at the front.
        order = np.concatenate((np.full(2 * n - total_frags, -1),
                                np.argsort(size, kind="stable")))
        picks, nodes = np.concatenate((order[:n], order[::-1][:n])), np.tile(np.arange(n), 2)
        owner[picks[picks >= 0]] = nodes[picks >= 0]
    # Ids grouped by owner, ascending within one: the k-th is in slot k.
    slot = np.empty(total_frags, dtype=np.int64)
    slot[np.argsort(owner, kind="stable")] = ranges(0, np.bincount(owner, minlength=n))
    held = np.full((n, 2), -1, dtype=np.int64)
    held[owner, slot] = np.arange(total_frags)
    return SubseqSide(block, size, np.repeat(np.arange(len(count)), count),
                      owner, slot, held, np.cumsum(count) - count)


# -- fragment dealing, counts, requests and responses -----------------------

def deal_fragments(n: int, s_nz: list[int], t_nz: list[int], lines):
    """Fragment tables from common-knowledge counts, and the handler
    that ships the fragments.

    ``lines(v, state)`` returns node v's lhs column and rhs row, each a
    ``(pos, val)`` pair of columns sorted by position, of ``s_nz[v]`` and
    ``t_nz[v]`` entries.  Returns the ``(lhs, rhs)`` tables, common
    knowledge, and the handler ``emit(v, state, inbox)``, node v's batch
    sending each fragment to its owner.  The caller runs the handler as
    a phase of its own (smm's ``sbmm.subseq``) or joins its batch to
    another phase's (triangle listing's ``tri.lp.subseq``); it ignores
    the mailbox.
    """
    sides = (build_subsequences(s_nz, n), build_subsequences(t_nz, n))

    def emit(v, state, inbox):
        positions, values = zip(*lines(v, state))
        # Entry k of the line lies in its (k // block)-th fragment.
        frags = [side.first[v] + np.arange(len(pos)) // max(side.block, 1)
                 for side, pos in zip(sides, positions)]
        tags = np.repeat((_SUB_S, _SUB_T), [len(f) for f in frags])
        dst = np.concatenate([side.owner[f] for side, f in zip(sides, frags)])
        return (dst, tags, np.concatenate(frags), np.concatenate(positions),
                concat_values(values))

    return sides, emit


# Fragment routing, shared with triangle listing's LearnPaths: owners file
# entries by band, nodes send each owner one word of fragment bits, owners
# answer per requester band.

class Buckets(NamedTuple):
    """A fragment owner's entries filed by band.

    A bucket holds the entries of one slot's fragment in one band: the
    lhs fragment in slot k in band i is bucket ``k * bands[0] + i``, and
    the rhs buckets follow the two slots of lhs ones in the same way, an
    empty slot's buckets empty.  Entries are sorted by bucket, arrival
    order kept within one; bucket x is rows ``bounds[x]:bounds[x + 1]``
    of ``pos`` and ``val``.
    """

    pos: np.ndarray
    val: np.ndarray
    bounds: np.ndarray
    bands: tuple[int, int]        # lhs and rhs band counts

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per side, entries of each slot's fragment (row) in each band (column)."""
        lhs, rhs = np.split(np.diff(self.bounds), [2 * self.bands[0]])
        return lhs.reshape(2, -1), rhs.reshape(2, -1)


def bucket_fragments(sides: tuple[SubseqSide, SubseqSide], band_s: list[int],
                     band_t: list[int]):
    """Ingest step, which the handler of the phase after dealing calls
    first, filing entries by band.

    ``band_s[pos]`` is the band of an lhs entry at row pos and
    ``band_t[pos]`` that of an rhs entry at column pos.  Only the
    ``_SUB_S``/``_SUB_T`` rows of the mailbox are filed, so the dealing
    phase may carry other words too.  Leaves ``state["buckets"]``, the
    node's ``Buckets``, positions in ``node_dtype``.
    """
    band_s, band_t = np.asarray(band_s), np.asarray(band_t)
    nodes = node_dtype(len(band_s))
    s_count, t_count = int(band_s.max()) + 1, int(band_t.max()) + 1

    def ingest(v, state, inbox):
        is_s = inbox.tag == _SUB_S
        frag = np.flatnonzero(is_s | (inbox.tag == _SUB_T))
        is_s, q, pos, val = is_s[frag], inbox.i1[frag], inbox.i2[frag], inbox.val[frag]
        # Fragment q reached its owner v, so it is in slot 1 iff held there.
        key = np.where(is_s,
                       (q == sides[0].held[v, 1]) * s_count + band_s[pos],
                       2 * s_count + (q == sides[1].held[v, 1]) * t_count + band_t[pos])
        order = np.argsort(key, kind="stable")
        size = 2 * (s_count + t_count)
        bounds = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=size), out=bounds[1:])
        state["buckets"] = Buckets(pos.astype(nodes)[order], val[order], bounds,
                                   (s_count, t_count))

    return ingest


def fragment_requests(sides: tuple[SubseqSide, SubseqSide], holder: np.ndarray, wanted):
    """Handler of a request phase, with every node's words built at once.

    ``holder[c, ell]`` is the node of group c that holds line ell, and
    ``wanted`` holds, per side, a table of flags indexed by (group,
    fragment id).  For every flagged fragment q of group c, the holder of
    q's line asks q's owner for it, unless q is empty
    (``SubseqSide.size``, common knowledge), so an owner of only empty
    fragments hears nothing.  Node v sends one word ``(owner, _REQ,
    lhs_mask, rhs_mask, 0)`` per owner it asks, owners ascending:
    fragment q is bit ``1 << SubseqSide.slot[q]``, as its owner holds at
    most two per side.  Every request is one key packed as (asker, owner,
    side and slot bit), so one sort and one ``add.reduceat`` give the
    words of all nodes.
    """
    n = len(sides[0].held)
    keys = []
    for k, side in enumerate(sides):
        c, q = np.nonzero(wanted[k] & (side.size > 0))
        keys.append((holder[c, side.origin[q]].astype(np.int64) * n + side.owner[q]) * 4
                    + 2 * k + side.slot[q])
    keys = np.sort(np.concatenate(keys))
    starts = np.flatnonzero(np.diff(keys >> 2, prepend=-1))
    bits = np.add.reduceat(1 << (keys & 3), starts)
    asker, owner = np.divmod(keys[starts] >> 2, n)
    bounds = np.searchsorted(asker, np.arange(n + 1))

    def emit(v, state, inbox):
        lo, hi = bounds[v], bounds[v + 1]
        return owner[lo:hi], _REQ, bits[lo:hi] & 3, bits[lo:hi] >> 2, 0

    return emit


def fragment_responder(sides: tuple[SubseqSide, SubseqSide], lhs_band, rhs_band):
    """Handler answering the request words in a node's mailbox from its buckets.

    ``lhs_band[src]`` and ``rhs_band[src]`` are the requester's bands, -1
    for a node that may not request.  Bit k of a mask names the node's
    fragment in slot k of that side, whose line ell is its
    ``SubseqSide.origin``: an lhs fragment of column ell gets ``(_ENT_S,
    pos, ell, val)`` for every entry in the lhs band, an rhs fragment of
    row ell ``(_ENT_T, ell, pos, val)`` for those in the rhs band.  Each
    requester's answer is one run, lhs fragments first.  A bit naming no
    owned fragment, or a request from a node without a band, raises
    SimulationError.  Headers go out in ``node_dtype`` and int16 tags,
    which the engine widens on delivery.
    """
    bands = np.stack((np.asarray(lhs_band), np.asarray(rhs_band)))   # side, node
    # Column 2 * side + k stands for a node's fragment in slot k of a side:
    # ``lines`` holds its line (0 where the slot is empty), and ``filled``
    # the node's filled slots per side, so a mask bit at or past it is bad.
    slot_side, slot_bit = np.array([0, 0, 1, 1]), np.array([1, 2, 1, 2])
    lines = np.concatenate([np.append(side.origin, 0)[side.held] for side in sides],
                           axis=1).astype(node_dtype(len(bands[0])))
    filled = np.stack([(side.held >= 0).sum(axis=1) for side in sides], axis=1)
    entry_tags = np.array([_ENT_S, _ENT_T], dtype=np.int16)     # by side

    def respond(v, state, inbox):
        if not len(inbox):
            return None
        pos, val, bounds, (s_bands, t_bands) = state["buckets"]
        src = inbox.src.astype(np.intp)     # cast once: each int16 index would cast again
        masks = np.stack((inbox.i1, inbox.i2), axis=1)
        unowned = (masks >> filled[v]).any(axis=1)
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
        # Per slot, its fragment's bucket in band 0 (see ``Buckets``).
        first = np.array([0, s_bands, 2 * s_bands, 2 * s_bands + t_bands])
        bucket = first[slot] + band
        lo = bounds[bucket]
        length = bounds[bucket + 1] - lo
        entry = ranges(lo, length)
        side = np.repeat(side, length)
        is_s = side == 0
        ell = np.repeat(lines[v, slot], length)
        p = pos[entry]
        return (np.repeat(inbox.src[req], length), entry_tags[side],
                np.where(is_s, p, ell), np.where(is_s, ell, p), val[entry])

    return respond


def _fragment_counts(inbox, side: SubseqSide, k: int, n: int) -> np.ndarray:
    """Decode field k (0 lhs, 1 rhs) of a mailbox of count words into an
    array indexed by fragment id of the fragment's entries in the
    receiver's band.

    The field packs the counts of the sender's two slots of that side as
    ``slot0 * (n + 1) + slot1`` (a fragment holds at most n entries); a
    fragment without a word has no entry in the band.
    """
    # The extra last entry takes the counts of empty slots, id -1.
    cnt = np.zeros(len(side.origin) + 1, dtype=np.int64)
    held = side.held[inbox.src.astype(np.intp)]
    cnt[held] = np.stack(divmod((inbox.i1, inbox.i2)[k], n + 1), axis=1)
    return cnt[:-1]


def compute_receiving(engine: CliqueEngine, sides: tuple[SubseqSide, SubseqSide],
                      band_s: np.ndarray, band_t: np.ndarray, cells: np.ndarray
                      ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Band-count exchange and per-group page assignment.

    Each fragment owner sends every node one word holding how many
    entries of its fragments fall in that node's row band (lhs) and
    column band (rhs); all-zero words stay unsent.  Every node of a group
    then derives the same weight-balanced striping (``stripe``) of the n
    pages (rank-1 slices) over the group's nodes.  ``band_s[p]`` and
    ``band_t[p]`` are the bands of permuted row and column p, and
    ``cells`` is ``grid_cells``'s node table.  Returns ``holder``, where
    ``holder[c, ell]`` is the node of group c = i * b + j holding page
    ell, in ``node_dtype``, and, per side, the flags ``fragment_requests``
    reads as a table indexed by (group, fragment id).
    """
    n = engine.n
    ingest = bucket_fragments(sides, band_s, band_t)

    def emit_counts(v, state, inbox):
        ingest(v, state, inbox)
        s_field, t_field = ((c[0] * (n + 1) + c[1])[cells[:, k]]
                            for k, c in enumerate(state["buckets"].counts()))
        dst = np.flatnonzero(s_field | t_field)
        return dst, _CNT, s_field[dst], t_field[dst], 0

    engine.run_phase("sbmm.counts", emit_counts)

    # A word's lhs field depends on the receiver's row band alone and its
    # rhs field on its column band (``emit_counts``), and a missing word
    # reads as 0, so every member of a band derives the same line weights
    # from that field: one derivation per band and side.
    weights, flags = [], []
    for k, side in enumerate(sides):
        def line_counts(band, inbox):
            counts = _fragment_counts(inbox, side, k, n)
            # Exact in float64: a line holds at most n entries.
            line_weights = np.bincount(side.origin, counts, n).astype(np.int64)
            # Own counts travel as free self-messages and are already in
            # the inbox, so the weights are complete.  The requests need
            # only which fragments hold entries in the band.
            return line_weights, counts > 0

        band_of = cells[:, k]
        derived = engine.derive_per_group(
            {b: np.flatnonzero(band_of == b) for b in range(band_of.max() + 1)}, line_counts)
        weights.append(np.stack([derived[b][0] for b in range(len(derived))]))
        flags.append(np.stack([derived[b][1] for b in range(len(derived))]))

    # Group c = i * b + j weighs page ell by both bands' entries on it.
    a, b = len(weights[0]), len(weights[1])
    holder = stripe(np.bincount(cells[:, 0] * b + cells[:, 1]),
                    lambda c: weights[0][c // b] + weights[1][c % b], n)
    return holder, (np.repeat(flags[0], b, axis=0), np.tile(flags[1], (a, 1)))


# A node multiplies dense blocks when their volume (rows x pages x
# columns) is at most this many times its (lhs, rhs) pair count.  Timing
# both paths of ``_kernel_partials`` on random blocks (8 to 64 rows and
# columns, 16 to 256 pages, densities 0.02 to 0.5; one core of a 2 vCPU
# x86 VM), the block product won at every volume/pairs ratio below 400
# and lost on large blocks above it; smm-uniform's n=512 nodes sit at 61-67.
_BLOCK_PER_PAIR = 256


def _reduce_phase(engine: CliqueEngine, semiring: Semiring, pages: np.ndarray,
                  row_dst: np.ndarray, col_out: np.ndarray) -> None:
    """Local page products; the partial for cell (r, c) goes to node
    row_dst[r] as result column col_out[c].  ``pages[v]`` is node v's
    page count.

    A node whose values lie in its semiring kernel's exactness envelope
    (at most one product per page per cell, so ``terms`` is its page
    count) multiplies and sums with the kernel; any other node, and every
    node of a semiring without a kernel, with the fold kernel.
    """
    def reduce(v, state, inbox):
        del state["buckets"]    # its last reader was respond
        if not len(inbox):
            return None
        is_s, is_t = inbox.tag == _ENT_S, inbox.tag == _ENT_T
        # (row, page, value) of the lhs entries, (page, column, value) of the rhs.
        lhs = inbox.i1[is_s], inbox.i2[is_s], inbox.val[is_s]
        rhs = inbox.i1[is_t], inbox.i2[is_t], inbox.val[is_t]
        kernel = semiring.kernel
        if kernel is None or not kernel.exact(lhs[2], rhs[2], int(pages[v])):
            kernel = semiring.fold_kernel
        return _kernel_partials(kernel, semiring.omitted, engine.n, lhs, rhs, row_dst, col_out)

    engine.run_phase("sbmm.reduce", reduce)


def _kernel_partials(kernel: ArrayKernel, omitted, n: int, lhs: tuple, rhs: tuple,
                     row_dst: np.ndarray, col_out: np.ndarray) -> tuple | None:
    """One node's partials: the sum over its pages of lhs entry (r, page)
    times rhs entry (page, c), per cell (r, c) whose sum is not
    ``omitted``, sent in (r, c) order.  A node holds entries of its own
    pages only, as it asked for no others.

    When the kernel has a block product that is exact on the node's
    values and the dense blocks are small against the pair count
    (``_BLOCK_PER_PAIR``), the node multiplies (rows x pages) by (pages x
    columns), over the row and column ranges it holds and the pages it
    holds entries of; otherwise every (lhs, rhs) entry pair of a page is
    multiplied and the products are summed per cell, by the fold kernel
    in page order.  Either way the cells and values are the same.
    """
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
    # Each lhs entry, page by page, pairs with every rhs entry of its page:
    # rhs entries sorted by page, the pair's rhs index runs from the page's
    # first one.  A cell's products thus come in page order.
    s_order, t_order = np.argsort(s_page), np.argsort(t_page)
    li = np.repeat(s_order, reps[s_order])
    ri = t_order[ranges((np.cumsum(t_count) - t_count)[s_page[s_order]], reps[s_order])]
    cell, sums = _cell_sums(kernel, omitted, s_row[li] * n + t_col[ri],
                            kernel.mul(s_val[li].astype(kernel.dtype),
                                       t_val[ri].astype(kernel.dtype)))
    return row_dst[cell // n], _RED, col_out[cell % n], 0, sums


def _cell_sums(kernel: ArrayKernel, omitted, cell: np.ndarray,
               values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells ascending and their sums of ``values``, omitted sums dropped.

    The fold kernel sums a cell's values in the order given; a numpy
    kernel sums exactly in any order, so its sort need not be stable.
    """
    order = np.argsort(cell, kind="stable" if kernel.dtype is object else None)
    cell = cell[order]
    starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))[:len(cell)]
    sums = kernel.add.reduceat(values[order], starts)
    kept = sums != omitted
    return cell[starts][kept], sums[kept]


def _gather_rows(engine: CliqueEngine, semiring: Semiring) -> tuple:
    """The product's ``(ptr, cols, vals)`` from the reduce delivery: node
    r sums its partials per column.

    With the semiring's kernel exact on the partials every row is summed
    by it, else by the fold kernel, each cell's partials in mailbox
    order.  Omitted sums are dropped, and the delivery is released before
    the row pointer is built.
    """
    n, mail = engine.n, engine.drain_inboxes()
    kernel = semiring.kernel
    if kernel is None or not kernel.sums_exact(mail.val):
        kernel = semiring.fold_kernel
    cell, sums = _cell_sums(kernel, semiring.omitted,
                            np.repeat(np.arange(n), np.diff(mail.bounds)) * n + mail.i1, mail.val)
    del mail
    return np.searchsorted(cell, np.arange(n + 1) * n), cell % n, value_column(sums)


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


def smm(S: SparseMatrix, T: SparseMatrix, engine: CliqueEngine | None = None, *,
        row_counts: tuple | None = None) -> SmmResult:
    """Product S*T via the full pipeline; result rows gathered from nodes.

    With an engine supplied, phases append to its ledger (used by the
    shortest-path driver, which runs many multiplications in sequence).

    ``row_counts=(s_row_nz, t_row_nz)`` enters the symmetric path: the
    caller vouches that S and T are symmetric and that every node already
    holds both lists of row sizes.  Node v's row v is then its column v,
    and each column count is the row count, so ``distribute`` and
    ``stats`` are skipped and the product runs the five ``sbmm`` phases
    alone.  Counts that disagree with the operands' rows raise
    DimensionError before any phase is charged.
    """
    if S.n != T.n:
        raise DimensionError(f"operand sizes differ: {S.n} vs {T.n}")
    if S.semiring.name != T.semiring.name:
        raise DimensionError(
            f"operand semirings differ: {S.semiring.name} vs {T.semiring.name}")
    n = S.n
    sr = S.semiring
    if row_counts is not None:
        s_row_nz, t_row_nz = (list(c) for c in row_counts)
        if s_row_nz != np.diff(S.ptr).tolist() or t_row_nz != np.diff(T.ptr).tolist():
            raise DimensionError("row counts disagree with the operands' row lengths")
    engine = engine_for(n, engine)
    mark = engine.ledger.mark()

    if row_counts is None:
        s_row_nz, t_col_nz, s_col_nz, t_row_nz = _redistribute(engine, S, T)
    else:
        s_col_nz, t_col_nz = s_row_nz, t_row_nz
    split = choose_split(sum(s_row_nz), sum(t_col_nz), n)
    (sigma_of, band_s), (tau_of, band_t) = _bands(s_row_nz, split.a), _bands(t_col_nz, split.b)

    # Permuting keeps column v of S' = sigma(S) and row v of T' = T tau
    # on node v: both are local relabels.
    def relabel(v, state):
        rows, s_vals = S.row(v) if row_counts is not None else state.pop("S_col")
        t_cols, t_vals = T.row(v)
        s_pos, t_pos = sigma_of[rows], tau_of[t_cols]
        s_order, t_order = np.argsort(s_pos), np.argsort(t_pos)
        return (s_pos[s_order], s_vals[s_order]), (t_pos[t_order], t_vals[t_order])

    sides, emit_fragments = deal_fragments(n, s_col_nz, t_row_nz, relabel)
    engine.run_phase("sbmm.subseq", emit_fragments)
    # Partials go straight to the owner of the unpermuted result row, as
    # the unpermuted result column: the inverse permutations.
    row_dst, col_out = np.argsort(sigma_of), np.argsort(tau_of)
    cells = grid_cells(n, split.a, split.b)
    holder, wanted = compute_receiving(engine, sides, band_s, band_t, cells)
    # A node asks for a line's fragments only from owners whose count word
    # reported entries in its band.  The page tables are gone before the
    # responses are built.
    engine.run_phase("sbmm.request", fragment_requests(sides, holder, wanted))
    del holder, wanted
    engine.run_phase("sbmm.respond", fragment_responder(sides, cells[:, 0], cells[:, 1]))
    # ``stripe`` gives the first (-n) mod g nodes of a g-node group
    # ceil(n/g) - 1 pages and the others ceil(n/g).
    group = cells[:, 0] * split.b + cells[:, 1]
    size = np.bincount(group)[group]
    _reduce_phase(engine, sr, -(-n // size) - (cells[:, 2] < (-n) % size), row_dst, col_out)
    product = SparseMatrix(n, sr, *_gather_rows(engine, sr))
    return SmmResult(product, split, sigma_of.tolist(), tau_of.tolist(),
                     engine.ledger.since(mark))


def _redistribute(engine: CliqueEngine, S: SparseMatrix, T: SparseMatrix) -> tuple:
    """``distribute`` and ``stats``: node v, which starts with row v of S
    and of T, gets column v of each and broadcasts its four counts.

    Returns the S row, T column, S column and T row counts, lists indexed
    by node, and leaves column v of S in node v's ``state["S_col"]``.
    """
    def emit_cols(v, state, inbox):
        (s_cols, s_vals), (t_cols, t_vals) = S.row(v), T.row(v)
        tags = np.repeat((_S_COL, _T_COL), (len(s_cols), len(t_cols)))
        return np.concatenate((s_cols, t_cols)), tags, v, 0, concat_values([s_vals, t_vals])

    engine.run_phase("distribute", emit_cols)

    # One word carries all four counts; the last field packs two of them
    # (see the word format in engine.py).
    base = engine.n + 1

    def stats(v, state, inbox):
        is_s = inbox.tag == _S_COL
        state["S_col"] = (inbox.src[is_s], inbox.val[is_s])
        return (_NZ, len(S.row(v)[0]), int(np.count_nonzero(inbox.tag == _T_COL)),
                len(state["S_col"][0]) * base + len(T.row(v)[0]))

    words = engine.run_broadcast("stats", stats)
    s_col_nz, t_row_nz = zip(*(divmod(w[3], base) for w in words))
    return [w[1] for w in words], [w[2] for w in words], list(s_col_nz), list(t_row_nz)
