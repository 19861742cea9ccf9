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
  its row/column band, in one word, giving page weights;
* sbmm.request/sbmm.respond: each node sends every owner it needs one
  word, a bit per fragment (so one round), and pulls exactly the
  band-restricted fragments of its pages that have entries in its band;
* sbmm.reduce: locally computed page products are summed into result
  rows, each partial sent straight to the owner of its unpermuted row.
  A node runs its semiring's array kernel when its values lie inside the
  kernel's exactness envelope (see ``semiring.py``) and the scalar fold
  otherwise; both send the same messages.

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
from fractions import Fraction
from itertools import compress, repeat

import numpy as np

from .engine import CliqueEngine, PhaseRecord, SimulationError, engine_for
from .partition import avg_partition, balanced_assignment
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


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def n_split_pairs(n: int) -> list[tuple[int, int]]:
    """All (a, b) with a | n, b | n, ab | n, ascending lexicographic.

    ab must divide n, not merely stay below it: the nodes form an a-by-b
    grid of groups with exactly n/(ab) members each.
    """
    divs = divisors(n)
    return [(a, b) for a in divs for b in divs if n % (a * b) == 0]


def split_cost(nzS: int, nzT: int, n: int, a: int, b: int) -> Fraction:
    """Exact value of the round-cost surrogate nzS*b/n^2 + nzT*a/n^2 + n/(ab)."""
    return Fraction(nzS * b + nzT * a, n * n) + Fraction(n, a * b)


def choose_split(nzS: int, nzT: int, n: int) -> SplitPair:
    """Argmin of split_cost over all valid divisor pairs, ties to smallest (a, b)."""
    if n < 1:
        raise ValueError("n must be positive")
    best = None
    best_cost = None
    for a, b in n_split_pairs(n):
        cost = split_cost(nzS, nzT, n, a, b)
        if best_cost is None or cost < best_cost:
            best, best_cost = (a, b), cost
    return SplitPair(*best)


# -- node aliasing ----------------------------------------------------------

def group_of(v: int, a: int, b: int, n: int) -> tuple[int, int, int]:
    """Triple alias v -> (i, j, k): row-major over the a*b grid, n/(ab) per cell."""
    g = n // (a * b)
    blk, k = divmod(v, g)
    i, j = divmod(blk, b)
    return i, j, k


def node_of(i: int, j: int, k: int, a: int, b: int, n: int) -> int:
    g = n // (a * b)
    return (i * b + j) * g + k


# -- balancing permutations -------------------------------------------------

def _balance_permutations(row_nz: list[int], col_nz: list[int], a: int, b: int):
    """Row/col permutations grouping lines into weight-balanced bands.

    Band i of the permuted lhs collects the i-th group of the balanced
    assignment of row-nonzero counts (k=a, bound x=n); likewise for rhs
    columns with k=b.  Within a band, original line order is preserved.
    """
    n = len(row_nz)
    groups_s = balanced_assignment(row_nz, a, n)
    groups_t = balanced_assignment(col_nz, b, n)
    sigma = [0] * n
    h = n // a
    for i, grp in enumerate(groups_s):
        for off, r in enumerate(grp):
            sigma[r] = i * h + off
    tau = [0] * n
    w = n // b
    for j, grp in enumerate(groups_t):
        for off, c in enumerate(grp):
            tau[c] = j * w + off
    return sigma, tau


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


# -- page assignment --------------------------------------------------------

def build_page_assignment(weights: list[int], n: int, a: int, b: int) -> list[list[int]]:
    """Weight-balanced striding of the n pages (rank-1 slices) of one
    sub-matrix group over its n/(ab) nodes: node k of the group gets the
    sorted page list at index k, ab pages."""
    return balanced_assignment(weights, n // (a * b), 2 * n)


# -- protocol helpers -------------------------------------------------------

def _column(inbox, tag: int) -> list[tuple]:
    """(sender, value) pairs of one tag: a column gathered from row owners."""
    return [(src, val) for src, t, _i1, _i2, val in inbox if t == tag]


# -- fragment dealing, counts, requests and responses -----------------------

def deal_fragments(engine: CliqueEngine, s_nz: list[int], t_nz: list[int],
                   prefix: str, lines) -> SubseqOwnership:
    """Fragment tables from common-knowledge counts, and the fragments shipped.

    ``lines(v, state)`` returns node v's lhs column and rhs row, sorted
    ``(pos, val)`` lists; v sends each fragment to its owner and reads no
    mailbox.  The returned tables are common knowledge.
    """
    n = engine.n
    side_s = build_subsequences(s_nz, n)
    side_t = build_subsequences(t_nz, n)

    def emit_fragments(v, state, inbox):
        out = []
        for side, entries, tag in zip((side_s, side_t), lines(v, state), (_SUB_S, _SUB_T)):
            for q in side.by_line[v]:
                lo, hi = side.slice_bounds(q)
                for pos, val in entries[lo:hi]:
                    out.append((side.owner[q], tag, q, pos, val))
        return out

    engine.run_phase(prefix + "subseq", emit_fragments)
    return SubseqOwnership(side_s, side_t)


# Fragment routing, shared with triangle listing's LearnPaths: owners file
# entries by band, nodes send each owner one word of fragment bits, owners
# answer per requester band.

def bucket_fragments(ownership: SubseqOwnership, band_s: list[int],
                     band_t: list[int]):
    """Ingest step, in the phase after dealing, filing entries by band.

    ``band_s[pos]`` is the band of an lhs entry at row pos and
    ``band_t[pos]`` that of an rhs entry at column pos.  A bucket is a
    flat ``[pos, val, pos, val, ...]`` list, so filing an entry makes no
    new object.  Leaves ``state["s_bands"]`` and ``state["t_bands"]``:
    fragment id -> band -> bucket.
    """
    s_count, t_count = max(band_s) + 1, max(band_t) + 1

    def ingest(v, state, inbox):
        s_bands = {q: [[] for _ in range(s_count)] for q in ownership.s.owned[v]}
        t_bands = {q: [[] for _ in range(t_count)] for q in ownership.t.owned[v]}
        for _, tag, q, pos, val in inbox:
            if tag == _SUB_S:
                bucket = s_bands[q][band_s[pos]]
            else:
                bucket = t_bands[q][band_t[pos]]
            bucket.append(pos)
            bucket.append(val)
        state["s_bands"] = s_bands
        state["t_bands"] = t_bands

    return ingest


def fragment_requests(ownership: SubseqOwnership, asks) -> list[tuple]:
    """One request word ``(owner, _REQ, lhs_mask, rhs_mask, 0)`` per owner asked.

    ``asks[k]`` is a ``(lines, wanted)`` pair whose fragments set bits at
    shift 2k of the masks, so one word carries every set (triangle
    listing's two halves); within a set, fragment q is bit
    ``SubseqSide.bit[q]``, as its owner holds at most two per side.  An
    empty fragment (``SubseqSide.size``, common knowledge) is never asked
    for, so an owner of only empty fragments hears nothing.  ``wanted``
    holds, per side, one flag per fragment id, nonzero when the count
    words reported entries of that fragment in the requester's band; an
    unflagged fragment is not asked for either.  None asks for every
    nonempty fragment of the lines.
    """
    s_masks: dict[int, int] = {}
    t_masks: dict[int, int] = {}
    for shift, (lines, wanted) in zip(range(0, 2 * len(asks), 2), asks):
        for k, (side, masks) in enumerate(((ownership.s, s_masks), (ownership.t, t_masks))):
            flags = None if wanted is None else wanted[k]
            by_line, size, owner, bit = side.by_line, side.size, side.owner, side.bit
            get = masks.get
            for ell in lines:
                for q in by_line[ell]:
                    if size[q] and (flags is None or flags[q]):
                        u = owner[q]
                        masks[u] = get(u, 0) | bit[q] << shift
    return [(u, _REQ, s_masks.get(u, 0), t_masks.get(u, 0), 0)
            for u in {**s_masks, **t_masks}]


def fragment_responder(ownership: SubseqOwnership, requester_bands):
    """Handler answering the request words in a node's mailbox from its buckets.

    ``requester_bands(src)`` is the requester's (lhs band, rhs band).  Bit
    k of a mask names the node's k-th owned fragment of that side, whose
    line ell is its ``SubseqSide.origin``: an lhs fragment of column ell
    gets ``(_ENT_S, pos, ell, val)`` for every entry in the lhs band, an
    rhs fragment of row ell ``(_ENT_T, ell, pos, val)`` for those in the
    rhs band.  A bit naming no owned fragment raises SimulationError.
    """
    def respond(v, state, inbox):
        out = []
        s_owned, t_owned = ownership.s.owned[v], ownership.t.owned[v]
        for src, _tag, s_mask, t_mask, _ in inbox:
            if s_mask >> len(s_owned) or t_mask >> len(t_owned):
                raise SimulationError(
                    f"node {v} was asked by node {src} for a fragment it does not own")
            lhs_band, rhs_band = requester_bands(src)
            for k, q in enumerate(s_owned):
                if s_mask >> k & 1:
                    ell = ownership.s.origin[q]
                    it = iter(state["s_bands"][q][lhs_band])
                    out.extend((src, _ENT_S, pos, ell, val) for pos, val in zip(it, it))
            for k, q in enumerate(t_owned):
                if t_mask >> k & 1:
                    ell = ownership.t.origin[q]
                    it = iter(state["t_bands"][q][rhs_band])
                    out.extend((src, _ENT_T, ell, pos, val) for pos, val in zip(it, it))
        return out

    return respond


def _fragment_counts(inbox, ownership: SubseqOwnership, n: int) -> tuple[list, list]:
    """Decode count words into, per side, a list indexed by fragment id of
    the fragment's entries in the receiver's band.

    A word's lhs and rhs fields each pack the counts of the sender's (at
    most two) owned fragments of that side, in id order, as
    ``first * (n + 1) + second``; a fragment without a word has no entry
    in the band.
    """
    cnt_s = [0] * len(ownership.s.origin)
    cnt_t = [0] * len(ownership.t.origin)
    for src, tag, s_field, t_field, _ in inbox:
        if tag == _CNT:
            for q, c in zip(ownership.s.owned[src], divmod(s_field, n + 1)):
                cnt_s[q] = c
            for q, c in zip(ownership.t.owned[src], divmod(t_field, n + 1)):
                cnt_t[q] = c
    return cnt_s, cnt_t


def _count_fields(buckets: dict[int, list[list]], bands: int, n: int) -> list[int]:
    """Per band, the owned fragments' entry counts packed into one field.

    A fragment holds at most n entries, so each count fits base n + 1.
    """
    fields = []
    for band in range(bands):
        cnt = [len(per_band[band]) // 2 for per_band in buckets.values()] + [0, 0]
        fields.append(cnt[0] * (n + 1) + cnt[1])
    return fields


def compute_receiving(engine: CliqueEngine, ownership: SubseqOwnership,
                      a: int, b: int, grid: list[tuple[int, int]]
                      ) -> dict[tuple[int, int], tuple[list[list[int]], tuple[bytes, bytes]]]:
    """Band-count exchange and per-group page assignment.

    Each fragment owner sends every node one word holding how many
    entries of its fragments fall in that node's row band (lhs) and
    column band (rhs); all-zero words stay unsent.  Every node of a group
    then derives the same weight-balanced page striping; the returned
    dict holds, per (i, j) group, that assignment and the flags
    ``fragment_requests`` reads.  ``grid[u]`` is node u's group (i, j).
    """
    n = engine.n
    h_s = n // a
    h_t = n // b
    ingest = bucket_fragments(ownership, [p // h_s for p in range(n)],
                              [p // h_t for p in range(n)])

    def emit_counts(v, state):
        s_fields = _count_fields(state["s_bands"], a, n)
        t_fields = _count_fields(state["t_bands"], b, n)
        out = []
        for u, (i_u, j_u) in enumerate(grid):
            s_field, t_field = s_fields[i_u], t_fields[j_u]
            if s_field or t_field:
                out.append((u, _CNT, s_field, t_field, 0))
        return out

    engine.run_ingest_emit("sbmm.counts", ingest, emit_counts)

    def page_assignment(group, inbox):
        counts = _fragment_counts(inbox, ownership, n)
        weights = [0] * n
        for side, side_counts in zip((ownership.s, ownership.t), counts):
            for line, cnt in zip(side.origin, side_counts):
                weights[line] += cnt
        # Own counts travel as free self-messages and are already in the
        # inbox, so the weight vector is complete.  The requests need only
        # which fragments hold entries in the band: a byte per fragment,
        # small enough to keep for every group until they are out.
        return (build_page_assignment(weights, n, a, b),
                tuple(bytes(map(bool, side_counts)) for side_counts in counts))

    # Every member of a group receives the same count words, because
    # ``emit_counts`` picks a word by the receiver's group alone.
    g = n // (a * b)
    groups = {(i, j): [node_of(i, j, k, a, b, n) for k in range(g)]
              for i in range(a) for j in range(b)}
    return engine.derive_per_group(groups, page_assignment)


def _reduce_phase(engine: CliqueEngine, semiring: Semiring, row_dst: list[int],
                  col_out: list[int]) -> None:
    """Local page products; the partial for cell (r, c) goes to node
    row_dst[r] as result column col_out[c].

    A node whose values lie in its semiring kernel's exactness envelope
    (at most one product per page per cell, so ``terms`` is its page
    count) multiplies and sums with the kernel; any other node, and every
    node of a semiring without a kernel, folds with the scalar ``add`` and
    ``mul``.  Both emit the same messages in (r, c) order.
    """
    kernel = semiring.kernel

    def reduce(v, state, inbox):
        del state["s_bands"], state["t_bands"]    # their last reader was respond
        pages = state.pop("my_pages")
        if not inbox:
            return []
        _, tags, i1s, i2s, vals = zip(*inbox)
        lhs = list(compress(vals, map(_ENT_S.__eq__, tags)))
        rhs = list(compress(vals, map(_ENT_T.__eq__, tags)))
        if kernel is not None and kernel.exact(lhs, rhs, len(pages)):
            return _kernel_partials(semiring, engine.n, tags, i1s, i2s, lhs, rhs,
                                    row_dst, col_out)
        return _scalar_partials(semiring, pages, inbox, row_dst, col_out)

    engine.run_phase("sbmm.reduce", reduce)


def _scalar_partials(semiring: Semiring, pages: list[int], inbox,
                     row_dst: list[int], col_out: list[int]) -> list[tuple]:
    add, mul, omitted = semiring.add, semiring.mul, semiring.omitted
    s_frags: dict[int, list] = {}
    t_frags: dict[int, list] = {}
    for _, tag, i1, i2, val in inbox:
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
    return [(row_dst[r], _RED, col_out[c], 0, val)
            for (r, c), val in sorted(acc.items()) if val != omitted]


def _kernel_partials(semiring: Semiring, n: int, tags, i1s, i2s, lhs: list,
                     rhs: list, row_dst: list[int], col_out: list[int]) -> list[tuple]:
    """``_scalar_partials`` in array form: every (lhs, rhs) entry pair of a
    page is multiplied, and the products are summed per cell.  A node
    holds entries of its own pages only, as it asked for no others."""
    kernel = semiring.kernel
    tag, i1, i2 = np.array(tags), np.array(i1s), np.array(i2s)
    is_s, is_t = tag == _ENT_S, tag == _ENT_T
    s_row, s_page = i1[is_s], i2[is_s]
    t_page, t_col = i1[is_t], i2[is_t]
    s_val = np.array(lhs, dtype=kernel.dtype)
    t_val = np.array(rhs, dtype=kernel.dtype)
    # Lhs entry k pairs with each rhs entry of its page: rhs entries sorted
    # by page, the pair's rhs index is the page's first one plus an offset.
    t_order = np.argsort(t_page, kind="stable")
    t_count = np.bincount(t_page, minlength=n)
    t_first = np.cumsum(t_count) - t_count
    reps = t_count[s_page]
    pairs = int(reps.sum())
    if pairs == 0:
        return []
    li = np.repeat(np.arange(len(s_page)), reps)
    offset = np.arange(pairs) - np.repeat(np.cumsum(reps) - reps, reps)
    ri = t_order[np.repeat(t_first[s_page], reps) + offset]
    cell = s_row[li] * n + t_col[ri]
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
    sums = kernel.add.reduceat(kernel.mul(s_val[li], t_val[ri])[order], starts)
    cell = cell[starts]
    kept = sums != semiring.omitted
    cell, sums = cell[kept], sums[kept]
    dst = np.asarray(row_dst)[cell // n].tolist()
    col = np.asarray(col_out)[cell % n].tolist()
    return list(zip(dst, repeat(_RED), col, repeat(0), sums.tolist()))


def _balanced_core(engine: CliqueEngine, semiring: Semiring, ownership: SubseqOwnership,
                   a: int, b: int, row_dst: list[int], col_out: list[int]):
    """Counts through reduce on dealt fragments; returns the gathered product."""
    n = engine.n
    grid = [group_of(u, a, b, n)[:2] for u in range(n)]
    derived = compute_receiving(engine, ownership, a, b, grid)

    # A node asks for a line's fragments only from owners whose count word
    # reported entries in its band.
    def request(v, state, inbox):
        i, j, k = group_of(v, a, b, n)
        assignment, wanted = derived[(i, j)]
        state["my_pages"] = assignment[k]
        return fragment_requests(ownership, [(state["my_pages"], wanted)])

    engine.run_phase("sbmm.request", request)
    engine.run_phase("sbmm.respond", fragment_responder(ownership, grid.__getitem__))
    _reduce_phase(engine, semiring, row_dst, col_out)
    rows = [sorted(_fold_partials(semiring, box).items())
            for box in engine.drain_inboxes()]
    return SparseMatrix(engine.n, semiring, rows)


def _fold_partials(semiring: Semiring, inbox) -> dict[int, object]:
    add, omitted = semiring.add, semiring.omitted
    row: dict[int, object] = {}
    for _, tag, c, _i2, val in inbox:
        if tag != _RED:
            continue
        prev = row.get(c)
        row[c] = val if prev is None else add(prev, val)
    return {c: val for c, val in row.items() if val != omitted}


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
        out = [(c, _S_COL, v, 0, val) for c, val in state["S_row"]]
        out.extend((c, _T_COL, v, 0, val) for c, val in state["T_row"])
        return out

    engine.run_ingest_emit("distribute", None, emit_cols)

    def ingest_cols(v, state, inbox):
        state["S_col"] = _column(inbox, _S_COL)
        state["nz_t_col"] = sum(1 for msg in inbox if msg[1] == _T_COL)

    # One word carries all four counts; the last field packs two of them
    # (see the word format in engine.py).
    base = n + 1
    words = engine.run_broadcast(
        "stats",
        lambda v, state: (_NZ, len(state.pop("S_row")), state.pop("nz_t_col"),
                          len(state["S_col"]) * base + len(state["T_row"])),
        ingest_cols,
    )
    row_nz = [w[1] for w in words]
    col_nz = [w[2] for w in words]
    s_col_nz, t_row_nz = zip(*(divmod(w[3], base) for w in words))
    split = choose_split(sum(row_nz), sum(col_nz), n)
    a, b = split.a, split.b
    sigma, tau = _balance_permutations(row_nz, col_nz, a, b)

    # Permuting keeps column v of S' = sigma(S) and row v of T' = T tau
    # on node v: both are local relabels.
    def relabel(v, state):
        return (sorted((sigma[r], val) for r, val in state.pop("S_col")),
                sorted((tau[c], val) for c, val in state.pop("T_row")))

    ownership = deal_fragments(engine, list(s_col_nz), list(t_row_nz), "sbmm.", relabel)
    # Partials go straight to the owner of the unpermuted result row, as
    # the unpermuted result column.
    row_dst, col_out = [0] * n, [0] * n
    for line in range(n):
        row_dst[sigma[line]] = line
        col_out[tau[line]] = line
    product = _balanced_core(engine, sr, ownership, a, b, row_dst, col_out)
    return SmmResult(product, split, sigma, tau, engine.ledger.since(mark))

