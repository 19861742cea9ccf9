import dataclasses
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cliquemul import oracle
from cliquemul.cli import generate_matrix
from cliquemul.engine import CliqueEngine, Delivery, Inbox, SimulationError, node_dtype
from cliquemul.partition import balanced_labels
from cliquemul.semiring import (Semiring, boolean_semiring, counting_semiring,
                                min_plus_semiring)
from cliquemul.smm import (
    Buckets,
    SplitPair,
    build_subsequences,
    choose_split,
    fragment_requests,
    fragment_responder,
    grid_cells,
    ranges,
    smm,
    stripe,
)
from cliquemul.sparse import DimensionError, SparseMatrix, value_column

COUNT = counting_semiring()


def messages(batch):
    """A handler's batch as ``(dst, tag, i1, i2, val)`` tuples; a column
    given as one value is that value in every message."""
    k = len(batch[0])
    columns = [col if isinstance(col, (list, tuple, np.ndarray)) else [col] * k
               for col in batch]
    return list(zip(*(np.asarray(col).tolist() for col in columns)))


def random_matrix(n, sr, density, rng):
    entries = []
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                if sr.name == "boolean":
                    entries.append((i, j, True))
                elif sr.name == "counting":
                    entries.append((i, j, rng.randint(1, 9)))
                else:
                    entries.append((i, j, float(rng.randint(0, 9))))
    return SparseMatrix.from_entries(n, sr, entries)


def dense(n, sr):
    return SparseMatrix.from_entries(
        n, sr, [(i, j, 1) for i in range(n) for j in range(n)])


# -- split selection --------------------------------------------------------

def test_choose_split_frozen_values():
    # a + b + 4/(ab) ties at 5 for (1,2), (2,1), (2,2); lexicographic winner
    assert choose_split(16, 16, 4) == SplitPair(1, 2)
    assert choose_split(512, 512, 64) == SplitPair(8, 8)
    # empty operands leave only the n/(ab) term, so push ab to n
    assert choose_split(0, 0, 8) == SplitPair(1, 8)
    # (2,2) would tie (2,3) at n/(ab) = 3/2 nodes a group, but its four
    # groups on six nodes are charged the smallest group, of one node
    assert choose_split(18, 18, 6) == SplitPair(2, 3)


def surrogate(nzS, nzT, n, a, b):
    """The split's round-cost surrogate (nzS*b + nzT*a + n^2*g)/(ab*n*g),
    g = n // (ab) the smallest group's size."""
    g = n // (a * b)
    return Fraction(nzS * b + nzT * a + n * n * g, a * b * n * g)


def test_choose_split_is_argmin():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.choice([4, 6, 7, 8, 12, 13, 20, 31, 48])
        nzS, nzT = rng.randint(0, n * n), rng.randint(0, n * n)
        got = choose_split(nzS, nzT, n)
        # every pair, in lexicographic order, so ties go to the smallest
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a * b <= n]
        assert (got.a, got.b) == min(pairs, key=lambda ab: surrogate(nzS, nzT, n, *ab))


def test_ranges_concatenates_aranges():
    rng = random.Random(3)
    for _ in range(50):
        lengths = [rng.choice((0, 0, 1, rng.randint(2, 9))) for _ in range(rng.randint(0, 8))]
        starts = [rng.randint(-20, 20) for _ in lengths]
        want = np.concatenate([np.arange(s, s + k) for s, k in zip(starts, lengths)]
                              + [np.zeros(0, dtype=np.int64)])
        got = ranges(np.array(starts, dtype=np.int64), lengths)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert ranges(0, [2, 0, 3]).tolist() == [0, 1, 0, 1, 2]


def test_grid_cells_uneven_groups():
    for n, a, b in ((23, 4, 5), (13, 2, 3), (20, 3, 3), (7, 1, 7), (16, 4, 4)):
        cells = grid_cells(n, a, b).tolist()
        # each node once, groups consecutive in row-major order
        assert len(set(map(tuple, cells))) == n
        assert cells == sorted(cells)
        sizes = {}
        for i, j, k in cells:
            assert 0 <= i < a and 0 <= j < b
            assert k == sizes.get((i, j), 0)
            sizes[(i, j)] = k + 1
        assert len(sizes) == a * b
        assert set(sizes.values()) <= {n // (a * b), -(-n // (a * b))}


def test_stripe_groups_by_size():
    # One-node groups among groups of 2, 3 and 5 nodes, sizes in no order:
    # the groups of one size are striped in one call, a one-node group
    # holds every line without its weights being asked for.
    sizes = np.array([1, 3, 2, 1, 5, 3, 2, 1, 5])
    n = int(sizes.sum())
    weights = np.random.default_rng(3).integers(0, 2 * n + 1, size=(len(sizes), n))
    asked = []

    def weights_of(cs):
        asked.extend(cs.tolist())
        return weights[cs]

    holder = stripe(sizes, weights_of, n)
    assert holder.dtype == node_dtype(n) and holder.shape == (len(sizes), n)
    assert sorted(asked) == np.flatnonzero(sizes > 1).tolist()
    start = np.cumsum(sizes) - sizes
    for c, g in enumerate(sizes.tolist()):
        if g == 1:
            assert (holder[c] == start[c]).all()
        else:
            want = start[c] + balanced_labels(weights[c:c + 1], g, 2 * n)[0]
            assert holder[c].tolist() == want.tolist()


# -- subsequence table ------------------------------------------------------

def line_count(side):
    """Line -> its fragment count, from ``origin``."""
    return np.bincount(side.origin, minlength=len(side.first))


def fragments_of(side, lines):
    """Ids of every fragment of ``lines``, line by line, ascending, read
    as the run of ``line_count`` ids from each line's ``first``."""
    lines = np.asarray(lines, dtype=np.int64)
    return ranges(side.first[lines], line_count(side)[lines])


def by_line(side):
    """Line -> its fragment ids."""
    return [fragments_of(side, [line]).tolist() for line in range(len(side.first))]


def test_build_subsequences_frozen():
    side = build_subsequences([3, 1, 0, 2], 4)    # avg 3/2
    assert side.block == 2
    assert side.size.tolist() == [2, 1, 1, 2, 0]
    assert side.origin.tolist() == [0, 0, 1, 3, 3]
    # By (size, id) with three placeholders in front: -, -, -, 4, 1, 2, 0, 3;
    # node j owns the j-th smallest and the j-th largest.
    assert side.owner.tolist() == [1, 3, 2, 0, 3]
    assert side.held.tolist() == [[3, -1], [0, -1], [2, -1], [1, 4]]
    assert (1 << side.slot).tolist() == [1, 1, 1, 1, 2]
    assert side.first.tolist() == [0, 2, 3, 3] and line_count(side).tolist() == [2, 1, 0, 2]
    assert by_line(side) == [[0, 1], [2], [], [3, 4]]
    assert fragments_of(side, [3, 0, 2]).tolist() == [3, 4, 0, 1]


def test_build_subsequences_one_per_node():
    # avg 1, so 4 fragments on 4 nodes: each gets its own owner
    side = build_subsequences([3, 1, 0, 0], 4)
    assert line_count(side).tolist() == [3, 1, 0, 0]
    assert by_line(side) == [[0, 1, 2], [3], [], []]
    assert side.origin.tolist() == [0, 0, 0, 1]
    assert side.owner.tolist() == [0, 1, 2, 3]
    assert side.held.tolist() == [[0, -1], [1, -1], [2, -1], [3, -1]]
    # 6 fragments on 4 nodes: dealt in size pairs, each full fragment
    # beside an empty one or alone
    side = build_subsequences([2, 2, 0, 2], 4)
    assert side.size.tolist() == [2, 0, 2, 0, 2, 0]
    assert side.owner.tolist() == [2, 2, 1, 3, 0, 3]
    assert side.held.tolist() == [[4, -1], [2, -1], [0, 1], [3, 5]]
    assert by_line(side) == [[0, 1], [2, 3], [], [4, 5]]
    # full density: every line is one fragment, owned by its own node
    side = build_subsequences([4] * 4, 4)
    assert side.owner.tolist() == side.origin.tolist() == [0, 1, 2, 3]


def test_build_subsequences_empty():
    side = build_subsequences([0] * 4, 4)
    assert side.block == 0 and side.origin.tolist() == [] and by_line(side) == [[]] * 4
    assert fragments_of(side, [0, 1, 2, 3]).tolist() == []


@st.composite
def line_counts(draw):
    n = draw(st.integers(1, 40))
    line = st.one_of(st.just(0), st.integers(1, 3), st.just(n), st.integers(n // 2, n))
    return n, draw(st.lists(line, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(line_counts())
def test_build_subsequences_properties(case):
    n, nz = case
    side = build_subsequences(nz, n)
    assert len(side.origin) <= 2 * n
    # Each line's fragments are consecutive ids from its first.
    assert side.first.tolist() == np.concatenate(([0], np.cumsum(line_count(side))[:-1])).tolist()
    assert all((side.origin[frags] == line).all() for line, frags in enumerate(by_line(side)))
    assert [int(side.size[frags].sum()) for frags in by_line(side)] == nz
    assert all(size <= side.block for size in side.size)
    frags = np.arange(len(side.origin))
    assert side.held.shape == (n, 2)
    assert (side.held[side.owner, side.slot] == frags).all()
    # slot 1 is filled only when slot 0 is, and every fragment sits in
    # exactly one (node, slot) cell
    assert not ((side.held[:, 0] < 0) & (side.held[:, 1] >= 0)).any()
    assert sorted(side.held[side.held >= 0].tolist()) == frags.tolist()
    total = sum(nz)
    for v, ids in enumerate(side.held.tolist()):
        ids = [q for q in ids if q >= 0]
        assert ids == sorted(ids)
        assert all(side.owner[q] == v for q in ids)
        # the j-th smallest is at most total // (n + 1), the j-th largest
        # at most block
        assert sum(side.size[q] for q in ids) <= side.block + total // (n + 1)


def node_requests(sides, lines):
    """Node 0's request batch when it is a one-node group, so it holds
    every line, that wants the fragments of ``lines``, and no other node
    asks for anything."""
    n = len(sides[0].held)
    wanted = [np.isin(side.origin, lines)[None, :] for side in sides]
    requests = fragment_requests(sides, np.zeros((1, n), dtype=np.int16), wanted)
    return requests(0, {}, Delivery.empty(n)[0])


def test_fragment_requests_skip_empty_fragments():
    # Line 1 is fragments 2 (2 entries, node 1) and 3 (empty, node 3);
    # node 3 owns only empty fragments and hears nothing.  Every owner
    # asked gets one word, with bit k for its fragment in slot k of a side.
    side = build_subsequences([2, 2, 0, 2], 4)
    assert side.held.tolist() == [[4, -1], [2, -1], [0, 1], [3, 5]]
    assert side.size[3] == side.size[5] == 0

    def words(rhs, lines):
        reqs = messages(node_requests((side, rhs), lines))
        assert len({u for u, *_ in reqs}) == len(reqs)
        return sorted((u, s_mask, t_mask) for u, _tag, s_mask, t_mask, _ in reqs)

    assert words(side, [0, 1, 3]) == [(0, 1, 1), (1, 1, 1), (2, 1, 1)]
    # Nonempty fragment 3 is in node 3's rhs slot 1: mask bit 2.
    rhs = build_subsequences([4, 1, 1, 0], 4)
    assert rhs.held[3].tolist() == [2, 3] and rhs.size[2] == 0 < rhs.size[3]
    assert words(rhs, [1]) == [(1, 1, 0), (3, 0, 2)]


def test_fragment_responder_rejects_unowned_bits():
    # Node 0 owns one fragment per side, id 4 of line 3: mask bit 1 only.
    side = build_subsequences([2, 2, 0, 2], 4)
    sides = (side, side)
    respond = fragment_responder(sides, [0] * 4, [0] * 4)
    # One band per side, so four buckets (lhs slots 0 and 1, then rhs):
    # lhs slot 0 holds the entry at row 1, value 7.
    state = {"buckets": Buckets(np.array([1]), np.array([7]), np.array([0, 1, 1, 1, 1]),
                                (1, 1))}
    (_, req, s_mask, t_mask, _), = messages(node_requests(sides, [3]))
    assert (s_mask, t_mask) == (1, 1)

    def request(s_mask, t_mask):
        return Inbox(*(np.array([x]) for x in (2, req, s_mask, t_mask, 0)))

    assert [msg[:1] + msg[2:] for msg in messages(respond(0, state, request(1, 1)))] == [
        (2, 1, 3, 7)]
    for bad in ((2, 0), (0, 2), (1, 4)):
        with pytest.raises(SimulationError, match="node 0 was asked by node 2"):
            respond(0, state, request(*bad))


# -- end to end -------------------------------------------------------------

def test_smm_identity():
    M = random_matrix(8, COUNT, 0.3, random.Random(11))
    I = SparseMatrix.from_entries(8, COUNT, [(i, i, 1) for i in range(8)])
    res = smm(I, M)
    assert res.product == M
    labels = [r.label for r in res.records]
    assert labels[0] == "distribute" and labels[-1] == "sbmm.reduce"


def test_smm_phase_list():
    rng = random.Random(12)
    res = smm(random_matrix(8, COUNT, 0.4, rng), random_matrix(8, COUNT, 0.4, rng))
    assert [r.label for r in res.records] == [
        "distribute", "stats", "sbmm.subseq", "sbmm.counts",
        "sbmm.request", "sbmm.respond", "sbmm.reduce"]


def test_smm_empty_and_single():
    Z = SparseMatrix.from_entries(4, COUNT, [])
    assert smm(Z, Z).product == Z
    one = SparseMatrix.from_entries(1, COUNT, [(0, 0, 3)])
    assert smm(one, one).product.to_dense() == [[9]]


def test_smm_matches_oracle_across_semirings():
    rng = random.Random(2024)
    for sr in (boolean_semiring(), counting_semiring(), min_plus_semiring()):
        for n in (4, 8, 12):
            S = random_matrix(n, sr, 0.3, rng)
            T = random_matrix(n, sr, 0.3, rng)
            res = smm(S, T)
            assert res.product == oracle.dense_multiply(S, T), (sr.name, n)
            # smm sends each partial to the preimage of its row under sigma
            # and column under tau, so both must be bijections
            assert sorted(res.sigma) == sorted(res.tau) == list(range(n))


def test_smm_bookkeeping_is_sparse_sized():
    # n = 1024 at nz = 4n splits (32, 32): every group is one node, which
    # holds all n pages.  Page tables and request words built per node over
    # all n pages cost n^2 words (118 MB here); built from the flagged
    # (group, fragment) pairs they stay near the size of the traffic.
    n = 1024
    S, T = generate_matrix(n, 4 * n, 1, COUNT), generate_matrix(n, 4 * n, 2, COUNT)
    tracemalloc.start()
    try:
        smm(S, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_sparse_times_full_rounds_do_not_grow_with_n():
    # The paper's bound holds when only S is sparse: with T full it is
    # (nz(S)/n)^(1/3) + 1, so at a fixed nz(S)/n the rounds do not depend
    # on n.
    for n in (64, 256, 512):
        T = generate_matrix(n, n * n, 7, COUNT)
        rounds = [smm(generate_matrix(n, c * n, 11, COUNT), T).rounds() for c in (1, 4, 16)]
        assert rounds == [10, 12, 16], n


def test_dense_reduce_load():
    # dense 8x8 picks (a, b) = (2, 2): each node folds at most n^2/(ab) = 16
    # output cells, so it sends and receives at most 16 partials
    D = dense(8, COUNT)
    res = smm(D, D)
    assert res.split == SplitPair(2, 2)
    assert res.product == oracle.dense_multiply(D, D)
    rec = next(r for r in res.records if r.label == "sbmm.reduce")
    assert rec.max_send <= 16
    assert rec.max_recv <= 16
    assert rec.rounds <= math.ceil(16 / 7)


def test_reduce_terms_are_each_nodes_page_count(monkeypatch):
    # ``sbmm.reduce`` bounds a node's products per cell by its page count,
    # which smm computes in closed form from the grid; it must be the
    # number of pages the striping gives the node.  Groups of 2 to 3
    # nodes that do not divide n give some nodes one page fewer.
    seen = {}
    receive, reduce = SMM.compute_receiving, SMM._reduce_phase

    def keep_holder(engine, sides, band_s, band_t, cells):
        seen["holder"], wanted = receive(engine, sides, band_s, band_t, cells)
        seen["cells"] = cells
        return seen["holder"], wanted

    def keep_pages(engine, semiring, pages, row_dst, col_out):
        seen["pages"] = pages
        return reduce(engine, semiring, pages, row_dst, col_out)

    monkeypatch.setattr(SMM, "compute_receiving", keep_holder)
    monkeypatch.setattr(SMM, "_reduce_phase", keep_pages)
    rng = random.Random(5)
    uneven = 0
    for n, density in ((23, 0.3), (20, 0.8), (13, 0.5), (16, 1.0), (27, 0.1)):
        res = smm(random_matrix(n, COUNT, density, rng), random_matrix(n, COUNT, density, rng))
        holder, cells = seen["holder"], seen["cells"]
        held = (holder[cells[:, 0] * res.split.b + cells[:, 1]] == np.arange(n)[:, None])
        assert seen["pages"].tolist() == held.sum(axis=1).tolist(), n
        uneven += len(set(seen["pages"].tolist())) > 1
    assert uneven


# -- sbmm.reduce: numpy kernel against the fold kernel ----------------------

MAX_MIN = Semiring("max-min", add=max, mul=min, omitted=-math.inf, one=math.inf)

# Per semiring, value draws by mode.  Mode 0 stays inside the kernel's
# envelope.  Counting modes 1 and 2 put entries near 2**31 and 2**62, so
# nodes holding them fall back and their products or sums saturate; they
# are positive because saturating addition of mixed signs depends on the
# order of the sum.  Min-plus mode 1 adds non-integral floats (k + 0.25,
# so no float sum equals an int sum) and mode 2 ints whose sums leave
# int64.
VALUE_DRAWS = {
    "boolean": [lambda rng: True] * 3,
    "counting": [
        lambda rng: rng.choice((-1, 1)) * rng.randint(1, 9),
        lambda rng: rng.choice((rng.randint(1, 9), 2**31 + rng.randint(0, 9))),
        lambda rng: rng.choice((rng.randint(1, 9), 2**62 + rng.randint(0, 9))),
    ],
    "min-plus": [
        lambda rng: rng.randint(0, 9),
        lambda rng: rng.choice((rng.randint(0, 9), rng.randint(0, 9) + 0.25)),
        lambda rng: rng.choice((rng.randint(0, 9), 2**62 + rng.randint(0, 9))),
    ],
    "max-min": [lambda rng: rng.randint(0, 9)] * 3,
}


def valued_matrix(n, sr, density, mode, rng):
    draw = VALUE_DRAWS[sr.name][mode]
    return SparseMatrix.from_entries(
        n, sr, [(i, j, draw(rng)) for i in range(n) for j in range(n)
                if rng.random() < density])


def typed_rows(M):
    return [[(c, type(v), v) for c, v in row] for row in M.rows]


@settings(max_examples=60, deadline=None)
@given(sr=st.sampled_from([boolean_semiring(), counting_semiring(),
                           min_plus_semiring(), MAX_MIN]),
       n=st.integers(1, 16),
       densities=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       mode=st.integers(0, 2),
       seed=st.integers(0, 2**32))
# Dense counting near 2**31: products fit int64, their sums do not.
@example(sr=counting_semiring(), n=8, densities=(1.0, 1.0), mode=1, seed=0)
def test_reduce_kernel_and_scalar_fold_match_reference(sr, n, densities, mode, seed):
    rng = random.Random(seed)
    S = valued_matrix(n, sr, densities[0], mode, rng)
    T = valued_matrix(n, sr, densities[1], mode, rng)
    got = smm(S, T).product
    assert typed_rows(got) == typed_rows(oracle.dense_multiply_reference(S, T))


def with_exact(sr, exact):
    return dataclasses.replace(sr, kernel=dataclasses.replace(sr.kernel, exact=exact))


@pytest.mark.parametrize("sr", [boolean_semiring(), counting_semiring(),
                                min_plus_semiring()], ids=lambda sr: sr.name)
def test_reduce_scalar_fold_equals_kernel_run(sr):
    verdicts = []

    def recorded(lhs, rhs, terms):
        verdicts.append(sr.kernel.exact(lhs, rhs, terms))
        return verdicts[-1]

    runs = []
    for variant in (with_exact(sr, recorded), with_exact(sr, lambda *_: False)):
        rng = random.Random(5)
        S = valued_matrix(16, variant, 0.4, 0, rng)
        T = valued_matrix(16, variant, 0.4, 0, rng)
        engine = CliqueEngine(16)
        runs.append((typed_rows(smm(S, T, engine).product), engine.ledger.to_csv()))
    assert verdicts and all(verdicts)
    assert runs[0] == runs[1]


MAX = 2**63 - 1


@pytest.mark.parametrize("seed, differs", [
    (6, {(0, 3): -6, (3, 0): -MAX, (3, 1): -MAX + 13, (3, 3): 5}),
    (14, {(0, 3): MAX, (1, 2): MAX, (1, 3): MAX, (2, 2): 3, (2, 3): 0, (2, 4): 15,
          (3, 1): 12, (3, 4): -MAX + 15, (4, 0): 0, (4, 2): -MAX, (4, 3): -MAX}),
    (28, {(1, 0): -6, (2, 0): -MAX + 8, (2, 2): 10, (4, 0): 4, (4, 2): -10}),
])
def test_saturated_counting_keeps_fold_order(seed, differs):
    # Saturating sums of mixed signs depend on their order: a node sums a
    # cell's products page by page, and the row's owner sums its partials
    # in mailbox order (seed 14 hangs on the second, 6 and 28 on the
    # first).  ``differs`` holds smm's value, 0 for a dropped cell, of
    # every cell where it differs from the sequential reference.
    rng = random.Random(seed)
    n = rng.randint(4, 12)

    def draw():
        return rng.choice((1, -1)) * rng.choice((2, 3, 2**62))

    S, T = (SparseMatrix.from_entries(n, COUNT, [(i, j, draw()) for i in range(n)
                                                for j in range(n) if rng.random() < 0.9])
            for _ in range(2))
    got, ref = ({(r, c): v for r, row in enumerate(M.rows) for c, v in row}
                for M in (smm(S, T).product, oracle.dense_multiply_reference(S, T)))
    assert {type(v) for v in got.values()} == {int}
    assert {cell: got.get(cell, 0) for cell in got.keys() | ref.keys()
            if got.get(cell, 0) != ref.get(cell, 0)} == differs


# -- sbmm.reduce: block product against the pair path and the fold kernel ---

SMM = sys.modules["cliquemul.smm"]


def band_entries(rng, n, height, width, pages, density, draw):
    """One node's lhs (row, page, value) and rhs (page, column, value)
    entries: a row band and a column band at an offset, over ``pages``
    random pages, in shuffled arrival order."""
    page_ids = rng.sample(range(n), pages)
    r_lo, c_lo = rng.randrange(n - height + 1), rng.randrange(n - width + 1)
    lhs = [(r_lo + r, p, draw()) for r in range(height) for p in page_ids
           if rng.random() < density]
    rhs = [(p, c_lo + c, draw()) for p in page_ids for c in range(width)
           if rng.random() < density]
    rng.shuffle(lhs)
    rng.shuffle(rhs)
    return lhs, rhs


def reduce_by_path(monkeypatch, sr, n, lhs, rhs, per_pair):
    """One node's partials from ``_kernel_partials`` as typed messages: with
    the fold kernel, and with the numpy kernel at the size rule's constant
    ``per_pair``, plus the ``block_exact`` verdicts that run asked for."""
    ident = np.arange(n)
    inbox = Inbox(np.zeros(len(lhs) + len(rhs), dtype=np.int64),
                  np.repeat((SMM._ENT_S, SMM._ENT_T), (len(lhs), len(rhs))),
                  np.array([e[0] for e in lhs + rhs], dtype=np.int64),
                  np.array([e[1] for e in lhs + rhs], dtype=np.int64),
                  value_column([e[2] for e in lhs + rhs]))

    def typed(batch):
        return [] if batch is None else [m + (type(m[4]),) for m in messages(batch)]

    verdicts = []

    def spy(*args):
        verdicts.append(sr.kernel.block_exact(*args))
        return verdicts[-1]

    spied = dataclasses.replace(sr.kernel, block_exact=spy)
    monkeypatch.setattr(SMM, "_BLOCK_PER_PAIR", per_pair)
    columns = [(inbox.i1[tag], inbox.i2[tag], inbox.val[tag])
               for tag in (inbox.tag == SMM._ENT_S, inbox.tag == SMM._ENT_T)]
    kernel = typed(SMM._kernel_partials(spied, sr.omitted, n, *columns, ident, ident))
    fold = typed(SMM._kernel_partials(sr.fold_kernel, sr.omitted, n, *columns, ident, ident))
    return fold, kernel, verdicts


NEVER, ALWAYS = 0, 2**62     # size-rule constants that force pairs or blocks


@pytest.mark.parametrize("sr", [counting_semiring(), boolean_semiring()],
                         ids=lambda sr: sr.name)
@pytest.mark.parametrize("seed", range(12))
def test_block_product_matches_pairs_and_scalar_fold(monkeypatch, sr, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    draw = ((lambda: rng.choice((-1, 1)) * rng.randint(1, 9)) if sr.name == "counting"
            else (lambda: True))
    lhs, rhs = band_entries(rng, n, rng.randint(1, n), rng.randint(1, n),
                            rng.randint(1, n), rng.random(), draw)
    fold, pairs, asked = reduce_by_path(monkeypatch, sr, n, lhs, rhs, NEVER)
    assert pairs == fold and asked == []
    fold, block, asked = reduce_by_path(monkeypatch, sr, n, lhs, rhs, ALWAYS)
    assert block == fold
    # The block path ran whenever the node had a pair to multiply.
    has_pair = bool({p for _, p, _ in lhs} & {p for p, _, _ in rhs})
    assert asked == ([True] if has_pair else [])


def test_block_product_past_2_53_falls_back_to_pairs(monkeypatch):
    # One product of 2**53 + 2**30 + 2**23 + 1, odd and past 2**53, so no
    # float64 holds it; a second page makes the sum span two terms.
    big, other = 2**30 + 1, 2**23 + 1
    assert float(big * other) != big * other
    lhs, rhs = [(0, 0, big), (1, 3, 5)], [(0, 2, other), (3, 2, -7)]
    fold, block, asked = reduce_by_path(monkeypatch, COUNT, 4, lhs, rhs, ALWAYS)
    assert asked == [False]
    assert block == fold == [(0, SMM._RED, 2, 0, big * other, int),
                               (1, SMM._RED, 2, 0, -35, int)]
    # Just inside the envelope, max|lhs| * max|rhs| * pages == 2**53.
    lhs, rhs = [(0, 0, 2**26), (0, 1, 1)], [(0, 0, 2**26), (1, 0, 1)]
    fold, block, asked = reduce_by_path(monkeypatch, COUNT, 2, lhs, rhs, ALWAYS)
    assert asked == [True] and block == fold == [(0, SMM._RED, 0, 0, 2**52 + 1, int)]


@pytest.mark.parametrize("sr", [counting_semiring(), boolean_semiring()],
                         ids=lambda sr: sr.name)
def test_sparse_wide_band_keeps_pairs(monkeypatch, sr):
    rng = random.Random(7)
    n = 512
    draw = (lambda: rng.randint(1, 9)) if sr.name == "counting" else (lambda: True)
    lhs, rhs = band_entries(rng, n, 256, 256, 64, 0.002, draw)
    lhs.append((100, lhs[0][1], draw()))      # at least one pair
    rhs.append((lhs[0][1], 100, draw()))
    pair_count = sum(1 for _, p, _ in lhs for q, _, _ in rhs if p == q)
    # The blocks span every row, page and column the node holds.
    volume = ((max(r for r, _, _ in lhs) - min(r for r, _, _ in lhs) + 1)
              * len({p for _, p, _ in lhs} | {p for p, _, _ in rhs})
              * (max(c for _, c, _ in rhs) - min(c for _, c, _ in rhs) + 1))
    assert volume > SMM._BLOCK_PER_PAIR * pair_count
    fold, pairs, asked = reduce_by_path(monkeypatch, sr, n, lhs, rhs, SMM._BLOCK_PER_PAIR)
    assert asked == [] and pairs == fold


@pytest.mark.parametrize("sr", [min_plus_semiring(), MAX_MIN], ids=lambda sr: sr.name)
@pytest.mark.parametrize("n, density, seed", [(8, 0.5, 1), (13, 1.0, 2), (16, 0.3, 3)])
def test_big_int_values_flow_as_objects(monkeypatch, sr, n, density, seed):
    # Entries at and past 2**63 fit no int64 column, so every phase that
    # carries matrix values delivers an object column; the product still
    # equals the reference, value types included.
    dtypes = {}
    run_phase = CliqueEngine.run_phase

    def recording(self, label, handler):
        rounds = run_phase(self, label, handler)
        dtypes[label] = self.inboxes.val.dtype
        return rounds

    monkeypatch.setattr(CliqueEngine, "run_phase", recording)
    rng = random.Random(seed)

    def draw():
        return rng.choice((rng.randint(0, 9), 2**63 + rng.randint(0, 9)))

    S, T = (SparseMatrix.from_entries(n, sr, [(i, j, draw()) for i in range(n)
                                             for j in range(n) if rng.random() < density])
            for _ in range(2))
    got = smm(S, T).product
    assert typed_rows(got) == typed_rows(oracle.dense_multiply_reference(S, T))
    assert all(dtypes[label] == object for label in (
        "distribute", "sbmm.subseq", "sbmm.respond", "sbmm.reduce"))


@pytest.mark.parametrize("seed", [2, 5, 39, 57])
def test_counting_values_past_int64_match_reference(seed):
    # A node holding lhs values past int64 and no rhs value is inside the
    # kernel's envelope, as it has no product to overflow; it sends no
    # partial and must not convert its values to int64 on the way.
    rng = random.Random(seed)
    n, density = rng.randint(2, 12), rng.random()

    def draw():
        return rng.choice((rng.randint(1, 9), 2**63 + rng.randint(0, 9)))

    S, T = (SparseMatrix.from_entries(n, COUNT, [(i, j, draw()) for i in range(n)
                                                for j in range(n) if rng.random() < density])
            for _ in range(2))
    got = smm(S, T).product
    assert typed_rows(got) == typed_rows(oracle.dense_multiply_reference(S, T))


def test_operands_of_different_semirings_raise_before_any_phase():
    S = SparseMatrix.from_entries(3, COUNT, [(0, 1, 2)])
    T = SparseMatrix.from_entries(3, boolean_semiring(), [(1, 2, True)])
    eng = CliqueEngine(3)
    with pytest.raises(DimensionError, match="operand semirings differ: counting vs boolean"):
        smm(S, T, eng)
    assert eng.ledger.records == []
