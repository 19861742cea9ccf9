import dataclasses
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cliquemul import oracle
from cliquemul.engine import CliqueEngine, Inbox, SimulationError, value_column
from cliquemul.semiring import (Semiring, boolean_semiring, counting_semiring,
                                min_plus_semiring)
from cliquemul.smm import (
    Buckets,
    SplitPair,
    SubseqOwnership,
    build_subsequences,
    choose_split,
    fragment_requests,
    fragment_responder,
    grid_cells,
    smm,
    split_cost,
)
from cliquemul.sparse import SparseMatrix

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

def test_split_cost_is_exact():
    assert split_cost(16, 16, 4, 1, 2) == 5
    assert split_cost(1, 1, 3, 1, 1) == Fraction(29, 9)


def test_choose_split_frozen_values():
    # a + b + 4/(ab) ties at 5 for (1,2), (2,1), (2,2); lexicographic winner
    assert choose_split(16, 16, 4) == SplitPair(1, 2)
    assert choose_split(512, 512, 64) == SplitPair(8, 8)
    # empty operands leave only the n/(ab) term, so push ab to n
    assert choose_split(0, 0, 8) == SplitPair(1, 8)
    # (2,2) would tie (2,3) at n/(ab) = 3/2 nodes a group, but its four
    # groups on six nodes are charged the smallest group, of one node
    assert choose_split(18, 18, 6) == SplitPair(2, 3)


def test_choose_split_is_argmin():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.choice([4, 6, 7, 8, 12, 13, 20, 31, 48])
        nzS, nzT = rng.randint(0, n * n), rng.randint(0, n * n)
        got = choose_split(nzS, nzT, n)
        # every pair, in lexicographic order, so ties go to the smallest
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a * b <= n]
        assert (got.a, got.b) == min(pairs, key=lambda ab: split_cost(nzS, nzT, n, *ab))


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


# -- subsequence table ------------------------------------------------------

def test_build_subsequences_frozen():
    side = build_subsequences([3, 1, 0, 2], 4)    # avg 3/2
    assert side.block == 2
    assert side.size == [2, 1, 1, 2, 0]
    assert side.origin == [0, 0, 1, 3, 3]
    # By (size, id) with three placeholders in front: -, -, -, 4, 1, 2, 0, 3;
    # node j owns the j-th smallest and the j-th largest.
    assert side.owner == [1, 3, 2, 0, 3]
    assert side.owned == [[3], [0], [2], [1, 4]]
    assert side.by_line == [[0, 1], [2], [], [3, 4]]
    assert side.slice_bounds(1) == (2, 4)
    assert side.slice_bounds(3) == (0, 2)
    assert side.slice_bounds(4) == (2, 4)


def test_build_subsequences_one_per_node():
    # avg 1, so 4 fragments on 4 nodes: each gets its own owner
    side = build_subsequences([3, 1, 0, 0], 4)
    assert [len(frags) for frags in side.by_line] == [3, 1, 0, 0]
    assert side.origin == [0, 0, 0, 1]
    assert side.owner == [0, 1, 2, 3]
    assert side.owned == [[0], [1], [2], [3]]
    # 6 fragments on 4 nodes: dealt in size pairs, each full fragment
    # beside an empty one or alone
    side = build_subsequences([2, 2, 0, 2], 4)
    assert side.size == [2, 0, 2, 0, 2, 0]
    assert side.owner == [2, 2, 1, 3, 0, 3]
    assert side.owned == [[4], [2], [0, 1], [3, 5]]
    # full density: every line is one fragment, owned by its own node
    side = build_subsequences([4] * 4, 4)
    assert side.owner == side.origin == [0, 1, 2, 3]


def test_build_subsequences_empty():
    side = build_subsequences([0] * 4, 4)
    assert side.block == 0 and side.origin == [] and side.by_line == [[]] * 4


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
    assert [sum(side.size[q] for q in frags) for frags in side.by_line] == nz
    assert all(size <= side.block for size in side.size)
    assert sorted(q for ids in side.owned for q in ids) == list(range(len(side.origin)))
    total = sum(nz)
    for v, ids in enumerate(side.owned):
        assert len(ids) <= 2 and ids == sorted(ids)
        assert all(side.owner[q] == v for q in ids)
        # the j-th smallest is at most total // (n + 1), the j-th largest
        # at most block
        assert sum(side.size[q] for q in ids) <= side.block + total // (n + 1)


def node_requests(ownership, asks):
    """Node 0's request batch when it asks for the lines of ``asks`` and
    every other node asks for nothing."""
    n = len(ownership.s.owned)
    return fragment_requests(ownership, [([lines] + [[]] * (n - 1), wanted)
                                         for lines, wanted in asks])(0, {})


def test_fragment_requests_skip_empty_fragments():
    # Line 1 is fragments 2 (2 entries, node 1) and 3 (empty, node 3);
    # node 3 owns only empty fragments and hears nothing.  Every owner
    # asked gets one word, with a bit per owned fragment on each side.
    side = build_subsequences([2, 2, 0, 2], 4)
    assert side.owned == [[4], [2], [0, 1], [3, 5]]
    assert side.size[3] == side.size[5] == 0

    def words(rhs, asks):
        reqs = messages(node_requests(SubseqOwnership(side, rhs), asks))
        assert len({u for u, *_ in reqs}) == len(reqs)
        return sorted((u, s_mask, t_mask) for u, _tag, s_mask, t_mask, _ in reqs)

    assert words(side, [([0, 1, 3], None)]) == [(0, 1, 1), (1, 1, 1), (2, 1, 1)]
    # A second set of lines sets its bits two places up in the same words.
    assert words(side, [([0], None), ([0, 1], None)]) == [(1, 4, 4), (2, 5, 5)]
    # Nonempty fragment 3 is node 3's second rhs fragment: mask bit 2.
    rhs = build_subsequences([4, 1, 1, 0], 4)
    assert rhs.owned[3] == [2, 3] and rhs.size[2] == 0 < rhs.size[3]
    assert words(rhs, [([1], None)]) == [(1, 1, 0), (3, 0, 2)]


def test_fragment_responder_rejects_unowned_bits():
    # Node 0 owns one fragment per side, id 4 of line 3: mask bit 1 only.
    side = build_subsequences([2, 2, 0, 2], 4)
    ownership = SubseqOwnership(side, side)
    respond = fragment_responder(ownership, [0] * 4, [0] * 4)
    # One band per side: the lhs bucket holds the entry at row 1, value 7.
    state = {"buckets": Buckets(np.array([1]), np.array([7]), np.array([0, 1, 1]), (1, 1))}
    (_, req, s_mask, t_mask, _), = messages(node_requests(ownership, [([3], None)]))
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
    assert smm(one, one).product.entry(0, 0) == 9


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


# -- sbmm.reduce: array kernel against the scalar fold ----------------------

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


# -- sbmm.reduce: block product against the pair path and the scalar fold ---

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
    """One node's partials as typed messages: the scalar fold's, and
    ``_kernel_partials``'s with the size rule's constant at ``per_pair``,
    plus the ``block_exact`` verdicts that run asked for."""
    ident = np.arange(n)
    inbox = Inbox(np.zeros(len(lhs) + len(rhs), dtype=np.int64),
                  np.repeat((SMM._ENT_S, SMM._ENT_T), (len(lhs), len(rhs))),
                  np.array([e[0] for e in lhs + rhs], dtype=np.int64),
                  np.array([e[1] for e in lhs + rhs], dtype=np.int64),
                  value_column([e[2] for e in lhs + rhs]))
    pages = sorted({p for _, p, _ in lhs} | {p for p, _, _ in rhs})

    def typed(batch):
        return [] if batch is None else [m + (type(m[4]),) for m in messages(batch)]

    verdicts = []

    def spy(*args):
        verdicts.append(sr.kernel.block_exact(*args))
        return verdicts[-1]

    spied = dataclasses.replace(sr, kernel=dataclasses.replace(sr.kernel, block_exact=spy))
    monkeypatch.setattr(SMM, "_BLOCK_PER_PAIR", per_pair)
    columns = [(inbox.i1[tag], inbox.i2[tag], inbox.val[tag])
               for tag in (inbox.tag == SMM._ENT_S, inbox.tag == SMM._ENT_T)]
    kernel = typed(SMM._kernel_partials(spied, n, *columns, ident, ident))
    return typed(SMM._scalar_partials(sr, pages, inbox, ident, ident)), kernel, verdicts


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
    scalar, pairs, asked = reduce_by_path(monkeypatch, sr, n, lhs, rhs, NEVER)
    assert pairs == scalar and asked == []
    scalar, block, asked = reduce_by_path(monkeypatch, sr, n, lhs, rhs, ALWAYS)
    assert block == scalar
    # The block path ran whenever the node had a pair to multiply.
    has_pair = bool({p for _, p, _ in lhs} & {p for p, _, _ in rhs})
    assert asked == ([True] if has_pair else [])


def test_block_product_past_2_53_falls_back_to_pairs(monkeypatch):
    # One product of 2**53 + 2**30 + 2**23 + 1, odd and past 2**53, so no
    # float64 holds it; a second page makes the sum span two terms.
    big, other = 2**30 + 1, 2**23 + 1
    assert float(big * other) != big * other
    lhs, rhs = [(0, 0, big), (1, 3, 5)], [(0, 2, other), (3, 2, -7)]
    scalar, block, asked = reduce_by_path(monkeypatch, COUNT, 4, lhs, rhs, ALWAYS)
    assert asked == [False]
    assert block == scalar == [(0, SMM._RED, 2, 0, big * other, int),
                               (1, SMM._RED, 2, 0, -35, int)]
    # Just inside the envelope, max|lhs| * max|rhs| * pages == 2**53.
    lhs, rhs = [(0, 0, 2**26), (0, 1, 1)], [(0, 0, 2**26), (1, 0, 1)]
    scalar, block, asked = reduce_by_path(monkeypatch, COUNT, 2, lhs, rhs, ALWAYS)
    assert asked == [True] and block == scalar == [(0, SMM._RED, 0, 0, 2**52 + 1, int)]


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
    scalar, pairs, asked = reduce_by_path(monkeypatch, sr, n, lhs, rhs, SMM._BLOCK_PER_PAIR)
    assert asked == [] and pairs == scalar


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
