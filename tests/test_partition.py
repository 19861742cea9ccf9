import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cliquemul.partition import (PartitionError, avg_partition, balanced_assignment,
                                 balanced_labels)


def by_set(sizes):
    """``avg_partition``'s block sizes as one list per set."""
    size, count = avg_partition(sizes)
    assert size.dtype == count.dtype == np.int64 and len(count) == len(sizes)
    return [block.tolist() for block in np.split(size, np.cumsum(count)[:-1])]


def greedy_blocks(sizes):
    """Scalar model: ceil(t / avg) blocks per set, avg the exact mean,
    each filled with floor(avg) + 1 items while any are left."""
    avg = Fraction(sum(sizes), len(sizes))
    blocks = []
    for t in sizes:
        line, left = [], t
        for _ in range(math.ceil(t / avg) if avg else 0):
            line.append(min(left, math.floor(avg) + 1))
            left -= line[-1]
        assert left == 0
        blocks.append(line)
    return blocks


def test_chunk_examples():
    # avg 3: a set of 10 takes ceil(10/3) = 4 blocks of at most 4
    assert by_set([10, 0, 0, 2]) == [[4, 4, 2, 0], [], [], [2]]
    assert by_set([5, 5]) == [[5], [5]]
    # avg 1: blocks of at most 2, so the trailing three stay empty
    assert by_set([7, 0, 0, 0, 0, 0, 0]) == [[2, 2, 2, 1, 0, 0, 0]] + [[]] * 6


def test_avg_partition_examples():
    assert by_set([4, 4, 4, 4]) == [[4], [4], [4], [4]]
    assert by_set([8, 0, 0, 0]) == [[3, 3, 2, 0], [], [], []]   # avg = 2
    assert by_set([1, 1]) == [[1], [1]]
    assert by_set([0, 0, 0]) == [[], [], []]


@st.composite
def one_dominant(draw):
    small = draw(st.lists(st.integers(0, 3), min_size=0, max_size=11))
    at = draw(st.integers(0, len(small)))
    return small[:at] + [draw(st.integers(50, 10 ** 6))] + small[at:]


@given(st.one_of(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=12),
                 st.lists(st.just(0), min_size=1, max_size=12),
                 one_dominant()))
def test_avg_partition_bounds(sizes):
    # the closed form agrees with the greedy fill, within the bounds
    n = len(sizes)
    blocks = by_set(sizes)
    assert blocks == greedy_blocks(sizes)
    total = sum(sizes)
    assert sum(len(line) for line in blocks) <= 2 * n
    for t, line in zip(sizes, blocks):
        assert sum(line) == t
        # exact rational size bound: |part| <= avg + 1
        assert all(Fraction(size) <= Fraction(total, n) + 1 for size in line)


def test_weight_balanced_examples():
    parts = balanced_assignment([1, 2, 3, 4], 2, 4)
    assert parts == [[0, 2], [1, 3]]
    sums = [sum([1, 2, 3, 4][i] for i in p) for p in parts]
    assert sums == [4, 6] and max(sums) <= 10 / 2 + 4

    assert balanced_assignment([0, 0, 0, 5], 4, 5) == [[0], [1], [2], [3]]
    # Items sort by (weight, index), whatever order they come in.
    assert balanced_assignment([5, 0, 3, 0], 2, 5) == [[1, 2], [0, 3]]

    uniform = balanced_assignment([3] * 6, 3, 3)
    assert all(sum(3 for _ in p) == 6 for p in uniform)

    # k need not divide the item count: zero-weight placeholders take the
    # first sorted positions, so the first groups are one item short.
    assert balanced_assignment([4, 1, 3, 2, 0], 3, 4) == [[3], [2, 4], [0, 1]]
    assert balanced_assignment([7], 3, 7) == [[], [], [0]]
    assert balanced_assignment([], 2, 0) == [[], []]


def test_weight_balanced_preconditions():
    with pytest.raises(PartitionError, match="k=0"):
        balanced_assignment([1, 2], 0, 4)
    with pytest.raises(PartitionError, match="nonnegative"):
        balanced_assignment([1, -1, 2], 2, 4)
    with pytest.raises(PartitionError, match="exceeds bound x=4"):
        balanced_assignment([1, 9], 2, 4)


@given(st.integers(min_value=1, max_value=6),
       st.lists(st.integers(min_value=0, max_value=9), max_size=24))
def test_balanced_assignment_properties(k, weights):
    n = len(weights)
    groups = balanced_assignment(weights, k, 9)
    assert len(groups) == k
    flat = sorted(i for g in groups for i in g)
    assert flat == list(range(n))
    assert all(g == sorted(g) for g in groups)
    bound = Fraction(sum(weights), k) + max(weights, default=0)
    for g in groups:
        assert len(g) in (n // k, -(-n // k))
        assert Fraction(sum(weights[i] for i in g)) <= bound


@given(st.integers(min_value=1, max_value=5),
       st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=20))
def test_padded_groups_properties(k, weights):
    # Padding to a multiple of k equals the strided split of the weights
    # with k - (n mod k) zeros prepended, the placeholders then dropped.
    pad = (-len(weights)) % k
    padded = balanced_assignment([0] * pad + weights, k, 7)
    want = [[i - pad for i in g if i >= pad] for g in padded]
    assert balanced_assignment(weights, k, 7) == want


def sorted_key_assignment(weights, k):
    """The strided split by its definition: placeholders first, then items
    by (weight, index); group j takes sorted positions j, j+k, ..."""
    pad = (-len(weights)) % k
    order = [None] * pad + sorted(range(len(weights)), key=lambda i: (weights[i], i))
    return [sorted(i for i in order[j::k] if i is not None) for j in range(k)]


@given(st.integers(min_value=1, max_value=12),
       st.one_of(st.lists(st.integers(min_value=0, max_value=3), max_size=30),
                 st.lists(st.just(0), max_size=30),
                 st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=30)))
def test_balanced_assignment_matches_sorted_key_definition(k, weights):
    # Small weight ranges force ties; k up to 12 exceeds short lists, so
    # some groups hold only placeholders.
    groups = balanced_assignment(weights, k, max(weights, default=0))
    assert groups == sorted_key_assignment(weights, k)
    assert all(type(i) is int for g in groups for i in g)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=15).flatmap(
    lambda items: st.lists(st.lists(st.integers(min_value=0, max_value=5),
                                    min_size=items, max_size=items), min_size=1, max_size=6)))
def test_balanced_labels_rows_match_balanced_assignment(k, rows):
    # Each row of one multi-row call labels its items as the 1-D split of
    # that row alone groups them.
    labels = balanced_labels(np.array(rows, dtype=np.int64).reshape(len(rows), -1), k, 5)
    assert labels.shape == (len(rows), len(rows[0]))
    for row, label in zip(rows, labels):
        groups = balanced_assignment(row, k, 5)
        assert [np.flatnonzero(label == j).tolist() for j in range(k)] == groups


def test_determinism():
    ws = [3, 1, 4, 1, 5, 9, 2, 6]
    a = balanced_assignment(ws, 4, 9)
    b = balanced_assignment(list(ws), 4, 9)
    assert a == b
    assert by_set([5, 2, 0, 9]) == by_set([5, 2, 0, 9])
