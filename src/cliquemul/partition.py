"""Deterministic load-balancing partitions used throughout the protocols.

Three primitives, all exact (rational arithmetic, no floats):

* chunk partitions: split t items into ceil(t/c) consecutive blocks of at
  most floor(c)+1 items; trailing blocks may be empty so the block count
  is agreed upon by every node that knows t and c.
* average chunking over a family of sets, with c fixed to the exact mean
  set size; the family-wide block count never exceeds 2n.
* weight-balanced strided assignment of any weight list into k groups
  whose sizes differ by at most one and whose sums exceed the mean group
  sum by at most one maximal element.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class PartitionError(ValueError):
    """Inputs violate a partition precondition."""


def chunk_sizes(t: int, c) -> list[int]:
    """Block sizes for splitting t items with capacity parameter c.

    c may be a positive int or Fraction.  Returns ceil(t/c) sizes, each at
    most floor(c)+1, consecutive blocks filled greedily so only trailing
    blocks are empty.  t == 0 yields no blocks.
    """
    if t < 0:
        raise PartitionError("item count must be nonnegative")
    if t == 0:
        return []
    if c <= 0:
        raise PartitionError("capacity must be positive")
    count = math.ceil(Fraction(t) / Fraction(c))
    block = math.floor(c) + 1
    sizes = []
    remaining = t
    for _ in range(count):
        take = block if remaining >= block else remaining
        sizes.append(take)
        remaining -= take
    assert remaining == 0
    return sizes


def avg_partition(set_sizes: list[int]) -> list[list[int]]:
    """Chunk sizes of each of n sets, with capacity the exact mean set size.

    The mean is kept as a Fraction, so every node computing it from the
    same size vector agrees on every block count.  Total block count over
    the family is at most 2n.  A zero mean (all sets empty) yields no
    blocks.
    """
    if not set_sizes:
        raise PartitionError("need at least one set")
    if any(t < 0 for t in set_sizes):
        raise PartitionError("set sizes must be nonnegative")
    avg = Fraction(sum(set_sizes), len(set_sizes))
    if avg == 0:
        return [[] for _ in set_sizes]
    return [chunk_sizes(t, avg) for t in set_sizes]


def balanced_assignment(weights: list[int], k: int, x: int) -> list[list[int]]:
    """Split item indices into k weight-balanced groups, each ascending.

    Zero-weight placeholders pad the items to a multiple of k and sort
    before every real item; the items then sort by (weight, index), and
    group j takes sorted positions j, j+k, j+2k, ...  Placeholders are
    dropped, so groups differ in size by at most one.  Each group sum is
    at most sum(weights)/k + x, the strided split's bound, since padding
    only adds zeros; every weight must lie in [0, x].
    """
    return balanced_assignments(np.asarray(weights, dtype=np.int64).reshape(1, -1), k, x)[0]


def balanced_assignments(weights: np.ndarray, k: int, x: int) -> list[list[list[int]]]:
    """``balanced_assignment`` of each row of a 2-D weight array, all rows
    sorted in one call."""
    if k < 1:
        raise PartitionError(f"k={k} must be positive")
    if weights.size and weights.min() < 0:
        raise PartitionError("weights must be nonnegative")
    if weights.size and weights.max() > x:
        raise PartitionError(f"weight {weights.max()} exceeds bound x={x}")
    rows, items = weights.shape
    pad = (-items) % k
    # A stable sort breaks weight ties by index; -1 marks a placeholder.
    order = np.concatenate((np.full((rows, pad), -1),
                            np.argsort(weights, axis=1, kind="stable")), axis=1)
    groups = np.sort(order.reshape(rows, -1, k).transpose(0, 2, 1), axis=2).tolist()
    # Group j < pad starts with its one placeholder.
    return [[g[1:] for g in row[:pad]] + row[pad:] for row in groups]
