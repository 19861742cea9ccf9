"""Deterministic load-balancing partitions used throughout the protocols.

Three primitives, all exact (rational arithmetic, no floats):

* chunk partitions: split t items into ceil(t/c) consecutive blocks of at
  most floor(c)+1 items; trailing blocks may be empty so the block count
  is agreed upon by every node that knows t and c.
* average chunking over a family of sets, with c fixed to the exact mean
  set size; the family-wide block count never exceeds 2n.
* weight-balanced strided partition of a sorted weight multiset into k
  equal-cardinality parts whose sums exceed the mean part sum by at most
  one maximal element.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


def weight_balanced_partition(weights: list[int], k: int, x: int) -> list[list[int]]:
    """Strided split of an ascending weight list into k parts of n/k items.

    Part j takes positions j, j+k, j+2k, ...; each part sum is at most
    sum(weights)/k + x provided every weight is at most x.  Preconditions
    (sortedness, k divides n, weight bound) are enforced.
    """
    n = len(weights)
    if k < 1 or n % k != 0:
        raise PartitionError(f"k={k} must be a positive divisor of n={n}")
    if any(w < 0 for w in weights):
        raise PartitionError("weights must be nonnegative")
    if any(weights[i] > weights[i + 1] for i in range(n - 1)):
        raise PartitionError("weights must be sorted ascending")
    if weights and weights[-1] > x:
        raise PartitionError(f"weight {weights[-1]} exceeds bound x={x}")
    return [list(range(j, n, k)) for j in range(k)]


def balanced_assignment(weights: list[int], k: int, x: int) -> list[list[int]]:
    """Partition arbitrary-order items into k weight-balanced groups.

    Sorts items by (weight, index), applies the strided split, and maps
    back to original indices; each returned group is ascending.  Part sums
    obey the same sum/k + x bound.
    """
    order = sorted(range(len(weights)), key=lambda i: (weights[i], i))
    parts = weight_balanced_partition([weights[i] for i in order], k, x)
    return [sorted(order[pos] for pos in part) for part in parts]


def padded_balanced_groups(items: list[int], weights: list[int], k: int) -> list[list[int]]:
    """Weight-balanced grouping when k need not divide the item count.

    Zero-weight placeholders pad the multiset up to a multiple of k before
    the strided split; placeholders are dropped afterwards.  Padding keeps
    the sum/k + max-weight guarantee since it only adds zeros.
    """
    if k < 1:
        raise PartitionError("k must be positive")
    if len(items) != len(weights):
        raise PartitionError("items and weights must align")
    pad = (-len(items)) % k
    # Placeholders sort before every real item: weight 0 and a key below
    # any real identifier.
    keyed = [(0, -1, None)] * pad + [
        (w, it, it) for w, it in zip(weights, items)
    ]
    keyed.sort(key=lambda t: (t[0], t[1]))
    groups = []
    for j in range(k):
        groups.append(sorted(keyed[pos][2] for pos in range(j, len(keyed), k)
                             if keyed[pos][2] is not None))
    return groups
