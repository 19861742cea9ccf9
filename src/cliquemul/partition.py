"""Deterministic load-balancing partitions used throughout the protocols.

Two primitives, both in exact integer arithmetic (no floats):

* average chunking of a family of n sets: set i of t_i items splits into
  ceil(t_i / avg) consecutive blocks of at most floor(avg)+1 items, avg
  being the exact mean set size; trailing blocks may be empty, so the
  block count is agreed upon by every node that knows the sizes, and
  the family-wide block count never exceeds 2n.
* weight-balanced strided assignment of any weight list into k groups
  whose sizes differ by at most one and whose sums exceed the mean group
  sum by at most one maximal element.
"""

from __future__ import annotations

import numpy as np


class PartitionError(ValueError):
    """Inputs violate a partition precondition."""


def avg_partition(set_sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Chunk each of n sets with capacity the exact mean set size avg.

    Returns ``(size, count)``: ``count[i]`` = ceil(t_i / avg) blocks of
    set i, and ``size`` every block's item count, set by set, each set's
    blocks in order.  Block k of a set of t items holds clip(t - k * c,
    0, c) with c = floor(avg) + 1, so blocks fill greedily and only
    trailing ones may be empty.  Both follow from the integers t_i, n and
    the total, so every node computing them from the same size vector
    agrees; the total block count is at most 2n.  A zero total (all sets
    empty) yields no blocks.
    """
    t = np.asarray(set_sizes, dtype=np.int64)
    if not len(t):
        raise PartitionError("need at least one set")
    if (t < 0).any():
        raise PartitionError("set sizes must be nonnegative")
    n, total = len(t), int(t.sum())
    # ceil(t / (total / n)); a zero total has only empty sets, so no blocks.
    count = -(-t * n // max(total, 1))
    block = total // n + 1
    # Each block's place k within its set.
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return np.clip(np.repeat(t, count) - k * block, 0, block), count


def balanced_assignment(weights: list[int], k: int, x: int) -> list[list[int]]:
    """Split item indices into k weight-balanced groups, each ascending.

    Zero-weight placeholders pad the items to a multiple of k and sort
    before every real item; the items then sort by (weight, index), and
    group j takes sorted positions j, j+k, j+2k, ...  Placeholders are
    dropped, so groups differ in size by at most one.  Each group sum is
    at most sum(weights)/k + x, the strided split's bound, since padding
    only adds zeros; every weight must lie in [0, x].
    """
    labels = balanced_labels(np.asarray(weights, dtype=np.int64).reshape(1, -1), k, x)[0]
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels, minlength=k)).tolist()
    return [order[lo:hi] for lo, hi in zip([0] + ends, ends)]


def balanced_labels(weights: np.ndarray, k: int, x: int) -> np.ndarray:
    """Each item's group in ``balanced_assignment`` of each row of a 2-D
    weight array, all rows sorted in one call.

    With pad = (-items) mod k placeholders in front, the item at sorted
    position s takes group (s + pad) mod k.
    """
    if k < 1:
        raise PartitionError(f"k={k} must be positive")
    if weights.size and weights.min() < 0:
        raise PartitionError("weights must be nonnegative")
    if weights.size and weights.max() > x:
        raise PartitionError(f"weight {weights.max()} exceeds bound x={x}")
    labels = np.empty(weights.shape, dtype=np.int64)
    # A stable sort breaks weight ties by index; s + pad = s - items mod k.
    np.put_along_axis(labels, np.argsort(weights, axis=1, kind="stable"),
                      np.arange(-weights.shape[1], 0) % k, axis=1)
    return labels
