"""Pluggable (add, mul) scalar algebras used by the sparse-matrix pipeline.

A semiring here is a value domain plus two associative operations where
``add`` is commutative and ``omitted`` is the additive identity.  Entries
equal to ``omitted`` are never stored and never sent over the wire, which
is sound because ``omitted`` annihilates under ``mul`` and is neutral
under ``add``.

Counting is the one exception: its operations saturate at the int64
range, and saturating addition is associative only while no partial sum
of mixed-sign values clamps.  On nonnegative values a clamped sum stays
at INT64_MAX whatever is added later, so every summation order gives the
same result and smm equals the sequential reference; every generator and
graph driver makes nonnegative counting values.  With mixed signs, a
saturated result can depend on the order in which the protocol sums.

Each shipped semiring also carries an ``ArrayKernel``: numpy ufuncs that
multiply and sum whole arrays of values, plus two predicates that say,
from the value columns themselves (see ``sparse.py`` for their dtype
rule), when the array arithmetic equals the scalar definition.
``exact(lhs, rhs, terms)`` covers any sum of at most ``terms`` products
of an lhs and an rhs value; ``sums_exact(values)`` covers summing the
values themselves.  Every predicate checks exact Python types, so the
kernel's ``.tolist()`` results have the same types as the scalar path's:

* counting (int64, multiply, add): every value an ``int`` and
  max|lhs| * max|rhs| * terms <= INT64_MAX, or for sums, the sum of
  |values| <= INT64_MAX.  Then every product and every partial sum, in
  any order, lies within [INT64_MIN, INT64_MAX], so the saturating
  scalar fold never clamps and int64 never wraps;
* min-plus (int64, add, minimum): every value an ``int`` (so no
  infinity and no float) and max|lhs| + max|rhs| <= INT64_MAX, so no
  sum wraps; ``min`` is exact in any order, so every int64 column sums
  exactly;
* boolean (bool, logical_and, logical_or): every value a ``bool``.

Counting and boolean also multiply whole dense blocks: ``block_exact(lhs,
rhs, terms)`` says when a float64 matrix product of blocks holding those
values, each result a sum of at most ``terms`` products, gives the
scalar values once cast back to the kernel's dtype:

* counting: every value an ``int`` and max|lhs| * max|rhs| * terms <=
  2**53, so every product and partial sum, in whatever order the matrix
  product adds them, is an integer float64 holds exactly;
* boolean: every value a ``bool``; as 0/1 floats a sum counts the true
  products, at most ``terms`` <= 2**53, and casting to bool tests it
  for > 0.

Min-plus has no block product.

Outside the envelope, and for semirings built without a kernel, callers
use ``Semiring.fold_kernel``: the scalar ``add``/``mul`` themselves as
object-dtype ufuncs.  It is exact by definition, and its
``add.reduceat`` sums each segment left to right in the order given, so
a caller that fixes the order fixes a saturated counting sum too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable

import numpy as np

Value = Any

# Counting arithmetic saturates at the signed 64-bit range so every value
# still fits in one machine word.
INT64_MAX = 2**63 - 1
INT64_MIN = -INT64_MAX


@dataclass(frozen=True)
class ArrayKernel:
    """Array arithmetic for a semiring, exact where its predicates hold.

    ``exact(lhs_vals, rhs_vals, terms)`` is True when multiplying values
    of ``lhs_vals`` by values of ``rhs_vals`` in ``dtype`` with ``mul``
    and summing at most ``terms`` products per result with ``add`` gives
    the scalar semiring's values, of the same Python type after
    ``.tolist()``.  ``sums_exact(vals)`` is True when summing any of
    ``vals`` with ``add``, in any order, does.  ``block_exact`` is
    ``exact`` for a float64 matrix product cast back to ``dtype``, or None
    when the semiring has no such product.  All read value columns.
    """

    dtype: type
    mul: np.ufunc
    add: np.ufunc
    exact: Callable[[np.ndarray, np.ndarray, int], bool]
    sums_exact: Callable[[np.ndarray], bool]
    block_exact: Callable[[np.ndarray, np.ndarray, int], bool] | None = None


@dataclass(frozen=True)
class Semiring:
    """Scalar algebra: ``add``/``mul`` over single-word values.

    ``omitted`` is the additive identity; a missing matrix entry means
    exactly this value.  ``one`` is the multiplicative identity, used for
    identity matrices and for pattern-only input files.  ``kernel`` is
    the array form of ``add``/``mul``, or None for scalar arithmetic only.
    """

    name: str
    add: Callable[[Value, Value], Value]
    mul: Callable[[Value, Value], Value]
    omitted: Value
    one: Value
    mm_field: str = "integer"
    parse_value: Callable[[str], Value] = field(default=int, repr=False)
    format_value: Callable[[Value], str] = field(default=str, repr=False)
    kernel: ArrayKernel | None = field(default=None, repr=False)

    @cached_property
    def fold_kernel(self) -> ArrayKernel:
        """``add``/``mul`` on object columns, exact for every value; its
        dtype, object, tells it from a numpy kernel."""
        return ArrayKernel(object, np.frompyfunc(self.mul, 2, 1), np.frompyfunc(self.add, 2, 1),
                           _always, _always)


def _always(*_) -> bool:
    return True


def _sat(x: int) -> int:
    if x > INT64_MAX:
        return INT64_MAX
    if x < INT64_MIN:
        return INT64_MIN
    return x


def _sat_add(x: int, y: int) -> int:
    return _sat(x + y)


def _sat_mul(x: int, y: int) -> int:
    return _sat(x * y)


def _bool_add(x: bool, y: bool) -> bool:
    return x or y


def _bool_mul(x: bool, y: bool) -> bool:
    return x and y


def _bool_parse(tok: str) -> bool:
    return int(tok) != 0


def _bool_format(v: bool) -> str:
    return "1" if v else "0"


def _minplus_add(x, y):
    return x if x <= y else y


def _minplus_mul(x, y):
    # int + math.inf promotes to float inf, which is what we want.
    return x + y


def _minplus_parse(tok: str):
    # inf is the omitted value, dropped like an explicit 0 under counting;
    # int() refuses -inf (OverflowError) and nan (ValueError).
    f = float(tok)
    if f == math.inf:
        return f
    return int(f) if f == int(f) else f


def _minplus_format(v) -> str:
    if v == math.inf:
        raise ValueError("omitted (infinite) min-plus values are never written")
    return str(int(v)) if v == int(v) else repr(v)


def _all_of_type(values: np.ndarray, kind: type) -> bool:
    if values.dtype == object:
        return set(map(type, values)) <= {kind}
    # The value-column rule: an int64 column holds ints, a bool one bools.
    return values.dtype == (np.bool_ if kind is bool else np.int64) or not len(values)


def _max_abs(values: np.ndarray) -> int:
    if values.dtype == object:
        return max(map(abs, values), default=0)
    return max(int(values.max()), -int(values.min())) if len(values) else 0


def _counting_exact(lhs: np.ndarray, rhs: np.ndarray, terms: int) -> bool:
    return (_all_of_type(lhs, int) and _all_of_type(rhs, int)
            and _max_abs(lhs) * _max_abs(rhs) * terms <= INT64_MAX)


def _counting_block_exact(lhs: np.ndarray, rhs: np.ndarray, terms: int) -> bool:
    return (_all_of_type(lhs, int) and _all_of_type(rhs, int)
            and _max_abs(lhs) * _max_abs(rhs) * terms <= 2**53)


def _counting_sums_exact(values: np.ndarray) -> bool:
    if values.dtype != np.int64:
        return False
    # A float total well below the limit settles it; near it, sum exactly.
    return (float(np.abs(values, dtype=np.float64).sum()) < 2.0 ** 62
            or sum(map(abs, values.tolist())) <= INT64_MAX)


def _minplus_exact(lhs: np.ndarray, rhs: np.ndarray, terms: int) -> bool:
    return (_all_of_type(lhs, int) and _all_of_type(rhs, int)
            and _max_abs(lhs) + _max_abs(rhs) <= INT64_MAX)


def _bool_exact(lhs: np.ndarray, rhs: np.ndarray, terms: int) -> bool:
    return _all_of_type(lhs, bool) and _all_of_type(rhs, bool)


_BOOLEAN = Semiring(
    name="boolean",
    add=_bool_add,
    mul=_bool_mul,
    omitted=False,
    one=True,
    mm_field="pattern",
    parse_value=_bool_parse,
    format_value=_bool_format,
    kernel=ArrayKernel(np.bool_, np.logical_and, np.logical_or, _bool_exact,
                       partial(_all_of_type, kind=bool), _bool_exact),
)

_COUNTING = Semiring(
    name="counting",
    add=_sat_add,
    mul=_sat_mul,
    omitted=0,
    one=1,
    mm_field="integer",
    parse_value=int,
    format_value=str,
    kernel=ArrayKernel(np.int64, np.multiply, np.add, _counting_exact,
                       _counting_sums_exact, _counting_block_exact),
)

_MIN_PLUS = Semiring(
    name="min-plus",
    add=_minplus_add,
    mul=_minplus_mul,
    omitted=math.inf,
    one=0,
    mm_field="real",
    parse_value=_minplus_parse,
    format_value=_minplus_format,
    kernel=ArrayKernel(np.int64, np.add, np.minimum, _minplus_exact,
                       partial(_all_of_type, kind=int)),
)


def boolean_semiring() -> Semiring:
    """OR/AND over {False, True}; omitted entries read as False."""
    return _BOOLEAN


def counting_semiring() -> Semiring:
    """Plus/times over 64-bit saturating integers; omitted entries read as 0.

    Order-independent on nonnegative values; with mixed signs a saturated
    sum can depend on the summation order (see the module docstring).
    """
    return _COUNTING


def min_plus_semiring() -> Semiring:
    """min/plus over integers with +infinity; omitted entries read as +inf."""
    return _MIN_PLUS


SEMIRINGS: dict[str, Semiring] = {
    "bool": _BOOLEAN,
    "count": _COUNTING,
    "minplus": _MIN_PLUS,
}


def semiring_by_name(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown semiring {name!r}; choose from {sorted(SEMIRINGS)}"
        ) from None
