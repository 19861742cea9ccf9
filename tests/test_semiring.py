import math
import random

import numpy as np
import pytest

from cliquemul.semiring import (INT64_MAX, boolean_semiring, counting_semiring,
                                min_plus_semiring, semiring_by_name)


def test_boolean_tables():
    sr = boolean_semiring()
    assert sr.add(True, False) is True
    assert sr.mul(True, False) is False
    assert sr.add(False, False) is False
    assert sr.omitted is False
    assert sr.one is True


def test_counting_basics():
    sr = counting_semiring()
    assert sr.add(2, 3) == 5
    assert sr.mul(2, 0) == 0
    assert sr.mul(3, 4) == 12
    assert sr.omitted == 0


def test_counting_saturates_instead_of_wrapping():
    sr = counting_semiring()
    assert sr.add(INT64_MAX, 1) == INT64_MAX
    assert sr.mul(INT64_MAX, 2) == INT64_MAX
    assert sr.add(-INT64_MAX, -5) == -INT64_MAX
    assert sr.mul(INT64_MAX, -3) == -INT64_MAX


def test_min_plus_basics():
    sr = min_plus_semiring()
    assert sr.add(3, math.inf) == 3
    assert sr.mul(2, 3) == 5
    assert sr.mul(math.inf, 0) == math.inf
    assert sr.omitted == math.inf
    assert sr.one == 0


def _samples(sr, rng, count):
    if sr.name == "boolean":
        return [rng.random() < 0.5 for _ in range(count)]
    if sr.name == "counting":
        return [rng.randint(-50, 50) for _ in range(count)]
    vals = [float(rng.randint(-20, 20)) for _ in range(count)]
    # keep some omitted elements in the mix
    return [math.inf if rng.random() < 0.1 else v for v in vals]


@pytest.mark.parametrize("factory", [boolean_semiring, counting_semiring,
                                     min_plus_semiring])
def test_axioms_on_sampled_tuples(factory):
    sr = factory()
    rng = random.Random(12345)
    xs = _samples(sr, rng, 1200)
    for i in range(0, len(xs) - 2, 3):
        x, y, z = xs[i], xs[i + 1], xs[i + 2]
        assert sr.add(x, y) == sr.add(y, x)
        assert sr.add(sr.add(x, y), z) == sr.add(x, sr.add(y, z))
        assert sr.mul(x, sr.add(y, z)) == sr.add(sr.mul(x, y), sr.mul(x, z))
        assert sr.add(x, sr.omitted) == x
        assert sr.mul(x, sr.omitted) == sr.omitted
        assert sr.mul(sr.omitted, x) == sr.omitted
        assert sr.mul(x, sr.one) == x


def test_value_round_trip():
    for name in ("bool", "count", "minplus"):
        sr = semiring_by_name(name)
        val = sr.one
        assert sr.parse_value(sr.format_value(val)) == val


def test_min_plus_never_formats_omitted():
    sr = min_plus_semiring()
    with pytest.raises(ValueError):
        sr.format_value(math.inf)


def test_lookup_by_name():
    assert semiring_by_name("bool").name == "boolean"
    assert semiring_by_name("count").name == "counting"
    assert semiring_by_name("minplus").name == "min-plus"
    with pytest.raises(ValueError):
        semiring_by_name("tropical-max")


def test_sums_exact_reads_the_value_column():
    # Counting partials sum exactly in int64 while their absolute values
    # sum to at most INT64_MAX; min and or are exact on any int64 or bool
    # column.  An object column holds some value no kernel dtype keeps.
    count = counting_semiring().kernel.sums_exact
    assert count(np.array([2**62, 2**62 - 1])) and count(np.array([-INT64_MAX]))
    assert not count(np.array([2**62, -2**62]))
    assert not count(np.array([1, 2**63], dtype=object))
    minplus = min_plus_semiring().kernel.sums_exact
    assert minplus(np.array([INT64_MAX, -INT64_MAX])) and not minplus(np.array([0.5, 1], dtype=object))
    boolean = boolean_semiring().kernel.sums_exact
    assert boolean(np.array([True, False])) and not boolean(np.array([1, 0]))
