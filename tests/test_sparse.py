import math

import pytest
from hypothesis import given, settings, strategies as st

from cliquemul.semiring import boolean_semiring, counting_semiring, min_plus_semiring
from cliquemul.sparse import (FormatError, SparseMatrix, load_matrix_market,
                              save_matrix_market, value_column)

COUNT = counting_semiring()


def test_nz_identity_and_empty():
    identity = SparseMatrix.from_entries(4, COUNT, [(i, i, 1) for i in range(4)])
    assert identity.nz() == 4
    assert SparseMatrix.from_entries(4, COUNT, []).nz() == 0


def test_from_entries_drops_omitted_but_rejects_bad_input():
    M = SparseMatrix.from_entries(3, COUNT, [(0, 1, 5), (1, 2, 0)])
    assert M.nz() == 1
    with pytest.raises(FormatError, match=r"^entry \(0, 3\) outside \[0, 3\)$"):
        SparseMatrix.from_entries(3, COUNT, [(0, 3, 1)])
    with pytest.raises(FormatError, match=r"^duplicate entry at \(0, 1\)$"):
        SparseMatrix.from_entries(3, COUNT, [(0, 1, 5), (0, 1, 7)])
    # duplicates are an error even when one copy holds the omitted value
    with pytest.raises(FormatError, match=r"^duplicate entry at \(0, 1\)$"):
        SparseMatrix.from_entries(3, COUNT, [(0, 1, 0), (0, 1, 7)])


def test_from_entries_names_the_first_bad_entry():
    # Out of range: the first such entry in input order, checked before
    # any duplicate, an index past int64 included.
    for entries, bad in (([(1, 1, 1), (1, 1, 2), (-1, 0, 1), (0, 3, 1)], "-1, 0"),
                         ([(0, 2**70, 1), (3, 0, 1)], f"0, {2**70}"),
                         ([(0, 0, 1), (2**63, 1, 1)], f"{2**63}, 1")):
        with pytest.raises(FormatError, match=rf"^entry \({bad}\) outside \[0, 3\)$"):
            SparseMatrix.from_entries(3, COUNT, entries)
    # Duplicates: the first in (row, col) order, not in input order.
    with pytest.raises(FormatError, match=r"^duplicate entry at \(0, 2\)$"):
        SparseMatrix.from_entries(3, COUNT, [(2, 0, 1), (2, 0, 2), (1, 1, 1), (0, 2, 1),
                                             (0, 2, 0), (0, 0, 4)])


# Per semiring, values that include the omitted one and ints past int64,
# which take an object column; min-plus mixes in floats.
STORED_VALUES = {
    "counting": st.integers(-3, 3) | st.integers(2**63 - 2, 2**64),
    "boolean": st.booleans(),
    "min-plus": (st.integers(-3, 3) | st.integers(2**63 - 2, 2**64) | st.just(math.inf)
                 | st.floats(-4, 4, allow_nan=False)),
}


@st.composite
def stored(draw):
    sr = draw(st.sampled_from([COUNT, boolean_semiring(), min_plus_semiring()]))
    n = draw(st.integers(1, 8))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          unique=True, max_size=n * n))
    return n, sr, [(i, j, draw(STORED_VALUES[sr.name])) for i, j in cells]


@settings(max_examples=200, deadline=None)
@given(stored())
def test_storage_matches_reference_model(case):
    n, sr, entries = case
    M = SparseMatrix.from_entries(n, sr, entries)

    # Reference: a dict per row, omitted values dropped, read in column order.
    model = [{} for _ in range(n)]
    for i, j, v in entries:
        if v != sr.omitted:
            model[i][j] = v
    want = [sorted(row.items()) for row in model]
    typed = [(i, j, type(v), v) for i, row in enumerate(want) for j, v in row]
    assert M.rows == want
    assert [(i, j, type(v), v) for i, row in enumerate(M.rows) for j, v in row] == typed
    assert [(i, j, type(v), v) for i, j, v in M.entries()] == typed
    assert M.nz() == len(typed)
    dense = M.to_dense()
    for i in range(n):
        for j in range(n):
            v = model[i].get(j, sr.omitted)
            assert type(dense[i][j]) is type(v) and dense[i][j] == v
    if typed:
        assert M.vals.dtype == value_column([t[3] for t in typed]).dtype
    assert M == SparseMatrix.from_entries(n, sr, entries[::-1])


def test_row_and_column_views():
    M = SparseMatrix.from_entries(4, COUNT, [(0, 3, 2), (2, 0, 1), (2, 3, 4)])
    assert M.rows == [[(3, 2)], [], [(0, 1), (3, 4)], []]
    assert M.to_dense()[2][3] == 4
    assert M.to_dense()[1][1] == COUNT.omitted


def test_matrix_market_round_trip(tmp_path):
    cases = [
        (COUNT, [(0, 0, 7), (2, 1, -3)]),
        (boolean_semiring(), [(0, 1, True), (1, 2, True)]),
        (min_plus_semiring(), [(0, 0, 0.0), (1, 2, 4.0)]),
    ]
    for sr, entries in cases:
        M = SparseMatrix.from_entries(3, sr, entries)
        path = tmp_path / f"{sr.name}.mtx"
        save_matrix_market(M, path)
        assert load_matrix_market(path, sr) == M


def test_matrix_market_one_indexing(tmp_path):
    path = tmp_path / "t.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                    "2 2 1\n1 1 5\n")
    M = load_matrix_market(path, COUNT)
    assert M.n == 2 and M.to_dense()[0][0] == 5 and M.nz() == 1


def test_matrix_market_drops_explicit_zero(tmp_path):
    path = tmp_path / "z.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                    "3 3 2\n1 2 0\n3 3 4\n")
    M = load_matrix_market(path, COUNT)
    assert M.nz() == 1 and M.to_dense()[2][2] == 4


def test_matrix_market_rejects_duplicates(tmp_path):
    path = tmp_path / "d.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                    "2 2 2\n1 1 5\n1 1 6\n")
    with pytest.raises(FormatError):
        load_matrix_market(path, COUNT)


def test_matrix_market_seven_entries(tmp_path):
    lines = ["%%MatrixMarket matrix coordinate integer general", "4 4 7"]
    lines += [f"{i} {j} 1" for i, j in
              [(1, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 2), (4, 4)]]
    path = tmp_path / "seven.mtx"
    path.write_text("\n".join(lines) + "\n")
    assert load_matrix_market(path, COUNT).nz() == 7


def test_matrix_market_symmetric_mirrors(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer symmetric\n"
                    "3 3 2\n2 1 5\n3 3 1\n")
    M = load_matrix_market(path, COUNT)
    dense = M.to_dense()
    assert dense[1][0] == 5 and dense[0][1] == 5 and dense[2][2] == 1
    assert M.nz() == 3


def test_matrix_market_bad_inputs(tmp_path):
    bad_header = tmp_path / "h.mtx"
    bad_header.write_text("%%MatrixMarket matrix array real general\n2 2\n")
    with pytest.raises(FormatError):
        load_matrix_market(bad_header, COUNT)
    rect = tmp_path / "r.mtx"
    rect.write_text("%%MatrixMarket matrix coordinate integer general\n2 3 0\n")
    with pytest.raises(FormatError):
        load_matrix_market(rect, COUNT)
    out_of_range = tmp_path / "o.mtx"
    out_of_range.write_text("%%MatrixMarket matrix coordinate integer general\n"
                            "2 2 1\n3 1 4\n")
    with pytest.raises(FormatError):
        load_matrix_market(out_of_range, COUNT)
    # non-numeric and empty inputs name the offending line
    header = "%%MatrixMarket matrix coordinate integer general\n"
    for body, line in (("2 2 1\n1 1 abc\n", 3), ("2 two 1\n", 2),
                       ("% comment\n0 0 0\n", 3), ("2 2 1\nx 1 4\n", 3)):
        bad = tmp_path / "bad.mtx"
        bad.write_text(header + body)
        with pytest.raises(FormatError, match=f"^line {line}: "):
            load_matrix_market(bad, COUNT)
    # min-plus parses through float; of the non-finite values it accepts
    # only inf, the omitted value
    for tok in ("-inf", "nan"):
        bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                       f"2 2 1\n1 1 {tok}\n")
        with pytest.raises(FormatError, match=f"^line 3: bad value '{tok}'"):
            load_matrix_market(bad, min_plus_semiring())


def test_matrix_market_drops_minplus_inf(tmp_path):
    # inf is min-plus's omitted value, dropped as an explicit 0 is under
    # counting; it still counts as an entry line and a coordinate.
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 3\n1 1 inf\n1 2 -3\n2 2 Infinity\n")
    M = load_matrix_market(path, min_plus_semiring())
    assert list(M.entries()) == [(0, 1, -3)]
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 inf\n1 1 4\n")
    with pytest.raises(FormatError, match="duplicate entry"):
        load_matrix_market(path, min_plus_semiring())
