"""Square sparse matrices in compressed-row form, and Matrix Market IO.

Matrices are n-by-n over a semiring; entries equal to the semiring's
omitted value are never stored.  A matrix is three arrays: row i's
entries are positions ``ptr[i]:ptr[i + 1]`` of ``cols``, ascending, and
of ``vals``, a value column (``value_column``), whose ``.tolist()`` gives
back every value's exact Python type.  The engine carries message values
by the same rule.
"""

from __future__ import annotations

from itertools import pairwise

import numpy as np

from .semiring import Semiring


# The largest size either loader accepts, the widest node id
# ``engine.node_dtype`` holds; a larger one is refused before anything is
# allocated for it.
MAX_SIZE = 2**31 - 1


class FormatError(ValueError):
    """Malformed input file: bad header, out-of-range index, duplicate entry."""


class DimensionError(ValueError):
    """Operands disagree on size or semiring."""


def value_column(values) -> np.ndarray:
    """``values`` as a value column: int64 if every value is an ``int``
    inside int64, bool if every value is a ``bool``, object otherwise."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64 or values.dtype == np.bool_:
            return values
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {bool}:
        return np.array(values, dtype=np.bool_)
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def concat_values(columns) -> np.ndarray:
    """Value columns joined end to end; differing dtypes join as object.

    An empty column holds no value, so its dtype does not count."""
    columns = [c for c in columns if len(c)] or columns[:1]
    if len({c.dtype for c in columns}) > 1:
        columns = [c.astype(object) for c in columns]
    return np.concatenate(columns)


class SparseMatrix:
    """n-by-n matrix over ``semiring`` in compressed rows ``ptr``, ``cols``, ``vals``."""

    __slots__ = ("n", "semiring", "ptr", "cols", "vals")

    def __init__(self, n: int, semiring: Semiring, ptr: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray):
        if n < 1:
            raise ValueError("matrix size must be at least 1")
        self.n = n
        self.semiring = semiring
        self.ptr, self.cols, self.vals = ptr, cols, vals

    @classmethod
    def from_entries(cls, n: int, semiring: Semiring, entries) -> "SparseMatrix":
        """Build from (row, col, value) triples.

        The first entry outside [0, n) in input order, then the first
        duplicate coordinate in (row, col) order, raises FormatError;
        entries holding the omitted value are dropped after both checks.
        """
        entries = list(entries)
        i, j, values = map(list, zip(*entries)) if entries else ([], [], [])
        # numpy holds an index beyond int64 as float or object, which
        # compares outside [0, n) all the same.
        rows, cols = np.array(i), np.array(j)
        bad = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
        if bad.any():
            r, c, _ = entries[int(bad.argmax())]
            raise FormatError(f"entry ({r}, {c}) outside [0, {n})")
        order = np.lexsort((cols, rows))
        rows, cols = rows[order].astype(np.int64), cols[order].astype(np.int64)
        dup = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
        if len(dup):
            raise FormatError(f"duplicate entry at ({rows[dup[0]]}, {cols[dup[0]]})")
        vals = value_column(values)[order]
        kept = vals != semiring.omitted
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[kept], minlength=n), out=ptr[1:])
        return cls(n, semiring, ptr, cols[kept], value_column(vals[kept]))

    # -- access -------------------------------------------------------------

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i's columns and values, as views of the stored arrays."""
        lo, hi = self.ptr[i], self.ptr[i + 1]
        return self.cols[lo:hi], self.vals[lo:hi]

    @property
    def rows(self) -> list[list[tuple]]:
        """Every row as a list of (col, value) tuples of Python values."""
        cols, vals = self.cols.tolist(), self.vals.tolist()
        return [list(zip(cols[lo:hi], vals[lo:hi])) for lo, hi in pairwise(self.ptr.tolist())]

    def nz(self) -> int:
        return len(self.cols)

    def entries(self):
        """(row, col, value) triples of Python values in (row, col) order."""
        rows = np.repeat(np.arange(self.n), np.diff(self.ptr))
        return zip(rows.tolist(), self.cols.tolist(), self.vals.tolist())

    def to_dense(self) -> list[list]:
        omitted = self.semiring.omitted
        dense = [[omitted] * self.n for _ in range(self.n)]
        for i, j, v in self.entries():
            dense[i][j] = v
        return dense

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.n == other.n
            and self.semiring.name == other.semiring.name
            and np.array_equal(self.ptr, other.ptr)
            and np.array_equal(self.cols, other.cols)
            and self.vals.tolist() == other.vals.tolist()
        )

    def __repr__(self) -> str:
        return f"SparseMatrix(n={self.n}, semiring={self.semiring.name}, nz={self.nz()})"


# -- Matrix Market coordinate IO -------------------------------------------

_READ_FIELDS = {"integer", "real", "pattern"}


def _ints(tokens, lineno: int, what: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"line {lineno}: bad {what} {' '.join(tokens)!r}") from None


def load_matrix_market(path, semiring: Semiring) -> SparseMatrix:
    """Read a square coordinate-format Matrix Market file (1-indexed).

    Accepts integer, real, and pattern fields with general or symmetric
    symmetry.  Duplicate coordinates raise FormatError; entries equal to
    the semiring's omitted value (0 under counting, ``inf`` under
    min-plus) are dropped after validation.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if (
            len(header) < 5
            or header[0] != "%%MatrixMarket"
            or header[1].lower() != "matrix"
            or header[2].lower() != "coordinate"
        ):
            raise FormatError("expected a MatrixMarket coordinate header")
        field = header[3].lower()
        symmetry = header[4].lower()
        if field not in _READ_FIELDS:
            raise FormatError(f"unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise FormatError(f"unsupported symmetry {symmetry!r}")

        size_line = None
        data_lines = []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if size_line is None:
                size_line = (lineno, line)
            else:
                data_lines.append((lineno, line))

    if size_line is None:
        raise FormatError("missing size line")
    lineno, line = size_line
    parts = line.split()
    if len(parts) != 3:
        raise FormatError(f"line {lineno}: bad size line {line!r}")
    n_rows, n_cols, nnz = _ints(parts, lineno, "size line")
    if n_rows != n_cols:
        raise FormatError(f"line {lineno}: only square matrices are supported")
    if n_rows < 1:
        raise FormatError(f"line {lineno}: matrix size must be at least 1")
    if n_rows > MAX_SIZE:
        raise FormatError(f"line {lineno}: matrix size {n_rows} exceeds {MAX_SIZE}")
    if len(data_lines) != nnz:
        raise FormatError(f"size line promises {nnz} entries, found {len(data_lines)}")

    pattern = field == "pattern"
    want = 2 if pattern else 3
    entries = []
    for lineno, line in data_lines:
        toks = line.split()
        if len(toks) != want:
            raise FormatError(f"line {lineno}: bad entry line {line!r}")
        i, j = (x - 1 for x in _ints(toks[:2], lineno, "coordinate"))
        if not (0 <= i < n_rows and 0 <= j < n_rows):
            raise FormatError(f"line {lineno}: coordinate ({toks[0]}, {toks[1]}) out of range")
        if pattern:
            v = semiring.one
        else:
            try:
                v = semiring.parse_value(toks[2])
            except (ValueError, OverflowError):
                raise FormatError(f"line {lineno}: bad value {toks[2]!r}") from None
        entries.append((i, j, v))
        if symmetry == "symmetric" and i != j:
            entries.append((j, i, v))

    return SparseMatrix.from_entries(n_rows, semiring, entries)


def save_matrix_market(matrix: SparseMatrix, path) -> None:
    """Write coordinate format, entries sorted by (row, col), 1-indexed."""
    sr = matrix.semiring
    pattern = sr.mm_field == "pattern"
    lines = [f"%%MatrixMarket matrix coordinate {sr.mm_field} general"]
    lines.append(f"{matrix.n} {matrix.n} {matrix.nz()}")
    for i, j, v in matrix.entries():
        if pattern:
            lines.append(f"{i + 1} {j + 1}")
        else:
            lines.append(f"{i + 1} {j + 1} {sr.format_value(v)}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
