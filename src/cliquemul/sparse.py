"""Square sparse matrices in row-major coordinate form, and Matrix Market IO.

Matrices are n-by-n over a semiring; entries equal to the semiring's
omitted value are never stored.  Row lists are kept sorted by column so
every traversal order is deterministic.
"""

from __future__ import annotations

from .semiring import Semiring


class FormatError(ValueError):
    """Malformed input file: bad header, out-of-range index, duplicate entry."""


class DimensionError(ValueError):
    """Operands disagree on size or semiring."""


class SparseMatrix:
    """n-by-n matrix over ``semiring``; ``rows[i]`` is a sorted (col, value) list."""

    __slots__ = ("n", "semiring", "rows")

    def __init__(self, n: int, semiring: Semiring, rows=None):
        if n < 1:
            raise ValueError("matrix size must be at least 1")
        self.n = n
        self.semiring = semiring
        self.rows = rows if rows is not None else [[] for _ in range(n)]

    @classmethod
    def from_entries(cls, n: int, semiring: Semiring, entries) -> "SparseMatrix":
        """Build from (row, col, value) triples; duplicate coordinates are an error."""
        rows: list[list] = [[] for _ in range(n)]
        for i, j, v in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise FormatError(f"entry ({i}, {j}) outside [0, {n})")
            rows[i].append((j, v))
        seen_cols = set()
        for i, row in enumerate(rows):
            row.sort()
            seen_cols.clear()
            for j, _ in row:
                if j in seen_cols:
                    raise FormatError(f"duplicate entry at ({i}, {j})")
                seen_cols.add(j)
        omitted = semiring.omitted
        rows = [[(j, v) for j, v in row if v != omitted] for row in rows]
        return cls(n, semiring, rows)

    @classmethod
    def from_dense(cls, dense, semiring: Semiring) -> "SparseMatrix":
        n = len(dense)
        omitted = semiring.omitted
        rows = [
            [(j, v) for j, v in enumerate(drow) if v != omitted]
            for drow in dense
        ]
        return cls(n, semiring, rows)

    # -- access -------------------------------------------------------------

    def nz(self) -> int:
        return sum(len(r) for r in self.rows)

    def entry(self, i: int, j: int):
        for c, v in self.rows[i]:
            if c == j:
                return v
            if c > j:
                break
        return self.semiring.omitted

    def entries(self):
        for i, row in enumerate(self.rows):
            for j, v in row:
                yield i, j, v

    def to_dense(self) -> list[list]:
        omitted = self.semiring.omitted
        dense = [[omitted] * self.n for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            for j, v in row:
                dense[i][j] = v
        return dense

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.n == other.n
            and self.semiring.name == other.semiring.name
            and self.rows == other.rows
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
