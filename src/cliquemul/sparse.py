"""Square sparse matrices in row-major coordinate form, plus permutations.

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


class Permutation:
    """Bijection on [0, n); ``p(i)`` is the image of i."""

    __slots__ = ("forward", "inverse")

    def __init__(self, forward):
        forward = list(forward)
        n = len(forward)
        inverse = [-1] * n
        for i, j in enumerate(forward):
            if not (0 <= j < n) or inverse[j] != -1:
                raise ValueError("not a permutation of 0..n-1")
            inverse[j] = i
        self.forward = forward
        self.inverse = inverse

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    def __call__(self, i: int) -> int:
        return self.forward[i]

    def inverted(self) -> "Permutation":
        inv = Permutation.__new__(Permutation)
        inv.forward = list(self.inverse)
        inv.inverse = list(self.forward)
        return inv

    def __len__(self) -> int:
        return len(self.forward)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.forward == other.forward

    def __repr__(self) -> str:
        return f"Permutation({self.forward})"


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

    @classmethod
    def identity(cls, n: int, semiring: Semiring) -> "SparseMatrix":
        one = semiring.one
        rows = [[(i, one)] for i in range(n)]
        return cls(n, semiring, rows)

    # -- statistics ---------------------------------------------------------

    def nz(self) -> int:
        return sum(len(r) for r in self.rows)

    def nz_by_row(self) -> list[int]:
        return [len(r) for r in self.rows]

    def nz_by_col(self) -> list[int]:
        counts = [0] * self.n
        for row in self.rows:
            for j, _ in row:
                counts[j] += 1
        return counts

    def band_row_counts(self, bands: int) -> list[int]:
        """Entry counts per horizontal band of n/bands consecutive rows."""
        h = self.n // bands
        return [
            sum(len(self.rows[r]) for r in range(i * h, (i + 1) * h))
            for i in range(bands)
        ]

    def band_col_counts(self, bands: int) -> list[int]:
        w = self.n // bands
        counts = [0] * bands
        for row in self.rows:
            for j, _ in row:
                counts[j // w] += 1
        return counts

    # -- access -------------------------------------------------------------

    def row(self, i: int):
        return self.rows[i]

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

    # -- structural transforms ---------------------------------------------

    def permute_rows(self, perm: Permutation) -> "SparseMatrix":
        """Result[perm(i)][j] = self[i][j]."""
        if len(perm) != self.n:
            raise DimensionError("permutation size mismatch")
        rows: list[list] = [None] * self.n  # type: ignore[list-item]
        for i, row in enumerate(self.rows):
            rows[perm(i)] = list(row)
        return SparseMatrix(self.n, self.semiring, rows)

    def permute_cols(self, perm: Permutation) -> "SparseMatrix":
        """Result[i][perm(j)] = self[i][j]."""
        if len(perm) != self.n:
            raise DimensionError("permutation size mismatch")
        fwd = perm.forward
        rows = [sorted((fwd[j], v) for j, v in row) for row in self.rows]
        return SparseMatrix(self.n, self.semiring, rows)

    def padded(self, new_n: int) -> "SparseMatrix":
        if new_n < self.n:
            raise DimensionError("padding cannot shrink a matrix")
        rows = [list(r) for r in self.rows] + [[] for _ in range(new_n - self.n)]
        return SparseMatrix(new_n, self.semiring, rows)

    def truncated(self, new_n: int) -> "SparseMatrix":
        """Drop rows/cols >= new_n; inverse of ``padded`` for block-padded data."""
        if new_n > self.n:
            raise DimensionError("truncation cannot grow a matrix")
        rows = [[(j, v) for j, v in self.rows[i] if j < new_n] for i in range(new_n)]
        return SparseMatrix(new_n, self.semiring, rows)

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


def load_matrix_market(path, semiring: Semiring) -> SparseMatrix:
    """Read a square coordinate-format Matrix Market file (1-indexed).

    Accepts integer, real, and pattern fields with general or symmetric
    symmetry.  Duplicate coordinates raise FormatError; entries equal to
    the semiring's omitted value are dropped after validation.
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
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if size_line is None:
                size_line = line
            else:
                data_lines.append(line)

    if size_line is None:
        raise FormatError("missing size line")
    parts = size_line.split()
    if len(parts) != 3:
        raise FormatError(f"bad size line {size_line!r}")
    n_rows, n_cols, nnz = (int(p) for p in parts)
    if n_rows != n_cols:
        raise FormatError("only square matrices are supported")
    if len(data_lines) != nnz:
        raise FormatError(f"size line promises {nnz} entries, found {len(data_lines)}")

    pattern = field == "pattern"
    entries = []
    for line in data_lines:
        toks = line.split()
        want = 2 if pattern else 3
        if len(toks) != want:
            raise FormatError(f"bad entry line {line!r}")
        i, j = int(toks[0]) - 1, int(toks[1]) - 1
        if not (0 <= i < n_rows and 0 <= j < n_rows):
            raise FormatError(f"coordinate ({toks[0]}, {toks[1]}) out of range")
        v = semiring.one if pattern else semiring.parse_value(toks[2])
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
