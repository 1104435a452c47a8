"""Exact linear algebra over the rationals.

Everything downstream computes with `fractions.Fraction`, so every equality
test in the package is exact.  Matrices are immutable (tuples of tuples) and
all functions are pure.  Subspaces are stored through a canonical reduced
row-echelon basis, so two subspaces are equal as sets iff their stored bases
compare equal.

Elimination is sparse: every solver runs one Gauss-Jordan pass over rows
held as {column: value} dicts of their nonzeros, so its cost follows the
nonzeros and their fill-in rather than rows x columns.  The reduced
row-echelon form is unique, so the result is the same canonical RREF a
dense elimination gives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush

Q = Fraction

QZERO = Q(0)
QONE = Q(1)

_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def qstr(x: Fraction) -> str:
    """Render a rational as 'p' or 'p/q'."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_scalar(s) -> Fraction:
    """Parse 'p', 'p/q' or an int into a Fraction; reject zero denominators.

    Strings must match -?[0-9]+(/[0-9]+)? in ASCII digits once surrounding
    whitespace is stripped.
    """
    if isinstance(s, bool):
        raise ValueError("boolean is not a scalar")
    if isinstance(s, int):
        return Q(s)
    if isinstance(s, Fraction):
        return s
    if not isinstance(s, str):
        raise ValueError("scalar must be an integer or a string, got %r" % (s,))
    match = _SCALAR.fullmatch(s.strip())
    if match is None:
        raise ValueError("scalar %r is not of the form 'p' or 'p/q'" % s)
    num, den = match.groups()
    if den is None:
        return Q(int(num))
    if int(den) == 0:
        raise ValueError("zero denominator in scalar %r" % s)
    return Q(int(num), int(den))


def vec(entries) -> tuple:
    return tuple(Q(x) for x in entries)


def zero_vec(n: int) -> tuple:
    return (QZERO,) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(QONE if j == i else QZERO for j in range(n))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    if c == 0:
        return (QZERO,) * len(a)
    return tuple(c * x for x in a)


def vdot(a, b):
    s = QZERO
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


class Matrix:
    """Immutable dense rational matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = tuple(tuple(Q(x) for x in row) for row in data)
        self.data = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @staticmethod
    def _of_fractions(rows, cols: int) -> "Matrix":
        """The matrix on rows whose entries are already Fractions.

        Internal: for results of Fraction arithmetic, which need no
        re-wrapping.  Rows must still all have length cols.
        """
        m = Matrix.__new__(Matrix)
        m.data = data = tuple(map(tuple, rows))
        m.rows = len(data)
        m.cols = cols
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
        return m

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._of_fractions([(QZERO,) * cols] * rows, cols)

    @staticmethod
    def _empty(cols: int) -> "Matrix":
        return Matrix._of_fractions((), cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of_fractions([unit_vec(n, i) for i in range(n)], n)

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "Matrix":
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            return Matrix._empty(cols)
        return Matrix(rows)

    @staticmethod
    def from_columns(cols, rows: int) -> "Matrix":
        """The matrix whose columns are the given length-rows vectors."""
        cols = list(cols)
        if not cols:
            return Matrix.from_rows([()] * rows, 0)
        return Matrix.from_rows(zip(*cols), len(cols))

    @staticmethod
    def column(entries) -> "Matrix":
        return Matrix([(Q(x),) for x in entries])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i) -> tuple:
        return self.data[i]

    def col(self, j) -> tuple:
        return tuple(row[j] for row in self.data)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix._of_fractions(map(vadd, self.data, other.data), self.cols)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        return Matrix._of_fractions(map(vsub, self.data, other.data), self.cols)

    def __neg__(self):
        return Matrix._of_fractions(
            [tuple(-x for x in r) for r in self.data], self.cols
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch: (%d x %d) * (%d x %d)"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        out = []
        for row in self.data:
            acc = [QZERO] * other.cols
            for k, c in enumerate(row):
                if c:
                    orow = other.data[k]
                    for j, v in enumerate(orow):
                        if v:
                            acc[j] += c * v
            out.append(acc)
        return Matrix._of_fractions(out, other.cols)

    def apply(self, v) -> tuple:
        """Matrix times coordinate column, given and returned as a tuple."""
        if self.cols != len(v):
            raise ValueError("shape mismatch in matrix application")
        acc = [QZERO] * self.rows
        for i, row in enumerate(self.data):
            s = QZERO
            for c, x in zip(row, v):
                if c and x:
                    s += c * x
            acc[i] = s
        return tuple(acc)

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix._of_fractions([()] * self.cols, 0)
        return Matrix._of_fractions(zip(*self.data), self.rows)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.data)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def flatten(self) -> tuple:
        out = []
        for row in self.data:
            out.extend(row)
        return tuple(out)

    def __repr__(self):
        body = "; ".join(" ".join(qstr(x) for x in row) for row in self.data)
        return "Matrix[%s]" % body


def nonzeros(m: Matrix) -> tuple:
    """(row, column, value) of every nonzero entry of m, row by row."""
    return tuple(
        (i, j, x) for i, row in enumerate(m.data) for j, x in enumerate(row) if x
    )


def outer_nonzeros(u, v) -> list:
    """nonzeros() of the outer product u v^t, whose (i, j) entry is u[i] v[j]."""
    vnz = [(j, y) for j, y in enumerate(v) if y]
    return [(i, j, x * y) for i, x in enumerate(u) if x for j, y in vnz]


def linear_combination(terms, rows: int, cols: int) -> Matrix:
    """sum c * M over (c, M) pairs, each M given by its nonzeros() triples."""
    acc = [[QZERO] * cols for _ in range(rows)]
    for c, nz in terms:
        if c:
            for i, j, x in nz:
                acc[i][j] += c * x
    return Matrix._of_fractions(acc, cols)


def vector_combination(terms, n: int) -> tuple:
    """sum c * v over (c, v) pairs of a scalar and a length-n vector."""
    acc = [QZERO] * n
    for c, v in terms:
        if c:
            for i, x in enumerate(v):
                if x:
                    acc[i] += c * x
    return tuple(acc)


def outer(u, v) -> Matrix:
    """The outer product u v^t: u (x) v as a tensor-square coefficient matrix."""
    return linear_combination([(QONE, outer_nonzeros(u, v))], len(u), len(v))


def _sparse_row(v) -> dict:
    return {j: x for j, x in enumerate(v) if x}


def _reduce(row: dict, pivots: dict) -> dict:
    """Clear the sparse row at every pivot column, in place; return it.

    pivots maps a pivot column to its row, which is 1 there and zero to its
    left, so eliminating columns in increasing order never refills a column
    already cleared.
    """
    cols = [c for c in row if c in pivots]
    heapify(cols)
    while cols:
        c = heappop(cols)
        f = row.get(c)
        if f is None:
            continue
        for j, x in pivots[c].items():
            v = row.get(j)
            if v is None:
                row[j] = -f * x
                if j in pivots:
                    heappush(cols, j)
            else:
                v -= f * x
                if v:
                    row[j] = v
                else:
                    del row[j]
    return row


def _eliminate(rows, width: int):
    """Gauss-Jordan elimination of sparse rows (consumed in place).

    Returns the canonical RREF as (pivot column, row) pairs in pivot order.
    Each incoming row is reduced against the pivot rows found so far and
    normalized at its leftmost remaining column; the pivot rows are then
    back-eliminated in decreasing pivot order.
    """
    pivots = {}
    for row in rows:
        _reduce(row, pivots)
        if not row:
            continue
        c = min(row)
        pv = row[c]
        if pv != 1:
            inv = QONE / pv
            row = {j: x * inv for j, x in row.items()}
        pivots[c] = row
        if len(pivots) == width:
            break
    done = {}
    for c in sorted(pivots, reverse=True):
        done[c] = _reduce(pivots[c], done)
    return sorted(done.items())


def rref(m: Matrix) -> Matrix:
    """Canonical reduced row-echelon form with zero rows dropped."""
    red = _eliminate([_sparse_row(r) for r in m.data], m.cols)
    return Matrix._of_fractions(
        [[row.get(j, QZERO) for j in range(m.cols)] for _, row in red], m.cols
    )


def rank(m: Matrix) -> int:
    return len(_eliminate([_sparse_row(r) for r in m.data], m.cols))


def inverse(m: Matrix) -> Matrix | None:
    """Two-sided inverse of a square matrix, or None if singular."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    if n == 0:
        return Matrix._empty(0)
    aug = [_sparse_row(r) for r in m.data]
    for i, row in enumerate(aug):
        row[n + i] = QONE
    red = _eliminate(aug, 2 * n)
    if [c for c, _ in red] != list(range(n)):
        return None
    return Matrix._of_fractions(
        [[row.get(n + j, QZERO) for j in range(n)] for _, row in red], n
    )


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with index convention (i, j) -> i * dim_b + j."""
    out = []
    for arow in a.data:
        for brow in b.data:
            line = []
            for x in arow:
                if x == 0:
                    line.extend([QZERO] * len(brow))
                else:
                    line.extend([x * y for y in brow])
            out.append(line)
    return Matrix._of_fractions(out, a.cols * b.cols)


@dataclass(frozen=True)
class Subspace:
    """Subspace of K^n given by its canonical RREF basis (rows)."""

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def from_spanning(vectors, ambient_dim: int) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("spanning vector has wrong dimension")
        return row_space(Matrix.from_rows(vectors, ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix._empty(ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @cached_property
    def _pivot_rows(self) -> dict:
        """The basis as sparse rows keyed by pivot column, in basis order."""
        return {min(row): row for row in map(_sparse_row, self.basis.data)}

    def contains(self, v) -> bool:
        v = list(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong ambient dimension")
        return not _reduce(_sparse_row(v), self._pivot_rows)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis.data)

    def coordinates(self, v):
        """Coefficients of v in the stored basis, or None if v is outside."""
        row = _sparse_row(v)
        coeffs = tuple(row.get(pc, QZERO) for pc in self._pivot_rows)
        if _reduce(row, self._pivot_rows):
            return None
        return coeffs

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return row_space(
            Matrix._of_fractions(self.basis.data + other.basis.data, self.ambient_dim)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus-style intersection via the kernel of [B1; B2] stacking."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # Solve x*B1 = y*B2: kernel of the matrix [B1^t | -B2^t].
        b1t = self.basis.transpose()
        b2t = other.basis.transpose()
        cols = self.dim + other.dim
        stacked = Matrix._of_fractions(
            [r1 + tuple(-x for x in r2) for r1, r2 in zip(b1t.data, b2t.data)], cols
        )
        vecs = [
            vector_combination(zip(krow[: self.dim], self.basis.data), self.ambient_dim)
            for krow in kernel(stacked).basis.data
        ]
        return row_space(Matrix._of_fractions(vecs, self.ambient_dim))

    def __contains__(self, v):
        return self.contains(v)


def _null_space(red, n: int) -> Subspace:
    """Kernel of the first n columns of a reduced system, from its RREF pairs.

    Each free column f gives the vector with a 1 at f and, at each pivot
    column, minus that pivot row's entry in column f.
    """
    pivots = {c for c, _ in red}
    free = {f: [QZERO] * n for f in range(n) if f not in pivots}
    for f, v in free.items():
        v[f] = QONE
    for pc, row in red:
        for j, x in row.items():
            if j in free:
                free[j][pc] = -x
    return row_space(Matrix._of_fractions(free.values(), n))


def kernel(m: Matrix) -> Subspace:
    """Null space of m (solutions of m x = 0) as a canonical subspace."""
    return _null_space(_eliminate([_sparse_row(r) for r in m.data], m.cols), m.cols)


def image(m: Matrix) -> Subspace:
    """Column space of m as a canonical subspace of K^rows."""
    return row_space(m.transpose())


def row_space(m: Matrix) -> Subspace:
    return Subspace(m.cols, rref(m))


def solve_affine(a: Matrix, b):
    """Solve a x = b exactly.

    Returns (particular, kernel_subspace) or None when b is outside the
    column space.  The particular solution sets every free variable to zero,
    so it is deterministic.
    """
    b = tuple(b)
    if a.rows != len(b):
        raise ValueError("right-hand side has wrong dimension")
    n = a.cols
    aug = [_sparse_row(r) for r in a.data]
    for row, bv in zip(aug, b):
        if bv:
            row[n] = bv
    red = _eliminate(aug, n + 1)
    if red and red[-1][0] == n:
        return None
    particular = [QZERO] * n
    for pc, row in red:
        particular[pc] = row.get(n, QZERO)
    # With column n not a pivot, the rows restricted to the first n columns
    # are the RREF of a.
    return tuple(particular), _null_space(red, n)


def form_inverse(q: Matrix) -> Matrix | None:
    """Inverse coefficient matrix of a nondegenerate bilinear pairing.

    For a pairing V1 x V2 -> K with Gram matrix q[i][j] against chosen bases,
    the returned p[j][k] are the coefficients of the dual tensor in V2 (x) V1
    with q.p = p.q = identity.  Returns None when the pairing is degenerate.
    """
    if not q.is_square():
        return None
    return inverse(q)
