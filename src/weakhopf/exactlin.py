"""Exact linear algebra over the rationals.

Every value this module stores or returns, and so every value the package
passes around, is a `fractions.Fraction`, so every equality test in the
package is exact.  Inside the kernel loops (matrix products and
applications, linear and vector combinations, dot products and the
elimination) an integral Fraction is held as its int: a kernel unwraps its
operands on entry (`_unwrap`), computes in Python numbers, where int with
int stays int and int with Fraction gives an exact Fraction, and wraps each
output entry back into a Fraction once (`_wrap`; `Matrix._of_dicts` does it
for matrices).  No division ever has an int numerator, so no float can
appear.  Matrices are immutable and sparse: they
store their shape and, per row, the (column, value) pairs of the nonzero
entries in column order, so no zero is ever stored and the arithmetic costs
follow the nonzeros.  Dense rows, columns and entries are views derived from
that storage.  Vectors are dense tuples.  All functions are pure.  Subspaces
are stored through a canonical reduced row-echelon basis, so two subspaces
are equal as sets iff their stored bases compare equal.

Elimination is sparse and fraction-free: every solver runs one Gauss-Jordan
pass over rows held as {column: value} dicts of their nonzeros, so its cost
follows the nonzeros and their fill-in rather than rows x columns.  Each
incoming row is scaled by the lcm of its denominators; an empty row, or one
equal to a row already seen (right-hand side included), is skipped, since
neither changes the row space.  Any other is reduced against int pivot rows
by cross-multiplication, row <- (p/g) row - (f/g) pivot row with
g = gcd(f, p) (Bareiss, Math. Comp. 22, 1968, without his exact division);
every new pivot row is divided by the gcd of its entries, and only at the
end is each divided by its pivot, so no Fraction is formed before then.
The reduced row-echelon form is unique, so the result is the same canonical
RREF a dense Fraction elimination gives.  The row entry points
(kernel_of_rows, particular_solution_of_rows, solve_affine_of_rows) take
such rows directly, so a caller that sums a system as ints hands it over
without a Matrix of Fractions in between; kernel, particular_solution and
solve_affine unwrap a Matrix into rows and call them.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm

Q = Fraction

QZERO = Q(0)
QONE = Q(1)

_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# small nonzero integral Fractions, shared: wrapping one costs a lookup, and
# equal entries are then one object, which tuple comparisons test first.
# Zero always wraps to QZERO, which the zero tests below recognise by identity.
_WRAPPED = {i: Q(i) for i in range(-256, 257) if i}
_WRAPPED[1] = QONE


def _unwrap(x):
    """x as a kernel loop holds it: an integral Fraction becomes its int.

    Anything else, a Fraction subclass included, passes through untouched.
    """
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _wrap(x):
    """A kernel's loop-local number back as the Fraction it stands for."""
    if type(x) is not int:
        return x
    return _WRAPPED.get(x) or Q(x) if x else QZERO


def _quotient(x, d: int):
    """The kernel number x divided by the positive int d, as a Fraction."""
    if d == 1:
        return _wrap(x)
    if type(x) is not int:
        return x / d
    q, r = divmod(x, d)
    return Q(x, d) if r else _wrap(q)


def _wrap_all(values) -> tuple:
    # _wrap, inlined
    return tuple(
        [(_WRAPPED.get(x) or Q(x) if x else QZERO) if type(x) is int else x for x in values]
    )


def _unwrapped_nonzeros(v) -> list:
    """(index, unwrapped value) of each nonzero entry of the vector v."""
    return [
        (j, x.numerator if type(x) is Fraction and x.denominator == 1 else x)
        for j, x in enumerate(v)
        if x is not QZERO and x
    ]


def _storage_row(acc: dict, d: int = 1) -> tuple:
    """A {column: kernel number} dict as a storage row: its nonzero values
    divided by d and wrapped into Fractions, in column order."""
    if d == 1:
        # _wrap, inlined: x is nonzero
        pairs = [(j, _WRAPPED.get(x) or Q(x) if type(x) is int else x) for j, x in acc.items() if x]
    else:
        pairs = [(j, _quotient(x, d)) for j, x in acc.items() if x]
    pairs.sort()
    return tuple(pairs)


def _unwrapped_row(reached: dict, rows, k) -> list:
    """Storage row k of rows with its values unwrapped, kept in reached."""
    rk = reached[k] = [
        (j, v.numerator if type(v) is Fraction and v.denominator == 1 else v) for j, v in rows[k]
    ]
    return rk


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
    return tuple(x if type(x) is Fraction else Q(x) for x in entries)


def zero_vec(n: int) -> tuple:
    return (QZERO,) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(QONE if j == i else QZERO for j in range(n))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(c, a):
    if c == 0:
        return (QZERO,) * len(a)
    return tuple(c * x for x in a)


def vdot(a, b):
    s = 0
    for x, y in zip(a, b):
        if x is not QZERO and y is not QZERO and x and y:
            s += _unwrap(x) * _unwrap(y)
    return _wrap(s)


class Matrix:
    """Immutable sparse rational matrix: its shape and its nonzeros.

    sparse_rows holds one tuple per row of (column, value) pairs in
    increasing column order, and no value is ever zero, so equal matrices
    have equal storage and equal hashes.  data, row, col and m[i, j] are
    dense views derived from that storage on every call.
    """

    __slots__ = ("rows", "cols", "sparse_rows")

    def __init__(self, data):
        rows = [vec(row) for row in data]
        self._store(rows, len(rows[0]) if rows else 0)

    def _store(self, rows, cols: int):
        sparse = []
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
            sparse.append(tuple((j, x) for j, x in enumerate(row) if x))
        self.sparse_rows = tuple(sparse)
        self.rows = len(sparse)
        self.cols = cols

    @staticmethod
    def _of_fractions(rows, cols: int) -> "Matrix":
        """The matrix on dense rows whose entries are already Fractions.

        Internal: for results of Fraction arithmetic, which need no
        re-wrapping.  Rows must still all have length cols.
        """
        m = Matrix.__new__(Matrix)
        m._store(rows, cols)
        return m

    @staticmethod
    def _of_sparse(rows, cols: int) -> "Matrix":
        """The matrix on rows given as storage: (column, nonzero Fraction)
        pairs in increasing column order.  Internal and unchecked."""
        return Matrix._of_rows(tuple(map(tuple, rows)), cols)

    @staticmethod
    def _of_rows(rows: tuple, cols: int) -> "Matrix":
        """The matrix whose storage is the given tuple of storage rows, kept
        as it is (rows may be shared with other matrices).  Internal and
        unchecked."""
        m = Matrix.__new__(Matrix)
        m.sparse_rows = rows
        m.rows = len(rows)
        m.cols = cols
        return m

    @staticmethod
    def _of_dicts(rows, cols: int) -> "Matrix":
        """The matrix on rows given as {column: value} dicts of kernel
        numbers (ints or Fractions); zero values are dropped and the others
        wrapped into Fractions."""
        return Matrix._of_rows(tuple(map(_storage_row, rows)), cols)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._of_sparse(((),) * rows, cols)

    @staticmethod
    def _empty(cols: int) -> "Matrix":
        return Matrix._of_sparse((), cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of_sparse((((i, QONE),) for i in range(n)), n)

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
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.sparse_rows))

    def __getitem__(self, ij):
        i, j = ij
        row = self.sparse_rows[i]
        j = range(self.cols)[j]
        k = bisect_left(row, (j,))
        return row[k][1] if k < len(row) and row[k][0] == j else QZERO

    def _dense(self, pairs) -> tuple:
        out = [QZERO] * self.cols
        for j, x in pairs:
            out[j] = x
        return tuple(out)

    @property
    def data(self) -> tuple:
        """The dense rows, as a tuple of tuples."""
        return tuple(map(self._dense, self.sparse_rows))

    def row(self, i) -> tuple:
        return self._dense(self.sparse_rows[i])

    def col(self, j) -> tuple:
        return tuple(self[i, j] for i in range(self.rows))

    def _plus(self, other, sign, what):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix %s" % what)
        out = []
        for row, orow in zip(self.sparse_rows, other.sparse_rows):
            acc = dict(row)
            for j, y in orow:
                acc[j] = acc.get(j, QZERO) + sign * y
            out.append(acc)
        return Matrix._of_dicts(out, self.cols)

    def __add__(self, other):
        return self._plus(other, QONE, "addition")

    def __sub__(self, other):
        return self._plus(other, -QONE, "subtraction")

    def __neg__(self):
        return Matrix._of_sparse(
            (tuple((j, -x) for j, x in row) for row in self.sparse_rows), self.cols
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch: (%d x %d) * (%d x %d)"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        right = other.sparse_rows
        # the rows of other that some nonzero of self reaches, unwrapped once
        reached = {}
        out = []
        for row in self.sparse_rows:
            if len(row) == 1:
                # c times row k of other: that row itself when c is 1, else
                # each value times c, wrapped (one term each, so no sort)
                ((k, c),) = row
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                    if c == 1:
                        out.append(right[k])
                        continue
                out.append(
                    tuple(
                        [
                            (j, _WRAPPED.get(x) or Q(x)) if type(x := c * v) is int else (j, x)
                            for j, v in reached.get(k) or _unwrapped_row(reached, right, k)
                        ]
                    )
                )
            elif row:
                acc = {}
                for k, c in row:
                    if type(c) is Fraction and c.denominator == 1:
                        c = c.numerator
                    for j, v in reached.get(k) or _unwrapped_row(reached, right, k):
                        prev = acc.get(j)
                        acc[j] = c * v if prev is None else prev + c * v
                out.append(_storage_row(acc))
            else:
                out.append(())
        return Matrix._of_rows(tuple(out), other.cols)

    def apply(self, v) -> tuple:
        """Matrix times coordinate column, given and returned as a tuple."""
        if self.cols != len(v):
            raise ValueError("shape mismatch in matrix application")
        vals = [0] * len(v)
        for j, x in _unwrapped_nonzeros(v):
            vals[j] = x
        out = []
        for row in self.sparse_rows:
            s = 0
            for j, c in row:
                x = vals[j]
                if x:
                    s += (c.numerator if type(c) is Fraction and c.denominator == 1 else c) * x
            out.append(s)
        return _wrap_all(out)

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row:
                out[j].append((i, x))
        return Matrix._of_sparse(out, self.rows)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def flatten(self) -> tuple:
        return tuple(x for row in self.data for x in row)

    def __repr__(self):
        body = "; ".join(" ".join(qstr(x) for x in row) for row in self.data)
        return "Matrix[%s]" % body


def nonzeros(m: Matrix) -> tuple:
    """(row, column, value) of every nonzero entry of m, row by row."""
    return tuple([(i, j, x) for i, row in enumerate(m.sparse_rows) for j, x in row])


def outer_nonzeros(u, v) -> list:
    """nonzeros() of the outer product u v^t, whose (i, j) entry is u[i] v[j]."""
    vnz = _unwrapped_nonzeros(v)
    return [(i, j, _wrap(x * y)) for i, x in _unwrapped_nonzeros(u) for j, y in vnz]


def linear_combination(terms, rows: int, cols: int) -> Matrix:
    """sum c * M over (c, M) pairs, each M given by its nonzeros() triples."""
    acc = [{} for _ in range(rows)]
    for c, nz in terms:
        if c:
            c = _unwrap(c)
            for i, j, x in nz:
                row = acc[i]
                row[j] = row.get(j, 0) + c * _unwrap(x)
    return Matrix._of_dicts(acc, cols)


def vector_combination(terms, n: int) -> tuple:
    """sum c * v over (c, v) pairs of a scalar and a length-n vector."""
    acc = [0] * n
    for c, v in terms:
        if c:
            c = _unwrap(c)
            for i, x in _unwrapped_nonzeros(v):
                acc[i] += c * x
    return _wrap_all(acc)


def outer(u, v) -> Matrix:
    """The outer product u v^t: u (x) v as a tensor-square coefficient matrix."""
    return linear_combination([(QONE, outer_nonzeros(u, v))], len(u), len(v))


def _reduce(row: dict, pivots: dict) -> dict:
    """Clear the sparse row at every pivot column, in place; return it.

    pivots maps a pivot column to its row, which is zero to the left of that
    column, so eliminating columns in increasing order never refills a
    column already cleared.  A row f at a pivot 1 loses f times the pivot
    row, as the normalized bases of Subspace need.  An int row f at an int
    pivot p != 1 is cross-multiplied instead, row <- (p/g) row - (f/g)
    pivot row with g = gcd(f, p): it stays an int row, scaled by p/g.
    """
    cols = [c for c in row if c in pivots]
    heapify(cols)
    while cols:
        c = heappop(cols)
        f = row.get(c)
        if f is None:
            continue
        prow = pivots[c]
        p = prow[c]
        if p != 1:
            g = gcd(f, p)
            f //= g
            s = p // g
            if s != 1:
                for j in row:
                    row[j] *= s
        for j, x in prow.items():
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


def _integral(row: dict) -> dict:
    """The sparse row of kernel numbers times the lcm of its denominators:
    a positive multiple of it with int values."""
    dens = {x.denominator for x in row.values() if type(x) is not int}
    if not dens:
        return row
    d = lcm(*dens)
    return {
        j: x * d if type(x) is int else x.numerator * (d // x.denominator)
        for j, x in row.items()
    }


def _primitive(row: dict, c: int) -> dict:
    """The nonzero int row divided by the gcd of its values, signed so that
    it is positive at column c."""
    g = gcd(*row.values())
    if row[c] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(rows, width: int):
    """Fraction-free Gauss-Jordan elimination of sparse rows (consumed).

    Returns the canonical RREF as (pivot column, row) pairs in pivot order.
    Each incoming row is cleared of denominators; an empty row, or one equal
    to a row already seen, is skipped, since neither changes the row space.
    Any other is reduced against the int pivot rows found so far by
    cross-multiplication (_reduce), then made primitive and positive at its
    leftmost remaining column.  The pivot rows are back-eliminated the same
    way in decreasing pivot order, and each is divided by its pivot once,
    at the end.
    """
    pivots = {}
    seen = set()
    for row in rows:
        if not row:
            continue
        row = _integral(row)
        key = frozenset(row.items())
        if key in seen:
            continue
        seen.add(key)
        row = _reduce(row, pivots)
        if not row:
            continue
        c = min(row)
        pivots[c] = _primitive(row, c)
        if len(pivots) == width:
            break
    done = {}
    for c in sorted(pivots, reverse=True):
        done[c] = _primitive(_reduce(pivots[c], done), c)
    out = []
    for c in sorted(done):
        row = done[c]
        p = row[c]
        if p != 1:
            row = {j: x // p if x % p == 0 else Q(x, p) for j, x in row.items()}
        out.append((c, row))
    return out


def _row_dicts(m: Matrix) -> list:
    """The rows of m as {column: value} dicts of unwrapped kernel numbers."""
    return [{j: _unwrap(x) for j, x in row} for row in m.sparse_rows]


def _rref_of(rows, cols: int) -> Matrix:
    """The canonical RREF of sparse rows (consumed) as a Matrix."""
    return Matrix._of_dicts((row for _, row in _eliminate(rows, cols)), cols)


def rref(m: Matrix) -> Matrix:
    """Canonical reduced row-echelon form with zero rows dropped."""
    return _rref_of(_row_dicts(m), m.cols)


def rank(m: Matrix) -> int:
    return len(_eliminate(_row_dicts(m), m.cols))


def inverse(m: Matrix) -> Matrix | None:
    """Two-sided inverse of a square matrix, or None if singular."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    if n == 0:
        return Matrix._empty(0)
    red = _rref_beside_identity(m)
    if red is None:
        return None
    return Matrix._of_dicts(
        ({j - n: x for j, x in row.items() if j >= n} for _, row in red), n
    )


def _rref_beside_identity(a: Matrix):
    """The RREF pairs of [a | I], or None when a pivot falls in I, that is,
    when a has not full row rank.  Otherwise the rows restricted to a's
    columns are the RREF of a, and the I part the transform E with
    E a = rref(a)."""
    m = a.cols
    aug = _row_dicts(a)
    for i, row in enumerate(aug):
        row[m + i] = 1
    red = _eliminate(aug, m + a.rows)
    return None if red and red[-1][0] >= m else red


def right_inverse(a: Matrix):
    """(X, kernel of a) with a X = I, from one elimination of [a | I], or
    None when a has not full row rank.

    Column t of X is the particular solution of a x = e_t that solve_affine
    returns, every free variable set to zero."""
    red = _rref_beside_identity(a)
    if red is None:
        return None
    m = a.cols
    pivot_rows = dict(red)
    x = Matrix._of_dicts(
        (
            {j - m: v for j, v in pivot_rows[c].items() if j >= m} if c in pivot_rows else {}
            for c in range(m)
        ),
        a.rows,
    )
    return x, _null_space(red, m)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with index convention (i, j) -> i * dim_b + j."""
    bc = b.cols
    return Matrix._of_sparse(
        (
            tuple((i * bc + j, x * y) for i, x in arow for j, y in brow)
            for arow in a.sparse_rows
            for brow in b.sparse_rows
        ),
        a.cols * bc,
    )


def sylvester(pairs, rows: int, cols: int) -> Matrix:
    """The stacked matrix of kron(B, I_cols) - kron(I_rows, A^t) over the
    (A, B) pairs, A of size cols and B of size rows.

    With a rows x cols matrix T flattened row by row, its kernel is
    {T : B T = T A for every pair}, a commutant.  Its row (i, j) of a pair
    is B^t e_i (x) e_j - e_i (x) A e_j, so its row space is the span of the
    balanced-tensor relations x.m (x) y - x (x) m.y of a right action B^t
    and a left action A, in kron's index convention (i, j) -> i * cols + j.
    """
    i_rows, i_cols = Matrix.identity(rows), Matrix.identity(cols)
    stacked = []
    for a, b in pairs:
        stacked.extend((kron(b, i_cols) - kron(i_rows, a.transpose())).sparse_rows)
    return Matrix._of_rows(tuple(stacked), rows * cols)


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
        """The basis rows as dicts of unwrapped kernel numbers, keyed by
        pivot column, in basis order."""
        return {row[0][0]: {j: _unwrap(x) for j, x in row} for row in self.basis.sparse_rows}

    def contains(self, v) -> bool:
        v = list(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong ambient dimension")
        return self.coordinates(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether other lies inside: one row_coordinates of its basis, so
        ValueError on an ambient dimension mismatch."""
        return self.row_coordinates(other.basis) is not None

    def coordinates(self, v):
        """Coefficients of v in the stored basis, or None if v is outside."""
        row = {j: _unwrap(x) for j, x in enumerate(vec(v)) if x}
        coeffs = _wrap_all([row.get(pc, 0) for pc in self._pivot_rows])
        if _reduce(row, self._pivot_rows):
            return None
        return coeffs

    def row_coordinates(self, m: Matrix) -> Matrix | None:
        """The coordinates of each row of m in the stored basis, as the rows
        of a matrix, or None when some row lies outside; ValueError when m
        is not ambient_dim wide.

        The basis is in RREF, so a vector's coordinates are its entries at
        the pivot columns, and it lies inside iff it equals their
        combination of the basis rows."""
        if m.cols != self.ambient_dim:
            raise ValueError("matrix rows have wrong ambient dimension")
        index = {c: t for t, c in enumerate(self._pivot_rows)}
        coords = Matrix._of_rows(
            tuple(tuple((index[j], x) for j, x in row if j in index) for row in m.sparse_rows),
            self.dim,
        )
        return coords if coords * self.basis == m else None

    def restrict(self, op: Matrix) -> Matrix | None:
        """The matrix of op on the stored basis: column t holds the
        coordinates of op b_t.  None when op moves a basis vector out of
        this subspace."""
        coords = self.row_coordinates(self.basis * op.transpose())
        return None if coords is None else coords.transpose()

    @cached_property
    def free_columns(self) -> tuple:
        """The columns that hold no pivot of the stored basis, in order."""
        return tuple(c for c in range(self.ambient_dim) if c not in self._pivot_rows)

    @cached_property
    def quotient_map(self) -> Matrix:
        """The quotient map by this subspace: row u holds the quotient
        coordinates of e_u.  Read off the RREF: a free column is its own
        class, and a pivot column's class is minus its pivot row at the
        free columns."""
        index = {c: t for t, c in enumerate(self.free_columns)}
        rows = [((index[u], QONE),) if u in index else () for u in range(self.ambient_dim)]
        for row in self.basis.sparse_rows:
            rows[row[0][0]] = tuple((index[j], -x) for j, x in row if j in index)
        return Matrix._of_rows(tuple(rows), len(index))

    def quotient_coordinates(self, v) -> tuple:
        """Coordinates of the class of v in the quotient by this subspace:
        v reduced against the stored basis, read at the free columns."""
        row = _reduce({j: _unwrap(x) for j, x in enumerate(v) if x}, self._pivot_rows)
        return _wrap_all([row.get(c, 0) for c in self.free_columns])

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace(
            self.ambient_dim,
            _rref_of(_row_dicts(self.basis) + _row_dicts(other.basis), self.ambient_dim),
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus intersection: one elimination of [B1 | B1; B2 | 0].

        The rows span the pairs (u + v | u) for u in self and v in other,
        and those with a zero left half are the (0 | w) for w in the
        intersection.  In the RREF they are spanned by the rows whose pivot
        lies in the right half, and those rows, shifted left by the ambient
        dimension, already form the canonical RREF of the intersection.
        """
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(n)
        rows = []
        for row in self.basis.sparse_rows:
            doubled = {}
            for j, x in row:
                doubled[j] = doubled[n + j] = _unwrap(x)
            rows.append(doubled)
        red = _eliminate(rows + _row_dicts(other.basis), 2 * n)
        return Subspace(
            n, Matrix._of_dicts(({j - n: x for j, x in row.items()} for c, row in red if c >= n), n)
        )

    def __contains__(self, v):
        return self.contains(v)


def _null_space(red, n: int) -> Subspace:
    """Kernel of the first n columns of a reduced system, from its RREF pairs.

    Each free column f gives the vector with a 1 at f and, at each pivot
    column, minus that pivot row's entry in column f.
    """
    pivots = {c for c, _ in red}
    free = {f: {f: 1} for f in range(n) if f not in pivots}
    for pc, row in red:
        for j, x in row.items():
            if j in free:
                free[j][pc] = -x
    return Subspace(n, _rref_of(list(free.values()), n))


def kernel_of_rows(rows, n: int) -> Subspace:
    """Null space of the system whose rows (consumed) are {column: value}
    dicts of nonzero kernel numbers over the columns 0..n-1."""
    return _null_space(_eliminate(rows, n), n)


def kernel(m: Matrix) -> Subspace:
    """Null space of m (solutions of m x = 0) as a canonical subspace."""
    return kernel_of_rows(_row_dicts(m), m.cols)


def image(m: Matrix) -> Subspace:
    """Column space of m as a canonical subspace of K^rows."""
    return row_space(m.transpose())


def row_space(m: Matrix) -> Subspace:
    return Subspace(m.cols, rref(m))


def _solve(rows, n: int):
    """Eliminate the augmented rows (consumed), right-hand side at column n,
    once.

    Returns the RREF pairs and the particular solution that sets every free
    variable to zero, or None when the system has no solution.
    """
    red = _eliminate(rows, n + 1)
    if red and red[-1][0] == n:
        return None
    particular = [0] * n
    for pc, row in red:
        particular[pc] = row.get(n, 0)
    return red, _wrap_all(particular)


def _augmented(a: Matrix, b) -> list:
    """The rows of [a | b] as {column: value} dicts of kernel numbers."""
    b = vec(b)
    if a.rows != len(b):
        raise ValueError("right-hand side has wrong dimension")
    n = a.cols
    aug = _row_dicts(a)
    for row, bv in zip(aug, b):
        if bv:
            row[n] = _unwrap(bv)
    return aug


def particular_solution_of_rows(rows, n: int):
    """The particular solution of solve_affine_of_rows(rows, n), or None
    when there is none; the kernel is never built."""
    solved = _solve(rows, n)
    return None if solved is None else solved[1]


def solve_affine_of_rows(rows, n: int):
    """Solve the system whose rows (consumed) are {column: value} dicts of
    nonzero kernel numbers, the coefficients at columns 0..n-1 and the
    right-hand side at column n.

    Returns (particular, kernel_subspace) as solve_affine does, or None.
    """
    solved = _solve(rows, n)
    if solved is None:
        return None
    red, particular = solved
    # With column n not a pivot, the rows restricted to the first n columns
    # are the RREF of the coefficients.
    return particular, _null_space(red, n)


def particular_solution(a: Matrix, b):
    """The particular solution of solve_affine(a, b), or None when b is
    outside the column space; the kernel is never built."""
    return particular_solution_of_rows(_augmented(a, b), a.cols)


def solve_affine(a: Matrix, b):
    """Solve a x = b exactly.

    Returns (particular, kernel_subspace) or None when b is outside the
    column space.  The particular solution sets every free variable to zero,
    so it is deterministic.
    """
    return solve_affine_of_rows(_augmented(a, b), a.cols)


def form_inverse(q: Matrix) -> Matrix | None:
    """Inverse coefficient matrix of a nondegenerate bilinear pairing.

    For a pairing V1 x V2 -> K with Gram matrix q[i][j] against chosen bases,
    the returned p[j][k] are the coefficients of the dual tensor in V2 (x) V1
    with q.p = p.q = identity.  Returns None when the pairing is degenerate.
    """
    if not q.is_square():
        return None
    return inverse(q)
