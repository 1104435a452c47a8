"""Differential oracle for the sparse Matrix storage.

exactlin.Matrix stores its shape and, per row, the nonzero (column, value)
pairs in column order.  The dense Matrix class it replaced, with nonzeros,
linear_combination, kron and rref as they were, is kept below verbatim
(its vsub and _sparse_row helpers too).  Every method of the sparse Matrix
must give the same dense data as the dense class, on the seeded matrix
sweep of test_exactlin and on the structure maps of every catalog instance
of dimension at most 9.  The storage must be canonical (columns increasing,
no zero stored), so equal matrices built by different routes have equal
hashes: core.computed_once keys on matrix values.  The dense builders of
the antipode system and the fixed-point systems are oracles as well.
"""

import random
from fractions import Fraction

import pytest

from test_exactlin import ORACLE_CASES, _random_matrix
from weakhopf import exactlin
from weakhopf.antipode import _antipode_system, _kept_convolution
from weakhopf.exactlin import Q, QONE, QZERO, _eliminate, qstr, unit_vec, vadd

# ----------------------------------------------------------------------
# oracles: the dense storage, verbatim
# ----------------------------------------------------------------------


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


class Matrix:
    """Immutable dense rational matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        # a Fraction is immutable and needs no re-wrapping
        rows = tuple(tuple(x if type(x) is Fraction else Q(x) for x in row) for row in data)
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
        # the nonzeros of each row of other, found once for the rows that
        # self's nonzeros reach
        data = other.data
        reached = {}
        out = []
        for row in self.data:
            acc = [QZERO] * other.cols
            for k, c in enumerate(row):
                if c:
                    nz = reached.get(k)
                    if nz is None:
                        nz = reached[k] = [(j, v) for j, v in enumerate(data[k]) if v]
                    for j, v in nz:
                        acc[j] += c * v
            out.append(acc)
        return Matrix._of_fractions(out, other.cols)

    def apply(self, v) -> tuple:
        """Matrix times coordinate column, given and returned as a tuple."""
        if self.cols != len(v):
            raise ValueError("shape mismatch in matrix application")
        vnz = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self.data:
            s = QZERO
            for j, x in vnz:
                c = row[j]
                if c:
                    s += c * x
            out.append(s)
        return tuple(out)

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


def linear_combination(terms, rows: int, cols: int) -> Matrix:
    """sum c * M over (c, M) pairs, each M given by its nonzeros() triples."""
    acc = [[QZERO] * cols for _ in range(rows)]
    for c, nz in terms:
        if c:
            for i, j, x in nz:
                acc[i][j] += c * x
    return Matrix._of_fractions(acc, cols)


def _sparse_row(v) -> dict:
    return {j: x for j, x in enumerate(v) if x}


def rref(m: Matrix) -> Matrix:
    """Canonical reduced row-echelon form with zero rows dropped."""
    red = _eliminate([_sparse_row(r) for r in m.data], m.cols)
    return Matrix._of_fractions(
        [[row.get(j, QZERO) for j in range(m.cols)] for _, row in red], m.cols
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


# ----------------------------------------------------------------------
# oracles: the dense builders
# ----------------------------------------------------------------------


def antipode_system(algebra):
    """Linear system in the matrix entries of S expressing both quasi-inverse
    conditions against the mixed counit projections."""
    n = algebra.dim
    p_lr = algebra.projection("L", "R")
    p_rl = algebra.projection("R", "L")
    rows = []
    rhs = []
    mult = algebra.mult
    for k in range(n):
        dk = algebra.comult[k]
        nz = nonzeros(dk)
        for u in range(n):
            line = [QZERO] * (n * n)
            for i, j, c in nz:
                mi = mult[i]
                for p in range(n):
                    w = mi[p][u]
                    if w:
                        line[p * n + j] += c * w
            rows.append(line)
            rhs.append(p_lr[u, k])
        for u in range(n):
            line = [QZERO] * (n * n)
            for i, j, c in nz:
                for p in range(n):
                    w = mult[p][j][u]
                    if w:
                        line[p * n + i] += c * w
            rows.append(line)
            rhs.append(p_rl[u, k])
    return exactlin.Matrix._of_fractions(rows, n * n), tuple(rhs)


def fixed_point_systems(self):
    """The four fixed-point systems, built densely; their kernels are the
    fixed-point subalgebras."""
    n = self.dim
    mult = self.mult
    base = [[self.comult[k][i, j] for k in range(n)] for i in range(n) for j in range(n)]
    rows_ll, rows_lr, rows_rl, rows_rr = ([list(r) for r in base] for _ in range(4))
    for u, v, c in nonzeros(self.delta1):
        for k in range(n):
            for i, w in enumerate(mult[k][u]):
                if w:
                    rows_ll[i * n + v][k] -= c * w
            for i, w in enumerate(mult[u][k]):
                if w:
                    rows_lr[i * n + v][k] -= c * w
            for j, w in enumerate(mult[k][v]):
                if w:
                    rows_rl[u * n + j][k] -= c * w
            for j, w in enumerate(mult[v][k]):
                if w:
                    rows_rr[u * n + j][k] -= c * w
    return {
        ("L", "L"): exactlin.Matrix._of_fractions(rows_ll, n),
        ("L", "R"): exactlin.Matrix._of_fractions(rows_lr, n),
        ("R", "L"): exactlin.Matrix._of_fractions(rows_rl, n),
        ("R", "R"): exactlin.Matrix._of_fractions(rows_rr, n),
    }


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------


def _dense(m):
    """The dense oracle matrix with the entries of the sparse matrix m."""
    return Matrix._of_fractions(m.data, m.cols)


def _assert_canonical(m):
    assert len(m.sparse_rows) == m.rows
    for row in m.sparse_rows:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)
        assert all(type(x) is Fraction and x != 0 for _, x in row)


def _assert_same(m, d):
    """Sparse m and dense d hold the same matrix, read through every view."""
    _assert_canonical(m)
    assert (m.rows, m.cols, m.data) == (d.rows, d.cols, d.data)
    assert all(m.row(i) == d.row(i) for i in range(m.rows))
    assert all(m.col(j) == d.col(j) for j in range(m.cols))
    assert all(m[i, j] == d[i, j] for i in range(m.rows) for j in range(m.cols))
    assert exactlin.nonzeros(m) == nonzeros(d)
    assert (m.flatten(), m.is_zero(), repr(m)) == (d.flatten(), d.is_zero(), repr(d))


def _random_vector(rng, n):
    return tuple(
        Q(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.6 else QZERO for _ in range(n)
    )


def _check_methods(m, rng):
    """Every method of m against the dense oracle, with random partners."""
    d = _dense(m)
    _assert_same(m, d)
    _assert_same(exactlin.Matrix(d.data), Matrix(d.data))
    _assert_same(m.transpose(), d.transpose())
    _assert_same(-m, -d)
    _assert_same(exactlin.rref(m), rref(d))
    other = _random_matrix(rng, m.rows, m.cols, 0.4)
    _assert_same(m + other, d + _dense(other))
    _assert_same(m - other, d - _dense(other))
    _assert_same(m - m, d - d)
    right = _random_matrix(rng, m.cols, rng.randint(0, 5), 0.4)
    _assert_same(m * right, d * _dense(right))
    left = _random_matrix(rng, rng.randint(1, 5), m.rows, 0.4) if m.rows else None
    if left is not None:
        _assert_same(left * m, _dense(left) * d)
    v = _random_vector(rng, m.cols)
    assert m.apply(v) == d.apply(v)
    small = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 0.6)
    _assert_same(exactlin.kron(m, small), kron(d, _dense(small)))
    _assert_same(exactlin.kron(small, m), kron(_dense(small), d))
    coeffs = [Q(rng.randint(-2, 2)) for _ in range(3)]
    mats = [m, other, m - other]
    _assert_same(
        exactlin.linear_combination(
            [(c, exactlin.nonzeros(x)) for c, x in zip(coeffs, mats)], m.rows, m.cols
        ),
        linear_combination(
            [(c, nonzeros(_dense(x))) for c, x in zip(coeffs, mats)], m.rows, m.cols
        ),
    )


@pytest.mark.parametrize(
    "index", range(len(ORACLE_CASES)), ids=["%s-%d" % (k, i) for i, (k, _) in enumerate(ORACLE_CASES)]
)
def test_sparse_storage_matches_dense_oracle(index):
    _check_methods(ORACLE_CASES[index][1], random.Random("storage:%d" % index))


def _structure_maps(algebra):
    out = list(algebra.comult) + list(algebra.left_mult) + list(algebra.right_mult)
    out += [algebra.gram, algebra.delta1, algebra.center.basis]
    out += list(algebra.projections.values()) + list(algebra.eps_maps.values())
    return out + [space.basis for space in algebra.subspaces.values()]


def test_catalog_structure_maps_match_dense_oracle(entries):
    names = sorted(name for name, e in entries.items() if e.algebra.dim <= 9)
    assert len(names) >= 12
    for name in names:
        algebra = entries[name].algebra
        rng = random.Random("catalog:" + name)
        n = algebra.dim
        mult = algebra.mult
        for i in range(n):
            assert algebra.left_mult[i].data == tuple(
                tuple(mult[i][j][k] for j in range(n)) for k in range(n)
            )
            assert algebra.right_mult[i].data == tuple(
                tuple(mult[j][i][k] for j in range(n)) for k in range(n)
            )
            assert algebra.dual.comult[i].data == tuple(
                tuple(mult[j][k][i] for k in range(n)) for j in range(n)
            )
        maps = _structure_maps(algebra)
        for m in maps:
            _check_methods(m, rng)
        for a in maps[:: max(1, len(maps) // 8)]:
            for b in maps[:: max(1, len(maps) // 8)]:
                if a.cols == b.rows:
                    _assert_same(a * b, _dense(a) * _dense(b))
        systems = fixed_point_systems(algebra)
        for key, space in algebra.fixed_point_subalgebras.items():
            assert space == exactlin.kernel(systems[key])
        if algebra.is_valid:
            assert _antipode_system(algebra) == antipode_system(algebra)


def test_equal_matrices_from_different_routes_hash_equal():
    rng = random.Random(4242)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, r, c, 0.5)
        routes = [
            m,
            exactlin.Matrix([[int(x) if x.denominator == 1 else x for x in row] for row in m.data]),
            exactlin.Matrix._of_fractions(m.data, c),
            m * exactlin.Matrix.identity(c),
            exactlin.Matrix.identity(r) * m,
            (m + m) - m,
            m.transpose().transpose(),
            -(-m),
            exactlin.linear_combination([(Q(1, 2), exactlin.nonzeros(m + m))], r, c),
        ]
        zeros = [
            exactlin.Matrix.zero(r, c),
            m - m,
            m + -m,
            exactlin.Matrix([[0] * c] * r),
            exactlin.linear_combination(
                [(QONE, exactlin.nonzeros(m)), (-QONE, exactlin.nonzeros(m))], r, c
            ),
            m * exactlin.Matrix.zero(c, c),
            exactlin.Matrix.zero(c, r).transpose(),
        ]
        for group in (routes, zeros):
            for x in group:
                _assert_canonical(x)
                assert x == group[0] and hash(x) == hash(group[0])
        assert all(not x.sparse_rows[i] for x in zeros for i in range(r))


def test_kept_verdicts_are_shared_by_equal_matrices(entries):
    algebra = entries["bsz-dual:2"].algebra
    n = algebra.dim
    ident = exactlin.Matrix.identity(n)
    s = algebra.projection("L", "R")
    first = _kept_convolution(algebra, ident, s)
    again = _kept_convolution(algebra, ident * ident, (s + s) - s)
    assert again is first
    kept = algebra.__dict__["_once_weakhopf.antipode._kept_convolution"]
    assert sum(1 for key in kept if key[1] == s) == 1
