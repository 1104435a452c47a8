"""Differential and type tests for the integer path of the exact kernels.

Matrix products and applications, linear and vector combinations, dot
products, WeakBialgebra.mul and the sparse elimination hold an integral
Fraction as its int inside their loops and wrap each output entry back into
a Fraction once, and so do the dual's counit forms over the integer tables,
which hold the comonoidal products (Delta(1) (x) 1)(1 (x) Delta(1)).
The Fraction-only bodies they had before are kept here
verbatim as oracles (only the names they call are the oracles' own), and
the shipped kernels are compared with them on integral inputs (the catalog
instances of dimension at most 9, their duals, opposites and coopposites),
on mixed inputs (seeded monomial scrambles and random entries such as 1/2
and -3/7) and on integers above 2**64.  Every stored matrix entry and every
returned scalar or vector entry must be exactly of type Fraction.

The later rewrites keep their replaced bodies here too: the Fraction-table
t2_mul and delta_at, the Fraction-subtraction fixed-point systems, the
mul-per-pair transport, the Fraction outer_nonzeros, and the kernel-based
Subspace.intersect that the single Zassenhaus elimination replaced.  Matrix products whose left factor
is rich in empty and single-nonzero rows, which Matrix.__mul__ now copies
or scales directly, are compared with the matrix_mul oracle.
"""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from conftest import monomial_scramble
from test_kernels import SMALL, _catalog_matrices, _perturbed_pool
from test_stacked_operator_oracles import _comonoidal_form
from weakhopf.core import AlgebraDataError, WeakBialgebra, _t2_terms, transport
from weakhopf.exactlin import (
    Matrix,
    Q,
    QONE,
    QZERO,
    Subspace,
    inverse,
    kernel,
    linear_combination,
    nonzeros,
    outer_nonzeros,
    particular_solution,
    rank,
    row_space,
    rref,
    solve_affine,
    vdot,
    vector_combination,
)

BIG = 2**64

# ----------------------------------------------------------------------
# oracles: the Fraction-only kernel bodies (self is the algebra for mul,
# the matrix for matrix_mul and matrix_apply, the subspace for coordinates)
# ----------------------------------------------------------------------


def mul(self, a, b):
    acc = [QZERO] * self.dim
    table = self._mult_nonzeros
    bnz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            row = table[i]
            for j, y in bnz:
                xy = x * y
                for k, c in row[j]:
                    acc[k] += xy * c
    return tuple(acc)


def of_dicts(rows, cols: int) -> Matrix:
    return Matrix._of_sparse(
        [tuple(sorted([p for p in row.items() if p[1]])) for row in rows], cols
    )


def matrix_mul(self, other):
    right = other.sparse_rows
    out = []
    for row in self.sparse_rows:
        acc = {}
        for k, c in row:
            for j, v in right[k]:
                prev = acc.get(j)
                acc[j] = c * v if prev is None else prev + c * v
        out.append(acc)
    return of_dicts(out, other.cols)


def matrix_apply(self, v) -> tuple:
    out = []
    for row in self.sparse_rows:
        s = QZERO
        for j, c in row:
            x = v[j]
            if x:
                s += c * x
        out.append(s)
    return tuple(out)


def oracle_vdot(a, b):
    s = QZERO
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


def oracle_linear_combination(terms, rows: int, cols: int) -> Matrix:
    acc = [{} for _ in range(rows)]
    for c, nz in terms:
        if c:
            for i, j, x in nz:
                row = acc[i]
                # starting from QZERO keeps int input out of the storage
                row[j] = row.get(j, QZERO) + c * x
    return of_dicts(acc, cols)


def oracle_vector_combination(terms, n: int) -> tuple:
    acc = [QZERO] * n
    for c, v in terms:
        if c:
            for i, x in enumerate(v):
                if x:
                    acc[i] += c * x
    return tuple(acc)


def _reduce(row: dict, pivots: dict) -> dict:
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


def _row_dicts(m: Matrix) -> list:
    return [dict(row) for row in m.sparse_rows]


def _rref_of(rows, cols: int) -> Matrix:
    return of_dicts((row for _, row in _eliminate(rows, cols)), cols)


def oracle_rref(m: Matrix) -> Matrix:
    return _rref_of(_row_dicts(m), m.cols)


def oracle_inverse(m: Matrix):
    n = m.rows
    if n == 0:
        return Matrix._empty(0)
    aug = _row_dicts(m)
    for i, row in enumerate(aug):
        row[n + i] = QONE
    red = _eliminate(aug, 2 * n)
    if [c for c, _ in red] != list(range(n)):
        return None
    return of_dicts(({j - n: x for j, x in row.items() if j >= n} for _, row in red), n)


def _null_space(red, n: int) -> Subspace:
    pivots = {c for c, _ in red}
    free = {f: {f: QONE} for f in range(n) if f not in pivots}
    for pc, row in red:
        for j, x in row.items():
            if j in free:
                free[j][pc] = -x
    return Subspace(n, _rref_of(list(free.values()), n))


def oracle_solve_affine(a: Matrix, b):
    b = tuple(b)
    n = a.cols
    aug = _row_dicts(a)
    for row, bv in zip(aug, b):
        if bv:
            row[n] = bv
    red = _eliminate(aug, n + 1)
    if red and red[-1][0] == n:
        return None
    particular = [QZERO] * n
    for pc, row in red:
        particular[pc] = row.get(n, QZERO)
    return tuple(particular), _null_space(red, n)


def comonoidal_product(self, left_first: bool):
    """(Delta(1) (x) 1)(1 (x) Delta(1)) or the reversed order, as a dict.

    Kept per instance and order; callers only read it."""
    table = self._mult_nonzeros
    out = {}
    nz = nonzeros(self.delta1)
    for u, v, c in nz:
        for up, vp, cp in nz:
            # left_first: legs (u, v up, vp); else legs (up, u vp, v)
            if left_first:
                head, mid, tail = u, table[v][up], vp
            else:
                head, mid, tail = up, table[u][vp], v
            cc = c * cp
            for w, mw in mid:
                key = (head, w, tail)
                val = out.get(key, QZERO) + cc * mw
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
    return out


def coordinates(self, v):
    pivot_rows = {row[0][0]: dict(row) for row in self.basis.sparse_rows}
    row = {j: x for j, x in enumerate(v) if x}
    coeffs = tuple(row.get(pc, QZERO) for pc in pivot_rows)
    if _reduce(row, pivot_rows):
        return None
    return coeffs


def oracle_intersect(self, other):
    """Zassenhaus-style intersection via the kernel of [B1; B2] stacking."""
    if self.ambient_dim != other.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if self.dim == 0 or other.dim == 0:
        return Subspace.zero(self.ambient_dim)
    # Solve x*B1 = y*B2: kernel of the matrix [B1^t | -B2^t]; the
    # intersection is spanned by the x*B1.
    d = self.dim
    b1t = self.basis.transpose().sparse_rows
    b2t = other.basis.transpose().sparse_rows
    stacked = Matrix._of_sparse(
        (r1 + tuple((d + j, -x) for j, x in r2) for r1, r2 in zip(b1t, b2t)),
        d + other.dim,
    )
    padded = Matrix._of_sparse(
        self.basis.sparse_rows + ((),) * other.dim, self.ambient_dim
    )
    return row_space(kernel(stacked).basis * padded)


def t2_mul(self, X: Matrix, Y: Matrix) -> Matrix:
    rows = [{} for _ in range(self.dim)]
    for (u, v), x in _t2_terms(self._mult_nonzeros, nonzeros(X), nonzeros(Y)).items():
        rows[u][v] = x
    return of_dicts(rows, self.dim)


def delta_at(self, tensor, leg):
    """Apply the coproduct to one leg of a sparse tensor {legs: coefficient}."""
    out = {}
    for key, c in tensor.items():
        head, tail = key[:leg], key[leg + 1 :]
        for i, j, e in nonzeros(self.comult[key[leg]]):
            new = head + (i, j) + tail
            val = c * e
            prev = out.get(new)
            if prev is not None:
                val += prev
            if val:
                out[new] = val
            elif prev is not None:
                del out[new]
    return out


def fixed_point_subalgebras(self):
    """Kernel presentations of the four fixed-point subalgebras."""
    n = self.dim
    table = self._mult_nonzeros
    # Row (i, j), column k: the coefficient of e_i (x) e_j in Delta(e_k)
    # minus a product term that sums over Delta(1), so only the nonzero
    # entries of Delta(1) contribute.
    base = [{} for _ in range(n * n)]
    for k, m in enumerate(self.comult):
        for i, j, c in nonzeros(m):
            base[i * n + j][k] = c
    rows_ll, rows_lr, rows_rl, rows_rr = ([dict(r) for r in base] for _ in range(4))

    def sub(row, k, x):
        row[k] = row.get(k, QZERO) - x

    for u, v, c in nonzeros(self.delta1):
        for k in range(n):
            for i, w in table[k][u]:
                sub(rows_ll[i * n + v], k, c * w)
            for i, w in table[u][k]:
                sub(rows_lr[i * n + v], k, c * w)
            for j, w in table[k][v]:
                sub(rows_rl[u * n + j], k, c * w)
            for j, w in table[v][k]:
                sub(rows_rr[u * n + j], k, c * w)
    return {
        ("L", "L"): kernel(Matrix._of_dicts(rows_ll, n)),
        ("L", "R"): kernel(Matrix._of_dicts(rows_lr, n)),
        ("R", "L"): kernel(Matrix._of_dicts(rows_rl, n)),
        ("R", "R"): kernel(Matrix._of_dicts(rows_rr, n)),
    }


def oracle_outer_nonzeros(u, v) -> list:
    """nonzeros() of the outer product u v^t, whose (i, j) entry is u[i] v[j]."""
    vnz = [(j, y) for j, y in enumerate(v) if y]
    return [(i, j, x * y) for i, x in enumerate(u) if x for j, y in vnz]


def oracle_transport(algebra: WeakBialgebra, t: Matrix) -> WeakBialgebra:
    """Rewrite the presentation in the basis whose vectors are the columns of t."""
    n = algebra.dim
    tinv = inverse(t)
    if tinv is None:
        raise AlgebraDataError("basis-change matrix is singular")
    cols = [t.col(i) for i in range(n)]
    mult = [
        [list(tinv.apply(algebra.mul(cols[i], cols[j]))) for j in range(n)]
        for i in range(n)
    ]
    comult = [tinv * algebra.delta(cols[k]) * tinv.transpose() for k in range(n)]
    unit = tinv.apply(algebra.unit)
    counit = [algebra.eps(cols[k]) for k in range(n)]
    return WeakBialgebra(n, mult, unit, comult, counit, labels=algebra.labels)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def _fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


def _stored_fractions(m: Matrix) -> bool:
    return _fractions(x for row in m.sparse_rows for _, x in row)


def _records(algebra, name):
    """The instance, its dual, opposite and coopposite, and two seeded
    monomial scrambles."""
    rng = random.Random("integer-path:" + name)
    variants = [algebra, algebra.dual, algebra.opposite, algebra.coopposite]
    return variants + [monomial_scramble(algebra, rng) for _ in range(2)]


def _scalar(rng, kind):
    if kind == "mixed":
        return rng.choice([Q(1, 2), Q(-3, 7), Q(2), Q(-1), Q(5, 3)])
    if kind == "big":
        return rng.choice([Q(BIG + 13), Q(-(2**70) - 3), Q(2**65 + 1, 7), Q(BIG, 3), Q(1)])
    return Q(rng.randint(-3, 3) or 1)


def _vector(rng, n, kind, density=0.5):
    return tuple(_scalar(rng, kind) if rng.random() < density else QZERO for _ in range(n))


def _matrix(rng, rows, cols, kind, density=0.5):
    return Matrix([_vector(rng, cols, kind, density) for _ in range(rows)])


KINDS = ("integral", "mixed", "big")


def _check_elimination(m, b, v):
    """The shipped elimination entry points against the oracles on m, with
    right-hand side b and, for coordinates, the vector v of length m.cols."""
    red = rref(m)
    assert red == oracle_rref(m)
    assert _stored_fractions(red)
    assert rank(m) == red.rows
    if m.is_square():
        inv = inverse(m)
        assert inv == oracle_inverse(m)
        if inv is not None:
            assert _stored_fractions(inv)
    got = solve_affine(m, b)
    want = oracle_solve_affine(m, b)
    assert got == want
    if got is not None:
        assert _fractions(got[0])
        assert _stored_fractions(got[1].basis)
    assert particular_solution(m, b) == (None if want is None else want[0])
    space = Subspace(m.cols, red)
    for x in list(red.data) + [v]:
        got = space.coordinates(x)
        assert got == coordinates(space, x)
        if got is not None:
            assert _fractions(got)


def _check_products(a, b, v, w):
    """Products, applications and combinations against the oracles."""
    prod = a * b
    assert prod == matrix_mul(a, b)
    assert _stored_fractions(prod)
    got = a.apply(v)
    assert got == matrix_apply(a, v)
    assert _fractions(got)
    got = vdot(v, w)
    assert got == oracle_vdot(v, w)
    assert type(got) is Fraction
    terms = [(v[0] or QONE, nonzeros(a)), (w[-1] or Q(-3, 7), nonzeros(b.transpose()))]
    got = linear_combination(terms, a.rows, a.cols)
    assert got == oracle_linear_combination(terms, a.rows, a.cols)
    assert _stored_fractions(got)
    vterms = [(c, row) for c, row in zip(w, a.data)]
    got = vector_combination(vterms, a.cols)
    assert got == oracle_vector_combination(vterms, a.cols)
    assert _fractions(got)


# ----------------------------------------------------------------------
# the shipped kernels against the oracles
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_catalog_kernels_match_fraction_oracles(entries, name):
    rng = random.Random("integer-path-catalog:" + name)
    for algebra in _records(entries[name].algebra, name):
        n = algebra.dim
        basis = [algebra.basis_vector(i) for i in range(n)]
        vectors = [algebra.unit, algebra.counit, basis[-1]]
        vectors += [_vector(rng, n, kind) for kind in KINDS]
        for x in basis + vectors:
            for y in vectors:
                got = algebra.mul(x, y)
                assert got == mul(algebra, x, y)
                assert _fractions(got)
        matrices = _catalog_matrices(algebra)
        for a in matrices:
            _check_elimination(a, vectors[-1], vectors[-2])
            for b in matrices:
                _check_products(a, b, vectors[-2], vectors[-1])


def test_comonoidal_product_matches_fraction_oracle(entries):
    pool = [a for name in SMALL for a in _records(entries[name].algebra, name)]
    scaled = False
    for algebra in pool + _perturbed_pool(entries):
        for left_first in (True, False):
            got = _comonoidal_form(algebra, left_first)
            assert got == comonoidal_product(algebra, left_first)
            assert _fractions(got.values()) and all(got.values())
            scaled = scaled or any(x.denominator > 1 for x in got.values())
    # some entry is a sum divided by d^2 D_m > 1
    assert scaled


@pytest.mark.parametrize("kind", KINDS)
def test_random_kernels_match_fraction_oracles(kind):
    rng = random.Random("integer-path-random:" + kind)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        density = rng.choice([0.3, 0.6, 1.0])
        a = _matrix(rng, n, m, kind, density)
        b = _matrix(rng, m, n, kind, density)
        _check_products(a, b, _vector(rng, m, kind), _vector(rng, n, kind))
        _check_elimination(a, _vector(rng, n, kind), _vector(rng, m, kind))
        square = _matrix(rng, n, n, kind, density)
        _check_elimination(square, _vector(rng, n, kind), _vector(rng, n, kind))


def test_big_integer_entries_stay_exact():
    # 2**64 + 1 and its neighbours do not survive a float round trip
    a = Matrix([[BIG + 1, 1], [BIG, 1]])
    inv = inverse(a)
    assert inv == oracle_inverse(a) == Matrix([[1, -1], [-BIG, BIG + 1]])
    assert _stored_fractions(inv)
    assert a * inv == Matrix.identity(2)
    x = particular_solution(a, (BIG + 2, BIG + 1))
    assert x == (Q(1), Q(1)) and _fractions(x)
    got = vdot((Q(BIG + 1), Q(1, 3)), (Q(BIG - 1), Q(3)))
    assert got == Q(BIG * BIG) and type(got) is Fraction


def test_kernels_wrap_plain_int_input():
    # the kernels take plain ints too and still return Fractions only
    a = Matrix([[1, 2], [0, 3]])
    for got in (a.apply((1, 2)), vector_combination([(2, (1, 0)), (1, (0, 300))], 2)):
        assert _fractions(got)
    assert type(vdot((1, 2), (3, 4))) is Fraction
    m = linear_combination([(2, [(0, 0, 300)]), (1, [(1, 1, -7)])], 2, 2)
    assert m == Matrix([[600, 0], [0, -7]]) and _stored_fractions(m)
    sol = solve_affine(Matrix([[1, 0], [0, 1]]), (1, 2))
    assert sol[0] == (1, 2) and _fractions(sol[0])
    assert _fractions(Subspace.from_spanning([(1, 0, 0)], 3).coordinates((2, 0, 0)))


def test_particular_solution_is_solve_affine_without_the_kernel():
    rng = random.Random("integer-path-particular")
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _matrix(rng, rows, cols, rng.choice(KINDS), 0.5)
        b = _vector(rng, rows, "mixed", 0.7)
        sol = solve_affine(a, b)
        assert particular_solution(a, b) == (None if sol is None else sol[0])
    with pytest.raises(ValueError):
        particular_solution(Matrix([[1, 0]]), (1, 2))


# ----------------------------------------------------------------------
# direct-row products, the one-elimination intersection and the
# integer-table t2_mul, delta_at, fixed-point systems and transport
# ----------------------------------------------------------------------

# 1, -1, 1/2 and integers above 2**64, integral and not
SPARSE_VALUES = (QONE, Q(-1), Q(1, 2), Q(BIG + 3), Q(-5 * BIG - 1), Q(BIG + 1, 2))


def _canonical(m: Matrix) -> bool:
    """Storage as a matrix stores it: a tuple of rows, each a tuple of
    (column, nonzero Fraction) pairs in increasing column order."""
    return type(m.sparse_rows) is tuple and all(
        type(row) is tuple
        and all(type(x) is Fraction and x for _, x in row)
        and [j for j, _ in row] == sorted({j for j, _ in row})
        for row in m.sparse_rows
    )


def _single_row_matrix(rng, rows, cols):
    """Mostly empty and single-nonzero rows over SPARSE_VALUES, some
    denser ones."""
    out = []
    for _ in range(rows):
        row = [QZERO] * cols
        kind = rng.random()
        if cols and kind >= 0.35:
            for j in rng.sample(range(cols), 1 if kind < 0.8 else min(cols, 3)):
                row[j] = rng.choice(SPARSE_VALUES)
        out.append(row)
    return Matrix.from_rows(out, cols)


def test_products_of_empty_and_single_nonzero_rows_match_oracle():
    rng = random.Random("integer-path-single-rows")
    shared = scaled = 0
    for _ in range(150):
        n, m, p = (rng.randint(0, 6) for _ in range(3))
        a = _single_row_matrix(rng, n, m)
        b = _single_row_matrix(rng, m, p)
        prod = a * b
        assert prod == matrix_mul(a, b)
        assert (prod.rows, prod.cols) == (n, p)
        assert _canonical(prod)
        for row, got in zip(a.sparse_rows, prod.sparse_rows):
            if len(row) == 1 and row[0][1] == 1:
                # a row c e_k with c = 1 is row k of the right factor itself
                assert got is b.sparse_rows[row[0][0]]
                shared += 1
            elif len(row) == 1 and b.sparse_rows[row[0][0]]:
                scaled += 1
    assert shared and scaled


def _subspace_pairs(rng, n):
    """Random subspaces of K^n paired with the zero and the full space, with
    themselves, with a complement, and with a random subspace sharing some
    of their spanning vectors."""
    kind = rng.choice(("integral", "mixed", "big"))
    spanning = [_vector(rng, n, kind, 0.6) for _ in range(n)]
    k = rng.randint(0, n)
    u = Subspace.from_spanning(spanning[:k], n)
    complement = Subspace.from_spanning(spanning[k:], n)
    overlap = Subspace.from_spanning(
        spanning[: rng.randint(0, k)] + [_vector(rng, n, kind) for _ in range(rng.randint(0, 2))], n
    )
    other = Subspace.from_spanning([_vector(rng, n, kind, 0.4) for _ in range(rng.randint(0, n))], n)
    return [(u, v) for v in (Subspace.zero(n), Subspace.full(n), u, complement, overlap, other)]


def test_intersect_matches_kernel_oracle():
    rng = random.Random("integer-path-intersect")
    dims = set()
    for _ in range(60):
        n = rng.randint(1, 7)
        for u, v in _subspace_pairs(rng, n):
            for a, b in ((u, v), (v, u)):
                got = a.intersect(b)
                assert got == oracle_intersect(a, b)
                assert got == b.intersect(a)
                assert _canonical(got.basis) and got == row_space(got.basis)
                assert a.dim + b.dim == a.add(b).dim + got.dim
                assert a.contains_subspace(got) and b.contains_subspace(got)
                dims.add((a.dim, b.dim, got.dim))
    # disjoint, partial and total overlaps all occur
    assert any(c == 0 < a and b > 0 for a, b, c in dims)
    assert any(0 < c < min(a, b) for a, b, c in dims)
    assert any(0 < c == a == b for a, b, c in dims)
    with pytest.raises(ValueError):
        Subspace.full(2).intersect(Subspace.full(3))


def _integer_path_pool(entries):
    pool = [a for name in SMALL for a in _records(entries[name].algebra, name)]
    return pool + _perturbed_pool(entries)[::3]


def test_t2_mul_and_delta_at_match_fraction_oracles(entries):
    rng = random.Random("integer-path-t2")
    scaled = False
    for algebra in _integer_path_pool(entries):
        n = algebra.dim
        tables = algebra._integer_tables
        scaled = scaled or tables.d_mult > 1 and tables.d_comult > 1
        mats = [algebra.delta1, algebra.comult[-1]]
        mats += [_matrix(rng, n, n, kind, 0.4) for kind in KINDS]
        for x in mats:
            for y in mats[::2]:
                got = algebra.t2_mul(x, y)
                assert got == t2_mul(algebra, x, y)
                assert _canonical(got)
        tensors = [{(i,): c for i, c in enumerate(_vector(rng, n, kind)) if c} for kind in KINDS]
        tensors.append({(0, n - 1): Q(1, 2), (n - 1, 0): Q(BIG + 1), (0, 0): Q(-3, 7)})
        for tensor in tensors:
            for leg in range(len(next(iter(tensor), (0,)))):
                got = algebra.delta_at(tensor, leg)
                assert got == delta_at(algebra, tensor, leg)
                assert _fractions(got.values()) and all(got.values())
    # some instance divides by both cleared denominators
    assert scaled


def test_fixed_point_systems_match_fraction_oracle(entries):
    scaled = False
    for algebra in _integer_path_pool(entries):
        assert algebra.fixed_point_subalgebras == fixed_point_subalgebras(algebra)
        tables = algebra._integer_tables
        d1 = {x.denominator for _, _, x in nonzeros(algebra.delta1)}
        scaled = scaled or tables.d_mult * tables.d_comult > 1 and d1 != {1}
    # some system is scaled by every factor
    assert scaled


def test_transport_matches_mul_per_pair_oracle(entries):
    """On the catalog instances of dimension at most 6 and their duals, and
    on a monomial scramble of each, with a random dense rational basis
    change and a random monomial one."""
    rng = random.Random("integer-path-transport")
    for name in SMALL:
        algebra = entries[name].algebra
        if algebra.dim > 6:
            continue
        n = algebra.dim
        for base in (algebra, algebra.dual):
            for a in (base, monomial_scramble(base, rng)):
                while True:
                    t = Matrix([[Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
                    if rank(t) == n:
                        break
                perm = rng.sample(range(n), n)
                monomial = Matrix([[Q(-1, 2) if perm[i] == j else 0 for j in range(n)] for i in range(n)])
                for m in (t, monomial):
                    got = transport(a, m)
                    assert got == oracle_transport(a, m)
                    assert got.labels == a.labels
                    assert all(_fractions(ij) for row in got.mult for ij in row)
    with pytest.raises(AlgebraDataError):
        transport(entries["group:z2"].algebra, Matrix([[1, 1], [1, 1]]))


def test_outer_nonzeros_matches_fraction_oracle():
    rng = random.Random("integer-path-outer")
    for _ in range(60):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        kinds = [rng.choice(KINDS) for _ in range(2)]
        u, v = _vector(rng, n, kinds[0]), _vector(rng, m, kinds[1])
        got = outer_nonzeros(u, v)
        assert got == oracle_outer_nonzeros(u, v)
        assert _fractions(x for _, _, x in got) and all(x for _, _, x in got)
    got = outer_nonzeros((0, 2, -1), (3, 0, BIG))
    assert got == [(1, 0, 6), (1, 2, 2 * BIG), (2, 0, -3), (2, 2, -BIG)]
    assert _fractions(x for _, _, x in got)
