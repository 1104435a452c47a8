"""Differential and type tests for the integer path of the exact kernels.

Matrix products and applications, linear and vector combinations, dot
products, WeakBialgebra.mul and the sparse elimination hold an integral
Fraction as its int inside their loops and wrap each output entry back into
a Fraction once, and so does WeakBialgebra._comonoidal_product over the
integer tables.  The Fraction-only bodies they had before are kept here
verbatim as oracles (only the names they call are the oracles' own), and
the shipped kernels are compared with them on integral inputs (the catalog
instances of dimension at most 9, their duals, opposites and coopposites),
on mixed inputs (seeded monomial scrambles and random entries such as 1/2
and -3/7) and on integers above 2**64.  Every stored matrix entry and every
returned scalar or vector entry must be exactly of type Fraction.
"""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from conftest import monomial_scramble
from test_kernels import SMALL, _catalog_matrices, _perturbed_pool
from weakhopf.exactlin import (
    Matrix,
    Q,
    QONE,
    QZERO,
    Subspace,
    inverse,
    linear_combination,
    nonzeros,
    particular_solution,
    rank,
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
            got = algebra._comonoidal_product(left_first)
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
