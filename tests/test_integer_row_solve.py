"""Differential tests for the int-row solves and the row skipping in the
elimination.

The antipode system and the four fixed-point systems are summed as ints
over the integer tables and eliminated as int rows (_antipode_rows,
kernel_of_rows), without a Matrix of Fractions in between.  The Matrix
routes they replaced, the Fraction-wrapped _antipode_system solved by
particular_solution and solve_affine and the fixed-point systems wrapped by
Matrix._of_dicts before kernel, are kept here verbatim as oracles.  The
inputs are the catalog instances of dimension at most 9 with their duals,
opposites and coopposites, six seeded monomial transports with
non-integral scales (so the projections, and with them the right-hand
sides, carry denominators), adcross:s3,a3 and adcross:z8,z4.

The elimination skips empty rows and rows equal to one it has already
seen, right-hand-side column included.  Seeded rational systems with
repeated, scaled, negated and empty rows, shuffled, are checked against the
dense oracles of test_exactlin, and a system with two rows that share their
coefficients but not their right-hand side must have no solution.
"""

import random
from fractions import Fraction

import pytest

from test_exactlin import dense_kernel, dense_rref, dense_solve_affine
from weakhopf import exactlin
from weakhopf.antipode import _antipode_rows, _antipode_system, antipode_solution_space
from weakhopf.constructions import catalog, catalog_names
from weakhopf.core import _cleared, _denominator_lcm, transport
from weakhopf.exactlin import (
    Matrix,
    Q,
    _quotient,
    kernel,
    kernel_of_rows,
    nonzeros,
    particular_solution,
    particular_solution_of_rows,
    rank,
    rref,
    solve_affine,
    solve_affine_of_rows,
)

# ----------------------------------------------------------------------
# oracles: the Matrix routes as they were
# ----------------------------------------------------------------------


def matrix_antipode_system(algebra):
    """Linear system in the matrix entries of S expressing both quasi-inverse
    conditions against the mixed counit projections.

    The rows are summed over the integer tables and wrapped once, each entry
    divided by D_m D_c; equal entries share one Fraction."""
    n = algebra.dim
    lr_cols = algebra.projection("L", "R").transpose().data
    rl_cols = algebra.projection("R", "L").transpose().data
    tables = algebra._integer_tables
    # left[i] lists the nonzero (p, u, w): w is the e_u-coefficient of
    # e_i e_p; right[j] those of e_p e_j.  The unknown S[p][j] has index
    # p * n + j
    left = [[] for _ in range(n)]
    right = [[] for _ in range(n)]
    for i, row in enumerate(tables.mult):
        for p, ip in enumerate(row):
            for u, w in ip:
                left[i].append((p, u, w))
                right[p].append((i, u, w))
    d = tables.d_mult * tables.d_comult
    quotients = {}  # one Fraction per distinct entry of the whole system

    def quotient(x):
        q = quotients.get(x)
        if q is None:
            q = quotients[x] = _quotient(x, d)
        return q

    def stored(line):
        return tuple(sorted((col, quotient(x)) for col, x in line.items() if x))

    rows = []
    rhs = []
    for k, nz in enumerate(tables.comult):
        # e_i S(e_j) over Delta(e_k), then S(e_i) e_j
        first = [{} for _ in range(n)]
        second = [{} for _ in range(n)]
        for i, j, c in nz:
            for p, u, w in left[i]:
                line = first[u]
                col = p * n + j
                line[col] = line.get(col, 0) + c * w
            for p, u, w in right[j]:
                line = second[u]
                col = p * n + i
                line[col] = line.get(col, 0) + c * w
        rows += [stored(line) for line in first + second]
        rhs += lr_cols[k] + rl_cols[k]
    return Matrix._of_rows(tuple(rows), n * n), tuple(rhs)


def matrix_fixed_point_subalgebras(self):
    """Kernel presentations of the four fixed-point subalgebras."""
    n = self.dim
    tables = self._integer_tables
    table = tables.mult
    # Row (i, j), column k: the coefficient of e_i (x) e_j in Delta(e_k)
    # minus a product term that sums over Delta(1), so only the nonzero
    # entries of Delta(1) contribute.  Every row is scaled by d D_c D_m,
    # with d the lcm of the denominators of Delta(1), so that every
    # entry is an int; a row scale leaves each kernel as it is.
    nz = nonzeros(self.delta1)
    d = _denominator_lcm(c for _, _, c in nz)
    scale = d * tables.d_mult
    base = [{} for _ in range(n * n)]
    for k, dk in enumerate(tables.comult):
        for i, j, c in dk:
            base[i * n + j][k] = c * scale
    rows_ll, rows_lr, rows_rl, rows_rr = ([dict(r) for r in base] for _ in range(4))

    def sub(row, k, x):
        row[k] = row.get(k, 0) - x

    for u, v, c in nz:
        c = _cleared(c, d) * tables.d_comult
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


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------

SMALL_NAMES = [name for name in catalog_names() if catalog(name).algebra.dim <= 9]
TRANSPORT_BASES = ["group:z3", "dualgroup:s3", "bsz-dual:2", "example1", "adcross:z2,z2", "bsz-dual:3"]


def _variants(algebra):
    return [algebra, algebra.dual, algebra.opposite, algebra.coopposite]


def _non_integral_transport(algebra, rng):
    """The algebra in a permuted basis whose vectors are scaled by
    non-integral rationals."""
    n = algebra.dim
    perm = list(range(n))
    rng.shuffle(perm)
    scales = [Q(rng.choice((1, 2, 4, 5, 7)), rng.choice((2, 3, 5))) for _ in range(n)]
    t = Matrix([[scales[j] if i == perm[j] else 0 for j in range(n)] for i in range(n)])
    return transport(algebra, t)


def _assert_solves_agree(algebra):
    nn = algebra.dim**2
    system, rhs = matrix_antipode_system(algebra)
    shipped, shipped_rhs = _antipode_system(algebra)
    assert (shipped, shipped_rhs) == (system, rhs)
    assert all(type(x) is Fraction for row in shipped.sparse_rows for _, x in row)
    assert all(type(x) is Fraction for x in shipped_rhs)
    rows, scale = _antipode_rows(algebra)
    assert len(rows) == system.rows
    assert all(type(x) is int and x for row in rows for x in row.values())
    # the Fraction view is the int rows divided by their common scale
    for row, stored, b in zip(rows, system.sparse_rows, rhs):
        assert {j: Q(x, scale) for j, x in row.items() if j != nn} == dict(stored)
        assert Q(row.get(nn, 0), scale) == b
    particular = particular_solution_of_rows(rows, nn)
    assert particular == particular_solution(system, rhs)
    assert particular is None or all(type(x) is Fraction for x in particular)
    assert antipode_solution_space(algebra) == solve_affine(system, rhs)


def _assert_fixed_points_agree(algebra):
    assert algebra.fixed_point_subalgebras == matrix_fixed_point_subalgebras(algebra)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_int_row_solves_match_the_matrix_route_on_the_catalog(entries, name):
    for variant in _variants(entries[name].algebra):
        _assert_solves_agree(variant)
        _assert_fixed_points_agree(variant)


@pytest.mark.parametrize("seed", range(6))
def test_int_row_solves_match_the_matrix_route_on_non_integral_transports(entries, seed):
    rng = random.Random("int-row-solve:%d" % seed)
    algebra = _non_integral_transport(entries[TRANSPORT_BASES[seed]].algebra, rng)
    _, rhs = _antipode_system(algebra)
    assert any(x.denominator > 1 for x in rhs)
    _, scale = _antipode_rows(algebra)
    tables = algebra._integer_tables
    assert scale > tables.d_mult * tables.d_comult
    _assert_solves_agree(algebra)
    _assert_fixed_points_agree(algebra)


@pytest.mark.parametrize("name", ["adcross:s3,a3", "adcross:z8,z4"])
def test_int_row_solves_match_the_matrix_route_on_adcross(name):
    algebra = catalog(name).algebra
    _assert_solves_agree(algebra)
    _assert_fixed_points_agree(algebra)


# ----------------------------------------------------------------------
# empty and repeated rows
# ----------------------------------------------------------------------


def _scalar(rng):
    return Q(rng.randint(-4, 4), rng.randint(1, 3))


def _sparse_system(rng, rows, cols, density):
    m = [[_scalar(rng) if rng.random() < density else Q(0) for _ in range(cols)] for _ in range(rows)]
    return m, [_scalar(rng) if rng.random() < 0.6 else Q(0) for _ in range(rows)]


def _padded(rng, m, b):
    """Every row of [m | b] with exact, scaled and negated copies, and empty
    rows, shuffled."""
    cols = len(m[0]) if m else 0
    lines = []
    for row, bv in zip(m, b):
        lines.append((row, bv))
        for c in rng.sample((Q(1), Q(1), Q(2), Q(-1), Q(1, 3), Q(-5, 2)), 3):
            lines.append(([c * x for x in row], c * bv))
    lines += [([Q(0)] * cols, Q(0)) for _ in range(rng.randint(1, 4))]
    rng.shuffle(lines)
    return Matrix.from_rows([tuple(r) for r, _ in lines], cols), tuple(bv for _, bv in lines)


def _systems():
    rng = random.Random(20261020)
    out = []
    for _ in range(30):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        m, b = _sparse_system(rng, rows, cols, rng.choice((0.15, 0.3, 0.6)))
        if rng.random() < 0.5:
            # a consistent right-hand side
            x = [_scalar(rng) for _ in range(cols)]
            b = [sum((r * v for r, v in zip(row, x)), Q(0)) for row in m]
        out.append(_padded(rng, m, b))
    return out


SYSTEMS = _systems()


def test_the_padded_systems_include_inconsistent_ones():
    solvable = [dense_solve_affine(m, b) is not None for m, b in SYSTEMS]
    assert 0 < sum(solvable) < len(SYSTEMS)


@pytest.mark.parametrize("index", range(len(SYSTEMS)))
def test_repeated_and_empty_rows_match_the_dense_oracle(index):
    m, b = SYSTEMS[index]
    assert rref(m) == dense_rref(m)
    assert rank(m) == dense_rref(m).rows
    assert kernel(m) == dense_kernel(m)
    expected = dense_solve_affine(m, b)
    assert solve_affine(m, b) == expected
    assert particular_solution(m, b) == (None if expected is None else expected[0])


def test_rows_with_equal_coefficients_and_different_right_hand_sides_have_no_solution():
    m = Matrix([[1, 2, 0], [0, 1, 1], [1, 2, 0]])
    b = (Q(1), Q(0), Q(2))
    assert dense_solve_affine(m, b) is None
    assert solve_affine(m, b) is None
    assert particular_solution(m, b) is None
    # as int rows, with the right-hand side at column 3, repeated and padded
    rows = [{0: 1, 1: 2, 3: 1}, {}, {1: 1, 2: 1}, {0: 1, 1: 2, 3: 1}, {0: 1, 1: 2, 3: 2}]
    assert solve_affine_of_rows([dict(r) for r in rows], 3) is None
    assert particular_solution_of_rows([dict(r) for r in rows], 3) is None
    # without the last row it is consistent
    got = solve_affine_of_rows([dict(r) for r in rows[:-1]], 3)
    assert got == solve_affine(m, (Q(1), Q(0), Q(1)))
    assert got[0] == (Q(1), Q(0), Q(0))


def test_row_entry_points_match_the_matrix_entry_points():
    rng = random.Random(77)
    for _ in range(20):
        m, b = _padded(rng, *_sparse_system(rng, rng.randint(1, 8), rng.randint(1, 8), 0.4))
        n = m.cols
        assert kernel_of_rows(exactlin._row_dicts(m), n) == kernel(m)
        aug = exactlin._augmented(m, b)
        assert solve_affine_of_rows([dict(r) for r in aug], n) == solve_affine(m, b)
        assert particular_solution_of_rows(aug, n) == particular_solution(m, b)


def test_repeated_and_empty_rows_are_not_reduced(monkeypatch):
    reduced = []
    shipped = exactlin._reduce

    def counting(row, pivots):
        reduced.append(dict(row))
        return shipped(row, pivots)

    monkeypatch.setattr(exactlin, "_reduce", counting)
    row = {0: Q(1, 2), 2: Q(-3)}
    rows = [dict(row) for _ in range(40)] + [{} for _ in range(40)] + [{0: 1, 2: -6}]
    assert exactlin._eliminate(rows, 3) == [(0, {0: 1, 2: -6})]
    # one forward reduction and one back-elimination of the single pivot row
    assert reduced == [{0: 1, 2: -6}, {0: 1, 2: -6}]
