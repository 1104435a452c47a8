"""Differential tests for the fraction-free elimination.

exactlin's one Gauss-Jordan pass clears each row of denominators, reduces
it against int pivot rows by cross-multiplication and divides each pivot
row by its pivot once, at the end.  The Fraction elimination it replaced,
_eliminate and _reduce, is kept here verbatim as the oracle.  Every solver
built on the pass (rref, rank, kernel, image, inverse, Subspace.intersect,
solve_affine, particular_solution) and every Subspace method built on
_reduce is run twice, once as shipped and once with the oracle swapped in,
and the two results must be equal, with every returned value a Fraction.
The inputs are seeded rational matrices (sparse and dense, tall and wide,
rank-deficient, with zero and repeated rows, denominators up to 1000, ints
mixed with integral Fractions) and the antipode systems of the catalog
instances of dimension at most 9 with their duals, opposites and
coopposites, of adcross:s3,a3 and of adcross:z8,z4.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from test_kernels import _variants
from weakhopf import exactlin
from weakhopf.antipode import _antipode_system
from weakhopf.constructions import catalog, catalog_names
from weakhopf.exactlin import (
    QONE,
    Matrix,
    Subspace,
    _unwrap,
    image,
    inverse,
    kernel,
    particular_solution,
    rank,
    row_space,
    rref,
    solve_affine,
)

# ----------------------------------------------------------------------
# the oracle: the Fraction elimination as it was
# ----------------------------------------------------------------------


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
            row = {j: _unwrap(x * inv) for j, x in row.items()}
        pivots[c] = row
        if len(pivots) == width:
            break
    done = {}
    for c in sorted(pivots, reverse=True):
        done[c] = _reduce(pivots[c], done)
    return sorted(done.items())


@contextmanager
def _oracle():
    """exactlin with the Fraction elimination swapped in."""
    shipped = exactlin._eliminate, exactlin._reduce
    exactlin._eliminate, exactlin._reduce = _eliminate, _reduce
    try:
        yield
    finally:
        exactlin._eliminate, exactlin._reduce = shipped


def _both(compute, *args):
    """compute(*args) as shipped and under the oracle."""
    got = compute(*args)
    with _oracle():
        expected = compute(*args)
    return got, expected


# ----------------------------------------------------------------------
# what the solvers return, and its entries
# ----------------------------------------------------------------------


def _values(result):
    """Every scalar in a solver's result, however nested."""
    if result is None or isinstance(result, (int, bool)):
        return []
    if isinstance(result, Matrix):
        return [x for row in result.sparse_rows for _, x in row]
    if isinstance(result, Subspace):
        return _values(result.basis)
    if isinstance(result, Fraction):
        return [result]
    return [x for part in result for x in _values(part)]


def _solver_results(m: Matrix, rhss, other: Subspace):
    """Every elimination-backed result on m, its right-hand sides and a
    subspace of the row space's ambient space."""
    rows = row_space(m)
    out = [
        rref(m),
        rank(m),
        kernel(m),
        image(m),
        rows,
        rows.intersect(other),
        other.intersect(rows),
        rows.add(other),
        Subspace.from_spanning(m.data, m.cols),
    ]
    for rhs in rhss:
        out += [solve_affine(m, rhs), particular_solution(m, rhs)]
    if m.is_square():
        out.append(inverse(m))
    for v in other.basis.data + m.data[:3]:
        out += [rows.coordinates(v), rows.contains(v), rows.quotient_coordinates(v)]
    out.append(rows.restrict(Matrix.identity(m.cols)))
    return out


def _assert_same_as_oracle(m: Matrix, rhss, other: Subspace):
    got, expected = _both(_solver_results, m, rhss, other)
    assert got == expected
    assert all(type(x) is Fraction for x in _values(got))


# ----------------------------------------------------------------------
# seeded rational matrices
# ----------------------------------------------------------------------


def _scalar(rng, max_den, kind):
    """A nonzero rational: an int, an integral Fraction or a fraction with
    denominator up to max_den."""
    num = rng.choice([-1, 1]) * rng.randint(1, 60)
    if kind == "int":
        return num
    if kind == "integral":
        return Fraction(num)
    return Fraction(num, rng.randint(1, max_den))


def _seeded(rng, rows, cols, density, max_den, kinds=("int", "integral", "fraction")):
    return [
        [_scalar(rng, max_den, rng.choice(kinds)) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def _rank_deficient(rng, rows, cols, r, max_den):
    """A rows x cols matrix of rank at most r."""
    left = Matrix(_seeded(rng, rows, r, 0.7, max_den))
    right = Matrix(_seeded(rng, r, cols, 0.7, max_den))
    return (left * right).data


def _with_zero_and_repeated_rows(rng, data):
    data = [list(row) for row in data]
    cols = len(data[0])
    data.insert(rng.randrange(len(data) + 1), [0] * cols)
    data.insert(rng.randrange(len(data) + 1), list(data[rng.randrange(len(data))]))
    k = rng.randrange(len(data))
    data.append([2 * x for x in data[k]])
    return data


SHAPES = [
    ("square", 6, 6),
    ("tall", 11, 5),
    ("wide", 4, 10),
    ("large", 10, 10),
]


def _seeded_matrices(rng):
    out = []
    for label, r, c in SHAPES:
        for density in (0.2, 0.5, 1.0):
            for max_den in (1, 12, 1000):
                out.append(("%s-%s-%s" % (label, density, max_den), _seeded(rng, r, c, density, max_den)))
        out.append((label + "-deficient", _rank_deficient(rng, r, c, max(1, min(r, c) // 2), 1000)))
        out.append((label + "-repeated", _with_zero_and_repeated_rows(rng, _seeded(rng, r, c, 0.5, 30))))
        out.append((label + "-zero", [[0] * c for _ in range(r)]))
    return out


def _right_hand_sides(rng, m: Matrix):
    """Zero, a vector in the column space and a seeded one (often outside)."""
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(m.cols)]
    return [
        [0] * m.rows,
        m.apply(tuple(x)),
        [_scalar(rng, 1000, "fraction") for _ in range(m.rows)],
    ]


@pytest.mark.parametrize("seed", range(3))
def test_solvers_match_the_fraction_oracle_on_seeded_rationals(seed):
    rng = random.Random("fraction-free:%d" % seed)
    for _, data in _seeded_matrices(rng):
        m = Matrix(data)
        other = Subspace.from_spanning(
            _seeded(rng, rng.randint(1, m.cols), m.cols, 0.5, 50), m.cols
        )
        _assert_same_as_oracle(m, _right_hand_sides(rng, m), other)


def test_eliminate_matches_the_oracle_on_mixed_row_dicts():
    """Rows as the solvers hand them over: ints, integral Fractions and
    Fractions in one row, zero rows, and a width that stops early."""
    rng = random.Random("fraction-free:rows")
    for _ in range(60):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        data = _seeded(rng, r, c, rng.choice([0.3, 0.7, 1.0]), rng.choice([1, 5, 1000]))
        if rng.random() < 0.3:
            data = _with_zero_and_repeated_rows(rng, data)
        rows = [{j: x for j, x in enumerate(row) if x} for row in data]
        got = exactlin._eliminate([dict(row) for row in rows], c)
        expected = _eliminate([dict(row) for row in rows], c)
        assert got == expected
        for _, row in got:
            assert all(type(x) in (int, Fraction) and x for x in row.values())


def test_dense_inverses_match_the_oracle():
    rng = random.Random("fraction-free:inverse")
    for n in (1, 2, 5, 9, 13):
        for max_den in (1, 1000):
            m = Matrix(_seeded(rng, n, n, 1.0, max_den))
            got, expected = _both(inverse, m)
            assert got == expected
            if got is not None:
                assert got * m == Matrix.identity(n)
                assert all(type(x) is Fraction for x in _values(got))


# ----------------------------------------------------------------------
# antipode systems
# ----------------------------------------------------------------------

# the catalog instances of dimension at most 9 (adcross:s3,a3 has 18)
SMALL_NAMES = [name for name in catalog_names() if name not in ("adcross:s3,a3", "example2-rigidity")]


def _system_results(algebra):
    system, rhs = _antipode_system(algebra)
    return (
        particular_solution(system, rhs),
        solve_affine(system, rhs),
        rank(system),
        rref(system),
    )


def _assert_system_same_as_oracle(algebra):
    got, expected = _both(_system_results, algebra)
    assert got == expected
    assert all(type(x) is Fraction for x in _values(got))


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_antipode_systems_match_the_oracle_on_the_catalog(entries, name):
    algebra = entries[name].algebra
    assert algebra.dim <= 9
    for variant in _variants(algebra):
        _assert_system_same_as_oracle(variant)


@pytest.mark.parametrize("name, entry", [("adcross:s3,a3", Fraction(1, 3)), ("adcross:z8,z4", Fraction(1, 4))])
def test_antipode_systems_match_the_oracle_on_adcross(name, entry):
    """Systems whose nonzeros all equal 1/|H|, solved as int rows."""
    algebra = catalog(name).algebra
    system, _ = _antipode_system(algebra)
    assert {x for row in system.sparse_rows for _, x in row} == {entry}
    _assert_system_same_as_oracle(algebra)
