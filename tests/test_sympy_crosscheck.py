"""rank, kernel, row_space and sylvester against sympy's exact linear algebra.

The matrices are seeded sparse rationals, zero and full-rank ones among
them, and Sylvester stacks of seeded pairs.  sympy is optional: without it
this module is skipped.
"""

import random

import pytest

from weakhopf.exactlin import Matrix, Q, kernel, rank, row_space, sylvester

sympy = pytest.importorskip("sympy")


def _random_sparse(rng, rows, cols, density):
    return Matrix(
        [
            [
                Q(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else 0
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )


def _to_sympy(m: Matrix):
    return sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for row in m.data for x in row]
    )


def _from_sympy_rows(rows, cols) -> Matrix:
    return Matrix.from_rows(
        [[Q(int(x.p), int(x.q)) for x in row] for row in rows], cols
    )


def _sympy_row_space(s, cols) -> Matrix:
    """The nonzero rows of sympy's RREF of s."""
    red, pivots = s.rref()
    return _from_sympy_rows([red.row(i) for i in range(len(pivots))], cols)


def _sympy_kernel(s, cols) -> Matrix:
    """The canonical RREF basis of sympy's null space of s."""
    vectors = s.nullspace()
    if not vectors:
        return Matrix.from_rows([], cols)
    return _sympy_row_space(sympy.Matrix.hstack(*vectors).T, cols)


def _check_against_sympy(m: Matrix):
    s = _to_sympy(m)
    assert rank(m) == s.rank()
    assert row_space(m).basis == _sympy_row_space(s, m.cols)
    assert kernel(m).basis == _sympy_kernel(s, m.cols)


def test_rank_kernel_and_row_space_match_sympy():
    rng = random.Random(8013)
    shapes = [(1, 1), (3, 3), (4, 7), (7, 4), (6, 6), (9, 5), (5, 12)]
    for rows, cols in shapes:
        for density in (0.0, 0.2, 0.5, 1.0):
            for _ in range(3):
                _check_against_sympy(_random_sparse(rng, rows, cols, density))


def test_sylvester_stacks_match_sympy():
    rng = random.Random(8017)
    for rows, cols, count in ((1, 1, 1), (2, 3, 1), (3, 2, 2), (3, 3, 2), (4, 2, 3)):
        for density in (0.3, 0.7):
            pairs = [
                (_random_sparse(rng, cols, cols, density), _random_sparse(rng, rows, rows, density))
                for _ in range(count)
            ]
            stack = sylvester(pairs, rows, cols)
            expected = sympy.Matrix.vstack(
                *(
                    sympy.kronecker_product(_to_sympy(b), sympy.eye(cols))
                    - sympy.kronecker_product(sympy.eye(rows), _to_sympy(a).T)
                    for a, b in pairs
                )
            )
            assert _to_sympy(stack) == expected
            _check_against_sympy(stack)
            # every kernel vector, read row by row, is a T with B T = T A
            for t in kernel(stack).basis.sparse_rows:
                t = _to_sympy(Matrix._of_rows((t,), rows * cols)).reshape(rows, cols)
                assert all(_to_sympy(b) * t == t * _to_sympy(a) for a, b in pairs)
