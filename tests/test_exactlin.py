import random

from weakhopf.exactlin import (
    Matrix,
    Q,
    Subspace,
    form_inverse,
    image,
    inverse,
    kernel,
    kron,
    parse_scalar,
    qstr,
    rank,
    row_space,
    rref,
    solve_affine,
)

import pytest


def test_scalar_parsing():
    assert parse_scalar("3/4") == Q(3, 4)
    assert parse_scalar("-7") == Q(-7)
    assert parse_scalar(5) == Q(5)
    assert qstr(Q(-3, 7)) == "-3/7"
    assert qstr(Q(4)) == "4"
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    with pytest.raises(ValueError):
        parse_scalar(True)


def test_rref_rank_one():
    assert rref(Matrix([[1, 2], [2, 4]])) == Matrix([[1, 2]])


def test_rref_identity_fixed():
    assert rref(Matrix.identity(3)) == Matrix.identity(3)


def test_rref_permutation_rows():
    assert rref(Matrix([[0, 1], [1, 0]])) == Matrix.identity(2)


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix([[Q(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)])
        r = rref(m)
        assert rref(r) == r
        assert row_space(m) == row_space(r)


def test_solve_affine_identity():
    particular, ker = solve_affine(Matrix.identity(2), (Q(3), Q(5)))
    assert particular == (Q(3), Q(5))
    assert ker.dim == 0


def test_solve_affine_underdetermined():
    particular, ker = solve_affine(Matrix([[1, 1]]), (Q(2),))
    assert particular == (Q(2), Q(0))
    assert ker.dim == 1
    assert ker.contains((Q(1), Q(-1)))


def test_solve_affine_inconsistent():
    assert solve_affine(Matrix([[1], [1]]), (Q(1), Q(2))) is None


def test_form_inverse_identity():
    assert form_inverse(Matrix.identity(4)) == Matrix.identity(4)


def test_form_inverse_degenerate():
    assert form_inverse(Matrix([[1, 1], [1, 1]])) is None


def test_form_inverse_two_sided():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = Matrix([[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        p = form_inverse(m)
        if p is None:
            assert rank(m) < n
        else:
            assert m * p == Matrix.identity(n)
            assert p * m == Matrix.identity(n)


def test_kron_identity():
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)


def test_kron_zero():
    a = Matrix([[1, 2], [3, 4]])
    assert kron(a, Matrix.zero(2, 2)).is_zero()


def test_kron_scalar():
    assert kron(Matrix([[0, 1], [1, 0]]), Matrix([[2]])) == Matrix([[0, 2], [2, 0]])


def test_kron_mixed_product():
    rng = random.Random(3)
    for _ in range(10):
        a = Matrix([[Q(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
        b = Matrix([[Q(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        c = Matrix([[Q(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
        d = Matrix([[Q(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        assert kron(a * c, b * d) == kron(a, b) * kron(c, d)


def test_kron_associative():
    rng = random.Random(5)
    a = Matrix([[Q(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
    b = Matrix([[Q(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
    c = Matrix([[Q(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_subspace_canonical_equality():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        vecs = [
            tuple(Q(rng.randint(-2, 2)) for _ in range(n)) for _ in range(k)
        ]
        s1 = Subspace.from_spanning(vecs, n)
        # scramble the spanning set: scale, permute, add multiples
        mixed = [tuple(Q(2) * x for x in v) for v in vecs]
        if len(vecs) >= 2:
            mixed.append(tuple(a + b for a, b in zip(vecs[0], vecs[1])))
        rng.shuffle(mixed)
        s2 = Subspace.from_spanning(mixed, n)
        assert s1 == s2
        for v in vecs:
            assert s1.contains(v)


def test_subspace_intersection_and_sum():
    s1 = Subspace.from_spanning([(1, 0, 0), (0, 1, 0)], 3)
    s2 = Subspace.from_spanning([(0, 1, 0), (0, 0, 1)], 3)
    inter = s1.intersect(s2)
    assert inter.dim == 1 and inter.contains((0, 1, 0))
    assert s1.add(s2) == Subspace.full(3)


def test_kernel_image_dims():
    m = Matrix([[1, 2, 3], [2, 4, 6]])
    assert kernel(m).dim == 2
    assert image(m).dim == 1
    assert inverse(Matrix([[1, 2], [2, 4]])) is None


def test_form_inverse_of_wedge_pairing():
    # Gram matrix of the counit pairing between the two factors of the
    # triangular catalog instance inverts onto its unit-coproduct tensor
    gram = Matrix([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
    assert form_inverse(gram) == Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])


# ----------------------------------------------------------------------
# differential oracle: the dense Gauss-Jordan elimination the sparse one
# replaced, kept here verbatim as the reference
# ----------------------------------------------------------------------

QONE = Q(1)


def _rref_rows(rows, width):
    """Reduce a list of row lists in place; return pivot column list."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(width):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = QONE / pv
            rows[r] = [x * inv for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                ri = rows[i]
                rows[i] = [a - f * b for a, b in zip(ri, prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def dense_rref(m):
    rows = [list(r) for r in m.data]
    pivots = _rref_rows(rows, m.cols)
    return Matrix.from_rows([tuple(r) for r in rows[: len(pivots)]], m.cols)


def dense_kernel(m):
    n = m.cols
    rows = [list(r) for r in m.data]
    pivots = _rref_rows(rows, n)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Q(0)] * n
        v[f] = QONE
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][f]
        basis.append(tuple(v))
    return Subspace(n, dense_rref(Matrix.from_rows(basis, n)))


def dense_solve_affine(a, b):
    n = a.cols
    aug = [list(row) + [bv] for row, bv in zip(a.data, b)]
    pivots = _rref_rows(aug, n + 1)
    if n in pivots:
        return None
    particular = [Q(0)] * n
    for i, pc in enumerate(pivots):
        particular[pc] = aug[i][n]
    return tuple(particular), dense_kernel(a)


def dense_inverse(m):
    n = m.rows
    aug = [list(m.data[i]) + [QONE if j == i else Q(0) for j in range(n)] for i in range(n)]
    pivots = _rref_rows(aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return Matrix.from_rows([tuple(row[n:]) for row in aug], n)


def _scalar(rng):
    return Q(rng.randint(-4, 4), rng.randint(1, 3))


def _random_matrix(rng, rows, cols, density):
    return Matrix.from_rows(
        [
            tuple(_scalar(rng) if rng.random() < density else Q(0) for _ in range(cols))
            for _ in range(rows)
        ],
        cols,
    )


def _low_rank(rng, rows, cols, density):
    k = rng.randint(0, max(0, min(rows, cols) - 1))
    return _random_matrix(rng, rows, k, density) * _random_matrix(rng, k, cols, density)


def _with_zero_lines(rng, m):
    rows = [list(r) for r in m.data]
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randint(0, len(rows)), [Q(0)] * m.cols)
    j = rng.randrange(m.cols)
    rows = [r[:j] + [Q(0)] + r[j:] for r in rows]
    return Matrix.from_rows([tuple(r) for r in rows], m.cols + 1)


def oracle_matrices():
    """Seeded sparse, dense, rank-deficient, padded, tall, wide and empty cases."""
    rng = random.Random(20240601)
    cases = []
    for _ in range(12):
        r, c = rng.randint(1, 30), rng.randint(1, 30)
        cases.append(("sparse", _random_matrix(rng, r, c, rng.uniform(0.02, 0.1))))
    for _ in range(12):
        n = rng.randint(1, 7)
        cases.append(("dense", _random_matrix(rng, rng.randint(1, 7), n, 1.0)))
    for _ in range(10):
        r, c = rng.randint(2, 12), rng.randint(2, 12)
        cases.append(("rank-deficient", _low_rank(rng, r, c, rng.choice((0.3, 1.0)))))
    for _ in range(6):
        m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), 0.5)
        cases.append(("zero-lines", _with_zero_lines(rng, m)))
    for _ in range(4):
        cases.append(("tall", _random_matrix(rng, rng.randint(15, 40), rng.randint(1, 6), 0.3)))
        cases.append(("wide", _random_matrix(rng, rng.randint(1, 6), rng.randint(15, 40), 0.3)))
    for c in (0, 1, 5):
        cases.append(("no-rows", Matrix.from_rows([], c)))
    return cases


def _check_against_oracle(m, rng):
    assert rref(m) == dense_rref(m)
    assert rank(m) == dense_rref(m).rows
    assert kernel(m) == dense_kernel(m)
    x = tuple(_scalar(rng) for _ in range(m.cols))
    consistent = m.apply(x)
    arbitrary = tuple(_scalar(rng) for _ in range(m.rows))
    for b in (consistent, arbitrary, (Q(0),) * m.rows):
        assert solve_affine(m, b) == dense_solve_affine(m, b)
    assert solve_affine(m, consistent) is not None


ORACLE_CASES = oracle_matrices()


@pytest.mark.parametrize(
    "index", range(len(ORACLE_CASES)), ids=["%s-%d" % (k, i) for i, (k, _) in enumerate(ORACLE_CASES)]
)
def test_sparse_elimination_matches_dense_oracle(index):
    _check_against_oracle(ORACLE_CASES[index][1], random.Random(index))


def test_inconsistent_systems_agree_with_oracle():
    rng = random.Random(9)
    seen = 0
    for _ in range(30):
        m = _low_rank(rng, rng.randint(2, 10), rng.randint(2, 10), 0.4)
        b = tuple(_scalar(rng) for _ in range(m.rows))
        expected = dense_solve_affine(m, b)
        assert solve_affine(m, b) == expected
        seen += expected is None
    assert seen > 0


def test_inverse_matches_dense_oracle():
    rng = random.Random(17)
    singular = 0
    for _ in range(40):
        n = rng.randint(1, 9)
        density = rng.choice((0.15, 0.5, 1.0))
        m = _random_matrix(rng, n, n, density) if rng.random() < 0.8 else _low_rank(rng, n, n, density)
        expected = dense_inverse(m)
        assert inverse(m) == expected
        assert form_inverse(m) == expected
        singular += expected is None
    assert 0 < singular < 40


def test_subspace_membership_and_coordinates_sparse():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 20)
        vecs = [tuple(_random_matrix(rng, 1, n, 0.2).data[0]) for _ in range(rng.randint(1, 6))]
        space = Subspace.from_spanning(vecs, n)
        assert space.basis == dense_rref(Matrix.from_rows(vecs, n))
        coeffs = tuple(_scalar(rng) for _ in range(space.dim))
        v = tuple(sum((c * row[j] for c, row in zip(coeffs, space.basis.data)), Q(0)) for j in range(n))
        assert space.contains(v)
        assert space.coordinates(v) == coeffs
        outside = Matrix.identity(n).data[rng.randrange(n)]
        inside = dense_rref(Matrix.from_rows(list(space.basis.data) + [outside], n)).rows == space.dim
        assert space.contains(outside) == inside
        assert (space.coordinates(outside) is not None) == inside


def test_antipode_system_matches_dense_oracle():
    from weakhopf.antipode import _antipode_system
    from weakhopf.constructions import catalog

    system, rhs = _antipode_system(catalog("adcross:z4,z2").algebra)
    assert (system.rows, system.cols) == (128, 64)
    got = solve_affine(system, rhs)
    assert got is not None
    assert got == dense_solve_affine(system, rhs)
    assert rref(system) == dense_rref(system)


@pytest.mark.parametrize("text", ["1_000", "٣", "+3", "1/-2", ""])
def test_scalar_grammar_is_strict(text):
    with pytest.raises(ValueError):
        parse_scalar(text)
