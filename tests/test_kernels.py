"""Differential tests for the O(nnz) structure-constant kernels.

mul, t2_mul and the unit and associativity checks of violations loop over
per-(i, j) nonzero lists of the multiplication tensor, and Algebra.check
shares the same check.  Matrix products and Matrix.apply run over
nonzeros, and the dual-action operators of the multiplier-realization
check are built from the coproduct's nonzero lists.  The dense loops they
replaced are kept here verbatim as oracles, and so are the Fraction loops
of violations and algebra_axiom_violations that the checks over integer
tables (denominators cleared once per instance) replaced, and the
combination behind delta and the multiplication operators of a vector,
which took the nonzeros of every structure matrix on each call.  A sweep of the
trusted matrix path follows: every matrix and vector that exactlin builds
from Fraction
arithmetic, and every t2_mul product, must hold only Fraction entries, also
when the inputs were ints.  The last tests take comodule tensor products on
adcross:z2,z2.
"""

import random
from fractions import Fraction

import pytest

from conftest import monomial_scramble
from weakhopf.constructions import Algebra, ConstructionError
from weakhopf.core import WeakBialgebra, _dual_action_operator, algebra_axiom_violations
from weakhopf.exactlin import (
    Matrix,
    Q,
    QZERO,
    Subspace,
    image,
    inverse,
    kernel,
    kron,
    linear_combination,
    nonzeros,
    outer,
    rref,
    row_space,
    solve_affine,
    unit_vec,
)
from weakhopf.repcat import comodule_tensor, regular_comodule, regular_module

SMALL = [
    "trivial",
    "group:z2",
    "group:z3",
    "group:s3",
    "dualgroup:z2",
    "dualgroup:z3",
    "dualgroup:s3",
    "example1",
    "bsz-dual:2",
    "bsz-dual:3",
    "adcross:z2,z2",
    "adcross:z4,z2",
    "example2-rigidity",
]


# ----------------------------------------------------------------------
# oracles: the dense loops the kernels replaced (self is the algebra, or
# the matrix for matrix_mul and matrix_apply)
# ----------------------------------------------------------------------


def mul(self, a, b):
    n = self.dim
    acc = [QZERO] * n
    mult = self.mult
    for i, x in enumerate(a):
        if not x:
            continue
        row = mult[i]
        for j, y in enumerate(b):
            if not y:
                continue
            xy = x * y
            for k, c in enumerate(row[j]):
                if c:
                    acc[k] += xy * c
    return tuple(acc)


def t2_mul(self, X: Matrix, Y: Matrix) -> Matrix:
    n = self.dim
    acc = [[QZERO] * n for _ in range(n)]
    ynz = nonzeros(Y)
    mult = self.mult
    for p, xrow in enumerate(X.data):
        for q, c in enumerate(xrow):
            if not c:
                continue
            mp = mult[p]
            mq = mult[q]
            for r, s, d in ynz:
                cd = c * d
                first = mp[r]
                second = mq[s]
                for u, fu in enumerate(first):
                    if fu:
                        w = cd * fu
                        arow = acc[u]
                        for v, sv in enumerate(second):
                            if sv:
                                arow[v] += w * sv
    return Matrix(acc)


def violations(self):
    """All failed structural axioms with a witness basis tuple each."""
    bad = []
    n = self.dim
    one = self.unit
    basis = [self.basis_vector(i) for i in range(n)]
    for i in range(n):
        if mul(self, one, basis[i]) != basis[i]:
            bad.append(("unit-left", (i,)))
            break
    for i in range(n):
        if mul(self, basis[i], one) != basis[i]:
            bad.append(("unit-right", (i,)))
            break
    done = False
    for i in range(n):
        if done:
            break
        for j in range(n):
            if done:
                break
            ij = mul(self, basis[i], basis[j])
            for k in range(n):
                if mul(self, ij, basis[k]) != mul(
                    self, basis[i], mul(self, basis[j], basis[k])
                ):
                    bad.append(("associativity", (i, j, k)))
                    done = True
                    break
    for k in range(n):
        dk = self.comult[k]
        left = dk.transpose().apply(self.counit)
        right = dk.apply(self.counit)
        if left != basis[k]:
            bad.append(("counit-left", (k,)))
            break
        if right != basis[k]:
            bad.append(("counit-right", (k,)))
            break
    for k in range(n):
        # (Delta (x) id) Delta against (id (x) Delta) Delta
        dk = self.iterated_delta(basis[k], 1)
        if self.delta_at(dk, 0) != self.delta_at(dk, 1):
            bad.append(("coassociativity", (k,)))
            break
    done = False
    for i in range(n):
        if done:
            break
        di = self.comult[i]
        for j in range(n):
            lhs = self.delta(mul(self, basis[i], basis[j]))
            rhs = t2_mul(self, di, self.comult[j])
            if lhs != rhs:
                bad.append(("coproduct-multiplicativity", (i, j)))
                done = True
                break
    return tuple(bad)


# ----------------------------------------------------------------------
# oracles: the Fraction loops that the integer-table checks replaced
# (violations, algebra_axiom_violations and the t2 product they used)
# ----------------------------------------------------------------------


def _sum_nonzeros(terms, n):
    """sum c * v over (c, v) pairs, each v given by its (k, x) nonzeros."""
    acc = [QZERO] * n
    for c, nz in terms:
        for k, x in nz:
            acc[k] += c * x
    return acc


def fraction_algebra_axiom_violations(algebra):
    """The failed unit and associativity axioms, with a witness basis tuple each.

    algebra needs dim, unit, mul and the per-(i, j) nonzero lists
    _mult_nonzeros.  Each axiom reports its first failure in basis order;
    associativity compares (e_i e_j) e_k with e_i (e_j e_k) over the lists.
    """
    bad = []
    n = algebra.dim
    one = algebra.unit
    basis = [unit_vec(n, i) for i in range(n)]
    for i in range(n):
        if algebra.mul(one, basis[i]) != basis[i]:
            bad.append(("unit-left", (i,)))
            break
    for i in range(n):
        if algebra.mul(basis[i], one) != basis[i]:
            bad.append(("unit-right", (i,)))
            break
    table = algebra._mult_nonzeros
    done = False
    for i in range(n):
        if done:
            break
        ti = table[i]
        for j in range(n):
            if done:
                break
            ij = ti[j]
            tj = table[j]
            for k in range(n):
                left = _sum_nonzeros(((c, table[l][k]) for l, c in ij), n)
                right = _sum_nonzeros(((c, ti[m]) for m, c in tj[k]), n)
                if left != right:
                    bad.append(("associativity", (i, j, k)))
                    done = True
                    break
    return bad


def _t2_product(self, xnz, ynz) -> Matrix:
    """t2_mul of the two matrices with the given nonzeros() triples."""
    n = self.dim
    acc = [[QZERO] * n for _ in range(n)]
    table = self._mult_nonzeros
    for p, q, c in xnz:
        tp = table[p]
        tq = table[q]
        for r, s, d in ynz:
            first = tp[r]
            second = tq[s]
            if not (first and second):
                continue
            cd = c * d
            for u, fu in first:
                w = cd * fu
                arow = acc[u]
                for v, sv in second:
                    arow[v] += w * sv
    return Matrix._of_fractions(acc, n)


def fraction_violations(self):
    """All failed structural axioms with a witness basis tuple each."""
    bad = fraction_algebra_axiom_violations(self)
    n = self.dim
    basis = [self.basis_vector(i) for i in range(n)]
    for k in range(n):
        dk = self.comult[k]
        left = dk.transpose().apply(self.counit)
        right = dk.apply(self.counit)
        if left != basis[k]:
            bad.append(("counit-left", (k,)))
            break
        if right != basis[k]:
            bad.append(("counit-right", (k,)))
            break
    for k in range(n):
        # (Delta (x) id) Delta against (id (x) Delta) Delta
        dk = self.iterated_delta(basis[k], 1)
        if self.delta_at(dk, 0) != self.delta_at(dk, 1):
            bad.append(("coassociativity", (k,)))
            break
    done = False
    comult = tuple(nonzeros(m) for m in self.comult)
    for i in range(n):
        if done:
            break
        di = comult[i]
        for j in range(n):
            lhs = self.delta(self.mult[i][j])
            rhs = _t2_product(self, di, comult[j])
            if lhs != rhs:
                bad.append(("coproduct-multiplicativity", (i, j)))
                done = True
                break
    return tuple(bad)


def check(self):
    """The dense Algebra.check; raises ConstructionError on the first failure."""
    n = self.dim
    basis = [self.basis_vector(i) for i in range(n)]
    for i in range(n):
        if mul(self, self.unit, basis[i]) != basis[i] or mul(self, basis[i], self.unit) != basis[i]:
            raise ConstructionError("unit axiom fails at basis %d" % i)
    for i in range(n):
        for j in range(n):
            ij = mul(self, basis[i], basis[j])
            for k in range(n):
                if mul(self, ij, basis[k]) != mul(self, basis[i], mul(self, basis[j], basis[k])):
                    raise ConstructionError(
                        "associativity fails at (%d,%d,%d)" % (i, j, k)
                    )


def matrix_mul(self, other: Matrix) -> Matrix:
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


def matrix_apply(self, v) -> tuple:
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


def _combination(coeffs, mats, n):
    """The n x n matrix sum c M over coefficients paired with matrices."""
    return linear_combination(((c, nonzeros(m)) for c, m in zip(coeffs, mats) if c), n, n)


def p_op(algebra, sigma, phi):
    """The dual-action operator of _multiplier_realization."""
    n_ = algebra.dim
    if sigma == "L":
        rows = [
            [
                sum((algebra.comult[i][u, vv] * phi[u] for u in range(n_)), QZERO)
                for i in range(n_)
            ]
            for vv in range(n_)
        ]
    else:
        rows = [
            [
                sum((algebra.comult[i][u, vv] * phi[vv] for vv in range(n_)), QZERO)
                for i in range(n_)
            ]
            for u in range(n_)
        ]
    return Matrix(rows)


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------


def _variants(algebra):
    return [algebra, algebra.dual, algebra.opposite, algebra.coopposite]


def _random_scalar(rng):
    return Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _random_vector(rng, n, density=0.5):
    return tuple(_random_scalar(rng) if rng.random() < density else QZERO for _ in range(n))


def _random_matrix(rng, n, density=0.5):
    return Matrix([_random_vector(rng, n, density) for _ in range(n)])


def _perturbed(algebra, rng, kind):
    """algebra with one structure constant of mult, comult or both changed."""
    n = algebra.dim
    mult = [[list(cell) for cell in row] for row in algebra.mult]
    comult = [[list(r) for r in m.data] for m in algebra.comult]
    if kind in ("mult", "both"):
        i, j, k = (rng.randrange(n) for _ in range(3))
        mult[i][j][k] += _random_scalar(rng)
    if kind in ("comult", "both"):
        k, i, j = (rng.randrange(n) for _ in range(3))
        comult[k][i][j] += _random_scalar(rng)
    return WeakBialgebra(n, mult, algebra.unit, comult, algebra.counit, algebra.labels)


def _perturbed_pool(entries):
    rng = random.Random(20240611)
    pool = []
    for name in SMALL:
        if entries[name].algebra.dim < 2:
            continue
        for kind in ("mult", "comult", "both"):
            for _ in range(3):
                pool.append(_perturbed(entries[name].algebra, rng, kind))
    return pool


# ----------------------------------------------------------------------
# the kernels against the oracles
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_violations_match_dense_oracle(entries, name):
    rng = random.Random(name)
    base = entries[name].algebra
    algebras = _variants(base) + [monomial_scramble(base, rng) for _ in range(2)]
    for algebra in algebras:
        assert algebra.violations == violations(algebra) == ()


def test_violations_match_dense_oracle_off_the_axioms(entries):
    seen = set()
    for algebra in _perturbed_pool(entries):
        got = algebra.violations
        assert got == violations(algebra)
        seen.update(name for name, _ in got)
    # the pool reaches every check that compares products
    assert {"associativity", "coassociativity", "coproduct-multiplicativity"} <= seen
    assert {"unit-left", "unit-right"} & seen


# the structure maps that one constant can be moved in, with the length of
# an index into each
_TABLES = (("mult", 3), ("comult", 3), ("unit", 1), ("counit", 1))

_WITNESS_KINDS = {
    "unit-left",
    "unit-right",
    "associativity",
    "counit-left",
    "counit-right",
    "coassociativity",
    "coproduct-multiplicativity",
}


def _shifted(algebra, where, index, delta):
    """algebra with the constant at index of one structure map moved by delta."""
    parts = {
        "mult": [[list(cell) for cell in row] for row in algebra.mult],
        "comult": [[list(r) for r in m.data] for m in algebra.comult],
        "unit": list(algebra.unit),
        "counit": list(algebra.counit),
    }
    target = parts[where]
    for h in index[:-1]:
        target = target[h]
    target[index[-1]] += delta
    return WeakBialgebra(
        algebra.dim, parts["mult"], parts["unit"], parts["comult"], parts["counit"], algebra.labels
    )


def _shifted_pool(entries):
    """One-constant perturbations of the small catalog: the unit and counit
    vectors by random scalars, and every structure map by 1/7 and -1/11,
    denominators that no catalog instance has, so that a wrong lcm shows."""
    rng = random.Random(60311)
    pool = []
    for name in SMALL:
        base = entries[name].algebra
        for where, arity in _TABLES:
            deltas = [Q(1, 7), Q(-1, 11)]
            if where in ("unit", "counit"):
                deltas += [_random_scalar(rng) for _ in range(2)]
            for delta in deltas:
                index = tuple(rng.randrange(base.dim) for _ in range(arity))
                pool.append(_shifted(base, where, index, delta))
    return pool


def test_catalog_has_no_sevenths_or_elevenths(entries):
    for name in SMALL:
        algebra = entries[name].algebra
        tables = algebra._integer_tables
        for d in (tables.d_mult, tables.d_unit, tables.d_comult, tables.d_counit):
            assert d % 7 and d % 11


@pytest.mark.parametrize("name", SMALL)
def test_violations_match_fraction_oracle(entries, name):
    rng = random.Random("integer-tables:" + name)
    base = entries[name].algebra
    for algebra in _variants(base) + [monomial_scramble(base, rng) for _ in range(2)]:
        assert algebra.violations == fraction_violations(algebra) == ()


def test_violations_match_fraction_oracle_off_the_axioms(entries):
    seen = set()
    for algebra in _perturbed_pool(entries) + _shifted_pool(entries):
        got = algebra.violations
        assert got == fraction_violations(algebra)
        seen.update(name for name, _ in got)
    assert seen == _WITNESS_KINDS


def test_algebra_axiom_violations_match_fraction_oracle(entries):
    """The check that Algebra.check shares, on plain algebras too."""
    outcomes = set()
    for bialgebra in _shifted_pool(entries):
        plain = Algebra(bialgebra.dim, bialgebra.mult, bialgebra.unit, bialgebra.labels)
        for algebra in (bialgebra, plain):
            got = algebra_axiom_violations(algebra)
            assert got == fraction_algebra_axiom_violations(algebra)
            outcomes.update(name for name, _ in got)
    assert outcomes == {"unit-left", "unit-right", "associativity"}


def test_violations_match_fraction_oracle_on_random_perturbations(entries):
    """Property: moving one constant of mult, comult, unit or counit of a
    small catalog instance (or its dual, opposite or coopposite) by a random
    rational gives the oracle's violations.  Skipped when Hypothesis is not
    installed."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    deltas = st.fractions(min_value=-3, max_value=3, max_denominator=13).filter(bool)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.sampled_from(SMALL), st.integers(0, 3), st.sampled_from(_TABLES), deltas, st.data()
    )
    def agree(name, variant, table, delta, data):
        base = _variants(entries[name].algebra)[variant]
        where, arity = table
        index = tuple(data.draw(st.integers(0, base.dim - 1)) for _ in range(arity))
        algebra = _shifted(base, where, index, delta)
        assert algebra.violations == fraction_violations(algebra)

    agree()


@pytest.mark.parametrize("name", SMALL)
def test_mul_and_t2_mul_match_dense_oracle(entries, name):
    rng = random.Random("kernels:" + name)
    for algebra in _variants(entries[name].algebra):
        n = algebra.dim
        vectors = [algebra.unit, algebra.basis_vector(n - 1)]
        vectors += [_random_vector(rng, n, d) for d in (0.3, 1.0)]
        for a in vectors:
            for b in vectors:
                assert algebra.mul(a, b) == mul(algebra, a, b)
        matrices = list(algebra.comult[:2]) + [algebra.delta1]
        matrices += [_random_matrix(rng, n, d) for d in (0.2, 1.0)]
        for x in matrices:
            for y in matrices:
                assert algebra.t2_mul(x, y) == t2_mul(algebra, x, y)


def _shaped_matrix(rng, rows, cols, density):
    return Matrix.from_rows(
        [_random_vector(rng, cols, density) for _ in range(rows)], cols
    )


def _matrix_pairs(rng):
    """Seeded (a, b) with a * b defined: sparse, dense, with zero rows, and
    the 0 x n and n x 0 shapes on either side."""
    pairs = []
    for rows, inner, cols in ((3, 4, 5), (5, 5, 5), (1, 6, 2), (6, 1, 3)):
        for da in (0.0, 0.2, 0.6, 1.0):
            for db in (0.0, 0.3, 1.0):
                pairs.append(
                    (_shaped_matrix(rng, rows, inner, da), _shaped_matrix(rng, inner, cols, db))
                )
    zero_rows = Matrix([[0, 0, 0], [1, 0, 2], [0, 0, 0]])
    pairs.append((zero_rows, _shaped_matrix(rng, 3, 3, 1.0)))
    pairs.append((_shaped_matrix(rng, 3, 3, 1.0), zero_rows))
    for n in (1, 3):
        empty_rows = Matrix.from_rows([], n)  # 0 x n
        empty_cols = Matrix.from_rows([()] * n, 0)  # n x 0
        pairs.append((empty_rows, _shaped_matrix(rng, n, 2, 1.0)))
        pairs.append((_shaped_matrix(rng, 2, n, 1.0), empty_cols))
        pairs.append((empty_cols, empty_rows))  # n x n of zeros
        pairs.append((empty_rows, empty_cols))  # 0 x 0
    return pairs


def test_matrix_products_match_dense_oracle():
    rng = random.Random(5150)
    for a, b in _matrix_pairs(rng):
        assert a * b == matrix_mul(a, b)
        for v in (_random_vector(rng, a.cols, d) for d in (0.0, 0.4, 1.0)):
            assert a.apply(v) == matrix_apply(a, v)
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix.identity(2) * Matrix.identity(3)
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix.identity(2).apply((1, 2, 3))


class _Counted(Fraction):
    """A Fraction that counts the products it is the right factor of."""

    products = 0

    def __rmul__(self, other):
        _Counted.products += 1
        return Fraction.__rmul__(self, other)


def test_products_and_apply_multiply_only_nonzero_pairs():
    a = Matrix([[1, 0, 2], [0, 0, 3], [4, 5, 0]])
    v = tuple(_Counted(x) for x in (0, 2, 0))
    _Counted.products = 0
    assert a.apply(v) == matrix_apply(a, v) == (0, 0, 10)
    assert _Counted.products == 2  # a[2, 1] v[1], in the oracle and in apply
    b = Matrix._of_fractions([[_Counted(x) for x in row] for row in ((0, 1), (0, 0), (3, 0))], 2)
    _Counted.products = 0
    assert a * b == matrix_mul(a, b)
    # each oracle product of a nonzero a[i, k] and b[k, j] happens twice
    assert _Counted.products == 2 * 4


def test_operators_of_vectors_match_the_per_call_nonzeros_oracle(entries):
    """delta, left_mult_of, right_mult_of and ModuleRep.operator read the
    nonzero triples kept per instance; the oracle takes nonzeros() of every
    structure matrix on every call."""
    rng = random.Random("combination")
    pool = [a for name in SMALL for a in _variants(entries[name].algebra)]
    for algebra in pool + _perturbed_pool(entries):
        n = algebra.dim
        module = regular_module(algebra)
        for a in (algebra.unit, _random_vector(rng, n, 0.3), _random_vector(rng, n, 1.0)):
            assert algebra.delta(a) == _combination(a, algebra.comult, n)
            assert algebra.left_mult_of(a) == _combination(a, algebra.left_mult, n)
            assert algebra.right_mult_of(a) == _combination(a, algebra.right_mult, n)
            assert module.operator(a) == _combination(a, module.action, n)


def _catalog_matrices(algebra):
    out = [algebra.gram, algebra.delta1, algebra.comult[0], algebra.left_mult[-1]]
    out += [algebra.right_mult[0], algebra.comult[-1].transpose()]
    return out + list(algebra.projections.values())


@pytest.mark.parametrize("name", SMALL)
def test_catalog_products_and_tables_match_dense_oracles(entries, name):
    rng = random.Random("products:" + name)
    for algebra in _variants(entries[name].algebra):
        n = algebra.dim
        basis = [algebra.basis_vector(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert algebra.mult[i][j] == algebra.mul(basis[i], basis[j])
            assert algebra.left_mult[i] == algebra.left_mult_of(basis[i])
            assert algebra.right_mult[i] == algebra.right_mult_of(basis[i])
        matrices = _catalog_matrices(algebra)
        vectors = [algebra.unit, algebra.counit, basis[-1], _random_vector(rng, n)]
        for a in matrices:
            for b in matrices:
                assert a * b == matrix_mul(a, b)
            for v in vectors:
                assert a.apply(v) == matrix_apply(a, v)
        for sigma in "LR":
            for phi in basis + vectors:
                assert _dual_action_operator(algebra, sigma, phi) == p_op(algebra, sigma, phi)


def _plain_algebras(entries):
    """constructions.Algebra on the catalog's multiplications, plus some
    with one structure constant changed; none goes through Algebra.build."""
    rng = random.Random(7031)
    out = []
    for name in SMALL:
        base = entries[name].algebra
        out.append(Algebra(base.dim, base.mult, base.unit, base.labels))
        for _ in range(4):
            bad = _perturbed(base, rng, "mult")
            out.append(Algebra(bad.dim, bad.mult, bad.unit, bad.labels))
    return out


def _outcome(check_fn, algebra):
    try:
        check_fn(algebra)
    except ConstructionError as exc:
        return str(exc)
    return None


def test_algebra_check_matches_dense_oracle(entries):
    outcomes = []
    for algebra in _plain_algebras(entries):
        expected = _outcome(check, algebra)
        assert _outcome(Algebra.check, algebra) == expected
        outcomes.append(expected)
    assert None in outcomes
    assert any(o and o.startswith("unit") for o in outcomes)
    assert any(o and o.startswith("associativity") for o in outcomes)


def test_algebra_shares_the_kernels(entries):
    base = entries["example1"].algebra
    alg = Algebra.build(base.dim, base.mult, base.unit, base.labels)
    assert alg._mult_nonzeros == base._mult_nonzeros
    assert Algebra.mul is WeakBialgebra.mul


# ----------------------------------------------------------------------
# the trusted matrix path
# ----------------------------------------------------------------------


def _entries_are_fractions(m):
    return all(type(x) is Fraction for row in m.data for x in row)


def _matrices_from_int_inputs():
    """Every exactlin matrix result, built from inputs given as ints."""
    a = Matrix([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    b = Matrix.from_rows([(0, 1, 0), (1, 0, 0), (0, 0, 2)])
    span = Subspace.from_spanning([(1, 0, 0), (0, 1, 0)], 3)
    other = Subspace.from_spanning([(0, 1, 1), (2, 0, 0)], 3)
    solution = solve_affine(Matrix([[1, 1, 0]]), (1,))
    out = {
        "Matrix": a,
        "from_rows": b,
        "from_columns": Matrix.from_columns([(1, 0, 2), (0, 3, 0)], 3),
        "column": Matrix.column([1, 2, 3]),
        "zero": Matrix.zero(2, 3),
        "identity": Matrix.identity(3),
        "add": a + b,
        "sub": a - b,
        "neg": -a,
        "mul": a * b,
        "transpose": a.transpose(),
        "transpose-empty": Matrix.from_rows([], 3).transpose(),
        "rref": rref(a),
        "inverse": inverse(a),
        "kron": kron(a, b),
        "linear_combination": linear_combination([(2, [(0, 1, 3)]), (1, [(1, 0, 1)])], 2, 2),
        "outer": outer((1, 0, 2), (3, 1)),
        "from_spanning": span.basis,
        "add-subspaces": span.add(other).basis,
        "intersect": span.intersect(other).basis,
        "kernel": kernel(Matrix([[1, 1, 0]])).basis,
        "image": image(Matrix([[1, 0], [2, 0], [0, 1]])).basis,
        "row_space": row_space(Matrix([[2, 4, 0], [1, 2, 0]])).basis,
        "solve_affine-kernel": solution[1].basis,
    }
    return out


def test_exactlin_results_hold_only_fractions():
    for label, m in _matrices_from_int_inputs().items():
        assert _entries_are_fractions(m), label


def test_exactlin_vectors_hold_only_fractions():
    a = Matrix([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    vectors = {
        "apply": a.apply((1, 0, 2)),
        "apply-zero": a.apply((0, 0, 0)),
        "mul-empty-inner": (Matrix.from_rows([()] * 2, 0) * Matrix.from_rows([], 2)).flatten(),
        "solve_affine-particular": solve_affine(Matrix([[1, 0], [0, 1]]), (1, 2))[0],
        "solve_affine-zero": solve_affine(Matrix([[1, 1, 0]]), (0,))[0],
        "coordinates": Subspace.from_spanning([(1, 0, 0)], 3).coordinates((2, 0, 0)),
    }
    for label, v in vectors.items():
        assert v and all(type(x) is Fraction for x in v), label
    assert vectors["solve_affine-particular"] == (1, 2)
    assert vectors["coordinates"] == (2,)


@pytest.mark.parametrize("name", SMALL)
def test_t2_mul_holds_only_fractions(entries, name):
    algebra = entries[name].algebra
    n = algebra.dim
    ints = Matrix.from_rows([[(i + j) % 2 for j in range(n)] for i in range(n)])
    for x in (algebra.delta1, ints):
        assert _entries_are_fractions(algebra.t2_mul(x, ints))
        assert _entries_are_fractions(algebra.t2_mul(ints, x))


def test_trusted_rows_keep_the_ragged_check():
    with pytest.raises(ValueError, match="ragged"):
        Matrix._of_fractions([(QZERO, QZERO), (QZERO,)], 2)


# ----------------------------------------------------------------------
# comodule tensor products on the weak Hopf instance adcross:z2,z2
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["base", "dual", "opposite", "coopposite"])
def test_comodule_tensor_of_regular_comodule(entries, variant):
    # single terms of the truncated coaction leave the carrier here; the
    # summed components do not
    algebra = entries["adcross:z2,z2"].algebra
    if variant != "base":
        algebra = getattr(algebra, variant)
    com = regular_comodule(algebra)
    report = comodule_tensor(com, com)
    assert [c.name for c in report.checks] == [
        "coaction-bimodule-compatibility",
        "counit-recovery",
        "amalgamated-truncated-isomorphism",
    ]
    assert all(c.hypotheses_met and c.conclusion_holds for c in report.checks)
