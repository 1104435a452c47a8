"""Differential tests for the O(nnz) structure-constant kernels.

mul, t2_mul and the unit and associativity checks of violations loop over
per-(i, j) nonzero lists of the multiplication tensor, and Algebra.check
shares the same check.  The dense loops they replaced are kept here
verbatim as oracles.  A sweep of the trusted matrix path follows: every
matrix that exactlin builds from Fraction arithmetic, and every t2_mul
product, must hold only Fraction entries, also when the inputs were ints.
The last tests take comodule tensor products on adcross:z2,z2.
"""

import random
from fractions import Fraction

import pytest

from conftest import monomial_scramble
from weakhopf.constructions import Algebra, ConstructionError
from weakhopf.core import WeakBialgebra
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
)
from weakhopf.repcat import comodule_tensor, regular_comodule

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
# oracles: the dense loops the kernels replaced (self is the algebra)
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
