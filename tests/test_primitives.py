"""Differential tests for the shared primitives.

The adjoint maps of rigidity structures, the pre-pode conditions and the
iterated coproducts each had their own hand-written loops; they now go
through convolve and one k-fold coproduct.  The old loops are kept here
verbatim as oracles.
"""

import random

import pytest

from weakhopf.antipode import classify_weak_hopf, convolve, is_pre_pode, sigma_maps, solve_antipode
from weakhopf.core import WeakBialgebra, decide_axioms
from weakhopf.exactlin import Matrix, Q, QZERO, inverse, outer, vadd, vscale, zero_vec
from weakhopf.rigidity import _adjoint_maps

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
# oracles: the loops the shared primitives replaced
# ----------------------------------------------------------------------


def _adjoint_left_matrix(algebra, s, alpha):
    """Column t is S(e_t_(1)) alpha e_t_(2)."""
    n = algebra.dim
    cols = []
    for t in range(n):
        acc = zero_vec(n)
        for u, row in enumerate(algebra.comult[t].data):
            for v, c in enumerate(row):
                if c:
                    acc = vadd(
                        acc,
                        vscale(
                            c,
                            algebra.mul(
                                algebra.mul(s.col(u), alpha), algebra.basis_vector(v)
                            ),
                        ),
                    )
        cols.append(acc)
    return Matrix([[cols[t][i] for t in range(n)] for i in range(n)])


def _adjoint_right_matrix(algebra, s, beta):
    """Column t is e_t_(1) beta S(e_t_(2))."""
    n = algebra.dim
    cols = []
    for t in range(n):
        acc = zero_vec(n)
        for u, row in enumerate(algebra.comult[t].data):
            for v, c in enumerate(row):
                if c:
                    acc = vadd(
                        acc,
                        vscale(
                            c,
                            algebra.mul(
                                algebra.mul(algebra.basis_vector(u), beta), s.col(v)
                            ),
                        ),
                    )
        cols.append(acc)
    return Matrix([[cols[t][i] for t in range(n)] for i in range(n)])


def pre_pode_accumulators(algebra, sbar: Matrix):
    """The two accumulators of the old is_pre_pode, as matrices with column
    k; it compared them with the RR and LL projections."""
    n = algebra.dim
    cols1 = []
    cols2 = []
    for k in range(n):
        acc1 = zero_vec(n)
        acc2 = zero_vec(n)
        for u, row in enumerate(algebra.comult[k].data):
            for v, c in enumerate(row):
                if c:
                    acc1 = vadd(acc1, vscale(c, algebra.mul(algebra.basis_vector(v), sbar.col(u))))
                    acc2 = vadd(acc2, vscale(c, algebra.mul(sbar.col(v), algebra.basis_vector(u))))
        cols1.append(acc1)
        cols2.append(acc2)
    return (
        Matrix([[cols1[k][i] for k in range(n)] for i in range(n)]),
        Matrix([[cols2[k][i] for k in range(n)] for i in range(n)]),
    )


def _delta_n(algebra, a, k):
    """Sparse dict of the k-fold iterated coproduct ((k+1)-tuples of legs)."""
    out = {}
    da = algebra.delta(a)
    for u, row in enumerate(da.data):
        for v, c in enumerate(row):
            if c:
                out[(u, v)] = out.get((u, v), QZERO) + c
    for _ in range(k - 1):
        nxt = {}
        for key, c in out.items():
            last = key[-1]
            for i, row in enumerate(algebra.comult[last].data):
                for j, e in enumerate(row):
                    if e:
                        nk = key[:-1] + (i, j)
                        val = nxt.get(nk, QZERO) + c * e
                        if val:
                            nxt[nk] = val
                        else:
                            nxt.pop(nk, None)
        out = nxt
    return out


def delta2(self, a):
    """Coefficients of the twice-iterated coproduct as a sparse dict."""
    out = {}
    da = self.delta(a)
    for u, row in enumerate(da.data):
        for v, c in enumerate(row):
            if not c:
                continue
            du = self.comult[u]
            for i, drow in enumerate(du.data):
                for j, e in enumerate(drow):
                    if e:
                        key = (i, j, v)
                        val = out.get(key, QZERO) + c * e
                        if val:
                            out[key] = val
                        else:
                            out.pop(key, None)
    return out


def delta2_right(self, a):
    """Same triple coproduct computed by expanding the second leg."""
    out = {}
    da = self.delta(a)
    for u, row in enumerate(da.data):
        for v, c in enumerate(row):
            if not c:
                continue
            dv = self.comult[v]
            for j, drow in enumerate(dv.data):
                for k, e in enumerate(drow):
                    if e:
                        key = (u, j, k)
                        val = out.get(key, QZERO) + c * e
                        if val:
                            out[key] = val
                        else:
                            out.pop(key, None)
    return out


def _outer(u, v):
    return Matrix([[x * y for y in v] for x in u])


# ----------------------------------------------------------------------
# the merged forms against the oracles
# ----------------------------------------------------------------------


def _random_vector(rng, n):
    return tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))


def _random_matrix(rng, n):
    return Matrix([_random_vector(rng, n) for _ in range(n)])


@pytest.mark.parametrize("name", SMALL)
def test_adjoint_maps_are_convolutions(entries, name):
    algebra = entries[name].algebra
    n = algebra.dim
    rng = random.Random(name)
    ident = Matrix.identity(n)
    for _ in range(3):
        s = _random_matrix(rng, n)
        alpha = _random_vector(rng, n)
        beta = _random_vector(rng, n)
        left = _adjoint_left_matrix(algebra, s, alpha)
        right = _adjoint_right_matrix(algebra, s, beta)
        assert convolve(algebra, algebra.right_mult_of(alpha) * s, ident) == left
        assert convolve(algebra, algebra.right_mult_of(beta), s) == right
        assert _adjoint_maps(algebra, s, alpha, beta) == (left, right)


@pytest.mark.parametrize("name", SMALL)
def test_pre_pode_is_coopposite_convolution(entries, name):
    algebra = entries[name].algebra
    n = algebra.dim
    rng = random.Random(name)
    ident = Matrix.identity(n)
    candidates = [_random_matrix(rng, n) for _ in range(3)]
    status = solve_antipode(algebra)
    if status.exists and status.bijective:
        candidates.append(inverse(status.matrix))
    for sbar in candidates:
        acc1, acc2 = pre_pode_accumulators(algebra, sbar)
        assert convolve(algebra.coopposite, ident, sbar) == acc1
        assert convolve(algebra.coopposite, sbar, ident) == acc2
        old = acc1 == algebra.projection("R", "R") and acc2 == algebra.projection("L", "L")
        assert is_pre_pode(algebra, sbar) == old
    if status.exists and status.pode_inverse:
        assert is_pre_pode(algebra, candidates[-1])


@pytest.mark.parametrize("name", SMALL)
def test_iterated_coproduct_matches_old_expansions(entries, name):
    algebra = entries[name].algebra
    n = algebra.dim
    rng = random.Random(name)
    elements = [algebra.basis_vector(i) for i in range(n)]
    elements += [algebra.unit, _random_vector(rng, n)]
    for a in elements:
        first_leg = delta2(algebra, a)
        second_leg = delta2_right(algebra, a)
        assert algebra.delta2(a) == second_leg == first_leg
        da = algebra.iterated_delta(a, 1)
        assert algebra.delta_at(da, 0) == first_leg
        assert algebra.delta_at(da, 1) == second_leg
        for k in range(2, 6):
            assert algebra.iterated_delta(a, k) == _delta_n(algebra, a, k)


def test_leg_expansions_differ_off_coassociativity():
    # e0 is the unit and every other product vanishes; the coproduct of e2
    # is not coassociative
    mult = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        mult[0][i][i] = mult[i][0][i] = 1
    comult = [
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 1], [1, 0, 0]],
    ]
    algebra = WeakBialgebra(3, mult, [1, 0, 0], comult, [1, 0, 0])
    e2 = algebra.basis_vector(2)
    d = algebra.iterated_delta(e2, 1)
    assert algebra.delta_at(d, 0) == delta2(algebra, e2)
    assert algebra.delta_at(d, 1) == delta2_right(algebra, e2)
    assert algebra.delta_at(d, 0) != algebra.delta_at(d, 1)


@pytest.mark.parametrize("name", SMALL)
def test_outer_product(entries, name):
    algebra = entries[name].algebra
    rng = random.Random(name)
    u = _random_vector(rng, algebra.dim)
    assert outer(u, algebra.unit) == _outer(u, algebra.unit)
    assert outer(algebra.counit, u) == _outer(algebra.counit, u)


@pytest.mark.parametrize("name", SMALL)
def test_verdicts_are_computed_once(entries, name):
    algebra = entries[name].algebra
    assert decide_axioms(algebra) is decide_axioms(algebra)
    assert sigma_maps(algebra) is sigma_maps(algebra)
    assert solve_antipode(algebra) is solve_antipode(algebra)
    assert classify_weak_hopf(algebra).antipode is solve_antipode(algebra)
    assert classify_weak_hopf(algebra).axioms is decide_axioms(algebra)
