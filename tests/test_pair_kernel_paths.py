"""Differential tests for the paths built on the pair-product kernel.

Convolution is one kernel call against the stacked coproduct; the unit words
of a rigidity structure and the intertwiner words are convolutions; the
quasi-basis centrality identity compares two operators; Gram matrices are
one pairing; and the quotient coordinates of the minimal constructions and
of the amalgamated comodule tensor come from Subspace.quotient_coordinates.
The bodies these replaced are kept here verbatim as oracles (convolution's
per-leg body lives in test_suite_oracles; its all-pairs body, which
multiplied every pair of images before the coproduct picked the pairs it
reaches, is kept here) and compared with the shipped
paths on the catalog instances of dimension at most 9 with their duals,
opposites and coopposites, on one-constant perturbations, and on seeded
maps, structures and subspaces.
"""

import random

import pytest

from test_kernels import _perturbed_pool, _random_matrix, _random_vector, _variants
from test_suite_oracles import NAMES, _records, _structures, convolve
from weakhopf import antipode, rigidity
from weakhopf.antipode import NondegenerateFunctional, SelfCheckError, _kept_convolution
from weakhopf.constructions import Algebra, Amalgamation, _Carrier
from weakhopf.exactlin import (
    Matrix,
    Q,
    QZERO,
    Subspace,
    inverse,
    linear_combination,
    nonzeros,
    outer,
    outer_nonzeros,
    unit_vec,
    vdot,
    vec,
    vector_combination,
)
from weakhopf.core import _stacked, decide_axioms
from weakhopf.rigidity import RigidityStructure, TwistPair, _adjoint_maps, verify_rigidity

# ----------------------------------------------------------------------
# oracles: the replaced bodies as they were
# ----------------------------------------------------------------------


def convolve_all_pairs(algebra, s: Matrix, t: Matrix) -> Matrix:
    """Convolution product of two endomorphisms given by their matrices.

    Row u * n + v of the pair products of the rows of S^t and T^t is
    S(e_u) T(e_v), so the stacked coproduct times them has row k equal to
    (S * T)(e_k), which is column k of S * T."""
    pairs = algebra.products(s.transpose(), t.transpose())
    return (_stacked(algebra.comult, algebra.dim) * pairs).transpose()


def _unit_words(algebra, s, alpha, beta, x):
    """x_(1) beta S(x_(2)) alpha x_(3) and S(x_(1)) alpha x_(2) beta S(x_(3)).

    Over (id (x) Delta) Delta(x) the last two legs of each word make a
    column of an adjoint map, so the words are x_(1) beta A(x_(2)) and
    S(x_(1)) alpha B(x_(2)), with A and B the adjoint maps of (S, alpha,
    beta): one pair of products per coproduct term of x.
    """
    mul = algebra.mul
    n = algebra.dim
    adj_a, adj_b = _adjoint_maps(algebra, s, alpha, beta)
    a_cols = adj_a.transpose().data
    b_cols = adj_b.transpose().data
    s_cols = s.transpose().data
    legs = nonzeros(algebra.delta(x))
    first = vector_combination(
        ((c, mul(mul(algebra.basis_vector(p), beta), a_cols[y])) for p, y, c in legs), n
    )
    second = vector_combination(
        ((c, mul(mul(s_cols[p], alpha), b_cols[y])) for p, y, c in legs), n
    )
    return first, second


def _absorption_identities(algebra, s, alpha, beta) -> bool:
    """Unit absorption: the alternating adjoint words collapse elementwise."""
    n = algebra.dim
    mul = algebra.mul
    basis = [algebra.basis_vector(i) for i in range(n)]
    for t in range(n):
        first, second = _unit_words(algebra, s, alpha, beta, basis[t])
        if first != basis[t] or second != s.col(t):
            return False
    for t in range(n):
        d5 = algebra.iterated_delta(basis[t], 5).items()
        lhs = linear_combination(
            (
                (
                    c,
                    outer_nonzeros(
                        mul(mul(mul(basis[a1], beta), s.col(a4)), mul(alpha, basis[a5])),
                        mul(mul(mul(basis[a2], beta), s.col(a3)), mul(alpha, basis[a6])),
                    ),
                )
                for (a1, a2, a3, a4, a5, a6), c in d5
            ),
            n,
            n,
        )
        if lhs != algebra.comult[t]:
            return False
        lhs2 = linear_combination(
            (
                (
                    c,
                    outer_nonzeros(
                        mul(mul(mul(s.col(a2), alpha), basis[a3]), mul(beta, s.col(a6))),
                        mul(mul(mul(s.col(a1), alpha), basis[a4]), mul(beta, s.col(a5))),
                    ),
                )
                for (a1, a2, a3, a4, a5, a6), c in d5
            ),
            n,
            n,
        )
        rhs2 = linear_combination(
            ((c, outer_nonzeros(s.col(v), s.col(u))) for u, v, c in nonzeros(algebra.comult[t])),
            n,
            n,
        )
        if lhs2 != rhs2:
            return False
    return True


def uniqueness_intertwiners(r1: RigidityStructure, r2: RigidityStructure) -> TwistPair:
    """The canonical pair intertwining two rigidity structures on the same
    algebra; every identity of the intertwining table is verified."""
    algebra = r1.algebra
    if r2.algebra != algebra:
        raise ValueError("structures live on different algebras")
    normalized = []
    for r in (r1,) if r2 is r1 else (r1, r2):
        check = verify_rigidity(algebra, r)
        if check.status in ("failed", "pre_rigid"):
            raise ValueError("intertwiners need verified rigid structures")
        normalized.append((check.normalized_alpha, check.normalized_beta))
    (a1, b1), (a2, b2) = normalized[0], normalized[-1]
    mul = algebra.mul
    legs = nonzeros(algebra.delta1)

    def word(first, second):
        """S(1_(1)) a 1_(2) b' S'(1_(3)) for normalized structures (S, a, b)
        and (S', a', b'), as S(1_(1)) a B'(1_(2)) with B' the adjoint map
        y -> y_(1) b' S'(y_(2)) of the second."""
        (s_f, a_f, _), (s_s, a_s, b_s) = first, second
        # S(e_p) a for every p at once
        f_a = algebra.products(s_f.transpose(), Matrix._of_fractions([vec(a_f)], algebra.dim)).data
        b_cols = _adjoint_maps(algebra, s_s, a_s, b_s)[1].transpose().data
        return vector_combination(
            ((c, mul(f_a[p], b_cols[y])) for p, y, c in legs), algebra.dim
        )

    one, two = (r1.s, a1, b1), (r2.s, a2, b2)
    # u = S2(1_(1)) a2 1_(2) b1 S1(1_(3)) and ubar with the structures
    # swapped, which is u itself when they are one structure
    u = word(two, one)
    ubar = u if r2 is r1 else word(one, two)
    # u S1(e_t) = S2(e_t) u and ubar S2(e_t) = S1(e_t) ubar over every t
    n = algebra.dim
    u_row = Matrix._of_fractions([u], n)
    ubar_row = Matrix._of_fractions([ubar], n)
    s1_t, s2_t = r1.s.transpose(), r2.s.transpose()
    table = [
        algebra.products(u_row, s1_t) == algebra.products(s2_t, u_row),
        algebra.products(ubar_row, s2_t) == algebra.products(s1_t, ubar_row),
    ]
    table.append(a2 == algebra.mul(u, a1))
    table.append(a1 == algebra.mul(ubar, a2))
    table.append(b2 == algebra.mul(b1, ubar))
    table.append(b1 == algebra.mul(b2, u))
    table.append(algebra.mul(u, ubar) == r2.s.apply(algebra.unit))
    table.append(algebra.mul(ubar, u) == r1.s.apply(algebra.unit))
    table.append(algebra.mul(algebra.mul(u, ubar), u) == u)
    table.append(algebra.mul(algebra.mul(ubar, u), ubar) == ubar)
    if not all(table):
        raise SelfCheckError("intertwining identity table failed")
    return TwistPair(u=u, ubar=ubar)


def quasi_basis(algebra, omega, space: Subspace):
    """Form-inverse data of a functional restricted to a unital subalgebra.

    Returns None when the restricted pairing (m1, m2) -> omega(m1 m2) is
    degenerate.  Otherwise the dual tensor, its index and the modular
    automorphism are computed and their defining identities verified.
    """
    if not algebra.is_unital_subalgebra(space):
        raise ValueError("quasi-basis support must be a unital subalgebra")
    omega = tuple(omega)
    basis_m = space.basis
    basis = basis_m.data
    k = len(basis)
    # products of basis pairs, once each (row j * k + l is b_j b_l, shared
    # with the subalgebra test); omega of one is a Gram entry
    prod_m = algebra.basis_products(space)
    prods = prod_m.data
    omegas = prod_m.apply(omega)
    gram = Matrix._of_fractions([omegas[i * k : (i + 1) * k] for i in range(k)], k)
    ginv = inverse(gram)
    if ginv is None:
        return None
    n = algebra.dim
    # the dual tensor sums ginv[j, l] basis[j] (x) basis[l]
    pairs = [(ginv[j, l], j, l) for j in range(k) for l in range(k) if ginv[j, l]]
    quasi = linear_combination(
        ((c, outer_nonzeros(basis[j], basis[l])) for c, j, l in pairs), n, n
    )
    index = vector_combination(((c, prods[j * k + l]) for c, j, l in pairs), n)
    # the defining reproduction identities, then centrality of the tensor
    for i, m in enumerate(basis):
        got = vector_combination(((c * gram[i, j], basis[l]) for c, j, l in pairs), n)
        got2 = vector_combination(((c * gram[l, i], basis[j]) for c, j, l in pairs), n)
        if got != m or got2 != m:
            raise SelfCheckError("quasi-basis reproduction identities failed")
        left = algebra.t2_mul(outer(m, algebra.unit), quasi)
        right = algebra.t2_mul(quasi, outer(algebra.unit, m))
        if left != right:
            raise SelfCheckError("quasi-basis centrality identity failed")
    index_m = Matrix._of_fractions([index], n)
    if algebra.products(index_m, basis_m) != algebra.products(basis_m, index_m):
        raise SelfCheckError("index is not central in its subalgebra")
    modular = ginv * gram.transpose()
    auto = True
    # theta_i = sum_j modular[j, i] basis[j], as the rows of modular^t B
    theta_m = modular.transpose() * basis_m
    theta_prods = algebra.products(theta_m, theta_m)
    for i in range(k):
        for j in range(k):
            lhs = modular.apply(space.coordinates(prods[i * k + j]))
            rhs = space.coordinates(theta_prods.row(i * k + j))
            if lhs != rhs:
                auto = False
    # omega(x y) = omega(y theta(x)) on basis pairs
    if algebra.reversed_products(theta_m, basis_m).apply(omega) != omegas:
        raise SelfCheckError("modular automorphism identity failed")
    return NondegenerateFunctional(
        space=space,
        omega=omega,
        gram=gram,
        quasi_tensor=quasi,
        index=index,
        modular=modular,
        modular_is_automorphism=auto,
    )


def algebra_gram(alg, omega):
    n = alg.dim
    return Matrix(
        [
            [vdot(omega, alg.mul(alg.basis_vector(i), alg.basis_vector(j))) for j in range(n)]
            for i in range(n)
        ]
    )


def _carrier_reduce(reducer, free, v):
    """_Carrier.reduce as it was, with its reducer (None when nothing is
    amalgamated) and free columns passed in."""
    v = list(v)
    if reducer is not None:
        for row in reducer.basis.sparse_rows:
            f = v[row[0][0]]
            if f:
                for c, x in row:
                    v[c] -= f * x
    return tuple(v[c] for c in free)


def _free_columns(relspace, plain):
    """The free columns comodule_tensor and _Carrier computed by hand."""
    pivots = {row[0][0] for row in relspace.basis.sparse_rows}
    return [c for c in range(plain) if c not in pivots]


def _reduce_vec(relspace, free, vecr):
    """reduce_vec of comodule_tensor as it was, over its relation space."""
    vecr = list(vecr)
    for row in relspace.basis.sparse_rows:
        f = vecr[row[0][0]]
        if f:
            for c, x in row:
                vecr[c] -= f * x
    return tuple(vecr[c] for c in free)


def _outcome(build, *args):
    """What build returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except (ValueError, SelfCheckError) as err:
        return type(err), str(err)


# ----------------------------------------------------------------------
# the shipped paths against the oracles
# ----------------------------------------------------------------------


def _maps(algebra, rng):
    """Zero, the identity and a sparse and a dense seeded map."""
    n = algebra.dim
    return [Matrix.zero(n, n), Matrix.identity(n), _random_matrix(rng, n, 0.3), _random_matrix(rng, n, 1.0)]


@pytest.mark.parametrize("name", NAMES)
def test_convolve_matches_the_per_leg_oracle(entries, name):
    rng = random.Random("convolve:" + name)
    for algebra in _variants(entries[name].algebra):
        maps = _maps(algebra, rng)
        for s in maps:
            for t in maps:
                assert antipode.convolve(algebra, s, t) == convolve(algebra, s, t)


@pytest.mark.parametrize("name", NAMES)
def test_convolve_matches_the_all_pairs_oracle(entries, name):
    """Only the leg pairs the coproduct reaches are multiplied; the result
    is the full stacked coproduct times all n^2 pair products."""
    rng = random.Random("convolve-all-pairs:" + name)
    for algebra in _variants(entries[name].algebra):
        maps = _maps(algebra, rng)
        for s in maps:
            for t in maps:
                assert antipode.convolve(algebra, s, t) == convolve_all_pairs(algebra, s, t)


def test_convolve_matches_the_all_pairs_oracle_off_the_axioms(entries):
    rng = random.Random("convolve-perturbed")
    for algebra in _perturbed_pool(entries)[::3]:
        s, t = _random_matrix(rng, algebra.dim, 0.5), _random_matrix(rng, algebra.dim, 1.0)
        assert antipode.convolve(algebra, s, t) == convolve_all_pairs(algebra, s, t)


@pytest.mark.parametrize("name", NAMES)
def test_pairing_matches_the_gram_loops(entries, name):
    rng = random.Random("pairing:" + name)
    for algebra in _variants(entries[name].algebra):
        n = algebra.dim
        assert algebra.gram == algebra_gram(algebra, algebra.counit)
        for phi in (algebra.unit, _random_vector(rng, n, 0.3), _random_vector(rng, n, 1.0)):
            assert algebra.pairing(phi) == algebra_gram(algebra, phi)
    plain = Algebra.build(2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0])
    for omega in ((Q(1), QZERO), (Q(1, 2), Q(-3))):
        assert plain.pairing(omega) == algebra_gram(plain, omega)


@pytest.mark.parametrize("name", NAMES)
def test_rigidity_words_match_the_per_leg_oracles(entries, name):
    """The unit words on the unit and on each basis vector and the
    intertwiners of each verified structure with itself, on structures
    around the solved antipode."""
    for algebra in _records(entries, name):
        if not decide_axioms(algebra).monoidal:
            continue
        for r in _structures(algebra):
            alpha, beta = tuple(r.alpha), tuple(r.beta)
            check = rigidity.verify_rigidity(algebra, r)
            if check.status not in ("failed", "pre_rigid"):
                alpha, beta = check.normalized_alpha, check.normalized_beta
                assert rigidity.uniqueness_intertwiners(r, r) == uniqueness_intertwiners(r, r)
            for x in [algebra.unit] + [algebra.basis_vector(t) for t in range(algebra.dim)]:
                assert rigidity._unit_words(algebra, r.s, alpha, beta, x) == _unit_words(algebra, r.s, alpha, beta, x)


def test_absorption_identities_match_the_per_leg_oracle(entries):
    """On the monoidal records of dimension at most 3 (the fivefold
    coproduct of the oracle's second loop grows as dim^5) and their
    structures around the solved antipode, normalized or not, so that both
    verdicts are reached."""
    verdicts = set()
    for name in NAMES:
        for algebra in _records(entries, name):
            if algebra.dim > 3 or not decide_axioms(algebra).monoidal:
                continue
            for r in _structures(algebra):
                pairs = {(tuple(r.alpha), tuple(r.beta))}
                check = rigidity.verify_rigidity(algebra, r)
                if check.normalized_alpha is not None:
                    pairs.add((check.normalized_alpha, check.normalized_beta))
                for alpha, beta in pairs:
                    absorbed = rigidity._absorption_identities(algebra, r.s, alpha, beta)
                    assert absorbed == _absorption_identities(algebra, r.s, alpha, beta)
                    verdicts.add(absorbed)
    assert verdicts == {True, False}


def test_intertwiners_match_the_per_leg_oracle_on_distinct_structures(entries):
    """A normal structure on bsz-dual:2 against one twisted by an invertible
    u, and each against itself; the convolution kept for one S is not
    reused for the other."""
    alg = entries["bsz-dual:2"].algebra
    s = antipode.solve_antipode(alg).matrix
    normal = RigidityStructure(alg, s, alg.unit, alg.unit)
    u = tuple(Q(x) for x in (1, 2, 2, 1))
    twisted = rigidity.twist(normal, TwistPair(u=u, ubar=inverse(alg.left_mult_of(u)).apply(alg.unit)))
    for a, b in ((normal, twisted), (twisted, normal), (twisted, twisted)):
        assert rigidity.uniqueness_intertwiners(a, b) == uniqueness_intertwiners(a, b)
    ident = Matrix.identity(alg.dim)
    assert _kept_convolution(alg, ident, s) == convolve(alg, ident, s)


@pytest.mark.parametrize("name", NAMES)
def test_quasi_basis_centrality_matches_the_tensor_square_loop(entries, name):
    for algebra in _records(entries, name):
        spaces = [algebra.subspaces[key] for key in ("A_L", "A_R")] + [Subspace.full(algebra.dim)]
        for space in spaces:
            if not algebra.is_unital_subalgebra(space):
                continue
            for omega in (algebra.counit, tuple(Q(i + 1) for i in range(algebra.dim))):
                got = _outcome(antipode.quasi_basis, algebra, omega, space)
                assert got == _outcome(quasi_basis, algebra, omega, space)


def test_quasi_basis_centrality_fails_alike_off_the_axioms(entries):
    """On one-constant perturbations of the multiplication that keep the
    unit laws, where (m (x) 1) Q is L_m Q and Q (1 (x) m) is Q R_m^t, the
    centrality identity of the full space fails on some and holds on
    others, in both forms alike."""
    outcomes = set()
    for algebra in _perturbed_pool(entries):
        failed = {name for name, _ in algebra.violations}
        if failed & {"unit-left", "unit-right"}:
            continue
        space = Subspace.full(algebra.dim)
        for omega in (algebra.counit, tuple(Q(i + 1) for i in range(algebra.dim))):
            got = _outcome(antipode.quasi_basis, algebra, omega, space)
            assert got == _outcome(quasi_basis, algebra, omega, space)
            outcomes.add(got if isinstance(got, tuple) else type(got))
    assert (SelfCheckError, "quasi-basis centrality identity failed") in outcomes
    assert NondegenerateFunctional in outcomes


def test_quotient_coordinates_match_the_hand_written_reducers():
    rng = random.Random("quotient-coordinates")
    for plain in (1, 4, 9, 12):
        for rank_bound in range(0, plain + 1, max(1, plain // 3)):
            rel = [_random_vector(rng, plain, 0.4) for _ in range(rank_bound)]
            relspace = Subspace.from_spanning(rel, plain)
            free = _free_columns(relspace, plain)
            assert relspace.free_columns == tuple(free)
            vectors = [unit_vec(plain, pos) for pos in range(plain)]
            vectors += [_random_vector(rng, plain, d) for d in (0.3, 1.0)] + rel
            for v in vectors:
                got = relspace.quotient_coordinates(v)
                assert got == _reduce_vec(relspace, free, v) == _carrier_reduce(relspace, free, v)
                assert all(type(x) is Q for x in got)
    # nothing amalgamated: the coordinates are the vector itself
    v = _random_vector(rng, 6, 0.5)
    assert Subspace.zero(6).quotient_coordinates(v) == _carrier_reduce(None, range(6), v) == v


def test_carrier_reduces_like_the_hand_written_reducer():
    a1 = Algebra.diagonal(2)
    a2 = Algebra.diagonal(2, labels=["f1", "f2"])
    amalg = Amalgamation(
        dim=2,
        into_first=(unit_vec(2, 0), unit_vec(2, 1)),
        into_second=(unit_vec(2, 0), unit_vec(2, 1)),
    )
    rng = random.Random("carrier")
    for carrier in (_Carrier(a1, a2), _Carrier(a1, a2, amalg)):
        reducer = carrier.reducer if carrier.amalg is not None else None
        assert list(carrier.free) == _free_columns(carrier.reducer, carrier.full_dim)
        for v in [unit_vec(4, pos) for pos in range(4)] + [_random_vector(rng, 4, 1.0)]:
            assert carrier.reduce(v) == _carrier_reduce(reducer, carrier.free, v)
    assert _Carrier(a1, a2, amalg).dim == 2
