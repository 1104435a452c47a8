"""Differential tests for the sparse spans, membership tests and per-basis
identities.

Subspace.contains_subspace is one row_coordinates of the other basis, and
is_unital_subalgebra one row_coordinates of the basis products; the center
is the kernel of the stacked L_t - R_t; the images of the center parts of
the fixed-point duality and of the hyper-center are row spaces B M^t of a
basis B; invariant_functional_check compares the exchange identity over
every basis pair at once; dual_rigidity_structure decides shared-wedge
linearity and descent with one product each and reads S and alpha off one
coefficient matrix.

The dense forms they replaced are copied here as oracles: the row-by-row
membership tests, the per-t center loop, the from_spanning spans over
dense images, the n^2 loop of vector combinations with its first witness,
and the .data loops of the dual rigidity construction.  (The repcat spans,
row_space, rank and kernel of the stacked unit actions, are compared with
their loops in test_repcat_oracles.py and test_suite_oracles.py.)

The inputs are the catalog records of dimension at most 9 with their duals,
opposites and coopposites, and six seeded monomial transports with
non-integral scales.
"""

import random

import pytest

from weakhopf import Matrix, Q, Subspace, WeakBialgebra, decide_axioms
from weakhopf.antipode import (
    FunctionalCriterionVerdict,
    SelfCheckError,
    classify_weak_hopf,
    invariant_functional_check,
    is_anti_comultiplicative,
    is_anti_multiplicative,
    solve_antipode,
)
from weakhopf.constructions import build_example1, catalog, catalog_names, example2_cross_map
from weakhopf.core import TheoremCheck, _fixed_point_mapping, _hyper_center, direct_sum, transport
from weakhopf.exactlin import (
    inverse,
    kernel,
    nonzeros,
    particular_solution,
    rank,
    row_space,
    solve_affine,
    vdot,
    vector_combination,
)
from weakhopf.rigidity import RigidityStructure, dual_rigidity_structure, verify_rigidity

SMALL_NAMES = [name for name in catalog_names() if catalog(name).algebra.dim <= 9]
TRANSPORT_BASES = [
    "group:z3", "group:s3", "bsz-dual:2", "example1", "adcross:z2,z2", "adcross:z4,z2"
]

# ----------------------------------------------------------------------
# oracles: the dense forms
# ----------------------------------------------------------------------


def contains_subspace(space: Subspace, other: Subspace) -> bool:
    """Every dense basis row of other, one contains at a time."""
    return all(space.contains(row) for row in other.basis.data)


def is_unital_subalgebra(algebra, s: Subspace) -> bool:
    """The unit and every basis product, one dense row at a time."""
    if not s.contains(algebra.unit):
        return False
    prods = algebra.products(s.basis, s.basis)
    return all(s.contains(prods.row(i)) for i in range(prods.rows))


def center(algebra) -> Subspace:
    """The kernel of the rows of L_t - R_t, gathered t by t."""
    rows = []
    for t in range(algebra.dim):
        rows.extend((algebra.left_mult[t] - algebra.right_mult[t]).data)
    return kernel(Matrix.from_rows(rows, algebra.dim))


def dense_image(m: Matrix, space: Subspace) -> Subspace:
    """The span of m applied to each dense basis vector of space."""
    return Subspace.from_spanning([m.apply(v) for v in space.basis.data], m.rows)


def fixed_point_mapping(algebra) -> TheoremCheck:
    dual = algebra.dual
    nfix = algebra.fixed_point_subalgebras
    dfix = dual.fixed_point_subalgebras
    eps = {"L": algebra.eps_maps["eps_l"], "R": algebra.eps_maps["eps_r"]}
    ehat = {"L": algebra.eps_maps["epshat_l"], "R": algebra.eps_maps["epshat_r"]}
    ok = True
    for s in "LR":
        eps_t = eps[s].transpose()
        for sp in "LR":
            src = nfix[(sp, s)].basis
            dst = dfix[(s, sp)]
            images = src * eps_t
            if row_space(images) != dst:
                ok = False
                continue
            if images * ehat[sp].transpose() != src:
                ok = False
            prods = dual.reversed_products if s == sp else dual.products
            if prods(images, images) != algebra.products(src, src) * eps_t:
                ok = False
    for s in "LR":
        both = nfix[("L", s)].intersect(nfix[("R", s)])
        target = dual.center.intersect(dfix[(s, "L")])
        img = Subspace.from_spanning([eps[s].apply(v) for v in both.basis.data], algebra.dim)
        if img != target:
            ok = False
        back_l = Subspace.from_spanning(
            [ehat["L"].apply(v) for v in target.basis.data], algebra.dim
        )
        back_r = Subspace.from_spanning(
            [ehat["R"].apply(v) for v in target.basis.data], algebra.dim
        )
        if back_l != both or back_r != both:
            ok = False
    return TheoremCheck("fixed-point-duality", True, ok)


def hyper_center(algebra, report) -> TheoremCheck:
    if not report.bimonoidal:
        return TheoremCheck("hyper-center", False, True)
    dual = algebra.dual
    z = algebra.center_l.intersect(algebra.center_r)
    zd = dual.center_l.intersect(dual.center_r)
    ok = True
    for s in "LR":
        m = algebra.eps_maps["eps_l" if s == "L" else "eps_r"]
        img = Subspace.from_spanning([m.apply(v) for v in z.basis.data], algebra.dim)
        if img != zd:
            ok = False
    return TheoremCheck("hyper-center", True, ok)


def _unique_or_fail(m, rhs, what):
    res = solve_affine(m, rhs)
    if res is None or res[1].dim != 0:
        raise SelfCheckError("%s is not uniquely solvable" % what)
    return res[0]


def invariant_functional(algebra, s: Matrix, lam) -> FunctionalCriterionVerdict:
    """The exchange identity pair by pair, (a, b) in lexicographic order,
    each side a vector combination."""
    algebra.require_valid()
    lam = tuple(lam)
    n = algebra.dim
    pre = (
        is_anti_multiplicative(algebra, s)
        and is_anti_comultiplicative(algebra, s)
        and rank(s) == n
        and s.apply(algebra.unit) == algebra.unit
        and s.transpose().apply(algebra.counit) == algebra.counit
    )
    gram_lam = algebra.pairing(lam)
    nondeg = rank(gram_lam) == n
    if not pre or not nondeg:
        return FunctionalCriterionVerdict(
            preconditions_ok=False,
            exchange_identity_holds=False,
            weak_hopf_confirmed=False,
            detail="anti-automorphism check %s, nondegeneracy %s" % (pre, nondeg),
        )
    witness = None
    basis = [algebra.basis_vector(i) for i in range(n)]
    for a in range(n):
        for b in range(n):
            lhs = vector_combination(
                ((c * gram_lam[b, v], basis[u]) for u, v, c in nonzeros(algebra.comult[a])), n
            )
            rhs = vector_combination(
                ((c * gram_lam[v, a], s.col(u)) for u, v, c in nonzeros(algebra.comult[b])), n
            )
            if lhs != rhs:
                witness = (a, b)
                break
        if witness:
            break
    if witness is not None:
        return FunctionalCriterionVerdict(
            preconditions_ok=True,
            exchange_identity_holds=False,
            weak_hopf_confirmed=False,
            witness=witness,
        )
    wh = classify_weak_hopf(algebra)
    if not wh.is_weak_hopf or wh.antipode.matrix != s:
        raise SelfCheckError("exchange identity held but the solved antipode disagrees")
    counit = algebra.counit
    return FunctionalCriterionVerdict(
        preconditions_ok=True,
        exchange_identity_holds=True,
        weak_hopf_confirmed=True,
        left_element=_unique_or_fail(gram_lam, counit, "left integral candidate"),
        right_element=_unique_or_fail(gram_lam.transpose(), counit, "right integral candidate"),
    )


def dual_rigidity(b: WeakBialgebra, s_r: Matrix) -> RigidityStructure:
    """The construction with its shared-wedge, descent and flip loops over
    dense rows."""
    b.require_valid()
    report = decide_axioms(b)
    if not report.comonoidal or not report.minimal:
        raise ValueError("construction needs a minimal comonoidal instance")
    sub = b.subspaces
    a_l, a_r = sub["A_L"], sub["A_R"]
    if s_r.rows != a_l.dim or s_r.cols != a_r.dim:
        raise ValueError("cross map has wrong shape for the wedge bases")
    s_r_inv = inverse(s_r)
    if s_r_inv is None:
        raise ValueError("cross map is not bijective")
    n = b.dim
    lbasis = a_l.basis.data
    r = a_r.dim
    wedge_products = b.products(a_l.basis, a_r.basis)
    counits = wedge_products.apply(b.counit)
    gram = Matrix([counits[i * r : (i + 1) * r] for i in range(a_l.dim)])
    gram_inv = inverse(gram)
    if gram_inv is None:
        raise ValueError("wedge pairing is degenerate")
    s_l = gram_inv * (gram * s_r_inv).transpose()
    s_l_rows = s_l.transpose() * a_r.basis
    s_r_rows = s_r.transpose() * a_l.basis
    z = a_l.intersect(a_r)
    acted = b.products(z.basis, a_r.basis).data
    direct = b.products(z.basis, s_r_rows).data
    for i in range(z.dim * r):
        zx = a_r.coordinates(acted[i])
        if zx is None:
            raise ValueError("shared wedge does not act on the right wedge")
        mapped = vector_combination(zip(s_r.apply(zx), lbasis), n)
        if mapped != direct[i]:
            raise ValueError("cross map is not linear over the shared wedge")
    pmat = wedge_products.transpose()
    decomp = []
    for t in range(n):
        res = particular_solution(pmat, b.basis_vector(t))
        if res is None:
            raise ValueError("instance is not spanned by wedge products")
        decomp.append(res)
    flips = b.reversed_products(s_l_rows, s_r_rows).data
    for kv in kernel(pmat).basis.data:
        if any(vector_combination(zip(kv, flips), n)):
            raise ValueError("cross map does not descend to the instance")
    pairings = b.products(s_l_rows, a_r.basis).apply(b.counit)
    s_b = Matrix.from_columns([vector_combination(zip(coeffs, flips), n) for coeffs in decomp], n)
    alphas = [vdot(coeffs, pairings) for coeffs in decomp]
    if not is_anti_comultiplicative(b, s_b):
        raise SelfCheckError("constructed flip is not anti-comultiplicative")
    structure = RigidityStructure(
        algebra=b.dual, s=s_b.transpose(), alpha=tuple(alphas), beta=b.counit
    )
    check = verify_rigidity(b.dual, structure)
    if check.status in ("failed", "pre_rigid"):
        raise ValueError("constructed structure failed rigidity verification")
    structure.status = check.status
    return structure


# ----------------------------------------------------------------------
# instances and subspaces
# ----------------------------------------------------------------------


def _non_integral_transport(algebra, rng):
    """The algebra in a permuted basis whose vectors are scaled by
    non-integral rationals."""
    n = algebra.dim
    perm = list(range(n))
    rng.shuffle(perm)
    scales = [Q(rng.choice((1, 2, 4, 5, 7)), rng.choice((2, 3, 5))) for _ in range(n)]
    t = Matrix([[scales[j] if i == perm[j] else 0 for j in range(n)] for i in range(n)])
    return transport(algebra, t)


def _instances(name):
    """The named catalog record with its dual, opposite and coopposite."""
    algebra = catalog(name).algebra
    return [algebra, algebra.dual, algebra.opposite, algebra.coopposite]


def _transported(seed):
    rng = random.Random("sparse-spans:%d" % seed)
    return _non_integral_transport(catalog(TRANSPORT_BASES[seed]).algebra, rng)


def _random_vector(rng, n):
    return tuple(Q(rng.choice((0, 0, 1, -1, 2)), rng.choice((1, 2, 3))) for _ in range(n))


def _subspaces(algebra, rng):
    """The wedges and projection images, the fixed-point subalgebras, the
    centers, the zero and full spaces, and random spans: of a few random
    vectors, and of the unit with one more, most of them not subalgebras."""
    n = algebra.dim
    spaces = list(algebra.subspaces.values()) + list(algebra.fixed_point_subalgebras.values())
    spaces += [algebra.center, algebra.center_l, algebra.center_r]
    spaces += [Subspace.zero(n), Subspace.full(n)]
    for k in range(1, 4):
        spaces.append(Subspace.from_spanning([_random_vector(rng, n) for _ in range(k)], n))
        spaces.append(Subspace.from_spanning([algebra.unit, _random_vector(rng, n)], n))
    return spaces


# ----------------------------------------------------------------------
# row_coordinates and membership
# ----------------------------------------------------------------------


def test_row_coordinates_rejects_a_width_mismatch():
    space = Subspace.from_spanning([(1, 0, 0)], 3)
    with pytest.raises(ValueError):
        space.row_coordinates(Matrix([[1, 0]]))
    with pytest.raises(ValueError):
        Subspace.full(3).contains_subspace(Subspace.zero(2))
    with pytest.raises(ValueError):
        Subspace.zero(2).contains_subspace(Subspace.full(3))
    # rows of the right width still read as before
    assert space.row_coordinates(Matrix([[2, 0, 0], [0, 0, 0]])) == Matrix([[2], [0]])
    assert space.row_coordinates(Matrix([[0, 1, 0]])) is None


def _assert_membership_agrees(algebra, rng, seen):
    spaces = _subspaces(algebra, rng)
    for space in spaces:
        for other in spaces:
            got = space.contains_subspace(other)
            assert got == contains_subspace(space, other)
            seen["contains"].add(got)
        got = algebra.is_unital_subalgebra(space)
        assert got == is_unital_subalgebra(algebra, space)
        seen["subalgebra"].add((got, space.contains(algebra.unit)))


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_membership_matches_the_dense_rows_on_the_catalog(name):
    rng = random.Random("sparse-spans:" + name)
    seen = {"contains": set(), "subalgebra": set()}
    for algebra in _instances(name):
        _assert_membership_agrees(algebra, rng, seen)
    assert seen["contains"] == {True, False}
    # a span of the unit with a vector whose products leave it, the verdict
    # that only the basis products decide (in dimension 2 or less every
    # space holding the unit is a subalgebra)
    assert ((False, True) in seen["subalgebra"]) == (catalog(name).algebra.dim > 2)


@pytest.mark.parametrize("seed", range(6))
def test_membership_matches_the_dense_rows_on_transports(seed):
    algebra = _transported(seed)
    seen = {"contains": set(), "subalgebra": set()}
    _assert_membership_agrees(algebra, random.Random(seed), seen)
    assert seen["contains"] == {True, False}
    assert {True, False} <= {ok for ok, _ in seen["subalgebra"]}


# ----------------------------------------------------------------------
# centers, fixed-point duality and the hyper-center
# ----------------------------------------------------------------------


def _assert_spans_agree(algebra, rng):
    assert algebra.center == center(algebra)
    dual = algebra.dual
    nfix, dfix = algebra.fixed_point_subalgebras, dual.fixed_point_subalgebras
    maps = algebra.eps_maps
    n = algebra.dim
    noise = Matrix([_random_vector(rng, n) for _ in range(n)])
    for s in "LR":
        both = nfix[("L", s)].intersect(nfix[("R", s)])
        target = dual.center.intersect(dfix[(s, "L")])
        hats = (maps["epshat_l"], maps["epshat_r"])
        for space, images in ((both, (maps["eps_l"], maps["eps_r"])), (target, hats)):
            for m in images + (noise,):
                assert row_space(space.basis * m.transpose()) == dense_image(m, space)
    z = algebra.center_l.intersect(algebra.center_r)
    for m in (maps["eps_l"], maps["eps_r"], noise):
        assert row_space(z.basis * m.transpose()) == dense_image(m, z)
    report = decide_axioms(algebra)
    assert _fixed_point_mapping(algebra) == fixed_point_mapping(algebra)
    assert _hyper_center(algebra, report) == hyper_center(algebra, report)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_center_and_image_spans_match_the_dense_forms_on_the_catalog(name):
    rng = random.Random("sparse-spans:images:" + name)
    for algebra in _instances(name):
        _assert_spans_agree(algebra, rng)


@pytest.mark.parametrize("seed", range(6))
def test_center_and_image_spans_match_the_dense_forms_on_transports(seed):
    _assert_spans_agree(_transported(seed), random.Random(seed))


def _fixing(m: Matrix, spaces, rng) -> Matrix:
    """m (I + K) for a random K that vanishes on the sum of spaces: it acts
    as m on them and differs from m elsewhere."""
    n = m.cols
    covered = Subspace.zero(n)
    for space in spaces:
        covered = covered.add(space)
    killing = kernel(covered.basis).basis
    k = Matrix([_random_vector(rng, killing.rows) for _ in range(n)]) * killing
    return m * (Matrix.identity(n) + k)


@pytest.mark.parametrize("name", ["group:s3", "dualgroup:s3", "bsz-dual:2", "adcross:z4,z2"])
def test_image_verdicts_match_on_perturbed_counit_maps(monkeypatch, name):
    """On a fresh instance whose other data are computed first, the counit
    maps are replaced: by maps that agree with them on the spaces the two
    checks apply them to (both checks hold, so a map applied the wrong way
    round shows), and by random maps (both fail)."""
    algebra = _non_integral_transport(catalog(name).algebra, random.Random(name))
    report = decide_axioms(algebra)
    assert report.bimonoidal
    assert (_fixed_point_mapping(algebra), _hyper_center(algebra, report)) == (
        fixed_point_mapping(algebra),
        hyper_center(algebra, report),
    )
    rng = random.Random("sparse-spans:perturbed:" + name)
    maps = dict(algebra.eps_maps)
    nfix = algebra.fixed_point_subalgebras.values()
    dfix = algebra.dual.fixed_point_subalgebras.values()
    z = algebra.center_l.intersect(algebra.center_r)
    fixing = {key: _fixing(m, dfix if "hat" in key else nfix, rng) for key, m in maps.items()}
    noise = {key: Matrix([_random_vector(rng, m.cols) for _ in m.data]) for key, m in maps.items()}
    hyper = {key: _fixing(m, [z], rng) for key, m in maps.items()}
    verdicts = []
    for check, oracle, kept in (
        (_fixed_point_mapping, fixed_point_mapping, fixing),
        (_hyper_center, hyper_center, hyper),
    ):
        args = (algebra,) if check is _fixed_point_mapping else (algebra, report)
        for perturbed in (kept, noise):
            assert all(perturbed[key] != maps[key] for key in maps)
            monkeypatch.setitem(algebra.__dict__, "eps_maps", perturbed)
            got = check(*args)
            assert got == oracle(*args)
            verdicts.append(got.conclusion_holds)
    assert verdicts == [True, False, True, False]


# ----------------------------------------------------------------------
# the invariant-functional criterion
# ----------------------------------------------------------------------


def _outcome(build, *args):
    """What build returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except (ValueError, SelfCheckError) as err:
        return type(err), str(err)


def _assert_functional_verdicts_agree(algebra, rng, seen, lams=()):
    status = solve_antipode(algebra)
    if not status.exists:
        return
    n = algebra.dim
    lams = [algebra.counit, *lams] + [algebra.basis_vector(i) for i in range(n)]
    lams += [_random_vector(rng, n) for _ in range(3)]
    for lam in lams:
        got = _outcome(invariant_functional_check, algebra, status.matrix, lam)
        assert got == _outcome(invariant_functional, algebra, status.matrix, lam)
        if not got.preconditions_ok:
            seen.add("preconditions")
        elif got.witness is None:
            seen.add("holds")
        else:
            seen.add("witness at a > 0" if got.witness[0] else "witness at a = 0")


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_invariant_functional_verdicts_match_the_pair_loop_on_the_catalog(name):
    rng = random.Random("sparse-spans:functional:" + name)
    seen = set()
    for algebra in _instances(name):
        _assert_functional_verdicts_agree(algebra, rng, seen)


def test_invariant_functional_verdicts_reach_every_outcome():
    """The preconditions fail (the counit is degenerate), the identity holds
    (the evaluation at the unit element of a group), fails first at a = 0
    (a random functional), and first fails at a > 0: on Z2 + Z2, the
    evaluation at the unit of the first summand plus a random functional
    on the second."""
    seen = set()
    for seed in range(6):
        _assert_functional_verdicts_agree(_transported(seed), random.Random(seed), seen)
    for name in ("group:s3", "adcross:z2,z2"):
        _assert_functional_verdicts_agree(catalog(name).algebra, random.Random(name), seen)
    pair = direct_sum(catalog("group:z2").algebra, catalog("group:z2").algebra)
    rng = random.Random("sparse-spans:functional:pair")
    lams = [(1, 0) + _random_vector(rng, 2) for _ in range(3)]
    _assert_functional_verdicts_agree(pair, rng, seen, lams)
    assert seen == {"preconditions", "holds", "witness at a = 0", "witness at a > 0"}


# ----------------------------------------------------------------------
# the rigidity structure on the dual of a minimal comonoidal instance
# ----------------------------------------------------------------------


def _same_construction(algebra, cross):
    got = _outcome(dual_rigidity_structure, algebra, cross)
    want = _outcome(dual_rigidity, algebra, cross)
    if isinstance(got, RigidityStructure):
        assert isinstance(want, RigidityStructure)
        fields = ("s", "alpha", "beta", "status")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        return "built"
    assert got == want
    return got[1]


def test_dual_rigidity_matches_the_loops_on_each_message():
    base = build_example1()
    pair = direct_sum(catalog("trivial").algebra, catalog("trivial").algebra)
    cases = [
        (base, example2_cross_map()),
        (base, Matrix.identity(3)),
        (base, Matrix.identity(2)),
        (base, Matrix([[1, 0, 0], [1, 0, 0], [0, 0, 1]])),
        (base, Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])),
        (catalog("group:z2").algebra, Matrix.identity(1)),
        (pair, Matrix.identity(2)),
        (pair, Matrix([[0, 1], [1, 0]])),
    ]
    messages = {_same_construction(algebra, cross) for algebra, cross in cases}
    assert messages == {
        "built",
        "cross map has wrong shape for the wedge bases",
        "cross map is not bijective",
        "constructed structure failed rigidity verification",
        "construction needs a minimal comonoidal instance",
        "cross map is not linear over the shared wedge",
    }


def test_dual_rigidity_matches_the_loops_on_perturbed_flips(monkeypatch):
    """No cross map of the catalog reaches the descent or the
    anti-comultiplicativity failure, so the flips are perturbed: by a random
    matrix, which the kernel of the wedge products does not annihilate, and
    by the wedge products times one, which it does but which moves S."""
    rng = random.Random("sparse-spans:flips")
    algebra = direct_sum(catalog("trivial").algebra, catalog("trivial").algebra)
    sub = algebra.subspaces
    wedge_products = algebra.products(sub["A_L"].basis, sub["A_R"].basis)
    n, rows = algebra.dim, wedge_products.rows
    flips = algebra.reversed_products
    messages = set()
    for shift in (
        Matrix([_random_vector(rng, n) for _ in range(rows)]),
        wedge_products * Matrix([[1, 1], [0, 2]]),
    ):
        monkeypatch.setattr(algebra, "reversed_products", lambda x, y, d=shift: flips(x, y) + d)
        messages.add(_same_construction(algebra, Matrix.identity(2)))
    assert messages == {
        "cross map does not descend to the instance",
        "constructed flip is not anti-comultiplicative",
    }


def test_dual_rigidity_matches_the_loops_on_the_catalog():
    """The identity and a random map of the wedges on every minimal
    comonoidal record of dimension at most 9 and on direct sums of them."""
    rng = random.Random("sparse-spans:dual-rigidity")
    algebras = [a for name in SMALL_NAMES for a in _instances(name)]
    for x in ("bsz-dual:2", "adcross:z2,z2"):
        algebras.append(direct_sum(catalog(x).algebra, catalog("trivial").algebra))
    messages = set()
    for algebra in algebras:
        report = decide_axioms(algebra)
        if not (report.comonoidal and report.minimal):
            continue
        k, r = algebra.subspaces["A_L"].dim, algebra.subspaces["A_R"].dim
        random_map = Matrix([[Q(rng.randint(-2, 2)) for _ in range(r)] for _ in range(k)])
        for cross in (Matrix.identity(k), random_map):
            messages.add(_same_construction(algebra, cross))
    assert {"built", "cross map is not linear over the shared wedge"} <= messages
