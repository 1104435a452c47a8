import pytest

from weakhopf.antipode import solve_antipode
from weakhopf.constructions import build_example1, example2_cross_map
from weakhopf.core import decide_axioms
from weakhopf.exactlin import Matrix, Q
from weakhopf.rigidity import (
    RigidityStructure,
    TwistPair,
    bijectivity_normalization_bridge,
    conjugation_data,
    dual_rigidity_structure,
    pre_antipode_normal_bridge,
    regular_module_rigidity_identities,
    sqcap_suite,
    twist,
    uniqueness_intertwiners,
    verify_rigidity,
)


@pytest.fixture(scope="module")
def example2(entries):
    base = entries["example1"].algebra
    structure = dual_rigidity_structure(base, example2_cross_map())
    return base.dual, structure


def test_weak_hopf_antipode_is_normal_structure(entries):
    for name in ("bsz-dual:2", "adcross:z2,z2", "group:z3"):
        alg = entries[name].algebra
        s = solve_antipode(alg).matrix
        check = verify_rigidity(alg, RigidityStructure(alg, s, alg.unit, alg.unit))
        assert check.status == "normal", name


def test_example2_structure_values(example2, entries):
    dual, structure = example2
    base = entries["example1"].algebra
    expected_alpha = [Q(0)] * 9
    expected_alpha[0] = Q(1)
    expected_alpha[8] = Q(1)
    assert list(structure.alpha) == expected_alpha
    assert tuple(structure.beta) == base.counit
    assert structure.status == "rigid"


def test_example2_not_normalizable(example2):
    dual, structure = example2
    check = verify_rigidity(dual, structure)
    assert check.status == "rigid"  # rigid but neither normalizable nor normal
    assert not check.input_normalized


def test_failed_structure_has_witness(entries):
    alg = entries["bsz-dual:2"].algebra
    # the identity map is an algebra anti-morphism here (commutative algebra)
    # but fails the normal pre-rigidity conditions
    bad = RigidityStructure(alg, Matrix.identity(alg.dim), alg.unit, alg.unit)
    check = verify_rigidity(alg, bad)
    assert check.status in ("failed", "pre_rigid")
    assert check.witnesses


def test_precondition_verdicts(entries):
    alg = entries["example1"].algebra  # not monoidal
    check = verify_rigidity(
        alg, RigidityStructure(alg, Matrix.identity(alg.dim), alg.unit, alg.unit)
    )
    assert not check.preconditions_ok
    assert ("not-monoidal", None) in check.witnesses


def test_identity_twist_fixes_structure(example2):
    dual, structure = example2
    s_one = structure.s.apply(dual.unit)
    out = twist(structure, TwistPair(u=s_one, ubar=s_one))
    assert out.s == structure.s


def test_twist_round_trip(example2):
    dual, structure = example2
    alt = dual_rigidity_structure(build_example1(), Matrix.identity(3))
    pair = uniqueness_intertwiners(structure, alt)
    there = twist(structure, pair)
    assert there.s == alt.s
    back = twist(there, TwistPair(u=pair.ubar, ubar=pair.u))
    assert back.s == structure.s
    check = verify_rigidity(dual, structure)
    assert tuple(back.alpha) == tuple(check.normalized_alpha)
    assert tuple(back.beta) == tuple(check.normalized_beta)


def test_invalid_twist_pair_rejected(example2):
    dual, structure = example2
    with pytest.raises(ValueError):
        twist(structure, TwistPair(u=dual.unit, ubar=tuple(Q(2) * x for x in dual.unit)))


def test_self_intertwiner_collapses(example2):
    dual, structure = example2
    pair = uniqueness_intertwiners(structure, structure)
    s_one = structure.s.apply(dual.unit)
    assert tuple(pair.u) == tuple(s_one)
    assert tuple(pair.ubar) == tuple(s_one)


def test_intertwiners_verify_a_shared_structure_once(entries, monkeypatch):
    import weakhopf.rigidity as rigidity

    alg = entries["group:z3"].algebra
    s = solve_antipode(alg).matrix
    r = RigidityStructure(alg, s, alg.unit, alg.unit)
    other = RigidityStructure(alg, s, alg.unit, alg.unit)
    verified = []
    real = rigidity.verify_rigidity

    def counting(algebra, structure):
        verified.append(structure)
        return real(algebra, structure)

    monkeypatch.setattr(rigidity, "verify_rigidity", counting)
    same = uniqueness_intertwiners(r, r)
    assert [x is r for x in verified] == [True]
    verified.clear()
    assert uniqueness_intertwiners(r, other) == same
    assert [x is r for x in verified] == [True, False]
    # a structure that does not verify is refused, also paired with itself
    plain = entries["example1"].algebra
    bad = RigidityStructure(plain, Matrix.identity(plain.dim), plain.unit, plain.unit)
    with pytest.raises(ValueError, match="verified rigid"):
        uniqueness_intertwiners(bad, bad)


def test_normal_vs_twisted_recovers_pair(entries):
    alg = entries["bsz-dual:2"].algebra
    s = solve_antipode(alg).matrix
    normal = RigidityStructure(alg, s, alg.unit, alg.unit)
    # twist by an invertible central-ish pair: u a unit of the algebra
    u = tuple(Q(x) for x in (1, 2, 2, 1))
    from weakhopf.exactlin import inverse

    lu = alg.left_mult_of(u)
    ubar = inverse(lu).apply(alg.unit)
    twisted = twist(normal, TwistPair(u=u, ubar=ubar))
    pair = uniqueness_intertwiners(normal, twisted)
    assert tuple(pair.u) == tuple(u)
    again = twist(normal, pair)
    assert again.s == twisted.s


def test_normal_rigidity_map_unique(entries):
    # two normal structures on the same instance must share their map
    alg = entries["adcross:z2,z2"].algebra
    s = solve_antipode(alg).matrix
    r1 = RigidityStructure(alg, s, alg.unit, alg.unit)
    pair = uniqueness_intertwiners(r1, r1)
    assert tuple(pair.u) == tuple(s.apply(alg.unit))


def test_conjugation_data_ordinary(entries):
    alg = entries["group:z3"].algebra
    s = solve_antipode(alg).matrix
    r = RigidityStructure(alg, s, alg.unit, alg.unit)
    data = conjugation_data(alg, r)
    assert data.checks_ok
    n = alg.dim
    pure_unit = Matrix(
        [[alg.unit[i] * alg.unit[j] for j in range(n)] for i in range(n)]
    )
    assert data.f == pure_unit and data.fbar == pure_unit


def test_conjugation_data_weak_hopf(entries):
    alg = entries["bsz-dual:2"].algebra
    s = solve_antipode(alg).matrix
    r = RigidityStructure(alg, s, alg.unit, alg.unit)
    data = conjugation_data(alg, r)
    assert data.checks_ok
    assert alg.t2_mul(data.fbar, data.f) == alg.delta(s.apply(alg.unit))


def test_conjugation_data_example2(example2):
    dual, structure = example2
    data = conjugation_data(dual, structure)
    assert data.checks_ok
    assert alg_t2(dual, data.f, data.fbar, data.f) == data.f


def alg_t2(alg, a, b, c):
    return alg.t2_mul(alg.t2_mul(a, b), c)


def test_sqcap_suite_weak_hopf(entries):
    for name in ("bsz-dual:2", "adcross:z2,z2"):
        alg = entries[name].algebra
        s = solve_antipode(alg).matrix
        report = sqcap_suite(alg, s)
        assert report.ok, (name, [t for t, ok in report.checks if not ok])
        assert report.cap_l == alg.projection("L", "R")
        assert report.cap_r == alg.projection("R", "L")


def test_sqcap_ordinary_collapse(entries):
    alg = entries["group:z2"].algebra
    s = solve_antipode(alg).matrix
    report = sqcap_suite(alg, s)
    n = alg.dim
    collapse = Matrix(
        [[alg.unit[i] * alg.counit[j] for j in range(n)] for i in range(n)]
    )
    assert report.cap_l == collapse and report.cap_r == collapse


def test_sqcap_dimension_chain(entries):
    alg = entries["bsz-dual:3"].algebra
    s = solve_antipode(alg).matrix
    report = sqcap_suite(alg, s)
    sub = alg.subspaces
    assert sub["A_LL"].dim == report.image_l.dim == sub["A_RR"].dim


def test_regular_module_identities(example2, entries):
    dual, structure = example2
    assert regular_module_rigidity_identities(dual, structure)
    alg = entries["bsz-dual:2"].algebra
    s = solve_antipode(alg).matrix
    assert regular_module_rigidity_identities(
        alg, RigidityStructure(alg, s, alg.unit, alg.unit)
    )


def test_pre_antipode_bridge(entries):
    for name in ("bsz-dual:2", "group:z3", "adcross:z2,z2"):
        alg = entries[name].algebra
        s = solve_antipode(alg).matrix
        assert pre_antipode_normal_bridge(alg, s) is True


def test_bijectivity_bridge(example2, entries):
    dual, structure = example2
    assert bijectivity_normalization_bridge(dual, structure) is True
    alg = entries["adcross:z2,z2"].algebra
    s = solve_antipode(alg).matrix
    assert (
        bijectivity_normalization_bridge(
            alg, RigidityStructure(alg, s, alg.unit, alg.unit)
        )
        is True
    )


def test_dual_rigidity_rejects_non_bijective_cross_map(entries):
    base = entries["example1"].algebra
    with pytest.raises(ValueError):
        dual_rigidity_structure(base, Matrix([[1, 0, 0], [1, 0, 0], [0, 0, 1]]))


def test_dual_rigidity_rejects_cross_map_that_fails_verification(entries):
    # a bijection whose constructed structure is not rigid is an input fault
    base = entries["example1"].algebra
    with pytest.raises(ValueError, match="failed rigidity verification"):
        dual_rigidity_structure(base, Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))


def test_dual_rigidity_needs_minimal_comonoidal(entries):
    with pytest.raises(ValueError):
        dual_rigidity_structure(entries["group:z2"].algebra, Matrix.identity(1))


def test_matrix_unit_dual_cross_identity_matches_solved_antipode(entries):
    # identity cross map on the matrix-unit minimal instance gives the
    # transpose of the solved antipode of the dual
    base = entries["bsz-dual:2"].algebra
    structure = dual_rigidity_structure(base, Matrix.identity(2))
    dual = base.dual
    status = solve_antipode(dual)
    assert status.exists
    assert structure.s == status.matrix
    check = verify_rigidity(dual, structure)
    assert check.status == "normal"


def test_pre_antipode_bridge_negative_side(entries):
    # the identity map on a commutative monoidal instance is an algebra
    # anti-morphism but neither a pre-antipode nor a normal structure map,
    # so the equivalence holds with both sides false
    alg = entries["bsz-dual:2"].algebra
    assert pre_antipode_normal_bridge(alg, Matrix.identity(alg.dim)) is True
    from weakhopf.antipode import _pre_antipode_holds

    assert not _pre_antipode_holds(alg, Matrix.identity(alg.dim))


def test_scaled_alpha_is_pre_rigid_only(example2):
    # scaling one functional keeps the adjoint-invariance conditions (they
    # are linear) but breaks the unit identities
    dual, structure = example2
    scaled = RigidityStructure(
        dual,
        structure.s,
        tuple(Q(2) * x for x in structure.alpha),
        structure.beta,
    )
    check = verify_rigidity(dual, scaled)
    assert check.status == "pre_rigid"
    assert ("unit-identity", None) in check.witnesses or (
        "antipode-unit-identity",
        None,
    ) in check.witnesses


def _fresh(entries, name):
    """A newly parsed copy of a catalog instance, with nothing kept on it."""
    from weakhopf.serialize import algebra_to_document, document_to_algebra

    return document_to_algebra(algebra_to_document(entries[name].algebra))


def _calls(functions, work):
    """Run work(); return, per function, the argument tuples of its calls."""
    import sys

    codes = {f.__code__: f for f in functions}
    seen = {f: [] for f in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            f = codes[frame.f_code]
            names = f.__code__.co_varnames[: f.__code__.co_argcount]
            seen[f].append(tuple(frame.f_locals[v] for v in names))

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return seen


def test_pool_sequence_computes_each_antipode_verdict_once(entries):
    """The benchmark pool's sequence on one instance runs the
    anti-multiplicativity loop, id * S and S * id once each."""
    import weakhopf.antipode as antipode
    from weakhopf.antipode import antipode_theorem_suite, classify_weak_hopf, convolve

    alg = _fresh(entries, "bsz-dual:2")
    anti = antipode.is_anti_multiplicative.__wrapped__
    solved = []

    def pool_item():
        _, status = antipode_theorem_suite(alg)
        classify_weak_hopf(alg)
        s = status.matrix
        sqcap_suite(alg, s)
        r = RigidityStructure(alg, s, alg.unit, alg.unit)
        verify_rigidity(alg, r)
        uniqueness_intertwiners(r, r)
        solved.append(s)

    seen = _calls([anti, convolve], pool_item)
    s = solved[0]
    ident = Matrix.identity(alg.dim)
    assert [args[1] for args in seen[anti]] == [s]
    # the pode check convolves over the coopposite coproduct, another instance
    pairs = [(args[1], args[2]) for args in seen[convolve] if args[0] is alg]
    assert pairs.count((ident, s)) == 1
    assert pairs.count((s, ident)) == 1


def test_kept_verdicts_follow_the_map_not_the_call(entries):
    """Two maps one entry apart on one instance get the verdicts a freshly
    parsed instance gives each; returned verifications are copies; a call
    that raises keeps nothing."""
    import weakhopf.antipode as antipode
    from weakhopf.core import AlgebraDataError, WeakBialgebra

    name = "bsz-dual:2"
    shared = _fresh(entries, name)
    s = solve_antipode(shared).matrix
    rows = [list(r) for r in s.data]
    rows[0][1] += 1
    near = Matrix(rows)

    def verdicts(alg, m):
        r = RigidityStructure(alg, m, alg.unit, alg.unit)
        return (
            antipode.is_anti_multiplicative(alg, m),
            antipode.is_normal_prerigidity_map(alg, m),
            antipode.sqcap_maps(alg, m),
            verify_rigidity(alg, r),
        )

    on_shared = [verdicts(shared, m) for m in (s, near, s, near)]
    on_fresh = [verdicts(_fresh(entries, name), m) for m in (s, near)]
    assert on_shared == on_fresh + on_fresh
    assert on_fresh[0] != on_fresh[1]
    # a structure changed after a call is verified as it is now
    r = RigidityStructure(shared, s, shared.unit, shared.unit)
    assert verify_rigidity(shared, r) == on_fresh[0][3]
    r.s = near
    assert verify_rigidity(shared, r) == on_fresh[1][3]
    # the caller owns the verification it is given
    got = verify_rigidity(shared, r)
    got.witnesses.append(("edited", None))
    got.status = "edited"
    assert verify_rigidity(shared, r) == on_fresh[1][3]
    # a call that raises keeps nothing, so it raises again
    n = shared.dim
    first_only = [[[1 if k == 0 else 0 for k in range(n)] for _ in range(n)] for _ in range(n)]
    broken = WeakBialgebra(n, first_only, shared.unit, shared.comult, shared.counit)
    bad = RigidityStructure(broken, s, broken.unit, broken.unit)
    for _ in range(2):
        with pytest.raises(AlgebraDataError):
            verify_rigidity(broken, bad)
        with pytest.raises(ValueError):
            antipode.is_anti_multiplicative(shared, Matrix.identity(n + 1))
