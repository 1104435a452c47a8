import pytest

from weakhopf.antipode import classify_weak_hopf, sigma_maps, solve_antipode
from weakhopf.constructions import (
    MAX_NAMED_DIM,
    Algebra,
    Amalgamation,
    CatalogNameError,
    ConstructionError,
    GroupPresentation,
    HopfAlgebra,
    ModuleAlgebraAction,
    ad_crossed_product,
    build_example1,
    catalog,
    catalog_names,
    example1_factors,
    group_algebra,
    group_antipode,
    minimal_from_idempotent,
    minimal_weak_hopf,
    named_ad_crossed_product,
    named_subgroup,
    two_sided_crossed_product,
)
from weakhopf.core import decide_axioms
from weakhopf.exactlin import Matrix, Q, solve_affine, unit_vec, vadd, vscale, zero_vec


def test_example1_counit_matches_form_inverse():
    alg = build_example1()
    expected = [Q(0)] * 9
    expected[0] = Q(1)
    expected[1] = Q(-1)
    expected[4] = Q(1)
    expected[8] = Q(1)
    assert list(alg.counit) == expected


def test_example1_axioms():
    report = decide_axioms(build_example1())
    assert report.comonoidal and not report.monoidal and report.minimal


def test_matrix_unit_counit():
    entry = catalog("bsz-dual:2")
    alg = entry.algebra
    # the counit pairs the two diagonal factors: eps(e_i (x) f_j) = [i == j]
    n = 2
    for i in range(n):
        for j in range(n):
            assert alg.counit[i * n + j] == (Q(1) if i == j else Q(0))
    # the unit coproduct is idempotent for the tensor-square product
    d1 = alg.delta1
    assert alg.t2_mul(d1, d1) == d1


def test_trivial_factor_construction():
    a1 = Algebra.diagonal(1)
    a2 = Algebra.diagonal(1, labels=["f1"])
    alg = minimal_from_idempotent(a1, a2, Matrix([[1]]))
    assert alg.dim == 1
    report = decide_axioms(alg)
    assert report.bimonoidal


def test_degenerate_tensor_rejected():
    a1 = Algebra.diagonal(2)
    a2 = Algebra.diagonal(2, labels=["f1", "f2"])
    with pytest.raises(ConstructionError):
        minimal_from_idempotent(a1, a2, Matrix([[1, 1], [1, 1]]))


def test_non_idempotent_tensor_rejected():
    a1, a2, _ = example1_factors()
    with pytest.raises(ConstructionError) as err:
        minimal_from_idempotent(a1, a2, Matrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]]))
    assert "idempotent" in str(err.value)


def test_amalgamated_quotient_gives_point_groupoid():
    # amalgamating two copies of the diagonal algebra over themselves
    # collapses the carrier to the diagonal algebra itself, with every
    # idempotent grouplike: the groupoid algebra of two isolated points
    a1 = Algebra.diagonal(2)
    a2 = Algebra.diagonal(2, labels=["f1", "f2"])
    amalg = Amalgamation(
        dim=2,
        into_first=(unit_vec(2, 0), unit_vec(2, 1)),
        into_second=(unit_vec(2, 0), unit_vec(2, 1)),
    )
    alg = minimal_from_idempotent(a1, a2, Matrix.identity(2), amalg)
    assert alg.dim == 2
    for k in range(2):
        expect = Matrix(
            [[Q(1) if i == j == k else Q(0) for j in range(2)] for i in range(2)]
        )
        assert alg.comult[k] == expect
    assert alg.counit == (Q(1), Q(1))
    report = classify_weak_hopf(alg)
    assert report.is_weak_hopf and not report.is_ordinary_hopf
    assert report.antipode.matrix == Matrix.identity(2)


def test_minimal_weak_hopf_matches_solved_antipode():
    for n in (2, 3):
        a1 = Algebra.diagonal(n)
        a2 = Algebra.diagonal(n, labels=["f%d" % i for i in range(n)])
        algebra, antipode = minimal_weak_hopf(a1, a2, [Q(1)] * n, Matrix.identity(n))
        status = solve_antipode(algebra)
        assert status.exists
        assert status.matrix == antipode


def test_minimal_weak_hopf_rejects_non_antimultiplicative_flip():
    a1 = Algebra.upper_triangular_2()
    a2 = Algebra.upper_triangular_2()
    with pytest.raises(ConstructionError) as err:
        minimal_weak_hopf(a1, a2, [Q(1), Q(0), Q(1)], Matrix.identity(3))
    assert "anti-multiplicative" in str(err.value)


def test_prop_reconstruction_round_trip():
    # extract the unit coproduct and counit, rebuild, compare tensors
    for name in ("example1", "bsz-dual:2", "bsz-dual:3"):
        if name == "example1":
            a1, a2, _ = example1_factors()
        else:
            n = int(name.split(":")[1])
            a1 = Algebra.diagonal(n)
            a2 = Algebra.diagonal(n, labels=["f%d" % i for i in range(n)])
        alg = catalog(name).algebra
        d1, d2 = a1.dim, a2.dim
        p = Matrix(
            [
                [alg.delta1[_emb2(j, d2), _emb1(k, d2)] for k in range(d1)]
                for j in range(d2)
            ]
        )
        rebuilt = minimal_from_idempotent(a1, a2, p)
        assert rebuilt.mult == alg.mult
        assert rebuilt.comult == alg.comult
        assert rebuilt.unit == alg.unit
        assert rebuilt.counit == alg.counit


def _emb1(k, d2):
    # ambient index of (first-factor basis k) paired with a unit component
    return k * d2


def _emb2(j, d2):
    return j


def test_functional_flip_round_trip():
    # extract the restricted counit and the wedge flip, rebuild the weak
    # Hopf structure, and compare coproduct, counit and antipode
    for n in (2, 3):
        a1 = Algebra.diagonal(n)
        a2 = Algebra.diagonal(n, labels=["f%d" % i for i in range(n)])
        alg, antipode = minimal_weak_hopf(a1, a2, [Q(1)] * n, Matrix.identity(n))
        smaps = sigma_maps(alg)
        omega = [alg.eps(_lift_first(alg, k, n)) for k in range(n)]
        cols = []
        for j in range(n):
            image = smaps.to_left.apply(_lift_second(alg, j, n))
            cols.append([image[k * n] for k in range(n)])
        s_r = Matrix([[cols[j][k] for j in range(n)] for k in range(n)])
        rebuilt, rebuilt_s = minimal_weak_hopf(a1, a2, omega, s_r)
        assert rebuilt.comult == alg.comult
        assert rebuilt.counit == alg.counit
        assert rebuilt_s == antipode


def _lift_first(alg, k, n):
    # e_k times the unit of the second factor
    vec = [Q(0)] * alg.dim
    for j in range(n):
        vec[k * n + j] += Q(1)
    return tuple(vec)


def _lift_second(alg, j, n):
    vec = [Q(0)] * alg.dim
    for k in range(n):
        vec[k * n + j] += Q(1)
    return tuple(vec)


def test_two_sided_trivial_hopf_reduces_to_minimal():
    a_l = Algebra.diagonal(2)
    a_r = Algebra.diagonal(2, labels=["f1", "f2"])
    trivial_group = GroupPresentation.cyclic(1)
    hopf = HopfAlgebra.from_group(trivial_group)
    action = ModuleAlgebraAction(hopf, a_l, (Matrix.identity(2),))
    crossed, s_crossed = two_sided_crossed_product(
        a_l, hopf, action, [Q(1), Q(1)], a_r, Matrix.identity(2)
    )
    minimal, s_minimal = minimal_weak_hopf(
        a_l, a_r, [Q(1), Q(1)], Matrix.identity(2)
    )
    assert crossed.dim == minimal.dim
    assert crossed.mult == minimal.mult
    assert crossed.comult == minimal.comult
    assert crossed.counit == minimal.counit
    assert s_crossed == s_minimal


def test_two_sided_swap_action():
    a_l = Algebra.diagonal(2)
    a_r = Algebra.diagonal(2, labels=["f1", "f2"])
    z2 = GroupPresentation.cyclic(2)
    hopf = HopfAlgebra.from_group(z2)
    swap = Matrix([[0, 1], [1, 0]])
    action = ModuleAlgebraAction(hopf, a_l, (Matrix.identity(2), swap))
    algebra, antipode = two_sided_crossed_product(
        a_l, hopf, action, [Q(1), Q(1)], a_r, Matrix.identity(2)
    )
    assert algebra.dim == 8
    report = classify_weak_hopf(algebra)
    assert report.is_weak_hopf
    assert report.antipode.matrix == antipode
    # wedge subspaces match the outer factor embeddings
    sub = algebra.subspaces
    for i in range(2):
        left_embed = [Q(0)] * 8
        left_embed[(i * 2 + 0) * 2 + 0] = Q(1)
        left_embed[(i * 2 + 0) * 2 + 1] = Q(1)
        assert sub["A_L"].contains(tuple(left_embed))
    assert sub["A_L"].dim == 2


def test_two_sided_rejects_non_invariant_functional():
    a_l = Algebra.diagonal(2)
    a_r = Algebra.diagonal(2, labels=["f1", "f2"])
    z2 = GroupPresentation.cyclic(2)
    hopf = HopfAlgebra.from_group(z2)
    swap = Matrix([[0, 1], [1, 0]])
    action = ModuleAlgebraAction(hopf, a_l, (Matrix.identity(2), swap))
    with pytest.raises(ConstructionError) as err:
        two_sided_crossed_product(
            a_l, hopf, action, [Q(1), Q(2)], a_r, Matrix.identity(2)
        )
    assert "invariant" in str(err.value)


def test_adcross_z2_z2():
    gp = GroupPresentation.cyclic(2)
    algebra, antipode = ad_crossed_product(gp, [0, 1])
    assert algebra.dim == 4
    report = classify_weak_hopf(algebra)
    assert report.is_weak_hopf
    assert report.axioms.dim_al == 2
    # the left wedge consists of the subgroup copies
    sub = algebra.subspaces["A_L"]
    assert sub.contains(unit_vec(4, 0))
    assert sub.contains(unit_vec(4, 2))


def test_adcross_trivial_subgroup_is_group_algebra():
    gp = GroupPresentation.cyclic(3)
    algebra, antipode = ad_crossed_product(gp, [0])
    base = group_algebra(gp)
    assert algebra.mult == base.mult
    assert algebra.comult == base.comult
    assert algebra.counit == base.counit
    assert antipode == group_antipode(gp)


def test_adcross_rejects_non_normal_subgroup():
    s3 = GroupPresentation.symmetric(3)
    # an order-two subgroup generated by a transposition is not normal
    transposition = next(
        i
        for i in range(6)
        if i != s3.identity and s3.table[i][i] == s3.identity
    )
    with pytest.raises(ConstructionError):
        ad_crossed_product(s3, [s3.identity, transposition])


def test_adcross_internal_identities():
    gp, sub = named_subgroup("s3", "a3")
    algebra, antipode = ad_crossed_product(gp, sub)
    ng = gp.order
    nh = len(sub)
    inv_h = Q(1, nh)
    hindex = {h: t for t, h in enumerate(sub)}
    # integral flip: S(p_(1)) (x) p_(2) = p_(2) (x) S^-1(p_(1))
    lhs = {}
    rhs = {}
    for k in sub:
        lhs[(gp.inv(k), k)] = lhs.get((gp.inv(k), k), Q(0)) + inv_h
        rhs[(k, gp.inv(k))] = rhs.get((k, gp.inv(k)), Q(0)) + inv_h
    assert lhs == rhs
    # smearing exchange identity in the subgroup algebra:
    # p_(1) (x) p_(2) S(p_(1')) (x) p_(2') = p_(1) p_(1') (x) p_(2) (x) p_(2')
    lhs2 = {}
    rhs2 = {}
    for k in sub:
        for kp in sub:
            key_l = (k, gp.table[k][gp.inv(kp)], kp)
            lhs2[key_l] = lhs2.get(key_l, Q(0)) + inv_h * inv_h
            key_r = (gp.table[k][kp], k, kp)
            rhs2[key_r] = rhs2.get(key_r, Q(0)) + inv_h * inv_h
    relabeled = {}
    for (a, b, c), val in rhs2.items():
        # substitute k -> k kp in the left-hand sum: both describe the same
        # smeared triple because the subgroup integral is translation invariant
        relabeled[(b, gp.table[b][gp.inv(c)], c)] = (
            relabeled.get((b, gp.table[b][gp.inv(c)], c), Q(0)) + val
        )
    assert relabeled == lhs2
    # mixed projection closed form
    p_lr = algebra.projection("L", "R")
    for hi in range(nh):
        for gi in range(ng):
            idx = hi * ng + gi
            got = p_lr.apply(unit_vec(algebra.dim, idx))
            want = unit_vec(algebra.dim, hi * ng + gp.identity)
            assert got == want
    # centrality of the integral under conjugation
    for g in range(ng):
        moved = {}
        for k in sub:
            c = gp.conjugate(g, k)
            moved[c] = moved.get(c, Q(0)) + inv_h
        assert moved == {k: inv_h for k in sub}
    # remaining projection closed forms, with grouplike coproduct legs
    p_ll = algebra.projection("L", "L")
    p_rl = algebra.projection("R", "L")
    p_rr = algebra.projection("R", "R")
    dim = algebra.dim
    for hi in range(nh):
        h = sub[hi]
        for gi in range(ng):
            src_idx = hi * ng + gi
            conj = gp.conjugate(gp.inv(gi), h)  # g^-1 h g
            want_ll = unit_vec(dim, hindex[conj] * ng + gp.identity)
            assert p_ll.apply(unit_vec(dim, src_idx)) == want_ll
            want_rr = unit_vec(dim, hindex[h] * ng + gp.inv(h))
            assert p_rr.apply(unit_vec(dim, src_idx)) == want_rr
            moved = gp.conjugate(gp.inv(gi), h)
            want_rl = unit_vec(
                dim, hindex[moved] * ng + gp.table[gp.inv(gi)][gp.table[gp.inv(h)][gi]]
            )
            assert p_rl.apply(unit_vec(dim, src_idx)) == want_rl
    # dual-integral exchange identities in the subgroup algebra
    lam = {h: Q(nh) if h == gp.identity else Q(0) for h in sub}
    for h in sub:
        acc = zero_vec(nh)
        for k in sub:
            # p_(1) lam(h p_(2)) with grouplike legs
            acc = vadd(acc, vscale(inv_h * lam.get(gp.table[h][k], Q(0)), unit_vec(nh, hindex[k])))
        assert acc == unit_vec(nh, hindex[gp.inv(h)])


def test_adcross_wedges_match_subgroup():
    gp, sub = named_subgroup("s3", "a3")
    algebra, _ = ad_crossed_product(gp, sub)
    ng = gp.order
    a_l = algebra.subspaces["A_L"]
    for hi in range(len(sub)):
        assert a_l.contains(unit_vec(algebra.dim, hi * ng + gp.identity))
    assert a_l.dim == len(sub)
    # right wedge is spanned by S(h_(1)) (x) h_(2) = h^-1 (x) h
    a_r = algebra.subspaces["A_R"]
    hindex = {h: t for t, h in enumerate(sub)}
    for h in sub:
        vec = unit_vec(algebra.dim, hindex[gp.inv(h)] * ng + h)
        assert a_r.contains(vec)
    assert a_r.dim == len(sub)


def test_catalog_instances_validate(entries):
    for name in catalog_names():
        assert entries[name].algebra.is_valid, name


def test_catalog_unknown_name():
    with pytest.raises(ConstructionError):
        catalog("no-such-instance")


def test_catalog_dimension_limit():
    # adcross:z8,z4 (dimension 32) stays accepted
    assert catalog("adcross:z8,z4").algebra.dim == 32 <= MAX_NAMED_DIM
    for name in ("group:z65", "dualgroup:z100000", "adcross:z16,z8", "bsz-dual:9"):
        with pytest.raises(CatalogNameError, match="limit of %d" % MAX_NAMED_DIM):
            catalog(name)
    with pytest.raises(CatalogNameError):
        named_ad_crossed_product("z100000", "z2")


def test_catalog_example2_rigidity(entries):
    entry = entries["example2-rigidity"]
    assert entry.rigidity is not None
    assert entry.rigidity.status == "rigid"
    assert entry.algebra == entries["example1"].algebra.dual


def test_group_presentation_errors():
    with pytest.raises(ConstructionError):
        GroupPresentation.from_table([[0, 1], [1, 1]])
    s3 = GroupPresentation.symmetric(3)
    assert s3.order == 6
    assert not s3.is_normal([s3.identity, 2])
