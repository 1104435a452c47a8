import random

import pytest

from weakhopf.constructions import build_example1, catalog, example1_factors, minimal_from_idempotent
from weakhopf.core import (
    AlgebraDataError,
    Element,
    Functional,
    WeakBialgebra,
    decide_axioms,
    monoidality_cross_check,
    structural_theorem_suite,
    suite_failures,
    transport,
)
from weakhopf.exactlin import Matrix, Q, rank, unit_vec


def test_group_algebra_is_weak_bialgebra(entries):
    assert entries["group:z2"].algebra.is_valid


def test_example1_validates(entries):
    assert entries["example1"].algebra.is_valid


def test_bad_unit_coproduct_fails_counit():
    # replacing the unit coproduct of the first catalog construction by a
    # non-idempotent tensor breaks the counit axiom
    a1, a2, _ = example1_factors()
    bad_p = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(Exception):
        minimal_from_idempotent(a1, a2, bad_p)
    good = build_example1()
    # direct tamper: drop one coproduct term so the counit law fails
    comult = list(good.comult)
    comult[0] = Matrix.zero(9, 9)
    tampered = WeakBialgebra(9, good.mult, good.unit, comult, good.counit)
    names = [name for name, _ in tampered.violations]
    assert "counit-left" in names or "counit-right" in names


def test_non_coassociative_witness():
    mult = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    comult = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
    bad = WeakBialgebra(2, mult, [1, 0], comult, [1, 1])
    names = [name for name, _ in bad.violations]
    assert names


def test_coassociativity_compares_both_leg_expansions():
    # e0 is the unit and every other product vanishes; on e2 the two
    # expansions (Delta (x) id) Delta and (id (x) Delta) Delta differ
    mult = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        mult[0][i][i] = mult[i][0][i] = 1
    comult = [
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 1], [1, 0, 0]],
    ]
    bad = WeakBialgebra(3, mult, [1, 0, 0], comult, [1, 0, 0])
    assert bad.violations == (
        ("coassociativity", (2,)),
        ("coproduct-multiplicativity", (1, 1)),
    )


def test_dimension_mismatch_is_structural_fault():
    with pytest.raises(AlgebraDataError):
        WeakBialgebra(2, [[[1], [0]], [[0], [1]]], [1, 0], [[[1]]], [1])


_GOOD_MULT = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
_GOOD_COMULT = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]


@pytest.mark.parametrize(
    "mult,comult",
    [
        # a mult tensor with one row of cells missing
        ([[[1, 0], [0, 1]]], _GOOD_COMULT),
        # a mult row with one cell missing
        ([[[1, 0], [0, 1]], [[0, 1]]], _GOOD_COMULT),
        # a ragged comult slice
        (_GOOD_MULT, [[[1, 0], [0, 0]], [[0, 0], [1]]]),
        # a mult tensor nested one level too shallow
        ([[1, 0], [0, 1]], _GOOD_COMULT),
        # a comult given as one 2x2 matrix
        (_GOOD_MULT, [[1, 0], [0, 1]]),
    ],
    ids=[
        "short-mult-tensor",
        "short-mult-row",
        "ragged-comult-slice",
        "shallow-mult-tensor",
        "shallow-comult-tensor",
    ],
)
def test_malformed_tensors_are_structural_faults(mult, comult):
    WeakBialgebra(2, _GOOD_MULT, [1, 0], _GOOD_COMULT, [1, 1])
    with pytest.raises(AlgebraDataError):
        WeakBialgebra(2, mult, [1, 0], comult, [1, 1])


def test_dual_involution(entries):
    for name in ("group:z3", "example1", "bsz-dual:2", "adcross:z2,z2"):
        a = entries[name].algebra
        dd = a.dual.dual
        assert dd.mult == a.mult
        assert dd.comult == a.comult
        assert dd.unit == a.unit
        assert dd.counit == a.counit
        assert dd.labels == a.labels


def test_dual_of_group_algebra_is_function_algebra(entries):
    d = entries["group:z2"].algebra.dual
    # two orthogonal idempotents
    e0 = d.basis_vector(0)
    e1 = d.basis_vector(1)
    assert d.mul(e0, e0) == e0
    assert d.mul(e1, e1) == e1
    assert d.mul(e0, e1) == (Q(0), Q(0))
    assert d.unit == (Q(1), Q(1))


def test_dual_of_example1_flags(entries):
    report = decide_axioms(entries["example1"].algebra.dual)
    assert report.monoidal and not report.comonoidal


def test_grouplike_left_action(entries):
    # (g .> delta_h)(x) = delta_h(x g), so g moves the point mass to h g^-1
    a = entries["group:z2"].algebra
    g = Element(a, (0, 1))
    delta_e = Functional(a, (1, 0))
    delta_g = Functional(a, (0, 1))
    assert delta_g.acted_left(g).coeffs == (Q(1), Q(0))
    assert delta_e.acted_left(g).coeffs == (Q(0), Q(1))


def test_left_action_module_property(entries):
    rng = random.Random(2)
    for name in ("group:z3", "example1"):
        alg = entries[name].algebra
        n = alg.dim
        for _ in range(10):
            a = tuple(Q(rng.randint(-2, 2)) for _ in range(n))
            b = tuple(Q(rng.randint(-2, 2)) for _ in range(n))
            phi = tuple(Q(rng.randint(-2, 2)) for _ in range(n))
            lhs = alg.act_left(alg.mul(a, b), phi)
            rhs = alg.act_left(a, alg.act_left(b, phi))
            assert lhs == rhs


def test_right_wedge_spanned_by_left_action(entries):
    # acting on the counit sweeps out exactly the dual right wedge
    from weakhopf.exactlin import Subspace

    for name in ("example1", "bsz-dual:2", "group:z3"):
        alg = entries[name].algebra
        vecs = [
            alg.act_left(alg.basis_vector(i), alg.counit) for i in range(alg.dim)
        ]
        assert Subspace.from_spanning(vecs, alg.dim) == alg.subspaces["Ahat_R"]


def test_counit_maps_ordinary_bialgebra(entries):
    alg = entries["group:z3"].algebra
    assert rank(alg.eps_maps["eps_l"]) == 1
    assert rank(alg.eps_maps["eps_r"]) == 1


def test_counit_map_rank_example1(entries):
    # the dual wedge of this instance is strictly larger than the projection
    # images: rank of the one-sided counit map is 5, the images all have the
    # wedge dimension 3
    alg = entries["example1"].algebra
    assert rank(alg.eps_maps["eps_r"]) == 5
    assert alg.subspaces["Ahat_R"].dim == 5
    report = decide_axioms(alg)
    assert set(report.dims_a_sigma.values()) == {3}
    dual_dims = {
        alg.subspaces["Ahat_%s%s" % (s, sp)].dim for s in "LR" for sp in "LR"
    }
    assert dual_dims == {3}


def test_projection_composition_formula(entries):
    # the LL projection composes the two one-sided counit maps
    for name in ("example1", "bsz-dual:2"):
        alg = entries[name].algebra
        composed = alg.eps_maps["epshat_l"] * alg.eps_maps["eps_l"]
        assert composed == alg.projection("L", "L")


def test_projection_transpose_law(entries):
    flip = {"L": "R", "R": "L"}
    alg = entries["example1"].algebra
    for s in "LR":
        for sp in "LR":
            assert alg.projection(s, sp).transpose() == alg.projection(
                flip[sp], flip[s], dual=True
            )


def test_projmap_example1_value(entries):
    alg = entries["example1"].algebra
    # the mixed projection sends the first basis vector to e1 + e2
    got = alg.projection("L", "R").apply(unit_vec(9, 0))
    want = [Q(0)] * 9
    for idx in (0, 2, 3, 5):
        want[idx] = Q(1)
    assert list(got) == want


def test_projectors_idempotent_on_monoidal(entries):
    for name in ("group:z3", "bsz-dual:2", "adcross:z2,z2"):
        alg = entries[name].algebra
        for s in "LR":
            for sp in "LR":
                p = alg.projection(s, sp)
                assert p * p == p


def test_ordinary_projections_collapse(entries):
    alg = entries["group:z3"].algebra
    n = alg.dim
    expect = Matrix(
        [[alg.unit[i] * alg.counit[j] for j in range(n)] for i in range(n)]
    )
    for key in (("L", "L"), ("R", "R"), ("L", "R"), ("R", "L")):
        assert alg.projection(*key) == expect


def test_distinguished_subspaces_example1(entries):
    alg = entries["example1"].algebra
    report = decide_axioms(alg)
    assert report.dim_al == 3 and report.dim_ar == 3
    assert report.dim_al_cap_ar == 1


def test_distinguished_subspaces_ordinary(entries):
    alg = entries["group:z3"].algebra
    report = decide_axioms(alg)
    assert report.dim_al == report.dim_ar == 1


def test_bimonoidal_projection_images_equal_dim(entries):
    for name in ("bsz-dual:2", "adcross:z2,z2", "adcross:s3,a3"):
        report = decide_axioms(entries[name].algebra)
        dims = set(report.dims_a_sigma.values())
        assert len(dims) == 1


def test_fixed_points_example1(entries):
    alg = entries["example1"].algebra
    fixed = alg.fixed_point_subalgebras
    assert fixed[("L", "L")] == alg.subspaces["A_L"]
    assert fixed[("R", "R")] == alg.subspaces["A_R"]


def test_fixed_points_ordinary(entries):
    alg = entries["group:z2"].algebra
    for key, space in alg.fixed_point_subalgebras.items():
        assert space.dim == 1
        assert space.contains(alg.unit)


def test_fixed_points_dual_example1_strict_containment_observable(entries):
    dual = entries["example1"].algebra.dual
    report = decide_axioms(dual)
    kernel_dims = report.dims_n_sigma
    image_dims = report.dims_a_sigma
    # the report records both kinds of dimensions, never forcing equality
    assert kernel_dims["LL"] >= image_dims["LL"]


def test_axiom_flags_example1(entries):
    report = decide_axioms(entries["example1"].algebra)
    assert report.comonoidal
    assert not report.left_monoidal and not report.right_monoidal
    assert report.minimal
    assert "left-monoidal" in report.witnesses


def test_axiom_flags_group(entries):
    report = decide_axioms(entries["group:s3"].algebra)
    assert report.bimonoidal
    assert report.counit_factor_left and report.counit_factor_right
    assert not report.witnesses


def test_witness_is_lexicographically_first():
    # a commutative ordinary bialgebra made non-monoidal by counit tampering
    alg = build_example1()
    report = decide_axioms(alg)
    i, k, j = report.witnesses["left-monoidal"]
    g = alg.gram
    # no earlier triple violates the axiom
    for i2 in range(i + 1):
        for k2 in range(alg.dim):
            lhs = alg.right_mult[k2].transpose() * g
            rhs = g * alg.comult[k2] * g
            for j2 in range(alg.dim):
                if (i2, k2, j2) == (i, k, j):
                    assert lhs[i2, j2] != rhs[i2, j2]
                    return
                assert lhs[i2, j2] == rhs[i2, j2]


def test_monoidality_cross_check_agrees(entries):
    for name in ("example1", "group:z3", "bsz-dual:2"):
        ok, detail = monoidality_cross_check(entries[name].algebra)
        assert ok, detail


def test_structural_suite_clean_on_catalog(entries):
    for name in ("trivial", "group:z2", "dualgroup:z3", "example1", "bsz-dual:2"):
        checks = structural_theorem_suite(entries[name].algebra)
        assert not suite_failures(checks), name


def test_transport_preserves_axioms(entries):
    alg = entries["bsz-dual:2"].algebra
    t = Matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [1, 0, 0, 1]])
    moved = transport(alg, t)
    assert moved.is_valid
    r1 = decide_axioms(alg)
    r2 = decide_axioms(moved)
    assert r1.bimonoidal == r2.bimonoidal
    assert r1.dims_a_sigma == r2.dims_a_sigma


def test_non_idempotent_unit_coproduct_breaks_counit():
    # wiring the coproduct through a rank-one non-idempotent tensor leaves
    # multiplicativity intact but breaks the counit law
    good = build_example1()
    n = 9
    comult = []
    for i in range(3):
        for j in range(3):
            rows = [[Q(0)] * n for _ in range(n)]
            rows[i * 3 + 0][0 * 3 + j] = Q(1)
            comult.append(Matrix(rows))
    bad = WeakBialgebra(n, good.mult, good.unit, comult, good.counit)
    names = [name for name, _ in bad.violations]
    assert "counit-left" in names or "counit-right" in names
