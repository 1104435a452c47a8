"""The monoidality decider on the trilinear counit form, the dual-pair
handoff, the one-leg-at-a-time multiplicativity scan and the sparse group
algebra, each against the code it replaced.

Monoidality is the trilinear identity eps(x y z) = eps(x y_1) eps(y_2 z)
(left) or eps(x y_2) eps(y_1 z) (right).  It is now decided on three
stacked n^2 x n matrices (core._counit_forms) instead of six families of n
separate n x n products (the old core._counit_triples); the old families,
witness scan and shape cross-check are kept below verbatim as oracles.

The dual of the dual is the instance itself, held weakly so that a pair
makes no reference cycle.  gram, delta1, eps_maps, projections and
subspaces of a dual pair are each other's with roles swapped, so whichever
side computes one first hands it to the other.  The handed-over values are
compared with a fresh build, key order included.

The product X Y in the tensor square (core._t2_terms), which the
multiplicativity scan and t2_mul read, contracts one leg at a time; the
pairwise loop it replaced is kept as an oracle, on instances that include
a dense basis change of example1.  The group algebra is built
from its nonzeros; the dense build it replaced is kept as an oracle.
"""

import gc
import random
import weakref

import pytest

from conftest import dense_scramble, instance_pool, monomial_scramble
from test_kernels import SMALL, _perturbed_pool, _random_scalar
from weakhopf import constructions, core, serialize
from weakhopf.cli import main
from weakhopf.constructions import catalog, catalog_names, group_algebra, named_group
from weakhopf.core import (
    WeakBialgebra,
    _dual_coproduct,
    _dual_product,
    _first_difference,
    _projection_products,
    _summed,
    computed_once,
)
from weakhopf.exactlin import QONE, QZERO, Matrix, nonzeros, unit_vec

# ----------------------------------------------------------------------
# oracles: the replaced code, verbatim
# ----------------------------------------------------------------------


def _first_monoidal_witness(algebra, right: bool):
    """Lexicographically first (a, b, c) basis triple violating the axiom."""
    n = algebra.dim
    kept = _counit_triples(algebra)
    lhs = kept["rt_g"]
    rhs = kept["g_dt_g"] if right else kept["g_d_g"]
    for i in range(n):
        for k in range(n):
            if lhs[k].sparse_rows[i] != rhs[k].sparse_rows[i]:
                return (i, k, _first_difference(lhs[k], rhs[k], i))
    return None


@computed_once
def _counit_triples(algebra):
    """Per basis index k, with g the Gram matrix, D_k the coproduct of e_k
    and R_k right multiplication by e_k: R_k^t, R_k^t g, D_k g, D_k^t g,
    g D_k g and g D_k^t g.  The monoidality deciders compare R_k^t g with
    the last two, and the shape cross-check shares all of them."""
    g = algebra.gram
    rt = [m.transpose() for m in algebra.right_mult]
    d_g = [d * g for d in algebra.comult]
    dt_g = [d.transpose() * g for d in algebra.comult]
    return {
        "rt": rt,
        "rt_g": [m * g for m in rt],
        "d_g": d_g,
        "dt_g": dt_g,
        "g_d_g": [g * m for m in d_g],
        "g_dt_g": [g * m for m in dt_g],
    }


def _axiom_tensor_shapes(algebra, left: bool):
    """Evaluate the list of equivalent monoidality axioms, one bool each."""
    n = algebra.dim
    g = algebra.gram
    gt = g.transpose()
    d1 = algebra.delta1
    # eps_l is g^t and eps_r is g, so eps_l^t = g and eps_r^t = g^t
    eps_l = algebra.eps_maps["eps_l"]
    eps_r = algebra.eps_maps["eps_r"]
    dual = algebra.dual
    dp_ll = dual.projection("L", "L")
    dp_rr = dual.projection("R", "R")
    dp_lr = dual.projection("L", "R")
    dp_rl = dual.projection("R", "L")
    kept = _counit_triples(algebra)
    out = {}
    if left:
        out["counit-triple"] = all(
            a == b for a, b in zip(kept["rt_g"], kept["g_d_g"])
        )
        dp_ll_t = dp_ll.transpose()
        out["dual-ll-absorb"] = all(
            dual.comult[t] * dp_ll_t
            == dual.left_mult[t] * dual.delta1
            for t in range(n)
        )
        out["left-coproduct-drop"] = all(
            kept["d_g"][t] == algebra.left_mult[t] * d1 * g for t in range(n)
        )
        l_rr = _projection_products(algebra, "RR")[0]
        out["rr-projection-product"] = all(l_rr[s] == kept["d_g"][s] for s in range(n))
        out["dual-rr-absorb"] = all(
            dp_rr * dual.comult[t]
            == dual.delta1 * dual.right_mult[t].transpose()
            for t in range(n)
        )
        eps_r_d1 = eps_r * d1
        out["right-coproduct-drop"] = all(
            eps_r * algebra.comult[s] == eps_r_d1 * kept["rt"][s]
            for s in range(n)
        )
        r_ll = _projection_products(algebra, "LL")[0]
        out["ll-projection-product"] = all(
            r_ll[s] == algebra.comult[s].transpose() * gt for s in range(n)
        )
    else:
        out["counit-triple"] = all(
            a == b for a, b in zip(kept["rt_g"], kept["g_dt_g"])
        )
        dp_lr_t = dp_lr.transpose()
        out["dual-lr-absorb"] = all(
            dual.comult[t] * dp_lr_t
            == dual.right_mult[t] * dual.delta1
            for t in range(n)
        )
        eps_l_d1 = eps_l * d1
        out["left-coproduct-drop"] = all(
            eps_l * algebra.comult[s]
            == eps_l_d1 * algebra.left_mult[s].transpose()
            for s in range(n)
        )
        l_lr = _projection_products(algebra, "LR")[0]
        out["lr-projection-product"] = all(l_lr[s] == kept["dt_g"][s] for s in range(n))
        out["dual-rl-absorb"] = all(
            dp_rl * dual.comult[t]
            == dual.delta1 * dual.left_mult[t].transpose()
            for t in range(n)
        )
        d_gt = [d * gt for d in algebra.comult]
        out["right-coproduct-drop"] = all(
            d_gt[t] == algebra.right_mult[t] * d1 * gt for t in range(n)
        )
        r_rl = _projection_products(algebra, "RL")[0]
        out["rl-projection-product"] = all(r_rl[s] == d_gt[s] for s in range(n))
    return out


def monoidality_cross_check(algebra: WeakBialgebra):
    """All equivalent presentations of one-sided monoidality must agree."""
    left = _axiom_tensor_shapes(algebra, left=True)
    right = _axiom_tensor_shapes(algebra, left=False)
    left_ok = len(set(left.values())) == 1
    right_ok = len(set(right.values())) == 1
    return left_ok and right_ok, {"left": left, "right": right}


def _t2_terms(table, xnz, ynz):
    """X Y in the tensor square, as a {(u, v): coefficient} dict.

    The sum of c d (e_p e_r) (x) (e_q e_s) over the nonzeros (p, q, c) of X
    and (r, s, d) of Y.  table holds the per-(i, j) nonzero lists of the
    multiplication, of rationals or of ints; the result may hold zeros.
    """
    acc = {}
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
                for v, sv in second:
                    key = (u, v)
                    prev = acc.get(key)
                    acc[key] = w * sv if prev is None else prev + w * sv
    return acc


def _first_non_multiplicative(table, comult, firsts, scale):
    """The first (a, b), a over firsts and b over the basis, with
    scale Delta(e_a e_b) != Delta(e_a) Delta(e_b), or None.

    table and comult are the int tables of one orientation; the identity
    reads the same on the dual tables, with the two maps swapped."""
    for a in firsts:
        ta = table[a]
        da = comult[a]
        for b, db in enumerate(comult):
            lhs = _summed(((u, v), scale * m * x) for l, m in ta[b] for u, v, x in comult[l])
            if lhs != _summed(_t2_terms(table, da, db).items()):
                return (a, b)
    return None


def dense_group_algebra(gp):
    """Group algebra with grouplike coproduct; an ordinary Hopf algebra."""
    n = gp.order
    mult = [[list(unit_vec(n, gp.table[i][j])) for j in range(n)] for i in range(n)]
    comult = [
        Matrix([[QONE if i == k == j else QZERO for j in range(n)] for i in range(n)])
        for k in range(n)
    ]
    unit = unit_vec(n, gp.identity)
    counit = [QONE] * n
    return WeakBialgebra(n, mult, unit, comult, counit, labels=gp.labels)


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------


def _fresh(algebra):
    """algebra rebuilt from its tables, with nothing computed and no dual."""
    return WeakBialgebra._of_tables(
        algebra.dim, algebra._mult_nonzeros, algebra.unit, algebra.comult, algebra.counit,
        algebra.labels,
    )


def _records(entries, name):
    """The catalog instance and its dual, opposite, coopposite and
    opposite-coopposite."""
    base = entries[name].algebra
    return [base, base.dual, base.opposite, base.coopposite, base.opposite.coopposite]


def _transports(entries):
    """Seeded monomial and dense basis changes of the small bases."""
    out = []
    for name in ("group:z3", "dualgroup:z3", "bsz-dual:2", "adcross:z2,z2", "example1"):
        rng = random.Random("counit-forms:" + name)
        base = entries[name].algebra
        out += [monomial_scramble(base, rng), monomial_scramble(base.dual, rng)]
        if base.dim <= 4:
            out.append(dense_scramble(base, rng))
    return out


def _counit_perturbed(entries):
    """Catalog instances with one counit entry shifted, which breaks the
    trilinear identity in general."""
    rng = random.Random(20261019)
    out = []
    for name in SMALL:
        base = entries[name].algebra
        if base.dim < 2:
            continue
        for _ in range(2):
            counit = list(base.counit)
            counit[rng.randrange(base.dim)] += _random_scalar(rng)
            out.append(WeakBialgebra(base.dim, base.mult, base.unit, base.comult, counit, base.labels))
    return out


@pytest.fixture(scope="module")
def adcross_z8_z4():
    return catalog("adcross:z8,z4").algebra


def _assert_monoidality_matches(algebra):
    witnesses = []
    for right in (False, True):
        witness = core._first_monoidal_witness(algebra, right)
        assert witness == _first_monoidal_witness(algebra, right)
        witnesses.append(witness)
    assert core.monoidality_cross_check(algebra) == monoidality_cross_check(algebra)
    return witnesses


# ----------------------------------------------------------------------
# the trilinear counit form against the counit triples
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_monoidal_witnesses_match_the_counit_triples(entries, name):
    for algebra in _records(entries, name):
        _assert_monoidality_matches(algebra)


def test_monoidal_witnesses_match_on_transports(entries):
    for algebra in _transports(entries):
        _assert_monoidality_matches(algebra)


def test_monoidal_witnesses_match_at_dim_32(adcross_z8_z4):
    for algebra in (adcross_z8_z4, adcross_z8_z4.dual):
        assert _assert_monoidality_matches(algebra) == [None, None]


def test_monoidal_witnesses_match_off_the_axioms(entries):
    hits = [0, 0]
    perturbed = _counit_perturbed(entries) + _perturbed_pool(entries)[::4]
    for algebra in perturbed:
        for side, witness in enumerate(_assert_monoidality_matches(algebra)):
            hits[side] += witness is not None
    # the perturbed constants reach a witness on each side
    assert min(hits) > 0


def test_counit_forms_read_the_trilinear_identity(entries):
    """Entry (i * n + k, j) of each form against eps of basis products:
    eps(e_i e_k e_j), and the sums over the nonzeros (u, v, c) of
    Delta(e_k) of c eps(e_i e_u) eps(e_v e_j) and c eps(e_i e_v) eps(e_u e_j)."""
    algebra = entries["example1"].algebra
    n = algebra.dim
    g = algebra.gram
    e = [unit_vec(n, i) for i in range(n)]
    triple, left, right = core._counit_forms(algebra)
    for i in range(n):
        for k in range(n):
            ik = algebra.mul(e[i], e[k])
            dk = core.nonzeros(algebra.comult[k])
            for j in range(n):
                assert triple[i * n + k, j] == algebra.eps(algebra.mul(ik, e[j]))
                assert left[i * n + k, j] == sum(c * g[i, u] * g[v, j] for u, v, c in dk)
                assert right[i * n + k, j] == sum(c * g[i, v] * g[u, j] for u, v, c in dk)


# ----------------------------------------------------------------------
# the dual-pair handoff
# ----------------------------------------------------------------------

_HANDED = ("gram", "delta1", "eps_maps", "projections", "subspaces")


def _computed(algebra):
    return {name: getattr(algebra, name) for name in _HANDED}


def _assert_equal_with_key_order(handed, fresh):
    for name in _HANDED:
        assert handed[name] == fresh[name]
        if isinstance(fresh[name], dict):
            assert list(handed[name]) == list(fresh[name])


@pytest.mark.parametrize("name", SMALL)
def test_dual_of_the_dual_is_the_same_object(entries, name):
    base = entries[name].algebra
    for algebra in (base, base.opposite, _fresh(base)):
        assert algebra.dual.dual is algebra
        assert algebra.dual.dual.dual is algebra.dual


def test_dual_pair_makes_no_reference_cycle(entries):
    """Dropping the last reference to an instance frees it and its dual at
    once, without the cycle collector; a dual that outlives its parent
    builds an equal parent again."""
    base = entries["example1"].algebra
    parent = _fresh(base)
    dual = parent.dual
    parent_ref, dual_ref = weakref.ref(parent), weakref.ref(dual)
    del dual
    gc.disable()
    try:
        del parent
        assert parent_ref() is None and dual_ref() is None
    finally:
        gc.enable()
    dual = _fresh(base).dual
    assert dual.dual == base and dual.dual.labels == base.labels
    assert dual.dual.dual is dual


@pytest.mark.parametrize("name", SMALL + ["adcross:z8,z4"])
def test_dual_takes_the_parents_values(name):
    parent = _fresh(catalog(name).algebra)
    kept = _computed(parent)
    dual = parent.dual
    handed = _computed(dual)
    # the values are the parent's own objects, renamed
    assert handed["gram"] is kept["delta1"] and handed["delta1"] is kept["gram"]
    assert handed["subspaces"]["A_L"] is kept["subspaces"]["Ahat_L"]
    assert handed["projections"][("L", "R")] is kept["projections"][("L", "R", "dual")]
    assert handed["eps_maps"]["eps_r"] is kept["eps_maps"]["epshat_r"]
    _assert_equal_with_key_order(handed, _computed(_fresh(dual)))


@pytest.mark.parametrize("name", SMALL)
def test_parent_takes_the_duals_values(entries, name):
    parent = _fresh(entries[name].algebra)
    dual = parent.dual
    kept = _computed(dual)
    handed = _computed(parent)
    assert handed["gram"] is kept["delta1"]
    assert handed["subspaces"]["Ahat_RL"] is kept["subspaces"]["A_RL"]
    _assert_equal_with_key_order(handed, _computed(_fresh(parent)))


def _assert_double_dual(algebra):
    """The dual of a dual rebuilt from its tables, which swaps the tables
    and rewrites the labels once more, is the instance again."""
    twice = _fresh(algebra.dual).dual
    assert twice is not algebra
    assert twice == algebra
    assert twice.labels == algebra.labels
    assert twice._mult_nonzeros == algebra._mult_nonzeros
    assert twice._integer_tables == algebra._integer_tables


@pytest.mark.parametrize("name", catalog_names())
def test_double_dual_from_tables_is_the_instance(name):
    _assert_double_dual(catalog(name).algebra)


def test_double_dual_from_tables_over_the_acceptance_pool(entries):
    pool = instance_pool(entries)
    assert len(pool) >= 100
    for _, algebra in pool:
        _assert_double_dual(algebra)


def test_handoff_keeps_reports_and_suites(entries):
    """decide_axioms and the structural suite read the same on a pair built
    either way round as on fresh instances."""
    for name in ("example1", "bsz-dual:2", "adcross:z2,z2"):
        parent = _fresh(entries[name].algebra)
        dual = parent.dual
        core.structural_theorem_suite(dual)
        for algebra in (parent, dual):
            fresh = _fresh(algebra)
            assert core.decide_axioms(algebra) == core.decide_axioms(fresh)
            assert core.structural_theorem_suite(algebra) == core.structural_theorem_suite(fresh)


# ----------------------------------------------------------------------
# the tensor-square product and the multiplicativity scan against the
# pairwise loop
# ----------------------------------------------------------------------


def _square_factors(algebra, rng):
    """Coproducts, Delta(1) and a seeded dense coefficient matrix."""
    n = algebra.dim
    dense = Matrix([[_random_scalar(rng) for _ in range(n)] for _ in range(n)])
    return [algebra.comult[0], algebra.comult[-1], algebra.delta1, dense]


def _assert_square_matches(algebra, x, y):
    n = algebra.dim
    table = algebra._mult_nonzeros
    expected = _summed(_t2_terms(table, nonzeros(x), nonzeros(y)).items())
    assert _summed(core._t2_terms(table, nonzeros(x), nonzeros(y)).items()) == expected
    assert algebra.t2_mul(x, y) == Matrix(
        [[expected.get((u, v), QZERO) for v in range(n)] for u in range(n)]
    )


def test_tensor_square_product_matches_the_pairwise_loop(entries):
    rng = random.Random(29)
    for name in SMALL:
        algebra = entries[name].algebra
        factors = _square_factors(algebra, rng)
        for x in factors:
            for y in factors:
                _assert_square_matches(algebra, x, y)
    # one pair of dense coproducts; the pairwise loop is slow on them
    algebra = _dense_example1()
    _assert_square_matches(algebra, algebra.comult[0], algebra.comult[-1])


def _orientations(algebra):
    """The int tables of the instance and of its dual, with scale."""
    t = algebra._integer_tables
    n = algebra.dim
    scale = t.d_mult * t.d_comult
    return [
        (t.mult, t.comult, scale),
        (_dual_product(t.comult, n), _dual_coproduct(t.mult, n), scale),
    ]


def test_multiplicativity_scan_matches_the_pairwise_loop(entries, adcross_z8_z4):
    instances = [a for name in SMALL for a in _records(entries, name)]
    instances += _transports(entries) + _perturbed_pool(entries)
    witnesses = []
    for algebra in instances:
        for table, comult, scale in _orientations(algebra):
            firsts = range(algebra.dim)
            witness = core._first_non_multiplicative(table, comult, firsts, scale)
            assert witness == _first_non_multiplicative(table, comult, firsts, scale)
            witnesses.append(witness)
    assert None in witnesses and len(set(witnesses)) > 2
    table, comult, scale = _orientations(adcross_z8_z4)[0]
    gens = adcross_z8_z4._mult_generators
    assert core._first_non_multiplicative(table, comult, gens, scale) is None
    assert _first_non_multiplicative(table, comult, gens, scale) is None


def _dense_example1():
    """example1 after a dense integer basis change, entries in -2..2."""
    return dense_scramble(catalog("example1").algebra, random.Random(5))


def test_dense_transport_of_example1_validates():
    algebra = _dense_example1()
    # dense: some product of basis elements has every coordinate nonzero
    assert max(len(m) for row in algebra._mult_nonzeros for m in row) == algebra.dim
    assert algebra.violations == ()
    table, comult, scale = _orientations(algebra)[0]
    first = algebra._mult_generators[:1]
    assert core._first_non_multiplicative(table, comult, first, scale) is None
    assert _first_non_multiplicative(table, comult, first, scale) is None


def test_dense_transport_of_example1_off_the_axioms():
    algebra = _dense_example1()
    rng = random.Random(11)
    for _ in range(3):
        mult = [[list(cell) for cell in row] for row in algebra.mult]
        i, j, k = (rng.randrange(algebra.dim) for _ in range(3))
        mult[i][j][k] += _random_scalar(rng)
        perturbed = WeakBialgebra(
            algebra.dim, mult, algebra.unit, algebra.comult, algebra.counit, algebra.labels
        )
        table, comult, scale = _orientations(perturbed)[0]
        firsts = range(algebra.dim)
        witness = core._first_non_multiplicative(table, comult, firsts, scale)
        assert witness is not None
        assert witness == _first_non_multiplicative(table, comult, firsts, scale)


# ----------------------------------------------------------------------
# the group algebra from its nonzeros
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "z5", "z6", "z8", "z12", "z16", "z32", "z64", "s3"])
def test_group_algebra_matches_the_dense_build(name):
    gp = named_group(name)
    algebra = group_algebra(gp)
    dense = dense_group_algebra(gp)
    for new, old in ((algebra, dense), (algebra.dual, dense.dual)):
        assert new == old
        assert new.labels == old.labels
        assert new._mult_nonzeros == old._mult_nonzeros
        assert new.comult == old.comult
        assert serialize.dumps(serialize.algebra_to_document(new)) == serialize.dumps(
            serialize.algebra_to_document(old)
        )
    assert algebra.violations == () and dense.violations == ()


@pytest.mark.parametrize("name", ["group:z2", "group:z3", "group:s3", "dualgroup:z3", "dualgroup:s3"])
def test_catalog_emit_bytes_are_unchanged(name, capsys, monkeypatch):
    assert main(["catalog", "emit", name]) == 0
    emitted = capsys.readouterr().out
    monkeypatch.setattr(constructions, "group_algebra", dense_group_algebra)
    assert main(["catalog", "emit", name]) == 0
    assert capsys.readouterr().out == emitted
