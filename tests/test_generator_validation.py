"""Validation decided on algebra generators, against the full scans.

violations decides associativity, coassociativity and coproduct
multiplicativity on generators of the multiplication or of the dual
product (Light's test), and runs a full scan only after a failed
decision, to find the first witness.  The full-scan bodies of violations
and algebra_axiom_violations that this replaced are kept below verbatim as
oracles.  _generators is checked against an independent closure, the
full scans are counted, and the coopposite and opposite are checked to
share their parent's tables exactly as a rebuild would make them.
"""

import random

import pytest

from conftest import monomial_scramble
from test_kernels import SMALL, _perturbed_pool, _shifted_pool, _variants
from weakhopf import core
from weakhopf.constructions import Algebra, catalog
from weakhopf.core import (
    WeakBialgebra,
    _dual_product,
    _generators,
    algebra_axiom_violations,
)
from weakhopf.exactlin import Matrix, Subspace, row_space, unit_vec

# ----------------------------------------------------------------------
# the full scans, as they stood before the decisions on generators
# ----------------------------------------------------------------------


def _summed(terms):
    """The nonzero sums of the values of (key, value) pairs, as {key: sum}."""
    acc = {}
    for key, x in terms:
        acc[key] = acc.get(key, 0) + x
    return {key: x for key, x in acc.items() if x}


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


def scan_algebra_axiom_violations(algebra):
    """The failed unit and associativity axioms, with a witness basis tuple each.

    algebra needs dim and _integer_tables.  Each axiom reports its first
    failure in basis order.  The unit laws compare 1 e_i and e_i 1 with
    D_u D_m e_i; associativity, of degree two in the multiplication,
    compares (e_i e_j) e_k with e_i (e_j e_k) as they stand.
    """
    bad = []
    n = algebra.dim
    tables = algebra._integer_tables
    table = tables.mult
    one = [(l, u) for l, u in enumerate(tables.unit) if u]
    scale = tables.d_unit * tables.d_mult
    for i in range(n):
        if _summed((k, u * x) for l, u in one for k, x in table[l][i]) != {i: scale}:
            bad.append(("unit-left", (i,)))
            break
    for i in range(n):
        if _summed((k, u * x) for l, u in one for k, x in table[i][l]) != {i: scale}:
            bad.append(("unit-right", (i,)))
            break
    for i in range(n):
        ti = table[i]
        for j in range(n):
            tj = table[j]
            # (e_i e_j) e_k and e_i (e_j e_k) for every k at once, keyed (k, t)
            left = _summed(
                ((k, t), c * x)
                for l, c in ti[j]
                for k, lk in enumerate(table[l])
                for t, x in lk
            )
            right = _summed(
                ((k, t), c * x) for k, jk in enumerate(tj) for m, c in jk for t, x in ti[m]
            )
            if left != right:
                k = min(
                    key[0]
                    for key in left.keys() | right.keys()
                    if left.get(key) != right.get(key)
                )
                bad.append(("associativity", (i, j, k)))
                return bad
    return bad


def scan_violations(self):
    """All failed structural axioms with a witness basis tuple each.

    Every check runs over _integer_tables.  Coassociativity, of degree
    two in the coproduct, compares as it stands; the counit laws compare
    against D_e D_c e_k, and multiplicativity compares D_m D_c Delta(e_i e_j)
    with Delta(e_i) Delta(e_j).
    """
    bad = scan_algebra_axiom_violations(self)
    n = self.dim
    tables = self._integer_tables
    table, comult, eps = tables.mult, tables.comult, tables.counit
    scale = tables.d_comult * tables.d_counit
    for k in range(n):
        # (eps (x) id) Delta and (id (x) eps) Delta against e_k
        if _summed((j, c * eps[i]) for i, j, c in comult[k]) != {k: scale}:
            bad.append(("counit-left", (k,)))
            break
        if _summed((i, c * eps[j]) for i, j, c in comult[k]) != {k: scale}:
            bad.append(("counit-right", (k,)))
            break
    for k in range(n):
        # (Delta (x) id) Delta against (id (x) Delta) Delta
        dk = comult[k]
        left = _summed(((a, b, j), c * x) for i, j, c in dk for a, b, x in comult[i])
        right = _summed(((i, a, b), c * x) for i, j, c in dk for a, b, x in comult[j])
        if left != right:
            bad.append(("coassociativity", (k,)))
            break
    scale = tables.d_mult * tables.d_comult
    for i in range(n):
        ti = table[i]
        di = comult[i]
        for j in range(n):
            lhs = _summed(
                ((a, b), scale * m * x) for l, m in ti[j] for a, b, x in comult[l]
            )
            if lhs != _summed(_t2_terms(table, di, comult[j]).items()):
                bad.append(("coproduct-multiplicativity", (i, j)))
                return tuple(bad)
    return tuple(bad)


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------

_LARGER = ["adcross:s3,a3", "adcross:z8,z4"]

_FULL_SCANS = ("associativity", "coassociativity", "coproduct-multiplicativity")


def _fresh(algebra):
    """algebra rebuilt from its tensors, with nothing computed yet."""
    return WeakBialgebra(
        algebra.dim, algebra.mult, algebra.unit, algebra.comult, algebra.counit, algebra.labels
    )


def _plain(algebra):
    return Algebra(algebra.dim, algebra.mult, algebra.unit, algebra.labels)


@pytest.fixture(scope="module")
def larger():
    bases = [catalog(name).algebra for name in _LARGER]
    return bases + [base.dual for base in bases]


@pytest.fixture
def full_scans(monkeypatch):
    """Counts of the calls of each full scan, by its axiom.  The
    multiplicativity scan is the _first_non_multiplicative call over the
    whole basis, range(n); a decision passes a list of generators."""
    counts = dict.fromkeys(_FULL_SCANS, 0)
    witnesses = {
        "associativity": core._associativity_witness,
        "coassociativity": core._coassociativity_witness,
    }
    for axiom, scan in witnesses.items():

        def counted(*args, axiom=axiom, scan=scan):
            counts[axiom] += 1
            return scan(*args)

        monkeypatch.setattr(core, scan.__name__, counted)
    first_failure = core._first_non_multiplicative

    def counted_products(table, comult, firsts, scale):
        if type(firsts) is range:
            counts["coproduct-multiplicativity"] += 1
        return first_failure(table, comult, firsts, scale)

    monkeypatch.setattr(core, "_first_non_multiplicative", counted_products)
    return counts


# ----------------------------------------------------------------------
# the decisions against the full scans
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_violations_match_full_scans_on_the_small_catalog(entries, name):
    for algebra in _variants(entries[name].algebra):
        assert _fresh(algebra).violations == scan_violations(algebra) == ()
        assert algebra.violations == ()


def test_violations_match_full_scans_on_larger_instances(larger):
    for algebra in larger:
        assert _fresh(algebra).violations == scan_violations(algebra) == ()


def test_violations_match_full_scans_off_the_axioms(entries):
    seen = set()
    for algebra in _perturbed_pool(entries) + _shifted_pool(entries):
        got = algebra.violations
        assert got == scan_violations(algebra)
        seen.update(name for name, _ in got)
    assert {"associativity", "coassociativity", "coproduct-multiplicativity"} <= seen


def test_algebra_axiom_violations_match_full_scan(entries):
    for bialgebra in _perturbed_pool(entries) + _shifted_pool(entries):
        for algebra in (bialgebra, _plain(bialgebra)):
            assert algebra_axiom_violations(algebra) == scan_algebra_axiom_violations(algebra)


def test_valid_instances_never_reach_the_full_scans(entries, larger, full_scans):
    algebras = [a for name in SMALL for a in _variants(entries[name].algebra)] + larger
    for algebra in algebras:
        assert _fresh(algebra).violations == ()
        _plain(algebra).check()
    assert full_scans == dict.fromkeys(_FULL_SCANS, 0)


def test_full_scans_run_only_after_a_failed_decision(entries, full_scans):
    for algebra in _perturbed_pool(entries) + _shifted_pool(entries):
        before = dict(full_scans)
        kinds = {name for name, _ in algebra.violations}
        ran = {name for name in _FULL_SCANS if full_scans[name] > before[name]}
        assert ("associativity" in ran) == ("associativity" in kinds)
        assert ("coassociativity" in ran) == ("coassociativity" in kinds)
        # with neither law to decide it on, multiplicativity is scanned
        undecidable = {"associativity", "coassociativity"} <= kinds
        assert ("coproduct-multiplicativity" in ran) == (
            "coproduct-multiplicativity" in kinds or undecidable
        )
    assert all(full_scans.values())


def _multiplicative_off_both_laws():
    """A dim-4 instance that is neither associative nor coassociative but
    is multiplicative: B = span(e0, e1) with e0 e0 = e1, e1 e0 = e0 and
    Delta = 0, and C = span(e2, e3) with zero products, Delta(e2) = e2 (x) e3
    and Delta(e3) = e2 (x) e2; products between B and C are zero.  Every
    Delta(a b) is zero, and so is every Delta(a) Delta(b)."""
    n = 4
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    mult[0][0][1] = 1
    mult[1][0][0] = 1
    comult = [[[0] * n for _ in range(n)] for _ in range(n)]
    comult[2][2][3] = 1
    comult[3][2][2] = 1
    return WeakBialgebra(n, mult, [0] * n, comult, [0] * n)


def test_multiplicative_instance_off_both_laws(full_scans):
    algebra = _multiplicative_off_both_laws()
    got = algebra.violations
    assert got == scan_violations(algebra)
    kinds = {name for name, _ in got}
    assert {"associativity", "coassociativity"} <= kinds
    assert "coproduct-multiplicativity" not in kinds
    # neither law holds, so the full scan decided multiplicativity
    assert full_scans["coproduct-multiplicativity"] == 1


def _middle_off_the_generators(base):
    """The first one-constant change of base's multiplication, in index
    order, whose first failing triple (i, j, k) has j outside the
    generators of the changed table."""
    n = base.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                mult = [[list(cell) for cell in row] for row in base.mult]
                mult[i][j][k] += 1
                algebra = WeakBialgebra(n, mult, base.unit, base.comult, base.counit)
                witness = dict(scan_algebra_axiom_violations(algebra)).get("associativity")
                gens = _generators(algebra._integer_tables.mult, n)
                if witness is not None and witness[1] not in gens:
                    return algebra
    return None


@pytest.mark.parametrize("name", ["group:s3", "adcross:z4,z2"])
def test_witness_with_a_middle_index_off_the_generators(entries, name):
    algebra = _middle_off_the_generators(entries[name].algebra)
    assert algebra is not None
    assert algebra.violations == scan_violations(algebra)
    assert algebra_axiom_violations(algebra) == scan_algebra_axiom_violations(algebra)


def test_dim_64_validates_on_three_generators(monkeypatch):
    """Multiplicativity is decided on the side with fewer generators: the
    multiplication of adcross:z8,z8, and the dual product of its dual."""
    used = []
    first_failure = core._first_non_multiplicative

    def recorded(table, comult, firsts, scale):
        used.append(len(firsts))
        return first_failure(table, comult, firsts, scale)

    base = catalog("adcross:z8,z8").algebra
    monkeypatch.setattr(core, "_first_non_multiplicative", recorded)
    for algebra in (base, base.dual):
        assert _fresh(algebra).violations == ()
    assert len(used) == 2 and max(used) <= 3


# ----------------------------------------------------------------------
# _generators against an independent closure
# ----------------------------------------------------------------------


def _dense_products(algebra, dual):
    """products(x, y) over dense Fractions: the multiplication of algebra,
    or its dual product e^i e^j = sum_k Delta(e_k)[i][j] e^k."""
    n = algebra.dim
    if dual:
        slices = [m.data for m in algebra.comult]
        tensor = [[[slices[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)]
    else:
        tensor = algebra.mult

    def product(x, y):
        out = [0] * n
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                if a and b:
                    for k, c in enumerate(tensor[i][j]):
                        if c:
                            out[k] += a * b * c
        return out

    return product


def _closure(product, n, indices):
    """The row space of e_g, g in indices, and of all products of its
    vectors, iterated until it stops growing."""
    if not indices:
        return Subspace.zero(n)
    s = Subspace.from_spanning([unit_vec(n, g) for g in indices], n)
    while True:
        basis = s.basis.data
        rows = list(basis) + [product(x, y) for x in basis for y in basis]
        grown = row_space(Matrix(rows))
        if grown.dim == s.dim:
            return s
        s = grown


def _check_generators(algebra, dual, associative):
    n = algebra.dim
    tables = algebra._integer_tables
    table = _dual_product(tables.comult, n) if dual else tables.mult
    gens = _generators(table, n)
    assert gens == sorted(set(gens))
    product = _dense_products(algebra, dual)
    # closures[t] is the closure of the first t generators
    closures = [_closure(product, n, gens[:t]) for t in range(len(gens) + 1)]
    assert closures[-1].dim == n
    for i in range(n):
        earlier = closures[sum(g < i for g in gens)]
        if i not in gens:
            assert earlier.contains(unit_vec(n, i))
        elif associative:
            # with associativity the left products reach every product, so
            # the greedy choice keeps no generator it could do without
            assert not earlier.contains(unit_vec(n, i))
    return gens


@pytest.mark.parametrize("name", SMALL + ["adcross:s3,a3"])
def test_generators_match_closure_on_valid_tables(entries, name):
    for algebra in _variants(entries[name].algebra):
        for dual in (False, True):
            _check_generators(algebra, dual, associative=True)
        # the dual product of an instance is the multiplication of its dual
        assert _generators(algebra.dual._integer_tables.mult, algebra.dim) == _generators(
            _dual_product(algebra._integer_tables.comult, algebra.dim), algebra.dim
        )


def test_generators_span_on_perturbed_tables(entries):
    for algebra in _perturbed_pool(entries):
        for dual in (False, True):
            _check_generators(algebra, dual, associative=False)


def test_generator_counts():
    counts = {}
    for name in ("group:s3", "adcross:s3,a3", "adcross:z8,z8"):
        algebra = catalog(name).algebra
        tables = algebra._integer_tables
        counts[name] = (
            len(_generators(tables.mult, algebra.dim)),
            len(_generators(_dual_product(tables.comult, algebra.dim), algebra.dim)),
        )
    assert counts == {"group:s3": (3, 6), "adcross:s3,a3": (4, 12), "adcross:z8,z8": (3, 16)}


# ----------------------------------------------------------------------
# the coopposite and opposite share their parent's tables
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_derived_tables_equal_a_rebuild(entries, name):
    base = entries[name].algebra
    for algebra in (base, monomial_scramble(base, random.Random(name))):
        for derived in (
            algebra.opposite,
            algebra.coopposite,
            algebra.opposite.coopposite,
            algebra.dual.coopposite,
        ):
            rebuilt = _fresh(derived)
            assert derived._mult_nonzeros == rebuilt._mult_nonzeros
            assert derived._integer_tables == rebuilt._integer_tables
            assert derived.violations == rebuilt.violations == ()


def test_derived_instances_validate_their_own_tables(entries):
    """A coopposite or opposite of an invalid instance keeps its own
    violations, the same as a rebuild's."""
    for algebra in _perturbed_pool(entries):
        algebra.violations
        for derived in (algebra.opposite, algebra.coopposite):
            assert derived.violations == scan_violations(_fresh(derived))
