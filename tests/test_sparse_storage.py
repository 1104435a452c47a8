"""Instances stored as nonzero lists, against the dense paths they replaced.

A WeakBialgebra keeps its multiplication once, as the nonzero lists
_mult_nonzeros, and builds the dense mult tensor only when it is read.
Parsing, emission, the dual, the opposite, the coopposite, direct sums,
transports and the adjoint crossed products hand those lists over without
a dense pass.  The dense emission, parsing and tensor coercion they
replaced, and the dense builders of direct sums, transports and the adjoint
crossed product, are kept below verbatim as oracles.
"""

import json
import random
from fractions import Fraction

import pytest

from conftest import monomial_scramble
from weakhopf import serialize
from weakhopf.constructions import ad_crossed_product, catalog, catalog_names, named_subgroup
from weakhopf.core import AlgebraDataError, WeakBialgebra, _shaped, decide_axioms, direct_sum, transport
from weakhopf.exactlin import QONE, QZERO, Matrix, Q, inverse, rank, vec
from weakhopf.serialize import ParseError, parse_sparse_entries, parse_vector

# ----------------------------------------------------------------------
# the dense paths, as they stood before the nonzero lists were stored
# ----------------------------------------------------------------------


def _as_mult_tensor(dim, mult):
    return tuple(
        tuple(
            vec(_shaped(ij, dim, "mult tensor at (%d,%d)" % (i, j)))
            for j, ij in enumerate(_shaped(row, dim, "mult tensor"))
        )
        for i, row in enumerate(_shaped(mult, dim, "mult tensor"))
    )


def _mult_nonzeros(mult):
    """Entry (i, j) lists the nonzero (k, c): e_i e_j = sum c e_k."""
    return tuple(
        tuple(tuple((k, c) for k, c in enumerate(ij) if c) for ij in row)
        for row in mult
    )


def algebra_to_document(algebra, extras=None) -> dict:
    n = algebra.dim
    mult_entries = []
    for i in range(n):
        for j in range(n):
            for k, c in enumerate(algebra.mult[i][j]):
                if c:
                    mult_entries.append([i, j, k, serialize.qstr(c)])
    comult_entries = []
    for k in range(n):
        for i in range(n):
            for j in range(n):
                c = algebra.comult[k][i, j]
                if c:
                    comult_entries.append([k, i, j, serialize.qstr(c)])
    doc = {
        "field": "Q",
        "dim": n,
        "basis": list(algebra.labels),
        "mult": mult_entries,
        "unit": [serialize.qstr(c) for c in algebra.unit],
        "comult": comult_entries,
        "counit": [serialize.qstr(c) for c in algebra.counit],
    }
    if extras:
        doc["extras"] = extras
    return doc


def document_to_algebra(doc) -> WeakBialgebra:
    if not isinstance(doc, dict):
        raise ParseError("document must be an object")
    if doc.get("field") != "Q":
        raise ParseError("unsupported field %r" % doc.get("field"))
    try:
        n = int(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("missing or bad dimension") from exc
    if n < 1:
        raise ParseError("dimension must be positive")
    labels = doc.get("basis")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n:
            raise ParseError("basis labels must list one name per dimension")
    mult = [[[QZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in parse_sparse_entries(doc.get("mult", []), n):
        mult[i][j][k] = c
    comult = [[[QZERO] * n for _ in range(n)] for _ in range(n)]
    for k, i, j, c in parse_sparse_entries(doc.get("comult", []), n):
        comult[k][i][j] = c
    unit = parse_vector(doc.get("unit", []), n)
    counit = parse_vector(doc.get("counit", []), n)
    try:
        return WeakBialgebra(n, mult, unit, comult, counit, labels=labels)
    except Exception as exc:
        raise ParseError("structurally malformed algebra: %s" % exc) from exc


def dense_transport(algebra, t):
    """Rewrite the presentation in the basis whose vectors are the columns of t."""
    n = algebra.dim
    tinv = inverse(t)
    if tinv is None:
        raise AlgebraDataError("basis-change matrix is singular")
    cols = [t.col(i) for i in range(n)]
    # row i * n + j: T^-1 of the product of columns i and j of T
    tt = t.transpose()
    prods = (algebra.products(tt, tt) * tinv.transpose()).data
    mult = [prods[i * n : (i + 1) * n] for i in range(n)]
    comult = [tinv * algebra.delta(cols[k]) * tinv.transpose() for k in range(n)]
    unit = tinv.apply(algebra.unit)
    counit = [algebra.eps(cols[k]) for k in range(n)]
    return WeakBialgebra(n, mult, unit, comult, counit, labels=algebra.labels)


def dense_direct_sum(a, b):
    n, m = a.dim, b.dim
    dim = n + m
    mult = [[[QZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                mult[i][j][k] = a.mult[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                mult[n + i][n + j][n + k] = b.mult[i][j][k]
    comult = [Matrix._of_sparse(d.sparse_rows + ((),) * m, dim) for d in a.comult]
    comult += [
        Matrix._of_sparse(
            ((),) * n + tuple(tuple((n + j, x) for j, x in r) for r in d.sparse_rows), dim
        )
        for d in b.comult
    ]
    unit = list(a.unit) + list(b.unit)
    counit = list(a.counit) + list(b.counit)
    labels = tuple("l." + s for s in a.labels) + tuple("r." + s for s in b.labels)
    return WeakBialgebra(dim, mult, unit, comult, counit, labels)


def ad_crossed_mult(gp, subgroup):
    """The dense multiplication tensor of ad_crossed_product(gp, subgroup)."""
    nh = len(subgroup)
    ng = gp.order
    hindex = {h: t for t, h in enumerate(subgroup)}
    dim = nh * ng

    def idx(hi, gi):
        return hi * ng + gi

    mult = [[[QZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for hi in range(nh):
        for gi in range(ng):
            for hj in range(nh):
                for gj in range(ng):
                    conj = gp.conjugate(gi, subgroup[hj])
                    hout = gp.table[subgroup[hi]][conj]
                    gout = gp.table[gi][gj]
                    mult[idx(hi, gi)][idx(hj, gj)][idx(hindex[hout], gout)] += QONE
    return mult


# ----------------------------------------------------------------------
# the instances compared
# ----------------------------------------------------------------------

SMALL_NAMES = [name for name in catalog_names() if catalog(name).algebra.dim <= 9]


def _fresh(algebra):
    """algebra rebuilt from its dense tensors, with nothing computed yet."""
    return WeakBialgebra(
        algebra.dim, algebra.mult, algebra.unit, algebra.comult, algebra.counit, algebra.labels
    )


def _derived(base):
    return {
        "": base,
        ".dual": base.dual,
        ".op": base.opposite,
        ".cop": base.coopposite,
        ".opcop": base.opposite.coopposite,
    }


@pytest.fixture(scope="module")
def instances():
    """(name, instance, the same instance built by the dense paths)."""
    out = []
    for name in SMALL_NAMES:
        for suffix, algebra in _derived(catalog(name).algebra).items():
            out.append((name + suffix, algebra, document_to_algebra(algebra_to_document(algebra))))
    z2, ex1 = catalog("group:z2").algebra, catalog("example1").algebra
    bsz2, dz3 = catalog("bsz-dual:2").algebra, catalog("dualgroup:z3").algebra
    for name, a, b in (("sum:z2+example1", z2, ex1), ("sum:bsz2+dualz3", bsz2, dz3)):
        out.append((name, direct_sum(a, b), dense_direct_sum(a, b)))
    rng = random.Random("sparse-storage-transport")
    # (validating a dense basis change of example1 alone takes about 3 s)
    for name in ("group:s3", "dualgroup:s3", "bsz-dual:2", "adcross:z2,z2"):
        base = catalog(name).algebra
        n = base.dim
        perm = list(range(n))
        rng.shuffle(perm)
        monomial = Matrix(
            [[Q(rng.randint(1, 5), rng.randint(1, 3)) if i == perm[j] else 0 for j in range(n)] for i in range(n)]
        )
        while True:
            dense = Matrix([[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
            if rank(dense) == n:
                break
        for kind, t in (("mono", monomial), ("dense", dense)):
            out.append(("%s.%s" % (name, kind), transport(base, t), dense_transport(base, t)))
    gp, sub = named_subgroup("z8", "z4")
    crossed = ad_crossed_product(gp, sub)[0]
    rebuilt = WeakBialgebra(
        crossed.dim, ad_crossed_mult(gp, sub), crossed.unit, crossed.comult, crossed.counit, crossed.labels
    )
    out.append(("adcross:z8,z4", crossed, rebuilt))
    return out


def test_instances_cover_the_named_paths(instances):
    names = [name for name, _, _ in instances]
    assert len(names) == 5 * len(SMALL_NAMES) + 2 + 8 + 1
    assert "example1.opcop" in names and "adcross:z8,z4" in names


def test_stored_lists_match_the_dense_paths(instances):
    for name, algebra, oracle in instances:
        n = algebra.dim
        parsed = serialize.document_to_algebra(serialize.algebra_to_document(algebra))
        text = serialize.dumps(serialize.algebra_to_document(algebra))
        assert text == serialize.dumps(algebra_to_document(oracle)), name
        assert text == serialize.dumps(algebra_to_document(parsed)), name
        dense = _as_mult_tensor(n, oracle.mult)
        for x in (algebra, parsed, _fresh(algebra)):
            assert x == oracle, name
            assert x.labels == oracle.labels, name
            assert x.mult == dense, name
            assert x._mult_nonzeros == _mult_nonzeros(dense), name
            assert x._integer_tables == oracle._integer_tables, name
            assert x._mult_generators == oracle._mult_generators, name
            assert x.violations == oracle.violations == (), name
            assert decide_axioms(x) == decide_axioms(oracle), name


def test_adcross_z8_z4_mult_matches_the_dense_loop(instances):
    (crossed, rebuilt) = [(a, b) for name, a, b in instances if name == "adcross:z8,z4"][0]
    gp, sub = named_subgroup("z8", "z4")
    assert crossed.mult == _as_mult_tensor(32, ad_crossed_mult(gp, sub))
    assert crossed == rebuilt


# ----------------------------------------------------------------------
# the tables handed to derived instances
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_handed_tables_equal_a_rebuild(name):
    base = catalog(name).algebra
    for algebra in (base, monomial_scramble(base, random.Random(name))):
        for derived in (algebra.dual, algebra.opposite, algebra.coopposite, algebra.dual.opposite):
            rebuilt = _fresh(derived)
            assert derived._mult_nonzeros == rebuilt._mult_nonzeros
            assert derived._integer_tables == rebuilt._integer_tables
            assert derived == rebuilt and derived.labels == rebuilt.labels


@pytest.mark.parametrize("name", catalog_names())
def test_dual_of_the_dual_is_the_instance(name):
    algebra = catalog(name).algebra
    twice = algebra.dual.dual
    assert twice == algebra
    assert twice.labels == algebra.labels
    assert twice._mult_nonzeros == algebra._mult_nonzeros


# ----------------------------------------------------------------------
# edge cases of the parse path
# ----------------------------------------------------------------------


def _example1_document():
    return serialize.algebra_to_document(catalog("example1").algebra)


def test_explicit_zero_entries_are_dropped():
    doc = _example1_document()
    padded = json.loads(json.dumps(doc))
    used = {tuple(e[:3]) for e in doc["mult"]}
    cells = [(i, j, k) for i in range(9) for j in range(9) for k in range(9)]
    padded["mult"] = doc["mult"] + [[*ijk, "0"] for ijk in cells[::7] if ijk not in used]
    used = {tuple(e[:3]) for e in doc["comult"]}
    padded["comult"] = [[*kij, "0/3"] for kij in cells[::11] if kij not in used] + doc["comult"]
    parsed = serialize.document_to_algebra(padded)
    assert parsed == serialize.document_to_algebra(doc)
    assert parsed == document_to_algebra(padded)
    assert parsed._mult_nonzeros == _mult_nonzeros(parsed.mult)
    assert all(c for m in parsed.comult for row in m.sparse_rows for _, c in row)
    assert serialize.dumps(serialize.algebra_to_document(parsed)) == serialize.dumps(doc)


def test_json_integer_scalars_parse_as_before():
    doc = _example1_document()
    ints = json.loads(json.dumps(doc))
    for entries in (ints["mult"], ints["comult"]):
        for e in entries:
            if "/" not in e[3]:
                e[3] = int(e[3])
    ints["unit"] = [int(x) if "/" not in x else x for x in ints["unit"]]
    parsed = serialize.document_to_algebra(ints)
    assert parsed == document_to_algebra(ints) == serialize.document_to_algebra(doc)
    assert serialize.dumps(serialize.algebra_to_document(parsed)) == serialize.dumps(doc)


@pytest.mark.parametrize(
    "field, entry, message",
    [
        ("mult", [0, 0, 2, "1"], "index 2 out of range"),
        ("mult", [0, -1, 0, "1"], "index -1 out of range"),
        ("mult", [True, 0, 0, "1"], "index True out of range"),
        ("comult", [0, 0, 0, "1"], "repeated sparse entry [0, 0, 0]"),
        ("mult", [1, 1, 0, "-1"], "repeated sparse entry [1, 1, 0]"),
    ],
)
def test_parse_error_messages_are_unchanged(field, entry, message):
    doc = serialize.algebra_to_document(catalog("group:z2").algebra)
    doc[field] = doc[field] + [entry]
    for parse in (serialize.document_to_algebra, document_to_algebra):
        with pytest.raises(ParseError) as raised:
            parse(doc)
        assert str(raised.value) == message


@pytest.mark.parametrize(
    "mult",
    [
        [[[1, 0], [0, 1]]],
        [[[1, 0], [0, 1]], [[0, 1]]],
        [[[1, 0], [0, 1]], [[0, 1], [1, 0, 0]]],
        [[[1, 0], [0, 1]], [[0, 1], 5]],
        "ab",
    ],
)
def test_wrong_shaped_dense_tensor_message_is_unchanged(mult):
    group = catalog("group:z2").algebra
    with pytest.raises(AlgebraDataError) as expected:
        _as_mult_tensor(2, mult)
    with pytest.raises(AlgebraDataError) as raised:
        WeakBialgebra(2, mult, group.unit, group.comult, group.counit)
    assert str(raised.value) == str(expected.value)


def test_dense_constructor_drops_zeros_and_coerces_cells():
    group = catalog("group:z2").algebra
    mult = [[[1, "0"], [0, Q(1)]], [["0/2", 1], [1, 0]]]
    built = WeakBialgebra(2, mult, group.unit, group.comult, group.counit)
    assert built == group
    assert built._mult_nonzeros == ((((0, QONE),), ((1, QONE),)), (((1, QONE),), ((0, QONE),)))
    assert all(type(c) is Fraction for row in built.mult for ij in row for c in ij)
    assert built.mult == _as_mult_tensor(2, mult)
