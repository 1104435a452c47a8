"""Builders for the catalog of weak bialgebra and weak Hopf instances.

Covers minimal instances assembled from a nondegenerate idempotent, minimal
weak Hopf structures reconstructed from a functional and a wedge flip,
two-sided crossed products with a Hopf algebra, and adjoint crossed products
of a group by a normal subgroup.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

from .core import (
    WeakBialgebra,
    _action_law_witness,
    _combination,
    _first_matrix_witness,
    _integer_algebra_tables,
    _mult_lists,
    algebra_axiom_violations,
)
from .exactlin import (
    Matrix,
    Q,
    QONE,
    QZERO,
    inverse,
    kron,
    linear_combination,
    nonzeros,
    outer,
    rank,
    row_space,
    solve_affine,
    sylvester,
    unit_vec,
    vscale,
)


class ConstructionError(Exception):
    """A precondition of a builder failed; carries a witness when available."""


class CatalogNameError(ConstructionError):
    """A catalog, group or subgroup name that is unknown, does not parse or
    names an instance larger than MAX_NAMED_DIM."""


_COUNT = re.compile(r"[1-9][0-9]*")

# Largest dimension of an instance built from a name (catalog names and the
# groups of `construct adcross`); adcross:z8,z4 has dimension 32.
MAX_NAMED_DIM = 64


def _within_limit(dim, name):
    if dim > MAX_NAMED_DIM:
        raise CatalogNameError(
            "%r has dimension %d, above the limit of %d" % (name, dim, MAX_NAMED_DIM)
        )
    return dim


def _count(text, name):
    """The positive decimal integer text inside the name.

    Every count (a group or subgroup order, the n of bsz-dual:n) bounds the
    dimension of the named instance from below, so a count above the limit
    is refused; one with more digits than the limit, before conversion.
    """
    if _COUNT.fullmatch(text) is None:
        raise CatalogNameError("%r needs a positive integer, got %r" % (name, text))
    if len(text) > len(str(MAX_NAMED_DIM)):
        raise CatalogNameError(
            "%r exceeds the dimension limit of %d" % (name, MAX_NAMED_DIM)
        )
    return _within_limit(int(text), name)


# ----------------------------------------------------------------------
# plain associative algebras (inputs of the minimal builders)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Algebra:
    """Finite-dimensional associative unital algebra by structure constants."""

    dim: int
    mult: tuple  # mult[i][j] is the coefficient vector of e_i e_j
    unit: tuple
    labels: tuple

    @staticmethod
    def build(dim, mult, unit, labels=None):
        mult = tuple(
            tuple(tuple(Q(x) for x in mult[i][j]) for j in range(dim))
            for i in range(dim)
        )
        unit = tuple(Q(x) for x in unit)
        if labels is None:
            labels = tuple("a%d" % i for i in range(dim))
        alg = Algebra(dim, mult, unit, tuple(labels))
        alg.check()
        return alg

    _mult_nonzeros = cached_property(lambda self: _mult_lists(self.dim, self.mult))
    _mult_generators = WeakBialgebra._mult_generators
    _integer_tables = cached_property(_integer_algebra_tables)
    _table = WeakBialgebra._table
    _product_rows = WeakBialgebra._product_rows
    _product_sums = WeakBialgebra._product_sums
    mul = WeakBialgebra.mul
    products = WeakBialgebra.products
    reversed_products = WeakBialgebra.reversed_products
    pairing = WeakBialgebra.pairing

    def basis_vector(self, i):
        return unit_vec(self.dim, i)

    def check(self):
        bad = dict(algebra_axiom_violations(self))
        units = [bad[name][0] for name in ("unit-left", "unit-right") if name in bad]
        if units:
            raise ConstructionError("unit axiom fails at basis %d" % min(units))
        if "associativity" in bad:
            raise ConstructionError(
                "associativity fails at (%d,%d,%d)" % bad["associativity"]
            )

    @staticmethod
    def diagonal(n, labels=None):
        """K^n with pairwise orthogonal idempotents."""
        mult = [
            [[QONE if i == j == k else QZERO for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        unit = [QONE] * n
        if labels is None:
            labels = ["e%d" % (i + 1) for i in range(n)]
        return Algebra.build(n, mult, unit, labels)

    @staticmethod
    def upper_triangular_2():
        """Upper triangular 2x2 matrices with basis E11, E12, E22."""
        table = {
            (0, 0): (0, QONE),
            (0, 1): (1, QONE),
            (1, 2): (1, QONE),
            (2, 2): (2, QONE),
        }
        mult = [[[QZERO] * 3 for _ in range(3)] for _ in range(3)]
        for (i, j), (k, c) in table.items():
            mult[i][j][k] = c
        unit = [QONE, QZERO, QONE]
        return Algebra.build(3, mult, unit, ["b1", "b2", "b3"])


# ----------------------------------------------------------------------
# groups
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GroupPresentation:
    order: int
    table: tuple  # table[i][j] = index of g_i g_j
    labels: tuple
    identity: int

    @staticmethod
    def from_table(table, labels=None):
        n = len(table)
        table = tuple(tuple(int(x) for x in row) for row in table)
        ident = None
        for e in range(n):
            if all(table[e][j] == j and table[j][e] == j for j in range(n)):
                ident = e
                break
        if ident is None:
            raise ConstructionError("multiplication table has no identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise ConstructionError("multiplication table is not associative")
        for i in range(n):
            if ident not in table[i]:
                raise ConstructionError("element %d has no inverse" % i)
        if labels is None:
            labels = ["g%d" % i for i in range(n)]
        return GroupPresentation(n, table, tuple(labels), ident)

    def inv(self, i):
        return self.table[i].index(self.identity)

    def conjugate(self, g, h):
        """g h g^-1."""
        return self.table[self.table[g][h]][self.inv(g)]

    def is_subgroup(self, elems):
        s = set(elems)
        if self.identity not in s:
            return False
        return all(self.table[a][b] in s and self.inv(a) in s for a in s for b in s)

    def is_normal(self, elems):
        s = set(elems)
        return self.is_subgroup(elems) and all(
            self.conjugate(g, h) in s for g in range(self.order) for h in s
        )

    @staticmethod
    def cyclic(n):
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return GroupPresentation.from_table(table, ["g%d" % i for i in range(n)])

    @staticmethod
    def symmetric(n):
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
        ]
        labels = ["".join(str(x) for x in p) for p in perms]
        return GroupPresentation.from_table(table, labels)

def _perm_parity(p):
    p = list(p)
    parity = 0
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            clen += 1
        parity ^= (clen - 1) & 1
    return parity


def named_group(name) -> GroupPresentation:
    name = name.lower()
    if name.startswith("z"):
        return GroupPresentation.cyclic(_count(name[1:], name))
    if name == "s3":
        return GroupPresentation.symmetric(3)
    raise CatalogNameError("unknown group %r" % name)


def named_subgroup(group_name, sub_name):
    """Element list of a named subgroup inside a named group."""
    g = named_group(group_name)
    sub_name = sub_name.lower()
    if sub_name in ("e", "trivial", "1"):
        return g, [g.identity]
    if sub_name == group_name.lower() or sub_name == "full":
        return g, list(range(g.order))
    if group_name.lower() == "s3" and sub_name == "a3":
        perms = sorted(itertools.permutations(range(3)))
        return g, [i for i, p in enumerate(perms) if _perm_parity(p) == 0]
    if group_name.lower().startswith("z") and sub_name.startswith("z"):
        n = g.order
        m = _count(sub_name[1:], sub_name)
        if n % m != 0:
            raise ConstructionError("%s is not a subgroup of %s" % (sub_name, group_name))
        step = n // m
        return g, [(step * i) % n for i in range(m)]
    raise CatalogNameError("unknown subgroup %r of %r" % (sub_name, group_name))


def named_ad_crossed_product(group_name, sub_name):
    """ad_crossed_product of a named group by a named normal subgroup.

    The instance has dimension |G| |H|, which must be within MAX_NAMED_DIM;
    a larger one is refused before its tables are built.
    """
    gp, sub = named_subgroup(group_name, sub_name)
    _within_limit(gp.order * len(sub), "adcross:%s,%s" % (group_name, sub_name))
    return ad_crossed_product(gp, sub)


def group_algebra(gp: GroupPresentation) -> WeakBialgebra:
    """Group algebra with grouplike coproduct; an ordinary Hopf algebra."""
    n = gp.order
    # e_g e_h = e_gh and Delta(e_k) = e_k (x) e_k, one nonzero each
    mult = tuple(tuple(((gp.table[i][j], QONE),) for j in range(n)) for i in range(n))
    comult = tuple(
        Matrix._of_rows(((),) * k + (((k, QONE),),) + ((),) * (n - k - 1), n) for k in range(n)
    )
    unit = unit_vec(n, gp.identity)
    return WeakBialgebra._of_tables(n, mult, unit, comult, (QONE,) * n, gp.labels)


def group_antipode(gp: GroupPresentation) -> Matrix:
    n = gp.order
    return Matrix([[QONE if i == gp.inv(j) else QZERO for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class HopfAlgebra:
    """Weak bialgebra with grouplike unit coproduct, multiplicative counit
    and a two-sided convolution-inverse antipode."""

    algebra: WeakBialgebra
    antipode: Matrix

    @staticmethod
    def build(algebra: WeakBialgebra, antipode: Matrix) -> "HopfAlgebra":
        from .antipode import convolution_unit, convolve

        algebra.require_valid()
        n = algebra.dim
        if algebra.delta1 != outer(algebra.unit, algebra.unit):
            raise ConstructionError("coproduct does not preserve the unit")
        if algebra.gram != outer(algebra.counit, algebra.counit):
            raise ConstructionError("counit is not multiplicative")
        cu = convolution_unit(algebra)
        ident = Matrix.identity(n)
        if convolve(algebra, antipode, ident) != cu or convolve(algebra, ident, antipode) != cu:
            raise ConstructionError("antipode is not a convolution inverse of the identity")
        if rank(antipode) != n:
            raise ConstructionError("antipode is not bijective")
        return HopfAlgebra(algebra, antipode)

    @staticmethod
    def from_group(gp: GroupPresentation) -> "HopfAlgebra":
        return HopfAlgebra.build(group_algebra(gp), group_antipode(gp))

    @property
    def antipode_inverse(self) -> Matrix:
        return inverse(self.antipode)


# ----------------------------------------------------------------------
# ambient carrier of the minimal constructions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Amalgamation:
    """Shared central subalgebra data: paired embeddings of a common basis."""

    dim: int
    into_first: tuple  # dim vectors in the first factor
    into_second: tuple


class _Carrier:
    """Tensor carrier of two commuting factors, optionally amalgamated over a
    shared central subalgebra: the quotient by the amalgamation relations,
    with coordinates at the free columns of their RREF.  It is an algebra:
    the product of the classes of e_i (x) e_j and e_k (x) e_l is the class of
    (e_i e_k) (x) (e_j e_l), and the tensor-square product is borrowed."""

    def __init__(self, a1: Algebra, a2: Algebra, amalg=None):
        self.a1 = a1
        self.a2 = a2
        self.full_dim = a1.dim * a2.dim
        self.amalg = amalg
        pairs = []
        if amalg is not None:
            for z in range(amalg.dim):
                z1 = amalg.into_first[z]
                z2 = amalg.into_second[z]
                self._check_central(z1, z2)
                # the relations e_i z (x) e_j - e_i (x) z e_j
                right = a1.products(Matrix.identity(a1.dim), _row(z1))
                left = a2.products(_row(z2), Matrix.identity(a2.dim)).transpose()
                pairs.append((left, right))
        self.reducer = row_space(sylvester(pairs, a1.dim, a2.dim))
        self.free = self.reducer.free_columns
        self.dim = len(self.free)
        self.pairs = [divmod(pos, a2.dim) for pos in self.free]
        # row u is the class of the ambient basis vector u
        self.reduction = self.reducer.quotient_map
        self.unit = self.reduce(outer(a1.unit, a2.unit).flatten())
        # row (i * dim1 + k) * dim2^2 + j * dim2 + l is (e_i e_k) (x) (e_j e_l)
        ambient = kron(a1._table, a2._table)
        squares = a2.dim * a2.dim
        table = _picked(
            ambient,
            [
                (i * a1.dim + k) * squares + j * a2.dim + l
                for i, j in self.pairs
                for k, l in self.pairs
            ],
        ) * self.reduction
        rows = table.sparse_rows
        self._mult_nonzeros = tuple(rows[s * self.dim : (s + 1) * self.dim] for s in range(self.dim))

    _integer_tables = cached_property(_integer_algebra_tables)
    t2_mul = WeakBialgebra.t2_mul

    def _check_central(self, z1, z2):
        for factor, a, z in ((1, self.a1, _row(z1)), (2, self.a2, _row(z2))):
            one = Matrix.identity(a.dim)
            if a.products(z, one) != a.reversed_products(z, one):
                raise ConstructionError("amalgamated element not central in factor %d" % factor)

    def reduce(self, v):
        """Project an ambient tensor vector onto quotient coordinates."""
        return self.reducer.quotient_coordinates(v)

    def labels(self):
        return ["%s*%s" % (self.a1.labels[i], self.a2.labels[j]) for i, j in self.pairs]


def _picked(m: Matrix, rows) -> Matrix:
    """The matrix of the given rows of m, in the given order."""
    stored = m.sparse_rows
    return Matrix._of_rows(tuple(stored[r] for r in rows), m.cols)


def _row(v) -> Matrix:
    """The vector v as a one-row matrix."""
    return Matrix.from_rows([v])


# ----------------------------------------------------------------------
# quasi-basis data on plain algebras
# ----------------------------------------------------------------------


def algebra_quasi_basis(alg: Algebra, omega):
    """(gram inverse, index, modular automorphism) of a functional, or None."""
    g = alg.pairing(omega)
    ginv = inverse(g)
    if ginv is None:
        return None
    # sum ginv[j, k] e_j e_k over the rows j * dim + k of the table
    index = alg._table.transpose().apply(ginv.flatten())
    theta = ginv * g.transpose()
    return ginv, index, theta


# ----------------------------------------------------------------------
# minimal weak bialgebras from a nondegenerate idempotent
# ----------------------------------------------------------------------


def minimal_from_idempotent(a1: Algebra, a2: Algebra, p: Matrix, amalgamation=None):
    """Adapted minimal comonoidal weak bialgebra on the commuting product of
    two factors, with unit coproduct p and counit the form-inverse of p.

    p[j][k] is the coefficient of (second-factor basis j) (x) (first-factor
    basis k).  Raises with a witness when p is not idempotent, degenerate, or
    incompatible with the amalgamated subalgebra; a witness is the first in
    basis order.
    """
    if p.rows != a2.dim or p.cols != a1.dim:
        raise ConstructionError("idempotent tensor has wrong shape")
    if a1.dim != a2.dim:
        raise ConstructionError("form-inverse needs factors of equal dimension")
    q = inverse(p)
    if q is None:
        raise ConstructionError("tensor is degenerate as a pairing")
    return _minimal(_Carrier(a1, a2, amalgamation), p, q)


def _minimal(carrier: _Carrier, p: Matrix, q: Matrix) -> WeakBialgebra:
    """minimal_from_idempotent on its carrier, with q the inverse of p."""
    a1, a2 = carrier.a1, carrier.a2
    n2 = a2.dim
    reduction = carrier.reduction
    # rows k and j: the classes of e_k (x) 1 and of 1 (x) e_j
    firsts = kron(Matrix.identity(a1.dim), _row(a2.unit)) * reduction
    seconds = kron(_row(a1.unit), Matrix.identity(n2)) * reduction
    # p as an element of the carrier tensor square
    square = seconds.transpose() * p * firsts
    witness = _first_matrix_witness(carrier.t2_mul(square, square), square)
    if witness is not None:
        raise ConstructionError("tensor is not idempotent at %s" % (witness,))
    amalgamation = carrier.amalg
    if amalgamation is not None:
        for z in range(amalgamation.dim):
            z1 = _row(amalgamation.into_first[z])
            z2 = _row(amalgamation.into_second[z])
            # (z (x) 1) p = (1 (x) z) p inside the second-first tensor order
            witness = _first_matrix_witness(
                a2.products(z2, p.transpose()).transpose(), a1.products(z1, p)
            )
            if witness is not None:
                raise ConstructionError("amalgamation compatibility fails at %s" % (witness,))
    dim = carrier.dim
    classes = reduction.sparse_rows
    # Delta(e_i (x) e_j) is the sum of p[j', k'] (e_i (x) e_j') (x) (e_k' (x) e_j)
    comult = tuple(
        Matrix._of_rows(classes[i * n2 : (i + 1) * n2], dim).transpose()
        * p
        * Matrix._of_rows(classes[j::n2], dim)
        for i, j in carrier.pairs
    )
    counit = tuple(q[i, j] for i, j in carrier.pairs)
    result = WeakBialgebra._of_tables(
        dim, carrier._mult_nonzeros, carrier.unit, comult, counit, carrier.labels()
    )
    if result.violations:
        raise ConstructionError(
            "constructed data violates %s" % (result.violations[0][0],)
        )
    return result


def minimal_weak_hopf(a1: Algebra, a2: Algebra, omega, s_r: Matrix, amalgamation=None):
    """Minimal weak Hopf algebra from a nondegenerate index-one functional on
    the first factor and an anti-isomorphism of the second factor onto it.

    Returns the weak bialgebra together with its antipode matrix.
    """
    omega = tuple(Q(x) for x in omega)
    if s_r.rows != a1.dim or s_r.cols != a2.dim:
        raise ConstructionError("wedge flip has wrong shape")
    s_r_inv = inverse(s_r) if s_r.is_square() else None
    if s_r_inv is None:
        raise ConstructionError("wedge flip is not bijective")
    # row i is the image of e_i; row i * dim + j of each side is the image
    # of e_i e_j and the product of the images of e_j and e_i
    flip = s_r.transpose()
    witness = _first_matrix_witness(a2._table * flip, a1.reversed_products(flip, flip))
    if witness is not None:
        raise ConstructionError(
            "wedge flip is not anti-multiplicative at (%d,%d)" % divmod(witness[0], a2.dim)
        )
    if s_r.apply(a2.unit) != a1.unit:
        raise ConstructionError("wedge flip does not preserve the unit")
    qb = algebra_quasi_basis(a1, omega)
    if qb is None:
        raise ConstructionError("functional is degenerate on the first factor")
    ginv, index, theta = qb
    if index != a1.unit:
        raise ConstructionError("functional does not have index one")
    if amalgamation is not None:
        for z in range(amalgamation.dim):
            z2 = amalgamation.into_second[z]
            if s_r.apply(z2) != amalgamation.into_first[z]:
                raise ConstructionError(
                    "wedge flip does not restrict to the identity on the shared subalgebra"
                )
    p = s_r_inv * ginv
    carrier = _Carrier(a1, a2, amalgamation)
    algebra = _minimal(carrier, p, inverse(p))
    s_l = s_r_inv * theta
    # S(e_i (x) e_j) is the class of s_r(e_j) (x) s_l(e_i), row j * dim + i
    images = kron(flip, s_l.transpose())
    antipode = _picked(images, [j * a1.dim + i for i, j in carrier.pairs]) * carrier.reduction
    return algebra, antipode.transpose()


# ----------------------------------------------------------------------
# two-sided crossed product with a Hopf algebra
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleAlgebraAction:
    """Left Hopf-module action of a Hopf algebra on an algebra, as matrices."""

    hopf: HopfAlgebra
    target: Algebra
    matrices: tuple  # one target-endomorphism matrix per Hopf basis vector

    def operator(self, g) -> Matrix:
        """The matrix A_g of the action of the Hopf element g."""
        return _combination(g, tuple(map(nonzeros, self.matrices)), self.target.dim)

    def check(self):
        """The action laws compared as operators, each failure with its first
        witness in basis order: A_{e_i e_j} = A_i A_j, A_i 1 = eps(e_i) 1 and
        the module-algebra law on the rows of the target's table."""
        h = self.hopf.algebra
        t = self.target
        n = t.dim
        # row a of moves[i] is A_i e_a
        moves = [m.transpose() for m in self.matrices]
        witness = _action_law_witness(h, moves, n)
        if witness is not None:
            i, j = divmod(witness[0], h.dim)
            raise ConstructionError(
                "action is not multiplicative at (%d,%d,%d)" % (i, j, witness[1] // n)
            )
        for i in range(h.dim):
            if self.matrices[i].apply(t.unit) != vscale(h.counit[i], t.unit):
                raise ConstructionError("action does not normalize the unit at %d" % i)
            # row a * n + b: A_i(e_a e_b), against the sum of the
            # (A_u e_a)(A_v e_b) over the legs (u, v) of Delta(e_i)
            legs = (
                (c, nonzeros(t.products(moves[u], moves[v])))
                for u, v, c in h._comult_triples[i]
            )
            witness = _first_matrix_witness(
                t._table * moves[i], linear_combination(legs, n * n, n)
            )
            if witness is not None:
                raise ConstructionError(
                    "action is not a module-algebra action at (%d,%d,%d)"
                    % ((i,) + divmod(witness[0], n))
                )
        if self.operator(h.unit).apply(t.basis_vector(0)) != t.basis_vector(0):
            raise ConstructionError("action does not fix the unit of the Hopf algebra")


def two_sided_crossed_product(
    a_l: Algebra,
    hopf: HopfAlgebra,
    action: ModuleAlgebraAction,
    omega,
    a_r: Algebra,
    s_r: Matrix,
):
    """Weak Hopf algebra on (left factor) x (Hopf algebra) x (right factor).

    The right action of the Hopf algebra on the right factor is derived from
    the wedge flip; the functional must be invariant under the left action.
    Returns the weak bialgebra together with its antipode matrix.
    """
    omega = tuple(Q(x) for x in omega)
    action.check()
    h = hopf.algebra
    if action.target is not a_l:
        raise ConstructionError("action target must be the left factor")
    qb = algebra_quasi_basis(a_l, omega)
    if qb is None:
        raise ConstructionError("functional is degenerate")
    ginv, index, theta = qb
    dl, dg, dr = a_l.dim, h.dim, a_r.dim
    # row a of moves[g] is e_g . e_a
    moves = [m.transpose() for m in action.matrices]
    # entry (g, a): omega(e_g . e_a), against eps(e_g) omega(e_a)
    witness = _first_matrix_witness(
        Matrix.from_rows([m.apply(omega) for m in moves], dl), outer(h.counit, omega)
    )
    if witness is not None:
        raise ConstructionError(
            "functional is not invariant under the action at (%d,%d)" % witness
        )
    if index != a_l.unit:
        raise ConstructionError("functional does not have index one")
    if s_r.rows != a_l.dim or s_r.cols != a_r.dim:
        raise ConstructionError("wedge flip has wrong shape")
    s_r_inv = inverse(s_r) if s_r.is_square() else None
    if s_r_inv is None:
        raise ConstructionError("wedge flip is not bijective")
    s = hopf.antipode
    s_inv = hopf.antipode_inverse
    # the derived right action of e_g on the right factor, s_r^-1 A_{S e_g} s_r
    rights = [s_r_inv * action.operator(s.col(g)) * s_r for g in range(dg)]

    # compatibility of the unit coproduct with the two actions
    p = s_r_inv * ginv  # second (x) first coefficients of the unit coproduct
    for g in range(dg):
        if p * moves[g] != rights[g] * p:
            raise ConstructionError(
                "unit coproduct is not compatible with the actions at g=%d" % g
            )
    dim = dl * dg * dr
    # row (i * dg + u) * dl + k: e_i (e_u . e_k)
    lefts = a_l.products(
        Matrix.identity(dl), Matrix._of_rows(tuple(r for m in moves for r in m.sparse_rows), dl)
    )
    # row (v * dr + j) * dr + l: (e_j . e_v) e_l
    acted = Matrix._of_rows(tuple(r for b in rights for r in b.transpose().sparse_rows), dr)
    ends = a_r.products(acted, Matrix.identity(dr))
    legs = h._comult_triples

    def mul_basis(t1, t2):
        # the sum of e_i1 (u1 . e_i2) (x) v1 u2 (x) (e_j1 . v2) e_j2 over
        # the legs (u1, v1) of Delta(e_k1) and (u2, v2) of Delta(e_k2)
        i1, k1, j1 = _unidx(t1, dg, dr)
        i2, k2, j2 = _unidx(t2, dg, dr)
        terms = (
            (
                c1 * c2,
                nonzeros(
                    kron(
                        kron(
                            _picked(lefts, [(i1 * dg + u1) * dl + i2]),
                            _picked(h._table, [v1 * dg + u2]),
                        ),
                        _picked(ends, [(v2 * dr + j1) * dr + j2]),
                    )
                ),
            )
            for u1, v1, c1 in legs[k1]
            for u2, v2, c2 in legs[k2]
        )
        return linear_combination(terms, 1, dim).sparse_rows[0]

    mult = tuple(tuple(mul_basis(t1, t2) for t2 in range(dim)) for t1 in range(dim))
    unit = kron(kron(_row(a_l.unit), _row(h.unit)), _row(a_r.unit)).row(0)
    comult = []
    for t in range(dim):
        i, k, j = _unidx(t, dg, dr)
        # Delta(e_i (x) e_k (x) e_j) is the sum of
        # (e_i (x) k_1 (x) e_j') (x) (k_2 . e_k' (x) k_3 (x) e_j)
        # over p[j', k'] and the legs of Delta^2(e_k): rows j' and k' of
        # the two Kronecker products
        terms = []
        for (k1, k2, k3), ck in h.iterated_delta(h.basis_vector(k), 2).items():
            firsts = kron(kron(_row(unit_vec(dl, i)), _row(unit_vec(dg, k1))), Matrix.identity(dr))
            seconds = kron(kron(moves[k2], _row(unit_vec(dg, k3))), _row(unit_vec(dr, j)))
            terms.append((ck, nonzeros(firsts.transpose() * p * seconds)))
        comult.append(linear_combination(terms, dim, dim))
    # row (i * dg + k) * dr + j: omega(S^-1(e_k) . e_i s_r(e_j))
    backs = [action.operator(s_inv.col(k)).transpose().sparse_rows for k in range(dg)]
    moved = Matrix._of_rows(tuple(backs[k][i] for i in range(dl) for k in range(dg)), dl)
    counit = a_l.products(moved, s_r.transpose()).apply(omega)
    labels = [
        "%s*%s*%s" % (a_l.labels[i], h.labels[k], a_r.labels[j])
        for t in range(dim)
        for (i, k, j) in [_unidx(t, dg, dr)]
    ]
    algebra = WeakBialgebra._of_tables(dim, mult, unit, tuple(comult), counit, labels)
    if algebra.violations:
        raise ConstructionError(
            "crossed product violates %s" % (algebra.violations[0][0],)
        )
    # S(e_i (x) e_k (x) e_j) = s_r(e_j) (x) S(e_k) (x) s_r^-1 theta(e_i),
    # row (j * dg + k) * dl + i
    images = kron(kron(s_r.transpose(), s.transpose()), (s_r_inv * theta).transpose())
    antipode = _picked(
        images, [(j * dg + k) * dl + i for t in range(dim) for i, k, j in [_unidx(t, dg, dr)]]
    )
    return algebra, antipode.transpose()


def _unidx(t, dg, dr):
    t, j = divmod(t, dr)
    i, k = divmod(t, dg)
    return i, k, j


# ----------------------------------------------------------------------
# adjoint crossed product of a group by a normal subgroup
# ----------------------------------------------------------------------


def ad_crossed_product(gp: GroupPresentation, subgroup):
    """Weak Hopf algebra on (subgroup algebra) x (group algebra) where the
    group acts by conjugation and the coproduct smears over the normalized
    subgroup integral.  Returns the weak bialgebra and its antipode matrix.
    """
    subgroup = list(subgroup)
    if not gp.is_normal(subgroup):
        raise ConstructionError("subgroup is not normal")
    nh = len(subgroup)
    ng = gp.order
    hindex = {h: t for t, h in enumerate(subgroup)}
    dim = nh * ng

    def idx(hi, gi):
        return hi * ng + gi

    inv_h = QONE / Q(nh)
    # the dual integral: solve the smearing equation on the subgroup algebra
    lam_matrix = Matrix(
        [
            [inv_h if subgroup[a] == subgroup[t] else QZERO for t in range(nh)]
            for a in range(nh)
        ]
    )
    rhs = unit_vec(nh, hindex[gp.identity])
    sol = solve_affine(lam_matrix, rhs)
    if sol is None or sol[1].dim != 0:
        raise ConstructionError("dual integral is not uniquely solvable")
    lam = sol[0]

    # (h, g)(h', g') = (h g h' g^-1, g g'): one basis vector per product
    mult = tuple(
        tuple(
            ((idx(hindex[gp.table[h][gp.conjugate(gi, hj)]], gp.table[gi][gj]), QONE),)
            for hj in subgroup
            for gj in range(ng)
        )
        for h in subgroup
        for gi in range(ng)
    )
    unit = unit_vec(dim, idx(hindex[gp.identity], gp.identity))
    def coproduct(h, g):
        # the mean of (h k^-1, k g) (x) (k, g) over k in the subgroup
        legs = [
            (idx(hindex[gp.table[h][gp.inv(k)]], gp.table[k][g]), idx(hindex[k], g), QONE)
            for k in subgroup
        ]
        return linear_combination([(inv_h, legs)], dim, dim)

    comult = tuple(coproduct(h, g) for h in subgroup for g in range(ng))
    counit = tuple(lam[hi] for hi in range(nh) for gi in range(ng))
    labels = [
        "%s|%s" % (gp.labels[subgroup[hi]], gp.labels[gi])
        for hi in range(nh)
        for gi in range(ng)
    ]
    algebra = WeakBialgebra._of_tables(dim, mult, unit, comult, counit, labels)
    if algebra.violations:
        raise ConstructionError(
            "adjoint crossed product violates %s" % (algebra.violations[0][0],)
        )
    cols = []
    for hi in range(nh):
        for gi in range(ng):
            # with grouplike legs: h conjugated back by g, times inverse of h g
            h = subgroup[hi]
            hg = gp.table[h][gi]
            conj = gp.conjugate(gp.inv(gi), h)
            target = idx(hindex[conj], gp.inv(hg))
            cols.append(unit_vec(dim, target))
    antipode = Matrix.from_columns(cols, dim)
    return algebra, antipode


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------


@dataclass
class CatalogEntry:
    name: str
    algebra: WeakBialgebra
    antipode: Matrix | None = None
    rigidity: object | None = None


def example1_factors():
    a1 = Algebra.diagonal(3)
    a2 = Algebra.upper_triangular_2()
    p = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    return a1, a2, p


def build_example1() -> WeakBialgebra:
    a1, a2, p = example1_factors()
    return minimal_from_idempotent(a1, a2, p)


def example2_cross_map() -> Matrix:
    """The wedge flip used for the rigidity structure on the dual instance."""
    return Matrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]])


def catalog_names():
    return [
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
        "adcross:s3,a3",
        "example2-rigidity",
    ]


def catalog(name: str) -> CatalogEntry:
    """Pre-validated instances by name; unknown names raise.

    bsz-dual:n is Hayashi's face algebra of the pair groupoid on n objects:
    commutative, with a basis of n^2 orthogonal idempotents.  Its dual is
    the pair-groupoid algebra, with a grouplike basis of the n^2 arrows and
    one nonzero product per composable pair, n^3 in all.
    """
    if name == "trivial":
        alg = WeakBialgebra(1, [[[1]]], [1], [Matrix([[1]])], [1], labels=["1"])
        return CatalogEntry(name, alg, antipode=Matrix.identity(1))
    if name.startswith("group:"):
        gp = named_group(name.split(":", 1)[1])
        return CatalogEntry(name, group_algebra(gp), antipode=group_antipode(gp))
    if name.startswith("dualgroup:"):
        gp = named_group(name.split(":", 1)[1])
        alg = group_algebra(gp).dual
        return CatalogEntry(name, alg, antipode=group_antipode(gp).transpose())
    if name == "example1":
        return CatalogEntry(name, build_example1())
    if name.startswith("bsz-dual:"):
        n = _count(name.split(":", 1)[1], name)
        _within_limit(n * n, name)
        a1 = Algebra.diagonal(n)
        a2 = Algebra.diagonal(n, labels=["f%d" % (i + 1) for i in range(n)])
        algebra, antipode = minimal_weak_hopf(
            a1, a2, [QONE] * n, Matrix.identity(n)
        )
        return CatalogEntry(name, algebra, antipode=antipode)
    if name.startswith("adcross:"):
        names = name.split(":", 1)[1].split(",")
        if len(names) != 2:
            raise CatalogNameError("%r needs a group and a subgroup name" % name)
        algebra, antipode = named_ad_crossed_product(*names)
        return CatalogEntry(name, algebra, antipode=antipode)
    if name == "example2-rigidity":
        from .rigidity import dual_rigidity_structure

        base = build_example1()
        structure = dual_rigidity_structure(base, example2_cross_map())
        return CatalogEntry(name, base.dual, rigidity=structure)
    raise CatalogNameError("unknown catalog name %r" % name)
