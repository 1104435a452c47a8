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

from .core import WeakBialgebra, algebra_axiom_violations
from .exactlin import (
    Matrix,
    Q,
    QONE,
    QZERO,
    Subspace,
    inverse,
    linear_combination,
    nonzeros,
    outer,
    outer_nonzeros,
    rank,
    solve_affine,
    unit_vec,
    vdot,
    vector_combination,
    vscale,
)


class ConstructionError(Exception):
    """A precondition of a builder failed; carries a witness when available."""


class CatalogNameError(ConstructionError):
    """A catalog, group or subgroup name that is unknown or does not parse."""


_COUNT = re.compile(r"[1-9][0-9]*")


def _count(text, name):
    """The positive decimal integer text inside the name."""
    if _COUNT.fullmatch(text) is None:
        raise CatalogNameError("%r needs a positive integer, got %r" % (name, text))
    return int(text)


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

    _mult_nonzeros = WeakBialgebra._mult_nonzeros
    mul = WeakBialgebra.mul

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


def group_algebra(gp: GroupPresentation) -> WeakBialgebra:
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
    shared central subalgebra; quotient coordinates come from RREF pivots."""

    def __init__(self, a1: Algebra, a2: Algebra, amalg=None):
        self.a1 = a1
        self.a2 = a2
        self.full_dim = a1.dim * a2.dim
        self.amalg = amalg
        if amalg is None:
            self.dim = self.full_dim
            self.free = list(range(self.full_dim))
            self.reducer = None
        else:
            rel = []
            for z in range(amalg.dim):
                z1 = amalg.into_first[z]
                z2 = amalg.into_second[z]
                self._check_central(z1, z2)
                for i in range(a1.dim):
                    az = a1.mul(a1.basis_vector(i), z1)
                    for j in range(a2.dim):
                        zb = a2.mul(z2, a2.basis_vector(j))
                        v = [QZERO] * self.full_dim
                        for u, x in enumerate(az):
                            if x:
                                v[u * a2.dim + j] += x
                        for w, y in enumerate(zb):
                            if y:
                                v[i * a2.dim + w] -= y
                        if any(v):
                            rel.append(tuple(v))
            sub = Subspace.from_spanning(rel, self.full_dim)
            pivots = set()
            for row in sub.basis.data:
                pivots.add(next(c for c, x in enumerate(row) if x))
            self.reducer = sub
            self.free = [c for c in range(self.full_dim) if c not in pivots]
            self.dim = len(self.free)

    def _check_central(self, z1, z2):
        for i in range(self.a1.dim):
            b = self.a1.basis_vector(i)
            if self.a1.mul(z1, b) != self.a1.mul(b, z1):
                raise ConstructionError("amalgamated element not central in factor 1")
        for j in range(self.a2.dim):
            b = self.a2.basis_vector(j)
            if self.a2.mul(z2, b) != self.a2.mul(b, z2):
                raise ConstructionError("amalgamated element not central in factor 2")

    def reduce(self, v):
        """Project an ambient tensor vector onto quotient coordinates."""
        v = list(v)
        if self.reducer is not None:
            for row in self.reducer.basis.data:
                pc = next(c for c, x in enumerate(row) if x)
                f = v[pc]
                if f:
                    v = [a - f * b for a, b in zip(v, row)]
        return tuple(v[c] for c in self.free)

    def embed_pair(self, x, y):
        """Class of x (x) y for x in the first factor, y in the second."""
        return self.reduce(outer(x, y).flatten())

    def lift(self, q):
        """Canonical ambient representative of a quotient vector."""
        v = [QZERO] * self.full_dim
        for pos, c in zip(self.free, q):
            v[pos] = c
        return tuple(v)

    def mul(self, qx, qy):
        x = self.lift(qx)
        y = self.lift(qy)
        acc = [QZERO] * self.full_dim
        d2 = self.a2.dim
        for u, a in enumerate(x):
            if not a:
                continue
            i1, j1 = divmod(u, d2)
            for w, b in enumerate(y):
                if not b:
                    continue
                i2, j2 = divmod(w, d2)
                left = self.a1.mul(self.a1.basis_vector(i1), self.a1.basis_vector(i2))
                right = self.a2.mul(self.a2.basis_vector(j1), self.a2.basis_vector(j2))
                ab = a * b
                for p, xp in enumerate(left):
                    if xp:
                        f = ab * xp
                        for q, yq in enumerate(right):
                            if yq:
                                acc[p * d2 + q] += f * yq
        return self.reduce(acc)

    def labels(self):
        out = []
        for pos in self.free:
            i, j = divmod(pos, self.a2.dim)
            out.append("%s*%s" % (self.a1.labels[i], self.a2.labels[j]))
        return out


# ----------------------------------------------------------------------
# quasi-basis data on plain algebras
# ----------------------------------------------------------------------


def algebra_gram(alg: Algebra, omega):
    n = alg.dim
    return Matrix(
        [
            [vdot(omega, alg.mul(alg.basis_vector(i), alg.basis_vector(j))) for j in range(n)]
            for i in range(n)
        ]
    )


def algebra_quasi_basis(alg: Algebra, omega):
    """(gram inverse, index, modular automorphism) of a functional, or None."""
    g = algebra_gram(alg, omega)
    ginv = inverse(g)
    if ginv is None:
        return None
    index = vector_combination(
        ((c, alg.mul(alg.basis_vector(j), alg.basis_vector(k))) for j, k, c in nonzeros(ginv)),
        alg.dim,
    )
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
    incompatible with the amalgamated subalgebra.
    """
    if p.rows != a2.dim or p.cols != a1.dim:
        raise ConstructionError("idempotent tensor has wrong shape")
    if a1.dim != a2.dim:
        raise ConstructionError("form-inverse needs factors of equal dimension")
    q = inverse(p)
    if q is None:
        raise ConstructionError("tensor is degenerate as a pairing")
    carrier = _Carrier(a1, a2, amalgamation)
    # p as an element of the carrier tensor square
    terms = [
        (j, k, p[j, k]) for j in range(a2.dim) for k in range(a1.dim) if p[j, k]
    ]

    def embed2(j):
        return carrier.embed_pair(a1.unit, a2.basis_vector(j))

    def embed1(k):
        return carrier.embed_pair(a1.basis_vector(k), a2.unit)

    p_sq = {}
    for j, k, c in terms:
        for jp, kp, cp in terms:
            u = carrier.mul(embed2(j), embed2(jp))
            v = carrier.mul(embed1(k), embed1(kp))
            cc = c * cp
            for a, xa in enumerate(u):
                if xa:
                    for b, yb in enumerate(v):
                        if yb:
                            key = (a, b)
                            p_sq[key] = p_sq.get(key, QZERO) + cc * xa * yb
    p_elem = {}
    for j, k, c in terms:
        u = embed2(j)
        v = embed1(k)
        for a, xa in enumerate(u):
            if xa:
                for b, yb in enumerate(v):
                    if yb:
                        key = (a, b)
                        p_elem[key] = p_elem.get(key, QZERO) + c * xa * yb
    for key in set(p_sq) | set(p_elem):
        if p_sq.get(key, QZERO) != p_elem.get(key, QZERO):
            raise ConstructionError("tensor is not idempotent at %s" % (key,))
    if amalgamation is not None:
        for z in range(amalgamation.dim):
            z1 = amalgamation.into_first[z]
            z2 = amalgamation.into_second[z]
            # (z (x) 1) p = (1 (x) z) p inside the second-first tensor order
            lhs = {}
            rhs = {}
            for j, k, c in terms:
                zj = a2.mul(z2, a2.basis_vector(j))
                for jj, x in enumerate(zj):
                    if x:
                        lhs[(jj, k)] = lhs.get((jj, k), QZERO) + c * x
                zk = a1.mul(z1, a1.basis_vector(k))
                for kk, x in enumerate(zk):
                    if x:
                        rhs[(j, kk)] = rhs.get((j, kk), QZERO) + c * x
            for key in set(lhs) | set(rhs):
                if lhs.get(key, QZERO) != rhs.get(key, QZERO):
                    raise ConstructionError(
                        "amalgamation compatibility fails at %s" % (key,)
                    )
    dim = carrier.dim
    basis_pairs = [divmod(pos, a2.dim) for pos in carrier.free]
    mult = [
        [
            list(carrier.mul(unit_vec(dim, s), unit_vec(dim, t)))
            for t in range(dim)
        ]
        for s in range(dim)
    ]
    unit = carrier.embed_pair(a1.unit, a2.unit)
    comult = [
        linear_combination(
            (
                (
                    c,
                    outer_nonzeros(
                        carrier.embed_pair(a1.basis_vector(i), a2.basis_vector(jp)),
                        carrier.embed_pair(a1.basis_vector(kp), a2.basis_vector(j)),
                    ),
                )
                for jp, kp, c in terms
            ),
            dim,
            dim,
        )
        for (i, j) in basis_pairs
    ]
    counit = [q[i, j] for (i, j) in basis_pairs]
    result = WeakBialgebra(dim, mult, unit, comult, counit, labels=carrier.labels())
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
    s_r_inv = inverse(s_r)
    if s_r_inv is None:
        raise ConstructionError("wedge flip is not bijective")
    for i in range(a2.dim):
        for j in range(a2.dim):
            lhs = s_r.apply(a2.mul(a2.basis_vector(i), a2.basis_vector(j)))
            rhs = a1.mul(s_r.apply(a2.basis_vector(j)), s_r.apply(a2.basis_vector(i)))
            if lhs != rhs:
                raise ConstructionError(
                    "wedge flip is not anti-multiplicative at (%d,%d)" % (i, j)
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
    algebra = minimal_from_idempotent(a1, a2, p, amalgamation)
    s_l = s_r_inv * theta
    carrier = _Carrier(a1, a2, amalgamation)
    cols = []
    for pos in carrier.free:
        i, j = divmod(pos, a2.dim)
        left = s_r.apply(a2.basis_vector(j))
        right = s_l.apply(a1.basis_vector(i))
        cols.append(carrier.embed_pair(left, right))
    antipode = Matrix.from_columns(cols, algebra.dim)
    return algebra, antipode


# ----------------------------------------------------------------------
# two-sided crossed product with a Hopf algebra
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleAlgebraAction:
    """Left Hopf-module action of a Hopf algebra on an algebra, as matrices."""

    hopf: HopfAlgebra
    target: Algebra
    matrices: tuple  # one target-endomorphism matrix per Hopf basis vector

    def act(self, g, a):
        return vector_combination(
            ((c, m.apply(a)) for c, m in zip(g, self.matrices) if c), self.target.dim
        )

    def check(self):
        h = self.hopf.algebra
        t = self.target
        for i in range(h.dim):
            for j in range(h.dim):
                prod = h.mul(h.basis_vector(i), h.basis_vector(j))
                for a in range(t.dim):
                    av = t.basis_vector(a)
                    got = self.act(prod, av)
                    step = self.act(h.basis_vector(i), self.act(h.basis_vector(j), av))
                    if got != step:
                        raise ConstructionError(
                            "action is not multiplicative at (%d,%d,%d)" % (i, j, a)
                        )
        for i in range(h.dim):
            gi = h.basis_vector(i)
            if self.act(gi, t.unit) != vscale(h.eps(gi), t.unit):
                raise ConstructionError("action does not normalize the unit at %d" % i)
            for a in range(t.dim):
                for b in range(t.dim):
                    ab = t.mul(t.basis_vector(a), t.basis_vector(b))
                    lhs = self.act(gi, ab)
                    rhs = vector_combination(
                        (
                            (
                                c,
                                t.mul(
                                    self.act(h.basis_vector(u), t.basis_vector(a)),
                                    self.act(h.basis_vector(v), t.basis_vector(b)),
                                ),
                            )
                            for u, v, c in h._comult_nonzeros[i]
                        ),
                        t.dim,
                    )
                    if lhs != rhs:
                        raise ConstructionError(
                            "action is not a module-algebra action at (%d,%d,%d)"
                            % (i, a, b)
                        )
        if self.act(h.unit, t.basis_vector(0)) != t.basis_vector(0):
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
    for gi in range(h.dim):
        g = h.basis_vector(gi)
        for ai in range(a_l.dim):
            lhs = vdot(omega, action.act(g, a_l.basis_vector(ai)))
            if lhs != h.eps(g) * vdot(omega, a_l.basis_vector(ai)):
                raise ConstructionError(
                    "functional is not invariant under the action at (%d,%d)"
                    % (gi, ai)
                )
    if index != a_l.unit:
        raise ConstructionError("functional does not have index one")
    s_r_inv = inverse(s_r)
    if s_r_inv is None:
        raise ConstructionError("wedge flip is not bijective")
    s_inv = hopf.antipode_inverse

    def act_right(a, g):
        """Derived right action on the right factor."""
        return s_r_inv.apply(action.act(hopf.antipode.apply(g), s_r.apply(a)))

    # compatibility of the unit coproduct with the two actions
    p = s_r_inv * ginv  # second (x) first coefficients of the unit coproduct
    for gi in range(h.dim):
        g = h.basis_vector(gi)
        lhs = {}
        rhs = {}
        for j in range(a_r.dim):
            for k in range(a_l.dim):
                c = p[j, k]
                if not c:
                    continue
                gk = action.act(g, a_l.basis_vector(k))
                for kk, x in enumerate(gk):
                    if x:
                        lhs[(j, kk)] = lhs.get((j, kk), QZERO) + c * x
                jg = act_right(a_r.basis_vector(j), g)
                for jj, x in enumerate(jg):
                    if x:
                        rhs[(jj, k)] = rhs.get((jj, k), QZERO) + c * x
        for key in set(lhs) | set(rhs):
            if lhs.get(key, QZERO) != rhs.get(key, QZERO):
                raise ConstructionError(
                    "unit coproduct is not compatible with the actions at g=%d" % gi
                )
    dl, dg, dr = a_l.dim, h.dim, a_r.dim
    dim = dl * dg * dr

    def idx(i, k, j):
        return (i * dg + k) * dr + j

    def mul_basis(t1, t2):
        i1, k1, j1 = _unidx(t1, dg, dr)
        i2, k2, j2 = _unidx(t2, dg, dr)
        acc = [QZERO] * dim
        dk1 = h.comult[k1]
        dk2 = h.comult[k2]
        for u1, row1 in enumerate(dk1.data):
            for v1, c1 in enumerate(row1):
                if not c1:
                    continue
                left = a_l.mul(
                    a_l.basis_vector(i1),
                    action.act(h.basis_vector(u1), a_l.basis_vector(i2)),
                )
                for u2, row2 in enumerate(dk2.data):
                    for v2, c2 in enumerate(row2):
                        if not c2:
                            continue
                        midg = h.mul(h.basis_vector(v1), h.basis_vector(u2))
                        rightv = a_r.mul(
                            act_right(a_r.basis_vector(j1), h.basis_vector(v2)),
                            a_r.basis_vector(j2),
                        )
                        cc = c1 * c2
                        for lpos, lx in enumerate(left):
                            if not lx:
                                continue
                            for gpos, gx in enumerate(midg):
                                if not gx:
                                    continue
                                w = cc * lx * gx
                                for rpos, rx in enumerate(rightv):
                                    if rx:
                                        acc[idx(lpos, gpos, rpos)] += w * rx
        return tuple(acc)

    mult = [[None] * dim for _ in range(dim)]
    for t1 in range(dim):
        for t2 in range(dim):
            mult[t1][t2] = list(mul_basis(t1, t2))
    unit = [QZERO] * dim
    for i, x in enumerate(a_l.unit):
        if x:
            for k, y in enumerate(h.unit):
                if y:
                    for j, z in enumerate(a_r.unit):
                        if z:
                            unit[idx(i, k, j)] += x * y * z
    comult = []
    for t in range(dim):
        i, k, j = _unidx(t, dg, dr)
        acc = [[QZERO] * dim for _ in range(dim)]
        for (k1, k2, k3), ck in h.iterated_delta(h.basis_vector(k), 2).items():
            for jp in range(dr):
                for kp in range(dl):
                    c = p[jp, kp]
                    if not c:
                        continue
                    second_l = action.act(h.basis_vector(k2), a_l.basis_vector(kp))
                    cc = ck * c
                    for lx, xv in enumerate(second_l):
                        if xv:
                            acc[idx(i, k1, jp)][idx(lx, k3, j)] += cc * xv
        comult.append(Matrix(acc))
    counit = []
    for t in range(dim):
        i, k, j = _unidx(t, dg, dr)
        moved = action.act(s_inv.apply(h.basis_vector(k)), a_l.basis_vector(i))
        counit.append(vdot(omega, a_l.mul(moved, s_r.apply(a_r.basis_vector(j)))))
    labels = [
        "%s*%s*%s" % (a_l.labels[i], h.labels[k], a_r.labels[j])
        for t in range(dim)
        for (i, k, j) in [_unidx(t, dg, dr)]
    ]
    algebra = WeakBialgebra(dim, mult, unit, comult, counit, labels=labels)
    if algebra.violations:
        raise ConstructionError(
            "crossed product violates %s" % (algebra.violations[0][0],)
        )
    theta_map = s_r_inv * theta
    cols = []
    for t in range(dim):
        i, k, j = _unidx(t, dg, dr)
        left = s_r.apply(a_r.basis_vector(j))
        mid = hopf.antipode.apply(h.basis_vector(k))
        right = theta_map.apply(a_l.basis_vector(i))
        acc = [QZERO] * dim
        for lp, lx in enumerate(left):
            if lx:
                for gp, gx in enumerate(mid):
                    if gx:
                        w = lx * gx
                        for rp, rx in enumerate(right):
                            if rx:
                                acc[idx(lp, gp, rp)] += w * rx
        cols.append(acc)
    antipode = Matrix.from_columns(cols, dim)
    return algebra, antipode


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

    mult = [[[QZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for hi in range(nh):
        for gi in range(ng):
            for hj in range(nh):
                for gj in range(ng):
                    conj = gp.conjugate(gi, subgroup[hj])
                    hout = gp.table[subgroup[hi]][conj]
                    gout = gp.table[gi][gj]
                    mult[idx(hi, gi)][idx(hj, gj)][idx(hindex[hout], gout)] += QONE
    unit = unit_vec(dim, idx(hindex[gp.identity], gp.identity))
    comult = []
    for hi in range(nh):
        for gi in range(ng):
            acc = [[QZERO] * dim for _ in range(dim)]
            for k in subgroup:
                left_h = gp.table[subgroup[hi]][gp.inv(k)]
                left_g = gp.table[k][gi]
                acc[idx(hindex[left_h], left_g)][idx(hindex[k], gi)] += inv_h
            comult.append(Matrix(acc))
    counit = [lam[hi] for hi in range(nh) for gi in range(ng)]
    labels = [
        "%s|%s" % (gp.labels[subgroup[hi]], gp.labels[gi])
        for hi in range(nh)
        for gi in range(ng)
    ]
    algebra = WeakBialgebra(dim, mult, unit, comult, counit, labels=labels)
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
    """Pre-validated instances by name; unknown names raise."""
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
        gname, hname = names
        gp, sub = named_subgroup(gname, hname)
        algebra, antipode = ad_crossed_product(gp, sub)
        return CatalogEntry(name, algebra, antipode=antipode)
    if name == "example2-rigidity":
        from .rigidity import dual_rigidity_structure

        base = build_example1()
        structure = dual_rigidity_structure(base, example2_cross_map())
        return CatalogEntry(name, base.dual, rigidity=structure)
    raise CatalogNameError("unknown catalog name %r" % name)
