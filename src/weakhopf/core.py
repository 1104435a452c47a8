"""Weak bialgebras by structure constants.

A weak bialgebra here is a finite-dimensional unital algebra over the exact
rationals carrying a coassociative counital coproduct that is multiplicative
but need not preserve the unit; the counit need not be multiplicative.  The
data is a multiplication tensor m[i][j][k] (e_i e_j = sum_k m[i][j][k] e_k),
a unit vector, a comultiplication tensor d[k][i][j] (coefficient of
e_i (x) e_j in the coproduct of e_k) and a counit vector.

The module also houses the canonical actions of the dual, the four counit
projections, the distinguished subspaces, the fixed-point subalgebras, the
axiom-class deciders and the structural theorem suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, wraps

from .exactlin import (
    Matrix,
    Q,
    QZERO,
    Subspace,
    image,
    inverse,
    kernel,
    linear_combination,
    nonzeros,
    outer,
    qstr,
    rank,
    row_space,
    unit_vec,
    vadd,
    vdot,
    vec,
    vector_combination,
    vscale,
)


class AlgebraDataError(Exception):
    """Structurally malformed input (dimension mismatch, bad tensors).

    Distinct from axiom violations, which are values reported by validate().
    """


def _as_mult_tensor(dim, mult):
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            entry = tuple(Q(x) for x in mult[i][j])
            if len(entry) != dim:
                raise AlgebraDataError("mult tensor has wrong width at (%d,%d)" % (i, j))
            row.append(entry)
        out.append(tuple(row))
    if len(mult) != dim or any(len(r) != dim for r in mult):
        raise AlgebraDataError("mult tensor has wrong shape")
    return tuple(out)


def _as_comult_tensor(dim, comult):
    if len(comult) != dim:
        raise AlgebraDataError("comult tensor has wrong shape")
    out = []
    for k in range(dim):
        m = Matrix(comult[k]) if not isinstance(comult[k], Matrix) else comult[k]
        if m.rows != dim or m.cols != dim:
            raise AlgebraDataError("comult slice %d has wrong shape" % k)
        out.append(m)
    return tuple(out)


def _sum_nonzeros(terms, n):
    """sum c * v over (c, v) pairs, each v given by its (k, x) nonzeros."""
    acc = [QZERO] * n
    for c, nz in terms:
        for k, x in nz:
            acc[k] += c * x
    return acc


def algebra_axiom_violations(algebra):
    """The failed unit and associativity axioms, with a witness basis tuple each.

    algebra needs dim, unit, mul and the per-(i, j) nonzero lists
    _mult_nonzeros.  Each axiom reports its first failure in basis order;
    associativity compares (e_i e_j) e_k with e_i (e_j e_k) over the lists.
    """
    bad = []
    n = algebra.dim
    one = algebra.unit
    basis = [unit_vec(n, i) for i in range(n)]
    for i in range(n):
        if algebra.mul(one, basis[i]) != basis[i]:
            bad.append(("unit-left", (i,)))
            break
    for i in range(n):
        if algebra.mul(basis[i], one) != basis[i]:
            bad.append(("unit-right", (i,)))
            break
    table = algebra._mult_nonzeros
    done = False
    for i in range(n):
        if done:
            break
        ti = table[i]
        for j in range(n):
            if done:
                break
            ij = ti[j]
            tj = table[j]
            for k in range(n):
                left = _sum_nonzeros(((c, table[l][k]) for l, c in ij), n)
                right = _sum_nonzeros(((c, ti[m]) for m, c in tj[k]), n)
                if left != right:
                    bad.append(("associativity", (i, j, k)))
                    done = True
                    break
    return bad


class WeakBialgebra:
    """Immutable structure-constant presentation of a weak bialgebra."""

    def __init__(self, dim, mult, unit, comult, counit, labels=None):
        if dim < 1:
            raise AlgebraDataError("dimension must be positive")
        self.dim = dim
        self.mult = _as_mult_tensor(dim, mult)
        self.unit = vec(unit)
        if len(self.unit) != dim:
            raise AlgebraDataError("unit vector has wrong dimension")
        self.comult = _as_comult_tensor(dim, comult)
        self.counit = vec(counit)
        if len(self.counit) != dim:
            raise AlgebraDataError("counit vector has wrong dimension")
        if labels is None:
            labels = tuple("x%d" % i for i in range(dim))
        self.labels = tuple(str(s) for s in labels)
        if len(self.labels) != dim:
            raise AlgebraDataError("label count does not match the dimension")

    def __eq__(self, other):
        return (
            isinstance(other, WeakBialgebra)
            and self.dim == other.dim
            and self.mult == other.mult
            and self.unit == other.unit
            and self.comult == other.comult
            and self.counit == other.counit
        )

    def __hash__(self):
        return hash((self.dim, self.unit, self.counit))

    # ------------------------------------------------------------------
    # elementary algebra operations on coefficient vectors
    # ------------------------------------------------------------------

    @cached_property
    def _mult_nonzeros(self):
        """Entry (i, j) lists the nonzero (k, c): e_i e_j = sum c e_k."""
        return tuple(
            tuple(tuple((k, c) for k, c in enumerate(ij) if c) for ij in row)
            for row in self.mult
        )

    def mul(self, a, b):
        acc = [QZERO] * self.dim
        table = self._mult_nonzeros
        bnz = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                row = table[i]
                for j, y in bnz:
                    xy = x * y
                    for k, c in row[j]:
                        acc[k] += xy * c
        return tuple(acc)

    def delta(self, a):
        return linear_combination(zip(a, self._comult_nonzeros), self.dim, self.dim)

    def eps(self, a):
        return vdot(a, self.counit)

    def basis_vector(self, i):
        return unit_vec(self.dim, i)

    @cached_property
    def left_mult(self):
        """L_i with (L_i)[k][j] = coefficient of e_k in e_i e_j."""
        n = self.dim
        return tuple(
            Matrix._of_fractions(
                [[self.mult[i][j][k] for j in range(n)] for k in range(n)], n
            )
            for i in range(n)
        )

    @cached_property
    def right_mult(self):
        """R_j with (R_j)[k][i] = coefficient of e_k in e_i e_j."""
        n = self.dim
        return tuple(
            Matrix._of_fractions(
                [[self.mult[i][j][k] for i in range(n)] for k in range(n)], n
            )
            for j in range(n)
        )

    @cached_property
    def _comult_nonzeros(self):
        return tuple(nonzeros(m) for m in self.comult)

    @cached_property
    def _left_mult_nonzeros(self):
        return tuple(nonzeros(m) for m in self.left_mult)

    @cached_property
    def _right_mult_nonzeros(self):
        return tuple(nonzeros(m) for m in self.right_mult)

    def left_mult_of(self, a):
        return linear_combination(zip(a, self._left_mult_nonzeros), self.dim, self.dim)

    def right_mult_of(self, a):
        return linear_combination(zip(a, self._right_mult_nonzeros), self.dim, self.dim)

    # canonical actions of the algebra on its dual
    def act_left(self, a, phi):
        """a acting on a functional from the left: the result pairs b to phi(b a)."""
        return self.right_mult_of(a).transpose().apply(phi)

    def act_right(self, phi, a):
        """a acting on a functional from the right: the result pairs b to phi(a b)."""
        return self.left_mult_of(a).transpose().apply(phi)

    # ------------------------------------------------------------------
    # tensor-square helpers (coefficient matrices over e_i (x) e_j)
    # ------------------------------------------------------------------

    def t2_mul(self, X: Matrix, Y: Matrix) -> Matrix:
        return self._t2_product(nonzeros(X), nonzeros(Y))

    def _t2_product(self, xnz, ynz) -> Matrix:
        """t2_mul of the two matrices with the given nonzeros() triples."""
        n = self.dim
        acc = [[QZERO] * n for _ in range(n)]
        table = self._mult_nonzeros
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
                    arow = acc[u]
                    for v, sv in second:
                        arow[v] += w * sv
        return Matrix._of_fractions(acc, n)

    @cached_property
    def delta1(self) -> Matrix:
        return self.delta(self.unit)

    @cached_property
    def gram(self) -> Matrix:
        """Gram matrix of the counit pairing: entry (i, j) is eps(e_i e_j)."""
        n = self.dim
        rows = []
        for i in range(n):
            rows.append([self.eps(self.mul(self.basis_vector(i), self.basis_vector(j))) for j in range(n)])
        return Matrix._of_fractions(rows, n)

    # ------------------------------------------------------------------
    # iterated coproducts, sparse dicts keyed by tuples of basis legs
    # ------------------------------------------------------------------

    def delta_at(self, tensor, leg):
        """Apply the coproduct to one leg of a sparse tensor {legs: coefficient}."""
        out = {}
        comult = self._comult_nonzeros
        for key, c in tensor.items():
            head, tail = key[:leg], key[leg + 1 :]
            for i, j, e in comult[key[leg]]:
                new = head + (i, j) + tail
                val = c * e
                prev = out.get(new)
                if prev is not None:
                    val += prev
                if val:
                    out[new] = val
                elif prev is not None:
                    del out[new]
        return out

    def iterated_delta(self, a, k):
        """The k-fold iterated coproduct of a on (k+1)-tuples of legs.

        Each step expands the last leg; validation compares the expansion of
        the first leg, so that coassociativity is checked, not assumed.
        """
        out = {(i,): x for i, x in enumerate(a) if x}
        for leg in range(k):
            out = self.delta_at(out, leg)
        return out

    def delta2(self, a):
        """Coefficients of the twice-iterated coproduct as a sparse dict."""
        return self.iterated_delta(a, 2)

    def _comonoidal_product(self, left_first: bool):
        """(Delta(1) (x) 1)(1 (x) Delta(1)) or the reversed order, as a dict."""
        n = self.dim
        d1 = self.delta1
        out = {}
        nz = nonzeros(d1)
        for u, v, c in nz:
            for up, vp, cp in nz:
                # left_first: legs (u, v*up, vp); else legs (u*up... reversed
                if left_first:
                    mid = self.mul(self.basis_vector(v), self.basis_vector(up))
                    cc = c * cp
                    for w, mw in enumerate(mid):
                        if mw:
                            key = (u, w, vp)
                            val = out.get(key, QZERO) + cc * mw
                            if val:
                                out[key] = val
                            else:
                                out.pop(key, None)
                else:
                    mid = self.mul(self.basis_vector(u), self.basis_vector(vp))
                    cc = c * cp
                    for w, mw in enumerate(mid):
                        if mw:
                            key = (up, w, v)
                            val = out.get(key, QZERO) + cc * mw
                            if val:
                                out[key] = val
                            else:
                                out.pop(key, None)
        return out

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    @cached_property
    def violations(self):
        """All failed structural axioms with a witness basis tuple each."""
        bad = algebra_axiom_violations(self)
        n = self.dim
        basis = [self.basis_vector(i) for i in range(n)]
        for k in range(n):
            dk = self.comult[k]
            left = dk.transpose().apply(self.counit)
            right = dk.apply(self.counit)
            if left != basis[k]:
                bad.append(("counit-left", (k,)))
                break
            if right != basis[k]:
                bad.append(("counit-right", (k,)))
                break
        for k in range(n):
            # (Delta (x) id) Delta against (id (x) Delta) Delta
            dk = self.iterated_delta(basis[k], 1)
            if self.delta_at(dk, 0) != self.delta_at(dk, 1):
                bad.append(("coassociativity", (k,)))
                break
        done = False
        comult = self._comult_nonzeros
        for i in range(n):
            if done:
                break
            di = comult[i]
            for j in range(n):
                lhs = self.delta(self.mul(basis[i], basis[j]))
                rhs = self._t2_product(di, comult[j])
                if lhs != rhs:
                    bad.append(("coproduct-multiplicativity", (i, j)))
                    done = True
                    break
        return tuple(bad)

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def require_valid(self):
        if self.violations:
            raise AlgebraDataError(
                "not a weak bialgebra: %s" % (self.violations[0][0],)
            )

    # ------------------------------------------------------------------
    # dual and twisted variants
    # ------------------------------------------------------------------

    @cached_property
    def dual(self) -> "WeakBialgebra":
        """Dual weak bialgebra on the dual basis."""
        n = self.dim
        mult = [
            [[self.comult[k][i, j] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        comult = [
            Matrix._of_fractions(
                [[self.mult[i][j][k] for j in range(n)] for i in range(n)], n
            )
            for k in range(n)
        ]
        labels = tuple(
            lb[:-1] if lb.endswith("^") else lb + "^" for lb in self.labels
        )
        return WeakBialgebra(n, mult, self.counit, comult, self.unit, labels=labels)

    @cached_property
    def opposite(self) -> "WeakBialgebra":
        n = self.dim
        mult = [[self.mult[j][i] for j in range(n)] for i in range(n)]
        return WeakBialgebra(n, mult, self.unit, self.comult, self.counit, self.labels)

    @cached_property
    def coopposite(self) -> "WeakBialgebra":
        comult = [m.transpose() for m in self.comult]
        return WeakBialgebra(
            self.dim, self.mult, self.unit, comult, self.counit, self.labels
        )

    # ------------------------------------------------------------------
    # counit maps, projections, subspaces
    # ------------------------------------------------------------------

    @cached_property
    def eps_maps(self):
        """Matrices of the four counit maps between the algebra and its dual.

        eps_l / eps_r send the algebra into its dual, their hatted partners
        send the dual back.  Images are the four distinguished subspaces.
        """
        g = self.gram
        d1 = self.delta1
        return {
            "eps_l": g.transpose(),
            "eps_r": g,
            "epshat_l": d1.transpose(),
            "epshat_r": d1,
        }

    @cached_property
    def projections(self):
        """The four counit projections on the algebra and on the dual."""
        g = self.gram
        gt = g.transpose()
        d1 = self.delta1
        d1t = d1.transpose()
        return {
            ("L", "L"): d1t * gt,
            ("R", "R"): d1 * g,
            ("L", "R"): d1t * g,
            ("R", "L"): d1 * gt,
            ("L", "L", "dual"): gt * d1t,
            ("R", "R", "dual"): g * d1,
            ("L", "R", "dual"): gt * d1,
            ("R", "L", "dual"): g * d1t,
        }

    def projection(self, sigma, sigma_prime, dual=False):
        key = (sigma, sigma_prime, "dual") if dual else (sigma, sigma_prime)
        return self.projections[key]

    @cached_property
    def subspaces(self):
        """Distinguished subspaces: wedge spaces and projection images."""
        d1 = self.delta1
        g = self.gram
        out = {
            "A_L": row_space(d1),
            "A_R": image(d1),
            "Ahat_L": row_space(g),
            "Ahat_R": image(g),
        }
        for s in "LR":
            for sp in "LR":
                out["A_%s%s" % (s, sp)] = image(self.projection(s, sp))
                out["Ahat_%s%s" % (s, sp)] = image(self.projection(s, sp, dual=True))
        return out

    @cached_property
    def fixed_point_subalgebras(self):
        """Kernel presentations of the four fixed-point subalgebras."""
        n = self.dim
        mult = self.mult
        # Row (i, j), column k: the coefficient of e_i (x) e_j in Delta(e_k)
        # minus a product term that sums over Delta(1), so only the nonzero
        # entries of Delta(1) contribute.
        base = [[self.comult[k][i, j] for k in range(n)] for i in range(n) for j in range(n)]
        rows_ll, rows_lr, rows_rl, rows_rr = ([list(r) for r in base] for _ in range(4))
        for u, v, c in nonzeros(self.delta1):
            for k in range(n):
                for i, w in enumerate(mult[k][u]):
                    if w:
                        rows_ll[i * n + v][k] -= c * w
                for i, w in enumerate(mult[u][k]):
                    if w:
                        rows_lr[i * n + v][k] -= c * w
                for j, w in enumerate(mult[k][v]):
                    if w:
                        rows_rl[u * n + j][k] -= c * w
                for j, w in enumerate(mult[v][k]):
                    if w:
                        rows_rr[u * n + j][k] -= c * w
        return {
            ("L", "L"): kernel(Matrix._of_fractions(rows_ll, n)),
            ("L", "R"): kernel(Matrix._of_fractions(rows_lr, n)),
            ("R", "L"): kernel(Matrix._of_fractions(rows_rl, n)),
            ("R", "R"): kernel(Matrix._of_fractions(rows_rr, n)),
        }

    @cached_property
    def center(self) -> Subspace:
        n = self.dim
        rows = []
        for t in range(n):
            diff = self.left_mult[t] - self.right_mult[t]
            rows.extend(diff.data)
        return kernel(Matrix._of_fractions(rows, n))

    @cached_property
    def center_l(self) -> Subspace:
        return self.center.intersect(self.fixed_point_subalgebras[("L", "L")])

    @cached_property
    def center_r(self) -> Subspace:
        return self.center.intersect(self.fixed_point_subalgebras[("R", "L")])

    def subspace_product(self, u: Subspace, v: Subspace) -> Subspace:
        prods = []
        for a in u.basis.data:
            for b in v.basis.data:
                prods.append(self.mul(a, b))
        return Subspace.from_spanning(prods, self.dim)

    def is_unital_subalgebra(self, s: Subspace) -> bool:
        if not s.contains(self.unit):
            return False
        for a in s.basis.data:
            for b in s.basis.data:
                if not s.contains(self.mul(a, b)):
                    return False
        return True

    def commutator_vanishes(self, u: Subspace, v: Subspace) -> bool:
        for a in u.basis.data:
            for b in v.basis.data:
                if self.mul(a, b) != self.mul(b, a):
                    return False
        return True


# ----------------------------------------------------------------------
# element wrappers (thin public API around coefficient vectors)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Element:
    algebra: WeakBialgebra
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.algebra.dim:
            raise AlgebraDataError("element has wrong dimension")
        object.__setattr__(self, "coeffs", vec(self.coeffs))

    def __mul__(self, other: "Element") -> "Element":
        if other.algebra != self.algebra:
            raise AlgebraDataError("elements live in different algebras")
        return Element(self.algebra, self.algebra.mul(self.coeffs, other.coeffs))

    def __add__(self, other: "Element") -> "Element":
        return Element(self.algebra, vadd(self.coeffs, other.coeffs))

    def scale(self, c) -> "Element":
        return Element(self.algebra, vscale(Q(c), self.coeffs))

    def counit(self):
        return self.algebra.eps(self.coeffs)

    def coproduct(self) -> "Tensor2":
        return Tensor2(self.algebra, self.algebra.delta(self.coeffs))

    def __str__(self):
        terms = [
            "%s*%s" % (qstr(c), lb)
            for c, lb in zip(self.coeffs, self.algebra.labels)
            if c
        ]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class Functional:
    algebra: WeakBialgebra
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.algebra.dim:
            raise AlgebraDataError("functional has wrong dimension")
        object.__setattr__(self, "coeffs", vec(self.coeffs))

    def __call__(self, elem) -> Fraction:
        return vdot(self.coeffs, elem.coeffs if isinstance(elem, Element) else elem)

    def acted_left(self, a: "Element") -> "Functional":
        return Functional(self.algebra, self.algebra.act_left(a.coeffs, self.coeffs))

    def acted_right(self, a: "Element") -> "Functional":
        return Functional(self.algebra, self.algebra.act_right(self.coeffs, a.coeffs))


@dataclass(frozen=True)
class Tensor2:
    algebra: WeakBialgebra
    coeffs: Matrix

    def __post_init__(self):
        n = self.algebra.dim
        if self.coeffs.rows != n or self.coeffs.cols != n:
            raise AlgebraDataError("tensor has wrong shape")

    def __mul__(self, other: "Tensor2") -> "Tensor2":
        return Tensor2(self.algebra, self.algebra.t2_mul(self.coeffs, other.coeffs))


# ----------------------------------------------------------------------
# axiom deciders
# ----------------------------------------------------------------------


@dataclass
class AxiomReport:
    valid: bool
    left_monoidal: bool
    right_monoidal: bool
    left_comonoidal: bool
    right_comonoidal: bool
    counit_factor_left: bool
    counit_factor_right: bool
    minimal: bool
    cominimal: bool
    dim: int
    dim_al: int
    dim_ar: int
    dim_al_cap_ar: int
    dims_a_sigma: dict
    dims_n_sigma: dict
    witnesses: dict = field(default_factory=dict)

    @property
    def monoidal(self) -> bool:
        return self.left_monoidal and self.right_monoidal

    @property
    def comonoidal(self) -> bool:
        return self.left_comonoidal and self.right_comonoidal

    @property
    def bimonoidal(self) -> bool:
        return self.monoidal and self.comonoidal


def _first_monoidal_witness(algebra, right: bool):
    """Lexicographically first (a, b, c) basis triple violating the axiom."""
    n = algebra.dim
    g = algebra.gram
    residuals = []
    for k in range(n):
        dk = algebra.comult[k]
        mid = dk.transpose() if right else dk
        residuals.append(algebra.right_mult[k].transpose() * g - g * mid * g)
    for i in range(n):
        for k in range(n):
            res = residuals[k]
            for j in range(n):
                if res[i, j] != 0:
                    return (i, k, j)
    return None


def _first_comonoidal_witness(algebra, right: bool):
    lhs = algebra._comonoidal_product(left_first=not right)
    rhs = algebra.delta2(algebra.unit)
    keys = sorted(set(lhs) | set(rhs))
    for key in keys:
        if lhs.get(key, QZERO) != rhs.get(key, QZERO):
            return key
    return None


def _first_matrix_witness(a: Matrix, b: Matrix):
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] != b[i, j]:
                return (i, j)
    return None


def computed_once(compute):
    """Keep compute(algebra) on the instance, so that it runs once per instance.

    For verdicts that depend only on the immutable structure constants.  A
    call that raises keeps nothing, so it raises again the next time.
    """
    key = "_once_" + compute.__name__

    @wraps(compute)
    def once(algebra):
        value = algebra.__dict__.get(key)
        if value is None:
            value = algebra.__dict__[key] = compute(algebra)
        return value

    return once


@computed_once
def decide_axioms(algebra: WeakBialgebra) -> AxiomReport:
    """Decide every axiom class and collect dimensions and witnesses."""
    algebra.require_valid()
    witnesses = {}

    wl = _first_monoidal_witness(algebra, right=False)
    wr = _first_monoidal_witness(algebra, right=True)
    if wl is not None:
        witnesses["left-monoidal"] = wl
    if wr is not None:
        witnesses["right-monoidal"] = wr

    cl = _first_comonoidal_witness(algebra, right=False)
    cr = _first_comonoidal_witness(algebra, right=True)
    if cl is not None:
        witnesses["left-comonoidal"] = cl
    if cr is not None:
        witnesses["right-comonoidal"] = cr

    g = algebra.gram
    d1 = algebra.delta1
    bl = _first_matrix_witness(g, g * d1 * g)
    br = _first_matrix_witness(g, g * d1.transpose() * g)
    if bl is not None:
        witnesses["counit-factor-left"] = bl
    if br is not None:
        witnesses["counit-factor-right"] = br

    sub = algebra.subspaces
    nfix = algebra.fixed_point_subalgebras
    a_l, a_r = sub["A_L"], sub["A_R"]
    comonoidal = cl is None and cr is None
    monoidal = wl is None and wr is None

    span_lr = algebra.subspace_product(a_l, a_r)
    minimal = comonoidal and span_lr.dim == algebra.dim
    dual = algebra.dual
    dsub = dual.subspaces
    dual_span = dual.subspace_product(dsub["A_L"], dsub["A_R"])
    cominimal = monoidal and dual_span.dim == algebra.dim

    dims_a = {
        "%s%s" % (s, sp): sub["A_%s%s" % (s, sp)].dim for s in "LR" for sp in "LR"
    }
    dims_n = {"%s%s" % (s, sp): nfix[(s, sp)].dim for s in "LR" for sp in "LR"}

    return AxiomReport(
        valid=True,
        left_monoidal=wl is None,
        right_monoidal=wr is None,
        left_comonoidal=cl is None,
        right_comonoidal=cr is None,
        counit_factor_left=bl is None,
        counit_factor_right=br is None,
        minimal=minimal,
        cominimal=cominimal,
        dim=algebra.dim,
        dim_al=a_l.dim,
        dim_ar=a_r.dim,
        dim_al_cap_ar=a_l.intersect(a_r).dim,
        dims_a_sigma=dims_a,
        dims_n_sigma=dims_n,
        witnesses=witnesses,
    )


# ----------------------------------------------------------------------
# the six equivalent shapes of the one-sided monoidality axiom
# ----------------------------------------------------------------------


def _axiom_tensor_shapes(algebra, left: bool):
    """Evaluate the list of equivalent monoidality axioms, one bool each."""
    n = algebra.dim
    g = algebra.gram
    d1 = algebra.delta1
    eps_l = algebra.eps_maps["eps_l"]
    eps_r = algebra.eps_maps["eps_r"]
    p_ll = algebra.projection("L", "L")
    p_rr = algebra.projection("R", "R")
    p_lr = algebra.projection("L", "R")
    p_rl = algebra.projection("R", "L")
    dual = algebra.dual
    dp_ll = dual.projection("L", "L")
    dp_rr = dual.projection("R", "R")
    dp_lr = dual.projection("L", "R")
    dp_rl = dual.projection("R", "L")
    out = {}
    if left:
        out["counit-triple"] = all(
            algebra.right_mult[k].transpose() * g == g * algebra.comult[k] * g
            for k in range(n)
        )
        out["dual-ll-absorb"] = all(
            dual.comult[t] * dp_ll.transpose()
            == dual.left_mult_of(dual.basis_vector(t)) * dual.delta1
            for t in range(n)
        )
        out["left-coproduct-drop"] = all(
            algebra.comult[t] * eps_l.transpose()
            == algebra.left_mult[t] * d1 * eps_l.transpose()
            for t in range(n)
        )
        out["rr-projection-product"] = all(
            algebra.left_mult[s] * p_rr == algebra.comult[s] * g for s in range(n)
        )
        out["dual-rr-absorb"] = all(
            dp_rr * dual.comult[t]
            == dual.delta1 * dual.right_mult_of(dual.basis_vector(t)).transpose()
            for t in range(n)
        )
        out["right-coproduct-drop"] = all(
            eps_r * algebra.comult[s] == eps_r * d1 * algebra.right_mult[s].transpose()
            for s in range(n)
        )
        out["ll-projection-product"] = all(
            algebra.right_mult[s] * p_ll == algebra.comult[s].transpose() * g.transpose()
            for s in range(n)
        )
    else:
        out["counit-triple"] = all(
            algebra.right_mult[k].transpose() * g
            == g * algebra.comult[k].transpose() * g
            for k in range(n)
        )
        out["dual-lr-absorb"] = all(
            dual.comult[t] * dp_lr.transpose()
            == dual.right_mult_of(dual.basis_vector(t)) * dual.delta1
            for t in range(n)
        )
        out["left-coproduct-drop"] = all(
            eps_l * algebra.comult[s]
            == eps_l * d1 * algebra.left_mult[s].transpose()
            for s in range(n)
        )
        out["lr-projection-product"] = all(
            algebra.left_mult[s] * p_lr == algebra.comult[s].transpose() * g
            for s in range(n)
        )
        out["dual-rl-absorb"] = all(
            dp_rl * dual.comult[t]
            == dual.delta1 * dual.left_mult_of(dual.basis_vector(t)).transpose()
            for t in range(n)
        )
        out["right-coproduct-drop"] = all(
            algebra.comult[t] * eps_r.transpose()
            == algebra.right_mult[t] * d1 * eps_r.transpose()
            for t in range(n)
        )
        out["rl-projection-product"] = all(
            algebra.right_mult[s] * p_rl == algebra.comult[s] * g.transpose()
            for s in range(n)
        )
    return out


def monoidality_cross_check(algebra: WeakBialgebra):
    """All equivalent presentations of one-sided monoidality must agree."""
    left = _axiom_tensor_shapes(algebra, left=True)
    right = _axiom_tensor_shapes(algebra, left=False)
    left_ok = len(set(left.values())) == 1
    right_ok = len(set(right.values())) == 1
    return left_ok and right_ok, {"left": left, "right": right}


# ----------------------------------------------------------------------
# structural theorem suite
# ----------------------------------------------------------------------


@dataclass
class TheoremCheck:
    name: str
    hypotheses_met: bool
    conclusion_holds: bool
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.hypotheses_met and not self.conclusion_holds


def _projection_transpose_law(algebra) -> bool:
    flip = {"L": "R", "R": "L"}
    for s in "LR":
        for sp in "LR":
            lhs = algebra.projection(s, sp).transpose()
            rhs = algebra.projection(flip[sp], flip[s], dual=True)
            if lhs != rhs:
                return False
    return True


def _counit_absorption_identities(algebra) -> bool:
    """Four exchange identities linking the projections with plain counits.

    Each identity sums over the coproduct legs of a, with b running over the
    basis: a_(2) proj_LL(b a_(1)) = a_(2) eps(b a_(1)) and its three mirrors.
    """
    n = algebra.dim
    basis = [algebra.basis_vector(i) for i in range(n)]
    p = {k: algebra.projection(*k) for k in [("L", "L"), ("R", "R"), ("L", "R"), ("R", "L")]}
    for s in range(n):
        for t in range(n):
            sums = {key: [] for key in ("l1", "r1", "l2", "r2", "l3", "r3", "l4", "r4")}
            # u is the first coproduct leg of e_s, v the second
            for u, v, c in algebra._comult_nonzeros[s]:
                tu = algebra.mul(basis[t], basis[u])
                ut = algebra.mul(basis[u], basis[t])
                vt = algebra.mul(basis[v], basis[t])
                tv = algebra.mul(basis[t], basis[v])
                sums["l1"].append((c, algebra.mul(basis[v], p[("L", "L")].apply(tu))))
                sums["r1"].append((c * algebra.eps(tu), basis[v]))
                sums["l2"].append((c, algebra.mul(p[("R", "R")].apply(vt), basis[u])))
                sums["r2"].append((c * algebra.eps(vt), basis[u]))
                sums["l3"].append((c, algebra.mul(p[("L", "R")].apply(ut), basis[v])))
                sums["r3"].append((c * algebra.eps(ut), basis[v]))
                sums["l4"].append((c, algebra.mul(basis[u], p[("R", "L")].apply(tv))))
                sums["r4"].append((c * algebra.eps(tv), basis[u]))
            for a, b in (("l1", "r1"), ("l2", "r2"), ("l3", "r3"), ("l4", "r4")):
                if vector_combination(sums[a], n) != vector_combination(sums[b], n):
                    return False
    return True


def _projector_coproduct_forms(algebra, report) -> TheoremCheck:
    """Monoidal projections are idempotent with subalgebra images."""
    checks = []
    n = algebra.dim
    basis = [algebra.basis_vector(i) for i in range(n)]
    d1 = algebra.delta1
    sub = algebra.subspaces
    if report.left_monoidal:
        p_ll = algebra.projection("L", "L")
        p_rr = algebra.projection("R", "R")
        for t in range(n):
            # coproducts of projected elements collapse onto Delta(1)
            v = p_ll.apply(basis[t])
            checks.append(
                algebra.delta(v) == algebra.t2_mul(outer(v, algebra.unit), d1)
            )
            w = p_rr.apply(basis[t])
            checks.append(
                algebra.delta(w)
                == algebra.t2_mul(d1, outer(algebra.unit, w))
            )
        for s in range(n):
            for t in range(n):
                a = p_ll.apply(basis[s])
                b = p_ll.apply(basis[t])
                checks.append(
                    algebra.mul(b, a) == p_ll.apply(algebra.mul(basis[t], a))
                )
                ar = p_rr.apply(basis[s])
                br = p_rr.apply(basis[t])
                checks.append(
                    algebra.mul(ar, br) == p_rr.apply(algebra.mul(ar, basis[t]))
                )
        checks.append(p_ll * p_ll == p_ll)
        checks.append(p_rr * p_rr == p_rr)
        checks.append(algebra.is_unital_subalgebra(sub["A_LL"]))
        checks.append(algebra.is_unital_subalgebra(sub["A_RR"]))
    if report.right_monoidal:
        p_rl = algebra.projection("R", "L")
        p_lr = algebra.projection("L", "R")
        for t in range(n):
            v = p_rl.apply(basis[t])
            checks.append(
                algebra.delta(v)
                == algebra.t2_mul(outer(algebra.unit, v), d1)
            )
            w = p_lr.apply(basis[t])
            checks.append(
                algebra.delta(w) == algebra.t2_mul(d1, outer(w, algebra.unit))
            )
        for s in range(n):
            for t in range(n):
                a = p_rl.apply(basis[s])
                b = p_rl.apply(basis[t])
                checks.append(algebra.mul(b, a) == p_rl.apply(algebra.mul(basis[t], a)))
                al = p_lr.apply(basis[s])
                bl = p_lr.apply(basis[t])
                checks.append(algebra.mul(al, bl) == p_lr.apply(algebra.mul(al, basis[t])))
        checks.append(p_rl * p_rl == p_rl)
        checks.append(p_lr * p_lr == p_lr)
        checks.append(algebra.is_unital_subalgebra(sub["A_RL"]))
        checks.append(algebra.is_unital_subalgebra(sub["A_LR"]))
    if report.monoidal:
        for sp in "LR":
            checks.append(
                algebra.commutator_vanishes(sub["A_L%s" % sp], sub["A_R%s" % sp])
            )
    return TheoremCheck(
        "monoidal-projection-forms",
        report.left_monoidal or report.right_monoidal,
        all(checks),
    )


def _nondegenerate_pairings(algebra, report) -> TheoremCheck:
    """Weak counit factorization forces the four canonical pairings onto
    full rank and makes the two unit-module candidates dual to each other."""
    hyp = report.counit_factor_left and report.counit_factor_right
    if not hyp:
        return TheoremCheck("counit-pairings", False, True)
    sub = algebra.subspaces
    checks = []
    e_space = sub["Ahat_R"]
    ehat_space = sub["Ahat_L"]
    dims = {sub["A_%s%s" % (s, sp)].dim for s in "LR" for sp in "LR"}
    checks.append(dims == {e_space.dim} and ehat_space.dim == e_space.dim)
    for s in "LR":
        for sp in "LR":
            a_sl = sub["A_%sL" % s]
            a_sr = sub["A_%sR" % sp]
            gram = Matrix(
                [
                    [algebra.eps(algebra.mul(a, b)) for b in a_sr.basis.data]
                    for a in a_sl.basis.data
                ]
            ) if a_sl.dim and a_sr.dim else Matrix._empty(0)
            ok = a_sl.dim == a_sr.dim and (
                a_sl.dim == 0 or rank(gram) == a_sl.dim
            )
            checks.append(ok)
    for s in "LR":
        a_sl = sub["A_%sL" % s]
        pair = Matrix(
            [[vdot(psi, a) for psi in e_space.basis.data] for a in a_sl.basis.data]
        ) if a_sl.dim else Matrix._empty(0)
        checks.append(a_sl.dim == e_space.dim and (a_sl.dim == 0 or rank(pair) == a_sl.dim))
        a_sr = sub["A_%sR" % s]
        pair2 = Matrix(
            [[vdot(phi, b) for b in a_sr.basis.data] for phi in ehat_space.basis.data]
        ) if a_sr.dim else Matrix._empty(0)
        checks.append(a_sr.dim == ehat_space.dim and (a_sr.dim == 0 or rank(pair2) == a_sr.dim))
    dual = algebra.dual
    pair3 = Matrix(
        [
            [dual.eps(dual.mul(phi, psi)) for psi in e_space.basis.data]
            for phi in ehat_space.basis.data
        ]
    ) if ehat_space.dim else Matrix._empty(0)
    checks.append(ehat_space.dim == 0 or rank(pair3) == ehat_space.dim)
    # right-module duality of the two candidates
    n = algebra.dim
    for phi in ehat_space.basis.data:
        for psi in e_space.basis.data:
            for t in range(n):
                a = algebra.basis_vector(t)
                lhs = dual.eps(dual.mul(phi, algebra.act_left(a, psi)))
                rhs = dual.eps(dual.mul(algebra.act_right(phi, a), psi))
                if lhs != rhs:
                    checks.append(False)
                    break
    return TheoremCheck("counit-pairings", True, all(checks))


def _fixed_point_mapping(algebra) -> TheoremCheck:
    """The counit maps exchange the fixed-point subalgebras of an algebra
    and its dual, isomorphically for mixed indices and anti- for equal."""
    dual = algebra.dual
    nfix = algebra.fixed_point_subalgebras
    dfix = dual.fixed_point_subalgebras
    eps = {"L": algebra.eps_maps["eps_l"], "R": algebra.eps_maps["eps_r"]}
    ehat = {"L": algebra.eps_maps["epshat_l"], "R": algebra.eps_maps["epshat_r"]}
    ok = True
    for s in "LR":
        for sp in "LR":
            src = nfix[(sp, s)]
            dst = dfix[(s, sp)]
            img = Subspace.from_spanning(
                [eps[s].apply(v) for v in src.basis.data], algebra.dim
            )
            if img != dst:
                ok = False
                continue
            for v in src.basis.data:
                back = ehat[sp].apply(eps[s].apply(v))
                if back != v:
                    ok = False
            for a in src.basis.data:
                for b in src.basis.data:
                    fa = eps[s].apply(a)
                    fb = eps[s].apply(b)
                    prod = (
                        dual.mul(fa, fb) if s != sp else dual.mul(fb, fa)
                    )
                    if prod != eps[s].apply(algebra.mul(a, b)):
                        ok = False
    # centers: the mixed intersections land in the dual's relative centers
    for s in "LR":
        both = nfix[("L", s)].intersect(nfix[("R", s)])
        target = dual.center.intersect(dfix[(s, "L")])
        img = Subspace.from_spanning(
            [eps[s].apply(v) for v in both.basis.data], algebra.dim
        )
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


def _multiplier_realization(algebra) -> TheoremCheck:
    """Fixed-point subalgebras realized inside the endomorphisms of the
    algebra: left/right multipliers against the dual-action operators."""
    n = algebra.dim
    dual = algebra.dual
    nfix = algebra.fixed_point_subalgebras
    dfix = dual.fixed_point_subalgebras

    def q_op(sigma, v):
        return algebra.left_mult_of(v) if sigma == "L" else algebra.right_mult_of(v)

    def p_op(sigma, phi):
        n_ = algebra.dim
        if sigma == "L":
            rows = [
                [
                    sum((algebra.comult[i][u, vv] * phi[u] for u in range(n_)), QZERO)
                    for i in range(n_)
                ]
                for vv in range(n_)
            ]
        else:
            rows = [
                [
                    sum((algebra.comult[i][u, vv] * phi[vv] for vv in range(n_)), QZERO)
                    for i in range(n_)
                ]
                for u in range(n_)
            ]
        return Matrix(rows)

    ok = True
    flat_q = {s: [] for s in "LR"}
    for s in "LR":
        for t in range(n):
            flat_q[s].append(q_op(s, algebra.basis_vector(t)).flatten())
    flat_p = {s: [] for s in "LR"}
    for s in "LR":
        for t in range(n):
            flat_p[s].append(p_op(s, algebra.basis_vector(t)).flatten())
    for s in "LR":
        for sp in "LR":
            lhs = Subspace.from_spanning(
                [q_op(s, v).flatten() for v in nfix[(sp, s)].basis.data], n * n
            )
            rhs = Subspace.from_spanning(
                [p_op(sp, ph).flatten() for ph in dfix[(s, sp)].basis.data], n * n
            )
            both = Subspace.from_spanning(flat_q[s], n * n).intersect(
                Subspace.from_spanning(flat_p[sp], n * n)
            )
            if lhs != rhs or lhs != both:
                ok = False
    return TheoremCheck("multiplier-realization", True, ok)


def _comonoidal_subspace_forms(algebra, report) -> TheoremCheck:
    sub = algebra.subspaces
    nfix = algebra.fixed_point_subalgebras
    dual = algebra.dual
    dsub = dual.subspaces
    dfix = dual.fixed_point_subalgebras
    checks = []
    left_eq = sub["A_L"] == nfix[("L", "L")]
    right_eq = sub["A_R"] == nfix[("R", "R")]
    checks.append(left_eq == report.left_comonoidal)
    checks.append(right_eq == report.left_comonoidal)
    left_eq2 = sub["A_L"] == nfix[("L", "R")]
    right_eq2 = sub["A_R"] == nfix[("R", "L")]
    checks.append(left_eq2 == report.right_comonoidal)
    checks.append(right_eq2 == report.right_comonoidal)
    if report.left_comonoidal:
        for s in "LR":
            checks.append(dfix[(s, s)] == dsub["A_%s%s" % (s, s)])
            checks.append(nfix[(s, s)] == sub["A_%s%s" % (s, s)])
    if report.right_comonoidal:
        for s, sp in (("L", "R"), ("R", "L")):
            checks.append(dfix[(s, sp)] == dsub["A_%s%s" % (s, sp)])
            checks.append(nfix[(s, sp)] == sub["A_%s%s" % (s, sp)])
    return TheoremCheck("comonoidal-fixed-points", True, all(checks))


def _commuting_wedges(algebra, report) -> TheoremCheck:
    sub = algebra.subspaces
    commute = algebra.commutator_vanishes(sub["A_L"], sub["A_R"])
    checks = []
    checks.append(report.comonoidal == (report.left_comonoidal and commute))
    checks.append(report.comonoidal == (report.right_comonoidal and commute))
    if report.comonoidal:
        dual = algebra.dual
        z = sub["A_L"].intersect(sub["A_R"])
        checks.append(z.dim == dual.center_l.dim == dual.center_r.dim)
        checks.append(algebra.center_l == algebra.center.intersect(sub["A_L"]))
        checks.append(algebra.center_r == algebra.center.intersect(sub["A_R"]))
    if commute:
        checks.append(report.left_monoidal == report.right_monoidal)
    checks.append(
        report.bimonoidal
        == (report.comonoidal and report.left_monoidal)
        == (report.monoidal and report.left_comonoidal)
    )
    return TheoremCheck("commuting-wedges", True, all(checks))


def _monoidal_comonoidal_bridges(algebra, report) -> TheoremCheck:
    """One-sided monoidality upgrades to comonoidality through a single
    coproduct identity, and back through the counit factorization."""
    n = algebra.dim
    checks = []
    d1 = algebra.delta1
    if report.left_monoidal:
        lhs = algebra._comonoidal_product(left_first=True)
        contracted = [[QZERO] * n for _ in range(n)]
        for (i, j, k), c in lhs.items():
            e = algebra.counit[j]
            if e:
                contracted[i][k] += c * e
        checks.append((Matrix(contracted) == d1) == report.left_comonoidal)
    if report.right_monoidal:
        lhs = algebra._comonoidal_product(left_first=False)
        contracted = [[QZERO] * n for _ in range(n)]
        for (i, j, k), c in lhs.items():
            e = algebra.counit[j]
            if e:
                contracted[i][k] += c * e
        checks.append((Matrix(contracted) == d1) == report.right_comonoidal)
    if report.left_comonoidal:
        checks.append(report.counit_factor_left == report.left_monoidal)
    if report.right_comonoidal:
        checks.append(report.counit_factor_right == report.right_monoidal)
    return TheoremCheck(
        "monoidal-comonoidal-bridges",
        report.left_monoidal
        or report.right_monoidal
        or report.left_comonoidal
        or report.right_comonoidal,
        all(checks),
    )


def _wedge_anti_isomorphisms(algebra, report) -> TheoremCheck:
    """On monoidal instances the mixed projections restrict to mutually
    inverse algebra anti-isomorphisms between the sigma-wedge images."""
    if not report.monoidal:
        return TheoremCheck("wedge-anti-isomorphisms", False, True)
    sub = algebra.subspaces
    ok = True
    for s in "LR":
        src = sub["A_R%s" % s]
        dst = sub["A_L%s" % s]
        fwd = algebra.projection("L", s)
        bwd = algebra.projection("R", s)
        img = Subspace.from_spanning([fwd.apply(v) for v in src.basis.data], algebra.dim)
        if img != dst:
            ok = False
            continue
        for v in src.basis.data:
            if bwd.apply(fwd.apply(v)) != v:
                ok = False
        for a in src.basis.data:
            for b in src.basis.data:
                if fwd.apply(algebra.mul(a, b)) != algebra.mul(fwd.apply(b), fwd.apply(a)):
                    ok = False
    return TheoremCheck("wedge-anti-isomorphisms", True, ok)


def _hyper_center(algebra, report) -> TheoremCheck:
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


def _counit_factorization_shapes(algebra, report) -> TheoremCheck:
    """All equivalent presentations of each weak counit factorization axiom
    agree with the Gram-matrix decider."""
    n = algebra.dim
    eps_l = algebra.eps_maps["eps_l"]
    eps_r = algebra.eps_maps["eps_r"]
    ehat_l = algebra.eps_maps["epshat_l"]
    ehat_r = algebra.eps_maps["epshat_r"]
    p_ll = algebra.projection("L", "L")
    p_rr = algebra.projection("R", "R")
    p_rl = algebra.projection("R", "L")
    p_lr = algebra.projection("L", "R")
    left_forms = {
        "project-first": all(
            eps_l * algebra.left_mult[t]
            == eps_l * algebra.left_mult_of(p_ll.apply(algebra.basis_vector(t)))
            for t in range(n)
        ),
        "project-second": all(
            eps_r * algebra.right_mult[t]
            == eps_r * algebra.right_mult_of(p_rr.apply(algebra.basis_vector(t)))
            for t in range(n)
        ),
        "triple-compose-l": eps_l * ehat_l * eps_l == eps_l,
        "triple-compose-r": eps_r * ehat_r * eps_r == eps_r,
    }
    right_forms = {
        "project-first": all(
            eps_l * algebra.left_mult[t]
            == eps_l * algebra.left_mult_of(p_rl.apply(algebra.basis_vector(t)))
            for t in range(n)
        ),
        "project-second": all(
            eps_r * algebra.right_mult[t]
            == eps_r * algebra.right_mult_of(p_lr.apply(algebra.basis_vector(t)))
            for t in range(n)
        ),
        "triple-compose-l": eps_l * ehat_r * eps_l == eps_l,
        "triple-compose-r": eps_r * ehat_l * eps_r == eps_r,
    }
    ok = set(left_forms.values()) == {report.counit_factor_left} and set(
        right_forms.values()
    ) == {report.counit_factor_right}
    return TheoremCheck("counit-factorization-shapes", True, ok)


def _unit_coproduct_support(algebra) -> TheoremCheck:
    sub = algebra.subspaces
    d1 = algebra.delta1
    cols = image(d1)
    rows = row_space(d1)
    ok = cols == sub["A_R"] and rows == sub["A_L"]
    return TheoremCheck("unit-coproduct-support", True, ok)


def _fixed_point_containments(algebra) -> TheoremCheck:
    """The fixed-point spaces are unital subalgebras, sit inside the
    corresponding projection images, and those images inside the wedges."""
    sub = algebra.subspaces
    nfix = algebra.fixed_point_subalgebras
    ok = True
    for s in "LR":
        for sp in "LR":
            n_space = nfix[(s, sp)]
            a_space = sub["A_%s%s" % (s, sp)]
            if not algebra.is_unital_subalgebra(n_space):
                ok = False
            if not a_space.contains_subspace(n_space):
                ok = False
            if not sub["A_%s" % s].contains_subspace(a_space):
                ok = False
            proj = algebra.projection(s, sp)
            for v in n_space.basis.data:
                if proj.apply(v) != v:
                    ok = False
    return TheoremCheck("fixed-point-containments", True, ok)


def structural_theorem_suite(algebra: WeakBialgebra):
    """Verify every structural theorem whose hypotheses hold on the instance.

    Any check with hypotheses met and conclusion failing indicates a bug or
    corrupted input, never an expected outcome.
    """
    algebra.require_valid()
    report = decide_axioms(algebra)
    agree, detail = monoidality_cross_check(algebra)
    checks = [
        TheoremCheck("axiom-shape-agreement", True, agree, str(detail) if not agree else ""),
        TheoremCheck("projection-transposes", True, _projection_transpose_law(algebra)),
        TheoremCheck("counit-absorption", True, _counit_absorption_identities(algebra)),
        _projector_coproduct_forms(algebra, report),
        _nondegenerate_pairings(algebra, report),
        _fixed_point_mapping(algebra),
        _multiplier_realization(algebra),
        _comonoidal_subspace_forms(algebra, report),
        _commuting_wedges(algebra, report),
        _monoidal_comonoidal_bridges(algebra, report),
        _wedge_anti_isomorphisms(algebra, report),
        _hyper_center(algebra, report),
        _counit_factorization_shapes(algebra, report),
        _unit_coproduct_support(algebra),
        _fixed_point_containments(algebra),
    ]
    return checks


def suite_failures(checks):
    return [c for c in checks if c.failed]


# ----------------------------------------------------------------------
# presentation transport (used heavily by the randomized test suites)
# ----------------------------------------------------------------------


def transport(algebra: WeakBialgebra, t: Matrix) -> WeakBialgebra:
    """Rewrite the presentation in the basis whose vectors are the columns of t."""
    n = algebra.dim
    tinv = inverse(t)
    if tinv is None:
        raise AlgebraDataError("basis-change matrix is singular")
    cols = [t.col(i) for i in range(n)]
    mult = [
        [list(tinv.apply(algebra.mul(cols[i], cols[j]))) for j in range(n)]
        for i in range(n)
    ]
    comult = [tinv * algebra.delta(cols[k]) * tinv.transpose() for k in range(n)]
    unit = tinv.apply(algebra.unit)
    counit = [algebra.eps(cols[k]) for k in range(n)]
    return WeakBialgebra(n, mult, unit, comult, counit, labels=algebra.labels)


def direct_sum(a: WeakBialgebra, b: WeakBialgebra) -> WeakBialgebra:
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
    comult = []
    for k in range(n):
        rows = [[QZERO] * dim for _ in range(dim)]
        for i in range(n):
            for j in range(n):
                rows[i][j] = a.comult[k][i, j]
        comult.append(Matrix(rows))
    for k in range(m):
        rows = [[QZERO] * dim for _ in range(dim)]
        for i in range(m):
            for j in range(m):
                rows[n + i][n + j] = b.comult[k][i, j]
        comult.append(Matrix(rows))
    unit = list(a.unit) + list(b.unit)
    counit = list(a.counit) + list(b.counit)
    labels = tuple("l." + s for s in a.labels) + tuple("r." + s for s in b.labels)
    return WeakBialgebra(dim, mult, unit, comult, counit, labels)
