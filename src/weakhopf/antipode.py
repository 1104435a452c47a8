"""Antipodes, podes, convolution, separability and integral criteria.

The convolution product on linear endomorphisms of a weak bialgebra is
(S * T)(a) = S(a_(1)) T(a_(2)).  A pre-antipode is a quasi-inverse of the
identity whose one-sided convolutions land on the mixed counit projections;
an antipode additionally satisfies S * id * S = S.  Antipodes are unique and
are found here by exact linear solving in the matrix entries of S, or
certified by checking a given candidate against those laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    TheoremCheck,
    WeakBialgebra,
    _block_transposed,
    _cleared,
    _cleared_rows,
    _denominator_lcm,
    _first_matrix_witness,
    _flat,
    _integer_leg_sums,
    _leg_sums,
    _pairs_swapped,
    _rows_of,
    _spread,
    _summed,
    _t2_rows,
    _unflat,
    computed_once,
    decide_axioms,
)
from .exactlin import (
    Matrix,
    Subspace,
    _quotient,
    _storage_row,
    _unwrapped_nonzeros,
    inverse,
    kron,
    outer,
    particular_solution_of_rows,
    rank,
    row_space,
    solve_affine,
    solve_affine_of_rows,
)


class SelfCheckError(Exception):
    """A proven theorem failed on a validated instance: bug or corrupt input."""


def convolve(algebra: WeakBialgebra, s: Matrix, t: Matrix) -> Matrix:
    """Convolution product of two endomorphisms given by their matrices.

    The rows of S^t and T^t are the images S(e_u) and T(e_v), each cleared
    of denominators once per call.  Their products S(e_u) T(e_v), int sums
    over the integer table, one block per reached leg pair, summed over the
    legs of each Delta(e_k) (_leg_sums) give row k equal to (S * T)(e_k),
    which is column k of S * T."""
    s_rows, d_s = _cleared_rows(s.transpose().sparse_rows)
    t_rows, d_t = _cleared_rows(t.transpose().sparse_rows)

    def flats(u, vs):
        products = algebra._product_sums((s_rows[u],), [t_rows[v] for v in vs])
        return [acc.items() for acc in products]

    d = algebra._integer_tables.d_mult * d_s * d_t
    return _leg_sums(algebra, flats, 1, algebra.dim, d).transpose()


def convolve_tensors(algebra: WeakBialgebra, p: Matrix, q: Matrix, x=None) -> Matrix:
    """The convolution x -> P(x_(1)) Q(x_(2)) of two maps A -> A (x) A,
    multiplied in A (x) A.

    A map to A (x) A is an n^2 x n matrix whose column k is the image of
    e_k, row u * n + v holding its coefficient of e_u (x) e_v, so that
    (X (x) Y) F is kron(X, Y) F.  As in convolve, P and Q are cleared of
    denominators once per call, and each product P(e_u) Q(e_v) is an int
    sum in the tensor square (_t2_rows), one block per reached leg pair,
    which _leg_sums sums into P * Q, in the same form.  Given x, only the
    legs of Delta(x) are formed, on the integer coproduct, and the n x n
    tensor (P * Q)(x) returned."""
    n = algebra.dim
    tables = algebra._integer_tables

    def tensors(m):
        """The columns of m times the lcm of its denominators, as tensors
        grouped by their first leg (_rows_of), and that lcm."""
        cols, d = _cleared_rows(m.transpose().sparse_rows)
        return [_rows_of(divmod(r, n) + (y,) for r, y in col) for col in cols], d

    (ps, d_p), (qs, d_q) = tensors(p), tensors(q)
    d = tables.d_mult**2 * d_p * d_q

    def block(u, v):
        """d P(e_u) Q(e_v), flattened."""
        return [(a * n + b, y) for (a, b), y in _t2_rows(tables.mult, ps[u], qs[v]).items()]

    if x is not None:
        (xs,), d_x = _cleared_rows((_unwrapped_nonzeros(x),))
        legs = _summed(((u, v), y * c) for k, y in xs for u, v, c in tables.comult[k])
        acc = _summed((j, c * z) for (u, v), c in legs.items() for j, z in block(u, v))
        return Matrix._of_rows(_unflat(_storage_row(acc, d * d_x * tables.d_comult), n, n), n)
    return _leg_sums(algebra, lambda u, vs: [block(u, v) for v in vs], 1, n * n, d).transpose()


def convolution_unit(algebra: WeakBialgebra) -> Matrix:
    """The unit of the convolution algebra: a maps to eps(a) 1."""
    return outer(algebra.unit, algebra.counit)


@computed_once
def is_anti_multiplicative(algebra, s: Matrix) -> bool:
    """S(e_i e_j) = S(e_j) S(e_i) on basis pairs; kept per (instance, S).

    The rows of S^t are the images S(e_i), so both sides are compared over
    every pair at once: the table times S^t against the reversed products
    of the rows of S^t."""
    st = s.transpose()
    return algebra._table * st == algebra.reversed_products(st, st)


def is_anti_comultiplicative(algebra, s: Matrix) -> bool:
    """Delta(S e_k) = S((e_k)_(2)) (x) S((e_k)_(1)) for every k at once,
    both sides summed as ints on the integer coproduct, with S cleared of
    denominators once (d): the leg sums (_integer_leg_sums) of the blocks
    d^2 S(e_v) (x) S(e_u), flattened, against d times the sums over j of
    d S[j][k] Delta(e_j), so that both carry the factor D_c d^2."""
    n = algebra.dim
    comult = algebra._integer_tables.comult
    images, d = _cleared_rows(s.transpose().sparse_rows)

    def flats(u, vs):
        return [[(a * n + b, y * z) for a, y in images[v] for b, z in images[u]] for v in vs]

    for acc, image in zip(_integer_leg_sums(algebra, flats), images):
        rhs = {}
        for j, y in image:
            y *= d
            for u, v, c in comult[j]:
                key = u * n + v
                rhs[key] = rhs.get(key, 0) + y * c
        if {k: x for k, x in acc.items() if x} != {k: x for k, x in rhs.items() if x}:
            return False
    return True


@computed_once
def _kept_convolution(algebra, s: Matrix, t: Matrix) -> Matrix:
    """convolve(algebra, s, t), kept per (instance, s, t).

    The suites ask for id * S and S * id of one S, and for the adjoint maps
    of a structure, again and again; each is computed once.
    """
    return convolve(algebra, s, t)


def _pre_antipode_holds(algebra, s: Matrix) -> bool:
    ident = Matrix.identity(algebra.dim)
    return (
        _kept_convolution(algebra, ident, s) == algebra.projection("L", "R")
        and _kept_convolution(algebra, s, ident) == algebra.projection("R", "L")
    )


@computed_once
def _antipode_law_holds(algebra, s: Matrix) -> bool:
    ident = Matrix.identity(algebra.dim)
    return convolve(algebra, _kept_convolution(algebra, s, ident), s) == s


@computed_once
def is_pre_pode(algebra, sbar: Matrix) -> bool:
    """Reversed-side quasi-inverse conditions on a candidate pode map: its
    convolutions over the opposite coproduct are the equal-index projections.
    Kept per (instance, map); is_pode reuses the kept sbar *cop id."""
    cop = algebra.coopposite
    ident = Matrix.identity(algebra.dim)
    return (
        convolve(cop, ident, sbar) == algebra.projection("R", "R")
        and _kept_convolution(cop, sbar, ident) == algebra.projection("L", "L")
    )


def is_pode(algebra, sbar: Matrix) -> bool:
    """A pre-pode with sbar(a_(3)) a_(2) sbar(a_(1)) = sbar(a).

    Summed per outer coproduct leg of a, the left side is the coopposite
    convolution (sbar *cop id) *cop sbar, so the identity is compared as
    whole operators."""
    if not is_pre_pode(algebra, sbar):
        return False
    cop = algebra.coopposite
    ident = Matrix.identity(algebra.dim)
    return convolve(cop, _kept_convolution(cop, sbar, ident), sbar) == sbar


def sqcap_maps(algebra, s: Matrix):
    """The one-sided adjoint contractions a_(1) S(a_(2)) and S(a_(1)) a_(2)."""
    ident = Matrix.identity(algebra.dim)
    return _kept_convolution(algebra, ident, s), _kept_convolution(algebra, s, ident)


@computed_once
def is_normal_prerigidity_map(algebra, s: Matrix) -> bool:
    """Anti-multiplicative S whose adjoint contractions absorb the mixed
    projections and fix the unit (the normalized-structure criterion); kept
    per (instance, S)."""
    if not decide_axioms(algebra).monoidal or not is_anti_multiplicative(algebra, s):
        return False
    cap_l, cap_r = sqcap_maps(algebra, s)
    return (
        cap_l * algebra.projection("L", "R") == cap_l
        and cap_r * algebra.projection("R", "L") == cap_r
        and cap_l.apply(algebra.unit) == algebra.unit
        and cap_r.apply(algebra.unit) == algebra.unit
    )


@dataclass
class AntipodeStatus:
    kind: str  # none | pre_antipode_only | antipode | hopf_antipode
    matrix: Matrix | None
    anti_multiplicative: bool = False
    anti_comultiplicative: bool = False
    bijective: bool = False
    pode_inverse: bool = False
    normal_rigidity: bool = False

    @property
    def exists(self) -> bool:
        return self.kind in ("antipode", "hopf_antipode")


def _antipode_rows(algebra):
    """Linear system in the matrix entries of S expressing both quasi-inverse
    conditions against the mixed counit projections, as int rows.

    The unknown S[p][j] has column p * n + j and the right-hand side column
    n^2.  Each row is summed over the integer tables, so it is the system's
    row times D_m D_c, and is then scaled by the lcm of the two projections'
    denominators, so that its right-hand side is an int too.  Returns the
    rows, as {column: nonzero int} dicts in system order (empty rows
    included), and their common scale."""
    n = algebra.dim
    nn = n * n
    lr_cols = algebra.projection("L", "R").transpose().sparse_rows
    rl_cols = algebra.projection("R", "L").transpose().sparse_rows
    tables = algebra._integer_tables
    # left[i] lists the nonzero (p, u, w): w is the e_u-coefficient of
    # e_i e_p; right[j] those of e_p e_j
    left = [[] for _ in range(n)]
    right = [[] for _ in range(n)]
    for i, row in enumerate(tables.mult):
        for p, ip in enumerate(row):
            for u, w in ip:
                left[i].append((p, u, w))
                right[p].append((i, u, w))
    d = tables.d_mult * tables.d_comult
    r = _denominator_lcm(x for cols in (lr_cols, rl_cols) for col in cols for _, x in col)
    rows = []
    for k, nz in enumerate(tables.comult):
        # e_i S(e_j) over Delta(e_k), then S(e_i) e_j
        first = [{} for _ in range(n)]
        second = [{} for _ in range(n)]
        for i, j, c in nz:
            for p, u, w in left[i]:
                line = first[u]
                col = p * n + j
                line[col] = line.get(col, 0) + c * w
            for p, u, w in right[j]:
                line = second[u]
                col = p * n + i
                line[col] = line.get(col, 0) + c * w
        # entry u of column k of a projection is the right-hand side of row u
        for lines, rhs in ((first, lr_cols[k]), (second, rl_cols[k])):
            scaled = [{col: x * r for col, x in line.items() if x} for line in lines]
            for u, x in rhs:
                scaled[u][nn] = _cleared(x, r) * d
            rows += scaled
    return rows, d * r


def _antipode_system(algebra):
    """The system of _antipode_rows in Fraction form, a Matrix and its
    right-hand side: each int row divided by the common scale.  The solvers
    eliminate the int rows themselves."""
    nn = algebra.dim**2
    rows, scale = _antipode_rows(algebra)
    system = Matrix._of_rows(
        tuple(_storage_row({j: x for j, x in row.items() if j != nn}, scale) for row in rows), nn
    )
    return system, tuple(_quotient(row.get(nn, 0), scale) for row in rows)


def _matrix_from_unknowns(x, n) -> Matrix:
    return Matrix([[x[i * n + j] for j in range(n)] for i in range(n)])


def solve_antipode(algebra: WeakBialgebra, certificate: Matrix | None = None) -> AntipodeStatus:
    """Solve for the antipode; absence is a status, never an error.

    The status is kept per instance, however it was first decided, so every
    later call returns it whatever certificate it passes.

    A certificate is a candidate antipode, such as a document's
    extras.antipode.  It decides the status without a solve when it is an
    n x n matrix S with id * S = Pi^{L,R}, S * id = Pi^{R,L} and
    S * id * S = S, the two checks the solve applies to its own result.
    The antipode is unique: for any S' with the same three properties,
    associativity of convolution on a valid instance gives
    S = S * id * S = S * (id * S') = (S * id) * S' = S' * id * S' = S'.
    So a certified S is the matrix the solve would return, and its status
    is the solve's, field for field.  Any other certificate is ignored.

    The solve eliminates the int rows of _antipode_rows as they are.  Any
    particular pre-antipode solution is normalized through S_p * id * S_p,
    which is independent of the solver's pivoting.
    """
    status = algebra.__dict__.get("_antipode_status")
    if status is None:
        algebra.require_valid()
        if (
            certificate is not None
            and certificate.rows == certificate.cols == algebra.dim
            and _pre_antipode_holds(algebra, certificate)
            and _antipode_law_holds(algebra, certificate)
        ):
            status = _status_for(algebra, certificate)
        else:
            status = _eliminated_antipode(algebra)
        algebra.__dict__["_antipode_status"] = status
    return status


def _eliminated_antipode(algebra) -> AntipodeStatus:
    n = algebra.dim
    particular = particular_solution_of_rows(_antipode_rows(algebra)[0], n * n)
    if particular is None:
        return AntipodeStatus(kind="none", matrix=None)
    s = normalize_pre_antipode(algebra, _matrix_from_unknowns(particular, n))
    if not _pre_antipode_holds(algebra, s) or not _antipode_law_holds(algebra, s):
        raise SelfCheckError("normalized pre-antipode failed the antipode laws")
    return _status_for(algebra, s)


def normalize_pre_antipode(algebra, s_p: Matrix) -> Matrix:
    # S_p * id is kept: S_p is usually the antipode itself
    ident = Matrix.identity(algebra.dim)
    return convolve(algebra, _kept_convolution(algebra, s_p, ident), s_p)


def _status_for(algebra, s: Matrix) -> AntipodeStatus:
    n = algebra.dim
    anti_mult = is_anti_multiplicative(algebra, s)
    anti_comult = is_anti_comultiplicative(algebra, s)
    bij = rank(s) == n
    pode = False
    if bij:
        sinv = inverse(s)
        pode = is_pode(algebra, sinv)
    cap_l, cap_r = sqcap_maps(algebra, s)
    hopf = cap_r == convolution_unit(algebra) and cap_l == convolution_unit(algebra)
    normal = is_normal_prerigidity_map(algebra, s)
    return AntipodeStatus(
        kind="hopf_antipode" if hopf else "antipode",
        matrix=s,
        anti_multiplicative=anti_mult,
        anti_comultiplicative=anti_comult,
        bijective=bij,
        pode_inverse=pode,
        normal_rigidity=normal,
    )


def antipode_solution_space(algebra):
    """Particular solution and homogeneous kernel of the pre-antipode system."""
    return solve_affine_of_rows(_antipode_rows(algebra)[0], algebra.dim**2)


# ----------------------------------------------------------------------
# restricted counit maps between the two wedge subalgebras
# ----------------------------------------------------------------------


@dataclass
class SigmaMaps:
    to_right: Matrix  # acts as the wedge flip on A_L
    to_left: Matrix  # acts as the wedge flip on A_R
    back_right: Matrix  # the candidate inverse of to_left, defined on A_L
    back_left: Matrix  # the candidate inverse of to_right, defined on A_R
    anti_morphisms: bool | None = None
    anti_isomorphisms: bool | None = None


@computed_once
def sigma_maps(algebra: WeakBialgebra) -> SigmaMaps:
    """The four restricted counit compositions swapping the wedge algebras.

    On comonoidal instances the flips are algebra anti-morphisms between the
    wedges; bijectivity (with the barred maps as inverses) needs the counit
    pairing restricted to each wedge to be nondegenerate, which bimonoidality
    guarantees but plain comonoidality does not.  Both verdicts are recorded.
    """
    algebra.require_valid()
    s_l = algebra.projection("R", "L")
    s_r = algebra.projection("L", "R")
    sbar_l = algebra.projection("R", "R")
    sbar_r = algebra.projection("L", "L")
    report = decide_axioms(algebra)
    morph = None
    iso = None
    if report.comonoidal:
        sub = algebra.subspaces
        a_l, a_r = sub["A_L"], sub["A_R"]
        morph = True
        # the flip of each wedge basis vector, once, and the span of them
        flipped = []
        for space, fwd, other in ((a_l, s_l, a_r), (a_r, s_r, a_l)):
            basis = space.basis
            fwd_t = fwd.transpose()
            images = basis * fwd_t
            img = row_space(images)
            flipped.append(img)
            if not other.contains_subspace(img):
                morph = False
            # fwd(a b) against fwd(b) fwd(a) over every basis pair at once
            if algebra.products(basis, basis) * fwd_t != algebra.reversed_products(images, images):
                morph = False
        iso = morph
        for img, space, other in zip(flipped, (a_l, a_r), (a_r, a_l)):
            if img != other or space.dim != other.dim:
                iso = False
        # G(F(v)) = v over the basis rows B of each wedge at once: B F^t G^t = B
        for basis, first, then in (
            (a_l.basis, sbar_l, s_r),
            (a_l.basis, s_l, sbar_r),
            (a_r.basis, s_r, sbar_l),
            (a_r.basis, sbar_r, s_l),
        ):
            if basis * first.transpose() * then.transpose() != basis:
                iso = False
    return SigmaMaps(
        to_right=s_l,
        to_left=s_r,
        back_right=sbar_l,
        back_left=sbar_r,
        anti_morphisms=morph,
        anti_isomorphisms=iso,
    )


# ----------------------------------------------------------------------
# nondegenerate functionals: quasi-basis, index, modular automorphism
# ----------------------------------------------------------------------


@dataclass
class NondegenerateFunctional:
    space: Subspace
    omega: tuple
    gram: Matrix
    quasi_tensor: Matrix  # ambient tensor-square coefficients
    index: tuple  # ambient element
    modular: Matrix  # in the coordinates of space.basis
    modular_is_automorphism: bool = True


def quasi_basis(algebra: WeakBialgebra, omega, space: Subspace):
    """Form-inverse data of a functional restricted to a unital subalgebra.

    Returns None when the restricted pairing (m1, m2) -> omega(m1 m2) is
    degenerate.  Otherwise the dual tensor, its index and the modular
    automorphism are computed and their defining identities verified.
    """
    if not algebra.is_unital_subalgebra(space):
        raise ValueError("quasi-basis support must be a unital subalgebra")
    omega = tuple(omega)
    basis_m = space.basis
    k = basis_m.rows
    # products of basis pairs, once each (row j * k + l is b_j b_l, shared
    # with the subalgebra test); omega of one is a Gram entry
    prod_m = algebra.basis_products(space)
    omegas = prod_m.apply(omega)
    gram = Matrix._of_fractions([omegas[i * k : (i + 1) * k] for i in range(k)], k)
    ginv = inverse(gram)
    if ginv is None:
        return None
    n = algebra.dim
    # the dual tensor sums ginv[j, l] b_j (x) b_l, which is B^t ginv B, and
    # its index ginv[j, l] b_j b_l
    quasi = basis_m.transpose() * ginv * basis_m
    index_m = Matrix._of_rows((_flat(ginv),), k * k) * prod_m
    index = index_m.row(0)
    # the reproduction identities over every basis row at once: row i of
    # gram ginv B and of (ginv gram)^t B sum ginv[j, l] gram[i, j] b_l and
    # ginv[j, l] gram[l, i] b_j
    if gram * ginv * basis_m != basis_m or (ginv * gram).transpose() * basis_m != basis_m:
        raise SelfCheckError("quasi-basis reproduction identities failed")
    # centrality of the tensor, L_m Q = (m (x) 1) Q against Q R_m^t, over the
    # basis rows m spread over the stacked L_t (R_t)
    st = algebra._stacks
    spread = _spread(basis_m, n)
    if spread * st["L"] * quasi != _block_transposed(spread * st["R"] * quasi.transpose(), n):
        raise SelfCheckError("quasi-basis centrality identity failed")
    if algebra.products(index_m, basis_m) != algebra.products(basis_m, index_m):
        raise SelfCheckError("index is not central in its subalgebra")
    modular = ginv * gram.transpose()
    # theta_i = sum_j modular[j, i] basis[j], as the rows of modular^t B
    theta_m = modular.transpose() * basis_m
    theta_prods = algebra.products(theta_m, theta_m)
    # theta(b_i b_j) against theta_i theta_j, in coordinates, over every pair
    coordinates = space.row_coordinates
    auto = coordinates(prod_m) * modular.transpose() == coordinates(theta_prods)
    # omega(x y) = omega(y theta(x)) on basis pairs
    if algebra.reversed_products(theta_m, basis_m).apply(omega) != omegas:
        raise SelfCheckError("modular automorphism identity failed")
    return NondegenerateFunctional(
        space=space,
        omega=omega,
        gram=gram,
        quasi_tensor=quasi,
        index=index,
        modular=modular,
        modular_is_automorphism=auto,
    )


# ----------------------------------------------------------------------
# separability of the wedge subalgebras
# ----------------------------------------------------------------------


@dataclass
class SeparabilityReport:
    applicable: bool
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return self.applicable and all(c.conclusion_holds for c in self.checks)


def separability_suite(algebra: WeakBialgebra) -> SeparabilityReport:
    """On bimonoidal instances the wedge subalgebras are separable: the
    restricted counit is nondegenerate with index one, explicit quasi-bases
    from the unit coproduct, and modular automorphisms given by the composed
    wedge flips."""
    report = decide_axioms(algebra)
    if not report.bimonoidal:
        return SeparabilityReport(applicable=False)
    checks = []
    sub = algebra.subspaces
    d1 = algebra.delta1
    n = algebra.dim
    smaps = sigma_maps(algebra)
    for sigma in "LR":
        space = sub["A_%s" % sigma]
        qb = quasi_basis(algebra, algebra.counit, space)
        checks.append(
            TheoremCheck("counit-nondegenerate-on-A_%s" % sigma, True, qb is not None)
        )
        if qb is None:
            continue
        checks.append(
            TheoremCheck("index-one-on-A_%s" % sigma, True, qb.index == algebra.unit)
        )
        # the unit coproduct with a wedge flip on its first leg (A_L) or on
        # its second leg (A_R)
        left = smaps.to_left if sigma == "L" else Matrix.identity(n)
        right = Matrix.identity(n) if sigma == "L" else smaps.to_right
        formula = left * d1 * right.transpose()
        checks.append(
            TheoremCheck(
                "quasi-basis-formula-on-A_%s" % sigma, True, formula == qb.quasi_tensor
            )
        )
        if sigma == "L":
            composite = smaps.to_left * smaps.to_right
        else:
            composite = smaps.back_right * smaps.back_left
        # composite(b_i) against sum_j modular[j, i] b_j over the basis rows B
        agree = space.basis * composite.transpose() == qb.modular.transpose() * space.basis
        checks.append(TheoremCheck("modular-automorphism-on-A_%s" % sigma, True, agree))
        # separating idempotent in the enveloping product: the sum of
        # ginv[j, l] ginv[j', l'] (b_j b_j') (x) (b_l' b_l) over the basis
        # products quasi_basis formed, rows j * k + j' and l * k + l'
        ginv = inverse(qb.gram)
        firsts = algebra.basis_products(space).transpose()
        ee = firsts * kron(ginv, ginv) * algebra.reversed_products(space.basis, space.basis)
        idem = ee == qb.quasi_tensor
        checks.append(TheoremCheck("separating-idempotent-on-A_%s" % sigma, True, idem))
    return SeparabilityReport(applicable=True, checks=checks)


# ----------------------------------------------------------------------
# full weak Hopf classification
# ----------------------------------------------------------------------


@dataclass
class WeakHopfReport:
    axioms: object
    antipode: AntipodeStatus
    is_weak_hopf: bool
    is_ordinary_hopf: bool
    checks: list = field(default_factory=list)

    def failures(self):
        return [c for c in self.checks if c.failed]


def classify_weak_hopf(algebra: WeakBialgebra) -> WeakHopfReport:
    """Combine the axiom deciders with the antipode solver and verify the
    equivalence chain tying bimonoidality to the antipode properties."""
    algebra.require_valid()
    report = decide_axioms(algebra)
    status = solve_antipode(algebra)
    checks = []
    is_whopf = report.bimonoidal and status.exists
    if status.exists:
        s = status.matrix
        anti_bialgebra = status.anti_multiplicative and status.anti_comultiplicative
        chain = [
            is_whopf,
            report.bimonoidal,
            report.right_monoidal and report.right_comonoidal,
            algebra.commutator_vanishes(
                algebra.subspaces["A_L"], algebra.subspaces["A_R"]
            ),
            algebra.dual.commutator_vanishes(
                algebra.dual.subspaces["A_L"], algebra.dual.subspaces["A_R"]
            ),
        ]
        checks.append(
            TheoremCheck(
                "weak-hopf-equivalence-chain",
                anti_bialgebra,
                len(set(chain)) == 1,
                str(chain),
            )
        )
    if is_whopf:
        s = status.matrix
        checks.append(
            TheoremCheck(
                "antipode-is-bialgebra-anti-automorphism",
                True,
                status.anti_multiplicative
                and status.anti_comultiplicative
                and status.bijective,
            )
        )
        checks.append(TheoremCheck("inverse-is-pode", True, status.pode_inverse))
        sub = algebra.subspaces
        smaps = sigma_maps(algebra)
        s_t = s.transpose()
        restrict_ok = all(
            space.basis * s_t == space.basis * flip.transpose()
            for space, flip in ((sub["A_L"], smaps.to_right), (sub["A_R"], smaps.to_left))
        )
        checks.append(TheoremCheck("antipode-restricts-to-wedge-flips", True, restrict_ok))
    ordinary = False
    if is_whopf:
        eps_mult = algebra.gram == outer(algebra.counit, algebra.counit)
        unit_coprod = algebra.delta1 == outer(algebra.unit, algebra.unit)
        hopf_antipode = status.kind == "hopf_antipode"
        agree = eps_mult == unit_coprod == hopf_antipode
        checks.append(
            TheoremCheck(
                "ordinary-hopf-equivalences",
                True,
                agree,
                "eps-mult=%s unit-coproduct=%s hopf-antipode=%s"
                % (eps_mult, unit_coprod, hopf_antipode),
            )
        )
        ordinary = hopf_antipode and agree
    bad = [c for c in checks if c.failed]
    if bad:
        raise SelfCheckError("weak Hopf classification check failed: %s" % bad[0].name)
    return WeakHopfReport(
        axioms=report,
        antipode=status,
        is_weak_hopf=is_whopf,
        is_ordinary_hopf=ordinary,
        checks=checks,
    )


# ----------------------------------------------------------------------
# invariant-functional criterion for weak Hopf structure
# ----------------------------------------------------------------------


@dataclass
class FunctionalCriterionVerdict:
    preconditions_ok: bool
    exchange_identity_holds: bool
    weak_hopf_confirmed: bool
    left_element: tuple | None = None
    right_element: tuple | None = None
    witness: tuple | None = None
    detail: str = ""


def invariant_functional_check(algebra, s: Matrix, lam) -> FunctionalCriterionVerdict:
    """Decide whether a bialgebra anti-automorphism together with a
    nondegenerate functional satisfying the exchange identity
    a_(1) lam(b a_(2)) = S(b_(1)) lam(b_(2) a) forces a weak Hopf structure.

    The identity is compared over every basis pair (a, b) at once, as two
    stacked n^2 x n matrices whose row a * n + b holds each side for that
    pair; the witness is the pair of the first row where they differ, so
    the lexicographically first failing (a, b).  When the identity holds
    the solver must reproduce S exactly; any discrepancy is raised as a
    self-check failure.
    """
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
    # with G the pairing of lam: row a * n + b of the left side is
    # D_a G^t at column b, and of the right side S D_b G at column a
    st = algebra._stacks
    lhs = _block_transposed(st["D"] * gram_lam.transpose(), n)
    rhs = _pairs_swapped(_block_transposed(st["D"] * gram_lam, n) * s.transpose(), n)
    first = _first_matrix_witness(lhs, rhs)
    if first is not None:
        return FunctionalCriterionVerdict(
            preconditions_ok=True,
            exchange_identity_holds=False,
            weak_hopf_confirmed=False,
            witness=divmod(first[0], n),
        )
    wh = classify_weak_hopf(algebra)
    if not wh.is_weak_hopf or wh.antipode.matrix != s:
        raise SelfCheckError(
            "exchange identity held but the solved antipode disagrees"
        )
    counit = algebra.counit
    l_sol = _unique_or_fail(gram_lam, counit, "left integral candidate")
    r_sol = _unique_or_fail(gram_lam.transpose(), counit, "right integral candidate")
    return FunctionalCriterionVerdict(
        preconditions_ok=True,
        exchange_identity_holds=True,
        weak_hopf_confirmed=True,
        left_element=l_sol,
        right_element=r_sol,
    )


def _unique_or_fail(m, rhs, what):
    res = solve_affine(m, rhs)
    if res is None or res[1].dim != 0:
        raise SelfCheckError("%s is not uniquely solvable" % what)
    return res[0]


# ----------------------------------------------------------------------
# theorem suite around antipodes
# ----------------------------------------------------------------------


def _wedge_counit_exchange(algebra, smaps: SigmaMaps) -> bool:
    """eps(a b) = eps(F(a) b) = eps(a F'(b)) for a, b in a wedge: on A_L
    with F = to_right and F' = back_right, on A_R with F = back_left and
    F' = to_left.

    Over the wedge basis B (rows), with G the Gram matrix of the counit
    pairing, the three sides are B G B^t, (B F^t) G B^t and B G (B F'^t)^t."""
    g = algebra.gram
    ok = True
    for space, first, second in (
        (algebra.subspaces["A_L"], smaps.to_right, smaps.back_right),
        (algebra.subspaces["A_R"], smaps.back_left, smaps.to_left),
    ):
        basis = space.basis
        g_bt = g * basis.transpose()
        e0 = basis * g_bt
        if e0 != basis * first.transpose() * g_bt:
            ok = False
        if e0 != basis * g * (basis * second.transpose()).transpose():
            ok = False
    return ok


def _one_sided_coproduct_absorption(algebra, s: Matrix) -> bool:
    """S(a_(1)) a_(2) (x) a_(3) = 1_(1) (x) a 1_(2) and
    a_(1) (x) a_(2) S(a_(3)) = 1_(1) a (x) 1_(2) on every basis element.

    By coassociativity, which validation checks, the first left side is
    ((S * id) (x) id) Delta(a) and the second (id (x) (id * S)) Delta(a), so
    per e_k the comparisons are (S * id) D_k against Delta(1) L_k^t and
    D_k (id * S)^t against R_k Delta(1), D_k the coproduct of e_k, each over
    the stacked families at once (the first transposed)."""
    ident = Matrix.identity(algebra.dim)
    s_id_t = _kept_convolution(algebra, s, ident).transpose()
    id_s_t = _kept_convolution(algebra, ident, s).transpose()
    d1 = algebra.delta1
    st = algebra._stacks
    return st["Dt"] * s_id_t == st["L"] * d1.transpose() and st["D"] * id_s_t == st["R"] * d1


def antipode_theorem_suite(algebra: WeakBialgebra):
    """Implication lattice and corollaries for instances with an antipode,
    plus the wedge-flip and separability facts that need no antipode."""
    report = decide_axioms(algebra)
    checks = []
    sub = algebra.subspaces
    dual = algebra.dual

    # counit exchange on wedge elements (monoidal or comonoidal)
    if report.monoidal or report.comonoidal:
        ok = _wedge_counit_exchange(algebra, sigma_maps(algebra))
        checks.append(TheoremCheck("wedge-counit-exchange", True, ok))

    if report.comonoidal:
        smaps = sigma_maps(algebra)
        checks.append(
            TheoremCheck(
                "wedge-flip-anti-morphisms", True, bool(smaps.anti_morphisms)
            )
        )
        checks.append(
            TheoremCheck(
                "wedge-flip-anti-isomorphisms",
                report.bimonoidal,
                bool(smaps.anti_isomorphisms),
            )
        )

    sep = separability_suite(algebra)
    if sep.applicable:
        checks.extend(sep.checks)

    status = solve_antipode(algebra)
    if status.kind == "none":
        return checks, status

    s = status.matrix
    ident = Matrix.identity(algebra.dim)

    # quasi-inverse sanity: id * S * id = id
    checks.append(
        TheoremCheck(
            "identity-quasi-inverse",
            True,
            convolve(algebra, _kept_convolution(algebra, ident, s), ident) == ident,
        )
    )

    a1 = status.anti_multiplicative
    b1 = report.right_monoidal
    c1 = algebra.commutator_vanishes(sub["A_LR"], sub["A_RL"])
    d1 = _antipode_law_holds(algebra, s)
    checks.append(TheoremCheck("mult-lattice-i", a1 and b1, c1 and d1))
    checks.append(TheoremCheck("mult-lattice-ii", a1 and c1, b1 and d1))
    checks.append(TheoremCheck("mult-lattice-iii", b1 and c1 and d1, a1))

    dsub = dual.subspaces
    a2 = status.anti_comultiplicative
    b2 = report.right_comonoidal
    c2 = dual.commutator_vanishes(dsub["A_LR"], dsub["A_RL"])
    checks.append(TheoremCheck("comult-lattice-i", a2 and b2, c2 and d1))
    checks.append(TheoremCheck("comult-lattice-ii", a2 and c2, b2 and d1))
    checks.append(TheoremCheck("comult-lattice-iii", b2 and c2 and d1, a2))

    # monoidal + antipode: commuting mixed images match the projection split
    if report.monoidal:
        eq = sub["A_LL"] == sub["A_LR"] and sub["A_RR"] == sub["A_RL"]
        checks.append(TheoremCheck("mixed-image-commutation", True, c1 == eq))
        if c1:
            checks.append(
                TheoremCheck(
                    "antipode-normal-rigidity",
                    True,
                    is_normal_prerigidity_map(algebra, s),
                )
            )

    # bijectivity from one-sided anti-morphism property
    if (report.monoidal and a1) or (report.comonoidal and a2):
        checks.append(TheoremCheck("antipode-bijective", True, status.bijective))

    # counit invariance under the antipode
    if report.counit_factor_right:
        eps_l = algebra.eps_maps["eps_l"]
        eps_r = algebra.eps_maps["eps_r"]
        checks.append(
            TheoremCheck(
                "counit-invariance",
                True,
                s.transpose().apply(algebra.counit) == algebra.counit
                and eps_l * s == eps_l * algebra.projection("L", "R")
                and eps_r * s == eps_r * algebra.projection("R", "L"),
            )
        )

    # pre-pode flip for invertible anti-automorphisms
    flip = a1 and report.monoidal
    flip_dual = a2 and report.comonoidal
    if status.bijective and (flip or flip_dual):
        sinv = inverse(s)
        if flip:
            checks.append(TheoremCheck("pre-pode-flip", True, is_pre_pode(algebra, sinv)))
        if flip_dual:
            checks.append(TheoremCheck("pre-pode-flip-dual", True, is_pre_pode(algebra, sinv)))

    # one-sided coproduct absorption equivalent to right-comonoidality
    absorb = _one_sided_coproduct_absorption(algebra, s)
    checks.append(
        TheoremCheck("one-sided-coproduct-absorption", True, absorb == report.right_comonoidal)
    )

    # bimonoidal/anti-morphism equivalences
    i_hold = report.comonoidal and a1
    ii_hold = report.monoidal and a2
    iii_hold = report.bimonoidal and d1
    checks.append(
        TheoremCheck(
            "antipode-bimonoidal-equivalences",
            True,
            i_hold == ii_hold == iii_hold,
            "%s %s %s" % (i_hold, ii_hold, iii_hold),
        )
    )

    return checks, status
