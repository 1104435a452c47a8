"""Rigidity structures on monoidal weak bialgebras.

A rigidity structure is a triple (S, alpha, beta) with S an algebra
anti-morphism and alpha, beta elements satisfying two adjoint-invariance
conditions and two unit normalization identities.  Such a triple makes the
finite-dimensional representation category rigid.  Structures are unique up
to twisting by a quasi-invertible pair (u, ubar), and normal structures
(alpha = beta = 1) recover antipodes on bimonoidal instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .antipode import (
    SelfCheckError,
    _kept_convolution,
    convolve,
    convolve_tensors,
    is_anti_comultiplicative,
    is_anti_multiplicative,
    is_normal_prerigidity_map,
)
from .core import (
    WeakBialgebra,
    _block_transposed,
    _first_matrix_witness,
    _leg_words,
    _pairs_swapped,
    _stacked,
    _vstack,
    computed_once,
    decide_axioms,
)
from .exactlin import (
    Matrix,
    Subspace,
    image,
    inverse,
    kron,
    nonzeros,
    rank,
    right_inverse,
    vector_combination,
)
from .repcat import _kron_sum


@dataclass
class RigidityStructure:
    algebra: WeakBialgebra
    s: Matrix
    alpha: tuple
    beta: tuple
    status: str = "unverified"


@dataclass
class TwistPair:
    u: tuple
    ubar: tuple


@dataclass
class RigidityVerification:
    status: str  # failed | pre_rigid | rigid | normalizable | normal
    preconditions_ok: bool
    input_normalized: bool
    normalized_alpha: tuple | None = None
    normalized_beta: tuple | None = None
    witnesses: list = field(default_factory=list)


def _adjoint_maps(algebra, s, alpha, beta):
    """The adjoint maps a -> S(a_(1)) alpha a_(2) and a -> a_(1) beta S(a_(2)),
    as the convolutions (R_alpha S) * id and R_beta * S.  With alpha = beta
    = 1 these are S * id and id * S, shared with sqcap_maps."""
    ident = Matrix.identity(algebra.dim)
    return (
        _kept_convolution(algebra, algebra.right_mult_of(alpha) * s, ident),
        _kept_convolution(algebra, algebra.right_mult_of(beta), s),
    )


def normalize_pair(algebra, s, alpha, beta):
    """Replace (alpha, beta) by their unit-adjoint normalizations."""
    adj_a, adj_b = _adjoint_maps(algebra, s, tuple(alpha), tuple(beta))
    return adj_a.apply(algebra.unit), adj_b.apply(algebra.unit)


def _unit_word_maps(algebra, s, alpha, beta):
    """The maps x -> x_(1) beta S(x_(2)) alpha x_(3) and
    x -> S(x_(1)) alpha x_(2) beta S(x_(3)).

    Over (id (x) Delta) Delta(x) the last two legs of each word make a
    column of an adjoint map, so the words are x_(1) beta A(x_(2)) and
    S(x_(1)) alpha B(x_(2)), with A and B the adjoint maps of (S, alpha,
    beta): the convolutions R_beta * A and R_alpha S * B.
    """
    adj_a, adj_b = _adjoint_maps(algebra, s, alpha, beta)
    return (
        convolve(algebra, algebra.right_mult_of(beta), adj_a),
        convolve(algebra, algebra.right_mult_of(alpha) * s, adj_b),
    )


def _unit_words(algebra, s, alpha, beta, x):
    """The two unit words of _unit_word_maps at x, summed over the legs
    (u, v) of Delta(x) alone: x_(1) beta A(x_(2)) as e_u beta A(e_v), and
    S(x_(1)) alpha B(x_(2)) as S(e_u) alpha B(e_v)."""
    adj_a, adj_b = _adjoint_maps(algebra, s, alpha, beta)
    legs = nonzeros(algebra.delta(x))
    words = ((algebra.right_mult_of(beta), adj_a), (algebra.right_mult_of(alpha) * s, adj_b))
    return tuple(
        vector_combination(
            ((c, algebra.mul(left.col(u), adj.col(v))) for u, v, c in legs), algebra.dim
        )
        for left, adj in words
    )


def verify_rigidity(algebra: WeakBialgebra, r: RigidityStructure) -> RigidityVerification:
    """Check the rigidity axioms; alpha and beta are normalized internally,
    so any representative pair generating the same structure verifies.

    The verdict is kept per (instance, S, alpha, beta), never per structure
    object, which callers may change; each call returns its own copy.
    """
    kept = _verification(algebra, r.s, tuple(r.alpha), tuple(r.beta))
    return replace(kept, witnesses=list(kept.witnesses))


@computed_once
def _verification(algebra, s, alpha, beta) -> RigidityVerification:
    algebra.require_valid()
    witnesses = []
    report = decide_axioms(algebra)
    pre_ok = True
    if not report.monoidal:
        witnesses.append(("not-monoidal", None))
        pre_ok = False
    if not is_anti_multiplicative(algebra, s):
        witnesses.append(("not-anti-multiplicative", None))
        pre_ok = False
    if not pre_ok:
        return RigidityVerification("failed", False, False, witnesses=witnesses)
    a_n, b_n = normalize_pair(algebra, s, alpha, beta)
    input_normalized = a_n == alpha and b_n == beta

    adj_a, adj_b = _adjoint_maps(algebra, s, a_n, b_n)
    p_rl = algebra.projection("R", "L")
    p_lr = algebra.projection("L", "R")
    d1 = algebra.delta1
    n = algebra.dim
    if adj_a != adj_a * p_rl:
        witnesses.append(("alpha-adjoint-invariance", None))
    if adj_b != adj_b * p_lr:
        witnesses.append(("beta-adjoint-invariance", None))
    # the reconstructed dual tensors S(1_(1)) alpha 1_(2) (x) 1_(3) = A Delta(1)
    # and 1_(1) (x) 1_(2) beta S(1_(3)) = Delta(1) B^t (coassociativity)
    amat = adj_a * d1
    bmat = d1 * adj_b.transpose()
    ident = Matrix.identity(n)
    s_t = s.transpose()
    st = algebra._stacks
    # each family over t is one stack, rows t * n + j, whose first differing
    # block is the witness; row (t, j) of the stacked P_LR L_t (P_RL R_t)
    # reads p_j(e_t e_k) (p_j(e_k e_t)) over k
    lr_left = _block_transposed(st["Lt"] * p_lr.transpose(), n) * amat.transpose()
    rl_right = _block_transposed(st["Rt"] * p_rl.transpose(), n) * bmat
    # (A R_t Delta(1))^t has row (t, j) A(c_j e_t) over the columns c_j of
    # Delta(1), and Delta(1) L_t^t B^t row (t, j) B(e_t r_j) over its rows
    by_cols = algebra.reversed_products(ident, d1.transpose())
    by_rows = algebra.products(ident, d1)
    for name, lhs, rhs in (
        ("alpha-tensor-invariance", by_cols * adj_a.transpose(), lr_left),
        ("beta-tensor-invariance", by_rows * adj_b.transpose(), rl_right),
        # S(e_t_(1)) . e_t_(2) acting on the first tensor, transposed, and
        # e_t_(1) . S(e_t_(2)) acting on the second
        ("first-tensor-morphism", _leg_words(algebra, amat.transpose(), firsts=s_t), lr_left),
        ("second-tensor-morphism", _leg_words(algebra, bmat, seconds=s_t), rl_right),
    ):
        witness = _first_matrix_witness(lhs, rhs)
        if witness is not None:
            witnesses.append((name, witness[0] // n))
    if witnesses:
        return RigidityVerification(
            "failed", True, input_normalized, a_n, b_n, witnesses
        )

    # the two unit identities
    first, second = _unit_words(algebra, s, a_n, b_n, algebra.unit)
    s_one = s.apply(algebra.unit)
    rigid = first == algebra.unit and second == s_one
    if not rigid:
        if first != algebra.unit:
            witnesses.append(("unit-identity", None))
        if second != s_one:
            witnesses.append(("antipode-unit-identity", None))
        return RigidityVerification(
            "pre_rigid", True, input_normalized, a_n, b_n, witnesses
        )
    normalizable = (
        algebra.mul(b_n, a_n) == algebra.unit and algebra.mul(a_n, b_n) == s_one
    )
    normal = a_n == algebra.unit and b_n == algebra.unit
    status = "normal" if normal else ("normalizable" if normalizable else "rigid")
    return RigidityVerification(status, True, input_normalized, a_n, b_n, [])


def twist(r: RigidityStructure, pair: TwistPair) -> RigidityStructure:
    """Twist a rigidity structure by a quasi-invertible pair; the swapped
    pair undoes the twist on normalized representatives."""
    algebra = r.algebra
    u = tuple(pair.u)
    ubar = tuple(pair.ubar)
    s_one = r.s.apply(algebra.unit)
    if algebra.mul(ubar, u) != s_one:
        raise ValueError("twist pair does not contract to S(1)")
    if algebra.mul(algebra.mul(u, ubar), u) != u:
        raise ValueError("twist pair fails the first quasi-inverse law")
    if algebra.mul(algebra.mul(ubar, u), ubar) != ubar:
        raise ValueError("twist pair fails the second quasi-inverse law")
    a_n, b_n = normalize_pair(algebra, r.s, r.alpha, r.beta)
    s_new = algebra.left_mult_of(u) * algebra.right_mult_of(ubar) * r.s
    alpha_new = algebra.mul(u, a_n)
    beta_new = algebra.mul(b_n, ubar)
    out = RigidityStructure(algebra, s_new, alpha_new, beta_new)
    check = verify_rigidity(algebra, out)
    if check.status in ("failed", "pre_rigid"):
        raise SelfCheckError("twisted structure failed re-verification")
    out.status = check.status
    out.alpha, out.beta = check.normalized_alpha, check.normalized_beta
    return out


def uniqueness_intertwiners(r1: RigidityStructure, r2: RigidityStructure) -> TwistPair:
    """The canonical pair intertwining two rigidity structures on the same
    algebra; every identity of the intertwining table is verified."""
    algebra = r1.algebra
    if r2.algebra != algebra:
        raise ValueError("structures live on different algebras")
    normalized = []
    for r in (r1,) if r2 is r1 else (r1, r2):
        check = verify_rigidity(algebra, r)
        if check.status in ("failed", "pre_rigid"):
            raise ValueError("intertwiners need verified rigid structures")
        normalized.append((check.normalized_alpha, check.normalized_beta))
    (a1, b1), (a2, b2) = normalized[0], normalized[-1]

    def word(first, second):
        """S(1_(1)) a 1_(2) b' S'(1_(3)) for normalized structures (S, a, b)
        and (S', a', b'), as S(1_(1)) a B'(1_(2)) with B' the adjoint map
        y -> y_(1) b' S'(y_(2)) of the second: (R_a S * B')(1)."""
        (s_f, a_f, _), (s_s, a_s, b_s) = first, second
        b_adj = _adjoint_maps(algebra, s_s, a_s, b_s)[1]
        return convolve(algebra, algebra.right_mult_of(a_f) * s_f, b_adj).apply(algebra.unit)

    one, two = (r1.s, a1, b1), (r2.s, a2, b2)
    # u = S2(1_(1)) a2 1_(2) b1 S1(1_(3)) and ubar with the structures
    # swapped, which is u itself when they are one structure
    u = word(two, one)
    ubar = u if r2 is r1 else word(one, two)
    # u S1(e_t) = S2(e_t) u and ubar S2(e_t) = S1(e_t) ubar over every t
    n = algebra.dim
    u_row = Matrix._of_fractions([u], n)
    ubar_row = Matrix._of_fractions([ubar], n)
    s1_t, s2_t = r1.s.transpose(), r2.s.transpose()
    table = [
        algebra.products(u_row, s1_t) == algebra.products(s2_t, u_row),
        algebra.products(ubar_row, s2_t) == algebra.products(s1_t, ubar_row),
    ]
    table.append(a2 == algebra.mul(u, a1))
    table.append(a1 == algebra.mul(ubar, a2))
    table.append(b2 == algebra.mul(b1, ubar))
    table.append(b1 == algebra.mul(b2, u))
    table.append(algebra.mul(u, ubar) == r2.s.apply(algebra.unit))
    table.append(algebra.mul(ubar, u) == r1.s.apply(algebra.unit))
    table.append(algebra.mul(algebra.mul(u, ubar), u) == u)
    table.append(algebra.mul(algebra.mul(ubar, u), ubar) == ubar)
    if not all(table):
        raise SelfCheckError("intertwining identity table failed")
    return TwistPair(u=u, ubar=ubar)


# ----------------------------------------------------------------------
# conjugation tensors
# ----------------------------------------------------------------------


@dataclass
class ConjugationData:
    f: Matrix
    fbar: Matrix
    checks_ok: bool


def conjugation_data(algebra: WeakBialgebra, r: RigidityStructure) -> ConjugationData:
    """The pair of tensors intertwining the coproduct of S with the flipped
    double image of the coproduct, with all exchange identities verified.

    f = S(1_(2)) alpha (x) S(1_(1)) alpha . Delta(1_(3) beta S(1_(4))) and
    fbar = Delta(S(1_(1)) alpha 1_(2)) . beta S(1_(4)) (x) beta S(1_(3)) are
    convolutions at 1, f = (H * Delta B)(1) with H = flip (R_alpha S (x)
    R_alpha S) Delta, and fbar = (Delta A * K)(1) with K = flip (L_beta S
    (x) L_beta S) Delta, for the adjoint maps A and B."""
    check = verify_rigidity(algebra, r)
    if check.status in ("failed", "pre_rigid"):
        raise ValueError("conjugation data needs a verified rigid structure")
    s = r.s
    alpha, beta = check.normalized_alpha, check.normalized_beta
    n = algebra.dim
    adj_a, adj_b = _adjoint_maps(algebra, s, alpha, beta)
    d = _stacked(algebra.comult, n).transpose()
    d_op = _pairs_swapped(d, n)
    r_alpha_s = algebra.right_mult_of(alpha) * s
    l_beta_s = algebra.left_mult_of(beta) * s
    one = algebra.unit
    f = convolve_tensors(algebra, kron(r_alpha_s, r_alpha_s) * d_op, d * adj_b, one)
    fbar = convolve_tensors(algebra, d * adj_a, kron(l_beta_s, l_beta_s) * d_op, one)

    def times(tensor, mults):
        """Multiplication by tensor on A (x) A, from the side of mults:
        the sum of c M_u (x) M_v over its nonzeros c at (u, v)."""
        return _kron_sum(((c, mults[u], mults[v]) for u, v, c in nonzeros(tensor)), n * n, n * n)

    # f Delta(S x) = (S (x) S) Delta^op(x) f and Delta(S x) fbar = fbar
    # (S (x) S) Delta^op(x) at every basis x: column x of each side
    ds, flipped = d * s, kron(s, s) * d_op
    left, right = algebra.left_mult, algebra.right_mult
    s_one = s.apply(one)
    ff = algebra.t2_mul(f, fbar)
    ok = (
        times(f, left) * ds == times(f, right) * flipped
        and times(fbar, right) * ds == times(fbar, left) * flipped
        and algebra.t2_mul(fbar, f) == algebra.delta(s_one)
        and ff == s * algebra.delta1.transpose() * s.transpose()
        and algebra.t2_mul(ff, f) == f
        and algebra.t2_mul(algebra.t2_mul(fbar, f), fbar) == fbar
        and _exchange_identities(algebra, s, alpha, beta)
        and _absorption_identities(algebra, s, alpha, beta)
    )
    return ConjugationData(f=f, fbar=fbar, checks_ok=ok)


def _exchange_identities(algebra, s, alpha, beta) -> bool:
    """Adjoint exchange laws moving a product through the adjoint brackets.

    With F1 = (id (x) A) Delta, F2 = (A (x) id) Delta, F3 = (B (x) id) Delta
    and F4 = (id (x) B) Delta: F1 L_a = (L_a (x) I) F1, F2 L_a = (I (x) L_a)
    F2, F3 R_b = (I (x) R_b) F3 and F4 R_b = (R_b (x) I) F4 over every basis
    a and b (Delta^2 is multiplicative on a valid instance).  The flip turns
    the second and third into the first and fourth for flip F2 = (id (x) A)
    Delta^op and flip F3 = (id (x) B) Delta^op.  Each family is one stacked
    comparison, transposed: block a of the stacked M_a^t against the blocks
    of the stacked M_a (x) I applied to F, each transposed.
    """
    n = algebra.dim
    ident = Matrix.identity(n)
    st = algebra._stacks
    adj_a, adj_b = _adjoint_maps(algebra, s, alpha, beta)
    d = _stacked(algebra.comult, n).transpose()
    for coproduct in (d, _pairs_swapped(d, n)):
        for adj, mults in ((adj_a, "L"), (adj_b, "R")):
            f = kron(ident, adj) * coproduct
            if st[mults + "t"] * f.transpose() != _block_transposed(
                kron(st[mults], ident) * f, n * n
            ):
                return False
    return True


def _absorption_identities(algebra, s, alpha, beta) -> bool:
    """Unit absorption: the alternating adjoint words collapse elementwise.

    The words x_(1) beta S(x_(4)) alpha x_(5) (x) x_(2) beta S(x_(3)) alpha
    x_(6) sum to P * Q with P = (id (x) B) Delta and Q = (L_beta A (x)
    L_alpha) Delta, which must be Delta; the words S(x_(2)) alpha x_(3) beta
    S(x_(6)) (x) S(x_(1)) alpha x_(4) beta S(x_(5)) sum to P2 * Q2 with P2 =
    flip (R_alpha S (x) A) Delta and Q2 = flip (B (x) L_beta S) Delta, which
    must be (S (x) S) Delta^op.
    """
    n = algebra.dim
    first, second = _unit_word_maps(algebra, s, alpha, beta)
    if first != Matrix.identity(n) or second != s:
        return False
    adj_a, adj_b = _adjoint_maps(algebra, s, alpha, beta)
    d = _stacked(algebra.comult, n).transpose()
    d_op = _pairs_swapped(d, n)
    ident = Matrix.identity(n)
    l_beta = algebra.left_mult_of(beta)
    pq = convolve_tensors(
        algebra, kron(ident, adj_b) * d, kron(l_beta * adj_a, algebra.left_mult_of(alpha)) * d
    )
    if pq != d:
        return False
    pq2 = convolve_tensors(
        algebra,
        kron(adj_a, algebra.right_mult_of(alpha) * s) * d_op,
        kron(l_beta * s, adj_b) * d_op,
    )
    return pq2 == kron(s, s) * d_op


# ----------------------------------------------------------------------
# adjoint contraction maps and their module diagrams
# ----------------------------------------------------------------------


@dataclass
class SqcapReport:
    cap_l: Matrix
    cap_r: Matrix
    image_l: Subspace
    image_r: Subspace
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return all(ok for _, ok in self.checks)


def sqcap_suite(algebra: WeakBialgebra, s: Matrix) -> SqcapReport:
    """Images and compatibility laws of the adjoint contractions of S, with
    the commuting one-sided module triangles they generate."""
    from .antipode import sqcap_maps

    report = decide_axioms(algebra)
    if not report.monoidal:
        raise ValueError("adjoint contraction suite needs a monoidal instance")
    if not is_normal_prerigidity_map(algebra, s):
        raise ValueError("map is not a normal pre-rigidity map")
    cap_l, cap_r = sqcap_maps(algebra, s)
    img_l = image(cap_l)
    img_r = image(cap_r)
    sub = algebra.subspaces
    checks = []
    checks.append(("image-splitting", img_l == sub["A_LL"] and img_r == sub["A_RR"]))
    p = {key: algebra.projection(*key) for key in (("L", "L"), ("R", "R"), ("L", "R"), ("R", "L"))}
    checks.append(
        (
            "projection-absorption",
            cap_l * p[("L", "R")] == cap_l
            and cap_l * p[("R", "R")] == cap_l
            and cap_r * p[("R", "L")] == cap_r
            and cap_r * p[("L", "L")] == cap_r,
        )
    )
    checks.append(
        (
            "projection-fixing",
            cap_l * p[("L", "L")] == p[("L", "L")]
            and cap_r * p[("R", "R")] == p[("R", "R")],
        )
    )
    checks.append(
        (
            "flip-compatibility",
            cap_l * p[("R", "L")] == s * p[("R", "L")]
            and cap_r * p[("L", "R")] == s * p[("L", "R")],
        )
    )
    eps_l = algebra.eps_maps["eps_l"]
    eps_r = algebra.eps_maps["eps_r"]
    checks.append(
        ("counit-stability", eps_r * cap_l == eps_r and eps_l * cap_r == eps_l)
    )
    dims_ok = sub["A_LL"].dim <= img_l.dim <= sub["A_RR"].dim and (
        sub["A_LL"].dim == img_l.dim == sub["A_RR"].dim
    )
    checks.append(("dimension-chain", dims_ok))
    # module-map property of the contractions on the two realizations, over
    # every basis vector x of A_LR and A_RR (A_LL and A_RL) and e_t at once,
    # rows (t, x): cap_l(P(e_t x)) against e_t_(1) cap_l(x) S(e_t_(2)), and
    # cap_r(P(x e_t)) against S(e_t_(1)) cap_r(x) e_t_(2)
    n = algebra.dim
    ident = Matrix.identity(n)
    s_t = s.transpose()
    lin_ok = True
    for cap, side, acting, leg in (
        (cap_l, "R", algebra.products, {"seconds": s_t}),
        (cap_r, "L", algebra.reversed_products, {"firsts": s_t}),
    ):
        bases = [sub["A_%s%s" % (sigma, side)].basis for sigma in "LR"]
        acted = [
            (acting(ident, b) * (cap * p[(sigma, side)]).transpose(), b.rows)
            for sigma, b in zip("LR", bases)
        ]
        rows = tuple(
            r for t in range(n) for a, m in acted for r in a.sparse_rows[t * m : (t + 1) * m]
        )
        words = _leg_words(algebra, _vstack((b * cap.transpose() for b in bases), n), **leg)
        if words.sparse_rows != rows:
            lin_ok = False
    checks.append(("module-map-property", lin_ok))
    # G(F(x)) = x over the basis rows B of each space at once: B F^t G^t = B
    inv_ok = True
    for sigma in "LR":
        for space, first, then in (
            ("A_LL", p[(sigma, "R")], cap_l),
            ("A_%sR" % sigma, cap_l, p[(sigma, "R")]),
            ("A_RR", p[(sigma, "L")], cap_r),
            ("A_%sL" % sigma, cap_r, p[(sigma, "L")]),
        ):
            rows = sub[space].basis
            if rows * first.transpose() * then.transpose() != rows:
                inv_ok = False
    checks.append(("triangle-inverses", inv_ok))
    equiv_l = (cap_l == p[("L", "R")]) == (sub["A_LL"] == sub["A_LR"])
    equiv_r = (cap_r == p[("R", "L")]) == (sub["A_RR"] == sub["A_RL"])
    checks.append(("contraction-projection-equivalences", equiv_l and equiv_r))
    return SqcapReport(cap_l, cap_r, img_l, img_r, checks)


# ----------------------------------------------------------------------
# rigidity identities on the regular module
# ----------------------------------------------------------------------


def regular_module_rigidity_identities(algebra: WeakBialgebra, r: RigidityStructure) -> bool:
    """Realize the evaluation and coevaluation morphisms on the regular
    module and check both zig-zag composites reduce to identities.

    Evaluation sends phi (x) x to phi(a' x) a'' over a' (x) a'' = S(1_(1))
    alpha 1_(2) (x) 1_(3) = (A (x) id) Delta(1), and coevaluation inserts
    b' (x) b'' = (B P_LR (x) id) Delta(1), b' acting by left multiplication.
    Multiplied out, the zig-zag on the regular module is left
    multiplication by w = P_RR(a'') b' a' b'', the identity iff w = 1; the
    one on the conjugate module, the functionals phi(S(1) .), sends phi to
    phi(v .) with v = S(1_(1)) a' B(P_LR 1_(2)) S P_LR(a''), the identity
    iff S(1) v = S(1).  Each word multiplies out the legs of one product
    (x' (x) x'')(y' (x) y'') = x' y' (x) x'' y'' of A (x) A.
    """
    check = verify_rigidity(algebra, r)
    if check.status in ("failed", "pre_rigid"):
        return False
    s = r.s
    d1 = algebra.delta1
    p_lr = algebra.projection("L", "R")
    adj_a, adj_b = _adjoint_maps(algebra, s, check.normalized_alpha, check.normalized_beta)
    ev = adj_a * d1
    coev = adj_b * p_lr
    products = (
        algebra.t2_mul(algebra.projection("R", "R") * ev.transpose(), coev * d1),
        algebra.t2_mul(s * d1 * coev.transpose(), ev * (s * p_lr).transpose()),
    )
    w, v = (_stacked(products, algebra.dim) * algebra._table).data
    s_one = s.apply(algebra.unit)
    return w == algebra.unit and algebra.mul(s_one, v) == s_one


# ----------------------------------------------------------------------
# rigidity structures on the dual of a minimal comonoidal instance
# ----------------------------------------------------------------------


def dual_rigidity_structure(b: WeakBialgebra, s_r: Matrix) -> RigidityStructure:
    """Build a rigidity structure on the dual of a minimal comonoidal
    instance from a linear bijection of its right wedge onto its left wedge,
    given in the canonical wedge bases.

    The transposed map together with the induced functionals is returned; the
    second functional is the counit itself, which normalizes onto the
    canonical representative during verification.  A cross map whose
    structure fails that verification raises ValueError, like the other
    unusable inputs.  Linearity over the shared wedge and descent are each
    one product over every basis pair, and the flip and the functional are
    read off one matrix, whose row t writes e_t in wedge products.
    """
    b.require_valid()
    report = decide_axioms(b)
    if not report.comonoidal or not report.minimal:
        raise ValueError("construction needs a minimal comonoidal instance")
    sub = b.subspaces
    a_l, a_r = sub["A_L"], sub["A_R"]
    if s_r.rows != a_l.dim or s_r.cols != a_r.dim:
        raise ValueError("cross map has wrong shape for the wedge bases")
    s_r_inv = inverse(s_r)
    if s_r_inv is None:
        raise ValueError("cross map is not bijective")
    r = a_r.dim
    # the wedge products x y, row i * r + j for the i-th basis vector of A_L
    # and the j-th of A_R, and their counits
    wedge_products = b.products(a_l.basis, a_r.basis)
    counits = wedge_products.apply(b.counit)
    gram = Matrix._of_fractions([counits[i * r : (i + 1) * r] for i in range(a_l.dim)], r)
    # pairing transpose of the inverse cross map
    gram_inv = inverse(gram)
    if gram_inv is None:
        raise ValueError("wedge pairing is degenerate")
    s_l = gram_inv * (gram * s_r_inv).transpose()
    # s_l and s_r images of the wedge bases, as rows
    s_l_rows = s_l.transpose() * a_r.basis
    s_r_rows = s_r.transpose() * a_l.basis
    z = a_l.intersect(a_r)
    # s_r(z y) against z s_r(y) over every basis pair (z, y) at once: the
    # A_R-coordinates of the products z y, as rows, times s_r's image rows
    zx = a_r.row_coordinates(b.products(z.basis, a_r.basis))
    if zx is None:
        raise ValueError("shared wedge does not act on the right wedge")
    if zx * s_r_rows != b.products(z.basis, s_r_rows):
        raise ValueError("cross map is not linear over the shared wedge")
    # decompose the ambient basis into wedge products: row t of coeffs
    # writes e_t in them, from one elimination that also gives the kernel
    solved = right_inverse(wedge_products.transpose())
    if solved is None:
        raise ValueError("instance is not spanned by wedge products")
    decomposition, relations = solved
    # the flip of each wedge product x_i y_j is s_r(y_j) s_l(x_i)
    flips = b.reversed_products(s_l_rows, s_r_rows)
    if not (relations.basis * flips).is_zero():
        raise ValueError("cross map does not descend to the instance")
    coeffs = decomposition.transpose()
    pairings = b.products(s_l_rows, a_r.basis).apply(b.counit)
    s_b = (coeffs * flips).transpose()
    alphas = coeffs.apply(pairings)
    # the flip must be anti-comultiplicative so its transpose is an algebra
    # anti-morphism on the dual
    if not is_anti_comultiplicative(b, s_b):
        raise SelfCheckError("constructed flip is not anti-comultiplicative")
    dual = b.dual
    structure = RigidityStructure(
        algebra=dual,
        s=s_b.transpose(),
        alpha=alphas,
        beta=b.counit,
    )
    check = verify_rigidity(dual, structure)
    if check.status in ("failed", "pre_rigid"):
        raise ValueError("constructed structure failed rigidity verification")
    structure.status = check.status
    return structure


# ----------------------------------------------------------------------
# bridges to the antipode axioms
# ----------------------------------------------------------------------


def pre_antipode_normal_bridge(algebra: WeakBialgebra, s: Matrix):
    """Anti-morphisms on monoidal instances: being a pre-antipode is the
    same as being a normal pre-rigidity map with matching mixed images."""
    from .antipode import _pre_antipode_holds

    report = decide_axioms(algebra)
    if not report.monoidal or not is_anti_multiplicative(algebra, s):
        return None
    sub = algebra.subspaces
    lhs = _pre_antipode_holds(algebra, s)
    rhs = (
        is_normal_prerigidity_map(algebra, s)
        and sub["A_LL"] == sub["A_LR"]
        and sub["A_RR"] == sub["A_RL"]
    )
    return lhs == rhs


def bijectivity_normalization_bridge(algebra: WeakBialgebra, r: RigidityStructure):
    """On rigid structures with counit-invariant S, bijectivity of S is
    equivalent to S fixing the unit."""
    check = verify_rigidity(algebra, r)
    if check.status in ("failed", "pre_rigid"):
        return None
    s = r.s
    if s.transpose().apply(algebra.counit) != algebra.counit:
        return None
    return (rank(s) == algebra.dim) == (s.apply(algebra.unit) == algebra.unit)
