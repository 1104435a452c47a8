"""Modules, comodules and the truncated tensor functor.

The tensor product of two modules over a weak bialgebra is carried by the
image of the operator representing the coproduct of the unit; restricting
the diagonal action to this image gives a unital module again and the
functor is strictly associative on the nose.  The cyclic submodule of the
dual generated by the counit acts as the unit object when the instance is
monoidal, with explicit unit-constraint maps in both directions.

Comodules are handled through the dual-module correspondence and, on
bimonoidal instances, through the amalgamated tensor product over the right
wedge subalgebra, which is naturally isomorphic to the truncated one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .core import (
    TheoremCheck,
    WeakBialgebra,
    _block_transposed,
    _combination,
    _flat,
    _leg_sums,
    _summed,
    _vstack,
    computed_once,
    decide_axioms,
)
from .exactlin import (
    Matrix,
    QZERO,
    Subspace,
    image,
    kernel,
    kron,
    linear_combination,
    nonzeros,
    rank,
    row_space,
    sylvester,
    unit_vec,
    vector_combination,
)


@dataclass
class ModuleRep:
    algebra: WeakBialgebra
    dim: int
    action: tuple  # one operator matrix per algebra basis vector

    @staticmethod
    def build(algebra, matrices) -> "ModuleRep":
        matrices = tuple(matrices)
        rep = ModuleRep(algebra, matrices[0].rows if matrices else 0, matrices)
        rep.check()
        return rep

    @cached_property
    def _action_triples(self) -> tuple:
        return tuple(map(nonzeros, self.action))

    def operator(self, a) -> Matrix:
        return _combination(a, self._action_triples, self.dim)

    def check(self):
        alg = self.algebra
        if self.operator(alg.unit) != Matrix.identity(self.dim):
            raise ValueError("module action does not send the unit to the identity")
        triples = self._action_triples
        for i, row in enumerate(alg._mult_nonzeros):
            for j, ij in enumerate(row):
                prod = linear_combination(((c, triples[k]) for k, c in ij), self.dim, self.dim)
                if prod != self.action[i] * self.action[j]:
                    raise ValueError(
                        "module action is not multiplicative at (%d,%d)" % (i, j)
                    )


def regular_module(algebra: WeakBialgebra) -> ModuleRep:
    return ModuleRep(algebra, algebra.dim, algebra.left_mult)


@dataclass
class TruncatedTensor:
    rep: ModuleRep
    left: ModuleRep
    right: ModuleRep
    carrier: Subspace  # inside the plain tensor coordinates
    projector: Matrix


def _kron_sum(terms, rows: int, cols: int) -> Matrix:
    """sum c * kron(x, y) over (c, x, y) triples."""
    return linear_combination(((c, nonzeros(kron(x, y))) for c, x, y in terms), rows, cols)


def _diagonal_operator(algebra, v: ModuleRep, w: ModuleRep, a) -> Matrix:
    """The action of a on v (x) w through its coproduct."""
    dim = v.dim * w.dim
    return _kron_sum(
        ((c, v.action[i], w.action[j]) for i, j, c in nonzeros(algebra.delta(a))), dim, dim
    )


def tensor_module(v: ModuleRep, w: ModuleRep) -> TruncatedTensor:
    """Truncated tensor product carried by the image of the unit operator."""
    algebra = v.algebra
    if w.algebra is not algebra:
        raise ValueError("modules live over different algebras")
    projector = _diagonal_operator(algebra, v, w, algebra.unit)
    if projector * projector != projector:
        raise ValueError("unit operator failed to be idempotent")
    carrier = image(projector)
    mats = []
    for t in range(algebra.dim):
        mat = carrier.restrict(_diagonal_operator(algebra, v, w, algebra.basis_vector(t)))
        if mat is None:
            raise ValueError("diagonal action does not preserve the carrier")
        mats.append(mat)
    rep = ModuleRep.build(algebra, mats) if carrier.dim else ModuleRep(algebra, 0, tuple(mats))
    return TruncatedTensor(rep, v, w, carrier, projector)


def embedding(trunc: TruncatedTensor) -> Matrix:
    """Carrier basis as a (plain tensor dim) x (truncated dim) matrix."""
    return trunc.carrier.basis.transpose()


@computed_once
def unit_module(algebra: WeakBialgebra):
    """The cyclic submodule of the dual generated by the counit, with its
    carrier; kept per instance."""
    algebra.require_valid()
    carrier = algebra.subspaces["Ahat_R"]
    mats = [carrier.restrict(r.transpose()) for r in algebra.right_mult]
    if None in mats:
        raise ValueError("dual action does not preserve the unit carrier")
    return ModuleRep.build(algebra, mats), carrier


@computed_once
def _dual_wedge_actions(algebra: WeakBialgebra):
    """The dual's A_L cap A_R, and the right multiplications by its basis
    vectors restricted to the unit carrier; those that leave the carrier
    are skipped."""
    _, carrier = unit_module(algebra)
    dual = algebra.dual
    z = dual.subspaces["A_L"].intersect(dual.subspaces["A_R"])
    mats = (carrier.restrict(dual.right_mult_of(zv)) for zv in z.basis.data)
    return z, tuple(m for m in mats if m is not None)


@computed_once
def _wedge_coaction_slices(algebra: WeakBialgebra):
    """The right wedge A_R as a comodule, one slice per basis index k:
    column s holds the A_R-coordinates of the e_k leg of the coproduct of
    basis vector s, or the slice is None when that leg leaves A_R.

    The e_k leg of the coproduct is the transpose of the dual's right
    multiplication by e_k, and A_R is the dual's Ahat_R, since the dual's
    Gram matrix is the coproduct of the unit."""
    space = algebra.subspaces["A_R"]
    return tuple(space.restrict(r.transpose()) for r in algebra.dual.right_mult)


def unit_module_report(algebra: WeakBialgebra):
    """Unit module plus the wedge realizations available on monoidal input."""
    rep, carrier = unit_module(algebra)
    report = decide_axioms(algebra)
    checks = []
    if report.left_monoidal or report.right_monoidal:
        sigmas = []
        if report.left_monoidal:
            sigmas.append("R")
        if report.right_monoidal:
            sigmas.append("L")
        eps_r = algebra.eps_maps["eps_r"]
        for sigma in sigmas:
            space = algebra.subspaces["A_%sR" % sigma]
            proj = algebra.projection(sigma, "R")
            # A_sigmaR with e_t acting by proj(e_t x) is a module, and the
            # counit map eps_r, as the matrix e from its basis to the unit
            # carrier's, intertwines it with the unit module
            mats = [space.restrict(proj * lm) for lm in algebra.left_mult]
            prods = algebra.basis_products(space)
            realized = None not in mats and prods * proj.transpose() == prods
            if realized:
                e = carrier.row_coordinates(space.basis * eps_r.transpose()).transpose()
                realized = all(e * m == r * e for m, r in zip(mats, rep.action))
            checks.append(TheoremCheck("unit-realization-%s" % sigma, True, realized))
            # the restricted counit map is a module isomorphism with the
            # hatted counit map as its inverse
            ehat = algebra.eps_maps["epshat_l" if sigma == "L" else "epshat_r"]
            back = carrier.basis * ehat.transpose()
            iso_ok = (
                space.basis * (ehat * eps_r).transpose() == space.basis
                and space.row_coordinates(back) is not None
                and back * eps_r.transpose() == carrier.basis
            )
            checks.append(TheoremCheck("unit-realization-inverse-%s" % sigma, True, iso_ok))
    return rep, carrier, checks


# ----------------------------------------------------------------------
# unit-constraint (coherence) maps
# ----------------------------------------------------------------------


@dataclass
class CoherenceMaps:
    l_map: Matrix
    r_map: Matrix
    l_bar: Matrix
    r_bar: Matrix
    e_rep: ModuleRep
    e_carrier: Subspace
    checks: list = field(default_factory=list)


def coherence_maps(v: ModuleRep) -> CoherenceMaps:
    """Insertion of the counit on either side plus the retraction maps."""
    algebra = v.algebra
    e_rep, e_carrier = unit_module(algebra)
    de = e_rep.dim
    dv = v.dim
    eps_coords = e_carrier.coordinates(algebra.counit)
    if eps_coords is None:
        raise ValueError("counit does not lie in the unit carrier")
    one_ev = _diagonal_operator(algebra, e_rep, v, algebra.unit)
    one_ve = _diagonal_operator(algebra, v, e_rep, algebra.unit)
    eps, ident = Matrix.column(eps_coords), Matrix.identity(dv)
    l_map = one_ev * kron(eps, ident)
    r_map = one_ve * kron(ident, eps)
    # retractions pair the unit coproduct legs against the dual carrier:
    # phi (x) v goes to <phi | 1_(1)> 1_(2) . v and its mirror; the row
    # pairing_u lists <phi | e_u> over the carrier basis
    pairing = e_carrier.basis.transpose().sparse_rows
    nz = nonzeros(algebra.delta1)
    l_bar = _kron_sum(
        ((c, Matrix._of_rows((pairing[u],), de), v.action[s]) for u, s, c in nz), dv, de * dv
    )
    r_bar = _kron_sum(
        ((c, v.action[s], Matrix._of_rows((pairing[u],), de)) for s, u, c in nz), dv, dv * de
    )
    checks = [
        TheoremCheck("left-retraction", True, l_bar * l_map == Matrix.identity(dv)),
        TheoremCheck("right-retraction", True, r_bar * r_map == Matrix.identity(dv)),
        TheoremCheck(
            "retraction-truncation-stability",
            True,
            l_bar * one_ev == l_bar and r_bar * one_ve == r_bar,
        ),
    ]
    return CoherenceMaps(l_map, r_map, l_bar, r_bar, e_rep, e_carrier, checks)


def coherence_report(v: ModuleRep):
    """Coherence maps with naturality of the insertions under the module
    action; on the regular module the two one-sided naturality statements
    decide the corresponding monoidality flags exactly.  Each is one
    comparison over every e_t at once: the insertion times V_t against the
    action of Delta(e_t) times it, summed over the coproduct legs (_leg_sums)."""
    algebra = v.algebra
    maps = coherence_maps(v)
    e_rep = maps.e_rep
    actions_t = _vstack((m.transpose() for m in v.action), v.dim)

    def natural(insert, first, second):
        def flats(i, js):
            return (_flat(kron(first.action[i], second.action[j]) * insert) for j in js)

        lhs = _block_transposed(actions_t * insert.transpose(), v.dim)
        return lhs == _leg_sums(algebra, flats, insert.rows, v.dim)

    return maps, natural(maps.l_map, e_rep, v), natural(maps.r_map, v, e_rep)


# ----------------------------------------------------------------------
# intertwiners
# ----------------------------------------------------------------------


def intertwiner_space(v: ModuleRep, w: ModuleRep) -> Subspace:
    """Module maps v -> w as a subspace of flattened operator matrices."""
    if w.algebra is not v.algebra:
        raise ValueError("modules live over different algebras")
    # pi_w(e_t) T = T pi_v(e_t) for every basis vector e_t
    return kernel(sylvester(zip(v.action, w.action), w.dim, v.dim))


@dataclass
class EndOfUnitReport:
    dim_end: int
    checks: list

    @property
    def ok(self):
        return all(not c.failed for c in self.checks)


def end_of_unit(algebra: WeakBialgebra) -> EndOfUnitReport:
    """Self-intertwiners of the unit object, matched against the relative
    centers (monoidal route) or the wedge intersection (comonoidal route)."""
    report = decide_axioms(algebra)
    checks = []
    if report.monoidal:
        rep, _ = unit_module(algebra)
        endo = intertwiner_space(rep, rep)
        spans = {}
        for tag, center in (("R", algebra.center_r), ("L", algebra.center_l)):
            vecs = [rep.operator(z).flatten() for z in center.basis.data]
            spans[tag] = Subspace.from_spanning(vecs, rep.dim * rep.dim)
        checks.append(
            TheoremCheck(
                "unit-endomorphisms-are-central-actions",
                True,
                endo == spans["R"] == spans["L"],
            )
        )
        z_dual, actions = _dual_wedge_actions(algebra)
        checks.append(
            TheoremCheck(
                "unit-endomorphism-dimension", True, endo.dim == z_dual.dim
            )
        )
        # right multiplications by the dual wedge intersection realize them
        vecs = [m.flatten() for m in actions]
        checks.append(
            TheoremCheck(
                "unit-endomorphisms-as-dual-multiplications",
                True,
                Subspace.from_spanning(vecs, rep.dim * rep.dim) == endo,
            )
        )
        dim_end = endo.dim
    elif report.comonoidal:
        space = algebra.subspaces["A_R"]
        k = space.dim
        # the unit comodule coaction is the restricted coproduct, and an
        # endomorphism T satisfies (T (x) id) rho = rho T, slice by slice
        slices = _wedge_coaction_slices(algebra)
        if None in slices:
            raise ValueError("coproduct does not restrict to the wedge comodule")
        endo = kernel(sylvester(((c, c) for c in slices), k, k))
        z = algebra.subspaces["A_L"].intersect(space)
        mats = (space.restrict(algebra.right_mult_of(zv)) for zv in z.basis.data)
        vecs = [m.flatten() for m in mats if m is not None]
        checks.append(
            TheoremCheck(
                "unit-comodule-endomorphisms",
                True,
                Subspace.from_spanning(vecs, k * k) == endo,
            )
        )
        dim_end = endo.dim
    else:
        return EndOfUnitReport(0, [TheoremCheck("end-of-unit", False, True)])
    return EndOfUnitReport(dim_end, checks)


# ----------------------------------------------------------------------
# comodules
# ----------------------------------------------------------------------


@dataclass
class Comodule:
    algebra: WeakBialgebra
    dim: int
    coaction: tuple  # coaction[v] is a (dim x algebra.dim) matrix

    @staticmethod
    def build(algebra, coaction):
        coaction = tuple(
            m if isinstance(m, Matrix) else Matrix(m) for m in coaction
        )
        com = Comodule(algebra, len(coaction), coaction)
        com.check()
        return com

    def check(self):
        algebra = self.algebra
        n = algebra.dim
        for v in range(self.dim):
            row = self.coaction[v]
            if row.rows != self.dim or row.cols != n:
                raise ValueError("coaction slice has wrong shape")
            got = _summed((w, c * algebra.counit[k]) for w, k, c in nonzeros(row))
            if got != {v: 1}:
                raise ValueError("coaction fails the counit law at %d" % v)
        for v in range(self.dim):
            terms = nonzeros(self.coaction[v])
            lhs = _summed(
                ((x, m, k), c * c2)
                for w, k, c in terms
                for x, m, c2 in nonzeros(self.coaction[w])
            )
            rhs = _summed(
                ((w, i, j), c * c2)
                for w, k, c in terms
                for i, j, c2 in nonzeros(algebra.comult[k])
            )
            if lhs != rhs:
                raise ValueError("coaction fails coassociativity at %d" % v)

    def to_dual_module(self) -> ModuleRep:
        dual = self.algebra.dual
        # row w of the k-th operator lists the f_v whose coaction has f_w (x) e_k
        rows = [[[] for _ in range(self.dim)] for _ in range(dual.dim)]
        for v, m in enumerate(self.coaction):
            for w, k, c in nonzeros(m):
                rows[k][w].append((v, c))
        return ModuleRep.build(dual, [Matrix._of_sparse(r, self.dim) for r in rows])


def regular_comodule(algebra: WeakBialgebra) -> Comodule:
    return Comodule.build(algebra, algebra.comult)


@dataclass
class ComoduleTensorReport:
    amalgamated: Comodule
    truncated: Comodule
    quotient_of_plain: Matrix  # projection from the plain tensor
    truncated_carrier: Subspace
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return all(not c.failed for c in self.checks)


def comodule_tensor(v: Comodule, w: Comodule) -> ComoduleTensorReport:
    """Tensor product of comodules over the right wedge subalgebra together
    with the truncated realization and the isomorphism between them."""
    algebra = v.algebra
    if w.algebra is not algebra:
        raise ValueError("comodules live over different algebras")
    report = decide_axioms(algebra)
    if not report.bimonoidal:
        raise ValueError("comodule tensor products need a bimonoidal instance")
    checks = []
    space = algebra.subspaces["A_R"]
    rbasis = space.basis.data

    def act_left(m, com, idx):
        """m . f_idx = f_(0) eps(m f_(1))."""
        return com.coaction[idx].apply(algebra.act_right(algebra.counit, m))

    def act_right(com, idx, m):
        """f_idx . m = f_(0) eps(f_(1) m)."""
        return com.coaction[idx].apply(algebra.act_left(m, algebra.counit))

    # the functionals eps(e_u -) and eps(- e_u), formed once per basis vector
    basis = [algebra.basis_vector(u) for u in range(algebra.dim)]
    eps_left = [algebra.act_right(algebra.counit, e) for e in basis]
    eps_right = [algebra.act_left(e, algebra.counit) for e in basis]

    def coaction_of(vector, com):
        """The coaction of the element with coordinates vector, as a dict."""
        return _summed(
            ((x, k), c * cc)
            for t, c in enumerate(vector)
            if c
            for x, k, cc in nonzeros(com.coaction[t])
        )

    # bimodule compatibility of the coactions with the wedge actions
    bi_ok = True
    table = algebra._mult_nonzeros
    for m in rbasis:
        dm = nonzeros(algebra.delta(m))
        for idx in range(v.dim):
            terms = nonzeros(v.coaction[idx])
            # (m_(1) . f_x) (x) m_(2) e_k over the coaction f_x (x) e_k of f_idx
            rhs = _summed(
                ((xx, kk), c * c2 * c3 * c4)
                for x, k, c in terms
                for u, z, c2 in dm
                for xx, c3 in enumerate(v.coaction[x].apply(eps_left[u]))
                if c3
                for kk, c4 in table[z][k]
            )
            if coaction_of(act_left(m, v, idx), v) != rhs:
                bi_ok = False
            # mirror: the right action moves through the second coproduct leg
            rhs_r = _summed(
                ((xx, kk), c * c2 * c3 * c4)
                for x, k, c in terms
                for u, z, c2 in dm
                for xx, c3 in enumerate(v.coaction[x].apply(eps_right[u]))
                if c3
                for kk, c4 in table[k][z]
            )
            if coaction_of(act_right(v, idx, m), v) != rhs_r:
                bi_ok = False
    checks.append(TheoremCheck("coaction-bimodule-compatibility", True, bi_ok))

    # counit recovery through the mixed projections
    rec_ok = True
    p_rr = algebra.projection("R", "R")
    p_rl = algebra.projection("R", "L")
    for idx in range(v.dim):
        terms = nonzeros(v.coaction[idx])
        acc1 = vector_combination(
            ((c, act_left(p_rr.col(k), v, t)) for t, k, c in terms), v.dim
        )
        acc2 = vector_combination(
            ((c, act_right(v, t, p_rl.col(k))) for t, k, c in terms), v.dim
        )
        if acc1 != unit_vec(v.dim, idx) or acc2 != unit_vec(v.dim, idx):
            rec_ok = False
    checks.append(TheoremCheck("counit-recovery", True, rec_ok))

    # quotient carrier of the amalgamated product: the relations
    # f_a . m (x) g_b - f_a (x) m . g_b
    plain = v.dim * w.dim
    pairs = (
        (
            Matrix.from_columns([act_left(m, w, b) for b in range(w.dim)], w.dim),
            Matrix.from_rows([act_right(v, a, m) for a in range(v.dim)], v.dim),
        )
        for m in rbasis
    )
    relspace = row_space(sylvester(pairs, v.dim, w.dim))
    free = relspace.free_columns

    def plain_coaction(a, b):
        """Coaction of f_a (x) g_b on the plain tensor."""
        return _summed(
            ((x * w.dim + y, kk), c1 * c2 * c3)
            for x, k, c1 in nonzeros(v.coaction[a])
            for y, m, c2 in nonzeros(w.coaction[b])
            for kk, c3 in table[k][m]
        )

    qdim = len(free)
    amalg_coaction = [Matrix.zero(qdim, algebra.dim) for _ in range(qdim)]
    lift = [unit_vec(plain, free[t]) for t in range(qdim)]
    for t in range(qdim):
        a, b = divmod(free[t], w.dim)
        rows = [[QZERO] * algebra.dim for _ in range(qdim)]
        for (pos, k), c in plain_coaction(a, b).items():
            red = relspace.quotient_coordinates(unit_vec(plain, pos))
            for x, c2 in enumerate(red):
                if c2:
                    rows[x][k] += c * c2
        amalg_coaction[t] = Matrix(rows)
    amalgamated = Comodule.build(algebra, amalg_coaction)

    # truncated realization inside the plain tensor
    trunc_op_rows = [[QZERO] * plain for _ in range(plain)]
    for a in range(v.dim):
        for b in range(w.dim):
            for (pos, k), c in plain_coaction(a, b).items():
                e = algebra.counit[k]
                if e:
                    trunc_op_rows[pos][a * w.dim + b] += c * e
    trunc_op = Matrix(trunc_op_rows)
    carrier = image(trunc_op)
    tbasis = carrier.basis.data
    tdim = len(tbasis)
    t_coaction = []
    for bvec in tbasis:
        # the e_k component of the coaction, summed in the plain tensor; only
        # the sum, not each term, has to lie in the carrier
        components = defaultdict(lambda: [QZERO] * plain)
        for pos, c in enumerate(bvec):
            if not c:
                continue
            a, b = divmod(pos, w.dim)
            for (pos2, k), c2 in plain_coaction(a, b).items():
                components[k][pos2] += c * c2
        rows = [[QZERO] * algebra.dim for _ in range(tdim)]
        for k, component in components.items():
            part = carrier.coordinates(component)
            if part is None:
                raise ValueError("truncated coaction left its carrier")
            for x, c3 in enumerate(part):
                rows[x][k] = c3
        t_coaction.append(Matrix(rows))
    truncated = Comodule.build(algebra, t_coaction)

    # mutually inverse comodule maps between the two realizations
    fwd_cols = []
    for bvec in tbasis:
        fwd_cols.append(relspace.quotient_coordinates(bvec))
    fwd = Matrix.from_columns(fwd_cols, qdim)
    bwd_cols = []
    for t in range(qdim):
        a, b = divmod(free[t], w.dim)
        acc = [QZERO] * plain
        for (pos, k), c in plain_coaction(a, b).items():
            e = algebra.counit[k]
            if e:
                acc[pos] += c * e
        coords = carrier.coordinates(acc)
        if coords is None:
            raise ValueError("inverse comodule map left the truncated carrier")
        bwd_cols.append(coords)
    bwd = Matrix.from_columns(bwd_cols, tdim)
    iso_ok = fwd * bwd == Matrix.identity(qdim) and bwd * fwd == Matrix.identity(tdim)
    # the forward map is a comodule morphism
    morph_ok = all(
        linear_combination(
            ((c, nonzeros(m)) for c, m in zip(fwd.col(t), amalgamated.coaction) if c),
            qdim,
            algebra.dim,
        )
        == fwd * truncated.coaction[t]
        for t in range(tdim)
    )
    checks.append(TheoremCheck("amalgamated-truncated-isomorphism", True, iso_ok and morph_ok))
    return ComoduleTensorReport(
        amalgamated=amalgamated,
        truncated=truncated,
        quotient_of_plain=fwd,
        truncated_carrier=carrier,
        checks=checks,
    )


# ----------------------------------------------------------------------
# monoidal coherence suite
# ----------------------------------------------------------------------


def monoidal_coherence_suite(v: ModuleRep, w: ModuleRep):
    """Triangle identities of the unit-constraint maps on a monoidal
    instance, plus naturality of the insertions along intertwiners."""
    algebra = v.algebra
    report = decide_axioms(algebra)
    checks = []
    maps_v = coherence_maps(v)
    maps_w = coherence_maps(w)
    e_rep = maps_v.e_rep
    de = e_rep.dim
    vw = tensor_module(v, w)
    if report.monoidal:
        ev = tensor_module(e_rep, v)
        ve = tensor_module(v, e_rep)
        checks.append(
            TheoremCheck(
                "unit-constraints-bijective",
                True,
                rank(maps_v.l_map) == ev.rep.dim == v.dim
                and rank(maps_v.r_map) == ve.rep.dim == v.dim,
            )
        )
        # middle-insertion triangle
        lhs = kron(maps_v.r_map, Matrix.identity(w.dim)) * embedding(vw)
        rhs = kron(Matrix.identity(v.dim), maps_w.l_map) * embedding(vw)
        checks.append(TheoremCheck("middle-insertion-triangle", True, lhs == rhs))
        # left insertion is computed by the truncated module directly
        maps_vw = coherence_maps(vw.rep)
        lhs2 = kron(maps_v.l_map, Matrix.identity(w.dim)) * embedding(vw)
        rhs2 = kron(Matrix.identity(de), embedding(vw)) * maps_vw.l_map
        checks.append(TheoremCheck("left-insertion-stability", True, lhs2 == rhs2))
        wv = tensor_module(w, v)
        maps_wv = coherence_maps(wv.rep)
        lhs3 = kron(Matrix.identity(w.dim), maps_v.r_map) * embedding(wv)
        rhs3 = kron(embedding(wv), Matrix.identity(de)) * maps_wv.r_map
        checks.append(TheoremCheck("right-insertion-stability", True, lhs3 == rhs3))
        maps_e = coherence_maps(e_rep)
        checks.append(
            TheoremCheck(
                "unit-insertions-coincide", True, maps_e.l_map == maps_e.r_map
            )
        )
    # naturality along every intertwiner
    inter = intertwiner_space(v, w)
    nat_ok = True
    for frow in inter.basis.data:
        f = Matrix([frow[i * v.dim : (i + 1) * v.dim] for i in range(w.dim)])
        if maps_w.l_map * f != kron(Matrix.identity(de), f) * maps_v.l_map:
            nat_ok = False
        if maps_w.r_map * f != kron(f, Matrix.identity(de)) * maps_v.r_map:
            nat_ok = False
    checks.append(TheoremCheck("insertion-naturality", True, nat_ok))
    return checks


def _flattened_columns(mats, k: int) -> Matrix:
    """The k*k x len(mats) matrix whose column t is mats[t], k x k,
    flattened row by row."""
    return Matrix.from_columns([m.flatten() for m in mats], k * k)


def associativity_check(u: ModuleRep, v: ModuleRep, w: ModuleRep) -> bool:
    """Strict associativity: both double truncations carve out the same
    subspace of the triple tensor and carry the same action."""
    uv = tensor_module(u, v)
    left = tensor_module(uv.rep, w)
    vw = tensor_module(v, w)
    right = tensor_module(u, vw.rep)
    amb_left = kron(embedding(uv), Matrix.identity(w.dim)) * embedding(left)
    amb_right = kron(Matrix.identity(u.dim), embedding(vw)) * embedding(right)
    dim_amb = u.dim * v.dim * w.dim
    space_left = image(amb_left)
    if space_left != image(amb_right):
        return False
    algebra = u.algebra
    basis = [algebra.basis_vector(t) for t in range(algebra.dim)]
    # each e_t acts on the triple tensor through (id (x) Delta) Delta(e_t):
    # the plain V (x) W action, then the diagonal one with U; all of them
    # restrict at once, stacked as B op_t^t for the carrier basis B
    plain = ModuleRep(
        algebra, v.dim * w.dim, tuple(_diagonal_operator(algebra, v, w, e) for e in basis)
    )
    ops = (_diagonal_operator(algebra, u, plain, e) for e in basis)
    acted = _vstack((space_left.basis * op.transpose() for op in ops), dim_amb)
    return space_left.row_coordinates(acted) is not None


# ----------------------------------------------------------------------
# the unit representation of the whole algebra
# ----------------------------------------------------------------------


def unit_representation_suite(algebra: WeakBialgebra):
    """Image and kernel facts of the action on the unit module: the image
    sits inside the endomorphisms over the dual wedge intersection with
    equality exactly when the dual wedge product amalgamates freely, and
    faithfulness picks out instances whose dual is generated by its wedges."""
    algebra.require_valid()
    report = decide_axioms(algebra)
    checks = []
    if report.monoidal:
        rep, _ = unit_module(algebra)
        de = rep.dim
        dual = algebra.dual
        # endomorphisms commuting with right multiplication by z
        z, actions = _dual_wedge_actions(algebra)
        commutant = kernel(sylvester(((m, m) for m in actions), de, de))
        img = Subspace.from_spanning([m.flatten() for m in rep.action], de * de)
        checks.append(
            TheoremCheck("unit-action-in-commutant", True, commutant.contains_subspace(img))
        )
        a_l, a_r = dual.subspaces["A_L"], dual.subspaces["A_R"]
        prod_dim = dual.subspace_product(a_l, a_r).dim
        # the relations x z (x) y - x (x) z y for x in A_L, y in A_R and z in
        # the intersection, in the coordinates of A_L (x) A_R
        pairs = (
            (a_r.restrict(dual.left_mult_of(zv)), a_l.restrict(dual.right_mult_of(zv)).transpose())
            for zv in z.basis.data
        )
        amalg_dim = a_l.dim * a_r.dim - rank(sylvester(pairs, a_l.dim, a_r.dim))
        checks.append(
            TheoremCheck(
                "free-amalgamation-equivalence",
                True,
                (img == commutant) == (prod_dim == amalg_dim),
            )
        )
        faithful = rank(_flattened_columns(rep.action, de)) == algebra.dim
        checks.append(
            TheoremCheck("faithfulness-cominimality", True, faithful == report.cominimal)
        )
    if report.comonoidal:
        # the dual statement: kernel of the dual acting on the right wedge
        slices = _wedge_coaction_slices(algebra)
        if None in slices:
            raise ValueError("dual action does not preserve the right wedge")
        ker = kernel(_flattened_columns(slices, algebra.subspaces["A_R"].dim))
        prod = algebra.subspace_product(
            algebra.subspaces["A_L"], algebra.subspaces["A_R"]
        )
        ann_rows = [list(b) for b in prod.basis.data]
        annihilator = kernel(Matrix.from_rows(ann_rows, algebra.dim))
        checks.append(
            TheoremCheck("dual-unit-action-kernel", True, ker == annihilator)
        )
    return checks
