"""Differential tests for repcat's whole-operator primitives.

repcat builds its module, comodule and unit-object computations on two
exactlin primitives: Subspace.restrict, the matrix of an operator on an
invariant subspace, and sylvester, whose kernel is a commutant and whose
row space is a balanced-tensor relation space; _Carrier builds its
amalgamation relations on sylvester too.  The functions they replaced are
kept here as they were, word for word, each calling the kept versions of
the others, and compared with the shipped ones on the catalog instances of
dimension at most 9 with their duals, opposites and coopposites: the unit
module and its reports at every dimension, tensor products, coherence maps
and intertwiners up to dimension 6, the monoidal coherence suite up to
dimension 4, comodule tensor products on bimonoidal instances up to
dimension 6, and the carrier of the minimal constructions on amalgamations
over the unit, over a whole diagonal factor, over part of one and over a
non-central element.  Comodule tensor products are also compared on
(regular, unit), (unit, regular) and (unit, unit) comodule pairs, whose
factors differ in dimension, and the action-law checks of modules,
comodules and module-algebra actions are compared with their loops on
seeded perturbations that reach each of their failure messages.
"""

import random
from collections import defaultdict

import pytest

from test_kernels import SMALL

from weakhopf import repcat
from weakhopf.constructions import (
    Algebra,
    Amalgamation,
    ConstructionError,
    GroupPresentation,
    HopfAlgebra,
    ModuleAlgebraAction,
    _Carrier,
    example1_factors,
)
from weakhopf.core import TheoremCheck, WeakBialgebra, _summed, decide_axioms
from weakhopf.exactlin import (
    Matrix,
    QZERO,
    Subspace,
    image,
    kernel,
    kron,
    linear_combination,
    nonzeros,
    rank,
    unit_vec,
    vector_combination,
)
from weakhopf.repcat import (
    CoherenceMaps,
    Comodule,
    ComoduleTensorReport,
    EndOfUnitReport,
    ModuleRep,
    TruncatedTensor,
    regular_comodule,
    regular_module,
)

# example2-rigidity is the dual of example1, which the records already have
NAMES = [name for name in SMALL if name != "example2-rigidity"]
# the instances of dimension at most 6
UP_TO_6 = [name for name in NAMES if name not in ("example1", "bsz-dual:3", "adcross:z4,z2")]


# ----------------------------------------------------------------------
# the replaced functions, as they were
# ----------------------------------------------------------------------


def _diagonal_operator(algebra, v: ModuleRep, w: ModuleRep, a) -> Matrix:
    dim = v.dim * w.dim
    return linear_combination(
        ((c, nonzeros(kron(v.action[i], w.action[j]))) for i, j, c in nonzeros(algebra.delta(a))),
        dim,
        dim,
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
    basis = carrier.basis.data
    mats = []
    for t in range(algebra.dim):
        big = _diagonal_operator(algebra, v, w, algebra.basis_vector(t))
        cols = []
        for b in basis:
            moved = big.apply(b)
            coords = carrier.coordinates(moved)
            if coords is None:
                raise ValueError("diagonal action does not preserve the carrier")
            cols.append(coords)
        mats.append(Matrix.from_columns(cols, len(basis)))
    rep = ModuleRep.build(algebra, mats) if basis else ModuleRep(algebra, 0, tuple(mats))
    return TruncatedTensor(rep, v, w, carrier, projector)


def embedding(trunc: TruncatedTensor) -> Matrix:
    """Carrier basis as a (plain tensor dim) x (truncated dim) matrix."""
    return trunc.carrier.basis.transpose()


def unit_module(algebra: WeakBialgebra):
    """The cyclic submodule of the dual generated by the counit."""
    algebra.require_valid()
    carrier = algebra.subspaces["Ahat_R"]
    basis = carrier.basis.data
    mats = []
    for t in range(algebra.dim):
        op = algebra.right_mult[t].transpose()
        cols = []
        for b in basis:
            coords = carrier.coordinates(op.apply(b))
            if coords is None:
                raise ValueError("dual action does not preserve the unit carrier")
            cols.append(coords)
        mats.append(Matrix.from_columns(cols, len(basis)))
    rep = ModuleRep.build(algebra, mats)
    return rep, carrier


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
            rep_ok = True
            inter_ok = True
            sbasis = space.basis.data
            for t in range(algebra.dim):
                cols = []
                for x in sbasis:
                    moved = proj.apply(algebra.mul(algebra.basis_vector(t), x))
                    coords = space.coordinates(moved)
                    if coords is None:
                        rep_ok = False
                        break
                    cols.append(coords)
                if not rep_ok:
                    break
                for k, x in enumerate(sbasis):
                    lhs = carrier.coordinates(eps_r.apply(proj.apply(algebra.mul(algebra.basis_vector(t), x))))
                    step = carrier.coordinates(eps_r.apply(x))
                    rhs = rep.action[t].apply(step)
                    if lhs != rhs:
                        inter_ok = False
            for x in sbasis:
                for y in sbasis:
                    if proj.apply(algebra.mul(x, y)) != algebra.mul(x, y):
                        rep_ok = False
            checks.append(
                TheoremCheck("unit-realization-%s" % sigma, True, rep_ok and inter_ok)
            )
            # the restricted counit map is a module isomorphism with the
            # hatted counit map as its inverse
            ehat = algebra.eps_maps["epshat_l" if sigma == "L" else "epshat_r"]
            iso_ok = True
            for x in sbasis:
                if ehat.apply(eps_r.apply(x)) != x:
                    iso_ok = False
            for phi in carrier.basis.data:
                back = ehat.apply(phi)
                if space.coordinates(back) is None:
                    iso_ok = False
                elif eps_r.apply(back) != phi:
                    iso_ok = False
            checks.append(TheoremCheck("unit-realization-inverse-%s" % sigma, True, iso_ok))
    return rep, carrier, checks


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
    l_cols = []
    for k in range(dv):
        vec = [QZERO] * (de * dv)
        for i, c in enumerate(eps_coords):
            if c:
                vec[i * dv + k] += c
        l_cols.append(one_ev.apply(vec))
    l_map = Matrix.from_columns(l_cols, de * dv)
    r_cols = []
    for k in range(dv):
        vec = [QZERO] * (dv * de)
        for i, c in enumerate(eps_coords):
            if c:
                vec[k * de + i] += c
        r_cols.append(one_ve.apply(vec))
    r_map = Matrix.from_columns(r_cols, dv * de)
    # retractions pair the unit coproduct legs against the dual carrier:
    # phi (x) v goes to <phi | 1_(1)> 1_(2) . v and its mirror
    d1 = algebra.delta1
    ebasis = e_carrier.basis.data
    lbar_rows = []
    rbar_rows = []
    # the operators of <phi | 1_(1)> 1_(2) and 1_(1) <phi | 1_(2)>
    ops_l = [v.operator(d1.transpose().apply(phi)) for phi in ebasis]
    ops_r = [v.operator(d1.apply(phi)) for phi in ebasis]
    for out in range(dv):
        lrow = []
        rrow = []
        for op_l, op_r in zip(ops_l, ops_r):
            lrow.extend(op_l.row(out))
            rrow.extend(op_r.row(out))
        lbar_rows.append(lrow)
        rbar_rows.append(rrow)
    l_bar = Matrix(lbar_rows)  # acts on E (x) V coordinates, phi-major
    r_bar = _reorder_rbar(rbar_rows, de, dv)
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


def _reorder_rbar(rbar_rows, de, dv):
    """Convert retraction columns from phi-major to v-major ordering."""
    out = []
    for row in rbar_rows:
        new = [QZERO] * (dv * de)
        for i in range(de):
            for k in range(dv):
                new[k * de + i] = row[i * dv + k]
        out.append(new)
    return Matrix(out)


def coherence_report(v: ModuleRep):
    """Coherence maps with naturality of the insertions under the module
    action; on the regular module the two one-sided naturality statements
    decide the corresponding monoidality flags exactly."""
    algebra = v.algebra
    maps = coherence_maps(v)
    e_rep = maps.e_rep
    left_natural = True
    right_natural = True
    for t in range(algebra.dim):
        big_ev = _diagonal_operator(algebra, e_rep, v, algebra.basis_vector(t))
        if maps.l_map * v.action[t] != big_ev * maps.l_map:
            left_natural = False
            break
    for t in range(algebra.dim):
        big_ve = _diagonal_operator(algebra, v, e_rep, algebra.basis_vector(t))
        if maps.r_map * v.action[t] != big_ve * maps.r_map:
            right_natural = False
            break
    return maps, left_natural, right_natural


def intertwiner_space(v: ModuleRep, w: ModuleRep) -> Subspace:
    """Module maps v -> w as a subspace of flattened operator matrices."""
    if w.algebra is not v.algebra:
        raise ValueError("modules live over different algebras")
    rows = []
    n = v.algebra.dim
    for t in range(n):
        # T pi_v(e_t) - pi_w(e_t) T = 0, linear in the entries of T
        av = v.action[t]
        aw = w.action[t]
        for i in range(w.dim):
            for j in range(v.dim):
                line = [QZERO] * (w.dim * v.dim)
                for k in range(v.dim):
                    c = av[k, j]
                    if c:
                        line[i * v.dim + k] += c
                for k in range(w.dim):
                    c = aw[i, k]
                    if c:
                        line[k * v.dim + j] -= c
                rows.append(line)
    return kernel(Matrix.from_rows(rows, w.dim * v.dim))


def end_of_unit(algebra: WeakBialgebra) -> EndOfUnitReport:
    """Self-intertwiners of the unit object, matched against the relative
    centers (monoidal route) or the wedge intersection (comonoidal route)."""
    report = decide_axioms(algebra)
    checks = []
    if report.monoidal:
        rep, carrier = unit_module(algebra)
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
        dual = algebra.dual
        z_dual = dual.subspaces["A_L"].intersect(dual.subspaces["A_R"])
        checks.append(
            TheoremCheck(
                "unit-endomorphism-dimension", True, endo.dim == z_dual.dim
            )
        )
        # right multiplications by the dual wedge intersection realize them
        vecs = []
        for xi in z_dual.basis.data:
            op_amb = dual.right_mult_of(xi)
            cols = []
            good = True
            for b in carrier.basis.data:
                coords = carrier.coordinates(op_amb.apply(b))
                if coords is None:
                    good = False
                    break
                cols.append(coords)
            if good:
                vecs.append(Matrix.from_columns(cols, rep.dim).flatten())
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
        basis = space.basis.data
        k = len(basis)
        n = algebra.dim
        rows = []
        # the unit comodule coaction is the restricted coproduct
        for t_out in range(k):
            for amb in range(n):
                for src in range(k):
                    line = [QZERO] * (k * k)
                    # (T (x) id) rho - rho T = 0 entrywise
                    for m in range(k):
                        c = _coact_coeff(algebra, space, basis, src, m, amb)
                        if c:
                            line[t_out * k + m] += c
                    for m in range(k):
                        c2 = _coact_coeff(algebra, space, basis, m, t_out, amb)
                        if c2:
                            line[m * k + src] -= c2
                    rows.append(line)
        endo = kernel(Matrix.from_rows(rows, k * k))
        z = algebra.subspaces["A_L"].intersect(space)
        vecs = []
        for zv in z.basis.data:
            cols = []
            good = True
            for b in basis:
                coords = space.coordinates(algebra.mul(b, zv))
                if coords is None:
                    good = False
                    break
                cols.append(coords)
            if good:
                vecs.append(Matrix.from_columns(cols, k).flatten())
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


def _coact_coeff(algebra, space, basis, src, dst, amb):
    """Coefficient of (basis dst) (x) e_amb in the coproduct of basis src."""
    db = algebra.delta(basis[src])
    coords = space.coordinates(db.col(amb))
    if coords is None:
        raise ValueError("coproduct does not restrict to the wedge comodule")
    return coords[dst]


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
    mult = algebra.mult
    e = algebra.basis_vector
    for m in rbasis:
        dm = nonzeros(algebra.delta(m))
        for idx in range(v.dim):
            terms = nonzeros(v.coaction[idx])
            # (m_(1) . f_x) (x) m_(2) e_k over the coaction f_x (x) e_k of f_idx
            rhs = _summed(
                ((xx, kk), c * c2 * c3 * c4)
                for x, k, c in terms
                for u, z, c2 in dm
                for xx, c3 in enumerate(act_left(e(u), v, x))
                if c3
                for kk, c4 in enumerate(mult[z][k])
                if c4
            )
            if coaction_of(act_left(m, v, idx), v) != rhs:
                bi_ok = False
            # mirror: the right action moves through the second coproduct leg
            rhs_r = _summed(
                ((xx, kk), c * c2 * c3 * c4)
                for x, k, c in terms
                for u, z, c2 in dm
                for xx, c3 in enumerate(act_right(v, x, e(u)))
                if c3
                for kk, c4 in enumerate(mult[k][z])
                if c4
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

    # quotient carrier of the amalgamated product
    plain = v.dim * w.dim
    rel = []
    for m in rbasis:
        for a in range(v.dim):
            va = act_right(v, a, m)
            for b in range(w.dim):
                wb = act_left(m, w, b)
                vecr = [QZERO] * plain
                for x, c in enumerate(va):
                    if c:
                        vecr[x * w.dim + b] += c
                for y, c in enumerate(wb):
                    if c:
                        vecr[a * w.dim + y] -= c
                if any(vecr):
                    rel.append(tuple(vecr))
    relspace = Subspace.from_spanning(rel, plain)
    free = relspace.free_columns

    def plain_coaction(a, b):
        """Coaction of f_a (x) g_b on the plain tensor."""
        return _summed(
            ((x * w.dim + y, kk), c1 * c2 * c3)
            for x, k, c1 in nonzeros(v.coaction[a])
            for y, m, c2 in nonzeros(w.coaction[b])
            for kk, c3 in enumerate(mult[k][m])
            if c3
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
        f = Matrix(
            [
                [frow[i * v.dim + j] for j in range(v.dim)]
                for i in range(w.dim)
            ]
        )
        if maps_w.l_map * f != kron(Matrix.identity(de), f) * maps_v.l_map:
            nat_ok = False
        if maps_w.r_map * f != kron(f, Matrix.identity(de)) * maps_v.r_map:
            nat_ok = False
    checks.append(TheoremCheck("insertion-naturality", True, nat_ok))
    return checks


def unit_representation_suite(algebra: WeakBialgebra):
    """Image and kernel facts of the action on the unit module: the image
    sits inside the endomorphisms over the dual wedge intersection with
    equality exactly when the dual wedge product amalgamates freely, and
    faithfulness picks out instances whose dual is generated by its wedges."""
    algebra.require_valid()
    report = decide_axioms(algebra)
    checks = []
    if report.monoidal:
        rep, carrier = unit_module(algebra)
        de = rep.dim
        dual = algebra.dual
        z = dual.subspaces["A_L"].intersect(dual.subspaces["A_R"])
        # endomorphisms commuting with right multiplication by z
        rows = []
        for zv in z.basis.data:
            op_cols = []
            good = True
            for b in carrier.basis.data:
                coords = carrier.coordinates(dual.right_mult_of(zv).apply(b))
                if coords is None:
                    good = False
                    break
                op_cols.append(coords)
            if not good:
                continue
            zmat = Matrix.from_columns(op_cols, de)
            for i in range(de):
                for j in range(de):
                    line = [QZERO] * (de * de)
                    for k in range(de):
                        c = zmat[k, j]
                        if c:
                            line[i * de + k] += c
                        c2 = zmat[i, k]
                        if c2:
                            line[k * de + j] -= c2
                    rows.append(line)
        commutant = (
            kernel(Matrix.from_rows(rows, de * de))
            if rows
            else Subspace.full(de * de)
        )
        img = Subspace.from_spanning(
            [rep.action[t].flatten() for t in range(algebra.dim)], de * de
        )
        checks.append(
            TheoremCheck("unit-action-in-commutant", True, commutant.contains_subspace(img))
        )
        prod_dim = dual.subspace_product(
            dual.subspaces["A_L"], dual.subspaces["A_R"]
        ).dim
        # the relation of (x z, y) and (x, z y) for basis vectors x of A_L,
        # y of A_R and z of the intersection, in the coordinates of
        # A_L (x) A_R; x and y are basis vectors, so their coordinates are
        # unit vectors
        rel = []
        a_l, a_r = dual.subspaces["A_L"], dual.subspaces["A_R"]
        nl, nr = a_l.dim, a_r.dim
        for zv in z.basis.sparse_rows:
            z_row = Matrix._of_rows((zv,), dual.dim)
            cxs = [a_l.coordinates(xz) for xz in dual.products(a_l.basis, z_row).data]
            cys = [a_r.coordinates(zy) for zy in dual.products(z_row, a_r.basis).data]
            for ix, cx in enumerate(cxs):
                for iy, cy in enumerate(cys):
                    vecr = [QZERO] * (nl * nr)
                    for i, c in enumerate(cx):
                        vecr[i * nr + iy] += c
                    for j, c in enumerate(cy):
                        vecr[ix * nr + j] -= c
                    if any(vecr):
                        rel.append(tuple(vecr))
        amalg_dim = nl * nr - Subspace.from_spanning(rel, nl * nr).dim
        checks.append(
            TheoremCheck(
                "free-amalgamation-equivalence",
                True,
                (img == commutant) == (prod_dim == amalg_dim),
            )
        )
        ker_rows = []
        for i in range(de):
            for j in range(de):
                ker_rows.append(
                    [rep.action[t][i, j] for t in range(algebra.dim)]
                )
        faithful = kernel(Matrix.from_rows(ker_rows, algebra.dim)).dim == 0
        checks.append(
            TheoremCheck("faithfulness-cominimality", True, faithful == report.cominimal)
        )
    if report.comonoidal:
        # the dual statement: kernel of the dual acting on the right wedge
        space = algebra.subspaces["A_R"]
        k = space.dim
        mats = []
        for phi_idx in range(algebra.dim):
            cols = []
            for b in space.basis.data:
                db = algebra.delta(b)
                coords = space.coordinates(db.col(phi_idx))
                if coords is None:
                    raise ValueError("dual action does not preserve the right wedge")
                cols.append(coords)
            mats.append(Matrix.from_columns(cols, k))
        ker_rows = []
        for i in range(k):
            for j in range(k):
                ker_rows.append([mats[t][i, j] for t in range(algebra.dim)])
        ker = kernel(Matrix.from_rows(ker_rows, algebra.dim))
        prod = algebra.subspace_product(
            algebra.subspaces["A_L"], algebra.subspaces["A_R"]
        )
        ann_rows = [list(b) for b in prod.basis.data]
        annihilator = kernel(Matrix.from_rows(ann_rows, algebra.dim))
        checks.append(
            TheoremCheck("dual-unit-action-kernel", True, ker == annihilator)
        )
    return checks


def module_check(self: ModuleRep):
    """ModuleRep.check as it was."""
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


def comodule_check(self: Comodule):
    """Comodule.check as it was."""
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


class _ParentCarrier(_Carrier):
    """_Carrier with its relation loop as it was."""

    def __init__(self, a1: Algebra, a2: Algebra, amalg=None):
        self.a1 = a1
        self.a2 = a2
        self.full_dim = a1.dim * a2.dim
        self.amalg = amalg
        rel = []
        if amalg is not None:
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
        self.reducer = Subspace.from_spanning(rel, self.full_dim)
        self.free = self.reducer.free_columns
        self.dim = len(self.free)


# ----------------------------------------------------------------------
# the shipped functions against the oracles
# ----------------------------------------------------------------------


def _outcome(build, *args):
    """What build returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except (ValueError, ConstructionError) as err:
        return type(err), str(err)


def _records(entries, name):
    base = entries[name].algebra
    return [base, base.dual, base.opposite, base.coopposite]


@pytest.mark.parametrize("name", NAMES)
def test_unit_object_matches_the_loops(entries, name):
    for algebra in _records(entries, name):
        for new, old in (
            (repcat.unit_module, unit_module),
            (repcat.unit_module_report, unit_module_report),
            (repcat.end_of_unit, end_of_unit),
            (repcat.unit_representation_suite, unit_representation_suite),
        ):
            assert _outcome(new, algebra) == _outcome(old, algebra)


@pytest.mark.parametrize("name", UP_TO_6)
def test_tensor_coherence_and_intertwiners_match_the_loops(entries, name):
    for algebra in _records(entries, name):
        assert algebra.dim <= 6
        v = regular_module(algebra)
        e_rep, _ = unit_module(algebra)
        for left, right in ((v, v), (v, e_rep), (e_rep, v)):
            assert repcat.tensor_module(left, right) == tensor_module(left, right)
            assert repcat.intertwiner_space(left, right) == intertwiner_space(left, right)
        for module in (v, e_rep):
            assert repcat.coherence_maps(module) == coherence_maps(module)
            assert repcat.coherence_report(module) == coherence_report(module)
        if algebra.dim <= 4:
            assert repcat.monoidal_coherence_suite(v, v) == monoidal_coherence_suite(v, v)
            assert repcat.monoidal_coherence_suite(v, e_rep) == monoidal_coherence_suite(v, e_rep)


def test_comodule_tensor_matches_the_loop(entries):
    compared = 0
    for name in UP_TO_6:
        for algebra in _records(entries, name):
            if not decide_axioms(algebra).bimonoidal:
                continue
            v = regular_comodule(algebra)
            assert repcat.comodule_tensor(v, v) == comodule_tensor(v, v)
            compared += 1
    assert compared >= 8


def _unit_comodule(algebra):
    """The right wedge as a comodule: its coaction is the restricted coproduct."""
    space = algebra.subspaces["A_R"]
    basis = space.basis.data
    k = len(basis)
    return Comodule.build(
        algebra,
        [
            Matrix(
                [
                    [_coact_coeff(algebra, space, basis, src, dst, amb) for amb in range(algebra.dim)]
                    for dst in range(k)
                ]
            )
            for src in range(k)
        ],
    )


def test_comodule_tensor_of_regular_and_unit_pairs_matches_the_loop(entries):
    """The factors differ in dimension, so a swapped kron or sylvester order
    shows."""
    uneven = 0
    for name in UP_TO_6:
        for algebra in _records(entries, name):
            if not decide_axioms(algebra).bimonoidal:
                continue
            v, e = regular_comodule(algebra), _unit_comodule(algebra)
            for left, right in ((v, e), (e, v), (e, e)):
                new = repcat.comodule_tensor(left, right)
                assert new == comodule_tensor(left, right)
                assert new.ok
            uneven += v.dim != e.dim
    assert uneven >= 16


def _message(check, *args):
    """The message of the ValueError or ConstructionError check raises, or None."""
    try:
        check(*args)
    except (ValueError, ConstructionError) as err:
        return str(err)
    return None


def _perturbed(mats, rng):
    """mats with one seeded entry of one seeded matrix moved by a nonzero."""
    mats = list(mats)
    t = rng.randrange(len(mats))
    data = [list(row) for row in mats[t].data]
    i, j = rng.randrange(len(data)), rng.randrange(len(data[0]))
    data[i][j] += rng.choice([-2, -1, 1, 2])
    mats[t] = Matrix(data)
    return tuple(mats)


def _kinds(messages):
    return {m if m is None else m.split(" at ")[0] for m in messages}


def test_module_check_matches_the_loop_on_perturbations(entries):
    rng = random.Random(20)
    messages = []
    for name in UP_TO_6:
        for algebra in _records(entries, name):
            reps = [regular_module(algebra), unit_module(algebra)[0]]
            for rep in reps:
                for action in [rep.action] + [_perturbed(rep.action, rng) for _ in range(3)]:
                    bent = ModuleRep(algebra, rep.dim, action)
                    message = _message(bent.check)
                    assert message == _message(module_check, bent)
                    messages.append(message)
    assert _kinds(messages) == {
        None,
        "module action does not send the unit to the identity",
        "module action is not multiplicative",
    }


def test_comodule_check_matches_the_loop_on_perturbations(entries):
    rng = random.Random(21)
    messages = []
    for name in UP_TO_6:
        for algebra in _records(entries, name):
            coms = [regular_comodule(algebra)]
            if decide_axioms(algebra).bimonoidal:
                coms.append(_unit_comodule(algebra))
            for com in coms:
                coactions = [com.coaction] + [_perturbed(com.coaction, rng) for _ in range(3)]
                # the last slice with a row too many, after slices as given
                # and after perturbed ones
                misshapen = (Matrix.zero(com.dim + 1, algebra.dim),)
                coactions += [c[:-1] + misshapen for c in coactions[:2]]
                for coaction in coactions:
                    bent = Comodule(algebra, com.dim, coaction)
                    message = _message(bent.check)
                    assert message == _message(comodule_check, bent)
                    messages.append(message)
    assert _kinds(messages) == {
        None,
        "coaction slice has wrong shape",
        "coaction fails the counit law",
        "coaction fails coassociativity",
    }


def _hopf_actions():
    """(Hopf algebra, target, action matrices): Z2 on K^2 by the swap, by an
    involution that moves the unit and by one that is no algebra map, and the
    trivial Hopf algebra on K[x]/(x^2), basis (x, 1), by the idempotent
    algebra map that kills x."""
    d2 = Algebra.diagonal(2)
    nil = Algebra.build(2, [[[0, 0], [1, 0]], [[1, 0], [0, 1]]], [0, 1])
    z1 = HopfAlgebra.from_group(GroupPresentation.cyclic(1))
    z2 = HopfAlgebra.from_group(GroupPresentation.cyclic(2))
    one = Matrix.identity(2)
    return [
        (z2, d2, (one, Matrix([[0, 1], [1, 0]]))),
        (z2, d2, (one, Matrix([[1, 0], [0, -1]]))),
        (z2, d2, (one, Matrix([[1, 0], [2, -1]]))),
        (z1, nil, (Matrix([[0, 0], [0, 1]]),)),
    ]


def test_module_algebra_action_check_matches_the_loop_on_perturbations():
    # imported here: test_construction_oracles imports this file, in a cycle
    from test_construction_oracles import ModuleAlgebraAction as OldModuleAlgebraAction

    rng = random.Random(22)
    messages = []
    for hopf, target, mats in _hopf_actions():
        for action in [mats] + [_perturbed(mats, rng) for _ in range(12)]:
            message = _message(ModuleAlgebraAction(hopf, target, action).check)
            assert message == _message(OldModuleAlgebraAction(hopf, target, action).check)
            messages.append(message)
    assert _kinds(messages) == {
        None,
        "action is not multiplicative",
        "action does not normalize the unit",
        "action is not a module-algebra action",
        "action does not fix the unit of the Hopf algebra",
    }


def _amalgamations():
    """Factor pairs with an amalgamation, or None for the plain tensor."""
    d2, f2 = Algebra.diagonal(2), Algebra.diagonal(2, labels=["f1", "f2"])
    d3 = Algebra.diagonal(3)
    a1, a2, _ = example1_factors()
    e = unit_vec
    return [
        (a1, a2, None),
        (a1, a2, Amalgamation(1, (a1.unit,), (a2.unit,))),
        (d2, f2, Amalgamation(2, (e(2, 0), e(2, 1)), (e(2, 0), e(2, 1)))),
        (d3, d3, Amalgamation(2, (a1.unit, e(3, 2)), (a1.unit, e(3, 0)))),
        (d3, d3, Amalgamation(1, (e(3, 0),), (e(3, 1),))),
        # the strictly upper triangular element is not central
        (a1, a2, Amalgamation(1, (e(3, 0),), (e(3, 1),))),
    ]


def test_carrier_relations_match_the_loop():
    for a1, a2, amalg in _amalgamations():
        new = _outcome(_Carrier, a1, a2, amalg)
        old = _outcome(_ParentCarrier, a1, a2, amalg)
        if isinstance(new, tuple):
            assert new == old
        else:
            assert (new.reducer, new.free, new.dim) == (old.reducer, old.free, old.dim)
            # the quotient map against the reduction of each ambient basis vector
            assert new.reduction == Matrix.from_rows(
                [new.reduce(unit_vec(new.full_dim, u)) for u in range(new.full_dim)], new.dim
            )
