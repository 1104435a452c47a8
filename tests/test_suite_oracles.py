"""Differential tests for the products the theorem suites compute once.

The structural, antipode and rigidity suites used to recompute the same
products inside their loops: projected basis vectors and projected table
products, the counit triples shared by the monoidality deciders and the
shape cross-check, the convolutions id * S and S * id of one S, the adjoint
words of a rigidity structure, and whole verdicts on (instance, S) and
(instance, S, alpha, beta).  Each check whose body changed is kept here as
it was, verbatim, and compared with the shipped one on the catalog instances
of dimension at most 9, their duals, opposites and coopposites, on seeded
monomial scrambles, on perturbed structure constants where a check needs no
valid instance, and on maps and structures around the solved antipode.

The checks whose identities are linear in a basis element are now compared
as whole operators; the basis-by-basis loops they replaced are kept too, and
each is compared with its operator form on inputs that reach both verdicts.

The basis-pair loops of the subalgebra, product, commutator and
anti-multiplicativity tests, of dual_rigidity_structure and of
unit_representation_suite, which now read one pair-product kernel
(WeakBialgebra.products), are kept as well and compared with them.
"""

import dataclasses
import random

import pytest

from conftest import monomial_scramble
from test_kernels import SMALL, _perturbed_pool

# example2-rigidity is the dual of example1, which the records already have
NAMES = [name for name in SMALL if name != "example2-rigidity"]
from weakhopf import antipode, core, repcat, rigidity
from weakhopf.antipode import (
    AntipodeStatus,
    SelfCheckError,
    SeparabilityReport,
    SigmaMaps,
    NondegenerateFunctional,
    convolution_unit,
    is_anti_comultiplicative,
    is_anti_multiplicative,
    is_pode,
    is_pre_pode,
    solve_antipode,
)
from weakhopf.constructions import build_example1, example2_cross_map
from weakhopf.core import TheoremCheck, WeakBialgebra, _dual_action_operator, decide_axioms
from weakhopf.exactlin import (
    Matrix,
    Q,
    QZERO,
    Subspace,
    inverse,
    kernel,
    linear_combination,
    nonzeros,
    outer,
    outer_nonzeros,
    particular_solution,
    rank,
    vdot,
    vector_combination,
)
from weakhopf.repcat import unit_module
from weakhopf.rigidity import (
    RigidityStructure,
    RigidityVerification,
    TwistPair,
    dual_rigidity_structure,
    twist,
)

# ----------------------------------------------------------------------
# oracles: the structural-suite checks as they were
# ----------------------------------------------------------------------


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
            == dual.left_mult[t] * dual.delta1
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
            == dual.delta1 * dual.right_mult[t].transpose()
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
            == dual.right_mult[t] * dual.delta1
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
            == dual.delta1 * dual.left_mult[t].transpose()
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


def _counit_absorption_identities(algebra) -> bool:
    """Four exchange identities linking the projections with plain counits.

    Each identity sums over the coproduct legs of a, with b running over the
    basis: a_(2) proj_LL(b a_(1)) = a_(2) eps(b a_(1)) and its three mirrors.
    """
    n = algebra.dim
    basis = [algebra.basis_vector(i) for i in range(n)]
    mult = algebra.mult
    p = {k: algebra.projection(*k) for k in [("L", "L"), ("R", "R"), ("L", "R"), ("R", "L")]}
    for s in range(n):
        for t in range(n):
            sums = {key: [] for key in ("l1", "r1", "l2", "r2", "l3", "r3", "l4", "r4")}
            # u is the first coproduct leg of e_s, v the second
            for u, v, c in nonzeros(algebra.comult[s]):
                tu = mult[t][u]
                ut = mult[u][t]
                vt = mult[v][t]
                tv = mult[t][v]
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


def _counit_absorption_loop(algebra) -> bool:
    """The loop over (s, t) that the operator form of the check replaced."""
    n = algebra.dim
    basis = [algebra.basis_vector(i) for i in range(n)]
    mult = algebra.mult
    g = algebra.gram
    # each projected table product P(e_i e_j), once per (i, j)
    p_ll, p_rr, p_lr, p_rl = (
        [[proj.apply(ij) for ij in row] for row in mult]
        for proj in (algebra.projection(*key) for key in ("LL", "RR", "LR", "RL"))
    )
    for s in range(n):
        for t in range(n):
            sums = {key: [] for key in ("l1", "r1", "l2", "r2", "l3", "r3", "l4", "r4")}
            # u is the first coproduct leg of e_s, v the second; eps(e_i e_j)
            # is g[i, j]
            for u, v, c in nonzeros(algebra.comult[s]):
                sums["l1"].append((c, algebra.mul(basis[v], p_ll[t][u])))
                sums["r1"].append((c * g[t, u], basis[v]))
                sums["l2"].append((c, algebra.mul(p_rr[v][t], basis[u])))
                sums["r2"].append((c * g[v, t], basis[u]))
                sums["l3"].append((c, algebra.mul(p_lr[u][t], basis[v])))
                sums["r3"].append((c * g[u, t], basis[v]))
                sums["l4"].append((c, algebra.mul(basis[u], p_rl[t][v])))
                sums["r4"].append((c * g[t, v], basis[u]))
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
    # e_t acting on functionals from the left and from the right
    on_left = [m.transpose() for m in algebra.right_mult]
    on_right = [m.transpose() for m in algebra.left_mult]
    for phi in ehat_space.basis.data:
        for psi in e_space.basis.data:
            for t in range(algebra.dim):
                lhs = dual.eps(dual.mul(phi, on_left[t].apply(psi)))
                rhs = dual.eps(dual.mul(on_right[t].apply(phi), psi))
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


# ----------------------------------------------------------------------
# oracles: the basis-by-basis loops that the operator forms replaced
# ----------------------------------------------------------------------


def _projector_coproduct_loop(algebra, report) -> TheoremCheck:
    """Monoidal projections are idempotent with subalgebra images."""
    checks = []
    n = algebra.dim
    basis = [algebra.basis_vector(i) for i in range(n)]
    d1 = algebra.delta1
    sub = algebra.subspaces
    if report.left_monoidal:
        p_ll = algebra.projection("L", "L")
        p_rr = algebra.projection("R", "R")
        # column t of a projection is its image of e_t
        ll = p_ll.transpose().data
        rr = p_rr.transpose().data
        for t in range(n):
            # coproducts of projected elements collapse onto Delta(1)
            v = ll[t]
            checks.append(
                algebra.delta(v) == algebra.t2_mul(outer(v, algebra.unit), d1)
            )
            w = rr[t]
            checks.append(
                algebra.delta(w)
                == algebra.t2_mul(d1, outer(algebra.unit, w))
            )
        for s in range(n):
            a = ll[s]
            ar = rr[s]
            for t in range(n):
                checks.append(
                    algebra.mul(ll[t], a) == p_ll.apply(algebra.mul(basis[t], a))
                )
                checks.append(
                    algebra.mul(ar, rr[t]) == p_rr.apply(algebra.mul(ar, basis[t]))
                )
        checks.append(p_ll * p_ll == p_ll)
        checks.append(p_rr * p_rr == p_rr)
        checks.append(algebra.is_unital_subalgebra(sub["A_LL"]))
        checks.append(algebra.is_unital_subalgebra(sub["A_RR"]))
    if report.right_monoidal:
        p_rl = algebra.projection("R", "L")
        p_lr = algebra.projection("L", "R")
        rl = p_rl.transpose().data
        lr = p_lr.transpose().data
        for t in range(n):
            v = rl[t]
            checks.append(
                algebra.delta(v)
                == algebra.t2_mul(outer(algebra.unit, v), d1)
            )
            w = lr[t]
            checks.append(
                algebra.delta(w) == algebra.t2_mul(d1, outer(w, algebra.unit))
            )
        for s in range(n):
            a = rl[s]
            al = lr[s]
            for t in range(n):
                checks.append(algebra.mul(rl[t], a) == p_rl.apply(algebra.mul(basis[t], a)))
                checks.append(algebra.mul(al, lr[t]) == p_lr.apply(algebra.mul(al, basis[t])))
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


def _nondegenerate_pairings_loop(algebra, report) -> TheoremCheck:
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
    # e_t acting on functionals from the left and from the right, once each
    on_left = [m.transpose() for m in algebra.right_mult]
    on_right = [m.transpose() for m in algebra.left_mult]
    psi_acted = [[m.apply(psi) for m in on_left] for psi in e_space.basis.data]
    for phi in ehat_space.basis.data:
        phi_acted = [m.apply(phi) for m in on_right]
        for psi, acted in zip(e_space.basis.data, psi_acted):
            for t in range(algebra.dim):
                lhs = dual.eps(dual.mul(phi, acted[t]))
                rhs = dual.eps(dual.mul(phi_acted[t], psi))
                if lhs != rhs:
                    checks.append(False)
                    break
    return TheoremCheck("counit-pairings", True, all(checks))


def _multiplier_realization_loop(algebra) -> TheoremCheck:
    """Fixed-point subalgebras realized inside the endomorphisms of the
    algebra: left/right multipliers against the dual-action operators."""
    n = algebra.dim
    dual = algebra.dual
    nfix = algebra.fixed_point_subalgebras
    dfix = dual.fixed_point_subalgebras

    def q_op(sigma, v):
        return algebra.left_mult_of(v) if sigma == "L" else algebra.right_mult_of(v)

    ok = True
    span_q = {
        s: Subspace.from_spanning([m.flatten() for m in mults], n * n)
        for s, mults in (("L", algebra.left_mult), ("R", algebra.right_mult))
    }
    span_p = {
        s: Subspace.from_spanning(
            [
                _dual_action_operator(algebra, s, algebra.basis_vector(t)).flatten()
                for t in range(n)
            ],
            n * n,
        )
        for s in "LR"
    }
    for s in "LR":
        for sp in "LR":
            lhs = Subspace.from_spanning(
                [q_op(s, v).flatten() for v in nfix[(sp, s)].basis.data], n * n
            )
            rhs = Subspace.from_spanning(
                [
                    _dual_action_operator(algebra, sp, ph).flatten()
                    for ph in dfix[(s, sp)].basis.data
                ],
                n * n,
            )
            both = span_q[s].intersect(span_p[sp])
            if lhs != rhs or lhs != both:
                ok = False
    return TheoremCheck("multiplier-realization", True, ok)


def _counit_factorization_loop(algebra, report) -> TheoremCheck:
    """All equivalent presentations of each weak counit factorization axiom
    agree with the Gram-matrix decider."""
    n = algebra.dim
    eps_l = algebra.eps_maps["eps_l"]
    eps_r = algebra.eps_maps["eps_r"]
    ehat_l = algebra.eps_maps["epshat_l"]
    ehat_r = algebra.eps_maps["epshat_r"]
    # column t of a projection is its image of e_t
    ll, rr, rl, lr = (
        algebra.projection(*key).transpose().data
        for key in (("L", "L"), ("R", "R"), ("R", "L"), ("L", "R"))
    )
    # eps_l L_t and eps_r R_t, each shared by both sides
    eps_l_left = [eps_l * m for m in algebra.left_mult]
    eps_r_right = [eps_r * m for m in algebra.right_mult]
    left_forms = {
        "project-first": all(
            eps_l_left[t] == eps_l * algebra.left_mult_of(ll[t]) for t in range(n)
        ),
        "project-second": all(
            eps_r_right[t] == eps_r * algebra.right_mult_of(rr[t]) for t in range(n)
        ),
        "triple-compose-l": eps_l * ehat_l * eps_l == eps_l,
        "triple-compose-r": eps_r * ehat_r * eps_r == eps_r,
    }
    right_forms = {
        "project-first": all(
            eps_l_left[t] == eps_l * algebra.left_mult_of(rl[t]) for t in range(n)
        ),
        "project-second": all(
            eps_r_right[t] == eps_r * algebra.right_mult_of(lr[t]) for t in range(n)
        ),
        "triple-compose-l": eps_l * ehat_r * eps_l == eps_l,
        "triple-compose-r": eps_r * ehat_l * eps_r == eps_r,
    }
    ok = set(left_forms.values()) == {report.counit_factor_left} and set(
        right_forms.values()
    ) == {report.counit_factor_right}
    return TheoremCheck("counit-factorization-shapes", True, ok)


def _is_pode_loop(algebra, sbar: Matrix) -> bool:
    if not is_pre_pode(algebra, sbar):
        return False
    n = algebra.dim
    cols = sbar.transpose().data
    for k in range(n):
        terms = (
            (c, algebra.mul(algebra.mul(cols[l], algebra.basis_vector(j)), cols[i]))
            for (i, j, l), c in algebra.delta2(algebra.basis_vector(k)).items()
        )
        if vector_combination(terms, n) != cols[k]:
            return False
    return True


def _wedge_counit_exchange_loop(algebra, smaps) -> bool:
    """The wedge-counit-exchange block of antipode_theorem_suite as it was,
    on the wedge flips smaps."""
    sub = algebra.subspaces
    ok = True
    # each flip of a wedge basis vector, once
    for basis, first, second in (
        (sub["A_L"].basis.data, smaps.to_right, smaps.back_right),
        (sub["A_R"].basis.data, smaps.back_left, smaps.to_left),
    ):
        firsts = [first.apply(a) for a in basis]
        seconds = [second.apply(b) for b in basis]
        for a, fa in zip(basis, firsts):
            for b, sb in zip(basis, seconds):
                e0 = algebra.eps(algebra.mul(a, b))
                if e0 != algebra.eps(algebra.mul(fa, b)):
                    ok = False
                if e0 != algebra.eps(algebra.mul(a, sb)):
                    ok = False
    return ok


def _one_sided_absorption_loop(algebra, s) -> bool:
    """The one-sided-coproduct-absorption block of antipode_theorem_suite
    as it was, on the map s."""
    n = algebra.dim
    d1m = algebra.delta1
    absorb = True
    basis = [algebra.basis_vector(i) for i in range(n)]
    for k in range(n):
        d2 = algebra.delta2(basis[k]).items()
        # S(a_(1)) a_(2) (x) a_(3) and a_(1) (x) a_(2) S(a_(3))
        lhs1 = linear_combination(
            ((c, outer_nonzeros(algebra.mul(s.col(i), basis[j]), basis[l])) for (i, j, l), c in d2),
            n,
            n,
        )
        lhs2 = linear_combination(
            ((c, outer_nonzeros(basis[i], algebra.mul(basis[j], s.col(l)))) for (i, j, l), c in d2),
            n,
            n,
        )
        rhs1 = algebra.t2_mul(outer(algebra.unit, basis[k]), d1m)
        rhs2 = algebra.t2_mul(d1m, outer(basis[k], algebra.unit))
        if lhs1 != rhs1 or lhs2 != rhs2:
            absorb = False
            break
    return absorb


# ----------------------------------------------------------------------
# oracles: the antipode layer as it was
# ----------------------------------------------------------------------


def convolve(algebra: WeakBialgebra, s: Matrix, t: Matrix) -> Matrix:
    """Convolution product of two endomorphisms given by their matrices."""
    n = algebra.dim
    s_cols = s.transpose().data
    t_cols = t.transpose().data
    cols = [
        vector_combination(
            ((c, algebra.mul(s_cols[u], t_cols[v])) for u, v, c in legs), n
        )
        for legs in map(nonzeros, algebra.comult)
    ]
    return Matrix.from_columns(cols, n)


def _pre_antipode_holds(algebra, s: Matrix) -> bool:
    return (
        convolve(algebra, Matrix.identity(algebra.dim), s)
        == algebra.projection("L", "R")
        and convolve(algebra, s, Matrix.identity(algebra.dim))
        == algebra.projection("R", "L")
    )


def _antipode_law_holds(algebra, s: Matrix) -> bool:
    return convolve(algebra, convolve(algebra, s, Matrix.identity(algebra.dim)), s) == s


def sqcap_maps(algebra, s: Matrix):
    """The one-sided adjoint contractions a_(1) S(a_(2)) and S(a_(1)) a_(2)."""
    ident = Matrix.identity(algebra.dim)
    return convolve(algebra, ident, s), convolve(algebra, s, ident)


def is_normal_prerigidity_map(algebra, s: Matrix) -> bool:
    """Anti-multiplicative S whose adjoint contractions absorb the mixed
    projections and fix the unit (the normalized-structure criterion)."""
    if not decide_axioms(algebra).monoidal or not is_anti_multiplicative(algebra, s):
        return False
    cap_l, cap_r = sqcap_maps(algebra, s)
    return (
        cap_l * algebra.projection("L", "R") == cap_l
        and cap_r * algebra.projection("R", "L") == cap_r
        and cap_l.apply(algebra.unit) == algebra.unit
        and cap_r.apply(algebra.unit) == algebra.unit
    )


def normalize_pre_antipode(algebra, s_p: Matrix) -> Matrix:
    ident = Matrix.identity(algebra.dim)
    return convolve(algebra, convolve(algebra, s_p, ident), s_p)


def _status_for(algebra, s: Matrix) -> AntipodeStatus:
    n = algebra.dim
    anti_mult = is_anti_multiplicative(algebra, s)
    anti_comult = is_anti_comultiplicative(algebra, s)
    bij = rank(s) == n
    pode = False
    if bij:
        sinv = inverse(s)
        pode = is_pode(algebra, sinv)
    hopf = convolve(algebra, s, Matrix.identity(n)) == convolution_unit(algebra) and (
        convolve(algebra, Matrix.identity(n), s) == convolution_unit(algebra)
    )
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
        for space, fwd, other in ((a_l, s_l, a_r), (a_r, s_r, a_l)):
            img = Subspace.from_spanning(
                [fwd.apply(v) for v in space.basis.data], algebra.dim
            )
            if not other.contains_subspace(img):
                morph = False
            for a in space.basis.data:
                for b in space.basis.data:
                    if fwd.apply(algebra.mul(a, b)) != algebra.mul(
                        fwd.apply(b), fwd.apply(a)
                    ):
                        morph = False
        iso = morph
        for space, fwd, other in ((a_l, s_l, a_r), (a_r, s_r, a_l)):
            img = Subspace.from_spanning(
                [fwd.apply(v) for v in space.basis.data], algebra.dim
            )
            if img != other or space.dim != other.dim:
                iso = False
        for v in a_l.basis.data:
            if s_r.apply(sbar_l.apply(v)) != v:
                iso = False
            if sbar_r.apply(s_l.apply(v)) != v:
                iso = False
        for v in a_r.basis.data:
            if sbar_l.apply(s_r.apply(v)) != v:
                iso = False
            if s_l.apply(sbar_r.apply(v)) != v:
                iso = False
    return SigmaMaps(
        to_right=s_l,
        to_left=s_r,
        back_right=sbar_l,
        back_left=sbar_r,
        anti_morphisms=morph,
        anti_isomorphisms=iso,
    )


def quasi_basis(algebra: WeakBialgebra, omega, space: Subspace):
    """Form-inverse data of a functional restricted to a unital subalgebra.

    Returns None when the restricted pairing (m1, m2) -> omega(m1 m2) is
    degenerate.  Otherwise the dual tensor, its index and the modular
    automorphism are computed and their defining identities verified.
    """
    if not algebra.is_unital_subalgebra(space):
        raise ValueError("quasi-basis support must be a unital subalgebra")
    omega = tuple(omega)
    basis = space.basis.data
    k = len(basis)
    gram = Matrix(
        [[vdot(omega, algebra.mul(a, b)) for b in basis] for a in basis]
    ) if k else Matrix._empty(0)
    ginv = inverse(gram)
    if ginv is None:
        return None
    n = algebra.dim
    # the dual tensor sums ginv[j, l] basis[j] (x) basis[l]
    pairs = [(ginv[j, l], j, l) for j in range(k) for l in range(k) if ginv[j, l]]
    quasi = linear_combination(
        ((c, outer_nonzeros(basis[j], basis[l])) for c, j, l in pairs), n, n
    )
    index = vector_combination(
        ((c, algebra.mul(basis[j], basis[l])) for c, j, l in pairs), n
    )
    # the defining reproduction identities, then centrality of the tensor
    for m in basis:
        got = vector_combination(
            ((c * vdot(omega, algebra.mul(m, basis[j])), basis[l]) for c, j, l in pairs), n
        )
        got2 = vector_combination(
            ((c * vdot(omega, algebra.mul(basis[l], m)), basis[j]) for c, j, l in pairs), n
        )
        if got != m or got2 != m:
            raise SelfCheckError("quasi-basis reproduction identities failed")
        left = algebra.t2_mul(outer(m, algebra.unit), quasi)
        right = algebra.t2_mul(quasi, outer(algebra.unit, m))
        if left != right:
            raise SelfCheckError("quasi-basis centrality identity failed")
    for m in basis:
        if algebra.mul(index, m) != algebra.mul(m, index):
            raise SelfCheckError("index is not central in its subalgebra")
    modular = ginv * gram.transpose()
    auto = True
    theta = [vector_combination(zip(modular.col(i), basis), n) for i in range(k)]
    for i in range(k):
        for j in range(k):
            prod = algebra.mul(basis[i], basis[j])
            lhs = modular.apply(space.coordinates(prod))
            rhs = space.coordinates(algebra.mul(theta[i], theta[j]))
            if lhs != rhs:
                auto = False
    # omega(x y) = omega(y theta(x)) on basis pairs
    for i in range(k):
        for j in range(k):
            if vdot(omega, algebra.mul(basis[i], basis[j])) != vdot(
                omega, algebra.mul(basis[j], theta[i])
            ):
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
        formula = linear_combination(
            ((c, outer_nonzeros(left.col(u), right.col(v))) for u, v, c in nonzeros(d1)),
            n,
            n,
        )
        checks.append(
            TheoremCheck(
                "quasi-basis-formula-on-A_%s" % sigma, True, formula == qb.quasi_tensor
            )
        )
        if sigma == "L":
            composite = smaps.to_left * smaps.to_right
        else:
            composite = smaps.back_right * smaps.back_left
        agree = True
        for i, b in enumerate(space.basis.data):
            expect = vector_combination(zip(qb.modular.col(i), space.basis.data), n)
            if composite.apply(b) != expect:
                agree = False
        checks.append(TheoremCheck("modular-automorphism-on-A_%s" % sigma, True, agree))
        # separating idempotent in the enveloping product
        basis = space.basis.data
        k = len(basis)
        ginv = inverse(qb.gram)
        pairs = [(ginv[j, l], j, l) for j in range(k) for l in range(k) if ginv[j, l]]
        ee = linear_combination(
            (
                (c * cp, outer_nonzeros(algebra.mul(basis[j], basis[jp]), algebra.mul(basis[lp], basis[l])))
                for c, j, l in pairs
                for cp, jp, lp in pairs
            ),
            n,
            n,
        )
        idem = ee == qb.quasi_tensor
        checks.append(TheoremCheck("separating-idempotent-on-A_%s" % sigma, True, idem))
    return SeparabilityReport(applicable=True, checks=checks)


def antipode_theorem_suite(algebra: WeakBialgebra):
    """Implication lattice and corollaries for instances with an antipode,
    plus the wedge-flip and separability facts that need no antipode."""
    report = decide_axioms(algebra)
    checks = []
    sub = algebra.subspaces
    dual = algebra.dual

    # counit exchange on wedge elements (monoidal or comonoidal)
    if report.monoidal or report.comonoidal:
        smaps = sigma_maps(algebra)
        ok = True
        for a in sub["A_L"].basis.data:
            for b in sub["A_L"].basis.data:
                e0 = algebra.eps(algebra.mul(a, b))
                if e0 != algebra.eps(algebra.mul(smaps.to_right.apply(a), b)):
                    ok = False
                if e0 != algebra.eps(algebra.mul(a, smaps.back_right.apply(b))):
                    ok = False
        for a in sub["A_R"].basis.data:
            for b in sub["A_R"].basis.data:
                e0 = algebra.eps(algebra.mul(a, b))
                if e0 != algebra.eps(algebra.mul(smaps.back_left.apply(a), b)):
                    ok = False
                if e0 != algebra.eps(algebra.mul(a, smaps.to_left.apply(b))):
                    ok = False
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
            convolve(algebra, convolve(algebra, ident, s), ident) == ident,
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
    if status.bijective and a1 and report.monoidal:
        sinv = inverse(s)
        checks.append(TheoremCheck("pre-pode-flip", True, is_pre_pode(algebra, sinv)))
    if status.bijective and a2 and report.comonoidal:
        sinv = inverse(s)
        checks.append(TheoremCheck("pre-pode-flip-dual", True, is_pre_pode(algebra, sinv)))

    # one-sided coproduct absorption equivalent to right-comonoidality
    n = algebra.dim
    d1m = algebra.delta1
    absorb = True
    basis = [algebra.basis_vector(i) for i in range(n)]
    for k in range(n):
        d2 = algebra.delta2(basis[k]).items()
        # S(a_(1)) a_(2) (x) a_(3) and a_(1) (x) a_(2) S(a_(3))
        lhs1 = linear_combination(
            ((c, outer_nonzeros(algebra.mul(s.col(i), basis[j]), basis[l])) for (i, j, l), c in d2),
            n,
            n,
        )
        lhs2 = linear_combination(
            ((c, outer_nonzeros(basis[i], algebra.mul(basis[j], s.col(l)))) for (i, j, l), c in d2),
            n,
            n,
        )
        rhs1 = algebra.t2_mul(outer(algebra.unit, basis[k]), d1m)
        rhs2 = algebra.t2_mul(d1m, outer(basis[k], algebra.unit))
        if lhs1 != rhs1 or lhs2 != rhs2:
            absorb = False
            break
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


# ----------------------------------------------------------------------
# oracles: the rigidity layer as it was
# ----------------------------------------------------------------------


def _adjoint_maps(algebra, s, alpha, beta):
    """The adjoint maps a -> S(a_(1)) alpha a_(2) and a -> a_(1) beta S(a_(2)),
    as the convolutions (R_alpha S) * id and R_beta * S."""
    ident = Matrix.identity(algebra.dim)
    return (
        convolve(algebra, algebra.right_mult_of(alpha) * s, ident),
        convolve(algebra, algebra.right_mult_of(beta), s),
    )


def normalize_pair(algebra, s, alpha, beta):
    """Replace (alpha, beta) by their unit-adjoint normalizations."""
    adj_a, adj_b = _adjoint_maps(algebra, s, tuple(alpha), tuple(beta))
    return adj_a.apply(algebra.unit), adj_b.apply(algebra.unit)


def _dual_tensor_pair(algebra, s, alpha, beta):
    """Reconstruct the two defining tensors from (S, alpha, beta)."""
    n = algebra.dim
    e = algebra.basis_vector
    d2 = algebra.delta2(algebra.unit).items()
    amat = linear_combination(
        ((c, outer_nonzeros(algebra.mul(algebra.mul(s.col(p), alpha), e(q)), e(r))) for (p, q, r), c in d2),
        n,
        n,
    )
    bmat = linear_combination(
        ((c, outer_nonzeros(e(p), algebra.mul(algebra.mul(e(q), beta), s.col(r)))) for (p, q, r), c in d2),
        n,
        n,
    )
    return amat, bmat


def _unit_words(algebra, s, alpha, beta, x):
    """x_(1) beta S(x_(2)) alpha x_(3) and S(x_(1)) alpha x_(2) beta S(x_(3))."""
    mul = algebra.mul
    e = algebra.basis_vector
    d2 = algebra.delta2(x).items()
    first = vector_combination(
        ((c, mul(mul(mul(e(p), beta), s.col(q)), mul(alpha, e(r)))) for (p, q, r), c in d2),
        algebra.dim,
    )
    second = vector_combination(
        ((c, mul(mul(mul(s.col(p), alpha), e(q)), mul(beta, s.col(r)))) for (p, q, r), c in d2),
        algebra.dim,
    )
    return first, second


def verify_rigidity(algebra: WeakBialgebra, r: RigidityStructure) -> RigidityVerification:
    """Check the rigidity axioms; alpha and beta are normalized internally,
    so any representative pair generating the same structure verifies."""
    algebra.require_valid()
    witnesses = []
    report = decide_axioms(algebra)
    pre_ok = True
    if not report.monoidal:
        witnesses.append(("not-monoidal", None))
        pre_ok = False
    s = r.s
    if not is_anti_multiplicative(algebra, s):
        witnesses.append(("not-anti-multiplicative", None))
        pre_ok = False
    if not pre_ok:
        return RigidityVerification("failed", False, False, witnesses=witnesses)
    alpha = tuple(r.alpha)
    beta = tuple(r.beta)
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
    for t in range(n):
        lhs = adj_a * algebra.right_mult[t] * d1
        rhs = adj_a * d1 * (p_lr * algebra.left_mult[t]).transpose()
        if lhs != rhs:
            witnesses.append(("alpha-tensor-invariance", t))
            break
    for t in range(n):
        lhs = d1 * (adj_b * algebra.left_mult[t]).transpose()
        rhs = (p_rl * algebra.right_mult[t]) * d1 * adj_b.transpose()
        if lhs != rhs:
            witnesses.append(("beta-tensor-invariance", t))
            break
    # reconstructed dual tensors must interchange the two module actions
    amat, bmat = _dual_tensor_pair(algebra, s, a_n, b_n)
    for t in range(n):
        # S(e_t_(1)) . e_t_(2) acting on the first tensor
        op = linear_combination(
            (
                (c, nonzeros(algebra.left_mult_of(s.col(u)) * algebra.right_mult[v]))
                for u, v, c in nonzeros(algebra.comult[t])
            ),
            n,
            n,
        )
        if op * amat != amat * (p_lr * algebra.left_mult[t]).transpose():
            witnesses.append(("first-tensor-morphism", t))
            break
    for t in range(n):
        # e_t_(1) . S(e_t_(2)) acting on the second tensor
        op = linear_combination(
            (
                (c, nonzeros(algebra.left_mult[u] * algebra.right_mult_of(s.col(v))))
                for u, v, c in nonzeros(algebra.comult[t])
            ),
            n,
            n,
        )
        if bmat * op.transpose() != (p_rl * algebra.right_mult[t]) * bmat:
            witnesses.append(("second-tensor-morphism", t))
            break
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


def uniqueness_intertwiners(r1: RigidityStructure, r2: RigidityStructure) -> TwistPair:
    """The canonical pair intertwining two rigidity structures on the same
    algebra; every identity of the intertwining table is verified."""
    algebra = r1.algebra
    if r2.algebra != algebra:
        raise ValueError("structures live on different algebras")
    for r in (r1,) if r2 is r1 else (r1, r2):
        check = verify_rigidity(algebra, r)
        if check.status in ("failed", "pre_rigid"):
            raise ValueError("intertwiners need verified rigid structures")
    a1, b1 = normalize_pair(algebra, r1.s, r1.alpha, r1.beta)
    a2, b2 = normalize_pair(algebra, r2.s, r2.alpha, r2.beta)
    mul = algebra.mul
    e = algebra.basis_vector
    d2 = algebra.delta2(algebra.unit).items()
    # u = S2(1_(1)) a2 1_(2) b1 S1(1_(3)) and ubar with the structures swapped
    u = vector_combination(
        ((c, mul(mul(mul(r2.s.col(p), a2), e(q)), mul(b1, r1.s.col(rr)))) for (p, q, rr), c in d2),
        algebra.dim,
    )
    ubar = vector_combination(
        ((c, mul(mul(mul(r1.s.col(p), a1), e(q)), mul(b2, r2.s.col(rr)))) for (p, q, rr), c in d2),
        algebra.dim,
    )
    table = []
    for t in range(algebra.dim):
        table.append(
            algebra.mul(u, r1.s.col(t)) == algebra.mul(r2.s.col(t), u)
        )
        table.append(
            algebra.mul(ubar, r2.s.col(t)) == algebra.mul(r1.s.col(t), ubar)
        )
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


def _subspace_product_loop(self, u: Subspace, v: Subspace) -> Subspace:
    prods = []
    for a in u.basis.data:
        for b in v.basis.data:
            prods.append(self.mul(a, b))
    return Subspace.from_spanning(prods, self.dim)


def _is_unital_subalgebra_loop(self, s: Subspace) -> bool:
    if not s.contains(self.unit):
        return False
    for a in s.basis.data:
        for b in s.basis.data:
            if not s.contains(self.mul(a, b)):
                return False
    return True


def _commutator_vanishes_loop(self, u: Subspace, v: Subspace) -> bool:
    for a in u.basis.data:
        for b in v.basis.data:
            if self.mul(a, b) != self.mul(b, a):
                return False
    return True


def _is_anti_multiplicative_loop(algebra, s: Matrix) -> bool:
    """S(e_i e_j) = S(e_j) S(e_i) on basis pairs; kept per (instance, S)."""
    cols = s.transpose().data
    for i, row in enumerate(algebra.mult):
        for j, ij in enumerate(row):
            if s.apply(ij) != algebra.mul(cols[j], cols[i]):
                return False
    return True


def _dual_rigidity_structure_loop(b: WeakBialgebra, s_r: Matrix) -> RigidityStructure:
    """Build a rigidity structure on the dual of a minimal comonoidal
    instance from a linear bijection of its right wedge onto its left wedge,
    given in the canonical wedge bases.

    The transposed map together with the induced functionals is returned; the
    second functional is the counit itself, which normalizes onto the
    canonical representative during verification.  A cross map whose
    structure fails that verification raises ValueError, like the other
    unusable inputs.
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
    n = b.dim
    lbasis = a_l.basis.data
    rbasis = a_r.basis.data
    gram = Matrix(
        [[b.eps(b.mul(x, y)) for y in rbasis] for x in lbasis]
    )
    # pairing transpose of the inverse cross map
    gram_inv = inverse(gram)
    if gram_inv is None:
        raise ValueError("wedge pairing is degenerate")
    s_l = gram_inv * (gram * s_r_inv).transpose()
    z = a_l.intersect(a_r)
    for zv in z.basis.data:
        for j, rv in enumerate(rbasis):
            zx = a_r.coordinates(b.mul(zv, rv))
            if zx is None:
                raise ValueError("shared wedge does not act on the right wedge")
            mapped = vector_combination(zip(s_r.apply(zx), lbasis), n)
            direct = b.mul(zv, vector_combination(zip(s_r.col(j), lbasis), n))
            if mapped != direct:
                raise ValueError("cross map is not linear over the shared wedge")
    # decompose the ambient basis into wedge products
    pmat = Matrix.from_columns([b.mul(x, y) for x in lbasis for y in rbasis], n)
    decomp = []
    for t in range(n):
        res = particular_solution(pmat, b.basis_vector(t))
        if res is None:
            raise ValueError("instance is not spanned by wedge products")
        decomp.append(res)

    # s_l and s_r images of the wedge bases, and the flip of each wedge product
    s_l_elems = [vector_combination(zip(s_l.col(i), rbasis), n) for i in range(a_l.dim)]
    s_r_elems = [vector_combination(zip(s_r.col(j), lbasis), n) for j in range(a_r.dim)]
    flips = [b.mul(right, left) for left in s_l_elems for right in s_r_elems]
    for kv in kernel(pmat).basis.data:
        if any(vector_combination(zip(kv, flips), n)):
            raise ValueError("cross map does not descend to the instance")
    pairings = [
        b.eps(b.mul(left, rbasis[j])) for left in s_l_elems for j in range(a_r.dim)
    ]
    s_b = Matrix.from_columns(
        [vector_combination(zip(coeffs, flips), n) for coeffs in decomp], n
    )
    alphas = [vdot(coeffs, pairings) for coeffs in decomp]
    # the flip must be anti-comultiplicative so its transpose is an algebra
    # anti-morphism on the dual
    for t in range(n):
        if b.delta(s_b.col(t)) != s_b * b.comult[t].transpose() * s_b.transpose():
            raise SelfCheckError("constructed flip is not anti-comultiplicative")
    dual = b.dual
    structure = RigidityStructure(
        algebra=dual,
        s=s_b.transpose(),
        alpha=tuple(alphas),
        beta=b.counit,
    )
    check = verify_rigidity(dual, structure)
    if check.status in ("failed", "pre_rigid"):
        raise ValueError("constructed structure failed rigidity verification")
    structure.status = check.status
    return structure


def _unit_representation_suite_loop(algebra: WeakBialgebra):
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
        rel = []
        lb = dual.subspaces["A_L"].basis.data
        rb = dual.subspaces["A_R"].basis.data
        for zv in z.basis.data:
            for x in lb:
                xz = dual.mul(x, zv)
                for y in rb:
                    zy = dual.mul(zv, y)
                    vecr = [QZERO] * (len(lb) * len(rb))
                    cx = dual.subspaces["A_L"].coordinates(xz)
                    cy = dual.subspaces["A_R"].coordinates(zy)
                    for i, c in enumerate(cx):
                        for j, yv in enumerate(dual.subspaces["A_R"].coordinates(y)):
                            if c and yv:
                                vecr[i * len(rb) + j] += c * yv
                    for i, xv in enumerate(dual.subspaces["A_L"].coordinates(x)):
                        for j, c in enumerate(cy):
                            if xv and c:
                                vecr[i * len(rb) + j] -= xv * c
                    if any(vecr):
                        rel.append(tuple(vecr))
        amalg_dim = len(lb) * len(rb) - Subspace.from_spanning(
            rel, len(lb) * len(rb)
        ).dim
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


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------


def _records(entries, name):
    """The named catalog instance and its dual; up to dimension 6 also its
    opposite and coopposite, and up to dimension 4 a seeded monomial scramble
    of the instance and of its dual."""
    base = entries[name].algebra
    rng = random.Random("oracles:" + name)
    variants = [base, base.dual]
    if base.dim <= 6:
        variants += [base.opposite, base.coopposite]
    return variants + [monomial_scramble(a, rng) for a in variants[:2] if a.dim <= 4]


def _maps_near_the_antipode(algebra):
    """The identity, the solved antipode and a map one entry away from it."""
    n = algebra.dim
    maps = [Matrix.identity(n)]
    s = solve_antipode(algebra).matrix
    if s is not None:
        rows = [list(r) for r in s.data]
        rows[n - 1][0] += Q(-1, 2)
        maps += [s, Matrix(rows)]
    return maps


def _all_flags(entries):
    """An axiom report with every flag set, to drive each branch of a check
    on structure constants that are not a weak bialgebra."""
    return decide_axioms(entries["group:z2"].algebra)


# ----------------------------------------------------------------------
# the shipped checks against the oracles
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_structural_checks_match_oracles(entries, name):
    for algebra in _records(entries, name):
        report = decide_axioms(algebra)
        for right in (False, True):
            assert core._first_monoidal_witness(algebra, right) == _first_monoidal_witness(algebra, right)
        for left in (True, False):
            assert core._axiom_tensor_shapes(algebra, left) == _axiom_tensor_shapes(algebra, left)
        assert core._counit_absorption_identities(algebra) == _counit_absorption_identities(algebra)
        for new, old in (
            (core._projector_coproduct_forms, _projector_coproduct_forms),
            (core._nondegenerate_pairings, _nondegenerate_pairings),
            (core._wedge_anti_isomorphisms, _wedge_anti_isomorphisms),
            (core._counit_factorization_shapes, _counit_factorization_shapes),
        ):
            assert new(algebra, report) == old(algebra, report)
        assert core._fixed_point_mapping(algebra) == _fixed_point_mapping(algebra)


def test_structural_checks_match_oracles_off_the_axioms(entries):
    flags = _all_flags(entries)
    verdicts = []
    for algebra in _perturbed_pool(entries)[::4]:
        for right in (False, True):
            assert core._first_monoidal_witness(algebra, right) == _first_monoidal_witness(algebra, right)
        for left in (True, False):
            assert core._axiom_tensor_shapes(algebra, left) == _axiom_tensor_shapes(algebra, left)
        absorbed = core._counit_absorption_identities(algebra)
        assert absorbed == _counit_absorption_identities(algebra)
        verdicts.append(absorbed)
        for new, old in (
            (core._projector_coproduct_forms, _projector_coproduct_forms),
            (core._nondegenerate_pairings, _nondegenerate_pairings),
            (core._wedge_anti_isomorphisms, _wedge_anti_isomorphisms),
            (core._counit_factorization_shapes, _counit_factorization_shapes),
        ):
            check = new(algebra, flags)
            assert check == old(algebra, flags)
            verdicts.append(check.conclusion_holds)
        check = core._fixed_point_mapping(algebra)
        assert check == _fixed_point_mapping(algebra)
        verdicts.append(check.conclusion_holds)
    # the perturbed constants reach both verdicts, so the oracles can differ
    assert True in verdicts and False in verdicts


def test_counit_absorption_operator_form_matches_the_loop(entries):
    records = [algebra for name in NAMES for algebra in _records(entries, name)]
    verdicts = []
    for algebra in records + _perturbed_pool(entries):
        absorbed = core._counit_absorption_identities(algebra)
        assert absorbed == _counit_absorption_loop(algebra)
        verdicts.append(absorbed)
    # the one-constant perturbations reach both verdicts
    assert True in verdicts and False in verdicts


def test_structural_operator_forms_match_the_loops(entries):
    """Each structural check now compared as whole operators against its
    basis-by-basis loop: on the catalog records with their own axiom
    reports, and on the one-constant perturbations with every flag set and
    with the counit-factorization flags the Gram-matrix decider gives (no
    catalog record has them differ, which one-sided shapes need)."""
    records = [algebra for name in NAMES for algebra in _records(entries, name)]
    flags = _all_flags(entries)
    cases = [(algebra, decide_axioms(algebra)) for algebra in records]
    for algebra in _perturbed_pool(entries):
        g, d1 = algebra.gram, algebra.delta1
        gram_flags = dataclasses.replace(
            flags,
            counit_factor_left=g == g * d1 * g,
            counit_factor_right=g == g * d1.transpose() * g,
        )
        cases += [(algebra, flags), (algebra, gram_flags)]
    verdicts = {}
    for algebra, report in cases:
        for new, old in (
            (core._projector_coproduct_forms, _projector_coproduct_loop),
            (core._nondegenerate_pairings, _nondegenerate_pairings_loop),
            (core._counit_factorization_shapes, _counit_factorization_loop),
            (lambda a, _: core._multiplier_realization(a), lambda a, _: _multiplier_realization_loop(a)),
        ):
            check = new(algebra, report)
            assert check == old(algebra, report)
            verdicts.setdefault(check.name, set()).add(check.conclusion_holds)
    # every site reaches both verdicts, so the two forms can differ
    assert verdicts == dict.fromkeys(verdicts, {True, False})


def test_agree_on_image_compares_only_projected_elements():
    """A hand-built idempotent P with P e_0 = e_0, P e_1 = e_1 and
    P e_2 = e_0 + e_1, and operator families that differ at e_2 only
    (outside the image, so they agree at every P e_t) or also at e_1 (one
    projected basis element).  Comparing the stacked families without P^t,
    or through P in place of P^t, gets the first verdict wrong."""
    p = Matrix([[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    assert p * p == p
    ops = [Matrix([[1, 2], [0, 1]]), Matrix([[0, 1], [1, 0]]), Matrix([[3, 0], [0, 0]])]
    off_image = ops[:2] + [Matrix([[3, 0], [0, 5]])]
    on_image = [ops[0], Matrix([[0, 1], [1, 1]]), off_image[2]]
    assert core._agree_on_image(p, ops, ops, 2)
    assert core._agree_on_image(p, ops, off_image, 2)
    assert not core._agree_on_image(p, ops, on_image, 2)


def test_antipode_operator_forms_match_the_loops(entries, monkeypatch):
    """The antipode-suite sites against their loops on the catalog records,
    with maps around the solved antipode, doubled wedge flips, and (for the
    pode identity) the pre-pode gate switched off so that both verdicts of
    the summed identity are reached.  The absorption identity is compared
    on valid instances only: its operator form relies on coassociativity."""
    verdicts = {"absorption": set(), "exchange": set(), "pode": set(), "pode-law": set()}
    pode_maps = []
    for name in NAMES:
        for algebra in _records(entries, name):
            for s in _maps_near_the_antipode(algebra):
                absorbed = antipode._one_sided_coproduct_absorption(algebra, s)
                assert absorbed == _one_sided_absorption_loop(algebra, s)
                verdicts["absorption"].add(absorbed)
                maps = [s] + ([inverse(s)] if rank(s) == algebra.dim else [])
                for sbar in maps:
                    pode = antipode.is_pode(algebra, sbar)
                    assert pode == _is_pode_loop(algebra, sbar)
                    verdicts["pode"].add(pode)
                    pode_maps.append((algebra, sbar))
            smaps = antipode.sigma_maps(algebra)
            doubled = SigmaMaps(*(m + m for m in (smaps.to_right, smaps.to_left, smaps.back_right, smaps.back_left)))
            for flips in (smaps, doubled):
                exchanged = antipode._wedge_counit_exchange(algebra, flips)
                assert exchanged == _wedge_counit_exchange_loop(algebra, flips)
                verdicts["exchange"].add(exchanged)
    with monkeypatch.context() as patch:
        ungated = lambda algebra, sbar: True  # noqa: E731
        patch.setattr(antipode, "is_pre_pode", ungated)
        patch.setitem(globals(), "is_pre_pode", ungated)
        for algebra, sbar in pode_maps:
            law = antipode.is_pode(algebra, sbar)
            assert law == _is_pode_loop(algebra, sbar)
            verdicts["pode-law"].add(law)
    assert verdicts == dict.fromkeys(verdicts, {True, False})


@pytest.mark.parametrize("name", NAMES)
def test_antipode_layer_matches_oracles(entries, name):
    for algebra in _records(entries, name):
        assert antipode.antipode_theorem_suite(algebra) == antipode_theorem_suite(algebra)
        assert antipode.sigma_maps(algebra) == sigma_maps(algebra)
        assert antipode.separability_suite(algebra) == separability_suite(algebra)
        for sigma in "LR":
            space = algebra.subspaces["A_%s" % sigma]
            if algebra.is_unital_subalgebra(space):
                for omega in (algebra.counit, tuple(Q(i + 1) for i in range(algebra.dim))):
                    assert antipode.quasi_basis(algebra, omega, space) == quasi_basis(algebra, omega, space)
        for s in _maps_near_the_antipode(algebra):
            assert antipode.sqcap_maps(algebra, s) == sqcap_maps(algebra, s)
            assert antipode._pre_antipode_holds(algebra, s) == _pre_antipode_holds(algebra, s)
            assert antipode._antipode_law_holds(algebra, s) == _antipode_law_holds(algebra, s)
            assert antipode.is_normal_prerigidity_map(algebra, s) == is_normal_prerigidity_map(algebra, s)
            assert antipode.normalize_pre_antipode(algebra, s) == normalize_pre_antipode(algebra, s)
            assert antipode._status_for(algebra, s) == _status_for(algebra, s)


def _structures(algebra):
    """(S, alpha, beta) for each map of _maps_near_the_antipode, with alpha
    and beta the unit, alpha twice the unit, and alpha the counit."""
    one = algebra.unit
    two = tuple(2 * x for x in one)
    out = []
    for s in _maps_near_the_antipode(algebra):
        for alpha, beta in ((one, one), (two, one), (algebra.counit, one)):
            out.append(RigidityStructure(algebra, s, alpha, beta))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_rigidity_layer_matches_oracles(entries, name):
    for algebra in _records(entries, name):
        if not decide_axioms(algebra).monoidal:
            continue
        for r in _structures(algebra):
            check = rigidity.verify_rigidity(algebra, r)
            assert check == verify_rigidity(algebra, r)
            if check.status in ("failed", "pre_rigid"):
                continue
            a_n, b_n = check.normalized_alpha, check.normalized_beta
            # verify_rigidity compares the words on the unit; conjugation
            # data compares them on each basis vector
            for t in range(algebra.dim):
                x = algebra.basis_vector(t)
                assert rigidity._unit_words(algebra, r.s, a_n, b_n, x) == _unit_words(algebra, r.s, a_n, b_n, x)
            adj_a, adj_b = rigidity._adjoint_maps(algebra, r.s, a_n, b_n)
            d1 = algebra.delta1
            assert (adj_a * d1, d1 * adj_b.transpose()) == _dual_tensor_pair(algebra, r.s, a_n, b_n)
            assert rigidity.uniqueness_intertwiners(r, r) == uniqueness_intertwiners(r, r)


def test_rigidity_layer_matches_oracles_on_distinct_structures(entries):
    """Intertwiners and twists between two different structures: example 2
    against the structure of the identity cross map, and a normal structure
    on bsz-dual:2 against one twisted by an invertible u."""
    base = build_example1()
    first = dual_rigidity_structure(base, example2_cross_map())
    second = dual_rigidity_structure(base, Matrix.identity(3))
    alg = entries["bsz-dual:2"].algebra
    normal = RigidityStructure(alg, solve_antipode(alg).matrix, alg.unit, alg.unit)
    u = tuple(Q(x) for x in (1, 2, 2, 1))
    twisted = twist(normal, TwistPair(u=u, ubar=inverse(alg.left_mult_of(u)).apply(alg.unit)))
    for r1, r2 in ((first, second), (normal, twisted)):
        for a, b in ((r1, r2), (r2, r1), (r1, r1), (r2, r2)):
            assert rigidity.verify_rigidity(a.algebra, a) == verify_rigidity(a.algebra, a)
            assert rigidity.uniqueness_intertwiners(a, b) == uniqueness_intertwiners(a, b)


def _subspaces(algebra, rng):
    """The distinguished subspaces, fixed-point subalgebras and center of an
    instance, and two random ones: a line and a plane."""
    n = algebra.dim
    spaces = list(algebra.subspaces.values()) + list(algebra.fixed_point_subalgebras.values())
    spaces.append(algebra.center)
    for k in (1, 2):
        vectors = [tuple(Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)) for _ in range(k)]
        spaces.append(Subspace.from_spanning(vectors, n))
    return spaces


def test_pair_product_sites_match_the_loops(entries):
    """products against mul pair by pair, and the subalgebra, product,
    commutator and anti-multiplicativity tests against their basis-pair
    loops, on the catalog records with their subspaces, random subspaces
    and maps around the solved antipode."""
    rng = random.Random("oracles:pair-products")
    verdicts = {"unital": set(), "commute": set(), "anti": set()}
    for name in NAMES:
        for algebra in _records(entries, name):
            n = algebra.dim
            spaces = _subspaces(algebra, rng)
            for u in spaces:
                x = u.basis
                for v in spaces[::3]:
                    y = v.basis
                    prods = algebra.products(x, y)
                    swapped = algebra.reversed_products(x, y)
                    assert (prods.rows, prods.cols) == (x.rows * y.rows, n)
                    for i, a in enumerate(x.data):
                        for j, b in enumerate(y.data):
                            assert prods.row(i * y.rows + j) == algebra.mul(a, b)
                            assert swapped.row(i * y.rows + j) == algebra.mul(b, a)
                    assert algebra.subspace_product(u, v) == _subspace_product_loop(algebra, u, v)
                    commute = algebra.commutator_vanishes(u, v)
                    assert commute == _commutator_vanishes_loop(algebra, u, v)
                    verdicts["commute"].add(commute)
                unital = algebra.is_unital_subalgebra(u)
                assert unital == _is_unital_subalgebra_loop(algebra, u)
                verdicts["unital"].add(unital)
            for s in _maps_near_the_antipode(algebra):
                anti = is_anti_multiplicative(algebra, s)
                assert anti == _is_anti_multiplicative_loop(algebra, s)
                verdicts["anti"].add(anti)
    assert verdicts == dict.fromkeys(verdicts, {True, False})


def _outcome(build, *args):
    """What build returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except (ValueError, SelfCheckError) as err:
        return type(err), str(err)


def test_dual_rigidity_structure_matches_the_loop(entries):
    """Example 2 and the identity cross map on example 1, the unusable maps
    of the rigidity tests, and, on every minimal comonoidal catalog record
    of dimension at most 6, the identity and a random map of the wedges."""
    rng = random.Random("oracles:dual-rigidity")
    base = build_example1()
    cases = [(base, example2_cross_map()), (base, Matrix.identity(3)), (base, Matrix.identity(2))]
    cases += [(base, Matrix([[1, 0, 0], [1, 0, 0], [0, 0, 1]])), (base, Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))]
    cases.append((entries["group:z2"].algebra, Matrix.identity(1)))
    for name in NAMES:
        for algebra in _records(entries, name):
            report = decide_axioms(algebra)
            if algebra.dim > 6 or not (report.comonoidal and report.minimal):
                continue
            k, r = algebra.subspaces["A_L"].dim, algebra.subspaces["A_R"].dim
            cases.append((algebra, Matrix.identity(k)))
            cases.append((algebra, Matrix([[Q(rng.randint(-2, 2)) for _ in range(r)] for _ in range(k)])))
    built = set()
    for algebra, cross in cases:
        got = _outcome(rigidity.dual_rigidity_structure, algebra, cross)
        assert got == _outcome(_dual_rigidity_structure_loop, algebra, cross)
        built.add(isinstance(got, RigidityStructure))
    assert built == {True, False}


def test_unit_representation_suite_matches_the_loop(entries):
    checks = set()
    for name in NAMES:
        for algebra in _records(entries, name):
            if algebra.dim > 6:
                continue
            got = repcat.unit_representation_suite(algebra)
            assert got == _unit_representation_suite_loop(algebra)
            checks.update(c.name for c in got)
    assert "free-amalgamation-equivalence" in checks
