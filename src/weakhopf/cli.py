"""Command-line front end.

Exit codes: 0 when the requested check passes, 1 on a mathematical failure
(axiom violations, negative verdicts, failed preconditions), 2 on input or
parse failures.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .antipode import classify_weak_hopf, solve_antipode
from .constructions import (
    Algebra,
    Amalgamation,
    CatalogNameError,
    ConstructionError,
    HopfAlgebra,
    ModuleAlgebraAction,
    catalog,
    catalog_names,
    minimal_from_idempotent,
    minimal_weak_hopf,
    named_ad_crossed_product,
    two_sided_crossed_product,
)
from .core import AlgebraDataError, decide_axioms
from .exactlin import QZERO
from .repcat import (
    coherence_report,
    end_of_unit,
    regular_module,
    tensor_module,
    unit_module_report,
)
from .rigidity import (
    RigidityStructure,
    TwistPair,
    dual_rigidity_structure,
    twist,
    uniqueness_intertwiners,
    verify_rigidity,
)
from .serialize import (
    ParseError,
    algebra_to_document,
    document_to_algebra,
    dumps,
    load_path,
    matrix_to_lists,
    parse_dim,
    parse_labels,
    parse_matrix,
    parse_sparse_entries,
    parse_vector,
    vector_to_list,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def _emit(doc, args, text_renderer=None):
    if getattr(args, "format", "json") == "text" and text_renderer is not None:
        payload = text_renderer(doc)
    else:
        payload = dumps(doc)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            # an unwritable --out path is bad input, like an unreadable file
            raise ParseError("cannot write %s: %s" % (out, exc)) from exc
    else:
        sys.stdout.write(payload)


def _labels(algebra, witness):
    if witness is None:
        return None
    return [algebra.labels[i] for i in witness]


def _violation_doc(algebra, limit):
    return [
        {"axiom": name, "witness": _labels(algebra, witness)}
        for name, witness in algebra.violations[:limit]
    ]


def _axiom_doc(algebra, report, limit):
    witnesses = {}
    if limit > 0:
        for key, tup in report.witnesses.items():
            witnesses[key] = _labels(algebra, tup)
    return {
        "left_monoidal": report.left_monoidal,
        "right_monoidal": report.right_monoidal,
        "monoidal": report.monoidal,
        "left_comonoidal": report.left_comonoidal,
        "right_comonoidal": report.right_comonoidal,
        "comonoidal": report.comonoidal,
        "bimonoidal": report.bimonoidal,
        "counit_factorization": {
            "left": report.counit_factor_left,
            "right": report.counit_factor_right,
        },
        "minimal": report.minimal,
        "cominimal": report.cominimal,
        "dimensions": {
            "algebra": report.dim,
            "A_L": report.dim_al,
            "A_R": report.dim_ar,
            "A_L_cap_A_R": report.dim_al_cap_ar,
            "projection_images": report.dims_a_sigma,
            "fixed_point_subalgebras": report.dims_n_sigma,
        },
        "witnesses": witnesses,
    }


def _antipode_doc(status):
    doc = {"kind": status.kind}
    if status.matrix is not None:
        doc.update(
            {
                "anti_multiplicative": status.anti_multiplicative,
                "anti_comultiplicative": status.anti_comultiplicative,
                "bijective": status.bijective,
                "pode_inverse": status.pode_inverse,
                "normal_rigidity": status.normal_rigidity,
                "matrix": matrix_to_lists(status.matrix),
            }
        )
    return doc


def _render_report_text(doc):
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append("%s:" % key)
            for k2, v2 in value.items():
                lines.append("  %s: %s" % (k2, v2))
        else:
            lines.append("%s: %s" % (key, value))
    return "\n".join(lines) + "\n"


def _load_algebra(path):
    doc = load_path(path)
    return doc, document_to_algebra(doc)


def cmd_validate(args):
    doc, algebra = _load_algebra(args.path)
    bad = algebra.violations
    out = {
        "valid": not bad,
        "dim": algebra.dim,
        "violations": _violation_doc(algebra, args.witness_limit),
    }
    _emit(out, args, _render_report_text)
    return EXIT_OK if not bad else EXIT_MATH


def cmd_report(args):
    doc, algebra = _load_algebra(args.path)
    if algebra.violations:
        out = {
            "valid": False,
            "violations": _violation_doc(algebra, args.witness_limit),
        }
        _emit(out, args, _render_report_text)
        return EXIT_MATH
    wh = classify_weak_hopf(algebra)
    out = {
        "valid": True,
        "axioms": _axiom_doc(algebra, wh.axioms, args.witness_limit),
        "antipode": _antipode_doc(wh.antipode),
        "weak_hopf": wh.is_weak_hopf,
        "ordinary_hopf": wh.is_ordinary_hopf,
    }
    _emit(out, args, _render_report_text)
    return EXIT_OK


def cmd_dual(args):
    doc, algebra = _load_algebra(args.path)
    algebra.require_valid()
    _emit(algebra_to_document(algebra.dual), args)
    return EXIT_OK


def cmd_antipode(args):
    doc, algebra = _load_algebra(args.path)
    if algebra.violations:
        _emit({"valid": False}, args, _render_report_text)
        return EXIT_MATH
    status = solve_antipode(algebra)
    _emit(_antipode_doc(status), args, _render_report_text)
    return EXIT_OK


def _extras(doc) -> dict:
    """The extras object of a parsed document, {} when there is none."""
    extras = doc.get("extras", {})
    if not isinstance(extras, dict):
        raise ParseError("extras must be an object")
    return extras


def _structure_from_extras(algebra, extras, key="rigidity"):
    data = extras.get(key)
    if not isinstance(data, dict):
        raise ParseError("missing %r data in extras" % key)
    s = parse_matrix(data.get("s"), algebra.dim, algebra.dim)
    alpha = parse_vector(data.get("alpha"), algebra.dim)
    beta = parse_vector(data.get("beta"), algebra.dim)
    return RigidityStructure(algebra, s, alpha, beta)


def _structure_data(structure) -> dict:
    """A rigidity structure as the rigidity entry of a document's extras."""
    return {
        "s": matrix_to_lists(structure.s),
        "alpha": vector_to_list(structure.alpha),
        "beta": vector_to_list(structure.beta),
        "status": structure.status,
    }


def _rigidity_doc(structure, check):
    return {
        "status": check.status,
        "input_normalized": check.input_normalized,
        "alpha": vector_to_list(structure.alpha),
        "beta": vector_to_list(structure.beta),
        "normalized_alpha": vector_to_list(check.normalized_alpha)
        if check.normalized_alpha is not None
        else None,
        "normalized_beta": vector_to_list(check.normalized_beta)
        if check.normalized_beta is not None
        else None,
        "witnesses": [name for name, _ in check.witnesses],
    }


def cmd_rigidity(args):
    doc, algebra = _load_algebra(args.path)
    extras = _extras(doc)
    if args.sub == "example2":
        cross = extras.get("cross_map")
        if cross is None:
            raise ParseError("extras.cross_map is required")
        structure = dual_rigidity_structure(algebra, parse_matrix(cross))
        rigid = {"rigidity": _structure_data(structure)}
        _emit(algebra_to_document(structure.algebra, extras=rigid), args)
        return EXIT_OK
    structure = _structure_from_extras(algebra, extras)
    if args.sub == "verify":
        check = verify_rigidity(algebra, structure)
        _emit(_rigidity_doc(structure, check), args, _render_report_text)
        return EXIT_OK if check.status not in ("failed",) else EXIT_MATH
    if args.sub == "twist":
        pair_data = extras.get("twist")
        if not isinstance(pair_data, dict):
            raise ParseError("missing extras.twist pair")
        pair = TwistPair(
            u=parse_vector(pair_data.get("u"), algebra.dim),
            ubar=parse_vector(pair_data.get("ubar"), algebra.dim),
        )
        try:
            twisted = twist(structure, pair)
        except ValueError as exc:
            _emit({"error": str(exc)}, args, _render_report_text)
            return EXIT_MATH
        _emit(algebra_to_document(algebra, extras={"rigidity": _structure_data(twisted)}), args)
        return EXIT_OK
    if args.sub == "intertwine":
        second = _structure_from_extras(algebra, extras, key="rigidity2")
        pair = uniqueness_intertwiners(structure, second)
        _emit(
            {"u": vector_to_list(pair.u), "ubar": vector_to_list(pair.ubar)},
            args,
            _render_report_text,
        )
        return EXIT_OK
    raise ParseError("unknown rigidity subcommand %r" % args.sub)


def _algebra_input(data) -> Algebra:
    if not isinstance(data, dict):
        raise ParseError("algebra inputs must be objects")
    n = parse_dim(data.get("dim"), "algebra input needs a dimension")
    mult = [[[QZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in parse_sparse_entries(data.get("mult", []), n):
        mult[i][j][k] = c
    unit = parse_vector(data.get("unit", []), n)
    try:
        return Algebra.build(n, mult, unit, labels=parse_labels(data.get("basis"), n))
    except ConstructionError as exc:
        raise ParseError("bad algebra input: %s" % exc) from exc


def _amalgamation_input(data, a1, a2):
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ParseError("amalgamation must be an object")
    into_first = data.get("into_first")
    into_second = data.get("into_second")
    if not isinstance(into_first, list) or not isinstance(into_second, list):
        raise ParseError("amalgamation needs into_first and into_second lists")
    if len(into_first) != len(into_second):
        raise ParseError("into_first and into_second differ in length")
    return Amalgamation(
        dim=len(into_first),
        into_first=tuple(parse_vector(v, a1.dim) for v in into_first),
        into_second=tuple(parse_vector(v, a2.dim) for v in into_second),
    )


def cmd_construct(args):
    if args.sub == "adcross":
        if not args.group or not args.subgroup:
            raise ParseError("adcross needs --group and --subgroup")
        algebra, antipode = named_ad_crossed_product(args.group, args.subgroup)
        _emit(
            algebra_to_document(
                algebra, extras={"antipode": matrix_to_lists(antipode)}
            ),
            args,
        )
        return EXIT_OK
    if not args.path:
        raise ParseError("construction inputs come from a JSON file")
    doc = load_path(args.path)
    if not isinstance(doc, dict):
        raise ParseError("construction inputs must be an object")
    if args.sub == "minimal":
        a1 = _algebra_input(doc.get("a1"))
        a2 = _algebra_input(doc.get("a2"))
        p = parse_matrix(doc.get("p"), a2.dim, a1.dim)
        algebra = minimal_from_idempotent(
            a1, a2, p, _amalgamation_input(doc.get("amalgamation"), a1, a2)
        )
        _emit(algebra_to_document(algebra), args)
        return EXIT_OK
    if args.sub == "minhopf":
        a1 = _algebra_input(doc.get("a1"))
        a2 = _algebra_input(doc.get("a2"))
        omega = parse_vector(doc.get("omega"), a1.dim)
        s_r = parse_matrix(doc.get("s_r"), a1.dim, a2.dim)
        algebra, antipode = minimal_weak_hopf(
            a1, a2, omega, s_r, _amalgamation_input(doc.get("amalgamation"), a1, a2)
        )
        _emit(
            algebra_to_document(
                algebra, extras={"antipode": matrix_to_lists(antipode)}
            ),
            args,
        )
        return EXIT_OK
    if args.sub == "crossed":
        a_l = _algebra_input(doc.get("a_l"))
        hopf_doc = doc.get("hopf")
        hopf_alg = document_to_algebra(hopf_doc)
        antipode = parse_matrix(
            _extras(hopf_doc).get("antipode"), hopf_alg.dim, hopf_alg.dim
        )
        hopf = HopfAlgebra.build(hopf_alg, antipode)
        actions = doc.get("action", [])
        if not isinstance(actions, list) or len(actions) != hopf_alg.dim:
            raise ParseError("action needs one matrix per Hopf basis vector")
        matrices = tuple(parse_matrix(m, a_l.dim, a_l.dim) for m in actions)
        action = ModuleAlgebraAction(hopf, a_l, matrices)
        a_r = _algebra_input(doc.get("a_r"))
        omega = parse_vector(doc.get("omega"), a_l.dim)
        s_r = parse_matrix(doc.get("s_r"), a_l.dim, a_r.dim)
        algebra, s_matrix = two_sided_crossed_product(
            a_l, hopf, action, omega, a_r, s_r
        )
        _emit(
            algebra_to_document(
                algebra, extras={"antipode": matrix_to_lists(s_matrix)}
            ),
            args,
        )
        return EXIT_OK
    raise ParseError("unknown construct subcommand %r" % args.sub)


def cmd_catalog(args):
    if args.sub == "list":
        _emit({"names": catalog_names()}, args, _render_report_text)
        return EXIT_OK
    if args.sub == "emit":
        if not args.name:
            raise ParseError("catalog emit needs an instance name")
        entry = catalog(args.name)
        extras = {}
        if entry.antipode is not None:
            extras["antipode"] = matrix_to_lists(entry.antipode)
        if entry.rigidity is not None:
            extras["rigidity"] = _structure_data(entry.rigidity)
        _emit(algebra_to_document(entry.algebra, extras=extras or None), args)
        return EXIT_OK
    raise ParseError("unknown catalog subcommand %r" % args.sub)


def cmd_rep(args):
    doc, algebra = _load_algebra(args.path)
    algebra.require_valid()
    module = regular_module(algebra)
    if args.sub == "tensor":
        trunc = tensor_module(module, module)
        out = {
            "plain_dimension": module.dim * module.dim,
            "truncated_dimension": trunc.rep.dim,
        }
        _emit(out, args, _render_report_text)
        return EXIT_OK
    if args.sub == "unit":
        rep, carrier, checks = unit_module_report(algebra)
        out = {
            "dimension": rep.dim,
            "checks": {c.name: c.conclusion_holds for c in checks},
        }
        _emit(out, args, _render_report_text)
        return EXIT_OK if all(not c.failed for c in checks) else EXIT_MATH
    if args.sub == "end":
        report = end_of_unit(algebra)
        out = {
            "dimension": report.dim_end,
            "checks": {c.name: c.conclusion_holds for c in report.checks},
        }
        _emit(out, args, _render_report_text)
        return EXIT_OK if report.ok else EXIT_MATH
    if args.sub == "coherence":
        maps, left_natural, right_natural = coherence_report(module)
        report = decide_axioms(algebra)
        out = {
            "left_natural": left_natural,
            "right_natural": right_natural,
            "left_monoidal": report.left_monoidal,
            "right_monoidal": report.right_monoidal,
            "retractions": {c.name: c.conclusion_holds for c in maps.checks},
        }
        _emit(out, args, _render_report_text)
        agree = left_natural == report.left_monoidal and right_natural == report.right_monoidal
        return EXIT_OK if agree and all(not c.failed for c in maps.checks) else EXIT_MATH
    raise ParseError("unknown rep subcommand %r" % args.sub)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to a file instead of stdout")
    common.add_argument(
        "--witness-limit",
        type=int,
        default=1,
        help="validate and report list at most this many violated axioms, "
        "and report --witness-limit 0 hides the axiom-class witnesses "
        "(default 1; must be at least 0)",
    )
    common.add_argument("--format", choices=["json", "text"], default="json")

    parser = argparse.ArgumentParser(
        prog="weakhopf",
        description="Exact computations with finite-dimensional weak bialgebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", parents=[common], help="check the five structural axioms")
    p.add_argument("path")

    p = subs.add_parser("report", parents=[common], help="axiom classes, dimensions and antipode")
    p.add_argument("path")

    p = subs.add_parser("dual", parents=[common], help="emit the dual presentation")
    p.add_argument("path")

    p = subs.add_parser("antipode", parents=[common], help="solve for the antipode")
    p.add_argument("path")

    p = subs.add_parser("rigidity", parents=[common], help="rigidity structure operations")
    p.add_argument("sub", choices=["verify", "twist", "intertwine", "example2"])
    p.add_argument("path")

    p = subs.add_parser("construct", parents=[common], help="run a catalog construction")
    p.add_argument("sub", choices=["minimal", "minhopf", "crossed", "adcross"])
    p.add_argument("path", nargs="?")
    p.add_argument("--group")
    p.add_argument("--subgroup")

    p = subs.add_parser("catalog", parents=[common], help="list or emit catalog instances")
    p.add_argument("sub", choices=["list", "emit"])
    p.add_argument("name", nargs="?")

    p = subs.add_parser("rep", parents=[common], help="regular-module computations")
    p.add_argument("sub", choices=["tensor", "unit", "end", "coherence"])
    p.add_argument("path")

    return parser


# built on the first call and kept: a parser costs about a millisecond
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.witness_limit < 0:
            raise ParseError("--witness-limit must be at least 0, got %d" % args.witness_limit)
        # looked up per call, so a replaced cmd_* function is the one that runs
        return globals()["cmd_" + args.command](args)
    except (ParseError, AlgebraDataError, CatalogNameError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except (ConstructionError, ValueError) as exc:
        sys.stderr.write("failed: %s\n" % exc)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
