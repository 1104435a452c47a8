"""Seeded inputs and the per-item work of each workload.

Every workload is a list of items sent one at a time: the caller submits an
item, waits for its verdict, checks it against the oracle and only then
sends the next (a closed loop with one client).  A pass is one trip through
the list.  The inputs are generated here from the seed, not taken from the
test suite, so editing a test cannot change them.
"""

import json
import os
import random
import sys
import traceback
from collections import Counter
from fractions import Fraction
from time import perf_counter

import oracle
import tracing

# Catalog instances of dimension at most 9.  "example2-rigidity" is left
# out because its algebra is example1's dual, which the pool already has.
SPARSE_CATALOG = [
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
]
SMALL = [
    "trivial",
    "group:z2",
    "group:z3",
    "dualgroup:z2",
    "dualgroup:z3",
    "bsz-dual:2",
    "adcross:z2,z2",
]
SPARSE_MONOMIAL = 6  # seeded monomial scrambles of SMALL but trivial, in turn
REPCAT_MAX_DIM = 6


class Item:
    __slots__ = ("name", "doc", "expected")

    def __init__(self, name, doc, expected):
        self.name = name
        self.doc = doc
        self.expected = expected


class Base:
    """A catalog instance with its known answer."""

    def __init__(self, wh, name):
        entry = wh.constructions.catalog(name)
        antipode = None
        if entry.antipode is not None:
            antipode = oracle.to_rows(wh.serialize.matrix_to_lists(entry.antipode))
        self.name = name
        self.algebra = entry.algebra
        self.expected = oracle.expected_base(name, antipode)


class PassResult:
    """What one pass over the workload produced."""

    def __init__(self):
        self.wall = 0.0
        self.item_times = []  # seconds to verdict, in item order
        self.report_times = []  # of which producing the weak Hopf report
        self.attempted = 0
        self.failed = 0
        self.coverage = Counter()  # "<theorem>.run" / "<theorem>.skipped"

    def record_checks(self, prefix, checks):
        for c in checks:
            key = "%s:%s.%s" % (prefix, c.name, "run" if c.hypotheses_met else "skipped")
            self.coverage[key] += 1

    @property
    def checks_run(self):
        return sum(v for k, v in self.coverage.items() if k.endswith(".run"))

    @property
    def checks_skipped(self):
        return sum(v for k, v in self.coverage.items() if k.endswith(".skipped"))


def _item(wh, name, algebra, expected):
    return Item(name, wh.serialize.algebra_to_document(algebra), expected)


def _transport(wh, base_algebra, base_expected, t):
    t_inv = oracle.inverse(t)
    algebra = wh.core.transport(base_algebra, wh.exactlin.Matrix(t))
    return algebra, base_expected.transported(t, t_inv)


def _monomial(rng, n):
    """Scaled permutation: keeps the presentation sparse."""
    perm = list(range(n))
    rng.shuffle(perm)
    scales = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
    return [[scales[j] if i == perm[j] else Fraction(0) for j in range(n)] for i in range(n)]


def sparse_pool(wh, seed):
    rng = random.Random(seed)
    bases = {name: Base(wh, name) for name in SPARSE_CATALOG}
    items = [_item(wh, "catalog:" + b.name, b.algebra, b.expected) for b in bases.values()]
    for name in SMALL:
        b = bases[name]
        alg, exp = b.algebra, b.expected
        items.append(_item(wh, name + ".dual", alg.dual, exp.dualized(name)))
        items.append(_item(wh, name + ".op", alg.opposite, exp.inverted()))
        items.append(_item(wh, name + ".cop", alg.coopposite, exp.inverted()))
        items.append(_item(wh, name + ".opcop", alg.opposite.coopposite, exp))
    ex1 = bases["example1"]
    items.append(_item(wh, "example1.dual", ex1.algebra.dual, ex1.expected.dualized("example1")))
    items.append(_item(wh, "example1.opcop", ex1.algebra.opposite.coopposite, ex1.expected))
    for first, second, label in (
        ("group:z2", "example1", "sum:z2+example1"),
        ("bsz-dual:2", "dualgroup:z3", "sum:bsz2+dualz3"),
    ):
        a, b = bases[first], bases[second]
        algebra = wh.core.direct_sum(a.algebra, b.algebra)
        items.append(_item(wh, label, algebra, oracle.expected_sum(a, b)))
    for k in range(SPARSE_MONOMIAL):
        b = bases[SMALL[1 + k % (len(SMALL) - 1)]]
        alg, exp = _transport(wh, b.algebra, b.expected, _monomial(rng, b.algebra.dim))
        items.append(_item(wh, "%s.mono%d" % (b.name, k), alg, exp))
    return items


# ----------------------------------------------------------------------
# pool items: the per-instance verdict suite
# ----------------------------------------------------------------------


def _pool_item(wh, item, result):
    """Run one instance; return (seconds to verdict, report seconds, mismatches)."""
    start = perf_counter()
    alg = wh.serialize.document_to_algebra(item.doc)
    structural = wh.core.structural_theorem_suite(alg)
    anti_checks, status = wh.antipode.antipode_theorem_suite(alg)
    t0 = perf_counter()
    verdict = wh.antipode.classify_weak_hopf(alg)
    report_elapsed = perf_counter() - t0
    sqcap = rigid = None
    if status.exists and status.normal_rigidity:
        sqcap = wh.rigidity.sqcap_suite(alg, status.matrix)
        r = wh.rigidity.RigidityStructure(alg, status.matrix, alg.unit, alg.unit)
        rigid = wh.rigidity.verify_rigidity(alg, r)
        wh.rigidity.uniqueness_intertwiners(r, r)
    repcat = None
    if alg.dim <= REPCAT_MAX_DIM:
        _, left_natural, right_natural = wh.repcat.coherence_report(wh.repcat.regular_module(alg))
        _, _, unit_checks = wh.repcat.unit_module_report(alg)
        unit_suite = wh.repcat.unit_representation_suite(alg)
        repcat = (left_natural, right_natural, unit_checks, unit_suite)
    elapsed = perf_counter() - start

    exp = item.expected
    bad = []
    result.record_checks("structural", structural)
    result.record_checks("antipode", anti_checks)
    result.record_checks("classify", verdict.checks)
    bad += ["structural:" + c.name for c in structural if c.failed]
    bad += ["antipode:" + c.name for c in anti_checks if c.failed]
    flags = oracle.flags_of(verdict.axioms)
    if flags != exp.flags:
        bad.append("flags %s != %s" % (flags, exp.flags))
    if verdict.antipode.kind != exp.kind or status.kind != exp.kind:
        bad.append("antipode kind %s != %s" % (verdict.antipode.kind, exp.kind))
    if verdict.is_weak_hopf != exp.weak_hopf:
        bad.append("weak hopf %s != %s" % (verdict.is_weak_hopf, exp.weak_hopf))
    if exp.antipode is not None:
        got = verdict.antipode.matrix
        if got is None or oracle.to_rows(wh.serialize.matrix_to_lists(got)) != exp.antipode:
            bad.append("antipode matrix differs from the known antipode")
    if sqcap is not None:
        for name, ok in sqcap.checks:
            result.coverage["sqcap:%s.run" % name] += 1
            if not ok:
                bad.append("sqcap:" + name)
        if rigid.status != "normal":
            bad.append("rigidity status %s" % rigid.status)
    if repcat is not None:
        left_natural, right_natural, unit_checks, unit_suite = repcat
        result.record_checks("repcat-unit", unit_checks)
        result.record_checks("repcat-suite", unit_suite)
        if left_natural != (exp.flags[0] == "1") or right_natural != (exp.flags[1] == "1"):
            bad.append("repcat naturality disagrees with monoidality")
        bad += ["repcat:" + c.name for c in list(unit_checks) + list(unit_suite) if c.failed]
    return elapsed, report_elapsed, bad


def pool_pass(wh, items, tracer=None):
    result = PassResult()
    start = perf_counter()
    for idx, item in enumerate(items):
        _submit(result, item.name, tracer, idx, lambda: _pool_item(wh, item, result))
    result.wall = perf_counter() - start
    return result


def _submit(result, name, tracer, idx, work):
    """Run one item in the closed loop and tally its verdict."""
    result.attempted += 1
    span = None
    if tracer is not None:
        tracer.item = idx
        span = tracer.open(tracing.ITEM)
    start = perf_counter()
    try:
        elapsed, report_elapsed, bad = work()
    except Exception:
        elapsed, report_elapsed = perf_counter() - start, 0.0
        bad = ["raised:\n" + traceback.format_exc()]
    finally:
        if span is not None:
            tracer.close(span)
    result.item_times.append(elapsed)
    result.report_times.append(report_elapsed)
    if bad:
        result.failed += 1
        sys.stderr.write("FAILED %s: %s\n" % (name, "; ".join(bad)))


# ----------------------------------------------------------------------
# the dim-18 command-line path
# ----------------------------------------------------------------------

ADCROSS_ARGS = ["construct", "adcross", "--group", "S3", "--subgroup", "A3"]


def _document_text(doc):
    """The interchange format's layout: two-space JSON, one final newline."""
    return json.dumps(doc, indent=2) + "\n"


def _dual_matches(original, dual):
    """dual's tensors are original's with the roles of the two swapped."""
    mult = sorted(map(tuple, original["mult"]))
    comult = sorted(map(tuple, original["comult"]))
    return (
        dual["dim"] == original["dim"]
        and sorted((i, j, k, c) for k, i, j, c in comult) == sorted(map(tuple, dual["mult"]))
        and sorted((k, i, j, c) for i, j, k, c in mult) == sorted(map(tuple, dual["comult"]))
        and dual["unit"] == original["counit"]
        and dual["counit"] == original["unit"]
    )


def cli_pass(wh, workdir, tracer=None):
    result = PassResult()
    paths = {k: os.path.join(workdir, k + ".json") for k in ("built", "report", "dual1", "dual2")}
    for p in paths.values():
        if os.path.exists(p):
            os.remove(p)
    expected_flags, _, expected_kind, expected_weak_hopf = oracle.BASES["adcross:s3,a3"]

    def command(name, argv, check):
        def work():
            t0 = perf_counter()
            code = wh.cli.main(argv)
            elapsed = perf_counter() - t0
            report_elapsed = elapsed if name == "report" else 0.0
            if code != 0:
                return elapsed, report_elapsed, ["exit code %d" % code]
            return elapsed, report_elapsed, check()

        return work

    def recording(classify):
        def wrapper(*args, **kwargs):
            verdict = classify(*args, **kwargs)
            result.record_checks("classify", verdict.checks)
            return verdict

        return wrapper

    def read(key):
        with open(paths[key], encoding="utf-8") as fh:
            return fh.read()

    def check_built():
        doc = json.loads(read("built"))
        return [] if doc["dim"] == 18 and "antipode" in doc.get("extras", {}) else ["constructed document lacks dim 18 or extras.antipode"]

    def check_report():
        rep = json.loads(read("report"))
        built = json.loads(read("built"))
        axioms = rep["axioms"]
        flags = "".join(
            "1" if v else "0"
            for v in (
                axioms["left_monoidal"],
                axioms["right_monoidal"],
                axioms["left_comonoidal"],
                axioms["right_comonoidal"],
                axioms["counit_factorization"]["left"],
                axioms["counit_factorization"]["right"],
                axioms["minimal"],
                axioms["cominimal"],
            )
        )
        bad = []
        if flags != expected_flags:
            bad.append("flags %s != %s" % (flags, expected_flags))
        if rep["valid"] is not True or rep["weak_hopf"] is not expected_weak_hopf:
            bad.append("weak hopf %s != %s" % (rep["weak_hopf"], expected_weak_hopf))
        if rep["antipode"].get("kind") != expected_kind:
            bad.append("antipode kind %s != %s" % (rep["antipode"].get("kind"), expected_kind))
        got = oracle.to_rows(rep["antipode"].get("matrix", []))
        if got != oracle.to_rows(built["extras"]["antipode"]):
            bad.append("report antipode differs from the constructor's")
        return bad

    def check_dual1():
        return [] if _dual_matches(json.loads(read("built")), json.loads(read("dual1"))) else ["dual tensors are not the swapped originals"]

    def check_dual2():
        built = json.loads(read("built"))
        built.pop("extras", None)
        return [] if read("dual2") == _document_text(built) else ["dual of dual differs from the constructed document"]

    steps = [
        ("construct", ADCROSS_ARGS + ["--out", paths["built"]], check_built),
        ("report", ["report", paths["built"], "--out", paths["report"]], check_report),
        ("dual", ["dual", paths["built"], "--out", paths["dual1"]], check_dual1),
        ("dual-of-dual", ["dual", paths["dual1"], "--out", paths["dual2"]], check_dual2),
    ]
    # The report command keeps its classification checks to itself; a
    # pass-through wrapper counts them so that lost coverage shows here too.
    patches = tracing.install_patches(wh, [(("antipode", "classify_weak_hopf"), recording)], [])
    try:
        start = perf_counter()
        for idx, (name, argv, check) in enumerate(steps):
            _submit(result, name, tracer, idx, command(name, argv, check))
        result.wall = perf_counter() - start
    finally:
        patches.restore()
    return result
