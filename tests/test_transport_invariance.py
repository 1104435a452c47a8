"""Hypothesis property: the verdicts do not depend on the basis.

A monomial change of basis (a permutation with nonzero rational scales,
through core.transport) rewrites every structure constant, so the stacked
operator comparisons of the suites see different index patterns while the
mathematics stays the same.  The axiom flags and dimensions of
decide_axioms, and the name, hypotheses and verdict of every check of the
structural and antipode theorem suites, must be those of the untransported
instance.  The instances are the catalog records of dimension at most 6 with
their duals, opposites and coopposites; symmetric instances alone would hide
a mistaken index convention.
"""

from fractions import Fraction

import pytest

from weakhopf.antipode import antipode_theorem_suite
from weakhopf.constructions import catalog, catalog_names
from weakhopf.core import decide_axioms, structural_theorem_suite, transport
from weakhopf.exactlin import Matrix

_FIELDS = (
    "valid",
    "left_monoidal",
    "right_monoidal",
    "left_comonoidal",
    "right_comonoidal",
    "counit_factor_left",
    "counit_factor_right",
    "minimal",
    "cominimal",
    "dim",
    "dim_al",
    "dim_ar",
    "dim_al_cap_ar",
    "dims_a_sigma",
    "dims_n_sigma",
)


def _instances():
    out = []
    for name in catalog_names():
        base = catalog(name).algebra
        if base.dim <= 6:
            out += [base, base.dual, base.opposite, base.coopposite]
    return out


def _verdicts(algebra):
    """The basis-free outcome: flags and dimensions, and each check's name,
    hypotheses and verdict."""
    report = decide_axioms(algebra)
    checks, _ = antipode_theorem_suite(algebra)
    checks = list(structural_theorem_suite(algebra)) + list(checks)
    return (
        tuple(getattr(report, f) for f in _FIELDS),
        [(c.name, c.hypotheses_met, c.conclusion_holds) for c in checks],
    )


def test_verdicts_are_invariant_under_monomial_transport():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    instances = _instances()
    expected = {}

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data(), st.integers(0, len(instances) - 1))
    def check(data, index):
        algebra = instances[index]
        n = algebra.dim
        perm = data.draw(st.permutations(range(n)))
        scales = data.draw(
            st.lists(
                st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 3)),
                min_size=n,
                max_size=n,
            )
        )
        t = Matrix([[scales[j] if i == perm[j] else 0 for j in range(n)] for i in range(n)])
        if index not in expected:
            expected[index] = _verdicts(algebra)
        assert _verdicts(transport(algebra, t)) == expected[index]

    check()
