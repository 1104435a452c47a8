"""Certified antipodes: solve_antipode given a candidate antipode against
the same call without one.

The antipode is unique, so a certificate that passes the pre-antipode and
antipode-law checks must give the status the solve returns, field for
field, and save the solve; any other certificate must be ignored, leaving
the solve to decide.  So a certificate saves the solve exactly when it
equals the solved antipode.  The status is kept per instance, so each side
runs on a fresh instance built from the same document.
"""

import random

import pytest

from weakhopf import antipode
from weakhopf.antipode import antipode_solution_space, convolve, solve_antipode
from weakhopf.constructions import catalog_names
from weakhopf.core import transport
from weakhopf.exactlin import Matrix, Q, inverse
from weakhopf.serialize import algebra_to_document, document_to_algebra


def _fresh(algebra):
    """A new instance with algebra's tables, on which nothing is decided."""
    return document_to_algebra(algebra_to_document(algebra))


@pytest.fixture
def solves(monkeypatch):
    """The list of eliminations solve_antipode runs, one entry each."""
    calls = []
    eliminate = antipode.particular_solution_of_rows

    def counted(rows, n):
        calls.append(n)
        return eliminate(rows, n)

    monkeypatch.setattr(antipode, "particular_solution_of_rows", counted)
    return calls


def _assert_agrees(algebra, certificate, solves):
    """The status decided with the certificate is the status decided without
    it, and the solve is skipped exactly when the certificate is the
    antipode.  Returns whether it was."""
    before = len(solves)
    certified = solve_antipode(_fresh(algebra), certificate)
    skipped = len(solves) == before
    solved = solve_antipode(_fresh(algebra))
    assert len(solves) == before + 2 - skipped
    assert certified == solved
    assert skipped == (certificate == solved.matrix)
    return skipped


def _views(entry):
    """(name, instance, antipode) for the entry and its dual, opposite and
    coopposite: the antipodes S, S^t, S^-1 and S^-1."""
    alg, s = entry.algebra, entry.antipode
    return [
        ("", alg, s),
        (".dual", alg.dual, s.transpose()),
        (".opposite", alg.opposite, inverse(s)),
        (".coopposite", alg.coopposite, inverse(s)),
    ]


def _with_antipode(entries):
    return [name for name in catalog_names() if entries[name].antipode is not None]


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_certificates_save_the_solve(entries, solves, name):
    entry = entries[name]
    if entry.antipode is None:
        # nothing certifies an instance without an antipode
        alg = entry.algebra
        for candidate in (Matrix.identity(alg.dim), Matrix.zero(alg.dim, alg.dim)):
            assert not _assert_agrees(alg, candidate, solves)
        assert solve_antipode(alg).kind == "none"
        return
    for view, alg, s in _views(entry):
        assert _assert_agrees(alg, s, solves), name + view
        assert solve_antipode(alg).exists


def test_monomial_transports_carry_the_certificate(entries, solves):
    rng = random.Random(2718)
    for name in _with_antipode(entries):
        entry = entries[name]
        n = entry.algebra.dim
        perm = list(range(n))
        rng.shuffle(perm)
        t = Matrix(
            [
                [Q(rng.randint(1, 5), rng.randint(1, 3)) if i == perm[j] else 0 for j in range(n)]
                for i in range(n)
            ]
        )
        assert _assert_agrees(transport(entry.algebra, t), inverse(t) * entry.antipode * t, solves), name


def test_wrong_certificates_fall_back_to_the_solve(entries, solves):
    rng = random.Random(31)
    names = _with_antipode(entries)
    rejected = 0
    for name in names:
        alg, s = entries[name].algebra, entries[name].antipode
        n = alg.dim
        i, j = rng.randrange(n), rng.randrange(n)
        perturbed = [list(row) for row in s.data]
        perturbed[i][j] += 1
        candidates = [Matrix.identity(n), Matrix(perturbed)]
        candidates += [
            entries[other].antipode
            for other in names
            if other != name and entries[other].algebra.dim == n
        ]
        for candidate in candidates:
            rejected += not _assert_agrees(alg, candidate, solves)
    # the identity is the antipode of group:z2, dualgroup:z2 and trivial only
    assert rejected >= 2 * len(names) - 3


def test_one_predicate_alone_is_rejected(entries, solves):
    for name in ("bsz-dual:2", "adcross:z2,z2", "adcross:z4,z2"):
        alg, s = entries[name].algebra, entries[name].antipode
        n = alg.dim
        ident = Matrix.identity(n)

        def pre_antipode(x):
            return convolve(alg, ident, x) == alg.projection("L", "R") and convolve(
                alg, x, ident
            ) == alg.projection("R", "L")

        def antipode_law(x):
            return convolve(alg, convolve(alg, x, ident), x) == x

        # zero meets the antipode law but is no pre-antipode
        zero = Matrix.zero(n, n)
        assert antipode_law(zero) and not pre_antipode(zero)
        assert not _assert_agrees(alg, zero, solves)
        # S plus a kernel vector of the pre-antipode system is a pre-antipode
        # that breaks the antipode law
        _, kernel = antipode_solution_space(alg)
        v = dict(kernel.basis.sparse_rows[0])
        pre_only = s + Matrix([[v.get(p * n + k, 0) for k in range(n)] for p in range(n)])
        assert pre_antipode(pre_only) and not antipode_law(pre_only)
        assert not _assert_agrees(alg, pre_only, solves)


def test_example1_certifies_nothing(entries, solves):
    alg = entries["example1"].algebra
    n = alg.dim
    rng = random.Random(5)
    candidates = [Matrix.identity(n), Matrix.zero(n, n), alg.projection("L", "R")]
    candidates += [e.antipode for e in entries.values() if e.antipode is not None and e.algebra.dim == n]
    candidates += [
        Matrix([[Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)])
        for _ in range(5)
    ]
    assert len(candidates) > 8
    for candidate in candidates:
        assert not _assert_agrees(alg, candidate, solves)
        assert solve_antipode(_fresh(alg), candidate).kind == "none"
