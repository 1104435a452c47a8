"""Differential tests for the leg sums on the integer coproduct.

Every sum over the legs of Delta runs through core._leg_sums, which sums
int blocks over the integer coproduct and divides each entry once.
convolve and convolve_tensors clear their two maps of denominators once per
call and sum each pair product over the integer multiplication table;
is_anti_comultiplicative is a leg sum of the blocks S(e_v) (x) S(e_u)
against the sums of S[j][k] Delta(e_j); the rigidity words clear their
middle and outer factors once; the counit absorption identities and the
repcat coherence clear their Fraction blocks once.

The routes they replaced summed on the Fraction coproduct.  They are kept
as oracles: the per-leg and all-pairs convolutions and the per-k
anti-comultiplicativity of the other oracle files, and here, written with
the public API, the spread product that decided anti-comultiplicativity
before, the per-leg convolution of maps to A (x) A and the per-leg
rigidity words.  The counit absorption, coherence and conjugation_data
verdicts are compared with the oracles kept for those bodies.

The inputs are the catalog records of dimension at most 9 with their duals,
opposites and coopposites, six seeded monomial transports with non-integral
scales, random rational maps with mixed denominators (so that the clearing
runs), maps near the antipode that are not anti-comultiplicative, and
adcross:s3,a3 and adcross:z8,z4.
"""

import random

import pytest

from test_integer_row_solve import SMALL_NAMES, TRANSPORT_BASES, _non_integral_transport, _variants
from test_kernels import _random_matrix, _random_vector
from test_pair_kernel_paths import convolve_all_pairs
from test_repcat_oracles import coherence_report
from test_rigidity_operator_oracles import _same_conjugation_data, _structures
from test_stacked_operator_oracles import _counit_absorption_identities
from test_stacked_operator_oracles import is_anti_comultiplicative as per_k_anti_comultiplicative
from test_suite_oracles import _maps_near_the_antipode
from test_suite_oracles import convolve as per_leg_convolve
from weakhopf import Matrix
from weakhopf.antipode import convolve, convolve_tensors, is_anti_comultiplicative, solve_antipode
from weakhopf.constructions import catalog
from weakhopf.core import _counit_absorption_identities as shipped_absorption
from weakhopf.core import _leg_words
from weakhopf.exactlin import kron, linear_combination, nonzeros, vector_combination
from weakhopf.repcat import coherence_report as shipped_coherence
from weakhopf.repcat import regular_module

# ----------------------------------------------------------------------
# oracles: the routes on the Fraction coproduct
# ----------------------------------------------------------------------


def spread_anti_comultiplicative(algebra, s: Matrix) -> bool:
    """Delta(S e_k) = S D_k^t S^t for every k at once: kron(S^t, I) times
    the stacked D_k against the stacked D_k S^t, each block transposed,
    times S^t."""
    n = algebra.dim
    stacked = Matrix.from_rows([r for d in algebra.comult for r in d.data], n)
    s_t = s.transpose()
    blocks = (stacked * s_t).data
    transposed = [
        [blocks[k * n + i][j] for i in range(n)] for k in range(n) for j in range(n)
    ]
    lhs = kron(s_t, Matrix.identity(n)) * stacked
    return lhs == Matrix.from_rows(transposed, n) * s_t


def _tensor(m: Matrix, k: int, n: int) -> Matrix:
    """Column k of an n^2 x n matrix as an n x n tensor."""
    return Matrix([[m[u * n + v, k] for v in range(n)] for u in range(n)])


def per_leg_convolve_tensors(algebra, p: Matrix, q: Matrix, x=None) -> Matrix:
    """x -> P(x_(1)) Q(x_(2)), one t2_mul per leg of Delta(x): the tensor at
    x when given, else the n^2 x n matrix of its values on the basis."""
    n = algebra.dim

    def at(y):
        legs = nonzeros(algebra.delta(y))
        products = (algebra.t2_mul(_tensor(p, u, n), _tensor(q, v, n)) for u, v, _ in legs)
        return linear_combination(((c, nonzeros(m)) for (_, _, c), m in zip(legs, products)), n, n)

    if x is not None:
        return at(x)
    return Matrix.from_columns([at(algebra.basis_vector(k)).flatten() for k in range(n)], n * n)


def per_leg_words(algebra, middle: Matrix, firsts=None, seconds=None) -> Matrix:
    """Row t * middle.rows + j: the sum of c x_u m_j y_v over the legs
    (u, v, c) of Delta(e_t), with x_u row u of firsts and y_v = e_v, or
    x_u = e_u and y_v row v of seconds, one mul per factor."""
    n = algebra.dim
    mul, e = algebra.mul, algebra.basis_vector
    rows = []
    for t in range(n):
        legs = nonzeros(algebra.comult[t])
        for j in range(middle.rows):
            m = middle.row(j)
            terms = []
            for u, v, c in legs:
                x = firsts.row(u) if seconds is None else e(u)
                y = e(v) if seconds is None else seconds.row(v)
                terms.append((c, mul(mul(x, m), y)))
            rows.append(vector_combination(terms, n))
    return Matrix.from_rows(rows, n)


# ----------------------------------------------------------------------
# instances and maps
# ----------------------------------------------------------------------


def _transport(seed):
    rng = random.Random("integer-leg-sums:%d" % seed)
    return _non_integral_transport(catalog(TRANSPORT_BASES[seed]).algebra, rng)


def _maps(algebra, rng):
    """The maps near the antipode and two random rational maps, one sparse."""
    n = algebra.dim
    return _maps_near_the_antipode(algebra) + [_random_matrix(rng, n), _random_matrix(rng, n, 0.2)]


def _has_denominators(m: Matrix) -> bool:
    return any(x.denominator > 1 for row in m.sparse_rows for _, x in row)


def _assert_convolutions_agree(algebra, s: Matrix, t: Matrix):
    got = convolve(algebra, s, t)
    assert got == per_leg_convolve(algebra, s, t)
    assert got == convolve_all_pairs(algebra, s, t)


def _assert_leg_sums_agree(algebra):
    """The antipode (or the identity when there is none) convolved with the
    identity on both sides, and anti-comultiplicativity of it and of the
    identity, against the routes on the Fraction coproduct."""
    ident = Matrix.identity(algebra.dim)
    s = solve_antipode(algebra).matrix or ident
    for left, right in ((s, ident), (ident, s)):
        assert convolve(algebra, left, right) == convolve_all_pairs(algebra, left, right)
    for m in (s, ident):
        assert is_anti_comultiplicative(algebra, m) == spread_anti_comultiplicative(algebra, m)


def _check_instance(algebra, rng):
    """Every kernel on algebra against its oracles; returns the
    anti-comultiplicativity verdicts seen."""
    maps = _maps(algebra, rng)
    ident = Matrix.identity(algebra.dim)
    verdicts = set()
    for s in maps:
        for t in (ident, maps[-1]):
            _assert_convolutions_agree(algebra, s, t)
        got = is_anti_comultiplicative(algebra, s)
        assert got == per_k_anti_comultiplicative(algebra, s)
        assert got == spread_anti_comultiplicative(algebra, s)
        verdicts.add(got)
    assert shipped_absorption(algebra) == _counit_absorption_identities(algebra)
    return verdicts


# ----------------------------------------------------------------------
# the integer leg sums against the oracles
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_leg_sums_match_the_oracles_on_the_catalog(entries, name):
    rng = random.Random("integer-leg-sums:" + name)
    for algebra in _variants(entries[name].algebra):
        _check_instance(algebra, rng)


@pytest.mark.parametrize("seed", range(6))
def test_leg_sums_match_the_oracles_on_non_integral_transports(seed):
    algebra = _transport(seed)
    # the scales put denominators into the coproduct or the product
    tables = algebra._integer_tables
    assert tables.d_comult > 1 or tables.d_mult > 1
    rng = random.Random("integer-leg-sums:transport:%d" % seed)
    _check_instance(algebra, rng)
    if algebra.dim <= 6:
        v = regular_module(algebra)
        assert shipped_coherence(v)[1:] == coherence_report(v)[1:]


def test_the_maps_reach_both_anti_comultiplicativity_verdicts(entries):
    verdicts = set()
    for name in SMALL_NAMES:
        rng = random.Random("integer-leg-sums:" + name)
        verdicts |= _check_instance(entries[name].algebra, rng)
    assert verdicts == {True, False}


def test_random_maps_with_mixed_denominators_match_the_oracles(entries):
    """Both maps carry denominators, so each call clears them."""
    rng = random.Random("integer-leg-sums:mixed")
    for name in ("group:s3", "dualgroup:s3", "example1", "bsz-dual:3", "adcross:z4,z2"):
        algebra = entries[name].algebra
        n = algebra.dim
        for _ in range(3):
            s, t = _random_matrix(rng, n), _random_matrix(rng, n, 0.3)
            assert _has_denominators(s) and _has_denominators(t)
            _assert_convolutions_agree(algebra, s, t)
            _assert_convolutions_agree(algebra, t, s)


@pytest.mark.parametrize("name", ["group:z3", "bsz-dual:2", "adcross:z2,z2", "example1"])
def test_convolve_tensors_matches_the_per_leg_oracle(entries, name):
    """Random maps A -> A (x) A with mixed denominators, on the instance
    and a non-integral transport of it, in full and at the unit and a
    random vector."""
    rng = random.Random("integer-leg-sums:tensors:" + name)
    base = entries[name].algebra
    for algebra in (base, _non_integral_transport(base, rng)):
        n = algebra.dim
        p = Matrix([_random_vector(rng, n, 0.3) for _ in range(n * n)])
        q = Matrix([_random_vector(rng, n, 0.3) for _ in range(n * n)])
        assert convolve_tensors(algebra, p, q) == per_leg_convolve_tensors(algebra, p, q)
        for x in (algebra.unit, _random_vector(rng, n)):
            assert convolve_tensors(algebra, p, q, x) == per_leg_convolve_tensors(algebra, p, q, x)


@pytest.mark.parametrize("name", ["group:s3", "example1", "bsz-dual:2", "adcross:z2,z2"])
def test_rigidity_words_match_the_per_leg_oracle(entries, name):
    """Random middles and outer rows with mixed denominators, one middle row
    zero, on both sides, on the instance and a non-integral transport."""
    rng = random.Random("integer-leg-sums:words:" + name)
    base = entries[name].algebra
    for algebra in (base, _non_integral_transport(base, rng)):
        n = algebra.dim
        outer = _random_matrix(rng, n)
        rows = [_random_vector(rng, n, 0.4) for _ in range(3)] + [(0,) * n]
        middle = Matrix.from_rows(rows, n)
        for leg in ({"firsts": outer}, {"seconds": outer}):
            assert _leg_words(algebra, middle, **leg) == per_leg_words(algebra, middle, **leg)


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_conjugation_data_matches_the_oracle_on_non_integral_transports(seed):
    """group:z3, bsz-dual:2 and adcross:z2,z2 in a scaled basis (the
    oracle takes seconds from dimension 6 on)."""
    algebra = _transport(seed)
    verified = [_same_conjugation_data(algebra, r) for r in _structures(algebra)]
    assert any(v is not None for v in verified)


@pytest.mark.parametrize("name", ["adcross:s3,a3", "adcross:z8,z4"])
def test_leg_sums_match_the_oracles_on_adcross(name):
    algebra = catalog(name).algebra
    _assert_leg_sums_agree(algebra)
    s = solve_antipode(algebra).matrix
    assert is_anti_comultiplicative(algebra, s) == per_k_anti_comultiplicative(algebra, s)
    # the antipode of a weak Hopf algebra is anti-comultiplicative
    assert is_anti_comultiplicative(algebra, s)

