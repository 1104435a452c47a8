"""Expected verdicts, written down independently of the code they check.

The table below records, for every catalog instance the pools are built
from, the eight axiom flags, the antipode kind and the weak Hopf verdict.
Variants derive their expectation from their base by fixed rules:

* a basis change ``T`` keeps every flag and the antipode kind, and the
  antipode becomes ``T^-1 S T``;
* ``.op`` and ``.cop`` keep the flags and have antipode ``S^-1``;
  ``.opcop`` keeps both;
* ``.dual`` has the flags listed in the table's dual column and antipode
  ``S^t``.

The known antipodes ``S`` are the ones the constructions return (group
inversion, the minimal weak Hopf and adjoint crossed product formulas), not
solver output.  Matrix arithmetic here is plain ``Fraction`` Gauss-Jordan,
so no check goes through ``weakhopf.exactlin``.
"""

from fractions import Fraction

# Flag order, one character each ("1" true, "0" false).
FLAG_NAMES = (
    "left_monoidal",
    "right_monoidal",
    "left_comonoidal",
    "right_comonoidal",
    "counit_factor_left",
    "counit_factor_right",
    "minimal",
    "cominimal",
)

#   name: (flags, flags of the dual, antipode kind, weak Hopf)
BASES = {
    "trivial": ("11111111", "11111111", "hopf_antipode", True),
    "group:z2": ("11111100", "11111100", "hopf_antipode", True),
    "group:z3": ("11111100", "11111100", "hopf_antipode", True),
    "group:s3": ("11111100", "11111100", "hopf_antipode", True),
    "dualgroup:z2": ("11111100", "11111100", "hopf_antipode", True),
    "dualgroup:z3": ("11111100", "11111100", "hopf_antipode", True),
    "dualgroup:s3": ("11111100", "11111100", "hopf_antipode", True),
    "example1": ("00110010", "11001101", "none", False),
    "bsz-dual:2": ("11111110", "11111101", "antipode", True),
    "bsz-dual:3": ("11111110", "11111101", "antipode", True),
    "adcross:z2,z2": ("11111110", "11111101", "antipode", True),
    "adcross:z4,z2": ("11111100", "11111100", "antipode", True),
    "adcross:s3,a3": ("11111100", "11111100", "antipode", True),
}

#   direct sums: (flags, antipode kind, weak Hopf)
SUMS = {
    ("group:z2", "example1"): ("00110000", "none", False),
    ("bsz-dual:2", "dualgroup:z3"): ("11111100", "antipode", True),
}


class Expected:
    """What one pool item must produce."""

    __slots__ = ("flags", "kind", "weak_hopf", "antipode")

    def __init__(self, flags, kind, weak_hopf, antipode):
        self.flags = flags
        self.kind = kind
        self.weak_hopf = weak_hopf
        self.antipode = antipode  # list of Fraction rows, or None

    def transported(self, t, t_inv):
        s = self.antipode
        return Expected(
            self.flags,
            self.kind,
            self.weak_hopf,
            None if s is None else matmul(matmul(t_inv, s), t),
        )

    def dualized(self, base_name):
        s = self.antipode
        return Expected(
            BASES[base_name][1],
            self.kind,
            self.weak_hopf,
            None if s is None else transpose(s),
        )

    def inverted(self):
        s = self.antipode
        return Expected(
            self.flags, self.kind, self.weak_hopf, None if s is None else inverse(s)
        )


def expected_base(name, antipode):
    flags, _, kind, weak_hopf = BASES[name]
    return Expected(flags, kind, weak_hopf, antipode)


def expected_sum(first, second):
    flags, kind, weak_hopf = SUMS[(first.name, second.name)]
    s = None
    if first.expected.antipode is not None and second.expected.antipode is not None:
        s = block_diagonal(first.expected.antipode, second.expected.antipode)
    return Expected(flags, kind, weak_hopf, s)


def flags_of(report):
    return "".join("1" if getattr(report, f) else "0" for f in FLAG_NAMES)


# ----------------------------------------------------------------------
# exact matrix helpers on lists of Fraction rows
# ----------------------------------------------------------------------


def to_rows(strings):
    """Rows of exact scalar strings ("p" or "p/q") as Fraction rows."""
    return [[Fraction(x) for x in row] for row in strings]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def block_diagonal(a, b):
    n, m = len(a), len(b)
    return [list(row) + [Fraction(0)] * m for row in a] + [
        [Fraction(0)] * n + list(row) for row in b
    ]


def inverse(a):
    """Gauss-Jordan inverse, or None when a is singular."""
    n = len(a)
    aug = [list(row) + ident for row, ident in zip(a, identity(n))]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]
