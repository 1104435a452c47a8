"""Exact-arithmetic toolkit for finite-dimensional weak bialgebras."""

from .core import (
    AlgebraDataError,
    AxiomReport,
    Element,
    Functional,
    WeakBialgebra,
    decide_axioms,
    structural_theorem_suite,
)
from .exactlin import Matrix, Q, Subspace

__all__ = [
    "AlgebraDataError",
    "AxiomReport",
    "Element",
    "Functional",
    "Matrix",
    "Q",
    "Subspace",
    "WeakBialgebra",
    "decide_axioms",
    "structural_theorem_suite",
]
