"""Exact nonintegrability certificates for the curved two-body problem.

Subpackages mirror the pipeline: exact coefficient field -> rational
function calculus -> second-order ODE normal form -> Galois obstruction
tests -> model-specific reductions -> numeric dynamics -> certificates.
"""
from .exactfield import (ContextMismatch, DegenerateTower, DivisionByZero,
                         GaussRational, TowerContext, TowerScalar, make_context)
from .ratcalc import BadFactorization, Poly, PoleEvaluation, RatFunc, poly_gcd

__all__ = [
    "ContextMismatch", "DegenerateTower", "DivisionByZero", "GaussRational",
    "TowerContext", "TowerScalar", "make_context",
    "BadFactorization", "Poly", "PoleEvaluation", "RatFunc", "poly_gcd",
]
