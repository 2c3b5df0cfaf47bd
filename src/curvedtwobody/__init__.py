"""Exact nonintegrability certificates for the curved two-body problem.

Subpackages mirror the pipeline: exact coefficient field -> rational
function calculus -> second-order ODE normal form -> Galois obstruction
tests -> model-specific reductions -> numeric dynamics -> certificates.
"""
