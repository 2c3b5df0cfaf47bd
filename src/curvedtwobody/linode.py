"""Second-order linear ODE infrastructure.

The normal form y'' = r y of the 2x2 first-order systems in one Riccati
step; the elimination to a single second-order equation and its gauge
transform, the tests' oracle for certify's gauge check (2h + p = 0) and
the path bench/ times; and singular-point and exponent analysis for
Fuchsian equations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exactfield import TowerContext, TowerScalar, rational_sqrt
from .ratcalc import BadFactorization, RatFunc, exponent_map


class LinOdeError(Exception):
    pass


class ZeroCoefficient(LinOdeError):
    """The elimination needs C (and the weight) to be nonzero."""


class NonFuchsianEquation(LinOdeError):
    """A singular point of the input fails the regularity bound."""


@dataclass(frozen=True)
class FirstOrderSystem:
    """p1' = A p1 + B w p2,  p2' = C w p1 - A p2, with w = 1 or sqrt(weight)."""

    A: RatFunc
    B: RatFunc
    C: RatFunc
    weight: Optional[RatFunc] = None


@dataclass(frozen=True)
class SecondOrderODE:
    """w'' + p w' + q w = 0."""

    p: RatFunc
    q: RatFunc


@dataclass(frozen=True)
class NormalFormODE:
    """y'' = r y; memo keeps what later stages derive from r alone: per
    finite-exponent tuple, the Theta and the n = 2 recursion table of
    kovacic.case2_operator, which case II and the product test share."""

    r: RatFunc
    memo: dict = field(default_factory=dict, compare=False, repr=False)


def reduce_to_second_order(system: FirstOrderSystem) -> SecondOrderODE:
    """Eliminate p1; the p2 equation is w'' + p w' + q w = 0 with
    p = -(C'/C [+ f'/(2f)]) and q = -((C'/C [+ f'/(2f)]) A + A^2 + C B [f] - A')."""
    A, B, C = system.A, system.B, system.C
    if C.is_zero():
        raise ZeroCoefficient("C must be nonzero to eliminate p1")
    ctx = A.ctx
    g = C.log_derivative()
    weight_factor = RatFunc.constant(ctx, 1)
    if system.weight is not None:
        f = system.weight
        if f.is_zero():
            raise ZeroCoefficient("weight must be nonzero")
        g = g + RatFunc.constant(ctx, Fraction(1, 2)) * f.log_derivative()
        weight_factor = f
    q = g * A + A * A + C * B * weight_factor - A.derivative()
    return SecondOrderODE(p=-g, q=-q)


def to_normal_form(ode: SecondOrderODE) -> NormalFormODE:
    """Gauge w = exp(-1/2 int p) y gives y'' = r y with r = -q + p'/2 + p^2/4."""
    ctx = ode.p.ctx
    half = RatFunc.constant(ctx, Fraction(1, 2))
    quarter = RatFunc.constant(ctx, Fraction(1, 4))
    r = -ode.q + half * ode.p.derivative() + quarter * (ode.p * ode.p)
    return NormalFormODE(r=r)


def normal_form(system: FirstOrderSystem, h: RatFunc) -> NormalFormODE:
    """The normal form in one Riccati step: r = H^2 - H' + C B [f] with
    H = A + h, for the gauge log-derivative h = C'/(2C) [+ f'/(4f)].  This
    is -q + p'/2 + p^2/4 of the elimination, since p = -2h."""
    H = system.A + h
    cb = system.C * system.B
    if system.weight is not None:
        cb = cb * system.weight
    return NormalFormODE(r=H * H - H.derivative() + cb)


def verify_gauge_transform(normal: NormalFormODE, ode: SecondOrderODE,
                           log_derivative: RatFunc) -> bool:
    """Check that u = g y with g'/g = h solves the original equation whenever
    y'' = r y: substituting gives g[(r + h' + h^2 + p h + q) y + (2h + p) y'],
    which must vanish coefficientwise."""
    h = log_derivative
    p, q, r = ode.p, ode.q, normal.r
    ctx = p.ctx
    two = RatFunc.constant(ctx, 2)
    coeff_yprime = two * h + p
    coeff_y = r + h.derivative() + h * h + p * h + q
    return coeff_yprime.is_zero() and coeff_y.is_zero()


@dataclass(frozen=True)
class SingularPoint:
    location: Optional[TowerScalar]   # None encodes the point at infinity
    order: int
    alpha: TowerScalar
    delta_squared: TowerScalar
    delta_rational: Optional[Fraction]
    exponents: Optional[tuple[Fraction, Fraction]]

    @property
    def is_infinity(self) -> bool:
        return self.location is None


@dataclass(frozen=True)
class SingularitySpectrum:
    points: tuple[SingularPoint, ...]

    @property
    def finite_points(self) -> tuple[SingularPoint, ...]:
        return tuple(pt for pt in self.points if not pt.is_infinity)

    @property
    def infinity(self) -> SingularPoint:
        for pt in self.points:
            if pt.is_infinity:
                return pt
        raise LinOdeError("spectrum lacks the point at infinity")

    def all_deltas_rational(self) -> bool:
        return all(pt.delta_rational is not None for pt in self.points)


def singular_point(ctx: TowerContext, location: Optional[TowerScalar], order: int,
                   alpha: TowerScalar) -> SingularPoint:
    """The point at location (None for infinity) of the given order and
    leading coefficient alpha: delta^2 = 1 + 4 alpha, its rational square
    root when that exists, and then the exponents (1 +- delta)/2, at
    infinity (-1 +- delta)/2 (indicial rho(rho + 1) = alpha there)."""
    delta_sq = ctx.one + ctx.from_rational(4) * alpha
    q = delta_sq.is_real_rational()
    d_rat = rational_sqrt(q) if q is not None else None
    expo = None
    if d_rat is not None:
        s = 1 if location is not None else -1
        expo = ((s + d_rat) / 2, (s - d_rat) / 2)
    return SingularPoint(location, order, alpha, delta_sq, d_rat, expo)


def singularity_spectrum(normal: NormalFormODE,
                         poles: Sequence[tuple[TowerScalar, int]]) -> SingularitySpectrum:
    """Per-point order, alpha (the (z-c)^-2 coefficient), delta data and
    exponent pairs, including the point at infinity in the 1/z chart, read
    off r: alpha by RatFunc.polar_leading, infinity by the degrees of r in
    lowest terms.  certify reads the same points off the table
    (CoefficientTable.spectrum); this path from r is the tests' oracle for
    that spectrum and the one bench/ times."""
    r = normal.r
    ctx = r.ctx
    given = exponent_map(poles)
    if r.exponents_over(given) != given:
        raise BadFactorization("supplied poles do not factor den(r)")
    points = []
    for c, mult in poles:
        if mult > 2:
            raise NonFuchsianEquation(
                f"pole of order {mult} at {c.render()}: not regular singular")
        alpha = r.polar_leading(c) if mult == 2 else ctx.zero
        points.append(singular_point(ctx, c, mult, alpha))
    # infinity in the zeta = 1/z chart: ord = max(0, 4 + deg s - deg t),
    # alpha_inf is the 1/z^2 coefficient
    ds = r.num.degree()
    dt = r.den_degree()
    if r.is_zero():
        ord_inf = 0
        alpha_inf = ctx.zero
    else:
        ord_inf = max(0, 4 + ds - dt)
        if ord_inf > 2:
            raise NonFuchsianEquation(f"order {ord_inf} at infinity: not regular singular")
        alpha_inf = r.num.leading() if dt - ds == 2 else ctx.zero
    points.append(singular_point(ctx, None, ord_inf, alpha_inf))
    return SingularitySpectrum(tuple(points))
