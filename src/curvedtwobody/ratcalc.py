"""Univariate polynomial and rational-function calculus over a tower context.

Dense polynomials with TowerScalar coefficients; rational functions kept
normalized (monic denominator, gcd(num, den) = 1).  Pole locations are
always supplied by callers in closed form, so no root finding happens
here; partial fractions use the Taylor method at each supplied root.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactfield import DivisionByZero, TowerContext, TowerScalar


class RatCalcError(Exception):
    pass


class BadFactorization(RatCalcError):
    """Supplied roots/multiplicities do not factor the denominator."""


class PoleEvaluation(RatCalcError):
    """Evaluation at a pole of the (reduced) rational function."""


class Poly:
    """Dense polynomial, coefficients low-to-high; zero poly has no coefficients."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: TowerContext, coeffs: Sequence[TowerScalar] = ()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(ctx: TowerContext, value) -> Poly:
        if not isinstance(value, TowerScalar):
            value = ctx.from_rational(value)
        return Poly(ctx, [value])

    @staticmethod
    def x(ctx: TowerContext) -> Poly:
        return Poly(ctx, [ctx.zero, ctx.one])

    @staticmethod
    def from_rationals(ctx: TowerContext, values: Iterable) -> Poly:
        return Poly(ctx, [ctx.from_rational(v) for v in values])

    @staticmethod
    def from_roots(ctx: TowerContext, roots: Iterable[tuple[TowerScalar, int]]) -> Poly:
        out = Poly.constant(ctx, 1)
        for root, mult in roots:
            lin = Poly(ctx, [-root, ctx.one])
            for _ in range(mult):
                out = out * lin
        return out

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> TowerScalar:
        if self.is_zero():
            raise RatCalcError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> TowerScalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ctx.zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return ((self.ctx is other.ctx or self.ctx == other.ctx)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __sub__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self.coefficient(i) - other.coefficient(i) for i in range(n)])

    def __neg__(self) -> Poly:
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other: Poly) -> Poly:
        if self.is_zero() or other.is_zero():
            return Poly(self.ctx, [])
        out = [self.ctx.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                if not cj.is_zero():
                    out[i + j] = out[i + j] + ci * cj
        return Poly(self.ctx, out)

    def scale(self, s: TowerScalar) -> Poly:
        return Poly(self.ctx, [c * s for c in self.coeffs])

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        """Exact Euclidean division; coefficient field must invert the divisor's
        leading coefficient."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree()
        inv = other.leading().inverse()
        if len(rem) - 1 < dq:
            return Poly(self.ctx, []), Poly(self.ctx, rem)
        quot = [self.ctx.zero] * (len(rem) - dq)
        while len(rem) - 1 >= dq and rem:
            c = rem[-1] * inv
            k = len(rem) - 1 - dq
            quot[k] = c
            for i in range(dq + 1):
                rem[k + i] = rem[k + i] - c * other.coeffs[i]
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly(self.ctx, quot), Poly(self.ctx, rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return self.divmod(other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return self.divmod(other)[1]

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def derivative(self) -> Poly:
        ctx = self.ctx
        return Poly(ctx, [self.coeffs[i] * ctx.from_rational(i)
                          for i in range(1, len(self.coeffs))])

    def evaluate(self, z: TowerScalar) -> TowerScalar:
        acc = self.ctx.zero
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def root_multiplicity(self, c: TowerScalar, cap: int = 64) -> int:
        """Multiplicity of the supplied root (0 if not a root)."""
        m = 0
        p = self
        lin = Poly(self.ctx, [-c, self.ctx.one])
        while not p.is_zero() and m < cap and p.evaluate(c).is_zero():
            p = p // lin
            m += 1
        return m

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree(), -1, -1):
            c = self.coefficient(k)
            if c.is_zero():
                continue
            mono = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            parts.append(f"({c.render()})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly[{self.render()}]"


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if p.is_zero() and q.is_zero():
        raise RatCalcError("gcd(0, 0) undefined")
    while not q.is_zero():
        p, q = q, p % q
    return p.monic()


class RatFunc:
    """Reduced ratio num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = Poly.constant(num.ctx, 1)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            den = Poly.constant(num.ctx, 1)
        else:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num // g
                den = den // g
        if not (den.degree() == 0 and den.leading() == num.ctx.one):
            inv = den.leading().inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_poly(p: Poly) -> RatFunc:
        return RatFunc(p)

    @staticmethod
    def constant(ctx: TowerContext, value) -> RatFunc:
        return RatFunc(Poly.constant(ctx, value))

    @staticmethod
    def x(ctx: TowerContext) -> RatFunc:
        return RatFunc(Poly.x(ctx))

    @property
    def ctx(self) -> TowerContext:
        return self.num.ctx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.degree() == 0

    # -- field operations ---------------------------------------------------

    def __add__(self, other: RatFunc) -> RatFunc:
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other: RatFunc) -> RatFunc:
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: RatFunc) -> RatFunc:
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RatFunc) -> RatFunc:
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self) -> RatFunc:
        return RatFunc(self.num.derivative() * self.den - self.num * self.den.derivative(),
                       self.den * self.den)

    def evaluate(self, z: TowerScalar) -> TowerScalar:
        d = self.den.evaluate(z)
        if d.is_zero():
            raise PoleEvaluation("evaluation at a pole")
        return self.num.evaluate(z) / d

    def embed_complex(self, z: complex, branch=(1, 1)) -> complex:
        """Floating evaluation at a complex point (for numeric cross-checks)."""
        num = 0j
        for c in reversed(self.num.coeffs):
            num = num * z + c.embed_complex(branch)
        den = 0j
        for c in reversed(self.den.coeffs):
            den = den * z + c.embed_complex(branch)
        return num / den

    def render(self) -> str:
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self):
        return f"RatFunc[{self.render()}]"


@dataclass(frozen=True)
class PartialFraction:
    """Terms (pole, order k, coefficient of (z-pole)^-k) plus polynomial part."""

    terms: tuple[tuple[TowerScalar, int, TowerScalar], ...]
    polynomial_part: Poly

    def coefficient(self, pole: TowerScalar, order: int) -> TowerScalar:
        for c, k, coef in self.terms:
            if c == pole and k == order:
                return coef
        return self.polynomial_part.ctx.zero

    def reconstruct(self, ctx: TowerContext) -> RatFunc:
        out = RatFunc.from_poly(self.polynomial_part)
        for pole, k, coef in self.terms:
            lin = Poly(ctx, [-pole, ctx.one])
            den = Poly.constant(ctx, 1)
            for _ in range(k):
                den = den * lin
            out = out + RatFunc(Poly.constant(ctx, coef), den)
        return out


def partial_fractions(f: RatFunc,
                      roots: Sequence[tuple[TowerScalar, int]]) -> PartialFraction:
    """Decompose f over the supplied (pole, multiplicity) factorization of den(f).

    Coefficients come from Taylor expansion of (z-c)^m f at each pole c:
    the (z-c)^-k coefficient is the (m-k)-th Taylor coefficient.
    """
    ctx = f.ctx
    check = Poly.from_roots(ctx, roots)
    if check != f.den:
        raise BadFactorization("supplied roots do not factor the denominator")
    poly_part, rem = f.num.divmod(f.den)
    terms = []
    for pole, mult in roots:
        other = Poly.constant(ctx, 1)
        for pole2, mult2 in roots:
            if pole2 == pole:
                continue
            other = other * Poly.from_roots(ctx, [(pole2, mult2)])
        # g = rem / other is analytic at the pole; Taylor coefficients via
        # successive derivatives
        g = RatFunc(rem, other)
        fact = Fraction(1)
        derivs = []
        for j in range(mult):
            if j > 0:
                g = g.derivative()
                fact = fact * j
            derivs.append(g.evaluate(pole) / ctx.from_rational(fact))
        for k in range(1, mult + 1):
            coef = derivs[mult - k]
            if not coef.is_zero():
                terms.append((pole, k, coef))
    return PartialFraction(tuple(terms), poly_part)


def assemble_over_poles(ctx: TowerContext,
                        poles: Sequence[tuple[TowerScalar, int]],
                        coefficients: dict,
                        polynomial_part: Optional[Poly] = None) -> RatFunc:
    """Build sum coeff/(z-c)^k (+ polynomial part) over one common denominator.

    coefficients maps (pole index, order k) to a TowerScalar.  Avoids the
    quadratic blowup of pairwise rational-function additions.
    """
    factors = [Poly.from_roots(ctx, [(c, m)]) for c, m in poles]
    den = Poly.constant(ctx, 1)
    for fac in factors:
        den = den * fac
    num = Poly(ctx, [])
    for (j, k), coef in coefficients.items():
        if isinstance(coef, (int, Fraction)):
            coef = ctx.from_rational(coef)
        if coef.is_zero():
            continue
        pole, mult = poles[j]
        if not 1 <= k <= mult:
            raise RatCalcError(f"order {k} exceeds multiplicity {mult}")
        part = Poly.from_roots(ctx, [(pole, mult - k)])
        for i, fac in enumerate(factors):
            if i != j:
                part = part * fac
        num = num + part.scale(coef)
    if polynomial_part is not None and not polynomial_part.is_zero():
        num = num + polynomial_part * den
    return RatFunc(num, den)
