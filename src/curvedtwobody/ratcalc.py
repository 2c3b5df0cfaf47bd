"""Univariate polynomial and rational-function calculus over a tower context.

Dense polynomials with TowerScalar coefficients; rational functions kept
normalized (monic denominator, gcd(num, den) = 1).  Lowest terms come
from what the context knows: the pipeline's denominators factor over
z - z0, z^2 - kappa^2 and z^2 - lambda^2, so the quadratics and their
roots +-sqrt_a(), +-sqrt_b() are cancelled by synthetic division and the
Euclidean poly_gcd runs only on the rest of the denominator (z - z0
powers, or P from P'/P).  Pole locations are always supplied by callers
in closed form, so no root finding happens here; partial fractions use
the Taylor method at each supplied root.
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

    def strip(self, base: Poly) -> tuple[Poly, int]:
        """(q, k) with self = base^k * q and base not dividing q, by exact
        division; the zero polynomial gives (0, 0)."""
        if base.degree() < 1:
            raise RatCalcError("strip needs a non-constant base")
        q, k = self, 0
        while q.degree() >= base.degree():
            quot, rem = q.divmod(base)
            if not rem.is_zero():
                break
            q, k = quot, k + 1
        return q, k

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


def _quadratic_divmod(coeffs, a: TowerScalar):
    """Quotient and remainder r0 + r1*z of sum coeffs[k] z^k by z^2 - a.

    With p(z) = E(z^2) + z*O(z^2) the remainder is E(a) + z*O(a), so
    p(+-c) = r0 +- c*r1 at either root c of z^2 - a.  For a Gaussian a
    every step is a Gaussian-by-tower product."""
    cs = list(coeffs) + [a.ctx.zero] * (2 - len(coeffs))
    q = cs[2:]
    for k in range(len(q) - 3, -1, -1):
        q[k] = q[k] + a * q[k + 2]
    r0 = cs[0] + a * q[0] if q else cs[0]
    r1 = cs[1] + a * q[1] if len(q) > 1 else cs[1]
    return q, r0, r1


def _times_quadratic(p: Poly, a: TowerScalar) -> Poly:
    """p * (z^2 - a)."""
    cs = p.coeffs
    zero = p.ctx.zero
    out = [-(a * c) for c in cs] + [zero, zero]
    for k, c in enumerate(cs):
        out[k + 2] = out[k + 2] + c
    return Poly(p.ctx, out)


def _lowest_terms(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/g, den/g for g = gcd(num, den), not normalized.

    Copies of z^2 - a and z^2 - b (a = kappa^2, b = lambda^2) are
    stripped from den by synthetic division and cancelled against num,
    whole or through one root +-sqrt_a(), +-sqrt_b() found from the
    remainder; Euclid runs only on what is left of den.  This is
    gcd(num, QR) = gcd(num, Q) * gcd(num / gcd(num, Q), R) for the known
    part Q of den."""
    ctx = num.ctx
    rest = den
    cancelled = False
    kept = []       # (a, cancelled root, copies of z^2 - a, copies of z + root) left
    for s, sqrt in ((ctx.a, ctx.sqrt_a), (ctx.b, ctx.sqrt_b)):
        a = ctx.from_gauss(s)
        k = 0
        while rest.degree() >= 2:
            q, r0, r1 = _quadratic_divmod(rest.coeffs, a)
            if not (r0.is_zero() and r1.is_zero()):
                break
            rest = Poly(ctx, q)
            k += 1
        while k:
            q, r0, r1 = _quadratic_divmod(num.coeffs, a)
            if not (r0.is_zero() and r1.is_zero()):
                break
            num = Poly(ctx, q)
            k -= 1
            cancelled = True
        m, root = 0, None
        if k:
            c = sqrt()
            cr1 = c * r1
            if (r0 + cr1).is_zero():
                root = c
            elif (r0 - cr1).is_zero():
                root = -c
            if root is not None:
                lin = Poly(ctx, [-root, ctx.one])
                while m < k:
                    num = num // lin
                    m += 1
                    _, r0, r1 = _quadratic_divmod(num.coeffs, a)
                    if not (r0 + root * r1).is_zero():
                        break
                cancelled = True
        kept.append((a, root, k - m, m))
    if rest.degree() > 0:
        g = poly_gcd(num, rest)
        if g.degree() > 0:
            num = num // g
            rest = rest // g
            cancelled = True
    if not cancelled:
        return num, den
    for a, root, j, m in kept:
        for _ in range(j):
            rest = _times_quadratic(rest, a)
        if m:
            rest = rest * Poly.from_roots(ctx, [(-root, m)])
    return num, rest


class RatFunc:
    """Reduced ratio num/den with monic denominator.

    The reduced form is unique, so it equals num/g, den/g for the monic
    g = poly_gcd(num, den), scaled to a monic den; it is reached through
    _lowest_terms, which spends Euclid only on the unknown factors."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = Poly.constant(num.ctx, 1)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            den = Poly.constant(num.ctx, 1)
        elif num.degree() > 0 and den.degree() > 0:
            num, den = _lowest_terms(num, den)
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
