"""Exact arithmetic for the coefficient field Q(i)[kappa, lambda].

The ground field is the Gaussian rationals Q(i); on top of it sits a
quadratic tower generated by two square roots kappa, lambda whose squares
are prescribed Gaussian rationals a, b.  Every scalar is stored by its
coordinates in the basis {1, kappa, lambda, kappa*lambda}, so arithmetic
is exact and reduction by kappa^2 = a, lambda^2 = b is built into the
multiplication table.

A Gaussian rational is three integers (x, y, d) for (x + y*i)/d, kept
canonical (d > 0, gcd(x, y, d) = 1), so equality is coordinate equality.
A sum or product with a zero operand returns the canonical result without
arithmetic; any other result is reduced by one n-ary gcd.  Fraction
appears only at the edges (parsing, re/im, square roots), never in the
ring operations.

Most scalars of the pipeline are plain Gaussians.  A tower scalar records
at construction whether its kappa, lambda and kappa*lambda coordinates
are zero; when both operands are Gaussian, +, -, * and negation work on
the Gaussian coordinate alone.  A scalar keeps its negation: -x is built
on first use and -(-x) is x, so the roots +-c of an exponent map, negated
wherever they are needed, are one object each and a lookup on them hits
by identity.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional


class ExactFieldError(Exception):
    pass


class DegenerateTower(ExactFieldError):
    """Tower parameters collide (a=0, b=0 or a=b): singular points merge."""


class DivisionByZero(ExactFieldError):
    """Division by zero or by a non-invertible element of a split tower."""


class ContextMismatch(ExactFieldError):
    """Scalars from different towers cannot be combined."""


def _rat(x) -> Fraction:
    """The one rational parser: a Fraction, an int, or an exact 'n/d' (or
    integer) string.  Other strings, decimals among them, raise ValueError;
    other types, bool among them (a JSON true is no rational), raise
    TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    bad = f"rational parameters must be exact 'n/d' strings: {x!r}"
    if not isinstance(x, str):
        raise TypeError(bad)
    if "." in x or "e" in x.lower():
        raise ValueError(bad)
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    except ValueError:
        raise ValueError(bad) from None


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root of q, or None if q is not a square."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class GaussRational:
    """Element (x + y*i)/d of Q(i), with integers d > 0, gcd(x, y, d) = 1."""

    __slots__ = ("x", "y", "d")

    def __init__(self, re=0, im=0):
        re, im = _rat(re), _rat(im)
        # both parts in lowest terms: over the lcm the triple is canonical
        d = lcm(re.denominator, im.denominator)
        self.x = re.numerator * (d // re.denominator)
        self.y = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    def __add__(self, other: GaussRational) -> GaussRational:
        if not (other.x or other.y):
            return self
        if not (self.x or self.y):
            return other
        if self.d == other.d:
            return _gauss(self.x + other.x, self.y + other.y, self.d)
        d1, d2 = self.d, other.d
        return _gauss(self.x * d2 + other.x * d1, self.y * d2 + other.y * d1, d1 * d2)

    def __sub__(self, other: GaussRational) -> GaussRational:
        if self.d == other.d:
            return _gauss(self.x - other.x, self.y - other.y, self.d)
        d1, d2 = self.d, other.d
        return _gauss(self.x * d2 - other.x * d1, self.y * d2 - other.y * d1, d1 * d2)

    def __neg__(self) -> GaussRational:
        # gcd(-x, -y, d) = gcd(x, y, d) = 1 and d > 0: already canonical
        out = object.__new__(GaussRational)
        out.x, out.y, out.d = -self.x, -self.y, self.d
        return out

    def __mul__(self, other: GaussRational) -> GaussRational:
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if y2 == 0:
            if x2 == 0 or (x1 == 0 and y1 == 0):
                return GAUSS_ZERO
            return _gauss(x1 * x2, y1 * x2, self.d * other.d)
        if y1 == 0:
            if x1 == 0:
                return GAUSS_ZERO
            return _gauss(x1 * x2, x1 * y2, self.d * other.d)
        return _gauss(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, self.d * other.d)

    def __truediv__(self, other: GaussRational) -> GaussRational:
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        # (x1 + y1 i)/d1 / ((x2 + y2 i)/d2) = (x1 + y1 i)(x2 - y2 i) d2 / (d1 n)
        if y2 == 0:
            if x2 == 0:
                raise DivisionByZero("division by zero in Q(i)")
            return _gauss(x1 * other.d, y1 * other.d, self.d * x2)
        n = x2 * x2 + y2 * y2
        x, y = x1 * x2 + y1 * y2, y1 * x2 - x1 * y2
        if self.d == other.d:
            return _gauss(x, y, n)
        return _gauss(x * other.d, y * other.d, self.d * n)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.d == other.d

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def to_complex(self) -> complex:
        return complex(self.x / self.d) + 1j * complex(self.y / self.d)

    def render(self) -> str:
        """'x/d+y/d i' with each part in lowest terms."""
        x, y, d = self.x, self.y, self.d
        g, h = gcd(x, d), gcd(y, d)
        return f"{x // g}/{d // g}{'+' if y >= 0 else '-'}{abs(y) // h}/{d // h} i"

    def __repr__(self):
        return f"GaussRational({self.re}, {self.im})"


def _gauss(x: int, y: int, d: int) -> GaussRational:
    """(x + y*i)/d for integers with d != 0, in canonical form."""
    g = gcd(x, y, d)
    if d < 0:
        g = -g
    out = object.__new__(GaussRational)
    out.x, out.y, out.d = x // g, y // g, d // g
    return out


GAUSS_ZERO = GaussRational(0, 0)
GAUSS_ONE = GaussRational(1, 0)


def gauss_sqrt(g: GaussRational) -> Optional[GaussRational]:
    """A Gaussian-rational square root of g, or None if none exists.

    Of the two roots the one with re > 0 (or re = 0, im >= 0) is returned,
    which matches the principal complex square root.

    g = (x + y i)/d is (X + Y i)/d^2 with X + Y i = (x + y i) d, and a root
    of that Gaussian integer in Q(i) lies in Z[i], which is integrally
    closed: (u + v i)^2 = X + Y i with t = |X + Y i| an integer, u^2 =
    (X + t)/2 and v^2 = (t - X)/2.  Taking u > 0 (v >= 0 when u = 0) picks
    the principal branch, and the root is (u + v i)/d.  Below, x and y
    hold X and Y.
    """
    d = g.d
    x, y = g.x * d, g.y * d
    if y == 0:
        r = isqrt(abs(x))
        if r * r != abs(x):
            return None
        return _gauss(r, 0, d) if x >= 0 else _gauss(0, r, d)
    t = isqrt(x * x + y * y)
    if t * t != x * x + y * y or (x + t) % 2:
        return None
    u2 = (x + t) // 2
    u = isqrt(u2)
    if u * u != u2:
        return None
    # y != 0 makes t > |x|, so u > 0, and 2 u v = y gives v
    return _gauss(u, y // (2 * u), d)


class TowerContext:
    """The tower Q(i)[kappa, lambda] with kappa^2 = a, lambda^2 = b.

    ``root_products`` belongs to ratcalc: it keeps each Poly.from_roots
    product of this context, so an equal but distinct context never
    shares one, and the products go when the context does."""

    __slots__ = ("a", "b", "_sqrt_a", "_sqrt_b", "_squares", "root_products")

    def __init__(self, a: GaussRational, b: GaussRational):
        if a.is_zero() or b.is_zero() or a == b:
            raise DegenerateTower(
                f"tower needs a, b nonzero and distinct, got a={a!r} b={b!r}")
        self.a = a
        self.b = b
        root_a, root_b = gauss_sqrt(a), gauss_sqrt(b)
        self._sqrt_a = self.kappa if root_a is None else self.from_gauss(root_a)
        if root_b is not None:
            self._sqrt_b = self.from_gauss(root_b)
        else:
            y = gauss_sqrt(b / a) if root_a is None else None
            self._sqrt_b = (self.lam if y is None else
                            TowerScalar(self, GAUSS_ZERO, y, GAUSS_ZERO, GAUSS_ZERO))
        sa, sb = self.from_gauss(a), self.from_gauss(b)
        self._squares = {self._sqrt_a: sa, -self._sqrt_a: sa,
                         self._sqrt_b: sb, -self._sqrt_b: sb}
        self.root_products = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TowerContext):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"TowerContext(a={self.a!r}, b={self.b!r})"

    # -- constructors -------------------------------------------------

    def scalar(self, c00, c10=GAUSS_ZERO, c01=GAUSS_ZERO, c11=GAUSS_ZERO) -> TowerScalar:
        if not isinstance(c00, GaussRational):
            c00 = GaussRational(_rat(c00))
        return TowerScalar(self, c00, c10, c01, c11)

    def from_rational(self, q) -> TowerScalar:
        """q as a scalar.  An int or a Fraction is already in lowest terms,
        so its Gaussian is built directly; a string goes through _rat."""
        if not isinstance(q, (int, Fraction)):
            q = _rat(q)
        g = object.__new__(GaussRational)
        g.x, g.y, g.d = q.numerator, 0, q.denominator
        return TowerScalar._of_gauss(self, g)

    def from_gauss(self, g: GaussRational) -> TowerScalar:
        return TowerScalar._of_gauss(self, g)

    @property
    def zero(self) -> TowerScalar:
        return TowerScalar._of_gauss(self, GAUSS_ZERO)

    @property
    def one(self) -> TowerScalar:
        return TowerScalar._of_gauss(self, GAUSS_ONE)

    @property
    def kappa(self) -> TowerScalar:
        return TowerScalar(self, GAUSS_ZERO, GAUSS_ONE, GAUSS_ZERO, GAUSS_ZERO)

    @property
    def lam(self) -> TowerScalar:
        return TowerScalar(self, GAUSS_ZERO, GAUSS_ZERO, GAUSS_ONE, GAUSS_ZERO)

    def sqrt_a(self) -> TowerScalar:
        """kappa as a value: the collapsed Gaussian root of a when a is a
        perfect square in Q(i), otherwise the tower generator."""
        return self._sqrt_a

    def sqrt_b(self) -> TowerScalar:
        """lambda as a value; collapses to a Gaussian scalar or to a
        Gaussian multiple of kappa whenever possible (keeps coefficient
        arithmetic inside an honest field)."""
        return self._sqrt_b

    def square(self, c: TowerScalar) -> TowerScalar:
        """c * c, read off a or b when c is +-kappa or +-lambda."""
        sq = self._squares.get(c)
        return c * c if sq is None else sq


class TowerScalar:
    """Element c00 + c10*kappa + c01*lambda + c11*kappa*lambda; ``_gaussian``,
    set at construction, says whether c10 = c01 = c11 = 0, ``_hash`` keeps
    the hash from its first use and ``_neg`` the negation from its first
    use, whose own ``_neg`` is this scalar."""

    __slots__ = ("ctx", "c00", "c10", "c01", "c11", "_gaussian", "_hash", "_neg")

    def __init__(self, ctx: TowerContext, c00: GaussRational, c10: GaussRational,
                 c01: GaussRational, c11: GaussRational):
        self.ctx = ctx
        self.c00 = c00
        self.c10 = c10
        self.c01 = c01
        self.c11 = c11
        self._gaussian = not (c10.x or c10.y or c01.x or c01.y or c11.x or c11.y)
        self._hash = self._neg = None

    @staticmethod
    def _of_gauss(ctx: TowerContext, c00: GaussRational) -> TowerScalar:
        """The Gaussian scalar c00, built without inspecting coordinates."""
        out = object.__new__(TowerScalar)
        out.ctx = ctx
        out.c00 = c00
        out.c10 = out.c01 = out.c11 = GAUSS_ZERO
        out._gaussian = True
        out._hash = out._neg = None
        return out

    # -- helpers ------------------------------------------------------

    def _check(self, other: TowerScalar):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch("scalars from different tower contexts")

    def is_zero(self) -> bool:
        return self._gaussian and self.c00.x == 0 and self.c00.y == 0

    def coords(self):
        return (self.c00, self.c10, self.c01, self.c11)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: TowerScalar) -> TowerScalar:
        self._check(other)
        if self._gaussian and other._gaussian:
            return TowerScalar._of_gauss(self.ctx, self.c00 + other.c00)
        return TowerScalar(self.ctx, self.c00 + other.c00, self.c10 + other.c10,
                           self.c01 + other.c01, self.c11 + other.c11)

    def __sub__(self, other: TowerScalar) -> TowerScalar:
        self._check(other)
        if self._gaussian and other._gaussian:
            return TowerScalar._of_gauss(self.ctx, self.c00 - other.c00)
        return TowerScalar(self.ctx, self.c00 - other.c00, self.c10 - other.c10,
                           self.c01 - other.c01, self.c11 - other.c11)

    def __neg__(self) -> TowerScalar:
        out = self._neg
        if out is None:
            if self._gaussian:
                out = TowerScalar._of_gauss(self.ctx, -self.c00)
            else:
                out = TowerScalar(self.ctx, -self.c00, -self.c10, -self.c01, -self.c11)
            out._neg, self._neg = self, out
        return out

    def __mul__(self, other: TowerScalar) -> TowerScalar:
        self._check(other)
        if self._gaussian and other._gaussian:
            return TowerScalar._of_gauss(self.ctx, self.c00 * other.c00)
        x0, x1, x2, x3 = self.coords()
        y0, y1, y2, y3 = other.coords()
        if self._gaussian:
            return TowerScalar(self.ctx, x0 * y0, x0 * y1, x0 * y2, x0 * y3)
        if other._gaussian:
            return TowerScalar(self.ctx, x0 * y0, x1 * y0, x2 * y0, x3 * y0)
        a, b = self.ctx.a, self.ctx.b
        ab = a * b
        z0 = x0 * y0 + a * (x1 * y1) + b * (x2 * y2) + ab * (x3 * y3)
        z1 = x0 * y1 + x1 * y0 + b * (x2 * y3 + x3 * y2)
        z2 = x0 * y2 + x2 * y0 + a * (x1 * y3 + x3 * y1)
        z3 = x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1
        return TowerScalar(self.ctx, z0, z1, z2, z3)

    def inverse(self) -> TowerScalar:
        """x^-1 by the norm.  With x = u + v*lambda (u, v in Q(i)(kappa)),
        w = x * sigma_lambda(x) = w0 + w1*kappa and N = w0^2 - a*w1^2 is in
        Q(i); then x^-1 = sigma_lambda(x) * (w0 - w1*kappa) / N.  N is the
        determinant of multiplication by x, so N = 0 exactly for the zero
        divisors of a split tower."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self._gaussian:
            return TowerScalar._of_gauss(self.ctx, GAUSS_ONE / self.c00)
        a, b = self.ctx.a, self.ctx.b
        x0, x1, x2, x3 = self.coords()
        w0 = x0 * x0 + a * (x1 * x1) - b * (x2 * x2 + a * (x3 * x3))
        w1 = x0 * x1 - b * (x2 * x3)
        w1 = w1 + w1
        n = w0 * w0 - a * (w1 * w1)
        if n.is_zero():
            raise DivisionByZero("non-invertible element (split tower zero divisor)")
        aw1 = a * w1
        return TowerScalar(self.ctx, (x0 * w0 - x1 * aw1) / n, (x1 * w0 - x0 * w1) / n,
                           (x3 * aw1 - x2 * w0) / n, (x2 * w1 - x3 * w0) / n)

    def __truediv__(self, other: TowerScalar) -> TowerScalar:
        self._check(other)
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TowerScalar):
            return NotImplemented
        return ((self.ctx is other.ctx or self.ctx == other.ctx)
                and self.c00 == other.c00
                and self.c10 == other.c10 and self.c01 == other.c01
                and self.c11 == other.c11)

    def __hash__(self):
        # equal scalars have equal coordinates.  Every numerator and
        # denominator counts, or kappa and kappa/2 would collide; numerators
        # are doubled because hash(-1) == hash(-2), which would merge -kappa
        # and -2 kappa.
        if self._hash is None:
            a, b, c, d = self.c00, self.c10, self.c01, self.c11
            self._hash = hash((2 * a.x, 2 * a.y, a.d, 2 * b.x, 2 * b.y, b.d,
                               2 * c.x, 2 * c.y, c.d, 2 * d.x, 2 * d.y, d.d))
        return self._hash

    # -- predicates and embeddings --------------------------------------

    def is_real_rational(self) -> Optional[Fraction]:
        """The rational value of this scalar, if it visibly is one."""
        g = self.c00
        if self._gaussian and g.y == 0:
            return Fraction(g.x, g.d)
        return None

    def is_gauss_value(self) -> Optional[GaussRational]:
        return self.c00 if self._gaussian else None

    def embed_complex(self, branch=(1, 1)) -> complex:
        """Double-precision value with kappa = branch[0]*sqrt(a) etc."""
        sk = branch[0] * cmath.sqrt(self.ctx.a.to_complex())
        sl = branch[1] * cmath.sqrt(self.ctx.b.to_complex())
        return (self.c00.to_complex() + self.c10.to_complex() * sk
                + self.c01.to_complex() * sl + self.c11.to_complex() * sk * sl)

    def render(self) -> str:
        return (f"({self.c00.render()}) + ({self.c10.render()})κ"
                f" + ({self.c01.render()})λ + ({self.c11.render()})κλ")

    def __repr__(self):
        return f"TowerScalar[{self.render()}]"
