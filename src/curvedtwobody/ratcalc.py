"""Univariate polynomial and rational-function calculus over a tower context.

A polynomial is held as integer lists over one common denominator (see
Poly), in a canonical form, so == and hash compare integers.  Sums,
products, derivatives, evaluation and division run on the lists, with no
gcd per coefficient (fraction-free arithmetic over a common denominator,
von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5-6); a
TowerScalar is built only when a coefficient is read (coeffs,
coefficient, leading, render).  A divisor with tower coefficients is
first multiplied by its conjugates under kappa -> -kappa and
lambda -> -lambda, which leaves Gaussian coefficients.  At a z with z^2
Gaussian (a Gaussian z, +-kappa, +-lambda), p(z) = E(z^2) + z O(z^2)
for the even and odd halves E, O of p: two integer Horner passes.

Every polynomial whose coefficients are known to be Gaussian is built
straight on the lists: constant, from_rationals, from_ints, from_gauss
and x from ints, Fractions and Gaussians, and Poly.from_roots as one
product of Gaussian integer lists, with z - c for each Gaussian root c and
z^2 - c^2 for each pair +-c whose square is Gaussian (+-kappa, +-lambda),
canonical once at the end.  Only a root outside Q(i) without its
negation (kappa alone) or a pair whose square is outside Q(i)
(c = 3 + kappa) is multiplied in after that, as a tower factor z - c or
z^2 - c^2.  from_roots keeps its products on the context
(TowerContext.root_products), keyed by the exponent map, so each is built
once per context.  A rational function keeps its monic denominator
factored over linear factors: an exponent map {c: e} for prod (z - c)^e,
and nothing else.  It is tested for lowest terms once, when a canonical
form is first read (num, roots, den, hash, render, log_derivative, /);
== cross-multiplies the stored forms, and the derivative and a square
work on them, so none of these tests.  The pipeline's denominators all
split over z - z0, z -+ kappa and z -+ lambda, so products add
exponents, sums work over the lcm, and the lowest-terms test only
evaluates the numerator at the roots; no gcd runs.
Pole locations are always supplied by callers in closed form
(RatFunc.over), so no root finding happens here: a polynomial that comes
in dense, as a denominator or as a numerator that / or log_derivative
inverts, is split over +-kappa and +-lambda with a leftover (z - c)^n as
the root c, and any other leftover raises BadFactorization.  This module
is the one place that splits a polynomial over such roots (callers read
RatFunc.exponents_over and split_off), and _log_sum is the one place that
builds sum w/(z - c) over prod (z - c), for simple_pole_sum,
RatFunc.derivative and case I's omega.  poly_gcd is plain Euclid on Poly;
RatFunc never calls it.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Optional, Sequence

from .exactfield import (GAUSS_ZERO, ContextMismatch, DivisionByZero, GaussRational,
                         TowerContext, TowerScalar, _gauss, _rat)


class RatCalcError(Exception):
    pass


class BadFactorization(RatCalcError):
    """Supplied roots/multiplicities do not factor the denominator."""


class PoleEvaluation(RatCalcError):
    """Evaluation at a pole of the (reduced) rational function."""


class Poly:
    """Dense polynomial sum c_k z^k, immutable.  For each basis element e_i
    of (1, kappa, lambda, kappa*lambda), ``_v[2i]`` and ``_v[2i + 1]`` are
    integer lists with c_k = sum_i (_v[2i][k] + _v[2i + 1][k] i) e_i / _d.
    Canonical form: _d > 0, no list ends in 0, no trailing pair of empty
    lists, and gcd(_d, every integer) = 1; the zero polynomial has no
    lists.  A list is never changed once a Poly holds it."""

    __slots__ = ("ctx", "_d", "_v")

    def __init__(self, ctx: TowerContext, coeffs: Iterable[TowerScalar] = ()):
        coeffs = list(coeffs)
        if all(c._gaussian for c in coeffs):
            cols = [[c.c00 for c in coeffs]]
        else:
            cols = [[c.coords()[i] for c in coeffs] for i in range(4)]
        d = lcm(*[g.d for col in cols for g in col])
        v = []
        for col in cols:
            v += ([g.x * (d // g.d) for g in col], [g.y * (d // g.d) for g in col])
        _canonical(self, ctx, d, v)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(ctx: TowerContext, value) -> Poly:
        if isinstance(value, TowerScalar):
            return Poly(ctx, [value])
        return Poly.from_rationals(ctx, [value])

    @staticmethod
    def x(ctx: TowerContext) -> Poly:
        return _raw(ctx, 1, ([0, 1], []))

    @staticmethod
    def from_rationals(ctx: TowerContext, values: Iterable) -> Poly:
        """The polynomial with the rational coefficients values (ints,
        Fractions or 'n/d' strings), low to high, over their lcm."""
        qs = [q if isinstance(q, (int, Fraction)) else _rat(q) for q in values]
        d = lcm(*[q.denominator for q in qs])
        return Poly.from_ints(ctx, [q.numerator * (d // q.denominator) for q in qs], d)

    @staticmethod
    def from_ints(ctx: TowerContext, xs: list, d: int = 1) -> Poly:
        """sum xs[k] z^k / d for integers xs (low to high, the list is
        taken over) and d != 0, canonical once."""
        if d < 0:
            xs, d = [-x for x in xs], -d
        return _canonical(object.__new__(Poly), ctx, d, [xs, []])

    @staticmethod
    def from_gauss(ctx: TowerContext, values: Sequence[GaussRational]) -> Poly:
        """The polynomial with the Gaussian coefficients values, low to
        high, over their lcm."""
        d = lcm(*[g.d for g in values])
        return _canonical(object.__new__(Poly), ctx, d, [[g.x * (d // g.d) for g in values],
                                                        [g.y * (d // g.d) for g in values]])

    @staticmethod
    def from_roots(ctx: TowerContext, roots: Iterable[tuple[TowerScalar, int]]) -> Poly:
        """prod (z - c)^m over the exponent map of roots; a negative total
        m raises RatCalcError naming the root.  The copies common to c and
        -c enter as z^2 - c^2.  Every z - c with c Gaussian and z^2 - c^2
        with c^2 Gaussian (z0, +-kappa and +-lambda of the pipeline) is
        multiplied into one product of Gaussian integer lists, canonical
        once at the end; a z - c with c outside Q(i) (kappa without
        -kappa) or a z^2 - c^2 with c^2 outside Q(i) (c = 3 + kappa) is
        then multiplied in as a tower Poly.  A Poly is immutable, so the
        product is kept in ctx.root_products under its exponent map and a
        later call returns the same object."""
        left = exponent_map(roots)
        key = frozenset(left.items())
        out = ctx.root_products.get(key)
        if out is not None:
            return out
        _refuse_negative(left)
        xs, ys, d, tower = [1], [], 1, []
        for c in list(left):
            e = left.pop(c, 0)
            if not e:
                continue
            m = -c
            k = min(e, left.get(m, 0))
            factors = []
            if k:
                left[m] -= k
                factors.append((ctx.square(c), 2, k))
            if e > k:
                factors.append((c, 1, e - k))
            for w, n, times in factors:
                if not w._gaussian:
                    tower += [_z_minus(w, n)] * times
                    continue
                g = w.c00
                fx, fy = [-g.x] + [0] * (n - 1) + [g.d], [-g.y] if g.y else []
                for _ in range(times):
                    xs, ys = _cmul(xs, ys, fx, fy)
                    d *= g.d
        out = _canonical(object.__new__(Poly), ctx, d, [xs, ys])
        for f in tower:
            out = out * f
        ctx.root_products[key] = out
        return out

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._v

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(map(len, self._v), default=0) - 1

    @property
    def coeffs(self) -> tuple[TowerScalar, ...]:
        """The coefficients, low to high, built on each read."""
        return tuple(self.coefficient(k) for k in range(self.degree() + 1))

    def leading(self) -> TowerScalar:
        if self.is_zero():
            raise RatCalcError("zero polynomial has no leading coefficient")
        return self.coefficient(self.degree())

    def coefficient(self, k: int) -> TowerScalar:
        v, d = self._v, self._d
        gs = []
        for i in range(0, len(v) if k >= 0 else 0, 2):
            x = v[i][k] if k < len(v[i]) else 0
            y = v[i + 1][k] if k < len(v[i + 1]) else 0
            gs.append(_gauss(x, y, d) if x or y else GAUSS_ZERO)
        return _tower(self.ctx, gs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return ((self.ctx is other.ctx or self.ctx == other.ctx)
                and self._d == other._d and self._v == other._v)

    def __hash__(self):
        return hash((self._d, *map(tuple, self._v)))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        return self._plus(other, 1)

    def __sub__(self, other: Poly) -> Poly:
        return self._plus(other, -1)

    def _plus(self, other: Poly, sign: int) -> Poly:
        """self + sign * other over the lcm of the denominators."""
        _check(self, other)
        a, b = self._v, other._v
        if not (a and b):
            return self if a else other if sign > 0 else -other
        g = gcd(self._d, other._d)
        s, t = other._d // g, sign * (self._d // g)
        if len(a) < len(b):
            a = a + ([],) * (len(b) - len(a))
        v = [_lin(xs, s, b[i], t) if i < len(b) else [s * x for x in xs]
             for i, xs in enumerate(a)]
        return _canonical(object.__new__(Poly), self.ctx, self._d * s, v)

    def __neg__(self) -> Poly:
        return _raw(self.ctx, self._d, [[-x for x in xs] for xs in self._v])

    def __mul__(self, other: Poly) -> Poly:
        """One Gaussian product of integer lists per pair of coordinates
        e_i, e_j; e_i e_j = f e_(i xor j) with f in {1, a, b, ab} by the
        bits i and j share, each f over den(a) den(b)."""
        _check(self, other)
        d = self._d * other._d
        if len(self._v) == 2 == len(other._v):
            return _canonical(object.__new__(Poly), self.ctx, d, [*_cmul(*self._v, *other._v)])
        a, b = self.ctx.a, self.ctx.b
        weights = {0: (a.d * b.d, 0), 2: (a.x * b.d, a.y * b.d), 4: (b.x * a.d, b.y * a.d),
                   6: (a.x * b.x - a.y * b.y, a.x * b.y + a.y * b.x)}
        v = [[] for _ in range(8)]
        for i in range(0, len(self._v), 2):
            for j in range(0, len(other._v), 2):
                re, im = _cmul(self._v[i], self._v[i + 1], other._v[j], other._v[j + 1])
                (fx, fy), k = weights[i & j], i ^ j
                v[k] = _lin(v[k], 1, _lin(re, fx, im, -fy), 1)
                v[k + 1] = _lin(v[k + 1], 1, _lin(re, fy, im, fx), 1)
        return _canonical(object.__new__(Poly), self.ctx, d * a.d * b.d, v)

    def scale(self, s: TowerScalar) -> Poly:
        if not s._gaussian:
            return self * Poly(self.ctx, [s])
        g, v = s.c00, []
        for i in range(0, len(self._v), 2):
            v += _cmul(self._v[i], self._v[i + 1], [g.x] if g.x else [], [g.y] if g.y else [])
        return _canonical(object.__new__(Poly), self.ctx, self._d * g.d, v)

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        """Exact Euclidean division; coefficient field must invert the divisor's
        leading coefficient.

        A divisor with tower coefficients is multiplied by the product C of
        its other conjugates; N = other * C has Gaussian coefficients, and
        the quotient of self by other is that of self * C by N."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        _check(self, other)
        if len(other._v) > 2:
            conj = [other]
            for flip in ((2, 3, 6, 7), (4, 5, 6, 7), (2, 3, 4, 5)):
                c = _raw(other.ctx, other._d, [[-x for x in xs] if i in flip else xs
                                               for i, xs in enumerate(other._v)])
                if c not in conj:
                    conj.append(c)
            cof = conj[1]
            for c in conj[2:]:
                cof = cof * c
            norm = other * cof
            if norm.degree() < other.degree() * len(conj):
                raise DivisionByZero("non-invertible leading coefficient "
                                     "(split tower zero divisor)")
            q = (self * cof).divmod(norm)[0]
            return q, self - other * q
        lead = other.leading()
        if lead == self.ctx.one:
            return _monic_divmod(self, other)
        inv = lead.inverse()
        q, r = _monic_divmod(self, other.scale(inv))
        return q.scale(inv), r

    def __floordiv__(self, other: Poly) -> Poly:
        return self.divmod(other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return self.divmod(other)[1]

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def derivative(self) -> Poly:
        v = [[k * xs[k] for k in range(1, len(xs))] for xs in self._v]
        return _canonical(object.__new__(Poly), self.ctx, self._d, v)

    def halves_at(self, w: TowerScalar) -> tuple[TowerScalar, TowerScalar]:
        """(E(w), O(w)) for self = E(z^2) + z O(z^2): the remainder of self
        by z^2 - w is E(w) + O(w) z.  A Gaussian w takes two integer Horner
        passes per coordinate."""
        if not w._gaussian:
            r = self % _z_minus(w, 2)
            return r.coefficient(0), r.coefficient(1)
        return self._at(w.c00, 0, 2), self._at(w.c00, 1, 2)

    def evaluate(self, z: TowerScalar) -> TowerScalar:
        if z._gaussian:
            return self._at(z.c00, 0, 1)
        e, o = self.halves_at(self.ctx.square(z))
        return e + z * o

    def _at(self, g, start: int, step: int) -> TowerScalar:
        """sum_k c_(start + step k) g^k at a Gaussian g, by Horner's rule on
        the integers of each coordinate."""
        v, d = self._v, self._d
        gs = []
        for i in range(0, len(v), 2):
            x, y, den = _horner(v[i][start::step], v[i + 1][start::step], g.x, g.y, g.d)
            gs.append(_gauss(x, y, den * d) if x or y else GAUSS_ZERO)
        return _tower(self.ctx, gs)

    def embed_complex(self, z: complex, branch=(1, 1)) -> complex:
        """Floating value at a complex z by Horner's rule, each coefficient
        embedded as TowerScalar.embed_complex does, with kappa =
        branch[0]*sqrt(a) and lambda = branch[1]*sqrt(b)."""
        v, d = self._v, self._d
        sk = branch[0] * cmath.sqrt(self.ctx.a.to_complex())
        sl = branch[1] * cmath.sqrt(self.ctx.b.to_complex())
        out = 0j
        for k in range(self.degree(), -1, -1):
            e = [complex(xs[k] / d if k < len(xs) else 0.0, ys[k] / d if k < len(ys) else 0.0)
                 for xs, ys in zip(v[::2], v[1::2])]
            e += [0j] * (4 - len(e))
            out = out * z + (e[0] + e[1] * sk + e[2] * sl + e[3] * sk * sl)
        return out

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        cs = self.coeffs
        for k in range(len(cs) - 1, -1, -1):
            c = cs[k]
            if c.is_zero():
                continue
            mono = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            parts.append(f"({c.render()})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly[{self.render()}]"


def _check(p: Poly, q: Poly):
    if p.ctx is not q.ctx and p.ctx != q.ctx:
        raise ContextMismatch("polynomials from different tower contexts")


def _raw(ctx: TowerContext, d: int, v) -> Poly:
    """The Poly of lists v over d, already canonical."""
    out = object.__new__(Poly)
    out.ctx, out._d, out._v = ctx, d, tuple(v)
    return out


def _canonical(out: Poly, ctx: TowerContext, d: int, v: list) -> Poly:
    """Fill out with the lists v over d > 0 in canonical form; the lists
    are taken over and may be changed."""
    for xs in v:
        while xs and not xs[-1]:
            xs.pop()
    while v and not (v[-1] or v[-2]):
        del v[-2:]
    g = d
    for xs in v:
        if g == 1:
            break
        g = gcd(g, *xs)
    if g != 1:
        v = [[x // g for x in xs] for xs in v]
        d //= g
    out.ctx, out._d, out._v = ctx, d, tuple(v)
    return out


def _refuse_negative(roots: dict):
    """Raise RatCalcError at the first root of roots with a negative
    exponent."""
    for c, e in roots.items():
        if e < 0:
            raise RatCalcError(f"negative exponent {e} at the root {c.render()}")


def _z_minus(c: TowerScalar, n: int) -> Poly:
    """The polynomial z^n - c (n > 0)."""
    gs = (c.c00,) if c._gaussian else c.coords()
    d = lcm(*[g.d for g in gs])
    v = []
    for g in gs:
        v += ([-g.x * (d // g.d)], [-g.y * (d // g.d)])
    v[0] += [0] * (n - 1) + [d]
    return _canonical(object.__new__(Poly), c.ctx, d, v)


def _tower(ctx: TowerContext, gs: list) -> TowerScalar:
    """The scalar with the coordinates gs, missing ones zero."""
    if len(gs) <= 1:
        return TowerScalar._of_gauss(ctx, gs[0] if gs else GAUSS_ZERO)
    return TowerScalar(ctx, *gs, *[GAUSS_ZERO] * (4 - len(gs)))


def _lin(a: list, s: int, b: list, t: int) -> list:
    """s a + t b for integer lists a, b (low to high)."""
    if len(a) < len(b):
        a, s, b, t = b, t, a, s
    return [s * x + t * y for x, y in zip(a, b)] + [s * x for x in a[len(b):]]


def _conv(a: list, b: list) -> list:
    """The product of the integer polynomials a, b (low to high)."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, y in enumerate(b):
        if y:
            for j, x in enumerate(a):
                out[i + j] += x * y
    return out


def _cmul(xa: list, ya: list, xb: list, yb: list) -> tuple[list, list]:
    """(re, im) of (xa + ya i)(xb + yb i) for integer lists; the lists
    may end in zeros.  With both imaginary parts present it is one pass
    over the pairs of Gaussian coefficients, not four real products."""
    if not (ya and yb):
        if ya:
            return _conv(xa, xb), _conv(ya, xb)
        return _conv(xa, xb), _conv(xa, yb)
    n, m = max(len(xa), len(ya)), max(len(xb), len(yb))
    if n < m:
        xa, ya, xb, yb, n, m = xb, yb, xa, ya, m, n
    pairs = list(zip(xa + [0] * (n - len(xa)), ya + [0] * (n - len(ya))))
    re, im = [0] * (n + m - 1), [0] * (n + m - 1)
    for i, (u, v) in enumerate(zip(xb + [0] * (m - len(xb)), yb + [0] * (m - len(yb)))):
        if u or v:
            for j, (x, y) in enumerate(pairs, i):
                re[j] += x * u - y * v
                im[j] += x * v + y * u
    return re, im


def _horner(xs: list, ys: list, wx: int, wy: int, wd: int) -> tuple[int, int, int]:
    """(u, v, D) with sum (xs[k] + ys[k] i) w^k = (u + v i)/D at
    w = (wx + wy i)/wd: Horner's rule with every step over one power of wd."""
    n = max(len(xs), len(ys))
    u = v = 0
    den = 1
    for x, y in zip(reversed(xs + [0] * (n - len(xs))), reversed(ys + [0] * (n - len(ys)))):
        u, v = u * wx - v * wy + x * den, u * wy + v * wx + y * den
        den *= wd
    return u, v, den // wd if n else 1


def _monic_divmod(p: Poly, n: Poly) -> tuple[Poly, Poly]:
    """(q, r) with p = n q + r, deg r < deg n, for a monic n with Gaussian
    coefficients, each coordinate of p divided on the integers.

    With n = (mx + my i)/l the integer divisor has leading coefficient l,
    so l^e p for e = deg p - deg n + 1 divides step by step with exact
    integer quotients (pseudo-division); the canonical form removes the
    powers of l that q and r do not need."""
    ctx = p.ctx
    m, top = n.degree(), p.degree()
    if top < m:
        return Poly(ctx), p
    l, (mx, my) = n._d, n._v
    my = my + [0] * (m + 1 - len(my))
    e = top - m + 1
    s = l ** e
    q, r = [], []
    for i in range(0, len(p._v), 2):
        xs = [x * s for x in p._v[i]] + [0] * (top + 1 - len(p._v[i]))
        ys = [y * s for y in p._v[i + 1]] + [0] * (top + 1 - len(p._v[i + 1]))
        qx, qy = [0] * e, [0] * e
        for k in range(top, m - 1, -1):
            cx, cy = xs[k] // l, ys[k] // l
            if cx or cy:
                j = k - m
                qx[j], qy[j] = cx, cy
                for t in range(m):
                    ax, ay = mx[t], my[t]
                    if ax or ay:
                        xs[j + t] -= cx * ax - cy * ay
                        ys[j + t] -= cx * ay + cy * ax
        q += (qx, qy)
        r += (xs[:m], ys[:m])
    # s p = (l n) Q + R, so q = Q l / (s d) and r = R / (s d)
    d = p._d * s
    return (_canonical(object.__new__(Poly), ctx, d // l, q),
            _canonical(object.__new__(Poly), ctx, d, r))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm.  Each
    remainder is made monic, which leaves the gcd as it is and keeps the
    coefficients from growing; a remainder whose degree does not fall
    raises RatCalcError rather than loop."""
    if p.is_zero() and q.is_zero():
        raise RatCalcError("gcd(0, 0) undefined")
    while not q.is_zero():
        r = p % q
        if r.degree() >= q.degree():
            raise RatCalcError(f"remainder of degree {r.degree()} by a divisor "
                               f"of degree {q.degree()}")
        p, q = q, r.monic()
    return p.monic()


def _deflate(p: Poly, c: TowerScalar, e: int) -> tuple[Poly, int]:
    """(p / (z - c)^k, k) for the largest k <= e with (z - c)^k | p."""
    k, lin = 0, None
    while k < e and p.degree() > 0 and p.evaluate(c).is_zero():
        if lin is None:
            lin = _z_minus(c, 1)
        p, k = p // lin, k + 1
    return p, k


def _deflate_pair(p: Poly, c: TowerScalar, e_plus: int, e_minus: int):
    """_deflate at c and at -c, testing both through the remainder
    r0 + r1 z mod z^2 - c^2 while both may still divide: p(+-c) = r0 +- c r1."""
    c2 = p.ctx.square(c)
    k, plus, minus, quad = 0, True, True, None
    while k < min(e_plus, e_minus) and p.degree() > 0:
        r0, r1 = p.halves_at(c2)
        if not (r0.is_zero() and r1.is_zero()):
            cr1 = c * r1
            plus, minus = (r0 + cr1).is_zero(), (r0 - cr1).is_zero()
            break
        if quad is None:
            quad = _z_minus(c2, 2)
        p, k = p // quad, k + 1
    j_plus = j_minus = 0
    if plus:
        p, j_plus = _deflate(p, c, e_plus - k)
    if minus:
        p, j_minus = _deflate(p, -c, e_minus - k)
    return p, k + j_plus, k + j_minus


def _factor(p: Poly) -> tuple[TowerScalar, dict]:
    """(lead, roots) with p = lead * prod (z - c)^e.

    The roots +-sqrt_a(), +-sqrt_b() (kappa, lambda) come off by
    _deflate_pair, whole copies of z^2 - a and z^2 - b first.  A leftover
    of degree n is taken as (z - c)^n, c minus its z^(n-1) coefficient over
    n; any other leftover has roots nobody supplied, so it raises
    BadFactorization."""
    ctx = p.ctx
    lead = p.leading()
    if lead != ctx.one:
        p = p.scale(lead.inverse())
    roots = {}
    for sqrt in (ctx.sqrt_a, ctx.sqrt_b):
        if p.degree() < 2:
            break
        c = sqrt()
        p, k, j = _deflate_pair(p, c, p.degree(), p.degree())
        if k:
            roots[c] = k
        if j:
            roots[-c] = j
    n = p.degree()
    if n > 0:
        c = -p.coefficient(n - 1) / ctx.from_rational(n)
        p, k = _deflate(p, c, n)
        if k < n:
            raise BadFactorization(
                f"a factor of degree {n} is not (z - c)^{n} after +-kappa, +-lambda")
        roots[c] = roots.get(c, 0) + n
    return lead, roots


def split_off(p: Poly, keys) -> tuple[dict, Poly]:
    """({c: k}, q) with p = q * prod (z - c)^k over the c in keys with
    k > 0, and q(c) != 0 at every c in keys."""
    out = {}
    for c in keys:
        p, k = _deflate(p, c, p.degree())
        if k:
            out[c] = k
    return out, p


def _lowest_terms(num: Poly, roots: dict) -> tuple[Poly, dict]:
    """num over prod (z - c)^e, brought to lowest terms.

    num is divided by z - c while it vanishes at c, for each root c, a
    pair +-c through one remainder mod z^2 - c^2."""
    if num.degree() <= 0:
        return num, roots
    cut = {}
    done = set()
    for c in roots:
        if c in done:
            continue
        m = -c
        if not c.is_zero() and m in roots:
            done.add(m)
            num, k, j = _deflate_pair(num, c, roots[c], roots[m])
            cut[c], cut[m] = k, j
        else:
            num, cut[c] = _deflate(num, c, roots[c])
    if any(cut.values()):
        roots = {c: e - cut.get(c, 0) for c, e in roots.items() if e > cut.get(c, 0)}
    return num, roots


def _over_lcm(fs: Sequence[RatFunc]) -> tuple[dict, list[Poly]]:
    """(roots, numerators) for the least common denominator
    D = prod (z - c)^e of the stored denominators of fs: e is the largest
    exponent of each root, and numerators[j] = D fs[j]."""
    ctx = fs[0].ctx
    roots = {}
    for f in fs:
        for c, e in f._roots.items():
            if e > roots.get(c, 0):
                roots[c] = e
    nums = []
    for f in fs:
        num = f._num
        cof = [(c, e - f._roots.get(c, 0)) for c, e in roots.items()]
        if any(k for _, k in cof) and not num.is_zero():
            num = num * Poly.from_roots(ctx, cof)
        nums.append(num)
    return roots, nums


def clear_denominators(fs: Sequence[RatFunc]) -> list[Poly]:
    """The numerators D f over the least common denominator D of fs, each
    f read in lowest terms."""
    return _over_lcm([f._reduce() for f in fs])[1]


def _log_sum(ctx: TowerContext, weights: dict) -> tuple[Poly, Poly]:
    """(S, T) with S = prod (z - c) and T/S = sum w/(z - c) over the
    roots c of weights, each of non-zero weight w.  With S_w the product
    over the roots of weight w, S = prod S_w and T = sum w S_w' S / S_w;
    a pair +-c of equal weight enters S_w as z^2 - c^2."""
    groups = {}
    for c, w in weights.items():
        groups.setdefault(w, []).append((c, 1))
    factors = [(w, Poly.from_roots(ctx, group)) for w, group in groups.items()]
    s, t = _raw(ctx, 1, ([1], [])), _raw(ctx, 1, ())
    for i, (w, f) in enumerate(factors):
        s = s * f if i else f
        term = f.derivative()
        if w != 1:
            term = term.scale(ctx.from_rational(w))
        for j, (_, g) in enumerate(factors):
            if j != i:
                term = term * g
        t = t + term
    return s, t


def simple_pole_sum(ctx: TowerContext, weights: dict) -> RatFunc:
    """sum w/(z - c) over the (c, w) of weights with w != 0.  T/S from
    _log_sum is in lowest terms: T(c) = w prod (c - c') != 0 at each root."""
    weights = {c: w for c, w in weights.items() if w}
    s, t = _log_sum(ctx, weights)
    return RatFunc._of(t, dict.fromkeys(weights, 1), True)


class RatFunc:
    """num / den, read in lowest terms, with den = prod (z - c)^e monic and
    kept as its exponent map: ``roots`` maps each root c to its exponent
    e > 0.

    A value built by +, -, *, / or over is stored as computed and flagged
    untested: products add exponents, sums and differences work over the
    lcm.  The first read of num, roots, den, hash, render,
    log_derivative or / tests lowest terms once, dividing the numerator
    at each root, a pair +-c through one remainder mod z^2 - c^2.  ==
    cross-multiplies the stored forms and tests neither side.  Negation,
    a product by a constant, f * f and the derivative work on the stored
    form and keep the flag: f * f and the derivative of a tested f (each
    exponent rises by one) are in lowest terms as built, as is the
    log-derivative (a simple pole at each root of num and den).
    reduced_to brings the stored form to given pole orders by one exact
    division and flags it as tested, for a caller that knows them.  A dense
    denominator passed to the constructor, and the numerator that / and
    log_derivative invert, are split by _factor, which raises
    BadFactorization on a factor with unknown roots; RatFunc.over takes
    any roots as given.  The dense monic ``den`` is built on first use."""

    __slots__ = ("_num", "_roots", "_tested", "_den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            self._num, self._roots, self._tested, self._den = num, {}, True, None
            return
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        ctx = num.ctx
        lead, roots = _factor(den)
        if num.is_zero():
            roots = {}
        elif lead != ctx.one:
            num = num.scale(lead.inverse())
        self._num, self._roots, self._tested, self._den = num, roots, not roots, None

    @staticmethod
    def _of(num: Poly, roots: dict, tested: bool) -> RatFunc:
        """num / prod (z - c)^e, in lowest terms when tested is true."""
        out = object.__new__(RatFunc)
        out._num, out._roots, out._tested, out._den = num, roots, tested, None
        return out

    def _reduce(self) -> RatFunc:
        """self, its stored num and roots brought to lowest terms."""
        if not self._tested:
            self._num, self._roots = _lowest_terms(self._num, self._roots)
            self._tested = True
        return self

    # -- constructors -----------------------------------------------------

    @staticmethod
    def over(num: Poly, roots: dict) -> RatFunc:
        """num / prod (z - c)^e for exponents e >= 0; a negative e raises
        RatCalcError."""
        _refuse_negative(roots)
        if num.is_zero():
            return RatFunc(num)
        roots = {c: e for c, e in roots.items() if e}
        return RatFunc._of(num, roots, not roots)

    def reduced_to(self, roots: dict) -> RatFunc:
        """self over prod (z - c)^e for the {c: e} of roots, flagged as in
        lowest terms with no test, for a caller that knows these are its
        pole orders: the stored numerator is divided exactly by what the
        stored denominator holds beyond roots.  A root of roots above its
        stored exponent, or a remainder, raises RatCalcError."""
        if self.is_zero():
            return self
        _refuse_negative(roots)
        cut = [(c, e - roots.get(c, 0)) for c, e in self._roots.items()]
        if any(k < 0 for _, k in cut) or not roots.keys() <= self._roots.keys():
            raise RatCalcError("roots holds more than the stored denominator")
        num = self._num
        if any(k for _, k in cut):
            num, rem = num.divmod(Poly.from_roots(self.ctx, cut))
            if not rem.is_zero():
                raise RatCalcError("the surplus of the denominator does not divide "
                                   "the numerator")
        return RatFunc._of(num, {c: e for c, e in roots.items() if e}, True)

    @staticmethod
    def constant(ctx: TowerContext, value) -> RatFunc:
        return RatFunc(Poly.constant(ctx, value))

    @staticmethod
    def x(ctx: TowerContext) -> RatFunc:
        return RatFunc(Poly.x(ctx))

    @property
    def ctx(self) -> TowerContext:
        return self._num.ctx

    @property
    def num(self) -> Poly:
        """The numerator in lowest terms."""
        return self._reduce()._num

    @property
    def roots(self) -> dict:
        """The exponent map of den in lowest terms."""
        return self._reduce()._roots

    @property
    def den(self) -> Poly:
        """The dense monic denominator in lowest terms."""
        if self._den is None:
            self._den = Poly.from_roots(self.ctx, self.roots.items())
        return self._den

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def exponents_over(self, keys) -> dict:
        """{c: e} over the c in keys (a collection) at which den has a root,
        e its exponent, in the order of keys; raises BadFactorization when
        den has a root outside keys."""
        out = {c: self.roots[c] for c in keys if c in self.roots}
        if len(out) < len(self.roots):
            raise BadFactorization("the given roots do not factor the denominator")
        return out

    def den_degree(self) -> int:
        return sum(self.roots.values())

    # -- field operations ---------------------------------------------------

    def __add__(self, other: RatFunc) -> RatFunc:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        roots, (n1, n2) = _over_lcm((self, other))
        num = n1 + n2
        if num.is_zero():
            return RatFunc(num)
        return RatFunc._of(num, roots, not roots)

    def __sub__(self, other: RatFunc) -> RatFunc:
        return self + (-other)

    def __neg__(self) -> RatFunc:
        return RatFunc._of(-self._num, self._roots, self._tested)

    def __mul__(self, other: RatFunc) -> RatFunc:
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        if other is self:
            # a tested num is coprime to den, so num^2 is coprime to den^2
            return RatFunc._of(self._num * self._num,
                               {c: 2 * e for c, e in self._roots.items()}, self._tested)
        # a non-zero constant factor k cancels nothing: f's flag carries over
        for f, k in ((self, other), (other, self)):
            if not k._roots and k._num.degree() <= 0:
                return RatFunc._of(f._num.scale(k._num.coefficient(0)), f._roots, f._tested)
        roots = dict(self._roots)
        for c, e in other._roots.items():
            roots[c] = roots.get(c, 0) + e
        return RatFunc._of(self._num * other._num, roots, not roots)

    def __truediv__(self, other: RatFunc) -> RatFunc:
        """self times 1/other, whose denominator is other's numerator split
        by _factor."""
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        lead, roots = _factor(other.num)
        num = other.den if lead == self.ctx.one else other.den.scale(lead.inverse())
        return self * RatFunc._of(num, roots, True)

    def __eq__(self, other) -> bool:
        """Cross-multiplication: the stored numerators over the lcm of the
        stored denominators agree, so neither side is tested.  Values from
        contexts that differ are unequal."""
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        n1, n2 = _over_lcm((self, other))[1]
        return n1 == n2

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self) -> RatFunc:
        """(num/Q)' with Q = prod (z - c)^e the stored num and exponent map:
        Q'/Q = T/S for (S, T) = _log_sum(roots), so the derivative is
        (num' S - num T) / (Q S), and the result keeps self's flag.  On a
        tested value num does not vanish at the roots of Q, so nothing
        cancels and each exponent rises by exactly one."""
        num, roots = self._num, self._roots
        if not roots:
            return RatFunc._of(num.derivative(), roots, True)
        s, t = _log_sum(self.ctx, roots)
        num = num.derivative() * s - num * t
        if num.is_zero():
            return RatFunc(num)
        return RatFunc._of(num, {c: e + 1 for c, e in roots.items()}, self._tested)

    def log_derivative(self) -> RatFunc:
        """f'/f = sum (k_c - e_c)/(z - c), read off the roots k_c of num
        (split by _factor) and e_c of den without a division.  No root c is
        in both num and den, so every weight is non-zero."""
        if self.is_zero():
            raise DivisionByZero("log-derivative of the zero rational function")
        _, weights = _factor(self.num)
        for c, e in self.roots.items():
            weights[c] = weights.get(c, 0) - e
        return simple_pole_sum(self.ctx, weights)

    def evaluate(self, z: TowerScalar) -> TowerScalar:
        d = self.den.evaluate(z)
        if d.is_zero():
            raise PoleEvaluation("evaluation at a pole")
        return self.num.evaluate(z) / d

    def polar_leading(self, c: TowerScalar) -> TowerScalar:
        """The coefficient of (z - c)^-e at a root c of exponent e: with
        den = (z - c)^e R, it is num(c)/R(c) and den^(e)(c) = e! R(c)."""
        e = self.roots.get(c, 0)
        d = self.den
        for _ in range(e):
            d = d.derivative()
        return self.num.evaluate(c) * self.ctx.from_rational(factorial(e)) / d.evaluate(c)

    def embed_complex(self, z: complex, branch=(1, 1)) -> complex:
        """Floating evaluation at a complex point (for numeric cross-checks)."""
        return self.num.embed_complex(z, branch) / self.den.embed_complex(z, branch)

    def render(self) -> str:
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self):
        return f"RatFunc[{self.render()}]"


def exponent_map(roots: Iterable[tuple[TowerScalar, int]]) -> dict:
    """{c: total multiplicity} over the nonzero (c, m) pairs."""
    out = {}
    for c, m in roots:
        if m:
            out[c] = out.get(c, 0) + m
    return out
