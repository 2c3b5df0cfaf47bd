"""Univariate polynomial and rational-function calculus over a tower context.

Dense polynomials with TowerScalar coefficients.  When both factors have
coefficients in Q(i), a product is one convolution of integers over each
factor's common denominator and one _gauss per output coefficient; other
products run the term-by-term TowerScalar loop.  Poly.from_roots keeps
its products on the context (TowerContext.root_products), keyed by the
exponent map, so each is built once per context.  A rational function is
read in lowest terms, tested once on first read, with its monic
denominator factored over linear factors: an exponent map {c: e} for
prod (z - c)^e, and nothing else.  The pipeline's denominators all split
over z - z0, z -+ kappa and z -+ lambda, so products add exponents, sums
work over the lcm, and the lowest-terms test only divides the numerator
at the roots by synthetic division; no gcd runs.  Pole
locations are always supplied by callers in closed form (RatFunc.over), so
no root finding happens here: a polynomial that comes in dense, as a
denominator or as a numerator that / or log_derivative inverts, is split
over +-kappa and +-lambda with a leftover (z - c)^n as the root c, and any
other leftover raises BadFactorization.  This module is the one place that
splits a polynomial over such roots (callers read RatFunc.exponents_over
and split_off), and _log_sum is the one place that builds sum w/(z - c)
over prod (z - c), for simple_pole_sum, RatFunc.derivative and case I's
omega.  poly_gcd is plain Euclid on Poly; RatFunc never calls it.
"""
from __future__ import annotations

from math import lcm
from typing import Iterable, Optional, Sequence

from .exactfield import DivisionByZero, TowerContext, TowerScalar, _gauss


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
        """prod (z - c)^m; the copies common to c and -c are multiplied in
        as z^2 - c^2, which has Gaussian coefficients for c = kappa, lambda.
        A Poly is immutable, so the product is kept in ctx.root_products
        under its exponent map and a later call returns the same object."""
        left = exponent_map(roots)
        key = frozenset(left.items())
        out = ctx.root_products.get(key)
        if out is not None:
            return out
        out = Poly(ctx, [ctx.one])
        for c in list(left):
            e = left.pop(c, 0)
            k = min(e, left.get(-c, 0))
            if k:
                left[-c] -= k
                quad = Poly(ctx, [-ctx.square(c), ctx.zero, ctx.one])
                for _ in range(k):
                    out = out * quad
            lin = Poly(ctx, [-c, ctx.one])
            for _ in range(e - k):
                out = out * lin
        ctx.root_products[key] = out
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
        if (all(c._gaussian for c in self.coeffs)
                and all(c._gaussian for c in other.coeffs)):
            return _gauss_product(self.ctx, self.coeffs, other.coeffs)
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


def _gauss_ints(coeffs) -> tuple[list, list, int]:
    """(xs, ys, d) with coeffs[k] = (xs[k] + ys[k] i)/d over one common d."""
    d = 1
    for c in coeffs:
        if d % c.c00.d:
            d = lcm(d, c.c00.d)
    xs, ys = [], []
    for c in coeffs:
        g = c.c00
        k = d // g.d
        xs.append(g.x * k)
        ys.append(g.y * k)
    return xs, ys, d


def _gauss_product(ctx: TowerContext, a, b) -> Poly:
    """The product of two polynomials with Gaussian coefficients a, b (not
    empty): one convolution of integers (x + y i) over the common
    denominators, then one _gauss per output coefficient."""
    xa, ya, da = _gauss_ints(a)
    xb, yb, db = _gauss_ints(b)
    n = len(xa) + len(xb) - 1
    re, im = [0] * n, [0] * n
    real_b = not any(yb)
    for i, x1 in enumerate(xa):
        y1 = ya[i]
        if y1:
            for j, x2 in enumerate(xb):
                y2 = yb[j]
                re[i + j] += x1 * x2 - y1 * y2
                im[i + j] += x1 * y2 + y1 * x2
        elif x1:
            for j, x2 in enumerate(xb):
                re[i + j] += x1 * x2
            if not real_b:
                for j, y2 in enumerate(yb):
                    im[i + j] += x1 * y2
    d = da * db
    of_gauss = TowerScalar._of_gauss
    return Poly(ctx, [of_gauss(ctx, _gauss(re[k], im[k], d)) for k in range(n)])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm.  Each
    remainder is made monic, which leaves the gcd as it is and keeps the
    coefficients from growing."""
    if p.is_zero() and q.is_zero():
        raise RatCalcError("gcd(0, 0) undefined")
    while not q.is_zero():
        p, q = q, (p % q).monic()
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


def _linear_divmod(coeffs, c: TowerScalar):
    """Quotient and remainder p(c) of sum coeffs[k] z^k (not empty) by z - c."""
    q = [None] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        q[k] = acc
        acc = coeffs[k] + acc * c
    return q, acc


def _deflate(p: Poly, c: TowerScalar, e: int) -> tuple[Poly, int]:
    """(p / (z - c)^k, k) for the largest k <= e with (z - c)^k | p."""
    k = 0
    while k < e and p.degree() > 0:
        q, rem = _linear_divmod(p.coeffs, c)
        if not rem.is_zero():
            break
        p, k = Poly(p.ctx, q), k + 1
    return p, k


def _deflate_pair(p: Poly, c: TowerScalar, e_plus: int, e_minus: int):
    """_deflate at c and at -c, with one remainder mod z^2 - c^2 per step
    while both may still divide."""
    c2 = c.ctx.square(c)
    k, plus, minus = 0, True, True
    while k < min(e_plus, e_minus) and p.degree() > 0:
        q, r0, r1 = _quadratic_divmod(p.coeffs, c2)
        if not (r0.is_zero() and r1.is_zero()):
            cr1 = c * r1
            plus, minus = (r0 + cr1).is_zero(), (r0 - cr1).is_zero()
            break
        p, k = Poly(p.ctx, q), k + 1
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
        c = -p.coeffs[n - 1] / ctx.from_rational(n)
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
    s = Poly(ctx, [ctx.one])
    t = Poly(ctx, [])
    for i, (w, f) in enumerate(factors):
        s = s * f
        term = f.derivative().scale(ctx.from_rational(w))
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
    lcm.  The first read of num, roots, den, ==, hash, render or a
    derivative tests lowest terms once, dividing the numerator at each
    root, a pair +-c through one remainder mod z^2 - c^2.  Negation and a
    product by a constant keep the flag; f * f of a tested f, the
    derivative (each exponent rises by one) and the log-derivative (a
    simple pole at each root of num and den) are in lowest terms as built.
    A dense denominator passed to the constructor, and the numerator that
    / and log_derivative invert, are split by _factor, which raises
    BadFactorization on a factor with unknown roots; RatFunc.over takes
    any roots as given.  The dense monic ``den`` is built on first use."""

    __slots__ = ("_num", "_roots", "_tested", "_den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        ctx = num.ctx
        if den is None:
            den = Poly(ctx, [ctx.one])
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
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
        """num / prod (z - c)^e for exponents e >= 0."""
        if num.is_zero():
            return RatFunc(num)
        roots = {c: e for c, e in roots.items() if e}
        return RatFunc._of(num, roots, not roots)

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
            # num is coprime to den, so num^2 is coprime to den^2
            return RatFunc._of(self.num * self.num,
                               {c: 2 * e for c, e in self.roots.items()}, True)
        # a non-zero constant factor k cancels nothing: f's flag carries over
        for f, k in ((self, other), (other, self)):
            if not k._roots and k._num.degree() <= 0:
                return RatFunc._of(f._num.scale(k._num.coeffs[0]), f._roots, f._tested)
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
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.roots == other.roots

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self) -> RatFunc:
        """(num/Q)' with Q = prod (z - c)^e: Q'/Q = T/S for
        (S, T) = _log_sum(roots), so the derivative is
        (num' S - num T) / (Q S); at the roots of Q, which num does not
        share, nothing cancels, so each exponent rises by one."""
        num, roots = self.num, self.roots
        if not roots:
            return RatFunc._of(num.derivative(), roots, True)
        s, t = _log_sum(self.ctx, roots)
        return RatFunc._of(num.derivative() * s - num * t,
                           {c: e + 1 for c, e in roots.items()}, True)

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

    def _den_at(self, z: TowerScalar, skip: Optional[TowerScalar] = None) -> TowerScalar:
        """den(z), leaving out the factor (z - skip)^e."""
        d = self.ctx.one
        for c, e in self.roots.items():
            if c != skip:
                w = z - c
                for _ in range(e):
                    d = d * w
        return d

    def evaluate(self, z: TowerScalar) -> TowerScalar:
        d = self._den_at(z)
        if d.is_zero():
            raise PoleEvaluation("evaluation at a pole")
        return self.num.evaluate(z) / d

    def polar_leading(self, c: TowerScalar) -> TowerScalar:
        """The coefficient of (z - c)^-e at a root c of exponent e."""
        return self.num.evaluate(c) / self._den_at(c, skip=c)

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


def exponent_map(roots: Iterable[tuple[TowerScalar, int]]) -> dict:
    """{c: total multiplicity} over the nonzero (c, m) pairs."""
    out = {}
    for c, m in roots:
        if m:
            out[c] = out.get(c, 0) + m
    return out
