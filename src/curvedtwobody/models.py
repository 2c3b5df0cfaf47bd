"""Model layer: the four (space x potential) reductions and their data.

Builds the first-order variational systems in the z variable, writes the
closed-form coefficient tables for r(z), locates singular points in
closed form, checks the reality-condition lemmas, produces the mu = 1
reference solutions, and exposes numeric Hamiltonian evaluators for the
dynamics side.

Mass-ratio dictionary: deriving the simplified Hamiltonians rescales time
by m1 R^2, which makes the kinetic prefactor 1/(2 mu) with
mu = m/m1 = m2/(m1+m2); mu = 1 is the m2 -> infinity limit whose extra
integral is p1 sin(theta) + p2 cos(theta).  Here mu is simply a free
rational parameter and the boundary interpretation stays commentary.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

from .exactfield import (GAUSS_ONE, GAUSS_ZERO, DegenerateTower, GaussRational,
                         TowerContext, TowerScalar, _gauss, _rat, rational_sqrt)
from .linode import (FirstOrderSystem, NonFuchsianEquation, SingularitySpectrum,
                     singular_point)
from .ratcalc import BadFactorization, Poly, RatFunc


class Space(Enum):
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"


class Potential(Enum):
    NEWTON = "newton"
    OSCILLATOR = "oscillator"


class ModelError(Exception):
    pass


class DegenerateParameters(ModelError):
    """A closed-form guard failed; carries the violated guard's name."""

    def __init__(self, guard: str):
        super().__init__(guard)
        self.guard = guard


class HypothesisViolated(ModelError):
    """A lemma hypothesis fails for the supplied parameters."""

    def __init__(self, failures: list[str]):
        super().__init__("; ".join(failures))
        self.failures = failures


class NotMu1(ModelError):
    pass


class DomainError(ModelError):
    """Coordinate singularity (theta at 0 or pi, or nonpositive theta)."""


@dataclass(frozen=True)
class ModelParams:
    space: Space
    potential: Potential
    strength: Fraction          # alpha for Newton, beta for the oscillator
    mu: Fraction
    p: Fraction
    eps: Fraction
    kappa2: GaussRational
    lambda2: GaussRational
    z0: Fraction
    ctx: TowerContext
    _z0: TowerScalar = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_z0", self.ctx.from_rational(self.z0))

    @property
    def gamma_data(self) -> Fraction:
        """Coadjoint orbit level of the geodesic solutions: gamma^2 = p^2 on
        the sphere, gamma = p^2 on the hyperbolic plane."""
        return self.p * self.p

    def z0_scalar(self) -> TowerScalar:
        """z0 as a scalar, built once, so that every exponent map of these
        parameters holds the same z0."""
        return self._z0

    def kappa_value(self) -> TowerScalar:
        return self.ctx.sqrt_a()

    def lambda_value(self) -> TowerScalar:
        return self.ctx.sqrt_b()


def derive_params(space: Space, potential: Potential, strength, mu, p, eps) -> ModelParams:
    """Validated parameter set with the derived kappa^2, lambda^2, z0.

    mu = 1 is allowed (the degenerate-but-integrable certification path);
    mu = 0 is not.

    kappa^2, lambda^2 = 2 mu (eps +- i)/strength (sphere Newton),
    2 mu (eps +- 1)/strength (hyperbolic Newton), and for the oscillator
    kappa^2 = mu (2 eps +- 1)/strength (+ on S^2, - on H^2) and
    lambda^2 = 2 mu eps/strength, each a Gaussian built from integers.
    tests/table_proof.py states the integer forms, proves them and lists
    the guard that keeps each denominator of the tables off zero.
    """
    strength, mu, p, eps = map(_rat, (strength, mu, p, eps))
    if strength <= 0:
        raise DegenerateParameters("strength must be positive")
    if p == 0:
        raise DegenerateParameters("p must be nonzero")
    if mu == 0:
        raise DegenerateParameters("mu must be nonzero")
    e, d = eps.numerator, eps.denominator
    k = mu.numerator * strength.denominator
    n = mu.denominator * strength.numerator * d
    if potential is Potential.NEWTON:
        if space is Space.SPHERE:
            kappa2, lambda2 = _gauss(2 * k * e, 2 * k * d, n), _gauss(2 * k * e, -2 * k * d, n)
        else:
            kappa2, lambda2 = _gauss(2 * k * (e + d), 0, n), _gauss(2 * k * (e - d), 0, n)
    else:
        sign = 1 if space is Space.SPHERE else -1
        kappa2, lambda2 = _gauss(k * (2 * e + sign * d), 0, n), _gauss(2 * k * e, 0, n)
    z0 = mu * p / strength
    try:
        ctx = TowerContext(kappa2, lambda2)
    except DegenerateTower as exc:
        raise DegenerateParameters(f"singular points collide: {exc}") from exc
    z0g = _q(z0)
    z02 = z0g * z0g
    if z02 == kappa2 or z02 == lambda2:
        raise DegenerateParameters("z0 collides with +-kappa or +-lambda")
    if potential is Potential.NEWTON:
        # the two closed forms of z0 must agree: mu p / alpha and
        # p (kappa^2 - lambda^2)/(4 i) (sphere) resp. /4 (hyperbolic)
        four = _gauss(0, 4, 1) if space is Space.SPHERE else _q(4)
        if (kappa2 - lambda2) * _q(p) / four != z0g:
            raise ModelError("internal: the two z0 closed forms disagree")
    return ModelParams(space, potential, strength, mu, p, eps,
                       kappa2, lambda2, z0, ctx)


# ---------------------------------------------------------------------------
# first-order systems in the z variable
# ---------------------------------------------------------------------------


def _gamma_f(params: ModelParams) -> Poly:
    """The Gamma-curve polynomial f(z): -eps + strength z^2/(2 mu) for
    Newton, 2 eps - strength z^2/mu for the oscillator."""
    (e, d), (t, u) = _ints(params.eps), _ratio(params)
    if params.potential is Potential.NEWTON:
        return Poly.from_ints(params.ctx, [-e * t, 0, u * d], d * t)
    q = t // 2
    return Poly.from_ints(params.ctx, [2 * e * q, 0, -u * d], d * q)


def _ints(q: Fraction) -> tuple[int, int]:
    return q.numerator, q.denominator


def _ratio(params: ModelParams) -> tuple[int, int]:
    """(t, u) with t/u = 2 mu/strength: t = 2 m sd and u = md sn."""
    (m, md), (sn, sd) = _ints(params.mu), _ints(params.strength)
    return 2 * m * sd, md * sn


def build_system(params: ModelParams) -> FirstOrderSystem:
    """A, B, C (and the oscillator weight f) as exact rational functions,
    each one RatFunc.over(numerator, exponent map) whose numerator is
    formed from integers over one denominator and made canonical once; the
    only tower elements are the roots +-kappa, +-lambda of the maps, read
    off the context.

    With sign = 1 on S^2 and -1 on H^2, lin = s z + (2 - mu) p and every
    denominator factored over its known roots:
    Newton's den = f^2 + sign is L (z^2 - kappa^2)(z^2 - lambda^2) for the
    leading coefficient L = (s/(2 mu))^2, and
      A = p f/den,  B = p/mu - sign lin/den,  C = (s z - mu p)/den,
    all over +-kappa, +-lambda.  The oscillator's f = lf (z^2 - lambda^2)
    and g = 1 + sign f = lg (z^2 - kappa^2), lf = -s/mu and
    lg = -sign s/mu, give den = f g and
      A = p/den,  B = (p/mu)/f^2 - sign lin/den,  C = (s z - mu p)/den,
    over +-lambda, +-kappa, with +-lambda squared in B, whose numerator
    is ((p/mu) g - sign lin f)/(lf^2 lg).

    With mu = m/md, p = n/pd, eps = e/d, strength = sn/sd, t = 2 m sd and
    u = md sn (2 mu/s = t/u), tests/table_proof.py states the integer
    numerators formed here and proves them.  A denominator with m < 0 is
    negative; Poly.from_ints takes its sign into the numerator."""
    ctx = params.ctx
    (m, md), (n, pd), (e, d) = _ints(params.mu), _ints(params.p), _ints(params.eps)
    t, u = _ratio(params)
    k, lam = params.kappa_value(), params.lambda_value()
    sign = 1 if params.space is Space.SPHERE else -1

    def over(xs: list, den: int, roots: dict) -> RatFunc:
        return RatFunc.over(Poly.from_ints(ctx, xs, den), roots)

    if params.potential is Potential.NEWTON:
        t2, tu, d2, md2 = t * t, t * u, d * d, md * md
        roots = dict.fromkeys((k, -k, lam, -lam), 1)
        return FirstOrderSystem(
            A=over([-n * e * t2, 0, n * d * tu], pd * d * u * u, roots),
            B=over([n * t2 * ((e * e + sign * d2) * md2 - sign * (2 * md - m) * m * d2),
                    -2 * sign * m * m * pd * d2 * tu, -2 * n * e * md2 * d * tu, 0,
                    n * md2 * d2 * u * u], pd * d2 * m * md * u * u, roots),
            C=over([-m * n * t2, 2 * m * pd * tu], md * pd * u * u, roots), weight=None)

    q = t // 2
    q2, qu = q * q, q * u
    roots = dict.fromkeys((lam, -lam, k, -k), 1)
    return FirstOrderSystem(
        A=over([sign * n * q2], pd * u * u, roots),
        B=over([-sign * n * q2 * q * ((d + 2 * sign * e) * md * md
                                      - 2 * sign * e * (2 * md - m) * m),
                2 * e * m * m * pd * q2 * u, n * d * q2 * u * (m - md) ** 2,
                -m * m * pd * d * qu * u], pd * d * m * md * u ** 3,
               {lam: 2, -lam: 2, k: 1, -k: 1}),
        C=over([-sign * m * n * q2, sign * m * pd * qu], md * pd * u * u, roots),
        weight=RatFunc(_gamma_f(params)))


# ---------------------------------------------------------------------------
# closed-form coefficient tables for r(z)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientTable:
    """r = sum alpha_j/(z-c_j)^2 + beta_j/(z-c_j) over the poles
    [z0, +kappa, -kappa, +lambda, -lambda], held by its Gaussian parts.

    head is (alpha_0, beta_0) at z0.  pairs holds, for +-kappa and then
    +-lambda, (c^2, e, o, e', o') with alpha(+-c) = e +- c o and
    beta(+-c) = e' +- c o'.  Every entry of head and pairs is a Gaussian
    rational; the poles are the TowerScalars of candidate_poles, and
    alphas and betas become TowerScalars (c times a Gaussian) when they
    are first read, once per table.

    Once r = T is proved (certify's table_match), every local fact that
    the Kovacic stages read is in these parts: spectrum gives the pole
    orders, the alphas and the data at infinity without touching r."""

    poles: tuple[TowerScalar, ...]
    head: tuple[GaussRational, GaussRational]
    pairs: tuple[tuple[GaussRational, ...], ...]

    def __post_init__(self):
        if any(self.poles[j + 1] != -self.poles[j] for j in (1, 3)):
            raise ModelError("table poles must come in pairs +-c")

    @functools.cached_property
    def alphas(self) -> tuple[TowerScalar, ...]:
        return self._entries(0)

    @functools.cached_property
    def betas(self) -> tuple[TowerScalar, ...]:
        return self._entries(1)

    def _entries(self, k: int) -> tuple[TowerScalar, ...]:
        """The alphas (k = 0) or the betas (k = 1), one per pole."""
        ctx = self.poles[0].ctx
        out = [ctx.from_gauss(self.head[k])]
        for c, part in zip(self.poles[1::2], self.pairs):
            even, odd = ctx.from_gauss(part[1 + 2 * k]), c * ctx.from_gauss(part[2 + 2 * k])
            out += (even + odd, even - odd)
        return tuple(out)

    def spectrum(self) -> SingularitySpectrum:
        """The singular points of r = T, read off the table.

        A pole has order 2 where alpha != 0 and order 1 where alpha = 0 and
        beta != 0; one where both vanish is no singular point.  At infinity
        r = s1/z + s2/z^2 + s3/z^3 + O(1/z^4) with s1 = sum beta,
        s2 = sum alpha + beta c and s3 = sum 2 alpha c + beta c^2, all in
        Q(i): z0 gives beta_0, alpha_0 + beta_0 z0 and 2 alpha_0 z0 +
        beta_0 z0^2, and a pair +-c gives 2e', 2e + 2 c^2 o' and
        2 c^2 (2o + e').  The order there is 4 - k for the first nonzero
        s_k (0 when none is), and s1 != 0 is no regular singular point
        (Kovacic 1986, section 1)."""
        ctx = self.poles[0].ctx
        points = []
        for j, (c, alpha) in enumerate(zip(self.poles, self.alphas)):
            if not alpha.is_zero():
                points.append(singular_point(ctx, c, 2, alpha))
            elif not self.betas[j].is_zero():
                points.append(singular_point(ctx, c, 1, alpha))
        (a0, b0), z0 = self.head, self.poles[0].c00
        s1, s2, s3 = b0, a0 + b0 * z0, (a0 + a0 + b0 * z0) * z0
        for c2, e, o, e1, o1 in self.pairs:
            s1 += e1 + e1
            s2 += e + e + (c2 + c2) * o1
            s3 += (c2 + c2) * (o + o + e1)
        if not s1.is_zero():
            raise NonFuchsianEquation("order 3 at infinity: not regular singular")
        order = 2 if not s2.is_zero() else 1 if not s3.is_zero() else 0
        alpha = s2 if order == 2 else GAUSS_ZERO
        points.append(singular_point(ctx, None, order, ctx.from_gauss(alpha)))
        return SingularitySpectrum(tuple(points))

    def reconstruct(self, ctx: TowerContext) -> RatFunc:
        """sum alpha_j/(z-c_j)^2 + beta_j/(z-c_j) as one RatFunc over
        (z - z0)^2 (z^2 - kappa^2)^2 (z^2 - lambda^2)^2, built in Q(i).
        z0 gives (alpha_0 + beta_0 (z - z0))/(z - z0)^2 and a pair +-c
        (u2 z^2 + u1 z + u0 + (v1 z + v0)(z^2 - c^2))/(z^2 - c^2)^2 with
        u2 = 2e, u1 = 4 c^2 o, u0 = c^2 u2, v1 = 2e' and v0 = 2 c^2 o'.
        Every part is a Poly.from_gauss, so the numerator is built on
        Gaussian integer lists."""
        z0 = self.poles[0].c00
        a0, b0 = self.head
        num = Poly.from_gauss(ctx, [a0 - b0 * z0, b0])
        den = Poly.from_gauss(ctx, [z0 * z0, -(z0 + z0), GAUSS_ONE])
        quads, parts = [], []
        for c2, e, o, e1, o1 in self.pairs:
            u2, v1, v0 = e + e, e1 + e1, c2 * (o1 + o1)
            quads.append(Poly.from_gauss(ctx, [c2 * c2, GAUSS_ZERO, -(c2 + c2), GAUSS_ZERO,
                                               GAUSS_ONE]))
            parts.append(Poly.from_gauss(ctx, [c2 * (u2 - v0), c2 * (_q(4) * o - v1), u2 + v0,
                                               v1]))
        (qk, ql), (pk, pl) = quads, parts
        # num/den + pk/qk + pl/ql over den qk ql
        num = (num * qk + pk * den) * ql + pl * (den * qk)
        return RatFunc.over(num, {c: 2 for c in self.poles})


def _q(x, d: int = 1) -> GaussRational:
    """x/d as a Gaussian, for an int or a Fraction x."""
    return _gauss(x.numerator, 0, x.denominator * d)


def closed_form_r(params: ModelParams) -> CoefficientTable:
    """The table of r(z) = sum alpha_j/(z-c_j)^2 + beta_j/(z-c_j) over the
    poles c_j = z0, +kappa, -kappa, +lambda, -lambda, in closed form.

    In z0 = mu p/strength rather than p no entry depends on the space: S^2
    and H^2 enter only through kappa^2, lambda^2 and z0.  At a pole c with
    square c^2, o^2 the other pair's square and D = c^2 - o^2:

      alpha(c) = (mu-1)((mu-1) z0 - (mu+1) c)(z0 - c) / (4 c^2)
      beta(c)  = m mu(mu-1) z0/D - (mu-1)[(mu-1) z0^2 ((2m+1) c^2 - o^2)
                 + (mu+1) c^2 ((2m-1) c^2 + o^2)] / (4 D c^3)

    with m = 2 for Newton and m = 1 for the oscillator.  Newton's
    alpha_1..alpha_4 and beta_1..beta_4 are these at c = +kappa, -kappa,
    +lambda, -lambda, with alpha_0 = 3/4 and beta_0 = 0.  The oscillator's
    alpha_1, alpha_2, beta_1, beta_2 are these at c = +-kappa, with
    alpha_0 = 3/4, alpha_3 = alpha_4 = -3/16, beta_0 = -3 z0/(2(z0^2 -
    lambda^2)) and beta_3, beta_4 its own expression at c = +-lambda:

      beta(c)  = 3/(4(z0 - c)) + mu(mu-1) z0/D
                 - (8(mu-1)^2 z0^2 + 9 o^2 + (8 mu^2 - 17) c^2) / (16 c D)

    Two symmetries write each entry once.  The entry at -c is the +c
    expression with c -> -c, so a pair is (even + odd, even - odd) with
    odd = c times a Gaussian: alpha = e +- c o with e = (mu^2 - 1 +
    (mu-1)^2 z0^2/c^2)/4 and o = -mu(mu-1) z0/(2 c^2).  Newton's lambda
    pair is its kappa pair with kappa^2 and lambda^2 swapped.

    Every part is formed from integers and made canonical once, as
    (Gaussian integer)/((Gaussian integer) n), with mu = a/ad, z0 = z/zd
    and c^2 = C/cd; tests/table_proof.py states these integer forms and
    proves them, and proves r = T.  The only TowerScalars are the poles.
    """
    (a, ad), (z, zd) = _ints(params.mu), _ints(params.z0)
    k2, l2 = params.kappa2, params.lambda2
    m = 2 if params.potential is Potential.NEWTON else 1
    ad2, zd2 = ad * ad, zd * zd
    qn, pn, bn = a * a - ad2, (a - ad) ** 2 * z * z, a * (a - ad) * z

    def alpha(c2):
        cx, cy, cd = c2.x, c2.y, c2.d
        return (_gdiv(qn * zd2 * cx + pn * cd, qn * zd2 * cy, cx, cy, 4 * ad2 * zd2),
                _gdiv(-bn * cd, 0, cx, cy, 2 * ad2 * zd))

    def beta(c2, o2):
        (cx, cy, cd), (ox, oy, od) = (c2.x, c2.y, c2.d), (o2.x, o2.y, o2.d)
        gx, gy = cx * od - ox * cd, cy * od - oy * cd
        hx, hy = 2 * m * cx * od, 2 * m * cy * od
        ux, uy = _gmul(cx, cy, hx - gx, hy - gy)
        nx, ny = pn * cd * (hx + gx) + qn * zd2 * ux, pn * cd * (hy + gy) + qn * zd2 * uy
        return (_gdiv(m * bn * cd * od, 0, gx, gy, ad2 * zd),
                _gdiv(-cd * nx, -cd * ny, *_gmul(gx, gy, *_gmul(cx, cy, cx, cy)),
                      4 * ad2 * zd2))

    poles = tuple(candidate_poles(params))
    kappa_pair = (k2, *alpha(k2), *beta(k2, l2))
    three_quarters = _gauss(3, 0, 4)
    if params.potential is Potential.NEWTON:
        return CoefficientTable(poles, (three_quarters, GAUSS_ZERO),
                                (kappa_pair, (l2, *alpha(l2), *beta(l2, k2))))
    (kx, ky, kd), (lx, ly, ld) = (k2.x, k2.y, k2.d), (l2.x, l2.y, l2.d)
    wx, wy = z * z * ld - zd2 * lx, -zd2 * ly
    jx, jy = lx * kd - kx * ld, ly * kd - ky * ld
    r = (8 * a * a - 17 * ad2) * zd2 * kd
    sx = 8 * pn * kd * ld + 9 * kx * ad2 * zd2 * ld + r * lx
    sy = 9 * ky * ad2 * zd2 * ld + r * ly
    v, bw = 3 * z * zd2 * ld * ad2, 4 * bn * ld * kd
    even = _gdiv(v * jx + bw * wx, v * jy + bw * wy, *_gmul(wx, wy, jx, jy), 4 * ad2 * zd)
    (ljx, ljy), (swx, swy) = _gmul(lx, ly, jx, jy), _gmul(sx, sy, wx, wy)
    c = 12 * ad2 * zd2 * zd2
    odd = _gdiv(ld * (c * ljx - swx), ld * (c * ljy - swy), *_gmul(wx, wy, ljx, ljy),
                16 * ad2 * zd2)
    return CoefficientTable(poles, (three_quarters, _gdiv(-3 * z * zd * ld, 0, wx, wy, 2)),
                            (kappa_pair, (l2, _gauss(-3, 0, 16), GAUSS_ZERO, even, odd)))


def _gmul(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int]:
    """(x1 + y1 i)(x2 + y2 i)."""
    return x1 * x2 - y1 * y2, x1 * y2 + y1 * x2


def _gdiv(nx: int, ny: int, mx: int, my: int, n: int) -> GaussRational:
    """(nx + ny i)/((mx + my i) n) for integers with (mx + my i) n != 0,
    canonical once."""
    if not my:
        return _gauss(nx, ny, mx * n)
    return _gauss(nx * mx + ny * my, ny * mx - nx * my, (mx * mx + my * my) * n)


def candidate_poles(params: ModelParams) -> list[TowerScalar]:
    """All closed-form singular-point locations (z0, +-kappa, +-lambda)."""
    k = params.kappa_value()
    lam = params.lambda_value()
    return [params.z0_scalar(), k, -k, lam, -lam]


def gauge_log_derivative(params: ModelParams) -> RatFunc:
    """h = C'/(2C) [+ f'/(4f)], the gauge log-derivative to the normal form
    of build_system(params), in closed form:

      h = (1/2)/(z - z0) - (1/2)/(z -+ kappa) + w/(z -+ lambda)
        = (1/2)/(z - z0) - z/(z^2 - kappa^2) + 2 w z/(z^2 - lambda^2)

    with w = -1/2 for Newton and -1/4 for the oscillator.  C is
    (s z - mu p)/(lead prod (z - c)) over c = +-kappa, +-lambda, so
    C'/C = 1/(z - z0) - sum 1/(z - c), and the oscillator's f is
    lead (z^2 - lambda^2), whose f'/(4f) adds 1/4 at +-lambda
    (tests/table_proof.py proves h and the numerator over
    (z - z0)(z^2 - kappa^2)(z^2 - lambda^2) formed here in Q(i)); the only
    tower elements are the poles of candidate_poles in its exponent map.
    derive_params keeps z0 off +-kappa and +-lambda and the four apart, so
    no two of these poles merge.  The certificate's gauge check still compares h exactly with
    the elimination's p = -C'/C [- f'/(2f)]."""
    z0, k2, l2 = _q(params.z0), params.kappa2, params.lambda2
    t = _q(-1) if params.potential is Potential.NEWTON else _q(-1, 2)
    half = _q(1, 2)
    coeffs = [half * k2 * l2, z0 * (t * k2 - l2), l2 - t * k2 - half * (k2 + l2),
              z0 * (GAUSS_ONE - t), t - half]
    return RatFunc.over(Poly.from_gauss(params.ctx, coeffs),
                        dict.fromkeys(candidate_poles(params), 1))


def detect_poles(params: ModelParams, r: RatFunc) -> list[tuple[TowerScalar, int]]:
    """Exact multiplicities of the closed-form pole candidates in den(r).

    At mu = 1 most candidates cancel; callers always get the true
    factorization.  Raises if the candidates do not exhaust den(r).
    certify reads the pole orders off the table instead; this is the
    tests' oracle for them and the path bench/ times.
    """
    try:
        return list(r.exponents_over(candidate_poles(params)).items())
    except BadFactorization:
        raise DegenerateParameters(
            "den(r) has factors outside the closed-form poles") from None


def mu1_solutions(params: ModelParams) -> tuple[RatFunc, RatFunc]:
    """Logarithmic derivatives of the two explicit solutions at mu = 1."""
    if params.mu != 1:
        raise NotMu1(f"mu = {params.mu}, expected 1")
    ctx = params.ctx
    z0 = params.z0
    z = RatFunc.x(ctx)

    def const(q):
        return RatFunc.constant(ctx, q)

    pole0 = z - const(z0)
    if params.potential is Potential.NEWTON:
        omega1 = const(Fraction(3, 2)) / pole0
        omega2 = const(Fraction(-1, 2)) / pole0
        return omega1, omega2
    l2 = ctx.from_gauss(params.lambda2)
    zl = z * z - RatFunc(Poly.constant(ctx, l2))
    omega1 = const(Fraction(3, 2)) * z / zl - const(Fraction(1, 2)) / pole0
    # y2 = (z^2-l^2)^{1/4} (z0 z - l^2) (z-z0)^{-1/2}
    lin = RatFunc(Poly(ctx, [-l2, ctx.from_rational(z0)]))
    omega2 = z / (const(2) * zl) + lin.log_derivative() - const(Fraction(1, 2)) / pole0
    return omega1, omega2


# ---------------------------------------------------------------------------
# lemma hypothesis checks (reality of the alpha_j)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaReality:
    index: int
    exact: bool                       # decided in exact arithmetic
    imag_part: Optional[Fraction]     # exact imaginary part when available
    imag_float: float                 # branch (+,+) numeric imaginary part
    nonreal: Optional[bool]           # None: undecided, the float embedding is not finite


@dataclass(frozen=True)
class LemmaReport:
    lemma: int                        # 1 spherical Newton, 2 hyperbolic Newton, 3 oscillator
    hypotheses_hold: bool
    failures: tuple[str, ...]
    alphas: tuple[AlphaReality, ...]
    identity_checked: bool            # exact Im alpha_1 = -Im alpha_2 identity
    all_nonreal: bool


def _alpha_reality(idx: int, alpha: TowerScalar) -> AlphaReality:
    """Whether alpha is non-real: exact for a Gaussian alpha, whose
    imag_float saturates to +-inf beyond the float range; otherwise read
    off the float embedding, and undecided where that is not finite."""
    g = alpha.is_gauss_value()
    if g is not None:
        try:
            im = float(g.im)
        except OverflowError:
            im = math.inf if g.im > 0 else -math.inf
        return AlphaReality(idx, True, g.im, im, g.im != 0)
    try:
        im = alpha.embed_complex((1, 1)).imag
    except OverflowError:
        im = math.nan
    if not math.isfinite(im):
        return AlphaReality(idx, False, None, im, None)
    return AlphaReality(idx, False, None, im, abs(im) > 1e-9)


def lemma_condition(params: ModelParams,
                    table: Optional[CoefficientTable] = None) -> LemmaReport:
    """Check the hypotheses of the reality lemma matching the case and verify
    its conclusion (the relevant alpha_j are non-real), reading the alphas
    of table, closed_form_r(params) when none is given.

    Raises HypothesisViolated when a hypothesis fails; the exception carries
    the partial report in its `report` attribute.
    """
    mu, p, eps, s = params.mu, params.p, params.eps, params.strength
    failures = []
    if mu in (0, 1):
        failures.append("mu must avoid {0, 1}")
    if p == 0:
        failures.append("p must be nonzero")
    if params.potential is Potential.NEWTON:
        if params.space is Space.SPHERE:
            lemma = 1
            # (sqrt(eps^2+1) - eps)(eps^2+1) != (mu-1)^2 p^2 / (4 alpha mu):
            # exactly decidable because the left side is rational only when
            # eps^2+1 is a perfect square
            rhs = (mu - 1) ** 2 * p * p / (4 * s * mu)
            root = rational_sqrt(eps * eps + 1)
            if root is not None and (root - eps) * (eps * eps + 1) == rhs:
                failures.append(
                    "(sqrt(eps^2+1)-eps)(eps^2+1) equals (mu-1)^2 p^2/(4 alpha mu)")
        else:
            lemma = 2
            if not eps < -1:
                failures.append("eps < -1 required")
    else:
        lemma = 3
        if params.space is Space.SPHERE:
            if not eps < Fraction(-1, 2):
                failures.append("eps < -1/2 required in the spherical case")
        else:
            if not eps < Fraction(1, 2):
                failures.append("eps < 1/2 required in the hyperbolic case")

    values = (closed_form_r(params) if table is None else table).alphas
    indices = (1, 2, 3, 4) if params.potential is Potential.NEWTON else (1, 2)
    alphas = tuple(_alpha_reality(j, values[j]) for j in indices)

    identity_checked = False
    if lemma in (2, 3) and not failures:
        # kappa in iQ makes alpha_1,2 Gaussian; then
        # Im alpha_1 = -Im alpha_2 = -mu^2(1-mu) p/(2 strength q), kappa = i q
        kv = params.kappa_value().is_gauss_value()
        if kv is not None and kv.re == 0 and kv.im != 0:
            q = kv.im
            expect = -(mu * mu * (1 - mu) * p) / (2 * s * q)
            a1 = values[1].is_gauss_value()
            a2 = values[2].is_gauss_value()
            if a1 is not None and a2 is not None:
                identity_checked = (a1.im == expect and a2.im == -expect)

    report = LemmaReport(lemma, not failures, tuple(failures), alphas,
                         identity_checked, all(a.nonreal for a in alphas))
    if failures:
        exc = HypothesisViolated(failures)
        exc.report = report
        raise exc
    return report


# ---------------------------------------------------------------------------
# numeric Hamiltonian evaluators (simplified units: time rescaled by m1 R^2)
# ---------------------------------------------------------------------------


class HamiltonianKind(Enum):
    FULL_SPHERE = "FullSphere"
    FULL_HYPERBOLIC = "FullHyperbolic"
    GAMMA_RESTRICTION = "GammaRestriction"
    FREE_PART_S1 = "FreePartS1"
    FREE_PART_S2 = "FreePartS2"


def potential(params: ModelParams):
    """(V, dV/dtheta) as functions of theta, closed over the float strength."""
    s = float(params.strength)
    _, sin, cos, tan, _ = chart(params.space)
    if params.potential is Potential.NEWTON:
        return (lambda theta: -s * cos(theta) / sin(theta),
                lambda theta: s / sin(theta) ** 2)

    def value(theta):
        t = tan(theta)
        return 0.5 * s * t * t
    return value, lambda theta: s * tan(theta) / cos(theta) ** 2


def _zero(theta: float) -> float:
    return 0.0


@functools.cache
def chart(space: Space):
    """(check, sin, cos, tan, sign) on the space's chart: check(theta) raises
    DomainError outside (0, pi) or within about 1e-12 of a zero of sin on
    S^2, outside (0, infinity) on H^2; sin, cos and tan are the trigonometric
    or hyperbolic ones; sign is that of the p2^2 coupling term (-1 on S^2)."""
    if space is Space.SPHERE:
        pi, sin = math.pi, math.sin

        def check(theta):
            if not 0 < theta < pi or abs(sin(theta)) < 1e-12:
                raise DomainError(f"theta = {theta} outside (0, pi)")
        return check, sin, math.cos, math.tan, -1.0

    def check(theta):
        if theta <= 0:
            raise DomainError(f"theta = {theta} outside (0, infinity)")
    return check, math.sinh, math.cosh, math.tanh, 1.0


# Each builder below returns (value, grad) on its chart as closures over
# float constants, so an evaluation converts no Fraction and dispatches on
# nothing; v and vp are the potential and its slope, or _zero.


def _gamma_restriction(params: ModelParams, v, vp):
    """(theta, p_theta) on the geodesic solution p0 = p, p1 = p2 = 0."""
    check = chart(params.space)[0]
    mu, p = float(params.mu), float(params.p)

    def value(x):
        theta, pt = x
        check(theta)
        return pt * pt / (2 * mu) + p * pt + v(theta)

    def grad(x):
        theta, pt = x
        check(theta)
        return (vp(theta), pt / mu + p)
    return value, grad


def _reduced(params: ModelParams, v, vp):
    """The full reduced Hamiltonian on (theta, p_theta, p0, p1, p2): kinetic
    part, coupling part and potential."""
    check, sin, cos, _, sign = chart(params.space)
    mu, two_sign = float(params.mu), 2 * sign

    def value(x):
        theta, pt, p0, p1, p2 = x
        check(theta)
        sn = sin(theta)
        ct = cos(theta) / sn
        return ((pt * pt + p2 * p2 / (sn * sn)) / (2 * mu)
                + (pt * p0 + sign * p2 * p2 + p1 * p2 * ct) + v(theta))

    def grad(x):
        theta, pt, p0, p1, p2 = x
        check(theta)
        sn, cs = sin(theta), cos(theta)
        ct = cs / sn
        # d(cot)/dtheta = -1/sin^2 and d(coth)/dtheta = -1/sinh^2
        return (-p2 * p2 * cs / (mu * sn ** 3) + p1 * p2 * (-1.0 / (sn * sn))
                + vp(theta),
                pt / mu + p0, pt, p2 * ct,
                p2 / (mu * sn * sn) + two_sign * p2 + p1 * ct)
    return value, grad


def _kinetic(params: ModelParams, v, vp):
    """(p_theta^2 + p2^2/sin^2 theta)/(2 mu) + V: the free part S1 (v = vp =
    _zero) or the central motion."""
    check, sin, cos, _, _ = chart(params.space)
    mu = float(params.mu)

    def value(x):
        theta, pt, _, _, p2 = x
        check(theta)
        sn = sin(theta)
        return (pt * pt + p2 * p2 / (sn * sn)) / (2 * mu) + v(theta)

    def grad(x):
        theta, pt, _, _, p2 = x
        check(theta)
        sn, cs = sin(theta), cos(theta)
        return (-p2 * p2 * cs / (mu * sn ** 3) + vp(theta),
                pt / mu, 0.0, 0.0, p2 / (mu * sn * sn))
    return value, grad


def _coupling(params: ModelParams):
    """p_theta p0 -+ p2^2 + p1 p2 cot theta: the free part S2."""
    check, sin, cos, _, sign = chart(params.space)
    two_sign = 2 * sign

    def value(x):
        theta, pt, p0, p1, p2 = x
        check(theta)
        return pt * p0 + sign * p2 * p2 + p1 * p2 * (cos(theta) / sin(theta))

    def grad(x):
        theta, pt, p0, p1, p2 = x
        check(theta)
        sn, cs = sin(theta), cos(theta)
        ct = cs / sn
        return (p1 * p2 * (-1.0 / (sn * sn)), p0, pt, p2 * ct,
                two_sign * p2 + p1 * ct)
    return value, grad


@dataclass(frozen=True)
class ReducedHamiltonian:
    """value(state) and grad(state) on a chart of dim coordinates:
    (theta, p_theta) for GAMMA_RESTRICTION, (theta, p_theta, p0, p1, p2)
    for the others.
    hamiltonian() builds value and grad as closures over float constants;
    off the chart they raise DomainError."""

    params: ModelParams
    dim: int
    value: Callable[[tuple], float] = field(repr=False, compare=False)
    grad: Callable[[tuple], tuple] = field(repr=False, compare=False)


def CentralMotionHamiltonian(params: ModelParams) -> ReducedHamiltonian:
    """The m1 = infinity system: one body in the fixed central potential,
    on (theta, p_theta, p0, p1, p2).

    Only (theta, p_theta, p2) enter, so p2 is the extra integral."""
    return ReducedHamiltonian(params, 5, *_kinetic(params, *potential(params)))


def hamiltonian(kind: HamiltonianKind, params: ModelParams,
                include_potential: bool = True) -> ReducedHamiltonian:
    """The kind's Hamiltonian at params."""
    space = {HamiltonianKind.FULL_SPHERE: Space.SPHERE,
             HamiltonianKind.FULL_HYPERBOLIC: Space.HYPERBOLIC}.get(kind, params.space)
    if params.space is not space:
        raise ModelError(f"{kind.value} needs {space.value} parameters")
    v, vp = potential(params) if include_potential else (_zero, _zero)
    if kind is HamiltonianKind.GAMMA_RESTRICTION:
        return ReducedHamiltonian(params, 2, *_gamma_restriction(params, v, vp))
    if kind is HamiltonianKind.FREE_PART_S1:
        return ReducedHamiltonian(params, 5, *_kinetic(params, _zero, _zero))
    if kind is HamiltonianKind.FREE_PART_S2:
        return ReducedHamiltonian(params, 5, *_coupling(params))
    return ReducedHamiltonian(params, 5, *_reduced(params, v, vp))


def random_admissible_params(space: Space, potential: Potential, rng,
                             mu_one: bool = False) -> ModelParams:
    """Random small-height rational parameters passing every guard."""
    while True:
        strength = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        mu = Fraction(1) if mu_one else Fraction(rng.randint(1, 9), rng.randint(2, 8))
        p = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
        eps = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        try:
            params = derive_params(space, potential, strength, mu, p, eps)
        except DegenerateParameters:
            continue
        if not mu_one and params.mu == 1:
            continue
        return params
