"""The closed forms behind the four reduced normal variational equations,
each stated once, and an exact sympy proof that they fit together.

For every space x potential pair it proves:

* r = H^2 - H' + C B [f], with H = A + h, equals the closed-form table
  T = sum alpha_j/(z - c_j)^2 + beta_j/(z - c_j) (normal_form_residue);
* the closed-form h is C'/(2C) [+ f'/(4f)] (gauge_residue);
* the integer forms stated here, the ones models.derive_params,
  build_system, _gamma_f, gauge_log_derivative and closed_form_r compute,
  equal these formulas (integer_form_residues).

And for any first-order system, with undetermined A, B, C, f and h, it
proves that the gauge check of the elimination on r = H^2 - H' + C B [f]
holds exactly when h = C'/(2C) [+ f'/(4f)] (gauge_check_residues), which
is how certify decides it (certify._gauge_log_derivative).

So r = T holds for every admissible parameter set, and a table mismatch
in certify is a fault in the program's forms, never a property of the
input.  The package itself does not import sympy; tests/test_table_proof.py
runs the proof and checks the program's values against these formulas,
exactly, on seeded parameter sets.

Method.  Every formula is an element of a rational function field over Q
(sympy's sparse FracElement, which cancels common factors as it goes).
The unit i is the symbol j: gaussian() reduces numerator and denominator
mod j^2 + 1 and clears j from the denominator, and a residue is the
numerator that is left, zero exactly when the formula vanishes.  The
proof of r = T runs in the coordinates (mu, z0, kappa^2, lambda^2), in
which the table is rational; coordinate_residues proves that params_of
inverts (s, mu, p, eps) -> (mu, z0, kappa^2, lambda^2).  A pole pair +-c
adds P(c) + P(-c), P(c) = alpha(c)/(z - c)^2 + beta(c)/(z - c); that sum
is even in c, so once its numerator and denominator are both even (both
are multiplied by c when both are odd) c^2 becomes kappa^2 or lambda^2.

Denominators.  The identities hold wherever both sides are defined.  Apart
from polynomials in z, the denominators on either side, and the
derive_params guard that keeps each off zero, are:

  s                     "strength must be positive"
  mu                    "mu must be nonzero"
  kappa^2, lambda^2     "singular points collide" (TowerContext refuses a
                        zero square); c^2 in alpha and beta is one of them
  kappa^2 - lambda^2    "singular points collide" (TowerContext refuses
                        equal squares); D = c^2 - o^2 is +- this, and it
                        is 4 i mu/s, 4 mu/s or +-mu/s (params_of)
  z0 - c (c = +-lambda), z0^2 - lambda^2
                        "z0 collides with +-kappa or +-lambda"

In the integer forms every other denominator is one of these times
positive integers: sn for s, m for mu, C and Lg for c^2 and lambda^2, G
and J for kappa^2 - lambda^2, W for z0^2 - lambda^2.  No zero is left
without a guard.  p != 0 ("p must be nonzero") is a guard of the model,
not of these denominators, and the oscillator needs no guard of its own
on beta_0: there (kappa^2 - lambda^2) p = +-z0 (params_of with
s = +-mu/(kappa^2 - lambda^2)), so ((kappa^2 - lambda^2) p)^2 = lambda^2 is
z0^2 = lambda^2.

Run as a script it proves all of it, prints each pair's wall time and
the gauge check's, and exits 1 on a nonzero residue:

    PYTHONPATH=src python tests/table_proof.py
"""
from __future__ import annotations

import sys
import time

import sympy as sp

from curvedtwobody.models import Potential, Space

PAIRS = [(Space.HYPERBOLIC, Potential.NEWTON), (Space.SPHERE, Potential.OSCILLATOR),
         (Space.HYPERBOLIC, Potential.OSCILLATOR), (Space.SPHERE, Potential.NEWTON)]

FIELD, z, mu, z0, K, L, s, p, eps, j, c = sp.field("z mu z0 K L s p eps j c", sp.QQ)


# ---------------------------------------------------------------------------
# the closed forms, each a function of its parameters in any field
# ---------------------------------------------------------------------------


def _sign(space: Space) -> int:
    return 1 if space is Space.SPHERE else -1


def squares(space, potential, s, mu, eps, j):
    """kappa^2 and lambda^2 (derive_params): 2 mu (eps +- i)/s on S^2 and
    2 mu (eps +- 1)/s on H^2 for Newton; mu (2 eps + sign)/s and
    2 mu eps/s for the oscillator, sign = 1 on S^2 and -1 on H^2."""
    if potential is Potential.NEWTON:
        unit = j if space is Space.SPHERE else 1
        return 2 * mu * (eps + unit) / s, 2 * mu * (eps - unit) / s
    return mu * (2 * eps + _sign(space)) / s, 2 * mu * eps / s


def z0_of(s, mu, p):
    """The pole z0 = mu p/s, the zero of C."""
    return mu * p / s


def params_of(space, potential, mu, z0, K, L, j):
    """(s, p, eps) at mu, z0, kappa^2 = K, lambda^2 = L: the inverse of
    squares and z0_of."""
    if potential is Potential.NEWTON:
        s = 4 * (j if space is Space.SPHERE else 1) * mu / (K - L)
        eps = (K + L) * s / (4 * mu)
    else:
        s = _sign(space) * mu / (K - L)
        eps = L * s / (2 * mu)
    return s, z0 * s / mu, eps


def gamma_f(potential, z, s, mu, eps):
    """The Gamma-curve polynomial f (models._gamma_f): s z^2/(2 mu) - eps
    for Newton, 2 eps - s z^2/mu for the oscillator, whose weight it is."""
    if potential is Potential.NEWTON:
        return s * z ** 2 / (2 * mu) - eps
    return 2 * eps - s * z ** 2 / mu


def system(space, potential, z, s, mu, p, eps):
    """A, B, C and the weight (None for Newton) of build_system, with
    lin = s z + (2 - mu) p and f = gamma_f: for Newton den = f^2 + sign,
    A = p f/den and B = p/mu - sign lin/den; for the oscillator
    den = f (1 + sign f), A = p/den, B = (p/mu)/f^2 - sign lin/den and the
    weight f; for both C = (s z - mu p)/den."""
    sign = _sign(space)
    f = gamma_f(potential, z, s, mu, eps)
    lin = s * z + (2 - mu) * p
    if potential is Potential.NEWTON:
        den = f ** 2 + sign
        return p * f / den, p / mu - sign * lin / den, (s * z - mu * p) / den, None
    den = f * (1 + sign * f)
    return p / den, p / mu / f ** 2 - sign * lin / den, (s * z - mu * p) / den, f


def gauge(potential, z, z0, K, L):
    """h (gauge_log_derivative) = (1/2)/(z - z0) - z/(z^2 - kappa^2)
    + 2 w z/(z^2 - lambda^2), w = -1/2 for Newton and -1/4 for the
    oscillator."""
    two_w = z.field(-1) / (1 if potential is Potential.NEWTON else 2)
    return 1 / (2 * (z - z0)) - z / (z ** 2 - K) + two_w * z / (z ** 2 - L)


def alpha(c, mu, z0):
    """alpha at a pole c = +-kappa (and at +-lambda for Newton)."""
    return (mu - 1) * ((mu - 1) * z0 - (mu + 1) * c) * (z0 - c) / (4 * c ** 2)


def beta(c, o2, mu, z0, m):
    """beta at a pole c whose other pair has square o2, D = c^2 - o2; m = 2
    for Newton and 1 for the oscillator."""
    D = c ** 2 - o2
    return (m * mu * (mu - 1) * z0 / D
            - (mu - 1) * ((mu - 1) * z0 ** 2 * ((2 * m + 1) * c ** 2 - o2)
                          + (mu + 1) * c ** 2 * ((2 * m - 1) * c ** 2 + o2)) / (4 * D * c ** 3))


def beta_lambda(c, o2, mu, z0):
    """The oscillator's beta at c = +-lambda, o2 = kappa^2."""
    D = c ** 2 - o2
    return (3 / (4 * (z0 - c)) + mu * (mu - 1) * z0 / D
            - (8 * (mu - 1) ** 2 * z0 ** 2 + 9 * o2 + (8 * mu ** 2 - 17) * c ** 2) / (16 * c * D))


def table(potential, mu, z0, K, L):
    """The table of closed_form_r as ((alpha_0, beta_0), pairs): the head
    at z0, and per pole pair +-c, first +-kappa then +-lambda,
    (c^2, alpha, beta) with alpha and beta functions of c.  alpha_0 = 3/4;
    Newton has beta_0 = 0 and alpha, beta at all four poles; the
    oscillator has beta_0 = -3 z0/(2 (z0^2 - lambda^2)), alpha = -3/16
    and beta_lambda at +-lambda."""
    one = mu.field(1)
    a = lambda x: alpha(x, mu, z0)  # noqa: E731
    if potential is Potential.NEWTON:
        return (3 * one / 4, 0 * one), [(K, a, lambda x: beta(x, L, mu, z0, 2)),
                                          (L, a, lambda x: beta(x, K, mu, z0, 2))]
    return ((3 * one / 4, -3 * z0 / (2 * (z0 ** 2 - L))),
            [(K, a, lambda x: beta(x, L, mu, z0, 1)),
             (L, lambda x: -3 * one / 16, lambda x: beta_lambda(x, K, mu, z0))])


def table_sum(head, pairs, z, z0, c):
    """T = alpha_0/(z - z0)^2 + beta_0/(z - z0) + per pair P(c) + P(-c),
    with c^2 replaced by the pair's square."""
    a0, b0 = head
    total = a0 / (z - z0) ** 2 + b0 / (z - z0)
    for c2, a, b in pairs:
        total += even_at(a(c) / (z - c) ** 2 + b(c) / (z - c)
                         + a(-c) / (z + c) ** 2 + b(-c) / (z + c), c, c2)
    return total


# ---------------------------------------------------------------------------
# field helpers
# ---------------------------------------------------------------------------


def _index(gen) -> int:
    return gen.field.ring.gens.index(gen.numer)


def _square_to(poly, ic: int, c2):
    """poly, even in generator ic, as a field element with each c^2 -> c2."""
    ring, out = poly.ring, 0
    for mon, coef in poly.terms():
        k, odd = divmod(mon[ic], 2)
        if odd:
            raise ValueError("not even in c")
        out += c2.field(ring({mon[:ic] + (0,) + mon[ic + 1:]: coef})) * c2 ** k
    return out


def even_at(fr, c, c2):
    """fr, even in c, at c^2 = c2."""
    ic = _index(c)
    num, den = fr.numer, fr.denom
    if any(mon[ic] % 2 for mon in num.monoms()):
        num, den = num * c.numer, den * c.numer
    return _square_to(num, ic, c2) / _square_to(den, ic, c2)


def parts(f, c, c2):
    """(e, o) with f(+-c) = e +- c o, at c^2 = c2."""
    return even_at((f(c) + f(-c)) / 2, c, c2), even_at((f(c) - f(-c)) / (2 * c), c, c2)


def _mod_j(poly, ij: int):
    """poly reduced mod j^2 + 1: j^k -> (-1)^(k // 2) j^(k % 2)."""
    out = {}
    for mon, coef in poly.terms():
        key = mon[:ij] + (mon[ij] % 2,) + mon[ij + 1:]
        out[key] = out.get(key, 0) + (coef if mon[ij] % 4 < 2 else -coef)
    return poly.ring({mon: coef for mon, coef in out.items() if coef})


def gaussian(fr, j):
    """fr with j^2 = -1 and no j in the denominator: num/(d0 + d1 j) is
    num (d0 - d1 j)/(d0^2 + d1^2)."""
    ij = _index(j)
    num, den = _mod_j(fr.numer, ij), _mod_j(fr.denom, ij)
    d1 = den.coeff_wrt(ij, 1)
    if d1:
        d0 = den - d1 * j.numer
        num, den = _mod_j(num * (d0 - d1 * j.numer), ij), d0 * d0 + d1 * d1
    return fr.field(num) / fr.field(den)


def residue(fr, j):
    """The numerator of fr with j^2 = -1: zero exactly when fr is."""
    return gaussian(fr, j).numer


# ---------------------------------------------------------------------------
# the proofs
# ---------------------------------------------------------------------------


def coordinate_residues(space, potential) -> list:
    """params_of(squares, z0_of) gives back s, p and eps."""
    back = params_of(space, potential, mu, z0_of(s, mu, p),
                     *squares(space, potential, s, mu, eps, j), j)
    return [residue(x - y, j) for x, y in zip(back, (s, p, eps))]


def _system_at(space, potential):
    """A, B, C, weight in the coordinates (mu, z0, kappa^2, lambda^2)."""
    s_, p_, eps_ = params_of(space, potential, mu, z0, K, L, j)
    return [None if x is None else gaussian(x, j)
            for x in system(space, potential, z, s_, mu, p_, eps_)]


def gauge_residue(space, potential):
    """h - C'/(2C) [- f'/(4f)]."""
    _, _, C, f = _system_at(space, potential)
    h = C.diff(z) / (2 * C) + (0 if f is None else f.diff(z) / (4 * f))
    return residue(gauge(potential, z, z0, K, L) - h, j)


def normal_form_residue(space, potential, tables=table):
    """r - T, r = H^2 - H' + C B [f] with H = A + h; tables builds T's
    entries (table, or an altered copy of it)."""
    A, B, C, f = _system_at(space, potential)
    H = A + gauge(potential, z, z0, K, L)
    r = H ** 2 - H.diff(z) + gaussian(C * B if f is None else C * B * f, j)
    head, pairs = tables(potential, mu, z0, K, L)
    return residue(r - table_sum(head, pairs, z, z0, c), j)


# The integer forms: mu = m/md, p = n/pd, eps = e/d, strength = sn/sd;
# in closed_form_r mu = a/ad, z0 = zn/zd, c^2 = C/cd and o^2 = O/od, and for
# the oscillator's lambda entries kappa^2 = Kg/kd, lambda^2 = Lg/ld, each
# numerator a Gaussian integer.
INTS, zi, ji, ci, m, md, n, pd, e, d, sn, sd, a, ad, zn, zd, Cg, cd, Og, od, Kg, kd, Lg, ld = \
    sp.field("z j c m md n pd e d sn sd a ad zn zd C cd O od Kg kd Lg ld", sp.QQ)


def _over(coeffs, den, z, *factors):
    """sum coeffs[k] z^k / den, over the given factors."""
    out = sum(x * z ** k for k, x in enumerate(coeffs)) / den
    for factor in factors:
        out /= factor
    return out


def derive_params_forms(space, potential):
    """kappa^2, lambda^2 from k = m sd and nk = md sn d (k/nk = mu/(s d)):
    2 k (e +- i d)/nk (sphere Newton), 2 k (e +- d)/nk (hyperbolic
    Newton), k (2 e + sign d)/nk and 2 k e/nk (oscillator)."""
    k, nk = m * sd, md * sn * d
    if potential is Potential.NEWTON:
        unit = ji if space is Space.SPHERE else 1
        return 2 * k * (e + unit * d) / nk, 2 * k * (e - unit * d) / nk
    return k * (2 * e + _sign(space) * d) / nk, 2 * k * e / nk


def build_system_forms(space, potential, K, L):
    """A, B, C, f as build_system and _gamma_f form them, with t = 2 m sd,
    u = md sn (2 mu/s = t/u) and q = t/2: integer numerators (low to high)
    over one integer denominator, over (z^2 - kappa^2)(z^2 - lambda^2)
    (the oscillator's B over (z^2 - lambda^2)^2 (z^2 - kappa^2))."""
    sign = _sign(space)
    t, u = 2 * m * sd, md * sn
    qk, ql = zi ** 2 - K, zi ** 2 - L
    if potential is Potential.NEWTON:
        f = _over([-e * t, 0, u * d], d * t, zi)
        return (_over([-n * e * t ** 2, 0, n * d * t * u], pd * d * u ** 2, zi, qk, ql),
                _over([n * t ** 2 * ((e ** 2 + sign * d ** 2) * md ** 2
                                     - sign * (2 * md - m) * m * d ** 2),
                       -2 * sign * m ** 2 * pd * d ** 2 * t * u, -2 * n * e * md ** 2 * d * t * u,
                       0, n * md ** 2 * d ** 2 * u ** 2], pd * d ** 2 * m * md * u ** 2, zi, qk, ql),
                _over([-m * n * t ** 2, 2 * m * pd * t * u], md * pd * u ** 2, zi, qk, ql), f)
    q = t / 2
    return (_over([sign * n * q ** 2], pd * u ** 2, zi, qk, ql),
            _over([-sign * n * q ** 3 * ((d + 2 * sign * e) * md ** 2
                                         - 2 * sign * e * (2 * md - m) * m),
                   2 * e * m ** 2 * pd * q ** 2 * u, n * d * q ** 2 * u * (m - md) ** 2,
                   -m ** 2 * pd * d * q * u ** 2], pd * d * m * md * u ** 3, zi, ql, ql, qk),
            _over([-sign * m * n * q ** 2, sign * m * pd * q * u], md * pd * u ** 2, zi, qk, ql),
            _over([2 * e * q, 0, -u * d], d * q, zi))


def gauge_form(potential):
    """gauge_log_derivative's numerator over (z - z0)(z^2 - kappa^2)
    (z^2 - lambda^2), t = 2 w, in the coordinates of FIELD."""
    t = z.field(-1) / (1 if potential is Potential.NEWTON else 2)
    coeffs = [K * L / 2, z0 * (t * K - L), L - t * K - (K + L) / 2, z0 * (1 - t), t - z.field(1) / 2]
    return _over(coeffs, 1, z, z - z0, z ** 2 - K, z ** 2 - L)


def pair_forms(mm):
    """closed_form_r's (e, o, e', o') at c^2 = C/cd, o^2 = O/od, m = mm,
    with qn = a^2 - ad^2, pn = (a - ad)^2 zn^2, bn = a (a - ad) zn,
    G = C od - O cd and H = 2 m C od."""
    qn, pn, bn = a ** 2 - ad ** 2, (a - ad) ** 2 * zn ** 2, a * (a - ad) * zn
    G, H = Cg * od - Og * cd, 2 * mm * Cg * od
    return ((qn * zd ** 2 * Cg + pn * cd) / (4 * ad ** 2 * zd ** 2 * Cg),
            -bn * cd / (2 * ad ** 2 * zd * Cg),
            mm * bn * cd * od / (ad ** 2 * zd * G),
            -cd * (pn * cd * (H + G) + qn * zd ** 2 * Cg * (H - G))
            / (4 * ad ** 2 * zd ** 2 * G * Cg ** 2))


def lambda_forms():
    """The oscillator's beta_0, e' and o' at +-lambda, with
    W = zn^2 ld - zd^2 Lg, J = Lg kd - Kg ld and
    S = 8 pn kd ld + 9 Kg ad^2 zd^2 ld + (8 a^2 - 17 ad^2) zd^2 kd Lg."""
    pn, bn = (a - ad) ** 2 * zn ** 2, a * (a - ad) * zn
    W, J = zn ** 2 * ld - zd ** 2 * Lg, Lg * kd - Kg * ld
    S = 8 * pn * kd * ld + 9 * Kg * ad ** 2 * zd ** 2 * ld + (8 * a ** 2 - 17 * ad ** 2) * zd ** 2 * kd * Lg
    return (-3 * zn * zd * ld / (2 * W),
            (3 * zn * zd ** 2 * ld * ad ** 2 * J + 4 * bn * ld * kd * W) / (4 * ad ** 2 * zd * W * J),
            ld * (12 * ad ** 2 * zd ** 4 * Lg * J - S * W) / (16 * ad ** 2 * zd ** 2 * W * Lg * J))


def integer_form_residues(space, potential) -> dict:
    """name -> residue of each integer form against its closed form."""
    s_, mu_, p_, eps_ = sn / sd, m / md, n / pd, e / d
    K_, L_ = squares(space, potential, s_, mu_, eps_, ji)
    out = {f"derive_params {x}": residue(y - w, ji) for x, y, w in
           zip(("kappa^2", "lambda^2"), derive_params_forms(space, potential), (K_, L_))}
    closed = system(space, potential, zi, s_, mu_, p_, eps_)[:3] + (gamma_f(potential, zi, s_, mu_, eps_),)
    for x, y, w in zip("ABCf", build_system_forms(space, potential, K_, L_), closed):
        out[f"build_system {x}"] = residue(y - w, ji)
    out["gauge_log_derivative"] = residue(gauge_form(potential) - gauge(potential, z, z0, K, L), j)
    mm, muq, z0q = (2 if potential is Potential.NEWTON else 1), a / ad, zn / zd
    c2, o2 = Cg / cd, Og / od
    closed = (*parts(lambda x: alpha(x, muq, z0q), ci, c2),
              *parts(lambda x: beta(x, o2, muq, z0q, mm), ci, c2))
    for x, y, w in zip(("e", "o", "e'", "o'"), pair_forms(mm), closed):
        out[f"closed_form_r {x}"] = residue(y - w, ji)
    if potential is Potential.OSCILLATOR:
        kq, lq = Kg / kd, Lg / ld
        closed = (-3 * z0q / (2 * (z0q ** 2 - lq)),
                  *parts(lambda x: beta_lambda(x, kq, muq, z0q), ci, lq))
        for x, y, w in zip(("beta_0", "lambda e'", "lambda o'"), lambda_forms(), closed):
            out[f"closed_form_r {x}"] = residue(y - w, ji)
    return out


def gauge_check_residues(eliminated_q=None) -> dict:
    """The gauge check for undetermined functions A, B, C, f and h of z,
    with f and with f = 1 (Newton): the elimination's p = -g, g = C'/C
    [+ f'/(2f)], and q = -(g A + A^2 + C B [f] - A')
    (linode.reduce_to_second_order, or eliminated_q(A, B, C, f, g)), and
    r = (A + h)^2 - (A + h)' + C B [f] (linode.normal_form).  Its
    y-coefficient r + h' + h^2 + p h + q minus (2h + p)(A + h), and 2h + p
    minus 2 (h - C'/(2C) [- f'/(4f)]): both vanish, so the check on r holds
    exactly when 2h + p = 0, that is when h = C'/(2C) [+ f'/(4f)]."""
    x = sp.Symbol("z")
    A, B, C, f, h = (sp.Function(name)(x) for name in "ABCfh")
    out = {}
    for label, w in (("f", f), ("f = 1", sp.Integer(1))):
        g = C.diff(x) / C + w.diff(x) / (2 * w)
        q = -(g * A + A ** 2 + C * B * w - A.diff(x)) if eliminated_q is None \
            else eliminated_q(A, B, C, w, g)
        p = -g
        r = (A + h) ** 2 - (A + h).diff(x) + C * B * w
        for name, expr in (("y-coefficient", r + h.diff(x) + h ** 2 + p * h + q
                            - (2 * h + p) * (A + h)),
                           ("2h + p", 2 * h + p - 2 * (h - C.diff(x) / (2 * C)
                                                       - w.diff(x) / (4 * w)))):
            out[f"{name} ({label})"] = sp.expand(sp.numer(sp.together(expr)))
    return out


def prove(space, potential) -> list[str]:
    """The names of the identities that fail for one pair (none when all
    hold)."""
    failed = [f"coordinate {x}" for x, res in zip(("s", "p", "eps"),
                                                   coordinate_residues(space, potential)) if res]
    failed += [name for name, res in integer_form_residues(space, potential).items() if res]
    if gauge_residue(space, potential):
        failed.append("h = C'/(2C) [+ f'/(4f)]")
    if normal_form_residue(space, potential):
        failed.append("r = T")
    return failed


def prove_gauge_check() -> list[str]:
    """The names of the gauge-check identities that fail (none when all
    hold)."""
    return [name for name, res in gauge_check_residues().items() if res != 0]


def _report(label: str, failures) -> bool:
    """Print label, the verdict of failures() and its wall time; True on a
    failure."""
    start = time.perf_counter()
    failed = failures()
    took = time.perf_counter() - start
    verdict = "proved" if not failed else "FAILED: " + ", ".join(failed)
    print(f"{label}: {verdict} ({took:.2f} s)")
    return bool(failed)


def main() -> int:
    status = 0
    for space, potential in PAIRS:
        status |= _report(f"{space.value} {potential.value}",
                          lambda: prove(space, potential))
    status |= _report("gauge check, y-coefficient = (2h + p)(A + h) and 2h + p = 0 "
                      "iff h = C'/(2C) [+ f'/(4f)]", prove_gauge_check)
    return status


if __name__ == "__main__":
    sys.exit(main())
