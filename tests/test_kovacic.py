import dataclasses
import itertools
import json
import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from curvedtwobody.exactfield import GaussRational, TowerContext
from curvedtwobody import kovacic
from curvedtwobody.kovacic import (Classification, ECandidate, KovacicError,
                                   RiccatiSolution, _solve_P, candidates,
                                   case1_search, case2_operator,
                                   case3_possible, classify, e_sets,
                                   pair_exclusion, search_P, theta, xi)
from curvedtwobody.linode import (NormalFormODE, SingularPoint,
                                  SingularitySpectrum, reduce_to_second_order,
                                  singularity_spectrum, to_normal_form)
from curvedtwobody.models import (Potential, Space, build_system,
                                  derive_params, detect_poles, mu1_solutions,
                                  random_admissible_params)
from curvedtwobody.ratcalc import (BadFactorization, Poly, RatFunc, poly_gcd,
                                   simple_pole_sum)
from conftest import reference_params
from oracles import case1_coefficients, case2_coefficients, symmetric_power_residual
from test_models import COLLAPSED

ALL_CASES = [(Space.SPHERE, Potential.NEWTON),
             (Space.HYPERBOLIC, Potential.NEWTON),
             (Space.SPHERE, Potential.OSCILLATOR),
             (Space.HYPERBOLIC, Potential.OSCILLATOR)]


def analysis(params):
    r = to_normal_form(reduce_to_second_order(build_system(params))).r
    normal = NormalFormODE(r)
    spec = singularity_spectrum(normal, detect_poles(params, r))
    return normal, spec


class TestESets:
    @pytest.mark.parametrize("space", list(Space))
    def test_newton(self, space):
        params = reference_params(space, Potential.NEWTON)
        normal, spec = analysis(params)
        sets = e_sets(spec)
        z0pt = params.z0_scalar()
        for pt, menu in sets:
            if pt.is_infinity or pt.location == z0pt:
                assert menu == (-2, 2, 6)
            else:
                assert menu == (2,)

    @pytest.mark.parametrize("space", list(Space))
    def test_oscillator(self, space):
        params = reference_params(space, Potential.OSCILLATOR)
        normal, spec = analysis(params)
        sets = dict()
        lam = params.lambda_value()
        for pt, menu in e_sets(spec):
            if pt.is_infinity:
                assert menu == (0, 2, 4)
            elif pt.location == params.z0_scalar():
                assert menu == (-2, 2, 6)
            elif pt.location in (lam, -lam):
                assert menu == (1, 2, 3)
            else:
                assert menu == (2,)

    def test_order_one_point(self):
        # synthetic Fuchsian r with a simple pole: E_c = (4)
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        c = ctx.from_rational(1)
        r = RatFunc.over(Poly.constant(ctx, ctx.one), {c: 1, -c: 2})
        spec = singularity_spectrum(NormalFormODE(r), [(c, 1), (-c, 2)])
        menus = {(pt.order, pt.is_infinity): menu for pt, menu in e_sets(spec)}
        assert menus[(1, False)] == (4,)


class TestCandidates:
    @pytest.mark.parametrize("space", list(Space))
    def test_newton_unique(self, space):
        params = reference_params(space, Potential.NEWTON)
        normal, spec = analysis(params)
        cands = candidates(e_sets(spec))
        assert len(cands) == 1
        cand = cands[0]
        assert cand.d == 0
        assert cand.e_infinity == 6
        es = dict(cand.finite)
        assert es[params.z0_scalar()] == -2
        for loc in (params.kappa_value(), -params.kappa_value(),
                    params.lambda_value(), -params.lambda_value()):
            assert es[loc] == 2

    @pytest.mark.parametrize("space", list(Space))
    def test_oscillator_unique(self, space):
        params = reference_params(space, Potential.OSCILLATOR)
        normal, spec = analysis(params)
        cands = candidates(e_sets(spec))
        assert len(cands) == 1
        cand = cands[0]
        assert cand.d == 0 and cand.e_infinity == 4
        es = dict(cand.finite)
        lam = params.lambda_value()
        assert es[params.z0_scalar()] == -2
        assert es[lam] == 1 and es[-lam] == 1

    def test_negative_d_filtered(self):
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        one = ctx.one
        pts = (SingularPoint(one, 2, ctx.zero, ctx.one, Fr(1), (Fr(1), Fr(0))),
               SingularPoint(-one, 2, ctx.zero, ctx.one, Fr(1), (Fr(1), Fr(0))),
               SingularPoint(None, 2, ctx.zero, ctx.one, Fr(1), (Fr(0), Fr(-1))))
        spec = SingularitySpectrum(pts)
        sets = [(pts[0], (2,)), (pts[1], (2,)), (pts[2], (0,))]
        assert candidates(sets) == []


class TestThetaXi:
    @pytest.mark.parametrize("space", list(Space))
    def test_newton_theta_and_xi(self, space):
        params = reference_params(space, Potential.NEWTON)
        normal, spec = analysis(params)
        cand = candidates(e_sets(spec))[0]
        th = theta(params.ctx, cand)
        ctx = params.ctx
        expected = RatFunc.constant(ctx, 0)
        lead = RatFunc.constant(ctx, -1)
        z0 = params.z0_scalar()
        expected = lead / RatFunc(Poly(ctx, [-z0, ctx.one]))
        for loc in (params.kappa_value(), -params.kappa_value(),
                    params.lambda_value(), -params.lambda_value()):
            expected = expected + RatFunc.constant(ctx, 1) \
                / RatFunc(Poly(ctx, [-loc, ctx.one]))
        assert th == expected
        x = xi(normal, th)
        # Xi = p P_*(z) / prod (z-z_j)^2 with deg P_* = 6 and leading
        # coefficient 3i(k^2-l^2) p resp. 3(l^2-k^2) p
        assert x.num.degree() == 6
        assert x.den.degree() == 10
        k2 = ctx.from_gauss(params.kappa2)
        l2 = ctx.from_gauss(params.lambda2)
        pc = ctx.from_rational(params.p)
        if space is Space.SPHERE:
            expected_lead = ctx.from_gauss(GaussRational(0, 3)) * (k2 - l2) * pc
        else:
            expected_lead = ctx.from_rational(3) * (l2 - k2) * pc
        assert x.num.leading() == expected_lead

    @pytest.mark.parametrize("space", list(Space))
    def test_oscillator_xi_corrected_quadratic(self, space):
        """Xi's numerator is the display in factored form: all three terms
        carry the prefactor sign 2p(k^2-l^2)^2, the constant included.  A
        hand elimination in sympy gives the same constants (5/8 sphere,
        -17/8 hyperbolic), and only the prefactored constant has the
        weight -5 of the z^2 and z^1 terms (p: 1, k^2, l^2: -2, z: -1)."""
        params = reference_params(space, Potential.OSCILLATOR)
        normal, spec = analysis(params)
        cand = candidates(e_sets(spec))[0]
        x = xi(normal, theta(params.ctx, cand))
        ctx = params.ctx
        c = ctx.from_rational
        k2 = ctx.from_gauss(params.kappa2)
        l2 = ctx.from_gauss(params.lambda2)
        d = k2 - l2
        mu, p = params.mu, params.p
        sign = 1 if space is Space.SPHERE else -1
        z2 = c(sign * 2 * p * (2 * mu + 1)) * d * d
        z1 = c(-8 * p * p * (mu - 1)) * d * d * d
        z0 = c(sign * 2 * p) * d * d * (c(2 * p * p * (mu - 1)) * d * d - c(3) * k2)
        assert x.num.degree() == 2
        assert x.num.coefficient(2) == z2
        assert x.num.coefficient(1) == z1
        assert x.num.coefficient(0) == z0
        lam = params.lambda_value()
        expected_den = Poly.from_roots(
            ctx, [(lam, 1), (-lam, 1), (params.z0_scalar(), 2),
                  (params.kappa_value(), 2), (-params.kappa_value(), 2)])
        assert x.den == expected_den

    def test_xi_is_operator_constant_coefficient(self):
        # Xi equals the auxiliary-polynomial operator applied to P = 1
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        normal, spec = analysis(params)
        cand = candidates(e_sets(spec))[0]
        ctx = params.ctx
        th = theta(ctx, cand)
        one = RatFunc(Poly.constant(ctx, 1))
        three = RatFunc.constant(ctx, 3)
        four = RatFunc.constant(ctx, 4)
        applied = (one.derivative().derivative().derivative()
                   + three * th * one.derivative().derivative()
                   + (three * th * th + three * th.derivative() - four * normal.r)
                   * one.derivative() + xi(normal, th) * one)
        assert applied == xi(normal, th)

    def test_trivial_zero(self):
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        normal = NormalFormODE(RatFunc.constant(ctx, 0))
        th = RatFunc.constant(ctx, 0)
        assert xi(normal, th).is_zero()

    def test_theta_all_zero_assignment(self):
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        cand = ECandidate(((ctx.one, 0), (-ctx.one, 0)), 0, Fr(0))
        assert theta(ctx, cand).is_zero()


class TestSearchP:
    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_reference_cases_have_no_p(self, space, pot):
        params = reference_params(space, pot)
        normal, spec = analysis(params)
        for cand in candidates(e_sets(spec)):
            assert search_P(normal, cand) is None

    def test_exponential_control(self):
        # y'' = y has y = exp(+-z); the synthetic d=0 candidate with Theta=0
        # must produce P=1 because Xi = -2r' = 0
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        normal = NormalFormODE(RatFunc.constant(ctx, 1))
        cand = ECandidate((), 0, Fr(0))
        sol = search_P(normal, cand)
        assert sol is not None
        assert sol.P.degree() == 0

    def test_mu1_newton_case2_found(self):
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        normal, spec = analysis(params)
        found = [search_P(normal, cand) for cand in candidates(e_sets(spec))]
        assert any(sol is not None for sol in found)

    def test_handed_theta_and_xi_give_the_same_solution(self):
        """The normal form's memo, filled by case2_operator beforehand and
        shared by every candidate, gives what a fresh Theta and Xi give; the
        memo takes no part in comparing normal forms."""
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        normal, spec = analysis(params)
        cands = candidates(e_sets(spec))
        for cand in cands:
            x = case2_operator(normal, cand.finite, 0)[0]
            th = normal.memo[cand.finite][0]
            assert th == theta(params.ctx, cand) and x == xi(normal, th)
        assert len(normal.memo) == len({cand.finite for cand in cands})
        for cand in cands:
            handed = search_P(normal, cand)
            fresh = NormalFormODE(normal.r)
            assert fresh == normal and not fresh.memo
            alone = search_P(fresh, cand)
            assert (handed is None) == (alone is None)
            if alone is not None:
                assert handed.P == alone.P

    def test_degree_two_auxiliary_polynomial(self):
        """Brute-force oracle at degree 2: for r = 3/(4(z-z0)^2) and the
        synthetic candidate (e0, einf) = (-2, 2), d = 2, the operator is
        P''' - 3P''/(z-z0) + 3P'/(z-z0)^2 (Xi vanishes), whose monic
        degree-2 solutions are exactly z^2 - 2 z0 z + c."""
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        normal, spec = analysis(params)
        ctx = params.ctx
        z0 = params.z0_scalar()
        cand = ECandidate(((z0, -2),), 2, Fr(2))
        th = theta(ctx, cand)
        assert xi(normal, th).is_zero()
        sol = search_P(normal, cand)
        assert sol is not None

        def operator(poly):
            pr = RatFunc(poly)
            three = RatFunc.constant(ctx, 3)
            four = RatFunc.constant(ctx, 4)
            return (pr.derivative().derivative().derivative()
                    + three * th * pr.derivative().derivative()
                    + (three * th * th + three * th.derivative() - four * normal.r)
                    * pr.derivative() + xi(normal, th) * pr)

        # brute-force coefficient match: monic z^2 + c1 z + c0
        two_z0 = ctx.from_rational(2) * z0
        for c1_num in (-2, -1, 0, 1):
            for c0_num in (0, 1):
                poly = Poly(ctx, [ctx.from_rational(c0_num),
                                  ctx.from_rational(Fr(c1_num, 2)), ctx.one])
                is_sol = operator(poly).is_zero()
                assert is_sol == (ctx.from_rational(Fr(c1_num, 2)) == -two_z0)
        # the returned representative and the (z-z0)^2 member both solve it
        assert operator(sol.P).is_zero()
        assert operator(Poly.from_roots(ctx, [(z0, 2)])).is_zero()
        assert sol.P.coefficient(1) == -two_z0


def delta_zero_normal(ctx):
    """y'' = -kappa^2/(z^2 - kappa^2)^2 y: delta = 0 at both of +-kappa
    (exponents 1/2, 1/2), solved by y = (z^2 - kappa^2)^(1/2), whose
    partner carries a logarithm."""
    k = ctx.sqrt_a()
    r = RatFunc.over(Poly.constant(ctx, -(k * k)), {k: 2, -k: 2})
    normal = NormalFormODE(r)
    return normal, singularity_spectrum(normal, list(r.roots.items()))


class TestCase1Search:
    def test_mu1_newton_two_solutions(self):
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        normal, spec = analysis(params)
        sols = case1_search(normal, spec)
        assert len(sols) == 2
        om1, om2 = mu1_solutions(params)
        got = {sol.render_omega() for sol in sols}
        assert got == {om1.render(), om2.render()}

    def test_mu1_oscillator_two_solutions(self):
        params = derive_params(Space.SPHERE, Potential.OSCILLATOR, 1, 1, 1, -1)
        normal, spec = analysis(params)
        sols = case1_search(normal, spec)
        assert len(sols) == 2
        om1, om2 = mu1_solutions(params)
        assert {sol.render_omega() for sol in sols} == {om1.render(), om2.render()}
        # the second solution carries the degree-1 polynomial z0 z - l^2 (monic)
        degs = sorted(sol.P.degree() for sol in sols)
        assert degs == [0, 1]

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_generic_pruned_empty(self, space, pot):
        params = reference_params(space, pot)
        normal, spec = analysis(params)
        assert case1_search(normal, spec) == []

    @pytest.mark.parametrize("a", [2, 4], ids=["tower", "collapsed"])
    def test_repeated_exponents_give_distinct_omegas(self, a, monkeypatch):
        """The repeated menus at delta = 0 reach omega = z/(z^2 - kappa^2)
        from four assignments; case1_search returns it once."""
        ctx = TowerContext(GaussRational(a), GaussRational(3))
        normal, spec = delta_zero_normal(ctx)
        assert [pt.delta_rational for pt in spec.finite_points] == [0, 0]
        found = []
        solve = kovacic._solve_P

        def recording(*args, **kwargs):
            out = solve(*args, **kwargs)
            if out is not None:
                found.append(out)
            return out
        monkeypatch.setattr(kovacic, "_solve_P", recording)
        sols = case1_search(normal, spec)
        assert len(found) == 4
        assert all(p == found[0] for p in found)
        k = ctx.sqrt_a()
        assert [(sol.poles, sol.Q) for sol in sols] == [
            (((k, Fr(1, 2)), (-k, Fr(1, 2))), Poly.constant(ctx, 1))]
        assert [sol.render_omega() for sol in sols] == [
            RatFunc(Poly.x(ctx), Poly.from_roots(ctx, [(k, 1), (-k, 1)])).render()]


# A reducible Riemann equation, (lambda, mu, nu) = (1/3, 1/5, 67/15) at
# kappa^2 = 1, whose one case-I solution has a Q of degree 2 with no root in
# the tower: its omega as the RatFunc phi + P'/P renders it, which the
# (exponent map, Q) rendering must match byte for byte.
RIEMANN_OMEGA = (
    "(((41/15+0/1 i) + (0/1+0/1 i)κ + (0/1+0/1 i)λ + (0/1+0/1 i)κλ)*z^3"
    " + ((1/5+0/1 i) + (0/1+0/1 i)κ + (0/1+0/1 i)λ + (0/1+0/1 i)κλ)*z^2"
    " + ((-5509/2405+0/1 i) + (0/1+0/1 i)κ + (0/1+0/1 i)λ + (0/1+0/1 i)κλ)*z"
    " + ((-749/7215+0/1 i) + (0/1+0/1 i)κ + (0/1+0/1 i)λ + (0/1+0/1 i)κλ)*1)"
    " / (((1/1+0/1 i) + (0/1+0/1 i)κ + (0/1+0/1 i)λ + (0/1+0/1 i)κλ)*z^4"
    " + ((1/13+0/1 i) + (0/1+0/1 i)κ + (0/1+0/1 i)λ + (0/1+0/1 i)κλ)*z^3"
    " + ((-675/481+0/1 i) + (0/1+0/1 i)κ + (0/1+0/1 i)λ + (0/1+0/1 i)κλ)*z^2"
    " + ((-1/13+0/1 i) + (0/1+0/1 i)κ + (0/1+0/1 i)λ + (0/1+0/1 i)κλ)*z"
    " + ((194/481+0/1 i) + (0/1+0/1 i)κ + (0/1+0/1 i)λ + (0/1+0/1 i)κλ)*1)")


def riemann_normal(lam, mu, nu, kappa2):
    """y'' = r y with singular points -kappa, +kappa and infinity and
    exponent differences lam, mu, nu there:
    r = A/(z + kappa)^2 + B/(z - kappa)^2 - C/(z^2 - kappa^2) with
    A = (lam^2 - 1)/4, B = (mu^2 - 1)/4, C = (lam^2 + mu^2 - nu^2 - 1)/4.

    Each difference is a rational q or a pair (q, s) for q + s sqrt(2);
    sqrt(2) is kappa at kappa^2 = 2 and lambda (b = 2) otherwise."""
    ctx = TowerContext(GaussRational(kappa2), GaussRational(3 if kappa2 == 2 else 2))
    k = ctx.sqrt_a()
    root2 = k if kappa2 == 2 else ctx.sqrt_b()

    def scalar(x):
        q, s = x if isinstance(x, tuple) else (x, 0)
        return ctx.from_rational(q) + ctx.from_rational(s) * root2
    l2, m2, n2 = (scalar(x) * scalar(x) for x in (lam, mu, nu))
    one, quarter = ctx.one, ctx.from_rational(Fr(1, 4))
    zm, zp = Poly(ctx, [-k, one]), Poly(ctx, [k, one])
    num = ((zm * zm).scale((l2 - one) * quarter) + (zp * zp).scale((m2 - one) * quarter)
           - (zm * zp).scale((l2 + m2 - n2 - one) * quarter))
    normal = NormalFormODE(RatFunc.over(num, {-k: 2, k: 2}))
    return normal, singularity_spectrum(normal, list(normal.r.roots.items()))


R2 = (Fr(0), Fr(1))           # sqrt(2)
# (lam, mu, nu), kappa^2, Kimura's group, whether G0 is abelian, and the
# program's (classification, identity_component_abelian, case-I count).
KIMURA_ROWS = [
    ((Fr(1, 3), Fr(1, 5), Fr(23, 15)), 1, "reducible", True,
     ("Inconclusive", True, 1)),
    ((Fr(1, 3), Fr(1, 5), Fr(67, 15)), 1, "reducible", True,
     ("Inconclusive", True, 1)),
    ((Fr(1, 2), Fr(1, 2), Fr(1, 7)), 1, "dihedral", True, ("Inconclusive", True, 0)),
    ((Fr(1, 2), Fr(1, 2), R2), 1, "dihedral", True, ("Inconclusive", True, 0)),
    ((Fr(1, 2), Fr(1, 3), Fr(1, 3)), 1, "tetrahedral", True, ("Inconclusive", None, 0)),
    ((Fr(1, 2), Fr(1, 3), Fr(1, 7)), 1, "SL2", False, ("Inconclusive", None, 0)),
    ((R2, Fr(1, 5), Fr(1, 3)), 1, "SL2", False, ("SL2_NonAbelian", False, 0)),
    ((R2, (Fr(1, 3), Fr(1)), Fr(2, 3)), 2, "reducible", False,
     ("SL2_NonAbelian", False, 0)),
]
# rows the program cannot decide yet, or labels wrongly, and the ROADMAP item
# that closes each
KNOWN_GAPS = {
    4: "item 6: decide case III (a finite group is only screened for)",
    5: "item 6: decide case III (SL2 is not told from a finite group)",
    7: "item 5: case I over the algebraic closure; reducible, labelled SL2",
}


def _pair(x):
    return x if isinstance(x, tuple) else (x, Fr(0))


def kimura_reducible(diffs) -> bool:
    """Kimura (i): one of +-lam +- mu +- nu (with an even number of minus
    signs) is an odd integer."""
    lam, mu, nu = (_pair(x) for x in diffs)
    for sl, sm, sn in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)):
        q = sl * lam[0] + sm * mu[0] + sn * nu[0]
        s = sl * lam[1] + sm * mu[1] + sn * nu[1]
        if s == 0 and q.denominator == 1 and q.numerator % 2:
            return True
    return False


def schwarz_dihedral(diffs) -> bool:
    """Schwarz's family 1: two of the differences lie in 1/2 + Z."""
    return sum(1 for x in diffs
               if _pair(x)[1] == 0 and (_pair(x)[0] - Fr(1, 2)).denominator == 1) >= 2


def kovacic_verdict(normal, spec):
    """classify's verdict from case I, the product test and case II, run as
    certify runs them, and the number of case-I solutions."""
    case1 = case1_search(normal, spec)
    pair = pair_exclusion(normal, spec)
    case2 = next((sol for cand in candidates(e_sets(spec))
                  if (sol := search_P(normal, cand)) is not None), None)
    return (classify(normal, spec, case1, case2, case3_possible(spec), pair.excluded),
            len(case1))


def seeded_kimura_triple(rng):
    """(lam, mu, nu), each a rational or a pair (0, s) for s sqrt(2): generic
    rational, reducible (-lam + mu + nu odd), dihedral (two in 1/2 + Z),
    with a tower difference, or the tower reducible shape (a, a, odd)."""
    def rational():
        return Fr(rng.randint(1, 12), rng.randint(1, 6))

    def root2():
        return (Fr(0), Fr(rng.randint(1, 4), rng.randint(1, 3)))
    shape = rng.choice(["rational", "reducible", "dihedral", "tower", "tower reducible"])
    if shape == "rational":
        diffs = [rational(), rational(), rational()]
    elif shape == "reducible":
        lam, mu = rational(), rational()
        diffs = [lam, mu, abs(lam - mu + 2 * rng.randint(0, 3) + 1)]
    elif shape == "dihedral":
        diffs = [Fr(2 * rng.randint(0, 3) + 1, 2), Fr(2 * rng.randint(0, 3) + 1, 2),
                 rng.choice([rational, root2])()]
    elif shape == "tower":
        diffs = [root2()] + [rng.choice([rational, root2])() for _ in range(2)]
    else:
        a = root2()
        diffs = [a, a, Fr(2 * rng.randint(0, 3) + 1)]
    rng.shuffle(diffs)
    return tuple(diffs)


class TestKimuraOracle:
    """Kimura's theorem decides the Galois group of a Riemann equation
    (Funkcial. Ekvac. 12 (1969) 269-281); the Kovacic stage must never
    contradict it."""

    @pytest.mark.parametrize("row", range(len(KIMURA_ROWS)))
    def test_verdict_agrees_with_kimura(self, row):
        diffs, kappa2, group, g0_abelian, expected = KIMURA_ROWS[row]
        assert kimura_reducible(diffs) == (group == "reducible")
        assert schwarz_dihedral(diffs) == (group == "dihedral")
        verdict, n_case1 = kovacic_verdict(*riemann_normal(*diffs, kappa2))
        got = (verdict.classification.value, verdict.identity_component_abelian,
               n_case1)
        assert got == expected
        if verdict.identity_component_abelian is True:
            assert group != "SL2" and g0_abelian
        if verdict.identity_component_abelian is False:
            assert not g0_abelian
        if verdict.classification is Classification.SL2_NONABELIAN:
            assert group == "SL2" or row in KNOWN_GAPS
        if verdict.identity_component_abelian is None:
            assert row in KNOWN_GAPS

    @pytest.mark.parametrize("kappa2", [1, 2])
    def test_seeded_triples(self, kappa2):
        """Seeded triples, rational and q sqrt(2) (so lam^2 is rational and
        the exponents (1 +- lam)/2 lie in the tower), drawn generic or
        reducible or dihedral by construction.  Every such triple that
        Kimura calls reducible or dihedral has an abelian G0: with rational
        exponents y1^m is rational, a tower triple can only be reducible as
        (a, a, odd), where two of the four sums are odd and G is diagonal,
        and a dihedral G0 is a torus.  So abelian is True exactly there;
        SL2_NonAbelian needs an irrational difference, since Schwarz's
        finite families are rational; and None needs the case III screen
        (which also holds the finite groups) or a tower exponent."""
        for seed in range(30):
            diffs = seeded_kimura_triple(random.Random(seed))
            normal, spec = riemann_normal(*diffs, kappa2)
            verdict, _ = kovacic_verdict(normal, spec)
            solvable = kimura_reducible(diffs) or schwarz_dihedral(diffs)
            tower = any(isinstance(x, tuple) for x in diffs)
            abelian = verdict.identity_component_abelian
            assert (abelian is True) == solvable, (seed, diffs, verdict)
            if verdict.classification is Classification.SL2_NONABELIAN:
                assert tower and not solvable, (seed, diffs, verdict)
            if abelian is None:
                assert case3_possible(spec) or tower, (seed, diffs, verdict)


class TestCase1Omega:
    """Case I holds omega as (exponent map, Q) and renders it with no gcd;
    RatFunc has no slot for a factor whose roots nobody supplied."""

    def test_ratfunc_refuses_an_unsplit_denominator(self):
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        ctx = params.ctx
        big_p = Poly.from_rationals(ctx, [5, 1, 1])
        with pytest.raises(BadFactorization):
            RatFunc(big_p.derivative(), big_p)
        with pytest.raises(BadFactorization):
            RatFunc.constant(ctx, 1) / RatFunc(big_p)
        with pytest.raises(BadFactorization):
            RatFunc(big_p).log_derivative()

    def test_case1_carries_an_unsplit_Q(self):
        """The Riemann row's omega = sum w_c/(z - c) + Q'/Q renders as
        RIEMANN_OMEGA, with a Q like z^2 + z + 5: squarefree, of degree 2,
        and refused as a RatFunc denominator."""
        normal, spec = riemann_normal(Fr(1, 3), Fr(1, 5), Fr(67, 15), 1)
        (sol,) = case1_search(normal, spec)
        assert sol.Q.degree() == 2 and sol.P.degree() == 2
        assert dict(sol.poles) == dict(sol.exponent_choices)
        assert sol.render_omega() == RIEMANN_OMEGA
        num, den = sol.omega()
        assert poly_gcd(num, den).degree() == 0
        assert poly_gcd(sol.Q, sol.Q.derivative()).degree() == 0
        with pytest.raises(BadFactorization):
            RatFunc(Poly.constant(normal.r.ctx, 1), sol.Q)

    def test_mu1_golden_omegas_unchanged(self):
        """random_hyperbolic_newton_4 (mu = 1): each omega renders as the
        golden certificate records it, and is the closed form's render."""
        data = json.loads((GOLDEN / "random_hyperbolic_newton_4.json").read_bytes())
        params = derive_params(*(f(data["params"][key]) for f, key in (
            (Space, "space"), (Potential, "potential"), (Fr, "strength"),
            (Fr, "mu"), (Fr, "p"), (Fr, "eps"))))
        sols = case1_search(*analysis(params))
        want = [sol["omega"] for sol in data["case1"]["solutions"]]
        assert [sol.render_omega() for sol in sols] == want
        assert sorted(want) == sorted(om.render() for om in mu1_solutions(params))

    def test_moved_factors_join_the_exponent_map(self):
        """A P with roots at finite singular points: its factors there move
        into the exponent map (a weight that reaches 0 drops out) and Q keeps
        the rest."""
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        k, lam = ctx.sqrt_a(), ctx.sqrt_b()
        other = Poly.from_rationals(ctx, [5, 1, 1])
        p = other * Poly.from_roots(ctx, [(k, 2), (-k, 1)])
        sol = RiccatiSolution(((k, Fr(1, 2)), (-k, Fr(-1)), (lam, Fr(1, 3))),
                              Fr(0), p)
        assert sol.poles == ((k, Fr(5, 2)), (lam, Fr(1, 3)))
        assert sol.Q == other


class TestPairExclusion:
    @pytest.mark.parametrize("space", list(Space))
    def test_newton_single_candidate_nonzero_residual(self, space):
        params = reference_params(space, Potential.NEWTON)
        normal, spec = analysis(params)
        pe = pair_exclusion(normal, spec)
        assert pe.excluded
        rigid = [c for c in pe.candidates if c.poly_degree == 0]
        assert len(rigid) == 1
        cand = rigid[0]
        assert not cand.solvable
        assert cand.residual_num_degree == 6
        # residual = Xi * v, so the leading coefficient matches Xi's
        ctx = params.ctx
        k2 = ctx.from_gauss(params.kappa2)
        l2 = ctx.from_gauss(params.lambda2)
        pc = ctx.from_rational(params.p)
        if space is Space.SPHERE:
            expected = ctx.from_gauss(GaussRational(0, 3)) * (k2 - l2) * pc
        else:
            expected = ctx.from_rational(3) * (l2 - k2) * pc
        assert cand.residual_leading == expected

    @pytest.mark.parametrize("space", list(Space))
    def test_oscillator_no_candidates(self, space):
        params = reference_params(space, Potential.OSCILLATOR)
        normal, spec = analysis(params)
        pe = pair_exclusion(normal, spec)
        assert pe.excluded
        assert pe.candidates == ()

    def test_mu1_not_excluded(self):
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        normal, spec = analysis(params)
        pe = pair_exclusion(normal, spec)
        assert not pe.excluded


class TestClassify:
    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_generic_nonabelian(self, space, pot):
        params = reference_params(space, pot)
        normal, spec = analysis(params)
        case1 = case1_search(normal, spec)
        case2 = None
        for cand in candidates(e_sets(spec)):
            case2 = search_P(normal, cand)
            if case2 is not None:
                break
        pe = pair_exclusion(normal, spec)
        verdict = classify(normal, spec, case1, case2, case3_possible(spec),
                           pe.excluded)
        assert verdict.classification in (Classification.SL2_NONABELIAN,
                                          Classification.FULL_TRIANGULAR_NONABELIAN)
        assert verdict.identity_component_abelian is False

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_mu1_abelian(self, space, pot):
        kw = dict(strength=1, mu=1, p=1, eps=-2)
        if (space, pot) == (Space.SPHERE, Potential.NEWTON):
            kw = dict(strength=2, mu=1, p=1, eps=0)
        params = derive_params(space, pot, **kw)
        normal, spec = analysis(params)
        case1 = case1_search(normal, spec)
        verdict = classify(normal, spec, case1, None, case3_possible(spec), False)
        assert verdict.classification is Classification.DIAGONAL_OR_SMALLER_ABELIAN
        assert verdict.identity_component_abelian is True

    def test_monotone_in_evidence(self):
        # adding a discovered case-1 solution never flips abelian -> non-abelian
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        normal, spec = analysis(params)
        case1 = case1_search(normal, spec)
        base = classify(normal, spec, case1[:1], None, case3_possible(spec), False)
        more = classify(normal, spec, case1, None, case3_possible(spec), False)
        if base.identity_component_abelian:
            assert more.identity_component_abelian

    def test_single_solution_reads_exponent_reality_exactly(self):
        """With one case-I solution the verdict turns on whether some point
        has non-real exponents: a negative rational delta^2 says so, and a
        delta^2 that is not rational is refused rather than guessed."""
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        normal, spec = analysis(params)
        case1 = case1_search(normal, spec)[:1]
        ctx = params.ctx
        pts = list(spec.points)
        i = next(j for j, pt in enumerate(pts) if not pt.is_infinity)

        def with_delta2(value):
            pts[i] = dataclasses.replace(spec.points[i], delta_squared=value)
            return SingularitySpectrum(tuple(pts))

        verdict = classify(normal, with_delta2(ctx.from_rational(Fr(-3, 4))),
                           case1, None, False, False)
        assert verdict.classification is Classification.FULL_TRIANGULAR_NONABELIAN
        with pytest.raises(KovacicError, match="not rational"):
            classify(normal, with_delta2(ctx.kappa), case1, None, False, False)

    @pytest.mark.parametrize("rhos,sigma,m", [
        ((Fr(1, 2), Fr(1, 2)), Fr(0), 2),
        ((Fr(1, 3), Fr(1, 4)), Fr(-1, 2), 12),
        ((Fr(1, 2), Fr(1, 8)), Fr(-1), 8),
        ((Fr(1, 3), Fr(2)), Fr(-1, 9), 9),
        ((Fr(1), Fr(0)), Fr(-1), 1),
        ((Fr(1, 7), Fr(1, 11)), Fr(-1, 2), 154),
    ])
    def test_single_solution_power_bound(self, rhos, sigma, m):
        """One case-I solution at real exponents: y1^m is rational for m
        the lcm of the exponent denominators, so the identity component is
        abelian for every m, however large."""
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        normal, spec = delta_zero_normal(ctx)
        k = ctx.sqrt_a()
        sol = RiccatiSolution(((k, rhos[0]), (-k, rhos[1])), sigma,
                              Poly.constant(ctx, 1))
        assert sol.denominator_lcm() == m
        verdict = classify(normal, spec, [sol], None, False, False)
        assert verdict.classification is Classification.INCONCLUSIVE
        assert verdict.identity_component_abelian is True
        assert verdict.notes[0].startswith(f"y1^{m} is rational")

    def test_integrable_control_never_nonabelian(self):
        # y'' = y: case II machinery finds P = 1 (see TestSearchP), so the
        # classification must stay abelian-possible
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        normal = NormalFormODE(RatFunc.constant(ctx, 1))
        sol = search_P(normal, ECandidate((), 0, Fr(0)))
        pts = (SingularPoint(None, 4, ctx.zero, ctx.one, Fr(1), None),)
        spec = SingularitySpectrum(pts)
        verdict = classify(normal, spec, [], sol, False, None)
        assert verdict.identity_component_abelian is True
        assert verdict.classification is Classification.INCONCLUSIVE

    def test_case3_requires_rational_deltas(self):
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        normal, spec = analysis(params)
        assert not case3_possible(spec)
        params1 = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        normal1, spec1 = analysis(params1)
        assert case3_possible(spec1)

    def test_sl2_needs_pair_exclusion(self):
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        normal, spec = analysis(params)
        verdict = classify(normal, spec, [], None, False, None)
        assert verdict.classification is Classification.INCONCLUSIVE
        assert verdict.identity_component_abelian is None


# ---------------------------------------------------------------------------
# the shared P solver against the per-monomial construction it replaced
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data"
# The ten golden parameter sets that predate the seed-502 one; the oracle's
# product test alone takes several seconds there.
ORACLE_SETS = [path for path in sorted(GOLDEN.glob("*.json"))
               if path.stem != "random_hyperbolic_newton_502"]


def golden_params(path):
    data = json.loads(path.read_bytes())["params"]
    return derive_params(Space(data["space"]), Potential(data["potential"]),
                         Fr(data["strength"]), Fr(data["mu"]), Fr(data["p"]),
                         Fr(data["eps"]))


def monomial(ctx, k):
    return Poly(ctx, [ctx.zero] * k + [ctx.one])


def _gauss_solve(ctx, mat, rhs):
    """Exact least-structure solve; returns (solution, unique)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    pivots = []
    rank_row = 0
    for col in range(cols):
        piv = None
        for rr in range(rank_row, rows):
            if not aug[rr][col].is_zero():
                piv = rr
                break
        if piv is None:
            continue
        aug[rank_row], aug[piv] = aug[piv], aug[rank_row]
        inv = aug[rank_row][col].inverse()
        aug[rank_row] = [v * inv for v in aug[rank_row]]
        for rr in range(rows):
            if rr != rank_row and not aug[rr][col].is_zero():
                f = aug[rr][col]
                aug[rr] = [v - f * w for v, w in zip(aug[rr], aug[rank_row])]
        pivots.append(col)
        rank_row += 1
        if rank_row == rows:
            break
    # inconsistent?
    for rr in range(rank_row, rows):
        if not aug[rr][cols].is_zero():
            return None, False
    unique = len(pivots) == cols
    sol = [ctx.zero] * cols
    for i, col in enumerate(pivots):
        sol[col] = aug[i][cols]
    return sol, unique


def oracle_solve(operator, ctx, d):
    """(P, unique): a monic P of degree d with operator(P) = 0, or None, and
    whether it is the only one.  operator(z^k) as reduced RatFuncs for
    every k <= d, cleared over the lcm of their denominators, one row per
    power of z, solved by the dense _gauss_solve."""
    terms = [operator(monomial(ctx, k)) for k in range(d + 1)]
    if d == 0:
        return (Poly.constant(ctx, 1) if terms[0].is_zero() else None), True
    common = Poly.constant(ctx, 1)
    for t in terms:
        common = (t.den * common) // poly_gcd(common, t.den)
    numerators = [t.num * (common // t.den) for t in terms]
    rows = max(p.degree() for p in numerators) + 1
    if rows == 0:
        return monomial(ctx, d), False
    mat = [[numerators[k].coefficient(m) for k in range(d)] for m in range(rows)]
    rhs = [-numerators[d].coefficient(m) for m in range(rows)]
    sol, is_unique = _gauss_solve(ctx, mat, rhs)
    return (None if sol is None else Poly(ctx, sol + [ctx.one])), is_unique


def assert_same_solve(got, oracle, operator, d):
    """got, from _solve_P, and the dense oracle's (P, unique) agree on
    solvability; got is a monic solution of degree d, checked by
    substitution, and it is the oracle's P whenever that is unique.  A
    non-unique system may give another particular solution."""
    want, unique = oracle
    assert (got is None) == (want is None)
    if got is not None:
        assert got.degree() == d and got.leading() == got.ctx.one
        assert operator(got).is_zero()
        if unique:
            assert got == want


def oracle_case1_operator(normal, finite, rho_choice):
    """P -> P'' + 2 phi P' + (phi' + phi^2 - r) P, phi = sum rho_c/(z - c)."""
    ctx = normal.r.ctx
    phi = RatFunc.constant(ctx, 0)
    for pt, rho in zip(finite, rho_choice):
        if rho != 0:
            phi = phi + RatFunc(Poly.constant(ctx, ctx.from_rational(rho)),
                                Poly(ctx, [-pt.location, ctx.one]))
    return applied(case1_coefficients(normal, phi))


def oracle_case2_operator(normal, th):
    """P -> P''' + 3 Th P'' + (3 Th^2 + 3 Th' - 4 r) P' + Xi P."""
    return applied(case2_coefficients(normal, th))


def applied(coeffs):
    """P -> sum_j coeffs[j] P^(j)."""
    def operator(p_poly):
        out, dp = RatFunc.constant(p_poly.ctx, 0), RatFunc(p_poly)
        for a in coeffs:
            out, dp = out + a * dp, dp.derivative()
        return out
    return operator


def base_of(ctx, orders):
    """b = prod (z - c)^s, built as pair_exclusion builds it."""
    return RatFunc.over(Poly.from_roots(ctx, [(c, s) for c, s in orders if s > 0]),
                        {c: -s for c, s in orders if s < 0})


def product_theta(ctx, orders):
    """b'/b = sum s/(z - c) for b = base_of(ctx, orders)."""
    return theta(ctx, ECandidate(tuple((c, 2 * s) for c, s in orders), 0, Fr(0)))


class TestSharedSolver:
    """Case I, case II and the product test solve for P through one
    solver; it must agree with the per-monomial construction it replaced."""

    @pytest.mark.parametrize("path", ORACLE_SETS, ids=lambda path: path.stem)
    def test_symmetric_square_of_P_b_is_case2_operator(self, path):
        """L(P b) = b L_Theta(P) at Theta = b'/b for the symmetric square
        L(v) = v''' - 4 r v' - 2 r' v, with negative exponents in b."""
        params = golden_params(path)
        normal, spec = analysis(params)
        ctx = params.ctx
        rng = random.Random(path.stem)
        points = [pt.location for pt in spec.finite_points]
        for _ in range(2):
            orders = [(c, rng.randint(-1, 1)) for c in rng.sample(points, min(3, len(points)))]
            orders[0] = (orders[0][0], -1)
            b = base_of(ctx, orders)
            th = product_theta(ctx, orders)
            assert th == b.derivative() / b
            P = Poly(ctx, [ctx.from_gauss(GaussRational(Fr(rng.randint(-9, 9), rng.randint(1, 5)),
                                                        rng.randint(-3, 3)))
                           for _ in range(rng.randint(1, 4))])
            assert (symmetric_power_residual(normal, RatFunc(P) * b)
                    == b * oracle_case2_operator(normal, th)(P))

    @pytest.mark.parametrize("case", ["exponents -3, 2, 2", "seeded in [-3, 3]"])
    def test_symmetric_square_at_high_exponents(self, case):
        """The same identity at random_sphere_newton_0 with b exponents
        (-3, 2, 2) at z0, kappa and lambda, single roots of both pairs, whose
        lowest terms once took 28 s in Euclid, and with seeded exponents in
        [-3, 3]."""
        params = golden_params(GOLDEN / "random_sphere_newton_0.json")
        normal, spec = analysis(params)
        ctx = params.ctx
        points = [pt.location for pt in spec.finite_points]
        rng = random.Random(case)
        if case.startswith("exponents"):
            orders = [(params.z0_scalar(), -3), (params.kappa_value(), 2),
                      (params.lambda_value(), 2)]
        else:
            orders = [(c, rng.randint(-3, 3)) for c in rng.sample(points, 3)]
            orders[0] = (orders[0][0], -3)
        b = base_of(ctx, orders)
        th = product_theta(ctx, orders)
        assert th == b.derivative() / b
        P = Poly(ctx, [ctx.from_gauss(GaussRational(Fr(rng.randint(-9, 9), rng.randint(1, 5)),
                                                    rng.randint(-3, 3)))
                       for _ in range(3)])
        assert (symmetric_power_residual(normal, RatFunc(P) * b)
                == b * oracle_case2_operator(normal, th)(P))

    @pytest.mark.parametrize("path", ORACLE_SETS, ids=lambda path: path.stem)
    def test_agrees_with_per_monomial_oracle(self, path):
        params = golden_params(path)
        normal, spec = analysis(params)
        ctx = params.ctx
        finite = spec.finite_points
        if all(pt.exponents is not None for pt in spec.points):
            for rho_choice in itertools.product(*(pt.exponents for pt in finite)):
                for sigma in spec.infinity.exponents:
                    n = -sigma - sum(rho_choice)
                    if n < 0 or n.denominator != 1:
                        continue
                    want, unique = oracle_solve(
                        oracle_case1_operator(normal, finite, rho_choice), ctx, int(n))
                    phi = simple_pole_sum(ctx, {pt.location: rho
                                                for pt, rho in zip(finite, rho_choice)})
                    got = _solve_P(kovacic.operator(normal, phi, 1, int(n)), int(n), unique=True)
                    assert got == (want if unique else None)
        for cand in candidates(e_sets(spec)):
            th = theta(ctx, cand)
            operator = oracle_case2_operator(normal, th)
            got = search_P(normal, cand)
            assert_same_solve(got and got.P, oracle_solve(operator, ctx, int(cand.d)),
                              operator, int(cand.d))
        for cand in pair_exclusion(normal, spec).candidates:
            b = base_of(ctx, cand.base_exponents)
            n = cand.poly_degree

            def operator(p):
                return symmetric_power_residual(normal, RatFunc(p) * b)
            want = oracle_solve(operator, ctx, n)
            assert cand.solvable == (want[0] is not None)
            th = product_theta(ctx, cand.base_exponents)
            assert_same_solve(_solve_P(kovacic.operator(normal, th, 2, n), n),
                              want, operator, n)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.stem)
    def test_rigid_residual_is_b_times_xi(self, path):
        """A rigid product candidate v = b has L(b) = b Xi at Theta = b'/b,
        so its solvability and residual read Xi alone."""
        params = golden_params(path)
        normal, spec = analysis(params)
        ctx = params.ctx
        for cand in pair_exclusion(normal, spec).candidates:
            if cand.poly_degree:
                continue
            b = base_of(ctx, cand.base_exponents)
            x = xi(normal, product_theta(ctx, cand.base_exponents))
            res = symmetric_power_residual(normal, b)
            assert b * x == res
            assert cand.solvable == res.is_zero()
            if not cand.solvable:
                assert (cand.residual_num_degree, cand.residual_leading) == (
                    res.num.degree(), res.num.leading())

    @pytest.mark.parametrize("seed", range(4))
    def test_recovers_a_known_kernel(self, seed):
        """(P0 y' - P0' y)/D and (P0 y'' - P0'' y)/D kill exactly the
        multiples of P0 among polynomials when deg P0 >= 2, for
        tower-valued P0 and D."""
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        rng = random.Random(seed)

        def scalar():
            return ctx.scalar(*(GaussRational(rng.randint(-5, 5), rng.randint(-5, 5))
                                for _ in range(4)))
        # P0 and D share z - kappa, so the a_j reduce to different denominators
        P0 = (Poly.from_roots(ctx, [(ctx.kappa, 1)])
              * Poly(ctx, [scalar() for _ in range(rng.randint(2, 5))]))
        D = Poly.from_roots(ctx, [(ctx.kappa, rng.randint(1, 2)), (-ctx.lam, 1),
                                  (ctx.from_rational(Fr(1, 3)), rng.randint(0, 2))])
        over_d = RatFunc(Poly.constant(ctx, 1), D)
        first = [RatFunc(-P0.derivative()) * over_d, RatFunc(P0) * over_d]
        second = [RatFunc(-P0.derivative().derivative()) * over_d,
                  RatFunc.constant(ctx, 0), RatFunc(P0) * over_d]
        for coeffs in (first, second):
            assert _solve_P(coeffs, P0.degree(), unique=True) == P0.monic()
            assert _solve_P(coeffs, P0.degree() + 1) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_indicial_roots_below_d_against_the_dense_oracle(self, seed):
        """The Wronskian operator L(y) = W(y, P1, P2)/D, whose kernel is
        spanned by P1 and P2 (deg P1 < deg P2), has its indicial roots at
        infinity at both degrees.  At deg P2 the system is consistent but
        leaves the coefficient of z^deg P1 free: not unique, so case I's
        unique=True refuses it, and any monic solution may come back.  At
        deg P1 it is unique, at deg P2 + 1 and with a perturbed order-0
        coefficient it is inconsistent, and d = 0 is solvable exactly when
        P1 is constant.  Every answer agrees with the dense oracle."""
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        rng = random.Random(seed)

        def scalar():
            return ctx.scalar(*(GaussRational(rng.randint(-5, 5), rng.randint(-5, 5))
                                for _ in range(4)))

        def poly(deg):
            return Poly(ctx, [scalar() for _ in range(deg)] + [ctx.one + ctx.one])
        d1 = rng.randint(0, 2)
        d2 = rng.randint(max(d1 + 1, 4 - d1), d1 + 4)
        P1, P2 = poly(d1), poly(d2)
        D = Poly.from_roots(ctx, [(ctx.kappa, rng.randint(0, 2)), (-ctx.lam, 1)])
        over_d = RatFunc(Poly.constant(ctx, 1), D)
        d_ = Poly.derivative
        coeffs = [RatFunc(d_(P1) * d_(d_(P2)) - d_(d_(P1)) * d_(P2)) * over_d,
                  RatFunc(d_(d_(P1)) * P2 - P1 * d_(d_(P2))) * over_d,
                  RatFunc(P1 * d_(P2) - d_(P1) * P2) * over_d]
        # one degree below A_0's top, d1 + d2 - 3, so the indicial roots stay
        bump = RatFunc(Poly(ctx, [ctx.zero] * (d1 + d2 - 4) + [scalar()])) * over_d
        perturbed = [coeffs[0] + bump] + coeffs[1:]
        for cs, d, want in ((coeffs, d2, "free"), (coeffs, d1, "unique"),
                            (coeffs, d2 + 1, None), (perturbed, d2, None),
                            (coeffs, 0, "unique" if d1 == 0 else None)):
            oracle = oracle_solve(applied(cs), ctx, d)
            assert (oracle[0] is not None) == (want is not None)
            if want is not None:
                assert oracle[1] == (want == "unique")
            got = _solve_P(cs, d)
            assert_same_solve(got, oracle, applied(cs), d)
            assert _solve_P(cs, d, unique=True) == (got if want == "unique" else None)
        assert _solve_P(coeffs, d1, unique=True) == P1.monic()

    def test_annihilated_degree_is_free(self):
        # L = 0 annihilates every P: any monic P solves it, none uniquely
        ctx = TowerContext(GaussRational(2), GaussRational(3))
        zero = RatFunc.constant(ctx, 0)
        assert _solve_P([zero, zero], 0) == Poly.constant(ctx, 1)
        assert _solve_P([zero, zero], 2) == monomial(ctx, 2)
        assert _solve_P([zero, zero], 2, unique=True) is None


def operator_sources():
    """(name, normal, spec) for the goldens, a seeded set and a mu = 1 set
    per space and potential, the collapsed contexts and the Kimura rows."""
    for path in sorted(GOLDEN.glob("*.json")):
        yield (path.stem, *analysis(golden_params(path)))
    for space, pot in ALL_CASES:
        rng = random.Random(f"operator-{space.value}-{pot.value}")
        for mu_one in (False, True):
            yield (f"{space.value}-{pot.value}-mu1={mu_one}",
                   *analysis(random_admissible_params(space, pot, rng, mu_one=mu_one)))
        yield (f"{space.value}-{pot.value}-collapsed",
               *analysis(derive_params(space, pot, *COLLAPSED[(space, pot)])))
    for row, (diffs, kappa2, *_) in enumerate(KIMURA_ROWS):
        yield (f"kimura-{row}", *riemann_normal(*diffs, kappa2))


class TestKovacicOperator:
    """kovacic.operator, Kovacic's recursion, against the operators of case
    I and case II written out in oracles.py."""

    def test_equals_the_written_out_operators(self):
        """Every Theta of a case-II candidate or a product base, and every
        phi of a rational case-I assignment, over operator_sources."""
        thetas = phis = 0
        for name, normal, spec in operator_sources():
            ctx = normal.r.ctx
            tuples = {cand.finite for cand in candidates(e_sets(spec))}
            tuples |= {tuple((c, 2 * s) for c, s in cand.base_exponents)
                       for cand in pair_exclusion(normal, spec).candidates}
            for finite in tuples:
                th = theta(ctx, ECandidate(finite, 0, Fr(0)))
                assert kovacic.operator(normal, th, 2, 3) == case2_coefficients(normal, th), name
                thetas += 1
            finite = spec.finite_points
            if any(pt.exponents is None for pt in spec.points):
                continue
            for rho_choice in itertools.product(*(pt.exponents for pt in finite)):
                phi = simple_pole_sum(ctx, {pt.location: rho
                                            for pt, rho in zip(finite, rho_choice)})
                assert kovacic.operator(normal, phi, 1, 2) == case1_coefficients(normal, phi), name
                phis += 1
        assert thetas >= 50 and phis >= 70

    @pytest.mark.parametrize("n", [1, 2])
    def test_degree_d_reads_the_first_columns(self, n):
        """At degree d the builder gives the first min(d, n + 1) + 1
        coefficients of the full operator, fresh or grown in place."""
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        normal, spec = analysis(params)
        th = theta(params.ctx, candidates(e_sets(spec))[0])
        full = kovacic.operator(normal, th, n, n + 1)
        assert len(full) == n + 2 and full[-1] == RatFunc.constant(params.ctx, 1)
        rows = [[] for _ in range(n + 1)]
        for d in range(5):
            want = full[:min(d, n + 1) + 1]
            assert kovacic.operator(normal, th, n, d) == want
            assert kovacic.operator(normal, th, n, d, rows) == want
            assert len(rows[0]) == len(want)

    def test_case1_refuses_a_P_that_fails_its_equation(self, monkeypatch):
        """case1_search substitutes each P back into case I's operator: the
        Riemann equation of RIEMANN_OMEGA, whose P has degree 2, with P + 1
        in place of P."""
        normal, spec = riemann_normal(Fr(1, 3), Fr(1, 5), Fr(67, 15), 1)
        assert [sol.P.degree() for sol in case1_search(normal, spec)] == [2]
        solve = kovacic._solve_P

        def shifted(coeffs, d, unique=False):
            p_poly = solve(coeffs, d, unique)
            return None if p_poly is None else p_poly + Poly.constant(p_poly.ctx, 1)
        monkeypatch.setattr(kovacic, "_solve_P", shifted)
        with pytest.raises(KovacicError, match="fails the case-I equation"):
            case1_search(normal, spec)
