import dataclasses
import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvedtwobody.certify import _gauge_log_derivative
from curvedtwobody.exactfield import GaussRational
from curvedtwobody.linode import FirstOrderSystem, reduce_to_second_order, to_normal_form
from curvedtwobody.dynamics import StepFailure, integrate, vector_field
from curvedtwobody.models import (DegenerateParameters,
                                  HamiltonianKind, HypothesisViolated,
                                  ModelError, NotMu1,
                                  Potential, Space, build_system,
                                  candidate_poles, closed_form_r, derive_params,
                                  detect_poles, gauge_log_derivative, hamiltonian,
                                  lemma_condition, mu1_solutions, potential,
                                  random_admissible_params)
from curvedtwobody.ratcalc import Poly, RatFunc, simple_pole_sum
from conftest import reference_params
from oracles import (central_motion_hamiltonian, free_part_s1, free_part_s2,
                     gamma_curve_identity, gamma_restriction)

ALL_CASES = [(Space.SPHERE, Potential.NEWTON),
             (Space.HYPERBOLIC, Potential.NEWTON),
             (Space.SPHERE, Potential.OSCILLATOR),
             (Space.HYPERBOLIC, Potential.OSCILLATOR)]


# (strength, mu, p, eps) with kappa or lambda Gaussian: sphere Newton has
# kappa^2 = 2i and lambda^2 = -2i, the others kappa^2 = 4, kappa^2 = 1 and
# lambda^2 = 1
COLLAPSED = {(Space.SPHERE, Potential.NEWTON): (Fr(1, 2), Fr(1, 2), 1, 0),
             (Space.HYPERBOLIC, Potential.NEWTON): (1, Fr(1, 2), 1, 3),
             (Space.SPHERE, Potential.OSCILLATOR): (1, Fr(1, 2), 1, Fr(1, 2)),
             (Space.HYPERBOLIC, Potential.OSCILLATOR): (1, Fr(1, 2), 1, 1)}


def normal_r(params):
    return to_normal_form(reduce_to_second_order(build_system(params))).r


def every_evaluator(space, pot):
    """Each numeric Hamiltonian on the 5-dim chart for a reference set: the
    full one with and without the potential, and the tests' two free parts
    and central motion."""
    params = reference_params(space, pot)
    full = HamiltonianKind.FULL_SPHERE if space is Space.SPHERE \
        else HamiltonianKind.FULL_HYPERBOLIC
    return [hamiltonian(full, params), hamiltonian(full, params, include_potential=False),
            free_part_s1(params), free_part_s2(params),
            central_motion_hamiltonian(params)]


def gamma_restrictions(space, pot):
    """The tests' geodesic restriction on (theta, p_theta), with and without
    the potential, as (value, grad) pairs."""
    params = reference_params(space, pot)
    return [gamma_restriction(params), gamma_restriction(params, include_potential=False)]


class TestDeriveParams:
    def test_spherical_newton_reference(self):
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, Fr(1, 2), 1, 0)
        assert params.kappa2 == GaussRational(0, Fr(1, 2))
        assert params.lambda2 == GaussRational(0, Fr(-1, 2))
        assert params.z0 == Fr(1, 4)

    def test_hyperbolic_newton_reference(self):
        params = derive_params(Space.HYPERBOLIC, Potential.NEWTON, 1, Fr(1, 2), 1, -2)
        assert params.kappa2 == GaussRational(-1)
        assert params.lambda2 == GaussRational(-3)
        assert params.z0 == Fr(1, 2)

    def test_oscillator_lambda_collision(self):
        with pytest.raises(DegenerateParameters):
            derive_params(Space.HYPERBOLIC, Potential.OSCILLATOR, 1, Fr(1, 2), 1, 0)

    @pytest.mark.parametrize("kwargs", [
        dict(strength=0, mu=Fr(1, 2), p=1, eps=0),
        dict(strength=1, mu=0, p=1, eps=0),
        dict(strength=1, mu=Fr(1, 2), p=0, eps=0),
    ])
    def test_guards(self, kwargs):
        with pytest.raises(DegenerateParameters):
            derive_params(Space.SPHERE, Potential.NEWTON, **kwargs)

    def test_string_rationals_accepted(self):
        params = derive_params(Space.SPHERE, Potential.NEWTON, "2", "1/2", "1", "0")
        assert params.mu == Fr(1, 2)

    def test_decimal_rejected(self):
        with pytest.raises(TypeError):
            derive_params(Space.SPHERE, Potential.NEWTON, 2.0, 0.5, 1, 0)



class TestBuildSystem:
    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_c_vanishes_at_z0(self, space, pot):
        params = reference_params(space, pot)
        sysz = build_system(params)
        assert sysz.C.evaluate(params.z0_scalar()).is_zero()

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_gamma_curve_identity(self, space, pot):
        assert gamma_curve_identity(reference_params(space, pot))

    def test_weight_only_for_oscillator(self):
        assert build_system(reference_params(Space.SPHERE, Potential.NEWTON)).weight is None
        assert build_system(reference_params(Space.SPHERE, Potential.OSCILLATOR)).weight is not None


class TestClosedFormGauge:
    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_equals_the_log_derivatives(self, space, pot):
        """h in closed form is C'/(2C) [+ f'/(4f)] read off the system, on
        the reference, three seeded sets, two mu = 1 sets and a set whose
        kappa or lambda is Gaussian."""
        rng = random.Random(f"gauge-{space.value}-{pot.value}")
        sets = [reference_params(space, pot)]
        sets += [random_admissible_params(space, pot, rng) for _ in range(3)]
        sets += [random_admissible_params(space, pot, rng, mu_one=True) for _ in range(2)]
        sets.append(derive_params(space, pot, *COLLAPSED[(space, pot)]))
        for params in sets:
            h = gauge_log_derivative(params)
            assert h == _gauge_log_derivative(build_system(params), params.ctx)
            assert h.roots == dict.fromkeys(candidate_poles(params), 1)


class TestClosedFormTables:
    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_pipeline_identity_reference(self, space, pot):
        params = reference_params(space, pot)
        table = closed_form_r(params)
        assert normal_r(params) == table.reconstruct(params.ctx)

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_pipeline_identity_random(self, space, pot):
        """Three seeded sets, a mu = 1 set, where most entries cancel, and a
        set whose kappa or lambda is Gaussian, so the tower collapses."""
        rng = random.Random(f"{space}{pot}")
        sets = [random_admissible_params(space, pot, rng) for _ in range(3)]
        sets.append(random_admissible_params(space, pot, rng, mu_one=True))
        collapsed = derive_params(space, pot, *COLLAPSED[(space, pot)])
        assert (collapsed.kappa_value().is_gauss_value() is not None
                or collapsed.lambda_value().is_gauss_value() is not None)
        for params in sets + [collapsed]:
            assert normal_r(params) == closed_form_r(params).reconstruct(params.ctx)

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_residues_sum_to_zero(self, space, pot):
        """r = O(z^-2) at infinity, so the beta_j sum to zero, at mu = 1 too."""
        rng = random.Random(f"residues-{space.value}-{pot.value}")
        for params in (reference_params(space, pot),
                       random_admissible_params(space, pot, rng, mu_one=True)):
            r = normal_r(params)
            assert r.num.degree() <= r.den_degree() - 2
            total = params.ctx.zero
            for beta in closed_form_r(params).betas:
                total = total + beta
            assert total.is_zero()

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_reconstruct_is_the_pairwise_sum(self, space, pot):
        """reconstruct against sum alpha_j/(z-c_j)^2 + beta_j/(z-c_j) added
        term by term, on the reference, two seeded sets and a mu = 1 set."""
        rng = random.Random(f"table-{space.value}-{pot.value}")
        sets = [reference_params(space, pot),
                random_admissible_params(space, pot, rng),
                random_admissible_params(space, pot, rng),
                random_admissible_params(space, pot, rng, mu_one=True)]
        for params in sets:
            ctx = params.ctx
            table = closed_form_r(params)
            total = RatFunc.constant(ctx, 0)
            for c, alpha, beta in zip(table.poles, table.alphas, table.betas):
                lin = RatFunc(Poly(ctx, [-c, ctx.one]))
                total = (total + RatFunc(Poly(ctx, [alpha])) / (lin * lin)
                         + RatFunc(Poly(ctx, [beta])) / lin)
            assert table.reconstruct(ctx) == total

    def test_unpaired_poles_are_refused(self):
        table = closed_form_r(reference_params(Space.SPHERE, Potential.NEWTON))
        poles = list(table.poles)
        poles[2] = poles[1]
        with pytest.raises(ModelError):
            dataclasses.replace(table, poles=tuple(poles))

    def test_oscillator_fixed_alphas(self):
        for space in Space:
            params = reference_params(space, Potential.OSCILLATOR)
            table = closed_form_r(params)
            ctx = params.ctx
            assert table.alphas[0] == ctx.from_rational(Fr(3, 4))
            assert table.alphas[3] == ctx.from_rational(Fr(-3, 16))
            assert table.alphas[4] == ctx.from_rational(Fr(-3, 16))

    def test_mu1_newton_single_term(self):
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        r = normal_r(params)
        assert detect_poles(params, r) == [(params.z0_scalar(), 2)]
        lin = RatFunc.x(params.ctx) - RatFunc.constant(params.ctx, params.z0)
        assert r == RatFunc.constant(params.ctx, Fr(3, 4)) / (lin * lin)

    @pytest.mark.parametrize("outside", [{7: 1}, {Fr(1, 3): 2, -5: 1}])
    def test_detect_poles_refuses_a_pole_outside_the_table(self, outside):
        # a simple pole at 7; a double pole at 1/3 beside a simple one at -5
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        ctx = params.ctx
        extra = RatFunc.over(Poly.constant(ctx, 1),
                             {ctx.from_rational(c): e for c, e in outside.items()})
        with pytest.raises(DegenerateParameters) as info:
            detect_poles(params, normal_r(params) + extra)
        assert info.value.guard == "den(r) has factors outside the closed-form poles"

    def test_newton_partial_fractions_match_table(self):
        """The pipeline r is the table's sum of partial fractions, with the
        table's alpha_j as its leading coefficients, cross-checked against a
        numeric series oracle."""
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        r = normal_r(params)
        poles = detect_poles(params, r)
        assert len(poles) == 5 and all(m == 2 for _, m in poles)
        table = closed_form_r(params)
        assert r == table.reconstruct(params.ctx)
        for j, pole in enumerate(table.poles):
            assert r.polar_leading(pole) == table.alphas[j]
        # numeric circle-average oracle at the first kappa pole
        pole = table.poles[1]
        c = pole.embed_complex((1, 1))
        h = 1e-5
        for order, expected in ((2, table.alphas[1]), (1, table.betas[1])):
            acc = 0j
            npts = 8
            for jj in range(npts):
                w = complex(math.cos(2 * math.pi * jj / npts),
                            math.sin(2 * math.pi * jj / npts))
                acc += r.embed_complex(c + h * w) * (h * w) ** order
            got = acc / npts
            assert abs(got - expected.embed_complex((1, 1))) < 1e-3

    def test_alpha1_alternative_closed_form(self):
        """The compact alpha_1 form
        (mu^2-1)/4 - (mu-1) p mu^2 (2/kappa + p(1-mu)/(kappa^2 alpha))/(4 alpha)
        agrees numerically with the canonical table entry."""
        rng = random.Random(101)
        for _ in range(10):
            params = random_admissible_params(Space.SPHERE, Potential.NEWTON, rng)
            table = closed_form_r(params)
            a, mu, p = map(float, (params.strength, params.mu, params.p))
            k = params.kappa_value().embed_complex((1, 1))
            k2 = complex(params.kappa2.re) + 1j * complex(params.kappa2.im)
            alt = (mu * mu - 1) / 4 - (mu - 1) / (4 * a) * p * mu * mu \
                * (2 / k + p * (1 - mu) / (k2 * a))
            got = table.alphas[1].embed_complex((1, 1))
            assert abs(got - alt) < 1e-9 * max(1.0, abs(alt))

    def test_log_derivative_of_c_partial_fractions(self):
        """C'/C has residue +1 at z0 and -1 at each of +-kappa, +-lambda
        (simple poles of the logarithmic derivative)."""
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        sysz = build_system(params)
        z, one = RatFunc.x(params.ctx), RatFunc.constant(params.ctx, 1)
        want = one / (z - RatFunc.constant(params.ctx, params.z0))
        for c in candidate_poles(params)[1:]:
            want = want - one / (z - RatFunc(Poly.constant(params.ctx, c)))
        assert sysz.C.derivative() / sysz.C == want

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_z0_formulas_agree(self, space, pot):
        params = reference_params(space, pot)
        d = params.kappa2 - params.lambda2
        pg = GaussRational(params.p)
        if pot is Potential.NEWTON:
            alt = pg * d / GaussRational(0, 4) if space is Space.SPHERE \
                else pg * d / GaussRational(4)
            assert alt == GaussRational(params.z0)


# ---------------------------------------------------------------------------
# oracles: the TowerScalar / RatFunc constructions the Gaussian ones replace
# ---------------------------------------------------------------------------


def oracle_system(params):
    """build_system from RatFunc sums and products of 1/(lead prod (z - c))."""
    ctx = params.ctx
    s, mu, p = params.strength, params.mu, params.p
    k, lam = params.kappa_value(), params.lambda_value()
    z = RatFunc.x(ctx)
    one = Poly.constant(ctx, 1)

    def const(q):
        return RatFunc.constant(ctx, q)

    def reciprocal(poly, *roots):
        return RatFunc.over(Poly.constant(ctx, poly.leading().inverse()),
                            dict.fromkeys(roots, 1))

    sign = 1 if params.space is Space.SPHERE else -1
    lin = const(s) * z + const((2 - mu) * p)
    c_num = const(s) * z - const(mu * p)
    eps = params.eps
    fp = Poly.from_rationals(ctx, [-eps, 0, s / (2 * mu)] if params.potential is Potential.NEWTON
                             else [2 * eps, 0, -s / mu])
    if params.potential is Potential.NEWTON:
        inv_den = reciprocal(fp * fp + Poly.constant(ctx, sign), k, -k, lam, -lam)
        return FirstOrderSystem(A=const(p) * RatFunc(fp) * inv_den,
                                B=const(p / mu) - const(sign) * lin * inv_den,
                                C=c_num * inv_den, weight=None)
    inv_f = reciprocal(fp, lam, -lam)
    inv_den = inv_f * reciprocal(fp + one if sign == 1 else one - fp, k, -k)
    return FirstOrderSystem(A=const(p) * inv_den,
                            B=const(p / mu) * inv_f * inv_f - const(sign) * lin * inv_den,
                            C=c_num * inv_den, weight=RatFunc(fp))


def fraction_system(params):
    """build_system from its closed-form coefficients in Fraction
    arithmetic, each list over its lcm by Poly.from_rationals."""
    ctx = params.ctx
    s, mu, p, eps = params.strength, params.mu, params.p, params.eps
    k, lam = params.kappa_value(), params.lambda_value()
    sign = 1 if params.space is Space.SPHERE else -1

    def over(coeffs, roots):
        return RatFunc.over(Poly.from_rationals(ctx, coeffs), roots)

    if params.potential is Potential.NEWTON:
        t = 2 * mu / s
        t2, roots = t * t, dict.fromkeys((k, -k, lam, -lam), 1)
        return FirstOrderSystem(
            A=over([-p * eps * t2, 0, p * t], roots),
            B=over([p * t2 * ((eps * eps + sign) / mu - sign * (2 - mu)), -2 * sign * mu * t,
                    -2 * p * eps * t / mu, 0, p / mu], roots),
            C=over([-mu * p * t2, 2 * mu * t], roots), weight=None)

    q = mu / s
    q2, roots = q * q, dict.fromkeys((lam, -lam, k, -k), 1)
    sign_eps = 2 * sign * eps
    return FirstOrderSystem(
        A=over([sign * p * q2], roots),
        B=over([-sign * p * q2 * q * ((1 + sign_eps) / mu - sign_eps * (2 - mu)),
                2 * eps * mu * q2, p * q2 * (mu - 1) ** 2 / mu, -mu * q],
               {lam: 2, -lam: 2, k: 1, -k: 1}),
        C=over([-sign * mu * p * q2, sign * mu * q], roots),
        weight=RatFunc(Poly.from_rationals(ctx, [2 * eps, 0, -s / mu])))


def oracle_gauge(params):
    """h as simple_pole_sum over the five linear roots."""
    w = Fr(-1, 2) if params.potential is Potential.NEWTON else Fr(-1, 4)
    weights = (Fr(1, 2), Fr(-1, 2), Fr(-1, 2), w, w)
    return simple_pole_sum(params.ctx, dict(zip(candidate_poles(params), weights)))


def oracle_table(params):
    """(poles, alphas, betas, T): every entry a TowerScalar, each pair
    (e + c o, e - c o) with c o a tower product, and T summed from the
    pairs' u2, u1, u0, v1, v0 formed by TowerScalar products."""
    ctx, mu, z0, g = params.ctx, params.mu, params.z0, GaussRational
    k2, l2 = params.kappa2, params.lambda2
    m = 2 if params.potential is Potential.NEWTON else 1

    def pair(c, even, odd):
        e, o = ctx.from_gauss(even), c * ctx.from_gauss(odd)
        return e + o, e - o

    def alpha(c, c2):
        return pair(c, g((mu * mu - 1) / 4) + g((mu - 1) ** 2 * z0 * z0 / 4) / c2,
                    g(-mu * (mu - 1) * z0 / 2) / c2)

    def beta(c, c2, o2):
        d = c2 - o2
        num = g((mu - 1) ** 2 * z0 * z0) * (g(2 * m + 1) * c2 - o2) \
            + g(mu * mu - 1) * c2 * (g(2 * m - 1) * c2 + o2)
        return pair(c, g(m * mu * (mu - 1) * z0) / d, -num / (g(4) * d * c2 * c2))

    poles = tuple(candidate_poles(params))
    k, lam = poles[1], poles[3]
    head = (ctx.from_rational(Fr(3, 4)), *alpha(k, k2))
    if params.potential is Potential.NEWTON:
        alphas = (*head, *alpha(lam, l2))
        betas = (ctx.zero, *beta(k, k2, l2), *beta(lam, l2, k2))
    else:
        w, d = g(Fr(3, 4)) / (g(z0 * z0) - l2), l2 - k2
        odd = w - (g(8 * (mu - 1) ** 2 * z0 * z0) + g(9) * k2 + g(8 * mu * mu - 17) * l2) \
            / (g(16) * l2 * d)
        a34 = ctx.from_rational(Fr(-3, 16))
        alphas = (*head, a34, a34)
        betas = (ctx.from_gauss(g(-2 * z0) * w), *beta(k, k2, l2),
                 *pair(lam, w * g(z0) + g(mu * (mu - 1) * z0) / d, odd))
    z0s, one = poles[0], ctx.one
    num = Poly(ctx, [alphas[0] - betas[0] * z0s, betas[0]])
    den = Poly(ctx, [z0s * z0s, -(z0s + z0s), one])
    for j in (1, 3):
        c, ap, am, bp, bm = poles[j], alphas[j], alphas[j + 1], betas[j], betas[j + 1]
        u2, c2 = ap + am, c * c
        u1, u0, v1, v0 = (c + c) * (ap - am), c2 * u2, bp + bm, c * (bp - bm)
        quad = Poly(ctx, [-c2, ctx.zero, one])
        quad = quad * quad
        part = Poly(ctx, [u0 - v0 * c2, u1 - v1 * c2, u2 + v0, v1])
        num, den = num * quad + part * den, den * quad
    return poles, alphas, betas, RatFunc.over(num, {c: 2 for c in poles})


def small_fractions(lo, hi, max_den):
    return st.builds(Fr, st.integers(lo, hi), st.integers(1, max_den))


@st.composite
def oracle_params(draw):
    """A parameter set passing every guard: generic, or with kappa^2 a
    square in Q(i) ("square"), or with lambda^2/kappa^2 one ("ratio"), so
    that lambda is a Gaussian multiple of kappa; mu = 1 about one time in
    four."""
    space, pot = draw(st.sampled_from(ALL_CASES))
    kind = draw(st.sampled_from(["generic", "square", "ratio"]))
    s = draw(small_fractions(1, 9, 4))
    mu = draw(st.one_of(st.just(Fr(1)), small_fractions(1, 9, 6),
                        small_fractions(1, 9, 6), small_fractions(1, 9, 6)))
    p = draw(small_fractions(-6, 6, 4).filter(bool))
    t = draw(small_fractions(1, 7, 5))
    sign = draw(st.sampled_from([1, -1]))
    side = 1 if space is Space.SPHERE else -1
    newton = pot is Potential.NEWTON
    if kind == "generic":
        eps = draw(small_fractions(-9, 9, 5))
    elif kind == "square":
        if newton and space is Space.SPHERE:
            # kappa^2 = (t + i y)^2 with 2 t y = 2 mu/s
            y = mu / (s * t)
            eps = (t * t - y * y) * s / (2 * mu)
        elif newton:
            eps = sign * t * t * s / (2 * mu) - 1
        else:
            eps = (sign * t * t * s / mu - side) / 2
    else:
        st2 = sign * t * t
        assume(st2 != 1)
        if newton and space is Space.SPHERE:
            # (eps - i)/(eps + i) = (eps - i)^2/(eps^2 + 1), eps^2 + 1 a square
            eps = (1 - t * t) / (2 * t)
        elif newton:
            eps = (1 + st2) / (1 - st2)
        else:
            eps = side * st2 / (2 * (1 - st2))
    try:
        params = derive_params(space, pot, s, mu, p, eps)
    except DegenerateParameters:
        assume(False)
    lam = params.lambda_value()
    if kind == "square":
        assert params.kappa_value().is_gauss_value() is not None
    if kind == "ratio":
        assert lam.c01.is_zero() and lam.c11.is_zero()
    return params


def assert_same_ratfunc(got, want):
    """== on the stored forms, then equal lowest-terms num and roots."""
    assert got == want
    assert got.num == want.num
    assert got.roots == want.roots


def assert_system_matches_oracles(params):
    """build_system against oracle_system and fraction_system."""
    got = build_system(params)
    for want in (oracle_system(params), fraction_system(params)):
        for name in ("A", "B", "C"):
            assert_same_ratfunc(getattr(got, name), getattr(want, name))
        assert (got.weight is None) == (want.weight is None)
        if want.weight is not None:
            assert_same_ratfunc(got.weight, want.weight)


# (strength, mu, p, eps) at the edges of build_system's integer forms: the
# sign of 2 - mu, of p and of the denominator m md (mu < 0), mu = 1 and
# eps = 0.  eps = 0 is pinned for Newton only: it makes the oscillator's
# lambda^2 = 2 k eps/n zero, which derive_params refuses.
PINNED_SYSTEM_SETS = {
    "eps=0": (Fr(3, 2), Fr(2, 5), Fr(3, 4), 0),
    "p<0": (Fr(5, 3), Fr(3, 7), Fr(-7, 2), Fr(-5, 3)),
    "mu=1": (Fr(2, 3), 1, Fr(5, 2), Fr(-7, 4)),
    "mu>2": (Fr(3, 4), Fr(7, 2), Fr(3, 5), Fr(-9, 4)),
    "mu<0": (Fr(5, 2), Fr(-3, 4), Fr(2, 3), Fr(-5, 2)),
}
PINNED_SYSTEM_CASES = [
    pytest.param(space, pot, values, id=f"{space.value}-{pot.value}-{name}")
    for space, pot in ALL_CASES for name, values in PINNED_SYSTEM_SETS.items()
    if not (pot is Potential.OSCILLATOR and name == "eps=0")]


class TestGaussianConstructionsMatchOracles:
    """The system, the gauge h and the table built in Q(i) are the
    TowerScalar and RatFunc constructions they replace."""

    @given(oracle_params())
    @settings(max_examples=150, deadline=None)
    def test_system(self, params):
        assert_system_matches_oracles(params)

    @pytest.mark.parametrize("space,pot,values", PINNED_SYSTEM_CASES)
    def test_system_pinned(self, space, pot, values):
        assert_system_matches_oracles(derive_params(space, pot, *values))

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_the_maps_share_the_pole_objects(self, space, pot):
        """Every root of the system's, h's and the table's exponent maps
        is one of the objects candidate_poles returns, on every call."""
        params = derive_params(space, pot, *PINNED_SYSTEM_SETS["mu>2"])
        poles = candidate_poles(params)
        assert all(c is d for c, d in zip(poles, candidate_poles(params)))
        system = build_system(params)
        for f in (system.A, system.B, system.C, gauge_log_derivative(params),
                  closed_form_r(params).reconstruct(params.ctx)):
            assert all(any(c is pole for pole in poles) for c in f._roots)

    def test_oscillator_eps_zero_is_refused(self):
        for space in Space:
            with pytest.raises(DegenerateParameters):
                derive_params(space, Potential.OSCILLATOR, *PINNED_SYSTEM_SETS["eps=0"])

    @given(oracle_params())
    @settings(max_examples=150, deadline=None)
    def test_gauge(self, params):
        assert_same_ratfunc(gauge_log_derivative(params), oracle_gauge(params))

    @given(oracle_params())
    @settings(max_examples=150, deadline=None)
    def test_table(self, params):
        table = closed_form_r(params)
        poles, alphas, betas, want = oracle_table(params)
        assert table.poles == poles
        assert table.alphas == alphas
        assert table.betas == betas
        assert_same_ratfunc(table.reconstruct(params.ctx), want)


class TestLemmaConditions:
    def test_lemma1_holds_at_reference(self):
        report = lemma_condition(reference_params(Space.SPHERE, Potential.NEWTON))
        assert report.lemma == 1 and report.hypotheses_hold
        assert report.all_nonreal
        assert len(report.alphas) == 4

    def test_lemma2_hyperbolic(self):
        report = lemma_condition(reference_params(Space.HYPERBOLIC, Potential.NEWTON))
        assert report.lemma == 2 and report.hypotheses_hold
        assert report.all_nonreal
        # kappa = i is exactly representable, so alpha_1,2 are decided exactly
        # and the Im alpha_1 = -Im alpha_2 identity is verified
        assert report.identity_checked
        assert report.alphas[0].exact and report.alphas[1].exact

    def test_lemma3_oscillator(self):
        for space in Space:
            report = lemma_condition(reference_params(space, Potential.OSCILLATOR))
            assert report.lemma == 3 and report.hypotheses_hold
            assert report.all_nonreal

    def test_lemma3_exact_identity_with_kappa_in_iq(self):
        # mu=1/2, beta=1, eps=-3/2 gives kappa^2 = -1, kappa = i in iQ
        params = derive_params(Space.SPHERE, Potential.OSCILLATOR,
                               1, Fr(1, 2), 1, Fr(-3, 2))
        report = lemma_condition(params)
        assert report.hypotheses_hold and report.all_nonreal
        assert report.identity_checked
        assert report.alphas[0].exact and report.alphas[1].exact

    def test_lemma1_violation_witness(self):
        # (sqrt(eps^2+1)-eps)(eps^2+1) = (mu-1)^2 p^2/(4 alpha mu) at
        # eps=0, mu=1/2, alpha=1/2, p=2: both sides equal 1 exactly
        with pytest.raises(HypothesisViolated) as err:
            lemma_condition(derive_params(Space.SPHERE, Potential.NEWTON,
                                          Fr(1, 2), Fr(1, 2), 2, 0))
        assert any("(mu-1)^2" in f or "equals" in f for f in err.value.failures)

    def test_lemma2_hypothesis_violation(self):
        with pytest.raises(HypothesisViolated):
            lemma_condition(derive_params(Space.HYPERBOLIC, Potential.NEWTON,
                                          1, Fr(1, 2), 1, 2))

    def test_mu1_is_a_violation(self):
        with pytest.raises(HypothesisViolated):
            lemma_condition(derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0))


class TestMu1Solutions:
    def test_newton_forms(self):
        from curvedtwobody.ratcalc import Poly, RatFunc
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        om1, om2 = mu1_solutions(params)
        ctx = params.ctx
        z0 = params.z0_scalar()
        pole = RatFunc(Poly(ctx, [-z0, ctx.one]))
        assert om1 == RatFunc.constant(ctx, Fr(3, 2)) / pole
        assert om2 == RatFunc.constant(ctx, Fr(-1, 2)) / pole

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_riccati_exact(self, space, pot):
        kw = dict(strength=1, mu=1, p=1, eps=-2)
        if (space, pot) == (Space.SPHERE, Potential.NEWTON):
            kw = dict(strength=2, mu=1, p=1, eps=0)
        params = derive_params(space, pot, **kw)
        r = normal_r(params)
        for om in mu1_solutions(params):
            assert (om.derivative() + om * om - r).is_zero()

    def test_requires_mu1(self):
        with pytest.raises(NotMu1):
            mu1_solutions(reference_params(Space.SPHERE, Potential.NEWTON))


class TestHamiltonians:
    def test_gamma_restriction_value(self):
        """On p0 = p, p1 = p2 = 0 the full Hamiltonian, with and without the
        potential, is p_theta^2/(2 mu) + p p_theta + V bit for bit, and its
        gradient's theta and p_theta entries are the restriction's."""
        rng = random.Random(5)
        for space, pot in ALL_CASES:
            params = reference_params(space, pot)
            kind = HamiltonianKind.FULL_SPHERE if space is Space.SPHERE \
                else HamiltonianKind.FULL_HYPERBOLIC
            p = float(params.p)
            for include_potential in (True, False):
                h = hamiltonian(kind, params, include_potential=include_potential)
                value, grad = gamma_restriction(params, include_potential)
                for _ in range(25):
                    theta, pt = rng.uniform(0.3, 1.2), rng.uniform(-1, 1)
                    x = (theta, pt, p, 0.0, 0.0)
                    assert h.value(x) == value((theta, pt))
                    assert h.grad(x)[:2] == grad((theta, pt))
                    assert h.grad(x)[3:] == (0.0, 0.0)

    def test_full_sphere_matches_sum_of_parts(self):
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params)
        h1 = free_part_s1(params)
        h2 = free_part_s2(params)
        value = potential(params)[0]
        rng = random.Random(3)
        for _ in range(20):
            x = (rng.uniform(0.3, 2.8), rng.uniform(-1, 1), rng.uniform(-1, 1),
                 rng.uniform(-1, 1), rng.uniform(-1, 1))
            total = h1.value(x) + h2.value(x) + value(x[0])
            assert abs(h.value(x) - total) < 1e-12

    def test_mu1_alternative_form(self):
        # the (p_theta+p0)^2/2 + (p1 sin + p2 cos)^2/(2 sin^2) + V form equals
        # the simplified h_s plus the Casimir constant gamma^2/2
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params)
        value = potential(params)[0]
        rng = random.Random(11)
        for _ in range(30):
            x = (rng.uniform(0.3, 2.8), rng.uniform(-1, 1), rng.uniform(-1, 1),
                 rng.uniform(-1, 1), rng.uniform(-1, 1))
            theta, pt, p0, p1, p2 = x
            sn, cs = math.sin(theta), math.cos(theta)
            alt = (0.5 * (pt + p0) ** 2
                   + (p1 * sn + p2 * cs) ** 2 / (2 * sn * sn)
                   + value(theta))
            casimir_half = 0.5 * (p0 * p0 + p1 * p1 + p2 * p2)
            assert abs(alt - (h.value(x) + casimir_half)) < 1e-12

    def test_gradient_against_finite_differences(self):
        """grad against central differences of value, for every evaluator."""
        rng = random.Random(23)
        for space, pot in ALL_CASES:
            evaluators = [(h.value, h.grad, 5) for h in every_evaluator(space, pot)]
            evaluators += [(value, grad, 2) for value, grad in gamma_restrictions(space, pot)]
            for value, grad, dim in evaluators:
                for _ in range(25):
                    x = [rng.uniform(0.4, 1.2)] + [rng.uniform(-1, 1)
                                                   for _ in range(dim - 1)]
                    g = grad(tuple(x))
                    assert len(g) == dim
                    eps = 1e-6
                    for k in range(dim):
                        xp = list(x)
                        xm = list(x)
                        xp[k] += eps
                        xm[k] -= eps
                        fd = (value(tuple(xp)) - value(tuple(xm))) / (2 * eps)
                        scale = max(1.0, abs(g[k]))
                        assert abs(g[k] - fd) / scale < 1e-6, (space, pot, dim, k)

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_off_the_chart_every_evaluator(self, space, pot):
        """A state off the chart raises StepFailure from grad and value, and
        on the 5-dim chart with the same text from vector_field and
        integrate; on H^2 the chart ends where sinh theta falls below 1e-12,
        as on S^2 where sin theta does."""
        thetas = (0.0, -0.5, 1e-13, 1e-300) if space is Space.HYPERBOLIC \
            else (0.0, -0.5, math.pi, 3.5, 1e-13)
        for value, grad in gamma_restrictions(space, pot):
            for theta in thetas:
                with pytest.raises(StepFailure, match="outside") as grad_exc:
                    grad((theta, 0.1))
                with pytest.raises(StepFailure) as value_exc:
                    value((theta, 0.1))
                assert str(value_exc.value) == str(grad_exc.value)
        for h in every_evaluator(space, pot):
            for theta in thetas:
                x = (theta,) + (0.1,) * 4
                with pytest.raises(StepFailure, match="outside") as grad_exc:
                    h.grad(x)
                with pytest.raises(StepFailure) as value_exc:
                    h.value(x)
                message = str(grad_exc.value)
                assert str(value_exc.value) == message
                with pytest.raises(StepFailure) as field_exc:
                    vector_field(h, x)
                assert str(field_exc.value) == message
                with pytest.raises(StepFailure) as run_exc:
                    integrate(h, x, 1.0)
                assert str(run_exc.value).endswith(message)

    def test_domain_error(self):
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params)
        with pytest.raises(StepFailure):
            h.value((0.0, 0, 0, 0, 0))
        with pytest.raises(StepFailure):
            h.value((math.pi, 0, 0, 0, 0))

    @pytest.mark.parametrize("kind,space", [
        (HamiltonianKind.FULL_SPHERE, Space.HYPERBOLIC),
        (HamiltonianKind.FULL_HYPERBOLIC, Space.SPHERE)])
    def test_kind_needs_its_space(self, kind, space):
        with pytest.raises(ModelError, match=f"^{kind.value} needs "):
            hamiltonian(kind, reference_params(space, Potential.NEWTON))

    def test_candidate_poles_count(self):
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        assert len(candidate_poles(params)) == 5
