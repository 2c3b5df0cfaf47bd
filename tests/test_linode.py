from fractions import Fraction as Fr

import pytest

from curvedtwobody.certify import _gauge_log_derivative
from curvedtwobody.exactfield import GaussRational, TowerContext
from curvedtwobody.linode import (FirstOrderSystem, NonFuchsianEquation,
                                  NormalFormODE, SecondOrderODE, ZeroCoefficient,
                                  normal_form, reduce_to_second_order,
                                  singularity_spectrum, to_normal_form,
                                  verify_gauge_transform)
from curvedtwobody.models import (Potential, Space, build_system, detect_poles,
                                  gauge_log_derivative, random_admissible_params)
from curvedtwobody.ratcalc import (BadFactorization, Poly,
                                  RatFunc)
from conftest import reference_params
from oracles import symmetric_power_residual


def G(re, im=0):
    return GaussRational(Fr(re), Fr(im))


CTX = TowerContext(G(2), G(3))

ALL_CASES = [(space, pot) for space in Space for pot in Potential]


def const(q):
    return RatFunc.constant(CTX, q)


class TestReduceToSecondOrder:
    def test_constant_coefficients(self):
        # p1' = p2, p2' = p1  =>  p2'' = p2
        sysz = FirstOrderSystem(A=const(0), B=const(1), C=const(1))
        ode = reduce_to_second_order(sysz)
        assert ode.p.is_zero()
        assert ode.q == const(-1)

    def test_zero_c_rejected(self):
        with pytest.raises(ZeroCoefficient):
            reduce_to_second_order(FirstOrderSystem(A=const(0), B=const(1), C=const(0)))

    def test_newton_pole_set(self):
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        ode = reduce_to_second_order(build_system(params))
        for f in (ode.p, ode.q):
            deg = f.den.degree()
            found = 0
            for c in [params.z0_scalar(), params.kappa_value(),
                      -params.kappa_value(), params.lambda_value(),
                      -params.lambda_value()]:
                den, lin = f.den, Poly(f.ctx, [-c, f.ctx.one])
                while True:
                    q, rem = den.divmod(lin)
                    if not rem.is_zero():
                        break
                    den, found = q, found + 1
            assert found == deg

    def test_oscillator_weight_folded_in(self):
        """Independent oracle: numeric differentiation of the raw A, B, C, f
        functions reproduces the exact p and q at sample points."""
        import mpmath as mp
        mp.mp.dps = 40
        params = reference_params(Space.SPHERE, Potential.OSCILLATOR)
        sysz = build_system(params)
        ode = reduce_to_second_order(sysz)
        beta, mu, p = map(float, (params.strength, params.mu, params.p))
        two_eps = 2 * float(params.eps)

        def f(z):
            return -beta * z ** 2 / mu + two_eps

        def den(z):
            return f(z) * (f(z) + 1)

        def A(z):
            return p / den(z)

        def B(z):
            return p / (mu * f(z) ** 2) - (beta * z + (2 - mu) * p) / den(z)

        def C(z):
            return (beta * z - mu * p) / den(z)

        for zz in [mp.mpc("0.31", "0.4"), mp.mpc("-1.2", "0.9"), mp.mpc("2.3", "-0.1")]:
            g = mp.diff(C, zz) / C(zz) + mp.diff(f, zz) / (2 * f(zz))
            q_oracle = -(g * A(zz) + A(zz) ** 2 + C(zz) * B(zz) * f(zz) - mp.diff(A, zz))
            p_oracle = -g
            zpt = complex(zz)
            assert abs(complex(ode.p.embed_complex(zpt)) - complex(p_oracle)) < 1e-12
            assert abs(complex(ode.q.embed_complex(zpt)) - complex(q_oracle)) < 1e-12


class TestToNormalForm:
    def test_constant(self):
        ode = SecondOrderODE(p=const(0), q=const(-1))
        assert to_normal_form(ode).r == const(1)

    def test_mu1_newton(self):
        from curvedtwobody.models import derive_params
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, 1, 1, 0)
        r = to_normal_form(reduce_to_second_order(build_system(params))).r
        ctx = params.ctx
        z0 = params.z0_scalar()
        expected = RatFunc(Poly.constant(ctx, ctx.from_rational(Fr(3, 4))),
                           Poly.from_roots(ctx, [(z0, 2)]))
        assert r == expected

    def test_mu1_oscillator_display(self):
        from curvedtwobody.models import derive_params
        params = derive_params(Space.SPHERE, Potential.OSCILLATOR, 1, 1, 1, -1)
        r = to_normal_form(reduce_to_second_order(build_system(params))).r
        ctx = params.ctx
        l2 = ctx.from_gauss(params.lambda2)
        z0 = ctx.from_rational(params.z0)
        z = RatFunc.x(ctx)
        lc = RatFunc(Poly.constant(ctx, l2))
        z0c = RatFunc(Poly.constant(ctx, z0))
        c34 = RatFunc.constant(ctx, Fr(3, 4))
        two = RatFunc.constant(ctx, 2)
        num = (z0c * z0c - two * lc) * z * z + two * lc * z0c * z \
            + lc * (lc - two * z0c * z0c)
        den = (z - z0c) * (z - z0c) * (z * z - lc) * (z * z - lc)
        assert r == c34 * num / den


class TestVerifyGaugeTransform:
    def test_identity_gauge(self):
        r = const(Fr(5, 7))
        ode = SecondOrderODE(p=const(0), q=-r)
        assert verify_gauge_transform(NormalFormODE(r), ode, const(0))

    @pytest.mark.parametrize("space,pot", [
        (Space.SPHERE, Potential.NEWTON),
        (Space.HYPERBOLIC, Potential.NEWTON),
        (Space.SPHERE, Potential.OSCILLATOR),
        (Space.HYPERBOLIC, Potential.OSCILLATOR),
    ])
    def test_model_gauges(self, space, pot):
        params = reference_params(space, pot)
        sysz = build_system(params)
        ode = reduce_to_second_order(sysz)
        normal = to_normal_form(ode)
        ctx = params.ctx
        h = quotient_gauge(sysz)
        assert verify_gauge_transform(normal, ode, h)
        # gauge scaling by a constant leaves the log derivative unchanged,
        # so the verdict is trivially stable; a perturbed r must fail
        perturbed = NormalFormODE(normal.r + RatFunc.constant(ctx, 1))
        assert not verify_gauge_transform(perturbed, ode, h)


def quotient_gauge(system):
    """h = C'/(2C) [+ f'/(4f)], each f'/f formed as the quotient f'/f."""
    ctx = system.C.ctx
    h = RatFunc.constant(ctx, Fr(1, 2)) * system.C.derivative() / system.C
    if system.weight is not None:
        f = system.weight
        h = h + RatFunc.constant(ctx, Fr(1, 4)) * f.derivative() / f
    return h


def riccati_cases():
    """(label, params): the four references, two seeded sets and a mu = 1
    set of each space x potential."""
    import random
    for space, pot in ALL_CASES:
        yield f"{space.value}-{pot.value}-reference", reference_params(space, pot)
        rng = random.Random(f"riccati-{space.value}-{pot.value}")
        for j in range(2):
            yield f"{space.value}-{pot.value}-seeded-{j}", random_admissible_params(space, pot, rng)
        yield (f"{space.value}-{pot.value}-mu1",
               random_admissible_params(space, pot, rng, mu_one=True))


RICCATI_CASES = dict(riccati_cases())


class TestRiccatiNormalForm:
    def test_constant_coefficients(self):
        sysz = FirstOrderSystem(A=const(0), B=const(1), C=const(1))
        assert normal_form(sysz, const(0)).r == const(1)

    @pytest.mark.parametrize("label", RICCATI_CASES)
    def test_equals_the_elimination(self, label):
        """(A + h)^2 - (A + h)' + C B [f] is to_normal_form's r of the
        elimination, exactly and with the same numerator."""
        system = build_system(RICCATI_CASES[label])
        r = normal_form(system, quotient_gauge(system)).r
        want = to_normal_form(reduce_to_second_order(system)).r
        assert r == want and r.num == want.num

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_gauge_check_compares_two_derivations(self, space, pot):
        """The gauge check accepts the Riccati r against the elimination and
        refuses it plus 1/(z - z0)."""
        params = reference_params(space, pot)
        system = build_system(params)
        h = quotient_gauge(system)
        normal = normal_form(system, h)
        ode = reduce_to_second_order(system)
        assert verify_gauge_transform(normal, ode, h)
        ctx = params.ctx
        shift = RatFunc(Poly.constant(ctx, 1), Poly.from_roots(ctx, [(params.z0_scalar(), 1)]))
        assert not verify_gauge_transform(NormalFormODE(normal.r + shift), ode, h)


class TestGaugeComparison:
    """certify decides the gauge check by comparing h with
    _gauge_log_derivative (2h + p = 0); the elimination's full check is its
    oracle."""

    @pytest.mark.parametrize("shifted", [False, True], ids=["closed-form-h", "shifted-h"])
    @pytest.mark.parametrize("label", RICCATI_CASES)
    def test_agrees_with_the_elimination(self, label, shifted):
        """With h = models.gauge_log_derivative both verdicts are true; with
        h + 1/(z - z0), and r from normal_form under that h, both are
        false."""
        params = RICCATI_CASES[label]
        system = build_system(params)
        h = gauge_log_derivative(params)
        if shifted:
            h = h + RatFunc(Poly.constant(params.ctx, 1),
                            Poly.from_roots(params.ctx, [(params.z0_scalar(), 1)]))
        full = verify_gauge_transform(normal_form(system, h),
                                      reduce_to_second_order(system), h)
        assert (_gauge_log_derivative(system, params.ctx) == h) is full is (not shifted)


class TestSingularitySpectrum:
    def test_newton_spectrum(self):
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        r = to_normal_form(reduce_to_second_order(build_system(params))).r
        spec = singularity_spectrum(NormalFormODE(r), detect_poles(params, r))
        assert len(spec.points) == 6
        assert all(pt.order == 2 for pt in spec.points)
        z0pt = next(pt for pt in spec.finite_points
                    if pt.location == params.z0_scalar())
        assert z0pt.delta_rational == 2
        assert spec.infinity.delta_rational == 2
        assert set(spec.infinity.exponents) == {Fr(1, 2), Fr(-3, 2)}
        nonrat = [pt for pt in spec.finite_points if pt.delta_rational is None]
        assert len(nonrat) == 4
        for pt in nonrat:
            assert abs(pt.delta_squared.embed_complex((1, 1)).imag) > 1e-9

    def test_oscillator_lambda_points(self):
        params = reference_params(Space.SPHERE, Potential.OSCILLATOR)
        r = to_normal_form(reduce_to_second_order(build_system(params))).r
        spec = singularity_spectrum(NormalFormODE(r), detect_poles(params, r))
        ctx = params.ctx
        for loc in (params.lambda_value(), -params.lambda_value()):
            pt = next(q for q in spec.finite_points if q.location == loc)
            assert pt.alpha == ctx.from_rational(Fr(-3, 16))
            assert pt.delta_rational == Fr(1, 2)
            assert set(pt.exponents) == {Fr(1, 4), Fr(3, 4)}
        assert spec.infinity.order == 0
        assert set(spec.infinity.exponents) == {Fr(0), Fr(-1)}

    @pytest.mark.parametrize("space,pot", [
        (Space.SPHERE, Potential.NEWTON),
        (Space.SPHERE, Potential.OSCILLATOR),
        (Space.HYPERBOLIC, Potential.NEWTON),
        (Space.HYPERBOLIC, Potential.OSCILLATOR),
    ])
    def test_exponent_sums(self, space, pot):
        params = reference_params(space, pot)
        r = to_normal_form(reduce_to_second_order(build_system(params))).r
        spec = singularity_spectrum(NormalFormODE(r), detect_poles(params, r))
        for pt in spec.finite_points:
            if pt.exponents is not None:
                assert pt.exponents[0] + pt.exponents[1] == 1
        assert sum(spec.infinity.exponents) == -1

    @pytest.mark.parametrize("space,pot", [
        (Space.SPHERE, Potential.NEWTON),
        (Space.SPHERE, Potential.OSCILLATOR),
        (Space.HYPERBOLIC, Potential.NEWTON),
        (Space.HYPERBOLIC, Potential.OSCILLATOR),
    ])
    def test_infinity_moment_consistency(self, space, pot):
        """The partial-fraction data must reproduce the stated behavior of r
        at infinity: 3/(4z^2)+O(z^-3) for Newton, O(z^-4) for the oscillator."""
        from curvedtwobody.models import closed_form_r
        params = reference_params(space, pot)
        table = closed_form_r(params)
        ctx = params.ctx
        zero = ctx.zero
        beta_sum = zero
        second = zero
        third = zero
        for pole, alpha, beta in zip(table.poles, table.alphas, table.betas):
            beta_sum = beta_sum + beta
            second = second + alpha + beta * pole
            third = third + ctx.from_rational(2) * alpha * pole + beta * pole * pole
        assert beta_sum.is_zero()
        if pot is Potential.NEWTON:
            assert second == ctx.from_rational(Fr(3, 4))
        else:
            assert second.is_zero()
            assert third.is_zero()
            r = to_normal_form(reduce_to_second_order(build_system(params))).r
            assert r.den.degree() - r.num.degree() >= 4

    def test_wrong_pole_list_rejected(self):
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        r = to_normal_form(reduce_to_second_order(build_system(params))).r
        poles = detect_poles(params, r)
        seven = params.ctx.from_rational(7)
        for wrong in (poles[1:], [(c, 1) for c, _ in poles], poles + [(seven, 1)]):
            with pytest.raises(BadFactorization):
                singularity_spectrum(NormalFormODE(r), wrong)
        with pytest.raises(BadFactorization):
            singularity_spectrum(NormalFormODE(const(0)), [(CTX.one, 1)])

    def test_non_fuchsian_rejected(self):
        r = const(1)  # y'' = y has an irregular point at infinity (order 4)
        with pytest.raises(NonFuchsianEquation):
            singularity_spectrum(NormalFormODE(r), [])


class TestSymmetricPowerResidual:
    def test_mu1_product_solution(self):
        ctx = CTX
        z0 = ctx.from_rational(Fr(1, 4))
        r = RatFunc(Poly.constant(ctx, ctx.from_rational(Fr(3, 4))),
                    Poly.from_roots(ctx, [(z0, 2)]))
        v = RatFunc(Poly(ctx, [-z0, ctx.one]))
        assert symmetric_power_residual(NormalFormODE(r), v).is_zero()

    def test_zero_function(self):
        r = const(Fr(3, 4))
        assert symmetric_power_residual(NormalFormODE(r), const(0)).is_zero()

    def test_newton_candidate_nonzero(self):
        params = reference_params(Space.SPHERE, Potential.NEWTON)
        r = to_normal_form(reduce_to_second_order(build_system(params))).r
        ctx = params.ctx
        k = params.kappa_value()
        lam = params.lambda_value()
        num = Poly.from_roots(ctx, [(k, 1), (-k, 1), (lam, 1), (-lam, 1)])
        den = Poly.from_roots(ctx, [(params.z0_scalar(), 1)])
        v = RatFunc(num, den)
        res = symmetric_power_residual(NormalFormODE(r), v)
        assert not res.is_zero()
        assert res.num.degree() == 6

    def test_riccati_pair_annihilates(self):
        """Solutions with rational log derivatives omega1, omega2 satisfying
        the Riccati equation give v = exp(int(omega1+omega2)) killing the
        second symmetric power (checked with the mu=1 oscillator data)."""
        from curvedtwobody.models import derive_params, mu1_solutions
        params = derive_params(Space.SPHERE, Potential.OSCILLATOR, 1, 1, 1, -1)
        r = to_normal_form(reduce_to_second_order(build_system(params))).r
        om1, om2 = mu1_solutions(params)
        ctx = params.ctx
        # v = (z^2-l^2)(z0 z - l^2)/(z - z0) realizes omega1+omega2 as v'/v
        l2 = ctx.from_gauss(params.lambda2)
        z0 = ctx.from_rational(params.z0)
        num = Poly(ctx, [-l2, ctx.zero, ctx.one]) * Poly(ctx, [-l2, z0])
        den = Poly(ctx, [-z0, ctx.one])
        v = RatFunc(num, den)
        assert v.derivative() / v == om1 + om2
        assert symmetric_power_residual(NormalFormODE(r), v).is_zero()
