"""Acceptance suite: every exit criterion with its stated tolerance.

Criterion 4 compares the oscillator Xi numerator with the paper's display
read in factored form,

    sign 2p(k^2-l^2)^2 [(2mu+1) z^2 - sign 4p(mu-1)(k^2-l^2) z
                        + 2p^2(mu-1)(k^2-l^2)^2 - 3k^2],

where sign is +1 on the sphere and -1 on the hyperbolic plane, and the
common prefactor applies to the constant term as well as to the z^2 and
z^1 terms.  Leaving the prefactor off the constant is wrong on
three independent counts:

* eliminating p1 from p1' = A p1 + B sqrt(f) p2, p2' = C sqrt(f) p1 - A p2
  by hand in sympy (without linode or kovacic), then forming r and Xi,
  gives the constants 5/8 (sphere) and -17/8 (hyperbolic) at the
  references, where 2p(k^2-l^2)^2 = 1/2 and the constant without the
  prefactor, sign (2p^2(mu-1)(k^2-l^2)^2 - 3k^2), is 5/4 resp. -17/4;
* at random admissible oscillator parameters the computed constant equals
  the prefactor times the bracket constant, never the constant without
  the prefactor (test_criterion4_oscillator_xi_corrected checks the whole
  factored numerator at seeded random parameters);
* with p of weight 1, k^2 and l^2 of weight -2 and z of weight -1 (so the
  poles z0, +-k, +-l scale like z), the z^2 term, the z^1 term and the
  prefactored constant all have weight -5; the constant without it has
  weight -2.
"""
import math
import random
from fractions import Fraction as Fr

import pytest

from curvedtwobody import kovacic, models
from curvedtwobody.certify import (CONCLUSION_CERTIFIED,
                                   CONCLUSION_NO_OBSTRUCTION, RunConfig,
                                   certify, render_report)
from curvedtwobody.dynamics import (IntegrationOptions, bound_field,
                                    gamma_trajectory, integrate)
from curvedtwobody.exactfield import GaussRational
from curvedtwobody.linode import (NormalFormODE, reduce_to_second_order,
                                  singularity_spectrum, to_normal_form)
from curvedtwobody.models import (HamiltonianKind, Potential, Space, build_system,
                                  closed_form_r, derive_params, detect_poles,
                                  hamiltonian, lemma_condition, mu1_solutions,
                                  random_admissible_params)
from curvedtwobody.ratcalc import Poly, RatFunc
from conftest import REFERENCE_PARAMETERS, reference_params
from oracles import (central_motion_hamiltonian, free_part_s1, free_part_s2,
                     symmetric_power_residual)

ALL_CASES = [(Space.SPHERE, Potential.NEWTON),
             (Space.HYPERBOLIC, Potential.NEWTON),
             (Space.SPHERE, Potential.OSCILLATOR),
             (Space.HYPERBOLIC, Potential.OSCILLATOR)]

MU1_REFERENCE = {
    (Space.SPHERE, Potential.NEWTON): dict(strength=2, mu=1, p=1, eps=0),
    (Space.HYPERBOLIC, Potential.NEWTON): dict(strength=1, mu=1, p=1, eps=-2),
    (Space.SPHERE, Potential.OSCILLATOR): dict(strength=1, mu=1, p=1, eps=-1),
    (Space.HYPERBOLIC, Potential.OSCILLATOR): dict(strength=1, mu=1, p=1, eps=-1),
}


def normal_form(params):
    r = to_normal_form(reduce_to_second_order(build_system(params))).r
    return NormalFormODE(r)


def spectrum_of(params, normal):
    return singularity_spectrum(normal, detect_poles(params, normal.r))


# --------------------------------------------------------------------------
# criterion 1
# --------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=1)
@pytest.mark.parametrize("space,pot", ALL_CASES)
def test_criterion1_table_equivalence(space, pot):
    rng = random.Random(f"acceptance-1-{space.value}-{pot.value}")
    checked = 0
    while checked < 20:
        params = random_admissible_params(space, pot, rng)
        r = normal_form(params).r
        assert r == closed_form_r(params).reconstruct(params.ctx), \
            f"table mismatch at {params}"
        checked += 1
    assert checked >= 20


# --------------------------------------------------------------------------
# criterion 2
# --------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=2)
@pytest.mark.parametrize("space", list(Space))
def test_criterion2_newton_spectra(space):
    params = reference_params(space, Potential.NEWTON)
    spec = spectrum_of(params, normal_form(params))
    assert len(spec.points) == 6
    assert all(pt.order == 2 for pt in spec.points)
    z0pt = next(pt for pt in spec.finite_points
                if pt.location == params.z0_scalar())
    assert z0pt.delta_rational == 2
    assert spec.infinity.delta_rational == 2
    assert set(spec.infinity.exponents) == {Fr(-3, 2), Fr(1, 2)}


# --------------------------------------------------------------------------
# criterion 3
# --------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=3)
@pytest.mark.parametrize("space", list(Space))
def test_criterion3_newton_candidates(space):
    params = reference_params(space, Potential.NEWTON)
    spec = spectrum_of(params, normal_form(params))
    menus = kovacic.e_sets(spec)
    z0 = params.z0_scalar()
    for pt, menu in menus:
        if pt.is_infinity or pt.location == z0:
            assert set(menu) == {-2, 2, 6}
        else:
            assert set(menu) == {2}
    cands = kovacic.candidates(menus)
    assert len(cands) == 1
    assert cands[0].d == 0
    assert cands[0].e_infinity == 6
    assert dict(cands[0].finite)[z0] == -2


@pytest.mark.acceptance(criterion=3)
@pytest.mark.parametrize("space", list(Space))
def test_criterion3_oscillator_candidates(space):
    params = reference_params(space, Potential.OSCILLATOR)
    spec = spectrum_of(params, normal_form(params))
    menus = kovacic.e_sets(spec)
    lam = params.lambda_value()
    for pt, menu in menus:
        if pt.is_infinity:
            assert set(menu) == {0, 2, 4}
        elif pt.location in (lam, -lam):
            assert set(menu) == {1, 2, 3}
        elif pt.location == params.z0_scalar():
            assert set(menu) == {-2, 2, 6}
        else:
            assert set(menu) == {2}
    cands = kovacic.candidates(menus)
    assert len(cands) == 1
    cand = cands[0]
    assert cand.d == 0 and cand.e_infinity == 4
    es = dict(cand.finite)
    assert es[params.z0_scalar()] == -2
    assert es[lam] == 1 and es[-lam] == 1
    assert es[params.kappa_value()] == 2 and es[-params.kappa_value()] == 2


# --------------------------------------------------------------------------
# criterion 4
# --------------------------------------------------------------------------


def xi_for(params):
    normal = normal_form(params)
    spec = spectrum_of(params, normal)
    cand = kovacic.candidates(kovacic.e_sets(spec))[0]
    return kovacic.xi(normal, kovacic.theta(params.ctx, cand))


@pytest.mark.acceptance(criterion=4)
@pytest.mark.parametrize("space", list(Space))
def test_criterion4_newton_xi_leading(space):
    params = reference_params(space, Potential.NEWTON)
    x = xi_for(params)
    assert x.num.degree() == 6
    ctx = params.ctx
    k2 = ctx.from_gauss(params.kappa2)
    l2 = ctx.from_gauss(params.lambda2)
    pc = ctx.from_rational(params.p)
    if space is Space.SPHERE:
        expected = ctx.from_gauss(GaussRational(0, 3)) * (k2 - l2) * pc
    else:
        expected = ctx.from_rational(3) * (l2 - k2) * pc
    assert x.num.leading() == expected


def oscillator_display_terms(params):
    """(z^2, z^1, z^0) coefficients of the displayed oscillator Xi numerator,
    the prefactor sign 2p(k^2-l^2)^2 times the bracket (module docstring)."""
    ctx = params.ctx
    c = ctx.from_rational
    k2 = ctx.from_gauss(params.kappa2)
    l2 = ctx.from_gauss(params.lambda2)
    d = k2 - l2
    mu, p = params.mu, params.p
    sign = 1 if params.space is Space.SPHERE else -1
    prefactor = c(sign * 2 * p) * d * d
    z2 = prefactor * c(2 * mu + 1)
    z1 = prefactor * c(-sign * 4 * p * (mu - 1)) * d
    z0 = prefactor * (c(2 * p * p * (mu - 1)) * d * d - c(3) * k2)
    return z2, z1, z0


def oscillator_xi_den(params):
    """(z^2 - l^2)(z - z0)^2(z^2 - k^2)^2, the denominator of the oscillator Xi."""
    lam = params.lambda_value()
    k = params.kappa_value()
    return Poly.from_roots(
        params.ctx, [(lam, 1), (-lam, 1), (params.z0_scalar(), 2),
                     (k, 2), (-k, 2)])


@pytest.mark.acceptance(criterion=4)
@pytest.mark.parametrize("space", list(Space))
def test_criterion4_oscillator_xi_literal_display(space):
    """Exact equality of all three numerator coefficients against the
    display, transcribed in factored form."""
    params = reference_params(space, Potential.OSCILLATOR)
    x = xi_for(params)
    z2, z1, z0 = oscillator_display_terms(params)
    assert x.num.degree() == 2
    assert x.num.coefficient(2) == z2
    assert x.num.coefficient(1) == z1
    assert x.num.coefficient(0) == z0


@pytest.mark.acceptance(criterion=4)
@pytest.mark.parametrize("space", list(Space))
def test_criterion4_oscillator_xi_corrected(space):
    """Xi does not vanish at the reference, and the factored display is an
    identity in the parameters: it holds at random admissible parameters
    for the candidate e = (-2 at z0, 2 at +-kappa, 1 at +-lambda; 4)."""
    params = reference_params(space, Potential.OSCILLATOR)
    x = xi_for(params)
    assert not x.is_zero()
    assert x.num.degree() == 2
    assert x.den == oscillator_xi_den(params)
    rng = random.Random(f"acceptance-4-{space.value}")
    for _ in range(8):
        params = random_admissible_params(space, Potential.OSCILLATOR, rng)
        ctx = params.ctx
        k, lam = params.kappa_value(), params.lambda_value()
        cand = kovacic.ECandidate(
            finite=((params.z0_scalar(), -2), (k, 2), (-k, 2),
                    (lam, 1), (-lam, 1)),
            e_infinity=4, d=Fr(0))
        x = kovacic.xi(normal_form(params), kovacic.theta(ctx, cand))
        z2, z1, z0 = oscillator_display_terms(params)
        assert x == RatFunc(Poly(ctx, [z0, z1, z2]), oscillator_xi_den(params)), \
            f"factored display mismatch at {params}"


# --------------------------------------------------------------------------
# criterion 5
# --------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=5)
@pytest.mark.parametrize("space", list(Space))
def test_criterion5_product_candidate_residual(space):
    params = reference_params(space, Potential.NEWTON)
    normal = normal_form(params)
    ctx = params.ctx
    k = params.kappa_value()
    lam = params.lambda_value()
    v = RatFunc(Poly.from_roots(ctx, [(k, 1), (-k, 1), (lam, 1), (-lam, 1)]),
                Poly.from_roots(ctx, [(params.z0_scalar(), 1)]))
    res = symmetric_power_residual(normal, v)
    assert not res.is_zero()
    # recompute and record the leading coefficient by our own expansion:
    # residual = Xi * v exactly, so it inherits Xi's numerator
    x = xi_for(params)
    assert res == x * v
    assert res.num.degree() == 6
    k2 = ctx.from_gauss(params.kappa2)
    l2 = ctx.from_gauss(params.lambda2)
    pc = ctx.from_rational(params.p)
    if space is Space.SPHERE:
        recomputed = ctx.from_gauss(GaussRational(0, 3)) * (k2 - l2) * pc
    else:
        recomputed = ctx.from_rational(3) * (l2 - k2) * pc
    assert res.num.leading() == recomputed
    # denominator shape (z-z0)^3 (z^2-kappa^2)(z^2-lambda^2)
    expected_den = Poly.from_roots(
        ctx, [(params.z0_scalar(), 3), (k, 1), (-k, 1), (lam, 1), (-lam, 1)])
    assert res.den == expected_den
    # and the pair-exclusion sweep flags exactly this single rigid candidate
    spec = spectrum_of(params, normal)
    pair = kovacic.pair_exclusion(normal, spec)
    assert pair.excluded
    rigid = [c for c in pair.candidates if c.poly_degree == 0]
    assert len(rigid) == 1 and not rigid[0].solvable


# --------------------------------------------------------------------------
# criterion 6
# --------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=6)
@pytest.mark.parametrize("space,pot", ALL_CASES)
def test_criterion6_mu1_degeneration(space, pot):
    params = derive_params(space, pot, **MU1_REFERENCE[(space, pot)])
    normal = normal_form(params)
    spec = spectrum_of(params, normal)
    sols = kovacic.case1_search(normal, spec)
    assert len(sols) == 2
    om1, om2 = mu1_solutions(params)
    assert {s.render_omega() for s in sols} == {om1.render(), om2.render()}
    cfg = RunConfig(space=space, potential=pot,
                    strength=Fr(MU1_REFERENCE[(space, pot)]["strength"]),
                    mu=Fr(1), p=Fr(1),
                    eps=Fr(MU1_REFERENCE[(space, pot)]["eps"]),
                    identity_samples=0)
    cert = certify(cfg)
    assert cert.conclusion == CONCLUSION_NO_OBSTRUCTION
    assert cert.verdict["identity_component_abelian"] is True


# --------------------------------------------------------------------------
# criterion 7
# --------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=7)
@pytest.mark.parametrize("space,pot", ALL_CASES)
def test_criterion7_reality_lemmas(space, pot):
    params = reference_params(space, pot)
    report = lemma_condition(params)
    assert report.hypotheses_hold
    assert report.all_nonreal
    for a in report.alphas:
        if a.exact:
            assert a.imag_part != 0
        else:
            assert abs(a.imag_float) > 1e-9


# --------------------------------------------------------------------------
# criterion 8
# --------------------------------------------------------------------------

BOUNDED_ORBITS = [
    (Space.SPHERE, Potential.NEWTON,
     dict(strength=Fr(1, 4), mu=Fr(1, 2), p=Fr(1, 10), eps=Fr(0)),
     (1.4, 0.02, 0.08, 0.04, 0.45)),
    (Space.HYPERBOLIC, Potential.NEWTON,
     dict(strength=Fr(1, 2), mu=Fr(1, 2), p=Fr(1, 10), eps=Fr(-2)),
     (1.3, 0.0, 0.02, 0.0, 0.3)),
    (Space.SPHERE, Potential.OSCILLATOR,
     dict(strength=Fr(1, 4), mu=Fr(1, 2), p=Fr(1, 10), eps=Fr(1)),
     (1.0, 0.05, 0.1, 0.05, 0.3)),
    (Space.HYPERBOLIC, Potential.OSCILLATOR,
     dict(strength=Fr(1, 2), mu=Fr(1, 2), p=Fr(1, 10), eps=Fr(1, 4)),
     (0.7, 0.0, 0.02, 0.0, 0.15)),
]


def drift(integral, states):
    """The largest relative change of integral over states from its value
    at the first, as integrate measures the energy's drift."""
    v0 = integral(states[0])
    return max(abs(integral(x) - v0) / max(abs(v0), 1e-30) for x in states)


@pytest.mark.acceptance(criterion=8)
@pytest.mark.parametrize("space,pot,kw,x0", BOUNDED_ORBITS)
def test_criterion8_bounded_orbit_drift(space, pot, kw, x0):
    params = derive_params(space, pot, **kw)
    kind = HamiltonianKind.FULL_SPHERE if space is Space.SPHERE \
        else HamiltonianKind.FULL_HYPERBOLIC
    h = hamiltonian(kind, params)
    rep = integrate(h, x0, 100.0,
                    IntegrationOptions(step=1e-3, sample_every=5000,
                                       casimir_abort=None))
    assert rep.energy_drift < 1e-8
    assert rep.casimir_drift < 1e-10


@pytest.mark.acceptance(criterion=8)
def test_criterion8_free_motion_split():
    params = derive_params(Space.SPHERE, Potential.NEWTON,
                           Fr(1, 4), Fr(1, 2), Fr(1, 10), 0)
    h = hamiltonian(HamiltonianKind.FULL_SPHERE, params, include_potential=False)
    h1 = free_part_s1(params)
    h2 = free_part_s2(params)
    rep = integrate(h, (1.5, 0.02, 0.05, 0.02, 0.25), 100.0,
                    IntegrationOptions(step=1e-3, sample_every=1,
                                       casimir_abort=None))
    assert drift(h1.value, rep.states) < 1e-8
    assert drift(h2.value, rep.states) < 1e-8
    assert rep.energy_drift < 1e-8
    assert rep.casimir_drift < 1e-10


@pytest.mark.acceptance(criterion=8)
def test_criterion8_central_motion_p2():
    params = derive_params(Space.SPHERE, Potential.NEWTON,
                           Fr(1, 4), Fr(1, 2), Fr(1, 10), 0)
    h = central_motion_hamiltonian(params)
    rep = integrate(h, (1.2, 0.1, 0.2, 0.1, 0.3), 100.0,
                    IntegrationOptions(step=1e-3, sample_every=1,
                                       casimir_abort=None))
    assert drift(lambda s: s[4], rep.states) < 1e-8
    assert rep.energy_drift < 1e-8


@pytest.mark.acceptance(criterion=8)
@pytest.mark.parametrize("space,pot,kw,x0,integral", [
    (Space.SPHERE, Potential.OSCILLATOR,
     dict(strength=Fr(1, 4), mu=Fr(1), p=Fr(1, 10), eps=Fr(1)),
     (0.9, 0.0, 0.02, 0.0, 0.3),
     lambda s: s[3] * math.sin(s[0]) + s[4] * math.cos(s[0])),
    (Space.HYPERBOLIC, Potential.NEWTON,
     dict(strength=Fr(1, 2), mu=Fr(1), p=Fr(1, 10), eps=Fr(-2)),
     (1.3, 0.0, 0.02, 0.0, 0.3),
     lambda s: s[3] * math.sinh(s[0]) + s[4] * math.cosh(s[0])),
])
def test_criterion8_mu1_extra_integral(space, pot, kw, x0, integral):
    params = derive_params(space, pot, **kw)
    kind = HamiltonianKind.FULL_SPHERE if space is Space.SPHERE \
        else HamiltonianKind.FULL_HYPERBOLIC
    h = hamiltonian(kind, params)
    rep = integrate(h, x0, 100.0,
                    IntegrationOptions(step=1e-3, sample_every=1,
                                       casimir_abort=None))
    assert drift(integral, rep.states) < 1e-8


# --------------------------------------------------------------------------
# criterion 9
# --------------------------------------------------------------------------

CONSISTENCY_RUNS = [
    (Space.SPHERE, Potential.NEWTON,
     dict(strength=2, mu=Fr(1, 2), p=1, eps=0), 1.0, 1.0, 5),
    (Space.HYPERBOLIC, Potential.NEWTON,
     dict(strength=1, mu=Fr(1, 2), p=1, eps=-2), 0.45, 0.35, 2),
    (Space.SPHERE, Potential.OSCILLATOR,
     dict(strength=1, mu=Fr(1, 2), p=1, eps=1), 0.8, 0.5, 4),
    (Space.HYPERBOLIC, Potential.OSCILLATOR,
     dict(strength=1, mu=Fr(1, 2), p=Fr(1, 2), eps=Fr(1, 4)), 0.5, 0.6, 5),
]


@pytest.mark.acceptance(criterion=9)
@pytest.mark.parametrize("space,pot,kw,theta0,t_end,every", CONSISTENCY_RUNS)
def test_criterion9_time_z_consistency(space, pot, kw, theta0, t_end, every):
    """The time-domain variational field, the full field's p1, p2 rows at
    p0 = p along Gamma, equals the z-domain system through
    dz/dt = p_theta_dot / strength; the z-domain side is evaluated from the
    exact rational functions.  Oscillator weights use the signed square
    root matching tan/tanh on the real motion window."""
    params = derive_params(space, pot, **kw)
    system = build_system(params)
    base = gamma_trajectory(params, theta0, t_end, step=1e-3, sample_every=every)
    s, mu, p = map(float, (params.strength, params.mu, params.p))
    kind = HamiltonianKind.FULL_SPHERE if space is Space.SPHERE \
        else HamiltonianKind.FULL_HYPERBOLIC
    field = bound_field(hamiltonian(kind, params))
    slope = models.potential(params)[1]
    checked = 0
    for theta, pt, p0, p1, p2 in base.states:
        assert (p0, p1, p2) == (p, 0.0, 0.0)
        z = (pt + mu * p) / s
        zdot = -slope(theta) / s
        a_val = system.A.embed_complex(complex(z, 0)).real
        b_val = system.B.embed_complex(complex(z, 0)).real
        c_val = system.C.embed_complex(complex(z, 0)).real
        v1, v2 = 0.37, -0.81
        _, _, _, dt1, dt2 = field((theta, pt, p0, v1, v2))
        if system.weight is None:
            zd1 = (a_val * v1 + b_val * v2) * zdot
            zd2 = (c_val * v1 - a_val * v2) * zdot
        else:
            w = math.tan(theta) if space is Space.SPHERE else math.tanh(theta)
            zd1 = (a_val * v1 + b_val * w * v2) * zdot
            zd2 = (c_val * w * v1 - a_val * v2) * zdot
        scale = max(1.0, abs(dt1), abs(dt2))
        assert abs(dt1 - zd1) / scale < 1e-6
        assert abs(dt2 - zd2) / scale < 1e-6
        checked += 1
    assert checked >= 100


# --------------------------------------------------------------------------
# criterion 10
# --------------------------------------------------------------------------


@pytest.mark.acceptance(criterion=10)
@pytest.mark.parametrize("space,pot", ALL_CASES)
def test_criterion10_reference_certified(space, pot):
    ref = REFERENCE_PARAMETERS[(space, pot)]
    cfg = RunConfig(space=space, potential=pot, strength=ref["strength"],
                    mu=ref["mu"], p=ref["p"], eps=ref["eps"], seed=11)
    cert = certify(cfg)
    assert cert.conclusion == CONCLUSION_CERTIFIED
    assert render_report(cert) == render_report(certify(cfg))


@pytest.mark.acceptance(criterion=10)
@pytest.mark.parametrize("space,pot", ALL_CASES)
def test_criterion10_mu1_never_certified(space, pot):
    kw = MU1_REFERENCE[(space, pot)]
    cfg = RunConfig(space=space, potential=pot, strength=Fr(kw["strength"]),
                    mu=Fr(1), p=Fr(kw["p"]), eps=Fr(kw["eps"]),
                    identity_samples=2)
    cert = certify(cfg)
    assert cert.conclusion != CONCLUSION_CERTIFIED
    assert cert.conclusion == CONCLUSION_NO_OBSTRUCTION
