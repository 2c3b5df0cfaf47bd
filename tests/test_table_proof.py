"""The closed forms of tests/table_proof.py: the proof holds for every space
x potential pair, a changed entry breaks it, and the program's
derive_params, build_system, gauge_log_derivative and closed_form_r agree
with the proved formulas, exactly, on the table-record parameter sets."""
from fractions import Fraction as Fr

import pytest

from curvedtwobody import models
from curvedtwobody.exactfield import GAUSS_ZERO, GaussRational
from curvedtwobody.models import Potential, Space
from test_certify import table_record_sets

import table_proof as tp
from table_proof import K, L, c, eps, j, mu, p, s, z, z0


@pytest.mark.parametrize("space,pot", tp.PAIRS, ids=lambda x: x.value)
def test_the_proof_holds(space, pot):
    assert tp.prove(space, pot) == []


def _changed(potential, mu, z0, K, L):
    """The table with one entry changed: m = 1 in Newton's beta, alpha =
    -1/16 at the oscillator's +-lambda."""
    head, (kappa_pair, lambda_pair) = tp.table(potential, mu, z0, K, L)
    if potential is Potential.NEWTON:
        return head, [(K, kappa_pair[1], lambda x: tp.beta(x, L, mu, z0, 1)),
                      (L, lambda_pair[1], lambda x: tp.beta(x, K, mu, z0, 1))]
    return head, [kappa_pair, (L, lambda x: -mu.field(1) / 16, lambda_pair[2])]


@pytest.mark.parametrize("space,pot", [(Space.HYPERBOLIC, Potential.NEWTON),
                                       (Space.SPHERE, Potential.OSCILLATOR)],
                         ids=lambda x: x.value)
def test_a_changed_entry_fails_the_proof(space, pot):
    assert tp.normal_form_residue(space, pot, tables=_changed)


def test_a_changed_integer_form_fails_the_proof():
    """closed_form_r's o' with qn zd^2 C (H - G) C in place of
    qn zd^2 C (H - G) is refused; the program's form is proved."""
    from table_proof import Cg, Og, a, ad, cd, od, zd, zn
    qn, pn = a ** 2 - ad ** 2, (a - ad) ** 2 * zn ** 2
    G, H = Cg * od - Og * cd, 4 * Cg * od
    stated = (-cd * (pn * cd * (H + G) + qn * zd ** 2 * Cg * (H - G) * Cg)
              / (4 * ad ** 2 * zd ** 2 * G * Cg ** 2))
    closed = tp.parts(lambda x: tp.beta(x, Og / od, a / ad, zn / zd, 2), tp.ci, Cg / cd)[1]
    assert tp.residue(stated - closed, tp.ji)
    assert not tp.residue(tp.pair_forms(2)[3] - closed, tp.ji)


def test_the_gauge_check_reduces_to_one_comparison():
    """The check's y-coefficient is (2h + p)(A + h), and 2h + p vanishes
    exactly at h = C'/(2C) [+ f'/(4f)]; with A' dropped from the
    elimination's q the y-coefficient identity fails."""
    assert tp.prove_gauge_check() == []
    wrong = tp.gauge_check_residues(lambda A, B, C, w, g: -(g * A + A ** 2 + C * B * w))
    assert wrong["y-coefficient (f)"] != 0 and wrong["y-coefficient (f = 1)"] != 0
    assert wrong["2h + p (f)"] == 0


# ---------------------------------------------------------------------------
# the program against the proved formulas
# ---------------------------------------------------------------------------


def _value(fr, at: dict) -> GaussRational:
    """fr at the point at (generator -> GaussRational), with j = i."""
    point = [None] * len(fr.field.gens)
    for gen, v in at.items():
        point[tp._index(gen)] = v
    point[tp._index(j)] = GaussRational(0, 1)

    def poly_at(poly):
        total = GAUSS_ZERO
        for mon, coef in poly.terms():
            term = GaussRational(Fr(int(coef.numerator), int(coef.denominator)))
            for v, k in zip(point, mon):
                for _ in range(k):
                    term = term * v
            total = total + term
        return total
    return poly_at(fr.numer) / poly_at(fr.denom)


def _point(params) -> dict:
    g = GaussRational
    return {s: g(params.strength), mu: g(params.mu), p: g(params.p), eps: g(params.eps),
            z0: g(params.z0), K: params.kappa2, L: params.lambda2}


@pytest.fixture(scope="module")
def sets():
    return table_record_sets()


def test_derive_params_follows_the_closed_forms(sets):
    for params in sets:
        at = _point(params)
        forms = tp.squares(params.space, params.potential, s, mu, eps, j)
        assert (params.kappa2, params.lambda2) == tuple(_value(x, at) for x in forms)
        assert GaussRational(params.z0) == _value(tp.z0_of(s, mu, p), at)


def test_build_system_and_the_gauge_follow_the_closed_forms(sets):
    """A, B, C, the weight and h at 17 rational points: two rational
    functions whose numerator and denominator degrees are each at most 6
    are equal once they agree at 13 points."""
    points = [Fr(k, 7) for k in range(-8, 9)]
    for params in sets:
        at, ctx = _point(params), params.ctx
        code = models.build_system(params)
        forms = tp.system(params.space, params.potential, z, s, mu, p, eps)
        pairs = [(code.A, forms[0]), (code.B, forms[1]), (code.C, forms[2]),
                 (code.weight, forms[3]),
                 (models.gauge_log_derivative(params), tp.gauge(params.potential, z, z0, K, L))]
        for f, form in pairs:
            if f is None:
                assert form is None
                continue
            agreed = 0
            for zq in points:
                at[z] = GaussRational(zq)
                if _value(form.field(form.denom), at).is_zero():
                    continue
                assert f.evaluate(ctx.from_rational(zq)) == ctx.from_gauss(_value(form, at))
                agreed += 1
            assert agreed >= 13


def test_closed_form_r_follows_the_closed_forms(sets):
    """The table's head and every pair part (c^2, e, o, e', o')."""
    forms = {}
    for potential in Potential:
        head, pairs = tp.table(potential, mu, z0, K, L)
        forms[potential] = head, [(c2, *tp.parts(a, c, c2), *tp.parts(b, c, c2))
                                  for c2, a, b in pairs]
    for params in sets:
        at = _point(params)
        table = models.closed_form_r(params)
        head, pairs = forms[params.potential]
        assert table.head == tuple(_value(x, at) for x in head)
        assert table.pairs == tuple(tuple(_value(x, at) for x in pair) for pair in pairs)
