import math
import random
import re
from fractions import Fraction as Fr

import pytest

from curvedtwobody import ratcalc
from curvedtwobody.exactfield import DivisionByZero, GaussRational, TowerContext
from curvedtwobody.ratcalc import (BadFactorization, Poly, PoleEvaluation,
                                   RatCalcError, RatFunc, exponent_map, poly_gcd,
                                   simple_pole_sum)


def G(re, im=0):
    return GaussRational(Fr(re), Fr(im))


# a=2, b=3: 2, 3 and 3/2 are not Gaussian squares, so the tower is a field
# and every nonzero leading coefficient in a gcd run is invertible.
CTX = TowerContext(G(2), G(3))


def P(*rationals):
    return Poly.from_rationals(CTX, rationals)


def rand_poly(rng, deg):
    return Poly(CTX, [CTX.from_gauss(GaussRational(
        Fr(rng.randint(-8, 8), rng.randint(1, 4)),
        Fr(rng.randint(-8, 8), rng.randint(1, 4)))) for _ in range(deg + 1)])


def rand_den(rng, deg):
    """A dense denominator of degree deg that RatFunc can split: a random
    Gaussian scale, deg - 1 factors z -+ kappa, z -+ lambda and one z - q
    at a random rational q."""
    roots = [rng.choice((CTX.kappa, -CTX.kappa, CTX.lam, -CTX.lam)) for _ in range(deg - 1)]
    roots.append(CTX.from_rational(Fr(rng.randint(-8, 8), rng.randint(1, 4))))
    scale = CTX.from_gauss(GaussRational(rng.randint(1, 5), rng.randint(-3, 3)))
    return Poly.from_roots(CTX, [(c, 1) for c in roots]).scale(scale)


class TestPolyGcd:
    def test_linear_factor(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_root_in_tower(self):
        # gcd(z^2 - a, z - kappa) = z - kappa
        za = Poly(CTX, [-CTX.from_gauss(CTX.a), CTX.zero, CTX.one])
        zk = Poly(CTX, [-CTX.kappa, CTX.one])
        assert poly_gcd(za, zk) == zk

    def test_coprime(self):
        assert poly_gcd(P(1, 2, 5), P(1)) == P(1)

    def test_common_factor_random(self):
        rng = random.Random(3)
        for _ in range(20):
            g = rand_poly(rng, 2).monic()
            p = rand_poly(rng, 2) * g
            q = rand_poly(rng, 3) * g
            got = poly_gcd(p, q)
            assert (got % g).is_zero()

    def test_a_remainder_that_does_not_fall_raises(self, monkeypatch):
        """A divmod whose remainder keeps the divisor's degree would loop
        forever; poly_gcd must refuse it."""
        monkeypatch.setattr(Poly, "divmod", lambda p, q: (Poly(p.ctx), q))
        with pytest.raises(RatCalcError):
            poly_gcd(P(-1, 0, 1), P(-1, 1))


class TestDifferentiate:
    def test_simple_pole(self):
        one = RatFunc.constant(CTX, 1)
        z = RatFunc.x(CTX)
        c = RatFunc.constant(CTX, Fr(5, 2))
        f = one / (z - c)
        expected = -(one / ((z - c) * (z - c)))
        assert f.derivative() == expected

    def test_power_rule(self):
        z = RatFunc.x(CTX)
        assert (z * z).derivative() == z + z

    def test_leibniz_randomized(self):
        rng = random.Random(17)
        for _ in range(200):
            f = RatFunc(rand_poly(rng, 2), rand_den(rng, 1))
            g = RatFunc(rand_poly(rng, 1), rand_den(rng, 2))
            lhs = (f * g).derivative()
            rhs = f.derivative() * g + f * g.derivative()
            assert lhs == rhs


class TestNormalization:
    def test_den_monic_and_reduced(self):
        rng = random.Random(29)
        for _ in range(100):
            f = RatFunc(rand_poly(rng, 3), rand_den(rng, 2))
            assert f.den.leading() == CTX.one
            if not f.num.is_zero():
                assert poly_gcd(f.num, f.den).degree() == 0

    def test_idempotent(self):
        f = RatFunc(P(-1, 0, 1), P(-1, 1))
        again = RatFunc(f.num, f.den)
        assert f == again
        assert f == RatFunc(P(1, 1))


def reduced_by_euclid(num, den):
    """The reference lowest terms: one gcd over the whole denominator."""
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    inv = den.leading().inverse()
    return num.scale(inv), den.scale(inv)


# a tower field; a = 4 a Gaussian square (kappa collapses to 2); b/a = 4 a
# square (lambda = 2 kappa); sphere Newton's conjugate pairs kappa^2 = 1 + i,
# lambda^2 = 1 - i and kappa^2 = 3 + 4i = (2 + i)^2, lambda^2 = (2 - i)^2
CANCEL_CTXS = {
    "field": TowerContext(G(2), G(3)),
    "a-square": TowerContext(G(4), G(3)),
    "b/a-square": TowerContext(G(2), G(8)),
    "sphere-newton": TowerContext(G(1, 1), G(1, -1)),
    "sphere-newton-squares": TowerContext(G(3, 4), G(3, -4)),
}


def lin(ctx, c):
    return Poly(ctx, [-c, ctx.one])


def quad(ctx, s):
    return Poly(ctx, [-ctx.from_gauss(s), ctx.zero, ctx.one])


class TestKnownFactorCancellation:
    """RatFunc cancels z^2 - a, z^2 - b and their single roots without Euclid;
    the result must equal the one-gcd reference exactly."""

    @pytest.mark.parametrize("name", CANCEL_CTXS)
    def test_random_products_match_euclid(self, name):
        """Random products of known factors, z - 1/3 among them, over
        random scales, times an unknown cofactor in the numerator; the
        scales make most denominators non-monic."""
        ctx = CANCEL_CTXS[name]
        k, lam = ctx.sqrt_a(), ctx.sqrt_b()
        known = [lin(ctx, k), lin(ctx, -k), lin(ctx, lam), lin(ctx, -lam),
                 quad(ctx, ctx.a), quad(ctx, ctx.b), lin(ctx, ctx.from_rational(Fr(1, 3)))]
        rng = random.Random(name)

        def cofactor():
            p = Poly(ctx, [ctx.from_gauss(G(Fr(rng.randint(-6, 6), rng.randint(1, 3)),
                                            Fr(rng.randint(-2, 2), rng.randint(1, 3))))
                           for _ in range(rng.randint(1, 3))])
            return p if not p.is_zero() else Poly.constant(ctx, 1)

        for _ in range(60):
            num, den = cofactor(), Poly.constant(ctx, cofactor().leading())
            for _ in range(rng.randint(0, 4)):
                num = num * rng.choice(known)
            for _ in range(rng.randint(0, 4)):
                den = den * rng.choice(known)
            f = RatFunc(num, den)
            assert (f.num, f.den) == reduced_by_euclid(num, den)

    @pytest.mark.parametrize("name", CANCEL_CTXS)
    def test_num_sharing_one_root(self, name):
        """num vanishes at +kappa (twice) and -lambda but not at -kappa or
        +lambda: only linear factors cancel out of the quadratics, and the
        denominator comes in neither monic nor factored."""
        ctx = CANCEL_CTXS[name]
        k, lam = ctx.sqrt_a(), ctx.sqrt_b()
        z3 = lin(ctx, ctx.from_rational(Fr(1, 3)))
        num = lin(ctx, k) * lin(ctx, k) * lin(ctx, -lam) * Poly.from_rationals(ctx, [5, 0, 1])
        den = quad(ctx, ctx.a) * quad(ctx, ctx.a) * quad(ctx, ctx.b) * z3
        den = den.scale(ctx.from_gauss(G(-2, 3)))
        f = RatFunc(num, den)
        assert f.den == lin(ctx, -k) * lin(ctx, -k) * lin(ctx, lam) * z3
        assert (f.num, f.den) == reduced_by_euclid(num, den)

    @pytest.mark.parametrize("name", CANCEL_CTXS)
    def test_factor_outside_the_known_set(self, name):
        """z^2 + z + 5 is none of the known factors: a denominator holding
        it is refused, even where the numerator would cancel it, while a
        repeated z - 1/3 beside whole copies of z^2 - a splits."""
        ctx = CANCEL_CTXS[name]
        qa, qb = quad(ctx, ctx.a), quad(ctx, ctx.b)
        z3 = lin(ctx, ctx.from_rational(Fr(1, 3)))
        other = Poly.from_rationals(ctx, [5, 1, 1])
        num = other * qa * Poly.from_rationals(ctx, [1, 2])
        with pytest.raises(BadFactorization):
            RatFunc(num, other * qa * qa * qb * z3 * z3)
        f = RatFunc(num, qa * qa * qb * z3 * z3)
        assert f.den == qa * qb * z3 * z3
        assert (f.num, f.den) == reduced_by_euclid(num, qa * qa * qb * z3 * z3)

    @pytest.mark.parametrize("name", CANCEL_CTXS)
    def test_reduced_to_the_known_pole_orders(self, name):
        """reduced_to at the true pole orders gives the lowest-terms value
        without a test, with a lone root (-kappa) kept whole, and again on
        a stored form already brought to lowest terms; orders that leave a
        remainder (lambda dropped), exceed the stored exponent or name
        another root raise RatCalcError."""
        ctx = CANCEL_CTXS[name]
        k, lam = ctx.sqrt_a(), ctx.sqrt_b()
        third = ctx.from_rational(Fr(1, 3))
        roots = {third: 2, k: 2, -k: 1, lam: 2, -lam: 2}
        num = lin(ctx, k) * quad(ctx, ctx.b) * Poly.from_rationals(ctx, [5, 0, 1])
        orders = {third: 2, k: 1, -k: 1, lam: 1, -lam: 1}
        reference = RatFunc.over(num, roots)
        assert reference.roots == orders
        for f in (RatFunc.over(num, roots), reference):
            g = f.reduced_to(orders)
            assert g._tested
            assert (g._num, g._roots) == (reference.num, orders)
        for bad in ({third: 2, k: 1, -k: 1, -lam: 1}, {**orders, third: 3},
                    {**orders, ctx.from_rational(5): 1}, {**orders, k: -1}):
            with pytest.raises(RatCalcError):
                RatFunc.over(num, roots).reduced_to(bad)


class TestEvaluate:
    def test_removable_factor(self):
        f = RatFunc(P(-1, 0, 1), P(-1, 1))  # (z^2-1)/(z-1) = z+1
        assert f.evaluate(CTX.zero) == CTX.one

    def test_mu1_newton_r_at_zero(self):
        # r = (3/4)/(z - 1/4)^2 evaluated at 0 gives 12
        z0 = Fr(1, 4)
        den = Poly.from_roots(CTX, [(CTX.from_rational(z0), 2)])
        r = RatFunc(P(Fr(3, 4)), den)
        assert r.evaluate(CTX.zero) == CTX.from_rational(12)

    def test_pole_raises(self):
        f = RatFunc(P(1), Poly(CTX, [-CTX.kappa, CTX.one]))
        with pytest.raises(PoleEvaluation):
            f.evaluate(CTX.kappa)

    def test_homomorphism(self):
        rng = random.Random(31)
        z = CTX.from_rational(Fr(7, 5))
        for _ in range(50):
            f = RatFunc(rand_poly(rng, 2), rand_den(rng, 2))
            g = RatFunc(rand_poly(rng, 2), rand_den(rng, 1))
            try:
                assert (f + g).evaluate(z) == f.evaluate(z) + g.evaluate(z)
                assert (f * g).evaluate(z) == f.evaluate(z) * g.evaluate(z)
            except PoleEvaluation:
                pass


class TestPolarLeading:
    def test_tower_poles_against_series_oracle(self):
        """Numeric oracle: the (z-c)^-m coefficient at each pole c of
        exponent m, recovered from high-precision sampling of f near c."""
        import mpmath as mp
        mp.mp.dps = 40
        k = CTX.kappa
        lam = CTX.lam
        z0 = CTX.from_rational(Fr(1, 3))
        poles = [(k, 2), (-k, 1), (lam, 1), (z0, 2)]
        num = P(Fr(1, 2), 2, 0, Fr(-3, 7), 1)
        f = RatFunc(num, Poly.from_roots(CTX, poles))

        sk, sl = mp.sqrt(2), mp.sqrt(3)

        def mpc_of(scalar):
            def g2m(g):
                return mp.mpc(mp.mpf(g.re.numerator) / g.re.denominator,
                              mp.mpf(g.im.numerator) / g.im.denominator)
            return (g2m(scalar.c00) + g2m(scalar.c10) * sk
                    + g2m(scalar.c01) * sl + g2m(scalar.c11) * sk * sl)

        def horner(poly, zz):
            acc = mp.mpc(0)
            for cc in reversed(poly.coeffs):
                acc = acc * zz + mpc_of(cc)
            return acc

        def fval(zz):
            return horner(f.num, zz) / horner(f.den, zz)

        for pole, mult in poles:
            c = mpc_of(pole)
            # averaging f(c+hw)(hw)^mult over 8th roots of unity w kills
            # every Laurent term except k = -mult (mod 8); the nearest
            # surviving contaminant k = 8-mult is O(h^8)
            h = mp.mpf("1e-6")
            acc = mp.mpc(0)
            npts = 8
            for j in range(npts):
                w = mp.expjpi(2 * mp.mpf(j) / npts)
                acc += fval(c + h * w) * (h * w) ** mult
            got = acc / npts
            exact = f.polar_leading(pole).embed_complex()
            assert abs(complex(got) - exact) < 1e-9 * max(1.0, abs(exact))


class TestDivmodProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_division_identity(self, pc, qc):
        from hypothesis import assume
        p = P(*pc)
        q = P(*qc)
        assume(not q.is_zero())
        quot, rem = p.divmod(q)
        assert p == quot * q + rem
        assert rem.is_zero() or rem.degree() < q.degree()


class TestRendering:
    def test_descending_degree(self):
        f = RatFunc(P(1, 0, 2), P(-1, 1))
        text = f.render()
        assert text.index("z^2") < text.index("1)") or "z^2" in text.split("/")[0]


# ---------------------------------------------------------------------------
# factored denominators against a dense reference
# ---------------------------------------------------------------------------


class Dense:
    """The reference: num/den reduced by one poly_gcd over the whole dense
    denominator and made monic, with every operation done on dense num/den."""

    def __init__(self, num, den):
        if num.is_zero():
            num, den = num, Poly.constant(num.ctx, 1)
        self.num, self.den = reduced_by_euclid(num, den)

    def __add__(self, other):
        return Dense(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return Dense(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return Dense(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return Dense(self.num * other.den, self.den * other.num)

    def derivative(self):
        return Dense(self.num.derivative() * self.den - self.num * self.den.derivative(),
                     self.den * self.den)

    def evaluate(self, z):
        d = self.den.evaluate(z)
        if d.is_zero():
            raise PoleEvaluation("evaluation at a pole")
        return self.num.evaluate(z) / d


# A genuine tower (kappa^2 = 2, lambda^2 = 3, 2/3 not squares in Q(i)) with
# z0 = 1/3, and kappa^2 = 4 with z0 = 2 = kappa.
ORACLE_CTXS = {
    "tower": (TowerContext(G(2), G(3)), Fr(1, 3)),
    "z0-is-kappa": (TowerContext(G(4), G(3)), Fr(2)),
}


def random_function(ctx, z0, rng):
    """(RatFunc, Dense) for one random function.  The denominator is a few
    powers of z - z0, z -+ kappa, z -+ lambda; the numerator often holds one
    root of a +- pair, which cancels while its partner stays, and has at most
    one root outside +-kappa, +-lambda, so that / and log_derivative split
    it.  Degrees stay small: the reference runs Euclid over the tower, whose
    coefficients grow fast."""
    k, lam = ctx.sqrt_a(), ctx.sqrt_b()
    pool = [ctx.from_rational(z0), k, -k, lam, -lam]
    num = Poly(ctx, [ctx.from_gauss(G(Fr(rng.randint(-6, 6), rng.randint(1, 3)),
                                      rng.randint(-2, 2)))
                     for _ in range(rng.randint(1, 2))])
    if num.is_zero():
        num = Poly.constant(ctx, 1)
    if rng.random() < 0.5:
        num = num * Poly.from_roots(ctx, [(rng.choice(pool[num.degree():]), 1)])
    roots = [(c, rng.choice((1, 1, 2, 3))) for c in rng.sample(pool, rng.randint(1, 3))]
    den = Poly.from_roots(ctx, roots)
    if rng.random() < 0.5:
        exps = {}
        for c, e in roots:
            exps[c] = exps.get(c, 0) + e
        return RatFunc.over(num, exps), Dense(num, den)
    den = den.scale(ctx.from_gauss(G(-2, 3)))
    return RatFunc(num, den), Dense(num, den)


def assert_factored(f):
    """f's factored denominator is consistent: positive exponents at roots
    of no numerator, and den their monic product."""
    for c, e in f.roots.items():
        assert e > 0
        assert not f.num.evaluate(c).is_zero()
    assert f.den == Poly.from_roots(f.ctx, f.roots.items())


def assert_matches(f, ref):
    """f equals the reference, and its factored denominator is consistent."""
    assert (f.num, f.den) == (ref.num, ref.den)
    assert_factored(f)


class TestFactoredAgainstDense:
    # the reference's Euclid is slow over the genuine tower: fewer samples
    @pytest.mark.parametrize("name,samples", [("tower", 12), ("z0-is-kappa", 40)])
    def test_operations_match_dense_reference(self, name, samples):
        ctx, z0 = ORACLE_CTXS[name]
        rng = random.Random(f"factored-{name}")
        points = [ctx.from_rational(q) for q in (0, Fr(1, 3), 2, Fr(-7, 5))]
        for _ in range(samples):
            f, fr = random_function(ctx, z0, rng)
            g, gr = random_function(ctx, z0, rng)
            assert_matches(f, fr)
            assert_matches(f + g, fr + gr)
            assert_matches(f - g, fr - gr)
            assert_matches(f * g, fr * gr)
            assert_matches(f / g, fr / gr)
            assert_matches(f.derivative(), fr.derivative())
            for z in points:
                try:
                    want = fr.evaluate(z)
                except PoleEvaluation:
                    with pytest.raises(PoleEvaluation):
                        f.evaluate(z)
                else:
                    assert f.evaluate(z) == want

    @pytest.mark.parametrize("name", ORACLE_CTXS)
    def test_equality_and_hash_follow_the_value(self, name):
        """Two routes to one function compare equal and hash alike, however
        their denominators were split; a different function does not."""
        ctx, z0 = ORACLE_CTXS[name]
        rng = random.Random(f"equality-{name}")
        one = RatFunc.constant(ctx, 1)
        for _ in range(30):
            f, fr = random_function(ctx, z0, rng)
            g, _ = random_function(ctx, z0, rng)
            for same in (RatFunc(fr.num, fr.den), (f + g) - g, (f * g) / g):
                assert same == f
                assert hash(same) == hash(f)
            assert f + one != f

    @pytest.mark.parametrize("name", ORACLE_CTXS)
    def test_one_root_of_a_pair_cancels(self, name):
        """(z - kappa)(z + lambda) over (z^2 - kappa^2)^2 (z^2 - lambda^2)
        (z - z0)^2: the numerator takes one root of each pair."""
        ctx, z0 = ORACLE_CTXS[name]
        k, lam, c0 = ctx.sqrt_a(), ctx.sqrt_b(), ctx.from_rational(z0)
        num = Poly.from_roots(ctx, [(k, 1), (-lam, 1)])
        exps = {k: 2, -k: 2, lam: 1, -lam: 1}
        exps[c0] = exps.get(c0, 0) + 2
        f = RatFunc.over(num, exps)
        assert f.num == Poly.constant(ctx, 1)
        assert f.roots == {c: e for c, e in {**exps, k: exps[k] - 1, -lam: 0}.items() if e}
        assert_matches(f, Dense(num, Poly.from_roots(ctx, exps.items())))

    def test_z0_merges_with_kappa(self):
        """A root entered twice, once as z0 and once as kappa, is one root."""
        ctx, z0 = ORACLE_CTXS["z0-is-kappa"]
        c0, k = ctx.from_rational(z0), ctx.sqrt_a()
        assert c0 == k
        f = RatFunc(Poly.constant(ctx, 1), Poly.from_roots(ctx, [(c0, 1), (k, 2), (-k, 1)]))
        assert f.roots == {k: 3, -k: 1}
        assert (f * f).roots == {k: 6, -k: 2}
        assert f.derivative().roots == {k: 4, -k: 2}


class TestReduceOnRead:
    """+, -, *, / and over store a value as computed, and its first read
    tests lowest terms.  Chains that cancel must read back as the dense
    reference, and later reads must not test again."""

    @staticmethod
    def assert_reads_as(f, ref):
        dense = RatFunc(ref.num, ref.den)
        assert_matches(f, ref)
        assert f.roots == dense.roots
        assert f == dense and hash(f) == hash(dense)

    @pytest.mark.parametrize("name", ORACLE_CTXS)
    def test_cancelling_chains(self, name):
        """(f g)/g and f + g - g are f; f (z - c) at a root c of f's
        denominator loses one power of z - c, read at once or after
        another deferred step.  A constant factor, negation and a square
        of an untested value are read the same way."""
        ctx, z0 = ORACLE_CTXS[name]
        rng = random.Random(f"reduce-on-read-{name}")
        scale = Poly.constant(ctx, Fr(-3, 2))
        for _ in range(12):
            f, fr = random_function(ctx, z0, rng)
            g, _ = random_function(ctx, z0, rng)
            self.assert_reads_as((f * g) / g, fr)
            self.assert_reads_as(f + g - g, fr)
            self.assert_reads_as(RatFunc(scale) * ((f * g) / g),
                                 Dense(fr.num * scale, fr.den))
            self.assert_reads_as(-((f * g) / g), Dense(-fr.num, fr.den))
            h = (f * g) / g
            self.assert_reads_as(h * h, Dense(fr.num * fr.num, fr.den * fr.den))
            for c in f.roots:
                lin = Poly(ctx, [-c, ctx.one])
                self.assert_reads_as(f * RatFunc(lin), Dense(fr.num * lin, fr.den))
                self.assert_reads_as((f + g - g) * RatFunc(lin),
                                     Dense(fr.num * lin, fr.den))

    @pytest.mark.parametrize("name", ORACLE_CTXS)
    def test_a_deferred_zero_sum_is_zero(self, name):
        ctx, z0 = ORACLE_CTXS[name]
        rng = random.Random(f"deferred-zero-{name}")
        zero = RatFunc.constant(ctx, 0)
        for _ in range(12):
            f, _ = random_function(ctx, z0, rng)
            g, _ = random_function(ctx, z0, rng)
            for d in ((f * g) / g - f, f + g - g - f, f * g - g * f):
                assert d.is_zero()
                assert d.roots == {} and d == zero and hash(d) == hash(zero)

    @pytest.mark.parametrize("name", ORACLE_CTXS)
    def test_a_value_read_twice_is_tested_once(self, name, monkeypatch):
        """Every read of h = (f g)/g after the first, and every read of its
        negation, its product by a constant, its square and its
        derivative, reuses the one test."""
        ctx, z0 = ORACLE_CTXS[name]
        rng = random.Random(f"read-once-{name}")
        calls = []
        real = ratcalc._lowest_terms

        def counted(num, roots):
            calls.append(num)
            return real(num, roots)

        monkeypatch.setattr(ratcalc, "_lowest_terms", counted)
        for _ in range(6):
            f, _ = random_function(ctx, z0, rng)
            g, _ = random_function(ctx, z0, rng)
            f.num, g.num
            calls.clear()
            h = (f * g) / g
            assert not calls
            for _ in range(2):
                h.num, h.roots, h.den, h.den_degree(), hash(h), h.render()
                assert h == f
                assert len(calls) == 1
            for k in (-h, RatFunc.constant(ctx, 3) * h, h * h, h.derivative(),
                      h.log_derivative()):
                k.num, k.roots, hash(k)
            assert len(calls) == 1


# the oracle contexts plus a collapsed tower: kappa^2 = 4 is a Gaussian
# square, so kappa = 2 and the pair +-kappa has rational roots
LOG_CTXS = {**ORACLE_CTXS, "collapsed": (CANCEL_CTXS["a-square"], Fr(1, 3))}


class TestSimplePoleSum:
    """simple_pole_sum builds sum w/(z - c) over one denominator; it must be
    the pairwise RatFunc sum of the terms, with simple poles only."""

    @staticmethod
    def check(ctx, weights):
        got = simple_pole_sum(ctx, weights)
        expected = RatFunc.constant(ctx, 0)
        for c, w in weights.items():
            expected = expected + RatFunc(Poly.constant(ctx, w), Poly.from_roots(ctx, [(c, 1)]))
        assert (got.num, got.den) == (expected.num, expected.den)
        assert_factored(got)
        assert got.roots == {c: 1 for c, w in weights.items() if w}
        return got

    @pytest.mark.parametrize("name", LOG_CTXS)
    def test_shaped_weights(self, name):
        """A pole at 0, alone and beside a pair; a +-kappa pair of equal
        weights, a +-lambda pair of unequal ones, and z0."""
        ctx, z0 = LOG_CTXS[name]
        k, lam, c0, zero = ctx.sqrt_a(), ctx.sqrt_b(), ctx.from_rational(z0), ctx.zero
        self.check(ctx, {zero: Fr(3, 2)})
        self.check(ctx, {zero: -1, k: Fr(1, 2), -k: Fr(1, 2)})
        self.check(ctx, {k: Fr(1, 2), -k: Fr(1, 2), lam: 2, -lam: Fr(-1, 3)})
        self.check(ctx, {c0: Fr(3, 4), lam: 1, -lam: 1, -k: Fr(-5, 2)})

    @pytest.mark.parametrize("name", LOG_CTXS)
    def test_zero_weights_are_dropped(self, name):
        ctx, _ = LOG_CTXS[name]
        k, lam = ctx.sqrt_a(), ctx.sqrt_b()
        self.check(ctx, {k: 0, -k: Fr(1, 2), lam: 0})
        assert self.check(ctx, {k: 0, ctx.zero: Fr(0)}).is_zero()
        assert simple_pole_sum(ctx, {}).is_zero()

    @pytest.mark.parametrize("name", LOG_CTXS)
    def test_random_weights(self, name):
        ctx, z0 = LOG_CTXS[name]
        k, lam = ctx.sqrt_a(), ctx.sqrt_b()
        pool = list(dict.fromkeys([ctx.zero, ctx.from_rational(z0), k, -k, lam, -lam]))
        menu = [Fr(-2), Fr(-1), Fr(-1, 2), Fr(0), Fr(1, 2), Fr(1), Fr(3, 2)]
        rng = random.Random(f"simple-poles-{name}")
        for _ in range(20):
            poles = rng.sample(pool, rng.randint(1, len(pool)))
            self.check(ctx, {c: rng.choice(menu) for c in poles})


class TestLogDerivative:
    """f.log_derivative() reads f'/f off the factors; it must be the same
    function as the quotient f.derivative() / f, with simple poles only."""

    @staticmethod
    def check(f):
        got = f.log_derivative()
        assert got == f.derivative() / f
        assert_factored(got)
        assert set(got.roots.values()) <= {1}
        return got

    @pytest.mark.parametrize("name", LOG_CTXS)
    def test_random_functions(self, name):
        ctx, z0 = LOG_CTXS[name]
        rng = random.Random(f"log-derivative-{name}")
        for _ in range(30):
            self.check(random_function(ctx, z0, rng)[0])

    @pytest.mark.parametrize("name", LOG_CTXS)
    def test_repeated_roots_on_both_sides(self, name):
        """num (z - kappa)^2 (z + kappa) (z - lambda)^3 over (z + lambda)^2
        (z - 1/5)^3: repeated roots above and below, and a numerator that
        vanishes at both of +-kappa."""
        ctx, _ = LOG_CTXS[name]
        k, lam, c = ctx.sqrt_a(), ctx.sqrt_b(), ctx.from_rational(Fr(1, 5))
        num = Poly.from_roots(ctx, [(k, 2), (-k, 1), (lam, 3)]).scale(ctx.from_gauss(G(2, -1)))
        f = RatFunc.over(num, {-lam: 2, c: 3})
        got = self.check(f)
        assert set(got.roots) == {k, -k, lam, -lam, c}

    @pytest.mark.parametrize("name", LOG_CTXS)
    def test_leftover_root_and_unknown_factor(self, name):
        """A dense denominator with z - 1/7 squared beside known roots: the
        leftover (z - 1/7)^2 splits, in the denominator and, with a root of
        a pair, in the numerator.  z^2 + z + 5, whose roots nobody supplied,
        is refused on either side."""
        ctx, z0 = LOG_CTXS[name]
        k, lam = ctx.sqrt_a(), ctx.sqrt_b()
        other = Poly.from_rationals(ctx, [5, 1, 1])
        known = Poly.from_roots(ctx, [(k, 1), (-lam, 2)])
        seventh = Poly.from_rationals(ctx, [Fr(-1, 7), 1])
        f = RatFunc(Poly.from_rationals(ctx, [3, -1]), (seventh * seventh * known).scale(
            ctx.from_gauss(G(-2, 3))))
        assert f.roots[ctx.from_rational(Fr(1, 7))] == 2
        self.check(f)
        g = RatFunc(seventh * seventh * Poly.from_roots(ctx, [(-k, 1)]), known)
        self.check(g)
        self.check(f * g)
        self.check(g / f)
        with pytest.raises(BadFactorization):
            RatFunc(Poly.from_rationals(ctx, [3, -1]), other * known)
        with pytest.raises(BadFactorization):
            RatFunc(other * seventh, known).log_derivative()

    def test_constant_and_zero(self):
        f = RatFunc.constant(CTX, Fr(-3, 4))
        assert f.log_derivative().is_zero()
        with pytest.raises(DivisionByZero):
            RatFunc(Poly(CTX, [])).log_derivative()


class TestSquare:
    """f * f takes the square path (exponents doubled, no lowest-terms
    test); it must equal f * g for an equal but distinct g."""

    @pytest.mark.parametrize("name", LOG_CTXS)
    def test_square_is_the_product(self, name):
        ctx, z0 = LOG_CTXS[name]
        rng = random.Random(f"square-{name}")
        seventh = Poly.from_rationals(ctx, [Fr(-1, 7), 1])
        fs = [random_function(ctx, z0, rng)[0] for _ in range(20)]
        fs.append(RatFunc(Poly.from_rationals(ctx, [1, 2]),
                          seventh * seventh * Poly.from_roots(ctx, [(ctx.sqrt_a(), 2)])))
        for f in fs:
            g = RatFunc(f.num, f.den)
            assert g is not f and g == f
            sq = f * f
            assert sq == f * g
            assert (sq.num, sq.den) == ((f * g).num, (f * g).den)
            assert sq.roots == {c: 2 * e for c, e in f.roots.items()}
            assert_factored(sq)


class TestCrossMultipliedEquality:
    """== cross-multiplies the stored forms over their lcm and tests
    neither side; the oracle is the comparison it replaced, equal num and
    roots in lowest terms.  derivative and f * f also work on the stored
    form and keep the operand's flag."""
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    # numerator coefficients (possibly all zero), exponents at z0, kappa,
    # -kappa, lambda, -lambda, and planted common factors (z - c)^k in num
    # and den: at the pair +-kappa, at z0 and at 1/5, a root that is no pole
    _value = st.tuples(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-2, 2)), min_size=1, max_size=3),
        st.lists(st.integers(0, 2), min_size=5, max_size=5),
        st.lists(st.tuples(st.sampled_from(["kappa-pair", "z0", "no-pole"]),
                           st.integers(1, 2)), max_size=3))
    _ctx = st.sampled_from(sorted(LOG_CTXS))

    @staticmethod
    def build(ctx, z0, spec):
        coeffs, exps, planted = spec
        k = ctx.sqrt_a()
        pool = [ctx.from_rational(z0), k, -k, ctx.sqrt_b(), -ctx.sqrt_b()]
        num = Poly(ctx, [ctx.from_gauss(G(x, y)) for x, y in coeffs])
        roots = exponent_map(zip(pool, exps))
        sites = {"kappa-pair": [k, -k], "z0": pool[:1],
                 "no-pole": [ctx.from_rational(Fr(1, 5))]}
        for site, m in planted:
            num = num * Poly.from_roots(ctx, [(c, m) for c in sites[site]])
            roots = exponent_map([*roots.items(), *((c, m) for c in sites[site])])
        return RatFunc.over(num, roots)

    @given(_ctx, _value, _value, st.booleans(), st.sampled_from(["same", "equal", "other"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reduced_comparison(self, name, va, vb, same_value, where):
        """Equal and unequal pairs, zero among them, in one context, in an
        equal but distinct one and in one that differs (never equal)."""
        ctx, z0 = LOG_CTXS[name]
        if same_value:
            vb = (va[0], va[1], vb[2])
        ctx_b = {"same": ctx, "equal": TowerContext(ctx.a, ctx.b),
                 "other": TowerContext(ctx.b, ctx.a)}[where]
        a, b = self.build(ctx, z0, va), self.build(ctx_b, z0, vb)
        flags = a._tested, b._tested
        got = a == b
        assert (b == a) == got
        assert (a._tested, b._tested) == flags
        assert got == (a.num == b.num and a.roots == b.roots)
        if where != "other":
            assert got or not same_value
        else:
            assert not got
        if got:
            assert hash(a) == hash(b)

    @given(_ctx, _value)
    @example("tower", ([(1, 0)], [0] * 5, [("z0", 1)]))  # (z - z0)/(z - z0), derivative 0
    @settings(max_examples=100, deadline=None)
    def test_derivative_and_square_skip_the_test(self, name, spec):
        ctx, z0 = LOG_CTXS[name]
        f, ref = self.build(ctx, z0, spec), self.build(ctx, z0, spec)
        ref.num
        flag = f._tested
        for got, want in ((f.derivative(), ref.derivative()), (f * f, ref * ref)):
            assert f._tested == flag
            assert got._tested == (flag or got.is_zero())
            assert got == want
            assert (got.num, got.roots) == (want.num, want.roots)
            assert_factored(got)


# ---------------------------------------------------------------------------
# Poly products: the integer kernel against the schoolbook loop, and the
# from_roots cache
# ---------------------------------------------------------------------------


def schoolbook(p, q):
    """The reference product: every pair of coefficients multiplied and
    summed through TowerScalar arithmetic."""
    if p.is_zero() or q.is_zero():
        return Poly(p.ctx, [])
    pc, qc = p.coeffs, q.coeffs
    out = [p.ctx.zero] * (len(pc) + len(qc) - 1)
    for i, ci in enumerate(pc):
        if ci.is_zero():
            continue
        for j, cj in enumerate(qc):
            if not cj.is_zero():
                out[i + j] = out[i + j] + ci * cj
    return Poly(p.ctx, out)


class TestGaussianProduct:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    _part = st.builds(Fr, st.one_of(st.integers(-9, 9), st.integers(-10**40, 10**40)),
                      st.integers(1, 60))
    # zero, real, purely imaginary and general coefficients, each part over
    # its own denominator
    _coeff = st.one_of(st.just((0, 0)), st.tuples(_part, st.just(0)),
                       st.tuples(st.just(0), _part), st.tuples(_part, _part))
    _poly = st.lists(_coeff, min_size=1, max_size=7)

    @staticmethod
    def gauss_poly(parts):
        return Poly(CTX, [CTX.from_gauss(G(re, im)) for re, im in parts])

    @given(_poly, _poly)
    @example([(0, Fr(2, 3))], [(0, Fr(-9, 4))])
    @example([(Fr(10**40 + 1, 7), 0), (0, 0), (0, Fr(1, 11))], [(Fr(1, 2), Fr(1, 3))])
    @example([(1, 0), (0, 1)], [(1, 0), (0, -1)])
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_schoolbook(self, pa, pb):
        p, q = self.gauss_poly(pa), self.gauss_poly(pb)
        got = p * q
        assert got == schoolbook(p, q)
        assert got.degree() == (-1 if p.is_zero() or q.is_zero()
                                else p.degree() + q.degree())


# ---------------------------------------------------------------------------
# Integer coordinates against the term-by-term TowerScalar loops
# ---------------------------------------------------------------------------


def loop_plus(p, q, sign):
    """The reference sum (sign 1) or difference (sign -1), coefficient by
    coefficient through TowerScalar arithmetic."""
    n = max(p.degree(), q.degree()) + 1
    return Poly(p.ctx, [p.coefficient(i) + q.coefficient(i) if sign > 0
                        else p.coefficient(i) - q.coefficient(i) for i in range(n)])


def loop_scale(p, s):
    return Poly(p.ctx, [c * s for c in p.coeffs])


def loop_derivative(p):
    cs = p.coeffs
    return Poly(p.ctx, [cs[i] * p.ctx.from_rational(i) for i in range(1, len(cs))])


def loop_evaluate(p, z):
    acc = p.ctx.zero
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def loop_divmod(p, q):
    """The reference Euclidean division: one TowerScalar step per quotient
    coefficient, by the inverse of q's leading coefficient."""
    ctx = p.ctx
    rem, qc = list(p.coeffs), q.coeffs
    dq = len(qc) - 1
    inv = qc[-1].inverse()
    if len(rem) - 1 < dq:
        return Poly(ctx, []), Poly(ctx, rem)
    quot = [ctx.zero] * (len(rem) - dq)
    while len(rem) - 1 >= dq and rem:
        c = rem[-1] * inv
        k = len(rem) - 1 - dq
        quot[k] = c
        for i in range(dq + 1):
            rem[k + i] = rem[k + i] - c * qc[i]
        while rem and rem[-1].is_zero():
            rem.pop()
    return Poly(ctx, quot), Poly(ctx, rem)


def loop_linear_divmod(p, c):
    """Synthetic division by z - c: (quotient, p(c))."""
    cs = p.coeffs
    q = [None] * (len(cs) - 1)
    acc = cs[-1]
    for k in range(len(cs) - 2, -1, -1):
        q[k] = acc
        acc = cs[k] + acc * c
    return Poly(p.ctx, q), acc


def loop_quadratic_divmod(p, a):
    """Division by z^2 - a: (quotient, r0, r1) with remainder r0 + r1 z."""
    cs = list(p.coeffs) + [p.ctx.zero] * (2 - len(p.coeffs))
    q = cs[2:]
    for k in range(len(q) - 3, -1, -1):
        q[k] = q[k] + a * q[k + 2]
    r0 = cs[0] + a * q[0] if q else cs[0]
    r1 = cs[1] + a * q[1] if len(q) > 1 else cs[1]
    return Poly(p.ctx, q), r0, r1


def assert_canonical_poly(p):
    """d > 0, no trailing zero in a list, no trailing empty coordinate and
    gcd(d, every integer) = 1."""
    assert p._d > 0 and len(p._v) % 2 == 0 and len(p._v) <= 8
    assert all(not xs or xs[-1] for xs in p._v)
    assert not p._v or p._v[-1] or p._v[-2]
    assert math.gcd(p._d, *[x for xs in p._v for x in xs]) == 1


# A context whose kappa and lambda are both Gaussian (kappa = 2i, lambda =
# 3/2), one where lambda collapses to 2 kappa (a = 2, b = 8) and the
# non-square tower kappa^2 = 2, lambda^2 = 3.
COORD_CTXS = {
    "gaussian": TowerContext(G(-4), G(Fr(9, 4))),
    "collapsed": TowerContext(G(2), G(8)),
    "tower": CTX,
}


class TestIntegerCoordinates:
    """Every integer operation of Poly against the term-by-term loop.  A
    coefficient is drawn as c00 + c10 kappa + c01 lambda + c11 kappa lambda
    with kappa = sqrt_a(), lambda = sqrt_b() of the context, so the tower
    context gets kappa, lambda and kappa*lambda coordinates."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _part = st.one_of(st.just(Fr(0)), st.builds(Fr, st.integers(-9, 9), st.integers(1, 12)),
                      st.builds(Fr, st.integers(-10**30, 10**30), st.integers(1, 10**6)))
    _gauss = st.one_of(st.just((Fr(0), Fr(0))), st.tuples(_part, st.just(Fr(0))),
                       st.tuples(_part, _part))
    _coeff = st.one_of(st.tuples(_gauss, st.just(None)),
                       st.tuples(_gauss, st.tuples(_gauss, _gauss, _gauss)))
    _poly = st.lists(_coeff, max_size=5)
    _ctx = st.sampled_from(sorted(COORD_CTXS))

    @staticmethod
    def scalar(ctx, spec):
        g0, tower = spec
        out = ctx.from_gauss(G(*g0))
        if tower is not None:
            k, lam = ctx.sqrt_a(), ctx.sqrt_b()
            for g, basis in zip(tower, (k, lam, k * lam)):
                out = out + ctx.from_gauss(G(*g)) * basis
        return out

    def poly(self, ctx, specs):
        return Poly(ctx, [self.scalar(ctx, c) for c in specs])

    def point(self, ctx, kind, spec):
        """A Gaussian point, +-kappa, +-lambda or a point whose square is
        not Gaussian in the tower."""
        k, lam = ctx.sqrt_a(), ctx.sqrt_b()
        return {"gauss": ctx.from_gauss(G(*spec[0])), "kappa": k, "-kappa": -k,
                "lambda": lam, "-lambda": -lam,
                "tower": self.scalar(ctx, spec) + k + lam}[kind]

    _kind = st.sampled_from(["gauss", "kappa", "-kappa", "lambda", "-lambda", "tower"])

    @given(_ctx, _poly, _poly, _coeff)
    @settings(max_examples=100, deadline=None)
    def test_ring_operations_match_the_loops(self, name, pa, pb, sc):
        ctx = COORD_CTXS[name]
        p, q, s = self.poly(ctx, pa), self.poly(ctx, pb), self.scalar(ctx, sc)
        for got, want in ((p + q, loop_plus(p, q, 1)), (p - q, loop_plus(p, q, -1)),
                          (-p, loop_scale(p, -ctx.one)), (p * q, schoolbook(p, q)),
                          (p.scale(s), loop_scale(p, s)), (p.derivative(), loop_derivative(p))):
            assert got == want
            assert_canonical_poly(got)
            assert got.coeffs == want.coeffs

    @given(_ctx, _poly, _kind, _coeff)
    @settings(max_examples=100, deadline=None)
    def test_evaluate_matches_horner(self, name, pa, kind, spec):
        ctx = COORD_CTXS[name]
        p, z = self.poly(ctx, pa), self.point(ctx, kind, spec)
        assert p.evaluate(z) == loop_evaluate(p, z)
        q, r0, r1 = loop_quadratic_divmod(p, ctx.square(z))
        assert p.halves_at(ctx.square(z)) == (r0, r1)

    @given(_ctx, _poly, _kind, _coeff, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_division_by_z_minus_c(self, name, pa, kind, spec, root):
        """p / (z - c) against synthetic division, with c a root of p (p is
        built as q (z - c)) or not; _deflate takes off exactly the copies
        the loop finds."""
        ctx = COORD_CTXS[name]
        p, c = self.poly(ctx, pa), self.point(ctx, kind, spec)
        lin = Poly(ctx, [-c, ctx.one])
        if root:
            p = schoolbook(p, lin)
        if p.is_zero():
            return
        want_q, want_r = loop_linear_divmod(p, c)
        q, r = p.divmod(lin)
        assert (q, r) == (want_q, Poly(ctx, [want_r]))
        assert_canonical_poly(q)
        copies, rest = 0, p
        while copies < 3 and rest.degree() > 0:
            quot, rem = loop_linear_divmod(rest, c)
            if not rem.is_zero():
                break
            copies, rest = copies + 1, quot
        assert ratcalc._deflate(p, c, 3) == (rest, copies)
        if root and p.degree() > 0:
            assert copies >= 1

    @given(_ctx, _poly, _kind, _coeff, st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]))
    @settings(max_examples=100, deadline=None)
    def test_division_by_z2_minus_c2(self, name, pa, kind, spec, factors):
        """p / (z^2 - c^2) against the loop, with p built with factors z - c
        and z + c or not; _deflate_pair takes off each root's copies."""
        ctx = COORD_CTXS[name]
        p, c = self.poly(ctx, pa), self.point(ctx, kind, spec)
        for sign, k in zip((1, -1), factors):
            if k:
                p = schoolbook(p, Poly(ctx, [-c if sign > 0 else c, ctx.one]))
        if p.is_zero():
            return
        c2 = ctx.square(c)
        want_q, r0, r1 = loop_quadratic_divmod(p, c2)
        q, r = p.divmod(Poly(ctx, [-c2, ctx.zero, ctx.one]))
        assert (q, r) == (want_q, Poly(ctx, [r0, r1]))
        assert_canonical_poly(q)
        want = [0, 0]
        for i, root in enumerate((c, -c)):
            rest = p
            while want[i] < 3 and rest.degree() > 0:
                quot, rem = loop_linear_divmod(rest, root)
                if not rem.is_zero():
                    break
                want[i], rest = want[i] + 1, quot
        got, kp, km = ratcalc._deflate_pair(p, c, 3, 3)
        if c.is_zero():
            return
        assert (kp, km) == tuple(want)
        assert got * Poly.from_roots(ctx, [(c, kp), (-c, km)]) == p

    @given(_ctx, _poly, _poly)
    @settings(max_examples=100, deadline=None)
    def test_divmod_matches_euclid(self, name, pa, pb):
        ctx = COORD_CTXS[name]
        p, q = self.poly(ctx, pa), self.poly(ctx, pb)
        if q.is_zero():
            with pytest.raises(DivisionByZero):
                p.divmod(q)
            return
        try:
            want = loop_divmod(p, q)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                p.divmod(q)
            return
        got = p.divmod(q)
        assert got == want
        assert all(x.coeffs == y.coeffs for x, y in zip(got, want))

    @given(_ctx, _poly, _poly, _coeff)
    @settings(max_examples=100, deadline=None)
    def test_equal_polynomials_are_equal_integers(self, name, pa, pb, sc):
        """The form is canonical: equal values built apart have the same
        denominator and lists, so they compare == and hash equal."""
        ctx = COORD_CTXS[name]
        p, q, s = self.poly(ctx, pa), self.poly(ctx, pb), self.scalar(ctx, sc)
        built = [p * q, q * p, (p + q) - q + p * q - p, Poly(ctx, (p * q).coeffs),
                 -(-(p * q)), (p * q).scale(ctx.one)]
        if s.is_gauss_value() is not None and not s.is_zero():
            built.append((p * q).scale(s).scale(s.inverse()))
        for other in built:
            assert_canonical_poly(other)
            assert other == p * q and hash(other) == hash(p * q)
            assert (other._d, other._v) == ((p * q)._d, (p * q)._v)

    @given(_ctx, _poly)
    @settings(max_examples=100, deadline=None)
    def test_coeffs_round_trip(self, name, pa):
        ctx = COORD_CTXS[name]
        cs = [self.scalar(ctx, c) for c in pa]
        while cs and cs[-1].is_zero():
            cs.pop()
        p = Poly(ctx, cs)
        assert p.coeffs == tuple(cs)
        assert p.degree() == len(cs) - 1
        assert [p.coefficient(k) for k in range(-1, len(cs) + 2)] == \
            [ctx.zero] + cs + [ctx.zero, ctx.zero]
        assert Poly(ctx, p.coeffs) == p and Poly(ctx, list(p.coeffs) + [ctx.zero]) == p
        assert all(c.ctx is ctx for c in p.coeffs)
        if cs:
            assert p.leading() == cs[-1]

    def test_a_tower_product_by_hand(self):
        """(kappa + lambda z + kappa lambda z^2)^2 in kappa^2 = 2,
        lambda^2 = 3: 2 + 2 kappa lambda z + (3 + 4 lambda) z^2 + 6 kappa z^3
        + 6 z^4."""
        k, lam, n = CTX.kappa, CTX.lam, CTX.from_rational
        p = Poly(CTX, [k, lam, k * lam])
        assert p * p == Poly(CTX, [n(2), n(2) * k * lam, n(3) + n(4) * lam, n(6) * k, n(6)])
        assert Poly(CTX, [k]) * Poly(CTX, [k]) == P(2)
        assert Poly(CTX, [lam, k]) * Poly(CTX, [k, lam]) == Poly(CTX, [
            k * lam, CTX.from_gauss(CTX.a) + CTX.from_gauss(CTX.b), k * lam])

    def test_a_zero_divisor_lead_raises(self):
        """With kappa^2 = 4 the formal kappa gives (2 - kappa)(2 + kappa) = 0:
        a divisor led by 2 - kappa has no quotient, for the loop or here."""
        ctx = TowerContext(G(4), G(3))
        lead = ctx.from_rational(2) - ctx.kappa
        q = Poly(ctx, [ctx.one, lead])
        p = Poly(ctx, [ctx.one, ctx.zero, ctx.lam])
        for divide in (loop_divmod, Poly.divmod):
            with pytest.raises(DivisionByZero):
                divide(p, q)


def oracle_root_product(ctx, roots):
    """prod (z - c)^m by repeated schoolbook multiplication, one linear
    factor per copy."""
    out = Poly(ctx, [ctx.one])
    for c, m in roots:
        for _ in range(m):
            out = schoolbook(out, Poly(ctx, [-c, ctx.one]))
    return out


class TestRootProductCache:
    ROOTS = [(Fr(1, 3), 2), ("kappa", 1), ("-kappa", 1), ("lam", 3), (Fr(-5, 2), 1)]

    @staticmethod
    def roots_in(ctx, spec):
        named = {"kappa": ctx.kappa, "-kappa": -ctx.kappa, "lam": ctx.lam}
        return [(named[c] if isinstance(c, str) else ctx.from_rational(c), m)
                for c, m in spec]

    def oracle(self, ctx, spec):
        return oracle_root_product(ctx, self.roots_in(ctx, spec))

    def test_permuted_roots_give_an_equal_product(self):
        rng = random.Random(5)
        want = self.oracle(TowerContext(G(2), G(3)), self.ROOTS)
        for _ in range(6):
            spec = list(self.ROOTS)
            rng.shuffle(spec)
            ctx = TowerContext(G(2), G(3))
            got = Poly.from_roots(ctx, self.roots_in(ctx, spec))
            assert got == want and got.ctx is ctx
            again = list(spec)
            rng.shuffle(again)
            assert Poly.from_roots(ctx, self.roots_in(ctx, again)) is got

    def test_a_repeated_call_returns_the_cached_product(self):
        ctx = TowerContext(G(2), G(3))
        roots = self.roots_in(ctx, self.ROOTS)
        first = Poly.from_roots(ctx, roots)
        assert Poly.from_roots(ctx, roots) is first
        assert Poly.from_roots(ctx, iter(roots)) is first
        assert first in ctx.root_products.values()

    def test_equal_contexts_do_not_share_products(self):
        one, two = TowerContext(G(2), G(3)), TowerContext(G(2), G(3))
        assert one == two and one is not two
        p = Poly.from_roots(one, self.roots_in(one, self.ROOTS))
        assert not two.root_products
        q = Poly.from_roots(two, self.roots_in(two, self.ROOTS))
        assert p == q and p is not q
        assert p.ctx is one and q.ctx is two
        assert all(c.ctx is two for c in q.coeffs)
        assert list(one.root_products.values()) == [p]
        assert list(two.root_products.values()) == [q]


class TestRootProductsOnIntegers:
    """Poly.from_roots, built on Gaussian integer lists, against one
    schoolbook product per linear factor."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # (a, b) of each context: both generators in the tower; a = -4 a square
    # in Q(i) (kappa = 2i) with lambda in the tower; both Gaussian; and
    # b = 8 a, so that lambda = 2 kappa
    CONTEXTS = {"tower": (G(2), G(3)), "kappa-gaussian": (G(-4), G(3)),
                "gaussian": (G(-4), G(Fr(9, 4))), "lambda-2kappa": (G(2), G(8))}
    _part = st.builds(Fr, st.integers(-9, 9), st.integers(1, 6))
    # a Gaussian root (0 among them), or +-kappa, +-lambda, +-(3 + kappa)
    _root = st.one_of(
        st.tuples(st.just("gauss"), st.one_of(st.just((0, 0)), st.tuples(_part, _part))),
        st.tuples(st.sampled_from(["kappa", "lambda", "3+kappa"]), st.sampled_from([1, -1])))
    _roots = st.lists(st.tuples(_root, st.integers(0, 3)), max_size=7)

    @staticmethod
    def root(ctx, spec):
        kind, arg = spec
        if kind == "gauss":
            return ctx.from_gauss(G(*arg))
        c = {"kappa": ctx.sqrt_a(), "lambda": ctx.sqrt_b(),
             "3+kappa": ctx.from_rational(3) + ctx.sqrt_a()}[kind]
        return c if arg > 0 else -c

    @given(st.sampled_from(sorted(CONTEXTS)), _roots, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_schoolbook_product(self, name, spec, rng):
        ctx = TowerContext(*self.CONTEXTS[name])
        roots = [(self.root(ctx, r), m) for r, m in spec]
        got = Poly.from_roots(ctx, roots)
        assert got == oracle_root_product(ctx, roots)
        assert_canonical_poly(got)
        assert got.degree() == sum(m for _, m in roots)
        permuted = list(roots)
        rng.shuffle(permuted)
        assert Poly.from_roots(ctx, permuted) is got

    @pytest.mark.parametrize("name", sorted(CONTEXTS))
    def test_unequal_pair_exponents_and_zero(self, name):
        """+-kappa, +-lambda with unequal exponents, the root 0 and a root
        whose square is not Gaussian, each against the oracle."""
        ctx = TowerContext(*self.CONTEXTS[name])
        k, lam, three = ctx.sqrt_a(), ctx.sqrt_b(), ctx.from_rational(3)
        for roots in ([(k, 3), (-k, 1)], [(lam, 1), (-lam, 2), (ctx.zero, 2)],
                      [(three + k, 2), (-(three + k), 1)], [(k, 2), (-lam, 1)]):
            got = Poly.from_roots(ctx, roots)
            assert got == oracle_root_product(ctx, roots)
            assert_canonical_poly(got)

    def test_a_gaussian_product_makes_no_tower_factor(self, monkeypatch):
        """z - z0 and the pairs z^2 - kappa^2, z^2 - lambda^2 (Gaussian
        squares) never build a tower z - c; kappa alone and a pair at
        3 + kappa do."""
        calls = []
        real = ratcalc._z_minus
        monkeypatch.setattr(ratcalc, "_z_minus",
                            lambda c, n: calls.append((c, n)) or real(c, n))
        ctx = TowerContext(G(2), G(3))
        z0 = ctx.from_rational(Fr(1, 4))
        Poly.from_roots(ctx, [(z0, 1), (ctx.kappa, 2), (-ctx.kappa, 2), (ctx.lam, 1),
                              (-ctx.lam, 1)])
        assert calls == []
        Poly.from_roots(ctx, [(ctx.kappa, 1)])
        assert calls == [(ctx.kappa, 1)]
        c = ctx.from_rational(3) + ctx.kappa
        Poly.from_roots(ctx, [(c, 1), (-c, 1)])
        assert len(calls) == 2 and calls[1] == (ctx.square(c), 2)


class TestNegativeExponents:
    """A negative exponent is refused with RatCalcError naming the root,
    and nothing is kept in the context's products."""

    @pytest.mark.parametrize("case", ["one", "a pair", "a net negative"])
    def test_from_roots_refuses(self, case):
        ctx = TowerContext(G(2), G(3))
        k, one = ctx.kappa, ctx.one
        roots, bad = {"one": ([(one, -1)], one), "a pair": ([(k, -1), (-k, -1)], k),
                      "a net negative": (list({k: 2, -k: -1}.items()), -k)}[case]
        with pytest.raises(RatCalcError, match=re.escape(bad.render())):
            Poly.from_roots(ctx, roots)
        assert not ctx.root_products

    def test_over_refuses(self):
        ctx = TowerContext(G(2), G(3))
        c = ctx.from_rational(Fr(1, 3))
        with pytest.raises(RatCalcError, match=re.escape(c.render())):
            RatFunc.over(Poly.constant(ctx, 1), {c: -1})
        with pytest.raises(RatCalcError):
            RatFunc.over(Poly(ctx), {ctx.kappa: 1, -ctx.kappa: -2})
        f = RatFunc.over(Poly.constant(ctx, 1), {c: 0, ctx.kappa: 1})
        assert f.roots == {ctx.kappa: 1} and f.den_degree() == 1

    def test_a_non_negative_total_is_kept(self):
        """Entries of one root add up first: (c, 2) and (c, -1) are (c, 1)."""
        ctx = TowerContext(G(2), G(3))
        c = ctx.from_rational(Fr(1, 3))
        assert Poly.from_roots(ctx, [(c, 2), (c, -1)]) == Poly(ctx, [-c, ctx.one])


class TestListConstructors:
    """constant, from_rationals, from_ints, from_gauss and x build their
    lists directly; each equals the Poly of the TowerScalars it replaces."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _q = st.one_of(st.integers(-10**30, 10**30),
                   st.builds(Fr, st.integers(-10**30, 10**30), st.integers(1, 10**6)))

    @given(st.lists(_q, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_from_rationals(self, qs):
        got = Poly.from_rationals(CTX, qs)
        assert got == Poly(CTX, [CTX.from_rational(q) for q in qs])
        assert_canonical_poly(got)
        assert Poly.from_rationals(CTX, [str(Fr(q)) for q in qs]) == got

    @given(st.lists(st.integers(-10**30, 10**30), max_size=6),
           st.integers(-10**6, 10**6).filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_from_ints(self, xs, d):
        """Integers over any non-zero denominator, a negative one too."""
        got = Poly.from_ints(CTX, list(xs), d)
        assert got == Poly(CTX, [CTX.from_rational(Fr(x, d)) for x in xs])
        assert_canonical_poly(got)

    @given(_q)
    @settings(max_examples=100, deadline=None)
    def test_constant(self, q):
        want = Poly(CTX, [CTX.from_rational(q)])
        for value in (q, str(Fr(q)), CTX.from_rational(q)):
            got = Poly.constant(CTX, value)
            assert got == want
            assert_canonical_poly(got)

    @given(st.lists(st.tuples(_q, _q), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_from_gauss(self, parts):
        gs = [G(re, im) for re, im in parts]
        got = Poly.from_gauss(CTX, gs)
        assert got == Poly(CTX, [CTX.from_gauss(g) for g in gs])
        assert_canonical_poly(got)

    def test_x_and_bad_values(self):
        assert Poly.x(CTX) == Poly(CTX, [CTX.zero, CTX.one])
        assert_canonical_poly(Poly.x(CTX))
        with pytest.raises(ValueError):
            Poly.from_rationals(CTX, ["0.5"])
        with pytest.raises(TypeError):
            Poly.constant(CTX, 0.5)
