import math
import random
import re
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedtwobody.exactfield import (GAUSS_ZERO, ContextMismatch,
                                      DegenerateTower, DivisionByZero,
                                      GaussRational, TowerContext, _gauss, _rat,
                                      gauss_sqrt, rational_sqrt)
from curvedtwobody.ratcalc import Poly


def G(re, im=0):
    return GaussRational(Fr(re), Fr(im))


# context used by the spherical-Newton reference parameters:
# kappa^2 = i/2, lambda^2 = -i/2
CTX_SN = TowerContext(G(0, Fr(1, 2)), G(0, Fr(-1, 2)))
# hyperbolic-Newton reference: kappa^2 = -1, lambda^2 = -3
CTX_HN = TowerContext(G(-1), G(-3))


class TestMakeContext:
    def test_spherical_newton_parameters(self):
        ctx = TowerContext(G(0, Fr(1, 2)), G(0, Fr(-1, 2)))
        assert ctx.a == G(0, Fr(1, 2))

    def test_hyperbolic_newton_parameters(self):
        ctx = TowerContext(G(-1), G(-3))
        assert ctx.b == G(-3)

    def test_collision_rejected(self):
        with pytest.raises(DegenerateTower):
            TowerContext(G(1), G(1))

    @pytest.mark.parametrize("a,b", [(G(0), G(1)), (G(1), G(0))])
    def test_zero_rejected(self, a, b):
        with pytest.raises(DegenerateTower):
            TowerContext(a, b)


class TestFieldOps:
    def test_kappa_squared_reduces(self):
        k = CTX_SN.kappa
        assert k * k == CTX_SN.from_gauss(G(0, Fr(1, 2)))

    def test_difference_of_squares(self):
        ctx = CTX_HN
        one = ctx.one
        k = ctx.kappa
        # (1+kappa)(1-kappa) = 1 - a = 2
        assert (one + k) * (one - k) == ctx.from_rational(2)

    def test_square_of_a_root_is_a_or_b(self):
        """ctx.square reads a or b off the context for +-kappa, +-lambda,
        collapsed or not (a = 4: kappa = 2; b/a = 4: lambda = 2 kappa),
        and multiplies any other scalar out."""
        for ctx in (CTX_SN, CTX_HN, TowerContext(G(4), G(3)), TowerContext(G(2), G(8))):
            k, lam = ctx.sqrt_a(), ctx.sqrt_b()
            for c in (k, -k, lam, -lam, ctx.from_rational(Fr(2, 3)), ctx.kappa + ctx.lam):
                assert ctx.square(c) == c * c
            assert ctx.square(-lam) == ctx.from_gauss(ctx.b)

    def test_inverse_of_kappa_lambda(self):
        # ab = (i/2)(-i/2) = 1/4, so (kappa*lambda)^-1 = 4*kappa*lambda
        kl = CTX_SN.kappa * CTX_SN.lam
        inv = kl.inverse()
        assert inv == CTX_SN.scalar(G(0), G(0), G(0), G(4))
        assert kl * inv == CTX_SN.one

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            CTX_SN.one / CTX_SN.zero

    def test_context_mixing_rejected(self):
        with pytest.raises(ContextMismatch):
            CTX_SN.one + CTX_HN.one

    def test_equal_contexts_built_apart_combine(self):
        c1, c2 = TowerContext(G(2), G(3)), TowerContext(G(2), G(3))
        assert c1 is not c2
        k1, k2 = c1.kappa, c2.kappa
        assert k1 == k2 and k1 + k2 == c1.kappa * c1.from_rational(2)
        assert k1 * c2.lam == c1.kappa * c1.lam
        assert Poly(c1, [k1, c1.one]) == Poly(c2, [k2, c2.one])

    def test_different_contexts_built_apart_rejected(self):
        c1, c2 = TowerContext(G(2), G(3)), TowerContext(G(2), G(5))
        for op in (lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x / y):
            with pytest.raises(ContextMismatch):
                op(c1.kappa, c2.kappa)
        assert c1.kappa != c2.kappa
        assert Poly(c1, [c1.one]) != Poly(c2, [c2.one])

    def test_split_tower_zero_divisor(self):
        # a = -1 = i^2 splits the kappa layer; kappa - i is a zero divisor
        bad = CTX_HN.kappa - CTX_HN.from_gauss(G(0, 1))
        assert not bad.is_zero()
        with pytest.raises(DivisionByZero):
            bad.inverse()


def random_gauss(rng, span=10):
    return GaussRational(
        Fr(rng.randint(-span, span), rng.randint(1, span)),
        Fr(rng.randint(-span, span), rng.randint(1, span)))


def random_scalar(ctx, rng):
    return ctx.scalar(random_gauss(rng), random_gauss(rng),
                      random_gauss(rng), random_gauss(rng))


class TestFieldAxioms:
    """Randomized spot checks: 1000 scalars per context."""

    @pytest.mark.parametrize("ctx,seed", [(CTX_SN, 11), (CTX_HN, 23)])
    def test_axioms(self, ctx, seed):
        rng = random.Random(seed)
        checked_inverses = 0
        for _ in range(1000):
            x = random_scalar(ctx, rng)
            y = random_scalar(ctx, rng)
            z = random_scalar(ctx, rng)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                try:
                    assert x * x.inverse() == ctx.one
                    checked_inverses += 1
                except DivisionByZero:
                    # legitimate only in a split tower (a = -1 here)
                    assert ctx is CTX_HN
        assert checked_inverses > 900

    @pytest.mark.parametrize("a,b,zero_divisor,seed", [
        # b = -1: lambda^2 + 1 = (lambda - i)(lambda + i) = 0
        (G(3), G(-1), lambda ctx: ctx.lam - ctx.from_gauss(G(0, 1)), 31),
        # ab = 16: (kappa*lambda - 4)(kappa*lambda + 4) = 0
        (G(2), G(8), lambda ctx: ctx.kappa * ctx.lam - ctx.from_rational(4), 37),
    ], ids=["b-square", "ab-square"])
    def test_inverse_by_the_norm_in_split_towers(self, a, b, zero_divisor, seed):
        """The norm vanishes exactly on the zero divisors: their multiples
        raise, and every other element times its inverse is one."""
        ctx = TowerContext(a, b)
        rng = random.Random(seed)
        zd = zero_divisor(ctx)
        assert not zd.is_zero()
        with pytest.raises(DivisionByZero):
            zd.inverse()
        for _ in range(200):
            x = random_scalar(ctx, rng)
            with pytest.raises(DivisionByZero):
                (zd * x).inverse()
            assert x * x.inverse() == ctx.one

    def test_normalization_invariant(self):
        rng = random.Random(7)
        for _ in range(200):
            x = random_scalar(CTX_SN, rng)
            y = random_scalar(CTX_SN, rng)
            for g in (x * y).coords():
                assert g.re.denominator >= 1 and g.im.denominator >= 1


class TestIsRealRational:
    def test_plain_rational(self):
        assert CTX_SN.from_rational(Fr(3, 4)).is_real_rational() == Fr(3, 4)

    def test_imaginary_unit(self):
        assert CTX_SN.from_gauss(G(0, 1)).is_real_rational() is None

    def test_alpha1_at_reference_parameters_not_real(self):
        # alpha_1 of the spherical-Newton table at alpha=2, mu=1/2, p=1, eps=0:
        # (1-mu)/(64 k^2) (p(mu-1)(l2-k2) + 4 i kappa (mu+1)) (p(l2-k2) + 4 i kappa)
        ctx = CTX_SN
        mu, p = Fr(1, 2), Fr(1)
        k2 = ctx.from_gauss(ctx.a)
        l2 = ctx.from_gauss(ctx.b)
        k = ctx.kappa
        four_i = ctx.from_gauss(G(0, 4))
        c = ctx.from_rational
        alpha1 = (c((1 - mu) / 64) / k2) \
            * (c(p * (mu - 1)) * (l2 - k2) + four_i * k * c(mu + 1)) \
            * (c(p) * (l2 - k2) + four_i * k)
        assert alpha1.is_real_rational() is None
        # and it is genuinely non-real in both kappa branches
        for branch in ((1, 1), (-1, 1)):
            assert abs(alpha1.embed_complex(branch).imag) > 1e-9


class TestEmbedComplex:
    def test_one_plus_kappa(self):
        ctx = TowerContext(G(-1), G(-3))
        v = (ctx.one + ctx.kappa).embed_complex((1, 1))
        assert abs(v - (1 + 1j)) < 1e-12

    def test_kappa_lambda_product(self):
        ctx = TowerContext(G(-1), G(-3))
        v = (ctx.kappa * ctx.lam).embed_complex((1, 1))
        assert abs(v - (-(3 ** 0.5))) < 1e-12

    def test_zero(self):
        assert CTX_SN.zero.embed_complex() == 0

    def test_ring_homomorphism(self):
        rng = random.Random(5)
        for _ in range(100):
            x = random_scalar(CTX_SN, rng, )
            y = random_scalar(CTX_SN, rng)
            lhs = (x * y).embed_complex()
            rhs = x.embed_complex() * y.embed_complex()
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) / scale < 1e-12

    def test_real_rational_embeds_real(self):
        rng = random.Random(9)
        for _ in range(50):
            q = Fr(rng.randint(-50, 50), rng.randint(1, 20))
            x = CTX_SN.from_rational(q)
            assert x.is_real_rational() == q
            for branch in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                assert abs(x.embed_complex(branch).imag) < 1e-12


FRACTIONS = st.fractions(min_value=-60, max_value=60, max_denominator=48)
PAIRS = st.tuples(FRACTIONS, FRACTIONS)
NONZERO_PAIRS = PAIRS.filter(lambda p: p != (0, 0))


def assert_canonical(g):
    assert g.d > 0 and math.gcd(g.x, g.y, g.d) == 1


class TestGaussKernel:
    """GaussRational against a reference pair of Fractions (re, im)."""

    @given(PAIRS, PAIRS, PAIRS)
    @settings(max_examples=300, deadline=None)
    def test_ring_laws_match_the_fraction_pair(self, p, q, w):
        (a, b), (c, d) = p, q
        x, y, z = GaussRational(*p), GaussRational(*q), GaussRational(*w)
        for got, want in ((x + y, (a + c, b + d)), (x - y, (a - c, b - d)),
                          (x * y, (a * c - b * d, a * d + b * c)),
                          (-x, (-a, -b))):
            assert_canonical(got)
            assert (got.re, got.im) == want
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x

    @given(PAIRS, NONZERO_PAIRS)
    @settings(max_examples=300, deadline=None)
    def test_division_matches_the_fraction_pair(self, p, q):
        (a, b), (c, d) = p, q
        n = c * c + d * d
        got = GaussRational(*p) / GaussRational(*q)
        assert_canonical(got)
        assert (got.re, got.im) == ((a * c + b * d) / n, (b * c - a * d) / n)
        assert got * GaussRational(*q) == GaussRational(*p)

    @given(PAIRS, NONZERO_PAIRS)
    @settings(max_examples=200, deadline=None)
    def test_equal_values_have_equal_coordinates_and_hash(self, p, q):
        x, y = GaussRational(*p), GaussRational(*q)
        built_apart = (x * y) / y
        assert built_apart == x and hash(built_apart) == hash(x)
        assert (built_apart.x, built_apart.y, built_apart.d) == (x.x, x.y, x.d)
        assert GaussRational(p[0]) + GaussRational(0, p[1]) == x

    @given(PAIRS)
    @settings(max_examples=200, deadline=None)
    def test_re_im_render_round_trip(self, p):
        a, b = p
        g = GaussRational(*p)
        assert_canonical(g)
        assert (g.re, g.im) == (a, b)
        assert isinstance(g.re, Fr) and isinstance(g.im, Fr)
        text = g.render()
        assert text == (f"{a.numerator}/{a.denominator}{'+' if b >= 0 else '-'}"
                        f"{abs(b.numerator)}/{b.denominator} i")
        m = re.fullmatch(r"(-?\d+/\d+)([+-])(\d+/\d+) i", text)
        assert (Fr(m[1]), Fr(m[2] + m[3])) == (a, b)
        assert g.to_complex() == complex(a) + 1j * complex(b)
        assert g.is_zero() == (p == (0, 0))

    @given(PAIRS)
    @settings(max_examples=100, deadline=None)
    def test_division_by_zero_raises(self, p):
        with pytest.raises(DivisionByZero):
            GaussRational(*p) / GaussRational(0, 0)

    @pytest.mark.parametrize("p", [(0, 0), (Fr(-6, 8), 0), (0, Fr(5, 3)),
                                   (Fr(3, 4), Fr(-7, 6)), (10**40 + 1, Fr(1, 10**20))])
    def test_negation_builds_the_canonical_triple(self, p):
        """-x negates x and y and keeps d, with no gcd: the result is
        canonical and equals the _gauss form for zero, real, imaginary and
        general Gaussians."""
        g = GaussRational(*p)
        neg = -g
        assert_canonical(neg)
        assert neg == _gauss(-g.x, -g.y, g.d) and hash(neg) == hash(_gauss(-g.x, -g.y, g.d))
        assert (neg.x, neg.y, neg.d) == (-g.x, -g.y, g.d)
        assert (neg.re, neg.im) == (-p[0], -p[1])
        assert -neg == g and neg + g == GAUSS_ZERO

    def test_zero_is_canonical(self):
        z = GaussRational(Fr(3, 4)) - GaussRational(Fr(3, 4))
        assert (z.x, z.y, z.d) == (0, 0, 1) and z == GaussRational()
        assert GaussRational("-6/8", 3).render() == "-3/4+3/1 i"


class TestFromRational:
    """from_rational builds the Gaussian of an int or a Fraction without
    parsing; it must be the canonical GaussRational(_rat(q))."""

    @staticmethod
    def check(q):
        got = CTX_HN.from_rational(q)
        want = GaussRational(_rat(q))
        assert got.is_gauss_value() is not None and got.c00 == want
        assert_canonical(got.c00)
        assert hash(got) == hash(CTX_HN.from_gauss(want))

    @given(FRACTIONS)
    @settings(max_examples=200, deadline=None)
    def test_fractions(self, q):
        self.check(q)
        self.check(-q)

    @pytest.mark.parametrize("q", [0, Fr(0), -3, 7, 10**30, Fr(-6, 8), Fr(5, 3), "-6/8", "4"])
    def test_zero_negatives_ints_and_strings(self, q):
        self.check(q)

    def test_decimals_are_refused(self):
        with pytest.raises(ValueError):
            CTX_HN.from_rational("0.5")
        with pytest.raises(TypeError):
            CTX_HN.from_rational(0.5)


#: small coordinates keep tower products and inverses cheap
SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=6)
GAUSS = st.builds(GaussRational, SMALL, SMALL)
NONZERO_GAUSS = GAUSS.filter(lambda g: not g.is_zero())
#: a coordinate that is zero about half the time, so that Gaussian scalars,
#: pure tower scalars and mixed ones all come up
COORD = st.one_of(st.just(GAUSS_ZERO), GAUSS)


@st.composite
def tower_contexts(draw):
    a = draw(NONZERO_GAUSS)
    return TowerContext(a, draw(NONZERO_GAUSS.filter(lambda g: g != a)))


@st.composite
def tower_operands(draw):
    """A context and two scalars in it; either may be Gaussian."""
    ctx = draw(tower_contexts())
    x, y = (ctx.scalar(draw(GAUSS), draw(COORD), draw(COORD), draw(COORD))
            for _ in range(2))
    return ctx, x, y


def coords_gaussian(s):
    return all(c.is_zero() for c in s.coords()[1:])


def table_product(ctx, x, y):
    """x*y through the full multiplication table, coordinate by coordinate."""
    a, b = ctx.a, ctx.b
    x0, x1, x2, x3 = x.coords()
    y0, y1, y2, y3 = y.coords()
    return ctx.scalar(x0 * y0 + a * x1 * y1 + b * x2 * y2 + a * b * x3 * y3,
                      x0 * y1 + x1 * y0 + b * (x2 * y3 + x3 * y2),
                      x0 * y2 + x2 * y0 + a * (x1 * y3 + x3 * y1),
                      x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1)


BRANCHES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def close(u, v):
    return abs(u - v) <= 1e-9 * max(1.0, abs(u), abs(v))


class TestGaussianFastPath:
    """Scalars whose kappa, lambda, kappa*lambda coordinates are zero."""

    @given(tower_operands())
    @settings(max_examples=200, deadline=None)
    def test_flag_agrees_with_coordinates_after_every_op(self, case):
        ctx, x, y = case
        results = [x, y, x + y, x - y, -x, x * y, x * x, x * y - y * x]
        if not x.is_zero():
            try:
                results.append(x.inverse())
            except DivisionByZero:
                pass
        for s in results:
            assert (s.is_gauss_value() is not None) == coords_gaussian(s)
            assert s.is_zero() == all(c.is_zero() for c in s.coords())
            want = s.c00.re if coords_gaussian(s) and s.c00.im == 0 else None
            assert s.is_real_rational() == want

    @given(tower_contexts())
    @settings(max_examples=100, deadline=None)
    def test_tower_products_that_collapse_are_gaussian(self, ctx):
        k, lam = ctx.kappa, ctx.lam
        assert k.is_gauss_value() is None and (k + lam).is_gauss_value() is None
        for got, want in ((k * k, ctx.a), (lam * lam, ctx.b),
                          ((k + lam) * (k - lam), ctx.a - ctx.b),
                          ((k * lam) * (k * lam), ctx.a * ctx.b),
                          (k - k, GAUSS_ZERO)):
            assert got.is_gauss_value() is not None
            assert got == ctx.from_gauss(want) and hash(got) == hash(ctx.from_gauss(want))
        assert (k - k).is_zero()

    @given(tower_operands())
    @settings(max_examples=200, deadline=None)
    def test_products_match_the_full_table_and_the_embedding(self, case):
        ctx, x, y = case
        for u, v in ((x, y), (ctx.from_gauss(x.c00), y),
                     (x, ctx.from_gauss(y.c00)),
                     (ctx.from_gauss(x.c00), ctx.from_gauss(y.c00))):
            got = u * v
            assert got == table_product(ctx, u, v)
            for branch in BRANCHES:
                assert close(got.embed_complex(branch),
                             u.embed_complex(branch) * v.embed_complex(branch))
                assert close((u + v).embed_complex(branch),
                             u.embed_complex(branch) + v.embed_complex(branch))

    @given(tower_contexts(), GAUSS, GAUSS)
    @settings(max_examples=200, deadline=None)
    def test_fast_path_equals_coordinatewise_construction(self, ctx, g, h):
        z = GAUSS_ZERO
        x, y = ctx.from_gauss(g), ctx.from_gauss(h)
        for got, want in ((x + y, g + h), (x - y, g - h), (x * y, g * h),
                          (-x, -g), (x, g)):
            built = ctx.scalar(want, z, z, GaussRational(0, 0))
            assert got.is_gauss_value() is not None and built.is_gauss_value() is not None
            assert got == built and hash(got) == hash(built)
            assert got.coords() == built.coords()
            assert got.render() == built.render()
        if not g.is_zero():
            assert x.inverse() == ctx.scalar(GaussRational(1) / g)

    @given(GAUSS)
    @settings(max_examples=200, deadline=None)
    def test_zero_operand_gives_the_canonical_result(self, g):
        built_zero = g - g
        for zero in (GAUSS_ZERO, GaussRational(), built_zero):
            for got in (zero + g, g + zero):
                assert got == g
                assert_canonical(got)
            for got in (zero * g, g * zero, zero * zero):
                assert (got.x, got.y, got.d) == (0, 0, 1)
        assert (built_zero.x, built_zero.y, built_zero.d) == (0, 0, 1)


def oracle_gauss_sqrt(g):
    """gauss_sqrt on Fractions: t = |g|, u = sqrt((re + t)/2) > 0 and
    v = im/(2u) for im != 0, else the real or imaginary rational root."""
    if g.is_zero():
        return GAUSS_ZERO
    if g.im == 0:
        r = rational_sqrt(g.re)
        if r is not None:
            return GaussRational(r, 0)
        r = rational_sqrt(-g.re)
        if r is not None:
            return GaussRational(0, r)
        return None
    t = rational_sqrt(g.re * g.re + g.im * g.im)
    if t is None:
        return None
    u = rational_sqrt((g.re + t) / 2)
    if u is None or u == 0:
        return None
    return GaussRational(u, g.im / (2 * u))


class TestGaussSqrt:
    @given(st.integers(-40, 40), st.integers(1, 12), st.integers(-40, 40), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_square_roundtrip(self, a, b, c, d):
        g = GaussRational(Fr(a, b), Fr(c, d))
        sq = g * g
        root = gauss_sqrt(sq)
        assert root is not None
        assert root * root == sq

    def test_nonsquare(self):
        assert gauss_sqrt(G(-3)) is None
        assert gauss_sqrt(G(2)) is None
        assert gauss_sqrt(G(0, 1)) is None  # sqrt(i)
        assert gauss_sqrt(G(-1)) == G(0, 1)

    def test_principal_branch_matches_cmath(self):
        import cmath
        for g in [G(4), G(-9), G(0, 2), G(3, 4), G(-3, -4)]:
            root = gauss_sqrt(g)
            if root is not None:
                assert abs(root.to_complex() - cmath.sqrt(g.to_complex())) < 1e-12

    @given(st.one_of(GAUSS, GAUSS.map(lambda g: g * g),
                     GAUSS.map(lambda g: -(g * g)),
                     st.builds(GaussRational, FRACTIONS, st.just(0))))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_oracle(self, g):
        """The integer root is the Fraction oracle's, on squares, non-squares
        and the negative reals (principal root on the imaginary axis)."""
        assert gauss_sqrt(g) == oracle_gauss_sqrt(g)

    def test_rational_sqrt(self):
        assert rational_sqrt(Fr(9, 4)) == Fr(3, 2)
        assert rational_sqrt(Fr(2)) is None
        assert rational_sqrt(Fr(-1)) is None


class TestRendering:
    def test_canonical_form(self):
        s = CTX_SN.scalar(G(Fr(1, 2), Fr(-1, 3)), G(2), G(0), G(1))
        text = s.render()
        assert text.startswith("(1/2-1/3 i)")
        assert "κλ" in text


def fraction_render(g):
    """The reference rendering: each part as a Fraction in lowest terms."""
    re, im = g.re, g.im
    return (f"{re.numerator}/{re.denominator}"
            f"{'+' if im >= 0 else '-'}{abs(im.numerator)}/{im.denominator} i")


class TestRenderFromIntegers:
    """GaussRational.render reduces x/d and y/d by math.gcd; the Fraction
    rendering is the reference."""

    _num = st.one_of(st.just(0), st.integers(-60, 60), st.integers(-10**40, 10**40))
    _den = st.one_of(st.integers(1, 60), st.integers(1, 10**40))

    @given(_num, _den, _num, _den)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_rendering(self, a, b, c, d):
        g = GaussRational(Fr(a, b), Fr(c, d))
        assert g.render() == fraction_render(g)

    def test_examples(self):
        for g, text in ((GaussRational("-6/8", 3), "-3/4+3/1 i"),
                        (GaussRational(), "0/1+0/1 i"),
                        (GaussRational(0, Fr(-5, 10)), "0/1-1/2 i"),
                        (GaussRational(Fr(4, 6), Fr(-1, 4)), "2/3-1/4 i"),
                        (GaussRational(-10**40, Fr(10**40, 3)),
                         f"-{10**40}/1+{10**40}/3 i")):
            assert g.render() == fraction_render(g) == text


class TestScalarHash:
    """TowerScalar keeps its hash from the first use; equal scalars built
    along different paths hash equal."""

    def test_equal_scalars_built_apart_hash_equal(self):
        for ctx in (CTX_SN, CTX_HN, TowerContext(G(2), G(3))):
            tower = ctx.scalar(G(Fr(1, 2), Fr(-1, 3)), G(2), G(0), G(1))
            gauss = ctx.from_gauss(G(Fr(3, 4), -2))
            for x in (tower, gauss, ctx.kappa, ctx.lam, ctx.zero, ctx.one):
                h = hash(x)
                for y in (ctx.zero - (ctx.zero - x), x + ctx.zero, ctx.zero + x, x * ctx.one):
                    assert y == x and y is not x
                    assert hash(y) == h
                assert hash(x) == h
            assert hash(ctx.from_gauss(G(Fr(3, 4), -2))) == hash(gauss)
            assert hash(ctx.from_rational(Fr(-7, 3))) == hash(ctx.from_gauss(G(Fr(-7, 3))))
            assert hash(ctx.scalar(G(1), G(0), G(0), G(0))) == hash(ctx.one)

    def test_the_hash_is_computed_once(self):
        x = CTX_HN.scalar(G(1), G(Fr(2, 3)), G(0, 1), G(0))
        assert x._hash is None
        h = hash(x)
        assert x._hash == h == hash(tuple(v for g in x.coords()
                                          for v in (2 * g.x, 2 * g.y, g.d)))
        assert hash(x) == h and {x: 1}[CTX_HN.scalar(G(1), G(Fr(2, 3)), G(0, 1), G(0))] == 1

    def test_roots_differing_by_a_denominator_or_by_minus_one_hash_apart(self):
        """lambda = kappa/2 (a = 4b) differs from kappa only in a
        denominator, and CPython hashes -1 and -2 alike, which once merged
        -kappa with -lambda = -2 kappa (b = 4a)."""
        half, double = TowerContext(G(8), G(2)), TowerContext(G(2), G(8))
        assert half.sqrt_b().coords() == (G(0), G(Fr(1, 2)), G(0), G(0))
        assert double.sqrt_b().coords() == (G(0), G(2), G(0), G(0))
        for ctx in (half, double):
            k, lam = ctx.sqrt_a(), ctx.sqrt_b()
            roots = [k, -k, lam, -lam]
            assert len({hash(c) for c in roots}) == 4
        ctx = CTX_HN
        for xs in ([ctx.from_rational(-1), ctx.from_rational(-2)],
                   [ctx.from_rational(Fr(1, 2)), ctx.one],
                   [ctx.from_gauss(G(0, -1)), ctx.from_gauss(G(0, -2))]):
            assert len({hash(x) for x in xs}) == len(xs)


def negation_samples():
    """Tower, Gaussian and zero scalars, the generators, and the values of
    kappa and lambda in collapsed contexts: kappa = 2 and lambda = 3i when
    a = 4 and b = -9, lambda = 2 kappa when a = 2 and b = 8."""
    square, ratio = TowerContext(G(4), G(-9)), TowerContext(G(2), G(8))
    assert square.sqrt_a().is_gauss_value() is not None
    assert square.sqrt_b().is_gauss_value() is not None
    assert ratio.sqrt_b().coords() == (G(0), G(2), G(0), G(0))
    out = []
    for ctx in (CTX_SN, CTX_HN, square, ratio):
        out += [ctx.scalar(G(Fr(1, 2), Fr(-1, 3)), G(2), G(0), G(1)),
                ctx.from_gauss(G(Fr(3, 4), -2)), ctx.zero, ctx.kappa, ctx.lam,
                ctx.sqrt_a(), ctx.sqrt_b()]
    return out


class TestNegation:
    """A scalar keeps its negation: -x is built on first use, -(-x) is x,
    and every exponent-map lookup on +-c hits by identity."""

    @pytest.mark.parametrize("x", negation_samples())
    def test_minus_minus_x_is_x(self, x):
        assert -(-x) is x
        y = -x
        assert -y is x and -(-y) is y

    @pytest.mark.parametrize("x", negation_samples())
    def test_one_negation_per_scalar(self, x):
        y = -x
        assert all(-x is y for _ in range(3))
        # a scalar equal to x but built apart keeps a negation of its own
        twin = x + x.ctx.zero
        assert twin is not x and -twin is not y and -twin == y

    @pytest.mark.parametrize("x", negation_samples())
    def test_negation_has_the_negated_coordinates(self, x):
        y = -x
        assert y.ctx is x.ctx
        assert y.coords() == tuple(GaussRational(-g.re, -g.im) for g in x.coords())
        assert (y.is_gauss_value() is None) == (x.is_gauss_value() is None)
        assert y + x == x.ctx.zero and hash(-y) == hash(x)

    def test_plus_and_minus_i_kappa_hash_apart(self):
        """With b = -a, lambda = i kappa: +-lambda differ only in imaginary
        coordinates, and a lookup of one must not meet the other."""
        ctx = TowerContext(G(2), G(-2))
        lam = ctx.sqrt_b()
        assert lam.coords() == (G(0), G(0, 1), G(0), G(0))
        assert hash(lam) != hash(-lam)
        for c in (ctx.scalar(G(0), G(0), G(0), G(0, 3)), ctx.scalar(G(0), G(0), G(0, 1), G(0))):
            assert hash(c) != hash(-c)

    def test_the_context_squares_hold_the_negated_roots(self):
        """ctx.square(-c) for c = kappa or lambda finds -c itself among
        its keys."""
        for ctx in (CTX_SN, CTX_HN, TowerContext(G(4), G(-9)), TowerContext(G(2), G(8))):
            for c in (ctx.sqrt_a(), ctx.sqrt_b()):
                assert any(key is -c for key in ctx._squares)
