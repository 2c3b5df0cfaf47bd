"""Independent checks that only the tests call: each one derives a fact the
package takes as given, so that a test can compare the two."""
from curvedtwobody.linode import NormalFormODE
from curvedtwobody.models import ModelParams, Potential, Space, _gamma_f
from curvedtwobody.ratcalc import Poly, RatFunc


def symmetric_power_residual(normal: NormalFormODE, v: RatFunc) -> RatFunc:
    """v''' - 4 r v' - 2 r' v; identically zero iff v solves the second
    symmetric power of y'' = r y."""
    r = normal.r
    ctx = r.ctx
    four = RatFunc.constant(ctx, 4)
    two = RatFunc.constant(ctx, 2)
    vp = v.derivative()
    vppp = vp.derivative().derivative()
    return vppp - four * r * vp - two * r.derivative() * v


def case1_coefficients(normal: NormalFormODE, phi: RatFunc) -> list[RatFunc]:
    """[phi' + phi^2 - r, 2 phi, 1]: case I's operator
    P'' + 2 phi P' + (phi' + phi^2 - r) P written out."""
    ctx = phi.ctx
    return [phi.derivative() + phi * phi - normal.r,
            RatFunc.constant(ctx, 2) * phi, RatFunc.constant(ctx, 1)]


def case2_coefficients(normal: NormalFormODE, th: RatFunc) -> list[RatFunc]:
    """[Xi, 3 Th^2 + 3 Th' - 4 r, 3 Th, 1]: case II's operator written out,
    with Xi = Th'' + Th (3 Th' + Th^2 - 4 r) - 2 r'."""
    r = normal.r
    ctx = r.ctx
    three, four = RatFunc.constant(ctx, 3), RatFunc.constant(ctx, 4)
    tp = th.derivative()
    xi = (tp.derivative() + th * (three * tp + th * th - four * r)
          - RatFunc.constant(ctx, 2) * r.derivative())
    return [xi, three * (th * th) + three * tp - four * r, three * th,
            RatFunc.constant(ctx, 1)]


def gamma_curve_identity(params: ModelParams) -> bool:
    """Exact factorization of the Gamma-trajectory denominator over the
    singular points, which models.build_system takes as given:
    sphere-Newton f^2+1 = -4(z^2-k^2)(z^2-l^2)/(k^2-l^2)^2,
    hyperbolic-Newton f^2-1 = 4(z^2-k^2)(z^2-l^2)/(k^2-l^2)^2, and the
    oscillator f, f+-1 factoring over +-lambda, +-kappa."""
    ctx = params.ctx
    k2 = ctx.from_gauss(params.kappa2)
    l2 = ctx.from_gauss(params.lambda2)
    z = RatFunc.x(ctx)
    zk = z * z - RatFunc(Poly.constant(ctx, k2))
    zl = z * z - RatFunc(Poly.constant(ctx, l2))
    d = RatFunc(Poly.constant(ctx, k2 - l2))
    fpoly = RatFunc(_gamma_f(params))
    if params.potential is Potential.NEWTON:
        if params.space is Space.SPHERE:
            lhs = fpoly * fpoly + RatFunc.constant(ctx, 1)
            rhs = RatFunc.constant(ctx, -4) * zl * zk / (d * d)
        else:
            # f-1 = 2(z^2-kappa^2)/d, f+1 = 2(z^2-lambda^2)/d
            lhs = fpoly * fpoly - RatFunc.constant(ctx, 1)
            rhs = RatFunc.constant(ctx, 4) * zl * zk / (d * d)
        return lhs == rhs
    if params.space is Space.SPHERE:
        checks = [(fpoly, -(zl / d)),
                  (fpoly + RatFunc.constant(ctx, 1), -(zk / d))]
    else:
        checks = [(fpoly, zl / d),
                  (RatFunc.constant(ctx, 1) - fpoly, -(zk / d))]
    return all(lhs == rhs for lhs, rhs in checks)
