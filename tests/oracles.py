"""Independent checks that only the tests call: each one derives a fact the
package takes as given, so that a test can compare the two."""
from curvedtwobody.dynamics import gamma_initial_state
from curvedtwobody.linode import NormalFormODE
from curvedtwobody.models import (ModelParams, Potential,
                                  ReducedHamiltonian, Space, _gamma_f, _zero, chart,
                                  potential)
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


# ---------------------------------------------------------------------------
# numeric Hamiltonians and steps the program no longer runs itself
# ---------------------------------------------------------------------------


def bracket_field(space: Space, grad):
    """x -> Pi(x) grad(x) on the 5-dim chart, the Poisson bracket applied to
    a gradient as its rows, written per space: {theta, p_theta} = 1 and on
    S^2 {p0,p1} = -p2, {p1,p2} = -p0, {p2,p0} = -p1; on H^2 {p0,p1} = p2,
    {p1,p2} = -p0, {p0,p2} = p1.  The program's field writes this
    composition out once for both spaces (models._reduced)."""
    if space is Space.SPHERE:
        def f(x):
            g_t, g_pt, g0, g1, g2 = grad(x)
            _, _, p0, p1, p2 = x
            return (g_pt, -g_t,
                    -p2 * g1 + p1 * g2,
                    p2 * g0 - p0 * g2,
                    -p1 * g0 + p0 * g1)
    else:
        def f(x):
            g_t, g_pt, g0, g1, g2 = grad(x)
            _, _, p0, p1, p2 = x
            return (g_pt, -g_t,
                    p2 * g1 + p1 * g2,
                    -p2 * g0 - p0 * g2,
                    -p1 * g0 + p0 * g1)
    return f


def composed_field(h: ReducedHamiltonian):
    """The reference for h.field: bracket_field on h.grad."""
    return bracket_field(h.params.space, h.grad)


def composed_value(params: ModelParams, include_potential: bool = True):
    """The reference for h.value: the chart check, then the kinetic and
    coupling parts and models.potential's V, with V = 0 unless
    include_potential."""
    check, _, sin, cos, _, sign = chart(params.space)
    v = potential(params)[0] if include_potential else _zero
    mu = float(params.mu)

    def value(x):
        theta, pt, p0, p1, p2 = x
        check(theta)
        sn = sin(theta)
        ct = cos(theta) / sn
        return ((pt * pt + p2 * p2 / (sn * sn)) / (2 * mu)
                + (pt * p0 + sign * p2 * p2 + p1 * p2 * ct) + v(theta))
    return value


def _composed(params: ModelParams, value, grad) -> ReducedHamiltonian:
    return ReducedHamiltonian(params, value, grad, bracket_field(params.space, grad))


def _kinetic(params: ModelParams, v, vp):
    """(p_theta^2 + p2^2/sin^2 theta)/(2 mu) + V: the free part S1 (v = vp =
    _zero) or the central motion."""
    check, _, sin, cos, _, _ = chart(params.space)
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
    check, _, sin, cos, _, sign = chart(params.space)
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


def free_part_s1(params: ModelParams) -> ReducedHamiltonian:
    """The kinetic part of the free reduced Hamiltonian, an integral of it."""
    return _composed(params, *_kinetic(params, _zero, _zero))


def free_part_s2(params: ModelParams) -> ReducedHamiltonian:
    """The coupling part of the free reduced Hamiltonian, an integral of it."""
    return _composed(params, *_coupling(params))


def central_motion_hamiltonian(params: ModelParams) -> ReducedHamiltonian:
    """The m1 = infinity system: one body in the fixed central potential,
    on (theta, p_theta, p0, p1, p2).

    Only (theta, p_theta, p2) enter, so p2 is the extra integral."""
    return _composed(params, *_kinetic(params, *potential(params)))


def gamma_restriction(params: ModelParams, include_potential: bool = True):
    """(value, grad) of p_theta^2/(2 mu) + p p_theta + V(theta), the full
    Hamiltonian restricted to Gamma (p0 = p, p1 = p2 = 0), on the canonical
    chart (theta, p_theta)."""
    check = chart(params.space)[0]
    mu, p = float(params.mu), float(params.p)
    v, vp = potential(params) if include_potential else (_zero, _zero)

    def value(x):
        theta, pt = x
        check(theta)
        return pt * pt / (2 * mu) + p * pt + v(theta)

    def grad(x):
        theta, pt = x
        check(theta)
        return (vp(theta), pt / mu + p)
    return value, grad


def rk4_tableau(f, x, dt):
    """One classical RK4 step on a state of any length."""
    k1 = f(x)
    k2 = f(tuple(xi + 0.5 * dt * ki for xi, ki in zip(x, k1)))
    k3 = f(tuple(xi + 0.5 * dt * ki for xi, ki in zip(x, k2)))
    k4 = f(tuple(xi + dt * ki for xi, ki in zip(x, k3)))
    return tuple(xi + dt / 6.0 * (a + 2 * b + 2 * c + d)
                 for xi, a, b, c, d in zip(x, k1, k2, k3, k4))


def gamma_reference(params: ModelParams, theta0: float, t_end: float,
                    step: float = 1e-3, branch: int = 1, sample_every: int = 10):
    """(times, states, energy_drift) of Gamma integrated on its own chart:
    canonical equations of gamma_restriction, rk4_tableau steps ending at
    k step and the last stretched onto t_end as dynamics.integrate's are,
    a sample every sample_every steps and at t_end, and the largest
    relative energy change over every step."""
    value, grad = gamma_restriction(params)

    def f(x):       # theta' = dh/dp_theta, p_theta' = -dh/dtheta
        g_q, g_p = grad(x)
        return (g_p, -g_q)

    x = gamma_initial_state(params, theta0, branch)
    e0 = value(x)
    scale = max(abs(e0), 1e-30)
    times, states, drift = [0.0], [x], 0.0
    t, k = 0.0, 0
    while t < t_end:
        last = t_end - t <= step * (1 + 1e-9)
        x = rk4_tableau(f, x, t_end - t if last else step)
        k += 1
        t = t_end if last else k * step
        drift = max(drift, abs(value(x) - e0) / scale)
        if k % sample_every == 0 or last:
            times.append(t)
            states.append(x)
    return times, states, drift


def nve_rhs(params: ModelParams):
    """(theta, p_theta, p1, p2) -> the time-domain normal variational
    equations along Gamma, linearised by hand: p1' = -p cot p1 - sign (2 p
    + p_theta + sign p/(mu sin^2)) p2 and p2' = -p_theta p1 + p cot p2."""
    mu, p = float(params.mu), float(params.p)
    _, _, sin, cos, _, sign = chart(params.space)

    def rhs(theta, p_theta, p1, p2):
        sn = sin(theta)
        ct = cos(theta) / sn
        # S^2: (2p + p_theta - p/(mu sin^2)) p2; H^2: -(2p + p_theta + p/(mu sinh^2)) p2
        return (-p * ct * p1 - sign * (2 * p + p_theta + sign * p / (mu * sn * sn)) * p2,
                -p_theta * p1 + p * ct * p2)
    return rhs
