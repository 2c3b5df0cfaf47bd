"""Numeric side: Lie-Poisson vector fields, trajectory integration with
invariant monitoring, geodesic base solutions, time-domain variational
equations and Poincare sections.

Integrators are plain RK4 (fixed step) and an adaptive Gragg-Bulirsch-
Stoer extrapolation step (method "rkf45", a name kept from the Fehlberg
pair it replaced) with step-size control: the local error per unit time
is held below rel_tol times the state's size.  The section steps and its
Henon crossing steps are the same adaptive step.  There is no structure
preservation, because invariant drift is itself the evidence the
acceptance suite monitors.
"""
from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .models import (DomainError, HamiltonianKind, ModelParams, Potential,
                     ReducedHamiltonian, Space, build_system, chart, hamiltonian)


class DynamicsError(Exception):
    pass


class StepFailure(DynamicsError):
    """Integration aborted (coordinate singularity or tolerance failure)."""


def bound_casimir(space: Space) -> Callable[[tuple], float]:
    """x -> p0^2 + p1^2 + p2^2 on S^2, p0^2 + p1^2 - p2^2 on H^2, for x on
    the 5-dim chart (theta, p_theta, p0, p1, p2), with the space looked up
    once."""
    if space is Space.SPHERE:
        return lambda x: x[2] * x[2] + x[3] * x[3] + x[4] * x[4]
    return lambda x: x[2] * x[2] + x[3] * x[3] - x[4] * x[4]


def bound_field(h: ReducedHamiltonian) -> Callable[[tuple], tuple]:
    """x -> x_dot = Pi grad h, with the chart and space looked up once: the
    5-dim reduced chart, or the canonical equations on the 2-dim geodesic
    chart.  A state off the chart raises StepFailure.

    This is the program's one Poisson bracket: {theta, p_theta} = 1 and on
    S^2 {p0,p1} = -p2, {p1,p2} = -p0, {p2,p0} = -p1; on H^2 {p0,p1} = p2,
    {p1,p2} = -p0, {p0,p2} = p1.  bound_casimir gives its Casimir."""
    grad = h.grad
    if h.dim != 5:
        def f(x):       # canonical pairs (q, p): q' = dh/dp, p' = -dh/dq
            try:
                g = grad(x)
            except DomainError as exc:
                raise StepFailure(str(exc)) from exc
            return tuple(v for g_q, g_p in zip(g[::2], g[1::2]) for v in (g_p, -g_q))
    elif h.params.space is Space.SPHERE:
        def f(x):
            try:
                g_t, g_pt, g0, g1, g2 = grad(x)
            except DomainError as exc:
                raise StepFailure(str(exc)) from exc
            _, _, p0, p1, p2 = x
            return (g_pt, -g_t,
                    -p2 * g1 + p1 * g2,
                    p2 * g0 - p0 * g2,
                    -p1 * g0 + p0 * g1)
    else:
        def f(x):
            try:
                g_t, g_pt, g0, g1, g2 = grad(x)
            except DomainError as exc:
                raise StepFailure(str(exc)) from exc
            _, _, p0, p1, p2 = x
            return (g_pt, -g_t,
                    p2 * g1 + p1 * g2,
                    -p2 * g0 - p0 * g2,
                    -p1 * g0 + p0 * g1)
    return f


def vector_field(h: ReducedHamiltonian, x) -> tuple:
    """x_dot at one state; bound_field(h) is the same map for many states."""
    return bound_field(h)(x)


@dataclass
class IntegrationOptions:
    step: float = 1e-3               # rk4: the step; rkf45: the first trial step
    method: str = "rk4"              # "rk4" or "rkf45" (adaptive GBS)
    rel_tol: float = 1e-12           # rkf45 local error per unit time, relative
    sample_every: int = 100          # one sample every this many accepted steps
    casimir_abort: Optional[float] = 1e-6


@dataclass
class TrajectoryReport:
    times: list[float]
    states: list[tuple]
    energy_drift: float
    casimir_drift: float
    extra_drifts: dict[str, float]
    steps: int
    rejected_steps: int
    # the smallest accepted step the controller chose: neither a first step
    # accepted at opts.step without rejection nor a landing step shortened
    # to end on t_end; the smallest accepted step when no other is left
    min_step: float


def _rk4_tableau(f, x, dt):
    """One classical RK4 step on a state of any length."""
    k1 = f(x)
    k2 = f(tuple(xi + 0.5 * dt * ki for xi, ki in zip(x, k1)))
    k3 = f(tuple(xi + 0.5 * dt * ki for xi, ki in zip(x, k2)))
    k4 = f(tuple(xi + dt * ki for xi, ki in zip(x, k3)))
    return tuple(xi + dt / 6.0 * (a + 2 * b + 2 * c + d)
                 for xi, a, b, c, d in zip(x, k1, k2, k3, k4))


def _rk4_step(f, x, dt):
    """_rk4_tableau, written out for the 5-dim chart with the same
    operations in the same order."""
    if len(x) != 5:
        return _rk4_tableau(f, x, dt)
    x0, x1, x2, x3, x4 = x
    h = 0.5 * dt
    a0, a1, a2, a3, a4 = f(x)
    b0, b1, b2, b3, b4 = f((x0 + h * a0, x1 + h * a1, x2 + h * a2,
                            x3 + h * a3, x4 + h * a4))
    c0, c1, c2, c3, c4 = f((x0 + h * b0, x1 + h * b1, x2 + h * b2,
                            x3 + h * b3, x4 + h * b4))
    d0, d1, d2, d3, d4 = f((x0 + dt * c0, x1 + dt * c1, x2 + dt * c2,
                            x3 + dt * c3, x4 + dt * c4))
    s = dt / 6.0
    return (x0 + s * (a0 + 2 * b0 + 2 * c0 + d0),
            x1 + s * (a1 + 2 * b1 + 2 * c1 + d1),
            x2 + s * (a2 + 2 * b2 + 2 * c2 + d2),
            x3 + s * (a3 + 2 * b3 + 2 * c3 + d3),
            x4 + s * (a4 + 2 * b4 + 2 * c4 + d4))


_GBS_SUBSTEPS = (2, 4, 6, 8)       # 1 + 1 + 3 + 5 + 7 = 17 field evaluations


def _gbs_tableau(f, x, dt):
    """One Gragg-Bulirsch-Stoer step on a state of any length: the
    extrapolated state and the size of its difference from the next lower
    extrapolant (R. Bulirsch and J. Stoer, Numer. Math. 8 (1966) 1;
    Hairer, Norsett and Wanner, Solving ODEs I, II.9).

    Modified midpoint rules over n = 2, 4, 6 and 8 substeps of h = dt/n,
    sharing f(x), are extrapolated to dt = 0 in dt^2 by Aitken-Neville.
    Each rule's increment from x, 2h (f(z_1) + f(z_3) + ... + f(z_n-1)),
    is summed from the field values, not read off a state, so the
    estimate's rounding scales with dt and a short step is not rejected
    for it."""
    f0 = f(x)
    table = []                      # the last row of the Neville table
    for i, n in enumerate(_GBS_SUBSTEPS):
        h = dt / n
        h2 = h + h
        z_even, z = x, [a + h * v for a, v in zip(x, f0)]
        odd = [f(z)]
        for _ in range(n // 2 - 1):
            z_even = [a + h2 * v for a, v in zip(z_even, odd[-1])]
            z = [a + h2 * v for a, v in zip(z, f(z_even))]
            odd.append(f(z))
        row = [[h2 * sum(v) for v in zip(*odd)]]
        for j, lower in enumerate(table):
            c = 1.0 / ((n / _GBS_SUBSTEPS[i - j - 1]) ** 2 - 1.0)
            row.append([a + c * (a - b) for a, b in zip(row[-1], lower)])
        table = row
    best = table[-1]
    err = max([abs(a - b) for a, b in zip(best, table[-2])])
    return tuple([a + b for a, b in zip(x, best)]), err


def _gbs_step(f, x, dt):
    """_gbs_tableau, written out for the 5-dim chart with the same
    operations in the same order, so the state and error are the same; a
    state of any other length (Henon's, the geodesic chart's) runs it."""
    if len(x) != 5:
        return _gbs_tableau(f, x, dt)
    x0, x1, x2, x3, x4 = x
    f0, f1, f2, f3, f4 = f(x)
    table = []
    for i, n in enumerate(_GBS_SUBSTEPS):
        h = dt / n
        h2 = h + h
        e0, e1, e2, e3, e4 = x
        z0, z1, z2, z3, z4 = (x0 + h * f0, x1 + h * f1, x2 + h * f2,
                              x3 + h * f3, x4 + h * f4)
        g = f((z0, z1, z2, z3, z4))
        odd = [g]
        for _ in range(n // 2 - 1):
            g0, g1, g2, g3, g4 = g
            e0, e1, e2, e3, e4 = (e0 + h2 * g0, e1 + h2 * g1, e2 + h2 * g2,
                                  e3 + h2 * g3, e4 + h2 * g4)
            g0, g1, g2, g3, g4 = f((e0, e1, e2, e3, e4))
            z0, z1, z2, z3, z4 = (z0 + h2 * g0, z1 + h2 * g1, z2 + h2 * g2,
                                  z3 + h2 * g3, z4 + h2 * g4)
            g = f((z0, z1, z2, z3, z4))
            odd.append(g)
        # sum(), not a + b + ...: from Python 3.12 it compensates rounding
        a0, a1, a2, a3, a4 = map(sum, zip(*odd))
        a0, a1, a2, a3, a4 = h2 * a0, h2 * a1, h2 * a2, h2 * a3, h2 * a4
        row = [(a0, a1, a2, a3, a4)]
        for j, (b0, b1, b2, b3, b4) in enumerate(table):
            c = 1.0 / ((n / _GBS_SUBSTEPS[i - j - 1]) ** 2 - 1.0)
            a0, a1, a2, a3, a4 = (a0 + c * (a0 - b0), a1 + c * (a1 - b1),
                                  a2 + c * (a2 - b2), a3 + c * (a3 - b3),
                                  a4 + c * (a4 - b4))
            row.append((a0, a1, a2, a3, a4))
        table = row
    b0, b1, b2, b3, b4 = table[-2]
    err = max([abs(a0 - b0), abs(a1 - b1), abs(a2 - b2), abs(a3 - b3),
               abs(a4 - b4)])
    return (x0 + a0, x1 + a1, x2 + a2, x3 + a3, x4 + a4), err


def _require_positive(**values: float):
    for name, v in values.items():
        if not 0 < v < math.inf:
            raise DynamicsError(f"{name} must be positive and finite, got {v}")


def _require_finite(name: str, values: tuple):
    if not all(map(math.isfinite, values)):
        raise DynamicsError(f"{name} must be finite, got {values}")


def _gbs_advance(f, x, t: float, t_end: float, dt: float, rel_tol: float):
    """One accepted GBS step from x at time t, tried first at dt:
    (x_new, t_new, dt_taken, dt_next, rejected).

    A step is accepted when its error estimate is at most
    rel_tol * max(|x|_inf, 1) * dt, so the error per unit time, not per
    step, is controlled.  A rejected step and the next trial step are
    scaled by 0.9 (tol/err)^(1/6), at most 5x down and 5x up; a trial step
    whose field evaluations leave the chart is rejected and cut 5x.  A
    step still failing below 1e-12 raises StepFailure.  When at most 1e-9
    of dt would be left before t_end, the first try is t_end - t instead,
    stretched or cut short so that no sliver step follows, and t_new is
    then t_end itself."""
    last = t_end - t <= dt * (1 + 1e-9)
    if last:
        dt = t_end - t
    scale = max(max(abs(v) for v in x), 1.0)
    rejected = 0
    while True:
        tol = rel_tol * scale * dt
        try:
            x_new, err = _gbs_step(f, x, dt)
        except StepFailure as exc:
            if dt < 1e-12:
                raise StepFailure(f"trial step {dt:.3g} left the chart: {exc}") from exc
            factor = 0.2
        else:
            if err <= tol:
                break
            if dt < 1e-12:
                raise StepFailure(f"error {err:.3e} above rel_tol {rel_tol:g} "
                                  f"at step {dt:.3g}")
            factor = max(0.2, 0.9 * (tol / err) ** (1 / 6))
        rejected += 1
        dt *= factor
        last = False
    dt_next = dt * (min(5.0, 0.9 * (tol / err) ** (1 / 6)) if err else 5.0)
    return x_new, t_end if last else t + dt, dt, dt_next, rejected


def integrate(h: ReducedHamiltonian, x0, t_end: float,
              opts: Optional[IntegrationOptions] = None,
              extra_integrals: Optional[dict[str, Callable]] = None) -> TrajectoryReport:
    """Fixed-step RK4 (default) or, for method "rkf45", adaptive GBS steps,
    with drift monitoring.

    GBS starts from opts.step and steps under _gbs_advance's control,
    which holds the local error per unit time below opts.rel_tol.  Drift
    metrics compare against the initial values of the Hamiltonian, the
    Casimir (5-dim charts), and any registered extra integrals.  A sample
    is kept every sample_every accepted steps and at t_end.  The last step
    ends on t_end: when at most 1e-9 of a step would be left over, the
    current step is stretched to t_end instead of taking a sliver step.
    A non-finite initial state is refused, and a step whose energy is not
    finite raises StepFailure.  The energy, the chart's Casimir, the options
    and the drift denominators max(|e0|, 1e-30), max(|c0|, 1e-30) are bound
    once per run."""
    opts = opts or IntegrationOptions()
    _require_positive(step=opts.step, t_end=t_end, rel_tol=opts.rel_tol)
    if not (isinstance(opts.sample_every, int) and opts.sample_every >= 1):
        raise DynamicsError(
            f"sample_every must be an integer of at least 1, got {opts.sample_every}")
    if opts.method not in ("rk4", "rkf45"):
        raise DynamicsError(f"unknown method {opts.method!r}")
    rk4 = opts.method == "rk4"
    extra_integrals = extra_integrals or {}
    x = tuple(float(v) for v in x0)
    _require_finite("initial state", x)
    f = bound_field(h)
    value = h.value
    c_of = bound_casimir(h.params.space) if h.dim == 5 else None  # None: no Casimir
    step, rel_tol, sample_every = opts.step, opts.rel_tol, opts.sample_every
    abort = opts.casimir_abort

    try:
        e0 = value(x)
    except DomainError as exc:
        raise StepFailure(f"initial state outside the chart: {exc}") from exc
    c0 = c_of(x) if c_of is not None else 0.0
    e_scale, c_scale = max(abs(e0), 1e-30), max(abs(c0), 1e-30)
    extras0 = {name: fn(x) for name, fn in extra_integrals.items()}
    times = [0.0]
    states = [x]
    e_drift = 0.0
    c_drift = 0.0
    x_drifts = {name: 0.0 for name in extras0}

    t = 0.0
    k = 0                   # RK4: t = k * dt keeps rounding off the sum
    steps = rejected = 0
    min_step = min_accepted = math.inf
    dt = step
    while t < t_end:
        trial = dt
        try:
            if rk4:
                last = t_end - t <= dt * (1 + 1e-9)     # as in _gbs_advance
                dt_eff = t_end - t if last else dt
                x = _rk4_step(f, x, dt_eff)
                k += 1
                t_new = t_end if last else k * dt
            else:
                x, t_new, dt_eff, dt, n = _gbs_advance(f, x, t, t_end, dt, rel_tol)
                rejected += n
                last = t_new == t_end
        except (DomainError, StepFailure, ValueError, OverflowError) as exc:
            raise StepFailure(
                f"integration failed at t={t:.6g}: {exc}") from exc
        t = t_new
        if dt_eff < min_accepted:
            min_accepted = dt_eff
        if dt_eff < min_step and not (last and dt_eff < trial) \
                and (steps or dt_eff != step):
            min_step = dt_eff
        steps += 1
        try:
            e = value(x)
        except DomainError as exc:
            raise StepFailure(f"state left the chart at t={t:.6g}: {exc}") from exc
        if not math.isfinite(e):
            raise StepFailure(f"energy {e} is not finite at t={t:.6g}")
        e_drift = max(e_drift, abs(e - e0) / e_scale)
        if c_of is not None:
            c_drift = max(c_drift, abs(c_of(x) - c0) / c_scale)
            if abort is not None and c_drift > abort:
                raise StepFailure(
                    f"Casimir drift {c_drift:.3e} beyond {abort:.1e} "
                    f"at t={t:.6g}: integration is untrustworthy")
        for name, fn in extra_integrals.items():
            v = fn(x)
            x_drifts[name] = max(x_drifts[name],
                                 abs(v - extras0[name]) / max(abs(extras0[name]), 1e-30))
        if steps % sample_every == 0 or last:
            times.append(t)
            states.append(x)
    if min_step == math.inf:
        min_step = min_accepted
    return TrajectoryReport(times, states, e_drift, c_drift, x_drifts, steps,
                            rejected, min_step)


# ---------------------------------------------------------------------------
# geodesic base trajectory and the time-domain variational equations
# ---------------------------------------------------------------------------


def gamma_initial_state(params: ModelParams, theta0: float, branch: int = 1) -> tuple:
    """(theta0, p_theta0) on the geodesic-solution energy surface fixed by eps.

    The base curve has p0 = p, p1 = p2 = 0 and its (theta, p_theta) motion is
    governed by the 1-dof Hamiltonian; eps selects the level through
    f(z) = cot/coth/tan^2/tanh^2(theta)."""
    s, mu, p, eps = map(float, (params.strength, params.mu, params.p, params.eps))
    _, sin, cos, tan, _ = chart(params.space)
    if params.potential is Potential.NEWTON:
        sn = sin(theta0)
        if sn == 0:
            raise StepFailure(f"theta0={theta0} is a pole of the Newton potential")
        f0 = cos(theta0) / sn
        z2 = 2 * mu * (eps + f0) / s
    else:
        f0 = tan(theta0) ** 2
        z2 = mu * (2 * eps - f0) / s
    if z2 < 0:
        raise StepFailure(
            f"theta0={theta0} is not on the eps={eps} level (z^2 = {z2:.3g} < 0)")
    z = branch * math.sqrt(z2)
    return (theta0, s * z - mu * p)


def gamma_trajectory(params: ModelParams, theta0: float, t_end: float,
                     step: float = 1e-3, branch: int = 1,
                     sample_every: int = 10) -> TrajectoryReport:
    """Integrate the 1-dof geodesic-solution Hamiltonian from theta0."""
    h0 = hamiltonian(HamiltonianKind.GAMMA_RESTRICTION, params)
    x0 = gamma_initial_state(params, theta0, branch)
    opts = IntegrationOptions(step=step, sample_every=sample_every)
    return integrate(h0, x0, t_end, opts)


def bound_nve_rhs(params: ModelParams) -> Callable[..., tuple[float, float]]:
    """(theta, p_theta, p1, p2) -> right-hand side of the time-domain normal
    variational equations, with mu, p and the chart looked up once."""
    mu, p = float(params.mu), float(params.p)
    _, sin, cos, _, sign = chart(params.space)

    def rhs(theta, p_theta, p1, p2):
        sn = sin(theta)
        ct = cos(theta) / sn
        # S^2: (2p + p_theta - p/(mu sin^2)) p2; H^2: -(2p + p_theta + p/(mu sinh^2)) p2
        return (-p * ct * p1 - sign * (2 * p + p_theta + sign * p / (mu * sn * sn)) * p2,
                -p_theta * p1 + p * ct * p2)
    return rhs


def nve_time_domain(params: ModelParams, gamma_report: TrajectoryReport,
                    initial_variation: tuple[float, float],
                    step: float = 1e-3) -> list[tuple[float, float, float]]:
    """Evolve (p1, p2) along the supplied geodesic base trajectory.

    The base curve is re-integrated jointly with the linear variational
    system (same RK4 step), and the variation is sampled at the supplied
    report's times.  A non-finite variation is refused, at the start and
    after every step.  The right-hand side is bound once per run."""
    _require_positive(step=step)
    _require_finite("initial variation", tuple(float(v) for v in initial_variation))
    base_field = bound_field(hamiltonian(HamiltonianKind.GAMMA_RESTRICTION, params))
    rhs = bound_nve_rhs(params)

    def f(x):
        theta, pt, p1, p2 = x
        return base_field((theta, pt)) + rhs(theta, pt, p1, p2)

    x = gamma_report.states[0][:2] + tuple(float(v) for v in initial_variation)
    out = [(0.0, x[2], x[3])]
    t = 0.0
    for target in gamma_report.times[1:]:
        while t < target - 1e-12:
            dt = min(step, target - t)
            x = _rk4_step(f, x, dt)
            t += dt
            if not (math.isfinite(x[2]) and math.isfinite(x[3])):
                raise StepFailure(f"variation {x[2:]} is not finite at t={t:.6g}")
        out.append((t, x[2], x[3]))
    return out


def nve_chain_rule_residual(params: ModelParams, base: TrajectoryReport,
                            variation: list[tuple[float, float, float]]) -> float:
    """Largest relative mismatch between the time-domain variational
    equations along ``base`` and the exact z-domain system pulled back by
    d/dt = (dz/dt) d/dz, with z = (p_theta + mu p)/strength."""
    system = build_system(params)
    s, mu, p = map(float, (params.strength, params.mu, params.p))
    grad = hamiltonian(HamiltonianKind.GAMMA_RESTRICTION, params).grad
    tan = chart(params.space)[3]
    rhs = bound_nve_rhs(params)
    worst = 0.0
    for (theta, pt), (_, v1, v2) in zip(base.states, variation):
        z = complex((pt + mu * p) / s, 0)
        zdot = -grad((theta, pt))[0] / s      # p_theta' = -dV/dtheta
        a_val = system.A.embed_complex(z).real
        b_val = system.B.embed_complex(z).real
        c_val = system.C.embed_complex(z).real
        w = 1.0 if system.weight is None else tan(theta)
        dt1, dt2 = rhs(theta, pt, v1, v2)
        zd1 = (a_val * v1 + b_val * w * v2) * zdot
        zd2 = (c_val * w * v1 - a_val * v2) * zdot
        scale = max(1.0, abs(dt1), abs(dt2))
        worst = max(worst, abs(dt1 - zd1) / scale, abs(dt2 - zd2) / scale)
    return worst


# ---------------------------------------------------------------------------
# Poincare sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionPoint:
    t: float
    state: tuple
    crossing_index: int


MAX_SECTION_POINTS = 100000     # the most crossings a section keeps in memory


def poincare_section(h: ReducedHamiltonian, x0, t_end: float,
                     coordinate: int = 3, value: float = 0.0,
                     direction: int = 1,
                     step: float = IntegrationOptions.step) -> list[SectionPoint]:
    """Crossings of x[coordinate] = value in (0, t_end] with the requested
    sign of the derivative (direction 1: increasing, -1: decreasing; any
    other direction raises DynamicsError), the first MAX_SECTION_POINTS of
    them.

    GBS steps under _gbs_advance's control bracket each crossing: the
    first is tried at step, each holds its local error per unit time below
    IntegrationOptions.rel_tol, and the last lands on t_end, so no crossing
    after t_end is reported.  One GBS step of Henon's system
    d(x, t)/dx_k = (f/f_k, 1/f_k) over value - x_k from the bracket's start
    then lands on the plane (M. Henon, Physica D 5 (1982) 412), and
    x[coordinate] is set to value in the reported state.  A crossing time
    outside its bracket raises StepFailure.  The Henon step is held to the
    steps' rule, its error at most rel_tol * max(|x|_inf, 1) times the time
    it spans; when it misses or leaves the chart, the bracket is tried
    again at half its length, and below 1e-12 the section raises
    StepFailure."""
    _require_positive(step=step)
    if not 0 <= t_end < math.inf:       # a zero horizon has no crossings
        raise DynamicsError(f"t_end must be non-negative and finite, got {t_end}")
    x = tuple(float(v) for v in x0)
    _require_finite("initial state", x)
    if not 0 <= coordinate < len(x):
        raise DynamicsError(
            f"coordinate must lie in [0, {len(x)}), got {coordinate}")
    if not math.isfinite(value):
        raise DynamicsError(f"value must be finite, got {value}")
    if direction not in (1, -1):
        raise DynamicsError(f"direction must be 1 or -1, got {direction!r}")
    f = bound_field(h)
    rel_tol = IntegrationOptions.rel_tol

    def henon(y):
        xdot = f(y[:-1])
        dt_dxk = 1.0 / xdot[coordinate]
        return tuple(v * dt_dxk for v in xdot) + (dt_dxk,)

    out = []
    t, dt = 0.0, step
    s_prev = x[coordinate] - value
    while t < t_end and len(out) < MAX_SECTION_POINTS:
        try:
            x_new, t_new, dt_taken, dt, _ = _gbs_advance(f, x, t, t_end, dt,
                                                         rel_tol)
            s_new = x_new[coordinate] - value
            if s_prev * s_new < 0 and (s_new - s_prev) * direction > 0:
                try:
                    y, err = _gbs_step(henon, x + (t,), -s_prev)
                except StepFailure as exc:
                    miss = f"left the chart ({exc})"
                else:
                    if not t <= y[-1] <= t_new:
                        raise StepFailure(f"crossing time {y[-1]!r} outside its "
                                          f"step [{t!r}, {t_new!r}]")
                    tol = rel_tol * max(max(abs(v) for v in x), 1.0) * (y[-1] - t)
                    miss = None if err <= tol else \
                        f"error {err:.3e} above rel_tol {rel_tol:g}"
                if miss:
                    if dt_taken < 1e-12:
                        raise StepFailure(f"Henon step {miss} at step {dt_taken:.3g}")
                    dt = dt_taken / 2
                    continue
                state = y[:coordinate] + (value,) + y[coordinate + 1:-1]
                out.append(SectionPoint(y[-1], state, len(out)))
        except (StepFailure, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise StepFailure(f"section failed at t={t:.6g}: {exc}") from exc
        x, t, s_prev = x_new, t_new, s_new
    return out


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _atomic_write(path: str, data: bytes):
    """Write data to path through a temporary file beside it and os.replace.
    A failure leaves no temporary file and is raised as an OSError that
    names path, not the temporary file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), path) from exc
        raise


def _write_csv(path: str, header: str, rows: Iterable[tuple]):
    """header, then one line per row, each number to 17 significant digits."""
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def _padded(state) -> tuple:
    """A state on any chart as the five columns theta .. p2, zero-filled."""
    return tuple(state) + (0.0,) * (5 - len(state))


def trajectory_to_csv(report: TrajectoryReport, path: str):
    _write_csv(path, "t,theta,p_theta,p0,p1,p2",
               ((t,) + _padded(x) for t, x in zip(report.times, report.states)))


def section_to_csv(points: Sequence[SectionPoint], path: str):
    _write_csv(path, "t,theta,p_theta,p0,p1,p2,crossing_index",
               ((pt.t,) + _padded(pt.state) + (pt.crossing_index,) for pt in points))
