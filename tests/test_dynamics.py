import dataclasses
import math
import random
from fractions import Fraction as Fr
from types import SimpleNamespace

import pytest

from curvedtwobody import dynamics
from curvedtwobody.dynamics import (DynamicsError, IntegrationOptions,
                                    SectionPoint, StepFailure, bound_casimir,
                                    gamma_initial_state, gamma_trajectory,
                                    integrate, nve_chain_rule_residual,
                                    nve_time_domain, poincare_section,
                                    section_to_csv, trajectory_to_csv,
                                    vector_field)
from curvedtwobody.models import (HamiltonianKind, Potential, Space,
                                  derive_params, hamiltonian, potential)
from conftest import reference_params
from oracles import (bracket_field, central_motion_hamiltonian, composed_field,
                     composed_value, free_part_s1, free_part_s2, gamma_reference,
                     nve_rhs, rk4_tableau)
from test_acceptance import BOUNDED_ORBITS, CONSISTENCY_RUNS, drift


def sn_params(**overrides):
    kw = dict(strength=Fr(1, 4), mu=Fr(1, 2), p=Fr(1, 10), eps=Fr(0))
    kw.update(overrides)
    return derive_params(Space.SPHERE, Potential.NEWTON, **kw)


def sympy_bracket(space):
    """The coordinates and the Lie-Poisson bivector Pi on (theta, p_theta,
    p0, p1, p2), written down apart from dynamics.vector_field."""
    import sympy as sp
    coords = list(sp.symbols("theta p_theta p0 p1 p2"))
    _, _, p0, p1, p2 = coords
    s = 1 if space is Space.SPHERE else -1
    pi = sp.zeros(5, 5)
    pi[0, 1], pi[1, 0] = 1, -1
    pi[2, 3], pi[3, 2] = -s * p2, s * p2
    pi[3, 4], pi[4, 3] = -p0, p0
    pi[2, 4], pi[4, 2] = p1, -p1
    return coords, pi


def full_params(space):
    return derive_params(space, Potential.NEWTON, Fr(1, 4), Fr(1, 2), Fr(1, 10),
                         Fr(0) if space is Space.SPHERE else Fr(-2))


def full_hamiltonian(space):
    kind = HamiltonianKind.FULL_SPHERE if space is Space.SPHERE \
        else HamiltonianKind.FULL_HYPERBOLIC
    return hamiltonian(kind, full_params(space))


def orbit_hamiltonian(space, pot, args):
    kind = HamiltonianKind.FULL_SPHERE if space is Space.SPHERE \
        else HamiltonianKind.FULL_HYPERBOLIC
    return hamiltonian(kind, derive_params(space, pot, **args))


def max_rel_diff(u, v):
    """Largest componentwise difference relative to the larger state."""
    return max(abs(a - b) for a, b in zip(u, v)) / max(map(abs, u + v))


def bracket_of_the_oracle(space, x):
    """Pi(x) as the oracle's bracket_field applies it: column b is x_dot for
    h = x_b."""
    columns = []
    for b in range(5):
        grad = tuple(float(a == b) for a in range(5))
        columns.append(bracket_field(space, lambda x, g=grad: g)(x))
    return [[columns[b][a] for b in range(5)] for a in range(5)]


class TestPoissonBracket:
    def test_antisymmetry(self):
        rng = random.Random(1)
        for space in Space:
            for _ in range(20):
                x = tuple(rng.uniform(-2, 2) for _ in range(5))
                m = bracket_of_the_oracle(space, x)
                for a in range(5):
                    for b in range(5):
                        assert m[a][b] == -m[b][a]

    def test_jacobi_identity_symbolic(self):
        """One-time check: the Jacobiator of the bivector vanishes on all
        coordinate triples, hence on all functions."""
        import sympy as sp
        for space in Space:
            coords, pi = sympy_bracket(space)
            for a in range(5):
                for b in range(5):
                    for c in range(5):
                        jac = sum(
                            pi[a, d] * sp.diff(pi[b, c], coords[d])
                            + pi[b, d] * sp.diff(pi[c, a], coords[d])
                            + pi[c, d] * sp.diff(pi[a, b], coords[d])
                            for d in range(5))
                        assert sp.simplify(jac) == 0

    def test_casimir_in_the_kernel_symbolic(self):
        """Pi grad C = 0 for the program's Casimir on both spaces."""
        import sympy as sp
        for space in Space:
            coords, pi = sympy_bracket(space)
            c = bound_casimir(space)(coords)
            grad = sp.Matrix([sp.diff(c, v) for v in coords])
            assert sp.expand(pi * grad) == sp.zeros(5, 1)

    def test_jacobi_on_quadratic_functions(self):
        import sympy as sp
        for space in Space:
            coords, pi = sympy_bracket(space)
            th, pt, p0, p1, p2 = coords

            def bracket(f, g):
                return sum(pi[a, b] * sp.diff(f, coords[a]) * sp.diff(g, coords[b])
                           for a in range(5) for b in range(5))

            f, g, h = pt * p0, p1 * p2, th * th + p2 * p2
            jac = (bracket(f, bracket(g, h)) + bracket(g, bracket(h, f))
                   + bracket(h, bracket(f, g)))
            assert sp.simplify(jac) == 0

    def test_casimir_derivative_vanishes(self):
        rng = random.Random(7)
        for space in Space:
            h = full_hamiltonian(space)
            for _ in range(30):
                x = (rng.uniform(0.5, 1.2), rng.uniform(-0.5, 0.5),
                     rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
                xdot = vector_field(h, x)
                # dC/dt = grad C . xdot, computed analytically
                _, _, p0, p1, p2 = x
                sgn = 1.0 if space is Space.SPHERE else -1.0
                dc = 2 * p0 * xdot[2] + 2 * p1 * xdot[3] + sgn * 2 * p2 * xdot[4]
                assert abs(dc) < 1e-13


class TestVectorField:
    def test_gamma_plane_is_invariant(self):
        # V=0, p1=p2=0, p0=p: theta_dot = p_theta/mu + p, others stay put
        params = sn_params()
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params, include_potential=False)
        p = float(params.p)
        x = (1.1, 0.3, p, 0.0, 0.0)
        xdot = vector_field(h, x)
        assert abs(xdot[0] - (0.3 / 0.5 + p)) < 1e-15
        assert abs(xdot[1]) < 1e-15
        assert abs(xdot[3]) < 1e-15 and abs(xdot[4]) < 1e-15

    def test_finite_difference_cross_check(self):
        """vector_field = Pi grad h, with Pi the sympy bivector and grad h
        by central differences of h.value, on both spaces."""
        import sympy as sp
        rng = random.Random(3)
        for space in Space:
            h = full_hamiltonian(space)
            coords, pi = sympy_bracket(space)
            pi_at = sp.lambdify(coords, pi.tolist(), "math")
            for _ in range(100):
                x = (rng.uniform(0.5, 2.5), rng.uniform(-1, 1), rng.uniform(-1, 1),
                     rng.uniform(-1, 1), rng.uniform(-1, 1))
                xdot = vector_field(h, x)
                m = pi_at(*x)
                eps = 1e-6
                for a in range(5):
                    acc = 0.0
                    for b in range(5):
                        if m[a][b] == 0.0:
                            continue
                        xp = list(x)
                        xm = list(x)
                        xp[b] += eps
                        xm[b] -= eps
                        acc += m[a][b] * (h.value(tuple(xp)) - h.value(tuple(xm))) / (2 * eps)
                    assert abs(xdot[a] - acc) / max(1.0, abs(xdot[a])) < 1e-6


def field_outcome(f, x):
    """f(x), or the type and text of what it raised."""
    try:
        return f(x)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def every_pair_and_potential():
    """(h, the oracle's value of h) for the four pairs, with and without
    the potential."""
    for space in Space:
        for pot in Potential:
            kind = HamiltonianKind.FULL_SPHERE if space is Space.SPHERE \
                else HamiltonianKind.FULL_HYPERBOLIC
            for include_potential in (True, False):
                params = reference_params(space, pot)
                yield (hamiltonian(kind, params, include_potential=include_potential),
                       composed_value(params, include_potential))


class TestWrittenOutField:
    """h.field, written out once for both spaces, against the oracle's
    bracket applied to h.grad, and h.value against the oracle's value: the
    same floats, signed zeros and non-finite values too, and the same
    exception with the same text off the chart."""

    def test_matches_the_composed_field(self):
        rng = random.Random(38)
        for h, reference_value in every_pair_and_potential():
            reference = composed_field(h)
            assert dynamics.bound_field(h) is h.field
            top = math.pi if h.params.space is Space.SPHERE else 4.0
            for _ in range(2000):
                x = (rng.uniform(1e-3, top - 1e-3),) + tuple(
                    rng.choice((0.0, -0.0, rng.uniform(-2, 2))) for _ in range(4))
                got = h.field(x)
                assert got == reference(x) and repr(got) == repr(reference(x)), x
                assert vector_field(h, x) == got
                assert repr(h.value(x)) == repr(reference_value(x)), x

    def test_one_field_for_both_spaces(self):
        """The S^2 and H^2 Hamiltonians, with and without the potential,
        share one field and one value code object: the spaces differ only
        in the chart's constants."""
        hs = [h for h, _ in every_pair_and_potential()]
        assert {h.params.space for h in hs} == set(Space)
        assert len({h.field.__code__ for h in hs}) == 1
        assert len({h.value.__code__ for h in hs}) == 1

    @pytest.mark.parametrize("theta", [0.0, -0.0, -1.0, math.pi, 1e-13, 5e-324,
                                       math.nan, math.inf, -math.inf, 3.0, 700.0,
                                       720.0])
    def test_the_same_outcome_off_and_at_the_chart_edge(self, theta):
        """On S^2 every theta here but 3 is off the chart, inf and nan too
        (a sin before the chart test would raise ValueError at inf); on H^2
        every theta but pi, 3, 700 and 720 is, 1e-13 and 5e-324 because
        sinh falls below 1e-12 there, and sinh^3 overflows at 700 and sinh
        at 720 in both fields alike.  h.value gives the oracle's outcome."""
        for h, reference_value in every_pair_and_potential():
            x = (theta, 0.3, -0.2, 0.1, 0.45)
            got = field_outcome(h.field, x)
            want = field_outcome(composed_field(h), x)
            assert repr(got) == repr(want), (h.params.space, theta)
            assert repr(field_outcome(h.value, x)) == \
                repr(field_outcome(reference_value, x)), (h.params.space, theta)
            on = (3.0,) if h.params.space is Space.SPHERE else (math.pi, 3.0, 700.0, 720.0)
            assert (got[0] == "StepFailure") == (theta not in on)
            if theta not in on:
                assert got[1].startswith(f"theta = {theta} outside (0, ")
            elif theta >= 700:
                assert got[0] == "OverflowError"

    @pytest.mark.parametrize("space,pot,args,x0", BOUNDED_ORBITS)
    def test_runs_match_the_composed_runs(self, monkeypatch, space, pot, args, x0):
        """RK4 and rkf45 runs and a section of each bounded orbit (every
        state sampled) are the same, signed zeros too, with the oracle's
        composed field in place of the written-out one."""
        h = orbit_hamiltonian(space, pot, args)

        def runs():
            return (integrate(h, x0, 0.5, IntegrationOptions(sample_every=1)),
                    integrate(h, x0, 2.5, IntegrationOptions(
                        method="rkf45", rel_tol=1e-10, sample_every=1)),
                    poincare_section(h, x0, 10.0))
        written = runs()
        monkeypatch.setattr(dynamics, "bound_field", composed_field)
        composed = runs()
        assert written[2] and written == composed and repr(written) == repr(composed)

    @pytest.mark.parametrize("space,pot,kw,theta0,t_end,every", CONSISTENCY_RUNS)
    def test_gamma_and_nve_match_the_composed_runs(self, monkeypatch, space, pot, kw,
                                                   theta0, t_end, every):
        params = derive_params(space, pot, **kw)

        def runs():
            base = gamma_trajectory(params, theta0, t_end, sample_every=every)
            return base, nve_time_domain(params, base, (0.37, -0.81))
        written = runs()
        monkeypatch.setattr(dynamics, "bound_field", composed_field)
        composed = runs()
        assert written == composed and repr(written) == repr(composed)


def outcome(step, f, x, dt):
    """A step's (state, error), or ("StepFailure", message) if it raised."""
    try:
        return step(f, x, dt)
    except StepFailure as exc:
        return "StepFailure", str(exc)


class TestWrittenOutSteps:
    """The 5-dim RK4 and GBS steps are the tableau-driven ones written out,
    and on a linear field RK4 is the fourth-order Taylor polynomial of the
    flow and the GBS step is of eighth order."""

    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    @pytest.mark.parametrize("space,pot,args,x0", BOUNDED_ORBITS)
    def test_match_the_tableau_steps(self, space, pot, args, x0, dt):
        f = dynamics.bound_field(orbit_hamiltonian(space, pot, args))
        assert max_rel_diff(dynamics._rk4_step(f, x0, dt),
                            rk4_tableau(f, x0, dt)) <= 1e-14

    @staticmethod
    def _linear_field(seed):
        rng = random.Random(seed)
        a = [[rng.uniform(-1, 1) for _ in range(5)] for _ in range(5)]

        def f(x):
            return tuple(sum(aij * xj for aij, xj in zip(row, x)) for row in a)
        return f, tuple(rng.uniform(-1, 1) for _ in range(5))

    @pytest.mark.parametrize("dt", [1e-10, 1e-3, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("case", [0, 1, 2, 3, "linear"])
    def test_gbs_step_matches_the_tableau(self, case, dt):
        """The written-out GBS step gives the tableau's state and error bit
        for bit, signed zeros too (the linear field's first entry is -0.0
        under a field of -0.0), and a trial step of 10 time units, whose
        midpoints leave the chart on every orbit, raises the same
        StepFailure from both."""
        if case == "linear":
            g, x = self._linear_field(8)
            x = (-0.0,) + x[1:]

            def f(y):
                return (-0.0,) + g(y)[1:]
        else:
            space, pot, args, x = BOUNDED_ORBITS[case]
            f = dynamics.bound_field(orbit_hamiltonian(space, pot, args))
        written = outcome(dynamics._gbs_step, f, x, dt)
        tableau = outcome(dynamics._gbs_tableau, f, x, dt)
        assert written == tableau and repr(written) == repr(tableau)
        assert (written[0] == "StepFailure") == (dt == 10.0 and case != "linear")
        if case == "linear":
            assert repr(written[0][0]) == "0.0"

    @pytest.mark.parametrize("space,pot,args,x0", BOUNDED_ORBITS)
    def test_runs_match_the_tableau_runs(self, monkeypatch, space, pot, args, x0):
        """An rkf45 run (every state sampled) and a section of each bounded
        orbit are equal, signed zeros too, with the tableau step in place
        of the written-out one."""
        h = orbit_hamiltonian(space, pot, args)

        def runs():
            return (integrate(h, x0, 2.5, IntegrationOptions(
                        method="rkf45", rel_tol=1e-10, sample_every=1)),
                    poincare_section(h, x0, 10.0))
        written = runs()
        monkeypatch.setattr(dynamics, "_gbs_step", dynamics._gbs_tableau)
        tableau = runs()
        assert written[1] and written == tableau and repr(written) == repr(tableau)

    def test_rk4_on_a_linear_field(self):
        f, x = self._linear_field(8)
        dt = 0.1
        term, taylor = x, list(x)         # sum over k <= 4 of (A dt)^k / k! x
        for k in range(1, 5):
            term = tuple(v * dt / k for v in f(term))
            taylor = [s + v for s, v in zip(taylor, term)]
        assert max_rel_diff(dynamics._rk4_step(f, x, dt), tuple(taylor)) <= 1e-14
        assert max_rel_diff(rk4_tableau(f, x, dt), tuple(taylor)) <= 1e-14

    def test_gbs_order_on_a_linear_field(self):
        """Against exp(A dt) x, summed as a series to rounding: halving dt
        cuts the GBS error at least 2^8-fold (a local error of order 9),
        and the error estimate is positive."""
        f, x = self._linear_field(8)

        def flow(dt):
            term, total = x, list(x)
            for k in range(1, 40):
                term = tuple(v * dt / k for v in f(term))
                total = [s + v for s, v in zip(total, term)]
            return tuple(total)

        errors = []
        for dt in (0.4, 0.2):
            y, err = dynamics._gbs_step(f, x, dt)
            assert err > 0
            errors.append(max(abs(a - b) for a, b in zip(y, flow(dt))))
        assert errors[1] > 0 and errors[0] / errors[1] >= 2 ** 8


class TestStepControl:
    """The last step lands on t_end with no extra sliver step, and bad spans
    are refused before any integration starts (h=None is never touched)."""

    X0 = (1.4, 0.02, 0.08, 0.04, 0.45)

    def test_rk4_step_count(self):
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        rep = integrate(h, self.X0, 10.0, IntegrationOptions(step=1e-3))
        assert rep.steps == 10000
        assert len(rep.times) == 101
        assert rep.times[-1] == 10.0

    def test_rkf45_step_count(self):
        """The step grows from opts.step under error control: far fewer
        steps than t_end/step, with the drift kept within criterion 8."""
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        rep = integrate(h, self.X0, 2.5, IntegrationOptions(
            step=1e-3, method="rkf45", rel_tol=1e-10))
        assert rep.times[-1] == 2.5
        assert rep.steps <= 250
        assert rep.energy_drift < 1e-8
        assert rep.casimir_drift < 1e-10

    def test_rk4_reports_no_rejection(self):
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        rep = integrate(h, self.X0, 0.5, IntegrationOptions(step=1e-3))
        assert rep.rejected_steps == 0
        assert rep.min_step == pytest.approx(1e-3)

    def test_rkf45_reports_rejections_and_min_step(self):
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        rep = integrate(h, self.X0, 2.5, IntegrationOptions(
            step=1.0, method="rkf45", rel_tol=1e-10))
        assert rep.rejected_steps >= 1
        assert rep.min_step < 1.0
        assert rep.times[-1] == 2.5

    @pytest.mark.parametrize("step,rel_tol", [(1e-3, 1e-10), (1e-3, 1e-12), (1.0, 1e-10)])
    def test_rkf45_min_step_is_a_step_the_controller_chose(self, step, rel_tol):
        """Read back from every accepted step: min_step is the smallest step
        between the first (the trial step, or larger after a rejection) and
        the last (shortened to land on t_end)."""
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        rep = integrate(h, self.X0, 2.5, IntegrationOptions(
            step=step, method="rkf45", rel_tol=rel_tol, sample_every=1))
        dts = [t1 - t0 for t0, t1 in zip(rep.times, rep.times[1:])]
        assert len(dts) == rep.steps
        assert rep.min_step == pytest.approx(min(dts[1:-1]), rel=1e-9)
        assert rep.min_step > min(dts)

    @pytest.mark.parametrize("err", [1.0, math.nan])
    def test_rkf45_refuses_a_step_at_the_dt_floor(self, monkeypatch, err):
        """An error estimate that never meets rel_tol ends in StepFailure once
        the step halves below 1e-12; it is never accepted unchecked.  The
        span is a few floor steps long, so accepting there would end the run
        at once instead of failing."""
        real_step = dynamics._gbs_step
        monkeypatch.setattr(dynamics, "_gbs_step",
                            lambda f, x, dt: (real_step(f, x, dt)[0], err))
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        with pytest.raises(StepFailure, match="above rel_tol"):
            integrate(h, self.X0, 2e-12, IntegrationOptions(step=1e-3, method="rkf45"))

    @pytest.mark.parametrize("err", [1.0, math.nan])
    def test_section_refuses_a_step_at_the_dt_floor(self, monkeypatch, err):
        """The section steps under the same controller: StepFailure below
        1e-12, not a hang and not a step accepted unchecked."""
        real_step = dynamics._gbs_step
        monkeypatch.setattr(dynamics, "_gbs_step",
                            lambda f, x, dt: (real_step(f, x, dt)[0], err))
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        with pytest.raises(StepFailure, match="above rel_tol"):
            poincare_section(h, self.X0, 2e-12, step=1e-3)

    @staticmethod
    def _stub_henon_error(monkeypatch, error_of):
        """Replace the error of every Henon step (the chart's state plus t,
        run by the tableau) by error_of(span in t), which may raise
        StepFailure as a step off the chart does."""
        real_step = dynamics._gbs_tableau

        def step(f, x, dt):
            y, err = real_step(f, x, dt)
            return y, error_of(abs(y[-1] - x[-1]))
        monkeypatch.setattr(dynamics, "_gbs_tableau", step)

    @pytest.mark.parametrize("err", [1.0, math.nan])
    def test_section_refuses_a_henon_step_above_tolerance(self, monkeypatch, err):
        """A crossing whose Henon step never meets rel_tol is retried on
        halved brackets down to 1e-12, then refused: no hang, and no
        crossing reported unchecked."""
        self._stub_henon_error(monkeypatch, lambda span: err)
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        with pytest.raises(StepFailure, match="Henon step error"):
            poincare_section(h, self.X0, 10.0)

    def test_section_halves_the_bracket_of_a_failed_henon_step(self, monkeypatch):
        """A Henon step over more than 1e-4 in t fails; the shorter bracket
        gives the same crossings."""
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        expected = poincare_section(h, self.X0, 10.0)
        spans = []

        def error_of(span):
            spans.append(span)
            return 1.0 if span > 1e-4 else 0.0
        self._stub_henon_error(monkeypatch, error_of)
        points = poincare_section(h, self.X0, 10.0)
        assert max(spans) > 1e-4 and len(spans) > len(points)
        assert len(points) == len(expected) == 2
        for p, q in zip(points, expected):
            assert p.t == pytest.approx(q.t, abs=1e-12)
            assert max(abs(u - v) for u, v in zip(p.state, q.state)) < 1e-12

    def test_section_refuses_a_henon_step_off_the_chart(self, monkeypatch):
        """A Henon step that always leaves the chart is a miss: retried on
        halved brackets down to 1e-12, then refused with the chart's
        message."""
        def error_of(span):
            raise StepFailure("theta = -1 outside (0, pi)")
        self._stub_henon_error(monkeypatch, error_of)
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        with pytest.raises(StepFailure, match=r"Henon step left the chart .*outside"):
            poincare_section(h, self.X0, 10.0)

    def test_section_halves_the_bracket_of_a_henon_step_off_the_chart(self, monkeypatch):
        """A Henon step over more than 1e-4 in t leaves the chart; the
        shorter bracket gives the same crossings."""
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        expected = poincare_section(h, self.X0, 10.0)

        def error_of(span):
            if span > 1e-4:
                raise StepFailure("theta = -1 outside (0, pi)")
            return 0.0
        self._stub_henon_error(monkeypatch, error_of)
        points = poincare_section(h, self.X0, 10.0)
        assert len(points) == len(expected) == 2
        for p, q in zip(points, expected):
            assert p.t == pytest.approx(q.t, abs=1e-12)
            assert max(abs(u - v) for u, v in zip(p.state, q.state)) < 1e-12

    @pytest.mark.parametrize("step", [1.0, 3.0, 10.0])
    @pytest.mark.parametrize("space,pot,args,x0", BOUNDED_ORBITS)
    def test_a_trial_step_off_the_chart_is_rejected(self, space, pot, args, x0, step):
        """A first trial step this long takes its midpoints off the chart
        (theta outside (0, pi), or theta <= 0 on H^2) on some orbit; it is
        rejected and cut, so integrate and the section both reach t_end
        within the criterion-8 drifts."""
        h = orbit_hamiltonian(space, pot, args)
        rep = integrate(h, x0, 10.0, IntegrationOptions(
            step=step, method="rkf45", sample_every=10 ** 6))
        assert rep.times[-1] == 10.0 and rep.rejected_steps >= 1
        assert rep.energy_drift < 1e-8 and rep.casimir_drift < 1e-10
        points = poincare_section(h, x0, 10.0, step=step)
        assert points
        e0, c0 = h.value(x0), bound_casimir(space)(x0)
        for pt in points:
            assert pt.state[3] == 0.0
            assert abs(h.value(pt.state) - e0) < 1e-8 * abs(e0)
            assert abs(bound_casimir(space)(pt.state) - c0) < 1e-10 * abs(c0)

    def test_a_field_off_the_chart_everywhere_ends_in_step_failure(self):
        """Every trial step is rejected and cut 5x; at the 1e-12 floor the
        run ends in StepFailure naming the chart, not in a hang."""
        def grad(x):
            raise StepFailure("theta = 7 outside (0, pi)")
        h = SimpleNamespace(params=sn_params(), value=lambda x: 0.0,
                            field=bracket_field(Space.SPHERE, grad))
        x0 = (1.0, 0.0, 0.1, 0.0, 0.3)
        with pytest.raises(StepFailure, match=r"left the chart: .*outside \(0, pi\)"):
            integrate(h, x0, 1.0, IntegrationOptions(method="rkf45"))
        with pytest.raises(StepFailure, match=r"left the chart: .*outside \(0, pi\)"):
            poincare_section(h, x0, 1.0, coordinate=0)

    @pytest.mark.parametrize("dt", [1e-3, 1e-10])
    @pytest.mark.parametrize("space,pot,args,x0", BOUNDED_ORBITS)
    def test_short_steps_are_accepted_as_tried(self, space, pot, args, x0, dt):
        """The error estimate's rounding scales with dt, so neither the
        default first step nor a 1e-10 step is rejected for it."""
        f = dynamics.bound_field(orbit_hamiltonian(space, pot, args))
        _, t, dt_taken, _, rejected = dynamics._gbs_advance(
            f, x0, 0.0, 10.0, dt, IntegrationOptions.rel_tol)
        assert rejected == 0 and dt_taken == t == dt

    @pytest.mark.parametrize("space,pot,args,x0", BOUNDED_ORBITS)
    def test_henon_step_over_a_tiny_span_is_accepted(self, space, pot, args, x0):
        """From 1e-14 in time before the plane the first step brackets the
        crossing and its Henon step spans about 1e-14 in t, however short
        the bracket is halved to: it must be accepted, or the section ends
        in StepFailure at the floor."""
        h = orbit_hamiltonian(space, pot, args)
        x = x0[:3] + (0.0,) + x0[4:]
        rate = dynamics.bound_field(h)(x)[3]
        points = poincare_section(h, x[:3] + (-1e-14 * rate,) + x[4:], 1e-3,
                                  direction=1 if rate > 0 else -1)
        assert len(points) == 1
        assert points[0].t == pytest.approx(1e-14, rel=1e-6)

    def test_short_span_is_one_step(self):
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        rep = integrate(h, self.X0, 0.25, IntegrationOptions(step=1.0))
        assert rep.steps == 1
        assert rep.times == [0.0, 0.25]
        assert rep.min_step == 0.25

    @pytest.mark.parametrize("step,t_end", [(0.0, 1.0), (-1e-3, 1.0), (1e-3, 0.0),
                                            (1e-3, -1.0), (math.nan, 1.0),
                                            (1e-3, math.inf)])
    def test_integrate_rejects_bad_span(self, step, t_end):
        with pytest.raises(DynamicsError):
            integrate(None, self.X0, t_end, IntegrationOptions(step=step))

    @pytest.mark.parametrize("step,t_end", [(0.0, 1.0), (-1e-3, 1.0), (1e-3, -1.0),
                                            (1e-3, math.inf)])
    def test_section_rejects_bad_span(self, step, t_end):
        with pytest.raises(DynamicsError):
            poincare_section(None, self.X0, t_end, step=step)

    @pytest.mark.parametrize("rel_tol,sample_every", [
        (0.0, 100), (-1.0, 100), (math.inf, 100), (math.nan, 100),
        (1e-12, 0), (1e-12, -3), (1e-12, 2.5)])
    def test_integrate_rejects_bad_tolerance_or_sampling(self, rel_tol, sample_every):
        """Refused before any step: a negative rel_tol would raise a complex
        step factor, an infinite one would accept every step, sample_every
        0 would divide by zero, a negative one would sample at random and
        2.5 every fifth step."""
        with pytest.raises(DynamicsError, match="rel_tol|sample_every") as info:
            integrate(None, self.X0, 1.0, IntegrationOptions(
                method="rkf45", rel_tol=rel_tol, sample_every=sample_every))
        assert info.type is DynamicsError

    def test_nve_rejects_zero_step(self):
        with pytest.raises(DynamicsError):
            nve_time_domain(sn_params(), None, (1.0, 0.0), step=0.0)


class TestIntegrate:
    def test_energy_and_casimir_drift_short(self):
        params = sn_params()
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params)
        rep = integrate(h, (1.4, 0.02, 0.08, 0.04, 0.45), 10.0,
                        IntegrationOptions(step=1e-3, sample_every=1000))
        assert rep.energy_drift < 1e-10
        assert rep.casimir_drift < 1e-11

    def test_rkf45_matches_rk4(self):
        params = sn_params()
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params)
        x0 = (1.4, 0.02, 0.08, 0.04, 0.45)
        r1 = integrate(h, x0, 2.0, IntegrationOptions(step=1e-3))
        r2 = integrate(h, x0, 2.0, IntegrationOptions(step=1e-3, method="rkf45",
                                                      rel_tol=1e-12))
        assert max(abs(a - b) for a, b in zip(r1.states[-1], r2.states[-1])) < 1e-8

    def test_free_motion_split_integrals(self):
        params = sn_params()
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params, include_potential=False)
        h1 = free_part_s1(params)
        h2 = free_part_s2(params)
        rep = integrate(h, (1.5, 0.02, 0.05, 0.02, 0.25), 20.0,
                        IntegrationOptions(step=1e-3, sample_every=1))
        assert drift(h1.value, rep.states) < 1e-9
        assert drift(h2.value, rep.states) < 1e-9

    def test_central_motion_conserves_p2(self):
        params = sn_params()
        h = central_motion_hamiltonian(params)
        rep = integrate(h, (1.2, 0.1, 0.2, 0.1, 0.3), 20.0,
                        IntegrationOptions(step=1e-3, sample_every=1))
        assert drift(lambda s: s[4], rep.states) == 0.0

    def test_casimir_abort(self):
        params = sn_params(strength=Fr(5, 2), p=Fr(2))
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params)
        with pytest.raises(StepFailure):
            integrate(h, (0.3, -1.5, 2.0, 1.5, 0.05), 50.0,
                      IntegrationOptions(step=5e-2, casimir_abort=1e-12))

    def test_collision_raises_step_failure(self):
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, Fr(1, 2), 1, 0)
        with pytest.raises(StepFailure):
            gamma_trajectory(params, 1.0, 10.0)

    @pytest.mark.parametrize("space", list(Space))
    def test_initial_state_off_the_chart_raises_step_failure(self, space):
        with pytest.raises(StepFailure, match="initial state outside the chart"):
            integrate(full_hamiltonian(space), (0.0, 0.0, 0.1, 0.0, 0.3), 1.0)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_state_is_refused(self, method, bad):
        """Refused before the first step: the H^2 chart check lets NaN and
        infinity through, and every drift would then read 0."""
        h = full_hamiltonian(Space.HYPERBOLIC)
        for x0 in ((bad, 0.0, 0.02, 0.0, 0.15), (0.7, 0.0, bad, 0.0, 0.15)):
            with pytest.raises(DynamicsError, match="initial state must be finite"):
                integrate(h, x0, 0.01, IntegrationOptions(method=method))
            with pytest.raises(DynamicsError, match="initial state must be finite"):
                poincare_section(h, x0, 0.01)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize("space,pot,args,x0", BOUNDED_ORBITS)
    def test_drifts_are_the_maxima_over_every_state(self, space, pot, args, x0, method):
        """With every state sampled, the reported drifts are the largest
        relative changes of h.value and casimir over them, bit for bit."""
        h = orbit_hamiltonian(space, pot, args)
        rep = integrate(h, x0, 1.0, IntegrationOptions(
            method=method, rel_tol=1e-10, sample_every=1))
        assert len(rep.states) == rep.steps + 1
        e0, c0 = h.value(x0), bound_casimir(space)(x0)
        assert rep.energy_drift == max(
            abs(h.value(x) - e0) / max(abs(e0), 1e-30) for x in rep.states)
        assert rep.casimir_drift == max(
            abs(bound_casimir(space)(x) - c0) / max(abs(c0), 1e-30) for x in rep.states)

    def test_non_finite_energy_ends_the_run(self):
        """A step whose energy is not finite raises StepFailure rather than
        leaving the drift at its last finite value (max(d, nan) is d)."""
        h = full_hamiltonian(Space.SPHERE)
        value = h.value
        calls = []

        def nan_after_two(x):
            calls.append(x)
            return value(x) if len(calls) <= 2 else math.nan
        h = dataclasses.replace(h, value=nan_after_two)
        with pytest.raises(StepFailure, match="energy nan is not finite at t=0.002"):
            integrate(h, (1.4, 0.02, 0.08, 0.04, 0.45), 1.0, IntegrationOptions(step=1e-3))


def no_step(*args):
    raise AssertionError("a fixed step ran")


class TestFixedStepBound:
    """A fixed-step RK4 run of more than MAX_STEPS steps is refused
    before its first step; _rk4_step is replaced so that a missing bound
    fails at once instead of running for ever."""

    def test_a_tiny_step_is_refused(self, monkeypatch):
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, Fr(1, 2), 1, 0)
        base = gamma_trajectory(params, 1.0, 1.0, step=1e-3, sample_every=100)
        monkeypatch.setattr(dynamics, "_rk4_step", no_step)
        message = r"t_end/step = 1e\+300 fixed steps exceed MAX_STEPS = 10000000"
        with pytest.raises(DynamicsError, match=message):
            integrate(full_hamiltonian(Space.SPHERE), (1.4, 0.02, 0.08, 0.04, 0.45), 1.0,
                      IntegrationOptions(step=1e-300))
        with pytest.raises(DynamicsError, match=message):
            gamma_trajectory(params, 1.0, 1.0, step=1e-300)
        with pytest.raises(DynamicsError, match=message):
            nve_time_domain(params, base, (0.1, 0.0), step=1e-300)

    def test_the_bound_is_inclusive(self, monkeypatch):
        """t_end/step = MAX_STEPS runs, one step more is refused, and
        the adaptive method's first trial step is not bounded: t_end/step =
        500 runs in 8 accepted steps."""
        monkeypatch.setattr(dynamics, "MAX_STEPS", 8)
        h, x0 = full_hamiltonian(Space.SPHERE), (1.4, 0.02, 0.08, 0.04, 0.45)
        assert integrate(h, x0, 1.0, IntegrationOptions(step=0.125)).steps == 8
        with pytest.raises(DynamicsError, match="t_end/step = 10 fixed steps exceed"):
            integrate(h, x0, 1.0, IntegrationOptions(step=0.1))
        rep = integrate(h, x0, 0.5, IntegrationOptions(step=1e-3, method="rkf45"))
        assert rep.steps == 8 and rep.times[-1] == 0.5


def at_most(n, step):
    """step, raising AssertionError when called more than n times."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > n:
            raise AssertionError(f"more than {n} steps ran")
        return step(*args)
    return counted


class TestAdaptiveStepBound:
    """An adaptive run (rkf45 or a section) that has taken MAX_STEPS
    accepted steps short of t_end raises DynamicsError instead of running
    on; the bound is patched small, so that a missing bound fails after a
    few steps, not for ever."""

    X0 = (1.4, 0.02, 0.08, 0.04, 0.45)      # 8 accepted steps to t = 0.5

    @staticmethod
    def runs(h, x0, t_end):
        return {"rkf45": lambda: integrate(h, x0, t_end,
                                           IntegrationOptions(method="rkf45")),
                "section": lambda: poincare_section(h, x0, t_end)}

    @pytest.mark.parametrize("run", ["rkf45", "section"])
    def test_a_horizon_out_of_reach_is_refused(self, monkeypatch, run):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
        monkeypatch.setattr(dynamics, "_gbs_advance", at_most(5, dynamics._gbs_advance))
        h = full_hamiltonian(Space.SPHERE)
        with pytest.raises(DynamicsError, match=r"^MAX_STEPS = 5 steps reached at "
                           r"t=\S+, before t_end = 1e\+300$") as info:
            self.runs(h, self.X0, 1e300)[run]()
        assert info.type is DynamicsError

    @pytest.mark.parametrize("run", ["rkf45", "section"])
    def test_the_bound_is_inclusive(self, monkeypatch, run):
        """The 8 steps to t = 0.5 run under a bound of 8 and are refused
        under 7, at the time the seventh step reached."""
        h = full_hamiltonian(Space.SPHERE)
        monkeypatch.setattr(dynamics, "MAX_STEPS", 8)
        self.runs(h, self.X0, 0.5)[run]()
        seventh = integrate(h, self.X0, 0.5, IntegrationOptions(
            method="rkf45", sample_every=1)).times[7]
        monkeypatch.setattr(dynamics, "MAX_STEPS", 7)
        with pytest.raises(DynamicsError, match=f"reached at t={seventh:.6g}, "
                           "before t_end = 0.5"):
            self.runs(h, self.X0, 0.5)[run]()


class TestGammaTrajectory:
    def test_newton_level_maintained(self):
        # along Gamma: alpha^2 z^2/(2 mu) - alpha cot theta = alpha eps
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, Fr(1, 2), 1, 0)
        rep = gamma_trajectory(params, 1.0, 1.2, step=1e-3, sample_every=10)
        a, mu, eps = 2.0, 0.5, 0.0
        worst = 0.0
        for theta, pt, _, _, _ in rep.states:
            z = (pt + mu * 1.0) / a
            level = a * a * z * z / (2 * mu) - a * math.cos(theta) / math.sin(theta)
            worst = max(worst, abs(level - a * eps))
        assert worst < 1e-8

    def test_oscillator_level_maintained(self):
        params = derive_params(Space.SPHERE, Potential.OSCILLATOR, 1, Fr(1, 2), 1, 1)
        rep = gamma_trajectory(params, 0.8, 0.6, step=1e-3, sample_every=10)
        beta, mu = 1.0, 0.5
        worst = 0.0
        for theta, pt, _, _, _ in rep.states:
            z = (pt + mu * 1.0) / beta
            f = -beta * z * z / mu + 2 * float(params.eps)
            worst = max(worst, abs(f - math.tan(theta) ** 2))
        assert worst < 1e-8

    def test_free_motion_constant_p_theta(self):
        params = sn_params()
        h0 = hamiltonian(HamiltonianKind.FULL_SPHERE, params, include_potential=False)
        rep = integrate(h0, (1.0, 0.3, float(params.p), 0.0, 0.0), 2.5,
                        IntegrationOptions(step=1e-3))
        assert all(abs(s[1] - 0.3) < 1e-12 for s in rep.states)

    @pytest.mark.parametrize("space,pot,kw,theta0,t_end,every", CONSISTENCY_RUNS)
    def test_matches_the_restricted_chart(self, space, pot, kw, theta0, t_end, every):
        """On the 5-dim chart Gamma's (theta, p_theta), times and energy
        drift are those of the restricted 2-dim Hamiltonian's canonical
        equations under the RK4 tableau, bit for bit; p0 stays p and p1,
        p2 stay 0.0 on every state, and the Casimir drift is 0.0."""
        params = derive_params(space, pot, **kw)
        for sample_every in (every, 1):
            rep = gamma_trajectory(params, theta0, t_end, step=1e-3,
                                   sample_every=sample_every)
            times, states, drift = gamma_reference(params, theta0, t_end, step=1e-3,
                                                   sample_every=sample_every)
            got = (rep.times, [x[:2] for x in rep.states], rep.energy_drift)
            assert got == (times, states, drift)
            assert repr(got) == repr((times, states, drift))
            p = float(params.p)
            assert all(x[2:] == (p, 0.0, 0.0) and repr(x[3:]) == "(0.0, 0.0)"
                       for x in rep.states)
            assert rep.casimir_drift == 0.0

    def test_inconsistent_initial_condition(self):
        params = derive_params(Space.SPHERE, Potential.OSCILLATOR, 1, Fr(1, 2), 1,
                               Fr(-1))
        # eps=-1 has no real motion: f = tan^2 theta must be nonnegative
        with pytest.raises(StepFailure):
            gamma_initial_state(params, 0.7)

    @pytest.mark.parametrize("space", list(Space))
    def test_newton_pole_raises_step_failure(self, space):
        with pytest.raises(StepFailure, match="pole of the Newton potential"):
            gamma_initial_state(full_params(space), 0.0)


class TestNveTimeDomain:
    def test_zero_variation_stays_zero(self):
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, Fr(1, 2), 1, 0)
        base = gamma_trajectory(params, 1.0, 1.0, step=1e-3, sample_every=100)
        out = nve_time_domain(params, base, (0.0, 0.0))
        assert all(p1 == 0.0 and p2 == 0.0 for _, p1, p2 in out)

    def test_linearity(self):
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, Fr(1, 2), 1, 0)
        base = gamma_trajectory(params, 1.0, 1.0, step=1e-3, sample_every=100)
        one = nve_time_domain(params, base, (0.3, -0.2))
        two = nve_time_domain(params, base, (0.6, -0.4))
        for (_, a1, a2), (_, b1, b2) in zip(one, two):
            assert abs(2 * a1 - b1) <= 1e-9 * max(1.0, abs(b1))
            assert abs(2 * a2 - b2) <= 1e-9 * max(1.0, abs(b2))

    @staticmethod
    def _rows(params):
        """(theta, p_theta, p1, p2) -> bound_field's p1, p2 rows at p0 = p."""
        field = dynamics.bound_field(dynamics._full_hamiltonian(params))
        p = float(params.p)
        return lambda theta, pt, p1, p2: field((theta, pt, p, p1, p2))[3:]

    @pytest.mark.parametrize("space,pot,kw,theta0,t_end,every", CONSISTENCY_RUNS)
    def test_rows_are_the_hand_derived_nve(self, space, pot, kw, theta0, t_end, every):
        """bound_field's p1, p2 rows at p0 = p are the hand-linearised
        normal variational equations to 1e-15 relative, along Gamma and at
        random points of the chart."""
        params = derive_params(space, pot, **kw)
        rows, rhs = self._rows(params), nve_rhs(params)
        rng = random.Random(9)
        points = [x[:2] for x in gamma_trajectory(params, theta0, t_end).states]
        points += [(rng.uniform(0.3, 2.8) if space is Space.SPHERE else rng.uniform(0.2, 2.0),
                    rng.uniform(-2, 2)) for _ in range(200)]
        for theta, pt in points:
            v = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            got, want = rows(theta, pt, *v), rhs(theta, pt, *v)
            scale = max(1.0, *map(abs, want))
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15 * scale

    @pytest.mark.parametrize("space,pot,kw,theta0,t_end,every", CONSISTENCY_RUNS)
    def test_rows_are_linear(self, space, pot, kw, theta0, t_end, every):
        """At p0 = p the rows hold no term of degree other than 1 in
        (p1, p2): they vanish at 0, scale by 2^k bit for bit (a quadratic
        term would scale by 4^k) and add up to rounding."""
        params = derive_params(space, pot, **kw)
        rows = self._rows(params)
        rng = random.Random(4)
        for theta, pt, _, _, _ in gamma_trajectory(params, theta0, t_end).states:
            assert rows(theta, pt, 0.0, 0.0) == (0.0, 0.0)
            v = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            w = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            at_v, at_w = rows(theta, pt, *v), rows(theta, pt, *w)
            for k in (-3, 1, 5):
                c = 2.0 ** k
                assert rows(theta, pt, c * v[0], c * v[1]) == (c * at_v[0], c * at_v[1])
            at_sum = rows(theta, pt, v[0] + w[0], v[1] + w[1])
            scale = max(1.0, *map(abs, at_v + at_w))
            assert max(abs(s - a - b) for s, a, b in zip(at_sum, at_v, at_w)) <= 1e-15 * scale

    def test_chain_rule_against_z_domain(self):
        """(dp1/dt) = (A p1 + B w p2) dz/dt with dz/dt = p_theta_dot/strength;
        checked along the base curve against the exact rational functions,
        with the variation's field read off bound_field's p1, p2 rows."""
        from curvedtwobody.models import build_system
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, Fr(1, 2), 1, 0)
        sysz = build_system(params)
        base = gamma_trajectory(params, 1.0, 1.0, step=1e-3, sample_every=5)
        s, mu, p = map(float, (params.strength, params.mu, params.p))
        rows = self._rows(params)
        count = 0
        slope = potential(params)[1]
        for theta, pt, p0, _, _ in base.states:
            assert p0 == p
            z = (pt + mu * p) / s
            zdot = -slope(theta) / s
            a_val = sysz.A.embed_complex(complex(z, 0)).real
            b_val = sysz.B.embed_complex(complex(z, 0)).real
            c_val = sysz.C.embed_complex(complex(z, 0)).real
            p1, p2 = 0.37, -0.81
            dt_p1, dt_p2 = rows(theta, pt, p1, p2)
            zd_p1 = (a_val * p1 + b_val * p2) * zdot
            zd_p2 = (c_val * p1 - a_val * p2) * zdot
            assert abs(dt_p1 - zd_p1) / max(1.0, abs(dt_p1)) < 1e-6
            assert abs(dt_p2 - zd_p2) / max(1.0, abs(dt_p2)) < 1e-6
            count += 1
        assert count >= 100

    @pytest.mark.parametrize("space,pot,kw,theta0,t_end", [
        (Space.SPHERE, Potential.NEWTON, dict(strength=2, mu=Fr(1, 2), p=1, eps=0), 1.0, 0.5),
        (Space.HYPERBOLIC, Potential.NEWTON,
         dict(strength=1, mu=Fr(1, 2), p=1, eps=-2), 0.45, 0.35),
        (Space.SPHERE, Potential.OSCILLATOR, dict(strength=1, mu=Fr(1, 2), p=1, eps=1), 0.8, 0.5),
        (Space.HYPERBOLIC, Potential.OSCILLATOR,
         dict(strength=1, mu=Fr(1, 2), p=Fr(1, 2), eps=Fr(1, 4)), 0.5, 0.5),
    ])
    def test_chain_rule_residual(self, space, pot, kw, theta0, t_end):
        """Small along the base curve of the same parameters, large against
        the z-domain system of another strength."""
        params = derive_params(space, pot, **kw)
        base = gamma_trajectory(params, theta0, t_end, step=1e-3, sample_every=10)
        variation = nve_time_domain(params, base, (0.37, -0.81))
        assert nve_chain_rule_residual(params, base, variation) < 1e-6
        other = derive_params(space, pot, **{**kw, "strength": 2 * kw["strength"]})
        assert nve_chain_rule_residual(other, base, variation) > 1e-3

    @pytest.mark.parametrize("space,pot,kw,theta0,t_end,every", CONSISTENCY_RUNS + [
        (Space.SPHERE, Potential.NEWTON, dict(strength=2, mu=Fr(1, 2), p=1, eps=0),
         1.0, 1.0, 10)])      # README's nve example, sampled as the CLI samples it
    def test_runs_on_gammas_clock(self, monkeypatch, space, pot, kw, theta0, t_end, every):
        """nve's RK4 steps are those of the Gamma run it is given, in order
        and bit for bit, and so is its (theta, p_theta, p0) after each."""
        params = derive_params(space, pot, **kw)
        real_step, steps = dynamics._rk4_step, []

        def step(f, x, dt):
            y = real_step(f, x, dt)
            steps.append((dt, y[:3]))
            return y
        monkeypatch.setattr(dynamics, "_rk4_step", step)
        base = gamma_trajectory(params, theta0, t_end, sample_every=every)
        gamma_steps, steps[:] = steps[:], []
        nve_time_domain(params, base, (0.37, -0.81))
        assert len(steps) == base.steps and steps == gamma_steps

    @pytest.mark.parametrize("t_end", [1e-13, 0.5000000000004])
    def test_samples_land_on_the_base_times(self, t_end):
        """A span shorter than one step, or 500 steps and 4e-10 of one,
        which the last absorbs, ends on t_end as the base run does, and the
        variation has moved."""
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, Fr(1, 2), 1, 0)
        base = gamma_trajectory(params, 1.0, t_end, sample_every=10)
        out = nve_time_domain(params, base, (1.0, 0.0))
        assert [t for t, _, _ in out] == base.times and base.times[-1] == t_end
        assert out[-1][1:] != (1.0, 0.0)

    @pytest.mark.parametrize("base_step,step", [(1e-3, 7e-4), (2e-3, 1e-3)])
    def test_a_base_at_another_step_is_refused(self, base_step, step):
        """Samples of a base at step 1e-3 every 10 steps (t = 0.01, ...)
        fall between the steps of 7e-4; those of a base at 2e-3 fall on the
        steps of 1e-3, but its Gamma is not the one run at 1e-3."""
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, Fr(1, 2), 1, 0)
        base = gamma_trajectory(params, 1.0, 0.1, step=base_step, sample_every=10)
        with pytest.raises(DynamicsError, match=r"^the base is not sampled on Gamma's "
                           f"clock at step {step!r}$") as info:
            nve_time_domain(params, base, (1.0, 0.0), step=step)
        assert info.type is DynamicsError

    def test_non_finite_variation_is_refused(self):
        """A non-finite initial variation is refused before the first step,
        and one that turns non-finite ends the run in StepFailure instead of
        a chain-rule residual that skips it."""
        params = derive_params(Space.SPHERE, Potential.NEWTON, 2, Fr(1, 2), 1, 0)
        base = gamma_trajectory(params, 1.0, 0.1, step=1e-3, sample_every=10)
        for bad in ((math.nan, 0.0), (0.0, math.inf)):
            with pytest.raises(DynamicsError, match="initial variation must be finite"):
                nve_time_domain(params, base, bad)
        with pytest.raises(StepFailure, match="variation .* is not finite"):
            nve_time_domain(params, base, (1e308, 1e308))


class TestPoincareSection:
    def test_integrable_section_on_level_set(self):
        params = derive_params(Space.SPHERE, Potential.OSCILLATOR, Fr(1, 4), 1,
                               Fr(1, 10), 1)
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params)
        x0 = (0.9, 0.0, 0.02, 0.0, 0.3)
        points = poincare_section(h, x0, 60.0, coordinate=3, value=0.0,
                                  direction=1, step=1e-3)
        assert len(points) >= 3

        def integral(s):
            return s[3] * math.sin(s[0]) + s[4] * math.cos(s[0])

        level = integral(x0)
        for pt in points:
            assert abs(pt.state[3]) < 1e-9
            assert abs(integral(pt.state) - level) < 1e-6

    def test_free_motion_section_on_h1_level(self):
        params = sn_params()
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params, include_potential=False)
        h1 = free_part_s1(params)
        x0 = (1.5, 0.02, 0.05, 0.02, 0.25)
        points = poincare_section(h, x0, 60.0, step=1e-3)
        assert len(points) >= 2
        level = h1.value(x0)
        for pt in points:
            assert abs(h1.value(pt.state) - level) < 1e-6

    def test_section_steps_adaptively(self):
        """Fewer than half the field evaluations of fixed RK4 at 1e-3
        (4 per step, 40,000 over 10 time units) on the sphere Newton
        bounded orbit: a return to fixed steps fails here."""
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        calls = 0

        def field(x):
            nonlocal calls
            calls += 1
            return h.field(x)

        points = poincare_section(dataclasses.replace(h, field=field),
                                  TestStepControl.X0, 10.0)
        assert len(points) == 2
        assert calls < 20000

    def test_empty_for_zero_horizon(self):
        params = sn_params()
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params)
        assert poincare_section(h, (1.2, 0.1, 0.2, 0.1, 0.3), 0.0) == []

    @pytest.mark.parametrize("shift,crossings", [(-2e-4, 0), (-1e-5, 0),
                                                 (1e-5, 1), (2e-4, 1)])
    def test_stops_at_its_horizon(self, shift, crossings):
        """A crossing after t_end is not reported, also when t_end falls
        inside the step that brackets it; one before t_end is, from a
        shortened last step too."""
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        x0 = TestStepControl.X0
        first = poincare_section(h, x0, 3.0)[0].t      # about 2.73096
        points = poincare_section(h, x0, first + shift)
        assert len(points) == crossings
        for pt in points:
            assert pt.t == pytest.approx(first, abs=1e-12)
            assert pt.t <= first + shift

    def test_crossings_match_a_fine_bisection_reference(self):
        """Every crossing of p1 = 0 over 3 time units, in both directions,
        against RK4 at step 1e-4 with the crossing step bisected: the same
        time and state to 1e-9, and exactly on the plane.  The reference
        agrees with RK4 at step 1e-5 to 3e-14 in time and 1e-14 in state."""
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        x0 = TestStepControl.X0
        f = dynamics.bound_field(h)
        step, t_end = 1e-4, 3.0
        reference = {1: [], -1: []}
        x = x0
        for k in range(round(t_end / step)):
            x_new = dynamics._rk4_step(f, x, step)
            if x[3] * x_new[3] < 0:
                lo, hi = 0.0, step
                while lo < hi and (lo + hi) / 2 not in (lo, hi):
                    mid = (lo + hi) / 2
                    if dynamics._rk4_step(f, x, mid)[3] * x[3] > 0:
                        lo = mid
                    else:
                        hi = mid
                direction = 1 if x[3] < 0 else -1
                reference[direction].append((k * step + lo, dynamics._rk4_step(f, x, lo)))
            x = x_new
        for direction in (1, -1):
            points = poincare_section(h, x0, t_end, direction=direction)
            assert len(points) == len(reference[direction]) == 1
            for pt, (t_ref, x_ref) in zip(points, reference[direction]):
                assert pt.state[3] == 0.0
                assert abs(pt.t - t_ref) < 1e-9
                assert max(abs(a - b) for a, b in zip(pt.state, x_ref)) < 1e-9

    def test_crossing_time_outside_its_step_raises(self, monkeypatch):
        """Under theta' = p_theta, p_theta' = 1 (h = p_theta^2/2 - theta,
        p0 = p1 = p2 = 0) from theta = -0.1, p_theta = 1e-6, dt/dtheta =
        1/p_theta is steep at the start, yet Henon's step lands the crossing
        of theta = 0 on the root of -0.1 + 1e-6 t + t^2/2.  A Henon step
        that puts it outside the step bracketing it (here a stub, 1 later)
        raises StepFailure instead of reporting a point."""
        h = SimpleNamespace(params=sn_params(), value=lambda x: x[1] ** 2 / 2 - x[0],
                            field=bracket_field(Space.SPHERE,
                                                lambda x: (-1.0, x[1], 0.0, 0.0, 0.0)))
        x0 = (-0.1, 1e-6, 0.0, 0.0, 0.0)
        root = -1e-6 + math.sqrt(1e-12 + 0.2)
        points = poincare_section(h, x0, 1.0, coordinate=0, step=1.0)
        assert len(points) == 1 and points[0].t == pytest.approx(root, abs=1e-12)
        real_step = dynamics._gbs_tableau

        def step(f, x, dt):
            y, err = real_step(f, x, dt)
            return y[:-1] + (y[-1] + 1.0,), err
        monkeypatch.setattr(dynamics, "_gbs_tableau", step)
        with pytest.raises(StepFailure, match="outside its step"):
            poincare_section(h, x0, 1.0, coordinate=0, step=1.0)

    @pytest.mark.parametrize("space,pot,args,x0", BOUNDED_ORBITS)
    def test_first_crossing_matches_an_rk4_reference(self, space, pot, args, x0):
        """The first crossing of p1 = 0 (increasing) on each bounded orbit,
        against RK4 at step 1e-4 with the crossing step bisected."""
        h = orbit_hamiltonian(space, pot, args)
        f = dynamics.bound_field(h)
        step, x, k = 1e-4, x0, 0
        while True:
            x_new = dynamics._rk4_step(f, x, step)
            if x[3] < 0 <= x_new[3]:
                break
            x, k = x_new, k + 1
        lo, hi = 0.0, step
        while (lo + hi) / 2 not in (lo, hi):
            mid = (lo + hi) / 2
            if dynamics._rk4_step(f, x, mid)[3] < 0:
                lo = mid
            else:
                hi = mid
        t_ref = k * step + lo
        points = poincare_section(h, x0, t_ref + 1e-3)
        assert abs(points[0].t - t_ref) < 1e-11

    @pytest.mark.parametrize("space,theta0,message", [
        (Space.SPHERE, 0.0, r"theta = 0.0 outside \(0, pi\)"),
        (Space.SPHERE, 4.0, r"theta = 4.0 outside \(0, pi\)"),
        (Space.HYPERBOLIC, 1e-300, r"theta = 1e-300 outside \(0, infinity\)"),
        (Space.HYPERBOLIC, 800.0, "math range error")])
    def test_a_start_off_the_chart_is_refused_before_any_step(self, monkeypatch, space,
                                                              theta0, message):
        monkeypatch.setattr(dynamics, "_gbs_advance", at_most(0, dynamics._gbs_advance))
        with pytest.raises(StepFailure, match="^initial state outside the chart: "
                           + message):
            poincare_section(full_hamiltonian(space), (theta0, 0.0, 0.02, 0.0, 0.3), 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        with pytest.raises(DynamicsError, match="value must be finite"):
            poincare_section(h, (1.2, 0.1, 0.2, 0.1, 0.3), 1.0, value=value)

    @pytest.mark.parametrize("direction", [0, 2])
    def test_direction_other_than_one_or_minus_one_rejected(self, direction):
        """0 would report no crossing at all and 2 would act as 1."""
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        with pytest.raises(DynamicsError, match="direction must be 1 or -1, got"):
            poincare_section(h, TestStepControl.X0, 10.0, direction=direction)

    @pytest.mark.parametrize("coordinate", [-1, 5, 7])
    def test_coordinate_outside_the_state_rejected(self, coordinate):
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, sn_params())
        with pytest.raises(DynamicsError, match="coordinate must lie in"):
            poincare_section(h, (1.2, 0.1, 0.2, 0.1, 0.3), 1.0,
                             coordinate=coordinate)


def value_in_r_chart(params, r, p_r, p0, p1, p2):
    """The original-chart Hamiltonian (time rescaled, Casimir constant
    dropped) at r = tan(theta/2) on S^2, tanh(theta/2) on H^2, with
    p_theta = (1 +- r^2) p_r / 2."""
    mu = float(params.mu)
    if params.space is Space.SPHERE:
        theta = 2 * math.atan(r)
        om = (1 + r * r)
        kinetic = om * om / (8 * mu) * (p_r * p_r + p2 * p2 / (r * r))
        coupling = om * p_r * p0 / 2 - p2 * p2 + (1 - r * r) * p1 * p2 / (2 * r)
    else:
        theta = 2 * math.atanh(r)
        om = (1 - r * r)
        kinetic = om * om / (8 * mu) * (p_r * p_r + p2 * p2 / (r * r))
        coupling = om * p_r * p0 / 2 + p2 * p2 + (1 + r * r) * p1 * p2 / (2 * r)
    return kinetic + coupling + potential(params)[0](theta)


class TestChartConversions:
    def test_hamiltonian_agrees_across_charts(self):
        rng = random.Random(17)
        for space in Space:
            eps = Fr(-2) if space is Space.HYPERBOLIC else Fr(0)
            params = derive_params(space, Potential.NEWTON, Fr(1, 4), Fr(1, 2),
                                   Fr(1, 10), eps)
            kind = HamiltonianKind.FULL_SPHERE if space is Space.SPHERE \
                else HamiltonianKind.FULL_HYPERBOLIC
            h = hamiltonian(kind, params)
            half = math.tan if space is Space.SPHERE else math.tanh
            sign = 1 if space is Space.SPHERE else -1
            for _ in range(100):
                theta = rng.uniform(0.3, 2.0 if space is Space.SPHERE else 3.0)
                x = (theta, rng.uniform(-1, 1), rng.uniform(-1, 1),
                     rng.uniform(-1, 1), rng.uniform(-1, 1))
                r = half(x[0] / 2)
                pr = 2 * x[1] / (1 + sign * r * r)
                hv = value_in_r_chart(params, r, pr, x[2], x[3], x[4])
                assert abs(hv - h.value(x)) < 1e-10


class TestCsvExport:
    def test_trajectory_csv(self, tmp_path):
        params = sn_params()
        h = hamiltonian(HamiltonianKind.FULL_SPHERE, params)
        rep = integrate(h, (1.4, 0.02, 0.08, 0.04, 0.45), 0.5,
                        IntegrationOptions(step=1e-3, sample_every=100))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(rep, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,theta,p_theta,p0,p1,p2"
        assert len(lines) == len(rep.times) + 1
        # deterministic 17-significant-digit formatting
        trajectory_to_csv(rep, str(tmp_path / "traj2.csv"))
        assert (tmp_path / "traj2.csv").read_text() == path.read_text()

    def test_section_csv(self, tmp_path):
        pts = [SectionPoint(0.5, (1.0, 0.2, 0.3, 0.0, 0.1), 0)]
        path = tmp_path / "sec.csv"
        section_to_csv(pts, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].endswith("crossing_index")
        assert lines[1].endswith(",0")
