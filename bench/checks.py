"""Output checks of the benchmark.

Each check returns a list of error strings, empty when the output is
right.  The checks compare against computations made apart from the
program (a sympy elimination of the first-order system) or against
properties the method must have; none compares against a stored copy of
an earlier output.
"""
from __future__ import annotations

import random
from fractions import Fraction

from curvedtwobody import dynamics, linode, models
from curvedtwobody.certify import (CONCLUSION_CERTIFIED, CONCLUSION_DEGENERATE,
                                   CONCLUSION_NO_OBSTRUCTION, RunConfig)
from curvedtwobody.models import Potential, Space

ENERGY_DRIFT_BOUND = 1e-8      # criterion 8
CASIMIR_DRIFT_BOUND = 1e-10    # criterion 8
RESIDUAL_TOL = 1e-10           # poincare_section's default residual_tol
SYMPY_POINTS = 3


def _gate_errors(cert: dict) -> list[str]:
    errors = []
    if cert["table_match"] is not True:
        errors.append("closed-form table does not match r")
    if cert["gauge_consistent"] is not True:
        errors.append("gauge transform is inconsistent")
    return errors


def check_reference_certificate(cert: dict, identity_samples: int) -> list[str]:
    errors = _gate_errors(cert)
    if cert["conclusion"] != CONCLUSION_CERTIFIED:
        errors.append(f"conclusion {cert['conclusion']}, expected {CONCLUSION_CERTIFIED}")
    ident = cert.get("identity_check") or {}
    if (ident.get("samples"), ident.get("matches")) != (identity_samples, identity_samples):
        errors.append(f"identity check {ident}, expected "
                      f"{identity_samples}/{identity_samples}")
    if cert["case1"]["count"] > 1:
        errors.append(f"{cert['case1']['count']} case-I solutions, expected at most one")
    if cert["case2"]["found"]:
        errors.append("case II found")
    if cert["case3_possible"]:
        errors.append("case III possible")
    if any(rec["is_zero"] for rec in cert["case2"]["xi"]):
        errors.append("Xi vanishes for a case-II candidate")
    return errors


def _params_of(cert: dict) -> models.ModelParams:
    p = cert["params"]
    return models.derive_params(Space(p["space"]), Potential(p["potential"]),
                                Fraction(p["strength"]), Fraction(p["mu"]),
                                Fraction(p["p"]), Fraction(p["eps"]))


def check_sweep_certificate(cert: dict) -> list[str]:
    errors = _gate_errors(cert)
    params = _params_of(cert)
    if params.mu != 1:
        if cert["conclusion"] != CONCLUSION_CERTIFIED:
            errors.append(f"mu != 1 set ends {cert['conclusion']}, expected "
                          f"{CONCLUSION_CERTIFIED}")
        return errors
    if cert["conclusion"] != CONCLUSION_NO_OBSTRUCTION:
        errors.append(f"mu = 1 set ends {cert['conclusion']}, expected "
                      f"{CONCLUSION_NO_OBSTRUCTION}")
    if cert["verdict"]["identity_component_abelian"] is not True:
        errors.append("mu = 1 verdict is not abelian")
    expected = sorted(om.render() for om in models.mu1_solutions(params))
    found = sorted(sol["omega"] for sol in cert["case1"]["solutions"])
    if found != expected:
        errors.append(f"mu = 1 case-I omegas {found} differ from the closed forms "
                      f"{expected}")
    return errors


def check_degenerate_certificate(cert: dict) -> list[str]:
    if cert["conclusion"] != CONCLUSION_DEGENERATE:
        return [f"mu = 0 set ends {cert['conclusion']}, expected {CONCLUSION_DEGENERATE}"]
    if cert.get("degenerate_guard") != "mu must be nonzero":
        return [f"mu = 0 set stopped at guard {cert.get('degenerate_guard')!r}"]
    return []


def check_trajectory(rep: dynamics.TrajectoryReport, t_end: float, step: float,
                     fixed_step: bool) -> list[str]:
    errors = []
    if not rep.energy_drift < ENERGY_DRIFT_BOUND:
        errors.append(f"energy drift {rep.energy_drift:.3e} >= {ENERGY_DRIFT_BOUND}")
    if not rep.casimir_drift < CASIMIR_DRIFT_BOUND:
        errors.append(f"Casimir drift {rep.casimir_drift:.3e} >= {CASIMIR_DRIFT_BOUND}")
    if abs(rep.times[-1] - t_end) > 1e-9:
        errors.append(f"ended at t={rep.times[-1]!r}, expected {t_end}")
    if fixed_step and rep.steps != round(t_end / step):
        errors.append(f"{rep.steps} RK4 steps, expected {round(t_end / step)}")
    return errors


def check_section(points, h, x0) -> list[str]:
    """Every crossing lies on p1 = 0, with p1 increasing, on the energy
    level of x0."""
    errors = []
    e0 = h.value(x0)
    for pt in points:
        if not abs(pt.state[3]) < RESIDUAL_TOL:
            errors.append(f"crossing {pt.crossing_index}: p1 = {pt.state[3]:.3e}")
        if not dynamics.vector_field(h, pt.state)[3] > 0:
            errors.append(f"crossing {pt.crossing_index}: p1 is not increasing")
        drift = abs(h.value(pt.state) - e0) / abs(e0)
        if not drift < ENERGY_DRIFT_BOUND:
            errors.append(f"crossing {pt.crossing_index}: energy drift {drift:.3e}")
    return errors


# ---------------------------------------------------------------------------
# r from a sympy elimination, apart from linode and ratcalc
# ---------------------------------------------------------------------------


def sympy_r(space: Space, potential: Potential, strength: Fraction, mu: Fraction,
            p: Fraction, eps: Fraction):
    """(z, r) with r in sympy, from p1' = A p1 + B w p2, p2' = C w p1 - A p2
    (w = 1 for Newton, sqrt(f) for the oscillator), written out from the
    model equations: p1 is eliminated and the p2 equation
    u'' + P u' + Q u = 0 is put in normal form r = -Q + P'/2 + P^2/4."""
    import sympy as sp

    z, y0, y1, y2 = sp.symbols("z y0 y1 y2")
    s, m, pp, e = (sp.Rational(q.numerator, q.denominator)
                   for q in (strength, mu, p, eps))
    lin = s * z + (2 - m) * pp
    c_num = s * z - m * pp
    sign = 1 if space is Space.SPHERE else -1
    if potential is Potential.NEWTON:
        f = s / (2 * m) * z ** 2 - e
        den = f ** 2 + sign
        a, b, c, w = pp * f / den, pp / m - sign * lin / den, c_num / den, sp.Integer(1)
    else:
        f = -s / m * z ** 2 + 2 * e
        den = f * (f + 1) if space is Space.SPHERE else f * (1 - f)
        a = pp / den
        b = pp / m / f ** 2 - sign * lin / den
        c, w = c_num / den, sp.sqrt(f)
    p1 = (y1 + a * y0) / (c * w)
    dp1 = sp.diff(p1, z) + sp.diff(p1, y0) * y1 + sp.diff(p1, y1) * y2
    eq = sp.expand((dp1 - a * p1 - b * w * y0) * c * w)
    lead = eq.coeff(y2)
    P = eq.coeff(y1) / lead
    Q = eq.coeff(y0) / lead
    return z, -Q + sp.diff(P, z) / 2 + P ** 2 / 4


def program_r(cfg: RunConfig):
    params = models.derive_params(cfg.space, cfg.potential, cfg.strength, cfg.mu,
                                  cfg.p, cfg.eps)
    normal = linode.to_normal_form(linode.reduce_to_second_order(
        models.build_system(params)))
    return params, normal.r


def check_r_against_sympy(cfg: RunConfig, seed: int, r=None) -> list[str]:
    """r (the program's, unless given) equals the sympy r at SYMPY_POINTS
    seeded rational points."""
    import sympy as sp

    params, r_prog = program_r(cfg)
    r = r_prog if r is None else r
    z, r_sym = sympy_r(cfg.space, cfg.potential, cfg.strength, cfg.mu, cfg.p, cfg.eps)
    rng = random.Random(seed)
    errors = []
    done = 0
    while done < SYMPY_POINTS:
        zq = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        expected = sp.radsimp(sp.together(
            r_sym.subs(z, sp.Rational(zq.numerator, zq.denominator))))
        if expected.has(sp.zoo, sp.oo, sp.nan):
            continue    # a pole of r
        done += 1
        got = r.evaluate(params.ctx.from_rational(zq)).is_real_rational()
        if not expected.is_Rational or got != Fraction(int(expected.p), int(expected.q)):
            errors.append(f"r({zq}) = {got}, sympy gives {expected}")
    return errors
