"""Certificate assembly: run the full obstruction pipeline for one
parameter set and emit a machine-readable verdict record.

The conclusion field follows the contrapositive of the abelian-identity-
component requirement: NonintegrabilityCertified if and only if the
collected evidence forces a non-abelian identity component, and only with
the four-part soundness gate (table match, case-I count, case-II absence,
case-III impossibility) recorded alongside.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import kovacic, models
from .exactfield import DivisionByZero, TowerScalar, _rat
from .linode import (FirstOrderSystem, SingularitySpectrum,
                     normal_form_r_at, reduce_to_second_order,
                     singularity_spectrum, to_normal_form,
                     verify_gauge_transform)
from .models import (DegenerateParameters, HypothesisViolated,
                     Potential, Space)
from .ratcalc import PoleEvaluation, Poly, RatFunc, split


class CertifyError(Exception):
    pass


class InvariantViolation(CertifyError):
    """The evidence and the verdict disagree: an internal bug, never an input
    problem."""


CONCLUSION_CERTIFIED = "NonintegrabilityCertified"
CONCLUSION_NO_OBSTRUCTION = "NoObstructionFound"
CONCLUSION_DEGENERATE = "Degenerate"


# Each identity sample is a full exact proof (tens of milliseconds), so more
# than this many would keep certify busy for minutes or, for a value such as
# 10**30, forever.
MAX_IDENTITY_SAMPLES = 10_000


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _count(data: dict, key: str, default: int) -> int:
    """data[key] (default if absent) as an int or an integer string; a float
    or a bool is refused, not truncated, and so is any other value."""
    value = data.get(key, default)
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise CertifyError(f"{key} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    space: Space
    potential: Potential
    strength: Fraction
    mu: Fraction
    p: Fraction
    eps: Fraction
    seed: int = 0
    identity_samples: int = 20

    @staticmethod
    def from_dict(data: dict) -> RunConfig:
        if not isinstance(data, dict):
            raise CertifyError(f"run must be a JSON object, not {type(data).__name__}")
        try:
            space, potential = Space(data["space"]), Potential(data["potential"])
            seed = _count(data, "seed", 0)
            samples = _count(data, "identity_samples", 20)
            # every key is read before a value is parsed: a missing key wins
            strength, mu, p, eps = map(_rat, [data[k] for k in
                                              ("strength", "mu", "p", "eps")])
        except KeyError as exc:
            raise CertifyError(f"missing parameter {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CertifyError(str(exc)) from None
        if not 0 <= samples <= MAX_IDENTITY_SAMPLES:
            raise CertifyError(f"identity_samples must be in 0..{MAX_IDENTITY_SAMPLES}, "
                               f"got {samples}")
        return RunConfig(
            space=space,
            potential=potential,
            strength=strength,
            mu=mu,
            p=p,
            eps=eps,
            seed=seed,
            identity_samples=samples)

    def to_dict(self) -> dict:
        return {"space": self.space.value, "potential": self.potential.value,
                "strength": _frac_str(self.strength), "mu": _frac_str(self.mu),
                "p": _frac_str(self.p), "eps": _frac_str(self.eps),
                "seed": self.seed, "identity_samples": self.identity_samples}


@dataclass
class Certificate:
    config: RunConfig
    conclusion: str
    degenerate_guard: Optional[str] = None
    params: Optional[dict] = None
    spectrum: list = field(default_factory=list)
    table_match: Optional[bool] = None
    gauge_consistent: Optional[bool] = None
    lemma: Optional[dict] = None
    case1: Optional[dict] = None
    case2: Optional[dict] = None
    case3_possible: Optional[bool] = None
    verdict: Optional[dict] = None
    identity_check: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "params": self.params if self.params is not None
            else {"config": self.config.to_dict()},
            "spectrum": self.spectrum,
            "table_match": self.table_match,
            "gauge_consistent": self.gauge_consistent,
            "lemma": self.lemma,
            "case1": self.case1,
            "case2": self.case2,
            "case3_possible": self.case3_possible,
            "verdict": self.verdict,
            "conclusion": self.conclusion,
            "seed": self.config.seed,
        }
        if self.degenerate_guard is not None:
            out["degenerate_guard"] = self.degenerate_guard
        if self.identity_check is not None:
            out["identity_check"] = self.identity_check
        return out


def _scalar_str(s: TowerScalar) -> str:
    return s.render()


def _spectrum_summary(spec: SingularitySpectrum) -> list:
    out = []
    for pt in spec.points:
        out.append({
            "location": "infinity" if pt.is_infinity else _scalar_str(pt.location),
            "order": pt.order,
            "alpha": _scalar_str(pt.alpha),
            "delta_squared": _scalar_str(pt.delta_squared),
            "delta_rational": _frac_str(pt.delta_rational)
            if pt.delta_rational is not None else None,
            "exponents": [_frac_str(e) for e in pt.exponents]
            if pt.exponents is not None else None,
        })
    return out


def _lemma_summary(report: models.LemmaReport) -> dict:
    return {
        "index": report.lemma,
        "hypotheses_hold": report.hypotheses_hold,
        "failures": list(report.failures),
        "all_nonreal": report.all_nonreal,
        "identity_checked": report.identity_checked,
        "alphas": [{"index": a.index, "exact": a.exact,
                    "imag_exact": _frac_str(a.imag_part) if a.imag_part is not None else None,
                    "imag_float": repr(a.imag_float), "nonreal": a.nonreal}
                   for a in report.alphas],
    }


def _gauge_log_derivative(system, ctx) -> RatFunc:
    half = RatFunc.constant(ctx, Fraction(1, 2))
    quarter = RatFunc.constant(ctx, Fraction(1, 4))
    h = half * system.C.derivative() / system.C
    if system.weight is not None:
        h = h + quarter * system.weight.derivative() / system.weight
    return h


@dataclass(frozen=True)
class ClearingBound:
    """E = prod factor^exponent clears the poles of r and of the table T at
    one parameter set, and E (r - T) is a polynomial of degree <= degree.
    A factor is a root c, standing for z - c, or a monic Poly that the
    roots leave over."""

    factors: tuple[tuple[TowerScalar | Poly, int], ...]
    degree: int


def _exponents(roots: dict, rest: Poly) -> dict:
    """An exponent map, with a non-constant rest as one more factor."""
    return {**roots, rest: 1} if rest.degree() > 0 else roots


def _add(*vectors: dict) -> dict:
    out = {}
    for vec in vectors:
        for key, e in vec.items():
            out[key] = out.get(key, 0) + e
    return out


def _order_at_infinity(f: RatFunc) -> int:
    return f.num.degree() - f.den_degree()


def clearing_bound(system: FirstOrderSystem, table: models.CoefficientTable,
                   params: models.ModelParams) -> ClearingBound:
    """E and the degree bound B for the identity r = T at one parameter set.

    With g = C'/C (+ f'/(2f)) and r = gA + A^2 + CB[f] - A' - g'/2 + g^2/4:
    g has simple poles only, at the roots of S = rad(num C den C [num f den f]),
    so S^2 clears g' and g^2; den(A)^2 clears A', A^2 and (with S^2) gA;
    den C den B [den f], less the factors of num C [num f], clears CB[f];
    and the double poles of T need (z - c)^2 at each of its poles c.  Each
    denominator's factors are read off its exponent map and rest, and each
    numerator is split over z -+ kappa, z -+ lambda and the poles of T and
    of the denominators, so E is the least common multiple of the
    requirements, root by root, up to the leftover rests.  At
    infinity g = O(1/z), so r = O(z^v) with v the largest of -2, 2 ord A,
    ord A - 1 and ord C + ord B [+ ord f], and T = O(1/z), O(1/z^2) when
    the betas sum to zero.  Nothing here assumes r = T.
    """
    ctx = params.ctx
    A, B, C, f = system.A, system.B, system.C, system.weight
    keys = list(dict.fromkeys([*table.poles, *(c for part in (A, B, C, f)
                                               if part is not None
                                               for c in part.roots)]))

    def num_vec(part: Optional[RatFunc]) -> dict:
        return _exponents(*split(part.num, keys)) if part is not None else {}

    def den_vec(part: Optional[RatFunc]) -> dict:
        return _exponents(part.roots, part.rest) if part is not None else {}

    c_num, c_den, f_num, f_den, a_den = (num_vec(C), den_vec(C), num_vec(f),
                                         den_vec(f), den_vec(A))
    radical = {key: 2 for vec in (c_num, c_den, f_num, f_den) for key in vec}
    # the numerators of C and f cancel factors of den C den B den f
    cbf = _add(c_den, den_vec(B), f_den)
    for key, e in _add(c_num, f_num).items():
        if key in cbf:
            cbf[key] = max(cbf[key] - e, 0)
    needs = [radical, _add(a_den, a_den), cbf, dict.fromkeys(table.poles, 2)]
    exps = {}
    for need in needs:
        for key, e in need.items():
            exps[key] = max(exps.get(key, 0), e)
    factors = tuple((key, e) for key, e in exps.items() if e)

    order_r = -2
    if not A.is_zero():
        order_a = _order_at_infinity(A)
        order_r = max(order_r, 2 * order_a, order_a - 1)
    if not B.is_zero():
        order_r = max(order_r, _order_at_infinity(C) + _order_at_infinity(B)
                      + (_order_at_infinity(f) if f is not None else 0))
    beta_sum = ctx.zero
    for beta in table.betas:
        beta_sum = beta_sum + beta
    order_t = -2 if beta_sum.is_zero() else -1
    degree = sum((key.degree() if isinstance(key, Poly) else 1) * e
                 for key, e in factors) + max(order_r, order_t)
    return ClearingBound(factors, max(degree, 0))


def identity_holds(system: FirstOrderSystem, table: models.CoefficientTable,
                   params: models.ModelParams) -> bool:
    """Exact proof that r of the system equals the table T as rational
    functions: E (r - T) is a polynomial of degree <= B, so it vanishes
    identically once r(z) = T(z) at B + 1 rational points z with E(z) != 0
    (tried in the order 0, 1, -1, 2, -2, ...).  The roots of E are exactly
    the points where one of the two evaluations meets a zero divisor, so
    those are skipped."""
    bound = clearing_bound(system, table, params)
    needed = bound.degree + 1
    z = 0
    while needed:
        try:
            if normal_form_r_at(system, z) != table.evaluate(z):
                return False
            needed -= 1
        except (PoleEvaluation, DivisionByZero):
            pass    # z is a root of E
        z = -z if z > 0 else 1 - z
    return True


def certify(config: RunConfig) -> Certificate:
    """Full pipeline: parameters -> system -> normal form -> closed-form
    match -> spectrum -> lemma -> case I / product test -> case II -> case
    III screen -> classification -> conclusion."""
    try:
        params = models.derive_params(config.space, config.potential,
                                      config.strength, config.mu,
                                      config.p, config.eps)
    except DegenerateParameters as exc:
        return Certificate(config, CONCLUSION_DEGENERATE, degenerate_guard=exc.guard)

    system = models.build_system(params)
    ode = reduce_to_second_order(system)
    normal = to_normal_form(ode)
    r = normal.r
    ctx = params.ctx

    table = models.closed_form_r(params)
    table_match = (r == table.reconstruct(ctx))
    gauge_ok = verify_gauge_transform(normal, ode,
                                      _gauge_log_derivative(system, ctx))

    try:
        poles = models.detect_poles(params, r)
    except DegenerateParameters as exc:
        return Certificate(config, CONCLUSION_DEGENERATE, degenerate_guard=exc.guard)
    spec = singularity_spectrum(normal, poles)

    try:
        lemma_report = models.lemma_condition(params)
    except HypothesisViolated as exc:
        lemma_report = exc.report
    lemma_summary = _lemma_summary(lemma_report)

    case1 = kovacic.case1_search(normal, spec)
    xi_table: dict = {}     # one Theta and Xi per finite exponent tuple
    pair = kovacic.pair_exclusion(normal, spec, xi_table)
    esets = kovacic.e_sets(spec)
    cands = kovacic.candidates(esets)
    case2 = None
    xi_records = []
    for cand in cands:
        xi_val = kovacic.theta_xi(normal, cand, xi_table)[1]
        xi_records.append({
            "candidate": cand.render(),
            "is_zero": xi_val.is_zero(),
            "num_degree": xi_val.num.degree(),
            "num_leading": _scalar_str(xi_val.num.leading())
            if not xi_val.is_zero() else None,
        })
        if case2 is None:
            case2 = kovacic.search_P(normal, cand, xi_table)
    case_three = kovacic.case3_possible(spec)
    verdict = kovacic.classify(normal, spec, case1, case2, case_three,
                               pair.excluded)

    certified = verdict.identity_component_abelian is False
    gate = (table_match
            and len(case1) <= 1
            and case2 is None
            and not case_three)
    if certified and not gate:
        raise InvariantViolation(
            "non-abelian verdict without the full soundness gate: "
            f"table_match={table_match}, case1={len(case1)}, "
            f"case2={case2 is not None}, case3={case_three}")
    conclusion = CONCLUSION_CERTIFIED if certified else CONCLUSION_NO_OBSTRUCTION

    cert = Certificate(
        config=config,
        conclusion=conclusion,
        params={
            "space": params.space.value,
            "potential": params.potential.value,
            "strength": _frac_str(params.strength),
            "mu": _frac_str(params.mu),
            "p": _frac_str(params.p),
            "eps": _frac_str(params.eps),
            "kappa2": params.kappa2.render(),
            "lambda2": params.lambda2.render(),
            "z0": _frac_str(params.z0),
            "gamma_data": _frac_str(params.gamma_data),
        },
        spectrum=_spectrum_summary(spec),
        table_match=table_match,
        gauge_consistent=gauge_ok,
        lemma=lemma_summary,
        case1={
            "count": len(case1),
            "solutions": [{
                "omega": sol.omega.render(),
                "P_degree": sol.P.degree(),
                "exponents": [[_scalar_str(loc), _frac_str(rho)]
                              for loc, rho in sol.exponent_choices],
                "infinity_exponent": _frac_str(sol.infinity_exponent),
            } for sol in case1],
            "pair_excluded": pair.excluded,
            "product_candidates": [{
                "poly_degree": c.poly_degree,
                "solvable": c.solvable,
                "residual_degree": c.residual_num_degree,
                "residual_leading": _scalar_str(c.residual_leading)
                if c.residual_leading is not None else None,
            } for c in pair.candidates],
        },
        case2={
            "e_sets": [{"location": "infinity" if pt.is_infinity
                        else _scalar_str(pt.location),
                        "set": list(menu)} for pt, menu in esets],
            "candidates": [c.render() for c in cands],
            "found": case2 is not None,
            "P_degree": case2.P.degree() if case2 is not None else None,
            "xi": xi_records,
        },
        case3_possible=case_three,
        verdict={
            "classification": verdict.classification.value,
            "identity_component_abelian": verdict.identity_component_abelian,
            "notes": list(verdict.notes),
        },
    )
    if config.identity_samples > 0:
        rng = random.Random(config.seed)
        matches = 0
        for _ in range(config.identity_samples):
            sample = models.random_admissible_params(config.space,
                                                     config.potential, rng)
            matches += identity_holds(models.build_system(sample),
                                      models.closed_form_r(sample), sample)
        cert.identity_check = {"samples": config.identity_samples,
                               "matches": matches,
                               "all_match": matches == config.identity_samples}
    return cert


def render_report(cert: Certificate, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (json.dumps(cert.to_dict(), sort_keys=True, indent=2) + "\n").encode()
    if fmt != "text":
        raise CertifyError(f"unknown format {fmt!r}")
    lines = [f"conclusion: {cert.conclusion}"]
    if cert.degenerate_guard is not None:
        lines.append(f"degenerate guard: {cert.degenerate_guard}")
        lines.append("")
        return ("\n".join(lines) + "\n").encode()
    p = cert.params
    lines += [
        f"case: {p['space']} / {p['potential']} potential",
        f"parameters: strength={p['strength']} mu={p['mu']} p={p['p']} eps={p['eps']}",
        f"derived: kappa^2 = {p['kappa2']}, lambda^2 = {p['lambda2']}, z0 = {p['z0']}",
        f"closed-form table match: {cert.table_match}",
        f"gauge consistency: {cert.gauge_consistent}",
        "",
        "singular points (location | order | delta^2 | exponents):",
    ]
    for pt in cert.spectrum:
        expo = ", ".join(pt["exponents"]) if pt["exponents"] else "irrational pair"
        lines.append(f"  {pt['location']} | {pt['order']} | "
                     f"{pt['delta_squared']} | {expo}")
    lem = cert.lemma
    names = {1: "spherical Newton reality condition",
             2: "hyperbolic Newton reality condition",
             3: "oscillator reality condition"}
    lines += [
        "",
        f"{names.get(lem['index'], 'reality condition')}: "
        f"hypotheses {'hold' if lem['hypotheses_hold'] else 'violated'}"
        + (f" ({'; '.join(lem['failures'])})" if lem["failures"] else ""),
        f"  relevant second-order coefficients non-real: {lem['all_nonreal']}",
        "",
        f"case I rational solutions: {cert.case1['count']}",
        f"product-of-solutions excluded: {cert.case1['pair_excluded']}",
        f"case II auxiliary polynomial found: {cert.case2['found']}",
    ]
    for rec in cert.case2["xi"]:
        if rec["is_zero"]:
            lines.append(f"  {rec['candidate']}: Xi = 0")
        else:
            lines.append(f"  {rec['candidate']}: Xi numerator degree "
                         f"{rec['num_degree']}, leading {rec['num_leading']}")
    lines += [
        f"case III possible: {cert.case3_possible}",
        "",
        f"classification: {cert.verdict['classification']}",
        f"identity component abelian: {cert.verdict['identity_component_abelian']}",
    ]
    for note in cert.verdict["notes"]:
        lines.append(f"  note: {note}")
    if cert.identity_check is not None:
        lines.append(f"identity samples: {cert.identity_check['matches']}"
                     f"/{cert.identity_check['samples']} matched")
    lines.append(f"conclusion: {cert.conclusion}")
    return ("\n".join(lines) + "\n").encode()
