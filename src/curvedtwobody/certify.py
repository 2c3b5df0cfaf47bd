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
from .exactfield import _rat
from .linode import (NormalFormODE, SingularitySpectrum, normal_form,
                     reduce_to_second_order, verify_gauge_transform)
from .models import (DegenerateParameters, HypothesisViolated,
                     Potential, Space)
from .ratcalc import RatCalcError, RatFunc


class CertifyError(Exception):
    pass


class InvariantViolation(CertifyError):
    """The evidence and the verdict disagree: an internal bug, never an input
    problem."""


CONCLUSION_CERTIFIED = "NonintegrabilityCertified"
CONCLUSION_NO_OBSTRUCTION = "NoObstructionFound"
CONCLUSION_DEGENERATE = "Degenerate"


# Each identity sample is a full exact proof at fresh parameters, so its
# cost grows linearly with the count: the cap keeps certify's run time
# bounded, where a value such as 10**30 would run forever.
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


# the keys of a run, as RunConfig.to_dict writes them and from_dict reads them
RUN_KEYS = ("space", "potential", "strength", "mu", "p", "eps", "seed", "identity_samples")


def check_run_keys(data: dict) -> None:
    """Refuse a run whose keys are not all RUN_KEYS, naming the first other
    one: a misspelt key would otherwise leave its value at the default."""
    for key in data:
        if key not in RUN_KEYS:
            raise CertifyError(f"unknown key {key!r}; a run takes {', '.join(RUN_KEYS)}")


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
        check_run_keys(data)
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


def _spectrum_summary(spec: SingularitySpectrum) -> list:
    out = []
    for pt in spec.points:
        out.append({
            "location": "infinity" if pt.is_infinity else pt.location.render(),
            "order": pt.order,
            "alpha": pt.alpha.render(),
            "delta_squared": pt.delta_squared.render(),
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
    """h = C'/(2C) [+ f'/(4f)], with g'/g = h the gauge to the normal form,
    read off the system's C and f by log_derivative: the generic form of
    models.gauge_log_derivative."""
    h = RatFunc.constant(ctx, Fraction(1, 2)) * system.C.log_derivative()
    if system.weight is not None:
        h = h + RatFunc.constant(ctx, Fraction(1, 4)) * system.weight.log_derivative()
    return h


def _normal_form(params: models.ModelParams):
    """The system of params, its gauge log-derivative h (in closed form,
    models.gauge_log_derivative) and the normal form from the Riccati
    step."""
    system = models.build_system(params)
    h = models.gauge_log_derivative(params)
    return system, h, normal_form(system, h)


def matches_table(params: models.ModelParams, r: RatFunc,
                  T: Optional[RatFunc] = None) -> bool:
    """Exact proof that r, the normal form of params' system, equals T, the
    closed-form table sum alpha_j/(z-c_j)^2 + beta_j/(z-c_j) (else
    models.closed_form_r(params).reconstruct): both sides are RatFunc
    values with monic factored denominators, and == cross-multiplies their
    stored forms over the lcm, so they compare equal exactly when they are
    the same rational function.  Neither side is tested for lowest terms.
    For Newton r's stored denominator is already the table's; the
    oscillator's keeps (z^2 - lambda^2)^3 from C B f."""
    if T is None:
        T = models.closed_form_r(params).reconstruct(params.ctx)
    return r == T


def _table_r(T: RatFunc, spec: SingularitySpectrum) -> RatFunc:
    """r = T in lowest terms: T's numerator over prod (z - c)^2 divided
    exactly by prod (z - c)^(2 - order), with the pole orders of spec that
    CoefficientTable.spectrum reads off the table.  What is left does not
    vanish at a pole of order k, where its value is the table's alpha
    (k = 2) or beta (k = 1) times the other factors, so it is in lowest
    terms as built."""
    try:
        return T.reduced_to({pt.location: pt.order for pt in spec.finite_points})
    except RatCalcError as exc:
        raise InvariantViolation(f"the table's pole orders do not reduce T: {exc}") from None


def certify(config: RunConfig) -> Certificate:
    """Full pipeline: parameters -> system -> normal form -> closed-form
    match -> spectrum -> lemma -> case I / product test -> case II -> case
    III screen -> classification -> conclusion.

    r is the table (tests/table_proof.py proves r = T for every
    admissible set), so the spectrum and the r that the Kovacic stages
    read come from it (CoefficientTable.spectrum, _table_r).  A table
    mismatch is a fault in the program's forms and raises
    InvariantViolation."""
    try:
        params = models.derive_params(config.space, config.potential,
                                      config.strength, config.mu,
                                      config.p, config.eps)
    except DegenerateParameters as exc:
        return Certificate(config, CONCLUSION_DEGENERATE, degenerate_guard=exc.guard)

    system, h, normal = _normal_form(params)
    table = models.closed_form_r(params)
    T = table.reconstruct(params.ctx)
    if not matches_table(params, normal.r, T):
        raise InvariantViolation("the normal form r differs from the closed-form table")
    # the elimination runs once, as the independent derivation of r
    gauge_ok = verify_gauge_transform(normal, reduce_to_second_order(system), h)
    spec = table.spectrum()
    normal = NormalFormODE(_table_r(T, spec))

    try:
        lemma_report = models.lemma_condition(params, table)
    except HypothesisViolated as exc:
        lemma_report = exc.report
    lemma_summary = _lemma_summary(lemma_report)

    case1 = kovacic.case1_search(normal, spec)
    pair = kovacic.pair_exclusion(normal, spec)
    esets = kovacic.e_sets(spec)
    cands = kovacic.candidates(esets)
    case2 = None
    xi_records = []
    for cand in cands:
        xi_val = kovacic.case2_operator(normal, cand.finite, 0)[0]
        xi_records.append({
            "candidate": cand.render(),
            "is_zero": xi_val.is_zero(),
            "num_degree": xi_val.num.degree(),
            "num_leading": xi_val.num.leading().render()
            if not xi_val.is_zero() else None,
        })
        if case2 is None:
            case2 = kovacic.search_P(normal, cand)
    case_three = kovacic.case3_possible(spec)
    verdict = kovacic.classify(normal, spec, case1, case2, case_three,
                               pair.excluded)

    certified = verdict.identity_component_abelian is False
    gate = len(case1) <= 1 and case2 is None and not case_three
    if certified and not gate:
        raise InvariantViolation(
            "non-abelian verdict without the full soundness gate: "
            f"case1={len(case1)}, case2={case2 is not None}, case3={case_three}")
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
        table_match=True,
        gauge_consistent=gauge_ok,
        lemma=lemma_summary,
        case1={
            "count": len(case1),
            "solutions": [{
                "omega": sol.render_omega(),
                "P_degree": sol.P.degree(),
                "exponents": [[loc.render(), _frac_str(rho)]
                              for loc, rho in sol.exponent_choices],
                "infinity_exponent": _frac_str(sol.infinity_exponent),
            } for sol in case1],
            "pair_excluded": pair.excluded,
            "product_candidates": [{
                "poly_degree": c.poly_degree,
                "solvable": c.solvable,
                "residual_degree": c.residual_num_degree,
                "residual_leading": c.residual_leading.render()
                if c.residual_leading is not None else None,
            } for c in pair.candidates],
        },
        case2={
            "e_sets": [{"location": "infinity" if pt.is_infinity
                        else pt.location.render(),
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
            matches += matches_table(sample, _normal_form(sample)[2].r)
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
