"""The traced run: per-layer timings from spans recorded around the calls
into each module's public functions.

The program itself is not instrumented.  ``replay_certify`` runs the
certify pipeline stage by stage through the public functions, in
``certify.certify``'s order, inside spans; the probes time single
operations of ``exactfield``, ``ratcalc``, ``models`` and ``dynamics`` on
the workload's own data.  Spans are kept in memory and written out when
the run ends.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import time
from dataclasses import replace

from curvedtwobody import certify as certify_mod
from curvedtwobody import cli, dynamics, kovacic, linode, models
from curvedtwobody.certify import (CONCLUSION_CERTIFIED, CONCLUSION_NO_OBSTRUCTION,
                                   RunConfig)
from curvedtwobody.exactfield import DivisionByZero
from curvedtwobody.ratcalc import Poly, poly_gcd

import workloads

# Every traced set runs at least this many identity samples, so that the
# identity stage has a reading on every workload.
MIN_TRACE_IDENTITY_SAMPLES = 2
# The traced run replays the first sets only (the first mu = 1 set of
# random-sweep is its sixth), so that it ends well within three minutes.
TRACE_SETS = 6
PROBE_SETS = 4          # sets whose r feeds the exactfield/ratcalc probes
PROBE_SECONDS = 0.02    # least time per probe batch
PROBE_BATCHES = 5


class Tracer:
    """Spans (name, start, end, parent index) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self, name: str) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span never overlap)."""
        child = {}
        for n, start, end, parent in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return [end - start - child.get(i, 0.0)
                for i, (n, start, end, _) in enumerate(self.spans) if n == name]

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


def replay_certify(cfg: RunConfig, tr: Tracer) -> dict:
    """certify.certify, stage by stage, with a span around each call.
    Returns the facts the certificate must share with the replay."""
    with tr.span("certify.certify"):
        with tr.span("certify.pipeline"):
            params = tr.call("models.derive_params", models.derive_params, cfg.space,
                             cfg.potential, cfg.strength, cfg.mu, cfg.p, cfg.eps)
            ctx = params.ctx
            system = tr.call("models.build_system", models.build_system, params)
            ode = tr.call("linode.reduce_to_second_order",
                          linode.reduce_to_second_order, system)
            normal = tr.call("linode.to_normal_form", linode.to_normal_form, ode)
            with tr.span("models.table_match"):
                table_match = normal.r == models.closed_form_r(params).reconstruct(ctx)
            with tr.span("linode.verify_gauge_transform"):
                gauge_ok = linode.verify_gauge_transform(
                    normal, ode, certify_mod._gauge_log_derivative(system, ctx))
            poles = tr.call("models.detect_poles", models.detect_poles, params, normal.r)
            spec = tr.call("linode.singularity_spectrum", linode.singularity_spectrum,
                           normal, poles)
            with tr.span("models.lemma_condition"):
                try:
                    models.lemma_condition(params)
                except models.HypothesisViolated:
                    pass
            case1 = tr.call("kovacic.case1_search", kovacic.case1_search, normal, spec)
            pair = tr.call("kovacic.pair_exclusion", kovacic.pair_exclusion, normal, spec)
            with tr.span("kovacic.candidates"):
                cands = kovacic.candidates(kovacic.e_sets(spec))
            case2 = None
            xi_zero = []
            for cand in cands:
                with tr.span("kovacic.xi"):
                    xi_zero.append(kovacic.xi(normal, kovacic.theta(ctx, cand)).is_zero())
                if case2 is None:
                    case2 = tr.call("kovacic.search_P", kovacic.search_P, normal, cand)
            case_three = tr.call("kovacic.case3_possible", kovacic.case3_possible, spec)
            verdict = tr.call("kovacic.classify", kovacic.classify, normal, spec, case1,
                              case2, case_three, pair.excluded)
        matches = None
        if cfg.identity_samples > 0:
            matches = 0
            with tr.span("certify.identity"):
                rng = random.Random(cfg.seed)
                for _ in range(cfg.identity_samples):
                    with tr.span("certify.identity_sample"):
                        sample = tr.call("models.random_admissible_params",
                                         models.random_admissible_params,
                                         cfg.space, cfg.potential, rng)
                        rr = tr.call("linode.to_normal_form", linode.to_normal_form,
                                     tr.call("linode.reduce_to_second_order",
                                             linode.reduce_to_second_order,
                                             tr.call("models.build_system",
                                                     models.build_system, sample))).r
                        with tr.span("models.table_match"):
                            matches += rr == models.closed_form_r(sample).reconstruct(
                                sample.ctx)
    certified = verdict.identity_component_abelian is False
    return {
        "table_match": table_match, "gauge_consistent": gauge_ok,
        "case1_count": len(case1), "case2_found": case2 is not None,
        "classification": verdict.classification.value,
        "identity_component_abelian": verdict.identity_component_abelian,
        "conclusion": CONCLUSION_CERTIFIED if certified else CONCLUSION_NO_OBSTRUCTION,
        "identity_matches": matches,
        "xi_zero": xi_zero,
        # sizes and counts, not compared
        "r": normal.r, "ctx": ctx,
        "case2_candidates": len(cands), "pair_candidates": len(pair.candidates),
    }


def certificate_facts(cert: dict) -> dict:
    return {
        "table_match": cert["table_match"],
        "gauge_consistent": cert["gauge_consistent"],
        "case1_count": cert["case1"]["count"],
        "case2_found": cert["case2"]["found"],
        "classification": cert["verdict"]["classification"],
        "identity_component_abelian": cert["verdict"]["identity_component_abelian"],
        "conclusion": cert["conclusion"],
        "identity_matches": (cert.get("identity_check") or {}).get("matches"),
        "xi_zero": [rec["is_zero"] for rec in cert["case2"]["xi"]],
    }


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def per_call(fn, args_list) -> float:
    """Median seconds per call of fn over args_list, in batches of at least
    PROBE_SECONDS."""
    results = []
    for _ in range(PROBE_BATCHES):
        calls = 0
        t0 = time.perf_counter()
        while True:
            for args in args_list:
                fn(*args)
            calls += len(args_list)
            elapsed = time.perf_counter() - t0
            if elapsed >= PROBE_SECONDS:
                break
        results.append(elapsed / calls)
    return statistics.median(results)


def coeff_bits(r) -> int:
    bits = 0
    for c in r.num.coeffs + r.den.coeffs:
        for g in c.coords():
            for q in (g.re, g.im):
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def probe_exact_layers(facts: list[dict]) -> dict:
    """exactfield and ratcalc operations on the r of up to PROBE_SETS sets."""
    gauss, collapsed, tower, invertible = [], [], [], []
    poly_mul, poly_div, gcd, rf = [], [], [], []
    for f in facts[:PROBE_SETS]:
        r, ctx = f["r"], f["ctx"]
        cs = list(r.num.coeffs + r.den.coeffs)
        gs = [g for c in cs for g in c.coords() if not g.is_zero()]
        gauss += [(a, b) for a, b in zip(gs, gs[1:] + gs[:1])]
        collapsed += [(a, b) for a, b in zip(cs, cs[1:] + cs[:1])]
        elems = [ctx.scalar(*gs[i:i + 4]) for i in range(0, len(gs) - 3, 4)]
        tower += [(a, b) for a, b in zip(elems, elems[1:] + elems[:1])]
        for e in elems:
            try:
                e.inverse()
            except DivisionByZero:   # a zero divisor of a split tower
                continue
            invertible.append((e,))
        poly_mul.append((r.num, r.den))
        poly_div.append((r.num * r.num, r.den))
        gcd.append((r.den, r.den.derivative()))
        rf.append((r, r.derivative()))
    return {
        "exactfield.gauss_mul_ns": (per_call(lambda a, b: a * b, gauss) * 1e9, "ns"),
        "exactfield.tower_mul_collapsed_ns":
            (per_call(lambda a, b: a * b, collapsed) * 1e9, "ns"),
        "exactfield.tower_mul_tower_ns": (per_call(lambda a, b: a * b, tower) * 1e9, "ns"),
        "exactfield.tower_inverse_tower_us":
            (per_call(lambda a: a.inverse(), invertible) * 1e6, "us"),
        "ratcalc.poly_mul_us": (per_call(lambda a, b: a * b, poly_mul) * 1e6, "us"),
        "ratcalc.poly_divmod_us": (per_call(Poly.divmod, poly_div) * 1e6, "us"),
        "ratcalc.poly_gcd_ms": (per_call(poly_gcd, gcd) * 1e3, "ms"),
        "ratcalc.ratfunc_add_ms": (per_call(lambda a, b: a + b, rf) * 1e3, "ms"),
        "ratcalc.ratfunc_mul_ms": (per_call(lambda a, b: a * b, rf) * 1e3, "ms"),
        "ratcalc.ratfunc_derivative_ms":
            (per_call(lambda a, b: a.derivative(), rf) * 1e3, "ms"),
    }


def probe_dynamics(orbits: list, rkf45_t_end: float, section_t_end: float) -> dict:
    states = []
    rkf45_steps = 0
    rk4_us, rkf45_us = [], []
    for orbit in orbits:
        rep = dynamics.integrate(orbit.h, orbit.x0, 1.0, dynamics.IntegrationOptions(
            step=workloads.STEP, sample_every=50, casimir_abort=None))
        states += [(orbit.h, x) for x in rep.states]
        t0 = time.perf_counter()
        rep = dynamics.integrate(orbit.h, orbit.x0, 1.0, dynamics.IntegrationOptions(
            step=workloads.STEP, sample_every=5000, casimir_abort=None))
        rk4_us.append((time.perf_counter() - t0) / rep.steps * 1e6)
        rep, dt = workloads.timed_integration(orbit, rkf45_t_end, "rkf45")
        rkf45_us.append(dt / rep.steps * 1e6)
        rkf45_steps += rep.steps
    crossings = len(workloads.timed_section(orbits[0], section_t_end)[0])
    return {
        "models.hamiltonian_grad_us": (per_call(lambda h, x: h.grad(x), states) * 1e6, "us"),
        "dynamics.vector_field_us": (per_call(dynamics.vector_field, states) * 1e6, "us"),
        "dynamics.rk4_step_us": (statistics.median(rk4_us), "us"),
        "dynamics.rkf45_step_us": (statistics.median(rkf45_us), "us"),
        "dynamics.rkf45_steps": (rkf45_steps, "count"),
        "dynamics.section_crossings": (crossings, "count"),
    }


def time_sweep(cfg: RunConfig, work_dir: str) -> float:
    """``curvedtwobody sweep --jobs 1`` on one set, through click, in
    work_dir, which is removed afterwards."""
    os.makedirs(work_dir, exist_ok=True)
    try:
        config_path = os.path.join(work_dir, "sweep.json")
        with open(config_path, "w") as fh:
            json.dump({"runs": [cfg.to_dict()]}, fh)
        args = ["sweep", "--config", config_path, "--out-dir",
                os.path.join(work_dir, "certs"), "--jobs", "1"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args=args, standalone_mode=False)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def trace_inputs(workload: str, seed: int, sizes=workloads.FULL):
    """(configs, orbits) of a workload.  orbits certifies nothing untraced;
    its traced run replays its orbits' parameter sets."""
    orbits = workloads.orbit_inputs(seed)
    if workload == "reference-default":
        return workloads.reference_configs(seed, sizes), orbits[:1]
    if workload == "random-sweep":
        return workloads.sweep_configs(seed, sizes)[0], orbits[:1]
    return workloads.orbit_configs(orbits), orbits


def traced_run(workload: str, seed: int, work_dir: str, sizes=workloads.FULL):
    """Returns (per-layer metrics, errors, spans, overhead summary)."""
    return traced_run_on(*trace_inputs(workload, seed, sizes), sizes, work_dir)


def span_cost() -> float:
    """Seconds one empty span costs."""
    tr = Tracer()
    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("empty"):
            pass
    return (time.perf_counter() - t0) / n


def traced_run_on(configs, orbits, sizes, work_dir: str):
    configs = [replace(c, identity_samples=max(c.identity_samples,
                                               MIN_TRACE_IDENTITY_SAMPLES))
               for c in configs[:TRACE_SETS]]
    tr = Tracer()
    errors, facts, render_s = [], [], []
    untraced_s = traced_s = 0.0
    for cfg in configs:
        t0 = time.perf_counter()
        cert = certify_mod.certify(cfg)
        untraced_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        certify_mod.render_report(cert, "json")
        render_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        f = replay_certify(cfg, tr)
        traced_s += time.perf_counter() - t0
        facts.append(f)
        replayed = {k: f[k] for k in certificate_facts(cert.to_dict())}
        if replayed != certificate_facts(cert.to_dict()):
            errors.append(f"replay of {cfg.to_dict()} differs from certify: "
                          f"{replayed} != {certificate_facts(cert.to_dict())}")

    def med(name):
        return statistics.median(tr.durations(name))

    m = {
        "linode.reduce_s": (med("linode.reduce_to_second_order"), "s"),
        "linode.normal_form_s": (med("linode.to_normal_form"), "s"),
        "linode.gauge_check_s": (med("linode.verify_gauge_transform"), "s"),
        "linode.spectrum_s": (med("linode.singularity_spectrum"), "s"),
        "linode.r_num_degree": (max(f["r"].num.degree() for f in facts), "count"),
        "linode.r_den_degree": (max(f["r"].den.degree() for f in facts), "count"),
        "linode.r_coeff_bits": (max(coeff_bits(f["r"]) for f in facts), "bits"),
        "models.build_system_s": (med("models.build_system"), "s"),
        "models.table_match_s": (med("models.table_match"), "s"),
        "models.detect_poles_s": (med("models.detect_poles"), "s"),
        "models.lemma_s": (med("models.lemma_condition"), "s"),
        "kovacic.case1_s": (med("kovacic.case1_search"), "s"),
        "kovacic.pair_s": (med("kovacic.pair_exclusion"), "s"),
        "kovacic.xi_s": (med("kovacic.xi"), "s"),
        "kovacic.search_P_s": (med("kovacic.search_P"), "s"),
        "kovacic.classify_s": (med("kovacic.classify"), "s"),
        "kovacic.case1_solutions": (sum(f["case1_count"] for f in facts), "count"),
        "kovacic.case2_candidates": (sum(f["case2_candidates"] for f in facts), "count"),
        "kovacic.pair_candidates": (sum(f["pair_candidates"] for f in facts), "count"),
        "certify.pipeline_s": (med("certify.pipeline"), "s"),
        "certify.identity_s": (med("certify.identity"), "s"),
        "certify.identity_sample_s": (med("certify.identity_sample"), "s"),
        "certify.render_s": (statistics.median(render_s), "s"),
        "certify.self_s": (statistics.median(tr.self_times("certify.certify")), "s"),
    }
    m.update(probe_exact_layers(facts))
    m.update(probe_dynamics(orbits, sizes.rkf45_t_end, sizes.section_t_end))
    sweep_cfg = replace(configs[0], identity_samples=0)
    m["cli.sweep_s"] = (time_sweep(sweep_cfg, work_dir), "s")
    overhead = {"untraced_certify_s": untraced_s, "traced_replay_s": traced_s,
                "overhead_s": traced_s - untraced_s,
                "overhead_share": (traced_s - untraced_s) / untraced_s,
                "sets": len(configs), "spans": len(tr.spans),
                "span_cost_estimate_s": len(tr.spans) * span_cost()}
    return m, errors, tr.to_json(), overhead
