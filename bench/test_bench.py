"""Self-tests of the benchmark: every workload at a tiny size, the traced
replay on one set, and each output check rejecting a corrupted result.

    python3 -m pytest bench/test_bench.py -q
"""
import dataclasses
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import pytest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from curvedtwobody import dynamics, models  # noqa: E402
from curvedtwobody.certify import certify  # noqa: E402
from curvedtwobody.ratcalc import Poly, RatFunc  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def reference_cert():
    cfg = dataclasses.replace(workloads.reference_configs(0)[0], identity_samples=1)
    return cfg, certify(cfg).to_dict()


@pytest.mark.parametrize("name", sorted(workloads.RUNNERS))
def test_workload_tiny(name):
    run = workloads.RUNNERS[name](3, 0.0, workloads.TINY)
    run.run_deferred()
    assert run.errors == []
    assert run.failed == 0 and run.attempted > 0 and run.rounds == 1
    metrics = workloads.metrics(run)
    assert all(value > 0 for value, _ in metrics.values())
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {**{k: u for k, (_, u) in metrics.items()}, "peak_rss_mb": "MB"} == e2e


def test_traced_replay_matches_certify(tmp_path):
    cfg = workloads.reference_configs(0)[0]
    orbit = workloads.orbit_inputs(0)[0]
    metrics, errors, spans, overhead = tracing.traced_run_on(
        [dataclasses.replace(cfg, identity_samples=0)], [orbit], workloads.TINY,
        str(tmp_path / "work"))
    assert errors == []
    assert {k: u for k, (_, u) in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert overhead["sets"] == 1 and len(spans) == overhead["spans"]
    names = {s["name"] for s in spans}
    assert {"certify.certify", "certify.identity_sample", "kovacic.search_P"} <= names
    assert all(s["end"] >= s["start"] for s in spans)


def test_replay_facts_disagree_with_a_flipped_certificate(reference_cert):
    cfg, cert = reference_cert
    facts = tracing.replay_certify(cfg, tracing.Tracer())
    assert {k: facts[k] for k in tracing.certificate_facts(cert)} == \
        tracing.certificate_facts(cert)
    flipped = dict(cert, conclusion="NoObstructionFound")
    assert {k: facts[k] for k in tracing.certificate_facts(flipped)} != \
        tracing.certificate_facts(flipped)


def test_reference_check_rejects_flipped_conclusion(reference_cert):
    _, cert = reference_cert
    assert checks.check_reference_certificate(cert, 1) == []
    assert checks.check_reference_certificate(
        dict(cert, conclusion="NoObstructionFound"), 1)
    assert checks.check_reference_certificate(dict(cert, table_match=False), 1)
    assert checks.check_reference_certificate(cert, 2)   # 1/1 is not 2/2
    xi = [dict(rec, is_zero=True) for rec in cert["case2"]["xi"]]
    assert checks.check_reference_certificate(
        dict(cert, case2=dict(cert["case2"], xi=xi)), 1)


def test_sympy_check_rejects_one_altered_coefficient_of_r():
    cfg = workloads.reference_configs(0)[0]
    params, r = checks.program_r(cfg)
    assert checks.check_r_against_sympy(cfg, 5) == []
    coeffs = list(r.num.coeffs)
    coeffs[1] = coeffs[1] + params.ctx.from_rational(1)
    altered = RatFunc(Poly(params.ctx, coeffs), r.den)
    assert checks.check_r_against_sympy(cfg, 5, altered)


def test_sweep_check_rejects_flipped_conclusion_and_wrong_omega():
    cfgs, _ = workloads.sweep_configs(0, dataclasses.replace(workloads.TINY,
                                                             sweep_sets=6))
    generic, mu1 = certify(cfgs[0]).to_dict(), certify(cfgs[5]).to_dict()
    assert checks.check_sweep_certificate(generic) == []
    assert checks.check_sweep_certificate(mu1) == []
    assert checks.check_sweep_certificate(dict(generic, conclusion="NoObstructionFound"))
    assert checks.check_sweep_certificate(dict(mu1, conclusion="NonintegrabilityCertified"))
    sols = [dict(s) for s in mu1["case1"]["solutions"]]
    sols[0]["omega"] = sols[1]["omega"]
    assert checks.check_sweep_certificate(dict(mu1, case1=dict(mu1["case1"],
                                                               solutions=sols)))


def test_all_rational_exponent_set_is_left_out():
    params = models.derive_params(models.Space.HYPERBOLIC, models.Potential.NEWTON,
                                  2, 4, 4, "5/4")
    assert workloads.every_exponent_rational(params)
    assert not workloads.every_exponent_rational(
        models.derive_params(models.Space.HYPERBOLIC, models.Potential.NEWTON,
                             1, "1/2", 1, -2))


def test_trajectory_check_rejects_drift_beyond_its_bound():
    orbit = workloads.orbit_inputs(0)[0]
    rep, _ = workloads.timed_integration(orbit, 0.5, "rk4")
    assert checks.check_trajectory(rep, 0.5, workloads.STEP, fixed_step=True) == []
    coarse = dynamics.integrate(orbit.h, orbit.x0, 5.0, dynamics.IntegrationOptions(
        step=0.25, sample_every=100, casimir_abort=None))
    assert coarse.energy_drift > checks.ENERGY_DRIFT_BOUND
    assert checks.check_trajectory(coarse, 5.0, 0.25, fixed_step=True)
    assert checks.check_trajectory(dataclasses.replace(rep, steps=rep.steps + 1), 0.5,
                                   workloads.STEP, fixed_step=True)


def test_section_check_rejects_a_point_off_the_plane():
    orbit = workloads.orbit_inputs(0)[0]
    points, _ = workloads.timed_section(orbit, 6.0)
    assert points and checks.check_section(points, orbit.h, orbit.x0) == []
    state = list(points[0].state)
    state[3] += 1e-6
    moved = dataclasses.replace(points[0], state=tuple(state))
    assert checks.check_section([moved], orbit.h, orbit.x0)


def test_degenerate_check_rejects_a_real_certificate(reference_cert):
    _, cert = reference_cert
    assert checks.check_degenerate_certificate(cert)


def test_spec_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.RUNNERS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
