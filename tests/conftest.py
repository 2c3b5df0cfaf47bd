from fractions import Fraction

import pytest

from curvedtwobody.models import ModelParams, Potential, Space, derive_params

# The four README reference sets, one per space and potential.
REFERENCE_PARAMETERS = {
    (Space.SPHERE, Potential.NEWTON):
        dict(strength=Fraction(2), mu=Fraction(1, 2), p=Fraction(1), eps=Fraction(0)),
    (Space.HYPERBOLIC, Potential.NEWTON):
        dict(strength=Fraction(1), mu=Fraction(1, 2), p=Fraction(1), eps=Fraction(-2)),
    (Space.SPHERE, Potential.OSCILLATOR):
        dict(strength=Fraction(1), mu=Fraction(1, 2), p=Fraction(1), eps=Fraction(-1)),
    (Space.HYPERBOLIC, Potential.OSCILLATOR):
        dict(strength=Fraction(1), mu=Fraction(1, 2), p=Fraction(1), eps=Fraction(-1)),
}


def reference_params(space: Space, potential: Potential) -> ModelParams:
    return derive_params(space, potential, **REFERENCE_PARAMETERS[(space, potential)])


CRITERIA = {
    1: "coefficient-table equivalence (exact, >=20 random sets per case)",
    2: "Newton spectra: six order-2 points, Delta0 = Delta_inf = 2, infinity exponents {-3/2, 1/2}",
    3: "candidate-set reproduction: Newton and oscillator E-sets and unique d=0 assignment",
    4: "Xi nonvanishing and displayed numerators",
    5: "case-I product test: nonzero symmetric-power residual for the rigid candidate",
    6: "mu=1 degeneration: two rational solutions, abelian verdict, NoObstructionFound",
    7: "reality lemmas: relevant alpha_j non-real at the named parameter sets",
    8: "dynamics conservation: energy < 1e-8, Casimir < 1e-10, extra integrals < 1e-8",
    9: "time/z-domain consistency via the chain rule (rel 1e-6, >=100 points per case)",
    10: "end-to-end certify: four certified references, mu=1 never certified, byte-identical reruns",
}

_results: dict[int, list] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(criterion): acceptance-criterion test")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    crit = marker.kwargs.get("criterion") or marker.args[0]
    _results.setdefault(crit, []).append(report.passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for crit in sorted(_results):
        passed = all(_results[crit])
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {crit:2d}: {status} - {CRITERIA.get(crit, '')}")
