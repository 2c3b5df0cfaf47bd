"""Seeded inputs and the measured runs of the three benchmark workloads.

A run repeats whole rounds of a workload's operations until at least
``seconds`` have passed.  Every run reports every end-to-end metric, so
each workload has a main part and a small companion part for the metrics
outside it:

* ``reference-default`` and ``random-sweep`` certify parameter sets (main)
  and, in COMPANION_SLOTS slots spread over each round, time a cold import
  of the CLI and an RK4 run, RKF45 run and section of a bounded orbit
  (companion);
* ``orbits`` integrates the four bounded orbits and takes a section
  (main), times a cold import per round, and certifies each orbit's
  parameters with mu = 0, which ends at the degenerate-input guard before
  any exact arithmetic (companion), so the exact layers stay idle.

Timings are reported at nominal speed (see ``Run``) and summarised as
medians.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import curvedtwobody
from curvedtwobody import cli, dynamics, kovacic, linode, models
from curvedtwobody.certify import RunConfig, certify, render_report
from curvedtwobody.dynamics import IntegrationOptions
from curvedtwobody.models import HamiltonianKind, Potential, Space

import checks

PAIRS = ((Space.SPHERE, Potential.NEWTON), (Space.SPHERE, Potential.OSCILLATOR),
         (Space.HYPERBOLIC, Potential.NEWTON), (Space.HYPERBOLIC, Potential.OSCILLATOR))

# The README reference table: (space, potential, strength, mu, p, eps).
REFERENCE_SETS = (
    (Space.SPHERE, Potential.NEWTON, "2", "1/2", "1", "0"),
    (Space.HYPERBOLIC, Potential.NEWTON, "1", "1/2", "1", "-2"),
    (Space.SPHERE, Potential.OSCILLATOR, "1", "1/2", "1", "-1"),
    (Space.HYPERBOLIC, Potential.OSCILLATOR, "1", "1/2", "1", "-1"),
)

# The criterion-8 bounded orbits: parameters and initial state
# (theta, p_theta, p0, p1, p2).
BOUNDED_ORBITS = (
    (Space.SPHERE, Potential.NEWTON, ("1/4", "1/2", "1/10", "0"),
     (1.4, 0.02, 0.08, 0.04, 0.45)),
    (Space.HYPERBOLIC, Potential.NEWTON, ("1/2", "1/2", "1/10", "-2"),
     (1.3, 0.0, 0.02, 0.0, 0.3)),
    (Space.SPHERE, Potential.OSCILLATOR, ("1/4", "1/2", "1/10", "1"),
     (1.0, 0.05, 0.1, 0.05, 0.3)),
    (Space.HYPERBOLIC, Potential.OSCILLATOR, ("1/2", "1/2", "1/10", "1/4"),
     (0.7, 0.0, 0.02, 0.0, 0.15)),
)

STEP = 1e-3                 # the CLI default step
ORBIT_PERTURBATION = 1e-3   # seeded shift of each initial coordinate


@dataclass(frozen=True)
class Sizes:
    """Work per round.  The benchmark uses FULL; the self-tests use TINY."""

    identity_samples: int = 20        # reference-default, the CLI default
    sweep_sets: int = 16              # random-sweep
    rk4_t_end: float = 5.0            # per orbit
    rkf45_t_end: float = 2.5          # per orbit
    section_t_end: float = 10.0       # sphere Newton orbit
    degenerate_repeats: int = 10      # orbits, mu = 0 certificates per orbit


FULL = Sizes()
TINY = Sizes(identity_samples=1, sweep_sets=2, rk4_t_end=0.5, rkf45_t_end=0.2,
             section_t_end=6.0, degenerate_repeats=2)
COMPANION_SLOTS = 5    # per round of a certify workload, spread over it


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def reference_configs(seed: int, sizes: Sizes = FULL) -> list[RunConfig]:
    """The four reference sets with the CLI defaults, in a seeded order."""
    configs = [RunConfig.from_dict({
        "space": sp.value, "potential": po.value, "strength": s, "mu": mu,
        "p": p, "eps": eps, "seed": 0, "identity_samples": sizes.identity_samples})
        for sp, po, s, mu, p, eps in REFERENCE_SETS]
    random.Random(seed).shuffle(configs)
    return configs


def every_exponent_rational(params: models.ModelParams) -> bool:
    """kovacic.case3_possible on the spectrum of the closed-form r."""
    r = models.closed_form_r(params).reconstruct(params.ctx)
    spec = linode.singularity_spectrum(linode.NormalFormODE(r),
                                       models.detect_poles(params, r))
    return kovacic.case3_possible(spec)


def sweep_configs(seed: int, sizes: Sizes = FULL):
    """Seeded admissible sets; the k-th of every six is at mu = 1.

    The mu != 1 sets cycle through the four space x potential pairs, and
    the mu = 1 sets do so separately, so the make-up of a round does not
    depend on the seed.  A mu != 1 set with every exponent rational is left
    out (no certificate can result there) and returned in ``left_out``.
    """
    rng = random.Random(seed)
    configs, left_out = [], []
    n_generic = n_mu1 = 0
    while len(configs) < sizes.sweep_sets:
        mu_one = len(configs) % 6 == 5
        space, potential = PAIRS[(n_mu1 if mu_one else n_generic) % 4]
        params = models.random_admissible_params(space, potential, rng, mu_one=mu_one)
        if not mu_one and every_exponent_rational(params):
            left_out.append(params)
            continue
        if mu_one:
            n_mu1 += 1
        else:
            n_generic += 1
        configs.append(RunConfig(space, potential, params.strength, params.mu,
                                 params.p, params.eps, seed=0, identity_samples=0))
    return configs, left_out


@dataclass(frozen=True)
class Orbit:
    params: models.ModelParams
    h: models.ReducedHamiltonian
    x0: tuple


def orbit_inputs(seed: int) -> list[Orbit]:
    """The bounded orbits, each initial coordinate shifted by a seeded
    amount of at most ORBIT_PERTURBATION."""
    rng = random.Random(seed)
    out = []
    for space, potential, (s, mu, p, eps), x0 in BOUNDED_ORBITS:
        params = models.derive_params(space, potential, Fraction(s), Fraction(mu),
                                      Fraction(p), Fraction(eps))
        kind = HamiltonianKind.FULL_SPHERE if space is Space.SPHERE \
            else HamiltonianKind.FULL_HYPERBOLIC
        shifted = tuple(v + rng.uniform(-ORBIT_PERTURBATION, ORBIT_PERTURBATION)
                        for v in x0)
        out.append(Orbit(params, models.hamiltonian(kind, params), shifted))
    return out


def orbit_configs(orbits: list[Orbit], mu=None) -> list[RunConfig]:
    """Each orbit's parameter set as a run config, with mu replaced when
    given (mu = 0 stops at the degenerate-input guard)."""
    return [RunConfig(o.params.space, o.params.potential, o.params.strength,
                      o.params.mu if mu is None else Fraction(mu), o.params.p,
                      o.params.eps, identity_samples=0)
            for o in orbits]


# ---------------------------------------------------------------------------
# measured operations
# ---------------------------------------------------------------------------


def speed_sample() -> float:
    """The machine's speed now, relative to nominal: CALIBRATION_NOMINAL_S
    over the time a fixed piece of pure-Python float and Fraction work
    (independent of the program) takes."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += (i * 0.5) ** 0.5
    q = Fraction(1, 3)
    for i in range(60):
        q = q * Fraction(i + 2, i + 1) - Fraction(1, i + 7)
    return CALIBRATION_NOMINAL_S / (time.perf_counter() - t0)


CALIBRATION_NOMINAL_S = 0.0007   # speed_sample's work at nominal speed
EDGE_SAMPLES = 8                  # speed samples between two operations
PROBE_PERIOD_S = 0.05             # speed samples during an operation


class SpeedProbe:
    """Speed samples taken from a SIGALRM handler every PROBE_PERIOD_S of
    wall time while an operation runs (about 1.4% of its time)."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        self.samples.append(speed_sample())


@dataclass
class Run:
    """What one run attempted, what failed and what the checks found, with
    the timings behind the metrics.

    Every timed operation is reported at nominal speed: its wall time times
    the mean speed sampled just before it, while it ran and just after it.
    The sandbox this was built in switches between speeds up to 2x apart
    every few seconds.  Over 80 s the ratio of an RK4 run to a neighbouring
    calibration run stayed within about 1% while the raw rate moved by
    18%.  ``raw`` keeps the wall times.
    """

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    left_out: int = 0
    errors: list = field(default_factory=list)
    deferred: list = field(default_factory=list)   # checks run after timing
    times: dict = field(default_factory=dict)      # name -> nominal seconds
    raw: dict = field(default_factory=dict)        # name -> wall seconds
    work: dict = field(default_factory=dict)       # name -> units per timing
    log: list = field(default_factory=list)        # (name, start, wall, speed)
    last_speeds: list = field(default_factory=list)

    def op(self, label, fn, *args):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation must not end the run
            self.failed += 1
            print(f"operation failed: {label}", file=sys.stderr)
            traceback.print_exc()
            return None

    def timed(self, name, fn, *args, work=1):
        """Run fn (which returns (result, seconds)) as one operation, record
        its time under ``name`` and return its result, or None when it
        failed."""
        before = self.last_speeds or [speed_sample() for _ in range(EDGE_SAMPLES)]
        start = time.perf_counter()
        with SpeedProbe() as probe:
            out = self.op(name, fn, *args)
        self.last_speeds = [speed_sample() for _ in range(EDGE_SAMPLES)]
        if out is None:
            return None
        result, dt = out
        speed = statistics.fmean(before + probe.samples + self.last_speeds)
        self.log.append((name, start, dt, speed))
        self.times.setdefault(name, []).append(dt * speed)
        self.raw.setdefault(name, []).append(dt)
        self.work.setdefault(name, []).append(work(result) if callable(work) else work)
        return result

    def check(self, label, errors):
        self.errors.extend(f"{label}: {e}" for e in errors)

    def run_deferred(self):
        for label, fn, args in self.deferred:
            self.check(label, fn(*args))
        self.deferred.clear()


def timed_certificate(cfg: RunConfig):
    t0 = time.perf_counter()
    cert = certify(cfg)
    payload = render_report(cert, "json")
    return (cert, payload), time.perf_counter() - t0


def timed_certificates(configs: list[RunConfig]):
    t0 = time.perf_counter()
    certs = [certify(cfg) for cfg in configs]
    for cert in certs:
        render_report(cert, "json")
    return certs, time.perf_counter() - t0


def timed_integration(orbit: Orbit, t_end: float, method: str):
    opts = IntegrationOptions(step=STEP, method=method, rel_tol=1e-10,
                              sample_every=5000, casimir_abort=None)
    t0 = time.perf_counter()
    rep = dynamics.integrate(orbit.h, orbit.x0, t_end, opts)
    return rep, time.perf_counter() - t0


def timed_section(orbit: Orbit, t_end: float):
    t0 = time.perf_counter()
    points = dynamics.poincare_section(orbit.h, orbit.x0, t_end, coordinate=3,
                                       value=0.0, direction=1, step=STEP)
    return points, time.perf_counter() - t0


def timed_cold_import():
    """A fresh interpreter importing curvedtwobody.cli: what every CLI call
    pays before it does any work."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(curvedtwobody.__file__)))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import curvedtwobody.cli"],
                   env=dict(os.environ, PYTHONPATH=src), check=True)
    return None, time.perf_counter() - t0


def certify_op(run: Run, cfg: RunConfig, check_fn):
    out = run.timed("certify", timed_certificate, cfg)
    if out is not None:
        run.check(f"certificate {cfg.to_dict()}", check_fn(out[0].to_dict()))
    return out


def degenerate_op(run: Run, configs: list[RunConfig]):
    """A batch of mu = 0 certificates, timed as one operation."""
    certs = run.timed("certify", timed_certificates, configs, work=len(configs))
    for cert in certs or ():
        run.check("mu = 0 certificate", checks.check_degenerate_certificate(cert.to_dict()))


def rk4_op(run: Run, orbit: Orbit, t_end: float):
    rep = run.timed("rk4", timed_integration, orbit, t_end, "rk4",
                    work=lambda rep: rep.steps)
    if rep is not None:
        run.check("rk4", checks.check_trajectory(rep, t_end, STEP, fixed_step=True))


def rkf45_op(run: Run, orbit: Orbit, t_end: float):
    rep = run.timed("rkf45", timed_integration, orbit, t_end, "rkf45")
    if rep is not None:
        run.check("rkf45", checks.check_trajectory(rep, t_end, STEP, fixed_step=False))


def section_op(run: Run, orbit: Orbit, t_end: float):
    points = run.timed("section", timed_section, orbit, t_end)
    if points is not None:
        run.check("section", checks.check_section(points, orbit.h, orbit.x0))


def setup_op(run: Run):
    run.timed("setup", timed_cold_import)


def companion_slot(run: Run, orbit: Orbit, sizes: Sizes):
    """The companion operations of a certify workload."""
    setup_op(run)
    rk4_op(run, orbit, sizes.rk4_t_end)
    rkf45_op(run, orbit, sizes.rkf45_t_end)
    section_op(run, orbit, sizes.section_t_end)


def certify_round(run: Run, configs: list[RunConfig], check_fn, companion: Orbit,
                  sizes: Sizes) -> dict:
    """Certify every set, with COMPANION_SLOTS companion slots spread
    evenly over the round.  Returns each set's certificate bytes."""
    payloads = {}
    gap = max(1, len(configs) // (COMPANION_SLOTS - 1))
    companion_slot(run, companion, sizes)
    for i, cfg in enumerate(configs):
        out = certify_op(run, cfg, check_fn)
        if out is not None:
            payloads[cfg] = out[1]
        if (i + 1) % gap == 0:
            companion_slot(run, companion, sizes)
    return payloads


def certify_through_cli(cfg: RunConfig) -> bytes:
    """``curvedtwobody certify`` for cfg through click, in this process."""
    d = cfg.to_dict()
    args = ["certify", "--space", d["space"], "--potential", d["potential"],
            "--strength", d["strength"], "--mu", d["mu"], "--p", d["p"],
            "--eps", d["eps"], "--seed", str(d["seed"]),
            "--identity-samples", str(d["identity_samples"])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main.main(args=args, standalone_mode=False)
    return buf.getvalue().encode()


def until(seconds: float, round_fn, run: Run):
    """Whole rounds until at least ``seconds`` have passed.  One cold
    import first writes the bytecode caches."""
    timed_cold_import()
    start = time.perf_counter()
    while True:
        round_fn()
        run.rounds += 1
        if time.perf_counter() - start >= seconds:
            return


def run_reference_default(seed: int, seconds: float, sizes: Sizes = FULL) -> Run:
    run = Run()
    configs = reference_configs(seed, sizes)
    companion = orbit_inputs(seed)[0]
    payloads = {}

    def check(cert):
        return checks.check_reference_certificate(cert, sizes.identity_samples)

    until(seconds, lambda: payloads.update(
        certify_round(run, configs, check, companion, sizes)), run)
    # one seed-chosen set again, through the CLI: the bytes must not change
    again = configs[seed % len(configs)]
    repeated = run.op("certify through the CLI", certify_through_cli, again)
    if repeated is not None and repeated != payloads.get(again):
        run.check("repeat", [f"CLI certificate for {again.to_dict()} differs "
                             "from the library certificate"])
    for cfg in configs:
        run.deferred.append((f"sympy r {cfg.to_dict()}",
                             checks.check_r_against_sympy, (cfg, seed)))
    return run


def run_random_sweep(seed: int, seconds: float, sizes: Sizes = FULL) -> Run:
    run = Run()
    configs, left_out = sweep_configs(seed, sizes)
    run.left_out = len(left_out)
    companion = orbit_inputs(seed)[0]
    until(seconds, lambda: certify_round(run, configs, checks.check_sweep_certificate,
                                         companion, sizes), run)
    return run


def run_orbits(seed: int, seconds: float, sizes: Sizes = FULL) -> Run:
    run = Run()
    orbits = orbit_inputs(seed)
    degenerate = orbit_configs(orbits, mu=0)

    def one_round():
        for orbit in orbits:
            rk4_op(run, orbit, sizes.rk4_t_end)
            rkf45_op(run, orbit, sizes.rkf45_t_end)
        section_op(run, orbits[0], sizes.section_t_end)
        degenerate_op(run, degenerate * sizes.degenerate_repeats)
        setup_op(run)

    until(seconds, one_round, run)
    return run


RUNNERS = {"reference-default": run_reference_default,
           "random-sweep": run_random_sweep,
           "orbits": run_orbits}


def metrics(run: Run, times: str = "times") -> dict:
    """The end-to-end metrics of a run but peak_rss_mb, which the caller
    adds; from the wall times instead when ``times`` is "raw"."""
    t = getattr(run, times)
    per_cert = [dt / n for dt, n in zip(t["certify"], run.work["certify"])]
    return {
        "setup_s": (statistics.median(t["setup"]), "s"),
        "certify_s": (statistics.median(per_cert), "s"),
        "certs_per_s": (sum(run.work["certify"]) / sum(t["certify"]), "1/s"),
        "rk4_steps_per_s": (statistics.median(
            n / dt for dt, n in zip(t["rk4"], run.work["rk4"])), "steps/s"),
        "rkf45_s": (statistics.median(t["rkf45"]), "s"),
        "section_s": (statistics.median(t["section"]), "s"),
    }
