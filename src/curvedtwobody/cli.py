"""Command-line interface: certify, simulate, section, nve, sweep.

Exit codes: 0 completed (any conclusion); 1 invalid input, degenerate
parameters or an aborted integration; 2 an internal invariant violation
or any other internal error.  Every command and every sweep run maps its
failure to one line and an exit code through _failure.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import traceback

import click

from . import certify as certify_mod
from . import dynamics, models
from .certify import (CONCLUSION_DEGENERATE, Certificate, CertifyError,
                      InvariantViolation, RunConfig, render_report)
from .dynamics import DynamicsError, IntegrationOptions
from .models import DegenerateParameters, Potential, Space

EXIT_INPUT = 1
EXIT_INTERNAL = 2


def _failure(exc: Exception) -> tuple[str, int]:
    """The output line and exit code of a command or sweep run that raised
    exc.  Any exception not named here is a bug, so its traceback goes to
    stderr first."""
    if isinstance(exc, InvariantViolation):
        return f"invariant violation: {exc}", EXIT_INTERNAL
    if isinstance(exc, (CertifyError, OSError)):
        return f"invalid input: {exc}", EXIT_INPUT
    if isinstance(exc, DegenerateParameters):
        return f"degenerate parameters: {exc.guard}", EXIT_INPUT
    if isinstance(exc, DynamicsError):
        return f"integration aborted: {exc}", EXIT_INPUT
    traceback.print_exception(type(exc), exc, exc.__traceback__)
    return f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL


def _exit_code(cert: Certificate) -> int:
    return EXIT_INPUT if cert.conclusion == CONCLUSION_DEGENERATE else 0


def _load_json(path: str) -> dict:
    """The JSON object a --config file holds."""
    with open(path, "rb") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:       # not UTF-8 or not JSON
            raise CertifyError(f"{path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CertifyError(
            f"{path} must hold a JSON object, not {type(data).__name__}")
    return data


def _options(*options):
    """One decorator for several click options, listed in this order."""
    def apply(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return apply


_parameter_options = _options(
    click.option("--space", type=click.Choice([s.value for s in Space]),
                 default=None, help="sphere or hyperbolic"),
    click.option("--potential", type=click.Choice([p.value for p in Potential]),
                 default=None),
    click.option("--strength", default=None,
                 help="alpha (Newton) or beta (oscillator), as 'n/d'"),
    click.option("--mu", default=None, help="mass-ratio parameter, 'n/d'"),
    click.option("--p", default=None, help="geodesic momentum, 'n/d'"),
    click.option("--eps", default=None, help="energy parameter, 'n/d'"),
    click.option("--config", "config_path", default=None,
                 type=click.Path(exists=True), help="JSON run config"))

# the initial state, span, step, --free and --out of simulate and section
_orbit_options = _options(
    click.option("--theta0", type=float, required=True),
    click.option("--p-theta", type=float, default=0.0, show_default=True),
    click.option("--p0", type=float, default=0.0, show_default=True),
    click.option("--p1", type=float, default=0.0, show_default=True),
    click.option("--p2", type=float, default=0.3, show_default=True),
    click.option("--t-end", type=float, default=100.0, show_default=True),
    click.option("--step", type=float, default=1e-3, show_default=True,
                 help="the RK4 step of simulate; the first trial step of "
                      "simulate --method rkf45 and of section, which take "
                      "adaptive Gragg-Bulirsch-Stoer steps under error "
                      "control"),
    click.option("--free", is_flag=True, help="drop the potential (V = 0)"),
    click.option("--out", "out_path", default=None, type=click.Path(),
                 help="CSV output path"))


def _build_config(config_path, **given) -> RunConfig:
    """--config overridden by what the command line gives.  --config may
    hold only RunConfig's keys, and only the keys the command has options
    for are read from it, so simulate, section and nve accept a seed and
    an identity_samples there but never see them.  A seed and an
    identity_samples that neither gives take RunConfig's 0 and 20."""
    loaded = _load_json(config_path) if config_path else {}
    certify_mod.check_run_keys(loaded)
    data = {key: loaded[key] for key in given if key in loaded}
    data.update((key, val) for key, val in given.items() if val is not None)
    missing = [k for k in ("space", "potential", "strength", "mu", "p", "eps")
               if k not in data]
    if missing:
        raise CertifyError(f"missing parameters: {', '.join(missing)}")
    return RunConfig.from_dict(data)


def _params(**run) -> models.ModelParams:
    """The parameter route of simulate, section and nve: the six model
    keys of the command line and --config through RunConfig to
    derive_params."""
    cfg = _build_config(**run)
    return models.derive_params(cfg.space, cfg.potential, cfg.strength,
                                cfg.mu, cfg.p, cfg.eps)


@click.group()
def main():
    """Exact nonintegrability certificates and simulation for the reduced
    two-body problem on the sphere and the hyperbolic plane."""


def _command(name: str):
    """Register fn as the subcommand name.  fn returns its exit code (None
    for 0); an exception it raises ends in the line and exit code that
    _failure gives it."""
    def register(fn):
        @functools.wraps(fn)
        def run(**kwargs):
            try:
                code = fn(**kwargs)
            except Exception as exc:    # the CLI boundary: one line, never a raw traceback
                line, code = _failure(exc)
                click.echo(line, err=True)
            if code:
                sys.exit(code)
        return main.command(name)(run)
    return register


@_command("certify")
@_parameter_options
@click.option("--seed", default=None, type=int,
              help="seed of the identity samples  [default: 0]")
@click.option("--identity-samples", default=None, type=int,
              help="extra random parameter sets for the closed-form identity "
                   "check  [default: 20]")
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def certify_cmd(out_path, fmt, **run):
    """Run the full obstruction pipeline and emit a certificate."""
    cfg = _build_config(**run)
    cert = certify_mod.certify(cfg)
    payload = render_report(cert, fmt)
    if out_path:
        dynamics._atomic_write(out_path, payload)
    else:
        click.echo(payload.decode(), nl=False)
    return _exit_code(cert)


@_command("simulate")
@_parameter_options
@_orbit_options
@click.option("--method", type=click.Choice(["rk4", "rkf45"]), default="rk4",
              show_default=True,
              help="rk4: fixed steps; rkf45: adaptive Gragg-Bulirsch-Stoer "
                   "steps (the name predates the method)")
def simulate_cmd(theta0, p_theta, p0, p1, p2, t_end, step, free, out_path,
                 method, **run):
    """Integrate the reduced Hamiltonian flow and report invariant drift."""
    h = dynamics._full_hamiltonian(_params(**run), not free)
    rep = dynamics.integrate(h, (theta0, p_theta, p0, p1, p2), t_end,
                             IntegrationOptions(step=step, method=method))
    if out_path:
        dynamics.trajectory_to_csv(rep, out_path)
    click.echo(json.dumps({
        "steps": rep.steps,
        "energy_drift": rep.energy_drift,
        "casimir_drift": rep.casimir_drift,
        "samples": len(rep.times),
        "rejected_steps": rep.rejected_steps,
        "min_step": rep.min_step,
    }, sort_keys=True))


@_command("section")
@_parameter_options
@_orbit_options
@click.option("--coordinate", type=int, default=3, show_default=True,
              help="state index defining the section (default p1)")
@click.option("--value", type=float, default=0.0, show_default=True)
@click.option("--direction", type=click.Choice(["1", "-1"]), default="1",
              show_default=True)
def section_cmd(theta0, p_theta, p0, p1, p2, t_end, step, free, out_path,
                coordinate, value, direction, **run):
    """Poincare section crossings exported as CSV."""
    h = dynamics._full_hamiltonian(_params(**run), not free)
    points = dynamics.poincare_section(
        h, (theta0, p_theta, p0, p1, p2), t_end, coordinate=coordinate,
        value=value, direction=int(direction), step=step)
    if out_path:
        dynamics.section_to_csv(points, out_path)
    click.echo(json.dumps({"crossings": len(points)}))


@_command("nve")
@_parameter_options
@click.option("--theta0", type=float, required=True)
@click.option("--branch", type=click.Choice(["1", "-1"]), default="1",
              show_default=True)
@click.option("--t-end", type=float, default=1.0, show_default=True)
@click.option("--step", type=float, default=1e-3, show_default=True)
@click.option("--dp1", type=float, default=1.0, show_default=True)
@click.option("--dp2", type=float, default=0.0, show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="CSV of t, p1, p2 samples")
def nve_cmd(theta0, branch, t_end, step, dp1, dp2, out_path, **run):
    """Integrate the geodesic base curve and the time-domain variational
    equations along it; report the chain-rule consistency with the exact
    z-domain system."""
    params = _params(**run)
    base = dynamics.gamma_trajectory(params, theta0, t_end, step=step,
                                     branch=int(branch), sample_every=10)
    variation = dynamics.nve_time_domain(params, base, (dp1, dp2), step=step)
    worst = dynamics.nve_chain_rule_residual(params, base, variation)
    if out_path:
        dynamics._write_csv(out_path, "t,p1,p2", variation)
    click.echo(json.dumps({
        "samples": len(variation),
        "chain_rule_residual": worst,
        "base_energy_drift": base.energy_drift,
    }, sort_keys=True))


def _run_one(run_data: dict, out_dir: str, index: int) -> tuple[str, int]:
    """Certify one sweep entry: its output line and its exit code.  Any
    failure costs this run only, never the rest of the sweep."""
    try:
        cfg = RunConfig.from_dict(run_data)
        cert = certify_mod.certify(cfg)
        name = f"{index:03d}_{cfg.space.value}_{cfg.potential.value}.json"
        dynamics._atomic_write(os.path.join(out_dir, name),
                               render_report(cert, "json"))
    except Exception as exc:   # reported as this run's line; the sweep goes on
        line, code = _failure(exc)
        return f"{index:03d}: {line}", code
    return f"{name}: {cert.conclusion}", _exit_code(cert)


def sweep_workers(jobs: int, n_runs: int) -> int:
    """Worker processes for a sweep: at most one per run and per CPU this
    process may run on, its CPU affinity where the platform reports one
    (taskset, cgroup cpusets) and os.cpu_count() elsewhere."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus, n_runs)


@_command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help="JSON with a 'runs' list of parameter dicts")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--jobs", type=int, default=1, show_default=True)
def sweep_cmd(config_path, out_dir, jobs):
    """Certify many parameter sets; one JSON certificate per run.  Exits
    with the worst exit code of its runs."""
    if jobs < 1:
        raise CertifyError(f"--jobs must be at least 1, got {jobs}")
    data = _load_json(config_path)
    if "runs" not in data:
        raise CertifyError(f"{config_path} has no 'runs' list")
    runs = data["runs"]
    if not isinstance(runs, list):
        raise CertifyError(f"'runs' must be a list, not {type(runs).__name__}")
    os.makedirs(out_dir, exist_ok=True)
    args = (runs, [out_dir] * len(runs), range(len(runs)))
    workers = sweep_workers(jobs, len(runs))
    if workers > 1:
        import concurrent.futures   # only a pool pays for it (logging, string)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, *args))
    else:
        results = map(_run_one, *args)
    worst = 0
    for line, code in results:
        click.echo(line)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    main()
