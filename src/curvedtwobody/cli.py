"""Command-line interface: certify, simulate, section, nve, sweep.

Exit codes: 0 completed (any conclusion), 1 degenerate or invalid input
(including bad rationals and non-positive steps), 2 internal invariant
violation.
"""
from __future__ import annotations

import concurrent.futures
import json
import os
import sys
import traceback

import click

from . import certify as certify_mod
from . import dynamics, models
from .certify import (CONCLUSION_DEGENERATE, CertifyError, InvariantViolation,
                      RunConfig, render_report)
from .dynamics import DynamicsError, IntegrationOptions
from .models import HamiltonianKind, Potential, Space

EXIT_DEGENERATE = 1
EXIT_INVARIANT = 2


def _parameter_options(fn):
    fn = click.option("--space", type=click.Choice([s.value for s in Space]),
                      default=None, help="sphere or hyperbolic")(fn)
    fn = click.option("--potential", type=click.Choice([p.value for p in Potential]),
                      default=None)(fn)
    fn = click.option("--strength", default=None,
                      help="alpha (Newton) or beta (oscillator), as 'n/d'")(fn)
    fn = click.option("--mu", default=None, help="mass-ratio parameter, 'n/d'")(fn)
    fn = click.option("--p", default=None, help="geodesic momentum, 'n/d'")(fn)
    fn = click.option("--eps", default=None, help="energy parameter, 'n/d'")(fn)
    fn = click.option("--config", "config_path", default=None,
                      type=click.Path(exists=True), help="JSON run config")(fn)
    return fn


def _build_config(space, potential, strength, mu, p, eps, config_path,
                  seed=0, identity_samples=0) -> RunConfig:
    data = {}
    if config_path:
        with open(config_path) as fh:
            data = json.load(fh)
    for key, val in (("space", space), ("potential", potential),
                     ("strength", strength), ("mu", mu), ("p", p), ("eps", eps)):
        if val is not None:
            data[key] = val
    missing = [k for k in ("space", "potential", "strength", "mu", "p", "eps")
               if k not in data]
    if missing:
        raise click.UsageError(f"missing parameters: {', '.join(missing)}")
    data.setdefault("seed", seed)
    data.setdefault("identity_samples", identity_samples)
    try:
        return RunConfig.from_dict(data)
    except CertifyError as exc:
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(EXIT_DEGENERATE)


def _params_from_config(cfg: RunConfig):
    return models.derive_params(cfg.space, cfg.potential, cfg.strength,
                                cfg.mu, cfg.p, cfg.eps)


@click.group()
def main():
    """Exact nonintegrability certificates and simulation for the reduced
    two-body problem on the sphere and the hyperbolic plane."""


@main.command("certify")
@_parameter_options
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--identity-samples", default=20, type=int, show_default=True,
              help="extra random parameter sets for the closed-form identity check")
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def certify_cmd(space, potential, strength, mu, p, eps, config_path, seed,
                identity_samples, out_path, fmt):
    """Run the full obstruction pipeline and emit a certificate."""
    cfg = _build_config(space, potential, strength, mu, p, eps, config_path,
                        seed, identity_samples)
    try:
        cert = certify_mod.certify(cfg)
    except InvariantViolation as exc:
        click.echo(f"internal invariant violation: {exc}", err=True)
        sys.exit(EXIT_INVARIANT)
    payload = render_report(cert, fmt)
    if out_path:
        dynamics._atomic_write(out_path, payload)
    else:
        click.echo(payload.decode(), nl=False)
    if cert.conclusion == CONCLUSION_DEGENERATE:
        sys.exit(EXIT_DEGENERATE)


@main.command("simulate")
@_parameter_options
@click.option("--theta0", type=float, required=True)
@click.option("--p-theta", type=float, default=0.0, show_default=True)
@click.option("--p0", type=float, default=0.0, show_default=True)
@click.option("--p1", type=float, default=0.0, show_default=True)
@click.option("--p2", type=float, default=0.3, show_default=True)
@click.option("--t-end", type=float, default=100.0, show_default=True)
@click.option("--step", type=float, default=1e-3, show_default=True)
@click.option("--method", type=click.Choice(["rk4", "rkf45"]), default="rk4",
              show_default=True)
@click.option("--free", is_flag=True, help="drop the potential (V = 0)")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="trajectory CSV path")
def simulate_cmd(space, potential, strength, mu, p, eps, config_path, theta0,
                 p_theta, p0, p1, p2, t_end, step, method, free, out_path):
    """Integrate the reduced Hamiltonian flow and report invariant drift."""
    cfg = _build_config(space, potential, strength, mu, p, eps, config_path)
    try:
        params = _params_from_config(cfg)
    except models.DegenerateParameters as exc:
        click.echo(f"degenerate parameters: {exc.guard}", err=True)
        sys.exit(EXIT_DEGENERATE)
    kind = HamiltonianKind.FULL_SPHERE if params.space is Space.SPHERE \
        else HamiltonianKind.FULL_HYPERBOLIC
    h = models.hamiltonian(kind, params, include_potential=not free)
    x0 = (theta0, p_theta, p0, p1, p2)
    try:
        rep = dynamics.integrate(
            h, x0, t_end, IntegrationOptions(step=step, method=method))
    except DynamicsError as exc:
        click.echo(f"integration aborted: {exc}", err=True)
        sys.exit(EXIT_DEGENERATE)
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


@main.command("section")
@_parameter_options
@click.option("--theta0", type=float, required=True)
@click.option("--p-theta", type=float, default=0.0, show_default=True)
@click.option("--p0", type=float, default=0.0, show_default=True)
@click.option("--p1", type=float, default=0.0, show_default=True)
@click.option("--p2", type=float, default=0.3, show_default=True)
@click.option("--t-end", type=float, default=100.0, show_default=True)
@click.option("--step", type=float, default=1e-3, show_default=True)
@click.option("--coordinate", type=int, default=3, show_default=True,
              help="state index defining the section (default p1)")
@click.option("--value", type=float, default=0.0, show_default=True)
@click.option("--direction", type=click.Choice(["1", "-1"]), default="1",
              show_default=True)
@click.option("--free", is_flag=True)
@click.option("--out", "out_path", default=None, type=click.Path())
def section_cmd(space, potential, strength, mu, p, eps, config_path, theta0,
                p_theta, p0, p1, p2, t_end, step, coordinate, value, direction,
                free, out_path):
    """Poincare section crossings exported as CSV."""
    cfg = _build_config(space, potential, strength, mu, p, eps, config_path)
    try:
        params = _params_from_config(cfg)
    except models.DegenerateParameters as exc:
        click.echo(f"degenerate parameters: {exc.guard}", err=True)
        sys.exit(EXIT_DEGENERATE)
    kind = HamiltonianKind.FULL_SPHERE if params.space is Space.SPHERE \
        else HamiltonianKind.FULL_HYPERBOLIC
    h = models.hamiltonian(kind, params, include_potential=not free)
    try:
        points = dynamics.poincare_section(
            h, (theta0, p_theta, p0, p1, p2), t_end, coordinate=coordinate,
            value=value, direction=int(direction), step=step)
    except DynamicsError as exc:
        click.echo(f"integration aborted: {exc}", err=True)
        sys.exit(EXIT_DEGENERATE)
    if out_path:
        dynamics.section_to_csv(points, out_path)
    click.echo(json.dumps({"crossings": len(points)}))


@main.command("nve")
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
def nve_cmd(space, potential, strength, mu, p, eps, config_path, theta0,
            branch, t_end, step, dp1, dp2, out_path):
    """Integrate the geodesic base curve and the time-domain variational
    equations along it; report the chain-rule consistency with the exact
    z-domain system."""
    cfg = _build_config(space, potential, strength, mu, p, eps, config_path)
    try:
        params = _params_from_config(cfg)
    except models.DegenerateParameters as exc:
        click.echo(f"degenerate parameters: {exc.guard}", err=True)
        sys.exit(EXIT_DEGENERATE)
    try:
        base = dynamics.gamma_trajectory(params, theta0, t_end, step=step,
                                         branch=int(branch), sample_every=10)
        variation = dynamics.nve_time_domain(params, base, (dp1, dp2), step=step)
    except DynamicsError as exc:
        click.echo(f"integration aborted: {exc}", err=True)
        sys.exit(EXIT_DEGENERATE)
    worst = dynamics.nve_chain_rule_residual(params, base, variation)
    if out_path:
        lines = ["t,p1,p2"]
        for t, v1, v2 in variation:
            lines.append(f"{t:.17g},{v1:.17g},{v2:.17g}")
        dynamics._atomic_write(out_path, ("\n".join(lines) + "\n").encode())
    click.echo(json.dumps({
        "samples": len(variation),
        "chain_rule_residual": worst,
        "base_energy_drift": base.energy_drift,
    }, sort_keys=True))


def _run_one(run_data: dict, out_dir: str, index: int) -> tuple[str, int]:
    """Certify one sweep entry: its output line and its certify exit code.
    Any failure costs this run only, never the rest of the sweep."""
    try:
        cfg = RunConfig.from_dict(run_data)
        cert = certify_mod.certify(cfg)
        name = f"{index:03d}_{cfg.space.value}_{cfg.potential.value}.json"
        dynamics._atomic_write(os.path.join(out_dir, name),
                               render_report(cert, "json"))
    except InvariantViolation as exc:
        return f"{index:03d}: invariant violation: {exc}", EXIT_INVARIANT
    except CertifyError as exc:
        return f"{index:03d}: invalid input: {exc}", EXIT_DEGENERATE
    except Exception as exc:   # a pipeline bug: report it, keep the sweep going
        traceback.print_exc()
        return (f"{index:03d}: internal error: {type(exc).__name__}: {exc}",
                EXIT_INVARIANT)
    code = EXIT_DEGENERATE if cert.conclusion == CONCLUSION_DEGENERATE else 0
    return f"{name}: {cert.conclusion}", code


def sweep_workers(jobs: int, n_runs: int) -> int:
    """Worker processes for a sweep: at most one per CPU and per run."""
    return min(jobs, os.cpu_count() or 1, n_runs)


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help="JSON with a 'runs' list of parameter dicts")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--jobs", type=int, default=1, show_default=True)
def sweep_cmd(config_path, out_dir, jobs):
    """Certify many parameter sets; one JSON certificate per run.  Exits
    with the worst exit code of its runs."""
    if jobs < 1:
        click.echo(f"invalid input: --jobs must be at least 1, got {jobs}", err=True)
        sys.exit(EXIT_DEGENERATE)
    with open(config_path) as fh:
        data = json.load(fh)
    runs = data.get("runs", [])
    os.makedirs(out_dir, exist_ok=True)
    args = (runs, [out_dir] * len(runs), range(len(runs)))
    workers = sweep_workers(jobs, len(runs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, *args))
    else:
        results = map(_run_one, *args)
    worst = 0
    for line, code in results:
        click.echo(line)
        worst = max(worst, code)
    if worst:
        sys.exit(worst)


if __name__ == "__main__":
    main()
