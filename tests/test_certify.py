import dataclasses
import errno
import json
import os
import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from click.testing import CliRunner

from curvedtwobody import certify as certify_mod
from curvedtwobody import dynamics, kovacic, linode, models, ratcalc
from curvedtwobody.certify import (CONCLUSION_CERTIFIED,
                                   CONCLUSION_DEGENERATE,
                                   CONCLUSION_NO_OBSTRUCTION, MAX_IDENTITY_SAMPLES,
                                   CertifyError, InvariantViolation, RunConfig,
                                   certify, matches_table, render_report)
from curvedtwobody.cli import main as cli_main
from curvedtwobody.cli import sweep_workers
from curvedtwobody.exactfield import GAUSS_ONE, GaussRational, TowerScalar, _rat
from curvedtwobody.linode import (FirstOrderSystem, reduce_to_second_order,
                                  to_normal_form)
from curvedtwobody.models import (Potential, Space, build_system,
                                  random_admissible_params)
from curvedtwobody.ratcalc import Poly, RatFunc
from conftest import reference_params
from test_dynamics import at_most

ALL_CASES = [(Space.SPHERE, Potential.NEWTON),
             (Space.HYPERBOLIC, Potential.NEWTON),
             (Space.SPHERE, Potential.OSCILLATOR),
             (Space.HYPERBOLIC, Potential.OSCILLATOR)]

REFERENCE = {
    (Space.SPHERE, Potential.NEWTON): ("2", "1/2", "1", "0"),
    (Space.HYPERBOLIC, Potential.NEWTON): ("1", "1/2", "1", "-2"),
    (Space.SPHERE, Potential.OSCILLATOR): ("1", "1/2", "1", "-1"),
    (Space.HYPERBOLIC, Potential.OSCILLATOR): ("1", "1/2", "1", "-1"),
}


def make_config(space, pot, mu=None, **kw):
    # unit tests opt out of the randomized identity sampling (default 20)
    # unless they exercise it explicitly
    strength, mu_ref, p, eps = REFERENCE[(space, pot)]
    return RunConfig(space=space, potential=pot,
                     strength=_rat(kw.get("strength", strength)),
                     mu=_rat(mu if mu is not None else mu_ref),
                     p=_rat(kw.get("p", p)),
                     eps=_rat(kw.get("eps", eps)),
                     seed=kw.get("seed", 0),
                     identity_samples=kw.get("identity_samples", 0))


def config_with_mu(mu):
    return RunConfig.from_dict(dict(GOOD_RUN, mu=mu))


class TestRationalParser:
    """exactfield._rat is the one parser: RunConfig.from_dict, derive_params
    and the tower constructors all read rationals through it."""

    def test_fraction_strings(self):
        assert _rat("3/4") == Fr(3, 4)
        assert _rat("-2") == Fr(-2)
        assert _rat(5) == Fr(5)
        assert config_with_mu("3/4").mu == Fr(3, 4)
        assert config_with_mu("-2").mu == Fr(-2)
        assert config_with_mu(5).mu == Fr(5)

    @pytest.mark.parametrize("bad", ["0.5", "1e-3", "2.0"])
    def test_decimals_rejected(self, bad):
        with pytest.raises(ValueError, match="exact 'n/d' strings"):
            _rat(bad)
        with pytest.raises(CertifyError, match="exact 'n/d' strings"):
            config_with_mu(bad)

    @pytest.mark.parametrize("bad", [0.5, True, False])
    def test_other_types_rejected(self, bad):
        """A bool is an int, but a JSON true or false is no rational: it is
        refused, not read as 1 or 0."""
        with pytest.raises(TypeError):
            _rat(bad)
        with pytest.raises(CertifyError, match=f"exact 'n/d' strings: {bad}"):
            config_with_mu(bad)


class TestCertify:
    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_reference_certified(self, space, pot):
        cert = certify(make_config(space, pot))
        assert cert.conclusion == CONCLUSION_CERTIFIED
        assert cert.table_match is True
        assert cert.gauge_consistent is True
        assert cert.case1["count"] == 0
        assert cert.case1["pair_excluded"] is True
        assert cert.case2["found"] is False
        assert cert.case3_possible is False
        assert cert.verdict["identity_component_abelian"] is False

    def test_mu1_no_obstruction(self):
        cert = certify(make_config(Space.SPHERE, Potential.NEWTON, mu="1"))
        assert cert.conclusion == CONCLUSION_NO_OBSTRUCTION
        assert cert.case1["count"] == 2
        assert cert.verdict["classification"] == "DiagonalOrSmaller_Abelian"
        # the lemma hypotheses are violated at mu=1 and that is recorded,
        # not raised
        assert not cert.lemma["hypotheses_hold"]

    def test_degenerate_input(self):
        cert = certify(make_config(Space.HYPERBOLIC, Potential.OSCILLATOR, eps="0"))
        assert cert.conclusion == CONCLUSION_DEGENERATE
        assert cert.degenerate_guard

    def test_newton_certificate_carries_xi_leading(self):
        cert = certify(make_config(Space.SPHERE, Potential.NEWTON))
        assert cert.case2["xi"]
        rec = cert.case2["xi"][0]
        assert rec["num_degree"] == 6
        assert rec["num_leading"] is not None
        assert not rec["is_zero"]

    def test_identity_samples(self):
        cert = certify(make_config(Space.SPHERE, Potential.OSCILLATOR,
                                   identity_samples=3, seed=7))
        assert cert.identity_check == {"samples": 3, "matches": 3,
                                       "all_match": True}

    def test_spectrum_summary_has_six_points(self):
        cert = certify(make_config(Space.HYPERBOLIC, Potential.NEWTON))
        assert len(cert.spectrum) == 6
        assert cert.spectrum[-1]["location"] == "infinity"


class TestRenderReport:
    def test_json_round_trip(self):
        cert = certify(make_config(Space.SPHERE, Potential.NEWTON))
        payload = render_report(cert, "json")
        parsed = json.loads(payload)
        assert parsed == cert.to_dict()
        assert render_report(cert, "json") == payload

    def test_deterministic_bytes_for_same_seed(self):
        a = render_report(certify(make_config(Space.SPHERE, Potential.OSCILLATOR,
                                              seed=3, identity_samples=2)))
        b = render_report(certify(make_config(Space.SPHERE, Potential.OSCILLATOR,
                                              seed=3, identity_samples=2)))
        assert a == b

    def test_degenerate_text(self):
        cert = certify(make_config(Space.HYPERBOLIC, Potential.OSCILLATOR, eps="0"))
        text = render_report(cert, "text").decode()
        assert "Degenerate" in text
        assert "guard" in text

    def test_text_report_mentions_cases(self):
        cert = certify(make_config(Space.SPHERE, Potential.NEWTON))
        text = render_report(cert, "text").decode()
        assert "case I rational solutions: 0" in text
        assert "spherical Newton reality condition" in text
        assert "conclusion: NonintegrabilityCertified" in text

    def test_unknown_format(self):
        cert = certify(make_config(Space.SPHERE, Potential.NEWTON))
        with pytest.raises(CertifyError):
            render_report(cert, "yaml")


class TestRunConfig:
    def test_dict_round_trip(self):
        cfg = make_config(Space.SPHERE, Potential.NEWTON, seed=5)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_decimal(self):
        data = make_config(Space.SPHERE, Potential.NEWTON).to_dict()
        data["mu"] = "0.5"
        with pytest.raises(CertifyError):
            RunConfig.from_dict(data)


class TestCli:
    def test_certify_json_stdout(self):
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "certify", "--space", "sphere", "--potential", "newton",
            "--strength", "2", "--mu", "1/2", "--p", "1", "--eps", "0",
            "--identity-samples", "2"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["conclusion"] == "NonintegrabilityCertified"
        assert data["identity_check"]["all_match"] is True

    def test_certify_degenerate_exit_code(self):
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "certify", "--space", "hyperbolic", "--potential", "oscillator",
            "--strength", "1", "--mu", "1/2", "--p", "1", "--eps", "0"])
        assert result.exit_code == 1

    def test_certify_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "space": "sphere", "potential": "oscillator", "strength": "1",
            "mu": "1", "p": "1", "eps": "-1", "identity_samples": 0}))
        out = tmp_path / "cert.json"
        runner = CliRunner()
        result = runner.invoke(cli_main, ["certify", "--config", str(cfg),
                                          "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["conclusion"] == "NoObstructionFound"

    @staticmethod
    def certify_over_config(tmp_path, flags, **keys):
        """The certificate of certify --config run with flags; the config
        is GOOD_RUN updated by keys, a key set to None left out."""
        run = {k: v for k, v in dict(GOOD_RUN, **keys).items() if v is not None}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(run))
        result = CliRunner().invoke(cli_main, ["certify", "--config", str(cfg), *flags])
        assert result.exit_code == 0
        return json.loads(result.output)

    def test_seed_flag_overrides_config(self, tmp_path):
        assert self.certify_over_config(tmp_path, [], seed=5)["seed"] == 5
        assert self.certify_over_config(tmp_path, ["--seed", "9"], seed=5)["seed"] == 9

    def test_identity_samples_flag_overrides_config(self, tmp_path):
        assert "identity_check" not in self.certify_over_config(tmp_path, [])
        cert = self.certify_over_config(tmp_path, ["--identity-samples", "2"])
        assert cert["identity_check"]["samples"] == 2

    def test_defaults_when_neither_config_nor_flag_sets_them(self, tmp_path):
        cert = self.certify_over_config(tmp_path, [], identity_samples=None)
        assert cert["seed"] == 0 and cert["identity_check"]["samples"] == 20

    def test_missing_parameters(self):
        runner = CliRunner()
        result = runner.invoke(cli_main, ["certify", "--space", "sphere"])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "invalid input: missing parameters: potential, strength, mu, p, eps"]

    def test_simulate_writes_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "simulate", "--space", "sphere", "--potential", "newton",
            "--strength", "1/4", "--mu", "1/2", "--p", "1/10", "--eps", "0",
            "--theta0", "1.4", "--p-theta", "0.02", "--p0", "0.08",
            "--p1", "0.04", "--p2", "0.45", "--t-end", "2", "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["energy_drift"] < 1e-10
        assert out.read_text().startswith("t,theta,p_theta,p0,p1,p2")

    def test_simulate_reads_only_the_model_keys_of_a_config(self, tmp_path):
        """An identity_samples out of range stops certify, not simulate."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "space": "sphere", "potential": "newton", "strength": "1/4",
            "mu": "1/2", "p": "1/10", "eps": "0", "identity_samples": 20000}))
        result = CliRunner().invoke(cli_main, [
            "simulate", "--config", str(cfg), "--theta0", "1.4",
            "--p2", "0.45", "--t-end", "1"])
        assert result.exit_code == 0
        assert json.loads(result.output)["steps"] == 1000
        result = CliRunner().invoke(cli_main, ["certify", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output == ("invalid input: identity_samples must be in "
                                 "0..10000, got 20000\n")

    @pytest.mark.parametrize("command,args,key", [
        ("section", ["--p2", "0.45", "--t-end", "40"], "crossings"),
        ("nve", ["--t-end", "0.1"], "samples")])
    def test_model_commands_read_only_the_model_keys_of_a_config(
            self, tmp_path, command, args, key):
        """section and nve, like simulate, leave a seed and an
        identity_samples in --config to certify."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "space": "sphere", "potential": "newton", "strength": "1/4",
            "mu": "1/2", "p": "1/10", "eps": "0", "seed": "abc",
            "identity_samples": 20000}))
        result = CliRunner().invoke(cli_main, [
            command, "--config", str(cfg), "--theta0", "1.4", *args])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)[key] >= 1

    @pytest.mark.parametrize("command,args", [
        ("certify", []), ("simulate", ["--theta0", "1.4", "--t-end", "0.01"])])
    def test_an_unknown_config_key_exits_1(self, tmp_path, command, args):
        """--config holds RunConfig's keys only: certify refuses a misspelt
        identity_samples rather than run 20 samples, and the model
        commands, which accept and ignore seed and identity_samples,
        refuse it too."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"space": "sphere", "potential": "newton",
                                   "strength": "1/4", "mu": "1/2", "p": "1/10",
                                   "eps": "0", "identity_sample": 0}))
        result = CliRunner().invoke(cli_main, [command, "--config", str(cfg), *args])
        assert result.exit_code == 1
        assert result.output == f"invalid input: {UNKNOWN_KEY}\n"

    def test_simulate_rkf45_over_the_default_span(self):
        """The default rel_tol keeps criterion 8's drift bounds over the
        CLI's default 100 time units, in fewer steps than RK4 takes."""
        result = CliRunner().invoke(cli_main, [
            "simulate", "--space", "sphere", "--potential", "newton",
            "--strength", "1/4", "--mu", "1/2", "--p", "1/10", "--eps", "0",
            "--theta0", "1.4", "--p-theta", "0.02", "--p0", "0.08",
            "--p1", "0.04", "--p2", "0.45", "--t-end", "100",
            "--method", "rkf45"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["casimir_drift"] < 1e-10
        assert report["energy_drift"] < 1e-8
        assert report["steps"] < 100000
        assert report["min_step"] > 0 and report["rejected_steps"] >= 0

    def test_section_counts_crossings(self, tmp_path):
        out = tmp_path / "sec.csv"
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "section", "--space", "sphere", "--potential", "newton",
            "--strength", "1/4", "--mu", "1/2", "--p", "1/10", "--eps", "0",
            "--theta0", "1.4", "--p-theta", "0.02", "--p0", "0.08",
            "--p1", "0.04", "--p2", "0.45", "--t-end", "40", "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(result.output)["crossings"] >= 1
        assert out.read_text().splitlines()[0].endswith("crossing_index")

    def test_nve_chain_rule_report(self):
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "nve", "--space", "sphere", "--potential", "newton",
            "--strength", "2", "--mu", "1/2", "--p", "1", "--eps", "0",
            "--theta0", "1.0", "--t-end", "1"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["chain_rule_residual"] < 1e-6
        assert report["samples"] >= 100

    def test_nve_writes_csv(self, tmp_path):
        out = tmp_path / "nve.csv"
        result = CliRunner().invoke(cli_main, [
            "nve", "--space", "sphere", "--potential", "newton",
            "--strength", "2", "--mu", "1/2", "--p", "1", "--eps", "0",
            "--theta0", "1.0", "--t-end", "0.1", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p1,p2"
        assert len(lines) == json.loads(result.output)["samples"] + 1

    def test_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"runs": [
            {"space": "sphere", "potential": "newton", "strength": "2",
             "mu": "1/2", "p": "1", "eps": "0", "identity_samples": 0},
            {"space": "hyperbolic", "potential": "newton", "strength": "1",
             "mu": "1/2", "p": "1", "eps": "-2", "identity_samples": 0},
        ]}))
        out_dir = tmp_path / "certs"
        runner = CliRunner()
        result = runner.invoke(cli_main, ["sweep", "--config", str(cfg),
                                          "--out-dir", str(out_dir)])
        assert result.exit_code == 0
        files = sorted(out_dir.iterdir())
        assert len(files) == 2
        for f in files:
            assert json.loads(f.read_text())["conclusion"] == "NonintegrabilityCertified"

    def test_sweep_pool_writes_the_serial_certificates(self, tmp_path, monkeypatch):
        """--jobs 2 runs the runs in two worker processes; the certificates
        and the output lines are those of --jobs 1."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = write_sweep(tmp_path, [
            GOOD_RUN, dict(GOOD_RUN, space="hyperbolic", strength="1", eps="-2")])
        outputs, certs = [], []
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            result = CliRunner().invoke(cli_main, [
                "sweep", "--config", str(cfg), "--out-dir", str(out_dir),
                "--jobs", jobs])
            assert result.exit_code == 0, result.output
            outputs.append(result.output)
            certs.append({f.name: f.read_bytes() for f in out_dir.iterdir()})
        assert outputs[0] == outputs[1]
        assert len(certs[0]) == 2 and certs[0] == certs[1]

    def test_cli_import_leaves_out_the_process_pool(self):
        """Only a sweep with more than one worker imports concurrent.futures."""
        import subprocess
        import sys

        import curvedtwobody
        src = os.path.dirname(os.path.dirname(curvedtwobody.__file__))
        code = ("import sys, curvedtwobody.cli; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False"


def write_sweep(tmp_path, runs):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"runs": runs}))
    return cfg


GOOD_RUN = {"space": "sphere", "potential": "newton", "strength": "2",
            "mu": "1/2", "p": "1", "eps": "0", "identity_samples": 0}


UNKNOWN_KEY = ("unknown key 'identity_sample'; a run takes space, potential, "
               "strength, mu, p, eps, seed, identity_samples")


class TestSweepFailures:
    """One bad entry costs one output line, never the other runs."""

    def test_empty_runs_list_exits_0(self, tmp_path):
        """An explicit empty 'runs' list is a sweep of nothing, not an
        error (a missing 'runs' key is; see TestBadInput)."""
        out_dir = tmp_path / "certs"
        result = CliRunner().invoke(cli_main, [
            "sweep", "--config", str(write_sweep(tmp_path, [])),
            "--out-dir", str(out_dir)])
        assert result.exit_code == 0
        assert result.output == ""
        assert list(out_dir.iterdir()) == []

    def test_bad_entries_keep_the_other_runs_in_input_order(self, tmp_path):
        runs = [dict(GOOD_RUN, strength="1/0"),
                {k: v for k, v in GOOD_RUN.items() if k != "mu"},
                dict(GOOD_RUN, space="hyperbolic", strength="1", eps="-2"),
                dict(GOOD_RUN, mu="0")]
        out_dir = tmp_path / "certs"
        result = CliRunner().invoke(cli_main, [
            "sweep", "--config", str(write_sweep(tmp_path, runs)),
            "--out-dir", str(out_dir)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "000: invalid input: zero denominator in '1/0'",
            "001: invalid input: missing parameter 'mu'",
            "002_hyperbolic_newton.json: NonintegrabilityCertified",
            "003_sphere_newton.json: Degenerate"]
        assert sorted(f.name for f in out_dir.iterdir()) == [
            "002_hyperbolic_newton.json", "003_sphere_newton.json"]

    def test_an_unknown_key_costs_its_run_only(self, tmp_path):
        """A misspelt key is refused by name instead of leaving its value at
        the default (20 identity samples here); the other runs go on."""
        typo = {k: v for k, v in GOOD_RUN.items() if k != "identity_samples"}
        out_dir = tmp_path / "certs"
        result = CliRunner().invoke(cli_main, [
            "sweep", "--config",
            str(write_sweep(tmp_path, [dict(typo, identity_sample=0), GOOD_RUN])),
            "--out-dir", str(out_dir)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"000: invalid input: {UNKNOWN_KEY}",
            "001_sphere_newton.json: NonintegrabilityCertified"]
        assert [f.name for f in out_dir.iterdir()] == ["001_sphere_newton.json"]

    def test_entries_that_are_not_objects(self, tmp_path):
        out_dir = tmp_path / "certs"
        result = CliRunner().invoke(cli_main, [
            "sweep", "--config", str(write_sweep(tmp_path, [1, None, "x"])),
            "--out-dir", str(out_dir)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "000: invalid input: run must be a JSON object, not int",
            "001: invalid input: run must be a JSON object, not NoneType",
            "002: invalid input: run must be a JSON object, not str"]
        assert list(out_dir.iterdir()) == []

    def test_invariant_violation_sets_exit_2(self, tmp_path, monkeypatch):
        from curvedtwobody import certify as certify_mod

        def broken(cfg):
            if cfg.space is Space.HYPERBOLIC:
                raise InvariantViolation("verdict without gate")
            return certify(cfg)

        monkeypatch.setattr(certify_mod, "certify", broken)
        runs = [dict(GOOD_RUN, space="hyperbolic"), dict(GOOD_RUN, mu="0"),
                GOOD_RUN]
        result = CliRunner().invoke(cli_main, [
            "sweep", "--config", str(write_sweep(tmp_path, runs)),
            "--out-dir", str(tmp_path / "certs")])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "000: invariant violation: verdict without gate",
            "001_sphere_newton.json: Degenerate",
            "002_sphere_newton.json: NonintegrabilityCertified"]

    def test_pipeline_bug_keeps_the_other_runs(self, tmp_path, monkeypatch):
        from curvedtwobody import certify as certify_mod
        calls = []

        def buggy(cfg):
            calls.append(cfg)
            if len(calls) == 2:
                raise RuntimeError("stage blew up")
            return certify(cfg)

        monkeypatch.setattr(certify_mod, "certify", buggy)
        runs = [GOOD_RUN, dict(GOOD_RUN, space="hyperbolic", strength="1", eps="-2"),
                dict(GOOD_RUN, mu="0")]
        out_dir = tmp_path / "certs"
        result = CliRunner().invoke(cli_main, [
            "sweep", "--config", str(write_sweep(tmp_path, runs)),
            "--out-dir", str(out_dir), "--jobs", "1"])
        assert result.exit_code == 2
        assert result.stdout.splitlines() == [
            "000_sphere_newton.json: NonintegrabilityCertified",
            "001: internal error: RuntimeError: stage blew up",
            "002_sphere_newton.json: Degenerate"]
        assert "Traceback" in result.stderr
        assert sorted(f.name for f in out_dir.iterdir()) == [
            "000_sphere_newton.json", "002_sphere_newton.json"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        out_dir = tmp_path / "certs"
        result = CliRunner().invoke(cli_main, [
            "sweep", "--config", str(write_sweep(tmp_path, [GOOD_RUN])),
            "--out-dir", str(out_dir), "--jobs", jobs])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"invalid input: --jobs must be at least 1, got {jobs}"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("affinity,cpus,jobs,runs,workers", [
        (None, 8, 4, 10, 4), (None, 2, 16, 10, 2), (None, 8, 16, 3, 3), (None, None, 4, 10, 1),
        (None, 4, 1, 10, 1), (None, 4, 4, 0, 0),
        (1, 2, 4, 10, 1), (3, 8, 16, 10, 3), (8, 8, 4, 10, 4), (2, None, 4, 10, 2)])
    def test_sweep_workers(self, monkeypatch, affinity, cpus, jobs, runs, workers):
        """The CPU count is the affinity where the platform has one
        (affinity None: a platform without os.sched_getaffinity), else
        os.cpu_count()."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        assert sweep_workers(jobs, runs) == workers


def write_file(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


CERTIFY_ARGS = ["--space", "sphere", "--potential", "newton", "--strength", "2",
                "--mu", "1/2", "--p", "1", "--eps", "0", "--identity-samples", "0"]
ORBIT_ARGS = ["--space", "sphere", "--potential", "newton", "--strength", "1/4",
              "--mu", "1/2", "--p", "1/10", "--eps", "0", "--t-end", "1"]
# the hyperbolic oscillator bounded orbit's parameters, over a short span
H2_OSC_ARGS = ["--space", "hyperbolic", "--potential", "oscillator", "--strength", "1/2",
               "--mu", "1/2", "--p", "1/10", "--eps", "1/4", "--p2", "0.15",
               "--t-end", "0.01"]
# the hyperbolic Newton bounded orbit's parameters, and nve's, over a short span
H2_NEWTON_ARGS = ["--space", "hyperbolic", "--potential", "newton", "--strength", "1/2",
                  "--mu", "1/2", "--p", "1/10", "--eps", "-2", "--p2", "0.3",
                  "--t-end", "0.01"]
H2_NVE_ARGS = ["--space", "hyperbolic", "--potential", "newton", "--strength", "1",
               "--mu", "1/2", "--p", "1", "--eps", "-2", "--t-end", "0.01"]
OFF_H2_CHART = "integration aborted: initial state outside the chart: "


def sweep_args(tmp_path, text):
    return ["sweep", "--config", write_file(tmp_path, text),
            "--out-dir", str(tmp_path / "certs")]


def write_failure(code, path):
    """The one line of a failed --out write: it names the given path, never
    the temporary file beside it."""
    return f"invalid input: [Errno {code}] {os.strerror(code)}: '{path}'"


class TestBadInput:
    @pytest.mark.parametrize("bad,message", [
        ("1/0", "zero denominator in '1/0'"),
        ("abc", "rational parameters must be exact 'n/d' strings: 'abc'"),
        ("", "rational parameters must be exact 'n/d' strings: ''"),
        ("1/x", "rational parameters must be exact 'n/d' strings: '1/x'")])
    def test_bad_rational_raises_certify_error(self, bad, message):
        with pytest.raises(ValueError) as raised:
            _rat(bad)
        assert str(raised.value) == message
        with pytest.raises(CertifyError) as raised:
            config_with_mu(bad)
        assert str(raised.value) == message

    def test_from_dict_reads_integer_strings(self):
        data = make_config(Space.SPHERE, Potential.NEWTON).to_dict()
        data.update(seed="7", identity_samples="3")
        cfg = RunConfig.from_dict(data)
        assert (cfg.seed, cfg.identity_samples) == (7, 3)

    def test_from_dict_rejects_negative_identity_samples(self):
        data = make_config(Space.SPHERE, Potential.NEWTON).to_dict()
        data["identity_samples"] = -1
        with pytest.raises(CertifyError):
            RunConfig.from_dict(data)

    def test_from_dict_bounds_identity_samples(self):
        data = make_config(Space.SPHERE, Potential.NEWTON).to_dict()
        data["identity_samples"] = MAX_IDENTITY_SAMPLES
        assert RunConfig.from_dict(data).identity_samples == 10_000
        data["identity_samples"] = MAX_IDENTITY_SAMPLES + 1
        with pytest.raises(CertifyError, match="identity_samples must be in 0..10000"):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize("flag,value", [("--strength", "1/0"),
                                            ("--strength", "abc"),
                                            ("--identity-samples", "-1"),
                                            ("--identity-samples", str(10**30))])
    def test_cli_exits_1_with_one_line(self, flag, value):
        args = {"--space": "sphere", "--potential": "newton", "--strength": "2",
                "--mu": "1/2", "--p": "1", "--eps": "0"}
        args[flag] = value
        result = CliRunner().invoke(
            cli_main, ["certify"] + [tok for kv in args.items() for tok in kv])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid input:")
        assert value in lines[0]

    @pytest.mark.parametrize("key,value,message", [
        ("space", "torus", "'torus' is not a valid Space"),
        ("seed", "abc", "seed must be an integer, got 'abc'"),
        ("seed", [1], "seed must be an integer, got [1]"),
        ("seed", 2.5, "seed must be an integer, got 2.5"),
        ("identity_samples", 2.7, "identity_samples must be an integer, got 2.7"),
        ("identity_samples", True, "identity_samples must be an integer, got True"),
        ("identity_samples", 1e30,
         "identity_samples must be an integer, got 1e+30"),
        ("identity_samples", 10**30,
         f"identity_samples must be in 0..10000, got {10**30}"),
        ("strength", True, "rational parameters must be exact 'n/d' strings: True"),
        ("eps", False, "rational parameters must be exact 'n/d' strings: False")])
    def test_cli_config_file_bad_entry_exits_1(self, tmp_path, key, value,
                                               message):
        data = {"space": "sphere", "potential": "newton", "strength": "1",
                "mu": "1/2", "p": "1", "eps": "0", "identity_samples": 0}
        data[key] = value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        result = CliRunner().invoke(cli_main, ["certify", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [f"invalid input: {message}"]

    @pytest.mark.parametrize("make_args,prefix", [
        pytest.param(lambda d: ["certify", "--config", write_file(d, "{not json")],
                     "invalid input: ", id="certify-malformed-json"),
        pytest.param(lambda d: sweep_args(d, "{not json"),
                     "invalid input: ", id="sweep-malformed-json"),
        pytest.param(lambda d: ["certify", "--config", write_file(d, "[1, 2]")],
                     "invalid input: ", id="certify-config-not-object"),
        pytest.param(lambda d: sweep_args(d, json.dumps([GOOD_RUN])),
                     "invalid input: ", id="sweep-file-not-object"),
        pytest.param(lambda d: sweep_args(d, json.dumps({"runs": GOOD_RUN})),
                     "invalid input: 'runs' must be a list", id="sweep-runs-not-list"),
        pytest.param(lambda d: sweep_args(d, json.dumps({"run": []})),
                     lambda d: f"invalid input: {d / 'input.json'} has no 'runs' list",
                     id="sweep-no-runs-key"),
        pytest.param(lambda d: sweep_args(d, "{}"),
                     lambda d: f"invalid input: {d / 'input.json'} has no 'runs' list",
                     id="sweep-empty-object"),
        pytest.param(lambda d: ["simulate", *ORBIT_ARGS, "--theta0", "0"],
                     "integration aborted: initial state outside the chart",
                     id="simulate-theta0-0"),
        pytest.param(lambda d: ["section", *ORBIT_ARGS, "--theta0", "1.4",
                                "--coordinate", "7"],
                     "integration aborted: coordinate must lie in [0, 5), got 7",
                     id="section-coordinate-7"),
        pytest.param(lambda d: ["section", *ORBIT_ARGS, "--theta0", "1.4",
                                "--coordinate", "-1"],
                     "integration aborted: coordinate must lie in [0, 5), got -1",
                     id="section-coordinate-minus-1"),
        pytest.param(lambda d: ["nve", *ORBIT_ARGS, "--theta0", "0"],
                     "integration aborted: theta0=0.0 is a pole",
                     id="nve-theta0-0"),
        pytest.param(lambda d: ["section", *ORBIT_ARGS, "--theta0", "1.4",
                                "--value", "nan"],
                     "integration aborted: value must be finite, got nan",
                     id="section-value-nan"),
        pytest.param(lambda d: ["section", *ORBIT_ARGS, "--theta0", "1.4",
                                "--value", "inf"],
                     "integration aborted: value must be finite, got inf",
                     id="section-value-inf"),
        pytest.param(lambda d: ["simulate", *H2_OSC_ARGS, "--theta0", "nan"],
                     "integration aborted: initial state must be finite, got (nan,",
                     id="simulate-theta0-nan"),
        pytest.param(lambda d: ["simulate", *H2_OSC_ARGS, "--theta0", "inf"],
                     "integration aborted: initial state must be finite, got (inf,",
                     id="simulate-theta0-inf"),
        pytest.param(lambda d: ["simulate", *H2_OSC_ARGS, "--theta0", "0.7", "--p0", "inf"],
                     "integration aborted: initial state must be finite, got (0.7, 0.0, inf,",
                     id="simulate-p0-inf"),
        pytest.param(lambda d: ["simulate", *H2_OSC_ARGS, "--theta0", "nan",
                                "--method", "rkf45"],
                     "integration aborted: initial state must be finite, got (nan,",
                     id="simulate-rkf45-theta0-nan"),
        pytest.param(lambda d: ["section", *H2_OSC_ARGS, "--theta0", "nan"],
                     "integration aborted: initial state must be finite, got (nan,",
                     id="section-theta0-nan"),
        pytest.param(lambda d: ["nve", "--space", "hyperbolic", "--potential", "newton",
                                "--strength", "1", "--mu", "1/2", "--p", "1", "--eps", "-2",
                                "--theta0", "nan", "--t-end", "0.1"],
                     "integration aborted: initial state must be finite, "
                     "got (nan, nan, 1.0, 0.0, 0.0)",
                     id="nve-theta0-nan"),
        pytest.param(lambda d: ["simulate", *H2_NEWTON_ARGS, "--theta0", "1e-300"],
                     f"{OFF_H2_CHART}theta = 1e-300 outside (0, infinity)",
                     id="simulate-theta0-1e-300"),
        pytest.param(lambda d: ["simulate", *H2_NEWTON_ARGS, "--theta0", "1e-13"],
                     f"{OFF_H2_CHART}theta = 1e-13 outside (0, infinity)",
                     id="simulate-theta0-1e-13"),
        pytest.param(lambda d: ["section", *ORBIT_ARGS, "--theta0", "4"],
                     "integration aborted: initial state outside the chart: "
                     "theta = 4.0 outside (0, pi)",
                     id="section-theta0-4"),
        pytest.param(lambda d: ["section", *H2_NEWTON_ARGS, "--theta0", "1e-300"],
                     f"{OFF_H2_CHART}theta = 1e-300 outside (0, infinity)",
                     id="section-theta0-1e-300"),
        pytest.param(lambda d: ["nve", *H2_NVE_ARGS, "--theta0", "1e-300"],
                     f"{OFF_H2_CHART}theta = 1e-300 outside (0, infinity)",
                     id="nve-theta0-1e-300"),
        *(pytest.param(lambda d, a=args: ["simulate", *H2_NEWTON_ARGS, *a],
                       f"{OFF_H2_CHART}math range error", id=f"simulate-{name}")
          for name, args in [("theta0-800", ["--theta0", "800"]),
                             ("theta0-1e300", ["--theta0", "1e300"]),
                             ("rkf45-theta0-800", ["--theta0", "800", "--method", "rkf45"]),
                             ("rkf45-theta0-1e300", ["--theta0", "1e300", "--method", "rkf45"])]),
        pytest.param(lambda d: ["section", *H2_NEWTON_ARGS, "--theta0", "800"],
                     f"{OFF_H2_CHART}math range error",
                     id="section-theta0-800"),
        pytest.param(lambda d: ["nve", *H2_NVE_ARGS, "--theta0", "800"],
                     "integration aborted: initial state at theta0=800.0 outside the chart: "
                     "math range error",
                     id="nve-theta0-800"),
        pytest.param(lambda d: ["nve", "--space", "sphere", "--potential", "newton",
                                "--strength", "2", "--mu", "1/2", "--p", "1", "--eps", "0",
                                "--theta0", "1.0", "--t-end", "0.1", "--dp1", "nan"],
                     "integration aborted: initial variation must be finite, got (nan, 0.0)",
                     id="nve-dp1-nan"),
        pytest.param(lambda d: ["certify", *CERTIFY_ARGS,
                                "--out", str(d / "missing" / "cert.json")],
                     lambda d: write_failure(errno.ENOENT, d / "missing" / "cert.json"),
                     id="certify-out-missing-dir"),
        pytest.param(lambda d: ["simulate", *ORBIT_ARGS, "--theta0", "1.4",
                                "--out", str(d)],
                     lambda d: write_failure(errno.EISDIR, d),
                     id="simulate-out-existing-dir"),
    ])
    def test_bad_input_ends_in_one_line(self, tmp_path, make_args, prefix):
        result = CliRunner().invoke(cli_main, make_args(tmp_path))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        if callable(prefix):
            prefix = prefix(tmp_path)
        assert len(lines) == 1 and lines[0].startswith(prefix)
        assert not (tmp_path / "certs").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_certify_pipeline_bug_exits_2(self, monkeypatch):
        from curvedtwobody import certify as certify_mod

        def buggy(cfg):
            raise RuntimeError("stage blew up")

        monkeypatch.setattr(certify_mod, "certify", buggy)
        result = CliRunner().invoke(cli_main, ["certify", *CERTIFY_ARGS])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert "Traceback" in result.stderr
        assert [line for line in result.stderr.splitlines()
                if line.startswith("internal error")] == [
            "internal error: RuntimeError: stage blew up"]
        assert result.stderr.splitlines()[-1].startswith("internal error")

    @pytest.mark.parametrize("args", [
        ["simulate", *ORBIT_ARGS, "--theta0", "1.4"],
        ["nve", "--space", "sphere", "--potential", "newton", "--strength", "2", "--mu", "1/2",
         "--p", "1", "--eps", "0", "--theta0", "1.0", "--t-end", "1"]], ids=["simulate", "nve"])
    def test_a_step_count_above_the_bound_exits_1(self, args, monkeypatch):
        """--step 1e-300 is refused before the first step (a step taken
        would raise, so a missing bound fails with exit 2 and does not
        hang)."""
        def no_step(*a):
            raise RuntimeError("a fixed step ran")
        monkeypatch.setattr(dynamics, "_rk4_step", no_step)
        result = CliRunner().invoke(cli_main, [*args, "--step", "1e-300"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "integration aborted: t_end/step = 1e+300 fixed steps exceed "
            "MAX_STEPS = 10000000"]

    @pytest.mark.parametrize("command", [["simulate", "--method", "rkf45"], ["section"]],
                             ids=["rkf45", "section"])
    def test_an_adaptive_run_at_the_step_bound_exits_1(self, command, monkeypatch):
        """--t-end 1e300 ends with exit 1 once MAX_STEPS (patched to 5)
        accepted steps fall short of it; a sixth step would raise, so a
        missing bound fails with exit 2 and does not hang."""
        monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
        monkeypatch.setattr(dynamics, "_gbs_advance", at_most(5, dynamics._gbs_advance))
        args = [*command, *ORBIT_ARGS[:-2], "--theta0", "1.4", "--p2", "0.45",
                "--t-end", "1e300"]
        result = CliRunner().invoke(cli_main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("integration aborted: MAX_STEPS = 5 steps reached at t=")
        assert line.endswith(", before t_end = 1e+300")

    def test_simulate_zero_step_exits_1(self):
        result = CliRunner().invoke(cli_main, [
            "simulate", "--space", "sphere", "--potential", "newton",
            "--strength", "1/4", "--mu", "1/2", "--p", "1/10", "--eps", "0",
            "--theta0", "1.4", "--step", "0"])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "integration aborted: step must be positive and finite, got 0.0"]


class TestHugeParameters:
    """A parameter beyond the float range still certifies: a Gaussian alpha
    keeps its exact decision, its imag_float saturated to +-inf, and an
    alpha whose float embedding overflows is recorded as undecided."""

    HUGE = str(10 ** 400)

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_huge_eps_leaves_the_float_screen_undecided(self, space, pot):
        cert = certify(make_config(space, pot, eps="-" + self.HUGE))
        alphas = cert.lemma["alphas"]
        assert alphas and all(not a["exact"] and a["nonreal"] is None for a in alphas)
        assert cert.lemma["all_nonreal"] is False

    def test_huge_p_keeps_the_exact_decisions(self):
        result = CliRunner().invoke(cli_main, [
            "certify", "--space", "sphere", "--potential", "newton",
            "--strength", "2", "--mu", "1/2", "--p", self.HUGE, "--eps", "0",
            "--identity-samples", "0"])
        assert result.exit_code == 0, result.output
        lemma = json.loads(result.output)["lemma"]
        assert all(a["exact"] and a["nonreal"] for a in lemma["alphas"])
        assert {a["imag_float"] for a in lemma["alphas"]} == {"inf", "-inf"}
        assert lemma["all_nonreal"] is True


GOLDEN = Path(__file__).parent / "data"


class TestGoldenCertificates:
    """The four README reference sets at the CLI defaults (seed 0, 20
    identity samples) and seven seeded random sets must reproduce the
    committed certificates byte for byte."""

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_reference_certificate_bytes(self, space, pot, tmp_path):
        strength, mu, p, eps = REFERENCE[(space, pot)]
        out = tmp_path / "cert.json"
        result = CliRunner().invoke(cli_main, [
            "certify", "--space", space.value, "--potential", pot.value,
            "--strength", strength, "--mu", mu, "--p", p, "--eps", eps,
            "--out", str(out)])
        assert result.exit_code == 0
        golden = GOLDEN / f"reference_{space.value}_{pot.value}.json"
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("golden", sorted(GOLDEN.glob("random_*.json")),
                             ids=lambda path: path.stem)
    def test_random_certificate_bytes(self, golden):
        """Seeded random admissible sets, six over genuine tower contexts
        (kappa^2, lambda^2 and their ratio are not squares in Q(i)) and
        random_hyperbolic_newton_502 (lambda^2 = 9), whose product test
        solves for P at degrees 2-10; each is run from the parameters, seed
        and sample count its own certificate records."""
        raw = golden.read_bytes()
        data = json.loads(raw)
        params = data["params"]
        config = RunConfig.from_dict({
            **{key: params[key] for key in ("space", "potential", "strength",
                                            "mu", "p", "eps")},
            "seed": data["seed"],
            "identity_samples": data.get("identity_check", {}).get("samples", 0)})
        assert render_report(certify(config), "json") == raw


def corrupt(table, field, j, part=0):
    """The table with one more unit on its alphas[j] or betas[j] at j = 0.
    At a pole j of a pair +-c, alpha(+-c) = e +- c o (beta likewise), and
    the unit goes on the even part e (part = 0, both entries of the pair
    move by one) or on the odd part o (part = 1, they move by +-c)."""
    k = ("alphas", "betas").index(field)
    if j == 0:
        head = list(table.head)
        head[k] += GAUSS_ONE
        return dataclasses.replace(table, head=tuple(head))
    pairs = [list(pair) for pair in table.pairs]
    pairs[(j - 1) // 2][1 + 2 * k + part] += GAUSS_ONE
    return dataclasses.replace(table, pairs=tuple(map(tuple, pairs)))


def proof_samples():
    """The references and two seeded random sets per space x potential."""
    out = []
    for space, pot in ALL_CASES:
        out.append(reference_params(space, pot))
        rng = random.Random(f"proof-{space.value}-{pot.value}")
        out += [random_admissible_params(space, pot, rng) for _ in range(2)]
    return out


def normal_r(system):
    return to_normal_form(reduce_to_second_order(system)).r


class TestIdentityProof:
    """matches_table, the one exact check of r = T that table_match and
    every identity sample call, holds on the true tables and refuses a
    wrong r or a wrong T."""

    @staticmethod
    def assert_corruption_refused(field, j, monkeypatch, part=0):
        samples = [(params, normal_r(build_system(params)))
                   for params in proof_samples()]
        assert all(matches_table(params, r) for params, r in samples)
        exact = models.closed_form_r
        monkeypatch.setattr(models, "closed_form_r",
                            lambda params: corrupt(exact(params), field, j, part))
        assert not any(matches_table(params, r) for params, r in samples)

    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_corrupted_beta_is_refused(self, j, monkeypatch):
        self.assert_corruption_refused("betas", j, monkeypatch)

    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_corrupted_alpha_is_refused(self, j, monkeypatch):
        self.assert_corruption_refused("alphas", j, monkeypatch)

    @pytest.mark.parametrize("field", ["alphas", "betas"])
    @pytest.mark.parametrize("j", [1, 3])
    def test_corrupted_odd_part_is_refused(self, field, j, monkeypatch):
        self.assert_corruption_refused(field, j, monkeypatch, part=1)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_generic_system_is_refused(self, weighted):
        # poles away from z0, +-kappa, +-lambda, repeated factors in den A,
        # den B, num C and num f, num C sharing (z - z0) with den B, and
        # A = O(1); each numerator that a division or log-derivative splits
        # has one root, so RatFunc can factor it
        params = reference_params(Space.HYPERBOLIC, Potential.NEWTON)
        ctx = params.ctx
        z = RatFunc.x(ctx)

        def c(q):
            return RatFunc.constant(ctx, q)

        lin0 = z - c(params.z0)
        system = FirstOrderSystem(
            A=(z + c(1)) * (z + c(1)) / ((z - c(7)) * (z - c(7))),
            B=z * z / (z + c(5)) / (lin0 * lin0 * lin0 * lin0),
            C=lin0 * lin0 / (z + c(1)),
            weight=(z - c(2)) * (z - c(2)) / (z + c(4)) if weighted else None)
        assert not matches_table(params, normal_r(system))

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_wrong_r_is_refused(self, space, pot):
        """One more 1/(z - c_j)^k on r, at each table pole and k = 1, 2, is
        refused on the reference, a seeded set, a mu = 1 set and a second
        seeded set's r."""
        rng = random.Random(f"wrong-r-{space.value}-{pot.value}")
        sets = [reference_params(space, pot),
                random_admissible_params(space, pot, rng),
                random_admissible_params(space, pot, rng, mu_one=True)]
        other = random_admissible_params(space, pot, rng)
        for params in sets:
            ctx = params.ctx
            r = normal_r(build_system(params))
            assert matches_table(params, r)
            assert not matches_table(params, normal_r(build_system(other)))
            for c in models.closed_form_r(params).poles:
                for k in (1, 2):
                    bump = RatFunc.over(Poly.constant(ctx, 1), {c: k})
                    assert not matches_table(params, r + bump)

    def test_corrupted_samples_count_as_mismatches(self, monkeypatch):
        cfg = make_config(Space.HYPERBOLIC, Potential.NEWTON, identity_samples=3)
        main = models.derive_params(cfg.space, cfg.potential, cfg.strength,
                                    cfg.mu, cfg.p, cfg.eps)
        exact = models.closed_form_r
        monkeypatch.setattr(models, "closed_form_r", lambda params: exact(params)
                            if params == main else corrupt(exact(params), "betas", 1))
        cert = certify(cfg)
        assert cert.table_match is True
        assert cert.identity_check == {"samples": 3, "matches": 0,
                                       "all_match": False}


class TestSamplePath:
    """The certificate and its identity samples take r from the Riccati
    step alone, and the gauge check is the comparison 2h + p = 0: no
    elimination runs."""

    @pytest.mark.parametrize("samples", [0, 5])
    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_no_elimination_per_certificate(self, space, pot, samples, monkeypatch):
        calls = []
        names = ("reduce_to_second_order", "to_normal_form", "verify_gauge_transform")
        for name in names:
            def record(*args, _name=name, _real=getattr(linode, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(linode, name, record)
        assert not any(hasattr(certify_mod, name) for name in names)
        cert = certify(make_config(space, pot, identity_samples=samples))
        assert calls == []
        assert cert.gauge_consistent and cert.table_match
        if samples:
            assert cert.identity_check == {"samples": 5, "matches": 5, "all_match": True}

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_the_gauge_verdict_is_the_comparison(self, space, pot, monkeypatch):
        """gauge_consistent is the closed-form h compared with the one read
        off C and f: shifting the latter by 1/(z - z0) makes it false."""
        real, z0 = certify_mod._gauge_log_derivative, reference_params(space, pot).z0_scalar()
        monkeypatch.setattr(certify_mod, "_gauge_log_derivative", lambda system, ctx: real(
            system, ctx) + RatFunc(Poly.constant(ctx, 1), Poly.from_roots(ctx, [(z0, 1)])))
        cert = certify(make_config(space, pot))
        assert cert.gauge_consistent is False and cert.table_match is True


    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_a_sample_tests_no_lowest_terms(self, space, pot, monkeypatch):
        """h in closed form and r = T by cross-multiplication: five identity
        samples add no lowest-terms test and no log_derivative."""
        calls = []
        real_test, real_log = ratcalc._lowest_terms, RatFunc.log_derivative
        monkeypatch.setattr(ratcalc, "_lowest_terms",
                            lambda *args: calls.append("test") or real_test(*args))
        monkeypatch.setattr(RatFunc, "log_derivative",
                            lambda f: calls.append("log") or real_log(f))
        counts = []
        for samples in (0, 5):
            calls.clear()
            cert = certify(make_config(space, pot, identity_samples=samples))
            counts.append(sorted(calls))
        assert cert.identity_check["all_match"]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_a_sample_builds_one_table_and_no_tower_product(self, space, pot,
                                                           monkeypatch):
        """certify builds the table once for table_match and the lemma, and
        each of its N identity samples once more: 1 + N tables.  No sample
        multiplies two TowerScalars of which neither is Gaussian."""
        tables, products = [], []
        real_table, real_mul = models.closed_form_r, TowerScalar.__mul__

        def counted_mul(x, y):
            if x.is_gauss_value() is None and y.is_gauss_value() is None:
                products.append((x, y))
            return real_mul(x, y)
        monkeypatch.setattr(models, "closed_form_r",
                            lambda params: tables.append(params) or real_table(params))
        monkeypatch.setattr(TowerScalar, "__mul__", counted_mul)
        counts = []
        for samples in (0, 5):
            tables.clear()
            products.clear()
            cert = certify(make_config(space, pot, identity_samples=samples))
            counts.append((len(tables), len(products)))
        assert cert.identity_check["all_match"]
        assert counts[1] == (counts[0][0] + 5, counts[0][1])
        assert counts[0][0] == 1

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_a_sample_builds_its_products_in_gaussian_lists(self, space, pot, monkeypatch):
        """A sample's normal form and its comparison with the table make no
        z - c or z^2 - c with c outside Q(i) and multiply no Poly with a
        kappa, lambda or kappa lambda coordinate: every root product and
        closed-form numerator is built on Gaussian integer lists."""
        towers, products = [], []
        real_z_minus, real_mul = ratcalc._z_minus, Poly.__mul__

        def z_minus(c, n):
            if c.is_gauss_value() is None:
                towers.append((c, n))
            return real_z_minus(c, n)

        def mul(p, q):
            if len(p._v) > 2 or len(q._v) > 2:
                products.append((p, q))
            return real_mul(p, q)
        monkeypatch.setattr(ratcalc, "_z_minus", z_minus)
        monkeypatch.setattr(Poly, "__mul__", mul)
        rng = random.Random(11)
        for _ in range(5):
            sample = random_admissible_params(space, pot, rng)
            assert certify_mod.matches_table(sample, certify_mod._normal_form(sample)[2].r)
        assert towers == [] and products == []

    @pytest.mark.parametrize("space,pot", ALL_CASES)
    def test_a_sample_compares_no_tower_roots_built_apart(self, space, pot, monkeypatch):
        """A scalar keeps its negation and ModelParams its z0, so the
        +-kappa, +-lambda and z0 of a sample's exponent maps are one object
        each and every lookup on them hits by identity: five identity
        samples add no TowerScalar.__eq__ between two distinct objects of
        which one is not Gaussian."""
        calls = []
        real_eq = TowerScalar.__eq__

        def eq(x, y):
            if (x is not y and isinstance(y, TowerScalar)
                    and (x.is_gauss_value() is None or y.is_gauss_value() is None)):
                calls.append((x, y))
            return real_eq(x, y)
        monkeypatch.setattr(TowerScalar, "__eq__", eq)
        counts = []
        for samples in (0, 5):
            calls.clear()
            cert = certify(make_config(space, pot, identity_samples=samples))
            counts.append(len(calls))
        assert cert.identity_check["all_match"]
        assert counts[1] == counts[0]


def golden_config(stem: str) -> RunConfig:
    """The parameters of a golden certificate, without identity samples."""
    params = json.loads((GOLDEN / f"{stem}.json").read_bytes())["params"]
    return RunConfig.from_dict({**{key: params[key] for key in (
        "space", "potential", "strength", "mu", "p", "eps")}, "identity_samples": 0})


class TestOneThetaXiPerTuple:
    """Case II, the product test and the Xi records read Kovacic's n = 2
    operator from one recursion table per finite-exponent tuple and
    certificate, grown in place, so each column is built once."""

    @pytest.mark.parametrize("stem,tuples", [("random_hyperbolic_newton_502", 12),
                                             ("random_hyperbolic_newton_4", 3)])
    def test_one_xi_per_finite_exponent_tuple(self, stem, tuples, monkeypatch):
        tables, columns = [], []
        real = kovacic.operator

        def counted(normal, th, n, d, rows=None):
            if n == 2:
                assert rows is not None
                if not any(rows is t for t in tables):
                    tables.append(rows)
                built = len(rows[0])
            out = real(normal, th, n, d, rows)
            if n == 2:
                columns.extend((id(rows), j) for j in range(built, len(rows[0])))
            return out
        monkeypatch.setattr(kovacic, "operator", counted)
        cert = certify(golden_config(stem))
        assert len(tables) == tuples
        assert len(set(columns)) == len(columns) >= tuples
        assert len(cert.case2["candidates"]) > tuples


def golden_params(path: Path) -> models.ModelParams:
    params = json.loads(path.read_bytes())["params"]
    return models.derive_params(Space(params["space"]), Potential(params["potential"]),
                                *(params[key] for key in ("strength", "mu", "p", "eps")))


# A pole with alpha = 0 and beta != 0 (order 1): at c = (mu - 1) z0/(mu + 1),
# which is -kappa in both sets (kappa^2 = 1/36 and 1).
ORDER_ONE = [(Space.HYPERBOLIC, Potential.NEWTON, 1, Fr(1, 2), 1, Fr(-35, 36)),
             (Space.HYPERBOLIC, Potential.OSCILLATOR, 3, 3, -2, 1)]


def table_record_sets() -> list:
    """The eleven goldens, two seeded sets and two mu = 1 sets per space x
    potential, the collapsed contexts of tests/test_models.py and the two
    ORDER_ONE sets."""
    from test_models import COLLAPSED
    out = [golden_params(path) for path in sorted(GOLDEN.glob("*.json"))]
    for space, pot in ALL_CASES:
        rng = random.Random(f"table-record-{space.value}-{pot.value}")
        out += [random_admissible_params(space, pot, rng, mu_one=mu_one)
                for mu_one in (False, False, True, True)]
        out.append(models.derive_params(space, pot, *COLLAPSED[(space, pot)]))
    return out + [models.derive_params(*args) for args in ORDER_ONE]


class TestTableRecord:
    """Where table_match holds, certify reads the spectrum and the r of the
    Kovacic stages off the table; on every set they equal what the path
    from r gives (detect_poles, singularity_spectrum, r in lowest terms).

    The branches that occur: a finite pole of order 2, of order 1 (the
    ORDER_ONE sets) and none (mu = 1: Newton keeps z0 alone, the
    oscillator z0 and +-lambda, whose alpha is -3/16); infinity of order 2
    (Newton, where alpha_inf = 3/4) and 0 (the oscillator, where r is
    O(1/z^4)).  Infinity of order 1 and a nonzero sum of the betas (order 3
    there) occur in no model table, so test_branches_no_model_reaches
    builds tables that reach them."""

    def test_record_equals_the_path_from_r(self):
        branches = set()
        for params in table_record_sets():
            r = certify_mod._normal_form(params)[2].r
            table = models.closed_form_r(params)
            T = table.reconstruct(params.ctx)
            assert matches_table(params, r, T)
            spec = table.spectrum()
            kept = linode.singularity_spectrum(linode.NormalFormODE(r),
                                               models.detect_poles(params, r))
            assert spec == kept
            assert (json.dumps(certify_mod._spectrum_summary(spec))
                    == json.dumps(certify_mod._spectrum_summary(kept)))
            # the lemma and the spectrum read one alpha object per pole
            assert all(pt.alpha is table.alphas[table.poles.index(pt.location)]
                       for pt in spec.finite_points)
            reduced = certify_mod._table_r(T, spec)
            assert reduced._tested
            assert (reduced.num, reduced.roots) == (r.num, r.roots)
            orders = {pt.location: pt.order for pt in spec.finite_points}
            branches |= {("finite", orders.get(c, 0)) for c in table.poles}
            branches.add(("infinity", spec.infinity.order))
        assert branches == {("finite", 2), ("finite", 1), ("finite", 0),
                            ("infinity", 2), ("infinity", 0)}

    @staticmethod
    def table_of(head, kappa_pair, lambda_pair):
        """A table over the reference sphere Newton poles with the given
        parts, each a Gaussian or an int; a pair is (e, o, e', o')."""
        params = reference_params(Space.SPHERE, Potential.NEWTON)

        def g(x):
            return x if isinstance(x, GaussRational) else GaussRational(x)
        return models.CoefficientTable(
            tuple(models.candidate_poles(params)), tuple(map(g, head)),
            tuple((c2, *map(g, pair)) for c2, pair in
                  ((params.kappa2, kappa_pair), (params.lambda2, lambda_pair))))

    def test_branches_no_model_reaches(self):
        """Infinity of order 1 (sum beta = sum alpha + beta c = 0), order 0
        with every part zero (r = 0), and a dropped z0, against the path
        from r = T; and a nonzero sum of the betas raises the same
        NonFuchsianEquation on both paths."""
        tables = [self.table_of((0, 0), (1, 1, 0, 0), (-1, 0, 0, 0)),
                  self.table_of((0, 0), (0, 0, 0, 0), (0, 0, 0, 0))]
        for table, inf_order in zip(tables, (1, 0)):
            ctx = table.poles[0].ctx
            T = table.reconstruct(ctx)
            spec = table.spectrum()
            assert spec.infinity.order == inf_order
            assert table.poles[0] not in [pt.location for pt in spec.points]
            # before T.roots brings T's stored form to lowest terms
            reduced = certify_mod._table_r(T, spec)
            assert (reduced.num, reduced.roots) == (T.num, T.roots)
            poles = list(T.exponents_over(table.poles).items())
            assert spec == linode.singularity_spectrum(linode.NormalFormODE(T), poles)
        table = self.table_of((Fr(3, 4), 1), (0, 0, 0, 0), (0, 0, 0, 0))
        T = table.reconstruct(table.poles[0].ctx)
        message = "order 3 at infinity: not regular singular"
        with pytest.raises(linode.NonFuchsianEquation, match=message):
            table.spectrum()
        with pytest.raises(linode.NonFuchsianEquation, match=message):
            linode.singularity_spectrum(linode.NormalFormODE(T),
                                        list(T.exponents_over(table.poles).items()))

    def test_a_wrong_pole_order_is_an_invariant_violation(self, monkeypatch):
        """r = T is divided exactly by prod (z - c)^(2 - order); an order the
        numerator does not bear out leaves a remainder, which is a bug."""
        real = models.CoefficientTable.spectrum

        def wrong(table):
            points = real(table).points
            return linode.SingularitySpectrum(
                (dataclasses.replace(points[0], order=1),) + points[1:])
        monkeypatch.setattr(models.CoefficientTable, "spectrum", wrong)
        with pytest.raises(InvariantViolation, match="pole orders do not reduce T"):
            certify(make_config(Space.SPHERE, Potential.NEWTON))


def sweep_sets(seed: int) -> list[RunConfig]:
    """The sets one random-sweep round of bench/workloads.py certifies."""
    import sys
    sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.sweep_configs(seed)[0]


class TestTablePath:
    """certify reads nothing off r beyond r = T and the gauge check, and a
    table mismatch, which tests/table_proof.py rules out for the program's
    forms, is an invariant violation rather than a certificate."""

    def test_nothing_is_read_off_r(self, monkeypatch):
        """On the seed-1 sweep sets: no polar_leading, no detect_poles or
        singularity_spectrum, and no lowest-terms test of the Riccati r or
        of the r the Kovacic stages read."""
        configs = sweep_sets(1)
        riccati, read, tested, polar = [], [], [], []
        real_form, real_case1 = certify_mod._normal_form, kovacic.case1_search
        real_test, real_polar = ratcalc._lowest_terms, RatFunc.polar_leading

        def refused(*args):
            raise AssertionError("the path from r ran")

        def normal_form(params):
            out = real_form(params)
            riccati.append(out[2].r)
            return out
        monkeypatch.setattr(certify_mod, "_normal_form", normal_form)
        monkeypatch.setattr(kovacic, "case1_search",
                            lambda normal, spec: read.append(normal.r)
                            or real_case1(normal, spec))
        monkeypatch.setattr(ratcalc, "_lowest_terms",
                            lambda num, roots: tested.append(num) or real_test(num, roots))
        monkeypatch.setattr(RatFunc, "polar_leading",
                            lambda f, c: polar.append(c) or real_polar(f, c))
        monkeypatch.setattr(models, "detect_poles", refused)
        monkeypatch.setattr(linode, "singularity_spectrum", refused)
        certs = [certify(cfg) for cfg in configs]
        assert all(cert.table_match for cert in certs)
        assert len(read) == len(configs) and polar == []
        assert len(riccati) == len(configs)
        assert not any(num is r._num for r in riccati + read for num in tested)

    def test_a_table_mismatch_is_an_invariant_violation(self, monkeypatch):
        """With matches_table forced false, every seed-1 sweep set raises
        InvariantViolation before any Kovacic stage runs."""
        monkeypatch.setattr(certify_mod, "matches_table", lambda params, r, T=None: False)
        monkeypatch.setattr(kovacic, "case1_search", None)
        for cfg in sweep_sets(1):
            with pytest.raises(InvariantViolation, match="differs from the closed-form table"):
                certify(cfg)

    def test_the_cli_exits_2_and_a_sweep_keeps_its_other_runs(self, tmp_path, monkeypatch):
        """The mismatch prints "invariant violation: ..." with exit 2, in
        certify and in a sweep, where the sphere runs still certify."""
        real = certify_mod.matches_table
        monkeypatch.setattr(certify_mod, "matches_table",
                            lambda params, r, T=None: params.space is Space.SPHERE
                            and real(params, r, T))
        message = "invariant violation: the normal form r differs from the closed-form table"
        result = CliRunner().invoke(cli_main, [
            "certify", "--space", "hyperbolic", "--potential", "newton", "--strength", "1",
            "--mu", "1/2", "--p", "1", "--eps", "-2", "--identity-samples", "0"])
        assert result.exit_code == 2
        assert result.output.splitlines() == [message]
        runs = [GOOD_RUN, dict(GOOD_RUN, space="hyperbolic", strength="1", eps="-2"),
                dict(GOOD_RUN, mu="0"), GOOD_RUN]
        out_dir = tmp_path / "certs"
        result = CliRunner().invoke(cli_main, [
            "sweep", "--config", str(write_sweep(tmp_path, runs)),
            "--out-dir", str(out_dir), "--jobs", "1"])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "000_sphere_newton.json: NonintegrabilityCertified", f"001: {message}",
            "002_sphere_newton.json: Degenerate",
            "003_sphere_newton.json: NonintegrabilityCertified"]
        assert sorted(f.name for f in out_dir.iterdir()) == [
            "000_sphere_newton.json", "002_sphere_newton.json", "003_sphere_newton.json"]
