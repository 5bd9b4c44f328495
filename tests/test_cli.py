import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ymalpha import cli, coulomb, energy, fields, flow, profile, verify
from ymalpha.energy import BASIC_YM_ALPHA

# the cheap deterministic subset used for CLI-mechanics tests (the full
# suite runs once in test_acceptance)
FAST = [e for e in verify.CHECKS if e[0] in ("basic-energy", "charge-asd")]


def test_energy_value(capsys):
    rc = cli.main(["energy", "--alpha", "1.5", "--adhm", "0", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(BASIC_YM_ALPHA(1.5), rel=1e-8)
    assert out["alpha"] == 1.5


def test_energy_at_large_lambda(capsys):
    # the radial route at n = 96 is 4.7% off here; n = 800 converges
    assert cli.main(["energy", "--alpha", "1.05", "--lam", "10000"]) == 0
    out = json.loads(capsys.readouterr().out)
    ref = energy.ym_alpha_lambda(fields.basic_connection(), 1.05, 1e4, n=800)
    assert out["value"] == pytest.approx(ref.value, rel=1e-9)
    assert out["residual"] < 1e-9 * out["value"]


@pytest.mark.parametrize("alpha, scale, lam", [
    (1.5, 1.0, 3.0), (1.5, 2.0, 3.0), (1.3, 0.5, 7.0), (1.2, 0.3, 1.0)])
def test_energy_matches_radial_route(alpha, scale, lam, capsys):
    # scale * lam < 1 in the last case: the 1/lambda symmetry
    assert cli.main(["energy", "--alpha", str(alpha), "--lam", str(lam),
                     "--adhm", "0", str(scale)]) == 0
    out = json.loads(capsys.readouterr().out)
    ref = energy.ym_alpha_lambda(fields.Adhm(None, scale), alpha, lam)
    assert out["value"] == pytest.approx(ref.value, rel=1e-10)


def test_charge_output(capsys):
    rc = cli.main(["charge", "--adhm", "0.4", "1.3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["charge"] == pytest.approx(1.0, abs=1e-8)


def test_alpha_out_of_range(capsys):
    rc = cli.main(["energy", "--alpha", "2.5", "--adhm", "0", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "out of range" in err and "usage" in err


def test_lambda_out_of_range():
    assert cli.main(["energy", "--alpha", "1.5", "--lam", "20000"]) == 2
    assert cli.main(["profile", "--alpha", "1.5",
                     "--lambda-grid", "0.5:10:4"]) == 2


def test_bad_arguments_exit_usage():
    assert cli.main(["profile", "--alpha", "1.5", "--lambda-grid", "junk"]) == 2
    assert cli.main(["nonsense"]) == 2
    assert cli.main(["energy", "--n", "0", "--alpha", "1.5"]) == 2
    assert cli.main(["charge", "--n", "0"]) == 2
    assert cli.main(["profile", "--alpha", "1.5", "--lambda-grid", "1:2:3",
                     "--n", "0"]) == 2
    assert cli.main(["charge", "--adhm", "0", "-1"]) == 2
    # no alpha-energy route exists for an off-centre instanton
    assert cli.main(["energy", "--alpha", "1.5", "--adhm", "0.5", "1"]) == 2
    # each of these is refused before any work is done
    for argv in (["gaugefix", "--n", "1"], ["gaugefix", "--n", "0"],
                 ["gaugefix", "--seed", "-1"], ["gaugefix", "--tol", "-1"],
                 ["gaugefix", "--perturb", "inf"],
                 ["charge", "--adhm", "nan", "1"],
                 ["energy", "--alpha", "1.5", "--adhm", "0", "inf"],
                 ["flow", "--alpha", "1.1", "--seed", "-1"],
                 ["flow", "--alpha", "1.1", "--perturb", "nan"],
                 ["flow", "--alpha", "1.1", "--max-steps", "0"],
                 ["profile", "--alpha", "1.5", "--lambda-grid", "1:2:nan"],
                 ["profile", "--alpha", "1.5", "--lambda-grid", "1:inf:3"],
                 # --adhm outside SCALE in [1e-2, 1e2], |XI| <= 1e2, where
                 # energy and charge are no longer accurate
                 ["charge", "--adhm", "0", "1e200"],
                 ["energy", "--alpha", "1.5", "--adhm", "0", "1e200"],
                 ["charge", "--adhm", "0", "1e-200"],
                 ["charge", "--adhm", "1e308", "1"],
                 ["charge", "--adhm", "-1e3", "1"],
                 ["energy", "--alpha", "1.5", "--adhm", "0", "10000"],
                 ["energy", "--alpha", "1.5", "--adhm", "0", "0.009"]):
        assert cli.main(argv) == 2, argv


def test_adhm_range_ends_accepted(capsys):
    for xi, scale in (("100", "0.01"), ("-100", "100")):
        assert cli.main(["charge", "--adhm", xi, scale]) == 0
        q = json.loads(capsys.readouterr().out)["charge"]
        assert q == pytest.approx(1.0, abs=1e-11)
    for scale in ("0.01", "100"):
        assert cli.main(["energy", "--alpha", "1.5", "--adhm", "0",
                         scale]) == 0
        e = json.loads(capsys.readouterr().out)["value"]
        assert e == pytest.approx(
            profile.pullback_energy(1.5, 100.0, route="hyperbolic"),
            rel=1e-11)


@pytest.mark.parametrize("argv, owner, work", [
    (["profile", "--alpha", "1.5", "--lambda-grid", "1:2:2",
      "--output", "/nonexistent/x.csv"], profile, "profile_point"),
    (["flow", "--alpha", "1.1", "--max-steps", "1",
      "--output", "/nonexistent/x.csv"], flow, "run_flow"),
    (["gaugefix", "--n", "5", "--output", "/nonexistent/x.csv"],
     coulomb, "coulomb_project"),
    (["verify", "--report", "/nonexistent/r.json"], verify, "run_suite"),
], ids=["profile", "flow", "gaugefix", "verify"])
def test_unwritable_output_exits_usage(argv, owner, work, monkeypatch,
                                       capsys):
    def stub(*args, **kwargs):
        raise AssertionError("work ran before the output was opened")
    monkeypatch.setattr(owner, work, stub)
    assert cli.main(argv) == 2
    assert "/nonexistent/" in capsys.readouterr().err


def test_profile_csv(tmp_path):
    out = tmp_path / "p.csv"
    rc = cli.main(["profile", "--alpha", "1.3", "--lambda-grid", "1:10:20",
                   "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("alpha,lambda,tau,sigma,G,Gprime,gap,"
                        "dE_dloglog,residual")
    assert len(lines) == 21
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(rows[:, 0], 1.3)
    assert rows[0, 1] == 1.0 and rows[-1, 1] == pytest.approx(10.0)
    # gap column nonnegative, G increasing in lambda
    assert np.all(rows[:, 6] >= 0)
    assert np.all(np.diff(rows[:, 4]) > 0)


def test_flow_csv_monotone(tmp_path):
    out = tmp_path / "t.csv"
    rc = cli.main(["flow", "--alpha", "1.1", "--perturb", "0.05",
                   "--seed", "3", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,dt,energy,grad_norm,dist_conn,dist_curv,charge"
    es = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
    assert np.all(np.diff(es) <= 1e-10 * np.abs(es[:-1]))


def test_gaugefix_csv(tmp_path):
    out = tmp_path / "g.csv"
    rc = cli.main(["gaugefix", "--perturb", "0.05", "--seed", "1",
                   "--n", "11", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "outer_iter,residual,cg_iters,sigma_sup_norm"
    res = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert res[-1] <= 1e-8


def test_failed_flow_exits_one(capsys):
    # the line search gives up below dt_min: one line on stderr, exit 1
    assert cli.main(["flow", "--alpha", "1.1", "--perturb", "1e5",
                     "--max-steps", "3", "--output", os.devnull]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("flow failed: ")


def test_gaugefix_support_gate_exits_usage(capsys):
    # the spline tail of the perturbation reaches outside |zeta| <= 0.8 R
    assert cli.main(["gaugefix", "--n", "5", "--perturb", "1e15",
                     "--output", os.devnull]) == 2
    assert "not supported" in capsys.readouterr().err


def test_verify_missing_config(capsys):
    rc = cli.main(["verify", "--config", "/no/such/file.cfg"])
    assert rc == 2


def test_verify_unknown_key(tmp_path, capsys):
    cfgf = tmp_path / "bad.cfg"
    cfgf.write_text("not_a_real_key = 3\n")
    assert cli.main(["verify", "--config", str(cfgf)]) == 2


@pytest.mark.parametrize("item", [
    "radial_n=abc", "radial_n=96.5", "seed=1.5", "quad_rtol=tight",
    "quad_rtol=0", "quad_rtol=-1e-8", "quad_rtol=nan", "flow_seeds=0",
    "seed=-1", "seed=%d" % 2 ** 128, "moduli_n=1", "coulomb_n=1", "z_n=1",
])
def test_verify_rejects_bad_config_values(item, monkeypatch):
    def run_suite(cfg, log=None):
        raise AssertionError("the suite ran on an invalid config")
    monkeypatch.setattr(verify, "run_suite", run_suite)
    assert cli.main(["verify", "-o", item]) == 2


def test_verify_accepts_int_for_float_key(tmp_path, monkeypatch):
    seen = []

    def run_suite(cfg, log=None):
        seen.append(cfg)
        return verify.VerificationReport(1, 0, cfg, [], True)
    monkeypatch.setattr(verify, "run_suite", run_suite)
    rc = cli.main(["verify", "-o", "quad_rtol=1", "-o", "seed=0",
                   "--report", str(tmp_path / "r.json")])
    assert rc == 0
    assert seen == [{"quad_rtol": 1, "seed": 0}]


def test_config_parsing(tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("seed = 42   # comment\n\nquad_rtol = 1e-6\n")
    cfg = cli.read_config(str(cfgf))
    assert cfg == {"seed": 42, "quad_rtol": 1e-6}
    cli.apply_overrides(cfg, ["seed=7"])
    assert cfg["seed"] == 7
    with pytest.raises(cli.UsageError):
        cli.apply_overrides(cfg, ["no-equals-sign"])
    cfgf.write_text("malformed line\n")
    with pytest.raises(cli.UsageError):
        cli.read_config(str(cfgf))


def test_verify_exit_codes_and_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS", FAST)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["verify", "--report", str(r1)]) == 0
    assert cli.main(["verify", "--report", str(r2)]) == 0
    # byte-identical report for the same seed and config
    assert r1.read_bytes() == r2.read_bytes()
    rep = json.loads(r1.read_text())
    assert rep["all_pass"] is True
    assert all(c["passed"] for c in rep["checks"])
    capsys.readouterr()
    # an absurd tolerance makes the quadrature checks fail: exit 1
    rc = cli.main(["verify", "-o", "quad_rtol=1e-30", "--report",
                   str(tmp_path / "r3.json")])
    assert rc == 1
    rep = json.loads((tmp_path / "r3.json").read_text())
    assert not rep["all_pass"]
    bad = [c for c in rep["checks"] if not c["passed"]]
    assert any(c["id"] == "basic-energy" for c in bad)


def test_verify_seed_changes_report(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "CHECKS",
                        [e for e in verify.CHECKS if e[0] == "lower-bound"])
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "--report", str(r1)]) == 0
    assert cli.main(["verify", "-o", "seed=99", "--report", str(r2)]) == 0
    d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
    assert d1["seed"] != d2["seed"]
    # different draws, same verdict
    assert d1["checks"][0]["computed"] != d2["checks"][0]["computed"]
    assert d2["all_pass"]


def test_crashing_check_exits_one(tmp_path, monkeypatch, capsys):
    def boom(cfg, rng):
        raise RuntimeError("synthetic failure")
    monkeypatch.setattr(verify, "CHECKS", [
        FAST[0], ("boom", "synthetic crash for exit-code coverage", boom)])
    rc = cli.main(["verify", "--report", str(tmp_path / "r.json")])
    assert rc == 1
    rep = json.loads((tmp_path / "r.json").read_text())
    crashed = [c for c in rep["checks"] if c["id"] == "boom"][0]
    assert crashed["claim"] == "synthetic crash for exit-code coverage"
    assert not crashed["passed"]
    assert np.isnan(crashed["computed"])
    assert crashed["detail"] == "crashed: RuntimeError('synthetic failure')"


def test_console_entry_point():
    # the child imports the same ymalpha as this process, installed or not
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "ymalpha.cli", "--help"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0
    assert "verify" in out.stdout and "gaugefix" in out.stdout
