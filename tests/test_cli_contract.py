"""The CLI's exit-code contract as a property: whatever argv the parser's
own subcommands and flags are given, ymalpha exits 0, 1 or 2, prints no
traceback, and exits 2 only before any expensive work starts."""

import argparse
import contextlib
import io
import os

from hypothesis import HealthCheck, given, settings, strategies as st

from ymalpha import cli, coulomb, flow, verify

HUGE = str(10 ** 30)
HOSTILE = ["0", "-1", "-2.5", "inf", "-inf", "nan", "1e308", "1e-308",
           "abc", "", HUGE, "/nonexistent/x", "missing.cfg"]
# values each flag accepts, plus near misses; the sizes stay small, so that
# energy, charge and profile run for real in milliseconds
VALUES = {
    "alpha": ["1", "1.5", "2"],
    "lam": ["1", "3", "10000"],
    "adhm": ["0", "0.5", "1", "100", "-100", "0.01"],
    "n": ["1", "2", "5", "16"],
    "lambda_grid": ["1:2:3", "1:10000:2", "3:3:1", "2:1:3", "1:2:" + HUGE,
                    "1:inf:3", "1:2"],
    "perturb": ["0.05", "1e15"],
    "seed": ["3", str(2 ** 128 - 1), str(2 ** 128)],
    "max_steps": ["1", "3"],
    "tol": ["1e-8", "1"],
    "output": [os.devnull, "/nonexistent/x.csv", "out.csv"],
    "report": [os.devnull, "/nonexistent/r.json", "r.json"],
    "config": ["good.cfg", "malformed.cfg", "binary.cfg"],
    "override": ["seed=1", "radial_n=16", "quad_rtol=1", "z_n=32",
                 "radial_n=" + HUGE, "quad_rtol=inf", "nope=1", "seed", "=1",
                 "lower_bound_draws=100000", "lower_bound_draws=100001",
                 "flow_seeds=100", "flow_seeds=101"],
}
CONFIG_FILES = {"good.cfg": b"seed = 4  # comment\nradial_n = 16\n",
                "malformed.cfg": b"seed\n", "binary.cfg": b"\xffseed = 1\n"}

COMMANDS = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _value(draw, dest):
    # one value in five from the hostile pool, the rest from the flag's own
    pool = HOSTILE if draw(st.integers(0, 4)) == 0 else VALUES[dest]
    return draw(st.sampled_from(pool))


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    flags = []
    for action in COMMANDS[name]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        # a required flag is left out one time in six, an optional one one
        # time in four; argparse keeps the last of a repeated flag
        count = draw(st.integers(0, 5 if action.required else 3))
        for _ in range(min(count, 2)):
            flags.append([draw(st.sampled_from(action.option_strings))]
                         + [_value(draw, action.dest)
                            for _ in range(action.nargs or 1)])
    flags = draw(st.permutations(flags))
    return [name] + [tok for flag in flags for tok in flag]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_exit_code_contract(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for fname, data in CONFIG_FILES.items():
        (tmp_path / fname).write_bytes(data)
    calls = []

    def run_suite(cfg, log=None):
        calls.append("run_suite")
        return verify.VerificationReport(1, 0, cfg, [], True)

    def run_flow(profile, config):
        calls.append("run_flow")
        raise flow.FlowError("stub")

    def coulomb_project(c, tol, lattice):
        calls.append("coulomb_project")
        raise coulomb.CoulombError("stub")
    monkeypatch.setattr(verify, "run_suite", run_suite)
    monkeypatch.setattr(flow, "run_flow", run_flow)
    monkeypatch.setattr(coulomb, "coulomb_project", coulomb_project)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert calls == []
