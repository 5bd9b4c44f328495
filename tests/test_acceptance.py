"""End-to-end acceptance gate: the full verification suite at its default
configuration must pass every check at the stated tolerances.

The suite runs once (session fixture), as `ymalpha verify --report` in a
child process that inherits the environment, BLAS thread count included.
Each named check is asserted as a separate test so failures are
individually attributable, and the report is compared byte for byte with
the reference in tests/data.  The suite takes minutes, so the module is
marked slow.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ymalpha import verify

pytestmark = pytest.mark.slow

CHECK_IDS = [
    "basic-energy",
    "curvature-norms",
    "lower-bound",
    "charge-asd",
    "dilation-symmetry",
    "profile-consistency",
    "chi-norms",
    "variational-gradient",
    "jacobi-kernel",
    "flow-convergence",
    "coulomb-projection",
    "z-minimization",
]


@pytest.fixture(scope="session")
def run(tmp_path_factory):
    """(exit code, report bytes) of one `ymalpha verify --report` run."""
    path = tmp_path_factory.mktemp("verify") / "report.json"
    # the child imports the same ymalpha as this process, installed or not
    src = str(pathlib.Path(verify.__file__).parents[1])
    pp = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ymalpha.cli", "verify", "--report", str(path)],
        env=dict(os.environ, PYTHONPATH=pp))
    assert proc.returncode in (0, 1), \
        "verify exited %d without a report" % proc.returncode
    return proc.returncode, path.read_bytes()


@pytest.fixture(scope="session")
def report(run):
    return json.loads(run[1])


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_check_passes(report, check_id):
    chk = {c["id"]: c for c in report["checks"]}[check_id]
    assert chk["passed"], (
        "%s: computed=%.6g target=%.6g tolerance=%.2g detail=%s"
        % (chk["id"], chk["computed"], chk["target"], chk["tolerance"],
           chk["detail"]))


def test_all_pass_flag(run, report):
    assert report["all_pass"] == all(c["passed"] for c in report["checks"])
    assert run[0] == 0


def test_report_serializes(run, report):
    assert [c["id"] for c in report["checks"]] == CHECK_IDS
    # the report is written in canonical form: sorted keys, one-space indent
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    assert text.encode() == run[1]


def test_report_matches_reference(run, reference_report):
    assert run[1] == reference_report
