"""End-to-end acceptance gate: the full verification suite at its default
configuration must pass every check at the stated tolerances.

The suite runs once (session fixture) and each named check is asserted as a
separate test so failures are individually attributable.  The suite takes
minutes, so the module is marked slow.
"""

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
def report():
    return verify.run_suite(log=lambda s: print(s, flush=True))


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_check_passes(report, check_id):
    chk = {c.id: c for c in report.checks}[check_id]
    assert chk.passed, (
        "%s: computed=%.6g target=%.6g tolerance=%.2g detail=%s"
        % (chk.id, chk.computed, chk.target, chk.tolerance, chk.detail))


def test_all_pass_flag(report):
    assert report.all_pass == all(c.passed for c in report.checks)


def test_report_serializes(report):
    text = report.to_json()
    assert text == report.to_json()
    for cid in CHECK_IDS:
        assert cid in text

