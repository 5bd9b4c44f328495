"""The check table: each entry's id and claim reach the report whether its
check passed, failed or crashed, and the quick checks 1-9 give the reference
report's entries."""

import json
import math

import pytest

from ymalpha import verify


def _passes(cfg, rng):
    return 0.0, 1.0, True, ""


def test_check_ids_unique():
    ids = [cid for cid, _, _ in verify.CHECKS]
    assert len(ids) == 12
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("k", range(12))
def test_crashed_check_keeps_its_entry(k, monkeypatch):
    def boom(cfg, rng):
        raise RuntimeError("synthetic failure")
    table = [(cid, claim, boom if j == k else _passes)
             for j, (cid, claim, _) in enumerate(verify.CHECKS)]
    monkeypatch.setattr(verify, "CHECKS", table)
    rep = verify.run_suite()
    assert [(c.id, c.claim) for c in rep.checks] == [e[:2] for e in table]
    chk = rep.checks[k]
    assert not chk.passed
    assert chk.detail == "crashed: RuntimeError('synthetic failure')"
    assert math.isnan(chk.computed) and chk.tolerance == 0.0
    assert [c.passed for c in rep.checks] == [j != k for j in range(12)]
    assert not rep.all_pass


def test_checks_one_to_nine_match_reference(monkeypatch, reference_report):
    # the first nine entries keep their indices, and so their random
    # streams; checks 10-12 take minutes and run in test_acceptance
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:9])
    got = json.loads(verify.run_suite().to_json())
    ref = json.loads(reference_report)

    def text(x):
        return json.dumps(x, indent=1, sort_keys=True)
    assert text(got["config"]) == text(ref["config"])
    assert [text(c) for c in got["checks"]] \
        == [text(c) for c in ref["checks"][:9]]
