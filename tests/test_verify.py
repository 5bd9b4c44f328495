"""The check table: each entry's id and claim reach the report whether its
check passed, failed or crashed."""

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
