"""Fixtures shared by the test modules."""

import json
import pathlib

import numpy as np
import pytest
import scipy

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def reference_versions():
    """Skips where numpy or scipy is not the version that the pinned
    reference numbers (tests/data/report.json and the literals that request
    this fixture) were made with, since another version may move their last
    bits."""
    made = json.loads((DATA / "report_versions.json").read_text())
    here = {"numpy": np.__version__, "scipy": scipy.__version__}
    if made != here:
        pytest.skip("the reference numbers were made with numpy %s and "
                    "scipy %s; this is numpy %s and scipy %s"
                    % (made["numpy"], made["scipy"], here["numpy"],
                       here["scipy"]))


@pytest.fixture(scope="session")
def reference_report(reference_versions):
    """Bytes of tests/data/report.json, the default-config report."""
    return (DATA / "report.json").read_bytes()
