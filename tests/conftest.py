"""Fixtures shared by the test modules."""

import json
import pathlib

import numpy as np
import pytest
import scipy

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def reference_report():
    """Bytes of tests/data/report.json, the default-config report.  Skips
    where numpy or scipy is not the version it was made with, since another
    version may move the last bits of its numbers."""
    made = json.loads((DATA / "report_versions.json").read_text())
    here = {"numpy": np.__version__, "scipy": scipy.__version__}
    if made != here:
        pytest.skip("tests/data/report.json was made with numpy %s and "
                    "scipy %s; this is numpy %s and scipy %s"
                    % (made["numpy"], made["scipy"], here["numpy"],
                       here["scipy"]))
    return (DATA / "report.json").read_bytes()
