"""Shared fixtures: coarse grids sized for seconds-long unit runs.

Acceptance tests build their own desk-scale grids; everything else should
use these to keep the suite quick. The terminal-summary hook replays the
one-line verdicts collected by the acceptance module so they stay visible
under captured output, and stores them through pytest's cache under
ACCEPTANCE_CACHE_KEY as a list of records

    {"criterion": 6, "verdict": "PASS", "line": "criterion 06: PASS (...)",
     "seconds": 113.2}

where seconds is the wall time of the test including its fixtures' set-up.
Read them back with `pytest --cache-show henon_annulus/acceptance` or from
.pytest_cache/v/henon_annulus/acceptance. With -p no:cacheprovider nothing
is stored.
"""

import time

import numpy as np
import pytest

from henon_annulus import ProblemParams, build_axi_grid, build_radial_grid

ACCEPTANCE_RECORDS: list[dict] = []
ACCEPTANCE_CACHE_KEY = "henon_annulus/acceptance"


@pytest.fixture(scope="session")
def radial_grid():
    return build_radial_grid(400, "graded")


@pytest.fixture(scope="session")
def radial_grid_fine():
    return build_radial_grid(2000, "graded")


@pytest.fixture(scope="session")
def axi_grid():
    return build_axi_grid(96, 32, "graded-polar")


@pytest.fixture(scope="session")
def axi_grid_small():
    return build_axi_grid(48, 16, "graded-polar")


@pytest.fixture(scope="session")
def params_alpha1_p4():
    return ProblemParams(1.0, 4.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    first = len(ACCEPTANCE_RECORDS)
    start = time.perf_counter()
    yield
    for record in ACCEPTANCE_RECORDS[first:]:
        record["seconds"] = time.perf_counter() - start


def pytest_terminal_summary(terminalreporter, config):
    if not ACCEPTANCE_RECORDS:
        return
    terminalreporter.section("acceptance criteria")
    for record in ACCEPTANCE_RECORDS:
        terminalreporter.write_line(record["line"])
    cache = getattr(config, "cache", None)
    if cache is not None:
        cache.set(ACCEPTANCE_CACHE_KEY, ACCEPTANCE_RECORDS)
