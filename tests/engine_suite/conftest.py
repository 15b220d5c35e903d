"""Parametrizes every test in this package over both engine backends.

The CI backend-parity matrix sets ``IOVERLAY_BACKEND=sim`` or ``=net``
to run one leg per job; locally (unset) each test runs against both.
"""

import os

import pytest

from tests.engine_suite.drivers import NetCluster, SimCluster

BACKENDS = ("sim", "net")


def pytest_generate_tests(metafunc):
    if "backend_name" in metafunc.fixturenames:
        only = os.environ.get("IOVERLAY_BACKEND", "")
        selected = [b for b in BACKENDS if only in ("", b)]
        if not selected:
            raise pytest.UsageError(
                f"IOVERLAY_BACKEND={only!r} matches no backend in {BACKENDS}"
            )
        metafunc.parametrize("backend_name", selected)


@pytest.fixture
def make_cluster(backend_name):
    """Factory for tests that pick the seed or switch telemetry on."""
    made = []

    def make(**kwargs):
        driver = (SimCluster if backend_name == "sim" else NetCluster)(**kwargs)
        made.append(driver)
        return driver

    try:
        yield make
    finally:
        for driver in made:
            driver.close()


@pytest.fixture
def cluster(make_cluster):
    return make_cluster()
