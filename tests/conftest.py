"""Opt-in slow tests: a test marked `slow` runs only under `pytest --runslow`."""

import pytest


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False, help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
