"""Tier-1 settings beyond pyproject's: a file left open (a ResourceWarning,
which pytest reports as an unraisable-exception warning when the file is
collected) fails the test that left it.  These filters are marks on the
items under this directory, not pyproject filters, because the benchmark's
smoke test reads with a bare ``open(...).read()``."""

import pathlib

import pytest

HERE = pathlib.Path(__file__).parent

LEAK_FILTERS = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            for mark in LEAK_FILTERS:
                item.add_marker(mark)
