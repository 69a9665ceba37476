"""Tier-1 settings beyond pyproject's: a file left open (a ResourceWarning,
which pytest reports as an unraisable-exception warning when the file is
collected) fails the test that left it.  These filters are marks on the
items under this directory, not pyproject filters, because the benchmark's
smoke test reads with a bare ``open(...).read()``.

When a property test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write a patch for the failing example.
That module imports libcst, whose ``mypy_extensions.TypedDict`` raises a
DeprecationWarning, which pyproject makes an error, and the plugin catches
only ImportError, so the run would end in INTERNALERROR instead of the
failure report.  The module is imported here once with that warning
ignored; where libcst is not installed the import fails and the plugin
does without it."""

import contextlib
import pathlib
import warnings

import pytest

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

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
