"""The test tooling itself: a failing property test must end in its failure
report, not in an INTERNALERROR of the hypothesis plugin."""

import importlib
import importlib.util
import warnings

import pytest


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="hypothesis writes no patch without libcst")
def test_hypothesis_patching_imports_under_deprecation_errors():
    # what hypothesis's pytest plugin imports when a property test fails,
    # under pyproject's error::DeprecationWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        importlib.import_module("hypothesis.extra._patching")
