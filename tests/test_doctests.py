"""Docstring examples must actually run (doctest over key modules)."""

import doctest

import pytest

import repro.core.expressions
import repro.core.model
import repro.core.parameters
import repro.core.sheetbridge
import repro.core.units

MODULES = [
    repro.core.expressions,
    repro.core.model,
    repro.core.sheetbridge,
    repro.core.units,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(
        module,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
        verbose=False,
    )
    assert results.failed == 0, f"{results.failed} doctest(s) failed"
