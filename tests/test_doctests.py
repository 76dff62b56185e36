"""Run the usage examples embedded in the docstrings."""

import doctest

import oracles
import pytest

from quasiflags import charseries, cohomology, kostant, quiverfilt, rootdata


@pytest.mark.parametrize(
    "module", [charseries, cohomology, kostant, quiverfilt, rootdata, oracles]
)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
