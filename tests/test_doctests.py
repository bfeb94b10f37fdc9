"""Every example in a verlkit docstring runs and prints what it shows."""

import doctest
import importlib
from pathlib import Path

import pytest

import verlkit

MODULES = [
    importlib.import_module("verlkit." + p.stem)
    for p in sorted(Path(verlkit.__file__).parent.glob("*.py"))
    if p.stem != "__init__"
]
EXAMPLES = [
    test
    for module in MODULES
    for test in doctest.DocTestFinder().find(module)
    if test.examples
]


@pytest.mark.parametrize("test", EXAMPLES, ids=lambda t: t.name)
def test_docstring_examples(test):
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.failures == 0
