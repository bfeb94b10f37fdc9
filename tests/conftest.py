"""Fixtures shared by the test modules."""

import pytest

import golden


@pytest.fixture(scope="session")
def su2():
    """{k: (SU(2)_k modular data, Verlinde ring)} for k = 1..16, built once."""
    return golden.su2_data()
