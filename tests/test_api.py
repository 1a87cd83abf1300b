"""The package's public export surface."""

import pytest

import juliafit


@pytest.mark.parametrize("name", juliafit.__all__)
def test_public_name_resolves(name):
    assert getattr(juliafit, name) is not None
