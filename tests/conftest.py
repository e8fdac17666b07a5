"""Shared fixtures for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_uniform(rng):
    """500 uniform points in 6 dimensions."""
    return rng.random((500, 6))


@pytest.fixture
def medium_uniform(rng):
    """3000 uniform points in 8 dimensions."""
    return rng.random((3000, 8))


@pytest.fixture
def counted_nodes(monkeypatch):
    """Every tree ``Node`` constructed while the test runs, in order."""
    from repro.index.node import Node

    built = []
    real_init = Node.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Node, "__init__", counting_init)
    return built
