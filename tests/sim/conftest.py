"""Fixtures for the fleet/sequential suites."""

from __future__ import annotations

import pytest

from _testkit import encoder


@pytest.fixture(scope="package")
def kmeans_encoder():
    """One fitted codebook shared across the suite (fitting dominates runtime)."""
    return encoder("kmeans")
