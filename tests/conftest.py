"""Fixtures shared by the test modules."""

from __future__ import annotations

import functools

import pytest


@pytest.fixture
def recurrence_tables(monkeypatch):
    """Swap the stored bb4 recurrence tables of scv.identities for one test.

    Each call installs the tables with a fresh per-m cache of their collapses;
    the test's end restores both, so no collapse of a swapped table outlives it.
    """
    import scv.identities as identities

    def use(tables):
        monkeypatch.setattr(identities, "_RECURRENCE_TRIPLES", tables)
        collapse = identities._coefficients_in_n.__wrapped__
        monkeypatch.setattr(
            identities, "_coefficients_in_n", functools.lru_cache(maxsize=None)(collapse)
        )

    return use
