"""Fixtures shared by the grid tests."""

import weakref

import pytest

from boltzsphere import lifted


@pytest.fixture
def mappings(monkeypatch):
    """Each mapping `lifted._zeros` hands out, on the grid pool or off it,
    as (floats, weak reference to the mapping, how many earlier mappings
    were alive when it was made)."""
    made = []
    zeros = lifted._zeros

    def recording(n):
        alive = sum(ref() is not None for _, ref, _ in made)
        buf = zeros(n)
        made.append((n, weakref.ref(buf.base.obj), alive))
        return buf

    monkeypatch.setattr(lifted, "_zeros", recording)
    return made
