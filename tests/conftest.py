"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(call):
    """Peak traced allocation of call(), in bytes above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The peak traced allocation of a call, as traced_peak(call) -> bytes."""
    return _traced_peak
