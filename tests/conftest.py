"""Fixtures shared across the test packages."""

import pytest

from repro.parallel import pipeline


@pytest.fixture
def pooled(monkeypatch):
    """Walk every chunk in the worker pool, however small.

    The pipeline walks chunks under ``POOL_MIN_WALK_STEPS`` walk-steps in
    the consumer, so the tiny graphs of the pool-mechanics tests (transport,
    snapshot shipping, worker death, cross-worker bit-identity) would never
    reach a worker.  Dropping the threshold to 0 sends them all there."""
    monkeypatch.setattr(pipeline, "POOL_MIN_WALK_STEPS", 0)
