"""Fixtures shared by the runner tests."""

from __future__ import annotations

import pytest


@pytest.fixture
def pools(monkeypatch):
    """Route every fan-out through the pool — the test grids sit under
    :data:`~repro.runner.pool.INLINE_MAX_UNITS` — and record each pool
    started, so a test can assert the pool really ran."""
    from repro.runner import pool

    started = []
    real = pool._pool_context

    def spy():
        started.append(True)
        return real()

    monkeypatch.setattr(pool, "INLINE_MAX_UNITS", 0)
    monkeypatch.setattr(pool, "_pool_context", spy)
    return started
