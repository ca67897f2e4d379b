"""Fixtures shared by the runner tests."""

from __future__ import annotations

import pytest


@pytest.fixture
def pools(monkeypatch):
    """Record every worker process a :class:`WorkerPool` starts, so a
    test can assert the pool really ran."""
    from repro.runner.pool import WorkerPool

    started = []
    real = WorkerPool._spawn

    def spy(self, slot):
        started.append(self)
        return real(self, slot)

    monkeypatch.setattr(WorkerPool, "_spawn", spy)
    return started
