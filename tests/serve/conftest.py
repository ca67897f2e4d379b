"""Shared fixtures: run a ServeApp inside a background event-loop
thread so blocking test code can drive it over real HTTP."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import obs
from repro.runner.cache import ResultCache
from repro.serve.app import ServeApp
from repro.sim.trace_store import TraceStore

#: Fast grid shared by the integration tests: 2 kernels x 2 configs
#: at quarter scale (the cheapest tracers in the suite).
GRID_KERNELS = ("qrng_K2", "sortNets_K2")
GRID_CONFIGS = ("st2", "valhalla")
GRID_SCALE = 0.25


class ServerHarness:
    """One ServeApp on its own event-loop thread, plus sync helpers."""

    def __init__(self, app: ServeApp):
        self.app = app
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run,
                                        name="serve-test-loop",
                                        daemon=True)
        self._ready = threading.Event()
        self._startup_error = None

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def go():
            try:
                await self.app.start()
            except BaseException as exc:    # surface in start()
                self._startup_error = exc
                raise
            finally:
                self._ready.set()
            await self.app.serve_forever()

        try:
            self.loop.run_until_complete(go())
        finally:
            self.loop.close()

    def start(self) -> "ServerHarness":
        self._thread.start()
        assert self._ready.wait(timeout=120), "server failed to start"
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def call(self, coro, timeout: float = 120.0):
        """Run a coroutine on the server loop from test code."""
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout)

    def stop(self) -> None:
        if self._thread.is_alive():
            self.call(self.app.stop())
            self._thread.join(timeout=30)

    @property
    def address(self) -> str:
        return self.app.server.address


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """A real 2-shard server with its own trace store and result
    cache, shared by the whole module (workers build models once)."""
    root = tmp_path_factory.mktemp("serve")
    app = ServeApp(shards=2,
                   trace_store=TraceStore(root / "traces"),
                   cache=ResultCache(root / "cache"),
                   registry=obs.Obs())
    harness = ServerHarness(app).start()
    yield harness
    harness.stop()


@pytest.fixture(scope="module")
def reject_server(tmp_path_factory):
    """A server with tiny limits and a stubbed pool: admitted jobs
    never finish, so quota / backpressure / pending paths are
    deterministic."""
    root = tmp_path_factory.mktemp("reject")
    app = ServeApp(shards=1, cache=ResultCache(root / "cache"),
                   use_cache=False, client_quota=4,
                   max_queued_units=6, registry=obs.Obs())
    app.pool.serve = lambda on_result: None            # never fork
    app.pool.submit = lambda *a, **k: None             # swallow work
    harness = ServerHarness(app).start()
    yield harness
    harness.stop()
