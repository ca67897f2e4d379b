"""``repro.serve.app`` — the experiment service application.

One :class:`ServeApp` owns the whole server: the HTTP front
(:mod:`repro.serve.httpd`), the job state (:mod:`repro.serve.state`),
the sharded worker pool (:mod:`repro.serve.pool`), the result cache
and the observability registry.  The event loop thread is the only
thing that touches mutable state — pool results hop onto it via
``call_soon_threadsafe`` — so the application needs no locks.

Request lifecycle::

    POST /v1/jobs            submit a JobSpec        -> 202 JobStatus
                             (429 quota/backpressure, 503 draining)
    POST /v1/jobs:batch      submit several jobs atomically
                             (all admitted or none) -> 202 [JobStatus]
    GET  /v1/jobs/<id>        poll                   -> 200 JobStatus
    GET  /v1/jobs/<id>/events stream NDJSON statuses until terminal
    GET  /v1/jobs/<id>/result fetch                  -> 200 JobResult
                             (?cursor=&limit= pages the unit list)
    GET  /v1/jobs[?cursor=&limit=]  list in submission order, paged
    GET  /v1/health, /v1/stats; POST /v1/admin/drain

Scheduling: each unit first consults the result cache, then the
in-flight coalescing map, and only then costs an execution.  Units
dispatched to the pool are bounded (``shards × DISPATCH_DEPTH``
outstanding), and the dispatcher always serves the best
``(priority, submission)`` job — so a long low-priority job cannot
bury a later high-priority one behind a deep pool queue.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro import obs
from repro.api import (SCHEMA_VERSION, ErrorEnvelope, JobResult,
                       JobSpec, WireError)
from repro.serve import httpd
from repro.serve.pool import ShardedPool
from repro.serve.state import (DEFAULT_CLIENT_QUOTA,
                               DEFAULT_MAX_QUEUED_UNITS, RejectError,
                               ServeState)

#: Units dispatched to the pool but not yet resolved, per shard: deep
#: enough to keep workers busy, shallow enough that priority matters.
DISPATCH_DEPTH = 8

#: How often an idle ``/events`` stream re-checks its job (safety net;
#: real wake-ups come from the change notification).
STREAM_HEARTBEAT_S = 10.0


def _error(status: int, code: str, message: str,
           retry_after_s=None) -> httpd.Response:
    headers = {}
    if retry_after_s is not None:
        headers["Retry-After"] = str(max(1, round(retry_after_s)))
    return httpd.json_response(
        ErrorEnvelope(code=code, message=message,
                      retry_after_s=retry_after_s).to_wire(),
        status=status, headers=headers)


class ServeApp:
    """The experiment service (routes + scheduler + lifecycle).

    Workers read traces from ``trace_store``; ``None`` means the
    process-wide :func:`~repro.sim.trace_store.scratch_store`."""

    def __init__(self, shards: int = 2, trace_store=None, cache=None,
                 use_cache: bool = True,
                 client_quota: int = DEFAULT_CLIENT_QUOTA,
                 max_queued_units: int = DEFAULT_MAX_QUEUED_UNITS,
                 host: str = "127.0.0.1", port: int = 0,
                 registry=None):
        from repro.runner.cache import ResultCache, code_version
        from repro.sim.trace_store import scratch_store

        self.state = ServeState(client_quota=client_quota,
                                max_queued_units=max_queued_units)
        self.shards = shards
        # never `or`: an empty store is falsy
        self.trace_store = trace_store if trace_store is not None \
            else scratch_store()
        self.cache = cache if cache is not None else ResultCache()
        self.use_cache = use_cache
        self.code_version = code_version()
        self.registry = registry if registry is not None else obs.Obs()
        self.pool = ShardedPool(shards, str(self.trace_store.root),
                                on_result=self._on_pool_result)
        self.server = httpd.HttpServer(self.handle, host=host,
                                       port=port)
        self._loop = None
        self._budget = shards * DISPATCH_DEPTH
        self._active = []               # running jobs with units left
        self._cursors = {}              # job_id -> next unit index
        self._waiters = []              # futures resolved on any change
        self._stopped = None            # asyncio.Event once started

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ServeApp":
        """Start workers and the HTTP listener (port 0 picks a free
        port; ``self.server.address`` is the resolved URL)."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        await self._loop.run_in_executor(None, self.pool.start)
        await self.server.start()
        return self

    async def serve_forever(self) -> None:
        """Block until a drain (or :meth:`stop`) completes.  All
        instrumentation of the loop thread lands in ``self.registry``."""
        with obs.scoped(self.registry):
            await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new jobs, finish every live one,
        stop the pool, close the listener."""
        if self.state.draining:
            return
        self.state.draining = True
        self.registry.add("serve.drain.started")
        self._notify_change()
        while self.state.live_jobs:
            await self.wait_change(timeout=1.0)
        await self._loop.run_in_executor(None, self.pool.close)
        await self.server.close()
        self._stopped.set()

    async def stop(self) -> None:
        """Hard stop (tests): terminate workers, close the listener."""
        self.state.draining = True
        await self._loop.run_in_executor(None, self.pool.terminate)
        await self.server.close()
        self._stopped.set()

    # -- change notification -------------------------------------------

    def _notify_change(self) -> None:
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            if not fut.done():
                fut.set_result(None)

    async def wait_change(self, timeout: float = None) -> None:
        fut = self._loop.create_future()
        self._waiters.append(fut)
        try:
            await asyncio.wait_for(fut, timeout)
        except asyncio.TimeoutError:
            pass

    # -- scheduling ----------------------------------------------------

    def _pump(self) -> None:
        """Dispatch units while budget lasts.  Cache hits and
        coalesced units never consume budget, so a fully-warm job
        completes within the submitting request."""
        from repro.runner.units import unit_trace_key

        while self._budget > 0:
            job = self._next_dispatchable()
            if job is None:
                return
            index = self._cursors[job.job_id]
            self._cursors[job.job_id] += 1
            key = job.keys[index]
            if self.use_cache:
                hit = self.cache.load(key)
                if hit is not None:
                    hit.update(key=key, cached=True)
                    self.state.resolve_cached(job, index, hit)
                    self._notify_change()
                    continue
            entry, created = self.state.attach(job, index)
            if not created:
                continue
            spec = job.units[index]
            trace_key = unit_trace_key(spec, self.code_version)
            entry.trace_key = trace_key
            self.pool.submit(key, spec, trace_key)
            self._budget -= 1

    def _next_dispatchable(self):
        """The best ``(priority, submission)`` job with units left to
        dispatch, activating queued jobs whenever they beat (or no one
        is in) the active set."""
        while True:
            stale = [j for j in self._active
                     if self._cursors[j.job_id] >= len(j.units)]
            for job in stale:
                self._active.remove(job)
                del self._cursors[job.job_id]
            best = min(self._active,
                       key=lambda j: (j.spec.priority, j.seq)) \
                if self._active else None
            queued = self.state.peek_job()
            if queued is not None and (
                    best is None
                    or (queued.spec.priority, queued.seq)
                    < (best.spec.priority, best.seq)):
                self.state.next_job()       # pops `queued` itself
                queued.state = "running"
                queued.started_s = time.time()
                self._active.append(queued)
                self._cursors[queued.job_id] = 0
                self._notify_change()
                continue
            return best

    def _on_pool_result(self, key, ok: bool, payload) -> None:
        """Runs on the pool drainer thread: hop onto the loop."""
        self._loop.call_soon_threadsafe(self._finish_exec, key, ok,
                                        payload)

    def _finish_exec(self, key, ok: bool, payload) -> None:
        with obs.scoped(self.registry):
            if ok:
                snap = payload.pop("obs", None)
                if snap:
                    self.registry.merge(snap)
                payload.update(key=key, cached=False)
                obs.record_timer("serve.unit.wall",
                                 payload.get("wall_time_s", 0.0))
                if self.use_cache:
                    self.cache.store(key, payload)
            touched = self.state.resolve_exec(key, ok, payload)
            self._budget += 1
            if touched:
                self._notify_change()
            self._pump()

    # -- routing -------------------------------------------------------

    async def handle(self, request: httpd.Request) -> httpd.Response:
        with obs.scoped(self.registry):
            return self._route(request)

    def _route(self, request: httpd.Request) -> httpd.Response:
        method, path = request.method, request.path.rstrip("/")
        if path == "/v1/health":
            return self._health()
        if path == "/v1/stats":
            return self._stats()
        if path == "/v1/jobs" and method == "POST":
            return self._submit(request)
        if path == "/v1/jobs:batch" and method == "POST":
            return self._submit_batch(request)
        if path == "/v1/jobs" and method == "GET":
            return self._list_jobs(request)
        if path == "/v1/admin/drain" and method == "POST":
            self._loop.create_task(self.drain())
            return httpd.json_response(
                {"draining": True,
                 "jobs_live": self.state.live_jobs})
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self.state.jobs.get(job_id)
            if job is None:
                return _error(404, "not_found",
                              f"no such job: {job_id!r}")
            if not tail and method == "GET":
                return httpd.json_response(job.status().to_wire())
            if tail == "result" and method == "GET":
                return self._result(job, request)
            if tail == "events" and method == "GET":
                return httpd.Response(
                    status=200, stream=self._events(job),
                    headers={"Content-Type": "application/x-ndjson"})
        return _error(404, "not_found",
                      f"no route for {method} {request.path}")

    # -- routes --------------------------------------------------------

    def _health(self) -> httpd.Response:
        return httpd.json_response({
            "ok": True,
            "schema_version": SCHEMA_VERSION,
            "shards": self.shards,
            "draining": self.state.draining,
            "code_version": self.code_version,
            "trace_store": str(self.trace_store.root),
        })

    def _stats(self) -> httpd.Response:
        snapshot = self.registry.snapshot()
        return httpd.json_response({
            "schema_version": SCHEMA_VERSION,
            "state": self.state.stats(),
            "counters": snapshot.get("counters", {}),
            "timers": snapshot.get("timers", {}),
        })

    def _submit(self, request: httpd.Request) -> httpd.Response:
        try:
            doc = request.json()
        except httpd.BadRequest as exc:
            return _error(400, "bad_request", str(exc))
        try:
            spec = JobSpec.from_wire(doc)
            units = spec.units()
        except WireError as exc:
            obs.add("serve.jobs.rejected.bad_request")
            return _error(400, "bad_request", str(exc))
        from repro.runner.cache import unit_key

        keys = [unit_key(u, self.code_version) for u in units]
        try:
            job = self.state.admit(spec, units, keys)
        except RejectError as exc:
            status = 503 if exc.code == "draining" else 429
            return _error(status, exc.code, exc.message,
                          retry_after_s=exc.retry_after_s)
        self._pump()
        self._notify_change()
        return httpd.json_response(job.status().to_wire(), status=202)

    def _submit_batch(self, request: httpd.Request) -> httpd.Response:
        """``POST /v1/jobs:batch`` — admit several jobs atomically.

        The envelope is ``{"schema_version": 1, "jobs": [JobSpec wire
        docs, ...]}``; the whole batch is validated before any
        admission, and admission itself is all-or-nothing
        (:meth:`ServeState.admit_many`), so a 429/503 means no job of
        the batch exists."""
        try:
            doc = request.json()
        except httpd.BadRequest as exc:
            return _error(400, "bad_request", str(exc))
        entries = doc.get("jobs") if isinstance(doc, dict) else None
        if not isinstance(entries, list) or not entries:
            obs.add("serve.jobs.rejected.bad_request")
            return _error(400, "bad_request",
                          "body must be {\"jobs\": [JobSpec, ...]} "
                          "with at least one job")
        version = doc.get("schema_version", SCHEMA_VERSION)
        if not isinstance(version, int) or version > SCHEMA_VERSION:
            obs.add("serve.jobs.rejected.bad_request")
            return _error(400, "bad_request",
                          f"batch: schema_version {version!r} is "
                          f"newer than this server "
                          f"(<= {SCHEMA_VERSION})")
        from repro.runner.cache import unit_key

        submissions = []
        for position, entry in enumerate(entries):
            try:
                spec = JobSpec.from_wire(entry)
                units = spec.units()
            except WireError as exc:
                obs.add("serve.jobs.rejected.bad_request")
                return _error(400, "bad_request",
                              f"batch job [{position}]: {exc}")
            keys = [unit_key(u, self.code_version) for u in units]
            submissions.append((spec, units, keys))
        try:
            jobs = self.state.admit_many(submissions)
        except RejectError as exc:
            status = 503 if exc.code == "draining" else 429
            return _error(status, exc.code, exc.message,
                          retry_after_s=exc.retry_after_s)
        self._pump()
        self._notify_change()
        return httpd.json_response(
            {"schema_version": SCHEMA_VERSION,
             "jobs": [job.status().to_wire() for job in jobs]},
            status=202)

    @staticmethod
    def _page_args(request: httpd.Request):
        """Parse ``cursor`` / ``limit`` query params; raises
        ``ValueError`` with a client-ready message."""
        cursor = request.query.get("cursor")
        limit = request.query.get("limit")
        try:
            start = int(cursor) if cursor is not None else 0
            count = int(limit) if limit is not None else None
        except ValueError:
            raise ValueError("cursor and limit must be integers")
        if start < 0 or (count is not None and count < 1):
            raise ValueError("cursor must be >= 0 and limit >= 1")
        return start, count

    def _list_jobs(self, request: httpd.Request) -> httpd.Response:
        """``GET /v1/jobs[?client=][&cursor=][&limit=]`` — jobs in
        submission (``seq``) order.  Without ``limit`` the full list
        is returned (the original route, unchanged); with it, one page
        plus ``next_cursor`` (the seq to resume from; null on the last
        page).  ``seq`` cursors stay valid across pages even while new
        jobs arrive."""
        client = request.query.get("client")
        try:
            start, count = self._page_args(request)
        except ValueError as exc:
            return _error(400, "bad_request", str(exc))
        jobs = sorted((job for job in self.state.jobs.values()
                       if client is None or job.spec.client == client),
                      key=lambda job: job.seq)
        jobs = [job for job in jobs if job.seq >= start]
        page = jobs if count is None else jobs[:count]
        next_cursor = str(page[-1].seq + 1) \
            if count is not None and len(jobs) > count else None
        return httpd.json_response(
            {"schema_version": SCHEMA_VERSION,
             "jobs": [job.status().to_wire() for job in page],
             "next_cursor": next_cursor})

    def _result(self, job, request: httpd.Request) -> httpd.Response:
        if not job.terminal:
            return _error(409, "pending",
                          f"job {job.job_id} is {job.state} "
                          f"({job.units_done}/{len(job.units)} units)",
                          retry_after_s=self.state.retry_after_s())
        if job.state == "failed":
            return _error(500, "internal",
                          job.error or "job failed")
        try:
            start, count = self._page_args(request)
        except ValueError as exc:
            return _error(400, "bad_request", str(exc))
        meta = {
            "job_id": job.job_id,
            "schema_version": SCHEMA_VERSION,
            "kernels": sorted({u.kernel for u in job.units}),
            "configs": sorted({u.config.name for u in job.units}),
            "scale": job.spec.scale,
            "seed": job.spec.seed,
            "client": job.spec.client,
            "code_version": self.code_version,
            "units_cached": job.units_cached,
            "units_coalesced": job.units_coalesced,
        }
        units = job.results if count is None \
            else job.results[start:start + count]
        result = JobResult(job_id=job.job_id,
                           units=tuple(units), meta=meta)
        doc = result.to_wire()
        if count is not None:
            # Unit-index pagination rider; readers of the full-result
            # route never see it, and JobResult.from_wire ignores it.
            doc["next_cursor"] = str(start + count) \
                if start + count < len(job.results) else None
            doc["units_total"] = len(job.results)
        return httpd.json_response(doc)

    async def _events(self, job):
        """NDJSON stream of JobStatus snapshots: one line per change,
        closing after the terminal line."""
        last = None
        while True:
            doc = job.status().to_wire()
            if doc != last:
                last = doc
                yield (json.dumps(doc, sort_keys=True) + "\n").encode()
            if job.terminal:
                return
            await self.wait_change(timeout=STREAM_HEARTBEAT_S)


async def run_app(app: ServeApp, announce=None,
                  install_signals: bool = True) -> None:
    """Start ``app`` and serve until drained.  With
    ``install_signals``, SIGTERM and SIGINT trigger a graceful drain
    — in-flight jobs finish, then the process exits cleanly."""
    import signal

    await app.start()
    if announce is not None:
        announce(app)
    if install_signals:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: loop.create_task(app.drain()))
            except NotImplementedError:     # non-unix platforms
                break
    await app.serve_forever()


__all__ = ["ServeApp", "run_app", "DISPATCH_DEPTH",
           "STREAM_HEARTBEAT_S"]
