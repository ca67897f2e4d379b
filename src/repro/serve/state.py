"""Server-side job bookkeeping: priority queue, per-client quotas,
request coalescing and unit fan-out.

Everything here is plain synchronous state, mutated only from the
server's event-loop thread (:mod:`repro.serve.app` hops pool results
onto the loop before touching it), so there are no locks.  The module
is independently testable without a running server.

**Coalescing** happens at unit granularity: a unit's identity is its
result-cache key (:func:`repro.runner.cache.unit_key` — kernel, scale,
seed, full config, code version).  While a unit is in flight, any
other job submitting the same key attaches to the same execution and
the result fans out to every waiter.  The same dict is shared — unit
payloads are immutable once finished, and identical keys mean
bit-identical payloads by construction.

**Quotas and backpressure** are accounted in *unresolved units* (the
true cost unit — a job is just a bag of units): one client may hold at
most ``client_quota`` unresolved units, and the server at most
``max_queued_units`` across all clients.  Both rejections carry a
``Retry-After`` estimate derived from the backlog; a job larger than
either limit could never be admitted, so it is a bad request instead.
"""

from __future__ import annotations

import heapq
import itertools
import time
import uuid

from repro import obs
from repro.api import JobStatus

#: Default limits (overridable per server via the CLI).
DEFAULT_CLIENT_QUOTA = 512
DEFAULT_MAX_QUEUED_UNITS = 4096


class RejectError(Exception):
    """A submission the server refuses (oversized job, quota,
    backpressure or drain).  Carries everything the 400/429/503
    envelope needs."""

    def __init__(self, code: str, message: str,
                 retry_after_s: float = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s


class Job:
    """One submitted grid moving through the queue."""

    __slots__ = ("job_id", "spec", "units", "keys", "state", "results",
                 "units_done", "units_failed", "units_cached",
                 "units_coalesced", "error", "submitted_s",
                 "started_s", "finished_s", "seq", "dispatched")

    def __init__(self, spec, units, keys, seq: int):
        self.job_id = uuid.uuid4().hex[:12]
        self.spec = spec
        self.units = units              # [UnitSpec, ...]
        self.keys = keys                # aligned result-cache keys
        self.seq = seq                  # submission order tiebreak
        self.dispatched = 0             # units sent to dispatch so far
        self.state = "queued"
        self.results = [None] * len(units)
        self.units_done = 0
        self.units_failed = 0
        self.units_cached = 0
        self.units_coalesced = 0
        self.error = None
        self.submitted_s = time.time()
        self.started_s = None
        self.finished_s = None

    @property
    def unresolved(self) -> int:
        return len(self.units) - self.units_done - self.units_failed

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def status(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id, state=self.state,
            units_total=len(self.units), units_done=self.units_done,
            units_failed=self.units_failed,
            units_cached=self.units_cached,
            units_coalesced=self.units_coalesced,
            priority=self.spec.priority, client=self.spec.client,
            submitted_s=self.submitted_s, started_s=self.started_s,
            finished_s=self.finished_s, error=self.error)


class UnitExec:
    """One distinct in-flight unit execution and its waiters."""

    __slots__ = ("key", "spec", "trace_key", "waiters")

    def __init__(self, key, spec, trace_key):
        self.key = key
        self.spec = spec
        self.trace_key = trace_key
        self.waiters = []               # [(job, unit index), ...]


class ServeState:
    """The whole mutable server state: jobs, queue, quotas, in-flight
    executions."""

    def __init__(self, client_quota: int = DEFAULT_CLIENT_QUOTA,
                 max_queued_units: int = DEFAULT_MAX_QUEUED_UNITS):
        self.client_quota = client_quota
        self.max_queued_units = max_queued_units
        self.jobs = {}                  # job_id -> Job
        self.inflight = {}              # unit key -> UnitExec
        self._heap = []                 # (priority, seq, job) to dispatch
        self._seq = itertools.count()
        self._client_units = {}         # client -> unresolved units
        self._unresolved = 0            # across all live jobs
        self.draining = False

    # -- admission -----------------------------------------------------

    def retry_after_s(self) -> float:
        """A coarse backlog-proportional Retry-After estimate: the
        mean observed unit wall time (or 50 ms before any finish)
        times the backlog per shard-second, clamped to [1, 60]."""
        stat = obs.get_obs().snapshot().get("timers", {}) \
            .get("serve.unit.wall")
        mean_s = stat["mean_s"] if stat and stat.get("count") else 0.05
        return min(60.0, max(1.0, self._unresolved * mean_s))

    def admit(self, spec, units, keys) -> Job:
        """Queue one job, or raise :class:`RejectError` (draining, a
        job larger than either limit, client quota, global
        backpressure)."""
        if self.draining:
            raise RejectError(
                "draining", "server is draining; submit elsewhere")
        for limit, bound in (("client quota", self.client_quota),
                             ("server bound", self.max_queued_units)):
            if len(units) > bound:
                obs.add("serve.jobs.rejected.bad_request")
                raise RejectError(
                    "bad_request",
                    f"the job's {len(units)} units exceed the {limit} "
                    f"of {bound}; split it into smaller jobs")
        client = spec.client
        held = self._client_units.get(client, 0)
        if held + len(units) > self.client_quota:
            obs.add("serve.jobs.rejected.quota")
            raise RejectError(
                "quota_exhausted",
                f"client {client!r} holds {held} unresolved units; "
                f"{len(units)} more would exceed the quota of "
                f"{self.client_quota}",
                retry_after_s=self.retry_after_s())
        if self._unresolved + len(units) > self.max_queued_units:
            obs.add("serve.jobs.rejected.backpressure")
            raise RejectError(
                "backpressure",
                f"{self._unresolved} units already unresolved; "
                f"{len(units)} more would exceed the server bound of "
                f"{self.max_queued_units}",
                retry_after_s=self.retry_after_s())
        job = Job(spec, units, keys, next(self._seq))
        self.jobs[job.job_id] = job
        self._client_units[client] = held + len(units)
        self._unresolved += len(units)
        heapq.heappush(self._heap, (spec.priority, job.seq, job))
        obs.add("serve.jobs.submitted")
        obs.add("serve.units.submitted", len(units))
        return job

    def next_unit(self):
        """``(job, index)`` of the next unit to dispatch — from the
        best ``(priority, submission)`` job that still has units to
        send — or ``None``.  A job turns ``running`` when its first
        unit goes out and leaves the queue with its last."""
        if not self._heap:
            return None
        job = self._heap[0][2]
        index = job.dispatched
        job.dispatched += 1
        if index == 0:
            job.state = "running"
            job.started_s = time.time()
        if job.dispatched == len(job.units):
            heapq.heappop(self._heap)
        return job, index

    @property
    def queued_jobs(self) -> int:
        return sum(1 for j in self.jobs.values()
                   if j.state == "queued")

    @property
    def live_jobs(self) -> int:
        return sum(1 for j in self.jobs.values() if not j.terminal)

    # -- coalescing ----------------------------------------------------

    def attach(self, job, index: int):
        """Register (job, index) against its unit's in-flight
        execution.  Returns ``(exec, created)``: ``created`` is True
        when this call opened the execution (the caller must then
        actually dispatch it); False means the unit coalesced onto an
        execution another waiter already opened."""
        key = job.keys[index]
        entry = self.inflight.get(key)
        if entry is None:
            entry = UnitExec(key, job.units[index], None)
            self.inflight[key] = entry
            entry.waiters.append((job, index))
            obs.add("serve.coalesce.miss")
            return entry, True
        entry.waiters.append((job, index))
        job.units_coalesced += 1
        obs.add("serve.coalesce.hit")
        return entry, False

    # -- completion ----------------------------------------------------

    def _account_resolved(self, job, failed: bool) -> None:
        if failed:
            job.units_failed += 1
        else:
            job.units_done += 1
        client = job.spec.client
        self._client_units[client] = \
            max(0, self._client_units.get(client, 0) - 1)
        if not self._client_units[client]:
            del self._client_units[client]
        self._unresolved = max(0, self._unresolved - 1)
        if job.unresolved == 0:
            job.state = "failed" if job.units_failed else "done"
            job.finished_s = time.time()
            obs.add("serve.jobs.failed" if job.units_failed
                    else "serve.jobs.completed")

    def resolve_cached(self, job, index: int, payload: dict) -> None:
        """Serve one unit straight from the result cache."""
        job.results[index] = payload
        job.units_cached += 1
        obs.add("serve.units.cache_hits")
        self._account_resolved(job, failed=False)

    def resolve_exec(self, key: str, ok: bool, payload):
        """Fan one finished execution out to every waiter; returns the
        affected jobs (for change notification)."""
        entry = self.inflight.pop(key, None)
        if entry is None:
            return []
        touched = []
        for job, index in entry.waiters:
            if ok:
                job.results[index] = payload
            else:
                job.error = (f"unit {job.units[index].label} failed:\n"
                             f"{payload}")
            self._account_resolved(job, failed=not ok)
            touched.append(job)
        if ok:
            obs.add("serve.units.executed")
        else:
            obs.add("serve.units.errors")
        return touched

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        return {
            "jobs": len(self.jobs),
            "jobs_live": self.live_jobs,
            "jobs_queued": self.queued_jobs,
            "units_unresolved": self._unresolved,
            "units_inflight": len(self.inflight),
            "clients": dict(sorted(self._client_units.items())),
            "draining": self.draining,
            "client_quota": self.client_quota,
            "max_queued_units": self.max_queued_units,
        }
