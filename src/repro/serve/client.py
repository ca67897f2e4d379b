"""Blocking client library for the ``st2-serve`` daemon.

Built on stdlib ``http.client`` only.  One :class:`ServeClient` keeps
a keep-alive connection to the server and speaks the typed wire
schemas of :mod:`repro.api`::

    with ServeClient("http://127.0.0.1:8787", client="ci") as sc:
        status = sc.submit(JobSpec(kernels=("qrng_K2",)))
        result = sc.run_to_completion(status.job_id)

Every non-2xx response raises :class:`ServeError` carrying the parsed
:class:`~repro.api.ErrorEnvelope`; :meth:`ServeClient.submit_retry`
honours ``Retry-After`` on quota/backpressure rejections.  A job larger
than a server limit is a 400 and is not retried: it could never fit.
"""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import urlsplit

from repro.api import (ErrorEnvelope, JobResult, JobSpec, JobStatus,
                       WireError)

#: Rejection codes worth retrying after the server-suggested delay.
RETRYABLE_CODES = ("quota_exhausted", "backpressure")


class ServeError(Exception):
    """A non-2xx response.  ``envelope`` is the parsed
    :class:`ErrorEnvelope` when the body carried one, else ``None``."""

    def __init__(self, status: int, envelope=None, body: str = ""):
        message = envelope.message if envelope is not None \
            else (body.strip() or f"HTTP {status}")
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.envelope = envelope

    @property
    def code(self) -> str:
        return self.envelope.code if self.envelope is not None \
            else "internal"

    @property
    def retry_after_s(self):
        return self.envelope.retry_after_s \
            if self.envelope is not None else None


class ServeClient:
    """One connection to an ``st2-serve`` daemon."""

    def __init__(self, address: str, client: str = "anon",
                 timeout: float = 300.0):
        split = urlsplit(address if "//" in address
                         else f"http://{address}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme in {address!r} "
                             f"(only http)")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.client = client
        self.timeout = timeout
        self._conn = None

    # -- context / connection ------------------------------------------

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _connection(self):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def _request(self, method: str, path: str, payload=None) -> dict:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):      # one retry on a stale keep-alive
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException,
                    OSError):
                self.close()
                if attempt:
                    raise
        try:
            doc = json.loads(raw.decode()) if raw else {}
        except ValueError:
            doc = {}
        if response.status >= 400:
            envelope = None
            if isinstance(doc, dict) and "error" in doc:
                try:
                    envelope = ErrorEnvelope.from_wire(doc)
                except WireError:
                    pass
            raise ServeError(response.status, envelope,
                             raw.decode(errors="replace"))
        return doc

    # -- endpoints -----------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    @staticmethod
    def _query(path: str, **params) -> str:
        from urllib.parse import urlencode

        pairs = {k: v for k, v in params.items() if v is not None}
        return f"{path}?{urlencode(pairs)}" if pairs else path

    def jobs(self, client: str = None) -> list:
        return [JobStatus.from_wire(doc)
                for doc in self._request(
                    "GET", self._query("/v1/jobs",
                                       client=client))["jobs"]]

    def jobs_page(self, client: str = None, cursor: str = None,
                  limit: int = 100) -> tuple:
        """One page of the job listing in submission order:
        ``(statuses, next_cursor)`` — ``next_cursor`` is ``None`` on
        the last page, else the value to pass back in."""
        doc = self._request(
            "GET", self._query("/v1/jobs", client=client,
                               cursor=cursor, limit=limit))
        return ([JobStatus.from_wire(entry)
                 for entry in doc["jobs"]], doc.get("next_cursor"))

    def iter_jobs(self, client: str = None, page_size: int = 100):
        """Every job status, newest-submission last, fetched one page
        at a time (jobs submitted mid-iteration are included — ``seq``
        cursors stay valid while the listing grows)."""
        cursor = None
        while True:
            statuses, cursor = self.jobs_page(client=client,
                                              cursor=cursor,
                                              limit=page_size)
            for status in statuses:
                yield status
            if cursor is None:
                return

    def submit(self, spec: JobSpec) -> JobStatus:
        """Submit one job (the spec's ``client`` field is overridden
        with this client's identity)."""
        doc = spec.to_wire()
        doc["client"] = self.client
        return JobStatus.from_wire(
            self._request("POST", "/v1/jobs", payload=doc))

    def submit_retry(self, spec: JobSpec,
                     deadline_s: float = 600.0) -> JobStatus:
        """Submit, sleeping out ``Retry-After`` on quota/backpressure
        rejections until ``deadline_s`` elapses."""
        t0 = time.monotonic()
        while True:
            try:
                return self.submit(spec)
            except ServeError as exc:
                if exc.code not in RETRYABLE_CODES:
                    raise
                delay = exc.retry_after_s or 1.0
                if time.monotonic() - t0 + delay > deadline_s:
                    raise
                time.sleep(delay)

    def status(self, job_id: str) -> JobStatus:
        return JobStatus.from_wire(
            self._request("GET", f"/v1/jobs/{job_id}"))

    def result(self, job_id: str) -> JobResult:
        return JobResult.from_wire(
            self._request("GET", f"/v1/jobs/{job_id}/result"))

    def drain(self) -> dict:
        return self._request("POST", "/v1/admin/drain")

    # -- streaming / waiting -------------------------------------------

    def events(self, job_id: str):
        """Yield :class:`JobStatus` snapshots from the server's NDJSON
        event stream until the job reaches a terminal state.  Uses a
        dedicated connection (the stream occupies it fully)."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                envelope = None
                try:
                    doc = json.loads(raw.decode())
                    if "error" in doc:
                        envelope = ErrorEnvelope.from_wire(doc)
                except (ValueError, WireError):
                    pass
                raise ServeError(response.status, envelope,
                                 raw.decode(errors="replace"))
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                yield JobStatus.from_wire(json.loads(line.decode()))
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = None) -> JobStatus:
        """Block until the job is terminal (streaming when possible,
        falling back to polling) and return its final status."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        status = None
        try:
            for status in self.events(job_id):
                if status.terminal:
                    return status
                if deadline is not None \
                        and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"job {job_id} not terminal in {timeout}s")
        except (ConnectionError, http.client.HTTPException, OSError):
            pass                        # stream dropped: poll instead
        while True:
            status = self.status(job_id)
            if status.terminal:
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} not terminal in {timeout}s")
            time.sleep(0.2)

    def run_to_completion(self, job_id: str,
                          timeout: float = None) -> JobResult:
        """Wait for the job and fetch its result in one call."""
        status = self.wait(job_id, timeout=timeout)
        if status.state == "failed":
            raise ServeError(
                500, ErrorEnvelope(
                    code="internal",
                    message=status.error or
                    f"job {job_id} failed"))
        return self.result(job_id)


__all__ = ["RETRYABLE_CODES", "ServeClient", "ServeError"]
