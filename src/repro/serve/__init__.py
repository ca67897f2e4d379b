"""``repro.serve`` — the async experiment service.

A zero-new-dependency HTTP/JSON daemon (``st2-serve``) fronting the
runner's :class:`~repro.runner.pool.WorkerPool` (trace keys pinned to
workers, dead workers respawned), plus the matching client library
and CLI (``st2-client``).  Jobs are submitted as typed
:class:`repro.api.JobSpec` documents, expand server-side into the same
work units ``st2-run`` executes offline, and come back as
:class:`repro.api.JobResult` documents whose unit payloads are
bit-identical to the offline runner's (``results_equal``).

Layering (each module is independently testable):

* :mod:`repro.serve.httpd` — asyncio HTTP/1.1 (parsing, keep-alive,
  chunked streaming);
* :mod:`repro.serve.state` — jobs, priority queue, per-client quotas,
  request coalescing;
* :mod:`repro.serve.app` — routes + dispatcher + graceful drain;
* :mod:`repro.serve.client` — blocking client library over
  ``http.client``;
* :mod:`repro.serve.cli` / :mod:`repro.serve.client_cli` — the
  ``st2-serve`` and ``st2-client`` entry points.

See ``docs/serving.md`` for the API reference and deployment notes.
"""

from __future__ import annotations

from repro.serve.app import DISPATCH_DEPTH, ServeApp, run_app
from repro.serve.state import RejectError, ServeState

__all__ = [
    "DISPATCH_DEPTH", "RejectError", "ServeApp", "ServeState",
    "run_app",
]
