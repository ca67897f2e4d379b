"""The sharded multiprocessing worker pool behind ``st2-serve``.

Work is routed by **trace-key hash**: every evaluation unit of one
distinct (kernel, scale, seed) functional execution lands on the same
worker process, whose task queue is FIFO.  Two properties fall out:

* **capture-exactly-once** — the first unit of a trace captures it
  into the pool's trace store; every later unit of the same trace
  finds it warm.  No two workers ever execute the same kernel
  functionally, cluster-wide, without any cross-process locking.
* **locality** (the WaSP scheduling argument) — a worker keeps serving
  traces it has already mapped, so its trace-store handles, evaluation
  plans and page-cache working set stay hot.

The pool is deliberately independent of asyncio: ``submit`` is
synchronous and thread-safe, results come back on a drainer thread via
the ``on_result`` callback.  :mod:`repro.serve.app` bridges that
callback into its event loop with ``call_soon_threadsafe``.

Workers reuse the exact entry points of the offline runner pool
(:func:`repro.runner.pool._init_worker` /
:func:`repro.runner.pool._run_one`), which is what makes served
results bit-identical to ``st2-run``'s.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback

from repro import obs


def shard_of(trace_key: str, shards: int) -> int:
    """Deterministic shard of one trace key (hex content hash)."""
    return int(trace_key[:12], 16) % shards if shards > 1 else 0


def _worker_main(shard: int, task_q, result_q, store_root) -> None:
    """One worker process: build models once, then serve eval tasks
    until the ``None`` sentinel.  Every task answer is
    ``(task_id, "ok", result_dict)`` or ``(task_id, "error", trace)``;
    the result dict carries the unit's obs snapshot under the
    transient ``"obs"`` key exactly like the offline pool's workers.
    """
    from repro.runner.pool import _init_worker, _run_one

    _init_worker(store_root, need_models=True)
    result_q.put((None, "ready", shard))
    while True:
        item = task_q.get()
        if item is None:
            break
        task_id, spec = item
        try:
            _, result = _run_one((0, spec))
            result_q.put((task_id, "ok", result.to_dict()))
        except Exception:
            result_q.put((task_id, "error", traceback.format_exc()))


class ShardedPool:
    """``shards`` worker processes, one FIFO task queue each, one
    shared result queue drained by a callback thread.

    Every worker opens the trace store at ``store_root``.
    ``on_result(task_id, ok, payload)`` runs on the drainer thread —
    the caller is responsible for hopping back onto its own loop.
    """

    def __init__(self, shards: int, store_root, on_result=None):
        if shards < 1:
            raise ValueError("pool needs at least one shard")
        self.shards = shards
        self.store_root = store_root
        self.on_result = on_result
        ctx_name = "fork" if "fork" in \
            multiprocessing.get_all_start_methods() else "spawn"
        self._ctx = multiprocessing.get_context(ctx_name)
        self._task_qs = [self._ctx.Queue() for _ in range(shards)]
        self._result_q = self._ctx.Queue()
        self._procs = []
        self._drainer = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def start(self, wait_ready: bool = True) -> "ShardedPool":
        """Fork the workers and start the result drainer.  With
        ``wait_ready`` the call blocks until every worker has built
        its models — submissions then never queue behind start-up."""
        self._procs = [
            self._ctx.Process(
                target=_worker_main,
                args=(i, self._task_qs[i], self._result_q,
                      self.store_root),
                daemon=True)
            for i in range(self.shards)]
        for proc in self._procs:
            proc.start()
        ready = 0
        pending = []
        while wait_ready and ready < self.shards:
            task_id, status, payload = self._result_q.get()
            if task_id is None and status == "ready":
                ready += 1
            else:                   # a result raced the ready marks
                pending.append((task_id, status, payload))
        self._drainer = threading.Thread(
            target=self._drain, args=(pending, not wait_ready),
            name="serve-pool-drain", daemon=True)
        self._drainer.start()
        return self

    def close(self, join: bool = True) -> None:
        """Send every worker its sentinel; with ``join``, wait for
        queued tasks to finish and the drainer to observe the
        shutdown marker (so no result is dropped)."""
        if self._closed:
            return
        self._closed = True
        for q in self._task_qs:
            q.put(None)
        if join:
            for proc in self._procs:
                proc.join()
            self._result_q.put((None, "closed", None))
            if self._drainer is not None:
                self._drainer.join()
        else:
            self._result_q.put((None, "closed", None))

    def terminate(self) -> None:
        """Hard stop (drain timeouts, tests): kill workers outright."""
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        self._result_q.put((None, "closed", None))
        if self._drainer is not None:
            self._drainer.join(timeout=5)

    # -- work ----------------------------------------------------------

    def submit(self, task_id, spec, trace_key: str) -> int:
        """Queue one evaluation unit on its trace's shard; returns the
        shard index chosen."""
        if self._closed:
            raise RuntimeError("pool is closed")
        shard = shard_of(trace_key, self.shards)
        obs.add(f"serve.pool.shard.{shard}.tasks")
        self._task_qs[shard].put((task_id, spec))
        return shard

    def _drain(self, pending, expect_ready: bool) -> None:
        for item in pending:
            self._dispatch(item)
        while True:
            task_id, status, payload = self._result_q.get()
            if task_id is None:
                if status == "closed":
                    return
                if status == "ready" and expect_ready:
                    continue
                continue
            self._dispatch((task_id, status, payload))

    def _dispatch(self, item) -> None:
        task_id, status, payload = item
        if self.on_result is not None:
            self.on_result(task_id, status == "ok", payload)
