"""Parallel, cache-aware execution of runner work units.

Every unit's cache key is resolved up front and hits are served from
disk in the parent.  The misses run in two stages, along the paper's
own decoupling, through a trace store (``options.trace_store``, or the
process-wide :func:`~repro.sim.trace_store.scratch_store` when none is
named).  **Stage 1** fans out over the *distinct* (kernel, scale, seed)
keys behind the pending units and captures them into the store,
skipping entries that are already warm — so an 18-kernel × 6-config
grid executes each kernel functionally once, not once per config per
worker.  **Stage 2** opens each stored trace read-only via ``mmap``,
sharing the OS page cache.

The evaluation fan-out schedules **one task per trace**: every pending
unit of one (kernel, scale, seed) runs in the same process, so the
trace's evaluation plan, static-peek overlay and auxiliary
measurements are built once per run, not once per config.

With ``workers > 1`` both stages run on a :class:`WorkerPool`.  Stage 1
uses a pool that exits with the stage, so no capture memory lingers in
an evaluation worker.  Stage 2 uses a pool that lives for the call, or
the caller's: ``run_sweep`` holds one across all its waves and
``st2-serve`` one for the daemon, so a trace pinned to a worker keeps
its plan there from wave to wave.  ``workers <= 1`` runs both stages
inline through the same worker entry points, which is what the
parallel-equals-serial guarantee rests on.

Results always come back in work-list order; the parent alone writes
result-cache entries.  Trace-store entries are published by workers
with an atomic directory rename, so concurrent captures cannot corrupt
an entry (first writer wins; both wrote identical bytes).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import traceback
from collections import deque
from contextlib import nullcontext

from repro import obs
from repro.runner.cache import code_version, unit_key
from repro.runner.options import RunOptions
from repro.runner.units import (ModelBundle, UnitSpec, capture_trace,
                                execute_unit, unit_trace_key)

_WORKER_MODELS = ModelBundle()
_WORKER_STORE = None


def default_workers() -> int:
    """A safe parallelism default: the pool pays off quickly but the
    23-kernel suite cannot keep dozens of cores busy."""
    return max(1, min(4, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------

class WorkerLost(RuntimeError):
    """A task lost its worker process twice: the worker exited (killed,
    out of memory, crashed) while running it, was respawned, and the
    respawned worker exited too.  ``unit`` names the task's work and
    ``exitcode`` is the last worker's exit code (negative: the signal
    that killed it)."""

    def __init__(self, unit: str, exitcode):
        super().__init__(f"worker lost running {unit} "
                         f"(exit code {exitcode}, after one retry)")
        self.unit = unit
        self.exitcode = exitcode


class _RemoteTraceback(Exception):
    """The cause attached to an exception re-raised from a worker."""

    def __str__(self) -> str:
        return f"\n\n(in the worker process)\n{self.args[0]}"


class _Task:
    __slots__ = ("task_id", "fn", "arg", "key", "label", "losses")

    def __init__(self, task_id, fn, arg, key, label):
        self.task_id = task_id
        self.fn = fn
        self.arg = arg
        self.key = key
        self.label = label
        self.losses = 0


class _Slot:
    """One worker position: its process and channel (``None`` until
    spawned, and again once the worker has exited), the task it runs,
    and the tasks pinned to it that wait their turn."""

    def __init__(self):
        self.proc = None
        self.conn = None
        self.task = None
        self.queue = deque()


def _worker_main(conn) -> None:
    """A worker process: answer each ``(fn, arg)`` received with
    ``(True, fn(arg))`` or ``(False, (exception, traceback text))``,
    until the ``None`` sentinel or the parent's end closing."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent owns ^C
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        fn, arg = task
        try:
            reply = (True, fn(arg))
        except Exception as exc:
            reply = (False, (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except OSError:                 # the parent is gone
            return
        except Exception:               # an answer that does not pickle
            text = traceback.format_exc()
            conn.send((False, (RuntimeError(text), text)))


class WorkerPool:
    """``workers`` worker processes, each with its own task channel.

    A task may carry a *key* (the trace key of its work).  The first
    task of a key pins the key to the worker that runs it, and every
    later task of that key waits for that worker: a trace's plan and
    page-cache working set stay in one process (the WaSP locality
    argument), and a trace that serve units capture on first use is
    captured once.  Tasks of unpinned keys go to idle workers only, in
    submission order.  A worker runs one task at a time; the parent
    holds the rest.

    Workers fork (spawn where fork is missing) when first given a
    task, so they inherit whatever the parent prepared before.  A
    worker that exits while running a task is respawned in the same
    slot, so its pins survive, and the task is sent again; a task that
    loses its worker twice fails with :class:`WorkerLost`.

    :meth:`run` drives the pool from the calling thread.  :meth:`serve`
    starts a thread that reports each finished task to a callback, for
    callers that submit from an event loop.  As a context manager the
    pool is closed when the block ends, or terminated when it raises.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._slots = [_Slot() for _ in range(workers)]
        self._pins = {}                 # key -> _Slot
        self._backlog = deque()         # tasks whose key is unpinned
        self._lock = threading.Lock()
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._ids = itertools.count()
        self._drainer = None
        self._closed = False

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    # -- work ----------------------------------------------------------

    def submit(self, task_id, fn, arg, key=None, label: str = "") -> None:
        """Queue ``fn(arg)``; ``key`` routes it (see the class doc) and
        ``label`` names it in a :class:`WorkerLost`."""
        task = _Task(task_id, fn, arg, key, label)
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            owner = self._pins.get(key) if key is not None else None
            (owner.queue if owner is not None else self._backlog) \
                .append(task)
            self._dispatch()

    def run(self, fn, tasks):
        """Run ``fn(arg)`` for each ``(key, label, arg)`` of ``tasks``
        and yield the results as they finish.  A task's exception, or
        its :class:`WorkerLost`, is raised here."""
        pending = set()
        for key, label, arg in tasks:
            task_id = next(self._ids)
            pending.add(task_id)
            self.submit(task_id, fn, arg, key=key, label=label)
        while pending:
            for task_id, ok, value in self._poll():
                pending.discard(task_id)
                if not ok:
                    exc, remote = value
                    raise exc from (_RemoteTraceback(remote)
                                    if remote else None)
                yield value

    def serve(self, on_result) -> None:
        """Spawn every worker and start a thread that calls
        ``on_result(task_id, ok, payload)`` for each finished task,
        until the pool is closed; ``payload`` is the result, or the
        error text of a failed task."""
        with self._lock:
            for slot in self._slots:
                self._spawn(slot)
        self._drainer = threading.Thread(
            target=self._drain, args=(on_result,),
            name="worker-pool-drain", daemon=True)
        self._drainer.start()

    def _drain(self, on_result) -> None:
        while True:
            for task_id, ok, value in self._poll():
                if not ok:
                    exc, remote = value
                    value = remote or str(exc)
                on_result(task_id, ok, value)
            with self._lock:
                if self._closed and \
                        all(slot.proc is None for slot in self._slots):
                    return

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Let every worker finish its task, then stop and join it.
        Tasks not yet sent to a worker are dropped."""
        self._stop(kill=False)

    def terminate(self) -> None:
        """Kill every worker now (error paths and hard stops)."""
        self._stop(kill=True)

    def _stop(self, kill: bool) -> None:
        with self._lock:
            self._closed = True
            procs = [slot.proc for slot in self._slots
                     if slot.proc is not None]
            for slot in self._slots:
                if slot.proc is None:
                    continue
                if kill:
                    slot.proc.kill()
                    continue
                try:
                    slot.conn.send(None)
                except OSError:
                    pass
            self._wake()
        if self._drainer is not None:
            self._drainer.join()        # it reaps every worker
        else:
            for proc in procs:
                proc.join()

    # -- internals (callers hold the lock unless noted) ----------------

    def _wake(self) -> None:
        """Interrupt a :meth:`_poll` waiting on a stale set of workers."""
        self._wake_w.send_bytes(b"")

    def _spawn(self, slot) -> None:
        parent_end, child_end = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main, args=(child_end,),
                                 name="repro-pool-worker", daemon=True)
        proc.start()
        child_end.close()
        slot.proc, slot.conn = proc, parent_end
        self._wake()

    def _dispatch(self) -> None:
        """Give every idle worker its next task."""
        if self._closed:
            return
        for slot in self._slots:
            if slot.task is None:
                task = self._next_task(slot)
                if task is not None:
                    self._send(slot, task)

    def _next_task(self, slot):
        """``slot``'s oldest pinned task, else the oldest backlog task,
        pinning its key to ``slot``.  A backlog task whose key was
        pinned meanwhile moves to its owner, which is busy: an idle
        owner visited earlier in this pass drained the backlog."""
        if slot.queue:
            return slot.queue.popleft()
        while self._backlog:
            task = self._backlog.popleft()
            owner = slot if task.key is None \
                else self._pins.setdefault(task.key, slot)
            if owner is slot:
                return task
            owner.queue.append(task)
        return None

    def _send(self, slot, task) -> None:
        if slot.proc is None:
            self._spawn(slot)
        slot.task = task
        try:
            slot.conn.send((task.fn, task.arg))
        except OSError:
            pass                        # the worker died: _poll sees it

    def _poll(self) -> list:
        """Wait (without the lock) until a worker answers or exits;
        returns the finished tasks as ``(task_id, ok, value)``."""
        from multiprocessing.connection import wait

        with self._lock:
            watch = {}
            for slot in self._slots:
                if slot.proc is not None:
                    watch[slot.conn] = slot
                    watch[slot.proc.sentinel] = slot
        ready = wait([*watch, self._wake_r])
        done = []
        with self._lock:
            while self._wake_r.poll():
                self._wake_r.recv_bytes()
            for slot in dict.fromkeys(watch[obj] for obj in ready
                                      if obj in watch):
                self._service(slot, slot.proc.sentinel in ready, done)
            self._dispatch()
        return done

    def _service(self, slot, exited: bool, done: list) -> None:
        """Take ``slot``'s answer, if one is waiting, then handle its
        worker's exit: respawn-and-resend once, :class:`WorkerLost`
        the second time."""
        proc, conn = slot.proc, slot.conn
        try:
            if conn.poll():
                ok, value = conn.recv()
                done.append((slot.task.task_id, ok, value))
                slot.task = None
        except (EOFError, OSError):     # it exited, maybe mid-answer
            exited = True
        if not exited:
            return
        proc.join()
        conn.close()
        task, slot.task = slot.task, None
        slot.proc = slot.conn = None
        if task is None or self._closed:
            return
        task.losses += 1
        if task.losses < 2:
            slot.queue.appendleft(task)     # _dispatch respawns the slot
            return
        done.append((task.task_id, False,
                     (WorkerLost(task.label, proc.exitcode), None)))


def _stage_pool(workers: int, n_tasks: int):
    """A pool that lives for one stage, or ``nullcontext()`` (inline)
    when ``workers <= 1`` or there is nothing to run."""
    if workers > 1 and n_tasks:
        return WorkerPool(min(workers, n_tasks))
    return nullcontext()


def _fan_out(pool, fn, tasks):
    """``fn`` over ``tasks`` (``(key, label, arg)`` triples) on
    ``pool``, or inline when it is ``None``; yields results unordered.
    Inline and pooled runs go through the same entry points, so their
    results and metrics are the same."""
    if pool is None:
        return (fn(arg) for _, _, arg in tasks)
    return pool.run(fn, tasks)


# ----------------------------------------------------------------------
# worker entry points
# ----------------------------------------------------------------------

def _store(root: str):
    """This process's handle on the trace store at ``root``, kept
    across tasks."""
    global _WORKER_STORE
    if _WORKER_STORE is None or str(_WORKER_STORE.root) != root:
        from repro.sim.trace_store import TraceStore
        _WORKER_STORE = TraceStore(root)
    return _WORKER_STORE


def _run_trace(task) -> list:
    """Stage-2 task ``(store root, [(index, spec), ...])``: every
    pending unit of one trace, in work-list order, so the units share
    the process's plan of that trace.  Each unit runs under a fresh obs
    scope whose snapshot travels home with the result (as the transient
    ``"obs"`` key, popped and merged by the parent).  Returns
    ``[(index, result), ...]``."""
    root, items = task
    store = _store(root)
    done = []
    for index, spec in items:
        with obs.scoped() as reg:
            with reg.span("runner.unit"):
                result = execute_unit(spec, models=_WORKER_MODELS,
                                      store=store)
        result.data["obs"] = reg.snapshot()
        done.append((index, result))
    return done


def _capture_one(task) -> tuple:
    """Stage-1 task ``(store root, item)``:
    :func:`~repro.runner.units.capture_trace` one distinct (kernel,
    scale, seed) under a fresh obs scope whose ``runner.trace.capture``
    span times it.  Returns ``(key, captured, obs_snapshot)``."""
    root, item = task
    with obs.scoped() as reg:
        with reg.span("runner.trace.capture"):
            created = capture_trace(_store(root), *item)
    return item[0], created, reg.snapshot()


def capture_items(specs, version: str) -> dict:
    """Stage-1 items of the distinct traces behind ``specs``:
    ``{trace key: (key, kernel, scale, seed, version)}`` in first-seen
    order."""
    items = {}
    for spec in specs:
        key = unit_trace_key(spec, version)
        items.setdefault(
            key, (key, spec.kernel, spec.scale, spec.seed, version))
    return items


def capture_traces(store, items, workers: int):
    """Stage 1 over ``items`` (values of :func:`capture_items`) on a
    pool that exits with the stage, or inline for ``workers <= 1``.
    Yields ``(key, captured, obs_snapshot)`` as each finishes;
    a capture whose worker dies twice raises :class:`WorkerLost`
    naming the kernel."""
    root = str(store.root)
    tasks = [(None, item[1], (root, item)) for item in items]
    with _stage_pool(workers, len(tasks)) as pool:
        yield from _fan_out(pool, _capture_one, tasks)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

def run_units(specs, options: RunOptions = None, pool=None) -> list:
    """Execute ``specs`` and return their results, in order.

    Each element is a typed :class:`~repro.st2.results.RunResult` —
    the :func:`~repro.runner.units.execute_unit` payload plus two
    runtime fields: ``key`` (the cache key) and ``cached`` (whether
    this invocation served it from disk).

    ``options`` is a :class:`~repro.runner.options.RunOptions`
    (``None`` means defaults).  After the call ``options.obs`` holds
    the invocation's observability registry, the only record of its
    times and counts: every counter and timer accumulated across the
    run, including merged per-worker snapshots.  The
    ``runner.stage.{capture,init,eval}`` spans time the stages, and
    the ``runner.units.{cached,executed}`` and
    ``runner.traces.{total,captured,warm}`` counters count the result
    cache and the trace store (see
    :func:`~repro.runner.manifest.run_accounting`).

    Traces come from ``options.trace_store``, or from the process-wide
    :func:`~repro.sim.trace_store.scratch_store` when it is ``None``.

    Evaluation runs on ``pool`` when given (a :class:`WorkerPool` the
    caller keeps across calls), else on a pool of ``options.workers``
    that lives for this call, else inline for ``workers <= 1``.  A unit
    whose worker dies twice raises :class:`WorkerLost`.
    """
    from repro.sim.trace_store import scratch_store
    from repro.st2.results import RunResult

    options = options if options is not None else RunOptions()
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, UnitSpec):
            raise TypeError(f"expected UnitSpec, got {type(spec)!r}")
    with obs.scoped(options.obs) as reg:
        options.obs = reg
        cache = options.resolved_cache()
        use_cache = options.use_cache
        version = code_version()
        keys = [unit_key(spec, version) for spec in specs]
        results = [None] * len(specs)
        obs.add("runner.units", len(specs))

        pending = []
        for i, (spec, key) in enumerate(zip(specs, keys)):
            hit = cache.load(key) if use_cache else None
            if hit is not None:
                hit.update(key=key, cached=True)
                hit = RunResult(hit)
                results[i] = hit
                obs.add("runner.units.cached")
                options.notify(spec, hit)
            else:
                pending.append((i, spec))

        if not pending:
            return results
        store = options.trace_store
        if store is None:           # never `or`: an empty store is falsy
            store = scratch_store()

        trace_keys = {}             # unit index -> trace key
        with reg.span("runner.stage.capture"):
            warm = _populate_store(store, pending, options.workers,
                                   version, trace_keys)

        def finish(i, result):
            snap = result.data.pop("obs", None)
            if snap:
                reg.merge(snap)
            result.data.update(key=keys[i], cached=False)
            # provenance relative to *this invocation*: True only if
            # the trace was warm before stage 1 ran
            result.data["trace_cache_hit"] = trace_keys[i] in warm
            if use_cache:
                cache.store(keys[i], result.to_dict())
            obs.add("runner.units.executed")
            results[i] = result
            options.notify(specs[i], result)

        with reg.span("runner.stage.init"):
            _prepare_eval(pending)
        tasks = _eval_tasks(pending, trace_keys, str(store.root))
        with reg.span("runner.stage.eval"):
            with (nullcontext(pool) if pool is not None
                  else _stage_pool(options.workers, len(tasks))) as live:
                for done in _fan_out(live, _run_trace, tasks):
                    for i, result in done:
                        finish(i, result)
    return results


def _eval_tasks(pending, trace_keys, root: str) -> list:
    """The evaluation fan-out's tasks, one per trace:
    ``(trace key, unit labels, (root, [(index, spec), ...]))`` with
    the trace's pending units in work-list order."""
    groups = {}
    for i, spec in pending:
        groups.setdefault(trace_keys[i], []).append((i, spec))
    return [(key, ", ".join(spec.label for _, spec in items),
             (root, items))
            for key, items in groups.items()]


def _prepare_eval(pending) -> None:
    """Build the shared per-process state in the *parent* before the
    evaluation fan-out: the calibrated power + adder models and the
    per-kernel static carry facts.

    Pool workers are forked from the parent wherever fork exists
    (Linux, the CI runners) when first given a task, so warming these
    memos here means every worker inherits them instead of each paying
    the adder characterisation on first use inside the evaluation
    stage — the ``runner.stage.eval`` span then measures evaluation,
    not interpreter start-up.  Workers that already run (a sweep's
    pool, from an earlier wave) or were spawned build what they miss on
    first use; results are identical either way.

    Neither the models nor the facts memo record obs metrics.
    """
    from repro.lint.facts import facts_for_kernel

    _WORKER_MODELS.ensure()
    for kernel in sorted({spec.kernel for _, spec in pending}):
        facts_for_kernel(kernel)


def _populate_store(store, pending, workers: int, version: str,
                    trace_keys: dict) -> frozenset:
    """Stage 1: capture every distinct pending trace into the store.

    Fans out over (kernel, scale, seed) keys — never over configs —
    skipping entries that are already warm, whose keys it returns.
    A capture that loses the race to publish counts as neither
    captured nor warm, so ``runner.traces.total`` is its own counter.
    """
    for i, spec in pending:
        trace_keys[i] = unit_trace_key(spec, version)
    distinct = capture_items((spec for _, spec in pending), version)

    warm = frozenset(k for k in distinct if store.has(k))
    todo = [item for key, item in distinct.items() if key not in warm]

    captured = 0
    registry = obs.get_obs()
    for _, created, snap in capture_traces(store, todo, workers):
        registry.merge(snap)
        captured += created
    obs.add("runner.traces.total", len(distinct))
    obs.add("runner.traces.captured", captured)
    obs.add("runner.traces.warm", len(warm))
    return warm


def run_suite_units(specs, options: RunOptions = None) -> dict:
    """Like :func:`run_units` but keyed ``{(kernel, config): result}``
    — the shape the benchmark fixtures want."""
    results = run_units(specs, options=options)
    return {(spec.kernel, spec.config.name): result
            for spec, result in zip(specs, results)}
