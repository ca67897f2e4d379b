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

The evaluation stage schedules **one task per unit**, keyed by the
unit's trace: the pool pins each trace key to one worker, so every
pending unit of one (kernel, scale, seed) runs in the same process and
the trace's evaluation plan, static-peek overlay and auxiliary
measurements are built once per run, not once per config.
:func:`run_units`, the sweep and ``st2-serve`` all submit
:func:`run_unit`.

With ``workers > 1`` both stages run on a :class:`WorkerPool`, driven
by :meth:`~WorkerPool.submit` and :meth:`~WorkerPool.collect`.  Stage 1
uses a pool that exits with the stage, so no capture memory lingers in
an evaluation worker.  :func:`run_units` evaluates on a pool that lives
for the call; the sweep holds one across all its waves and
``st2-serve`` one for the daemon, so a trace pinned to a worker keeps
its plan there from wave to wave.  ``workers <= 1`` runs both stages
inline through the same worker entry points, which is what the
parallel-equals-serial guarantee rests on.

Results always come back in work-list order; the parent alone writes
result-cache entries.  :func:`cached_result` and :func:`commit_result`
are the per-unit bookkeeping of all three callers, and
:func:`prepare_stages` runs the capture and init stages of
:func:`run_units` and the sweep.
Trace-store entries are published by workers with an atomic directory
rename, so concurrent captures cannot corrupt an entry (first writer
wins; both wrote identical bytes).
"""

from __future__ import annotations

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

    Callers drive the pool from their own thread with :meth:`submit`
    and :meth:`collect`; :meth:`idle` tells whether a task would start
    at once.  :meth:`serve` starts a thread that reports each finished
    task to a callback instead, for callers that submit from an event
    loop.  As a context manager the pool is closed when the block ends,
    or terminated when it raises.
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

    def idle(self, key=None) -> bool:
        """Whether a task of ``key`` submitted now would be sent at
        once: the worker ``key`` is pinned to is idle, or ``key`` is
        unpinned and some worker is."""
        with self._lock:
            owner = self._pins.get(key) if key is not None else None
            if owner is not None:
                return owner.task is None and not owner.queue
            return not self._backlog and any(
                slot.task is None and not slot.queue
                for slot in self._slots)

    def collect(self) -> list:
        """Wait until a worker answers or exits and return the tasks
        that finished, as ``(task_id, ok, value)``: ``value`` is the
        result, or ``(exception, remote traceback text or None)`` when
        ``ok`` is false (see :func:`task_value`).  The list is empty
        when the wait ended on a respawn or a new worker."""
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
            for task_id, ok, value in self.collect():
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
        """Interrupt a :meth:`collect` waiting on a stale set of
        workers."""
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
            pass                        # the worker died: collect sees it

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


def task_value(ok: bool, value):
    """A finished task's result, or its exception (or
    :class:`WorkerLost`) raised with the worker's traceback attached."""
    if ok:
        return value
    exc, remote = value
    raise exc from (_RemoteTraceback(remote) if remote else None)


def _fan_out(pool, fn, tasks):
    """``fn`` over ``tasks`` (``(key, label, arg)`` triples), started
    in task order on ``pool``, or inline when it is ``None``; yields
    ``(position in tasks, result)`` as each finishes.  Inline and
    pooled runs go through the same entry points, so their results and
    metrics are the same."""
    if pool is None:
        return ((n, fn(arg)) for n, (_, _, arg) in enumerate(tasks))
    return _pooled(pool, fn, tasks)


def _pooled(pool, fn, tasks):
    """:func:`_fan_out` on a pool: submit every task, then collect."""
    for n, (key, label, arg) in enumerate(tasks):
        pool.submit(n, fn, arg, key=key, label=label)
    left = len(tasks)
    while left:
        for n, ok, value in pool.collect():
            left -= 1
            yield n, task_value(ok, value)


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


def run_unit(task):
    """Stage-2 task ``(store root, spec)``: evaluate one unit against
    its stored trace, under a fresh obs scope whose snapshot travels
    home with the result (as the transient ``"obs"`` key, popped and
    merged by :func:`commit_result`).  Returns the unit's
    :class:`~repro.st2.results.RunResult`."""
    root, spec = task
    with obs.scoped() as reg:
        with reg.span("runner.unit"):
            result = execute_unit(spec, models=_WORKER_MODELS,
                                  store=_store(root))
    result.data["obs"] = reg.snapshot()
    return result


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
        for _, done in _fan_out(pool, _capture_one, tasks):
            yield done


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

def run_units(specs, options: RunOptions = None) -> list:
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

    Evaluation runs one :func:`run_unit` task per pending unit, grouped
    by trace in first-seen order, on a pool of ``options.workers`` that
    lives for this call, or inline for ``workers <= 1``; each unit
    commits as it finishes.  A unit whose worker dies twice raises
    :class:`WorkerLost`.
    """
    options = options if options is not None else RunOptions()
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, UnitSpec):
            raise TypeError(f"expected UnitSpec, got {type(spec)!r}")
    with obs.scoped(options.obs) as reg:
        options.obs = reg
        version = code_version()
        keys = [unit_key(spec, version) for spec in specs]
        results = [None] * len(specs)
        obs.add("runner.units", len(specs))

        groups = {}             # trace key -> pending indices
        for i, (spec, key) in enumerate(zip(specs, keys)):
            hit = cached_result(options, key)
            if hit is not None:
                results[i] = hit
                options.notify(spec, hit)
            else:
                groups.setdefault(unit_trace_key(spec, version),
                                  []).append(i)

        if not groups:
            return results
        store = trace_store_of(options)
        order = [i for group in groups.values() for i in group]
        warm = prepare_stages(store, [specs[i] for i in order],
                              options.workers, version)
        root = str(store.root)
        tasks = [(key, specs[i].label, (root, specs[i]))
                 for key, group in groups.items() for i in group]
        with reg.span("runner.stage.eval"):
            # the pins keep a trace on one worker: one worker per trace
            # at most
            with _stage_pool(options.workers, len(groups)) as pool:
                for n, result in _fan_out(pool, run_unit, tasks):
                    i = order[n]
                    results[i] = commit_result(
                        options, specs[i], keys[i], result,
                        trace_hit=tasks[n][0] in warm)
    return results


def trace_store_of(options: RunOptions):
    """The trace store a run reads: ``options.trace_store``, else the
    process-wide :func:`~repro.sim.trace_store.scratch_store`."""
    from repro.sim.trace_store import scratch_store

    store = options.trace_store
    if store is None:           # never `or`: an empty store is falsy
        store = scratch_store()
    return store


def cached_result(options: RunOptions, key: str):
    """``key``'s result-cache entry as a :class:`RunResult` stamped
    ``cached`` and counted in ``runner.units.cached``; ``None`` on a
    miss or when the run does not use the cache."""
    from repro.st2.results import RunResult

    if not options.use_cache:
        return None
    hit = options.resolved_cache().load(key)
    if hit is None:
        return None
    hit.update(key=key, cached=True)
    obs.add("runner.units.cached")
    return RunResult(hit)


def commit_result(options: RunOptions, spec: UnitSpec, key: str,
                  result, trace_hit: bool):
    """Fold one executed unit into its run: merge the worker's obs
    snapshot (the transient ``"obs"`` key) into the active registry,
    stamp the runtime fields, write the result cache, count
    ``runner.units.executed`` and notify the progress hook.
    ``trace_hit`` is the unit's ``trace_cache_hit``: whether its trace
    was warm before this run captured it.  Returns ``result``."""
    snap = result.data.pop("obs", None)
    if snap:
        obs.get_obs().merge(snap)
    result.data.update(key=key, cached=False, trace_cache_hit=trace_hit)
    if options.use_cache:
        options.resolved_cache().store(key, result.to_dict())
    obs.add("runner.units.executed")
    options.notify(spec, result)
    return result


def prepare_stages(store, specs, workers: int,
                   version: str) -> frozenset:
    """Stage 1 (:func:`_populate_store`), then the init step
    (:func:`_prepare_eval`, under the ``runner.stage.init`` span),
    before evaluating ``specs``.  Returns the trace keys that were
    already warm."""
    warm = _populate_store(store, specs, workers, version)
    with obs.span("runner.stage.init"):
        _prepare_eval(specs)
    return warm


def _prepare_eval(specs) -> None:
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
    for kernel in sorted({spec.kernel for spec in specs}):
        facts_for_kernel(kernel)


def _populate_store(store, specs, workers: int,
                    version: str) -> frozenset:
    """Stage 1, under the ``runner.stage.capture`` span: capture every
    distinct trace behind ``specs`` into the store.

    Fans out over (kernel, scale, seed) keys — never over configs —
    skipping entries that are already warm, whose keys it returns.
    A capture that loses the race to publish counts as neither
    captured nor warm, so ``runner.traces.total`` is its own counter.
    """
    registry = obs.get_obs()
    with registry.span("runner.stage.capture"):
        distinct = capture_items(specs, version)
        warm = frozenset(k for k in distinct if store.has(k))
        todo = [item for key, item in distinct.items()
                if key not in warm]
        captured = 0
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
