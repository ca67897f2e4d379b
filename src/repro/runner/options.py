"""Execution options for one runner invocation.

:func:`~repro.runner.pool.run_units` grew a keyword surface (workers,
cache handles, progress hooks, the trace store) that the Python API
and the ``st2-run`` CLI both had to mirror.  :class:`RunOptions` is
the single shared carrier and the *only* way to configure an
invocation: construct it directly from Python, or from parsed CLI
arguments via :meth:`from_args`.  A run always reads its traces from a
trace store; leaving ``trace_store`` unset selects the process-wide
scratch store, which is removed at exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runner.cache import ResultCache


@dataclass
class RunOptions:
    """Everything that controls *how* a work list is executed (never
    *what* it computes — that lives in the UnitSpecs).

    ``trace_store`` is the store the two-stage pipeline runs through:
    stage 1 captures each distinct (kernel, scale, seed) trace into it
    once, stage 2 fans evaluation units out over read-only memmapped
    traces.  ``None`` means the process-wide
    :func:`~repro.sim.trace_store.scratch_store`.

    ``stats`` is populated by ``run_units`` with invocation-level
    accounting (stage wall-times, traces captured vs served warm) so
    callers — the CLI manifest in particular — can report it.

    ``obs`` is the invocation's observability registry
    (:class:`repro.obs.Obs`).  Leave it ``None`` to let ``run_units``
    create one; pass a registry to accumulate several invocations into
    one.  After the call it holds every counter/timer of the run —
    its snapshot is what ``st2-run`` writes as ``metrics.json``.
    """

    workers: int = 1
    cache: ResultCache = None
    use_cache: bool = True
    progress: object = None         # callable(spec, result) or None
    timer: object = None            # RunTimer-like .observe(spec, result)
    trace_store: object = None      # TraceStore or None (scratch)
    stats: dict = field(default_factory=dict)
    obs: object = None              # repro.obs.Obs or None (fresh)

    def resolved_cache(self) -> ResultCache:
        return self.cache if self.cache is not None else ResultCache()

    def notify(self, spec, result) -> None:
        """Invoke the timer and progress hooks for one finished unit."""
        if self.timer is not None:
            self.timer.observe(spec, result)
        if self.progress is not None:
            self.progress(spec, result)

    @classmethod
    def from_args(cls, args, progress=None, timer=None) -> "RunOptions":
        """Build options from ``st2-run`` parsed arguments.

        Understands ``--workers``, ``--cache-dir``, ``--no-cache`` and
        ``--trace-store [DIR]`` (absent → the scratch store; bare flag
        → default store dir; with a path → that directory).
        """
        from repro.runner.pool import default_workers

        workers = args.workers if getattr(args, "workers", None) \
            is not None else default_workers()
        cache = ResultCache(getattr(args, "cache_dir", None))
        store = None
        spec = getattr(args, "trace_store", None)
        if spec is not None:
            from repro.sim.trace_store import TraceStore
            store = TraceStore(spec or None)
        return cls(workers=workers, cache=cache,
                   use_cache=not getattr(args, "no_cache", False),
                   progress=progress, timer=timer, trace_store=store)
