"""Counters and hierarchical span timers — the observability core.

One :class:`Obs` registry accumulates two kinds of instruments:

* **counters** — monotonically accumulated numbers (``add``), named with
  dotted component paths (``sim.functional.trace_rows``);
* **timers** — wall-time accumulators carrying count / total / max
  seconds.  A block is timed with the ``span`` context manager, whose
  recorded name is the ``/``-joined path of every span active on the
  current thread (``runner.stage.eval`` inside no other span;
  ``runner.unit/core.predict`` when nested), so one call site produces
  a hierarchy in the dump.  ``record_timer`` files a duration measured
  elsewhere under a flat name.

Accumulation is thread-safe (one lock per registry).  Process-safe
accumulation is by construction, not by sharing: every worker process
accumulates into its own registry and ships a :meth:`snapshot` dict
back with its result; the parent :meth:`merge`\\ s the snapshots.  The
snapshot is JSON-native and is exactly what ``metrics.json`` stores.

The registry never touches the results it observes — it is excluded
from the result cache's code-version digest
(``repro.runner.cache.NON_RESULT_PACKAGES``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: separator used to join nested span names into one hierarchical path
SPAN_SEP = "/"

#: the fields a timer snapshot carries (``mean_s`` is derived)
TIMER_FIELDS = ("count", "total_s", "max_s", "mean_s")


@dataclass
class TimerStat:
    """Accumulated wall-time of one named timer or span."""

    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {"count": self.count, "total_s": self.total_s,
                "max_s": self.max_s, "mean_s": self.mean_s}

    def merge_dict(self, d: dict) -> None:
        self.count += int(d.get("count", 0))
        self.total_s += float(d.get("total_s", 0.0))
        self.max_s = max(self.max_s, float(d.get("max_s", 0.0)))


class Obs:
    """One observability registry: counters + timers + span stack.

    All mutation goes through one lock, so any number of threads may
    instrument concurrently.  The span stack is thread-local: spans
    opened on one thread never prefix another thread's spans.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._timers: dict = {}
        self._local = threading.local()

    # -- counters ------------------------------------------------------

    def add(self, name: str, n=1) -> None:
        """Accumulate ``n`` into the counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str):
        """Current value of a counter (0 if never written)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- timers --------------------------------------------------------

    def record_timer(self, name: str, seconds: float) -> None:
        """Accumulate one observation of ``seconds`` into timer ``name``."""
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.observe(seconds)

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block under the hierarchical span path.

        The recorded timer name is the ``/``-joined path of every span
        active on this thread, so nested spans produce a tree in the
        snapshot (``runner.stage.eval``, ``runner.unit/core.predict``).
        The block is recorded even when it raises.
        """
        stack = getattr(self._local, "spans", None)
        if stack is None:
            stack = self._local.spans = []
        stack.append(name)
        path = SPAN_SEP.join(stack)
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.record_timer(path, time.perf_counter() - t0)
            stack.pop()

    # -- snapshot / merge ---------------------------------------------

    def snapshot(self) -> dict:
        """JSON-native dump: ``{"counters": {...}, "timers": {...}}``."""
        with self._lock:
            return {
                "counters": {k: self._counters[k]
                             for k in sorted(self._counters)},
                "timers": {k: self._timers[k].as_dict()
                           for k in sorted(self._timers)},
            }

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) in."""
        if not snap:
            return
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, stat_dict in snap.get("timers", {}).items():
                stat = self._timers.get(name)
                if stat is None:
                    stat = self._timers[name] = TimerStat()
                stat.merge_dict(stat_dict)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._timers)
