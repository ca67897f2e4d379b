"""JSONL run manifests: the machine-readable record of one invocation.

Line 1 is a ``{"type": "run", ...}`` header (work-list shape, worker
count, code version, and the run's stage times and counts, read from
its obs registry by :func:`run_accounting`); every following line is a
``{"type": "unit", ...}`` record holding one unit's full result dict —
per-unit wall time, trace size, misprediction and energy summaries —
plus its cache key and whether this run served it from disk.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

MANIFEST_VERSION = 1


class ManifestWriter:
    """Incremental manifest writer: header and ``units`` first, then
    one flushed unit line per :meth:`add`.

    Built for long-running, killable invocations (``st2-sweep``): the
    header and ``units`` (a resumed run's finished units) go to a
    sibling temporary file that then replaces ``path`` whole, so a kill
    at any point leaves either the old manifest or the new one.  A
    process killed mid-:meth:`add` loses at most its final partial
    line, which :func:`read_manifest_tolerant` skips on the next start
    — so every fully-written unit survives and is never re-executed.
    """

    def __init__(self, path, meta: dict = None, n_units: int = 0,
                 units=()):
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {"type": "run", "manifest_version": MANIFEST_VERSION,
                  "n_units": n_units}
        header.update(meta or {})
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with open(tmp, "w") as fh:
                fh.write(json.dumps(header) + "\n")
                for unit in units:
                    fh.write(_unit_line(unit))
            os.replace(tmp, self.path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._fh = open(self.path, "a")

    def add(self, result) -> None:
        """Append one unit result (dict or RunResult), flushed."""
        self._fh.write(_unit_line(result))
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ManifestWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _unit_line(result) -> str:
    if hasattr(result, "to_dict"):
        result = result.to_dict()
    return json.dumps({"type": "unit", **result}) + "\n"


def run_accounting(snapshot: dict) -> dict:
    """The manifest header's accounting keys, derived from the obs
    ``snapshot`` of one :func:`~repro.runner.pool.run_units` call:

    * ``stage_{capture,init,eval}_s`` — the ``runner.stage.*`` span
      totals (0.0 for a stage that did not run);
    * ``traces_total`` / ``traces_captured`` / ``trace_store_hits`` —
      the ``runner.traces.{total,captured,warm}`` counters, present
      only when stage 1 ran (some unit missed the result cache);
    * ``cache_hits`` / ``cache_misses`` — the
      ``runner.units.{cached,executed}`` counters.
    """
    timers, counters = snapshot["timers"], snapshot["counters"]
    meta = {f"stage_{stage}_s":
            timers.get(f"runner.stage.{stage}", {}).get("total_s", 0.0)
            for stage in ("capture", "init", "eval")}
    if "runner.traces.total" in counters:
        meta["traces_total"] = counters["runner.traces.total"]
        meta["traces_captured"] = counters["runner.traces.captured"]
        meta["trace_store_hits"] = counters["runner.traces.warm"]
    meta["cache_hits"] = counters.get("runner.units.cached", 0)
    meta["cache_misses"] = counters.get("runner.units.executed", 0)
    return meta


def write_manifest(path, results, meta: dict = None) -> Path:
    """Write a runner invocation's results as JSONL.

    ``results`` are raw unit dicts or typed
    :class:`~repro.st2.results.RunResult`\\ s — either way the line
    holds the flat JSON payload.
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    header = {"type": "run", "manifest_version": MANIFEST_VERSION,
              "n_units": len(results)}
    header.update(meta or {})
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for result in results:
            fh.write(_unit_line(result))
    return path


def read_manifest(path) -> tuple:
    """Read back ``(header, [unit result dicts])``."""
    header = None
    units = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("type", None)
            if kind == "run":
                header = record
            elif kind == "unit":
                units.append(record)
            else:
                raise ValueError(
                    f"unknown manifest record type {kind!r} in {path}")
    if header is None:
        raise ValueError(f"manifest {path} has no run header")
    if header.get("manifest_version") != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported manifest version "
            f"{header.get('manifest_version')!r} in {path}")
    return header, units


def read_manifest_tolerant(path) -> tuple:
    """Read back ``(header, [unit dicts], n_bad_lines)`` from a
    manifest that may have been truncated by a kill mid-write.

    Unparseable or unknown-type lines are skipped and counted instead
    of raised; ``header`` is ``None`` when no valid run header (of a
    supported version) survives — the caller decides whether that
    means "start fresh" or "refuse".
    """
    header = None
    units = []
    bad = 0
    try:
        fh = open(path)
    except OSError:
        return None, [], 0
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                bad += 1
                continue
            if not isinstance(record, dict):
                bad += 1
                continue
            kind = record.pop("type", None)
            if kind == "run" and header is None:
                if record.get("manifest_version") == MANIFEST_VERSION:
                    header = record
                else:
                    bad += 1
            elif kind == "unit":
                units.append(record)
            else:
                bad += 1
    return header, units, bad
