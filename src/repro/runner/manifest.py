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
import tempfile
from pathlib import Path

MANIFEST_VERSION = 1

#: The process umask, read (by setting it) once at import, before any
#: thread can race the two calls: :func:`replace_file` gives its files
#: the mode ``open`` would, not ``mkstemp``'s 0600.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


class ManifestWriter:
    """Incremental manifest writer: header and ``units`` first, then
    one flushed unit line per :meth:`add`.

    The one manifest writer: ``st2-run`` and ``st2-client`` pass every
    result as ``units``, ``st2-sweep`` a resumed run's finished units,
    then each further unit through :meth:`add`.  The header and
    ``units`` replace ``path`` whole (:func:`replace_file`), so a kill
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
        replace_file(self.path, json.dumps(header) + "\n"
                     + "".join(_unit_line(unit) for unit in units))
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


def replace_file(path: Path, text: str) -> None:
    """Replace ``path`` whole with ``text``: write a ``mkstemp`` file
    beside it, then ``os.replace`` it into place, so a reader (or a
    kill) sees the old file or the new one, never a torn one.  The
    temporary name is unique, so concurrent writers of one path never
    share it; on any failure it is removed and ``path`` is untouched."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}-",
                               suffix=".tmp")
    try:
        os.fchmod(fd, 0o666 & ~_UMASK)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _parse(lines) -> tuple:
    """``(header, [unit dicts], n_bad_lines)`` of manifest ``lines``:
    unparseable, non-object, unknown-type and repeated or
    wrong-version header lines are counted in ``n_bad_lines``."""
    header = None
    units = []
    bad = 0
    for line in lines:
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


def read_manifest(path) -> tuple:
    """Read back ``(header, [unit result dicts])``.

    Raises ``OSError`` when ``path`` cannot be opened and
    ``ValueError`` for any line :func:`read_manifest_tolerant` would
    skip, or when no run header of this version is present."""
    with open(path) as fh:
        header, units, bad = _parse(fh)
    if bad:
        raise ValueError(f"manifest {path} has {bad} unreadable or "
                         f"unknown line(s)")
    if header is None:
        raise ValueError(f"manifest {path} has no version "
                         f"{MANIFEST_VERSION} run header")
    return header, units


def read_manifest_tolerant(path) -> tuple:
    """Read back ``(header, [unit dicts], n_bad_lines)`` from a
    manifest that may have been truncated by a kill mid-write.

    Unparseable or unknown-type lines are skipped and counted instead
    of raised; ``header`` is ``None`` when no valid run header (of a
    supported version) survives — the caller decides whether that
    means "start fresh" or "refuse".
    """
    try:
        fh = open(path)
    except OSError:
        return None, [], 0
    with fh:
        return _parse(fh)
