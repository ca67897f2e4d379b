"""Content-addressed, memory-mapped trace store.

One functional kernel execution produces everything the evaluation
stages need — the adder trace, the warp instruction stream, the memory
counters and the launch shape.  The store persists that capture exactly
once per ``(kernel, scale, seed, code_version)`` key and serves it to
any number of readers as **read-only memory maps**: each column is a
raw ``.npy`` file mapped directly to the geometry recorded in the
header (``np.load(mmap_mode="r")`` for a zero-length column), so
concurrent pool workers share the OS page cache instead of each
decompressing a private ``.npz`` copy.

On-disk layout (one directory per entry)::

    <root>/<key>/
        header.json      format version, identity, launch + memory
                         counters, pc labels, per-file sha256 digests
        add_pc.npy …     one raw .npy per AddTrace column
        inst_seq.npy …   one raw .npy per InstStream column

Entries are immutable once published: writers assemble the directory
under a temp name and ``rename(2)`` it into place, so readers never
observe a partial entry and concurrent capture races resolve to
whichever writer renames first (the loser discards its copy — both
captured identical bytes).

The store is the only place the runner, ``st2-sweep`` and
``st2-serve`` get a trace from.  When no store is named they share the
process-wide :func:`scratch_store`: a temporary directory created on
first use and removed when the process that created it exits.

Layering: this module never computes a code version itself — callers
(the runner, ``st2-trace``) pass the digest that keys their own result
cache, keeping ``repro.sim`` free of any dependency on
``repro.runner``.
"""

from __future__ import annotations

import atexit
import errno
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.sim.config import LaunchConfig
from repro.sim.memory import MemoryStats
from repro.sim.trace import AddTrace, InstStream
from repro.sim.trace_io import _ADD_COLUMNS, _INST_COLUMNS

STORE_FORMAT_VERSION = 1

ENV_STORE_DIR = "REPRO_TRACE_DIR"

#: MemoryStats counters persisted per entry (the fields the power and
#: timing models read; address batches are a debugging aid and are not
#: stored).
_MEM_FIELDS = ("global_loads", "global_stores",
               "global_load_transactions", "global_store_transactions",
               "shared_loads", "shared_stores", "const_loads")

HEADER_NAME = "header.json"

#: Every column file of an entry, as its header names it.
_COLUMN_NAMES = tuple(f"add_{c}" for c in _ADD_COLUMNS) \
    + tuple(f"inst_{c}" for c in _INST_COLUMNS)

#: The header keys the store's readers need, as key paths; a header
#: that lacks one is damaged.
_HEADER_KEYS = tuple(
    [(k,) for k in ("kernel", "n_rows", "n_static_pcs", "pc_labels")]
    + [("launch", k) for k in ("grid_blocks", "block_threads")]
    + [("mem", f) for f in _MEM_FIELDS]
    + [("columns", name, k) for name in _COLUMN_NAMES
       for k in ("dtype", "shape", "offset")])

#: Read-side memo capacity per :class:`TraceStore` instance: number of
#: served :class:`StoredRun` handles kept alive before the least
#: recently used one is dropped.
GET_MEMO_SIZE = 4

#: Publication workspaces (``.{key}-XXXX`` temp dirs) older than this
#: are considered abandoned by a crashed writer and swept by
#: :meth:`TraceStore.gc`.  Live writers assemble and rename within
#: seconds, so an hour is a comfortably wide safety margin.
ORPHAN_TMP_AGE_S = 3600.0


def default_store_dir() -> Path:
    """``$REPRO_TRACE_DIR`` or ``~/.cache/repro/traces``."""
    env = os.environ.get(ENV_STORE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "traces"


_SCRATCH = None


def scratch_store() -> "TraceStore":
    """The process-wide store used when no store is named.

    Created with :func:`tempfile.mkdtemp` on first use; an ``atexit``
    hook removes it when the creating process exits.  Pool workers
    never call this: they are handed the parent's root, because a
    forked worker leaves with ``os._exit`` and would never run the
    hook of a store it created.
    """
    global _SCRATCH
    if _SCRATCH is None:
        root = tempfile.mkdtemp(prefix="repro-traces-")
        atexit.register(_remove_scratch, root, os.getpid())
        _SCRATCH = TraceStore(root)
    return _SCRATCH


def _remove_scratch(root: str, owner: int) -> None:
    if os.getpid() == owner:        # a forked child inherits the hook
        shutil.rmtree(root, ignore_errors=True)


def trace_key(kernel: str, scale: float, seed: int,
              code_version: str) -> str:
    """Content-hash key of one distinct functional execution.

    Everything that determines the captured bytes is in the payload:
    the kernel identity, the workload scale, the RNG seed and the
    digest of the result-affecting source tree.
    """
    payload = {
        "kernel": kernel,
        "scale": scale,
        "seed": seed,
        "code_version": code_version,
        "store_format": STORE_FORMAT_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:40]


class TraceStoreCorrupt(RuntimeError):
    """A published entry found damaged when it is opened: its
    ``header.json`` is missing, empty, not a JSON object, of another
    format version, lacks a key the readers need or records a column
    geometry they cannot map (``column`` is ``header.json``), or a
    column file disagrees with the geometry the header records
    (truncated, empty, missing or oversized).  A
    same-size bit flip is not caught here: that is what the digests of
    ``st2-trace verify`` are for."""

    def __init__(self, key: str, column: str, reason: str):
        super().__init__(key, column, reason)
        self.key = key
        self.column = column
        self.reason = reason

    def __str__(self) -> str:
        what = self.column if self.column == HEADER_NAME \
            else f"column {self.column}"
        return (f"trace-store entry {self.key} is damaged: {what} "
                f"{self.reason}; remove the entry and re-capture")


def _is_count(value) -> bool:
    """True when ``value`` is a JSON non-negative integer."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _bad_geometry(geo: dict) -> str:
    """What is wrong with one column's recorded ``{dtype, shape,
    offset}``, or ``""`` when :meth:`TraceStore.get` can map it."""
    try:
        if not isinstance(geo["dtype"], str):
            raise TypeError
        np.dtype(geo["dtype"])
    except (TypeError, ValueError):
        return f"dtype {geo['dtype']!r}, not a numpy dtype"
    shape = geo["shape"]
    if not isinstance(shape, list) or not all(map(_is_count, shape)):
        return f"shape {shape!r}, not a list of non-negative ints"
    if not _is_count(geo["offset"]):
        return f"offset {geo['offset']!r}, not a non-negative int"
    return ""


def _array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(arr).tobytes()).hexdigest()


@dataclass
class StoredRun:
    """A :class:`~repro.sim.functional.KernelRun` stand-in rebuilt from
    a store entry.

    Carries exactly the fields the evaluation pipeline reads
    (``evaluate_run`` and the unit result): the trace and instruction
    stream are read-only memmaps; launch and memory counters are
    reconstructed values.
    """

    name: str
    launch: LaunchConfig
    trace: AddTrace
    insts: InstStream
    mem: MemoryStats
    n_static_pcs: int
    key: str = ""
    metadata: dict = field(default_factory=dict)


class TraceStore:
    """Directory-per-entry trace store with atomic publication.

    ``put`` captures are idempotent: publishing a key that already
    exists is a no-op (first writer wins), which is what makes
    concurrent stage-1 workers race-safe without locks.
    """

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_store_dir()
        self._get_memo = {}         # key -> (StoredRun, bytes mapped)

    # -- paths ---------------------------------------------------------

    def path(self, key: str) -> Path:
        return self.root / key

    def header_path(self, key: str) -> Path:
        return self.path(key) / HEADER_NAME

    def has(self, key: str) -> bool:
        return self.header_path(key).is_file()

    # -- writing -------------------------------------------------------

    def put(self, key: str, run, code_version: str = "",
            scale: float = None, seed: int = None,
            metadata: dict = None) -> bool:
        """Publish one captured run under ``key``.

        Returns True if this call created the entry, False if the key
        was already present (including losing a publication race —
        either way the entry now exists and holds identical bytes).
        """
        if self.has(key):
            obs.add("trace_store.put.existing")
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=self.root, prefix=f".{key}-"))
        try:
            with obs.span("trace_store.put"):
                return self._publish(key, tmp, run, code_version, scale,
                                     seed, metadata)
        finally:
            if tmp.is_dir():
                shutil.rmtree(tmp, ignore_errors=True)

    def _publish(self, key: str, tmp: Path, run, code_version: str,
                 scale, seed, metadata: dict) -> bool:
        """Assemble the entry under ``tmp`` and rename it into place."""
        files = {}
        for col in _ADD_COLUMNS:
            files[f"add_{col}"] = getattr(run.trace, col)
        for col in _INST_COLUMNS:
            files[f"inst_{col}"] = getattr(run.insts, col)
        digests = {}
        columns = {}
        for name, arr in files.items():
            path = tmp / f"{name}.npy"
            np.save(path, np.ascontiguousarray(arr),
                    allow_pickle=False)
            digests[name] = _array_digest(arr)
            # record the mapping geometry so readers can np.memmap the
            # data directly instead of re-parsing every .npy header
            mapped = np.load(path, mmap_mode="r", allow_pickle=False)
            columns[name] = {"dtype": mapped.dtype.str,
                             "shape": list(mapped.shape),
                             "offset": int(mapped.offset)}
        header = {
            "format_version": STORE_FORMAT_VERSION,
            "key": key,
            "kernel": run.name,
            "scale": scale,
            "seed": seed,
            "code_version": code_version,
            "n_rows": int(len(run.trace)),
            "n_insts": int(len(run.insts)),
            "n_static_pcs": int(run.n_static_pcs),
            "pc_labels": list(run.trace.pc_labels),
            "launch": {"grid_blocks": run.launch.grid_blocks,
                       "block_threads": run.launch.block_threads},
            "mem": {f: int(getattr(run.mem, f))
                    for f in _MEM_FIELDS},
            "digests": digests,
            "columns": columns,
            "metadata": metadata or {},
        }
        with open(tmp / HEADER_NAME, "w") as fh:
            json.dump(header, fh, indent=1)
        try:
            os.rename(tmp, self.path(key))
        except OSError as exc:
            # Concurrent publication: another writer renamed the same
            # key first.  Both captured identical bytes (the key is a
            # content hash over everything that determines them), so
            # losing the race is success with created=False.
            if self.has(key):
                obs.add("trace_store.put.existing")
                return False
            if exc.errno in (errno.EEXIST, errno.ENOTEMPTY):
                # The race signature, yet no header: the destination
                # is debris (e.g. a half-deleted entry), not a valid
                # publication.  ``gc`` collects it.
                raise TraceStoreCorrupt(key, HEADER_NAME,
                                        "is missing") from exc
            raise
        obs.add("trace_store.put.created")
        return True

    # -- reading -------------------------------------------------------

    def header(self, key: str) -> dict:
        """The parsed ``header.json`` of ``key`` — the store's one
        reader of it.  Raises ``OSError`` when the file cannot be read
        and :class:`TraceStoreCorrupt` when it is empty, not a JSON
        object, of another format version, lacks a needed key or
        records a column geometry :meth:`get` cannot map."""
        raw = self.header_path(key).read_bytes()
        try:
            header = json.loads(raw)
        except ValueError:          # torn, or not UTF-8 JSON at all
            raise TraceStoreCorrupt(
                key, HEADER_NAME,
                "is not JSON" if raw else "is empty") from None
        if not isinstance(header, dict):
            raise TraceStoreCorrupt(key, HEADER_NAME,
                                    "is not a JSON object")
        version = header.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise TraceStoreCorrupt(
                key, HEADER_NAME, f"records format_version {version!r}, "
                f"this code reads {STORE_FORMAT_VERSION}")
        for path in _HEADER_KEYS:
            node = header
            for depth, part in enumerate(path, 1):
                if not isinstance(node, dict) or part not in node:
                    raise TraceStoreCorrupt(
                        key, HEADER_NAME,
                        f"lacks {'.'.join(path[:depth])}")
                node = node[part]
        for name in _COLUMN_NAMES:
            reason = _bad_geometry(header["columns"][name])
            if reason:
                raise TraceStoreCorrupt(
                    key, HEADER_NAME, f"records columns.{name}.{reason}")
        return header

    def check(self, key: str, header: dict = None) -> None:
        """Raise :class:`TraceStoreCorrupt` unless every column file of
        ``key`` exists with exactly the size its recorded geometry
        implies — one ``stat`` per column, no data read.  ``header`` is
        the entry's header when the caller has read it already."""
        if header is None:
            header = self.header(key)
        for name in _COLUMN_NAMES:
            try:
                size = (self.path(key) / f"{name}.npy").stat().st_size
            except FileNotFoundError:
                raise TraceStoreCorrupt(key, name, "is missing") from None
            geo = header["columns"][name]
            expected = int(geo["offset"]) + np.dtype(geo["dtype"]) \
                .itemsize * int(np.prod(geo["shape"], dtype=np.int64))
            if size != expected:
                raise TraceStoreCorrupt(
                    key, name, f"holds {size} bytes, its header "
                    f"records {expected}")

    def get(self, key: str) -> StoredRun:
        """Open one entry read-only; every column is a memmap.

        Entries are immutable once published, so repeated ``get``\\ s of
        a key are served from a small per-instance memo — the returned
        :class:`StoredRun` is shared between callers, which is safe
        because the evaluation pipeline only ever reads it.  A memo hit
        emits exactly the observability a real open would (the
        ``trace_store.get`` span, the ``trace_store.open`` and
        ``bytes_mapped`` counters), so run metrics stay independent of
        how evaluation units are scheduled over pool workers.

        A fresh open first runs :meth:`check` on the entry, so a
        damaged column raises :class:`TraceStoreCorrupt` naming it.
        """
        memo = self._get_memo.get(key)
        if memo is not None:
            self._get_memo[key] = self._get_memo.pop(key)  # LRU refresh
            stored, mapped = memo
            with obs.span("trace_store.get"):
                obs.add("trace_store.bytes_mapped", mapped)
            obs.add("trace_store.open")
            return stored
        mapped = 0
        with obs.span("trace_store.get"):
            header = self.header(key)
            self.check(key, header)
            entry = self.path(key)

            def col(name):
                nonlocal mapped
                geo = header["columns"][name]
                if 0 not in geo["shape"]:
                    # fast path: map straight to the recorded geometry
                    arr = np.memmap(entry / f"{name}.npy",
                                    dtype=np.dtype(geo["dtype"]),
                                    mode="r", offset=int(geo["offset"]),
                                    shape=tuple(geo["shape"]))
                else:   # np.memmap cannot map a zero-length column
                    arr = np.load(entry / f"{name}.npy", mmap_mode="r",
                                  allow_pickle=False)
                mapped += int(arr.nbytes)
                obs.add("trace_store.bytes_mapped", int(arr.nbytes))
                return arr

            trace = AddTrace(
                **{c: col(f"add_{c}") for c in _ADD_COLUMNS},
                pc_labels=list(header["pc_labels"]))
            insts = InstStream(**{c: col(f"inst_{c}")
                                  for c in _INST_COLUMNS})
            mem = MemoryStats(**{f: header["mem"][f]
                                 for f in _MEM_FIELDS})
        obs.add("trace_store.open")
        stored = StoredRun(
            name=header["kernel"],
            launch=LaunchConfig(header["launch"]["grid_blocks"],
                                header["launch"]["block_threads"]),
            trace=trace, insts=insts, mem=mem,
            n_static_pcs=header["n_static_pcs"],
            key=key, metadata=header.get("metadata", {}))
        self._get_memo[key] = (stored, mapped)
        while len(self._get_memo) > GET_MEMO_SIZE:
            self._get_memo.pop(next(iter(self._get_memo)))
        return stored

    # -- maintenance ---------------------------------------------------

    def _entry_dirs(self) -> list:
        """Sorted names of every entry directory, published or not
        (publication workspaces are dot-prefixed)."""
        if not self.root.is_dir():
            return []
        return sorted(child.name for child in self.root.iterdir()
                      if not child.name.startswith(".")
                      and child.is_dir())

    def keys(self) -> list:
        """Sorted keys of all published entries."""
        return [key for key in self._entry_dirs() if self.has(key)]

    def entries(self) -> list:
        """``[(key, header), ...]`` for every published entry."""
        return [(key, self.header(key)) for key in self.keys()]

    def nbytes(self, key: str) -> int:
        entry = self.path(key)
        return sum(p.stat().st_size for p in entry.iterdir()
                   if p.is_file())

    def mtime(self, key: str) -> float:
        return self.header_path(key).stat().st_mtime

    def remove(self, key: str) -> None:
        self._get_memo.pop(key, None)
        shutil.rmtree(self.path(key), ignore_errors=True)

    def orphan_tmp_dirs(self,
                        min_age_s: float = ORPHAN_TMP_AGE_S) -> list:
        """Publication workspaces (``.{key}-XXXX``) abandoned by
        crashed writers: dot-prefixed directories untouched for at
        least ``min_age_s``.  Invisible to :meth:`keys` — without a
        sweep they leak forever under a long-lived server."""
        if not self.root.is_dir():
            return []
        # compared against filesystem mtimes, maintenance only —
        # never reaches a cached result
        now = time.time()  # st2-lint: disable=L5 — vs fs mtimes only
        orphans = []
        for child in self.root.iterdir():
            if not child.name.startswith(".") or not child.is_dir():
                continue
            try:
                age = now - child.stat().st_mtime
            except OSError:
                continue                # racing writer finished: gone
            if age >= min_age_s:
                orphans.append(child.name)
        return sorted(orphans)

    def verify(self, key: str) -> list:
        """Integrity-check one entry; returns a list of problems
        (empty = sound).  Checks: header readable, every column file
        present and loadable, row counts consistent, and each column's
        bytes matching the sha256 digest recorded at capture time."""
        problems = []
        try:
            header = self.header(key)
        except (OSError, TraceStoreCorrupt) as exc:
            return [f"unreadable header: {exc}"]
        digests = header.get("digests", {})
        expected_rows = {"add": header.get("n_rows"),
                         "inst": header.get("n_insts")}
        for name in _COLUMN_NAMES:
            path = self.path(key) / f"{name}.npy"
            try:
                arr = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError) as exc:
                problems.append(f"{name}: unreadable ({exc})")
                continue
            rows = expected_rows[name.split("_", 1)[0]]
            if rows is not None and len(arr) != rows:
                problems.append(
                    f"{name}: {len(arr)} rows, header says {rows}")
            if name in digests and _array_digest(arr) != digests[name]:
                problems.append(f"{name}: sha256 mismatch")
        return problems

    def gc(self, current_version: str = None, max_bytes: int = None,
           dry_run: bool = False) -> list:
        """Collect garbage; returns the keys that were (or would be)
        removed.

        Policy, in order:

        0. *Damaged entries* — always: an entry whose header is
           unreadable or damaged, or missing (a half-deleted entry;
           publication renames whole directories, so no live writer
           leaves one), can never be read.
        1. *Stale versions* — with ``current_version``, every entry
           whose recorded ``code_version`` differs is dead weight: no
           future run can ever read it (its key embeds the old digest).
        2. *Byte budget* — with ``max_bytes``, surviving entries are
           evicted oldest-first (header mtime) until the store fits.
        3. *Orphaned workspaces* — always: temp publication dirs left
           by crashed writers (:meth:`orphan_tmp_dirs`) are swept once
           they are old enough that no live writer can own them.
        """
        removed = []
        survivors = []
        for key in self._entry_dirs():
            try:
                header = self.header(key)
            except (OSError, TraceStoreCorrupt):
                removed.append(key)         # corrupt: always collect
                continue
            if current_version is not None \
                    and header.get("code_version") != current_version:
                removed.append(key)
            else:
                survivors.append(key)
        if max_bytes is not None:
            sized = sorted(((self.mtime(k), k, self.nbytes(k))
                            for k in survivors))
            total = sum(n for _, _, n in sized)
            for _, key, n in sized:
                if total <= max_bytes:
                    break
                removed.append(key)
                total -= n
        orphans = self.orphan_tmp_dirs()
        if orphans:
            obs.add("trace_store.gc.orphans", len(orphans))
        removed.extend(orphans)
        if not dry_run:
            for key in removed:
                self.remove(key)
        return removed

    def __len__(self) -> int:
        return len(self.keys())
