"""The content-addressed, memory-mapped trace store."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.kernels.suite import KERNEL_NAMES, run_suite
from repro.sim.trace_io import _ADD_COLUMNS, _INST_COLUMNS, trace_nbytes
from repro.sim.trace_store import (StoredRun, TraceStore, default_store_dir,
                                   scratch_store, trace_key)

SCALE = 0.12


@pytest.fixture(scope="module")
def suite_runs():
    return run_suite(scale=SCALE, seed=0)


@pytest.fixture(scope="module")
def store(suite_runs, tmp_path_factory):
    store = TraceStore(tmp_path_factory.mktemp("traces"))
    for name, run in suite_runs.items():
        key = trace_key(name, SCALE, 0, "v-test")
        assert store.put(key, run, code_version="v-test",
                         scale=SCALE, seed=0)
    return store


class TestRoundTripWholeSuite:
    """Every kernel's memmap-loaded entry must be bit-identical to the
    fresh in-memory capture — all columns, both streams, pc labels."""

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_bit_identical(self, name, suite_runs, store):
        run = suite_runs[name]
        stored = store.get(trace_key(name, SCALE, 0, "v-test"))
        assert isinstance(stored, StoredRun)
        for col in _ADD_COLUMNS:
            live, mapped = getattr(run.trace, col), \
                getattr(stored.trace, col)
            assert live.dtype == mapped.dtype, col
            assert np.array_equal(live, mapped), col
        for col in _INST_COLUMNS:
            assert np.array_equal(getattr(run.insts, col),
                                  getattr(stored.insts, col)), col
        assert stored.trace.pc_labels == run.trace.pc_labels
        assert stored.n_static_pcs == run.n_static_pcs
        assert stored.name == run.name
        assert stored.launch == run.launch
        for field in ("global_loads", "global_stores", "shared_loads",
                      "shared_stores", "global_load_transactions",
                      "global_store_transactions", "const_loads"):
            assert getattr(stored.mem, field) \
                == getattr(run.mem, field), field

    def test_entries_are_memmaps(self, store, suite_runs):
        stored = store.get(trace_key("pathfinder", SCALE, 0, "v-test"))
        assert isinstance(stored.trace.op_a, np.memmap)
        assert not stored.trace.op_a.flags.writeable

    def test_evaluation_identical_from_store(self, store, suite_runs):
        """A full end-to-end evaluation from the memmap must match the
        live run bit for bit."""
        from repro.core.predictors import run_speculation
        from repro.core.speculation import ST2_DESIGN
        run = suite_runs["binomial"]
        stored = store.get(trace_key("binomial", SCALE, 0, "v-test"))
        live = run_speculation(run.trace, ST2_DESIGN)
        mapped = run_speculation(stored.trace, ST2_DESIGN)
        assert live.thread_misprediction_rate \
            == mapped.thread_misprediction_rate
        assert np.array_equal(live.mispredicted, mapped.mispredicted)


class TestStoreSemantics:
    def test_keys_distinguish_identity(self):
        base = trace_key("k", 1.0, 0, "v1")
        assert trace_key("k2", 1.0, 0, "v1") != base
        assert trace_key("k", 0.5, 0, "v1") != base
        assert trace_key("k", 1.0, 1, "v1") != base
        assert trace_key("k", 1.0, 0, "v2") != base
        assert trace_key("k", 1.0, 0, "v1") == base

    def test_put_is_idempotent(self, store, suite_runs):
        key = trace_key("binomial", SCALE, 0, "v-test")
        assert not store.put(key, suite_runs["binomial"])
        assert len(store) == len(KERNEL_NAMES)

    def test_missing_key(self, store):
        assert not store.has("0" * 40)
        with pytest.raises(OSError):
            store.get("0" * 40)

    def test_header_contents(self, store):
        header = store.header(trace_key("sgemm", SCALE, 0, "v-test"))
        assert header["kernel"] == "sgemm"
        assert header["code_version"] == "v-test"
        assert header["scale"] == SCALE
        assert header["n_rows"] > 0
        assert set(header["digests"]) \
            == {f"add_{c}" for c in _ADD_COLUMNS} \
            | {f"inst_{c}" for c in _INST_COLUMNS}

    def test_default_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "x"))
        assert default_store_dir() == tmp_path / "x"


    def test_trace_nbytes_of_stored_entry(self, store, suite_runs):
        """The per-unit ``trace_bytes`` metric is the same whether it
        is read off a live run or its memory-mapped entry."""
        run = suite_runs["pathfinder"]
        stored = store.get(trace_key("pathfinder", SCALE, 0, "v-test"))
        add = sum(getattr(run.trace, c).nbytes for c in _ADD_COLUMNS)
        inst = sum(getattr(run.insts, c).nbytes for c in _INST_COLUMNS)
        assert trace_nbytes(run.trace) == add
        assert trace_nbytes(run.trace, run.insts) == add + inst
        assert trace_nbytes(stored.trace, stored.insts) == add + inst

    def test_scratch_store_is_process_wide(self):
        import tempfile
        from pathlib import Path

        first = scratch_store()
        assert scratch_store() is first
        assert first.root.is_dir()
        assert first.root.parent == Path(tempfile.gettempdir())


class TestGetMemo:
    """The read-side memo: repeated ``get`` of a hot key returns the
    shared handle, with obs emissions identical to a real open so
    grid metrics stay independent of unit→worker scheduling."""

    @pytest.fixture()
    def memo_store(self, suite_runs, tmp_path):
        store = TraceStore(tmp_path / "m")
        for name in ("binomial", "pathfinder", "qrng_K2",
                     "sortNets_K2", "sgemm"):
            store.put(trace_key(name, SCALE, 0, "v-m"),
                      suite_runs[name], code_version="v-m",
                      scale=SCALE, seed=0)
        return store

    def get_with_obs(self, store, key):
        from repro import obs
        with obs.scoped() as reg:
            stored = store.get(key)
        return stored, reg.snapshot()

    def test_hit_returns_shared_handle(self, memo_store):
        key = trace_key("binomial", SCALE, 0, "v-m")
        first = memo_store.get(key)
        assert memo_store.get(key) is first

    def test_hit_emits_identical_obs(self, memo_store):
        key = trace_key("binomial", SCALE, 0, "v-m")
        _, cold = self.get_with_obs(memo_store, key)
        _, warm = self.get_with_obs(memo_store, key)
        assert warm["counters"] == cold["counters"]
        assert warm["counters"]["trace_store.open"] == 1
        assert warm["counters"]["trace_store.bytes_mapped"] > 0
        assert warm["timers"]["trace_store.get"]["count"] \
            == cold["timers"]["trace_store.get"]["count"] == 1

    def test_memo_is_bounded(self, memo_store):
        from repro.sim.trace_store import GET_MEMO_SIZE
        for name in ("binomial", "pathfinder", "qrng_K2",
                     "sortNets_K2", "sgemm"):
            memo_store.get(trace_key(name, SCALE, 0, "v-m"))
        assert len(memo_store._get_memo) == GET_MEMO_SIZE

    def test_remove_invalidates_memo(self, memo_store):
        key = trace_key("qrng_K2", SCALE, 0, "v-m")
        memo_store.get(key)
        memo_store.remove(key)
        assert key not in memo_store._get_memo
        with pytest.raises(OSError):
            memo_store.get(key)


class TestColumnGeometry:
    """Columns map directly via the geometry recorded in the header;
    entries that predate the ``columns`` record fall back to
    ``np.load`` — byte-identically."""

    def test_header_records_geometry(self, store):
        header = store.header(trace_key("sgemm", SCALE, 0, "v-test"))
        columns = header["columns"]
        assert set(columns) == set(header["digests"])
        geo = columns["add_op_a"]
        assert geo["dtype"] == np.dtype(np.uint64).str
        assert geo["shape"][0] == header["n_rows"]
        assert geo["offset"] > 0

    def test_legacy_entry_without_geometry(self, suite_runs,
                                           tmp_path):
        store = TraceStore(tmp_path / "g")
        key = trace_key("binomial", SCALE, 0, "v-g")
        store.put(key, suite_runs["binomial"], code_version="v-g",
                  scale=SCALE, seed=0)
        direct = store.get(key)

        header_path = store.header_path(key)
        header = json.loads(header_path.read_text())
        del header["columns"]
        header_path.write_text(json.dumps(header))
        fallback = TraceStore(tmp_path / "g").get(key)

        run = suite_runs["binomial"]
        for col in _ADD_COLUMNS:
            assert np.array_equal(getattr(fallback.trace, col),
                                  getattr(run.trace, col)), col
            assert np.array_equal(getattr(fallback.trace, col),
                                  getattr(direct.trace, col)), col
        for col in _INST_COLUMNS:
            assert np.array_equal(getattr(fallback.insts, col),
                                  getattr(run.insts, col)), col


def _race_put(root, key, run, scale, barrier, queue):
    """One racing writer (forked): everyone assembles and renames the
    same key at once."""
    store = TraceStore(root)
    barrier.wait()
    try:
        queue.put(("ok", store.put(key, run, code_version="v-race",
                                   scale=scale, seed=0)))
    except Exception as exc:            # pragma: no cover - fail path
        queue.put(("error", repr(exc)))


class TestConcurrentPublication:
    """Two writers racing to publish the same key must both succeed:
    exactly one creates the entry, the loser discards its identical
    copy, and nobody ever raises or corrupts the store."""

    def test_loser_path_is_deterministic(self, suite_runs, tmp_path,
                                         monkeypatch):
        """Force the exact interleaving: the loser passes the ``has``
        pre-check, fully assembles its copy, and only then finds the
        winner's entry blocking its rename."""
        store = TraceStore(tmp_path / "race")
        run = suite_runs["binomial"]
        key = trace_key("binomial", SCALE, 0, "v-race")
        assert store.put(key, run, code_version="v-race",
                         scale=SCALE, seed=0)

        pre_checks = []

        def blind_has(k):
            # the winner publishes between the loser's pre-check and
            # its rename — model that by blinding the first call only
            pre_checks.append(k)
            return False if len(pre_checks) == 1 else \
                TraceStore.has(store, k)

        monkeypatch.setattr(store, "has", blind_has)
        assert store.put(key, run, code_version="v-race",
                         scale=SCALE, seed=0) is False
        assert store.verify(key) == []
        assert not list(  # the loser's workspace is cleaned up
            c for c in (tmp_path / "race").iterdir()
            if c.name.startswith("."))

    def test_debris_without_header_raises(self, suite_runs, tmp_path,
                                          monkeypatch):
        """A blocking directory that is *not* a published entry (no
        header) must surface, never masquerade as a cache hit."""
        store = TraceStore(tmp_path / "debris")
        run = suite_runs["binomial"]
        key = trace_key("binomial", SCALE, 0, "v-d")
        debris = store.path(key)
        debris.mkdir(parents=True)
        (debris / "leftover.npy").write_bytes(b"junk")
        with pytest.raises(RuntimeError, match="readable header"):
            store.put(key, run, code_version="v-d", scale=SCALE,
                      seed=0)

    def test_multiprocess_race_single_creator(self, suite_runs,
                                              tmp_path):
        """The real thing: four forked writers, one barrier, one key.
        All succeed, exactly one created the entry, and the published
        entry passes a full integrity check."""
        ctx = multiprocessing.get_context("fork")
        run = suite_runs["qrng_K2"]
        key = trace_key("qrng_K2", SCALE, 0, "v-race")
        barrier = ctx.Barrier(4)
        queue = ctx.Queue()
        procs = [ctx.Process(target=_race_put,
                             args=(tmp_path / "mp", key, run, SCALE,
                                   barrier, queue))
                 for _ in range(4)]
        for proc in procs:
            proc.start()
        outcomes = [queue.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        assert all(status == "ok" for status, _ in outcomes), outcomes
        assert sum(created for _, created in outcomes) == 1
        store = TraceStore(tmp_path / "mp")
        assert store.keys() == [key]
        assert store.verify(key) == []


class TestOrphanSweep:
    """Crashed writers leak dot-prefixed publication workspaces that
    ``keys()`` never reports; ``gc()`` must sweep the old ones and
    leave live writers' fresh workspaces alone."""

    def test_gc_sweeps_old_orphans_only(self, suite_runs, tmp_path):
        store = TraceStore(tmp_path / "o")
        key = trace_key("binomial", SCALE, 0, "v-o")
        store.put(key, suite_runs["binomial"], code_version="v-o",
                  scale=SCALE, seed=0)
        old = store.root / ".deadbeef-orphan"
        old.mkdir()
        (old / "partial.npy").write_bytes(b"x")
        os.utime(old, (1, 1))
        fresh = store.root / ".cafef00d-live"
        fresh.mkdir()

        removed = store.gc(current_version="v-o")
        assert removed == [old.name]
        assert not old.exists()
        assert fresh.is_dir()           # a live writer owns this
        assert store.keys() == [key]
        assert store.verify(key) == []

    def test_orphans_invisible_to_keys(self, tmp_path):
        store = TraceStore(tmp_path / "o2")
        store.root.mkdir(parents=True)
        orphan = store.root / ".aaaa-x"
        orphan.mkdir()
        os.utime(orphan, (1, 1))
        assert store.keys() == []
        assert store.orphan_tmp_dirs() == [orphan.name]
        assert store.orphan_tmp_dirs(min_age_s=10**12) == []


class TestVerifyAndGc:
    @pytest.fixture()
    def small_store(self, suite_runs, tmp_path):
        store = TraceStore(tmp_path / "s")
        for name in ("binomial", "pathfinder", "qrng_K2"):
            store.put(trace_key(name, SCALE, 0, "v-old"),
                      suite_runs[name], code_version="v-old",
                      scale=SCALE, seed=0)
        return store

    def test_verify_sound(self, small_store):
        for key in small_store.keys():
            assert small_store.verify(key) == []

    def test_verify_detects_bitflip(self, small_store):
        key = small_store.keys()[0]
        path = small_store.path(key) / "add_op_a.npy"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert any("sha256 mismatch" in p
                   for p in small_store.verify(key))

    def test_verify_detects_truncation(self, small_store):
        key = small_store.keys()[0]
        header_path = small_store.header_path(key)
        header = json.loads(header_path.read_text())
        header["n_rows"] += 7
        header_path.write_text(json.dumps(header))
        assert any("rows" in p for p in small_store.verify(key))

    def test_gc_stale_versions(self, small_store, suite_runs):
        fresh = trace_key("binomial", SCALE, 0, "v-new")
        small_store.put(fresh, suite_runs["binomial"],
                        code_version="v-new", scale=SCALE, seed=0)
        removed = small_store.gc(current_version="v-new")
        assert len(removed) == 3
        assert small_store.keys() == [fresh]

    def test_gc_byte_budget_evicts_oldest(self, small_store):
        import os
        keys = small_store.keys()
        # age the first entry far into the past
        oldest = keys[0]
        os.utime(small_store.header_path(oldest), (1, 1))
        budget = sum(small_store.nbytes(k) for k in keys) \
            - small_store.nbytes(oldest)
        removed = small_store.gc(max_bytes=budget)
        assert removed == [oldest]

    def test_gc_dry_run_removes_nothing(self, small_store):
        removed = small_store.gc(current_version="other", dry_run=True)
        assert len(removed) == 3
        assert len(small_store) == 3
