"""A damaged trace-store entry — a column or its ``header.json`` —
ends in :class:`TraceStoreCorrupt` — from ``TraceStore.get`` and as
one line and exit code 1 from ``st2-run``, ``st2-sweep run`` and
``st2-trace capture`` / ``ls`` — never in numpy's ``mmap length is
greater than file size`` or a ``JSONDecodeError`` traceback.
``st2-trace verify`` reports and ``st2-trace gc`` collects an entry
whose header is damaged.  An entry whose ``header.json`` is missing (a
half-deleted entry) ends the same way when it is re-captured, and any
``st2-trace gc`` collects it.

Every test runs under the ``SIGALRM`` bound of
``tests/runner/test_worker_lost.py``, so a damaged entry that hangs a
pool fails the test instead of stalling the suite.
"""

from __future__ import annotations

import json
import pickle
import signal

import pytest

from repro.runner.cache import code_version
from repro.runner.cli import main as run_main
from repro.runner.trace_cli import main as trace_main
from repro.sim.trace_store import (HEADER_NAME, TraceStore,
                                   TraceStoreCorrupt, trace_key)
from repro.sweep.cli import main as sweep_main

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                                reason="the bound is SIGALRM")

KERNEL = "qrng_K2"
SCALE = 0.25
COLUMN = "add_op_a"
BOUND_S = 60


@pytest.fixture(autouse=True)
def hard_bound():
    def expire(signum, frame):
        signal.alarm(5)
        raise TimeoutError(f"no answer within {BOUND_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(BOUND_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def truncate(path):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def empty(path):
    path.write_bytes(b"")


def remove(path):
    path.unlink()


def not_json(path):
    path.write_bytes(path.read_bytes()[:7])


def edit_header(edit):
    def damage(path):
        header = json.loads(path.read_text())
        edit(header)
        path.write_text(json.dumps(header))
    return damage


#: ``name -> (damaged file, damage)``.
DAMAGE = {
    "truncated": (COLUMN, truncate),
    "zero-length": (COLUMN, empty),
    "missing": (COLUMN, remove),
    "header-zero-length": (HEADER_NAME, empty),
    "header-not-json": (HEADER_NAME, not_json),
    "header-no-columns": (HEADER_NAME,
                          edit_header(lambda h: h.pop("columns"))),
    "header-format-99": (HEADER_NAME,
                         edit_header(lambda h: h.update(
                             format_version=99))),
    "header-shape-null": (HEADER_NAME,
                          edit_header(lambda h: h["columns"]["add_pc"]
                                      .update(shape=None))),
    "header-dtype-zz": (HEADER_NAME,
                        edit_header(lambda h: h["columns"]["add_pc"]
                                    .update(dtype="zz"))),
}
HEADER_DAMAGE = sorted(k for k, (f, _) in DAMAGE.items()
                       if f == HEADER_NAME)


@pytest.fixture(scope="module")
def clean_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean")
    assert trace_main(["--store", str(root), "capture", "--kernels",
                       KERNEL, "--scale", str(SCALE),
                       "--workers", "1"]) == 0
    return root


def damage_copy(clean_store, tmp_path, name):
    """``(store root, key, damaged file)``: a copy of the clean store
    with one file of its entry damaged as ``DAMAGE[name]`` says."""
    import shutil

    root = tmp_path / "traces"
    shutil.copytree(clean_store, root)
    key = trace_key(KERNEL, SCALE, 0, code_version())
    target, damage = DAMAGE[name]
    damage(root / key / (target if target == HEADER_NAME
                         else f"{target}.npy"))
    return root, key, target


@pytest.fixture(params=sorted(DAMAGE))
def damaged(request, clean_store, tmp_path):
    return damage_copy(clean_store, tmp_path, request.param)


@pytest.fixture(params=HEADER_DAMAGE)
def damaged_header(request, clean_store, tmp_path):
    return damage_copy(clean_store, tmp_path, request.param)


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "Traceback" not in err, err
    return err


class TestGet:
    def test_raises_typed_error(self, damaged):
        root, key, target = damaged
        with pytest.raises(TraceStoreCorrupt) as info:
            TraceStore(root).get(key)
        assert (info.value.key, info.value.column) == (key, target)
        assert key in str(info.value) and target in str(info.value)

    def test_clean_entry_opens(self, clean_store):
        key = trace_key(KERNEL, SCALE, 0, code_version())
        TraceStore(clean_store).check(key)
        assert len(TraceStore(clean_store).get(key).trace) > 0

    def test_error_survives_a_worker_round_trip(self):
        exc = pickle.loads(pickle.dumps(
            TraceStoreCorrupt("k", "add_pc", "is missing")))
        assert (exc.key, exc.column, exc.reason) \
            == ("k", "add_pc", "is missing")
        assert str(exc).startswith("trace-store entry k is damaged")


class TestClis:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_st2_run(self, damaged, tmp_path, capsys, workers):
        root, key, target = damaged
        rc = run_main(["--kernels", KERNEL, "--configs", "st2",
                       "--scale", str(SCALE), "--trace-store", str(root),
                       "--no-cache", "--quiet", "--workers", workers,
                       "--out", str(tmp_path / "m.jsonl")])
        assert rc == 1
        err = one_line_error(capsys)
        assert err.startswith("st2-run: ") and target in err and key in err

    def test_st2_sweep_run(self, damaged, tmp_path, capsys):
        root, key, target = damaged
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema_version": 1, "name": "corrupt", "kernels": [KERNEL],
            "axes": {"mechanism": ["static1", "operand"]},
            "scale": SCALE, "seed": 0, "aux": False}))
        rc = sweep_main(["run", str(spec), "--out",
                         str(tmp_path / "sweep.json"), "--trace-store",
                         str(root), "--no-cache", "--workers", "1",
                         "--quiet"])
        assert rc == 1
        err = one_line_error(capsys)
        assert err.startswith("st2-sweep: ") and target in err

    def test_st2_trace_capture(self, damaged, capsys):
        root, key, target = damaged
        rc = trace_main(["--store", str(root), "capture", "--kernels",
                         KERNEL, "--scale", str(SCALE), "--workers", "1"])
        assert rc == 1
        err = one_line_error(capsys)
        assert err.startswith("st2-trace: ") and target in err


class TestDamagedHeader:
    def test_st2_trace_ls(self, damaged_header, capsys):
        root, key, _ = damaged_header
        assert trace_main(["--store", str(root), "ls"]) == 1
        err = one_line_error(capsys)
        assert err.startswith("st2-trace: ") and key in err \
            and HEADER_NAME in err

    def test_st2_trace_verify_reports(self, damaged_header, capsys):
        root, key, _ = damaged_header
        assert trace_main(["--store", str(root), "verify"]) == 1
        assert f"{key[:12]}: unreadable header" in capsys.readouterr().out

    def test_st2_trace_gc_collects(self, damaged_header, capsys):
        root, key, _ = damaged_header
        assert trace_main(["--store", str(root), "gc", "--stale"]) == 0
        assert f"removed {key}" in capsys.readouterr().out
        assert TraceStore(root).keys() == []


@pytest.fixture
def headless(clean_store, tmp_path):
    """``(store root, key)``: a copy of the clean store whose entry
    lost its ``header.json``."""
    import shutil

    root = tmp_path / "traces"
    shutil.copytree(clean_store, root)
    key = trace_key(KERNEL, SCALE, 0, code_version())
    remove(root / key / HEADER_NAME)
    return root, key


class TestHalfDeletedEntry:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_st2_run(self, headless, tmp_path, capsys, workers):
        root, key = headless
        rc = run_main(["--kernels", KERNEL, "--configs", "st2",
                       "--scale", str(SCALE), "--trace-store", str(root),
                       "--no-cache", "--quiet", "--workers", workers,
                       "--out", str(tmp_path / "m.jsonl")])
        assert rc == 1
        err = one_line_error(capsys)
        assert err.startswith("st2-run: ") and key in err
        assert f"{HEADER_NAME} is missing" in err

    def test_st2_trace_capture(self, headless, capsys):
        root, key = headless
        rc = trace_main(["--store", str(root), "capture", "--kernels",
                         KERNEL, "--scale", str(SCALE), "--workers", "1"])
        assert rc == 1
        err = one_line_error(capsys)
        assert err.startswith("st2-trace: ") and key in err

    def test_st2_trace_gc_collects(self, headless, capsys):
        root, key = headless
        assert TraceStore(root).keys() == []
        assert trace_main(["--store", str(root), "gc", "--stale"]) == 0
        assert f"removed {key}" in capsys.readouterr().out
        assert not (root / key).exists()
