"""A damaged trace-store entry ends in :class:`TraceStoreCorrupt` —
from ``TraceStore.get`` and as one line and exit code 1 from
``st2-run``, ``st2-sweep run`` and ``st2-trace capture`` — never in
numpy's ``mmap length is greater than file size`` traceback.

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
from repro.sim.trace_store import (TraceStore, TraceStoreCorrupt,
                                   trace_key)
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


DAMAGE = {"truncated": truncate, "zero-length": empty, "missing": remove}


@pytest.fixture(scope="module")
def clean_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean")
    assert trace_main(["--store", str(root), "capture", "--kernels",
                       KERNEL, "--scale", str(SCALE),
                       "--workers", "1"]) == 0
    return root


@pytest.fixture(params=sorted(DAMAGE))
def damaged(request, clean_store, tmp_path):
    """``(store root, key, damage)``: a copy of the clean store with one
    column damaged."""
    import shutil

    root = tmp_path / "traces"
    shutil.copytree(clean_store, root)
    key = trace_key(KERNEL, SCALE, 0, code_version())
    DAMAGE[request.param](root / key / f"{COLUMN}.npy")
    return root, key, request.param


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "Traceback" not in err, err
    return err


class TestGet:
    def test_raises_typed_error(self, damaged):
        root, key, _ = damaged
        with pytest.raises(TraceStoreCorrupt) as info:
            TraceStore(root).get(key)
        assert (info.value.key, info.value.column) == (key, COLUMN)
        assert key in str(info.value) and COLUMN in str(info.value)

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
        root, key, _ = damaged
        rc = run_main(["--kernels", KERNEL, "--configs", "st2",
                       "--scale", str(SCALE), "--trace-store", str(root),
                       "--no-cache", "--quiet", "--workers", workers,
                       "--out", str(tmp_path / "m.jsonl")])
        assert rc == 1
        err = one_line_error(capsys)
        assert err.startswith("st2-run: ") and COLUMN in err and key in err

    def test_st2_sweep_run(self, damaged, tmp_path, capsys):
        root, key, _ = damaged
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
        assert err.startswith("st2-sweep: ") and COLUMN in err

    def test_st2_trace_capture(self, damaged, capsys):
        root, key, _ = damaged
        rc = trace_main(["--store", str(root), "capture", "--kernels",
                         KERNEL, "--scale", str(SCALE), "--workers", "1"])
        assert rc == 1
        err = one_line_error(capsys)
        assert err.startswith("st2-trace: ") and COLUMN in err
