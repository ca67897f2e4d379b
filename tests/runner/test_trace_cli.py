"""``st2-trace`` CLI: subcommands, exit codes, store effects."""

from __future__ import annotations

import pytest

from repro.runner.cache import code_version
from repro.runner.trace_cli import main
from repro.sim.trace_store import TraceStore, trace_key

SMOKE = ("binomial", "pathfinder", "qrng_K2")


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store populated once via the CLI itself."""
    root = tmp_path_factory.mktemp("store")
    rc = main(["--store", str(root), "capture", "--kernels", "smoke",
               "--scale", "0.15", "--workers", "1"])
    assert rc == 0
    return root


class TestCapture:
    def test_populates_one_entry_per_kernel(self, warm_store, capsys):
        store = TraceStore(warm_store)
        assert len(store) == len(SMOKE)
        kernels = {h["kernel"] for _, h in store.entries()}
        assert kernels == set(SMOKE)

    def test_recapture_is_warm(self, warm_store, capsys):
        rc = main(["--store", str(warm_store), "capture",
                   "--kernels", "smoke", "--scale", "0.15"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 captured, 3 already warm" in out

    def test_unknown_kernel_exit_2(self, tmp_path, capsys):
        rc = main(["--store", str(tmp_path), "capture",
                   "--kernels", "bogus"])
        assert rc == 2
        assert "unknown kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"), ("--workers", "-3"),
        ("--scale", "0"), ("--scale", "-1"), ("--scale", "inf")])
    def test_out_of_range_flags_exit_2(self, tmp_path, capsys, flag,
                                       value):
        rc = main(["--store", str(tmp_path), "capture",
                   "--kernels", "qrng_K2", flag, value])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert len(TraceStore(tmp_path)) == 0

    def test_per_kernel_seeds_change_keys(self, warm_store):
        version = code_version()
        shared = trace_key("binomial", 0.15, 0, version)
        assert TraceStore(warm_store).has(shared)
        derived = main(["--store", str(warm_store), "capture",
                        "--kernels", "binomial", "--scale", "0.15",
                        "--per-kernel-seeds"])
        assert derived == 0
        assert len(TraceStore(warm_store)) == len(SMOKE) + 1


class TestLs:
    def test_lists_entries(self, warm_store, capsys):
        rc = main(["--store", str(warm_store), "ls"])
        assert rc == 0
        out = capsys.readouterr().out
        for kernel in SMOKE:
            assert kernel in out
        assert "current" in out

    def test_empty_store(self, tmp_path, capsys):
        rc = main(["--store", str(tmp_path / "none"), "ls"])
        assert rc == 0
        assert "empty" in capsys.readouterr().out


class TestVerify:
    def test_sound_store_exit_0(self, warm_store, capsys):
        rc = main(["--store", str(warm_store), "verify"])
        assert rc == 0
        assert "sound" in capsys.readouterr().out

    def test_damaged_entry_exit_1(self, warm_store, capsys):
        store = TraceStore(warm_store)
        key = store.keys()[0]
        victim = store.path(key) / "add_value.npy"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0x55
        victim.write_bytes(bytes(raw))
        try:
            rc = main(["--store", str(warm_store), "verify"])
            assert rc == 1
            assert "sha256 mismatch" in capsys.readouterr().out
        finally:
            raw[-1] ^= 0x55                  # heal for later tests
            victim.write_bytes(bytes(raw))

    def test_missing_key_exit_1(self, warm_store, capsys):
        rc = main(["--store", str(warm_store), "verify", "f" * 40])
        assert rc == 1


class TestGc:
    def test_no_criteria_exit_2(self, tmp_path, capsys):
        rc = main(["--store", str(tmp_path), "gc"])
        assert rc == 2

    def test_dry_run_keeps_entries(self, warm_store, capsys):
        store = TraceStore(warm_store)
        before = len(store)
        rc = main(["--store", str(warm_store), "gc", "--max-bytes",
                   "0", "--dry-run"])
        assert rc == 0
        assert len(store) == before

    def test_stale_gc_keeps_current_version(self, warm_store, capsys):
        rc = main(["--store", str(warm_store), "gc", "--stale"])
        assert rc == 0
        assert len(TraceStore(warm_store)) > 0   # all still current
