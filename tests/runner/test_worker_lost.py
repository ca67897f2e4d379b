"""A worker process killed mid-unit ends in :class:`WorkerLost` or in
a clean retry — in the runner, in the sweep (which a rerun then
resumes) and in serve — never in a hang.

Each test patches ``repro.runner.pool.execute_unit`` before the pool
forks, so the workers inherit a version that calls ``os._exit(9)`` on
one kernel.  Every test runs under a ``SIGALRM`` bound, so a dead
worker that hangs the pool fails the test instead of stalling the
suite.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro import obs
from repro.api import JobSpec, SweepSpec
from repro.runner import (RunOptions, WorkerLost, build_units,
                          results_equal, run_units)
from repro.runner import pool as runner_pool
from repro.runner.cache import ResultCache
from repro.runner.manifest import read_manifest_tolerant
from repro.runner.units import resolve_configs
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient
from repro.sim.trace_store import TraceStore
from repro.sweep import SweepOptions, frontiers_equal, run_sweep
from tests.serve.conftest import ServerHarness

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not hasattr(signal, "SIGALRM"),
    reason="workers inherit the fault through fork; the bound is SIGALRM")

KERNELS = ["qrng_K2", "sortNets_K2"]
BOUND_S = 60


@pytest.fixture(autouse=True)
def hard_bound():
    def expire(signum, frame):
        signal.alarm(5)         # again, should something swallow this
        raise TimeoutError(f"no answer within {BOUND_S} s: a dead worker "
                           f"hung the pool")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(BOUND_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def kill_on(kernel: str, marker=None):
    """An ``execute_unit`` that kills its worker (exit code 9) on
    ``kernel``: on every attempt, or only while ``marker`` (a path it
    creates) does not exist yet."""
    real = runner_pool.execute_unit
    parent = os.getpid()

    def execute_unit(spec, **kwargs):
        if spec.kernel == kernel:
            assert os.getpid() != parent, "the unit ran inline"
            if marker is None or not marker.exists():
                if marker is not None:
                    marker.touch()
                os._exit(9)
        return real(spec, **kwargs)

    return execute_unit


def options(tmp_path, workers=2) -> RunOptions:
    return RunOptions(workers=workers, use_cache=False,
                      trace_store=TraceStore(tmp_path / "traces"))


class TestRunner:
    def test_kill_on_every_attempt_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_pool, "execute_unit",
                            kill_on("sortNets_K2"))
        units = build_units(KERNELS, scale=0.1, aux=False)
        with pytest.raises(WorkerLost) as lost:
            run_units(units, options(tmp_path))
        assert "sortNets_K2" in lost.value.unit
        assert lost.value.exitcode == 9

    def test_lost_unit_names_one_unit(self, tmp_path, monkeypatch):
        """With two configs per kernel, a lost worker fails one unit,
        not the trace's group: ``unit`` is that unit's label."""
        monkeypatch.setattr(runner_pool, "execute_unit",
                            kill_on("sortNets_K2"))
        units = build_units(KERNELS, configs=resolve_configs(
            ["st2", "valhalla"]), scale=0.1, aux=False)
        with pytest.raises(WorkerLost) as lost:
            run_units(units, options(tmp_path))
        assert lost.value.unit in {u.label for u in units
                                   if u.kernel == "sortNets_K2"}

    def test_kill_on_first_attempt_retries(self, tmp_path, monkeypatch):
        units = build_units(KERNELS, scale=0.1, aux=False)
        serial = run_units(units, options(tmp_path, workers=1))
        marker = tmp_path / "killed-once"
        monkeypatch.setattr(runner_pool, "execute_unit",
                            kill_on("sortNets_K2", marker))
        pooled = run_units(units, options(tmp_path))
        assert marker.exists(), "the fault never fired"
        for s, p in zip(serial, pooled):
            assert results_equal(s, p), s.kernel


class TestSweep:
    SPEC = SweepSpec(name="worker-lost",
                     kernels=("qrng_K2", "sortNets_K2", "qrng_K1"),
                     axes=(("mechanism", ("static1", "operand")),),
                     scale=0.1, seed=0, aux=False)

    def sweep(self, tmp_path, manifest):
        opts = SweepOptions(use_cache=False, workers=2,
                            trace_store=str(tmp_path / "traces"),
                            registry=obs.Obs())
        return opts, lambda: run_sweep(self.SPEC, manifest, opts)

    def test_lost_sweep_resumes(self, tmp_path, monkeypatch):
        """The first wave (two kernels) finishes; the third kernel's
        worker dies twice.  The manifest keeps the finished units and
        a rerun reuses exactly those."""
        manifest = tmp_path / "lost.jsonl"
        opts, run = self.sweep(tmp_path, manifest)
        with monkeypatch.context() as patch:
            patch.setattr(runner_pool, "execute_unit", kill_on("qrng_K1"))
            with pytest.raises(WorkerLost, match="qrng_K1"):
                run()
        executed = opts.registry.snapshot()["counters"][
            "sweep.units.executed"]
        assert executed == 2
        _, units, torn = read_manifest_tolerant(manifest)
        assert torn == 0 and len(units) == executed

        _, again = self.sweep(tmp_path, manifest)
        resumed = again()
        _, fresh = self.sweep(tmp_path, tmp_path / "fresh.jsonl")
        clean = fresh()
        assert resumed.complete
        assert resumed.reused_units == executed
        assert resumed.executed_units + executed == clean.executed_units
        assert frontiers_equal(list(resumed.frontier),
                               list(clean.frontier))


class TestServe:
    def test_lost_unit_fails_its_job_only(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_pool, "execute_unit",
                            kill_on("qrng_K2"))
        registry = obs.Obs()
        app = ServeApp(shards=2, trace_store=TraceStore(tmp_path / "t"),
                       cache=ResultCache(tmp_path / "cache"),
                       registry=registry)
        server = ServerHarness(app).start()
        try:
            with ServeClient(server.address, client="faults") as sc:
                lost = sc.submit(JobSpec(kernels=("qrng_K2",),
                                         configs=("st2",), scale=0.1))
                final = sc.wait(lost.job_id, timeout=60)
                assert final.state == "failed"
                assert "worker lost running qrng_K2[" in final.error
                assert "exit code 9" in final.error
                ok = sc.submit(JobSpec(kernels=("sortNets_K2",),
                                       configs=("st2",), scale=0.1))
                assert sc.wait(ok.job_id, timeout=60).state == "done"
                assert sc.health()["ok"] is True
        finally:
            server.stop()
        assert registry.snapshot()["counters"]["serve.units.errors"] == 1


class TestFrontEnds:
    """Each CLI reports a lost worker in one line and exits 1."""

    def test_st2_run(self, tmp_path, monkeypatch, capsys):
        from repro.runner.cli import main

        monkeypatch.setattr(runner_pool, "execute_unit",
                            kill_on("sortNets_K2"))
        code = main(["--kernels", ",".join(KERNELS), "--scale", "0.1",
                     "--workers", "2", "--no-cache", "--no-aux",
                     "--trace-store", str(tmp_path / "traces"),
                     "--out", str(tmp_path / "m.jsonl"), "--quiet"])
        err = capsys.readouterr().err.strip()
        assert code == 1
        assert err.startswith("st2-run: worker lost running sortNets_K2[")
        assert err.endswith("(exit code 9, after one retry)")

    def test_st2_sweep_run(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.sweep.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(TestSweep.SPEC.to_wire()))
        monkeypatch.setattr(runner_pool, "execute_unit",
                            kill_on("qrng_K1"))
        code = main(["run", str(spec), "--out", str(tmp_path / "s.json"),
                     "--workers", "2", "--no-cache", "--quiet",
                     "--trace-store", str(tmp_path / "traces")])
        err = capsys.readouterr().err.strip()
        assert code == 1
        assert err.startswith("st2-sweep: worker lost running qrng_K1[")
        assert "(exit code 9, after one retry); rerun the same command " \
            "to resume from" in err

    def test_st2_trace_capture(self, tmp_path, monkeypatch, capsys):
        from repro.runner.trace_cli import main

        real = runner_pool.capture_trace
        parent = os.getpid()

        def capture_trace(store, key, kernel, *args):
            if kernel == "sortNets_K2":
                assert os.getpid() != parent, "the capture ran inline"
                os._exit(9)
            return real(store, key, kernel, *args)

        monkeypatch.setattr(runner_pool, "capture_trace", capture_trace)
        code = main(["--store", str(tmp_path / "traces"), "capture",
                     "--kernels", ",".join(KERNELS), "--scale", "0.1",
                     "--workers", "2"])
        err = capsys.readouterr().err.strip()
        assert code == 1
        assert err == ("st2-trace: worker lost running sortNets_K2 "
                       "(exit code 9, after one retry)")
