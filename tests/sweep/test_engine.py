"""The sweep engine end-to-end: completion, kill/resume with zero
re-execution, the prune==exhaustive invariant and resume-compatibility
checks.

Real kernel executions are kept cheap: one short kernel at quarter
scale, with a module-shared result cache so repeated sweeps over the
same grid hit the cache instead of re-simulating.
"""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import obs
from repro.api import SweepSpec
from repro.runner import manifest as manifest_module
from repro.runner.manifest import read_manifest_tolerant
from repro.sweep import (ResumeMismatch, SweepError, SweepOptions,
                         SweepResult, frontiers_equal, run_sweep)
from repro.sweep.specio import load_spec


def small_spec(name="engine-t", **overrides):
    base = dict(name=name, kernels=("qrng_K2",),
                axes=(("mechanism", ("static1", "operand")),
                      ("peek", (False, True))),
                scale=0.25, seed=0, aux=False)
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sweep-cache"))


def make_options(cache_dir, **overrides):
    base = dict(use_cache=True, cache_dir=cache_dir, workers=2,
                registry=obs.Obs())
    base.update(overrides)
    return SweepOptions(**base)


class TestLocalSweep:
    def test_complete_run(self, cache_dir, tmp_path):
        manifest = tmp_path / "sweep.manifest.jsonl"
        result = run_sweep(small_spec(), manifest,
                           make_options(cache_dir))
        assert result.complete
        # 4 combos, all valid, all distinct classes, 1 kernel each
        assert result.executed_units + result.reused_units \
            + result.skipped_units >= len(result.points)
        assert result.frontier
        point_keys = {p.key for p in result.points}
        assert {p.key for p in result.frontier} <= point_keys
        for p in result.points:
            assert set(p.objectives) == {"energy_saved",
                                         "misprediction_rate",
                                         "perf_overhead"}
            assert p.per_kernel.keys() == {"qrng_K2"}

    def test_result_wire_round_trip(self, cache_dir, tmp_path):
        result = run_sweep(small_spec(), tmp_path / "m.jsonl",
                           make_options(cache_dir))
        doc = json.loads(json.dumps(result.to_wire()))
        clone = SweepResult.from_wire(doc)
        assert clone.spec == result.spec
        assert frontiers_equal(list(clone.frontier),
                               list(result.frontier))
        assert clone.executed_units == result.executed_units

    def test_future_result_version_rejected(self, cache_dir,
                                            tmp_path):
        result = run_sweep(small_spec(), tmp_path / "m.jsonl",
                           make_options(cache_dir))
        doc = result.to_wire()
        doc["sweep_result_version"] = 99
        with pytest.raises(SweepError, match="newer"):
            SweepResult.from_wire(doc)

    def test_manifest_records_every_done_unit(self, cache_dir,
                                              tmp_path):
        manifest = tmp_path / "m.jsonl"
        result = run_sweep(small_spec(), manifest,
                           make_options(cache_dir))
        header, units, n_bad = read_manifest_tolerant(manifest)
        assert n_bad == 0
        assert header["kind"] == "sweep"
        assert header["sweep_digest"] == small_spec().digest()
        assert len(units) == result.executed_units \
            + result.reused_units


class TestResume:
    def test_killed_sweep_resumes_with_zero_reexecution(
            self, tmp_path):
        """The acceptance criterion: kill mid-sweep (via the unit
        budget), restart, and no done unit runs again — proven with
        the cache off, so reuse can only come from the manifest."""
        manifest = tmp_path / "resume.jsonl"
        first = run_sweep(
            small_spec(), manifest,
            SweepOptions(use_cache=False, workers=2, max_units=2,
                         prune=False, registry=obs.Obs()))
        assert not first.complete
        assert first.executed_units == 2

        registry = obs.Obs()
        second = run_sweep(
            small_spec(), manifest,
            SweepOptions(use_cache=False, workers=2, prune=False,
                         registry=registry))
        assert second.complete
        assert second.reused_units == 2
        assert second.executed_units == 2
        counters = registry.snapshot()["counters"]
        assert counters["sweep.units.reused"] == 2
        assert counters["sweep.units.executed"] == 2

    def test_interrupted_resume_keeps_every_unit(self, tmp_path,
                                                 monkeypatch):
        """A resumed sweep rewrites its manifest whole: a failure
        while the finished units are being rewritten leaves the
        manifest as the killed run wrote it, and a clean rerun reuses
        every unit."""
        manifest = tmp_path / "resume.jsonl"

        def options(**overrides):
            return SweepOptions(use_cache=False, workers=1, prune=False,
                                registry=obs.Obs(), **overrides)

        run_sweep(small_spec(), manifest, options(max_units=3))
        _, killed, _ = read_manifest_tolerant(manifest)
        assert len(killed) == 3

        class Interrupted(Exception):
            pass

        rewritten = []

        def dumps(obj, *args, **kwargs):
            if obj.get("type") == "unit":
                rewritten.append(obj)
                if len(rewritten) == 2:
                    raise Interrupted
            return json.dumps(obj, *args, **kwargs)

        monkeypatch.setattr(manifest_module, "json", SimpleNamespace(
            dumps=dumps, loads=json.loads))
        with pytest.raises(Interrupted):
            run_sweep(small_spec(), manifest, options())
        monkeypatch.undo()
        _, units, torn = read_manifest_tolerant(manifest)
        assert (units, torn) == (killed, 0)
        assert [p.name for p in tmp_path.iterdir()] == [manifest.name]

        rerun = run_sweep(small_spec(), manifest, options())
        assert rerun.complete
        assert (rerun.reused_units, rerun.executed_units) == (3, 1)

    def test_resumed_frontier_matches_fresh(self, cache_dir,
                                            tmp_path):
        partial = tmp_path / "partial.jsonl"
        run_sweep(small_spec(), partial,
                  make_options(cache_dir, max_units=2, prune=False))
        resumed = run_sweep(small_spec(), partial,
                            make_options(cache_dir, prune=False))
        fresh = run_sweep(small_spec(), tmp_path / "fresh.jsonl",
                          make_options(cache_dir, prune=False))
        assert frontiers_equal(list(resumed.frontier),
                               list(fresh.frontier))

    def test_spec_change_raises_resume_mismatch(self, cache_dir,
                                                tmp_path):
        manifest = tmp_path / "m.jsonl"
        run_sweep(small_spec(), manifest, make_options(cache_dir))
        with pytest.raises(ResumeMismatch):
            run_sweep(small_spec(seed=1), manifest,
                      make_options(cache_dir))

    def test_foreign_manifest_rejected(self, cache_dir, tmp_path):
        """An st2-run manifest (valid header, no sweep rider) must be
        refused, not silently overwritten."""
        manifest = tmp_path / "foreign.jsonl"
        manifest.write_text(json.dumps(
            {"type": "run", "manifest_version": 1,
             "n_units": 0}) + "\n")
        with pytest.raises(ResumeMismatch):
            run_sweep(small_spec(), manifest, make_options(cache_dir))

    def test_torn_tail_line_tolerated(self, cache_dir, tmp_path):
        manifest = tmp_path / "torn.jsonl"
        run_sweep(small_spec(), manifest,
                  make_options(cache_dir, max_units=2, prune=False))
        with manifest.open("a") as fh:
            fh.write('{"kernel": "qrng_K2", "conf')   # torn write
        registry = obs.Obs()
        result = run_sweep(small_spec(), manifest,
                           make_options(cache_dir, prune=False,
                                        registry=registry))
        assert result.complete
        counters = registry.snapshot()["counters"]
        assert counters["sweep.resume.torn_lines"] == 1


CI_SPEC = Path(__file__).resolve().parents[2] / "benchmarks" \
    / "sweep_ci.json"


def ci_spec(seed):
    """The CI grid at ``seed``: thread_key is dead under both of its
    mechanisms, so 8 combos collapse into 4 equivalence classes."""
    return dataclasses.replace(load_spec(CI_SPEC), seed=seed)


class TestPruneInvariant:
    @pytest.mark.parametrize("spec, chunk, dominated", [
        (small_spec(name="invariant",
                    axes=(("mechanism", ("static1", "operand", "prev")),
                          ("peek", (False, True)),
                          ("thread_key", ("", "ltid")))), None, None),
        (ci_spec(0), 1, [1]), (ci_spec(0), 2, []),
        (ci_spec(1), 1, [1]), (ci_spec(1), 2, []),
    ], ids=["invariant", "ci-seed0-chunk1", "ci-seed0-chunk2",
            "ci-seed1-chunk1", "ci-seed1-chunk2"])
    def test_pruned_equals_exhaustive(self, cache_dir, tmp_path, spec,
                                      chunk, dominated):
        """The tentpole invariant on grids with real equivalence
        classes and a real domination-prunable tail, at two wave
        sizes: on the CI grid, one-unit waves prune a config after
        its first kernel and two-unit waves prune none."""
        pruned = run_sweep(spec, tmp_path / "p.jsonl",
                           make_options(cache_dir, prune=True,
                                        prune_chunk=chunk))
        exhaustive = run_sweep(spec, tmp_path / "e.jsonl",
                               make_options(cache_dir, prune=False,
                                            prune_chunk=chunk))
        assert pruned.complete and exhaustive.complete
        assert frontiers_equal(list(pruned.frontier),
                               list(exhaustive.frontier))
        # pruning skipped the equivalent members exhaustive ran
        assert pruned.skipped_units > 0
        assert exhaustive.skipped_units == 0
        assert pruned.executed_units + pruned.reused_units \
            < exhaustive.executed_units + exhaustive.reused_units
        if dominated is not None:
            assert [info["units_skipped"]
                    for info in pruned.pruned.values()
                    if info["reason"] == "dominated"] == dominated

    def test_exhaustive_verifies_equivalence(self, cache_dir,
                                             tmp_path):
        """Exhaustive mode re-executes every class member and merges
        them only when the objectives agree bit-for-bit."""
        spec = small_spec(name="verify",
                          axes=(("mechanism", ("static1",)),
                                ("thread_key", ("", "gtid"))))
        result = run_sweep(spec, tmp_path / "v.jsonl",
                           make_options(cache_dir, prune=False))
        assert result.complete
        (point,) = result.points
        assert sorted(point.members) == ["Gtid+staticOne",
                                         "staticOne"]


class TestOptions:
    def test_unknown_kernel_propagates(self, cache_dir, tmp_path):
        with pytest.raises(KeyError):
            run_sweep(small_spec(kernels=("warp_drive",)),
                      tmp_path / "m.jsonl", make_options(cache_dir))


class TestEvaluationPool:
    def test_one_pool_and_trace_locality(self, tmp_path, monkeypatch):
        """A 2-worker sweep starts one evaluation pool for all its
        waves, and every unit of one trace runs on the same worker."""
        from repro.runner.pool import WorkerPool, run_unit

        sends = []                  # (pool, trace key, worker slot)
        real = WorkerPool._send

        def spy(pool, slot, task):
            if task.fn is run_unit:
                sends.append((pool, task.key, pool._slots.index(slot)))
            return real(pool, slot, task)

        monkeypatch.setattr(WorkerPool, "_send", spy)
        spec = small_spec(
            name="engine-pool",
            kernels=("qrng_K2", "sortNets_K2", "qrng_K1", "pathfinder"),
            axes=(("mechanism", ("operand", "prev", "valhalla")),),
            scale=0.1)
        result = run_sweep(spec, tmp_path / "m.jsonl",
                           SweepOptions(use_cache=False, workers=2,
                                        registry=obs.Obs()))
        assert result.complete
        assert len({pool for pool, _, _ in sends}) == 1
        slots = {}
        for _, key, slot in sends:
            slots.setdefault(key, set()).add(slot)
        assert len(slots) == 4
        assert all(len(s) == 1 for s in slots.values()), slots
        assert len(sends) > len(slots), "no trace ran twice"
