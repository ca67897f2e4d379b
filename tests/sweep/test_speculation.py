"""The sweep runs one wave ahead of its commit point: a pooled sweep,
pruned or exhaustive, commits exactly what the inline sweep commits,
in the same order, with the same counters — and a speculated unit that
the between-wave checks discard leaves no trace, not even its
exception.

The faults are injected by patching ``repro.runner.pool.execute_unit``
before the evaluation pool forks, so the workers inherit them; every
test runs under the ``SIGALRM`` bound of ``test_worker_lost``.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro import obs
from repro.api import SweepSpec
from repro.runner import pool as runner_pool
from repro.runner.cache import ResultCache
from repro.runner.manifest import read_manifest_tolerant
from repro.runner.units import comparable
from repro.sweep import SweepOptions, run_sweep
from tests.runner.test_worker_lost import hard_bound, pytestmark  # noqa: F401

PERF_SPEC = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" \
    / "sweep.json"


def perf_spec() -> SweepSpec:
    """The perf sweep's kernels and axes at scale 0.1, where configs
    are pruned by domination part-way through their kernels."""
    doc = json.loads(PERF_SPEC.read_text())
    doc.pop("engine", None)
    doc["scale"] = 0.1
    return SweepSpec.from_wire(doc)


def sweep(tmp_path, name, workers, **overrides):
    """Run the perf spec; returns ``(result, manifest units, counters,
    options)``."""
    opts = SweepOptions(workers=workers, prune_chunk=2, use_cache=False,
                        trace_store=str(tmp_path / f"{name}-traces"),
                        registry=obs.Obs())
    for field, value in overrides.items():
        setattr(opts, field, value)
    manifest = tmp_path / f"{name}.jsonl"
    result = run_sweep(perf_spec(), manifest, opts)
    _, units, torn = read_manifest_tolerant(manifest)
    assert torn == 0
    return result, units, opts.registry.snapshot()["counters"], opts


def comparable_units(units) -> list:
    return [comparable(unit) for unit in units]


@pytest.fixture(scope="module")
def inline(tmp_path_factory):
    """The sequential reference: one worker, nothing issued ahead."""
    tmp = tmp_path_factory.mktemp("inline")
    return sweep(tmp, "inline", workers=1, use_cache=True,
                 cache_dir=str(tmp / "cache"))


@pytest.fixture(scope="module")
def exhaustive(tmp_path_factory):
    """The sequential ``--no-prune`` reference."""
    return sweep(tmp_path_factory.mktemp("exhaustive"), "exhaustive",
                 workers=1, prune=False)


def own(counters) -> dict:
    """The counters a sweep's results fix: all but those of
    speculation and of capture stages."""
    return {name: value for name, value in counters.items()
            if not name.startswith(("sweep.speculative.",
                                    "runner.traces."))}


def wire(points) -> list:
    return [p.to_wire() for p in points]


def fail_where(predicate):
    """An ``execute_unit`` that raises on every unit whose
    ``(config, kernel)`` cell satisfies ``predicate``."""
    real = runner_pool.execute_unit

    def execute_unit(spec, **kwargs):
        if predicate((spec.config.name, spec.kernel)):
            raise ValueError(f"injected fault in {spec.label}")
        return real(spec, **kwargs)

    return execute_unit


def cells(units) -> set:
    return {(unit["config"], unit["kernel"]) for unit in units}


class TestEquivalence:
    def test_pooled_equals_inline(self, tmp_path, inline):
        """Same units in the same order, same frontier, prune
        decisions and counters; speculation both commits and
        discards; the cache holds exactly the committed units."""
        ref, ref_units, ref_counters, _ = inline
        cache = tmp_path / "cache"
        result, units, counters, _ = sweep(
            tmp_path, "pooled", workers=2, use_cache=True,
            cache_dir=str(cache))

        assert comparable_units(units) == comparable_units(ref_units)
        assert wire(result.frontier) == wire(ref.frontier)
        assert result.pruned == ref.pruned
        assert any(v["reason"] == "dominated"
                   and 0 < v["units_skipped"] < len(ref.kernels)
                   for v in ref.pruned.values()), \
            "no config was pruned part-way: nothing to discard"
        assert (result.executed_units, result.skipped_units) \
            == (ref.executed_units, ref.skipped_units)
        assert own(counters) == own(ref_counters)
        assert "sweep.speculative.committed" not in ref_counters
        assert counters["sweep.speculative.committed"] >= 1
        assert counters["sweep.speculative.discarded"] >= 1
        assert {p.stem for p in ResultCache(cache).units_dir.glob(
            "*.json")} == {unit["key"] for unit in units}

    def test_pooled_exhaustive_equals_inline(self, tmp_path, exhaustive):
        """``--no-prune`` runs the same wave loop with its checks off:
        every guess is issued at once and committed."""
        ref, ref_units, ref_counters, _ = exhaustive
        result, units, counters, _ = sweep(tmp_path, "pooled", workers=2,
                                           prune=False)
        assert result.complete and not result.pruned
        assert comparable_units(units) == comparable_units(ref_units)
        assert wire(result.points) == wire(ref.points)
        assert wire(result.frontier) == wire(ref.frontier)
        assert own(counters) == own(ref_counters)
        assert "sweep.speculative.committed" not in ref_counters
        assert counters["sweep.speculative.committed"] >= 1


class TestResultCache:
    def test_unreadable_entry_is_captured_then_run(self, tmp_path, inline):
        """Units whose cache file exists are neither captured up front
        nor speculated.  One whose file turns out unreadable when its
        wave commits gets its trace captured in a stage of its own,
        then runs."""
        _, ref_units, _, ref_opts = inline
        cache = tmp_path / "cache"
        shutil.copytree(ref_opts.cache_dir, cache)
        stale = ref_units[5]
        ResultCache(cache).path(stale["key"]).write_text("{")
        result, units, counters, opts = sweep(
            tmp_path, "stale", workers=2, use_cache=True,
            cache_dir=str(cache))
        assert comparable_units(units) == comparable_units(ref_units)
        assert [u["cached"] for u in units] \
            == [u["key"] != stale["key"] for u in units]
        assert units[5]["trace_cache_hit"] is False
        assert counters["runner.traces.captured"] == 1
        assert counters["runner.units.executed"] == 1
        assert "sweep.speculative.committed" not in counters
        timers = opts.registry.snapshot()["timers"]
        assert timers["runner.stage.capture"]["count"] == 1
        assert "runner.stage.init" not in timers


class TestFaults:
    def test_discarded_failure_is_dropped(self, tmp_path, inline,
                                          monkeypatch):
        """Every unit the sequential run does not commit raises; the
        speculated ones among them are discarded with their exception
        and the sweep completes unchanged."""
        _, ref_units, _, _ = inline
        committed = cells(ref_units)
        monkeypatch.setattr(runner_pool, "execute_unit",
                            fail_where(lambda cell: cell not in committed))
        result, units, counters, _ = sweep(tmp_path, "faulty", workers=2)
        assert result.complete
        assert comparable_units(units) == comparable_units(ref_units)
        assert counters["sweep.speculative.discarded"] >= 1

    def test_committed_failure_raises_at_its_wave(self, tmp_path, inline,
                                                  monkeypatch):
        """A failing unit that the checks would run raises; every wave
        before its own is in the manifest, and nothing of its wave."""
        _, ref_units, _, _ = inline
        index = 11              # the second unit of the sixth wave
        bad = ref_units[index]
        monkeypatch.setattr(runner_pool, "execute_unit",
                            fail_where(cells([bad]).__contains__))
        manifest = tmp_path / "failed.jsonl"
        opts = SweepOptions(workers=2, prune_chunk=2, use_cache=False,
                            trace_store=str(tmp_path / "traces"),
                            registry=obs.Obs())
        with pytest.raises(ValueError, match="injected fault"):
            run_sweep(perf_spec(), manifest, opts)
        _, units, torn = read_manifest_tolerant(manifest)
        assert torn == 0
        assert comparable_units(units) \
            == comparable_units(ref_units[:index - 1])

    def test_budget_leaves_the_sequential_units(self, tmp_path, inline):
        _, ref_units, _, _ = inline
        result, units, counters, _ = sweep(tmp_path, "budget", workers=2,
                                           max_units=3)
        assert not result.complete
        assert result.executed_units == 3
        assert comparable_units(units) == comparable_units(ref_units[:3])
        assert counters["sweep.units.executed"] == 3

    def test_exhaustive_budget_reports_finished_configs(self, tmp_path,
                                                       exhaustive):
        """A budget-stopped ``--no-prune`` run leaves the sequential
        run's first units and the points of the configs it finished."""
        ref, ref_units, _, _ = exhaustive
        budget = 2 * len(ref.kernels) + 3
        result, units, _, _ = sweep(tmp_path, "budget", workers=2,
                                    prune=False, max_units=budget)
        assert not result.complete
        assert comparable_units(units) \
            == comparable_units(ref_units[:budget])
        per_config = Counter(unit["config"] for unit in units)
        finished = {config for config, n in per_config.items()
                    if n == len(ref.kernels)}
        assert len(finished) == 2
        expected = [p for p in ref.points if finished & set(p.members)]
        assert expected
        assert wire(result.points) == wire(expected)

