"""Disk-cache behaviour: keys, hits, invalidation, corruption."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.speculation import PREV_PEEK, ST2_DESIGN
from repro.runner import (ResultCache, RunOptions, UnitSpec, build_units,
                          run_units, unit_key)
from repro.runner.units import results_equal

FAST = "qrng_K2"        # smallest suite kernel: ~0.1 s per execution


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def unit(**kw):
    kw.setdefault("kernel", FAST)
    kw.setdefault("aux", False)
    return UnitSpec(**kw)


def test_key_is_deterministic_and_content_sensitive():
    base = unit()
    assert unit_key(base) == unit_key(unit())
    assert unit_key(base) != unit_key(unit(seed=1))
    assert unit_key(base) != unit_key(unit(scale=0.5))
    assert unit_key(base) != unit_key(unit(aux=True))
    assert unit_key(base) != unit_key(unit(config=PREV_PEEK))


def test_key_invalidates_on_code_version_change():
    spec = unit()
    assert unit_key(spec, version="aaaa") != unit_key(spec,
                                                      version="bbbb")


def test_miss_then_hit(cache):
    spec = unit()
    (cold,) = run_units([spec], RunOptions(cache=cache))
    assert cold.cached is False
    assert len(cache) == 1

    (warm,) = run_units([spec], RunOptions(cache=cache))
    assert warm.cached is True
    assert results_equal(cold, warm)


def test_config_change_is_a_miss(cache):
    (first,) = run_units([unit(config=ST2_DESIGN)], RunOptions(cache=cache))
    (other,) = run_units([unit(config=PREV_PEEK)], RunOptions(cache=cache))
    assert other.cached is False
    assert len(cache) == 2
    assert other.data["metrics"] != first.data["metrics"]


def test_no_cache_bypasses_reads_and_writes(cache):
    spec = unit()
    run_units([spec], RunOptions(cache=cache))          # populate
    (result,) = run_units([spec], RunOptions(cache=cache, use_cache=False))
    assert result.cached is False
    assert len(cache) == 1                  # nothing new written


def test_corrupted_entry_recomputes_and_heals(cache):
    spec = unit()
    (cold,) = run_units([spec], RunOptions(cache=cache))
    path = cache.path(cold.key)

    for garbage in (b"not json{", b"", json.dumps(
            {"key": "wrong", "result": {}}).encode()):
        path.write_bytes(garbage)
        (again,) = run_units([spec], RunOptions(cache=cache))
        assert again.cached is False        # recomputed, not crashed
        assert results_equal(cold, again)
        # the bad entry was overwritten with a valid one
        (healed,) = run_units([spec], RunOptions(cache=cache))
        assert healed.cached is True


def test_truncated_result_payload_is_a_miss(cache):
    spec = unit()
    (cold,) = run_units([spec], RunOptions(cache=cache))
    path = cache.path(cold.key)
    payload = json.loads(path.read_text())
    del payload["result"]["metrics"]
    path.write_text(json.dumps(payload))
    (again,) = run_units([spec], RunOptions(cache=cache))
    assert again.cached is False
    assert results_equal(cold, again)


def non_object_entries(key, result):
    """Valid JSON that is not a cache entry: a non-object payload, and
    an entry whose ``result`` is not an object but still contains every
    result field name (a list of them, or the result as a string)."""
    return {
        "list": [1, 2],
        "string": "x",
        "list result": {"key": key, "result": sorted(result)},
        "string result": {"key": key, "result": json.dumps(result)},
    }


@pytest.mark.parametrize("kind", ["list", "string", "list result",
                                  "string result"])
def test_non_object_entry_is_a_counted_miss(cache, kind):
    spec = unit()
    (cold,) = run_units([spec], RunOptions(cache=cache))
    path = cache.path(cold.key)
    result = json.loads(path.read_text())["result"]
    path.write_text(json.dumps(non_object_entries(cold.key,
                                                  result)[kind]))
    with obs.scoped() as registry:
        assert cache.load(cold.key) is None
    assert registry.counter("result_cache.misses") == 1
    assert registry.counter("result_cache.hits") == 0
    (again,) = run_units([spec], RunOptions(cache=cache))
    assert again.cached is False            # recomputed, not crashed
    assert results_equal(cold, again)
    assert cache.load(cold.key) is not None     # healed


def test_two_stage_results_survive_the_cache(tmp_path):
    """A two-stage (trace-store) grid served warm from the result cache
    equals its cold run exactly."""
    from repro.core.speculation import PREV
    from repro.sim.trace_store import TraceStore

    units = build_units([FAST, "sortNets_K2"], configs=(ST2_DESIGN, PREV),
                        scale=0.1, aux=False)
    cache = ResultCache(tmp_path / "cache")
    store = TraceStore(tmp_path / "traces")
    cold = run_units(units, RunOptions(cache=cache, trace_store=store))
    warm = run_units(units, RunOptions(cache=cache, trace_store=store))
    assert not any(r.cached for r in cold)
    assert all(r.cached for r in warm)
    for c, w in zip(cold, warm):
        assert results_equal(c, w)


def test_cache_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    cache = ResultCache()
    assert cache.root == tmp_path / "envcache"


def test_build_units_grid_and_seeds():
    units = build_units([FAST, "sortNets_K2"],
                        configs=(ST2_DESIGN, PREV_PEEK), seed=7)
    assert len(units) == 4
    assert all(u.seed == 7 for u in units)
    per_kernel = build_units([FAST, "sortNets_K2"], seed=7,
                             per_kernel_seeds=True)
    assert per_kernel[0].seed != per_kernel[1].seed
    # derived seeds are pure functions of (base seed, kernel)
    again = build_units([FAST, "sortNets_K2"], seed=7,
                        per_kernel_seeds=True)
    assert [u.seed for u in per_kernel] == [u.seed for u in again]


def test_result_affecting_packages_match_disk():
    """The hashed-package list is derived from the tree, not a hand
    list: every repro subpackage is either hashed or explicitly named
    result-neutral."""
    from pathlib import Path

    import repro
    from repro.runner.cache import (NON_RESULT_PACKAGES,
                                    result_affecting_packages)

    root = Path(repro.__file__).parent
    on_disk = {child.name for child in root.iterdir()
               if child.is_dir() and (child / "__init__.py").is_file()}
    hashed = set(result_affecting_packages())
    assert hashed == on_disk - NON_RESULT_PACKAGES
    assert hashed == {"circuits", "core", "isa", "kernels", "power",
                      "sim", "st2"}
    assert result_affecting_packages() == tuple(sorted(hashed))
