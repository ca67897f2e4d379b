"""The static-bounds pruning stage: it skips units *before* execution
on grids the plain completion bound cannot touch, and never changes
the Pareto frontier (static vs --no-static-bounds vs exhaustive)."""

import pytest

from repro import obs
from repro.api import SweepSpec
from repro.sweep import SweepOptions, frontiers_equal, run_sweep

#: the CI-pinned grid: affineChain's carries are all provably zero,
#: so static1 classes are statically dominated before execution
CI_AXES = (("mechanism", ("static0", "static1")),
           ("peek", (False, True)),
           ("thread_key", ("gtid", "ltid")))


def ci_spec(name, **overrides):
    base = dict(name=name, kernels=("qrng_K1", "affineChain"),
                axes=CI_AXES, scale=0.25, seed=0, aux=False)
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("static-prune-cache"))


def options(cache_dir, **overrides):
    base = dict(use_cache=True, cache_dir=cache_dir, workers=2,
                registry=obs.Obs())
    base.update(overrides)
    return SweepOptions(**base)


class TestStaticPrune:
    def test_skips_units_before_execution(self, cache_dir, tmp_path):
        opts = options(cache_dir)
        result = run_sweep(ci_spec("static-on"),
                           tmp_path / "s.jsonl", opts)
        assert result.complete
        counters = opts.registry.snapshot()["counters"]
        assert counters["sweep.prune.static"] >= 1
        assert counters["sweep.prune.static.units_skipped"] >= 1
        static_prunes = [info for info in result.pruned.values()
                        if info.get("via") == "static_bounds"]
        assert static_prunes
        for info in static_prunes:
            assert info["reason"] == "dominated"
            assert info["units_skipped"] >= 1
            assert "energy_saved" in info["bound"]

    def test_plain_bound_alone_does_not_prune_here(self, cache_dir,
                                                   tmp_path):
        """The grid is chosen so the completion bound cannot act: the
        static stage is what prunes (the counter is honest)."""
        opts = options(cache_dir, static_bounds=False)
        result = run_sweep(ci_spec("static-off"),
                           tmp_path / "n.jsonl", opts)
        assert result.complete
        counters = opts.registry.snapshot()["counters"]
        assert counters.get("sweep.prune.static", 0) == 0
        assert counters.get("sweep.prune.dominated", 0) == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_frontier_invariant(self, cache_dir, tmp_path, seed):
        """Bit-identical frontiers: static pruning on, off, and full
        exhaustive, on seeded grids."""
        spec = ci_spec(f"inv-{seed}", seed=seed)
        runs = {}
        for label, extra in (
                ("static", {}),
                ("nostatic", {"static_bounds": False}),
                ("exhaustive", {"prune": False})):
            runs[label] = run_sweep(
                spec, tmp_path / f"{label}-{seed}.jsonl",
                options(cache_dir, **extra))
        assert all(r.complete for r in runs.values())
        assert frontiers_equal(list(runs["static"].frontier),
                               list(runs["nostatic"].frontier))
        assert frontiers_equal(list(runs["static"].frontier),
                               list(runs["exhaustive"].frontier))
        # and the static run really did less work
        assert runs["static"].executed_units \
            <= runs["nostatic"].executed_units \
            <= runs["exhaustive"].executed_units
