"""Cycle-driven SM model: structure, stalls, CRF ports, policies."""

import pytest

from repro.kernels import pathfinder, sgemm
from repro.sim.config import LaunchConfig
from repro.sim.cycle_model import CycleModel, compare_policies
from repro.sim.functional import GridLauncher
from repro.sim.pipeline import simulate_sm
from tests.sim.reference_timing import warp_misprediction_map


@pytest.fixture(scope="module")
def small_run():
    return pathfinder.prepare(scale=0.25, seed=0).run()


class TestBasics:
    def test_all_instructions_retire(self, small_run):
        stats = CycleModel().simulate(small_run.insts, small_run.launch)
        assert stats.instructions > 0
        assert stats.cycles > 0
        assert 0 < stats.issued_per_cycle <= 4.0

    def test_deterministic(self, small_run):
        a = CycleModel().simulate(small_run.insts, small_run.launch)
        b = CycleModel().simulate(small_run.insts, small_run.launch)
        assert a.cycles == b.cycles
        assert a.stall_breakdown() == b.stall_breakdown()

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            CycleModel(policy="fifo")

    def test_agrees_with_event_model_in_magnitude(self, small_run):
        """Two independent models of the same machine must land within
        a small factor of each other."""
        cyc = CycleModel().simulate(small_run.insts, small_run.launch)
        ev = simulate_sm(small_run.insts, small_run.launch)
        ratio = cyc.cycles / ev.cycles
        assert 0.25 < ratio < 4.0


class TestStallAccounting:
    def test_dependency_stalls_dominate_serial_code(self):
        """A single warp of back-to-back dependent adds is pure
        dependency stall."""
        def chain(k):
            acc = k.thread_id()
            for _i in k.range(64):
                acc = k.iadd(acc, 1)

        launcher = GridLauncher()
        run = launcher.run(chain, LaunchConfig(1, 32))
        stats = CycleModel().simulate(run.insts, run.launch)
        bd = stats.stall_breakdown()
        assert bd["dependency"] > bd["functional units"]

    def test_crf_reads_counted_for_adder_ops_only(self):
        def mixed(k):
            k.iadd(1, 2)      # CRF read
            k.ixor(1, 2)      # no CRF involvement
            k.imul(1, 2)      # no CRF involvement

        launcher = GridLauncher()
        run = launcher.run(mixed, LaunchConfig(1, 64))
        stats = CycleModel().simulate(run.insts, run.launch)
        assert stats.crf_reads == 2      # one iadd per warp, 2 warps

    def test_fewer_crf_ports_more_conflicts(self, small_run):
        wide = CycleModel(crf_read_ports=4).simulate(
            small_run.insts, small_run.launch)
        narrow = CycleModel(crf_read_ports=1).simulate(
            small_run.insts, small_run.launch)
        assert narrow.crf_read_port_conflicts \
            >= wide.crf_read_port_conflicts

    def test_write_conflicts_detected(self, small_run):
        stats = CycleModel().simulate(small_run.insts, small_run.launch)
        assert stats.crf_write_conflicts >= 0


class TestPolicies:
    def test_both_policies_complete(self, small_run):
        results = compare_policies(small_run.insts, small_run.launch)
        assert set(results) == {"gto", "lrr"}
        assert all(r.instructions == results["gto"].instructions
                   for r in results.values())

    def test_policies_produce_different_schedules(self):
        """On an FU-contended multiwarp kernel the two policies must
        observably diverge (cycles or stall pattern)."""
        run = sgemm.prepare(scale=0.5, seed=0).run()
        results = compare_policies(run.insts, run.launch)
        gto, lrr = results["gto"], results["lrr"]
        assert (gto.cycles != lrr.cycles
                or gto.stall_breakdown() != lrr.stall_breakdown())


class TestST2Mode:
    def test_mispredicts_counted(self, small_run):
        from repro.core.predictors import run_speculation
        from repro.core.speculation import ST2_DESIGN
        res = run_speculation(small_run.trace, ST2_DESIGN)
        mp = warp_misprediction_map(small_run.trace, res.mispredicted)
        stats = CycleModel().simulate(small_run.insts, small_run.launch,
                                      mp)
        assert stats.extra_recompute_insts == len(mp)

    def test_deviation_is_small(self, small_run):
        """Paper phrasing: execution time 'within 0.36 % of baseline on
        average' — the cycle model's paired deviation must stay small
        even though scheduling perturbations make its sign noisy."""
        from repro.core.predictors import run_speculation
        from repro.core.speculation import ST2_DESIGN
        res = run_speculation(small_run.trace, ST2_DESIGN)
        mp = warp_misprediction_map(small_run.trace, res.mispredicted)
        base = CycleModel().simulate(small_run.insts, small_run.launch)
        st2 = CycleModel().simulate(small_run.insts, small_run.launch,
                                    mp)
        assert abs(st2.cycles / base.cycles - 1) < 0.10
