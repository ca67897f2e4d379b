"""Fuzz the whole stack: random DSL kernels through trace capture,
speculation, timing and energy, checking end-to-end invariants.

The generator composes random arithmetic/memory/control constructs the
way real kernels do; whatever it produces, the pipeline must hold its
contracts (trace consistency, correctness of the adders, energy
positivity, bounded timing behaviour).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import build_pack
from repro.core.predictors import run_speculation, trace_n_predictions
from repro.core.speculation import ST2_DESIGN
from repro.sim.config import LaunchConfig
from repro.sim.functional import GridLauncher
from repro.sim.pipeline import compare_baseline_st2
from tests.core.reference_speculation import columns


def _build_kernel(ops, loop_body, loop_trips):
    """A kernel from a random op list; returns fn(k, buf, out)."""

    def kernel(k, buf, out):
        i = k.global_id()
        x = i.copy()
        f = k.cvt_f32(i)
        for op in ops:
            if op == "iadd":
                x = k.iadd(x, 3)
            elif op == "isub":
                x = k.isub(x, i)
            elif op == "imin":
                x = k.imin(x, 1000)
            elif op == "fadd":
                f = k.fadd(f, 1.5)
            elif op == "ffma":
                f = k.ffma(f, 0.5, 2.0)
            elif op == "dadd":
                k.dadd(k.cvt_f32(x).astype(np.float64), 0.25)
            elif op == "load":
                x = k.iadd(x, k.ld_global(buf, k.irem(i, 64)))
            elif op == "xor":
                x = k.ixor(x, 0x5A5A)
            elif op == "div":
                with k.where(k.lt(i, 40)):
                    x = k.iadd(x, 7)
            elif op == "shfl":
                x = k.warp_reduce_iadd(x)
        for _t in k.range(loop_trips):
            for op in loop_body:
                if op == "iadd":
                    x = k.iadd(x, 1)
                elif op == "fadd":
                    f = k.fadd(f, 0.125)
                elif op == "load":
                    f = k.fadd(f, k.ld_global(buf, k.irem(x, 64)))
        k.st_global(out, k.irem(i, 64), x)

    return kernel


OPS = st.sampled_from(["iadd", "isub", "imin", "fadd", "ffma", "dadd",
                       "load", "xor", "div", "shfl"])


class TestFuzzedKernels:
    @given(ops=st.lists(OPS, min_size=1, max_size=8),
           loop_body=st.lists(st.sampled_from(["iadd", "fadd", "load"]),
                              max_size=3),
           loop_trips=st.integers(0, 6),
           blocks=st.integers(1, 3),
           seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_full_stack_invariants(self, ops, loop_body, loop_trips,
                                   blocks, seed):
        launcher = GridLauncher(seed=seed)
        rng = np.random.default_rng(seed)
        buf = launcher.buffer("buf", rng.integers(0, 100, 64)
                              .astype(np.int64))
        out = launcher.buffer("out", np.zeros(64, np.int64))
        kernel = _build_kernel(ops, loop_body, loop_trips)
        run = launcher.run(kernel, LaunchConfig(blocks, 64),
                           buf=buf, out=out)

        # trace consistency
        trace = run.trace
        assert len(trace) >= 64 * blocks     # the final store's LEA
        n_preds = trace_n_predictions(trace)
        assert ((n_preds >= 2) & (n_preds <= 7)).all()
        assert set(np.unique(trace.width)) <= {23, 32, 52, 64}
        # operands stay within their declared widths
        for w in np.unique(trace.width):
            lim = np.uint64((1 << int(w)) - 1) if w < 64 \
                else np.uint64(0xFFFFFFFFFFFFFFFF)
            sel = trace.width == w
            assert (trace.op_a[sel] <= lim).all()
            assert (trace.op_b[sel] <= lim).all()

        # the carry ground truth is internally consistent
        pack = build_pack(trace)
        carries = np.column_stack([pack.cin, columns(pack.carries)])
        assert np.array_equal(carries[:, 0].astype(np.uint8), trace.cin)
        # no carry enters a slice past a row's last boundary
        assert not (pack.carries & ~pack.valid).any()

        # speculation invariants
        res = run_speculation(trace, ST2_DESIGN, pack)
        assert 0.0 <= res.thread_misprediction_rate <= 1.0
        assert (res.recomputed <= 7).all()
        assert (res.recomputed[~res.mispredicted] == 0).all()

        # paired timing: ST2 never beats baseline, overhead bounded
        base, st2 = compare_baseline_st2(run, res.mispredicted)
        assert st2.total_cycles >= base.total_cycles
        assert st2.total_cycles <= base.total_cycles * 1.5

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_energy_invariants(self, seed):
        from repro.power.activity import activity_from_run
        from repro.power.model import GPUPowerModel
        from repro.sim.pipeline import simulate_sm

        launcher = GridLauncher(seed=seed)
        rng = np.random.default_rng(seed)
        buf = launcher.buffer("buf", rng.integers(0, 100, 64)
                              .astype(np.int64))
        out = launcher.buffer("out", np.zeros(64, np.int64))
        kernel = _build_kernel(["iadd", "fadd", "load"], ["iadd"], 3)
        run = launcher.run(kernel, LaunchConfig(2, 64), buf=buf,
                           out=out)
        timing = simulate_sm(run.insts, run.launch)
        activity = activity_from_run(run, timing)
        model = GPUPowerModel()
        total = model.total_power_w(activity)
        assert total > 0
        comps = model.component_energy_j(activity)
        assert all(v >= 0 for v in comps.values())
        assert model.total_energy_j(activity) >= sum(comps.values())
