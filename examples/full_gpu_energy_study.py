#!/usr/bin/env python
"""The full Section VI experiment on a few kernels: calibrated power
model, baseline-vs-ST2 energy breakdown, timing overhead — the
machinery behind Figures 6 and 7, driven through the cached runner.

Run:  python examples/full_gpu_energy_study.py
"""

import numpy as np

from repro.analysis.ascii_charts import stacked_pair, table
from repro.power.components import Component
from repro.runner import build_units, run_suite_units
from repro.st2.overheads import overhead_report

KERNELS = ("pathfinder", "sad_K1", "msort_K2", "qrng_K1", "kmeans_K1",
           "dwt2d_K1")


def main() -> None:
    keyed = run_suite_units(build_units(KERNELS, scale=1.0, aux=False))
    evals = {kernel: result for (kernel, _cfg), result in keyed.items()}

    # -- Figure 7 style stacked energy ------------------------------------
    comps = [c.value for c in Component] + ["static"]
    base_stacks, st2_stacks = [], []
    for e in evals.values():
        base_stacks.append(e.energy_stacks["baseline"])
        st2_stacks.append(e.energy_stacks["st2"])
    print(stacked_pair("normalized system energy: baseline vs ST2",
                       list(evals), base_stacks, st2_stacks, comps))

    # -- summary table ------------------------------------------------------
    rows = [(name,
             f"{e.alu_fpu_share:.1%}",
             f"{e.misprediction_rate:.1%}",
             f"{e.slowdown:+.3%}",
             f"{e.system_saving:.1%}",
             f"{e.chip_saving:.1%}")
            for name, e in evals.items()]
    print(table("ST2 GPU evaluation summary",
                ["kernel", "ALU+FPU share", "misprediction",
                 "slowdown", "system saving", "chip saving"], rows))

    sys_avg = np.mean([e.system_saving for e in evals.values()])
    chip_avg = np.mean([e.chip_saving for e in evals.values()])
    print(f"\naverages over {len(evals)} kernels: "
          f"{sys_avg:.1%} system / {chip_avg:.1%} chip energy saved"
          "\n(paper, full suite: 19% system / 21% chip)")

    # -- overheads ------------------------------------------------------------
    rep = overhead_report()
    print(f"\nST2 storage: {rep.total_storage_bytes / 1024:.0f} kB "
          f"({rep.storage_fraction:.3%} of on-chip SRAM); level "
          f"shifters: {rep.shifter_area_fraction:.2%} of chip area, "
          f"{rep.shifter_static_w:.2f} W static")


if __name__ == "__main__":
    main()
