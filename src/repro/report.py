"""One-shot reproduction report: ``st2-report [scale]`` /
``python -m repro.report [scale]``.

One runner pass evaluates the 23-kernel suite under every Figure 5
design-ladder config.  Figure 5 and the Section VI table read the unit
metrics, Figure 3 and the VaLHALLA comparison the units' ``aux``
measurements, and Figure 1 and the Section V-C power-model validation
the stored traces of that same pass.  Circuit characterisation and the
overhead arithmetic complete the figures, each printed as an ASCII
chart with the paper's number alongside, and the report ends with the
graded 18-claim scorecard (:mod:`repro.st2.scorecard`) of the ST2
design units.

Exit codes follow the shared contract (:mod:`repro.cli_common`): 0
when every claim is within its documented tolerance, 1 when the
scorecard has a FAIL row, 2 for a non-numeric, non-finite or non-positive
scale.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import cli_common
from repro.analysis.ascii_charts import hbar_chart, table
from repro.api import valid_scale
from repro.circuits.characterize import (best_slice_width,
                                         slice_bitwidth_sweep)
from repro.core.speculation import DESIGN_LADDER, FIG3_CONFIGS, ST2_DESIGN
from repro.isa.opcodes import MixCategory
from repro.power.activity import activity_from_run
from repro.power.calibration import calibrate
from repro.power.hardware import SyntheticSilicon
from repro.power.validation import validate
from repro.runner import (RunOptions, build_units, default_workers,
                          run_suite_units)
from repro.runner.units import stored_run
from repro.sim.pipeline import simulate_sm
from repro.sim.trace_store import scratch_store
from repro.st2.architecture import default_adder_model
from repro.st2.overheads import overhead_report
from repro.st2.scorecard import grade, measure, render


def _section(title: str) -> None:
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}")


def build_parser():
    parser = cli_common.build_parser(
        "st2-report",
        "Regenerate every figure and headline claim of the ST2 GPU "
        "paper from one runner pass and print them with the paper's "
        "numbers alongside.")
    parser.add_argument("scale", nargs="?", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    return parser


def report(scale: float, seed: int = 0) -> int:
    """Print the whole report; returns the exit code (1 when a
    headline claim is out of tolerance)."""
    t0 = time.time()
    print(f"ST2 GPU reproduction report (scale={scale}, seed={seed})")

    _section("Executing the 23-kernel suite")
    store = scratch_store()
    units = build_units("all", configs=DESIGN_LADDER, scale=scale,
                        seed=seed)
    keyed = run_suite_units(units, RunOptions(
        workers=default_workers(), use_cache=False, trace_store=store))
    st2 = {kernel: result for (kernel, config), result in keyed.items()
           if config == ST2_DESIGN.name}
    runs = {spec.kernel: stored_run(store, spec) for spec in units
            if spec.config == ST2_DESIGN}
    total_rows = sum(len(r.trace) for r in runs.values())
    print(f"{len(runs)} kernels, {total_rows:,} adder operations, "
          f"{sum(r.insts.thread_instructions() for r in runs.values()):,}"
          f" dynamic thread instructions  [{time.time() - t0:.1f}s]")

    _section("Figure 1 — instruction mix")
    arith = []
    for run in runs.values():
        mix = run.insts.mix()
        tot = sum(mix.values())
        arith.append(sum(v for k, v in mix.items()
                         if k is not MixCategory.OTHER) / tot)
    print(hbar_chart("ALU+FPU fraction of dynamic instructions",
                     list(runs), arith, vmax=1.0))
    print(f"\n>20% arithmetic: {sum(a > 0.2 for a in arith)}/23 "
          "(paper: 21/23)")

    _section("Figure 3 — slice carry-in correlation")
    paper3 = {"Prev+Gtid": "50%", "Prev+FullPC+Gtid": "83%",
              "Prev+FullPC+Ltid": "89%"}
    for c in FIG3_CONFIGS:
        rate = np.nanmean([r.aux["correlation"][c.name]
                           for r in st2.values()])
        print(f"  {c.name:20s} {rate:6.1%}  (paper {paper3[c.name]})")

    _section("Figure 5 — carry-speculation design space")
    means = {c.name: float(np.mean([keyed[k, c.name].misprediction_rate
                                    for k in runs]))
             for c in DESIGN_LADDER}
    print(hbar_chart("avg thread misprediction rate",
                     list(means), list(means.values())))
    st2r = means[ST2_DESIGN.name]
    valhalla = np.mean([r.aux["valhalla_misprediction_rate"]
                        for r in st2.values()])
    print(f"\nST2 vs VaLHALLA: {1 - st2r / valhalla:.0%} lower"
          " (paper: 65% lower)")

    _section("Section V-B — circuit characterisation")
    points = slice_bitwidth_sweep()
    p8 = next(p for p in points if p.slice_width == 8)
    adder = default_adder_model()
    print(f"best slice width: {best_slice_width(points)} (paper: 8)\n"
          f"8-bit slice voltage: {p8.vdd_fraction:.0%} of nominal "
          f"(paper: 60%)\n"
          f"potential per-adder saving: {p8.potential_saving:.1%} "
          f"(paper: 75-87%)\n"
          f"ST2 adder saving at 9% miss: {adder.saving(0.09, 1.94):.1%}"
          " (paper: ~70%)")

    _section("Section V-C — power-model calibration + validation")
    # validate() draws from the RNG state calibrate() leaves behind,
    # so both run on this one silicon instance, in this order
    silicon = SyntheticSilicon(seed=seed)
    cal = calibrate(silicon)
    acts = {n: activity_from_run(r, simulate_sm(r.insts, r.launch),
                                 name=n) for n, r in runs.items()}
    val = validate(cal.model, acts, silicon)
    print(f"training MAPE (123 stressors): {cal.training_mape:.1%}\n"
          f"validation: {val.summary()}\n"
          "(paper: 10.5% +/- 3.8%, r = 0.8)")

    _section("Section VI — ST2 GPU end-to-end")
    mets = {n: r.metrics for n, r in st2.items()}
    rows = [(n, f"{m.misprediction_rate:.1%}", f"{m.slowdown:+.2%}",
             f"{m.alu_fpu_share:.1%}", f"{m.system_saving:.1%}",
             f"{m.chip_saving:.1%}") for n, m in mets.items()]
    print(table("per-kernel evaluation",
                ["kernel", "miss", "slowdown", "ALU+FPU share",
                 "system saving", "chip saving"], rows))
    miss = np.mean([m.misprediction_rate for m in mets.values()])
    slow = np.mean([m.slowdown for m in mets.values()])
    sys_s = np.mean([m.system_saving for m in mets.values()])
    chip_s = np.mean([m.chip_saving for m in mets.values()])
    print(f"\naverages: miss {miss:.1%} (paper 9%), slowdown "
          f"{slow:.2%} (paper 0.36%),\n  system saving {sys_s:.1%} "
          f"(paper 19%), chip saving {chip_s:.1%} (paper 21%)")

    _section("Section VI — overheads")
    rep = overhead_report()
    print(f"CRF: {rep.crf_bytes_per_sm} B/SM, "
          f"{rep.crf_bytes_chip / 1024:.0f} kB/chip (paper: 448 B, "
          "~35 kB)\n"
          f"total ST2 storage: {rep.total_storage_bytes / 1024:.0f} kB "
          f"= {rep.storage_fraction:.3%} of on-chip SRAM "
          "(paper: ~50 kB, 0.09%)\n"
          f"level shifters: {rep.shifter_area_fraction:.2%} of chip "
          f"area, {rep.shifter_static_w:.2f} W static "
          "(paper: <0.68%, ~0.6 W)")

    _section("Headline claims — scorecard")
    claim_rows, failures = grade(measure(st2, adder))
    print(render(claim_rows, failures))

    print(f"\nreport complete in {time.time() - t0:.1f}s")
    return cli_common.EXIT_PROBLEMS if failures else cli_common.EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not valid_scale(args.scale):
        return cli_common.fail("st2-report", "scale must be finite and > 0")
    return report(args.scale)


def console_main() -> int:
    return cli_common.run_cli(main)


if __name__ == "__main__":
    sys.exit(console_main())
