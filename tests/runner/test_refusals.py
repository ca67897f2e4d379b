"""Inputs at the edge of the evaluation path.

The empty trace is evaluated, not refused: its payload is pinned as a
golden value captured from the per-width reference evaluation of an
emptied ``qrng_K2`` run (ST2 config).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.speculation import ST2_DESIGN
from repro.kernels.suite import run_kernel
from repro.lint.facts import facts_for_kernel
from repro.runner.units import ModelBundle, evaluation_payload

EMPTY_QRNG_K2_ST2 = {
    "metrics": {
        "misprediction_rate": 0.0,
        "recomputed_per_misprediction": 0.0,
        "slowdown": 0.0,
        "baseline_cycles": 1930,
        "st2_cycles": 1930,
        "system_saving": 0.13542074294820883,
        "chip_saving": 0.16319015358348432,
        "alu_fpu_share": 0.28104193961346957,
        "arithmetic_intensive": True,
        "static_peek": {
            "fact_labels": 1, "fact_bits": 3, "static_bits": 0,
            "new_static_bits": 0, "dynamic_events_base": 0,
            "dynamic_events_static": 0, "events_reduced": 0,
            "misprediction_rate_base": 0.0,
            "misprediction_rate_static": 0.0,
        },
    },
    "energy_stacks": {
        "baseline": {
            "ALU+FPU": 0.28104193961346957, "int Mul/Div": 0.0,
            "fp Mul/Div": 0.1154598703955568,
            "SFU": 0.09560273252857902, "RegFile": 0.2524681838322462,
            "Caches+MC": 0.013561000220257441,
            "NoC": 0.03173407124324964, "Others": 0.03996623304725251,
            "DRAM": 0.029076594097467053,
            "static": 0.14108937502192173,
        },
        "st2": {
            "ALU+FPU": 0.14562119666526063, "int Mul/Div": 0.0,
            "fp Mul/Div": 0.1154598703955568,
            "SFU": 0.09560273252857902, "RegFile": 0.2524681838322462,
            "Caches+MC": 0.013561000220257441,
            "NoC": 0.03173407124324964, "Others": 0.03996623304725251,
            "DRAM": 0.029076594097467053,
            "static": 0.14108937502192173,
        },
    },
}


@pytest.fixture(scope="module")
def models():
    return ModelBundle().ensure()


@pytest.fixture(scope="module")
def qrng_run():
    return run_kernel("qrng_K2", scale=0.25, seed=0)


def test_empty_trace_payload_is_golden(models, qrng_run):
    empty = dataclasses.replace(
        qrng_run, trace=qrng_run.trace.select(np.arange(0)))
    payload = evaluation_payload(empty, ST2_DESIGN, models=models,
                                 facts=facts_for_kernel("qrng_K2"))
    assert payload == EMPTY_QRNG_K2_ST2


def _with(run, part: str, field: str, value, row: int = 0):
    """A copy of ``run`` whose ``part`` (``trace``/``insts``) column
    ``field`` holds ``value`` at ``row`` (the memoised run is left
    untouched)."""
    column = np.array(getattr(getattr(run, part), field), copy=True)
    column[row] = value
    cols = dataclasses.replace(getattr(run, part), **{field: column})
    return dataclasses.replace(run, **{part: cols})


@pytest.mark.parametrize("width", [0, 65])
def test_width_out_of_range_names_the_field(models, qrng_run, width):
    bad = _with(qrng_run, "trace", "width", width)
    with pytest.raises(ValueError, match="'width'"):
        evaluation_payload(bad, ST2_DESIGN, models=models)


@pytest.mark.parametrize("opcode", [-1, 10_000])
def test_unresolvable_opcode_names_the_field(models, qrng_run, opcode):
    bad = _with(qrng_run, "insts", "opcode", opcode)
    with pytest.raises(ValueError, match="'opcode'"):
        evaluation_payload(bad, ST2_DESIGN, models=models)


@pytest.mark.parametrize("part", ["trace", "insts"])
@pytest.mark.parametrize("field,value", [("block", 1 << 19),
                                         ("seq", 1 << 24),
                                         ("warp", 1 << 20),
                                         ("warp", -1)])
def test_packed_id_out_of_range_names_the_field(models, qrng_run, part,
                                                field, value):
    """block/seq/warp ids beyond the packed warp-instruction key range
    would alias another instruction: refuse them, never wrap."""
    bad = _with(qrng_run, part, field, value)
    with pytest.raises(ValueError, match=f"'{field}'"):
        evaluation_payload(bad, ST2_DESIGN, models=models)
