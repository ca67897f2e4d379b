"""Functional capture is byte-stable.

Every trace the simulator captures feeds the trace store, the
prediction kernels and the timing model, so a change to how the DSL
records rows must leave every column bit-identical.  The golden file
pins, for every ``full`` suite kernel at scale 0.1 and seed 0, each
``AddTrace`` and ``InstStream`` column's dtype and sha256, the
``MemoryStats`` counters and the static-PC count.

Only the *number* of PC labels is pinned: PCs interned inside
``repro.sim.dsl`` helpers (``warp_reduce_*``) carry that module's line
numbers in their labels.

Regenerate (only when a capture change is meant to alter traces)::

    PYTHONPATH=src python tests/sim/test_capture_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.kernels.suite import KERNEL_GROUPS, spec_by_name
from repro.sim.memory import MemoryStats
from repro.sim.trace import AddTrace, InstStream

GOLDEN = Path(__file__).parent / "data" / "capture_golden.json"
SCALE = 0.1
SEED = 0

ADD_COLUMNS = tuple(f.name for f in fields(AddTrace) if f.name != "pc_labels")
INST_COLUMNS = tuple(f.name for f in fields(InstStream))
MEM_COUNTERS = tuple(f.name for f in fields(MemoryStats)
                     if f.type in (int, "int"))


def _column(arr: np.ndarray) -> dict:
    return {"dtype": arr.dtype.str,
            "sha256": hashlib.sha256(
                np.ascontiguousarray(arr).tobytes()).hexdigest()}


def snapshot(run) -> dict:
    """The pinned facts of one ``KernelRun``."""
    return {
        "add": {c: _column(getattr(run.trace, c)) for c in ADD_COLUMNS},
        "inst": {c: _column(getattr(run.insts, c)) for c in INST_COLUMNS},
        "mem": {c: getattr(run.mem, c) for c in MEM_COUNTERS},
        "n_static_pcs": run.n_static_pcs,
        "n_pc_labels": len(run.trace.pc_labels),
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", KERNEL_GROUPS["full"])
def test_capture_matches_golden(name):
    run = spec_by_name(name).run(scale=SCALE, seed=SEED)
    assert snapshot(run) == _golden()[name]


def test_golden_covers_the_full_group():
    assert sorted(_golden()) == sorted(KERNEL_GROUPS["full"])


def _prepared_run(name: str, sanitize: bool):
    prepared = spec_by_name(name).prepare(scale=SCALE, seed=SEED)
    prepared.launcher.sanitize = sanitize
    return prepared.run()


# sortNets_K1 nests where() inside loops and barriers on shared memory,
# so the sanitizer's wrapped values reach every mask entry
def test_sanitized_capture_equals_plain():
    plain = _prepared_run("sortNets_K1", sanitize=False)
    sanitized = _prepared_run("sortNets_K1", sanitize=True)
    assert sanitized.sanitizer is not None and plain.sanitizer is None
    for c in ADD_COLUMNS:
        a, b = getattr(plain.trace, c), getattr(sanitized.trace, c)
        assert a.dtype == b.dtype and np.array_equal(a, b), c
    for c in INST_COLUMNS:
        a, b = getattr(plain.insts, c), getattr(sanitized.insts, c)
        assert a.dtype == b.dtype and np.array_equal(a, b), c
    assert snapshot(plain) == snapshot(sanitized)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: snapshot(spec_by_name(name).run(scale=SCALE, seed=SEED))
         for name in KERNEL_GROUPS["full"]},
        indent=1, sort_keys=True) + "\n")
