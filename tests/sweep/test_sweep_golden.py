"""Sweep outputs are byte-stable.

The golden file pins, for two specs each run pruned and exhaustive
(``--no-prune``) with one worker, two-unit waves and no result cache:
the ``frontier`` and ``points`` wire documents, the ``pruned`` record
(``bound`` floats, ``dominated_by``, ``via``, ``units_skipped``), the
executed and skipped counts, a sha256 of the manifest's
:func:`~repro.runner.units.comparable` units in order, and every obs
counter but ``sweep.speculative.*`` and ``runner.traces.*`` (which
count speculation and capture stages, not results).

* ``ci`` — ``benchmarks/sweep_ci.json``, whose skipped units are all
  equivalent members of a class (no config is pruned by domination at
  two-unit waves);
* ``perf`` — the perf sweep at scale 0.1, with equivalence and
  completion-bound prunes part-way through configs.

A change to how the sweep schedules or bounds its work must keep every
entry bit-identical.  Regenerate (only when a change is meant to alter
sweep results)::

    PYTHONPATH=src:. python tests/sweep/test_sweep_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro import obs
from repro.runner.manifest import read_manifest_tolerant
from repro.runner.units import comparable
from repro.sweep import SweepOptions, run_sweep
from repro.sweep.specio import load_spec
from tests.sweep.test_speculation import perf_spec

GOLDEN = Path(__file__).parent / "data" / "sweep_golden.json"
CI_SPEC = Path(__file__).resolve().parents[2] / "benchmarks" \
    / "sweep_ci.json"
SPECS = {"ci": lambda: load_spec(CI_SPEC), "perf": perf_spec}
CASES = [f"{spec}-{mode}" for spec in SPECS
         for mode in ("pruned", "exhaustive")]
UNPINNED = ("sweep.speculative.", "runner.traces.")


def snapshot(case: str, tmp: Path) -> dict:
    """The pinned facts of one sweep run."""
    spec, mode = case.split("-")
    opts = SweepOptions(prune=mode == "pruned", workers=1, prune_chunk=2,
                        use_cache=False, trace_store=str(tmp / "traces"),
                        registry=obs.Obs())
    manifest = tmp / f"{case}.jsonl"
    result = run_sweep(SPECS[spec](), manifest, opts)
    _, units, torn = read_manifest_tolerant(manifest)
    assert torn == 0
    doc = json.loads(json.dumps(result.to_wire()))
    counters = opts.registry.snapshot()["counters"]
    return {
        "frontier": doc["frontier"],
        "points": doc["points"],
        "pruned": doc["pruned"],
        "executed_units": result.executed_units,
        "skipped_units": result.skipped_units,
        "manifest_sha256": hashlib.sha256(json.dumps(
            [comparable(unit) for unit in units],
            sort_keys=True).encode()).hexdigest(),
        "counters": {name: value for name, value in counters.items()
                     if not name.startswith(UNPINNED)},
    }


@pytest.mark.parametrize("case", CASES)
def test_sweep_matches_golden(case, tmp_path):
    assert snapshot(case, tmp_path) \
        == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(
            {case: snapshot(case, Path(tmp) / case) for case in CASES},
            indent=1, sort_keys=True) + "\n")
