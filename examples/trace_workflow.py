#!/usr/bin/env python
"""Trace-driven workflow: capture once, explore many times.

Design-space sweeps re-analyse the same execution over and over; this
example captures a kernel's trace once into a trace store, reopens it,
and shows that every study reproduces bit-for-bit from the store — the
same decoupling GPGPU-Sim users get from PTX trace files.

The store (``repro.sim.trace_store``) is the one behind ``st2-run``,
``st2-sweep`` and ``st2-serve``: raw per-column ``.npy`` files opened as
read-only memory maps, so any number of processes share one copy via
the OS page cache.  From the shell, the same capture is::

    st2-trace --store DIR capture --kernels msort_K2
    st2-run --kernels msort_K2 --configs ladder --trace-store DIR

Run:  python examples/trace_workflow.py
"""

import tempfile
import time
from pathlib import Path

from repro.core.predictors import run_speculation
from repro.core.speculation import DESIGN_LADDER, ST2_DESIGN
from repro.kernels.suite import spec_by_name
from repro.runner.cache import code_version
from repro.runner.units import capture_trace
from repro.sim.trace_store import TraceStore, trace_key


def main() -> None:
    # -- capture -----------------------------------------------------------
    t0 = time.time()
    run = spec_by_name("msort_K2").run(scale=1.0, seed=0)
    print(f"captured msort_K2: {len(run.trace):,} adder ops in "
          f"{time.time() - t0:.2f}s")

    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(Path(tmp) / "traces")
        version = code_version()
        key = trace_key("msort_K2", 1.0, 0, version)
        store.put(key, run, code_version=version, scale=1.0, seed=0)
        print(f"published entry {key[:12]}: "
              f"{store.nbytes(key) / 1024:.0f} kB on disk")
        # what `st2-trace capture` and every runner do per trace: a
        # warm entry is never executed again
        assert not capture_trace(store, key, "msort_K2", 1.0, 0, version)

        # -- reopen and re-analyse -----------------------------------------
        stored = store.get(key)       # read-only memmaps, zero-copy
        print(f"reopened: kernel={stored.name} "
              f"({stored.n_static_pcs} static PCs)")

        t0 = time.time()
        fresh = run_speculation(run.trace, ST2_DESIGN)
        mapped = run_speculation(stored.trace, ST2_DESIGN)
        assert fresh.thread_misprediction_rate \
            == mapped.thread_misprediction_rate
        print(f"ST2 misprediction from the store: "
              f"{mapped.thread_misprediction_rate:.2%} "
              "(bit-identical to the live trace)")

        # a full ladder sweep costs only analysis time now
        for config in DESIGN_LADDER[:4]:
            rate = run_speculation(
                stored.trace, config).thread_misprediction_rate
            print(f"  {config.name:18s} {rate:6.1%}")
        print(f"ladder exploration from the store: "
              f"{time.time() - t0:.2f}s (no re-execution)")

        problems = store.verify(key)
        print(f"sha256 verify: {'ok' if not problems else problems}")


if __name__ == "__main__":
    main()
