"""``repro.lint`` — st2-lint, the kernel-DSL correctness analyzer.

Every number this reproduction reports flows through the hand-ported
DSL kernels: the ST2 predictor consumes exactly ``(PC, lane,
operands)``, so a kernel that does raw numpy arithmetic instead of
``k.iadd``, aliases call-site PCs through a shared helper, or races on
shared memory silently corrupts misprediction rates and energy numbers
with no test failing.  This package makes those bug classes loud:

======  ==============================================================
rule    what it catches
======  ==============================================================
L1      untraced arithmetic: numpy ``+``/``-`` on device vectors
        bypassing the DSL emit path (drops AddTrace rows,
        undercounts adder energy)
L2      PC aliasing: a helper emitting adder ops called from several
        sites of one kernel without ``k.inline`` scopes (one interned
        PC where hardware has one per inlined site — inflates ModPCk
        accuracy)
L3      shared-memory store→load communication across thread-dependent
        indices with no intervening ``syncthreads``
L4      ``syncthreads`` under a divergent ``k.where`` mask (deadlock
        on hardware)
L5      nondeterminism (unseeded RNG, wall-clock reads) in modules the
        runner's content-addressed cache hashes — poisons cache keys
L6      provably-constant slice carry at an adder site (informational;
        the proofs ``st2-lint facts`` exports for the simulator's
        static-peek overlay)
L7      flow-sensitive barrier divergence: L4, but only where the
        abstract interpreter proves a divergent mask actually reaches
        the barrier — and retracting L4 where it proves it cannot
L8      range-proven dead speculation: all boundary carries of an
        adder site are static (informational)
======  ==============================================================

L6–L8 run on a real dataflow stack: :mod:`repro.lint.ir` lowers each
kernel to a basic-block CFG, :mod:`repro.lint.absint` interprets it
over interval × known-bits × uniformity domains, and
:mod:`repro.lint.facts` turns the adder-site summaries into per-PC
carry facts (``st2-lint facts --json``).

Intentional sites are silenced in source with a justification::

    x = tx + BLOCK   # st2-lint: disable=L1 — folds into the LDS immediate

The static layer lives here; its runtime twin (shared-memory race
epochs and the untraced-arithmetic probe) is
:mod:`repro.sim.sanitizer`.  The CLI is ``st2-lint``
(:mod:`repro.lint.cli`).

The public entry points are imported lazily so that
:mod:`repro.sim.sanitizer` can import :mod:`repro.lint.suppress`
without dragging the analyzer (and through it the kernel suite) into
every simulator import.
"""

from __future__ import annotations

from repro.lint.findings import (INFO_RULES, RULES,       # noqa: F401
                                 Finding)
from repro.lint.suppress import (line_suppresses,         # noqa: F401
                                 suppressed_rules)

_LAZY = {
    "lint_source": "repro.lint.analyzer",
    "lint_paths": "repro.lint.analyzer",
    "load_baseline": "repro.lint.baseline",
    "write_baseline": "repro.lint.baseline",
    "new_findings": "repro.lint.baseline",
    "main": "repro.lint.cli",
    "lower_function": "repro.lint.ir",
    "analyze_source": "repro.lint.absint",
    "analyze_function": "repro.lint.absint",
    "facts_for_kernel": "repro.lint.facts",
    "facts_for_module": "repro.lint.facts",
    "module_facts_from_source": "repro.lint.facts",
    "CarryFact": "repro.lint.facts",
}

__all__ = ["Finding", "INFO_RULES", "RULES", "line_suppresses",
           "suppressed_rules", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib
    return getattr(importlib.import_module(module), name)
