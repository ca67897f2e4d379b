"""Flow-sensitive rules L6–L8 on top of the abstract interpreter.

These rules consume :class:`repro.lint.absint.FunctionSummary` — not
the raw AST — so they reason about proven value ranges and path
feasibility instead of syntax:

* **L6** (informational) — an integer adder site whose operand ranges
  statically pin one or more slice-boundary carries; the message lists
  the proven carries.  These are exactly the sites ``st2-lint facts``
  exports for the evaluation engine's static-peek overlay.
* **L7** — a ``k.syncthreads`` under a ``k.where`` mask where a
  divergent mask is *actually reachable* under the abstract state.
  The flow-sensitive upgrade of the syntactic L4: where the engine
  proves every path to the barrier uniform (or the barrier
  unreachable), the L4 finding is dropped instead.
* **L8** (informational) — an adder site where *every* speculated
  boundary carry is statically pinned: ST2 speculation at this PC can
  never mispredict, so its dynamic prediction machinery is dead
  weight.

A function the engine bails on (unlowerable construct, fixpoint cap)
contributes no L6/L8 findings and keeps its syntactic L4 findings
untouched — flow analysis only ever *adds* precision.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from repro.lint.absint import (FunctionSummary, analyze_function,
                               is_kernel_fn, module_constants)
from repro.lint.facts import N_BOUNDARIES, function_facts
from repro.lint.findings import Finding


def module_summaries(tree: ast.Module,
                     path: str) -> List[FunctionSummary]:
    """Engine summaries for every kernel function in the module,
    including nested ones (matching the analyzer's ``ast.walk``)."""
    consts = module_constants(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and is_kernel_fn(node):
            out.append(analyze_function(node, consts, path))
    return out


def check_l6_l8(summaries: Iterable[FunctionSummary], path: str,
                active: Set[str]) -> List[Finding]:
    """Informational carry-fact findings (merged per PC label)."""
    findings: List[Finding] = []
    for summary in summaries:
        if summary.bailed:
            continue
        facts = function_facts(summary)
        for label, fact in sorted(facts.items()):
            pinned = ", ".join(
                f"slice {j + 1} carry={fact.carries[j]}"
                for j in sorted(fact.carries))
            if "L6" in active:
                findings.append(Finding(
                    path, fact.line, "L6",
                    f"statically proven slice carries at PC "
                    f"`{label}`: {pinned}"))
            if "L8" in active and len(fact.carries) == N_BOUNDARIES:
                findings.append(Finding(
                    path, fact.line, "L8",
                    f"range-proven dead speculation at PC `{label}`: "
                    f"all {N_BOUNDARIES} boundary carries are static "
                    f"({pinned}) — dynamic prediction can never "
                    f"mispredict here"))
    return findings


def check_l7(summaries: Iterable[FunctionSummary],
             path: str) -> Tuple[List[Finding], Set[int]]:
    """Reachable-divergence barrier findings, plus the lines of
    barriers *proven clean* (whose syntactic L4 findings the analyzer
    drops)."""
    findings: List[Finding] = []
    clean: Set[int] = set()
    for summary in summaries:
        if summary.bailed:
            continue
        for site in summary.barrier_sites:
            if site.n_conds == 0:
                continue            # no enclosing k.where: L4-free
            if site.clean:
                clean.add(site.lineno)
            elif site.reachable:
                findings.append(Finding(
                    path, site.lineno, "L7",
                    "syncthreads under a k.where mask whose "
                    "divergence is reachable under flow analysis — "
                    "hoist the barrier out of the divergent region"))
    return findings, clean


def check_flow(tree: ast.Module, path: str,
               active: Set[str]) -> Tuple[List[Finding], Set[int]]:
    """Run the requested flow rules over one parsed module.

    Returns ``(findings, l4_clean_lines)``; the second element is
    non-empty only when L7 is active.
    """
    summaries = module_summaries(tree, path)
    findings = check_l6_l8(summaries, path, active)
    clean: Set[int] = set()
    if "L7" in active:
        l7, clean = check_l7(summaries, path)
        findings.extend(l7)
    return findings, clean
