"""Static carry facts: compile-time Peek from abstract interpretation.

The dynamic Peek rule resolves a slice carry-in when the previous
slice's operand MSbs agree at runtime.  This module proves the same
kind of knowledge *statically*: for every integer adder site the
:mod:`repro.lint.absint` engine summarised, it maps the abstract
operands into the recorded adder domain (``to_unsigned``/``invert``
exactly as :class:`repro.sim.dsl.BlockContext` emits them) and pins
slice-boundary carries with two complementary rules per boundary
``j`` (carry into slice ``j+1`` of a 32-bit, 8-bit-slice adder):

* **interval rule** — ``hi(a) + hi(b) + cin < 2**m`` proves carry 0;
  ``lo(a) + lo(b) + cin >= 2**m`` (with both operands below ``2**m``)
  proves carry 1, where ``m = 8*(j+1)``;
* **ripple known-bits rule** — a carry chain over the known bits of
  both operands, the static generalisation of Peek's MSb agreement.

Facts are keyed by *PC label* (``function:line[#tag]``) — the identity
:class:`repro.isa.pc.PcTable` stores in every trace.  Labels are not
unique (one line can intern several PCs), so facts from all sites that
share a label are merged by agreement: a boundary survives only when
every site pins it to the same value.  Sites under a dynamic
``k.inline`` tag, or whose operands cannot be proven inside
``[0, 2**32)``, export nothing — missing facts are always sound.

Consumed by the evaluation engine's static-peek overlay
(:func:`repro.core.predictors.trace_static_peek`, per unit in
:mod:`repro.sim.vec.engine`) and exported by ``st2-lint facts --json``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.lint.absint import (AdderSite, FunctionSummary,
                               analyze_module, module_constants)
from repro.lint.domains import AbsVal, Interval, KnownBits

#: recorded integer adder geometry (matches ``dsl.BlockContext``)
WIDTH = 32
SLICE_BITS = 8
#: carry-in boundaries j=0..2 — carry into slice j+1, at bit 8*(j+1)
N_BOUNDARIES = WIDTH // SLICE_BITS - 1

_M32 = 1 << WIDTH
_MASK32 = _M32 - 1
_HIGH_MASK = ((1 << 64) - 1) ^ _MASK32


@dataclass(frozen=True)
class CarryFact:
    """Statically proven slice carries for one PC label."""

    label: str
    width: int
    carries: Mapping[int, int]      # boundary j -> carry bit (0/1)
    sites: int                      # adder sites merged into this fact
    line: int                       # first contributing source line


def site_label(fn_name: str, site: AdderSite) -> Optional[str]:
    """The PC label this site interns at runtime, or None when a
    dynamic ``k.inline`` tag makes it unknowable."""
    if any(s is None for s in site.scopes):
        return None
    prefix = "/".join(s for s in site.scopes if s is not None)
    if site.kind == "loop-inc":
        tag = f"{prefix}|loop-inc" if prefix else "loop-inc"
    else:
        tag = prefix
    label = f"{fn_name}:{site.lineno}"
    if tag:
        label += f"#{tag}"
    return label


def _invert32(b: AbsVal) -> AbsVal:
    """Adder-domain second operand of isub/imin/imax:
    ``(2**32 - 1) ^ b`` for ``b`` proven inside ``[0, 2**32)``."""
    lo = _MASK32 - b.interval.hi  # type: ignore[operator]
    hi = _MASK32 - b.interval.lo  # type: ignore[operator]
    bits = b.all_bits()
    mask = (bits.mask & _MASK32) | _HIGH_MASK
    value = (~bits.value) & bits.mask & _MASK32
    return AbsVal(Interval(lo, hi), KnownBits(mask, value),
                  b.uniform)


def _adder_domain(site: AdderSite
                  ) -> Optional[Tuple[AbsVal, AbsVal, int]]:
    """Map a site's abstract operands into the recorded unsigned-32
    adder domain; None when ``to_unsigned`` cannot be proven to be the
    identity (possible negatives / overflow)."""
    a, b = site.op_a, site.op_b
    if not a.interval.within(0, _MASK32):
        return None
    if not b.interval.within(0, _MASK32):
        return None
    if site.kind in ("iadd", "loop-inc"):
        return a, b, 0
    if site.kind in ("isub", "imin", "imax"):
        return a, _invert32(b), 1
    return None


def _ripple_carry(a: KnownBits, b: KnownBits, cin: int,
                  m: int) -> Optional[int]:
    """Carry into bit position ``m`` from a known-bits carry chain.

    Per column: two known bits resolve the column exactly (0+0 kills
    any carry, 1+1 generates one, mixed propagates); one known bit can
    still absorb (known 0, carry 0) or generate (known 1, carry 1).
    """
    carry: Optional[int] = cin
    for i in range(m):
        ba, bb = a.bit(i), b.bit(i)
        if ba is not None and bb is not None:
            s = ba + bb
            if s == 0:
                carry = 0
            elif s == 2:
                carry = 1
            # s == 1: carry propagates unchanged
        elif ba == 0 or bb == 0:
            carry = 0 if carry == 0 else None
        elif ba == 1 or bb == 1:
            carry = 1 if carry == 1 else None
        else:
            carry = None
    return carry


def site_carries(site: AdderSite) -> Optional[Dict[int, int]]:
    """Pinned boundary carries for one adder site.

    ``None`` marks an ineligible site (unknown label domain / operand
    ranges): it poisons its label during merging, because trace rows
    at that label would not be covered by the proof.
    """
    dom = _adder_domain(site)
    if dom is None:
        return None
    a, b, cin = dom
    abits, bbits = a.all_bits(), b.all_bits()
    out: Dict[int, int] = {}
    for j in range(N_BOUNDARIES):
        m = SLICE_BITS * (j + 1)
        lim = 1 << m
        carry: Optional[int] = None
        ah, bh = a.interval.hi, b.interval.hi
        al, bl = a.interval.lo, b.interval.lo
        if ah is not None and bh is not None \
                and ah + bh + cin < lim:
            carry = 0
        elif al is not None and bl is not None \
                and al + bl + cin >= lim \
                and ah is not None and ah < lim \
                and bh is not None and bh < lim:
            carry = 1
        ripple = _ripple_carry(abits, bbits, cin, m)
        if carry is None:
            carry = ripple
        elif ripple is not None and ripple != carry:
            # two sound proofs can never disagree; drop defensively
            carry = None
        if carry is not None:
            out[j] = carry
    return out


def function_facts(summary: FunctionSummary) -> Dict[str, CarryFact]:
    """Merged per-label facts for one function summary."""
    if summary.bailed:
        return {}
    by_label: Dict[str, List[Tuple[AdderSite,
                                   Optional[Dict[int, int]]]]] = {}
    for site in summary.adder_sites:
        label = site_label(summary.name, site)
        if label is None:
            continue
        by_label.setdefault(label, []).append(
            (site, site_carries(site)))
    out: Dict[str, CarryFact] = {}
    for label, entries in by_label.items():
        carries_list = [c for _, c in entries]
        if any(c is None for c in carries_list):
            continue
        merged: Dict[int, int] = {}
        for j in range(N_BOUNDARIES):
            vals = {c[j] for c in carries_list  # type: ignore[index]
                    if c is not None and j in c}
            if len(vals) == 1 and all(
                    c is not None and j in c for c in carries_list):
                merged[j] = vals.pop()
        if not merged:
            continue
        out[label] = CarryFact(
            label=label, width=WIDTH, carries=merged,
            sites=len(entries),
            line=min(s.lineno for s, _ in entries))
    return out


def module_facts_from_source(src: str, path: str = "<string>"
                             ) -> Dict[str, CarryFact]:
    """Facts for every kernel function of one module source."""
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError:
        return {}
    out: Dict[str, CarryFact] = {}
    for summary in analyze_module(tree, path).values():
        out.update(function_facts(summary))
    return out


def module_bails_from_source(src: str, path: str = "<string>"
                             ) -> Dict[str, Dict[str, object]]:
    """Per-function bail records of one module source.

    ``{function: {"bail_reason": ..., "line": ...}}`` for every kernel
    function whose abstract interpretation bailed.  The reason is the
    :class:`~repro.lint.ir.LoweringError` message, which names the
    offending construct and its location — a bailed function exports
    no facts, and this record says *why*.
    """
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError:
        return {}
    return {
        name: {"bail_reason": summary.reason, "line": summary.lineno}
        for name, summary in sorted(analyze_module(tree, path).items())
        if summary.bailed
    }


def facts_to_json(facts: Mapping[str, CarryFact]) -> Dict[str, dict]:
    """JSON-serialisable form of a fact table (sorted, stable)."""
    return {
        label: {
            "width": f.width,
            "carries": {str(j): f.carries[j]
                        for j in sorted(f.carries)},
            "sites": f.sites,
            "line": f.line,
        }
        for label, f in sorted(facts.items())
    }


def collect_facts_payload(paths) -> Dict[str, object]:
    """The ``st2-lint facts --json`` / ``--fact-dump`` document.

    Walks files and directories, analyses every ``*.py`` module and
    returns the versioned, sorted, JSON-serialisable fact table —
    byte-stable for fixed inputs (the golden-file contract external
    consumers and the fuzzer's static-facts oracle rely on).
    Unreadable files are skipped; unparsable ones export no facts.

    Bailed functions appear under the separate ``bails`` section
    (``{module: {function: {"bail_reason", "line"}}}``), never inside
    the fact records themselves: a bail exports no facts, only the
    LoweringError message explaining which construct stopped the
    analysis.
    """
    from pathlib import Path

    files = []
    for item in paths:
        p = Path(item)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    modules: Dict[str, Dict[str, dict]] = {}
    bails: Dict[str, Dict[str, Dict[str, object]]] = {}
    n_facts = n_bits = 0
    for file in sorted(set(files), key=str):
        try:
            src = file.read_text()
        except OSError:
            continue
        facts = module_facts_from_source(src, str(file))
        fn_bails = module_bails_from_source(src, str(file))
        if facts:
            modules[str(file)] = facts_to_json(facts)
            n_facts += len(facts)
            n_bits += sum(len(f.carries) for f in facts.values())
        if fn_bails:
            bails[str(file)] = fn_bails
    return {"version": 1, "facts": n_facts, "pinned_carries": n_bits,
            "bailed": sum(len(b) for b in bails.values()),
            "bails": bails, "modules": modules}


# ----------------------------------------------------------------------
# kernel-suite resolution (for the simulator / runner)
# ----------------------------------------------------------------------

_MODULE_CACHE: Dict[str, Dict[str, CarryFact]] = {}


def facts_for_module(path: str) -> Dict[str, CarryFact]:
    """Facts for one kernel module file (memoised per path)."""
    cached = _MODULE_CACHE.get(path)
    if cached is None:
        try:
            with open(path, "r") as fh:
                src = fh.read()
        except OSError:
            cached = {}
        else:
            cached = module_facts_from_source(src, path)
        _MODULE_CACHE[path] = cached
    return cached


def facts_for_kernel(kernel_name: str) -> Dict[str, CarryFact]:
    """Static carry facts for a named suite kernel.

    Resolves the kernel's defining module through the suite registry
    (prepare functions live in the same module as their kernel
    functions) and analyses the whole module — helper functions called
    by the kernel are covered because their PC labels carry their own
    function names.
    """
    import inspect

    from repro.kernels.suite import spec_by_name

    try:
        spec = spec_by_name(kernel_name)
    except KeyError:
        return {}
    module = inspect.getmodule(spec.prepare)
    if module is None:
        return {}
    try:
        path = inspect.getsourcefile(module)
    except TypeError:
        return {}
    if not path:
        return {}
    return facts_for_module(path)


__all__ = [
    "CarryFact", "N_BOUNDARIES", "SLICE_BITS", "WIDTH",
    "collect_facts_payload",
    "facts_for_kernel", "facts_for_module", "facts_to_json",
    "function_facts", "module_bails_from_source", "module_constants",
    "module_facts_from_source",
    "site_carries", "site_label",
]
