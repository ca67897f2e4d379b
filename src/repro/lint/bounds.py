"""Static speculation-outcome bounds (the ``st2-lint bounds`` tier).

This module turns the flow tier's per-site knowledge (abstract adder
operands from :mod:`repro.lint.absint`, pinned slice carries from
:mod:`repro.lint.facts`) into **sound pre-execution bounds** on the
dynamic metrics every evaluation reports:

* ``misprediction_rate``   — mean of the per-row mispredicted flag,
* ``recompute_per_row``    — mean recomputed slices per trace row
  (the product ``misprediction_rate * recomputed_per_misprediction``),
* ``perf_overhead``        — the timing model's ``slowdown``,
* ``energy_saved``         — the power model's ``system_saving``.

The derivation has three stages:

1. **Row counting.**  A dedicated AST walk enumerates every trace-row
   emitting DSL call of the kernel body and bounds how many rows each
   site records per thread, as an integer box ``[lo, hi]`` (``hi``
   may be unbounded).  ``k.range`` trip counts are folded from module
   constants; Python branches and ``k.where`` contribute ``[0, 1]``
   factors; ``break``/``continue``/``return`` lower the floor to 0.
   Any construct the walk cannot model — an unknown ``k.<method>``,
   the handle ``k`` escaping into a call, nested function definitions
   — *bails the whole kernel to trivial bounds* (a bailed analysis
   claims nothing, mirroring the CarryFact contract).

2. **Per-site speculation outcome.**  For every 32-bit integer adder
   site the abstract interpreter summarised, each slice boundary is
   classified per (mechanism, peek) config class against the pinned
   carry and the statically known slice MSbs: *correct* (the
   prediction provably matches the true carry), *wrong* (provably
   mismatches), or *unknown*.  The ST2 adder recomputes
   ``n_slices - 1 - j_first`` slices where ``j_first`` is the first
   mismatched boundary, so a site with wrong boundaries ``W`` and
   ``lead`` leading correct boundaries mispredicts every row with
   recompute in ``[n_preds - min(W), n_preds - lead]``; an all-correct
   site never mispredicts.  FP/LEA rows and sites outside the proven
   unsigned-32 adder domain stay indeterminate (``[0, 1]`` /
   ``[0, n_preds]``).

3. **Composition.**  Kernel-level rate bounds are the extrema of the
   count-weighted average over the site boxes (vertex enumeration of
   the linear-fractional program; unbounded counts contribute their
   own value as a limit).  Objective bounds then follow from the
   model identities: ``slowdown == 0`` exactly when no row
   mispredicts (the baseline and ST2 pipelines run in lockstep
   otherwise differing only on mispredicted rows), and
   ``system_saving <= frac_max * max(0, s_max - mrec_lo * delta)``
   because the per-op adder saving is linear in the recompute rate
   and the adder datapath is at most ``frac_max`` of any op's energy.
   A kernel whose row-count upper bound is zero executes no
   adder-class instruction at all, so every metric is exactly 0.

Soundness contract: bounds hold for the default evaluation path —
``evaluation_payload`` metrics with the stock calibrated power model
and no static-peek fact overlay applied to the *headline* metrics
(facts only feed the separate ``static_peek`` ablation row).  The
``st2-fuzz`` bounds oracle enforces containment on every generated
kernel; ``st2-lint bounds`` and the L9/L10 info rules consume the
same reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.lint.absint import (AdderSite, FunctionSummary, analyze_module,
                               is_kernel_fn, module_constants)
from repro.lint.facts import (N_BOUNDARIES, SLICE_BITS, _adder_domain,
                              site_carries)

if TYPE_CHECKING:                                   # pragma: no cover
    from repro.core.predictors import SpeculationConfig

#: widest adder geometry in any trace (LEA w64: 8 slices, 7 predictions)
MAX_RECOMPUTE = 7

#: the speculation mechanisms whose static verdicts differ; history
#: configuration (pc_index / thread_key / sm_scoped) never changes a
#: *static* verdict, so (mechanism, peek) is the full config-class key.
MECHANISMS = ("static0", "static1", "operand", "valhalla", "prev")

#: trace rows one DSL call records per execution: method -> (rows, width)
_ROW_METHODS: Mapping[str, Tuple[int, int]] = {
    "iadd": (1, 32), "isub": (1, 32), "imin": (1, 32), "imax": (1, 32),
    "fadd": (1, 23), "fsub": (1, 23), "fmin": (1, 23), "fmax": (1, 23),
    "ffma": (1, 23),
    "dadd": (1, 52), "dsub": (1, 52), "dfma": (1, 52),
    "ld_global": (1, 64), "st_global": (1, 64), "atomic_add": (1, 64),
    "warp_reduce_iadd": (5, 32), "warp_reduce_fadd": (5, 23),
}

#: integer-add kinds whose absint site summaries carry operand domains
_INT_ADD_KINDS = frozenset({"iadd", "isub", "imin", "imax", "loop-inc"})

#: DSL methods proven to record no adder rows (``_emit_inst`` only).
#: Every method NOT listed here or in ``_ROW_METHODS`` bails the
#: kernel — new DSL surface can never silently break soundness.
_ROW_FREE_METHODS = frozenset({
    "thread_id", "global_id",
    "imul", "imad", "idiv", "irem", "iand", "ior", "ixor", "shl",
    "shr", "sel", "cvt_f32", "cvt_i32",
    "lt", "le", "gt", "ge", "eq", "ne", "flt", "fgt",
    "fmul", "fdiv", "fneg", "fabs", "dmul",
    "sqrt", "rsqrt", "rcp", "sin", "cos", "exp", "log",
    "shared", "ld_shared", "st_shared", "ld_const",
    "atomic_add_shared", "syncthreads",
    "shfl_down", "shfl_up", "shfl_xor", "tensor_mma",
})

#: structural DSL forms, only legal as ``for``-iterator / ``with``-item
_STRUCTURAL_METHODS = frozenset({"range", "where", "inline"})

_CORRECT, _WRONG, _UNKNOWN = "correct", "wrong", "unknown"

#: per-site outcome names (the ISSUE's SpecBound vocabulary)
ALWAYS_CORRECT = "always-correct"
ALWAYS_MISPREDICT = "always-mispredict"
INDETERMINATE = "indeterminate"


def _n_predictions(width: int) -> int:
    """Carry predictions per row of a ``width``-bit sliced add."""
    return (width + SLICE_BITS - 1) // SLICE_BITS - 1


def class_key(mechanism: str, peek: bool) -> str:
    """Canonical key of one static config class."""
    return f"{mechanism}+peek" if peek else mechanism


CLASS_KEYS = tuple(class_key(m, p)
                   for m in MECHANISMS for p in (False, True))


# ----------------------------------------------------------------------
# interval arithmetic: integer row counts and float metric bounds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Count:
    """Integer box ``[lo, hi]``; ``hi is None`` means unbounded."""

    lo: int
    hi: Optional[int] = None

    def times(self, other: "Count") -> "Count":
        lo = self.lo * other.lo
        if self.hi == 0 or other.hi == 0:
            return Count(lo, 0)
        if self.hi is None or other.hi is None:
            return Count(lo, None)
        return Count(lo, self.hi * other.hi)

    def scaled(self, n: int) -> "Count":
        return self.times(Count(n, n))

    def to_json(self) -> List[Optional[int]]:
        return [self.lo, self.hi]


@dataclass(frozen=True)
class Bound:
    """Closed float bound ``[lo, hi]``; ``None`` means unbounded."""

    lo: Optional[float]
    hi: Optional[float]

    def contains(self, x: float, tol: float = 1e-9) -> bool:
        if self.lo is not None and x < self.lo - tol:
            return False
        if self.hi is not None and x > self.hi + tol:
            return False
        return True

    def join(self, other: "Bound") -> "Bound":
        lo = (None if self.lo is None or other.lo is None
              else min(self.lo, other.lo))
        hi = (None if self.hi is None or other.hi is None
              else max(self.hi, other.hi))
        return Bound(lo, hi)

    def widen(self, newer: "Bound") -> "Bound":
        """Standard widening: a moving end jumps to unbounded."""
        lo = self.lo if (self.lo is not None and newer.lo is not None
                         and newer.lo >= self.lo) else None
        hi = self.hi if (self.hi is not None and newer.hi is not None
                         and newer.hi <= self.hi) else None
        return Bound(lo, hi)

    def to_json(self) -> List[Optional[float]]:
        return [self.lo, self.hi]


#: one composition entry: (count lo, count hi (None = unbounded), value)
RatioEntry = Tuple[int, Optional[int], float]


def ratio_sup(entries: Sequence[RatioEntry]) -> float:
    """Supremum of ``sum(c_i * v_i) / sum(c_i)`` over the count boxes.

    The maximand is a count-weighted average of the ``v_i``, so at an
    extremum every site with ``v`` above the optimum sits at its upper
    count and every site below at its lower count: sorting by ``v``
    descending, the optimum is among the ``n + 1`` prefix vertices.
    A site with unbounded count contributes its own ``v`` as a limit.
    When no vertex has any rows, the observed metric is 0.0 by
    convention (empty traces report zero rates).
    """
    order = sorted(entries, key=lambda e: e[2], reverse=True)
    best: Optional[float] = None
    for k in range(len(order) + 1):
        num = den = 0.0
        for i, (lo, hi, v) in enumerate(order):
            c = hi if (i < k and hi is not None) else lo
            num += c * v
            den += c
        if den > 0:
            r = num / den
            if best is None or r > best:
                best = r
    unbounded = [v for lo, hi, v in entries if hi is None]
    if unbounded:
        top = max(unbounded)
        if best is None or top > best:
            best = top
    return 0.0 if best is None else best


def ratio_inf(entries: Sequence[RatioEntry]) -> float:
    """Infimum of ``sum(c_i * v_i) / sum(c_i)`` over the count boxes.

    Mirror image of :func:`ratio_sup`.  When every count floor is zero
    the trace can be empty, whose conventional metric value is 0.0.
    """
    if all(lo == 0 for lo, _, _ in entries):
        return 0.0
    order = sorted(entries, key=lambda e: e[2])
    best: Optional[float] = None
    for k in range(len(order) + 1):
        num = den = 0.0
        for i, (lo, hi, v) in enumerate(order):
            c = hi if (i < k and hi is not None) else lo
            num += c * v
            den += c
        if den > 0:
            r = num / den
            if best is None or r < best:
                best = r
    unbounded = [v for lo, hi, v in entries if hi is None]
    if unbounded:
        low = min(unbounded)
        if best is None or low < best:
            best = low
    return 0.0 if best is None else max(0.0, best)


# ----------------------------------------------------------------------
# per-site speculation outcome
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpecBound:
    """Sound per-row outcome bounds of one site in one config class.

    ``m`` bounds the per-row misprediction indicator; ``rec`` bounds
    the per-row recomputed-slice count.
    """

    outcome: str                     # ALWAYS_* / INDETERMINATE
    m: Tuple[float, float]
    rec: Tuple[float, float]

    def join(self, other: "SpecBound") -> "SpecBound":
        outcome = (self.outcome if self.outcome == other.outcome
                   else INDETERMINATE)
        return SpecBound(
            outcome,
            (min(self.m[0], other.m[0]), max(self.m[1], other.m[1])),
            (min(self.rec[0], other.rec[0]),
             max(self.rec[1], other.rec[1])))


def _trivial_spec(width: int) -> SpecBound:
    return SpecBound(INDETERMINATE, (0.0, 1.0),
                     (0.0, float(_n_predictions(width))))


def _boundary_verdict(mechanism: str, carry: Optional[int],
                      msb_a: Optional[int],
                      msb_b: Optional[int]) -> str:
    """Classify one slice boundary's base prediction statically.

    ``carry`` is the pinned true carry out of the slice (None when
    unproven); ``msb_a`` / ``msb_b`` are the statically known MSbs of
    the slice in the recorded adder domain.  Both-one MSbs generate
    the carry and both-zero MSbs kill it, which is what makes the
    operand (CASA) and Peek cases decidable without a pinned carry.
    """
    if mechanism == "static0":
        if carry == 0:
            return _CORRECT
        return _WRONG if carry == 1 else _UNKNOWN
    if mechanism == "static1":
        if carry == 1:
            return _CORRECT
        return _WRONG if carry == 0 else _UNKNOWN
    if mechanism == "operand":
        if carry == 0:
            # both-one MSbs would force carry 1, so the prediction
            # (msb_a & msb_b) is provably 0 == carry.
            return _CORRECT
        if carry == 1:
            if msb_a == 1 and msb_b == 1:
                return _CORRECT
            if msb_a == 0 or msb_b == 0:
                return _WRONG
            return _UNKNOWN
        if msb_a is not None and msb_a == msb_b:
            # equal MSbs decide the carry (generate/kill) and the
            # prediction alike: 1&1 predicts the generated carry,
            # 0&0 predicts the killed one.
            return _CORRECT
        return _UNKNOWN
    # valhalla / prev: runtime history state is not modelled
    return _UNKNOWN


def _apply_peek(verdict: str, msb_a: Optional[int],
                msb_b: Optional[int]) -> str:
    """Overlay the Peek rule: when the slice MSbs agree at runtime the
    overlay replaces the prediction with the true carry (both-one
    generates, both-zero kills), so a firing Peek is always correct."""
    if msb_a is not None and msb_b is not None:
        return _CORRECT if msb_a == msb_b else verdict
    # Peek may or may not fire: a provably-wrong base prediction can
    # be silently fixed, so "wrong" degrades to "unknown".
    return _UNKNOWN if verdict == _WRONG else verdict


def _site_spec(site: AdderSite, mechanism: str,
               peek: bool) -> Optional[SpecBound]:
    """Outcome bound of one absint adder site, or None when the site
    cannot be mapped into the proven unsigned-32 adder domain."""
    dom = _adder_domain(site)
    if dom is None:
        return None
    a, b, _cin = dom
    pinned = site_carries(site) or {}
    abits, bbits = a.all_bits(), b.all_bits()
    verdicts: List[str] = []
    for j in range(N_BOUNDARIES):
        msb = SLICE_BITS * (j + 1) - 1
        ma, mb = abits.bit(msb), bbits.bit(msb)
        verdict = _boundary_verdict(mechanism, pinned.get(j), ma, mb)
        if peek:
            verdict = _apply_peek(verdict, ma, mb)
        verdicts.append(verdict)
    wrong = [j for j, v in enumerate(verdicts) if v == _WRONG]
    lead = 0
    while lead < len(verdicts) and verdicts[lead] == _CORRECT:
        lead += 1
    n_preds = N_BOUNDARIES
    if wrong:
        # the first actual mismatch j_first satisfies
        # lead <= j_first <= min(wrong); recompute = n_preds - j_first
        return SpecBound(
            ALWAYS_MISPREDICT, (1.0, 1.0),
            (float(n_preds - min(wrong)), float(n_preds - lead)))
    if lead == n_preds:
        return SpecBound(ALWAYS_CORRECT, (0.0, 0.0), (0.0, 0.0))
    return SpecBound(INDETERMINATE, (0.0, 1.0),
                     (0.0, float(n_preds - lead)))


def _group_spec(group: Sequence[AdderSite], width: int,
                mechanism: str, peek: bool) -> SpecBound:
    """Hull over every absint site sharing one (line, kind) — a trace
    row at the line may come from any of them."""
    if width != 32 or not group:
        return _trivial_spec(width)
    spec: Optional[SpecBound] = None
    for site in group:
        one = _site_spec(site, mechanism, peek)
        if one is None:
            return _trivial_spec(width)
        spec = one if spec is None else spec.join(one)
    assert spec is not None
    return spec


# ----------------------------------------------------------------------
# row counting (AST walk)
# ----------------------------------------------------------------------

class BoundsBail(Exception):
    """The kernel contains a construct the row walk cannot model."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


@dataclass
class _RawSite:
    lineno: int
    kind: str
    width: int
    lo: int
    hi: Optional[int]


class _RowWalker(ast.NodeVisitor):
    """Enumerates row-emitting DSL calls with per-thread count boxes."""

    def __init__(self, consts: Mapping[str, object]) -> None:
        self.consts = consts
        self.sites: List[_RawSite] = []
        self.zero_floor = False

    # -- entry point ---------------------------------------------------

    def walk_function(self, fn: ast.FunctionDef) -> None:
        self._stmts(fn.body, Count(1, 1))
        if self.zero_floor:
            for site in self.sites:
                site.lo = 0

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _k_method(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "k":
            return func.attr
        return None

    def _const_int(self, node: ast.expr) -> Optional[int]:
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool):
                return int(value)
            return value if isinstance(value, int) else None
        if isinstance(node, ast.Name):
            value = self.consts.get(node.id)
            if isinstance(value, bool):
                return int(value)
            return value if isinstance(value, int) else None
        if isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, ast.USub):
            v = self._const_int(node.operand)
            return None if v is None else -v
        if isinstance(node, ast.BinOp):
            a = self._const_int(node.left)
            b = self._const_int(node.right)
            if a is None or b is None:
                return None
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.FloorDiv) and b != 0:
                return a // b
            return None
        return None

    def _range_trips(self, call: ast.Call) -> Count:
        if call.keywords or not 1 <= len(call.args) <= 3:
            return Count(0, None)
        args = [self._const_int(a) for a in call.args]
        if any(a is None for a in args):
            return Count(0, None)
        ints = [a for a in args if a is not None]
        if len(ints) == 3 and ints[2] == 0:
            return Count(0, None)
        trips = len(range(*ints))
        return Count(trips, trips)

    def _host_trips(self, node: ast.expr) -> Count:
        if isinstance(node, (ast.Tuple, ast.List)):
            if any(isinstance(e, ast.Starred) for e in node.elts):
                return Count(0, None)
            return Count(len(node.elts), len(node.elts))
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "range":
            return self._range_trips(node)
        return Count(0, None)

    def _scan_args(self, call: ast.Call, mult: Count) -> None:
        for arg in call.args:
            self._expr(arg, mult)
        for kw in call.keywords:
            self._expr(kw.value, mult)

    # -- expressions ---------------------------------------------------

    def _expr(self, node: ast.expr, mult: Count) -> None:
        if isinstance(node, ast.Call):
            method = self._k_method(node.func)
            if method is not None:
                if method in _ROW_METHODS:
                    rows, width = _ROW_METHODS[method]
                    count = mult.scaled(rows)
                    self.sites.append(_RawSite(
                        node.lineno, method, width,
                        count.lo, count.hi))
                    self._scan_args(node, mult)
                    return
                if method in _ROW_FREE_METHODS:
                    self._scan_args(node, mult)
                    return
                if method in _STRUCTURAL_METHODS:
                    raise BoundsBail(
                        f"k.{method}() outside its structural position "
                        f"(line {node.lineno})")
                raise BoundsBail(
                    f"unmodelled DSL call k.{method}() "
                    f"(line {node.lineno})")
            self._expr(node.func, mult)
            self._scan_args(node, mult)
            return
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) \
                    and node.value.id == "k":
                return                          # attribute read: row-free
            self._expr(node.value, mult)
            return
        if isinstance(node, ast.Name):
            if node.id == "k":
                raise BoundsBail(
                    f"kernel handle escapes the analysed body "
                    f"(line {node.lineno})")
            return
        if isinstance(node, ast.BoolOp):
            self._expr(node.values[0], mult)
            half = mult.times(Count(0, 1))
            for value in node.values[1:]:
                self._expr(value, half)
            return
        if isinstance(node, ast.IfExp):
            self._expr(node.test, mult)
            half = mult.times(Count(0, 1))
            self._expr(node.body, half)
            self._expr(node.orelse, half)
            return
        if isinstance(node, ast.Lambda):
            raise BoundsBail(
                f"nested lambda (line {node.lineno})")
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            loopy = mult.times(Count(0, None))
            for i, comp in enumerate(node.generators):
                self._expr(comp.iter, mult if i == 0 else loopy)
                for cond in comp.ifs:
                    self._expr(cond, loopy)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child, loopy)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, mult)
            elif isinstance(child, ast.keyword):
                self._expr(child.value, mult)
        return

    # -- statements ----------------------------------------------------

    def _stmts(self, body: Sequence[ast.stmt],
               mult: Count) -> Tuple[bool, bool]:
        saw_break = saw_continue = False
        for stmt in body:
            brk, cont = self._stmt(stmt, mult)
            saw_break = saw_break or brk
            saw_continue = saw_continue or cont
        return saw_break, saw_continue

    def _stmt(self, stmt: ast.stmt,
              mult: Count) -> Tuple[bool, bool]:
        if isinstance(stmt, ast.Break):
            return True, False
        if isinstance(stmt, ast.Continue):
            return False, True
        if isinstance(stmt, ast.For):
            self._for(stmt, mult)
            return False, False
        if isinstance(stmt, ast.While):
            loopy = mult.times(Count(0, None))
            self._expr(stmt.test, loopy)
            self._stmts(stmt.body, loopy)
            self._stmts(stmt.orelse, mult.times(Count(0, 1)))
            return False, False
        if isinstance(stmt, ast.If):
            self._expr(stmt.test, mult)
            half = mult.times(Count(0, 1))
            b1, c1 = self._stmts(stmt.body, half)
            b2, c2 = self._stmts(stmt.orelse, half)
            return b1 or b2, c1 or c2
        if isinstance(stmt, ast.With):
            return self._with(stmt, mult)
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Assert)):
            self.zero_floor = True
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, mult)
            return False, False
        if isinstance(stmt, ast.Try):
            self.zero_floor = True
            flags = self._stmts(stmt.body, mult)
            half = mult.times(Count(0, 1))
            for handler in stmt.handlers:
                b, c = self._stmts(handler.body, half)
                flags = (flags[0] or b, flags[1] or c)
            for extra in (stmt.orelse, stmt.finalbody):
                b, c = self._stmts(extra, mult)
                flags = (flags[0] or b, flags[1] or c)
            return flags
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.AsyncFor, ast.AsyncWith,
                             ast.Match)):
            raise BoundsBail(
                f"unmodelled statement {type(stmt).__name__} "
                f"(line {stmt.lineno})")
        if isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal,
                             ast.Import, ast.ImportFrom)):
            return False, False
        # Expr / Assign / AugAssign / AnnAssign / Delete / ...
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child, mult)
        return False, False

    def _for(self, node: ast.For, mult: Count) -> None:
        iter_call = node.iter if isinstance(node.iter, ast.Call) else None
        is_krange = (iter_call is not None
                     and self._k_method(iter_call.func) == "range")
        if is_krange:
            assert iter_call is not None
            self._scan_args(iter_call, mult)
            trips = self._range_trips(iter_call)
        else:
            self._expr(node.iter, mult)
            trips = self._host_trips(node.iter)
        body_mult = mult.times(trips)
        start = len(self.sites)
        brk, cont = self._stmts(node.body, body_mult)
        if cont:
            # a skipped tail iteration lowers body floors, but the
            # loop increment of a k.range still fires
            for site in self.sites[start:]:
                site.lo = 0
        if is_krange:
            # the iterator increment is a real IADD row, emitted after
            # each completed iteration (a break skips that emission)
            self.sites.append(_RawSite(
                node.lineno, "loop-inc", 32,
                body_mult.lo, body_mult.hi))
        if brk:
            for site in self.sites[start:]:
                site.lo = 0
        if node.orelse:
            self._stmts(node.orelse, mult.times(Count(0, 1)))

    def _with(self, node: ast.With,
              mult: Count) -> Tuple[bool, bool]:
        body_mult = mult
        for item in node.items:
            expr = item.context_expr
            method = (self._k_method(expr.func)
                      if isinstance(expr, ast.Call) else None)
            if method == "where":
                assert isinstance(expr, ast.Call)
                self._scan_args(expr, mult)
                body_mult = body_mult.times(Count(0, 1))
            elif method == "inline":
                assert isinstance(expr, ast.Call)
                self._scan_args(expr, mult)
            else:
                raise BoundsBail(
                    f"unsupported with-context (line {node.lineno})")
        return self._stmts(node.body, body_mult)


# ----------------------------------------------------------------------
# model constants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundConstants:
    """Power/circuit constants the objective bounds are stated in.

    ``s_max`` is the zero-miss adder datapath saving, ``delta`` the
    saving lost per recomputed slice per row, ``frac_max`` the largest
    adder fraction of any op subtype, and ``floor_ok`` whether the
    per-op saving exceeds the DFF + level-shifter overhead for every
    subtype (needed to claim ``system_saving >= 0`` at zero misses).
    """

    s_max: float
    delta: float
    frac_max: float
    floor_ok: bool


_CONSTANTS: List[Optional[BoundConstants]] = [None]


def bound_constants() -> BoundConstants:
    """Constants of the default model bundle (memoised)."""
    if _CONSTANTS[0] is not None:
        return _CONSTANTS[0]
    from repro.power.calibration import calibrated_model
    from repro.power.components import MODEL_ALU_SUBTYPE_PJ, Component
    from repro.st2.architecture import default_adder_model
    from repro.st2.energy import ADDER_FRACTION

    pm = calibrated_model()
    am = default_adder_model()
    s_max = float(am.saving(0.0, 0.0))          # type: ignore[attr-defined]
    delta = float(am.slice_recompute_fj         # type: ignore[attr-defined]
                  / am.reference_fj)            # type: ignore[attr-defined]
    frac_max = max(ADDER_FRACTION.values())
    overhead_j = (am.dff_fj                     # type: ignore[attr-defined]
                  + am.level_shifter_fj) * 1e-15  # type: ignore[attr-defined]
    scale = float(pm.scales[Component.ALU_FPU])  # type: ignore[attr-defined]
    floor_ok = all(
        MODEL_ALU_SUBTYPE_PJ[sub] * 1e-12 * scale * frac * s_max
        >= 2.0 * overhead_j
        for sub, frac in ADDER_FRACTION.items())
    constants = BoundConstants(s_max, delta, frac_max, floor_ok)
    _CONSTANTS[0] = constants
    return constants


# ----------------------------------------------------------------------
# kernel reports
# ----------------------------------------------------------------------

@dataclass
class SiteBounds:
    """One counted row source with its per-class outcome bounds."""

    lineno: int
    kind: str
    width: int
    count: Count
    spec: Dict[str, SpecBound] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        static = {key: sb.outcome
                  for key, sb in sorted(self.spec.items())
                  if sb.outcome != INDETERMINATE}
        return {"line": self.lineno, "kind": self.kind,
                "width": self.width, "rows": self.count.to_json(),
                "static": static}


@dataclass(frozen=True)
class ClassBounds:
    """Kernel-level metric bounds for one (mechanism, peek) class."""

    mechanism: str
    peek: bool
    mis: Bound
    mrec: Bound
    over: Bound
    saved: Bound

    @property
    def key(self) -> str:
        return class_key(self.mechanism, self.peek)

    def to_json(self) -> Dict[str, object]:
        return {
            "misprediction_rate": self.mis.to_json(),
            "recompute_per_row": self.mrec.to_json(),
            "perf_overhead": self.over.to_json(),
            "energy_saved": self.saved.to_json(),
        }


@dataclass
class KernelBoundsReport:
    """Sound speculation-outcome bounds for one kernel function."""

    function: str
    path: str
    lineno: int
    trivial: bool
    bail_reason: Optional[str]
    rows: Count
    sites: List[SiteBounds]
    classes: Dict[str, ClassBounds]

    def bounds_for(self, mechanism: str, peek: bool) -> ClassBounds:
        return self.classes[class_key(mechanism, peek)]

    def bounds_for_config(
            self, config: "SpeculationConfig") -> ClassBounds:
        """Bounds for any concrete design point: only the mechanism
        and the Peek retrofit matter statically."""
        return self.bounds_for(config.mechanism, config.peek)

    def to_json(self) -> Dict[str, object]:
        return {
            "line": self.lineno,
            "trivial": self.trivial,
            "bail_reason": self.bail_reason,
            "rows": self.rows.to_json(),
            "sites": [site.to_json() for site in self.sites],
            "bounds": {key: self.classes[key].to_json()
                       for key in sorted(self.classes)},
        }


def _trivial_classes() -> Dict[str, ClassBounds]:
    out: Dict[str, ClassBounds] = {}
    for mech in MECHANISMS:
        for peek in (False, True):
            out[class_key(mech, peek)] = ClassBounds(
                mech, peek,
                mis=Bound(0.0, 1.0),
                mrec=Bound(0.0, float(MAX_RECOMPUTE)),
                over=Bound(0.0, None),
                saved=Bound(None, 1.0))
    return out


def trivial_report(function: str, path: str, lineno: int,
                   reason: str) -> KernelBoundsReport:
    """A bailed analysis claims nothing beyond the trivial bounds."""
    return KernelBoundsReport(
        function=function, path=path, lineno=lineno, trivial=True,
        bail_reason=reason, rows=Count(0, None), sites=[],
        classes=_trivial_classes())


def _compose_class(sites: Sequence[SiteBounds], rows: Count,
                   mechanism: str, peek: bool,
                   constants: BoundConstants) -> ClassBounds:
    key = class_key(mechanism, peek)
    if rows.hi == 0:
        # no adder-class instruction ever executes: the trace is
        # row-free, the fine add counts are zero, the pipelines run in
        # lockstep — every metric is exactly 0.
        zero = Bound(0.0, 0.0)
        return ClassBounds(mechanism, peek, zero, zero, zero, zero)
    mis = Bound(
        ratio_inf([(s.count.lo, s.count.hi, s.spec[key].m[0])
                   for s in sites]),
        ratio_sup([(s.count.lo, s.count.hi, s.spec[key].m[1])
                   for s in sites]))
    mrec = Bound(
        ratio_inf([(s.count.lo, s.count.hi, s.spec[key].rec[0])
                   for s in sites]),
        ratio_sup([(s.count.lo, s.count.hi, s.spec[key].rec[1])
                   for s in sites]))
    if mis.hi == 0.0:
        over = Bound(0.0, 0.0)
        saved_lo: Optional[float] = \
            0.0 if constants.floor_ok else None
    else:
        over = Bound(0.0, None)
        saved_lo = None
    mrec_lo = mrec.lo if mrec.lo is not None else 0.0
    saved_hi = constants.frac_max * max(
        0.0, constants.s_max - mrec_lo * constants.delta)
    return ClassBounds(mechanism, peek, mis, mrec, over,
                       Bound(saved_lo, saved_hi))


def kernel_bounds(fn: ast.FunctionDef, summary: FunctionSummary,
                  consts: Mapping[str, object],
                  path: str) -> KernelBoundsReport:
    """The bounds report of one kernel function."""
    if summary.bailed:
        return trivial_report(fn.name, path, fn.lineno,
                              f"absint bailed: {summary.reason}")
    walker = _RowWalker(consts)
    try:
        walker.walk_function(fn)
    except BoundsBail as bail:
        return trivial_report(fn.name, path, fn.lineno, bail.reason)
    except RecursionError:
        return trivial_report(fn.name, path, fn.lineno,
                              "row walk recursion limit")
    groups: Dict[Tuple[int, str], List[AdderSite]] = {}
    for adder_site in summary.adder_sites:
        groups.setdefault(
            (adder_site.lineno, adder_site.kind), []).append(adder_site)
    sites: List[SiteBounds] = []
    for raw in walker.sites:
        site = SiteBounds(raw.lineno, raw.kind, raw.width,
                          Count(raw.lo, raw.hi))
        group = (groups.get((raw.lineno, raw.kind), [])
                 if raw.kind in _INT_ADD_KINDS else [])
        for mech in MECHANISMS:
            for peek in (False, True):
                site.spec[class_key(mech, peek)] = _group_spec(
                    group, raw.width, mech, peek)
        sites.append(site)
    rows_lo = sum(s.count.lo for s in sites)
    rows_hi: Optional[int] = 0
    for s in sites:
        if rows_hi is None or s.count.hi is None:
            rows_hi = None
        else:
            rows_hi += s.count.hi
    rows = Count(rows_lo, rows_hi)
    constants = bound_constants()
    classes = {
        class_key(mech, peek): _compose_class(
            sites, rows, mech, peek, constants)
        for mech in MECHANISMS for peek in (False, True)
    }
    return KernelBoundsReport(
        function=fn.name, path=path, lineno=fn.lineno, trivial=False,
        bail_reason=None, rows=rows, sites=sites, classes=classes)


def module_bounds(tree: ast.Module,
                  path: str = "<string>"
                  ) -> Dict[str, KernelBoundsReport]:
    """Reports for every top-level kernel function of one module."""
    consts = module_constants(tree)
    summaries = analyze_module(tree, path)
    out: Dict[str, KernelBoundsReport] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and is_kernel_fn(node):
            out[node.name] = kernel_bounds(
                node, summaries[node.name], consts, path)
    return out


def module_bounds_from_source(src: str, path: str = "<string>"
                              ) -> Dict[str, KernelBoundsReport]:
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError:
        return {}
    return module_bounds(tree, path)


def collect_bounds_payload(paths: Sequence[str]) -> Dict[str, object]:
    """The ``st2-lint bounds --json`` document: versioned, sorted and
    byte-stable for a fixed input set (order-independent)."""
    from pathlib import Path

    files: List[Path] = []
    for item in paths:
        p = Path(item)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    modules: Dict[str, Dict[str, object]] = {}
    n_kernels = n_trivial = 0
    for file in sorted(set(files), key=str):
        try:
            src = file.read_text()
        except OSError:
            continue
        reports = module_bounds_from_source(src, str(file))
        if not reports:
            continue
        modules[str(file)] = {name: report.to_json()
                              for name, report in sorted(reports.items())}
        n_kernels += len(reports)
        n_trivial += sum(r.trivial for r in reports.values())
    return {"version": 1, "kernels": n_kernels, "trivial": n_trivial,
            "modules": modules}


# ----------------------------------------------------------------------
# kernel-suite resolution: bounds by suite kernel name
# ----------------------------------------------------------------------

_MODULE_CACHE: Dict[str, Dict[str, KernelBoundsReport]] = {}
_KERNEL_CACHE: Dict[str, Optional[KernelBoundsReport]] = {}


def _prepared_fn_name(tree: ast.Module,
                      prepare_name: str) -> Optional[str]:
    """The kernel function a suite ``prepare`` wires up, read off the
    ``fn=`` keyword of its ``PreparedKernel(...)`` call."""
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef)
                and node.name == prepare_name):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name != "PreparedKernel":
                continue
            for kw in call.keywords:
                if kw.arg == "fn" and isinstance(kw.value, ast.Name):
                    return kw.value.id
    return None


def bounds_for_module(path: str) -> Dict[str, KernelBoundsReport]:
    """Reports for one kernel module file (memoised per path)."""
    cached = _MODULE_CACHE.get(path)
    if cached is None:
        try:
            with open(path, "r") as fh:
                src = fh.read()
        except OSError:
            cached = {}
        else:
            cached = module_bounds_from_source(src, path)
        _MODULE_CACHE[path] = cached
    return cached


def bounds_for_kernel(kernel_name: str
                      ) -> Optional[KernelBoundsReport]:
    """Static bounds for a named suite kernel, or None when the
    kernel function cannot be resolved (consumers must then claim
    nothing, exactly as for a trivial report)."""
    if kernel_name in _KERNEL_CACHE:
        return _KERNEL_CACHE[kernel_name]
    report = _resolve_kernel_report(kernel_name)
    _KERNEL_CACHE[kernel_name] = report
    return report


def _resolve_kernel_report(kernel_name: str
                           ) -> Optional[KernelBoundsReport]:
    import inspect

    from repro.kernels.suite import spec_by_name

    try:
        spec = spec_by_name(kernel_name)
    except KeyError:
        return None
    module = inspect.getmodule(spec.prepare)
    if module is None:
        return None
    try:
        path = inspect.getsourcefile(module)
    except TypeError:
        return None
    if not path:
        return None
    try:
        with open(path, "r") as fh:
            src = fh.read()
    except OSError:
        return None
    try:
        tree = ast.parse(src, filename=path)
    except SyntaxError:
        return None
    fn_name = _prepared_fn_name(tree, spec.prepare.__name__)
    if fn_name is None:
        return None
    return bounds_for_module(path).get(fn_name)


__all__ = [
    "ALWAYS_CORRECT", "ALWAYS_MISPREDICT", "INDETERMINATE",
    "Bound", "BoundConstants", "BoundsBail", "CLASS_KEYS",
    "ClassBounds", "Count", "KernelBoundsReport", "MAX_RECOMPUTE",
    "MECHANISMS", "SiteBounds", "SpecBound",
    "bound_constants", "bounds_for_kernel", "bounds_for_module",
    "class_key", "collect_bounds_payload", "kernel_bounds",
    "module_bounds", "module_bounds_from_source", "ratio_inf",
    "ratio_sup", "trivial_report",
]
