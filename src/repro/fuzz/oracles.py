"""The four-way differential oracle over one generated kernel.

Every kernel is executed once (unsanitized) to capture its trace, then
cross-examined by independent implementations of the same claims:

* **static-facts oracle** — every ``CarryFact`` the abstract
  interpreter proves is checked against the observed dynamic carries
  of every trace row it matches: a single contradicted bit is a hard
  soundness bug.  Facts are consumed in their ``st2-lint facts
  --json`` dict form (the ``--fact-dump`` interchange format) and
  cross-checked against the in-memory objects, so the export itself is
  under test.  Bailed analyses must claim nothing, proven-clean
  barriers must never trip the sanitizer, and a fully lint-clean
  kernel must execute sanitizer-clean.

* **adder oracle** — per sampled trace row, a from-first-principles
  big-int reference of the ST2 sliced adder (true carries, cycle-1
  carry-outs, error/suspect sets) recomputes what
  :class:`~repro.core.adder.ST2Adder` and the batched kernels the
  evaluation engine runs (:func:`~repro.core.batch.build_pack`,
  :func:`~repro.core.batch.predict_trace_batch`,
  :func:`~repro.core.batch.evaluate_trace_batch`, on one pack per
  trace) report, across predictor configs; the speculative result must
  equal the exact wrapped add.

* **bounds oracle** — the static speculation-outcome bounds of
  :mod:`repro.lint.bounds` must *contain* the dynamically observed
  metrics: aggregate adder-row count within the per-thread count box
  scaled by the launch, and per config class the observed
  misprediction rate, recompute-per-row, slowdown and system energy
  saving inside the report's intervals.  A bailed analysis must
  export trivial bounds only (a bail that still claims something is
  itself a soundness bug).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fuzz.gen import derive_stream
from repro.fuzz.harness import KernelBundle, execute
from repro.sim.sanitizer import BarrierDivergenceError, SanitizerError

#: oracle names, in report order
ORACLES = ("static", "adder", "sanitizer", "bounds")

#: configs the oracles default to — the design point, the plain shared
#: history, an operand predictor and VaLHALLA cover every prediction
#: mechanism class
DEFAULT_CONFIGS = "st2,prev,casa,valhalla"

#: per-kernel row cap of the big-int adder reference (per config)
ADDER_SAMPLE_ROWS = 160


@dataclass(frozen=True)
class OracleFailure:
    """One verified disagreement between two layers."""

    oracle: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "message": self.message,
                "details": self.details}


@dataclass
class KernelVerdict:
    """All oracle outcomes for one kernel."""

    name: str
    checks: Dict[str, int] = field(default_factory=dict)
    skips: Dict[str, str] = field(default_factory=dict)
    failures: List[OracleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "ok": self.ok,
                "checks": dict(self.checks), "skips": dict(self.skips),
                "failures": [f.to_dict() for f in self.failures]}


# ----------------------------------------------------------------------
# static-facts oracle
# ----------------------------------------------------------------------

def facts_as_json(facts: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The ``--fact-dump`` dict form, round-tripped through ``json``
    so the oracle consumes exactly what external tools would read."""
    from repro.lint.facts import facts_to_json

    payload: Dict[str, Dict[str, Any]] = json.loads(
        json.dumps(facts_to_json(facts)))
    return payload


def check_static_facts(run: Any, facts: Dict[str, Any],
                       facts_json: Dict[str, Dict[str, Any]],
                       summaries: Dict[str, Any],
                       verdict: KernelVerdict) -> None:
    """Every proven carry bit must match the observed dynamic carry of
    every trace row its label covers; bails must claim nothing."""
    from repro.core.batch import build_pack, unpack_bits
    from repro.core.predictors import trace_static_peek

    trace = run.trace
    known, value = trace_static_peek(trace, facts_json)
    known_obj, value_obj = trace_static_peek(trace, facts)
    if not (np.array_equal(known, known_obj)
            and np.array_equal(value[known], value_obj[known_obj])):
        verdict.failures.append(OracleFailure(
            "static",
            "facts JSON export disagrees with in-memory CarryFacts",
            {"labels": sorted(facts_json)}))
    verdict.checks["static_bits"] = int(known.sum())
    truth = unpack_bits(build_pack(trace).carries)
    bad = known & (value != truth[:, :known.shape[1]])
    if bad.any():
        rows, bounds = np.nonzero(bad)
        r, j = int(rows[0]), int(bounds[0])
        label = trace.pc_labels[int(trace.pc[r])]
        verdict.failures.append(OracleFailure(
            "static",
            f"statically proven carry contradicted at runtime: "
            f"label {label!r} boundary {j} claims "
            f"{int(value[r, j])}, trace row {r} observed "
            f"{int(truth[r, j])}",
            {"label": label, "row": r, "boundary": j,
             "claimed": int(value[r, j]),
             "observed": int(truth[r, j]),
             "contradicted_bits": int(bad.sum())}))
    for name, summary in summaries.items():
        if not summary.bailed:
            continue
        claimed = [lbl for lbl in facts_json
                   if lbl.startswith(f"{name}:")]
        if claimed:
            verdict.failures.append(OracleFailure(
                "static",
                f"analysis of {name!r} bailed ({summary.reason}) but "
                f"still exported facts — bail must mean no claims",
                {"function": name, "labels": claimed}))


# ----------------------------------------------------------------------
# sanitizer contract
# ----------------------------------------------------------------------

def _parse_finding_line(exc: SanitizerError, path: str) -> int:
    """Source line of a sanitizer finding in ``path`` (0 if foreign)."""
    text = str(exc)
    for piece in text.replace("(", " ").split():
        if piece.startswith(path + ":"):
            tail = piece[len(path) + 1:].rstrip(":,")
            try:
                return int(tail)
            except ValueError:
                return 0
    return 0


def lint_is_clean(source: str, path: str) -> bool:
    """No unsuppressed, non-informational findings over the module."""
    from repro.lint.analyzer import lint_source
    from repro.lint.findings import INFO_RULES

    findings = lint_source(source, path, hashed=False)
    return not any(f.rule not in INFO_RULES and not f.suppressed
                   for f in findings)


def check_sanitizer_contract(bundle: KernelBundle,
                             summaries: Dict[str, Any],
                             verdict: KernelVerdict) -> None:
    """Flow-proven-clean barriers must not trip the sanitizer, and a
    lint-clean kernel must run sanitizer-clean end to end."""
    clean_lines = set()
    unreachable_lines = set()
    for summary in summaries.values():
        if summary.bailed:
            continue
        for site in summary.barrier_sites:
            if not site.reachable:
                unreachable_lines.add(site.lineno)
            elif site.n_conds > 0 and not site.divergent:
                clean_lines.add(site.lineno)
    error: Optional[SanitizerError] = None
    try:
        execute(bundle, sanitize=True)
    except SanitizerError as exc:
        error = exc
    verdict.checks["sanitizer"] = 1
    if error is None:
        return
    line = _parse_finding_line(error, bundle.path)
    if isinstance(error, BarrierDivergenceError):
        if line in clean_lines:
            verdict.failures.append(OracleFailure(
                "static",
                f"sanitizer reports divergent barrier at line {line} "
                f"that the flow analysis proved uniformly masked",
                {"line": line, "error": str(error)}))
            return
        if line in unreachable_lines:
            verdict.failures.append(OracleFailure(
                "static",
                f"sanitizer reached the barrier at line {line} that "
                f"the flow analysis proved unreachable",
                {"line": line, "error": str(error)}))
            return
    if lint_is_clean(bundle.source, bundle.path):
        verdict.failures.append(OracleFailure(
            "sanitizer",
            f"lint-clean kernel fails the runtime sanitizer: "
            f"{type(error).__name__} at line {line}",
            {"line": line, "error": str(error),
             "kind": type(error).__name__}))
    else:
        # a correctly-dirty kernel legitimately trips the sanitizer;
        # record it so the run report shows coverage
        verdict.skips.setdefault(
            "sanitizer", f"{type(error).__name__} on a non-lint-clean "
                         f"kernel (consistent)")


# ----------------------------------------------------------------------
# adder oracle
# ----------------------------------------------------------------------

def reference_outcome(a: int, b: int, cin: int, width: int,
                      pred_bits: Sequence[int]) -> Dict[str, Any]:
    """Big-int, from-scratch reference of one speculative addition.

    Independent of :mod:`repro.core.bitops`: slice sums, true
    carry-ins, cycle-1 carry-outs under the *assumed* (predicted)
    carries, the error/suspect sets and the misprediction accounting
    are all rebuilt from Python integers.
    """
    bounds = [(lo, min(lo + 8, width)) for lo in range(0, width, 8)]
    n_slices = len(bounds)
    n_pred = n_slices - 1
    carries = [int(cin)]
    carry = int(cin)
    for lo, hi in bounds:
        w = hi - lo
        sa = (a >> lo) & ((1 << w) - 1)
        sb = (b >> lo) & ((1 << w) - 1)
        carry = (sa + sb + carry) >> w
        carries.append(carry)
    couts = []
    for idx, (lo, hi) in enumerate(bounds):
        w = hi - lo
        sa = (a >> lo) & ((1 << w) - 1)
        sb = (b >> lo) & ((1 << w) - 1)
        assumed = int(cin) if idx == 0 else int(pred_bits[idx - 1])
        couts.append(((sa + sb + assumed) >> w) & 1)
    errors = [0] * n_slices
    for i in range(1, n_slices):
        errors[i] = int(int(pred_bits[i - 1]) != couts[i - 1])
    suspect = []
    seen = 0
    for e in errors:
        seen |= e
        suspect.append(seen)
    wrong_bits = sum(int(int(pred_bits[j]) != carries[j + 1])
                     for j in range(n_pred))
    return {
        "result": (a + b + cin) & ((1 << width) - 1),
        "carry_ins": carries[:n_slices],
        "carry_out": carries[n_slices],
        "mispredicted": bool(any(errors)),
        "recomputed": sum(suspect),
        "wrong_bits": wrong_bits,
    }


def sample_rows(n: int, limit: int, seed: int) -> np.ndarray:
    """A deterministic row sample: a head prefix plus a seeded draw."""
    if n <= limit:
        return np.arange(n)
    head = limit // 4
    rng = random.Random(seed)  # st2-lint: disable=L5 — explicitly seeded sample
    rest = sorted(rng.sample(range(head, n), limit - head))
    return np.concatenate([np.arange(head), np.asarray(rest)])


def check_adder(run: Any, configs: Sequence[Any],
                verdict: KernelVerdict, limit: int = ADDER_SAMPLE_ROWS,
                seed: int = 0) -> None:
    """Reference-check the speculative adder row by row, per config."""
    from repro.core.adder import ST2Adder
    from repro.core.batch import (build_pack, evaluate_trace_batch,
                                  predict_trace_batch, unpack_bits)
    from repro.core.slices import geometry_for

    trace = run.trace
    n = len(trace)
    if n == 0:
        verdict.skips["adder"] = "empty adder trace"
        return
    rows = sample_rows(n, limit, seed)
    pack = build_pack(trace)
    # every slice's carry-in, slice 0's being the architectural one
    carries = np.column_stack([pack.cin, unpack_bits(pack.carries)])
    checked = 0
    for config in configs:
        pred = predict_trace_batch(trace, config, pack)
        mispredicted, recomputed, wrong_bits = evaluate_trace_batch(
            pack, pred.bits)
        pred_bits = unpack_bits(pred.bits)
        for r in rows.tolist():
            a = int(trace.op_a[r])
            b = int(trace.op_b[r])
            cin = int(trace.cin[r])
            width = int(trace.width[r])
            geo = geometry_for(width)
            bits = pred_bits[r, :geo.n_predictions]
            ref = reference_outcome(a, b, cin, width, bits.tolist())
            checked += 1
            problems: List[str] = []
            if not np.array_equal(
                    carries[r, :geo.n_slices],
                    np.asarray(ref["carry_ins"], dtype=np.uint8)):
                problems.append(
                    f"pack carries {carries[r, :geo.n_slices].tolist()} "
                    f"!= reference {ref['carry_ins']}")
            if geo.n_predictions:
                out = ST2Adder(geo).add(
                    np.asarray([a], dtype=np.uint64),
                    np.asarray([b], dtype=np.uint64),
                    bits.reshape(1, -1),
                    cin=np.asarray([cin], dtype=np.uint8))
                if int(out.result[0]) != ref["result"]:
                    problems.append(
                        f"ST2Adder result {int(out.result[0])} != "
                        f"exact add {ref['result']}")
                if bool(out.mispredicted[0]) != ref["mispredicted"]:
                    problems.append(
                        f"ST2Adder mispredicted "
                        f"{bool(out.mispredicted[0])} != reference "
                        f"{ref['mispredicted']}")
                if int(out.recomputed_slices[0]) != ref["recomputed"]:
                    problems.append(
                        f"ST2Adder recomputed "
                        f"{int(out.recomputed_slices[0])} != reference "
                        f"{ref['recomputed']}")
                if bool(mispredicted[r]) != ref["mispredicted"] \
                        or int(recomputed[r]) != ref["recomputed"] \
                        or int(wrong_bits[r]) != ref["wrong_bits"]:
                    problems.append(
                        f"evaluate_trace_batch accounting "
                        f"(mis={bool(mispredicted[r])}, "
                        f"rec={int(recomputed[r])}, "
                        f"wrong={int(wrong_bits[r])}) != reference "
                        f"(mis={ref['mispredicted']}, "
                        f"rec={ref['recomputed']}, "
                        f"wrong={ref['wrong_bits']})")
            if problems:
                label = trace.pc_labels[int(trace.pc[r])]
                verdict.failures.append(OracleFailure(
                    "adder",
                    f"row {r} ({label!r}, width {width}, config "
                    f"{config.name}): " + "; ".join(problems),
                    {"row": r, "config": config.name, "width": width,
                     "a": a, "b": b, "cin": cin,
                     "pred_bits": bits.tolist(),
                     "problems": problems}))
                break       # one row per config is plenty of signal
    verdict.checks["adder_rows"] = checked


# ----------------------------------------------------------------------
# bounds oracle
# ----------------------------------------------------------------------

def check_bounds(bundle: KernelBundle, run: Any,
                 configs: Sequence[Any], models: Any,
                 verdict: KernelVerdict) -> None:
    """Every static bound must contain the observed value.

    The soundness contract of :mod:`repro.lint.bounds`: for any launch
    geometry and any input data, the aggregate adder-row count lies in
    the per-thread count box scaled by the thread count, and the
    headline payload metrics of every config lie inside that
    config's class bounds.  Trivial (bailed) reports must claim
    nothing beyond the trivial template.
    """
    from repro.lint.bounds import (module_bounds_from_source,
                                   trivial_report)
    from repro.runner.units import evaluation_payload

    models.ensure()
    reports = module_bounds_from_source(bundle.source, bundle.path)
    report = reports.get(bundle.fn.__name__)
    if report is None:
        verdict.failures.append(OracleFailure(
            "bounds",
            f"no bounds report for kernel function "
            f"{bundle.fn.__name__!r} — every kernel must yield a "
            f"report (trivial at worst)",
            {"function": bundle.fn.__name__,
             "reports": sorted(reports)}))
        return
    checked = 0
    if report.trivial:
        # a bail is fine; a bail that still claims something is not
        template = trivial_report(report.function, report.path,
                                  report.lineno, report.bail_reason)
        checked += 1
        if report.classes != template.classes \
                or report.rows != template.rows or report.sites:
            verdict.failures.append(OracleFailure(
                "bounds",
                f"bailed analysis of {report.function!r} "
                f"({report.bail_reason}) exports non-trivial bounds "
                f"— bail must mean no claims",
                {"function": report.function,
                 "bail_reason": report.bail_reason}))
        verdict.checks["bounds"] = \
            verdict.checks.get("bounds", 0) + checked
        return
    threads = bundle.blocks * bundle.threads
    total = report.rows.scaled(threads)
    n_rows = len(run.trace)
    checked += 1
    if not (total.lo <= n_rows
            and (total.hi is None or n_rows <= total.hi)):
        verdict.failures.append(OracleFailure(
            "bounds",
            f"observed {n_rows} adder row(s) outside the static "
            f"count bound [{total.lo}, {total.hi}] "
            f"({threads} thread(s) x per-thread {report.rows.lo}.."
            f"{report.rows.hi})",
            {"rows": n_rows, "threads": threads,
             "lo": total.lo, "hi": total.hi}))
    for config in configs:
        cls = report.bounds_for_config(config)
        payload = evaluation_payload(run, config, models=models)
        metrics = payload["metrics"]
        mis = float(metrics["misprediction_rate"])
        mrec = mis * float(metrics["recomputed_per_misprediction"])
        observed = (
            ("misprediction_rate", mis, cls.mis),
            ("recompute_per_row", mrec, cls.mrec),
            ("perf_overhead", float(metrics["slowdown"]), cls.over),
            ("energy_saved", float(metrics["system_saving"]),
             cls.saved),
        )
        for name, value, bound in observed:
            checked += 1
            if not bound.contains(value):
                verdict.failures.append(OracleFailure(
                    "bounds",
                    f"static bound violated under {config.name} "
                    f"(class {cls.key}): {name} observed "
                    f"{value:.6g}, bound [{bound.lo}, {bound.hi}]",
                    {"config": config.name, "class": cls.key,
                     "metric": name, "observed": value,
                     "lo": bound.lo, "hi": bound.hi}))
    verdict.checks["bounds"] = verdict.checks.get("bounds", 0) + checked


# ----------------------------------------------------------------------
# top level
# ----------------------------------------------------------------------

def check_kernel(bundle: KernelBundle, configs: Sequence[Any],
                 models: Any = None,
                 oracles: Sequence[str] = ORACLES,
                 adder_limit: int = ADDER_SAMPLE_ROWS,
                 adder_seed: int = 0) -> KernelVerdict:
    """Run the requested oracles over one materialized kernel."""
    from repro.lint.absint import analyze_source
    from repro.lint.facts import module_facts_from_source
    from repro.runner.units import ModelBundle

    models = models if models is not None else ModelBundle()
    verdict = KernelVerdict(name=bundle.name)
    run = execute(bundle, sanitize=False)
    facts = module_facts_from_source(bundle.source, bundle.path)
    facts_json = facts_as_json(facts)
    summaries = analyze_source(bundle.source, bundle.path)
    if "static" in oracles:
        check_static_facts(run, facts, facts_json, summaries, verdict)
    if "sanitizer" in oracles:
        check_sanitizer_contract(bundle, summaries, verdict)
    if "adder" in oracles:
        check_adder(run, configs, verdict, limit=adder_limit,
                    seed=adder_seed)
    if "bounds" in oracles:
        check_bounds(bundle, run, configs, models, verdict)
    return verdict


def verdict_for_kernel(kernel: Any, directory: str,
                       configs: Sequence[Any], models: Any = None,
                       oracles: Sequence[str] = ORACLES
                       ) -> KernelVerdict:
    """Materialize a :class:`~repro.fuzz.gen.GeneratedKernel` and run
    the oracles (the one-call form the CLI and shrinker use)."""
    from repro.fuzz.harness import bundle_for

    bundle = bundle_for(kernel, directory)
    return check_kernel(bundle, configs, models=models, oracles=oracles,
                        adder_seed=derive_stream(kernel.seed,
                                                 kernel.index, "rows"))


__all__ = [
    "ADDER_SAMPLE_ROWS", "DEFAULT_CONFIGS", "KernelVerdict",
    "ORACLES", "OracleFailure", "check_adder", "check_bounds",
    "check_kernel", "check_sanitizer_contract", "check_static_facts",
    "facts_as_json", "lint_is_clean",
    "reference_outcome", "sample_rows", "verdict_for_kernel",
]
