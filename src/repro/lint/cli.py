"""``st2-lint`` command-line entry point.

Exit codes follow the shared contract (:mod:`repro.cli_common`):
0 — clean (or every finding suppressed/baselined), 1 — new
unsuppressed findings, 2 — usage or parse errors.  ``--json`` emits
the findings as one machine-readable document.

``st2-lint facts [paths...] [--json]`` runs only the abstract
interpreter and exports the statically proven per-PC slice-carry
facts — the table the evaluation engine's static-peek overlay
(:mod:`repro.sim.vec.engine`) consumes.

``st2-lint bounds [paths...] [--json]`` runs the bounds tier
(:mod:`repro.lint.bounds`) and exports sound per-kernel,
per-config-class bounds on misprediction rate, recompute, perf
overhead and energy saving.  Like ``facts`` it is a report, not a
gate: it always exits 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import cli_common
from repro.lint.analyzer import ALL_RULES, lint_paths
from repro.lint.baseline import (load_baseline, new_findings,
                                 write_baseline)
from repro.lint.findings import INFO_RULES, RULES


def _parse_rules(spec: str):
    rules = tuple(r.strip() for r in spec.split(",") if r.strip())
    unknown = [r for r in rules if r not in ALL_RULES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule(s) {', '.join(unknown)}; "
            f"choose from {', '.join(ALL_RULES)}")
    return rules


def build_parser() -> argparse.ArgumentParser:
    parser = cli_common.build_parser(
        "st2-lint",
        "Static correctness analyzer for the ST2 kernel DSL "
        "(rules L1-L10; `st2-lint facts` exports static carry facts, "
        "`st2-lint bounds` exports static speculation-outcome "
        "bounds).")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--rules", type=_parse_rules, default=None,
                        metavar="L1,L2,...",
                        help="comma-separated subset of rules to run")
    parser.add_argument("--baseline", metavar="FILE",
                        help="accept findings recorded in this "
                             "baseline file")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="record current findings as the accepted "
                             "baseline and exit 0")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print suppressed findings")
    parser.add_argument("--show-info", action="store_true",
                        help="also print informational findings "
                             "(L6/L8/L9/L10 — they never affect the "
                             "exit code or baselines)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--fact-dump", metavar="FILE",
                        help="also write the statically proven per-PC "
                             "carry facts of the linted paths to FILE "
                             "as JSON (the `st2-lint facts --json` "
                             "document; '-' for stdout)")
    cli_common.add_json_flag(parser)
    return parser


def build_facts_parser() -> argparse.ArgumentParser:
    parser = cli_common.build_parser(
        "st2-lint facts",
        "Export statically proven per-PC slice-carry facts "
        "(the static-peek fact table).")
    parser.add_argument("paths", nargs="*",
                        default=["src/repro/kernels"],
                        help="files or directories to analyze "
                             "(default: src/repro/kernels)")
    cli_common.add_json_flag(parser)
    return parser


def build_bounds_parser() -> argparse.ArgumentParser:
    parser = cli_common.build_parser(
        "st2-lint bounds",
        "Export sound static per-kernel speculation-outcome bounds "
        "(misprediction rate, recompute, perf overhead, energy "
        "saving per config class).")
    parser.add_argument("paths", nargs="*",
                        default=["src/repro/kernels"],
                        help="files or directories to analyze "
                             "(default: src/repro/kernels)")
    cli_common.add_json_flag(parser)
    return parser


def bounds_main(argv, out) -> int:
    """``st2-lint bounds`` — always exits 0 (the export is a report,
    not a gate; bailed kernels export trivial bounds only)."""
    from repro.lint.bounds import collect_bounds_payload
    args = build_bounds_parser().parse_args(argv)
    payload = collect_bounds_payload(args.paths)
    if args.json:
        cli_common.emit_json(payload, out=out)
        return cli_common.EXIT_OK
    modules = payload["modules"]
    for path in sorted(modules):
        for name, rec in sorted(modules[path].items()):
            rows = rec["rows"]
            if rec["trivial"]:
                print(f"{path}:{rec['line']}: {name}: trivial "
                      f"(bailed: {rec['bail_reason']})", file=out)
                continue
            print(f"{path}:{rec['line']}: {name}: rows in "
                  f"[{rows[0]}, "
                  f"{'inf' if rows[1] is None else rows[1]}], "
                  f"{len(rec['sites'])} site(s)", file=out)
            for key, cls in sorted(rec["bounds"].items()):

                def _fmt(pair):
                    lo = "-inf" if pair[0] is None else f"{pair[0]:.4g}"
                    hi = "inf" if pair[1] is None else f"{pair[1]:.4g}"
                    return f"[{lo}, {hi}]"

                print(f"  {key}: mis {_fmt(cls['misprediction_rate'])}"
                      f" rec/row {_fmt(cls['recompute_per_row'])}"
                      f" overhead {_fmt(cls['perf_overhead'])}"
                      f" saved {_fmt(cls['energy_saved'])}", file=out)
    print(f"st2-lint bounds: {payload['kernels']} kernel(s), "
          f"{payload['trivial']} trivial", file=out)
    return cli_common.EXIT_OK


def facts_main(argv, out) -> int:
    """``st2-lint facts`` — always exits 0 (the export is a report,
    not a gate; parse failures simply export no facts)."""
    from repro.lint.facts import collect_facts_payload
    args = build_facts_parser().parse_args(argv)
    payload = collect_facts_payload(args.paths)
    if args.json:
        cli_common.emit_json(payload, out=out)
        return cli_common.EXIT_OK
    modules = payload["modules"]
    for path in sorted(modules):
        for label, rec in modules[path].items():
            pinned = ", ".join(f"c{j}={c}"
                               for j, c in rec["carries"].items())
            print(f"{path}:{rec['line']}: {label} "
                  f"[w{rec['width']}, {rec['sites']} site(s)] "
                  f"{pinned}", file=out)
    bails = payload["bails"]
    for path in sorted(bails):
        for name, rec in bails[path].items():
            print(f"{path}:{rec['line']}: {name}: bailed — "
                  f"{rec['bail_reason']}", file=out)
    print(f"st2-lint facts: {payload['facts']} PC label(s), "
          f"{payload['pinned_carries']} pinned carry boundary(ies), "
          f"{payload['bailed']} bailed function(s)",
          file=out)
    return cli_common.EXIT_OK


def _finding_record(f) -> dict:
    return {"path": f.path, "line": f.line, "rule": f.rule,
            "message": f.message, "suppressed": f.suppressed}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    arg_list = list(sys.argv[1:] if argv is None else argv)
    if arg_list and arg_list[0] == "facts":
        return facts_main(arg_list[1:], out)
    if arg_list and arg_list[0] == "bounds":
        return bounds_main(arg_list[1:], out)
    parser = build_parser()
    args = parser.parse_args(arg_list)

    if args.list_rules:
        if args.json:
            cli_common.emit_json(dict(RULES), out=out)
        else:
            for rule, text in RULES.items():
                print(f"{rule}  {text}", file=out)
        return cli_common.EXIT_OK

    findings = lint_paths(args.paths, rules=args.rules)

    errors = [f for f in findings if f.rule == "E0"]
    for f in errors:
        print(f.format(), file=out)
    if errors:
        return cli_common.EXIT_USAGE

    if args.fact_dump:
        from repro.lint.facts import collect_facts_payload
        if args.fact_dump == "-" and args.json:
            print("st2-lint: --fact-dump - conflicts with --json "
                  "(two documents on stdout)", file=sys.stderr)
            return cli_common.EXIT_USAGE
        payload = collect_facts_payload(args.paths)
        if args.fact_dump == "-":
            cli_common.emit_json(payload, out=out)
        else:
            with open(args.fact_dump, "w") as fh:
                cli_common.emit_json(payload, out=fh)

    if args.write_baseline:
        recorded = write_baseline(args.write_baseline, findings)
        print(f"st2-lint: wrote {sum(recorded.values())} finding(s) "
              f"to {args.write_baseline}", file=out)
        return 0

    baseline = {}
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (ValueError, OSError) as exc:
            print(f"st2-lint: bad baseline: {exc}", file=out)
            return 2

    info = [f for f in findings
            if f.rule in INFO_RULES and not f.suppressed]
    fresh = new_findings(findings, baseline)
    shown = list(fresh)
    if args.show_suppressed:
        shown += [f for f in findings if f.suppressed]
    if args.show_info:
        shown += info
    shown = sorted(shown, key=lambda f: (f.path, f.line, f.rule))

    n_sup = sum(1 for f in findings if f.suppressed)
    n_base = sum(1 for f in findings
                 if not f.suppressed
                 and f.rule not in INFO_RULES) - len(fresh)

    if args.json:
        cli_common.emit_json({
            "findings": [_finding_record(f) for f in shown],
            "fresh": len(fresh), "suppressed": n_sup,
            "baselined": n_base, "info": len(info),
            "clean": not fresh}, out=out)
        return cli_common.EXIT_PROBLEMS if fresh else cli_common.EXIT_OK

    for f in shown:
        print(f.format(), file=out)
    tail = []
    if n_sup:
        tail.append(f"{n_sup} suppressed")
    if n_base:
        tail.append(f"{n_base} baselined")
    if info and not args.show_info:
        tail.append(f"{len(info)} informational (--show-info)")
    note = f" ({', '.join(tail)})" if tail else ""
    if fresh:
        print(f"st2-lint: {len(fresh)} finding(s){note}", file=out)
        return cli_common.EXIT_PROBLEMS
    print(f"st2-lint: clean{note}", file=out)
    return cli_common.EXIT_OK


def console_main() -> None:
    raise SystemExit(cli_common.run_cli(main))


if __name__ == "__main__":
    console_main()
