"""``st2-fuzz`` — differential fuzzing of the ST2 stack.

Subcommands:

* ``run`` — generate ``--budget`` kernels from ``--seed`` and drive
  the five-way oracle over each; failures are delta-debugged to
  minimal reproducers and optionally saved as corpus fixtures.
* ``replay`` — re-check committed corpus fixtures (all oracles; a
  healthy corpus is green).
* ``gen`` — print generated kernels without checking them (corpus
  inspection, generator debugging).

Follows the shared CLI contract (:mod:`repro.cli_common`): exit ``0``
clean, ``1`` when any oracle failed or a fixture regressed, ``2`` on
usage errors; ``--json`` emits one machine-readable document.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import tempfile
import time
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence)

from repro.cli_common import (EXIT_OK, EXIT_PROBLEMS, add_json_flag,
                              build_parser, emit_json, fail, run_cli)
from repro.fuzz import corpus as corpus_mod
from repro.fuzz import shrink as shrink_mod
from repro.fuzz.gen import (FuzzProfile, GeneratedKernel, derive_stream,
                            generate_kernel)
from repro.fuzz.harness import bundle_for, materialize
from repro.fuzz.kast import Program
from repro.fuzz.oracles import (DEFAULT_CONFIGS, ORACLES, KernelVerdict,
                                OracleFailure, check_kernel)

PROG = "st2-fuzz"


# ----------------------------------------------------------------------
# checking one kernel (crash-safe)
# ----------------------------------------------------------------------

def _verdict_for(bundle: Any, configs: Sequence[Any], models: Any,
                 oracles: Sequence[str],
                 adder_seed: int) -> KernelVerdict:
    """A kernel that crashes the harness is itself a finding, not an
    abort of the campaign."""
    try:
        return check_kernel(bundle, configs, models=models,
                            oracles=oracles, adder_seed=adder_seed)
    except Exception as exc:
        verdict = KernelVerdict(name=bundle.name)
        verdict.failures.append(OracleFailure(
            "crash", f"{type(exc).__name__}: {exc}",
            {"type": type(exc).__name__}))
        return verdict


def _failure_keys(verdict: KernelVerdict) -> set:
    return {(f.oracle, f.details.get("type", ""))
            if f.oracle == "crash" else (f.oracle, "")
            for f in verdict.failures}


def _make_predicate(kernel: GeneratedKernel, failed_keys: set,
                    configs: Sequence[Any], models: Any, workdir: str,
                    counter: "Iterator[int]",
                    adder_seed: int) -> Callable[[Program], bool]:
    """*Does a candidate still fail the same oracle?* — the shrinker's
    predicate.  Each candidate gets a fresh filename so ``linecache``
    and PC labels never alias across attempts."""
    # run only the oracle passes that can produce the observed failure
    # kinds ("static" failures come from the fact check AND from the
    # sanitizer-contract pass, which cross-checks flow-proven claims)
    producers = {"adder": ("adder",),
                 "static": ("static", "sanitizer"),
                 "sanitizer": ("sanitizer",),
                 "bounds": ("bounds",)}
    oracles = tuple(sorted({pass_ for key in failed_keys
                            for pass_ in producers.get(key[0], ORACLES)
                            })) or ORACLES

    def still_fails(program: Program) -> bool:
        filename = f"cand{next(counter)}.py"
        bundle = materialize(program.render(), kernel.name, workdir,
                             filename=filename)
        bundle.blocks = kernel.blocks
        bundle.threads = kernel.threads
        bundle.data_seed = kernel.data_seed
        verdict = _verdict_for(bundle, configs, models, oracles,
                               adder_seed)
        return bool(_failure_keys(verdict) & failed_keys)

    return still_fails


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner.units import ModelBundle, resolve_configs

    try:
        configs = resolve_configs(args.configs)
    except KeyError as exc:
        return fail(PROG, f"unknown config: {exc}")
    oracles = tuple(s for s in args.oracles.split(",") if s)
    unknown = [o for o in oracles if o not in ORACLES]
    if unknown:
        return fail(PROG, f"unknown oracle(s): {', '.join(unknown)} "
                          f"(choose from {', '.join(ORACLES)})")
    models = ModelBundle()
    profile = FuzzProfile()
    counter = itertools.count()
    t0 = time.monotonic()  # st2-lint: disable=L5 — wall-clock CI budget, never cached
    checked = 0
    checks: Dict[str, int] = {}
    skips: Dict[str, int] = {}
    failures: List[Dict[str, Any]] = []
    timed_out = False
    with tempfile.TemporaryDirectory(prefix="st2fuzz-") as workdir:
        for index in range(args.budget):
            now = time.monotonic()  # st2-lint: disable=L5 — wall-clock CI budget
            if args.max_seconds and now - t0 > args.max_seconds:
                timed_out = True
                break
            kernel = generate_kernel(args.seed, index, profile)
            bundle = bundle_for(kernel, workdir,
                                filename=f"k{index}.py")
            adder_seed = derive_stream(args.seed, index, "rows")
            verdict = _verdict_for(bundle, configs, models, oracles,
                                   adder_seed)
            checked += 1
            for name, count in verdict.checks.items():
                checks[name] = checks.get(name, 0) + count
            for reason in verdict.skips.values():
                skips[reason] = skips.get(reason, 0) + 1
            if verdict.ok:
                continue
            failures.append(_handle_failure(
                args, kernel, verdict, configs, models, workdir,
                counter, adder_seed))
            if not args.json:
                entry = failures[-1]
                print(f"FAIL {kernel.name}: "
                      f"{verdict.failures[0].message}", file=sys.stderr)
                if entry.get("fixture_path"):
                    print(f"  fixture: {entry['fixture_path']}",
                          file=sys.stderr)
    elapsed = time.monotonic() - t0  # st2-lint: disable=L5 — wall-clock CI budget, never cached
    report = {
        "seed": args.seed,
        "budget": args.budget,
        "checked": checked,
        "timed_out": timed_out,
        "elapsed_s": round(elapsed, 3),
        "configs": [c.name for c in configs],
        "oracles": list(oracles),
        "checks": checks,
        "skips": skips,
        "failed": len(failures),
        "failures": failures,
    }
    if args.json:
        emit_json(report)
    else:
        status = "FAIL" if failures else "ok"
        note = " (time budget hit)" if timed_out else ""
        print(f"{PROG}: {status} — {checked}/{args.budget} kernels"
              f"{note}, {len(failures)} failing, "
              f"{elapsed:.1f}s, seed {args.seed}")
        for name, count in sorted(checks.items()):
            print(f"  {name}: {count}")
        for reason, count in sorted(skips.items()):
            print(f"  skip[{reason}]: {count}")
    return EXIT_PROBLEMS if failures else EXIT_OK


def _handle_failure(args: argparse.Namespace, kernel: GeneratedKernel,
                    verdict: KernelVerdict, configs: Sequence[Any],
                    models: Any, workdir: str,
                    counter: "Iterator[int]",
                    adder_seed: int) -> Dict[str, Any]:
    """Minimize one failing kernel and (optionally) save a fixture."""
    entry: Dict[str, Any] = {
        "kernel": kernel.name,
        "index": kernel.index,
        "failures": [f.to_dict() for f in verdict.failures],
        "source": kernel.source,
    }
    program = kernel.program
    if not args.no_minimize:
        predicate = _make_predicate(kernel, _failure_keys(verdict),
                                    configs, models, workdir, counter,
                                    adder_seed)
        outcome = shrink_mod.minimize(program, predicate,
                                      max_evals=args.shrink_evals)
        program = outcome.program
        entry["minimized_source"] = program.render()
        entry["shrink"] = {"from": outcome.reduced_from,
                           "to": outcome.size,
                           "evaluations": outcome.evaluations}
    if args.save_failures:
        fixture = corpus_mod.Fixture(
            name=kernel.name, oracle=verdict.failures[0].oracle,
            seed=adder_seed,
            description=verdict.failures[0].message.splitlines()[0],
            source=program.render(), blocks=kernel.blocks,
            threads=kernel.threads, data_seed=kernel.data_seed,
            configs=args.configs)
        entry["fixture_path"] = corpus_mod.save_fixture(
            fixture, args.save_failures)
    return entry


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

def _cmd_replay(args: argparse.Namespace) -> int:
    paths = list(args.paths) or corpus_mod.corpus_paths(
        corpus_mod.CORPUS_DIR)
    results: List[Dict[str, Any]] = []
    bad = 0
    with tempfile.TemporaryDirectory(prefix="st2fuzz-") as workdir:
        for i, path in enumerate(paths):
            try:
                fixture = corpus_mod.load_fixture(path)
            except (OSError, KeyError, ValueError) as exc:
                return fail(PROG, f"unreadable fixture {path}: {exc}")
            verdict = corpus_mod.replay_fixture(
                fixture, workdir, filename=f"fx{i}.py")
            results.append({"path": path, "name": fixture.name,
                            "oracle": fixture.oracle,
                            **verdict.to_dict()})
            if not verdict.ok:
                bad += 1
                if not args.json:
                    for failure in verdict.failures:
                        print(f"FAIL {path}: {failure.message}",
                              file=sys.stderr)
    if args.json:
        emit_json({"fixtures": len(paths), "failed": bad,
                   "results": results})
    else:
        print(f"{PROG}: replayed {len(paths)} fixture(s), "
              f"{bad} failing")
    return EXIT_PROBLEMS if bad else EXIT_OK


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------

def _cmd_gen(args: argparse.Namespace) -> int:
    kernels = [generate_kernel(args.seed, args.index + i)
               for i in range(args.count)]
    if args.json:
        emit_json({"seed": args.seed, "kernels": [
            {"name": k.name, "index": k.index, "source": k.source,
             "launch": {"blocks": k.blocks, "threads": k.threads},
             "data_seed": k.data_seed} for k in kernels]})
    else:
        for k in kernels:
            print(f"# {k.name} — blocks={k.blocks} "
                  f"threads={k.threads} data_seed={k.data_seed}")
            print(k.source)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser / entry points
# ----------------------------------------------------------------------

def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = build_parser(
        PROG, "Differential fuzzing of the ST2 reproduction: "
              "generated DSL kernels cross-checked by the "
              "static-facts, adder, sanitizer-contract and "
              "static-bounds oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="fuzz a seeded kernel batch")
    p_run.add_argument("--seed", type=int, default=0,
                       help="campaign seed (per-kernel streams are "
                            "derived, so --budget growth only appends)")
    p_run.add_argument("--budget", type=int, default=50,
                       help="number of kernels to generate and check")
    p_run.add_argument("--configs", default=DEFAULT_CONFIGS,
                       help="speculation configs for the adder and "
                            "bounds oracles (aliases or exact names)")
    p_run.add_argument("--oracles", default=",".join(ORACLES),
                       help="comma-separated subset of: "
                            + ", ".join(ORACLES))
    p_run.add_argument("--max-seconds", type=float, default=0.0,
                       help="stop generating new kernels after this "
                            "wall-clock budget (0 = unlimited)")
    p_run.add_argument("--save-failures", metavar="DIR", default="",
                       help="write minimized fixtures under DIR")
    p_run.add_argument("--no-minimize", action="store_true",
                       help="skip delta debugging of failures")
    p_run.add_argument("--shrink-evals", type=int,
                       default=shrink_mod.MAX_EVALS,
                       help="evaluation cap per minimization")
    add_json_flag(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser(
        "replay", help="re-check corpus fixtures (all oracles)")
    p_replay.add_argument("paths", nargs="*", metavar="FIXTURE",
                          help="fixture files (default: "
                               f"{corpus_mod.CORPUS_DIR}/*.json)")
    add_json_flag(p_replay)
    p_replay.set_defaults(func=_cmd_replay)

    p_gen = sub.add_parser("gen", help="print generated kernels")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--index", type=int, default=0,
                       help="first kernel index")
    add_json_flag(p_gen)
    p_gen.set_defaults(func=_cmd_gen)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    result: int = args.func(args)
    return result


def console_main() -> None:
    sys.exit(run_cli(main))


if __name__ == "__main__":
    sys.exit(run_cli(main))
