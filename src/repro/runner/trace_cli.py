"""``st2-trace`` — inspect and manage the memory-mapped trace store.

Subcommands::

    st2-trace ls                          # list entries (key, identity, size)
    st2-trace capture --kernels smoke     # stage-1 only: warm the store
    st2-trace verify                      # integrity-check entries (exit 1 on damage)
    st2-trace gc --stale --max-bytes 2e9  # drop dead / oldest entries

The store lives at ``$REPRO_TRACE_DIR`` (default
``~/.cache/repro/traces``) or wherever ``--store`` points; it is the
same store ``st2-run --trace-store`` reads, so ``capture`` followed by
a sweep is the capture-once/evaluate-many workflow from EXPERIMENTS.md.

Exit codes follow the shared contract (:mod:`repro.cli_common`):
0 success, 1 damaged entries found (``verify``), an entry ``ls`` or
``capture`` cannot open or a capture that lost its worker process
twice, 2 usage/input errors.  ``ls`` and
``verify`` accept ``--json``.
"""

from __future__ import annotations

import sys

from repro import cli_common
from repro.api import valid_scale
from repro.runner.cache import code_version
from repro.sim.trace_store import TraceStore, TraceStoreCorrupt


def build_parser():
    parser = cli_common.build_parser(
        "st2-trace",
        "Manage the content-addressed, memory-mapped kernel trace "
        "store.")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="store root (default: $REPRO_TRACE_DIR "
                             "or ~/.cache/repro/traces)")
    sub = parser.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("ls", help="list store entries")
    cli_common.add_json_flag(ls)

    cap = sub.add_parser("capture",
                         help="functionally execute kernels and "
                              "publish their traces (skipping warm "
                              "entries)")
    cap.add_argument("--kernels", default="all",
                     help="comma-separated kernel names or a group")
    cap.add_argument("--scale", type=float, default=1.0)
    cap.add_argument("--seed", type=int, default=0)
    cap.add_argument("--per-kernel-seeds", action="store_true",
                     help="derive each kernel's seed from (seed, kernel)")
    cap.add_argument("--workers", type=int, default=None,
                     help="capture processes (default: min(4, cores))")

    ver = sub.add_parser("verify",
                         help="integrity-check entries; exit 1 if any "
                              "entry is damaged")
    ver.add_argument("keys", nargs="*",
                     help="keys to check (default: every entry)")
    cli_common.add_json_flag(ver)

    gc = sub.add_parser("gc", help="remove dead store entries")
    gc.add_argument("--stale", action="store_true",
                    help="drop entries captured under a different "
                         "code version (unreachable by any future run)")
    gc.add_argument("--max-bytes", type=float, default=None,
                    help="evict oldest entries until the store fits "
                         "this many bytes")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed, remove nothing")
    return parser


def _cmd_ls(store: TraceStore, args) -> int:
    entries = store.entries()
    version = code_version()
    if args.json:
        cli_common.emit_json([
            {"key": key, "kernel": header["kernel"],
             "scale": header.get("scale"), "seed": header.get("seed"),
             "rows": header["n_rows"], "bytes": store.nbytes(key),
             "current": header.get("code_version") == version}
            for key, header in entries])
        return cli_common.EXIT_OK
    if not entries:
        print(f"trace store {store.root}: empty")
        return cli_common.EXIT_OK
    total = 0
    print(f"{'key':<12} {'kernel':<14} {'scale':>6} {'seed':>6} "
          f"{'rows':>10} {'MB':>8}  version")
    for key, header in entries:
        nbytes = store.nbytes(key)
        total += nbytes
        state = "current" if header.get("code_version") == version \
            else "stale"
        print(f"{key[:12]:<12} {header['kernel']:<14} "
              f"{header.get('scale')!s:>6} {header.get('seed')!s:>6} "
              f"{header['n_rows']:>10,} {nbytes / 1e6:>8.1f}  {state}")
    print(f"{len(entries)} entries, {total / 1e6:.1f} MB in "
          f"{store.root}")
    return cli_common.EXIT_OK


def _cmd_capture(store: TraceStore, args) -> int:
    from repro.runner.pool import (WorkerLost, capture_items,
                                   capture_traces, default_workers)
    from repro.runner.units import build_units

    if args.workers is not None and args.workers < 1:
        return cli_common.fail("st2-trace", "--workers must be >= 1")
    if not valid_scale(args.scale):
        return cli_common.fail("st2-trace",
                               "--scale must be finite and > 0")
    try:
        units = build_units(args.kernels, scale=args.scale,
                            seed=args.seed, aux=False,
                            per_kernel_seeds=args.per_kernel_seeds)
    except KeyError as exc:
        return cli_common.fail("st2-trace", exc.args[0])
    items = list(capture_items(units, code_version()).values())

    workers = args.workers if args.workers is not None \
        else default_workers()
    captured = skipped = 0
    try:
        for key, created, snap in capture_traces(store, items, workers):
            header = store.header(key)
            if not created:
                store.check(key, header)
            if created:
                captured += 1
                wall_s = snap["timers"]["runner.trace.capture"]["total_s"]
                print(f"captured {header['kernel']:<14} "
                      f"{header['n_rows']:>10,} rows in {wall_s:.2f}s "
                      f"-> {key[:12]}")
            else:
                skipped += 1
                print(f"warm     {header['kernel']:<14} "
                      f"{header['n_rows']:>10,} rows  {key[:12]}")
    except WorkerLost as exc:
        return cli_common.fail("st2-trace", str(exc),
                               code=cli_common.EXIT_PROBLEMS)
    print(f"{captured} captured, {skipped} already warm, "
          f"store: {store.root}")
    return cli_common.EXIT_OK


def _cmd_verify(store: TraceStore, args) -> int:
    keys = list(args.keys) or store.keys()
    report = []
    bad = 0
    for key in keys:
        if not store.has(key):
            report.append({"key": key, "problems": ["missing"]})
            bad += 1
            continue
        problems = store.verify(key)
        if problems:
            bad += 1
        report.append({"key": key, "problems": problems})
    if args.json:
        cli_common.emit_json({"checked": len(keys), "damaged": bad,
                              "entries": report})
        return cli_common.EXIT_PROBLEMS if bad else cli_common.EXIT_OK
    for entry in report:
        key = entry["key"]
        if entry["problems"] == ["missing"]:
            print(f"{key}: missing")
        elif entry["problems"]:
            for problem in entry["problems"]:
                print(f"{key[:12]}: {problem}")
        else:
            print(f"{key[:12]}: ok "
                  f"({store.header(key)['kernel']})")
    if bad:
        print(f"{bad}/{len(keys)} entries damaged", file=sys.stderr)
        return cli_common.EXIT_PROBLEMS
    print(f"{len(keys)} entries sound")
    return cli_common.EXIT_OK


def _cmd_gc(store: TraceStore, args) -> int:
    if not args.stale and args.max_bytes is None:
        return cli_common.fail(
            "st2-trace gc",
            "nothing to do (pass --stale and/or --max-bytes)")
    removed = store.gc(
        current_version=code_version() if args.stale else None,
        max_bytes=int(args.max_bytes) if args.max_bytes is not None
        else None,
        dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for key in removed:
        print(f"{verb} {key}")
    remain = len(store) - (len(removed) if args.dry_run else 0)
    print(f"{verb} {len(removed)} entries, {remain} remain")
    return cli_common.EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"ls": _cmd_ls, "capture": _cmd_capture,
               "verify": _cmd_verify, "gc": _cmd_gc}[args.command]
    try:
        return command(TraceStore(args.store), args)
    except TraceStoreCorrupt as exc:
        return cli_common.fail("st2-trace", str(exc),
                               code=cli_common.EXIT_PROBLEMS)


def console_main() -> int:
    return cli_common.run_cli(main)


if __name__ == "__main__":
    sys.exit(console_main())
