"""``st2-client`` — talk to an ``st2-serve`` daemon.

Examples::

    st2-client spec --kernels smoke --configs ladder --json
    st2-client submit --server http://127.0.0.1:8787 --kernels smoke
    st2-client status a1b2c3d4e5f6
    st2-client watch a1b2c3d4e5f6
    st2-client result a1b2c3d4e5f6 --json
    st2-client run --kernels qrng_K2 --out manifest.jsonl
    st2-client jobs --limit 20
    st2-client health; st2-client stats --json; st2-client drain

``run`` is the offline-compatible round trip: submit, wait, fetch,
then record the results as the same JSONL manifest format ``st2-run``
writes — downstream tools (``st2-stats``, the analysis layer) cannot
tell served results from offline ones.

Exit codes follow the shared contract: 0 success, 1 the server
reported a job failure, 2 usage errors / unreachable server.
"""

from __future__ import annotations

import os
import sys

from repro import cli_common
from repro.api import JobSpec
from repro.serve.client import ServeClient, ServeError

PROG = "st2-client"

#: Environment override for ``--server``.
ENV_SERVER = "REPRO_SERVE_URL"

DEFAULT_SERVER = "http://127.0.0.1:8787"


def _add_server_args(parser) -> None:
    parser.add_argument("--server", default=None, metavar="URL",
                        help=f"server address (default: "
                             f"${ENV_SERVER} or {DEFAULT_SERVER})")
    parser.add_argument("--client", default="anon",
                        help="client identity for quota accounting "
                             "(default %(default)s)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="overall wait timeout in seconds "
                             "(default %(default)s)")


def _add_grid_args(parser) -> None:
    parser.add_argument("--kernels", default="smoke",
                        help="comma-separated kernel names or a group "
                             "(default %(default)s)")
    parser.add_argument("--configs", default="st2",
                        help="comma-separated speculation configs or "
                             "an alias (default %(default)s)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")
    parser.add_argument("--per-kernel-seeds", action="store_true",
                        help="derive each unit's seed from "
                             "(seed, kernel) instead of sharing it")
    parser.add_argument("--no-aux", action="store_true",
                        help="skip the VaLHALLA + correlation "
                             "auxiliary measurements")
    parser.add_argument("--priority", type=int, default=0,
                        help="queue priority, lower runs sooner "
                             "(default 0)")


def build_parser():
    parser = cli_common.build_parser(
        PROG, "Submit, watch and fetch ST2 experiment jobs from an "
              "st2-serve daemon.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("spec", help="build a JobSpec wire document "
                                    "locally and print it (no server)")
    _add_grid_args(p)
    p.add_argument("--client", default="anon",
                   help="client identity stamped into the spec")
    cli_common.add_json_flag(p)

    p = sub.add_parser("submit", help="submit a job, print its status")
    _add_server_args(p)
    _add_grid_args(p)
    cli_common.add_json_flag(p)

    p = sub.add_parser("status", help="poll one job's status")
    p.add_argument("job_id")
    _add_server_args(p)
    cli_common.add_json_flag(p)

    p = sub.add_parser("watch", help="stream one job's status changes "
                                     "until it finishes")
    p.add_argument("job_id")
    _add_server_args(p)
    cli_common.add_json_flag(p)

    p = sub.add_parser("result", help="fetch a finished job's results")
    p.add_argument("job_id")
    _add_server_args(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the results as a JSONL manifest")
    cli_common.add_json_flag(p)

    p = sub.add_parser("run", help="submit, wait and record a "
                                   "manifest (the st2-run round trip)")
    _add_server_args(p)
    _add_grid_args(p)
    p.add_argument("--out", default="st2_client_manifest.jsonl",
                   help="JSONL manifest path (default %(default)s)")
    cli_common.add_json_flag(p)

    p = sub.add_parser("jobs", help="list jobs on the server "
                                    "(paginated)")
    _add_server_args(p)
    p.add_argument("--filter-client", default=None, metavar="NAME",
                   help="only jobs submitted by this client identity")
    p.add_argument("--cursor", default=None,
                   help="resume the listing from a previous page's "
                        "next_cursor")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="page size; one page is printed (with its "
                        "next_cursor) instead of the whole listing")
    cli_common.add_json_flag(p)

    p = sub.add_parser("health", help="server health probe")
    _add_server_args(p)
    cli_common.add_json_flag(p)

    p = sub.add_parser("stats", help="server counters and queue state")
    _add_server_args(p)
    cli_common.add_json_flag(p)

    p = sub.add_parser("drain", help="ask the server to drain "
                                     "gracefully")
    _add_server_args(p)
    cli_common.add_json_flag(p)

    return parser


def _spec_from_args(args) -> JobSpec:
    """Resolve kernel groups / config aliases locally, exactly like
    ``st2-run``, and freeze the grid into a JobSpec."""
    from repro.kernels.suite import resolve_kernels
    from repro.runner.units import resolve_configs

    kernels = resolve_kernels(args.kernels)
    configs = resolve_configs(args.configs)
    return JobSpec.from_run_args(
        kernels=tuple(kernels),
        configs=tuple(cfg.name for cfg in configs),
        scale=args.scale, seed=args.seed, aux=not args.no_aux,
        per_kernel_seeds=args.per_kernel_seeds,
        priority=args.priority, client=args.client)


def _client(args) -> ServeClient:
    server = args.server or os.environ.get(ENV_SERVER) \
        or DEFAULT_SERVER
    return ServeClient(server, client=args.client,
                       timeout=args.timeout)


def _print_status(status, as_json: bool) -> None:
    if as_json:
        cli_common.emit_json(status.to_wire())
        return
    done = status.units_done + status.units_failed
    line = (f"{status.job_id}  {status.state:<8} "
            f"{done}/{status.units_total} units "
            f"(cached {status.units_cached}, coalesced "
            f"{status.units_coalesced}, failed {status.units_failed})")
    print(line)
    if status.error:
        print(f"  error: {status.error.splitlines()[0]}")


def _write_manifest(path, result) -> str:
    from repro.runner.manifest import write_manifest

    meta = dict(result.meta)
    meta["served"] = True
    return str(write_manifest(path, list(result.units), meta=meta))


def _print_result(result, args) -> None:
    if args.json:
        cli_common.emit_json(result.to_wire())
        return
    for unit in result.units:
        miss = unit.get("metrics", {}).get("misprediction_rate")
        miss_text = f"{miss:.4f}" if isinstance(miss, float) else "?"
        origin = "cache" if unit.get("cached") else "served"
        print(f"{unit.get('kernel'):<24} {unit.get('config'):<14} "
              f"miss={miss_text} ({origin})")
    print(f"{len(result.units)} units from job {result.job_id}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "spec":
        try:
            spec = _spec_from_args(args)
        except KeyError as exc:
            return cli_common.fail(PROG, exc.args[0])
        cli_common.emit_json(spec.to_wire())
        return cli_common.EXIT_OK

    try:
        if args.command in ("submit", "run"):
            try:
                spec = _spec_from_args(args)
            except KeyError as exc:
                return cli_common.fail(PROG, exc.args[0])

        with _client(args) as sc:
            if args.command == "health":
                doc = sc.health()
                if args.json:
                    cli_common.emit_json(doc)
                else:
                    print(f"ok shards={doc.get('shards')} "
                          f"draining={doc.get('draining')} "
                          f"schema={doc.get('schema_version')}")
                return cli_common.EXIT_OK
            if args.command == "stats":
                doc = sc.stats()
                if args.json:
                    cli_common.emit_json(doc)
                else:
                    state = doc.get("state", {})
                    for name in sorted(state):
                        print(f"{name:>18}: {state[name]}")
                return cli_common.EXIT_OK
            if args.command == "drain":
                doc = sc.drain()
                if args.json:
                    cli_common.emit_json(doc)
                else:
                    print(f"draining ({doc.get('jobs_live')} jobs "
                          f"still live)")
                return cli_common.EXIT_OK
            if args.command == "jobs":
                if args.limit is not None \
                        or args.cursor is not None:
                    statuses, cursor = sc.jobs_page(
                        client=args.filter_client,
                        cursor=args.cursor,
                        limit=args.limit or 100)
                else:
                    statuses = list(sc.iter_jobs(
                        client=args.filter_client))
                    cursor = None
                if args.json:
                    cli_common.emit_json({
                        "jobs": [s.to_wire() for s in statuses],
                        "next_cursor": cursor,
                    })
                else:
                    for status in statuses:
                        _print_status(status, False)
                    if cursor is not None:
                        print(f"next page: --cursor {cursor}")
                return cli_common.EXIT_OK
            if args.command == "submit":
                _print_status(sc.submit_retry(
                    spec, deadline_s=args.timeout), args.json)
                return cli_common.EXIT_OK
            if args.command == "status":
                _print_status(sc.status(args.job_id), args.json)
                return cli_common.EXIT_OK
            if args.command == "watch":
                final = None
                for status in sc.events(args.job_id):
                    final = status
                    _print_status(status, args.json)
                return cli_common.EXIT_OK if final is None \
                    or final.state == "done" else cli_common.EXIT_PROBLEMS
            if args.command == "result":
                result = sc.result(args.job_id)
                if args.out is not None:
                    path = _write_manifest(args.out, result)
                    print(f"{PROG}: manifest written to {path}",
                          file=sys.stderr)
                _print_result(result, args)
                return cli_common.EXIT_OK
            if args.command == "run":
                status = sc.submit_retry(spec,
                                         deadline_s=args.timeout)
                result = sc.run_to_completion(
                    status.job_id, timeout=args.timeout)
                path = _write_manifest(args.out, result)
                if args.json:
                    cli_common.emit_json({
                        "job_id": result.job_id,
                        "manifest": path,
                        "meta": result.meta,
                        "units": [dict(u) for u in result.units],
                    })
                else:
                    _print_result(result, args)
                    print(f"manifest: {path}")
                return cli_common.EXIT_OK
    except ServeError as exc:
        code = cli_common.EXIT_PROBLEMS \
            if exc.code == "internal" else cli_common.EXIT_USAGE
        return cli_common.fail(PROG, str(exc), code)
    except (ConnectionError, OSError, TimeoutError) as exc:
        return cli_common.fail(PROG, f"server unreachable: {exc}")
    return cli_common.fail(PROG, f"unknown command {args.command!r}")


def console_main() -> int:
    return cli_common.run_cli(main)


if __name__ == "__main__":
    sys.exit(console_main())
