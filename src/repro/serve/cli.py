"""``st2-serve`` — run the experiment service daemon.

Examples::

    st2-serve --workers 4 --trace-store /tmp/traces
    st2-serve --port 8787 --no-cache --metrics-out metrics.json
    st2-serve --show-config --json     # resolved config, no daemon

The daemon serves until SIGTERM/SIGINT (or ``POST /v1/admin/drain``),
then drains gracefully: new submissions get 503, in-flight jobs
finish, workers join, and — when ``--metrics-out`` is given — the
final observability snapshot is written in ``metrics.json`` format.
"""

from __future__ import annotations

import asyncio
import os
import sys

from repro import cli_common, obs
from repro.serve.state import (DEFAULT_CLIENT_QUOTA,
                               DEFAULT_MAX_QUEUED_UNITS)

PROG = "st2-serve"


def build_parser():
    parser = cli_common.build_parser(
        PROG, "Serve ST2 experiment jobs over HTTP/JSON: a sharded "
              "worker pool with request coalescing, per-client "
              "quotas and graceful drain.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default %(default)s)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: pick a free port "
                             "and print it)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes / trace shards "
                             "(default %(default)s)")
    parser.add_argument("--trace-store", metavar="DIR", default=None,
                        help="shared trace store directory (default: "
                             "a temporary store that is removed at "
                             "exit)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--client-quota", type=int,
                        default=DEFAULT_CLIENT_QUOTA, metavar="N",
                        help="max unresolved units per client "
                             "(default %(default)s)")
    parser.add_argument("--max-queued-units", type=int,
                        default=DEFAULT_MAX_QUEUED_UNITS, metavar="N",
                        help="max unresolved units server-wide "
                             "(default %(default)s)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the final observability snapshot "
                             "as metrics.json on shutdown")
    parser.add_argument("--show-config", action="store_true",
                        help="print the resolved configuration and "
                             "exit without starting the daemon")
    cli_common.add_json_flag(parser)
    return parser


def _resolved_config(args) -> dict:
    return {
        "host": args.host,
        "port": args.port,
        "workers": args.workers,
        "trace_store": args.trace_store,
        "cache_dir": args.cache_dir,
        "use_cache": not args.no_cache,
        "client_quota": args.client_quota,
        "max_queued_units": args.max_queued_units,
        "metrics_out": args.metrics_out,
    }


def _build_app(args):
    from repro.runner.cache import ResultCache
    from repro.serve.app import ServeApp
    from repro.sim.trace_store import TraceStore

    store = TraceStore(args.trace_store) \
        if args.trace_store is not None else None
    cache = ResultCache(args.cache_dir) \
        if args.cache_dir is not None else None
    return ServeApp(shards=args.workers, trace_store=store,
                    cache=cache, use_cache=not args.no_cache,
                    client_quota=args.client_quota,
                    max_queued_units=args.max_queued_units,
                    host=args.host, port=args.port)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        return cli_common.fail(PROG, "--workers must be >= 1")
    if args.show_config:
        config = _resolved_config(args)
        if args.json:
            cli_common.emit_json(config)
        else:
            for name, value in config.items():
                print(f"{name:>18}: {value}")
        return cli_common.EXIT_OK

    app = _build_app(args)

    def announce(started):
        if args.json:
            cli_common.emit_json({"address": started.server.address,
                                  "workers": args.workers,
                                  "pid": os.getpid()})
        else:
            print(f"{PROG}: serving on {started.server.address} "
                  f"with {args.workers} workers", file=sys.stderr)
        sys.stdout.flush()

    try:
        asyncio.run(_serve(app, announce))
    except OSError as exc:              # bind failure, bad interface
        return cli_common.fail(PROG, str(exc))
    if args.metrics_out is not None:
        obs.write_metrics(args.metrics_out, app.registry.snapshot(),
                          meta={"tool": PROG,
                                "workers": args.workers})
        if not args.json:
            print(f"{PROG}: metrics written to {args.metrics_out}",
                  file=sys.stderr)
    return cli_common.EXIT_OK


async def _serve(app, announce) -> None:
    from repro.serve.app import run_app

    await run_app(app, announce=announce)


def console_main() -> int:
    return cli_common.run_cli(main)


if __name__ == "__main__":
    sys.exit(console_main())
