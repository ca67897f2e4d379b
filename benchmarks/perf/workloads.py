"""The five benchmark workloads and the process harness that drives them.

Every workload is driven from one harness process.  A *pass* is one
request as its user sees it: one cold CLI process from spawn to exit
(``paper-cold``, ``ladder-warm``, ``capture-xl``, ``sweep-cold``), or
one closed-loop load of jobs against a freshly started ``st2-serve``
daemon (``serve-closed``).  Each pass gets fresh directories for the
result cache, the trace store, manifests and serve state under the
run's work directory; ``HOME`` and ``TMPDIR`` point there too, so
nothing reaches ``~/.cache``.  The work directory lives inside the
checkout, because a benchmark run may read and write nowhere else
(BENCHMARK.json's contract); it is removed when the run ends, and the
next run removes any left by a run that was killed outright.

Load shape, identical on every machine: 2 runner workers, 2 serve
shards, 2 client threads, and one BLAS thread per process.

The benchmark seed reaches the programs only as ``--seed``, the sweep
spec's ``seed`` or the JobSpec ``seed``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
PINS_PATH = HERE / "pins.json"
SWEEP_SPEC = HERE / "sweep.json"
WORK_ROOT = ROOT / ".bench_tmp"

WORKERS = 2             # runner workers and serve shards
CLIENTS = 2             # serve client threads
SETUP_SAMPLES = 5       # fresh processes timed per run for setup_s
PROCESS_TIMEOUT_S = 150.0
FLOAT_DIGITS = 12       # significant digits kept in result digests

#: Per-workload inputs.  ``full`` is what the benchmark measures;
#: ``smoke`` is the smallest size of each, for the smoke test.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "paper-cold": {"kernels": "all", "scale": 0.5},
        "ladder-warm": {"kernels": "all", "scale": 0.5},
        "capture-xl": {"kernels": "full", "scale": 1.0},
        "sweep-cold": {"scale": 1.0},
        "serve-closed": {"jobs_per_client": 2500},
    },
    "smoke": {
        "paper-cold": {"kernels": "smoke", "scale": 0.25},
        "ladder-warm": {"kernels": "smoke", "scale": 0.25},
        "capture-xl": {"kernels": "smoke", "scale": 0.25},
        "sweep-cold": {"scale": 0.25,
                       "kernels": ["binomial", "pathfinder", "qrng_K2"]},
        "serve-closed": {"jobs_per_client": 100},
    },
}

#: serve-closed job shape: a cheap two-kernel grid; every COLD_EVERY-th
#: job per client is a never-seen spec whose seed both clients share at
#: the same step, so one of the two coalesces onto the other.
SERVE_KERNELS = ("qrng_K2", "sortNets_K2")
SERVE_CONFIGS = ("st2", "valhalla")
SERVE_SCALE = 0.25
COLD_EVERY = 20


class BenchError(RuntimeError):
    """The benchmark cannot run here (program missing, process hung)."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (a single value is its own quartiles)."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# ----------------------------------------------------------------------
# result digests (the correctness pins)
# ----------------------------------------------------------------------

def _rounded(value):
    if isinstance(value, float):
        return value if not math.isfinite(value) \
            else float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _sha(doc) -> str:
    blob = json.dumps(_rounded(doc), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def units_digest(units) -> str:
    """sha256 over the units' ``comparable()`` payloads ordered by
    (kernel, config), floats rounded to 12 significant digits."""
    from repro.runner.units import comparable

    rows = sorted((comparable(u) for u in units),
                  key=lambda u: (u["kernel"], u["config"]))
    return _sha(rows)


def store_digest(store: Path) -> str:
    """sha256 over every trace-store entry's column sha256s."""
    entries = []
    for header_path in sorted(store.glob("*/header.json")):
        header = json.loads(header_path.read_text())
        entries.append([header["kernel"], header["scale"],
                        header["seed"], header["digests"]])
    return _sha(sorted(entries))


def sweep_digest(doc: dict) -> str:
    """sha256 over the sweep frontier and its executed/pruned counts."""
    return _sha({"frontier": doc["frontier"],
                 "executed_units": doc["executed_units"],
                 "skipped_units": doc["skipped_units"]})


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() \
        else {}


def check_digests(workload: str, size: str, seed: int, digests,
                  pins: dict) -> List[str]:
    """Problems with one run's pass digests: passes must agree with each
    other, and with the pin where one exists for (size, workload,
    seed).  Each problem names the workload."""
    problems = []
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        problems.append(f"{workload}: seed {seed}: passes disagree "
                        f"({', '.join(d[:12] for d in distinct)})")
    pin = pins.get(size, {}).get(workload, {}).get(str(seed))
    if pin is not None:
        for digest in distinct:
            if digest != pin:
                problems.append(
                    f"{workload}: seed {seed}: result digest "
                    f"{digest[:16]} != pinned {pin[:16]}")
    return problems


# ----------------------------------------------------------------------
# process control
# ----------------------------------------------------------------------

def _popen(argv, env, out) -> subprocess.Popen:
    """Start ``argv`` in its own session, so its pool workers can be
    killed with it."""
    return subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                            stderr=subprocess.STDOUT, start_new_session=True)


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap(proc: subprocess.Popen, timeout: float) -> tuple:
    """Wait for ``proc`` (killing its session after ``timeout`` seconds,
    or at once if this wait is interrupted); returns ``(exit code, max
    RSS in MB of it and every descendant it reaped)``."""
    killer = threading.Timer(timeout, _kill, (proc,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill(proc)
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class Proc:
    """One finished child process."""

    returncode: int
    wall_s: float
    maxrss_mb: float
    log: Path


def spawn(argv, env, log: Path, timeout: float = PROCESS_TIMEOUT_S) -> Proc:
    """Run ``argv`` to completion; wall time is spawn to exit."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = _popen(argv, env, out)
        code, rss = _reap(proc, timeout)
        wall = time.perf_counter() - t0
    return Proc(code, wall, rss, log)


def tail(path: Path, lines: int = 15) -> str:
    try:
        text = path.read_text(errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


def _remove_orphaned_work() -> None:
    """Remove the work directories of runs whose process is gone: a
    run killed by SIGKILL or the OOM killer never reaches its clean-up,
    and its trace stores can take hundreds of MB."""
    for path in WORK_ROOT.glob("*-*-*"):
        try:
            os.kill(int(path.name.rsplit("-", 2)[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except (ValueError, PermissionError):
            pass


@dataclass
class Context:
    """Everything one run needs: where to work, which inputs."""

    workload: str
    size: str
    seed: int
    work: Path
    params: Dict[str, Any]
    env: Dict[str, str] = field(default_factory=dict)
    _n: int = 0

    @classmethod
    def create(cls, workload: str, size: str, seed: int) -> "Context":
        if not (SRC / "repro").is_dir():
            raise BenchError(f"program sources not found at "
                             f"{SRC / 'repro'}")
        if workload not in WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}; choose "
                             f"from {', '.join(WORKLOADS)}")
        _remove_orphaned_work()
        work = WORK_ROOT / f"{workload}-{os.getpid()}-{time.time_ns()}"
        (work / "home" / "tmp").mkdir(parents=True)
        env = dict(os.environ)
        env.update(PYTHONPATH=str(SRC), HOME=str(work / "home"),
                   TMPDIR=str(work / "home" / "tmp"),
                   REPRO_CACHE_DIR=str(work / "home" / "cache"),
                   REPRO_TRACE_DIR=str(work / "home" / "traces"),
                   PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        return cls(workload, size, seed, work,
                   dict(SIZES[size][workload]), env)

    def fresh(self, label: str) -> Path:
        """A new, empty directory under the run's work dir."""
        self._n += 1
        path = self.work / f"{self._n:03d}-{label}"
        path.mkdir()
        return path

    def python(self, *args) -> List[str]:
        return [sys.executable, *map(str, args)]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()           # only when no other run uses it
        except OSError:
            pass


@dataclass
class PassResult:
    """One pass: its request latencies and what it produced."""

    latencies_s: List[float]
    window_s: float
    rows: int
    maxrss_mb: float
    digest: str
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Records:
    """What a pass left behind for the per-layer metrics: unit results,
    runner stage seconds, the ``metrics.json`` snapshot, the sweep
    result, and rows captured (where no snapshot counts them)."""

    units: List[dict] = field(default_factory=list)
    stages: Dict[str, float] = field(default_factory=dict)
    obs: Dict[str, Any] = field(default_factory=dict)
    sweep: Optional[dict] = None
    trace_rows: int = 0


def _json_file(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


# ----------------------------------------------------------------------
# the CLI workloads
# ----------------------------------------------------------------------

_RUNNER_SETUP = """
import sys
import {module}
from repro.kernels.suite import resolve_kernels
from repro.lint.facts import facts_for_kernel
from repro.runner.units import ModelBundle
ModelBundle().ensure()
for kernel in resolve_kernels(sys.argv[1].split(",")):
    facts_for_kernel(kernel)
"""


class Workload:
    """One workload.  A pass runs ``python -m <cli_module> <cli_args>``
    as a fresh process; the traced run calls the module's ``main`` with
    the same arguments and one worker, in-process."""

    name = ""
    cli_module = ""

    def setup_argv(self, ctx: Context) -> List[str]:
        """A fresh process that does everything the tool does before
        its first unit of work, then exits."""
        raise NotImplementedError

    def cli_args(self, ctx: Context, out_dir: Path,
                 workers: int) -> List[str]:
        raise NotImplementedError

    def read_outputs(self, out_dir: Path) -> tuple:
        """``(rows, digest)`` of what a pass wrote to ``out_dir``."""
        raise NotImplementedError

    def setup_times(self, ctx: Context, samples: int) -> List[float]:
        times = []
        for i in range(samples):
            proc = spawn(self.setup_argv(ctx), ctx.env,
                         ctx.work / f"setup-{i}.log")
            if proc.returncode != 0:
                raise BenchError(f"{self.name}: set-up process failed "
                                 f"(exit {proc.returncode}):\n"
                                 f"{tail(proc.log)}")
            times.append(proc.wall_s)
        return times

    def prepare(self, ctx: Context) -> None:
        """Untimed state every pass starts from (none by default)."""

    def run_pass(self, ctx: Context) -> PassResult:
        out_dir = ctx.fresh("pass")
        proc = spawn(ctx.python("-m", self.cli_module,
                                *self.cli_args(ctx, out_dir, WORKERS)),
                     ctx.env, out_dir / "stdout.log")
        errors = []
        rows, digest = 0, "missing"
        if proc.returncode != 0:
            errors.append(f"{self.name}: exit {proc.returncode}:\n"
                          f"{tail(proc.log)}")
        else:
            try:
                rows, digest = self.read_outputs(out_dir)
            except (OSError, ValueError, KeyError) as exc:
                errors.append(f"{self.name}: unreadable output: {exc}")
        return PassResult([proc.wall_s], proc.wall_s, rows, proc.maxrss_mb,
                          digest, 1, 1 if errors else 0, errors,
                          {"out": out_dir})

    def inprocess(self, ctx: Context, out_dir: Path) -> None:
        """One pass inside this process with one worker (no pool),
        writing the same outputs a CLI pass writes."""
        main = importlib.import_module(self.cli_module).main
        code = main(self.cli_args(ctx, out_dir, 1))
        if code != 0:
            raise BenchError(f"{self.name}: in-process run exit {code}")

    def records(self, done: PassResult) -> Records:
        return Records()


def manifest_rows_digest(path: Path) -> tuple:
    """``(trace rows, digest)`` of a runner manifest's units."""
    from repro.runner.manifest import read_manifest

    _, units = read_manifest(path)
    return sum(int(u["trace_rows"]) for u in units), units_digest(units)


STAGES = ("init", "capture", "eval")


class _RunnerWorkload(Workload):
    cli_module = "repro.runner.cli"
    configs = ""
    aux = True

    def setup_argv(self, ctx):
        return ctx.python("-c", _RUNNER_SETUP.format(
            module=self.cli_module), ctx.params["kernels"])

    def store(self, ctx: Context, out_dir: Path) -> Path:
        return out_dir / "traces"

    def cli_args(self, ctx, out_dir, workers):
        args = ["--kernels", ctx.params["kernels"],
                "--configs", self.configs,
                "--scale", str(ctx.params["scale"]),
                "--seed", str(ctx.seed), "--workers", str(workers),
                "--no-cache", "--quiet",
                "--trace-store", str(self.store(ctx, out_dir)),
                "--out", str(out_dir / "manifest.jsonl")]
        return args if self.aux else args + ["--no-aux"]

    def read_outputs(self, out_dir):
        return manifest_rows_digest(out_dir / "manifest.jsonl")

    def records(self, done):
        from repro.runner.manifest import read_manifest

        out = done.extra["out"]
        header, units = read_manifest(out / "manifest.jsonl")
        return Records(units, {k: header.get(f"stage_{k}_s", 0.0)
                               for k in STAGES},
                       _json_file(out / "manifest.metrics.json"))


class PaperCold(_RunnerWorkload):
    name = "paper-cold"
    configs = "st2,valhalla,prev,casa"


class LadderWarm(_RunnerWorkload):
    name = "ladder-warm"
    configs = "ladder,fig3"
    aux = False

    def store(self, ctx, out_dir):
        return ctx.work / "warm-traces"

    def prepare(self, ctx):
        proc = spawn(ctx.python(
            "-m", "repro.runner.trace_cli",
            "--store", self.store(ctx, ctx.work), "capture",
            "--kernels", ctx.params["kernels"],
            "--scale", ctx.params["scale"], "--seed", ctx.seed,
            "--workers", WORKERS), ctx.env, ctx.work / "prepare.log")
        if proc.returncode != 0:
            raise BenchError(f"{self.name}: warm-store capture failed:\n"
                             f"{tail(proc.log)}")


class CaptureXL(Workload):
    name = "capture-xl"
    cli_module = "repro.runner.trace_cli"

    def setup_argv(self, ctx):
        return ctx.python("-c", "import repro.runner.trace_cli, "
                                "repro.kernels.suite")

    def cli_args(self, ctx, out_dir, workers):
        return ["--store", str(out_dir / "traces"), "capture",
                "--kernels", ctx.params["kernels"],
                "--scale", str(ctx.params["scale"]),
                "--seed", str(ctx.seed), "--workers", str(workers)]

    def read_outputs(self, out_dir):
        store = out_dir / "traces"
        rows = sum(json.loads(p.read_text())["n_rows"]
                   for p in store.glob("*/header.json"))
        return rows, store_digest(store)

    def records(self, done):
        return Records(trace_rows=done.rows)


class SweepCold(Workload):
    name = "sweep-cold"
    cli_module = "repro.sweep.cli"

    def spec_doc(self, ctx: Context) -> dict:
        doc = json.loads(SWEEP_SPEC.read_text())
        doc["seed"] = ctx.seed
        doc["scale"] = ctx.params["scale"]
        if "kernels" in ctx.params:
            doc["kernels"] = list(ctx.params["kernels"])
        return doc

    def setup_argv(self, ctx):
        return ctx.python("-c", _RUNNER_SETUP.format(
            module=self.cli_module), ",".join(self.spec_doc(ctx)["kernels"]))

    def write_spec(self, ctx: Context, out_dir: Path) -> Path:
        path = out_dir / "sweep-spec.json"
        path.write_text(json.dumps(self.spec_doc(ctx)))
        return path

    def cli_args(self, ctx, out_dir, workers):
        return ["run", str(self.write_spec(ctx, out_dir)), "--no-cache",
                "--quiet", "--trace-store", str(out_dir / "traces"),
                "--workers", str(workers),
                "--out", str(out_dir / "sweep.json")]

    def read_outputs(self, out_dir):
        rows, _ = manifest_rows_digest(out_dir
                                        / "sweep.json.manifest.jsonl")
        doc = json.loads((out_dir / "sweep.json").read_text())
        return rows, sweep_digest(doc)

    def records(self, done):
        from repro.runner.manifest import read_manifest

        out = done.extra["out"]
        _, units = read_manifest(out / "sweep.json.manifest.jsonl")
        obs = _json_file(out / "sweep.json.manifest.metrics.json")
        timers = obs.get("timers", {})
        return Records(units, {k: timers.get(f"runner.stage.{k}", {})
                               .get("total_s", 0.0) for k in STAGES},
                       obs, json.loads((out / "sweep.json").read_text()))

    def inprocess(self, ctx, out_dir):
        # one worker, but two kernels per wave as ``--workers 2`` plans
        # them, so waves and pruning match the measured CLI pass
        from repro.sweep.engine import SweepOptions, run_sweep
        from repro.sweep.specio import load_spec

        spec = load_spec(self.write_spec(ctx, out_dir))
        result = run_sweep(
            spec, str(out_dir / "sweep.json.manifest.jsonl"),
            SweepOptions(workers=1, prune_chunk=WORKERS, use_cache=False,
                         trace_store=str(out_dir / "traces")))
        (out_dir / "sweep.json").write_text(json.dumps(result.to_wire()))


# ----------------------------------------------------------------------
# serve-closed
# ----------------------------------------------------------------------

def cold_seed(seed: int, step: int) -> int:
    """The seed of the cold spec both clients submit at ``step``."""
    digest = hashlib.sha256(f"{seed}:cold:{step}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class Daemon:
    """One ``st2-serve`` subprocess with private state."""

    def __init__(self, ctx: Context, label: str):
        self.dir = ctx.fresh(label)
        self.metrics = self.dir / "serve.metrics.json"
        self.log = self.dir / "stdout.log"
        self.address = ""
        self.t0 = time.perf_counter()
        with open(self.log, "wb") as out:
            self.proc = _popen(
                ctx.python("-m", "repro.serve.cli",
                           "--workers", WORKERS,
                           "--trace-store", self.dir / "traces",
                           "--cache-dir", self.dir / "cache",
                           "--metrics-out", self.metrics),
                ctx.env, out)

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until ``/v1/health`` answers; returns seconds since
        spawn."""
        from repro.serve.client import ServeClient, ServeError

        while time.perf_counter() < self.t0 + timeout \
                and self.proc.poll() is None:
            if not self.address:
                found = re.search(r"serving on (\S+) with",
                                  self.log.read_text(errors="replace"))
                self.address = found.group(1) if found else ""
            if self.address:
                try:
                    with ServeClient(self.address, timeout=5.0) as sc:
                        if sc.health().get("ok"):
                            return time.perf_counter() - self.t0
                except (ServeError, OSError):
                    pass
            time.sleep(0.005)
        raise BenchError(f"st2-serve did not become healthy:\n"
                         f"{tail(self.log)}")

    def stop(self) -> float:
        """SIGTERM (graceful drain) and reap; returns the max RSS in MB
        of the daemon and its workers."""
        if self.proc.poll() is not None:
            return 0.0
        self.proc.send_signal(signal.SIGTERM)
        return _reap(self.proc, 60.0)[1]


@dataclass
class JobRecord:
    seed: int
    cold: bool
    submit_s: float
    wait_s: float
    state: str
    job_id: str


def _job_spec(seed: int):
    from repro.api import JobSpec

    return JobSpec(kernels=SERVE_KERNELS, configs=SERVE_CONFIGS,
                   scale=SERVE_SCALE, seed=seed, aux=False)


def _client_loop(address: str, ident: int, plan) -> tuple:
    """One closed-loop client: submit, wait for the final status, next.
    Returns ``(records, seconds busy)``."""
    from repro.serve.client import ServeClient

    records = []
    start = time.perf_counter()
    with ServeClient(address, client=f"bench-{ident}",
                     timeout=PROCESS_TIMEOUT_S) as sc:
        for seed, cold in plan:
            t0 = time.perf_counter()
            status = sc.submit_retry(_job_spec(seed),
                                     deadline_s=PROCESS_TIMEOUT_S)
            t1 = time.perf_counter()
            final = sc.wait(status.job_id, timeout=PROCESS_TIMEOUT_S)
            records.append(JobRecord(seed, cold, t1 - t0,
                                     time.perf_counter() - t1,
                                     final.state, status.job_id))
    return records, time.perf_counter() - start


class ServeClosed(Workload):
    name = "serve-closed"
    cli_module = "repro.serve.cli"

    def setup_times(self, ctx, samples):
        times = []
        for i in range(samples):
            daemon = Daemon(ctx, f"setup-{i}")
            try:
                times.append(daemon.wait_ready())
            finally:
                daemon.stop()
        return times

    def schedule(self, ctx: Context) -> list:
        """Every client's (seed, cold) job list for one pass."""
        return [(cold_seed(ctx.seed, step), True)
                if step % COLD_EVERY == 0 else (ctx.seed, False)
                for step in range(ctx.params["jobs_per_client"])]

    def run_pass(self, ctx):
        from concurrent.futures import ThreadPoolExecutor

        from repro.serve.client import ServeClient

        plan = self.schedule(ctx)
        daemon = Daemon(ctx, "pass")
        errors: List[str] = []
        records: List[JobRecord] = []
        busy = 0.0
        try:
            daemon.wait_ready()
            with ServeClient(daemon.address, client="warmup",
                             timeout=PROCESS_TIMEOUT_S) as sc:
                sc.wait(sc.submit(_job_spec(ctx.seed)).job_id,
                        timeout=PROCESS_TIMEOUT_S)
            t0 = time.perf_counter()
            with ThreadPoolExecutor(CLIENTS) as pool:
                futures = [pool.submit(_client_loop, daemon.address, i,
                                       plan) for i in range(CLIENTS)]
                for future in futures:
                    try:
                        done, seconds = future.result()
                    except Exception as exc:    # a client died: count it
                        errors.append(f"{self.name}: client failed: "
                                      f"{exc!r}")
                        continue
                    records.extend(done)
                    busy += seconds
            window = time.perf_counter() - t0
            with ServeClient(daemon.address, client="bench-check",
                             timeout=PROCESS_TIMEOUT_S) as sc:
                by_seed, rows_by_seed = self._served(sc, records)
                counters = sc.stats().get("counters", {})
        finally:
            rss = daemon.stop()
        errors += [f"{self.name}: job {r.job_id} ended {r.state}"
                   for r in records if r.state != "done"]
        attempted = CLIENTS * len(plan)
        failed = attempted - sum(r.state == "done" for r in records)
        distinct_units = len(SERVE_KERNELS) * len(SERVE_CONFIGS) \
            * len(by_seed)
        warm = [r for r in records if not r.cold]
        return PassResult(
            [r.submit_s + r.wait_s for r in warm], window,
            sum(rows_by_seed.get(r.seed, 0) for r in records), rss,
            _sha(sorted([str(s), d] for s, d in by_seed.items())),
            attempted, failed, errors,
            {"submit": [r.submit_s for r in warm],
             "wait": [r.wait_s for r in warm],
             "cold": [r.submit_s + r.wait_s for r in records if r.cold],
             "client_busy_s": busy,
             "coalesce_hits": counters.get("serve.coalesce.hit", 0),
             "cache_hits": counters.get("serve.units.cache_hits", 0),
             "redundant_executions":
                 counters.get("serve.units.executed", 0) - distinct_units,
             "metrics_path": daemon.metrics})

    def records(self, done):
        return Records(obs=_json_file(done.extra["metrics_path"]))

    @staticmethod
    def _served(sc, records) -> tuple:
        """Each distinct spec's served result digest and row count."""
        first = {}
        for r in records:
            if r.state == "done":
                first.setdefault(r.seed, r.job_id)
        by_seed, rows = {}, {}
        for seed, job_id in first.items():
            units = sc.result(job_id).units
            by_seed[seed] = units_digest(units)
            rows[seed] = sum(int(u["trace_rows"]) for u in units)
        return by_seed, rows


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperCold(), LadderWarm(), CaptureXL(),
                        SweepCold(), ServeClosed())}


def ensure_importable() -> None:
    """Make the checkout's ``repro`` importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
