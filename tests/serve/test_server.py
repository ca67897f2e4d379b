"""End-to-end service tests over real HTTP: served-vs-offline
equivalence, coalescing, quotas/backpressure, error envelopes and
drain-on-SIGTERM."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import SCHEMA_VERSION, JobSpec
from repro.serve.client import ServeClient, ServeError
from tests.serve.conftest import GRID_CONFIGS, GRID_KERNELS, GRID_SCALE

GRID_SPEC = JobSpec(kernels=GRID_KERNELS, configs=GRID_CONFIGS,
                    scale=GRID_SCALE, seed=0, aux=False)
N_UNITS = len(GRID_KERNELS) * len(GRID_CONFIGS)


def _counters(client):
    return client.stats().get("counters", {})


@pytest.fixture(scope="module")
def completed(server):
    """The grid job, submitted once and finished — several tests
    inspect it."""
    with ServeClient(server.address, client="equiv") as sc:
        status = sc.submit(GRID_SPEC)
        final = sc.wait(status.job_id, timeout=120)
        return final, sc.result(status.job_id)


class TestHealthAndRouting:
    def test_health_document(self, server):
        from repro.runner.cache import code_version
        with ServeClient(server.address) as sc:
            doc = sc.health()
        assert doc["ok"] is True
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["shards"] == 2
        assert doc["code_version"] == code_version()
        assert doc["trace_store"]

    def test_unknown_job_is_404(self, server):
        with ServeClient(server.address) as sc:
            with pytest.raises(ServeError) as exc:
                sc.status("feedfacecafe")
        assert exc.value.status == 404
        assert exc.value.code == "not_found"

    def test_unknown_route_is_404(self, server):
        with ServeClient(server.address) as sc:
            with pytest.raises(ServeError) as exc:
                sc._request("GET", "/v2/everything")
        assert exc.value.status == 404

    def test_batch_route_is_gone(self, server):
        """``POST /v1/jobs`` is the one submission route."""
        with ServeClient(server.address) as sc:
            with pytest.raises(ServeError) as exc:
                sc._request("POST", "/v1/jobs:batch", payload={
                    "schema_version": SCHEMA_VERSION,
                    "jobs": [GRID_SPEC.to_wire()]})
        assert exc.value.status == 404
        assert exc.value.code == "not_found"

    def test_invalid_json_body_is_400(self, server):
        app = server.app
        conn = http.client.HTTPConnection(app.server.host,
                                          app.server.port, timeout=30)
        try:
            conn.request("POST", "/v1/jobs", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            doc = json.loads(response.read().decode())
            assert response.status == 400
            assert doc["error"] == "bad_request"
        finally:
            conn.close()

    def test_non_object_body_is_400(self, server):
        with ServeClient(server.address) as sc:
            with pytest.raises(ServeError) as exc:
                sc._request("POST", "/v1/jobs", payload="a string")
        assert exc.value.status == 400
        assert exc.value.code == "bad_request"

    def test_unknown_kernel_is_400_bad_request(self, server):
        with ServeClient(server.address) as sc:
            with pytest.raises(ServeError) as exc:
                sc._request("POST", "/v1/jobs",
                            payload={"kernels": ["no_such_kernel"]})
        assert exc.value.status == 400
        assert exc.value.code == "bad_request"

    def test_unknown_spec_fields_are_tolerated(self, server):
        """Forward compatibility on the wire: a newer client's extra
        fields don't break submission."""
        doc = GRID_SPEC.to_wire()
        doc["future_hint"] = {"gpu": "st2"}
        with ServeClient(server.address) as sc:
            reply = sc._request("POST", "/v1/jobs", payload=doc)
        assert reply["state"] in ("queued", "running", "done")


class TestServedEqualsOffline:
    def test_job_completes(self, completed):
        status, result = completed
        assert status.state == "done"
        assert status.units_done == N_UNITS
        assert len(result.units) == N_UNITS

    def test_results_equal_st2_run(self, completed):
        """The tentpole invariant: a served JobResult is
        ``results_equal`` to what st2-run computes offline for the
        same grid."""
        from repro.runner import RunOptions, run_units
        from repro.runner.units import results_equal
        _, result = completed
        offline = run_units(GRID_SPEC.units(),
                            RunOptions(workers=2, use_cache=False))
        served = {(r.kernel, r.config): r
                  for r in result.run_results()}
        assert len(served) == len(offline)
        for expect in offline:
            got = served[(expect.kernel, expect.config)]
            assert results_equal(expect, got), \
                f"served diverged from offline on {expect.label}"

    def test_result_meta_describes_the_job(self, completed):
        _, result = completed
        assert result.meta["kernels"] == sorted(GRID_KERNELS)
        assert result.meta["scale"] == GRID_SCALE
        assert result.meta["client"] == "equiv"
        assert result.meta["code_version"]

    def test_resubmission_is_fully_cached(self, server, completed):
        with ServeClient(server.address, client="warm") as sc:
            status = sc.submit(GRID_SPEC)
            final = sc.wait(status.job_id, timeout=60)
        assert final.state == "done"
        assert final.units_cached == N_UNITS

    def test_worker_obs_merged_into_registry(self, server, completed):
        """Worker-side instrumentation (capture, eval) travels back in
        the result payloads and lands in the server registry."""
        with ServeClient(server.address) as sc:
            doc = sc.stats()
        assert doc["counters"].get("serve.units.executed", 0) \
            >= N_UNITS
        assert any(not name.startswith("serve.")
                   for name in doc["counters"])
        assert doc["timers"]["serve.unit.wall"]["count"] >= N_UNITS

    def test_events_stream_ends_terminal(self, server, completed):
        status, _ = completed
        with ServeClient(server.address) as sc:
            seen = list(sc.events(status.job_id))
        assert seen
        assert seen[-1].terminal

    def test_job_listing_filters_by_client(self, server, completed):
        status, _ = completed
        with ServeClient(server.address) as sc:
            mine = sc.jobs(client="equiv")
            everyone = sc.jobs()
        assert status.job_id in {s.job_id for s in mine}
        assert all(s.client == "equiv" for s in mine)
        assert len(everyone) >= len(mine)

    def test_unpaginated_result_unchanged(self, server, completed):
        """The result route has one shape: the whole JobResult, with
        no paging riders; a stray ``cursor``/``limit`` changes
        nothing."""
        status, _ = completed
        path = f"/v1/jobs/{status.job_id}/result"
        with ServeClient(server.address) as sc:
            doc = sc._request("GET", path)
            assert sc._request("GET", f"{path}?cursor=1&limit=1") == doc
        assert "next_cursor" not in doc
        assert "units_total" not in doc
        assert len(doc["units"]) == N_UNITS


@pytest.fixture(scope="module")
def listed(server):
    """One finished single-config job per grid config, submitted one
    by one as client ``lister``: the listing pagination pages them."""
    with ServeClient(server.address, client="lister") as sc:
        statuses = [sc.submit(JobSpec(kernels=GRID_KERNELS,
                                      configs=(config,),
                                      scale=GRID_SCALE, aux=False))
                    for config in GRID_CONFIGS]
        return [sc.wait(s.job_id, timeout=120) for s in statuses]


class TestJobListingPagination:
    def test_pages_cover_the_listing_exactly(self, server, listed):
        with ServeClient(server.address) as sc:
            everything = sc.jobs()
            paged = list(sc.iter_jobs(page_size=2))
        assert [s.job_id for s in paged] \
            == [s.job_id for s in everything]

    def test_limit_slices_and_hands_back_a_cursor(self, server,
                                                  listed):
        with ServeClient(server.address) as sc:
            page, cursor = sc.jobs_page(limit=1)
            assert len(page) == 1
            assert cursor is not None
            rest, _ = sc.jobs_page(cursor=cursor, limit=1000)
        assert page[0].job_id not in {s.job_id for s in rest}

    def test_unpaginated_listing_has_no_cursor_riders(self, server,
                                                      listed):
        """No limit means the whole listing and a null cursor."""
        with ServeClient(server.address) as sc:
            doc = sc._request("GET", "/v1/jobs")
        assert doc["next_cursor"] is None
        assert len(doc["jobs"]) >= len(GRID_CONFIGS)

    def test_client_filter_composes_with_pagination(self, server,
                                                    listed):
        with ServeClient(server.address) as sc:
            mine = list(sc.iter_jobs(client="lister", page_size=1))
        assert [s.job_id for s in mine] == [s.job_id for s in listed]

    def test_bad_cursor_is_400(self, server):
        with ServeClient(server.address) as sc:
            with pytest.raises(ServeError) as exc:
                sc._request("GET", "/v1/jobs?cursor=zap")
        assert exc.value.status == 400
        with ServeClient(server.address) as sc:
            with pytest.raises(ServeError) as exc:
                sc._request("GET", "/v1/jobs?limit=0")
        assert exc.value.status == 400


class TestSharedCommitPath:
    def test_cache_entries_equal_run_units(self, tmp_path):
        """st2-serve and ``run_units`` probe and commit a unit through
        the same bookkeeping: their result-cache entries for it carry
        the same fields and equal numbers, and the server counts the
        runner's ``runner.units.{executed,cached}``."""
        from repro import obs
        from repro.runner import RunOptions, run_units
        from repro.runner.cache import ResultCache
        from repro.runner.units import results_equal
        from repro.serve.app import ServeApp
        from repro.sim.trace_store import TraceStore
        from tests.serve.conftest import ServerHarness

        spec = JobSpec(kernels=("qrng_K2",), configs=("st2",),
                       scale=0.1, seed=0, aux=False)
        served_cache = ResultCache(tmp_path / "served")
        app = ServeApp(shards=1,
                       trace_store=TraceStore(tmp_path / "served-traces"),
                       cache=served_cache, registry=obs.Obs())
        server = ServerHarness(app).start()
        try:
            with ServeClient(server.address) as sc:
                for _ in range(2):      # cold, then from the cache
                    job = sc.submit(spec)
                    assert sc.wait(job.job_id, timeout=60).state == "done"
                counters = _counters(sc)
        finally:
            server.stop()
        assert counters["runner.units.executed"] == 1
        assert counters["runner.units.cached"] == 1

        run_cache = ResultCache(tmp_path / "run")
        (offline,) = run_units(spec.units(), RunOptions(
            workers=1, cache=run_cache,
            trace_store=TraceStore(tmp_path / "run-traces")))
        served = served_cache.load(offline.key)
        stored = run_cache.load(offline.key)
        assert served is not None and stored is not None
        assert list(served) == list(stored)
        assert results_equal(served, stored)
        for field in ("key", "cached", "trace_cache_hit"):
            assert served[field] == stored[field], field


class TestCoalescing:
    def test_duplicate_inflight_submissions_coalesce(self, server):
        """5 identical uncached jobs submitted back-to-back: the 4
        distinct units execute exactly once, every duplicate attaches
        to the in-flight execution (the >= 90% dedupe gate)."""
        spec = JobSpec(kernels=GRID_KERNELS, configs=GRID_CONFIGS,
                       scale=GRID_SCALE, seed=77, aux=False)
        n_jobs = 5
        with ServeClient(server.address, client="burst") as sc:
            executed_before = _counters(sc).get(
                "serve.units.executed", 0)
            job_ids = [sc.submit(spec).job_id for _ in range(n_jobs)]
            finals = [sc.wait(job_id, timeout=120)
                      for job_id in job_ids]
            executed_after = _counters(sc).get(
                "serve.units.executed", 0)
        assert all(f.state == "done" for f in finals)
        # capture-and-execute-exactly-once, cluster-wide
        assert executed_after - executed_before == N_UNITS
        duplicates = (n_jobs - 1) * N_UNITS
        coalesced = sum(f.units_coalesced for f in finals)
        cached = sum(f.units_cached for f in finals)
        assert coalesced + cached == duplicates
        assert coalesced >= 0.9 * (duplicates - cached)


class TestDispatchOrder:
    def test_urgent_job_takes_the_next_freed_slots(self, tmp_path):
        """One shard keeps 8 units out: a 10-unit priority-0 job fills
        the window, so a later 2-unit priority -1 job gets the next two
        freed slots and the first job's last two units wait for it."""
        from repro import obs
        from repro.runner.cache import ResultCache, unit_key
        from repro.serve.app import ServeApp
        from repro.sim.trace_store import TraceStore

        app = ServeApp(shards=1, trace_store=TraceStore(tmp_path / "t"),
                       cache=ResultCache(tmp_path / "c"),
                       use_cache=False, registry=obs.Obs())
        submitted = []                  # result-cache keys, in order
        app.pool.submit = lambda task_id, *a, **k: submitted.append(task_id)

        def admit(spec, n_units):
            units = spec.units()[:n_units]
            keys = [unit_key(u, app.code_version) for u in units]
            job = app.state.admit(spec, units, keys)
            app._pump()
            return job

        a = admit(JobSpec(kernels=("all",), seed=1), 10)
        b = admit(JobSpec(kernels=("all",), seed=2, priority=-1), 2)
        resolved = 0
        while resolved < len(submitted):
            app._finish_exec(submitted[resolved], False, "x")
            resolved += 1
        owner = dict.fromkeys(a.keys, "A") | dict.fromkeys(b.keys, "B")
        assert [owner[key] for key in submitted] \
            == ["A"] * 8 + ["B"] * 2 + ["A"] * 2
        assert a.state == b.state == "failed"


class TestRejections:
    """Quota / backpressure / pending paths on a server whose pool
    never finishes anything (deterministic occupancy)."""

    @pytest.fixture(scope="class")
    def stuck_job(self, reject_server):
        with ServeClient(reject_server.address, client="greedy") as sc:
            return sc.submit(GRID_SPEC)        # 4 units, never resolve

    def test_client_quota_is_429(self, reject_server, stuck_job):
        with ServeClient(reject_server.address, client="greedy") as sc:
            with pytest.raises(ServeError) as exc:
                sc.submit(GRID_SPEC)
        assert exc.value.status == 429
        assert exc.value.code == "quota_exhausted"
        assert exc.value.retry_after_s >= 1.0

    def test_backpressure_is_429(self, reject_server, stuck_job):
        with ServeClient(reject_server.address, client="other") as sc:
            with pytest.raises(ServeError) as exc:
                sc.submit(GRID_SPEC)           # 4 + 4 > 6 server-wide
        assert exc.value.status == 429
        assert exc.value.code == "backpressure"
        assert exc.value.retry_after_s >= 1.0

    def test_retry_after_rides_the_http_header(self, reject_server,
                                               stuck_job):
        app = reject_server.app
        conn = http.client.HTTPConnection(app.server.host,
                                          app.server.port, timeout=30)
        try:
            body = json.dumps(dict(GRID_SPEC.to_wire(),
                                   client="greedy")).encode()
            conn.request("POST", "/v1/jobs", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status == 429
            assert int(response.getheader("Retry-After")) >= 1
        finally:
            conn.close()

    def test_submit_retry_gives_up_at_deadline(self, reject_server,
                                               stuck_job):
        with ServeClient(reject_server.address, client="greedy") as sc:
            with pytest.raises(ServeError) as exc:
                sc.submit_retry(GRID_SPEC, deadline_s=0.0)
        assert exc.value.code == "quota_exhausted"

    def test_job_larger_than_the_quota_is_400(self, reject_server,
                                              stuck_job):
        """6 units can never fit the quota of 4: a 400 with no
        Retry-After, which ``submit_retry`` does not sleep out."""
        import time

        huge = JobSpec(kernels=GRID_KERNELS,
                       configs=("st2", "valhalla", "prev"),
                       scale=GRID_SCALE, aux=False)
        with ServeClient(reject_server.address, client="huge") as sc:
            t0 = time.monotonic()
            with pytest.raises(ServeError) as exc:
                sc.submit_retry(huge, deadline_s=600)
            assert time.monotonic() - t0 < 30
            assert sc.jobs(client="huge") == []
        assert exc.value.status == 400
        assert exc.value.code == "bad_request"
        assert exc.value.retry_after_s is None
        assert "quota of 4" in str(exc.value)

    def test_unfinished_result_is_409_pending(self, reject_server,
                                              stuck_job):
        with ServeClient(reject_server.address) as sc:
            with pytest.raises(ServeError) as exc:
                sc.result(stuck_job.job_id)
        assert exc.value.status == 409
        assert exc.value.code == "pending"
        assert exc.value.retry_after_s >= 1.0


class TestClientCli:
    def test_run_round_trip_writes_a_manifest(self, server, tmp_path,
                                              completed, capsys):
        """``st2-client run`` against the warm server: exits 0 and
        records the st2-run manifest format."""
        from repro.serve.client_cli import main
        out = tmp_path / "manifest.jsonl"
        code = main([
            "run", "--server", server.address, "--client", "cli",
            "--kernels", ",".join(GRID_KERNELS),
            "--configs", ",".join(GRID_CONFIGS),
            "--scale", str(GRID_SCALE), "--no-aux",
            "--out", str(out), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["units"]) == N_UNITS
        lines = [json.loads(line)
                 for line in out.read_text().splitlines()]
        assert lines[0]["type"] == "run"
        assert lines[0]["served"] is True
        assert lines[0]["n_units"] == N_UNITS
        assert {line["kernel"] for line in lines[1:]} \
            == set(GRID_KERNELS)

    def test_health_and_stats_against_live_server(self, server,
                                                  capsys):
        from repro.serve.client_cli import main
        for argv in (["health"], ["stats"]):
            code = main(argv + ["--server", server.address, "--json"])
            assert code == 0
            json.loads(capsys.readouterr().out)

    def test_unreachable_server_is_a_usage_error(self, capsys):
        from repro.serve.client_cli import main
        code = main(["health", "--server",
                     "http://127.0.0.1:1",       # nothing listens
                     "--timeout", "2"])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err


class TestDrainOnSigterm:
    def test_sigterm_finishes_inflight_then_exits_zero(self, tmp_path):
        """Boot the real daemon, submit an uncached job, SIGTERM it
        mid-flight: the job still completes (metrics prove it) and
        the process exits 0."""
        metrics = tmp_path / "metrics.json"
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep \
            + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.serve.cli import console_main; "
             "raise SystemExit(console_main())",
             "--json", "--workers", "1",
             "--cache-dir", str(tmp_path / "cache"),
             "--trace-store", str(tmp_path / "traces"),
             "--metrics-out", str(metrics)],
            env=env, stdout=subprocess.PIPE, text=True)
        try:
            lines = []
            while True:                     # pretty-printed announce
                line = proc.stdout.readline()
                assert line, "daemon exited before announcing"
                lines.append(line)
                if line.rstrip() == "}":
                    break
            address = json.loads("".join(lines))["address"]

            spec = JobSpec(kernels=GRID_KERNELS,
                           configs=GRID_CONFIGS, scale=GRID_SCALE,
                           seed=911, aux=False)
            with ServeClient(address, client="drainer") as sc:
                job = sc.submit(spec)
                proc.send_signal(signal.SIGTERM)
                # during the drain the server still answers, but
                # refuses new work (unless the drain already won)
                try:
                    sc.submit(spec)
                    rejected = None         # probe beat the drain task
                except ServeError as exc:
                    rejected = exc
                except (ConnectionError, OSError):
                    rejected = "gone"       # drain already finished
                if isinstance(rejected, ServeError):
                    assert rejected.status == 503
                    assert rejected.code == "draining"
            assert proc.wait(timeout=180) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        doc = json.loads(metrics.read_text())
        counters = doc["counters"]
        assert counters["serve.drain.started"] == 1
        # the probe job is accepted only when it beats the drain task
        expected_jobs = 2 if rejected is None else 1
        assert counters["serve.jobs.completed"] == expected_jobs
        # either way each distinct unit executed exactly once: the
        # probe's duplicates coalesce or hit the cache
        assert counters["serve.units.executed"] == N_UNITS
        assert job.state in ("queued", "running", "done")
