"""ServeState in isolation: admission control, priority queue,
coalescing fan-out and completion accounting — no server, no pool."""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import JobSpec
from repro.serve.state import RejectError, ServeState


class FakeUnit:
    """Stands in for a UnitSpec: state only touches ``.label``."""

    def __init__(self, label):
        self.label = label


def spec(client="anon", priority=0):
    return JobSpec(kernels=("qrng_K2",), client=client,
                   priority=priority)


def units_and_keys(n, prefix="u"):
    names = [f"{prefix}{i}" for i in range(n)]
    return [FakeUnit(n) for n in names], [f"key-{n}" for n in names]


@pytest.fixture
def registry():
    """Isolated obs registry so counter asserts don't see other
    tests' noise."""
    reg = obs.Obs()
    with obs.scoped(reg):
        yield reg


def counters(reg):
    return reg.snapshot()["counters"]


class TestAdmission:
    def test_admit_tracks_quota_and_backlog(self, registry):
        state = ServeState(client_quota=8, max_queued_units=16)
        job = state.admit(spec(client="ci"), *units_and_keys(3))
        assert job.state == "queued"
        assert state.stats()["clients"] == {"ci": 3}
        assert state.stats()["units_unresolved"] == 3
        assert counters(registry)["serve.jobs.submitted"] == 1
        assert counters(registry)["serve.units.submitted"] == 3

    def test_client_quota_is_per_client(self, registry):
        state = ServeState(client_quota=4, max_queued_units=100)
        state.admit(spec(client="a"), *units_and_keys(3))
        with pytest.raises(RejectError) as exc:
            state.admit(spec(client="a"), *units_and_keys(2, "v"))
        assert exc.value.code == "quota_exhausted"
        assert exc.value.retry_after_s >= 1.0
        # a different client still fits
        state.admit(spec(client="b"), *units_and_keys(4, "w"))
        assert counters(registry)["serve.jobs.rejected.quota"] == 1

    def test_global_backpressure_caps_all_clients(self, registry):
        state = ServeState(client_quota=100, max_queued_units=5)
        state.admit(spec(client="a"), *units_and_keys(3))
        with pytest.raises(RejectError) as exc:
            state.admit(spec(client="b"), *units_and_keys(3, "v"))
        assert exc.value.code == "backpressure"
        assert exc.value.retry_after_s >= 1.0
        assert counters(registry)["serve.jobs.rejected.backpressure"] \
            == 1

    @pytest.mark.parametrize("quota, bound", [(100, 200), (300, 200)])
    def test_job_larger_than_a_limit_is_a_bad_request(self, registry,
                                                     quota, bound):
        """276 units can never fit a client quota of 100 or a server
        bound of 200: no retry can help, so it is not a 429."""
        state = ServeState(client_quota=quota, max_queued_units=bound)
        grid = JobSpec(kernels=("all",), configs=("ladder",))
        units = grid.units()
        with pytest.raises(RejectError) as exc:
            state.admit(grid, units, [f"k{i}" for i in range(len(units))])
        assert exc.value.code == "bad_request"
        assert exc.value.retry_after_s is None
        assert str(min(quota, bound)) in exc.value.message
        assert state.stats()["jobs"] == 0
        assert counters(registry)["serve.jobs.rejected.bad_request"] == 1

    def test_draining_refuses_everything(self, registry):
        state = ServeState()
        state.draining = True
        with pytest.raises(RejectError) as exc:
            state.admit(spec(), *units_and_keys(1))
        assert exc.value.code == "draining"

    def test_retry_after_scales_with_backlog(self, registry):
        state = ServeState(client_quota=10_000,
                           max_queued_units=10_000)
        assert state.retry_after_s() == 1.0     # empty server floor
        for _ in range(4):
            obs.record_timer("serve.unit.wall", 2.0)
        state.admit(spec(), *units_and_keys(10))
        assert state.retry_after_s() == pytest.approx(20.0)
        state._unresolved = 10_000              # pathological backlog
        assert state.retry_after_s() == 60.0    # clamped


class TestQueue:
    def test_priority_then_submission_order(self, registry):
        state = ServeState()
        first = state.admit(spec(priority=0), *units_and_keys(1, "a"))
        second = state.admit(spec(priority=0), *units_and_keys(1, "b"))
        late_urgent = state.admit(spec(priority=-1),
                                  *units_and_keys(1, "c"))
        order = [state.next_unit() for _ in range(3)]
        assert order == [(late_urgent, 0), (first, 0), (second, 0)]
        assert state.next_unit() is None

    def test_units_go_out_in_order_then_the_job_leaves(self, registry):
        state = ServeState()
        job = state.admit(spec(), *units_and_keys(3))
        assert (job.state, job.started_s) == ("queued", None)
        assert state.next_unit() == (job, 0)
        assert job.state == "running"
        assert job.started_s is not None
        assert [state.next_unit() for _ in range(2)] \
            == [(job, 1), (job, 2)]
        assert state.next_unit() is None
        assert state.stats()["jobs_queued"] == 0

    def test_later_urgent_job_overtakes_a_running_one(self, registry):
        state = ServeState()
        slow = state.admit(spec(priority=0), *units_and_keys(3, "a"))
        assert state.next_unit() == (slow, 0)
        urgent = state.admit(spec(priority=-1), *units_and_keys(1, "b"))
        assert [state.next_unit() for _ in range(3)] \
            == [(urgent, 0), (slow, 1), (slow, 2)]
        assert state.next_unit() is None


class TestCoalescing:
    def test_first_attach_creates_then_others_share(self, registry):
        state = ServeState()
        a = state.admit(spec(), [FakeUnit("u")], ["key-shared"])
        b = state.admit(spec(), [FakeUnit("u")], ["key-shared"])
        c = state.admit(spec(), [FakeUnit("u")], ["key-shared"])
        entry, created = state.attach(a, 0)
        assert created
        for job in (b, c):
            other, created = state.attach(job, 0)
            assert other is entry
            assert not created
        assert len(entry.waiters) == 3
        assert b.units_coalesced == c.units_coalesced == 1
        assert a.units_coalesced == 0           # the opener pays
        assert counters(registry)["serve.coalesce.miss"] == 1
        assert counters(registry)["serve.coalesce.hit"] == 2

    def test_resolve_fans_out_one_payload_to_all(self, registry):
        state = ServeState()
        jobs = [state.admit(spec(client=f"c{i}"), [FakeUnit("u")],
                            ["key-shared"]) for i in range(3)]
        for job in jobs:
            state.attach(job, 0)
        payload = {"kernel": "qrng_K2", "metrics": {}}
        touched = state.resolve_exec("key-shared", True, payload)
        assert set(touched) == set(jobs)
        for job in jobs:
            assert job.results[0] is payload    # shared, not copied
            assert job.state == "done"
        assert state.stats()["units_unresolved"] == 0
        assert state.stats()["clients"] == {}
        assert counters(registry)["serve.units.executed"] == 1

    def test_resolve_unknown_key_is_a_noop(self, registry):
        assert ServeState().resolve_exec("ghost", True, {}) == []


class TestCompletion:
    def test_cached_units_complete_without_execution(self, registry):
        state = ServeState()
        job = state.admit(spec(), *units_and_keys(2))
        state.resolve_cached(job, 0, {"kernel": "a"})
        assert job.state == "queued"            # one unit left
        state.resolve_cached(job, 1, {"kernel": "b"})
        assert job.state == "done"
        assert job.units_cached == 2
        assert job.finished_s is not None
        assert counters(registry)["serve.units.cache_hits"] == 2
        assert counters(registry)["serve.jobs.completed"] == 1

    def test_failed_unit_fails_the_job(self, registry):
        state = ServeState()
        job = state.admit(spec(), [FakeUnit("boom")], ["key-boom"])
        state.attach(job, 0)
        state.resolve_exec("key-boom", False, "Traceback ...")
        assert job.state == "failed"
        assert "boom" in job.error
        assert "Traceback" in job.error
        assert counters(registry)["serve.units.errors"] == 1
        assert counters(registry)["serve.jobs.failed"] == 1

    def test_status_mirrors_job_fields(self, registry):
        state = ServeState()
        job = state.admit(spec(client="ci", priority=2),
                          *units_and_keys(2))
        state.resolve_cached(job, 0, {})
        status = job.status()
        assert status.job_id == job.job_id
        assert status.units_total == 2
        assert status.units_done == 1
        assert status.units_cached == 1
        assert status.priority == 2
        assert status.client == "ci"
        assert not status.terminal
