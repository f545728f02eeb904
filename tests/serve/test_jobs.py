"""JobManager: validation, store keys, byte-identity, lifecycle, shutdown."""

from __future__ import annotations

import threading
import time

import pytest

import repro.fleet.runner as fleet_runner
from repro.errors import ConfigError, EmulationError, ServeError
from repro.fleet import FleetRunner, FleetSpec
from repro.scenario.checkpoint import CheckpointStore
from repro.scenario.spec import ScenarioSpec
from repro.scenario.study import Study
from repro.serve import (
    JobManager,
    ResultStore,
    encode_document,
    fleet_result_document,
    study_result_document,
)

STUDY_DOC = {
    "scenario": {"name": "jobs-study", "architecture": "baseline"},
    "axes": {"temperature": [0.0, 25.0]},
    "analysis": "balance",
}

FLEET_DOC = {
    "scenario": {
        "name": "jobs-fleet",
        "drive_cycle": {"name": "urban", "params": {"repetitions": 1}},
    },
    "vehicles": 6,
    "seed": 5,
    "chunk_vehicles": 3,
}


def _wait(job, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = job.to_document()["state"]
        if state in ("done", "failed"):
            return job.to_document()
        time.sleep(0.01)
    raise AssertionError(f"job {job.id} still {job.state} after {timeout}s")


@pytest.fixture
def manager():
    manager = JobManager(evaluator_capacity=4)
    yield manager
    manager.shutdown()


class TestRequestValidation:
    def test_unknown_study_fields_fail_at_submit(self, manager):
        with pytest.raises(ConfigError, match="unknown fields"):
            manager.submit_study({**STUDY_DOC, "bogus": 1})

    def test_study_needs_a_scenario(self, manager):
        with pytest.raises(ConfigError, match="needs a 'scenario'"):
            manager.submit_study({"analysis": "balance"})

    def test_unknown_analysis_kind(self, manager):
        with pytest.raises(ConfigError, match="unknown analysis kind"):
            manager.submit_study({**STUDY_DOC, "analysis": "nope"})

    def test_montecarlo_settings_need_the_montecarlo_kind(self, manager):
        with pytest.raises(ConfigError, match="require the 'montecarlo'"):
            manager.submit_study({**STUDY_DOC, "montecarlo": {"samples": 8}})

    def test_process_backend_needs_workers(self, manager):
        with pytest.raises(ConfigError, match="needs workers greater than 1"):
            manager.submit_study({**STUDY_DOC, "backend": "process"})

    @pytest.mark.parametrize("setting", [{"workers": 2}, {"backend": "thread"}])
    def test_fleet_takes_no_pool_settings(self, manager, setting):
        # Fleets run sequentially: a pool setting is an unknown field.
        with pytest.raises(ConfigError, match="unknown fields"):
            manager.submit_fleet({**FLEET_DOC, **setting})

    def test_fleet_needs_exactly_one_of_fleet_or_scenario(self, manager):
        with pytest.raises(ConfigError, match="exactly one"):
            manager.submit_fleet({"vehicles": 4})

    def test_bad_axis_fails_at_submit(self, manager):
        with pytest.raises(ConfigError, match="unknown scenario axis"):
            manager.submit_study({**STUDY_DOC, "axes": {"nonsense": [1]}})

    def test_submit_after_shutdown_is_refused(self):
        manager = JobManager()
        manager.shutdown()
        with pytest.raises(ServeError, match="shut down"):
            manager.submit_study(STUDY_DOC)


class TestStoreKeys:
    def test_execution_plan_does_not_change_the_key(self, manager):
        baseline = manager.submit_study(STUDY_DOC)
        threaded = manager.submit_study({**STUDY_DOC, "workers": 4})
        process = manager.submit_study({**STUDY_DOC, "workers": 2, "backend": "process"})
        assert baseline.digest == threaded.digest == process.digest
        fleet_a = manager.submit_fleet(FLEET_DOC)
        fleet_b = manager.submit_fleet({**FLEET_DOC, "retries": 2})
        assert fleet_a.digest == fleet_b.digest

    def test_result_shaping_parameters_change_the_key(self, manager):
        base = manager.submit_fleet(FLEET_DOC)
        other_seed = manager.submit_fleet({**FLEET_DOC, "seed": 6})
        other_interval = manager.submit_fleet({**FLEET_DOC, "record_interval_s": 2.0})
        with_rows = manager.submit_fleet({**FLEET_DOC, "keep_vehicle_rows": True})
        digests = {base.digest, other_seed.digest, other_interval.digest, with_rows.digest}
        assert len(digests) == 4


class TestByteIdentity:
    """The store contract: served bytes == a fresh sequential run's bytes."""

    def test_fleet_bytes_equal_across_managers(self):
        # Two servers, each with its own store, serve the same request with
        # the same bytes; an execution-only field (retries) changes nothing.
        request = {**FLEET_DOC, "vehicles": 16, "chunk_vehicles": 8, "keep_vehicle_rows": True}
        served = []
        for execution in ({}, {"retries": 2}):
            manager = JobManager()
            try:
                job = manager.submit_fleet({**request, **execution})
                assert _wait(job)["state"] == "done"
                served.append(manager.result_bytes(job.id))
            finally:
                manager.shutdown()
        assert served[0] == served[1]
        assert b"batched_scan_vehicles" not in served[0]

    def test_study_result_matches_fresh_sequential_run(self, manager):
        job = manager.submit_study({**STUDY_DOC, "workers": 2})
        _wait(job)
        served = manager.result_bytes(job.id)
        study = Study(
            ScenarioSpec.from_dict(STUDY_DOC["scenario"]), axes=STUDY_DOC["axes"]
        )
        fresh = encode_document(study_result_document(study.run("balance")))
        assert served == fresh

    def test_fleet_result_matches_fresh_sequential_run(self, manager):
        job = manager.submit_fleet({**FLEET_DOC, "keep_vehicle_rows": True})
        _wait(job)
        served = manager.result_bytes(job.id)
        fleet = FleetSpec.from_base(
            ScenarioSpec.from_dict(FLEET_DOC["scenario"])
        ).with_population(vehicles=6, seed=5, chunk_vehicles=3)
        fresh = encode_document(
            fleet_result_document(FleetRunner(fleet, keep_vehicle_rows=True).run())
        )
        assert served == fresh
        assert b"batched_scan_vehicles" not in served

    def test_store_hit_serves_the_same_bytes_without_rerunning(self, manager):
        first = manager.submit_study(STUDY_DOC)
        _wait(first)
        builds_after_first = manager.evaluator_cache.stats()["misses"]
        second = manager.submit_study(STUDY_DOC)
        assert second.state == "done" and second.store_hit
        assert manager.result_bytes(second.id) == manager.result_bytes(first.id)
        # No new evaluator work happened for the replayed request.
        assert manager.evaluator_cache.stats()["misses"] == builds_after_first


class TestLifecycle:
    def test_progress_reaches_totals(self, manager):
        job = manager.submit_fleet(FLEET_DOC)
        document = _wait(job)
        assert document["state"] == "done"
        assert document["progress"] == {
            "items_done": 6,
            "items_total": 6,
            "chunks_done": 2,
            "chunks_total": 2,
            "failures": 0,
        }

    def test_failed_study_reports_the_config_error(self, manager):
        # 'emulate' needs a drive cycle; the scenario names none, so the
        # job fails at run time with the analysis error on the record.
        job = manager.submit_study(
            {"scenario": {"name": "no-cycle"}, "analysis": "emulate"}
        )
        document = _wait(job)
        assert document["state"] == "failed"
        assert "drive_cycle" in document["error"]
        with pytest.raises(ServeError, match="failed"):
            manager.result_bytes(job.id)

    def test_failed_fleet_reports_the_typed_sample_error(self, manager):
        # A sampled column that is not a number fails the job with the
        # one-line ConfigError, not a bare conversion error.
        fleet = {
            "name": "typed",
            "vehicles": 4,
            "base": FLEET_DOC["scenario"],
            "distributions": {"speed_scale": {"kind": "constant", "params": {"value": "fast"}}},
        }
        document = _wait(manager.submit_fleet({"fleet": fleet}))
        assert document["state"] == "failed"
        assert document["error"] == (
            "fleet speed_scale distribution produced 'fast', which is not a number"
        )

    def test_unknown_job_lookup(self, manager):
        with pytest.raises(ServeError, match="unknown job"):
            manager.get("job-999999-deadbeef")

    def test_jobs_listing_keeps_submission_order(self, manager):
        first = manager.submit_study(STUDY_DOC)
        second = manager.submit_fleet(FLEET_DOC)
        assert [job.id for job in manager.jobs()] == [first.id, second.id]


class TestVersionsAndLongPoll:
    def test_every_observable_mutation_bumps_the_version(self, manager):
        job = manager.submit_fleet(FLEET_DOC)
        document = _wait(job)
        # queued->running, two chunk events, six item events and the final
        # done transition all bumped; the exact count depends on observer
        # coalescing, but a finished 2-chunk job is well past zero.
        assert document["version"] >= 3
        assert document["version"] == job.version

    def test_wait_for_change_returns_immediately_when_stale(self, manager):
        job = manager.submit_study(STUDY_DOC)
        _wait(job)
        started = time.monotonic()
        document = job.wait_for_change(version=-1, timeout=30.0)
        assert time.monotonic() - started < 5.0
        assert document["state"] == "done"

    def test_wait_for_change_returns_immediately_on_terminal_jobs(self, manager):
        job = manager.submit_study(STUDY_DOC)
        final = _wait(job)
        started = time.monotonic()
        document = job.wait_for_change(version=final["version"], timeout=30.0)
        assert time.monotonic() - started < 5.0
        assert document["state"] == "done"

    def test_wait_for_change_wakes_on_progress(self, manager):
        job = manager.submit_fleet(FLEET_DOC)
        deadline = time.monotonic() + 120
        document = job.to_document()
        while document["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline, "job never progressed"
            document = job.wait_for_change(document["version"], timeout=5.0)
        assert document["state"] == "done"

    def test_store_hit_jobs_are_born_past_version_zero(self, manager):
        first = manager.submit_study(STUDY_DOC)
        _wait(first)
        second = manager.submit_study(STUDY_DOC)
        assert second.store_hit
        assert second.to_document()["version"] >= 1

    def test_stats_carry_identity_and_uptime(self, manager):
        import os

        stats = manager.stats()
        assert stats["pid"] == os.getpid()
        assert stats["uptime_s"] >= 0.0
        assert {"evictions", "oversize_rejects"} <= set(stats["store"])


class TestStructuredFailures:
    def test_fleet_failures_surface_as_engine_records(self, manager, monkeypatch):
        real = fleet_runner._cohort_vehicle_outcome

        def flaky(vehicle_index, *args, **kwargs):
            if vehicle_index == 2:
                raise EmulationError("injected fault on vehicle 2")
            return real(vehicle_index, *args, **kwargs)

        monkeypatch.setattr(fleet_runner, "_cohort_vehicle_outcome", flaky)
        job = manager.submit_fleet({**FLEET_DOC, "retries": 1})
        document = _wait(job)
        assert document["state"] == "done" and document["partial"]
        assert document["failures"] == [
            {
                "index": 2,
                "attempts": 2,
                "kind": "exception",
                "error": "EmulationError: injected fault on vehicle 2",
            }
        ]
        assert document["progress"]["failures"] == 1

    def test_partial_results_are_not_stored(self, manager, monkeypatch):
        real = fleet_runner._cohort_vehicle_outcome

        def flaky(vehicle_index, *args, **kwargs):
            if vehicle_index in (1, 4):
                raise EmulationError("injected fault")
            return real(vehicle_index, *args, **kwargs)

        monkeypatch.setattr(fleet_runner, "_cohort_vehicle_outcome", flaky)
        job = manager.submit_fleet({**FLEET_DOC, "retries": 1})
        document = _wait(job)
        assert document["partial"]
        assert manager.store.stats()["writes"] == 0
        # The partial document is still retrievable from the job itself.
        assert manager.result_bytes(job.id).startswith(b'{"kind":"fleet"')


class TestShutdown:
    def test_drain_finishes_accepted_jobs(self):
        manager = JobManager()
        job = manager.submit_study(STUDY_DOC)
        manager.shutdown(drain=True)
        assert job.to_document()["state"] == "done"

    def test_stop_checkpoints_inflight_fleet_and_resume_completes(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "store"
        checkpoint_root = tmp_path / "ckpt"
        fleet_doc = {
            "scenario": {
                "name": "stop-fleet",
                "drive_cycle": {"name": "urban", "params": {"repetitions": 2}},
            },
            "vehicles": 40,
            "seed": 7,
            "chunk_vehicles": 4,
        }
        manager = JobManager(store=ResultStore(store_dir), checkpoint_root=checkpoint_root)
        # Hold the run at its first chunk boundary until the stop flag is
        # up: a fleet this small would otherwise finish before the stop.
        journaled = threading.Event()
        record_chunk = CheckpointStore.record_chunk

        def gated_record_chunk(store, chunk_index, *args, **kwargs):
            recorded = record_chunk(store, chunk_index, *args, **kwargs)
            if chunk_index == 0:
                journaled.set()
                assert manager._stop_event.wait(120), "the stop flag was never raised"
            return recorded

        monkeypatch.setattr(CheckpointStore, "record_chunk", gated_record_chunk)
        job = manager.submit_fleet(fleet_doc)
        assert journaled.wait(120), "no chunk completed in time"
        manager.shutdown(drain=False)
        document = job.to_document()
        assert document["state"] == "done" and document["partial"]
        assert document["progress"]["chunks_done"] < document["progress"]["chunks_total"]
        # Nothing partial was stored, but the chunks were journaled.
        assert ResultStore(store_dir).stats()["entries"] == 0
        assert any(checkpoint_root.iterdir())

        # Re-submitting the same request on a fresh manager resumes from
        # the journal and completes (and stores) the run.
        resumed_manager = JobManager(
            store=ResultStore(store_dir), checkpoint_root=checkpoint_root
        )
        resumed = resumed_manager.submit_fleet(fleet_doc)
        final = _wait(resumed)
        assert final["state"] == "done" and not final["partial"]
        resumed_manager.shutdown()

        # A third submission is a pure store hit with the same bytes.
        third_manager = JobManager(
            store=ResultStore(store_dir), checkpoint_root=checkpoint_root
        )
        third = third_manager.submit_fleet(fleet_doc)
        assert third.store_hit
        assert third_manager.result_bytes(third.id) == resumed_manager.result_bytes(
            resumed.id
        )
        third_manager.shutdown()

    def test_stop_cancels_queued_jobs(self):
        manager = JobManager()
        # Fill the single job worker, then queue one more behind it.
        first = manager.submit_fleet(FLEET_DOC)
        queued = manager.submit_study(STUDY_DOC)
        manager.shutdown(drain=False)
        assert queued.to_document()["state"] in ("failed", "done")
        if queued.to_document()["state"] == "failed":
            assert "shutdown" in queued.to_document()["error"]
        assert first.to_document()["state"] in ("done", "failed")
