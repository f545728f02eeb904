"""The HTTP front door, exercised end-to-end through the in-repo client."""

from __future__ import annotations

import http.client
import json
import time

import pytest

import repro.fleet.runner as fleet_runner
from repro.errors import EmulationError, ServeError
from repro.scenario.listing import scenario_listing
from repro.scenario.spec import ScenarioSpec
from repro.scenario.study import Study
from repro.serve import (
    JobManager,
    ServeClient,
    ServeServer,
    encode_document,
    study_result_document,
)
from repro.serve.api import ServeApp

STUDY_DOC = {
    "scenario": {"name": "api-study", "architecture": "baseline"},
    "axes": {"temperature": [0.0, 25.0]},
}

FLEET_DOC = {
    "scenario": {
        "name": "api-fleet",
        "drive_cycle": {"name": "urban", "params": {"repetitions": 1}},
    },
    "vehicles": 6,
    "seed": 5,
    "chunk_vehicles": 3,
}


@pytest.fixture
def server():
    server = ServeServer(JobManager(evaluator_capacity=4), port=0).start()
    yield server
    server.stop()


@pytest.fixture
def client(server):
    return ServeClient(port=server.port)


def _raw(server, method, path, body=b"", headers=None):
    """A raw HTTP exchange, for status codes the client turns into errors."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz_reports_counters(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}
        assert "evaluator_cache" in health and "store" in health

    def test_scenarios_listing_matches_the_shared_listing(self, client):
        assert client.scenarios() == json.loads(
            json.dumps(scenario_listing(), allow_nan=False)
        )

    def test_study_round_trip_over_http(self, client):
        job = client.submit_study(STUDY_DOC)
        assert job["state"] in ("queued", "running", "done")
        final = client.wait(job["id"])
        assert final["progress"]["items_done"] == 2
        served = client.result_bytes(job["id"])
        study = Study(ScenarioSpec.from_dict(STUDY_DOC["scenario"]), axes=STUDY_DOC["axes"])
        fresh = encode_document(study_result_document(study.run("balance")))
        assert served == fresh

    def test_repost_is_a_store_hit_with_identical_bytes(self, client):
        first = client.submit_study(STUDY_DOC)
        client.wait(first["id"])
        payload = client.result_bytes(first["id"])
        second = client.submit_study(STUDY_DOC)
        assert second["state"] == "done" and second["store_hit"]
        assert client.result_bytes(second["id"]) == payload
        assert client.health()["store"]["hits"] >= 1

    def test_fleet_round_trip_with_structured_failures(self, client, monkeypatch):
        real = fleet_runner._cohort_vehicle_outcome

        def flaky(vehicle_index, *args, **kwargs):
            if vehicle_index == 3:
                raise EmulationError("injected fault on vehicle 3")
            return real(vehicle_index, *args, **kwargs)

        monkeypatch.setattr(fleet_runner, "_cohort_vehicle_outcome", flaky)
        job = client.submit_fleet({**FLEET_DOC, "retries": 1})
        final = client.wait(job["id"])
        assert final["partial"]
        assert final["failures"] == [
            {
                "index": 3,
                "attempts": 2,
                "kind": "exception",
                "error": "EmulationError: injected fault on vehicle 3",
            }
        ]
        document = client.result(job["id"])
        assert document["kind"] == "fleet"
        assert document["metadata"]["vehicles_failed"] == 1
        assert document["metadata"]["failures"] == final["failures"]

    def test_healthz_reports_identity_and_full_counters(self, client, server):
        import os

        health = client.health()
        assert health["pid"] == os.getpid()  # in-process server fixture
        assert health["uptime_s"] >= 0.0
        assert {"entries", "bytes", "evictions", "oversize_rejects"} <= set(
            health["store"]
        )
        assert {"capacity", "size", "hits", "misses", "build_wall_time_s"} <= set(
            health["evaluator_cache"]
        )

    def test_long_poll_returns_immediately_on_a_stale_version(self, client):
        job = client.submit_study(STUDY_DOC)
        final = client.wait(job["id"])
        started = time.monotonic()
        document = client.job(job["id"], wait=20.0, version=-1)
        assert time.monotonic() - started < 5.0
        assert document == final

    def test_long_poll_holds_until_the_job_finishes(self, client):
        job = client.submit_fleet(FLEET_DOC)
        document = job
        deadline = time.monotonic() + 120
        while document["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline
            document = client.job(
                job["id"], wait=5.0, version=document["version"]
            )
        assert document["state"] == "done"

    def test_wait_uses_the_long_poll_end_to_end(self, client):
        job = client.submit_fleet(FLEET_DOC)
        final = client.wait(job["id"])
        assert final["state"] == "done"
        assert final["version"] >= 1

    def test_jobs_listing(self, client):
        first = client.submit_study(STUDY_DOC)
        client.wait(first["id"])
        jobs = client.jobs()
        assert [job["id"] for job in jobs] == [first["id"]]


#: Execution fields a request can get wrong: (path, extra fields).
MALFORMED_EXECUTION_FIELDS = [
    ("/studies", {"workers": "2", "backend": "process"}),
    ("/studies", {"workers": 0}),
    ("/studies", {"workers": "2"}),
    ("/studies", {"backend": "gpu"}),
    ("/fleet", {"workers": 0}),
    ("/fleet", {"workers": 2}),
    ("/fleet", {"backend": "process"}),
    ("/fleet", {"backend": "gpu"}),
    ("/fleet", {"retries": -1}),
    ("/fleet", {"retries": "1"}),
    ("/fleet", {"record_interval_s": "x"}),
    ("/fleet", {"record_interval_s": float("inf")}),
    ("/fleet", {"idle_step_s": 0}),
]


class TestErrorMapping:
    @pytest.mark.parametrize(
        "path, fields",
        MALFORMED_EXECUTION_FIELDS,
        ids=[f"{path[1:]}-{fields}" for path, fields in MALFORMED_EXECUTION_FIELDS],
    )
    def test_malformed_execution_field_is_a_400_and_no_job(self, path, fields):
        manager = JobManager(evaluator_capacity=4)
        try:
            document = {**(STUDY_DOC if path == "/studies" else FLEET_DOC), **fields}
            status, payload, _ = ServeApp(manager).handle(
                "POST", path, json.dumps(document).encode()
            )
            assert status == 400
            message = json.loads(payload)["error"]
            assert message and "\n" not in message
            assert manager.jobs() == []
        finally:
            manager.shutdown()

    @pytest.mark.parametrize(
        "values", [5, "baseline", {"a": 1}, None], ids=["int", "string", "mapping", "null"]
    )
    def test_axis_value_that_is_not_a_list_is_a_400_and_no_job(self, values):
        manager = JobManager(evaluator_capacity=4)
        try:
            document = {**STUDY_DOC, "axes": {"temperature": values}}
            status, payload, _ = ServeApp(manager).handle(
                "POST", "/studies", json.dumps(document).encode()
            )
            assert status == 400
            expected = f"axis 'temperature' must be a list of values, got {type(values).__name__}"
            assert json.loads(payload)["error"] == expected
            assert manager.jobs() == []
        finally:
            manager.shutdown()

    def test_malformed_execution_field_is_a_400_on_the_live_server(self, server):
        body = json.dumps({**STUDY_DOC, "workers": "2", "backend": "process"}).encode()
        status, payload = _raw(server, "POST", "/studies", body)
        assert status == 400
        assert "workers must be a positive integer" in json.loads(payload)["error"]
        assert json.loads(_raw(server, "GET", "/jobs")[1]) == {"jobs": []}

    def test_malformed_json_body_is_a_400(self, server):
        status, payload = _raw(server, "POST", "/studies", b"{not json")
        assert status == 400
        assert "not valid JSON" in json.loads(payload)["error"]

    def test_invalid_document_is_a_400(self, server):
        status, payload = _raw(
            server, "POST", "/studies", json.dumps({"bogus": 1}).encode()
        )
        assert status == 400
        assert "unknown fields" in json.loads(payload)["error"]

    @pytest.mark.parametrize("path", ["/studies", "/fleet"])
    def test_non_finite_drive_cycle_is_a_400(self, server, path):
        body = b'{"scenario": {"drive_cycle": {"name": "constant", "params": {"speed_kmh": NaN}}}}'
        status, payload = _raw(server, "POST", path, body)
        assert status == 400
        assert "not canonical JSON" in json.loads(payload)["error"]

    def test_unknown_job_is_a_404(self, server):
        status, payload = _raw(server, "GET", "/jobs/job-000042-deadbeef")
        assert status == 404
        assert "unknown job" in json.loads(payload)["error"]

    def test_result_of_unfinished_job_is_a_409(self, server, client):
        job = client.submit_fleet(FLEET_DOC)
        status, payload = _raw(server, "GET", f"/jobs/{job['id']}/result")
        if status != 200:  # the tiny fleet may already have finished
            assert status == 409
            assert "not ready" in json.loads(payload)["error"]
        client.wait(job["id"])

    def test_wrong_method_is_a_405(self, server):
        assert _raw(server, "GET", "/studies")[0] == 405
        assert _raw(server, "POST", "/healthz")[0] == 405

    def test_unknown_route_is_a_404(self, server):
        assert _raw(server, "GET", "/nope")[0] == 404

    def test_malformed_wait_parameter_is_a_400(self, server, client):
        job = client.submit_study(STUDY_DOC)
        client.wait(job["id"])
        status, payload = _raw(server, "GET", f"/jobs/{job['id']}?wait=soon")
        assert status == 400
        assert "wait" in json.loads(payload)["error"]
        status, _ = _raw(server, "GET", f"/jobs/{job['id']}?wait=1&version=x")
        assert status == 400

    def test_client_raises_serve_error_with_the_server_message(self, client):
        with pytest.raises(ServeError, match="unknown fields"):
            client.submit_study({"bogus": 1})

    def test_unreachable_server_is_a_serve_error(self):
        client = ServeClient(port=1, timeout=2)
        with pytest.raises(ServeError, match="cannot reach serve"):
            client.health()


class TestLifecycleOverHttp:
    def test_stop_drains_accepted_jobs(self):
        server = ServeServer(JobManager(), port=0).start()
        client = ServeClient(port=server.port)
        job = client.submit_study(STUDY_DOC)
        server.stop(drain=True)
        # The manager drained: the job finished even though the listener
        # is gone (its state is inspected directly, not over HTTP).
        assert server.manager.get(job["id"]).to_document()["state"] == "done"

    def test_double_start_is_refused(self, server):
        with pytest.raises(ServeError, match="already started"):
            server.start()
