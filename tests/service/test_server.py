"""HTTP server + client: end-to-end jobs, streaming, byte-identity, restart."""

import json
import threading

import pytest

from repro.campaign import CampaignGrid, run_campaign
from repro.errors import ServiceError
from repro.flow.topology import optimize_topology
from repro.service import BackgroundServer, ServiceClient, topology_payload
from repro.specs.adc import AdcSpec


CAMPAIGN = {"kind": "campaign", "grid": {"resolutions": [10, 11, 12]}}


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(store_dir=tmp_path / "svc") as background:
        yield background


@pytest.fixture
def client(server):
    return ServiceClient(server.base_url)


class TestJobLifecycle:
    def test_campaign_job_completes_and_streams_scenarios(self, client):
        # Park a slow job on the single worker first so the campaign is
        # still queued when the watch stream opens — otherwise a fast
        # analytic campaign can finish before the subscription lands and
        # the scenario events would legitimately never be seen.
        blocker = {
            "kind": "optimize",
            "spec": {"resolution_bits": 10},
            "mode": "synthesis",
            "config": {"budget": 150, "verify_transient": False},
        }
        client.submit(blocker)
        response = client.submit(CAMPAIGN)
        assert response["coalesced"] is False
        job_id = response["job"]["id"]
        labels = []
        for event in client.watch(job_id):
            if event["event"] == "scenario":
                labels.append(event["label"])
            if event.get("state") in ("done", "failed"):
                break
        final = client.job(job_id)
        assert final["state"] == "done"
        assert final["completed_scenarios"] == final["total_scenarios"] == 3
        # Scenario events arrive in expansion order.
        assert labels == [
            "k10_40M_analytic",
            "k11_40M_analytic",
            "k12_40M_analytic",
        ]

    def test_campaign_artifacts_byte_identical_to_direct_run(
        self, client, tmp_path
    ):
        job_id = client.submit(CAMPAIGN)["job"]["id"]
        client.wait(job_id, timeout=120)
        direct = tmp_path / "direct"
        run_campaign(CampaignGrid(resolutions=(10, 11, 12)), store_dir=direct)
        for name in ("results.jsonl", "report.txt", "manifest.json"):
            assert client.artifact(job_id, name) == (
                direct / name
            ).read_bytes(), name

    def test_optimize_job_matches_direct_payload(self, client):
        body = {"kind": "optimize", "spec": {"resolution_bits": 11}}
        job_id = client.submit(body)["job"]["id"]
        client.wait(job_id, timeout=120)
        direct = topology_payload(optimize_topology(AdcSpec(resolution_bits=11)))
        assert client.artifact(job_id, "result.json") == direct
        assert client.result(job_id)["winner"] == json.loads(direct)["winner"]

    def test_download_fetches_every_artifact(self, client, tmp_path):
        job_id = client.submit(CAMPAIGN)["job"]["id"]
        client.wait(job_id, timeout=120)
        paths = client.download(job_id, tmp_path / "fetched")
        assert {"results.jsonl", "report.txt", "manifest.json"} <= set(paths)
        for path in paths.values():
            assert path.is_file() and path.stat().st_size > 0

    def test_jobs_listing_and_health(self, client):
        job_id = client.submit(CAMPAIGN)["job"]["id"]
        client.wait(job_id, timeout=120)
        listed = client.jobs()
        assert [job["id"] for job in listed] == [job_id]
        health = client.health()
        assert health["status"] == "ok" and health["jobs"] == 1


class TestCoalescing:
    def test_concurrent_identical_submissions_share_one_execution(self, client):
        responses = []

        def submit():
            response = client.submit({**CAMPAIGN, "client": "racer"})
            client.wait(response["job"]["id"], timeout=120)
            responses.append(response)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        ids = {response["job"]["id"] for response in responses}
        assert len(ids) == 1  # one job, four satisfied clients
        stats = client.stats()
        assert stats["submissions"] == 4
        assert stats["executions"] == 1
        assert stats["coalesced"] == 3
        # Every client reads the same bytes.
        (job_id,) = ids
        payloads = {client.artifact(job_id, "results.jsonl") for _ in range(4)}
        assert len(payloads) == 1

    def test_resubmitting_a_done_job_serves_the_store(self, client):
        first = client.submit(CAMPAIGN)
        client.wait(first["job"]["id"], timeout=120)
        again = client.submit(CAMPAIGN)
        assert again["coalesced"] is True
        assert again["job"]["state"] == "done"
        assert client.stats()["executions"] == 1


class TestRestart:
    def test_restart_resumes_queue_without_recomputing_done_jobs(self, tmp_path):
        store = tmp_path / "svc"
        with BackgroundServer(store_dir=store) as first:
            client = ServiceClient(first.base_url)
            job_id = client.submit(CAMPAIGN)["job"]["id"]
            client.wait(job_id, timeout=120)
            served = client.artifact(job_id, "results.jsonl")

        with BackgroundServer(store_dir=store) as second:
            client = ServiceClient(second.base_url)
            (job,) = client.jobs()
            assert job["id"] == job_id and job["state"] == "done"
            # Identical resubmission coalesces onto the stored result: no
            # execution in the new server's lifetime.
            response = client.submit(CAMPAIGN)
            assert response["coalesced"] is True
            assert response["job"]["state"] == "done"
            assert client.stats()["executions"] == 0
            assert client.artifact(job_id, "results.jsonl") == served


class TestErrors:
    def test_malformed_json_is_a_single_line_error(self, server):
        import http.client

        connection = http.client.HTTPConnection(
            server.service.host, server.service.port, timeout=30
        )
        try:
            connection.request(
                "POST",
                "/jobs",
                body=b"{nope",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_mistyped_config_is_a_400(self, server):
        import http.client

        connection = http.client.HTTPConnection(
            server.service.host, server.service.port, timeout=30
        )
        body = {**CAMPAIGN, "config": {"verify_transient": "no"}}
        try:
            connection.request(
                "POST",
                "/v1/jobs",
                body=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "verify_transient" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_bad_request_fields_surface_as_service_errors(self, client):
        with pytest.raises(ServiceError, match="process, queue, serial"):
            client.submit({**CAMPAIGN, "config": {"backend": "gpu"}})
        with pytest.raises(ServiceError, match="resolutions"):
            client.submit({"kind": "campaign", "grid": {}})

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.job("feedc0ffee00")
        with pytest.raises(ServiceError, match="unknown job"):
            list(client.watch("feedc0ffee00"))

    def test_result_of_unfinished_job_conflicts(self, client):
        # A queued job has no result yet: hold the single worker busy with
        # a synthesis job, then ask for the queued job's result.
        slow = {
            "kind": "optimize",
            "spec": {"resolution_bits": 12},
            "mode": "synthesis",
            "config": {"budget": 300, "verify_transient": False},
        }
        client.submit(slow)
        queued = client.submit(CAMPAIGN)["job"]
        try:
            with pytest.raises(ServiceError, match="not done"):
                client.result(queued["id"])
        finally:
            client.wait(queued["id"], timeout=300)

    def test_unknown_artifact_names_available_ones(self, client):
        job_id = client.submit(CAMPAIGN)["job"]["id"]
        client.wait(job_id, timeout=120)
        with pytest.raises(ServiceError, match="available"):
            client.artifact(job_id, "secrets.txt")
        # Traversal-shaped names fall off the route table entirely.
        with pytest.raises(ServiceError, match="no route"):
            client.artifact(job_id, "../../etc/passwd")

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError, match="no route"):
            client._request("GET", "/nonsense")

    def test_negative_content_length_is_400(self, server):
        import socket

        with socket.create_connection(
            (server.service.host, server.service.port), timeout=30
        ) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: -1\r\n"
                b"\r\n"
            )
            response = sock.recv(65536).decode("latin-1")
        assert "400" in response.split("\r\n", 1)[0]
        assert "Content-Length" in response

    def test_wait_timeout_does_not_overshoot_on_a_quiet_stream(self, client):
        import time as _time

        # Park the worker on a slow synthesis job; the queued campaign's
        # event stream then stays quiet, and wait() must still honour its
        # deadline instead of blocking until the next event.
        slow = {
            "kind": "optimize",
            "spec": {"resolution_bits": 12},
            "mode": "synthesis",
            "config": {"budget": 300, "verify_transient": False},
        }
        client.submit(slow)
        queued = client.submit(CAMPAIGN)["job"]
        start = _time.monotonic()
        with pytest.raises(ServiceError, match="timed out|cannot reach"):
            client.wait(queued["id"], timeout=0.5)
        assert _time.monotonic() - start < 10.0
        client.wait(queued["id"], timeout=300)  # let the fixture drain fast

    def test_unreachable_service_is_a_service_error(self):
        dead = ServiceClient("http://127.0.0.1:1", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            dead.health()


class TestCancel:
    def test_cancel_dequeues_a_queued_job(self, client):
        slow = {
            "kind": "optimize",
            "spec": {"resolution_bits": 12},
            "mode": "synthesis",
            "config": {"budget": 300, "verify_transient": False},
        }
        running = client.submit(slow)["job"]
        queued = client.submit(CAMPAIGN)["job"]
        response = client.cancel(queued["id"])
        assert response["cancelled"] is True
        assert client.job(queued["id"])["state"] == "cancelled"
        final = client.wait(running["id"], timeout=300)
        assert final["state"] == "done"
