"""HTTP front-end tests: JSON round-trips against an ephemeral-port server
over a single-process service (the router's are in test_sharding.py)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.io.storage import package_to_dict
from repro.kb.ntriples import serialize
from repro.kb.namespaces import RDF_TYPE
from repro.kb.graph import Graph
from repro.kb.triples import Triple
from repro.service import AsyncServerThread, RecommendationService, ServiceConfig
from repro.synthetic.config import (
    EvolutionConfig,
    InstanceConfig,
    SchemaConfig,
    UserConfig,
    WorldConfig,
)
from repro.synthetic.schema_gen import SYN
from repro.synthetic.world import generate_world

WORLD_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=20, n_properties=12),
    instances=InstanceConfig(base_instances_per_class=6),
    evolution=EvolutionConfig(n_versions=3, changes_per_version=30, n_hotspots=2),
    users=UserConfig(n_users=4, events_per_user=8),
)


@pytest.fixture()
def served():
    """A service with one tenant behind a live ephemeral-port HTTP server."""
    world = generate_world(seed=11, config=WORLD_CONFIG)
    service = RecommendationService(ServiceConfig(k=4, workers=2))
    service.add_tenant("uni", world.kb, world.users)
    try:
        with AsyncServerThread(service) as server:
            yield world, service, f"http://127.0.0.1:{server.address[1]}"
    finally:
        service.close()


def _get(base, path):
    with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(base, path, payload):
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_health(self, served):
        _, _, base = served
        status, body = _get(base, "/health")
        assert status == 200
        assert body == {"status": "ok", "tenants": 1}

    def test_tenants(self, served):
        world, _, base = served
        status, body = _get(base, "/tenants")
        assert status == 200
        (summary,) = body["tenants"]
        assert summary["name"] == "uni"
        assert summary["versions"] == world.kb.version_ids()

    def test_recommend_round_trip_matches_python_api(self, served):
        world, service, base = served
        user_id = world.users[0].user_id
        status, body = _post(base, "/recommend", {"tenant": "uni", "user": user_id})
        assert status == 200
        # Deterministic pipeline: the HTTP payload equals a direct Python
        # API call serialised the same way.
        expected = package_to_dict(service.recommend("uni", user_id))
        assert body == expected
        assert len(body["items"]) == 4  # ServiceConfig default k

    def test_recommend_respects_k_and_pair(self, served):
        world, _, base = served
        ids = world.kb.version_ids()
        status, body = _post(
            base,
            "/recommend",
            {"tenant": "uni", "user": world.users[1].user_id, "k": 2,
             "old": ids[0], "new": ids[1]},
        )
        assert status == 200
        assert len(body["items"]) == 2
        assert body["metadata"]["context"] == f"{ids[0]}->{ids[1]}"

    def test_commit_then_recommend_on_new_head(self, served):
        world, _, base = served
        classes = sorted(
            world.kb.latest().schema.classes(), key=lambda c: c.value
        )
        added = Graph(
            Triple(SYN[f"http_i{i}"], RDF_TYPE, classes[i % len(classes)])
            for i in range(4)
        )
        status, body = _post(
            base,
            "/commit",
            {"tenant": "uni", "added": serialize(added), "version_id": "v_http"},
        )
        assert status == 200
        assert body["version_id"] == "v_http"
        assert world.kb.version_ids()[-1] == "v_http"

        old_head = body["versions"][-2]
        status, rec = _post(
            base, "/recommend", {"tenant": "uni", "user": world.users[0].user_id}
        )
        assert status == 200
        assert rec["metadata"]["context"] == f"{old_head}->v_http"

    def test_stats_counts_requests(self, served):
        world, _, base = served
        _post(base, "/recommend", {"tenant": "uni", "user": world.users[0].user_id})
        status, body = _get(base, "/stats")
        assert status == 200
        assert body["admission"]["submitted"] >= 1
        assert body["tenants"] == ["uni"]


class TestErrors:
    def test_unknown_tenant_404(self, served):
        _, _, base = served
        status, body = _post(base, "/recommend", {"tenant": "nope", "user": "u0"})
        assert status == 404
        assert "unknown tenant" in body["error"]

    def test_unknown_user_404(self, served):
        _, _, base = served
        status, body = _post(base, "/recommend", {"tenant": "uni", "user": "ghost"})
        assert status == 404
        assert "no user" in body["error"]

    def test_missing_fields_400(self, served):
        _, _, base = served
        status, body = _post(base, "/recommend", {"tenant": "uni"})
        assert status == 400
        assert "error" in body

    def test_malformed_json_400(self, served):
        _, _, base = served
        request = urllib.request.Request(
            f"{base}/recommend", data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_path_404(self, served):
        _, _, base = served
        status, body = _post(base, "/frobnicate", {"tenant": "uni"})
        assert status == 404

    def test_empty_commit_400(self, served):
        _, _, base = served
        status, body = _post(base, "/commit", {"tenant": "uni"})
        assert status == 400
        assert "non-empty" in body["error"]

    def test_duplicate_version_id_400(self, served):
        world, _, base = served
        status, body = _post(
            base,
            "/commit",
            {"tenant": "uni",
             "added": "<http://x/a> <http://x/p> <http://x/b> .\n",
             "version_id": world.kb.version_ids()[0]},
        )
        assert status == 400
        assert "duplicate" in body["error"]

    def test_rejected_commits_do_not_grow_the_chain_dictionary(self, served):
        world, _, base = served
        dictionary = world.kb.latest().graph.dictionary
        before = len(dictionary)
        for payload in (
            {"tenant": "uni"},  # empty changes
            {"tenant": "uni",
             "added": "<http://x/fresh1> <http://x/p> <http://x/fresh2> .\n",
             "version_id": world.kb.version_ids()[0]},  # duplicate id
            {"tenant": "uni",
             "added": "<http://x/fresh3> <http://x/p> <http://x/fresh4> .\n",
             "metadata": "not-an-object"},  # bad metadata
        ):
            status, _ = _post(base, "/commit", payload)
            assert status == 400
        assert len(dictionary) == before


class TestConcurrentHTTP:
    def test_parallel_requests_all_identical(self, served):
        world, _, base = served
        user_id = world.users[2].user_id
        results = []
        errors = []

        def hit():
            try:
                results.append(
                    _post(base, "/recommend", {"tenant": "uni", "user": user_id})
                )
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert not errors, errors
        assert len(results) == 8
        statuses = {status for status, _ in results}
        assert statuses == {200}
        bodies = [body for _, body in results]
        assert all(body == bodies[0] for body in bodies)
