"""The registry web surface: /registry, /healthz, and the sync API."""

import json

import pytest

from repro import obs
from repro.core.model import FixedPowerModel, ModelSet
from repro.library.catalog import Library, LibraryEntry
from repro.registry.artifacts import ModelArtifact
from repro.registry.resolve import RegistryResolver
from repro.registry.sync import MAX_ARTIFACT_BYTES
from repro.web.app import Application


@pytest.fixture
def app(tmp_path):
    obs.get_registry().reset()
    return Application(tmp_path / "state", server_name="mass")


def entry(name="sram", watts=2.0):
    return LibraryEntry(name, ModelSet(power=FixedPowerModel(name, watts)))


def publish(app, name="sram", watts=2.0):
    return app.models_registry.publish_entry(entry(name, watts))


class TestCatalogEndpoint:
    def test_format(self, app):
        publish(app)
        response = app.handle("GET", "/api/registry/catalog.json")
        payload = json.loads(response.body)
        assert payload["format"] == "powerplay-registry-catalog/1"
        assert payload["server"] == "mass"
        (row,) = payload["artifacts"]
        assert row["name"] == "sram" and len(row["digest"]) == 40

    def test_corrupt_rows_filtered_from_the_wire(self, app):
        artifact = publish(app)
        store = app.models_registry.store
        store._path("entry", "sram", 1).write_text("garbage")
        payload = json.loads(
            app.handle("GET", "/api/registry/catalog.json").body
        )
        assert payload["artifacts"] == []  # a peer never syncs a corpse
        assert len(store.quarantined) == 1
        assert artifact.digest  # silence unused warning


class TestArtifactEndpoint:
    def test_fetch_verifies_roundtrip(self, app):
        published = publish(app)
        response = app.handle(
            "GET", "/api/registry/artifact?kind=entry&name=sram"
        )
        assert response.status == 200
        fetched = ModelArtifact.from_json(response.body)  # digest-verified
        assert fetched.digest == published.digest

    def test_bad_identity_is_400(self, app):
        assert app.handle(
            "GET", "/api/registry/artifact?kind=plugin&name=sram"
        ).status == 400
        assert app.handle(
            "GET", "/api/registry/artifact?kind=entry&name=../etc"
        ).status == 400
        assert app.handle(
            "GET", "/api/registry/artifact?kind=entry&name=sram&version=x"
        ).status == 400

    def test_missing_is_404(self, app):
        assert app.handle(
            "GET", "/api/registry/artifact?kind=entry&name=ghost"
        ).status == 404


class TestPublishEndpoint:
    def test_push_then_duplicate(self, app):
        artifact = ModelArtifact.create(
            "entry", "pushed", entry("pushed", 3.0).to_payload(),
            publisher="calif",
        )
        first = app.handle(
            "POST", "/api/registry/publish", {"artifact": artifact.to_json()}
        )
        assert first.status == 200
        assert json.loads(first.body)["ingested"] is True
        again = app.handle(
            "POST", "/api/registry/publish", {"artifact": artifact.to_json()}
        )
        assert json.loads(again.body)["ingested"] is False

    def test_tampered_push_rejected_and_counted(self, app):
        artifact = ModelArtifact.create("entry", "evil", {"x": 1})
        text = artifact.to_json().replace('"x":1', '"x":2')
        response = app.handle(
            "POST", "/api/registry/publish", {"artifact": text}
        )
        assert response.status == 400
        assert "integrity" in json.loads(response.body)["error"]
        assert len(app.models_registry.store) == 0
        counter = obs.get_registry().counter(
            "powerplay_registry_integrity_total", "", ("event",)
        )
        assert counter.value(event="rejected_push") == 1

    def test_truncated_push_rejected(self, app):
        text = ModelArtifact.create("entry", "cut", {"x": 1}).to_json()
        response = app.handle(
            "POST", "/api/registry/publish", {"artifact": text[: len(text) // 2]}
        )
        assert response.status == 400
        assert len(app.models_registry.store) == 0

    def test_oversized_push_is_413(self, app):
        response = app.handle(
            "POST", "/api/registry/publish",
            {"artifact": "x" * (MAX_ARTIFACT_BYTES + 1)},
        )
        assert response.status == 413

    def test_missing_field_is_400(self, app):
        assert app.handle("POST", "/api/registry/publish", {}).status == 400

    def test_version_conflict_is_409(self, app):
        publish(app, watts=1.0)
        conflicting = ModelArtifact.create(
            "entry", "sram", entry("sram", 9.0).to_payload(),
            publisher="impostor",
        )
        response = app.handle(
            "POST", "/api/registry/publish",
            {"artifact": conflicting.to_json()},
        )
        assert response.status == 409
        assert (
            app.models_registry.get_entry("sram").models.power.power({}) == 1.0
        )


class TestSyncEndpoint:
    def test_bad_peer_is_400(self, app):
        assert app.handle(
            "POST", "/api/registry/sync", {"peer": "ftp://x"}
        ).status == 400
        assert app.handle("POST", "/api/registry/sync", {}).status == 400

    @pytest.mark.parametrize("peer, fragment", [
        ("https://127.0.0.1:9", "scheme"),   # the client speaks http only
        ("http://", "host"),
        ("http://127.0.0.1:notaport", "port"),
        ("", "empty"),
    ])
    def test_every_refused_peer_answers_json(self, app, peer, fragment):
        response = app.handle("POST", "/api/registry/sync", {"peer": peer})
        assert response.status == 400
        assert response.content_type == "application/json"
        assert fragment in json.loads(response.body)["error"]

    def test_unreachable_peer_is_502(self, app):
        response = app.handle(
            "POST", "/api/registry/sync", {"peer": "http://127.0.0.1:1"}
        )
        assert response.status == 502


class TestHealthz:
    def _health(self, app):
        response = app.handle("GET", "/healthz")
        return response.status, json.loads(response.body)

    def _gauge(self):
        return obs.get_registry().gauge("powerplay_health_state").value()

    def test_fresh_server_is_ok(self, app):
        status, payload = self._health(app)
        assert status == 200
        assert payload["status"] == "ok" and payload["code"] == 0
        assert payload["checks"]["mirror_writable"] is True
        assert self._gauge() == 0

    def test_degraded_on_mirror_serves_still_200(self, app):
        publish(app, "mirrored_only", 4.0)
        resolver = RegistryResolver(
            Library("local"), registry=app.models_registry
        )
        app.model_resolver = resolver
        resolver.resolve("mirrored_only")
        status, payload = self._health(app)
        assert status == 200  # mirrors working IS the design working
        assert payload["status"] == "degraded" and payload["code"] == 1
        assert payload["checks"]["resolutions_degraded"] == 1
        assert self._gauge() == 1

    def test_degraded_on_quarantine(self, app):
        publish(app)
        store = app.models_registry.store
        store._path("entry", "sram", 1).write_text("garbage")
        store.verify_all()  # quarantines the corpse
        status, payload = self._health(app)
        assert status == 200
        assert payload["status"] == "degraded"
        assert payload["checks"]["quarantined"] == 1

    def test_failing_when_every_resolution_fails(self, app):
        resolver = RegistryResolver(
            Library("local"), registry=app.models_registry
        )
        app.model_resolver = resolver
        resolver.resolve("ghost")
        status, payload = self._health(app)
        assert status == 503
        assert payload["status"] == "failing" and payload["code"] == 2
        assert self._gauge() == 2

    def test_health_state_in_metrics_exposition(self, app):
        app.handle("GET", "/healthz")
        body = app.handle("GET", "/metrics").body
        assert "powerplay_health_state 0" in body


class TestRegistryPage:
    def test_catalog_rendered(self, app):
        publish(app)
        app.models_registry.store.pin("entry", "sram", 1)
        body = app.handle("GET", "/registry").body
        assert "Federated registry" in body or "registry" in body.lower()
        assert "sram" in body
        assert publish(app, "dram").digest[:16] in app.handle(
            "GET", "/registry"
        ).body

    def test_quarantine_ledger_rendered(self, app):
        publish(app)
        store = app.models_registry.store
        store._path("entry", "sram", 1).write_text("garbage")
        store.verify_all()
        body = app.handle("GET", "/registry").body
        assert "quarantine" in body.lower()

    def test_status_page_shows_registry_and_health(self, app):
        publish(app)
        body = app.handle("GET", "/status").body
        assert "Federated registry" in body
        assert "artifacts mirrored" in body
        assert "health" in body.lower()


class TestFlush:
    def test_flush_saves_loaded_sessions(self, app):
        app.handle("POST", "/login", {"user": "lidsky"})
        flushed = app.flush()
        assert flushed == {"sessions": 1}
