"""Publish/subscribe sync over real HTTP, including through chaos.

The headline guarantee under test: **zero digest-unverified artifacts
ever enter a mirror**.  A truncated body (reset mid-transfer, with no
Content-Length to betray it) must fail digest verification at the fetch
boundary — retried if the next attempt may succeed, rejected if not,
ingested never.
"""

import pytest

from repro import obs
from repro.core.model import FixedPowerModel, ModelSet
from repro.errors import RemoteError
from repro.library.catalog import LibraryEntry
from repro.registry.registry import ModelRegistry
from repro.registry.store import MirrorStore
from repro.registry.sync import RegistrySyncClient, sync_from
from repro.web.app import Application
from repro.web.faults import ChaosServer, FaultPlan
from repro.web.resilience import CircuitBreaker, RetryPolicy
from repro.web.server import PowerPlayServer


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.get_registry().reset()


def entry(name, watts):
    return LibraryEntry(name, ModelSet(power=FixedPowerModel(name, watts)))


def publish_fleet(application, count=4):
    for index in range(count):
        application.models_registry.publish_entry(
            entry(f"model_{index}", float(index + 1))
        )


@pytest.fixture
def provider(tmp_path):
    application = Application(tmp_path / "provider", server_name="provider")
    publish_fleet(application)
    with PowerPlayServer(
        tmp_path / "provider", application=application
    ) as server:
        yield server


def make_client(url, attempts=4):
    return RegistrySyncClient(
        url,
        retry_policy=RetryPolicy(
            max_attempts=attempts, sleep=lambda s: None
        ),
        breaker=CircuitBreaker(failure_threshold=100),
    )


@pytest.fixture
def local(tmp_path):
    return ModelRegistry(
        MirrorStore(tmp_path / "local"), publisher="subscriber"
    )


class TestSyncHappyPath:
    def test_full_mirror(self, provider, local):
        report = sync_from(local, make_client(provider.base_url))
        assert report.complete
        assert len(report.fetched) == 4
        assert len(local.store) == 4
        assert local.get_entry("model_2").models.power.power({}) == 3.0

    def test_second_pass_is_all_duplicates(self, provider, local):
        sync_from(local, make_client(provider.base_url))
        report = sync_from(local, make_client(provider.base_url))
        assert report.fetched == []
        assert len(report.duplicates) == 4

    def test_push_direction(self, provider, local):
        artifact = local.publish_entry(entry("pushed", 7.0))
        result = make_client(provider.base_url).push_artifact(artifact)
        assert result["ingested"] is True
        assert result["digest"] == artifact.digest
        assert (
            provider.application.models_registry
            .get_entry("pushed").models.power.power({}) == 7.0
        )

    def test_conflict_surfaces_never_overwrites(self, provider, local):
        # same (kind, name, version), different content locally
        local.publish_entry(entry("model_0", 99.0))
        report = sync_from(local, make_client(provider.base_url))
        assert "entry:model_0@v1" in report.conflicts
        assert local.get_entry("model_0").models.power.power({}) == 99.0


class TestSyncThroughChaos:
    def _chaos_provider(self, tmp_path, plan):
        application = Application(tmp_path / "chaos", server_name="chaos")
        publish_fleet(application)
        return ChaosServer(tmp_path / "chaos", plan, application=application)

    def test_truncated_bodies_never_ingest_unverified(self, tmp_path, local):
        # every artifact response is reset mid-body once, then served
        # clean on retry: the sync must end complete, and nothing that
        # failed verification may have landed
        plan = FaultPlan(
            script=[None] + ["reset_mid_body", None] * 4,
            exempt_paths=("/api/registry/catalog.json",),
        )
        with self._chaos_provider(tmp_path, plan) as server:
            report = sync_from(local, make_client(server.base_url))
        assert report.complete
        assert len(local.store) == 4
        for index in range(4):
            local.get_entry(f"model_{index}")  # digest-verified reads

    def test_persistent_truncation_is_rejected_not_mirrored(
        self, tmp_path, local
    ):
        plan = FaultPlan(
            rate=1.0, seed=1, kinds=("reset_mid_body",),
            exempt_paths=("/api/registry/catalog.json",),
        )
        with self._chaos_provider(tmp_path, plan) as server:
            report = sync_from(local, make_client(server.base_url, attempts=2))
        assert not report.complete
        assert len(report.integrity_rejected) == 4
        assert len(local.store) == 0  # zero unverified loads

    def test_flapping_provider_still_syncs_fully(self, tmp_path, local):
        plan = FaultPlan(flap_up=2, flap_down=1)
        with self._chaos_provider(tmp_path, plan) as server:
            report = sync_from(local, make_client(server.base_url, attempts=5))
        assert report.complete
        assert len(local.store) == 4
        assert plan.flap_outages > 0  # the flap schedule really fired

    def test_catalog_5xx_is_retried(self, tmp_path):
        # a 500 is plausibly temporary: the retry policy gets a second try
        plan = FaultPlan(script=["error_500", None])
        with self._chaos_provider(tmp_path, plan) as server:
            client = make_client(server.base_url, attempts=3)
            catalog = client.fetch_catalog()
        assert len(catalog) == 4
        assert client.requests_made == 2
        assert plan.injected_log[0][1] == "error_500"

    def test_unreachable_catalog_aborts_cleanly(self, local):
        with pytest.raises((RemoteError, OSError)):
            sync_from(local, make_client("http://127.0.0.1:1", attempts=1))

    def test_integrity_rejections_counted(self, tmp_path, local):
        plan = FaultPlan(
            rate=1.0, seed=1, kinds=("reset_mid_body",),
            exempt_paths=("/api/registry/catalog.json",),
        )
        with self._chaos_provider(tmp_path, plan) as server:
            sync_from(local, make_client(server.base_url, attempts=2))
        counter = obs.get_registry().counter(
            "powerplay_registry_sync_total", "", ("outcome",)
        )
        assert counter.value(outcome="integrity_rejected") > 0
        assert counter.value(outcome="fetched") == 0
