"""Fault injection end-to-end: the resilience layer under deterministic
chaos.

These tests encode the PR's acceptance criteria directly:

* under a 30% injected transient-failure rate, every cacheable lookup
  through :class:`~repro.registry.resolve.RegistryResolver` still
  succeeds;
* once a circuit trips, zero further requests (and zero retries) are
  issued to the dead host;
* previously fetched models stay servable (stale) through an outage.
"""

import json

import pytest

from repro.errors import (
    CircuitOpenError,
    FaultInjected,
    RegistryError,
    RemoteError,
    TransientRemoteError,
)
from repro.library.catalog import Library
from repro.registry.resolve import RegistryResolver
from repro.web.app import Application
from repro.web.client import Browser
from repro.web.faults import FAULT_KINDS, ChaosServer, FaultPlan, FaultyApplication
from repro.web.remote import RemoteLibraryClient, federate
from repro.web.resilience import CircuitBreaker, RetryPolicy
from repro.web.server import PowerPlayServer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def fast_retry(attempts=5):
    """A retry policy whose sleeps are instant (recorded, not slept)."""
    return RetryPolicy(max_attempts=attempts, sleep=lambda s: None)


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        plan_a = FaultPlan(rate=0.4, seed=11)
        plan_b = FaultPlan(rate=0.4, seed=11)
        decisions_a = [plan_a.next_fault() for _ in range(50)]
        decisions_b = [plan_b.next_fault() for _ in range(50)]
        assert decisions_a == decisions_b
        assert any(kind is not None for kind in decisions_a)
        assert any(kind is None for kind in decisions_a)

    def test_script_mode_is_explicit(self):
        plan = FaultPlan(script=[None, "refuse", None, "error_500"])
        assert [plan.next_fault() for _ in range(5)] == [
            None, "refuse", None, "error_500", None,
        ]
        assert plan.faults_injected == 2

    def test_max_faults_caps_the_damage(self):
        plan = FaultPlan(rate=1.0, seed=3, max_faults=4)
        decisions = [plan.next_fault() for _ in range(20)]
        assert sum(1 for kind in decisions if kind) == 4
        assert all(kind is None for kind in decisions[10:])

    def test_exempt_paths_stay_clean(self):
        plan = FaultPlan(rate=1.0, seed=0, exempt_paths=("/api/ping",))
        assert plan.next_fault("/api/ping?x=1") is None
        assert plan.next_fault("/api/model") is not None

    def test_reset_rewinds_the_schedule(self):
        plan = FaultPlan(rate=0.5, seed=9)
        first = [plan.next_fault() for _ in range(30)]
        plan.reset()
        again = [plan.next_fault() for _ in range(30)]
        assert first == again

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultPlan(kinds=("meteor_strike",))
        with pytest.raises(ValueError, match="unknown scripted"):
            FaultPlan(script=["meteor_strike"])


class TestFaultyApplication:
    @pytest.fixture
    def app(self, tmp_path):
        application = Application(tmp_path / "state")
        application.handle("POST", "/login", {"user": "chaos"})
        return application

    def test_no_faults_is_transparent(self, app):
        wrapped = FaultyApplication(app, FaultPlan())
        response = wrapped.handle("GET", "/api/ping")
        assert response.status == 200
        assert json.loads(response.body)["protocol"] == "powerplay/1"
        # non-handle attributes delegate to the real application
        assert wrapped.users is app.users

    def test_refuse_and_disconnect_raise(self, app):
        wrapped = FaultyApplication(app, FaultPlan(script=["refuse", "disconnect"]))
        with pytest.raises(FaultInjected, match="refuse"):
            wrapped.handle("GET", "/api/ping")
        with pytest.raises(FaultInjected, match="disconnect"):
            wrapped.handle("GET", "/api/ping")

    def test_error_500(self, app):
        wrapped = FaultyApplication(app, FaultPlan(script=["error_500"]))
        assert wrapped.handle("GET", "/api/ping").status == 500

    def test_malformed_json(self, app):
        wrapped = FaultyApplication(app, FaultPlan(script=["malformed_json"]))
        body = wrapped.handle("GET", "/api/library.json").body
        with pytest.raises(json.JSONDecodeError):
            json.loads(body)

    def test_truncate_halves_the_body(self, app):
        clean = app.handle("GET", "/api/library.json")
        wrapped = FaultyApplication(app, FaultPlan(script=["truncate"]))
        cut = wrapped.handle("GET", "/api/library.json")
        assert cut.status == 200
        assert len(cut.body) < len(clean.body)
        assert clean.body.startswith(cut.body)

    def test_latency_uses_injected_sleep(self, app):
        slept = []
        wrapped = FaultyApplication(
            app, FaultPlan(script=["latency"], latency=0.25), sleep=slept.append
        )
        assert wrapped.handle("GET", "/api/ping").status == 200
        assert slept == [0.25]


@pytest.fixture
def chaos(tmp_path_factory):
    """A chaos server factory; servers are torn down per test."""
    servers = []

    def start(plan: FaultPlan) -> ChaosServer:
        state = tmp_path_factory.mktemp("chaos_state")
        server = ChaosServer(state, plan).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


class TestChaosServerWire:
    """Each fault kind as seen from a real client socket."""

    def test_refuse_surfaces_as_transient(self, chaos):
        server = chaos(FaultPlan(script=["refuse"]))
        browser = Browser(server.base_url, timeout=5.0)
        with pytest.raises(TransientRemoteError):
            browser.get("/api/ping")
        assert browser.get("/api/ping").status == 200  # next one is clean

    def test_disconnect_mid_body_surfaces_as_transient(self, chaos):
        server = chaos(FaultPlan(script=["disconnect"]))
        browser = Browser(server.base_url, timeout=5.0)
        with pytest.raises(TransientRemoteError):
            browser.get("/api/library.json")

    def test_error_500_and_truncate_yield_transient_remote_errors(self, chaos):
        server = chaos(FaultPlan(script=["error_500", "truncate"]))
        client = RemoteLibraryClient(
            server.base_url, retry_policy=RetryPolicy(max_attempts=1)
        )
        with pytest.raises(TransientRemoteError, match="500"):
            client.fetch_model("sram")
        with pytest.raises(TransientRemoteError, match="bad model payload"):
            client.fetch_model("sram")

    def test_latency_spike_still_succeeds(self, chaos):
        server = chaos(FaultPlan(script=["latency"], latency=0.05))
        browser = Browser(server.base_url, timeout=5.0)
        assert browser.get("/api/ping").status == 200


class TestResilienceUnderChaos:
    MODELS = ["sram", "multiplier", "register", "ripple_adder", "controller_rom"]

    def test_acceptance_100_percent_success_at_30_percent_faults(self, chaos):
        """The headline criterion: 30% transient-failure rate, every
        cacheable lookup resolves.  Deterministic via the plan seed.

        The cache TTL is driven by a fake clock that expires between
        rounds, so every round actually revalidates over the faulty
        wire — retries (and, if a round's retries are exhausted, the
        stale fallback) are what keep the success rate at 100%.
        """
        clock = FakeClock()
        server = chaos(FaultPlan(rate=0.30, seed=1996, latency=0.005))
        client = RemoteLibraryClient(
            server.base_url,
            retry_policy=fast_retry(attempts=6),
            breaker=CircuitBreaker(failure_threshold=100),
            cache_ttl=60.0,
            clock=clock,
        )
        resolver = RegistryResolver(Library("local"), [client])

        resolved = 0
        lookups = 0
        for _round in range(4):
            for name in self.MODELS:
                lookups += 1
                entry = resolver.resolve_strict(name)
                assert entry.name == name
                resolved += 1
            clock.advance(61)  # expire the cache: next round re-fetches
        assert resolved == lookups == 20  # 100% success
        # every round went to the wire (no free rides from a fresh cache)
        assert client.requests_made >= 20
        # the fault plan really did bite, and nothing was silent
        assert server.plan.faults_injected > 0
        assert client.report.retries > 0

    def test_acceptance_zero_requests_to_a_tripped_circuit(self):
        policy = fast_retry(attempts=3)
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1000)
        client = RemoteLibraryClient(
            "http://127.0.0.1:1",  # nothing listens here
            timeout=0.25,
            retry_policy=policy,
            breaker=breaker,
        )
        resolver = RegistryResolver(Library("local"), [client])
        with pytest.raises(RegistryError):
            resolver.resolve_strict("sram")
        # the breaker tripped after 2 connection failures, mid-retry
        assert breaker.state == "open"
        requests_at_trip = client.requests_made
        retries_at_trip = policy.retries_issued
        assert requests_at_trip == 2

        for _ in range(10):
            with pytest.raises(RegistryError):
                resolver.resolve_strict("multiplier")
        # zero wire requests and zero retries since the trip
        assert client.requests_made == requests_at_trip
        assert policy.retries_issued == retries_at_trip
        # 1 skip from the resolve that tripped it + 10 fast rejections
        assert client.report.circuit_skips == 11

    # a full outage: every kind here actually fails the request
    # ("latency" would merely slow it down and then succeed)
    OUTAGE_KINDS = ("refuse", "error_500", "malformed_json", "truncate", "disconnect")

    def test_stale_while_revalidate_keeps_designs_evaluable(self, chaos):
        clock = FakeClock()
        server = chaos(
            FaultPlan(script=[None], rate=1.0, seed=5, kinds=self.OUTAGE_KINDS)
        )
        client = RemoteLibraryClient(
            server.base_url,
            retry_policy=fast_retry(attempts=2),
            breaker=CircuitBreaker(failure_threshold=100),
            cache_ttl=60.0,
            clock=clock,
        )
        entry = client.fetch_model("sram")  # scripted: first request clean
        assert entry.name == "sram"

        clock.advance(61)  # TTL expired -> revalidation required
        again = client.fetch_model("sram")  # every wire attempt now faulted
        assert again.name == "sram"
        assert client.report.stale_serves == 1
        assert client.report.count("remote_failed") == 1  # not silent

        # the entry stays stale (a failed revalidation does not fake
        # freshness) — but it keeps the design evaluable, every time
        third = client.fetch_model("sram")
        assert third.name == "sram"
        assert client.report.stale_serves == 2
        assert client.report.count("remote_failed") == 2

    def test_stale_serves_on_open_circuit_too(self, chaos):
        clock = FakeClock()
        server = chaos(
            FaultPlan(script=[None], rate=1.0, seed=5, kinds=self.OUTAGE_KINDS)
        )
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1000)
        client = RemoteLibraryClient(
            server.base_url,
            retry_policy=RetryPolicy(max_attempts=1),
            breaker=breaker,
            cache_ttl=60.0,
            clock=clock,
        )
        client.fetch_model("sram")
        clock.advance(61)
        with pytest.raises(RemoteError):
            client.fetch_model("multiplier")  # trips the breaker
        assert breaker.state == "open"
        requests = client.requests_made
        entry = client.fetch_model("sram")  # circuit open -> stale copy
        assert entry.name == "sram"
        assert client.requests_made == requests  # no wire traffic
        assert client.report.circuit_skips >= 1
        assert client.report.stale_serves == 1


class TestBestEffortFederation:
    def test_strict_mode_unchanged(self, tmp_path):
        with pytest.raises(RemoteError):
            federate(Library("x"), ["http://127.0.0.1:1"])

    def test_best_effort_reports_per_url(self, tmp_path):
        good = PowerPlayServer(tmp_path / "good", server_name="good").start()
        try:
            dead_url = "http://127.0.0.1:1"
            tripped_url = "http://127.0.0.1:2"
            tripped_breaker = CircuitBreaker(failure_threshold=1, cooldown=1000)
            tripped_breaker.record_failure()  # known-dead before we start

            def factory(url):
                if url == tripped_url:
                    return RemoteLibraryClient(url, breaker=tripped_breaker)
                return RemoteLibraryClient(
                    url, timeout=0.25, retry_policy=RetryPolicy(max_attempts=1)
                )

            local = Library("california")
            report = federate(
                local,
                [good.base_url, dead_url, tripped_url],
                best_effort=True,
                client_factory=factory,
            )
            assert not report.complete
            assert "sram" in local
            assert list(report.succeeded) == [good.base_url]
            assert len(report.succeeded[good.base_url]) == len(local)
            assert list(report.failed) == [dead_url]
            assert list(report.skipped) == [tripped_url]
            assert "open" in report.skipped[tripped_url]
            assert "1 succeeded, 1 failed, 1 skipped" == report.summary()
        finally:
            good.stop()

    def test_best_effort_all_good_is_complete(self, tmp_path):
        with PowerPlayServer(tmp_path / "srv") as server:
            report = federate(
                Library("local"), [server.base_url], best_effort=True
            )
            assert report.complete
            assert report.succeeded[server.base_url]


class TestAllFaultKindsCovered:
    def test_harness_knows_every_documented_kind(self):
        assert set(FAULT_KINDS) == {
            "refuse", "latency", "error_500", "malformed_json",
            "truncate", "disconnect", "reset_mid_body", "flap",
        }
