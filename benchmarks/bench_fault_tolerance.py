"""R1 — resolution under chaos: success rate and latency vs fault rate.

The paper's distributed-library claim only matters if a federated
lookup survives a real network: dropped connections, slow peers, 5xx,
truncated payloads.  This bench drives :class:`RegistryResolver` against
a live :class:`ChaosServer` at increasing injected fault rates and
reports, per rate, the resolution success rate, wire traffic, retries,
and stale-cache serves — with a naive (retry-free, cache-free) client
alongside to show what the resilience layer buys.

Deterministic: the fault schedule is seeded and the retry sleeps are
no-ops, so the numbers are reproducible run to run.
"""

import time

import pytest

from conftest import banner

from repro.library.catalog import Library
from repro.registry.resolve import RegistryResolver
from repro.web.faults import ChaosServer, FaultPlan
from repro.web.remote import RemoteLibraryClient
from repro.web.resilience import CircuitBreaker, RetryPolicy

MODELS = ["sram", "multiplier", "register", "ripple_adder", "controller_rom"]
ROUNDS = 4
FAULT_RATES = (0.0, 0.15, 0.30, 0.50)
SEED = 1996


class _Clock:
    """Manual cache clock so every round must revalidate on the wire."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _run_lookups(resolver, clock):
    """ROUNDS passes over MODELS; returns (successes, lookups, wall_s)."""
    successes = 0
    lookups = 0
    start = time.perf_counter()
    for _round in range(ROUNDS):
        for name in MODELS:
            lookups += 1
            try:
                entry = resolver.resolve_strict(name)
                if entry.name == name:
                    successes += 1
            except Exception:
                pass
        clock.now += 61  # expire the 60s TTL between rounds
    return successes, lookups, time.perf_counter() - start


def _resilient_client(base_url, clock):
    return RemoteLibraryClient(
        base_url,
        retry_policy=RetryPolicy(max_attempts=6, sleep=lambda s: None),
        breaker=CircuitBreaker(failure_threshold=100),
        cache_ttl=60.0,
        clock=clock,
    )


def _naive_client(base_url):
    """One attempt, no usable cache — the pre-resilience behaviour on a
    cold lookup (the bench recreates this client every round, so there
    is never a cached copy to fall back on)."""
    return RemoteLibraryClient(
        base_url,
        retry_policy=RetryPolicy(max_attempts=1),
        breaker=CircuitBreaker(failure_threshold=10 ** 6),
    )


def test_fault_tolerance_success_rate(tmp_path):
    banner(
        "R1 — federated resolution under injected faults",
        "shared libraries must stay usable over an unreliable network",
    )
    print(
        f"{'fault rate':>10} {'mode':>10} {'success':>9} {'requests':>9} "
        f"{'retries':>8} {'stale':>6} {'wall':>9}"
    )
    resilient_rates = {}
    naive_rates = {}
    for rate in FAULT_RATES:
        for mode in ("resilient", "naive"):
            plan = FaultPlan(rate=rate, seed=SEED, latency=0.002)
            with ChaosServer(tmp_path / f"{mode}_{rate}", plan) as server:
                clock = _Clock()
                if mode == "resilient":
                    # one long-lived client: retries + TTL'd cache with
                    # stale fallback carry it through the fault storm
                    client = _resilient_client(server.base_url, clock)
                    resolver = RegistryResolver(Library("local"), [client])
                    successes, lookups, wall = _run_lookups(resolver, clock)
                    requests = client.requests_made
                    retries = client.report.retries
                    stale = client.report.stale_serves
                else:
                    # fresh client every round: each lookup is cold, one
                    # attempt, nothing to fall back on (pre-resilience)
                    successes = lookups = requests = retries = stale = 0
                    start = time.perf_counter()
                    for _round in range(ROUNDS):
                        client = _naive_client(server.base_url)
                        resolver = RegistryResolver(Library("local"), [client])
                        for name in MODELS:
                            lookups += 1
                            try:
                                if resolver.resolve_strict(name).name == name:
                                    successes += 1
                            except Exception:
                                pass
                        requests += client.requests_made
                        retries += client.report.retries
                    wall = time.perf_counter() - start
                ratio = successes / lookups
                (resilient_rates if mode == "resilient" else naive_rates)[
                    rate
                ] = ratio
                print(
                    f"{rate:>10.2f} {mode:>10} {100 * ratio:>8.1f}% "
                    f"{requests:>9} {retries:>8} {stale:>6} {wall:>8.3f}s"
                )

    # the acceptance bar: resilience holds 100% through a 30% fault rate
    assert resilient_rates[0.30] == 1.0
    assert all(ratio == 1.0 for ratio in resilient_rates.values())
    # and it is genuinely buying something: the naive client drops
    # lookups as soon as faults appear
    assert naive_rates[0.30] < 1.0
    assert naive_rates[0.50] <= naive_rates[0.30]


def test_fault_tolerance_latency(benchmark, tmp_path):
    """Timed path: 30% faults, resilient client, one full lookup sweep
    per iteration (cache expired every round, so the wire is exercised)."""
    plan = FaultPlan(rate=0.30, seed=SEED, latency=0.002)
    with ChaosServer(tmp_path / "timed", plan) as server:
        clock = _Clock()
        client = _resilient_client(server.base_url, clock)
        resolver = RegistryResolver(Library("local"), [client])

        def sweep():
            for name in MODELS:
                resolver.resolve_strict(name)
            clock.now += 61

        benchmark(sweep)
    assert client.report.count("remote_failed") == 0 or (
        client.report.stale_serves > 0
    )


def test_tripped_circuit_is_fast(benchmark):
    """An open breaker must answer in microseconds, not timeouts: that
    is the point of failing fast on a known-dead host."""
    breaker = CircuitBreaker(failure_threshold=1, cooldown=3600)
    client = RemoteLibraryClient(
        "http://127.0.0.1:1",
        timeout=0.2,
        retry_policy=RetryPolicy(max_attempts=1),
        breaker=breaker,
    )
    resolver = RegistryResolver(Library("local"), [client])
    with pytest.raises(Exception):
        resolver.resolve_strict("sram")  # trips the breaker
    assert breaker.state == "open"

    requests_before = client.requests_made

    def rejected_lookup():
        try:
            resolver.resolve_strict("sram")
        except Exception:
            pass

    benchmark(rejected_lookup)
    assert client.requests_made == requests_before  # never touched the wire
