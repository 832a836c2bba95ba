"""Unit tests for the resilience primitives (retry, breaker, cache).

Everything here is deterministic: clocks and sleeps are injected, and
the retry jitter is a fixed function of the attempt number — the same
schedule on every run, on every machine.
"""

import pytest

from repro.errors import CircuitOpenError, RemoteError, TransientRemoteError
from repro.web.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ModelCache,
    ResolutionReport,
    RetryPolicy,
)


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Flaky:
    """Fails ``failures`` times, then succeeds forever."""

    def __init__(self, failures: int, exc: type = TransientRemoteError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"boom #{self.calls}")
        return "ok"


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, sleep=slept.append)
        flaky = Flaky(2)
        assert policy.call(flaky) == "ok"
        assert flaky.calls == 3
        assert len(slept) == 2
        assert policy.retries_issued == 2

    def test_gives_up_after_max_attempts(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, sleep=slept.append)
        flaky = Flaky(99)
        with pytest.raises(TransientRemoteError, match="boom #3"):
            policy.call(flaky)
        assert flaky.calls == 3
        assert len(slept) == 2  # no sleep after the final failure

    def test_permanent_errors_are_not_retried(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda s: None)
        flaky = Flaky(99, exc=RemoteError)
        with pytest.raises(RemoteError, match="boom #1"):
            policy.call(flaky)
        assert flaky.calls == 1

    def test_open_circuit_is_never_retried(self):
        """CircuitOpenError subclasses RemoteError/TransientRemoteError's
        family but must abort the retry loop immediately."""
        policy = RetryPolicy(
            max_attempts=5, sleep=lambda s: None,
            retry_on=(RemoteError,),  # would catch CircuitOpenError
        )
        flaky = Flaky(99, exc=CircuitOpenError)
        with pytest.raises(CircuitOpenError):
            policy.call(flaky)
        assert flaky.calls == 1
        assert policy.retries_issued == 0

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0,
        )
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(3) == pytest.approx(0.5)  # capped
        assert policy.delay(10) == pytest.approx(0.5)

    def test_jitter_is_deterministic(self):
        a = RetryPolicy(jitter=0.25)
        b = RetryPolicy(jitter=0.25)
        schedule_a = [a.delay(n) for n in range(6)]
        schedule_b = [b.delay(n) for n in range(6)]
        assert schedule_a == schedule_b  # no RNG anywhere
        # and the jitter actually varies between attempts
        ratios = [
            schedule_a[n] / RetryPolicy(jitter=0.0).delay(n) for n in range(6)
        ]
        assert len(set(round(r, 9) for r in ratios)) > 1

    def test_on_retry_callback_sees_each_failure(self):
        seen = []
        policy = RetryPolicy(max_attempts=3, sleep=lambda s: None)
        policy.call(Flaky(2), on_retry=lambda n, exc: seen.append((n, str(exc))))
        assert [n for n, _ in seen] == [0, 1]
        assert "boom #1" in seen[0][1]

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=30, clock=clock)
        flaky = Flaky(99)
        for _ in range(3):
            with pytest.raises(TransientRemoteError):
                breaker.call(flaky)
        assert breaker.state == OPEN
        assert breaker.times_tripped == 1

    def test_open_circuit_rejects_without_calling(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=30, clock=clock)
        flaky = Flaky(99)
        with pytest.raises(TransientRemoteError):
            breaker.call(flaky)
        calls_before = flaky.calls
        with pytest.raises(CircuitOpenError) as info:
            breaker.call(flaky)
        assert flaky.calls == calls_before  # zero calls to a tripped circuit
        assert breaker.calls_rejected == 1
        assert info.value.retry_after == pytest.approx(30.0)

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=30, clock=clock)
        for _ in range(2):
            with pytest.raises(TransientRemoteError):
                breaker.call(Flaky(99))
        breaker.call(lambda: "ok")
        for _ in range(2):
            with pytest.raises(TransientRemoteError):
                breaker.call(Flaky(99))
        assert breaker.state == CLOSED  # streak restarted after success

    def test_half_open_probe_after_cooldown_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=30, clock=clock)
        with pytest.raises(TransientRemoteError):
            breaker.call(Flaky(99))
        assert breaker.state == OPEN
        clock.advance(31)
        assert breaker.state == HALF_OPEN
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=30, clock=clock)
        with pytest.raises(TransientRemoteError):
            breaker.call(Flaky(99))
        clock.advance(31)
        with pytest.raises(TransientRemoteError):
            breaker.call(Flaky(99))  # the probe fails
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "ok")  # full cooldown again
        clock.advance(31)
        assert breaker.call(lambda: "ok") == "ok"

    def test_non_failure_exceptions_count_as_alive(self):
        """A clean 400 refusal proves the host is up — it must not trip
        the breaker."""
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=30, clock=clock)

        def refused():
            raise RemoteError("400 refused")

        for _ in range(5):
            with pytest.raises(RemoteError):
                breaker.call(refused, failure_types=(TransientRemoteError,))
        assert breaker.state == CLOSED

    def test_rejects_zero_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestModelCache:
    def test_fresh_within_ttl(self):
        clock = FakeClock()
        cache = ModelCache(ttl=10.0, clock=clock)
        cache.put("sram", "entry")
        clock.advance(9)
        assert cache.get_fresh("sram") == "entry"
        assert cache.fresh_hits == 1

    def test_stale_after_ttl_but_still_servable(self):
        clock = FakeClock()
        cache = ModelCache(ttl=10.0, clock=clock)
        cache.put("sram", "entry")
        clock.advance(11)
        assert cache.get_fresh("sram") is None
        value, fresh = cache.lookup("sram")
        assert value == "entry" and not fresh
        assert cache.get_stale("sram") == "entry"
        assert cache.stale_serves == 1

    def test_refresh_restores_freshness(self):
        clock = FakeClock()
        cache = ModelCache(ttl=10.0, clock=clock)
        cache.put("sram", "v1")
        clock.advance(11)
        cache.put("sram", "v2")
        assert cache.get_fresh("sram") == "v2"

    def test_none_ttl_caches_forever(self):
        clock = FakeClock()
        cache = ModelCache(ttl=None, clock=clock)
        cache.put("sram", "entry")
        clock.advance(1e9)
        assert cache.get_fresh("sram") == "entry"

    def test_miss_and_clear(self):
        cache = ModelCache(ttl=10.0, clock=FakeClock())
        assert cache.lookup("ghost") == (None, False)
        assert cache.get_stale("ghost") is None
        cache.put("a", 1)
        assert "a" in cache and len(cache) == 1
        cache.clear()
        assert "a" not in cache


class TestResolutionReport:
    def test_records_and_counts(self):
        report = ResolutionReport()
        report.record("retry", "http://mit", "sram", "attempt 1")
        report.record("retry", "http://mit", "sram", "attempt 2")
        report.record("stale_served", "http://mit", "sram")
        report.record("fetched", "http://berkeley", "mult")
        assert report.retries == 2
        assert report.stale_serves == 1
        assert report.circuit_skips == 0
        assert report.summary() == {
            "retry": 2, "stale_served": 1, "fetched": 1,
        }

    def test_degraded_flag(self):
        clean = ResolutionReport()
        clean.record("fetched", "http://mit", "mult")
        clean.record("cache_hit", "http://mit", "mult")
        assert not clean.degraded
        clean.record("retry", "http://mit", "mult")
        assert clean.degraded
