"""Resilience primitives for the distributed-library stack.

The paper's headline claim — "if a library is characterized and put on
the web in Massachusetts, it can be used for estimates in California" —
makes PowerPlay a distributed system, and distributed systems fail in
boring, recoverable ways: dropped connections, slow peers, truncated
payloads, hosts that stay down for an hour.  This module supplies the
three standard defenses, each deterministic and clock-injectable so the
fault-injection tests (:mod:`repro.web.faults`) can exercise them
without wall-clock sleeps:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (no RNG: the jitter is a fixed function of the
  attempt number, so test schedules are reproducible);
* :class:`CircuitBreaker` — the classic closed/open/half-open state
  machine, one per remote host, so a persistently dead peer is skipped
  fast instead of paying a timeout per lookup;
* :class:`ModelCache` — a TTL'd stale-while-revalidate cache: fresh
  entries short-circuit the network, expired entries trigger a refetch,
  and when the refetch fails the stale copy keeps designs evaluable
  through an outage.

:func:`guarded_call` puts the first two together: every client that
talks to a peer (model fetches, registry sync, fleet scrapes) runs each
remote operation through it.

Nothing degrades silently: every retry, stale serve, and skipped host
is recorded as a :class:`ResolutionEvent` in a
:class:`ResolutionReport` — and, since the observability layer
(:mod:`repro.obs`), mirrored into the process-wide metrics registry
(``powerplay_retries_total``, ``powerplay_circuit_state``,
``powerplay_model_cache_total``) and the ``resilience`` structured
logger, so a degrading federation is visible on ``GET /metrics`` and
``GET /status`` while it happens.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, List, Optional, Tuple, TypeVar

from ..errors import CircuitOpenError, TransientRemoteError
from ..obs import annotate, get_logger, get_registry, span

T = TypeVar("T")

_LOG = get_logger("resilience")

#: numeric circuit states for the ``powerplay_circuit_state`` gauge
CIRCUIT_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}


def _metric_retries():
    return get_registry().counter(
        "powerplay_retries_total",
        "Retry attempts issued by RetryPolicy.call.",
    )


def _metric_circuit_state():
    return get_registry().gauge(
        "powerplay_circuit_state",
        "Circuit breaker state (0=closed, 1=half_open, 2=open).",
        ("name",),
    )


def _metric_circuit_transitions():
    return get_registry().counter(
        "powerplay_circuit_transitions_total",
        "Circuit breaker state transitions.",
        ("name", "to"),
    )


def _metric_cache():
    return get_registry().counter(
        "powerplay_model_cache_total",
        "Model cache lookups by outcome (fresh hit, stale serve, miss).",
        ("result",),
    )


def _metric_stale_served():
    return get_registry().counter(
        "powerplay_stale_served_total",
        "Cache entries served past their TTL (outage fallbacks).",
    )


# ---------------------------------------------------------------------------
# retry with deterministic backoff
# ---------------------------------------------------------------------------

class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``delay(attempt)`` for attempt ``n`` (0-based, i.e. the delay slept
    *after* failure ``n``) is::

        min(max_delay, base_delay * multiplier**n) * (1 + jitter * frac(n))

    where ``frac(n)`` is a fixed pseudo-random fraction derived from the
    attempt number (a Weyl sequence on the golden ratio), so two clients
    created with the same policy spread their retries without sharing an
    RNG — and a test re-running the same schedule sees the same delays.

    ``sleep`` is injectable; tests pass a recorder instead of
    :func:`time.sleep` and assert on the exact schedule.
    """

    #: golden-ratio conjugate — the classic low-discrepancy increment
    _WEYL = 0.6180339887498949

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.25,
        sleep: Callable[[float], None] = time.sleep,
        retry_on: Tuple[type, ...] = (TransientRemoteError,),
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self.sleep = sleep
        self.retry_on = tuple(retry_on)
        self.retries_issued = 0

    def delay(self, attempt: int) -> float:
        backoff = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        frac = (self._WEYL * (attempt + 1)) % 1.0
        return backoff * (1.0 + self.jitter * frac)

    def call(
        self,
        fn: Callable[[], T],
        on_retry: Optional[Callable[[int, Exception], None]] = None,
    ) -> T:
        """Run ``fn``, retrying on the configured exception types.

        ``on_retry(attempt, exc)`` is invoked before each sleep so
        callers (e.g. :func:`guarded_call`) can record the
        degradation.  Non-retryable exceptions — including
        :class:`~repro.errors.CircuitOpenError`, which must never cause
        another call into a tripped host — propagate immediately.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except self.retry_on as exc:
                if isinstance(exc, CircuitOpenError):
                    raise  # an open circuit is a *skip*, never a retry
                if attempt + 1 >= self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                self.retries_issued += 1
                _metric_retries().inc()
                _LOG.warning(
                    "retry",
                    attempt=attempt + 1,
                    max_attempts=self.max_attempts,
                    delay_s=self.delay(attempt),
                    error=str(exc),
                )
                self.sleep(self.delay(attempt))
                attempt += 1


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-host closed/open/half-open breaker.

    * **closed** — calls flow; ``failure_threshold`` *consecutive*
      failures trip the breaker.
    * **open** — calls raise :class:`~repro.errors.CircuitOpenError`
      immediately (no network, no timeout) until ``cooldown`` seconds
      elapse on the injectable ``clock``.
    * **half-open** — after the cooldown exactly one probe call is let
      through; success closes the breaker, failure re-opens it for
      another cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "remote",
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock
        self.name = name
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.times_tripped = 0
        self.calls_rejected = 0
        _metric_circuit_state().set(CIRCUIT_STATE_CODES[CLOSED], name=name)

    def _note_transition(self, to_state: str) -> None:
        """Publish a state change to metrics and the structured log."""
        _metric_circuit_state().set(
            CIRCUIT_STATE_CODES[to_state], name=self.name
        )
        _metric_circuit_transitions().inc(name=self.name, to=to_state)
        log = _LOG.warning if to_state == OPEN else _LOG.info
        log(
            "circuit_transition",
            name=self.name,
            to=to_state,
            consecutive_failures=self._consecutive_failures,
        )

    @property
    def state(self) -> str:
        if self._state == OPEN and self._remaining() <= 0:
            return HALF_OPEN
        return self._state

    def _remaining(self) -> float:
        return self.cooldown - (self.clock() - self._opened_at)

    def allow(self) -> bool:
        """Would a call be let through right now?"""
        return self.state != OPEN

    def record_success(self) -> None:
        was = self._state
        self._state = CLOSED
        self._consecutive_failures = 0
        if was != CLOSED:
            self._note_transition(CLOSED)

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if (
            self._state != CLOSED
            or self._consecutive_failures >= self.failure_threshold
        ):
            # a failed half-open probe, or the threshold reached:
            # (re)open for a full cooldown
            if self._state != OPEN:
                self.times_tripped += 1
            self._state = OPEN
            self._opened_at = self.clock()
            self._note_transition(OPEN)

    def call(
        self,
        fn: Callable[[], T],
        failure_types: Tuple[type, ...] = (Exception,),
    ) -> T:
        """Run ``fn`` through the breaker.

        Raises :class:`~repro.errors.CircuitOpenError` without invoking
        ``fn`` while open; otherwise records the outcome.  Exceptions
        outside ``failure_types`` count as *successes* for breaker
        purposes — e.g. a clean HTTP 400 refusal proves the host is
        alive even though the lookup failed.
        """
        state = self.state
        if state == OPEN:
            self.calls_rejected += 1
            raise CircuitOpenError(
                f"circuit for {self.name} is open "
                f"(retry in {max(0.0, self._remaining()):.1f}s)",
                retry_after=max(0.0, self._remaining()),
            )
        if state == HALF_OPEN and self._state != HALF_OPEN:
            self._state = HALF_OPEN  # commit the probe
            self._note_transition(HALF_OPEN)
        try:
            result = fn()
        except failure_types:
            self.record_failure()
            raise
        except Exception:
            self.record_success()
            raise
        self.record_success()
        return result


# ---------------------------------------------------------------------------
# the guarded remote call
# ---------------------------------------------------------------------------

def guarded_call(
    fn: Callable[[], T],
    attempt_span: str,
    url: str,
    target: str,
    retry_policy: RetryPolicy,
    breaker: CircuitBreaker,
    report: Optional["ResolutionReport"] = None,
) -> T:
    """Run one remote operation: each attempt through ``breaker``,
    inside ``retry_policy``'s bounded retries.

    The breaker is *inside* the retry loop so each attempt checks (and
    feeds) it; once it trips, :class:`~repro.errors.CircuitOpenError`
    aborts immediately — zero retries are ever issued to an open
    circuit.  Transport failures (``TransientRemoteError``, ``OSError``)
    feed the breaker; any other outcome proves the host alive.

    Traced: every attempt opens its own ``attempt_span`` span (``url``,
    ``target``, ``attempt``), so a provider's grafted sub-span lands
    under the attempt that succeeded; each retry decision is an instant
    ``retry`` annotation carrying the backoff delay, and a call rejected
    by an open circuit annotates ``circuit_wait``.  Each retry is also
    recorded in ``report``, when one is given.
    """
    attempt_index = 0

    def attempt() -> T:
        with span(attempt_span, url=url, target=target, attempt=attempt_index):
            try:
                return breaker.call(
                    fn, failure_types=(TransientRemoteError, OSError)
                )
            except CircuitOpenError as exc:
                annotate(
                    "circuit_wait",
                    url=url,
                    retry_after_s=round(exc.retry_after, 3),
                )
                raise

    def on_retry(index: int, exc: Exception) -> None:
        nonlocal attempt_index
        if report is not None:
            report.record(RETRY, url, target, f"attempt {index + 1}: {exc}")
        annotate(
            "retry",
            url=url,
            attempt=index + 1,
            delay_s=round(retry_policy.delay(index), 4),
            error=type(exc).__name__,
        )
        attempt_index = index + 1

    return retry_policy.call(attempt, on_retry=on_retry)


# ---------------------------------------------------------------------------
# TTL'd stale-while-revalidate cache
# ---------------------------------------------------------------------------

@dataclass
class _CacheSlot(Generic[T]):
    value: T
    stored_at: float


class ModelCache(Generic[T]):
    """A TTL cache whose expired entries remain servable as *stale*.

    ``lookup`` distinguishes three outcomes: a **fresh** hit (within
    TTL — skip the network), a **stale** hit (past TTL — revalidate,
    but keep the copy as a fallback), and a miss.  ``ttl=None`` means
    entries never go stale (the pre-resilience behaviour: cache
    forever).

    ``max_stale_age`` caps how far past its TTL an entry may still be
    served as a stale fallback: beyond it the entry is evicted and the
    lookup is a miss.  The bound is the difference between "yesterday's
    coefficients during an hour's outage" (fine) and "last year's
    during a forgotten one" (silently wrong estimates).  ``None`` (the
    default) keeps the old serve-forever fallback.  Every stale serve
    increments ``powerplay_stale_served_total``.
    """

    def __init__(
        self,
        ttl: Optional[float] = 300.0,
        clock: Callable[[], float] = time.monotonic,
        max_stale_age: Optional[float] = None,
    ):
        if (
            max_stale_age is not None
            and ttl is not None
            and max_stale_age < ttl
        ):
            raise ValueError(
                f"max_stale_age ({max_stale_age}) must be >= ttl ({ttl}): "
                "an entry cannot expire from staleness before it is stale"
            )
        self.ttl = ttl
        self.max_stale_age = max_stale_age
        self.clock = clock
        self._slots: Dict[str, _CacheSlot[T]] = {}
        self.fresh_hits = 0
        self.stale_serves = 0
        self.stale_expired = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: object) -> bool:
        return key in self._slots

    def put(self, key: str, value: T) -> None:
        self._slots[key] = _CacheSlot(value, self.clock())

    def lookup(self, key: str) -> Tuple[Optional[T], bool]:
        """Return ``(value, fresh)``; ``(None, False)`` on a miss."""
        slot = self._slots.get(key)
        if slot is None:
            return None, False
        if self.ttl is not None and self.clock() - slot.stored_at > self.ttl:
            return slot.value, False
        return slot.value, True

    def get_fresh(self, key: str) -> Optional[T]:
        value, fresh = self.lookup(key)
        if fresh:
            self.fresh_hits += 1
            _metric_cache().inc(result="fresh")
            return value
        _metric_cache().inc(result="miss")
        return None

    def get_stale(self, key: str) -> Optional[T]:
        """The stale fallback — counts as a degradation."""
        slot = self._slots.get(key)
        if slot is None:
            return None
        age = self.clock() - slot.stored_at
        if self.max_stale_age is not None and age > self.max_stale_age:
            # too old to trust even as an outage fallback: evict, miss
            del self._slots[key]
            self.stale_expired += 1
            _metric_cache().inc(result="stale_expired")
            _LOG.warning(
                "stale_expired", key=key, age_s=round(age, 3),
                max_stale_age_s=self.max_stale_age,
            )
            return None
        self.stale_serves += 1
        _metric_cache().inc(result="stale")
        _metric_stale_served().inc()
        _LOG.info("stale_serve", key=key)
        return slot.value

    def clear(self) -> None:
        self._slots.clear()


# ---------------------------------------------------------------------------
# structured degradation reporting
# ---------------------------------------------------------------------------

#: event kinds a report can carry
RETRY = "retry"
STALE_SERVED = "stale_served"
CIRCUIT_SKIPPED = "circuit_skipped"
REMOTE_FAILED = "remote_failed"
FETCHED = "fetched"
CACHE_HIT = "cache_hit"


@dataclass
class ResolutionEvent:
    """One observable fact about how a lookup was satisfied (or not)."""

    kind: str
    target: str          # host URL or library name
    name: str = ""       # the model being resolved
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - formatting only
        parts = [self.kind, self.target]
        if self.name:
            parts.append(self.name)
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


@dataclass
class ResolutionReport:
    """Structured account of a client's lookups: nothing degrades
    silently.

    A :class:`~repro.web.remote.RemoteLibraryClient` keeps one for its
    lifetime, so callers can audit a whole evaluation session.
    """

    events: List[ResolutionEvent] = field(default_factory=list)

    def record(self, kind: str, target: str, name: str = "", detail: str = "") -> None:
        self.events.append(ResolutionEvent(kind, target, name, detail))

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)

    @property
    def retries(self) -> int:
        return self.count(RETRY)

    @property
    def stale_serves(self) -> int:
        return self.count(STALE_SERVED)

    @property
    def circuit_skips(self) -> int:
        return self.count(CIRCUIT_SKIPPED)

    @property
    def degraded(self) -> bool:
        """True when anything short of a clean fetch happened."""
        clean = {FETCHED, CACHE_HIT}
        return any(event.kind not in clean for event in self.events)

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
