"""Remote model access over HTTP (paper Figures 6 and 7, bottom).

"The key is using secure scripts at Universal Resource Locators to
handle information transfer on demand."  A PowerPlay server exposes its
shared models at well-known JSON endpoints (``/api/library.json``,
``/api/model?name=...``); this module is the consumer side:

* :class:`RemoteLibraryClient` — fetch a whole shared library or a
  single model from another server, tagging every adopted entry with
  its origin URL;
* :func:`federate` — merge several remote libraries into a local one
  ("If a library is characterized and put on the web in Massachusetts,
  it can be used for estimates in California").

On-demand resolution by name (local library, then each remote, then
the registry mirror) is :class:`repro.registry.resolve.RegistryResolver`.

A federation spans the open internet, so every client is wrapped in the
resilience layer (:mod:`repro.web.resilience`): transient failures are
retried with backoff, persistently dead hosts trip a per-host circuit
breaker and are skipped fast, and previously fetched models are served
stale from a TTL cache during an outage.  Every degradation is recorded
in a :class:`~repro.web.resilience.ResolutionReport` — never silent.

Security posture matches the paper's: payloads are *data* (expressions,
coefficients) decoded by the library codecs — nothing executable — and
proprietary entries are never served.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import (
    CircuitOpenError,
    RemoteError,
    TransientRemoteError,
)
from ..library.catalog import Library, LibraryEntry
from ..obs import annotate, span
from .client import Browser
from .resilience import (
    CACHE_HIT,
    CIRCUIT_SKIPPED,
    FETCHED,
    REMOTE_FAILED,
    STALE_SERVED,
    CircuitBreaker,
    ModelCache,
    ResolutionReport,
    RetryPolicy,
    guarded_call,
)


class RemoteLibraryClient:
    """Client for another PowerPlay server's model API.

    Each client owns one :class:`~repro.web.resilience.CircuitBreaker`
    (state is per remote host), one retry policy, and one TTL'd model
    cache.  ``retry_policy=None`` / ``breaker=None`` get sensible
    defaults; ``cache_ttl=None`` caches forever (the pre-resilience
    behaviour); ``clock``/``sleep`` are injectable for tests.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        cache_ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.base_url = base_url.rstrip("/")
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker(name=self.base_url)
        self._browser = Browser(self.base_url, timeout=timeout)
        self._cache: ModelCache[LibraryEntry] = ModelCache(ttl=cache_ttl, clock=clock)
        self.requests_made = 0
        #: degradations observed across this client's lifetime
        self.report = ResolutionReport()

    def _guarded(self, fn: Callable[[], "object"], target: str) -> "object":
        """One remote operation through breaker + retries, traced as
        ``remote_attempt`` spans; retries land in :attr:`report`."""
        return guarded_call(
            fn, "remote_attempt", self.base_url, target,
            self.retry_policy, self.breaker, self.report,
        )

    def ping(self) -> Dict[str, str]:
        """Identify the remote server (protocol handshake)."""

        def fetch() -> Dict[str, str]:
            self.requests_made += 1
            payload = self._browser.get_json("/api/ping")
            if not isinstance(payload, dict) or "protocol" not in payload:
                raise RemoteError(f"{self.base_url} is not a PowerPlay server")
            return payload

        with span("remote_ping", url=self.base_url):
            return self._guarded(fetch, "ping")

    def fetch_library(self) -> Library:
        """Fetch every shared model in one request."""

        def fetch() -> Library:
            self.requests_made += 1
            page = self._browser.get("/api/library.json")
            if page.status >= 500:
                raise TransientRemoteError(
                    f"{self.base_url}/api/library.json returned {page.status}"
                )
            if page.status != 200:
                raise RemoteError(
                    f"{self.base_url}/api/library.json returned {page.status}"
                )
            from ..errors import LibraryError

            try:
                return Library.from_json(page.body, origin=self.base_url)
            except LibraryError as exc:
                # truncated / garbled payloads are usually transport
                # damage, not a hostile peer — worth one more try
                raise TransientRemoteError(
                    f"bad library payload from {self.base_url}: {exc}"
                ) from exc

        with span("remote_fetch_library", url=self.base_url) as sp:
            library = self._guarded(fetch, "library")
            sp.set(entries=len(library))
        for entry in library:
            self._cache.put(entry.name, entry)
        return library

    def _fetch_model_once(self, name: str) -> LibraryEntry:
        import json as _json
        import urllib.parse as _url

        self.requests_made += 1
        page = self._browser.get(f"/api/model?name={_url.quote(name)}")
        if page.status == 400:
            raise RemoteError(
                f"{self.base_url} refused model {name!r} (unknown or proprietary)"
            )
        if page.status >= 500:
            raise TransientRemoteError(
                f"{self.base_url}/api/model returned {page.status}"
            )
        if page.status != 200:
            raise RemoteError(
                f"{self.base_url}/api/model returned {page.status}"
            )
        try:
            payload = _json.loads(page.body)
        except _json.JSONDecodeError as exc:
            raise TransientRemoteError(
                f"bad model payload from {self.base_url}: {exc}"
            ) from exc
        from ..errors import LibraryError

        try:
            return LibraryEntry.from_payload(payload, origin=self.base_url)
        except LibraryError as exc:
            raise RemoteError(
                f"bad model payload from {self.base_url}: {exc}"
            ) from exc

    def fetch_model(self, name: str) -> LibraryEntry:
        """Fetch one model on demand (see :meth:`fetch_model_outcome`)."""
        return self.fetch_model_outcome(name)[0]

    def fetch_model_outcome(self, name: str) -> Tuple[LibraryEntry, str]:
        """Fetch one model on demand; returns ``(entry, outcome)``.

        Resolution order: fresh cache hit -> network (breaker +
        retries) -> stale cache fallback, so ``outcome`` is ``"cache"``,
        ``"live"`` or ``"stale"`` — this call's own, whatever other
        threads fetch through this client meanwhile.  A stale serve or
        a skipped circuit is recorded in :attr:`report`; only when no
        copy exists at all does the failure propagate.  Traced as one
        ``remote_fetch`` span whose children are the attempts, retries,
        breaker waits, and (on success) the provider's grafted handler
        span.
        """
        with span("remote_fetch", url=self.base_url, model=name) as sp:
            cached = self._cache.get_fresh(name)
            if cached is not None:
                self.report.record(CACHE_HIT, self.base_url, name)
                sp.set(outcome="cache_fresh")
                return cached, "cache"
            try:
                entry = self._guarded(lambda: self._fetch_model_once(name), name)
            except CircuitOpenError as exc:
                self.report.record(CIRCUIT_SKIPPED, self.base_url, name, str(exc))
                stale = self._cache.get_stale(name)
                if stale is not None:
                    self.report.record(STALE_SERVED, self.base_url, name)
                    sp.set(outcome="stale_after_circuit")
                    return stale, "stale"
                sp.set(outcome="circuit_open")
                raise
            except TransientRemoteError as exc:
                self.report.record(REMOTE_FAILED, self.base_url, name, str(exc))
                stale = self._cache.get_stale(name)
                if stale is not None:
                    self.report.record(STALE_SERVED, self.base_url, name)
                    sp.set(outcome="stale_after_failure")
                    return stale, "stale"
                sp.set(outcome="failed")
                raise
            self._cache.put(name, entry)
            self.report.record(FETCHED, self.base_url, name)
            sp.set(outcome="fetched")
            return entry, "live"

    def clear_cache(self) -> None:
        self._cache.clear()


@dataclass
class FederationReport:
    """Per-URL outcome of a best-effort federation."""

    succeeded: Dict[str, List[str]] = field(default_factory=dict)
    failed: Dict[str, str] = field(default_factory=dict)
    skipped: Dict[str, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.failed and not self.skipped

    def summary(self) -> str:
        return (
            f"{len(self.succeeded)} succeeded, {len(self.failed)} failed, "
            f"{len(self.skipped)} skipped"
        )


def federate(
    local: Library,
    remote_urls: Sequence[str],
    prefer: str = "mine",
    best_effort: bool = False,
    client_factory: Callable[[str], RemoteLibraryClient] = RemoteLibraryClient,
) -> Union[Dict[str, List[str]], FederationReport]:
    """Merge shared libraries from several servers into ``local``.

    Strict mode (the default) returns ``{url: adopted entry names}``
    and raises :class:`~repro.errors.RemoteError` on the first
    unreachable server — a federation is explicit, so a silently
    missing site cannot skew an estimate.

    ``best_effort=True`` instead returns a :class:`FederationReport`
    accounting for *every* URL: ``succeeded`` (with adopted names),
    ``failed`` (with the error), and ``skipped`` (circuit already
    open — the host was known-dead and not even contacted).  Nothing
    is silent; callers decide whether a partial federation is usable.
    """
    with span(
        "federate", remotes=len(remote_urls), best_effort=best_effort
    ):
        if not best_effort:
            adopted: Dict[str, List[str]] = {}
            for url in remote_urls:
                client = client_factory(url)
                remote_library = client.fetch_library()
                adopted[url] = local.merge(remote_library, prefer=prefer)
            return adopted

        report = FederationReport()
        for url in remote_urls:
            client = client_factory(url)
            try:
                remote_library = client.fetch_library()
            except CircuitOpenError as exc:
                report.skipped[url] = str(exc)
                annotate("federate_skipped", url=url)
                continue
            except RemoteError as exc:
                report.failed[url] = str(exc)
                annotate("federate_failed", url=url, error=type(exc).__name__)
                continue
            report.succeeded[url] = local.merge(remote_library, prefer=prefer)
        return report
