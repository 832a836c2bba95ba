"""Publish/subscribe synchronization between PowerPlay servers.

The subscribe side pulls a peer's catalog (``GET
/api/registry/catalog.json``), fetches every artifact it is missing
(``GET /api/registry/artifact``), digest-verifies each one *at the
fetch boundary*, and ingests it into the local mirror.  The publish
side pushes one artifact to a peer (``POST /api/registry/publish``).

Both directions ride the existing resilience stack — bounded retries
with deterministic jitter and a per-host circuit breaker
(:mod:`repro.web.resilience`) — and the federation trace headers
(:mod:`repro.obs.propagate`) via :class:`~repro.web.client.Browser`,
so a sync through a flapping provider is retried, breaker-guarded, and
visible as one federated trace.

Integrity is the protocol's backbone: a truncated or corrupted payload
(a connection reset mid-body, a tampering peer) fails digest
verification and is treated as *transport damage* — retried, counted
(``powerplay_registry_sync_total{outcome="integrity_rejected"}``), and
never ingested.  Zero digest-unverified artifacts can enter a mirror
through this module.
"""

from __future__ import annotations

import json
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import (
    ArtifactConflict,
    CircuitOpenError,
    IntegrityError,
    RegistryError,
    RemoteError,
    TransientRemoteError,
)
from ..obs import get_logger, get_registry, span
from ..web.client import Browser
from ..web.resilience import CircuitBreaker, RetryPolicy, guarded_call
from .artifacts import ModelArtifact
from .registry import ModelRegistry

_LOG = get_logger("registry.sync")

#: artifact bodies are model payloads, not bulk data; anything larger
#: than this is either a mistake or an attack on the mirror's disk
MAX_ARTIFACT_BYTES = 512 * 1024


def _metric_sync():
    return get_registry().counter(
        "powerplay_registry_sync_total",
        "Registry sync outcomes (fetched, duplicate, integrity_rejected, "
        "failed, pushed).",
        ("outcome",),
    )


@dataclass
class SyncReport:
    """Per-artifact account of one sync pass: nothing is silent."""

    peer: str = ""
    fetched: List[str] = field(default_factory=list)
    duplicates: List[str] = field(default_factory=list)
    conflicts: Dict[str, str] = field(default_factory=dict)
    integrity_rejected: Dict[str, str] = field(default_factory=dict)
    failed: Dict[str, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.failed and not self.integrity_rejected

    def summary(self) -> Dict[str, int]:
        return {
            "fetched": len(self.fetched),
            "duplicates": len(self.duplicates),
            "conflicts": len(self.conflicts),
            "integrity_rejected": len(self.integrity_rejected),
            "failed": len(self.failed),
        }

    def to_payload(self) -> dict:
        payload = {"peer": self.peer, "complete": self.complete}
        payload.update(
            {
                "fetched": list(self.fetched),
                "duplicates": list(self.duplicates),
                "conflicts": dict(self.conflicts),
                "integrity_rejected": dict(self.integrity_rejected),
                "failed": dict(self.failed),
            }
        )
        return payload


class RegistrySyncClient:
    """Client for a peer server's registry API.

    One breaker and one retry policy per peer, exactly like
    :class:`~repro.web.remote.RemoteLibraryClient` — the two clients
    share a host's failure history shape, not its state, so a dead
    registry peer is skipped fast without poisoning model fetches.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.base_url = base_url.rstrip("/")
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker(
            name=f"registry:{self.base_url}"
        )
        self._browser = Browser(self.base_url, timeout=timeout)
        self.requests_made = 0
        self.clock = clock

    def _guarded(self, fn: Callable[[], object], target: str) -> object:
        """One registry operation through breaker + bounded retries,
        traced as ``registry_attempt`` spans."""
        return guarded_call(
            fn, "registry_attempt", self.base_url, target,
            self.retry_policy, self.breaker,
        )

    # -- protocol ----------------------------------------------------------

    def fetch_catalog(self) -> List[dict]:
        """The peer's artifact descriptors (identity + digest, no payload)."""

        def fetch() -> List[dict]:
            self.requests_made += 1
            payload = self._browser.get_json("/api/registry/catalog.json")
            if (
                not isinstance(payload, dict)
                or payload.get("format") != "powerplay-registry-catalog/1"
                or not isinstance(payload.get("artifacts"), list)
            ):
                raise RemoteError(
                    f"{self.base_url} did not return a registry catalog"
                )
            return payload["artifacts"]

        with span("registry_fetch_catalog", url=self.base_url) as sp:
            catalog = self._guarded(fetch, "catalog")
            sp.set(artifacts=len(catalog))
            return catalog

    def _fetch_artifact_once(
        self, kind: str, name: str, version: int
    ) -> ModelArtifact:
        self.requests_made += 1
        query = urllib.parse.urlencode(
            {"kind": kind, "name": name, "version": version}
        )
        page = self._browser.get(f"/api/registry/artifact?{query}")
        if page.status == 400 or page.status == 404:
            raise RemoteError(
                f"{self.base_url} refused artifact {kind}:{name}@v{version} "
                f"({page.status})"
            )
        if page.status != 200:
            raise TransientRemoteError(
                f"{self.base_url}/api/registry/artifact returned {page.status}"
            )
        if len(page.body) > MAX_ARTIFACT_BYTES:
            raise RemoteError(
                f"artifact {kind}:{name}@v{version} from {self.base_url} "
                f"is {len(page.body)} bytes (limit {MAX_ARTIFACT_BYTES})"
            )
        try:
            # from_json digest-verifies; a truncated or mangled body is
            # transport damage, worth a retry — and NEVER parses into a
            # usable artifact
            return ModelArtifact.from_json(page.body)
        except IntegrityError as exc:
            _metric_sync().inc(outcome="integrity_rejected")
            raise TransientRemoteError(
                f"artifact {kind}:{name}@v{version} from {self.base_url} "
                f"failed digest verification: {exc}"
            ) from exc
        except RegistryError as exc:
            raise RemoteError(
                f"bad artifact payload from {self.base_url}: {exc}"
            ) from exc

    def fetch_artifact(
        self, kind: str, name: str, version: int
    ) -> ModelArtifact:
        """Fetch + digest-verify one artifact (retried through faults)."""
        with span(
            "registry_fetch_artifact",
            url=self.base_url, kind=kind, name=name, version=version,
        ):
            return self._guarded(
                lambda: self._fetch_artifact_once(kind, name, version),
                f"{kind}:{name}@v{version}",
            )

    def push_artifact(self, artifact: ModelArtifact) -> dict:
        """Publish one artifact *to* the peer (the push direction)."""

        def push() -> dict:
            self.requests_made += 1
            page = self._browser.post(
                "/api/registry/publish", {"artifact": artifact.to_json()}
            )
            if page.status >= 500:
                raise TransientRemoteError(
                    f"{self.base_url}/api/registry/publish returned "
                    f"{page.status}"
                )
            if page.status != 200:
                raise RemoteError(
                    f"{self.base_url} refused pushed artifact "
                    f"{artifact.ref} ({page.status})"
                )
            try:
                return json.loads(page.body)
            except json.JSONDecodeError as exc:
                raise TransientRemoteError(
                    f"bad publish response from {self.base_url}: {exc}"
                ) from exc

        with span("registry_push", url=self.base_url, ref=artifact.ref):
            result = self._guarded(push, f"push:{artifact.ref}")
            _metric_sync().inc(outcome="pushed")
            return result


def sync_from(
    registry: ModelRegistry,
    client: RegistrySyncClient,
) -> SyncReport:
    """One subscribe pass: mirror everything the peer has that we lack.

    Best-effort per artifact: one unfetchable artifact is recorded in
    the report and does not abort the rest of the pass (a provider
    flapping mid-sync still yields a maximally-filled mirror).  The
    catalog fetch itself failing aborts — there is nothing to iterate.
    """
    report = SyncReport(peer=client.base_url)
    with span("registry_sync", peer=client.base_url) as sp:
        catalog = client.fetch_catalog()
        for row in catalog:
            try:
                kind = str(row["kind"])
                name = str(row["name"])
                version = int(row["version"])
                digest = str(row.get("digest", ""))
            except (KeyError, TypeError, ValueError):
                report.failed[repr(row)[:80]] = "malformed catalog row"
                _metric_sync().inc(outcome="failed")
                continue
            ref = f"{kind}:{name}@v{version}"
            if (kind, name, version) in registry.store:
                try:
                    resident = registry.store.get(kind, name, version)
                    if resident.digest == digest:
                        report.duplicates.append(ref)
                        _metric_sync().inc(outcome="duplicate")
                        continue
                    # same version, different content upstream: a
                    # conflict to surface, never an overwrite
                    report.conflicts[ref] = (
                        f"mirrored digest {resident.digest[:12]}… != "
                        f"peer digest {digest[:12]}…"
                    )
                    _metric_sync().inc(outcome="conflict")
                    continue
                except IntegrityError:
                    pass  # resident copy was corrupt -> quarantined; refetch
            try:
                artifact = client.fetch_artifact(kind, name, version)
                registry.ingest(artifact)
                report.fetched.append(ref)
                _metric_sync().inc(outcome="fetched")
            except ArtifactConflict as exc:
                report.conflicts[ref] = str(exc)
                _metric_sync().inc(outcome="conflict")
            except (IntegrityError, RegistryError) as exc:
                report.integrity_rejected[ref] = str(exc)
                _metric_sync().inc(outcome="integrity_rejected")
            except CircuitOpenError as exc:
                report.failed[ref] = f"circuit open: {exc}"
                _metric_sync().inc(outcome="failed")
            except RemoteError as exc:
                if isinstance(exc.__cause__, IntegrityError):
                    # retries exhausted on a payload that kept failing
                    # verification: file it as an integrity rejection,
                    # not a generic transport failure
                    report.integrity_rejected[ref] = str(exc)
                else:
                    report.failed[ref] = str(exc)
                    _metric_sync().inc(outcome="failed")
        sp.set(**report.summary())
        _LOG.info("sync", peer=client.base_url, **report.summary())
    return report
