"""The graceful-degradation resolution chain.

``local library -> live fetch -> stale cache -> mirrored artifact``, in
that order, with every step's outcome recorded.  The chain's contract
is the registry's whole point: **a provider outage yields a degraded
resolution, not a failed one** — and a failed one yields an explicit
:class:`DegradedResolution` report (surfaced on ``/status``, ``/healthz``
and in metrics), never a bare exception swallowed somewhere upstream.

Outcome vocabulary (also the ``powerplay_registry_resolutions_total``
metric label):

==========  ===========================================================
``local``   the local library had it — no network, no degradation
``live``    fetched fresh from a remote (or its fresh TTL cache)
``stale``   a remote was down; its stale cached copy was served
``mirror``  every remote failed; the mirrored artifact was served
``failed``  nothing anywhere — the report says exactly what was tried
==========  ===========================================================
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import IntegrityError, RegistryError, RemoteError
from ..library.catalog import Library, LibraryEntry
from ..obs import get_logger, get_registry, span
from ..web.remote import RemoteLibraryClient
from .registry import ModelRegistry

_LOG = get_logger("registry.resolve")

#: the degraded/failed outcomes, for quick health checks
DEGRADED_OUTCOMES = frozenset({"stale", "mirror"})


def _metric_resolutions():
    return get_registry().counter(
        "powerplay_registry_resolutions_total",
        "Model resolutions through the registry chain, by outcome "
        "(local, live, stale, mirror, failed).",
        ("outcome",),
    )


@dataclass
class DegradedResolution:
    """The explicit account of one resolution through the chain.

    ``outcome`` is the step that finally served (or ``failed``);
    ``steps`` lists every step tried, in order, with its result — so an
    operator reading ``/status`` sees *why* a model came from a mirror,
    not just that it did.
    """

    name: str
    outcome: str = "failed"
    steps: List[Dict[str, str]] = field(default_factory=list)
    served_from: str = ""

    def record(self, step: str, target: str, result: str, detail: str = "") -> None:
        entry = {"step": step, "target": target, "result": result}
        if detail:
            entry["detail"] = detail
        self.steps.append(entry)

    @property
    def degraded(self) -> bool:
        return self.outcome in DEGRADED_OUTCOMES

    @property
    def failed(self) -> bool:
        return self.outcome == "failed"

    def summary(self) -> str:
        where = f" from {self.served_from}" if self.served_from else ""
        return f"{self.name}: {self.outcome}{where} ({len(self.steps)} step(s))"

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "outcome": self.outcome,
            "served_from": self.served_from,
            "degraded": self.degraded,
            "steps": list(self.steps),
        }


class RegistryResolver:
    """Name -> entry resolution across local, remote, and mirror.

    Thread-safe bookkeeping: the web app resolves from request threads.
    ``history`` bounds the retained reports; :meth:`recent` feeds the
    ``/status`` page and :meth:`health_counts` feeds ``/healthz``.
    """

    def __init__(
        self,
        local: Library,
        remotes: Sequence[RemoteLibraryClient] = (),
        registry: Optional[ModelRegistry] = None,
        history: int = 64,
    ):
        self.local = local
        self.remotes = list(remotes)
        self.registry = registry
        self._lock = threading.Lock()
        self._recent: Deque[DegradedResolution] = deque(maxlen=max(1, history))

    # -- bookkeeping -------------------------------------------------------

    def _finish(
        self, report: DegradedResolution, outcome: str, served_from: str = ""
    ) -> DegradedResolution:
        report.outcome = outcome
        report.served_from = served_from
        _metric_resolutions().inc(outcome=outcome)
        with self._lock:
            self._recent.append(report)
        if outcome in DEGRADED_OUTCOMES:
            _LOG.warning("degraded_resolution", name=report.name,
                         outcome=outcome, served_from=served_from)
        elif outcome == "failed":
            _LOG.error("failed_resolution", name=report.name,
                       steps=len(report.steps))
        return report

    def recent(self) -> List[DegradedResolution]:
        with self._lock:
            return list(self._recent)

    def health_counts(self) -> Dict[str, int]:
        """Outcome -> count over the retained window."""
        counts: Dict[str, int] = {}
        with self._lock:
            for report in self._recent:
                counts[report.outcome] = counts.get(report.outcome, 0) + 1
        return counts

    # -- the chain ---------------------------------------------------------

    def resolve(self, name: str) -> Tuple[Optional[LibraryEntry], DegradedResolution]:
        """Walk the chain; never raises for a resolution failure.

        Returns ``(entry, report)`` — ``entry`` is ``None`` only when
        the chain is exhausted, and then ``report`` says exactly which
        steps were tried and how each one failed.
        """
        report = DegradedResolution(name)
        with span("registry_resolve", model=name) as sp:
            # 1. the local library — the paper's local-first precedence
            if name in self.local:
                report.record("local", self.local.name, "hit")
                sp.set(outcome="local")
                self._finish(report, "local", self.local.name)
                return self.local.get(name), report
            report.record("local", self.local.name, "miss")

            # 2. each remote: live fetch, falling to its stale cache
            for remote in self.remotes:
                try:
                    entry, result = remote.fetch_model_outcome(name)
                except RemoteError as exc:
                    report.record(
                        "remote", remote.base_url, "failed",
                        f"{type(exc).__name__}: {exc}",
                    )
                    continue
                report.record("remote", remote.base_url, result)
                outcome = "stale" if result == "stale" else "live"
                sp.set(outcome=outcome)
                self._finish(report, outcome, remote.base_url)
                return entry, report

            # 3. the mirrored artifact — outage-resilient by design
            if self.registry is not None:
                try:
                    entry = self.registry.get_entry(name)
                    report.record("mirror", "registry", "hit")
                    sp.set(outcome="mirror")
                    self._finish(report, "mirror", "registry")
                    return entry, report
                except IntegrityError as exc:
                    report.record("mirror", "registry", "quarantined", str(exc))
                except RegistryError as exc:
                    report.record("mirror", "registry", "miss", str(exc))

            sp.set(outcome="failed")
            self._finish(report, "failed")
            return None, report

    def resolve_strict(self, name: str) -> LibraryEntry:
        """The raising form of :meth:`resolve`, for callers that cannot
        proceed without the model: :class:`~repro.errors.RegistryError`
        naming every step tried."""
        entry, report = self.resolve(name)
        if entry is None:
            raise RegistryError(
                f"cannot resolve model {name!r}: "
                + "; ".join(
                    f"{step['step']}({step['target']})={step['result']}"
                    for step in report.steps
                )
            )
        return entry

    def resolve_design(self, name: str, version: Optional[int] = None):
        """A mirrored design, with the same explicit reporting."""
        report = DegradedResolution(name)
        if self.registry is None:
            report.record("mirror", "registry", "unconfigured")
            self._finish(report, "failed")
            return None, report
        try:
            design = self.registry.get_design(name, version)
        except IntegrityError as exc:
            report.record("mirror", "registry", "quarantined", str(exc))
            self._finish(report, "failed")
            return None, report
        except RegistryError as exc:
            report.record("mirror", "registry", "miss", str(exc))
            self._finish(report, "failed")
            return None, report
        report.record("mirror", "registry", "hit")
        self._finish(report, "mirror", "registry")
        return design, report
