"""Exception hierarchy for the PowerPlay reproduction.

Every error raised by this package derives from :class:`PowerPlayError`
so callers can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class PowerPlayError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class UnitError(PowerPlayError):
    """A quantity string could not be parsed or units are incompatible."""


class ExpressionError(PowerPlayError):
    """An expression failed to parse or evaluate."""


class ParseError(ExpressionError):
    """Syntax error while parsing an expression.

    Carries the offending source text and the character position where
    parsing failed, so web forms can point at the error.
    """

    def __init__(self, message: str, source: str = "", position: int = -1):
        super().__init__(message)
        self.source = source
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        if self.position >= 0:
            return f"{base} (at position {self.position} in {self.source!r})"
        return base


class EvaluationError(ExpressionError):
    """Runtime error while evaluating an expression (bad name, math error)."""


class ParameterError(PowerPlayError):
    """Invalid parameter definition, value, or lookup."""


class SheetError(PowerPlayError):
    """Spreadsheet structural error (unknown cell, duplicate cell)."""


class ModelError(PowerPlayError):
    """A power/area/timing model was misconfigured or misapplied."""


class DesignError(PowerPlayError):
    """Design hierarchy error (unknown instance, duplicate name)."""


class LibraryError(PowerPlayError):
    """Library lookup or (de)serialization error."""


class CharacterizationError(PowerPlayError):
    """Characterization/fitting failed (degenerate sweep, bad data)."""


class SimulationError(PowerPlayError):
    """Netlist or simulation-level error."""


class NetlistError(SimulationError):
    """Malformed gate netlist (unknown node, bad fanin)."""


class WebError(PowerPlayError):
    """Web application error (bad route, malformed form)."""


class SessionError(WebError):
    """User session error (unknown user, corrupt state file)."""


class RemoteError(WebError):
    """Remote model access failed (unreachable server, bad payload)."""


class TransientRemoteError(RemoteError):
    """A remote failure that is plausibly temporary and worth retrying
    (connection refused/reset, timeout, 5xx status, truncated payload).

    Permanent refusals — unknown model, proprietary entry, malformed
    request — stay plain :class:`RemoteError` and are never retried.
    """


class CircuitOpenError(RemoteError):
    """A circuit breaker is open: the remote has failed repeatedly and
    calls are being skipped fast instead of waiting on a dead host.

    ``retry_after`` is the remaining cooldown in seconds before the
    breaker will allow a half-open probe.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class FaultInjected(PowerPlayError):
    """An artificial fault from the chaos-testing harness
    (:mod:`repro.web.faults`) — never raised in production paths."""


class ExploreError(PowerPlayError):
    """Invalid sweep specification (bad axis, unknown target, a space
    over the configured point cap) or an exploration-engine failure."""


class RegistryError(PowerPlayError):
    """Federated model-registry error (unknown artifact, malformed wire
    payload, store misuse, an exhausted resolution chain)."""


class IntegrityError(RegistryError):
    """An artifact's content digest does not match its bytes.

    Raised on every read or fetch whose payload fails blake2b
    verification — a corrupt, truncated, or tampered artifact is
    quarantined and never silently used.
    """


class ArtifactConflict(RegistryError):
    """Two different artifacts claim the same (kind, name, version).

    Versions are immutable once published: a conflicting digest is
    rejected and reported, never silently replaced."""


class JobError(ExploreError):
    """Sweep-job persistence error (unknown job, corrupt checkpoint,
    an operation invalid for the job's current state)."""


class StateError(PowerPlayError):
    """Durable state-backend error (unknown backend kind, a backend
    that cannot open its storage, misuse of the document API)."""
