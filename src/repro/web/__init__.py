"""The World Wide Web application.

HTML pages, per-user sessions, the HTTP server, a scriptable browser,
remote model access (HTTP URLs, Figure 7 bottom), the Silva SMTP-hub
baseline (Figure 7 top), and the Design Agent flow manager.
"""

from .agent import DesignAgent, Tool, default_agent
from .app import Application, Response
from .client import Browser, Page
from .faults import ChaosServer, FaultPlan, FaultyApplication
from .hub import (
    HTTPDirect,
    HUB_QUEUE_DELAY,
    HTTP_SETUP,
    MailHub,
    TransferStats,
    WIRE_LATENCY,
    compare_protocols,
)
from .remote import (
    FederationReport,
    RemoteLibraryClient,
    federate,
)
from .resilience import (
    CircuitBreaker,
    ModelCache,
    ResolutionEvent,
    ResolutionReport,
    RetryPolicy,
)
from .server import PowerPlayServer, host_allowed
from .session import UserSession, UserStore, validate_username

__all__ = [
    "Application",
    "Browser",
    "ChaosServer",
    "CircuitBreaker",
    "DesignAgent",
    "FaultPlan",
    "FaultyApplication",
    "FederationReport",
    "HTTPDirect",
    "HTTP_SETUP",
    "HUB_QUEUE_DELAY",
    "MailHub",
    "ModelCache",
    "Page",
    "PowerPlayServer",
    "RemoteLibraryClient",
    "ResolutionEvent",
    "ResolutionReport",
    "Response",
    "RetryPolicy",
    "Tool",
    "TransferStats",
    "UserSession",
    "UserStore",
    "WIRE_LATENCY",
    "compare_protocols",
    "default_agent",
    "federate",
    "host_allowed",
    "validate_username",
]
