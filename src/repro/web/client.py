"""A tiny scriptable browser.

"Each user can access the tool with her/his favorite browser" — ours is
20 lines of ``http.client`` plus helpers to find links and submit forms,
enough to script the complete Netscape workflow the paper times at
"less than three minutes".  Tests and the E8 bench drive the server
with it end-to-end.
"""

from __future__ import annotations

import http.client
import re
import urllib.parse
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import RemoteError, TransientRemoteError
from ..obs import propagate
from ..obs.fleet import validate_peer_url
from ..obs.trace import graft_remote

_LINK_RE = re.compile(r'<a href="([^"]+)">(.*?)</a>', re.S)
_TITLE_RE = re.compile(r"<title>(.*?)</title>", re.S)
_ERROR_RE = re.compile(r'<p class="error">(.*?)</p>', re.S)


@dataclass
class Page:
    """A fetched page: status, body, headers, parsed conveniences."""

    url: str
    status: int
    body: str
    headers: Dict[str, str] = field(default_factory=dict)

    def header(self, name: str) -> Optional[str]:
        """Case-insensitive response-header lookup."""
        wanted = name.lower()
        for key, value in self.headers.items():
            if key.lower() == wanted:
                return value
        return None

    @property
    def title(self) -> str:
        match = _TITLE_RE.search(self.body)
        return match.group(1).strip() if match else ""

    @property
    def links(self) -> List[Tuple[str, str]]:
        """(href, text) of every hyperlink on the page."""
        return [
            (href, re.sub(r"<[^>]+>", "", text).strip())
            for href, text in _LINK_RE.findall(self.body)
        ]

    def link_by_text(self, text: str) -> str:
        for href, label in self.links:
            if text.lower() in label.lower():
                return href
        raise RemoteError(f"no link containing {text!r} on {self.url}")

    @property
    def error(self) -> Optional[str]:
        match = _ERROR_RE.search(self.body)
        return match.group(1).strip() if match else None

    def contains(self, text: str) -> bool:
        return text in self.body


class Browser:
    """Minimal HTTP browser bound to one PowerPlay server.

    ``base_url`` must pass :func:`~repro.obs.fleet.validate_peer_url`
    (else :class:`~repro.errors.RemoteError`).  Connection-level
    failures raise :class:`~repro.errors.TransientRemoteError` (a
    :class:`~repro.errors.RemoteError` subclass), so callers can retry
    the plausibly-temporary ones; retrying is the caller's job
    (:func:`~repro.web.resilience.guarded_call`).
    """

    #: redirect hop limit — a redirect loop must fail, not hang
    MAX_REDIRECTS = 5

    def __init__(self, base_url: str, timeout: float = 10.0):
        try:
            parsed = urllib.parse.urlsplit(validate_peer_url(base_url))
        except ValueError as exc:
            raise RemoteError(f"unsupported base URL: {exc}") from None
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
        content_type: Optional[str] = None,
    ) -> Tuple[int, str, Optional[str], Dict[str, str]]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            headers = {}
            if content_type:
                headers["Content-Type"] = content_type
            # cross-server trace propagation: when a span is open on
            # this thread, every outbound request carries its context
            headers.update(propagate.outbound_headers())
            connection.request(method, path, body=body, headers=headers)
            raw = connection.getresponse()
            text = raw.read().decode("utf-8", errors="replace")
            response_headers = dict(raw.getheaders())
            return raw.status, text, raw.getheader("Location"), response_headers
        except (OSError, http.client.HTTPException) as exc:
            raise TransientRemoteError(
                f"cannot reach http://{self.host}:{self.port}{path}: {exc}"
            ) from exc
        finally:
            connection.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
        content_type: Optional[str] = None,
        follow_redirects: bool = True,
    ) -> Page:
        hops = 0
        while True:
            status, text, location, headers = self._request_once(
                method, path, body, content_type
            )
            # graft the provider's finished sub-span (if it sent one)
            # under the local span driving this fetch — one federated
            # trace instead of two that stop at the socket
            graft_remote(
                propagate.decode_span_header(
                    headers.get(propagate.SPAN_HEADER)
                )
            )
            if not (follow_redirects and status in (301, 302, 303) and location):
                return Page(path, status, text, headers)
            hops += 1
            if hops > self.MAX_REDIRECTS:
                raise RemoteError(
                    f"redirect loop: more than {self.MAX_REDIRECTS} hops "
                    f"from http://{self.host}:{self.port}, last at {location!r}"
                )
            # redirect targets are fetched with GET (303 semantics)
            method, path, body, content_type = "GET", location, None, None

    def get(self, path: str) -> Page:
        return self._request("GET", path)

    def post(self, path: str, fields: Mapping[str, object]) -> Page:
        body = urllib.parse.urlencode({k: str(v) for k, v in fields.items()})
        return self._request(
            "POST", path, body=body,
            content_type="application/x-www-form-urlencoded",
        )

    def get_json(self, path: str) -> object:
        """GET a JSON resource.  A 5xx raises
        :class:`~repro.errors.TransientRemoteError`, which a retry policy
        retries; any other non-200 status, or a body that is not JSON,
        raises :class:`~repro.errors.RemoteError`."""
        import json

        page = self._request("GET", path)
        if page.status >= 500:
            raise TransientRemoteError(f"GET {path} returned {page.status}")
        if page.status != 200:
            raise RemoteError(f"GET {path} returned {page.status}")
        try:
            return json.loads(page.body)
        except json.JSONDecodeError as exc:
            raise RemoteError(f"GET {path}: not JSON ({exc})") from exc

    def get_text(self, path: str) -> str:
        """GET a plain-text resource (``/metrics``); non-200 raises.

        A failed scrape must be an *error* the caller's retry/breaker
        machinery sees, never an error page merged into a dataset.
        """
        page = self._request("GET", path)
        if page.status != 200:
            raise TransientRemoteError(f"GET {path} returned {page.status}")
        return page.body

    # -- the canonical workflow ------------------------------------------

    def login(self, user: str) -> Page:
        return self.post("/login", {"user": user})

    def compute_cell(
        self, user: str, name: str, parameters: Mapping[str, object]
    ) -> Page:
        fields: Dict[str, object] = {"user": user, "name": name}
        for key, value in parameters.items():
            fields[f"p:{key}"] = value
        return self.post("/cell", fields)

    def save_cell_to_design(
        self,
        user: str,
        name: str,
        design: str,
        row: str,
        parameters: Mapping[str, object],
    ) -> Page:
        fields: Dict[str, object] = {
            "user": user,
            "name": name,
            "design": design,
            "row": row,
        }
        for key, value in parameters.items():
            fields[f"p:{key}"] = value
        return self.post("/cell/save", fields)

    def new_design(self, user: str, name: str) -> Page:
        return self.post("/design/new", {"user": user, "name": name})

    def open_design(self, user: str, name: str, path: str = "") -> Page:
        suffix = f"&path={path}" if path else ""
        return self.get(f"/design?user={user}&name={name}{suffix}")

    def play(
        self,
        user: str,
        name: str,
        globals_: Optional[Mapping[str, object]] = None,
        row_params: Optional[Mapping[Tuple[str, str], object]] = None,
        path: str = "",
    ) -> Page:
        """Press PLAY with optional parameter edits."""
        fields: Dict[str, object] = {"user": user, "name": name, "path": path}
        for key, value in (globals_ or {}).items():
            fields[f"g:{key}"] = value
        for (row, parameter), value in (row_params or {}).items():
            fields[f"p:{row}:{parameter}"] = value
        return self.post("/design", fields)
