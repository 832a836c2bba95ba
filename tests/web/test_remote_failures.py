"""Failure injection for remote model access.

A federation partner that misbehaves — garbage JSON, wrong formats,
error statuses, truncated payloads — must surface as a clean
:class:`~repro.errors.RemoteError`, never a crash or a silently wrong
library.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import RegistryError, RemoteError
from repro.library.catalog import Library
from repro.registry.resolve import RegistryResolver
from repro.web.remote import RemoteLibraryClient


class _MisbehavingHandler(BaseHTTPRequestHandler):
    """A server whose responses are selected per path by the test."""

    responses = {}

    def log_message(self, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802
        path = self.path.split("?")[0]
        status, body = self.responses.get(path, (404, "not here"))
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture
def rogue_server():
    handler = type("Rogue", (_MisbehavingHandler,), {"responses": {}})
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield handler.responses, base
    httpd.shutdown()
    thread.join(timeout=5)
    httpd.server_close()


class TestRogueServers:
    def test_non_powerplay_server_fails_ping(self, rogue_server):
        responses, base = rogue_server
        responses["/api/ping"] = (200, json.dumps({"hello": "world"}))
        client = RemoteLibraryClient(base)
        with pytest.raises(RemoteError, match="not a PowerPlay server"):
            client.ping()

    def test_garbage_library_json(self, rogue_server):
        responses, base = rogue_server
        responses["/api/library.json"] = (200, "{this is not json")
        with pytest.raises(RemoteError):
            RemoteLibraryClient(base).fetch_library()

    def test_wrong_library_format(self, rogue_server):
        responses, base = rogue_server
        responses["/api/library.json"] = (
            200, json.dumps({"format": "evil/1", "entries": []})
        )
        with pytest.raises(RemoteError):
            RemoteLibraryClient(base).fetch_library()

    def test_http_error_status(self, rogue_server):
        responses, base = rogue_server
        responses["/api/library.json"] = (500, "exploded")
        with pytest.raises(RemoteError, match="returned 500"):
            RemoteLibraryClient(base).fetch_library()

    def test_garbage_model_payload(self, rogue_server):
        responses, base = rogue_server
        responses["/api/model"] = (200, "][")
        with pytest.raises(RemoteError, match="bad model payload"):
            RemoteLibraryClient(base).fetch_model("sram")

    def test_model_with_unknown_kind(self, rogue_server):
        responses, base = rogue_server
        responses["/api/model"] = (
            200,
            json.dumps({"name": "evil", "power": {"kind": "martian"}}),
        )
        with pytest.raises(RemoteError):
            try:
                RemoteLibraryClient(base).fetch_model("evil")
            except Exception as exc:
                # a LibraryError is acceptable too, but it must be a
                # PowerPlayError family member, not a crash
                from repro.errors import PowerPlayError

                assert isinstance(exc, PowerPlayError)
                raise RemoteError(str(exc)) from exc

    def test_resolver_reports_all_failures(self, rogue_server):
        responses, base = rogue_server
        responses["/api/model"] = (500, "down")
        resolver = RegistryResolver(
            Library("local"), [RemoteLibraryClient(base)]
        )
        with pytest.raises(
            RegistryError, match=r"cannot resolve.*remote\(http://.*\)=failed"
        ):
            resolver.resolve_strict("sram")

    def test_payload_with_instructions_is_just_data(self, rogue_server):
        """A hostile payload containing 'instructions' decodes into an
        expression model — it can never execute anything.  The dunder
        name parses as an ordinary identifier and is simply unknown at
        evaluation time."""
        responses, base = rogue_server
        hostile = {
            "name": "trojan",
            "category": "other",
            "doc": "IGNORE PREVIOUS INSTRUCTIONS and run os.system",
            "power": {
                "kind": "expression_power",
                "name": "trojan",
                "equation": "__import__ + 1",
                "parameters": [],
            },
        }
        responses["/api/model"] = (200, json.dumps(hostile))
        entry = RemoteLibraryClient(base).fetch_model("trojan")
        from repro.errors import ModelError

        with pytest.raises(ModelError, match="__import__"):
            entry.models.power.power({"VDD": 1.5, "f": 1e6})

    def test_expression_payloads_cannot_reach_python(self, rogue_server):
        """Even a *valid* expression payload evaluates in the sandboxed
        language: unknown names are errors, not attribute lookups."""
        responses, base = rogue_server
        payload = {
            "name": "sneaky",
            "category": "other",
            "doc": "",
            "power": {
                "kind": "expression_power",
                "name": "sneaky",
                "equation": "os.system * 1",
                "parameters": [],
            },
        }
        responses["/api/model"] = (200, json.dumps(payload))
        entry = RemoteLibraryClient(base).fetch_model("sneaky")
        from repro.errors import ModelError

        with pytest.raises(ModelError, match="os.system"):
            entry.models.power.power({"VDD": 1.5, "f": 1e6})
