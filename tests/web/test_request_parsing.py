"""How the transport reads a request off the wire, class by class.

Each probe is sent over a raw socket (``http.client`` would refuse to
send most of them) and half-closed, and the whole reply is read until
the server closes.  Together they pin the transport's parsing rules:
the 65,536-byte line limit (414 for the request line, 431 for a header
line), at most 99 header lines (431 beyond; ``http.client`` counted the
blank line that ends the head as the hundredth), version checks (400,
505), HTTP/0.9 for a two-word GET, 501 for other methods, the ``//``
collapse, and headers matched case-insensitively with the first of a
repeated header winning.
"""

import socket

import pytest

from repro.obs import propagate
from repro.web.app import Application
from repro.web.server import PowerPlayServer

PING = b'{\n "protocol": "powerplay/1",\n "server": "powerplay"\n}'
LINE_LIMIT = 65536


@pytest.fixture(scope="module")
def seen():
    """(path, headers) of every request the application was handed."""
    return []


@pytest.fixture(scope="module")
def server(tmp_path_factory, seen):
    state = tmp_path_factory.mktemp("parsing_state")
    application = Application(state)
    inner = application.handle

    def handle(method, path, form=None, headers=None):
        seen.append((method, path, form, headers))
        return inner(method, path, form, headers=headers)

    application.handle = handle
    with PowerPlayServer(state, application=application,
                         handler_attrs={"timeout": 2.0}) as live:
        yield live


def exchange(server, data):
    """Send ``data``, half-close, and read the reply to its end."""
    sock = socket.create_connection(server.address, timeout=10)
    try:
        if data:
            sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        sock.close()


def parse_reply(raw):
    """(status, reason, headers, body) of an HTTP/1.0 reply."""
    head, separator, body = raw.partition(b"\r\n\r\n")
    assert separator, f"no head in {raw[:200]!r}"
    lines = head.decode("iso-8859-1").split("\r\n")
    version, status, reason = lines[0].split(" ", 2)
    assert version == "HTTP/1.0"
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(": ")
        headers[name.lower()] = value
    assert int(headers["content-length"]) == len(body)
    return int(status), reason, headers, body


def status_of(server, data):
    return parse_reply(exchange(server, data))[0]


def ping_with_headers(lines):
    return b"GET /api/ping HTTP/1.0\r\n" + b"".join(lines) + b"\r\n"


class TestLimits:
    def test_a_request_line_over_the_limit_is_414(self, server):
        path = b"/" + b"a" * (LINE_LIMIT - len(b"GET / HTTP/1.0\r\n") + 1)
        line = b"GET " + path + b" HTTP/1.0\r\n"
        assert len(line) == LINE_LIMIT + 1
        assert status_of(server, line + b"\r\n") == 414

    def test_a_request_line_at_the_limit_is_served(self, server):
        path = b"/" + b"a" * (LINE_LIMIT - len(b"GET / HTTP/1.0\r\n"))
        line = b"GET " + path + b" HTTP/1.0\r\n"
        assert len(line) == LINE_LIMIT
        assert status_of(server, line + b"\r\n") == 404

    def test_a_header_line_over_the_limit_is_431(self, server):
        line = b"X-Long: " + b"a" * (LINE_LIMIT - len(b"X-Long: \r\n") + 1)
        line += b"\r\n"
        assert len(line) == LINE_LIMIT + 1
        assert status_of(server, ping_with_headers([line])) == 431

    def test_a_header_line_at_the_limit_is_served(self, server):
        line = b"X-Long: " + b"a" * (LINE_LIMIT - len(b"X-Long: \r\n"))
        line += b"\r\n"
        assert len(line) == LINE_LIMIT
        assert status_of(server, ping_with_headers([line])) == 200

    def test_ninety_nine_header_lines_are_served(self, server):
        lines = [b"X-H%d: v\r\n" % i for i in range(99)]
        status, _, _, body = parse_reply(
            exchange(server, ping_with_headers(lines)))
        assert (status, body) == (200, PING)

    def test_a_hundred_header_lines_are_431(self, server):
        lines = [b"X-H%d: v\r\n" % i for i in range(100)]
        assert status_of(server, ping_with_headers(lines)) == 431


class TestRequestLine:
    @pytest.mark.parametrize("version", [b"HTTP/x.y", b"HTTP/1", b"http/1.0",
                                         b"HTTP/1.0.1", b"HTTP/1.a"])
    def test_a_malformed_version_is_400_with_a_status_line(self, server,
                                                           version):
        raw = exchange(server, b"GET /api/ping " + version + b"\r\n\r\n")
        assert raw.startswith(b"HTTP/1.0 400 ")
        assert parse_reply(raw)[0] == 400

    @pytest.mark.parametrize("version", [b"HTTP/2.0", b"HTTP/3.1"])
    def test_version_two_and_above_is_505_with_a_status_line(self, server,
                                                             version):
        raw = exchange(server, b"GET /api/ping " + version + b"\r\n\r\n")
        assert raw.startswith(b"HTTP/1.0 505 ")
        assert parse_reply(raw)[0] == 505

    @pytest.mark.parametrize("version", [b"HTTP/1.0", b"HTTP/1.1",
                                         b"HTTP/1.2", b"HTTP/01.01"])
    def test_versions_below_two_are_served(self, server, version):
        raw = exchange(server, b"GET /api/ping " + version + b"\r\n\r\n")
        assert parse_reply(raw)[::3] == (200, PING)

    def test_a_one_word_line_is_400_with_a_status_line(self, server):
        raw = exchange(server, b"GET\r\n\r\n")
        assert raw.startswith(b"HTTP/1.0 400 ")
        assert parse_reply(raw)[0] == 400

    def test_a_two_word_get_is_http_09_body_only(self, server):
        assert exchange(server, b"GET /api/ping\r\n\r\n") == PING

    def test_a_two_word_post_is_400_with_a_status_line(self, server):
        raw = exchange(server, b"POST /login\r\n\r\n")
        assert raw.startswith(b"HTTP/1.0 400 ")
        assert parse_reply(raw)[0] == 400

    def test_four_words_are_400(self, server):
        assert status_of(server, b"GET /api/ping extra HTTP/1.0\r\n\r\n") \
            == 400

    def test_whitespace_between_words_is_one_separator(self, server):
        raw = exchange(server, b"GET \t/api/ping  HTTP/1.0 \r\n\r\n")
        assert parse_reply(raw)[::3] == (200, PING)

    def test_put_is_501(self, server):
        status, _, _, body = parse_reply(
            exchange(server, b"PUT /api/ping HTTP/1.0\r\n\r\n"))
        assert status == 501 and body

    def test_head_is_501_without_a_body(self, server):
        raw = exchange(server, b"HEAD /api/ping HTTP/1.0\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 501 ")
        assert int(dict(
            line.split(": ", 1)
            for line in head.decode().split("\r\n")[1:])["Content-Length"]) > 0
        assert body == b""

    @pytest.mark.parametrize("data", [b"", b"\r\n", b"\r\n\r\n"])
    def test_a_connection_without_a_request_is_closed_unanswered(
            self, server, data):
        assert exchange(server, data) == b""

    @pytest.mark.parametrize("path", [b"//api/ping", b"///api/ping"])
    def test_leading_slashes_collapse_to_one(self, server, seen, path):
        raw = exchange(server, b"GET " + path + b" HTTP/1.0\r\n\r\n")
        assert parse_reply(raw)[::3] == (200, PING)
        assert seen[-1][1] == "/api/ping"

    def test_a_path_keeps_its_latin1_bytes(self, server, seen):
        raw = exchange(server, b"GET /api/ping\xe9 HTTP/1.0\r\n\r\n")
        assert parse_reply(raw)[0] == 404
        assert seen[-1][1] == "/api/ping\xe9"


class TestHeaders:
    def test_names_match_case_insensitively(self, server):
        status, _, headers, _ = parse_reply(exchange(
            server,
            b"POST /login HTTP/1.0\r\ncontent-length: 10\r\n\r\nuser=alice"))
        assert status == 303
        assert headers["location"] == "/menu?user=alice"

    def test_the_first_of_a_repeated_header_wins(self, server):
        status, _, headers, _ = parse_reply(exchange(
            server,
            b"POST /login HTTP/1.0\r\nContent-Length: 10\r\n"
            b"Content-Length: 3\r\n\r\nuser=alice"))
        assert status == 303
        assert headers["location"] == "/menu?user=alice"

    def test_a_folded_header_does_not_end_the_head(self, server):
        status, _, headers, _ = parse_reply(exchange(
            server,
            b"POST /login HTTP/1.0\r\nX-Folded: a\r\n  b\r\n\tc\r\n"
            b"Content-Length: 10\r\n\r\nuser=alice"))
        assert status == 303
        assert headers["location"] == "/menu?user=alice"

    def test_lf_only_line_ends(self, server):
        status, _, headers, _ = parse_reply(exchange(
            server,
            b"POST /login HTTP/1.0\nHost: x\nContent-Length: 10\n\nuser=alice"))
        assert status == 303
        assert headers["location"] == "/menu?user=alice"

    def test_a_head_cut_short_by_the_client_is_served(self, server):
        raw = exchange(server, b"GET /api/ping HTTP/1.0\r\nHost: x\r\n")
        assert parse_reply(raw)[::3] == (200, PING)

    def test_a_lower_case_trace_header_reaches_extract_context(
            self, server, seen):
        trace_id, span_id = "ab" * 16, "1f"
        exchange(server,
                 b"GET /api/ping HTTP/1.0\r\n"
                 b"x-powerplay-trace: 00-%s-%s\r\n\r\n"
                 % (trace_id.encode(), span_id.encode()))
        context = propagate.extract_context(seen[-1][3])
        assert context == propagate.TraceContext(trace_id, span_id)

    def test_every_reply_names_server_date_and_request(self, server):
        _, _, headers, _ = parse_reply(
            exchange(server, b"GET /api/ping HTTP/1.0\r\n\r\n"))
        assert headers["server"]
        assert headers["date"].endswith(" GMT")
        assert headers["x-powerplay-request"].startswith("req-")
        assert headers["content-type"] == "application/json"
