"""Wire totality of `serve`: a property over drawn JSON-RPC sessions.

Each example is one session of drawn lines, run in process through
`runtime.serve` over `StringIO`, on allauth.yaml's manifest with and
without a lone surrogate in a tool description. The lines are requests
and notifications whose ids are drawn from every JSON type, deep
nesting and lone surrogates included: `initialize`, `ping`,
`tools/list`, unknown methods, `notifications/*`, `tools/call` to an
unknown tool or with arguments that fail validation (so no upstream
request is made), and lines that are not JSON.

The property holds when the loop returns normally; every line it writes
is JSON (no `NaN`) that encodes as UTF-8; each line that is not a
notification gets exactly one answer, carrying its id, or null for an
id JSON-RPC 2.0 §4 does not allow; and every `tools/list` answer is,
byte for byte, `jsonout.dumps` of the whole reply.

A second property binds drawn credentials, one per allauth.yaml
variable, each an ASCII marker inside text that no header, cookie or
query may carry as it is. Every tool is called through `serve` against
an upstream that answers `200 {}`, one that redirects each request, its
query included, to another port, and a closed port: each request gets
one line, and no output line and no log record holds a marker. Fixed
credentials of the same kind meet an upstream that accepts and never
answers, with a short timeout.

A third test calls one tool against upstreams that each answer with one
hostile raw response: bodies that are not valid UTF-8 or not the JSON
their type says, a body on a 204, and bodies the connection cuts short.
Each call gets one line of strict UTF-8 JSON and no log record.
"""

from __future__ import annotations

import dataclasses
import io
import json
import logging
import math
import socket
import threading
from collections import Counter
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from automcp.compiler import tools_list_payload
from automcp.evaluator import synth_args
from automcp.jsonout import dumps
from automcp.pipeline import compile_file
from automcp.runtime import serve
from conftest import FIXTURES

# CI's `totality` job loads the larger `totality` profile (tests/conftest.py)
EXAMPLES = max(200, settings.default.max_examples)


def _manifest(description: str | None = None):
    manifest = compile_file(FIXTURES / "allauth.yaml").manifest
    if description is not None:
        manifest.tools[0].description = description
    return manifest


MANIFESTS = [_manifest(), _manifest("lists gadgets \ud800 and é")]
TOOL_NAMES = [tool.tool_name for tool in MANIFESTS[0].tools]

LONE_SURROGATES = st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"])
TEXT = st.lists(st.characters() | LONE_SURROGATES, max_size=8).map("".join)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=8,
)


@dataclass(frozen=True)
class Deep:
    """An id of `depth` nested arrays, written as text: no encoder is
    asked to nest that deep."""

    depth: int


ABSENT = object()  # a notification: no `id` key at all
IDS = (JSON_VALUES | st.integers(900, 990).map(Deep)
       | st.sampled_from([ABSENT, None, True, float("nan"), float("inf")]))

FAILING_ARGUMENTS = st.one_of(  # `arguments` is read as `arguments or {}`
    st.dictionaries(TEXT.map(lambda key: "\x00" + key), JSON_VALUES,  # undeclared
                    min_size=1, max_size=2),
    st.lists(JSON_VALUES, min_size=1, max_size=2),
    TEXT.filter(bool),
    st.integers().filter(bool),
    st.just(True),
)
CALLS = st.one_of(
    st.builds(lambda name, args: {"name": name, "arguments": args},
              st.sampled_from(TOOL_NAMES), FAILING_ARGUMENTS),
    st.builds(lambda name: {"name": name, "arguments": {}},
              TEXT.filter(lambda name: name not in TOOL_NAMES)),
)
REQUESTS = st.one_of(
    st.tuples(st.sampled_from(["initialize", "ping", "tools/list"])
              | TEXT | TEXT.map("notifications/".__add__), JSON_VALUES),
    st.tuples(st.just("tools/call"), CALLS),
    st.tuples(JSON_VALUES, JSON_VALUES),  # a method that is not a string
)


def request_line(method_params: tuple, msg_id) -> str:
    method, params = method_params
    text = json.dumps({"jsonrpc": "2.0", "method": method, "params": params})
    if msg_id is ABSENT:
        return text
    if isinstance(msg_id, Deep):
        id_text = "[" * msg_id.depth + "]" * msg_id.depth
    else:
        id_text = json.dumps(msg_id)  # NaN and Infinity included
    return '{"id": ' + id_text + ", " + text[1:]


LINES = st.lists(
    st.one_of(
        st.builds(request_line, REQUESTS, IDS),
        TEXT.map(lambda text: text.replace("\n", "")),  # not JSON, mostly
        st.builds(json.dumps, JSON_VALUES),  # JSON, but no request
    ),
    max_size=12,
)


def is_id(value) -> bool:
    """JSON-RPC 2.0 §4: a string, a number (no bool) or null."""
    if isinstance(value, bool):
        return False
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or isinstance(value, (str, int))


def expected_answers(line: str) -> list[tuple[object, object]]:
    """The (id, method) of each answer `line` should get, read as `serve`
    reads it: none for a blank line or a notification, else exactly one,
    whose id is null unless the line holds an allowed id."""
    line = line.strip()
    if not line:
        return []
    try:
        message = json.loads(line)
    except (ValueError, RecursionError):
        return [(None, None)]
    if not isinstance(message, dict):
        return [(None, None)]
    if "id" not in message and isinstance(message.get("method"), str):
        return []
    msg_id = message.get("id")
    if not is_id(msg_id):
        return [(None, None)]
    return [(msg_id, message.get("method"))]


def _no_constants(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_json(line: str):
    return json.loads(line, parse_constant=_no_constants)


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(lines=LINES, manifest=st.sampled_from(MANIFESTS))
def test_every_request_gets_one_utf8_json_line(lines, manifest):
    stdout = io.StringIO()
    with mock.patch("requests.request") as upstream:
        serve(manifest, {}, stdin=io.StringIO("".join(line + "\n" for line in lines)),
              stdout=stdout, timeout=5)
    assert upstream.call_count == 0

    out = stdout.getvalue().splitlines()
    for line in out:
        line.encode("utf-8")
    answers = [strict_json(line) for line in out]
    expected = [answer for line in lines for answer in expected_answers(line)]
    assert Counter(json.dumps(a["id"]) for a in answers) == Counter(
        json.dumps(msg_id) for msg_id, _ in expected)

    tools = tools_list_payload(manifest)
    references = Counter(
        dumps({"jsonrpc": "2.0", "id": msg_id, "result": {"tools": tools}})
        for msg_id, method in expected if method == "tools/list")
    assert not references - Counter(out)


ALLAUTH = compile_file(FIXTURES / "allauth.yaml")
# each tool called once, with an id of its index
CALL_LINES = "".join(
    json.dumps({"jsonrpc": "2.0", "id": i, "method": "tools/call",
                "params": {"name": tool.tool_name, "arguments": synth_args(tool)}}) + "\n"
    for i, tool in enumerate(ALLAUTH.manifest.tools))
MARKERS = [f"QZX{i}MARK" for i in range(len(ALLAUTH.bindings))]
# what a header, a cookie or a query cannot carry as it is
HOSTILE = st.lists(st.sampled_from(["\r", "\n", "\0", " ", "\t", ";", '"', "\u00e9",
                                    "\u65e5", "\ud800", "\udbff", "\udc00", "\udfff"]),
                   max_size=4).map("".join)


class _Ok(BaseHTTPRequestHandler):
    """Answers every request `200 {}`."""

    def _answer(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _answer

    def log_message(self, *args):
        pass


def _redirect_to(port: int) -> type:
    """A handler that answers every request `302`, with a `Location` of
    the same path and query on `port`."""

    class _Redirect(_Ok):
        def _answer(self):
            self.rfile.read(int(self.headers.get("Content-Length") or 0))
            self.send_response(302)
            self.send_header("Location", f"http://127.0.0.1:{port}{self.path}")
            self.send_header("Content-Length", "0")
            self.end_headers()

        do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _answer

    return _Redirect


@pytest.fixture(scope="module")
def upstreams():
    """The base URLs of an upstream that answers `200 {}`, of one that
    redirects to it, and of a port that nothing listens on."""
    ok = ThreadingHTTPServer(("127.0.0.1", 0), _Ok)
    servers = [ok, ThreadingHTTPServer(("127.0.0.1", 0), _redirect_to(ok.server_address[1]))]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        closed_port = closed.getsockname()[1]
    try:
        yield [f"http://127.0.0.1:{server.server_address[1]}" for server in servers] + [
            f"http://127.0.0.1:{closed_port}"]
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()


@pytest.fixture
def silent_upstream():
    """The base URL of an upstream that accepts each connection and never
    answers."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    held: list[socket.socket] = []
    done = threading.Event()

    def hold():
        while not done.is_set():
            try:
                held.append(listener.accept()[0])
            except TimeoutError:
                pass

    thread = threading.Thread(target=hold, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        done.set()
        thread.join(timeout=5)
        for conn in [listener, *held]:
            conn.close()
        assert not thread.is_alive()


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(self.format(record))


@settings(max_examples=settings.default.max_examples, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(credentials=st.lists(st.tuples(HOSTILE, HOSTILE), min_size=len(MARKERS),
                            max_size=len(MARKERS)))
def test_no_credential_reaches_stdout_or_a_log(upstreams, credentials):
    assert_no_marker_escapes(upstreams, credentials, timeout=5)


def test_no_credential_reaches_stdout_or_a_log_on_a_timeout(silent_upstream):
    """Every other credential is one a request may carry, so those calls
    reach the upstream and time out; the others are refused unsent."""
    credentials = [('"', ";\u00e9") if i % 2 else ("\r\n", " \ud800")
                   for i in range(len(MARKERS))]
    assert_no_marker_escapes([silent_upstream], credentials, timeout=0.2)


def assert_no_marker_escapes(base_urls: list[str], credentials: list[tuple[str, str]],
                             timeout: float) -> None:
    """Each tool called once through `serve` against each upstream, with
    each allauth.yaml credential a marker between the (before, after) text
    drawn for it: one line per call, and no line or log record holds a
    marker."""
    env = {binding.env_var: before + marker + after for binding, marker, (before, after)
           in zip(ALLAUTH.bindings, MARKERS, credentials)}
    records = _Records()
    root, runtime_log = logging.getLogger(), logging.getLogger("automcp")
    root.addHandler(records)
    level, runtime_log.level = runtime_log.level, logging.DEBUG
    try:
        for base_url in base_urls:
            manifest = dataclasses.replace(ALLAUTH.manifest, base_url=base_url)
            stdout = io.StringIO()
            serve(manifest, env, stdin=io.StringIO(CALL_LINES), stdout=stdout, timeout=timeout)
            *lines, last = stdout.getvalue().split("\n")
            assert last == ""
            assert sorted(json.loads(line)["id"] for line in lines) == list(
                range(len(manifest.tools)))
            for line in lines:
                assert not any(marker in line for marker in MARKERS), line
    finally:
        root.removeHandler(records)
        runtime_log.level = level
    for line in records.lines:
        assert not any(marker in line for marker in MARKERS), line


def _raw(head: str, body: bytes = b"", length: int | None = None) -> bytes:
    """A raw HTTP/1.1 response: `head` is its status line and headers,
    and its `Content-Length` is `length`, else the body's."""
    length = len(body) if length is None else length
    return f"HTTP/1.1 {head}\r\nContent-Length: {length}\r\n\r\n".encode() + body


JSON_200 = "200 OK\r\nContent-Type: application/json"
TEXT_200 = "200 OK\r\nContent-Type: text/plain"
HOSTILE_RESPONSES = {
    "lone-surrogate": (_raw(JSON_200, b'"\\ud800"'), False),
    "bad-utf8-json": (_raw(JSON_200, b'{"a": "\xff\xfe"}'), False),
    "bad-utf8-text": (_raw(TEXT_200, b"\xff\xfe text"), False),
    "html-as-json": (_raw(JSON_200, b"<html><body>oops</body></html>"), False),
    "empty-200": (_raw(JSON_200), False),
    "latin-1": (_raw(TEXT_200 + "; charset=iso-8859-1", "café".encode("latin-1")),
                False),
    "nan": (_raw(JSON_200, b'{"x": NaN}'), False),
    "5000-digits": (_raw(JSON_200, b"7" * 5000), False),
    "204-with-body": (_raw("204 No Content", b"surprise"), False),
    "short-body": (_raw(JSON_200, b'{"a": 1}', length=100), True),
    "cut-chunk": (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                  b"Transfer-Encoding: chunked\r\n\r\n10\r\n{\"a\": ", True),
}


def _one_shot(response: bytes) -> tuple[str, threading.Thread]:
    """The base URL of an upstream that reads one request's head, writes
    `response` as it is and closes, and the thread that serves it."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        with listener, listener.accept()[0] as conn:
            conn.settimeout(5)
            request = b""
            while b"\r\n\r\n" not in request:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                request += chunk
            conn.sendall(response)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return f"http://127.0.0.1:{listener.getsockname()[1]}", thread


@pytest.mark.parametrize("name", HOSTILE_RESPONSES)
def test_hostile_upstream_response_gets_one_utf8_json_line(name, tmp_path, caplog):
    """Whatever bytes the upstream answers with, the call gets exactly one
    line of strict JSON that encodes as UTF-8. A 2xx is no tool error; a
    body the connection cuts short is a `TransportError` one."""
    response, truncated = HOSTILE_RESPONSES[name]
    spec = tmp_path / "hostile.json"
    spec.write_text(json.dumps({
        "openapi": "3.0.3", "info": {"title": "Hostile", "version": "1"},
        "servers": [{"url": "https://hostile.example"}],
        "paths": {"/thing": {"get": {"operationId": "get_thing",
                                     "responses": {"200": {"description": "ok"}}}}},
    }), encoding="utf-8")
    base_url, thread = _one_shot(response)
    manifest = dataclasses.replace(compile_file(spec).manifest, base_url=base_url)
    stdout = io.StringIO()
    with caplog.at_level(logging.WARNING):
        serve(manifest, {}, stdin=io.StringIO(request_line(
            ("tools/call", {"name": "get_thing", "arguments": {}}), 1) + "\n"),
            stdout=stdout, timeout=5)
    thread.join(5)
    [line] = stdout.getvalue().splitlines()
    line.encode("utf-8")
    result = strict_json(line)["result"]
    assert result["isError"] is truncated
    assert result["content"][0]["text"].startswith("TransportError: ") is truncated
    assert caplog.records == []
