"""In-process mock of the upstream REST API described by a manifest.

Every manifest endpoint is served: the handler matches method + path
template, enforces the credentials it was configured with, echoes the
received parameters, and keeps an in-memory resource store so a create
followed by a read observes the new resource. Credential values are
redacted from echo bodies; the full request, with the operation that
served it and each template variable decoded, is kept only in the
in-memory record list for assertions.
"""

from __future__ import annotations

import base64
import json
import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from .compiler import ToolManifest, ToolSpec
from .ingest import PATH_VARIABLE
from .security import KIND_API_KEY, KIND_HTTP_BASIC, SecurityScheme

ENFORCE_PER_ENDPOINT = "per_endpoint"
ENFORCE_GLOBAL = "global"

_REDACTED = "***"


@dataclass
class RequestRecord:
    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: object
    tool_name: str | None = None
    path_params: dict[str, str] = field(default_factory=dict)  # decoded
    status: int = 0


@dataclass
class _Route:
    tool: ToolSpec
    pattern: re.Pattern  # one group per template variable
    names: tuple[str, ...]  # the template variables, in order


@dataclass
class MockConfig:
    credentials: dict[str, object] = field(default_factory=dict)
    required_headers: dict[str, str] = field(default_factory=dict)
    enforce: str = ENFORCE_PER_ENDPOINT


class MockUpstream:
    """Lifecycle wrapper around the HTTP server thread."""

    def __init__(self, manifest: ToolManifest, config: MockConfig | None = None) -> None:
        self.manifest = manifest
        self.config = config or MockConfig()
        self.routes = [
            _Route(tool, *_compile_template(tool.endpoint.path_template))
            for tool in manifest.tools
        ]
        self.records: list[RequestRecord] = []
        self.store: dict[str, list[dict]] = {}
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05), daemon=True
        )

    # -- lifecycle

    def start(self) -> "MockUpstream":
        if not self._thread.is_alive():
            self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def __enter__(self) -> "MockUpstream":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def reset(self) -> None:
        with self._lock:
            self.records.clear()
            self.store.clear()

    def last_record(self) -> RequestRecord | None:
        with self._lock:
            return self.records[-1] if self.records else None

    # -- request handling

    def _handler_class(self):
        mock = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True  # a body written after its head leaves at once

            def log_message(self, *args) -> None:
                pass

            def _serve(self) -> None:
                mock._handle(self)

            do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _serve
            do_HEAD = do_OPTIONS = _serve

        return Handler

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(request.path)
        # Match on the still-encoded path: an encoded "/" inside one
        # segment must not look like a segment separator.
        path = parsed.path
        query = {k: v[0] for k, v
                 in parse_qs(parsed.query, keep_blank_values=True).items()}
        headers = {k: v for k, v in request.headers.items()}
        length = int(request.headers.get("Content-Length", 0) or 0)  # names in any case
        raw_body = request.rfile.read(length) if length else b""
        body: object = None
        if raw_body:
            content_type = request.headers.get("Content-Type", "")
            if "application/x-www-form-urlencoded" in content_type:
                pairs = parse_qs(raw_body.decode("utf-8", "replace"),
                                 keep_blank_values=True)
                body = {k: v[0] for k, v in pairs.items()}
            else:
                try:
                    body = json.loads(raw_body)
                except ValueError:
                    body = raw_body.decode("utf-8", "replace")

        record = RequestRecord(
            method=request.command, path=path, query=query,
            headers=headers, body=body,
        )
        matched = self._match(request.command, path)
        if matched is None:
            self._finish(request, record, 404, {
                "error": "no matching operation in manifest",
                "method": request.command,
                "path": path,
            })
            return
        route, found = matched
        record.tool_name = route.tool.tool_name
        record.path_params = dict(zip(route.names, map(unquote, found.groups())))

        missing_header = self._missing_required_header(headers)
        if missing_header:
            self._finish(request, record, 400, {
                "error": "missing required header",
                "header": missing_header,
            })
            return

        auth_problem = self._check_auth(route.tool, headers, query)
        if auth_problem:
            self._finish(request, record, 401, {"error": auth_problem})
            return

        status, payload = self._apply(route.tool, path, query, body)
        self._finish(request, record, status, payload)

    def _match(self, method: str, path: str) -> tuple[_Route, re.Match] | None:
        # prefer the most literal matching template (document order on ties)
        matches = [(route, found) for route in self.routes
                   if route.tool.endpoint.method == method
                   and (found := route.pattern.match(path))]
        return min(matches, key=lambda match: len(match[0].names), default=None)

    def _missing_required_header(self, headers: dict[str, str]) -> str | None:
        lowered = {k.lower(): v for k, v in headers.items()}
        for name, expected in self.config.required_headers.items():
            if lowered.get(name.lower()) != expected:
                return name
        return None

    def _check_auth(
        self, tool: ToolSpec, headers: dict[str, str], query: dict[str, str]
    ) -> str | None:
        if not self.config.credentials:
            return None
        schemes = {s.id: s for s in self.manifest.schemes}
        if self.config.enforce == ENFORCE_GLOBAL:
            for scheme_id in self.config.credentials:
                scheme = schemes.get(scheme_id)
                if scheme and self._scheme_satisfied(scheme, headers, query):
                    return None
            return "unauthorized: no configured scheme satisfied"

        requirements = tool.endpoint.security
        if not requirements:
            return None
        for requirement in requirements:
            if all(
                schemes.get(scheme_id) is not None
                and self._scheme_satisfied(schemes[scheme_id], headers, query)
                for scheme_id in requirement
            ):
                return None
        return "unauthorized: required credentials absent or wrong"

    def _scheme_satisfied(
        self, scheme: SecurityScheme, headers: dict[str, str], query: dict[str, str]
    ) -> bool:
        expected = self.config.credentials.get(scheme.id)
        if expected is None:
            return False
        lowered = {k.lower(): v for k, v in headers.items()}
        if scheme.kind == KIND_API_KEY:
            if scheme.location == "header":
                return lowered.get(scheme.parameter_name.lower()) == expected
            if scheme.location == "query":
                return query.get(scheme.parameter_name) == expected
            # each `name=value` pair of the header (RFC 6265 §4.2.1), matched whole
            pairs = (pair.strip().partition("=") for pair in lowered.get("cookie", "").split(";"))
            return (scheme.parameter_name, "=", expected) in pairs
        if scheme.kind == KIND_HTTP_BASIC:
            user, password = expected  # type: ignore[misc]
            token = base64.b64encode(f"{user}:{password}".encode()).decode()
            return lowered.get("authorization") == f"Basic {token}"
        return lowered.get("authorization") == f"Bearer {expected}"  # bearer, oauth2

    def _apply(
        self, tool: ToolSpec, path: str, query: dict[str, str], body: object
    ) -> tuple[int, dict]:
        echo = {
            "method": tool.endpoint.method,
            "path": path,
            "query": self._redact_query(query),
            "body": body,
        }
        payload: dict = {"echo": echo, "tool": tool.tool_name}
        with self._lock:
            if tool.endpoint.method == "POST":
                resource = dict(body) if isinstance(body, dict) else {"value": body}
                if "id" not in resource:
                    resource["id"] = str(len(self.store.get(path, [])) + 1)
                self.store.setdefault(path, []).append(resource)
                payload["created"] = resource
            elif tool.endpoint.method == "GET":
                payload["items"] = list(self.store.get(path, []))
            elif tool.endpoint.method in ("PUT", "PATCH"):
                payload["updated"] = body
            elif tool.endpoint.method == "DELETE":
                self.store.pop(path, None)
                payload["deleted"] = True
        return tool.endpoint.success_status, payload

    def _redact_query(self, query: dict[str, str]) -> dict[str, str]:
        secrets = {
            v for v in self.config.credentials.values() if isinstance(v, str)
        }
        return {
            k: (_REDACTED if v in secrets else v) for k, v in query.items()
        }

    def _finish(
        self, request: BaseHTTPRequestHandler, record: RequestRecord,
        status: int, payload: dict,
    ) -> None:
        record.status = status
        with self._lock:
            self.records.append(record)
        request.send_response(status)
        if status in (204, 304):  # no content (RFC 9110 §15.3.5, §15.4.5)
            request.end_headers()
            return
        data = json.dumps(payload).encode()
        request.send_header("Content-Type", "application/json")
        request.send_header("Content-Length", str(len(data)))
        request.end_headers()
        if request.command != "HEAD":
            request.wfile.write(data)


def run_mock_upstream(
    manifest: ToolManifest,
    credentials: dict[str, object] | None = None,
    required_headers: dict[str, str] | None = None,
    enforce: str = ENFORCE_PER_ENDPOINT,
) -> MockUpstream:
    """Start a mock upstream for the manifest; caller owns stop()."""
    config = MockConfig(credentials or {}, required_headers or {}, enforce)
    return MockUpstream(manifest, config).start()


def _compile_template(template: str) -> tuple[re.Pattern, tuple[str, ...]]:
    pieces = PATH_VARIABLE.split(template)
    pattern = "".join(r"([^/]+)" if i % 2 else re.escape(p) for i, p in enumerate(pieces))
    return re.compile("^" + pattern + "$"), tuple(pieces[1::2])
