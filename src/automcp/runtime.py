"""Serve a compiled manifest over newline-delimited JSON-RPC 2.0 on stdio.

`tools/call` requests are translated into authenticated HTTP requests
against the upstream base URL. Upstream calls may overlap (a small worker
pool), but every write to the output stream goes through one lock, so
each emitted line is exactly one complete JSON-RPC message. Credential
values never appear on the stdio channel or in logs. Every request with
an allowed id (a string, a number or null) gets exactly one line; any
other id is answered once, with a null id.

The `tools/list` result is encoded once per session, at the first
`tools/list`, not at start-up, so `initialize` does no extra work. Each
reply splices its request's id into that text, byte for byte the line
that encoding the whole reply would give.

`requests` is imported by the first `tools/call`, not at start-up, so
`initialize` and `tools/list` are answered without loading an HTTP
client. That first call pays the import once: about 58 ms against about
2 ms for a later call, on a 2-vCPU VM where a bare interpreter starts in
31 ms.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import re
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from urllib.parse import quote, quote_plus, urljoin, urlsplit

from ._version import __version__ as _version
from .compiler import ToolManifest, ToolSpec, tools_list_payload
from .envfile import EXTRA_HEADERS_VAR
from .errors import (
    ExtraHeadersParseError,
    MissingCredential,
    SchemaViolation,
    TransportError,
    UnsendableCredential,
)
from .ingest import PATH_VARIABLE
from .jsonout import dumps, encodes
from .security import (
    EnvBinding,
    KIND_API_KEY,
    KIND_HTTP_BASIC,
    KIND_HTTP_BEARER,
    KIND_OAUTH2,
    SecurityScheme,
    build_env_map,
)

logger = logging.getLogger("automcp.runtime")

PROTOCOL_VERSIONS = ("2024-11-05", "2025-03-26", "2025-06-18")
DEFAULT_TIMEOUT_SECONDS = 30.0
_CALL_WORKERS = 4  # upstream calls in flight at once under `serve`
_MAX_REDIRECTS = 5  # same-origin redirects `_send` follows
_REDIRECTS = (301, 302, 303, 307, 308)
# RFC 6265 §4.1.1's cookie-octet: US-ASCII but controls, whitespace, DQUOTE, `,`, `;`, `\`
_COOKIE_OCTETS = re.compile(r"[\x21\x23-\x2b\x2d-\x3a\x3c-\x5b\x5d-\x7e]*")
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # a header name (RFC 9110 §5.6.2)
REDACTED = "***"

_RPC_PARSE_ERROR = -32700
_RPC_INVALID_PARAMS = -32602
_RPC_METHOD_NOT_FOUND = -32601
_RPC_INTERNAL = -32603


@dataclass
class AuthPlan:
    headers: dict[str, str] = field(default_factory=dict)
    query: dict[str, str] = field(default_factory=dict)


@dataclass
class InvocationResult:
    http_status: int
    body: object
    is_error: bool


def resolve_auth(
    requirements: list[dict],
    schemes: list[SecurityScheme],
    env: dict[str, str],
    bindings: list[EnvBinding],
) -> AuthPlan:
    """Build the header/query injection plan for one endpoint.

    Requirement sets are alternatives; within a set every scheme applies.
    The first set whose bindings are all satisfied by `env` wins. Raises
    MissingCredential (naming the first unmet variable, and why for a
    value its place cannot carry) when none is. Every scheme a set names
    is in `schemes` and bound in `bindings`, as compile makes them.
    """
    if not requirements:
        return AuthPlan()
    by_scheme: dict[str, list[EnvBinding]] = {}
    for binding in bindings:
        by_scheme.setdefault(binding.scheme_id, []).append(binding)
    scheme_map = {s.id: s for s in schemes}

    first_unmet: MissingCredential | None = None
    for requirement in requirements:
        plan = AuthPlan()
        unmet: MissingCredential | None = None
        for scheme_id in requirement:
            unmet = _apply_scheme(plan, scheme_map[scheme_id], by_scheme[scheme_id], env)
            if unmet is not None:
                break
        if unmet is None:
            return plan
        first_unmet = first_unmet or unmet
    raise first_unmet


def _apply_scheme(
    plan: AuthPlan,
    scheme: SecurityScheme,
    scheme_bindings: list[EnvBinding],
    env: dict[str, str],
) -> MissingCredential | None:
    """Inject one scheme into the plan; returns why it is unmet (an empty
    variable, or a value its place cannot carry) instead of mutating
    further. Basic's values, which it encodes, and a query key are checked
    as UTF-8 text; any other value as it is sent (`_unsendable`): an API
    key by its location, a Bearer or OAuth2 token as `Bearer <token>`."""
    place = ("utf-8" if scheme.kind == KIND_HTTP_BASIC or scheme.location == "query"
             else "cookie" if scheme.location == "cookie" else "header")
    prefix = "" if scheme.kind in (KIND_API_KEY, KIND_HTTP_BASIC) else "Bearer "
    values = {}
    for binding in scheme_bindings:
        value = env.get(binding.env_var, "")
        if not value:
            return MissingCredential(binding.env_var)
        what = _unsendable(prefix + value, place)
        if what is not None:
            return UnsendableCredential(binding.env_var, what)
        values[binding.role] = prefix + value

    if scheme.kind == KIND_HTTP_BASIC:
        userpass = f"{values.get('USERNAME', '')}:{values.get('PASSWORD', '')}"
        token = base64.b64encode(userpass.encode()).decode()
        plan.headers["Authorization"] = f"Basic {token}"
        return None
    sent = next(iter(values.values()))
    if place == "utf-8":
        plan.query[scheme.parameter_name] = sent
    elif place == "cookie":
        pairs = [plan.headers["Cookie"]] if "Cookie" in plan.headers else []
        plan.headers["Cookie"] = "; ".join([*pairs, f"{scheme.parameter_name}={sent}"])
    else:
        plan.headers["Authorization" if prefix else scheme.parameter_name] = sent
    return None


def merge_extra_headers(plan: AuthPlan, env: dict[str, str]) -> AuthPlan:
    """Merge the EXTRA_HEADERS JSON object into the plan's headers,
    overriding case-insensitively. A no-op when the variable is unset."""
    raw = env.get(EXTRA_HEADERS_VAR, "").strip()
    if not raw:
        return plan
    extra = parse_extra_headers(raw)
    lowered = {k.lower(): k for k in plan.headers}
    for name, value in extra.items():
        existing = lowered.get(name.lower())
        if existing is not None and existing != name:
            del plan.headers[existing]
        plan.headers[name] = value
        lowered[name.lower()] = name
    return plan


def parse_extra_headers(raw: str) -> dict[str, str]:
    try:
        parsed = json.loads(raw)
    except ValueError as exc:
        raise ExtraHeadersParseError(f"EXTRA_HEADERS is not valid JSON: {exc}") from exc
    if not isinstance(parsed, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in parsed.items()
    ):
        raise ExtraHeadersParseError(
            "EXTRA_HEADERS must be a JSON object of string -> string"
        )
    for name, value in parsed.items():  # by the rules of RFC 9110 §5.1 and §5.5
        if not _TOKEN.fullmatch(name) or _unsendable(value, "header") is not None:
            raise ExtraHeadersParseError(
                f"EXTRA_HEADERS entry {name!r} needs a token name and a Latin-1 value "
                "with no CR, LF or NUL and no leading or trailing space or tab")
    return parsed


def validate_args(args: object, schema: dict) -> list[str]:
    """Check arguments against a closed input schema; returns problems."""
    problems: list[str] = []
    if not isinstance(args, dict):
        return [f"arguments must be an object, got {type(args).__name__}"]
    properties = schema.get("properties", {})
    for key in args:
        if key not in properties:
            problems.append(f"unexpected argument {key!r}")
    for key in schema.get("required", []):
        if key not in args:
            problems.append(f"missing required argument {key!r}")
    for key, value in args.items():
        declared = properties.get(key, {})
        expected = declared.get("type")
        if expected and not _type_ok(value, expected):
            problems.append(
                f"argument {key!r} should be of type {expected}, "
                f"got {type(value).__name__}"
            )
    return problems


def _type_ok(value, expected) -> bool:
    if isinstance(expected, list):
        return any(_type_ok(value, e) for e in expected)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "array":
        return isinstance(value, list)
    if expected == "object":
        return isinstance(value, dict)
    if expected == "null":
        return value is None
    return True


def bindings_for(manifest: ToolManifest) -> list[EnvBinding]:
    """Bindings are a pure function of the schemes and title, so the
    runtime can rederive them instead of persisting them."""
    return build_env_map(manifest.schemes, manifest.api_title)[0]


def invoke_tool(
    tool: ToolSpec,
    args: dict,
    env: dict[str, str],
    base_url: str,
    schemes: list[SecurityScheme],
    bindings: list[EnvBinding],
    timeout: float = DEFAULT_TIMEOUT_SECONDS,
) -> InvocationResult:
    """Translate one tool call into an upstream HTTP request.

    Raises SchemaViolation / MissingCredential before any request is
    issued; network failures surface as TransportError. A credential slot
    is never filled from `args`: the compiler put its scheme in every
    requirement set of `security`.
    """
    problems = validate_args(args, tool.input_schema)
    if problems:
        raise SchemaViolation("; ".join(problems))
    ep = tool.endpoint

    path_values: dict[str, tuple[str, str]] = {}  # name -> (quoted text, argument)
    query: dict[str, object] = {}
    headers: dict[str, str] = {}
    cookies: list[str] = []
    for param in ep.parameters:
        arg = param.sanitized_name
        if param.is_credential or arg not in args:
            continue  # `validate_args` requires each path parameter
        value = args[arg]
        if param.location == "path":
            path_values[param.name] = (quote(_argument_text(arg, value, "utf-8"), safe=""), arg)
        elif param.location == "query":
            _add_field(query, param.name, value, arg)
        elif param.location == "header":
            headers[param.name] = _argument_text(arg, value, "header")
        elif param.location == "cookie":
            cookies.append(f"{param.name}={_argument_text(arg, value, 'cookie')}")
    path = _fill_path(ep.path_template, path_values)

    plan = resolve_auth(ep.security, schemes, env, bindings)
    plan = merge_extra_headers(plan, env)
    # merge auth and EXTRA_HEADERS cookies, by any name case, with cookie params
    plan_cookies = [plan.headers.pop(n) for n in list(plan.headers) if n.lower() == "cookie"]
    cookies += [cookie for cookie in plan_cookies if cookie]
    headers.update(plan.headers)
    if cookies:
        headers["Cookie"] = "; ".join(cookies)
    query.update(plan.query)

    body_kwargs: dict = {}
    if ep.request_content_type is not None and "body" in args:
        content_type = ep.request_content_type or "application/json"
        if content_type == "application/x-www-form-urlencoded" and isinstance(
            args["body"], dict
        ):
            form: dict[str, object] = {}
            for name, value in args["body"].items():
                _add_field(form, _argument_text("body", name, "utf-8"), value, "body")
            body_kwargs["data"] = form
        elif "json" in content_type:
            body_kwargs["json"] = args["body"]  # written as ASCII JSON
        else:
            body_kwargs["data"] = _argument_text("body", args["body"], "utf-8")
        # the declared media type, unless a header (a parameter, say) sets one
        if not any(name.lower() == "content-type" for name in headers):
            headers["Content-Type"] = content_type

    url = base_url.rstrip("/") + path
    try:
        response = _send(ep.method, url, query, headers, body_kwargs, timeout)
    except TransportError as exc:
        secrets = _bound_secrets(schemes, bindings, env)
        raise TransportError(
            f"{ep.method} {_redact(url, secrets)}: {_redact(str(exc), secrets)}") from exc

    body: object
    content_type = response.headers.get("Content-Type", "")
    if "json" in content_type:
        try:
            body = response.json()
        except (ValueError, RecursionError):  # not JSON, or nested too deep
            body = response.text
    else:
        body = response.text

    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("%s %s -> %s", ep.method,
                     _redact(response.url, _bound_secrets(schemes, bindings, env)),
                     response.status_code)
    return InvocationResult(
        http_status=response.status_code,
        body=body,
        is_error=not (200 <= response.status_code <= 299),
    )


def _send(method: str, url: str, query: dict, headers: dict, body_kwargs: dict,
          timeout: float):
    """The one place an upstream request leaves: `requests.request`, its
    response returned. A `requests.RequestException` or ValueError is raised
    as a TransportError whose text is not redacted: the caller redacts it.
    Up to `_MAX_REDIRECTS` same-origin redirects are followed: a 303, or
    a 301 or 302 after a POST, as a bodiless GET, a 307 or 308 as sent."""
    import requests  # see the module docstring

    try:
        for hop in range(_MAX_REDIRECTS + 1):
            response = requests.request(method, url, params=query, headers=headers,
                                        auth=_no_netrc, timeout=timeout,
                                        allow_redirects=False, **body_kwargs)
            status, location = response.status_code, response.headers.get("Location")
            if hop == _MAX_REDIRECTS or status not in _REDIRECTS or location is None:
                return response
            url, query = _same_origin(response.url, location), {}  # a Location's own query
            if url is None:
                return response
            if status == 303 or status in (301, 302) and method == "POST":
                method, body_kwargs = "GET", {}
                headers = {k: v for k, v in headers.items() if k.lower() != "content-type"}
    except (requests.RequestException, ValueError) as exc:  # ValueError: a bad Location
        raise TransportError(f"{exc.__class__.__name__}: {exc}") from exc


def _same_origin(url: str, location: str) -> str | None:
    """`location` resolved against `url`, if it keeps its scheme, host and port."""
    try:
        target = urljoin(url, location)
        origins = {(p.scheme, p.hostname, p.port or {"http": 80, "https": 443}.get(p.scheme))
                   for p in map(urlsplit, (url, target))}
    except ValueError:  # a port that is not a number, say
        return None
    return target if len(origins) == 1 else None


def _no_netrc(request):
    """A requests `auth` hook that leaves the request as built. Passing
    any auth stops requests from replacing the Authorization header with
    a ~/.netrc entry; proxy and CA settings from the env still apply."""
    return request


def _add_field(fields: dict[str, object], name: str, value, arg: str) -> None:
    """A query or form field as it is sent: each value through
    `_argument_text`, a list as repeated keys, None left out."""
    if isinstance(value, list):
        fields[name] = [_argument_text(arg, v, "utf-8") for v in value if v is not None]
    elif value is not None:
        fields[name] = _argument_text(arg, value, "utf-8")


def _argument_text(arg: str, value, place: str) -> str:
    """The argument `arg`'s value as its place sends it: a string as
    itself, any other value as its JSON text (`true`, `3`, `NaN`,
    `{"a": 1}`). Raises SchemaViolation, naming `arg` and never the value,
    when `_unsendable` finds the place cannot carry it."""
    text = value if isinstance(value, str) else json.dumps(value)
    what = _unsendable(text, place)
    if what is not None:
        raise SchemaViolation(f"argument {arg!r} cannot be sent as {what}")
    return text


def _unsendable(text: str, place: str) -> str | None:
    """What `text` is not that its place in a request needs, or None. A
    `"utf-8"` place (a path, query or body) takes UTF-8 text. A `"header"`
    value takes Latin-1 text with no CR, LF or NUL and no leading or
    trailing space or tab (RFC 9110 §5.5); a `"cookie"` value, Latin-1 text
    of cookie-octets only (RFC 6265 §4.1.1), so that it cannot add a cookie
    or change one. The codec is checked first."""
    codec = "utf-8" if place == "utf-8" else "latin-1"
    if not encodes(text, codec):
        return f"{codec} text"
    if place == "header" and (text.strip(" \t") != text or any(ch in text for ch in "\r\n\0")):
        return "a header value"
    if place == "cookie" and not _COOKIE_OCTETS.fullmatch(text):
        return "a cookie value"
    return None


def _fill_path(template: str, values: dict[str, tuple[str, str]]) -> str:
    """`template` with each variable in `values`, a name's quoted text and
    argument, put in its place. Raises SchemaViolation, naming a segment's
    first argument, when arguments leave it empty, `.` or `..`: urllib3
    removes dot segments (RFC 3986 §5.2.4), so the request would reach
    another resource. Such a segment is refused, not percent-encoded."""
    path, first = "", {}  # first: a segment's index -> the first argument in it
    for i, piece in enumerate(PATH_VARIABLE.split(template)):
        text, arg = values.get(piece, ("{%s}" % piece, None)) if i % 2 else (piece, None)
        if arg is not None:
            first.setdefault(path.count("/"), arg)  # a quoted argument holds no `/`
        path += text
    segments = path.split("/")
    for index, arg in first.items():
        if segments[index] in ("", ".", ".."):
            raise SchemaViolation(
                f"argument {arg!r} cannot be sent as a path segment: it would be "
                "empty or a dot segment")
    return path


def _bound_secrets(
    schemes: list[SecurityScheme], bindings: list[EnvBinding], env: dict[str, str]
) -> set[str]:
    """Every credential value bound in `env`, plus the Basic tokens
    derived from them: the one set every redaction uses."""
    secrets = {env.get(b.env_var, "") for b in bindings} - {""}
    for scheme in schemes:
        if scheme.kind == KIND_HTTP_BASIC:
            plan = AuthPlan()
            scheme_bindings = [b for b in bindings if b.scheme_id == scheme.id]
            if _apply_scheme(plan, scheme, scheme_bindings, env) is None:
                secrets.add(plan.headers["Authorization"].removeprefix("Basic "))
    return secrets


def _redact(text: str, secrets: set[str]) -> str:
    # longest first, so a secret inside another cannot leave part of it; then
    # quoted for a path and for a query, a lone surrogate without raising
    for secret in sorted(secrets, key=len, reverse=True):
        if secret:
            text = text.replace(secret, REDACTED)
            text = text.replace(quote(secret, "", errors="surrogatepass"), REDACTED)
            text = text.replace(quote_plus(secret, "", errors="surrogatepass"), REDACTED)
    return text


# -- the stdio server ---------------------------------------------------------


class _Writer:
    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, message: dict) -> None:
        self.write(dumps(message))

    def write(self, line: str) -> None:
        """Write one encoded JSON-RPC message as one line."""
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


# `dumps` of a tools/list reply, with its id and tools text spliced in
_TOOLS_LIST_LINE = '{"jsonrpc": "2.0", "id": %s, "result": {"tools": %s}}'


class _Session:
    """The state of one `serve` call. The manifest never changes while it
    runs, so the `tools/list` result is encoded once, at the session's
    first `tools/list`, and each reply splices its id into that text."""

    def __init__(self, manifest: ToolManifest, env: dict[str, str],
                 writer: _Writer, pool: ThreadPoolExecutor, timeout: float) -> None:
        self.manifest = manifest
        self.env = env
        self.bindings = bindings_for(manifest)
        self.writer = writer
        self.pool = pool
        self.timeout = timeout
        # the tools array as `dumps` writes it (None if no UTF-8 can hold
        # it), and the same `\u`-escaped: set at the first `tools/list`
        self._tools: tuple[str | None, str] | None = None

    def tools_list_line(self, msg_id) -> str:
        """`dumps({"jsonrpc": "2.0", "id": msg_id, "result": {"tools":
        tools_list_payload(manifest)}})`, byte for byte: when the id or the
        tools text will not encode as UTF-8, the whole line is escaped."""
        if self._tools is None:
            payload = tools_list_payload(self.manifest)
            text = json.dumps(payload, ensure_ascii=False)
            self._tools = (text if encodes(text) else None,
                           text if text.isascii() else json.dumps(payload))
        text, escaped = self._tools
        id_text = json.dumps(msg_id, ensure_ascii=False)
        if text is not None and encodes(id_text):
            return _TOOLS_LIST_LINE % (id_text, text)
        return _TOOLS_LIST_LINE % (json.dumps(msg_id), escaped)


def serve(
    manifest: ToolManifest,
    env: dict[str, str],
    stdin=None,
    stdout=None,
    timeout: float = DEFAULT_TIMEOUT_SECONDS,
) -> None:
    """Run the JSON-RPC loop until the input stream closes.

    The env snapshot is taken once here; EXTRA_HEADERS is validated at
    startup so a malformed value fails fast rather than per call.
    """
    if env.get(EXTRA_HEADERS_VAR, "").strip():
        parse_extra_headers(env[EXTRA_HEADERS_VAR])
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    writer = _Writer(stdout)
    pool = ThreadPoolExecutor(max_workers=_CALL_WORKERS)
    session = _Session(manifest, env, writer, pool, timeout)
    try:
        for line in stdin:
            line = line.strip()
            if not line:
                continue
            try:
                message = json.loads(line)
            except (ValueError, RecursionError):
                writer.send(_error_response(None, _RPC_PARSE_ERROR, "parse error"))
                continue
            well_formed = isinstance(message, dict) and _is_id(message.get("id"))
            if well_formed and isinstance(message.get("method"), str):
                _dispatch(session, message)
                continue
            writer.send(
                _error_response(
                    message.get("id") if well_formed else None,
                    _RPC_INVALID_PARAMS,
                    "not a JSON-RPC request",
                )
            )
    finally:
        pool.shutdown(wait=True)


def _is_id(value) -> bool:
    """JSON-RPC 2.0 §4: an id is a string, a number or null. A bool is no
    number, and neither are NaN and the infinities, which JSON cannot hold;
    such an id is never echoed."""
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or (isinstance(value, (str, int)) and not isinstance(value, bool))


def _dispatch(session: _Session, message: dict) -> None:
    method = message["method"]
    params = message.get("params") or {}
    if "id" in message:
        def reply(response: dict) -> None:
            session.writer.send({"jsonrpc": "2.0", "id": message["id"], **response})
    else:  # a notification is never answered
        def reply(response: dict) -> None:
            pass

    if method == "initialize":
        requested = None
        if isinstance(params, dict):
            requested = params.get("protocolVersion")
        version = requested if requested in PROTOCOL_VERSIONS else PROTOCOL_VERSIONS[-1]
        reply(
            {
                "result": {
                    "protocolVersion": version,
                    "capabilities": {"tools": {}},
                    "serverInfo": {"name": session.manifest.api_title, "version": _version},
                },
            }
        )
    elif method == "ping":
        reply({"result": {}})
    elif method == "tools/list":
        if "id" in message:
            session.writer.write(session.tools_list_line(message["id"]))
    elif method == "tools/call":
        if not isinstance(params, dict) or not isinstance(params.get("name"), str):
            reply(_error(_RPC_INVALID_PARAMS, "params must carry a tool `name`"))
            return
        tool = session.manifest.tool(params["name"])
        if tool is None:
            reply(_error(_RPC_INVALID_PARAMS, f"unknown tool {params['name']!r}"))
            return
        arguments = params.get("arguments") or {}
        session.pool.submit(_run_call, session, tool, arguments, reply)
    else:  # `notifications/...` with an id too: a request is always answered
        reply(_error(_RPC_METHOD_NOT_FOUND, f"unknown method {method!r}"))


def _run_call(session: _Session, tool: ToolSpec, arguments, reply) -> None:
    """Answer one `tools/call` exactly once: with its result, or with one
    `-32603` error if building or writing that reply raises."""
    try:
        reply({"result": _call_result(session, tool, arguments)})
    except Exception as exc:  # noqa: BLE001 - surface as protocol error
        secrets = _bound_secrets(session.manifest.schemes, session.bindings, session.env)
        detail = _redact(str(exc), secrets)
        # frames only: logger.exception would repeat the unredacted message
        logger.error("tool call %s failed unexpectedly: %s: %s\n%s",
                     tool.tool_name, exc.__class__.__name__, detail,
                     "".join(traceback.format_tb(exc.__traceback__)).rstrip())
        reply(_error(_RPC_INTERNAL, detail))


def _call_result(session: _Session, tool: ToolSpec, arguments) -> dict:
    try:
        result = invoke_tool(
            tool, arguments, session.env, session.manifest.base_url,
            session.manifest.schemes, session.bindings, timeout=session.timeout,
        )
    except (SchemaViolation, MissingCredential, TransportError) as exc:
        return {
            "content": [{"type": "text", "text": f"{exc.__class__.__name__}: {exc}"}],
            "isError": True,
        }
    if result.is_error:
        payload = json.dumps(
            {"httpStatus": result.http_status, "body": result.body},
            ensure_ascii=False,
        )
    else:
        payload = json.dumps(result.body, ensure_ascii=False)
    return {
        "content": [{"type": "text", "text": payload}],
        "isError": result.is_error,
    }


def _error(code: int, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


def _error_response(msg_id, code: int, message: str) -> dict:
    return {"jsonrpc": "2.0", "id": msg_id, **_error(code, message)}
