"""Serve a compiled manifest over newline-delimited JSON-RPC 2.0 on stdio.

`tools/call` requests are translated into authenticated HTTP requests
against the upstream base URL. Upstream calls may overlap (a small worker
pool), but every write to the output stream goes through one lock, so
each emitted line is exactly one complete JSON-RPC message. Credential
values never appear on the stdio channel or in logs.

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
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from urllib.parse import quote, quote_plus

from ._version import __version__ as _version
from .compiler import ToolManifest, ToolSpec, tools_list_payload
from .envfile import EXTRA_HEADERS_VAR
from .errors import (
    ExtraHeadersParseError,
    MissingCredential,
    SchemaViolation,
    TransportError,
)
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
    MissingCredential (naming the first unmet variable) when none is.
    """
    if not requirements:
        return AuthPlan()
    by_scheme: dict[str, list[EnvBinding]] = {}
    for binding in bindings:
        by_scheme.setdefault(binding.scheme_id, []).append(binding)
    scheme_map = {s.id: s for s in schemes}

    first_missing: str | None = None
    for requirement in requirements:
        plan = AuthPlan()
        missing: str | None = None
        for scheme_id in requirement:
            scheme = scheme_map.get(scheme_id)
            if scheme is None:
                missing = f"(undeclared scheme {scheme_id!r})"
                break
            missing = _apply_scheme(plan, scheme, by_scheme.get(scheme_id, []), env)
            if missing:
                break
        if missing is None:
            return plan
        if first_missing is None:
            first_missing = missing
    raise MissingCredential(first_missing or "(no satisfiable security requirement)")


def _apply_scheme(
    plan: AuthPlan,
    scheme: SecurityScheme,
    scheme_bindings: list[EnvBinding],
    env: dict[str, str],
) -> str | None:
    """Inject one scheme into the plan; returns the missing env var name
    (if any) instead of mutating further."""
    values = {}
    for binding in scheme_bindings:
        value = env.get(binding.env_var, "")
        if not value:
            return binding.env_var
        values[binding.role] = value
    if not scheme_bindings:
        return f"(no binding for scheme {scheme.id!r})"

    if scheme.kind == KIND_API_KEY:
        secret = next(iter(values.values()))
        if scheme.location == "header":
            plan.headers[scheme.parameter_name] = secret
        elif scheme.location == "query":
            plan.query[scheme.parameter_name] = secret
        else:  # cookie
            _append_cookie(plan, scheme.parameter_name, secret)
    elif scheme.kind == KIND_HTTP_BASIC:
        userpass = f"{values.get('USERNAME', '')}:{values.get('PASSWORD', '')}"
        token = base64.b64encode(userpass.encode()).decode()
        plan.headers["Authorization"] = f"Basic {token}"
    elif scheme.kind in (KIND_HTTP_BEARER, KIND_OAUTH2):
        plan.headers["Authorization"] = f"Bearer {next(iter(values.values()))}"
    return None


def _append_cookie(plan: AuthPlan, name: str, value: str) -> None:
    pair = f"{name}={value}"
    existing = plan.headers.get("Cookie")
    plan.headers["Cookie"] = f"{existing}; {pair}" if existing else pair


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

    path = ep.path_template
    query: dict[str, object] = {}
    headers: dict[str, str] = {}
    cookies: list[str] = []
    for param in ep.parameters:
        if param.is_credential:
            continue
        if param.sanitized_name in args:
            value = args[param.sanitized_name]
        elif param.location == "path":
            raise SchemaViolation(f"missing path parameter {param.name!r}")
        else:
            continue
        if param.location == "path":
            path = path.replace(
                "{%s}" % param.name, quote(_scalar(value), safe="")
            )
        elif param.location == "query":
            if isinstance(value, list):  # sent as repeated keys
                query[param.name] = [_scalar(v) for v in value if v is not None]
            elif value is not None:
                query[param.name] = _scalar(value)
        elif param.location == "header":
            headers[param.name] = _scalar(value)
        elif param.location == "cookie":
            cookies.append(f"{param.name}={_scalar(value)}")

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
            body_kwargs["data"] = args["body"]
        elif "json" in content_type:
            body_kwargs["json"] = args["body"]
        else:
            body_kwargs["data"] = _scalar(args["body"])
        # the declared media type, unless a header (a parameter, say) sets one
        if not any(name.lower() == "content-type" for name in headers):
            headers["Content-Type"] = content_type

    url = base_url.rstrip("/") + path
    import requests  # see the module docstring

    try:
        response = requests.request(
            ep.method, url, params=query, headers=headers, auth=_no_netrc,
            timeout=timeout, **body_kwargs,
        )
    except requests.RequestException as exc:
        secrets = _bound_secrets(schemes, bindings, env)
        detail = _redact(f"{exc.__class__.__name__}: {exc}", secrets)
        raise TransportError(f"{ep.method} {_redact(url, secrets)}: {detail}") from exc

    body: object
    content_type = response.headers.get("Content-Type", "")
    if "json" in content_type:
        try:
            body = response.json()
        except ValueError:
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


def _no_netrc(request):
    """A requests `auth` hook that leaves the request as built. Passing
    any auth stops requests from replacing the Authorization header with
    a ~/.netrc entry; proxy and CA settings from the env still apply."""
    return request


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


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
    # longest first, so a secret inside another cannot leave part of it
    for secret in sorted(secrets, key=len, reverse=True):
        if secret:
            text = text.replace(secret, REDACTED)
            text = text.replace(quote(secret, safe=""), REDACTED)
            text = text.replace(quote_plus(secret, safe=""), REDACTED)  # query
    return text


# -- the stdio server ---------------------------------------------------------


class _Writer:
    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, message: dict) -> None:
        line = json.dumps(message, ensure_ascii=False)
        try:
            line.encode()
        except UnicodeEncodeError:  # a lone surrogate: send it as a \u escape
            line = json.dumps(message)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


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
    bindings = bindings_for(manifest)
    pool = ThreadPoolExecutor(max_workers=_CALL_WORKERS)
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
            if not isinstance(message, dict) or not isinstance(
                message.get("method"), str
            ):
                writer.send(
                    _error_response(
                        message.get("id") if isinstance(message, dict) else None,
                        _RPC_INVALID_PARAMS,
                        "not a JSON-RPC request",
                    )
                )
                continue
            _dispatch(message, manifest, env, bindings, writer, pool, timeout)
    finally:
        pool.shutdown(wait=True)


def _dispatch(message, manifest, env, bindings, writer, pool, timeout) -> None:
    method = message["method"]
    params = message.get("params") or {}
    if "id" in message:
        def reply(response: dict) -> None:
            writer.send({"jsonrpc": "2.0", "id": message["id"], **response})
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
                    "serverInfo": {"name": manifest.api_title, "version": _version},
                },
            }
        )
    elif method == "ping":
        reply({"result": {}})
    elif method == "tools/list":
        reply({"result": {"tools": tools_list_payload(manifest)}})
    elif method == "tools/call":
        if not isinstance(params, dict) or not isinstance(params.get("name"), str):
            reply(_error(_RPC_INVALID_PARAMS, "params must carry a tool `name`"))
            return
        tool = manifest.tool(params["name"])
        if tool is None:
            reply(_error(_RPC_INVALID_PARAMS, f"unknown tool {params['name']!r}"))
            return
        arguments = params.get("arguments") or {}
        pool.submit(
            _run_call, tool, arguments, manifest, env, bindings, reply, timeout
        )
    elif not method.startswith("notifications/"):
        reply(_error(_RPC_METHOD_NOT_FOUND, f"unknown method {method!r}"))


def _run_call(tool, arguments, manifest, env, bindings, reply, timeout) -> None:
    try:
        result = invoke_tool(
            tool, arguments, env, manifest.base_url, manifest.schemes,
            bindings, timeout=timeout,
        )
        if result.is_error:
            payload = json.dumps(
                {"httpStatus": result.http_status, "body": result.body},
                ensure_ascii=False,
            )
        else:
            payload = json.dumps(result.body, ensure_ascii=False)
        response = {
            "content": [{"type": "text", "text": payload}],
            "isError": result.is_error,
        }
    except (SchemaViolation, MissingCredential, TransportError) as exc:
        response = {
            "content": [{"type": "text", "text": f"{exc.__class__.__name__}: {exc}"}],
            "isError": True,
        }
    except Exception as exc:  # noqa: BLE001 - surface as protocol error
        detail = _redact(str(exc), _bound_secrets(manifest.schemes, bindings, env))
        # frames only: logger.exception would repeat the unredacted message
        logger.error("tool call %s failed unexpectedly: %s: %s\n%s",
                     tool.tool_name, exc.__class__.__name__, detail,
                     "".join(traceback.format_tb(exc.__traceback__)).rstrip())
        reply(_error(_RPC_INTERNAL, detail))
        return
    reply({"result": response})


def _error(code: int, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


def _error_response(msg_id, code: int, message: str) -> dict:
    return {"jsonrpc": "2.0", "id": msg_id, **_error(code, message)}
