"""Compile every (path, method) operation into an MCP tool definition.

Compilation is total on validated contracts and deterministic: identical
contract bytes produce an identical manifest. Every operation that
`ingest.operations` yields becomes one tool, in document order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

from .errors import SchemeError
from .ingest import api_title, flag, mapping, operations, parameters, sequence, text
from .refs import FlattenedContract
from .security import KIND_API_KEY, SecurityScheme, unique_name

TOOL_NAME_MAX = 64
_LOCATIONS = ("path", "query", "header", "cookie")  # where a parameter is sent

_SEPARATOR_RE = re.compile(r"[/\-.\s]+")
_IDENT_RE = re.compile(r"[^a-z0-9_]+")
_UNDERSCORES_RE = re.compile(r"_{2,}")


@dataclass
class ParamSpec:
    name: str
    location: str  # path / query / header / cookie
    sanitized_name: str
    credential_scheme_id: str | None = None

    @property
    def is_credential(self) -> bool:
        return self.credential_scheme_id is not None


@dataclass
class EndpointDescriptor:
    method: str
    path_template: str
    parameters: list[ParamSpec]
    request_content_type: str | None  # None when there is no request body
    success_status: int
    security: list[dict]  # credential slots folded into every set


@dataclass
class ToolSpec:
    """One compiled tool. Its schema shares nodes with the contract and
    with other tools (`compile_manifest`), so nothing writes to it."""

    tool_name: str
    description: str
    input_schema: dict
    endpoint: EndpointDescriptor


@dataclass
class ToolManifest:
    tools: list[ToolSpec]
    api_title: str
    base_url: str
    schemes: list[SecurityScheme] = field(default_factory=list)

    def tool(self, name: str) -> ToolSpec | None:
        return self._by_name.get(name)

    @cached_property
    def _by_name(self) -> dict[str, ToolSpec]:
        """Each tool by its name, the first of any two that share one."""
        return {spec.tool_name: spec for spec in reversed(self.tools)}


def compile_manifest(
    contract: FlattenedContract,
    schemes: list[SecurityScheme],
    base_url: str,
) -> ToolManifest:
    """Build the full manifest in one walk over the operations: one
    ToolSpec per operation, with its name, description, input schema and
    endpoint, each field of the operation read once.

    Each operation's parameters and auth are read by `operation_auth`; a
    credential slot is never a tool argument. The success status is the
    smallest declared 2xx code, defaulting to 200. Raises SchemeError
    (class A) when an operation requires a scheme that `schemes` does not
    hold. The loaded tree, the contract and the manifest are one
    read-only graph: a request body's schema is the contract's node, and
    the only new nodes are those compile writes, each parameter's
    property built once however many tools use it.
    """
    tree = contract.tree
    param_properties: dict[int, tuple[dict, bool]] = {}  # by parameter node id
    identifiers: dict[str, str] = {}  # each parameter name, sanitized once
    taken: set[str] = set()
    tools: list[ToolSpec] = []
    for path, method, op, params, security in operation_auth(
        tree, {s.id: s for s in schemes}
    ):
        if isinstance(security, SchemeError):
            raise security
        request_body = mapping(op, "requestBody")
        content = mapping(request_body, "content")
        content_type = _pick_media_type(content)
        specs, properties, required = _compile_parameters(
            params, param_properties, identifiers,
            names={"body"} if content_type is not None else set(),
        )
        if content_type is not None:
            properties["body"] = mapping(mapping(content, content_type), "schema")
            if flag(request_body, "required"):
                required.append("body")

        verb = method.upper()
        description = text(op, "summary") or text(op, "description") \
            or f"{verb} {path}"
        if flag(op, "deprecated"):
            description = "[DEPRECATED] " + description
        input_schema = {"type": "object", "properties": properties,
                        "required": required, "additionalProperties": False}
        endpoint = EndpointDescriptor(
            verb, path, specs, content_type,
            _pick_success_status(mapping(op, "responses")), security)
        name = derive_tool_name(text(op, "operationId"), method, path, taken)
        tools.append(ToolSpec(name, description, input_schema, endpoint))
    return ToolManifest(tools=tools, api_title=api_title(tree) or "API",
                        base_url=base_url, schemes=schemes)


def operation_auth(tree: dict, schemes: Mapping[str, object]) -> Iterator[tuple]:
    """(path, method, operation, parameters, auth) for every operation of
    `tree`, in document order: the one reading of an operation's auth,
    which compile and lint both iterate. `schemes` maps each declared
    scheme id to its reading.

    The parameters are `ingest.parameters(op)`, the whole list
    `normalize` gave the operation, each read as (node, name, location,
    id of the apiKey scheme whose credential slot it is, else None), once
    per call however many operations share it. One whose location is not
    path, query, header or cookie is left out: nothing would send it.
    The first apiKey scheme sent at a name holds that slot; a header name
    matches in any case (RFC 9110 §5.1). The auth is the requirement
    sets, the operation's own `security` or else the document's, with
    each slot's scheme joined to every set (the slots alone when there is
    none). It is instead the SchemeError (class A) for the first scheme
    they name that `schemes` does not hold.
    """
    def slot(location: str, name: str) -> tuple[str, str]:
        return location, name.lower() if location == "header" else name

    api_keys = {slot(s.location, s.parameter_name): s.id
                for s in reversed(list(schemes.values()))
                if isinstance(s, SecurityScheme) and s.kind == KIND_API_KEY}
    readings: dict[int, tuple | None] = {}  # by the id of each parameter node read

    def read(p: dict) -> tuple | None:
        if id(p) not in readings:
            name, location = text(p, "name"), text(p, "in", "query")
            slot_id = api_keys.get(slot(location, name))
            readings[id(p)] = (p, name, location, slot_id) if location in _LOCATIONS else None
        return readings[id(p)]

    def requirements(value: list) -> tuple[list[dict], str | None]:
        sets = [s for s in value if isinstance(s, dict)]
        return sets, next((k for s in sets for k in s if k not in schemes), None)

    default = requirements(sequence(tree, "security"))
    for path, _, method, op in operations(tree):
        params = [r for r in map(read, parameters(op)) if r is not None]
        own_security = sequence(op, "security", None)
        sets, undeclared = default if own_security is None else requirements(own_security)
        if undeclared is not None:
            yield path, method, op, params, SchemeError(
                f"operations require scheme {undeclared!r} but it is not declared")
            continue
        slots = {r[3]: [] for r in params if r[3] is not None}
        security = [{**slots, **s} for s in sets] or ([slots] if slots else [])
        yield path, method, op, params, security


def derive_tool_name(operation_id: str, method: str, path: str,
                     taken: set[str]) -> str:
    """Stable identifier for one operation, unique within `taken`.

    The operationId is sanitized when present; otherwise the name is
    synthesized from the method and path words. Capped at 64 chars with
    ``_2``, ``_3``, ... suffixes on collision.
    """
    base = _sanitize_identifier(operation_id)
    if not base:
        words = [_sanitize_identifier(seg.strip("{}")) for seg in path.split("/")]
        base = "_".join([method.lower()] + [w for w in words if w])
    base = base[:TOOL_NAME_MAX].rstrip("_") or "tool"

    name = base
    counter = 1
    while name in taken:
        counter += 1
        suffix = f"_{counter}"
        name = base[: TOOL_NAME_MAX - len(suffix)] + suffix
    taken.add(name)
    return name


def tools_list_payload(manifest: ToolManifest) -> list[dict]:
    """The `tools/list` result shape: name, description, inputSchema."""
    return [
        {
            "name": t.tool_name,
            "description": t.description,
            "inputSchema": t.input_schema,
        }
        for t in manifest.tools
    ]


def manifest_to_dict(manifest: ToolManifest, include_bindings: bool = False) -> dict:
    """JSON-serializable manifest; `include_bindings` adds the endpoint
    and security detail needed by external code generators."""
    doc: dict = {
        "api_title": manifest.api_title,
        "base_url": manifest.base_url,
        "tools": tools_list_payload(manifest),
    }
    if include_bindings:
        for entry, tool in zip(doc["tools"], manifest.tools):
            ep = tool.endpoint
            entry["endpoint"] = {
                "method": ep.method,
                "path": ep.path_template,
                "security": ep.security,
                "successStatus": ep.success_status,
                "contentType": ep.request_content_type,
            }
        doc["securitySchemes"] = [
            {
                "id": s.id,
                "kind": s.kind,
                "location": s.location,
                "parameterName": s.parameter_name,
            }
            for s in manifest.schemes
        ]
    return doc


# -- internals ----------------------------------------------------------------


def _compile_parameters(
    params: list[tuple], param_properties: dict, identifiers: dict[str, str], names: set[str]
) -> tuple[list[ParamSpec], dict[str, dict], list[str]]:
    """The ParamSpecs of an operation's parameters, as `operation_auth`
    reads them, and the input-schema properties and required names of
    those that are not credential slots. Each sanitized name (kept in
    `identifiers`) is made unique within `names`. Each parameter's
    property, a top-level copy of its schema that takes the `example`,
    `description` or `{"type": "string"}` compile writes, is built once
    per compile and kept in `param_properties`, with whether it is
    required, under the parameter node's id: the contract holds every
    node, so no id is reused."""
    specs: list[ParamSpec] = []
    properties: dict[str, dict] = {}
    required: list[str] = []
    for param, name, location, slot in params:
        if name not in identifiers:
            identifiers[name] = _sanitize_identifier(name) or "param"
        spec = ParamSpec(name, location, unique_name(identifiers[name], names), slot)
        specs.append(spec)
        if slot is not None:
            continue
        if id(param) not in param_properties:
            schema = dict(mapping(param, "schema"))
            if "example" in param and "example" not in schema:
                schema["example"] = param["example"]
            if not schema:
                schema = {"type": "string"}
            description = text(param, "description")
            if description and "description" not in schema:
                schema["description"] = description
            param_properties[id(param)] = schema, location == "path" or flag(param, "required")
        properties[spec.sanitized_name], needed = param_properties[id(param)]
        if needed:
            required.append(spec.sanitized_name)
    return specs, properties, required


def _pick_success_status(responses: dict) -> int:
    status = 300  # past every 2xx code
    for code in responses:
        if code.isdecimal() and 200 <= int(code) < status:
            status = int(code)
    return 200 if status == 300 else status


def _pick_media_type(content: dict) -> str | None:
    for media_type in content:
        if media_type == "application/json" or media_type.endswith("+json"):
            return media_type
    return next(iter(content), None)


def _sanitize_identifier(text: str) -> str:
    text = str(text).lower()
    if not (text.isascii() and text.isalnum()):  # else each pass keeps it as it is
        text = _SEPARATOR_RE.sub("_", text)
        text = _IDENT_RE.sub("", text)
        text = _UNDERSCORES_RE.sub("_", text).strip("_")
    if text and text[0].isdigit():
        text = "_" + text
    return text
