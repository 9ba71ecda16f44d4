"""Compile every (path, method) operation into an MCP tool definition.

Compilation is total on validated contracts and deterministic: identical
contract bytes produce an identical manifest. Every operation that
`ingest.operations` yields becomes one tool, in document order.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from typing import Any, Container

from .errors import SchemeError
from .ingest import operations, parameters
from .refs import FlattenedContract
from .security import KIND_API_KEY, SecurityScheme, declared_schemes

TOOL_NAME_MAX = 64

_IDENT_RE = re.compile(r"[^a-z0-9_]+")


@dataclass
class ParamSpec:
    name: str
    location: str  # path / query / header / cookie
    required: bool
    schema: dict
    sanitized_name: str
    description: str = ""
    credential_scheme_id: str | None = None

    @property
    def is_credential(self) -> bool:
        return self.credential_scheme_id is not None


@dataclass
class EndpointDescriptor:
    method: str
    path_template: str
    operation_id: str | None
    summary: str
    description: str
    parameters: list[ParamSpec]
    request_body_schema: dict | None
    request_body_required: bool
    request_content_type: str | None
    success_status: int
    security: list[dict]
    deprecated: bool = False


@dataclass
class ToolSpec:
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
        for spec in self.tools:
            if spec.tool_name == name:
                return spec
        return None


def list_endpoints(contract: FlattenedContract) -> list[EndpointDescriptor]:
    """One descriptor per path-method pair, in document order.

    Path-level parameters are merged into each operation (operation-level
    wins on a (name, location) collision). The success status is the
    smallest declared 2xx code, defaulting to 200. Raises SchemeError
    (class A) when an operation requires a scheme nobody declared.
    """
    tree = contract.tree
    doc_security = tree.get("security") or []
    _, declared = declared_schemes(tree)
    endpoints: list[EndpointDescriptor] = []

    for path, item, method, op in operations(tree):
        merged = _merge_parameters(parameters(item), parameters(op))
        body_schema, body_required, content_type = _pick_request_body(
            op.get("requestBody")
        )
        endpoints.append(
            EndpointDescriptor(
                method=method.upper(),
                path_template=path,
                operation_id=op.get("operationId"),
                summary=op.get("summary", "") or "",
                description=op.get("description", "") or "",
                parameters=_build_param_specs(merged, has_body=body_schema is not None),
                request_body_schema=body_schema,
                request_body_required=body_required,
                request_content_type=content_type,
                success_status=_pick_success_status(op.get("responses")),
                security=requirements(op, doc_security, declared),
                deprecated=bool(op.get("deprecated", False)),
            )
        )
    return endpoints


def requirements(op: dict, doc_security: Any, declared: Container) -> list[dict]:
    """The requirement sets a call to the operation must meet: its own
    `security` list, or the document's when it has none (a value that is
    not a list counts as none). The one place requirements are resolved;
    raises SchemeError (class A) for the first scheme they name that
    `declared` does not hold."""
    security = op.get("security")
    if not isinstance(security, list):
        security = doc_security
    sets = [s for s in security if isinstance(s, dict)]
    for requirement in sets:
        for scheme_id in requirement:
            if scheme_id not in declared:
                raise SchemeError(
                    f"operations require scheme {scheme_id!r} but it is not declared"
                )
    return sets


def derive_tool_name(ep: EndpointDescriptor, taken: set[str]) -> str:
    """Stable identifier for one endpoint, unique within `taken`.

    The operationId is sanitized when present; otherwise the name is
    synthesized from the method and path words. Capped at 64 chars with
    ``_2``, ``_3``, ... suffixes on collision.
    """
    if ep.operation_id:
        base = _sanitize_identifier(ep.operation_id)
    else:
        base = ""
    if not base:
        words = [
            _sanitize_identifier(seg.strip("{}"))
            for seg in ep.path_template.split("/")
            if seg
        ]
        base = "_".join([ep.method.lower()] + [w for w in words if w])
    base = base[:TOOL_NAME_MAX].rstrip("_") or "tool"

    name = base
    counter = 1
    while name in taken:
        counter += 1
        suffix = f"_{counter}"
        name = base[: TOOL_NAME_MAX - len(suffix)] + suffix
    taken.add(name)
    return name


def synthesize_input_schema(ep: EndpointDescriptor) -> dict:
    """Closed JSON-schema object for the tool's arguments.

    One property per non-credential parameter (keyed by sanitized name),
    plus a ``body`` property when the operation takes a request body.
    """
    properties: dict[str, dict] = {}
    required: list[str] = []
    for param in ep.parameters:
        if param.is_credential:
            continue
        schema = copy.deepcopy(param.schema) if param.schema else {"type": "string"}
        if param.description and "description" not in schema:
            schema["description"] = param.description
        properties[param.sanitized_name] = schema
        if param.required:
            required.append(param.sanitized_name)
    if ep.request_body_schema is not None:
        properties["body"] = copy.deepcopy(ep.request_body_schema)
        if ep.request_body_required:
            required.append("body")
    return {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


def compile_manifest(
    contract: FlattenedContract,
    schemes: list[SecurityScheme],
    base_url: str,
) -> ToolManifest:
    """Build the full manifest: one ToolSpec per operation, each bound to
    its endpoint and resolved security requirements."""
    tree = contract.tree
    info = tree.get("info")
    api_title = str((info.get("title") if isinstance(info, dict) else None) or "API")

    endpoints = list_endpoints(contract)
    api_key_schemes = [s for s in schemes if s.kind == KIND_API_KEY]
    taken: set[str] = set()
    tools: list[ToolSpec] = []
    for ep in endpoints:
        _mark_credential_params(ep, api_key_schemes)
        description = ep.summary or ep.description or f"{ep.method} {ep.path_template}"
        if ep.deprecated:
            description = "[DEPRECATED] " + description
        tools.append(
            ToolSpec(
                tool_name=derive_tool_name(ep, taken),
                description=description,
                input_schema=synthesize_input_schema(ep),
                endpoint=ep,
            )
        )
    return ToolManifest(tools=tools, api_title=api_title, base_url=base_url,
                        schemes=schemes)


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


def _merge_parameters(path_level: list[dict], op_level: list[dict]) -> list[dict]:
    def key(p: dict) -> tuple[str, str]:  # as `_build_param_specs` reads them
        return str(p.get("name", "")), str(p.get("in", "query"))

    op_keys = {key(p) for p in op_level}
    return [p for p in path_level if key(p) not in op_keys] + op_level


def _build_param_specs(params: list[dict], has_body: bool) -> list[ParamSpec]:
    taken = {"body"} if has_body else set()
    specs: list[ParamSpec] = []
    for param in params:
        name = str(param.get("name", ""))
        location = str(param.get("in", "query"))
        sanitized = _sanitize_identifier(name) or "param"
        base = sanitized
        counter = 1
        while sanitized in taken:
            counter += 1
            sanitized = f"{base}_{counter}"
        taken.add(sanitized)
        schema = dict(param.get("schema") or {})
        if "example" in param and "example" not in schema:
            schema["example"] = param["example"]
        specs.append(
            ParamSpec(
                name=name,
                location=location,
                required=True if location == "path" else bool(param.get("required")),
                schema=schema,
                sanitized_name=sanitized,
                description=param.get("description", "") or "",
            )
        )
    return specs


def _mark_credential_params(
    ep: EndpointDescriptor, api_key_schemes: list[SecurityScheme]
) -> None:
    """An explicit parameter matching a declared api-key scheme's name and
    location is a credential slot, not an LLM-facing argument."""
    for param in ep.parameters:
        for scheme in api_key_schemes:
            if (
                param.name == scheme.parameter_name
                and param.location == scheme.location
            ):
                param.credential_scheme_id = scheme.id
                break


def _pick_request_body(request_body) -> tuple[dict | None, bool, str | None]:
    if not isinstance(request_body, dict):
        return None, False, None
    content = request_body.get("content") or {}
    media_type = _pick_media_type(content) if isinstance(content, dict) else None
    if media_type is None:
        return None, False, None
    schema = (content[media_type] or {}).get("schema") or {}
    return schema, bool(request_body.get("required", False)), media_type


def _pick_success_status(responses) -> int:
    if not isinstance(responses, dict):
        return 200
    codes = [
        int(code)
        for code in responses
        if str(code).isdigit() and 200 <= int(code) <= 299
    ]
    return min(codes, default=200)


def _pick_media_type(content: dict) -> str | None:
    if not content:
        return None
    for media_type in content:
        if media_type == "application/json" or str(media_type).endswith("+json"):
            return media_type
    return next(iter(content))


def _sanitize_identifier(text: str) -> str:
    text = re.sub(r"[/\-.\s]+", "_", str(text).lower())
    text = _IDENT_RE.sub("", text)
    text = re.sub(r"_{2,}", "_", text).strip("_")
    if text and text[0].isdigit():
        text = "_" + text
    return text
