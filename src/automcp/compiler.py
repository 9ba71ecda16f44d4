"""Compile every (path, method) operation into an MCP tool definition.

Compilation is total on validated contracts and deterministic: identical
contract bytes produce an identical manifest. Every operation that
`ingest.operations` yields becomes one tool, in document order.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from typing import Container

from .errors import SchemeError
from .ingest import api_title, mapping, merge_parameters, operations, parameters
from .ingest import sequence, text, text_keys
from .refs import FlattenedContract
from .security import KIND_API_KEY, SecurityScheme, unique_name

TOOL_NAME_MAX = 64

_IDENT_RE = re.compile(r"[^a-z0-9_]+")


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
    request_body_schema: dict | None
    request_content_type: str | None
    success_status: int
    security: list[dict]  # credential slots folded into every set


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


def compile_manifest(
    contract: FlattenedContract,
    schemes: list[SecurityScheme],
    base_url: str,
) -> ToolManifest:
    """Build the full manifest in one walk over the operations: one
    ToolSpec per operation, with its name, description, input schema and
    endpoint.

    Path-level parameters are merged into each operation (operation-level
    wins on a (name, location) collision). A parameter named like a
    declared apiKey scheme, at that scheme's location, is a credential
    slot: never a tool argument, and its scheme joins every requirement
    set of the endpoint's `security`. The success status is the smallest
    declared 2xx code, defaulting to 200. Raises SchemeError (class A)
    when an operation requires a scheme that `schemes` does not hold.
    """
    tree = contract.tree
    declared = {s.id for s in schemes}
    api_keys = {(s.location, s.parameter_name): s.id  # the first declared wins
                for s in reversed(schemes) if s.kind == KIND_API_KEY}
    taken: set[str] = set()
    tools: list[ToolSpec] = []
    for path, item, method, op in operations(tree):
        request_body = mapping(op, "requestBody")
        body_schema, content_type = _pick_request_body(request_body)
        specs, properties, required = _compile_parameters(
            merge_parameters(parameters(item), parameters(op)), api_keys,
            names={"body"} if body_schema is not None else set(),
        )
        if body_schema is not None:
            properties["body"] = copy.deepcopy(body_schema)
            if request_body.get("required", False):
                required.append("body")

        slots = {p.credential_scheme_id: [] for p in specs if p.is_credential}
        security = [{**slots, **r} for r in requirements(op, tree, declared)]
        verb = method.upper()
        description = text(op, "summary") or text(op, "description") \
            or f"{verb} {path}"
        if op.get("deprecated", False):
            description = "[DEPRECATED] " + description
        tools.append(ToolSpec(
            tool_name=derive_tool_name(text(op, "operationId"), method, path, taken),
            description=description,
            input_schema={
                "type": "object",
                "properties": properties,
                "required": required,
                "additionalProperties": False,
            },
            endpoint=EndpointDescriptor(
                method=verb,
                path_template=path,
                parameters=specs,
                request_body_schema=body_schema,
                request_content_type=content_type,
                success_status=_pick_success_status(mapping(op, "responses")),
                security=security or ([slots] if slots else []),
            ),
        ))
    return ToolManifest(tools=tools, api_title=api_title(tree) or "API",
                        base_url=base_url, schemes=schemes)


def requirements(op: dict, tree: dict, declared: Container) -> list[dict]:
    """The requirement sets a call to the operation must meet: its own
    `security` list, or the document's (`tree`'s) when it has none. The one
    place requirements are resolved, each scheme name read as text
    (`text_keys`); raises SchemeError (class A) for the first scheme they
    name that `declared` does not hold."""
    security = sequence(op, "security", sequence(tree, "security"))
    sets = [text_keys(s) for s in security if isinstance(s, dict)]
    for requirement in sets:
        for scheme_id in requirement:
            if scheme_id not in declared:
                raise SchemeError(
                    f"operations require scheme {scheme_id!r} but it is not declared"
                )
    return sets


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
    params: list[dict], api_keys: dict[tuple[str, str], str], names: set[str]
) -> tuple[list[ParamSpec], dict[str, dict], list[str]]:
    """The ParamSpecs of an operation's parameters, and the input-schema
    properties and required names of those that are not credential slots.
    Each sanitized name is made unique within `names`."""
    specs: list[ParamSpec] = []
    properties: dict[str, dict] = {}
    required: list[str] = []
    for param in params:
        name = text(param, "name")
        location = text(param, "in", "query")
        spec = ParamSpec(name, location,
                         unique_name(_sanitize_identifier(name) or "param", names),
                         api_keys.get((location, name)))
        specs.append(spec)
        if spec.is_credential:
            continue
        schema = copy.deepcopy(mapping(param, "schema"))
        if "example" in param and "example" not in schema:
            schema["example"] = copy.deepcopy(param["example"])
        if not schema:
            schema = {"type": "string"}
        description = text(param, "description")
        if description and "description" not in schema:
            schema["description"] = description
        properties[spec.sanitized_name] = schema
        if location == "path" or param.get("required"):
            required.append(spec.sanitized_name)
    return specs, properties, required


def _pick_request_body(request_body: dict) -> tuple[dict | None, str | None]:
    content = mapping(request_body, "content")
    media_type = _pick_media_type(content)
    if media_type is None:
        return None, None
    return mapping(mapping(content, media_type), "schema"), media_type


def _pick_success_status(responses: dict) -> int:
    codes = [
        int(code)
        for code in responses
        if str(code).isdigit() and 200 <= int(code) <= 299
    ]
    return min(codes, default=200)


def _pick_media_type(content: dict) -> str | None:
    for media_type in content:
        if media_type == "application/json" or str(media_type).endswith("+json"):
            return media_type
    return next(iter(content), None)


def _sanitize_identifier(text: str) -> str:
    text = re.sub(r"[/\-.\s]+", "_", str(text).lower())
    text = _IDENT_RE.sub("", text)
    text = re.sub(r"_{2,}", "_", text).strip("_")
    if text and text[0].isdigit():
        text = "_" + text
    return text
