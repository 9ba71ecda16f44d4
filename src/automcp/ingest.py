"""Load OpenAPI documents, read their shape, and normalize 2.0 constructs
into 3.x shape.

A document is read as JSON first. Only text that is not JSON goes to the
YAML reader (`yamltree`), imported on first use, so a JSON spec never
loads `yaml`.

Every read of the spec's shape goes through four readers: `mapping`,
`sequence`, `text` and `flag`. One rule decides what a field of the
wrong type means. A field compile cannot go on without (`paths`, the
base URL from `servers` or `host`, the security-scheme container) raises
its typed error, exit code 2, naming the field's pointer. Any other
field of the wrong type reads as absent; lint may report it. A text
field reads a number or boolean as its `str()`. Every mapping key is a
string: JSON's are, and the YAML reader writes YAML's `200:` as `"200"`.
A flag that is not a boolean (`required: "false"`) reads as absent,
that is false.

`normalize` runs on the flattened tree, so it never sees a `$ref`. No
function here changes its input: each copies only what it rewrites and
shares the rest with it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from .errors import AutoMcpError, BaseUrlError, DialectError, ParseError

if TYPE_CHECKING:
    from .refs import FlattenedContract

FORMAT_JSON = "json"
FORMAT_YAML = "yaml"
DIALECT_2_0 = "openapi_2_0"
DIALECT_3_X = "openapi_3_x"

HTTP_METHODS = ("get", "put", "post", "delete", "options", "head", "patch")

_PLACEHOLDER_RE = re.compile(r"\{[^}]*\}")
_PATH_VAR_RE = re.compile(r"\{([^}/]+)\}")

# 2.0 keys that must not survive normalization.
_SWAGGER_ONLY_KEYS = (
    "swagger",
    "definitions",
    "securityDefinitions",
    "schemes",
    "host",
    "basePath",
    "consumes",
    "produces",
    "parameters",
    "responses",
)

# 2.0 parameter locations that become a 3.x `requestBody`.
_BODY_LOCATIONS = ("body", "formData")

# 2.0 oauth2 flow names that 3.x renames.
_OAUTH2_FLOWS = {"application": "clientCredentials", "accessCode": "authorizationCode"}

# 2.0 media types a form body may take; the first is the default.
_FORM_MEDIA = ("application/x-www-form-urlencoded", "multipart/form-data")

# 2.0 non-body parameter keys that move into the 3.x parameter `schema`.
_PARAMETER_SCHEMA_KEYS = (
    "type", "format", "items", "enum", "default",
    "maximum", "minimum", "maxLength", "minLength", "pattern",
)


@dataclass
class RawDocument:
    """A parsed spec file: where it came from, its serialization format,
    its dialect, its tree and the text it was parsed from (None for a
    document built in memory or edited as a tree)."""

    source_path: Path
    format: str
    dialect: str
    tree: dict
    text: str | None = None


# -- readers -------------------------------------------------------------------

# A required field's typed error, and the field's pointer.
Required = tuple[type[AutoMcpError], str]

_EMPTY: Any = object()  # the default `default`: a new {} or []


def _read(node: Any, key: Any, kind: type | tuple, noun: str,
          required: Required | None) -> Any:
    """`node[key]` (`node` a mapping, or a list and `key` an index) when it
    is a `kind`, else None. A present value of another type raises
    `required`'s error instead, when there is one. Each reader tries the
    exact classes a loaded tree holds first, and only then this."""
    if isinstance(node, dict):
        value = node.get(key)
    elif isinstance(node, list) and isinstance(key, int) and 0 <= key < len(node):
        value = node[key]
    else:
        return None
    if value is None or isinstance(value, kind):
        return value
    if required is not None:
        error, pointer = required
        raise error(f"{pointer} is not {noun}", pointer)
    return None


def mapping(node: Any, key: Any, default: Any = _EMPTY,
            required: Required | None = None) -> Any:
    """The mapping at `node[key]`, else `default` ({} unless given)."""
    value = node.get(key) if node.__class__ is dict else _EMPTY
    if value.__class__ is not dict and value is not None:
        value = _read(node, key, dict, "a mapping", required)
    return ({} if default is _EMPTY else default) if value is None else value


def sequence(node: Any, key: Any, default: Any = _EMPTY,
             required: Required | None = None) -> Any:
    """The list at `node[key]`, else `default` ([] unless given)."""
    value = node.get(key) if node.__class__ is dict else _EMPTY
    if value.__class__ is not list and value is not None:
        value = _read(node, key, list, "a list", required)
    return ([] if default is _EMPTY else default) if value is None else value


def text(node: Any, key: Any, default: Any = "",
         required: Required | None = None) -> Any:
    """The string at `node[key]`, or the `str()` of a number or boolean,
    else `default`."""
    value = node.get(key) if node.__class__ is dict else _EMPTY
    if value.__class__ is not str and value is not None:
        value = _read(node, key, (str, int, float), "a string", required)
    return default if value is None else str(value)


def flag(node: Any, key: Any) -> bool:
    """The boolean at `node[key]`, else False."""
    return (node.__class__ is dict or isinstance(node, dict)) and node.get(key) is True


def api_title(tree: dict) -> str:
    """`info.title`; "" when there is none."""
    return text(mapping(tree, "info"), "title")


def load_document(path: str | Path) -> RawDocument:
    """Read a spec file, detect its serialization format and dialect.

    A document that parses as JSON is treated as JSON even if it would
    also parse as YAML (every JSON document is valid YAML).
    """
    path = Path(path)
    source = path.read_text(encoding="utf-8")

    tree: Any = None
    fmt = None
    try:
        tree = json.loads(source)
        fmt = FORMAT_JSON
    except ValueError:
        import yaml

        from .yamltree import _load_yaml

        try:
            tree = _load_yaml(source)
            fmt = FORMAT_YAML
        except yaml.YAMLError as exc:
            raise ParseError(f"{path}: not parseable as JSON or YAML: {exc}") from exc

    if not isinstance(tree, dict):
        raise ParseError(f"{path}: document root must be a mapping")

    if text(tree, "swagger") == "2.0":
        dialect = DIALECT_2_0
    elif text(tree, "openapi").startswith("3."):
        dialect = DIALECT_3_X  # 3.1 too; its own schema keywords are not read
    else:
        raise DialectError(
            f"{path}: no `swagger: \"2.0\"` or `openapi: 3.x` marker found"
        )

    return RawDocument(source_path=path, format=fmt, dialect=dialect, tree=tree,
                       text=source)


def load_text(text: str, fmt: str) -> Any:
    """The tree `text` gives when read as `fmt`, as `load_document` reads it."""
    if fmt == FORMAT_JSON:
        return json.loads(text)
    from .yamltree import _load_yaml

    return _load_yaml(text)


def resolve_base_url(doc: RawDocument) -> str:
    """Compose the absolute upstream base URL for a document.

    For 2.0: scheme + host + basePath, the scheme as `swagger_scheme`
    picks it. For 3.x: the first ``servers`` entry with every
    server variable replaced by its declared default.

    Raises BaseUrlError (lint class B) when `host`, `servers` or its first
    entry is missing or of the wrong type, or the result is relative,
    empty, or still contains an unsubstitutable placeholder.
    """
    tree = doc.tree
    if doc.dialect == DIALECT_2_0:
        if not text(tree, "host", required=(BaseUrlError, "#/host")):
            raise BaseUrlError("no `host` declared (2.0 document)")
        url = _swagger_url(tree)
    else:
        servers = sequence(tree, "servers", required=(BaseUrlError, "#/servers"))
        if not servers:
            raise BaseUrlError("no `servers` entry declared")
        server = mapping(servers, 0, required=(BaseUrlError, "#/servers/0"))
        url = text(server, "url")
        variables = mapping(server, "variables")
        for name in variables:
            default = text(variables[name], "default", None)
            if default is not None:
                url = url.replace("{%s}" % name, default)

    url = url.rstrip("/")
    if not url:
        raise BaseUrlError("server URL is empty")
    if _PLACEHOLDER_RE.search(url) or "{{" in url:
        raise BaseUrlError(f"server URL contains unresolved placeholder: {url!r}")
    if not re.match(r"^https?://[^/]+", url):
        raise BaseUrlError(f"server URL is not an absolute http(s) URL: {url!r}")
    return url


def operations(tree: dict) -> Iterator[tuple[str, dict, str, dict]]:
    """(path, path item, method, operation) for every operation, in
    document order: each mapping under an HTTP-method key of a mapping
    path item. The one definition of an operation; every other walk over
    `paths` iterates this."""
    paths = mapping(tree, "paths")
    for path in paths:
        item = mapping(paths, path)
        for method, op in item.items():
            if method in HTTP_METHODS and isinstance(op, dict):
                yield path, item, method, op


def parameters(node: dict) -> list[dict]:
    """The mapping entries of a path item's or operation's `parameters`;
    [] when the value is missing or not a list."""
    return [p for p in sequence(node, "parameters") if isinstance(p, dict)]


def normalize(doc: RawDocument | FlattenedContract) -> dict:
    """`doc.tree` in 3.x shape, with mechanical defects repaired.

    Runs on the flattened tree (``contract = flatten(raw.tree);
    contract.tree = normalize(contract)``), so it sees no `$ref`. Total on
    parseable documents: 2.0 constructs are relocated, and undeclared path
    template variables gain a synthesized required string parameter.
    operationIds are left as they are; the compiler makes tool names
    unique. Idempotent. `doc.tree` is never changed: only what is
    rewritten is copied, and the result shares the rest with it.
    """
    tree = doc.tree
    if text(tree, "swagger") == "2.0":
        tree = _convert_2_0(tree)
    return _synthesize_path_params(tree)


# -- 2.0 conversion ----------------------------------------------------------


def _convert_2_0(tree: dict) -> dict:
    out: dict = {"openapi": "3.0.3"}
    for key, value in tree.items():
        if key not in _SWAGGER_ONLY_KEYS and key != "paths":
            out[key] = value

    if text(tree, "host"):
        out["servers"] = [{"url": _swagger_url(tree)}]

    # a `components` that is not a mapping stays as it is: the compiler
    # rejects it
    components = out.get("components") or {}
    if "securityDefinitions" in tree and isinstance(components, dict):
        declared = mapping(tree, "securityDefinitions")
        out["components"] = {**components, "securitySchemes": {
            name: _convert_security_scheme(scheme_node)
            for name, scheme_node in declared.items()
        }}

    paths = mapping(tree, "paths", None)
    if paths is None:  # missing or not a mapping: validation rejects it
        return out
    consumes = sequence(tree, "consumes")
    produces = sequence(tree, "produces")
    out["paths"] = {path: _convert_path_item(mapping(paths, path)) for path in paths}
    for path, item, method, op in operations(out):
        shared = [p for p in parameters(paths[path]) if p.get("in") in _BODY_LOCATIONS]
        item[method] = _convert_operation(op, shared, consumes, produces)
    return out


def swagger_scheme(tree: dict) -> str:
    """The scheme of a 2.0 document's base URL: https when `schemes` lists
    it, else http when listed, else the first entry; https when there is
    none."""
    schemes = sequence(tree, "schemes")
    for scheme in ("https", "http"):
        if scheme in schemes:
            return scheme
    return text(schemes, 0) or "https"


def _swagger_url(tree: dict) -> str:
    """2.0 ``scheme://host+basePath``."""
    return f"{swagger_scheme(tree)}://{text(tree, 'host')}{text(tree, 'basePath')}"


def _convert_security_scheme(node: Any) -> Any:
    kind = text(node, "type")
    if kind == "basic":
        converted = {k: v for k, v in node.items() if k != "type"}
        converted["type"] = "http"
        converted["scheme"] = "basic"
        return converted
    if kind == "oauth2":
        flow = text(node, "flow", "implicit")
        urls = ("authorizationUrl", "tokenUrl")
        oauth_flow = {"scopes": node.get("scopes", {})}
        oauth_flow.update((k, node[k]) for k in urls if k in node)
        moved = ("type", "flow", "scopes", *urls)
        converted = {k: v for k, v in node.items() if k not in moved}
        converted["type"] = "oauth2"
        converted["flows"] = {_OAUTH2_FLOWS.get(flow, flow): oauth_flow}
        return converted
    return node  # apiKey and anything else keep their 3.x-compatible shape


def _convert_path_item(item: dict) -> dict:
    converted = dict(item)  # YAML aliases can share one item between paths
    if "parameters" in item:  # body and formData ones go to each operation
        converted["parameters"] = [
            _convert_parameter(p) for p in parameters(item)
            if p.get("in") not in _BODY_LOCATIONS
        ]
    return converted


def _convert_operation(
    op: dict, shared: list[dict], doc_consumes: list, doc_produces: list
) -> dict:
    """`op` in 3.x shape. `shared` holds its path item's body and formData
    parameters, which it inherits unless it overrides them."""
    consumes = sequence(op, "consumes") or doc_consumes
    produces = sequence(op, "produces") or doc_produces
    out = {k: v for k, v in op.items() if k not in ("consumes", "produces")}

    own = parameters(out)  # overrides each shared one of its name and `in`
    keys = {(text(p, "name"), text(p, "in", "query")) for p in own}
    params = [p for p in shared if (text(p, "name"), text(p, "in", "query")) not in keys]
    params += own
    body_params = [p for p in params if p.get("in") == "body"]
    # a parameter with no name reads as absent
    form_params = [p for p in params if p.get("in") == "formData" and text(p, "name")]
    rest = [p for p in params if p.get("in") not in _BODY_LOCATIONS]
    out["parameters"] = [_convert_parameter(p) for p in rest]
    if not out["parameters"]:
        del out["parameters"]

    request_media = text(consumes, 0) or "application/json"
    if body_params:
        body = body_params[0]
        out["requestBody"] = {
            "content": {request_media: {"schema": body.get("schema", {})}},
            "required": flag(body, "required"),
        }
        if body.get("description"):
            out["requestBody"]["description"] = body["description"]
    elif form_params:
        media = request_media if request_media in _FORM_MEDIA else _FORM_MEDIA[0]
        properties = {text(p, "name"): _parameter_schema(p) for p in form_params}
        required = [text(p, "name") for p in form_params if flag(p, "required")]
        schema: dict = {"type": "object", "properties": properties}
        if required:
            schema["required"] = required
        out["requestBody"] = {
            "content": {media: {"schema": schema}},
            "required": bool(required),
        }

    responses = mapping(out, "responses", None)
    if responses is not None:
        response_media = text(produces, 0) or "application/json"
        out["responses"] = {
            status: _convert_response(mapping(responses, status), response_media)
            for status in responses
        }
    return out


def _convert_parameter(param: dict) -> dict:
    if "schema" in param or not any(
            k in param for k in ("type", "items", "enum", "format", "default")):
        return param
    kept = {
        k: v
        for k, v in param.items()
        if k not in _PARAMETER_SCHEMA_KEYS and k != "collectionFormat"
    }
    kept["schema"] = _parameter_schema(param)
    return kept


def _parameter_schema(param: dict) -> dict:
    schema = {key: param[key] for key in _PARAMETER_SCHEMA_KEYS if key in param}
    if schema.get("type") == "file":
        schema["type"] = "string"
        schema["format"] = "binary"
    return schema


def _convert_response(resp: dict, media: str) -> dict:
    if "schema" not in resp:
        return resp
    converted = {k: v for k, v in resp.items() if k != "schema"}
    converted["content"] = {media: {"schema": resp["schema"]}}
    return converted


# -- repairs shared by both dialects -----------------------------------------


def _synthesize_path_params(tree: dict) -> dict:
    """`tree` with each undeclared path template variable declared as a
    required string parameter. Copies the root, `paths` and each path item
    and operation it rewrites, once per path: a YAML alias or a shared
    `$ref` expansion may put one under several paths. A path item's
    parameters are read once for all its operations, and an operation's
    only when its path item leaves a variable undeclared."""
    out = tree
    read_path = None
    for path, item, method, op in operations(tree):
        if path != read_path:
            read_path = path
            undeclared = _undeclared(_PATH_VAR_RE.findall(path), item)
        missing = _undeclared(undeclared, op) if undeclared else undeclared
        if not missing:
            continue
        synthesized = [
            {"name": var, "in": "path", "required": True, "schema": {"type": "string"}}
            for var in missing
        ]
        if out is tree:
            out = {**tree, "paths": dict(tree["paths"])}
        paths = out["paths"]
        if paths[path] is item:
            paths[path] = dict(item)
        params = sequence(op, "parameters") + synthesized
        paths[path][method] = {**op, "parameters": params}
    return out


def _undeclared(variables: list[str], node: dict) -> list[str]:
    """Those of `variables` that no path parameter of `node` declares."""
    declared = {text(p, "name") for p in parameters(node) if p.get("in") == "path"}
    return [var for var in variables if var not in declared]
