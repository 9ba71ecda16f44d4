"""Load OpenAPI documents, read their shape, and normalize them into the
contract: the fields compile and lint read, in 3.x shape.

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
    `paths` iterates this or, for one path item, `_item_operations`."""
    paths = mapping(tree, "paths")
    for path in paths:
        item = mapping(paths, path)
        for method, op in _item_operations(item):
            yield path, item, method, op


def _item_operations(item: dict) -> Iterator[tuple[str, dict]]:
    """(method, operation) for every operation of the path item `item`."""
    return ((m, op) for m, op in item.items() if m in HTTP_METHODS and isinstance(op, dict))


def parameters(node: dict) -> list[dict]:
    """The mapping entries of a path item's or operation's `parameters`;
    [] when the value is missing or not a list."""
    return [p for p in sequence(node, "parameters") if isinstance(p, dict)]


def normalize(doc: RawDocument | FlattenedContract) -> dict:
    """`doc.tree` as the fields compile and lint read, in 3.x shape, with
    mechanical defects repaired.

    Runs on the flattened tree (``contract = flatten(raw.tree);
    contract.tree = normalize(contract)``), so it sees no `$ref`. Total on
    parseable documents. A 2.0 document keeps its `responses` as written
    (compile reads their codes) and gets no `servers`. Each operation
    gets its whole parameter list, so no path item keeps `parameters`.
    The list is the path item's parameters that none of the operation's
    own overrides (by name and `in`, `in` defaulting to query), then its
    own, then a required string parameter for each path template
    variable that none of them declares. operationIds are left as they
    are; the compiler makes tool names unique. Idempotent. `doc.tree` is
    never changed: only what is rewritten is copied, and the result
    shares the rest with it. A path item's parameters are converted once
    for all its operations, so their lists share those nodes.
    """
    tree = doc.tree
    swagger = text(tree, "swagger") == "2.0"
    out = _convert_2_0(tree) if swagger else tree
    paths = mapping(tree, "paths", None)
    if paths is None:  # missing or not a mapping: validation rejects it
        return out
    consumes = sequence(tree, "consumes")

    def read(node: dict) -> list[dict]:  # each 2.0 one in 3.x shape
        found = parameters(node)
        return [_convert_parameter(p) for p in found] if swagger else found

    def key(param: dict) -> tuple[str, str]:
        return text(param, "name"), text(param, "in", "query")

    items = {}  # each path item rewritten, by its path
    for path, item in paths.items():
        variables = _PATH_VAR_RE.findall(path)
        if not isinstance(item, dict) or not (swagger or variables or "parameters" in item):
            continue
        inherited, ops = read(item), {}
        for method, op in _item_operations(item):
            own = read(op)
            keys = {key(p) for p in own}
            params = [p for p in inherited if key(p) not in keys] + own
            declared = {text(p, "name") for p in params if p.get("in") == "path"}
            params += [{"name": var, "in": "path", "required": True,
                        "schema": {"type": "string"}}
                       for var in variables if var not in declared]
            if swagger:
                ops[method] = _convert_operation(op, params, consumes)
            elif len(params) > len(own):  # it inherits or gains one
                ops[method] = {**op, "parameters": params}
        if swagger or ops or "parameters" in item:
            items[path] = {k: ops.get(k, v) for k, v in item.items() if k != "parameters"}
    return {**out, "paths": {**paths, **items}} if swagger or items else out


# -- 2.0 conversion ----------------------------------------------------------


def _convert_2_0(tree: dict) -> dict:
    """The root of `tree` in 3.x shape; `normalize` converts its paths."""
    out: dict = {"openapi": "3.0.3"}
    for key, value in tree.items():
        if key not in _SWAGGER_ONLY_KEYS and key != "paths":
            out[key] = value

    # a `components` that is not a mapping stays as it is: the compiler
    # rejects it
    components = out.get("components") or {}
    if "securityDefinitions" in tree and isinstance(components, dict):
        declared = mapping(tree, "securityDefinitions")
        out["components"] = {**components, "securitySchemes": {
            name: _convert_security_scheme(scheme_node)
            for name, scheme_node in declared.items()
        }}
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


def _convert_operation(op: dict, params: list[dict], doc_consumes: list) -> dict:
    """`op` with the 3.x `parameters` and `requestBody` compile reads; the
    rest as written. `params` is its whole parameter list, each one
    already converted: its body and formData ones go to `requestBody`."""
    consumes = sequence(op, "consumes") or doc_consumes
    out = {k: v for k, v in op.items() if k not in ("consumes", "produces")}

    body_params = [p for p in params if p.get("in") == "body"]
    # a parameter with no name reads as absent
    form_params = [p for p in params if p.get("in") == "formData" and text(p, "name")]
    out["parameters"] = [p for p in params if p.get("in") not in _BODY_LOCATIONS]
    if not out["parameters"]:
        del out["parameters"]

    request_media = text(consumes, 0) or "application/json"
    if body_params:
        body = body_params[0]
        out["requestBody"] = {
            "content": {request_media: {"schema": body.get("schema", {})}},
            "required": flag(body, "required"),
        }
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
    return out


def _convert_parameter(param: dict) -> dict:
    """`param` in 3.x shape. A body or formData one keeps its own:
    `_convert_operation` builds the request body from it."""
    if "schema" in param or param.get("in") in _BODY_LOCATIONS or not any(
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
