"""Load OpenAPI documents and normalize 2.0 constructs into 3.x shape.

YAML is parsed by libyaml when PyYAML has it, and the tree is built
straight from libyaml's parse events: plain dicts, lists and scalars,
with no node graph in between. What that event walk leaves out (merge
keys, tags other than PyYAML's plain scalar ones, a collection as a key,
a second document) is loaded by PyYAML's own constructor, so every tree
and every error is `yaml.safe_load`'s. Text that libyaml could overflow,
and any text when libyaml is absent, takes PyYAML's pure-Python loader.

`normalize` runs on the flattened tree, so it never sees a `$ref`. No
function here changes its input: each copies only what it rewrites and
shares the rest with it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import yaml

from .errors import BaseUrlError, DialectError, ParseError
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

# 2.0 non-body parameter keys that move into the 3.x parameter `schema`.
_PARAMETER_SCHEMA_KEYS = (
    "type", "format", "items", "enum", "default",
    "maximum", "minimum", "maxLength", "minLength", "pattern",
)

# libyaml parses several times faster than the pure-Python loader, and
# building the tree from its events (`_tree_from_events`) also skips
# PyYAML's node graph and constructor. But libyaml's composer (behind
# `compose_yaml` and `_tree_from_events`' fallback) recurses in C, beyond
# Python's recursion limit, so a deep enough document crashes the
# process, and its event stream slows quadratically with depth. Text that
# may nest deeper than this goes to the pure loader, whose RecursionError
# becomes NestingError; the tree walks reject such depth anyway.
_LIBYAML_MAX_DEPTH = 2000
_FastLoader = getattr(yaml, "CSafeLoader", None)  # None without libyaml
# A line break and the run of spaces and block indicators after it. YAML
# also breaks lines at CR, NEL, LS and PS, and libyaml skips a BOM at any
# line start.
_LINE_START_RUN_RE = re.compile(r"[\n\r\x85\u2028\u2029\ufeff][\ufeff ?:-]+")


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


def load_document(path: str | Path) -> RawDocument:
    """Read a spec file, detect its serialization format and dialect.

    A document that parses as JSON is treated as JSON even if it would
    also parse as YAML (every JSON document is valid YAML).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")

    tree: Any = None
    fmt = None
    try:
        tree = json.loads(text)
        fmt = FORMAT_JSON
    except ValueError:
        try:
            tree = _load_yaml(text)
            fmt = FORMAT_YAML
        except yaml.YAMLError as exc:
            raise ParseError(f"{path}: not parseable as JSON or YAML: {exc}") from exc

    if not isinstance(tree, dict):
        raise ParseError(f"{path}: document root must be a mapping")

    if str(tree.get("swagger")) == "2.0":
        dialect = DIALECT_2_0
    elif str(tree.get("openapi", "")).startswith("3."):
        dialect = DIALECT_3_X  # 3.1 too; its own schema keywords are not read
    else:
        raise DialectError(
            f"{path}: no `swagger: \"2.0\"` or `openapi: 3.x` marker found"
        )

    return RawDocument(source_path=path, format=fmt, dialect=dialect, tree=tree,
                       text=text)


def load_text(text: str, fmt: str) -> Any:
    """The tree `text` gives when read as `fmt`, as `load_document` reads it."""
    return json.loads(text) if fmt == FORMAT_JSON else _load_yaml(text)


def _load_yaml(text: str) -> Any:
    """`yaml.safe_load` through the loader `_with_yaml_loader` picks; with
    libyaml, the tree is built from its parse events."""

    def load(text: str, Loader: type) -> Any:
        if Loader is not _FastLoader:
            return yaml.load(text, Loader=Loader)
        loader = Loader(text)
        try:
            return _tree_from_events(loader)
        except _Unbuilt:
            pass
        finally:
            loader.dispose()
        return yaml.load(text, Loader=Loader)

    return _with_yaml_loader(load, text)


class _Unbuilt(Exception):
    """The event stream holds something `_tree_from_events` leaves to
    PyYAML's own constructor."""


_STR_TAG = "tag:yaml.org,2002:str"
_NO_KEY = object()  # a mapping frame's key slot while it waits for a key
# a collection's start event -> the tags under which it is a plain dict or list
_PLAIN_TAGS = {
    yaml.MappingStartEvent: (None, "!", "tag:yaml.org,2002:map"),
    yaml.SequenceStartEvent: (None, "!", "tag:yaml.org,2002:seq"),
}


def _tree_from_events(loader: Any) -> Any:
    """The tree `loader.get_single_data()` would construct, built straight
    from the loader's parse events: dicts, lists and scalars, with each
    alias sharing the object its anchor names. A scalar's tag is resolved
    and constructed by the loader itself, so ints, floats, bools, nulls,
    timestamps and binary come out as PyYAML makes them.

    Raises _Unbuilt on what only PyYAML's constructor gets exactly right,
    or reports in its own words: a merge key or any other tag it has no
    plain constructor for, a tagged collection, a collection as a key, an
    undefined or redefined anchor, a scalar whose constructor fails, and a
    second document."""
    get_event = loader.get_event
    resolve = loader.resolve
    constructors = loader.yaml_constructors
    anchors: dict[str, Any] = {}
    root = None
    stack: list[list] = []  # [collection, key slot] per open collection
    get_event()  # StreamStartEvent
    if isinstance(get_event(), yaml.StreamEndEvent):
        return None  # an empty stream; else that was a DocumentStartEvent
    while True:
        event = get_event()
        kind = type(event)
        if kind is yaml.ScalarEvent:
            node = event.value
            tag = event.tag
            if tag is None or tag == "!":
                tag = resolve(yaml.ScalarNode, node, event.implicit)
            if tag != _STR_TAG:
                construct = constructors.get(tag)
                if construct is None:
                    raise _Unbuilt
                try:
                    node = construct(loader, yaml.ScalarNode(tag, node))
                except Exception as exc:  # yaml.load raises it, or an earlier error
                    raise _Unbuilt from exc
        elif kind is yaml.AliasEvent:
            if event.anchor not in anchors:
                raise _Unbuilt
            node = anchors[event.anchor]
        elif kind in _PLAIN_TAGS:
            if event.tag not in _PLAIN_TAGS[kind]:
                raise _Unbuilt
            node = {} if kind is yaml.MappingStartEvent else []
        elif kind is yaml.DocumentEndEvent:
            if not isinstance(get_event(), yaml.StreamEndEvent):
                raise _Unbuilt  # a second document
            return root
        else:  # MappingEndEvent, SequenceEndEvent
            stack.pop()
            continue

        if event.anchor is not None and kind is not yaml.AliasEvent:
            if event.anchor in anchors:
                raise _Unbuilt
            anchors[event.anchor] = node
        if not stack:
            root = node
        else:
            frame = stack[-1]
            parent = frame[0]
            if parent.__class__ is list:
                parent.append(node)
            elif frame[1] is _NO_KEY:
                if isinstance(node, (dict, list)):
                    raise _Unbuilt  # unhashable key
                frame[1] = node
            else:
                parent[frame[1]] = node
                frame[1] = _NO_KEY
        if kind in _PLAIN_TAGS:
            stack.append([node, _NO_KEY])


def compose_yaml(text: str) -> tuple[yaml.Node, int]:
    """The node graph `_load_yaml` builds its tree from, whose marks give
    source positions, and the offset that turns a mark's `index` into an
    offset into `text`: libyaml does not count a leading BOM."""

    def compose(text: str, Loader: type) -> tuple[yaml.Node, int]:
        bom = text.startswith("\ufeff") and Loader is getattr(yaml, "CSafeLoader", None)
        return yaml.compose(text, Loader=Loader), int(bom)

    return _with_yaml_loader(compose, text)


def _with_yaml_loader(parse, text: str) -> Any:
    """`parse(text, Loader=...)` through libyaml when it is present and the
    text cannot nest deeper than `_LIBYAML_MAX_DEPTH`, else through the
    pure loader. A libyaml error is re-raised by the pure loader, so the
    message is the same either way. Text with a BOM past its first
    character also takes the pure loader: libyaml skips a BOM at the start
    of any line, the pure loader only at the start of the text, so the two
    would build different trees."""
    if (_FastLoader is not None and text.find("\ufeff", 1) < 0
            and _nesting_bound(text) <= _LIBYAML_MAX_DEPTH):
        try:
            return parse(text, Loader=_FastLoader)
        except yaml.YAMLError:
            pass
    return parse(text, Loader=yaml.SafeLoader)


def _nesting_bound(text: str) -> int:
    """An upper bound on the text's YAML nesting depth. Every flow level
    opens with a `[` or `{`, and an empty `[]` or `{}` can only be the
    innermost one. A line's first block level sits at its leading
    spaces and ``-``/``?``/``:`` indicators (after any BOM), and each
    column of them holds at most two more (a sequence may share its
    parent mapping's column)."""
    flow = (text.count("[") - text.count("[]")
            + text.count("{") - text.count("{}") + 1)
    run = max(map(len, _LINE_START_RUN_RE.findall("\n" + text)), default=1) - 1
    block = 1 + 2 * run
    return flow + block


def resolve_base_url(doc: RawDocument) -> str:
    """Compose the absolute upstream base URL for a document.

    For 2.0: scheme + host + basePath, preferring https when several
    schemes are listed. For 3.x: the first ``servers`` entry with every
    server variable replaced by its declared default.

    Raises BaseUrlError (lint class B) when the result is relative,
    empty, or still contains an unsubstitutable placeholder.
    """
    if doc.dialect == DIALECT_2_0:
        if not doc.tree.get("host"):
            raise BaseUrlError("no `host` declared (2.0 document)")
        url = _swagger_url(doc.tree)
    else:
        servers = doc.tree.get("servers") or []
        if not isinstance(servers, list):
            raise BaseUrlError("`servers` is not a list")
        if not servers or not isinstance(servers[0], dict):
            raise BaseUrlError("no `servers` entry declared")
        url = str(servers[0].get("url", ""))
        variables = servers[0].get("variables") or {}
        if not isinstance(variables, dict):
            raise BaseUrlError("`servers[0].variables` is not a mapping")
        for name, spec in variables.items():
            if isinstance(spec, dict) and "default" in spec:
                url = url.replace("{%s}" % name, str(spec["default"]))

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
    paths = tree.get("paths")
    if not isinstance(paths, dict):
        return
    for path, item in paths.items():
        if isinstance(item, dict):
            for method, op in item.items():
                if method in HTTP_METHODS and isinstance(op, dict):
                    yield path, item, method, op


def parameters(node: dict) -> list[dict]:
    """The mapping entries of a path item's or operation's `parameters`;
    [] when the value is missing or not a list."""
    params = node.get("parameters")
    return [p for p in params if isinstance(p, dict)] if isinstance(params, list) else []


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
    if str(tree.get("swagger")) == "2.0":
        tree = _convert_2_0(tree)
    return _synthesize_path_params(tree)


# -- 2.0 conversion ----------------------------------------------------------


def _convert_2_0(tree: dict) -> dict:
    out: dict = {"openapi": "3.0.3"}
    for key, value in tree.items():
        if key not in _SWAGGER_ONLY_KEYS and key != "paths":
            out[key] = value

    if tree.get("host"):
        out["servers"] = [{"url": _swagger_url(tree)}]

    # a `components` or `securityDefinitions` that is not a mapping stays
    # as it is: the compiler rejects it
    components = out.get("components") or {}
    if "securityDefinitions" in tree and isinstance(components, dict):
        declared = tree["securityDefinitions"]
        out["components"] = {**components, "securitySchemes": {
            name: _convert_security_scheme(scheme_node)
            for name, scheme_node in declared.items()
        } if isinstance(declared, dict) else declared}

    doc_consumes = tree.get("consumes") or []
    doc_produces = tree.get("produces") or []
    paths = tree.get("paths") or {}
    out["paths"] = {
        path: _convert_path_item(item) for path, item in paths.items()
    } if isinstance(paths, dict) else paths
    for _, item, method, op in operations(out):
        item[method] = _convert_operation(op, doc_consumes, doc_produces)
    return out


def _swagger_url(tree: dict) -> str:
    """2.0 ``scheme://host+basePath``, preferring https when listed."""
    schemes = tree.get("schemes") or ["https"]
    scheme = "https" if "https" in schemes else schemes[0]
    return f"{scheme}://{tree['host']}{tree.get('basePath', '')}"


def _convert_security_scheme(node: Any) -> Any:
    if not isinstance(node, dict):
        return node
    kind = node.get("type")
    if kind == "basic":
        converted = {k: v for k, v in node.items() if k != "type"}
        converted["type"] = "http"
        converted["scheme"] = "basic"
        return converted
    if kind == "oauth2":
        flow_name = {
            "implicit": "implicit",
            "password": "password",
            "application": "clientCredentials",
            "accessCode": "authorizationCode",
        }.get(node.get("flow", ""), node.get("flow", "implicit"))
        flow: dict = {"scopes": node.get("scopes", {})}
        if "authorizationUrl" in node:
            flow["authorizationUrl"] = node["authorizationUrl"]
        if "tokenUrl" in node:
            flow["tokenUrl"] = node["tokenUrl"]
        converted = {
            k: v
            for k, v in node.items()
            if k not in ("type", "flow", "authorizationUrl", "tokenUrl", "scopes")
        }
        converted["type"] = "oauth2"
        converted["flows"] = {flow_name: flow}
        return converted
    return node  # apiKey and anything else keep their 3.x-compatible shape


def _convert_path_item(item: Any) -> Any:
    if not isinstance(item, dict):
        return item
    converted = dict(item)  # YAML aliases can share one item between paths
    if "parameters" in item:
        converted["parameters"] = [_convert_parameter(p) for p in parameters(item)]
    return converted


def _convert_operation(op: dict, doc_consumes: list, doc_produces: list) -> dict:
    consumes = op.get("consumes") or doc_consumes or ["application/json"]
    produces = op.get("produces") or doc_produces or ["application/json"]
    out = {k: v for k, v in op.items() if k not in ("consumes", "produces")}

    params = parameters(out)
    body_params = [p for p in params if p.get("in") == "body"]
    form_params = [p for p in params if p.get("in") == "formData" and "name" in p]
    rest = [p for p in params if p.get("in") not in ("body", "formData")]
    out["parameters"] = [_convert_parameter(p) for p in rest]
    if not out["parameters"]:
        del out["parameters"]

    if body_params:
        body = body_params[0]
        out["requestBody"] = {
            "content": {consumes[0]: {"schema": body.get("schema", {})}},
            "required": bool(body.get("required", False)),
        }
        if body.get("description"):
            out["requestBody"]["description"] = body["description"]
    elif form_params:
        media = (
            consumes[0]
            if consumes[0]
            in ("application/x-www-form-urlencoded", "multipart/form-data")
            else "application/x-www-form-urlencoded"
        )
        properties = {}
        required = []
        for p in form_params:
            properties[p["name"]] = _parameter_schema(p)
            if p.get("required"):
                required.append(p["name"])
        schema: dict = {"type": "object", "properties": properties}
        if required:
            schema["required"] = required
        out["requestBody"] = {
            "content": {media: {"schema": schema}},
            "required": bool(required),
        }

    responses = out.get("responses")
    if isinstance(responses, dict):
        out["responses"] = {
            status: _convert_response(resp, produces)
            for status, resp in responses.items()
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


def _convert_response(resp: Any, produces: list) -> Any:
    if not isinstance(resp, dict) or "schema" not in resp:
        return resp
    converted = {k: v for k, v in resp.items() if k != "schema"}
    converted["content"] = {produces[0]: {"schema": resp["schema"]}}
    return converted


# -- repairs shared by both dialects -----------------------------------------


def _synthesize_path_params(tree: dict) -> dict:
    """`tree` with each undeclared path template variable declared as a
    required string parameter. Copies the root, `paths` and each path item
    and operation it rewrites, once per path: a YAML alias or a shared
    `$ref` expansion may put one under several paths."""
    out = tree
    for path, item, method, op in operations(tree):
        declared = {
            p.get("name") for p in parameters(item) + parameters(op)
            if p.get("in") == "path"
        }
        missing = [var for var in _PATH_VAR_RE.findall(path) if var not in declared]
        if not missing:
            continue
        params = op.get("parameters")
        synthesized = [
            {"name": var, "in": "path", "required": True, "schema": {"type": "string"}}
            for var in missing
        ]
        if out is tree:
            out = {**tree, "paths": dict(tree["paths"])}
        paths = out["paths"]
        if paths[path] is item:
            paths[path] = dict(item)
        paths[path][method] = {
            **op, "parameters": (params if isinstance(params, list) else []) + synthesized
        }
    return out
