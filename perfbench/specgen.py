"""Seeded OpenAPI spec generators and a small block-style YAML writer.

The seed changes names, id types and security assignment, never the
shape: every seed gives the same number of operations, refs and schema
nodes, so compile cost is comparable across seeds.
"""

from __future__ import annotations

import json
import random
import re
import string

_PLAIN = re.compile(r"^[A-Za-z/$][A-Za-z0-9_/{}.$-]*$")
_YAML_WORDS = {"true", "false", "null", "yes", "no", "on", "off", "y", "n", "none"}

MODELS = 40
LEAVES = 8
DIAMOND_DEPTH = 9


def _word(rng: random.Random, length: int = 8) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _scalar(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if _PLAIN.match(text) and text.lower() not in _YAML_WORDS:
        return text
    return json.dumps(text)


def to_yaml(node) -> str:
    """Block-style YAML for dicts, lists and JSON scalars."""
    lines: list[str] = []

    def emit(value, indent: int) -> None:
        pad = " " * indent
        if isinstance(value, dict):
            for key, item in value.items():
                head = f"{pad}{_scalar(key)}:"
                if isinstance(item, (dict, list)) and item:
                    lines.append(head)
                    emit(item, indent + 2)
                elif isinstance(item, dict):
                    lines.append(head + " {}")
                elif isinstance(item, list):
                    lines.append(head + " []")
                else:
                    lines.append(f"{head} {_scalar(item)}")
        else:
            for item in value:
                if isinstance(item, (dict, list)) and item:
                    lines.append(f"{pad}-")
                    emit(item, indent + 2)
                elif isinstance(item, (dict, list)):
                    lines.append(f"{pad}- {json.dumps(item)}")
                else:
                    lines.append(f"{pad}- {_scalar(item)}")

    emit(node, 0)
    return "\n".join(lines) + "\n"


def count_operations(tree: dict) -> int:
    """(path, method) pairs, counted independently of automcp."""
    methods = {"get", "put", "post", "delete", "options", "head", "patch"}
    return sum(
        1
        for item in (tree.get("paths") or {}).values()
        if isinstance(item, dict)
        for key in item
        if key in methods
    )


def _ref(kind: str, name: str) -> dict:
    return {"$ref": f"#/components/{kind}/{name}"}


def crud_spec(seed: int, n_ops: int) -> dict:
    """`n_ops / 5` resources, each with list, create, read, replace and a
    204 delete; shared component schemas and parameters behind $refs."""
    if n_ops % 5:
        raise ValueError("n_ops must be a multiple of 5")
    rng = random.Random(seed)
    leaves = {
        f"Leaf{k}": {
            "type": "object",
            "properties": {
                "code": {"type": "string", "description": f"code {_word(rng)}"},
                "weight": {"type": "number"},
            },
        }
        for k in range(LEAVES)
    }
    models = {}
    for k in range(MODELS):
        models[f"Model{k}"] = {
            "type": "object",
            "required": ["name"],
            "properties": {
                "name": {"type": "string", "description": f"name of {_word(rng)}"},
                "size": {"type": "integer", "minimum": 0},
                "active": {"type": "boolean"},
                "tags": {"type": "array", "items": {"type": "string"}},
                "detail": _ref("schemas", f"Leaf{k % LEAVES}"),
            },
        }
    parameters = {
        "Limit": {"name": "limit", "in": "query", "schema": {"type": "integer"}},
        "Offset": {"name": "offset", "in": "query", "schema": {"type": "integer"}},
        "Filter": {"name": "filter", "in": "query", "schema": {"type": "string"}},
        "RequestId": {"name": "X-Request-Id", "in": "header", "schema": {"type": "string"}},
    }
    paths: dict = {}
    names: set[str] = set()
    resources = n_ops // 5
    bearer_resources = set(rng.sample(range(resources), resources * 3 // 10))
    for r in range(resources):
        res = _word(rng)
        while res in names:
            res = _word(rng)
        names.add(res)
        title = res.capitalize()
        model = _ref("schemas", f"Model{rng.randrange(MODELS)}")
        bearer = {"security": [{"bearer": []}]} if r in bearer_resources else {}
        id_type = rng.choice(["string", "integer"])
        body = {"required": True, "content": {"application/json": {"schema": model}}}

        def ok(code: str, schema=None) -> dict:
            response: dict = {"description": "ok"}
            if schema is not None:
                response["content"] = {"application/json": {"schema": schema}}
            return {code: response}

        paths[f"/{res}"] = {
            "get": {
                "operationId": f"list{title}",
                "summary": f"List {res}",
                **bearer,
                "parameters": [_ref("parameters", p) for p in ("Limit", "Offset", "Filter")],
                "responses": ok("200", {"type": "array", "items": model}),
            },
            "post": {
                "operationId": f"create{title}",
                "summary": f"Create one of {res}",
                **bearer,
                "requestBody": body,
                "responses": ok("201", model),
            },
        }
        paths[f"/{res}/{{{res}_id}}"] = {
            "parameters": [
                {"name": f"{res}_id", "in": "path", "required": True,
                 "schema": {"type": id_type}}
            ],
            "get": {
                "operationId": f"get{title}",
                **bearer,
                "responses": ok("200", model),
            },
            "put": {
                "operationId": f"replace{title}",
                **bearer,
                "parameters": [_ref("parameters", "RequestId")],
                "requestBody": body,
                "responses": ok("200"),
            },
            "delete": {
                "operationId": f"delete{title}",
                **bearer,
                "responses": {"204": {"description": "deleted"}},
            },
        }
    return {
        "openapi": "3.0.3",
        "info": {"title": "Generated Bench API", "version": f"1.{seed}"},
        "servers": [{"url": "http://127.0.0.1:9"}],
        "security": [{"apiKey": []}],
        "components": {
            "securitySchemes": {
                "apiKey": {"type": "apiKey", "in": "header", "name": "X-Api-Key"},
                "bearer": {"type": "http", "scheme": "bearer"},
            },
            "parameters": parameters,
            "schemas": {**leaves, **models},
        },
        "paths": paths,
    }


def diamond_spec(seed: int) -> dict:
    """Each level refs the level below twice, so flattening expands
    2^(DIAMOND_DEPTH+1) - 1 refs per use; three operations use the top
    level."""
    rng = random.Random(seed)
    left, right, note = _word(rng, 6), _word(rng, 6), _word(rng, 6)
    schemas = {
        f"D{DIAMOND_DEPTH}": {"type": "object", "properties": {"value": {"type": "string"}}}
    }
    for level in range(DIAMOND_DEPTH - 1, -1, -1):
        below = _ref("schemas", f"D{level + 1}")
        schemas[f"D{level}"] = {
            "type": "object",
            "properties": {left: below, right: dict(below), note: {"type": "string"}},
        }
    top = _ref("schemas", "D0")
    body = {"content": {"application/json": {"schema": top}}}
    return {
        "openapi": "3.0.3",
        "info": {"title": "Diamond Bench API", "version": f"1.{seed}"},
        "servers": [{"url": "https://diamond.example"}],
        "components": {"schemas": schemas},
        "paths": {
            "/nodes": {
                "post": {"operationId": "createNode", "requestBody": body,
                         "responses": {"201": {"description": "created"}}},
            },
            "/nodes/{node_id}": {
                "parameters": [{"name": "node_id", "in": "path", "required": True,
                                "schema": {"type": "string"}}],
                "get": {"operationId": "getNode", "responses": {
                    "200": {"description": "ok",
                            "content": {"application/json": {"schema": top}}}}},
                "put": {"operationId": "replaceNode", "requestBody": body,
                        "responses": {"200": {"description": "ok"}}},
            },
        },
    }


def cyclic_spec(seed: int) -> dict:
    """Recursive schemas: a tree node that contains itself and two
    schemas that contain each other, so flatten breaks cycles."""
    rng = random.Random(seed)
    kids, boss, team = _word(rng, 6), _word(rng, 6), _word(rng, 6)
    node, employee, manager = (_ref("schemas", n) for n in ("Node", "Employee", "Manager"))
    schemas = {
        "Node": {"type": "object", "properties": {
            "label": {"type": "string"}, kids: {"type": "array", "items": node}}},
        "Employee": {"type": "object", "properties": {
            "name": {"type": "string"}, boss: manager}},
        "Manager": {"type": "object", "properties": {
            "name": {"type": "string"}, team: {"type": "array", "items": employee}}},
    }

    def ok(schema) -> dict:
        return {"200": {"description": "ok",
                        "content": {"application/json": {"schema": schema}}}}

    return {
        "openapi": "3.0.3",
        "info": {"title": "Cyclic Bench API", "version": f"1.{seed}"},
        "servers": [{"url": "https://cyclic.example"}],
        "components": {"schemas": schemas},
        "paths": {
            "/nodes": {"post": {
                "operationId": "createNode",
                "requestBody": {"content": {"application/json": {"schema": node}}},
                "responses": ok(node)}},
            "/employees": {"get": {"operationId": "listEmployees",
                                   "responses": ok({"type": "array", "items": employee})}},
            "/managers/{manager_id}": {"get": {
                "operationId": "getManager",
                "parameters": [{"name": "manager_id", "in": "path", "required": True,
                                "schema": {"type": "string"}}],
                "responses": ok(manager)}},
        },
    }
