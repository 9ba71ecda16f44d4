"""Document loading, dialect detection, base URL, and normalization."""

from __future__ import annotations

import copy
import datetime
import json
import re
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

from automcp import ingest, yamltree
from automcp.compiler import compile_manifest, manifest_to_dict
from automcp.doctor import lint, load_vendor_rules
from automcp.errors import BaseUrlError, DialectError, ParseError
from automcp.ingest import (
    DIALECT_2_0,
    DIALECT_3_X,
    FORMAT_JSON,
    FORMAT_YAML,
    RawDocument,
    load_document,
    normalize,
    resolve_base_url,
)
from automcp.pipeline import compile_file
from automcp.refs import flatten
from automcp.security import extract_security
from conftest import DEFECTS, FIXTURES, build_contract, fixture_path, subclassed


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadDocument:
    def test_minimal_3_x_json(self, tmp_path):
        path = write(
            tmp_path, "a.json",
            '{"openapi":"3.0.0","info":{"title":"T","version":"1"},"paths":{}}',
        )
        doc = load_document(path)
        assert doc.format == FORMAT_JSON
        assert doc.dialect == DIALECT_3_X

    def test_swagger_2_0_yaml(self, tmp_path):
        path = write(tmp_path, "a.yaml", 'swagger: "2.0"\ninfo: {title: T}\npaths: {}\n')
        doc = load_document(path)
        assert doc.format == FORMAT_YAML
        assert doc.dialect == DIALECT_2_0

    def test_unknown_dialect(self, tmp_path):
        path = write(tmp_path, "a.yaml", 'asyncapi: "2.0"\n')
        with pytest.raises(DialectError):
            load_document(path)

    def test_json_wins_over_yaml(self, tmp_path):
        # every JSON document is also valid YAML; the stricter grammar wins
        path = write(tmp_path, "a.yaml", '{"openapi": "3.0.0", "paths": {}}')
        assert load_document(path).format == FORMAT_JSON

    def test_unparseable(self, tmp_path):
        path = write(tmp_path, "a.yaml", "{:::not parseable\n\t- ][")
        with pytest.raises(ParseError):
            load_document(path)

    @pytest.mark.parametrize("value", ["!!int abc", "!!float abc", "!!bool abc", "1" * 4301])
    def test_scalar_its_tag_cannot_hold_is_a_parse_error(self, tmp_path, value):
        path = write(tmp_path, "a.yaml", f"openapi: 3.0.0\npaths: {{}}\nx: {value}\n")
        with pytest.raises(ParseError):
            load_document(path)

    def test_scalar_root_rejected(self, tmp_path):
        path = write(tmp_path, "a.yaml", "just a string\n")
        with pytest.raises(ParseError):
            load_document(path)

    def test_3_1_accepted_with_warning(self, tmp_path):
        path = write(tmp_path, "a.json", '{"openapi":"3.1.0","paths":{}}')
        doc = load_document(path)
        assert doc.dialect == DIALECT_3_X


class TestResolveBaseUrl:
    def _doc_2_0(self, tmp_path, **fields):
        tree = {"swagger": "2.0", "paths": {}, **fields}
        path = write(tmp_path, "s.json", json.dumps(tree))
        return load_document(path)

    def _doc_3_x(self, tmp_path, servers):
        tree = {"openapi": "3.0.0", "paths": {}, "servers": servers}
        path = write(tmp_path, "s.json", json.dumps(tree))
        return load_document(path)

    def test_2_0_composition(self, tmp_path):
        doc = self._doc_2_0(
            tmp_path, schemes=["https"], host="api.example.com", basePath="/v1"
        )
        assert resolve_base_url(doc) == "https://api.example.com/v1"

    def test_2_0_prefers_https(self, tmp_path):
        doc = self._doc_2_0(tmp_path, schemes=["http", "https"], host="h.example")
        assert resolve_base_url(doc) == "https://h.example"

    def test_2_0_missing_host(self, tmp_path):
        doc = self._doc_2_0(tmp_path)
        with pytest.raises(BaseUrlError):
            resolve_base_url(doc)

    def test_unresolved_template_is_class_b(self, tmp_path):
        doc = self._doc_3_x(tmp_path, [{"url": "{{service-root}}"}])
        with pytest.raises(BaseUrlError) as excinfo:
            resolve_base_url(doc)
        assert excinfo.value.lint_class == "B"

    def test_plain_absolute_url(self, tmp_path):
        doc = self._doc_3_x(tmp_path, [{"url": "https://api.adp.com"}])
        assert resolve_base_url(doc) == "https://api.adp.com"

    def test_server_variable_defaults_substituted(self, tmp_path):
        doc = self._doc_3_x(
            tmp_path,
            [{
                "url": "https://{region}.api.example.com/{version}",
                "variables": {
                    "region": {"default": "eu"},
                    "version": {"default": "v2"},
                },
            }],
        )
        assert resolve_base_url(doc) == "https://eu.api.example.com/v2"

    def test_variable_without_default(self, tmp_path):
        doc = self._doc_3_x(
            tmp_path, [{"url": "https://{region}.example.com", "variables": {"region": {}}}]
        )
        with pytest.raises(BaseUrlError):
            resolve_base_url(doc)

    def test_relative_url(self, tmp_path):
        doc = self._doc_3_x(tmp_path, [{"url": "/v2"}])
        with pytest.raises(BaseUrlError):
            resolve_base_url(doc)

    def test_first_server_wins(self, tmp_path):
        doc = self._doc_3_x(
            tmp_path,
            [{"url": "https://first.example"}, {"url": "https://second.example"}],
        )
        assert resolve_base_url(doc) == "https://first.example"

    def test_trailing_slash_stripped(self, tmp_path):
        doc = self._doc_3_x(tmp_path, [{"url": "https://api.example.com/"}])
        assert resolve_base_url(doc) == "https://api.example.com"


SWAGGER_DOC = {
    "swagger": "2.0",
    "info": {"title": "Legacy", "version": "1"},
    "host": "legacy.example",
    "basePath": "/api",
    "schemes": ["https"],
    "consumes": ["application/json"],
    "produces": ["application/json"],
    "securityDefinitions": {
        "api_key": {"type": "apiKey", "in": "query", "name": "api_key"},
        "account": {"type": "basic"},
        "oauth": {
            "type": "oauth2",
            "flow": "accessCode",
            "authorizationUrl": "https://auth.legacy.example/authorize",
            "tokenUrl": "https://auth.legacy.example/token",
            "scopes": {"read": "Read"},
        },
    },
    "definitions": {
        "Item": {
            "type": "object",
            "properties": {"name": {"type": "string"}},
        }
    },
    "paths": {
        "/items": {
            "post": {
                "operationId": "createItem",
                "parameters": [
                    {
                        "name": "payload",
                        "in": "body",
                        "required": True,
                        "schema": {"$ref": "#/definitions/Item"},
                    }
                ],
                "responses": {
                    "200": {"description": "ok", "schema": {"$ref": "#/definitions/Item"}}
                },
            },
            "get": {
                "operationId": "listItems",
                "parameters": [
                    {"name": "limit", "in": "query", "type": "integer", "format": "int32"}
                ],
                "responses": {"200": {"description": "ok"}},
            },
        },
        "/items/{item_id}/tags": {
            "post": {
                "operationId": "tagItem",
                "parameters": [
                    {"name": "tag", "in": "formData", "type": "string", "required": True}
                ],
                "responses": {"200": {"description": "ok"}},
            }
        },
        "/dup": {
            "get": {"operationId": "listItems", "responses": {"200": {"description": "ok"}}}
        },
    },
}


# Path-item parameter inheritance: (path, the path item's parameters,
# the operation's, the operation's whole list after `normalize`). Each
# parameter is (name, its `in` or None for none, type).
ITEM_PARAMETER_CASES = {
    "override-with-absent-in-on-the-item": (
        "/a", [("a", None, "string")], [("a", "query", "integer")],
        [("a", "query", "integer")]),
    "override-with-absent-in-on-the-operation": (
        "/a", [("a", "query", "string")], [("a", None, "integer")],
        [("a", None, "integer")]),
    "same-name-under-another-in-both-kept": (
        "/a", [("a", "header", "string")], [("a", "query", "integer")],
        [("a", "header", "string"), ("a", "query", "integer")]),
    "form-field-overridden": (
        "/a", [("t", "formData", "string"), ("q", "query", "string")],
        [("t", "formData", "integer")],
        [("q", "query", "string"), ("t", "formData", "integer")]),
    "path-variable-on-the-item": (
        "/a/{id}", [("id", "path", "integer")], [], [("id", "path", "integer")]),
    "path-variable-on-the-operation": (
        "/a/{id}", [], [("id", "path", "integer")], [("id", "path", "integer")]),
    "path-variable-declared-nowhere": (
        "/a/{id}", [], [("q", "query", "integer")],
        [("q", "query", "integer"), ("id", "path", "string")]),
    "item-parameters-not-a-list": (
        "/a", {"name": "q", "in": "query"}, [("x", "query", "integer")],
        [("x", "query", "integer")]),
}
DIALECTS = ("2.0", "3.x")


def item_parameter_doc(dialect, path, item_params, op_params) -> RawDocument:
    """A one-operation (POST) document in `dialect` with the given path
    item and operation parameters."""
    def node(name, location, kind):
        param = {"name": name} if location is None else {"name": name, "in": location}
        if dialect == "2.0":
            return {**param, "type": kind}
        return {**param, "schema": {"type": kind}}

    if isinstance(item_params, list):
        item_params = [node(*p) for p in item_params]
    op = {"parameters": [node(*p) for p in op_params],
          "responses": {"200": {"description": "ok"}}}
    root = ({"swagger": "2.0", "host": "t.example"} if dialect == "2.0"
            else {"openapi": "3.0.3", "servers": [{"url": "https://t.example"}]})
    tree = {**root, "info": {"title": "T", "version": "1"},
            "paths": {path: {"parameters": item_params, "post": op}}}
    return RawDocument(Path("case.json"), FORMAT_JSON,
                       DIALECT_2_0 if dialect == "2.0" else DIALECT_3_X, tree)


def whole_list(op) -> list[tuple]:
    """A normalized operation's parameters as (name, `in`, type), its form
    body's fields (from 2.0 formData) last."""
    params = [(p["name"], p.get("in"), p["schema"]["type"])
              for p in op.get("parameters", [])]
    media = op.get("requestBody", {}).get("content", {})
    form = media.get("application/x-www-form-urlencoded", {}).get("schema", {})
    return params + [(name, "formData", schema["type"])
                     for name, schema in form.get("properties", {}).items()]


SPEC_FILES = sorted(
    p for p in list(FIXTURES.iterdir()) + list(DEFECTS.iterdir())
    if p.suffix in (".json", ".yaml")
    and p.name not in ("vendor_rules.json", "reference_counts.json")
)

SWAGGER_FILES = [p for p in SPEC_FILES if load_document(p).dialect == DIALECT_2_0]


class TestNormalize:
    @pytest.fixture()
    def swagger_doc(self, tmp_path):
        return load_document(write(tmp_path, "legacy.json", json.dumps(SWAGGER_DOC)))

    def test_security_definitions_relocated(self, swagger_doc):
        tree = normalize(swagger_doc)
        assert "api_key" in tree["components"]["securitySchemes"]
        basic = tree["components"]["securitySchemes"]["account"]
        assert basic == {"type": "http", "scheme": "basic"}

    def test_oauth_flow_converted(self, swagger_doc):
        flows = normalize(swagger_doc)["components"]["securitySchemes"]["oauth"]["flows"]
        assert "authorizationCode" in flows
        assert flows["authorizationCode"]["tokenUrl"].endswith("/token")

    def test_definitions_become_schemas_and_refs_rewritten(self, swagger_doc):
        """`$ref`s are inlined before normalization, so the body's
        `#/definitions/Item` arrives as the schema itself."""
        tree = build_contract(swagger_doc).tree
        body = tree["paths"]["/items"]["post"]["requestBody"]
        assert body["content"]["application/json"]["schema"] == (
            SWAGGER_DOC["definitions"]["Item"])
        assert "schemas" not in tree.get("components", {})

    def test_body_param_becomes_request_body(self, swagger_doc):
        op = normalize(swagger_doc)["paths"]["/items"]["post"]
        assert op["requestBody"]["required"] is True
        assert "parameters" not in op

    def test_form_data_becomes_urlencoded_body(self, swagger_doc):
        op = normalize(swagger_doc)["paths"]["/items/{item_id}/tags"]["post"]
        media = op["requestBody"]["content"]["application/x-www-form-urlencoded"]
        assert media["schema"]["properties"]["tag"] == {"type": "string"}
        assert media["schema"]["required"] == ["tag"]

    def test_file_form_field_becomes_a_binary_string(self, tmp_path):
        ok = {"200": {"description": "ok"}}
        doc = load_document(write(tmp_path, "upload.json", json.dumps({
            "swagger": "2.0", "info": {"title": "T", "version": "1"},
            "host": "t.example", "consumes": ["multipart/form-data"],
            "paths": {
                "/files": {"post": {"parameters": [
                    {"name": "upload", "in": "formData", "type": "file"}],
                    "responses": ok}},
            },
        })))
        paths = normalize(doc)["paths"]
        media = paths["/files"]["post"]["requestBody"]["content"]["multipart/form-data"]
        assert media["schema"]["properties"] == {
            "upload": {"type": "string", "format": "binary"}}

    def test_path_level_form_data_is_inherited_unless_overridden(self, tmp_path):
        doc = load_document(write(tmp_path, "form.json", json.dumps({
            "swagger": "2.0", "info": {"title": "T", "version": "1"},
            "host": "t.example",
            "paths": {"/a": {
                "parameters": [
                    {"name": "a", "in": "formData", "type": "string"},
                    {"name": "b", "in": "formData", "type": "string"},
                    {"name": "q", "in": "query", "type": "string"},
                ],
                "post": {
                    "parameters": [{"name": "b", "in": "formData", "type": "integer",
                                    "required": True}],
                    "responses": {"200": {"description": "ok"}},
                },
            }},
        })))
        item = normalize(doc)["paths"]["/a"]
        assert "parameters" not in item
        assert item["post"]["parameters"] == [
            {"name": "q", "in": "query", "schema": {"type": "string"}}]
        media = item["post"]["requestBody"]["content"]["application/x-www-form-urlencoded"]
        assert media["schema"] == {
            "type": "object",
            "properties": {"a": {"type": "string"}, "b": {"type": "integer"}},
            "required": ["b"],
        }

    def test_body_parameter_is_not_converted_as_a_parameter(self, tmp_path):
        """A body parameter with no `schema` gives an empty body schema,
        inherited from the path item or not: its `type` stays where it is."""
        untyped = {"name": "b", "in": "body", "type": "string"}
        tree = {"swagger": "2.0", "host": "h.example", "paths": {
            "/own": {"post": {"parameters": [untyped], "responses": {}}},
            "/item": {"parameters": [untyped], "post": {"responses": {}}}}}
        paths = normalize(load_document(write(tmp_path, "b.json", json.dumps(tree))))
        for path in ("/own", "/item"):
            body = paths["paths"][path]["post"]["requestBody"]
            assert body["content"] == {"application/json": {"schema": {}}}

    def test_query_param_type_wrapped_in_schema(self, swagger_doc):
        op = normalize(swagger_doc)["paths"]["/items"]["get"]
        param = op["parameters"][0]
        assert param["schema"] == {"type": "integer", "format": "int32"}

    def test_param_with_a_schema_or_no_type_kept_as_it_is(self, tmp_path):
        with_schema = {"name": "a", "in": "query", "schema": {"type": "integer"}}
        untyped = {"name": "b", "in": "header", "description": "free text"}
        tree = {"swagger": "2.0", "host": "h.example", "paths": {"/x": {
            "parameters": [untyped],
            "get": {"parameters": [with_schema], "responses": {}}}}}
        item = normalize(load_document(write(tmp_path, "s.json", json.dumps(tree))))
        item = item["paths"]["/x"]
        assert "parameters" not in item
        assert item["get"]["parameters"] == [untyped, with_schema]

    def test_duplicate_operation_ids_suffixed(self, swagger_doc):
        contract = build_contract(swagger_doc)
        assert contract.tree["paths"]["/items"]["get"]["operationId"] == "listItems"
        assert contract.tree["paths"]["/dup"]["get"]["operationId"] == "listItems"
        manifest = compile_manifest(
            contract, extract_security(contract), resolve_base_url(swagger_doc)
        )
        names = {t.endpoint.path_template: t.tool_name for t in manifest.tools
                 if t.endpoint.path_template in ("/items", "/dup")
                 and t.endpoint.method == "GET"}
        assert names == {"/items": "listitems", "/dup": "listitems_2"}

    def test_undeclared_path_variable_synthesized(self, swagger_doc):
        op = normalize(swagger_doc)["paths"]["/items/{item_id}/tags"]["post"]
        synthesized = [p for p in op.get("parameters", []) if p["name"] == "item_id"]
        assert synthesized == [
            {"name": "item_id", "in": "path", "required": True, "schema": {"type": "string"}}
        ]

    def test_no_swagger_only_keys_remain(self, swagger_doc):
        tree = normalize(swagger_doc)

        def scan(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield key
                    yield from scan(value)
            elif isinstance(node, list):
                for value in node:
                    yield from scan(value)

        top_level = set(tree)
        for key in ("swagger", "definitions", "securityDefinitions", "schemes",
                    "host", "basePath"):
            assert key not in top_level

    def test_idempotent(self, swagger_doc):
        cases = [item_parameter_doc(dialect, *case[:3]) for dialect in DIALECTS
                 for case in ITEM_PARAMETER_CASES.values()]
        for doc in [swagger_doc, *cases]:
            once = normalize(doc)
            twice = normalize(
                type(doc)(
                    source_path=doc.source_path,
                    format=doc.format,
                    dialect="openapi_3_x",
                    tree=copy.deepcopy(once),
                )
            )
            assert twice == once

    def test_idempotent_on_3_x_fixture(self):
        doc = load_document(fixture_path("allauth.yaml"))
        once = normalize(doc)
        doc.tree = copy.deepcopy(once)
        assert normalize(doc) == once

    @pytest.mark.parametrize("stage", ["raw", "flattened"])
    @pytest.mark.parametrize("path", SPEC_FILES, ids=lambda path: path.name)
    def test_input_tree_not_mutated(self, path, stage):
        """normalize copies only what it rewrites, on the raw document and
        on the flattened contract, whose acyclic expansions are shared."""
        doc = load_document(path)
        if stage == "flattened":
            doc = flatten(doc.tree)
        before = copy.deepcopy(doc.tree)
        normalize(doc)
        assert doc.tree == before

    @pytest.mark.parametrize("dialect", DIALECTS)
    @pytest.mark.parametrize("case", ITEM_PARAMETER_CASES)
    def test_operation_gets_its_whole_parameter_list(self, case, dialect):
        """The path item's parameters the operation's own do not override
        (by name and `in`, an absent `in` read as query), then its own,
        then a required string for each undeclared path variable."""
        path, item_params, op_params, expected = ITEM_PARAMETER_CASES[case]
        doc = item_parameter_doc(dialect, path, item_params, op_params)
        before = copy.deepcopy(doc.tree)
        item = normalize(doc)["paths"][path]
        assert doc.tree == before
        assert "parameters" not in item
        assert whole_list(item["post"]) == expected

    @pytest.mark.parametrize("path", SWAGGER_FILES, ids=lambda path: path.name)
    def test_responses_kept_as_written(self, path, tmp_path):
        """A converted 2.0 operation shares its `responses` node with the
        flattened tree, and no response `schema` changes the manifest or
        the lint findings: compile reads only the response codes."""
        raw = load_document(path)
        flat = flatten(raw.tree)
        tree = normalize(flat)
        for path_key, _, method, op in ingest.operations(flat.tree):
            if "responses" in op:
                assert tree["paths"][path_key][method]["responses"] is op["responses"]

        bare = copy.deepcopy(raw.tree)
        for *_, op in ingest.operations(bare):
            for response in [*op.get("responses", {}).values(),
                             *bare.get("responses", {}).values()]:
                if isinstance(response, dict):
                    response.pop("schema", None)
        assert bare != raw.tree
        rules = load_vendor_rules(fixture_path("vendor_rules.json"))

        def view(spec):  # the manifest and the lint findings
            doc = load_document(spec)
            findings = [f.to_dict() for f in lint(build_contract(doc), doc, rules)]
            return manifest_to_dict(compile_file(spec).manifest, include_bindings=True), findings

        assert view(write(tmp_path, path.name, json.dumps(bare))) == view(path)

    def test_every_path_var_declared_after_normalize(self, swagger_doc):
        tree = normalize(swagger_doc)
        for path, item in tree["paths"].items():
            variables = {seg[1:-1] for seg in path.split("/") if seg.startswith("{")}
            for method, op in item.items():
                if method in ("get", "post", "put", "delete", "patch"):
                    declared = [
                        p["name"]
                        for p in op.get("parameters", []) + item.get("parameters", [])
                        if isinstance(p, dict) and p.get("in") == "path"
                    ]
                    for var in variables:
                        assert declared.count(var) == 1



class TestOperations:
    def test_document_order_and_only_mapping_operations(self):
        item = {"summary": "s", "parameters": [], "post": {"operationId": "p"},
                "x-get": {}, "trace": {}, "get": {"operationId": "g"}, "put": None}
        tree = {"paths": {"/a": item, "/b": "not an item", "/c": {"delete": {}}}}
        assert list(ingest.operations(tree)) == [
            ("/a", item, "post", {"operationId": "p"}),
            ("/a", item, "get", {"operationId": "g"}),
            ("/c", {"delete": {}}, "delete", {}),
        ]

    @pytest.mark.parametrize("paths", [None, [], ["/a"], "paths"])
    def test_no_paths_mapping_yields_nothing(self, paths):
        assert list(ingest.operations({"paths": paths})) == []

    @pytest.mark.parametrize("value", [None, "x", {"name": "id"}, [], [None, 3]])
    def test_parameters_not_a_list_of_mappings_reads_as_empty(self, value):
        assert ingest.parameters({"parameters": value}) == []


# Every JSON value, and what each reader gives for it: (mapping, sequence,
# text, flag). IS marks the value itself, as the same object.
IS = object()
READER_TABLE = {
    "str": ("x", {}, [], "x", False),
    "empty-str": ("", {}, [], "", False),
    "int": (7, {}, [], "7", False),
    "float": (1.5, {}, [], "1.5", False),
    "true": (True, {}, [], "True", True),
    "false": (False, {}, [], "False", False),
    "null": (None, {}, [], "", False),
    "dict": ({"k": 1}, IS, [], "", False),
    "list": ([1], {}, IS, "", False),
}


class TestReaders:
    """README's "Malformed input" rules, reader by reader: a field of the
    wrong type reads as absent, a text field reads a number or boolean
    as its `str()`, and a flag is true only for `True`."""

    @pytest.mark.parametrize("name", READER_TABLE)
    @pytest.mark.parametrize("under", ["key", "index"])
    @pytest.mark.parametrize("build", [lambda node: node, subclassed],
                             ids=["loaded", "subclassed"])
    def test_each_reader_over_each_json_value(self, name, under, build):
        """A subclass of dict, list or str reads as the class it extends."""
        value, *expected = READER_TABLE[name]
        node = build({"f": value} if under == "key" else ["pad", value])
        key = "f" if under == "key" else 1
        value = node[key]
        readers = (ingest.mapping, ingest.sequence, ingest.text, ingest.flag)
        for reader, want in zip(readers, expected):
            got = reader(node, key)
            if want is IS:
                assert got is value
            elif reader is ingest.flag and under == "index":
                assert got is False  # a flag is read from a mapping only
            else:
                assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("node, key", [
        ({}, "f"), ({"g": 1}, "f"), (["pad"], 1), (["pad"], -1), (["pad"], "0"),
        ("text", 0), (None, "f"), (7, 0),
    ], ids=["empty", "missing-key", "past-the-end", "negative", "text-index",
            "text-node", "null-node", "int-node"])
    def test_nothing_there_reads_as_the_default(self, node, key):
        assert ingest.mapping(node, key) == {}
        assert ingest.mapping(node, key, None) is None
        assert ingest.sequence(node, key) == []
        assert ingest.sequence(node, key, None) is None
        assert ingest.text(node, key) == ""
        assert ingest.text(node, key, None) is None
        assert ingest.flag(node, key) is False

    def test_each_default_is_a_new_container(self):
        first, second = ingest.mapping({}, "f"), ingest.mapping({}, "f")
        assert first == {} and first is not second
        first, second = ingest.sequence({}, "f"), ingest.sequence({}, "f")
        assert first == [] and first is not second

    def test_text_default_is_given_for_wrong_types_too(self):
        assert ingest.text({"in": None}, "in", "query") == "query"
        assert ingest.text({"in": ["path"]}, "in", "query") == "query"
        assert ingest.text({"in": 0}, "in", "query") == "0"

    @pytest.mark.parametrize("name", READER_TABLE)
    @pytest.mark.parametrize("under", ["key", "index"])
    def test_required_raises_its_error_with_the_pointer(self, name, under):
        value = READER_TABLE[name][0]
        node, key = ({"f": value}, "f") if under == "key" else (["pad", value], 1)
        required = (BaseUrlError, "#/f")
        for reader, kind, noun in ((ingest.mapping, dict, "a mapping"),
                                   (ingest.sequence, list, "a list"),
                                   (ingest.text, (str, int, float), "a string")):
            if value is None or isinstance(value, kind):
                assert reader(node, key, required=required) \
                    == reader(node, key)  # present and right, or absent
                continue
            with pytest.raises(BaseUrlError, match=f"^#/f is not {noun}$") as caught:
                reader(node, key, required=required)
            assert caught.value.pointer == "#/f"


# -- libyaml and the pure-Python loader --------------------------------------------

YAML_SPECS = sorted(FIXTURES.glob("*.yaml")) + sorted(DEFECTS.glob("*.yaml"))


class PureLoaderOnly:
    """Runs a test class again as if PyYAML had been built without libyaml."""

    @pytest.fixture(autouse=True)
    def _without_libyaml(self, monkeypatch):
        monkeypatch.setattr(yamltree, "_FastLoader", None)


class TestLoadDocumentWithoutLibyaml(PureLoaderOnly, TestLoadDocument):
    pass


class TestResolveBaseUrlWithoutLibyaml(PureLoaderOnly, TestResolveBaseUrl):
    pass


class TestNormalizeWithoutLibyaml(PureLoaderOnly, TestNormalize):
    pass


def collection_depth(node) -> int:
    if isinstance(node, dict):
        return 1 + max(map(collection_depth, node.values()), default=0)
    if isinstance(node, list):
        return 1 + max(map(collection_depth, node), default=0)
    return 0


yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=30,
)


def node_outline(node, key_tag=None):
    """A `yamltree.Node` as (kind, span, column, flow style, key tag,
    children); an alias is left out."""
    if node.kind is yamltree.MAPPING:
        children = [(node_outline(k, yamltree.scalar_tag(k)), node_outline(v))
                    for k, v in zip(node.value[::2], node.value[1::2])
                    if yamltree.ALIAS not in (k.kind, v.kind)]
    elif node.kind is yamltree.SEQUENCE:
        children = [node_outline(v) for v in node.value if v.kind is not yamltree.ALIAS]
    else:
        children = None
    return (node.kind, node.start, node.end, node.column,
            node.flow if children is not None else None, key_tag, children)


def composed_outline(node, key_tag=None):
    """A PyYAML node as `node_outline` writes a `yamltree.Node`."""
    start, end = node.start_mark, node.end_mark
    if isinstance(node, yaml.MappingNode):
        children = [(composed_outline(k, k.tag), composed_outline(v)) for k, v in node.value]
    elif isinstance(node, yaml.SequenceNode):
        children = [composed_outline(v) for v in node.value]
    else:
        children = None
    kind = {yaml.MappingNode: yamltree.MAPPING, yaml.SequenceNode: yamltree.SEQUENCE,
            yaml.ScalarNode: yamltree.SCALAR}[type(node)]
    return (kind, start.index, end.index, start.column,
            bool(node.flow_style) if children is not None else None, key_tag, children)


def node_depth(node) -> int:
    """How many collections a `yamltree.Node` nests, its keys aside."""
    if node.kind is yamltree.MAPPING:
        return 1 + max(map(node_depth, node.value[1::2]), default=0)
    if node.kind is yamltree.SEQUENCE:
        return 1 + max(map(node_depth, node.value), default=0)
    return 0


class TestYamlLoaders:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("path", YAML_SPECS, ids=lambda p: p.name)
    def test_libyaml_and_pure_loader_agree(self, path):
        text = path.read_text(encoding="utf-8")
        pure = yaml.load(text, Loader=yaml.SafeLoader)
        assert yaml.load(text, Loader=yaml.CSafeLoader) == pure
        assert load_document(path).tree == pure

    @given(yaml_values, st.sampled_from([False, True, None]), st.integers(2, 5),
           st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028", "\u2029"]),
           st.sampled_from(["", "\ufeff"]))
    @example([[[1]]], False, 2, "\n", "\ufeff")
    @example({"a": [[[1]]]}, False, 2, "\u2028", "")
    def test_source_nodes_are_the_pure_composers(self, value, flow_style, indent,
                                                  newline, bom):
        """Over every YAML line break and with or without a leading BOM,
        which both loaders skip: the walk's nodes have the kinds, spans,
        columns, flow styles and key tags of `yaml.compose`'s, and nest
        as deep as the loaded tree."""
        text = bom + yaml.safe_dump(
            value, default_flow_style=flow_style, indent=indent,
            allow_unicode=True).replace("\n", newline)
        nodes = yamltree.source_nodes(text)
        assert node_outline(nodes) == composed_outline(
            yaml.compose(text, Loader=yamltree._PureLoader))
        assert node_depth(nodes) == collection_depth(yaml.load(
            text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)))

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
    def test_source_nodes_refuse_an_undefined_alias(self, libyaml, monkeypatch):
        """As the composer does: a repair whose splice dropped an anchor
        leaves text that no later splice reads."""
        if not libyaml:
            monkeypatch.setattr(yamltree, "_FastLoader", None)
        with pytest.raises(yaml.YAMLError, match="undefined alias 'nope'"):
            yamltree.source_nodes("a: [1]\nb: *nope\n")

    def test_text_that_may_nest_deeply_skips_libyaml(self, monkeypatch):
        """The event walk counts open collections, and text that nests
        past `_LIBYAML_MAX_DEPTH` goes to the pure loader, never to the
        fast loader's `yaml.load`."""
        used = []
        loaders = []
        load = yaml.load

        class SpyLoader(yaml.SafeLoader):
            def __init__(self, stream):
                used.append(stream)
                super().__init__(stream)

        def spy_load(stream, Loader):
            loaders.append(Loader)
            return load(stream, Loader=Loader)

        monkeypatch.setattr(yamltree, "_FastLoader", SpyLoader)
        monkeypatch.setattr(yaml, "load", spy_load)
        assert yamltree._load_yaml("a: [1, {b: 2}]\n") == {"a": [1, {"b": 2}]}
        assert len(used) == 1 and loaders == []
        with pytest.raises(RecursionError):
            yamltree._load_yaml("- " * (yamltree._LIBYAML_MAX_DEPTH + 1) + "x\n")
        assert len(used) == 2 and loaders == [yamltree._PureLoader]

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("text", [
        "a: !foo x\nb: " + "[" * 2001 + "]" * 2001 + "\n",
        "? [k]\n: " + "[" * 2001 + "]" * 2001 + "\n",
        "a: 1\n---\n" + "- " * 2001 + "x\n",
    ], ids=["unknown-tag", "collection-key", "second-document"])
    def test_fallback_keeps_the_bound(self, text, monkeypatch):
        """What the walk leaves to PyYAML's constructor goes to libyaml's
        recursive composer only if the rest of the stream is shallow."""
        loaders = []
        load = yaml.load

        def spy_load(stream, Loader):
            loaders.append(Loader)
            return load(stream, Loader=Loader)

        monkeypatch.setattr(yaml, "load", spy_load)
        with pytest.raises((RecursionError, yaml.YAMLError)):
            yamltree._load_yaml(text)
        assert loaders == [yamltree._PureLoader]

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    def test_deep_flow_text_stops_at_the_bound(self, monkeypatch):
        """libyaml's event stream slows quadratically with depth (about 7 s
        for 40,000 levels), so the walk must stop reading at the bound."""
        events = []

        class CountingLoader(yaml.CSafeLoader):
            def get_event(self):
                events.append(None)
                return super().get_event()

        monkeypatch.setattr(yamltree, "_FastLoader", CountingLoader)
        start = time.monotonic()
        with pytest.raises(RecursionError):
            yamltree._load_yaml("[" * 100_000)
        assert time.monotonic() - start < 20
        assert len(events) == yamltree._LIBYAML_MAX_DEPTH + 3  # stream, document

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    def test_source_nodes_stop_at_the_bound(self, monkeypatch):
        """The positioned walk counts depth as the tree walk does, within
        `test_deep_flow_text_stops_at_the_bound`'s time."""
        events = []

        class CountingLoader(yaml.CSafeLoader):
            def get_event(self):
                events.append(None)
                return super().get_event()

        monkeypatch.setattr(yamltree, "_FastLoader", CountingLoader)
        start = time.monotonic()
        with pytest.raises(yamltree._TooDeep):
            yamltree.source_nodes("[" * 100_000)
        assert time.monotonic() - start < 20
        assert len(events) == yamltree._LIBYAML_MAX_DEPTH + 3  # stream, document

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("text", [
        "- " * 2000 + "x\n", "[" * 2000 + "]" * 2000 + "\n",
    ], ids=["block", "flow"])
    def test_document_at_the_bound_is_built_from_events(self, text, monkeypatch):
        monkeypatch.setattr(yaml, "load", refuse)
        node, depth = yamltree._load_yaml(text), 0
        while isinstance(node, list):
            node, depth = (node[0] if node else None), depth + 1
        assert depth == yamltree._LIBYAML_MAX_DEPTH

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("text", [
        "\ufeff\ufeffa: [1]\n", "a: 1\n\ufeff", "a:\n  b: 1\n\ufeffc: 2\n",
    ])
    def test_bom_past_the_start_gets_the_pure_loaders_result(self, text):
        """libyaml skips a BOM at any line start, the pure loader only at
        the start of the text."""
        try:
            expected = yaml.load(text, Loader=yaml.SafeLoader)
        except yaml.YAMLError as exc:
            with pytest.raises(yaml.YAMLError, match=re.escape(str(exc))):
                yamltree._load_yaml(text)
        else:
            assert yamltree._load_yaml(text) == expected

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
    def test_plain_dates_read_as_text(self, tmp_path, monkeypatch, libyaml):
        """A plain date or time is the text a JSON spec would hold, as a
        value and as a key, in the tree and in the positioned nodes; PyYAML's
        own loaders still read a date."""
        if not libyaml:
            monkeypatch.setattr(yamltree, "_FastLoader", None)
        text = ("openapi: 3.0.3\nd: 2020-01-01\nt: 2001-12-14 21:59:43.10\n"
                "2020-01-02: k\nl: [2020-01-03]\n")
        tree = load_document(write(tmp_path, "dates.yaml", text)).tree
        assert tree == {"openapi": "3.0.3", "d": "2020-01-01",
                        "t": "2001-12-14 21:59:43.10", "2020-01-02": "k",
                        "l": ["2020-01-03"]}
        node = yamltree.source_nodes(text)
        assert {yamltree.scalar_tag(key) for key in node.value[::2]} == {
            "tag:yaml.org,2002:str"}
        assert {yamltree.scalar_tag(value) for value in node.value[1:-2:2]} == {
            "tag:yaml.org,2002:str"}
        assert yaml.safe_load(text)["d"] == datetime.date(2020, 1, 1)

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
    def test_explicit_tags_read_as_json_values(self, tmp_path, monkeypatch, libyaml):
        """A tagged node whose value JSON cannot hold reads as the node it
        tags; PyYAML's own loaders still build a date, bytes and a set."""
        if not libyaml:
            monkeypatch.setattr(yamltree, "_FastLoader", None)
        text = ("openapi: 3.0.3\nd: !!timestamp 2020-01-01\nb: !!binary aGVsbG8=\n"
                "s: !!set {x, y}\no: !!omap [k: 1]\np: !!pairs [k: 1, k: 2]\n"
                "!!timestamp 2020-01-02: key\n")
        tree = load_document(write(tmp_path, "tags.yaml", text)).tree
        assert tree == {"openapi": "3.0.3", "d": "2020-01-01", "b": "aGVsbG8=",
                         "s": {"x": None, "y": None}, "o": [{"k": 1}],
                         "p": [{"k": 1}, {"k": 2}], "2020-01-02": "key"}
        loaded = yaml.safe_load(text)
        assert (loaded["d"], loaded["b"], loaded["s"]) == (
            datetime.date(2020, 1, 1), b"hello", {"x", "y"})

    def test_parse_error_message_is_the_pure_loaders(self, tmp_path):
        text = "openapi: 3.0.0\npaths: {a: [1, 2}\n"
        with pytest.raises(yaml.YAMLError) as pure:
            yaml.load(text, Loader=yaml.SafeLoader)
        with pytest.raises(ParseError) as loaded:
            load_document(write(tmp_path, "bad.yaml", text))
        assert str(loaded.value).endswith(str(pure.value))


# -- the tree built from libyaml's parse events ------------------------------------

def shape(node, seen=None):
    """`node` with every scalar's type and repr and every collection's key
    order spelled out, and a collection met again (an alias, or a cycle)
    written as the index of its first visit; equal shapes mean the same
    tree in key order, scalar type and sharing."""
    seen = {} if seen is None else seen
    if isinstance(node, (dict, list)):
        if id(node) in seen:
            return ("seen", seen[id(node)])
        seen[id(node)] = len(seen)
        if isinstance(node, dict):
            return ("dict", [(shape(k, seen), shape(v, seen)) for k, v in node.items()])
        return ("list", [shape(v, seen) for v in node])
    return (type(node).__name__, repr(node))


def load_outcome(load, text):
    """(shape of the tree, None) or (None, (error type, message))."""
    try:
        return shape(load(text)), None
    except Exception as exc:  # the outcome under test, whatever it is
        return None, (type(exc), str(exc))


def todays_load(text):
    """The load through PyYAML's constructor, which the event walk falls
    back to: libyaml's `yaml.load`, then the pure loader's on a YAMLError."""
    try:
        return yaml.load(text, Loader=yamltree._FastLoader)
    except yaml.YAMLError:
        return yaml.load(text, Loader=yamltree._PureLoader)


YAML_SNIPPETS = {
    "merge-key": "base: &b {x: 1, y: 2}\nm:\n  <<: *b\n  y: 3\n",
    "merge-key-list": "a: &a {x: 1}\nb: &b {y: 2, x: 0}\nm:\n  z: 3\n  <<: [*a, *b]\n",
    "merge-number-keys": "b: &b {1: x, ~: n}\nm:\n  <<: *b\n  1.0: y\n  true: z\n  .inf: i\n",
    "duplicate-keys": "a: 1\nb: 2\na: [3]\n1: x\n1.0: y\ntrue: z\n",
    "timestamps": "d: 2001-12-14\nt: 2001-12-14t21:59:43.10-05:00\n"
                  "u: 2001-12-14 21:59:43.10\nz: 2002-12-14T21:59:43Z\n",
    "ints": "a: 0o17\nb: 0x1F\nc: 1_000\nd: 190:20:30\ne: 017\nf: 0b101\ng: -0\n",
    "floats": "a: .inf\nb: -.Inf\nc: 1.5e3\nd: 6.8523015e+5\ne: 190:20:30.15\nf: 1_0.5\n"
              "g: .NaN\n",
    "bools-and-nulls": "a: yes\nb: No\nc: ~\nd: null\ne: on\nf: OFF\ng:\n~: k\n",
    "quoted": "a: '1'\nb: \"yes\"\nc: '~'\nd: \"<<\"\n",
    "explicit-str": "a: !!str 123\nb: !!str yes\nc: ! 12\n",
    "binary": "b: !!binary aGVsbG8=\n",
    "bad-binary": "b: !!binary \"é\"\n",
    "bad-int": "a: !!int abc\n",
    "bad-float": "a: !!float abc\n",
    "bad-bool": "a: !!bool abc\n",
    "long-int": "a: " + "1" * 4301 + "\n",
    "set": "s: !!set {a, b}\n",
    "omap": "o: !!omap [a: 1, b: 2]\n",
    "tagged-map-and-seq": "m: !!map {a: 1}\ns: !!seq [1]\n",
    "unknown-tag": "a: !foo x\n",
    "value-key": "=: 1\n",
    "value-value": "a: =\n",
    "sequence-key": "? [1, 2]\n: x\n",
    "mapping-key": "? {a: 1}\n: x\n",
    "alias-key": "a: &k x\n*k : 2\n",
    "alias-to-collection-key": "a: &k [1]\n*k : 2\n",
    "self-referencing-sequence": "a: &x [1, *x]\n",
    "self-referencing-mapping": "&m {k: *m}\n",
    "shared-alias": "a: &x {b: [1]}\nc: *x\nd: [*x, *x]\n",
    "scalar-anchor": "a: &s 5\nb: *s\n",
    "undefined-alias": "a: *nope\n",
    "redefined-anchor": "a: &x 1\nb: &x 2\nc: *x\n",
    "empty-stream": "",
    "comment-only": "# nothing\n",
    "empty-document": "---\n",
    "explicit-end": "a: 1\n...\n",
    "two-documents": "a: 1\n---\nb: 2\n",
    "scalar-root": "just text\n",
    "sequence-root": "- 1\n- [2, {c: d}]\n",
    "parse-error": "a: [1, 2\nb: }\n",
    "leading-bom": "\ufeffa: 1\n",
    "plain-and-quoted": "a: yes\nb: 'yes'\nc: yes\nd: '1'\ne: 1\nf: \"1\"\ng: 1\n",
    "anchored-repeated-plain": "a: 1\nb: &n 1\nc: *n\nd: 1\ne: [&t yes, yes, *t]\n",
    "bang-tag": "a: ! yes\nb: yes\nc: ! 'yes'\nd: ! 12\ne: '12'\n",
}
# Left to PyYAML's own constructor (or, for a parse error, its pure loader)
FALLS_BACK = {
    "merge-key", "merge-key-list", "merge-number-keys", "bad-binary", "bad-int", "bad-float",
    "bad-bool", "long-int", "set",
    "omap", "unknown-tag", "value-key", "value-value", "sequence-key", "mapping-key",
    "alias-to-collection-key", "undefined-alias", "redefined-anchor",
    "two-documents", "parse-error",
}

# Trees of JSON values where PyYAML's loaders give a date, bytes, a set,
# tuples or keys that are not strings (or, for bad base64, an error): plain
# dates and times read as text, a tagged node as the node it tags, and a
# key as its JSON text, converted before it is stored so that `1`, `1.0`
# and `true` stay three keys
JSON_NOT_PYYAMLS = {
    "duplicate-keys": {"a": [3], "b": 2, "1": "x", "1.0": "y", "true": "z"},
    "bools-and-nulls": {"a": True, "b": False, "c": None, "d": None, "e": True,
                        "f": False, "g": None, "null": "k"},
    "merge-number-keys": {"b": {"1": "x", "null": "n"},
                          "m": {"1": "x", "null": "n", "1.0": "y", "true": "z",
                                "Infinity": "i"}},
    "timestamps": {"d": "2001-12-14", "t": "2001-12-14t21:59:43.10-05:00",
                   "u": "2001-12-14 21:59:43.10", "z": "2002-12-14T21:59:43Z"},
    "binary": {"b": "aGVsbG8="},
    "bad-binary": {"b": "é"},
    "set": {"s": {"a": None, "b": None}},
    "omap": {"o": [{"a": 1}, {"b": 2}]},
}

# Scalars their tag's constructor cannot read: PyYAML raises its
# ValueError or KeyError, and the reader a YAMLError, which `ingest`
# reports as a ParseError
UNREADABLE_SCALARS = {"bad-int", "bad-float", "bad-bool", "long-int"}

LOADABLE = sorted(FIXTURES.glob("*.yaml")) + sorted(FIXTURES.glob("*.json")) + sorted(
    DEFECTS.glob("*.yaml")) + sorted(DEFECTS.glob("*.json"))


def libyaml_load(text):
    return yaml.load(text, Loader=yaml.CSafeLoader)


def refuse(*args, **kwargs):
    raise AssertionError("fell back to yaml.load")


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML built without libyaml")
class TestTreeFromEvents:
    @pytest.mark.parametrize("path", LOADABLE, ids=lambda p: p.name)
    def test_fixture_tree_is_libyamls_built_from_events(self, path, monkeypatch):
        text = path.read_text(encoding="utf-8")
        expected = shape(libyaml_load(text))
        assert shape(todays_load(text)) == expected
        monkeypatch.setattr(yaml, "load", refuse)
        assert shape(yamltree._load_yaml(text)) == expected
        if path.suffix == ".yaml":
            assert shape(load_document(path).tree) == expected

    @pytest.mark.parametrize("name", YAML_SNIPPETS)
    def test_snippet_outcome_is_todays(self, name, monkeypatch):
        """Tree or error; built from events unless the snippet falls back."""
        text = YAML_SNIPPETS[name]
        expected = load_outcome(todays_load, text)
        if name in JSON_NOT_PYYAMLS:
            assert expected == (shape(JSON_NOT_PYYAMLS[name]), None)
        elif expected[1] is None:
            assert expected == load_outcome(libyaml_load, text)
        elif name in UNREADABLE_SCALARS:
            error, message = expected[1]
            assert issubclass(error, (ValueError, KeyError))
            expected = None, (yaml.YAMLError, f"{error.__name__}: {message}")
        if name not in FALLS_BACK:
            monkeypatch.setattr(yaml, "load", refuse)
        assert load_outcome(yamltree._load_yaml, text) == expected

    def test_flow_style_text_is_built_from_events(self, monkeypatch):
        """Many `[`/`{` in shallow text: only the walk counts depth, and
        such text does not go to the pure loader."""
        text = yaml.safe_dump(
            {"paths": {f"/p{i}": {"get": {"tags": [f"t{i}"], "responses": {
                "200": {"description": "ok"}}}} for i in range(1000)}},
            default_flow_style=None)
        assert "{" in text and "[" in text
        expected = shape(libyaml_load(text))
        monkeypatch.setattr(yaml, "load", refuse)
        assert shape(yamltree._load_yaml(text)) == expected

    @given(yaml_values, st.sampled_from([False, True, None]), st.integers(2, 5))
    def test_dumped_value_loads_to_libyamls_tree(self, value, flow_style, indent):
        text = yaml.safe_dump(value, default_flow_style=flow_style, indent=indent,
                              allow_unicode=True)
        assert shape(yamltree._load_yaml(text)) == shape(libyaml_load(text))


def mapping_keys(node, seen=None):
    """Every mapping key under `node`, each collection visited once."""
    seen = set() if seen is None else seen
    if id(node) in seen or not isinstance(node, (dict, list)):
        return
    seen.add(id(node))
    if isinstance(node, dict):
        yield from node
    for child in node.values() if isinstance(node, dict) else node:
        yield from mapping_keys(child, seen)


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
@pytest.mark.parametrize("source", LOADABLE + list(YAML_SNIPPETS),
                         ids=lambda s: getattr(s, "name", s))
def test_every_loaded_key_is_text(source, libyaml, monkeypatch):
    """Every mapping key of a loaded tree is a str, from the event walk and
    from each fallback loader alike."""
    if not libyaml:
        monkeypatch.setattr(yamltree, "_FastLoader", None)
    snippet = source in YAML_SNIPPETS
    try:
        tree = yamltree._load_yaml(
            YAML_SNIPPETS[source] if snippet else source.read_text(encoding="utf-8"))
    except yaml.YAMLError:
        assert snippet  # `test_snippet_outcome_is_todays` pins the error
        return
    assert all(isinstance(key, str) for key in mapping_keys(tree))
