"""Tool compilation: endpoint enumeration, naming, schemas, manifests."""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from automcp.compiler import (
    _sanitize_identifier,
    compile_manifest,
    derive_tool_name,
    manifest_to_dict,
    tools_list_payload,
)
from automcp.doctor import fix_loop, load_vendor_rules
from automcp.ingest import RawDocument, load_document, resolve_base_url
from automcp.pipeline import compile_file, count_operations
from automcp.security import extract_security
from conftest import DEFECTS, FIXTURES, build_contract, fixture_path

TOOL_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def compile_tree(tree: dict):
    dialect = "openapi_2_0" if tree.get("swagger") == "2.0" else "openapi_3_x"
    doc = RawDocument(Path("mem.json"), "json", dialect, tree)
    contract = build_contract(doc)
    return compile_manifest(
        contract, extract_security(contract), base_url=resolve_base_url(doc)
    )


def endpoints(compiled) -> list:
    """The endpoints `compile_manifest` builds for a compiled fixture."""
    manifest = compile_manifest(compiled.contract, compiled.manifest.schemes,
                                base_url=compiled.manifest.base_url)
    return [t.endpoint for t in manifest.tools]


def tool_named(compiled, name: str):
    return next(t for t in compiled.manifest.tools if t.tool_name == name)


class TestListEndpoints:
    def test_petstore_has_19_descriptors(self, petstore):
        assert len(endpoints(petstore)) == 19

    def test_path_level_params_shared_across_methods(self, petstore):
        eps = {(e.method, e.path_template): e for e in endpoints(petstore)}
        get_ep = eps[("GET", "/store/order/{orderId}")]
        delete_ep = eps[("DELETE", "/store/order/{orderId}")]
        for ep in (get_ep, delete_ep):
            assert [p.name for p in ep.parameters if p.location == "path"] == ["orderId"]

    def test_operation_level_param_wins_on_collision(self):
        manifest = compile_tree(
            {
                "openapi": "3.0.0",
                "info": {"title": "T", "version": "1"},
                "servers": [{"url": "https://t.example"}],
                "paths": {
                    "/a/{x}": {
                        "parameters": [
                            {"name": "x", "in": "path", "required": True,
                             "schema": {"type": "integer"}}
                        ],
                        "get": {
                            "parameters": [
                                {"name": "x", "in": "path", "required": True,
                                 "schema": {"type": "string"}}
                            ],
                            "responses": {"200": {"description": "ok"}},
                        },
                    }
                },
            }
        )
        [tool] = manifest.tools
        assert len(tool.endpoint.parameters) == 1
        assert tool.input_schema["properties"] == {"x": {"type": "string"}}

    def test_smallest_2xx_wins(self, petstore):
        order = tool_named(petstore, "placeorder")
        assert order.endpoint.success_status == 200

    def test_status_default_when_no_2xx(self):
        manifest = compile_tree(
            {
                "openapi": "3.0.0",
                "info": {"title": "T", "version": "1"},
                "servers": [{"url": "https://t.example"}],
                "paths": {
                    "/a": {"get": {"responses": {"404": {"description": "nope"}}}}
                },
            }
        )
        ep = manifest.tools[0].endpoint
        assert ep.success_status == 200

    def test_code_int_cannot_read_is_no_status(self):
        """`²01` is digits to `str.isdigit`, but no number `int` reads."""
        manifest = compile_tree({
            "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://t.example"}],
            "paths": {"/a": {"get": {"responses": {"\u00b201": {"description": "x"}}}}},
        })
        assert manifest.tools[0].endpoint.success_status == 200

    def test_doc_level_security_inherited(self, petstore):
        for ep in endpoints(petstore):
            assert ep.security == [{"api_key": []}]


class TestDeriveToolName:
    def test_operation_id_sanitized(self):
        name = derive_tool_name("repos/list-branches", "get", "/users/{id}", set())
        assert name == "repos_list_branches"

    def test_fallback_from_method_and_path(self):
        assert derive_tool_name("", "get", "/users/{id}", set()) == "get_users_id"

    def test_collision_suffixed(self):
        taken: set[str] = set()
        first = derive_tool_name("get-items", "get", "/users/{id}", taken)
        second = derive_tool_name("get.items", "get", "/users/{id}", taken)
        assert first == "get_items"
        assert second == "get_items_2"

    @pytest.mark.parametrize("text, expected", [
        ("a\u00a0b", "a_b"),
        ("tab\tand\u2003em\u3000ideo", "tab_and_em_ideo"),
        ("line\u2028sep", "line_sep"),
        ("x\x85y", "x_y"),
        ("v1.2.3", "v1_2_3"),
        ("get-user-by-id", "get_user_by_id"),
        ("/users/{id}", "users_id"),
        ("a___b", "a_b"),
        ("__x__", "x"),
        ("a_-_b", "a_b"),
        ("a - b", "a_b"),
        ("GetUser", "getuser"),
        ("Straße", "strae"),
        ("3d-model", "_3d_model"),
        ("42", "_42"),
        ("!!!", ""),
        ("ÄÖü", ""),
        ("", ""),
    ])
    def test_sanitize_identifier(self, text, expected):
        assert _sanitize_identifier(text) == expected

    def test_random_operation_ids_stay_unique_and_valid(self):
        rng = random.Random(99)
        corpus = ["repos/list-branches", "GET /users", "ünïcode-ops", "漢字", "  ",
                  "a" * 200, "Déjà.vu", "x/y/z", "123start", "!!!"]
        taken: set[str] = set()
        names = []
        for _ in range(300):
            base = rng.choice(corpus)
            names.append(derive_tool_name(base, "get", "/p/{q}", taken))
        assert len(names) == len(set(names))
        for name in names:
            assert len(name) <= 64
            assert TOOL_NAME_RE.match(name), name


class TestSynthesizeInputSchema:
    def test_path_params_required(self, petstore):
        schema = tool_named(petstore, "getuserbyname").input_schema
        assert list(schema["properties"]) == ["username"]
        assert schema["required"] == ["username"]
        assert schema["additionalProperties"] is False

    def test_empty_endpoint_schema_shape(self):
        manifest = compile_tree({
            "openapi": "3.0.0",
            "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://t.example"}],
            "paths": {"/ping": {"get": {"responses": {"200": {"description": "ok"}}}}},
        })
        assert manifest.tools[0].input_schema == {
            "type": "object",
            "properties": {},
            "required": [],
            "additionalProperties": False,
        }

    def test_required_body_under_body_key(self):
        body_schema = {"type": "object", "properties": {"name": {"type": "string"}}}
        manifest = compile_tree({
            "openapi": "3.0.0",
            "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://t.example"}],
            "paths": {"/things": {"post": {
                "requestBody": {"required": True, "content": {
                    "application/json": {"schema": body_schema}}},
                "responses": {"201": {"description": "created"}},
            }}},
        })
        schema = manifest.tools[0].input_schema
        assert schema["properties"]["body"] == body_schema
        assert "body" in schema["required"]

    def test_property_names_are_identifiers(self, petstore, allauth):
        for compiled in (petstore, allauth):
            for tool in compiled.manifest.tools:
                for prop in tool.input_schema["properties"]:
                    assert TOOL_NAME_RE.match(prop), prop

    def test_param_descriptions_carried(self, petstore):
        get_pet = tool_named(petstore, "getpetbyid")
        # sanitized property key: lowercase identifier derived from "petId"
        assert "ID of the pet" in get_pet.input_schema["properties"]["petid"].get(
            "description", ""
        )


class TestCompileManifest:
    def test_manifest_size_equals_operation_count(self, petstore, allauth):
        for compiled in (petstore, allauth):
            raw_ops = count_operations(compiled.raw.tree)
            assert len(compiled.manifest.tools) == raw_ops

    def test_empty_paths_manifest(self):
        manifest = compile_tree(
            {
                "openapi": "3.0.0",
                "info": {"title": "T", "version": "1"},
                "servers": [{"url": "https://t.example"}],
                "paths": {},
            }
        )
        assert manifest.tools == []

    def test_tool_names_unique(self, petstore, allauth):
        for compiled in (petstore, allauth):
            names = [t.tool_name for t in compiled.manifest.tools]
            assert len(names) == len(set(names))

    def test_duplicate_operation_ids_disambiguated(self):
        manifest = compile_tree(
            {
                "openapi": "3.0.0",
                "info": {"title": "T", "version": "1"},
                "servers": [{"url": "https://t.example"}],
                "paths": {
                    "/a": {"get": {"operationId": "listItems",
                                   "responses": {"200": {"description": "ok"}}}},
                    "/b": {"get": {"operationId": "listItems",
                                   "responses": {"200": {"description": "ok"}}}},
                },
            }
        )
        assert [t.tool_name for t in manifest.tools] == ["listitems", "listitems_2"]

    @pytest.mark.parametrize("marker", [
        {"swagger": "2.0", "host": "t.example"},
        {"openapi": "3.0.3", "servers": [{"url": "https://t.example"}]},
    ], ids=["2.0", "3.x"])
    @pytest.mark.parametrize("ids, names", [
        (["dup", "dup"], ["dup", "dup_2"]),
        (["x_2", "x", "x"], ["x_2", "x", "x_3"]),
        ([["x"], ["x"]], ["post_a", "get_a"]),
    ], ids=["same-id", "suffix-already-taken", "list-ids"])
    def test_operation_id_collisions(self, marker, ids, names):
        item = {
            method: {"operationId": op_id, "responses": {"200": {"description": "ok"}}}
            for method, op_id in zip(["post", "get", "put"], ids)
        }
        manifest = compile_tree(
            {**marker, "info": {"title": "T", "version": "1"}, "paths": {"/a": item}}
        )
        assert [t.tool_name for t in manifest.tools] == names

    @pytest.mark.parametrize("paths", [
        "  /a: &item {get: {operationId: fetch}}\n  /c/{id}: *item\n",
        "  /a: {get: &op {operationId: fetch}}\n  /c/{id}: {get: *op}\n",
    ], ids=["shared-path-item", "shared-operation"])
    def test_yaml_alias_keeps_path_params_apart(self, tmp_path, paths):
        spec = tmp_path / "alias.yaml"
        spec.write_text(
            "openapi: 3.0.3\ninfo: {title: Alias, version: '1'}\n"
            "servers: [{url: 'https://alias.example'}]\npaths:\n" + paths,
            encoding="utf-8",
        )
        tools = compile_file(spec).manifest.tools
        assert [
            (t.tool_name, t.endpoint.path_template, t.input_schema["required"])
            for t in tools
        ] == [("fetch", "/a", []), ("fetch_2", "/c/{id}", ["id"])]

    def test_deprecated_operations_kept_with_prefix(self, petstore):
        deprecated = tool_named(petstore, "findpetsbytags")
        assert deprecated.description.startswith("[DEPRECATED] ")

    def test_description_fallback_is_method_and_path(self):
        manifest = compile_tree(
            {
                "openapi": "3.0.0",
                "info": {"title": "T", "version": "1"},
                "servers": [{"url": "https://t.example"}],
                "paths": {"/a": {"get": {"responses": {"200": {"description": "ok"}}}}},
            }
        )
        assert manifest.tools[0].description == "GET /a"

    def test_a_flag_that_is_not_a_boolean_reads_as_absent(self):
        """`deprecated: "false"` and `required: "false"` are strings, not
        booleans: read as absent, not by their truthiness."""
        manifest = compile_tree({
            "openapi": "3.0.0", "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://t.example"}],
            "paths": {"/a": {"post": {
                "summary": "List", "deprecated": "false",
                "parameters": [{"name": "q", "in": "query", "required": "false",
                                "schema": {"type": "string"}}],
                "requestBody": {"required": "true", "content": {
                    "application/json": {"schema": {"type": "object"}}}},
                "responses": {"200": {"description": "ok"}}}}},
        })
        [tool] = manifest.tools
        assert tool.description == "List"
        assert tool.input_schema["required"] == []

    @pytest.mark.parametrize("where", ["body", "formData"])
    def test_a_2_0_body_flag_that_is_not_a_boolean_reads_as_absent(self, where):
        param = {"name": "card", "in": where, "required": "false"}
        param.update({"schema": {"type": "object"}} if where == "body"
                     else {"type": "string"})
        manifest = compile_tree(_swagger({"/cards": {"post": {
            "parameters": [param], "responses": {"200": {"description": "ok"}}}}}))
        [tool] = manifest.tools
        assert tool.input_schema["required"] == []
        if where == "formData":
            assert "required" not in tool.input_schema["properties"]["body"]

    def test_compilation_deterministic(self):
        first = compile_file(fixture_path("petstore.json"))
        second = compile_file(fixture_path("petstore.json"))
        assert json.dumps(manifest_to_dict(first.manifest, include_bindings=True)) == \
            json.dumps(manifest_to_dict(second.manifest, include_bindings=True))

    def test_credential_params_excluded_from_input_schema(self):
        manifest = compile_tree(
            {
                "openapi": "3.0.0",
                "info": {"title": "T", "version": "1"},
                "servers": [{"url": "https://t.example"}],
                "components": {
                    "securitySchemes": {
                        "api_key": {"type": "apiKey", "in": "query", "name": "api_key"}
                    }
                },
                "paths": {
                    "/search": {
                        "get": {
                            "parameters": [
                                {"name": "api_key", "in": "query", "required": True,
                                 "schema": {"type": "string"}},
                                {"name": "q", "in": "query",
                                 "schema": {"type": "string"}},
                            ],
                            "responses": {"200": {"description": "ok"}},
                        }
                    }
                },
            }
        )
        tool = manifest.tools[0]
        credential = [p for p in tool.endpoint.parameters if p.is_credential]
        assert [p.name for p in credential] == ["api_key"]
        assert list(tool.input_schema["properties"]) == ["q"]

    def test_tools_list_payload_shape(self, petstore):
        payload = tools_list_payload(petstore.manifest)
        assert len(payload) == 19
        for entry in payload:
            assert set(entry) == {"name", "description", "inputSchema"}

    def test_a_shared_model_is_copied_once(self):
        """Operations that `$ref` one model share one copy of it, not the
        contract's node. A parameter's schema keeps a top-level dict of its
        own, which compile adds `example` and `description` to."""
        body = {"content": {"application/json": {
            "schema": {"$ref": "#/components/schemas/Pet"}}}}
        tag = {"name": "tag", "in": "query",
               "schema": {"$ref": "#/components/schemas/Tag"}}
        ok = {"200": {"description": "ok"}}
        tree = {
            "openapi": "3.0.3", "info": {"title": "T", "version": "1"},
            "components": {"schemas": {
                "Tag": {"type": "object", "properties": {"name": {"type": "string"}}},
                "Pet": {"type": "object",
                        "properties": {"tag": {"$ref": "#/components/schemas/Tag"}}},
            }},
            "paths": {
                "/pets": {"post": {"requestBody": body, "responses": ok,
                                   "parameters": [{**tag, "example": {"name": "a"}}]}},
                "/pets/{id}": {"put": {"requestBody": body, "responses": ok,
                                       "parameters": [tag]}},
            },
        }
        contract = build_contract(RawDocument(Path("mem.json"), "json", "openapi_3_x", tree))
        post, put = compile_manifest(contract, [], base_url="").tools
        first, second = (t.input_schema["properties"] for t in (post, put))
        assert first["body"] is second["body"]
        node = contract.tree["paths"]["/pets"]["post"]["requestBody"]["content"][
            "application/json"]["schema"]
        assert first["body"] == node and first["body"] is not node
        assert first["tag"] is not second["tag"]
        assert first["tag"]["properties"] is second["tag"]["properties"]
        assert first["tag"]["properties"] is first["body"]["properties"]["tag"]["properties"]
        assert first["tag"]["example"] == {"name": "a"} and "example" not in second["tag"]

    def test_a_yaml_anchor_is_copied_once(self, tmp_path):
        """Two operations whose bodies alias one YAML anchor share one copy
        of it, which is neither the loaded node nor the contract's."""
        spec = tmp_path / "anchor.yaml"
        spec.write_text(
            "openapi: 3.0.3\ninfo: {title: Anchor, version: '1'}\n"
            "servers: [{url: 'https://anchor.example'}]\npaths:\n"
            "  /a:\n    post:\n      requestBody:\n        content:\n"
            "          application/json:\n            schema: &pet\n"
            "              type: object\n"
            "              properties: {name: {type: string}}\n"
            "      responses: {'200': {description: ok}}\n"
            "  /b:\n    put:\n      requestBody:\n        content:\n"
            "          application/json: {schema: *pet}\n"
            "      responses: {'200': {description: ok}}\n",
            encoding="utf-8",
        )
        compiled = compile_file(spec)
        first, second = (t.input_schema["properties"]["body"]
                         for t in compiled.manifest.tools)
        loaded = compiled.raw.tree["paths"]["/a"]["post"]["requestBody"]["content"][
            "application/json"]["schema"]
        assert first is second
        assert first == loaded and first is not loaded
        assert first["properties"] is not loaded["properties"]


def _swagger(paths: dict, **top) -> dict:
    return {"swagger": "2.0", "info": {"title": "T", "version": "1"},
            "host": "t.example", "paths": paths, **top}


def compile_spec(tmp_path: Path, tree: dict):
    """`compile_file` on `tree` written out, so the pipeline builds the contract."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tree), encoding="utf-8")
    return compile_file(spec)


class TestRefsInlinedBeforeNormalize:
    """normalize runs on the flattened tree, so what a `$ref` names is
    normalized like what is written in place."""

    def test_petstore_pet_id_tools_take_one_path_argument(self, petstore):
        tools = [t for t in petstore.manifest.tools
                 if t.endpoint.path_template.startswith("/pet/{petId}")]
        assert sorted(t.tool_name for t in tools) == [
            "deletepet", "getpetbyid", "updatepetwithform", "uploadfile"]
        for tool in tools:
            path_args = [p.sanitized_name for p in tool.endpoint.parameters
                         if p.location == "path"]
            assert path_args == ["petid"], tool.tool_name
            assert "petid_2" not in tool.input_schema["properties"]

    def test_ref_path_item_gets_its_path_variables(self, tmp_path):
        compiled = compile_spec(tmp_path, {
            "openapi": "3.1.0", "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://t.example"}],
            "components": {"pathItems": {"Thing": {"get": {
                "operationId": "getThing",
                "responses": {"200": {"description": "ok"}}}}}},
            "paths": {"/things/{id}": {"$ref": "#/components/pathItems/Thing"}},
        })
        [tool] = compiled.manifest.tools
        assert tool.input_schema["properties"] == {"id": {"type": "string"}}
        assert tool.input_schema["required"] == ["id"]

    def test_2_0_ref_parameter_keeps_its_type(self, tmp_path):
        compiled = compile_spec(tmp_path, _swagger(
            {"/items": {"get": {"parameters": [{"$ref": "#/parameters/Limit"}],
                                "responses": {"200": {"description": "ok"}}}}},
            parameters={"Limit": {"name": "limit", "in": "query", "type": "integer"}},
        ))
        [tool] = compiled.manifest.tools
        assert tool.input_schema["properties"] == {"limit": {"type": "integer"}}

    def test_2_0_cycle_placeholder_names_the_pointer_as_written(self, tmp_path):
        compiled = compile_spec(tmp_path, _swagger(
            {"/nodes": {"post": {
                "parameters": [{"name": "node", "in": "body",
                                "schema": {"$ref": "#/definitions/Node"}}],
                "responses": {"200": {"description": "ok"}}}}},
            definitions={"Node": {"type": "object", "properties": {
                "next": {"$ref": "#/definitions/Node"}}}},
        ))
        assert compiled.contract.cycles_detected == ["#/definitions/Node"]
        [tool] = compiled.manifest.tools
        body = tool.input_schema["properties"]["body"]
        assert body["properties"]["next"] == {
            "type": "object", "description": "cyclic reference to #/definitions/Node"}


def diamond_tree(depth: int = 6) -> dict:
    """Each schema level refs the one below twice, and every operation
    shares one $ref'd parameter, so the flattened tree shares subtrees."""
    schemas = {f"D{depth}": {"type": "object",
                             "properties": {"value": {"type": "string"}}}}
    for level in range(depth - 1, -1, -1):
        below = {"$ref": f"#/components/schemas/D{level + 1}"}
        schemas[f"D{level}"] = {"type": "object",
                                "properties": {"l": below, "r": dict(below)}}
    top = {"$ref": "#/components/schemas/D0"}
    limit = {"$ref": "#/components/parameters/limit"}
    return {
        "openapi": "3.0.3",
        "info": {"title": "Diamond", "version": "1"},
        "servers": [{"url": "https://diamond.example"}],
        "components": {
            "schemas": schemas,
            "parameters": {"limit": {"name": "limit", "in": "query", "example": 5,
                                     "description": "page size",
                                     "schema": {"$ref": "#/components/schemas/D2"}}},
        },
        "paths": {
            "/nodes": {
                "parameters": [limit],
                "post": {"requestBody": {"content": {"application/json": {"schema": top}}},
                         "responses": {"201": {"description": "created"}}},
                "get": {"parameters": [dict(limit)],
                        "responses": {"200": {"description": "ok"}}},
            },
        },
    }


class TestContractNotMutated:
    """The flattened tree shares the expansion of each acyclic target
    among its uses, and every node it does not rewrite with the loaded
    tree, so compilation must change neither, and the manifest must
    share no node with them."""

    def contracts(self, tmp_path):
        rules = load_vendor_rules(FIXTURES / "vendor_rules.json")
        diamond = tmp_path / "diamond.json"
        diamond.write_text(json.dumps(diamond_tree()), encoding="utf-8")
        paths = sorted(FIXTURES.glob("*.json")) + sorted(FIXTURES.glob("*.yaml"))
        paths = [p for p in paths if p.name != "vendor_rules.json"]
        paths += sorted(p for p in DEFECTS.iterdir() if p.suffix in (".json", ".yaml")
                        and p.name != "reference_counts.json")
        for path in paths + [diamond]:
            raw = load_document(path)
            if path.parent == DEFECTS:
                raw = fix_loop(raw, rules).document
            yield path.name, raw, build_contract(raw)

    def test_compile_manifest_leaves_tree_unchanged(self, tmp_path):
        names = []
        for name, raw, contract in self.contracts(tmp_path):
            before = json.dumps(contract.tree)
            raw_before = json.dumps(raw.tree)
            manifest = compile_manifest(contract, extract_security(contract),
                                        base_url=resolve_base_url(raw))
            assert json.dumps(contract.tree) == before, name
            assert json.dumps(raw.tree) == raw_before, name
            self._scribble(manifest_to_dict(manifest)["tools"])
            for tool in manifest.tools:
                self._scribble(tool.input_schema)
            assert json.dumps(contract.tree) == before, name
            assert json.dumps(raw.tree) == raw_before, name
            names.append(name)
        assert len(names) == 9

    def _scribble(self, node):
        if isinstance(node, dict):
            for value in list(node.values()):
                self._scribble(value)
            node["x-scribbled"] = True
        elif isinstance(node, list):
            for value in node:
                self._scribble(value)
