"""Auth injection, tool invocation, and the JSON-RPC serve loop."""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import http.client
import io
import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from automcp.compiler import tools_list_payload
from automcp.errors import (
    ExtraHeadersParseError,
    MissingCredential,
    SchemaViolation,
    TransportError,
)
from automcp.jsonout import dumps
from automcp.mock_upstream import run_mock_upstream
from automcp.pipeline import compile_file
from automcp.runtime import (
    AuthPlan,
    _redact,
    _same_origin,
    _Writer,
    bindings_for,
    invoke_tool,
    merge_extra_headers,
    resolve_auth,
    serve,
    validate_args,
)
from automcp.security import (
    KIND_API_KEY,
    KIND_HTTP_BASIC,
    KIND_HTTP_BEARER,
    KIND_OAUTH2,
    SecurityScheme,
    build_env_map,
)
from conftest import fixture_path, sentinel_credentials

TRELLO_TREE = {
    "openapi": "3.0.0",
    "info": {"title": "Trello Fixture", "version": "1"},
    "servers": [{"url": "https://board.example/1"}],
    "components": {
        "securitySchemes": {
            "apiKey": {"type": "apiKey", "in": "query", "name": "key"},
            "apiToken": {"type": "apiKey", "in": "query", "name": "token"},
        }
    },
    "paths": {
        "/cards": {
            "post": {
                "operationId": "create_card",
                "security": [{"apiKey": [], "apiToken": []}],
                "requestBody": {
                    "required": True,
                    "content": {
                        "application/json": {
                            "schema": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {"name": {"type": "string"}},
                            }
                        }
                    },
                },
                "responses": {"200": {"description": "ok"}},
            },
            "get": {
                "operationId": "list_cards",
                "security": [{"apiKey": [], "apiToken": []}],
                "responses": {"200": {"description": "ok"}},
            },
        },
        "/users/{id}": {
            "get": {
                "operationId": "get_user",
                "security": [],
                "parameters": [
                    {"name": "id", "in": "path", "required": True,
                     "schema": {"type": "string"}}
                ],
                "responses": {"200": {"description": "ok"}},
            }
        },
    },
}


@pytest.fixture()
def trello(tmp_path):
    spec = tmp_path / "trello.json"
    spec.write_text(json.dumps(TRELLO_TREE), encoding="utf-8")
    return compile_file(spec)


def scheme_set():
    return [
        SecurityScheme("key1", KIND_API_KEY, "header", "X-Key"),
        SecurityScheme("q1", KIND_API_KEY, "query", "api_key"),
        SecurityScheme("basic1", KIND_HTTP_BASIC),
        SecurityScheme("bear1", KIND_HTTP_BEARER),
        SecurityScheme("oauth1", KIND_OAUTH2),
    ]


def bindings_and_env(values: dict[str, str]):
    schemes = scheme_set()
    bindings, _ = build_env_map(schemes, "Acme")
    env = {}
    for binding in bindings:
        if binding.scheme_id in values:
            if binding.role == "PASSWORD":
                env[binding.env_var] = values[binding.scheme_id] + "-pw"
            else:
                env[binding.env_var] = values[binding.scheme_id]
    return schemes, bindings, env


class TestResolveAuth:
    def test_bearer_header(self):
        schemes, bindings, env = bindings_and_env({"bear1": "t"})
        plan = resolve_auth([{"bear1": []}], schemes, env, bindings)
        assert plan.headers["Authorization"] == "Bearer t"

    def test_fallback_to_second_alternative(self):
        schemes, bindings, env = bindings_and_env({"q1": "qk"})
        plan = resolve_auth([{"oauth1": []}, {"q1": []}], schemes, env, bindings)
        assert plan.query == {"api_key": "qk"}
        assert not plan.headers

    def test_query_api_key(self):
        schemes, bindings, env = bindings_and_env({"q1": "sekrit"})
        plan = resolve_auth([{"q1": []}], schemes, env, bindings)
        assert plan.query == {"api_key": "sekrit"}

    def test_basic_userpass_encoding(self):
        schemes, bindings, env = bindings_and_env({"basic1": "user"})
        plan = resolve_auth([{"basic1": []}], schemes, env, bindings)
        expected = base64.b64encode(b"user:user-pw").decode()
        assert plan.headers["Authorization"] == f"Basic {expected}"

    def test_and_within_set(self):
        schemes, bindings, env = bindings_and_env({"key1": "hk", "q1": "qk"})
        plan = resolve_auth([{"key1": [], "q1": []}], schemes, env, bindings)
        assert plan.headers["X-Key"] == "hk"
        assert plan.query["api_key"] == "qk"

    def test_empty_requirements_empty_plan(self):
        schemes, bindings, env = bindings_and_env({})
        plan = resolve_auth([], schemes, env, bindings)
        assert plan == AuthPlan()

    def test_missing_credential_names_variable(self):
        schemes, bindings, env = bindings_and_env({})
        with pytest.raises(MissingCredential) as excinfo:
            resolve_auth([{"key1": []}], schemes, env, bindings)
        assert excinfo.value.env_var == "ACME_KEY1"


class TestMergeExtraHeaders:
    def test_header_added_to_plan(self):
        plan = merge_extra_headers(
            AuthPlan(), {"EXTRA_HEADERS": '{"Notion-Version":"2022-06-28"}'}
        )
        assert plan.headers["Notion-Version"] == "2022-06-28"

    def test_unset_is_noop(self):
        plan = AuthPlan(headers={"A": "1"})
        assert merge_extra_headers(plan, {}) is plan
        assert plan.headers == {"A": "1"}

    def test_non_object_value_fatal(self):
        with pytest.raises(ExtraHeadersParseError):
            merge_extra_headers(AuthPlan(), {"EXTRA_HEADERS": '["x"]'})

    def test_case_insensitive_override(self):
        plan = AuthPlan(headers={"authorization": "Bearer old"})
        merge_extra_headers(plan, {"EXTRA_HEADERS": '{"Authorization":"Bearer new"}'})
        assert plan.headers == {"Authorization": "Bearer new"}


class TestValidateArgs:
    def test_unknown_argument_rejected(self):
        schema = {"type": "object", "properties": {"a": {"type": "string"}},
                  "required": [], "additionalProperties": False}
        assert validate_args({"b": 1}, schema)

    def test_missing_required(self):
        schema = {"type": "object", "properties": {"a": {"type": "string"}},
                  "required": ["a"], "additionalProperties": False}
        assert validate_args({}, schema)

    def test_type_mismatch(self):
        schema = {"type": "object", "properties": {"a": {"type": "integer"}},
                  "required": [], "additionalProperties": False}
        assert validate_args({"a": "not-int"}, schema)
        assert validate_args({"a": True}, schema)
        assert not validate_args({"a": 3}, schema)

    def test_number_takes_ints_and_floats_but_not_bools(self):
        schema = {"type": "object", "properties": {"n": {"type": "number"}}}
        assert not validate_args({"n": 3}, schema)
        assert not validate_args({"n": 2.5}, schema)
        assert validate_args({"n": True}, schema)
        assert validate_args({"n": "3"}, schema)

    def test_type_it_does_not_know_takes_any_value(self):
        """A spec's `type: file` (or any other word) checks nothing."""
        schema = {"type": "object", "properties": {"f": {"type": "file"}}}
        assert not validate_args({"f": {"any": ["value"]}}, schema)


class TestInvokeTool:
    def test_trello_card_round_trip(self, trello):
        env, creds = sentinel_credentials(trello)
        with run_mock_upstream(trello.manifest, credentials=creds) as mock:
            tool = trello.manifest.tool("create_card")
            result = invoke_tool(
                tool, {"body": {"name": "Design Tasks"}}, env, mock.base_url,
                trello.manifest.schemes, trello.bindings,
            )
            record = mock.last_record()
        assert result.http_status == 200
        assert result.is_error is False
        assert record.method == "POST"
        assert record.path == "/cards"
        assert record.query["key"] == creds["apiKey"]
        assert record.query["token"] == creds["apiToken"]
        assert record.body == {"name": "Design Tasks"}

    def test_path_segment_percent_encoded(self, trello):
        env, creds = sentinel_credentials(trello)
        with run_mock_upstream(trello.manifest, credentials=creds) as mock:
            tool = trello.manifest.tool("get_user")
            result = invoke_tool(
                tool, {"id": "a/b"}, env, mock.base_url,
                trello.manifest.schemes, trello.bindings,
            )
            record = mock.last_record()
        assert result.is_error is False
        assert record.path == "/users/a%2Fb"

    def test_missing_credential_issues_no_request(self, trello):
        with run_mock_upstream(trello.manifest) as mock:
            tool = trello.manifest.tool("create_card")
            with pytest.raises(MissingCredential) as excinfo:
                invoke_tool(
                    tool, {"body": {"name": "x"}}, {}, mock.base_url,
                    trello.manifest.schemes, trello.bindings,
                )
            assert mock.records == []
        assert excinfo.value.env_var == "TRELLO_FIXTURE_API_KEY"

    def test_schema_violation_before_request(self, trello):
        with run_mock_upstream(trello.manifest) as mock:
            tool = trello.manifest.tool("get_user")
            with pytest.raises(SchemaViolation):
                invoke_tool(
                    tool, {"id": "1", "surprise": True}, {}, mock.base_url,
                    trello.manifest.schemes, trello.bindings,
                )
            assert mock.records == []

    def test_secrets_redacted_in_request_echo(self, trello, caplog):
        # the DEBUG line is the only echo of the request's URL
        env, creds = sentinel_credentials(trello)
        with run_mock_upstream(trello.manifest, credentials=creds) as mock:
            tool = trello.manifest.tool("list_cards")
            with caplog.at_level(logging.DEBUG, logger="automcp.runtime"):
                invoke_tool(
                    tool, {}, env, mock.base_url,
                    trello.manifest.schemes, trello.bindings,
                )
        [line] = [r.getMessage() for r in caplog.records
                  if r.name == "automcp.runtime"]
        assert line.startswith("GET http://127.0.0.1:")
        assert "/cards?" in line and line.endswith("-> 200")
        for secret in creds.values():
            assert secret not in line
        assert "key=***" in line and "token=***" in line

    def test_secret_inside_another_is_redacted_whole(self):
        # 20 pairs, so no set iteration order puts every longer one first
        longer = [f"sek{i}-tail" for i in range(20)]
        secrets = set(longer) | {f"sek{i}" for i in range(20)}
        assert _redact(" ".join(longer), secrets) == " ".join(["***"] * 20)

    def test_transport_error(self, trello):
        env, _ = sentinel_credentials(trello)
        tool = trello.manifest.tool("get_user")
        with pytest.raises(TransportError):
            invoke_tool(
                tool, {"id": "1"}, env, "http://127.0.0.1:1",
                trello.manifest.schemes, trello.bindings, timeout=2,
            )

    def test_form_encoded_query_key_is_redacted(self, allauth):
        # requests form-encodes the query: a space becomes `+`, `+` `%2B`
        key = "s3cr3t key+x/y"
        env, _ = sentinel_credentials(allauth)
        [binding] = [b for b in allauth.bindings if b.scheme_id == "queryKey"]
        env[binding.env_var] = key
        closed = dataclasses.replace(allauth.manifest, base_url="http://127.0.0.1:1")
        with pytest.raises(TransportError) as excinfo:
            invoke_tool(
                closed.tool("listwidgets"), {}, env, closed.base_url,
                closed.schemes, allauth.bindings, timeout=2,
            )
        call = {"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                "params": {"name": "listwidgets", "arguments": {}}}
        stdout = io.StringIO()
        serve(closed, env, stdin=io.StringIO(json.dumps(call) + "\n"), stdout=stdout,
              timeout=2)
        reply = json.loads(stdout.getvalue())["result"]["content"][0]["text"]
        for text in (str(excinfo.value), reply):
            assert "api_key=***" in text
            assert "s3cr3t" not in text

    def test_lone_surrogate_in_a_credential_leaves_the_reply(self, allauth):
        """Redacting a bound value that no URL can hold (it is refused where
        it is sent) does not raise, so a failed call still gets its line."""
        env, _ = sentinel_credentials(allauth)
        [binding] = [b for b in allauth.bindings if b.scheme_id == "bearerAuth"]
        env[binding.env_var] = "\ud800"
        closed = dataclasses.replace(allauth.manifest, base_url="http://127.0.0.1:1")
        stdout = io.StringIO()
        serve(closed, env, stdin=io.StringIO(call_line("listwidgets", {}) + "\n"),
              stdout=stdout, timeout=2)
        [text] = [c["text"] for c in json.loads(stdout.getvalue())["result"]["content"]]
        assert text.startswith("TransportError: GET http://127.0.0.1:1/widgets: ")
        assert "api_key=***" in text

    def test_netrc_does_not_replace_runtime_auth(self, allauth, tmp_path, monkeypatch):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login netrcuser password netrcpass\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        env, creds = sentinel_credentials(allauth)
        with run_mock_upstream(allauth.manifest, credentials=creds) as mock:
            result = invoke_tool(
                allauth.manifest.tool("listnotes"), {}, env, mock.base_url,
                allauth.manifest.schemes, allauth.bindings,
            )
            record = mock.last_record()
        assert record.headers["Authorization"] == f"Bearer {creds['bearerAuth']}"
        assert result.is_error is False

    def test_credential_slot_filled_without_a_requirement(self, tmp_path):
        # an api-key parameter on an operation marked public is still a
        # credential slot: filled from the env, never from `args`
        tree = {
            "openapi": "3.0.0",
            "info": {"title": "Search", "version": "1"},
            "servers": [{"url": "https://search.example"}],
            "components": {
                "securitySchemes": {"k": {"type": "apiKey", "in": "query", "name": "key"}}
            },
            "paths": {"/search": {"get": {
                "security": [],
                "parameters": [
                    {"name": "key", "in": "query", "required": True,
                     "schema": {"type": "string"}},
                    {"name": "q", "in": "query", "schema": {"type": "string"}},
                ],
                "responses": {"200": {"description": "ok"}},
            }}},
        }
        spec = tmp_path / "search.json"
        spec.write_text(json.dumps(tree), encoding="utf-8")
        compiled = compile_file(spec)
        tool = compiled.manifest.tools[0]
        env, creds = sentinel_credentials(compiled)
        with run_mock_upstream(compiled.manifest, credentials=creds) as mock:
            invoke_tool(tool, {"q": "x"}, env, mock.base_url,
                        compiled.manifest.schemes, compiled.bindings)
            record = mock.last_record()
            with pytest.raises(MissingCredential) as excinfo:
                invoke_tool(tool, {"q": "x"}, {}, mock.base_url,
                            compiled.manifest.schemes, compiled.bindings)
        assert record.query == {"q": "x", "key": creds["k"]}
        assert excinfo.value.env_var == "SEARCH_K"

    def test_query_values_encoded_like_every_other_location(self, tmp_path):
        params = {
            "active": {"type": "boolean"},
            "filter": {"type": "object"},
            "tags": {"type": "array", "items": {"type": "boolean"}},
            "n": {"type": "integer"},
            "unset": {"type": ["string", "null"]},
        }
        tree = {
            "openapi": "3.0.0",
            "info": {"title": "Query", "version": "1"},
            "servers": [{"url": "https://query.example"}],
            "paths": {"/search": {"get": {
                "parameters": [{"name": name, "in": "query", "schema": schema}
                               for name, schema in params.items()],
                "responses": {"200": {"description": "ok"}},
            }}},
        }
        spec = tmp_path / "query.json"
        spec.write_text(json.dumps(tree), encoding="utf-8")
        compiled = compile_file(spec)
        args = {"active": True, "filter": {"a": 1}, "tags": [False, True], "n": 3,
                "unset": None}
        with run_mock_upstream(compiled.manifest) as mock:
            invoke_tool(compiled.manifest.tools[0], args, {}, mock.base_url,
                        compiled.manifest.schemes, compiled.bindings)
            record = mock.last_record()
        # the mock records the first of repeated keys
        assert record.query == {"active": "true", "filter": '{"a": 1}',
                                "tags": "false", "n": "3"}

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_parameter_sent_nowhere_is_no_argument(self, tmp_path, name):
        """A 3.x parameter whose `in` is not path, query, header or cookie
        (a 2.0 `formData`, a `Query`) would be sent nowhere."""
        tree = {
            "openapi": "3.0.0",
            "info": {"title": "Odd", "version": "1"},
            "servers": [{"url": "https://odd.example"}],
            "paths": {"/a": {"get": {
                "operationId": "get_a",
                "parameters": [
                    {"name": "x", "in": "formData", "schema": {"type": "string"}},
                    {"name": "y", "in": "Query", "schema": {"type": "string"}}],
                "responses": {"200": {"description": "ok"}},
            }}},
        }
        spec = tmp_path / "odd.json"
        spec.write_text(json.dumps(tree), encoding="utf-8")
        compiled = compile_file(spec)
        tool = compiled.manifest.tool("get_a")
        assert tool.input_schema["properties"] == {}
        assert tool.endpoint.parameters == []
        with run_mock_upstream(compiled.manifest) as mock:
            with pytest.raises(SchemaViolation):
                invoke_tool(tool, {name: "1"}, {}, mock.base_url,
                            compiled.manifest.schemes, compiled.bindings)
            assert mock.records == []

    def test_non_finite_numbers_go_out_as_their_json_text(self, tmp_path):
        tree = {
            "openapi": "3.0.0",
            "info": {"title": "Query", "version": "1"},
            "servers": [{"url": "https://query.example"}],
            "paths": {"/range/{low}": {"get": {
                "parameters": [
                    {"name": "low", "in": "path", "schema": {"type": "number"}},
                    {"name": "high", "in": "query", "schema": {"type": "number"}},
                    {"name": "X-Step", "in": "header", "schema": {"type": "number"}}],
                "responses": {"200": {"description": "ok"}},
            }}},
        }
        spec = tmp_path / "range.json"
        spec.write_text(json.dumps(tree), encoding="utf-8")
        compiled = compile_file(spec)
        args = {"low": float("-inf"), "high": float("inf"), "x_step": float("nan")}
        with run_mock_upstream(compiled.manifest) as mock:
            result = invoke_tool(compiled.manifest.tools[0], args, {}, mock.base_url,
                                 compiled.manifest.schemes, compiled.bindings)
            record = mock.last_record()
        assert result.http_status == 200
        assert record.path_params == {"low": "-Infinity"}
        assert record.query == {"high": "Infinity"}
        assert record.headers["X-Step"] == "NaN"

    def test_cookie_auth_merges_with_cookie_params(self, tmp_path):
        tree = {
            "openapi": "3.0.0",
            "info": {"title": "CookieJar", "version": "1"},
            "servers": [{"url": "https://cj.example"}],
            "components": {
                "securitySchemes": {
                    "ck": {"type": "apiKey", "in": "cookie", "name": "session"}
                }
            },
            "paths": {
                "/jar": {
                    "get": {
                        "security": [{"ck": []}],
                        "parameters": [
                            {"name": "flavor", "in": "cookie",
                             "schema": {"type": "string"}}
                        ],
                        "responses": {"200": {"description": "ok"}},
                    }
                }
            },
        }
        spec = tmp_path / "cj.json"
        spec.write_text(json.dumps(tree), encoding="utf-8")
        compiled = compile_file(spec)
        env, creds = sentinel_credentials(compiled)
        with run_mock_upstream(compiled.manifest, credentials=creds) as mock:
            result = invoke_tool(
                compiled.manifest.tools[0], {"flavor": "oat"}, env, mock.base_url,
                compiled.manifest.schemes, compiled.bindings,
            )
            record = mock.last_record()
        assert result.is_error is False
        assert "flavor=oat" in record.headers["Cookie"]
        assert f"session={creds['ck']}" in record.headers["Cookie"]

    @pytest.mark.parametrize("name", ["Cookie", "cookie", "COOKIE"])
    def test_extra_cookie_joins_the_cookie_params_in_any_case(self, tmp_path, name):
        """EXTRA_HEADERS overrides the auth cookie by any name case (RFC 9110
        §5.1), and what it sets is sent beside the cookie parameters."""
        spec = tmp_path / "cj.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.0", "info": {"title": "CookieJar", "version": "1"},
            "servers": [{"url": "https://cj.example"}],
            "components": {"securitySchemes": {
                "ck": {"type": "apiKey", "in": "cookie", "name": "session"}}},
            "security": [{"ck": []}],
            "paths": {"/jar": {"get": {
                "parameters": [{"name": "lang", "in": "cookie",
                                "schema": {"type": "string"}}],
                "responses": {"200": {"description": "ok"}}}}},
        }), encoding="utf-8")
        compiled = compile_file(spec)
        env, _ = sentinel_credentials(compiled)
        env["EXTRA_HEADERS"] = json.dumps({name: "x=1"})
        with run_mock_upstream(compiled.manifest) as mock:
            invoke_tool(compiled.manifest.tools[0], {"lang": "en"}, env, mock.base_url,
                        compiled.manifest.schemes, compiled.bindings)
            record = mock.last_record()
        assert [(k, v) for k, v in record.headers.items() if k.lower() == "cookie"] == [
            ("Cookie", "lang=en; x=1")
        ]

    def test_2_0_ref_body_parameter_is_sent_as_the_body(self, tmp_path):
        spec = tmp_path / "legacy.json"
        spec.write_text(json.dumps({
            "swagger": "2.0", "info": {"title": "T", "version": "1"},
            "host": "t.example",
            "parameters": {"Card": {"name": "card", "in": "body", "required": True,
                                    "schema": {"type": "object"}}},
            "paths": {"/cards": {"post": {
                "operationId": "create_card",
                "parameters": [{"$ref": "#/parameters/Card"}],
                "responses": {"201": {"description": "created"}}}}},
        }), encoding="utf-8")
        compiled = compile_file(spec)
        tool = compiled.manifest.tool("create_card")
        assert tool.endpoint.parameters == []
        assert tool.input_schema["required"] == ["body"]
        with run_mock_upstream(compiled.manifest) as mock:
            result = invoke_tool(tool, {"body": {"name": "x"}}, {}, mock.base_url,
                                 compiled.manifest.schemes, compiled.bindings)
            record = mock.last_record()
        assert result.http_status == 201
        assert record.body == {"name": "x"}

    def test_2_0_path_level_body_parameter_is_sent_as_the_body(self, tmp_path):
        """An operation inherits its path item's parameters, body included."""
        spec = tmp_path / "legacy.json"
        spec.write_text(json.dumps({
            "swagger": "2.0", "info": {"title": "T", "version": "1"},
            "host": "t.example",
            "paths": {"/a": {
                "parameters": [{"name": "card", "in": "body", "required": True,
                                "schema": {"type": "object"}}],
                "post": {"operationId": "create",
                         "responses": {"201": {"description": "created"}}}}},
        }), encoding="utf-8")
        compiled = compile_file(spec)
        tool = compiled.manifest.tool("create")
        assert tool.endpoint.parameters == []
        assert tool.endpoint.request_content_type == "application/json"
        assert tool.input_schema["required"] == ["body"]
        with run_mock_upstream(compiled.manifest) as mock:
            result = invoke_tool(tool, {"body": {"name": "x"}}, {}, mock.base_url,
                                 compiled.manifest.schemes, compiled.bindings)
            record = mock.last_record()
        assert result.http_status == 201
        assert record.body == {"name": "x"}

    @pytest.mark.parametrize("header", [False, True], ids=["declared", "header-param"])
    def test_body_is_sent_with_its_declared_media_type(self, tmp_path, header):
        """A `+json` body keeps its declared media type, and a header
        parameter naming one wins."""
        params = [{"name": "id", "in": "path", "required": True,
                   "schema": {"type": "string"}}]
        if header:
            params.append({"name": "content-type", "in": "header",
                           "schema": {"type": "string"}})
        spec = tmp_path / "merge.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.0", "info": {"title": "Merge", "version": "1"},
            "servers": [{"url": "https://merge.example"}],
            "paths": {"/cards/{id}": {"patch": {
                "operationId": "update_card",
                "parameters": params,
                "requestBody": {"content": {"application/merge-patch+json": {
                    "schema": {"type": "object"}}}},
                "responses": {"200": {"description": "ok"}}}}},
        }), encoding="utf-8")
        compiled = compile_file(spec)
        args = {"id": "c1", "body": {"name": None}}
        if header:
            args["content_type"] = "application/json-patch+json"
        with run_mock_upstream(compiled.manifest) as mock:
            invoke_tool(compiled.manifest.tools[0], args, {}, mock.base_url,
                        compiled.manifest.schemes, compiled.bindings)
            record = mock.last_record()
        sent = {k.lower(): v for k, v in record.headers.items()}
        assert sent["content-type"] == (args.get("content_type")
                                        or "application/merge-patch+json")
        assert record.body == {"name": None}

    def test_extra_headers_reach_the_wire(self, trello):
        env, creds = sentinel_credentials(trello)
        env["EXTRA_HEADERS"] = '{"Notion-Version":"2022-06-28"}'
        with run_mock_upstream(trello.manifest, credentials=creds) as mock:
            invoke_tool(
                trello.manifest.tool("list_cards"), {}, env, mock.base_url,
                trello.manifest.schemes, trello.bindings,
            )
            record = mock.last_record()
        assert record.headers.get("Notion-Version") == "2022-06-28"


def run_serve(compiled, env, lines) -> list[dict]:
    stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
    stdout = io.StringIO()
    serve(compiled.manifest, env, stdin=stdin, stdout=stdout, timeout=5)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


class TestServe:
    def test_initialize_echoes_supported_version(self, trello):
        responses = run_serve(
            trello, {},
            [{"jsonrpc": "2.0", "id": 1, "method": "initialize",
              "params": {"protocolVersion": "2025-03-26"}}],
        )
        assert responses[0]["id"] == 1
        assert responses[0]["result"]["protocolVersion"] == "2025-03-26"
        assert responses[0]["result"]["serverInfo"]["name"] == "Trello Fixture"

    def test_unsupported_version_falls_back(self, trello):
        responses = run_serve(
            trello, {},
            [{"jsonrpc": "2.0", "id": 1, "method": "initialize",
              "params": {"protocolVersion": "1999-01-01"}}],
        )
        assert responses[0]["result"]["protocolVersion"] == "2025-06-18"  # the latest

    def test_tools_list_matches_manifest(self, trello):
        responses = run_serve(
            trello, {}, [{"jsonrpc": "2.0", "id": 7, "method": "tools/list"}]
        )
        tools = responses[0]["result"]["tools"]
        assert len(tools) == len(trello.manifest.tools)
        assert {t["name"] for t in tools} == {"create_card", "list_cards", "get_user"}

    def test_unknown_tool_is_invalid_params(self, trello):
        responses = run_serve(
            trello, {},
            [{"jsonrpc": "2.0", "id": 2, "method": "tools/call",
              "params": {"name": "nope", "arguments": {}}}],
        )
        assert responses[0]["error"]["code"] == -32602

    def test_unknown_method(self, trello):
        responses = run_serve(
            trello, {}, [{"jsonrpc": "2.0", "id": 3, "method": "resources/list"}]
        )
        assert responses[0]["error"]["code"] == -32601

    def test_ping_gets_empty_result(self, trello):
        responses = run_serve(trello, {}, [{"jsonrpc": "2.0", "id": 4, "method": "ping"}])
        assert responses == [{"jsonrpc": "2.0", "id": 4, "result": {}}]

    def test_parse_error_has_null_id(self, trello):
        stdin = io.StringIO("this is not json\n")
        stdout = io.StringIO()
        serve(trello.manifest, {}, stdin=stdin, stdout=stdout)
        response = json.loads(stdout.getvalue())
        assert response["error"]["code"] == -32700
        assert response["id"] is None

    def test_too_deeply_nested_line_is_parse_error(self, trello):
        deep = "[" * 3000 + "]" * 3000
        ping = json.dumps({"jsonrpc": "2.0", "id": 9, "method": "ping"})
        stdout = io.StringIO()
        serve(trello.manifest, {}, stdin=io.StringIO(f"{deep}\n{ping}\n"), stdout=stdout)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert responses[0]["error"]["code"] == -32700
        assert responses[1] == {"jsonrpc": "2.0", "id": 9, "result": {}}

    def test_non_string_method_is_not_a_request(self, trello):
        responses = run_serve(
            trello, {},
            [{"jsonrpc": "2.0", "id": 1, "method": 5},
             {"jsonrpc": "2.0", "id": 2, "method": "ping"}],
        )
        assert responses[0]["id"] == 1
        assert responses[0]["error"] == {"code": -32602,
                                         "message": "not a JSON-RPC request"}
        assert responses[1] == {"jsonrpc": "2.0", "id": 2, "result": {}}

    def test_unexpected_failure_message_is_redacted(self, allauth, monkeypatch, caplog):
        env, _ = sentinel_credentials(allauth)
        basic = [b for b in allauth.bindings if b.scheme_id == "basicAuth"]
        token = base64.b64encode(
            f"{env[basic[0].env_var]}:{env[basic[1].env_var]}".encode()
        ).decode()
        secrets = sorted(env.values()) + [token]

        def leaky_invoke(*args, **kwargs):
            raise RuntimeError("upstream said: " + " ".join(secrets))

        monkeypatch.setattr("automcp.runtime.invoke_tool", leaky_invoke)
        stdout = io.StringIO()
        call = {"jsonrpc": "2.0", "id": 8, "method": "tools/call",
                "params": {"name": "listgadgets", "arguments": {}}}
        serve(allauth.manifest, env, stdin=io.StringIO(json.dumps(call) + "\n"),
              stdout=stdout)
        out = stdout.getvalue()
        response = json.loads(out)
        assert response["error"]["code"] == -32603
        assert response["error"]["message"].startswith("upstream said: ***")
        logged = "\n".join(r.getMessage() for r in caplog.records)
        assert "listgadgets failed unexpectedly: RuntimeError: upstream said: ***" in logged
        assert "in leaky_invoke" in logged  # the traceback's frames are kept
        for secret in secrets:
            assert secret not in out
            assert secret not in logged

    def test_notifications_never_answered(self, trello):
        responses = run_serve(
            trello, {},
            [
                {"jsonrpc": "2.0", "method": "notifications/initialized"},
                {"jsonrpc": "2.0", "method": "initialize",
                 "params": {"protocolVersion": "2025-06-18"}},
                {"jsonrpc": "2.0", "method": "ping"},
                {"jsonrpc": "2.0", "method": "tools/list"},
                {"jsonrpc": "2.0", "method": "tools/call",
                 "params": {"name": "no_such_tool", "arguments": {}}},
                {"jsonrpc": "2.0", "method": "tools/call", "params": {}},
                {"jsonrpc": "2.0", "method": "no/such/method"},
                {"jsonrpc": "2.0", "id": 4, "method": "tools/list"},
            ],
        )
        assert len(responses) == 1
        assert responses[0]["id"] == 4

    def test_schema_violation_surfaces_as_tool_error(self, trello):
        env, creds = sentinel_credentials(trello)
        with run_mock_upstream(trello.manifest, credentials=creds) as mock:
            trello.manifest.base_url = mock.base_url
            responses = run_serve(
                trello, env,
                [{"jsonrpc": "2.0", "id": 5, "method": "tools/call",
                  "params": {"name": "get_user",
                             "arguments": {"id": "1", "bogus": True}}}],
            )
        result = responses[0]["result"]
        assert result["isError"] is True
        assert "SchemaViolation" in result["content"][0]["text"]

    def test_call_against_mock_and_error_payload_shape(self, trello):
        # a client awaiting each call: two sessions against one mock keep
        # the create strictly before the list
        env, creds = sentinel_credentials(trello)
        with run_mock_upstream(trello.manifest, credentials=creds) as mock:
            trello.manifest.base_url = mock.base_url
            created_resp = run_serve(
                trello, env,
                [{"jsonrpc": "2.0", "id": 10, "method": "tools/call",
                  "params": {"name": "create_card",
                             "arguments": {"body": {"name": "Card A"}}}}],
            )[0]
            listed_resp = run_serve(
                trello, env,
                [{"jsonrpc": "2.0", "id": 11, "method": "tools/call",
                  "params": {"name": "list_cards", "arguments": {}}}],
            )[0]
        created = json.loads(created_resp["result"]["content"][0]["text"])
        assert created["created"]["name"] == "Card A"
        listed = json.loads(listed_resp["result"]["content"][0]["text"])
        assert any(item["name"] == "Card A" for item in listed["items"])

    def test_http_error_embeds_status(self, trello):
        env, creds = sentinel_credentials(trello)
        with run_mock_upstream(trello.manifest, credentials=creds) as mock:
            trello.manifest.base_url = mock.base_url
            env.pop("TRELLO_FIXTURE_API_TOKEN")
            responses = run_serve(
                trello, env,
                [{"jsonrpc": "2.0", "id": 12, "method": "tools/call",
                  "params": {"name": "list_cards", "arguments": {}}}],
            )
        result = responses[0]["result"]
        assert result["isError"] is True
        assert "MissingCredential" in result["content"][0]["text"]

    def test_extra_headers_validated_at_startup(self, trello):
        with pytest.raises(ExtraHeadersParseError):
            serve(
                trello.manifest, {"EXTRA_HEADERS": "[broken"},
                stdin=io.StringIO(""), stdout=io.StringIO(),
            )

    def test_exactly_one_response_per_id(self, trello):
        env, creds = sentinel_credentials(trello)
        with run_mock_upstream(trello.manifest, credentials=creds) as mock:
            trello.manifest.base_url = mock.base_url
            requests_lines = [
                {"jsonrpc": "2.0", "id": i, "method": "tools/call",
                 "params": {"name": "list_cards", "arguments": {}}}
                for i in range(20)
            ]
            responses = run_serve(trello, env, requests_lines)
        ids = [r["id"] for r in responses]
        assert sorted(ids) == list(range(20))

    @pytest.mark.parametrize("method", ["ping", "tools/list", "tools/call"])
    @pytest.mark.parametrize("id_text", [
        "true", "false", "[1]", '{"a": 1}', "NaN", "-Infinity",
        "[" * 900 + "]" * 900,  # test_cli: 985 deep, where it killed serve
    ], ids=["true", "false", "array", "object", "nan", "-inf", "nested-900"])
    def test_id_json_rpc_forbids_is_answered_once_with_null(self, trello, method,
                                                             id_text):
        lines = ['{"jsonrpc": "2.0", "id": %s, "method": "%s", "params": '
                 '{"name": "get_user", "arguments": {}}}' % (id_text, method),
                 '{"jsonrpc": "2.0", "id": 2, "method": "ping"}']
        stdout = io.StringIO()
        serve(trello.manifest, {}, stdin=io.StringIO("\n".join(lines) + "\n"),
              stdout=stdout, timeout=5)
        assert stdout.getvalue().splitlines() == [
            '{"jsonrpc": "2.0", "id": null, "error": '
            '{"code": -32602, "message": "not a JSON-RPC request"}}',
            '{"jsonrpc": "2.0", "id": 2, "result": {}}',
        ]

    def test_request_named_like_a_notification_is_answered(self, trello):
        responses = run_serve(
            trello, {},
            [{"jsonrpc": "2.0", "id": 6, "method": "notifications/initialized"}],
        )
        assert responses == [{"jsonrpc": "2.0", "id": 6, "error": {
            "code": -32601, "message": "unknown method 'notifications/initialized'"}}]

    def test_call_whose_reply_write_fails_is_answered_once(self, trello, monkeypatch,
                                                           caplog):
        write = _Writer.write
        failures = []

        def write_failing_once(self, line):
            if '"id": 5, "result"' in line and not failures:
                failures.append(line)
                raise OSError("stdout said no")
            write(self, line)

        monkeypatch.setattr(_Writer, "write", write_failing_once)
        responses = run_serve(
            trello, {},
            [{"jsonrpc": "2.0", "id": 5, "method": "tools/call",  # a SchemaViolation
              "params": {"name": "get_user", "arguments": {"bogus": True}}},
             {"jsonrpc": "2.0", "id": 6, "method": "ping"}],
        )
        assert len(failures) == 1
        assert sorted(responses, key=lambda r: r["id"]) == [
            {"jsonrpc": "2.0", "id": 5,
             "error": {"code": -32603, "message": "stdout said no"}},
            {"jsonrpc": "2.0", "id": 6, "result": {}},
        ]
        logged = "\n".join(r.getMessage() for r in caplog.records)
        assert "get_user failed unexpectedly: OSError: stdout said no" in logged
        assert "in write_failing_once" in logged


def serve_utf8(manifest, lines: list[str]) -> list[bytes]:
    """`serve`'s output lines, written through a strict UTF-8 stream."""
    out = io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", errors="strict", newline="\n")
    serve(manifest, {}, stdin=io.StringIO("".join(line + "\n" for line in lines)),
          stdout=stdout, timeout=5)
    stdout.flush()
    return out.getvalue().splitlines()


class TestLoneSurrogates:
    """A lone surrogate is valid JSON (RFC 8259 §8.2) but no UTF-8 text:
    such a line goes out with `\\u` escapes, and every other line keeps
    its bytes."""

    def test_ping_id_is_answered(self, trello):
        lines = serve_utf8(trello.manifest, [
            '{"jsonrpc": "2.0", "id": "\\ud800", "method": "ping"}',
            '{"jsonrpc": "2.0", "id": "\u00e9", "method": "ping"}',
        ])
        assert lines == [
            b'{"jsonrpc": "2.0", "id": "\\ud800", "result": {}}',
            '{"jsonrpc": "2.0", "id": "\u00e9", "result": {}}'.encode(),
        ]

    def test_upstream_body_is_answered(self, tmp_path):
        spec = tmp_path / "echo.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.3", "info": {"title": "Echo", "version": "1"},
            "servers": [{"url": "https://echo.example"}],
            "paths": {"/notes": {"post": {
                "operationId": "add_note",
                "requestBody": {"content": {"application/json": {
                    "schema": {"type": "object"}}}},
                "responses": {"201": {"description": "created"}}}}},
        }), encoding="utf-8")
        manifest = compile_file(spec).manifest
        call = {"jsonrpc": "2.0", "id": 1, "method": "tools/call", "params": {
            "name": "add_note", "arguments": {"body": {"text": "\ud800"}}}}
        with run_mock_upstream(manifest) as mock:
            manifest.base_url = mock.base_url
            [line] = serve_utf8(manifest, [json.dumps(call)])
        response = json.loads(line.decode("utf-8"))
        assert response["id"] == 1 and response["result"]["isError"] is False
        created = json.loads(response["result"]["content"][0]["text"])["created"]
        assert created["text"] == "\ud800"


SEND_TREE = {
    "openapi": "3.0.3", "info": {"title": "Send", "version": "1"},
    "servers": [{"url": "https://send.example"}],
    "paths": {
        "/items/{item_id}": {"get": {
            "operationId": "get_item",
            "parameters": [
                {"name": "item_id", "in": "path", "required": True,
                 "schema": {"type": "string"}},
                {"name": "q", "in": "query", "schema": {"type": "string"}},
                {"name": "X-Note", "in": "header", "schema": {"type": "string"}},
                {"name": "pref", "in": "cookie", "schema": {"type": "string"}},
            ],
            "responses": {"200": {"description": "ok"}}}},
        "/notes": {"post": {
            "operationId": "add_note",
            "requestBody": {"content": {"text/plain": {"schema": {"type": "string"}}}},
            "responses": {"201": {"description": "created"}}}},
        "/forms": {"post": {
            "operationId": "send_form",
            "requestBody": {"content": {"application/x-www-form-urlencoded": {
                "schema": {"type": "object"}}}},
            "responses": {"201": {"description": "created"}}}},
    },
}


@pytest.fixture()
def send(tmp_path):
    spec = tmp_path / "send.json"
    spec.write_text(json.dumps(SEND_TREE), encoding="utf-8")
    return compile_file(spec)


def call_line(name: str, arguments: dict) -> str:
    return json.dumps({"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                       "params": {"name": name, "arguments": arguments}})


class TestArgumentsTheRequestCannotCarry:
    """An argument its place in the request cannot encode, or that would
    change the request's shape (its route, its cookies, its header
    lines), is a tool error before any request, naming the argument and
    never its value."""

    @pytest.mark.parametrize("tool, arguments, bad", [
        ("get_item", {"item_id": "\ud800"}, "item_id"),
        ("get_item", {"item_id": "1", "q": "\ud800"}, "q"),
        ("get_item", {"item_id": "1", "x_note": "\u65e5\u672c"}, "x_note"),
        ("get_item", {"item_id": "1", "pref": "\u65e5\u672c"}, "pref"),
        ("add_note", {"body": "\ud800"}, "body"),
        ("send_form", {"body": {"k": ["ok", "\ud800"]}}, "body"),
        ("send_form", {"body": {"\ud800": "v"}}, "body"),
        ("get_item", {"item_id": ".."}, "item_id"),
        ("get_item", {"item_id": "."}, "item_id"),
        ("get_item", {"item_id": ""}, "item_id"),
        ("get_item", {"item_id": "1", "pref": "en; session=attacker"}, "pref"),
        ("get_item", {"item_id": "1", "pref": "caf\u00e9"}, "pref"),
        ("get_item", {"item_id": "1", "x_note": "a\x00b"}, "x_note"),
        ("get_item", {"item_id": "1", "x_note": "a\r\nX-Injected: 1"}, "x_note"),
        ("get_item", {"item_id": "1", "x_note": " padded"}, "x_note"),
        ("get_item", {"item_id": "1", "x_note": "padded\t"}, "x_note"),
    ], ids=["path", "query", "header", "cookie", "text-body", "form-value", "form-key",
            "path-dot-dot", "path-dot", "path-empty", "cookie-adds-a-cookie",
            "cookie-latin-1", "header-nul", "header-crlf", "header-leading-space",
            "header-trailing-tab"])
    def test_is_one_tool_error_and_no_request(self, send, caplog, tool, arguments, bad):
        with run_mock_upstream(send.manifest) as mock:
            send.manifest.base_url = mock.base_url
            with caplog.at_level(logging.ERROR, logger="automcp.runtime"):
                [line] = serve_utf8(send.manifest, [call_line(tool, arguments)])
            assert mock.records == []
        result = json.loads(line)["result"]
        assert result["isError"] is True
        [content] = result["content"]
        assert content["text"].startswith(f"SchemaViolation: argument {bad!r} cannot be sent")
        assert "\ud800" not in line.decode() and "\u65e5" not in content["text"]
        assert all(str(value) not in content["text"] for value in arguments.values()
                   if len(str(value)) > 2)
        assert caplog.records == []

    @pytest.mark.parametrize("arguments, message", [
        ({"pref": "\u65e5\u672c"}, "argument 'pref' cannot be sent as latin-1 text"),
        ({"x_note": "\u65e5\n"}, "argument 'x_note' cannot be sent as latin-1 text"),
        ({"pref": "caf\u00e9"}, "argument 'pref' cannot be sent as a cookie value"),
        ({"x_note": "caf\u00e9\n"}, "argument 'x_note' cannot be sent as a header value"),
    ], ids=["cookie-non-latin-1", "header-non-latin-1-and-lf", "cookie-latin-1",
            "header-latin-1-and-lf"])
    def test_the_codec_is_named_first(self, send, arguments, message):
        """Text that neither encodes in its place's codec nor keeps its
        place's rule is named for the codec, as a credential is."""
        with pytest.raises(SchemaViolation) as excinfo:
            invoke_tool(send.manifest.tool("get_item"), {"item_id": "1", **arguments}, {},
                        "https://send.example", send.manifest.schemes, send.bindings)
        assert str(excinfo.value) == message

    def test_non_ascii_text_goes_out_as_utf8(self, send):
        with run_mock_upstream(send.manifest) as mock:
            invoke_tool(send.manifest.tool("get_item"),
                        {"item_id": "\u65e5", "q": "\u672c"}, {}, mock.base_url,
                        send.manifest.schemes, send.bindings)
            record = mock.last_record()
        assert record.path == "/items/%E6%97%A5" and record.query == {"q": "\u672c"}

    def test_form_values_encoded_like_the_query(self, send):
        body = {"flag": True, "obj": {"a": 1, "b": 2}, "tags": ["x", None, "y"],
                "n": 3, "gone": None}
        with run_mock_upstream(send.manifest) as mock:
            invoke_tool(send.manifest.tool("send_form"), {"body": body}, {},
                        mock.base_url, send.manifest.schemes, send.bindings)
            record = mock.last_record()
        # the mock records the first of repeated keys
        assert record.body == {"flag": "true", "obj": '{"a": 1, "b": 2}', "tags": "x",
                               "n": "3"}


SEGMENTS_TREE = {
    "openapi": "3.0.3", "info": {"title": "Segments", "version": "1"},
    "servers": [{"url": "https://segments.example"}],
    "paths": {
        "/x/{a}{b}/{c}.json": {"get": {
            "operationId": "get_joined",
            "parameters": [{"name": name, "in": "path", "required": True,
                            "schema": {"type": "string"}} for name in "abc"],
            "responses": {"200": {"description": "ok"}}}},
        "/x/{a/b}": {"get": {
            "operationId": "get_slashed",
            "parameters": [{"name": "a/b", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "responses": {"200": {"description": "ok"}}}},
    },
}


class TestPathSegments:
    """A path segment that two arguments fill, or that holds template text
    beside an argument, and a declared path parameter whose name holds a
    `/`."""

    @pytest.fixture()
    def segments(self, tmp_path):
        spec = tmp_path / "segments.json"
        spec.write_text(json.dumps(SEGMENTS_TREE), encoding="utf-8")
        return compile_file(spec)

    @pytest.mark.parametrize("a, b", [(".", "."), ("", "")], ids=["dot-dot", "empty"])
    def test_two_arguments_that_make_a_dot_or_empty_segment_are_refused(
            self, segments, a, b):
        with run_mock_upstream(segments.manifest) as mock:
            with pytest.raises(SchemaViolation) as excinfo:
                invoke_tool(segments.manifest.tool("get_joined"), {"a": a, "b": b, "c": "z"},
                            {}, mock.base_url, segments.manifest.schemes, segments.bindings)
            assert mock.records == []
        assert str(excinfo.value) == (
            "argument 'a' cannot be sent as a path segment: it would be empty or a dot segment")

    def test_a_dot_beside_template_text_is_sent(self, segments):
        with run_mock_upstream(segments.manifest) as mock:
            invoke_tool(segments.manifest.tool("get_joined"), {"a": "x", "b": "y", "c": "."},
                        {}, mock.base_url, segments.manifest.schemes, segments.bindings)
            record = mock.last_record()
        assert record.path == "/x/xy/..json"

    def test_a_parameter_named_with_a_slash_fills_its_template(self, segments):
        tool = segments.manifest.tool("get_slashed")
        [arg] = tool.input_schema["required"]
        with run_mock_upstream(segments.manifest) as mock:
            invoke_tool(tool, {arg: "v"}, {}, mock.base_url, segments.manifest.schemes,
                        segments.bindings)
            record = mock.last_record()
        assert record.path == "/x/v"


class _DeepJson(BaseHTTPRequestHandler):
    """Answers every request with a JSON array nested 5,000 deep."""

    def do_GET(self):  # noqa: N802 - http.server's name
        body = b"[" * 5000 + b"]" * 5000
        self.send_response(422)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_upstream_json_nested_too_deep_stays_text(send, caplog):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _DeepJson)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        send.manifest.base_url = f"http://127.0.0.1:{server.server_address[1]}"
        with caplog.at_level(logging.ERROR, logger="automcp.runtime"):
            [line] = serve_utf8(send.manifest, [call_line("get_item", {"item_id": "1"})])
    finally:
        server.shutdown()
        server.server_close()
    result = json.loads(line)["result"]
    assert result["isError"] is True
    assert json.loads(result["content"][0]["text"]) == {
        "httpStatus": 422, "body": "[" * 5000 + "]" * 5000}
    assert caplog.records == []


class _PlainText(BaseHTTPRequestHandler):
    """Answers every request with a text/plain body."""

    def do_GET(self):  # noqa: N802 - http.server's name
        body = b'{"looks": "like JSON"}'
        self.send_response(200)
        self.send_header("Content-Type", "text/plain")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_upstream_body_that_is_not_json_typed_stays_text(send):
    """Only a JSON media type is decoded; any other body is its text."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _PlainText)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        result = invoke_tool(send.manifest.tool("get_item"), {"item_id": "1"}, {},
                             f"http://127.0.0.1:{server.server_address[1]}",
                             send.manifest.schemes, send.bindings)
    finally:
        server.shutdown()
        server.server_close()
    assert (result.http_status, result.body) == (200, '{"looks": "like JSON"}')


SEND_ALL_TREE = {
    "openapi": "3.0.3", "info": {"title": "All", "version": "1"},
    "servers": [{"url": "https://all.example"}],
    "components": {"securitySchemes": {
        "key": {"type": "apiKey", "in": "query", "name": "api_key"},
        "token": {"type": "http", "scheme": "bearer"}}},
    "security": [{"key": [], "token": []}],
    "paths": {"/items/{item_id}": {"put": {
        "operationId": "put_item",
        "parameters": [
            {"name": "item_id", "in": "path", "required": True},
            {"name": "q", "in": "query", "schema": {"type": "array"}},
            {"name": "X-Note", "in": "header"},
            {"name": "pref", "in": "cookie"},
        ],
        "requestBody": {"content": {"application/json": {"schema": {"type": "object"}}}},
        "responses": {"200": {"description": "ok"}}}}},
}


class _Response:
    status_code = 200
    headers = {"Content-Type": "application/json"}
    url = "https://all.example/v1/items/a%20b"
    text = '{"ok": true}'

    def json(self):
        return {"ok": True}


class TestSend:
    """Every upstream request leaves through `runtime._send`, which
    `invoke_tool` calls with the request it built."""

    def call(self, tmp_path, send):
        spec = tmp_path / "all.json"
        spec.write_text(json.dumps(SEND_ALL_TREE), encoding="utf-8")
        compiled = compile_file(spec)
        env = {b.env_var: f"sek-{b.scheme_id}" for b in compiled.bindings}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("automcp.runtime._send", send)
            return invoke_tool(
                compiled.manifest.tool("put_item"),
                {"item_id": "a b", "q": ["1", 2], "x_note": "n", "pref": "p",
                 "body": {"k": 1}},
                env, "https://all.example/v1/", compiled.manifest.schemes,
                compiled.bindings, timeout=7)

    def test_receives_the_request(self, tmp_path):
        sent = []

        def send(*request):
            sent.append(request)
            return _Response()

        result = self.call(tmp_path, send)
        assert (result.http_status, result.body, result.is_error) == (200, {"ok": True}, False)
        assert sent == [(
            "PUT", "https://all.example/v1/items/a%20b",
            {"q": ["1", "2"], "api_key": "sek-key"},
            {"X-Note": "n", "Authorization": "Bearer sek-token", "Cookie": "pref=p",
             "Content-Type": "application/json"},
            {"json": {"k": 1}}, 7)]

    def test_its_transport_error_comes_back_redacted(self, tmp_path):
        def send(*request):
            raise TransportError(
                "ConnectionError: /v1/items/a%20b?api_key=sek-key (Bearer sek-token)")

        with pytest.raises(TransportError) as excinfo:
            self.call(tmp_path, send)
        assert str(excinfo.value) == (
            "PUT https://all.example/v1/items/a%20b: "
            "ConnectionError: /v1/items/a%20b?api_key=*** (Bearer ***)")


class TestToolsListLine:
    """`serve` encodes the tools once per session and splices each id in;
    every line is still `dumps` of the whole reply, byte for byte."""

    @pytest.mark.parametrize("description", ["Get a user", "a user, \u00e9",
                                             "a user \ud800"])
    def test_lines_are_the_reference_encoding(self, trello, description):
        trello.manifest.tools[-1].description = description
        ids = ["\u00e9", None, 2.5, 1, -0.0, 10**20, "\ud800", "x"]
        lines = [json.dumps({"jsonrpc": "2.0", "id": msg_id, "method": "tools/list"})
                 for msg_id in ids]
        stdout = io.StringIO()
        serve(trello.manifest, {}, stdin=io.StringIO("\n".join(lines) + "\n"),
              stdout=stdout)
        tools = tools_list_payload(trello.manifest)
        assert stdout.getvalue().splitlines() == [
            dumps({"jsonrpc": "2.0", "id": msg_id, "result": {"tools": tools}})
            for msg_id in ids
        ]

    def test_each_session_lists_its_manifest_as_it_is(self, trello):
        request = [{"jsonrpc": "2.0", "id": 1, "method": "tools/list"}]
        before = run_serve(trello, {}, request)[0]["result"]["tools"]
        trello.manifest.tools[0].description = "changed between sessions"
        after = run_serve(trello, {}, request)[0]["result"]["tools"]
        assert before[0]["description"] != "changed between sessions"
        assert after[0]["description"] == "changed between sessions"


def test_bindings_rederived_from_manifest(trello_manifest=None):
    compiled = compile_file(fixture_path("allauth.yaml"))
    rederived = bindings_for(compiled.manifest)
    assert rederived == compiled.bindings


class TestCredentialsTheirPlaceCannotCarry:
    """A credential value its place cannot encode (Latin-1 in a header or
    cookie; UTF-8 in a query and in Basic's `user:password`), or that
    encodes but is no header value as sent (RFC 9110 §5.5) or no cookie
    value (RFC 6265 §4.1.1), as the same text in an argument is not,
    leaves its requirement set unmet, and the error names the variable,
    never the value."""

    @pytest.mark.parametrize("scheme, value, what", [
        (SecurityScheme("s", KIND_HTTP_BEARER), "日本", "latin-1 text"),
        (SecurityScheme("s", KIND_OAUTH2), "日本", "latin-1 text"),
        (SecurityScheme("s", KIND_API_KEY, "header", "X-Key"), "日", "latin-1 text"),
        (SecurityScheme("s", KIND_API_KEY, "cookie", "sid"), "日", "latin-1 text"),
        (SecurityScheme("s", KIND_API_KEY, "query", "key"), "\ud800", "utf-8 text"),
        (SecurityScheme("s", KIND_HTTP_BASIC), "\ud800", "utf-8 text"),
        (SecurityScheme("s", KIND_API_KEY, "header", "X-Key"), "sec\nret", "a header value"),
        (SecurityScheme("s", KIND_API_KEY, "header", "X-Key"), "sec\rret", "a header value"),
        (SecurityScheme("s", KIND_API_KEY, "header", "X-Key"), "sec\x00ret", "a header value"),
        (SecurityScheme("s", KIND_API_KEY, "header", "X-Key"), " secret", "a header value"),
        (SecurityScheme("s", KIND_API_KEY, "header", "X-Key"), "secret\t", "a header value"),
        (SecurityScheme("s", KIND_HTTP_BEARER), "sec\nret", "a header value"),
        (SecurityScheme("s", KIND_HTTP_BEARER), "secret ", "a header value"),
        (SecurityScheme("s", KIND_OAUTH2), "sec\x00ret", "a header value"),
        (SecurityScheme("s", KIND_API_KEY, "cookie", "sid"), "abc; admin=1", "a cookie value"),
        (SecurityScheme("s", KIND_API_KEY, "cookie", "sid"), 'a"b', "a cookie value"),
        (SecurityScheme("s", KIND_API_KEY, "cookie", "sid"), "café", "a cookie value"),
    ], ids=["bearer", "oauth2", "header", "cookie", "query", "basic", "header-lf",
            "header-cr", "header-nul", "header-leading-space", "header-trailing-tab",
            "bearer-lf", "bearer-trailing-space", "oauth2-nul", "cookie-adds-a-cookie",
            "cookie-quote", "cookie-latin-1"])
    def test_is_unmet_naming_the_variable(self, scheme, value, what):
        bindings, _ = build_env_map([scheme], "Acme")
        env = {b.env_var: value for b in bindings}
        with pytest.raises(MissingCredential) as excinfo:
            resolve_auth([{"s": []}], [scheme], env, bindings)
        assert excinfo.value.env_var == bindings[0].env_var
        assert str(excinfo.value) == (
            f"credential {bindings[0].env_var} cannot be sent: its value is not {what}")

    @pytest.mark.parametrize("scheme, value", [
        (SecurityScheme("s", KIND_HTTP_BEARER), "café"),
        (SecurityScheme("s", KIND_API_KEY, "query", "key"), "日本"),
        (SecurityScheme("s", KIND_HTTP_BASIC), "日本"),
    ], ids=["bearer-latin-1", "query-utf-8", "basic-utf-8"])
    def test_value_its_place_carries_is_sent(self, scheme, value):
        bindings, _ = build_env_map([scheme], "Acme")
        env = {b.env_var: value for b in bindings}
        plan = resolve_auth([{"s": []}], [scheme], env, bindings)
        assert plan.headers or plan.query

    def test_another_requirement_set_still_applies(self):
        schemes, bindings, env = bindings_and_env({"bear1": "日", "key1": "k"})
        plan = resolve_auth([{"bear1": []}, {"key1": []}], schemes, env, bindings)
        assert plan.headers == {"X-Key": "k"}

    def test_through_serve_no_request_and_no_log(self, trello, caplog):
        env, creds = sentinel_credentials(trello)
        key_var = next(b.env_var for b in trello.bindings if b.scheme_id == "apiKey")
        env[key_var] = "\ud800"
        stdout = io.StringIO()
        with run_mock_upstream(trello.manifest, credentials=creds) as mock:
            trello.manifest.base_url = mock.base_url
            with caplog.at_level(logging.DEBUG, logger="automcp.runtime"):
                serve(trello.manifest, env, stdin=io.StringIO(
                    call_line("list_cards", {}) + "\n"), stdout=stdout, timeout=5)
            assert mock.records == []
        result = json.loads(stdout.getvalue())["result"]
        assert result["isError"] is True
        assert key_var in result["content"][0]["text"]
        assert "\\ud800" not in stdout.getvalue() and caplog.records == []


PLACES_TREE = {
    "openapi": "3.0.3", "info": {"title": "Places", "version": "1"},
    "servers": [{"url": "https://places.example"}],
    "paths": {"/v": {"get": {
        "operationId": "get_v",
        "parameters": [
            {"name": "X-Arg", "in": "header", "schema": {"type": "string"}},
            {"name": "arg", "in": "cookie", "schema": {"type": "string"}},
            {"name": "q", "in": "query", "schema": {"type": "string"}}],
        "responses": {"200": {"description": "ok"}}}}},
}
PLACE_ARGUMENTS = {"header": "x_arg", "cookie": "arg", "query": "q"}
# CR, LF, NUL, space and tab (at either end too), `;` and `"`, Latin-1,
# non-Latin-1 and lone surrogates, among any other characters
PLACE_TEXT = st.text(st.sampled_from(list('\r\n\0 \t;"=,\\aZ9\u00e9\u00ff\u65e5\ud800\udfff'))
                     | st.characters(), min_size=1, max_size=8)


class TestArgumentsAndCredentialsAgree:
    """One rule says what a header, a cookie or a query can carry, for an
    argument and for an API key credential alike."""

    @pytest.fixture(scope="class")
    def places(self, tmp_path_factory):
        spec = tmp_path_factory.mktemp("places") / "places.json"
        spec.write_text(json.dumps(PLACES_TREE), encoding="utf-8")
        return compile_file(spec).manifest.tool("get_v")

    @staticmethod
    def sent_or_refused(tool, place, text):
        """The request `invoke_tool` sends with `text` as the argument in
        `place`, or what its SchemaViolation says the text is not."""
        arg, sent = PLACE_ARGUMENTS[place], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("automcp.runtime._send",
                          lambda *request: sent.append(request) or _Response())
            try:
                invoke_tool(tool, {arg: text}, {}, "https://places.example", [], [])
            except SchemaViolation as exc:
                return str(exc).removeprefix(f"argument {arg!r} cannot be sent as ")
        return sent[0]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(PLACE_ARGUMENTS)), PLACE_TEXT)
    def test_an_argument_is_refused_when_the_credential_is(self, places, place, text):
        scheme = SecurityScheme("s", KIND_API_KEY, place, "X-Key")
        bindings, _ = build_env_map([scheme], "Acme")
        var = bindings[0].env_var
        try:
            resolve_auth([{"s": []}], [scheme], {var: text}, bindings)
            credential = None
        except MissingCredential as exc:
            credential = str(exc).removeprefix(
                f"credential {var} cannot be sent: its value is not ")
        argument = self.sent_or_refused(places, place, text)
        assert (argument if isinstance(argument, str) else None) == credential

    @settings(max_examples=300, deadline=None)
    @given(PLACE_TEXT)
    def test_a_header_value_sent_is_one_http_client_sends(self, places, text):
        sent = self.sent_or_refused(places, "header", text)
        if not isinstance(sent, str):
            connection = http.client.HTTPConnection("localhost")  # never connects
            connection.putrequest("GET", "/")
            connection.putheader("X-Arg", sent[3]["X-Arg"])


REDIRECT_TREE = {
    "openapi": "3.0.0",
    "info": {"title": "Redirects", "version": "1"},
    "servers": [{"url": "https://redirects.example"}],
    "components": {"securitySchemes": {
        "key": {"type": "apiKey", "in": "header", "name": "X-API-Key"}}},
    "security": [{"key": []}],
    "paths": {"/items": {
        "get": {"operationId": "list_items", "responses": {"200": {"description": "ok"}}},
        "post": {"operationId": "add_item",
                 "requestBody": {"content": {"application/json": {
                     "schema": {"type": "object"}}}},
                 "responses": {"200": {"description": "ok"}}},
    }},
}


class _Scripted(BaseHTTPRequestHandler):
    """Records each request on its server as (method, path, headers,
    body) and answers with the server's `answer(method, path)`: a status
    and a `Location`, None for none."""

    def _answer(self):
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.server.records.append((self.command, self.path, dict(self.headers), body))
        status, location = self.server.answer(self.command, self.path)
        self.send_response(status)
        if location is not None:
            self.send_header("Location", location)
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = do_POST = _answer

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def scripted(answer):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Scripted)
    server.answer, server.records = answer, []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


class TestRedirects:
    """A 3xx is followed, at most five times, only to the request's own
    origin, so no header credential reaches another host."""

    @pytest.fixture()
    def api(self, tmp_path):
        spec = tmp_path / "redirects.json"
        spec.write_text(json.dumps(REDIRECT_TREE), encoding="utf-8")
        compiled = compile_file(spec)
        env, _ = sentinel_credentials(compiled)

        def call(server, tool, args):
            return invoke_tool(compiled.manifest.tool(tool), args, env,
                               f"http://127.0.0.1:{server.server_port}",
                               compiled.manifest.schemes, compiled.bindings)
        return call

    @pytest.mark.parametrize("location", [
        "http://127.0.0.1:{other}/elsewhere", "http://localhost:{port}/items",
        "https://127.0.0.1:{port}/items", "http://127.0.0.1:x/items",
    ], ids=["other-port", "other-host", "other-scheme", "bad-port"])
    def test_other_origin_is_not_followed(self, api, location):
        def answer(method, path):
            return 302, location.format(other=other.server_port, port=upstream.server_port)

        with scripted(lambda method, path: (200, None)) as other:
            with scripted(answer) as upstream:
                result = api(upstream, "list_items", {})
            assert other.records == []
        assert (result.is_error, result.http_status) == (True, 302)
        [(_, _, headers, _)] = upstream.records
        assert headers["X-API-Key"] == "sek-key-secret"

    def test_location_that_is_no_url_is_a_transport_error(self, api):
        """requests reads the Location of every 3xx it returns, and raises a
        plain ValueError on one that is no URL."""
        with scripted(lambda method, path: (302, "http://[::1/items")) as upstream:
            with pytest.raises(TransportError, match="Invalid IPv6 URL"):
                api(upstream, "list_items", {})
        assert len(upstream.records) == 1

    @pytest.mark.parametrize("url, location, target", [
        ("http://a.example/x", "http://A.example:80/y", "http://A.example:80/y"),
        ("https://a.example:443/x", "//a.example/y?q=1", "https://a.example/y?q=1"),
        ("http://a.example/x", "https://a.example/y", None),
        ("http://a.example/x", "http://a.example:8080/y", None),
    ], ids=["default-port-named", "default-port-left-out", "other-scheme", "other-port"])
    def test_origin_fills_in_the_default_port(self, url, location, target):
        assert _same_origin(url, location) == target

    def test_see_other_after_post_goes_on_as_a_bodiless_get(self, api):
        def answer(method, path):
            return (303, "/done") if path == "/items" else (200, None)

        with scripted(answer) as upstream:
            result = api(upstream, "add_item", {"body": {"name": "x"}})
        assert (result.is_error, result.http_status) == (False, 200)
        first, second = upstream.records
        assert first[:2] == ("POST", "/items") and first[3] == b'{"name": "x"}'
        assert second[:2] == ("GET", "/done") and second[3] == b""
        assert "Content-Type" not in second[2]
        assert second[2]["X-API-Key"] == "sek-key-secret"

    def test_temporary_redirect_keeps_method_and_body(self, api):
        def answer(method, path):
            return (307, "/moved?page=2") if path == "/items" else (200, None)

        with scripted(answer) as upstream:
            result = api(upstream, "add_item", {"body": {"name": "x"}})
        assert (result.is_error, result.http_status) == (False, 200)
        first, second = upstream.records
        assert second[:2] == ("POST", "/moved?page=2")
        assert second[3] == first[3] == b'{"name": "x"}'
        assert second[2]["Content-Type"] == "application/json"

    def test_sixth_hop_is_returned_unfollowed(self, api):
        hops = iter(range(1, 10))
        with scripted(lambda method, path: (302, f"/hop/{next(hops)}")) as upstream:
            result = api(upstream, "list_items", {})
        assert (result.is_error, result.http_status) == (True, 302)
        assert [path for _, path, _, _ in upstream.records] == [
            "/items", "/hop/1", "/hop/2", "/hop/3", "/hop/4", "/hop/5"]
