"""The manifest-driven mock upstream: routing, auth gates, state."""

from __future__ import annotations

import http.client
import json
import time

import pytest
import requests

from automcp.mock_upstream import ENFORCE_GLOBAL, run_mock_upstream
from automcp.pipeline import compile_file
from conftest import sentinel_credentials


def test_unregistered_path_is_404(petstore):
    with run_mock_upstream(petstore.manifest) as mock:
        response = requests.get(f"{mock.base_url}/not/a/route", timeout=5)
    assert response.status_code == 404
    assert "no matching operation" in response.json()["error"]


def test_missing_api_key_is_401(petstore):
    env, creds = sentinel_credentials(petstore)
    with run_mock_upstream(petstore.manifest, credentials=creds) as mock:
        response = requests.get(f"{mock.base_url}/store/inventory", timeout=5)
    assert response.status_code == 401


def test_valid_api_key_passes(petstore):
    env, creds = sentinel_credentials(petstore)
    with run_mock_upstream(petstore.manifest, credentials=creds) as mock:
        response = requests.get(
            f"{mock.base_url}/store/inventory",
            headers={"api_key": creds["api_key"]},
            timeout=5,
        )
    assert response.status_code == 200


def test_create_then_list_sees_resource(petstore):
    env, creds = sentinel_credentials(petstore)
    headers = {"api_key": creds["api_key"]}
    with run_mock_upstream(petstore.manifest, credentials=creds) as mock:
        created = requests.post(
            f"{mock.base_url}/user", json={"username": "ada"},
            headers=headers, timeout=5,
        )
        # the fixture has no collection GET for /user; query the store directly
        assert created.status_code == 200
        assert mock.store["/user"][0]["username"] == "ada"
        assert created.json()["created"]["username"] == "ada"


def test_required_header_gate(petstore):
    env, creds = sentinel_credentials(petstore)
    with run_mock_upstream(
        petstore.manifest,
        credentials=creds,
        required_headers={"Sync-Version": "2022-06-28"},
    ) as mock:
        missing = requests.get(
            f"{mock.base_url}/store/inventory",
            headers={"api_key": creds["api_key"]},
            timeout=5,
        )
        present = requests.get(
            f"{mock.base_url}/store/inventory",
            headers={"api_key": creds["api_key"], "Sync-Version": "2022-06-28"},
            timeout=5,
        )
    assert missing.status_code == 400
    assert missing.json()["header"] == "Sync-Version"
    assert present.status_code == 200


def test_global_enforcement_requires_key_everywhere(petstore):
    env, creds = sentinel_credentials(petstore)
    with run_mock_upstream(
        petstore.manifest, credentials=creds, enforce=ENFORCE_GLOBAL
    ) as mock:
        # /pet/findByStatus carries doc-level security in the fixture, but in
        # global mode even endpoints without annotations would be gated
        bare = requests.get(f"{mock.base_url}/user/logout", timeout=5)
        keyed = requests.get(
            f"{mock.base_url}/user/logout",
            headers={"api_key": creds["api_key"]},
            timeout=5,
        )
    assert bare.status_code == 401
    assert keyed.status_code == 200


def test_echo_redacts_query_credentials(trello_like=None):
    from automcp.pipeline import compile_file
    import json as _json
    import tempfile
    from pathlib import Path

    tree = {
        "openapi": "3.0.0",
        "info": {"title": "QueryAuth", "version": "1"},
        "servers": [{"url": "https://qa.example"}],
        "components": {
            "securitySchemes": {
                "qk": {"type": "apiKey", "in": "query", "name": "api_key"}
            }
        },
        "paths": {
            "/data": {
                "get": {"security": [{"qk": []}],
                        "responses": {"200": {"description": "ok"}}}
            }
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "qa.json"
        spec.write_text(_json.dumps(tree), encoding="utf-8")
        compiled = compile_file(spec)
    env, creds = sentinel_credentials(compiled)
    with run_mock_upstream(compiled.manifest, credentials=creds) as mock:
        response = requests.get(
            f"{mock.base_url}/data", params={"api_key": creds["qk"]}, timeout=5
        )
    assert response.status_code == 200
    assert creds["qk"] not in response.text
    assert response.json()["echo"]["query"]["api_key"] == "***"


def test_reset_clears_store_and_records(petstore):
    env, creds = sentinel_credentials(petstore)
    with run_mock_upstream(petstore.manifest, credentials=creds) as mock:
        requests.post(
            f"{mock.base_url}/user", json={"username": "b"},
            headers={"api_key": creds["api_key"]}, timeout=5,
        )
        assert mock.records and mock.store
        mock.reset()
        assert mock.records == [] and mock.store == {}


def test_success_status_comes_from_contract(allauth):
    env, creds = sentinel_credentials(allauth)
    with run_mock_upstream(allauth.manifest, credentials=creds) as mock:
        response = requests.post(
            f"{mock.base_url}/gadgets", json={"name": "g"},
            headers={"X-Api-Key": creds["headerKey"]}, timeout=5,
        )
    assert response.status_code == 201


def test_no_content_carries_no_body(tmp_path):
    """A 204 has no body and no Content-Length, so the next response on
    the kept-alive connection starts at its own status line."""
    spec = tmp_path / "spec.json"
    ok = {"200": {"description": "ok"}}
    spec.write_text(json.dumps({
        "openapi": "3.0.3", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://t.example"}],
        "paths": {"/things/{id}": {
            "delete": {"operationId": "dropThing",
                       "responses": {"204": {"description": "gone"}}},
            "get": {"operationId": "readThing", "responses": ok}}},
    }), encoding="utf-8")
    with run_mock_upstream(compile_file(spec).manifest) as mock:
        conn = http.client.HTTPConnection("127.0.0.1", mock.port, timeout=5)
        try:
            conn.request("DELETE", "/things/1")
            dropped = conn.getresponse()
            assert (dropped.status, dropped.read()) == (204, b"")
            assert dropped.getheader("Content-Length") is None
            conn.request("GET", "/things/1")
            read = conn.getresponse()
            assert read.status == 200
            assert json.loads(read.read())["tool"] == "readthing"
        finally:
            conn.close()


def test_kept_alive_calls_do_not_stall(tmp_path):
    """Each response's head and body leave at once: with Nagle's algorithm
    on, the body waits for the ACK the client delays, about 40 ms a call."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "openapi": "3.0.3", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://t.example"}],
        "paths": {"/things": {"get": {"operationId": "listThings",
                                      "responses": {"200": {"description": "ok"}}}}},
    }), encoding="utf-8")
    with run_mock_upstream(compile_file(spec).manifest) as mock:
        conn = http.client.HTTPConnection("127.0.0.1", mock.port, timeout=5)
        try:
            start = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/things")
                response = conn.getresponse()
                assert (response.status, json.loads(response.read())["tool"]) == (
                    200, "listthings")
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
    assert elapsed < 0.2


def test_credential_slot_is_checked_beside_the_requirement(tmp_path):
    """An operation requiring bearer that takes the `api_key` query
    parameter needs both: the slot's scheme is in its requirement set."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "openapi": "3.0.3", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://t.example"}],
        "components": {"securitySchemes": {
            "api_key": {"type": "apiKey", "in": "query", "name": "api_key"},
            "bearer": {"type": "http", "scheme": "bearer"}}},
        "paths": {"/things": {"get": {
            "security": [{"bearer": []}],
            "parameters": [{"name": "api_key", "in": "query",
                            "schema": {"type": "string"}}],
            "responses": {"200": {"description": "ok"}}}}},
    }), encoding="utf-8")
    compiled = compile_file(spec)
    env, creds = sentinel_credentials(compiled)
    bearer = {"Authorization": f"Bearer {creds['bearer']}"}
    with run_mock_upstream(compiled.manifest, credentials=creds) as mock:
        url = f"{mock.base_url}/things"
        token_only = requests.get(url, headers=bearer, timeout=5)
        both = requests.get(url, headers=bearer,
                            params={"api_key": creds["api_key"]}, timeout=5)
    assert token_only.status_code == 401
    assert both.status_code == 200


@pytest.mark.parametrize("case", [str.title, str.lower, str.upper])
def test_body_headers_are_read_in_any_case(tmp_path, case):
    """Content-Type and Content-Length match in any case (RFC 9110 §5.1);
    the record keeps the names as sent, and so does the cookie check."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "openapi": "3.0.3", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://t.example"}],
        "components": {"securitySchemes": {
            "ck": {"type": "apiKey", "in": "cookie", "name": "sid"}}},
        "security": [{"ck": []}],
        "paths": {"/forms": {"post": {
            "requestBody": {"content": {"application/x-www-form-urlencoded": {
                "schema": {"type": "object"}}}},
            "responses": {"201": {"description": "ok"}}}}},
    }), encoding="utf-8")
    headers = {case("content-type"): "application/x-www-form-urlencoded",
               case("content-length"): "3", case("cookie"): "sid=s3cret"}
    with run_mock_upstream(compile_file(spec).manifest,
                           credentials={"ck": "s3cret"}) as mock:
        conn = http.client.HTTPConnection("127.0.0.1", mock.port, timeout=5)
        try:
            conn.request("POST", "/forms", body=b"a=1", headers=headers)
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        record = mock.last_record()
    assert response.status == 201
    assert record.body == {"a": "1"}
    assert {k: record.headers[k] for k in headers} == headers


def test_records_the_served_tool_and_decoded_path_params(tmp_path):
    """The most literal template serves a path, and each template
    variable of that route is recorded percent-decoded."""
    spec = tmp_path / "spec.json"
    ok = {"200": {"description": "ok"}}
    spec.write_text(json.dumps({
        "openapi": "3.0.3", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://t.example"}],
        "paths": {
            "/pets/{id}/toys/{toy-id}": {"get": {"operationId": "getToy", "responses": ok}},
            "/pets/{id}": {"get": {"operationId": "getPet", "responses": ok}},
            "/pets/mine": {"get": {"operationId": "getMine", "responses": ok}},
        },
    }), encoding="utf-8")
    with run_mock_upstream(compile_file(spec).manifest) as mock:
        seen = []
        for path in ("/pets/a%2Fb%20%C3%A9/toys/%7Bx%7D", "/pets/mine", "/pets/mine%21"):
            assert requests.get(mock.base_url + path, timeout=5).status_code == 200
            record = mock.last_record()
            seen.append((record.tool_name, record.path_params))
    assert seen == [
        ("gettoy", {"id": "a/b é", "toy-id": "{x}"}),
        ("getmine", {}),
        ("getpet", {"id": "mine!"}),
    ]


def test_a_variable_named_with_a_slash_is_routed_and_recorded(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "openapi": "3.0.3", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://t.example"}],
        "paths": {"/x/{a/b}": {"get": {"operationId": "getSlashed", "parameters": [
            {"name": "a/b", "in": "path", "required": True, "schema": {"type": "string"}}],
            "responses": {"200": {"description": "ok"}}}}},
    }), encoding="utf-8")
    with run_mock_upstream(compile_file(spec).manifest) as mock:
        assert requests.get(mock.base_url + "/x/v", timeout=5).status_code == 200
        record = mock.last_record()
    assert (record.tool_name, record.path_params) == ("getslashed", {"a/b": "v"})


def test_blank_query_and_form_values_are_recorded(tmp_path):
    """An empty query value or form field is recorded as "", not dropped."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "openapi": "3.0.3", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://t.example"}],
        "paths": {"/forms": {"post": {
            "requestBody": {"content": {"application/x-www-form-urlencoded": {
                "schema": {"type": "object"}}}},
            "responses": {"201": {"description": "ok"}}}}},
    }), encoding="utf-8")
    with run_mock_upstream(compile_file(spec).manifest) as mock:
        response = requests.post(
            f"{mock.base_url}/forms?blank=&q=x", data="a=&b=1", timeout=5,
            headers={"Content-Type": "application/x-www-form-urlencoded"})
        record = mock.last_record()
    assert response.status_code == 201
    assert record.query == {"blank": "", "q": "x"}
    assert record.body == {"a": "", "b": "1"}


def _api_key_spec(tmp_path):
    """A POST under a cookie apiKey `sid`, and a GET under a header apiKey."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "openapi": "3.0.3", "info": {"title": "T", "version": "1"},
        "servers": [{"url": "https://t.example"}],
        "components": {"securitySchemes": {
            "ck": {"type": "apiKey", "in": "cookie", "name": "sid"},
            "hk": {"type": "apiKey", "in": "header", "name": "X-Key"}}},
        "paths": {"/things": {
            "post": {"security": [{"ck": []}],
                     "requestBody": {"content": {"text/plain": {
                         "schema": {"type": "string"}}}},
                     "responses": {"201": {"description": "ok"}}},
            "get": {"security": [{"hk": []}],
                    "responses": {"200": {"description": "ok"}}}}},
    }), encoding="utf-8")
    return compile_file(spec).manifest


@pytest.mark.parametrize("cookie, status", [
    ("sid=s3cret", 201),
    ("a=1; sid=s3cret", 201),
    ("xsid=s3cret", 401),
    ("sid=s3cretx", 401),
    ("a=sid=s3cret", 401),
])
def test_cookie_credential_is_one_whole_pair(tmp_path, cookie, status):
    """The cookie apiKey passes only as a `name=value` pair of its own,
    name and value matched exactly."""
    with run_mock_upstream(_api_key_spec(tmp_path), credentials={"ck": "s3cret"}) as mock:
        response = requests.post(f"{mock.base_url}/things", headers={"Cookie": cookie},
                                 timeout=5)
    assert response.status_code == status


def test_scheme_with_no_configured_credential_is_refused(tmp_path):
    """Per endpoint, a required scheme the mock holds no credential for is
    never satisfied, not even by a request that sends no such header."""
    with run_mock_upstream(_api_key_spec(tmp_path), credentials={"ck": "s3cret"}) as mock:
        response = requests.get(f"{mock.base_url}/things", timeout=5)
    assert response.status_code == 401


def test_body_that_is_not_json_is_recorded_as_text(tmp_path):
    """A body that does not decode as JSON (text, or bytes that are not
    UTF-8) is kept as its text, undecodable bytes replaced."""
    with run_mock_upstream(_api_key_spec(tmp_path), credentials={"ck": "s3cret"}) as mock:
        seen = []
        for body in (b"plain words", b"\xff{"):
            requests.post(f"{mock.base_url}/things", data=body, timeout=5,
                          headers={"Cookie": "sid=s3cret", "Content-Type": "text/plain"})
            seen.append(mock.last_record().body)
    assert seen == ["plain words", "�{"]
