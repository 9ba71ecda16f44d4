"""The manifest-driven mock upstream: routing, auth gates, state."""

from __future__ import annotations

import http.client
import json

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
