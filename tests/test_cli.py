"""CLI behavior: artifacts, exit codes, stdout discipline."""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from automcp import pipeline
from automcp.cli import main
from automcp.compiler import manifest_to_dict
from automcp.doctor import fix_loop, load_vendor_rules
from automcp.errors import NestingError
from automcp.ingest import load_document
from automcp.mock_upstream import run_mock_upstream
from automcp.pipeline import compile_file
from conftest import DEFECTS, changed_line_count, fixture_path


def run_cli(args: list[str]) -> int:
    return main([str(a) for a in args])


class TestGenerate:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        code = run_cli(["generate", fixture_path("petstore.json"), "--out", tmp_path])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["tools"]) == 19
        assert manifest["base_url"] == "https://petstore.fixture.example/v2"

        env_text = (tmp_path / ".env").read_text()
        assert "PETSTORE_FIXTURE_API_KEY=" in env_text
        assert "EXTRA_HEADERS=" in env_text

        launch = json.loads((tmp_path / "mcp_config.json").read_text())
        server = next(iter(launch["mcpServers"].values()))
        assert server["command"] == "python"
        assert server["args"][:3] == ["-m", "automcp", "serve"]

    def test_emit_stub_records_endpoint_bindings(self, tmp_path):
        code = run_cli(
            ["generate", fixture_path("petstore.json"), "--out", tmp_path, "--emit-stub"]
        )
        assert code == 0
        stub = json.loads((tmp_path / "stub.json").read_text())
        assert stub["tools"][0]["endpoint"]["method"]
        assert stub["securitySchemes"][0]["id"] == "api_key"

    def test_emit_stub_lists_a_slot_scheme_in_security(self, tmp_path):
        """A parameter named like a declared apiKey scheme is a credential
        slot: its scheme joins every requirement set, or is the only one."""
        key = {"name": "key", "in": "query", "schema": {"type": "string"}}
        ok = {"200": {"description": "ok"}}
        spec = tmp_path / "slots.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.3", "info": {"title": "Slots", "version": "1"},
            "servers": [{"url": "https://slots.example"}],
            "components": {"securitySchemes": {
                "k": {"type": "apiKey", "in": "query", "name": "key"},
                "bearer": {"type": "http", "scheme": "bearer"}}},
            "paths": {
                "/guarded": {"get": {"security": [{"bearer": []}],
                                     "parameters": [key], "responses": ok}},
                "/public": {"get": {"parameters": [key], "responses": ok}},
                "/plain": {"get": {"responses": ok}},
            },
        }), encoding="utf-8")
        assert run_cli(["generate", spec, "--out", tmp_path, "--emit-stub"]) == 0
        stub = json.loads((tmp_path / "stub.json").read_text())
        assert [t["endpoint"]["security"] for t in stub["tools"]] == [
            [{"k": [], "bearer": []}], [{"k": []}], []]
        assert [t["inputSchema"]["properties"] for t in stub["tools"]] == [{}] * 3

    def test_emit_stub_matches_a_header_slot_in_any_case(self, tmp_path):
        """Header names are case-insensitive (RFC 9110 §5.1): parameter
        `x-api-key` is the slot of the scheme sent in header `X-API-Key`.
        A query name matches exactly."""
        spec = tmp_path / "hdr.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.3", "info": {"title": "Hdr", "version": "1"},
            "servers": [{"url": "https://hdr.example"}],
            "components": {"securitySchemes": {
                "k": {"type": "apiKey", "in": "header", "name": "X-API-Key"},
                "q": {"type": "apiKey", "in": "query", "name": "Key"}}},
            "paths": {"/a": {"get": {
                "parameters": [
                    {"name": "x-api-key", "in": "header", "required": True},
                    {"name": "key", "in": "query"}],
                "responses": {"200": {"description": "ok"}}}}},
        }), encoding="utf-8")
        assert run_cli(["generate", spec, "--out", tmp_path, "--emit-stub"]) == 0
        [tool] = json.loads((tmp_path / "stub.json").read_text())["tools"]
        assert list(tool["inputSchema"]["properties"]) == ["key"]
        assert tool["endpoint"]["security"] == [{"k": []}]

    def test_oauth_config_written_when_oauth_scheme_present(self, tmp_path):
        code = run_cli(["generate", fixture_path("allauth.yaml"), "--out", tmp_path])
        assert code == 0
        oauth = json.loads((tmp_path / "oauth_config.json").read_text())
        assert oauth["tokenUrl"] == "https://auth.omni.example/token"
        assert oauth["envVar"] == "OMNI_FIXTURE_API_ACCESS_TOKEN"

    def test_existing_env_not_clobbered(self, tmp_path):
        env = tmp_path / ".env"
        env.write_text("PETSTORE_FIXTURE_API_KEY=real-secret\n", encoding="utf-8")
        code = run_cli(["generate", fixture_path("petstore.json"), "--out", tmp_path])
        assert code == 0
        assert "real-secret" in env.read_text()

    def test_class_b_without_fix_exits_2_with_class_on_stderr(self, tmp_path, capsys):
        code = run_cli(["generate", DEFECTS / "class_b.yaml", "--out", tmp_path])
        captured = capsys.readouterr()
        assert code == 2
        assert "class B" in captured.err

    def test_class_b_with_fix_proceeds(self, tmp_path):
        code = run_cli(
            [
                "generate", DEFECTS / "class_b.yaml", "--out", tmp_path,
                "--fix", "--rules", fixture_path("vendor_rules.json"),
            ]
        )
        assert code == 0
        assert (tmp_path / "class_b.fixed.yaml").exists()
        assert (tmp_path / "class_b.patch.diff").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["base_url"] == "https://api.workforce.example"

    @pytest.mark.parametrize("name", sorted(p.name for p in DEFECTS.glob("class_*")))
    def test_fix_manifest_is_the_written_repairs(self, tmp_path, name):
        rules = ["--rules", fixture_path("vendor_rules.json")]
        fixed, again = tmp_path / "fixed", tmp_path / "again"
        assert run_cli(["generate", DEFECTS / name, "--out", fixed, "--fix"] + rules) == 0
        stem, suffix = name.rsplit(".", 1)
        written = fixed / f"{stem}.fixed.{suffix}"
        assert written.exists() == (name != "class_c.yaml")  # class C is advisory
        spec = written if written.exists() else DEFECTS / name
        assert run_cli(["generate", spec, "--out", again] + rules) == 0
        assert (again / "manifest.json").read_bytes() == (
            fixed / "manifest.json").read_bytes()

    def test_fix_compiles_the_last_lint_passs_contract(self, monkeypatch):
        """compile_file(fix=True) flattens and normalizes the repaired
        document only inside the fix loop; a plain compile does it once."""
        calls = []

        def counted(name):
            original = getattr(pipeline, name)

            def call(*args):
                calls.append(name)
                return original(*args)
            return call

        for name in ("normalize", "flatten"):
            monkeypatch.setattr(pipeline, name, counted(name))
        spec = DEFECTS / "class_d.yaml"
        rules = load_vendor_rules(fixture_path("vendor_rules.json"))
        fixed = compile_file(spec, fix=True, rules=rules)
        assert calls == []
        assert fixed.contract is fixed.fix_report.contract
        compile_file(spec)
        assert calls == ["flatten", "normalize"]


class TestLint:
    def test_clean_spec(self, capsys):
        code = run_cli(["lint", fixture_path("petstore.json")])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == "0 findings"
        assert payload["clean"] is True

    def test_findings_without_fix_exit_4(self, capsys):
        code = run_cli(["lint", DEFECTS / "class_e.json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 4
        assert payload["counts_by_class"] == {"E": 19}

    def test_fix_writes_repaired_spec_and_diff(self, tmp_path, capsys):
        code = run_cli(
            ["lint", DEFECTS / "class_d.yaml", "--fix", "--out", tmp_path]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        diff_text = (tmp_path / "class_d.patch.diff").read_text()
        assert any(
            line.startswith("-") and "type: integer" in line
            for line in diff_text.splitlines()
        )
        assert any(
            line.startswith("+") and "type: string" in line
            for line in diff_text.splitlines()
        )
        assert payload["loc_changed_by_class"] == {"D": 1}
        repaired = tmp_path / "class_d.fixed.yaml"
        assert "type: string" in repaired.read_text()

    @pytest.mark.parametrize("case", ["password_2_0", "apikey_no_name_3_x"])
    def test_scheme_generate_rejects_is_a_finding(self, tmp_path, capsys, case):
        op = {"get": {"operationId": "getA", "responses": {"200": {"description": "ok"}}}}
        if case == "password_2_0":
            tree = {"swagger": "2.0", "info": {"title": "Pw", "version": "1"},
                    "host": "pw.example", "paths": {"/a": op},
                    "securityDefinitions": {"pw": {
                        "type": "oauth2", "flow": "password", "scopes": {},
                        "tokenUrl": "https://pw.example/oauth/token"}},
                    "security": [{"pw": []}]}
        else:
            tree = {"openapi": "3.0.3", "info": {"title": "Key", "version": "1"},
                    "servers": [{"url": "https://key.example"}], "paths": {"/a": op},
                    "components": {"securitySchemes": {
                        "k": {"type": "apiKey", "in": "header"}}},
                    "security": [{"k": []}]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(tree), encoding="utf-8")

        assert run_cli(["generate", spec, "--out", tmp_path / "plain"]) == 2
        rejected = capsys.readouterr().err.strip().removeprefix("error: class A: ")
        assert run_cli(["lint", spec]) == 4
        [finding] = json.loads(capsys.readouterr().out)["findings"]
        assert finding["class"] == "A" and finding["message"] == rejected
        fixed = run_cli(["generate", spec, "--fix", "--out", tmp_path / "fixed"])
        assert fixed == (0 if case == "password_2_0" else 2)

    @pytest.mark.parametrize("dialect", ["2.0", "3.x"])
    @pytest.mark.parametrize(
        "node",
        [{"type": "apiKey", "in": "header"}, {"type": "apikey", "in": "header"},
         {"type": "mutualTLS"}, {"description": "no type"}],
        ids=["apikey-no-name", "apikey-casing-no-name", "unknown-type", "no-type"],
    )
    def test_fix_exits_4_when_a_finding_has_no_patch(self, tmp_path, capsys,
                                                     node, dialect):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_spec_tree(
            dialect, {"/a": {"get": _op()}}, {"k": node})), encoding="utf-8")
        assert run_cli(["lint", spec, "--fix", "--out", tmp_path / "out"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["changed"] is False
        [residual] = payload["residual_advisories"]
        assert residual["class"] == "A" and residual["patchable"] is False

    def test_fix_that_never_converges_exits_4(self, tmp_path, capsys):
        """A rules file whose `base_url` is itself no usable base URL makes
        class B's repair re-open the finding every pass."""
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({".*": {"base_url": "relative/api"}}), encoding="utf-8")
        tree = {"openapi": "3.0.3", "info": {"title": "T", "version": "1"},
                "servers": [{"url": "{{root}}"}], "paths": {"/a": {"get": _op()}}}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(tree), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["lint", spec, "--fix", "--rules", rules, "--out", out]) == 4
        assert capsys.readouterr().err == (
            "error: 1 patchable finding(s) remain after 5 iterations\n")
        assert not out.exists()

    @pytest.mark.parametrize("schemes", [["k"], "k"], ids=["list", "string"])
    @pytest.mark.parametrize("dialect, pointer", [
        ("2.0", "#/securityDefinitions"), ("3.x", "#/components/securitySchemes"),
        ("3.x", "#/components"),
    ], ids=["2.0", "3.x", "3.x-components"])
    def test_scheme_container_not_a_mapping_is_class_a(self, tmp_path, capsys,
                                                       schemes, dialect, pointer):
        tree = _spec_tree(dialect, {"/a": {"get": _op()}}, schemes)
        if pointer == "#/components":
            tree["components"] = [schemes]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(tree), encoding="utf-8")
        for fix in ([], ["--fix"]):
            assert run_cli(["generate", spec, "--out", tmp_path / "out"] + fix) == 2
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: class A: {pointer} is not a mapping")
        assert run_cli(["lint", spec]) == 4
        [finding] = json.loads(capsys.readouterr().out)["findings"]
        assert finding == {
            "class": "A", "label": "Incorrect or missing security schemes",
            "location": pointer, "message": line.removeprefix("error: class A: "),
            "patchable": False,
        }

    def test_advisory_only_exits_zero_with_suggestion(self, capsys):
        code = run_cli(
            ["lint", DEFECTS / "class_c.yaml", "--rules", fixture_path("vendor_rules.json")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "EXTRA_HEADERS" in out
        assert "Sync-Version" in out


class TestLoneSurrogates:
    """A lone surrogate is valid JSON (RFC 8259 §8.2) but no UTF-8 text:
    a file or stdout that would hold one gets `\\u` escapes instead, and
    every other output keeps its bytes."""

    def spec(self, tmp_path, odd: str) -> Path:
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({
            "openapi": "3.0.3", "info": {"title": f"T{odd}", "version": "1"},
            "servers": [{"url": "https://x.example"}],
            "components": {"securitySchemes": {
                "k": {"type": "apiKey", "in": "header", "name": "X-Key"}}},
            "paths": {f"/a{odd}": {
                "get": {"operationId": "get_a", "summary": f"a{odd}b",
                        "security": [{"k": []}],
                        "responses": {"200": {"description": "ok"}}},
                "post": {"operationId": "post_a",
                         "responses": {"200": {"description": "ok"}}}}},
        }), encoding="utf-8")
        return path

    @pytest.mark.parametrize("odd", ["\ud800", "\u00e9"])
    def test_generate_writes_every_file(self, tmp_path, odd):
        out = tmp_path / "out"
        assert run_cli(["generate", self.spec(tmp_path, odd), "--emit-stub",
                        "--out", out]) == 0
        manifest = compile_file(tmp_path / "odd.json").manifest
        for name, bindings in (("manifest.json", False), ("stub.json", True)):
            tree = manifest_to_dict(manifest, include_bindings=bindings)
            text = json.dumps(tree, indent=2, ensure_ascii=odd != "\u00e9") + "\n"
            assert (out / name).read_bytes() == text.encode()
            assert json.loads((out / name).read_text(encoding="utf-8")) == tree
        assert f"T{odd}".encode("utf-8", "backslashreplace") in (out / ".env").read_bytes()

    @pytest.mark.parametrize("odd", ["\ud800", "\u00e9"])
    def test_lint_prints_its_findings(self, tmp_path, capsys, odd):
        assert run_cli(["lint", self.spec(tmp_path, odd)]) == 4
        out = capsys.readouterr().out
        assert (odd == "\u00e9") == (odd in out)
        [finding] = json.loads(out)["findings"]
        assert finding["location"] == f"#/paths/~1a{odd}/post"


def _op(**extra) -> dict:
    return {"operationId": "getA", "responses": {"200": {"description": "ok"}},
            **extra}


def _spec_tree(dialect: str, paths: dict, schemes: dict) -> dict:
    """A one-scheme document required at the document level."""
    if dialect == "2.0":
        tree = {"swagger": "2.0", "host": "api.example",
                "securityDefinitions": schemes}
    else:
        tree = {"openapi": "3.0.3", "servers": [{"url": "https://api.example"}],
                "components": {"securitySchemes": schemes}}
    return {**tree, "info": {"title": "T", "version": "1"},
            "security": [{scheme_id: []} for scheme_id in schemes], "paths": paths}


@pytest.mark.parametrize("dialect", ["2.0", "3.x"])
@pytest.mark.parametrize(
    "path, item",
    [
        ("/a/{id}", {"parameters": None, "get": _op()}),
        ("/a/{id}", {"get": _op(parameters=None)}),
        ("/a", {"parameters": None, "get": _op()}),
        ("/a", {"get": _op(security=None)}),
        ("/a", {"get": _op(security={"k": []})}),
    ],
    ids=["path-parameters", "op-parameters", "path-parameters-no-var",
         "op-security", "op-security-mapping"],
)
def test_null_where_a_list_belongs_compiles(tmp_path, capsys, path, item, dialect):
    """A `parameters` value that is not a list reads as no parameters; a
    `security` value that is not a list reads as absent, so the operation
    inherits the document's requirement."""
    key = {"type": "apiKey", "in": "header", "name": "X-Key"}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec_tree(dialect, {path: item}, {"k": key})),
                    encoding="utf-8")
    assert run_cli(["generate", spec, "--out", tmp_path, "--emit-stub"]) == 0
    [tool] = json.loads((tmp_path / "stub.json").read_text())["tools"]
    assert tool["endpoint"]["security"] == [{"k": []}]
    assert tool["inputSchema"]["required"] == (["id"] if "{id}" in path else [])
    capsys.readouterr()
    assert run_cli(["lint", spec]) == 0
    assert json.loads(capsys.readouterr().out)["clean"] is True


class TestSample:
    def test_small_spec_lists_everything(self, capsys):
        code = run_cli(["sample", fixture_path("petstore.json")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["exhaustive"] is True
        assert payload["total_selected"] == 19

    def test_threshold_flag_forces_stratified_path(self, capsys):
        code = run_cli(["sample", fixture_path("petstore.json"), "--threshold", "5"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["exhaustive"] is False
        assert payload["total_selected"] < 19

    def test_threshold_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("AUTOMCP_THRESHOLD", "5")
        code = run_cli(["sample", fixture_path("petstore.json")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["exhaustive"] is False


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        assert run_cli(["lint", "/nope/missing.yaml"]) == 3

    def test_wrong_dialect_is_parse_error(self, tmp_path, capsys):
        spec = tmp_path / "async.yaml"
        spec.write_text('asyncapi: "2.0"\n', encoding="utf-8")
        assert run_cli(["lint", spec]) == 1

    def test_fatal_validation_is_2(self, tmp_path, capsys):
        spec = tmp_path / "nopaths.json"
        spec.write_text(
            '{"openapi":"3.0.0","info":{"title":"x","version":"1"},'
            '"servers":[{"url":"https://x.example"}]}',
            encoding="utf-8",
        )
        assert run_cli(["generate", spec, "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("extra", ['{"X-Lang": "\u65e5\u672c"}', '{"X-\u65e5": "ja"}',
                                       '{"Bad Name": "ja"}', '{"X-A": " lead"}',
                                       '{"X-A": "a\\u0000b"}', '{"X-A": "a\\r\\nX-B: c"}'],
                             ids=["value", "name", "name-not-a-token", "leading-space",
                                  "nul", "crlf"])
    def test_extra_headers_http_cannot_carry_is_2_at_start(self, tmp_path, capsys,
                                                           monkeypatch, extra):
        monkeypatch.delenv("EXTRA_HEADERS", raising=False)
        env_file = tmp_path / ".env"
        env_file.write_text(f"EXTRA_HEADERS={extra}\n", encoding="utf-8")
        assert run_cli(["serve", fixture_path("petstore.json"), "--env", env_file]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: EXTRA_HEADERS entry") and "ja" not in line

    @pytest.mark.parametrize("command", ["lint", "generate"])
    @pytest.mark.parametrize(
        "text",
        ["{not json", '{"x": 1}', "[1]", '{"(": {}}',
         '{".*": {"required_headers": "x"}}', '{".*": {"required_headers": {"a": 1}}}',
         '{".*": {"base_url": 1}}', '{".*": {"token_url": ["x"]}}',
         '{".*": {"string_path_params": "id"}}', '{".*": {"string_path_params": [1]}}'],
        ids=["not-json", "value-not-an-object", "not-an-object", "bad-title-regex",
             "headers-not-an-object", "header-not-a-string", "base-url-not-a-string",
             "token-url-not-a-string", "params-not-a-list", "param-not-a-string"],
    )
    def test_malformed_rules_file_is_parse_error(self, tmp_path, capsys, command, text):
        rules = tmp_path / "rules.json"
        rules.write_text(text, encoding="utf-8")
        args = [command, fixture_path("petstore.json"), "--rules", rules]
        if command == "generate":
            args += ["--out", tmp_path / "out"]
        assert run_cli(args) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(rules) in line


    @pytest.mark.parametrize("fix", [False, True], ids=["plain", "fix"])
    def test_undeclared_scheme_is_class_a(self, tmp_path, capsys, fix):
        spec = tmp_path / "ghost.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.0", "info": {"title": "Ghost", "version": "1"},
            "servers": [{"url": "https://ghost.example"}],
            "paths": {"/x": {"get": {"security": [{"ghost": []}]}}},
        }), encoding="utf-8")
        args = ["generate", spec, "--out", tmp_path / "out"] + (["--fix"] if fix else [])
        assert run_cli(args) == 2
        assert "class A: operations require scheme 'ghost'" in capsys.readouterr().err


    @pytest.mark.parametrize("extra", [
        {},
        {"definitions": {"Item": {"type": "object"}}},
        {"securityDefinitions": {"k": {"type": "apiKey", "in": "header", "name": "X-K"}}},
    ], ids=["bare", "definitions", "security-definitions"])
    def test_2_0_components_not_a_mapping_is_class_a(self, tmp_path, capsys, extra):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "swagger": "2.0", "info": {"title": "T", "version": "1"},
            "host": "t.example", "components": [1], "paths": {"/a": {"get": _op()}},
            **extra,
        }), encoding="utf-8")
        assert run_cli(["generate", spec, "--out", tmp_path / "out"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: class A: #/components is not a mapping"
        assert run_cli(["lint", spec]) == 4
        [finding] = json.loads(capsys.readouterr().out)["findings"]
        assert (finding["class"], finding["location"], finding["patchable"]) == (
            "A", "#/components", False)

    @pytest.mark.parametrize("servers", [
        {"url": "https://a.example"},
        3,
        [{"url": "https://{region}.example", "variables": ["region"]}],
    ], ids=["mapping", "int", "variables-not-a-mapping"])
    def test_malformed_server_list_is_class_b(self, tmp_path, capsys, servers):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.3", "info": {"title": "T", "version": "1"},
            "servers": servers, "paths": {"/a": {"get": _op()}},
        }, indent=2), encoding="utf-8")
        assert run_cli(["generate", spec, "--out", tmp_path / "out"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: class B: ")
        assert run_cli(["lint", spec, "--fix", "--out", tmp_path / "fixed"]) == 0
        assert json.loads(capsys.readouterr().out)["findings_by_class"] == {"B": 1}
        fixed = tmp_path / "fixed" / "spec.fixed.json"
        assert run_cli(["generate", fixed, "--out", tmp_path / "out"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["base_url"] == "https://api.example.com"

    @pytest.mark.parametrize("command", ["lint", "generate"])
    def test_2_0_schemes_without_http_are_replaced(self, tmp_path, capsys, command):
        """`schemes: [ws]` gives a `ws://` base URL. The class B repair
        replaces `schemes` and keeps the valid `host`."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "swagger": "2.0", "info": {"title": "T", "version": "1"},
            "host": "a.example", "schemes": ["ws"], "paths": {"/a": {"get": _op()}},
        }), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli([command, spec, "--fix", "--out", out]) == 0
        if command == "lint":
            assert json.loads(capsys.readouterr().out)["findings_by_class"] == {"B": 1}
        fixed = json.loads((out / "spec.fixed.json").read_text(encoding="utf-8"))
        assert (fixed["schemes"], fixed["host"]) == (["https"], "a.example")
        if command == "generate":
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["base_url"] == "https://a.example"


MALFORMED_SHAPES = {
    "info-not-a-mapping": {"info": ["T"], "paths": {"/a": {"get": _op()}}},
    "request-body-content-not-a-mapping": {"paths": {"/a": {"post": _op(
        requestBody={"content": [1]})}}},
    "parameter-name-not-a-string": {
        "components": {"securitySchemes": {"k": {"type": "apiKey", "in": "header",
                                                 "name": "X-K"}}},
        "paths": {"/a": {"get": _op(parameters=[
            {"name": ["q"], "in": "query", "schema": {"type": "string"}}])}}},
    "2.0-form-data-without-name": {"swagger": "2.0", "host": "t.example",
                                   "paths": {"/a": {"post": _op(parameters=[
                                       {"in": "formData", "type": "string"}])}}},
    "2.0-form-data-name-a-list": {"swagger": "2.0", "host": "t.example",
                                  "paths": {"/a": {"post": _op(parameters=[
                                      {"name": ["x"], "in": "formData",
                                       "type": "string"}])}}},
    "2.0-form-data-name-a-mapping": {"swagger": "2.0", "host": "t.example",
                                     "paths": {"/a": {"post": _op(parameters=[
                                         {"name": {"a": 1}, "in": "formData",
                                          "type": "string"}])}}},
    "media-type-not-a-mapping": {"paths": {"/a": {"post": _op(
        requestBody={"content": {"application/json": [1]}})}}},
    "parameter-schema-not-a-mapping": {"paths": {"/a": {"get": _op(parameters=[
        {"name": "q", "in": "query", "schema": 1}])}}},
    "security-not-a-list": {"security": 1, "paths": {"/a": {"get": _op()}}},
    "summary-a-list": {"paths": {"/a": {"get": _op(summary=["s"], deprecated=True)}}},
    "path-parameter-name-a-list": {"paths": {"/a/{id}": {
        "parameters": [{"name": ["id"], "in": "path"}], "get": _op()}}},
    "2.0-consumes-not-a-list": {"swagger": "2.0", "host": "t.example", "consumes": 1,
                                "paths": {"/a": {"post": _op(parameters=[
                                    {"name": "b", "in": "body", "schema": {}}])}}},
    "2.0-produces-not-a-list": {"swagger": "2.0", "host": "t.example", "produces": 1,
                                "paths": {"/a": {"get": _op(responses={
                                    "200": {"description": "ok", "schema": {}}})}}},
    "2.0-schemes-not-a-list": {"swagger": "2.0", "host": "t.example", "schemes": 1,
                               "paths": {"/a": {"get": _op()}}},
    "scopes-not-a-mapping": {
        "components": {"securitySchemes": {"o": {"type": "oauth2", "flows": {
            "authorizationCode": {"authorizationUrl": "https://t.example/authorize",
                                  "tokenUrl": "https://t.example/token",
                                  "scopes": [1]}}}}},
        "paths": {"/a": {"get": _op()}}},
    "scheme-a-list": {
        "components": {"securitySchemes": {"k": [1]}},
        "paths": {"/a": {"get": _op(security=[{"k": []}]),
                         "post": _op(operationId="postA")}}},
    "authorization-url-not-a-string": {
        "components": {"securitySchemes": {"o": {"type": "oauth2", "flows": {
            "authorizationCode": {"authorizationUrl": [1], "scopes": {}}}}}},
        "paths": {"/a": {"get": _op()}}},
    "2.0-oauth2-flow-a-list": {
        "swagger": "2.0", "host": "t.example",
        "securityDefinitions": {"o": {"type": "oauth2", "flow": ["accessCode"],
                                      "tokenUrl": "https://t.example/token"}},
        "paths": {"/a": {"get": _op()}}},
    "2.0-host-a-list": {"swagger": "2.0", "host": ["a.example"],
                        "paths": {"/a": {"get": _op()}}},
    "title-a-list": {"info": {"title": ["T"], "version": "1"},
                     "paths": {"/a": {"get": _op()}}},
    "summary-a-mapping": {"paths": {"/a": {"get": _op(summary={"a": 1})}}},
}

# Shapes that leave a field compile cannot go on without unusable: generate
# exits 2 with this line, and lint exits 4.
MALFORMED_REQUIRED = {
    "scheme-a-list": "error: class A: security scheme 'k' is not a mapping",
    "authorization-url-not-a-string":
        "error: class A: oauth2 scheme 'o': authorizationCode flow has no tokenUrl",
    "2.0-oauth2-flow-a-list": "error: class A: oauth2 scheme 'o' declares no usable "
        "flow (flows present: implicit; need authorizationCode or clientCredentials "
        "with a tokenUrl)",
    "2.0-host-a-list": "error: class B: #/host is not a string",
}

# What the manifest holds where a text field has the wrong type: the field
# reads as absent.
MALFORMED_TEXT = {
    "title-a-list": {"api_title": "API"},
    "summary-a-mapping": {"description": "GET /a"},
    "summary-a-list": {"description": "[DEPRECATED] GET /a"},
}


@pytest.mark.parametrize("case", list(MALFORMED_SHAPES))
def test_malformed_shape_compiles_without_traceback(tmp_path, case):
    """Each shape is read as absent, so the spec compiles and lints clean
    (exit 0) instead of ending in a traceback. Where that leaves a field
    compile cannot go on without unusable, generate exits 2 naming it and
    lint exits 4."""
    tree = {"openapi": "3.0.3", "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://t.example"}]}
    tree.update(MALFORMED_SHAPES[case])
    if "swagger" in tree:
        del tree["openapi"], tree["servers"]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tree), encoding="utf-8")
    procs = {}
    for command in (["generate", str(spec), "--out", str(tmp_path / "out")],
                    ["lint", str(spec)]):
        proc = subprocess.run([sys.executable, "-m", "automcp", *command],
                              capture_output=True, text=True, timeout=60)
        assert "Traceback" not in proc.stderr, proc.stderr
        procs[command[0]] = proc
    error = MALFORMED_REQUIRED.get(case)
    if error:
        assert procs["generate"].returncode == 2
        assert procs["generate"].stderr == f"{error}\n"
        assert procs["lint"].returncode == 4
        return
    assert procs["generate"].returncode == 0, procs["generate"].stderr
    assert procs["lint"].returncode == 0, procs["lint"].stdout
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    read = {"api_title": manifest["api_title"],
            "description": manifest["tools"][0]["description"]}
    assert all(isinstance(value, str) for value in read.values())
    expected = MALFORMED_TEXT.get(case, {})
    assert {key: read[key] for key in expected} == expected


# YAML mapping keys that are not strings, where a key names something:
# the YAML reader writes each as its JSON text, so the spec compiles and
# lints clean.
NON_STRING_KEYS = {
    "path": """
openapi: 3.0.3
info: {title: T, version: "1"}
servers: [{url: "https://t.example"}]
paths:
  200:
    get: {responses: {200: {description: ok}}}
  /a/{id}:
    get: {responses: {200: {description: ok}}}
""",
    "security-scheme": """
openapi: 3.0.3
info: {title: T, version: "1"}
servers: [{url: "https://t.example"}]
security: [{1: []}]
components:
  securitySchemes:
    1: {type: apiKey, in: header, name: X-Key}
paths:
  /a:
    get: {responses: {200: {description: ok}}}
""",
}


@pytest.mark.parametrize("case", list(NON_STRING_KEYS))
def test_non_string_key_reads_as_its_text(tmp_path, case):
    spec = tmp_path / "spec.yaml"
    spec.write_text(NON_STRING_KEYS[case], encoding="utf-8")
    out = tmp_path / "out"
    for command in (["generate", spec, "--out", out], ["lint", spec],
                    ["lint", spec, "--fix", "--out", tmp_path / "fixed"]):
        proc = subprocess.run([sys.executable, "-m", "automcp", *map(str, command)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    if case == "path":
        descriptions = [t["description"] for t in manifest["tools"]]
        assert descriptions == ["GET 200", "GET /a/{id}"]
    else:
        assert "T_API_1=" in (out / ".env").read_text(encoding="utf-8").splitlines()


class TestLintFixSplicesTheSource:
    """The repaired copy is the original text with the repair spliced in:
    it differs from the original in exactly the lines reported."""

    @pytest.mark.parametrize(
        "name", ["class_a.yaml", "class_b.yaml", "class_d.yaml", "class_e.json"]
    )
    def test_written_copy_differs_by_the_reported_lines(self, tmp_path, capsys, name):
        code = run_cli(["lint", DEFECTS / name, "--fix", "--out", tmp_path,
                        "--rules", fixture_path("vendor_rules.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        original = (DEFECTS / name).read_text(encoding="utf-8")
        written = Path(report["repaired_spec"]).read_text(encoding="utf-8")
        changed = changed_line_count(original, written)
        assert changed == report["total_loc_changed"]
        assert sum(report["loc_changed_by_class"].values()) == changed
        assert report["whole_document_render"] is False
        if name == "class_e.json":
            assert changed <= 2 * report["findings_by_class"]["E"]
        else:
            assert changed == 1
        diff = difflib.unified_diff(original.splitlines(), written.splitlines(),
                                    fromfile=name, tofile=f"{name} (patched)", lineterm="")
        written_diff = Path(report["diff_file"]).read_text(encoding="utf-8")
        assert written_diff == "\n".join(diff) + "\n"

    def test_repair_under_a_non_string_key_is_spliced(self, tmp_path, capsys):
        """A repair under YAML's `200:` path key is placed at that node:
        one changed line, and the author's flow mapping survives."""
        item = ("        - {name: user_id, in: path, required: true, "
                "schema: {type: %s}, example: \"u-1\"}\n")
        head = (
            "openapi: 3.0.0\n"
            "info: {title: T, version: '1'}\n"
            "servers: [{url: 'https://t.example'}]\n"
            "paths:\n"
            "  200:\n"
            "    get:\n"
            "      parameters:\n"
        )
        tail = "      responses: {'200': {description: ok}}\n"
        spec = tmp_path / "key200.yaml"
        spec.write_text(head + item % "integer" + tail, encoding="utf-8")
        assert run_cli(["lint", spec, "--fix", "--out", tmp_path / "out"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["whole_document_render"] is False
        assert report["total_loc_changed"] == 1
        written = Path(report["repaired_spec"]).read_text(encoding="utf-8")
        assert written == head + item % "string" + tail

    def test_repair_of_an_anchored_value_keeps_its_anchor(self, tmp_path, capsys):
        """A repair that replaces an anchored value moves its old text,
        `&u` included, to the first alias, so the later alias still
        resolves and the author's flow style survives."""
        spec = tmp_path / "anchor.yaml"
        spec.write_text(
            "openapi: 3.0.3\ninfo: {title: Anchor, version: '1'}\n"
            "servers: [{url: &u '{{root}}'}]\nx-copy: *u\nx-again: *u\n"
            "paths:\n  /notes:\n    get:\n"
            "      responses: {'200': {description: ok}}\n", encoding="utf-8")
        assert run_cli(["lint", spec, "--fix", "--out", tmp_path / "out"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["whole_document_render"] is False
        assert report["total_loc_changed"] <= 2
        written = Path(report["repaired_spec"]).read_text(encoding="utf-8")
        assert "x-copy: &u '{{root}}'\n" in written
        patched = fix_loop(load_document(spec)).document.tree
        assert load_document(report["repaired_spec"]).tree == patched
        assert patched["x-copy"] == patched["x-again"] == "{{root}}"

    def test_comment_survives(self, tmp_path, capsys):
        run_cli(["lint", DEFECTS / "class_a.yaml", "--fix", "--out", tmp_path])
        written = (tmp_path / "class_a.fixed.yaml").read_text(encoding="utf-8")
        comment = "        # seeded class A defect: this flow declares no tokenUrl\n"
        assert comment in written


class TestRulesOnlyWhereTheRepairReadsThem:
    @pytest.mark.parametrize("command", ["serve", "sample"])
    def test_flag_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            run_cli([command, fixture_path("petstore.json"),
                     "--rules", fixture_path("vendor_rules.json")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --rules" in capsys.readouterr().err

    def test_env_ignored(self, tmp_path, capsys, monkeypatch):
        rules = tmp_path / "rules.json"
        rules.write_text('{"x": 1}', encoding="utf-8")
        monkeypatch.setenv("AUTOMCP_RULES", str(rules))
        assert run_cli(["sample", fixture_path("petstore.json")]) == 0


def deep_spec_text(case: str) -> str:
    """`parse`: a 3,000-deep array the JSON parser cannot follow.
    `compile`: a 700-level schema that parses but overflows the tree
    walks of compile. It is flow-style YAML (which `load_document` reads
    whatever the file is named), because the flatten and copy walks
    follow any tree the JSON parser can build, while the YAML event walk
    builds trees up to 2,000 levels deep."""
    spec = {
        "openapi": "3.0.0",
        "info": {"title": "Deep", "version": "1"},
        "servers": [{"url": "https://deep.example"}],
        "paths": {"/a": {"post": {"responses": {"200": {"description": "ok"}}}}},
    }
    if case == "parse":
        return json.dumps(spec)[:-1] + ', "x-deep": ' + "[" * 3000 + "]" * 3000 + "}"
    schema = "{type: string}"
    for _ in range(700):
        schema = "{type: object, properties: {a: " + schema + "}}"
    # the JSON text up to the post operation's responses, then its request body
    return json.dumps(spec)[:-4] + ", requestBody: {content: {application/json: {schema: " \
        + schema + "}" * 7


@pytest.mark.parametrize("case", ["parse", "compile"])
class TestDeepNesting:
    def test_generate_exits_2_without_traceback(self, tmp_path, case):
        spec = tmp_path / "deep.json"
        spec.write_text(deep_spec_text(case), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "automcp", "generate", str(spec),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_compile_file_raises_nesting_error(self, tmp_path, case):
        spec = tmp_path / "deep.json"
        spec.write_text(deep_spec_text(case), encoding="utf-8")
        with pytest.raises(NestingError):
            compile_file(spec)


# Line breaks YAML knows besides LF; text read from a file keeps these.
YAML_LINE_BREAKS = {"nel": "\x85", "ls": "\u2028", "ps": "\u2029"}


def deep_yaml_text(case: str, depth: int = 200_000) -> str:
    """A valid spec whose `x-deep` value nests `depth` levels, far past
    what libyaml's recursive composer survives."""
    head = ('openapi: "3.0.0"\ninfo: {title: Deep, version: "1"}\n'
            'servers: [{url: "https://deep.example"}]\npaths: {}\n')
    if case == "flow-sequence":
        return head + "x-deep: " + "[" * depth + "]" * depth + "\n"
    if case == "flow-mapping":
        return head + "x-deep: " + "{a: " * depth + "b" + "}" * depth + "\n"
    if case == "bom-compact-block-sequence":  # the whole document is the list
        return "\ufeff" + "- " * depth + "x\n"
    if case.endswith("-compact-block-sequence"):
        newline = YAML_LINE_BREAKS[case.split("-")[0]]
        return head + "x-deep:" + newline + "  " + "- " * depth + "x\n"
    return head + "x-deep:\n  " + "- " * depth + "x\n"


@pytest.mark.parametrize("case", [
    "flow-sequence", "flow-mapping", "compact-block-sequence",
    "bom-compact-block-sequence", "nel-compact-block-sequence",
    "ls-compact-block-sequence", "ps-compact-block-sequence",
])
def test_deep_yaml_exits_2_not_a_signal(tmp_path, case):
    spec = tmp_path / "deep.yaml"
    spec.write_text(deep_yaml_text(case), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "automcp", "generate", str(spec),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.returncode
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


class TestServeSubprocess:
    def spawn(self, spec_path, env_file):
        return subprocess.Popen(
            [sys.executable, "-m", "automcp", "serve", str(spec_path),
             "--env", str(env_file)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def test_handshake_and_clean_eof(self, tmp_path):
        env_file = tmp_path / ".env"
        env_file.write_text("", encoding="utf-8")
        proc = self.spawn(fixture_path("petstore.json"), env_file)
        requests_text = "\n".join(
            [
                json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize",
                            "params": {"protocolVersion": "2024-11-05"}}),
                json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/list"}),
            ]
        ) + "\n"
        out, err = proc.communicate(requests_text, timeout=30)
        assert proc.returncode == 0
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert len(lines) == 2
        assert len(lines[1]["result"]["tools"]) == 19

    def test_missing_secrets_yield_tool_errors_not_crashes(self, tmp_path):
        env_file = tmp_path / ".env"
        env_file.write_text("", encoding="utf-8")
        proc = self.spawn(fixture_path("petstore.json"), env_file)
        call = json.dumps(
            {"jsonrpc": "2.0", "id": 5, "method": "tools/call",
             "params": {"name": "getinventory", "arguments": {}}}
        ) + "\n"
        out, err = proc.communicate(call, timeout=30)
        assert proc.returncode == 0
        response = json.loads(out.splitlines()[0])
        assert response["result"]["isError"] is True
        assert "MissingCredential" in response["result"]["content"][0]["text"]

    def test_deeply_nested_id_is_answered_with_null(self, tmp_path):
        # json.loads accepts an id nested 985 deep, which no reply can echo
        env_file = tmp_path / ".env"
        env_file.write_text("", encoding="utf-8")
        proc = self.spawn(fixture_path("allauth.yaml"), env_file)
        deep = "[" * 985 + "]" * 985
        lines = ['{"jsonrpc": "2.0", "id": %s, "method": "%s", "params": '
                 '{"name": "listgadgets", "arguments": {}}}' % (deep, method)
                 for method in ("ping", "tools/list", "tools/call")]
        lines.append('{"jsonrpc": "2.0", "id": 2, "method": "ping"}')
        out, err = proc.communicate("\n".join(lines) + "\n", timeout=30)
        assert proc.returncode == 0, err
        invalid = {"jsonrpc": "2.0", "id": None, "error": {
            "code": -32602, "message": "not a JSON-RPC request"}}
        assert [json.loads(line) for line in out.splitlines()] == [
            invalid, invalid, invalid, {"jsonrpc": "2.0", "id": 2, "result": {}}]

    def test_stdout_carries_only_json(self, tmp_path):
        env_file = tmp_path / ".env"
        env_file.write_text("EXTRA_HEADERS=\n", encoding="utf-8")
        proc = self.spawn(fixture_path("allauth.yaml"), env_file)
        out, err = proc.communicate(
            json.dumps({"jsonrpc": "2.0", "id": 1, "method": "tools/list"}) + "\n",
            timeout=30,
        )
        assert proc.returncode == 0
        for line in out.splitlines():
            json.loads(line)


def run_module(args: list, env_vars: dict[str, str] | None = None, stdin: str = ""):
    """`python -m automcp ARGS` with `env_vars` added to the environment."""
    env = {**os.environ, **(env_vars or {})}
    return subprocess.run([sys.executable, "-m", "automcp", *map(str, args)],
                          input=stdin, capture_output=True, text=True, env=env,
                          timeout=60)


class TestFlagsFromTheEnvironment:
    """An `AUTOMCP_*` value is converted by its flag's `type`: a bad one is
    a usage error (exit 2) naming the flag, for the command that has it."""

    @pytest.mark.parametrize("command, name, flag", [
        ("generate", "AUTOMCP_PORT", "--port"),
        ("serve", "AUTOMCP_TIMEOUT_SECONDS", "--timeout"),
        ("sample", "AUTOMCP_THRESHOLD", "--threshold"),
    ])
    def test_bad_value_is_a_usage_error(self, tmp_path, command, name, flag):
        args = [command, fixture_path("petstore.json")]
        if command == "generate":
            args += ["--out", tmp_path / "out"]
        done = run_module(args, {name: "abc"})
        assert done.returncode == 2
        assert f"error: argument {flag}: invalid" in done.stderr
        assert "Traceback" not in done.stderr

    def test_bad_value_of_another_commands_flag_is_ignored(self):
        done = run_module(["sample", fixture_path("petstore.json")],
                          {"AUTOMCP_TIMEOUT_SECONDS": "x", "AUTOMCP_PORT": "x"})
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["total_selected"] == 19

    def test_values_are_converted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AUTOMCP_PORT", "9999")
        spec = tmp_path / "oauth.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.3", "info": {"title": "O", "version": "1"},
            "servers": [{"url": "https://o.example"}],
            "components": {"securitySchemes": {"o": {"type": "oauth2", "flows": {
                "authorizationCode": {"authorizationUrl": "https://o.example/a",
                                      "tokenUrl": "https://o.example/t",
                                      "scopes": {}}}}}},
            "security": [{"o": []}],
            "paths": {"/a": {"get": {"responses": {"200": {"description": "ok"}}}}},
        }), encoding="utf-8")
        assert run_cli(["generate", spec, "--out", tmp_path / "out"]) == 0
        oauth = json.loads((tmp_path / "out" / "oauth_config.json").read_text())
        assert oauth["redirectPort"] == 9999


# `example: 2020-01-01` reads as the text "2020-01-01", not as a date
DATE_SPEC = """\
openapi: 3.0.3
info: {title: Dates, version: "1"}
servers: [{url: "https://dates.example"}]
paths:
  /days/{day}:
    get:
      operationId: getDay
      parameters:
        - name: day
          in: path
          required: true
          schema: {type: string}
          example: 2020-01-01
      responses: {"200": {description: ok}}
"""


class TestPlainYamlDates:
    @pytest.fixture()
    def spec(self, tmp_path):
        spec = tmp_path / "dates.yaml"
        spec.write_text(DATE_SPEC, encoding="utf-8")
        return spec

    def test_generate_writes_the_date_as_text(self, tmp_path, spec):
        done = run_module(["generate", spec, "--out", tmp_path / "out", "--emit-stub"])
        assert done.returncode == 0, done.stderr
        for name in ("manifest.json", "stub.json"):
            text = (tmp_path / "out" / name).read_text(encoding="utf-8")
            assert '"example": "2020-01-01"' in text

    def test_serve_lists_the_tool(self, tmp_path, spec):
        env_file = tmp_path / ".env"
        env_file.write_text("", encoding="utf-8")
        done = run_module(["serve", spec, "--env", env_file], stdin=json.dumps(
            {"jsonrpc": "2.0", "id": 1, "method": "tools/list"}) + "\n")
        assert done.returncode == 0, done.stderr
        [tool] = json.loads(done.stdout)["result"]["tools"]
        assert tool["inputSchema"]["properties"]["day"]["example"] == "2020-01-01"


# an explicit tag whose value JSON cannot hold reads as the node it tags
TAGGED_EXAMPLES = {
    "timestamp": ("!!timestamp 2020-01-01", "2020-01-01"),
    "binary": ("!!binary aGVsbG8=", "aGVsbG8="),
    "set": ("!!set {a, b}", {"a": None, "b": None}),
    "omap": ("!!omap [a: 1, b: 2]", [{"a": 1}, {"b": 2}]),
    "pairs": ("!!pairs [a: 1, a: 2]", [{"a": 1}, {"a": 2}]),
}


class TestExplicitYamlTags:
    @pytest.mark.parametrize("tag", TAGGED_EXAMPLES)
    def test_generate_writes_the_tagged_example_as_json(self, tmp_path, tag):
        written, value = TAGGED_EXAMPLES[tag]
        spec = tmp_path / "tagged.yaml"
        spec.write_text(DATE_SPEC.replace("example: 2020-01-01", "example: " + written),
                        encoding="utf-8")
        done = run_module(["generate", spec, "--out", tmp_path / "out", "--emit-stub"])
        assert done.returncode == 0, done.stderr
        for name in ("manifest.json", "stub.json"):
            manifest = json.loads((tmp_path / "out" / name).read_text(encoding="utf-8"))
            [tool] = manifest["tools"]
            assert tool["inputSchema"]["properties"]["day"]["example"] == value


class TestCredentialItsPlaceCannotCarry:
    def test_non_latin1_bearer_token_is_a_tool_error(self, tmp_path):
        """The variable is named, the value never shown, and no request
        is sent; nothing is logged."""
        spec = tmp_path / "bearer.json"
        tree = {
            "openapi": "3.0.3", "info": {"title": "Bear", "version": "1"},
            "servers": [{"url": "https://bear.example"}],
            "components": {"securitySchemes": {"b": {"type": "http", "scheme": "bearer"}}},
            "security": [{"b": []}],
            "paths": {"/a": {"get": {"operationId": "getA",
                                     "responses": {"200": {"description": "ok"}}}}},
        }
        spec.write_text(json.dumps(tree), encoding="utf-8")
        compiled = compile_file(spec)
        [binding] = compiled.bindings
        env_file = tmp_path / ".env"
        env_file.write_text(f"{binding.env_var}=日本\n", encoding="utf-8")
        call = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "tools/call",
                           "params": {"name": "geta", "arguments": {}}}) + "\n"
        with run_mock_upstream(compiled.manifest) as mock:
            tree["servers"] = [{"url": mock.base_url}]
            spec.write_text(json.dumps(tree), encoding="utf-8")
            done = run_module(["serve", spec, "--env", env_file], stdin=call)
            assert mock.records == []
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)["result"]
        assert result["isError"] is True
        assert result["content"][0]["text"] == (
            f"UnsendableCredential: credential {binding.env_var} cannot be sent: "
            "its value is not latin-1 text")
        for stream in (done.stdout, done.stderr):
            assert "日" not in stream and "Traceback" not in stream
        assert done.stderr == ""
