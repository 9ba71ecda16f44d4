"""Linting, minimal patches, and the fix loop over the defect corpus."""

from __future__ import annotations

import copy
import difflib
import json
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from automcp import compiler, doctor, yamltree
from automcp.compiler import compile_manifest
from automcp.doctor import (
    PatchEdit,
    _apply_edit,
    apply_patch,
    fix_loop,
    lint,
    load_vendor_rules,
    render_document,
)
from automcp.errors import NonConvergence, ParseError, PointerError, SchemeError
from automcp.ingest import RawDocument, load_document, resolve_base_url
from automcp.refs import escape_token, pointer_lookup
from automcp.security import extract_security
from automcp.splice import SourceText, Unplaceable, unified_diff
from conftest import DEFECTS, build_contract, changed_line_count, fixture_path


@pytest.fixture(scope="module")
def rules():
    return load_vendor_rules(fixture_path("vendor_rules.json"))


def lint_file(path: Path, rules=None):
    raw = load_document(path)
    return lint(build_contract(raw), raw, rules), raw


def mem_doc(tree: dict, fmt="json", dialect="openapi_3_x") -> RawDocument:
    return RawDocument(Path(f"mem.{fmt}"), fmt, dialect, tree)


class TestLintDetection:
    def test_class_a_missing_token_url(self, rules):
        findings, _ = lint_file(DEFECTS / "class_a.yaml", rules)
        assert [f.lint_class for f in findings] == ["A"]
        finding = findings[0]
        assert "tokenUrl" in finding.message
        assert finding.edits[0].pointer.endswith(
            "/flows/authorizationCode/tokenUrl"
        )
        # derived from the authorize URL next door
        assert finding.edits[0].value == (
            "https://identity.bookings.example/connect/token"
        )

    def test_class_a_undeclared_scheme_reference(self):
        tree = {
            "openapi": "3.0.0",
            "info": {"title": "Ghost", "version": "1"},
            "servers": [{"url": "https://ghost.example"}],
            "security": [{"main_auth": []}],
            "paths": {"/a": {"get": {"responses": {"200": {"description": "ok"}}}}},
        }
        raw = mem_doc(tree)
        findings = lint(build_contract(raw), raw)
        assert [f.lint_class for f in findings] == ["A"]
        assert findings[0].location == "#/components/securitySchemes"
        # nothing says how the credential is sent, so nothing is invented
        assert findings[0].edits == []
        report = fix_loop(raw)
        assert report.changed is False
        assert report.residual_advisories == findings

    def test_class_a_apikey_case_typo(self):
        tree = {
            "openapi": "3.0.0",
            "info": {"title": "Typo", "version": "1"},
            "servers": [{"url": "https://typo.example"}],
            "components": {
                "securitySchemes": {
                    "k": {"type": "apikey", "in": "header", "name": "X-K"}
                }
            },
            "paths": {"/a": {"get": {"responses": {"200": {"description": "ok"}}}}},
        }
        raw = mem_doc(tree)
        findings = lint(build_contract(raw), raw)
        assert findings[0].lint_class == "A"
        assert findings[0].edits == [
            PatchEdit("#/components/securitySchemes/k/type", "apiKey")
        ]

    def test_class_b_templated_url(self, rules):
        findings, _ = lint_file(DEFECTS / "class_b.yaml", rules)
        assert [f.lint_class for f in findings] == ["B"]
        edit = findings[0].edits[0]
        assert edit.pointer == "#/servers/0/url"
        assert edit.value == "https://api.workforce.example"  # from vendor rules

    def test_class_b_fallback_without_rules(self):
        findings, _ = lint_file(DEFECTS / "class_b.yaml")
        assert findings[0].edits[0].value == "https://api.example.com"

    def test_class_c_advisory_without_patch(self, rules):
        findings, _ = lint_file(DEFECTS / "class_c.yaml", rules)
        assert [f.lint_class for f in findings] == ["C"]
        assert findings[0].edits == []
        assert findings[0].suggested_headers == {"Sync-Version": "2022-06-28"}
        assert "EXTRA_HEADERS" in findings[0].message

    def test_class_d_integer_id_with_string_example(self, rules):
        findings, _ = lint_file(DEFECTS / "class_d.yaml", rules)
        assert [f.lint_class for f in findings] == ["D"]
        edit = findings[0].edits[0]
        assert edit.value == "string"
        assert edit.pointer.endswith("/schema/type")

    def test_class_d_reads_the_type_compile_reads(self):
        """A parameter that has a `schema`, even an empty one, is typed by
        it alone, as compile types it: a `type` beside it is not read."""
        param = {"name": "user_id", "in": "path", "required": True, "type": "integer",
                 "example": "abc", "schema": {}}
        raw = mem_doc({"openapi": "3.0.3", "info": {"title": "U", "version": "1"},
                       "servers": [{"url": "https://u.example"}],
                       "paths": {"/users/{user_id}": {"get": {
                           "parameters": [param],
                           "responses": {"200": {"description": "ok"}}}}}})
        assert lint(build_contract(raw), raw) == []
        assert fix_loop(raw).changed is False

    def test_class_d_ignores_integer_ids_without_string_examples(self, petstore):
        findings = lint(petstore.contract, petstore.raw)
        assert [f for f in findings if f.lint_class == "D"] == []

    def test_class_e_nineteen_of_twenty_four(self, rules):
        findings, _ = lint_file(DEFECTS / "class_e.json", rules)
        assert [f.lint_class for f in findings] == ["E"] * 19

    def test_class_e_patch_is_query_parameter_entry(self, rules):
        findings, _ = lint_file(DEFECTS / "class_e.json", rules)
        edit = findings[0].edits[0]
        assert edit.value == [
            {"name": "api_key", "in": "query", "required": True,
             "schema": {"type": "string"}}
        ] or edit.value == {
            "name": "api_key", "in": "query", "required": True,
            "schema": {"type": "string"},
        }

    def test_class_e_stanza_copied_for_header_schemes(self):
        tree = {
            "openapi": "3.0.0",
            "info": {"title": "HdrGap", "version": "1"},
            "servers": [{"url": "https://hdr.example"}],
            "components": {
                "securitySchemes": {
                    "hk": {"type": "apiKey", "in": "header", "name": "X-K"}
                }
            },
            "paths": {
                "/things/a": {
                    "get": {"security": [{"hk": []}],
                            "responses": {"200": {"description": "ok"}}}
                },
                "/things/b": {
                    "get": {"responses": {"200": {"description": "ok"}}}
                },
            },
        }
        raw = mem_doc(tree)
        findings = lint(build_contract(raw), raw)
        e_findings = [f for f in findings if f.lint_class == "E"]
        assert len(e_findings) == 1
        edit = e_findings[0].edits[0]
        assert edit.pointer.endswith("/security")
        assert edit.value == [{"hk": []}]

    def test_explicitly_public_op_not_flagged(self):
        tree = {
            "openapi": "3.0.0",
            "info": {"title": "Public", "version": "1"},
            "servers": [{"url": "https://p.example"}],
            "components": {
                "securitySchemes": {
                    "hk": {"type": "apiKey", "in": "header", "name": "X-K"}
                }
            },
            "paths": {
                "/things/a": {
                    "get": {"security": [{"hk": []}],
                            "responses": {"200": {"description": "ok"}}}
                },
                "/things/open": {
                    "get": {"security": [],
                            "responses": {"200": {"description": "ok"}}}
                },
            },
        }
        raw = mem_doc(tree)
        findings = lint(build_contract(raw), raw)
        assert [f for f in findings if f.lint_class == "E"] == []

    def test_class_e_reads_a_ref_credential_parameter(self):
        """An operation whose only parameter is a `$ref` to the api-key
        slot compiles with that scheme, so lint has nothing to add: a
        second `api_key` parameter would duplicate it."""
        tree = _sibling_tree(
            {"k": {"type": "apiKey", "in": "query", "name": "api_key"}},
            {"parameters": [{"$ref": "#/components/parameters/ApiKey"}]},
            parameters={"ApiKey": {"name": "api_key", "in": "query",
                                   "schema": {"type": "string"}}})
        raw = mem_doc(tree)
        contract = build_contract(raw)
        manifest = compile_manifest(contract, extract_security(contract), "https://x")
        assert [t.endpoint.security for t in manifest.tools] == [[{"k": []}]] * 2
        assert lint(contract, raw) == []
        assert fix_loop(raw).changed is False

    def test_class_e_reads_a_header_slot_in_any_case(self):
        tree = _sibling_tree(
            {"k": {"type": "apiKey", "in": "header", "name": "X-API-Key"}},
            {"parameters": [{"name": "x-api-key", "in": "header"}]})
        raw = mem_doc(tree)
        assert lint(build_contract(raw), raw) == []

    def test_an_undeclared_scheme_seeds_no_class_e_repair(self):
        """A sibling's undeclared scheme is class A; copying it onto
        another operation would spread the defect."""
        tree = _sibling_tree(
            {"k": {"type": "http", "scheme": "bearer"}}, {}, first=[{"nope": []}])
        raw = mem_doc(tree)
        findings = lint(build_contract(raw), raw)
        assert [(f.lint_class, f.edits) for f in findings] == [("A", [])]
        assert "'nope'" in findings[0].message

    def test_class_e_without_a_raw_operation_reports_no_edit(self):
        """A `$ref`d path item has no operation in the raw document to edit."""
        tree = _sibling_tree({"k": {"type": "http", "scheme": "bearer"}}, {})
        tree["components"]["pathItems"] = {"B": tree["paths"]["/things/b"]}
        tree["paths"]["/things/b"] = {"$ref": "#/components/pathItems/B"}
        raw = mem_doc(tree)
        [finding] = lint(build_contract(raw), raw)
        assert (finding.lint_class, finding.location, finding.edits) == (
            "E", "#/paths/~1things~1b/get", [])

    @pytest.mark.parametrize("dialect", ["openapi_3_x", "openapi_2_0"])
    def test_class_d_checks_each_reusable_parameter_once(self, tmp_path, dialect):
        """Real specs declare ids as reusable parameters: the definition is
        linted at its own pointer, once for every operation that uses it."""
        user_id = {"name": "user_id", "in": "path", "required": True,
                   "example": "u-1"}
        ops = {"get": {"parameters": [{"$ref": "REF"}],
                       "responses": {"200": {"description": "ok"}}}}
        paths = {"/users/{user_id}": ops, "/users/{user_id}/posts": ops}
        if dialect == "openapi_2_0":
            tree = {"swagger": "2.0", "info": {"title": "U", "version": "1"},
                    "host": "u.example", "paths": paths,
                    "parameters": {"UserId": {**user_id, "type": "integer"}}}
            ref, type_ptr = "#/parameters/UserId", "#/parameters/UserId/type"
        else:
            tree = {"openapi": "3.0.3", "info": {"title": "U", "version": "1"},
                    "servers": [{"url": "https://u.example"}], "paths": paths,
                    "components": {"parameters": {
                        "UserId": {**user_id, "schema": {"type": "integer"}}}}}
            ref = "#/components/parameters/UserId"
            type_ptr = "#/components/parameters/UserId/schema/type"
        raw = write_spec(tmp_path, "users.json",
                         json.dumps(tree, indent=2).replace("REF", ref))
        [finding] = lint(build_contract(raw), raw)
        assert (finding.lint_class, finding.location) == ("D", type_ptr)
        assert finding.edits == [PatchEdit(type_ptr, "string")]
        report = fix_loop(raw)
        assert report.findings_by_class == {"D": 1}
        assert (report.total_loc_changed, report.whole_document_render) == (1, False)

    def test_clean_corpus_has_zero_findings(self, rules, petstore, allauth):
        for compiled in (petstore, allauth):
            assert lint(compiled.contract, compiled.raw, rules) == []


def _sibling_tree(schemes: dict, second: dict, first=None, **components) -> dict:
    """Two operations under /things: the first requires the first of
    `schemes` (or `first`), the second is `second`."""
    ok = {"200": {"description": "ok"}}
    return {
        "openapi": "3.0.3",
        "info": {"title": "Things", "version": "1"},
        "servers": [{"url": "https://things.example"}],
        "components": {"securitySchemes": schemes, **components},
        "paths": {
            "/things/a": {"get": {"security": first or [{next(iter(schemes)): []}],
                                  "responses": ok}},
            "/things/b": {"get": {**second, "responses": ok}},
        },
    }


class TestApplyPatch:
    def test_empty_patch_is_identity(self, petstore):
        patched = apply_patch(petstore.raw, [])
        assert patched.tree == petstore.raw.tree
        assert patched.tree is not petstore.raw.tree
        report = fix_loop(petstore.raw)
        assert (report.diff, report.total_loc_changed) == ("", 0)

    def test_single_value_replace_counts_one_line(self):
        raw = mem_doc({"servers": [{"url": "{{service-root}}"}], "openapi": "3.0.0"})
        report = fix_loop(raw)
        assert report.total_loc_changed == 1
        assert '+      "url": "https://api.example.com"' in report.diff
        assert report.document.tree["servers"][0]["url"] == "https://api.example.com"

    def test_added_token_url_shows_in_diff(self, rules):
        report = fix_loop(load_document(DEFECTS / "class_a.yaml"), rules)
        added = [line for line in report.diff.splitlines() if line.startswith("+")]
        assert any("tokenUrl:" in line for line in added)
        assert report.total_loc_changed == 1

    def test_replace_missing_target_fails(self):
        """A pointer through a missing container raises PointerError, and
        so does one through an item a list does not have, a scalar, or
        none at all."""
        raw = mem_doc({"openapi": "3.0.0", "info": {"title": "T"}, "tags": [{"name": "a"}]})
        for pointer in ("#/servers/0/url", "#/tags/1/name", "#/tags/a/name", "#/tags/2",
                        "#/tags/-1", "#/openapi/x", "#/info/title/x", "#"):
            with pytest.raises(PointerError):
                apply_patch(raw, [PatchEdit(pointer, "x")])

    def test_list_append(self):
        raw = mem_doc({"items": [1, 2]})
        patched = apply_patch(raw, [PatchEdit("#/items/-", 3)])
        assert patched.tree["items"] == [1, 2, 3]

    def test_original_document_untouched(self):
        tree = {"servers": [{"url": "old"}]}
        raw = mem_doc(tree)
        before = copy.deepcopy(tree)
        apply_patch(raw, [PatchEdit("#/servers/0/url", "new")])
        assert raw.tree == before

    def test_yaml_documents_render_as_yaml(self):
        raw = mem_doc({"a": {"b": 1}}, fmt="yaml")
        patched = apply_patch(raw, [PatchEdit("#/a/b", 2)])
        assert "  b: 1" in render_document(raw.tree, raw.format).splitlines()
        assert "  b: 2" in render_document(patched.tree, patched.format).splitlines()


def _oauth2_cases(flows: tuple[str, ...], shape) -> list:
    """One oauth2 node per flow, with and without a tokenUrl."""
    cases = []
    for flow in flows:
        for token_url in (None, "https://auth.example/token"):
            cases.append(
                pytest.param(shape(flow, token_url),
                             id=f"oauth2-{flow}-{'token' if token_url else 'no-token'}")
            )
    return cases


def _oauth2_3_x(flow: str, token_url: str | None) -> dict:
    body = {"authorizationUrl": "https://auth.example/authorize", "scopes": {}}
    if token_url:
        body["tokenUrl"] = token_url
    return {"type": "oauth2", "flows": {flow: body}}


def _oauth2_2_0(flow: str, token_url: str | None) -> dict:
    node = {"type": "oauth2", "flow": flow, "scopes": {},
            "authorizationUrl": "https://auth.example/authorize"}
    if token_url:
        node["tokenUrl"] = token_url
    return node


_COMMON_SCHEME_CASES = [
    pytest.param({"type": "apiKey", "in": "header", "name": "X-K"}, id="apikey"),
    pytest.param({"type": "apiKey", "in": "header"}, id="apikey-no-name"),
    pytest.param({"type": "apiKey", "name": "k"}, id="apikey-no-in"),
    pytest.param({"type": "apiKey", "in": "body", "name": "k"}, id="apikey-bad-in"),
    pytest.param({"type": "apikey", "in": "header", "name": "X-K"}, id="apikey-casing"),
    pytest.param({"type": "apikey", "in": "header"}, id="apikey-casing-no-name"),
    pytest.param({"type": "http", "scheme": "bearer"}, id="http-bearer"),
    pytest.param({"type": "http", "scheme": "digest"}, id="http-digest"),
    pytest.param({"type": "mutualTLS"}, id="unknown-type"),
    pytest.param({"description": "no type"}, id="no-type"),
    pytest.param("bearer", id="not-a-mapping"),
    pytest.param(["x"], id="list-node"),
]

SCHEME_CASES_3_X = _COMMON_SCHEME_CASES + [
    pytest.param({"type": "http", "scheme": "basic"}, id="http-basic"),
    pytest.param({"type": "http"}, id="http-no-scheme"),
    pytest.param({"type": "basic"}, id="basic-is-2.0-only"),
    pytest.param({"type": "oauth2", "flows": {}}, id="oauth2-no-flows"),
    pytest.param({"type": "oauth2", "flows": ["password"]}, id="oauth2-flows-list"),
] + _oauth2_cases(
    ("authorizationCode", "clientCredentials", "implicit", "password"), _oauth2_3_x
)

SCHEME_CASES_2_0 = _COMMON_SCHEME_CASES + [
    pytest.param({"type": "basic"}, id="basic"),
    pytest.param({"type": "oauth2", "scopes": {}}, id="oauth2-no-flow"),
    pytest.param({"type": "oauth2", "flow": "magic", "tokenUrl": "https://a.example/t"},
                 id="oauth2-unknown-flow"),
] + _oauth2_cases(
    ("accessCode", "application", "implicit", "password"), _oauth2_2_0
)


def _one_scheme_doc(dialect: str, node) -> RawDocument:
    op = {"get": {"operationId": "getA", "responses": {"200": {"description": "ok"}}}}
    if dialect == "openapi_2_0":
        tree = {"swagger": "2.0", "info": {"title": "One", "version": "1"},
                "host": "one.example", "securityDefinitions": {"s": node}}
    else:
        tree = {"openapi": "3.0.3", "info": {"title": "One", "version": "1"},
                "servers": [{"url": "https://one.example"}],
                "components": {"securitySchemes": {"s": node}}}
    tree["security"] = [{"s": []}]
    tree["paths"] = {"/a": op}
    return mem_doc(tree, dialect=dialect)


class TestLintAgreesWithCompiler:
    """lint reports class A for a declared scheme iff the compiler rejects
    it, with the compiler's own message; every repair it offers compiles."""

    def check(self, raw: RawDocument) -> None:
        contract = build_contract(raw)
        try:  # in the pipeline's order
            compile_manifest(contract, extract_security(contract), base_url="")
            rejected = None
        except SchemeError as exc:
            rejected = str(exc)
        findings = [f for f in lint(build_contract(raw), raw) if f.lint_class == "A"]
        if rejected is None:
            assert findings == []
            return
        [finding] = findings
        assert finding.message == rejected
        if finding.edits:
            report = fix_loop(raw)
            extract_security(build_contract(report.document))

    @pytest.mark.parametrize("node", SCHEME_CASES_3_X)
    def test_openapi_3_x(self, node):
        self.check(_one_scheme_doc("openapi_3_x", node))

    @pytest.mark.parametrize("node", SCHEME_CASES_2_0)
    def test_swagger_2_0(self, node):
        self.check(_one_scheme_doc("openapi_2_0", node))

    @pytest.mark.parametrize(
        "target", [{"type": "http", "scheme": "bearer"}, {"type": "apiKey", "in": "query"}]
    )
    def test_ref_to_a_scheme_is_judged_by_its_target(self, target):
        raw = _one_scheme_doc("openapi_3_x", {"$ref": "#/components/x-auth"})
        raw.tree["components"]["x-auth"] = target
        self.check(raw)

    @pytest.mark.parametrize("dialect", ["openapi_2_0", "openapi_3_x"])
    @pytest.mark.parametrize("where", ["document", "operation", "overridden"])
    def test_undeclared_scheme(self, dialect, where):
        """Judged where requirements are resolved: a document-level
        requirement that every operation overrides is never used."""
        raw = _one_scheme_doc(dialect, {"type": "apiKey", "in": "header", "name": "X-K"})
        op = raw.tree["paths"]["/a"]["get"]
        if where == "operation":
            op["security"] = [{"s": [], "ghost": []}]
        else:
            raw.tree["security"] = [{"ghost": []}]
        if where == "overridden":
            op["security"] = [{"s": []}]
        self.check(raw)

    def test_vendor_token_url_applies_to_2_0_repairs(self):
        raw = _one_scheme_doc("openapi_2_0", _oauth2_2_0("accessCode", None))
        rules = load_vendor_rules_text({"^One$": {"token_url": "https://v.example/t"}})
        [finding] = lint(build_contract(raw), raw, rules)
        assert finding.edits == [
            PatchEdit("#/securityDefinitions/s/tokenUrl", "https://v.example/t")
        ]

    def test_password_flow_repair_is_client_credentials(self):
        node = _oauth2_2_0("password", "https://auth.example/token")
        raw = _one_scheme_doc("openapi_2_0", node)
        [finding] = lint(build_contract(raw), raw)
        assert finding.location == "#/securityDefinitions/s"
        assert finding.edits == [
            PatchEdit("#/securityDefinitions/s/flow", "application")
        ]

    def test_token_url_beside_an_authorization_url_without_authorize(self):
        node = _oauth2_2_0("accessCode", None)
        node["authorizationUrl"] = "https://auth.example/oauth2/consent/"
        raw = _one_scheme_doc("openapi_2_0", node)
        [finding] = lint(build_contract(raw), raw)
        assert finding.edits == [PatchEdit("#/securityDefinitions/s/tokenUrl",
                                           "https://auth.example/oauth2/consent/token")]


    @pytest.mark.parametrize("dialect", ["openapi_2_0", "openapi_3_x"])
    @pytest.mark.parametrize(
        "node",
        [{"type": "apikey", "in": "header"}, {"type": "mutualTLS"},
         {"description": "no type"}],
        ids=["apikey-casing-no-name", "unknown-type", "no-type"],
    )
    def test_no_repair_guesses_how_a_credential_is_sent(self, node, dialect):
        raw = _one_scheme_doc(dialect, node)
        [finding] = lint(build_contract(raw), raw)
        assert finding.lint_class == "A" and finding.edits == []

    def test_one_pass_reads_each_operations_auth_once(self, monkeypatch):
        """Classes A and E share one walk over the contract's operations."""
        tree = copy.deepcopy(load_document(DEFECTS / "class_e.json").tree)
        first = next(iter(tree["paths"].values()))
        next(iter(first.values()))["security"] = [{"ghost": []}]
        raw = mem_doc(tree)
        contract = build_contract(raw)
        assert contract.tree is not raw.tree
        walks = []
        for module in (compiler, doctor):
            def operations(tree, module=module, real=module.operations):
                if tree is contract.tree:
                    walks.append(module.__name__)
                return real(tree)
            monkeypatch.setattr(module, "operations", operations)
        classes = {f.lint_class for f in lint(contract, raw)}
        assert {"A", "E"} <= classes
        assert walks == ["automcp.compiler"]

class TestPatchSufficiency:
    @pytest.mark.parametrize(
        "name", ["class_a.yaml", "class_b.yaml", "class_d.yaml", "class_e.json"]
    )
    def test_patched_class_relints_clean(self, name, rules):
        raw = load_document(DEFECTS / name)
        findings = lint(build_contract(raw), raw, rules)
        patchable = [f for f in findings if f.edits]
        assert patchable
        patched = apply_patch(raw, [e for f in patchable for e in f.edits])
        refindings = lint(build_contract(patched), patched, rules)
        assert [f for f in refindings if f.edits] == []


class TestFixLoop:
    def test_seeded_a_plus_b_repaired_in_two_iterations(self, rules):
        tree = copy.deepcopy(load_document(DEFECTS / "class_a.yaml").tree)
        tree["servers"] = [{"url": "/relative"}]
        raw = mem_doc(tree, fmt="yaml")
        report = fix_loop(raw, rules)
        assert report.iterations <= 2
        assert set(report.findings_by_class) == {"A", "B"}
        assert report.residual_advisories == []
        refindings = lint(
            build_contract(report.document), report.document, rules
        )
        assert refindings == []

    def test_clean_document_zero_iterations(self, petstore, rules):
        report = fix_loop(petstore.raw, rules)
        assert report.iterations == 0
        assert report.changed is False
        assert report.diff == ""

    def test_advisory_only_document_unchanged(self, rules):
        raw = load_document(DEFECTS / "class_c.yaml")
        report = fix_loop(raw, rules)
        assert report.changed is False
        assert len(report.residual_advisories) == 1
        assert report.residual_advisories[0].suggested_headers == {
            "Sync-Version": "2022-06-28"
        }

    def test_non_convergence_when_patch_cannot_fix(self):
        # a rules-supplied base URL that is itself unresolved keeps class B alive
        bad_rules = load_vendor_rules_text(
            {"Workforce Directory": {"base_url": "https://{{tenant}}.example"}}
        )
        raw = load_document(DEFECTS / "class_b.yaml")
        with pytest.raises(NonConvergence):
            fix_loop(raw, bad_rules)

    @pytest.mark.parametrize("rule_url, host, base_path", [
        ("https://api.vendor.com/v2", "api.vendor.com", "/v2"),
        ("https://api.vendor.com:8443/v3/", "api.vendor.com:8443", "/v3"),
        ("https://api.vendor.com", "api.vendor.com", "/v2"),
    ], ids=["same-path", "other-path", "no-path"])
    def test_2_0_repair_puts_no_sub_path_in_host(self, rule_url, host, base_path):
        """OpenAPI 2.0's `host` holds no scheme and no sub-path: the rule
        URL's path goes to `basePath` when it differs."""
        raw = mem_doc({"swagger": "2.0", "info": {"title": "Vendor", "version": "1"},
                       "host": "{{host}}", "basePath": "/v2", "paths": {}},
                      dialect="openapi_2_0")
        rules = load_vendor_rules_text({"Vendor": {"base_url": rule_url}})
        report = fix_loop(raw, rules)
        assert report.iterations == 1
        tree = report.document.tree
        assert (tree["host"], tree["basePath"]) == (host, base_path)
        assert resolve_base_url(report.document) == f"https://{host}{base_path}"

    @pytest.mark.parametrize("base_url", [
        "api.vendor.com/v2", "/v2", "ftp://files.example", "https://", "https:///v2", 7,
    ])
    def test_rule_base_url_must_be_an_absolute_http_url(self, base_url):
        with pytest.raises(ParseError, match="rule 'Vendor': `base_url` must be"):
            load_vendor_rules_text({"Vendor": {"base_url": base_url}})

    @pytest.mark.parametrize(
        "entry", ["https://x.example", {"description": "no url"}],
        ids=["scalar", "no-url"],
    )
    def test_class_b_repairs_a_server_entry_without_a_url(self, entry):
        raw = mem_doc({"openapi": "3.0.0", "info": {"title": "S", "version": "1"},
                       "servers": [entry], "paths": {}})
        report = fix_loop(raw)
        assert report.findings_by_class == {"B": 1}
        assert report.document.tree["servers"][0]["url"] == "https://api.example.com"

    def test_repairs_land_on_escaped_path_keys(self):
        # `%2F` and `~` must survive the pointer round trip: a decoder that
        # percent-decodes without `%` being escaped would aim these edits
        # at "/files/a/b~x/{id}", a path the document does not have.
        key = "/files/a%2Fb~x/{id}"
        id_param = {"name": "id", "in": "path", "required": True,
                    "schema": {"type": "integer"}, "example": "f-1"}
        tree = {
            "openapi": "3.0.0",
            "info": {"title": "Files", "version": "1"},
            "servers": [{"url": "https://files.example"}],
            "components": {
                "securitySchemes": {"bearer": {"type": "http", "scheme": "bearer"}}
            },
            "paths": {
                "/files": {"get": {"security": [{"bearer": []}], "responses": {}}},
                key: {"get": {"parameters": [id_param], "responses": {}}},
            },
        }
        report = fix_loop(mem_doc(tree))
        assert report.findings_by_class == {"D": 1, "E": 1}
        paths = report.document.tree["paths"]
        assert list(paths) == ["/files", key]
        op = paths[key]["get"]
        assert op["parameters"][0]["schema"]["type"] == "string"
        assert op["security"] == [{"bearer": []}]

    def test_loc_accounting_matches_reference_counts(self, rules):
        reference = json.loads((DEFECTS / "reference_counts.json").read_text())
        for name, budget in reference.items():
            if name.startswith("_"):
                continue
            raw = load_document(DEFECTS / name)
            report = fix_loop(raw, rules)
            assert report.total_loc_changed <= budget, name


def load_vendor_rules_text(payload: dict):
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        json.dump(payload, handle)
        path = handle.name
    return load_vendor_rules(path)


# -- repairs spliced into the source text ---------------------------------------

PATCHED_FIXTURES = ["class_a.yaml", "class_b.yaml", "class_d.yaml", "class_e.json"]


def patched_lines(lines: list[str], diff: str) -> list[str]:
    """`lines` with a unified diff applied."""
    out, i = [], 0
    for line in diff.splitlines()[2:]:
        if line.startswith("@@"):
            start = int(line.split()[1].split(",")[0].lstrip("-"))
            length = line.split()[1].partition(",")[2]
            start = start if length == "0" else start - 1
            out += lines[i:start]
            i = start
        elif line.startswith("+"):
            out.append(line[1:])
        else:
            assert lines[i] == line[1:]
            if line.startswith(" "):
                out.append(line[1:])
            i += 1
    return out + lines[i:]


def diff_changed_lines(diff: str) -> int:
    """Per run of changed lines in a unified diff, its longer side."""
    total = minus = plus = 0
    for line in diff.splitlines()[2:] + [" "]:
        if line.startswith("-"):
            minus += 1
        elif line.startswith("+"):
            plus += 1
        else:
            total, minus, plus = total + max(minus, plus), 0, 0
    return total


def write_spec(tmp_path: Path, name: str, text: str) -> RawDocument:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return load_document(path)


def pointers(node, prefix="#"):
    """The pointer of every node below the root."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        pointer = f"{prefix}/{escape_token(str(key))}"
        yield pointer
        yield from pointers(child, pointer)


# no line breaks: a YAML string that has one renders on several lines
one_line_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\x0b\x0c"
                  "\x1c\x1d\x1e\x85\u2028\u2029"),
    max_size=8,
)
edit_values = st.recursive(
    st.none() | st.booleans() | st.integers() | one_line_text
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(one_line_text, children, max_size=3),
    max_leaves=6,
)


@st.composite
def fixture_edits(draw, tree):
    """An edit at an existing node, at a new key of an existing mapping,
    or an append to an existing sequence."""
    target = draw(st.sampled_from(sorted(pointers(tree))))
    node = pointer_lookup(tree, target)
    value = draw(edit_values)
    if draw(st.booleans()):  # under the node, where it is a collection
        if isinstance(node, dict):
            return PatchEdit(f"{target}/{escape_token(draw(one_line_text.filter(bool)))}",
                             value)
        if isinstance(node, list):
            return PatchEdit(f"{target}/-", value)
    return PatchEdit(target, value)


# class E on an operation that already has parameters, under a query
# apiKey: its edit appends the key's parameter at `.../parameters/-`
_GAP_3_X = """\
openapi: 3.0.3
info: {title: Things, version: '1'}
servers:
  - url: https://things.example
components:
  securitySchemes:
    k: {type: apiKey, in: query, name: api_key}
paths:
  /things/a:
    get:
      security: [{k: []}]
      responses: {'200': {description: ok}}
  /things/b:
    get:
      parameters:
        - name: q
          in: query
          schema: {type: string}
      responses: {'200': {description: ok}}
"""
_GAP_2_0 = """\
swagger: '2.0'
info: {title: Things, version: '1'}
host: things.example
securityDefinitions:
  k: {type: apiKey, in: query, name: api_key}
paths:
  /things/a:
    get:
      security: [{k: []}]
      responses: {'200': {description: ok}}
  /things/b:
    get:
      parameters: [{name: q, in: query, type: string}]
      responses: {'200': {description: ok}}
"""
_BARE_SERVER = """\
openapi: 3.0.3
info: {title: B, version: '1'}
servers:
  - https://api.example.com  # a bare string
paths:
  /a:
    get:
      responses: {'200': {description: ok}}
"""


# a spec whose paths are complete; each case below adds what it tests
_HEAD = ("openapi: 3.0.3\ninfo: {title: B, version: '1'}\n"
         "paths:\n  /a:\n    get:\n      responses: {'200': {description: ok}}\n")
_NEW_SERVERS = "+servers: [{url: 'https://api.example.com'}]"
_ROOT_URL = "[{url: '{{root}}'}]"


class TestSourceText:
    @pytest.mark.parametrize("name, text, changed", [
        ("gap.yaml", _GAP_3_X, [
            "+        - {in: query, name: api_key, required: true, schema: {type: string}}"]),
        ("gap20.yaml", _GAP_2_0, [
            "-      parameters: [{name: q, in: query, type: string}]",
            "+      parameters: [{name: q, in: query, type: string}, "
            "{in: query, name: api_key, required: true, type: string}]"]),
        ("gap.json", json.dumps(yaml.safe_load(_GAP_3_X), indent=2), [
            "-          }",
            "+          },",
            '+          {"name": "api_key", "in": "query", "required": true, '
            '"schema": {"type": "string"}}']),
        ("bare.yaml", _BARE_SERVER, [
            "-  - https://api.example.com  # a bare string",
            "+  - {url: 'https://api.example.com'}  # a bare string"]),
        ("nested.yaml", _HEAD + "servers:\n  - - https://a.example\n    - https://b.example\n", [
            "-  - - https://a.example", "-    - https://b.example",
            "+  - {url: 'https://api.example.com'}"]),
        ("anchored.yaml", _HEAD + "servers:\n  - url: &u '{{root}}'\n", [
            "-  - url: &u '{{root}}'", "+  - url: https://api.example.com"]),
        ("empty-last.yaml", _HEAD + "x-note :\n", [_NEW_SERVERS]),
        ("literal-last.yaml", _HEAD + "x-text: |\n  some text\n\n\n", [_NEW_SERVERS]),
        ("no-final-break.yaml", _HEAD + "x-last: 1", [_NEW_SERVERS]),
        ("alias-key.yaml", _HEAD + f"x-name: &s servers\n*s : {_ROOT_URL}\n", [
            f"-*s : {_ROOT_URL}", "+*s : [{url: 'https://api.example.com'}]"]),
        ("tagged-key.yaml", "openapi: 3.0.3\ninfo: {title: B, version: '1'}\n"
         "servers: [{url: 'https://b.example'}]\npaths:\n  !!float 1:\n    get:\n"
         "      parameters: [{name: user_id, in: path, schema: {type: integer}, "
         "example: u-1}]\n", [
            "-      parameters: [{name: user_id, in: path, schema: {type: integer}, "
            "example: u-1}]",
            "+      parameters: [{name: user_id, in: path, schema: {type: string}, "
            "example: u-1}]"]),
        ("anchor-inside.yaml", _HEAD + "servers:\n  - [&u x]\nx-copy: *u\n", [
            "-  - [&u x]", "-x-copy: *u", "+  - {url: 'https://api.example.com'}",
            "+x-copy: &u x"]),
    ])
    def test_append_set_and_replace_are_spliced(self, tmp_path, name, text, changed):
        """A class E parameter appended to a block and to a flow sequence,
        in YAML and in JSON; a first server that is a bare string, and one
        that is a block sequence, replaced as an item; an anchor no alias
        names dropped with its value; a key added after an entry with no
        value, after a literal scalar and on a last line with no line
        break; a value replaced under a key written as an alias or with an
        explicit tag (`!!float 1` is the path "1.0"); and an anchor inside
        the replaced value that an alias names, moved to that alias."""
        report = fix_loop(write_spec(tmp_path, name, text))
        assert report.whole_document_render is False
        assert [line for line in report.diff.splitlines()[2:]
                if line.startswith(("+", "-"))] == changed
        assert report.total_loc_changed == changed_line_count(text, report.text)

    @pytest.mark.parametrize("text", [
        pytest.param("? openapi\n: 3.0.3\ninfo: {title: B, version: '1'}\npaths: {}\n",
                     id="explicit-first-key"),
        pytest.param(_HEAD + "? x-note\n", id="explicit-last-key-with-no-colon"),
        pytest.param(_HEAD + "x-list:\n  - a\n  -\n", id="empty-last-item"),
        pytest.param(_HEAD + "servers: [description: x]\n", id="flow-pair-with-no-braces"),
        pytest.param(_GAP_3_X.replace("        - name: q", "        -\n          name: q"),
                     id="item-below-its-dash"),
        pytest.param(_HEAD + "x-base: &b {url: '{{root}}'}\nservers:\n  - <<: *b\n",
                     id="key-from-a-merge"),
        pytest.param(_HEAD + "servers:\n  - [&u [&v y]]\nx-copy: *u\nx-b: *v\n",
                     id="anchor-inside-an-anchored-node-that-moves"),
        pytest.param(_HEAD + "servers:\n  - [&u 'x\n    y']\nx-copy: *u\n",
                     id="anchor-inside-on-two-lines"),
        pytest.param(_HEAD.replace("openapi: 3.0.3", "swagger: '2.0'\nhost: o.example")
                     + "securityDefinitions:\n  s: {type: oauth2, flow: accessCode, "
                     'scopes: {}, authorizationUrl: "https://a.example/authorize\\nx"}\n',
                     id="value-with-a-line-break"),
    ])
    def test_edit_with_no_safe_place_renders_the_document(self, tmp_path, text):
        """Where the text gives an edit no safe place (after a `?` key with
        no `:` or an empty item, under a key that may come from a merge, a
        value on several lines, an anchored node to move that is inside
        another one or on several lines), or the spliced text would not
        read back to the tree (an entry after a first key written `? key`,
        in a flow pair with no braces or below its `-`), the repaired tree
        is rendered whole."""
        raw = write_spec(tmp_path, "spec.yaml", text)
        report = fix_loop(raw)
        assert report.changed and report.whole_document_render is True
        assert yaml.safe_load(report.text) == report.document.tree

    @pytest.mark.parametrize("name", PATCHED_FIXTURES)
    def test_fixture_repairs_are_spliced(self, name, rules):
        original = (DEFECTS / name).read_text(encoding="utf-8")
        report = fix_loop(load_document(DEFECTS / name), rules)
        assert report.whole_document_render is False
        assert report.total_loc_changed == changed_line_count(original, report.text)
        assert report.diff == "\n".join(difflib.unified_diff(
            original.splitlines(), report.text.splitlines(),
            fromfile=name, tofile=f"{name} (patched)", lineterm="",
        ))
        if name == "class_e.json":
            assert report.total_loc_changed <= 2 * report.findings_by_class["E"]
        else:
            assert report.total_loc_changed == 1

    @pytest.mark.parametrize("name", PATCHED_FIXTURES)
    def test_pure_loader_splices_the_same_text(self, name, rules, monkeypatch):
        with_libyaml = fix_loop(load_document(DEFECTS / name), rules)
        monkeypatch.setattr(yamltree, "_FastLoader", None)
        pure = fix_loop(load_document(DEFECTS / name), rules)
        assert pure.whole_document_render is False
        assert (pure.text, pure.diff) == (with_libyaml.text, with_libyaml.diff)
        assert pure.loc_changed_by_class == with_libyaml.loc_changed_by_class

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(PATCHED_FIXTURES), st.data())
    def test_spliced_text_loads_to_the_tree_level_edit(self, name, data):
        """One edit per splice, as one per fix iteration: the text reads
        back to `_apply_edit`'s tree, the diff turns the original into it,
        and the changed lines are the ones the diff shows. (difflib may
        align a long deletion differently, so its count is not the oracle
        here.)"""
        raw = load_document(DEFECTS / name)
        source = SourceText(raw.text, raw.format)
        tree = copy.deepcopy(raw.tree)
        for _ in range(data.draw(st.integers(1, 3))):
            edit = data.draw(fixture_edits(tree))
            _apply_edit(tree, edit, set())
            source.splice([("A", edit)])
            assert source.loads_to(tree)
        diff = source.unified_diff("a", "b")
        assert patched_lines(raw.text.splitlines(), diff) == source.text.splitlines()
        assert sum(source.changed_lines_by_class().values()) == diff_changed_lines(diff)

    def test_two_classes_on_one_line_sum_to_the_total(self, tmp_path):
        """Each class's count comes from its own splices: two edits on the
        one line of a minified spec count that line once."""
        tree = {
            "openapi": "3.0.0", "info": {"title": "Mini", "version": "1"},
            "servers": [{"url": "{{root}}"}],
            "paths": {"/things/{thing_id}": {"get": {"parameters": [
                {"name": "thing_id", "in": "path", "required": True,
                 "schema": {"type": "integer"}, "example": "t-1"}]}}},
        }
        raw = write_spec(tmp_path, "mini.json", json.dumps(tree))
        report = fix_loop(raw)
        assert report.findings_by_class == {"B": 1, "D": 1}
        assert report.total_loc_changed == 1
        assert sum(report.loc_changed_by_class.values()) == 1
        assert set(report.loc_changed_by_class) == {"B", "D"}
        assert report.whole_document_render is False

    def test_comments_key_order_and_quoting_survive(self, tmp_path):
        text = (
            "# Gap API\n"
            "openapi: '3.0.0'\n"
            "info: {title: \"Gap\", version: '1'}\n"
            "servers:\n"
            "  - url: ''  # filled in per deployment\n"
            "paths:\n"
            "  /a:\n"
            "    get:\n"
            "      responses: {'200': {description: ok}}\n"
        )
        report = fix_loop(write_spec(tmp_path, "gap.yaml", text))
        assert report.whole_document_render is False
        assert report.text == text.replace(
            "url: ''", "url: https://api.example.com")
        assert report.total_loc_changed == 1

    @pytest.mark.parametrize("servers, fixed", [
        ("servers:   # none yet\n",
         "servers: [{url: 'https://api.example.com'}]   # none yet\n"),
        ("servers:\n- https://x.example  # old\n",
         "servers:\n- {url: 'https://api.example.com'}  # old\n"),
        ("servers: []\n", "servers: [{url: 'https://api.example.com'}]\n"),
        ("", ""),
    ], ids=["empty-value", "block-item", "flow-sequence", "missing-key"])
    def test_each_kind_of_placement_changes_one_line(self, tmp_path, servers, fixed):
        head = "openapi: 3.0.0\ninfo: {title: T, version: '1'}\n"
        report = fix_loop(write_spec(tmp_path, "s.yaml", head + servers + "paths: {}\n"))
        expected = head + fixed + "paths: {}\n"
        if not servers:  # a new key goes after the mapping's last entry
            expected += "servers: [{url: 'https://api.example.com'}]\n"
        assert report.text == expected
        assert (report.total_loc_changed, report.whole_document_render) == (1, False)

    def test_documents_without_text_render_whole(self):
        raw = mem_doc({"openapi": "3.0.0", "servers": [{"url": "x"}], "paths": {}})
        report = fix_loop(raw)
        assert report.whole_document_render is True
        assert report.to_dict()["whole_document_render"] is True
        assert json.loads(report.text) == report.document.tree

    def test_entry_after_an_alias_value_is_spliced(self, tmp_path):
        """A block mapping whose last value is an alias: the new entry
        goes after the alias's own line, and the anchor stays as written."""
        text = (
            "openapi: 3.0.3\n"
            "info: {title: Alias Last, version: '1'}\n"
            "servers: [{url: 'https://alias.example'}]\n"
            "x-ok: &ok {'200': {description: ok}}\n"
            "components:\n"
            "  securitySchemes:\n"
            "    bearer: {type: http, scheme: bearer}\n"
            "paths:\n"
            "  /notes:\n"
            "    get:\n"
            "      security: [{bearer: []}]\n"
            "      responses: *ok\n"
            "    post:\n"
            "      responses: *ok\n"
        )
        report = fix_loop(write_spec(tmp_path, "alias-last.yaml", text))
        assert report.findings_by_class == {"E": 1}
        assert report.to_dict()["whole_document_render"] is False
        assert report.text == text + "      security: [{bearer: []}]\n"
        assert report.total_loc_changed == 1

    def test_bracket_rich_json_never_takes_the_pure_loader(self, tmp_path, monkeypatch):
        """A 1,000-path JSON spec holds over 2,000 `{` and `[` but nests
        shallowly: its splices read libyaml's events alone."""
        ok = {"200": {"description": "ok"}}
        paths = {f"/r{k}": {"get": {"security": [{"bearer": []}], "responses": ok}}
                 for k in range(1000)}
        paths["/r0"]["post"] = {"responses": ok}
        tree = {
            "openapi": "3.0.0", "info": {"title": "Brackets", "version": "1"},
            "servers": [{"url": "https://brackets.example"}],
            "components": {"securitySchemes": {
                "bearer": {"type": "http", "scheme": "bearer"}}},
            "paths": paths,
        }
        text = json.dumps(tree, indent=2)
        assert text.count("{") > yamltree._LIBYAML_MAX_DEPTH
        raw = write_spec(tmp_path, "brackets.json", text)
        built = []

        class SpyLoader(yamltree._PureLoader):
            def __init__(self, stream):
                built.append(stream)
                super().__init__(stream)

        monkeypatch.setattr(yamltree, "_PureLoader", SpyLoader)
        report = fix_loop(raw)
        assert report.findings_by_class == {"E": 1}
        assert (report.whole_document_render, report.total_loc_changed) == (False, 1)
        assert built == []

    def test_text_that_does_not_read_back_renders_whole(self, tmp_path):
        """The edit lands under an alias: the spliced text would change
        the anchor's node, so the tree-level result is rendered instead.
        The edit changes only the node its pointer names."""
        text = (
            "openapi: 3.0.0\n"
            "info: {title: Alias, version: '1'}\n"
            "x-base: &base {url: '{{root}}'}\n"
            "servers:\n"
            "  - *base\n"
            "paths: {}\n"
        )
        raw = write_spec(tmp_path, "alias.yaml", text)
        report = fix_loop(raw)
        assert report.whole_document_render is True
        assert yamltree._load_yaml(report.text) == report.document.tree
        assert report.total_loc_changed == sum(report.loc_changed_by_class.values())
        assert report.document.tree["x-base"] == {"url": "{{root}}"}
        assert report.document.tree["servers"] == [{"url": "https://api.example.com"}]
        assert raw.tree["servers"][0] is raw.tree["x-base"] == {"url": "{{root}}"}

    def test_anchored_value_on_two_lines_renders_whole(self, tmp_path):
        """Only a one-line anchored value moves to its first alias; one
        on two lines is rendered with the whole document, and the alias
        keeps the old value."""
        text = ("openapi: 3.0.0\ninfo: {title: Anchor, version: '1'}\n"
                "servers:\n- url: &u '{{root}}\n    tail'\nx-copy: *u\npaths: {}\n")
        report = fix_loop(write_spec(tmp_path, "anchor.yaml", text))
        assert report.whole_document_render is True
        assert yamltree._load_yaml(report.text) == report.document.tree
        assert report.document.tree["x-copy"] == "{{root}} tail"

    @pytest.mark.parametrize("text, pointers", [
        pytest.param("a: [1]\nb: *nope\n", ["#/a/0"], id="text-that-does-not-compose"),
        pytest.param("a: {b: 1}\n", ["#/a", "#/a/b"], id="two-edits-that-overlap"),
        pytest.param("a: {b: 1}\n", ["#/c/d"], id="a-parent-the-text-lacks"),
        pytest.param("a: 1\n", ["#/a/b"], id="a-segment-under-a-scalar"),
    ])
    def test_unplaceable_edits_leave_the_text_as_it_was(self, text, pointers):
        source = SourceText(text, "yaml")
        with pytest.raises(Unplaceable):
            source.splice([("B", PatchEdit(pointer, "x")) for pointer in pointers])
        assert source.text == text
        assert source.changed_lines_by_class() == {}

    def test_a_cascade_over_a_moved_anchor_is_spliced(self, tmp_path):
        """The first iteration's class B repair replaces a value that holds
        an anchor an alias names, so the anchor moves to that alias; the
        class E repair that the class A repair brings out in the second
        iteration is spliced into that text."""
        text = (
            "openapi: 3.0.3\n"
            "info: {title: Cascade, version: '1'}\n"
            "servers:\n  - [&u x]\n"
            "x-copy: *u\n"
            "components:\n"
            "  securitySchemes:\n"
            "    key: {type: apikey, in: query, name: api_key}\n"
            "paths:\n"
            "  /notes:\n"
            "    get:\n"
            "      parameters: [{name: api_key, in: query}]\n"
            "      responses: {'200': {description: ok}}\n"
            "    post:\n"
            "      responses: {'201': {description: created}}\n"
        )
        report = fix_loop(write_spec(tmp_path, "cascade.yaml", text))
        assert report.iterations == 2
        assert report.findings_by_class == {"A": 1, "B": 1, "E": 1}
        assert report.whole_document_render is False
        assert yamltree._load_yaml(report.text) == report.document.tree
        assert "x-copy: &u x\n" in report.text
        assert report.total_loc_changed == changed_line_count(text, report.text)

    def test_a_key_spelled_twice_edits_the_spelling_the_tree_keeps(self, tmp_path):
        """`16` and `0x10` load to one key, "16", and the later spelling's
        value is the one the tree keeps: the repair lands under it."""
        source = SourceText("x: {16: a, 0x10: b}\n", "yaml")
        source.splice([("D", PatchEdit("#/x/16", "c"))])
        assert source.text == "x: {16: a, 0x10: c}\n"
        text = (
            "openapi: 3.0.0\ninfo: {title: T, version: '1'}\n"
            "servers: [{url: 'https://t.example'}]\n"
            "paths:\n"
            "  16:\n"
            "    get: {responses: {'200': {description: ok}}}\n"
            "  0x10:\n"
            "    get:\n"
            "      parameters:\n"
            "        - {name: user_id, in: path, required: true, schema: {type: integer}, "
            "example: u-1}\n"
            "      responses: {'200': {description: ok}}\n"
        )
        report = fix_loop(write_spec(tmp_path, "twice.yaml", text))
        assert report.findings_by_class == {"D": 1}
        assert report.whole_document_render is False
        assert report.text == text.replace("{type: integer}", "{type: string}")
        assert report.total_loc_changed == 1


# -- one hunk writer for every diff --------------------------------------------

diff_lines = st.sampled_from(["a", "b", "c", "  d: 1", ""])


@st.composite
def line_list_pairs(draw):
    """Old lines, repeated up to eight times so that a list over 200
    lines puts difflib's autojunk to work, and new lines made from them
    by a few replaced slices (none: an empty diff)."""
    old = draw(st.lists(diff_lines, max_size=40)) * draw(st.integers(1, 8))
    new = list(old)
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(new)))
        j = draw(st.integers(i, min(len(new), i + 5)))
        new[i:j] = draw(st.lists(diff_lines, max_size=4))
    return old, new


def changed_runs(old: list[str], new: list[str]) -> list[tuple[int, int, int, int]]:
    return [(i1, i2, j1, j2) for tag, i1, i2, j1, j2
            in difflib.SequenceMatcher(None, old, new).get_opcodes() if tag != "equal"]


BIG_OLD = ["x", "y: 1", "z"] * 80


class TestOneDiff:
    @settings(max_examples=300, deadline=None)
    @given(line_list_pairs())
    @example(([], []))
    @example((["a"], ["a"]))
    @example((BIG_OLD, BIG_OLD[:100] + ["w"] + BIG_OLD[103:]))
    def test_hunk_writer_over_a_matchers_runs_is_difflibs(self, pair):
        old, new = pair
        assert unified_diff(old, new, changed_runs(old, new), "a", "b") == "\n".join(
            difflib.unified_diff(old, new, fromfile="a", tofile="b", lineterm=""))

    def test_big_example_puts_autojunk_to_work(self):
        assert difflib.SequenceMatcher(None, BIG_OLD, BIG_OLD).bpopular

    @pytest.mark.parametrize("kind", ["no-text", "alias"])
    def test_whole_document_fallback_counts_the_lines_its_diff_shows(self, tmp_path,
                                                                       kind):
        """Over 200 rendered lines: the count is the changed lines of the
        one diff, and that diff is difflib's over the two renderings."""
        paths = {
            f"/r{k}": {
                "get": {"security": [{"bearer": []}],
                        "responses": {"200": {"description": "ok"}}},
                "post": {"responses": {"201": {"description": "created"}}},
            }
            for k in range(30)
        }
        tree = {
            "openapi": "3.0.0", "info": {"title": "Gaps", "version": "1"},
            "servers": [{"url": "https://gaps.example"}],
            "components": {"securitySchemes": {
                "bearer": {"type": "http", "scheme": "bearer"}}},
            "paths": paths,
        }
        if kind == "no-text":
            raw = mem_doc(tree)
        else:  # the class B repair lands under an alias
            import yaml

            del tree["servers"]
            raw = write_spec(tmp_path, "gaps.yaml", (
                "x-base: &base {url: '{{root}}'}\n"
                "servers:\n  - *base\n" + yaml.safe_dump(tree, sort_keys=False)))
        report = fix_loop(raw)
        assert report.whole_document_render is True
        assert report.findings_by_class["E"] == 30
        before = render_document(raw.tree, raw.format)
        assert len(before.splitlines()) > 200
        name = raw.source_path.name
        assert report.diff == "\n".join(difflib.unified_diff(
            before.splitlines(), report.text.splitlines(),
            fromfile=name, tofile=f"{name} (patched)", lineterm=""))
        assert report.total_loc_changed == diff_changed_lines(report.diff) > 0


def test_edit_under_a_non_string_key_lands_on_that_node(tmp_path):
    """A repair under YAML's `200:` path key edits that operation, whose
    path the reader wrote as `"200"`, not a new path beside it."""
    spec = tmp_path / "key200.yaml"
    spec.write_text(
        "openapi: 3.0.0\ninfo: {title: T, version: '1'}\n"
        "servers: [{url: 'https://t.example'}]\n"
        "paths:\n  200:\n    get:\n      parameters:\n"
        "        - {name: user_id, in: path, required: true,"
        " schema: {type: integer}, example: u-1}\n"
        "      responses: {200: {description: ok}}\n", encoding="utf-8")
    report = fix_loop(load_document(spec))
    assert report.findings_by_class == {"D": 1}
    assert list(report.document.tree["paths"]) == ["200"]
    [fixed] = report.document.tree["paths"]["200"]["get"]["parameters"]
    assert fixed["schema"] == {"type": "string"}
