"""Linting, minimal patches, and the fix loop over the defect corpus."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from automcp.doctor import (
    PatchEdit,
    apply_patch,
    fix_loop,
    lint,
    load_vendor_rules,
    render_document,
)
from automcp.errors import NonConvergence, PointerError, SchemeError
from automcp.ingest import RawDocument, load_document, normalize
from automcp.refs import flatten
from automcp.security import extract_security
from conftest import DEFECTS, fixture_path


@pytest.fixture(scope="module")
def rules():
    return load_vendor_rules(fixture_path("vendor_rules.json"))


def lint_file(path: Path, rules=None):
    raw = load_document(path)
    return lint(flatten(normalize(raw)), raw, rules), raw


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
        findings = lint(flatten(normalize(raw)), raw)
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
        findings = lint(flatten(normalize(raw)), raw)
        assert findings[0].lint_class == "A"
        assert findings[0].edits == [
            PatchEdit("#/components/securitySchemes/k/type", "replace", "apiKey")
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
        assert edit.op == "replace"
        assert edit.value == "string"
        assert edit.pointer.endswith("/schema/type")

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
        findings = lint(flatten(normalize(raw)), raw)
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
        findings = lint(flatten(normalize(raw)), raw)
        assert [f for f in findings if f.lint_class == "E"] == []

    def test_clean_corpus_has_zero_findings(self, rules, petstore, allauth):
        for compiled in (petstore, allauth):
            assert lint(compiled.contract, compiled.raw, rules) == []


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

    def test_add_creates_missing_parents(self):
        raw = mem_doc({"openapi": "3.0.0", "paths": {}})
        patched = apply_patch(raw, [
            PatchEdit("#/components/securitySchemes/k", "add",
                      {"type": "http", "scheme": "bearer"})
        ])
        assert patched.tree["components"]["securitySchemes"]["k"]["scheme"] == "bearer"

    def test_replace_missing_target_fails(self):
        raw = mem_doc({"openapi": "3.0.0"})
        with pytest.raises(PointerError):
            apply_patch(raw, [PatchEdit("#/servers/0/url", "replace", "x")])

    def test_list_append(self):
        raw = mem_doc({"items": [1, 2]})
        patched = apply_patch(raw, [PatchEdit("#/items/-", "add", 3)])
        assert patched.tree["items"] == [1, 2, 3]

    def test_original_document_untouched(self):
        tree = {"servers": [{"url": "old"}]}
        raw = mem_doc(tree)
        before = copy.deepcopy(tree)
        apply_patch(raw, [PatchEdit("#/servers/0/url", "replace", "new")])
        assert raw.tree == before

    def test_yaml_documents_render_as_yaml(self):
        raw = mem_doc({"a": {"b": 1}}, fmt="yaml")
        patched = apply_patch(raw, [PatchEdit("#/a/b", "replace", 2)])
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
        try:
            extract_security(flatten(normalize(raw)))
            rejected = None
        except SchemeError as exc:
            rejected = str(exc)
        findings = [f for f in lint(flatten(normalize(raw)), raw) if f.lint_class == "A"]
        if rejected is None:
            assert findings == []
            return
        [finding] = findings
        assert finding.message == rejected
        if finding.edits:
            report = fix_loop(raw)
            extract_security(flatten(normalize(report.document)))

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

    def test_vendor_token_url_applies_to_2_0_repairs(self):
        raw = _one_scheme_doc("openapi_2_0", _oauth2_2_0("accessCode", None))
        rules = load_vendor_rules_text({"^One$": {"token_url": "https://v.example/t"}})
        [finding] = lint(flatten(normalize(raw)), raw, rules)
        assert finding.edits == [
            PatchEdit("#/securityDefinitions/s/tokenUrl", "add", "https://v.example/t")
        ]

    def test_password_flow_repair_is_client_credentials(self):
        node = _oauth2_2_0("password", "https://auth.example/token")
        raw = _one_scheme_doc("openapi_2_0", node)
        [finding] = lint(flatten(normalize(raw)), raw)
        assert finding.location == "#/securityDefinitions/s"
        assert finding.edits == [
            PatchEdit("#/securityDefinitions/s/flow", "replace", "application")
        ]


    @pytest.mark.parametrize("dialect", ["openapi_2_0", "openapi_3_x"])
    @pytest.mark.parametrize(
        "node",
        [{"type": "apikey", "in": "header"}, {"type": "mutualTLS"},
         {"description": "no type"}],
        ids=["apikey-casing-no-name", "unknown-type", "no-type"],
    )
    def test_no_repair_guesses_how_a_credential_is_sent(self, node, dialect):
        raw = _one_scheme_doc(dialect, node)
        [finding] = lint(flatten(normalize(raw)), raw)
        assert finding.lint_class == "A" and finding.edits == []

class TestPatchSufficiency:
    @pytest.mark.parametrize(
        "name", ["class_a.yaml", "class_b.yaml", "class_d.yaml", "class_e.json"]
    )
    def test_patched_class_relints_clean(self, name, rules):
        raw = load_document(DEFECTS / name)
        findings = lint(flatten(normalize(raw)), raw, rules)
        patchable = [f for f in findings if f.edits]
        assert patchable
        patched = apply_patch(raw, [e for f in patchable for e in f.edits])
        refindings = lint(flatten(normalize(patched)), patched, rules)
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
            flatten(normalize(report.document)), report.document, rules
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
        # a rules-supplied base URL that is itself malformed keeps class B alive
        bad_rules = load_vendor_rules_text(
            {"Workforce Directory": {"base_url": "still-not-a-url"}}
        )
        raw = load_document(DEFECTS / "class_b.yaml")
        with pytest.raises(NonConvergence):
            fix_loop(raw, bad_rules)

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
