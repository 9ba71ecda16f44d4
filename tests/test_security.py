"""Security scheme extraction, env bindings, and the .env store."""

from __future__ import annotations

import re

import pytest

from automcp.envfile import load_env, read_env_file, update_env_file
from automcp.errors import SchemeError
from automcp.refs import FlattenedContract
from automcp.security import (
    KIND_API_KEY,
    KIND_HTTP_BASIC,
    KIND_HTTP_BEARER,
    KIND_NONE,
    KIND_OAUTH2,
    SecurityScheme,
    build_env_map,
    extract_security,
    sanitize_env_component,
)


def contract_with(schemes: dict) -> FlattenedContract:
    return FlattenedContract(
        tree={"openapi": "3.0.0", "components": {"securitySchemes": schemes}, "paths": {}}
    )


class TestExtractSecurity:
    def test_query_api_key(self):
        schemes = extract_security(
            contract_with({"api_key": {"type": "apiKey", "in": "query", "name": "api_key"}})
        )
        assert schemes == [
            SecurityScheme(id="api_key", kind=KIND_API_KEY, location="query",
                           parameter_name="api_key")
        ]

    def test_oauth2_missing_token_url_is_class_a(self):
        with pytest.raises(SchemeError) as excinfo:
            extract_security(
                contract_with(
                    {
                        "oauth": {
                            "type": "oauth2",
                            "flows": {
                                "authorizationCode": {
                                    "authorizationUrl": "https://auth.example/authorize"
                                }
                            },
                        }
                    }
                )
            )
        assert excinfo.value.lint_class == "A"

    def test_implicit_only_rejected(self):
        with pytest.raises(SchemeError):
            extract_security(
                contract_with(
                    {
                        "oauth": {
                            "type": "oauth2",
                            "flows": {
                                "implicit": {
                                    "authorizationUrl": "https://auth.example/authorize",
                                    "scopes": {},
                                }
                            },
                        }
                    }
                )
            )

    def test_no_security_schemes_block(self):
        assert extract_security(FlattenedContract(tree={"paths": {}})) == []

    def test_http_basic_and_bearer(self):
        schemes = extract_security(
            contract_with(
                {
                    "b": {"type": "http", "scheme": "basic"},
                    "t": {"type": "http", "scheme": "bearer"},
                }
            )
        )
        assert [s.kind for s in schemes] == [KIND_HTTP_BASIC, KIND_HTTP_BEARER]

    def test_unrecognized_type(self):
        with pytest.raises(SchemeError):
            extract_security(contract_with({"x": {"type": "mutualTLS"}}))

    def test_api_key_missing_name(self):
        with pytest.raises(SchemeError):
            extract_security(contract_with({"x": {"type": "apiKey", "in": "header"}}))

    def test_client_credentials_flow_usable(self):
        schemes = extract_security(
            contract_with(
                {
                    "cc": {
                        "type": "oauth2",
                        "flows": {
                            "clientCredentials": {
                                "tokenUrl": "https://auth.example/token",
                                "scopes": {"all": "everything"},
                            }
                        },
                    }
                }
            )
        )
        assert schemes[0].kind == KIND_OAUTH2
        assert schemes[0].flows.token_url == "https://auth.example/token"

    def test_authorization_code_flow_carries_scopes(self):
        schemes = extract_security(
            contract_with(
                {
                    "oauth": {
                        "type": "oauth2",
                        "flows": {
                            "authorizationCode": {
                                "authorizationUrl": "https://a.example/authorize",
                                "tokenUrl": "https://a.example/token",
                                "scopes": {"read": "r", "write": "w"},
                            }
                        },
                    }
                }
            )
        )
        assert schemes[0].flows.authorization_code_usable
        assert set(schemes[0].flows.scopes) == {"read", "write"}


class TestBuildEnvMap:
    def test_camel_case_scheme_ids_match_title_convention(self):
        schemes = [
            SecurityScheme("apiKey", KIND_API_KEY, "query", "key"),
            SecurityScheme("apiToken", KIND_API_KEY, "query", "token"),
        ]
        bindings, template = build_env_map(schemes, "Trello")
        assert [b.env_var for b in bindings] == ["TRELLO_API_KEY", "TRELLO_API_TOKEN"]
        assert "TRELLO_API_KEY=" in template
        assert "TRELLO_API_TOKEN=" in template

    def test_empty_scheme_list_has_only_extra_headers_assignment(self):
        bindings, template = build_env_map([], "Bare")
        assert bindings == []
        assignments = [
            line for line in template.splitlines()
            if "=" in line and not line.startswith("#")
        ]
        assert assignments == ["EXTRA_HEADERS="]

    def test_basic_auth_yields_username_and_password(self):
        bindings, template = build_env_map(
            [SecurityScheme("account", KIND_HTTP_BASIC)], "Billing"
        )
        assert [b.env_var for b in bindings] == ["BILLING_USERNAME", "BILLING_PASSWORD"]
        assert "BILLING_USERNAME=" in template
        assert "BILLING_PASSWORD=" in template

    def test_deterministic(self):
        schemes = [
            SecurityScheme("k", KIND_API_KEY, "header", "X-Key"),
            SecurityScheme("o", KIND_OAUTH2),
        ]
        assert build_env_map(schemes, "Same") == build_env_map(schemes, "Same")

    def test_every_scheme_has_a_binding(self):
        schemes = [
            SecurityScheme("k", KIND_API_KEY, "header", "X-Key"),
            SecurityScheme("b", KIND_HTTP_BASIC),
            SecurityScheme("t", KIND_HTTP_BEARER),
            SecurityScheme("o", KIND_OAUTH2),
        ]
        bindings, _ = build_env_map(schemes, "Full")
        bound = {b.scheme_id for b in bindings}
        assert bound == {s.id for s in schemes if s.kind != KIND_NONE}

    def test_env_var_names_are_well_formed(self):
        schemes = [SecurityScheme("weird scheme-id!", KIND_API_KEY, "query", "k")]
        bindings, _ = build_env_map(schemes, "2c2p payments")
        for binding in bindings:
            assert re.fullmatch(r"[A-Z][A-Z0-9_]*", binding.env_var)

    def test_colliding_roles_suffixed(self):
        schemes = [
            SecurityScheme("token", KIND_API_KEY, "query", "t1"),
            SecurityScheme("token", KIND_API_KEY, "header", "t2"),
        ]
        bindings, _ = build_env_map(schemes, "Api")
        assert len({b.env_var for b in bindings}) == 2


class TestSanitize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Trello", "TRELLO"),
            ("apiKey", "API_KEY"),
            ("Omni Fixture API", "OMNI_FIXTURE_API"),
            ("2c2p", "API_2C2P"),
            ("weird--chars!!", "WEIRD_CHARS"),
        ],
    )
    def test_examples(self, raw, expected):
        assert sanitize_env_component(raw) == expected


class TestEnvFile:
    def test_read_skips_comments_and_blank_lines(self, tmp_path):
        env = tmp_path / ".env"
        env.write_text("# comment\n\nKEY=value\nSPACED = padded \n", encoding="utf-8")
        assert read_env_file(env) == {"KEY": "value", "SPACED": "padded"}

    def test_update_preserves_comments_and_appends(self, tmp_path):
        env = tmp_path / ".env"
        env.write_text("# keep me\nA=1\n", encoding="utf-8")
        update_env_file(env, {"A": "2", "B": "3"})
        text = env.read_text(encoding="utf-8")
        assert "# keep me" in text
        assert read_env_file(env) == {"A": "2", "B": "3"}

    def test_update_creates_missing_file(self, tmp_path):
        env = tmp_path / "fresh.env"
        update_env_file(env, {"A": "1"})
        assert read_env_file(env) == {"A": "1"}

    def test_process_environment_wins(self, tmp_path):
        env = tmp_path / ".env"
        env.write_text("SHARED=file\nFILE_ONLY=yes\n", encoding="utf-8")
        merged = load_env(env, {"SHARED": "process"})
        assert merged["SHARED"] == "process"
        assert merged["FILE_ONLY"] == "yes"

    def test_missing_file_reads_as_empty(self, tmp_path):
        """`serve --env` on a path with no file yet takes the process
        environment alone."""
        assert load_env(tmp_path / "absent.env", {"K": "v"}) == {"K": "v"}

    def test_extra_headers_value_kept_verbatim(self, tmp_path):
        env = tmp_path / ".env"
        env.write_text('EXTRA_HEADERS={"Notion-Version":"2022-06-28"}\n', encoding="utf-8")
        assert read_env_file(env)["EXTRA_HEADERS"] == '{"Notion-Version":"2022-06-28"}'
