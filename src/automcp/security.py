"""Security scheme extraction and credential-to-environment binding."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import SchemeError
from .ingest import DIALECT_2_0, DIALECT_3_X, mapping, text
from .refs import FlattenedContract

KIND_API_KEY = "api_key"
KIND_HTTP_BASIC = "http_basic"
KIND_HTTP_BEARER = "http_bearer"
KIND_OAUTH2 = "oauth2"
KIND_NONE = "none"

_API_KEY_LOCATIONS = ("header", "query", "cookie")


@dataclass
class OAuth2Flows:
    authorization_url: str | None = None
    token_url: str | None = None
    scopes: dict[str, str] = field(default_factory=dict)

    @property
    def authorization_code_usable(self) -> bool:
        return bool(self.authorization_url) and bool(self.token_url)


@dataclass
class SecurityScheme:
    id: str
    kind: str
    location: str = ""        # api_key only: header / query / cookie
    parameter_name: str = ""  # api_key only
    flows: OAuth2Flows | None = None


@dataclass
class EnvBinding:
    env_var: str
    scheme_id: str
    role: str  # human-readable slot: API_KEY, USERNAME, PASSWORD, TOKEN, ...


def extract_security(contract: FlattenedContract) -> list[SecurityScheme]:
    """One SecurityScheme per entry in components.securitySchemes.

    Raises SchemeError (lint class A) for unrecognized scheme types, for
    oauth2 schemes with no flow capable of producing a token, and when the
    schemes are not declared in a mapping.
    """
    _, declared = declared_schemes(contract.tree)
    return [parse_scheme(scheme_id, node) for scheme_id, node in declared.items()]


def declared_schemes(tree: dict, dialect: str = DIALECT_3_X) -> tuple[str, dict]:
    """Where a document declares its security schemes, and the mapping of
    scheme names to declarations there ({} when there is none):
    `securityDefinitions` in 2.0, `components.securitySchemes` in 3.x.
    The one reader of that container; raises SchemeError (class A)
    naming its pointer when it, or `components`, is not a mapping."""
    if dialect == DIALECT_2_0:
        ptr = "#/securityDefinitions"
        container = mapping(tree, "securityDefinitions", required=(SchemeError, ptr))
    else:
        components = mapping(tree, "components", required=(SchemeError, "#/components"))
        ptr = "#/components/securitySchemes"
        container = mapping(components, "securitySchemes", required=(SchemeError, ptr))
    return ptr, container


def parse_scheme(scheme_id: str, node: dict) -> SecurityScheme:
    """The one judge of whether a 3.x scheme declaration is usable; the
    linter reports its SchemeError as the class A finding."""
    if not isinstance(node, dict):
        raise SchemeError(f"security scheme {scheme_id!r} is not a mapping")
    kind = node.get("type")

    if kind == "apiKey":
        location = text(node, "in")
        name = text(node, "name")
        if location not in _API_KEY_LOCATIONS or not name:
            raise SchemeError(
                f"apiKey scheme {scheme_id!r} needs `in` (header/query/cookie) "
                f"and `name`"
            )
        return SecurityScheme(scheme_id, KIND_API_KEY, location, name)

    if kind == "http":
        http_scheme = text(node, "scheme").lower()
        if http_scheme == "basic":
            return SecurityScheme(scheme_id, KIND_HTTP_BASIC)
        if http_scheme == "bearer":
            return SecurityScheme(scheme_id, KIND_HTTP_BEARER)
        raise SchemeError(
            f"http scheme {scheme_id!r} uses unsupported scheme {http_scheme!r}"
        )

    if kind == "oauth2":
        flows = _parse_flows(scheme_id, mapping(node, "flows"))
        return SecurityScheme(scheme_id, KIND_OAUTH2, flows=flows)

    raise SchemeError(f"security scheme {scheme_id!r} has unrecognized type {kind!r}")


def _parse_flows(scheme_id: str, flows: dict) -> OAuth2Flows:
    """Pick a token-capable flow; implicit/password-only declarations are
    class-A defects (no token endpoint a client can exchange against)."""
    for name in ("authorizationCode", "clientCredentials"):
        flow = mapping(flows, name, None)
        if flow is None:
            continue
        token_url = text(flow, "tokenUrl")
        if not token_url:
            raise SchemeError(
                f"oauth2 scheme {scheme_id!r}: {name} flow has no tokenUrl"
            )
        code = name == "authorizationCode"
        return OAuth2Flows(
            authorization_url=text(flow, "authorizationUrl", None) if code else None,
            token_url=token_url,
            scopes=dict(mapping(flow, "scopes")),
        )
    present = ", ".join(sorted(flows)) or "none"
    raise SchemeError(
        f"oauth2 scheme {scheme_id!r} declares no usable flow "
        f"(flows present: {present}; need authorizationCode or "
        f"clientCredentials with a tokenUrl)"
    )


# Each line break `str.splitlines` splits at, as its escape: spec text in
# a .env comment stays on its line.
_BREAKS = {ord(c): ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def build_env_map(
    schemes: list[SecurityScheme], api_title: str
) -> tuple[list[EnvBinding], str]:
    """Bind every secret to an environment variable and render the .env
    template. Deterministic: same schemes + title give identical bytes."""
    prefix = sanitize_env_component(api_title) or "API"
    bindings: list[EnvBinding] = []
    taken: set[str] = set()

    def bind(scheme_id: str, role: str) -> EnvBinding:
        var = unique_name(f"{prefix}_{role}", taken)
        binding = EnvBinding(var, scheme_id, role)
        bindings.append(binding)
        return binding

    lines = [f"# Credentials for {(api_title or 'API').translate(_BREAKS)}".rstrip()]
    for scheme in schemes:
        scheme_id = scheme.id.translate(_BREAKS)
        if scheme.kind == KIND_API_KEY:
            role = sanitize_env_component(scheme.id) or "API_KEY"
            binding = bind(scheme.id, role)
            lines.append(
                f"# {scheme_id}: API key sent in {scheme.location} "
                f"{scheme.parameter_name!r}"
            )
            lines.append(f"{binding.env_var}=")
        elif scheme.kind == KIND_HTTP_BASIC:
            user = bind(scheme.id, "USERNAME")
            password = bind(scheme.id, "PASSWORD")
            lines.append(f"# {scheme_id}: HTTP Basic credentials")
            lines.append(f"{user.env_var}=")
            lines.append(f"{password.env_var}=")
        elif scheme.kind == KIND_HTTP_BEARER:
            binding = bind(scheme.id, "TOKEN")
            lines.append(f"# {scheme_id}: HTTP Bearer token")
            lines.append(f"{binding.env_var}=")
        elif scheme.kind == KIND_OAUTH2:
            binding = bind(scheme.id, "ACCESS_TOKEN")
            lines.append(
                f"# {scheme_id}: OAuth2 access token "
                f"(fill manually or run the token acquisition helper)"
            )
            lines.append(f"{binding.env_var}=")
    lines.append("# Optional JSON object of headers merged into every request")
    lines.append("EXTRA_HEADERS=")
    return bindings, "\n".join(lines) + "\n"


def refresh_var_for(access_var: str) -> str:
    if access_var.endswith("_ACCESS_TOKEN"):
        return access_var[: -len("_ACCESS_TOKEN")] + "_REFRESH_TOKEN"
    return access_var + "_REFRESH"


def sanitize_env_component(text: str) -> str:
    """Uppercase identifier: camelCase boundaries become underscores,
    anything non-alphanumeric collapses to a single underscore."""
    text = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", text)
    text = re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_").upper()
    if text and text[0].isdigit():
        text = "API_" + text
    return text


def unique_name(candidate: str, taken: set[str]) -> str:
    """`candidate`, or the first of `candidate_2`, `candidate_3`, ... that
    `taken` does not hold; added to `taken`."""
    name = candidate
    counter = 1
    while name in taken:
        counter += 1
        name = f"{candidate}_{counter}"
    taken.add(name)
    return name
