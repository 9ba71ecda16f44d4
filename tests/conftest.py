"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import difflib
import itertools
import json
from pathlib import Path

import pytest
import yaml
from hypothesis import settings

from automcp.compiler import EndpointDescriptor, ParamSpec, ToolManifest, ToolSpec
from automcp.ingest import RawDocument, normalize
from automcp.pipeline import CompiledApi, compile_file
from automcp.refs import FlattenedContract, flatten
from automcp.sampling import endpoint_axes
from automcp.security import (
    KIND_API_KEY,
    KIND_HTTP_BASIC,
    KIND_HTTP_BEARER,
    KIND_OAUTH2,
    SecurityScheme,
)

FIXTURES = Path(__file__).parent / "fixtures"
DEFECTS = FIXTURES / "defects"

# A larger budget for the mutation property (tests/test_totality.py), the
# serve and credential-hygiene properties (tests/test_serve_totality.py) and
# the path-template property (tests/test_path_templates.py), run by CI's
# `totality` job: pytest tests/test_totality.py --hypothesis-profile=totality
settings.register_profile("totality", max_examples=5000, deadline=None)


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def build_contract(raw: RawDocument) -> FlattenedContract:
    """The contract `compile_file`, `fix_loop` and `lint` build: every
    `$ref` inlined first, then the result normalized."""
    contract = flatten(raw.tree)
    contract.tree = normalize(contract)
    return contract


class Dict(dict):
    pass


class List(list):
    pass


class Str(str):
    pass


def subclassed(node):
    """`node` rebuilt with each dict, list and str (keys too) as an
    instance of a subclass, as a tree built in memory may hold them."""
    if isinstance(node, dict):
        return Dict({Str(k): subclassed(v) for k, v in node.items()})
    if isinstance(node, list):
        return List(subclassed(v) for v in node)
    return Str(node) if isinstance(node, str) else node


def changed_line_count(before: str, after: str) -> int:
    """Lines a difflib line diff touches: a replaced run counts its longer
    side, an inserted or deleted run its length."""
    matcher = difflib.SequenceMatcher(
        a=before.splitlines(), b=after.splitlines(), autojunk=False
    )
    return sum(
        max(i2 - i1, j2 - j1)
        for op, i1, i2, j1, j2 in matcher.get_opcodes() if op != "equal"
    )


@pytest.fixture(scope="session")
def petstore() -> CompiledApi:
    return compile_file(fixture_path("petstore.json"))


@pytest.fixture(scope="session")
def allauth() -> CompiledApi:
    return compile_file(fixture_path("allauth.yaml"))


def sentinel_credentials(compiled: CompiledApi, tag: str = "sek") -> tuple[dict, dict]:
    """Matching (env vars, mock credential config) with sentinel values."""
    env: dict[str, str] = {}
    creds: dict[str, object] = {}
    for scheme in compiled.manifest.schemes:
        bindings = [b for b in compiled.bindings if b.scheme_id == scheme.id]
        if scheme.kind == KIND_HTTP_BASIC:
            user = next(b for b in bindings if b.role == "USERNAME")
            password = next(b for b in bindings if b.role == "PASSWORD")
            env[user.env_var] = f"{tag}-user"
            env[password.env_var] = f"{tag}-pass-{scheme.id}"
            creds[scheme.id] = (f"{tag}-user", f"{tag}-pass-{scheme.id}")
        else:
            value = f"{tag}-{scheme.id}-secret"
            env[bindings[0].env_var] = value
            creds[scheme.id] = value
    return env, creds


def rebase_spec(src: Path, base_url: str, dst_dir: Path) -> Path:
    """Copy a spec with servers[0].url pointed at `base_url` (the mock)."""
    text = src.read_text(encoding="utf-8")
    tree = json.loads(text) if src.suffix == ".json" else yaml.safe_load(text)
    tree["servers"] = [{"url": base_url}]
    dst = dst_dir / src.name
    if src.suffix == ".json":
        dst.write_text(json.dumps(tree, indent=2) + "\n", encoding="utf-8")
    else:
        dst.write_text(yaml.safe_dump(tree, sort_keys=False), encoding="utf-8")
    return dst


# -- synthetic manifests for sampling tests ------------------------------------

_VERBS = ["GET", "POST", "PUT", "PATCH", "DELETE"]
_GROUPS = ["users", "repos", "orders", "items", "events", "boards"]
_SCHEME_POOL = [
    None,
    SecurityScheme(id="key1", kind=KIND_API_KEY, location="header", parameter_name="X-Key"),
    SecurityScheme(id="bear1", kind=KIND_HTTP_BEARER),
    SecurityScheme(id="basic1", kind=KIND_HTTP_BASIC),
    SecurityScheme(id="oauth1", kind=KIND_OAUTH2),
]


def random_manifest(rng, max_groups: int = 4, max_endpoints: int = 28) -> ToolManifest:
    """A synthetic manifest with random verbs, auth, and param shapes."""
    group_names = rng.sample(_GROUPS, rng.randint(1, max_groups))
    used_schemes: dict[str, SecurityScheme] = {}
    tools: list[ToolSpec] = []
    count = rng.randint(1, max_endpoints)
    for i in range(count):
        group = rng.choice(group_names)
        verb = rng.choice(_VERBS)
        scheme = rng.choice(_SCHEME_POOL)
        params: list[ParamSpec] = []
        path = f"/{group}"
        if rng.random() < 0.5:
            path += "/{item_id}"
            params.append(ParamSpec("item_id", "path", "item_id"))
        for location in ("query", "header", "cookie"):
            if rng.random() < 0.35:
                name = f"{location[0]}{i}"
                params.append(ParamSpec(name, location, name))
        has_body = verb in ("POST", "PUT", "PATCH") and rng.random() < 0.6
        security = []
        if scheme is not None:
            used_schemes[scheme.id] = scheme
            security = [{scheme.id: []}]
        ep = EndpointDescriptor(
            method=verb,
            path_template=path,
            parameters=params,
            request_content_type="application/json" if has_body else None,
            success_status=200,
            security=security,
        )
        tools.append(
            ToolSpec(
                tool_name=f"op{i}",
                description=f"op {i}",
                input_schema={"type": "object", "properties": {}, "required": [],
                              "additionalProperties": False},
                endpoint=ep,
            )
        )
    return ToolManifest(
        tools=tools,
        api_title="Synthetic",
        base_url="https://synthetic.example",
        schemes=list(used_schemes.values()),
    )


def group_axis_universe(tools: list[ToolSpec], scheme_kinds: dict) -> set:
    universe = set()
    for tool in tools:
        verb, auth, modalities = endpoint_axes(tool, scheme_kinds)
        universe.add(("verb", verb))
        universe.update(("auth", a) for a in auth)
        universe.update(("mod", m) for m in modalities)
    return universe


def min_cover_size(tools: list[ToolSpec], scheme_kinds: dict) -> int:
    """Exhaustive minimum axis-cover size (groups <= 10 endpoints only)."""
    universe = group_axis_universe(tools, scheme_kinds)
    for size in range(1, len(tools) + 1):
        for combo in itertools.combinations(tools, size):
            if group_axis_universe(list(combo), scheme_kinds) == universe:
                return size
    return len(tools)
