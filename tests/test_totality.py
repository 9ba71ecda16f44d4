"""Totality on flawed specs: a mutation property over the fixture specs.

Each example takes one fixture spec (the three corpus specs and the five
defect specs) and changes one node: it replaces it by `[1]`, `1`, `null`,
`"x"`, `{}`, a plain YAML date, text holding a lone surrogate, or a value
under an explicit `!!timestamp`, `!!binary` or `!!set` tag, deletes its
key, replaces its key by an integer, a boolean or null (written as YAML,
which the reader reads as the key's JSON text), or points a `$ref` at
another node. The mutant then runs through `compile_file`,
`compile_file(fix=True)` and `lint`. Each must return or raise
`AutoMcpError`, never anything else, within a bounded wall time, and
each manifest compiled must encode as `generate` writes it.
"""

from __future__ import annotations

import datetime
import json
import time
from dataclasses import dataclass

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from automcp.compiler import manifest_to_dict
from automcp.doctor import lint
from automcp.errors import AutoMcpError
from automcp.ingest import load_document
from automcp.jsonout import dumps
from automcp.pipeline import compile_file
from automcp.refs import escape_token
from conftest import DEFECTS, FIXTURES, build_contract

SPEC_FILES = [FIXTURES / "allauth.yaml", FIXTURES / "legacy20.json",
              FIXTURES / "petstore.json", *sorted(DEFECTS.glob("class_*"))]


@dataclass(frozen=True)
class ExplicitTag:
    """A scalar written under an explicit tag, quoted so that the tag is
    kept where the text alone would resolve to it."""

    tag: str
    text: str


class TagDumper(yaml.SafeDumper):
    pass


TagDumper.add_representer(
    ExplicitTag, lambda dumper, value: dumper.represent_scalar(value.tag, value.text,
                                                                style="'"))

# JSON holds neither a date nor any tagged value, so a mutant holding one
# is written as YAML: the date as a plain `2020-01-01`, the tag as
# `!!timestamp '2020-01-01'`, bytes as `!!binary` and the set as `!!set`
WRONG_VALUES = [[1], 1, None, "x", {}, datetime.date(2020, 1, 1), "a\ud800b",
                ExplicitTag("tag:yaml.org,2002:timestamp", "2020-01-01"),
                b"hello", {"a"}]
WALL_TIME_BOUND_S = 2.0

# A fixed budget that keeps this module to a few seconds in tier-1. CI's
# `totality` job loads the larger `totality` profile (tests/conftest.py),
# whose budget wins when it is loaded.
EXAMPLES = max(300, settings.default.max_examples)


def node_paths(node, prefix=()):
    """The key path of every node under `node`, `node` itself excluded."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


DELETE = object()  # a mutation that deletes the node's key


@dataclass(frozen=True)
class RenameKey:
    """A mutation that replaces the node's key by `key`, in its place."""

    key: int | bool | None


# `200` reads as the text of a response code key, `1` as a new name, and
# `true` and null as "true" and "null"
NON_STRING_KEYS = [RenameKey(200), RenameKey(1), RenameKey(True), RenameKey(None)]


def mutated(node, path, value):
    """A copy of `node` with `value` at `path` (or the key deleted or
    renamed), copying only the containers along it."""
    copy = dict(node) if isinstance(node, dict) else list(node)
    head, rest = path[0], path[1:]
    if rest:
        copy[head] = mutated(node[head], rest, value)
    elif value is DELETE:
        del copy[head]
    elif isinstance(value, RenameKey):
        copy = {value.key if k == head else k: v for k, v in node.items()}
    else:
        copy[head] = value
    return copy


def _load(path):
    text = path.read_text(encoding="utf-8")
    tree = json.loads(text) if path.suffix == ".json" else yaml.safe_load(text)
    paths = list(node_paths(tree))
    return {
        "tree": tree,
        "paths": paths,
        "keys": [p for p in paths if isinstance(p[-1], str)],
        "refs": [p for p in paths if p[-1] == "$ref"],
        "pointers": ["#"] + ["#/" + "/".join(escape_token(str(k)) for k in p)
                             for p in paths],
    }


SPECS = {path.name: _load(path) for path in SPEC_FILES}


def _replace(name):
    return st.tuples(st.just(name), st.sampled_from(SPECS[name]["paths"]),
                     st.sampled_from(WRONG_VALUES))


def _delete(name):
    return st.tuples(st.just(name), st.sampled_from(SPECS[name]["keys"]),
                     st.just(DELETE))


def _rename(name):
    return st.tuples(st.just(name), st.sampled_from(SPECS[name]["keys"]),
                     st.sampled_from(NON_STRING_KEYS))


def _rewire(name):
    return st.tuples(st.just(name), st.sampled_from(SPECS[name]["refs"]),
                     st.sampled_from(SPECS[name]["pointers"]))


# (spec file name, key path of the node, its new value or DELETE)
MUTATIONS = st.one_of(
    st.sampled_from(list(SPECS)).flatmap(_replace),
    st.sampled_from(list(SPECS)).flatmap(_delete),
    st.sampled_from(list(SPECS)).flatmap(_rename),
    st.sampled_from([name for name in SPECS if SPECS[name]["refs"]]).flatmap(_rewire),
)


def run_lint(path):
    raw = load_document(path)
    lint(build_contract(raw), raw)


RUNS = {
    "compile": compile_file,
    "fix": lambda path: compile_file(path, fix=True),
    "lint": run_lint,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("totality")


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutation=MUTATIONS)
def test_mutant_returns_or_raises_a_typed_error(workdir, mutation):
    name, path, value = mutation
    tree = mutated(SPECS[name]["tree"], path, value)
    target = workdir / name
    if isinstance(value, (RenameKey, datetime.date, ExplicitTag, bytes, set)):
        target = target.with_suffix(".yaml")
    if target.suffix == ".json":
        target.write_text(json.dumps(tree, indent=2), encoding="utf-8")
    else:
        target.write_text(yaml.dump(tree, Dumper=TagDumper, sort_keys=False),
                          encoding="utf-8")
    for command, run in RUNS.items():
        start = time.perf_counter()
        try:
            compiled = run(target)
        except AutoMcpError:
            compiled = None
        elapsed = time.perf_counter() - start
        assert elapsed < WALL_TIME_BOUND_S, (command, elapsed)
        if compiled is not None:  # as `generate` writes manifest.json and stub.json
            dumps(manifest_to_dict(compiled.manifest, include_bindings=True)).encode()
