"""$ref flattening against a single-step substitution oracle, plus the
fatal structural check."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from automcp.errors import DanglingRefError, ExternalRefError, FatalValidationError
from automcp.ingest import normalize
from automcp.refs import (
    escape_token,
    flatten,
    pointer_lookup,
    pointer_segments,
    validate,
)
from conftest import subclassed


# -- the independent oracle: substitute one ref at a time until fixpoint -------


def _find_ref(node, path=()):
    if isinstance(node, dict):
        if isinstance(node.get("$ref"), str):
            return path, node["$ref"]
        for key, value in node.items():
            found = _find_ref(value, path + (key,))
            if found:
                return found
    elif isinstance(node, list):
        for i, value in enumerate(node):
            found = _find_ref(value, path + (i,))
            if found:
                return found
    return None


def substitution_fixpoint(tree: dict, max_steps: int = 10_000) -> dict:
    """Replace the first $ref found with a deep copy of its current
    target; repeat until none remain. Only sound on acyclic documents."""
    work = copy.deepcopy(tree)
    for _ in range(max_steps):
        found = _find_ref(work)
        if found is None:
            return work
        path, ref = found
        target = copy.deepcopy(pointer_lookup(work, ref))
        if not path:
            work = target
            continue
        parent = work
        for segment in path[:-1]:
            parent = parent[segment]
        parent[path[-1]] = target
    raise AssertionError("oracle did not reach a fixpoint")


def random_ref_document(rng: random.Random, max_nodes: int = 50) -> dict:
    """Acyclic by construction: node i only references nodes j > i."""
    node_count = rng.randint(2, max_nodes)

    def make_value(index: int, depth: int):
        roll = rng.random()
        if roll < 0.25 and index + 1 < node_count:
            target = rng.randint(index + 1, node_count - 1)
            return {"$ref": f"#/defs/n{target}"}
        if roll < 0.5 and depth < 3:
            return {
                f"k{rng.randint(0, 3)}": make_value(index, depth + 1)
                for _ in range(rng.randint(1, 3))
            }
        if roll < 0.65 and depth < 3:
            return [make_value(index, depth + 1) for _ in range(rng.randint(1, 3))]
        return rng.choice(["alpha", 42, 3.5, True, None])

    defs = {f"n{i}": make_value(i, 0) for i in range(node_count)}
    return {"defs": defs, "root": make_value(0, 0)}


def reference_flatten(tree: dict) -> tuple[dict, int, list[str]]:
    """`flatten` without memoisation: a deep copy of each target,
    re-expanded at every use. Cycles become the same placeholders."""
    resolved = 0
    cycles: list[str] = []

    def expand(node, active):
        nonlocal resolved
        if isinstance(node, dict):
            ref = node.get("$ref")
            if isinstance(ref, str):
                if ref in active:
                    if ref not in cycles:
                        cycles.append(ref)
                    return {"type": "object", "description": "cyclic reference to " + ref}
                resolved += 1
                return expand(copy.deepcopy(pointer_lookup(tree, ref)), active + (ref,))
            return {key: expand(value, active) for key, value in node.items()}
        if isinstance(node, list):
            return [expand(value, active) for value in node]
        return node

    return expand(tree, ()), resolved, cycles


def random_ref_graph(rng: random.Random) -> dict:
    """Any node may reference any node, itself included, or the `props`
    inside it, so the documents have cycles, diamonds and shared tails."""
    node_count = rng.randint(2, 7)

    def make_ref():
        target = f"#/defs/n{rng.randrange(node_count)}"
        return {"$ref": target + "/props" if rng.random() < 0.3 else target}

    def make_value(depth: int, refs_left: list[int]):
        roll = rng.random()
        if roll < 0.3 and refs_left[0]:
            refs_left[0] -= 1
            return make_ref()
        if roll < 0.55 and depth < 3:
            return {f"k{rng.randint(0, 3)}": make_value(depth + 1, refs_left)
                    for _ in range(rng.randint(1, 3))}
        if roll < 0.7 and depth < 3:
            return [make_value(depth + 1, refs_left) for _ in range(rng.randint(1, 3))]
        return rng.choice(["alpha", 42, 3.5, True, None])

    defs = {f"n{i}": {"tag": i, "props": make_value(0, [2])} for i in range(node_count)}
    return {"defs": defs, "root": make_ref(), "also": make_value(0, [3])}


class TestFlatten:
    def test_single_substitution(self):
        tree = {"a": {"$ref": "#/defs/x"}, "defs": {"x": {"type": "string"}}}
        flat = flatten(tree)
        assert flat.tree["a"] == {"type": "string"}
        assert flat.ref_count_resolved == 1
        assert flat.cycles_detected == []

    def test_no_ref_keys_remain_anywhere(self, petstore):
        def scan(node):
            if isinstance(node, dict):
                assert "$ref" not in node
                for value in node.values():
                    scan(value)
            elif isinstance(node, list):
                for value in node:
                    scan(value)

        scan(petstore.contract.tree)

    def test_self_referential_schema_gets_placeholder(self):
        tree = {
            "defs": {
                "Node": {
                    "type": "object",
                    "properties": {
                        "children": {"type": "array", "items": {"$ref": "#/defs/Node"}}
                    },
                }
            },
            "root": {"$ref": "#/defs/Node"},
        }
        flat = flatten(tree)
        assert len(flat.cycles_detected) == 1
        items = flat.tree["root"]["properties"]["children"]["items"]
        assert items["type"] == "object"
        assert "#/defs/Node" in items["description"]

    def test_mutual_cycle_terminates(self):
        tree = {
            "defs": {
                "A": {"next": {"$ref": "#/defs/B"}},
                "B": {"next": {"$ref": "#/defs/A"}},
            },
            "root": {"$ref": "#/defs/A"},
        }
        flat = flatten(tree)
        assert flat.cycles_detected
        assert flat.tree["root"]["next"]["next"]["type"] == "object"

    def test_three_level_chain_matches_oracle(self):
        tree = {
            "root": {"$ref": "#/defs/a"},
            "defs": {
                "a": {"inner": {"$ref": "#/defs/b"}, "tag": "a"},
                "b": {"inner": {"$ref": "#/defs/c"}},
                "c": {"type": "integer"},
            },
        }
        assert flatten(tree).tree == substitution_fixpoint(tree)

    def test_dangling_ref(self):
        with pytest.raises(DanglingRefError) as excinfo:
            flatten({"a": {"$ref": "#/defs/missing"}, "defs": {}})
        assert excinfo.value.pointer == "#/defs/missing"

    def test_external_ref_rejected(self):
        with pytest.raises(ExternalRefError):
            flatten({"a": {"$ref": "other.yaml#/defs/x"}})

    def test_scalars_preserved_exactly(self):
        tree = {
            "keep": {"s": "text", "i": 7, "f": 2.25, "b": False, "n": None,
                     "l": [1, "two", None]},
            "a": {"$ref": "#/keep"},
        }
        flat = flatten(tree)
        assert flat.tree["keep"] == tree["keep"]
        assert flat.tree["a"] == tree["keep"]

    def test_oracle_equivalence_on_random_dags(self):
        rng = random.Random(20240817)
        for _ in range(40):
            doc = random_ref_document(rng)
            assert flatten(doc).tree == substitution_fixpoint(doc)

    def test_matches_unmemoised_reference_on_random_cyclic_graphs(self):
        rng = random.Random(20261018)
        cyclic = 0
        for _ in range(300):
            doc = random_ref_graph(rng)
            flat = flatten(doc)
            tree, resolved, cycles = reference_flatten(doc)
            assert flat.tree == tree
            assert flat.ref_count_resolved == resolved
            assert flat.cycles_detected == cycles
            cyclic += bool(cycles)
        assert 30 <= cyclic <= 270  # both kinds of graph were drawn

    def test_subclassed_nodes_flatten_as_the_classes_they_extend(self):
        rng = random.Random(20261020)
        for _ in range(100):
            doc = random_ref_graph(rng)
            flat, sub = flatten(doc), flatten(subclassed(doc))
            assert sub.tree == flat.tree
            assert sub.ref_count_resolved == flat.ref_count_resolved
            assert sub.cycles_detected == flat.cycles_detected

    def test_input_not_mutated(self):
        tree = {"a": {"$ref": "#/defs/x"}, "defs": {"x": {"v": 1}}}
        before = copy.deepcopy(tree)
        flatten(tree)
        assert tree == before

    def test_result_shares_every_ref_free_subtree_with_the_input(self):
        """Only the containers on a path to a $ref are new objects; every
        other node of the result is the input's own."""
        tree = {
            "info": {"title": "t", "tags": [{"name": "a"}]},
            "paths": {
                "/a": {"get": {"responses": {"200": {"description": "ok"}}},
                       "post": {"body": {"$ref": "#/defs/x"}, "plain": {"k": [1]}}},
                "/b": {"get": {"items": [{"v": 1}, {"$ref": "#/defs/x"}]}},
            },
            "defs": {"x": {"type": "string", "enum": ["p", "q"]}},
        }
        flat = flatten(tree).tree
        on_ref_paths = [(), ("paths",), ("paths", "/a"), ("paths", "/a", "post"),
                        ("paths", "/b"), ("paths", "/b", "get"),
                        ("paths", "/b", "get", "items")]
        for path in on_ref_paths:
            node, source = flat, tree
            for key in path:
                node, source = node[key], source[key]
            assert node is not source, path
        assert flat["info"] is tree["info"]
        assert flat["defs"] is tree["defs"]
        assert flat["paths"]["/a"]["get"] is tree["paths"]["/a"]["get"]
        post = flat["paths"]["/a"]["post"]
        assert post["plain"] is tree["paths"]["/a"]["post"]["plain"]
        assert post["body"] is tree["defs"]["x"]  # a ref-free target is the input's
        items = flat["paths"]["/b"]["get"]["items"]
        assert items[0] is tree["paths"]["/b"]["get"]["items"][0]
        assert items[1] is tree["defs"]["x"]

    def test_ref_free_document_is_the_input(self):
        tree = {"openapi": "3.0.3", "paths": {"/a": {"get": {}}}}
        assert flatten(tree).tree is tree


class TestPointerCodec:
    @given(st.text())
    @example("")
    @example("/files/a%2Fb~x/{id}")
    @example("%25~01~1/%")
    def test_escaped_key_round_trips(self, key):
        assert pointer_segments("#/" + escape_token(key)) == [key]

    def test_index_int_cannot_read_is_dangling(self):
        """`²` is a digit to `str.isdigit`, but no list index."""
        with pytest.raises(DanglingRefError):
            pointer_lookup({"a": [1]}, "#/a/\u00b2")

    def test_hash_alone_is_the_root_and_slash_the_empty_key(self):
        tree = {"": 1, "a": {"": 2}}
        assert pointer_lookup(tree, "#") is tree
        assert pointer_lookup(tree, "#/") == 1
        assert pointer_lookup(tree, "#/a/") == 2


class TestValidate:
    def test_clean_fixture_has_no_findings(self, petstore):
        assert validate(petstore.contract) is None

    def test_missing_paths_is_fatal(self):
        """In either dialect, normalized first as compile does."""
        for tree in ({"openapi": "3.0.0"}, {"openapi": "3.0.0", "paths": ["/a"]},
                     {"swagger": "2.0"}, {"swagger": "2.0", "paths": ["/a"]}):
            contract = flatten(tree)
            contract.tree = normalize(contract)
            with pytest.raises(FatalValidationError, match="no `paths`"):
                validate(contract)

